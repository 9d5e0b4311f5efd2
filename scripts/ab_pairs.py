"""Compare two commits on one benchmark workload over alternated pairs of runs.

    python scripts/ab_pairs.py PARENT CHANGE --workload W [--seed 0] [--pairs 10] [--seconds 20]

PARENT and CHANGE are any git revisions of this repository. Each is exported
with ``git archive`` into its own fresh directory, the two siblings under
one temporary parent, so both sides run from the same kind of place and the
repository's own ``.git`` and working tree are never touched. Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once on each
side, from that side's directory; the parent goes first in odd-numbered
pairs and the change in even ones. For each end-to-end metric that the
change's ``BENCHMARK.json`` gates, the script prints each side's median and
quartiles, the change's median over the parent's, the median of the per-pair
change/parent ratios, how many pairs the change won (ties count for neither
side), and whether the claim rule is met: the change wins at least 9 of
every 10 pairs and its median is better than the parent's by more than the
parent's interquartile range. It exits 1 if any run printed
``correct: false`` or no result line, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def export(revision: str, dest: Path) -> str:
    """Extract the tree of revision into dest; returns its commit id."""
    commit = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", f"{revision}^{{commit}}"],
        check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The final JSON line of one untraced benchmark run, or None if the run
    printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(gated: list[dict], results: list[dict[str, dict]]) -> list[str]:
    """One line per gated metric over the pairs of (side -> result) runs."""
    rows = []
    for metric in gated:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [r[side]["metrics"][name]["value"] for r in results
                         if name in r[side]["metrics"]] for side in SIDES}
        if len(values["parent"]) != len(results) or len(values["change"]) != len(results):
            rows.append(f"{name}: missing from some runs")
            continue
        pairs = list(zip(values["parent"], values["change"]))
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        (p1, pm, p3), (c1, cm, c3) = quartiles(values["parent"]), quartiles(values["change"])
        ratio = f"{cm / pm:.3f}x" if pm else "n/a"
        pair_ratio = (f"{statistics.median(c / p for p, c in pairs):.3f}x"
                      if all(p for p, _ in pairs) else "n/a")
        clears = "yes" if abs(cm - pm) > p3 - p1 else "no"
        met = "yes" if 10 * wins >= 9 * len(pairs) and sign * (cm - pm) > p3 - p1 else "no"
        rows.append(f"{name} ({metric['unit']}, {metric['better']} is better): "
                    f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                    f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {ratio}  "
                    f"median pair ratio {pair_ratio}  "
                    f"change wins {wins}/{len(results)}  "
                    f"median gap exceeds parent IQR: {clears}  "
                    f"claim rule met: {met}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", help="git revision of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        revisions = {"parent": args.parent, "change": args.change}
        for side in SIDES:
            commit = export(revisions[side], checkouts[side])
            print(f"{side}: {revisions[side]} = {commit}")
        gated = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        results, correct = [], True
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            result = {}
            for side in order:
                result[side] = run_once(checkouts[side], args.workload, args.seed,
                                        args.seconds)
                if result[side] is None or not result[side].get("correct"):
                    correct = False
                    print(f"pair {pair}: {side} run is not correct: {result[side]}")
            if result["parent"] is None or result["change"] is None:
                continue
            results.append(result)
            parent, change = result["parent"]["metrics"], result["change"]["metrics"]
            values = "  ".join(
                f"{name} {parent[name]['value']:.6g} -> {change[name]['value']:.6g}"
                for name in (m["name"] for m in gated) if name in parent and name in change)
            print(f"pair {pair} ({order[0]} first): {values}", flush=True)

    print(f"{args.workload} seed {args.seed}, {len(results)} pairs at --seconds {args.seconds}:")
    if results:
        for row in summarize(gated, results):
            print(f"  {row}")
    print(f"correct: {'true' if correct else 'false'}")
    return 0 if correct and results else 1


if __name__ == "__main__":
    sys.exit(main())
