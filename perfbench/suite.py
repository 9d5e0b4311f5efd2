"""Run every workload, untraced and traced, and print all metrics.

    python3 perfbench/suite.py [--seeds 0 1] [--seconds 20] [--baseline perfbench/BASELINE.json]

Run from the repository root. Each workload runs in its own process through
``run.py``. On the first seed the traced run is made twice, and every count
metric and the trained model's digest must come out identical (exact-count
check). With ``--baseline`` the results are written, with the provenance of
the machine and commit, to the given JSON file. Exits non-zero when any run
fails its correctness checks or the repeat differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = Path.cwd() / ".perfbench_out"
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py process; returns its full result record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not path.is_file():
        return {"correct": False, "problems": [f"exit code {proc.returncode}"], "metrics": {}}
    return json.loads(path.read_text())


def provenance() -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: "1" for var in BLAS_PINS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "tests"), str(HERE)]
    from spans import COUNT_METRICS
    from workloads import WORKLOADS

    results: dict[str, dict] = {}
    ok = True
    for seed in args.seeds:
        for workload in WORKLOADS:
            for trace in (0, 1):
                record = run(workload, seed, args.seconds, trace)
                results[f"{workload} seed={seed} trace={trace}"] = record
                ok &= record["correct"]
    seed = args.seeds[0]
    same = True
    for workload in WORKLOADS:
        first = results[f"{workload} seed={seed} trace=1"]
        again = run(workload, seed, args.seconds, 1)
        ok &= again["correct"]
        for key in ("model_digest", *COUNT_METRICS):
            a = first.get(key, first["metrics"].get(key))
            b = again.get(key, again["metrics"].get(key))
            if a != b:
                print(f"REPEAT MISMATCH {workload} seed={seed} {key}: {a} != {b}")
                same = False
    print("exact-count check:", "identical" if same else "FAILED")
    print("correctness:", "all runs correct" if ok else "FAILED")
    ok &= same

    if args.baseline:
        baseline = {"provenance": provenance(), "seconds": args.seconds, "runs": {
            key: {k: rec.get(k) for k in ("correct", "attempted", "failed", "passes",
                                          "model_digest", "samples", "metrics")}
            for key, rec in results.items()}}
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"baseline: {args.baseline}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
