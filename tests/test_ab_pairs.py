import json
import shutil
import subprocess
from pathlib import Path

import pytest

from helpers import load_script

REPO = Path(__file__).resolve().parent.parent


def _has_head() -> bool:
    return shutil.which("git") is not None and subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", "HEAD"],
        capture_output=True).returncode == 0


def _run(metrics):
    return {"correct": True, "metrics": {k: {"value": v} for k, v in metrics.items()}}


def test_summary_counts_wins_in_each_metric_direction():
    """A win is a pair where the change is strictly better in the metric's
    own direction; ties count for neither side."""
    script = load_script("ab_pairs")
    gated = [{"name": "frames_per_s", "unit": "frames/s", "better": "higher"},
             {"name": "setup_s", "unit": "s", "better": "lower"}]
    results = [{"parent": _run({"frames_per_s": p, "setup_s": 1.0}),
                "change": _run({"frames_per_s": c, "setup_s": s})}
               for p, c, s in [(100, 120, 0.9), (100, 100, 1.0), (110, 90, 1.1)]]
    rates, setup = script.summarize(gated, results)
    assert "change wins 1/3" in rates and "parent 100 [100, 105]" in rates
    assert "change wins 1/3" in setup and "median gap exceeds parent IQR: no" in setup
    assert "claim rule met: no" in rates and "claim rule met: no" in setup


@pytest.mark.parametrize("better", ["higher", "lower"])
@pytest.mark.parametrize("change, wins, ratio, met", [
    ([p * 1.2 for p in range(100, 120, 2)], 10, "1.200", "yes"),
    ([100] + [p * 1.2 for p in range(102, 120, 2)], 9, "1.200", "yes"),  # one tie
    ([100, 102] + [p * 1.2 for p in range(104, 120, 2)], 8, "1.200", "no"),
    ([p + 5 for p in range(100, 120, 2)], 10, "1.046", "no"),  # gap 5, parent IQR 9
])
def test_summary_states_the_claim_rule(better, change, wins, ratio, met):
    """The claim rule is met when the change wins at least 9 of 10 pairs
    (ties count for neither side) and its median is better than the
    parent's by more than the parent's IQR. Negating every value turns a
    higher-is-better gain into a lower-is-better one with the same pair
    ratios; a change as far the other way meets it in neither direction."""
    script = load_script("ab_pairs")
    parent = list(range(100, 120, 2))  # quartiles 104.5 and 113.5
    sign = 1 if better == "higher" else -1
    gated = [{"name": "m", "unit": "u", "better": better}]

    def row(change):
        return script.summarize(gated, [{"parent": _run({"m": sign * p}),
                                         "change": _run({"m": sign * c})}
                                        for p, c in zip(parent, change)])[0]

    gain = row(change)
    assert f"change wins {wins}/10" in gain and f"claim rule met: {met}" in gain
    assert f"median pair ratio {ratio}x" in gain
    loss = row([2 * p - c for p, c in zip(parent, change)])
    assert "change wins 0/10" in loss and "claim rule met: no" in loss


@pytest.mark.skipif(not _has_head(), reason="needs a git checkout with a HEAD commit")
def test_one_head_pair_reports_every_gated_metric(capsys):
    """One HEAD-vs-HEAD pair of a short detect-stride1 run exports both
    sides, prints a summary row per gated metric and exits 0."""
    script = load_script("ab_pairs")
    assert script.main(["HEAD", "HEAD", "--workload", "detect-stride1", "--pairs", "1",
                        "--seconds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    gated = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in gated:
        assert any(line.strip().startswith(f"{metric['name']} (") and "change wins" in line
                   for line in out), metric["name"]
    assert out[-1] == "correct: true"
