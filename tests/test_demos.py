import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
STREAMING_DEMO = "05_streaming_detection.py"


@pytest.mark.parametrize("name", sorted(
    path.name for path in DEMOS.glob("*.py") if path.name != STREAMING_DEMO))
def test_demo_runs(name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")


def test_streaming_detection_demo(capsys):
    runpy.run_path(str(DEMOS / STREAMING_DEMO), run_name="__main__")
    out = capsys.readouterr().out
    assert "71998 frames -> 359 verdicts" in out
    assert "flagged " in out and " windows holding injected frames" in out
    assert "attacked" in out and "attack_free" in out
