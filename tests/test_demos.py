import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_streaming_detection_demo(capsys):
    runpy.run_path(str(DEMOS / "05_streaming_detection.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "71998 frames -> 359 verdicts" in out
    assert "flagged " in out and " windows holding injected frames" in out
    assert "attacked" in out and "attack_free" in out
