import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digests.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_digests_name_each_artifact_and_repeat(capsys):
    """On a tiny log the script prints one sha256 per artifact, in a fixed
    order, and a second run with the same seed prints the same lines."""
    script = _load_script()
    assert script.main(["--seed", "3", "--normal", "3000"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in first] == [
        "synth.log", "graphs-stride200.jsonl", "graphs-stride37.jsonl",
        "graphs-stride1.jsonl", "model.bin", "history.jsonl", "report.json",
        "detect-stride1.out", "detect-stride7.out", "detect-stride200.out"]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in first)
    assert len({line.split()[0] for line in first}) == len(first)
    assert script.main(["--seed", "3", "--normal", "3000"]) == 0
    assert capsys.readouterr().out.splitlines() == first
