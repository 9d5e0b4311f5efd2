import re

from helpers import load_script


def test_artifact_digests_name_each_artifact_and_repeat(capsys):
    """On a tiny log the script prints one sha256 per artifact, in a fixed
    order, and a second run with the same seed prints the same lines."""
    script = load_script("artifact_digests")
    assert script.main(["--seed", "3", "--normal", "3000"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in first] == [
        "synth.log", "synth.log.manifest.json", "graphs-stride200.jsonl",
        "graphs-stride37.jsonl", "graphs-stride1.jsonl", "model.bin", "history.jsonl",
        "report.json", "detect-stride1.out", "detect-stride7.out", "detect-stride200.out"]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in first)
    assert len({line.split()[0] for line in first}) == len(first)
    assert script.main(["--seed", "3", "--normal", "3000"]) == 0
    assert capsys.readouterr().out.splitlines() == first


# sha256 of the artifacts of `artifact_digests.py --seed 3 --normal 3000` that
# hold no float sums. Model, history, report and detect output follow the
# BLAS build's summation order, so they are left out.
PINNED_DIGESTS = {
    "synth.log": "cb3a7eb22e6b06e2aa83741d0e1d4d1489974c210e57fe681c3f8cfb9a6d10e6",
    "synth.log.manifest.json":
        "5cdaf97a5bd0bd4bc02f669482e8653c1668b1f7ddff0fee21e526181154305e",
    "graphs-stride200.jsonl": "5ca7652f7772a0383a553d03d523781414a8ff85e98280f7189f20bbb7458819",
    "graphs-stride37.jsonl": "78582e450290b70e55897283105a7c2385ddbbd72b9614890c387a48c41cb7ce",
    "graphs-stride1.jsonl": "20ef3d8497f9516b5189466012d7cd41ccebf9ab6f4dee09f09fe08d28ab2bd8",
}


def test_synth_log_and_graph_dumps_keep_their_pinned_digests(capsys):
    """The seeded synth log, its manifest and its three graph dumps stay
    byte-identical."""
    script = load_script("artifact_digests")
    assert script.main(["--seed", "3", "--normal", "3000"]) == 0
    printed = dict(reversed(line.split("  ")) for line in capsys.readouterr().out.splitlines())
    assert {name: printed[name] for name in PINNED_DIGESTS} == PINNED_DIGESTS
