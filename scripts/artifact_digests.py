"""Print the sha256 of every artifact of one seeded canids pipeline run.

    python scripts/artifact_digests.py [--seed 7] [--normal 20000]

The run synthesizes a log holding all four attack kinds, with its manifest,
dumps its graphs at strides 200, 37 and 1, trains a model on the stride-200
dump with the default training settings, evaluates that model on the dump
(Mixed-DFSR report) and runs detect over the log at strides 1, 7 and 200. Every step
goes through canids.cli.main in this process, with one BLAS thread, inside
a temporary directory. Each artifact prints as one line:

    <sha256>  <name>

Two checkouts that print the same lines for a seed wrote byte-identical
artifacts, so diffing this output before and after a change shows whether
the change kept them.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported, so model bytes do
# not depend on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from canids.cli import main as canids  # noqa: E402

GRAPH_STRIDES = (200, 37, 1)
DETECT_STRIDES = (1, 7, 200)


def _run(*argv: str) -> bytes:
    """stdout of one canids command; a non-zero exit stops the run."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = canids(list(argv))
    if code:
        raise SystemExit(f"canids {' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def digests(seed: int, normal: int) -> list[tuple[str, str]]:
    """(name, sha256 hex) of each artifact, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        log, model = str(work / "synth.log"), str(work / "model.bin")
        history, report = work / "history.jsonl", work / "report.json"
        _run("synth", "--out", log, "--normal", str(normal), "--seed", str(seed),
             "--dos", "0.5", "--fuzzy", "0.5", "--spoofing", "0.5", "--replay", "0.5")
        files = [("synth.log", Path(log)),
                 ("synth.log.manifest.json", Path(log + ".manifest.json"))]
        for stride in GRAPH_STRIDES:
            dump = work / f"graphs-stride{stride}.jsonl"
            _run("graphs", "--log", log, "--out", str(dump), "--stride", str(stride))
            files.append((dump.name, dump))
        _run("train", "--graphs", str(work / "graphs-stride200.jsonl"), "--model", model,
             "--history", str(history), "--seed", str(seed))
        files += [("model.bin", Path(model)), (history.name, history)]
        _run("eval", "--graphs", str(work / "graphs-stride200.jsonl"), "--model", model,
             "--scenario", "Mixed-DFSR", "--report", str(report))
        files.append((report.name, report))
        blobs = [(name, path.read_bytes()) for name, path in files]
        for stride in DETECT_STRIDES:
            blobs.append((f"detect-stride{stride}.out",
                          _run("detect", "--model", model, "--log", log,
                               "--stride", str(stride))))
    return [(name, hashlib.sha256(blob).hexdigest()) for name, blob in blobs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="synth and train seed")
    parser.add_argument("--normal", type=int, default=20_000,
                        help="normal frames in the synth log")
    args = parser.parse_args(argv)
    for name, digest in digests(args.seed, args.normal):
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
