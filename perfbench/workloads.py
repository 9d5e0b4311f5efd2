"""The three benchmark workloads: set-up, one measured iteration, checks.

Every workload is a closed loop: the program pulls the next log line only
after it has handled the previous one. ``train-fuzzy`` hands the whole line
list to the library batch pipeline; the two ``detect`` workloads feed
``cli.main(["detect", ...])`` through a stdin replacement that records when
each window-completing line is handed over, and a stdout replacement that
records when each verdict is written.
"""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter

import numpy as np

from canids import can_log, cli, evaluate, gcn, graph_builder
from canids.can_log import format_timestamp

import inputs

PROB_TOLERANCE = 1e-6
_LABEL_TEXT = {0: "attack_free", 1: "attacked"}


@dataclass
class Iteration:
    """What one measured pass produced, timings first.

    ``busy_s`` runs from the first line handed to the program to its last
    result (the held-out score, or the last verdict line).
    """

    busy_s: float
    latencies_ms: list[float]
    windows: int                  # window results produced
    rejects: Counter
    verdicts: list[str] = field(default_factory=list)
    f1: float | None = None
    expected: int = 0             # window results the pass should produce
    digest: str = ""
    error: str = ""


@dataclass
class Check:
    """Outcome of the correctness gate over every iteration of a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    f1: float | None = None

    def fail(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_rejects(check: Check, it: Iteration, injected: dict[str, int]) -> None:
    if dict(it.rejects) != {k: v for k, v in injected.items() if v}:
        check.fail(f"rejected lines {dict(it.rejects)} != injected {injected}")


class TrainFuzzy:
    """Library batch pipeline on a fuzzy-scenario capture.

    parse_log -> graphs_from_frames -> stratified_split -> train(TrainConfig())
    -> predict_many on the held-out split -> scenario_report. Fuzzy windows are
    large (median ~60 nodes, clean ones 15), so dense batching dominates.
    """

    name = "train-fuzzy"
    normal_frames = 100_000
    # Set-ups per run, and nominal seconds of one untraced and one traced
    # pass on the reference 2-core machine; they size a run, nothing else.
    setups = 5
    pass_s, traced_pass_s = 7.0, 7.7
    latency_sweeps = 5

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.model_path = out / f"model-{self.name}-seed{seed}.bin"

    def setup(self):
        base = 1000 + 10 * self.seed
        frames = inputs.scenario_frames("fuzzy", self.normal_frames, base)
        self.log = inputs.serialize(frames, base + 5)
        return ""

    def iterate(self, region=nullcontext) -> Iteration:
        lines = self.log.lines
        with region():
            start = perf_counter()
            frames, parse_report = can_log.parse_log(lines)
            graphs = graph_builder.graphs_from_frames(frames)
            train_graphs, test_graphs = cli.stratified_split(graphs, 0.8, self.seed)
            params, _ = gcn.train(train_graphs, gcn.TrainConfig())
            predictions, probs = gcn.predict_many(test_graphs, params)
            report = evaluate.scenario_report(
                "Fuzzy", predictions.tolist(), [g.label for g in test_graphs],
                evaluate.PAPER_TARGETS["Fuzzy"])
            busy_s = perf_counter() - start
        # Single-window scoring latency on this capture's (large) graphs: the
        # same gcn.predict call that detect makes once per window. One sweep
        # takes under 0.1 s, a glimpse of a machine whose speed wanders over
        # seconds, so each pass makes several.
        latencies = []
        for _ in range(self.latency_sweeps):
            for g in graphs:
                t = perf_counter()
                gcn.predict(g, params)
                latencies.append((perf_counter() - t) * 1e3)
        gcn.save_params(params, self.model_path)
        return Iteration(
            busy_s=busy_s,
            latencies_ms=latencies,
            windows=int(np.isfinite(probs).sum()),
            expected=len(test_graphs),
            rejects=Counter(kind for _, kind, _ in parse_report.errors),
            f1=report.f1,
            digest=_digest(self.model_path),
        )

    def failed_iteration(self, error: str) -> Iteration:
        windows = self.log.frames // inputs.WINDOW
        return Iteration(0.0, [], 0, Counter(), expected=windows, error=error)

    def check(self, iterations: list[Iteration]) -> Check:
        check = Check()
        for it in iterations:
            check.attempted += it.expected
            check.failed += it.expected - it.windows
            if it.error:
                check.fail(it.error)
                continue
            _check_rejects(check, it, self.log.injected_rejects)
            if it.f1 is None:
                check.fail("held-out F1 is undefined")
            if it.digest != iterations[0].digest:
                check.fail("trained model differs between iterations of one seed")
        check.f1 = iterations[0].f1
        return check


class _Feeder:
    """stdin for detect: yields log lines on demand and stamps the hand-over
    of each line that completes a window."""

    def __init__(self, lines: list[str], marks: list[int]):
        self.lines = lines
        self.marks = marks
        self.handed: list[float] = []
        self.first = 0.0

    def __iter__(self):
        it = iter(self.lines)
        stamp = self.handed.append
        self.first = perf_counter()
        pos = 0
        for mark in self.marks:
            yield from islice(it, mark - pos)
            stamp(perf_counter())
            yield next(it)
            pos = mark + 1
        yield from it


class _Sink:
    """stdout/stderr for detect: keeps the text and stamps every write that
    is not a bare line end."""

    def __init__(self):
        self.parts: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        if text != "\n":
            self.times.append(perf_counter())
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def lines(self) -> list[str]:
        return "".join(self.parts).splitlines()


def _matches(line: str, row: tuple[int, str, str, str, float]) -> bool:
    """A verdict line agrees with the library's (index, first_ts, last_ts,
    label, probability) for the same window."""
    fields = line.split()
    if len(fields) != 5 or fields[:4] != [str(row[0]), row[1], row[2], row[3]]:
        return False
    try:
        return abs(float(fields[4]) - row[4]) <= PROB_TOLERANCE
    except ValueError:
        return False


class Detect:
    """Streaming ``canids detect`` on a held-out mixed-attack capture, with
    the model trained in set-up on a mixed capture from another seed."""

    train_normal_frames = 60_000
    setups = 3

    def __init__(self, name: str, stride: int, normal_frames: int, pass_s: float,
                 traced_pass_s: float, seed: int, out: Path):
        self.name = name
        self.stride = stride
        self.pass_s, self.traced_pass_s = pass_s, traced_pass_s
        self.normal_frames = normal_frames
        self.seed = seed
        self.model_path = out / f"model-{name}-seed{seed}.bin"

    def setup(self) -> str:
        base = 2000 + 10 * self.seed
        frames = inputs.scenario_frames("mixed", self.normal_frames, base)
        self.log = inputs.serialize(frames, base + 5)
        del frames
        train_frames = inputs.scenario_frames("mixed", self.train_normal_frames,
                                              3000 + 10 * self.seed)
        params, _ = gcn.train(graph_builder.graphs_from_frames(train_frames),
                              gcn.TrainConfig())
        gcn.save_params(params, self.model_path)
        first = inputs.WINDOW - 1
        self.marks = self.log.frame_line[first::self.stride].tolist()
        return _digest(self.model_path)

    def iterate(self, region=nullcontext) -> Iteration:
        feeder = _Feeder(self.log.lines, self.marks)
        out, err = _Sink(), _Sink()
        argv = ["detect", "--model", str(self.model_path), "--log", "-",
                "--stride", str(self.stride)]
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = feeder, out, err
        try:
            with region():
                code = cli.main(argv)
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        verdicts = out.lines()
        error = "" if code == 0 else f"detect exited {code}: {err.lines()[-1:]}"
        latencies = [(w - h) * 1e3 for w, h in zip(out.times, feeder.handed)]
        rejects = Counter(line.rsplit(": ", 1)[-1] for line in err.lines()
                          if line.startswith("warning: line "))
        return Iteration(
            busy_s=out.times[-1] - feeder.first if out.times else 0.0,
            latencies_ms=latencies,
            windows=len(verdicts),
            expected=len(self.marks),
            rejects=rejects,
            verdicts=verdicts,
            error=error,
        )

    def failed_iteration(self, error: str) -> Iteration:
        return Iteration(0.0, [], 0, Counter(), expected=len(self.marks), error=error)

    def reference(self) -> list[tuple[int, str, str, str, float]]:
        """Library answer for the same log: graphs_from_frames at the same
        stride, then predict_many."""
        frames, _ = can_log.parse_log(self.log.lines)
        graphs = graph_builder.graphs_from_frames(frames, inputs.WINDOW, self.stride)
        # Small batches keep the dense block-diagonal reference cheap; batching
        # does not change a graph's probability beyond rounding.
        labels, probs = gcn.predict_many(graphs, gcn.load_params(self.model_path),
                                         batch_size=16)
        self.truth = [g.label for g in graphs]
        rows = []
        for k, (label, prob) in enumerate(zip(labels.tolist(), probs.tolist())):
            lo = k * self.stride
            rows.append((k, format_timestamp(frames[lo].timestamp_us),
                         format_timestamp(frames[lo + inputs.WINDOW - 1].timestamp_us),
                         _LABEL_TEXT[label], prob))
        return rows

    def check(self, iterations: list[Iteration]) -> Check:
        check = Check()
        ref = self.reference()
        if len(ref) != len(self.marks):
            check.fail(f"library gives {len(ref)} windows, expected {len(self.marks)}")
        for it in iterations:
            check.attempted += len(ref)
            if it.error:
                check.fail(it.error)
            _check_rejects(check, it, self.log.injected_rejects)
            if len(it.verdicts) != len(ref):
                check.fail(f"{len(it.verdicts)} verdicts for {len(ref)} windows")
            check.failed += max(0, len(ref) - len(it.verdicts))
            for line, row in zip(it.verdicts, ref):
                if not _matches(line, row):
                    check.failed += 1
                    check.fail(f"window {row[0]}: got {line!r}, library gives {row}")
        verdicts = iterations[0].verdicts
        predicted = [1 if line.split()[3:4] == ["attacked"] else 0 for line in verdicts]
        if predicted and len(predicted) == len(self.truth):
            check.f1 = evaluate.metrics(evaluate.confusion(predicted, self.truth)).f1
        return check


def make(name: str, seed: int, out: Path):
    if name == "train-fuzzy":
        return TrainFuzzy(seed, out)
    if name == "detect-stride200":
        return Detect(name, 200, 100_000, 2.0, 2.3, seed, out)
    if name == "detect-stride1":
        return Detect(name, 1, 5_500, 2.6, 3.0, seed, out)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train-fuzzy", "detect-stride200", "detect-stride1")
