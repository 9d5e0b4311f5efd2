"""Run one canids benchmark workload and report its metrics.

    python3 perfbench/run.py --workload detect-stride200 --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` and the
traffic helpers from ``tests/helpers.py``. The run makes a fixed number of
passes over one input built from ``--seed`` (the count depends only on the
workload and ``--seconds``, so a faster program makes as many passes as a
slower one) and sets the input up a fixed number of times, spread evenly
between the passes (the median is ``setup_s``). It then checks every result
against the library and prints one line per metric followed by a final
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every check passes and 1 when one fails.
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` sets up once,
alternates untraced and traced passes, and reports the per-layer
metrics of ``spans.py``. Spans, models and a full result record go to
``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
TESTS = Path.cwd() / "tests"
OUT = Path.cwd() / ".perfbench_out"
MIN_PASSES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "window_latency_p50_ms": "ms",
    "window_latency_p99_ms": "ms",
    "f1": "ratio",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
# Printed and recorded, but left out of the final JSON line that the
# benchmark's bounds apply to: failed_frac is 0 on a correct program (the
# line's attempted/failed carry it), and p99 spreads 17-30% between runs on
# this shared machine, too close to or above the largest bound allowed (25%).
UNGATED = ("window_latency_p99_ms", "failed_frac")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered) + 0.5) - 1))]


def pass_count(wl, seconds: float, traced: bool = False) -> int:
    """Passes a run makes: as many as ``seconds`` holds at the workload's
    nominal pass time, at least ``MIN_PASSES``; an even count when traced
    passes alternate with untraced ones. The count never depends on how
    fast the program under test runs."""
    if traced:
        return 2 * max(1, round(seconds / (wl.pass_s + wl.traced_pass_s)))
    return max(MIN_PASSES, round(seconds / wl.pass_s))


def measure(wl, passes: int, region_for=lambda i: nullcontext, before=lambda i: None) -> list:
    """Make ``passes`` passes, stopping at the first that raises;
    ``before(i)`` runs ahead of pass i, untimed, and ``region_for(i)`` gives
    the context that wraps pass i's timed part."""
    iterations = []
    for i in range(passes):
        before(i)
        try:
            iterations.append(wl.iterate(region_for(i)))
        except Exception:
            iterations.append(wl.failed_iteration(traceback.format_exc(limit=3)))
            break
    return iterations


def pass_means(iterations) -> tuple[float, dict[int, float], int]:
    """Mean-of-passes timings: the mean pass time, and for each latency
    percentile the mean over passes of that pass's percentile.

    Every pass handles identical input. Other tenants of this shared machine
    switch it between a fast and a slow state every few seconds, so a run's
    passes are a mixture of the two. A mean moves in proportion to the share
    of slow passes; a median jumps from one state to the other when that
    share crosses one half, and moves more between runs. Returns (mean busy
    seconds, {percentile: mean ms}, latency samples).
    """
    good = [it for it in iterations if not it.error]
    if not good:
        return math.inf, {}, 0
    busy_s = statistics.fmean(it.busy_s for it in good)
    with_latency = [it.latencies_ms for it in good if it.latencies_ms]
    latency = {q: statistics.fmean(percentile(ms, q) for ms in with_latency)
               for q in (50, 99)} if with_latency else {}
    return busy_s, latency, sum(map(len, with_latency))


def run_untraced(wl, seconds: float):
    passes = pass_count(wl, seconds)
    setup_times, digests = [], []

    def set_up(i: int) -> None:
        # wl.setups set-ups in all, spread evenly between the passes, so that
        # their median does not hang on one stretch of the run.
        while len(setup_times) * passes < (i + 1) * wl.setups:
            t = perf_counter()
            digests.append(wl.setup())
            setup_times.append(perf_counter() - t)

    iterations = measure(wl, passes, before=set_up)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check = wl.check(iterations)
    if len(set(digests)) > 1:
        check.fail("set-up trained different models from one seed")
    passes = sum(1 for it in iterations if not it.error)
    busy_s, latency, latency_n = pass_means(iterations)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "frames_per_s": wl.log.frames / busy_s,
        "window_latency_p50_ms": latency.get(50, 0.0),
        "window_latency_p99_ms": latency.get(99, 0.0),
        "f1": check.f1 if check.f1 is not None else 0.0,
        "peak_rss_mb": peak_mb,
        "failed_frac": check.failed / max(1, check.attempted),
    }
    samples = {
        "setup_s": len(setup_times),
        "frames_per_s": passes,
        "window_latency_p50_ms": latency_n,
        "window_latency_p99_ms": latency_n,
        "f1": iterations[0].expected,
        "peak_rss_mb": 1,
        "failed_frac": check.attempted,
    }
    units = dict(END_TO_END_UNITS)
    extra = {"passes": passes, "model_digest": digests[0] or iterations[0].digest}
    return check, metrics, units, samples, extra


def run_traced(wl, seconds: float, name: str, seed: int):
    import spans

    tracer = spans.Tracer()

    @contextmanager
    def region(phase):
        tracer.begin(phase)
        try:
            yield
        finally:
            tracer.finish()

    with region("setup"):
        digest = wl.setup()
    # Even passes run untraced, odd ones traced: their frames_per_s ratio is
    # the tracing overhead.
    iterations = measure(wl, pass_count(wl, seconds, traced=True),
                         lambda i: partial(region, "iteration") if i % 2 else nullcontext)
    traced = iterations[1::2]
    for run_id, it in zip([r for r, (p, _, _) in enumerate(tracer.runs) if p == "iteration"],
                          traced):
        counters = tracer.counters[run_id]
        counters["can_log.rejected_lines"] = sum(it.rejects.values())
        counters["cli.verdicts"] = len(it.verdicts)
        counters["parsed_lines"] = wl.log.frames + sum(it.rejects.values())
    check = wl.check(iterations)
    metrics, problems = spans.per_layer(tracer)
    for text in problems:
        check.fail(text)
    untraced_s = pass_means(iterations[0::2])[0]
    traced_s = pass_means(traced)[0]
    metrics["bench.trace_overhead_frac"] = 1.0 - untraced_s / traced_s
    tracer.save(OUT / f"trace-{name}-seed{seed}.npz")
    units = {k: spans.PER_LAYER_UNITS[k] for k in metrics}
    samples = {k: len(traced) for k in metrics}
    digests = {it.digest for it in traced if it.digest}
    extra = {"passes": len(traced),
             "model_digest": digest or (digests.pop() if len(digests) == 1 else "")}
    return check, metrics, units, samples, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "canids" / "__init__.py").is_file() or not (TESTS / "helpers.py").is_file():
        print(f"error: no canids package under {SRC} or no {TESTS / 'helpers.py'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT)
    if args.trace:
        check, metrics, units, samples, extra = run_traced(
            wl, args.seconds, args.workload, args.seed)
    else:
        check, metrics, units, samples, extra = run_untraced(wl, args.seconds)

    for text in check.problems:
        print(f"FAIL {text}")
    for key, value in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {units[key]} (n={samples[key]})")
    correct = not check.problems and check.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": check.attempted, "failed": check.failed,
        "problems": check.problems, "samples": samples, **extra,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: v for k, v in record["metrics"].items() if k not in UNGATED},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
