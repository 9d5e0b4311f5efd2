"""Print held-out F1 min/median/max over training seeds, per attack scenario.

    python scripts/accuracy_table.py [--epochs 20] [--seeds 0 1 2 3 4] [--frames N]

Two attack-free bases are built with the test suite's traffic helpers: the
criterion-7 base, make_base_stream(500_000, seed=11), and a jitter-0.1 base,
make_base_stream(200_000, seed=11, jitter=0.1), whose held-out graphs do not
repeat its training graphs. Each scenario is injected into each base at
injection seed 23, cut into 200-frame windows and split 80/20 by label at
split seed 7, as criterion 7 does. One model per training seed is trained
with TrainConfig() (--epochs overrides its epoch count) and scored on the
held-out graphs. Each (base, scenario) prints as one row:

    <base> <scenario> <epochs> <seeds> <f1 min> <f1 median> <f1 max> <undefined>

where undefined counts the seeds whose model flagged no held-out graph and
so has no F1. --frames sets both bases' frame count, for a quick look on a
small capture. Training runs on one BLAS thread, so two runs with the same
options print the same text.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported, so the trained
# weights and F1 values do not depend on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from canids.cli import stratified_split  # noqa: E402
from canids.evaluate import confusion, metrics  # noqa: E402
from canids.gcn import TrainConfig, predict_many, train  # noqa: E402
from canids.graph_builder import graphs_from_frames  # noqa: E402
from helpers import SCENARIO_KINDS, make_base_stream, make_scenario_stream  # noqa: E402

# (name, frame count, jitter) of each attack-free base.
BASES = (("criterion-7", 500_000, 0.01), ("jitter-0.1", 200_000, 0.1))
BASE_SEED = 11
INJECTION_SEED = 23
SPLIT_SEED = 7
TRAIN_FRACTION = 0.8


def held_out_f1(train_graphs, test_graphs, config: TrainConfig) -> float | None:
    """F1 on test_graphs of a model trained on train_graphs."""
    params, _ = train(train_graphs, config)
    preds, _ = predict_many(test_graphs, params)
    return metrics(confusion(preds.tolist(), [g.label for g in test_graphs])).f1


def rows(epochs: int, seeds: list[int], frames: int | None):
    """(base, scenario, f1 values per seed, None where undefined), in order."""
    for base_name, base_frames, jitter in BASES:
        base, switch = make_base_stream(frames or base_frames, seed=BASE_SEED,
                                        jitter=jitter)
        for scenario in SCENARIO_KINDS:
            stream = make_scenario_stream(scenario, base, switch, seed=INJECTION_SEED)
            split = stratified_split(graphs_from_frames(stream.frames), TRAIN_FRACTION,
                                     seed=SPLIT_SEED)
            yield base_name, scenario, [
                held_out_f1(*split, TrainConfig(epochs=epochs, seed=seed))
                for seed in seeds]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                        help="training epochs (default: TrainConfig's)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(5)),
                        help="training seeds")
    parser.add_argument("--frames", type=int,
                        help="frames per base (default: 500000 and 200000)")
    args = parser.parse_args(argv)
    print(f"{'base':<12} {'scenario':<9} {'epochs':>6} {'seeds':>5} "
          f"{'f1_min':>7} {'f1_median':>9} {'f1_max':>7} {'undefined':>9}")
    for base_name, scenario, f1s in rows(args.epochs, args.seeds, args.frames):
        defined = [f1 for f1 in f1s if f1 is not None]
        low, mid, high = ((f"{min(defined):.4f}", f"{statistics.median(defined):.4f}",
                           f"{max(defined):.4f}") if defined else ("-", "-", "-"))
        print(f"{base_name:<12} {scenario:<9} {args.epochs:>6} {len(f1s):>5} "
              f"{low:>7} {mid:>9} {high:>7} {len(f1s) - len(defined):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
