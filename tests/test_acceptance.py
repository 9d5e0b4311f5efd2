"""Acceptance suite: one test per release criterion, with stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The end-to-end criterion builds a 500k-frame labeled dataset and
trains one model per attack scenario with default settings; everything is
seeded, so results are bit-reproducible.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from canids.can_log import parse_line, serialize_frame
from canids.cli import stratified_split
from canids.evaluate import confusion, metrics
from canids.gcn import (
    TrainConfig,
    backward,
    bce_loss,
    forward,
    init_params,
    load_params,
    predict_many,
    save_params,
    train,
)
from canids.graph_builder import (
    GraphBatch,
    batch_graphs,
    graph_from_ids,
    graphs_from_frames,
)
from canids.kernel import make_rng
from helpers import (
    SCENARIO_KINDS,
    brute_force_graph,
    make_base_stream,
    make_scenario_stream,
    parse_log_file,
    random_frames,
    random_id_window,
)

RAW_TABLE_ROWS = [
    "1478198376 0316 8 05 21 68 09 21 21 00 6f",
    "1478198376 018f 8 fe 5b 00 00 00 3c 00 00",
    "1478198376 0260 8 19 21 22 30 08 8e 6d 3a",
    "1478198376 02a0 8 64 00 9a 1d 97 02 bd 00",
    "1478198376 0329 8 40 bb 7f 14 11 20 00 14",
]

F1_FLOORS = {"dos": 0.95, "fuzzy": 0.95, "spoofing": 0.95,
             "replay": 0.85, "mixed": 0.90}


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE PASS [{criterion}]{': ' + detail if detail else ''}")


def test_criterion_01_graph_oracle_equivalence():
    rng = make_rng(101)
    start = time.perf_counter()
    for _ in range(100):
        w = int(rng.integers(2, 10_001))
        ids = random_id_window(rng, w, pool=int(rng.integers(2, 120)))
        graph = graph_from_ids(ids, attacked=bool(rng.integers(0, 2)))
        order, edges, in_deg, out_deg = brute_force_graph(ids)
        assert graph.node_ids == order
        assert graph.edges == edges
        assert graph.in_degree.tolist() == [in_deg[i] for i in range(len(order))]
        assert graph.out_degree.tolist() == [out_deg[i] for i in range(len(order))]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.1f}s"
    report("1 graph-oracle equivalence", f"100 windows in {elapsed:.2f}s")


def test_criterion_02_degree_conservation():
    rng = make_rng(102)
    for _ in range(1000):
        w = int(rng.integers(2, 400))
        ids = random_id_window(rng, w, pool=int(rng.integers(2, 50)))
        g = graph_from_ids(ids, attacked=False)
        mult_sum = sum(g.edges.values())
        assert mult_sum == w - 1
        assert int(g.in_degree.sum()) == w - 1
        assert int(g.out_degree.sum()) == w - 1
    report("2 degree conservation", "1000 windows, zero violations")


def test_criterion_03_gradient_fidelity():
    rng = make_rng(103)
    start = time.perf_counter()
    h = 1e-5
    checked = 0
    for trial in range(20):
        graphs = [
            graph_from_ids(
                random_id_window(rng, int(rng.integers(4, 30)), pool=8),
                attacked=bool(i % 2),
            )
            for i in range(int(rng.integers(2, 6)))
        ]
        batch = batch_graphs(graphs)
        params = init_params(trial)
        labels = batch.labels
        _, cache = forward(batch, params, rng=make_rng(0), dropout_p=0.0)
        grads = backward(cache, labels)
        for name in ("w1", "w2", "wc", "bc"):
            arr = getattr(params, name)
            grad = getattr(grads, name)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                lp = bce_loss(forward(batch, params)[0], labels)
                arr[idx] = orig - h
                lm = bce_loss(forward(batch, params)[0], labels)
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                err = abs(grad[idx] - fd)
                assert err <= 1e-4 * abs(fd) + 1e-7, (
                    f"batch {trial} {name}{idx}: analytic {grad[idx]:.3e} vs fd {fd:.3e}"
                )
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    report("3 gradient fidelity", f"{checked} coordinates in {elapsed:.1f}s")


def test_criterion_04_batching_equivalence():
    rng = make_rng(104)
    worst = 0.0
    for trial in range(50):
        graphs = [
            graph_from_ids(
                random_id_window(rng, int(rng.integers(4, 80)), pool=15),
                attacked=bool(rng.integers(0, 2)),
            )
            for _ in range(int(rng.integers(2, 10)))
        ]
        params = init_params(trial)
        batched, _ = forward(batch_graphs(graphs), params)
        singles = np.concatenate(
            [forward(batch_graphs([g]), params)[0] for g in graphs]
        )
        worst = max(worst, float(np.abs(batched - singles).max()))
    assert worst <= 1e-9
    report("4 batching equivalence", f"50 batches, max abs diff {worst:.2e}")


def test_criterion_05_permutation_invariance():
    rng = make_rng(105)
    worst = 0.0
    for trial in range(20):
        g = graph_from_ids(
            random_id_window(rng, int(rng.integers(10, 120)), pool=20),
            attacked=False,
        )
        params = init_params(trial)
        batch = batch_graphs([g])
        base, _ = forward(batch, params)
        n = batch.features.shape[1]
        for _ in range(20):
            perm = rng.permutation(n)
            permuted = GraphBatch(
                adjacency=batch.adjacency[0][np.ix_(perm, perm)][None],
                features=batch.features[0][perm][None],
                num_nodes=batch.num_nodes,
                labels=batch.labels,
            )
            probs, _ = forward(permuted, params)
            worst = max(worst, float(np.abs(probs - base).max()))
    assert worst <= 1e-9
    report("5 permutation invariance", f"20x20 permutations, max diff {worst:.2e}")


def test_criterion_06_loss_correctness():
    rng = make_rng(106)
    p = rng.random(200)
    y = rng.integers(0, 2, size=200)
    oracle = -sum(
        yi * math.log(min(max(pi, 1e-12), 1 - 1e-12))
        + (1 - yi) * math.log(1 - min(max(pi, 1e-12), 1 - 1e-12))
        for pi, yi in zip(p, y)
    ) / len(p)
    assert abs(bce_loss(p, y) - oracle) <= 1e-12
    uniform = bce_loss(np.full(64, 0.5), rng.integers(0, 2, size=64))
    assert abs(uniform - math.log(2)) <= 1e-12
    report("6 loss correctness", "scalar oracle and ln 2 closed form")


@pytest.fixture(scope="module")
def synthetic_500k():
    base, switch = make_base_stream(500_000, seed=11)
    return base, switch


def test_criterion_07_synthetic_end_to_end(synthetic_500k):
    base, switch = synthetic_500k
    start = time.perf_counter()
    results = {}
    for scenario in SCENARIO_KINDS:
        stream = make_scenario_stream(scenario, base, switch, seed=23)
        graphs = graphs_from_frames(stream.frames)
        train_graphs, test_graphs = stratified_split(graphs, 0.8, seed=7)
        params, _ = train(train_graphs, TrainConfig())
        preds, _ = predict_many(test_graphs, params)
        labels = [g.label for g in test_graphs]
        m = metrics(confusion(preds.tolist(), labels))
        results[scenario] = m
        assert m.f1 is not None, f"{scenario}: no positive predictions"
        assert m.f1 >= F1_FLOORS[scenario], (
            f"{scenario}: F1 {m.f1:.4f} below floor {F1_FLOORS[scenario]}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"end-to-end took {elapsed:.0f}s"
    summary = "  ".join(f"{s}={results[s].f1:.3f}" for s in SCENARIO_KINDS)
    weakest = min(results, key=lambda s: results[s].f1)
    report("7 synthetic end-to-end",
           f"{summary}  weakest={weakest}  ({elapsed:.0f}s)")


OTIDS_DIR = Path(os.environ.get("CANIDS_OTIDS_DIR", "data/otids"))
OTIDS_FILES = ("attack_free.log", "dos.log", "fuzzy.log", "spoofing.log", "replay.log")


def run_dataset_scenarios(root: Path, floors: dict[str, float]) -> dict[str, float]:
    """Per-scenario F1 on a dataset directory in the documented layout.

    The paper-style protocol: merge attack-free graphs with each attacked
    capture's graphs, split 80/20 stratified, train with defaults.
    """

    def graphs_of(name):
        frames, _ = parse_log_file(root / name)
        return graphs_from_frames(frames)

    clean = graphs_of("attack_free.log")
    scenarios = {
        "DoS": clean + graphs_of("dos.log"),
        "Mixed-DFS": (clean + graphs_of("dos.log") + graphs_of("fuzzy.log")
                      + graphs_of("spoofing.log")),
        "Replay": clean + graphs_of("replay.log"),
    }
    scores = {}
    for name, graphs in scenarios.items():
        train_graphs, test_graphs = stratified_split(graphs, 0.8, seed=7)
        params, _ = train(train_graphs, TrainConfig())
        preds, _ = predict_many(test_graphs, params)
        m = metrics(confusion(preds.tolist(), [g.label for g in test_graphs]))
        assert m.f1 is not None, f"{name}: no positive predictions"
        assert m.f1 >= floors[name], f"{name}: F1 {m.f1:.4f} below floor {floors[name]}"
        scores[name] = m.f1
    return scores


@pytest.mark.skipif(
    not all((OTIDS_DIR / name).exists() for name in OTIDS_FILES),
    reason=f"OTIDS-style dataset not present under {OTIDS_DIR}",
)
def test_criterion_08_real_dataset_conditional():
    scores = run_dataset_scenarios(
        OTIDS_DIR, {"DoS": 0.97, "Mixed-DFS": 0.95, "Replay": 0.88}
    )
    report("8 real-dataset scenarios",
           "  ".join(f"{k}={v:.3f}" for k, v in scores.items()))


def test_criterion_08_harness_on_synthetic_dataset(tmp_path):
    """Exercise the criterion-8 loader/merge path on a miniature dataset
    written in the documented directory layout (real-dataset floors don't
    apply to this small smoke set)."""
    from canids.can_log import save_log

    base, switch = make_base_stream(40_000, seed=31)
    save_log(tmp_path / "attack_free.log", base.frames)
    for scenario, file_name in (("dos", "dos.log"), ("fuzzy", "fuzzy.log"),
                                ("spoofing", "spoofing.log"), ("replay", "replay.log")):
        stream = make_scenario_stream(scenario, base, switch, seed=37)
        save_log(tmp_path / file_name, stream.frames)
    scores = run_dataset_scenarios(
        tmp_path, {"DoS": 0.9, "Mixed-DFS": 0.8, "Replay": 0.7}
    )
    assert set(scores) == {"DoS", "Mixed-DFS", "Replay"}


def test_criterion_09_determinism_and_persistence(tmp_path):
    rng = make_rng(109)
    graphs = []
    for i in range(80):
        ids = random_id_window(rng, 60, pool=10)
        if i % 2:
            ids = [77 if rng.random() < 0.5 else x for x in ids]
        graphs.append(graph_from_ids(ids, attacked=bool(i % 2)))
    config = TrainConfig(seed=21, epochs=10)
    params_a, _ = train(graphs, config)
    params_b, _ = train(graphs, config)
    path_a, path_b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_params(params_a, path_a)
    save_params(params_b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    loaded = load_params(path_a)
    batch = batch_graphs(graphs[:16])
    probs_orig, _ = forward(batch, params_a)
    probs_loaded, _ = forward(batch, loaded)
    np.testing.assert_array_equal(probs_orig, probs_loaded)
    report("9 determinism and persistence",
           "identical model bytes; bit-identical predictions after reload")


def test_criterion_10_parser_round_trip():
    rng = make_rng(110)
    for frame in random_frames(rng, 10_000):
        assert parse_line(serialize_frame(frame)) == frame
    for row in RAW_TABLE_ROWS:
        parse_line(row)
    report("10 parser round-trip", "10000 frames exact; 5 reference rows parse")
