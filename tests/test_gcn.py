import math

import numpy as np
import pytest

from canids import gcn
from canids.gcn import (
    BadMagic,
    CacheMismatch,
    EmptyBatchLabels,
    EmptyDataset,
    GcnParams,
    ModelError,
    ModelIoError,
    SingleClassDataset,
    TrainConfig,
    VersionMismatch,
    backward,
    bce_loss,
    forward,
    init_params,
    load_params,
    predict,
    predict_many,
    save_params,
    size_groups,
    train,
)
from canids.graph_builder import (
    GraphBatch,
    assemble_batch,
    batch_graphs,
    graph_from_ids,
    prepare_graph,
)
from canids.kernel import FiniteViolation, ShapeMismatch, make_rng
from helpers import random_id_window


def random_graphs(rng, count, max_nodes=8, min_w=4, max_w=40):
    return [
        graph_from_ids(
            random_id_window(rng, int(rng.integers(min_w, max_w)), pool=max_nodes),
            attacked=bool(i % 2),
        )
        for i in range(count)
    ]


def test_init_params_glorot_bounds():
    params = init_params(0)
    bound_w1 = math.sqrt(6.0 / (2 + 8))
    bound_w2 = math.sqrt(6.0 / (8 + 8))
    bound_wc = math.sqrt(6.0 / (8 + 2))
    assert np.all(np.abs(params.w1) <= bound_w1)
    assert np.all(np.abs(params.w2) <= bound_w2)
    assert np.all(np.abs(params.wc) <= bound_wc)
    np.testing.assert_array_equal(params.bc, np.zeros(2))


def test_init_params_deterministic():
    a, b = init_params(5), init_params(5)
    for x, y in zip(a.arrays(), b.arrays()):
        np.testing.assert_array_equal(x, y)
    c = init_params(6)
    assert any(not np.array_equal(x, y) for x, y in zip(a.arrays(), c.arrays()))


def test_params_shape_validation():
    with pytest.raises(ShapeMismatch):
        GcnParams(np.zeros((3, 8)), np.zeros((8, 8)), np.zeros((8, 2)), np.zeros(2))


def test_zero_params_give_uniform_probs():
    rng = make_rng(0)
    batch = batch_graphs(random_graphs(rng, 4))
    params = GcnParams(np.zeros((2, 8)), np.zeros((8, 8)), np.zeros((8, 2)), np.zeros(2))
    probs, cache = forward(batch, params)
    np.testing.assert_allclose(probs, np.full((4, 2), 0.5))
    assert cache is None
    assert abs(bce_loss(probs, batch.labels) - math.log(2)) < 1e-12


def test_batch_forward_equals_singletons():
    rng = make_rng(1)
    params = init_params(3)
    graphs = random_graphs(rng, 12)
    batch_probs, _ = forward(batch_graphs(graphs), params)
    single_probs = np.concatenate(
        [forward(batch_graphs([g]), params)[0] for g in graphs]
    )
    np.testing.assert_allclose(batch_probs, single_probs, atol=1e-9)


def test_permutation_invariance():
    rng = make_rng(2)
    params = init_params(4)
    g = graph_from_ids(random_id_window(rng, 60, pool=10), attacked=False)
    batch = batch_graphs([g])
    base_probs, _ = forward(batch, params)
    n = batch.features.shape[1]
    for _ in range(10):
        perm = rng.permutation(n)
        permuted = GraphBatch(
            adjacency=batch.adjacency[0][np.ix_(perm, perm)][None],
            features=batch.features[0][perm][None],
            num_nodes=batch.num_nodes,
            labels=batch.labels,
        )
        probs, _ = forward(permuted, params)
        np.testing.assert_allclose(probs, base_probs, atol=1e-9)


def test_padding_invariance():
    """Zero padding to a much larger batch-mate changes neither a graph's
    probability nor the padded rows of the hidden layers."""
    rng = make_rng(12)
    params = init_params(5)
    small = graph_from_ids(random_id_window(rng, 20, pool=4), attacked=False)
    large = graph_from_ids(random_id_window(rng, 200, pool=80), attacked=True)
    alone, _ = forward(batch_graphs([small]), params)
    batch = batch_graphs([small, large])
    k = small.num_nodes
    assert batch.adjacency.shape[1] >= 10 * k
    padded, _ = forward(batch, params)
    assert abs(padded[0, 1] - alone[0, 1]) <= 1e-12
    _, cache = forward(batch, params, rng=make_rng(0), dropout_p=0.5)
    assert not cache.h1[0, k:].any()
    assert not cache.h2[0, k:].any()


def test_forward_rejects_malformed_batches():
    rng = make_rng(13)
    params = init_params(0)
    batch = batch_graphs(random_graphs(rng, 2))
    adj, x, k, y = batch.adjacency, batch.features, batch.num_nodes, batch.labels
    nan_adj = adj.copy()
    nan_adj[0, 0, 0] = np.nan
    with pytest.raises(FiniteViolation):
        forward(GraphBatch(nan_adj, x, k, y), params)
    with pytest.raises(ShapeMismatch):
        forward(GraphBatch(adj[0], x[0], k[:1], y[:1]), params)
    with pytest.raises(ShapeMismatch):
        forward(GraphBatch(adj, x[:, :-1], k, y), params)
    with pytest.raises(ShapeMismatch):
        forward(GraphBatch(adj, x, np.array([k[0], 0]), y), params)


def test_bce_closed_forms():
    assert bce_loss(np.array([1.0]), [1]) <= 1e-11
    assert abs(bce_loss(np.array([0.5, 0.5, 0.5]), [0, 1, 0]) - math.log(2)) < 1e-12


def test_bce_matches_scalar_oracle():
    rng = make_rng(5)
    p = rng.random(50)
    y = rng.integers(0, 2, size=50)
    expected = -sum(
        yi * math.log(max(pi, 1e-12)) + (1 - yi) * math.log(max(1 - pi, 1e-12))
        for pi, yi in zip(p, y)
    ) / 50
    assert abs(bce_loss(p, y) - expected) < 1e-12


def test_bce_accepts_two_column_probs():
    probs = np.array([[0.3, 0.7], [0.9, 0.1]])
    expected = -(math.log(0.7) + math.log(0.9)) / 2
    assert abs(bce_loss(probs, [1, 0]) - expected) < 1e-12


def test_bce_errors():
    with pytest.raises(EmptyBatchLabels):
        bce_loss(np.zeros(0), [])
    with pytest.raises(ShapeMismatch):
        bce_loss(np.array([0.5, 0.5]), [1])


def test_gradients_match_finite_differences():
    rng = make_rng(6)
    h = 1e-5
    for trial in range(3):
        graphs = random_graphs(rng, int(rng.integers(2, 6)))
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
                assert abs(grad[idx] - fd) <= 1e-4 * max(abs(fd), 1e-3) + 1e-7, (
                    f"{name}{idx}: analytic {grad[idx]} vs fd {fd}"
                )


def test_gradient_shapes():
    rng = make_rng(7)
    batch = batch_graphs(random_graphs(rng, 3))
    params = init_params(0)
    _, cache = forward(batch, params, rng=make_rng(0), dropout_p=0.0)
    grads = backward(cache, batch.labels)
    assert grads.w1.shape == params.w1.shape
    assert grads.w2.shape == params.w2.shape
    assert grads.wc.shape == params.wc.shape
    assert grads.bc.shape == params.bc.shape


def test_saturated_predictions_give_tiny_gradients():
    rng = make_rng(8)
    graphs = random_graphs(rng, 4)
    batch = batch_graphs(graphs)
    params = init_params(0)
    # saturate the head so predictions exactly match labels after clamping
    params.bc[:] = 0.0
    params.wc *= 0.0
    _, cache = forward(batch, params, rng=make_rng(0), dropout_p=0.0)
    # overwrite probabilities with saturated values agreeing with the labels
    cache.probs = np.eye(2)[batch.labels]
    grads = backward(cache, batch.labels)
    for g in grads.arrays():
        assert np.abs(g).max() < 1e-9


def test_backward_requires_cache():
    with pytest.raises(Exception):
        backward(None, [0, 1])


def test_dropout_discipline_infer_consumes_no_rng():
    rng = make_rng(9)
    batch = batch_graphs(random_graphs(rng, 3))
    params = init_params(1)
    shared = make_rng(123)
    before = shared.bit_generator.state["state"]["state"]
    p1, _ = forward(batch, params)
    p2, _ = forward(batch, params)
    after = shared.bit_generator.state["state"]["state"]
    np.testing.assert_array_equal(p1, p2)
    assert before == after


def test_train_mode_applies_dropout():
    rng = make_rng(10)
    batch = batch_graphs(random_graphs(rng, 6))
    params = init_params(1)
    probs_a, cache = forward(batch, params, rng=make_rng(0), dropout_p=0.5)
    assert cache is not None
    assert set(np.unique(cache.mask)) <= {0.0, 2.0}
    probs_infer, _ = forward(batch, params)
    assert not np.allclose(probs_a, probs_infer)


def separable_dataset(n_per_class=60):
    """DoS-like floods (one dominant hub) vs spread-out normal windows."""
    rng = make_rng(11)
    graphs = []
    for i in range(n_per_class):
        normal = rng.integers(0, 12, size=100).tolist()
        graphs.append(graph_from_ids(normal, attacked=False))
        flood = rng.integers(0, 12, size=100)
        flood[rng.random(100) < 0.6] = 50  # hub id dominates
        graphs.append(graph_from_ids(flood.tolist(), attacked=True))
    return graphs


def test_train_reaches_high_accuracy_on_separable_data():
    graphs = separable_dataset()
    config = TrainConfig(seed=0, epochs=50)
    params, history = train(graphs, config)
    assert history[-1].train_accuracy >= 0.99
    preds, _ = predict_many(graphs, params)
    labels = np.array([g.label for g in graphs])
    assert float(np.mean(preds == labels)) >= 0.99


def test_epoch_zero_loss_near_ln2_on_uninformative_labels():
    rng = make_rng(12)
    graphs = random_graphs(rng, 120, max_nodes=10, min_w=30, max_w=60)
    for i, g in enumerate(graphs):
        g.label = i % 2  # balanced labels uncorrelated with structure
    config = TrainConfig(seed=3, epochs=1)
    _, history = train(graphs, config)
    assert abs(history[0].train_loss - math.log(2)) < 0.15


def test_train_determinism():
    graphs = separable_dataset(20)
    config = TrainConfig(seed=7, epochs=5)
    params_a, hist_a = train(graphs, config)
    params_b, hist_b = train(graphs, config)
    for x, y in zip(params_a.arrays(), params_b.arrays()):
        np.testing.assert_array_equal(x, y)
    assert [h.train_loss for h in hist_a] == [h.train_loss for h in hist_b]


def test_train_validation_and_early_stop():
    graphs = separable_dataset(30)
    val = separable_dataset(10)
    config = TrainConfig(seed=1, epochs=40, patience=3)
    params, history = train(graphs, config, val_graphs=val)
    assert history[0].val_loss is not None
    assert history[0].val_accuracy is not None
    assert len(history) <= 40


def sized_graph(rng, nodes, attacked):
    """A random window over exactly `nodes` distinct ids."""
    ids = rng.permutation(nodes).tolist() + rng.integers(0, nodes, size=3 * nodes).tolist()
    return graph_from_ids([0x100 + i for i in ids], attacked=attacked)


def bimodal_graphs(rng, count):
    """Clean-sized (12-16 nodes) and attacked-sized (50-80 nodes) graphs."""
    graphs = []
    for _ in range(count):
        attacked = bool(rng.random() < 0.4)
        nodes = int(rng.integers(50, 81) if attacked else rng.integers(12, 17))
        graphs.append(sized_graph(rng, nodes, attacked))
    return graphs


def padded_cost(sizes, groups):
    return sum(len(g) * int(sizes[g].max()) ** 2 for g in groups)


def test_size_groups_keeps_near_sizes_in_one_stack():
    for sizes in ([16] * 64, [10, 19, 12, 15, 11], [30, 16, 16, 31], [7], [4, 4]):
        groups = size_groups(sizes)
        assert len(groups) == 1
        assert groups[0].tolist() == list(range(len(sizes)))


def test_size_groups_splits_a_bimodal_batch_at_the_cheapest_cut():
    groups = size_groups([15, 60, 15, 70, 16, 50])
    assert [g.tolist() for g in groups] == [[0, 2, 4], [1, 3, 5]]
    assert [g.tolist() for g in size_groups([10, 20])] == [[0], [1]]
    rng = make_rng(21)
    splits = 0
    for _ in range(50):
        b = int(rng.integers(2, 65))
        sizes = np.where(rng.random(b) < 0.6, rng.integers(14, 17, b),
                         rng.integers(40, 83, b))
        groups = size_groups(sizes)
        assert sorted(np.concatenate(groups).tolist()) == list(range(b))
        assert all(np.all(np.diff(g) > 0) for g in groups)  # batch order
        ordered = np.sort(sizes).tolist()
        cuts = [c for c in range(1, b) if ordered[c - 1] < ordered[c]]
        costs = [c * ordered[c - 1] ** 2 + (b - c) * ordered[-1] ** 2 for c in cuts]
        if cuts and ordered[-1] >= 2 * ordered[cuts[costs.index(min(costs))] - 1]:
            small, large = groups
            assert sizes[small].max() < sizes[large].min()
            assert padded_cost(sizes, groups) == min(costs)
            splits += 1
        else:
            assert len(groups) == 1
    assert splits >= 30


def test_grouped_step_equals_one_padded_batch():
    """With no dropout, the b/B-weighted gradients of the two stacks are one
    padded batch's, the loss and correct count add up, and the stacks draw
    the B x HIDDEN dropout entries one batch draws."""
    rng = make_rng(22)
    for trial in range(3):
        graphs = bimodal_graphs(rng, 64)
        prepared = [prepare_graph(g) for g in graphs]
        assert len(size_groups([g.num_nodes for g in graphs])) == 2
        params = init_params(trial)
        step_rng, batch_rng = make_rng(trial), make_rng(trial)
        grads, loss_sum, correct = gcn._step_gradients(prepared, params, step_rng, 0.0)
        batch = assemble_batch(prepared)
        probs, cache = forward(batch, params, rng=batch_rng, dropout_p=0.0)
        for got, want in zip(grads, backward(cache, batch.labels).arrays()):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        y = batch.labels
        assert loss_sum == pytest.approx(bce_loss(probs, y) * len(y), rel=1e-12)
        assert correct == int(np.sum((probs[:, 1] >= 0.5) == (y == 1)))
        assert step_rng.random() == batch_rng.random()


def test_uniform_training_set_pads_one_stack_per_step(monkeypatch):
    calls = []

    def counted(prepared):
        calls.append(len(prepared))
        return assemble_batch(prepared)

    monkeypatch.setattr(gcn, "assemble_batch", counted)
    rng = make_rng(23)
    graphs = [sized_graph(rng, 16, bool(i % 2)) for i in range(150)]
    train(graphs, TrainConfig(epochs=3))
    assert calls == [64, 64, 22] * 3


def single_stack_train(graphs, config):
    """train as one padded stack per step, the layout before size grouping."""
    init_ss, shuffle_ss, dropout_ss = np.random.SeedSequence(config.seed).spawn(3)
    params = init_params(init_ss)
    shuffle_rng, dropout_rng = make_rng(shuffle_ss), make_rng(dropout_ss)
    prepared = [prepare_graph(g) for g in graphs]
    opt = gcn._Adam([a.shape for a in params.arrays()], config.learning_rate)
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(prepared))
        for lo in range(0, len(order), config.batch_size):
            batch = assemble_batch([prepared[i] for i in order[lo:lo + config.batch_size]])
            _, cache = forward(batch, params, rng=dropout_rng, dropout_p=config.dropout_p)
            opt.step(params.arrays(), backward(cache, batch.labels).arrays())
    return params


def test_training_that_never_splits_keeps_the_single_stack_bits():
    rng = make_rng(24)
    graphs = [sized_graph(rng, int(rng.integers(10, 20)), bool(i % 3 == 0))
              for i in range(100)]
    config = TrainConfig(seed=5, epochs=4, batch_size=32)
    params, _ = train(graphs, config)
    want = single_stack_train(graphs, config)
    for got, ref in zip(params.arrays(), want.arrays()):
        assert got.tobytes() == ref.tobytes()


def test_train_errors():
    with pytest.raises(EmptyDataset):
        train([], TrainConfig())
    rng = make_rng(13)
    single = random_graphs(rng, 6)
    for g in single:
        g.label = 0
    with pytest.raises(SingleClassDataset):
        train(single, TrainConfig(epochs=1))
    with pytest.warns(UserWarning):
        train(single, TrainConfig(epochs=1, allow_single_class=True))


def test_train_config_validation():
    with pytest.raises(Exception):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(Exception):
        TrainConfig(dropout_p=1.0)
    for learning_rate in (float("nan"), float("inf")):
        with pytest.raises(ModelError, match="learning_rate"):
            TrainConfig(learning_rate=learning_rate)
    with pytest.raises(ModelError, match="patience"):
        TrainConfig(patience=-1)
    assert TrainConfig(patience=0).patience == 0


@pytest.mark.parametrize("field,value", [
    ("epochs", 2.5), ("epochs", True), ("epochs", "3"), ("batch_size", 2.0),
    ("batch_size", False), ("seed", 1.5), ("seed", -1), ("seed", True),
    ("patience", 1.5), ("patience", True),
])
def test_train_config_refuses_what_train_cannot_use(field, value):
    """Non-integer, bool or negative counts are a ModelError at construction,
    not a TypeError or ValueError deep in train."""
    with pytest.raises(ModelError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("learning_rate", True), ("learning_rate", "0.05"), ("learning_rate", None),
    ("dropout_p", False), ("dropout_p", "0.1"), ("dropout_p", 1j),
    ("allow_single_class", "no"), ("allow_single_class", 1),
    ("allow_single_class", None),
])
def test_train_config_refuses_bools_and_non_numbers(field, value):
    """A bool rate or dropout (which Adam would take as 1.0 or 0.0), a rate
    or dropout that is not a real number, and a flag that is not a bool are
    a ModelError at construction, not an untyped TypeError or a silent
    setting."""
    with pytest.raises(ModelError, match=field):
        TrainConfig(**{field: value})


def test_train_config_takes_numpy_reals():
    config = TrainConfig(learning_rate=np.float32(0.01), dropout_p=np.float64(0.2))
    assert (config.learning_rate, config.dropout_p) == (np.float32(0.01), 0.2)


def test_train_config_takes_numpy_integers():
    config = TrainConfig(epochs=np.int64(2), batch_size=np.int32(8), seed=np.uint8(3),
                         patience=np.int16(0))
    assert (config.epochs, config.batch_size, config.seed, config.patience) == (2, 8, 3, 0)
    rng = make_rng(14)
    train(random_graphs(rng, 12), config)


def test_adam_step_in_place_equals_the_out_of_place_formula():
    """The in-place moment updates give the same bits as the textbook
    out-of-place Adam step, over several steps of random gradients."""
    rng = make_rng(15)
    shapes = [a.shape for a in init_params(0).arrays()]
    opt = gcn._Adam(shapes, 0.05)
    params = [rng.normal(size=s) for s in shapes]
    want = [p.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 6):
        grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=s) for s in shapes]
        opt.step(params, grads)
        for i, g in enumerate(grads):
            m[i] = gcn.ADAM_BETA1 * m[i] + (1 - gcn.ADAM_BETA1) * g
            v[i] = gcn.ADAM_BETA2 * v[i] + (1 - gcn.ADAM_BETA2) * g * g
            m_hat = m[i] / (1 - gcn.ADAM_BETA1 ** t)
            v_hat = v[i] / (1 - gcn.ADAM_BETA2 ** t)
            want[i] -= 0.05 * m_hat / (np.sqrt(v_hat) + gcn.ADAM_EPS)
    for got, ref, got_m, ref_m, got_v, ref_v in zip(params, want, opt.m, m, opt.v, v):
        assert got.tobytes() == ref.tobytes()
        assert got_m.tobytes() == ref_m.tobytes()
        assert got_v.tobytes() == ref_v.tobytes()


def test_predict_zero_params_ties_to_attacked():
    g = graph_from_ids([1, 2, 3, 1], attacked=False)
    params = GcnParams(np.zeros((2, 8)), np.zeros((8, 8)), np.zeros((8, 2)), np.zeros(2))
    label, prob = predict(g, params)
    assert prob == 0.5
    assert label == 1  # >= threshold flags the window


def test_predict_matches_batched_row():
    rng = make_rng(14)
    graphs = random_graphs(rng, 8)
    params = init_params(2)
    batch_probs, _ = forward(batch_graphs(graphs), params)
    for i, g in enumerate(graphs):
        _, prob = predict(g, params)
        assert abs(prob - batch_probs[i, 1]) <= 1e-9


def test_predict_many_matches_predict():
    rng = make_rng(15)
    graphs = random_graphs(rng, 10)
    params = init_params(3)
    labels, probs = predict_many(graphs, params, batch_size=3)
    for g, label, prob in zip(graphs, labels, probs):
        single_label, single_prob = predict(g, params)
        assert label == single_label
        assert prob == single_prob


def test_predict_many_of_no_graphs_is_empty():
    labels, probs = predict_many([], init_params(0))
    assert labels.shape == probs.shape == (0,)
    assert labels.dtype == np.int64 and probs.dtype == np.float64


def test_predict_rejects_non_finite_degrees():
    """A graph whose degrees hold NaN is a typed FiniteViolation, not a
    NaN probability."""
    g = graph_from_ids([1, 2, 3, 1, 2], attacked=False)
    g.in_degree = g.in_degree.astype(np.float64)
    g.in_degree[1] = np.nan
    params = init_params(0)
    with pytest.raises(FiniteViolation):
        predict(g, params)
    with pytest.raises(FiniteViolation):
        predict_many([graph_from_ids([4, 5, 4], attacked=True), g], params)


def test_save_load_round_trip(tmp_path):
    rng = make_rng(16)
    params = init_params(9)
    path = tmp_path / "model.bin"
    save_params(params, path)
    loaded = load_params(path)
    for x, y in zip(params.arrays(), loaded.arrays()):
        np.testing.assert_array_equal(x, y)
        assert y.dtype == np.float64 and y.flags.writeable  # not a view of the bytes
    graphs = random_graphs(rng, 5)
    p1, _ = forward(batch_graphs(graphs), params)
    p2, _ = forward(batch_graphs(graphs), loaded)
    np.testing.assert_array_equal(p1, p2)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTAMODEL")
    with pytest.raises(BadMagic):
        load_params(path)
    path.write_bytes(b"GC")  # truncated magic
    with pytest.raises(BadMagic):
        load_params(path)


def test_load_rejects_version_mismatch(tmp_path):
    path = tmp_path / "old.bin"
    path.write_bytes(b"GCNIDS99" + b"\x00" * 64)
    with pytest.raises(VersionMismatch):
        load_params(path)


def test_load_rejects_truncation(tmp_path):
    params = init_params(0)
    path = tmp_path / "model.bin"
    save_params(params, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelIoError):
        load_params(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(ModelIoError):
        load_params(path)


def test_load_rejects_wrong_shapes(tmp_path):
    import struct

    path = tmp_path / "model.bin"
    blob = b"GCNIDS01" + struct.pack("<II", 3, 8) + b"\x00" * (3 * 8 * 8)
    path.write_bytes(blob)
    with pytest.raises(ShapeMismatch):
        load_params(path)


# save_params(init_params(0)): the magic, then (offset, dims) of w1, w2, wc
# and the bias, each dims pair followed by its float64 values.
_MODEL_LAYOUT = [(8, (2, 8)), (144, (8, 8)), (664, (8, 2)), (800, (1, 2))]
_MODEL_SHA256 = "26057c42ca90d058de28b527ce37930823f28770a742f76e67e17b73dd5efa36"


def test_model_file_layout_is_pinned(tmp_path):
    import hashlib
    import struct

    path = tmp_path / "model.bin"
    save_params(init_params(0), path)
    data = path.read_bytes()
    assert len(data) == 824
    assert data[:8] == b"GCNIDS01"
    assert [(offset, struct.unpack_from("<II", data, offset))
            for offset, _ in _MODEL_LAYOUT] == _MODEL_LAYOUT
    assert hashlib.sha256(data).hexdigest() == _MODEL_SHA256


def test_backward_rejects_non_finite_gradients():
    """Gradients are a GcnParams, so a NaN in the cache raises at backward
    instead of reaching the weights through Adam."""
    rng = make_rng(14)
    batch = batch_graphs(random_graphs(rng, 3))
    _, cache = forward(batch, init_params(0), rng=make_rng(0))
    cache.probs[0, 0] = np.nan
    with pytest.raises(FiniteViolation, match="NaN or Inf"):
        backward(cache, batch.labels)


def test_backward_without_training_cache():
    rng = make_rng(12)
    batch = batch_graphs(random_graphs(rng, 3))
    _, cache = forward(batch, init_params(0))
    assert cache is None
    with pytest.raises(CacheMismatch, match="training-mode forward"):
        backward(cache, batch.labels)


def test_backward_rejects_mismatched_labels():
    rng = make_rng(13)
    batch = batch_graphs(random_graphs(rng, 3))
    _, cache = forward(batch, init_params(0), rng=make_rng(0))
    with pytest.raises(CacheMismatch, match="labels for a cache of 3 graphs"):
        backward(cache, batch.labels[:2])
    with pytest.raises(CacheMismatch):
        backward(cache, batch.labels.reshape(3, 1))
