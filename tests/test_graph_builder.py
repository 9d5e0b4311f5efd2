import numpy as np
import pytest

from canids import gcn
from canids.can_log import AttackKind, CanFrame, as_records
from canids.graph_builder import (
    ATTACK_FREE,
    ATTACKED,
    EmptyBatch,
    GraphError,
    MalformedGraphRecord,
    SlidingGraph,
    WindowGraph,
    WindowTooSmall,
    batch_graphs,
    build_graph,
    build_windows,
    conv_adjacency,
    dump_graphs,
    graph_from_ids,
    graphs_from_frames,
    load_graphs,
    node_features,
    read_graphs,
    sliding_windows,
)
from canids.kernel import FiniteViolation, make_rng
from helpers import (
    brute_force_graph,
    oracle_adjacency,
    random_id_window,
    rebuilt_conv_inputs,
)


def frames_for(ids, labels=None):
    labels = labels or [None] * len(ids)
    return [
        CanFrame(1000 * i, arb_id, 0, b"", label=label)
        for i, (arb_id, label) in enumerate(zip(ids, labels))
    ]


def test_build_windows_counts():
    frames = frames_for([1] * 1000)
    assert len(build_windows(frames, 200, 200)) == 5
    assert len(build_windows(frames_for([1] * 399), 200)) == 1
    # stride 100: offsets 0..800
    offsets = list(range(0, 1000 - 200 + 1, 100))
    assert len(build_windows(frames, 200, 100)) == len(offsets) == 9


def test_build_windows_validation():
    for windows in (build_windows, graphs_from_frames):
        with pytest.raises(WindowTooSmall):
            windows([], window_size=1)
        with pytest.raises(GraphError):
            windows(frames_for([1] * 10), window_size=4, stride=5)
        with pytest.raises(GraphError):
            windows(frames_for([1] * 10), window_size=4, stride=0)


def test_single_id_window():
    g = build_graph(frames_for([7] * 200))
    assert g.node_ids == [7]
    assert g.edges == {(0, 0): 199}
    assert g.in_degree.tolist() == [199]
    assert g.out_degree.tolist() == [199]
    assert g.label == ATTACK_FREE


def test_abac_window():
    g = graph_from_ids([10, 20, 10, 30], attacked=False)
    assert g.node_ids == [10, 20, 30]
    assert g.edges == {(0, 1): 1, (1, 0): 1, (0, 2): 1}
    assert g.in_degree.tolist() == [1, 1, 1]
    assert g.out_degree.tolist() == [2, 1, 0]


def test_edge_multiplicity_sums_to_window_minus_one():
    rng = make_rng(0)
    for _ in range(50):
        ids = random_id_window(rng, int(rng.integers(2, 500)))
        g = graph_from_ids(ids, attacked=False)
        total = sum(g.edges.values())
        assert total == len(ids) - 1
        assert g.in_degree.sum() == g.out_degree.sum() == len(ids) - 1


def test_matches_brute_force_oracle():
    rng = make_rng(1)
    for _ in range(30):
        ids = random_id_window(rng, int(rng.integers(2, 1000)), pool=25)
        g = graph_from_ids(ids, attacked=False)
        order, edges, in_deg, out_deg = brute_force_graph(ids)
        assert g.node_ids == order
        assert g.edges == edges
        assert g.in_degree.tolist() == [in_deg[i] for i in range(len(order))]
        assert g.out_degree.tolist() == [out_deg[i] for i in range(len(order))]


def test_window_graph_matches_brute_force_and_a_fresh_sliding_graph():
    """At every window size from 2 to 200, over id pools from one id to one
    per frame with repeats (self-edges), the whole-window builder gives the
    oracle's graph, the snapshot of a SlidingGraph fed the same ids (edge
    order included), and that SlidingGraph's conv_inputs bit for bit."""
    rng = make_rng(200)
    for window_size in range(2, 201):
        for pool in sorted({1, 3, 25, window_size}):
            ids = _id_stream(rng, [pool], window_size)[:window_size]
            index: dict[int, int] = {}
            pos = [index.setdefault(arb_id, len(index)) for arb_id in ids]
            window = WindowGraph(list(index), pos)
            fresh = SlidingGraph(window_size)
            for arb_id in ids:
                fresh.push(arb_id)
            g = window.snapshot(True, 3)
            order, edges, in_deg, out_deg = brute_force_graph(ids)
            assert g.node_ids == order and g.edges == edges
            assert g.in_degree.tolist() == [in_deg[i] for i in range(len(order))]
            assert g.out_degree.tolist() == [out_deg[i] for i in range(len(order))]
            want = fresh.snapshot(True, 3)
            assert _fields(g) == _fields(want) and list(g.edges) == list(want.edges)
            adj, feats, n = window.conv_inputs()
            want_adj, want_feats, want_n = fresh.conv_inputs()
            assert np.array_equal(adj, want_adj) and np.array_equal(feats, want_feats)
            assert n == want_n == len(order)


@pytest.mark.parametrize("window_size", [2, 3, 7, 200])
def test_sliding_graph_matches_oracle_at_every_push(window_size):
    """Small id pools make ids leave the window and come back, so the edge
    multiset, the per-id positions and the node order all get exercised
    on eviction."""
    rng = make_rng(window_size)
    for pool in (1, 2, 3, 5, 12):
        ids = random_id_window(rng, window_size + 300, pool=pool)
        sliding = SlidingGraph(window_size)
        for k, arb_id in enumerate(ids):
            sliding.push(arb_id)
            window = ids[max(0, k + 1 - window_size):k + 1]
            if len(window) < 2:
                with pytest.raises(WindowTooSmall):
                    sliding.snapshot(False)
                continue
            g = sliding.snapshot(attacked=bool(k % 2), window_index=k)
            order, edges, in_deg, out_deg = brute_force_graph(window)
            assert g.node_ids == order
            assert g.edges == edges
            assert g.in_degree.tolist() == [in_deg[i] for i in range(len(order))]
            assert g.out_degree.tolist() == [out_deg[i] for i in range(len(order))]
            assert g.window_size == len(window)
            assert (g.window_index, g.label) == (k, k % 2)


def test_sliding_graph_ids_leave_and_return():
    sliding = SlidingGraph(3)
    for arb_id in (1, 2, 1, 3):  # window 2 1 3: id 2 is now first
        sliding.push(arb_id)
    g = sliding.snapshot(False)
    assert g.node_ids == [2, 1, 3]
    assert g.edges == {(0, 1): 1, (1, 2): 1}
    for arb_id in (3, 3):  # window 3 3 3: ids 1 and 2 have left
        sliding.push(arb_id)
    g = sliding.snapshot(False)
    assert g.node_ids == [3]
    assert g.edges == {(0, 0): 2}
    sliding.push(1)  # window 3 3 1: id 1 is back, as the last node
    g = sliding.snapshot(False)
    assert g.node_ids == [3, 1]
    assert g.in_degree.tolist() == [1, 1]
    assert g.out_degree.tolist() == [2, 0]


def test_sliding_graph_window_too_small():
    with pytest.raises(WindowTooSmall):
        SlidingGraph(1)


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        build_graph(frames_for([1]))


def test_label_rule():
    clean = build_graph(frames_for([1, 2, 3]))
    assert clean.label == ATTACK_FREE
    dirty = build_graph(
        frames_for([1, 2, 3], labels=[None, AttackKind.DOS, None])
    )
    assert dirty.label == ATTACKED


def test_node_features_single_node():
    g = graph_from_ids([5] * 200, attacked=False)
    np.testing.assert_array_equal(node_features(g), [[1.0, 1.0]])


def test_node_features_normalization_zero_safe():
    g = graph_from_ids([10, 20, 10, 30], attacked=False)
    feats = node_features(g)
    np.testing.assert_allclose(feats[:, 0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(feats[:, 1], [1.0, 0.5, 0.0])


def test_conv_adjacency_self_loop_singleton():
    g = graph_from_ids([5] * 200, attacked=False)
    np.testing.assert_allclose(conv_adjacency(g), [[1.0]])


def test_conv_adjacency_two_node_cycle():
    g = graph_from_ids([1, 2, 1], attacked=False)
    adj = conv_adjacency(g)
    np.testing.assert_allclose(adj, np.full((2, 2), 0.5))


def test_sym_norm_properties():
    rng = make_rng(2)
    for _ in range(20):
        ids = random_id_window(rng, int(rng.integers(5, 300)), pool=12)
        g = graph_from_ids(ids, attacked=False)
        adj = conv_adjacency(g)
        np.testing.assert_allclose(adj, adj.T, atol=1e-12)
        np.testing.assert_allclose(adj, oracle_adjacency(g), atol=1e-12)


def test_batch_single_graph_equals_graph():
    g = graph_from_ids([1, 2, 3, 1], attacked=True)
    batch = batch_graphs([g])
    np.testing.assert_array_equal(batch.adjacency, conv_adjacency(g)[None])
    np.testing.assert_array_equal(batch.features, node_features(g)[None])
    assert batch.num_nodes.tolist() == [3]
    assert batch.labels.tolist() == [ATTACKED]


def test_batch_padded_structure():
    g1 = graph_from_ids([1, 2, 3], attacked=False)   # 3 nodes
    g2 = graph_from_ids([4, 5, 4], attacked=True)    # 2 nodes
    batch = batch_graphs([g1, g2])
    assert batch.adjacency.shape == (2, 3, 3)
    assert batch.features.shape == (2, 3, 2)
    np.testing.assert_array_equal(batch.adjacency[0], conv_adjacency(g1))
    np.testing.assert_array_equal(batch.adjacency[1, :2, :2], conv_adjacency(g2))
    np.testing.assert_array_equal(batch.features[1, :2], node_features(g2))
    assert not batch.adjacency[1, 2:, :].any()
    assert not batch.adjacency[1, :, 2:].any()
    assert not batch.features[1, 2:].any()
    assert batch.num_nodes.tolist() == [3, 2]
    assert batch.labels.tolist() == [ATTACK_FREE, ATTACKED]


def test_batch_empty():
    with pytest.raises(EmptyBatch):
        batch_graphs([])


def test_graphs_from_frames_assigns_indices():
    frames = frames_for(list(range(10)) * 60)
    graphs = graphs_from_frames(frames, window_size=100)
    assert [g.window_index for g in graphs] == list(range(6))
    assert all(g.window_size == 100 for g in graphs)


def _fields(g):
    return (g.window_index, g.label, g.window_size, g.node_ids, g.edges,
            g.in_degree.tolist(), g.out_degree.tolist())


@pytest.mark.parametrize("pool", [1, 2, 5, 30, 200])
def test_sliding_windows_match_build_windows_oracle(pool):
    """The one sliding pass yields, window for window, what slicing with
    build_windows and building each slice from scratch gives. Seeded id
    pools from one id to fuzzy-sized make ids leave and return; scattered
    injected frames make labels flip."""
    rng = make_rng(pool)
    ids = random_id_window(rng, 300, pool=pool)
    labels = [AttackKind.FUZZY if rng.random() < 0.02 else None for _ in ids]
    frames = frames_for(ids, labels)
    for window_size in (2, 3, 7, 20, 50):
        for stride in sorted({1, (window_size + 1) // 2, window_size}):
            windows = build_windows(frames, window_size, stride)
            want = [_fields(build_graph(w, k)) for k, w in enumerate(windows)]
            got = [(g.snapshot(attacked, index), first, last) for g, index, attacked, first, last
                   in sliding_windows(frames, window_size, stride)]
            assert [_fields(g) for g, _, _ in got] == want
            for stream in (frames, list(as_records(frames))):
                assert [_fields(g) for g in graphs_from_frames(stream, window_size, stride)] == want
            assert [(first, last) for _, first, last in got] == [
                (w[0].timestamp_us, w[-1].timestamp_us) for w in windows]
            assert len(got) == (len(frames) - window_size) // stride + 1
            if stride == 1:
                assert {g.label for g, _, _ in got} == {ATTACK_FREE, ATTACKED}


def _same_bits(got, want):
    return (got.shape == want.shape and got.strides == want.strides
            and got.tobytes() == want.tobytes())


def _check_conv_inputs_at_every_push(ids, window_size, params, every=1):
    """After every push (or every every-th, so that touched slots pile up
    between calls), SlidingGraph.conv_inputs are byte-equal, memory layout
    included, to a full rebuild of the current slots, equal the adjacency
    oracle and node_features of the snapshot under the slot permutation (free
    slots all zero), and gcn.probability equals gcn.predict. Returns the
    slot count of each call."""
    sliding = SlidingGraph(window_size)
    sizes = []
    for k, arb_id in enumerate(ids):
        sliding.push(arb_id)
        if len(sliding.ids) < 2:
            with pytest.raises(WindowTooSmall):
                sliding.conv_inputs()
            continue
        if k % every:
            continue
        adj, feats, live = sliding.conv_inputs()
        want_adj, want_feats = rebuilt_conv_inputs(sliding)
        assert _same_bits(adj, want_adj) and _same_bits(feats, want_feats)
        sizes.append(len(adj))
        g = sliding.snapshot(False)
        perm = [sliding.slots[node] for node in g.node_ids]
        free = np.setdiff1d(np.arange(len(adj)), perm)
        assert live == g.num_nodes == len(perm)
        assert adj.shape == (len(feats), len(feats))
        np.testing.assert_array_equal(adj[np.ix_(perm, perm)], oracle_adjacency(g))
        np.testing.assert_array_equal(feats[perm], node_features(g))
        assert not adj[free].any() and not adj[:, free].any() and not feats[free].any()
        want_label, want_prob = gcn.predict(g, params)
        prob = gcn.probability(adj, feats, live, params)
        assert abs(prob - want_prob) <= 1e-12
        assert int(prob >= 0.5) == want_label
    return sizes


def _id_stream(rng, pools, segment, repeat_p=0.3):
    """Segments of ids drawn from pools of the given sizes in turn (ids
    leave with their pool and return with it), each id repeated in the next
    frame with probability repeat_p, so self-edges occur."""
    ids = []
    for pool in pools:
        for arb_id in random_id_window(rng, segment, pool=pool):
            ids.append(arb_id)
            while rng.random() < repeat_p:
                ids.append(arb_id)
    return ids


def test_conv_adjacency_is_bit_equal_to_the_oracle(tmp_path):
    """conv_adjacency gives the oracle's bytes and strides: on seeded windows
    at strides 1, 7 and 200, on a window with self-edges and a 2-cycle, and
    on the same graphs read back from a dump, whose edges come in sorted
    order."""
    ids = _id_stream(make_rng(3), (15, 80, 4), 300)
    graphs = [graph_from_ids([1, 1, 2, 1, 3, 3, 2], attacked=False)]
    for stride in (1, 7, 200):
        graphs += graphs_from_frames(frames_for(ids), 200, stride)
    assert any(s == d for g in graphs for s, d in g.edges)
    assert any(s != d and (d, s) in g.edges for g in graphs for s, d in g.edges)
    path = tmp_path / "graphs.jsonl"
    dump_graphs(path, graphs)
    loaded = list(read_graphs(path))
    assert all(list(g.edges) == sorted(g.edges) for g in loaded)
    assert any(list(g.edges) != sorted(g.edges) for g in graphs)
    for g in graphs + loaded:
        assert _same_bits(conv_adjacency(g), oracle_adjacency(g))


_GROWING_AND_RENUMBERING_STREAMS = pytest.mark.parametrize("window_size, pools, segment", [
    (2, (1, 2, 3), 60),
    (3, (2, 5, 1, 5), 60),
    (7, (3, 12, 2, 12), 80),
    (50, (5, 40, 3, 60, 5), 120),
    (200, (15, 200, 10, 150, 15), 250),  # fuzzy-sized pools, then few ids again
])


def _check_stream(window_size, pools, segment, every):
    """Each stream grows the slot count and, but for a 2-frame window (at
    most two slots, never more than twice the live ids), renumbers the slots
    (the count falls) between calls, besides freeing and reusing slots."""
    rng = make_rng(window_size)
    ids = _id_stream(rng, pools, segment)
    sizes = _check_conv_inputs_at_every_push(ids, window_size,
                                             gcn.init_params(window_size), every)
    steps = np.diff(sizes)
    assert (steps > 0).any() and ((steps < 0).any() or window_size == 2)


@_GROWING_AND_RENUMBERING_STREAMS
def test_conv_inputs_match_snapshot_at_every_push(window_size, pools, segment):
    _check_stream(window_size, pools, segment, every=1)


@_GROWING_AND_RENUMBERING_STREAMS
def test_conv_inputs_match_a_rebuild_when_called_every_7th_push(window_size, pools,
                                                                segment):
    """The slots touched by the pushes between two calls pile up, and one
    call rewrites them all."""
    _check_stream(window_size, pools, segment, every=7)


def test_conv_inputs_property():
    """The same invariants on arbitrary id streams."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(2, 12),
                      st.lists(st.integers(0, 15), min_size=1, max_size=80),
                      st.integers(0, 2**32 - 1))
    def check(window_size, ids, seed):
        _check_conv_inputs_at_every_push(ids, window_size, gcn.init_params(seed))

    check()


def test_in_place_update_checks_the_rewritten_entries():
    """conv_inputs checks the rows and columns it rewrites in place: a NaN
    scale of an untouched slot enters every rewritten entry."""
    sliding = SlidingGraph(window_size=5)
    for arb_id in (1, 2, 3, 4, 1):
        sliding.push(arb_id)
    sliding.conv_inputs()
    sliding.push(3)  # drops the edge 1 -> 2 and adds 1 -> 3; no slot is added
    assert sliding._sym is not None and sliding._dirty
    sliding._inv_sqrt[:] = np.nan
    with pytest.raises(FiniteViolation, match="adjacency"):
        sliding.conv_inputs()


def test_graphs_from_frames_pushes_each_frame_once(monkeypatch):
    pushes = 0
    push = SlidingGraph.push

    def counting_push(self, arb_id):
        nonlocal pushes
        pushes += 1
        push(self, arb_id)

    monkeypatch.setattr(SlidingGraph, "push", counting_push)
    frames = frames_for(list(range(7)) * 100)
    assert len(graphs_from_frames(frames, window_size=200, stride=1)) == 501
    assert pushes == len(frames)
    # windows that share no frame are built whole, with no push at all
    pushes = 0
    assert len(graphs_from_frames(frames, window_size=200, stride=200)) == 3
    assert pushes == 0


def test_graphs_from_frames_builds_no_convolution_state(monkeypatch):
    """The in-place convolution state is built by conv_inputs alone, so
    snapshots at stride 1 neither build nor update it."""
    def no_rebuild(self):
        raise AssertionError("convolution state built")

    monkeypatch.setattr(SlidingGraph, "_rebuild", no_rebuild)
    frames = frames_for(list(range(40)) * 5 + list(range(7)) * 100)
    graphs = []
    for graph, index, attacked, _, _ in sliding_windows(frames, 200, 1):
        graphs.append(graph.snapshot(attacked, index))
        assert graph._sym is None and not graph._dirty
    assert len(graphs) == len(graphs_from_frames(frames, 200, 1)) == 701


def test_dump_load_round_trip(tmp_path):
    rng = make_rng(3)
    graphs = [
        graph_from_ids(random_id_window(rng, 50, pool=8), attacked=bool(i % 2), window_index=i)
        for i in range(10)
    ]
    path = tmp_path / "graphs.jsonl"
    assert dump_graphs(path, graphs) == 10
    loaded = load_graphs(path)
    assert len(loaded) == 10
    for a, b in zip(graphs, loaded):
        assert a.window_index == b.window_index
        assert a.node_ids == b.node_ids
        assert a.edges == b.edges
        assert a.label == b.label
        assert a.window_size == b.window_size
        np.testing.assert_array_equal(a.in_degree, b.in_degree)
        np.testing.assert_array_equal(a.out_degree, b.out_degree)


def test_dump_load_file_round_trip(tmp_path):
    g = graph_from_ids([1, 2, 1, 3], attacked=True, window_index=4)
    path = tmp_path / "graphs.jsonl"
    dump_graphs(path, [g])
    loaded = load_graphs(path)
    assert loaded[0].edges == g.edges and loaded[0].label == ATTACKED


GOOD_RECORD = ('{"window_index":0,"window_size":3,"nodes":["0x1","0x2"],'
               '"edges":[[0,1,1],[1,0,1]],"label":"attack_free"}')


@pytest.mark.parametrize("bad", [
    GOOD_RECORD[:-9],                                   # truncated JSON
    GOOD_RECORD.replace('"window_size":3,', ""),        # missing field
    GOOD_RECORD.replace('"0x2"', '"0xzz"'),             # node id not hex
    GOOD_RECORD.replace("attack_free", "benign"),       # unknown label
    GOOD_RECORD.replace("[1,0,1]", "[1,2,1]"),          # endpoint past the nodes
    GOOD_RECORD.replace("[1,0,1]", "[-1,0,1]"),         # negative endpoint
    GOOD_RECORD.replace("[1,0,1]", "[1,0]"),            # edge not a triple
    "[1, 2, 3]",                                        # not an object
    GOOD_RECORD.replace("[1,0,1]", "[1,0,0]"),          # zero multiplicity
    GOOD_RECORD.replace("[0,1,1],[1,0,1]", "[0,1,-5],[1,0,1.5]"),  # negative, float
    GOOD_RECORD.replace("[1,0,1]", "[1,0,true]"),       # bool multiplicity
    GOOD_RECORD.replace("[1,0,1]", "[0,1,1]"),          # repeated edge
    GOOD_RECORD.replace('"window_index":0', '"window_index":-1'),
    GOOD_RECORD.replace('"window_index":0', '"window_index":"0"'),
    GOOD_RECORD.replace('"window_size":3', '"window_size":1'),
    GOOD_RECORD.replace('"window_size":3', '"window_size":3.0'),
    GOOD_RECORD.replace('"window_size":3', '"window_size":4'),  # sum is not 3
    GOOD_RECORD.replace('"0x2"', '"0x01"'),             # 0x1 twice
    GOOD_RECORD.replace('"0x2"]', '"0x2","0x5"]'),      # node 2 has no edge
    GOOD_RECORD.replace('"0x2"', '"-0x1"'),             # negative id
    GOOD_RECORD.replace('"0x2"', '"0x20000000"'),       # past 29 bits
    GOOD_RECORD.replace('"0x2"', '"0x1_0"'),            # digit separator
    GOOD_RECORD.replace('"0x2"', '" 0x2"'),             # leading space
    GOOD_RECORD.replace('"0x2"', '"2"'),                # no 0x
    GOOD_RECORD.replace('"0x2"', '2'),                  # not a string
], ids=["truncated", "missing-field", "non-hex-node", "unknown-label",
        "endpoint-past-nodes", "negative-endpoint", "edge-pair", "not-object",
        "zero-multiplicity", "negative-multiplicity", "bool-multiplicity",
        "repeated-edge", "negative-window-index", "string-window-index",
        "window-size-1", "float-window-size", "multiplicity-sum",
        "repeated-node", "isolated-node", "negative-node-id", "node-id-past-29-bits",
        "node-id-underscore", "node-id-space", "node-id-no-prefix",
        "node-id-not-string"])
def test_load_graphs_rejects_malformed_record(bad, tmp_path):
    path = tmp_path / "graphs.jsonl"
    path.write_text(f"{GOOD_RECORD}\n\n{bad}\n", encoding="utf-8")
    with pytest.raises(MalformedGraphRecord, match="line 3"):
        load_graphs(path)
    path.write_text(GOOD_RECORD, encoding="utf-8")
    assert len(load_graphs(path)) == 1


def test_load_graphs_takes_node_ids_up_to_29_bits(tmp_path):
    path = tmp_path / "graphs.jsonl"
    path.write_text(GOOD_RECORD.replace('"0x2"', '"0x1FFFFFFF"'), encoding="utf-8")
    assert load_graphs(path)[0].node_ids == [1, 0x1FFF_FFFF]
