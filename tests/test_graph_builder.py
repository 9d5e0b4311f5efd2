import io

import numpy as np
import pytest

from canids.can_log import AttackKind, CanFrame
from canids.graph_builder import (
    ATTACK_FREE,
    ATTACKED,
    EmptyBatch,
    GraphError,
    MalformedGraphRecord,
    SlidingGraph,
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
)
from canids.kernel import make_rng
from helpers import brute_force_graph, random_id_window


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
    with pytest.raises(WindowTooSmall):
        build_windows([], window_size=1)
    with pytest.raises(GraphError):
        build_windows(frames_for([1] * 10), window_size=4, stride=5)
    with pytest.raises(GraphError):
        build_windows(frames_for([1] * 10), window_size=4, stride=0)


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
        # recover A~ and D~ and check A_ij = A~_ij / sqrt(d_i d_j)
        n = g.num_nodes
        a = np.zeros((n, n))
        for s, d in g.edges:
            a[s, d] = 1.0
        tilde = ((a + a.T) > 0).astype(float) + np.eye(n)
        deg = tilde.sum(axis=1)
        expected = tilde / np.sqrt(np.outer(deg, deg))
        np.testing.assert_allclose(adj, expected, atol=1e-12)


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


def test_dump_load_round_trip():
    rng = make_rng(3)
    graphs = [
        graph_from_ids(random_id_window(rng, 50, pool=8), attacked=bool(i % 2), window_index=i)
        for i in range(10)
    ]
    buf = io.StringIO()
    assert dump_graphs(buf, graphs) == 10
    loaded = load_graphs(io.StringIO(buf.getvalue()))
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
], ids=["truncated", "missing-field", "non-hex-node", "unknown-label",
        "endpoint-past-nodes", "negative-endpoint", "edge-pair", "not-object",
        "zero-multiplicity", "negative-multiplicity", "bool-multiplicity",
        "repeated-edge", "negative-window-index", "string-window-index",
        "window-size-1", "float-window-size", "multiplicity-sum"])
def test_load_graphs_rejects_malformed_record(bad):
    with pytest.raises(MalformedGraphRecord, match="line 3"):
        load_graphs(io.StringIO(f"{GOOD_RECORD}\n\n{bad}\n"))
    assert len(load_graphs(io.StringIO(GOOD_RECORD))) == 1
