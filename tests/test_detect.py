import pytest

from canids import gcn
from canids.can_log import as_records
from canids.detect import verdicts
from canids.graph_builder import (
    GraphError,
    SlidingGraph,
    WindowTooSmall,
    build_graph,
    build_windows,
    graphs_from_frames,
)
from helpers import make_base_stream, make_scenario_stream, rebuilt_conv_inputs


@pytest.fixture(scope="module")
def dos_stream():
    base, switch = make_base_stream(6_000, seed=3)
    return make_scenario_stream("dos", base, switch, seed=4).frames


@pytest.fixture(scope="module")
def fuzzy_stream():
    base, switch = make_base_stream(6_000, seed=5)
    return make_scenario_stream("fuzzy", base, switch, seed=6).frames


@pytest.fixture(scope="module")
def mixed_stream():
    base, switch = make_base_stream(6_000, seed=7)
    return make_scenario_stream("mixed", base, switch, seed=8).frames


@pytest.mark.parametrize("stream", ["dos_stream", "fuzzy_stream", "mixed_stream"])
def test_eval_and_detect_are_bit_equal(request, stream):
    """At stride == window_size, predict_many over graphs_from_frames (what
    eval scores) and the detect verdicts give identical probabilities: both
    run probability on inputs in the same node order and memory layout."""
    frames = request.getfixturevalue(stream)
    params = gcn.init_params(1)
    _, probs = gcn.predict_many(graphs_from_frames(frames, 200, 200), params)
    got = [v.probability for v in verdicts(frames, params, 200, 200)]
    assert len(got) == len(probs) > 0
    assert got == probs.tolist()


@pytest.mark.parametrize("window_size, stride", [(200, 200), (50, 1), (30, 7)])
def test_verdicts_equal_library(dos_stream, fuzzy_stream, window_size, stride):
    """A verdict per completed window, in order, with the library's
    probability and the sliced window's timestamps and ground truth. Fuzzy
    traffic gives large graphs whose ids come and go, so node slots are
    freed and reused."""
    params = gcn.init_params(1)
    for stream in (dos_stream, fuzzy_stream):
        got = list(verdicts(iter(stream), params, window_size, stride, threshold=0.5))
        windows = build_windows(stream, window_size, stride)
        graphs = [build_graph(w, k) for k, w in enumerate(windows)]
        _, probs = gcn.predict_many(graphs, params)
        assert len(got) == len(windows)
        injected = [any(f.label is not None for f in w) for w in windows]
        assert any(injected) and not all(injected)
        for k, (v, window) in enumerate(zip(got, windows)):
            assert v.window_index == k
            assert v.first_timestamp_us == window[0].timestamp_us
            assert v.last_timestamp_us == window[-1].timestamp_us
            assert v.injected == injected[k]
            assert v.label == int(v.probability >= 0.5)
            assert v.probability == pytest.approx(probs[k], abs=1e-12)
    assert max(g.num_nodes for g in graphs) > 2 * min(g.num_nodes for g in graphs)


@pytest.mark.parametrize("stride", [1, 7, 13])
def test_verdicts_equal_a_full_rebuild(monkeypatch, dos_stream, fuzzy_stream,
                                       mixed_stream, stride):
    """The adjacency and features that SlidingGraph updates in place give
    exactly the probabilities of a run that rebuilds both from the slots at
    every window."""
    params = gcn.init_params(2)
    streams = (dos_stream, fuzzy_stream, mixed_stream)
    got = [[v.probability for v in verdicts(s, params, 200, stride)] for s in streams]
    conv_inputs = SlidingGraph.conv_inputs

    def rebuilt(self):
        live = conv_inputs(self)[2]  # renumbers the slots as it would
        return (*rebuilt_conv_inputs(self), live)

    monkeypatch.setattr(SlidingGraph, "conv_inputs", rebuilt)
    want = [[v.probability for v in verdicts(s, params, 200, stride)] for s in streams]
    assert all(want) and got == want


def test_no_verdict_before_the_window_fills(dos_stream):
    """Each verdict comes out as soon as its last frame is read, and no
    frame is read ahead of it."""
    read = []

    def source():
        for k, frame in enumerate(dos_stream[:16]):
            read.append(k)
            yield frame

    stream = verdicts(source(), gcn.init_params(0), window_size=10, stride=3)
    assert [read[-1] for _ in stream] == [9, 12, 15]


@pytest.mark.parametrize("stride", [10, 1], ids=["whole", "stride-1"])
@pytest.mark.parametrize("records", [False, True], ids=["frames", "records"])
def test_each_verdict_comes_before_the_next_record_is_read(dos_stream, stride, records):
    """Whole windows and stride 1, fed CanFrames or their records: nothing
    is read before the first next(), and each verdict is yielded before the
    record after its window's last one is pulled. Window latency is
    measured from that last record, so it depends on this."""
    items = dos_stream[:35]
    if records:
        items = list(as_records(items))
    read = []

    def source():
        for k, item in enumerate(items):
            read.append(k)
            yield item

    stream = verdicts(source(), gcn.init_params(0), window_size=10, stride=stride)
    assert read == []
    assert [read[-1] for _ in stream] == list(range(9, 35, stride))


def test_window_and_stride_validation():
    params = gcn.init_params(0)
    with pytest.raises(WindowTooSmall):
        next(verdicts([], params, window_size=1))
    for stride in (0, 11):
        with pytest.raises(GraphError):
            next(verdicts([], params, window_size=10, stride=stride))
