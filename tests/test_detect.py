import pytest

from canids import gcn
from canids.detect import Detector
from canids.graph_builder import GraphError, WindowTooSmall, graphs_from_frames
from helpers import make_base_stream, make_scenario_stream


@pytest.fixture(scope="module")
def dos_stream():
    base, switch = make_base_stream(6_000, seed=3)
    return make_scenario_stream("dos", base, switch, seed=4).frames


@pytest.mark.parametrize("window_size, stride", [(200, 200), (50, 1), (30, 7)])
def test_verdicts_equal_library(dos_stream, window_size, stride):
    """A verdict per completed window, in order, with the library's
    probability and the window's ground truth."""
    params = gcn.init_params(1)
    detector = Detector(params, window_size, stride, threshold=0.5)
    verdicts = [v for v in map(detector.push, dos_stream) if v is not None]
    graphs = graphs_from_frames(dos_stream, window_size, stride)
    _, probs = gcn.predict_many(graphs, params)
    assert len(verdicts) == len(graphs) == detector.windows
    assert detector.frames_seen == len(dos_stream)
    assert any(g.label for g in graphs) and not all(g.label for g in graphs)
    for k, (v, g) in enumerate(zip(verdicts, graphs)):
        lo = k * stride
        assert v.window_index == g.window_index == k
        assert v.first_timestamp_us == dos_stream[lo].timestamp_us
        assert v.last_timestamp_us == dos_stream[lo + window_size - 1].timestamp_us
        assert v.injected == bool(g.label)
        assert v.label == int(v.probability >= 0.5)
        assert v.probability == pytest.approx(probs[k], abs=1e-12)


def test_no_verdict_before_the_window_fills(dos_stream):
    detector = Detector(gcn.init_params(0), window_size=10, stride=3)
    pushed = [detector.push(frame) for frame in dos_stream[:16]]
    assert [k for k, v in enumerate(pushed) if v is not None] == [9, 12, 15]


def test_window_and_stride_validation():
    params = gcn.init_params(0)
    with pytest.raises(WindowTooSmall):
        Detector(params, window_size=1)
    for stride in (0, 11):
        with pytest.raises(GraphError):
            Detector(params, window_size=10, stride=stride)

