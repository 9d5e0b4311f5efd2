"""Streaming detection: one verdict per completed window, as frames arrive.

A Detector keeps the last window_size frames and their message graph
(graph_builder.SlidingGraph), updated in O(1) per frame. Once the window has
filled, every stride-th frame completes a window, which is scored at once as
a batch of one through gcn.predict; nothing waits for later windows, so a
verdict's latency is one graph snapshot plus one forward pass. Memory stays
at one window however long the stream runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import gcn
from .can_log import CanFrame
from .gcn import GcnParams
from .graph_builder import DEFAULT_WINDOW_SIZE, GraphError, SlidingGraph


@dataclass(frozen=True)
class Verdict:
    """The score of one window: its index, the timestamps of its first and
    last frame, the predicted label, the attacked probability, and whether
    any of its frames carries an injected-attack label."""

    window_index: int
    first_timestamp_us: int
    last_timestamp_us: int
    label: int
    probability: float
    injected: bool


class Detector:
    """Windows of window_size frames starting every stride frames, each
    scored by the model as soon as its last frame is pushed."""

    def __init__(
        self,
        params: GcnParams,
        window_size: int = DEFAULT_WINDOW_SIZE,
        stride: int | None = None,
        threshold: float = 0.5,
    ):
        stride = window_size if stride is None else stride
        if not 1 <= stride <= window_size:
            raise GraphError(f"stride {stride} must be in 1..window_size")
        self.graph = SlidingGraph(window_size)
        self.params = params
        self.window_size = window_size
        self.stride = stride
        self.threshold = threshold
        self.frames: deque[CanFrame] = deque(maxlen=window_size)
        self.injected_frames = 0
        self.frames_seen = 0
        self.windows = 0

    def push(self, frame: CanFrame) -> Verdict | None:
        """Add one frame; returns the verdict of the window it completes, if
        any."""
        frames = self.frames
        if len(frames) == self.window_size and frames[0].label is not None:
            self.injected_frames -= 1
        frames.append(frame)
        if frame.label is not None:
            self.injected_frames += 1
        self.graph.push(frame.arbitration_id)
        self.frames_seen += 1
        filled = self.frames_seen - self.window_size
        if filled < 0 or filled % self.stride:
            return None
        injected = self.injected_frames > 0
        graph = self.graph.snapshot(injected, self.windows)
        label, prob = gcn.predict(graph, self.params, threshold=self.threshold)
        self.windows += 1
        return Verdict(graph.window_index, frames[0].timestamp_us,
                       frames[-1].timestamp_us, label, prob, injected)
