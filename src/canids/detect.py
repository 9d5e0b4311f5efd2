"""Streaming detection: one verdict per completed window, as frames arrive.

verdicts scores each window of graph_builder.sliding_windows, the loop that
also builds training graphs, as soon as its last frame arrives. It takes no
graph snapshot: the live SlidingGraph's conv_inputs (an adjacency cached
until the window's edge set changes, and features from per-id counts) go
straight through gcn.probability, the fused single-graph forward pass.
Nothing waits for later windows, and memory stays at one window. Verdicts
equal graphs_from_frames at the same stride followed by gcn.predict_many, up
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import gcn
from .can_log import CanFrame
from .gcn import GcnParams
from .graph_builder import DEFAULT_WINDOW_SIZE, sliding_windows


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


def verdicts(
    frames: Iterable[CanFrame],
    params: GcnParams,
    window_size: int = DEFAULT_WINDOW_SIZE,
    stride: int | None = None,
    threshold: float = 0.5,
) -> Iterator[Verdict]:
    """Yield the verdict of each window of window_size frames starting every
    stride frames, as soon as its last frame is read from frames. A window
    is attacked iff its probability is >= threshold, as in predict_many."""
    for graph, index, attacked, first, last in sliding_windows(
            frames, window_size, stride):
        prob = gcn.probability(*graph.conv_inputs(), params)
        yield Verdict(index, first.timestamp_us, last.timestamp_us,
                      int(prob >= threshold), prob, attacked)
