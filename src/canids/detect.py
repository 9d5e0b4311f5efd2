"""Streaming detection: one verdict per completed window, as frames arrive.

verdicts scores each window of graph_builder.sliding_windows, the loop that
also builds training graphs, as a batch of one through gcn.predict as soon as
its last frame arrives. Nothing waits for later windows, so a verdict costs
one graph snapshot plus one forward pass, and memory stays at one window.
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
    stride frames, as soon as its last frame is read from frames."""
    for graph, first, last in sliding_windows(frames, window_size, stride):
        label, prob = gcn.predict(graph, params, threshold=threshold)
        yield Verdict(graph.window_index, first.timestamp_us,
                      last.timestamp_us, label, prob, bool(graph.label))
