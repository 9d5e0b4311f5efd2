"""Streaming detection: one verdict per completed window, as frames arrive.

verdicts scores each window of graph_builder.sliding_windows, the loop that
also builds training graphs, as soon as its last frame arrives: the window's
conv_inputs go straight through gcn.probability, with no graph snapshot. It
is the one route from a log window to its score: `canids detect` prints its
verdicts and `canids eval --log` counts them, both from can_log.read_records'
(timestamp_us, arbitration_id, label) records; CanFrames are turned into
records on the way in. Nothing waits for later windows, and memory stays at
one window; graph_builder's module docstring says how each window's graph is
kept. Verdicts equal graphs_from_frames at the same stride followed by
gcn.predict_many: bit-equal at stride == window_size, and within 1e-12 at
overlapping strides, where slot order sums in another order than node order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import gcn
from .can_log import CanFrame, Record
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
    frames: Iterable[CanFrame] | Iterable[Record],
    params: GcnParams,
    window_size: int = DEFAULT_WINDOW_SIZE,
    stride: int | None = None,
    threshold: float = gcn.THRESHOLD,
) -> Iterator[Verdict]:
    """Yield the verdict of each window of window_size frames starting every
    stride frames, as soon as its last frame is read from frames (CanFrames
    or their records). A window is attacked iff its probability is >=
    threshold, as in predict_many."""
    for graph, index, attacked, first_us, last_us in sliding_windows(
            frames, window_size, stride):
        prob = gcn.probability(*graph.conv_inputs(), params)
        yield Verdict(index, first_us, last_us, int(prob >= threshold), prob,
                      attacked)
