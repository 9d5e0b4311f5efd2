"""Seeded benchmark inputs built only from canids' public functions.

The traffic is the acceptance criterion-7 data of ``tests/helpers.py``, made
by its own ``make_base_stream`` and ``make_scenario_stream``: a bus with two
operating modes (a shared pool of periodic broadcasters plus one dominant
1 ms broadcaster that changes at the mode switch), with attack scenarios
injected by ``traffic_synth.mix_attacks``. The serialized log carries a fixed
share of malformed lines, one of each ``CanLogError`` kind in turn, plus
comment and blank lines, so the parser's reject path is exercised on every
run and its count can be checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import helpers  # tests/helpers.py, put on sys.path by run.py
from canids import can_log
from canids.can_log import CanFrame

WINDOW = 200

MALFORMED_SHARE = 0.001
COMMENT_SHARE = 0.0005
BLANK_SHARE = 0.0005

# One line template per CanLogError kind; {ts} is a plausible timestamp.
MALFORMED_TEMPLATES = {
    "MalformedLine": "{ts} 1f0",
    "BadHex": "{ts} 1g0 2 00 11",
    "DlcOutOfRange": "{ts} 100 9 00 11 22 33 44 55 66 77 88",
    "PayloadLengthMismatch": "{ts} 100 4 00 11",
    "IdOutOfRange": "{ts} 3fffffff 1 00",
}


@dataclass
class LogText:
    """A serialized log plus the ground truth needed to check results."""

    lines: list[str]
    frame_line: np.ndarray            # line index of each valid frame, in order
    injected_rejects: dict[str, int]  # CanLogError kind -> lines injected

    @property
    def frames(self) -> int:
        return len(self.frame_line)


def scenario_frames(scenario: str, normal_frames: int, seed: int) -> list[CanFrame]:
    """Two-mode base traffic with the scenario's attacks injected."""
    base, switch = helpers.make_base_stream(normal_frames, seed)
    return helpers.make_scenario_stream(scenario, base, switch, seed=seed + 2).frames


def serialize(frames: list[CanFrame], seed: int) -> LogText:
    """Render frames as log lines and splice in malformed, comment and blank
    lines at seeded positions (kinds of malformed line in fixed rotation)."""
    body = [can_log.serialize_frame(f) + "\n" for f in frames]
    rng = np.random.default_rng(seed)
    n = len(body)
    kinds = list(MALFORMED_TEMPLATES)
    n_bad = max(len(kinds), round(n * MALFORMED_SHARE))
    n_comment = max(1, round(n * COMMENT_SHARE))
    n_blank = max(1, round(n * BLANK_SHARE))
    extras: list[tuple[int, str]] = []
    for i, pos in enumerate(np.sort(rng.integers(0, n, size=n_bad)).tolist()):
        ts = can_log.format_timestamp(frames[pos].timestamp_us)
        extras.append((pos, MALFORMED_TEMPLATES[kinds[i % len(kinds)]].format(ts=ts) + "\n"))
    for pos in rng.integers(0, n, size=n_comment).tolist():
        extras.append((pos, "# operator note\n"))
    for pos in rng.integers(0, n, size=n_blank).tolist():
        extras.append((pos, "\n"))
    extras.sort(key=lambda e: e[0])

    lines = ["# canids benchmark capture\n"]
    frame_line = np.empty(n, dtype=np.int64)
    e = 0
    for i, text in enumerate(body):
        while e < len(extras) and extras[e][0] == i:
            lines.append(extras[e][1])
            e += 1
        frame_line[i] = len(lines)
        lines.append(text)
    injected = {k: 0 for k in kinds}
    for i in range(n_bad):
        injected[kinds[i % len(kinds)]] += 1
    return LogText(lines, frame_line, injected)
