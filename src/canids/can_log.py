"""CAN log line parsing and serialization.

Log format: one frame per line, fields separated by single ASCII spaces:

    <timestamp seconds, decimal> <arbitration id, hex> <dlc, decimal> <payload bytes, 2 hex digits each>

An optional trailing ``#label=<dos|fuzzy|spoofing|replay>`` token marks a frame
as injected attack traffic (used by the synthetic generators to carry ground
truth inline; real captures without it parse as normal traffic). Lines whose
first non-blank character is ``#`` are comments.

Canonical serialization: timestamps print as integer seconds when the
microsecond remainder is zero, otherwise with the fractional part trailing-zero
trimmed; arbitration ids print lower-case hex zero-padded to 3 digits (standard
11-bit frames) or 8 digits (extended 29-bit frames).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

STANDARD_ID_MAX = 0x7FF
EXTENDED_ID_MAX = 0x1FFF_FFFF
MAX_DLC = 8
US_PER_SECOND = 1_000_000

LABEL_PREFIX = "#label="


class AttackKind(enum.Enum):
    """The four injected attack classes."""

    DOS = "dos"
    FUZZY = "fuzzy"
    SPOOFING = "spoofing"
    REPLAY = "replay"


class CanLogError(ValueError):
    """Base class for log parsing errors."""


class MalformedLine(CanLogError):
    pass


class BadHex(CanLogError):
    pass


class DlcOutOfRange(CanLogError):
    pass


class PayloadLengthMismatch(CanLogError):
    pass


class IdOutOfRange(CanLogError):
    pass


@dataclass(slots=True)
class CanFrame:
    """One CAN message.

    Timestamps are integer microseconds so equality and ordering are exact.
    ``label`` is None for normal traffic, or the AttackKind of the injector
    that created the frame.
    """

    timestamp_us: int
    arbitration_id: int
    dlc: int
    payload: bytes
    label: AttackKind | None = None
    extended: bool = False

    def __post_init__(self):
        if self.timestamp_us < 0:
            raise MalformedLine(f"negative timestamp: {self.timestamp_us}")
        id_max = EXTENDED_ID_MAX if self.extended else STANDARD_ID_MAX
        if not 0 <= self.arbitration_id <= id_max:
            raise IdOutOfRange(
                f"arbitration id 0x{self.arbitration_id:x} out of range "
                f"(extended={self.extended})"
            )
        if not 0 <= self.dlc <= MAX_DLC:
            raise DlcOutOfRange(f"dlc {self.dlc} not in 0..{MAX_DLC}")
        if len(self.payload) != self.dlc:
            raise PayloadLengthMismatch(
                f"payload has {len(self.payload)} bytes, dlc is {self.dlc}"
            )

    @property
    def timestamp_seconds(self) -> float:
        return self.timestamp_us / US_PER_SECOND


@dataclass
class ParseReport:
    """Outcome of parsing one log: counts, per-line errors, warnings.

    frames_ok + len(errors) equals the number of non-blank, non-comment lines
    consumed. Errors are (line_number, error_kind, raw_line); warnings are
    (line_number, text).
    """

    frames_ok: int = 0
    errors: list[tuple[int, str, str]] = field(default_factory=list)
    warnings: list[tuple[int, str]] = field(default_factory=list)


def _parse_timestamp(token: str) -> int:
    """Decimal seconds (up to 6 fractional digits) to integer microseconds.
    Digits are ASCII only: str.isdigit alone also accepts digits such as '²'
    that int() rejects."""
    whole, dot, frac = token.partition(".")
    if not (token.isascii() and whole.isdigit()):
        raise MalformedLine(f"bad timestamp {token!r}")
    if dot:
        if not frac.isdigit() or len(frac) > 6:
            raise MalformedLine(f"bad timestamp {token!r}")
        return int(whole) * US_PER_SECOND + int(frac.ljust(6, "0"))
    return int(whole) * US_PER_SECOND


def format_timestamp(timestamp_us: int) -> str:
    """Canonical decimal-seconds rendering of an integer-microsecond time."""
    seconds, rem = divmod(timestamp_us, US_PER_SECOND)
    if rem == 0:
        return str(seconds)
    return f"{seconds}.{rem:06d}".rstrip("0")


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _parse_hex(token: str, what: str) -> int:
    if not token or not set(token) <= _HEX_DIGITS:
        raise BadHex(f"bad hex {what} {token!r}")
    return int(token, 16)


def parse_line(text: str) -> CanFrame:
    """Parse one log line into a validated CanFrame.

    Hex parsing is case-insensitive and tolerant of leading zeros; a frame is
    extended iff its id token is 8 digits wide or its value exceeds 11 bits.
    """
    tokens = text.split()
    if not tokens:
        raise MalformedLine("empty line")

    label: AttackKind | None = None
    if tokens[-1].startswith(LABEL_PREFIX):
        kind_text = tokens[-1][len(LABEL_PREFIX):].lower()
        try:
            label = AttackKind(kind_text)
        except ValueError:
            raise MalformedLine(f"unknown label kind {kind_text!r}") from None
        tokens = tokens[:-1]

    if len(tokens) < 3:
        raise MalformedLine(f"expected timestamp, id, dlc; got {len(tokens)} tokens")

    timestamp_us = _parse_timestamp(tokens[0])
    arb_id = _parse_hex(tokens[1], "arbitration id")
    if arb_id > EXTENDED_ID_MAX:
        raise IdOutOfRange(f"arbitration id 0x{arb_id:x} exceeds 29 bits")
    extended = len(tokens[1]) == 8 or arb_id > STANDARD_ID_MAX

    if not (tokens[2].isascii() and tokens[2].isdigit()):
        raise MalformedLine(f"bad dlc {tokens[2]!r}")
    dlc = int(tokens[2])
    if dlc > MAX_DLC:
        raise DlcOutOfRange(f"dlc {dlc} exceeds {MAX_DLC}")

    byte_tokens = tokens[3:]
    if len(byte_tokens) != dlc:
        raise PayloadLengthMismatch(
            f"dlc {dlc} but {len(byte_tokens)} payload bytes"
        )
    # fromhex reads two hex digits per byte and allows whitespace only
    # between bytes, so dlc tokens that give dlc bytes are each 2 hex digits.
    # A failed read with dlc > 0 leaves payload short.
    try:
        payload = bytes.fromhex(" ".join(byte_tokens))
    except ValueError:
        payload = b""
    if len(payload) != dlc:
        raise BadHex(f"payload {' '.join(byte_tokens)!r} is not {dlc} 2-digit hex bytes")

    return CanFrame(
        timestamp_us=timestamp_us,
        arbitration_id=arb_id,
        dlc=dlc,
        payload=payload,
        label=label,
        extended=extended,
    )


def serialize_frame(frame: CanFrame) -> str:
    """Render a frame in canonical form; parse_line round-trips it exactly."""
    id_width = 8 if frame.extended else 3
    parts = [
        format_timestamp(frame.timestamp_us),
        f"{frame.arbitration_id:0{id_width}x}",
        str(frame.dlc),
    ]
    parts.extend(f"{b:02x}" for b in frame.payload)
    if frame.label is not None:
        parts.append(f"{LABEL_PREFIX}{frame.label.value}")
    return " ".join(parts)


def read_frames(
    source: Iterable[str] | IO[str],
    report: ParseReport,
    strict: bool = False,
    on_reject: Callable[[int, str], None] | None = None,
) -> Iterator[CanFrame]:
    """Yield the frames of a log stream as its lines are consumed.

    Blank lines and comment lines are skipped. In lenient mode (default), a
    malformed line is recorded in the report, handed to on_reject as (line
    number, error kind) and skipped; in strict mode the first error aborts
    with its line number. A timestamp running backwards relative to the
    previous frame is reported as a warning, not an error.
    """
    last_ts: int | None = None
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            frame = parse_line(stripped)
        except CanLogError as err:
            if strict:
                raise type(err)(f"line {line_no}: {err}") from err
            kind = type(err).__name__
            report.errors.append((line_no, kind, stripped))
            if on_reject is not None:
                on_reject(line_no, kind)
            continue
        if last_ts is not None and frame.timestamp_us < last_ts:
            report.warnings.append(
                (line_no, f"timestamp decreases: {frame.timestamp_us} < {last_ts}")
            )
        last_ts = frame.timestamp_us
        report.frames_ok += 1
        yield frame


def parse_log(
    source: Iterable[str] | IO[str],
    strict: bool = False,
) -> tuple[list[CanFrame], ParseReport]:
    """Parse a whole log stream with read_frames; returns the frames and the
    report."""
    report = ParseReport()
    frames = list(read_frames(source, report, strict))
    return frames, report


def load_log(path: str | Path, strict: bool = False) -> tuple[list[CanFrame], ParseReport]:
    """parse_log over a file on disk; undecodable bytes read as U+FFFD, so
    their line fails like any other malformed line."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return parse_log(fh, strict=strict)


def save_log(path: str | Path, frames: Iterable[CanFrame]) -> int:
    """Write frames in canonical line format; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            fh.write(serialize_frame(frame))
            fh.write("\n")
            count += 1
    return count
