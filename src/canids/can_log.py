"""CAN log line parsing and serialization.

Log format: one frame per line, fields separated by single ASCII spaces:

    <timestamp seconds, decimal> <arbitration id, hex> <dlc, decimal> <payload bytes, 2 hex digits each>

An optional trailing ``#label=<dos|fuzzy|spoofing|replay>`` token marks a frame
as injected attack traffic (used by the synthetic generators to carry ground
truth inline; real captures without it parse as normal traffic). Lines whose
first non-blank character is ``#`` are comments.

A line in canonical form, as ``serialize_frame`` writes it, is parsed with
one regular-expression match, which also proves that the payload holds
exactly dlc bytes; any other spelling (tabs, runs of spaces, CRLF, upper-case
labels, zero-padded dlc) and every malformed line go through a walk over its
whitespace-separated tokens. A canonical line whose id exceeds 29 bits, the
one check a match can still fail, goes there too. Both give the same frame
or the same error kind; the token walk alone names the error.

A match's timestamp is one int() call over the seconds digits followed by the
fraction padded to 6 digits, the integer seconds * 10**6 + fraction. The
match takes at most 634 seconds digits, so that string has at most 640, the
lowest int-string limit Python allows (sys.set_int_max_str_digits), and int()
on a match never raises. A longer seconds run goes to the token walk, which
converts seconds and fraction apart and reports a run past the limit as
MalformedLine.

Two parsers share that match. parse_line gives a validated CanFrame with its
payload bytes; parse_record gives only the (timestamp_us, arbitration_id,
label) record the graph pipeline reads, decoding no bytes. Log text enters
the package only through parse_log (frames) and read_records (records),
which run one line loop over either parser; as_records turns a stream of
frames into records, and passes a stream of records through, with no
Python frame run per item.

Canonical serialization: timestamps print as integer seconds when the
microsecond remainder is zero, otherwise with the fractional part trailing-zero
trimmed; arbitration ids print lower-case hex zero-padded to 3 digits (standard
11-bit frames) or 8 digits (extended 29-bit frames).
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
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
    try:
        seconds = int(whole)
    except ValueError:  # more digits than Python's int-string limit
        raise MalformedLine(f"timestamp of {len(whole)} digits is too long") from None
    if dot:
        if not frac.isdigit() or len(frac) > 6:
            raise MalformedLine(f"bad timestamp {token!r}")
        return seconds * US_PER_SECOND + int(frac.ljust(6, "0"))
    return seconds * US_PER_SECOND


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


# label text of a canonical match -> AttackKind; no label group ("") -> None
_LABELS = {"": None, **{kind.value: kind for kind in AttackKind}}

# The dlc and payload of a canonical line as one group, one alternative per
# dlc ("0|1 XX|2 XX XX|..."), so a match holds exactly dlc payload bytes: the
# group is 3 * dlc + 1 characters long. Each alternative starts with its own
# digit, so the match never backtracks between them, and it repeats no group
# per byte, which Python's re pays for byte by byte.
_DLC_PAYLOAD = "|".join(f"{dlc}{' [0-9a-fA-F][0-9a-fA-F]' * dlc}"
                        for dlc in range(MAX_DLC + 1))

# The canonical line: single spaces, a known lower-case label, at most one
# trailing newline. The seconds run stops at 634 digits, so the seconds and
# the padded fraction make at most 640, the lowest int-string limit Python
# allows (see the module docstring).
_match_canonical = re.compile(
    rf"([0-9]{{1,634}})(?:\.([0-9]{{1,6}}))? ([0-9a-fA-F]{{1,8}}) ({_DLC_PAYLOAD})"
    rf"(?: {LABEL_PREFIX}({'|'.join(kind.value for kind in AttackKind)}))?\n?"
).fullmatch


def parse_line(text: str) -> CanFrame:
    """Parse one log line into a validated CanFrame.

    Hex parsing is case-insensitive and tolerant of leading zeros; a frame is
    extended iff its id token is 8 digits wide or its value exceeds 11 bits.
    A canonical line is parsed by one match, which holds exactly dlc payload
    bytes; any other line, and a canonical one whose id exceeds 29 bits, by
    the token walk, which gives the same frame or raises the error.
    """
    match = _match_canonical(text)
    if match is not None:
        seconds, frac, id_text, dlc_payload, label_text = match.groups("")
        arb_id = int(id_text, 16)
        if arb_id <= EXTENDED_ID_MAX:
            return CanFrame(
                int(seconds + frac.ljust(6, "0")), arb_id, len(dlc_payload) // 3,
                bytes.fromhex(dlc_payload[1:]), _LABELS[label_text],
                len(id_text) == 8 or arb_id > STANDARD_ID_MAX,
            )
    return _parse_tokens(text)


# What the graph pipeline reads of a frame: (timestamp_us, arbitration_id, label)
Record = tuple[int, int, AttackKind | None]


def parse_record(text: str) -> Record:
    """parse_line without the frame: the line's (timestamp_us,
    arbitration_id, label). A canonical line's payload, whose length the
    match has checked, is not decoded; every other line, and a canonical one
    whose id exceeds 29 bits, goes through the token walk, so it gives
    parse_line's values or raises parse_line's error."""
    match = _match_canonical(text)
    if match is not None:
        seconds, frac, id_text, _, label_text = match.groups("")
        arb_id = int(id_text, 16)
        if arb_id <= EXTENDED_ID_MAX:
            return int(seconds + frac.ljust(6, "0")), arb_id, _LABELS[label_text]
    return _frame_record(_parse_tokens(text))


_frame_record = attrgetter("timestamp_us", "arbitration_id", "label")


def as_records(stream: Iterable[CanFrame] | Iterable[Record]) -> Iterator[Record]:
    """The records of a stream of frames; a stream of records passes
    through. The first item, read on the first next(), tells which the
    stream holds. The iterator is built of C-level chain and map objects, so
    no Python frame runs per item."""
    return itertools.chain.from_iterable(_typed_records(iter(stream)))


def _typed_records(items: Iterator) -> Iterator[Iterator[Record]]:
    """as_records' one iterator, made when the first item is read: the
    frames mapped to records, or the records as they are."""
    for first in items:
        rest = itertools.chain((first,), items)
        yield map(_frame_record, rest) if isinstance(first, CanFrame) else rest
        return


def _parse_tokens(text: str) -> CanFrame:
    """parse_line by a walk over the whitespace-separated tokens: the
    reference for every line, and the only path that names an error."""
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
    try:
        dlc = int(tokens[2])
    except ValueError:  # more digits than Python's int-string limit
        raise DlcOutOfRange(f"dlc of {len(tokens[2])} digits is too long") from None
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

    return CanFrame(timestamp_us, arb_id, dlc, payload, label, extended)


def serialize_frame(frame: CanFrame) -> str:
    """Render a frame in canonical form; parse_line round-trips it exactly."""
    payload = f" {frame.payload.hex(' ')}" if frame.dlc else ""
    label = "" if frame.label is None else f" {LABEL_PREFIX}{frame.label.value}"
    return (f"{format_timestamp(frame.timestamp_us)} "
            f"{frame.arbitration_id:0{8 if frame.extended else 3}x} "
            f"{frame.dlc}{payload}{label}")


def _read(
    source: Iterable[str] | IO[str],
    parse: Callable[[str], CanFrame | Record],
    timestamp_of: Callable[[CanFrame | Record], int],
    report: ParseReport | None,
    strict: bool,
    on_reject: Callable[[int, str], None] | None,
) -> Iterator[CanFrame | Record]:
    """The line loop of parse_log and read_records: yield parse(line) for
    each line that parses, timestamp_of giving its time."""
    last_ts: int | None = None
    for line_no, line in enumerate(source, start=1):
        # Parse first: a blank or comment line never parses, because its
        # first token is never a timestamp, so it is told apart only after
        # the error.
        try:
            item = parse(line)
        except CanLogError as err:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if strict:
                raise type(err)(f"line {line_no}: {err}") from err
            kind = type(err).__name__
            if report is not None:
                report.errors.append((line_no, kind, stripped))
            if on_reject is not None:
                on_reject(line_no, kind)
            continue
        if report is not None:
            timestamp_us = timestamp_of(item)
            if last_ts is not None and timestamp_us < last_ts:
                report.warnings.append(
                    (line_no, f"timestamp decreases: {format_timestamp(timestamp_us)}"
                              f" < {format_timestamp(last_ts)}")
                )
            last_ts = timestamp_us
            report.frames_ok += 1
        yield item


def read_records(
    source: Iterable[str] | IO[str],
    report: ParseReport | None = None,
    strict: bool = False,
    on_reject: Callable[[int, str], None] | None = None,
) -> Iterator[Record]:
    """Yield the records of a log stream as its lines are consumed, with
    parse_log's skips, report and strict mode, and each rejected line handed
    to on_reject as (line number, error kind). Without a report, memory does
    not grow with the stream."""
    return _read(source, parse_record, itemgetter(0), report, strict, on_reject)


def parse_log(source: Iterable[str] | IO[str],
              strict: bool = False) -> tuple[list[CanFrame], ParseReport]:
    """The frames of a whole log stream and its report. Blank and comment
    lines are skipped; a malformed line is recorded in the report and
    skipped, or with strict aborts with its line number; a timestamp running
    backwards is a warning, not an error."""
    report = ParseReport()
    frames = list(_read(source, parse_line, attrgetter("timestamp_us"), report, strict, None))
    return frames, report


def save_log(path: str | Path, frames: Iterable[CanFrame]) -> int:
    """Write frames in canonical line format; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            fh.write(serialize_frame(frame))
            fh.write("\n")
            count += 1
    return count
