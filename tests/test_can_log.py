import io
import random
import sys

import pytest

from canids import can_log
from canids.can_log import (
    AttackKind,
    BadHex,
    CanFrame,
    CanLogError,
    DlcOutOfRange,
    EXTENDED_ID_MAX,
    IdOutOfRange,
    LABEL_PREFIX,
    MAX_DLC,
    MalformedLine,
    ParseReport,
    PayloadLengthMismatch,
    as_records,
    format_timestamp,
    parse_line,
    parse_log,
    parse_record,
    read_records,
    save_log,
    serialize_frame,
)
from canids.kernel import make_rng
from helpers import parse_log_file, random_frames, repeated_byte_match

RAW_TABLE_ROWS = [
    "1478198376 0316 8 05 21 68 09 21 21 00 6f",
    "1478198376 018f 8 fe 5b 00 00 00 3c 00 00",
    "1478198376 0260 8 19 21 22 30 08 8e 6d 3a",
    "1478198376 02a0 8 64 00 9a 1d 97 02 bd 00",
    "1478198376 0329 8 40 bb 7f 14 11 20 00 14",
]


def test_parse_reference_row():
    frame = parse_line(RAW_TABLE_ROWS[0])
    assert frame.timestamp_us == 1478198376 * 1_000_000
    assert frame.arbitration_id == 0x0316
    assert frame.dlc == 8
    assert frame.payload == bytes([0x05, 0x21, 0x68, 0x09, 0x21, 0x21, 0x00, 0x6F])
    assert frame.label is None
    assert not frame.extended


def test_all_reference_rows_parse():
    frames, report = parse_log(RAW_TABLE_ROWS)
    assert report.frames_ok == 5
    assert report.errors == []
    assert [f.arbitration_id for f in frames] == [0x316, 0x18F, 0x260, 0x2A0, 0x329]


def test_empty_payload_boundary():
    frame = parse_line("0 000 0 ")
    assert frame.timestamp_us == 0
    assert frame.arbitration_id == 0
    assert frame.dlc == 0
    assert frame.payload == b""


def test_dlc_over_8_rejected():
    with pytest.raises(DlcOutOfRange):
        parse_line("1478198376 0316 9 05 21 68 09 21 21 00 6f 00")


def test_payload_count_mismatch():
    with pytest.raises(PayloadLengthMismatch):
        parse_line("10 100 3 aa bb")


def test_bad_hex():
    with pytest.raises(BadHex):
        parse_line("10 0zz 1 aa")
    with pytest.raises(BadHex):
        parse_line("10 100 1 a")


@pytest.mark.parametrize("token", ["0g", "g0", "+1", "\u0660\u0660", "1", "123"])
def test_bad_payload_hex(token):
    with pytest.raises(BadHex):
        parse_line(f"10 100 1 {token}")
    # a bad byte among good ones, in any position
    with pytest.raises(BadHex):
        parse_line(f"10 100 3 aa {token} bb")
    with pytest.raises(BadHex):
        parse_line(f"10 100 2 {token} aa")


def test_payload_tokens_must_be_two_digits_each():
    # the digit count adds up to 2 per byte, but not token by token
    with pytest.raises(BadHex):
        parse_line("10 100 2 1 123")
    with pytest.raises(BadHex):
        parse_line("10 100 2 123 4")


def test_upper_case_hex_parses():
    frame = parse_line("10 1AF 3 DE aD Ff")
    assert frame.arbitration_id == 0x1AF
    assert frame.payload == bytes([0xDE, 0xAD, 0xFF])


def test_strict_bad_hex_names_its_line():
    text = "10 100 1 aa\n11 100 1 0g\n"
    with pytest.raises(BadHex, match="^line 2: "):
        parse_log(io.StringIO(text), strict=True)
    frames, report = parse_log(io.StringIO(text))
    assert len(frames) == 1
    assert report.errors == [(2, "BadHex", "11 100 1 0g")]


def test_malformed_lines():
    with pytest.raises(MalformedLine):
        parse_line("10 100")
    with pytest.raises(MalformedLine):
        parse_line("not-a-number 100 0")
    with pytest.raises(MalformedLine):
        parse_line("10 100 0 #label=unknown")


@pytest.mark.parametrize("line", ["10 100 \u00b2", "\u00b9 100 0", "1.\u00b2 100 0"],
                         ids=["dlc", "seconds", "fraction"])
def test_non_ascii_digits_are_malformed(line):
    with pytest.raises(MalformedLine):
        parse_line(line)
    frames, report = parse_log(io.StringIO(f"10 100 0\n{line}\n11 100 0\n"))
    assert len(frames) == 2
    assert [(no, kind) for no, kind, _ in report.errors] == [(2, "MalformedLine")]


def test_id_ranges():
    assert parse_line("0 7ff 0").extended is False
    # 4-digit token over 11 bits implies an extended frame
    assert parse_line("0 0800 0").extended is True
    assert parse_line("0 1fffffff 0").arbitration_id == 0x1FFF_FFFF
    with pytest.raises(IdOutOfRange):
        parse_line("0 3fffffff 0")


def test_explicit_8_digit_id_is_extended():
    frame = parse_line("0 00000316 0")
    assert frame.extended and frame.arbitration_id == 0x316
    assert serialize_frame(frame) == "0 00000316 0"


def test_label_token():
    frame = parse_line("5 0316 1 ff #label=dos")
    assert frame.label is AttackKind.DOS
    assert serialize_frame(frame) == "5 316 1 ff #label=dos"


def test_label_serialization_suffix():
    frame = CanFrame(0, 0x123, 0, b"", label=AttackKind.DOS)
    assert serialize_frame(frame).endswith("#label=dos")


def test_dlc_zero_serialization():
    assert serialize_frame(CanFrame(0, 0x1, 0, b"")) == "0 001 0"


def test_fractional_timestamps():
    frame = parse_line("12.5 100 0")
    assert frame.timestamp_us == 12_500_000
    assert format_timestamp(frame.timestamp_us) == "12.5"
    assert parse_line("0.000001 100 0").timestamp_us == 1
    with pytest.raises(MalformedLine):
        parse_line("1.1234567 100 0")  # sub-microsecond precision


def test_round_trip_random_frames(monkeypatch):
    """Every line serialize_frame writes round-trips through the canonical
    match alone, with or without the newline save_log adds."""
    def token_walk(text):
        raise AssertionError(f"canonical line sent to the token walk: {text!r}")

    monkeypatch.setattr(can_log, "_parse_tokens", token_walk)
    rng = make_rng(2024)
    edge_frames = [
        CanFrame(0, 0x316, 0, b"", extended=True),  # 8 digits, value <= 0x7FF
        CanFrame(0, 0x7FF, 0, b""),
        CanFrame(1, 0x800, 1, b"\x00", extended=True),
        CanFrame(1, EXTENDED_ID_MAX, 8, bytes(range(8)), AttackKind.REPLAY, True),
        CanFrame(1, 0, 0, b"", AttackKind.DOS),
        CanFrame(12_500_000, 0x100, 2, b"\xab\xcd", AttackKind.FUZZY),
        CanFrame(1, 0x100, 0, b"", AttackKind.SPOOFING),
        CanFrame(10**20 + 10, 0x100, 0, b""),
    ]
    for frame in random_frames(rng, 500) + edge_frames:
        line = serialize_frame(frame)
        record = (frame.timestamp_us, frame.arbitration_id, frame.label)
        for text in (line, line + "\n"):
            assert parse_line(text) == frame
            assert parse_record(text) == record


@pytest.mark.parametrize(
    "line, error",
    [("1" * 4301 + " 100 0", MalformedLine),
     ("1" * 4301 + ".5 100 0", MalformedLine),
     ("0" * 5000 + " 100 0", MalformedLine),
     ("1 100 " + "9" * 4301, DlcOutOfRange),
     ("1 100 " + "0" * 5000, DlcOutOfRange)],
    ids=["seconds", "seconds-with-fraction", "zero-seconds", "dlc", "zero-dlc"])
def test_numbers_past_the_int_digit_limit_are_typed_errors(line, error):
    """int() refuses a decimal string of more than 4300 digits with a plain
    ValueError; the line fails with its CanLogError kind instead."""
    with pytest.raises(error):
        parse_line(line)
    frames, report = parse_log([line, "2 100 0"])
    assert len(frames) == 1
    assert [(no, kind) for no, kind, _ in report.errors] == [(1, error.__name__)]


@pytest.mark.parametrize("fraction", ["5", "123456"])
@pytest.mark.parametrize("digits", [634, 640])
def test_timestamps_convert_under_the_lowest_int_digit_limit(digits, fraction):
    """A canonical match converts its seconds and 6-digit padded fraction in
    one int() call, so its seconds stop at 634 digits: under the lowest
    int-string limit Python allows (640), no parser raises a plain
    ValueError, and all three give the same record."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-string digit limit")
    line = f"{'9' * digits}.{fraction} 100 0"
    record = (int("9" * digits) * 1_000_000 + int(fraction.ljust(6, "0")), 0x100, None)
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert (can_log._match_canonical(line) is not None) == (digits <= 634)
        assert _record_outcome(_frame_record, line) == record
        assert _record_outcome(parse_record, line) == record
        frame = can_log._parse_tokens(line)
    finally:
        sys.set_int_max_str_digits(old_limit)
    assert (frame.timestamp_us, frame.arbitration_id, frame.label) == record


def _outcome(parse, line):
    """The frame a parser gives for a line, or the CanLogError kind it raises."""
    try:
        return parse(line)
    except CanLogError as err:
        return type(err)


# Pieces a mutation splices into a canonical line: whitespace str.split
# accepts but the canonical form does not, a non-ASCII digit, prefixes and
# separators int() would accept, label spellings, and id and dlc tokens at
# the edges of their ranges.
MUTATION_PIECES = [
    "\t", "  ", " ", "\r\n", "\n", "\u3000", "\x1c", "\u0663", "0x", "_", "+",
    "#label=", " #label=dos", " #label=DOS", " #label=Fuzzy", " #label=nope", "#",
    "08", "8", "9", "0", ".", ".5", "ff", "FF", "g",
    "00000316", "000000316", "1fffffff", "3fffffff", "7ff", "800",
]
ID_TOKENS = ["00000316", "000000316", "3fffffff", "1fffffff", "0800", "7FF", "0x10"]
DLC_TOKENS = ["08", "00", "+1", "1_0", "9", "\u0663"]


def _mutate(line, rng):
    """One to three seeded edits of a line: splice a piece in, replace or
    drop a character, or swap the id or dlc token for an edge value."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        at = rng.randrange(len(line) + 1)
        if op == 0:
            line = line[:at] + rng.choice(MUTATION_PIECES) + line[at:]
        elif op == 1:
            line = line[:at] + rng.choice(MUTATION_PIECES) + line[at + 1:]
        elif op == 2:
            line = line[:at] + line[at + 1:]
        else:
            fields = line.split(" ")
            if len(fields) > 2:
                field = 1 if op == 3 else 2
                fields[field] = rng.choice(ID_TOKENS if op == 3 else DLC_TOKENS)
                line = " ".join(fields)
    return line


def _record_outcome(parse, line):
    """The record a parser gives for a line, or the type and message of the
    CanLogError it raises."""
    try:
        return parse(line)
    except CanLogError as err:
        return type(err), str(err)


def _frame_record(line):
    """parse_line's frame cut down to parse_record's fields."""
    frame = parse_line(line)
    return frame.timestamp_us, frame.arbitration_id, frame.label


def _mutation_corpus():
    """The seeded mutations of canonical lines that the canonical match and
    the token walk are held to agree on."""
    rng = random.Random(7)
    canonical = [serialize_frame(f) for f in random_frames(make_rng(11), 400)]
    for _ in range(20_000):
        line = rng.choice(canonical) + rng.choice(["", "\n"])
        if rng.random() < 0.9:
            line = _mutate(line, rng)
        yield line


def test_canonical_match_agrees_with_token_walk():
    """On seeded mutations of canonical lines, parse_line (canonical match
    first) and the token walk give the same frame or the same error kind."""
    seen = set()
    for line in _mutation_corpus():
        expected = _outcome(can_log._parse_tokens, line)
        assert _outcome(parse_line, line) == expected, line
        seen.add((can_log._match_canonical(line) is not None,
                  expected.__name__ if isinstance(expected, type) else "frame"))
    # Both paths gave frames, a match that fails the id check came up, and so
    # did every error kind. A match holds exactly dlc payload bytes, so a
    # payload of the wrong length never matches.
    kinds = (MalformedLine, BadHex, DlcOutOfRange, PayloadLengthMismatch, IdOutOfRange)
    assert {(True, "frame"), (False, "frame"), (True, "IdOutOfRange"),
            *((False, kind.__name__) for kind in kinds)} <= seen
    assert (True, "PayloadLengthMismatch") not in seen
    assert (False, "PayloadLengthMismatch") in seen


def test_canonical_match_agrees_with_token_walk_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    fields = st.lists(
        st.one_of(
            st.sampled_from(MUTATION_PIECES + ID_TOKENS + DLC_TOKENS),
            st.text("0123456789abcdefABCDEF.", min_size=1, max_size=10),
        ),
        min_size=0, max_size=12,
    )
    # mostly single spaces, so that many lines stay canonical
    separators = st.sampled_from([" "] * 3 + ["  ", "\t", "\u3000", "\x1c"])

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(fields, st.data(), st.sampled_from(["", "\n", "\r\n", " \n"]))
    def check(tokens, data, end):
        line = ""
        for k, token in enumerate(tokens):
            line += (data.draw(separators) if k else "") + token
        line += end
        assert _outcome(parse_line, line) == _outcome(can_log._parse_tokens, line)

    check()


def _assert_agrees_with_repeated_byte_match(line):
    """The one-group match succeeds exactly where the repeated-byte oracle
    does with 3 * dlc payload characters, and gives its timestamp, id and
    label, and its dlc digit and payload as one group."""
    match, oracle = can_log._match_canonical(line), repeated_byte_match(line)
    if oracle is None:
        assert match is None, line
        return
    seconds, frac, id_text, dlc_text, payload_text, label_text = oracle.groups()
    if len(payload_text) != 3 * int(dlc_text):
        assert match is None, line
        return
    assert match is not None, line
    assert match.groups() == (seconds, frac, id_text, dlc_text + payload_text,
                              label_text), line


def test_canonical_match_agrees_with_repeated_byte_match():
    """On the seeded mutation corpus, the one-group match agrees with the
    repeated-byte oracle."""
    matched = set()
    for line in _mutation_corpus():
        _assert_agrees_with_repeated_byte_match(line)
        oracle = repeated_byte_match(line)
        matched.add((oracle is not None,
                     can_log._match_canonical(line) is not None))
    # lines both match, lines neither matches, and lines only the oracle
    # matches (a payload of the wrong length) all came up
    assert matched == {(True, True), (False, False), (True, False)}


def test_canonical_match_agrees_with_repeated_byte_match_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(st.lists(st.sampled_from(MUTATION_PIECES + ID_TOKENS + DLC_TOKENS)
                               | st.text("0123456789abcdefABCDEF.", min_size=1, max_size=10),
                               max_size=12),
                      st.sampled_from(["", "\n", "\r\n"]))
    def check(tokens, end):
        _assert_agrees_with_repeated_byte_match(" ".join(tokens) + end)

    check()


def _edge_case_lines():
    """Lines at the edges of the canonical form: each dlc with one byte
    short, exact and one byte over, with and without a label, at each line
    end; upper-case hex, a 3-digit payload token, an 8-digit id over 29
    bits, 640- and 641-digit seconds, 6 and 7 fraction digits."""
    for dlc in range(MAX_DLC + 1):
        for count in (dlc - 1, dlc, dlc + 1):
            if count < 0:
                continue
            payload = "".join(f" {k * 17 % 256:02x}" for k in range(count))
            for label in ("", " #label=replay"):
                for end in ("", "\n", "\r\n"):
                    yield f"5 316 {dlc}{payload}{label}{end}"
    for end in ("", "\n", "\r\n"):
        yield f"1 7FF 2 AB cD{end}"
        yield f"1 7ff 1 abc{end}"
        yield f"1 7ff 2 ab abc #label=dos{end}"
        yield f"1 20000000 0{end}"
        yield f"1 3fffffff 1 00 #label=fuzzy{end}"
        yield f"{'9' * 640} 100 0{end}"
        yield f"{'9' * 641} 100 1 01{end}"
        yield f"1.123456 100 0{end}"
        yield f"1.1234567 100 0{end}"
        yield f"{'1' * 640}.000001 100 0 #label=spoofing{end}"


def test_edge_cases_agree_across_parsers():
    """parse_line, parse_record and the token walk give the same frame or
    record, or the same error type and message, at every edge case."""
    outcomes = set()
    for line in _edge_case_lines():
        expected = _record_outcome(can_log._parse_tokens, line)
        assert _record_outcome(parse_line, line) == expected, line
        if isinstance(expected, CanFrame):
            expected = expected.timestamp_us, expected.arbitration_id, expected.label
        assert _record_outcome(parse_record, line) == expected, line
        outcomes.add("record" if isinstance(expected[0], int) else expected[0].__name__)
    assert outcomes == {"record", "PayloadLengthMismatch", "BadHex", "IdOutOfRange",
                        "MalformedLine"}


def test_canonical_pattern_needs_no_python_3_11_syntax():
    """Possessive quantifiers and atomic groups are Python 3.11 regex syntax;
    on 3.10, the oldest version the package supports, they fail to compile."""
    pattern = can_log._match_canonical.__self__.pattern
    for syntax in ("*+", "++", "?+", "}+", "(?>"):
        assert syntax not in pattern, syntax


def test_parse_record_agrees_with_parse_line():
    """On the same corpus, parse_record gives parse_line's timestamp, id and
    label, or raises its error with its message, whether or not the line
    matches the canonical form."""
    matched = set()
    for line in _mutation_corpus():
        expected = _record_outcome(_frame_record, line)
        assert _record_outcome(parse_record, line) == expected, line
        matched.add((can_log._match_canonical(line) is not None,
                     isinstance(expected[0], type)))
    assert matched == {(True, False), (True, True), (False, False), (False, True)}


def test_parse_record_agrees_with_parse_line_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(st.lists(st.sampled_from(MUTATION_PIECES + ID_TOKENS + DLC_TOKENS)
                               | st.text("0123456789abcdefABCDEF.", min_size=1, max_size=10),
                               max_size=12),
                      st.sampled_from(["", "\n", "\r\n"]))
    def check(tokens, end):
        line = " ".join(tokens) + end
        assert _record_outcome(parse_record, line) == _record_outcome(_frame_record, line)

    check()


def test_frame_invariants_enforced():
    with pytest.raises(PayloadLengthMismatch):
        CanFrame(0, 0x1, 2, b"\x00")
    with pytest.raises(IdOutOfRange):
        CanFrame(0, 0x800, 0, b"", extended=False)
    with pytest.raises(DlcOutOfRange):
        CanFrame(0, 0x1, 9, b"\x00" * 9)


def test_parse_log_lenient_records_errors():
    text = "10 100 1 aa\nbogus line here ok\n11 100 1 bb\n"
    frames, report = parse_log(io.StringIO(text))
    assert len(frames) == 2
    assert report.frames_ok == 2
    assert len(report.errors) == 1
    assert report.errors[0][0] == 2
    # frames_ok + errors covers every non-blank non-comment line
    assert report.frames_ok + len(report.errors) == 3


def test_read_records_without_report_still_rejects_per_line():
    rejected = []
    lines = ["10 100 0", "bogus", "9 100 0", "# comment", "", "11 1g0 0"]
    records = read_records(lines, on_reject=lambda n, kind: rejected.append((n, kind)))
    assert [timestamp_us for timestamp_us, _, _ in records] == [10_000_000, 9_000_000]
    assert rejected == [(2, "MalformedLine"), (6, "BadHex")]


def _benchmark_style_log():
    """Canonical frame lines with every kind of rejected line, comments,
    blank lines, CRLF and tab spellings and backwards timestamps spliced in."""
    lines = [serialize_frame(f) + "\n" for f in random_frames(make_rng(5), 300)]
    extras = ["# capture note\n", "\n", "   \n", "12 1f0\n", "12 1g0 2 00 11\n",
              "12 100 9 00 11 22 33 44 55 66 77 88\n", "12 100 4 00 11\n",
              "12 3fffffff 1 00\n", "1 100 0\r\n", "0.5\t7ff 1 aa\n",
              "3 100 1 aa #label=dos\r\n", "#label=dos\n"]
    for k, extra in enumerate(extras):
        lines.insert(20 * k + 7, extra)
    return lines


def _assert_one_line_loop(lines):
    """read_records runs parse_log's line loop: records that are the
    frames' own, the same report, the report's errors handed to on_reject,
    and the same strict-mode error. Returns parse_log's frames and report."""
    frames, report = parse_log(lines)
    records_report, rejected = ParseReport(), []
    records = list(read_records(lines, records_report,
                                on_reject=lambda n, k: rejected.append((n, k))))
    assert records == list(as_records(frames))
    assert records_report == report
    assert rejected == [(n, kind) for n, kind, _ in report.errors]
    strict_errors = []
    for read in (parse_log, read_records):
        try:
            list(read(lines, strict=True))
        except CanLogError as err:
            strict_errors.append((type(err), str(err)))
        else:
            strict_errors.append(None)
    assert strict_errors[0] == strict_errors[1]
    assert (strict_errors[0] is None) == (not report.errors)
    return frames, report


def test_read_records_matches_parse_log():
    frames, report = _assert_one_line_loop(_benchmark_style_log())
    assert {kind for _, kind, _ in report.errors} == {
        "MalformedLine", "BadHex", "DlcOutOfRange", "PayloadLengthMismatch",
        "IdOutOfRange"}
    assert len(report.warnings) == 3 and report.frames_ok == len(frames) == 303


# One line of each CanLogError kind, as its error is named in a report.
_REJECTED_LINES = {
    "MalformedLine": "12 1f0\n",
    "BadHex": "12 1g0 2 00 11\n",
    "DlcOutOfRange": "12 100 9 00 11 22 33 44 55 66 77 88\n",
    "PayloadLengthMismatch": "12 100 4 00 11\n",
    "IdOutOfRange": "12 3fffffff 1 00\n",
}


def _respelled(body: str, spelling: str) -> str:
    """A canonical line, given without its line end, in another spelling
    that parses to the same frame."""
    if spelling == "tabs":
        return body.replace(" ", "\t") + "\n"
    if spelling == "spaces":
        return body.replace(" ", "   ") + "\n"
    if spelling == "crlf":
        return body + "\r\n"
    if spelling == "upper_label":
        head, prefix, kind = body.partition(LABEL_PREFIX)
        return (head + prefix + kind.upper() if prefix else body) + "\n"
    if spelling == "padded_dlc":
        timestamp, arb_id, dlc, *rest = body.split(" ")
        return " ".join([timestamp, arb_id, "0" + dlc, *rest]) + "\n"
    return body + "\n"


def test_read_records_matches_parse_log_on_generated_logs():
    """The parity above over generated logs that mix canonical lines and
    other spellings of them, rejected lines of every kind, comments, blank
    lines and timestamps that run backwards."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    frames = st.builds(
        lambda seed: random_frames(make_rng(seed), 1)[0],
        st.integers(min_value=0, max_value=2**32 - 1))
    spellings = st.sampled_from(
        ["canonical", "tabs", "spaces", "crlf", "upper_label", "padded_dlc"])
    frame_lines = st.builds(lambda frame, spelling: _respelled(
        serialize_frame(frame), spelling), frames, spellings)
    other_lines = st.sampled_from(
        [*_REJECTED_LINES.values(), "# capture note\n", "\n", "   \n", "#label=dos\n"])
    logs = st.lists(st.one_of(frame_lines, other_lines), max_size=30)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(logs)
    def check(lines):
        frames, report = _assert_one_line_loop(lines)
        kind_of = {line: kind for kind, line in _REJECTED_LINES.items()}
        assert [kind for _, kind, _ in report.errors] == [
            kind_of[line] for line in lines if line in kind_of]
        assert len(frames) == sum(line.strip()[:1] not in ("", "#")
                                  and line not in kind_of for line in lines)

    check()


@pytest.mark.parametrize("records", [False, True], ids=["frames", "records"])
def test_as_records_reads_nothing_ahead(records):
    """as_records reads its first item on the first next(), and each item
    only when its record is asked for; records pass through as they are."""
    frames = random_frames(make_rng(5), 4)
    items = list(as_records(frames)) if records else frames
    read = []

    def source():
        for k, item in enumerate(items):
            read.append(k)
            yield item

    stream = as_records(source())
    assert read == []
    for k, frame in enumerate(frames):
        record = next(stream)
        assert record == (frame.timestamp_us, frame.arbitration_id, frame.label)
        assert read == list(range(k + 1))
        if records:
            assert record is items[k]
    assert next(stream, None) is None
    assert list(as_records([])) == []


def test_parse_log_strict_aborts_with_line_number():
    text = "10 100 1 aa\nbogus\n"
    with pytest.raises(MalformedLine, match="line 2"):
        parse_log(io.StringIO(text), strict=True)


def test_parse_log_skips_blank_and_comment_lines():
    """Lines are parsed before they are told to be blank or comments, so a
    comment that reads like a frame after its '#' is still skipped, in
    lenient and strict mode alike."""
    lines = [
        "# header comment\n", "\n", "10 100 0\n", "   \n", "# another\n",
        "11 100 0\n", "#1 100 0\n", "#label=dos\n", "  # note\n",
        "#label=nope\n", "# 1 100 0 #label=dos\n", " \t \u3000\x1c\n", "\r\n",
        "12 100 1 aa\r\n", "\t#13 100 0\r\n", "14 100 0",
    ]
    for strict in (False, True):
        frames, report = parse_log(lines, strict=strict)
        assert [f.timestamp_us for f in frames] == [10_000_000, 11_000_000,
                                                    12_000_000, 14_000_000]
        assert report.frames_ok == 4
        assert report.errors == [] and report.warnings == []


def test_parse_log_empty():
    frames, report = parse_log(io.StringIO(""))
    assert frames == [] and report.frames_ok == 0 and not report.errors


def test_parse_log_warns_on_time_regression():
    text = "10 100 0\n5 100 0\n"
    frames, report = parse_log(io.StringIO(text))
    assert len(frames) == 2
    assert report.warnings == [(2, "timestamp decreases: 5 < 10")]
    # seconds at the int-string digit limit parse, but their microsecond
    # value has six digits more: the warning must not go through str() of it
    frames, report = parse_log(["9" * 4300 + " 100 0", "1 100 0"])
    assert len(frames) == 2
    assert [line_no for line_no, _ in report.warnings] == [2]


def test_parse_log_order_preserved():
    rng = make_rng(7)
    frames = random_frames(rng, 100)
    lines = [serialize_frame(f) for f in frames]
    parsed, _ = parse_log(lines)
    assert parsed == frames


def test_file_round_trip(tmp_path):
    rng = make_rng(99)
    frames = random_frames(rng, 200)
    path = tmp_path / "frames.log"
    assert save_log(path, frames) == 200
    loaded, report = parse_log_file(path)
    assert loaded == frames and not report.errors
