import io

import pytest

from canids.can_log import (
    AttackKind,
    BadHex,
    CanFrame,
    DlcOutOfRange,
    IdOutOfRange,
    MalformedLine,
    PayloadLengthMismatch,
    format_timestamp,
    load_log,
    parse_line,
    parse_log,
    save_log,
    serialize_frame,
)
from canids.kernel import make_rng
from helpers import random_frames

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


def test_round_trip_random_frames():
    rng = make_rng(2024)
    for frame in random_frames(rng, 500):
        assert parse_line(serialize_frame(frame)) == frame


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


def test_parse_log_strict_aborts_with_line_number():
    text = "10 100 1 aa\nbogus\n"
    with pytest.raises(MalformedLine, match="line 2"):
        parse_log(io.StringIO(text), strict=True)


def test_parse_log_skips_blank_and_comment_lines():
    text = "# header comment\n\n10 100 0\n   \n# another\n11 100 0\n"
    frames, report = parse_log(io.StringIO(text))
    assert len(frames) == 2
    assert report.frames_ok == 2 and not report.errors


def test_parse_log_empty():
    frames, report = parse_log(io.StringIO(""))
    assert frames == [] and report.frames_ok == 0 and not report.errors


def test_parse_log_warns_on_time_regression():
    text = "10 100 0\n5 100 0\n"
    frames, report = parse_log(io.StringIO(text))
    assert len(frames) == 2
    assert len(report.warnings) == 1
    assert report.warnings[0][0] == 2


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
    loaded, report = load_log(path)
    assert loaded == frames and not report.errors
