import argparse
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from canids import can_log, gcn, graph_builder
from canids.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_MODEL,
    EXIT_OK,
    build_parser,
    load_config_file,
    main,
    parse_options,
    stratified_split,
)
from canids.graph_builder import graph_from_ids
from canids.kernel import make_rng
from helpers import random_id_window


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_synth_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a.log", tmp_path / "b.log"
    args = ["synth", "--normal", "3000", "--dos", "0.5", "--seed", "7"]
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    manifest = json.loads((tmp_path / "a.log.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["attacks"][0]["kind"] == "dos"


# The bytes of `canids synth` at seed 7 with every attack kind. A numpy
# release that changes the Generator streams changes them too; re-baseline
# them only in a change that says so.
SYNTH_SEED7_SHA256 = {
    "s7.log": "47f7123720d4aaf7f1a047d333b2734549b70b237ad2cd792978c347d73233ab",
    "s7.log.manifest.json":
        "f9fa92bc6018277f23abe1f194fa056586ad6208203d522cf01e50064c46bb85",
}


def test_synth_bytes_are_pinned(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "s7.log"), "--normal", "50000",
                 "--dos", "1", "--fuzzy", "0.3", "--spoofing", "1", "--replay", "1",
                 "--seed", "7"]) == EXIT_OK
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in SYNTH_SEED7_SHA256} == SYNTH_SEED7_SHA256


@pytest.mark.parametrize("flag, value", [("--dos", "-1"), ("--fuzzy", "nan"),
                                         ("--dos", "inf")])
def test_synth_refuses_a_bad_intensity(tmp_path, capsys, flag, value):
    """A negative or non-finite intensity is a config error, not a run that
    injects nothing or ends in a traceback; no file is written."""
    out = tmp_path / "s.log"
    assert main(["synth", "--normal", "1000", "--out", str(out), flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {flag} intensity must be finite and >= 0, got {float(value)}\n")
    assert not out.exists()


def test_synth_no_attacks(tmp_path):
    out = tmp_path / "clean.log"
    assert main(["synth", "--normal", "1000", "--out", str(out), "--seed", "1"]) == EXIT_OK
    frames, _ = can_log.load_log(out)
    assert len(frames) == 1000
    assert all(f.label is None for f in frames)
    manifest = json.loads((tmp_path / "clean.log.manifest.json").read_text())
    assert manifest["attacks"] == []


def test_synth_mixed_kinds(tmp_path):
    out = tmp_path / "mix.log"
    assert main([
        "synth", "--normal", "8000", "--out", str(out), "--seed", "3",
        "--dos", "1.0", "--fuzzy", "0.5", "--spoofing", "0.5", "--replay", "1.0",
    ]) == EXIT_OK
    manifest = json.loads((tmp_path / "mix.log.manifest.json").read_text())
    kinds = {a["kind"] for a in manifest["attacks"]}
    assert kinds == {"dos", "fuzzy", "spoofing", "replay"}


def test_graphs_command(tmp_path, capsys):
    log = tmp_path / "t.log"
    main(["synth", "--normal", "3000", "--out", str(log), "--seed", "2", "--dos", "1.0"])
    out = tmp_path / "graphs.jsonl"
    assert main(["graphs", "--log", str(log), "--out", str(out),
                 "--window-size", "100"]) == EXIT_OK
    captured = capsys.readouterr()
    graphs = graph_builder.load_graphs(out)
    frames, _ = can_log.load_log(log)
    assert len(graphs) == len(frames) // 100
    assert f"windows: {len(graphs)}" in captured.out


def test_graphs_dump_equals_the_frame_path(tmp_path, capsys):
    """graphs --log reads records, and dumps the bytes that load_log's
    frames give through graphs_from_frames, with malformed, comment, blank,
    CRLF and backwards-timestamp lines in the log, at whole and overlapping
    strides."""
    log = tmp_path / "t.log"
    main(["synth", "--normal", "3000", "--out", str(log), "--seed", "2", "--fuzzy", "0.5"])
    lines = log.read_text().splitlines(keepends=True)
    for k, extra in enumerate(["# note\n", "\n", "12 1f0\n", "12 100 4 00 11\n",
                               "0.5 100 0\r\n", "1\t100 1 aa\n", "12 3fffffff 1 00\n"]):
        lines.insert(400 * k + 3, extra)
    log.write_text("".join(lines))
    frames, _ = can_log.load_log(log)
    for window_size, stride in ((200, 200), (50, 13), (30, 1)):
        out, want = tmp_path / "cli.jsonl", tmp_path / "lib.jsonl"
        assert main(["graphs", "--log", str(log), "--out", str(out), "--window-size",
                     str(window_size), "--stride", str(stride)]) == EXIT_OK
        assert capsys.readouterr().err == ("warning: line 804: MalformedLine\n"
                                           "warning: line 1204: PayloadLengthMismatch\n"
                                           "warning: line 2404: IdOutOfRange\n")
        graph_builder.dump_graphs(
            want, graph_builder.graphs_from_frames(frames, window_size, stride))
        assert out.read_bytes() == want.read_bytes()


def test_graphs_strict_mode_exit_code(tmp_path, capsys):
    log = tmp_path / "bad.log"
    log.write_text("10 100 0\nthis is not a frame\n")
    out = tmp_path / "g.jsonl"
    assert main(["graphs", "--log", str(log), "--out", str(out), "--strict"]) == EXIT_CONFIG
    assert main(["graphs", "--log", str(log), "--out", str(out)]) == EXIT_OK
    config = tmp_path / "exp.conf"
    from_file = ["graphs", "--config", str(config), "--log", str(log), "--out", str(out)]
    capsys.readouterr()
    config.write_text("strict=yes\n")
    assert main(from_file) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: line 2: ")
    config.write_text("strict=off\n")
    assert main(from_file) == EXIT_OK
    assert capsys.readouterr().err == "warning: line 2: MalformedLine\n"
    config.write_text("strict=maybe\n")
    assert main(from_file) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: not a boolean: 'maybe'\n"


def test_graphs_strict_reject_leaves_no_output(tmp_path, capsys):
    """graphs dumps each window as it is read, into a temporary sibling of
    --out that replaces it only when the whole log is read: a --strict
    reject after some windows were written leaves no --out file, or the old
    one untouched, and no temporary file."""
    log = tmp_path / "late.log"
    log.write_text("".join(f"{i} {0x100 + i % 3:x} 0\n" for i in range(50))
                   + "not a frame\n")
    out = tmp_path / "g.jsonl"
    argv = ["graphs", "--log", str(log), "--out", str(out), "--window-size", "5",
            "--stride", "1"]
    assert main([*argv, "--strict"]) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == [log]
    out.write_text("old dump\n")
    assert main([*argv, "--strict"]) == EXIT_CONFIG
    assert out.read_text() == "old dump\n"
    assert sorted(tmp_path.iterdir()) == [out, log]
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("windows: 46\n")
    assert len(graph_builder.load_graphs(out)) == 46
    assert sorted(tmp_path.iterdir()) == [out, log]


def test_graphs_memory_does_not_grow_with_the_window_count(tmp_path, capsys):
    """graphs writes each window's graph as it is built instead of listing
    them all first, so at stride 1 its peak memory stays that of a few
    graphs, not of every window of the log."""

    def peak_bytes(lines: int) -> int:
        log = tmp_path / f"{lines}.log"
        log.write_text("".join(f"{i} {0x100 + i * 7 % 31:x} 0\n" for i in range(lines)))
        tracemalloc.start()
        try:
            assert main(["graphs", "--log", str(log), "--out", str(tmp_path / "g.jsonl"),
                         "--window-size", "50", "--stride", "1"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.startswith(f"windows: {lines - 49}\n")
        return peak

    peak_bytes(300)  # first-call caches
    small, large = peak_bytes(300), peak_bytes(3_000)
    assert large - small < 128 * 1024, (small, large)


def test_eval_log_memory_does_not_grow_with_the_window_count(tmp_path, capsys):
    """eval --log scores each window's graph as it is built and keeps only
    its label and probability, so at stride 1 its peak memory does not hold
    a graph per window of the log."""
    model = tmp_path / "m.bin"
    gcn.save_params(gcn.init_params(0), model)

    def peak_bytes(lines: int) -> int:
        log = tmp_path / f"{lines}.log"
        log.write_text("".join(f"{i} {0x100 + i * 7 % 31:x} 0\n" for i in range(lines)))
        tracemalloc.start()
        try:
            assert main(["eval", "--log", str(log), "--model", str(model),
                         "--scenario", "DoS", "--window-size", "50",
                         "--stride", "1"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f" total={lines - 49}\n" in capsys.readouterr().out
        return peak

    peak_bytes(300)  # first-call caches
    small, large = peak_bytes(300), peak_bytes(3_000)
    assert large - small < 128 * 1024, (small, large)


def test_eval_graphs_memory_does_not_grow_with_the_dump(tmp_path, capsys):
    """eval --graphs scores each graph as its dump record is read and keeps
    only its label and probability, so its peak memory does not hold the
    whole dump."""
    model = tmp_path / "m.bin"
    gcn.save_params(gcn.init_params(0), model)

    def peak_bytes(lines: int) -> int:
        log, dump = tmp_path / f"{lines}.log", tmp_path / f"{lines}.jsonl"
        log.write_text("".join(f"{i} {0x100 + i * 7 % 31:x} 0\n" for i in range(lines)))
        assert main(["graphs", "--log", str(log), "--out", str(dump),
                     "--window-size", "50", "--stride", "1"]) == EXIT_OK
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(["eval", "--graphs", str(dump), "--model", str(model),
                         "--scenario", "DoS", "--stride", "1"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f" total={lines - 49}\n" in capsys.readouterr().out
        return peak

    peak_bytes(300)  # first-call caches
    small, large = peak_bytes(300), peak_bytes(3_000)
    assert large < 2 * small, (small, large)


def test_eval_graphs_checks_each_record(tmp_path):
    """The window size and stride checks of --graphs hold for every record of
    the dump as eval scores it, the last one read included."""
    dump, mixed = tmp_path / "g.jsonl", tmp_path / "mixed.jsonl"
    graph_builder.dump_graphs(dump, [graph_from_ids([1, 2, 1], False),
                                     graph_from_ids([2, 1, 1], True)])
    graph_builder.dump_graphs(mixed, [graph_from_ids([1, 2, 1], False),
                                      graph_from_ids([1, 2, 1, 2], True)])
    model = tmp_path / "m.bin"
    gcn.save_params(gcn.init_params(0), model)
    source = ["eval", "--model", str(model), "--scenario", "DoS", "--graphs"]
    assert main(source + [str(mixed), "--window-size", "3"]) == EXIT_CONFIG
    assert main(source + [str(mixed)]) == EXIT_CONFIG
    assert main(source + [str(dump), "--stride", "4"]) == EXIT_CONFIG
    assert main(source + [str(dump), "--stride", "3"]) == EXIT_OK
    # an error in the dump is reported before one in the model
    missing = ["eval", "--model", str(tmp_path / "no.bin"), "--scenario", "DoS",
               "--graphs"]
    assert main(missing + [str(mixed), "--window-size", "3"]) == EXIT_CONFIG
    assert main(missing + [str(mixed)]) == EXIT_CONFIG
    assert main(missing + [str(dump)]) == EXIT_IO


def test_graphs_warns_on_non_ascii_digits(tmp_path, capsys):
    log = tmp_path / "sup.log"
    log.write_text("10 100 0\n11 100 \u00b2\n12 100 0\n", encoding="utf-8")
    out = tmp_path / "g.jsonl"
    assert main(["graphs", "--log", str(log), "--out", str(out),
                 "--window-size", "2"]) == EXIT_OK
    assert capsys.readouterr().err == "warning: line 2: MalformedLine\n"
    assert len(graph_builder.load_graphs(out)) == 1


def test_graphs_on_a_backwards_timestamp_at_the_digit_limit(tmp_path, capsys):
    log = tmp_path / "long.log"
    log.write_text("9" * 4300 + " 100 0\n1 100 0\n")
    out = tmp_path / "g.jsonl"
    assert main(["graphs", "--log", str(log), "--out", str(out),
                 "--window-size", "2"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert len(graph_builder.load_graphs(out)) == 1


def test_train_and_eval_log_warn_per_malformed_line(tmp_path, capsys):
    log = tmp_path / "t.log"
    main(["synth", "--normal", "3000", "--out", str(log), "--seed", "2", "--dos", "1.0"])
    lines = log.read_text().splitlines()
    lines[5:5] = ["not a frame"]
    lines[50:50] = ["10 1g0 0"]
    log.write_text("\n".join(lines) + "\n")
    model = tmp_path / "m.bin"
    source = ["--log", str(log), "--window-size", "100", "--model", str(model)]
    capsys.readouterr()
    for cmd in (["train", "--epochs", "2"], ["eval", "--scenario", "DoS"]):
        assert main([*cmd, *source]) == EXIT_OK
        assert capsys.readouterr().err == ("warning: line 6: MalformedLine\n"
                                           "warning: line 51: BadHex\n")
        assert main([*cmd, *source, "--strict"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: line 6: ")


def test_undecodable_log_bytes_warn_per_line(tmp_path, capsys):
    log = tmp_path / "bad.log"
    log.write_bytes(b"10 100 0\n11 1\xff0 0\n")
    assert main(["graphs", "--log", str(log), "--out", str(tmp_path / "g.jsonl")]) == EXIT_OK
    assert capsys.readouterr().err == "warning: line 2: BadHex\n"
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    assert main(["detect", "--model", str(model), "--log", str(log)]) == EXIT_OK
    assert capsys.readouterr().err == "warning: line 2: BadHex\n"


def test_undecodable_graph_dump_and_config_are_config_errors(tmp_path, capsys):
    dump = _make_training_dump(tmp_path)
    lines = dump.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"0x', b'"0x\xff', 1)
    dump.write_bytes(b"".join(lines))
    assert main(["train", "--graphs", str(dump),
                 "--model", str(tmp_path / "m.bin")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: graph dump line 3: ") and err.count("\n") == 1
    config = tmp_path / "exp.conf"
    config.write_bytes(b"window_size=1\xff\n")
    assert main(["graphs", "--config", str(config), "--log", "x.log",
                 "--out", str(tmp_path / "g.jsonl")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"error: {config}: not UTF-8 text: 'utf-8' codec can't decode "
                   "byte 0xff in position 13: invalid start byte\n")


def test_removed_flags_are_rejected(capsys):
    assert main(["graphs", "--adjacency-mode", "raw_directed"]) == EXIT_CONFIG
    assert main(["train", "--optimizer", "sgd"]) == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_missing_log_is_io_error(tmp_path):
    assert main(["graphs", "--log", str(tmp_path / "nope.log"),
                 "--out", str(tmp_path / "g.jsonl")]) == EXIT_IO


def _make_training_dump(tmp_path, n=60):
    rng = make_rng(5)
    graphs = []
    for i in range(n):
        ids = random_id_window(rng, 80, pool=10)
        if i % 2:
            ids = [99 if rng.random() < 0.6 else x for x in ids]
        g = graph_from_ids(ids, attacked=bool(i % 2), window_index=i)
        graphs.append(g)
    path = tmp_path / "train.jsonl"
    graph_builder.dump_graphs(path, graphs)
    return path


def test_train_eval_round_trip(tmp_path, capsys):
    dump = _make_training_dump(tmp_path)
    model = tmp_path / "model.bin"
    history = tmp_path / "history.jsonl"
    code = main(["train", "--graphs", str(dump), "--model", str(model),
                 "--history", str(history), "--epochs", "20", "--seed", "4"])
    assert code == EXIT_OK
    assert model.exists()
    lines = history.read_text().strip().splitlines()
    assert len(lines) == 20
    rec = json.loads(lines[0])
    assert {"epoch", "train_loss", "train_accuracy"} <= set(rec)

    report = tmp_path / "report.json"
    code = main(["eval", "--graphs", str(dump), "--model", str(model),
                 "--scenario", "DoS", "--report", str(report)])
    assert code == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["scenario"] == "DoS"
    assert payload["paper"]["recall"] == 1.0
    out = capsys.readouterr().out
    assert "scenario: DoS" in out


def test_train_deterministic_model_bytes(tmp_path):
    dump = _make_training_dump(tmp_path)
    model_a, model_b = tmp_path / "a.bin", tmp_path / "b.bin"
    args = ["train", "--graphs", str(dump), "--epochs", "10", "--seed", "9"]
    assert main(args + ["--model", str(model_a)]) == EXIT_OK
    assert main(args + ["--model", str(model_b)]) == EXIT_OK
    assert model_a.read_bytes() == model_b.read_bytes()


def test_train_fraction_validation(tmp_path):
    dump = _make_training_dump(tmp_path)
    assert main(["train", "--graphs", str(dump), "--model", str(tmp_path / "m.bin"),
                 "--train-fraction", "1.0"]) == EXIT_CONFIG


def test_train_malformed_graph_dump_is_config_error(tmp_path, capsys):
    dump = _make_training_dump(tmp_path)
    lines = dump.read_text().splitlines()
    dump.write_text("\n".join(lines[:4] + [lines[4][:20]]) + "\n")
    for cmd in (["train"], ["eval", "--scenario", "DoS"]):
        assert main([*cmd, "--graphs", str(dump),
                     "--model", str(tmp_path / "m.bin")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: graph dump line 5: JSONDecodeError")
        assert err.count("\n") == 1


def test_train_single_class_exit(tmp_path):
    rng = make_rng(6)
    graphs = [graph_from_ids(random_id_window(rng, 40), attacked=False, window_index=i)
              for i in range(20)]
    dump = tmp_path / "single.jsonl"
    graph_builder.dump_graphs(dump, graphs)
    assert main(["train", "--graphs", str(dump), "--model", str(tmp_path / "m.bin"),
                 "--epochs", "2"]) == EXIT_DATA


def test_eval_missing_model_is_io_error(tmp_path):
    dump = _make_training_dump(tmp_path)
    assert main(["eval", "--graphs", str(dump), "--model", str(tmp_path / "none.bin"),
                 "--scenario", "DoS"]) == EXIT_IO


def test_eval_wrong_model_file_is_model_error(tmp_path):
    dump = _make_training_dump(tmp_path)
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"GCNIDS01" + b"\x00" * 8)
    assert main(["eval", "--graphs", str(dump), "--model", str(bogus),
                 "--scenario", "DoS"]) == EXIT_MODEL


def test_eval_unknown_scenario(tmp_path):
    dump = _make_training_dump(tmp_path)
    model = tmp_path / "m.bin"
    main(["train", "--graphs", str(dump), "--model", str(model), "--epochs", "2"])
    assert main(["eval", "--graphs", str(dump), "--model", str(model),
                 "--scenario", "Nope"]) == EXIT_CONFIG


@pytest.mark.parametrize("source", ["short-log", "empty-dump"])
def test_eval_with_no_window_is_data_error(tmp_path, capsys, source):
    """A log shorter than one window, or an empty dump, has no graph to
    score: one error line and exit 4, as train gives."""
    model = tmp_path / "m.bin"
    gcn.save_params(gcn.init_params(0), model)
    if source == "short-log":
        log = tmp_path / "short.log"
        assert main(["synth", "--normal", "150", "--out", str(log)]) == EXIT_OK
        flags = ["--log", str(log), "--window-size", "200"]
    else:
        dump = tmp_path / "empty.jsonl"
        dump.write_text("")
        flags = ["--graphs", str(dump)]
    capsys.readouterr()
    assert main(["eval", *flags, "--model", str(model), "--scenario", "DoS"]) == EXIT_DATA
    assert capsys.readouterr().err == "error: no graphs in the input\n"


def test_inference_never_pads_a_batch(tmp_path, monkeypatch):
    """predict, predict_many and eval score each graph through probability,
    never through the padded training batch."""
    def padded(*args, **kwargs):
        raise AssertionError("inference went through the padded batch")

    monkeypatch.setattr(gcn, "forward", padded)
    monkeypatch.setattr(gcn, "assemble_batch", padded)
    monkeypatch.setattr(graph_builder, "assemble_batch", padded)
    dump = _make_training_dump(tmp_path, n=8)
    graphs = graph_builder.load_graphs(dump)
    params = gcn.init_params(0)
    label, prob = gcn.predict(graphs[0], params)
    labels, probs = gcn.predict_many(graphs, params)
    assert (label, prob) == (labels[0], probs[0])
    model = tmp_path / "m.bin"
    gcn.save_params(params, model)
    assert main(["eval", "--graphs", str(dump), "--model", str(model),
                 "--scenario", "DoS"]) == EXIT_OK


def test_detect_stream(tmp_path, capsys, monkeypatch):
    log = tmp_path / "t.log"
    main(["synth", "--normal", "2000", "--out", str(log), "--seed", "2", "--dos", "1.0"])
    dump = tmp_path / "g.jsonl"
    main(["graphs", "--log", str(log), "--out", str(dump), "--window-size", "100"])
    model = tmp_path / "model.bin"
    main(["train", "--graphs", str(dump), "--model", str(model),
          "--epochs", "10", "--seed", "0", "--window-size", "100"])
    capsys.readouterr()

    code = main(["detect", "--model", str(model), "--log", str(log),
                 "--window-size", "100"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    frames, _ = can_log.load_log(log)
    assert len(lines) == (len(frames) - 100) // 100 + 1
    first = lines[0].split()
    assert first[0] == "0"
    assert first[3] in ("attacked", "attack_free")
    assert 0.0 <= float(first[4]) <= 1.0


@pytest.mark.filterwarnings("ignore:training on a single-class dataset")
def test_detect_with_stride(tmp_path, capsys):
    log = tmp_path / "t.log"
    main(["synth", "--normal", "1000", "--out", str(log), "--seed", "1"])
    dump = tmp_path / "g.jsonl"
    main(["graphs", "--log", str(log), "--out", str(dump), "--window-size", "100"])
    # single-class data: train with allow flag just to get a model
    model = tmp_path / "model.bin"
    main(["train", "--graphs", str(dump), "--model", str(model), "--epochs", "2",
          "--window-size", "100", "--allow-single-class"])
    capsys.readouterr()
    code = main(["detect", "--model", str(model), "--log", str(log),
                 "--window-size", "100", "--stride", "50"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == (1000 - 100) // 50 + 1


def test_detect_clean_stream_mostly_attack_free(tmp_path, capsys):
    """A well-trained model watching attack-free traffic should stay quiet."""
    import helpers

    base, switch = helpers.make_base_stream(60_000, seed=11)
    stream = helpers.make_scenario_stream("dos", base, switch, seed=23)
    log = tmp_path / "dos.log"
    can_log.save_log(log, stream.frames)
    dump = tmp_path / "g.jsonl"
    main(["graphs", "--log", str(log), "--out", str(dump)])
    model = tmp_path / "model.bin"
    main(["train", "--graphs", str(dump), "--model", str(model), "--seed", "0"])
    capsys.readouterr()

    clean_log = tmp_path / "clean.log"
    can_log.save_log(clean_log, base.frames[:40_000])
    assert main(["detect", "--model", str(model), "--log", str(clean_log)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    verdicts = [line.split()[3] for line in lines]
    clean_fraction = verdicts.count("attack_free") / len(verdicts)
    assert clean_fraction >= 0.95


def test_detect_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    text = "\n".join(f"{i} 100 0" for i in range(150)) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["detect", "--model", str(model), "--window-size", "100"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("0 0 ")


def test_detect_empty_stream(tmp_path, capsys):
    log = tmp_path / "empty.log"
    log.write_text("")
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    assert main(["detect", "--model", str(model), "--log", str(log)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == ""


@pytest.mark.parametrize("stride", ["0", "11"])
@pytest.mark.parametrize("command", ["graphs", "train", "eval", "detect", "detect-stdin",
                                     "detect-missing-model"])
def test_out_of_range_stride_is_config_error(tmp_path, capsys, monkeypatch,
                                             command, stride):
    """Every windowing subcommand refuses a stride outside 1..window_size;
    detect does so before reading a line, even from an empty stdin, and
    before opening the model."""
    import io

    log = tmp_path / "t.log"
    log.write_text("\n".join(f"{i} 100 0" for i in range(30)) + "\n")
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    args = {
        "graphs": ["graphs", "--log", str(log), "--out", str(tmp_path / "g.jsonl")],
        "train": ["train", "--log", str(log), "--model", str(tmp_path / "new.bin")],
        "eval": ["eval", "--log", str(log), "--model", str(model), "--scenario", "DoS"],
        "detect": ["detect", "--log", str(log), "--model", str(model)],
        "detect-stdin": ["detect", "--log", "-", "--model", str(model)],
        "detect-missing-model": ["detect", "--log", str(log),
                                 "--model", str(tmp_path / "missing.bin")],
    }[command]
    assert main([*args, "--window-size", "10", "--stride", stride]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: stride {stride} must be in 1..window_size\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "eval"])
def test_graph_dump_window_size_and_stride_are_checked(tmp_path, capsys, command):
    """With --graphs, a window size (flag or file) other than the dump's, or a
    stride outside 1..the dump's window size, is a config error."""
    dump = _make_training_dump(tmp_path)  # 80-frame windows
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    args = {
        "train": ["train", "--model", str(tmp_path / "new.bin"), "--epochs", "2"],
        "eval": ["eval", "--model", str(model), "--scenario", "DoS"],
    }[command] + ["--graphs", str(dump)]
    config = tmp_path / "exp.conf"
    config.write_text("window_size=7\n")
    mismatch = f"error: {dump}: dump window_size 80 does not match window_size 7\n"
    for extra, err in (
        (["--window-size", "7"], mismatch),
        (["--config", str(config)], mismatch),
        (["--stride", "0"], "error: stride 0 must be in 1..window_size\n"),
        (["--stride", "81"], "error: stride 81 must be in 1..window_size\n"),
        (["--window-size", "80", "--stride", "81"],
         "error: stride 81 must be in 1..window_size\n"),
    ):
        assert main([*args, *extra]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""
    assert main([*args, "--window-size", "80"]) == EXIT_OK
    assert main([*args, "--stride", "80"]) == EXIT_OK


@pytest.mark.parametrize("command", ["train", "eval"])
def test_graph_dump_that_mixes_window_sizes_is_config_error(tmp_path, capsys, command):
    """With no window size set, the dump's first record sets it for the rest:
    a dump of 80-frame windows followed by 50-frame ones is refused, naming
    the dump, not trained on or scored."""
    dump = _make_training_dump(tmp_path)  # 80-frame windows
    rng = make_rng(6)
    short = tmp_path / "short.jsonl"
    graph_builder.dump_graphs(short, [
        graph_from_ids(random_id_window(rng, 50, pool=10), attacked=bool(i % 2))
        for i in range(4)])
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(dump.read_text() + short.read_text())
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    new_model = tmp_path / "new.bin"
    argv = {
        "train": ["train", "--model", str(new_model), "--epochs", "2"],
        "eval": ["eval", "--model", str(model), "--scenario", "DoS"],
    }[command] + ["--graphs", str(mixed)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (f"error: {mixed}: dump window_size 50 does not match "
                            f"window_size 80 of its first record\n")
    assert captured.out == ""
    assert not new_model.exists()


@pytest.mark.parametrize("argv, env, config, message", [
    (["synth", "--seed", "-1"], None, None, "seed must be >= 0, got -1"),
    (["synth"], "-3", None, "seed must be >= 0, got -3"),
    (["synth"], None, "seed=-4", "seed must be >= 0, got -4"),
    (["train", "--seed", "-2"], None, None, "seed must be >= 0, got -2"),
    (["train"], "-3", None, "seed must be >= 0, got -3"),
    (["train"], None, "seed=-4", "seed must be >= 0, got -4"),
    (["train", "--split-seed", "-2"], None, None, "split_seed must be >= 0, got -2"),
    (["train"], None, "split_seed=-5", "split_seed must be >= 0, got -5"),
], ids=["synth-flag", "synth-env", "synth-config", "train-flag", "train-env",
        "train-config", "split-flag", "split-config"])
def test_negative_seed_is_config_error(tmp_path, capsys, monkeypatch, argv, env,
                                       config, message):
    """numpy seeds only from ints >= 0: a negative seed or split seed, from
    the flag, the config file or CANIDS_SEED, is refused before any input is
    read (train's log does not exist) or any output written."""
    out = tmp_path / "s.log"
    extra = {"synth": ["--normal", "100", "--out", str(out)],
             "train": ["--log", str(tmp_path / "missing.log"),
                       "--model", str(tmp_path / "m.bin")]}[argv[0]]
    if env is None:
        monkeypatch.delenv("CANIDS_SEED", raising=False)
    else:
        monkeypatch.setenv("CANIDS_SEED", env)
    if config is not None:
        path = tmp_path / "exp.conf"
        path.write_text(config + "\n")
        extra += ["--config", str(path)]
    assert main([*argv, *extra]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and not (tmp_path / "m.bin").exists()


def test_detect_reads_stdin_bytes_as_the_log_file(tmp_path, capsys, monkeypatch):
    """An undecodable byte on stdin is a per-line warning, as in a log file,
    even when stdin itself decodes strictly; stdin stays open."""
    import io

    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    data = b"".join(b"%d 100 0\n" % i if i != 25 else b"25 1\xff0 0\n"
                    for i in range(40))
    log = tmp_path / "t.log"
    log.write_bytes(data)
    argv = ["detect", "--model", str(model), "--window-size", "10"]
    assert main([*argv, "--log", str(log)]) == EXIT_OK
    want = capsys.readouterr()
    assert "warning: line 26: " in want.err and len(want.out.splitlines()) == 3
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main([*argv, "--log", "-"]) == EXIT_OK
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    assert not stdin.closed


class _CountingSink:
    """A stderr that keeps only the number of lines written to it."""

    def __init__(self):
        self.lines = 0

    def write(self, text: str) -> int:
        self.lines += text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


def test_detect_memory_does_not_grow_with_rejected_lines(tmp_path, monkeypatch):
    """detect warns on every rejected line but keeps no record of it, so the
    memory it holds is the same for 1k and 30k rejected lines."""
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)

    def peak_bytes(rejects: int) -> int:
        sink = _CountingSink()
        monkeypatch.setattr("sys.stderr", sink)
        monkeypatch.setattr("sys.stdin", (f"{i} 1g0 1 00\n" for i in range(rejects)))
        tracemalloc.start()
        try:
            assert main(["detect", "--model", str(model)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.lines == rejects
        return peak

    peak_bytes(100)  # first-call caches
    small, large = peak_bytes(1_000), peak_bytes(30_000)
    assert large - small < 64 * 1024, (small, large)


def test_graphs_memory_does_not_hold_every_line_of_the_log(tmp_path, monkeypatch):
    """graphs windows the log's records as its lines are read and warns on a
    rejected line without keeping it, so its peak memory grows by the few
    1000-frame graphs of 38k more lines, not by a list of every record or
    every rejected line."""

    def peak_bytes(lines: int) -> int:
        log = tmp_path / f"{lines}.log"
        log.write_text("".join(f"{i} {0x100 + i % 7:x} 0\n" if i % 10 else f"{i} 1g0 0\n"
                               for i in range(lines)))
        sink = _CountingSink()
        monkeypatch.setattr("sys.stderr", sink)
        tracemalloc.start()
        try:
            assert main(["graphs", "--log", str(log), "--out", str(tmp_path / "g.jsonl"),
                         "--window-size", "1000"]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.lines == lines // 10
        return peak

    peak_bytes(2_000)  # first-call caches
    small, large = peak_bytes(2_000), peak_bytes(40_000)
    assert large - small < 512 * 1024, (small, large)


@pytest.mark.parametrize("flag,value,message", [
    ("--epochs", "0", "epochs must be >= 1"),
    ("--learning-rate", "0", "learning_rate must be finite and > 0"),
    ("--learning-rate", "nan", "learning_rate must be finite and > 0"),
    ("--learning-rate", "inf", "learning_rate must be finite and > 0"),
    ("--batch-size", "0", "batch_size must be >= 1"),
    ("--dropout", "1", "dropout_p must be in [0, 1)"),
    ("--patience", "-1", "patience must be >= 0"),
])
def test_train_options_are_checked_before_any_input(tmp_path, capsys, flag, value,
                                                    message):
    """A training option TrainConfig refuses is a config error, reported
    before the log is opened: this log does not exist."""
    code = main(["train", "--log", str(tmp_path / "missing.log"),
                 "--model", str(tmp_path / "m.bin"), flag, value])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def test_detect_skips_malformed_lines(tmp_path, capsys):
    log = tmp_path / "dirty.log"
    lines = ["bogus"] + [f"{i} 100 0" for i in range(120)]
    log.write_text("\n".join(lines) + "\n")
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    code = main(["detect", "--model", str(model), "--log", str(log),
                 "--window-size", "100"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert len(captured.out.strip().splitlines()) == (120 - 100) // 100 + 1


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_detect_rejects_numbers_past_the_int_digit_limit(tmp_path, capsys, strict):
    """A timestamp or dlc of more than 4300 digits, which int() refuses, is a
    rejected line like any other, not a traceback."""
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    log = tmp_path / "long.log"
    log.write_text(f"0 100 0\n{'1' * 4301} 100 0\n2 100 {'9' * 4301}\n3 100 0\n")
    argv = ["detect", "--model", str(model), "--log", str(log), "--window-size", "2"]
    if strict:
        assert main(argv + ["--strict"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: line 2: ")
        return
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ("warning: line 2: MalformedLine\n"
                            "warning: line 3: DlcOutOfRange\n")
    assert captured.out.split()[:3] == ["0", "0", "3"]


def _dirty_log(tmp_path, normal=600):
    """A small DoS capture with malformed, comment and blank lines mixed in."""
    clean = tmp_path / "clean.log"
    main(["synth", "--normal", str(normal), "--out", str(clean), "--seed", "4",
          "--dos", "1.0"])
    lines = clean.read_text().splitlines()
    bad = ["bogus", "10 100 1 zz", "10 100 9 00", "10 100 2 aa",
           "10 900000000 0", "10 100 1 0g", "10 100 0 #label=nope"]
    for k, text in enumerate(bad):
        lines.insert(40 + 61 * k, text)
    lines.insert(5, "# comment")
    lines.insert(9, "")
    log = tmp_path / "dirty.log"
    log.write_text("\n".join(lines) + "\n")
    return log


@pytest.mark.parametrize("stride", [1, 7])
def test_detect_matches_library(tmp_path, capsys, stride):
    """Every detect line equals graphs_from_frames + predict_many on the same
    window; every rejected line gives one stable warning line."""
    log = _dirty_log(tmp_path)
    frames, report = can_log.load_log(log)
    assert len(report.errors) == 7
    params, _ = gcn.train(graph_builder.graphs_from_frames(frames, 20),
                          gcn.TrainConfig(epochs=5, seed=0))
    model = tmp_path / "model.bin"
    gcn.save_params(params, model)
    graphs = graph_builder.graphs_from_frames(frames, 20, stride)
    # a threshold between two middle probabilities gives both labels
    ordered = np.unique(gcn.predict_many(graphs, params)[1])
    mid = len(ordered) // 2
    assert ordered[mid] - ordered[mid - 1] > 1e-6
    threshold = float(ordered[mid - 1] + ordered[mid]) / 2
    labels, probs = gcn.predict_many(graphs, params, threshold=threshold)
    capsys.readouterr()

    assert main(["detect", "--model", str(model), "--log", str(log),
                 "--window-size", "20", "--stride", str(stride),
                 "--threshold", repr(threshold)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"warning: line {line_no}: {kind}" for line_no, kind, _ in report.errors
    ]
    lines = captured.out.splitlines()
    assert len(lines) == len(graphs) == (len(frames) - 20) // stride + 1
    assert set(labels.tolist()) == {0, 1}
    for k, line in enumerate(lines):
        index, first_ts, last_ts, label, prob = line.split()
        assert int(index) == graphs[k].window_index == k
        assert first_ts == can_log.format_timestamp(frames[k * stride].timestamp_us)
        assert last_ts == can_log.format_timestamp(frames[k * stride + 19].timestamp_us)
        assert label == ("attacked" if labels[k] else "attack_free")
        assert abs(float(prob) - probs[k]) <= 5e-7 + 1e-12


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "inf"])
def test_threshold_outside_unit_interval_rejected(tmp_path, capsys, value):
    dump = _make_training_dump(tmp_path)
    log = tmp_path / "t.log"
    log.write_text("".join(f"{i} 100 0\n" for i in range(150)))
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    capsys.readouterr()
    assert main(["eval", "--graphs", str(dump), "--model", str(model),
                 "--scenario", "DoS", "--threshold", value]) == EXIT_CONFIG
    assert main(["detect", "--model", str(model), "--log", str(log),
                 "--window-size", "100", "--threshold", value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("threshold must be in [0, 1]") == 2
    config = tmp_path / "exp.conf"
    config.write_text(f"threshold = {value}\n")
    assert main(["detect", "--model", str(model), "--log", str(log),
                 "--config", str(config)]) == EXIT_CONFIG


def test_threshold_bounds_accepted(tmp_path, capsys):
    log = tmp_path / "t.log"
    log.write_text("".join(f"{i} 100 0\n" for i in range(100)))
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    capsys.readouterr()
    for value, verdict in (("0", "attacked"), ("1", "attack_free")):
        assert main(["detect", "--model", str(model), "--log", str(log),
                     "--window-size", "100", "--threshold", value]) == EXIT_OK
        assert capsys.readouterr().out.split()[3] == verdict


def test_config_file_and_env_seed(tmp_path, capsys, monkeypatch):
    config = tmp_path / "exp.conf"
    config.write_text("# experiment\nnormal=1500\nseed=5\n")
    out = tmp_path / "from_config.log"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == EXIT_OK
    frames, _ = can_log.load_log(out)
    assert len(frames) == 1500

    # flag overrides config
    out2 = tmp_path / "override.log"
    assert main(["synth", "--config", str(config), "--normal", "500",
                 "--out", str(out2)]) == EXIT_OK
    frames2, _ = can_log.load_log(out2)
    assert len(frames2) == 500

    # env seed used when neither flag nor config provides one
    config2 = tmp_path / "noseed.conf"
    config2.write_text("normal=800\n")
    monkeypatch.setenv("CANIDS_SEED", "5")
    out3 = tmp_path / "env_a.log"
    main(["synth", "--config", str(config2), "--out", str(out3)])
    monkeypatch.setenv("CANIDS_SEED", "6")
    out4 = tmp_path / "env_b.log"
    main(["synth", "--config", str(config2), "--out", str(out4)])
    assert out3.read_bytes() != out4.read_bytes()


def test_config_value_that_does_not_convert(tmp_path, capsys, monkeypatch):
    config = tmp_path / "exp.conf"
    config.write_text("window_size=abc\n")
    assert main(["graphs", "--config", str(config), "--log", "x.log",
                 "--out", str(tmp_path / "g.jsonl")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: config value window_size='abc' is not a valid int\n")
    monkeypatch.setenv("CANIDS_SEED", "seven")
    assert main(["synth", "--normal", "100", "--out", str(tmp_path / "s.log")]) == EXIT_CONFIG
    assert "CANIDS_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["windw_size=50", "adjacency_mode=raw_directed",
                                  "optimizer=sgd"])
def test_config_key_no_flag_sets_is_rejected(tmp_path, capsys, line):
    dump = _make_training_dump(tmp_path)
    config = tmp_path / "exp.conf"
    config.write_text(f"epochs=2\n{line}\n")
    assert main(["train", "--config", str(config), "--graphs", str(dump),
                 "--model", str(tmp_path / "m.bin")]) == EXIT_CONFIG
    key = line.partition("=")[0]
    assert capsys.readouterr().err == f"error: {config}: no canids flag sets {key!r}\n"


def test_config_key_naming_another_config_file_is_rejected(tmp_path, capsys):
    """config is a flag, but not one a config file can set: a file pointing
    at another file would otherwise be read and silently ignored."""
    log = tmp_path / "t.log"
    log.write_text("".join(f"{i} 100 0\n" for i in range(30)))
    config = tmp_path / "exp.conf"
    config.write_text("config=nowhere.conf\n")
    assert main(["graphs", "--config", str(config), "--log", str(log),
                 "--out", str(tmp_path / "g.jsonl")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {config}: no canids flag sets 'config'\n"
    assert not (tmp_path / "g.jsonl").exists()


def test_env_seed_is_read_only_by_subcommands_with_randomness(tmp_path, capsys,
                                                               monkeypatch):
    """graphs, eval and detect have no randomness, so a CANIDS_SEED they would
    never use does not stop them; synth and train still refuse it."""
    log = tmp_path / "t.log"
    log.write_text("".join(f"{i} 100 0\n" for i in range(30)))
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    dump = _make_training_dump(tmp_path)
    monkeypatch.setenv("CANIDS_SEED", "seven")
    for argv in (["graphs", "--log", str(log), "--out", str(tmp_path / "g.jsonl"),
                  "--window-size", "10"],
                 ["eval", "--graphs", str(dump), "--model", str(model),
                  "--scenario", "DoS"],
                 ["detect", "--model", str(model), "--log", str(log),
                  "--window-size", "10"]):
        assert main(argv) == EXIT_OK
        assert parse_options(argv).seed is None
    capsys.readouterr()
    for argv in (["synth", "--normal", "100", "--out", str(tmp_path / "s.log")],
                 ["train", "--graphs", str(dump), "--model", str(tmp_path / "m.bin")]):
        assert main(argv) == EXIT_CONFIG
        assert "CANIDS_SEED='seven'" in capsys.readouterr().err


def test_config_file_shared_across_subcommands(tmp_path, capsys):
    """train reads epochs, eval reads threshold and scenario; each ignores
    the other's keys."""
    dump = _make_training_dump(tmp_path)
    model = tmp_path / "m.bin"
    config = tmp_path / "exp.conf"
    config.write_text("epochs=2\nthreshold=0.5\nscenario=DoS\n")
    assert main(["train", "--config", str(config), "--graphs", str(dump),
                 "--model", str(model)]) == EXIT_OK
    assert main(["eval", "--config", str(config), "--graphs", str(dump),
                 "--model", str(model)]) == EXIT_OK
    assert "scenario: DoS" in capsys.readouterr().out


# Per flag dest: a value for the flag, and another to put in the file when
# the flag is given too. store_const flags take no value: their file values
# are booleans.
_SAMPLES = {
    "seed": ("5", "6"), "out": ("a.out", "b.out"), "manifest": ("a.json", "b.json"),
    "normal": ("500", "600"), "ids": ("8", "9"), "base_period_us": ("2000", "3000"),
    "jitter": ("0.1", "0.2"), "dos": ("0.5", "0.25"), "fuzzy": ("0.5", "0.25"),
    "spoofing": ("0.5", "0.25"), "replay": ("0.5", "0.25"),
    "window_size": ("50", "60"), "stride": ("5", "6"), "strict": ("yes", "no"),
    "log": ("a.log", "b.log"), "graphs": ("a.jsonl", "b.jsonl"),
    "model": ("a.bin", "b.bin"), "history": ("a.jsonl", "b.jsonl"),
    "train_fraction": ("0.7", "0.6"), "split_seed": ("3", "4"), "epochs": ("3", "4"),
    "learning_rate": ("0.01", "0.02"), "batch_size": ("8", "16"),
    "dropout": ("0.2", "0.3"), "patience": ("2", "3"),
    "allow_single_class": ("yes", "no"), "scenario": ("DoS", "Fuzzy"),
    "report": ("a.json", "b.json"), "threshold": ("0.25", "0.75"),
}


def _every_flag():
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    return [pytest.param(name, action, id=f"{name}-{action.dest}")
            for name, sub in subcommands.items() for action in sub._actions
            if action.dest not in ("help", "config")]


@pytest.mark.parametrize("command,action", _every_flag())
def test_config_value_equals_flag_value(tmp_path, monkeypatch, command, action):
    """Every flag of every subcommand: a file value resolves exactly as the
    same flag does, and the flag wins when both are given."""
    monkeypatch.delenv("CANIDS_SEED", raising=False)
    value, other = _SAMPLES[action.dest]
    flag = [action.option_strings[0]]
    if not isinstance(action, argparse._StoreConstAction):
        flag.append(value)
    config = tmp_path / "exp.conf"

    def resolved(argv):
        return {k: v for k, v in vars(parse_options(argv)).items() if k != "config"}

    from_flag = resolved([command, *flag])
    assert from_flag != resolved([command])
    config.write_text(f"{action.dest}={value}\n")
    assert resolved([command, "--config", str(config)]) == from_flag
    config.write_text(f"{action.dest}={other}\n")
    assert resolved([command, "--config", str(config), *flag]) == from_flag


def test_config_value_is_converted_only_by_subcommands_with_its_flag(tmp_path, capsys):
    """A file value is read only by the subcommands that have its flag, as
    the README says: graphs has no --threshold or --epochs."""
    log = tmp_path / "t.log"
    log.write_text("".join(f"{i} 100 0\n" for i in range(30)))
    model = tmp_path / "model.bin"
    gcn.save_params(gcn.init_params(0), model)
    config = tmp_path / "exp.conf"
    config.write_text("threshold=abc\nepochs=abc\n")
    assert main(["graphs", "--config", str(config), "--log", str(log),
                 "--out", str(tmp_path / "g.jsonl"), "--window-size", "10"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert main(["detect", "--config", str(config), "--model", str(model),
                 "--log", str(log)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: config value threshold='abc' is not a valid float\n")
    assert main(["train", "--config", str(config), "--log", str(log),
                 "--model", str(tmp_path / "new.bin")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: config value epochs='abc' is not a valid int\n")


def test_load_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("key_without_value\n")
    with pytest.raises(Exception):
        load_config_file(path)


def test_stratified_split_balance():
    rng = make_rng(7)
    graphs = []
    for i in range(100):
        g = graph_from_ids(random_id_window(rng, 30), attacked=(i < 30), window_index=i)
        graphs.append(g)
    train_g, test_g = stratified_split(graphs, 0.8, seed=1)
    assert len(train_g) + len(test_g) == 100
    train_pos = sum(g.label for g in train_g)
    test_pos = sum(g.label for g in test_g)
    assert train_pos == 24 and test_pos == 6
    # deterministic
    again = stratified_split(graphs, 0.8, seed=1)
    assert [g.window_index for g in again[0]] == [g.window_index for g in train_g]


def test_stratified_split_validation():
    with pytest.raises(Exception):
        stratified_split([], 1.0, seed=0)


def test_end_to_end_pipeline_determinism(tmp_path):
    """synth -> graphs -> train -> eval, twice, byte-identical artifacts."""
    results = []
    for tag in ("x", "y"):
        log = tmp_path / f"{tag}.log"
        dump = tmp_path / f"{tag}.jsonl"
        model = tmp_path / f"{tag}.bin"
        report = tmp_path / f"{tag}.json"
        assert main(["synth", "--normal", "4000", "--dos", "1.0", "--seed", "13",
                     "--out", str(log)]) == EXIT_OK
        assert main(["graphs", "--log", str(log), "--out", str(dump),
                     "--window-size", "100"]) == EXIT_OK
        assert main(["train", "--graphs", str(dump), "--model", str(model),
                     "--epochs", "10", "--seed", "13", "--window-size", "100"]) == EXIT_OK
        assert main(["eval", "--graphs", str(dump), "--model", str(model),
                     "--scenario", "DoS", "--report", str(report)]) == EXIT_OK
        results.append((log.read_bytes(), dump.read_bytes(),
                        model.read_bytes(), report.read_bytes()))
    assert results[0] == results[1]


def test_default_training_separates_dos(tmp_path):
    """The README pipeline with every training default must detect DoS and
    still call attack-free windows attack-free."""
    log, dump = tmp_path / "dos.log", tmp_path / "dos.jsonl"
    model, report = tmp_path / "dos.bin", tmp_path / "dos.json"
    assert main(["synth", "--normal", "100000", "--dos", "1.0", "--seed", "7",
                 "--out", str(log)]) == EXIT_OK
    assert main(["graphs", "--log", str(log), "--out", str(dump)]) == EXIT_OK
    assert main(["train", "--graphs", str(dump), "--model", str(model)]) == EXIT_OK
    assert main(["eval", "--graphs", str(dump), "--model", str(model),
                 "--scenario", "DoS", "--report", str(report)]) == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["confusion"]["tn"] > 0
    assert payload["metrics"]["f1"] >= 0.95
