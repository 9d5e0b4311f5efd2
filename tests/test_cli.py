import json

import numpy as np
import pytest

from canids import can_log, gcn, graph_builder
from canids.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_MODEL,
    EXIT_OK,
    load_config_file,
    main,
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


def test_graphs_strict_mode_exit_code(tmp_path):
    log = tmp_path / "bad.log"
    log.write_text("10 100 0\nthis is not a frame\n")
    out = tmp_path / "g.jsonl"
    assert main(["graphs", "--log", str(log), "--out", str(out), "--strict"]) == EXIT_CONFIG
    assert main(["graphs", "--log", str(log), "--out", str(out)]) == EXIT_OK


def test_graphs_warns_on_non_ascii_digits(tmp_path, capsys):
    log = tmp_path / "sup.log"
    log.write_text("10 100 0\n11 100 \u00b2\n12 100 0\n", encoding="utf-8")
    out = tmp_path / "g.jsonl"
    assert main(["graphs", "--log", str(log), "--out", str(out),
                 "--window-size", "2"]) == EXIT_OK
    assert capsys.readouterr().err == "warning: line 2: MalformedLine\n"
    assert len(graph_builder.load_graphs(out)) == 1


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
    assert err.startswith("error: ") and err.count("\n") == 1


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
