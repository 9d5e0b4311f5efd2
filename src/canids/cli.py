"""canids command line: synth, graphs, train, eval, detect.

Every experiment step is a subcommand reading/writing the formats owned by
the library modules, so whole pipelines are reproducible from a shell script:

    canids synth  --out traffic.log --normal 200000 --dos 1.0 --seed 7
    canids graphs --log traffic.log --out graphs.jsonl
    canids train  --graphs graphs.jsonl --model model.bin --history hist.jsonl
    canids eval   --graphs graphs.jsonl --model model.bin --scenario DoS
    canids detect --model model.bin --log - < live.log

Options can come from a flat key=value config file (--config) keyed by flag
dest (window_size, epochs, ...); command-line flags override file values. A
key that no subcommand has a flag for is a config error. CANIDS_SEED in the
environment is the fallback seed when neither source sets one.

Exit codes: 0 success, 2 configuration or parse error, 3 I/O error,
4 data error (e.g. single-class training set), 5 model file error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import can_log, gcn, graph_builder, traffic_synth
from .can_log import AttackKind, CanLogError, format_timestamp
from .detect import verdicts
from .evaluate import PAPER_TARGETS, SCENARIOS, EvalError, scenario_report
from .gcn import (
    EmptyDataset,
    ModelError,
    SingleClassDataset,
    TrainConfig,
)
from .graph_builder import GraphError
from .kernel import KernelError, make_rng
from .traffic_synth import AttackSpec, NormalTrafficSpec, SynthError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_MODEL = 5

_LABEL_TEXT = {0: "attack_free", 1: "attacked"}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Shared experiment knobs after merging flags, config file, and env."""

    window_size: int = graph_builder.DEFAULT_WINDOW_SIZE
    stride: int | None = None
    train_fraction: float = 0.8
    split_seed: int = 0
    seed: int = 0
    threshold: float = 0.5
    strict: bool = False


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from None
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        values[key.strip()] = value.strip()
    return values


def _as_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _flag_dests() -> set[str]:
    """The dest of every flag of every subcommand: the keys a config file may
    set. One file can serve several subcommands, each reading its own keys."""
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    return {action.dest for sub in subcommands.values() for action in sub._actions
            if not isinstance(action, argparse._HelpAction)}


class _Options:
    """Resolution order: command-line flag, config file, environment, default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = load_config_file(args.config) if args.config else {}
        unknown = sorted(self.file_values.keys() - _flag_dests())
        if unknown:
            raise ConfigError(f"{args.config}: no canids flag sets "
                              f"{', '.join(map(repr, unknown))}")

    def get(self, name: str, default, convert=None):
        cli_value = getattr(self.args, name, None)
        if cli_value is not None:
            return cli_value
        if name in self.file_values:
            raw = self.file_values[name]
            if convert is bool or isinstance(default, bool):
                return _as_bool(raw)
            if convert is None:
                if default is None:
                    return raw
                convert = type(default)
            try:
                return convert(raw)
            except ValueError:
                raise ConfigError(f"config value {name}={raw!r} is not a valid "
                                  f"{convert.__name__}") from None
        return default

    def seed(self) -> int:
        value = self.get("seed", None, convert=int)
        if value is not None:
            return value
        env = os.environ.get("CANIDS_SEED")
        if not env:
            return 0
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"CANIDS_SEED={env!r} is not a valid int") from None


def _experiment_config(opt: _Options) -> ExperimentConfig:
    cfg = ExperimentConfig(
        window_size=opt.get("window_size", graph_builder.DEFAULT_WINDOW_SIZE),
        stride=opt.get("stride", None, convert=int),
        train_fraction=opt.get("train_fraction", 0.8),
        split_seed=opt.get("split_seed", 0),
        seed=opt.seed(),
        threshold=opt.get("threshold", 0.5),
        strict=opt.get("strict", False),
    )
    if cfg.window_size < 2:
        raise ConfigError("window_size must be >= 2")
    if not 0.0 < cfg.train_fraction < 1.0:
        raise ConfigError("train_fraction must be strictly between 0 and 1")
    if not 0.0 <= cfg.threshold <= 1.0:  # also rejects nan
        raise ConfigError("threshold must be in [0, 1]")
    return cfg


def stratified_split(graphs, train_fraction: float, seed: int):
    """Per-label shuffled split so both partitions keep the class balance.

    Labels with a single member go to the training side.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction must be strictly between 0 and 1")
    rng = make_rng(seed)
    by_label: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_label.setdefault(g.label, []).append(i)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_label):
        indices = np.array(by_label[label])
        rng.shuffle(indices)
        if len(indices) == 1:
            train_idx.extend(indices.tolist())
            continue
        n_train = int(round(train_fraction * len(indices)))
        n_train = min(max(n_train, 1), len(indices) - 1)
        train_idx.extend(indices[:n_train].tolist())
        test_idx.extend(indices[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()
    return [graphs[i] for i in train_idx], [graphs[i] for i in test_idx]


# ---------------------------------------------------------------- synth ----

_ATTACK_ORDER = (AttackKind.DOS, AttackKind.FUZZY, AttackKind.SPOOFING, AttackKind.REPLAY)


def plan_attack_specs(
    duration_us: int,
    intensities: dict[AttackKind, float],
    margin: float = 0.1,
) -> list[AttackSpec]:
    """Lay the requested attacks out over disjoint slots of the timeline.

    Attacks run in the fixed order dos, fuzzy, spoofing, replay inside
    [margin, 1 - margin] of the stream duration, one equal slot each with a
    10% gap. The replay source is an equal-length slice taken from the
    leading margin (so it always precedes its injection window).
    """
    kinds = [k for k in _ATTACK_ORDER if k in intensities]
    if not kinds:
        return []
    usable = duration_us * (1.0 - 2 * margin)
    slot = usable / len(kinds)
    specs = []
    for i, kind in enumerate(kinds):
        start = int(duration_us * margin + i * slot)
        end = int(start + slot * 0.9)
        if kind is AttackKind.REPLAY:
            src_len = min(end - start, int(duration_us * margin * 0.8))
            src_start = int(duration_us * margin * 0.1)
            specs.append(
                AttackSpec(
                    kind=kind,
                    start_us=start,
                    end_us=start + src_len,
                    intensity=intensities[kind],
                    src_start_us=src_start,
                    src_end_us=src_start + src_len,
                )
            )
        else:
            specs.append(
                AttackSpec(kind=kind, start_us=start, end_us=end,
                           intensity=intensities[kind])
            )
    return specs


def cmd_synth(args: argparse.Namespace) -> int:
    opt = _Options(args)
    seed = opt.seed()
    normal_count = opt.get("normal", 100_000)
    num_ids = opt.get("ids", 16)
    base_period = opt.get("base_period_us", 1000)
    jitter = opt.get("jitter", 0.05)
    out_path = opt.get("out", "canids_synth.log")
    manifest_path = opt.get("manifest", None, convert=str) or out_path + ".manifest.json"

    spec = NormalTrafficSpec(
        id_pool=traffic_synth.default_id_pool(num_ids, base_period, jitter),
        message_count=normal_count,
        seed=seed,
    )
    stream = traffic_synth.generate_normal(spec)

    intensities: dict[AttackKind, float] = {}
    for kind in _ATTACK_ORDER:
        value = opt.get(kind.value, None, convert=float)
        if value is not None and value > 0:
            intensities[kind] = value
    if intensities and stream.frames:
        duration = stream.frames[-1].timestamp_us + 1
        target_pool = [spec.id_pool[i][0] for i in range(min(3, len(spec.id_pool)))]
        specs = plan_attack_specs(duration, intensities)
        for aspec in specs:
            if aspec.kind is AttackKind.SPOOFING:
                aspec.target_ids = tuple(target_pool)
        stream = traffic_synth.mix_attacks(stream, specs, seed=seed)

    can_log.save_log(out_path, stream.frames)
    stream.manifest.save(manifest_path)
    counts = stream.manifest.counts_by_kind()
    print(f"wrote {len(stream.frames)} frames to {out_path}")
    print(f"normal: {stream.manifest.normal_frames}")
    for kind in _ATTACK_ORDER:
        if kind.value in counts:
            print(f"{kind.value}: {counts[kind.value]}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


# --------------------------------------------------------------- graphs ----

def cmd_graphs(args: argparse.Namespace) -> int:
    opt = _Options(args)
    cfg = _experiment_config(opt)
    log_path = opt.get("log", None, convert=str)
    out_path = opt.get("out", None, convert=str)
    if not log_path or not out_path:
        raise ConfigError("graphs needs --log and --out")

    frames, report = can_log.load_log(log_path, strict=cfg.strict)
    for line_no, kind, _ in report.errors:
        print(f"warning: line {line_no}: {kind}", file=sys.stderr)
    graphs = graph_builder.graphs_from_frames(frames, cfg.window_size, cfg.stride)
    graph_builder.dump_graphs(out_path, graphs)
    attacked = sum(g.label for g in graphs)
    total = len(graphs)
    share = attacked / total if total else 0.0
    print(f"windows: {total}")
    print(f"attacked: {attacked} ({share:.1%})  attack_free: {total - attacked}")
    return EXIT_OK


# ---------------------------------------------------------------- train ----

def _load_graphs_for(opt: _Options, cfg: ExperimentConfig):
    graphs_path = opt.get("graphs", None, convert=str)
    log_path = opt.get("log", None, convert=str)
    if graphs_path:
        return graph_builder.load_graphs(graphs_path)
    if log_path:
        frames, _ = can_log.load_log(log_path, strict=cfg.strict)
        return graph_builder.graphs_from_frames(frames, cfg.window_size, cfg.stride)
    raise ConfigError("need --graphs or --log")


def cmd_train(args: argparse.Namespace) -> int:
    opt = _Options(args)
    cfg = _experiment_config(opt)
    model_path = opt.get("model", None, convert=str)
    if not model_path:
        raise ConfigError("train needs --model")
    history_path = opt.get("history", None, convert=str)

    graphs = _load_graphs_for(opt, cfg)
    if not graphs:
        raise EmptyDataset("no graphs in the input")
    train_graphs, val_graphs = stratified_split(graphs, cfg.train_fraction, cfg.split_seed)

    train_config = TrainConfig(
        learning_rate=opt.get("learning_rate", TrainConfig.learning_rate),
        epochs=opt.get("epochs", TrainConfig.epochs),
        batch_size=opt.get("batch_size", TrainConfig.batch_size),
        seed=cfg.seed,
        dropout_p=opt.get("dropout", TrainConfig.dropout_p),
        patience=opt.get("patience", TrainConfig.patience, convert=int),
        allow_single_class=opt.get("allow_single_class",
                                   TrainConfig.allow_single_class),
    )
    params, history = gcn.train(train_graphs, train_config, val_graphs=val_graphs)
    gcn.save_params(params, model_path)

    if history_path:
        with open(history_path, "w", encoding="utf-8") as fh:
            for rec in history:
                fh.write(json.dumps(vars(rec)) + "\n")

    last = history[-1]
    print(f"trained on {len(train_graphs)} graphs, validated on {len(val_graphs)}")
    print(f"final train loss {last.train_loss:.4f}  accuracy {last.train_accuracy:.4f}")
    if last.val_loss is not None:
        print(f"final val loss   {last.val_loss:.4f}  accuracy {last.val_accuracy:.4f}")
    print(f"model: {model_path}")
    return EXIT_OK


# ----------------------------------------------------------------- eval ----

def cmd_eval(args: argparse.Namespace) -> int:
    opt = _Options(args)
    cfg = _experiment_config(opt)
    model_path = opt.get("model", None, convert=str)
    scenario = opt.get("scenario", None, convert=str)
    report_path = opt.get("report", None, convert=str)
    if not model_path or not scenario:
        raise ConfigError("eval needs --model and --scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {', '.join(SCENARIOS)}")

    graphs = _load_graphs_for(opt, cfg)
    params = gcn.load_params(model_path)
    predictions, _ = gcn.predict_many(graphs, params, threshold=cfg.threshold)
    labels = [g.label for g in graphs]
    report = scenario_report(
        scenario, predictions.tolist(), labels, PAPER_TARGETS.get(scenario)
    )
    print(report.format_table())
    if report_path:
        Path(report_path).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"report: {report_path}")
    return EXIT_OK


# --------------------------------------------------------------- detect ----

def cmd_detect(args: argparse.Namespace) -> int:
    opt = _Options(args)
    cfg = _experiment_config(opt)
    model_path = opt.get("model", None, convert=str)
    if not model_path:
        raise ConfigError("detect needs --model")
    log_path = opt.get("log", "-")
    params = gcn.load_params(model_path)

    def warn(line_no: int, kind: str) -> None:
        print(f"warning: line {line_no}: {kind}", file=sys.stderr)

    with (nullcontext(sys.stdin) if log_path == "-" else
          open(log_path, "r", encoding="utf-8", errors="replace")) as source:
        frames = can_log.read_frames(source, can_log.ParseReport(), cfg.strict, warn)
        for verdict in verdicts(frames, params, cfg.window_size, cfg.stride,
                                cfg.threshold):
            print(
                f"{verdict.window_index} "
                f"{format_timestamp(verdict.first_timestamp_us)} "
                f"{format_timestamp(verdict.last_timestamp_us)} "
                f"{_LABEL_TEXT[verdict.label]} {verdict.probability:.6f}"
            )
    return EXIT_OK


# ----------------------------------------------------------------- main ----

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="PRNG seed (env CANIDS_SEED fallback)")


def _add_window_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window-size", dest="window_size", type=int)
    parser.add_argument("--stride", type=int)
    parser.add_argument("--strict", action="store_const", const=True, default=None,
                        help="abort on the first malformed log line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canids",
        description="CAN-bus intrusion detection via windowed message graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate labeled synthetic traffic")
    _add_common(p)
    p.add_argument("--out", help="output log path")
    p.add_argument("--manifest", help="manifest JSON path")
    p.add_argument("--normal", type=int, help="normal frame count")
    p.add_argument("--ids", type=int, help="size of the arbitration id pool")
    p.add_argument("--base-period-us", dest="base_period_us", type=int)
    p.add_argument("--jitter", type=float)
    for kind in _ATTACK_ORDER:
        p.add_argument(f"--{kind.value}", type=float, metavar="INTENSITY")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("graphs", help="window a log into message graphs")
    _add_common(p)
    _add_window_opts(p)
    p.add_argument("--log", help="input CAN log")
    p.add_argument("--out", help="output graph dump (JSON lines)")
    p.set_defaults(func=cmd_graphs)

    p = sub.add_parser("train", help="train the classifier")
    _add_common(p)
    _add_window_opts(p)
    p.add_argument("--log", help="input CAN log")
    p.add_argument("--graphs", help="input graph dump")
    p.add_argument("--model", help="output model file")
    p.add_argument("--history", help="output epoch history (JSON lines)")
    p.add_argument("--train-fraction", dest="train_fraction", type=float)
    p.add_argument("--split-seed", dest="split_seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--allow-single-class", dest="allow_single_class",
                   action="store_const", const=True, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on labeled graphs")
    _add_common(p)
    _add_window_opts(p)
    p.add_argument("--log", help="input CAN log")
    p.add_argument("--graphs", help="input graph dump")
    p.add_argument("--model", help="model file")
    p.add_argument("--scenario", help=f"one of {', '.join(SCENARIOS)}")
    p.add_argument("--report", help="output report JSON")
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="streaming window verdicts")
    _add_common(p)
    _add_window_opts(p)
    p.add_argument("--model", help="model file")
    p.add_argument("--log", help="input CAN log, or - for stdin")
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SingleClassDataset, EmptyDataset) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (ModelError, KernelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MODEL
    except (ConfigError, CanLogError, SynthError, GraphError, EvalError,
            UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
