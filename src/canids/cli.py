"""canids command line: synth, graphs, train, eval, detect.

Every experiment step is a subcommand reading/writing the formats owned by
the library modules, so whole pipelines are reproducible from a shell script:

    canids synth  --out traffic.log --normal 200000 --dos 1.0 --seed 7
    canids graphs --log traffic.log --out graphs.jsonl
    canids train  --graphs graphs.jsonl --model model.bin --history hist.jsonl
    canids eval   --graphs graphs.jsonl --model model.bin --scenario DoS
    canids detect --model model.bin --log - < live.log

parse_options resolves every option, in this order: the command-line flag;
else the flat key=value config file (--config), keyed by flag dest
(window_size, epochs, ...) and converted as that flag converts it; else, for
the seed of synth and train (the subcommands with randomness) only,
CANIDS_SEED in the environment; else the flag's default. Each subcommand
reads the file keys it has flags for, and a key that no subcommand has a
flag for, config itself included, is a config error. A negative seed or
split_seed is a config error. With --graphs, every record of the dump must
have the window_size that is set, or else its first record's, and that size
bounds the stride. Options are checked before any input is read.

Exit codes: 0 success, 2 configuration or parse error, 3 I/O error,
4 data error (e.g. single-class training set), 5 model file error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
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
from .graph_builder import LABEL_TEXT, GraphError
from .kernel import KernelError, make_rng
from .traffic_synth import AttackSpec, NormalTrafficSpec, SynthError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_MODEL = 5


class ConfigError(ValueError):
    pass


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


def _from_file(action: argparse.Action, raw: str):
    """A config-file value, converted as its flag converts it."""
    if isinstance(action, argparse._StoreConstAction):
        return _as_bool(raw)
    convert = action.type or str
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"config value {action.dest}={raw!r} is not a valid "
                          f"{convert.__name__}") from None


def _check_stride(stride: int | None, window_size: int | None) -> None:
    """A window_size of None (a graph dump not yet read) bounds only below."""
    if stride is not None and not 1 <= stride <= (window_size or stride):
        raise ConfigError(f"stride {stride} must be in 1..window_size")


_SEEDED = ("synth", "train")  # the subcommands that read args.seed


def parse_options(argv=None) -> argparse.Namespace:
    """Resolve every option of one run: command-line flag, then --config file,
    then CANIDS_SEED (the seed of synth and train only), then the flag's
    default. The values are checked before any input is read; train's are
    also gathered into args.train_config."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        values = load_config_file(args.config)
        subcommands = next(action.choices for action in parser._actions
                           if isinstance(action, argparse._SubParsersAction))
        known = {action.dest for sub in subcommands.values() for action in sub._actions
                 if not isinstance(action, argparse._HelpAction)} - {"config"}
        unknown = sorted(values.keys() - known)
        if unknown:
            raise ConfigError(f"{args.config}: no canids flag sets "
                              f"{', '.join(map(repr, unknown))}")
        command = subcommands[args.command]
        own = {action.dest: action for action in command._actions}
        command.set_defaults(**{key: _from_file(own[key], raw)
                                for key, raw in values.items() if key in own})
        args = parser.parse_args(argv)  # flags still win over file defaults
    if args.command in _SEEDED and args.seed is None:
        env = os.environ.get("CANIDS_SEED")
        try:
            args.seed = int(env) if env else 0
        except ValueError:
            raise ConfigError(f"CANIDS_SEED={env!r} is not a valid int") from None
    for name in ("seed", "split_seed"):  # numpy seeds only from ints >= 0
        if args.command in _SEEDED and getattr(args, name, 0) < 0:
            raise ConfigError(f"{name} must be >= 0, got {getattr(args, name)}")
    if "window_size" in args:
        if args.window_size is None and not getattr(args, "graphs", None):
            args.window_size = graph_builder.DEFAULT_WINDOW_SIZE
        if args.window_size is not None and args.window_size < 2:
            raise ConfigError("window_size must be >= 2")
        _check_stride(args.stride, args.window_size)
    if "train_fraction" in args and not 0.0 < args.train_fraction < 1.0:
        raise ConfigError("train_fraction must be strictly between 0 and 1")
    if "threshold" in args and not 0.0 <= args.threshold <= 1.0:  # also rejects nan
        raise ConfigError("threshold must be in [0, 1]")
    if args.command == "train":
        try:
            args.train_config = TrainConfig(
                learning_rate=args.learning_rate,
                epochs=args.epochs,
                batch_size=args.batch_size,
                seed=args.seed,
                dropout_p=args.dropout,
                patience=args.patience,
                allow_single_class=args.allow_single_class,
            )
        except ModelError as err:
            raise ConfigError(str(err)) from None
    return args


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
) -> list[AttackSpec]:
    """Lay the requested attacks out over disjoint slots of the timeline.

    Attacks run in the fixed order dos, fuzzy, spoofing, replay inside
    [0.1, 0.9] of the stream duration, one equal slot each with a 10% gap.
    The replay source is an equal-length slice taken from the leading 10%
    margin (so it always precedes its injection window).
    """
    kinds = [k for k in _ATTACK_ORDER if k in intensities]
    if not kinds:
        return []
    margin = 0.1
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
    for kind in _ATTACK_ORDER:
        intensity = getattr(args, kind.value)
        if not (math.isfinite(intensity) and intensity >= 0):
            raise ConfigError(f"--{kind.value} intensity must be finite and >= 0, "
                              f"got {intensity}")
    manifest_path = args.manifest or args.out + ".manifest.json"
    spec = NormalTrafficSpec(
        id_pool=traffic_synth.default_id_pool(args.ids, args.base_period_us, args.jitter),
        message_count=args.normal,
        seed=args.seed,
    )
    stream = traffic_synth.generate_normal(spec)

    intensities = {kind: getattr(args, kind.value) for kind in _ATTACK_ORDER
                   if getattr(args, kind.value) > 0}
    if intensities and stream.frames:
        duration = stream.frames[-1].timestamp_us + 1
        target_pool = [spec.id_pool[i][0] for i in range(min(3, len(spec.id_pool)))]
        specs = plan_attack_specs(duration, intensities)
        for aspec in specs:
            if aspec.kind is AttackKind.SPOOFING:
                aspec.target_ids = tuple(target_pool)
        stream = traffic_synth.mix_attacks(stream, specs, seed=args.seed)

    can_log.save_log(args.out, stream.frames)
    stream.manifest.save(manifest_path)
    counts = stream.manifest.counts_by_kind()
    print(f"wrote {len(stream.frames)} frames to {args.out}")
    print(f"normal: {stream.manifest.normal_frames}")
    for kind in _ATTACK_ORDER:
        if kind.value in counts:
            print(f"{kind.value}: {counts[kind.value]}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


# --------------------------------------------------------------- graphs ----

def _warn(line_no: int, kind: str) -> None:
    print(f"warning: line {line_no}: {kind}", file=sys.stderr)


def _log_graphs(args: argparse.Namespace):
    """Yield the graphs of the --log capture, each as its window's last line
    is read; a malformed line is a warning, or with --strict an error, and
    no record of a line is kept."""
    with open(args.log, "r", encoding="utf-8", errors="replace") as fh:
        for graph, index, attacked, _, _ in graph_builder.sliding_windows(
                can_log.read_records(fh, None, args.strict, _warn), args.window_size,
                args.stride):
            yield graph.snapshot(attacked, index)


@contextmanager
def _replaced_on_success(path: str):
    """A temporary sibling of path to write, moved onto path when the block
    ends and removed when it raises, so a failed command leaves path as it
    was."""
    target = Path(path)
    fd, part = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".part",
                                dir=target.parent)
    os.close(fd)
    try:
        yield part
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(part, 0o666 & ~umask)  # the mode open() gives a new file
        os.replace(part, target)
    except BaseException:
        os.unlink(part)
        raise


def cmd_graphs(args: argparse.Namespace) -> int:
    if not args.log or not args.out:
        raise ConfigError("graphs needs --log and --out")

    attacked = 0

    def counted(graphs):
        nonlocal attacked
        for g in graphs:
            attacked += g.label
            yield g

    with _replaced_on_success(args.out) as part:
        total = graph_builder.dump_graphs(part, counted(_log_graphs(args)))
    share = attacked / total if total else 0.0
    print(f"windows: {total}")
    print(f"attacked: {attacked} ({share:.1%})  attack_free: {total - attacked}")
    return EXIT_OK


# ---------------------------------------------------------------- train ----

def _dump_graphs(args: argparse.Namespace):
    """Yield the graphs of the --graphs dump as its records are read, each
    checked against the set window_size, else against the first record's,
    which must also bound the stride."""
    window_size = args.window_size
    for g in graph_builder.read_graphs(args.graphs):
        if window_size is None:
            _check_stride(args.stride, g.window_size)
            window_size = g.window_size
        elif g.window_size != window_size:
            bound = "" if args.window_size is not None else " of its first record"
            raise ConfigError(f"{args.graphs}: dump window_size {g.window_size} "
                              f"does not match window_size {window_size}{bound}")
        yield g


def _input_graphs(args: argparse.Namespace):
    """A generator of the graphs of the --graphs dump or the --log capture."""
    if args.graphs:
        return _dump_graphs(args)
    if args.log:
        return _log_graphs(args)
    raise ConfigError("need --graphs or --log")


def cmd_train(args: argparse.Namespace) -> int:
    if not args.model:
        raise ConfigError("train needs --model")
    graphs = list(_input_graphs(args))
    if not graphs:
        raise EmptyDataset("no graphs in the input")
    train_graphs, val_graphs = stratified_split(graphs, args.train_fraction, args.split_seed)
    params, history = gcn.train(train_graphs, args.train_config, val_graphs=val_graphs)
    gcn.save_params(params, args.model)

    if args.history:
        with open(args.history, "w", encoding="utf-8") as fh:
            for rec in history:
                fh.write(json.dumps(vars(rec)) + "\n")

    last = history[-1]
    print(f"trained on {len(train_graphs)} graphs, validated on {len(val_graphs)}")
    print(f"final train loss {last.train_loss:.4f}  accuracy {last.train_accuracy:.4f}")
    if last.val_loss is not None:
        print(f"final val loss   {last.val_loss:.4f}  accuracy {last.val_accuracy:.4f}")
    print(f"model: {args.model}")
    return EXIT_OK


# ----------------------------------------------------------------- eval ----

def cmd_eval(args: argparse.Namespace) -> int:
    if not args.model or not args.scenario:
        raise ConfigError("eval needs --model and --scenario")
    if args.scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {', '.join(SCENARIOS)}")

    labels = []

    def labelled(graphs):
        for g in graphs:
            labels.append(g.label)
            yield g

    # Each graph is scored as its dump record is read or its window of the
    # --log capture completes, and only its label and probability are kept.
    graphs = _input_graphs(args)
    try:
        params = gcn.load_params(args.model)
    except (ModelError, OSError):
        if args.graphs:  # a bad dump is reported before a bad model
            for _ in graphs:
                pass
        raise
    predictions, _ = gcn.predict_many(labelled(graphs), params, threshold=args.threshold)
    if not labels:
        raise EmptyDataset("no graphs in the input")
    report = scenario_report(
        args.scenario, predictions.tolist(), labels, PAPER_TARGETS.get(args.scenario)
    )
    print(report.format_table())
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"report: {args.report}")
    return EXIT_OK


# --------------------------------------------------------------- detect ----

@contextmanager
def _stdin_text():
    """stdin's bytes read as UTF-8 with undecodable bytes replaced, as a log
    file is read, whatever stdin's own error handler; sys.stdin is left
    open. A stdin with no byte buffer is read as it is."""
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:
        yield sys.stdin
        return
    text = io.TextIOWrapper(buffer, encoding="utf-8", errors="replace")
    try:
        yield text
    finally:
        text.detach()  # closing the wrapper would close stdin's buffer


def cmd_detect(args: argparse.Namespace) -> int:
    if not args.model:
        raise ConfigError("detect needs --model")
    params = gcn.load_params(args.model)
    with (_stdin_text() if args.log == "-" else
          open(args.log, "r", encoding="utf-8", errors="replace")) as source:
        records = can_log.read_records(source, None, args.strict, _warn)
        for verdict in verdicts(records, params, args.window_size, args.stride,
                                args.threshold):
            print(
                f"{verdict.window_index} "
                f"{format_timestamp(verdict.first_timestamp_us)} "
                f"{format_timestamp(verdict.last_timestamp_us)} "
                f"{LABEL_TEXT[verdict.label]} {verdict.probability:.6f}"
            )
    return EXIT_OK


# ----------------------------------------------------------------- main ----

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="PRNG seed (env CANIDS_SEED fallback)")


def _add_window_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window-size", dest="window_size", type=int)
    parser.add_argument("--stride", type=int)
    parser.add_argument("--strict", action="store_const", const=True, default=False,
                        help="abort on the first malformed log line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canids",
        description="CAN-bus intrusion detection via windowed message graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate labeled synthetic traffic")
    _add_common(p)
    p.add_argument("--out", default="canids_synth.log", help="output log path")
    p.add_argument("--manifest", help="manifest JSON path")
    p.add_argument("--normal", type=int, default=100_000, help="normal frame count")
    p.add_argument("--ids", type=int, default=16, help="size of the arbitration id pool")
    p.add_argument("--base-period-us", dest="base_period_us", type=int, default=1000)
    p.add_argument("--jitter", type=float, default=0.05)
    for kind in _ATTACK_ORDER:
        p.add_argument(f"--{kind.value}", type=float, default=0.0, metavar="INTENSITY")
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
    p.add_argument("--train-fraction", dest="train_fraction", type=float, default=0.8)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--learning-rate", dest="learning_rate", type=float,
                   default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", dest="batch_size", type=int,
                   default=TrainConfig.batch_size)
    p.add_argument("--dropout", type=float, default=TrainConfig.dropout_p)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--allow-single-class", dest="allow_single_class",
                   action="store_const", const=True,
                   default=TrainConfig.allow_single_class)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on labeled graphs")
    _add_common(p)
    _add_window_opts(p)
    p.add_argument("--log", help="input CAN log")
    p.add_argument("--graphs", help="input graph dump")
    p.add_argument("--model", help="model file")
    p.add_argument("--scenario", help=f"one of {', '.join(SCENARIOS)}")
    p.add_argument("--report", help="output report JSON")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="streaming window verdicts")
    _add_common(p)
    _add_window_opts(p)
    p.add_argument("--model", help="model file")
    p.add_argument("--log", default="-", help="input CAN log, or - for stdin")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    try:
        args = parse_options(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
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
