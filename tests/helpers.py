"""Shared test fixtures: synthetic attack scenarios and small oracles.

The benchmark traffic models a bus with two operating modes: a fixed pool of
periodic broadcasters plus one dominant fast broadcaster that changes when
the mode switches halfway through the capture (P in mode A, Q in mode B).
Periods are powers of two over an 8 ms schedule cycle contributing exactly
50 frames per cycle, and per-id start offsets are staggered, so every
200-message window covers four whole cycles and attack-free windows are
near-identical. Attack scenarios:

* dos/fuzzy/spoofing inject into the mode-A half at fixed intervals.
* replay records a segment spanning the mode switch (~85% mode-A content)
  and re-injects it later in mode B; the stale dominant id dilutes the
  window maximum, which degree features see. The ~15% mode-B content
  re-injected into mode B is indistinguishable by construction, which keeps
  replay the weakest scenario (recall well below 1).
* mixed runs all four; its replay source covers the earlier DoS flood, the
  realistic case of an attacker replaying a recording that contains an
  attack burst.
"""

from __future__ import annotations

import importlib.util
import re
import tracemalloc
from pathlib import Path

import numpy as np

from canids.can_log import LABEL_PREFIX, AttackKind, CanFrame, ParseReport, parse_log
from canids.graph_builder import SlidingGraph, _adjacency, _degrees, _features
from canids.traffic_synth import (
    AttackRecord,
    AttackSpec,
    LabeledStream,
    NormalTrafficSpec,
    StreamManifest,
    generate_normal,
    mix_attacks,
)

SCENARIO_KINDS = ("dos", "fuzzy", "spoofing", "replay", "mixed")

MODE_A_DOMINANT = 0x1F0
MODE_B_DOMINANT = 0x1E0
SHARED_PERIODS = [2000] * 8 + [4000] * 4 + [8000] * 2
SLOW_TARGET_IDS = (0x100 + 0x10 * 12, 0x100 + 0x10 * 13)
STAGGER_STEP_US = 97


def mode_pool(mode: str, jitter: float = 0.01):
    """Shared periodic ids plus the mode's dominant 1 ms broadcaster."""
    shared = [(0x100 + 0x10 * i, SHARED_PERIODS[i], jitter)
              for i in range(len(SHARED_PERIODS))]
    dominant = MODE_A_DOMINANT if mode == "a" else MODE_B_DOMINANT
    return shared + [(dominant, 1000, jitter)]


def _staggered(stream: LabeledStream, pool, shift_us: int = 0) -> list[CanFrame]:
    """The stream's frames with each id's schedule offset so emissions spread
    across the cycle, all moved shift_us later, in time order. The frames are
    generate_normal's own and only move later, so they are moved in place
    rather than built again."""
    offset = {arb: shift_us + STAGGER_STEP_US * k for k, (arb, _, _) in enumerate(pool)}
    frames = stream.frames
    for f in frames:
        f.timestamp_us += offset[f.arbitration_id]
    frames.sort(key=lambda f: f.timestamp_us)
    return frames


def make_base_stream(message_count: int, seed: int = 11,
                     jitter: float = 0.01) -> tuple[LabeledStream, int]:
    """Two-mode attack-free capture; returns (stream, switch timestamp)."""
    half = (message_count // 2 // 200) * 200
    pool_a, pool_b = mode_pool("a", jitter), mode_pool("b", jitter)
    a = generate_normal(NormalTrafficSpec(id_pool=pool_a, message_count=half,
                                          seed=seed))
    b = generate_normal(NormalTrafficSpec(id_pool=pool_b,
                                          message_count=message_count - half,
                                          seed=seed + 1))
    frames_a = _staggered(a, pool_a)
    switch = frames_a[-1].timestamp_us + 160
    frames = frames_a + _staggered(b, pool_b, shift_us=switch)
    manifest = StreamManifest(seed=seed, normal_frames=len(frames),
                              total_frames=len(frames))
    return LabeledStream(frames, manifest), switch


def scenario_specs(scenario: str, duration_us: int,
                   switch_us: int) -> list[AttackSpec]:
    t = duration_us

    def frac(x: float) -> int:
        return int(x * t)

    if scenario == "dos":
        return [AttackSpec(AttackKind.DOS, frac(.05), frac(.40), intensity=1.0)]
    if scenario == "fuzzy":
        return [AttackSpec(AttackKind.FUZZY, frac(.05), frac(.40), intensity=0.3)]
    if scenario == "spoofing":
        return [AttackSpec(AttackKind.SPOOFING, frac(.05), frac(.40),
                           intensity=1.0, target_ids=SLOW_TARGET_IDS)]
    if scenario == "replay":
        src_len = int(0.40 * switch_us)
        src_start = switch_us - int(0.85 * src_len)
        start = switch_us + int(0.25 * (t - switch_us))
        return [AttackSpec(AttackKind.REPLAY, start, start + src_len,
                           src_start_us=src_start, src_end_us=src_start + src_len)]
    if scenario == "mixed":
        src_start, src_end = frac(.06), frac(.18)
        start = switch_us + int(0.30 * (t - switch_us))
        return [
            AttackSpec(AttackKind.DOS, frac(.05), frac(.15), intensity=1.0),
            AttackSpec(AttackKind.FUZZY, frac(.17), frac(.27), intensity=0.3),
            AttackSpec(AttackKind.SPOOFING, frac(.29), frac(.39),
                       intensity=1.0, target_ids=SLOW_TARGET_IDS),
            AttackSpec(AttackKind.REPLAY, start, start + (src_end - src_start),
                       src_start_us=src_start, src_end_us=src_end),
        ]
    raise ValueError(f"unknown scenario {scenario!r}")


def make_scenario_stream(scenario: str, base: LabeledStream, switch_us: int,
                         seed: int = 23) -> LabeledStream:
    duration = base.frames[-1].timestamp_us + 1
    return mix_attacks(base, scenario_specs(scenario, duration, switch_us),
                       seed=seed)


def merged_by_full_sort(stream: LabeledStream, injected: list[CanFrame],
                        spec: AttackSpec) -> LabeledStream:
    """stream with injected merged in by one stable sort of every frame, the
    frames already in the stream first: the oracle for the injectors'
    windowed merge."""
    frames = sorted(stream.frames + injected, key=lambda f: f.timestamp_us)
    record = AttackRecord(spec.kind.value, spec.start_us, spec.end_us, len(injected))
    manifest = StreamManifest(stream.manifest.seed, stream.manifest.normal_frames,
                              stream.manifest.total_frames + len(injected),
                              stream.manifest.attacks + [record])
    return LabeledStream(frames, manifest)


def brute_force_graph(ids):
    """Independent consecutive-pair enumerator for graph construction checks.

    Returns (node order, edge multiplicities, in-degrees, out-degrees) built
    with plain dicts, no shared code with the production path.
    """
    order: list[int] = []
    seen: dict[int, int] = {}
    for arb_id in ids:
        if arb_id not in seen:
            seen[arb_id] = len(order)
            order.append(arb_id)
    edges: dict[tuple[int, int], int] = {}
    in_deg = {i: 0 for i in range(len(order))}
    out_deg = {i: 0 for i in range(len(order))}
    for a, b in zip(ids, ids[1:]):
        key = (seen[a], seen[b])
        edges[key] = edges.get(key, 0) + 1
        out_deg[seen[a]] += 1
        in_deg[seen[b]] += 1
    return order, edges, in_deg, out_deg


def oracle_adjacency(graph):
    """D^-1/2 (A_bin + I) D^-1/2 of a MessageGraph by an edge loop and
    np.eye: the adjacency oracle, sharing no code with graph_builder's
    _adjacency."""
    n = graph.num_nodes
    a = np.zeros((n, n), dtype=np.float64)
    for src, dst in graph.edges:
        a[src, dst] = 1.0
    sym = ((a + a.T) > 0).astype(np.float64)
    sym += np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(sym.sum(axis=1))
    return sym * inv_sqrt[:, None] * inv_sqrt[None, :]


def rebuilt_conv_inputs(sliding: SlidingGraph):
    """(adjacency, features) of a SlidingGraph's window rebuilt in full from
    its current slots with _adjacency and _features(_degrees(...)): the
    arithmetic that its in-place updates must match bit for bit."""
    slots, ids = sliding.slots, sliding.ids
    return (_adjacency([slots[src] for src, _ in sliding.edges],
                       [slots[dst] for _, dst in sliding.edges],
                       len(sliding.counts), list(slots.values())),
            _features(_degrees(sliding.counts, slots[ids[0]], slots[ids[-1]],
                               np.float64)))


# The canonical-line pattern with the payload as a repeated group of bytes
# after a dlc digit, its length left unchecked: an oracle for the one-group
# match, which must succeed where this one does with 3 * dlc payload
# characters, and give the same timestamp, id and label.
repeated_byte_match = re.compile(
    r"([0-9]{1,634})(?:\.([0-9]{1,6}))? ([0-9a-fA-F]{1,8}) ([0-8])"
    r"((?: [0-9a-fA-F]{2})*)"
    rf"(?: {LABEL_PREFIX}({'|'.join(kind.value for kind in AttackKind)}))?\n?"
).fullmatch


def random_id_window(rng: np.random.Generator, size: int, pool: int = 40) -> list[int]:
    return rng.integers(0, pool, size=size).tolist()


def random_frames(rng: np.random.Generator, count: int) -> list[CanFrame]:
    """Valid random frames spanning the full field ranges."""
    frames = []
    ts = 0
    for _ in range(count):
        ts += int(rng.integers(0, 5_000_000))
        extended = bool(rng.random() < 0.2)
        arb_max = 0x1FFF_FFFF if extended else 0x7FF
        dlc = int(rng.integers(0, 9))
        label = None
        if rng.random() < 0.3:
            label = list(AttackKind)[int(rng.integers(0, 4))]
        frames.append(CanFrame(
            timestamp_us=ts,
            arbitration_id=int(rng.integers(0, arb_max + 1)),
            dlc=dlc,
            payload=bytes(rng.integers(0, 256, size=dlc, dtype=np.uint8)),
            label=label,
            extended=extended,
        ))
    return frames


def parse_log_file(path) -> tuple[list[CanFrame], ParseReport]:
    """parse_log over a log file opened as the CLI opens --log: UTF-8 with
    undecodable bytes read as U+FFFD, so their line fails like any other
    malformed line."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return parse_log(fh)


def traced_peak(call, *args):
    """(call(*args), the peak bytes tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def load_script(name: str):
    """The module of scripts/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
