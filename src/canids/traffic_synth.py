"""Synthetic CAN traffic with labeled attack injection.

Normal traffic models periodic ECU broadcasts: every id in the pool emits at
its own period with bounded uniform jitter, payload bytes drawn from the
seeded generator. Injectors overlay the four attack classes on a stream:

* dos      - floods the highest-priority id 0x000 with zero payloads
* fuzzy    - random 11-bit ids with random payloads of random length
* spoofing - reuses legitimate target ids with the payload ff * 8
* replay   - re-emits a copied earlier segment, spacing preserved exactly

The flood id and the spoof payload are fixed (DEFAULT_FLOOD_ID,
DEFAULT_SPOOF_PAYLOAD). dos, fuzzy and spoofing share one path: intensity x
(frames in the window) frames at sorted uniform times in the window, then
the kind's own draws. All generation is deterministic per seed (PCG64
streams). A LabeledStream's frames are in timestamp order, and the injectors
rely on it. An injection touches only its window [start_us, end_us): every
injected frame lies inside it (a replay source may be no longer than the
window), so only the window's frames are merged and the head and tail of the
stream are kept as they are. The merge is stable: frames already in the
stream precede newly injected ones, and injected frames keep their insertion
order. Every injected frame carries its attack kind as an inline label, so
window labels can be derived without side tables.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .can_log import STANDARD_ID_MAX, AttackKind, CanFrame
from .kernel import make_rng

DEFAULT_FLOOD_ID = 0x000
DEFAULT_SPOOF_PAYLOAD = b"\xff" * 8
STANDARD_ID_SPACE = 0x800


class SynthError(ValueError):
    """Base class for traffic synthesis errors."""


class EmptyIdPool(SynthError):
    pass


class WindowOutsideStream(SynthError):
    pass


class TargetIdAbsent(SynthError):
    pass


class SourceAfterInjection(SynthError):
    pass


class EmptySourceSegment(SynthError):
    pass


def _is_int(value) -> bool:
    """An int or any other type operator.index accepts, but not a bool."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


@dataclass
class NormalTrafficSpec:
    """Periodic broadcast schedule for attack-free traffic.

    id_pool entries are (arbitration_id, period_us, jitter_fraction); each id
    emits at offsets k * period + U[0, jitter * period). message_count, the
    required length, is the total number of frames across all ids; every
    frame carries 8 random payload bytes. Ids are ints in 0..STANDARD_ID_MAX,
    periods ints > 0, jitters real numbers in [0, 1) and message_count an int
    >= 0 (bools are refused); anything else is a SynthError.
    """

    id_pool: Sequence[tuple[int, int, float]]
    message_count: int
    seed: int = 0

    def __post_init__(self):
        if not self.id_pool:
            raise EmptyIdPool("id_pool must not be empty")
        for arb_id, period, jitter in self.id_pool:
            if not (_is_int(arb_id) and 0 <= arb_id <= STANDARD_ID_MAX):
                raise SynthError(f"id {arb_id!r:.80} must be an int in 0..{STANDARD_ID_MAX}")
            if not (_is_int(period) and period > 0):
                raise SynthError(f"period {period!r:.80} for id 0x{arb_id:x} "
                                 "must be an int > 0")
            if not (isinstance(jitter, numbers.Real) and not isinstance(jitter, bool)
                    and 0.0 <= jitter < 1.0):
                raise SynthError(f"jitter {jitter!r:.80} for id 0x{arb_id:x} "
                                 "must be a real number in [0, 1)")
        if not (_is_int(self.message_count) and self.message_count >= 0):
            raise SynthError(f"message_count {self.message_count!r:.80} must be an int >= 0")


@dataclass
class AttackSpec:
    """One attack injection: kind, time window, rate, kind-specific inputs.

    intensity is the injected-to-existing frame ratio inside [start, end),
    finite and >= 0; 0 makes the injector a no-op. DoS always floods
    DEFAULT_FLOOD_ID; spoofing always sends DEFAULT_SPOOF_PAYLOAD from
    target_ids. Replay copies the source segment [src_start_us, src_end_us)
    once (intensity is not used) and requires it to end before the
    injection starts and to be no longer than the window, so that every
    replayed frame lands inside [start_us, end_us).
    """

    kind: AttackKind
    start_us: int
    end_us: int
    intensity: float = 1.0
    target_ids: tuple[int, ...] = ()
    src_start_us: int | None = None
    src_end_us: int | None = None

    def __post_init__(self):
        if self.start_us < 0:  # a manifest records only times >= 0
            raise SynthError(f"attack window starts at {self.start_us} < 0")
        if self.start_us >= self.end_us:
            raise SynthError(f"attack window [{self.start_us}, {self.end_us}) is empty")
        if not (math.isfinite(self.intensity) and self.intensity >= 0):
            raise SynthError(f"intensity {self.intensity} must be finite and >= 0")
        if self.kind is AttackKind.REPLAY:
            if self.src_start_us is None or self.src_end_us is None:
                raise SynthError("replay needs src_start_us and src_end_us")
            if self.src_start_us >= self.src_end_us:
                raise EmptySourceSegment("replay source segment is empty")
            if self.src_end_us > self.start_us:
                raise SourceAfterInjection(
                    "replay source segment must end before the injection starts"
                )
            src_len = self.src_end_us - self.src_start_us
            window_len = self.end_us - self.start_us
            if src_len > window_len:
                raise SynthError(f"replay source of {src_len} us is longer than "
                                 f"its window of {window_len} us")


@dataclass
class AttackRecord:
    kind: str
    start_us: int
    end_us: int
    injected: int


def _fields_of(cls, raw, what: str) -> dict:
    names = [f.name for f in fields(cls)]
    if not isinstance(raw, dict) or raw.keys() != set(names):
        raise SynthError(f"{what} must be an object of {', '.join(names)}: {raw!r:.80}")
    return raw


def _check_counts(raw: dict, names: tuple[str, ...], what: str) -> None:
    for name in names:
        if type(raw[name]) is not int or raw[name] < 0:  # bools are refused too
            raise SynthError(f"{what} {name} must be an int >= 0, got {raw[name]!r:.80}")


@dataclass
class StreamManifest:
    """Ground truth for one synthetic stream: seed, counts, attack windows.

    Its JSON form is an object of these fields, in this order, with each
    attack record an object of AttackRecord's fields.
    """

    seed: int
    normal_frames: int
    total_frames: int
    attacks: list[AttackRecord] = field(default_factory=list)

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for rec in self.attacks:
            counts[rec.kind] = counts.get(rec.kind, 0) + rec.injected
        return counts

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "StreamManifest":
        """The manifest to_json wrote; any other text is a SynthError naming
        the problem: not JSON, a missing or unknown field, a count or time
        that is not an int >= 0, an attack kind outside AttackKind, an empty
        attack window, or a total_frames other than normal_frames plus every
        attack's injected frames."""
        try:
            raw = _fields_of(cls, json.loads(text), "manifest")
        except json.JSONDecodeError as err:
            raise SynthError(f"manifest is not JSON: {err}") from None
        if not isinstance(raw["attacks"], list):
            raise SynthError("manifest attacks must be a list")
        attacks = [AttackRecord(**_fields_of(AttackRecord, rec, "manifest attack"))
                   for rec in raw["attacks"]]
        _check_counts(raw, ("seed", "normal_frames", "total_frames"), "manifest")
        kinds = [kind.value for kind in AttackKind]
        for i, rec in enumerate(attacks):
            what = f"manifest attack {i}"
            _check_counts(vars(rec), ("start_us", "end_us", "injected"), what)
            if rec.kind not in kinds:
                raise SynthError(f"{what} kind must be one of {', '.join(kinds)}, "
                                 f"got {rec.kind!r:.80}")
            if rec.start_us >= rec.end_us:
                raise SynthError(f"{what} start_us {rec.start_us} must be < "
                                 f"end_us {rec.end_us}")
        injected = sum(rec.injected for rec in attacks)
        if raw["total_frames"] != raw["normal_frames"] + injected:
            raise SynthError(f"manifest total_frames {raw['total_frames']} must equal "
                             f"normal_frames {raw['normal_frames']} + injected {injected}")
        return cls(**{**raw, "attacks": attacks})

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "StreamManifest":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass
class LabeledStream:
    """Time-ordered frames plus the manifest describing how they were made."""

    frames: list[CanFrame]
    manifest: StreamManifest


def default_id_pool(
    num_ids: int,
    base_period_us: int = 1000,
    jitter: float = 0.05,
) -> list[tuple[int, int, float]]:
    """A plausible ECU schedule: harmonic periods over the distinct 11-bit
    ids 0x100 + 0x10 * i, of which there are 112."""
    limit = (STANDARD_ID_MAX - 0x100) // 0x10 + 1
    if not 1 <= num_ids <= limit:
        raise SynthError(f"id pool size {num_ids} must be in 1..{limit}")
    multipliers = [1, 2, 3, 4, 6, 8, 12, 16]
    pool = []
    for i in range(num_ids):
        mult = multipliers[i % len(multipliers)] * (1 + i // len(multipliers))
        pool.append((0x100 + 0x10 * i, base_period_us * mult, jitter))
    return pool


def generate_normal(spec: NormalTrafficSpec) -> LabeledStream:
    """Deterministic attack-free stream following the spec's schedules."""
    rng = make_rng(spec.seed)
    total_rate = sum(1.0 / p for _, p, _ in spec.id_pool)
    # enough headroom that truncation to message_count always succeeds
    horizon = int(spec.message_count / total_rate * 1.25) + 2 * max(
        p for _, p, _ in spec.id_pool
    )

    ts_parts = []
    id_parts = []
    for arb_id, period, jitter in spec.id_pool:
        n = horizon // period + 1
        base = np.arange(n, dtype=np.int64) * period
        if jitter > 0:
            base = base + (rng.random(n) * jitter * period).astype(np.int64)
        ts_parts.append(base)
        id_parts.append(np.full(n, arb_id, dtype=np.int64))

    ts = np.concatenate(ts_parts)
    ids = np.concatenate(id_parts)
    order = np.argsort(ts, kind="stable")[: spec.message_count]
    ts, ids = ts[order], ids[order]

    payloads = _cut(rng.integers(0, 256, size=(len(ts), 8), dtype=np.uint8), repeat(8))
    frames = list(map(CanFrame, ts.tolist(), ids.tolist(), repeat(8), payloads))
    manifest = StreamManifest(
        seed=spec.seed, normal_frames=len(frames), total_frames=len(frames)
    )
    return LabeledStream(frames=frames, manifest=manifest)


def _cut(rows: np.ndarray, dlcs: Iterable[int]) -> list[bytes]:
    """Row i of a (count, 8) uint8 array, cut to dlcs[i] bytes, for each row."""
    buf = rows.tobytes()
    return [buf[i:i + dlc] for i, dlc in zip(range(0, len(buf), 8), dlcs)]


def _timestamp(frame: CanFrame) -> int:
    return frame.timestamp_us


def _between(frames: list[CanFrame], start_us: int, end_us: int) -> slice:
    """The positions of the frames with start_us <= timestamp < end_us in a
    timestamp-sorted list."""
    return slice(bisect_left(frames, start_us, key=_timestamp),
                 bisect_left(frames, end_us, key=_timestamp))


def _window_frame_count(stream: LabeledStream, spec: AttackSpec) -> int:
    """Frames inside the attack window; validates the window touches the stream."""
    frames = stream.frames
    if not frames or spec.end_us <= frames[0].timestamp_us or spec.start_us > frames[-1].timestamp_us:
        raise WindowOutsideStream(
            f"attack window [{spec.start_us}, {spec.end_us}) does not overlap the stream"
        )
    window = _between(frames, spec.start_us, spec.end_us)
    return window.stop - window.start


def _merged(stream: LabeledStream, injected: list[CanFrame], spec: AttackSpec) -> LabeledStream:
    """Stable merge: existing frames win timestamp ties against injected ones.
    Every injected frame lies in the window, so only the window's frames are
    sorted with them; the frames before and after it keep their places."""
    window = _between(stream.frames, spec.start_us, spec.end_us)
    frames = stream.frames.copy()
    frames[window] = sorted(stream.frames[window] + injected, key=_timestamp)
    record = AttackRecord(spec.kind.value, spec.start_us, spec.end_us, len(injected))
    manifest = replace(stream.manifest, attacks=stream.manifest.attacks + [record],
                       total_frames=stream.manifest.total_frames + len(injected))
    return LabeledStream(frames=frames, manifest=manifest)


def _check_kind(spec: AttackSpec, kind: AttackKind) -> None:
    if spec.kind is not kind:
        raise SynthError(f"spec kind is {spec.kind}, expected {kind.value}")


def _inject_drawn(stream: LabeledStream, spec: AttackSpec, rng, draw: Callable) -> LabeledStream:
    """Merge round(intensity x frames in the window) frames of spec.kind at
    sorted uniform times in the window. rng draws the times, then
    draw(rng, count) returns the frames' ids, dlcs and payloads."""
    count = round(spec.intensity * _window_frame_count(stream, spec))
    rng = make_rng(rng)
    ts = np.sort(rng.integers(spec.start_us, spec.end_us, size=count, dtype=np.int64))
    ids, dlcs, payloads = draw(rng, count)
    injected = list(map(CanFrame, ts.tolist(), ids, dlcs, payloads, repeat(spec.kind)))
    return _merged(stream, injected, spec)


def inject_dos(stream: LabeledStream, spec: AttackSpec, rng=0) -> LabeledStream:
    """Flood the window with the highest-priority id; zero payload, dlc 8."""
    _check_kind(spec, AttackKind.DOS)
    return _inject_drawn(stream, spec, rng, lambda rng, count: (
        [DEFAULT_FLOOD_ID] * count, [8] * count, [bytes(8)] * count))


def _fuzzy_draw(rng, count: int):
    ids = rng.integers(0, STANDARD_ID_SPACE, size=count, dtype=np.int64).tolist()
    dlcs = rng.integers(0, 9, size=count).tolist()
    return ids, dlcs, _cut(rng.integers(0, 256, size=(count, 8), dtype=np.uint8), dlcs)


def inject_fuzzy(stream: LabeledStream, spec: AttackSpec, rng=0) -> LabeledStream:
    """Inject frames with uniform-random 11-bit ids and random payloads."""
    _check_kind(spec, AttackKind.FUZZY)
    return _inject_drawn(stream, spec, rng, _fuzzy_draw)


def inject_spoofing(stream: LabeledStream, spec: AttackSpec, rng=0) -> LabeledStream:
    """Reuse legitimate target ids with the attacker payload DEFAULT_SPOOF_PAYLOAD."""
    _check_kind(spec, AttackKind.SPOOFING)
    if not spec.target_ids:
        raise TargetIdAbsent("spoofing needs a non-empty target_ids list")
    missing = set(spec.target_ids)
    for frame in stream.frames:  # stop at the last target id's first frame
        if frame.arbitration_id in missing:
            missing.discard(frame.arbitration_id)
            if not missing:
                break
    else:
        raise TargetIdAbsent(f"target ids {[hex(t) for t in spec.target_ids if t in missing]}"
                             " do not appear in the stream")
    targets = np.asarray(spec.target_ids, dtype=np.int64)
    return _inject_drawn(stream, spec, rng, lambda rng, count: (
        rng.choice(targets, size=count).tolist(),
        [len(DEFAULT_SPOOF_PAYLOAD)] * count, [DEFAULT_SPOOF_PAYLOAD] * count))


def inject_replay(stream: LabeledStream, spec: AttackSpec, rng=None) -> LabeledStream:
    """Copy the source segment into the attack window, spacing preserved.

    Replayed frames land at start_us + (ts - src_start_us), so inter-frame
    gaps match the source exactly. rng is accepted for signature uniformity
    but unused; replay is a pure copy.
    """
    _check_kind(spec, AttackKind.REPLAY)
    source = stream.frames[_between(stream.frames, spec.src_start_us, spec.src_end_us)]
    if not source:
        raise EmptySourceSegment(
            f"no frames in source segment [{spec.src_start_us}, {spec.src_end_us})"
        )
    shift = spec.start_us - spec.src_start_us
    injected = [CanFrame(f.timestamp_us + shift, f.arbitration_id, f.dlc, f.payload,
                         AttackKind.REPLAY, f.extended) for f in source]
    return _merged(stream, injected, spec)


_INJECTORS = {
    AttackKind.DOS: inject_dos,
    AttackKind.FUZZY: inject_fuzzy,
    AttackKind.SPOOFING: inject_spoofing,
    AttackKind.REPLAY: inject_replay,
}


def inject(stream: LabeledStream, spec: AttackSpec, rng=0) -> LabeledStream:
    """Dispatch to the injector for spec.kind."""
    return _INJECTORS[spec.kind](stream, spec, rng)


def mix_attacks(
    stream: LabeledStream, specs: Sequence[AttackSpec], seed: int = 0
) -> LabeledStream:
    """Apply injectors in spec order with independent per-spec PCG64 streams."""
    children = np.random.SeedSequence(seed).spawn(len(specs))
    out = stream
    for spec, child in zip(specs, children):
        out = inject(out, spec, make_rng(child))
    return out
