import json
from collections import Counter

import numpy as np
import pytest

from canids.can_log import AttackKind, CanFrame, serialize_frame
from canids.traffic_synth import (
    AttackSpec,
    EmptyIdPool,
    EmptySourceSegment,
    LabeledStream,
    NormalTrafficSpec,
    SourceAfterInjection,
    StreamManifest,
    SynthError,
    TargetIdAbsent,
    WindowOutsideStream,
    default_id_pool,
    generate_normal,
    inject_dos,
    inject_fuzzy,
    inject_replay,
    inject_spoofing,
    mix_attacks,
)


def small_stream(count=2000, seed=3):
    spec = NormalTrafficSpec(
        id_pool=default_id_pool(6, base_period_us=500), message_count=count, seed=seed
    )
    return generate_normal(spec)


def test_zero_jitter_schedule():
    spec = NormalTrafficSpec(id_pool=[(0x10, 1000, 0.0)], message_count=5, seed=0)
    stream = generate_normal(spec)
    assert [f.timestamp_us for f in stream.frames] == [0, 1000, 2000, 3000, 4000]
    assert all(f.arbitration_id == 0x10 for f in stream.frames)
    assert all(f.label is None for f in stream.frames)


def test_determinism():
    spec = NormalTrafficSpec(
        id_pool=default_id_pool(8), message_count=5000, seed=99
    )
    a = generate_normal(spec)
    b = generate_normal(spec)
    assert [serialize_frame(f) for f in a.frames] == [serialize_frame(f) for f in b.frames]


def test_per_id_counts_proportional_to_rate():
    pool = [(0x100 + i, 1000 * (i + 1), 0.0) for i in range(10)]
    spec = NormalTrafficSpec(id_pool=pool, message_count=10_000, seed=1)
    stream = generate_normal(spec)
    assert len(stream.frames) == 10_000
    counts = Counter(f.arbitration_id for f in stream.frames)
    total_rate = sum(1.0 / p for _, p, _ in pool)
    for arb_id, period, _ in pool:
        expected = 10_000 * (1.0 / period) / total_rate
        assert abs(counts[arb_id] - expected) <= 0.02 * expected + 1


def test_spec_validation():
    with pytest.raises(EmptyIdPool):
        NormalTrafficSpec(id_pool=[], message_count=10)
    with pytest.raises(SynthError):
        NormalTrafficSpec(id_pool=[(1, 0, 0.0)], message_count=10)
    with pytest.raises(SynthError):
        NormalTrafficSpec(id_pool=[(1, 100, 1.0)], message_count=10)
    with pytest.raises(SynthError):
        NormalTrafficSpec(id_pool=[(1, 100, 0.0)], message_count=-1)


def window_spec(stream, kind, lo=0.2, hi=0.8, **kw):
    t = stream.frames[-1].timestamp_us + 1
    return AttackSpec(kind, int(lo * t), int(hi * t), **kw)


def test_dos_zero_intensity_identity():
    stream = small_stream()
    spec = window_spec(stream, AttackKind.DOS, intensity=0.0)
    out = inject_dos(stream, spec, rng=0)
    assert out.frames == stream.frames
    assert out.manifest.attacks[-1].injected == 0


@pytest.mark.parametrize("intensity", [-1.0, float("nan"), float("inf")])
def test_intensity_must_be_finite_and_non_negative(intensity):
    with pytest.raises(SynthError, match="must be finite and >= 0"):
        AttackSpec(AttackKind.FUZZY, 0, 10, intensity=intensity)


def test_dos_count_and_shape():
    stream = small_stream()
    spec = window_spec(stream, AttackKind.DOS, intensity=1.0)
    in_window = [f for f in stream.frames
                 if spec.start_us <= f.timestamp_us < spec.end_us]
    out = inject_dos(stream, spec, rng=7)
    injected = [f for f in out.frames if f.label is AttackKind.DOS]
    assert len(injected) == round(len(in_window) * 1.0)
    assert all(f.arbitration_id == 0x000 for f in injected)
    assert all(f.dlc == 8 and f.payload == bytes(8) for f in injected)
    assert all(spec.start_us <= f.timestamp_us < spec.end_us for f in injected)


def test_dos_conservation():
    stream = small_stream()
    spec = window_spec(stream, AttackKind.DOS, intensity=0.5)
    out = inject_dos(stream, spec, rng=1)
    injected = sum(1 for f in out.frames if f.label is not None)
    assert len(out.frames) == len(stream.frames) + injected
    assert out.manifest.total_frames == len(out.frames)


def test_window_outside_stream():
    stream = small_stream()
    t_end = stream.frames[-1].timestamp_us
    spec = AttackSpec(AttackKind.DOS, t_end + 10_000, t_end + 20_000, intensity=1.0)
    with pytest.raises(WindowOutsideStream):
        inject_dos(stream, spec, rng=0)


def test_fuzzy_distinct_ids():
    stream = small_stream(count=4000)
    spec = window_spec(stream, AttackKind.FUZZY, lo=0.05, hi=0.95, intensity=0.5)
    out = inject_fuzzy(stream, spec, rng=5)
    injected = [f for f in out.frames if f.label is AttackKind.FUZZY]
    assert len(injected) > 1000
    distinct = {f.arbitration_id for f in injected[:1000]}
    assert len(distinct) > 300
    assert all(f.arbitration_id <= 0x7FF for f in injected)
    assert all(f.dlc == len(f.payload) for f in injected)


def test_fuzzy_zero_intensity_identity():
    stream = small_stream()
    spec = window_spec(stream, AttackKind.FUZZY, intensity=0.0)
    assert inject_fuzzy(stream, spec, rng=0).frames == stream.frames


def test_spoofing_uses_target_ids():
    stream = small_stream()
    present = {f.arbitration_id for f in stream.frames}
    target = sorted(present)[0]
    spec = window_spec(stream, AttackKind.SPOOFING, intensity=0.5,
                       target_ids=(target,))
    out = inject_spoofing(stream, spec, rng=2)
    injected = [f for f in out.frames if f.label is AttackKind.SPOOFING]
    assert injected
    assert all(f.arbitration_id == target for f in injected)
    assert all(f.payload == b"\xff" * 8 for f in injected)


def test_spoofing_missing_target():
    stream = small_stream()
    spec = window_spec(stream, AttackKind.SPOOFING, intensity=1.0,
                       target_ids=(0x7FE,))
    with pytest.raises(TargetIdAbsent):
        inject_spoofing(stream, spec, rng=0)
    spec_empty = window_spec(stream, AttackKind.SPOOFING, intensity=1.0)
    with pytest.raises(TargetIdAbsent):
        inject_spoofing(stream, spec_empty, rng=0)


def test_replay_validation():
    stream = small_stream()
    t = stream.frames[-1].timestamp_us + 1
    with pytest.raises(EmptySourceSegment):
        AttackSpec(AttackKind.REPLAY, int(0.5 * t), int(0.8 * t),
                   src_start_us=1000, src_end_us=1000)
    with pytest.raises(SourceAfterInjection):
        AttackSpec(AttackKind.REPLAY, int(0.2 * t), int(0.8 * t),
                   src_start_us=int(0.3 * t), src_end_us=int(0.6 * t))
    # a source window lying in a gap between frames
    gap_at = next(
        f.timestamp_us for f, g in zip(stream.frames, stream.frames[1:])
        if g.timestamp_us - f.timestamp_us >= 3
    )
    empty_src = AttackSpec(AttackKind.REPLAY, int(0.5 * t), int(0.8 * t),
                           src_start_us=gap_at + 1, src_end_us=gap_at + 2)
    with pytest.raises(EmptySourceSegment):
        inject_replay(stream, empty_src)


def test_replay_copies_multiset_and_gaps():
    stream = small_stream(count=3000)
    t = stream.frames[-1].timestamp_us + 1
    spec = AttackSpec(AttackKind.REPLAY, int(0.6 * t), int(0.9 * t),
                      src_start_us=int(0.1 * t), src_end_us=int(0.4 * t))
    source = [f for f in stream.frames
              if spec.src_start_us <= f.timestamp_us < spec.src_end_us]
    out = inject_replay(stream, spec)
    injected = [f for f in out.frames if f.label is AttackKind.REPLAY]
    assert Counter((f.arbitration_id, f.payload) for f in injected) == \
        Counter((f.arbitration_id, f.payload) for f in source)
    src_ts = np.array([f.timestamp_us for f in source])
    rep_ts = np.sort(np.array([f.timestamp_us for f in injected]))
    np.testing.assert_array_equal(np.diff(rep_ts), np.diff(src_ts))
    assert rep_ts[0] == spec.start_us + (src_ts[0] - spec.src_start_us)


def test_output_sorted_with_normal_first_tie_break():
    frames = [CanFrame(5, 0x100, 0, b"")]
    stream = LabeledStream(frames, StreamManifest(seed=0, normal_frames=1, total_frames=1))
    spec = AttackSpec(AttackKind.DOS, 5, 6, intensity=3.0)
    out = inject_dos(stream, spec, rng=0)
    assert [f.timestamp_us for f in out.frames] == [5, 5, 5, 5]
    assert out.frames[0].label is None
    assert all(f.label is AttackKind.DOS for f in out.frames[1:])


def test_stream_sorted_after_injection():
    stream = small_stream()
    spec = window_spec(stream, AttackKind.DOS, intensity=1.0)
    out = inject_dos(stream, spec, rng=3)
    ts = [f.timestamp_us for f in out.frames]
    assert ts == sorted(ts)


def test_mix_attacks_empty_identity():
    stream = small_stream()
    out = mix_attacks(stream, [], seed=0)
    assert out.frames == stream.frames
    assert out.manifest.attacks == []


def test_mix_attacks_all_kinds():
    stream = small_stream(count=6000)
    t = stream.frames[-1].timestamp_us + 1
    present = sorted({f.arbitration_id for f in stream.frames})
    specs = [
        AttackSpec(AttackKind.DOS, int(.1 * t), int(.2 * t), intensity=1.0),
        AttackSpec(AttackKind.FUZZY, int(.3 * t), int(.4 * t), intensity=1.0),
        AttackSpec(AttackKind.SPOOFING, int(.5 * t), int(.6 * t), intensity=1.0,
                   target_ids=(present[0],)),
        AttackSpec(AttackKind.REPLAY, int(.8 * t), int(.9 * t),
                   src_start_us=int(.1 * t), src_end_us=int(.2 * t)),
    ]
    out = mix_attacks(stream, specs, seed=11)
    counts = out.manifest.counts_by_kind()
    assert set(counts) == {"dos", "fuzzy", "spoofing", "replay"}
    assert all(v > 0 for v in counts.values())
    # conservation: total equals normal plus all injected
    injected_total = sum(rec.injected for rec in out.manifest.attacks)
    assert len(out.frames) == len(stream.frames) + injected_total
    assert out.manifest.total_frames == len(out.frames)
    # label soundness: injected iff an injector created it
    by_label = Counter(f.label for f in out.frames)
    assert by_label[None] == len(stream.frames)
    for kind in AttackKind:
        assert by_label[kind] == counts[kind.value]


def test_mix_attacks_deterministic():
    stream = small_stream(count=4000)
    t = stream.frames[-1].timestamp_us + 1
    specs = [AttackSpec(AttackKind.FUZZY, int(.2 * t), int(.7 * t), intensity=0.5)]
    a = mix_attacks(stream, specs, seed=21)
    b = mix_attacks(stream, specs, seed=21)
    assert a.frames == b.frames
    c = mix_attacks(stream, specs, seed=22)
    assert c.frames != a.frames


def test_manifest_json_round_trip(tmp_path):
    stream = small_stream(count=2000)
    spec = window_spec(stream, AttackKind.DOS, intensity=1.0)
    out = inject_dos(stream, spec, rng=1)
    path = tmp_path / "manifest.json"
    out.manifest.save(path)
    loaded = StreamManifest.load(path)
    assert loaded == out.manifest


def _manifest_text(attack=None, **counts) -> str:
    """A valid manifest's JSON with one dos attack of 2 frames, with the given
    fields replaced."""
    raw = {"seed": 1, "normal_frames": 2, "total_frames": 4,
           "attacks": [{"kind": "dos", "start_us": 5, "end_us": 9, "injected": 2,
                        **(attack or {})}]}
    return json.dumps({**raw, **counts})


_MANIFEST_FIELDS = "seed, normal_frames, total_frames, attacks"
_ATTACK_FIELDS = "kind, start_us, end_us, injected"
_COUNTS = '"seed": 1, "normal_frames": 2, "total_frames": 3'


@pytest.mark.parametrize("text,problem", [
    ("{}", f"manifest must be an object of {_MANIFEST_FIELDS}: {{}}"),
    ("[]", f"manifest must be an object of {_MANIFEST_FIELDS}: []"),
    ("not json", "manifest is not JSON: Expecting value: line 1 column 1 (char 0)"),
    (f'{{{_COUNTS}, "attacks": [], "extra": 0}}',
     f"manifest must be an object of {_MANIFEST_FIELDS}: {{'seed': 1, "
     "'normal_frames': 2, 'total_frames': 3, 'attacks': [], 'extra': 0}"),
    (f'{{{_COUNTS}, "attacks": 5}}', "manifest attacks must be a list"),
    (f'{{{_COUNTS}, "attacks": [{{"kind": "dos"}}]}}',
     f"manifest attack must be an object of {_ATTACK_FIELDS}: {{'kind': 'dos'}}"),
    (f'{{{_COUNTS}, "attacks": [{{"kind": "dos", "start_us": 0, "end_us": 1, '
     '"injected": 1, "extra": 0}]}',
     f"manifest attack must be an object of {_ATTACK_FIELDS}: {{'kind': 'dos', "
     "'start_us': 0, 'end_us': 1, 'injected': 1, 'extra': 0}"),
    (f'{{{_COUNTS}, "attacks": [[]]}}',
     f"manifest attack must be an object of {_ATTACK_FIELDS}: []"),
    ('{"seed": "x", "normal_frames": -5, "total_frames": true, "attacks": [{"kind": '
     '"nope", "start_us": "a", "end_us": null, "injected": 1.5}]}',
     "manifest seed must be an int >= 0, got 'x'"),
    (_manifest_text(seed=True), "manifest seed must be an int >= 0, got True"),
    (_manifest_text(normal_frames=-1),
     "manifest normal_frames must be an int >= 0, got -1"),
    (_manifest_text(total_frames=4.0),
     "manifest total_frames must be an int >= 0, got 4.0"),
    (_manifest_text({"start_us": None}),
     "manifest attack 0 start_us must be an int >= 0, got None"),
    (_manifest_text({"end_us": "9"}),
     "manifest attack 0 end_us must be an int >= 0, got '9'"),
    (_manifest_text({"injected": False}),
     "manifest attack 0 injected must be an int >= 0, got False"),
    (_manifest_text({"kind": "nope"}),
     "manifest attack 0 kind must be one of dos, fuzzy, spoofing, replay, got 'nope'"),
    (_manifest_text({"kind": "DoS"}),
     "manifest attack 0 kind must be one of dos, fuzzy, spoofing, replay, got 'DoS'"),
    (_manifest_text({"start_us": 9}), "manifest attack 0 start_us 9 must be < end_us 9"),
    (_manifest_text({"start_us": 10}),
     "manifest attack 0 start_us 10 must be < end_us 9"),
    (_manifest_text(total_frames=5),
     "manifest total_frames 5 must equal normal_frames 2 + injected 2"),
], ids=["empty-object", "list", "not-json", "unknown-key", "attacks-not-a-list",
        "attack-missing-fields", "attack-unknown-key", "attack-not-an-object",
        "bad-values", "bool-seed", "negative-count", "float-count", "null-time",
        "string-time", "bool-injected", "unknown-kind", "kind-case", "empty-window",
        "reversed-window", "total-mismatch"])
def test_a_malformed_manifest_is_a_synth_error(tmp_path, text, problem):
    """from_json and load take only the form to_json writes; anything else,
    a count or time that is not an int >= 0, an unknown attack kind, an empty
    attack window or a total other than the normal plus the injected frames
    included, is a SynthError that names the problem, not a KeyError or
    TypeError."""
    with pytest.raises(SynthError) as err:
        StreamManifest.from_json(text)
    assert str(err.value) == problem
    path = tmp_path / "manifest.json"
    path.write_text(text)
    with pytest.raises(SynthError) as err:
        StreamManifest.load(path)
    assert str(err.value) == problem


def test_attack_spec_validation():
    with pytest.raises(SynthError):
        AttackSpec(AttackKind.DOS, 100, 100)
    with pytest.raises(SynthError):
        AttackSpec(AttackKind.DOS, 0, 100, intensity=-1.0)
    with pytest.raises(SynthError, match=r"^attack window starts at -1 < 0$"):
        AttackSpec(AttackKind.DOS, -1, 100)  # its manifest would not load
    with pytest.raises(SynthError):
        inject_dos(small_stream(), AttackSpec(AttackKind.FUZZY, 0, 100), rng=0)
