import json
from collections import Counter

import numpy as np
import pytest

import helpers
from canids import traffic_synth
from canids.can_log import STANDARD_ID_MAX, AttackKind, CanFrame, serialize_frame
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


@pytest.mark.parametrize("pool, count, problem", [
    ([(1, 100, 0.0)], 10.5, "message_count 10.5 must be an int >= 0"),
    ([(1, 100, 0.0)], "5", "message_count '5' must be an int >= 0"),
    ([(1, 100, 0.0)], True, "message_count True must be an int >= 0"),
    ([(1, 100, 0.0)], None, "message_count None must be an int >= 0"),
    ([(1, 1000.5, 0.0)], 10, "period 1000.5 for id 0x1 must be an int > 0"),
    ([(1, True, 0.0)], 10, "period True for id 0x1 must be an int > 0"),
    ([(1, "100", 0.0)], 10, "period '100' for id 0x1 must be an int > 0"),
    ([(1, -100, 0.0)], 10, "period -100 for id 0x1 must be an int > 0"),
    ([(-1, 100, 0.0)], 10, f"id -1 must be an int in 0..{STANDARD_ID_MAX}"),
    ([(0x800, 100, 0.0)], 10, f"id 2048 must be an int in 0..{STANDARD_ID_MAX}"),
    ([(1.0, 100, 0.0)], 10, f"id 1.0 must be an int in 0..{STANDARD_ID_MAX}"),
    ([(False, 100, 0.0)], 10, f"id False must be an int in 0..{STANDARD_ID_MAX}"),
    ([(1, 100, "0.05")], 10, "jitter '0.05' for id 0x1 must be a real number in [0, 1)"),
    ([(1, 100, None)], 10, "jitter None for id 0x1 must be a real number in [0, 1)"),
    ([(1, 100, False)], 10, "jitter False for id 0x1 must be a real number in [0, 1)"),
    ([(1, 100, float("nan"))], 10, "jitter nan for id 0x1 must be a real number in [0, 1)"),
    ([(1, 100, 0.0), (2, 100, 1.0)], 10,
     "jitter 1.0 for id 0x2 must be a real number in [0, 1)"),
], ids=["count-float", "count-str", "count-bool", "count-none", "period-float",
        "period-bool", "period-str", "period-negative", "id-negative", "id-extended",
        "id-float", "id-bool", "jitter-str", "jitter-none", "jitter-bool", "jitter-nan",
        "jitter-one"])
def test_normal_spec_refuses_what_is_not_its_number(pool, count, problem):
    with pytest.raises(SynthError) as err:
        NormalTrafficSpec(id_pool=pool, message_count=count)
    assert str(err.value) == problem


def test_normal_spec_takes_numpy_ints():
    spec = NormalTrafficSpec(id_pool=[(np.int64(0x10), np.int32(1000), np.float64(0.0))],
                             message_count=np.int64(3), seed=0)
    assert [f.timestamp_us for f in generate_normal(spec).frames] == [0, 1000, 2000]


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


def test_a_replay_source_longer_than_its_window_is_refused():
    """A 3-tenths source replayed into a 1-tenth window used to put two
    thirds of its frames after the end_us that the manifest records."""
    stream = generate_normal(NormalTrafficSpec(default_id_pool(8), 5000, seed=1))
    t = stream.frames[-1].timestamp_us + 1
    start, end, src_start, src_end = int(.5 * t), int(.6 * t), int(.1 * t), int(.4 * t)
    with pytest.raises(SynthError) as err:
        AttackSpec(AttackKind.REPLAY, start, end, src_start_us=src_start, src_end_us=src_end)
    assert str(err.value) == (f"replay source of {src_end - src_start} us is longer than "
                              f"its window of {end - start} us")
    spec = AttackSpec(AttackKind.REPLAY, start, end,
                      src_start_us=src_end - (end - start), src_end_us=src_end)
    replayed = [f for f in inject_replay(stream, spec).frames if f.label is AttackKind.REPLAY]
    assert replayed and all(start <= f.timestamp_us < end for f in replayed)


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


@pytest.fixture
def merge_calls(monkeypatch):
    """Every windowed merge the injectors make, as (merge, its full-sort
    oracle), the oracle taken before the merge runs."""
    calls = []
    merged = traffic_synth._merged

    def spy(stream, injected, spec):
        expected = helpers.merged_by_full_sort(stream, injected, spec)
        out = merged(stream, injected, spec)
        calls.append((out, expected))
        return out

    monkeypatch.setattr(traffic_synth, "_merged", spy)
    return calls


def assert_merges_match_full_sort(calls):
    assert calls
    for out, expected in calls:
        assert len(out.frames) == len(expected.frames)
        assert all(a is b for a, b in zip(out.frames, expected.frames))
        assert out.manifest == expected.manifest


def merge_case(pick) -> tuple[LabeledStream, list[AttackSpec]]:
    """A short stream with repeated timestamps and one to four attacks of any
    kinds over it; pick(lo, hi) chooses each int in [lo, hi]. Windows may
    start at or before the first frame and end after the last, intensities
    include 0, and a replay's source may cover an earlier injection."""
    n, span = pick(1, 40), pick(0, 30)
    ts = sorted(pick(0, span) for _ in range(n))
    frames = [CanFrame(t, 0x100 + pick(0, 3), 0, b"") for t in ts]
    stream = LabeledStream(frames, StreamManifest(seed=0, normal_frames=n, total_frames=n))
    specs = []
    for _ in range(pick(1, 4)):
        kind = list(AttackKind)[pick(0, 3)]
        start = pick(0, ts[-1])
        end = pick(max(start, ts[0]) + 1, ts[-1] + 2)
        if kind is not AttackKind.REPLAY:
            specs.append(AttackSpec(kind, start, end, intensity=pick(0, 4) / 2,
                                    target_ids=(frames[pick(0, n - 1)].arbitration_id,)))
            continue
        earlier = [t for t in ts if t < start]
        if earlier:  # a source segment holding at least the frame at u
            u = earlier[pick(0, len(earlier) - 1)]
            src_end = pick(u + 1, min(start, u + end - start))
            specs.append(AttackSpec(kind, start, end, src_end_us=src_end,
                                    src_start_us=pick(max(0, src_end - (end - start)), u)))
    return stream, specs


def test_windowed_merge_matches_full_sort(merge_calls):
    for seed in range(300):
        rng = np.random.default_rng(seed)
        stream, specs = merge_case(lambda lo, hi: int(rng.integers(lo, hi + 1)))
        mix_attacks(stream, specs, seed=seed)
    assert_merges_match_full_sort(merge_calls)


def test_windowed_merge_matches_full_sort_hypothesis(merge_calls):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(st.data(), st.integers(0, 2**32 - 1))
    def check(data, seed):
        merge_calls.clear()
        stream, specs = merge_case(lambda lo, hi: data.draw(st.integers(lo, hi)))
        mix_attacks(stream, specs, seed=seed)
        if specs:
            assert_merges_match_full_sort(merge_calls)

    check()


@pytest.mark.parametrize("start, end", [(3, 8), (0, 8), (3, 10), (0, 10)])
def test_windowed_merge_keeps_existing_frames_first_at_both_window_edges(start, end):
    """Injected frames at start_us and end_us - 1 go after the frames
    already at those times and before the frame at end_us."""
    stream_ts = (0, 0, 3, 3, 5, 7, 7, 8, 9, 9)
    frames = [CanFrame(t, 0x100, 0, b"") for t in stream_ts]
    stream = LabeledStream(list(frames), StreamManifest(seed=0, normal_frames=10,
                                                        total_frames=10))
    spec = AttackSpec(AttackKind.DOS, start, end)
    injected = [CanFrame(t, 0, 0, b"", AttackKind.DOS) for t in (start, end - 1, start, 5)]
    out = traffic_synth._merged(stream, injected, spec)
    expected = helpers.merged_by_full_sort(stream, injected, spec)
    assert all(a is b for a, b in zip(out.frames, expected.frames, strict=True))
    assert out.manifest == expected.manifest
    for t in (start, end - 1):
        labels = [f.label for f in out.frames if f.timestamp_us == t]
        assert labels == sorted(labels, key=lambda label: label is not None)
    assert all(a is b for a, b in zip(stream.frames, frames, strict=True))  # input kept


def test_a_replay_of_an_earlier_injection_merges_like_a_full_sort(merge_calls):
    stream = small_stream(count=3000)
    t = stream.frames[-1].timestamp_us + 1
    dos_start, dos_end, start = int(.1 * t), int(.2 * t), int(.6 * t)
    out = mix_attacks(stream, [
        AttackSpec(AttackKind.DOS, dos_start, dos_end, intensity=1.0),
        AttackSpec(AttackKind.REPLAY, start, start + dos_end - dos_start,
                   src_start_us=dos_start, src_end_us=dos_end),
    ], seed=5)
    assert len(merge_calls) == 2
    assert_merges_match_full_sort(merge_calls)
    assert any(f.label is AttackKind.REPLAY and f.arbitration_id == 0 for f in out.frames)


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
