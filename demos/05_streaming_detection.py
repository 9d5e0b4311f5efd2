"""Streaming detection: rolling-window verdicts with bounded memory.

The `canids detect` subcommand drives the same Detector over stdin or a
file; here it runs in-process. The Detector keeps one window of frames and
its message graph, updated in O(1) per frame, so memory stays at one window
no matter how long the stream runs.
"""

from canids import (
    AttackKind,
    AttackSpec,
    Detector,
    NormalTrafficSpec,
    TrainConfig,
    default_id_pool,
    generate_normal,
    graphs_from_frames,
    mix_attacks,
    train,
)
from canids.can_log import format_timestamp

WINDOW = 200
STRIDE = 200

# Train a detector on a labeled fuzzing capture.
spec = NormalTrafficSpec(
    id_pool=default_id_pool(10, base_period_us=1000), message_count=60_000, seed=5
)
stream = generate_normal(spec)
t = stream.frames[-1].timestamp_us + 1
stream = mix_attacks(
    stream,
    [AttackSpec(AttackKind.FUZZY, int(0.3 * t), int(0.7 * t), intensity=0.5)],
    seed=9,
)
params, _ = train(graphs_from_frames(stream.frames), TrainConfig(seed=0))

# Now watch a "live" stream: one verdict every STRIDE frames once the first
# WINDOW frames have arrived.
detector = Detector(params, window_size=WINDOW, stride=STRIDE)
verdicts = []
for frame in stream.frames:
    verdict = detector.push(frame)
    if verdict is not None:
        verdicts.append(verdict)

print(f"{detector.frames_seen} frames -> {len(verdicts)} verdicts "
      f"(the detector never holds more than {WINDOW} frames)")
print("\nindex  first_ts    last_ts     verdict      p(attacked)  injected")
for v in verdicts[:: len(verdicts) // 12]:
    kind = "attacked" if v.label else "attack_free"
    print(f"{v.window_index:5d}  {format_timestamp(v.first_timestamp_us):>10s}  "
          f"{format_timestamp(v.last_timestamp_us):>10s}  {kind:11s}  "
          f"{v.probability:.4f}       {'yes' if v.injected else 'no'}")

flagged = sum(1 for v in verdicts if v.label)
hits = sum(1 for v in verdicts if v.label and v.injected)
injected = sum(1 for v in verdicts if v.injected)
print(f"\nflagged {flagged}/{len(verdicts)} windows; {hits} of the {injected} "
      f"windows holding injected frames; attack ran from "
      f"{0.3 * t / 1e6:.1f}s to {0.7 * t / 1e6:.1f}s")
print("\nequivalent CLI: canids detect --model model.bin --log - < live.log")
