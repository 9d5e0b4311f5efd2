"""Streaming detection: rolling-window verdicts with bounded memory.

The `canids detect` subcommand runs the same `verdicts` generator over stdin
or a file; here it runs in-process. It holds at most one window of frames, so
memory stays at one window no matter how long the stream runs: at this stride,
where windows share no frame, it collects each window's ids and builds its
message graph at once; at overlapping strides it updates one graph in O(1)
per frame. Training graphs come from the same window loop.
"""

from canids import (
    AttackKind,
    AttackSpec,
    NormalTrafficSpec,
    TrainConfig,
    default_id_pool,
    generate_normal,
    graphs_from_frames,
    mix_attacks,
    train,
    verdicts,
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
scored = list(verdicts(stream.frames, params, window_size=WINDOW, stride=STRIDE))

print(f"{len(stream.frames)} frames -> {len(scored)} verdicts "
      f"(the detector never holds more than {WINDOW} frames)")
print("\nindex  first_ts    last_ts     verdict      p(attacked)  injected")
for v in scored[:: len(scored) // 12]:
    kind = "attacked" if v.label else "attack_free"
    print(f"{v.window_index:5d}  {format_timestamp(v.first_timestamp_us):>10s}  "
          f"{format_timestamp(v.last_timestamp_us):>10s}  {kind:11s}  "
          f"{v.probability:.4f}       {'yes' if v.injected else 'no'}")

flagged = sum(1 for v in scored if v.label)
hits = sum(1 for v in scored if v.label and v.injected)
injected = sum(1 for v in scored if v.injected)
print(f"\nflagged {flagged}/{len(scored)} windows; {hits} of the {injected} "
      f"windows holding injected frames; attack ran from "
      f"{0.3 * t / 1e6:.1f}s to {0.7 * t / 1e6:.1f}s")
print("\nequivalent CLI: canids detect --model model.bin --log - < live.log")
