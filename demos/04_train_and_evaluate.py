"""Training the window classifier and reading a scenario report.

The model is a two-layer graph convolution (2 -> 8 -> 8), a mean readout
over nodes, and a 2-way linear head, trained with hand-derived backprop and
Adam. At ~100 parameters, a desk-scale dataset trains in seconds.
"""

from canids import (
    PAPER_TARGETS,
    AttackKind,
    AttackSpec,
    NormalTrafficSpec,
    TrainConfig,
    default_id_pool,
    generate_normal,
    graphs_from_frames,
    mix_attacks,
    predict_many,
    scenario_report,
    train,
)
from canids.cli import stratified_split

# Build a labeled DoS dataset: 100k frames, flood over the middle half.
spec = NormalTrafficSpec(
    id_pool=default_id_pool(12, base_period_us=1000, jitter=0.02),
    message_count=100_000,
    seed=11,
)
stream = generate_normal(spec)
t = stream.frames[-1].timestamp_us + 1
stream = mix_attacks(
    stream,
    [AttackSpec(AttackKind.DOS, int(0.25 * t), int(0.75 * t), intensity=1.0)],
    seed=23,
)
graphs = graphs_from_frames(stream.frames)
attacked = sum(g.label for g in graphs)
print(f"{len(graphs)} windows, {attacked} attacked")

# 80/20 stratified split, then train with the default configuration.
train_graphs, test_graphs = stratified_split(graphs, 0.8, seed=7)
config = TrainConfig(seed=0)
params, history = train(train_graphs, config, val_graphs=test_graphs)
for record in history[:: max(1, len(history) // 5)]:
    print(f"  epoch {record.epoch:3d}: loss {record.train_loss:.4f} "
          f"acc {record.train_accuracy:.3f} val_acc {record.val_accuracy:.3f}")

# Evaluate on the held-out windows and compare with the published numbers.
predictions, probabilities = predict_many(test_graphs, params)
labels = [g.label for g in test_graphs]
report = scenario_report("DoS", predictions.tolist(), labels, PAPER_TARGETS["DoS"])
print()
print(report.format_table())

# predict_many gives each window's label and attacked probability.
label, prob = predictions[0], probabilities[0]
print(f"\nfirst held-out window: predicted "
      f"{'attacked' if label else 'attack-free'} (p={prob:.4f}), "
      f"truth {'attacked' if test_graphs[0].label else 'attack-free'}")
