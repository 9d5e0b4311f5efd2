"""From a frame stream to convolution-ready message graphs.

Every 200-message window becomes a directed multigraph: nodes are the
distinct arbitration ids, and each consecutive frame pair contributes one
edge. Node features are the in/out degrees, each column divided by its max
within the window; the adjacency is symmetrized, self-looped, and
degree-normalized before entering the network.
"""

import numpy as np

from canids import (
    ATTACKED,
    AttackKind,
    AttackSpec,
    NormalTrafficSpec,
    batch_graphs,
    conv_adjacency,
    default_id_pool,
    generate_normal,
    graphs_from_frames,
    inject_dos,
    node_features,
)

spec = NormalTrafficSpec(
    id_pool=default_id_pool(8, base_period_us=1000), message_count=5000, seed=3
)
stream = generate_normal(spec)
t = stream.frames[-1].timestamp_us + 1
stream = inject_dos(
    stream, AttackSpec(AttackKind.DOS, int(0.4 * t), int(0.8 * t), intensity=1.0),
    rng=3,
)

# One pass over the frames cuts non-overlapping 200-frame windows (the stride
# is configurable) and renders each as a message graph.
graphs = graphs_from_frames(stream.frames, window_size=200)
print(f"{len(stream.frames)} frames -> {len(graphs)} windows")

graph = graphs[0]
print(f"\nwindow 0: {graph.num_nodes} nodes, {len(graph.edges)} distinct edges, "
      f"label={'attacked' if graph.label == ATTACKED else 'attack-free'}")

# The degree conservation law: every window of W frames has W-1 transitions.
assert sum(graph.edges.values()) == graph.window_size - 1
assert graph.in_degree.sum() == graph.out_degree.sum() == graph.window_size - 1

feats = node_features(graph)
print("first nodes' (in, out) degrees -> features:")
for k in range(4):
    print(f"  0x{graph.node_ids[k]:03x}: ({graph.in_degree[k]}, "
          f"{graph.out_degree[k]}) -> {feats[k]}")

# The one adjacency form: edges symmetrized and binarized, self-loops added,
# then D^-1/2 . D^-1/2 degree-normalized.
adjacency = conv_adjacency(graph)
print(f"\nnormalized adjacency is symmetric: "
      f"{np.allclose(adjacency, adjacency.T)}; shape {adjacency.shape}")

# A DoS window looks structurally different: one flood hub dominates.
flooded = next(g for g in graphs if g.label == ATTACKED)
hub = int(np.argmax(flooded.in_degree))
print(f"\nflooded window {flooded.window_index}: hub id "
      f"0x{flooded.node_ids[hub]:03x} has degree {flooded.in_degree[hub]} "
      f"of {flooded.window_size - 1}")

# Batching zero-pads every graph to the largest node count in the batch and
# stacks them, so one batched pass runs many isolated graphs. The flooded
# window has one node more (the DoS id), so the clean window gets padded.
batch = batch_graphs([graphs[0], flooded])
n0 = int(batch.num_nodes[0])
print(f"\nbatch of 2: adjacency {batch.adjacency.shape}, "
      f"node counts {batch.num_nodes.tolist()}")
print(f"graph 0 padding is zero: {not batch.adjacency[0, n0:].any()} "
      f"(rows), {not batch.adjacency[0, :, n0:].any()} (columns), "
      f"{not batch.features[0, n0:].any()} (features)")
print(f"labels: {batch.labels.tolist()}")
