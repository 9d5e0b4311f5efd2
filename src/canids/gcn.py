"""Two-layer graph convolution classifier with hand-derived backprop.

Training runs the forward pass on stacks of normalized adjacencies A and
node features X, each graph zero-padded to its stack's largest node count
(graph_builder's GraphBatch). A training step's graphs form one stack, or
two when their node counts are far apart (size_groups): a stack costs
b * n^2 adjacency entries for b graphs padded to n nodes, and attacked
windows can have five times the nodes of clean ones, so padding them all to
one n wastes most of the step. The step's gradient is the b / B-weighted sum
of the stacks' mean gradients, equal to one padded batch's up to rounding.
Inference (predict, predict_many, validation) runs the forward pass on one
graph at a time through probability, as detect does per window:

    H1 = act(A @ X @ W1)           2 -> 8
    H2 = act(A @ H1 @ W2)          8 -> 8
    G  = per-graph mean of H2 rows (readout)
    G' = G * dropout_mask          training only, inverted dropout
    logits = G' @ Wc + bc          8 -> 2
    probs  = softmax(logits)

act is leaky ReLU (slope 0.01). In/out degree features are non-negative and
strongly correlated (a message window is one long walk, so every node's in
and out degree differ by at most 1), which makes plain-ReLU units with
bias-free layers live or die wholesale on the sign of one weight sum; the
leaky slope keeps dead units trainable.

Padded rows of A and X are zero and the conv layers have no bias, so padded
rows of H1 and H2 stay exactly zero: the readout is the row sum divided by
the graph's true node count, and padding adds nothing to any gradient.

Class 1 is "attacked"; the loss is mean binary cross-entropy on the class-1
probability, which for a 2-way softmax gives the usual (probs - onehot) / B
gradient at the logits. Gradients for every weight are computed analytically
and verified against central finite differences in the test suite.

Training is fully deterministic for a given (dataset, config): parameter
init, epoch shuffling, and dropout each draw from an independent PCG64 stream
spawned from the config seed.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import kernel
from .graph_builder import GraphBatch, MessageGraph, assemble_batch, prepare_graph
from .kernel import FiniteViolation, Matrix, ShapeMismatch, make_rng

IN_FEATURES = 2
HIDDEN = 8
NUM_CLASSES = 2

MODEL_MAGIC = b"GCNIDS01"
_MAGIC_FAMILY = b"GCNIDS"

PROB_CLAMP = 1e-12
LEAKY_SLOPE = 0.01

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# A training step is padded as two stacks only if the large stack's node
# count is at least this multiple of the small one's (see size_groups).
SPLIT_RATIO = 2


class ModelError(ValueError):
    """Base class for model errors."""


class CacheMismatch(ModelError):
    pass


class EmptyBatchLabels(ModelError):
    pass


class EmptyDataset(ModelError):
    pass


class SingleClassDataset(ModelError):
    pass


class BadMagic(ModelError):
    pass


class VersionMismatch(ModelError):
    pass


class ModelIoError(ModelError):
    pass


@dataclass
class GcnParams:
    """The trainable weights: two conv layers, linear head, head bias."""

    w1: Matrix
    w2: Matrix
    wc: Matrix
    bc: np.ndarray

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.wc = np.asarray(self.wc, dtype=np.float64)
        self.bc = np.asarray(self.bc, dtype=np.float64)
        expected = {
            "w1": (IN_FEATURES, HIDDEN),
            "w2": (HIDDEN, HIDDEN),
            "wc": (HIDDEN, NUM_CLASSES),
            "bc": (NUM_CLASSES,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ShapeMismatch(f"{name} has shape {arr.shape}, expected {shape}")
            kernel.check_finite(arr.reshape(1, -1), name)

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.w2, self.wc, self.bc]


@dataclass
class Gradients:
    w1: Matrix
    w2: Matrix
    wc: Matrix
    bc: np.ndarray

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.w2, self.wc, self.bc]


@dataclass
class ForwardCache:
    """Intermediate values of one training forward pass, kept for backward."""

    adjacency: Matrix
    num_nodes: np.ndarray
    m0: Matrix           # A @ X
    z1: Matrix
    h1: Matrix
    m1: Matrix           # A @ H1
    z2: Matrix
    h2: Matrix
    mask: Matrix
    readout_dropped: Matrix
    probs: Matrix
    params: GcnParams


@dataclass
class TrainConfig:
    """Optimization schedule; the one source of training defaults, which the
    CLI reads too.

    Training always uses Adam, and graphs always take graph_builder's one
    convolution adjacency. Defaults are tuned for this ~100-parameter model
    on max-normalized degree features: Adam at 0.05 with light readout
    dropout (0.1). Heavier dropout on an 8-wide readout drowns the gradient
    signal and caps accuracy well below what the model can reach; 0.5
    remains available for ablation. Adam's moment decays and epsilon are the
    module constants ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.
    """

    learning_rate: float = 0.05
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0
    dropout_p: float = 0.1
    patience: int | None = None
    allow_single_class: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ModelError("learning_rate must be finite and > 0")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ModelError("dropout_p must be in [0, 1)")
        if self.epochs < 1:
            raise ModelError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        if self.patience is not None and self.patience < 0:
            raise ModelError("patience must be >= 0")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float | None = None
    val_accuracy: float | None = None


def init_params(seed=0) -> GcnParams:
    """Glorot-uniform weights (bound sqrt(6 / (fan_in + fan_out))), zero bias."""
    rng = make_rng(seed)

    def glorot(fan_in: int, fan_out: int) -> Matrix:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return GcnParams(
        w1=glorot(IN_FEATURES, HIDDEN),
        w2=glorot(HIDDEN, HIDDEN),
        wc=glorot(HIDDEN, NUM_CLASSES),
        bc=np.zeros(NUM_CLASSES),
    )


def forward(
    batch: GraphBatch,
    params: GcnParams,
    rng: np.random.Generator | None = None,
    dropout_p: float = 0.0,
) -> tuple[Matrix, ForwardCache | None]:
    """Per-graph class probabilities for a batch.

    Inference mode (rng=None) applies no dropout, consumes no generator
    state, and returns no cache. Passing a generator enables training mode:
    inverted dropout on the readout and a cache for backward().
    """
    adj = batch.adjacency
    x = batch.features
    num_nodes = batch.num_nodes
    if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
        raise ShapeMismatch(f"adjacency must be (B, n, n), got {adj.shape}")
    num_graphs, n = adj.shape[:2]
    if x.shape != (num_graphs, n, IN_FEATURES):
        raise ShapeMismatch(
            f"features shape {x.shape}, expected ({num_graphs}, {n}, {IN_FEATURES})"
        )
    fits = (1 <= num_nodes) & (num_nodes <= n)
    if num_nodes.shape != (num_graphs,) or not np.all(fits):
        raise ShapeMismatch(f"num_nodes {num_nodes} do not fit adjacency {adj.shape}")
    kernel.check_finite(adj, "adjacency")
    kernel.check_finite(x, "features")

    m0 = adj @ x
    z1 = m0 @ params.w1
    h1 = np.where(z1 > 0.0, z1, LEAKY_SLOPE * z1)
    m1 = adj @ h1
    z2 = m1 @ params.w2
    h2 = np.where(z2 > 0.0, z2, LEAKY_SLOPE * z2)
    readout = h2.sum(axis=1) / num_nodes[:, None]

    if rng is None:
        logits = readout @ params.wc + params.bc
        probs = kernel.softmax_rows(logits)
        return probs, None

    mask = kernel.dropout_mask(rng, num_graphs, HIDDEN, dropout_p)
    dropped = readout * mask
    logits = dropped @ params.wc + params.bc
    probs = kernel.softmax_rows(logits)
    cache = ForwardCache(
        adjacency=adj, num_nodes=num_nodes,
        m0=m0, z1=z1, h1=h1, m1=m1, z2=z2, h2=h2,
        mask=mask, readout_dropped=dropped, probs=probs, params=params,
    )
    return probs, cache


def bce_loss(probs, labels) -> float:
    """Mean binary cross-entropy on the attacked-class probability.

    Accepts the (B, 2) softmax output (column 1 is the positive class) or a
    length-B vector of positive-class probabilities. Probabilities are
    clamped to [1e-12, 1 - 1e-12] before the logs, so the loss is finite.
    """
    probs = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if probs.ndim == 2:
        if probs.shape[1] != NUM_CLASSES:
            raise ShapeMismatch(f"expected {NUM_CLASSES} columns, got {probs.shape}")
        p = probs[:, 1]
    else:
        p = probs
    if p.shape[0] == 0:
        raise EmptyBatchLabels("no samples")
    if y.shape != p.shape:
        raise ShapeMismatch(f"{y.shape[0]} labels for {p.shape[0]} probabilities")
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def backward(cache: ForwardCache, labels) -> Gradients:
    """Exact gradients of bce_loss(forward(...)) for every parameter.

    The softmax + binary cross-entropy composite collapses to
    (probs - onehot) / B at the logits; everything else is the chain rule
    through the cached intermediates, with the dropout mask reapplied.
    """
    if cache is None:
        raise CacheMismatch("backward needs the cache from a training-mode forward")
    y = np.asarray(labels, dtype=np.int64)
    b = cache.probs.shape[0]
    if y.shape != (b,):
        raise CacheMismatch(f"{y.shape} labels for a cache of {b} graphs")

    onehot = np.zeros((b, NUM_CLASSES))
    onehot[np.arange(b), y] = 1.0
    dlogits = (cache.probs - onehot) / b

    dwc = cache.readout_dropped.T @ dlogits
    dbc = dlogits.sum(axis=0)
    dreadout = (dlogits @ cache.params.wc.T) * cache.mask

    # Padded rows of dz2 take the leaky slope (z2 is 0 there), but they meet
    # only zero rows of m1 and zero columns of A^T, so they add nothing.
    dh2 = (dreadout / cache.num_nodes[:, None])[:, None, :]
    dz2 = np.where(cache.z2 > 0.0, dh2, LEAKY_SLOPE * dh2)
    dw2 = cache.m1.reshape(-1, HIDDEN).T @ dz2.reshape(-1, HIDDEN)

    dh1 = cache.adjacency.transpose(0, 2, 1) @ (dz2 @ cache.params.w2.T)
    dz1 = np.where(cache.z1 > 0.0, dh1, LEAKY_SLOPE * dh1)
    dw1 = cache.m0.reshape(-1, IN_FEATURES).T @ dz1.reshape(-1, HIDDEN)

    return Gradients(w1=dw1, w2=dw2, wc=dwc, bc=dbc)


class _Adam:
    """Standard Adam with bias correction; update order is fixed."""

    def __init__(self, shapes, lr):
        self.lr = lr
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[i] / (1 - ADAM_BETA1 ** self.t)
            v_hat = self.v[i] / (1 - ADAM_BETA2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _probabilities(prepared, params: GcnParams) -> np.ndarray:
    """Attacked probability of each prepared graph, scored by probability."""
    return np.fromiter((probability(adj, feats, len(adj), params)
                        for adj, feats, _ in prepared), dtype=np.float64)


def size_groups(num_nodes) -> list[np.ndarray]:
    """Indices of a training step's graphs, in batch order, for at most two
    padded stacks: the cut by node count that minimizes the padded
    adjacency entries, sum of b * n^2 over the stacks (b graphs padded to n
    nodes). The step is split only when the large stack's n is at least
    SPLIT_RATIO times the small one's; otherwise, as for uniform sizes, a
    second stack costs more numpy calls than its padding saves."""
    sizes = np.asarray(num_nodes, dtype=np.int64)
    if sizes.max() >= SPLIT_RATIO * sizes.min():  # else no cut passes the rule
        ordered = np.sort(sizes)
        cuts = np.flatnonzero(ordered[:-1] < ordered[1:]) + 1  # between distinct sizes
        cost = cuts * ordered[cuts - 1] ** 2 + (len(sizes) - cuts) * ordered[-1] ** 2
        small = ordered[cuts[np.argmin(cost)] - 1]
        if ordered[-1] >= SPLIT_RATIO * small:
            return [np.flatnonzero(sizes <= small), np.flatnonzero(sizes > small)]
    return [np.arange(len(sizes))]


def _step_gradients(prepared, params: GcnParams, rng: np.random.Generator,
                    dropout_p: float) -> tuple[list[np.ndarray], float, int]:
    """(gradients, summed loss, correct count) of one training step over
    prepared graphs. Each size_groups stack runs assemble_batch, forward and
    backward; its gradients, means over its b of the step's B graphs, are
    weighted by b / B to give the step's mean. The stacks draw B x HIDDEN
    dropout entries in all, as one batch would; in a split step the small
    stack takes the draw's first rows."""
    parts = []
    loss_sum = 0.0
    correct = 0
    for idx in size_groups([len(adj) for adj, _, _ in prepared]):
        batch = assemble_batch([prepared[i] for i in idx])
        y = batch.labels
        probs, cache = forward(batch, params, rng=rng, dropout_p=dropout_p)
        loss_sum += bce_loss(probs, y) * len(y)
        correct += int(np.sum((probs[:, 1] >= 0.5) == (y == 1)))
        parts.append((len(idx) / len(prepared), backward(cache, y).arrays()))
    if len(parts) == 1:
        return parts[0][1], loss_sum, correct
    (w_small, small), (w_large, large) = parts
    return [w_small * a + w_large * b for a, b in zip(small, large)], loss_sum, correct


def train(
    graphs: Sequence[MessageGraph],
    config: TrainConfig | None = None,
    val_graphs: Sequence[MessageGraph] | None = None,
) -> tuple[GcnParams, list[EpochRecord]]:
    """Mini-batch training loop; returns final params and per-epoch history.

    Graphs are reshuffled every epoch with a seeded generator and cut into
    steps of batch_size graphs. Each step is zero-padded into one or two
    stacks by node count (size_groups), pushed through forward/backward and
    ends in one Adam step. Deterministic: same data, same config,
    bit-identical params.
    """
    config = config or TrainConfig()
    if not graphs:
        raise EmptyDataset("no graphs to train on")
    labels_all = np.array([g.label for g in graphs], dtype=np.int64)
    if len(set(labels_all.tolist())) < 2:
        if not config.allow_single_class:
            raise SingleClassDataset(
                "training set has a single class; pass allow_single_class to proceed"
            )
        warnings.warn("training on a single-class dataset", stacklevel=2)

    init_ss, shuffle_ss, dropout_ss = np.random.SeedSequence(config.seed).spawn(3)
    params = init_params(init_ss)
    shuffle_rng = make_rng(shuffle_ss)
    dropout_rng = make_rng(dropout_ss)

    prepared = [prepare_graph(g) for g in graphs]
    prepared_val = [prepare_graph(g) for g in val_graphs] if val_graphs else None
    opt = _Adam([a.shape for a in params.arrays()], config.learning_rate)

    history: list[EpochRecord] = []
    best_val = np.inf
    stale = 0

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(prepared))
        loss_sum = 0.0
        correct = 0
        for lo in range(0, len(order), config.batch_size):
            grads, step_loss, step_correct = _step_gradients(
                [prepared[i] for i in order[lo:lo + config.batch_size]], params,
                dropout_rng, config.dropout_p)
            loss_sum += step_loss
            correct += step_correct
            opt.step(params.arrays(), grads)

        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / len(prepared),
            train_accuracy=correct / len(prepared),
        )
        if prepared_val:
            val_probs = _probabilities(prepared_val, params)
            val_y = np.array([g.label for g in val_graphs], dtype=np.int64)
            record.val_loss = bce_loss(val_probs, val_y)
            record.val_accuracy = float(np.mean((val_probs >= 0.5) == (val_y == 1)))
            if config.patience is not None:
                if record.val_loss < best_val - 1e-12:
                    best_val = record.val_loss
                    stale = 0
                else:
                    stale += 1
        history.append(record)
        if config.patience is not None and stale > config.patience:
            break

    return params, history


def predict(
    graph: MessageGraph,
    params: GcnParams,
    threshold: float = 0.5,
) -> tuple[int, float]:
    """(label, attacked probability) of one graph from prepare_graph and
    probability. Attacked iff the probability is >= threshold: a tie flags
    the window, the safer failure for an IDS."""
    adjacency, features, _ = prepare_graph(graph)
    prob = probability(adjacency, features, graph.num_nodes, params)
    return int(prob >= threshold), prob


def predict_many(
    graphs: Iterable[MessageGraph],
    params: GcnParams,
    threshold: float = 0.5,
    batch_size: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """predict's labels and probabilities for each graph, as two arrays
    (empty for no graphs). Each graph is scored as the iterable yields it and
    not kept. batch_size changes nothing, as every graph is scored alone; it
    stays for callers outside the package that pass it."""
    probs = _probabilities(map(prepare_graph, graphs), params)
    return (probs >= threshold).astype(np.int64), probs


def probability(
    adjacency: Matrix,
    features: Matrix,
    num_nodes: int,
    params: GcnParams,
) -> float:
    """Attacked probability of one graph from its convolution inputs: the
    inference forward pass fused for a single graph, equal to a batched
    forward's up to rounding.

    adjacency (k, k) and features (k, 2) may hold rows for free node slots
    if those rows are all zero (they stay zero through both bias-free
    layers), which is why the readout divides by num_nodes, not k. The
    2-class softmax is a logistic in the logit difference. It makes no shape
    or per-call finiteness checks: its inputs come from integer counts and
    params are checked on construction; a non-finite result raises
    FiniteViolation.
    """
    z1 = (adjacency @ features) @ params.w1
    h1 = np.maximum(z1, LEAKY_SLOPE * z1)  # leaky ReLU, as the slope is < 1
    z2 = (adjacency @ h1) @ params.w2
    h2 = np.maximum(z2, LEAKY_SLOPE * z2)
    logit0, logit1 = ((h2.sum(axis=0) / num_nodes) @ params.wc + params.bc).tolist()
    gap = logit0 - logit1
    if gap <= 0.0:
        prob = 1.0 / (1.0 + math.exp(gap))
    else:  # keep exp's argument <= 0, as softmax_rows shifts by the max
        odds = math.exp(-gap)
        prob = odds / (1.0 + odds)
    if not math.isfinite(prob):
        raise FiniteViolation("attacked probability is NaN or Inf")
    return prob


def save_params(params: GcnParams, path: str | Path) -> None:
    """Versioned binary model file; the float payload is bit-preserved.

    Layout: 8-byte magic, then for each of w1, w2, wc, bc (bias stored as a
    1 x 2 matrix): two little-endian uint32 dims followed by row-major
    little-endian float64 values.
    """
    blobs = [MODEL_MAGIC]
    matrices = [params.w1, params.w2, params.wc, params.bc.reshape(1, NUM_CLASSES)]
    for arr in matrices:
        blobs.append(struct.pack("<II", arr.shape[0], arr.shape[1]))
        blobs.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(blobs))


def load_params(path: str | Path) -> GcnParams:
    """Read a model file back; validates magic, version, and shapes."""
    data = Path(path).read_bytes()
    if len(data) < len(MODEL_MAGIC) or not data.startswith(_MAGIC_FAMILY):
        raise BadMagic(f"{path} is not a model file")
    if data[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise VersionMismatch(
            f"model format {data[len(_MAGIC_FAMILY):len(MODEL_MAGIC)]!r}, "
            f"expected {MODEL_MAGIC[len(_MAGIC_FAMILY):]!r}"
        )
    expected = [
        ("w1", (IN_FEATURES, HIDDEN)),
        ("w2", (HIDDEN, HIDDEN)),
        ("wc", (HIDDEN, NUM_CLASSES)),
        ("bc", (1, NUM_CLASSES)),
    ]
    offset = len(MODEL_MAGIC)
    arrays = {}
    for name, shape in expected:
        if offset + 8 > len(data):
            raise ModelIoError(f"model file truncated in {name} header")
        rows, cols = struct.unpack_from("<II", data, offset)
        offset += 8
        if (rows, cols) != shape:
            raise ShapeMismatch(f"{name} stored as {(rows, cols)}, expected {shape}")
        nbytes = rows * cols * 8
        if offset + nbytes > len(data):
            raise ModelIoError(f"model file truncated in {name} payload")
        arrays[name] = np.frombuffer(
            data, dtype="<f8", count=rows * cols, offset=offset
        ).reshape(rows, cols).astype(np.float64)
        offset += nbytes
    if offset != len(data):
        raise ModelIoError(f"{len(data) - offset} trailing bytes in model file")
    return GcnParams(
        w1=arrays["w1"], w2=arrays["w2"], wc=arrays["wc"],
        bc=arrays["bc"].reshape(NUM_CLASSES),
    )
