"""Windowed message graphs from CAN frame streams.

A stream is sliced into fixed-size message windows (default 200 frames). Each
window becomes a directed multigraph: nodes are the distinct arbitration ids
in first-appearance order, and every consecutive frame pair contributes one
edge from the earlier id to the later one (self-loops included when an id
repeats). Node features are the multiplicity-counted in/out degrees, so the
degree sums and the total edge multiplicity all equal window_size - 1.

A window is labeled attacked iff it contains at least one injected frame.

For the convolution, the adjacency can be taken raw (binary, directed) or in
the default form: symmetrized, self-loops added, then symmetrically
degree-normalized. Batches pad every graph to the largest node count in the
batch and stack them, so one batched pass never mixes nodes across graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .can_log import CanFrame
from .kernel import Matrix

DEFAULT_WINDOW_SIZE = 200

ATTACK_FREE = 0
ATTACKED = 1

ADJ_RAW_DIRECTED = "raw_directed"
ADJ_SYM_NORM = "sym_norm_self_loop"
ADJ_SYM_NORM_WEIGHTED = "sym_norm_weighted"
ADJACENCY_MODES = (ADJ_RAW_DIRECTED, ADJ_SYM_NORM, ADJ_SYM_NORM_WEIGHTED)


class GraphError(ValueError):
    """Base class for graph construction errors."""


class WindowTooSmall(GraphError):
    pass


class EmptyBatch(GraphError):
    pass


@dataclass
class MessageGraph:
    """One window rendered as a directed multigraph over arbitration ids."""

    window_index: int
    node_ids: list[int]
    edges: dict[tuple[int, int], int]
    in_degree: np.ndarray
    out_degree: np.ndarray
    label: int
    window_size: int

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)


@dataclass
class GraphBatch:
    """Several graphs padded to one node count for a batched forward pass.

    adjacency is (B, n, n) and features (B, n, 2), with n the largest node
    count in the batch. Graph b fills the leading num_nodes[b] rows and
    columns of its slice; every padded entry is exactly zero. labels has one
    entry per graph.
    """

    adjacency: Matrix
    features: Matrix
    num_nodes: np.ndarray
    labels: np.ndarray

    @property
    def num_graphs(self) -> int:
        return len(self.labels)


def build_windows(
    frames: Sequence[CanFrame],
    window_size: int = DEFAULT_WINDOW_SIZE,
    stride: int | None = None,
) -> list[Sequence[CanFrame]]:
    """Slice frames into windows starting at offsets 0, stride, 2*stride, ...

    A trailing window with fewer than window_size frames is dropped so every
    graph obeys the window_size - 1 edge count invariant.
    """
    if window_size < 2:
        raise WindowTooSmall(f"window_size {window_size} must be >= 2")
    if stride is None:
        stride = window_size
    if not 1 <= stride <= window_size:
        raise GraphError(f"stride {stride} must be in 1..window_size")
    windows = []
    for start in range(0, len(frames) - window_size + 1, stride):
        windows.append(frames[start:start + window_size])
    return windows


def graph_from_ids(
    ids: Sequence[int],
    attacked: bool,
    window_index: int = 0,
) -> MessageGraph:
    """Build a MessageGraph from a window's arbitration-id sequence."""
    w = len(ids)
    if w < 2:
        raise WindowTooSmall(f"window of {w} frames, need >= 2")

    node_index: dict[int, int] = {}
    node_ids: list[int] = []
    dense: list[int] = []
    for arb_id in ids:
        idx = node_index.get(arb_id)
        if idx is None:
            idx = len(node_ids)
            node_index[arb_id] = idx
            node_ids.append(arb_id)
        dense.append(idx)

    edges: dict[tuple[int, int], int] = {}
    n = len(node_ids)
    in_deg = np.zeros(n, dtype=np.int64)
    out_deg = np.zeros(n, dtype=np.int64)
    prev = dense[0]
    for nxt in dense[1:]:
        key = (prev, nxt)
        edges[key] = edges.get(key, 0) + 1
        out_deg[prev] += 1
        in_deg[nxt] += 1
        prev = nxt

    return MessageGraph(
        window_index=window_index,
        node_ids=node_ids,
        edges=edges,
        in_degree=in_deg,
        out_degree=out_deg,
        label=ATTACKED if attacked else ATTACK_FREE,
        window_size=w,
    )


def build_graph(window: Sequence[CanFrame], window_index: int = 0) -> MessageGraph:
    """One window of frames to its message graph; attacked iff any frame is
    labeled injected."""
    ids = [f.arbitration_id for f in window]
    attacked = any(f.label is not None for f in window)
    return graph_from_ids(ids, attacked, window_index)


def graphs_from_frames(
    frames: Sequence[CanFrame],
    window_size: int = DEFAULT_WINDOW_SIZE,
    stride: int | None = None,
) -> list[MessageGraph]:
    """build_windows + build_graph with consecutive window indices."""
    return [
        build_graph(window, window_index=i)
        for i, window in enumerate(build_windows(frames, window_size, stride))
    ]


def node_features(graph: MessageGraph, normalize: bool = False) -> Matrix:
    """n x 2 feature matrix: row i is (in_degree, out_degree) of node i.

    With normalize=True each column is divided by its max (columns whose max
    is 0 are left as zeros).
    """
    feats = np.stack(
        [graph.in_degree, graph.out_degree], axis=1
    ).astype(np.float64)
    if normalize:
        col_max = feats.max(axis=0)
        nonzero = col_max > 0
        feats[:, nonzero] /= col_max[nonzero]
    return feats


def conv_adjacency(graph: MessageGraph, mode: str = ADJ_SYM_NORM) -> Matrix:
    """Convolution-ready n x n adjacency.

    raw_directed: binary, A[i, j] = 1 iff edge i->j was observed.
    sym_norm_self_loop (default): symmetrize and binarize, add self-loops,
    then normalize D^-1/2 (A~) D^-1/2 with D the row sums.
    sym_norm_weighted: same, but A keeps edge multiplicities
    (A~ = A + A^T + I), so repeated-transition frequencies survive into the
    convolution.

    Raw directed adjacency starves zero-in-degree nodes and scales with
    degree, so the normalized forms are preferred; raw is kept for ablation.
    """
    if mode not in ADJACENCY_MODES:
        raise GraphError(f"unknown adjacency mode {mode!r}")
    n = graph.num_nodes
    a = np.zeros((n, n), dtype=np.float64)
    for (src, dst), mult in graph.edges.items():
        a[src, dst] = 1.0 if mode != ADJ_SYM_NORM_WEIGHTED else float(mult)
    if mode == ADJ_RAW_DIRECTED:
        return a
    if mode == ADJ_SYM_NORM_WEIGHTED:
        sym = a + a.T
    else:
        sym = ((a + a.T) > 0).astype(np.float64)
    sym += np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(sym.sum(axis=1))
    return sym * inv_sqrt[:, None] * inv_sqrt[None, :]


def prepare_graph(
    graph: MessageGraph,
    mode: str = ADJ_SYM_NORM,
    normalize_features: bool = False,
) -> tuple[Matrix, Matrix, int]:
    """Precompute (adjacency, features, label) for repeated batching."""
    return conv_adjacency(graph, mode), node_features(graph, normalize_features), graph.label


def assemble_batch(prepared: Sequence[tuple[Matrix, Matrix, int]]) -> GraphBatch:
    """Pad prepared graphs with zeros to the largest node count and stack
    them, in the given order."""
    if not prepared:
        raise EmptyBatch("cannot batch zero graphs")
    num_nodes = np.array([adj.shape[0] for adj, _, _ in prepared], dtype=np.int64)
    b, n = len(prepared), int(num_nodes.max())
    adjacency = np.zeros((b, n, n), dtype=np.float64)
    features = np.zeros((b, n, prepared[0][1].shape[1]), dtype=np.float64)
    labels = np.empty(b, dtype=np.int64)
    for g, (adj, feats, label) in enumerate(prepared):
        k = adj.shape[0]
        adjacency[g, :k, :k] = adj
        features[g, :k] = feats
        labels[g] = label
    return GraphBatch(adjacency, features, num_nodes, labels)


def batch_graphs(
    graphs: Sequence[MessageGraph],
    mode: str = ADJ_SYM_NORM,
    normalize_features: bool = False,
) -> GraphBatch:
    """Padded batch of the given graphs under one adjacency mode."""
    if not graphs:
        raise EmptyBatch("cannot batch zero graphs")
    return assemble_batch(
        [prepare_graph(g, mode, normalize_features) for g in graphs]
    )


_LABEL_TEXT = {ATTACK_FREE: "attack_free", ATTACKED: "attacked"}
_TEXT_LABEL = {v: k for k, v in _LABEL_TEXT.items()}


def dump_graphs(target: str | Path | IO[str], graphs: Iterable[MessageGraph]) -> int:
    """Write graphs as JSON lines; returns the number written.

    Record fields: window_index, window_size, nodes (hex id strings in node
    order), edges ([src, dst, multiplicity] triples), label.
    """

    def _write(fh) -> int:
        count = 0
        for g in graphs:
            record = {
                "window_index": g.window_index,
                "window_size": g.window_size,
                "nodes": [f"0x{arb_id:x}" for arb_id in g.node_ids],
                "edges": sorted([s, d, m] for (s, d), m in g.edges.items()),
                "label": _LABEL_TEXT[g.label],
            }
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
            count += 1
        return count

    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            return _write(fh)
    return _write(target)


def load_graphs(source: str | Path | IO[str]) -> list[MessageGraph]:
    """Read a JSON-lines graph dump back into MessageGraph objects."""

    def _read(fh) -> list[MessageGraph]:
        graphs = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            node_ids = [int(s, 16) for s in rec["nodes"]]
            n = len(node_ids)
            edges = {(s, d): m for s, d, m in rec["edges"]}
            in_deg = np.zeros(n, dtype=np.int64)
            out_deg = np.zeros(n, dtype=np.int64)
            for (s, d), m in edges.items():
                out_deg[s] += m
                in_deg[d] += m
            graphs.append(
                MessageGraph(
                    window_index=rec["window_index"],
                    node_ids=node_ids,
                    edges=edges,
                    in_degree=in_deg,
                    out_degree=out_deg,
                    label=_TEXT_LABEL[rec["label"]],
                    window_size=rec["window_size"],
                )
            )
        return graphs

    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read(fh)
    return _read(source)
