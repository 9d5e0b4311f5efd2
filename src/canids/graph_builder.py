"""Windowed message graphs from CAN frame streams.

A stream is sliced into fixed-size message windows (default 200 frames). Each
window becomes a directed multigraph: nodes are the distinct arbitration ids
in first-appearance order, and every consecutive frame pair contributes one
edge from the earlier id to the later one (self-loops included when an id
repeats). The multiplicity-counted in/out degrees are the node features, each
max-normalized per graph; the raw degree sums and the total edge multiplicity
all equal window_size - 1.

A window is labeled attacked iff it contains at least one injected frame.

Graphs are built incrementally: SlidingGraph keeps the last window_size ids,
the edge multiset and each id's in-window positions, and updates them in O(1)
per pushed id, so a stream scored at stride 1 never rebuilds a whole window.
Its snapshot renders the window with node order, edges and degrees exactly as
a from-scratch build; graph_from_ids is a push of every id then a snapshot.

The convolution sees one adjacency form: the edges symmetrized and binarized,
self-loops added, then symmetrically degree-normalized. Batches pad every
graph to the largest node count in the batch and stack them, so one batched
pass never mixes nodes across graphs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .can_log import CanFrame
from .kernel import Matrix

DEFAULT_WINDOW_SIZE = 200

ATTACK_FREE = 0
ATTACKED = 1


class GraphError(ValueError):
    """Base class for graph construction errors."""


class WindowTooSmall(GraphError):
    pass


class EmptyBatch(GraphError):
    pass


class MalformedGraphRecord(GraphError):
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


class SlidingGraph:
    """Message graph of the last window_size arbitration ids, updated in O(1)
    per pushed id.

    It keeps a ring of the ids in the window, the edge multiset keyed by
    (src_id, dst_id), and one deque of in-window positions per id: the
    deque's length is the id's occurrence count and its head the id's first
    position. Pushing into a full ring drops the oldest id and its outgoing
    edge before adding the new id and its incoming edge.
    """

    def __init__(self, window_size: int = DEFAULT_WINDOW_SIZE):
        if window_size < 2:
            raise WindowTooSmall(f"window_size {window_size} must be >= 2")
        self.window_size = window_size
        self.ids: deque[int] = deque(maxlen=window_size)
        self.edges: dict[tuple[int, int], int] = {}
        self.positions: dict[int, deque[int]] = {}
        self.pushed = 0

    def push(self, arb_id: int) -> None:
        ids, edges, positions = self.ids, self.edges, self.positions
        if len(ids) == self.window_size:
            oldest = ids[0]
            key = (oldest, ids[1])
            mult = edges[key]
            if mult == 1:
                del edges[key]
            else:
                edges[key] = mult - 1
            seen = positions[oldest]
            seen.popleft()
            if not seen:
                del positions[oldest]
        if ids:
            key = (ids[-1], arb_id)
            edges[key] = edges.get(key, 0) + 1
        ids.append(arb_id)
        seen = positions.get(arb_id)
        if seen is None:
            positions[arb_id] = deque((self.pushed,))
        else:
            seen.append(self.pushed)
        self.pushed += 1

    def snapshot(self, attacked: bool, window_index: int = 0) -> MessageGraph:
        """The ids now in the ring as a MessageGraph: nodes in order of first
        position, edges in node-index terms. Each id's occurrence count is
        its degree, less one outgoing for the last frame's id and one
        incoming for the first frame's id."""
        ids, positions = self.ids, self.positions
        if len(ids) < 2:
            raise WindowTooSmall(f"window of {len(ids)} frames, need >= 2")
        node_ids = sorted(positions, key=lambda arb_id: positions[arb_id][0])
        index = {arb_id: k for k, arb_id in enumerate(node_ids)}
        edges = {(index[src], index[dst]): mult
                 for (src, dst), mult in self.edges.items()}
        in_deg = np.array([len(positions[arb_id]) for arb_id in node_ids],
                          dtype=np.int64)
        out_deg = in_deg.copy()
        in_deg[index[ids[0]]] -= 1
        out_deg[index[ids[-1]]] -= 1
        return MessageGraph(
            window_index=window_index,
            node_ids=node_ids,
            edges=edges,
            in_degree=in_deg,
            out_degree=out_deg,
            label=ATTACKED if attacked else ATTACK_FREE,
            window_size=len(ids),
        )


def graph_from_ids(
    ids: Sequence[int],
    attacked: bool,
    window_index: int = 0,
) -> MessageGraph:
    """Build a MessageGraph from a window's arbitration-id sequence."""
    sliding = SlidingGraph(len(ids))
    for arb_id in ids:
        sliding.push(arb_id)
    return sliding.snapshot(attacked, window_index)


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


def node_features(graph: MessageGraph) -> Matrix:
    """n x 2 feature matrix: row i is (in_degree, out_degree) of node i, each
    column divided by its max (a column whose max is 0 stays zero)."""
    feats = np.stack(
        [graph.in_degree, graph.out_degree], axis=1
    ).astype(np.float64)
    col_max = feats.max(axis=0)
    nonzero = col_max > 0
    feats[:, nonzero] /= col_max[nonzero]
    return feats


def conv_adjacency(graph: MessageGraph) -> Matrix:
    """Convolution-ready n x n adjacency, the only form the model sees:
    D^-1/2 (A~) D^-1/2, where A~ is the edge set symmetrized and binarized
    (multiplicities dropped) plus self-loops, and D holds the row sums of A~.
    The self-loops keep every node's own features in its update and the
    normalization keeps high-degree hubs from scaling their neighbours."""
    n = graph.num_nodes
    a = np.zeros((n, n), dtype=np.float64)
    for src, dst in graph.edges:
        a[src, dst] = 1.0
    sym = ((a + a.T) > 0).astype(np.float64)
    sym += np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(sym.sum(axis=1))
    return sym * inv_sqrt[:, None] * inv_sqrt[None, :]


def prepare_graph(graph: MessageGraph) -> tuple[Matrix, Matrix, int]:
    """Precompute (adjacency, features, label) for repeated batching."""
    return conv_adjacency(graph), node_features(graph), graph.label


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


def batch_graphs(graphs: Sequence[MessageGraph]) -> GraphBatch:
    """Padded batch of the given graphs."""
    return assemble_batch([prepare_graph(g) for g in graphs])


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


def _int_at_least(value, low: int, what: str) -> int:
    if type(value) is not int or value < low:  # bools are not counts
        raise ValueError(f"{what} {value!r} is not an int >= {low}")
    return value


def _graph_from_record(line: str) -> MessageGraph:
    """One dump record as a MessageGraph; a record that no window could give
    (bad counts, a repeated edge, multiplicities not summing to
    window_size - 1) raises ValueError, KeyError, IndexError or TypeError."""
    rec = json.loads(line)
    window_size = _int_at_least(rec["window_size"], 2, "window_size")
    node_ids = [int(s, 16) for s in rec["nodes"]]
    n = len(node_ids)
    edges: dict[tuple[int, int], int] = {}
    in_deg = np.zeros(n, dtype=np.int64)
    out_deg = np.zeros(n, dtype=np.int64)
    for s, d, m in rec["edges"]:
        _int_at_least(s, 0, "edge source")
        _int_at_least(d, 0, "edge target")
        if s >= n or d >= n:
            raise IndexError(f"edge {s}->{d} outside {n} nodes")
        if (s, d) in edges:
            raise ValueError(f"edge {s}->{d} repeated")
        edges[s, d] = _int_at_least(m, 1, "multiplicity")
        out_deg[s] += m
        in_deg[d] += m
    total = sum(edges.values())
    if total != window_size - 1:
        raise ValueError(f"multiplicities sum to {total}, not window_size - 1")
    return MessageGraph(
        window_index=_int_at_least(rec["window_index"], 0, "window_index"),
        node_ids=node_ids,
        edges=edges,
        in_degree=in_deg,
        out_degree=out_deg,
        label=_TEXT_LABEL[rec["label"]],
        window_size=window_size,
    )


def load_graphs(source: str | Path | IO[str]) -> list[MessageGraph]:
    """Read a JSON-lines graph dump back into MessageGraph objects; a line
    that is not a valid record (undecodable bytes included) raises
    MalformedGraphRecord naming it."""

    def _read(fh) -> list[MessageGraph]:
        graphs = []
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                graphs.append(_graph_from_record(line))
            except (ValueError, KeyError, IndexError, TypeError) as err:
                raise MalformedGraphRecord(
                    f"graph dump line {line_no}: {type(err).__name__}: {err}"
                ) from err
        return graphs

    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="replace") as fh:
            return _read(fh)
    return _read(source)
