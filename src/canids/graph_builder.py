"""Windowed message graphs from CAN frame streams.

A stream is sliced into fixed-size message windows (default 200 frames). Each
window becomes a directed multigraph: nodes are the distinct arbitration ids
in first-appearance order, and every consecutive frame pair contributes one
edge from the earlier id to the later one (self-loops included when an id
repeats). The multiplicity-counted in/out degrees are the node features, each
max-normalized per graph; the raw degree sums and the total edge multiplicity
all equal window_size - 1.

A window is labeled attacked iff it contains at least one injected frame.

The graph pipeline reads (timestamp_us, arbitration_id, label) records
(can_log.Record); a stream of CanFrames is turned into records on the way in.
sliding_windows is the one window loop: graphs_from_frames snapshots each
window it yields and detect.verdicts scores each from its conv_inputs, so both
cost O(frames) at any stride. It builds graphs in one of two ways, with the
same results:

- Overlapping windows (stride < window_size) go through one SlidingGraph. It
  keeps the last window_size ids, the edge multiset and a slot with an
  occurrence count per in-window id, and updates them in O(1) per pushed id
  with Python int and dict operations. Its conv_inputs give the window's
  convolution inputs in slot order without a snapshot. Once called, it keeps
  the binary adjacency, the degrees, the normalized adjacency and the counts
  in slot order and updates them in place: a push changes at most two
  edges, so only the rows and columns of their slots are rewritten, with the
  arithmetic of a full rebuild and so to the same bits. It rebuilds them in
  full when the slot count grows or the slots are renumbered.
- Windows that share no frame (stride == window_size) are built whole: the
  loop numbers a window's ids in a dict as its frames arrive, and on the
  window's last frame WindowGraph(node_ids, pos) takes the degrees from
  bincount and the edges from pair codes with numpy. graph_from_ids numbers
  an id sequence the same way and builds the same WindowGraph.

Both builders share one window check and one graph assembly (_message_graph:
occurrence counts to degrees). One routine, _adjacency, computes every
convolution adjacency: WindowGraph's, SlidingGraph's (whose in-place updates
are tested against it bit for bit) and conv_adjacency's, which prepare_graph
takes for training, inference and dumped graphs. build_windows and
build_graph slice and build from scratch: the reference the loop is tested
against.

The convolution sees one adjacency form: the edges symmetrized and binarized,
self-loops added, then symmetrically degree-normalized. assemble_batch pads
every graph it is given to their largest node count and stacks them, so one
batched pass never mixes nodes across graphs. Training pads each step as one
such stack, or as two when the largest node count is at least twice that of
the small stack (gcn.size_groups picks the cut): clean windows of ~15 nodes
are then not padded to the ~80 of attacked ones.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .can_log import EXTENDED_ID_MAX, CanFrame, Record, as_records
from .kernel import FiniteViolation, Matrix, check_finite

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


def _checked_stride(window_size: int, stride: int | None) -> int:
    """The stride, window_size when None, once both are known to be valid."""
    if window_size < 2:
        raise WindowTooSmall(f"window_size {window_size} must be >= 2")
    stride = window_size if stride is None else stride
    if not 1 <= stride <= window_size:
        raise GraphError(f"stride {stride} must be in 1..window_size")
    return stride


def _check_filled(frames: int) -> None:
    if frames < 2:
        raise WindowTooSmall(f"window of {frames} frames, need >= 2")


def build_windows(
    frames: Sequence[CanFrame],
    window_size: int = DEFAULT_WINDOW_SIZE,
    stride: int | None = None,
) -> list[Sequence[CanFrame]]:
    """Slice frames into windows starting at offsets 0, stride, 2*stride, ...

    A trailing window with fewer than window_size frames is dropped so every
    graph obeys the window_size - 1 edge count invariant.
    """
    stride = _checked_stride(window_size, stride)
    windows = []
    for start in range(0, len(frames) - window_size + 1, stride):
        windows.append(frames[start:start + window_size])
    return windows


class SlidingGraph:
    """Message graph of the last window_size arbitration ids, updated in O(1)
    per pushed id with plain Python int and dict operations.

    It keeps a ring of the ids in the window, the edge multiset keyed by
    (src_id, dst_id), and a slot per in-window id: slots maps an id to its
    slot and counts holds each slot's occurrence count (0 for a free slot).
    A slot freed when its id leaves the window is handed to the next new id.
    Pushing into a full ring drops the oldest id and its outgoing edge,
    gives the new id its slot, then adds its incoming edge.

    snapshot renders the window as a MessageGraph; conv_inputs gives the
    convolution inputs in slot order without one. Its first call builds
    slot-indexed convolution state: the binary symmetric matrix with
    self-loops (A_bin + I), the integer degrees, D^-1/2, the normalized
    adjacency and the counts as floats. From then on push updates that
    state where an edge's multiplicity goes 0 <-> 1 or a slot is freed or
    reused, and records the slots it touched; conv_inputs rewrites only
    their rows and columns. A push that adds a slot drops the state, and
    the next conv_inputs builds it again, so a stream that is never scored
    (graphs_from_frames) pays nothing for it.
    """

    def __init__(self, window_size: int = DEFAULT_WINDOW_SIZE):
        _checked_stride(window_size, None)
        self.window_size = window_size
        self.ids: deque[int] = deque(maxlen=window_size)
        self.edges: dict[tuple[int, int], int] = {}
        self.slots: dict[int, int] = {}
        self.counts: list[int] = []
        self.free: list[int] = []
        # convolution state in slot order, None until conv_inputs builds it
        self._sym: Matrix | None = None
        self._deg: list[int] = []
        self._inv_sqrt: Matrix | None = None
        self._adj: Matrix | None = None
        self._fcounts: Matrix | None = None
        self._dirty: set[int] = set()  # slots whose row and column changed

    def push(self, arb_id: int) -> None:
        ids, edges, slots, counts = self.ids, self.edges, self.slots, self.counts
        sym = self._sym
        if len(ids) == self.window_size:
            oldest = ids[0]
            key = (oldest, ids[1])
            mult = edges[key] - 1
            if mult:
                edges[key] = mult
            else:
                del edges[key]
                if sym is not None:
                    self._toggle(oldest, ids[1], 0)
            slot = slots[oldest]
            left = counts[slot] - 1
            counts[slot] = left
            if sym is not None:
                self._fcounts[slot] = left
            if not left:
                del slots[oldest]
                self.free.append(slot)
                if sym is not None:  # its edges are gone: only the self-loop is left
                    self._self_loop(slot, 0)
        slot = slots.get(arb_id)
        if slot is None:
            if self.free:
                slot = self.free.pop()
                if sym is not None:
                    self._self_loop(slot, 1)
            else:
                slot = len(counts)
                counts.append(0)
                self._sym = sym = None  # the slot count grew: rebuild in full
            slots[arb_id] = slot
        counts[slot] += 1
        if sym is not None:
            self._fcounts[slot] = counts[slot]
        if ids:
            key = (ids[-1], arb_id)
            mult = edges.get(key)
            if mult:
                edges[key] = mult + 1
            else:
                edges[key] = 1
                if sym is not None:
                    self._toggle(ids[-1], arb_id, 1)
        ids.append(arb_id)

    def _toggle(self, src_id: int, dst_id: int, bit: int) -> None:
        """The edge src_id -> dst_id came (bit 1) or went (bit 0): set its
        entries of the binary symmetric matrix, unless the reverse edge
        still holds them. A self-edge moves the diagonal between 1 and 2."""
        if src_id != dst_id and (dst_id, src_id) in self.edges:
            return
        a, b = self.slots[src_id], self.slots[dst_id]
        step = 1 if bit else -1
        self._deg[a] += step
        if a == b:
            self._sym[a, a] = 1 + bit
        else:
            self._sym[a, b] = self._sym[b, a] = bit
            self._deg[b] += step
            self._dirty.add(b)
        self._dirty.add(a)

    def _self_loop(self, slot: int, bit: int) -> None:
        """A slot is freed (bit 0, its edges already gone) or reused (1)."""
        self._sym[slot, slot] = bit
        self._deg[slot] = bit
        self._dirty.add(slot)

    def snapshot(self, attacked: bool, window_index: int = 0) -> MessageGraph:
        """The ids now in the ring as a MessageGraph: nodes in order of first
        position, edges in node-index terms."""
        ids, slots, counts = self.ids, self.slots, self.counts
        _check_filled(len(ids))
        node_ids = list(dict.fromkeys(ids))
        index = {arb_id: k for k, arb_id in enumerate(node_ids)}
        edges = {(index[src], index[dst]): mult
                 for (src, dst), mult in self.edges.items()}
        return _message_graph(node_ids, edges,
                              [counts[slots[arb_id]] for arb_id in node_ids],
                              index[ids[-1]], attacked, window_index)

    def conv_inputs(self) -> tuple[Matrix, Matrix, int]:
        """(adjacency, features, live node count) of the window in slot order:
        row s is the id in slot s, and a free slot's rows are all zero. Under
        the slot permutation they equal conv_adjacency and node_features of
        the snapshot, and they are bit-equal to _adjacency and _features of
        the slots. The adjacency is updated in place, only in the rows and
        columns of the slots pushes touched; both arrays are valid until the
        next push."""
        _check_filled(len(self.ids))
        if 2 * len(self.slots) < len(self.counts):
            self._renumber()
        if self._sym is None:
            self._rebuild()
        elif self._dirty:
            self._update()
        ids, slots = self.ids, self.slots
        return (self._adj, _features(self._fcounts, slots[ids[0]], slots[ids[-1]]),
                len(slots))

    def _renumber(self) -> None:
        """Number the live ids 0..n-1 once more than half the slots are free,
        so a burst of distinct ids does not pad every later window to its
        size. The convolution state is dropped, to be rebuilt."""
        slots, counts = self.slots, self.counts
        self.counts = [counts[slot] for slot in slots.values()]
        self.slots = {arb_id: k for k, arb_id in enumerate(slots)}
        self.free = []
        self._sym = None

    def _rebuild(self) -> None:
        """Build the convolution state from the edges and slots with
        _adjacency's arithmetic: free slots get no self-loop."""
        slots, counts = self.slots, self.counts
        src = [slots[arb_id] for arb_id, _ in self.edges]
        dst = [slots[arb_id] for _, arb_id in self.edges]
        self._sym, self._inv_sqrt, self._adj = _adjacency_parts(
            src, dst, len(counts), list(slots.values()))
        self._deg = self._sym.sum(axis=1).astype(np.int64).tolist()
        self._fcounts = np.array(counts, dtype=np.float64)
        self._dirty.clear()

    def _update(self) -> None:
        """Rewrite the rows and columns of the touched slots with the
        elementwise products _adjacency computes, so the bits match a
        rebuild. Only the rewritten entries are checked for finiteness: every
        other entry was checked when it was last written."""
        sym, inv_sqrt, adj, deg = self._sym, self._inv_sqrt, self._adj, self._deg
        dirty = self._dirty
        for s in dirty:
            inv_sqrt[s] = 1.0 / math.sqrt(deg[s]) if deg[s] else 0.0
        for s in dirty:
            row = adj[s]
            np.multiply(sym[s], inv_sqrt[s], out=row)
            np.multiply(row, inv_sqrt, out=row)
            col = adj[:, s]
            np.multiply(sym[:, s], inv_sqrt, out=col)
            np.multiply(col, inv_sqrt[s], out=col)
            # A NaN or Inf in either vector makes their dot product NaN or
            # Inf (Inf times 0 is NaN): one call checks both, where two
            # check_finite calls cost more than checking all of adj.
            if not math.isfinite(row @ col):
                raise FiniteViolation("adjacency contains NaN or Inf")
        dirty.clear()


def _adjacency(src, dst, size: int, live=slice(None)) -> Matrix:
    """The one adjacency routine: D^-1/2 (A_bin + I) D^-1/2 over size nodes
    of the edges src[k] -> dst[k], given as node indices, with self-loops on
    the live nodes only, so rows not in live stay zero."""
    return _adjacency_parts(src, dst, size, live)[2]


def _adjacency_parts(src, dst, size: int,
                     live=slice(None)) -> tuple[Matrix, Matrix, Matrix]:
    """(A_bin + I, D^-1/2 as a vector, adjacency) of _adjacency."""
    sym = np.zeros((size, size), dtype=np.float64)
    sym[src, dst] = 1.0
    sym[dst, src] = 1.0
    sym.reshape(-1)[::size + 1][live] += 1.0  # self-loops, on the diagonal's view
    inv_sqrt = np.zeros(size, dtype=np.float64)
    inv_sqrt[live] = 1.0 / np.sqrt(sym.sum(axis=1)[live])
    adjacency = sym * inv_sqrt[:, None] * inv_sqrt[None, :]
    check_finite(adjacency, "adjacency")
    return sym, inv_sqrt, adjacency


def _message_graph(node_ids: list[int], edges: dict[tuple[int, int], int], counts,
                   last: int, attacked: bool, window_index: int) -> MessageGraph:
    """A window's MessageGraph from each node's occurrence count: that is the
    node's in- and out-degree, less one in-degree for the first frame's node
    (node 0) and one out-degree for the last frame's (node last)."""
    in_deg = np.array(counts, dtype=np.int64)
    out_deg = in_deg.copy()
    in_deg[0] -= 1
    out_deg[last] -= 1
    return MessageGraph(window_index, node_ids, edges, in_deg, out_deg,
                        ATTACKED if attacked else ATTACK_FREE,
                        sum(edges.values()) + 1)  # one edge per consecutive pair


def _features(counts, first_slot: int, last_slot: int) -> Matrix:
    """node_features from per-slot occurrence counts: each count is the
    slot's in- and out-degree, less one in-degree for the first frame's slot
    and one out-degree for the last frame's."""
    feats = np.array((counts, counts), dtype=np.float64)
    feats[0, first_slot] -= 1.0
    feats[1, last_slot] -= 1.0
    # both degree sums are window size - 1 >= 1, so each column max is > 0
    feats /= feats.max(axis=1, keepdims=True)
    return feats.T


class WindowGraph:
    """Message graph of one whole window of arbitration ids, numbered: node k
    is the k-th distinct id in first-position order, node_ids lists them and
    pos holds each frame's node. counts (each node's occurrences) and the
    edges come from pos with numpy. snapshot and conv_inputs equal those of
    a SlidingGraph into which the same ids were pushed one by one."""

    def __init__(self, node_ids: list[int], pos: Sequence[int]):
        _check_filled(len(pos))
        self.node_ids = node_ids
        self.pos = np.array(pos, dtype=np.intp)
        self.counts = np.bincount(self.pos)

    def snapshot(self, attacked: bool, window_index: int = 0) -> MessageGraph:
        """The window as a MessageGraph, edges in order of first position."""
        n, pos = len(self.node_ids), self.pos
        codes, first, mult = np.unique(pos[:-1] * n + pos[1:],
                                       return_index=True, return_counts=True)
        order = np.argsort(first)
        src, dst = np.divmod(codes[order], n)
        edges = dict(zip(zip(src.tolist(), dst.tolist()), mult[order].tolist()))
        return _message_graph(list(self.node_ids), edges, self.counts, pos[-1],
                              attacked, window_index)

    def conv_inputs(self) -> tuple[Matrix, Matrix, int]:
        """(adjacency, features, node count) in node order: conv_adjacency
        and node_features of the snapshot."""
        n, pos = len(self.node_ids), self.pos
        return _adjacency(pos[:-1], pos[1:], n), _features(self.counts, 0, pos[-1]), n


def graph_from_ids(
    ids: Sequence[int],
    attacked: bool,
    window_index: int = 0,
) -> MessageGraph:
    """Build a MessageGraph from a window's arbitration-id sequence."""
    index: dict[int, int] = {}
    pos = [index.setdefault(arb_id, len(index))
           for arb_id in np.asarray(ids, dtype=np.int64).tolist()]
    return WindowGraph(list(index), pos).snapshot(attacked, window_index)


def build_graph(window: Sequence[CanFrame], window_index: int = 0) -> MessageGraph:
    """One window of frames to its message graph; attacked iff any frame is
    labeled injected."""
    ids = [f.arbitration_id for f in window]
    attacked = any(f.label is not None for f in window)
    return graph_from_ids(ids, attacked, window_index)


def sliding_windows(
    frames: Iterable[CanFrame] | Iterable[Record],
    window_size: int = DEFAULT_WINDOW_SIZE,
    stride: int | None = None,
) -> Iterator[tuple[SlidingGraph | WindowGraph, int, bool, int, int]]:
    """Yield (graph, window_index, attacked, first_timestamp_us,
    last_timestamp_us) for each window of build_windows as soon as its last
    frame arrives, in one pass over the records of frames (as_records; a
    stream of records is read as is). When windows overlap, each id is
    pushed once into one SlidingGraph and graph is that live graph, holding
    the window until the next item is requested: take its snapshot or
    conv_inputs before then. When stride equals window_size, windows share
    no frame, so each window's ids are numbered as they arrive and graph is
    a WindowGraph built from them on the window's last frame. Indices are
    consecutive, a window is attacked iff any of its frames is injected, and
    no partial window is yielded. A bad window_size or stride raises on the
    first next(), before any frame is read."""
    stride = _checked_stride(window_size, stride)
    whole = stride == window_size
    graph = None if whole else SlidingGraph(window_size)
    index: dict[int, int] = {}  # whole windows: id -> node, in first-position order
    pos: list[int] = []  # whole windows: each frame's node
    times: deque[int] = deque(maxlen=window_size)
    last_injected = -window_size  # position of the latest injected frame
    for position, (timestamp_us, arb_id, label) in enumerate(as_records(frames)):
        times.append(timestamp_us)
        if whole:
            pos.append(index.setdefault(arb_id, len(index)))
        else:
            graph.push(arb_id)
        if label is not None:
            last_injected = position
        start = position + 1 - window_size
        if start >= 0 and start % stride == 0:
            if whole:
                graph = WindowGraph(list(index), pos)
                index, pos = {}, []
            yield graph, start // stride, last_injected >= start, times[0], timestamp_us


def graphs_from_frames(
    frames: Iterable[CanFrame] | Iterable[Record],
    window_size: int = DEFAULT_WINDOW_SIZE,
    stride: int | None = None,
) -> list[MessageGraph]:
    """The graphs of build_windows + build_graph, from one sliding pass over
    frames or their records."""
    return [graph.snapshot(attacked, index) for graph, index, attacked, _, _
            in sliding_windows(frames, window_size, stride)]


def node_features(graph: MessageGraph) -> Matrix:
    """n x 2 feature matrix: row i is (in_degree, out_degree) of node i, each
    column divided by its max (a column whose max is 0 stays zero). It is the
    transpose of a (2, n) array, as _features is: BLAS sums A @ X in an order
    set by the layout, and this keeps predict and detect bit-equal."""
    feats = np.array((graph.in_degree, graph.out_degree), dtype=np.float64)
    col_max = feats.max(axis=1, keepdims=True)
    np.divide(feats, col_max, out=feats, where=col_max > 0)
    return feats.T


def conv_adjacency(graph: MessageGraph) -> Matrix:
    """Convolution-ready n x n adjacency, the only form the model sees:
    D^-1/2 (A~) D^-1/2, where A~ = A_bin + I, A_bin is the edge set
    symmetrized and binarized (multiplicities dropped) and D holds the row
    sums of A~. I is added after binarizing, so a node with a self-edge (an
    id repeated in consecutive frames) has diagonal 2 in A~, others 1. The
    self-loops keep every node's own features in its update and the
    normalization keeps high-degree hubs from scaling their neighbours.
    It is _adjacency, the one adjacency routine, over the graph's edges."""
    ends = np.fromiter(chain.from_iterable(graph.edges), np.intp, 2 * len(graph.edges))
    return _adjacency(ends[0::2], ends[1::2], graph.num_nodes)


def prepare_graph(graph: MessageGraph) -> tuple[Matrix, Matrix, int]:
    """(conv_adjacency, node_features, label) of a graph: what training
    batches and what inference passes to gcn.probability."""
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


LABEL_TEXT = {ATTACK_FREE: "attack_free", ATTACKED: "attacked"}
_TEXT_LABEL = {v: k for k, v in LABEL_TEXT.items()}


def dump_graphs(path: str | Path, graphs: Iterable[MessageGraph]) -> int:
    """Write graphs to a file as JSON lines; returns the number written.

    Record fields: window_index, window_size, nodes (hex id strings in node
    order), edges ([src, dst, multiplicity] triples), label.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for g in graphs:
            record = {
                "window_index": g.window_index,
                "window_size": g.window_size,
                "nodes": [f"0x{arb_id:x}" for arb_id in g.node_ids],
                "edges": sorted([s, d, m] for (s, d), m in g.edges.items()),
                "label": LABEL_TEXT[g.label],
            }
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write("\n")
            count += 1
    return count


def _int_at_least(value, low: int, what: str) -> int:
    if type(value) is not int or value < low:  # bools are not counts
        raise ValueError(f"{what} {value!r} is not an int >= {low}")
    return value


_HEX_ID = re.compile(r"0x[0-9a-fA-F]+")


def _node_id(text) -> int:
    """A dump's node id: 0x and hex digits, at most EXTENDED_ID_MAX."""
    if not _HEX_ID.fullmatch(text) or int(text, 16) > EXTENDED_ID_MAX:
        raise ValueError(f"node id {text!r} is not 0x<hex> <= 0x{EXTENDED_ID_MAX:x}")
    return int(text, 16)


def _graph_from_record(line: str) -> MessageGraph:
    """One dump record as a MessageGraph; a record that no window could give
    (bad counts, a node id no log line can hold, a repeated node or edge, a
    node no edge touches, multiplicities not summing to window_size - 1)
    raises ValueError, KeyError, IndexError or TypeError."""
    rec = json.loads(line)
    window_size = _int_at_least(rec["window_size"], 2, "window_size")
    node_ids = [_node_id(s) for s in rec["nodes"]]
    n = len(node_ids)
    if len(set(node_ids)) != n:
        raise ValueError("repeated node id")
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
    if not (in_deg + out_deg).all():
        raise ValueError("a node has no edge")
    return MessageGraph(
        window_index=_int_at_least(rec["window_index"], 0, "window_index"),
        node_ids=node_ids,
        edges=edges,
        in_degree=in_deg,
        out_degree=out_deg,
        label=_TEXT_LABEL[rec["label"]],
        window_size=window_size,
    )


def read_graphs(path: str | Path) -> Iterator[MessageGraph]:
    """Yield the MessageGraph of each record of a JSON-lines graph dump file
    as its line is read; a line that is not a valid record (undecodable bytes
    included) raises MalformedGraphRecord naming it."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                graph = _graph_from_record(line)
            except (ValueError, KeyError, IndexError, TypeError) as err:
                raise MalformedGraphRecord(
                    f"graph dump line {line_no}: {type(err).__name__}: {err}"
                ) from err
            yield graph


def load_graphs(path: str | Path) -> list[MessageGraph]:
    """read_graphs as a list."""
    return list(read_graphs(path))
