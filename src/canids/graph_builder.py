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
sliding_windows is the one windowing routine: graphs_from_frames snapshots
each window it yields and detect.verdicts scores each from its conv_inputs, so
both cost O(frames) at any stride. It picks one of two loops by the stride
before it reads a record, and they build graphs with the same results:

- Overlapping windows (stride < window_size) go through one SlidingGraph. It
  keeps the last window_size ids, the edge multiset and a slot with an
  occurrence count per in-window id, and updates them in O(1) per pushed id
  with Python int and dict operations. Its conv_inputs give the window's
  convolution inputs in slot order without a snapshot. Once called, it keeps
  the binary adjacency (A_bin + I) and the counts in slot order and flips
  the binary entries in place where a push changes the edge support; the
  next conv_inputs renormalizes the matrix if any entry changed. It rebuilds
  the binary matrix in full when the slot count grows or the slots are
  renumbered.
- Windows that share no frame (stride == window_size) are built whole: the
  loop takes a window's first timestamp from its first record and numbers
  its ids in a dict as its records arrive, with no per-record window
  arithmetic, and on the window's last record WindowGraph(node_ids, pos)
  takes the degrees from bincount and counts the edges over consecutive
  pairs. graph_from_ids numbers an id sequence the same way and builds the
  same WindowGraph.

Every window loop refuses a window size that is not an int >= 2 with a
GraphError before it reads a record, then checks its stride with
checked_stride, which also admits the CLI's not-yet-known window size (None).
Both builders share one counts-to-degrees rule (_degrees, also behind
_message_graph) and one featurization (_features, also behind
node_features). One routine, _normalized, normalizes every convolution
adjacency: _adjacency (_normalized of _binary) gives WindowGraph's and
conv_adjacency's, which prepare_graph takes for training, inference and
dumped graphs, and SlidingGraph renormalizes its in-place binary matrix with
it, so the two agree bit for bit. build_windows and build_graph slice
and build from scratch: the reference the loop is tested against.

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
import operator
import re
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .can_log import EXTENDED_ID_MAX, CanFrame, Record, as_records
from .kernel import Matrix, check_finite

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


def _window_size(window_size) -> int:
    """window_size as an int, once it is an integer >= 2."""
    try:
        size = operator.index(window_size)
    except TypeError:
        raise GraphError(f"window_size {window_size!r} must be an int >= 2") from None
    if size < 2:
        raise WindowTooSmall(f"window_size {size} must be >= 2")
    return size


def checked_stride(window_size: int | None, stride: int | None) -> int | None:
    """The stride, window_size when None, once window_size is an int >= 2 and
    stride in 1..window_size; a window_size of None (a dump not yet read)
    bounds only below. The window loops take no None: they check
    _window_size first."""
    if window_size is not None:
        window_size = _window_size(window_size)
    stride = window_size if stride is None else stride
    if stride is not None and not 1 <= stride <= (window_size or stride):
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
    window_size = _window_size(window_size)
    stride = checked_stride(window_size, stride)
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
    self-loops (A_bin + I) and the counts as floats. From then on push
    flips the matrix's entries where an edge's multiplicity goes 0 <-> 1 or
    a slot is freed or reused, and marks it changed; conv_inputs
    renormalizes a changed matrix with _normalized, the routine behind
    _adjacency, and reuses the last adjacency otherwise. A push that adds
    a slot drops the state, and the next conv_inputs builds it again, so a
    stream that is never scored (graphs_from_frames) pays nothing for it.
    """

    def __init__(self, window_size: int = DEFAULT_WINDOW_SIZE):
        self.window_size = window_size = _window_size(window_size)
        self.ids: deque[int] = deque(maxlen=window_size)
        self.edges: dict[tuple[int, int], int] = {}
        self.slots: dict[int, int] = {}
        self.counts: list[int] = []
        self.free: list[int] = []
        # convolution state in slot order, None until conv_inputs builds it
        self._sym: Matrix | None = None
        self._adj: Matrix | None = None
        self._fcounts: Matrix | None = None
        self._changed = False  # _sym differs from what _adj was normalized from

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
        if a == b:
            self._sym[a, a] = 1 + bit
        else:
            self._sym[a, b] = self._sym[b, a] = bit
        self._changed = True

    def _self_loop(self, slot: int, bit: int) -> None:
        """A slot is freed (bit 0, its edges already gone) or reused (1)."""
        self._sym[slot, slot] = bit
        self._changed = True

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
        the snapshot, and they are bit-equal to _adjacency and
        _features(_degrees(...)) of the slots. The adjacency is renormalized
        from the binary matrix only when a push since the last call changed
        it; both arrays are valid until the next push."""
        _check_filled(len(self.ids))
        if 2 * len(self.slots) < len(self.counts):
            self._renumber()
        if self._sym is None:
            self._rebuild()
        if self._changed:
            self._adj = _normalized(self._sym)
            self._changed = False
        ids, slots = self.ids, self.slots
        return (self._adj,
                _features(_degrees(self._fcounts, slots[ids[0]], slots[ids[-1]],
                                   np.float64)),
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
        """Build the binary matrix from the edges and slots as _adjacency
        does, free slots with no self-loop, and the counts as floats."""
        slots, counts = self.slots, self.counts
        self._sym = _binary([slots[arb_id] for arb_id, _ in self.edges],
                            [slots[arb_id] for _, arb_id in self.edges],
                            len(counts), list(slots.values()))
        self._fcounts = np.array(counts, dtype=np.float64)
        self._changed = True


def _adjacency(src, dst, size: int, live=slice(None)) -> Matrix:
    """The one adjacency routine: D^-1/2 (A_bin + I) D^-1/2 over size nodes
    of the edges src[k] -> dst[k], given as node indices, with self-loops on
    the live nodes only, so rows not in live stay zero."""
    return _normalized(_binary(src, dst, size, live))


def _binary(src, dst, size: int, live=slice(None)) -> Matrix:
    """A_bin + I of _adjacency: the edges symmetrized and binarized, then a
    self-loop on each live node."""
    sym = np.zeros((size, size), dtype=np.float64)
    sym[src, dst] = 1.0
    sym[dst, src] = 1.0
    sym.reshape(-1)[::size + 1][live] += 1.0  # self-loops, on the diagonal's view
    return sym


def _normalized(sym: Matrix) -> Matrix:
    """D^-1/2 sym D^-1/2, D the row sums of sym, entry (i, j) computed as
    (sym[i, j] * d_i) * d_j; a zero row (a free slot's) gets d_i = 0."""
    deg = sym.sum(axis=1)
    deg[deg == 0] = np.inf  # 1 / sqrt(inf) is 0
    inv_sqrt = 1.0 / np.sqrt(deg)
    adjacency = sym * inv_sqrt[:, None]
    adjacency *= inv_sqrt
    check_finite(adjacency, "adjacency")
    return adjacency


def _degrees(counts, first: int, last: int, dtype) -> np.ndarray:
    """(2, n) in- and out-degrees from each node's (or slot's) occurrence count:
    less one in-degree for the first frame's node, one out for the last's."""
    degrees = np.array((counts, counts), dtype=dtype)
    degrees[0, first] -= 1
    degrees[1, last] -= 1
    return degrees


def _message_graph(node_ids: list[int], edges: dict[tuple[int, int], int], counts,
                   last: int, attacked: bool, window_index: int) -> MessageGraph:
    """A window's MessageGraph from each node's occurrence count; node 0 is
    the first frame's and node last the last frame's."""
    in_deg, out_deg = _degrees(counts, 0, last, np.int64)
    return MessageGraph(window_index, node_ids, edges, in_deg, out_deg,
                        ATTACKED if attacked else ATTACK_FREE,
                        sum(edges.values()) + 1)  # one edge per consecutive pair


def _features(degrees: Matrix) -> Matrix:
    """n x 2 features from (2, n) float64 degrees, each row divided in place
    by its max, which is > 0 as every degree sum is window_size - 1 >= 1. It
    is the (2, n) array transposed: BLAS sums A @ X in an order set by the
    layout, and one layout keeps predict and detect bit-equal."""
    degrees /= degrees.max(axis=1, keepdims=True)
    return degrees.T


class WindowGraph:
    """Message graph of one whole window of arbitration ids, numbered: node k
    is the k-th distinct id in first-position order, node_ids lists them and
    pos holds each frame's node. counts (each node's occurrences) come from
    pos with bincount, and the snapshot's edges from its consecutive pairs.
    snapshot and conv_inputs equal those of a SlidingGraph into which the
    same ids were pushed one by one."""

    def __init__(self, node_ids: list[int], pos: Sequence[int]):
        _check_filled(len(pos))
        self.node_ids = node_ids
        self.pos = np.array(pos, dtype=np.intp)
        self.counts = np.bincount(self.pos)

    def snapshot(self, attacked: bool, window_index: int = 0) -> MessageGraph:
        """The window as a MessageGraph, edges in order of first position."""
        pos = self.pos.tolist()
        edges = dict(Counter(zip(pos, pos[1:])))
        return _message_graph(list(self.node_ids), edges, self.counts, pos[-1],
                              attacked, window_index)

    def conv_inputs(self) -> tuple[Matrix, Matrix, int]:
        """(adjacency, features, node count) in node order: conv_adjacency
        and node_features of the snapshot."""
        n, pos = len(self.node_ids), self.pos
        return (_adjacency(pos[:-1], pos[1:], n),
                _features(_degrees(self.counts, 0, pos[-1], np.float64)), n)


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
    stream of records is read as is), reading no record past it. Indices are
    consecutive, a window is attacked iff any of its frames is injected, and
    no partial window is yielded. A bad window_size or stride raises on the
    first next(), before any frame is read.

    graph is a WindowGraph when stride equals window_size, and otherwise one
    live SlidingGraph that holds the window only until the next item is
    requested: take its snapshot or conv_inputs before then. The module
    docstring describes the two loops."""
    window_size = _window_size(window_size)
    stride = checked_stride(window_size, stride)
    records = as_records(frames)
    window_index = 0
    if stride == window_size:
        for first_us, arb_id, label in records:
            index = {arb_id: 0}  # id -> node, in first-position order
            pos = [0]  # each record's node
            append = pos.append
            attacked = label is not None
            for last_us, arb_id, label in islice(records, window_size - 1):
                append(index.setdefault(arb_id, len(index)))
                if label is not None:
                    attacked = True
            if len(pos) < window_size:
                return
            yield WindowGraph(list(index), pos), window_index, attacked, first_us, last_us
            window_index += 1
        return
    graph = SlidingGraph(window_size)
    push = graph.push
    times: deque[int] = deque(maxlen=window_size)
    left = window_size  # records until the next window's last one
    last_injected = -window_size  # position of the latest injected record
    for position, (timestamp_us, arb_id, label) in enumerate(records):
        times.append(timestamp_us)
        push(arb_id)
        if label is not None:
            last_injected = position
        left -= 1
        if not left:
            yield (graph, window_index, position - last_injected < window_size,
                   times[0], timestamp_us)
            window_index += 1
            left = stride


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
    column divided by its max; _features of the graph's degrees."""
    return _features(np.array((graph.in_degree, graph.out_degree), dtype=np.float64))


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
