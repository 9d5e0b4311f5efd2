"""Numeric checks and seeded randomness for the GCN.

What the GCN's forward pass does not inline: finiteness checks, row softmax
and inverted dropout masks. softmax_rows takes a plain 2-D float64 array and
rejects NaN/Inf input instead of propagating it. segment_mean has no pipeline
caller: it stays only because perfbench/spans.py names it.

Randomness comes from numpy's PCG64 generator seeded with a 64-bit integer;
the algorithm is pinned so seeded streams (and therefore test vectors and
trained models) stay stable.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray


class KernelError(ValueError):
    """Base class for numeric kernel errors."""


class ShapeMismatch(KernelError):
    pass


class FiniteViolation(KernelError):
    pass


class EmptySegment(KernelError):
    pass


class SegmentOutOfRange(KernelError):
    pass


class BadProbability(KernelError):
    pass


def make_rng(seed: int | np.random.SeedSequence | np.random.Generator) -> np.random.Generator:
    """PCG64 generator from a seed; passes an existing Generator through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def as_matrix(values, name: str = "matrix") -> Matrix:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {m.shape}")
    check_finite(m, name)
    return m


def check_finite(m: Matrix, name: str = "matrix") -> None:
    if not np.isfinite(m).all():  # the method skips np.all's Python dispatch
        raise FiniteViolation(f"{name} contains NaN or Inf")


def softmax_rows(m) -> Matrix:
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    m = as_matrix(m)
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def segment_mean(m, segments, num_segments: int) -> Matrix:
    """Mean of m's rows per segment; segments must be sorted and cover
    0..num_segments-1 with no empty segment."""
    m = as_matrix(m)
    seg = np.asarray(segments, dtype=np.int64)
    if seg.ndim != 1 or seg.shape[0] != m.shape[0]:
        raise ShapeMismatch(
            f"segments length {seg.shape} does not match {m.shape[0]} rows"
        )
    if seg.size == 0:
        raise EmptySegment("no rows to reduce")
    if seg.min() < 0 or seg.max() >= num_segments:
        raise SegmentOutOfRange(
            f"segment ids span {seg.min()}..{seg.max()}, expected 0..{num_segments - 1}"
        )
    if np.any(np.diff(seg) < 0):
        raise SegmentOutOfRange("segment ids must be non-decreasing")
    counts = np.bincount(seg, minlength=num_segments)
    if np.any(counts == 0):
        raise EmptySegment(f"segments {np.flatnonzero(counts == 0).tolist()} are empty")
    boundaries = np.searchsorted(seg, np.arange(num_segments))
    sums = np.add.reduceat(m, boundaries, axis=0)
    return sums / counts[:, None]


def dropout_mask(rng: np.random.Generator, rows: int, cols: int, p: float) -> Matrix:
    """Inverted dropout mask: entries are 0 with probability p, else 1/(1-p),
    so the mask has unit expectation and inference needs no rescaling."""
    if not 0.0 <= p < 1.0:
        raise BadProbability(f"dropout probability {p} not in [0, 1)")
    keep = rng.random((rows, cols)) >= p
    return keep / (1.0 - p)
