import numpy as np
import pytest

from canids import kernel
from canids.kernel import (
    BadProbability,
    EmptySegment,
    FiniteViolation,
    SegmentOutOfRange,
    ShapeMismatch,
    make_rng,
)


def test_nan_inputs_rejected():
    bad = np.array([[1.0, np.nan]])
    with pytest.raises(FiniteViolation):
        kernel.softmax_rows(bad)
    with pytest.raises(FiniteViolation):
        kernel.softmax_rows([[np.inf, 0.0]])
    with pytest.raises(FiniteViolation):
        kernel.segment_mean(bad, [0], 1)
    with pytest.raises(FiniteViolation):
        kernel.segment_mean([[0.0, 1.0], [-np.inf, 2.0]], [0, 0], 1)
    with pytest.raises(FiniteViolation):
        kernel.check_finite(np.array([[[0.0], [np.nan]]]))


def test_softmax_symmetry_and_stability():
    np.testing.assert_allclose(kernel.softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]])
    np.testing.assert_allclose(kernel.softmax_rows([[1000.0, 1000.0]]), [[0.5, 0.5]])
    np.testing.assert_allclose(
        kernel.softmax_rows([[np.log(1.0), np.log(3.0)]]), [[0.25, 0.75]]
    )


def test_softmax_rows_sum_to_one_across_magnitudes():
    rng = make_rng(4)
    for scale in (1e-8, 1e-3, 1.0, 1e3):
        m = rng.normal(size=(20, 5)) * scale
        out = kernel.softmax_rows(m)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(20), atol=1e-12)
        assert np.all(out >= 0) and np.all(out <= 1)
        if scale <= 1.0:  # huge logit gaps underflow to exact 0
            assert np.all(out > 0) and np.all(out < 1)


def test_segment_mean_single_segment_is_column_mean():
    rng = make_rng(5)
    m = rng.normal(size=(7, 3))
    out = kernel.segment_mean(m, np.zeros(7, dtype=int), 1)
    np.testing.assert_allclose(out, m.mean(axis=0, keepdims=True))


def test_segment_mean_identity_when_singletons():
    rng = make_rng(6)
    m = rng.normal(size=(5, 2))
    out = kernel.segment_mean(m, np.arange(5), 5)
    np.testing.assert_allclose(out, m)


def test_segment_mean_matches_loop_oracle():
    rng = make_rng(7)
    m = rng.normal(size=(11, 4))
    seg = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    out = kernel.segment_mean(m, seg, 3)
    for s in range(3):
        np.testing.assert_allclose(out[s], m[seg == s].mean(axis=0), rtol=1e-12)


def test_segment_mean_errors():
    m = np.ones((4, 2))
    with pytest.raises(EmptySegment):
        kernel.segment_mean(m, [0, 0, 2, 2], 3)  # segment 1 empty
    with pytest.raises(SegmentOutOfRange):
        kernel.segment_mean(m, [0, 0, 1, 3], 3)
    with pytest.raises(SegmentOutOfRange):
        kernel.segment_mean(m, [1, 0, 1, 1], 2)  # not sorted
    with pytest.raises(ShapeMismatch):
        kernel.segment_mean(m, [0, 0], 1)


def test_dropout_mask_p_zero_all_ones():
    mask = kernel.dropout_mask(make_rng(8), 5, 5, 0.0)
    np.testing.assert_array_equal(mask, np.ones((5, 5)))


def test_dropout_mask_zero_fraction():
    mask = kernel.dropout_mask(make_rng(9), 100, 100, 0.5)
    zero_frac = float((mask == 0).mean())
    assert abs(zero_frac - 0.5) < 0.02
    # surviving entries carry the inverse keep probability
    assert np.all((mask == 0) | (mask == 2.0))


def test_dropout_mask_unit_expectation():
    for p in (0.1, 0.5, 0.9):
        mask = kernel.dropout_mask(make_rng(10), 200, 50, p)
        assert abs(mask.mean() - 1.0) < 0.02


def test_dropout_mask_bad_probability():
    rng = make_rng(11)
    with pytest.raises(BadProbability):
        kernel.dropout_mask(rng, 2, 2, 1.0)
    with pytest.raises(BadProbability):
        kernel.dropout_mask(rng, 2, 2, -0.1)


def test_rng_is_reproducible():
    a = make_rng(42).random(10)
    b = make_rng(42).random(10)
    np.testing.assert_array_equal(a, b)
    assert isinstance(make_rng(0).bit_generator, np.random.PCG64)
