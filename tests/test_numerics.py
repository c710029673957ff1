"""Property and example tests for the softmax-family primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from d2ssl import numerics
from d2ssl.errors import DimensionError
from d2ssl.numerics import (
    TINY,
    entropy,
    kl_divergence,
    log_softmax,
    seeded_rng,
    softmax,
    softmax_buffers,
    softmax_pair,
)


def rowmajor_softmax(z):
    """The softmax as computed before the class-major layout: one
    reduction per row."""
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def rowmajor_log_softmax(z):
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def same_bits(a, b) -> bool:
    """Equal shape and equal bytes in C order: NaN payloads and signed
    zeros count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


def logit_vectors(min_len=1, max_len=8):
    return arrays(np.float64, st.integers(min_len, max_len), elements=finite_floats)


@given(logit_vectors())
def test_softmax_is_probability_vector(z):
    p = softmax(z)
    assert np.all(p >= 0.0)
    assert np.isclose(p.sum(), 1.0, atol=1e-12)


@given(logit_vectors(), finite_floats)
def test_softmax_shift_invariant(z, c):
    np.testing.assert_allclose(softmax(z), softmax(z + c), atol=1e-12)


@given(logit_vectors())
def test_log_softmax_consistent_with_softmax(z):
    np.testing.assert_allclose(np.exp(log_softmax(z)), softmax(z), atol=1e-12)


def test_softmax_extreme_logits_no_overflow():
    p = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.isfinite(p).all()
    assert p[0] == pytest.approx(1.0)


def test_softmax_empty_raises():
    with pytest.raises(DimensionError):
        softmax(np.array([]))
    with pytest.raises(DimensionError):
        log_softmax(np.array([]))
    with pytest.raises(DimensionError):
        softmax_pair(np.array([]))


@pytest.mark.parametrize("z", [
    np.array([0.3, -1.2, 2.5, 0.0]),
    seeded_rng(4).standard_normal((50, 7)) * 30.0,
    np.array([[1e4, -1e4, 0.0], [-1e4, -1e4 + 1e-3, -1e4 - 7.0], [1e4, 1e4, 1e4]]),
])
def test_softmax_pair_bit_equal_to_separate_calls(z):
    before = z.copy()
    p, log_p = softmax_pair(z)
    assert np.array_equal(p, softmax(z))
    assert np.array_equal(log_p, log_softmax(z))
    assert same_bits(p, rowmajor_softmax(z))
    assert same_bits(log_p, rowmajor_log_softmax(z))
    assert np.array_equal(z, before)


EDGE_VALUES = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e4, -1e4, 5e-324, -5e-324, 1.5])


def edge_rows(n_classes, rng):
    """Random rows, rows drawn from EDGE_VALUES, and each edge value as a
    whole row and next to ordinary logits."""
    rows = [rng.standard_normal((40, n_classes)) * 20.0,
            rng.choice(EDGE_VALUES, size=(60, n_classes))]
    for value in EDGE_VALUES:
        rows.append(np.full((1, n_classes), value))
        mixed = rng.standard_normal((2, n_classes))
        mixed[0, 0] = mixed[1, -1] = value
        rows.append(mixed)
    signed_zeros = np.zeros((2, n_classes))
    signed_zeros[0, ::2] = signed_zeros[1, 1::2] = -0.0
    rows.append(signed_zeros)
    return np.concatenate(rows)


def layouts(z):
    """z in the layouts callers hand in: C order, F order, a column
    slice of a wider array, a row-strided view, 3-D and a single row."""
    n = z.shape[1]
    wide = np.full((z.shape[0], n + 3), 7.0)
    wide[:, 2:2 + n] = z
    strided = np.repeat(z, 2, axis=0)[::2]
    cut = z.shape[0] - z.shape[0] % 4
    return {
        "C": z, "F": np.asfortranarray(z), "column slice": wide[:, 2:2 + n],
        "row stride": strided, "3-D": z[:cut].reshape(4, -1, n), "1-D": z[5],
        "1 row": z[:1],
    }


@pytest.mark.parametrize("n_classes", range(1, 13))
def test_softmax_family_bit_equal_to_row_major(n_classes):
    z = edge_rows(n_classes, seeded_rng(n_classes))
    with np.errstate(invalid="ignore", over="ignore"):
        for name, x in layouts(z).items():
            before = np.array(x, copy=True)
            p, log_p = softmax_pair(x)
            want_p, want_log_p = rowmajor_softmax(x), rowmajor_log_softmax(x)
            assert same_bits(p, want_p), name
            assert same_bits(log_p, want_log_p), name
            assert same_bits(softmax(x), want_p), name
            assert same_bits(log_softmax(x), want_log_p), name
            assert same_bits(x, before), name


@pytest.mark.parametrize("n_classes", range(1, 13))
def test_softmax_pair_into_buffers_bit_equal_to_row_major(n_classes):
    z = edge_rows(n_classes, seeded_rng(n_classes))
    with np.errstate(invalid="ignore", over="ignore"):
        for name, x in layouts(z).items():
            if n_classes >= numerics._CLASS_MAJOR_BELOW and not x.flags.c_contiguous:
                continue  # row-major sums follow the layout; the buffers are C
            out = softmax_buffers(x.shape)
            for _ in range(2):  # a reused pair is overwritten whole
                p, log_p = softmax_pair(x, out=out)
                assert p is out[0] and log_p is out[1], name
                assert same_bits(p, rowmajor_softmax(x)), name
                assert same_bits(log_p, rowmajor_log_softmax(x)), name
                out[0].fill(np.nan)
                out[1].fill(np.nan)


def test_softmax_pair_rejects_buffers_of_another_shape():
    z = np.zeros((5, 4))
    with pytest.raises(DimensionError):
        softmax_pair(z, out=softmax_buffers((1, 4)))
    with pytest.raises(DimensionError):
        softmax_pair(z, out=(np.empty((5, 4)), np.empty((5, 3))))


@pytest.mark.parametrize("n_classes", [2, 4, 7])
def test_class_major_results_are_views_shaped_like_input(n_classes):
    z = seeded_rng(0).standard_normal((3, 50, n_classes))
    p, log_p = softmax_pair(z)
    assert p.shape == log_p.shape == z.shape
    assert p.strides[-1] == 3 * 50 * 8  # classes are the outer axis


@pytest.mark.parametrize("n_classes", range(2, 8))
def test_reductions_bit_equal_on_class_major_inputs(n_classes):
    rng = seeded_rng(100 + n_classes)
    p, log_p = softmax_pair(rng.standard_normal((300, n_classes)) * 8.0)
    q, log_q = softmax_pair(rng.standard_normal((300, n_classes)) * 8.0)
    assert not p.flags.c_contiguous
    c = np.ascontiguousarray
    assert same_bits(entropy(p, log_p=log_p), entropy(c(p), log_p=c(log_p)))
    assert same_bits(entropy(p), entropy(c(p)))
    assert same_bits(kl_divergence(log_p, log_q), kl_divergence(c(log_p), c(log_q)))
    assert same_bits(kl_divergence(log_p, log_q, p=p),
                     kl_divergence(c(log_p), c(log_q), p=c(p)))


def test_class_major_threshold_is_below_pairwise_summation():
    # numpy adds fewer than 8 numbers left to right in a row and down a
    # column alike; the class-major path relies on it.
    rng = seeded_rng(5)
    for n in range(1, numerics._CLASS_MAJOR_BELOW):
        x = rng.standard_normal((500, n)) * 10.0 ** rng.integers(-8, 8, size=(500, n))
        assert same_bits(x.sum(axis=-1), np.asfortranarray(x).sum(axis=-1))


def test_softmax_batched_rows_independent():
    z = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    p = softmax(z)
    np.testing.assert_allclose(p[0], softmax(z[0]))
    np.testing.assert_allclose(p[1], np.full(3, 1.0 / 3.0))


@given(logit_vectors(min_len=2))
@settings(max_examples=200)
def test_entropy_bounds(z):
    p = softmax(z)
    h = entropy(p, log_p=log_softmax(z))
    n = p.shape[-1]
    assert -1e-12 <= h <= np.log(n) + 1e-12


def test_entropy_zero_times_log_zero():
    # A degenerate one-hot distribution has exactly zero entropy.
    assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0


def test_entropy_uniform_is_log_n():
    assert entropy(np.full(4, 0.25)) == pytest.approx(np.log(4.0), abs=1e-12)


@given(logit_vectors(min_len=2), logit_vectors(min_len=2))
@settings(max_examples=200)
def test_kl_nonnegative(za, zb):
    if za.shape != zb.shape:
        return
    kl = kl_divergence(log_softmax(za), log_softmax(zb))
    assert kl >= -1e-10


@given(logit_vectors(min_len=2))
def test_kl_self_is_zero(z):
    lp = log_softmax(z)
    assert kl_divergence(lp, lp) == pytest.approx(0.0, abs=1e-12)


def test_kl_known_value():
    # KL([0.5,0.5] || [0.25,0.75]) = 0.5 ln 2 + 0.5 ln(2/3)  [DERIVED]
    lp = np.log(np.array([0.5, 0.5]))
    lq = np.log(np.array([0.25, 0.75]))
    expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    assert kl_divergence(lp, lq) == pytest.approx(expected, abs=1e-12)


def test_kl_length_mismatch():
    with pytest.raises(DimensionError):
        kl_divergence(np.zeros(3), np.zeros(4))


def test_seeded_rng_deterministic():
    a = seeded_rng(123).standard_normal(10)
    b = seeded_rng(123).standard_normal(10)
    np.testing.assert_array_equal(a, b)
    c = seeded_rng(124).standard_normal(10)
    assert not np.array_equal(a, c)


def test_tiny_clamp_keeps_entropy_finite():
    h = entropy(np.array([1.0 - 1e-320, 1e-320]))
    assert np.isfinite(h)
    assert TINY > 0.0
