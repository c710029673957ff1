"""Property and example tests for the softmax-family primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from d2ssl.errors import DimensionError
from d2ssl.numerics import (
    TINY,
    check_prob_vector,
    entropy,
    kl_divergence,
    log_softmax,
    seeded_rng,
    softmax,
    softmax_pair,
)

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
    assert np.array_equal(z, before)


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


def test_check_prob_vector():
    check_prob_vector(np.array([0.2, 0.8]))
    with pytest.raises(DimensionError):
        check_prob_vector(np.array([]))
    with pytest.raises(DimensionError):
        check_prob_vector(np.array([0.5, np.nan]))
    with pytest.raises(DimensionError):
        check_prob_vector(np.array([-0.1, 1.1]))
    with pytest.raises(DimensionError):
        check_prob_vector(np.array([0.2, 0.2]))


def test_tiny_clamp_keeps_entropy_finite():
    h = entropy(np.array([1.0 - 1e-320, 1e-320]))
    assert np.isfinite(h)
    assert TINY > 0.0
