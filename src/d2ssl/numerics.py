"""Numerically stable softmax-family primitives and seeded RNG.

Everything operates on float64 numpy arrays. Probability vectors are
expected to sum to one; log-probabilities are preferred over raw
probabilities wherever a log would otherwise be taken, so log(0) never
occurs. When only probabilities are available they are clamped below at
TINY before taking logs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

# Smallest clamp applied before log() when the caller has probabilities only.
TINY = 1e-300


# Inputs of at least two dimensions with fewer classes than this are
# softmaxed class-major. numpy adds up to 7 numbers left to right
# whether they lie along a row or down a column, so the class sums are
# bit-equal in either layout; from 8 on it sums a row pairwise.
_CLASS_MAJOR_BELOW = 8


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max-subtraction."""
    return softmax_pair(z)[0]


def log_softmax(z: np.ndarray) -> np.ndarray:
    """log(softmax(z)) along the last axis without overflow."""
    return softmax_pair(z)[1]


def softmax_buffers(shape) -> tuple[np.ndarray, np.ndarray]:
    """Two empty arrays laid out as softmax_pair returns its results for
    a C-ordered input of this shape, to pass back to it as out."""
    n = shape[-1]
    if len(shape) > 1 and n < _CLASS_MAJOR_BELOW:
        rows = math.prod(shape[:-1])
        return np.empty((n, rows)).T.reshape(shape), np.empty((n, rows)).T.reshape(shape)
    return np.empty(shape), np.empty(shape)


def softmax_pair(
    z: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(softmax(z), log_softmax(z)) from one shared max, shift, exp and sum.

    A batch of fewer than _CLASS_MAJOR_BELOW classes is worked on as a
    (classes, rows) array, so the max and the sum over the classes are a
    few passes over whole rows instead of one tiny reduction per sample;
    the results are transposed views shaped like z, bit-equal to the
    row-major computation. z itself is never modified. out, a 2-D pair
    from softmax_buffers(z.shape), receives the results instead of new
    arrays.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise DimensionError("softmax of empty vector")
    n = z.shape[-1]
    class_major = z.ndim > 1 and n < _CLASS_MAJOR_BELOW
    if out is None:  # row-major results keep z's layout, and so its sums
        out = softmax_buffers(z.shape) if class_major else (np.empty_like(z), np.empty_like(z))
    elif out[0].shape != z.shape or out[1].shape != z.shape:
        raise DimensionError(f"softmax buffers {out[0].shape} for input {z.shape}")
    p, log_p = out
    if class_major:
        p, log_p = p.reshape(-1, n).T, log_p.reshape(-1, n).T
        np.copyto(log_p, z.reshape(-1, n).T)
        total = log_p.max(axis=0)
        log_p -= total
        np.exp(log_p, out=p)
        p.sum(axis=0, out=total)
    else:
        total = z.max(axis=-1, keepdims=True)
        np.subtract(z, total, out=log_p)
        np.exp(log_p, out=p)
        p.sum(axis=-1, keepdims=True, out=total)
    p /= total
    np.log(total, out=total)
    log_p -= total
    return out


def entropy(p: np.ndarray, log_p: np.ndarray | None = None) -> np.ndarray:
    """-sum p*log(p) along the last axis, with 0*log(0) = 0.

    Pass log_p when log-probabilities are already available (exact);
    otherwise p is clamped at TINY before the log.
    """
    p = np.asarray(p, dtype=np.float64)
    if log_p is None:
        log_p = np.log(np.maximum(p, TINY))
    return -np.where(p > 0.0, p * log_p, 0.0).sum(axis=-1)


def kl_divergence(
    log_p: np.ndarray, log_q: np.ndarray, p: np.ndarray | None = None
) -> np.ndarray:
    """KL(p || q) from log-probabilities, along the last axis.

    Pass p = exp(log_p) when the caller already has it.
    """
    log_p = np.asarray(log_p, dtype=np.float64)
    log_q = np.asarray(log_q, dtype=np.float64)
    if log_p.shape[-1] != log_q.shape[-1]:
        raise DimensionError(
            f"KL length mismatch: {log_p.shape[-1]} vs {log_q.shape[-1]}"
        )
    if p is None:
        p = np.exp(log_p)
    return np.where(p > 0.0, p * (log_p - log_q), 0.0).sum(axis=-1)


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream; identical seed, identical sequence.

    PCG64 has period 2^128 and reproduces bit-identically across
    platforms for a fixed numpy major version.
    """
    return np.random.Generator(np.random.PCG64(seed))

