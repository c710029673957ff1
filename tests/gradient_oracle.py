"""Central finite differences, the independent oracle the analytic
gradients of the loss and of the MLP are checked against (acceptance
criterion 1, test_model, test_pseudo)."""

import math

import numpy as np

from d2ssl.errors import NumericError


def numeric_gradient(loss_fn, point: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient, the independent oracle itself."""
    point = np.asarray(point, dtype=np.float64)
    flat = point.ravel()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = float(loss_fn(point))
        flat[i] = orig - step
        f_minus = float(loss_fn(point))
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2.0 * step)
    return out.reshape(point.shape)


def gradient_check(loss_fn, point: np.ndarray, analytic: np.ndarray, step: float) -> float:
    """Max relative error between analytic and central-difference
    gradients of a scalar function at a point.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8)
    per coordinate.
    """
    def finite_loss(x):
        value = float(loss_fn(x))
        if not math.isfinite(value):
            raise NumericError("non-finite loss during gradient check")
        return value

    numeric = numeric_gradient(finite_loss, point, step).ravel()
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom, initial=0.0))
