"""Model forward/backward tests against the finite-difference oracle,
plus checkpoint format round-trips."""

import numpy as np
import pytest

from d2ssl.diagnostics import numeric_gradient
from d2ssl.errors import ConfigurationError, DimensionError, FormatError
from d2ssl.model import (
    CHECKPOINT_MAGIC,
    ModelParams,
    backward,
    forward,
    forward_features,
    forward_logits,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from d2ssl.numerics import seeded_rng


def small_params(activation="tanh", seed=0):
    return init_params([2, 5, 3, 4], activation, seeded_rng(seed))


def test_init_shapes_and_determinism():
    p = small_params()
    assert p.layer_sizes == [2, 5, 3, 4]
    assert p.feature_dim == 3 and p.n_classes == 4
    assert p.layers[0].weight.shape == (2, 5)
    assert p.layers[1].weight.shape == (5, 3)
    assert p.head_w.shape == (3, 4)
    assert all(np.all(l.bias == 0.0) for l in p.layers)
    q = small_params()
    for a, b in zip(p.tensors(), q.tensors()):
        np.testing.assert_array_equal(a, b)


def test_init_validation():
    rng = seeded_rng(0)
    with pytest.raises(ConfigurationError):
        init_params([3], "tanh", rng)
    with pytest.raises(ConfigurationError):
        init_params([2, 0, 3], "tanh", rng)
    with pytest.raises(ConfigurationError):
        init_params([2, 3], "sigmoid", rng)


def test_forward_accepts_1d_and_2d():
    p = small_params()
    x = np.array([0.3, -0.7])
    t1 = forward(p, x)
    t2 = forward(p, x[None, :])
    np.testing.assert_allclose(t1.logits, t2.logits)
    assert t1.logits.shape == (1, 4)
    assert t1.prediction.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("sizes,activation", [
    ([2, 5, 3, 4], "tanh"), ([2, 5, 3, 4], "relu"), ([2, 5, 3, 4], "linear"), ([2, 4], "tanh"),
])
def test_inference_forwards_bit_equal_to_forward(sizes, activation):
    p = init_params(sizes, activation, seeded_rng(1))
    x = seeded_rng(2).standard_normal((50, 2))
    trace = forward(p, x)
    assert forward_features(p, x).tobytes() == trace.feature.tobytes()
    assert forward_logits(p, x).tobytes() == trace.logits.tobytes()
    np.testing.assert_array_equal(x, seeded_rng(2).standard_normal((50, 2)))  # input untouched


def test_forward_dim_mismatch():
    with pytest.raises(DimensionError):
        forward(small_params(), np.zeros(3))


def test_backward_shape_mismatch():
    p = small_params()
    trace = forward(p, np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        backward(p, trace, np.zeros((2, 3)))


@pytest.mark.parametrize("activation", ["tanh", "relu", "linear"])
def test_backward_matches_finite_differences(activation):
    # Oracle: central differences of a fixed scalar function of the
    # logits, checked against the manual backward pass.  [DERIVED]
    rng = seeded_rng(7)
    params = init_params([2, 4, 3, 3], activation, rng)
    x = rng.standard_normal((5, 2))
    w = rng.standard_normal((5, 3))  # fixed mixing weights for the scalar

    def scalar_loss(p):
        return float(np.sum(w * forward(p, x).logits))

    trace = forward(params, x)
    grads = backward(params, trace, w)
    for idx, tensor in enumerate(params.tensors()):
        def loss_of(t, idx=idx, tensor=tensor):
            saved = tensor.copy()
            tensor[...] = t
            try:
                return scalar_loss(params)
            finally:
                tensor[...] = saved

        numeric = numeric_gradient(loss_of, tensor.copy(), step=1e-6)
        analytic = grads.tensors()[idx]
        np.testing.assert_allclose(analytic, numeric, atol=1e-5, rtol=1e-5)


def test_backward_sums_over_batch():
    p = small_params()
    x = seeded_rng(1).standard_normal((3, 2))
    trace = forward(p, x)
    g = seeded_rng(2).standard_normal((3, 4))
    full = backward(p, trace, g)
    parts = [backward(p, forward(p, x[i:i + 1]), g[i:i + 1]) for i in range(3)]
    for k, tensor in enumerate(full.tensors()):
        summed = sum(part.tensors()[k] for part in parts)
        np.testing.assert_allclose(tensor, summed, atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    p = small_params("relu", seed=3)
    path = tmp_path / "model.d2ck"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.layer_sizes == p.layer_sizes
    assert q.layers[0].activation == "relu"
    for a, b in zip(p.tensors(), q.tensors()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_magic(tmp_path):
    path = tmp_path / "model.d2ck"
    save_checkpoint(small_params(), path)
    assert path.read_bytes()[:4] == CHECKPOINT_MAGIC == b"D2CK"


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.d2ck"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "model.d2ck"
    save_checkpoint(small_params(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_head_has_no_bias():
    p = small_params()
    # logits must be exactly feature @ head_w: zero feature => zero logits
    params = ModelParams(layers=[], head_w=p.head_w.copy())
    t = forward(params, np.zeros((1, 3)))
    np.testing.assert_array_equal(t.logits, np.zeros((1, 4)))
