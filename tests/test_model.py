"""Model forward/backward tests against the finite-difference oracle,
plus checkpoint format round-trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2ssl.cli import parse_config
from d2ssl.errors import ConfigurationError, DimensionError, FormatError
from d2ssl.model import (
    CHECKPOINT_MAGIC,
    ModelParams,
    Workspace,
    _act,
    _act_grad,
    backward,
    forward,
    forward_features,
    forward_logits,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from d2ssl.numerics import seeded_rng
from gradient_oracle import numeric_gradient


def small_params(activation="tanh", seed=0):
    return init_params([2, 5, 3, 4], activation, seeded_rng(seed))


def grads_of(params, x, g):
    """backward's gradients for logit gradient g of batch x, through a
    workspace of the batch, as the trainers call it."""
    ws = Workspace(params, len(x))
    trace = forward(params, x, ws)
    ws.dl[...] = g
    return backward(params, trace, params.zeros(), ws)


def test_init_shapes_and_determinism():
    p = small_params()
    assert p.layer_sizes == [2, 5, 3, 4]
    assert p.n_classes == 4
    assert p.layers[0].weight.shape == (2, 5)
    assert p.layers[1].weight.shape == (5, 3)
    assert p.head_w.shape == (3, 4)
    assert all(np.all(l.bias == 0.0) for l in p.layers)
    q = small_params()
    for a, b in zip(p.tensors(), q.tensors()):
        np.testing.assert_array_equal(a, b)


def test_init_validation():
    # init_params trusts its sizes and activation: they are checked where
    # they enter, by parse_config (and by load_checkpoint for a file).
    for bad in ({"layer_sizes": "3"}, {"layer_sizes": "2,0,3"}, {"activation": "sigmoid"}):
        with pytest.raises(ConfigurationError):
            parse_config("", bad)


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
    for x in (np.zeros(3), np.zeros((2, 3))):
        with pytest.raises(DimensionError):
            forward(small_params(), x)


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

    grads = grads_of(params, x, w)
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
    g = seeded_rng(2).standard_normal((3, 4))
    full = grads_of(p, x, g)
    parts = [grads_of(p, x[i:i + 1], g[i:i + 1]) for i in range(3)]
    for k, tensor in enumerate(full.tensors()):
        summed = sum(part.tensors()[k] for part in parts)
        np.testing.assert_allclose(tensor, summed, atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    p = small_params("relu", seed=3)
    path = tmp_path / "model.d2ck"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.layer_sizes == p.layer_sizes
    assert q.activation == "relu"
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


# small_params' checkpoint: magic 4 bytes, header 8, layer-size list 16,
# activation tag 8, tensor data 360 (45 float64), 396 in all.
@pytest.mark.parametrize("cut,message", [
    (7, "truncated checkpoint header: 3 of 8 bytes"),
    (20, "truncated layer-size list: 8 of 16 bytes"),
    (31, "truncated activation tag: 3 of 8 bytes"),
    (396 // 2, "truncated tensor data: 162 of 360 bytes"),
], ids=["header", "size-list", "tag", "data"])
def test_checkpoint_truncated(tmp_path, cut, message):
    path = tmp_path / "model.d2ck"
    save_checkpoint(small_params(), path)
    blob = path.read_bytes()
    assert len(blob) == 396
    path.write_bytes(blob[:cut])
    with pytest.raises(FormatError) as info:
        load_checkpoint(path)
    assert str(info.value) == message


def test_head_has_no_bias():
    p = small_params()
    # logits must be exactly feature @ head_w: zero feature => zero logits
    params = ModelParams([3, 4], "tanh", p.head_w.ravel().copy())
    t = forward(params, np.zeros((1, 3)))
    np.testing.assert_array_equal(t.logits, np.zeros((1, 4)))


def _old_trace_and_backward(params, x, g):
    """The parameter gradients as computed before the trace dropped the
    pre-activations: z kept per layer, the activation derivative from z."""
    def act_grad(tag, z, a):
        if tag == "tanh":
            return 1.0 - a * a
        if tag == "relu":
            return (z > 0.0).astype(np.float64)
        return np.ones_like(z)

    pre, act = [], []
    a = x
    for layer in params.layers:
        z = a @ layer.weight + layer.bias
        a = _act(params.activation, z, None)
        pre.append(z)
        act.append(a)
    head_grad = a.T @ g
    delta = g @ params.head_w.T
    grads = [None] * len(params.layers)
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        dz = delta * act_grad(params.activation, pre[i], act[i])
        a_prev = x if i == 0 else act[i - 1]
        grads[i] = (a_prev.T @ dz, dz.sum(axis=0))
        if i > 0:
            delta = dz @ layer.weight.T
    return [t for pair in grads for t in pair] + [head_grad]


@pytest.mark.parametrize("sizes,activation", [
    ([2, 64, 2, 4], "tanh"), ([2, 5, 3, 4], "relu"), ([2, 5, 3, 4], "linear"), ([2, 4], "tanh"),
])
def test_backward_into_buffer_bit_equal_to_old_backward(sizes, activation):
    p = init_params(sizes, activation, seeded_rng(4))
    rng = seeded_rng(5)
    x = rng.standard_normal((120, 2))
    g = rng.standard_normal((120, sizes[-1])) / 120
    old = _old_trace_and_backward(p, x, g)
    out = p.zeros()
    out.flat[:] = np.nan  # every entry must be overwritten
    ws = Workspace(p, len(x))
    trace = forward(p, x, ws)
    ws.dl[...] = g
    assert backward(p, trace, out, ws) is out
    for a, b in zip(old, out.tensors()):
        assert a.tobytes() == b.tobytes()
    for t in out.tensors():
        assert t.base is out.flat


def test_act_grad_from_output_bit_equal_to_old():
    z = np.array([-2.0, -1e-300, -0.0, 0.0, 5e-324, 1.5, np.nan, np.inf, -np.inf])
    out = np.empty_like(z)
    relu = _act("relu", z.copy(), None)
    assert _act_grad("relu", relu, out).tobytes() == (z > 0.0).astype(np.float64).tobytes()
    tanh = _act("tanh", z.copy(), None)
    assert _act_grad("tanh", tanh, out).tobytes() == (1.0 - tanh * tanh).tobytes()
    assert _act_grad("linear", z, out).tobytes() == np.ones_like(z).tobytes()


@pytest.mark.parametrize("sizes", [[2, 5, 3, 4], [2, 4]])
def test_params_are_views_of_one_flat_buffer(tmp_path, sizes):
    p = init_params(sizes, "relu", seeded_rng(3))
    assert p.flat.size == sum(t.size for t in p.tensors())
    assert all(t.base is p.flat for t in p.tensors())
    assert np.concatenate([t.ravel() for t in p.tensors()]).tobytes() == p.flat.tobytes()
    q = p.copy()
    assert all(t.base is q.flat for t in q.tensors()) and not np.shares_memory(q.flat, p.flat)
    assert q.flat.tobytes() == p.flat.tobytes()
    assert (q.layer_sizes, q.activation) == (p.layer_sizes, p.activation)
    save_checkpoint(p, tmp_path / "a.d2ck")
    r = load_checkpoint(tmp_path / "a.d2ck")
    assert all(t.base is r.flat for t in r.tensors()) and r.flat.tobytes() == p.flat.tobytes()
    save_checkpoint(r, tmp_path / "b.d2ck")
    assert (tmp_path / "a.d2ck").read_bytes() == (tmp_path / "b.d2ck").read_bytes()


def test_params_tensors_cannot_be_rebound():
    # A write to flat reaches every tensor only while no tensor is rebound.
    p = small_params()
    for holder, name in [(p, "head_w"), (p, "flat"), (p, "layers"), (p, "activation"),
                         (p.layers[0], "weight"), (p.layers[0], "bias")]:
        with pytest.raises(AttributeError):
            setattr(holder, name, np.zeros(1))
    p.flat[:] = 1.5
    assert all((t == 1.5).all() for t in p.tensors())


@pytest.mark.parametrize("shape", [(0,), (44,), (46,), (90,), (5, 9)])
def test_params_flat_of_wrong_length_raises(shape):
    # [2, 5, 3, 4]: 2*5 + 5 + 5*3 + 3 + 3*4 = 45 parameters
    assert ModelParams([2, 5, 3, 4], "tanh", np.zeros(45)).flat.size == 45
    with pytest.raises(DimensionError, match="45 parameters"):
        ModelParams([2, 5, 3, 4], "tanh", np.zeros(shape))


@pytest.mark.parametrize("sizes", [[2, 5, 3, 4], [2, 4]])
def test_params_zeros_is_a_fresh_buffer_of_the_same_layout(sizes):
    p = init_params(sizes, "relu", seeded_rng(3))
    z = p.zeros()
    assert not np.shares_memory(z.flat, p.flat)
    assert (z.layer_sizes, z.activation) == (p.layer_sizes, p.activation)
    assert [t.shape for t in z.tensors()] == [t.shape for t in p.tensors()]
    assert all(t.base is z.flat for t in z.tensors()) and not z.flat.any()


def _checkpoint_blob(tmp_path):
    path = tmp_path / "model.d2ck"
    save_checkpoint(small_params(), path)
    return path, bytearray(path.read_bytes())


def test_checkpoint_trailing_bytes(tmp_path):
    path, blob = _checkpoint_blob(tmp_path)
    path.write_bytes(bytes(blob) + b"junk")
    with pytest.raises(FormatError, match="4 trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_huge_layer_size_is_truncation(tmp_path):
    path, blob = _checkpoint_blob(tmp_path)
    blob[12 + 4 * 3:12 + 4 * 4] = struct.pack("<I", 4_000_000_000)  # the class count
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="truncated tensor data"):
        load_checkpoint(path)


@pytest.mark.parametrize("tag", [b"sigmoid\x00", b"\xff\xfe\x00\x00\x00\x00\x00\x00"])
def test_checkpoint_unknown_activation_tag(tmp_path, tag):
    path, blob = _checkpoint_blob(tmp_path)
    at = 12 + 4 * 4
    blob[at:at + 8] = tag
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="unknown activation tag"):
        load_checkpoint(path)


@pytest.mark.parametrize("sizes", [[], [4], [2, 0, 4]])
def test_checkpoint_bad_size_list(tmp_path, sizes):
    path = tmp_path / "model.d2ck"
    head = CHECKPOINT_MAGIC + struct.pack("<II", 1, len(sizes))
    path.write_bytes(head + struct.pack(f"<{len(sizes)}I", *sizes) + b"tanh".ljust(8, b"\x00"))
    with pytest.raises(FormatError, match="bad layer sizes"):
        load_checkpoint(path)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_checkpoint_mutated_file_loads_or_raises_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("d2ck") / "model.d2ck"
    save_checkpoint(init_params([2, 3, 2], "tanh", seeded_rng(0)), path)
    blob = bytearray(path.read_bytes())
    kind = data.draw(st.sampled_from(["truncate", "extend", "flip"]))
    if kind == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "extend":
        blob += data.draw(st.binary(min_size=1, max_size=40))
    else:
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except FormatError:
        pass
