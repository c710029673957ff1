"""Small MLP backbone plus a bias-free linear head, with manual backprop.

The backbone maps an input vector to a feature f of dimension D; the
head computes logits = W.T @ f with W of shape (D, N) and no bias term.
Forward keeps every intermediate needed for an exact backward pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, FormatError
from .numerics import softmax_pair

CHECKPOINT_MAGIC = b"D2CK"
CHECKPOINT_VERSION = 1

ACTIVATIONS = ("tanh", "relu", "linear")


def _act(tag: str, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if tag == "tanh":
        return np.tanh(z, out=out)
    if tag == "relu":
        return np.maximum(z, 0.0, out=out)
    if tag == "linear":
        return z
    raise ConfigurationError(f"unknown activation {tag!r}")


def _act_grad(tag: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if tag == "tanh":
        return 1.0 - a * a
    if tag == "relu":
        return (z > 0.0).astype(np.float64)
    if tag == "linear":
        return np.ones_like(z)
    raise ConfigurationError(f"unknown activation {tag!r}")


@dataclass
class Layer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray    # (fan_out,)
    activation: str


@dataclass
class ModelParams:
    layers: list[Layer]
    head_w: np.ndarray  # (D, N), no bias

    @property
    def feature_dim(self) -> int:
        return self.head_w.shape[0]

    @property
    def n_classes(self) -> int:
        return self.head_w.shape[1]

    @property
    def layer_sizes(self) -> list[int]:
        sizes = [self.layers[0].weight.shape[0]] if self.layers else [self.head_w.shape[0]]
        for layer in self.layers:
            sizes.append(layer.weight.shape[1])
        sizes.append(self.head_w.shape[1])
        return sizes

    def tensors(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        out.append(self.head_w)
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(
            layers=[Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers],
            head_w=self.head_w.copy(),
        )


@dataclass
class ForwardTrace:
    inputs: np.ndarray                 # (B, d_in)
    pre_activations: list[np.ndarray]  # per backbone layer, (B, fan_out)
    activations: list[np.ndarray]      # per backbone layer, (B, fan_out)
    feature: np.ndarray                # (B, D)
    logits: np.ndarray                 # (B, N)
    prediction: np.ndarray             # (B, N), softmax of logits
    log_prediction: np.ndarray = field(default=None)  # (B, N)


@dataclass
class GradientSet:
    layer_grads: list[tuple[np.ndarray, np.ndarray]]  # (dW, db) per layer
    head_grad: np.ndarray                             # (D, N)

    def tensors(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for dw, db in self.layer_grads:
            out.append(dw)
            out.append(db)
        out.append(self.head_grad)
        return out


def init_params(
    layer_sizes: list[int], activation: str, rng: np.random.Generator
) -> ModelParams:
    """Backbone weights ~ N(0, 1/fan_in), biases zero, head likewise.

    layer_sizes is [input, hidden..., D, N]; the last entry is the class
    count, the second-to-last the feature dimension D.
    """
    if len(layer_sizes) < 2:
        raise ConfigurationError("layer_sizes needs at least input and class count")
    if any(s <= 0 for s in layer_sizes):
        raise ConfigurationError(f"non-positive layer size in {layer_sizes}")
    if activation not in ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {activation!r}")
    layers = []
    for fan_in, fan_out in zip(layer_sizes[:-2], layer_sizes[1:-1]):
        w = rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)
        layers.append(Layer(w, np.zeros(fan_out), activation))
    d, n = layer_sizes[-2], layer_sizes[-1]
    head = rng.standard_normal((d, n)) / np.sqrt(d)
    return ModelParams(layers=layers, head_w=head)


def _as_input(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    expected = params.layers[0].weight.shape[0] if params.layers else params.feature_dim
    if x.shape[1] != expected:
        raise DimensionError(f"input dim {x.shape[1]}, expected {expected}")
    return x


def forward(params: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Run the backbone and head; x is (d_in,) or (B, d_in)."""
    x = _as_input(params, x)
    pre, act = [], []
    a = x
    for layer in params.layers:
        z = a @ layer.weight + layer.bias
        a = _act(layer.activation, z)
        pre.append(z)
        act.append(a)
    logits = a @ params.head_w
    prediction, log_prediction = softmax_pair(logits)
    return ForwardTrace(
        inputs=x,
        pre_activations=pre,
        activations=act,
        feature=a,
        logits=logits,
        prediction=prediction,
        log_prediction=log_prediction,
    )


def forward_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The feature of forward(params, x), bit-equal, for inference: no
    trace is kept and each activation is applied in place."""
    a = _as_input(params, x)
    for layer in params.layers:
        a = a @ layer.weight
        a += layer.bias
        _act(layer.activation, a, out=a)
    return a


def forward_logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The logits of forward(params, x), bit-equal, with no softmax."""
    return forward_features(params, x) @ params.head_w


def backward(
    params: ModelParams, trace: ForwardTrace, dl_dlogits: np.ndarray
) -> GradientSet:
    """Exact parameter gradients of the scalar whose logit-gradient rows
    are dl_dlogits, summed over the batch."""
    g = np.atleast_2d(np.asarray(dl_dlogits, dtype=np.float64))
    if g.shape != trace.logits.shape:
        raise DimensionError(
            f"logit-gradient shape {g.shape} does not match logits {trace.logits.shape}"
        )
    head_grad = trace.feature.T @ g
    delta = g @ params.head_w.T  # gradient w.r.t. feature
    layer_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    for i in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[i]
        dz = delta * _act_grad(layer.activation, trace.pre_activations[i], trace.activations[i])
        a_prev = trace.inputs if i == 0 else trace.activations[i - 1]
        layer_grads[i] = (a_prev.T @ dz, dz.sum(axis=0))
        if i > 0:
            delta = dz @ layer.weight.T
    return GradientSet(layer_grads=layer_grads, head_grad=head_grad)


def save_checkpoint(params: ModelParams, path) -> None:
    """Flat binary: magic, version, layer-size list, then row-major
    little-endian float64 per tensor (weight, bias per layer, head)."""
    sizes = params.layer_sizes
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        act = params.layers[0].activation if params.layers else "tanh"
        tag = act.encode().ljust(8, b"\x00")
        fh.write(tag)
        for t in params.tensors():
            fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        header = fh.read(8)
        if len(header) < 8:
            raise FormatError("truncated checkpoint header")
        version, n_sizes = struct.unpack("<II", header)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        raw = fh.read(4 * n_sizes)
        if len(raw) < 4 * n_sizes:
            raise FormatError("truncated layer-size list")
        sizes = list(struct.unpack(f"<{n_sizes}I", raw))
        act = fh.read(8).rstrip(b"\x00").decode()

        def read_tensor(shape):
            count = int(np.prod(shape))
            buf = fh.read(8 * count)
            if len(buf) < 8 * count:
                raise FormatError("truncated tensor data")
            return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()

        layers = []
        for fan_in, fan_out in zip(sizes[:-2], sizes[1:-1]):
            w = read_tensor((fan_in, fan_out))
            b = read_tensor((fan_out,))
            layers.append(Layer(w, b, act))
        head = read_tensor((sizes[-2], sizes[-1]))
        return ModelParams(layers=layers, head_w=head)
