"""Small MLP backbone plus a bias-free linear head, with manual backprop.

The backbone maps an input vector to a feature f of dimension D; the
head computes logits = W.T @ f with W of shape (D, N) and no bias term.
Forward keeps every intermediate needed for an exact backward pass.

ModelParams holds every tensor as a view of one flat float64 buffer,
laid out in tensors() order, which is also the checkpoint's tensor
layout; a gradient has the same type and layout, so the optimizer
updates parameters with one expression per step over the flat buffers.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, FormatError
from .numerics import softmax_buffers, softmax_pair

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


def _act_grad(tag: str, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Derivative of the activation from its output a alone, written
    into out; for relu, a > 0 is z > 0 (NaN included, where both are
    false)."""
    if tag == "tanh":
        np.multiply(a, a, out=out)
        return np.subtract(1.0, out, out=out)
    if tag == "relu":
        return np.greater(a, 0.0, out=out)
    if tag == "linear":
        out[...] = 1.0
        return out
    raise ConfigurationError(f"unknown activation {tag!r}")


def tensor_shapes(layer_sizes: list[int]) -> list[tuple[int, ...]]:
    """Shapes of the tensors of a model, in tensors() order."""
    shapes: list[tuple[int, ...]] = []
    for fan_in, fan_out in zip(layer_sizes[:-2], layer_sizes[1:-1]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    shapes.append((layer_sizes[-2], layer_sizes[-1]))
    return shapes


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray    # (fan_out,)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """The tensors of a model as views of one flat float64 buffer, in
    tensors() order, which is also the checkpoint's tensor layout. flat
    (zeros if not given) is that buffer, not a copy of it; the views are
    built once and no tensor can be rebound, so a write to flat reaches
    every tensor. A gradient is params.zeros(), in the same layout."""
    layer_sizes: list[int]  # [input, hidden..., D, N]
    activation: str         # of every backbone layer
    flat: np.ndarray = field(default=None, repr=False)
    layers: tuple[Layer, ...] = field(init=False, repr=False)
    head_w: np.ndarray = field(init=False, repr=False)  # (D, N), no bias

    def __post_init__(self):
        shapes = tensor_shapes(self.layer_sizes)
        size = sum(math.prod(s) for s in shapes)
        flat = np.zeros(size) if self.flat is None else self.flat
        if flat.shape != (size,):
            raise DimensionError(f"flat buffer of shape {flat.shape} for {size} parameters")
        views, start = [], 0
        for shape in shapes:
            stop = start + math.prod(shape)
            views.append(flat[start:stop].reshape(shape))
            start = stop
        set_field = object.__setattr__
        set_field(self, "layer_sizes", list(self.layer_sizes))
        set_field(self, "flat", flat)
        set_field(self, "layers", tuple(map(Layer, views[:-1:2], views[1:-1:2])))
        set_field(self, "head_w", views[-1])

    @property
    def feature_dim(self) -> int:
        return self.head_w.shape[0]

    @property
    def n_classes(self) -> int:
        return self.head_w.shape[1]

    def tensors(self) -> list[np.ndarray]:
        return [t for layer in self.layers for t in (layer.weight, layer.bias)] + [self.head_w]

    def copy(self) -> "ModelParams":
        return ModelParams(self.layer_sizes, self.activation, self.flat.copy())

    def zeros(self) -> "ModelParams":
        """Zero tensors in this layout, in a buffer of their own."""
        return ModelParams(self.layer_sizes, self.activation)


@dataclass
class ForwardTrace:
    inputs: np.ndarray             # (B, d_in)
    activations: list[np.ndarray]  # per backbone layer, (B, fan_out)
    feature: np.ndarray            # (B, D)
    logits: np.ndarray             # (B, N)
    prediction: np.ndarray         # (B, N), softmax of logits
    log_prediction: np.ndarray     # (B, N)


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
    params = ModelParams(layer_sizes, activation)
    for layer in params.layers:
        fan_in = layer.weight.shape[0]
        layer.weight[...] = rng.standard_normal(layer.weight.shape) / np.sqrt(fan_in)
    d = layer_sizes[-2]
    params.head_w[...] = rng.standard_normal(params.head_w.shape) / np.sqrt(d)
    return params


def _as_input(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    expected = params.layer_sizes[0]
    if x.shape[1] != expected:
        raise DimensionError(f"input dim {x.shape[1]}, expected {expected}")
    return x


def _hidden(params: ModelParams, a: np.ndarray, outs=None) -> Iterator[np.ndarray]:
    """Each backbone layer's activation in turn, from input rows a; each
    layer's product (written into outs[i] when given) is the one array
    its bias and activation work in."""
    for i, layer in enumerate(params.layers):
        a = np.matmul(a, layer.weight, out=None if outs is None else outs[i])
        a += layer.bias
        yield _act(params.activation, a, out=a)


class Workspace:
    """The arrays of one batch size that forward and backward write
    into: the activations, logits and softmax pair of the trace, the
    logit gradient a trainer fills (dl, C-ordered), the backward deltas
    and the activation-derivative scratch. Built once per training stage,
    so a batch allocates none of them; each forward overwrites the trace
    of the one before. It serves only the params it was built for."""

    def __init__(self, params: ModelParams, rows: int):
        sizes = params.layer_sizes
        self.params = params
        self.input_shape = (rows, sizes[0])
        hidden = [np.empty((rows, s)) for s in sizes[1:-1]]
        logits = np.empty((rows, sizes[-1]))
        self.trace = ForwardTrace(
            None, hidden, hidden[-1] if hidden else None, logits, *softmax_buffers(logits.shape)
        )
        self.dl = np.empty_like(logits)
        self.deltas = [np.empty_like(a) for a in hidden]
        self.scratch = [np.empty_like(a) for a in hidden]


def forward(params: ModelParams, x: np.ndarray, ws: Workspace | None = None) -> ForwardTrace:
    """Run the backbone and head; x is (d_in,) or (B, d_in). With ws, x
    must be a (B, d_in) batch of its size and the returned trace is
    ws.trace; without, a fresh workspace holds it."""
    if ws is None:
        x = _as_input(params, x)
        ws = Workspace(params, x.shape[0])
    elif ws.params is not params:
        raise DimensionError("workspace built for other params")
    elif x.shape != ws.input_shape:
        raise DimensionError(f"input {x.shape} for a workspace of {ws.input_shape}")
    trace = ws.trace
    for _ in _hidden(params, x, trace.activations):
        pass
    trace.inputs = x
    if not params.layers:
        trace.feature = x
    np.matmul(trace.feature, params.head_w, out=trace.logits)
    softmax_pair(trace.logits, out=(trace.prediction, trace.log_prediction))
    return trace


def forward_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The feature of forward(params, x), bit-equal, for inference: no
    trace is kept. The bits of a product can depend on the row count of
    x, so a pool is never split into row blocks here: a block's rows
    need not equal the same rows of the whole pool."""
    feature = _as_input(params, x)
    for feature in _hidden(params, feature):  # ends as the last layer's
        pass
    return feature


def forward_logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The logits of forward(params, x), bit-equal, with no softmax.
    Like forward_features, the result depends on the row count of x
    (the head product of a row block differs in the last bits), so a
    pool is never split into row blocks."""
    return forward_features(params, x) @ params.head_w


def backward(
    params: ModelParams,
    trace: ForwardTrace,
    dl_dlogits: np.ndarray,
    out: ModelParams | None = None,
    ws: Workspace | None = None,
) -> ModelParams:
    """Exact parameter gradients of the scalar whose logit-gradient rows
    are dl_dlogits, summed over the batch, in params' layout; written
    into out when given (params.zeros() makes one), else into a new one.
    The deltas go through ws's buffers when given (the workspace of the
    forward that made trace), else through a fresh workspace.
    dl_dlogits is made C-contiguous first, so the matrix products see
    the same operand layout, and give the same bits, whatever its
    layout (a class-major softmax hands out transposed views)."""
    g = np.ascontiguousarray(np.atleast_2d(dl_dlogits), dtype=np.float64)
    if g.shape != trace.logits.shape:
        raise DimensionError(
            f"logit-gradient shape {g.shape} does not match logits {trace.logits.shape}"
        )
    if ws is None:
        ws = Workspace(params, g.shape[0])
    elif ws.params is not params:
        raise DimensionError("workspace built for other params")
    if out is None:
        out = params.zeros()
    np.matmul(trace.feature.T, g, out=out.head_w)
    layers = params.layers
    if layers:  # gradient w.r.t. feature
        delta = np.matmul(g, params.head_w.T, out=ws.deltas[-1])
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        delta *= _act_grad(params.activation, trace.activations[i], ws.scratch[i])  # now dL/dz
        a_prev = trace.inputs if i == 0 else trace.activations[i - 1]
        np.matmul(a_prev.T, delta, out=out.layers[i].weight)
        delta.sum(axis=0, out=out.layers[i].bias)
        if i > 0:
            delta = np.matmul(delta, layer.weight.T, out=ws.deltas[i - 1])
    return out


def save_checkpoint(params: ModelParams, path) -> None:
    """Flat binary: magic, version, layer-size list, activation tag, then
    the flat buffer as little-endian float64: each tensor row-major, in
    tensors() order (weight, bias per layer, head)."""
    sizes = params.layer_sizes
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(sizes)))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        # A model without hidden layers has always been tagged tanh.
        act = params.activation if params.layers else "tanh"
        tag = act.encode().ljust(8, b"\x00")
        fh.write(tag)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint; the tensor bytes the size list implies must be
    exactly what follows the activation tag. Every length is checked
    against the file size before it is read."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        header = fh.read(8)
        if len(header) < 8:
            raise FormatError("truncated checkpoint header")
        version, n_sizes = struct.unpack("<II", header)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        if file_size - fh.tell() < 4 * n_sizes + 8:
            raise FormatError("truncated layer-size list or activation tag")
        sizes = list(struct.unpack(f"<{n_sizes}I", fh.read(4 * n_sizes)))
        if n_sizes < 2 or 0 in sizes:
            raise FormatError(f"bad layer sizes {sizes[:8]}")
        tag = fh.read(8).rstrip(b"\x00")
        act = tag.decode("ascii", errors="replace")
        if act not in ACTIVATIONS:
            raise FormatError(f"unknown activation tag {tag!r}")
        count = sum(math.prod(s) for s in tensor_shapes(sizes))
        have = file_size - fh.tell()
        if have < 8 * count:
            raise FormatError(f"truncated tensor data: {have} of {8 * count} bytes")
        if have > 8 * count:
            raise FormatError(f"{have - 8 * count} trailing bytes after the tensor data")
        flat = np.frombuffer(fh.read(8 * count), dtype="<f8").astype(np.float64)
    return ModelParams(sizes, act, flat)
