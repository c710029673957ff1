"""Pseudo-label storage and the joint loss over predictions and pseudo-labels.

Pseudo-labels are softmax images of unconstrained per-sample logit
vectors. Labeled samples carry a frozen, scaled one-hot logit vector;
unlabeled samples carry an optimizable one updated by plain gradient
steps with their own step size (no momentum, no weight decay).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, FormatError, FrozenUpdateError, read_checked
from .model import forward_logits
from .numerics import TINY, entropy, kl_divergence, log_softmax, softmax, softmax_pair


SNAPSHOT_MAGIC = b"D2PL"
SNAPSHOT_VERSION = 1

CLASSIFICATION_LOSSES = ("forward_kl", "reverse_kl", "squared_l2")


@dataclass
class D2Config:
    alpha: float = 0.1
    beta: float = 0.03
    lam: float = 500.0         # step size for pseudo-logit updates
    init_scale: float = 10.0   # one-hot scaling K for labeled samples
    classification_loss: str = "forward_kl"
    # Whether labeled samples contribute the full loss (including the
    # entropy term) during joint training, or only the matching term.
    labeled_full_loss: bool = True

    def __post_init__(self):
        for name in ("alpha", "beta", "lam", "init_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if self.beta < 0:
            raise ConfigurationError("beta must be non-negative")
        if self.lam < 0:
            raise ConfigurationError("lambda must be non-negative")
        if self.classification_loss not in CLASSIFICATION_LOSSES:
            raise ConfigurationError(
                f"unknown classification loss {self.classification_loss!r}"
            )


@dataclass
class PseudoLabelStore:
    """Per-sample pseudo-logits with a frozen flag per row."""
    logits: np.ndarray  # (n_samples, N)
    frozen: np.ndarray  # (n_samples,) bool

    @property
    def n_samples(self) -> int:
        return self.logits.shape[0]

    @property
    def n_classes(self) -> int:
        return self.logits.shape[1]

    def probs(self, ids) -> np.ndarray:
        return softmax(self.logits[ids])

    def log_probs(self, ids) -> np.ndarray:
        return log_softmax(self.logits[ids])


def init_pseudo_labels(dataset, params, cfg: D2Config) -> PseudoLabelStore:
    """Labeled rows get frozen K*one_hot; unlabeled rows get the current
    head logits, by the first repredict; test rows get zeros (never used
    in training)."""
    logits = np.zeros((dataset.n_samples, params.n_classes))
    frozen = np.zeros(dataset.n_samples, dtype=bool)
    lab = dataset.labeled_indices
    logits[lab, dataset.labeled_targets] = cfg.init_scale
    frozen[lab] = True
    return repredict(PseudoLabelStore(logits, frozen), params, dataset)


def d2_loss(p_hat_log: np.ndarray, p_tilde_log: np.ndarray, cfg: D2Config):
    """Per-sample loss alpha*L_c + beta*L_e from (..., N) log-probabilities,
    as arrays (l_c, l_e, total) of shape (...)."""
    p_hat = np.exp(p_hat_log)
    if cfg.classification_loss == "forward_kl":
        l_c = kl_divergence(p_hat_log, p_tilde_log, p=p_hat)
    elif cfg.classification_loss == "reverse_kl":
        l_c = kl_divergence(p_tilde_log, p_hat_log)
    else:  # squared_l2
        l_c = ((np.exp(p_tilde_log) - p_hat) ** 2).sum(axis=-1)
    l_e = entropy(p_hat, log_p=p_hat_log)
    return l_c, l_e, cfg.alpha * l_c + cfg.beta * l_e


def grad_wrt_network_logits(
    p_hat: np.ndarray,
    p_hat_log: np.ndarray,
    p_tilde_log: np.ndarray,
    cfg: D2Config,
    out: np.ndarray,
) -> np.ndarray:
    """Gradient of the total loss with respect to the network logits of
    (B, N) batches, written into out.

    Closed forms chained through the softmax; entries sum to zero in
    every variant (softmax gauge).
    """
    a, b = cfg.alpha, cfg.beta
    if cfg.classification_loss == "forward_kl":
        # d/dy_n [ sum_j p_j ((a-b) log p_j - a log q_j) ] = p_n (g_n - L)
        g = (a - b) * p_hat_log - a * p_tilde_log
        loss = (p_hat * g).sum(axis=-1, keepdims=True)
        return np.multiply(p_hat, g - loss, out=out)
    p_tilde = np.exp(p_tilde_log)
    ent = entropy(p_hat, log_p=p_hat_log)[..., None]
    # Entropy part: -p_n (log p_n + H)
    grad_e = -p_hat * (p_hat_log + ent)
    if cfg.classification_loss == "reverse_kl":
        # L_c depends on p_hat only through -sum_j q_j log p_j.
        grad_c = p_hat - p_tilde
    else:  # squared_l2
        dl_dp = -2.0 * (p_tilde - p_hat)
        inner = (p_hat * dl_dp).sum(axis=-1, keepdims=True)
        grad_c = p_hat * (dl_dp - inner)
    return np.add(a * grad_c, b * grad_e, out=out)


def grad_wrt_pseudo_logits(
    p_hat: np.ndarray, p_tilde: np.ndarray, cfg: D2Config
) -> np.ndarray:
    """Gradient of the total loss with respect to the pseudo-logits.

    The entropy term does not involve the pseudo-label, so only the
    matching term contributes. Entries sum to zero in all variants.
    """
    a = cfg.alpha
    if cfg.classification_loss == "forward_kl":
        return a * (p_tilde - p_hat)
    if cfg.classification_loss == "reverse_kl":
        log_ratio = np.log(np.maximum(p_tilde, TINY)) - np.log(np.maximum(p_hat, TINY))
        inner = np.sum(p_tilde * log_ratio, axis=-1, keepdims=True)
        return a * p_tilde * (log_ratio - inner)
    # squared_l2
    diff = p_tilde - p_hat
    inner = np.sum(p_tilde * diff, axis=-1, keepdims=True)
    return 2.0 * a * p_tilde * (diff - inner)


def d2_update_pseudo_batch(
    store: PseudoLabelStore,
    ids: np.ndarray,
    p_hat: np.ndarray,
    cfg: D2Config,
    p_tilde: np.ndarray,
) -> None:
    """Gradient step for several unfrozen samples at once; p_tilde is
    softmax(store.logits[ids]), which every caller already has."""
    if store.frozen[ids].any():
        raise FrozenUpdateError("batch contains frozen samples")
    rows = np.take(store.logits, ids, axis=0)  # the rows logits[ids] gives, faster
    rows -= cfg.lam * grad_wrt_pseudo_logits(p_hat, p_tilde, cfg)
    store.logits[ids] = rows


def repredict(store: PseudoLabelStore, params, dataset) -> PseudoLabelStore:
    """Overwrite every unfrozen unlabeled row with the current head
    logits: the one place where the network writes pseudo-logits."""
    unl = dataset.unlabeled_indices
    active = unl[~store.frozen[unl]]
    if active.size:
        store.logits[active] = forward_logits(params, dataset.features[active])
    return store


def convergence_residual(
    p_hat_log: np.ndarray, p_tilde_log: np.ndarray, loss_total, cfg: D2Config
):
    """Residual (alpha-beta)*log p_hat_n - alpha*log p_tilde_n - L of each
    row of (B, N) log-probabilities, at the arg-max class n of the
    prediction (ties to the lowest index, a NaN counting as the maximum,
    as np.argmax does)."""
    a, b = cfg.alpha, cfg.beta
    n = np.argmax(p_hat_log, axis=1)[:, None]
    best = np.take_along_axis(p_hat_log, n, axis=1)[:, 0]
    pick = np.take_along_axis(p_tilde_log, n, axis=1)[:, 0]
    return (a - b) * best - a * pick - loss_total


class ResidualTerms(NamedTuple):
    """The softmax pairs of a batch's predictions and pseudo-labels, its
    per-row loss and its convergence residual."""
    p_hat: np.ndarray
    p_hat_log: np.ndarray
    p_tilde: np.ndarray
    p_tilde_log: np.ndarray
    loss: np.ndarray
    t: np.ndarray


def residual_terms(logits: np.ndarray, pseudo_logits: np.ndarray, cfg: D2Config) -> ResidualTerms:
    """The one place where (B, N) network logits and pseudo-logits become
    the residual t: one softmax pair of each, d2_loss, then
    convergence_residual."""
    p_hat, p_hat_log = softmax_pair(logits)
    p_tilde, p_tilde_log = softmax_pair(pseudo_logits)
    _, _, loss = d2_loss(p_hat_log, p_tilde_log, cfg)
    t = convergence_residual(p_hat_log, p_tilde_log, loss, cfg)
    return ResidualTerms(p_hat, p_hat_log, p_tilde, p_tilde_log, loss, t)


def _snapshot_record(n_classes: int) -> np.dtype:
    """One snapshot record, packed: a 64-bit id, a frozen byte and N
    little-endian float64 logits."""
    return np.dtype([("id", "<i8"), ("frozen", "u1"), ("logits", "<f8", (n_classes,))])


def save_snapshot(store: PseudoLabelStore, path) -> None:
    """Binary snapshot: magic, version, N, count; then one record per
    sample, in id order."""
    records = np.empty(store.n_samples, dtype=_snapshot_record(store.n_classes))
    records["id"] = np.arange(store.n_samples)
    records["frozen"] = store.frozen
    records["logits"] = store.logits
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", SNAPSHOT_VERSION, store.n_classes, store.n_samples))
        fh.write(records.tobytes())


def load_snapshot(path) -> PseudoLabelStore:
    """Read a snapshot; records may come in any order, but each id in
    0..count-1 must appear exactly once and nothing may follow them."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise FormatError(f"bad snapshot magic {magic!r}")
        version, n_classes, count = struct.unpack("<III", read_checked(fh, 12, "snapshot header"))
        if version != SNAPSHOT_VERSION:
            raise FormatError(f"unsupported snapshot version {version}")
        try:
            record = _snapshot_record(n_classes)
        except ValueError:  # a record must fit in 2 GiB
            raise FormatError(f"snapshot class count {n_classes} too large") from None
        body = read_checked(fh, count * record.itemsize, "snapshot records", last=True)
    records = np.frombuffer(body, dtype=record, count=count)
    ids = records["id"]
    bad = (ids < 0) | (ids >= count)
    if bad.any():
        raise FormatError(f"sample id {ids[bad][0]} out of range")
    seen = np.bincount(ids, minlength=count)
    if np.any(seen > 1):
        dup = int(np.argmax(seen > 1))
        raise FormatError(f"sample id {dup} appears {seen[dup]} times")
    logits = np.zeros((count, n_classes))
    frozen = np.zeros(count, dtype=bool)
    logits[ids] = records["logits"]
    frozen[ids] = records["frozen"] != 0
    return PseudoLabelStore(logits, frozen)
