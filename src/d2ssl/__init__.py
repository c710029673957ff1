"""Semi-supervised training with optimizable pseudo-logits and
repetitive reprediction, plus diagnostics that verify the framework's
convergence properties at desk scale."""

from .numerics import entropy, kl_divergence, log_softmax, seeded_rng, softmax
from .pseudo import D2Config, PseudoLabelStore

__all__ = [
    "D2Config",
    "PseudoLabelStore",
    "entropy",
    "kl_divergence",
    "log_softmax",
    "seeded_rng",
    "softmax",
]
