"""Attentive/inattentive token separation from CLS-query similarity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensorio import softmax, top_k


@dataclass
class TokenPartition:
    """The two ascending token index sets that a similarity split induces.

    `attentive` holds the clamp(round(eta*N), 1, N-1) highest-scoring token
    indices, ties going to the lower index; `inattentive` holds the rest.
    """

    attentive: np.ndarray
    inattentive: np.ndarray


def cls_similarity(q_cls: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Softmax over key-query logits scaled by 1/sqrt(d); returns (N,) scores."""
    q_cls = np.asarray(q_cls, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if q_cls.ndim != 1 or keys.ndim != 2 or keys.shape[1] != q_cls.shape[0]:
        raise ValueError(f"shape mismatch: q_cls {q_cls.shape}, keys {keys.shape}")
    if q_cls.shape[0] < 1:
        raise ValueError("latent dimension must be >= 1")
    if not (np.isfinite(q_cls).all() and np.isfinite(keys).all()):
        raise ValueError("non-finite values in similarity inputs")
    return softmax(keys @ q_cls / math.sqrt(q_cls.shape[0]))


def split_tokens(scores: np.ndarray, eta: float) -> TokenPartition:
    """Split tokens into the top eta*N scorers and the rest."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if n < 2:
        raise ValueError("need at least 2 tokens to split")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    if not np.isfinite(scores).all() or scores.min() <= 0.0:
        raise ValueError("scores must be finite and strictly positive")
    if abs(scores.sum() - 1.0) > 1e-9:
        raise ValueError(f"scores must sum to 1, got {scores.sum()}")
    n_att = min(max(int(math.floor(eta * n + 0.5)), 1), n - 1)  # round half up
    attentive = top_k(scores, n_att)
    inattentive = np.setdiff1d(np.arange(n), attentive)
    return TokenPartition(attentive, inattentive)
