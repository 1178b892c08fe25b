"""Locality-constrained repellence loss over projected token features.

Pairs of tokens that are far apart on the patch grid are pushed toward low
correspondence probability; the push strength depends on whether each
token of the pair is attentive. The loss is a plain double sum of
log-distance * repellence-weight * correspondence with no normalization.
The first two factors form the fixed per-image `pair_weight`, and
`loss_and_gradient` multiplies it by the correspondence matrix. The loss is
linear in the pair weight, so one pair type's part of it is
`loss_and_gradient` at the `pair_weight` of a config whose other two
repellence weights are 0.

An image whose rows repeat (substitution copies each cluster center into
its members) can run the same loss on its m distinct rows: with column
multiplicities c_u and the membership one-hot R, the dense sum equals
sum_vu W'_vu softmax_u(S_vu + log c_u), W' = (R^T W R) / c column by
column. `correspondence_matrix` and `loss_and_gradient` take the log
multiplicities as `log_counts`; without them they run the dense N x N form.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .tensorio import NonFiniteError, norm, softmax, sq_dists


def locality_matrix(positions: np.ndarray) -> np.ndarray:
    """F[i, j] = log(||pos_i - pos_j|| + 1) in patch-grid units; zero diagonal."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"expected (N, 2) positions, got {positions.shape}")
    return np.log1p(np.sqrt(sq_dists(positions, positions)))


def repellence_matrix(labels: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Pairwise weight by type: both-attentive (`r_aa`), mixed (`r_ai`), or
    both-inattentive (`r_ii`), as given (`ExperimentConfig` checks them).

    `labels` is a boolean vector, True for attentive tokens.
    """
    labels = np.asarray(labels, dtype=bool)
    if labels.ndim != 1:
        raise ValueError(f"expected boolean label vector, got shape {labels.shape}")
    out = np.full((labels.size, labels.size), float(cfg.r_ai))
    out[labels[:, None] & labels[None, :]] = cfg.r_aa
    out[~labels[:, None] & ~labels[None, :]] = cfg.r_ii
    return out


def correspondence_matrix(
    projected: np.ndarray,
    tau: float = 0.07,
    cosine: bool = True,
    log_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Row-stochastic P[i, j] = softmax_j(<phi_i, phi_j> / tau), self pair included.

    With `cosine` the features are L2-normalized first so logits lie in
    [-1/tau, 1/tau]. `log_counts[j]`, the log multiplicity of distinct row
    j, is added to column j's logits, so P[v, u] is the probability mass of
    all copies of row u.
    """
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    z = _unit_rows(projected)[0] if cosine else _finite_rows(projected)
    logits = (z @ z.T) / tau
    if log_counts is not None:
        logits += log_counts
    return softmax(logits)


def _finite_rows(projected: np.ndarray) -> np.ndarray:
    phi = np.asarray(projected, dtype=np.float64)
    if phi.ndim != 2:
        raise ValueError(f"expected (N, d) features, got shape {phi.shape}")
    if not np.isfinite(phi).all():
        raise NonFiniteError("non-finite feature values")
    return phi


def _unit_rows(projected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, and their (N, 1) norms; an overflowing
    norm raises NonFiniteError (see `tensorio.norm`)."""
    phi = _finite_rows(projected)
    norms = norm(phi, axis=1, keepdims=True)
    if (norms == 0.0).any():
        raise ValueError("cannot normalize zero-norm feature rows")
    return phi / norms, norms


def pair_weight(locality: np.ndarray, labels: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Constant per-image factor of the loss: `locality_matrix` times repellence."""
    return locality * repellence_matrix(labels, cfg)


def loss_and_gradient(
    projected: np.ndarray,
    weight: np.ndarray,
    tau: float = 0.07,
    cosine: bool = True,
    log_counts: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Loss total and analytic d(loss)/d(projected) for a fixed pair weight.

    With W the pair weight and P the correspondence matrix, each softmax
    row gives dL/dS = G where G[i, j] = P[i, j] * (W[i, j] - sum_k W[i, k]
    P[i, k]); the symmetric logits S = Z Z^T / tau then give dL/dZ =
    (G + G^T) Z / tau, and the cosine path projects out the component
    radial to each feature row. The gradient is checked against central
    finite differences in the tests.

    On distinct rows, `weight` is the folded W' and `log_counts` the log
    multiplicities (see the module docstring). The bias is constant, so G
    keeps its form, and each row's gradient is the sum over its copies.
    """
    if cosine:
        z, norms = _unit_rows(projected)
    else:
        z = _finite_rows(projected)
    weight = np.asarray(weight, dtype=np.float64)
    # z is already unit-norm in the cosine mode, so P is z's raw-logit softmax
    # in both modes
    corr = correspondence_matrix(z, tau=tau, cosine=False, log_counts=log_counts)
    row_loss = (weight * corr).sum(axis=1, keepdims=True)
    total = float(row_loss.sum())
    g = corr * (weight - row_loss)
    gz = (g + g.T) @ z / tau
    if not cosine:
        return total, gz
    return total, (gz - (gz * z).sum(axis=1, keepdims=True) * z) / norms
