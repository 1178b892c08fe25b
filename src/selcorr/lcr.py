"""Locality-constrained repellence loss over projected token features.

Pairs of tokens that are far apart on the patch grid are pushed toward low
correspondence probability; the push strength depends on whether each
token of the pair is attentive. The loss is a plain double sum of
log-distance * repellence-weight * correspondence with no normalization.
The first two factors form the fixed per-image `pair_weight`; both
`evaluate_loss` (the loss split by pair type) and `loss_and_gradient` (the
loss with its analytic gradient, checked against finite differences in the
tests) multiply it by the correspondence matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensorio import softmax, sq_dists


@dataclass
class RepellenceConfig:
    """Pair-type weights and softmax temperature for the repellence loss.

    `cosine` switches the correspondence logits between cosine similarity
    (features L2-normalized first, the default) and raw dot products.
    """

    r_att_att: float = 5.0
    r_att_inatt: float = 5.0
    r_inatt_inatt: float = 2.0
    tau: float = 0.07
    cosine: bool = True

    def validate(self) -> None:
        if self.tau <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.tau}")
        if min(self.r_att_att, self.r_att_inatt, self.r_inatt_inatt) < 0.0:
            raise ValueError("repellence weights must be non-negative")


@dataclass
class LossBreakdown:
    """Loss total and its exact split by pair type."""

    total: float
    att_att: float
    att_inatt: float
    inatt_inatt: float


def token_coords(grid_h: int, grid_w: int) -> np.ndarray:
    """(N, 2) array of (row, col) cell coordinates in row-major token order."""
    if grid_h < 1 or grid_w < 1:
        raise ValueError(f"bad grid {grid_h}x{grid_w}")
    rows, cols = np.divmod(np.arange(grid_h * grid_w), grid_w)
    return np.stack([rows, cols], axis=1).astype(np.float64)


def locality_matrix(positions: np.ndarray) -> np.ndarray:
    """F[i, j] = log(||pos_i - pos_j|| + 1) in patch-grid units; zero diagonal."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"expected (N, 2) positions, got {positions.shape}")
    return np.log1p(np.sqrt(sq_dists(positions, positions)))


def repellence_matrix(labels: np.ndarray, cfg: RepellenceConfig) -> np.ndarray:
    """Pairwise weight by type: both-attentive, mixed, or both-inattentive.

    `labels` is a boolean vector, True for attentive tokens.
    """
    cfg.validate()
    labels = np.asarray(labels, dtype=bool)
    if labels.ndim != 1:
        raise ValueError(f"expected boolean label vector, got shape {labels.shape}")
    aa, _, ii = _pair_masks(labels)
    out = np.full((labels.size, labels.size), float(cfg.r_att_inatt))
    out[aa] = cfg.r_att_att
    out[ii] = cfg.r_inatt_inatt
    return out


def correspondence_matrix(
    projected: np.ndarray, tau: float = 0.07, cosine: bool = True
) -> np.ndarray:
    """Row-stochastic P[i, j] = softmax_j(<phi_i, phi_j> / tau), self pair included.

    With `cosine` the features are L2-normalized first so logits lie in
    [-1/tau, 1/tau].
    """
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    z = _unit_rows(projected)[0] if cosine else _finite_rows(projected)
    return softmax((z @ z.T) / tau)


def _finite_rows(projected: np.ndarray) -> np.ndarray:
    phi = np.asarray(projected, dtype=np.float64)
    if phi.ndim != 2:
        raise ValueError(f"expected (N, d) features, got shape {phi.shape}")
    if not np.isfinite(phi).all():
        raise ValueError("non-finite feature values")
    return phi


def _unit_rows(projected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, and their (N, 1) norms.

    A norm that overflows raises FloatingPointError: an infinite norm would
    scale its row to zeros, and the loss would go flat instead of failing.
    """
    phi = _finite_rows(projected)
    with np.errstate(over="raise"):
        norms = np.linalg.norm(phi, axis=1, keepdims=True)
    if (norms == 0.0).any():
        raise ValueError("cannot normalize zero-norm feature rows")
    return phi / norms, norms


def _pair_masks(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    labels = np.asarray(labels, dtype=bool)
    aa = labels[:, None] & labels[None, :]
    ii = ~labels[:, None] & ~labels[None, :]
    return aa, ~aa & ~ii, ii


def evaluate_loss(
    projected: np.ndarray,
    positions: np.ndarray,
    labels: np.ndarray,
    cfg: RepellenceConfig,
) -> LossBreakdown:
    """Sum over all ordered pairs of pair weight * correspondence, split by pair type.

    No averaging anywhere, so the value scales with N^2. The diagonal
    contributes nothing because the locality factor of the pair weight is
    zero there. `labels` routes each term into the per-type partials, which
    partition the total.
    """
    phi = np.asarray(projected, dtype=np.float64)
    if np.asarray(positions).shape[0] != phi.shape[0] or np.asarray(labels).shape[0] != phi.shape[0]:
        raise ValueError("projected, positions and labels disagree on token count")
    terms = pair_weight(positions, labels, cfg) * correspondence_matrix(
        phi, tau=cfg.tau, cosine=cfg.cosine
    )
    aa, ai, ii = _pair_masks(labels)
    return LossBreakdown(
        total=float(terms.sum()),
        att_att=float(terms[aa].sum()),
        att_inatt=float(terms[ai].sum()),
        inatt_inatt=float(terms[ii].sum()),
    )


def pair_weight(positions: np.ndarray, labels: np.ndarray, cfg: RepellenceConfig) -> np.ndarray:
    """Constant per-image factor of the loss: locality times repellence."""
    return locality_matrix(positions) * repellence_matrix(labels, cfg)


def loss_and_gradient(
    projected: np.ndarray,
    weight: np.ndarray,
    tau: float = 0.07,
    cosine: bool = True,
) -> tuple[float, np.ndarray]:
    """Loss total and analytic d(loss)/d(projected) for a fixed pair weight.

    With W the pair weight and P the correspondence matrix, each softmax
    row gives dL/dS = G where G[i, j] = P[i, j] * (W[i, j] - sum_k W[i, k]
    P[i, k]); the symmetric logits S = Z Z^T / tau then give dL/dZ =
    (G + G^T) Z / tau, and the cosine path projects out the component
    radial to each feature row. The gradient is checked against central
    finite differences in the tests.
    """
    if cosine:
        z, norms = _unit_rows(projected)
    else:
        z = _finite_rows(projected)
    weight = np.asarray(weight, dtype=np.float64)
    # z is already unit-norm in the cosine mode, so P is z's raw-logit softmax
    # in both modes
    corr = correspondence_matrix(z, tau=tau, cosine=False)
    row_loss = (weight * corr).sum(axis=1, keepdims=True)
    total = float(row_loss.sum())
    g = corr * (weight - row_loss)
    gz = (g + g.T) @ z / tau
    if not cosine:
        return total, gz
    return total, (gz - (gz * z).sum(axis=1, keepdims=True) * z) / norms
