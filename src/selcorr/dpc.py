"""Density-peak clustering of inattentive tokens and center substitution.

Centers are the top score = density * separation tokens; every other
clustered token is then represented by its nearest center, and
substitution maps each member row of the main grid to its center's row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensorio import NonFiniteError, sq_dists, top_k


@dataclass
class ClusterAssignment:
    """Clustering state over a fixed-order token subset; `centers` and
    `member_center` are row indices into the clustered features."""

    rho: np.ndarray
    delta: np.ndarray
    score: np.ndarray
    centers: np.ndarray
    member_center: np.ndarray


def _density(sq: np.ndarray, verbatim: bool) -> np.ndarray:
    """Per-token density from the (M, M) pairwise squared feature distances.

    Default is rho_i = sum_{j != i} exp(-||t_i - t_j||^2), so tight packs
    score high. `verbatim` is the paper's literal formula, exp of the plain
    distance sum, which grows with isolation; it is kept only for
    acceptance criterion 2. It overflows once a row's squared-distance sum
    passes about 709, as the inattentive rows of the default corpus do,
    and then raises NonFiniteError.
    """
    if verbatim:
        with np.errstate(over="ignore"):
            rho = np.exp(sq.sum(axis=1))
        if not np.isfinite(rho).all():
            raise NonFiniteError("verbatim density overflows: a squared-distance sum exceeds ~709")
        return rho
    return np.exp(-sq).sum(axis=1) - 1.0  # drop the self term exp(0)


def _peak_distance(sq: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Distance to the nearest strictly-denser token.

    The densest token instead gets its distance to the farthest token.
    Density ties are broken by treating the lower index as denser; a lone
    token gets 0.
    """
    dist = np.sqrt(sq)
    idx = np.arange(rho.shape[0])
    denser = (rho[None, :] > rho[:, None]) | (
        (rho[None, :] == rho[:, None]) & (idx[None, :] < idx[:, None])
    )
    delta = np.where(denser, dist, np.inf).min(axis=1)
    top = ~denser.any(axis=1)  # the effectively-densest token; for M=1 this yields 0
    delta[top] = dist[top].max(axis=1)
    return delta


def select_centers(rho: np.ndarray, delta: np.ndarray, kc: int) -> np.ndarray:
    """Indices of the min(kc, M) largest rho*delta scores, ascending; ties by lower index."""
    rho = np.asarray(rho, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if kc < 1:
        raise ValueError(f"cluster count must be >= 1, got {kc}")
    if rho.shape != delta.shape or rho.ndim != 1:
        raise ValueError("rho and delta must be equal-length vectors")
    return top_k(rho * delta, min(kc, rho.shape[0]))


def assign_members(sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Row index of each token's nearest center, read from the (M, M)
    pairwise squared distances `sq` that `cluster_tokens` builds.

    Ties go to the lower center index; centers always map to themselves.
    """
    centers = np.unique(np.asarray(centers, dtype=np.intp))  # ascending, for the tie rule
    if centers.size == 0:
        raise ValueError("centers must be non-empty")
    if centers[0] < 0 or centers[-1] >= sq.shape[0]:
        raise ValueError("center index out of range")
    member_center = centers[np.argmin(sq[:, centers], axis=1)]  # argmin ties -> first
    member_center[centers] = centers
    return member_center


def cluster_tokens(features: np.ndarray, kc: int, verbatim: bool = False) -> ClusterAssignment:
    """Full pipeline: density -> separation -> center selection -> membership.

    `features` is (M, d) with M >= 1 and every value finite. The M x M
    squared distances are built once, for density, separation and membership.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError(f"expected (M, d) features with M >= 1, got {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("non-finite features")
    sq = sq_dists(features, features)
    rho = _density(sq, verbatim)
    delta = _peak_distance(sq, rho)
    centers = select_centers(rho, delta, kc)
    return ClusterAssignment(rho, delta, rho * delta, centers, assign_members(sq, centers))


def approximate_inattentive(
    n_tokens: int, inattentive: np.ndarray, member_center: np.ndarray
) -> np.ndarray:
    """(n_tokens,) source row of each token after center substitution: its
    own index, or for an inattentive token its center's, so `features[source]`
    is the substituted grid. `member_center` indexes `inattentive`, as
    `cluster_tokens` on the inattentive rows returns it.
    """
    source = np.arange(n_tokens)
    source[inattentive] = inattentive[member_center]
    return source
