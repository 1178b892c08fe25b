import math
from dataclasses import replace

import numpy as np
import pytest

from selcorr.config import ExperimentConfig
from selcorr.lcr import (
    correspondence_matrix,
    locality_matrix,
    loss_and_gradient,
    pair_weight,
    repellence_matrix,
    token_coords,
)
from selcorr.tensorio import NonFiniteError


def _random_instance(rng, n=None, dp=None):
    n = n or int(rng.integers(3, 12))
    dp = dp or int(rng.integers(2, 6))
    phi = rng.standard_normal((n, dp))
    pos = rng.uniform(0.0, 8.0, size=(n, 2))
    labels = rng.random(n) < 0.5
    if labels.all() or not labels.any():
        labels[0] = ~labels[0]
    return phi, pos, labels


_WEIGHTS = ("r_aa", "r_ai", "r_ii")


def _loss_split(phi, pos, labels, cfg, cosine=True):
    """The loss total and its att-att, att-inatt and inatt-inatt parts, each
    from `loss_and_gradient`: the loss is linear in the pair weight, so a
    type's part is the loss with the other two repellence weights at 0."""
    locality = locality_matrix(pos)

    def loss(c):
        return loss_and_gradient(phi, pair_weight(locality, labels, c), c.tau, cosine)[0]

    only = [replace(cfg, **{k: 0.0 for k in _WEIGHTS if k != keep}) for keep in _WEIGHTS]
    return (loss(cfg), *map(loss, only))


def test_token_coords():
    coords = token_coords(2, 3)
    assert coords.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]


def test_locality_matrix_hand_value():
    f = locality_matrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert f[0, 1] == pytest.approx(math.log(6.0), abs=1e-15)
    assert f[0, 0] == 0.0 and f[1, 1] == 0.0
    assert f[0, 1] == f[1, 0]


def test_repellence_matrix_pattern():
    cfg = ExperimentConfig(r_aa=5.0, r_ai=4.0, r_ii=2.0)
    r = repellence_matrix(np.array([True, False, True]), cfg)
    expect = [[5.0, 4.0, 5.0], [4.0, 2.0, 4.0], [5.0, 4.0, 5.0]]
    assert r.tolist() == expect


def test_correspondence_rows_stochastic():
    rng = np.random.default_rng(11)
    for tau in (0.01, 0.07, 1.0):
        for _ in range(10):
            phi, _, _ = _random_instance(rng)
            p = correspondence_matrix(phi, tau=tau)
            assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9
            assert p.min() >= 0.0


def test_correspondence_includes_self_pair():
    rng = np.random.default_rng(12)
    phi = rng.standard_normal((5, 3))
    p = correspondence_matrix(phi, tau=0.07)
    # cosine self-similarity is the row maximum, so the diagonal dominates
    assert (np.argmax(p, axis=1) == np.arange(5)).all()


def test_low_temperature_approaches_one_hot():
    rng = np.random.default_rng(13)
    phi = rng.standard_normal((6, 4))
    p = correspondence_matrix(phi, tau=1e-3)
    assert np.diag(p).min() > 1.0 - 1e-9


def test_raw_logits_mode():
    phi = np.array([[2.0, 0.0], [0.0, 1.0]])
    p = correspondence_matrix(phi, tau=1.0, cosine=False)
    # row 0 logits: 4 and 0
    assert p[0, 0] == pytest.approx(math.exp(4.0) / (math.exp(4.0) + 1.0), rel=1e-12)


def test_partials_partition_total():
    rng = np.random.default_rng(14)
    for _ in range(10):
        phi, pos, labels = _random_instance(rng)
        total, *parts = _loss_split(phi, pos, labels, ExperimentConfig())
        assert abs(total - sum(parts)) <= 1e-12 * max(abs(total), 1.0)


def test_loss_is_linear_in_repellence_weights():
    rng = np.random.default_rng(15)
    phi, pos, labels = _random_instance(rng)
    base = ExperimentConfig(r_aa=5.0, r_ai=5.0, r_ii=2.0)
    c = 3.7
    scaled = ExperimentConfig(r_aa=5.0 * c, r_ai=5.0 * c, r_ii=2.0 * c)
    l0 = _loss_split(phi, pos, labels, base)[0]
    l1 = _loss_split(phi, pos, labels, scaled)[0]
    assert abs(l1 - c * l0) <= 1e-12 * abs(l1)


def test_diagonal_never_contributes():
    # the locality factor zeroes self pairs, so total is the off-diagonal sum
    rng = np.random.default_rng(16)
    phi, pos, labels = _random_instance(rng)
    cfg = ExperimentConfig()
    total = _loss_split(phi, pos, labels, cfg)[0]
    w = pair_weight(locality_matrix(pos), labels, cfg)
    terms = w * correspondence_matrix(phi, tau=cfg.tau)
    assert total == pytest.approx(terms[~np.eye(len(labels), dtype=bool)].sum(), rel=1e-12)


@pytest.mark.parametrize("cosine", [True, False])
def test_gradient_matches_finite_differences(cosine):
    rng = np.random.default_rng(17)
    phi, pos, labels = _random_instance(rng, n=7, dp=3)
    cfg = ExperimentConfig(tau=0.07)
    weight = pair_weight(locality_matrix(pos), labels, cfg)
    grad = loss_and_gradient(phi, weight, tau=cfg.tau, cosine=cosine)[1]
    h = 1e-5
    fd = np.zeros_like(phi)
    for i in range(phi.shape[0]):
        for j in range(phi.shape[1]):
            p1, p2 = phi.copy(), phi.copy()
            p1[i, j] += h
            p2[i, j] -= h
            fd[i, j] = (
                _loss_split(p1, pos, labels, cfg, cosine)[0]
                - _loss_split(p2, pos, labels, cfg, cosine)[0]
            ) / (2.0 * h)
    assert np.abs(grad - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)


def test_loss_and_gradient_consistent_with_composed_sum():
    rng = np.random.default_rng(18)
    phi, pos, labels = _random_instance(rng)
    cfg = ExperimentConfig()
    w = pair_weight(locality_matrix(pos), labels, cfg)
    total, _ = loss_and_gradient(phi, w, tau=cfg.tau)
    composed = (w * correspondence_matrix(phi, tau=cfg.tau)).sum()
    assert total == pytest.approx(composed, rel=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        correspondence_matrix(np.zeros((2, 2)), tau=-1.0)
    with pytest.raises(ValueError):
        correspondence_matrix(np.zeros((2, 2)))  # zero rows cannot be normalized
    with pytest.raises(ValueError):
        locality_matrix(np.zeros((3, 3)))


def test_overflowing_feature_norm_raises():
    # an infinite norm would scale the row to zeros and flatten the loss
    phi = np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NonFiniteError, match="feature norms overflow"):
        loss_and_gradient(phi, np.ones((3, 3)))
    with pytest.raises(NonFiniteError, match="feature norms overflow"):
        correspondence_matrix(phi)
