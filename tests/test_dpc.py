import math

import numpy as np
import pytest

from selcorr import dpc
from selcorr.config import ExperimentConfig
from selcorr.dpc import (
    approximate_inattentive,
    assign_members,
    cluster_tokens,
    select_centers,
)
from selcorr.partition import cls_similarity, split_tokens
from selcorr.synth import SyntheticFaceSpec, generate_backbone_output, sample_spec
from selcorr.tensorio import NonFiniteError, sq_dists


def brute_force(features, kc, verbatim=False):
    """Triple-loop reference: no vectorization, no shared code with dpc."""
    m = len(features)
    d = [[math.dist(features[i], features[j]) for j in range(m)] for i in range(m)]
    rho = []
    for i in range(m):
        if verbatim:
            rho.append(math.exp(sum(d[i][j] ** 2 for j in range(m))))
        else:
            rho.append(sum(math.exp(-d[i][j] ** 2) for j in range(m) if j != i))
    delta = []
    for i in range(m):
        best = math.inf
        for j in range(m):
            denser = rho[j] > rho[i] or (rho[j] == rho[i] and j < i)
            if denser and d[i][j] < best:
                best = d[i][j]
        if best == math.inf:  # effectively densest token
            best = max(d[i])
        delta.append(best)
    score = [rho[i] * delta[i] for i in range(m)]
    order = sorted(range(m), key=lambda i: (-score[i], i))
    centers = sorted(order[: min(kc, m)])
    member = []
    for i in range(m):
        best_c, best_d = None, math.inf
        for c in centers:
            if d[i][c] < best_d:
                best_c, best_d = c, d[i][c]
        member.append(i if i in centers else best_c)
    return rho, delta, score, centers, member


def test_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 11))
        feats = rng.standard_normal((m, int(rng.integers(1, 5))))
        kc = int(rng.integers(1, 6))
        asg = cluster_tokens(feats, kc)
        rho, delta, score, centers, member = brute_force(feats.tolist(), kc)
        assert np.abs(asg.rho - rho).max() <= 1e-12
        assert np.abs(asg.delta - delta).max() <= 1e-12
        assert np.abs(asg.score - score).max() <= 1e-12
        assert asg.centers.tolist() == centers
        assert asg.member_center.tolist() == member


def test_verbatim_density_variant():
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((6, 3))
    rho, *_ = brute_force(feats.tolist(), 2, verbatim=True)
    asg = cluster_tokens(feats, 2, verbatim=True)
    assert np.abs(asg.rho - rho).max() <= 1e-9 * max(rho)


def test_verbatim_density_overflow_raises():
    # every inattentive aux row of the default corpus's sample 0 has a
    # squared-distance sum far past the ~709 where exp overflows
    cfg = ExperimentConfig()
    spec = sample_spec(cfg.face_spec(), cfg.seed, 0)
    out = generate_backbone_output(spec, seed=0)
    part = split_tokens(cls_similarity(out.q_cls, out.keys), cfg.eta)
    feats = out.aux.features[part.inattentive]
    assert (((feats[:, None, :] - feats[None, :, :]) ** 2).sum(axis=(1, 2)) > 709.8).all()
    with pytest.raises(NonFiniteError, match="verbatim density overflows"):
        cluster_tokens(feats, cfg.kc, verbatim=True)


def test_cluster_tokens_builds_the_distances_once(monkeypatch):
    # the default corpus's inattentive aux rows: 108 of them, against kc 4
    cfg = ExperimentConfig()
    spec = sample_spec(cfg.face_spec(), cfg.seed, 0)
    out = generate_backbone_output(spec, seed=0)
    part = split_tokens(cls_similarity(out.q_cls, out.keys), cfg.eta)
    feats = out.aux.features[part.inattentive]
    m = feats.shape[0]
    assert m > cfg.kc
    shapes = []

    def counting(a, b):
        shapes.append((a.shape[0], b.shape[0]))
        return sq_dists(a, b)

    monkeypatch.setattr(dpc, "sq_dists", counting)
    asg = cluster_tokens(feats, cfg.kc)
    assert shapes == [(m, m)]  # membership reads the same matrix
    rho, delta, *_ = brute_force(feats.tolist(), cfg.kc)
    assert np.abs(asg.rho - rho).max() <= 1e-12
    assert np.abs(asg.delta - delta).max() <= 1e-12


def test_density_two_points():
    feats = np.array([[0.0, 0.0], [3.0, 4.0]])  # distance 5
    assert cluster_tokens(feats, 1).rho == pytest.approx([math.exp(-25.0)] * 2, rel=1e-12)
    verbatim = cluster_tokens(feats, 1, verbatim=True).rho
    assert verbatim == pytest.approx([math.exp(25.0)] * 2, rel=1e-12)


def test_density_rewards_tight_packs():
    # two clumped points plus a far outlier: clump members are denser
    feats = np.array([[0.0], [0.1], [50.0]])
    rho = cluster_tokens(feats, 1).rho
    assert rho[0] > rho[2] and rho[1] > rho[2]


def test_peak_distance_rules():
    feats = np.array([[0.0], [1.0], [5.0]])
    asg = cluster_tokens(feats, 1)
    assert asg.rho[1] > asg.rho[0] > asg.rho[2]
    # densest (index 1): distance to farthest; others: nearest strictly denser
    assert asg.delta == pytest.approx([1.0, 4.0, 4.0])


def test_peak_distance_tie_by_index():
    asg = cluster_tokens(np.array([[0.0], [2.0]]), 1)
    # mirror images have exactly equal densities: index 0 acts denser, so it is the top
    assert asg.rho[0] == asg.rho[1]
    assert asg.delta == pytest.approx([2.0, 2.0])


def test_peak_distance_singleton():
    assert cluster_tokens(np.array([[1.0, 2.0]]), 1).delta == pytest.approx([0.0])


def test_select_centers():
    rho = np.array([1.0, 4.0, 2.0, 4.0])
    delta = np.array([1.0, 1.0, 3.0, 1.0])
    assert select_centers(rho, delta, 2).tolist() == [1, 2]  # scores 1,4,6,4; tie 1 vs 3 -> 1
    assert select_centers(rho, delta, 10).tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        select_centers(rho, delta, 0)


def test_assign_members_tie_prefers_lower_center():
    feats = np.array([[0.0], [2.0], [1.0]])  # index 2 equidistant from both centers
    assert assign_members(sq_dists(feats, feats), np.array([0, 1])).tolist() == [0, 1, 0]


def test_assign_members_maps_centers_to_themselves():
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((8, 2))
    member_center = assign_members(sq_dists(feats, feats), np.array([5, 1]))  # any order
    assert set(member_center.tolist()) == {1, 5}
    assert member_center[1] == 1 and member_center[5] == 5


def test_substitution_on_noise_free_grid():
    """With zero noise the substituted inattentive set collapses to the
    region values: picking as many centers as regions leaves exactly that
    many distinct inattentive rows, and attentive rows never move."""
    spec = SyntheticFaceSpec(sigma=0.0)
    out = generate_backbone_output(spec, seed=0)
    part = split_tokens(cls_similarity(out.q_cls, out.keys), 0.25)
    asg = cluster_tokens(out.aux.features[part.inattentive], kc=spec.n_regions)
    source = approximate_inattentive(out.main.n_tokens, part.inattentive, asg.member_center)
    assert source.shape == (out.main.n_tokens,) and source.dtype.kind == "i"
    # every attentive token and every center is its own source
    assert np.array_equal(source[part.attentive], part.attentive)
    centers = part.inattentive[asg.centers]
    assert np.array_equal(source[centers], centers)
    # each inattentive token's source is the center it was assigned
    assert np.array_equal(source[part.inattentive], part.inattentive[asg.member_center])
    substituted = out.main.features[source]
    distinct = np.unique(substituted[part.inattentive], axis=0)
    assert distinct.shape[0] == spec.n_regions
    assert np.array_equal(substituted[part.attentive], out.main.features[part.attentive])


def test_density_input_validation():
    with pytest.raises(ValueError, match="M >= 1"):
        cluster_tokens(np.zeros((0, 2)), 1)
    with pytest.raises(ValueError, match="non-finite"):
        cluster_tokens(np.array([[np.nan]]), 1)
    with pytest.raises(ValueError, match="expected \\(M, d\\) features"):
        cluster_tokens(np.zeros(3), 1)
