import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from selcorr import projector
from selcorr.config import ConfigError, ExperimentConfig, load_config, read_world
from selcorr.dpc import cluster_tokens
from selcorr.lcr import locality_matrix, loss_and_gradient
from selcorr.partition import cls_similarity, split_tokens
from selcorr.projector import (
    Projector,
    descend,
    init_projector,
    load_checkpoint,
    prepare_image,
    project,
    projector_checksum,
    save_checkpoint,
    train_projector,
)
from selcorr.synth import SyntheticFaceSpec, generate_backbone_output
from selcorr.tensorio import FeatureGrid, write_tensor

# the tests' 4x4-token world, small enough for finite differences
TINY = load_config(Path(__file__).resolve().parent / "configs" / "tiny.txt")


def _small_corpus(n=2):
    spec = TINY.face_spec()
    return [generate_backbone_output(spec, seed=i) for i in range(n)]


def test_init_is_seeded_and_bounded():
    p = init_projector(16, 8, seed=3)
    q = init_projector(16, 8, seed=3)
    assert np.array_equal(p.weight, q.weight)
    assert np.abs(p.weight).max() <= 1.0 / 4.0
    assert np.all(p.bias == 0.0)
    assert not np.array_equal(p.weight, init_projector(16, 8, seed=4).weight)


def test_projector_validation():
    with pytest.raises(ValueError):
        Projector(weight=np.zeros((4, 3)), bias=np.zeros(2))
    with pytest.raises(ValueError):
        Projector(weight=np.zeros((4, 1)), bias=np.zeros(1))
    with pytest.raises(ValueError):
        Projector(weight=np.full((4, 3), np.nan), bias=np.zeros(3))


def test_project_is_the_affine_map():
    rng = np.random.default_rng(21)
    grid = FeatureGrid(2, 2, 8, rng.standard_normal((4, 6)))
    p = Projector(weight=rng.standard_normal((6, 3)), bias=rng.standard_normal(3))
    out = project(p, grid)
    assert np.allclose(out.features, grid.features @ p.weight + p.bias, atol=1e-14)
    assert (out.grid_h, out.grid_w, out.patch) == (2, 2, 8)
    with pytest.raises(ValueError):
        project(p, FeatureGrid(2, 2, 8, rng.standard_normal((4, 5))))


def test_prepare_image_shapes_and_purity():
    out = _small_corpus(1)[0]
    before = out.main.features.copy()
    feats, weight, log_counts = prepare_image(out, ExperimentConfig(eta=0.25, kc=2))
    n = out.main.n_tokens
    m = 4 + 2  # 4 attentive of 16 tokens at eta 0.25, plus 2 centers
    assert feats.shape == (m, TINY.d)
    assert weight.shape == (m, m)
    assert log_counts.shape == (m,)
    assert np.exp(log_counts).sum() == pytest.approx(n, abs=1e-12)
    assert np.array_equal(out.main.features, before)  # inputs never mutated
    assert np.all(weight >= 0.0)


def test_zero_steps_returns_init():
    corpus = _small_corpus()
    proj, trace = train_projector(corpus, replace(TINY, proj_steps=0, kc=2))
    ref = init_projector(TINY.d, TINY.d_proj, seed=0)
    assert np.array_equal(proj.weight, ref.weight)
    assert np.array_equal(proj.bias, ref.bias)
    assert trace == []


def test_training_is_deterministic_and_decreases_loss():
    corpus = _small_corpus()
    cfg = replace(TINY, proj_lr=1e-3, proj_steps=40, kc=2)
    p1, t1 = train_projector(corpus, cfg)
    p2, t2 = train_projector(corpus, cfg)
    assert p1.weight.tobytes() == p2.weight.tobytes()
    assert p1.bias.tobytes() == p2.bias.tobytes()
    assert t1[-1] < t1[0]
    assert all(np.isfinite(t1))


def test_momentum_optimizer_runs():
    corpus = _small_corpus()
    cfg = replace(TINY, proj_lr=1e-4, proj_steps=20, kc=2, optimizer="momentum")
    _, trace = train_projector(corpus, cfg)
    assert trace[-1] < trace[0]


@pytest.mark.parametrize("optimizer", ["gd", "momentum"])
def test_training_equals_a_hand_written_loop(optimizer):
    """Three steps of `train_projector`, bit for bit, against the update
    written out over `loss_and_gradient`."""
    corpus = _small_corpus()
    cfg = replace(TINY, proj_lr=1e-3, proj_steps=3, kc=2, optimizer=optimizer, momentum=0.9)
    proj, trace = train_projector(corpus, cfg)

    prepared = [prepare_image(o, cfg) for o in corpus]
    init = init_projector(TINY.d, TINY.d_proj, seed=0)
    w, b = init.weight.copy(), init.bias.copy()
    vel_w, vel_b = np.zeros_like(w), np.zeros_like(b)
    losses = []
    for _ in range(3):
        grad_w, grad_b, total = np.zeros_like(w), np.zeros_like(b), 0.0
        for f, pw, lc in prepared:
            loss, g_phi = loss_and_gradient(f @ w + b, pw, tau=cfg.tau, log_counts=lc)
            grad_w += f.T @ g_phi
            grad_b += g_phi.sum(axis=0)
            total += loss
        losses.append(total / 2)
        grad_w /= 2
        grad_b /= 2
        if optimizer == "momentum":
            vel_w = 0.9 * vel_w + grad_w
            vel_b = 0.9 * vel_b + grad_b
            grad_w, grad_b = vel_w, vel_b
        w = w - 1e-3 * grad_w
        b = b - 1e-3 * grad_b
    assert trace == losses
    assert proj.weight.tobytes() == w.tobytes()
    assert proj.bias.tobytes() == b.tobytes()


@pytest.mark.parametrize("optimizer", ["gd", "momentum"])
def test_descend_leaves_the_arrays_it_is_given_unchanged(optimizer):
    params = [np.array([1.0, -2.0]), np.array([[0.5, 3.0]])]
    given = [p.copy() for p in params]

    def loss_and_grads(ps):
        return float(sum((p * p).sum() for p in ps)), [2.0 * p for p in ps]

    out, losses = descend(params, loss_and_grads, 0.1, 3, optimizer, 0.9)
    assert all(p.tobytes() == g.tobytes() for p, g in zip(params, given))
    assert len(losses) == 3 and not any(o is p for o, p in zip(out, params))
    assert out[0].tobytes() != given[0].tobytes()


def test_mean_of_sums_items_in_order():
    rng = np.random.default_rng(5)
    items = [(float(rng.standard_normal()), [rng.standard_normal(3), rng.standard_normal((2, 2))])
             for _ in range(4)]
    want_loss = (((0.0 + items[0][0]) + items[1][0]) + items[2][0] + items[3][0]) / 4
    want = [(((a + b) + c) + d) / 4 for a, b, c, d in zip(*(grads for _, grads in items))]
    loss, grads = projector.mean_of([(loss, [g.copy() for g in gs]) for loss, gs in items])
    assert loss == want_loss
    assert all(g.tobytes() == w.tobytes() for g, w in zip(grads, want))


def test_corpus_gradient_matches_finite_differences():
    """The W/b gradient assembled inside the training loop, re-derived by
    central differences on the mean corpus loss."""
    corpus = _small_corpus()
    cfg = ExperimentConfig(kc=2)
    prepared = [prepare_image(o, cfg) for o in corpus]
    proj = init_projector(TINY.d, TINY.d_proj, seed=0)
    w, b = proj.weight, proj.bias

    def corpus_loss(wm, bv):
        return float(
            np.mean(
                [
                    loss_and_gradient(f @ wm + bv, pw, tau=cfg.tau, log_counts=lc)[0]
                    for f, pw, lc in prepared
                ]
            )
        )

    grad_w = np.zeros_like(w)
    grad_b = np.zeros_like(b)
    for f, pw, lc in prepared:
        _, g_phi = loss_and_gradient(f @ w + b, pw, tau=cfg.tau, log_counts=lc)
        grad_w += f.T @ g_phi
        grad_b += g_phi.sum(axis=0)
    grad_w /= len(prepared)
    grad_b /= len(prepared)

    h = 1e-5
    for idx in [(0, 0), (3, 2), (7, 1)]:
        w1, w2 = w.copy(), w.copy()
        w1[idx] += h
        w2[idx] -= h
        fd = (corpus_loss(w1, b) - corpus_loss(w2, b)) / (2.0 * h)
        assert grad_w[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
    b1, b2 = b.copy(), b.copy()
    b1[1] += h
    b2[1] -= h
    fd = (corpus_loss(w, b1) - corpus_loss(w, b2)) / (2.0 * h)
    assert grad_b[1] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def _dense_oracle(out, cfg, cosine, w, b):
    """Loss and W/b gradient of one image on all N substituted tokens, in
    plain numpy: the token split and the clustering come from the library,
    the substitution, the pair weight, the loss and its gradient do not."""
    labels = np.zeros(out.main.n_tokens, dtype=bool)
    labels[split_tokens(cls_similarity(out.q_cls, out.keys), cfg.eta).attentive] = True
    inatt = np.flatnonzero(~labels)
    member_center = cluster_tokens(out.aux.features[inatt], cfg.kc).member_center
    feats = out.main.features.copy()
    feats[inatt] = out.main.features[inatt[member_center]]

    rows, cols = np.divmod(np.arange(out.main.n_tokens), out.main.grid_w)
    dist = np.hypot(rows[:, None] - rows[None, :], cols[:, None] - cols[None, :])
    repel = np.where(labels[:, None] & labels[None, :], cfg.r_aa,
                     np.where(~labels[:, None] & ~labels[None, :], cfg.r_ii, cfg.r_ai))
    weight = np.log(dist + 1.0) * repel

    phi = feats @ w + b
    norms = np.sqrt((phi**2).sum(axis=1, keepdims=True))
    z = phi / norms if cosine else phi
    logits = z @ z.T / cfg.tau
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    row = (weight * p).sum(axis=1, keepdims=True)
    g = p * (weight - row)
    gz = (g + g.T) @ z / cfg.tau
    g_phi = (gz - (gz * z).sum(axis=1, keepdims=True) * z) / norms if cosine else gz
    return row.sum(), feats.T @ g_phi, g_phi.sum(axis=0)


@pytest.mark.parametrize("cosine", [True, False])
@pytest.mark.parametrize("kc", [1, 2, 12])  # 12: every inattentive token is a center
def test_distinct_row_loss_equals_the_dense_loss(cosine, kc):
    corpus = _small_corpus(3)
    cfg = ExperimentConfig(kc=kc)
    # small enough weights that the dot-product softmax is not saturated:
    # there both gradients are rounding noise and agree in no digit. At 0.1
    # each row's logits span at most 15; at 0.3 they span up to 139, and at
    # kc=1 the gradients agree in three digits
    rng = np.random.default_rng(5)
    w = 0.1 * rng.standard_normal((TINY.d, TINY.d_proj))
    b = 0.1 * rng.standard_normal(TINY.d_proj)
    for out in corpus:
        feats, weight, log_counts = prepare_image(out, cfg)
        assert feats.shape[0] == 4 + kc
        if kc == 12:
            assert np.all(log_counts == 0.0)
        loss, g_phi = loss_and_gradient(
            feats @ w + b, weight, tau=cfg.tau, cosine=cosine, log_counts=log_counts
        )
        want_loss, want_w, want_b = _dense_oracle(out, cfg, cosine, w, b)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        np.testing.assert_allclose(feats.T @ g_phi, want_w, rtol=1e-12, atol=1e-12 * np.abs(want_w).max())
        np.testing.assert_allclose(g_phi.sum(axis=0), want_b, rtol=1e-12, atol=1e-12 * np.abs(want_b).max())


def test_training_runs_the_loss_on_distinct_rows_only(monkeypatch):
    """At the default geometry (12x12 tokens, eta 0.25, kc 4) every loss
    call sees 36 attentive rows plus 4 centers, never the 144 tokens."""
    seen = []

    def recording(projected, weight, **kwargs):
        seen.append((projected.shape, weight.shape, kwargs["log_counts"].shape))
        return loss_and_gradient(projected, weight, **kwargs)

    monkeypatch.setattr(projector, "loss_and_gradient", recording)
    cfg = ExperimentConfig()
    corpus = [generate_backbone_output(cfg.face_spec(), seed=i) for i in range(2)]
    assert corpus[0].main.n_tokens == 144
    train_projector(corpus, replace(cfg, proj_steps=2))
    assert seen == [((40, cfg.d_proj), (40, 40), (40,))] * 4


def test_training_keeps_no_backbone_output_once_prepared(monkeypatch):
    refs = []

    def recording(output, cfg):
        refs.append(weakref.ref(output))
        return prepare_image(output, cfg)

    def checking(params, item_losses, *settings):
        assert len(refs) == 3 and all(ref() is None for ref in refs)
        return descend(params, item_losses, *settings)

    monkeypatch.setattr(projector, "prepare_image", recording)
    monkeypatch.setattr(projector, "descend", checking)
    spec = SyntheticFaceSpec()
    stream = (generate_backbone_output(spec, seed=i) for i in range(3))
    proj, trace = train_projector(stream, ExperimentConfig(proj_steps=2, kc=2, d_proj=4))
    assert len(trace) == 2 and proj.in_dim == spec.d


def test_training_builds_the_locality_matrix_once(monkeypatch):
    calls = []

    def counting(positions):
        calls.append(1)
        return locality_matrix(positions)

    monkeypatch.setattr(projector, "locality_matrix", counting)
    projector._grid_locality.cache_clear()
    train_projector(_small_corpus(4), replace(TINY, proj_steps=2, kc=2))
    assert len(calls) == 1
    g = TINY.face_spec().grid_size
    shared = projector._grid_locality(g, g)
    rows, cols = np.divmod(np.arange(g * g), g)
    cells = np.stack([rows, cols], axis=1).astype(np.float64)
    assert shared.tobytes() == locality_matrix(cells).tobytes()
    with pytest.raises(ValueError):
        shared[0, 0] = 1.0


@pytest.mark.parametrize(
    "key, value", [("proj_lr", 0.0), ("r_ai", -1.0), ("reg_steps", -1), ("momentum", 1.0)]
)
def test_trainers_validate_the_config_before_reading_a_sample(key, value):
    # the trainers take their config as given: one out of range cannot be
    # built, from keywords or by `replace`, so no trainer reads a sample under it
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        ExperimentConfig(**{key: value})
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        replace(TINY, **{key: value})


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_projector([], ExperimentConfig(d_proj=4))


def test_checkpoint_roundtrip(tmp_path):
    cfg = replace(TINY, proj_steps=3, kc=2)
    proj, _ = train_projector(_small_corpus(), cfg)
    digest = save_checkpoint(tmp_path / "ck", proj, replace(cfg, seed=3), seed=0)
    assert digest == projector_checksum(proj)
    back, world = load_checkpoint(tmp_path / "ck")
    assert np.array_equal(back.weight, proj.weight)
    assert np.array_equal(back.bias, proj.bias)
    # meta.txt holds the init seed and the checksum, and nothing else
    meta = (tmp_path / "ck" / "meta.txt").read_text()
    assert meta == f"seed=0\nsha256={digest}\n"
    # the world the projector was trained on, with the corpus's seed
    assert world == read_world(tmp_path / "ck") == replace(cfg, seed=3)


def _edit(name, old, new):
    return lambda ck: (ck / name).write_text((ck / name).read_text().replace(old, new))


@pytest.mark.parametrize(
    "tamper",
    [
        _edit("meta.txt", "sha256=", "sha256=0"),
        lambda ck: write_tensor(ck / "weight.scet", np.full((TINY.d, TINY.d_proj), np.nan)),
        _edit("config.txt", f"\nd={TINY.d}\n", f"\nd={TINY.d + 1}\n"),
        _edit("config.txt", f"d_proj={TINY.d_proj}\n", f"d_proj={TINY.d_proj + 1}\n"),
    ],
    ids=["sha256", "nan_weight", "world_d", "world_d_proj"],
)
def test_checkpoint_is_checked_on_load(tmp_path, tamper):
    cfg = replace(TINY, proj_steps=1, kc=2)
    proj, _ = train_projector(_small_corpus(), cfg)
    ck = tmp_path / "ck"
    save_checkpoint(ck, proj, cfg, seed=0)
    tamper(ck)
    with pytest.raises(ValueError, match=str(ck)):
        load_checkpoint(ck)
