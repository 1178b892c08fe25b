import numpy as np
import pytest

from selcorr.lcr import RepellenceConfig, loss_and_gradient
from selcorr.projector import (
    DivergenceError,
    Projector,
    TrainConfig,
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

# a 4x4-token world small enough for finite differences
SMALL = dict(
    landmarks_px=((6.0, 6.0), (20.0, 6.0), (13.0, 13.0), (8.0, 24.0), (20.0, 24.0)),
    region_anchors_px=((16.0, 3.0), (4.0, 22.0), (28.0, 22.0)),
    image_size=32,
    patch=8,
    d=8,
    d_aux=4,
)


def _small_corpus(n=2):
    spec = SyntheticFaceSpec(**SMALL)
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
    feats, weight = prepare_image(out, TrainConfig(eta=0.25, kc=2))
    n = out.main.n_tokens
    assert feats.shape == (n, 8)
    assert weight.shape == (n, n)
    assert np.array_equal(out.main.features, before)  # inputs never mutated
    assert np.all(weight >= 0.0)
    assert np.all(np.diag(weight) == 0.0)


def test_zero_steps_returns_init():
    corpus = _small_corpus()
    proj, trace = train_projector(corpus, TrainConfig(steps=0, kc=2), out_dim=4)
    ref = init_projector(8, 4, seed=0)
    assert np.array_equal(proj.weight, ref.weight)
    assert np.array_equal(proj.bias, ref.bias)
    assert trace.losses == []


def test_training_is_deterministic_and_decreases_loss():
    corpus = _small_corpus()
    cfg = TrainConfig(lr=1e-3, steps=40, kc=2)
    p1, t1 = train_projector(corpus, cfg, out_dim=4)
    p2, t2 = train_projector(corpus, cfg, out_dim=4)
    assert t1.checksum == t2.checksum
    assert np.array_equal(p1.weight, p2.weight)
    assert t1.losses[-1] < t1.losses[0]
    assert all(np.isfinite(t1.losses))


def test_momentum_optimizer_runs():
    corpus = _small_corpus()
    cfg = TrainConfig(lr=1e-4, steps=20, kc=2, optimizer="momentum")
    _, trace = train_projector(corpus, cfg, out_dim=4)
    assert trace.losses[-1] < trace.losses[0]


@pytest.mark.parametrize("optimizer", ["gd", "momentum"])
def test_training_equals_a_hand_written_loop(optimizer):
    """Three steps of `train_projector`, bit for bit, against the update
    written out over `loss_and_gradient`."""
    corpus = _small_corpus()
    cfg = TrainConfig(lr=1e-3, steps=3, kc=2, optimizer=optimizer, momentum=0.9)
    proj, trace = train_projector(corpus, cfg, out_dim=4)

    prepared = [prepare_image(o, cfg) for o in corpus]
    init = init_projector(8, 4, seed=0)
    w, b = init.weight.copy(), init.bias.copy()
    vel_w, vel_b = np.zeros_like(w), np.zeros_like(b)
    losses = []
    for _ in range(3):
        grad_w, grad_b, total = np.zeros_like(w), np.zeros_like(b), 0.0
        for f, pw in prepared:
            loss, g_phi = loss_and_gradient(f @ w + b, pw, tau=cfg.repel.tau)
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
    assert trace.losses == losses
    assert proj.weight.tobytes() == w.tobytes()
    assert proj.bias.tobytes() == b.tobytes()


def test_training_divergence():
    # the cosine softmax saturates, so a runaway step size only diverges on
    # raw dot-product logits, whose Z Z^T overflows
    cfg = TrainConfig(lr=1e50, steps=20, kc=2, repel=RepellenceConfig(cosine=False))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        train_projector(_small_corpus(), cfg, out_dim=4)


def test_corpus_gradient_matches_finite_differences():
    """The W/b gradient assembled inside the training loop, re-derived by
    central differences on the mean corpus loss."""
    corpus = _small_corpus()
    cfg = TrainConfig(kc=2)
    prepared = [prepare_image(o, cfg) for o in corpus]
    proj = init_projector(8, 4, seed=0)
    w, b = proj.weight, proj.bias

    def corpus_loss(wm, bv):
        return float(
            np.mean(
                [
                    loss_and_gradient(f @ wm + bv, pw, tau=cfg.repel.tau)[0]
                    for f, pw in prepared
                ]
            )
        )

    grad_w = np.zeros_like(w)
    grad_b = np.zeros_like(b)
    for f, pw in prepared:
        _, g_phi = loss_and_gradient(f @ w + b, pw, tau=cfg.repel.tau)
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


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_projector([], TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(steps=-1).validate()
    with pytest.raises(ValueError):
        TrainConfig(optimizer="adam").validate()


def test_checkpoint_roundtrip(tmp_path):
    proj, _ = train_projector(_small_corpus(), TrainConfig(steps=3, kc=2), out_dim=4)
    digest = save_checkpoint(tmp_path / "ck", proj, seed=0, steps=3)
    assert digest == projector_checksum(proj)
    back = load_checkpoint(tmp_path / "ck")
    assert np.array_equal(back.weight, proj.weight)
    assert np.array_equal(back.bias, proj.bias)
    meta = (tmp_path / "ck" / "meta.txt").read_text()
    assert f"sha256={digest}" in meta
    assert "in_dim=8" in meta and "out_dim=4" in meta


def _edit_meta(old, new):
    return lambda ck: (ck / "meta.txt").write_text((ck / "meta.txt").read_text().replace(old, new))


@pytest.mark.parametrize(
    "tamper",
    [
        _edit_meta("in_dim=8", "in_dim=9"),
        _edit_meta("out_dim=4\n", ""),
        _edit_meta("sha256=", "sha256=0"),
        lambda ck: write_tensor(ck / "weight.scet", np.full((8, 4), np.nan)),
    ],
    ids=["in_dim", "no_out_dim", "sha256", "nan_weight"],
)
def test_checkpoint_is_checked_on_load(tmp_path, tamper):
    proj, _ = train_projector(_small_corpus(), TrainConfig(steps=1, kc=2), out_dim=4)
    ck = tmp_path / "ck"
    save_checkpoint(ck, proj, seed=0, steps=1)
    tamper(ck)
    with pytest.raises(ValueError, match=str(ck)):
        load_checkpoint(ck)
