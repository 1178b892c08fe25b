from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selcorr import evaluation, tensorio
from selcorr.evaluation import (
    MASKED,
    drop_mask,
    inter_ocular_error,
    kind_means,
    match_pair,
    pair_similarity,
    regressor_forward,
    similarity_map,
    similarity_stack,
    soft_argmax,
    token_grid,
    train_regressor,
    upsample_features,
    write_pgm,
)
from selcorr.evaluation import init_regressor
from selcorr.config import ExperimentConfig, load_config
from selcorr.projector import DivergenceError, Projector, init_projector
from selcorr.partition import cls_similarity
from selcorr.synth import EvalPair, generate_backbone_output, make_pair
from selcorr.tensorio import DenseFeatureMap, FeatureGrid, bilinear_upsample

TINY_CONFIG = Path(__file__).resolve().parent / "configs" / "tiny.txt"
TINY = load_config(TINY_CONFIG)
TINY_CENTER = (TINY.crop / 2, TINY.crop / 2)


def _dense(values):
    return DenseFeatureMap(np.asarray(values, dtype=np.float64))


def _best_pixel(ref, test, query, mask=None):
    """Oracle: the (x, y) argmax of the query's similarity map, masked pixels
    at -inf; exactly equal scores resolve to the first pixel in scanline
    order (np.argmax's rule). Bit-identical features need not score exactly
    equal: the map's GEMV may round a pixel's cosine by its place."""
    sims = similarity_map(ref, test, query)
    if mask is not None:
        sims = np.where(mask, -np.inf, sims)
    y, x = divmod(int(np.argmax(sims)), sims.shape[1])
    return x, y


def _truth_pair(test_landmarks):
    """A pair that carries only what match_pair reads: the test ground truth."""
    lm = np.asarray(test_landmarks, dtype=np.float64)
    return EvalPair(ref=None, test=None, ref_landmarks=lm, test_landmarks=lm)


def test_self_match_with_distinct_features():
    rng = np.random.default_rng(30)
    m = _dense(rng.standard_normal((5, 7, 3)))
    for query in [(0, 0), (3, 2), (6, 4)]:
        assert _best_pixel(m, m, query) == query


def test_match_translation_oracle():
    rng = np.random.default_rng(31)
    ref = rng.standard_normal((8, 8, 2))
    dx, dy = 2, 1
    test = np.roll(ref, shift=(dy, dx), axis=(0, 1))
    for query in [(2, 3), (4, 4), (1, 2)]:
        got = _best_pixel(_dense(ref), _dense(test), query)
        assert got == (query[0] + dx, query[1] + dy)


def test_match_scale_invariance():
    rng = np.random.default_rng(32)
    ref = _dense(rng.standard_normal((6, 6, 3)))
    test = rng.standard_normal((6, 6, 3))
    q = (2, 2)
    assert _best_pixel(ref, _dense(test), q) == _best_pixel(ref, _dense(test * 37.0), q)


def test_match_tie_breaks_scanline():
    ref = _dense(np.ones((1, 1, 2)))
    test = _dense(np.ones((3, 3, 2)))  # every pixel ties
    assert _best_pixel(ref, test, (0, 0)) == (0, 0)
    sims = similarity_map(ref, test, (0, 0))[None]
    assert match_pair(_truth_pair([(0.0, 0.0)]), sims).tolist() == [0.0]


def test_match_mask_excludes_pixels():
    ref = _dense([[[1.0, 0.0]]])
    test = np.zeros((2, 2, 2))
    test[0, 0] = [1.0, 0.0]
    test[1, 1] = [0.9, 0.1]
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 0] = True
    assert _best_pixel(ref, _dense(test), (0, 0), mask) == (1, 1)
    pair = _truth_pair([(1.0, 1.0)])
    sims = similarity_map(ref, _dense(test), (0, 0))[None]
    assert match_pair(pair, sims, test_mask=mask).tolist() == [0.0]
    assert match_pair(pair, sims).tolist() == [np.hypot(1.0, 1.0)]  # (0, 0) wins unmasked
    with pytest.raises(ValueError):
        match_pair(pair, sims, test_mask=np.zeros((3, 3), dtype=bool))


def test_similarity_map_zero_norm_rules():
    ref = _dense([[[1.0, 0.0]]])
    test = np.zeros((1, 2, 2))
    test[0, 1] = [2.0, 0.0]
    sims = similarity_map(ref, _dense(test), (0, 0))
    assert sims[0, 0] == -1.0  # zero-norm candidate sits at the cosine floor
    assert sims[0, 1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        similarity_map(_dense([[[0.0, 0.0]]]), _dense(test), (0, 0))


def test_match_pair_and_summary():
    spec = TINY.face_spec()
    pair = make_pair(spec, "same", 0)
    errors = match_pair(pair, pair_similarity(pair, None))
    assert errors.shape == (5,) and (errors >= 0.0).all()
    table = np.stack([errors, errors + 1.0, errors + 3.0])
    same, diff = kind_means(table, 1)
    assert same == pytest.approx(errors.mean())
    assert diff == pytest.approx(errors.mean() + 2.0)


def _dense_stack(ref, test, queries):
    """Oracle: `similarity_map` of both upsampled maps, one map per query."""
    ref_map, test_map = upsample_features(ref), upsample_features(test)
    return np.stack([similarity_map(ref_map, test_map, tuple(q)) for q in queries])


# the token-level stack differs from the dense oracle by rounding alone;
# the largest difference seen over 200 default pairs was 1.1e-15
COSINE_BOUND = 1e-14


@pytest.mark.parametrize("features", ["raw", "projected"])
@pytest.mark.parametrize("drop_rate", [0.0, 0.5])
def test_pair_similarity_near_dense_oracle_and_errors_bit_for_bit(features, drop_rate):
    """The token-level stack within COSINE_BOUND of similarity_map of both
    upsampled maps, and match_pair's errors bit for bit against the oracle
    argmax of those maps."""
    spec = load_config(TINY_CONFIG, overrides={"crop": "48"}).face_spec()
    proj = None if features == "raw" else init_projector(TINY.d, TINY.d_proj, seed=1)
    for kind, seed in [("same", 0), ("different", 1), ("same", 2)]:
        pair = make_pair(spec, kind, seed)
        mask = None
        if drop_rate > 0.0:
            grid = pair.test.main
            scores = cls_similarity(pair.test.q_cls, pair.test.keys)
            mask = drop_mask(scores, drop_rate, grid.grid_h, grid.grid_w, grid.patch)
        ref, test = token_grid(pair.ref, proj), token_grid(pair.test, proj)
        ref_map = upsample_features(ref)
        test_map = upsample_features(test)
        assert pair_similarity(pair, proj).shape == (5, 48, 48)
        # off-grid and out-of-image queries exercise the rounding and clipping
        queries = [*pair.ref_landmarks, (0.4, 47.6), (-3.0, 60.0), (23.5, 24.5)]
        stack = similarity_stack(ref, test, queries)
        assert np.abs(stack - _dense_stack(ref, test, queries)).max() <= COSINE_BOUND
        errors = match_pair(pair, pair_similarity(pair, proj), test_mask=mask)
        expect = []
        for query, (gx, gy) in zip(pair.ref_landmarks, pair.test_landmarks):
            px, py = _best_pixel(ref_map, test_map, tuple(query), mask)
            expect.append(np.hypot(px - gx, py - gy))
        assert errors.tobytes() == np.array(expect).tobytes()


@pytest.mark.parametrize("n_queries", [1, 5, 9])
def test_similarity_stack_never_upsamples(monkeypatch, n_queries):
    """No dense map is built, and each grid's taps are taken once per pair
    (the reference's for the queries, the test's for the maps), whatever L."""

    def dense(*args):
        raise AssertionError("the test map was upsampled")

    calls = []
    taps = tensorio.bilinear_taps
    counting = lambda *a: calls.append(1) or taps(*a)  # noqa: E731
    monkeypatch.setattr(tensorio, "bilinear_upsample", dense)
    monkeypatch.setattr(evaluation, "bilinear_upsample", dense)
    monkeypatch.setattr(evaluation, "upsample_features", dense)
    monkeypatch.setattr(tensorio, "bilinear_taps", counting)
    monkeypatch.setattr(evaluation, "bilinear_taps", counting)
    pair = make_pair(TINY.face_spec(), "same", 0)
    queries = np.random.default_rng(n_queries).uniform(-2.0, TINY.crop + 2.0, size=(n_queries, 2))
    stack = similarity_stack(pair.ref.main, pair.test.main, queries)
    assert stack.shape == (n_queries, TINY.crop, TINY.crop) and len(calls) == 2
    pair = replace(pair, ref_landmarks=queries, test_landmarks=queries)
    assert pair_similarity(pair, None).tobytes() == stack.tobytes() and len(calls) == 4


def test_pixel_features_are_bit_identical_to_the_full_map():
    """The query features matching uses are the upsampled map's own values."""
    rng = np.random.default_rng(12)
    grid = FeatureGrid(3, 5, 4, rng.standard_normal((15, 6)))
    full = bilinear_upsample(grid).values
    ys, xs = (a.ravel() for a in np.mgrid[0:12, 0:20])
    assert evaluation._pixel_features(grid, xs, ys).tobytes() == full[ys, xs].tobytes()
    xs, ys = [7, 7, 0, 19, 7], [5, 5, 11, 0, 5]  # repeated pixels
    assert evaluation._pixel_features(grid, xs, ys).tobytes() == full[ys, xs].tobytes()


@pytest.mark.parametrize("grid_h, grid_w", [(1, 4), (4, 1)])
def test_similarity_stack_on_one_wide_grids(grid_h, grid_w):
    # the two column (or row) taps of every pixel are the same token
    rng = np.random.default_rng(34)
    ref = FeatureGrid(grid_h, grid_w, 3, rng.standard_normal((4, 5)))
    test = FeatureGrid(grid_h, grid_w, 3, rng.standard_normal((4, 5)))
    queries = [(0.0, 0.0), (grid_w * 3 - 1.0, grid_h * 3 - 1.0), (4.2, 5.7)]
    stack = similarity_stack(ref, test, queries)
    assert stack.shape == (3, grid_h * 3, grid_w * 3)
    assert np.abs(stack - _dense_stack(ref, test, queries)).max() <= COSINE_BOUND


def test_similarity_stack_zero_norm_rules():
    rng = np.random.default_rng(35)
    feats = rng.standard_normal((16, 3))
    feats.reshape(4, 4, 3)[:2, :2] = 0.0  # a zero 2x2 token block in the corner
    grid = FeatureGrid(4, 4, 4, feats)
    ref = FeatureGrid(4, 4, 4, rng.standard_normal((16, 3)))
    queries = [(3.0, 9.0), (14.0, 1.0)]
    stack = similarity_stack(ref, grid, queries)
    # pixels 0-5 take both taps of each axis from cells 0 and 1, all zero there
    zero = np.zeros((16, 16), dtype=bool)
    zero[:6, :6] = True
    assert (upsample_features(grid).values[zero] == 0.0).all()
    assert np.array_equal(stack == -1.0, np.broadcast_to(zero, stack.shape))
    assert np.abs(stack - _dense_stack(ref, grid, queries)).max() <= COSINE_BOUND
    with pytest.raises(ValueError, match=r"zero-norm feature at query pixel \(1, 2\)"):
        similarity_stack(grid, ref, [(14.0, 1.0), (1.2, 2.4)])


def _cancellation(grid):
    """(H, W) squared ratio of the bilinearly interpolated token norms to the
    norm of the interpolated feature: about 1 where the taps add up, large
    where they nearly cancel, which costs the token-level stack accuracy."""
    norms = np.linalg.norm(grid.features, axis=1, keepdims=True)
    upper = upsample_features(FeatureGrid(grid.grid_h, grid.grid_w, grid.patch, norms))
    with np.errstate(divide="ignore"):
        return (upper.values[..., 0] / np.linalg.norm(upsample_features(grid).values, axis=2)) ** 2


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_similarity_stack_near_dense_oracle_on_random_grids(grid_h, grid_w, patch, d, seed):
    """Cosines within COSINE_BOUND of the oracle, scaled by each pixel's
    cancellation, and match_pair's errors equal wherever the oracle's best
    pixel wins by more than the bounds of both pixels (within that margin
    either is an argmax up to rounding)."""
    rng = np.random.default_rng(seed)
    ref = FeatureGrid(grid_h, grid_w, patch, rng.standard_normal((grid_h * grid_w, d)))
    test = FeatureGrid(grid_h, grid_w, patch, rng.standard_normal((grid_h * grid_w, d)))
    size = np.array([ref.image_w, ref.image_h])
    queries = rng.uniform(-1.0, 1.0, size=(3, 2)) + rng.uniform(0.0, 1.0, size=(3, 2)) * size
    truth = rng.uniform(0.0, 1.0, size=(3, 2)) * size
    stack = similarity_stack(ref, test, queries)
    dense = _dense_stack(ref, test, queries)
    bound = COSINE_BOUND * _cancellation(test)
    assert (np.abs(stack - dense) <= bound).all()
    pair = EvalPair(ref=None, test=None, ref_landmarks=queries, test_landmarks=truth)
    errors, expect = match_pair(pair, stack), match_pair(pair, dense)
    for i, sims in enumerate(dense):
        best = np.unravel_index(np.argmax(sims), sims.shape)
        if (sims >= sims[best] - bound[best] - bound).sum() == 1:
            assert errors[i] == expect[i]


def test_soft_argmax_single_finite_value_is_exact():
    for shape, hot in [((3, 5), (1, 4)), ((4, 4), (0, 0)), ((2, 7), (1, 3))]:
        heat = np.full(shape, MASKED)
        heat[hot] = 2.5
        for temp in (0.1, 1.0, 10.0):
            x, y = soft_argmax(heat, temperature=temp)
            assert (x, y) == (float(hot[1]), float(hot[0]))


def test_soft_argmax_uniform_is_centroid():
    x, y = soft_argmax(np.zeros((3, 5)))
    assert (x, y) == pytest.approx((2.0, 1.0))


def test_soft_argmax_two_equal_peaks():
    heat = np.full((1, 5), MASKED)
    heat[0, 0] = 1.0
    heat[0, 4] = 1.0
    assert soft_argmax(heat) == pytest.approx((2.0, 0.0))


def test_soft_argmax_stays_in_hull():
    rng = np.random.default_rng(33)
    for _ in range(10):
        heat = rng.standard_normal((4, 6)) * 10.0
        x, y = soft_argmax(heat, temperature=0.5)
        assert 0.0 <= x <= 5.0 and 0.0 <= y <= 3.0
    with pytest.raises(ValueError):
        soft_argmax(np.zeros((2, 2)), temperature=0.0)


def test_regressor_zero_conv_zero_head_weights():
    # with nothing learned the prediction is exactly the head bias
    target = np.array([[10.0, 20.0], [30.0, 5.0]])
    params = [np.zeros((2 * 3, 3, 3, 4)), np.zeros((2, 6, 2)), target]
    rng = np.random.default_rng(34)
    grid = FeatureGrid(4, 4, 8, rng.standard_normal((16, 2)))
    proj = Projector(rng.standard_normal((2, 2)), rng.standard_normal(2))
    assert np.array_equal(regressor_forward(params, grid, proj, 0.1), target)


def test_regressor_dense_loop_oracle():
    """Random parameters on a 4x4 grid against an independent implementation:
    stage-2 channels as x @ W + b, explicit zero-padded convolution loops,
    per-map softmax, coordinate expectation in the same normalized units,
    then the linear head. The oracle adds a random bias to each map, which
    the soft-argmax ignores."""
    rng = np.random.default_rng(35)
    n_lm, heatmaps, in_ch, patch = 2, 2, 4, 8
    gh = gw = 4
    conv = rng.standard_normal((n_lm * heatmaps, in_ch, 3, 3))
    conv_bias = rng.standard_normal(n_lm * heatmaps)
    head_w = rng.standard_normal((n_lm, 2 * heatmaps, 2))
    head_b = rng.standard_normal((n_lm, 2))
    feats = rng.standard_normal((gh * gw, 2))
    proj = Projector(rng.standard_normal((2, 2)), rng.standard_normal(2))
    got = regressor_forward(
        [conv.transpose(0, 2, 3, 1), head_w, head_b], FeatureGrid(gh, gw, patch, feats), proj, 0.7
    )

    x = np.concatenate([feats, feats @ proj.weight + proj.bias], axis=1).reshape(gh, gw, in_ch)
    coords = []
    for o in range(n_lm * heatmaps):
        heat = np.zeros((gh, gw))
        for i in range(gh):
            for j in range(gw):
                acc = conv_bias[o]
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ii, jj = i + di, j + dj
                        if 0 <= ii < gh and 0 <= jj < gw:
                            acc += float(conv[o, :, di + 1, dj + 1] @ x[ii, jj])
                heat[i, j] = acc
        p = np.exp(heat / 0.7 - (heat / 0.7).max())
        p /= p.sum()
        ex = ey = 0.0
        for i in range(gh):
            for j in range(gw):
                ex += p[i, j] * (((j + 0.5) * patch - 0.5) / (gw * patch) - 0.5)
                ey += p[i, j] * (((i + 0.5) * patch - 0.5) / (gh * patch) - 0.5)
        coords.extend([ex, ey])
    coords = np.asarray(coords).reshape(n_lm, 2 * heatmaps)
    expect = np.einsum("li,lio->lo", coords, head_w) + head_b
    assert np.abs(got - expect).max() <= 1e-10


def test_regressor_head_bias_translation():
    # shifting the head bias shifts every prediction by exactly that amount
    rng = np.random.default_rng(36)
    conv, head_w, head_b = init_regressor(2, 4, heatmaps=3, seed=0, center=(16.0, 16.0))
    grid = FeatureGrid(4, 4, 8, rng.standard_normal((16, 2)))
    proj = Projector(rng.standard_normal((2, 2)), rng.standard_normal(2))
    base = regressor_forward([conv, head_w, head_b], grid, proj, 0.1)
    delta = np.array([3.0, -2.0])
    moved = regressor_forward([conv, head_w, head_b + delta], grid, proj, 0.1)
    assert np.abs(moved - (base + delta)).max() <= 1e-12


def test_regressor_geometry_and_param_checks():
    params = init_regressor(2, 4, heatmaps=2, seed=0)
    rng = np.random.default_rng(37)
    grid = FeatureGrid(4, 4, 8, rng.standard_normal((16, 2)))
    with pytest.raises(ValueError, match="projector expects 3"):
        regressor_forward(params, grid, Projector(np.zeros((3, 2)), np.zeros(2)), 0.1)
    with pytest.raises(ValueError, match="5 input channels, regressor expects 4"):
        regressor_forward(params, grid, Projector(np.zeros((2, 3)), np.zeros(3)), 0.1)


def _training_setup(n=3):
    spec = TINY.face_spec()
    proj = init_projector(TINY.d, TINY.d_proj, seed=0)
    samples = []
    for i in range(n):
        out = generate_backbone_output(spec, seed=i)
        samples.append((out.main, np.asarray(spec.landmarks_px)))
    return samples, proj


def _regressor_cfg(**values):
    """A detector config of 2 heatmaps per landmark, trained by plain gd at
    rate 1e-3 for 200 steps unless `values` says otherwise."""
    return ExperimentConfig(
        **{"heatmaps": 2, "reg_lr": 1e-3, "reg_steps": 200, "reg_optimizer": "gd", **values}
    )


def test_train_regressor_zero_steps_and_determinism():
    samples, proj = _training_setup()
    p0, t0 = train_regressor(samples, proj, _regressor_cfg(reg_steps=0))
    ref = init_regressor(5, TINY.d + TINY.d_proj, heatmaps=2, seed=0, center=TINY_CENTER)
    assert np.array_equal(p0[0], ref[0])
    assert np.array_equal(p0[2], ref[2])
    assert t0 == []
    pa, ta = train_regressor(samples, proj, _regressor_cfg(reg_lr=1e-3, reg_steps=5))
    pb, tb = train_regressor(samples, proj, _regressor_cfg(reg_lr=1e-3, reg_steps=5))
    for a, b in zip(pa, pb):
        assert a.tobytes() == b.tobytes()
    assert ta == tb


def test_train_regressor_reduces_loss():
    samples, proj = _training_setup()
    _, trace = train_regressor(
        samples, proj, _regressor_cfg(reg_lr=1e-2, reg_steps=30, reg_optimizer="momentum")
    )
    assert trace[-1] < trace[0]


def _im2col_rows(grid, proj):
    from selcorr.evaluation import _im2col, _windows

    padded = _windows(grid, proj)
    out = np.empty((grid.grid_h * grid.grid_w, 9 * padded.shape[2]))
    return padded, _im2col(padded, out)


def _both_stages_padded(grid, proj):
    """Oracle: the zero-padded (H + 2, W + 2, d + d_proj) first-stage
    channels followed by x @ W + b, the channels a conv kernel is laid out for."""
    both = np.concatenate([grid.features, grid.features @ proj.weight + proj.bias], axis=1)
    return np.pad(both.reshape(grid.grid_h, grid.grid_w, -1), ((1, 1), (1, 1), (0, 0)))


def _conv_loss_and_grads(conv, head_w, head_b, grid, proj, target, temp):
    """`_loss_and_grads` of a conv over both stages' channels: folded
    through `_lift(proj)` before, and its kernel gradient lifted back after,
    as one training step does."""
    from selcorr.evaluation import _cells, _fold, _lift, _loss_and_grads

    lift = _lift(proj)
    _, x = _im2col_rows(grid, proj)
    cells = _cells(grid.grid_h, grid.grid_w, grid.patch)
    loss, (d_kernel, d_head_w, d_head_b) = _loss_and_grads(
        [_fold(conv, lift), head_w, head_b], x, cells, target, temp
    )
    return loss, [(d_kernel.reshape(-1, len(lift)) @ lift).reshape(conv.shape), d_head_w, d_head_b]


def test_im2col_rows_are_channel_last_windows():
    from selcorr.evaluation import _lift

    rng = np.random.default_rng(38)
    gh, gw = 3, 5
    feats = rng.standard_normal((gh * gw, 2))
    proj = Projector(rng.standard_normal((2, 3)), rng.standard_normal(3))
    grid = FeatureGrid(gh, gw, 8, feats)
    _, x = _im2col_rows(grid, proj)
    ones = np.concatenate([feats, np.ones((gh * gw, 1))], axis=1).reshape(gh, gw, 3)
    both = _both_stages_padded(grid, proj)
    assert x.shape == (gh * gw, 9 * 3)
    lifted = (x.reshape(-1, 3) @ _lift(proj)).reshape(gh * gw, 9 * 5)
    for i in range(gh):
        for j in range(gw):
            window = np.zeros((3, 3, 3))
            for u in range(3):
                for v in range(3):
                    ii, jj = i + u - 1, j + v - 1
                    if 0 <= ii < gh and 0 <= jj < gw:
                        window[u, v] = ones[ii, jj]
            assert np.array_equal(x[i * gw + j], window.ravel())
            # lifted, the row is the cell's window of both stages' channels
            np.testing.assert_allclose(
                lifted[i * gw + j], both[i:i + 3, j:j + 3].ravel(), rtol=1e-14, atol=1e-14
            )


def test_train_regressor_gradients_match_loop_backward():
    """`_loss_and_grads` on a non-square 3x5 grid with random parameters,
    folded and lifted back, against an explicit-loop backward over both
    stages' channels: each map's softmax gradient
    p * (dx (x - E[x]) + dy (y - E[y])) / T, then the conv gradient summed
    window by window."""
    rng = np.random.default_rng(39)
    n_lm, heatmaps, patch, temp = 2, 2, 8, 0.7
    gh, gw, n_maps = 3, 5, n_lm * heatmaps
    grid = FeatureGrid(gh, gw, patch, rng.standard_normal((gh * gw, 2)))
    proj = Projector(rng.standard_normal((2, 2)), rng.standard_normal(2))
    conv = rng.standard_normal((n_maps, 3, 3, 4))
    head_w = rng.standard_normal((n_lm, 2 * heatmaps, 2))
    head_b = rng.standard_normal((n_lm, 2))
    target = rng.standard_normal((n_lm, 2)) * 10.0
    padded = _both_stages_padded(grid, proj)
    loss, grads = _conv_loss_and_grads(conv, head_w, head_b, grid, proj, target, temp)

    xs = [((j + 0.5) * patch - 0.5) / (gw * patch) - 0.5 for j in range(gw)]
    ys = [((i + 0.5) * patch - 0.5) / (gh * patch) - 0.5 for i in range(gh)]
    probs, coords = [], np.zeros((n_lm, 2 * heatmaps))
    for o in range(n_maps):
        heat = np.zeros((gh, gw))
        for i in range(gh):
            for j in range(gw):
                for u in range(3):
                    for v in range(3):
                        heat[i, j] += float(conv[o, u, v] @ padded[i + u, j + v])
        p = np.exp(heat / temp - (heat / temp).max())
        p /= p.sum()
        probs.append(p)
        lm, m = divmod(o, heatmaps)
        coords[lm, 2 * m] = sum(p[i, j] * xs[j] for i in range(gh) for j in range(gw))
        coords[lm, 2 * m + 1] = sum(p[i, j] * ys[i] for i in range(gh) for j in range(gw))
    preds = np.einsum("li,lio->lo", coords, head_w) + head_b
    d_preds = 2.0 * (preds - target) / target.size
    d_head_w = np.zeros_like(head_w)
    d_conv = np.zeros_like(conv)
    for lm in range(n_lm):
        for k in range(2 * heatmaps):
            d_head_w[lm, k] = coords[lm, k] * d_preds[lm]
    for o in range(n_maps):
        lm, m = divmod(o, heatmaps)
        dx = float(head_w[lm, 2 * m] @ d_preds[lm])
        dy = float(head_w[lm, 2 * m + 1] @ d_preds[lm])
        ex, ey = coords[lm, 2 * m], coords[lm, 2 * m + 1]
        for i in range(gh):
            for j in range(gw):
                d_heat = probs[o][i, j] * (dx * (xs[j] - ex) + dy * (ys[i] - ey)) / temp
                for u in range(3):
                    for v in range(3):
                        d_conv[o, u, v] += d_heat * padded[i + u, j + v]
    assert loss == pytest.approx(float(((preds - target) ** 2).mean()), rel=1e-12)
    assert np.abs(grads[0] - d_conv).max() <= 1e-10
    assert np.abs(grads[1] - d_head_w).max() <= 1e-10
    assert np.abs(grads[2] - d_preds).max() <= 1e-10


def test_train_regressor_gradient_matches_finite_differences():
    samples, proj = _training_setup(1)
    grid, lm = samples[0]
    conv, head_w, head_b = init_regressor(
        5, TINY.d + TINY.d_proj, heatmaps=2, seed=1, center=TINY_CENTER
    )
    _, grads = _conv_loss_and_grads(conv, head_w, head_b, grid, proj, lm, 0.1)
    h = 1e-6

    def loss_with(conv=conv, head_w=head_w):
        return _conv_loss_and_grads(conv, head_w, head_b, grid, proj, lm, 0.1)[0]

    # (map, row offset, column offset, channel)
    for idx in [(0, 0, 0, 0), (3, 1, 2, 5), (9, 2, 1, 11)]:
        c1, c2 = conv.copy(), conv.copy()
        c1[idx] += h
        c2[idx] -= h
        fd = (loss_with(conv=c1) - loss_with(conv=c2)) / (2.0 * h)
        assert grads[0][idx] == pytest.approx(fd, rel=1e-3, abs=1e-8)
    w1, w2 = head_w.copy(), head_w.copy()
    w1[1, 2, 0] += h
    w2[1, 2, 0] -= h
    fd = (loss_with(head_w=w1) - loss_with(head_w=w2)) / (2.0 * h)
    assert grads[1][1, 2, 0] == pytest.approx(fd, rel=1e-5)


def test_train_regressor_steps_on_the_mean_item_gradient(monkeypatch):
    # a step's loss and gradients are the means of the items' at the
    # current parameters, the conv's over both stages' channels
    samples, proj = _training_setup(3)
    cfg = _regressor_cfg(reg_steps=1)
    seen = []

    def one_call(params, loss_and_grads, *settings):
        seen.append(([p.copy() for p in params], loss_and_grads(params)))
        return params, []

    monkeypatch.setattr(evaluation, "descend", one_call)
    train_regressor(samples, proj, cfg)
    [(params, (loss, grads))] = seen
    items = [_conv_loss_and_grads(*params, g, proj, t, cfg.softargmax_temp) for g, t in samples]
    assert loss == pytest.approx(np.mean([item_loss for item_loss, _ in items]), rel=1e-12)
    for k, got in enumerate(grads):
        want = np.mean([item_grads[k] for _, item_grads in items], axis=0)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())


def test_train_regressor_builds_each_samples_windows_once(monkeypatch):
    from selcorr import evaluation

    calls = []
    windows = evaluation._windows

    def counted(grid, proj):
        calls.append(grid)
        return windows(grid, proj)

    monkeypatch.setattr(evaluation, "_windows", counted)
    samples, proj = _training_setup(3)
    _, trace = train_regressor(samples, proj, _regressor_cfg(reg_lr=1e-3, reg_steps=5))
    assert len(trace) == 5
    assert calls == [grid for grid, _ in samples]


def test_init_regressor_stores_the_channel_first_draw_channels_last():
    conv = init_regressor(5, 12, heatmaps=2, seed=3)[0]
    k = 1.0 / np.sqrt(12 * 9)
    drawn = np.random.default_rng([37, 3]).uniform(-k, k, size=(10, 12, 3, 3))
    assert np.array_equal(conv, drawn.transpose(0, 2, 3, 1))


def test_train_regressor_rejects_mixed_grid_geometry():
    samples, proj = _training_setup(2)
    grid, lm = samples[1]
    wide = FeatureGrid(grid.grid_h, grid.grid_w + 1, grid.patch,
                       np.zeros((grid.grid_h * (grid.grid_w + 1), grid.channels)))
    with pytest.raises(ValueError, match="differ in grid geometry"):
        train_regressor([samples[0], (wide, lm)], proj, _regressor_cfg(reg_steps=1))


def test_train_regressor_divergence():
    samples, proj = _training_setup(1)
    with pytest.raises(DivergenceError):
        train_regressor(samples, proj, _regressor_cfg(reg_lr=1e9, reg_steps=200))


def test_inter_ocular_trivial_cases():
    gts = np.array([[[0.0, 0.0], [10.0, 0.0], [5.0, 5.0]]])
    zero = inter_ocular_error(gts, gts, 0, 1)
    assert zero.shape == (1, 3) and zero.mean() == 0.0
    off = gts + np.array([10.0, 0.0])
    full = inter_ocular_error(off, gts, 0, 1)
    assert full.mean() == pytest.approx(100.0)


def test_inter_ocular_hand_oracle():
    # three samples, two landmarks, checked against longhand arithmetic
    gts = np.array(
        [
            [[0.0, 0.0], [4.0, 0.0]],
            [[0.0, 0.0], [0.0, 8.0]],
            [[1.0, 1.0], [1.0, 3.0]],
        ]
    )
    preds = gts + np.array(
        [
            [[3.0, 4.0], [0.0, 0.0]],
            [[0.0, 0.0], [6.0, 8.0]],
            [[0.0, 1.0], [2.0, 0.0]],
        ]
    )
    m = inter_ocular_error(preds, gts, 0, 1)
    expect = np.array([[125.0, 0.0], [0.0, 125.0], [50.0, 100.0]])
    assert np.abs(m - expect).max() <= 1e-12
    assert m.mean() == pytest.approx(expect.mean())


def test_inter_ocular_scale_invariance():
    rng = np.random.default_rng(38)
    gts = rng.uniform(0, 96, size=(4, 5, 2))
    preds = gts + rng.standard_normal((4, 5, 2))
    a = inter_ocular_error(preds, gts, 0, 1).mean()
    b = inter_ocular_error(preds * 7.0, gts * 7.0, 0, 1).mean()
    assert a == pytest.approx(b, rel=1e-12)


def test_inter_ocular_rejects_bad_eyes():
    gts = np.zeros((1, 3, 2))
    gts[0, 1] = [1.0, 0.0]
    with pytest.raises(ValueError):
        inter_ocular_error(gts, gts, 0, 0)
    with pytest.raises(ValueError):
        inter_ocular_error(gts, gts, 0, 2)  # coincident eye ground truths


def test_drop_mask_selects_lowest_scores():
    scores = np.array([0.4, 0.3, 0.2, 0.1])
    mask = drop_mask(scores, 0.5, 2, 2, 1)
    assert mask.tolist() == [[False, False], [True, True]]
    assert not drop_mask(scores, 0.0, 2, 2, 1).any()
    # the top cell always survives
    assert drop_mask(scores, 0.99, 2, 2, 1).sum() == 3
    with pytest.raises(ValueError):
        drop_mask(scores, 1.0, 2, 2, 1)


def test_drop_mask_expands_to_pixels():
    scores = np.array([0.9, 0.1])
    mask = drop_mask(scores, 0.5, 1, 2, 3)
    assert mask.shape == (3, 6)
    assert not mask[:, :3].any() and mask[:, 3:].all()


def test_write_pgm(tmp_path):
    path = tmp_path / "map.pgm"
    write_pgm(path, np.array([[0.0, 0.5], [0.75, 1.0]]))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert list(raw[-4:]) == [0, 128, 191, 255]
    write_pgm(path, np.zeros((2, 2)))
    assert list(path.read_bytes()[-4:]) == [0, 0, 0, 0]


def test_token_grid_channels():
    out = generate_backbone_output(TINY.face_spec(), seed=0)
    proj = init_projector(TINY.d, TINY.d_proj, seed=0)
    projected = token_grid(out, proj)
    assert projected.channels == TINY.d_proj
    assert (projected.image_h, projected.image_w) == (TINY.crop, TINY.crop)
    raw = token_grid(out, None)
    assert raw is out.main and raw.channels == TINY.d
    assert (raw.image_h, raw.image_w) == (TINY.crop, TINY.crop)
