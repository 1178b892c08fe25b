import numpy as np
import pytest

from selcorr.evaluation import (
    MASKED,
    drop_mask,
    inter_ocular_error,
    match_pair,
    pair_similarity,
    projected_featurizer,
    raw_featurizer,
    regressor_forward,
    similarity_map,
    similarity_stack,
    soft_argmax,
    summarize_matches,
    train_regressor,
    upsample_features,
    write_pgm,
)
from selcorr.evaluation import RegressorParams, init_regressor
from selcorr.projector import DivergenceError, OptimConfig, init_projector
from selcorr.partition import cls_similarity
from selcorr.synth import EvalPair, SyntheticFaceSpec, generate_backbone_output, make_pair
from selcorr.tensorio import DenseFeatureMap, FeatureGrid

SMALL = dict(
    landmarks_px=((6.0, 6.0), (20.0, 6.0), (13.0, 13.0), (8.0, 24.0), (20.0, 24.0)),
    region_anchors_px=((16.0, 3.0), (4.0, 22.0), (28.0, 22.0)),
    image_size=32,
    patch=8,
    d=8,
    d_aux=4,
)


def _dense(values):
    return DenseFeatureMap(np.asarray(values, dtype=np.float64))


def _best_pixel(ref, test, query, mask=None):
    """Oracle: the (x, y) argmax of the query's similarity map, masked pixels
    at -inf, ties to the first pixel in scanline order (np.argmax's rule)."""
    sims = similarity_map(ref, test, query)
    if mask is not None:
        sims = np.where(mask, -np.inf, sims)
    y, x = divmod(int(np.argmax(sims)), sims.shape[1])
    return x, y


def _truth_pair(test_landmarks):
    """A pair that carries only what match_pair reads: the test ground truth."""
    lm = np.asarray(test_landmarks, dtype=np.float64)
    return EvalPair(ref=None, test=None, ref_landmarks=lm, test_landmarks=lm, same_identity=True)


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
    spec = SyntheticFaceSpec(**SMALL)
    pair = make_pair(spec, "same", 0)
    errors = match_pair(pair, pair_similarity(pair, raw_featurizer()))
    assert errors.shape == (5,) and (errors >= 0.0).all()
    table = np.stack([errors, errors + 1.0, errors + 3.0])
    result = summarize_matches(table, 1)
    assert result.errors.tobytes() == table.tobytes()
    assert result.same_mean == pytest.approx(errors.mean())
    assert result.diff_mean == pytest.approx(errors.mean() + 2.0)


@pytest.mark.parametrize("featurizer", ["raw", "projected"])
@pytest.mark.parametrize("drop_rate", [0.0, 0.5])
def test_pair_similarity_equals_dense_oracle_bit_for_bit(featurizer, drop_rate):
    """The token-grid stack against similarity_map of both upsampled maps, and
    match_pair's errors against the oracle argmax of those maps."""
    spec = SyntheticFaceSpec(**{**SMALL, "image_size": 48})
    if featurizer == "raw":
        featurize = raw_featurizer()
    else:
        featurize = projected_featurizer(init_projector(8, 4, seed=1))
    for kind, seed in [("same", 0), ("different", 1), ("same", 2)]:
        pair = make_pair(spec, kind, seed)
        mask = None
        if drop_rate > 0.0:
            grid = pair.test.main
            scores = cls_similarity(pair.test.q_cls, pair.test.keys)
            mask = drop_mask(scores, drop_rate, grid.grid_h, grid.grid_w, grid.patch)
        ref_map = upsample_features(featurize(pair.ref))
        test_map = upsample_features(featurize(pair.test))
        assert pair_similarity(pair, featurize).shape == (5, 48, 48)
        # off-grid and out-of-image queries exercise the rounding and clipping
        queries = [*pair.ref_landmarks, (0.4, 47.6), (-3.0, 60.0), (23.5, 24.5)]
        stack = similarity_stack(featurize(pair.ref), featurize(pair.test), queries)
        for query, sims in zip(queries, stack):
            assert sims.tobytes() == similarity_map(ref_map, test_map, tuple(query)).tobytes()
        errors = match_pair(pair, pair_similarity(pair, featurize), test_mask=mask)
        expect = []
        for query, (gx, gy) in zip(pair.ref_landmarks, pair.test_landmarks):
            px, py = _best_pixel(ref_map, test_map, tuple(query), mask)
            expect.append(np.hypot(px - gx, py - gy))
        assert errors.tobytes() == np.array(expect).tobytes()


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
    params = RegressorParams(
        conv=np.zeros((2 * 3, 4, 3, 3)),
        conv_bias=np.zeros(6),
        head_w=np.zeros((2, 6, 2)),
        head_b=target,
        heatmaps=3,
    )
    rng = np.random.default_rng(34)
    s1 = FeatureGrid(4, 4, 8, rng.standard_normal((16, 2)))
    s2 = FeatureGrid(4, 4, 8, rng.standard_normal((16, 2)))
    assert np.array_equal(regressor_forward(params, s1, s2), target)


def test_regressor_dense_loop_oracle():
    """Random parameters on a 4x4 grid against an independent implementation:
    explicit zero-padded convolution loops, per-map softmax, coordinate
    expectation in the same normalized units, then the linear head."""
    rng = np.random.default_rng(35)
    n_lm, heatmaps, in_ch, patch = 2, 2, 3, 8
    gh = gw = 4
    params = RegressorParams(
        conv=rng.standard_normal((n_lm * heatmaps, in_ch, 3, 3)),
        conv_bias=rng.standard_normal(n_lm * heatmaps),
        head_w=rng.standard_normal((n_lm, 2 * heatmaps, 2)),
        head_b=rng.standard_normal((n_lm, 2)),
        heatmaps=heatmaps,
        temperature=0.7,
    )
    feats = rng.standard_normal((gh * gw, in_ch))
    s1 = FeatureGrid(gh, gw, patch, feats[:, :2])
    s2 = FeatureGrid(gh, gw, patch, feats[:, 2:])
    got = regressor_forward(params, s1, s2)

    x = feats.reshape(gh, gw, in_ch)
    coords = []
    for o in range(n_lm * heatmaps):
        heat = np.zeros((gh, gw))
        for i in range(gh):
            for j in range(gw):
                acc = params.conv_bias[o]
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ii, jj = i + di, j + dj
                        if 0 <= ii < gh and 0 <= jj < gw:
                            acc += float(
                                params.conv[o, :, di + 1, dj + 1] @ x[ii, jj]
                            )
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
    expect = np.einsum("li,lio->lo", coords, params.head_w) + params.head_b
    assert np.abs(got - expect).max() <= 1e-10


def test_regressor_head_bias_translation():
    # shifting the head bias shifts every prediction by exactly that amount
    rng = np.random.default_rng(36)
    params = init_regressor(2, 4, heatmaps=3, seed=0, center=(16.0, 16.0))
    s1 = FeatureGrid(4, 4, 8, rng.standard_normal((16, 2)))
    s2 = FeatureGrid(4, 4, 8, rng.standard_normal((16, 2)))
    base = regressor_forward(params, s1, s2)
    delta = np.array([3.0, -2.0])
    shifted = RegressorParams(
        conv=params.conv,
        conv_bias=params.conv_bias,
        head_w=params.head_w,
        head_b=params.head_b + delta,
        heatmaps=params.heatmaps,
        temperature=params.temperature,
    )
    moved = regressor_forward(shifted, s1, s2)
    assert np.abs(moved - (base + delta)).max() <= 1e-12


def test_regressor_geometry_and_param_checks():
    params = init_regressor(2, 4, heatmaps=2, seed=0)
    rng = np.random.default_rng(37)
    s1 = FeatureGrid(4, 4, 8, rng.standard_normal((16, 2)))
    bad = FeatureGrid(2, 8, 8, rng.standard_normal((16, 2)))
    with pytest.raises(ValueError):
        regressor_forward(params, s1, bad)
    with pytest.raises(ValueError):
        RegressorParams(
            conv=np.zeros((4, 2, 3, 3)),
            conv_bias=np.zeros(4),
            head_w=np.zeros((2, 3, 2)),  # must be 2 * heatmaps wide
            head_b=np.zeros((2, 2)),
            heatmaps=2,
        )


def _training_setup(n=3):
    spec = SyntheticFaceSpec(**SMALL)
    proj = init_projector(8, 4, seed=0)
    samples = []
    for i in range(n):
        out = generate_backbone_output(spec, seed=i)
        samples.append((out, np.asarray(spec.landmarks_px)))
    return samples, proj


def test_train_regressor_zero_steps_and_determinism():
    samples, proj = _training_setup()
    p0, t0 = train_regressor(samples, proj, OptimConfig(steps=0), heatmaps=2)
    ref = init_regressor(5, 12, heatmaps=2, seed=0, center=(16.0, 16.0))
    assert np.array_equal(p0.conv, ref.conv)
    assert np.array_equal(p0.head_b, ref.head_b)
    assert t0.losses == []
    pa, ta = train_regressor(samples, proj, OptimConfig(lr=1e-3, steps=5), heatmaps=2)
    pb, tb = train_regressor(samples, proj, OptimConfig(lr=1e-3, steps=5), heatmaps=2)
    for a, b in zip((pa.conv, pa.conv_bias, pa.head_w, pa.head_b),
                    (pb.conv, pb.conv_bias, pb.head_w, pb.head_b)):
        assert a.tobytes() == b.tobytes()
    assert ta.losses == tb.losses


def test_train_regressor_reduces_loss():
    samples, proj = _training_setup()
    _, trace = train_regressor(
        samples, proj, OptimConfig(lr=1e-2, steps=30, optimizer="momentum"), heatmaps=2
    )
    assert trace.losses[-1] < trace.losses[0]


def test_train_regressor_gradient_matches_finite_differences():
    from selcorr.evaluation import _loss_and_grads, _windows
    from selcorr.projector import project

    samples, proj = _training_setup(1)
    out, lm = samples[0]
    x = _windows(out.main, project(proj, out.main))
    params = init_regressor(5, 12, heatmaps=2, seed=1, center=(16.0, 16.0))
    _, grads = _loss_and_grads(params, x, lm, patch=8)
    h = 1e-6

    def loss_with(conv=None, head_w=None):
        p = RegressorParams(
            conv=params.conv if conv is None else conv,
            conv_bias=params.conv_bias,
            head_w=params.head_w if head_w is None else head_w,
            head_b=params.head_b,
            heatmaps=2,
            temperature=params.temperature,
        )
        return _loss_and_grads(p, x, lm, patch=8)[0]

    for idx in [(0, 0, 0, 0), (3, 5, 1, 2), (9, 11, 2, 1)]:
        c1, c2 = params.conv.copy(), params.conv.copy()
        c1[idx] += h
        c2[idx] -= h
        fd = (loss_with(conv=c1) - loss_with(conv=c2)) / (2.0 * h)
        assert grads[0][idx] == pytest.approx(fd, rel=1e-3, abs=1e-8)
    w1, w2 = params.head_w.copy(), params.head_w.copy()
    w1[1, 2, 0] += h
    w2[1, 2, 0] -= h
    fd = (loss_with(head_w=w1) - loss_with(head_w=w2)) / (2.0 * h)
    assert grads[2][1, 2, 0] == pytest.approx(fd, rel=1e-5)


def test_train_regressor_builds_each_samples_windows_once(monkeypatch):
    from selcorr import evaluation

    calls = []
    windows = evaluation._windows

    def counted(stage1, stage2):
        calls.append(stage1)
        return windows(stage1, stage2)

    monkeypatch.setattr(evaluation, "_windows", counted)
    samples, proj = _training_setup(3)
    _, trace = train_regressor(samples, proj, OptimConfig(lr=1e-3, steps=5), heatmaps=2)
    assert len(trace.losses) == 5
    assert calls == [out.main for out, _ in samples]


def test_train_regressor_divergence():
    samples, proj = _training_setup(1)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        train_regressor(samples, proj, OptimConfig(lr=1e9, steps=200), heatmaps=2)


def test_inter_ocular_trivial_cases():
    gts = np.array([[[0.0, 0.0], [10.0, 0.0], [5.0, 5.0]]])
    zero = inter_ocular_error(gts, gts, 0, 1)
    assert zero.mean_pct == 0.0
    off = gts + np.array([10.0, 0.0])
    full = inter_ocular_error(off, gts, 0, 1)
    assert full.mean_pct == pytest.approx(100.0)


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
    assert np.abs(m.per_sample_pct - expect).max() <= 1e-12
    assert m.mean_pct == pytest.approx(expect.mean())


def test_inter_ocular_scale_invariance():
    rng = np.random.default_rng(38)
    gts = rng.uniform(0, 96, size=(4, 5, 2))
    preds = gts + rng.standard_normal((4, 5, 2))
    a = inter_ocular_error(preds, gts, 0, 1).mean_pct
    b = inter_ocular_error(preds * 7.0, gts * 7.0, 0, 1).mean_pct
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


def test_projected_featurizer_channels():
    spec = SyntheticFaceSpec(**SMALL)
    out = generate_backbone_output(spec, seed=0)
    proj = init_projector(8, 4, seed=0)
    projected = projected_featurizer(proj)(out)
    assert projected.channels == 4
    assert (projected.image_h, projected.image_w) == (32, 32)
    raw = raw_featurizer()(out)
    assert raw.channels == 8
    assert (raw.image_h, raw.image_w) == (32, 32)
