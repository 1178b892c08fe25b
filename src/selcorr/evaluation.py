"""Downstream protocols: landmark matching and heatmap-regression detection.

Matching takes cosine-similarity argmaxes at image resolution: only the
test map is upsampled to pixels, and the reference query features are
sampled in one call, each at its one pixel.
Detection runs a 3x3 conv over concatenated first/second-stage channels,
decodes each heatmap with a soft-argmax, and maps the decoded coordinates
through a small per-landmark linear head; its backward pass is derived by
hand and verified against a dense oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .projector import OptimConfig, Projector, TrainTrace, descend, project
from .synth import BackboneOutput, EvalPair
from .tensorio import (
    DenseFeatureMap,
    FeatureGrid,
    bilinear_sample,
    bilinear_upsample,
    norm,
    softmax,
    top_k,
)

# a finite stand-in for -inf: exp((MASKED - x)/T) underflows to exactly 0,
# so masked pixels carry zero probability and one-hot decoding is exact
MASKED = -1e30


@dataclass
class MatchResult:
    """Per-landmark pixel errors of a match protocol and each half's mean.

    `errors` is (2 * pairs, L): the first `pairs` rows are the
    same-identity pairs, the rest the different-identity pairs.
    """

    errors: np.ndarray
    same_mean: float
    diff_mean: float


def similarity_map(
    ref_map: DenseFeatureMap, test_map: DenseFeatureMap, query_px: tuple[float, float]
) -> np.ndarray:
    """(H, W) cosine similarity of the query pixel's feature to every test pixel.

    Zero-norm test pixels score -1 (the cosine floor); a zero-norm query
    raises.
    """
    if ref_map.channels != test_map.channels:
        raise ValueError("feature maps disagree on channel count")
    qx, qy = _query_pixel(query_px, ref_map.height, ref_map.width)
    flat = test_map.values.reshape(-1, test_map.channels)
    sims = _cosine_rows(ref_map.values[qy, qx], (qx, qy), flat, _TestNorms(flat))
    return sims.reshape(test_map.height, test_map.width)


def similarity_stack(ref: FeatureGrid, test: FeatureGrid, queries_px: np.ndarray) -> np.ndarray:
    """(L, H, W) cosine similarity of each query pixel's reference feature to
    every pixel of the upsampled test map.

    Equal, bit for bit, to `similarity_map` of both upsampled maps for each
    query, but only the test grid is upsampled in full; the query features
    are the diagonal of one (L, L) block sampled at the rounded, clipped
    query rows and columns. Zero-norm rules as there.
    """
    if ref.channels != test.channels:
        raise ValueError("feature maps disagree on channel count")
    test_map = upsample_features(test)
    flat = test_map.values.reshape(-1, test_map.channels)
    norms = _TestNorms(flat)
    pixels = [_query_pixel(query_px, ref.image_h, ref.image_w) for query_px in queries_px]
    qxs = [qx for qx, _ in pixels]
    qys = [qy for _, qy in pixels]
    diag = np.arange(len(pixels))
    queries = bilinear_sample(ref, ref.image_h, ref.image_w, qys, qxs)[diag, diag]
    sims = np.empty((len(pixels), test_map.height, test_map.width))
    for i, (q, q_px) in enumerate(zip(queries, pixels)):
        sims[i] = _cosine_rows(q, q_px, flat, norms).reshape(sims.shape[1:])
    return sims


def _query_pixel(query_px, height: int, width: int) -> tuple[int, int]:
    qx = min(max(int(round(query_px[0])), 0), width - 1)
    qy = min(max(int(round(query_px[1])), 0), height - 1)
    return qx, qy


class _TestNorms:
    """Per-pixel norms of a flattened test map, computed once per map."""

    def __init__(self, flat: np.ndarray):
        norms = norm(flat, axis=1)
        self.zero = norms == 0.0
        self.safe = np.where(self.zero, 1.0, norms)


def _cosine_rows(q: np.ndarray, q_px, flat: np.ndarray, norms: _TestNorms) -> np.ndarray:
    # a finite norm keeps its sum of squares below DBL_MAX, so by Cauchy-Schwarz
    # both products below stay finite
    qn = norm(q)
    if qn == 0.0:
        raise ValueError(f"zero-norm feature at query pixel {q_px}")
    sims = (flat @ q) / (qn * norms.safe)
    sims[norms.zero] = -1.0
    return sims


def pair_similarity(pair: EvalPair, featurize) -> np.ndarray:
    """The pair's (L, H, W) `similarity_stack`, one map per reference landmark."""
    return similarity_stack(featurize(pair.ref), featurize(pair.test), pair.ref_landmarks)


def match_pair(
    pair: EvalPair, sims: np.ndarray, test_mask: np.ndarray | None = None
) -> np.ndarray:
    """(L,) pixel distance from each landmark's best test pixel to its ground truth.

    The best pixel is the argmax of the landmark's map in `sims`, the pair's
    `pair_similarity`, which can serve several masks. Ties resolve in
    scanline order (first row, then column). `test_mask` marks excluded
    test pixels (True = dropped).
    """
    if test_mask is not None:
        if test_mask.shape != sims.shape[1:]:
            raise ValueError("mask shape does not match the test map")
        sims = np.where(test_mask, -np.inf, sims)
    best = sims.reshape(sims.shape[0], -1).argmax(axis=1)
    py, px = np.divmod(best, sims.shape[2])
    gt = pair.test_landmarks
    return np.hypot(px - gt[:, 0], py - gt[:, 1])


def summarize_matches(errors: np.ndarray, pairs: int) -> MatchResult:
    """Mean error of the first `pairs` rows (same identity) and of the rest."""
    return MatchResult(
        errors=errors,
        same_mean=float(np.mean(errors[:pairs])),
        diff_mean=float(np.mean(errors[pairs:])),
    )


def upsample_features(grid: FeatureGrid) -> DenseFeatureMap:
    """Dense per-pixel map at the grid's native image resolution."""
    return bilinear_upsample(grid, grid.image_h, grid.image_w)


def raw_featurizer():
    """Token grid of the first-stage features."""
    return lambda out: out.main


def projected_featurizer(p: Projector):
    """Token grid of the second-stage (projected) features."""
    return lambda out: project(p, out.main)


def soft_argmax(heatmap: np.ndarray, temperature: float = 0.1) -> tuple[float, float]:
    """Coordinate expectation under softmax(heatmap / temperature).

    Returns (x, y) in array index units. Cells at or below the MASKED
    sentinel relative to the peak get exactly zero probability, so a map
    with one finite value decodes to that cell's coordinates exactly. The
    detector decodes its heatmaps through the same `_expect`.
    """
    heatmap = np.asarray(heatmap, dtype=np.float64)
    if heatmap.ndim != 2:
        raise ValueError(f"expected (H, W) heatmap, got {heatmap.shape}")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    ys, xs = np.mgrid[0 : heatmap.shape[0], 0 : heatmap.shape[1]]
    _, x, y = _expect(heatmap, temperature, xs, ys)
    return float(x), float(y)


def _expect(heat: np.ndarray, temperature: float, xs: np.ndarray, ys: np.ndarray):
    """Softmax of each (H, W) map of (..., H, W) `heat` over its cells, and
    the expected `xs` and `ys` under it."""
    flat = (heat / temperature).reshape(*heat.shape[:-2], -1)
    probs = softmax(flat).reshape(heat.shape)
    return probs, (probs * xs).sum(axis=(-2, -1)), (probs * ys).sum(axis=(-2, -1))


@dataclass
class RegressorParams:
    """Conv-to-heatmaps detector with a per-landmark coordinate head.

    `conv` is (n_landmarks * heatmaps, in_channels, 3, 3); `head_w` is
    (n_landmarks, 2 * heatmaps, 2) applied to the concatenated (x, y)
    decodings of that landmark's heatmaps.
    """

    conv: np.ndarray
    conv_bias: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray
    heatmaps: int
    temperature: float = 0.1

    def __post_init__(self) -> None:
        self.conv = np.asarray(self.conv, dtype=np.float64)
        self.conv_bias = np.asarray(self.conv_bias, dtype=np.float64)
        self.head_w = np.asarray(self.head_w, dtype=np.float64)
        self.head_b = np.asarray(self.head_b, dtype=np.float64)
        if self.heatmaps < 1:
            raise ValueError("need at least one heatmap per landmark")
        n_lm = self.head_w.shape[0]
        if self.conv.shape[0] != n_lm * self.heatmaps or self.conv.shape[2:] != (3, 3):
            raise ValueError(f"bad conv shape {self.conv.shape}")
        if self.conv_bias.shape != (self.conv.shape[0],):
            raise ValueError("conv bias length mismatch")
        if self.head_w.shape[1:] != (2 * self.heatmaps, 2) or self.head_b.shape != (n_lm, 2):
            raise ValueError(f"bad head shapes {self.head_w.shape} / {self.head_b.shape}")
        for arr in (self.conv, self.conv_bias, self.head_w, self.head_b):
            if not np.isfinite(arr).all():
                raise ValueError("non-finite regressor parameters")

    @property
    def n_landmarks(self) -> int:
        return self.head_w.shape[0]

    @property
    def in_channels(self) -> int:
        return self.conv.shape[1]


def init_regressor(
    n_landmarks: int,
    in_channels: int,
    heatmaps: int,
    seed: int,
    temperature: float = 0.1,
    center: tuple[float, float] = (0.0, 0.0),
) -> RegressorParams:
    """Small uniform conv/head weights; head bias starts at `center`.

    The head sees heatmap decodings with `center` subtracted, so starting
    the bias there makes the initial prediction the image center.
    """
    rng = np.random.default_rng([37, seed])
    k = 1.0 / np.sqrt(in_channels * 9)
    h = 1.0 / np.sqrt(2 * heatmaps)
    return RegressorParams(
        conv=rng.uniform(-k, k, size=(n_landmarks * heatmaps, in_channels, 3, 3)),
        conv_bias=np.zeros(n_landmarks * heatmaps),
        head_w=rng.uniform(-h, h, size=(n_landmarks, 2 * heatmaps, 2)),
        head_b=np.tile(np.asarray(center, dtype=np.float64), (n_landmarks, 1)),
        heatmaps=heatmaps,
        temperature=temperature,
    )


def _windows(stage1: FeatureGrid, stage2: FeatureGrid) -> np.ndarray:
    """(H, W, C, 3, 3) zero-padded 3x3 windows of both stages' channels."""
    if (stage1.grid_h, stage1.grid_w, stage1.patch) != (
        stage2.grid_h,
        stage2.grid_w,
        stage2.patch,
    ):
        raise ValueError("stage grids disagree on geometry")
    both = np.concatenate([stage1.features, stage2.features], axis=1)
    norm(both, axis=1)  # a feature too large to normalize is a data error here too
    x = both.reshape(stage1.grid_h, stage1.grid_w, both.shape[1])
    padded = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    return np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(0, 1))


def _forward(params: RegressorParams, win: np.ndarray, patch: int):
    """All intermediates: heatmaps, per-map probabilities, coords, predictions."""
    # 3x3 conv, stride 1: win (H, W, C, 3, 3), kernel (O, C, 3, 3) -> (O, H, W)
    bias = params.conv_bias[:, None, None]
    heat = np.einsum("hwcuv,ocuv->ohw", win, params.conv, optimize=True) + bias
    gh, gw = heat.shape[1:]
    ys, xs = np.mgrid[0:gh, 0:gw]
    # decoded at patch centers, as a fraction of the image size with the
    # center at the origin; the head bias carries the absolute pixel offset.
    # Fractional units keep the head's inputs O(1) so the conv block, not
    # the head, absorbs most of the fit.
    xs_n = ((xs + 0.5) * patch - 0.5) / (gw * patch) - 0.5
    ys_n = ((ys + 0.5) * patch - 0.5) / (gh * patch) - 0.5
    probs, cx, cy = _expect(heat, params.temperature, xs_n, ys_n)
    coords = np.stack([cx, cy], axis=1).reshape(params.n_landmarks, 2 * params.heatmaps)
    preds = np.einsum("li,lio->lo", coords, params.head_w) + params.head_b
    return heat, probs, (xs_n, ys_n), coords, preds


def regressor_forward(
    params: RegressorParams, stage1: FeatureGrid, stage2: FeatureGrid
) -> np.ndarray:
    """Predicted (x, y) pixel coordinates for every landmark, shape (L, 2)."""
    win = _windows(stage1, stage2)
    if win.shape[2] != params.in_channels:
        raise ValueError(
            f"{win.shape[2]} input channels, regressor expects {params.in_channels}"
        )
    return _forward(params, win, stage1.patch)[4]


def train_regressor(
    samples: list[tuple[BackboneOutput, np.ndarray]],
    proj: Projector,
    cfg: OptimConfig,
    heatmaps: int = 50,
    temperature: float = 0.1,
) -> tuple[RegressorParams, TrainTrace]:
    """Fit the detector by gradient descent on mean squared pixel error.

    Backbone and projector stay frozen, so each sample's conv windows are
    built once; only conv and head parameters move.
    """
    cfg.validate()
    if not samples:
        raise ValueError("no training samples")
    windows = [_windows(out.main, project(proj, out.main)) for out, _ in samples]
    targets = [np.asarray(lm, dtype=np.float64) for _, lm in samples]
    n_lm = targets[0].shape[0]
    grid = samples[0][0].main
    patch = grid.patch
    params = init_regressor(
        n_lm,
        windows[0].shape[2],
        heatmaps=heatmaps,
        seed=cfg.seed,
        temperature=temperature,
        center=(grid.image_w / 2.0, grid.image_h / 2.0),
    )

    def item_losses(arrays):
        step_params = RegressorParams(*arrays, heatmaps=heatmaps, temperature=temperature)
        for win, t in zip(windows, targets):
            yield _loss_and_grads(step_params, win, t, patch)

    arrays = [params.conv, params.conv_bias, params.head_w, params.head_b]
    arrays, losses = descend(arrays, item_losses, cfg)
    params = RegressorParams(*arrays, heatmaps=heatmaps, temperature=temperature)
    return params, TrainTrace(losses)


def _loss_and_grads(params: RegressorParams, win: np.ndarray, target: np.ndarray, patch: int):
    heat, probs, (xs_n, ys_n), coords, preds = _forward(params, win, patch)
    resid = preds - target
    loss = float((resid**2).mean())
    d_preds = 2.0 * resid / resid.size
    d_head_w = np.einsum("li,lo->lio", coords, d_preds)
    d_head_b = d_preds
    d_coords = np.einsum("lio,lo->li", params.head_w, d_preds).reshape(-1, 2)
    # soft-argmax backward: dE[x]/dh = p * (x - E[x]) / T per heatmap
    cx = coords.reshape(-1, 2)[:, 0][:, None, None]
    cy = coords.reshape(-1, 2)[:, 1][:, None, None]
    d_heat = (
        probs
        * (
            d_coords[:, 0][:, None, None] * (xs_n[None] - cx)
            + d_coords[:, 1][:, None, None] * (ys_n[None] - cy)
        )
        / params.temperature
    )
    d_conv = np.einsum("ohw,hwcuv->ocuv", d_heat, win, optimize=True)
    d_conv_bias = d_heat.sum(axis=(1, 2))
    return loss, [d_conv, d_conv_bias, d_head_w, d_head_b]


@dataclass
class DetectionMetrics:
    """Landmark errors as percent of each sample's inter-ocular distance."""

    per_sample_pct: np.ndarray
    mean_pct: float


def inter_ocular_error(
    preds: np.ndarray, gts: np.ndarray, left_eye: int, right_eye: int
) -> DetectionMetrics:
    """Per-landmark mean of ||pred - gt|| / eye distance, times 100.

    `preds` and `gts` are (samples, landmarks, 2); the eye indices select
    the normalizing ground-truth pair per sample.
    """
    preds = np.asarray(preds, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    if preds.shape != gts.shape or preds.ndim != 3:
        raise ValueError(f"bad shapes {preds.shape} / {gts.shape}")
    n_lm = gts.shape[1]
    if not (0 <= left_eye < n_lm and 0 <= right_eye < n_lm) or left_eye == right_eye:
        raise ValueError("bad eye landmark indices")
    iod = np.linalg.norm(gts[:, left_eye] - gts[:, right_eye], axis=1)
    if (iod == 0.0).any():
        raise ValueError("coincident eye ground truths")
    err = np.linalg.norm(preds - gts, axis=2) / iod[:, None] * 100.0
    return DetectionMetrics(per_sample_pct=err, mean_pct=float(err.mean()))


def drop_mask(scores: np.ndarray, drop_rate: float, grid_h: int, grid_w: int, patch: int) -> np.ndarray:
    """Pixel mask excluding the lowest-scoring drop_rate * N token cells."""
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError("drop rate must be in [0, 1)")
    n = scores.shape[0]
    k = min(int(np.floor(drop_rate * n + 0.5)), n - 1)
    cell_mask = np.ones(n, dtype=bool)
    cell_mask[top_k(scores, n - k)] = False  # the kept cells
    return np.kron(cell_mask.reshape(grid_h, grid_w), np.ones((patch, patch), dtype=bool))


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """8-bit binary PGM of a 2-D array, min-max normalized (flat maps to 0)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D array, got {values.shape}")
    lo, hi = values.min(), values.max()
    scaled = np.zeros_like(values) if hi == lo else (values - lo) / (hi - lo)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode()
    Path(path).write_bytes(header + pixels.tobytes())
