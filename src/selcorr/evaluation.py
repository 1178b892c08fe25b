"""Downstream protocols: landmark matching and heatmap-regression detection.

Matching takes cosine-similarity argmaxes at image resolution, computed on
the token grid: the test grid's rows are blended once, and each pixel's
dot products and squared norm are two-tap column blends of that small
grid's, so no per-pixel test map is built. The cosines agree with those of
the upsampled maps (`similarity_map`) to within 1e-14 on the matching
protocol's pairs. Each reference query feature is blended at its one pixel.
Detection runs a 3x3 conv over concatenated first/second-stage channels
as one GEMM of channel-last kernel rows with a sample's im2col rows,
decodes each heatmap with a soft-argmax, and maps the decoded coordinates
through a small per-landmark linear head. Its backward pass is derived by
hand: the soft-argmax's is a rank-3 product with the cells' (x, y, 1)
rows, the conv's a second GEMM. The tests check both against explicit
loops.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .projector import Projector, descend, project
from .synth import BackboneOutput, EvalPair
from .tensorio import (
    DenseFeatureMap,
    FeatureGrid,
    bilinear_taps,
    bilinear_upsample,
    norm,
    top_k,
)

# a finite stand-in for -inf: exp((MASKED - x)/T) underflows to exactly 0,
# so masked pixels carry zero probability and one-hot decoding is exact
MASKED = -1e30


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
    q = ref_map.values[qy, qx]
    flat = test_map.values.reshape(-1, test_map.channels)
    norms = norm(flat, axis=1)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    # a finite norm keeps its sum of squares below DBL_MAX, so by Cauchy-Schwarz
    # both products below stay finite
    qn = norm(q)
    if qn == 0.0:
        raise ValueError(f"zero-norm feature at query pixel {(qx, qy)}")
    sims = (flat @ q) / (qn * safe)
    sims[zero] = -1.0
    return sims.reshape(test_map.height, test_map.width)


def similarity_stack(ref: FeatureGrid, test: FeatureGrid, queries_px: np.ndarray) -> np.ndarray:
    """(L, H, W) cosine similarity of each query pixel's reference feature to
    every pixel of the upsampled test map, computed on the token grid.

    Each test pixel is a two-tap column blend p = (1 - w) r0 + w r1 of the
    (H, grid_w, d) row-blended test grid R (`bilinear_taps`), so no
    (H, W, d) map is built: p's dot product with a query is the same blend
    of R's dot products, and its squared norm is the quadratic form
    (1 - w)^2 |r0|^2 + 2 w (1 - w) r0.r1 + w^2 |r1|^2. The query features
    are the reference map's pixels at the rounded, clipped query positions
    (`_pixel_features`).

    Equal to `similarity_map` of both upsampled maps up to rounding: on the
    matching protocol's pairs the tests bound the difference by 1e-14. The
    quadratic form loses relative accuracy where (1 - w) r0 + w r1 nearly
    cancels, in proportion to how much cancels; a pixel whose form is zero,
    or rounds below zero, scores -1, as a zero-norm pixel does there. A
    zero-norm query raises.
    """
    if ref.channels != test.channels:
        raise ValueError("feature maps disagree on channel count")
    pixels = [_query_pixel(query_px, ref.image_h, ref.image_w) for query_px in queries_px]
    # before the test grid's taps, so the reference's are freed first
    queries = _pixel_features(ref, [qx for qx, _ in pixels], [qy for _, qy in pixels])
    rows, x0, x1, w = bilinear_taps(test, test.image_h, test.image_w)
    # a finite norm keeps its sum of squares below DBL_MAX, so by
    # Cauchy-Schwarz every product below stays finite
    row_norms = norm(rows, axis=2)
    query_norms = norm(queries, axis=1)
    for q_px, qn in zip(pixels, query_norms):
        if qn == 0.0:
            raise ValueError(f"zero-norm feature at query pixel {q_px}")
    # each column's product with the next (with itself on a 1-wide grid),
    # indexed like the squared norms by a pixel's lower tap
    lo = np.arange(max(test.grid_w - 1, 1))
    cross = np.einsum("hwd,hwd->hw", rows[:, lo], rows[:, np.minimum(lo + 1, test.grid_w - 1)])
    sq_norms = row_norms * row_norms
    pixel_sq = (
        ((1.0 - w) * (1.0 - w)) * sq_norms[:, x0]
        + (2.0 * w * (1.0 - w)) * cross[:, x0]
        + (w * w) * sq_norms[:, x1]
    )
    zero = pixel_sq <= 0.0
    pixel_norms = np.sqrt(np.where(zero, 1.0, pixel_sq))
    dots = (queries @ rows.reshape(-1, test.channels).T).reshape(len(pixels), *row_norms.shape)
    sims = np.take(dots, x0, axis=2)
    sims *= 1.0 - w
    tap = np.take(dots, x1, axis=2)
    tap *= w
    sims += tap
    sims /= query_norms[:, None, None] * pixel_norms
    sims[:, zero] = -1.0
    return sims


def _query_pixel(query_px, height: int, width: int) -> tuple[int, int]:
    qx = min(max(int(round(query_px[0])), 0), width - 1)
    qy = min(max(int(round(query_px[1])), 0), height - 1)
    return qx, qy


def _pixel_features(grid: FeatureGrid, xs, ys) -> np.ndarray:
    """(len(xs), d) features of the upsampled map at pixels (xs[i], ys[i]),
    bit for bit the map's own values there."""
    rows, x0, x1, w = bilinear_taps(grid, grid.image_h, grid.image_w)
    wx = w[xs][:, None]
    out = rows[ys, x0[xs]]
    out *= 1.0 - wx
    tap = rows[ys, x1[xs]]
    tap *= wx
    out += tap
    return out


def token_grid(output: BackboneOutput, proj: Projector | None) -> FeatureGrid:
    """The first-stage token grid when `proj` is None, else its projection."""
    return output.main if proj is None else project(proj, output.main)


def pair_similarity(pair: EvalPair, proj: Projector | None) -> np.ndarray:
    """The pair's (L, H, W) `similarity_stack` of both `token_grid`s, one map
    per reference landmark."""
    ref, test = token_grid(pair.ref, proj), token_grid(pair.test, proj)
    return similarity_stack(ref, test, pair.ref_landmarks)


def match_pair(
    pair: EvalPair, sims: np.ndarray, test_mask: np.ndarray | None = None
) -> np.ndarray:
    """(L,) pixel distance from each landmark's best test pixel to its ground truth.

    The best pixel is the argmax of the landmark's map in `sims`, the pair's
    `pair_similarity`, which can serve several masks. Exactly equal scores
    resolve in scanline order (first row, then column); pixels with
    bit-identical features need not score exactly equal, as the cosine
    GEMM may round a pixel's dot product by its place in the map.
    `test_mask` marks excluded test pixels (True = dropped).
    """
    if test_mask is not None:
        if test_mask.shape != sims.shape[1:]:
            raise ValueError("mask shape does not match the test map")
        sims = np.where(test_mask, -np.inf, sims)
    best = sims.reshape(sims.shape[0], -1).argmax(axis=1)
    py, px = np.divmod(best, sims.shape[2])
    gt = pair.test_landmarks
    return np.hypot(px - gt[:, 0], py - gt[:, 1])


def kind_means(errors: np.ndarray, pairs: int) -> tuple[float, float]:
    """Mean error of the first `pairs` rows (same identity) and of the rest
    (different identity)."""
    return float(np.mean(errors[:pairs])), float(np.mean(errors[pairs:]))


def upsample_features(grid: FeatureGrid) -> DenseFeatureMap:
    """Dense per-pixel map at the grid's native image resolution."""
    return bilinear_upsample(grid, grid.image_h, grid.image_w)


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
    cells = np.stack([xs.ravel(), ys.ravel(), np.ones(xs.size)])
    _, _, coords = _expect(heatmap.reshape(1, -1) / temperature, cells)
    return float(coords[0, 0]), float(coords[0, 1])


def _expect(logits: np.ndarray, cells: np.ndarray):
    """Softmax of each row of (M, N) `logits` and the expected cell (x, y)
    under it, with `cells` the (3, N) rows of each cell's x, y and 1.

    `logits` is overwritten with the unnormalised weights e = exp(logits -
    row max). Returns e, the (M, 1) row sums s (the ones row's product) and
    the (M, 2) expectations (e @ cells.T)[:, :2] / s. A cell at MASKED below
    the row max gets e = 0 exactly.
    """
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits, out=logits)
    moments = e @ cells.T
    s = moments[:, 2:]
    return e, s, moments[:, :2] / s


def _cells(grid_h: int, grid_w: int, patch: int) -> np.ndarray:
    """(3, H*W) rows of each grid cell's decoded x, y and 1, in scanline order.

    Cells decode at patch centers, as a fraction of the image size with
    the center at the origin; the head bias carries the absolute pixel
    offset. Fractional units keep the head's inputs O(1) so the conv
    block, not the head, absorbs most of the fit.
    """
    ys, xs = np.mgrid[0:grid_h, 0:grid_w]
    xs_n = ((xs + 0.5) * patch - 0.5) / (grid_w * patch) - 0.5
    ys_n = ((ys + 0.5) * patch - 0.5) / (grid_h * patch) - 0.5
    return np.stack([xs_n.ravel(), ys_n.ravel(), np.ones(xs.size)])


def init_regressor(
    n_landmarks: int,
    in_channels: int,
    heatmaps: int,
    seed: int,
    center: tuple[float, float] = (0.0, 0.0),
) -> list[np.ndarray]:
    """The detector's `[conv, head_w, head_b]`: small uniform conv and head
    weights, head bias at `center`.

    `conv` is (n_landmarks * heatmaps, 3, 3, in_channels), channels last,
    matching `_im2col`'s rows; `head_w` is (n_landmarks, 2 * heatmaps, 2),
    applied to the concatenated (x, y) decodings of that landmark's
    heatmaps. The head sees those decodings with `center` subtracted, so
    starting the bias there makes the initial prediction the image center.
    A conv bias would be inert: the soft-argmax ignores a constant added
    to a map.
    """
    rng = np.random.default_rng([37, seed])
    k = 1.0 / np.sqrt(in_channels * 9)
    h = 1.0 / np.sqrt(2 * heatmaps)
    conv = rng.uniform(-k, k, size=(n_landmarks * heatmaps, in_channels, 3, 3))
    return [
        np.ascontiguousarray(conv.transpose(0, 2, 3, 1)),
        rng.uniform(-h, h, size=(n_landmarks, 2 * heatmaps, 2)),
        np.tile(np.asarray(center, dtype=np.float64), (n_landmarks, 1)),
    ]


def _windows(grid: FeatureGrid, proj: Projector) -> np.ndarray:
    """(H + 2, W + 2, C) zero-padded channels of the first-stage grid
    followed by its projection's."""
    both = np.concatenate([grid.features, project(proj, grid).features], axis=1)
    norm(both, axis=1)  # a feature too large to normalize is a data error here too
    x = both.reshape(grid.grid_h, grid.grid_w, both.shape[1])
    return np.pad(x, ((1, 1), (1, 1), (0, 0)))


def _im2col(padded: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy each cell's 3x3 window of `_windows`' `padded` into its row of
    the (H * W, 9 * C) `out`, ordered (row offset, column offset, channel)
    like a `conv` kernel, and return `out`."""
    h, w, c = padded.shape[0] - 2, padded.shape[1] - 2, padded.shape[2]
    win = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(0, 1))
    np.copyto(out.reshape(h, w, 3, 3, c), win.transpose(0, 1, 3, 4, 2))
    return out


def _forward(params: list[np.ndarray], x: np.ndarray, cells: np.ndarray, temperature: float):
    """The weights e and sums s of each heatmap's softmax, the decoded
    (landmarks, 2 * heatmaps) coordinates and the (landmarks, 2) predictions
    from one sample's `_im2col` rows `x`."""
    conv, head_w, head_b = params
    # 3x3 conv, stride 1: (O, 9C) kernel rows times (N, 9C) window rows
    logits = conv.reshape(len(conv), -1) @ x.T
    logits /= temperature
    e, s, expect = _expect(logits, cells)
    coords = expect.reshape(head_w.shape[:2])
    preds = np.einsum("li,lio->lo", coords, head_w) + head_b
    return e, s, coords, preds


def regressor_forward(
    params: list[np.ndarray], grid: FeatureGrid, proj: Projector, temperature: float
) -> np.ndarray:
    """Predicted (x, y) pixel coordinates for every landmark, shape (L, 2),
    from a first-stage grid and its projection by `proj`."""
    padded = _windows(grid, proj)
    in_channels = params[0].shape[3]
    if padded.shape[2] != in_channels:
        raise ValueError(f"{padded.shape[2]} input channels, regressor expects {in_channels}")
    x = _im2col(padded, np.empty((grid.grid_h * grid.grid_w, 9 * in_channels)))
    cells = _cells(grid.grid_h, grid.grid_w, grid.patch)
    return _forward(params, x, cells, temperature)[3]


def train_regressor(
    samples: list[tuple[FeatureGrid, np.ndarray]],
    proj: Projector,
    cfg: ExperimentConfig,
) -> tuple[list[np.ndarray], list[float]]:
    """Fit the detector (`heatmaps` maps per landmark, decoded at
    `softargmax_temp`) on (first-stage grid, landmarks) samples by
    `reg_steps` steps of `reg_optimizer` at `reg_lr` (and `momentum`) on
    mean squared pixel error, from a `seed` init; `cfg` is validated first.

    Backbone and projector stay frozen, so each sample's padded channels
    are built once; each item copies its windows into one shared im2col
    buffer, and only the `init_regressor` arrays move. They are returned
    with each step's mean loss. The samples must share one grid geometry.
    """
    cfg.validate()
    if not samples:
        raise ValueError("no training samples")
    grid = samples[0][0]
    geometry = (grid.grid_h, grid.grid_w, grid.patch)
    if any((g.grid_h, g.grid_w, g.patch) != geometry for g, _ in samples):
        raise ValueError("training samples differ in grid geometry")
    windows = [_windows(g, proj) for g, _ in samples]
    targets = [np.asarray(lm, dtype=np.float64) for _, lm in samples]
    in_channels = windows[0].shape[2]
    params = init_regressor(
        targets[0].shape[0],
        in_channels,
        heatmaps=cfg.heatmaps,
        seed=cfg.seed,
        center=(grid.image_w / 2.0, grid.image_h / 2.0),
    )
    cells = _cells(grid.grid_h, grid.grid_w, grid.patch)
    x = np.empty((grid.grid_h * grid.grid_w, 9 * in_channels))

    def item_losses(params):
        for padded, t in zip(windows, targets):
            yield _loss_and_grads(params, _im2col(padded, x), cells, t, cfg.softargmax_temp)

    return descend(params, item_losses, cfg.reg_lr, cfg.reg_steps, cfg.reg_optimizer, cfg.momentum)


def _loss_and_grads(
    params: list[np.ndarray],
    x: np.ndarray,
    cells: np.ndarray,
    target: np.ndarray,
    temperature: float,
):
    """One sample's squared-error loss and fresh `[conv, head_w, head_b]`
    gradients from its `_im2col` rows `x`."""
    conv, head_w, _ = params
    e, s, coords, preds = _forward(params, x, cells, temperature)
    resid = preds - target
    loss = float((resid**2).mean())
    d_preds = 2.0 * resid / resid.size
    d_head_w = np.einsum("li,lo->lio", coords, d_preds)
    d_coords = np.einsum("lio,lo->li", head_w, d_preds).reshape(-1, 2)
    # soft-argmax backward: with p = e / s, d(p.x)/d(logit) = p (x - E[x]),
    # so d_heat = e * (dx x + dy y - (dx E[x] + dy E[y])) / (s T): a rank-3
    # product of per-map coefficients with the cells' (x, y, 1) rows
    expect = coords.reshape(-1, 2)
    a = np.empty((len(conv), 3))
    a[:, :2] = d_coords
    a[:, 2] = -(d_coords * expect).sum(axis=1)
    a /= s * temperature
    d_heat = a @ cells
    d_heat *= e
    d_conv = (d_heat @ x).reshape(conv.shape)
    return loss, [d_conv, d_head_w, d_preds]


def inter_ocular_error(
    preds: np.ndarray, gts: np.ndarray, left_eye: int, right_eye: int
) -> np.ndarray:
    """(samples, landmarks) ||pred - gt|| / eye distance, times 100.

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
    return np.linalg.norm(preds - gts, axis=2) / iod[:, None] * 100.0


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
