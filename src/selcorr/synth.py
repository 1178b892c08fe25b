"""Deterministic synthetic backbone stub.

Emits per-patch token features for a face-like layout: a handful of
landmark-bearing patches with distinctive prototypes, and large uniform
regions everywhere else. All prototypes share a strong common component,
so raw cosine similarities are crowded together; the projector has to
learn to suppress that component to separate tokens. Key rows are
constructed so landmark patches score higher against the CLS query by a
controlled margin. Everything is a pure function of (spec, seed).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .tensorio import (
    FeatureGrid,
    cell_centers,
    read_manifest,
    read_tensor,
    sq_dists,
    write_tensor,
)

DEFAULT_LANDMARKS = ((30.0, 36.0), (66.0, 36.0), (48.0, 56.0), (34.0, 72.0), (62.0, 72.0))
# eye, eye, nose, mouth corner, mouth corner: symmetric landmarks look alike
DEFAULT_GROUPS = (0, 0, 1, 2, 2)
DEFAULT_ANCHORS = ((48.0, 10.0), (16.0, 64.0), (80.0, 64.0))
LEFT_EYE, RIGHT_EYE = 0, 1

# seed-stream namespaces so the same integer seed never feeds two purposes
_PROTO_TAG = 11
_IDENT_TAG = 13
_NOISE_TAG = 17
_WARP_TAG = 19
_PAIR_TAG = 23

# the fixed statistics of the synthetic world: the spread of each identity's
# offsets from the class prototypes, the weight of the component every
# prototype shares, the positional signature's gain over the token noise,
# and the expected CLS-logit advantage of landmark key rows over the rest
IDENTITY_SIGMA = 0.18
PROTO_CORR = 0.96
POS_GAMMA = 6.0
BETA = 6.0

# every warp's thin-plate spline: a TPS_GRID x TPS_GRID control grid spanning
# the image, with TPS_RIDGE on the kernel block's diagonal; corpus samples and
# test images draw their control displacements with TPS_SIGMA_FRAC of the side
TPS_GRID = 3
TPS_RIDGE = 1e-8
TPS_SIGMA_FRAC = 0.05


@dataclass(frozen=True)
class SyntheticFaceSpec:
    """Geometry and token noise of one synthetic face image.

    Landmarks and region anchors are (x, y) pixel coordinates; the other
    statistics are the module constants above.
    """

    landmarks_px: tuple[tuple[float, float], ...] = DEFAULT_LANDMARKS
    landmark_groups: tuple[int, ...] = DEFAULT_GROUPS
    region_anchors_px: tuple[tuple[float, float], ...] = DEFAULT_ANCHORS
    image_size: int = 96
    patch: int = 8
    prototype_seed: int = 0
    identity_seed: int = 0
    sigma: float = 0.2
    d: int = 32
    d_aux: int = 16

    def __post_init__(self) -> None:
        if len(self.landmarks_px) < 2:
            raise ValueError("need at least 2 landmarks")
        if len(self.landmark_groups) != len(self.landmarks_px):
            raise ValueError("landmark_groups must list one appearance group per landmark")
        groups = set(self.landmark_groups)
        if groups != set(range(max(groups) + 1)):
            raise ValueError("appearance groups must be 0..G-1 with every group used")
        if len(self.region_anchors_px) < 1:
            raise ValueError("need at least 1 region anchor")
        hi = self.image_size - 1
        for x, y in list(self.landmarks_px) + list(self.region_anchors_px):
            if not (0.0 <= x <= hi and 0.0 <= y <= hi):
                raise ValueError(f"point ({x}, {y}) outside image bounds")
        if self.patch < 1 or self.image_size < self.patch or self.image_size % self.patch != 0:
            raise ValueError("patch must be >= 1 and the image size a positive multiple of it")
        if self.sigma < 0.0:
            raise ValueError("the noise scale must be non-negative")
        if self.d_aux < 1:
            raise ValueError("d_aux must be >= 1")
        # the positional signatures take one channel per landmark and anchor,
        # and the appearance means, drawn orthogonal to them, one more channel
        # per group and region; below that the means lose rank, and at the
        # positional count alone they are rounding noise
        positional = self.n_landmarks + self.n_regions
        appearance = self.n_groups + self.n_regions
        if self.d < positional + appearance:
            raise ValueError(
                f"d = {self.d} is below {positional + appearance}: {positional} positional "
                f"channels plus {appearance} appearance means (groups and regions)"
            )

    @property
    def n_landmarks(self) -> int:
        return len(self.landmarks_px)

    @property
    def n_groups(self) -> int:
        return max(self.landmark_groups) + 1

    @property
    def n_regions(self) -> int:
        return len(self.region_anchors_px)

    @property
    def grid_size(self) -> int:
        return self.image_size // self.patch


@dataclass
class BackboneOutput:
    """Frozen-backbone analog for one image: token grids plus CLS attention inputs."""

    main: FeatureGrid
    aux: FeatureGrid
    q_cls: np.ndarray
    keys: np.ndarray

    def __post_init__(self) -> None:
        self.q_cls = np.asarray(self.q_cls, dtype=np.float64)
        self.keys = np.asarray(self.keys, dtype=np.float64)
        if self.keys.shape != (self.main.n_tokens, self.q_cls.shape[0]):
            raise ValueError(
                f"keys shape {self.keys.shape} does not match "
                f"{self.main.n_tokens} tokens x {self.q_cls.shape[0]} dims"
            )


@dataclass
class EvalPair:
    """Reference/test outputs with ground-truth landmark pixels in both."""

    ref: BackboneOutput
    test: BackboneOutput
    ref_landmarks: np.ndarray
    test_landmarks: np.ndarray

    def __post_init__(self) -> None:
        self.ref_landmarks = np.asarray(self.ref_landmarks, dtype=np.float64)
        self.test_landmarks = np.asarray(self.test_landmarks, dtype=np.float64)
        if self.ref_landmarks.shape != self.test_landmarks.shape:
            raise ValueError("landmark counts differ across the pair")


def landmark_cells(spec: SyntheticFaceSpec) -> np.ndarray:
    """Token index of the patch cell holding each landmark, in landmark order."""
    g = spec.grid_size
    pts = np.asarray(spec.landmarks_px)
    cols = np.clip((pts[:, 0] // spec.patch).astype(np.intp), 0, g - 1)
    rows = np.clip((pts[:, 1] // spec.patch).astype(np.intp), 0, g - 1)
    return rows * g + cols


def _prototypes(spec: SyntheticFaceSpec) -> dict[str, np.ndarray]:
    """Class-level draws shared by every identity built on the same prototype
    seed; read-only arrays, drawn once per distinct key."""
    return _prototype_draw(
        spec.prototype_seed,
        spec.d,
        spec.d_aux,
        spec.landmark_groups,
        spec.n_landmarks,
        spec.n_groups,
        spec.n_regions,
    )


@functools.lru_cache(maxsize=16)
def _prototype_draw(
    prototype_seed: int,
    d: int,
    d_aux: int,
    landmark_groups: tuple[int, ...],
    n_landmarks: int,
    n_groups: int,
    n_regions: int,
) -> dict[str, np.ndarray]:
    rng = np.random.default_rng([_PROTO_TAG, prototype_seed])
    base = rng.standard_normal(d)
    # appearance is drawn per group, so symmetric landmarks share a prototype
    group_unique = rng.standard_normal((n_groups, d))
    region_unique = rng.standard_normal((n_regions, d))
    q_cls = rng.standard_normal(d)
    lm_aux = rng.standard_normal((n_landmarks, d_aux))
    region_aux = rng.standard_normal((n_regions, d_aux))
    # orthonormal columns spanning the positional-signature subspace
    pos_embed, _ = np.linalg.qr(rng.standard_normal((d, n_landmarks + n_regions)))
    # appearance lives in the complement of the signature subspace, so
    # position and appearance never interfere
    def _ortho_unit(rows: np.ndarray) -> np.ndarray:
        rows = rows - (rows @ pos_embed) @ pos_embed.T
        return rows / np.linalg.norm(rows, axis=-1, keepdims=True)

    base = _ortho_unit(base[None])[0]
    group_unique = _ortho_unit(group_unique)
    region_unique = _ortho_unit(region_unique)
    shared = PROTO_CORR * base
    mix = math.sqrt(1.0 - PROTO_CORR * PROTO_CORR)
    scale = math.sqrt(d)
    proto = {
        "lm_mean": (scale * (shared + mix * group_unique))[list(landmark_groups)],
        "region_mean": scale * (shared + mix * region_unique),
        "lm_aux": lm_aux,
        "region_aux": region_aux,
        "q_cls": q_cls,
        "pos_embed": pos_embed,
    }
    # every caller shares these arrays
    for arr in proto.values():
        arr.flags.writeable = False
    return proto


def _identity_offsets(spec: SyntheticFaceSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([_IDENT_TAG, spec.prototype_seed, spec.identity_seed])
    lm = IDENTITY_SIGMA * rng.standard_normal((spec.n_landmarks, spec.d))
    region = IDENTITY_SIGMA * rng.standard_normal((spec.n_regions, spec.d))
    return lm, region


def _region_of_cells(spec: SyntheticFaceSpec, centers: np.ndarray) -> np.ndarray:
    """Nearest region anchor per patch cell (by its `cell_centers` pixel), ties to lower index."""
    anchors = np.asarray(spec.region_anchors_px)
    return np.argmin(sq_dists(centers, anchors), axis=1)


def _position_code(spec: SyntheticFaceSpec, points: np.ndarray) -> np.ndarray:
    """Gaussian bump code of each point against the landmark/anchor constellation.

    The code deforms with the geometry (warped specs carry warped points),
    so corresponding face locations share signatures across images while
    distant cells within one image get distinct ones. Landmark bumps are
    narrow (each component peaks exactly at its landmark, giving sub-cell
    position information nearby); anchor bumps are wide (coarse
    whereabouts everywhere else).
    """
    anchors = np.asarray(list(spec.landmarks_px) + list(spec.region_anchors_px))
    taus = np.full(anchors.shape[0], 0.25 * spec.image_size)
    taus[: spec.n_landmarks] = 0.08 * spec.image_size
    return np.exp(-sq_dists(points, anchors) / (2.0 * taus * taus))


def generate_backbone_output(spec: SyntheticFaceSpec, seed: int) -> BackboneOutput:
    """One image's worth of token features, keys and CLS query.

    Each patch token is its region's identity prototype plus noise; patches
    holding a landmark get that landmark's prototype instead (later
    landmark wins if two share a cell). Landmark key rows carry an extra
    BETA / ||q_cls|| along the query direction, so their expected CLS logit
    advantage is exactly BETA before the 1/sqrt(d) scaling.
    """
    proto = _prototypes(spec)
    lm_off, region_off = _identity_offsets(spec)
    rng = np.random.default_rng([_NOISE_TAG, spec.identity_seed, seed])
    g = spec.grid_size
    n = g * g
    centers = cell_centers(g, g, spec.patch)
    region = _region_of_cells(spec, centers)
    cells = landmark_cells(spec)

    sigma = spec.sigma
    main = (proto["region_mean"] + region_off)[region] + sigma * rng.standard_normal((n, spec.d))
    aux = proto["region_aux"][region] + 0.5 * sigma * rng.standard_normal((n, spec.d_aux))
    for i, cell in enumerate(cells):
        main[cell] = proto["lm_mean"][i] + lm_off[i] + sigma * rng.standard_normal(spec.d)
        aux[cell] = proto["lm_aux"][i] + 0.5 * sigma * rng.standard_normal(spec.d_aux)

    # positional signature rides on the noise amplitude so sigma=0 keeps
    # tokens exactly prototype-valued
    code = _position_code(spec, centers)
    main += POS_GAMMA * sigma * (code @ proto["pos_embed"].T)

    q = proto["q_cls"]
    # attention-layer analog: same reduced noise as the aux grid
    keys = 0.5 * sigma * rng.standard_normal((n, spec.d))
    keys[cells] += BETA * q / (q @ q)
    return BackboneOutput(
        main=FeatureGrid(g, g, spec.patch, main),
        aux=FeatureGrid(g, g, spec.patch, aux),
        q_cls=q.copy(),
        keys=keys,
    )


def control_points(image_size: int) -> np.ndarray:
    """The (TPS_GRID**2, 2) control points (x, y), row-major over the grid."""
    ticks = np.linspace(0.0, image_size - 1.0, TPS_GRID)
    gy, gx = np.meshgrid(ticks, ticks, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def tps_warp(points: np.ndarray, displacements: np.ndarray, image_size: int) -> np.ndarray:
    """Warp (m, 2) pixel points through the thin-plate spline, clamped to bounds.

    The spline interpolates the (TPS_GRID**2, 2) control displacements with
    the r^2 log r kernel plus an affine part. Out-of-bounds points, a wrong
    displacement shape, non-finite displacements and a grid that collapses
    (a 1-pixel image) raise ValueError.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"expected (m, 2) points, got {points.shape}")
    hi = image_size - 1.0
    if points.min() < 0.0 or points.max() > hi:
        raise ValueError("points outside image bounds")
    n = TPS_GRID * TPS_GRID
    displacements = np.asarray(displacements, dtype=np.float64)
    if displacements.shape != (n, 2):
        raise ValueError(f"expected ({n}, 2) control displacements, got {displacements.shape}")
    if not np.isfinite(displacements).all():
        raise ValueError("non-finite control displacements")
    ctrl = control_points(image_size)
    kernel = _tps_kernel(np.sqrt(sq_dists(ctrl, ctrl)))
    poly = np.hstack([np.ones((n, 1)), ctrl])
    a = np.zeros((n + 3, n + 3))
    a[:n, :n] = kernel + TPS_RIDGE * np.eye(n)
    a[:n, n:] = poly
    a[n:, :n] = poly.T
    rhs = np.zeros((n + 3, 2))
    rhs[:n] = displacements
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"degenerate control grid on a {image_size}-pixel image") from exc
    u = _tps_kernel(np.sqrt(sq_dists(points, ctrl)))
    disp = u @ sol[:n] + np.hstack([np.ones((points.shape[0], 1)), points]) @ sol[n:]
    return np.clip(points + disp, 0.0, hi)


def _tps_kernel(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    np.log(r, out=out, where=r > 0.0)
    return r * r * out


def draw_warp(image_size: int, rng: np.random.Generator, sigma_frac: float) -> np.ndarray:
    """Random (TPS_GRID**2, 2) control displacements, Gaussian with
    sigma_frac of the image side."""
    return sigma_frac * image_size * rng.standard_normal((TPS_GRID * TPS_GRID, 2))


def warped_spec(spec: SyntheticFaceSpec, displacements: np.ndarray) -> SyntheticFaceSpec:
    """Same identity and statistics, geometry pushed through the warp."""
    # one solve for both point sets; each output row depends only on its input row
    points = tps_warp(
        np.asarray(spec.landmarks_px + spec.region_anchors_px), displacements, spec.image_size
    )
    lm, anchors = points[: spec.n_landmarks], points[spec.n_landmarks :]
    return replace(
        spec,
        landmarks_px=tuple(map(tuple, lm)),
        region_anchors_px=tuple(map(tuple, anchors)),
    )


def sample_spec(base: SyntheticFaceSpec, master_seed: int, index: int) -> SyntheticFaceSpec:
    """Corpus sample `index`: fresh identity, independently warped geometry."""
    rng = np.random.default_rng([_WARP_TAG, master_seed, index])
    identity = int(rng.integers(0, 2**31))
    warped = warped_spec(base, draw_warp(base.image_size, rng, TPS_SIGMA_FRAC))
    return replace(warped, identity_seed=identity)


def make_pair(spec: SyntheticFaceSpec, kind: str, seed: int) -> EvalPair:
    """Reference/test pair; `same` keeps the identity, `different` redraws it.

    Both kinds warp the test geometry so ground-truth correspondences are
    non-trivial.
    """
    if kind not in ("same", "different"):
        raise ValueError(f"kind must be 'same' or 'different', got {kind!r}")
    if seed < 0:
        raise ValueError("pair seed must be non-negative")
    rng = np.random.default_rng([_PAIR_TAG, seed])
    ref_seed, test_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
    warp = draw_warp(spec.image_size, np.random.default_rng([_WARP_TAG, seed]), TPS_SIGMA_FRAC)
    test = warped_spec(spec, warp)
    if kind == "different":
        test = replace(test, identity_seed=spec.identity_seed + 1 + seed)
    return EvalPair(
        ref=generate_backbone_output(spec, ref_seed),
        test=generate_backbone_output(test, test_seed),
        ref_landmarks=np.asarray(spec.landmarks_px),
        test_landmarks=np.asarray(test.landmarks_px),
    )


def pair_seeds(master_seed: int, count: int) -> list[int]:
    """Stable per-pair seeds derived from one master seed."""
    ss = np.random.SeedSequence([_PAIR_TAG, master_seed])
    return [int(s) for s in ss.generate_state(count)]


def write_sample(directory: str | Path, output: BackboneOutput, landmarks: np.ndarray) -> None:
    """Persist one image's five tensors into `directory`: the two token
    grids, the CLS query, the key rows and the (L, 2) float64 ground-truth
    landmark pixels (x, y).

    The grid geometry is not stored: it is the corpus's world, recorded
    once in the corpus's `config.txt`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_tensor(directory / "main.scet", output.main.features)
    write_tensor(directory / "aux.scet", output.aux.features)
    write_tensor(directory / "qcls.scet", output.q_cls)
    write_tensor(directory / "keys.scet", output.keys)
    write_tensor(directory / "landmarks.scet", np.asarray(landmarks, dtype=np.float64))


def read_sample(
    directory: str | Path, spec: SyntheticFaceSpec
) -> tuple[BackboneOutput, np.ndarray]:
    """Inverse of `write_sample` for a sample of the world `spec`.

    Malformed tensors and a sample off the world raise ValueError naming
    the file or the sample: every tensor value must be finite, the grids
    must hold `spec.grid_size`**2 tokens of `d` and `d_aux` channels, and
    the landmarks must be one (x, y) row per landmark of `spec`, inside
    the image.
    """
    directory = Path(directory)
    main, aux, q_cls, keys, landmarks = (
        _read_finite(directory / f"{name}.scet")
        for name in ("main", "aux", "qcls", "keys", "landmarks")
    )
    g = spec.grid_size
    try:
        output = BackboneOutput(
            FeatureGrid(g, g, spec.patch, main), FeatureGrid(g, g, spec.patch, aux), q_cls, keys
        )
    except ValueError as exc:
        raise ValueError(f"sample {directory}: {exc}") from None
    for key, value, want in (
        ("d", output.main.channels, spec.d),
        ("d_aux", output.aux.channels, spec.d_aux),
    ):
        if value != want:
            raise ValueError(f"sample {directory}: {key}={value}, but the world has {key}={want}")
    path, hi = directory / "landmarks.scet", spec.image_size - 1
    if landmarks.shape != (spec.n_landmarks, 2):
        raise ValueError(f"{path}: expected ({spec.n_landmarks}, 2) pixels, got {landmarks.shape}")
    if landmarks.min() < 0.0 or landmarks.max() > hi:
        raise ValueError(f"{path}: a coordinate lies outside [0, {hi}]")
    return output, landmarks.astype(np.float64, copy=False)


def _read_finite(path: Path) -> np.ndarray:
    tensor = read_tensor(path)
    if not np.isfinite(tensor).all():
        raise ValueError(f"{path}: non-finite values")
    return tensor


def read_corpus(
    manifest: str | Path, spec: SyntheticFaceSpec
) -> Iterator[tuple[BackboneOutput, np.ndarray]]:
    """Every sample the manifest lists, read and checked against the world
    `spec` (see `read_sample`) one at a time, when iteration reaches it, so
    memory is bounded by what the caller keeps.

    An empty manifest raises ValueError naming it.
    """
    directories = read_manifest(manifest)
    if not directories:
        raise ValueError(f"manifest {manifest} lists no samples")
    for directory in directories:
        yield read_sample(directory, spec)
