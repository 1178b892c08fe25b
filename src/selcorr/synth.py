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

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .tensorio import (
    FeatureGrid,
    read_manifest,
    read_meta,
    read_tensor,
    sq_dists,
    write_csv,
    write_key_values,
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


@dataclass(frozen=True)
class SyntheticFaceSpec:
    """Geometry and statistics of one synthetic face image.

    Landmarks and region anchors are (x, y) pixel coordinates. `proto_corr`
    is the weight of the component shared by every prototype; `beta` is the
    expected CLS-logit advantage of landmark key rows over the rest.
    """

    landmarks_px: tuple[tuple[float, float], ...] = DEFAULT_LANDMARKS
    landmark_groups: tuple[int, ...] = DEFAULT_GROUPS
    region_anchors_px: tuple[tuple[float, float], ...] = DEFAULT_ANCHORS
    image_size: int = 96
    patch: int = 8
    prototype_seed: int = 0
    identity_seed: int = 0
    sigma_lm: float = 0.2
    sigma_bg: float = 0.2
    identity_sigma: float = 0.18
    proto_corr: float = 0.96
    pos_gamma: float = 6.0
    beta: float = 6.0
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
        if self.image_size < self.patch or self.image_size % self.patch != 0:
            raise ValueError("image size must be a positive multiple of patch size")
        if min(self.sigma_lm, self.sigma_bg, self.identity_sigma, self.pos_gamma) < 0.0:
            raise ValueError("noise scales must be non-negative")
        if not 0.0 <= self.proto_corr < 1.0:
            raise ValueError("prototype correlation must be in [0, 1)")
        if self.d < 1 or self.d_aux < 1:
            raise ValueError("feature dims must be >= 1")

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
    spec: SyntheticFaceSpec | None = None

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
    same_identity: bool

    def __post_init__(self) -> None:
        self.ref_landmarks = np.asarray(self.ref_landmarks, dtype=np.float64)
        self.test_landmarks = np.asarray(self.test_landmarks, dtype=np.float64)
        if self.ref_landmarks.shape != self.test_landmarks.shape:
            raise ValueError("landmark counts differ across the pair")


@dataclass
class TpsParams:
    """Thin-plate-spline warp: control grid over the image plus displacements."""

    grid_shape: tuple[int, int]
    displacements: np.ndarray
    reg: float
    image_size: int

    def __post_init__(self) -> None:
        gh, gw = self.grid_shape
        self.displacements = np.asarray(self.displacements, dtype=np.float64)
        if self.displacements.shape != (gh * gw, 2):
            raise ValueError(
                f"expected ({gh * gw}, 2) displacements, got {self.displacements.shape}"
            )
        if not np.isfinite(self.displacements).all():
            raise ValueError("non-finite control displacements")
        if self.reg < 0.0:
            raise ValueError("regularization weight must be non-negative")

    def control_points(self) -> np.ndarray:
        gh, gw = self.grid_shape
        xs = np.linspace(0.0, self.image_size - 1.0, gw)
        ys = np.linspace(0.0, self.image_size - 1.0, gh)
        gy, gx = np.meshgrid(ys, xs, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=1)


def landmark_cells(spec: SyntheticFaceSpec) -> np.ndarray:
    """Token index of the patch cell holding each landmark, in landmark order."""
    g = spec.grid_size
    pts = np.asarray(spec.landmarks_px)
    cols = np.clip((pts[:, 0] // spec.patch).astype(np.intp), 0, g - 1)
    rows = np.clip((pts[:, 1] // spec.patch).astype(np.intp), 0, g - 1)
    return rows * g + cols


def _prototypes(spec: SyntheticFaceSpec) -> dict[str, np.ndarray]:
    """Class-level draws shared by every identity built on the same prototype seed."""
    rng = np.random.default_rng([_PROTO_TAG, spec.prototype_seed])
    base = rng.standard_normal(spec.d)
    # appearance is drawn per group, so symmetric landmarks share a prototype
    group_unique = rng.standard_normal((spec.n_groups, spec.d))
    region_unique = rng.standard_normal((spec.n_regions, spec.d))
    q_cls = rng.standard_normal(spec.d)
    lm_aux = rng.standard_normal((spec.n_landmarks, spec.d_aux))
    region_aux = rng.standard_normal((spec.n_regions, spec.d_aux))
    # orthonormal columns spanning the positional-signature subspace
    n_code = spec.n_landmarks + spec.n_regions
    pos_embed, _ = np.linalg.qr(rng.standard_normal((spec.d, n_code)))
    # appearance lives in the complement of the signature subspace, so
    # position and appearance never interfere
    def _ortho_unit(rows: np.ndarray) -> np.ndarray:
        rows = rows - (rows @ pos_embed) @ pos_embed.T
        return rows / np.linalg.norm(rows, axis=-1, keepdims=True)

    base = _ortho_unit(base[None])[0]
    group_unique = _ortho_unit(group_unique)
    region_unique = _ortho_unit(region_unique)
    c = spec.proto_corr
    mix = math.sqrt(1.0 - c * c)
    scale = math.sqrt(spec.d)
    groups = list(spec.landmark_groups)
    return {
        "lm_mean": (scale * (c * base + mix * group_unique))[groups],
        "region_mean": scale * (c * base + mix * region_unique),
        "lm_aux": lm_aux,
        "region_aux": region_aux,
        "q_cls": q_cls,
        "pos_embed": pos_embed,
    }


def _identity_offsets(spec: SyntheticFaceSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([_IDENT_TAG, spec.prototype_seed, spec.identity_seed])
    lm = spec.identity_sigma * rng.standard_normal((spec.n_landmarks, spec.d))
    region = spec.identity_sigma * rng.standard_normal((spec.n_regions, spec.d))
    return lm, region


def _cell_centers(spec: SyntheticFaceSpec) -> np.ndarray:
    g = spec.grid_size
    rows, cols = np.divmod(np.arange(g * g), g)
    return np.stack([(cols + 0.5) * spec.patch, (rows + 0.5) * spec.patch], axis=1)


def _region_of_cells(spec: SyntheticFaceSpec) -> np.ndarray:
    """Nearest region anchor per patch cell (by cell-center pixel), ties to lower index."""
    centers = _cell_centers(spec)
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
    beta / ||q_cls|| along the query direction, so their expected CLS logit
    advantage is exactly beta before the 1/sqrt(d) scaling.
    """
    proto = _prototypes(spec)
    lm_off, region_off = _identity_offsets(spec)
    rng = np.random.default_rng([_NOISE_TAG, spec.identity_seed, seed])
    g = spec.grid_size
    n = g * g
    region = _region_of_cells(spec)
    cells = landmark_cells(spec)

    sigma = np.full(n, spec.sigma_bg)
    sigma[cells] = spec.sigma_lm
    main = (proto["region_mean"] + region_off)[region] + sigma[:, None] * rng.standard_normal(
        (n, spec.d)
    )
    aux = proto["region_aux"][region] + 0.5 * sigma[:, None] * rng.standard_normal(
        (n, spec.d_aux)
    )
    for i, cell in enumerate(cells):
        main[cell] = proto["lm_mean"][i] + lm_off[i] + spec.sigma_lm * rng.standard_normal(spec.d)
        aux[cell] = proto["lm_aux"][i] + 0.5 * spec.sigma_lm * rng.standard_normal(spec.d_aux)

    # positional signature rides on the noise amplitude so sigma=0 keeps
    # tokens exactly prototype-valued
    code = _position_code(spec, _cell_centers(spec))
    main += spec.pos_gamma * sigma[:, None] * (code @ proto["pos_embed"].T)

    q = proto["q_cls"]
    # attention-layer analog: same reduced noise as the aux grid
    keys = 0.5 * sigma[:, None] * rng.standard_normal((n, spec.d))
    keys[cells] += spec.beta * q / (q @ q)
    return BackboneOutput(
        main=FeatureGrid(g, g, spec.patch, main),
        aux=FeatureGrid(g, g, spec.patch, aux),
        q_cls=q,
        keys=keys,
        spec=spec,
    )


def tps_warp(points: np.ndarray, params: TpsParams) -> np.ndarray:
    """Warp (m, 2) pixel points through the thin-plate spline, clamped to bounds.

    The spline interpolates the control displacements with the r^2 log r
    kernel plus an affine part; `params.reg` is added to the kernel block
    diagonal. A control layout that makes the system singular (collinear
    grid) raises.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"expected (m, 2) points, got {points.shape}")
    hi = params.image_size - 1.0
    if points.min() < 0.0 or points.max() > hi:
        raise ValueError("points outside image bounds")
    ctrl = params.control_points()
    n = ctrl.shape[0]
    kernel = _tps_kernel(np.sqrt(sq_dists(ctrl, ctrl)))
    poly = np.hstack([np.ones((n, 1)), ctrl])
    a = np.zeros((n + 3, n + 3))
    a[:n, :n] = kernel + params.reg * np.eye(n)
    a[:n, n:] = poly
    a[n:, :n] = poly.T
    rhs = np.zeros((n + 3, 2))
    rhs[:n] = params.displacements
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"degenerate control grid {params.grid_shape}") from exc
    if np.abs(a @ sol - rhs).max() > 1e-6 * max(1.0, np.abs(rhs).max()):
        raise ValueError(f"degenerate control grid {params.grid_shape}")
    u = _tps_kernel(np.sqrt(sq_dists(points, ctrl)))
    disp = u @ sol[:n] + np.hstack([np.ones((points.shape[0], 1)), points]) @ sol[n:]
    return np.clip(points + disp, 0.0, hi)


def _tps_kernel(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    np.log(r, out=out, where=r > 0.0)
    return r * r * out


def draw_warp(
    image_size: int,
    rng: np.random.Generator,
    grid_shape: tuple[int, int] = (3, 3),
    sigma_frac: float = 0.05,
    reg: float = 1e-8,
) -> TpsParams:
    """Random warp: Gaussian control displacements, sigma_frac of the image side."""
    gh, gw = grid_shape
    disp = sigma_frac * image_size * rng.standard_normal((gh * gw, 2))
    return TpsParams(grid_shape=grid_shape, displacements=disp, reg=reg, image_size=image_size)


def warped_spec(spec: SyntheticFaceSpec, params: TpsParams) -> SyntheticFaceSpec:
    """Same identity and statistics, geometry pushed through the warp."""
    lm = tps_warp(np.asarray(spec.landmarks_px), params)
    anchors = tps_warp(np.asarray(spec.region_anchors_px), params)
    return replace(
        spec,
        landmarks_px=tuple(map(tuple, lm)),
        region_anchors_px=tuple(map(tuple, anchors)),
    )


def sample_spec(
    base: SyntheticFaceSpec, master_seed: int, index: int, sigma_frac: float = 0.05
) -> SyntheticFaceSpec:
    """Corpus sample `index`: fresh identity, independently warped geometry."""
    rng = np.random.default_rng([_WARP_TAG, master_seed, index])
    identity = int(rng.integers(0, 2**31))
    warped = warped_spec(base, draw_warp(base.image_size, rng, sigma_frac=sigma_frac))
    return replace(warped, identity_seed=identity)


def make_pair(
    spec: SyntheticFaceSpec,
    kind: str,
    seed: int,
    sigma_frac: float = 0.05,
) -> EvalPair:
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
    warp = draw_warp(spec.image_size, np.random.default_rng([_WARP_TAG, seed]), sigma_frac=sigma_frac)
    test = warped_spec(spec, warp)
    if kind == "different":
        test = replace(test, identity_seed=spec.identity_seed + 1 + seed)
    return EvalPair(
        ref=generate_backbone_output(spec, ref_seed),
        test=generate_backbone_output(test, test_seed),
        ref_landmarks=np.asarray(spec.landmarks_px),
        test_landmarks=np.asarray(test.landmarks_px),
        same_identity=kind == "same",
    )


def pair_seeds(master_seed: int, count: int) -> list[int]:
    """Stable per-pair seeds derived from one master seed."""
    ss = np.random.SeedSequence([_PAIR_TAG, master_seed])
    return [int(s) for s in ss.generate_state(count)]


LANDMARK_HEADER = ("landmark_index", "x_px", "y_px")


def write_sample(directory: str | Path, output: BackboneOutput, landmarks: np.ndarray) -> None:
    """Persist one image's tensors plus its landmark table into `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_tensor(directory / "main.scet", output.main.features)
    write_tensor(directory / "aux.scet", output.aux.features)
    write_tensor(directory / "qcls.scet", output.q_cls)
    write_tensor(directory / "keys.scet", output.keys)
    rows = [(i, x, y) for i, (x, y) in enumerate(np.asarray(landmarks, dtype=np.float64))]
    write_csv(directory / "landmarks.csv", [LANDMARK_HEADER, *rows])
    grid = output.main
    meta = {"grid_h": grid.grid_h, "grid_w": grid.grid_w, "patch": grid.patch}
    write_key_values(directory / "meta.txt", meta)


def read_sample(directory: str | Path) -> tuple[BackboneOutput, np.ndarray]:
    """Inverse of `write_sample`; the returned output carries no generating spec.

    Malformed metadata, tensors or landmark tables raise ValueError naming
    the file: every tensor value must be finite, and the table needs the
    `write_sample` header, one `index,x,y` row per landmark numbered from
    0, and finite coordinates inside the image.
    """
    directory = Path(directory)
    meta_path = directory / "meta.txt"
    meta = read_meta(meta_path)
    gh, gw, patch = (_meta_int(meta, key, meta_path) for key in ("grid_h", "grid_w", "patch"))
    main, aux, q_cls, keys = (
        _read_finite(directory / f"{name}.scet") for name in ("main", "aux", "qcls", "keys")
    )
    try:
        output = BackboneOutput(
            FeatureGrid(gh, gw, patch, main), FeatureGrid(gh, gw, patch, aux), q_cls, keys
        )
    except ValueError as exc:
        raise ValueError(f"sample {directory}: {exc}") from None
    return output, _read_landmarks(directory / "landmarks.csv", output.main)


def _read_finite(path: Path) -> np.ndarray:
    tensor = read_tensor(path)
    if not np.isfinite(tensor).all():
        raise ValueError(f"{path}: non-finite values")
    return tensor


def _read_landmarks(path: Path, grid: FeatureGrid) -> np.ndarray:
    lines = path.read_text().splitlines()
    if not lines or tuple(lines[0].split(",")) != LANDMARK_HEADER:
        raise ValueError(f"{path}: header must be {','.join(LANDMARK_HEADER)}")
    rows = [row.split(",") for row in lines[1:] if row.strip()]
    if not rows:
        raise ValueError(f"{path}: no landmarks")
    pts = []
    for i, cells in enumerate(rows):
        if len(cells) != 3 or cells[0].strip() != str(i):
            raise ValueError(f"{path}: row {i + 1} must be {i},x,y, got {','.join(cells)!r}")
        try:
            x, y = float(cells[1]), float(cells[2])
        except ValueError:
            raise ValueError(f"{path}: row {i + 1} has a non-numeric coordinate") from None
        # compared as Python numbers, so nan and inf fail and no bound overflows
        if not (0.0 <= x <= grid.image_w - 1 and 0.0 <= y <= grid.image_h - 1):
            raise ValueError(
                f"{path}: row {i + 1}: ({x}, {y}) is not a finite point inside "
                f"[0, {grid.image_w - 1}] x [0, {grid.image_h - 1}]"
            )
        pts.append((x, y))
    return np.asarray(pts)


def read_corpus(manifest: str | Path) -> list[tuple[BackboneOutput, np.ndarray]]:
    """Every sample the manifest lists, each checked to agree with the first
    on landmark count, grid geometry and channel counts.

    An empty manifest or a disagreeing sample raises ValueError naming it.
    """
    corpus = []
    for directory in read_manifest(manifest):
        sample = read_sample(directory)
        if corpus:
            want, got = _sample_shape(*corpus[0]), _sample_shape(*sample)
            for key, value in got.items():
                if value != want[key]:
                    raise ValueError(
                        f"sample {directory}: {key}={value}, "
                        f"but the first sample has {key}={want[key]}"
                    )
        corpus.append(sample)
    if not corpus:
        raise ValueError(f"manifest {manifest} lists no samples")
    return corpus


def _sample_shape(output: BackboneOutput, landmarks: np.ndarray) -> dict[str, int]:
    grid = output.main
    return {
        "landmarks": landmarks.shape[0],
        "grid_h": grid.grid_h,
        "grid_w": grid.grid_w,
        "patch": grid.patch,
        "d": grid.channels,
        "d_aux": output.aux.channels,
    }


def _meta_int(meta: dict[str, str], key: str, path: Path) -> int:
    if key not in meta:
        raise ValueError(f"{path}: missing {key}")
    try:
        return int(meta[key])
    except ValueError:
        raise ValueError(f"{path}: {key}={meta[key]!r} is not an integer") from None
