"""The lowest layer: on-disk formats, feature-grid containers, and the
numeric primitives every other module shares.

Formats: `.scet` binary tensors (float64 in memory; float32 is allowed on
disk and round-trips bit-exactly), key=value text, CSV and manifests.
Primitives: squared distances and norms (both raise `NonFiniteError` on
overflow), the last-axis softmax, the stable top-k, and bilinear
upsampling of token grids. Imports nothing from the rest of the package.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MAGIC = b"SCET"
_VERSION = 1
# on-disk scalar types; all little-endian
_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

# fixed prefix: magic(4) + version u32 + dtype u16 + rank u16 = 12 bytes,
# followed by rank u64 dims, then raw scalars
_HEADER = struct.Struct("<4sIHH")


class ScetError(ValueError):
    """Malformed or inconsistent tensor file."""


class NonFiniteError(ValueError):
    """A non-finite feature, norm or squared distance; `projector.descend` calls it divergence."""


def write_tensor(path: str | Path, arr: np.ndarray) -> None:
    """Write a float32/float64 array of rank >= 1 to `path` in SCET layout."""
    arr = np.asarray(arr)
    if arr.dtype not in _DTYPE_TO_CODE:
        raise ScetError(f"unsupported dtype {arr.dtype}; expected float32 or float64")
    if arr.ndim < 1:
        raise ScetError("rank-0 tensors are not supported")
    if any(d < 1 for d in arr.shape):
        raise ScetError(f"all dims must be >= 1, got {arr.shape}")
    code = _DTYPE_TO_CODE[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(np.ascontiguousarray(arr).astype(_CODE_TO_DTYPE[code], copy=False).tobytes())


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a tensor written by `write_tensor`; dtype and bits are preserved."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ScetError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, code, rank = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ScetError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise ScetError(f"{path}: unsupported format version {version}")
        if code not in _CODE_TO_DTYPE:
            raise ScetError(f"{path}: unknown dtype code {code}")
        if rank < 1:
            raise ScetError(f"{path}: rank must be >= 1, got {rank}")
        dim_bytes = fh.read(8 * rank)
        if len(dim_bytes) < 8 * rank:
            raise ScetError(f"{path}: truncated dims")
        dims = struct.unpack(f"<{rank}Q", dim_bytes)
        if any(d < 1 for d in dims):
            raise ScetError(f"{path}: all dims must be >= 1, got {dims}")
        dtype = _CODE_TO_DTYPE[code]
        expected = math.prod(dims) * dtype.itemsize  # exact: no fixed-width overflow
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if available < expected:
            raise ScetError(
                f"{path}: truncated payload (expected {expected} bytes, got {available})"
            )
        if available > expected:
            raise ScetError(f"{path}: payload length mismatch (trailing bytes)")
        payload = fh.read(expected)
    arr = np.frombuffer(payload, dtype=dtype).reshape(dims)
    # native byte order, writable copy
    return arr.astype(dtype.newbyteorder("="), copy=True)


@dataclass
class FeatureGrid:
    """Per-patch token features on an H_p x W_p grid of `patch`-pixel cells.

    `features` is (H_p*W_p, d) float64, row-major over grid rows: token i
    sits at cell (i // W_p, i % W_p). Image size is grid size times patch.
    """

    grid_h: int
    grid_w: int
    patch: int
    features: np.ndarray

    def __post_init__(self) -> None:
        if self.grid_h < 1 or self.grid_w < 1 or self.patch < 1:
            raise ValueError("grid dims and patch size must be positive")
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self.grid_h * self.grid_w:
            raise ValueError(
                f"expected ({self.grid_h * self.grid_w}, d) features, got {self.features.shape}"
            )

    @property
    def n_tokens(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def image_h(self) -> int:
        return self.grid_h * self.patch

    @property
    def image_w(self) -> int:
        return self.grid_w * self.patch


@dataclass
class DenseFeatureMap:
    """Per-pixel features, `values` shaped (H, W, d) float64."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError(f"expected (H, W, d) values, got {self.values.shape}")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


def bilinear_upsample(grid: FeatureGrid, target_h: int, target_w: int) -> DenseFeatureMap:
    """Upsample a feature grid to per-pixel resolution (see `bilinear_sample`)."""
    return DenseFeatureMap(bilinear_sample(grid, target_h, target_w))


def bilinear_sample(
    grid: FeatureGrid,
    target_h: int,
    target_w: int,
    rows: np.ndarray | list[int] | None = None,
    cols: np.ndarray | list[int] | None = None,
) -> np.ndarray:
    """(len(rows), len(cols), d) block of the grid upsampled to target_h x target_w.

    `rows` and `cols` select pixel rows and columns (all when None). Each
    cell's value is anchored at its cell-center pixel; in between the
    interpolation is linear per axis, and pixels outside the convex hull of
    centers clamp to the nearest edge value.

    Separable: the two source rows are blended once on the small
    (rows, grid_w, d) array, then two columns of that at pixel resolution.
    Every element goes through the same operations, so any block is
    bit-identical to the same block of the full map.
    """
    if target_h < grid.grid_h or target_w < grid.grid_w:
        raise ValueError("target dims must be >= grid dims")
    vals = grid.features.reshape(grid.grid_h, grid.grid_w, grid.channels)
    y0, y1, wy = _axis_taps(target_h, grid.grid_h, rows)
    x0, x1, wx = _axis_taps(target_w, grid.grid_w, cols)
    wy = wy[:, None, None]
    wx = wx[None, :, None]
    blended = vals[y0] * (1.0 - wy) + vals[y1] * wy
    # one output and one scratch buffer at full size; take() keeps them
    # C-contiguous, as blended[:, x0] would not be
    out = np.take(blended, x0, axis=1)
    out *= 1.0 - wx
    tap = np.take(blended, x1, axis=1)
    tap *= wx
    out += tap
    return out


def _axis_taps(target: int, cells: int, pixels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # lower cell, upper cell and upper weight of each selected pixel
    coords = _grid_coords(target, cells)
    if pixels is not None:
        coords = coords[np.asarray(pixels, dtype=np.intp)]
    lo = np.clip(np.floor(coords).astype(np.intp), 0, max(cells - 2, 0))
    hi = np.minimum(lo + 1, cells - 1)
    return lo, hi, coords - lo


def _grid_coords(target: int, cells: int) -> np.ndarray:
    # pixel centers mapped into grid-cell coordinates, clamped to the hull
    scale = target / cells
    coords = (np.arange(target) + 0.5) / scale - 0.5
    return np.clip(coords, 0.0, cells - 1.0)


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, n) squared Euclidean distances between the rows of (m, d) `a` and (n, d) `b`.

    A distance that overflows (finite but huge inputs) raises NonFiniteError.
    """
    with np.errstate(over="ignore"):
        diff = a[:, None, :] - b[None, :, :]
        out = np.einsum("ijk,ijk->ij", diff, diff)
    if not np.isfinite(out).all():
        raise NonFiniteError("squared distances overflow")
    return out


def norm(x: np.ndarray, axis: int | None = None, keepdims: bool = False) -> np.ndarray:
    """`np.linalg.norm` with the same arguments, bit for bit; an overflowing norm
    raises NonFiniteError, as inf would scale a row or a cosine to zero silently."""
    with np.errstate(over="ignore"):
        out = np.linalg.norm(x, axis=axis, keepdims=keepdims)
    if not np.isfinite(out).all():
        raise NonFiniteError("feature norms overflow")
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted; `logits` is overwritten."""
    logits -= logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Ascending indices of the k highest scores; ties go to the lower index."""
    return np.sort(np.argsort(-scores, kind="stable")[:k])


def read_manifest(path: str | Path) -> list[Path]:
    """List of sample directories, one per non-empty line, relative to the manifest."""
    path = Path(path)
    base = path.parent
    dirs = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            dirs.append(base / line)
    return dirs


def write_manifest(path: str | Path, names: list[str]) -> None:
    write_csv(path, [(name,) for name in names])


def parse_key_values(text: str, origin: str) -> dict[str, str]:
    """key=value per line, both stripped; blank lines and #-comments are skipped.

    A line without `=` or with an empty key raises ValueError naming
    `origin` and the line number.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"{origin}: line {lineno}: expected key=value, got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def read_meta(path: str | Path) -> dict[str, str]:
    """A `meta.txt` (or any key=value file) as a dict; see `parse_key_values`."""
    return parse_key_values(Path(path).read_text(), str(path))


def write_key_values(path: str | Path, items: Mapping[str, object]) -> str:
    """One `key=value` line per item, in order, values formatted as `write_csv`
    cells; returns the text written."""
    text = "".join(f"{key}={_cell(value)}\n" for key, value in items.items())
    Path(path).write_text(text)
    return text


def write_csv(path: str | Path, rows: Iterable[Sequence[object]]) -> None:
    """Comma-joined rows, one line each; the header, if any, is the first row.

    Each cell is `str()` of a Python scalar (numpy scalars are converted
    first, so a float is written as its shortest round-trip repr).
    """
    Path(path).write_text("".join(",".join(map(_cell, row)) + "\n" for row in rows))


def _cell(value: object) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    return str(value)
