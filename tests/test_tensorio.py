import struct
import warnings

import numpy as np
import pytest

from selcorr.tensorio import (
    FeatureGrid,
    NonFiniteError,
    ScetError,
    bilinear_upsample,
    cell_centers,
    norm,
    read_manifest,
    read_meta,
    read_tensor,
    softmax,
    sq_dists,
    top_k,
    write_csv,
    write_key_values,
    write_manifest,
    write_tensor,
)


def test_roundtrip_f64(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 5, 2))
    path = tmp_path / "t.scet"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert back.tobytes() == arr.tobytes()


def test_roundtrip_f32(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal((7, 4)).astype(np.float32)
    path = tmp_path / "t.scet"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert back.tobytes() == arr.tobytes()


def test_header_bytes_hand_packed(tmp_path):
    """The on-disk layout is checked byte for byte against struct packing."""
    arr = np.array([[1.5, -2.0], [0.25, 8.0]], dtype=np.float32)
    path = tmp_path / "t.scet"
    write_tensor(path, arr)
    raw = path.read_bytes()
    expected = (
        struct.pack("<4sIHH", b"SCET", 1, 0, 2)
        + struct.pack("<2Q", 2, 2)
        + struct.pack("<4f", 1.5, -2.0, 0.25, 8.0)
    )
    assert raw == expected


def test_read_written_elsewhere(tmp_path):
    # a file assembled by hand, not by write_tensor
    payload = struct.pack("<3d", 1.0, 2.0, 3.0)
    blob = struct.pack("<4sIHH", b"SCET", 1, 1, 1) + struct.pack("<1Q", 3) + payload
    path = tmp_path / "hand.scet"
    path.write_bytes(blob)
    assert np.array_equal(read_tensor(path), np.array([1.0, 2.0, 3.0]))


def test_write_rejects_bad_inputs(tmp_path):
    path = tmp_path / "t.scet"
    with pytest.raises(ScetError):
        write_tensor(path, np.array(3.0))
    with pytest.raises(ScetError):
        write_tensor(path, np.zeros((2, 0)))
    with pytest.raises(ScetError):
        write_tensor(path, np.arange(4, dtype=np.int64))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b"XXXX" + b[4:],  # bad magic
        lambda b: b[:8],  # truncated header
        lambda b: b[:-3],  # truncated payload
        lambda b: b + b"\x00",  # trailing bytes
        lambda b: b[:4] + struct.pack("<I", 9) + b[8:],  # bad version
        lambda b: b[:8] + struct.pack("<H", 7) + b[10:],  # unknown dtype code
    ],
)
def test_read_rejects_corruption(tmp_path, mutate):
    path = tmp_path / "t.scet"
    write_tensor(path, np.arange(6, dtype=np.float64).reshape(2, 3))
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(ScetError):
        read_tensor(path)


def test_read_rejects_a_header_larger_than_the_file(tmp_path):
    # 2**31 x 2**31 float64 is 2**65 bytes, more than any read can ask for: the
    # size is checked against the file before anything is read
    path = tmp_path / "t.scet"
    path.write_bytes(struct.pack("<4sIHH", b"SCET", 1, 1, 2) + struct.pack("<2Q", 2**31, 2**31))
    with pytest.raises(ScetError, match="truncated payload"):
        read_tensor(path)


def test_read_result_is_writable(tmp_path):
    path = tmp_path / "t.scet"
    write_tensor(path, np.zeros((2, 2)))
    back = read_tensor(path)
    back[0, 0] = 1.0  # must not raise


def test_feature_grid_properties():
    grid = FeatureGrid(3, 4, 8, np.zeros((12, 5)))
    assert grid.n_tokens == 12
    assert grid.channels == 5
    assert (grid.image_h, grid.image_w) == (24, 32)
    with pytest.raises(ValueError):
        FeatureGrid(3, 4, 8, np.zeros((11, 5)))
    with pytest.raises(ValueError):
        FeatureGrid(0, 4, 8, np.zeros((0, 5)))


def test_upsample_constant_grid():
    grid = FeatureGrid(2, 2, 4, np.full((4, 3), 2.5))
    dense = bilinear_upsample(grid)
    assert dense.values.shape == (8, 8, 3)
    assert np.all(dense.values == 2.5)


def test_upsample_2x2_hand_oracle():
    """4 corner values upsampled to 4x4, against the interpolation formula.

    Pixel centers map to grid coordinates (i + 0.5)/scale - 0.5 clamped to
    the hull, here [0, 0.25, 0.75, 1] per axis; the expected value is the
    bilinear blend of the four corners at those coordinates.
    """
    corners = np.array([[1.0], [2.0], [3.0], [5.0]])  # rows (0,0),(0,1),(1,0),(1,1)
    grid = FeatureGrid(2, 2, 2, corners)
    dense = bilinear_upsample(grid)
    v = corners.reshape(2, 2)
    coords = [0.0, 0.25, 0.75, 1.0]
    for iy, wy in enumerate(coords):
        for ix, wx in enumerate(coords):
            expect = (
                v[0, 0] * (1 - wy) * (1 - wx)
                + v[0, 1] * (1 - wy) * wx
                + v[1, 0] * wy * (1 - wx)
                + v[1, 1] * wy * wx
            )
            assert dense.values[iy, ix, 0] == pytest.approx(expect, abs=1e-12)


def test_upsample_linear_field_is_exact_inside_hull():
    # bilinear interpolation reproduces any per-axis linear field exactly
    gh, gw, patch = 3, 4, 8
    rows, cols = np.divmod(np.arange(gh * gw), gw)
    feats = (2.0 * rows + 0.5 * cols)[:, None]
    dense = bilinear_upsample(FeatureGrid(gh, gw, patch, feats))
    ys = np.clip((np.arange(gh * patch) + 0.5) / patch - 0.5, 0, gh - 1)
    xs = np.clip((np.arange(gw * patch) + 0.5) / patch - 0.5, 0, gw - 1)
    expect = 2.0 * ys[:, None] + 0.5 * xs[None, :]
    assert np.abs(dense.values[:, :, 0] - expect).max() < 1e-12


def test_sample_is_rows_then_columns_two_tap():
    """Bit for bit against the separable formula written out: the two source
    rows blended first, then two columns of that blend."""
    rng = np.random.default_rng(13)
    gh, gw, patch, d = 3, 4, 5, 3
    grid = FeatureGrid(gh, gw, patch, rng.standard_normal((gh * gw, d)))
    v = grid.features.reshape(gh, gw, d)
    full = bilinear_upsample(grid).values
    for iy in range(gh * patch):
        y = min(max((iy + 0.5) / patch - 0.5, 0.0), gh - 1.0)
        y0 = min(int(np.floor(y)), gh - 2)
        wy = y - y0
        row = v[y0] * (1.0 - wy) + v[y0 + 1] * wy
        for ix in range(gw * patch):
            x = min(max((ix + 0.5) / patch - 0.5, 0.0), gw - 1.0)
            x0 = min(int(np.floor(x)), gw - 2)
            wx = x - x0
            expect = row[x0] * (1.0 - wx) + row[x0 + 1] * wx
            assert full[iy, ix].tobytes() == expect.tobytes()


def test_manifest_roundtrip(tmp_path):
    write_manifest(tmp_path / "manifest.txt", ["a", "b", "c"])
    dirs = read_manifest(tmp_path / "manifest.txt")
    assert dirs == [tmp_path / "a", tmp_path / "b", tmp_path / "c"]


def test_manifest_skips_blank_lines(tmp_path):
    (tmp_path / "m.txt").write_text("one\n\n  \ntwo\n")
    assert read_manifest(tmp_path / "m.txt") == [tmp_path / "one", tmp_path / "two"]


def test_cell_centers():
    # pixel (x, y) of each cell's centre in row-major token order; at patch 1
    # they are the (col, row) cell coordinates plus one half
    assert cell_centers(2, 3, 8).tolist() == [
        [4.0, 4.0], [12.0, 4.0], [20.0, 4.0], [4.0, 12.0], [12.0, 12.0], [20.0, 12.0]
    ]
    assert cell_centers(2, 3, 1).tolist() == [
        [0.5, 0.5], [1.5, 0.5], [2.5, 0.5], [0.5, 1.5], [1.5, 1.5], [2.5, 1.5]
    ]


def test_sq_dists_hand_values():
    a = np.array([[0.0, 0.0], [3.0, 4.0]])
    b = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
    assert sq_dists(a, b).tolist() == [[0.0, 2.0, 9.0], [25.0, 13.0, 16.0]]


def test_sq_dists_overflow_raises():
    with pytest.raises(NonFiniteError, match="squared distances overflow"):
        sq_dists(np.array([[1e160, 0.0]]), np.zeros((1, 2)))


def test_norm_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((50, 7)) * rng.uniform(1e-3, 1e3, size=(50, 1))
    for x, kwargs in ((rows[0], {}), (rows, {"axis": 1, "keepdims": True})):
        assert norm(x, **kwargs).tobytes() == np.linalg.norm(x, **kwargs).tobytes()
    assert norm(rows, axis=1, keepdims=True).shape == (50, 1)


@pytest.mark.parametrize(
    "x, kwargs", [([1.0, 1e160], {}), ([[0.0, 1.0], [1.0, 1e160]], {"axis": 1})]
)
def test_norm_overflow_raises_without_a_warning(x, kwargs):
    # every value is finite, but the sum of squares overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="feature norms overflow"):
            norm(np.array(x), **kwargs)


def test_softmax_last_axis_and_in_place():
    logits = np.array([[0.0, np.log(3.0)], [1000.0, 1000.0]])
    probs = softmax(logits)
    assert np.allclose(probs, [[0.25, 0.75], [0.5, 0.5]])
    assert logits.max(axis=1).tolist() == [0.0, 0.0]  # max-subtracted in place


def test_top_k_ascending_with_ties_to_the_lower_index():
    scores = np.array([0.1, 0.5, 0.3, 0.5, 0.3])
    assert top_k(scores, 1).tolist() == [1]
    assert top_k(scores, 3).tolist() == [1, 2, 3]
    assert top_k(scores, 0).tolist() == []
    assert top_k(scores, 9).tolist() == [0, 1, 2, 3, 4]


def test_key_values_roundtrip_and_strict_parse(tmp_path):
    path = tmp_path / "meta.txt"
    text = write_key_values(path, {"a": 1, "b": np.float64(0.1), "c": "x y"})
    assert text == path.read_text() == "a=1\nb=0.1\nc=x y\n"
    assert read_meta(path) == {"a": "1", "b": "0.1", "c": "x y"}
    path.write_text("a=1\n\n# note\nno equals sign\n")
    with pytest.raises(ValueError, match=f"{path}: line 4: expected key=value"):
        read_meta(path)


def test_csv_cells_are_str_of_python_scalars(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [("i", "v"), (np.int64(3), np.float64(9.5)), (4, float("nan"))])
    assert path.read_text() == "i,v\n3,9.5\n4,nan\n"
