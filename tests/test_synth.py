import hashlib
import math

import numpy as np
import pytest

from selcorr.synth import (
    DEFAULT_LANDMARKS,
    SyntheticFaceSpec,
    TpsParams,
    draw_warp,
    generate_backbone_output,
    landmark_cells,
    make_pair,
    pair_seeds,
    read_corpus,
    read_sample,
    sample_spec,
    tps_warp,
    warped_spec,
    write_sample,
)
from selcorr.tensorio import read_tensor, write_tensor

# any change to the generator statistics shows up here first
BATCH_SHA256 = "4cd959dcf013e1f99c06385a2a09f144d02bd2f78c87d62ad806eb805a173a6b"


def test_generation_is_deterministic():
    spec = SyntheticFaceSpec()
    a = generate_backbone_output(spec, seed=5)
    b = generate_backbone_output(spec, seed=5)
    assert np.array_equal(a.main.features, b.main.features)
    assert np.array_equal(a.aux.features, b.aux.features)
    assert np.array_equal(a.keys, b.keys)
    c = generate_backbone_output(spec, seed=6)
    assert not np.array_equal(a.main.features, c.main.features)


def test_default_batch_hash_pinned():
    h = hashlib.sha256()
    for i in range(4):
        h.update(generate_backbone_output(SyntheticFaceSpec(), seed=i).main.features.tobytes())
    assert h.hexdigest() == BATCH_SHA256


def test_noise_free_token_count():
    # with both noise scales at zero every token is exactly its prototype:
    # one value per region plus one per landmark
    spec = SyntheticFaceSpec(sigma_lm=0.0, sigma_bg=0.0)
    out = generate_backbone_output(spec, seed=0)
    distinct = np.unique(out.main.features, axis=0).shape[0]
    assert distinct == spec.n_regions + spec.n_landmarks


def test_landmark_cells_hand_check():
    cells = landmark_cells(SyntheticFaceSpec())
    # (30, 36) -> col 3, row 4 on the 12-wide grid, and so on
    assert cells.tolist() == [4 * 12 + 3, 4 * 12 + 8, 7 * 12 + 6, 9 * 12 + 4, 9 * 12 + 7]


def test_key_logit_advantage_is_beta():
    # zero noise isolates the planted key component: landmark rows score
    # exactly beta against the query before the 1/sqrt(d) scaling
    spec = SyntheticFaceSpec(sigma_lm=0.0, sigma_bg=0.0, beta=6.0)
    out = generate_backbone_output(spec, seed=0)
    logits = out.keys @ out.q_cls
    cells = landmark_cells(spec)
    assert logits[cells] == pytest.approx([6.0] * 5, abs=1e-12)
    others = np.setdiff1d(np.arange(out.main.n_tokens), cells)
    assert np.abs(logits[others]).max() == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticFaceSpec(landmarks_px=((5.0, 5.0),), landmark_groups=(0,))
    with pytest.raises(ValueError):
        SyntheticFaceSpec(landmark_groups=(0, 0, 1, 2))  # length mismatch
    with pytest.raises(ValueError):
        SyntheticFaceSpec(landmark_groups=(0, 0, 1, 3, 3))  # gap in group ids
    with pytest.raises(ValueError):
        SyntheticFaceSpec(image_size=97)
    with pytest.raises(ValueError):
        SyntheticFaceSpec(proto_corr=1.0)
    with pytest.raises(ValueError):
        SyntheticFaceSpec(sigma_bg=-0.1)
    with pytest.raises(ValueError):
        SyntheticFaceSpec(landmarks_px=((30.0, 36.0), (200.0, 36.0), (48.0, 56.0),
                                        (34.0, 72.0), (62.0, 72.0)))


def test_tps_zero_displacements_is_identity():
    params = TpsParams(grid_shape=(3, 3), displacements=np.zeros((9, 2)), reg=0.0, image_size=96)
    pts = np.array([[10.0, 20.0], [50.0, 50.0], [95.0, 0.0]])
    assert np.abs(tps_warp(pts, params) - pts).max() <= 1e-9


def test_tps_interpolates_control_displacements():
    # interior control points reproduce their displacement exactly (small
    # displacements keep every output away from the boundary clamp)
    rng = np.random.default_rng(3)
    params = draw_warp(96, rng, sigma_frac=0.01, reg=0.0)
    ctrl = params.control_points()
    interior = (ctrl[:, 0] > 5) & (ctrl[:, 0] < 90) & (ctrl[:, 1] > 5) & (ctrl[:, 1] < 90)
    out = tps_warp(ctrl[interior], params)
    assert np.abs(out - ctrl[interior] - params.displacements[interior]).max() <= 1e-9


def test_tps_matches_scipy_rbf():
    scipy_interp = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(5)
    params = draw_warp(96, rng, grid_shape=(3, 3), sigma_frac=0.08, reg=0.0)
    pts = rng.uniform(5.0, 90.0, size=(40, 2))
    ours = tps_warp(pts, params) - pts
    ref = scipy_interp.RBFInterpolator(
        params.control_points(), params.displacements, kernel="thin_plate_spline", degree=1
    )(pts)
    # only compare where the clamp stayed inactive
    inside = ((pts + ref) > 0.0).all(axis=1) & ((pts + ref) < 95.0).all(axis=1)
    assert inside.sum() > 20
    assert np.abs(ours[inside] - ref[inside]).max() <= 1e-9


def test_tps_clamps_to_bounds():
    disp = np.zeros((9, 2))
    disp[:, 0] = 500.0
    params = TpsParams(grid_shape=(3, 3), displacements=disp, reg=0.0, image_size=96)
    out = tps_warp(np.array([[48.0, 48.0]]), params)
    assert out[0, 0] == 95.0


def test_tps_rejects_bad_inputs():
    params = TpsParams(grid_shape=(3, 3), displacements=np.zeros((9, 2)), reg=0.0, image_size=96)
    with pytest.raises(ValueError):
        tps_warp(np.array([[100.0, 0.0]]), params)
    with pytest.raises(ValueError):
        TpsParams(grid_shape=(3, 3), displacements=np.zeros((8, 2)), reg=0.0, image_size=96)
    with pytest.raises(ValueError):
        tps_warp(np.array([[0.0, 0.0]]), TpsParams(
            grid_shape=(1, 3), displacements=np.zeros((3, 2)), reg=0.0, image_size=96))


def test_warped_spec_moves_geometry_only():
    base = SyntheticFaceSpec()
    rng = np.random.default_rng(6)
    spec = warped_spec(base, draw_warp(96, rng))
    assert spec.landmarks_px != base.landmarks_px
    assert spec.identity_seed == base.identity_seed
    assert spec.sigma_lm == base.sigma_lm


def test_sample_spec_varies_identity_and_geometry():
    base = SyntheticFaceSpec()
    s0 = sample_spec(base, 0, 0)
    s0_again = sample_spec(base, 0, 0)
    s1 = sample_spec(base, 0, 1)
    assert s0 == s0_again
    assert s0.identity_seed != s1.identity_seed
    assert s0.landmarks_px != s1.landmarks_px


def test_make_pair_same_vs_different():
    base = SyntheticFaceSpec()
    same = make_pair(base, "same", 4)
    diff = make_pair(base, "different", 4)
    assert same.same_identity and not diff.same_identity
    assert same.test.spec.identity_seed == base.identity_seed
    assert diff.test.spec.identity_seed != base.identity_seed
    # both kinds share the warp drawn from the pair seed
    assert np.array_equal(same.test_landmarks, diff.test_landmarks)
    assert not np.array_equal(same.test_landmarks, same.ref_landmarks)
    assert np.array_equal(same.ref_landmarks, np.asarray(DEFAULT_LANDMARKS))
    with pytest.raises(ValueError):
        make_pair(base, "mirror", 4)


def test_pair_seeds_stable_and_distinct():
    seeds = pair_seeds(0, 100)
    assert seeds == pair_seeds(0, 100)
    assert len(set(seeds)) == 100
    assert seeds[:10] == pair_seeds(0, 10)


def test_sample_roundtrip(tmp_path):
    spec = sample_spec(SyntheticFaceSpec(), 0, 3)
    out = generate_backbone_output(spec, seed=3)
    lm = np.asarray(spec.landmarks_px)
    write_sample(tmp_path / "s", out, lm)
    back, lm_back = read_sample(tmp_path / "s")
    assert np.array_equal(back.main.features, out.main.features)
    assert np.array_equal(back.aux.features, out.aux.features)
    assert np.array_equal(back.q_cls, out.q_cls)
    assert np.array_equal(back.keys, out.keys)
    assert np.array_equal(lm_back, lm)
    assert (back.main.grid_h, back.main.grid_w, back.main.patch) == (12, 12, 8)
    assert back.spec is None


def _written_sample(directory, spec=None):
    spec = spec or sample_spec(SyntheticFaceSpec(), 0, 3)
    write_sample(directory, generate_backbone_output(spec, seed=3), np.asarray(spec.landmarks_px))
    return directory


GOOD_ROW_1 = "1,67.5,34.8"


@pytest.mark.parametrize(
    "table",
    [
        "",  # no header
        "index,x,y\n0,30.0,34.0\n",  # wrong header
        "landmark_index,x_px,y_px\n",  # no rows
        "landmark_index,x_px,y_px\n0,30.0\n",  # two cells
        "landmark_index,x_px,y_px\n0,30.0,34.0,1\n",  # four cells
        "landmark_index,x_px,y_px\n1,30.0,34.0\n0,67.5,34.8\n",  # index is not the row
        "landmark_index,x_px,y_px\n0,30.0,34.0\n2,67.5,34.8\n",  # index skips a row
        "landmark_index,x_px,y_px\n0,thirty,34.0\n",  # not a number
        "landmark_index,x_px,y_px\n0,nan,34.0\n",  # not finite
        "landmark_index,x_px,y_px\n0,30.0,inf\n",  # not finite
        "landmark_index,x_px,y_px\n0,1e9,34.0\n",  # right of the image
        "landmark_index,x_px,y_px\n0,30.0,-0.5\n",  # above the image
        "landmark_index,x_px,y_px\n0,96.0,34.0\n",  # one past the last pixel
    ],
)
def test_read_sample_rejects_bad_landmarks(tmp_path, table):
    directory = _written_sample(tmp_path / "s")
    (directory / "landmarks.csv").write_text(table)
    with pytest.raises(ValueError, match="landmarks.csv"):
        read_sample(directory)


def test_read_sample_accepts_the_image_corners(tmp_path):
    directory = _written_sample(tmp_path / "s")
    (directory / "landmarks.csv").write_text("landmark_index,x_px,y_px\n0,0.0,0.0\n1,95.0,95.0\n")
    assert read_sample(directory)[1].tolist() == [[0.0, 0.0], [95.0, 95.0]]


@pytest.mark.parametrize("name", ["main", "aux", "qcls", "keys"])
@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_read_sample_rejects_non_finite_tensor_values(tmp_path, name, value):
    directory = _written_sample(tmp_path / "s")
    path = directory / f"{name}.scet"
    tensor = read_tensor(path)
    tensor.flat[-1] = value
    write_tensor(path, tensor)
    with pytest.raises(ValueError, match=f"{name}.scet: non-finite values"):
        read_sample(directory)


def test_read_sample_names_the_sample_on_a_token_count_mismatch(tmp_path):
    directory = _written_sample(tmp_path / "s")
    (directory / "meta.txt").write_text("grid_h=11\ngrid_w=12\npatch=8\n")
    with pytest.raises(ValueError, match=str(directory)):
        read_sample(directory)


def test_read_corpus_checks_consistency(tmp_path):
    spec = SyntheticFaceSpec()
    _written_sample(tmp_path / "a", spec)
    _written_sample(tmp_path / "b", spec)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a\nb\n")
    assert len(read_corpus(manifest)) == 2
    # four landmarks, against the first sample's five
    four = SyntheticFaceSpec(landmarks_px=spec.landmarks_px[:4], landmark_groups=(0, 0, 1, 2))
    _written_sample(tmp_path / "b", four)
    with pytest.raises(ValueError, match=f"sample {tmp_path / 'b'}: landmarks=4"):
        read_corpus(manifest)
    # the same five landmarks on 64-pixel images: an 8x8 grid against 12x12
    small = SyntheticFaceSpec(
        landmarks_px=tuple((x * 2 / 3, y * 2 / 3) for x, y in spec.landmarks_px),
        region_anchors_px=tuple((x * 2 / 3, y * 2 / 3) for x, y in spec.region_anchors_px),
        image_size=64,
    )
    _written_sample(tmp_path / "b", small)
    with pytest.raises(ValueError, match=f"sample {tmp_path / 'b'}: grid_h=8, .* grid_h=12"):
        read_corpus(manifest)
    manifest.write_text("\n")
    with pytest.raises(ValueError, match=f"manifest {manifest} lists no samples"):
        read_corpus(manifest)


def test_backbone_output_shape_check():
    spec = SyntheticFaceSpec()
    out = generate_backbone_output(spec, seed=0)
    from selcorr.synth import BackboneOutput

    with pytest.raises(ValueError):
        BackboneOutput(main=out.main, aux=out.aux, q_cls=out.q_cls, keys=out.keys[:-1])
