import hashlib
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from selcorr import synth
from selcorr.config import load_config
from selcorr.synth import (
    DEFAULT_LANDMARKS,
    SyntheticFaceSpec,
    control_points,
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
    # with the noise scale at zero every token is exactly its prototype:
    # one value per region plus one per landmark
    spec = SyntheticFaceSpec(sigma=0.0)
    out = generate_backbone_output(spec, seed=0)
    distinct = np.unique(out.main.features, axis=0).shape[0]
    assert distinct == spec.n_regions + spec.n_landmarks


def test_landmark_cells_hand_check():
    cells = landmark_cells(SyntheticFaceSpec())
    # (30, 36) -> col 3, row 4 on the 12-wide grid, and so on
    assert cells.tolist() == [4 * 12 + 3, 4 * 12 + 8, 7 * 12 + 6, 9 * 12 + 4, 9 * 12 + 7]


def test_key_logit_advantage_is_beta():
    # zero noise isolates the planted key component: landmark rows score
    # exactly BETA against the query before the 1/sqrt(d) scaling
    spec = SyntheticFaceSpec(sigma=0.0)
    out = generate_backbone_output(spec, seed=0)
    logits = out.keys @ out.q_cls
    cells = landmark_cells(spec)
    assert logits[cells] == pytest.approx([synth.BETA] * 5, abs=1e-12)
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
    # neither a division by zero nor a negative grid
    for patch in (0, -8):
        with pytest.raises(ValueError, match="patch must be >= 1"):
            SyntheticFaceSpec(patch=patch)
    with pytest.raises(ValueError):
        SyntheticFaceSpec(sigma=-0.1)
    # a channel per landmark and anchor (5 + 3) for the positional signatures,
    # and one per appearance mean (3 groups + 3 regions)
    with pytest.raises(ValueError, match=r"^d = 13 is below 14: 8 positional channels plus "
                                         r"6 appearance means \(groups and regions\)$"):
        SyntheticFaceSpec(d=13)
    SyntheticFaceSpec(d=14)
    with pytest.raises(ValueError):
        SyntheticFaceSpec(landmarks_px=((30.0, 36.0), (200.0, 36.0), (48.0, 56.0),
                                        (34.0, 72.0), (62.0, 72.0)))


@pytest.mark.parametrize("world", ["default", "tiny"])
def test_appearance_means_have_full_rank_at_the_smallest_d(world):
    """At the smallest d the spec accepts, the group and region appearance
    means are independent and orthogonal to the positional signatures, not
    set by rounding."""
    if world == "default":
        spec = SyntheticFaceSpec()
    else:
        spec = load_config(Path(__file__).resolve().parent / "configs" / "tiny.txt").face_spec()
    d = spec.n_landmarks + 2 * spec.n_regions + spec.n_groups
    with pytest.raises(ValueError, match=f"^d = {d - 1} is below {d}: "):
        replace(spec, d=d - 1)
    proto = synth._prototypes(replace(spec, d=d))
    means = np.vstack([np.unique(proto["lm_mean"], axis=0), proto["region_mean"]])
    assert np.linalg.matrix_rank(means) == spec.n_groups + spec.n_regions
    assert np.abs(means @ proto["pos_embed"]).max() < 1e-12


def test_tps_zero_displacements_is_identity():
    pts = np.array([[10.0, 20.0], [50.0, 50.0], [95.0, 0.0]])
    assert np.abs(tps_warp(pts, np.zeros((9, 2)), 96) - pts).max() <= 1e-9


def test_tps_interpolates_control_displacements():
    # interior control points reproduce their displacement exactly (small
    # displacements keep every output away from the boundary clamp)
    rng = np.random.default_rng(3)
    disp = draw_warp(96, rng, sigma_frac=0.01)
    ctrl = control_points(96)
    interior = (ctrl[:, 0] > 5) & (ctrl[:, 0] < 90) & (ctrl[:, 1] > 5) & (ctrl[:, 1] < 90)
    out = tps_warp(ctrl[interior], disp, 96)
    assert np.abs(out - ctrl[interior] - disp[interior]).max() <= 1e-9


def test_tps_matches_scipy_rbf():
    scipy_interp = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(5)
    disp = draw_warp(96, rng, sigma_frac=0.08)
    pts = rng.uniform(5.0, 90.0, size=(40, 2))
    ours = tps_warp(pts, disp, 96) - pts
    ref = scipy_interp.RBFInterpolator(
        control_points(96), disp, kernel="thin_plate_spline", degree=1
    )(pts)
    # only compare where the clamp stayed inactive
    inside = ((pts + ref) > 0.0).all(axis=1) & ((pts + ref) < 95.0).all(axis=1)
    assert inside.sum() > 20
    assert np.abs(ours[inside] - ref[inside]).max() <= 1e-9


def test_tps_clamps_to_bounds():
    disp = np.zeros((9, 2))
    disp[:, 0] = 500.0
    out = tps_warp(np.array([[48.0, 48.0]]), disp, 96)
    assert out[0, 0] == 95.0


def test_tps_rejects_bad_inputs():
    origin = np.array([[0.0, 0.0]])
    with pytest.raises(ValueError, match="outside image bounds"):
        tps_warp(np.array([[100.0, 0.0]]), np.zeros((9, 2)), 96)
    nonfinite = np.zeros((9, 2))
    nonfinite[4, 1] = np.inf
    cases = [
        ((origin, np.zeros((8, 2)), 96), r"expected \(9, 2\) control displacements"),
        ((origin, nonfinite, 96), "non-finite control displacements"),
        # a 1-pixel image collapses the grid onto one point: a singular system
        ((origin, np.zeros((9, 2)), 1), "degenerate control grid"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message) as info:
            tps_warp(*args)
        # LinAlgError subclasses ValueError, so check the type itself
        assert type(info.value) is ValueError


def test_warped_spec_moves_geometry_only():
    base = SyntheticFaceSpec()
    rng = np.random.default_rng(6)
    spec = warped_spec(base, draw_warp(96, rng, sigma_frac=0.05))
    assert spec.landmarks_px != base.landmarks_px
    assert spec.identity_seed == base.identity_seed
    assert spec.sigma == base.sigma


def test_warped_spec_solves_once_and_equals_two_warps(monkeypatch):
    base = SyntheticFaceSpec()
    rng = np.random.default_rng(7)
    solve = np.linalg.solve
    calls = []
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
    for sigma_frac in (0.02, 0.05, 0.2):
        for _ in range(20):
            warp = draw_warp(96, rng, sigma_frac=sigma_frac)
            calls.clear()
            spec = warped_spec(base, warp)
            assert len(calls) == 1
            lm = tps_warp(np.asarray(base.landmarks_px), warp, 96)
            anchors = tps_warp(np.asarray(base.region_anchors_px), warp, 96)
            assert np.asarray(spec.landmarks_px).tobytes() == lm.tobytes()
            assert np.asarray(spec.region_anchors_px).tobytes() == anchors.tobytes()


def test_make_pair_draws_the_prototypes_once(monkeypatch):
    base = SyntheticFaceSpec()
    qr = np.linalg.qr
    calls = []
    monkeypatch.setattr(np.linalg, "qr", lambda *a: calls.append(1) or qr(*a))
    synth._prototype_draw.cache_clear()
    for seed in range(6):
        make_pair(base, ("same", "different")[seed % 2], seed)
    assert len(calls) == 1


def test_shared_prototypes_are_read_only_and_never_aliased():
    spec = SyntheticFaceSpec()
    proto = synth._prototypes(spec)
    for arr in proto.values():
        with pytest.raises(ValueError):
            arr[...] = 0.0
    first = generate_backbone_output(spec, seed=3)
    expect = [a.copy() for a in (first.main.features, first.aux.features, first.q_cls, first.keys)]
    for arr in (first.main.features, first.aux.features, first.q_cls, first.keys):
        assert not any(np.shares_memory(arr, shared) for shared in proto.values())
        arr[...] = 0.0
    again = generate_backbone_output(spec, seed=3)
    got = (again.main.features, again.aux.features, again.q_cls, again.keys)
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expect))


def test_sample_spec_varies_identity_and_geometry():
    base = SyntheticFaceSpec()
    s0 = sample_spec(base, 0, 0)
    s0_again = sample_spec(base, 0, 0)
    s1 = sample_spec(base, 0, 1)
    assert s0 == s0_again
    assert s0.identity_seed != s1.identity_seed
    assert s0.landmarks_px != s1.landmarks_px


def test_make_pair_same_vs_different():
    # without noise a landmark's row is its identity's prototype plus offset,
    # so it is bit-equal across a pair exactly when the pair keeps the identity
    base = replace(SyntheticFaceSpec(), sigma=0.0)
    same = make_pair(base, "same", 4)
    diff = make_pair(base, "different", 4)

    def landmark_rows(output, landmarks):
        cells = landmark_cells(replace(base, landmarks_px=tuple(map(tuple, landmarks))))
        assert len(set(cells.tolist())) == len(cells)
        return output.main.features[cells]

    for pair, kept in ((same, True), (diff, False)):
        ref = landmark_rows(pair.ref, pair.ref_landmarks)
        test = landmark_rows(pair.test, pair.test_landmarks)
        assert (ref == test).all(axis=1).tolist() == [kept] * len(ref)
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
    # the grid geometry is the corpus's world, recorded in its config.txt
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
        "aux.scet", "keys.scet", "landmarks.scet", "main.scet", "qcls.scet"
    ]
    back, lm_back = read_sample(tmp_path / "s", WORLD)
    assert np.array_equal(back.main.features, out.main.features)
    assert np.array_equal(back.aux.features, out.aux.features)
    assert np.array_equal(back.q_cls, out.q_cls)
    assert np.array_equal(back.keys, out.keys)
    assert np.array_equal(lm_back, lm)
    assert (back.main.grid_h, back.main.grid_w, back.main.patch) == (12, 12, 8)


# the world the samples below are drawn from and read back on
WORLD = SyntheticFaceSpec()


def _written_sample(directory, spec=None):
    spec = spec or sample_spec(WORLD, 0, 3)
    write_sample(directory, generate_backbone_output(spec, seed=3), np.asarray(spec.landmarks_px))
    return directory


def _set_landmarks(directory, edit):
    path = directory / "landmarks.scet"
    write_tensor(path, edit(read_tensor(path)))


def _set_value(value):
    def edit(lm):
        lm[1, 0] = value
        return lm

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda lm: lm[None], id="rank-3"),
        pytest.param(lambda lm: np.hstack([lm, lm[:, :1]]), id="3-columns"),
        pytest.param(lambda lm: lm[:4], id="4-rows"),
        pytest.param(_set_value(np.nan), id="nan"),
        pytest.param(_set_value(np.inf), id="inf"),
        pytest.param(_set_value(-0.5), id="left-of-the-image"),
        pytest.param(_set_value(1e9), id="right-of-the-image"),
        pytest.param(_set_value(96.0), id="one-past-the-last-pixel"),
    ],
)
def test_read_sample_rejects_bad_landmarks(tmp_path, edit):
    directory = _written_sample(tmp_path / "s")
    _set_landmarks(directory, edit)
    with pytest.raises(ValueError, match=str(directory / "landmarks.scet")):
        read_sample(directory, WORLD)


def test_read_sample_accepts_the_image_corners(tmp_path):
    directory = _written_sample(tmp_path / "s")

    def corners(lm):
        lm[:2] = [[0.0, 0.0], [95.0, 95.0]]
        return lm

    _set_landmarks(directory, corners)
    landmarks = read_sample(directory, WORLD)[1]
    assert landmarks.dtype == np.float64
    assert landmarks.tolist()[:2] == [[0.0, 0.0], [95.0, 95.0]]


@pytest.mark.parametrize("name", ["main", "aux", "qcls", "keys"])
@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_read_sample_rejects_non_finite_tensor_values(tmp_path, name, value):
    directory = _written_sample(tmp_path / "s")
    path = directory / f"{name}.scet"
    tensor = read_tensor(path)
    tensor.flat[-1] = value
    write_tensor(path, tensor)
    with pytest.raises(ValueError, match=f"{name}.scet: non-finite values"):
        read_sample(directory, WORLD)


# the default layout on 64-pixel images: an 8x8 token grid against WORLD's 12x12
SMALL = SyntheticFaceSpec(
    landmarks_px=tuple((x * 2 / 3, y * 2 / 3) for x, y in WORLD.landmarks_px),
    region_anchors_px=tuple((x * 2 / 3, y * 2 / 3) for x, y in WORLD.region_anchors_px),
    image_size=64,
)


def test_read_sample_names_the_sample_on_a_token_count_mismatch(tmp_path):
    directory = _written_sample(tmp_path / "s")
    with pytest.raises(ValueError, match=f"sample {directory}: expected \\(64, d\\) features"):
        read_sample(directory, SMALL)


def test_read_corpus_checks_consistency(tmp_path):
    # each sample is checked against the world the reader is given
    _written_sample(tmp_path / "a")
    _written_sample(tmp_path / "b")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a\nb\n")
    assert len(list(read_corpus(manifest, WORLD))) == 2
    sample = tmp_path / "b"
    for spec, message in (
        # four landmarks, against the world's five
        (replace(WORLD, landmarks_px=WORLD.landmarks_px[:4], landmark_groups=(0, 0, 1, 2)),
         f"{sample / 'landmarks.scet'}: expected (5, 2) pixels, got (4, 2)"),
        (SMALL, f"sample {sample}: expected (144, d) features, got (64, 32)"),
        (replace(WORLD, d=20), f"sample {sample}: d=20, but the world has d=32"),
        (replace(WORLD, d_aux=8), f"sample {sample}: d_aux=8, but the world has d_aux=16"),
    ):
        _written_sample(sample, spec)
        with pytest.raises(ValueError, match=re.escape(message)):
            list(read_corpus(manifest, WORLD))
    manifest.write_text("\n")
    with pytest.raises(ValueError, match=f"manifest {manifest} lists no samples"):
        list(read_corpus(manifest, WORLD))


def test_read_corpus_reads_one_sample_at_a_time(tmp_path, monkeypatch):
    for name in "abc":
        _written_sample(tmp_path / name)
    (tmp_path / "c" / "landmarks.scet").write_bytes(b"")  # no header
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("a\nb\nc\n")
    read = []

    def counted(directory, spec):
        read.append(directory)
        return read_sample(directory, spec)

    monkeypatch.setattr(synth, "read_sample", counted)
    samples = read_corpus(manifest, WORLD)
    assert read == []
    next(samples)
    assert read == [tmp_path / "a"]
    next(samples)
    assert len(read) == 2
    with pytest.raises(ValueError, match=str(tmp_path / "c")):
        next(samples)


def test_backbone_output_shape_check():
    spec = SyntheticFaceSpec()
    out = generate_backbone_output(spec, seed=0)
    from selcorr.synth import BackboneOutput

    with pytest.raises(ValueError):
        BackboneOutput(main=out.main, aux=out.aux, q_cls=out.q_cls, keys=out.keys[:-1])
