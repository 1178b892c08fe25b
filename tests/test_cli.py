"""End-to-end command tests, all in-process through cli.main()."""

import gc
import hashlib
import shutil
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from selcorr import cli
from selcorr.cli import DROP_SWEEP, _match_sweep, main
from selcorr.config import ExperimentConfig, load_config
from selcorr.evaluation import kind_means, train_regressor
from selcorr.partition import cls_similarity, split_tokens
from selcorr.projector import Projector, init_projector, projector_checksum, train_projector
from selcorr.synth import BackboneOutput, make_pair, read_sample
from selcorr.tensorio import (
    FeatureGrid,
    read_manifest,
    read_meta,
    read_tensor,
    write_csv,
    write_tensor,
)

# small geometry so every command finishes in well under a second
TINY_CONFIG = Path(__file__).resolve().parent / "configs" / "tiny.txt"
TINY = ["--config", str(TINY_CONFIG)]


def _gen(out: Path, count: int = 6) -> None:
    assert main(["gen", "--count", str(count), "--out", str(out), *TINY]) == 0


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_gen_writes_corpus(tmp_path):
    out = tmp_path / "corpus"
    _gen(out, count=4)
    names = read_manifest(out / "manifest.txt")
    assert [n.name for n in names] == [f"sample_{i:04d}" for i in range(4)]
    output, landmarks = read_sample(out / "sample_0000")
    assert output.main.features.shape == (16, 8)  # 32/8 grid, d channels
    assert landmarks.shape == (5, 2)
    cfg = load_config(out / "config.txt")
    assert cfg.crop == 32 and cfg.d == 8 and cfg.pairs == 2


def test_pipeline_and_rerun_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    _gen(corpus)
    run = tmp_path / "run"
    rc = main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
               "--out", str(run), *TINY])
    assert rc == 0
    ckpt = run / "checkpoint"
    assert (ckpt / "weight.scet").is_file() and (ckpt / "bias.scet").is_file()
    trace = (run / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,loss" and len(trace) == 1 + 4

    match_out = tmp_path / "match"
    rc = main(["eval-match", "--checkpoint", str(ckpt), "--out", str(match_out), *TINY])
    assert rc == 0
    match_lines = (match_out / "match.csv").read_text().splitlines()
    assert match_lines[0] == "pair_id,landmark_id,kind,err_px"
    assert len(match_lines) == 1 + 2 * 2 * 5  # both kinds, 5 landmarks each
    summary = (match_out / "summary.txt").read_text()
    assert "same_mean_px=" in summary and "diff_mean_px=" in summary

    det_out = tmp_path / "detect"
    rc = main(["eval-detect", "--manifest", str(corpus / "manifest.txt"),
               "--checkpoint", str(ckpt), "--budget", "2", "--out", str(det_out), *TINY])
    assert rc == 0
    det_lines = (det_out / "detect.csv").read_text().splitlines()
    assert det_lines[0] == "sample_id,landmark_id,err_iod_pct"
    assert len(det_lines) == 1 + 2 * 5  # holdout samples x landmarks
    assert "mean_iod_pct=" in (det_out / "summary.txt").read_text()

    pgm = tmp_path / "sim.pgm"
    rc = main(["export-simmap", "--checkpoint", str(ckpt), "--landmark", "1",
               "--out", str(pgm), *TINY])
    assert rc == 0
    assert pgm.read_bytes().startswith(b"P5\n32 32\n255\n")

    # identical invocations must reproduce every artifact byte for byte
    corpus2, run2 = tmp_path / "corpus2", tmp_path / "run2"
    _gen(corpus2)
    assert main(["train-projector", "--manifest", str(corpus2 / "manifest.txt"),
                 "--out", str(run2), *TINY]) == 0
    assert _tree_digest(corpus) == _tree_digest(corpus2)
    assert _tree_digest(run) == _tree_digest(run2)


def test_eval_match_runs_raw_without_checkpoint(tmp_path):
    out = tmp_path / "match"
    rc = main(["eval-match", "--out", str(out), *TINY])
    assert rc == 0
    assert (out / "match.csv").is_file()
    # the protocol generates its own pairs, so eval-match has no --manifest
    with pytest.raises(SystemExit) as exc:
        main(["eval-match", "--manifest", str(tmp_path / "missing.txt"),
              "--out", str(out), *TINY])
    assert exc.value.code == 1


def test_zero_pairs_is_a_usage_error(tmp_path, capsys, monkeypatch):
    rc = main(["eval-match", "--out", str(tmp_path / "m"), *TINY, "--pairs", "0"])
    assert rc == 1
    rc = main(["ablate", "--axis", "drop_rate", "--out", str(tmp_path / "a"), *TINY,
               "--pairs", "0"])
    assert rc == 1
    assert capsys.readouterr().err.count("pairs >= 1") == 2
    assert not (tmp_path / "m").exists() and not (tmp_path / "a").exists()

    # retraining axes reject the pair count before loading or training:
    # the manifest does not exist, and training would raise
    def no_training(*args, **kwargs):
        raise AssertionError("a projector was trained")

    monkeypatch.setattr(cli, "train_projector", no_training)
    for axis in ("eta", "kc", "repellence"):
        rc = main(["ablate", "--axis", axis, "--manifest", str(tmp_path / "none.txt"),
                   "--out", str(tmp_path / "a"), *TINY, "--pairs", "0"])
        assert rc == 1
    assert capsys.readouterr().err.count("pairs >= 1") == 3


def test_tampered_checkpoint_is_a_data_error(tmp_path, capsys):
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    _gen(corpus, count=3)
    assert main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
                 "--out", str(run), *TINY]) == 0
    weight = run / "checkpoint" / "weight.scet"
    write_tensor(weight, np.zeros_like(read_tensor(weight)))
    capsys.readouterr()
    rc = main(["eval-match", "--checkpoint", str(run / "checkpoint"),
               "--out", str(tmp_path / "m"), *TINY])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(run / "checkpoint") in err and "sha256" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", ["eval-match", "export-simmap", "eval-detect"])
def test_huge_checkpoint_weight_is_a_data_error(tiny_run, tmp_path, capsys, command):
    # finite and with a matching sha256, so the loader accepts it, but the
    # projected features' norms overflow
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(tiny_run / "run" / "checkpoint", ckpt)
    weight, bias = read_tensor(ckpt / "weight.scet"), read_tensor(ckpt / "bias.scet")
    old_digest = projector_checksum(Projector(weight, bias))
    weight[0, 0] = 1e160
    write_tensor(ckpt / "weight.scet", weight)
    meta = ckpt / "meta.txt"
    meta.write_text(meta.read_text().replace(old_digest, projector_checksum(Projector(weight, bias))))
    out = tmp_path / ("sim.pgm" if command == "export-simmap" else "out")
    extra = []
    if command == "eval-detect":
        extra = ["--manifest", str(tiny_run / "corpus" / "manifest.txt"), "--budget", "2"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--checkpoint", str(ckpt), "--out", str(out), *extra, *TINY])
    assert rc == 2
    err = capsys.readouterr().err
    assert "feature norms overflow" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


def test_drop_rate_sweep_equals_one_protocol_per_rate():
    cfg = load_config(TINY_CONFIG)
    projs = [None, init_projector(8, 4, seed=0)]
    swept = _match_sweep(cfg, projs, DROP_SWEEP)
    assert swept.shape == (len(projs), len(DROP_SWEEP), 2 * cfg.pairs, 5)
    for proj, proj_swept in zip(projs, swept):
        for rate, got in zip(DROP_SWEEP, proj_swept):
            want = _match_sweep(cfg, [proj], (rate,))[0, 0]
            assert got.tobytes() == want.tobytes()
        # the high rates must actually move some matches
        assert proj_swept[0].tobytes() != proj_swept[-1].tobytes()


def test_training_axes_generate_each_pair_once(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    _gen(corpus, count=3)
    calls, trained = [], []

    def counted_make_pair(*args):
        calls.append(args)
        return make_pair(*args)

    def kept_train_projector(*args, **kwargs):
        trained.append(train_projector(*args, **kwargs)[0])
        return trained[-1], None

    monkeypatch.setattr(cli, "make_pair", counted_make_pair)
    monkeypatch.setattr(cli, "train_projector", kept_train_projector)
    out = tmp_path / "ab"
    rc = main(["ablate", "--axis", "kc", "--manifest", str(corpus / "manifest.txt"),
               "--out", str(out), *TINY])
    assert rc == 0
    cfg = load_config(TINY_CONFIG)
    assert len(calls) == 2 * cfg.pairs and len(trained) == len(cli.KC_SWEEP)
    # each row is its variant's projector scored alone, byte for byte
    alone = [
        ("kc", kc, *kind_means(_match_sweep(cfg, [proj], (0.0,))[0, 0], cfg.pairs))
        for kc, proj in zip(cli.KC_SWEEP, trained)
    ]
    write_csv(tmp_path / "alone.csv", [("axis", "value", "same_mean_px", "diff_mean_px"), *alone])
    assert (out / "ablate_kc.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_ablate_drop_rate_and_eta(tmp_path):
    corpus = tmp_path / "corpus"
    _gen(corpus, count=3)
    out = tmp_path / "ab"
    rc = main(["ablate", "--axis", "drop_rate", "--out", str(out), *TINY, "--pairs", "1"])
    assert rc == 0
    rows = (out / "ablate_drop_rate.csv").read_text().splitlines()
    assert rows[0] == "axis,value,same_mean_px,diff_mean_px"
    assert len(rows) == 1 + 8 and rows[1].startswith("drop_rate,0.0,")

    rc = main(["ablate", "--axis", "eta", "--manifest", str(corpus / "manifest.txt"),
               "--out", str(out), *TINY, "--pairs", "1"])
    assert rc == 0
    assert len((out / "ablate_eta.csv").read_text().splitlines()) == 1 + 3


def test_usage_errors_exit_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--count", "4", "--no-such-flag", "--out", str(tmp_path)])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])  # a command is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--count", "1", "--out", str(tmp_path), "--rho-verbatim"])  # deleted knob
    assert exc.value.code == 1
    for deleted in (["--cosine"], ["--cosine", "false"]):  # deleted switch, both old forms
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--count", "0", "--out", str(tmp_path), *deleted])
        assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--count", "0", "--out", str(tmp_path), "--resize", "136"])  # deleted key
    assert exc.value.code == 1
    # deleted generator statistics, now synth constants
    for flag in ("--sigma-lm", "--sigma-bg", "--identity-sigma", "--proto-corr",
                 "--pos-gamma", "--beta", "--tps-sigma-frac"):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--count", "0", "--out", str(tmp_path), flag, "0.1"])
        assert exc.value.code == 1
    assert main(["gen", "--count", "-1", "--out", str(tmp_path), *TINY]) == 1
    assert main(["train-projector", "--manifest", str(tmp_path / "none.txt"),
                 "--out", str(tmp_path), "--eta", "2.0"]) == 1
    assert main(["ablate", "--axis", "kc", "--out", str(tmp_path), *TINY]) == 1
    corpus = tmp_path / "c"
    _gen(corpus, count=3)
    rc = main(["export-simmap", "--landmark", "9", "--out", str(tmp_path / "x.pgm"), *TINY])
    assert rc == 1


def test_data_errors_exit_2(tmp_path):
    rc = main(["train-projector", "--manifest", str(tmp_path / "no" / "manifest.txt"),
               "--out", str(tmp_path / "out"), *TINY])
    assert rc == 2
    corpus = tmp_path / "corpus"
    _gen(corpus, count=3)
    (corpus / "sample_0001" / "main.scet").write_bytes(b"JUNKJUNKJUNK")
    rc = main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
               "--out", str(tmp_path / "out"), *TINY])
    assert rc == 2
    # corpus too small to reserve the held-out block
    small = tmp_path / "small"
    _gen(small, count=2)
    rc = main(["eval-detect", "--manifest", str(small / "manifest.txt"),
               "--checkpoint", str(tmp_path / "ck"), "--out", str(tmp_path / "out"), *TINY])
    assert rc == 2


def test_huge_sample_value_is_a_data_error(tmp_path, capsys):
    # finite, so the loader accepts it, but its squared distances overflow
    corpus = tmp_path / "corpus"
    _gen(corpus, count=3)
    sample = corpus / "sample_0001"
    output, _ = read_sample(sample)
    inattentive = split_tokens(cls_similarity(output.q_cls, output.keys), 0.25).inattentive
    aux = read_tensor(sample / "aux.scet")
    aux[inattentive[0], 0] = 1e160
    write_tensor(sample / "aux.scet", aux)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
                   "--out", str(tmp_path / "run"), *TINY])
    assert rc == 2
    err = capsys.readouterr().err
    assert "squared distances overflow" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train-projector", "eval-detect"])
def test_huge_main_value_is_a_data_error(tiny_run, tmp_path, capsys, command):
    # finite, so the loader accepts it, but the norm of its row overflows; an
    # attentive row survives substitution, so training sees it too
    corpus = tmp_path / "corpus"
    shutil.copytree(tiny_run / "corpus", corpus)
    sample = corpus / "sample_0001"
    output, _ = read_sample(sample)
    attentive = split_tokens(cls_similarity(output.q_cls, output.keys), 0.25).attentive
    main_feats = read_tensor(sample / "main.scet")
    main_feats[attentive[0], 0] = 1e300
    write_tensor(sample / "main.scet", main_feats)
    argv = [command, "--manifest", str(corpus / "manifest.txt"), "--out", str(tmp_path / "out")]
    if command == "eval-detect":
        argv += ["--checkpoint", str(tiny_run / "run" / "checkpoint"), "--budget", "2"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*argv, *TINY])
    assert rc == 2
    err = capsys.readouterr().err
    assert "feature norms overflow" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tensor", ["aux", "keys", "qcls"])
def test_eval_detect_checks_the_tensors_it_drops(tiny_run, tmp_path, capsys, tensor):
    # detection keeps only each sample's main grid, but reads and checks
    # every file; sample 0 is trained on at budget 2
    corpus = tmp_path / "corpus"
    shutil.copytree(tiny_run / "corpus", corpus)
    path = corpus / "sample_0000" / f"{tensor}.scet"
    values = read_tensor(path)
    values.flat[0] = np.nan
    write_tensor(path, values)
    capsys.readouterr()
    rc = main(["eval-detect", "--manifest", str(corpus / "manifest.txt"),
               "--checkpoint", str(tiny_run / "run" / "checkpoint"), "--budget", "2",
               "--out", str(tmp_path / "det"), *TINY])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}: non-finite values" in err and "Traceback" not in err
    assert not (tmp_path / "det").exists()


def test_sample_meta_without_grid_h_is_a_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    _gen(corpus, count=3)
    meta = corpus / "sample_0002" / "meta.txt"
    meta.write_text("grid_w=4\npatch=8\n")
    rc = main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
               "--out", str(tmp_path / "out"), *TINY])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(meta) in err and "grid_h" in err
    meta.write_text("grid_h=four\ngrid_w=4\npatch=8\n")
    rc = main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
               "--out", str(tmp_path / "out"), *TINY])
    assert rc == 2
    assert str(meta) in capsys.readouterr().err


def test_detect_csv_cells_are_plain_floats(tmp_path):
    corpus = tmp_path / "corpus"
    _gen(corpus)
    run = tmp_path / "run"
    assert main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
                 "--out", str(run), *TINY]) == 0
    det = tmp_path / "det"
    assert main(["eval-detect", "--manifest", str(corpus / "manifest.txt"),
                 "--checkpoint", str(run / "checkpoint"), "--budget", "2",
                 "--out", str(det), *TINY]) == 0
    rows = (det / "detect.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 5
    for row in rows:
        assert float(row.split(",")[2]) >= 0.0


def test_divergence_exits_3(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    _gen(corpus)
    run = tmp_path / "run"
    assert main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
                 "--out", str(run), *TINY]) == 0
    rc = main(["eval-detect", "--manifest", str(corpus / "manifest.txt"),
               "--checkpoint", str(run / "checkpoint"), "--budget", "2",
               "--out", str(tmp_path / "det"), *TINY,
               "--reg-lr", "1e9", "--reg-steps", "40"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "non-finite loss" in err and "RuntimeWarning" not in err


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 6-sample corpus and a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("tiny")
    _gen(root / "corpus")
    assert main(["train-projector", "--manifest", str(root / "corpus" / "manifest.txt"),
                 "--out", str(root / "run"), *TINY]) == 0
    return root


def test_overflowing_projector_update_exits_3(tiny_run, tmp_path, capsys):
    # under cosine logits no finite loss can flag this: the update itself overflows
    rc = main(["train-projector", "--manifest", str(tiny_run / "corpus" / "manifest.txt"),
               "--out", str(tmp_path / "run"), *TINY,
               "--proj-lr", "1e308"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "non-finite parameters at step 0" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("lr", ["4.1e151", "1e300", "1e306"])
def test_overflowing_feature_norm_exits_3(tiny_run, tmp_path, capsys, lr):
    # on this corpus a rate past about 4.06e151 leaves finite weights after
    # step 0 whose projected rows have norms that overflow at step 1; left
    # alone, those rows scale to zeros and the cosine loss goes flat. At
    # 1e306 the projected values themselves overflow to inf, which is the
    # same divergence
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train-projector", "--manifest", str(tiny_run / "corpus" / "manifest.txt"),
                   "--out", str(tmp_path / "run"), *TINY, "--proj-lr", lr])
    assert rc == 3
    err = capsys.readouterr().err
    assert "non-finite features at step 1" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "run").exists()


def test_overflowing_regressor_update_exits_3(tiny_run, tmp_path, capsys):
    rc = main(["eval-detect", "--manifest", str(tiny_run / "corpus" / "manifest.txt"),
               "--checkpoint", str(tiny_run / "run" / "checkpoint"), "--budget", "2",
               "--out", str(tmp_path / "det"), *TINY, "--reg-lr", "1.7e308"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "non-finite parameters at step 0" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not (tmp_path / "det").exists()


def test_eval_detect_rejects_repeat_seeds_past_int64(tiny_run, tmp_path, capsys):
    # the last repeat's seed, 2**63, is out of range; no repeat runs
    rc = main(["eval-detect", "--manifest", str(tiny_run / "corpus" / "manifest.txt"),
               "--checkpoint", str(tiny_run / "run" / "checkpoint"), "--budget", "2",
               "--out", str(tmp_path / "det"), *TINY,
               "--seed", str(2**63 - 1), "--repeats", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "seed + repeats must be at most 2**63" in err and "Traceback" not in err
    assert not (tmp_path / "det").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("gen", "--patch", "0"),
        ("eval-detect", "--softargmax-temp", "0"),
        ("eval-detect", "--softargmax-temp", "-1"),
        ("train-projector", "--proj-lr", "nan"),
        ("eval-detect", "--reg-lr", "nan"),
        ("train-projector", "--tau", "inf"),
        ("eval-match", "--seed", "-1"),
        ("gen", "--d", "0"),
        # below the 5 landmarks plus 3 region anchors of the default layout
        ("gen", "--d", "4"),
        ("eval-match", "--d", "7"),
        ("train-projector", "--d-proj", "1"),
        # 401 digits: past 2**63, float division, deque and np.sqrt overflow on these
        pytest.param("gen", "--crop", "8" * 401, id="gen---crop-401-digits"),
        pytest.param("eval-detect", "--holdout", "9" * 401,
                     id="eval-detect---holdout-401-digits"),
        pytest.param("eval-detect", "--heatmaps", "9" * 401,
                     id="eval-detect---heatmaps-401-digits"),
        # below 2**63, but the arrays they imply cannot be allocated
        ("gen", "--crop", "4000000000"),
        ("gen", "--crop", "9223372036854775800"),
        ("eval-detect", "--heatmaps", "4000000000"),
        ("eval-detect", "--heatmaps", "9223372036854775807"),
    ],
)
def test_bad_config_values_are_usage_errors(tiny_run, tmp_path, capsys, command, flag, value):
    manifest = str(tiny_run / "corpus" / "manifest.txt")
    inputs = {
        "gen": ["--count", "2"],
        "train-projector": ["--manifest", manifest],
        "eval-match": [],
        "eval-detect": ["--manifest", manifest, "--budget", "2",
                        "--checkpoint", str(tiny_run / "run" / "checkpoint")],
    }[command]
    out = tmp_path / "out"
    rc = main([command, *inputs, "--out", str(out), *TINY, flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("selcorr: ") and "Traceback" not in err
    assert not out.exists()


def test_budget_clamp_warning(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    _gen(corpus)
    run = tmp_path / "run"
    assert main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
                 "--out", str(run), *TINY]) == 0
    rc = main(["eval-detect", "--manifest", str(corpus / "manifest.txt"),
               "--checkpoint", str(run / "checkpoint"), "--budget", "100",
               "--out", str(tmp_path / "det"), *TINY])
    assert rc == 0
    err = capsys.readouterr().err
    assert "clamped to 4" in err
    assert "budget=4" in (tmp_path / "det" / "summary.txt").read_text()


def _alive(kind: type) -> int:
    gc.collect()
    return sum(isinstance(o, kind) for o in gc.get_objects())


def test_eval_detect_keeps_only_the_samples_it_uses(tmp_path, monkeypatch):
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    _gen(corpus, count=9)
    manifest = str(corpus / "manifest.txt")
    assert main(["train-projector", "--manifest", manifest, "--out", str(run), *TINY]) == 0
    before = _alive(BackboneOutput), _alive(FeatureGrid)
    alive, received = [], []

    def counting(samples, *args, **kwargs):
        alive.append((_alive(BackboneOutput) - before[0], _alive(FeatureGrid) - before[1]))
        received.append([type(grid) for grid, _ in samples])
        return train_regressor(samples, *args, **kwargs)

    monkeypatch.setattr(cli, "train_regressor", counting)
    # 9 samples, budget 3, holdout 2: the stage-1 grids of samples 0-2
    # train and those of 7-8 are held out; no whole sample is kept
    assert main(["eval-detect", "--manifest", manifest, "--checkpoint", str(run / "checkpoint"),
                 "--budget", "3", "--out", str(tmp_path / "det"), *TINY, "--repeats", "2"]) == 0
    assert alive == [(0, 3 + 2), (0, 3 + 2)]
    assert received == [[FeatureGrid] * 3, [FeatureGrid] * 3]


def test_bad_landmarks_are_a_data_error(tmp_path, capsys):
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    _gen(corpus)
    manifest = str(corpus / "manifest.txt")
    assert main(["train-projector", "--manifest", manifest, "--out", str(run), *TINY]) == 0
    ckpt = str(run / "checkpoint")
    # sample 5 is held out by eval-detect (holdout 2); sample 0 is trained on
    for sample, value in [("sample_0005", "nan"), ("sample_0005", "1e9"), ("sample_0000", "nan")]:
        table = corpus / sample / "landmarks.csv"
        original = table.read_text()
        lines = original.splitlines()
        lines[2] = f"1,{value},10.0"
        table.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval-detect", "--manifest", manifest, "--checkpoint", ckpt,
                     "--budget", "2", "--out", str(tmp_path / "det"), *TINY]) == 2
        assert main(["train-projector", "--manifest", manifest,
                     "--out", str(tmp_path / "run2"), *TINY]) == 2
        err = capsys.readouterr().err
        assert err.count(str(table)) == 2 and "Traceback" not in err
        table.write_text(original)
    assert not (tmp_path / "det").exists() and not (tmp_path / "run2").exists()


def test_inconsistent_corpus_is_a_data_error(tmp_path, capsys):
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    _gen(corpus)
    manifest = corpus / "manifest.txt"
    assert main(["train-projector", "--manifest", str(manifest), "--out", str(run), *TINY]) == 0
    detect = ["eval-detect", "--manifest", str(manifest), "--checkpoint", str(run / "checkpoint"),
              "--budget", "2", "--out", str(tmp_path / "det"), *TINY]
    # a sample with four landmarks where the others have five
    table = corpus / "sample_0003" / "landmarks.csv"
    table.write_text("".join(line + "\n" for line in table.read_text().splitlines()[:-1]))
    capsys.readouterr()
    assert main(detect) == 2
    err = capsys.readouterr().err
    assert f"sample {corpus / 'sample_0003'}: landmarks=4" in err and "Traceback" not in err
    # a sample on another grid: 48-pixel images, 6x6 tokens
    other = tmp_path / "other"
    assert main(["gen", "--count", "1", "--out", str(other), *TINY, "--crop", "48"]) == 0
    manifest.write_text("sample_0000\n../other/sample_0000\n")
    assert main(detect) == 2
    assert "grid_h=6, but the first sample has grid_h=4" in capsys.readouterr().err
    # an empty manifest
    manifest.write_text("\n")
    for argv in (detect, ["train-projector", "--manifest", str(manifest),
                          "--out", str(tmp_path / "run2"), *TINY]):
        assert main(argv) == 2
        assert f"manifest {manifest} lists no samples" in capsys.readouterr().err


def test_ablate_rejects_flags_it_would_ignore(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a projector was trained")

    monkeypatch.setattr(cli, "train_projector", no_training)
    corpus = tmp_path / "corpus"
    _gen(corpus, count=3)
    manifest = str(corpus / "manifest.txt")
    for axis in ("eta", "kc", "repellence"):
        rc = main(["ablate", "--axis", axis, "--manifest", manifest,
                   "--checkpoint", str(tmp_path / "ck"), "--out", str(tmp_path / "a"), *TINY])
        assert rc == 1
    rc = main(["ablate", "--axis", "drop_rate", "--manifest", manifest,
               "--out", str(tmp_path / "a"), *TINY])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("takes no --checkpoint") == 3 and err.count("takes no --manifest") == 1
    # a key the axis sweeps or fixes itself: no axis takes --drop-rate
    for axis in ("kc", "drop_rate"):
        extra = [] if axis == "drop_rate" else ["--manifest", manifest]
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--axis", axis, *extra, "--out", str(tmp_path / "a"), *TINY,
                  "--drop-rate", "0.5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --drop-rate 0.5" in capsys.readouterr().err
    for axis, key, flag in (("eta", "eta", ["--eta", "0.3"]),
                            ("kc", "kc", ["--kc", "3"])):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--axis", axis, "--manifest", manifest,
                  "--out", str(tmp_path / "a"), *TINY, *flag])
        assert exc.value.code == 1
        assert f"axis {axis} ignores {key}" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


# the config keys each command form reads, written out here rather than
# imported from the CLI: a command takes exactly these as flags
READ_KEYS = {
    "gen": {"crop", "patch", "d", "d_aux", "seed"},
    "train-projector": {"eta", "kc", "tau", "r_aa", "r_ai", "r_ii", "d_proj", "proj_lr",
                        "proj_steps", "optimizer", "momentum", "seed"},
    "eval-match": {"crop", "patch", "d", "d_aux", "seed", "pairs", "drop_rate"},
    "eval-detect": {"heatmaps", "softargmax_temp", "reg_lr", "reg_steps", "reg_optimizer",
                    "momentum", "holdout", "repeats", "seed"},
    "ablate --axis drop_rate": {"crop", "patch", "d", "d_aux", "seed", "pairs"},
    "ablate --axis eta": {"crop", "patch", "d", "d_aux", "seed", "pairs", "kc", "tau", "r_aa",
                          "r_ai", "r_ii", "d_proj", "proj_lr", "proj_steps", "optimizer",
                          "momentum"},
    "ablate --axis kc": {"crop", "patch", "d", "d_aux", "seed", "pairs", "eta", "tau", "r_aa",
                         "r_ai", "r_ii", "d_proj", "proj_lr", "proj_steps", "optimizer",
                         "momentum"},
    "ablate --axis repellence": {"crop", "patch", "d", "d_aux", "seed", "pairs", "eta", "kc",
                                 "tau", "r_aa", "r_ai", "r_ii", "d_proj", "proj_lr",
                                 "proj_steps", "optimizer", "momentum"},
    "export-simmap": {"crop", "patch", "d", "d_aux", "seed"},
}
# a valid value away from the default for every key
NON_DEFAULT = {
    "eta": "0.3", "kc": "3", "tau": "0.1", "r_aa": "4.0", "r_ai": "3.0", "r_ii": "1.0",
    "drop_rate": "0.5", "crop": "48", "patch": "4", "d": "16", "d_aux": "8", "d_proj": "8",
    "proj_lr": "0.01", "proj_steps": "7", "optimizer": "momentum", "momentum": "0.5",
    "heatmaps": "7", "softargmax_temp": "0.2", "reg_lr": "0.05", "reg_steps": "7",
    "reg_optimizer": "gd", "holdout": "3", "repeats": "2", "pairs": "7", "seed": "3",
}
COMMANDS = ("cmd_gen", "cmd_train_projector", "cmd_eval_match", "cmd_eval_detect",
            "cmd_ablate", "cmd_export_simmap")


def _flag(key: str, value: str) -> list[str]:
    return ["--" + key.replace("_", "-"), value]


def _form_argv(form: str, manifest: str, checkpoint: str) -> list[str]:
    """The command line of `form` with the inputs it needs, but no --out."""
    argv = form.split()
    if form in ("train-projector", "eval-detect") or argv[-1] in ("eta", "kc", "repellence"):
        argv += ["--manifest", manifest]
    if form in ("eval-match", "eval-detect", "export-simmap"):
        argv += ["--checkpoint", checkpoint]
    return argv


def test_each_command_takes_only_the_config_flags_it_reads(tmp_path, capsys, monkeypatch):
    assert set(NON_DEFAULT) == {f.name for f in fields(ExperimentConfig)}
    out = tmp_path / "out"
    forms = {form: [*_form_argv(form, str(tmp_path / "manifest.txt"), str(tmp_path / "ck")),
                    "--out", str(out)] for form in READ_KEYS}
    # every other key is an unknown flag: exit 1 before any work
    for form, argv in forms.items():
        for key in NON_DEFAULT.keys() - READ_KEYS[form]:
            with pytest.raises(SystemExit) as exc:
                main([*argv, *_flag(key, NON_DEFAULT[key])])
            assert exc.value.code == 1, (form, key)
            err = capsys.readouterr().err
            assert err.startswith("selcorr: error: ") and "Traceback" not in err
            assert not out.exists()
    # each read key is taken, and reaches the config the command runs on
    seen = []
    for name in COMMANDS:
        monkeypatch.setattr(cli, name, lambda cfg, *args: seen.append(cfg) or 0)
    for form, argv in forms.items():
        for key in READ_KEYS[form]:
            assert main([*argv, *_flag(key, NON_DEFAULT[key])]) == 0, (form, key)
            want = getattr(load_config(None, {key: NON_DEFAULT[key]}), key)
            assert getattr(seen.pop(), key) == want != getattr(ExperimentConfig(), key)


def test_flags_a_command_ignores_exit_1(tmp_path, capsys):
    out = str(tmp_path / "out")
    for argv in (
        ["ablate", "--axis", "drop_rate", "--kc", "3", "--proj-steps", "7", "--crop", "32",
         "--d", "8", "--d-aux", "4", "--pairs", "1", "--out", out],
        ["eval-match", "--eta", "0.3", "--crop", "32", "--d", "8", "--d-aux", "4",
         "--pairs", "1", "--out", out],
        ["gen", "--heatmaps", "7", "--reg-lr", "5", "--count", "1", "--out", out],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "ablate --axis drop_rate ignores kc, proj_steps" in err
    assert "unrecognized arguments: --eta 0.3" in err
    assert "unrecognized arguments: --heatmaps 7 --reg-lr 5" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_export_simmap_rejects_the_landmark_before_any_pair(tmp_path, capsys, monkeypatch):
    def no_pair(*args, **kwargs):
        raise AssertionError("a pair was generated")

    monkeypatch.setattr(cli, "make_pair", no_pair)
    for landmark in ("5", "-1"):
        out = tmp_path / "sim.pgm"
        assert main(["export-simmap", "--landmark", landmark, "--out", str(out), *TINY]) == 1
        err = capsys.readouterr().err
        assert f"landmark index {landmark} out of range" in err and "Traceback" not in err
        assert not out.exists()


def test_gen_config_passes_back_to_every_command(tmp_path):
    # gen's config.txt holds every key; passed back with --config, each
    # command writes what the flags of the keys it reads make it write
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    _gen(corpus)
    config = corpus / "config.txt"
    values = read_meta(config)
    manifest = str(corpus / "manifest.txt")
    assert main(["train-projector", "--manifest", manifest, "--out", str(run), *TINY]) == 0
    checkpoint = str(run / "checkpoint")
    for form in READ_KEYS.keys() - {"gen"}:
        argv = _form_argv(form, manifest, checkpoint)
        flags = [word for key in sorted(READ_KEYS[form]) for word in _flag(key, values[key])]
        written = []
        for tag, settings in (("file", ["--config", str(config)]), ("flags", flags)):
            out = tmp_path / tag / form.replace(" ", "_")
            target = out / "sim.pgm" if form == "export-simmap" else out
            assert main([*argv, "--out", str(target), *settings]) == 0, (form, tag)
            written.append(_tree_digest(out))
        assert written[0] and written[0] == written[1], form
