"""End-to-end command tests, all in-process through cli.main()."""

import gc
import hashlib
import shutil
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from selcorr import cli, projector
from selcorr.cli import DROP_SWEEP, _match_sweep, main
from selcorr.config import ExperimentConfig, load_config, read_world
from selcorr.evaluation import kind_means, pair_similarity, train_regressor, write_pgm
from selcorr.partition import cls_similarity, split_tokens
from selcorr.projector import (
    Projector,
    init_projector,
    load_checkpoint,
    projector_checksum,
    save_checkpoint,
    train_projector,
)
from selcorr.synth import BackboneOutput, make_pair, read_sample
from selcorr.tensorio import (
    FeatureGrid,
    read_manifest,
    read_meta,
    read_tensor,
    write_csv,
    write_tensor,
)

# the tests' small world, so every command finishes in well under a second
TINY_CONFIG = Path(__file__).resolve().parent / "configs" / "tiny.txt"
TINY = ["--config", str(TINY_CONFIG)]
TINY_SPEC = load_config(TINY_CONFIG).face_spec()


def _gen(out: Path, count: int = 6) -> None:
    assert main(["gen", "--count", str(count), "--out", str(out), *TINY]) == 0


def _train(corpus: Path, run: Path, *flags: str) -> Path:
    """Train on `corpus` into `run`; returns the checkpoint directory."""
    assert main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
                 "--out", str(run), *TINY, *flags]) == 0
    return run / "checkpoint"


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
    # the corpus's world is recorded once, in its config.txt
    assert not list(out.glob("sample_*/meta.txt"))
    output, landmarks = read_sample(out / "sample_0000", TINY_SPEC)
    tiny = load_config(TINY_CONFIG)
    tokens = (tiny.crop // tiny.patch) ** 2
    assert output.main.features.shape == (tokens, tiny.d)
    assert landmarks.shape == (5, 2)
    cfg = load_config(out / "config.txt")
    assert cfg.crop == tiny.crop and cfg.d == tiny.d and cfg.pairs == tiny.pairs


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


def _no_work(monkeypatch) -> None:
    """Make reading a corpus's samples or training a projector fail the test."""
    def no_work(*args, **kwargs):
        raise AssertionError("a sample was read or a projector trained")

    monkeypatch.setattr(cli, "read_corpus", no_work)
    monkeypatch.setattr(cli, "train_projector", no_work)


def test_zero_pairs_is_a_usage_error(tmp_path, capsys, monkeypatch):
    rc = main(["eval-match", "--out", str(tmp_path / "m"), *TINY, "--pairs", "0"])
    assert rc == 1
    rc = main(["ablate", "--axis", "drop_rate", "--out", str(tmp_path / "a"), *TINY,
               "--pairs", "0"])
    assert rc == 1
    assert capsys.readouterr().err.count("pairs must be >= 1, got 0") == 2
    assert not (tmp_path / "m").exists() and not (tmp_path / "a").exists()

    # retraining axes reject the pair count before reading a sample or training
    corpus = tmp_path / "corpus"
    _gen(corpus, count=3)
    _no_work(monkeypatch)
    for axis in ("eta", "kc", "repellence"):
        rc = main(["ablate", "--axis", axis, "--manifest", str(corpus / "manifest.txt"),
                   "--out", str(tmp_path / "a"), *TINY, "--pairs", "0"])
        assert rc == 1
    assert capsys.readouterr().err.count("pairs must be >= 1, got 0") == 3


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
    projs = [None, init_projector(cfg.d, cfg.d_proj, seed=0)]
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


def test_usage_errors_exit_1(tmp_path, monkeypatch):
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
    corpus = tmp_path / "c"
    _gen(corpus, count=3)
    _no_work(monkeypatch)
    assert main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
                 "--out", str(tmp_path), "--eta", "2.0"]) == 1
    assert main(["ablate", "--axis", "kc", "--out", str(tmp_path), *TINY]) == 1
    # drop_rate reads no corpus, so a missing one is not even looked for
    assert main(["ablate", "--axis", "drop_rate", "--manifest", str(tmp_path / "none.txt"),
                 "--out", str(tmp_path), *TINY]) == 1
    rc = main(["export-simmap", "--landmark", "9", "--out", str(tmp_path / "x.pgm"), *TINY])
    assert rc == 1


def test_data_errors_exit_2(tmp_path, capsys):
    rc = main(["train-projector", "--manifest", str(tmp_path / "no" / "manifest.txt"),
               "--out", str(tmp_path / "out"), *TINY])
    assert rc == 2
    corpus = tmp_path / "corpus"
    _gen(corpus, count=3)
    (corpus / "sample_0001" / "main.scet").write_bytes(b"JUNKJUNKJUNK")
    rc = main(["train-projector", "--manifest", str(corpus / "manifest.txt"),
               "--out", str(tmp_path / "out"), *TINY])
    assert rc == 2
    # corpus too small to reserve the held-out block, with a checkpoint of its world
    small = tmp_path / "small"
    _gen(small, count=2)
    checkpoint = _train(small, tmp_path / "run")
    capsys.readouterr()
    rc = main(["eval-detect", "--manifest", str(small / "manifest.txt"),
               "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out"), *TINY])
    assert rc == 2
    assert "corpus of 2 cannot reserve 2 held-out samples" in capsys.readouterr().err


def test_huge_sample_value_is_a_data_error(tmp_path, capsys):
    # finite, so the loader accepts it, but its squared distances overflow
    corpus = tmp_path / "corpus"
    _gen(corpus, count=3)
    sample = corpus / "sample_0001"
    output, _ = read_sample(sample, TINY_SPEC)
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
    output, _ = read_sample(sample, TINY_SPEC)
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


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 161. GiB for an array with shape\n(10000000, 3, 3, 48)"),
    MemoryError(),
])
def test_out_of_memory_is_a_usage_error(tiny_run, tmp_path, capsys, monkeypatch, error):
    # sizes within config.MAX_ARRAY_BYTES can still ask for more than the
    # machine has; the trainer fails as numpy would, so nothing large is allocated
    def too_large(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "train_regressor", too_large)
    out = tmp_path / "det"
    rc = main(["eval-detect", "--manifest", str(tiny_run / "corpus" / "manifest.txt"),
               "--checkpoint", str(tiny_run / "run" / "checkpoint"), "--budget", "2",
               "--out", str(out), *TINY])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("selcorr: out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


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


@pytest.mark.parametrize("lr", ["6.9e151", "1e300", "1e306"])
def test_overflowing_feature_norm_exits_3(tiny_run, tmp_path, capsys, lr):
    # on this corpus a rate past about 6.82e151 leaves finite weights after
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
        # below the 14 channels of the default layout: 8 positional (5 landmarks
        # plus 3 region anchors) and 6 appearance means (3 groups and 3 regions)
        ("gen", "--d", "4"),
        ("eval-match", "--d", "7"),
        ("gen", "--d", "13"),
        ("train-projector", "--d-proj", "1"),
        # one 8-pixel token: nothing to split into attentive and inattentive
        ("gen", "--crop", "8"),
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
    for sample, value in [("sample_0005", np.nan), ("sample_0005", 1e9), ("sample_0000", np.nan)]:
        path = corpus / sample / "landmarks.scet"
        original = read_tensor(path)
        landmarks = original.copy()
        landmarks[1, 0] = value
        write_tensor(path, landmarks)
        capsys.readouterr()
        assert main(["eval-detect", "--manifest", manifest, "--checkpoint", ckpt,
                     "--budget", "2", "--out", str(tmp_path / "det"), *TINY]) == 2
        assert main(["train-projector", "--manifest", manifest,
                     "--out", str(tmp_path / "run2"), *TINY]) == 2
        err = capsys.readouterr().err
        assert err.count(str(path)) == 2 and "Traceback" not in err
        write_tensor(path, original)
    assert not (tmp_path / "det").exists() and not (tmp_path / "run2").exists()


def _no_training(monkeypatch) -> None:
    """Make any descent step or detector training fail the test."""
    def no_training(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr(projector, "descend", no_training)
    monkeypatch.setattr(cli, "train_regressor", no_training)


def _corpus_forms(manifest: Path, checkpoint: Path, out: Path) -> list[list[str]]:
    """Every command form that reads a corpus, with its inputs and `--out`."""
    return [
        ["train-projector", "--manifest", str(manifest), "--out", str(out), *TINY],
        ["eval-detect", "--manifest", str(manifest), "--checkpoint", str(checkpoint),
         "--budget", "2", "--out", str(out), *TINY],
        *(["ablate", "--axis", axis, "--manifest", str(manifest), "--out", str(out), *TINY]
          for axis in ("eta", "kc", "repellence")),
    ]


def test_inconsistent_corpus_is_a_data_error(tiny_run, tmp_path, capsys, monkeypatch):
    # each sample is checked against the corpus's world, tiny.txt's, before
    # any training; a sample off it exits 2 naming the sample
    _no_training(monkeypatch)
    checkpoint, out = tiny_run / "run" / "checkpoint", tmp_path / "out"
    tiny = load_config(TINY_CONFIG)
    tokens = TINY_SPEC.grid_size**2
    corpus = tmp_path / "corpus"
    sample = corpus / "sample_0003"
    for name, edit, message in (
        ("main.scet", lambda v: v[:-1], f"sample {sample}: expected ({tokens}, d) features, got "
         f"({tokens - 1}, {tiny.d})"),
        ("main.scet", lambda v: v[:, :-1],
         f"sample {sample}: d={tiny.d - 1}, but the world has d={tiny.d}"),
        ("aux.scet", lambda v: v[:, :-1],
         f"sample {sample}: d_aux={tiny.d_aux - 1}, but the world has d_aux={tiny.d_aux}"),
        ("landmarks.scet", lambda v: v[:-1],
         f"{sample / 'landmarks.scet'}: expected (5, 2) pixels, got (4, 2)"),
    ):
        shutil.rmtree(corpus, ignore_errors=True)
        shutil.copytree(tiny_run / "corpus", corpus)
        path = sample / name
        write_tensor(path, edit(read_tensor(path)))
        capsys.readouterr()
        for argv in _corpus_forms(corpus / "manifest.txt", checkpoint, out):
            assert main(argv) == 2, (name, argv[:3])
            err = capsys.readouterr().err
            assert message in err, (name, argv[:3])
            assert "Traceback" not in err and not out.exists()
    # an empty manifest
    manifest = corpus / "manifest.txt"
    manifest.write_text("\n")
    for argv in _corpus_forms(manifest, checkpoint, out):
        assert main(argv) == 2
        assert f"manifest {manifest} lists no samples" in capsys.readouterr().err


def test_corpus_with_landmark_tables_is_a_data_error(tiny_run, tmp_path, capsys, monkeypatch):
    # a corpus written before landmarks became a tensor holds landmarks.csv
    # tables; it has to be regenerated, and every command says which file
    # it misses
    _no_training(monkeypatch)
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    shutil.copytree(tiny_run / "corpus", corpus)
    for directory in read_manifest(corpus / "manifest.txt"):
        path = directory / "landmarks.scet"
        rows = [(i, x, y) for i, (x, y) in enumerate(read_tensor(path))]
        write_csv(directory / "landmarks.csv", [("landmark_index", "x_px", "y_px"), *rows])
        path.unlink()
    missing = corpus / "sample_0000" / "landmarks.scet"
    for argv in _corpus_forms(corpus / "manifest.txt", tiny_run / "run" / "checkpoint", out):
        assert main(argv) == 2, argv[:3]
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err and not out.exists()


def _checkpoint_forms(manifest: Path, checkpoint: Path, out: Path) -> list[list[str]]:
    """Every command form that reads a checkpoint, with its inputs and `--out`."""
    return [
        ["eval-match", "--checkpoint", str(checkpoint), "--out", str(out), *TINY],
        ["ablate", "--axis", "drop_rate", "--checkpoint", str(checkpoint), "--out", str(out),
         *TINY],
        ["export-simmap", "--checkpoint", str(checkpoint), "--out", str(out), *TINY],
        ["eval-detect", "--manifest", str(manifest), "--checkpoint", str(checkpoint),
         "--budget", "2", "--out", str(out), *TINY],
    ]


# edits of a world record, its config.txt, and a part of the message each gives
WORLD_CASES = (
    (None, "No such file", "missing"),
    (lambda text: text + "cosine=true\n", "unknown config key 'cosine'", "retired-key"),
    (lambda text: text.replace("\ncrop=32\n", "\ncrop=30\n"), "crop", "out-of-range"),
    (lambda text: text + "patch\n", "expected key=value, got 'patch'", "unparseable"),
    (lambda text: text.replace("\ncrop=32\n", "\n"), "lacks crop", "no-crop"),
)


@pytest.mark.parametrize(
    "artefact, edit, message",
    [pytest.param("corpus", edit, message, id=case) for edit, message, case in WORLD_CASES]
    + [pytest.param("checkpoint", edit, message, id=f"checkpoint-{case}")
       for edit, message, case in WORLD_CASES],
)
def test_corpus_without_a_valid_world_is_a_data_error(tiny_run, tmp_path, capsys, monkeypatch,
                                                      artefact, edit, message):
    # a corpus's or a checkpoint's config.txt is the record of its world:
    # missing, with a retired key, out of range, unparseable or without a
    # world key, every command that reads that artefact exits 2 naming the
    # file, before it reads a sample
    _no_work(monkeypatch)
    corpus, checkpoint, out = tmp_path / "corpus", tmp_path / "checkpoint", tmp_path / "out"
    shutil.copytree(tiny_run / "corpus", corpus)
    shutil.copytree(tiny_run / "run" / "checkpoint", checkpoint)
    path = (corpus if artefact == "corpus" else checkpoint) / "config.txt"
    if edit is None:
        path.unlink()
    else:
        path.write_text(edit(path.read_text()))
    capsys.readouterr()
    forms = _corpus_forms if artefact == "corpus" else _checkpoint_forms
    for argv in forms(corpus / "manifest.txt", checkpoint, out):
        assert main(argv) == 2, argv[:3]
        err = capsys.readouterr().err
        assert str(path) in err and message in err and "Traceback" not in err, argv[:3]
        assert not out.exists()


def test_each_checkpoint_form_reads_the_checkpoint_world_once(tiny_run, tmp_path, monkeypatch):
    # a command loads its checkpoint once, world and tensors together
    checkpoint = tiny_run / "run" / "checkpoint"
    reads = []
    read_text = Path.read_text

    def counted(path, *args, **kwargs):
        reads.append(path)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    manifest = tiny_run / "corpus" / "manifest.txt"
    for i in range(4):
        argv = _checkpoint_forms(manifest, checkpoint, tmp_path / f"out{i}")[i]
        reads.clear()
        assert main(argv) == 0, argv[:3]
        assert reads.count(checkpoint / "config.txt") == 1, argv[:3]


def test_eval_detect_bounds_heatmaps_on_the_corpus_world(tmp_path, capsys, monkeypatch):
    # 10**8 heatmaps fit tiny.txt's world, but not a corpus of 96-pixel,
    # 64-channel samples: a usage error before any sample is read
    def no_reading(*args, **kwargs):
        raise AssertionError("the corpus was read")

    corpus = tmp_path / "corpus"
    assert main(["gen", "--count", "1", "--out", str(corpus), *TINY,
                 "--crop", "96", "--d", "64"]) == 0
    checkpoint = _train(corpus, tmp_path / "run")
    monkeypatch.setattr(cli, "read_corpus", no_reading)
    capsys.readouterr()
    rc = main(["eval-detect", "--manifest", str(corpus / "manifest.txt"),
               "--checkpoint", str(checkpoint), "--out", str(tmp_path / "det"), *TINY,
               "--heatmaps", str(10**8)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "heatmaps = 100000000 implies a" in err and "Traceback" not in err
    assert not (tmp_path / "det").exists()


def test_eval_detect_bounds_heatmaps_on_the_checkpoint_d_proj(tiny_run, tmp_path, capsys,
                                                              monkeypatch):
    # 10**8 heatmaps imply a (5 * 10**8, 3, 3, 14 + 4) conv, 6.48e11 bytes, at
    # tiny.txt's d_proj, under the limit; the conv eval-detect builds for a
    # d_proj=64 checkpoint is (5 * 10**8, 3, 3, 14 + 64), 2.81e12 bytes, above it
    def no_reading(*args, **kwargs):
        raise AssertionError("the corpus was read")

    checkpoint = _train(tiny_run / "corpus", tmp_path / "run", "--d-proj", "64")
    monkeypatch.setattr(cli, "read_corpus", no_reading)
    capsys.readouterr()
    rc = main(["eval-detect", "--manifest", str(tiny_run / "corpus" / "manifest.txt"),
               "--checkpoint", str(checkpoint), "--out", str(tmp_path / "det"), *TINY,
               "--heatmaps", str(10**8)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "heatmaps = 100000000 implies a 2808000000000-byte array" in err
    assert "Traceback" not in err and not (tmp_path / "det").exists()


def test_eval_detect_without_config_bounds_heatmaps_on_the_corpus_world(tiny_run, tmp_path,
                                                                        monkeypatch):
    # 7 * 10**7 heatmaps imply a 1.2e12-byte conv in the default 96-pixel,
    # d=32 world, above the limit, but 7.56e11 bytes in tiny.txt's 32-pixel,
    # d=14 one; with no --config the corpus's world alone bounds them
    _no_training(monkeypatch)
    with pytest.raises(AssertionError, match="training ran"):
        main(["eval-detect", "--manifest", str(tiny_run / "corpus" / "manifest.txt"),
              "--checkpoint", str(tiny_run / "run" / "checkpoint"), "--budget", "2",
              "--holdout", "2", "--out", str(tmp_path / "det"), "--heatmaps", str(7 * 10**7)])


@pytest.fixture(scope="module")
def seed3_run(tmp_path_factory):
    """A 6-sample corpus of tiny.txt's world drawn at seed 3, and a
    checkpoint trained on it from seed 0's init."""
    root = tmp_path_factory.mktemp("seed3")
    assert main(["gen", "--count", "6", "--out", str(root / "corpus"), *TINY,
                 "--seed", "3"]) == 0
    _train(root / "corpus", root / "run")
    return root


@pytest.mark.parametrize("form", ["eval-match", "ablate --axis drop_rate", "export-simmap"])
def test_checkpoint_forms_run_on_the_checkpoint_world(seed3_run, tmp_path, capsys, form):
    # a checkpoint of a seed-3 corpus is scored on seed-3 pairs of its world:
    # with tiny.txt (seed 0), with the defaults (a 96-pixel, d=32 world) and
    # with --seed 3 the command writes the same bytes; --seed 0 exits 1
    argv = [*form.split(), "--checkpoint", str(seed3_run / "run" / "checkpoint")]
    if form != "export-simmap":
        argv += ["--pairs", "2"]
    written = []
    for tag, settings in (("tiny", TINY), ("defaults", []), ("seed3", [*TINY, "--seed", "3"])):
        out = tmp_path / tag
        target = out / "sim.pgm" if form == "export-simmap" else out
        assert main([*argv, "--out", str(target), *settings]) == 0, tag
        written.append(_tree_digest(out))
    assert written[0] and written[0] == written[1] == written[2]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "seed0"), *TINY, "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert "--seed 0 is not the checkpoint's world seed 3" in err and "Traceback" not in err
    assert not (tmp_path / "seed0").exists()
    # the checkpoint is loaded before the config is built: damaged tensors
    # are reported (exit 2) before the seed mismatch (exit 1)
    damaged = tmp_path / "damaged"
    shutil.copytree(seed3_run / "run" / "checkpoint", damaged)
    write_tensor(damaged / "bias.scet", read_tensor(damaged / "bias.scet") + 1.0)
    argv[argv.index("--checkpoint") + 1] = str(damaged)
    assert main([*argv, "--out", str(tmp_path / "seed0"), *TINY, "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert f"checkpoint {damaged}: meta.txt has sha256=" in err and "Traceback" not in err


def test_eval_detect_rejects_a_checkpoint_of_another_world(tiny_run, seed3_run, tmp_path,
                                                           capsys, monkeypatch):
    # the seed-3 checkpoint on a seed-0 corpus of its grid, and on a seed-5
    # corpus of another grid: exit 2 naming both config.txt files, before
    # any sample is read
    def no_reading(*args, **kwargs):
        raise AssertionError("the corpus was read")

    other = tmp_path / "other"
    assert main(["gen", "--count", "12", "--out", str(other), "--crop", "48", "--patch", "12",
                 "--d", "14", "--d-aux", "4", "--seed", "5"]) == 0
    monkeypatch.setattr(cli, "read_corpus", no_reading)
    checkpoint = seed3_run / "run" / "checkpoint"
    capsys.readouterr()
    for corpus, ours, theirs in ((tiny_run / "corpus", "seed=3", "seed=0"),
                                 (other, "crop=32, patch=8, seed=3", "crop=48, patch=12, seed=5")):
        rc = main(["eval-detect", "--manifest", str(corpus / "manifest.txt"),
                   "--checkpoint", str(checkpoint), "--budget", "2",
                   "--out", str(tmp_path / "det"), *TINY])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"checkpoint world {checkpoint / 'config.txt'} has {ours}, "
                f"corpus world {corpus / 'config.txt'} has {theirs}") in err
        assert "Traceback" not in err and not (tmp_path / "det").exists()


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
    # with or without a checkpoint of the corpus's world, which it would read
    (tmp_path / "ck").mkdir()
    shutil.copy(corpus / "config.txt", tmp_path / "ck")
    for checkpoint in ([], ["--checkpoint", str(tmp_path / "ck")]):
        rc = main(["ablate", "--axis", "drop_rate", "--manifest", manifest, *checkpoint,
                   "--out", str(tmp_path / "a"), *TINY])
        assert rc == 1
    err = capsys.readouterr().err
    assert err.count("takes no --checkpoint") == 3 and err.count("takes no --manifest") == 2
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
    "eval-match --checkpoint": {"seed", "pairs", "drop_rate"},
    "eval-detect": {"heatmaps", "softargmax_temp", "reg_lr", "reg_steps", "reg_optimizer",
                    "momentum", "holdout", "repeats", "seed"},
    "ablate --axis drop_rate": {"crop", "patch", "d", "d_aux", "seed", "pairs"},
    "ablate --axis drop_rate --checkpoint": {"seed", "pairs"},
    "ablate --axis eta": {"seed", "pairs", "kc", "tau", "r_aa", "r_ai", "r_ii", "d_proj",
                          "proj_lr", "proj_steps", "optimizer", "momentum"},
    "ablate --axis kc": {"seed", "pairs", "eta", "tau", "r_aa", "r_ai", "r_ii", "d_proj",
                         "proj_lr", "proj_steps", "optimizer", "momentum"},
    "ablate --axis repellence": {"seed", "pairs", "eta", "kc", "tau", "r_aa", "r_ai", "r_ii",
                                 "d_proj", "proj_lr", "proj_steps", "optimizer", "momentum"},
    "export-simmap": {"crop", "patch", "d", "d_aux", "seed"},
    "export-simmap --checkpoint": {"seed"},
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
    if form == "eval-detect":
        argv.append("--checkpoint")
    if argv[-1] == "--checkpoint":
        argv.append(checkpoint)
    return argv


def test_each_command_takes_only_the_config_flags_it_reads(tmp_path, capsys, monkeypatch):
    assert set(NON_DEFAULT) == {f.name for f in fields(ExperimentConfig)}
    # a corpus of no samples in the default world at NON_DEFAULT's seed, and
    # a checkpoint of its world: the forms that read either take its world,
    # and a checkpoint's seed is the only one its forms accept
    assert main(["gen", "--count", "0", "--out", str(tmp_path),
                 "--seed", NON_DEFAULT["seed"]]) == 0
    world = read_world(tmp_path)
    save_checkpoint(tmp_path / "ck", init_projector(world.d, world.d_proj, 0), world, seed=0)
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
    tiny = load_config(TINY_CONFIG)
    grid = ["--crop", str(tiny.crop), "--d", str(tiny.d), "--d-aux", str(tiny.d_aux)]
    for argv in (
        ["ablate", "--axis", "drop_rate", "--kc", "3", "--proj-steps", "7", *grid,
         "--pairs", "1", "--out", out],
        ["eval-match", "--eta", "0.3", *grid, "--pairs", "1", "--out", out],
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


@pytest.mark.parametrize(
    "use_checkpoint, kind, landmark", [(True, "same", 1), (False, "different", 3)]
)
def test_export_simmap_writes_the_library_map(tiny_run, tmp_path, use_checkpoint, kind, landmark):
    # the map is the matching protocol's own: one `pair_similarity` layer
    cfg = load_config(TINY_CONFIG)
    checkpoint = tiny_run / "run" / "checkpoint"
    proj = load_checkpoint(checkpoint)[0] if use_checkpoint else None
    expected = tmp_path / "expected.pgm"
    write_pgm(expected, pair_similarity(make_pair(cfg.face_spec(), kind, cfg.seed), proj)[landmark])
    out = tmp_path / "sim.pgm"
    extra = ["--checkpoint", str(checkpoint)] if use_checkpoint else []
    assert main(["export-simmap", *extra, "--kind", kind, "--landmark", str(landmark),
                 "--out", str(out), *TINY]) == 0
    assert out.read_bytes() == expected.read_bytes()


def test_ablate_takes_its_world_from_the_corpus(tmp_path):
    # a corpus drawn at seed 3, ablated at seed 0: every variant trains from
    # seed 0's init and is scored on pairs of the corpus's seed-3 world
    corpus, out = tmp_path / "corpus", tmp_path / "ab"
    assert main(["gen", "--count", "3", "--out", str(corpus), *TINY, "--seed", "3"]) == 0
    manifest = corpus / "manifest.txt"
    assert main(["ablate", "--axis", "kc", "--manifest", str(manifest), "--out", str(out),
                 *TINY, "--seed", "0"]) == 0
    tiny = load_config(TINY_CONFIG)
    samples = [read_sample(directory, TINY_SPEC)[0] for directory in read_manifest(manifest)]
    world = replace(tiny, seed=3)
    rows = [
        ("kc", kc, *kind_means(_match_sweep(world, [proj], (0.0,))[0, 0], tiny.pairs))
        for kc in cli.KC_SWEEP
        for proj in [train_projector(samples, replace(tiny, kc=kc, seed=0))[0]]
    ]
    write_csv(tmp_path / "want.csv", [("axis", "value", "same_mean_px", "diff_mean_px"), *rows])
    assert (out / "ablate_kc.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    # the corpus's crop, d and d_aux, not the defaults, with no --config
    assert main(["ablate", "--axis", "eta", "--manifest", str(manifest), "--out", str(out),
                 "--proj-steps", "1", "--d-proj", str(tiny.d_proj), "--pairs", "1"]) == 0


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
            target = out / "sim.pgm" if form.startswith("export-simmap") else out
            assert main([*argv, "--out", str(target), *settings]) == 0, (form, tag)
            written.append(_tree_digest(out))
        assert written[0] and written[0] == written[1], form
