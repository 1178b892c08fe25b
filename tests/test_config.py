from dataclasses import asdict, fields

import pytest

from selcorr.config import ConfigError, ExperimentConfig, load_config, parse_config_lines
from selcorr.tensorio import write_key_values


def test_default_values():
    cfg = ExperimentConfig()
    assert cfg.eta == 0.25
    assert cfg.kc == 4
    assert cfg.tau == 0.07
    assert (cfg.r_aa, cfg.r_ai, cfg.r_ii) == (5.0, 5.0, 2.0)
    # dot-product logits stay a library option (RepellenceConfig), not a key
    assert {"rho_verbatim", "cosine"}.isdisjoint(f.name for f in fields(cfg))
    assert (cfg.resize, cfg.crop, cfg.patch) == (136, 96, 8)
    assert cfg.heatmaps == 50
    assert cfg.proj_steps == 200 and cfg.proj_lr == 1e-3
    assert cfg.optimizer == "gd"
    assert cfg.d == 32 and cfg.d_aux == 16 and cfg.d_proj == 16
    cfg.validate()


def test_parse_lines_skips_comments_and_blanks():
    parsed = parse_config_lines(
        "# full line comment\n"
        "\n"
        "eta = 0.1   # trailing comment\n"
        "kc=2\n"
        "   \n"
    )
    assert parsed == {"eta": "0.1", "kc": "2"}


@pytest.mark.parametrize("bad", ["just words", "=0.5", "   = 3"])
def test_parse_lines_rejects_malformed(bad):
    with pytest.raises(ConfigError, match="run.cfg: line 2: expected key=value"):
        parse_config_lines("kc=2\n" + bad, "run.cfg")


def test_precedence_defaults_file_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("eta=0.1\nkc=2\n")
    cfg = load_config(path, overrides={"kc": "8"})
    assert cfg.eta == 0.1  # from file
    assert cfg.kc == 8  # flag wins over file
    assert cfg.tau == 0.07  # untouched default


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown"):
        load_config(overrides={"learning_rate": "0.1"})
    path = tmp_path / "run.cfg"
    path.write_text("etaa=0.1\n")
    with pytest.raises(ConfigError):
        load_config(path)
    # the verbatim density knob is gone: it overflowed on every default corpus
    path.write_text("rho_verbatim=false\n")
    with pytest.raises(ConfigError, match="unknown config key 'rho_verbatim'"):
        load_config(path)
    # so is the dot-product switch: a config.txt from an older gen carries it
    path.write_text("cosine=true\n")
    with pytest.raises(ConfigError, match="unknown config key 'cosine'"):
        load_config(path)


def test_dump_load_roundtrip(tmp_path):
    # the config.txt that gen writes
    cfg = ExperimentConfig(eta=0.4, kc=2, optimizer="momentum", seed=9)
    path = tmp_path / "dump.cfg"
    text = write_key_values(path, asdict(cfg))
    assert path.read_text() == text
    assert "rho_verbatim" not in text and "cosine" not in text
    assert "eta=0.4\n" in text
    assert load_config(path) == cfg


@pytest.mark.parametrize(
    "overrides",
    [
        {"eta": "0.0"},
        {"eta": "1.0"},
        {"kc": "0"},
        {"heatmaps": "0"},
        {"crop": "144"},  # exceeds resize
        {"crop": "90"},  # not a multiple of patch
        {"drop_rate": "1.0"},
        {"drop_rate": "-0.1"},
        {"pairs": "-1"},
        {"holdout": "0"},
        {"repeats": "0"},
        {"tau": "0"},
        {"proj_lr": "0"},
        {"proj_steps": "-1"},
        {"optimizer": "adam"},
        {"reg_optimizer": "adagrad"},
        {"momentum": "1.5"},
        {"eta": "fast"},  # not a number
    ],
)
def test_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        load_config(overrides=overrides)


def test_face_spec_scales_with_crop():
    cfg = ExperimentConfig(crop=48, resize=72)
    spec = cfg.face_spec()
    assert spec.image_size == 48
    # layout is defined on a 96-pixel crop and scales linearly
    full = ExperimentConfig().face_spec()
    for (x, y), (fx, fy) in zip(spec.landmarks_px, full.landmarks_px):
        assert (x, y) == (fx * 0.5, fy * 0.5)
    assert spec.d == cfg.d and spec.d_aux == cfg.d_aux
    assert spec.prototype_seed == cfg.seed


def test_train_config_wiring():
    cfg = ExperimentConfig(proj_lr=0.5, reg_lr=0.25, seed=3)
    pt = cfg.projector_train()
    assert pt.lr == 0.5 and pt.optimizer == "gd" and pt.seed == 3
    assert pt.repel.tau == cfg.tau
    rt = cfg.regressor_train()
    assert rt.lr == 0.25 and rt.optimizer == "momentum" and rt.seed == 3
    # the regressor gets optimiser settings only, none of the projector's
    assert [f.name for f in fields(rt)] == ["lr", "steps", "seed", "optimizer", "momentum"]
    assert cfg.regressor_train(seed=7).seed == 7
