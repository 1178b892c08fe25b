import re
from dataclasses import FrozenInstanceError, asdict, fields

import pytest

from selcorr.config import ConfigError, ExperimentConfig, load_config
from selcorr.tensorio import write_key_values

# generator statistics that were config keys; an older gen wrote them into config.txt
GENERATOR_KEYS = (
    "sigma_lm", "sigma_bg", "identity_sigma", "proto_corr", "pos_gamma", "beta", "tps_sigma_frac"
)


def test_default_values():
    cfg = ExperimentConfig()
    assert cfg.eta == 0.25
    assert cfg.kc == 4
    assert cfg.tau == 0.07
    assert (cfg.r_aa, cfg.r_ai, cfg.r_ii) == (5.0, 5.0, 2.0)
    # dot-product logits stay a library option (lcr's cosine=), not a key;
    # no command ever resized an image; the generator statistics are synth constants
    assert {"rho_verbatim", "cosine", "resize", *GENERATOR_KEYS}.isdisjoint(
        f.name for f in fields(cfg)
    )
    assert (cfg.crop, cfg.patch) == (96, 8)
    assert cfg.heatmaps == 50
    assert cfg.proj_steps == 200 and cfg.proj_lr == 1e-3
    assert cfg.optimizer == "gd"
    assert cfg.d == 32 and cfg.d_aux == 16 and cfg.d_proj == 16


def test_config_is_frozen():
    # a built config stays in range: a field is changed only through
    # `dataclasses.replace`, which checks the new record
    cfg = ExperimentConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.kc = 0
    assert cfg.kc == 4


def test_parse_lines_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full line comment\n"
        "\n"
        "eta = 0.1   # trailing comment\n"
        "kc=2\n"
        "   \n"
    )
    assert load_config(path) == ExperimentConfig(eta=0.1, kc=2)


@pytest.mark.parametrize("bad", ["just words", "=0.5", "   = 3"])
def test_parse_lines_rejects_malformed(tmp_path, bad):
    path = tmp_path / "run.cfg"
    path.write_text("kc=2\n" + bad)
    with pytest.raises(ConfigError, match="run.cfg: line 2: expected key=value"):
        load_config(path)


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
    # and the resize key, which no command read
    path.write_text("resize=136\n")
    with pytest.raises(ConfigError, match="unknown config key 'resize'"):
        load_config(path)
    # and the generator statistics, now fixed in synth
    for key in GENERATOR_KEYS:
        path.write_text(f"{key}=0.1\n")
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(path)


def test_dump_load_roundtrip(tmp_path):
    # the config.txt that gen writes
    cfg = ExperimentConfig(eta=0.4, kc=2, optimizer="momentum", seed=9)
    path = tmp_path / "dump.cfg"
    text = write_key_values(path, asdict(cfg))
    assert path.read_text() == text
    assert "rho_verbatim" not in text and "cosine" not in text and "resize" not in text
    assert "eta=0.4\n" in text
    assert load_config(path) == cfg


@pytest.mark.parametrize(
    "overrides",
    [
        {"eta": "0.0"},
        {"eta": "1.0"},
        {"kc": "0"},
        {"heatmaps": "0"},
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
        {"d": "7"},  # below the 14 channels of the default layout
        {"momentum": "-0.1"},
        {"reg_lr": "0"},
        {"reg_steps": "-1"},
        {"r_aa": "-1"},
        {"r_ai": "-1"},
        {"r_ii": "-1"},
        {"softargmax_temp": "0"},
        {"d_proj": "1"},
        {"seed": "-1"},
        {"patch": "0"},
        {"d_aux": "0"},
        {"crop": "8"},  # one token: the split needs two
    ],
)
def test_validation_rejects(overrides):
    with pytest.raises(ConfigError) as info:
        load_config(overrides=overrides)
    # the message names the key, as in "reg_lr must be positive, got 0.0"
    (key,) = overrides
    assert re.search(rf"\b{key}\b", str(info.value))


def test_validation_messages():
    with pytest.raises(ConfigError, match=r"^reg_lr must be positive, got 0\.0$"):
        load_config(overrides={"reg_lr": "0"})
    with pytest.raises(ConfigError, match=r"^momentum must be in \[0, 1\), got 1\.0$"):
        load_config(overrides={"momentum": "1"})
    with pytest.raises(ConfigError, match=r"^optimizer must be 'gd' or 'momentum', got 'adam'$"):
        load_config(overrides={"optimizer": "adam"})
    with pytest.raises(ConfigError, match=r"^crop must be a positive multiple of patch, got 90$"):
        load_config(overrides={"crop": "90"})
    # the layout's largest coordinate, 80 of 96, lands on the last pixel at crop 6
    with pytest.raises(ConfigError, match=r"^crop must be >= 6 to hold the landmark layout, got 4$"):
        load_config(overrides={"crop": "4", "patch": "4"})
    load_config(overrides={"crop": "6", "patch": "3"})
    # a grid of one token has nothing to split into attentive and inattentive
    with pytest.raises(ConfigError, match=r"^crop must be >= 2 \* patch, got 8$"):
        load_config(overrides={"crop": "8", "patch": "8"})
    load_config(overrides={"crop": "16", "patch": "8"})


@pytest.mark.parametrize(
    "key, value",
    [
        ("crop", 4_000_000_000),
        ("crop", 2**63 - 8),
        ("heatmaps", 4_000_000_000),
        ("heatmaps", 2**63 - 1),
    ],
)
def test_grid_sizes_bounded_by_the_arrays_they_imply(key, value):
    with pytest.raises(ConfigError, match=f"^{key} = {value} implies a [0-9]+-byte array"):
        load_config(overrides={key: str(value)})


@pytest.mark.parametrize(
    "patch, largest",
    [
        # the (crop, crop, d) maps: 8 * crop**2 * 32 bytes is exactly 2**40
        (128, 2**16),
        # the (tokens, tokens) locality matrix: 608**4 * 8 bytes fits, 609**4 * 8 does not
        (8, 608 * 8),
    ],
)
def test_largest_crop_within_the_array_limit(patch, largest):
    load_config(overrides={"patch": str(patch), "crop": str(largest)})
    with pytest.raises(ConfigError, match=f"^crop = {largest + patch} implies"):
        load_config(overrides={"patch": str(patch), "crop": str(largest + patch)})


def test_face_spec_scales_with_crop():
    cfg = ExperimentConfig(crop=48)
    spec = cfg.face_spec()
    assert spec.image_size == 48
    # layout is defined on a 96-pixel crop and scales linearly
    full = ExperimentConfig().face_spec()
    for (x, y), (fx, fy) in zip(spec.landmarks_px, full.landmarks_px):
        assert (x, y) == (fx * 0.5, fy * 0.5)
    assert spec.d == cfg.d and spec.d_aux == cfg.d_aux
    assert spec.prototype_seed == cfg.seed
