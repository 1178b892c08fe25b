"""Experiment configuration: a flat key=value record shared by all commands.

Every field can come from a config file line or a command-line flag of the
same name; flags win over the file, the file wins over defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .lcr import RepellenceConfig
from .projector import OptimConfig, TrainConfig
from .synth import DEFAULT_ANCHORS, DEFAULT_LANDMARKS, SyntheticFaceSpec
from .tensorio import parse_key_values


class ConfigError(ValueError):
    """Unknown key or unparseable value; a usage error, not a data error."""


@dataclass
class ExperimentConfig:
    # token split, clustering, repellence loss
    eta: float = 0.25
    kc: int = 4
    tau: float = 0.07
    r_aa: float = 5.0
    r_ai: float = 5.0
    r_ii: float = 2.0
    drop_rate: float = 0.0
    # image geometry
    resize: int = 136
    crop: int = 96
    patch: int = 8
    # generator statistics
    d: int = 32
    d_aux: int = 16
    d_proj: int = 16
    sigma_lm: float = 0.2
    sigma_bg: float = 0.2
    identity_sigma: float = 0.18
    proto_corr: float = 0.96
    pos_gamma: float = 6.0
    beta: float = 6.0
    tps_sigma_frac: float = 0.05
    # projector training
    proj_lr: float = 1e-3
    proj_steps: int = 200
    optimizer: str = "gd"
    momentum: float = 0.9
    # detection regressor
    heatmaps: int = 50
    softargmax_temp: float = 0.1
    reg_lr: float = 2e-2
    reg_steps: int = 200
    reg_optimizer: str = "momentum"
    holdout: int = 8
    repeats: int = 1
    # matching protocol
    pairs: int = 500
    # randomness
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not 0.0 < self.eta < 1.0:
            raise ConfigError(f"eta must be in (0, 1), got {self.eta}")
        if self.kc < 1 or self.heatmaps < 1:
            raise ConfigError("kc and heatmaps must be >= 1")
        if self.crop > self.resize:
            raise ConfigError(f"crop {self.crop} exceeds resize {self.resize}")
        if self.patch < 1 or self.crop < self.patch or self.crop % self.patch != 0:
            raise ConfigError("patch must be >= 1 and crop a positive multiple of it")
        if self.seed < 0 or self.d_proj < 2:
            raise ConfigError("seed must be >= 0 and d_proj >= 2")
        if self.softargmax_temp <= 0.0:
            raise ConfigError(f"softargmax_temp must be positive, got {self.softargmax_temp}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigError(f"drop rate must be in [0, 1), got {self.drop_rate}")
        if self.pairs < 0 or self.holdout < 1 or self.repeats < 1:
            raise ConfigError("pairs must be >= 0; holdout and repeats >= 1")
        try:
            self.face_spec()
            self.repellence().validate()
            self.projector_train().validate()
            self.regressor_train().validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def face_spec(self) -> SyntheticFaceSpec:
        """Base face geometry at the configured crop, statistics per config.

        The default landmark/anchor layout is defined on a 96-pixel crop
        and scales with it.
        """
        s = self.crop / 96.0
        return SyntheticFaceSpec(
            landmarks_px=tuple((x * s, y * s) for x, y in DEFAULT_LANDMARKS),
            region_anchors_px=tuple((x * s, y * s) for x, y in DEFAULT_ANCHORS),
            image_size=self.crop,
            patch=self.patch,
            prototype_seed=self.seed,
            identity_seed=0,
            sigma_lm=self.sigma_lm,
            sigma_bg=self.sigma_bg,
            identity_sigma=self.identity_sigma,
            proto_corr=self.proto_corr,
            pos_gamma=self.pos_gamma,
            beta=self.beta,
            d=self.d,
            d_aux=self.d_aux,
        )

    def repellence(self) -> RepellenceConfig:
        return RepellenceConfig(
            r_att_att=self.r_aa,
            r_att_inatt=self.r_ai,
            r_inatt_inatt=self.r_ii,
            tau=self.tau,
        )

    def projector_train(self) -> TrainConfig:
        return TrainConfig(
            lr=self.proj_lr,
            steps=self.proj_steps,
            seed=self.seed,
            eta=self.eta,
            kc=self.kc,
            repel=self.repellence(),
            optimizer=self.optimizer,
            momentum=self.momentum,
        )

    def regressor_train(self, seed: int | None = None) -> OptimConfig:
        return OptimConfig(
            lr=self.reg_lr,
            steps=self.reg_steps,
            seed=self.seed if seed is None else seed,
            optimizer=self.reg_optimizer,
            momentum=self.momentum,
        )


def parse_config_lines(text: str, origin: str = "config") -> dict[str, str]:
    """`tensorio.parse_key_values`, its errors raised as ConfigError."""
    try:
        return parse_key_values(text, origin)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Defaults, then the config file, then explicit overrides; validated."""
    values: dict[str, str] = {}
    if path is not None:
        values.update(parse_config_lines(Path(path).read_text(), str(path)))
    values.update(overrides or {})
    by_name = {f.name: f for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, raw in values.items():
        if key not in by_name:
            raise ConfigError(f"unknown config key {key!r}")
        ftype = {"int": int, "float": float, "str": str}[by_name[key].type]
        try:
            kwargs[key] = ftype(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg

