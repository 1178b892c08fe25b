"""Experiment configuration: a flat key=value record shared by all commands.

Every field can come from a config file line, and from a same-named flag of
each command that reads it; flags win over the file, the file over defaults.
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


# the largest float64 array a configuration may imply, 1 TiB: numpy would
# fail on a larger one (out of memory, or past its own size limit) only
# after work has begun, so `validate` rejects it as a usage error
MAX_ARRAY_BYTES = 2**40


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
    # grid sizes: image geometry and channel counts
    crop: int = 96
    patch: int = 8
    d: int = 32
    d_aux: int = 16
    d_proj: int = 16
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
            # larger ints overflow numpy, deque and float conversions downstream
            if f.type == "int" and abs(value) >= 2**63:
                raise ConfigError(f"{f.name} must be below 2**63 in magnitude")
        if not 0.0 < self.eta < 1.0:
            raise ConfigError(f"eta must be in (0, 1), got {self.eta}")
        if self.kc < 1 or self.heatmaps < 1:
            raise ConfigError("kc and heatmaps must be >= 1")
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
        self._check_array_sizes()

    def _check_array_sizes(self) -> None:
        """Bound `crop` and `heatmaps` by the largest arrays they imply.

        A (crop, crop) map per landmark or channel bounds the token grids,
        their row blends and the similarity stacks, and the projector's
        locality matrix is (tokens, tokens); the detector's conv is
        (landmarks * heatmaps, 3, 3, d + d_proj) and each sample's heatmaps
        (landmarks * heatmaps, tokens).
        """
        spec = self.face_spec()
        tokens = spec.grid_size**2
        per_pixel = max(spec.n_landmarks, self.d, self.d_aux, self.d_proj)
        sizes = {
            "crop": 8 * max(self.crop**2 * per_pixel, tokens**2),
            "heatmaps": 8 * spec.n_landmarks * self.heatmaps
            * max(9 * (self.d + self.d_proj), tokens),
        }
        for key, size in sizes.items():
            if size > MAX_ARRAY_BYTES:
                raise ConfigError(
                    f"{key} = {getattr(self, key)} implies a {size}-byte array, "
                    f"above the {MAX_ARRAY_BYTES}-byte limit"
                )

    def face_spec(self) -> SyntheticFaceSpec:
        """Base face geometry at the configured crop and channel counts.

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


def load_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Defaults, then the config file, then explicit overrides; validated."""
    values: dict[str, str] = {}
    if path is not None:
        # read outside the try: a file that does not decode is a data error, not usage
        text = Path(path).read_text()
        try:
            values.update(parse_key_values(text, str(path)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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

