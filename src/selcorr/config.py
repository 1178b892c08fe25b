"""Experiment configuration: a flat key=value record shared by all commands.

Every field can come from a config file line, and from a same-named flag of
each command that reads it; flags win over the file, the file over defaults.
The library reads the same record: `lcr` its repellence weights, and the
projector and detector trainers their keys. A record checks its own ranges
when it is built, so every config that exists, whether `load_config` or
`dataclasses.replace` built it, is in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .synth import DEFAULT_ANCHORS, DEFAULT_LANDMARKS, SyntheticFaceSpec
from .tensorio import parse_key_values, read_meta


class ConfigError(ValueError):
    """Unknown key or unparseable value; a usage error, not a data error."""


# the largest float64 array a configuration may imply, 1 TiB: numpy would
# fail on a larger one (out of memory, or past its own size limit) only
# after work has begun, so a config that implies one is a usage error
MAX_ARRAY_BYTES = 2**40

# the keys of a world record, the `config.txt` of a corpus or a checkpoint:
# the synthetic world's grid and seed, and a checkpoint's `d_proj`
WORLD_KEYS = ("crop", "patch", "d", "d_aux", "seed", "d_proj")

# the default landmark/anchor layout is drawn on a LAYOUT_CROP-pixel image and
# scales with the crop; its largest coordinate, 80, stays inside the image
# (at most crop - 1) from MIN_CROP = 6 up
LAYOUT_CROP = 96
MIN_CROP = math.ceil(
    LAYOUT_CROP / (LAYOUT_CROP - max(max(p) for p in DEFAULT_LANDMARKS + DEFAULT_ANCHORS))
)


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        """Raise ConfigError naming the first key whose value is out of range."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            # larger ints overflow numpy, deque and float conversions downstream
            if f.type == "int" and abs(value) >= 2**63:
                raise ConfigError(f"{f.name} must be below 2**63 in magnitude")
        optimizers = ("gd", "momentum")
        ranges = (
            ("eta", 0.0 < self.eta < 1.0, "in (0, 1)"),
            ("kc", self.kc >= 1, ">= 1"),
            ("tau", self.tau > 0.0, "positive"),
            ("r_aa", self.r_aa >= 0.0, "non-negative"),
            ("r_ai", self.r_ai >= 0.0, "non-negative"),
            ("r_ii", self.r_ii >= 0.0, "non-negative"),
            ("drop_rate", 0.0 <= self.drop_rate < 1.0, "in [0, 1)"),
            ("patch", self.patch >= 1, ">= 1"),
            ("crop", self.crop >= 1 and self.crop % max(self.patch, 1) == 0,
             "a positive multiple of patch"),
            ("crop", self.crop >= MIN_CROP, f">= {MIN_CROP} to hold the landmark layout"),
            # one token cannot be split into attentive and inattentive ones
            ("crop", self.crop >= 2 * self.patch, ">= 2 * patch"),
            ("d_proj", self.d_proj >= 2, ">= 2"),
            ("proj_lr", self.proj_lr > 0.0, "positive"),
            ("proj_steps", self.proj_steps >= 0, ">= 0"),
            ("optimizer", self.optimizer in optimizers, "'gd' or 'momentum'"),
            ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
            ("heatmaps", self.heatmaps >= 1, ">= 1"),
            ("softargmax_temp", self.softargmax_temp > 0.0, "positive"),
            ("reg_lr", self.reg_lr > 0.0, "positive"),
            ("reg_steps", self.reg_steps >= 0, ">= 0"),
            ("reg_optimizer", self.reg_optimizer in optimizers, "'gd' or 'momentum'"),
            ("holdout", self.holdout >= 1, ">= 1"),
            ("repeats", self.repeats >= 1, ">= 1"),
            ("pairs", self.pairs >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
        )
        for key, ok, rule in ranges:
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)!r}")
        try:
            spec = self.face_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self._check_array_sizes(spec)

    def _check_array_sizes(self, spec: SyntheticFaceSpec) -> None:
        """Bound `crop` and `heatmaps` by the largest arrays they imply on
        `spec`, the config's `face_spec()`.

        A (crop, crop) map per landmark or channel bounds the token grids,
        their row blends and the similarity stacks, and the projector's
        locality matrix is (tokens, tokens); the detector's conv is
        (landmarks * heatmaps, 3, 3, d + d_proj) and each sample's heatmaps
        (landmarks * heatmaps, tokens).
        """
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

        The default landmark/anchor layout is defined on a LAYOUT_CROP-pixel
        crop and scales with it.
        """
        s = self.crop / LAYOUT_CROP
        return SyntheticFaceSpec(
            landmarks_px=tuple((x * s, y * s) for x, y in DEFAULT_LANDMARKS),
            region_anchors_px=tuple((x * s, y * s) for x, y in DEFAULT_ANCHORS),
            image_size=self.crop,
            patch=self.patch,
            prototype_seed=self.seed,
            d=self.d,
            d_aux=self.d_aux,
        )


def load_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Defaults, then the config file, then explicit overrides."""
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
    return ExperimentConfig(**kwargs)


def read_world(directory: str | Path) -> ExperimentConfig:
    """The world a corpus or checkpoint directory was made on, from its
    `config.txt`, which must hold every `WORLD_KEYS` key. That file is input
    data, so a missing, incomplete or invalid one raises OSError or
    ValueError naming it, not ConfigError."""
    path = Path(directory) / "config.txt"
    try:
        values = read_meta(path)
        missing = [key for key in WORLD_KEYS if key not in values]
        if missing:
            raise ConfigError(f"lacks {', '.join(missing)}")
        return load_config(None, values)
    except ValueError as exc:
        raise ValueError(f"world {path}: {exc}") from None
