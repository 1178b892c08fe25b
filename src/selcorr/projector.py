"""Per-token affine projector, its training, and the item mean and descent
loop that both trainers (this one and the detection regressor's) share.

The backbone is frozen, so each image's partition, clustering and
substitution are computed once and reused every step; only the projector
weight and bias move. Each step runs the loss on an image's distinct
rows only. The corpus gradient is the mean of per-image gradients
obtained by chaining the repellence-loss gradient through the affine map.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, read_world
from .dpc import approximate_inattentive, cluster_tokens
from .lcr import locality_matrix, loss_and_gradient, pair_weight
from .partition import cls_similarity, split_tokens
from .synth import BackboneOutput
from .tensorio import (
    FeatureGrid,
    NonFiniteError,
    cell_centers,
    norm,
    read_meta,
    read_tensor,
    write_key_values,
    write_tensor,
)

_INIT_TAG = 31


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss, feature norm or update; `step` is
    where it happened."""

    def __init__(self, step: int, what: str = "loss"):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


@dataclass
class Projector:
    """Affine per-token map: token (d,) -> weight.T @ token + bias (out_dim,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ValueError(
                f"inconsistent parameter shapes {self.weight.shape} / {self.bias.shape}"
            )
        if self.weight.shape[1] < 2:
            raise ValueError("output dimension must be >= 2")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("non-finite projector parameters")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]


def mean_of(
    items: Iterable[tuple[float, list[np.ndarray]]],
) -> tuple[float, list[np.ndarray]]:
    """The mean loss and mean gradients of (loss, grads) items, at least one.

    Both are summed in item order, the gradients in place: the first item's
    arrays become the sums and then the means, so each item must bring
    fresh arrays.
    """
    total = 0.0
    grads = None
    for count, (loss, item_grads) in enumerate(items, start=1):
        total += loss
        if grads is None:
            grads = item_grads
        else:
            for acc, g in zip(grads, item_grads):
                acc += g
    for g in grads:
        g /= count
    return total / count, grads


@np.errstate(over="ignore", invalid="ignore")
def descend(
    params: list[np.ndarray],
    loss_and_grads: Callable[[list[np.ndarray]], tuple[float, list[np.ndarray]]],
    lr: float,
    steps: int,
    optimizer: str,
    momentum: float,
) -> tuple[list[np.ndarray], list[float]]:
    """`steps` steps of gradient descent (`optimizer` "gd", or "momentum"
    with coefficient `momentum`) at rate `lr` on a mean loss.

    `loss_and_grads(params)` returns the step's mean loss and mean
    gradients at `params` (`mean_of` averages items so), one fresh gradient
    per array, which `descend` may overwrite. It updates a copy of `params`
    in place, and the momentum too, so the arrays it is given are left as
    they are. Returns the final arrays and each step's mean loss;
    a non-finite mean loss, a `NonFiniteError` from `loss_and_grads` or a
    non-finite array after an update raises `DivergenceError`. Overflow and
    invalid-value warnings are silenced here, since those checks report them.
    """
    params = [p.copy() for p in params]
    losses: list[float] = []
    vel = None
    for step in range(steps):
        try:
            mean_loss, update = loss_and_grads(params)
        except NonFiniteError:
            raise DivergenceError(step, "features") from None
        if not np.isfinite(mean_loss):
            raise DivergenceError(step)
        losses.append(mean_loss)
        if optimizer == "momentum":
            if vel is None:
                vel = update
            else:
                for v, g in zip(vel, update):
                    v *= momentum
                    v += g
            update = vel
        for p, u in zip(params, update):
            p -= lr * u
        if not all(np.isfinite(p).all() for p in params):
            raise DivergenceError(step, "parameters")
    return params, losses


def init_projector(in_dim: int, out_dim: int, seed: int) -> Projector:
    """Uniform(-1/sqrt(d), 1/sqrt(d)) weights, zero bias."""
    if in_dim < 1:
        raise ValueError("input dimension must be >= 1")
    rng = np.random.default_rng([_INIT_TAG, seed])
    bound = 1.0 / np.sqrt(in_dim)
    return Projector(
        weight=rng.uniform(-bound, bound, size=(in_dim, out_dim)),
        bias=np.zeros(out_dim),
    )


def project(p: Projector, grid: FeatureGrid) -> FeatureGrid:
    """Apply the affine map to every token; geometry is preserved."""
    if grid.channels != p.in_dim:
        raise ValueError(f"grid has {grid.channels} channels, projector expects {p.in_dim}")
    return FeatureGrid(grid.grid_h, grid.grid_w, grid.patch, grid.features @ p.weight + p.bias)


@functools.lru_cache(maxsize=4)
def _grid_locality(grid_h: int, grid_w: int) -> np.ndarray:
    """`lcr.locality_matrix` of a token grid in cell units (the centres of
    1-pixel cells), shared read-only by every image on it."""
    locality = locality_matrix(cell_centers(grid_h, grid_w, 1))
    locality.flags.writeable = False
    return locality


def prepare_image(
    output: BackboneOutput, cfg: ExperimentConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Everything about one image that does not depend on projector weights,
    at the config's `eta`, `kc` and repellence weights.

    Substitution makes every inattentive token a copy of its cluster
    center's row, so the image has only m = |attentive| + (number of
    centers) distinct rows, the entries of `approximate_inattentive`'s
    source index. Returns those first-stage rows (m, d), the pair weight
    folded onto them (m, m) and their log multiplicities (m,):
    `loss_and_gradient` on these is the loss on all N tokens (see `lcr`).
    """
    grid = output.main
    part = split_tokens(cls_similarity(output.q_cls, output.keys), cfg.eta)
    assignment = cluster_tokens(output.aux.features[part.inattentive], cfg.kc)
    source = approximate_inattentive(grid.n_tokens, part.inattentive, assignment.member_center)
    rows, member, counts = np.unique(source, return_inverse=True, return_counts=True)
    labels = np.zeros(grid.n_tokens, dtype=bool)
    labels[part.attentive] = True
    onehot = np.eye(rows.size)[member]  # (N, m) membership
    locality = _grid_locality(grid.grid_h, grid.grid_w)
    folded = onehot.T @ pair_weight(locality, labels, cfg) @ onehot / counts
    distinct = grid.features[rows]
    norm(distinct, axis=1)  # a kept row too large to normalize is a data error, not divergence
    return distinct, folded, np.log(counts)


def projector_checksum(p: Projector) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(p.weight).tobytes())
    digest.update(np.ascontiguousarray(p.bias).tobytes())
    return digest.hexdigest()


def train_projector(
    corpus: Iterable[BackboneOutput], cfg: ExperimentConfig
) -> tuple[Projector, list[float]]:
    """Minimize the mean per-image repellence loss (cosine logits at `tau`)
    over a frozen corpus from a `seed` init: `proj_steps` steps of
    `optimizer` at `proj_lr` (and `momentum`). Returns the `d_proj`-output
    projector and each step's mean loss. Only each image's prepared rows are
    kept, so `corpus` may be a one-pass stream.
    """
    prepared = [prepare_image(out, cfg) for out in corpus]
    if not prepared:
        raise ValueError("corpus is empty")
    init = init_projector(prepared[0][0].shape[1], cfg.d_proj, cfg.seed)

    def image_loss(w, b, feats, weight, log_counts):
        # chain rule through the affine map: phi = feats @ w + b
        loss, g_phi = loss_and_gradient(feats @ w + b, weight, tau=cfg.tau, log_counts=log_counts)
        return loss, [feats.T @ g_phi, g_phi.sum(axis=0)]

    def loss_and_grads(params):
        return mean_of(image_loss(*params, *image) for image in prepared)

    (w, b), losses = descend(
        [init.weight, init.bias], loss_and_grads, cfg.proj_lr, cfg.proj_steps, cfg.optimizer,
        cfg.momentum,
    )
    return Projector(w, b), losses


def save_checkpoint(
    directory: str | Path, p: Projector, world: ExperimentConfig, seed: int
) -> str:
    """Write weight/bias tensors, the `world` they were trained on as
    `config.txt` (its `d` and `d_proj` are the projector's dimensions) and
    `meta.txt` with the init `seed` and the tensors' sha256; returns it."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_tensor(directory / "weight.scet", p.weight)
    write_tensor(directory / "bias.scet", p.bias)
    write_key_values(directory / "config.txt", asdict(world))
    digest = projector_checksum(p)
    write_key_values(directory / "meta.txt", {"seed": seed, "sha256": digest})
    return digest


def load_checkpoint(directory: str | Path) -> tuple[Projector, ExperimentConfig]:
    """Inverse of `save_checkpoint`: the projector and its world. The
    tensors must match the sha256 of `meta.txt` and the `d` and `d_proj` of
    the `config.txt` world (`read_world`); otherwise ValueError."""
    directory = Path(directory)
    meta = read_meta(directory / "meta.txt")
    world = read_world(directory)
    weight = read_tensor(directory / "weight.scet")
    bias = read_tensor(directory / "bias.scet")
    try:
        p = Projector(weight, bias)
    except ValueError as exc:
        raise ValueError(f"checkpoint {directory}: {exc}") from None
    for name, key, recorded, value in (
        ("meta.txt", "sha256", meta.get("sha256"), projector_checksum(p)),
        ("config.txt", "d", world.d, p.in_dim),
        ("config.txt", "d_proj", world.d_proj, p.out_dim),
    ):
        if recorded != value:
            raise ValueError(
                f"checkpoint {directory}: {name} has {key}={recorded}, the tensors give {value}"
            )
    return p, world
