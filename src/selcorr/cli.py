"""Command-line driver wiring the pipeline into reproducible experiments.

Commands: gen, train-projector, eval-match, eval-detect, ablate,
export-simmap. Every hyperparameter of the method and every grid size is a
config key that a `--config` file may set; a command takes flags only for
the keys it reads (`READS`). A corpus and a checkpoint each record the world
they were made on in their `config.txt`, and a command that reads one runs
on that world, not on grid flags. A command loads its checkpoint once, the
tensors with their world, before it builds its config. The synthetic world's statistics are
constants of `synth`. Reruns with identical seeds produce byte-identical
outputs at a fixed BLAS thread count: `eval-detect`'s GEMMs may round
differently on another (`OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS`, `MKL_NUM_THREADS`).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .config import WORLD_KEYS, ConfigError, ExperimentConfig, load_config, read_world
from .evaluation import (
    drop_mask,
    inter_ocular_error,
    kind_means,
    match_pair,
    pair_similarity,
    regressor_forward,
    train_regressor,
    write_pgm,
)
from .partition import cls_similarity
from .projector import (
    DivergenceError,
    Projector,
    load_checkpoint,
    save_checkpoint,
    train_projector,
)
from .synth import (
    LEFT_EYE,
    RIGHT_EYE,
    generate_backbone_output,
    make_pair,
    pair_seeds,
    read_corpus,
    sample_spec,
    write_sample,
)
from .tensorio import write_csv, write_key_values, write_manifest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

ETA_SWEEP = (0.1, 0.25, 0.4)
KC_SWEEP = (1, 2, 4, 8)
# Past ~0.96 the drop starts consuming top-scoring landmark cells, so the
# matching curve stays flat to a knee and then degrades sharply.
DROP_SWEEP = (0.0, 0.25, 0.5, 0.75, 0.875, 0.9375, 0.97, 0.99)
# a world's grid and seed: a corpus's `config.txt` records the world it was
# drawn from, a checkpoint's the one its corpus was drawn from (and its own
# `d_proj`), and every command that reads either runs on that one
GRID_KEYS = set(WORLD_KEYS) - {"d_proj"}
PROJECTOR_KEYS = {"eta", "kc", "tau", "r_aa", "r_ai", "r_ii", "d_proj", "proj_lr", "proj_steps",
                  "optimizer", "momentum", "seed"}
# the config keys each command form reads, the only ones it takes as flags.
# No ablate axis reads drop_rate (each sweeps or fixes it), drop_rate trains
# no projector, eta and kc sweep their own key, and the forms that read a
# corpus take its world from it; `seed` then seeds only the projector inits
# or the regressor's. The forms that read a checkpoint take its world and
# its seed from it; they keep `--seed` only so that one command line runs
# every form at one seed (tools/output_digests.py and perfbench pass it to
# each), and a seed other than the checkpoint's is a usage error
READS = {
    "gen": GRID_KEYS,
    "train-projector": PROJECTOR_KEYS,
    "eval-match": GRID_KEYS | {"pairs", "drop_rate"},
    "eval-match --checkpoint": {"seed", "pairs", "drop_rate"},
    "eval-detect": {"heatmaps", "softargmax_temp", "reg_lr", "reg_steps", "reg_optimizer",
                    "momentum", "holdout", "repeats", "seed"},
    "ablate --axis drop_rate": GRID_KEYS | {"pairs"},
    "ablate --axis drop_rate --checkpoint": {"seed", "pairs"},
    "ablate --axis eta": {"pairs"} | (PROJECTOR_KEYS - {"eta"}),
    "ablate --axis kc": {"pairs"} | (PROJECTOR_KEYS - {"kc"}),
    "ablate --axis repellence": {"pairs"} | PROJECTOR_KEYS,
    "export-simmap": GRID_KEYS,
    "export-simmap --checkpoint": {"seed"},
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2 (kept here for data errors), and
    no abbreviated flag is taken: `--d` could mean another key's `--d-proj`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(parser: argparse.ArgumentParser, keys: set[str]) -> None:
    parser.add_argument("--config", type=Path, default=None, help="key=value config file")
    for f in fields(ExperimentConfig):
        if f.name in keys:
            flag = "--" + f.name.replace("_", "-")
            parser.add_argument(flag, dest=f"k_{f.name}", default=None, metavar=f.type.upper())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selcorr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate a synthetic sample corpus")
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("train-projector", help="fit the projector on a corpus")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser(
        "eval-match",
        help="landmark matching on generated pairs (no manifest needed; "
        "pairs are derived from the config seed)",
    )
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("eval-detect", help="limited-annotation landmark detection")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--budget", type=int, default=20)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("ablate", help="hyperparameter sweeps as CSV")
    p.add_argument("--axis", choices=("eta", "kc", "repellence", "drop_rate"), required=True)
    p.add_argument("--manifest", type=Path, default=None)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("export-simmap", help="similarity map of one landmark as PGM")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--landmark", type=int, default=0)
    p.add_argument("--kind", choices=("same", "different"), default="same")
    p.add_argument("--out", type=Path, required=True)
    for name, cmd in sub.choices.items():
        # the keys that some form of the command reads
        _add_config_flags(cmd, set().union(*(v for k, v in READS.items() if k.split()[0] == name)))
    return parser


def _match_sweep(cfg: ExperimentConfig, projs: list[Projector | None], drop_rates) -> np.ndarray:
    """(projectors, rates, 2 * pairs, L) per-landmark pixel errors of the match
    protocol for each projector (None = raw features) at each drop rate.

    A pair depends only on the seed, `pairs` and the grid sizes, never on a
    projector or a drop rate, so each pair is generated and masked once, then
    featurized once per projector. Along axis 2 the first cfg.pairs rows are
    the same-identity pairs, the rest the different-identity pairs.
    """
    base = cfg.face_spec()
    seeds = pair_seeds(cfg.seed, 2 * cfg.pairs)
    errors = np.empty((len(projs), len(drop_rates), 2 * cfg.pairs, len(base.landmarks_px)))
    for i in range(2 * cfg.pairs):
        pair = make_pair(base, "same" if i < cfg.pairs else "different", seeds[i])
        test = pair.test
        scores = cls_similarity(test.q_cls, test.keys) if max(drop_rates) > 0.0 else None
        cells = (test.main.grid_h, test.main.grid_w, test.main.patch)
        masks = [drop_mask(scores, rate, *cells) if rate > 0.0 else None for rate in drop_rates]
        for p, proj in enumerate(projs):
            sims = pair_similarity(pair, proj)
            for r, mask in enumerate(masks):
                errors[p, r, i] = match_pair(pair, sims, test_mask=mask)
    return errors


def cmd_gen(cfg: ExperimentConfig, count: int, out: Path) -> int:
    if count < 0:
        raise ConfigError("count must be >= 0")
    out.mkdir(parents=True, exist_ok=True)
    base = cfg.face_spec()
    names = []
    for i in range(count):
        spec = sample_spec(base, cfg.seed, i)
        output = generate_backbone_output(spec, seed=i)
        name = f"sample_{i:04d}"
        write_sample(out / name, output, np.asarray(spec.landmarks_px))
        names.append(name)
    write_manifest(out / "manifest.txt", names)
    write_key_values(out / "config.txt", asdict(cfg))
    print(f"wrote {count} samples to {out}")
    return EXIT_OK


def cmd_train_projector(
    cfg: ExperimentConfig, manifest: Path, out: Path, world: ExperimentConfig
) -> int:
    # the checkpoint records the corpus's world with the keys this run reads;
    # `seed` stays the world's, and the init seed goes to meta.txt
    trained = replace(world, **{key: getattr(cfg, key) for key in PROJECTOR_KEYS - {"seed"}})
    corpus = (output for output, _ in read_corpus(manifest, cfg.face_spec()))
    proj, losses = train_projector(corpus, cfg)
    out.mkdir(parents=True, exist_ok=True)
    digest = save_checkpoint(out / "checkpoint", proj, trained, seed=cfg.seed)
    write_csv(out / "trace.csv", [("step", "loss"), *enumerate(losses)])
    last = losses[-1] if losses else float("nan")
    print(f"trained {cfg.proj_steps} steps, final_loss={last!r}, sha256={digest}")
    return EXIT_OK


def cmd_eval_match(cfg: ExperimentConfig, out: Path, proj: Projector | None) -> int:
    errors = _match_sweep(cfg, [proj], (cfg.drop_rate,))[0, 0]
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        (i, lid, "same" if i < cfg.pairs else "different", err)
        for (i, lid), err in np.ndenumerate(errors)
    ]
    write_csv(out / "match.csv", [("pair_id", "landmark_id", "kind", "err_px"), *rows])
    same, diff = kind_means(errors, cfg.pairs)
    summary = {"pairs": cfg.pairs, "same_mean_px": same, "diff_mean_px": diff}
    print(write_key_values(out / "summary.txt", summary).strip().replace("\n", " "))
    return EXIT_OK


def cmd_eval_detect(
    cfg: ExperimentConfig, manifest: Path, proj: Projector, budget: int, out: Path
) -> int:
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    # repeat r trains from seed + r, a config that would reject a seed past
    # int64 only after the earlier repeats ran
    if cfg.seed + cfg.repeats > 2**63:
        raise ConfigError(f"seed + repeats must be at most 2**63, got {cfg.seed + cfg.repeats}")
    # every file of every sample is read and checked, but only the stage-1
    # grid and landmarks of the first `budget` and the last `holdout` are
    # kept; an empty manifest raises before `count` is read
    samples = (
        (output.main, landmarks) for output, landmarks in read_corpus(manifest, cfg.face_spec())
    )
    train_samples, held_out = [], deque(maxlen=cfg.holdout)
    for count, sample in enumerate(samples, start=1):
        if count <= budget:
            train_samples.append(sample)
        held_out.append(sample)
    if count <= cfg.holdout:
        raise ValueError(f"corpus of {count} cannot reserve {cfg.holdout} held-out samples")
    train_n = min(budget, count - cfg.holdout)
    if train_n < budget:
        print(f"warning: budget {budget} clamped to {train_n}", file=sys.stderr)
    del train_samples[train_n:]
    gts = np.stack([lm for _, lm in held_out])
    runs = []
    for rep in range(cfg.repeats):
        params, _ = train_regressor(train_samples, proj, replace(cfg, seed=cfg.seed + rep))
        preds = np.stack(
            [regressor_forward(params, grid, proj, cfg.softargmax_temp) for grid, _ in held_out]
        )
        runs.append(inter_ocular_error(preds, gts, LEFT_EYE, RIGHT_EYE))
    out.mkdir(parents=True, exist_ok=True)
    rows = [(s, l, err) for (s, l), err in np.ndenumerate(runs[0])]
    write_csv(out / "detect.csv", [("sample_id", "landmark_id", "err_iod_pct"), *rows])
    means = [float(errors.mean()) for errors in runs]
    mean = float(np.mean(means))
    std = float(np.std(means))
    summary = {"budget": train_n, "repeats": cfg.repeats, "mean_iod_pct": mean, "std_iod_pct": std}
    write_key_values(out / "summary.txt", summary)
    print(f"budget={train_n} iod_pct={mean:.3f} +- {std:.3f}")
    return EXIT_OK


def cmd_ablate(
    cfg: ExperimentConfig, axis: str, manifest: Path | None, proj: Projector | None,
    out: Path, world: ExperimentConfig | None,
) -> int:
    if axis == "drop_rate":
        values, projs, rates = DROP_SWEEP, [proj], DROP_SWEEP
    else:
        # the variants train on the corpus, and are scored on pairs of its world
        corpus = [output for output, _ in read_corpus(manifest, cfg.face_spec())]
        if axis == "eta":
            variants = [(v, replace(cfg, eta=v)) for v in ETA_SWEEP]
        elif axis == "kc":
            variants = [(v, replace(cfg, kc=v)) for v in KC_SWEEP]
        else:
            variants = [
                ("full", cfg),
                ("no_att_att", replace(cfg, r_aa=0.0)),
                ("no_att_inatt", replace(cfg, r_ai=0.0)),
                ("no_inatt_inatt", replace(cfg, r_ii=0.0)),
            ]
        values = [label for label, _ in variants]
        projs = [train_projector(corpus, v)[0] for _, v in variants]
        rates = (0.0,)
        cfg = replace(cfg, seed=world.seed)
    errors = _match_sweep(cfg, projs, rates).reshape(len(values), 2 * cfg.pairs, -1)
    rows = [(axis, value, *kind_means(e, cfg.pairs)) for value, e in zip(values, errors)]
    out.mkdir(parents=True, exist_ok=True)
    header = ("axis", "value", "same_mean_px", "diff_mean_px")
    write_csv(out / f"ablate_{axis}.csv", [header, *rows])
    print(f"{axis}: {len(rows)} rows")
    return EXIT_OK


def cmd_export_simmap(
    cfg: ExperimentConfig, out: Path, proj: Projector | None, landmark: int, kind: str
) -> int:
    base = cfg.face_spec()
    if not 0 <= landmark < len(base.landmarks_px):
        raise ConfigError(f"landmark index {landmark} out of range")
    pair = make_pair(base, kind, cfg.seed)
    sims = pair_similarity(pair, proj)[landmark]
    out.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(out, sims)
    print(f"wrote {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = {k[2:]: v for k, v in vars(args).items() if k.startswith("k_") and v is not None}
    form = args.command + (f" --axis {args.axis}" if args.command == "ablate" else "")
    if getattr(args, "checkpoint", None) is not None and f"{form} --checkpoint" in READS:
        form += " --checkpoint"
    if flags.keys() - READS[form]:
        parser.error(f"{form} ignores {', '.join(sorted(flags.keys() - READS[form]))}")
    try:
        # ablate's inputs depend on its axis, and are checked before any is read
        if args.command == "ablate":
            trains = args.axis != "drop_rate"
            if not trains and args.manifest is not None:
                raise ConfigError("axis drop_rate generates its own pairs and takes no --manifest")
            if trains and args.checkpoint is not None:
                raise ConfigError(f"axis {args.axis} trains a projector per variant and takes "
                                  "no --checkpoint")
            if trains and args.manifest is None:
                raise ConfigError(f"axis {args.axis} requires --manifest")
        # a form that reads a corpus or a checkpoint runs on its world, so its
        # one config is defaults < --config < the world's keys < flags
        corpus = trained = proj = None
        recorded = {}
        if getattr(args, "manifest", None) is not None:
            corpus = read_world(args.manifest.parent)
            recorded = {key: getattr(corpus, key) for key in GRID_KEYS - {"seed"}}
        if form.endswith(" --checkpoint") or form == "eval-detect":
            proj, trained = load_checkpoint(args.checkpoint)
            # eval-detect runs on the corpus's world with the checkpoint's
            # d_proj, and its seed is the regressor's
            keys = ["d_proj"] if form == "eval-detect" else WORLD_KEYS
            recorded |= {key: getattr(trained, key) for key in keys}
        cfg = load_config(args.config, {key: str(v) for key, v in recorded.items()} | flags)
        if form == "eval-detect":
            differ = [key for key in sorted(GRID_KEYS)
                      if getattr(corpus, key) != getattr(trained, key)]
            if differ:
                raise ValueError(
                    f"checkpoint world {args.checkpoint / 'config.txt'} has "
                    + ", ".join(f"{key}={getattr(trained, key)}" for key in differ)
                    + f", corpus world {args.manifest.parent / 'config.txt'} has "
                    + ", ".join(f"{key}={getattr(corpus, key)}" for key in differ)
                )
        elif trained is not None and cfg.seed != trained.seed:
            raise ConfigError(
                f"--seed {cfg.seed} is not the checkpoint's world seed {trained.seed}"
            )
        if args.command == "gen":
            return cmd_gen(cfg, args.count, args.out)
        if args.command == "train-projector":
            return cmd_train_projector(cfg, args.manifest, args.out, corpus)
        if args.command == "eval-match":
            return cmd_eval_match(cfg, args.out, proj)
        if args.command == "eval-detect":
            return cmd_eval_detect(cfg, args.manifest, proj, args.budget, args.out)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.axis, args.manifest, proj, args.out, corpus)
        if args.command == "export-simmap":
            return cmd_export_simmap(cfg, args.out, proj, args.landmark, args.kind)
    except ConfigError as exc:
        print(f"selcorr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"selcorr: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except MemoryError as exc:
        # sizes within the config's bounds can still ask for more than the machine has
        detail = " ".join(str(exc).split()) or "allocation failed"
        print(f"selcorr: out of memory: {detail}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"selcorr: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
