"""Command-line driver wiring the pipeline into reproducible experiments.

Commands: gen, train-projector, eval-match, eval-detect, ablate,
export-simmap. Every hyperparameter is a config key and a flag of the same
name; reruns with identical seeds produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .evaluation import (
    drop_mask,
    inter_ocular_error,
    match_pair,
    pair_similarity,
    projected_featurizer,
    raw_featurizer,
    regressor_forward,
    similarity_stack,
    summarize_matches,
    train_regressor,
    write_pgm,
)
from .partition import cls_similarity
from .projector import (
    DivergenceError,
    load_checkpoint,
    project,
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


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this CLI reserves 2
    for data errors, so remap to 1."""

    def error(self, message: str):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="key=value config file")
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f"k_{f.name}", default=None, metavar=f.type.upper())


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {
        f.name: getattr(args, f"k_{f.name}")
        for f in fields(ExperimentConfig)
        if getattr(args, f"k_{f.name}") is not None
    }
    return load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selcorr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate a synthetic sample corpus")
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)

    p = sub.add_parser("train-projector", help="fit the projector on a corpus")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)

    p = sub.add_parser(
        "eval-match",
        help="landmark matching on generated pairs (no manifest needed; "
        "pairs are derived from the config seed)",
    )
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)

    p = sub.add_parser("eval-detect", help="limited-annotation landmark detection")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--budget", type=int, default=20)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)

    p = sub.add_parser("ablate", help="hyperparameter sweeps as CSV")
    p.add_argument("--axis", choices=("eta", "kc", "repellence", "drop_rate"), required=True)
    p.add_argument("--manifest", type=Path, default=None)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)

    p = sub.add_parser("export-simmap", help="similarity map of one landmark as PGM")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--landmark", type=int, default=0)
    p.add_argument("--kind", choices=("same", "different"), default="same")
    p.add_argument("--out", type=Path, required=True)
    _add_config_flags(p)
    return parser


def _featurizer(checkpoint: Path | None):
    if checkpoint is None:
        return raw_featurizer()
    return projected_featurizer(load_checkpoint(checkpoint))


def _match_protocol(cfg: ExperimentConfig, featurize, drop_rate: float = 0.0):
    """cfg.pairs same-identity then cfg.pairs different-identity matches."""
    return _match_sweep(cfg, featurize, (drop_rate,))[0]


def _require_pairs(cfg: ExperimentConfig) -> None:
    if cfg.pairs < 1:
        raise ConfigError("matching needs pairs >= 1")


def _match_sweep(cfg: ExperimentConfig, featurize, drop_rates) -> list:
    """The match protocol once per drop rate, each pair generated and
    featurized once; one summary per rate, in order."""
    _require_pairs(cfg)
    base = cfg.face_spec()
    seeds = pair_seeds(cfg.seed, 2 * cfg.pairs)
    errors = np.empty((len(drop_rates), 2 * cfg.pairs, len(base.landmarks_px)))
    for i in range(2 * cfg.pairs):
        kind = "same" if i < cfg.pairs else "different"
        pair = make_pair(base, kind, seeds[i], sigma_frac=cfg.tps_sigma_frac)
        sims = pair_similarity(pair, featurize)
        grid = pair.test.main
        scores = None
        for r, rate in enumerate(drop_rates):
            mask = None
            if rate > 0.0:
                if scores is None:
                    scores = cls_similarity(pair.test.q_cls, pair.test.keys)
                mask = drop_mask(scores, rate, grid.grid_h, grid.grid_w, grid.patch)
            errors[r, i] = match_pair(pair, sims, test_mask=mask)
    return [summarize_matches(e, cfg.pairs) for e in errors]


def cmd_gen(cfg: ExperimentConfig, count: int, out: Path) -> int:
    if count < 0:
        raise ConfigError("count must be >= 0")
    out.mkdir(parents=True, exist_ok=True)
    base = cfg.face_spec()
    names = []
    for i in range(count):
        spec = sample_spec(base, cfg.seed, i, sigma_frac=cfg.tps_sigma_frac)
        output = generate_backbone_output(spec, seed=i)
        name = f"sample_{i:04d}"
        write_sample(out / name, output, np.asarray(spec.landmarks_px))
        names.append(name)
    write_manifest(out / "manifest.txt", names)
    write_key_values(out / "config.txt", asdict(cfg))
    print(f"wrote {count} samples to {out}")
    return EXIT_OK


def cmd_train_projector(cfg: ExperimentConfig, manifest: Path, out: Path) -> int:
    corpus = (output for output, _ in read_corpus(manifest))
    proj, trace = train_projector(corpus, cfg.projector_train(), out_dim=cfg.d_proj)
    out.mkdir(parents=True, exist_ok=True)
    digest = save_checkpoint(out / "checkpoint", proj, seed=cfg.seed, steps=cfg.proj_steps)
    write_csv(out / "trace.csv", [("step", "loss"), *enumerate(trace.losses)])
    last = trace.losses[-1] if trace.losses else float("nan")
    print(f"trained {cfg.proj_steps} steps, final_loss={last!r}, sha256={digest}")
    return EXIT_OK


def cmd_eval_match(cfg: ExperimentConfig, out: Path, checkpoint: Path | None) -> int:
    result = _match_protocol(cfg, _featurizer(checkpoint), drop_rate=cfg.drop_rate)
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        (i, lid, "same" if i < cfg.pairs else "different", err)
        for (i, lid), err in np.ndenumerate(result.errors)
    ]
    write_csv(out / "match.csv", [("pair_id", "landmark_id", "kind", "err_px"), *rows])
    summary = {
        "pairs": cfg.pairs,
        "same_mean_px": result.same_mean,
        "diff_mean_px": result.diff_mean,
    }
    print(write_key_values(out / "summary.txt", summary).strip().replace("\n", " "))
    return EXIT_OK


def cmd_eval_detect(
    cfg: ExperimentConfig, manifest: Path, checkpoint: Path, budget: int, out: Path
) -> int:
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    # every sample is read and checked, but only the first `budget` and the
    # last `holdout` are kept; an empty manifest raises before `count` is read
    train_samples, held_out = [], deque(maxlen=cfg.holdout)
    for count, sample in enumerate(read_corpus(manifest), start=1):
        if count <= budget:
            train_samples.append(sample)
        held_out.append(sample)
    if count <= cfg.holdout:
        raise ValueError(f"corpus of {count} cannot reserve {cfg.holdout} held-out samples")
    train_n = min(budget, count - cfg.holdout)
    if train_n < budget:
        print(f"warning: budget {budget} clamped to {train_n}", file=sys.stderr)
    del train_samples[train_n:]
    proj = load_checkpoint(checkpoint)
    gts = np.stack([lm for _, lm in held_out])
    means = []
    first = None
    for rep in range(cfg.repeats):
        params, _ = train_regressor(
            train_samples,
            proj,
            cfg.regressor_train(seed=cfg.seed + rep),
            heatmaps=cfg.heatmaps,
            temperature=cfg.softargmax_temp,
        )
        preds = np.stack(
            [regressor_forward(params, o.main, project(proj, o.main)) for o, _ in held_out]
        )
        metrics = inter_ocular_error(preds, gts, LEFT_EYE, RIGHT_EYE)
        means.append(metrics.mean_pct)
        if first is None:
            first = metrics
    out.mkdir(parents=True, exist_ok=True)
    rows = [(s, l, err) for (s, l), err in np.ndenumerate(first.per_sample_pct)]
    write_csv(out / "detect.csv", [("sample_id", "landmark_id", "err_iod_pct"), *rows])
    mean = float(np.mean(means))
    std = float(np.std(means))
    summary = {"budget": train_n, "repeats": cfg.repeats, "mean_iod_pct": mean, "std_iod_pct": std}
    write_key_values(out / "summary.txt", summary)
    print(f"budget={train_n} iod_pct={mean:.3f} +- {std:.3f}")
    return EXIT_OK


def cmd_ablate(
    cfg: ExperimentConfig, axis: str, manifest: Path | None, checkpoint: Path | None, out: Path
) -> int:
    # usage checks come before any variant is trained
    _require_pairs(cfg)
    if axis == "drop_rate" and manifest is not None:
        raise ConfigError("axis drop_rate generates its own pairs and takes no --manifest")
    if axis != "drop_rate" and checkpoint is not None:
        raise ConfigError(f"axis {axis} trains a projector per variant and takes no --checkpoint")
    rows: list[tuple[object, float, float]] = []
    if axis == "drop_rate":
        results = _match_sweep(cfg, _featurizer(checkpoint), DROP_SWEEP)
        for rate, result in zip(DROP_SWEEP, results):
            rows.append((rate, result.same_mean, result.diff_mean))
    else:
        if manifest is None:
            raise ConfigError(f"axis {axis} requires --manifest")
        corpus = [output for output, _ in read_corpus(manifest)]
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
        for label, variant in variants:
            proj, _ = train_projector(corpus, variant.projector_train(), out_dim=variant.d_proj)
            result = _match_protocol(variant, projected_featurizer(proj))
            rows.append((label, result.same_mean, result.diff_mean))
    out.mkdir(parents=True, exist_ok=True)
    header = ("axis", "value", "same_mean_px", "diff_mean_px")
    write_csv(out / f"ablate_{axis}.csv", [header, *((axis, *row) for row in rows)])
    print(f"{axis}: {len(rows)} rows")
    return EXIT_OK


def cmd_export_simmap(
    cfg: ExperimentConfig, out: Path, checkpoint: Path | None, landmark: int, kind: str
) -> int:
    pair = make_pair(cfg.face_spec(), kind, cfg.seed, sigma_frac=cfg.tps_sigma_frac)
    if not 0 <= landmark < pair.ref_landmarks.shape[0]:
        raise ConfigError(f"landmark index {landmark} out of range")
    featurize = _featurizer(checkpoint)
    query = pair.ref_landmarks[landmark : landmark + 1]
    sims = similarity_stack(featurize(pair.ref), featurize(pair.test), query)[0]
    out.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(out, sims)
    print(f"wrote {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "gen":
            return cmd_gen(cfg, args.count, args.out)
        if args.command == "train-projector":
            return cmd_train_projector(cfg, args.manifest, args.out)
        if args.command == "eval-match":
            return cmd_eval_match(cfg, args.out, args.checkpoint)
        if args.command == "eval-detect":
            return cmd_eval_detect(cfg, args.manifest, args.checkpoint, args.budget, args.out)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.axis, args.manifest, args.checkpoint, args.out)
        if args.command == "export-simmap":
            return cmd_export_simmap(cfg, args.out, args.checkpoint, args.landmark, args.kind)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"selcorr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"selcorr: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ValueError) as exc:
        print(f"selcorr: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
