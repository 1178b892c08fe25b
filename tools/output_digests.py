"""sha256 of every output file and every stdout of a fixed command matrix.

Runs each selcorr command of the acceptance matrix with the given tree's
`src` as the whole PYTHONPATH, once per seed, and prints one `sha256  path` line per
output file and per command's stdout. The output root is replaced by
`<out>` in the printed paths and in each stdout before it is hashed, so
two trees run into different directories print comparable lines.

    python3 tools/output_digests.py --tree . --seeds 0 1 7 > new.txt
    python3 tools/output_digests.py --tree ../parent --seeds 0 1 7 > old.txt
    diff old.txt new.txt

Per seed: `gen` (32 samples); `train-projector` with gd and with
`--optimizer momentum`; `eval-match` with the gd checkpoint, raw, and raw
with `--drop-rate 0.5`; `eval-detect` by default, with `--reg-optimizer gd
--repeats 2`, and with `--budget 30` (clamped to 24, so the training and
held-out samples meet); `ablate --axis kc`, `--axis eta` and `--axis
repellence`, and `--axis drop_rate` raw and with the checkpoint;
`export-simmap` with the checkpoint, and raw with `--kind different`.
Every command runs on one BLAS thread, so the digests do not depend on
the machine's core count.
Matching runs at PAIRS (50) pairs per kind, except the first seed's three
`eval-match` runs, which run FIRST_SEED_PAIRS (500, the default). Both are
fixed so that two runs always hash the same matrix. A command that exits
non-zero stops the run with exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PLACEHOLDER = "<out>"
PAIRS = "50"
FIRST_SEED_PAIRS = "500"
# one BLAS thread: the detector's GEMMs may round differently on another count
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _matrix(root: Path, match_pairs: str) -> list[tuple[str, list[str]]]:
    """(name, argv) in run order; later commands read the corpus and the gd checkpoint."""
    corpus = root / "corpus"
    manifest = str(corpus / "manifest.txt")
    ckpt = str(root / "train_gd" / "checkpoint")

    def out(name: str) -> list[str]:
        return ["--out", str(root / name)]

    return [
        ("gen", ["gen", "--count", "32", "--out", str(corpus)]),
        ("train_gd", ["train-projector", "--manifest", manifest, *out("train_gd")]),
        ("train_momentum", ["train-projector", "--manifest", manifest,
                            *out("train_momentum"), "--optimizer", "momentum"]),
        ("match_ckpt", ["eval-match", "--checkpoint", ckpt, *out("match_ckpt"),
                        "--pairs", match_pairs]),
        ("match_raw", ["eval-match", *out("match_raw"), "--pairs", match_pairs]),
        ("match_drop", ["eval-match", *out("match_drop"), "--pairs", match_pairs,
                        "--drop-rate", "0.5"]),
        ("detect", ["eval-detect", "--manifest", manifest, "--checkpoint", ckpt,
                    *out("detect")]),
        ("detect_gd2", ["eval-detect", "--manifest", manifest, "--checkpoint", ckpt,
                        *out("detect_gd2"), "--reg-optimizer", "gd", "--repeats", "2"]),
        ("detect_budget30", ["eval-detect", "--manifest", manifest, "--checkpoint", ckpt,
                             *out("detect_budget30"), "--budget", "30"]),
        ("ablate_kc", ["ablate", "--axis", "kc", "--manifest", manifest, *out("ablate_kc"),
                       "--pairs", PAIRS]),
        ("ablate_eta", ["ablate", "--axis", "eta", "--manifest", manifest, *out("ablate_eta"),
                        "--pairs", PAIRS]),
        ("ablate_repellence", ["ablate", "--axis", "repellence", "--manifest", manifest,
                               *out("ablate_repellence"), "--pairs", PAIRS]),
        ("ablate_drop_raw", ["ablate", "--axis", "drop_rate", *out("ablate_drop_raw"),
                             "--pairs", PAIRS]),
        ("ablate_drop_ckpt", ["ablate", "--axis", "drop_rate", "--checkpoint", ckpt,
                              *out("ablate_drop_ckpt"), "--pairs", PAIRS]),
        ("simmap", ["export-simmap", "--checkpoint", ckpt, *out("simmap/sim.pgm")]),
        ("simmap_raw_diff", ["export-simmap", "--kind", "different",
                             *out("simmap_raw_diff/sim.pgm")]),
    ]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(tree: Path, seeds: list[int], work: Path) -> list[str]:
    # the tree's src alone, so a caller's PYTHONPATH can never supply the package
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_THREADS)
    lines = []
    for n, seed in enumerate(seeds):
        root = work / f"seed{seed}"
        match_pairs = FIRST_SEED_PAIRS if n == 0 else PAIRS
        for name, argv in _matrix(root, match_pairs):
            proc = subprocess.run(
                [sys.executable, "-m", "selcorr", *argv, "--seed", str(seed)],
                env=env, cwd=work, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"seed {seed} {name}: exit {proc.returncode}")
            stdout = proc.stdout.replace(str(work), PLACEHOLDER)
            lines.append(f"{_sha256(stdout.encode())}  {PLACEHOLDER}/seed{seed}/{name}.stdout")
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        lines.append(f"{_sha256(path.read_bytes())}  {PLACEHOLDER}/{path.relative_to(work)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path("."), help="checkout whose src/ to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 7])
    parser.add_argument("--work", type=Path, default=None,
                        help="output root, kept afterwards (default: a temporary directory)")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if not (tree / "src" / "selcorr" / "__init__.py").is_file():
        parser.error(f"{tree} has no src/selcorr/__init__.py")
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
        lines = run(tree, args.seeds, args.work.resolve())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = run(tree, args.seeds, Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
