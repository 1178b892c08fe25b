"""Record the quality values the benchmark checks timed outputs against.

    python3 perfbench/record_reference.py SEED [SEED ...]

Runs each timed command once per seed at the benchmark's sizes, on inputs
built once per seed, and writes perfbench/reference.json. Record it from a commit whose outputs
are known good; a later commit is checked against it.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

TOLERANCE = 0.05  # relative, for a recorded seed
SIGMAS = 5.0  # half-width of the band around the recorded mean, for any other seed


def record(seeds: list[int]) -> dict:
    table: dict[str, dict[str, dict[str, float]]] = {name: {} for name in run.COMMANDS}
    for seed in seeds:
        shutil.rmtree(run.WORK, ignore_errors=True)
        run.WORK.mkdir(parents=True)
        # train_detect's set-up builds both the corpus and the checkpoint
        run.build_inputs(run.WORKLOADS["train_detect"], seed, run.WORK / "setup.log")
        for name, cmd in run.COMMANDS.items():
            out = run.WORK / "out"
            shutil.rmtree(out, ignore_errors=True)
            log = run.WORK / "record.log"
            proc = run.run_process(run.selcorr_argv(cmd.argv(out), seed), log)
            if proc.returncode != 0:
                raise run.BenchError(f"{name} seed {seed} exited {proc.returncode}")
            table[name][str(seed)] = run.check_outputs(cmd, out, seed, None)[1]
            print(f"{name} seed {seed}: {table[name][str(seed)]}", flush=True)
    return {"tolerance": TOLERANCE, "sigmas": SIGMAS, "commands": table}


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 1
    try:
        reference = record([int(a) for a in argv])
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
