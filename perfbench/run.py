"""End-to-end and per-layer benchmark of the selcorr CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed command is a fresh `python -m selcorr ...` subprocess, run one
at a time, because a user pays interpreter start and numpy import on each
command. A workload is two such commands. Each repetition first builds
their inputs (the set-up, timed on its own), then runs the timed commands
one after the other; repetitions go on for `--seconds`, and every output is
checked. `--trace 0` reports the end-to-end metrics; `--trace 1` sets up
once, alternates untraced repetitions with repetitions traced by
perfbench/spans.py and reports the per-layer metrics. `--workload all` runs
the workloads in turn.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"

# Sizes: each timed command takes about 1.3-2.6 s on a 2-core Xeon, so a
# 60-second run sets up and runs a workload's two commands nine or more
# times and reports medians.
CORPUS_SIZE = 64
PROJ_STEPS = 50  # the train command
CKPT_STEPS = 20  # the checkpoint match and detect read; short, as it is built every repetition
MATCH_PAIRS = 50  # 50 same- plus 50 different-identity pairs
DETECT_BUDGET = 20
REG_STEPS = 30
SWEEP_PAIRS = 4  # 4 + 4 pairs, each regenerated for every drop rate
DROP_RATES = 8

MIN_REPS = 3  # repetitions of set-up and timed command(s), at least
CMD_TIMEOUT_S = 100.0
RUN_BUDGET_S = 120.0  # no new repetition starts after this; keeps a run under 180 s


class CheckFailed(Exception):
    """A timed command's outputs are missing, malformed, non-finite or off reference."""


class BenchError(Exception):
    """The benchmark cannot run: program missing or its set-up failed."""


@dataclass(frozen=True)
class Command:
    """One timed selcorr command and the checks on its outputs."""

    name: str
    needs_corpus: bool
    needs_checkpoint: bool  # built from the corpus, which is then built too
    argv: Callable[[Path], list[str]]  # out dir -> selcorr arguments, without --seed
    outputs: tuple[str, ...]  # files whose digest must repeat across runs of one seed
    quality: Callable[[Path], dict[str, float]]
    pairs: int = 0  # distinct pairs the command matches
    reg_steps: int = 0


@dataclass(frozen=True)
class Workload:
    """Commands run one after another in each repetition; wall_s is their sum."""

    name: str
    commands: tuple[Command, ...]

    @property
    def pairs(self) -> int:
        return sum(c.pairs for c in self.commands)

    @property
    def reg_steps(self) -> int:
        return sum(c.reg_steps for c in self.commands)


def _corpus() -> Path:
    return WORK / "inputs" / "corpus"


def _checkpoint() -> Path:
    return WORK / "inputs" / "ckpt" / "checkpoint"


# numpy >= 2 spells repr() of a numpy scalar as np.float64(x); a CSV cell
# written that way is a format defect (reported, see format_notes), but the
# number inside is still what the finite and reference checks read
NUMPY_REPR = "np.float64("


def _number(text: str) -> float:
    if text.startswith(NUMPY_REPR) and text.endswith(")"):
        text = text[len(NUMPY_REPR) : -1]
    return float(text)


def _floats(values, what: str) -> list[float]:
    out = [_number(v) for v in values]
    if not out:
        raise CheckFailed(f"{what}: no values")
    if not all(math.isfinite(v) for v in out):
        raise CheckFailed(f"{what}: non-finite value")
    return out


def _csv_column(path: Path, column: str) -> list[float]:
    rows = [r for r in path.read_text().splitlines() if r]
    idx = rows[0].split(",").index(column)
    return _floats((r.split(",")[idx] for r in rows[1:]), f"{path.name}:{column}")


def _summary(path: Path, key: str) -> float:
    values = dict(line.split("=", 1) for line in path.read_text().splitlines() if line)
    return _floats([values[key]], f"{path.name}:{key}")[0]


def _train_quality(out: Path) -> dict[str, float]:
    losses = _csv_column(out / "trace.csv", "loss")
    if len(losses) != PROJ_STEPS:
        raise CheckFailed(f"trace.csv has {len(losses)} steps, expected {PROJ_STEPS}")
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"train loss did not decrease: {losses[0]!r} -> {losses[-1]!r}")
    return {"final_loss": losses[-1]}


def _match_quality(out: Path) -> dict[str, float]:
    _csv_column(out / "match.csv", "err_px")
    return {
        "match_same_px": _summary(out / "summary.txt", "same_mean_px"),
        "match_diff_px": _summary(out / "summary.txt", "diff_mean_px"),
    }


def _detect_quality(out: Path) -> dict[str, float]:
    _csv_column(out / "detect.csv", "err_iod_pct")
    return {"detect_iod_pct": _summary(out / "summary.txt", "mean_iod_pct")}


def _sweep_quality(out: Path) -> dict[str, float]:
    path = out / "ablate_drop_rate.csv"
    same = _csv_column(path, "same_mean_px")
    diff = _csv_column(path, "diff_mean_px")
    if len(same) != DROP_RATES:
        raise CheckFailed(f"{path.name} has {len(same)} rows, expected {DROP_RATES}")
    return {"match_same_px": statistics.fmean(same), "match_diff_px": statistics.fmean(diff)}


COMMANDS: dict[str, Command] = {
    c.name: c
    for c in (
        Command(
            "train",
            needs_corpus=True,
            needs_checkpoint=False,
            argv=lambda out: [
                "train-projector",
                "--manifest", str(_corpus() / "manifest.txt"),
                "--out", str(out),
                "--proj-steps", str(PROJ_STEPS),
            ],
            outputs=("trace.csv", "checkpoint/meta.txt", "checkpoint/weight.scet", "checkpoint/bias.scet"),
            quality=_train_quality,
        ),
        Command(
            "match",
            needs_corpus=False,
            needs_checkpoint=True,
            argv=lambda out: [
                "eval-match",
                "--checkpoint", str(_checkpoint()),
                "--out", str(out),
                "--pairs", str(MATCH_PAIRS),
            ],
            outputs=("match.csv", "summary.txt"),
            quality=_match_quality,
            pairs=2 * MATCH_PAIRS,
        ),
        Command(
            "detect",
            needs_corpus=True,
            needs_checkpoint=True,
            argv=lambda out: [
                "eval-detect",
                "--manifest", str(_corpus() / "manifest.txt"),
                "--checkpoint", str(_checkpoint()),
                "--budget", str(DETECT_BUDGET),
                "--reg-steps", str(REG_STEPS),
                "--out", str(out),
            ],
            outputs=("detect.csv", "summary.txt"),
            quality=_detect_quality,
            reg_steps=REG_STEPS,
        ),
        Command(
            "sweep",
            needs_corpus=False,
            needs_checkpoint=False,
            argv=lambda out: [
                "ablate",
                "--axis", "drop_rate",
                "--out", str(out),
                "--pairs", str(SWEEP_PAIRS),
            ],
            outputs=("ablate_drop_rate.csv",),
            quality=_sweep_quality,
            pairs=2 * SWEEP_PAIRS,
        ),
    )
}

# Two workloads, not one per command: a schedule of fixed length leaves 60 s
# runs for two workloads but 30 s for four, and 30 s runs did not average out
# the speed swings of a shared 2-core host (see README). Each pairs the
# commands that share layers, so a change to a layer moves one workload and
# leaves the other as the control.
WORKLOADS: dict[str, Workload] = {
    # lcr and projector (train), the regressor's conv (detect)
    "train_detect": Workload("train_detect", (COMMANDS["train"], COMMANDS["detect"])),
    # upsample, similarity_map and make_pair, featurized once (match) or 8
    # times with the drop-mask path (sweep)
    "match_sweep": Workload("match_sweep", (COMMANDS["match"], COMMANDS["sweep"])),
}


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics besides each traced name's calls, total_s and self_s
DERIVED_UNITS = {
    "cli.cpu_s": "s",
    "evaluation.match_pair.p50_ms": "ms",
    "evaluation.match_pair.p95_ms": "ms",
    "evaluation.train_regressor.step_ms": "ms",
    "synth.make_pair.calls_per_pair": "calls/pair",
    "tensorio.bilinear_upsample.bytes_out": "B",
    "tensorio.read_tensor.bytes": "B",
    "lcr.loss_and_gradient.flops": "flop",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}
LAYER_UNITS = {
    **{
        f"{name}.{stat}": unit
        for name in spans.TRACED_NAMES
        for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
    },
    **DERIVED_UNITS,
}


# ---------------------------------------------------------------- processes


@dataclass
class Proc:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    returncode: int


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], log: Path) -> Proc:
    """Run one child to completion; wall time, its own peak RSS and CPU."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, proc.returncode)


def selcorr_argv(args: list[str], seed: int) -> list[str]:
    return [sys.executable, "-m", "selcorr", *args, "--seed", str(seed)]


def _log_tail(log: Path, lines: int = 8) -> str:
    text = log.read_text(errors="replace").splitlines()
    return "\n".join(text[-lines:])


# ---------------------------------------------------------------- checks


def digest(out: Path, names: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((out / name).read_bytes())
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every file under `root`, with its relative path."""
    return digest(root, tuple(str(p.relative_to(root)) for p in sorted(root.rglob("*")) if p.is_file()))


def reference_failures(reference: dict, command: str, seed: int, quality: dict[str, float]) -> list[str]:
    """Quality values off the seed commit's reference.

    A recorded seed must match its own values within `tolerance` (relative).
    Any other seed can only be held to the spread across the recorded
    seeds: it must lie within `sigmas` standard deviations of their mean.
    """
    table = reference["commands"][command]
    failures = []
    if str(seed) in table:
        tol = reference["tolerance"]
        for key, value in quality.items():
            want = table[str(seed)][key]
            if abs(value - want) > tol * abs(want):
                failures.append(f"{key}={value!r} is off reference {want!r} by more than {tol:.0%}")
        return failures
    sigmas = reference["sigmas"]
    for key, value in quality.items():
        recorded = [row[key] for row in table.values()]
        mean, sd = statistics.fmean(recorded), statistics.stdev(recorded)
        lo, hi = mean - sigmas * sd, mean + sigmas * sd
        if not lo <= value <= hi:
            failures.append(f"{key}={value!r} outside the recorded seeds' mean +- {sigmas} sd [{lo!r}, {hi!r}]")
    return failures


def format_notes(cmd: Command, out: Path) -> list[str]:
    """Output files that write numbers as numpy reprs instead of plain decimals."""
    return [
        f"{name} writes numbers as {NUMPY_REPR}...) reprs, not plain decimals"
        for name in cmd.outputs
        if name.endswith((".csv", ".txt")) and NUMPY_REPR in (out / name).read_text(errors="replace")
    ]


def check_outputs(cmd: Command, out: Path, seed: int, reference: dict | None) -> tuple[str, dict[str, float]]:
    """Digest and quality values of one timed command; raises CheckFailed."""
    try:
        quality = cmd.quality(out)
        out_digest = digest(out, cmd.outputs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckFailed(f"unreadable output: {exc}") from exc
    if reference is not None:
        failures = reference_failures(reference, cmd.name, seed, quality)
        if failures:
            raise CheckFailed("; ".join(failures))
    return out_digest, quality


# ---------------------------------------------------------------- statistics


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile: the ceil(p n / 100)-th smallest value; 0.0 for none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def tail_percentile(values: list[float], beyond: int = 10) -> tuple[int, float] | None:
    """Highest whole percentile with at least `beyond` samples above its rank,
    and its value; None when there are too few samples for any."""
    n = len(values)
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p, percentile(values, p)
    return None


# ---------------------------------------------------------------- runs


@dataclass
class RunResult:
    workload: str
    seed: int
    setup_s: list[float] = field(default_factory=list)
    # per repetition, keyed by the workload's name (all its commands) and by
    # each command's name
    wall_s: dict[str, list[float]] = field(default_factory=dict)
    traced_wall_s: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, list[dict[str, float]]] = field(default_factory=dict)
    peak_rss_mb: list[float] = field(default_factory=list)  # the largest command's
    cpu_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    notes: set[str] = field(default_factory=set)
    quality: dict[str, float] = field(default_factory=dict)  # "command.key" -> value


def build_inputs(wl: Workload, seed: int, log: Path) -> tuple[float, str]:
    """Set up from scratch what the timed commands need: byte-compile the
    package, then build the corpus and checkpoint they read. Returns the
    seconds taken and the digest of the inputs."""
    inputs = WORK / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    needs_checkpoint = any(c.needs_checkpoint for c in wl.commands)
    steps = [[sys.executable, "-m", "compileall", "-q", "-f", str(ROOT / "src" / "selcorr")]]
    if needs_checkpoint or any(c.needs_corpus for c in wl.commands):
        steps.append(selcorr_argv(["gen", "--count", str(CORPUS_SIZE), "--out", str(_corpus())], seed))
    if needs_checkpoint:
        steps.append(selcorr_argv([
            "train-projector",
            "--manifest", str(_corpus() / "manifest.txt"),
            "--out", str(_checkpoint().parent),
            "--proj-steps", str(CKPT_STEPS),
        ], seed))
    elapsed = 0.0
    for argv in steps:
        proc = run_process(argv, log)
        if proc.returncode != 0:
            raise BenchError(f"set-up `{' '.join(argv[1:4])}` exited {proc.returncode}:\n{_log_tail(log)}")
        elapsed += proc.wall_s
    return elapsed, tree_digest(inputs)


def _layer_metrics(wl: Workload, trace_files: list[Path]) -> dict[str, float]:
    """Per-layer metrics of one repetition: the spans of all its traced
    commands (one file each) taken together."""
    recorded: list[dict] = []
    counters = dict.fromkeys(spans.COMPUTED, 0.0)
    cpu_s = 0.0
    for trace_file in trace_files:
        data = json.loads(trace_file.read_text())
        offset = len(recorded)  # span ids and parents are per file
        for span in data["spans"]:
            parent = span["parent"]
            recorded.append({**span, "id": span["id"] + offset, "parent": None if parent is None else parent + offset})
        for name, value in data["counters"].items():
            counters[name] += value
        cpu_s += data["cpu_s"]
    stats = spans.layer_stats(recorded)
    metrics: dict[str, float] = {}
    for name in spans.TRACED_NAMES:
        st = stats.get(name, spans.LayerStats())
        metrics[f"{name}.calls"] = float(st.calls)
        metrics[f"{name}.total_s"] = st.total_s
        metrics[f"{name}.self_s"] = st.self_s
    metrics["cli.cpu_s"] = cpu_s
    match_ms = [1000.0 * d for d in spans.durations(recorded, "evaluation.match_pair")]
    metrics["evaluation.match_pair.p50_ms"] = percentile(match_ms, 50)
    metrics["evaluation.match_pair.p95_ms"] = percentile(match_ms, 95)
    reg = stats.get("evaluation.train_regressor")
    metrics["evaluation.train_regressor.step_ms"] = (
        1000.0 * reg.total_s / (reg.calls * wl.reg_steps) if reg and wl.reg_steps else 0.0
    )
    make_pair = stats.get("synth.make_pair")
    metrics["synth.make_pair.calls_per_pair"] = (
        make_pair.calls / wl.pairs if make_pair and wl.pairs else 0.0
    )
    metrics.update(counters)
    main = stats.get("cli.main")
    metrics["trace.coverage"] = 1.0 - main.self_s / main.total_s if main and main.total_s else 0.0
    return metrics


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, reference: dict | None) -> RunResult:
    """Repeat set-up and timed commands, in turn, until another repetition
    would end after `seconds`; a traced run sets up only once."""
    result = RunResult(wl.name, seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    started = time.perf_counter()
    inputs_digest = None
    first_digest: dict[str, str] = {}
    kinds = (False, True) if trace else (False,)
    rep = 0
    while True:
        elapsed = time.perf_counter() - started
        if rep >= MIN_REPS and (elapsed + elapsed / rep > seconds or elapsed > RUN_BUDGET_S):
            break
        if rep == 0 or not trace:
            setup_s, d = build_inputs(wl, seed, WORK / f"setup_{rep}.log")
            if inputs_digest not in (None, d):
                raise BenchError("set-up inputs differ between builds of one seed")
            inputs_digest = d
            result.setup_s.append(setup_s)
        for traced in kinds:
            walls = result.traced_wall_s if traced else result.wall_s
            rep_wall = rep_cpu = rep_rss = 0.0
            trace_files = []
            for cmd in wl.commands:
                out = WORK / "out" / cmd.name
                shutil.rmtree(out, ignore_errors=True)
                log = WORK / f"run_{rep}_{cmd.name}.log"
                trace_file = WORK / f"spans_{rep}_{cmd.name}.json"
                args = [*cmd.argv(out), "--seed", str(seed)]
                if traced:
                    run_id = f"{seed}-{rep}-{cmd.name}"
                    argv = [sys.executable, str(BENCH_DIR / "spans.py"), str(trace_file), run_id, "--", *args]
                else:
                    argv = [sys.executable, "-m", "selcorr", *args]
                proc = run_process(argv, log)
                result.attempted += 1
                try:
                    if proc.returncode != 0:
                        raise CheckFailed(f"exit code {proc.returncode}:\n{_log_tail(log)}")
                    out_digest, quality = check_outputs(cmd, out, seed, reference)
                    if first_digest.setdefault(cmd.name, out_digest) != out_digest:
                        raise CheckFailed("outputs differ from the first run of this seed")
                    result.quality.update({f"{cmd.name}.{k}": v for k, v in quality.items()})
                    result.notes.update(format_notes(cmd, out))
                except CheckFailed as exc:
                    result.failed += 1
                    result.failures.append(f"run {rep} {cmd.name}: {exc}")
                walls.setdefault(cmd.name, []).append(proc.wall_s)
                rep_wall += proc.wall_s
                rep_cpu += proc.cpu_s
                rep_rss = max(rep_rss, proc.peak_rss_mb)
                if traced and proc.returncode == 0:
                    trace_files.append(trace_file)
                    result.layers.setdefault(cmd.name, []).append(_layer_metrics(Workload(cmd.name, (cmd,)), [trace_file]))
            walls.setdefault(wl.name, []).append(rep_wall)
            if traced and len(trace_files) == len(wl.commands):
                result.layers.setdefault(wl.name, []).append(_layer_metrics(wl, trace_files))
            if not traced:
                result.peak_rss_mb.append(rep_rss)
                result.cpu_s.append(rep_cpu)
        rep += 1
    return result


def end_to_end(r: RunResult) -> dict[str, float]:
    return {
        "wall_s": median(r.wall_s.get(r.workload, [])),
        "setup_s": median(r.setup_s),
        "peak_rss_mb": median(r.peak_rss_mb),
    }


def per_layer(r: RunResult, name: str) -> dict[str, float]:
    """Medians over the traced repetitions, of the workload or one of its commands."""
    layers = r.layers.get(name, [])
    metrics = {key: median([layer[key] for layer in layers]) for key in (layers[0] if layers else ())}
    metrics["trace.overhead_s"] = median(r.traced_wall_s.get(name, [])) - median(r.wall_s.get(name, []))
    return metrics


# ---------------------------------------------------------------- report


def _fmt_stats(values: list[float], unit: str) -> str:
    q1, q3 = quartiles(values)
    tail = tail_percentile(values)
    if tail and tail[0] > 50:
        tail_text = f"p{tail[0]} {tail[1]:.4f} (10 runs beyond)"
    else:
        tail_text = "no tail percentile: no rank above the median has 10 runs beyond it"
    return (
        f"median {median(values):.4f} {unit}, q1 {q1:.4f}, q3 {q3:.4f}, "
        f"max {max(values, default=0.0):.4f}, n={len(values)}; {tail_text}"
    )


def _print_layers(layer: dict[str, float], indent: str) -> None:
    main_total = layer.get("cli.main.total_s") or 1.0
    busy = [
        (layer[f"{n}.self_s"], n)
        for n in spans.TRACED_NAMES
        if n != "cli.main" and layer.get(f"{n}.calls")
    ]
    print(f"{indent}{'layer':<38} {'calls':>7} {'total_s':>9} {'self_s':>9} {'self/main':>9}")
    for self_s, name in sorted(busy, reverse=True):
        print(
            f"{indent}{name:<38} {layer[name + '.calls']:>7.0f} {layer[name + '.total_s']:>9.4f} "
            f"{self_s:>9.4f} {self_s / main_total:>9.1%}"
        )
    for name, unit in DERIVED_UNITS.items():
        note = " (computed from shapes)" if name in spans.COMPUTED else ""
        if name.startswith("evaluation.match_pair.p"):
            note = f" (n={layer.get('evaluation.match_pair.calls', 0.0):.0f})"
        print(f"{indent}{name:<44} {layer.get(name, 0.0):.6g} {unit}{note}")


def print_report(r: RunResult, wl: Workload, trace: bool) -> None:
    print(f"== workload {r.workload} ({' + '.join(c.name for c in wl.commands)}), seed {r.seed}")
    print(f"  setup_s      {_fmt_stats(r.setup_s, 's')}")
    if r.wall_s:
        print(f"  wall_s       {_fmt_stats(r.wall_s[r.workload], 's')}")
        print(f"  wall_s runs  {' '.join(f'{v:.3f}' for v in r.wall_s[r.workload])}")
        for cmd in wl.commands:
            print(f"    {cmd.name + ' wall_s':<14} {_fmt_stats(r.wall_s[cmd.name], 's')}")
        print(f"  peak_rss_mb  {_fmt_stats(r.peak_rss_mb, 'MB')}")
        print(f"  cpu_s        {_fmt_stats(r.cpu_s, 's')} (user + system, all threads)")
    print(f"  error_rate   {r.failed}/{r.attempted} = {r.failed / max(r.attempted, 1):.4f}")
    for key, value in r.quality.items():
        print(f"  {key:<20} {value!r}")
    for failure in r.failures:
        print(f"  FAILED {failure}")
    for note in sorted(r.notes):
        print(f"  NOTE {note} (a program defect, not counted in error_rate)")
    if not trace:
        return
    print(f"  traced wall_s {_fmt_stats(r.traced_wall_s.get(r.workload, []), 's')}")
    for name in (r.workload, *(c.name for c in wl.commands)):
        print(f"  -- layers of {name}, medians of {len(r.layers.get(name, []))} traced runs")
        _print_layers(per_layer(r, name), "    ")


MACHINE_PROBE = r"""
import ctypes, json, os, platform
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
try:
    libs = sorted({l.split()[-1] for l in open("/proc/self/maps") if "blas" in l.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                threads = int(fn())
                break
except OSError:
    pass
cpu = platform.processor()
try:
    cpu = next(l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name"))
except (OSError, StopIteration):
    pass
print(json.dumps({
    "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
    "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": threads,
}))
"""


def machine() -> dict:
    out = subprocess.run(
        [sys.executable, "-c", MACHINE_PROBE], env=_env(), capture_output=True, text=True, timeout=60
    )
    if out.returncode != 0:
        raise BenchError(f"machine probe failed: {out.stderr.strip()}")
    return json.loads(out.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "selcorr" / "cli.py").is_file():
        print(f"perfbench: no selcorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reference = json.loads(REFERENCE.read_text())
        print("machine: " + json.dumps(machine()))
        results = [run_workload(WORKLOADS[n], args.seed, args.seconds, trace, reference) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics: dict[str, dict] = {}
    for r in results:
        print_report(r, WORKLOADS[r.workload], trace)
        prefix = f"{r.workload}." if len(results) > 1 else ""
        if trace:
            layer = per_layer(r, r.workload)
            for name, unit in LAYER_UNITS.items():
                metrics[prefix + name] = {"value": layer.get(name, 0.0), "unit": unit}
        else:
            for name, value in end_to_end(r).items():
                metrics[prefix + name] = {"value": value, "unit": END_TO_END_UNITS[name]}
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
