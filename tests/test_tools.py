"""Checks of the scripts under tools/ and perfbench/, loaded by path; no
command's work is run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from selcorr import cli
from selcorr.config import ExperimentConfig
from selcorr.projector import init_projector

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _accepted(monkeypatch, argvs: list[list[str]]) -> list[str]:
    """The command of each line, after `cli.main` accepts it: every flag is
    one its command form reads (`cli.READS`) with a value in range. The
    commands themselves are stubbed out, and so are the read of a corpus's
    world and the load of a checkpoint: the default world stands in for
    both, with a projector of its dimensions, so no work is run."""
    world = ExperimentConfig()
    monkeypatch.setattr(cli, "read_world", lambda directory: world)
    proj = init_projector(world.d, world.d_proj, world.seed)
    monkeypatch.setattr(cli, "load_checkpoint", lambda directory: (proj, world))
    ran = []
    for name in ("gen", "train_projector", "eval_match", "eval_detect", "ablate",
                 "export_simmap"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda *args, name=name: ran.append(name) or 0)
    for argv in argvs:
        assert cli.main(argv) == 0, argv
        assert ran[-1] == argv[0].replace("-", "_"), argv
    return [argv[0] for argv in argvs]


def test_output_digests_matrix_parses_under_the_cli(tmp_path, monkeypatch):
    # a matrix line with a flag its form does not read, such as `ablate
    # --axis kc --crop 32`, fails here, not mid-run
    digests = _load("output_digests")
    matrix = digests._matrix(tmp_path, "50")
    assert matrix
    _accepted(monkeypatch, [[*argv, "--seed", "0"] for _, argv in matrix])


def test_output_digests_rejects_a_tree_without_src(tmp_path, monkeypatch):
    digests = _load("output_digests")

    def no_commands(*args, **kwargs):
        raise AssertionError("a command ran")

    monkeypatch.setattr(digests.subprocess, "run", no_commands)
    with pytest.raises(SystemExit) as exc:
        digests.main(["--tree", str(tmp_path)])
    assert exc.value.code == 2


def test_output_digests_runs_every_command_on_one_blas_thread(tmp_path, monkeypatch):
    # eval-detect's bytes depend on the BLAS thread count, so the digests pin it
    digests = _load("output_digests")
    envs = []

    def recorded(argv, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(argv, 0 if len(envs) < 3 else 1, "", "")

    monkeypatch.setattr(digests.subprocess, "run", recorded)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "2")
    with pytest.raises(SystemExit):
        digests.run(ROOT, [0], tmp_path)
    assert len(envs) == 3
    for env in envs:
        assert env["PYTHONPATH"] == str(ROOT / "src")
        assert [env[name] for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                       "MKL_NUM_THREADS")] == ["1", "1", "1"]


def test_perfbench_command_lines_parse_under_the_cli(tmp_path, monkeypatch):
    # the benchmark's timed commands and its set-up lines; a flag the CLI no
    # longer takes fails here, not in a benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # run.py imports spans
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")
    argvs = [[*command.argv(tmp_path / name), "--seed", "0"]
             for name, command in bench.COMMANDS.items()]

    def recorded(argv, log):
        if argv[1:3] == ["-m", "selcorr"]:
            argvs.append(argv[3:])
        return bench.Proc(0.0, 0.0, 0.0, 0)

    monkeypatch.setattr(bench, "run_process", recorded)
    for workload in bench.WORKLOADS.values():
        bench.build_inputs(workload, 0, tmp_path / "log")
    assert set(_accepted(monkeypatch, argvs)) == {"gen", "train-projector", "eval-match",
                                                  "eval-detect", "ablate"}
