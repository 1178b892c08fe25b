"""Checks of the scripts under tools/ and perfbench/, loaded by path; no
command is run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from selcorr.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_matrix_parses_under_the_cli(tmp_path):
    # a matrix that still names a deleted flag fails here, not mid-run
    digests = _load("output_digests")
    matrix = digests._matrix(tmp_path, "50")
    assert matrix
    parser = build_parser()
    for name, argv in matrix:
        args = parser.parse_args([*argv, "--seed", "0"])
        assert args.command == argv[0], name


def test_output_digests_rejects_a_tree_without_src(tmp_path, monkeypatch):
    digests = _load("output_digests")

    def no_commands(*args, **kwargs):
        raise AssertionError("a command ran")

    monkeypatch.setattr(digests.subprocess, "run", no_commands)
    with pytest.raises(SystemExit) as exc:
        digests.main(["--tree", str(tmp_path)])
    assert exc.value.code == 2


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
    assert {argv[0] for argv in argvs} == {"gen", "train-projector", "eval-match",
                                            "eval-detect", "ablate"}
    parser = build_parser()
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0], argv
