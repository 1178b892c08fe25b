"""Checks of the scripts under tools/, loaded by path; no command is run."""

import importlib.util
from pathlib import Path

import pytest

from selcorr.cli import build_parser

TOOLS = Path(__file__).resolve().parents[1] / "tools"


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
