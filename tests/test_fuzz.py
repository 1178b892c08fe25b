"""Property tests at the data boundary: the key=value parser and the sample
loader either return a result or raise ValueError (ScetError is one), never
any other exception, whatever the text or bytes on disk; a loaded config
either raises ConfigError or builds every object the commands build from it;
and the commands that read a corpus or a checkpoint end in a documented exit
code, whatever was done to the files."""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selcorr.cli import main
from selcorr.config import ConfigError, ExperimentConfig, load_config
from selcorr.projector import init_projector
from selcorr.synth import generate_backbone_output, read_sample, write_sample
from selcorr.tensorio import parse_key_values, write_key_values

# reproducible in CI: a fixed example sequence and no example database
FUZZ = settings(derandomize=True, database=None, deadline=None)

# the tests' small world: every sample and command here is built on it
TINY_CONFIG = Path(__file__).resolve().parent / "configs" / "tiny.txt"

SAMPLE_FILES = ("landmarks.scet", "main.scet", "aux.scet", "qcls.scet", "keys.scet")
# the characters these formats are made of, plus a few that break them
FORMAT_CHARS = "0123456789.,-+_eEnaifxy=# \t"
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=60)
format_text = st.text(FORMAT_CHARS, max_size=30)


@settings(FUZZ, max_examples=200)
@given(st.one_of(text, st.lists(format_text, max_size=6).map("\n".join)))
def test_key_value_parser_returns_a_dict_or_raises_value_error(source):
    try:
        parsed = parse_key_values(source, "fuzz.txt")
    except ValueError as exc:
        assert str(exc).startswith("fuzz.txt: line ")
        return
    for key, value in parsed.items():
        assert key and key == key.strip() and value == value.strip()
        assert "=" not in key and "#" not in key + value


@settings(FUZZ, max_examples=100)
@given(
    st.dictionaries(
        st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8),
        st.one_of(st.integers(), st.floats(allow_nan=False), st.text("abcxyz019.-", max_size=8)),
        max_size=5,
    )
)
def test_written_key_values_parse_back(items):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "meta.txt"
        write_key_values(path, items)
        parsed = parse_key_values(path.read_text(), str(path))
    assert list(parsed) == list(items)
    for key, value in items.items():
        if isinstance(value, float):
            assert float(parsed[key]) == value
        else:
            assert parsed[key] == str(value).strip()


# the world of every sample here
TINY_SPEC = load_config(TINY_CONFIG).face_spec()


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz") / "sample"
    output = generate_backbone_output(TINY_SPEC, seed=0)
    write_sample(directory, output, np.asarray(TINY_SPEC.landmarks_px))
    return directory


def _replace_text(path: Path, new: str) -> None:
    path.write_text(new)


def _lines(path: Path) -> list[str]:
    # an earlier byte edit may have left text that is not valid UTF-8
    return path.read_text(errors="replace").splitlines()


def _edit_line(path: Path, index: int, new: str) -> None:
    lines = _lines(path) or [""]
    lines[index % len(lines)] = new
    path.write_text("".join(line + "\n" for line in lines))


def _set_float(path: Path, index: int, value: float) -> None:
    # an intact float64 .scet payload ends the file, so this sets one value
    data = bytearray(path.read_bytes())
    if len(data) >= 8:
        at = len(data) - 8 * (1 + index % (len(data) // 8))
        data[at : at + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(data))


def _set_byte(path: Path, index: int, value: int) -> None:
    data = bytearray(path.read_bytes()) or bytearray(1)
    data[index % len(data)] = value
    path.write_bytes(bytes(data))


def _truncate(path: Path, index: int) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: index % (len(data) + 1)])


mutations = st.one_of(
    # the last ten values: a coordinate of one of the world's five landmarks
    st.tuples(st.just(_set_float), st.just("landmarks.scet"), st.integers(0, 9), st.floats()),
    st.tuples(st.just(_set_byte), st.sampled_from(SAMPLE_FILES), st.integers(0, 2**16),
              st.integers(0, 255)),
    st.tuples(st.just(_truncate), st.sampled_from(SAMPLE_FILES), st.integers(0, 2**16)),
)


@settings(FUZZ, max_examples=120)
@given(st.lists(mutations, min_size=1, max_size=3))
def test_read_sample_returns_a_sample_or_raises_value_error(sample_dir, edits):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "sample"
        shutil.copytree(sample_dir, directory)
        for mutate, name, *args in edits:
            mutate(directory / name, *args)
        try:
            output, landmarks = read_sample(directory, TINY_SPEC)
        except ValueError:
            return
    assert landmarks.dtype == np.float64 and landmarks.shape == (TINY_SPEC.n_landmarks, 2)
    assert np.isfinite(landmarks).all()
    assert (landmarks >= 0.0).all()
    assert (landmarks[:, 0] <= output.main.image_w - 1).all()
    assert (landmarks[:, 1] <= output.main.image_h - 1).all()


# config values as flag text: in-range and boundary numbers, non-finite
# floats and text of the wrong type
FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
VALUE_TEXT = {
    "int": st.one_of(
        st.integers(-2, 200).map(str),
        st.sampled_from(["1.5", "x", ""]),
        # past int64: float division, deque and numpy overflow on these
        st.integers(min_value=2**63).map(str),
        st.integers(max_value=-(2**63)).map(str),
    ),
    "float": st.one_of(st.floats(-2.0, 2.0), st.floats()).map(repr),
    "str": st.sampled_from(["gd", "momentum", "adam", ""]),
}
overrides = st.lists(st.sampled_from(sorted(FIELD_TYPES)), max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: VALUE_TEXT[FIELD_TYPES[k]] for k in keys})
)


@settings(FUZZ, max_examples=400)
@given(overrides)
@example({"crop": "8" * 401})  # a multiple of the patch
def test_loaded_config_builds_everything_or_raises_config_error(values):
    try:
        cfg = load_config(overrides=values)
    except ConfigError:
        return
    cfg.face_spec()
    init_projector(cfg.d, cfg.d_proj, cfg.seed)


# a 3-sample corpus and a checkpoint trained on it, small enough that each
# command runs in tens of milliseconds
CLI_FLAGS = ["--config", str(TINY_CONFIG)]
CHECKPOINT_FILES = ("meta.txt", "weight.scet", "bias.scet")
CORPUS_FILES = (
    "corpus/manifest.txt",
    "corpus/config.txt",
    *(f"corpus/sample_{i:04d}/{name}" for i in range(3) for name in SAMPLE_FILES),
    *(f"run/checkpoint/{name}" for name in CHECKPOINT_FILES),
)


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def cli_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert _quiet_main(["gen", "--count", "3", "--out", str(root / "corpus"), *CLI_FLAGS]) == 0
    manifest = str(root / "corpus" / "manifest.txt")
    rc = _quiet_main(["train-projector", "--manifest", manifest, "--out", str(root / "run"),
                      *CLI_FLAGS])
    assert rc == 0
    return root


file_mutations = st.one_of(
    st.tuples(st.just(Path.unlink)),
    st.tuples(st.just(_set_float), st.integers(0, 2**10), st.sampled_from([np.nan, np.inf, -np.inf])),
    st.tuples(st.just(_replace_text), text),
    st.tuples(st.just(_edit_line), st.integers(0, 9), format_text),
    st.tuples(st.just(_set_byte), st.integers(0, 2**16), st.integers(0, 255)),
    st.tuples(st.just(_truncate), st.integers(0, 2**16)),
)


@settings(FUZZ, max_examples=30)
@given(st.lists(st.tuples(st.sampled_from(CORPUS_FILES), file_mutations), min_size=1, max_size=3))
@example([("corpus/sample_0001/main.scet", (Path.unlink,))])  # OSError, exit 2
@example([("corpus/sample_0002/aux.scet", (_set_float, 3, np.nan))])
@example([("corpus/sample_0002/aux.scet", (_set_float, 3, 1e160))])  # finite; distances overflow
def test_commands_on_mutated_files_end_in_an_exit_code(cli_tree, edits):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(cli_tree, root, dirs_exist_ok=True)
        for name, (mutate, *args) in edits:
            if (root / name).exists():
                mutate(root / name, *args)
        manifest = str(root / "corpus" / "manifest.txt")
        checkpoint = str(root / "run" / "checkpoint")
        for argv in (
            ["train-projector", "--manifest", manifest, "--out", str(root / "trained")],
            ["eval-detect", "--manifest", manifest, "--checkpoint", checkpoint, "--budget", "2",
             "--out", str(root / "detect")],
            ["eval-match", "--checkpoint", checkpoint, "--out", str(root / "match")],
        ):
            assert _quiet_main([*argv, *CLI_FLAGS]) in (0, 1, 2, 3)
