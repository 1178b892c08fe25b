"""Span tracing of the selcorr CLI from outside the package.

The benchmark never edits the program. Instead, for a traced run it wraps
the public functions named in TRACED in every `selcorr` module namespace
that binds them (the CLI imports most of them by name, `projector` binds
`loss_and_gradient`, `evaluation` binds `bilinear_upsample` and `project`),
runs `selcorr.cli.main`, writes the spans, and restores the originals.

Each span is (id, name, start, end, parent, run): `parent` is the id of the
innermost traced call open when it started, or None. Spans stay in memory
until the run ends.

Run as a script, it is the traced child process:

    python3 perfbench/spans.py SPANS.json RUN_ID -- <selcorr arguments>
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections.abc import Callable, Iterable
from dataclasses import dataclass

# layer module -> public functions whose calls become spans
TRACED: dict[str, tuple[str, ...]] = {
    "tensorio": ("read_tensor", "write_tensor", "bilinear_upsample"),
    "synth": ("read_sample", "write_sample", "generate_backbone_output", "make_pair", "tps_warp"),
    "partition": ("cls_similarity", "split_tokens"),
    "dpc": ("cluster_tokens", "approximate_inattentive"),
    "lcr": ("loss_and_gradient", "correspondence_matrix", "pair_weight"),
    "projector": ("prepare_image", "train_projector", "project", "save_checkpoint", "load_checkpoint"),
    "evaluation": (
        "match_pair",
        "similarity_map",
        "upsample_features",
        "drop_mask",
        "train_regressor",
        "regressor_forward",
    ),
    "config": ("load_config",),
    "cli": ("main",),
}

TRACED_NAMES: tuple[str, ...] = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)


def _loss_flops(args, kwargs, result) -> float:
    # (n, k) projected tokens: Z Z^T and (G + G^T) Z are 2 n^2 k each; the
    # softmax, weighting and gradient rows are about 10 elementwise n x n ops
    n, k = args[0].shape
    return 4.0 * n * n * k + 10.0 * n * n


# counters computed from argument and result shapes, never measured;
# metric name -> (traced name, function of (args, kwargs, result))
COMPUTED: dict[str, tuple[str, Callable]] = {
    "tensorio.read_tensor.bytes": ("tensorio.read_tensor", lambda a, k, r: r.nbytes),
    "tensorio.bilinear_upsample.bytes_out": (
        "tensorio.bilinear_upsample",
        lambda a, k, r: r.values.nbytes,
    ),
    "lcr.loss_and_gradient.flops": ("lcr.loss_and_gradient", _loss_flops),
}


class Recorder:
    """Collects spans and computed counters of one traced run."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {name: 0.0 for name in COMPUTED}
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        counters = [(metric, count) for metric, (traced, count) in COMPUTED.items() if traced == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "start": self.clock(),
                "end": None,
                "parent": self._open[-1] if self._open else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._open.pop()
            for metric, count in counters:
                self.counters[metric] += float(count(args, kwargs, result))
            return result

        return traced


def install(
    recorder: Recorder, modules: Iterable[types.ModuleType], originals: dict[str, Callable]
) -> list[tuple[types.ModuleType, str, Callable]]:
    """Replace every binding of each original in `modules` with a wrapper.

    `originals` maps a traced name to the function object it names; any
    module attribute that *is* that object is rebound, whatever its local
    name. Returns what `restore` needs to undo it.
    """
    wrappers = {id(fn): recorder.wrap(name, fn) for name, fn in originals.items()}
    replaced = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                replaced.append((module, attr, value))
                setattr(module, attr, wrapper)
    return replaced


def restore(replaced: list[tuple[types.ModuleType, str, Callable]]) -> None:
    for module, attr, value in reversed(replaced):
        setattr(module, attr, value)


def selcorr_originals() -> tuple[list[types.ModuleType], dict[str, Callable]]:
    """All loaded selcorr modules and the traced functions they define."""
    for mod in TRACED:
        importlib.import_module(f"selcorr.{mod}")
    modules = [m for n, m in sorted(sys.modules.items()) if n == "selcorr" or n.startswith("selcorr.")]
    originals = {}
    for mod, names in TRACED.items():
        module = sys.modules[f"selcorr.{mod}"]
        for fname in names:
            originals[f"{mod}.{fname}"] = getattr(module, fname)
    return modules, originals


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_stats(spans: list[dict]) -> dict[str, LayerStats]:
    """Calls, total and self seconds per span name.

    Self time is a span's duration minus its child spans' durations; the
    recorder is one stack, so children of one span never overlap. Total
    time counts only the outermost span of a name, so a function that
    re-enters itself is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    child_s: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    stats: dict[str, LayerStats] = {}
    for s in spans:
        st = stats.setdefault(s["name"], LayerStats())
        duration = s["end"] - s["start"]
        st.calls += 1
        st.self_s += duration - child_s.get(s["id"], 0.0)
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            st.total_s += duration
    return stats


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _traced_main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: spans.py SPANS.json RUN_ID -- <selcorr arguments>", file=sys.stderr)
        return 1
    out_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    modules, originals = selcorr_originals()
    recorder = Recorder(run_id)
    replaced = install(recorder, modules, originals)
    cpu0 = time.process_time()
    try:
        code = sys.modules["selcorr.cli"].main(cli_args)
    finally:
        cpu_s = time.process_time() - cpu0
        restore(replaced)
    with open(out_path, "w") as fh:
        json.dump({"spans": recorder.spans, "counters": recorder.counters, "cpu_s": cpu_s}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(_traced_main(sys.argv[1:]))
