"""Tests of the benchmark's own logic, on synthetic spans and outputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
import types

import pytest

import run
import spans

sys.path.insert(0, str(run.ROOT / "src"))


def _span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "run": "r"}


def test_self_time_subtracts_child_coverage():
    recorded = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "a", 1.0, 5.0, parent=0),
        _span(2, "b", 2.0, 3.0, parent=1),
        _span(3, "b", 3.5, 4.0, parent=1),
        _span(4, "a", 6.0, 7.0, parent=0),
    ]
    stats = spans.layer_stats(recorded)
    assert stats["cli.main"].calls == 1
    assert stats["cli.main"].total_s == pytest.approx(10.0)
    assert stats["cli.main"].self_s == pytest.approx(10.0 - 4.0 - 1.0)
    assert stats["a"].calls == 2
    assert stats["a"].total_s == pytest.approx(5.0)
    assert stats["a"].self_s == pytest.approx(4.0 - 1.5 + 1.0)
    assert stats["b"].self_s == pytest.approx(1.5)


def test_reentry_counts_calls_twice_and_total_once():
    recorded = [
        _span(0, "f", 0.0, 4.0),
        _span(1, "g", 1.0, 3.0, parent=0),
        _span(2, "f", 1.5, 2.5, parent=1),  # f re-entered below g
    ]
    stats = spans.layer_stats(recorded)
    assert stats["f"].self_s == pytest.approx(4.0 - 2.0 + 1.0)
    assert stats["f"].total_s == pytest.approx(4.0)  # the inner f is inside the outer
    assert stats["f"].calls == 2


def test_layer_metrics_merge_the_commands_of_a_repetition(tmp_path):
    def trace_file(name, recorded, cpu_s):
        path = tmp_path / name
        counters = dict.fromkeys(spans.COMPUTED, 1.0)
        path.write_text(json.dumps({"spans": recorded, "counters": counters, "cpu_s": cpu_s}))
        return path

    # span ids restart at 0 in each file; parents must stay within their file
    first = trace_file("a.json", [
        _span(0, "cli.main", 0.0, 4.0),
        _span(1, "synth.make_pair", 1.0, 2.0, parent=0),
    ], 4.0)
    second = trace_file("b.json", [
        _span(0, "cli.main", 0.0, 2.0),
        _span(1, "synth.make_pair", 0.5, 1.0, parent=0),
        _span(2, "synth.make_pair", 1.0, 1.5, parent=0),
    ], 2.0)
    wl = run.Workload("w", (run.COMMANDS["match"], run.COMMANDS["sweep"]))
    metrics = run._layer_metrics(wl, [first, second])
    assert metrics["cli.main.calls"] == 2
    assert metrics["cli.main.total_s"] == pytest.approx(6.0)
    assert metrics["cli.main.self_s"] == pytest.approx(6.0 - 2.0)
    assert metrics["synth.make_pair.calls_per_pair"] == pytest.approx(3 / wl.pairs)
    assert metrics["cli.cpu_s"] == pytest.approx(6.0)
    assert metrics["lcr.loss_and_gradient.flops"] == 2.0
    assert metrics["trace.coverage"] == pytest.approx(2.0 / 6.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(10)]) is None
    assert run.tail_percentile([float(i) for i in range(11)]) == (9, 0.0)
    p, value = run.tail_percentile([float(i) for i in range(20)])
    assert p == 50 and value == 9.0
    assert sum(v > value for v in range(20)) == 10
    p, value = run.tail_percentile([float(i) for i in range(100)])
    assert p == 90 and value == 89.0


def test_percentile_nearest_rank_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 95) == 5.0
    assert run.percentile([], 50) == 0.0
    assert run.quartiles([2.0]) == (2.0, 2.0)
    assert run.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 3.75)


def _fake_modules():
    lib = types.ModuleType("fake.lib")
    # defined in lib's namespace, so work() finds helper through lib, as a
    # selcorr function finds its module's globals
    exec("def helper(x):\n    return x * 2\n\ndef work(x):\n    return helper(x) + 1\n", vars(lib))
    lib.untouched = len
    user = types.ModuleType("fake.user")
    user.work = lib.work
    user.renamed = lib.helper  # bound under another name
    return lib, user, lib.work, lib.helper


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    lib, user, work, helper = _fake_modules()
    ticks = iter(range(100))
    recorder = spans.Recorder("r", clock=lambda: float(next(ticks)))
    replaced = spans.install(recorder, [lib, user], {"lib.work": work, "lib.helper": helper})
    assert {(m.__name__, attr) for m, attr, _ in replaced} == {
        ("fake.lib", "work"),
        ("fake.lib", "helper"),
        ("fake.user", "work"),
        ("fake.user", "renamed"),
    }
    assert user.work(3) == 7
    assert user.renamed(1) == 2
    names = [s["name"] for s in recorder.spans]
    assert names == ["lib.work", "lib.helper", "lib.helper"]
    assert [s["parent"] for s in recorder.spans] == [None, 0, None]
    spans.restore(replaced)
    assert lib.work is work and lib.helper is helper and user.work is work
    assert user.renamed is helper and lib.untouched is len


def test_wrapper_records_span_when_the_call_raises():
    def boom():
        raise ValueError("x")

    mod = types.ModuleType("fake.boom")
    mod.boom = boom
    recorder = spans.Recorder("r")
    replaced = spans.install(recorder, [mod], {"fake.boom": boom})
    with pytest.raises(ValueError):
        mod.boom()
    spans.restore(replaced)
    assert recorder.spans[0]["end"] is not None
    assert recorder._open == []


def test_selcorr_bindings_are_all_wrapped_and_restored():
    modules, originals = spans.selcorr_originals()
    assert set(originals) == set(spans.TRACED_NAMES)
    recorder = spans.Recorder("r")
    replaced = spans.install(recorder, modules, originals)
    try:
        by_id = {id(fn) for fn in originals.values()}
        for module in modules:
            for attr, value in vars(module).items():
                assert id(value) not in by_id, f"{module.__name__}.{attr} left unwrapped"
        bound = {(m.__name__, attr) for m, attr, _ in replaced}
        assert ("selcorr.cli", "match_pair") in bound
        assert ("selcorr.projector", "loss_and_gradient") in bound
        assert ("selcorr.evaluation", "bilinear_upsample") in bound
        assert ("selcorr.evaluation", "project") in bound
    finally:
        spans.restore(replaced)
    for name, fn in originals.items():
        mod, fname = name.split(".")
        assert getattr(sys.modules[f"selcorr.{mod}"], fname) is fn


def test_computed_counters_come_from_shapes():
    np = pytest.importorskip("numpy")
    from selcorr import lcr

    recorder = spans.Recorder("r")
    replaced = spans.install(recorder, [lcr], {"lcr.loss_and_gradient": lcr.loss_and_gradient})
    try:
        rng = np.random.default_rng(0)
        lcr.loss_and_gradient(rng.standard_normal((6, 3)), np.ones((6, 6)))
    finally:
        spans.restore(replaced)
    assert recorder.counters["lcr.loss_and_gradient.flops"] == 4 * 36 * 3 + 10 * 36


def test_reference_check_tolerance_and_sigmas():
    reference = {
        "tolerance": 0.05,
        "sigmas": 4.0,
        "commands": {"w": {"0": {"q": 10.0}, "1": {"q": 12.0}, "2": {"q": 11.0}}},
    }
    # recorded: within 5% of the seed's own value
    assert run.reference_failures(reference, "w", 0, {"q": 10.4}) == []
    assert run.reference_failures(reference, "w", 0, {"q": 10.6})
    # not recorded: mean 11, sd 1, so the band is [7, 15]
    assert run.reference_failures(reference, "w", 7, {"q": 14.9}) == []
    assert run.reference_failures(reference, "w", 7, {"q": 15.1})
    assert run.reference_failures(reference, "w", 7, {"q": 6.9})


def test_quality_checks_reject_bad_outputs(tmp_path):
    (tmp_path / "trace.csv").write_text(
        "step,loss\n" + "".join(f"{i},{100.0 - i}\n" for i in range(run.PROJ_STEPS))
    )
    assert run._train_quality(tmp_path) == {"final_loss": 100.0 - run.PROJ_STEPS + 1}
    (tmp_path / "trace.csv").write_text(
        "step,loss\n" + "".join(f"{i},{1.0 + i}\n" for i in range(run.PROJ_STEPS))
    )
    with pytest.raises(run.CheckFailed, match="did not decrease"):
        run._train_quality(tmp_path)
    (tmp_path / "detect.csv").write_text("sample_id,landmark_id,err_iod_pct\n0,0,nan\n")
    (tmp_path / "summary.txt").write_text("mean_iod_pct=3.0\n")
    with pytest.raises(run.CheckFailed, match="non-finite"):
        run._detect_quality(tmp_path)
    (tmp_path / "detect.csv").write_text("sample_id,landmark_id,err_iod_pct\n0,0,np.float64(2.5)\n")
    assert run._detect_quality(tmp_path) == {"detect_iod_pct": 3.0}
    assert run.format_notes(run.COMMANDS["detect"], tmp_path) == [
        "detect.csv writes numbers as np.float64(...) reprs, not plain decimals"
    ]


def test_benchmark_json_lists_the_metrics_the_run_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference["commands"]) == set(run.COMMANDS)
    assert {c.name for wl in run.WORKLOADS.values() for c in wl.commands} == set(run.COMMANDS)
    assert all(math.isfinite(v) for t in reference["commands"].values() for row in t.values() for v in row.values())
