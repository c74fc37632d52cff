"""Smoke test of the benchmark at tiny N.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
from dataclasses import replace

import pytest

import run
import tracing
from workloads import WORKLOADS

TINY_GAP = (1.0, 1.0)    # tiny N is far from the linear model's accuracy


@pytest.fixture(scope="module")
def tb():
    return run.import_program()


def tiny(name, **changes):
    base = WORKLOADS[name]
    small = dict(name=f"tiny-{name}", n=32, linear_gap=TINY_GAP)
    if base.is_study:
        small.update(dts=(2e-3, 1e-3, 5e-4), overrides=dict(t_final=0.02),
                     order_band=(0.0, 10.0))
    else:
        small.update(steps=3)
    small.update(changes)
    return replace(base, **small)


def measure(tb, tmp_path, workload, trace):
    bench = run.Bench(tb, workload, workload.eps_init, tmp_path)
    bench.measure(seconds=0.0, trace=trace)
    return bench


def test_benchmark_file_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_reported_with_unit(tb, tmp_path, name, trace):
    bench = measure(tb, tmp_path, tiny(name), trace)
    assert sum(c["failed"] for c in bench.calls) == 0, bench.calls
    values, units = run.report(bench, trace)
    assert set(values) >= set(units)
    assert all(units.values())
    if not trace:
        assert all(values[k] > 0 for k in units)


def test_wrappers_removed_after_traced_run(tb, tmp_path):
    originals = [(owner, attr, tracing._raw(owner, attr))
                 for owner, attr, _, _ in tracing.trace_targets(tb)]
    solve = tb["solver"].FieldSolver.__dict__["solve"]
    bench = measure(tb, tmp_path, tiny("fig7-n512"), trace=True)
    assert bench.tracer.spans, "the traced call recorded no spans"
    assert tracing.installed_wrappers(tb) == []
    for owner, attr, original in originals:
        assert tracing._raw(owner, attr) is original, attr
    assert tb["solver"].FieldSolver.__dict__["solve"] is solve


def test_step_self_times_add_up(tb, tmp_path):
    bench = run.Bench(tb, tiny("fig11-n512"), 0.1, tmp_path)
    bench.warm_up()
    for _ in range(3):
        bench.run_call(traced=True)
    layers = tracing.layer_metrics(bench.tracer.spans)
    assert all(layers[k] >= 0 for k in tracing.STEP_PARTS)
    # the same calls timed from outside: first field solve to return
    looped = sum(c["wall_s"] - c["setup_s"] for c in bench.calls)
    steps = sum(c["steps"] for c in bench.calls)
    assert layers["trace.step.s"] == pytest.approx(looped / steps, rel=0.1)
    assert layers["kernels.blocks.calls"] == 6
    assert layers["geometry.gap.calls"] == 2


def test_forced_failure_counts(tb, tmp_path):
    halting = tiny("fig7-n512", overrides=dict(record_interval=0.0,
                                               min_gap_factor=1e6))
    bench = measure(tb, tmp_path, halting, trace=False)
    assert len(bench.calls) == run.MIN_CALLS
    assert all(c["failed"] == c["ops"] == 1 for c in bench.calls)
    assert "PROXIMITY_HALT" in bench.calls[0]["errors"][0]


def test_counts_repeat_exactly(tb, tmp_path):
    counts = [k for k, u in run.LAYER_UNITS.items() if u == "count/step"]
    first, second = (tracing.layer_metrics(
        measure(tb, tmp_path, tiny("fig11-n512"), trace=True).tracer.spans)
        for _ in range(2))
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
