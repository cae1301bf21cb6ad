"""Tests of the benchmark itself: span arithmetic, failure accounting, seeding.

Run with `python3 -m pytest -q perfbench/tests`.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 7]
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["g", 2.0, 3.0, 1, 0],
        ["b", 5.0, 7.0, 0, 0],
        ["a", 8.0, 9.0, 0, 1],
    ]
    assert tracing.self_times(spans) == {"root": 4.0, "a": 3.0, "g": 1.0, "b": 2.0}


def test_overlapping_children_are_covered_once():
    spans = [["p", 0.0, 10.0, None, 0], ["c", 1.0, 5.0, 0, 0], ["c", 3.0, 6.0, 0, 0]]
    assert tracing.self_times(spans)["p"] == 5.0


def test_tracer_records_parents_and_op_ids():
    ticks = iter(float(t) for t in range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(x) * 2

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    tracer.op = 3
    assert traced_outer(1) == 4
    (o_name, o_start, o_end, o_parent, o_op), (i_name, i_start, i_end, i_parent, _) = tracer.spans
    assert (o_name, o_parent, o_op, i_name, i_parent) == ("outer", None, 3, "inner", 0)
    assert o_start < i_start < i_end < o_end
    assert tracing.self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}


def test_install_wraps_every_binding_and_uninstall_restores():
    import importlib

    density_mod = importlib.import_module("framelab.density")
    verify = importlib.import_module("framelab.verify")
    original = density_mod.density
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert density_mod.density is verify.density is not original
        space = importlib.import_module("framelab.space")
        sched = density_mod.lattice_schedule(0.5, 2, r_max=8.0)
        verify.density(space.CountingMeasure(space.Lattice(0.5, 2)), space.LebesgueMeasure(2), sched)
    finally:
        tracer.uninstall()
    assert density_mod.density is verify.density is original
    assert tracer.counters["density.density.balls"] == len(sched.centers()) * len(sched.radii)
    names = {span[0] for span in tracer.spans}
    assert names == {"density.density", "space.ball_mass"}


def _oracle(monkeypatch, trials=4):
    monkeypatch.setattr(workloads, "ORACLE_TRIALS", trials)
    return workloads.make_workload("oracle", 0, BENCH / "out" / "test")


def test_passing_oracle_has_zero_fail_share(monkeypatch):
    rec = worker.run_pass(_oracle(monkeypatch))
    result, summary = run.summarize([rec], [], [0.1], trace=0)
    assert result["correct"] and result["failed"] == 0 and summary["fail_share"] == 0.0
    assert result["metrics"]["ok_share"]["value"] == 1.0


def test_forced_check_failure_raises_fail_share(monkeypatch):
    monkeypatch.setattr(workloads, "IDEMPOTENCY_TOL", 0.0)
    rec = worker.run_pass(_oracle(monkeypatch))
    result, summary = run.summarize([rec], [], [0.1], trace=0)
    assert not result["correct"]
    assert (result["attempted"], result["failed"], summary["fail_share"]) == (1, 1, 1.0)
    assert result["metrics"]["ok_share"]["value"] == 0.0
    assert "idempotency gap" in summary["problems"][0]


def test_raising_op_counts_as_failed(monkeypatch):
    workload = _oracle(monkeypatch)

    def boom():
        raise RuntimeError("forced")

    workload.ops = workload.ops + [("boom", boom)]
    workload.check = lambda results: [[] if r is not None else ["no result"] for r in results]
    _, failures, _ = workloads.run_ops(workload)
    assert failures == [[], ["boom: RuntimeError: forced"]]


def test_counters_must_repeat(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    same = [{"counters": {"x": 1}}, {"counters": {"x": 1}}]
    assert run.check_counters(same, "k") == []
    assert run.check_counters(same[:1], "k") == []
    assert run.check_counters([{"counters": {"x": 2}}], "k")
    assert run.check_counters([{"counters": {"x": 1}}, {"counters": {"x": 3}}], "j")


def test_seed_zero_reproduces_acceptance_inputs():
    configs = workloads.scenario_configs(0)
    assert configs[:4] == [
        {"scenario": "fock", "lattice": {"scale": 0.5, "dim": 2}},
        {"scenario": "gabor", "lattice": {"scale": 0.8, "dim": 2}},
        {"scenario": "gabor", "lattice": {"scale": 1.2, "dim": 2}},
        {"scenario": "fock", "lattice": {"scale": 2.0, "dim": 2}},
    ]
    assert configs[4:] == [{"scenario": "paley-wiener"}, {"scenario": "dual-embedding"}]
    assert workloads.tail_probes(0) == [[0.0, 0.0], [0.62, -1.37], [2.5, 3.1]]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_inputs_are_identical_for_a_seed(seed):
    assert workloads.scenario_configs(seed) == workloads.scenario_configs(seed)
    assert workloads.tail_probes(seed) == workloads.tail_probes(seed)
    a, b = workloads.jittered_lattice(seed), workloads.jittered_lattice(seed)
    assert a.shape == (351 * 351, 2) and np.array_equal(a, b)
    assert np.max(np.abs(a - np.round(a / 0.8) * 0.8)) <= 0.2


def test_inputs_change_with_the_seed():
    assert workloads.scenario_configs(1) != workloads.scenario_configs(2)
    assert workloads.tail_probes(1) != workloads.tail_probes(2)
    assert not np.array_equal(workloads.jittered_lattice(1), workloads.jittered_lattice(2))
    for cfg in workloads.scenario_configs(7)[:4]:
        factor = cfg["gram_radii"][0] / workloads.GRAM_RADII[0]
        assert 0.98 <= factor <= 1.02
        assert cfg["radii"] == [r * factor for r in workloads.TABLE_RADII]
    offset = workloads.scenario_configs(7)[5]["offset"]
    assert all(-0.5 <= x <= 0.5 for x in offset)


def test_result_metrics_match_benchmark_json():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    rec = {"ops": 1, "failed_ops": 0, "failures": [], "wall_s": 2.0, "cpu_s": 2.0, "peak_rss_mib": 50.0}
    traced = dict(rec, layers=tracing.layer_metrics([], {}, 2.0))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = run.summarize([rec], [traced] if trace else [], [0.3], trace)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in spec[key]}
