"""Every scenario config the benchmark runs is valid: its shape, and every key its scenario reads.

The benchmark harness builds its configs itself (``perfbench/workloads.py``),
so a schema change that rejects one of them would turn benchmark operations
into failures without any test of the package noticing.  The ``tail-law``
workload's reference check runs here too, so a change that breaks it fails
the test suite and not only a benchmark run.
"""
import sys
from pathlib import Path

import pytest

from framelab.verify import resolve_config, validate_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 11, 12345])
def test_benchmark_scenario_configs_are_valid(seed):
    for cfg in workloads.scenario_configs(seed):
        resolve_config(validate_config(cfg))


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_tail_law_passes_its_reference_check(seed, tmp_path):
    # the benchmark's tail-law workload, run once with its own check: a change to the
    # radial rule that breaks the tail law fails here too
    workload = workloads.make_workload("tail-law", seed, tmp_path)
    _, failures, _ = workloads.run_ops(workload)
    assert len(failures) == 9
    assert [fails for fails in failures if fails] == []
