"""Every scenario config the benchmark runs is valid against the scenario schema.

The benchmark harness builds its configs itself (``perfbench/workloads.py``),
so a schema change that rejects one of them would turn benchmark operations
into failures without any test of the package noticing.
"""
import sys
from pathlib import Path

import pytest

from framelab.verify import validate_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 11, 12345])
def test_benchmark_scenario_configs_are_valid(seed):
    for cfg in workloads.scenario_configs(seed):
        validate_config(cfg)
