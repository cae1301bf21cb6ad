"""The JSON examples in README.md pass the schemas that check them.

Every scenario config in a README ``json`` block validates, and the block
that spells out each scenario's defaults equals ``verify.DEFAULTS``.  The
``--mu``/``--nu`` measure specs and the ``--kernel``/``--lattice`` specs of
the command examples validate against their commands' schemas.
"""
import json
import re
from pathlib import Path

from framelab import cli
from framelab.verify import DEFAULTS, validate_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
ARG_SCHEMAS = {
    "mu": cli._MEASURE_SCHEMA,
    "nu": cli._MEASURE_SCHEMA,
    "kernel": cli._KERNEL_SCHEMA,
    "lattice": cli._LATTICE_SCHEMA,
}


def json_blocks() -> list[list[dict]]:
    """The objects of each README json block; an object starts at a line beginning with '{'."""
    blocks = re.findall(r"```json\n(.*?)```", README, re.S)
    return [[json.loads(obj) for obj in re.split(r"\n(?=\{)", block.strip())] for block in blocks]


def test_scenario_configs_validate():
    configs = [cfg for block in json_blocks() for cfg in block]
    assert len(configs) == 1 + len(DEFAULTS)
    for cfg in configs:
        validate_config(cfg)


def test_defaults_block_is_the_defaults_table():
    spelled = {cfg.pop("scenario"): cfg for cfg in json_blocks()[1]}
    assert spelled == {name: {k: v for k, v in d.items() if v is not None} for name, d in DEFAULTS.items()}


def test_command_arguments_validate():
    args = re.findall(r"--(mu|nu|kernel|lattice) '(\{.*?\})'", README)
    assert sorted(key for key, _ in args) == sorted(ARG_SCHEMAS)
    for key, text in args:
        validate_config(json.loads(text), ARG_SCHEMAS[key])
