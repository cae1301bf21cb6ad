"""What a scenario or a kernel reads is decided by the table that lists it.

``verify.DEFAULTS`` lists every key each scenario reads and each class of
``kernels.KERNELS`` every param its kernel reads (its ``params``); the
schemas check shapes only.  Each table is crossed with the schema
properties a config or a kernel spec could hold, so every key or param that
is not read exits 2 at its own JSON path through ``run``, ``gram`` and
``localize``, and the schemas use thirteen keywords, none of them
conditional.
"""
import json

import pytest

from framelab import cli
from framelab.cli import main
from framelab.kernels import KERNELS
from framelab.verify import CONFIG_SCHEMA, DEFAULTS, MEASURE_SCHEMA

# a value of the right shape for each config key, as some scenario's DEFAULTS gives it; points_csv has no default
KEY_SAMPLES = {"points_csv": "pts.csv", **{k: v for d in DEFAULTS.values() for k, v in d.items() if v is not None}}
PARAM_SAMPLES = {"band": 2.0, "n": 1}
PARAMS = cli._KERNEL_SCHEMA["properties"]["params"]["properties"]
SUPPORT = {"lattice": {"scale": 1.0, "dim": 2}}
SIDES = {"f": {"lebesgue": {"dim": 1}}, "g": {"lebesgue": {"dim": 1}}}
KEYWORDS = {
    *("type", "properties", "additionalProperties", "required", "enum", "minimum", "exclusiveMinimum"),
    *("items", "minItems", "maxItems", "uniqueItems", "minProperties", "maxProperties"),
}


def unread_rows():
    """(argv, JSON path, who) for every key, tolerances field and param that its scenario or kernel does not read."""
    fields = CONFIG_SCHEMA["properties"]["tolerances"]["properties"]
    for name, defaults in DEFAULTS.items():
        who = f"scenario {name!r}"
        for key in CONFIG_SCHEMA["properties"]:
            if key not in defaults and key != "scenario":
                cfg = {"scenario": name, key: KEY_SAMPLES[key]}
                yield pytest.param(["run", "--config", json.dumps(cfg)], f"$.{key}", who, id=f"run-{name}-{key}")
        for field in fields:
            if "tolerances" in defaults and field not in defaults["tolerances"]:
                cfg = {"scenario": name, "tolerances": {field: 0.1}}
                argv = ["run", "--config", json.dumps(cfg)]
                yield pytest.param(argv, f"$.tolerances.{field}", who, id=f"run-{name}-tolerances.{field}")
    for name, cls in KERNELS.items():
        who = f"kernel {name!r}"
        for param in PARAMS:
            if param not in cls.params:
                spec = {"kernel": name, "params": {param: PARAM_SAMPLES[param]}}
                argv = ["gram", "--kernel", json.dumps(spec), "--support", json.dumps(SUPPORT), "--radii", "2"]
                yield pytest.param(argv, f"$.params.{param}", who, id=f"gram-{name}-{param}")
                argv = ["localize", "--pair", json.dumps({"kernel": spec, **SIDES}), "--radii", "2"]
                yield pytest.param(argv, f"$.kernel.params.{param}", who, id=f"localize-{name}-{param}")


@pytest.mark.parametrize("argv, path, who", unread_rows())
def test_unread_key_exit_2_at_its_path_before_any_work(argv, path, who, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(argv + (["--out-dir", str(out)] if argv[0] == "run" else ["--out", str(out)]))
    assert rc == 2
    assert f"config invalid at {path}: {who} does not read it" in capsys.readouterr().err
    assert not out.exists()


def keywords(schema) -> set:
    """Every keyword of a schema and of its subschemas; property names are no keywords."""
    if isinstance(schema, list):
        return set().union(*map(keywords, schema))
    if not isinstance(schema, dict):
        return set()
    found = set(schema)
    for key, value in schema.items():
        found |= keywords(list(value.values()) if key == "properties" else value)
    return found


def test_schemas_use_thirteen_unconditional_keywords():
    # the tables decide what is read, so no schema needs allOf, if, then, not or const
    assert keywords([CONFIG_SCHEMA, MEASURE_SCHEMA, cli._KERNEL_SCHEMA, cli._PAIR_SCHEMA]) == KEYWORDS
