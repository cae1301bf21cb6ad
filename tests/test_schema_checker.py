"""validate_config's own shape checker against jsonschema, its oracle.

``verify.validate_config`` checks a config with framelab's private checker of
the thirteen Draft 2020-12 keywords the schemas use; jsonschema is a test
dependency only.  Mutated configs of every scenario and every CLI spec kind
go through both, and both must accept the same inputs and name the same
first fault: a non-finite number first, then the least JSON path, an
object's unexpected key first (named by the first in sorted order), then the
schema's keyword order.
"""
import copy
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framelab import cli, verify
from framelab.cli import main
from framelab.kernels import KERNELS

SRC = Path(__file__).resolve().parents[1] / "src"
MEASURES = [
    {"lebesgue": {"dim": 2}},
    {"lattice": {"scale": 0.5, "dim": 2}},
    {"lattice": {"scale": 1.0, "dim": 2, "thin": "drop-even-even"}},
    {"points_csv": "pts.csv"},
    {"atomic": {"points": [[0.0, 1.0], [1.0, 0.5]], "weights": [1.0, 2.0]}},
]
PARAM_SAMPLES = {"band": 2.0, "n": 1}
KERNEL_SPECS = [
    {"kernel": name, "params": {p: PARAM_SAMPLES[p] for p in cls.params}} for name, cls in KERNELS.items()
]


@functools.cache
def gram_support_schema() -> dict:
    """The schema framelab gram checks its --support against, as the command passes it."""
    with mock.patch.object(verify, "validate_config", wraps=verify.validate_config) as spy:
        main(["gram", "--kernel", '{"kernel": "fock"}', "--support", "[1]", "--radii", "2", "--out", "gram.json"])
    return spy.call_args.args[1]


SCHEMAS = {
    "config": (
        verify.CONFIG_SCHEMA,
        [{"scenario": name, **{k: v for k, v in d.items() if v is not None}} for name, d in verify.DEFAULTS.items()]
        + [{"scenario": "fock", "points_csv": "pts.csv"}],
    ),
    "measure": (verify.MEASURE_SCHEMA, MEASURES),
    "kernel": (cli._KERNEL_SCHEMA, KERNEL_SPECS),
    "pair": (
        cli._PAIR_SCHEMA,
        [
            {"kernel": k, "f": f, "g": g, "g_offset": [0.1, 0.2]}
            for k in KERNEL_SPECS
            for f, g in zip(MEASURES, MEASURES[::-1])
        ],
    ),
    "support": (gram_support_schema, [MEASURES[1], MEASURES[2], MEASURES[3]]),
}


def names(schema) -> set:
    """Every property name of a schema and of its subschemas."""
    if not isinstance(schema, dict):
        return set()
    found = set(schema.get("properties", {}))
    for value in [*schema.get("properties", {}).values(), schema.get("items")]:
        found |= names(value)
    return found


LEAVES = [True, False, None, "", "fock", "drop-even-even", 0, 1, -1, 2, 5.0, 0.0, -0.0, 0.5, -0.5, 1e-300, 2.5, 4.5]
LEAVES += [math.nan, math.inf, -math.inf, 10**400, [], {}, [1.0], [[1.0]], [1, 1.0], {"dim": 1}, {"dim": True}]


def nodes(value, path=()):
    """The path of every node of a JSON value, the root's () first."""
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in children:
        yield from nodes(item, path + (key,))


def twin(item):
    """An item equal to item under JSON equality that Python tells apart: 2 as 2.0 and back, else item."""
    if type(item) is int and abs(item) < 2**53:
        return float(item)
    return int(item) if type(item) is float and item.is_integer() else item


def mutate(rng, base: dict, keys: list):
    """base after one to three mutations: drop a key or an item, add one, replace a value, repeat an item, nest one."""
    holder = [copy.deepcopy(base)]
    for _ in range(rng.randint(1, 3)):
        path = (0,) + rng.choice(list(nodes(holder[0])))
        parent = holder
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        op = rng.choice(["drop", "add", "replace", "repeat", "nest"])
        leaf = copy.deepcopy(rng.choice(LEAVES))
        if op == "drop" and isinstance(node, dict) and node:
            del node[rng.choice(sorted(node))]
        elif op == "drop" and isinstance(node, list) and node:
            del node[rng.randrange(len(node))]
        elif op == "add" and isinstance(node, dict):
            node[rng.choice(keys)] = leaf
        elif op in ("add", "repeat") and isinstance(node, list):
            # a repeat is an equal item under JSON equality: the same value, or 2 as 2.0
            item = copy.deepcopy(rng.choice(node)) if op == "repeat" and node else leaf
            node.insert(rng.randint(0, len(node)), rng.choice([item, twin(item)]))
        elif op == "nest":
            parent[path[-1]] = [node]
        else:
            parent[path[-1]] = leaf
    return holder[0]


def non_finite_path(value, path="$"):
    """JSON path of the first NaN, infinity or integer no float holds, in document order, or None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return None if abs(value) <= sys.float_info.max else path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in children:
        found = non_finite_path(item, f"{path}.{key}" if isinstance(value, dict) else f"{path}[{key}]")
        if found:
            return found
    return None


# jsonschema's messages for a size bound of 1, and the checker's, which name the direction at every bound
EMPTY = {"minItems": "is too short", "minProperties": "does not have enough properties"}


def oracle(cfg, schema: dict) -> str | None:
    """The first fault as validate_config's rule names it over jsonschema's Draft 2020-12 errors, or None."""
    path = non_finite_path(cfg)
    if path is not None:
        return f"config invalid at {path}: not a finite number"
    errors = jsonschema.Draft202012Validator(schema).iter_errors(cfg)
    first = min(errors, key=lambda e: (e.json_path, e.validator != "additionalProperties"), default=None)
    if first is None:
        return None
    path, message = first.json_path, first.message
    if first.validator == "additionalProperties":
        path += "." + sorted(set(first.instance) - set(first.schema["properties"]))[0]
    if message.endswith(" should be non-empty"):
        message = message.removesuffix("should be non-empty") + EMPTY[first.validator]
    return f"config invalid at {path}: {message}"


def checker(cfg, schema: dict) -> str | None:
    try:
        verify.validate_config(cfg, schema)
    except verify.ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", SCHEMAS)
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rng=st.randoms(use_true_random=False))
def test_checker_names_the_oracles_first_fault(kind, rng):
    schema, bases = SCHEMAS[kind]
    schema = schema() if callable(schema) else schema
    keys = sorted(names(schema)) + ["", "zz", "a b", "$"]
    cfg = mutate(rng, rng.choice(bases), keys)
    assert checker(cfg, schema) == oracle(cfg, schema)


@pytest.mark.parametrize("kind", SCHEMAS)
def test_unmutated_specs_pass(kind):
    schema, bases = SCHEMAS[kind]
    schema = schema() if callable(schema) else schema
    for cfg in bases:
        assert verify.validate_config(cfg, schema) is cfg


SEMANTICS = {
    "true-no-integer": ({"seed": True}, "$.seed: True is not of type 'integer'"),
    "false-no-number": ({"radii": [False]}, "$.radii[0]: False is not of type 'number'"),
    "1-is-1.0": ({"gram_radii": [1, 1.0]}, "$.gram_radii: [1, 1.0] has non-unique elements"),
    "lists-by-items": ({"gram_radii": [[1], [1.0]]}, "$.gram_radii: [[1], [1.0]] has non-unique elements"),
    "objects-differ": ({"gram_radii": [{"a": [1]}, {"a": 1}]}, "$.gram_radii[0]: {'a': [1]} is not of type 'number'"),
    "objects-by-items": ({"gram_radii": [{"a": [1]}, {"a": [1.0]}]}, "$.gram_radii: [{'a': [1]}, {'a': [1.0]}] has"),
    "true-is-not-1": ({"gram_radii": [True, 1]}, "$.gram_radii[0]: True is not of type 'number'"),
}


@pytest.mark.parametrize("cfg, fault", SEMANTICS.values(), ids=SEMANTICS)
def test_draft_2020_12_semantics(cfg, fault):
    with pytest.raises(verify.ConfigError) as info:
        verify.validate_config({"scenario": "fock", **cfg})
    assert str(info.value).startswith(f"config invalid at {fault}")


def test_integral_float_is_an_integer():
    assert verify.validate_config({"scenario": "finite-oracle", "seed": 5.0, "trials": 2.0})


def test_enum_of_an_unhashable_value_is_a_fault():
    with pytest.raises(verify.ConfigError, match=r"at \$\.kernel: \{'a': \[1\]\} is not one of"):
        verify.validate_config({"kernel": {"a": [1]}}, cli._KERNEL_SCHEMA)


def test_keyword_it_does_not_implement_is_refused():
    schema = {"type": "object", "properties": {"scenario": {"type": "string", "maxLength": 3}}}
    with pytest.raises(ValueError, match="'maxLength'") as info:
        verify.validate_config({"scenario": "fock"}, schema)
    assert not isinstance(info.value, verify.ConfigError)


FOCK_2Z = {"scenario": "fock", "lattice": {"scale": 2.0, "dim": 2}}
FOCK_PAIR = {"kernel": {"kernel": "fock"}, "f": MEASURES[0], "g": MEASURES[1]}
NUMPY_ONLY_COMMANDS = [
    ["run", "--config", json.dumps(FOCK_2Z), "--out-dir", "out"],
    ["density", "--mu", '{"lattice": {"scale": 0.5, "dim": 2}}', "--nu", '{"lebesgue": {"dim": 2}}']
    + ["--out", "est.json"],
    ["localize", "--pair", json.dumps(FOCK_PAIR), "--radii", "4,8", "--out", "loc.json"],
    ["gram", "--kernel", '{"kernel": "fock"}', "--support", '{"lattice": {"scale": 1.2, "dim": 2}}']
    + ["--radii", "2.5,3.5", "--out", "gram.json"],
    ["run", "--config", '{"scenario": "fock", "tolerances": {"density": -1}}', "--out-dir", "bad"],
]


def test_every_command_runs_on_numpy_alone(tmp_path, monkeypatch, capsys):
    # a child that cannot import jsonschema prints and writes the same bytes as this process, which can
    child, here = tmp_path / "child", tmp_path / "here"
    child.mkdir()
    here.mkdir()
    code = (
        "import json, sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from framelab.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", code, json.dumps(NUMPY_ONLY_COMMANDS)]
    done = subprocess.run(argv, cwd=child, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    *printed, codes = done.stdout.splitlines()
    assert json.loads(codes) == [0, 0, 0, 0, 2]
    assert done.stderr == "config error: config invalid at $.tolerances.density: -1 is less than the minimum of 0\n"

    monkeypatch.chdir(here)
    assert [main(argv) for argv in NUMPY_ONLY_COMMANDS] == [0, 0, 0, 0, 2]
    assert capsys.readouterr() == ("\n".join(printed) + "\n", done.stderr)
    written = sorted(p.relative_to(here) for p in here.rglob("*") if p.is_file())
    assert [str(p) for p in written] == ["est.json", "gram.json", "loc.json", "out/fock-report.json"]
    for p in written:
        assert (child / p).read_bytes() == (here / p).read_bytes()
    assert sorted(p.relative_to(child) for p in child.rglob("*") if p.is_file()) == written
