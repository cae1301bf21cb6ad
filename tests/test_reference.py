"""Every command of ``reference_commands.COMMANDS`` still writes its reference output.

The outputs are regenerated once in a temporary directory and each JSON file
is walked beside its reference in ``tests/reference/``: keys (in order),
strings, integers, booleans and nulls must be equal, and each float pair must
satisfy |a - b| <= 1e-12 * max(1, |a|, |b|), because the last bits of Gram
eigenvalues depend on the BLAS build and its thread count.  A verdict's
``detail`` string prints floats too: its numbers are held to the same float
rule and the text around them must be equal.  A failure names the file, the
first JSON path that differs and both values.

The references are rewritten only by ``tests/reference_commands.py --rewrite``.
"""
from __future__ import annotations

import json
import re

import pytest

from reference_commands import REFERENCE, run_all

REL_TOL = 1e-12
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
REFERENCE_FILES = sorted(p.relative_to(REFERENCE).as_posix() for p in REFERENCE.rglob("*.json"))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _detail_matches(a: str, b: str) -> bool:
    """Equal text between the printed numbers, and the numbers under the float rule."""
    pa, pb = _NUMBER.split(a), _NUMBER.split(b)
    if len(pa) != len(pb):
        return False
    # re.split with one group alternates text (even places) and numbers (odd places)
    return all(x == y if i % 2 == 0 else _close(float(x), float(y)) for i, (x, y) in enumerate(zip(pa, pb)))


def first_difference(want, got, path: str = "$"):
    """(path, want value, got value) at the first place got departs from want, or None."""
    if type(want) is not type(got):
        return path, want, got
    if isinstance(want, dict):
        if list(want) != list(got):
            return path, list(want), list(got)
        for key in want:
            found = first_difference(want[key], got[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if isinstance(want, list):
        if len(want) != len(got):
            return path, f"{len(want)} items", f"{len(got)} items"
        for i, (a, b) in enumerate(zip(want, got)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        return None
    if isinstance(want, float):
        same = _close(want, got)
    elif isinstance(want, str) and path.endswith(".detail"):
        same = _detail_matches(want, got)
    else:
        same = want == got
    return None if same else (path, want, got)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """The output directory of one run of every command, and each command's exit code."""
    out = tmp_path_factory.mktemp("reference")
    return out, run_all(out)


def test_every_command_exits_0(run):
    assert {command: rc for command, rc in run[1].items() if rc} == {}


def test_every_command_writes_the_reference_files(run):
    assert sorted(p.relative_to(run[0]).as_posix() for p in run[0].rglob("*.json")) == REFERENCE_FILES


@pytest.mark.parametrize("name", REFERENCE_FILES)
def test_output_matches_its_reference(run, name):
    want = json.loads((REFERENCE / name).read_text())
    got = json.loads((run[0] / name).read_text())
    found = first_difference(want, got)
    assert found is None, "{}: {} is {!r} in the reference and {!r} now".format(name, *found)


def test_first_difference_names_the_path_and_both_values():
    ref = {"rows": [{"radius": 4.0, "m": 81}], "verdicts": [{"verdict": "pass", "detail": "density 3.99 >= 1 - 0.05"}]}

    def moved(where, key, value):
        got = json.loads(json.dumps(ref))
        got[where][0][key] = value
        return first_difference(ref, got)

    assert first_difference(ref, json.loads(json.dumps(ref))) is None
    assert moved("rows", "radius", 4.0 * (1 + 1e-13)) is None
    assert moved("rows", "radius", 4.0 * (1 + 1e-9)) == ("$.rows[0].radius", 4.0, 4.0 * (1 + 1e-9))
    assert moved("rows", "m", 81.0) == ("$.rows[0].m", 81, 81.0)
    assert moved("verdicts", "verdict", "CONTRADICTION") == ("$.verdicts[0].verdict", "pass", "CONTRADICTION")
    assert moved("verdicts", "detail", "density 3.9900000000000002 >= 1 - 0.05") is None
    for detail in ("density 3.991 >= 1 - 0.05", "density 3.99 > 1 - 0.05", "density 3.99 >= 1 - 0.05 - 0"):
        assert moved("verdicts", "detail", detail) == ("$.verdicts[0].detail", ref["verdicts"][0]["detail"], detail)
    assert first_difference({"a": 1, "b": 2}, {"b": 2, "a": 1}) == ("$", ["a", "b"], ["b", "a"])
