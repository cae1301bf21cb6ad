"""Every verdict name the scenario runner emits has a known case that flips it.

A verdict that reads ``pass`` on every input shows nothing.  Each name below
gets a case where the truth is known to differ from ``pass``: a config where
one exists, otherwise a one-line mutation of the library that a correct
verdict must catch.  ``VERDICT_NAMES`` is checked against the names written
in ``verify``, so a new verdict without such a case fails here.
"""
import ast
import inspect

import pytest

from framelab import finframe, verify


def _claim(evidence):
    """Mutation: the Gram study reports this evidence whatever its spectra read."""

    def mutate(monkeypatch):
        study = verify.gram_truncation_study
        monkeypatch.setattr(verify, "gram_truncation_study", lambda *a: {**study(*a), evidence: True})

    return mutate


def _residual(monkeypatch):
    """Mutation: the comparison identity misses by 1e-9, ten times its gate."""
    monkeypatch.setattr(finframe, "comparison_residual", lambda F, G, omega: 1e-9)


# name -> (config, mutation or None, the verdict the name must read)
CASES = {
    # Z^2 sits on the critical density 1: no claim either way
    "density-theorem": ({"scenario": "fock", "lattice": {"scale": 1.0, "dim": 2}}, None, "critical-no-claim"),
    # 2Z^2 has density 1/4: the diagonal hypotheses fail on its rows
    "theorem-table": ({"scenario": "fock", "lattice": {"scale": 2.0, "dim": 2}}, None, "vacuous-consistent"),
    # frame evidence claimed for 2Z^2, density 1/4 < 1
    "sampling-density": (
        {"scenario": "fock", "lattice": {"scale": 2.0, "dim": 2}},
        _claim("frame_evidence"),
        "CONTRADICTION",
    ),
    # Riesz evidence claimed for 0.5Z^2, density 4 > 1
    "interpolating-density": (
        {"scenario": "fock", "lattice": {"scale": 0.5, "dim": 2}},
        _claim("riesz_evidence"),
        "CONTRADICTION",
    ),
    # 3Z against band pi: densities 1/3 and 3, far from 1, so the pair is not Parseval
    "parseval-corollary": ({"scenario": "paley-wiener", "lattice": {"scale": 3.0, "dim": 1}}, None, "vacuous-consistent"),
    "comparison-identity": ({"scenario": "finite-oracle", "trials": 3}, _residual, "hypotheses-unmet"),
    # across B(0, 2) the two families are all but orthogonal: t1 = |B(0, 2)|
    "dual-embedding": ({"scenario": "dual-embedding", "offset": [40.0, 0.0]}, None, "hypotheses-unmet"),
}
VERDICT_NAMES = (
    "density-theorem",
    "sampling-density",
    "interpolating-density",
    "theorem-table",
    "parseval-corollary",
    "comparison-identity",
    "dual-embedding",
)


def emitted_names() -> set[str]:
    """Every string written as the value of a "name" key of a dict literal in verify."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(verify))):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "name" and isinstance(value, ast.Constant):
                    names.add(value.value)
    return names


def test_every_emitted_name_has_a_case():
    assert set(VERDICT_NAMES) == emitted_names() == set(CASES)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(strict=True, reason="passes by construction, ROADMAP item 9")
            if name == "dual-embedding"
            else (),
        )
        for name in VERDICT_NAMES
    ],
)
def test_known_case_flips_the_verdict(name, monkeypatch):
    cfg, mutate, want = CASES[name]
    if mutate is not None:
        mutate(monkeypatch)
    verdicts = {v["name"]: v["verdict"] for v in verify.run(cfg)["verdicts"]}
    assert want != "pass"
    assert verdicts.get(name) == want, verdicts
