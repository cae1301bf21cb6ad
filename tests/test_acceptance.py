"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and runtime budgets are asserted, not just reported.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np

import framelab.finframe as ff
from framelab.density import density, lattice_schedule
from framelab.kernels import FockKernel, PaleyWienerKernel
from framelab.localization import FramePairSpec, localization_defect, tail_sup
from framelab.quadrature import QuadConfig
from framelab.space import Ball, CountingMeasure, Lattice, LebesgueMeasure
from framelab.verify import run as run_scenario

MERCEDES = np.array([[0.0, 1.0], [-math.sqrt(3) / 2, -0.5], [math.sqrt(3) / 2, -0.5]], dtype=complex)


def _report(number: int, ok: bool, detail: str):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_comparison_identity():
    t0 = time.monotonic()
    rng = np.random.RandomState(7)
    worst = 0.0
    for trial in range(100):
        n = int(rng.randint(1, 9))
        F = ff.random_frame(rng, n, int(rng.randint(1, 17)), index_dim=2)
        G = ff.random_frame(rng, n, int(rng.randint(1, 17)), index_dim=2)
        if trial % 2:
            omega = Ball(rng.uniform(-1, 1, 2), float(rng.uniform(0.3, 1.4)))
        else:
            omega = rng.rand(F.m) < rng.uniform(0.2, 0.8)
        worst = max(worst, ff.comparison_residual(F, G, omega))
    elapsed = time.monotonic() - t0
    _report(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"100 random pairs, max residual {worst:.3e} (< 1e-10), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_projection_formulas():
    def direct_projection(vectors, f):
        U, s, _ = np.linalg.svd(np.asarray(vectors).T, full_matrices=False)
        basis = U[:, s > 1e-12 * max(s[0], 1e-300)]
        return basis @ (basis.conj().T @ f)

    rng = np.random.RandomState(11)
    worst_fit = 0.0
    worst_idem = 0.0
    for _ in range(100):
        n = int(rng.randint(1, 9))
        F = ff.random_frame(rng, n, int(rng.randint(1, 17)))
        f = rng.randn(n) + 1j * rng.randn(n)
        p_syn = ff.project(F, f, formula="synthesis")
        p_ana = ff.project(F, f, formula="analysis")
        p_ref = direct_projection(F.vectors, f)
        worst_fit = max(worst_fit, float(np.linalg.norm(p_syn - p_ref)), float(np.linalg.norm(p_ana - p_ref)))
        worst_idem = max(worst_idem, float(np.linalg.norm(ff.project(F, p_syn) - p_syn)))
    _report(
        2,
        worst_fit < 1e-10 and worst_idem < 1e-12,
        f"both formulas vs direct projection {worst_fit:.3e} (< 1e-10), idempotency {worst_idem:.3e} (< 1e-12)",
    )


def test_criterion_03_frame_bounds_oracle():
    on = ff.frame_bounds(ff.FiniteFrame(np.eye(3, dtype=complex)))
    mercedes = ff.frame_bounds(ff.FiniteFrame(MERCEDES))
    repeated = ff.frame_bounds(ff.FiniteFrame(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)))
    ok = (
        on == (1.0, 1.0)
        and abs(mercedes[0] - 1.5) < 1e-12
        and abs(mercedes[1] - 1.5) < 1e-12
        and abs(repeated[0] - 1.0) < 1e-12
        and abs(repeated[1] - 2.0) < 1e-12
    )
    _report(3, ok, f"orthonormal {on}, mercedes {mercedes}, repeated {repeated}")


def test_criterion_04_beurling_density_lattices():
    t0 = time.monotonic()
    results = {}
    for alpha in (0.5, 1.0, 2.0):
        est = density(
            CountingMeasure(Lattice(alpha, 2)),
            LebesgueMeasure(2),
            lattice_schedule(alpha, 2, r_max=128.0),
        )
        results[alpha] = (est.lower, est.upper)
    elapsed = time.monotonic() - t0
    ok = elapsed < 60.0
    for alpha, (lo, hi) in results.items():
        target = alpha**-2
        ok = ok and abs(lo - target) <= 0.02 * target and abs(hi - target) <= 0.02 * target
    _report(4, ok, f"alpha->density {results}, within 2%, {elapsed:.1f}s (< 60s)")


def test_criterion_05_fock_tail_law():
    kernel = FockKernel()
    probes = [[0.0, 0.0], [0.62, -1.37], [2.5, 3.1]]
    ok = True
    details = []
    for R in (0.5, 1.0, 1.5):
        cfg = QuadConfig(h=0.02, truncation_radius=R + 6.0)
        vals = [tail_sup(kernel, LebesgueMeasure(2), R, [p], cfg) for p in probes]
        target = math.exp(-math.pi * R * R)
        rel = max(abs(v - target) / target for v in vals)
        spread = max(vals) - min(vals)
        ok = ok and rel <= 1e-4 and spread <= 1e-6
        details.append(f"R={R}: rel {rel:.2e}, spread {spread:.2e}")
    _report(5, ok, "; ".join(details) + " (rel < 1e-4, spread < 1e-6)")


def test_criterion_06_shannon_orthonormality():
    pts = np.arange(-20.0, 21.0).reshape(-1, 1)
    kernel = PaleyWienerKernel()
    gram_closed = kernel.normalized_cross(pts, pts)
    err_closed = float(np.max(np.abs(gram_closed - np.eye(41))))

    # frequency-domain quadrature oracle for the same inner products
    nodes, weights = np.polynomial.legendre.leggauss(400)
    xi = math.pi * nodes
    t = pts[:, 0][:, None] - pts[:, 0][None, :]
    gram_oracle = np.einsum("k,ijk->ij", weights, np.exp(1j * xi * t[:, :, None])) * math.pi / (2 * math.pi)
    err_oracle = float(np.max(np.abs(gram_oracle - np.eye(41))))
    _report(
        6,
        err_closed < 1e-8 and err_oracle < 1e-6,
        f"closed-form gram vs identity {err_closed:.2e} (< 1e-8), quadrature oracle {err_oracle:.2e} (< 1e-6)",
    )


def test_criterion_07_parseval_corollary_paley_wiener():
    rep = run_scenario({"scenario": "paley-wiener", "density_rmax": 128.0, "radii": [4.0]})
    values = rep["corollary"]["values"]
    ok = all(abs(v - 1.0) <= 0.05 for v in values.values()) and rep["corollary"]["verdict"] == "pass"
    _report(7, ok, f"density estimates {values} (all within 5% of 1)")


def test_criterion_08_localization_defect_decay():
    pair = FramePairSpec(
        FockKernel(), LebesgueMeasure(2), g_measure=CountingMeasure(Lattice(1.0, 2))
    )
    eps = {r: localization_defect(pair, Ball([0, 0], r))["eps_eff"] for r in (4.0, 8.0, 16.0)}
    ok = eps[4.0] > eps[8.0] > eps[16.0] and eps[16.0] < 0.01
    _report(8, ok, f"eps_eff {({k: round(v, 6) for k, v in eps.items()})}, decreasing and < 0.01 at r=16")


def test_criterion_09_density_theorem_sweep():
    t0 = time.monotonic()
    reports = {}
    for scenario, alpha in (("fock", 0.5), ("gabor", 0.8), ("gabor", 1.2), ("fock", 2.0)):
        reports[alpha] = run_scenario({"scenario": scenario, "lattice": {"scale": alpha, "dim": 2}})
    elapsed = time.monotonic() - t0

    no_contradiction = all(
        v["verdict"] != "CONTRADICTION" for rep in reports.values() for v in rep["verdicts"]
    )
    ok = no_contradiction and elapsed < 300.0
    details = [f"no contradiction: {no_contradiction}", f"{elapsed:.0f}s (< 300s)"]
    for alpha in (0.5, 0.8):
        study = reports[alpha]["gram_study"]
        floors = [r["min_nonzero"] for r in study["rows"]]
        dens = reports[alpha]["density"]["lower"]
        good = study["frame_evidence"] and all(f is not None and f > 0.01 for f in floors) and dens >= 1.5
        ok = ok and good
        details.append(f"a={alpha}: floors {[round(f, 3) for f in floors]}, density {dens:.3f}")
    d20 = reports[2.0]["density"]
    a20 = 0.5 * (d20["lower"] + d20["upper"])
    good20 = abs(a20 - 0.25) <= 0.01 and not reports[2.0]["gram_study"]["frame_evidence"]
    ok = ok and good20
    details.append(f"a=2.0: density {a20:.4f} (0.25 +- 0.01), frame evidence absent: {good20}")
    _report(9, ok, "; ".join(details))


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "finite-oracle", "seed": 7, "trials": 100}))
    for out in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "framelab", "run", "--config", str(cfg), "--out-dir", str(tmp_path / out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
    a = (tmp_path / "a" / "finite-oracle-report.json").read_bytes()
    b = (tmp_path / "b" / "finite-oracle-report.json").read_bytes()
    _report(10, a == b, f"two fresh-process runs byte-identical: {a == b} ({len(a)} bytes)")
