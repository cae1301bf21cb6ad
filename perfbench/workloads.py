"""The four benchmark workloads: seeded inputs, operations and reference checks.

Every workload is closed-loop: one client in one process issues each
operation after the previous one returns.  ``make_workload(name, seed,
out_dir)`` builds the inputs from the seed alone; seed 0 reproduces the
acceptance-suite inputs.  Operations look framelab functions up on their
modules at call time, so a tracer installed after set-up sees every call.

Why each workload exists:

- scenarios: the end-to-end unit of ``framelab run``; Gram eigensolves
  (finframe) and lattice atom sums (localization) do almost all the work.
- tail-law: the criterion-05 Gaussian tail law, all quadrature, no atoms
  and no eigensolves.
- oracle: 5000 tiny eigensolves (n <= 8), where per-call overhead dominates.
- pointset-density: point-set ball-mass scans (space) driven by density;
  lattice ball counts elsewhere are closed-form and never scan points.
"""
from __future__ import annotations

import hashlib
import importlib
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


def _fl(module: str):
    return importlib.import_module("framelab." + module)


@dataclass
class Workload:
    ops: list  # [(op name, zero-argument callable)]
    check: Callable[[list], list]  # results -> per-op lists of failure messages
    describe: Callable[[], dict]  # seed and generated sizes for the run record


# ---------------------------------------------------------------------------
# scenarios

SCENARIO_LATTICES = (("fock", 0.5), ("gabor", 0.8), ("gabor", 1.2), ("fock", 2.0))
GRAM_RADII = (2.5, 3.5, 4.5)
TABLE_RADII = (4.0, 8.0, 16.0)
MIN_NONZERO_FLOOR = 0.01
DENSITY_RTOL = 0.04


def scenario_configs(seed: int) -> list[dict]:
    """Criterion-09 lattices plus default paley-wiener and dual-embedding.

    Seed != 0 scales each alpha by a seeded factor in [0.98, 1.02] and draws
    the dual-embedding offset from [-0.5, 0.5]^2.  The Gram windows and
    table radii scale with alpha, so every window holds the same lattice
    points and the work does not depend on the draw.
    """
    lattices = [{"scenario": kind, "lattice": {"scale": alpha, "dim": 2}} for kind, alpha in SCENARIO_LATTICES]
    extras = [{"scenario": "paley-wiener"}, {"scenario": "dual-embedding"}]
    if seed == 0:
        return lattices + extras
    rng = np.random.default_rng(seed)
    factors = rng.uniform(0.98, 1.02, size=len(SCENARIO_LATTICES))
    offset = rng.uniform(-0.5, 0.5, size=2)
    for cfg, c in zip(lattices, factors):
        c = float(c)
        cfg["lattice"]["scale"] *= c
        cfg["gram_radii"] = [r * c for r in GRAM_RADII]
        cfg["radii"] = [r * c for r in TABLE_RADII]
    extras[1]["offset"] = [float(x) for x in offset]
    return lattices + extras


def check_scenario(cfg: dict, report: dict) -> list[str]:
    fails = []
    verdicts = {v["name"]: v["verdict"] for v in report["verdicts"]}
    if "CONTRADICTION" in verdicts.values():
        fails.append("CONTRADICTION verdict")
    kind = cfg["scenario"]
    if kind in ("fock", "gabor"):
        alpha = cfg["lattice"]["scale"]
        study = report["gram_study"]
        if alpha < 1.0:
            if (verdicts.get("density-theorem"), verdicts.get("theorem-table")) != ("pass", "pass"):
                fails.append(f"alpha={alpha}: verdicts {verdicts}, want pass/pass")
            if not study["frame_evidence"]:
                fails.append(f"alpha={alpha}: no frame evidence")
            floors = [row.get("min_nonzero") for row in study["rows"]]
            if not all(f is not None and f > MIN_NONZERO_FLOOR for f in floors):
                fails.append(f"alpha={alpha}: min_nonzero {floors} not all > {MIN_NONZERO_FLOOR}")
        elif study["frame_evidence"]:
            fails.append(f"alpha={alpha}: frame evidence above the critical density")
        dens = report["density"]
        mean = 0.5 * (dens["upper"] + dens["lower"])
        target = alpha**-2
        if abs(mean - target) > DENSITY_RTOL * target:
            fails.append(f"alpha={alpha}: density {mean:.5f}, want {target:.5f} +- {DENSITY_RTOL:.0%}")
    elif kind == "paley-wiener":
        if verdicts.get("parseval-corollary") != "pass":
            fails.append(f"paley-wiener corollary {verdicts.get('parseval-corollary')}")
    elif verdicts.get("dual-embedding") != "pass":
        fails.append(f"dual-embedding {verdicts.get('dual-embedding')}")
    return fails


def _scenarios(seed: int, out_dir: Path) -> Workload:
    configs = scenario_configs(seed)
    verify = _fl("verify")

    def op(name, cfg):
        def call():
            report = verify.run(cfg)
            return report, verify.write_report(report, out_dir / name)

        return call

    names = [f"{i}-{cfg['scenario']}" for i, cfg in enumerate(configs)]
    ops = [(name, op(name, cfg)) for name, cfg in zip(names, configs)]

    def check(results):
        out = []
        for cfg, res in zip(configs, results):
            if res is None:
                out.append(["raised"])
                continue
            report, path = res
            fails = check_scenario(cfg, report)
            if not Path(path).is_file():
                fails.append(f"report {path} not written")
            out.append(fails)
        return out

    def describe():
        space = _fl("space")
        windows = []
        for cfg in configs[: len(SCENARIO_LATTICES)]:
            lat = space.Lattice(cfg["lattice"]["scale"], 2)
            radii = cfg.get("gram_radii", GRAM_RADII)
            windows.append([len(lat.points_in_ball(space.Ball(np.zeros(2), r))) for r in radii])
        return {"configs": configs, "gram_window_m": windows}

    return Workload(ops, check, describe)


# ---------------------------------------------------------------------------
# tail-law

TAIL_RADII = (0.5, 1.0, 1.5)
TAIL_H = 0.02
TAIL_MARGIN = 6.0
TAIL_PROBES_SEED0 = ((0.0, 0.0), (0.62, -1.37), (2.5, 3.1))
TAIL_RTOL = 1e-4
TAIL_SPREAD = 1e-6


def tail_probes(seed: int) -> list[list[float]]:
    if seed == 0:
        return [list(p) for p in TAIL_PROBES_SEED0]
    rng = np.random.default_rng(seed)
    return rng.uniform(-4.0, 4.0, size=(len(TAIL_PROBES_SEED0), 2)).tolist()


def _tail_law(seed: int, out_dir: Path) -> Workload:
    kernels, space, quadrature = _fl("kernels"), _fl("space"), _fl("quadrature")
    localization = _fl("localization")
    probes = tail_probes(seed)
    kernel = kernels.FockKernel()
    lebesgue = space.LebesgueMeasure(2)
    cases = [
        (R, p, quadrature.QuadConfig(h=TAIL_H, truncation_radius=R + TAIL_MARGIN)) for R in TAIL_RADII for p in probes
    ]

    def op(R, p, cfg):
        return lambda: localization.tail_sup(kernel, lebesgue, R, [p], cfg)

    ops = [(f"R={R} probe={p}", op(R, p, cfg)) for R, p, cfg in cases]

    def check(results):
        out = []
        for (R, _, _), value in zip(cases, results):
            if value is None:
                out.append(["raised"])
                continue
            target = math.exp(-math.pi * R * R)
            rel = abs(value - target) / target
            out.append([] if rel <= TAIL_RTOL else [f"R={R}: relative error {rel:.2e} > {TAIL_RTOL}"])
        for R in TAIL_RADII:
            group = [i for i, case in enumerate(cases) if case[0] == R and results[i] is not None]
            values = [results[i] for i in group]
            if values and max(values) - min(values) > TAIL_SPREAD:
                for i in group:
                    out[i].append(f"R={R}: probe spread {max(values) - min(values):.2e} > {TAIL_SPREAD}")
        return out

    def describe():
        return {"radii": list(TAIL_RADII), "probes": probes, "h": TAIL_H, "truncation_margin": TAIL_MARGIN}

    return Workload(ops, check, describe)


# ---------------------------------------------------------------------------
# oracle

ORACLE_TRIALS = 1000
RESIDUAL_TOL = 1e-10  # framelab counts the trials below this residual
PROJECTION_TOL = 1e-10
IDEMPOTENCY_TOL = 1e-12


def check_oracle(report: dict, trials: int) -> list[str]:
    fails = []
    identity, projection = report["identity"], report["projection"]
    if identity["residuals_below_1e-10"] != trials:
        fails.append(f"{trials - identity['residuals_below_1e-10']} of {trials} trials have residual >= {RESIDUAL_TOL}")
    if not projection["max_formula_gap"] < PROJECTION_TOL:
        fails.append(f"projection formula gap {projection['max_formula_gap']:.2e} >= {PROJECTION_TOL}")
    if not projection["max_idempotency_gap"] < IDEMPOTENCY_TOL:
        fails.append(f"idempotency gap {projection['max_idempotency_gap']:.2e} >= {IDEMPOTENCY_TOL}")
    return fails


def _oracle(seed: int, out_dir: Path) -> Workload:
    verify = _fl("verify")
    trials = ORACLE_TRIALS
    cfg = {"scenario": "finite-oracle", "trials": trials, "seed": seed}

    def check(results):
        return [["raised"] if r is None else check_oracle(r, trials) for r in results]

    return Workload([("finite-oracle", lambda: verify.run(cfg))], check, lambda: {"config": cfg})


# ---------------------------------------------------------------------------
# pointset-density

PD_SPACING = 0.8
PD_HALF_WIDTH = 140.0
PD_JITTER = 0.2
PD_RMAX = 128.0
PD_RTOL = 0.02


def jittered_lattice(seed: int) -> np.ndarray:
    """0.8 Z^2 in [-140, 140]^2 with each coordinate jittered by +-0.2."""
    k = int(round(PD_HALF_WIDTH / PD_SPACING))
    axis = PD_SPACING * np.arange(-k, k + 1)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    return grid + rng.uniform(-PD_JITTER, PD_JITTER, size=grid.shape)


def _pointset_density(seed: int, out_dir: Path) -> Workload:
    space, density_mod = _fl("space"), _fl("density")
    points = space.PointSet(jittered_lattice(seed))
    mu = space.CountingMeasure(points)
    nu = space.LebesgueMeasure(2)
    sched = density_mod.default_schedule(2, r_max=PD_RMAX)
    target = PD_SPACING**-2

    def check(results):
        est = results[0]
        if est is None:
            return [["raised"]]
        fails = []
        for label, value in (("upper", est.upper), ("lower", est.lower)):
            if abs(value - target) > PD_RTOL * target:
                fails.append(f"{label} density {value:.5f}, want {target:.5f} +- {PD_RTOL:.0%}")
        if not est.converged:
            fails.append("density estimate not converged")
        return [fails]

    def describe():
        return {
            "points": len(points),
            "centres": len(sched.centers()),
            "radii": list(sched.radii),
            "points_sha256": hashlib.sha256(points.points.tobytes()).hexdigest(),
        }

    return Workload([("density", lambda: density_mod.density(mu, nu, sched))], check, describe)


_BUILDERS = {
    "scenarios": _scenarios,
    "tail-law": _tail_law,
    "oracle": _oracle,
    "pointset-density": _pointset_density,
}


WORKLOADS = tuple(_BUILDERS)


def make_workload(name: str, seed: int, out_dir) -> Workload:
    """Generate the inputs of one workload; raises KeyError for an unknown name."""
    return _BUILDERS[name](seed, Path(out_dir))


def run_ops(workload: Workload, tracer=None) -> tuple[list, list, list]:
    """Issue every op in order, then check the results.

    Returns (results, per-op failure lists, per-op seconds); their sum is the
    wall time from the first op to the last verdict.  The reference checks
    run after the clock stops.  An
    op that raises counts as failed and yields None to the check.
    """
    results, raised, ends = [], [], []
    start = time.perf_counter()
    for index, (name, call) in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = index
        try:
            results.append(call())
            raised.append(None)
        except Exception as exc:  # a failing op is a measured outcome, not a crash
            results.append(None)
            raised.append(f"{name}: {type(exc).__name__}: {exc}")
        ends.append(time.perf_counter())
    failures = workload.check(results)
    for fails, err in zip(failures, raised):
        if err is not None:
            fails[:] = [err]
    op_s = [b - a for a, b in zip([start] + ends, ends)]
    return results, failures, op_s
