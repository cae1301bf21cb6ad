"""Scenario runner: end-to-end consistency checks with machine-readable reports.

Verdict vocabulary (never "theorem verified"): "pass", "vacuous-consistent",
"hypotheses-unmet", "critical-no-claim", "CONTRADICTION".  Desk-scale Gram
spectra and finite-radius localization tables are evidence, not proof; every
verdict is recomputable from the tables carried in the same report.

Frame evidence from a windowed Gram study: the window must contain at least
as many kernels as the local mode count (the reference-measure mass of a
margin-shrunk window), and the eigenvalue at that mode count, the "min
nonzero" after discarding the redundancy cluster, must stay above a floor
and stabilize across windows.  Riesz evidence uses the raw minimum
eigenvalue, which for a true Riesz sequence is monotone under taking
subfamilies.  A lattice whose density estimate sits inside the critical band
around 1 yields no claim in either direction.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from . import finframe
from .density import DensityEstimate, DensitySchedule, density, lattice_schedule
from .kernels import FockKernel, GaborGaussianKernel, PaleyWienerKernel, kernel_from_config
from .localization import FramePairSpec, LocalizationRow, localization_defect
from .quadrature import QuadConfig
from .space import Ball, CountingMeasure, Lattice, LebesgueMeasure, PointSet, ball_volume

__all__ = [
    "ConfigError",
    "gram_truncation_study",
    "theorem_main_table",
    "corollary_parseval_check",
    "run",
    "write_localization_csv",
    "write_report",
]

SCHEMA_ID = "framelab/1"
PASSING_VERDICTS = ("pass", "vacuous-consistent", "critical-no-claim", "info")

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "scenario": {
            "type": "string",
            "enum": ["finite-oracle", "paley-wiener", "fock", "gabor", "dual-embedding"],
        },
        "seed": {"type": "integer", "minimum": 0},
        "lattice": {
            "type": "object",
            "properties": {
                "scale": {"type": "number", "exclusiveMinimum": 0},
                "dim": {"type": "integer", "minimum": 1},
                "thin": {"type": "string", "enum": ["drop-even-even"]},
            },
            "required": ["scale", "dim"],
        },
        "points_csv": {"type": "string"},
        "radii": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
        "density_rmax": {"type": "number", "exclusiveMinimum": 0},
        "gram_radii": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
        "quad": {
            "type": "object",
            "properties": {
                "h": {"type": "number", "exclusiveMinimum": 0},
                "r_truncate": {"type": "number", "exclusiveMinimum": 0},
                "truncation_margin": {"type": "number", "exclusiveMinimum": 0},
                "boundary_refine": {"type": "integer", "minimum": 1},
            },
        },
        "trials": {"type": "integer", "minimum": 1},
        "offset": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "tolerances": {
            "type": "object",
            "properties": {
                "density": {"type": "number", "minimum": 0},
                "critical_band": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "out_dir": {"type": "string"},
    },
    "required": ["scenario"],
    "additionalProperties": False,
    # the Fock kernel lives on C = R^2; Paley-Wiener runs on a 1-D lattice and never thins
    "allOf": [
        {
            "if": {"properties": {"scenario": {"const": "fock"}}},
            "then": {"properties": {"lattice": {"properties": {"dim": {"const": 2}}}}},
        },
        {
            "if": {"properties": {"scenario": {"const": "paley-wiener"}}},
            "then": {"properties": {"lattice": {"properties": {"dim": {"const": 1}, "thin": {"not": {}}}}}},
        },
    ],
}


class ConfigError(ValueError):
    """Scenario configuration rejected; message carries the JSON path."""


def validate_config(cfg: dict, schema: dict = CONFIG_SCHEMA) -> dict:
    import jsonschema

    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        path = first.json_path
        if first.validator == "additionalProperties":
            # point at the first unexpected key, not at the object holding it
            path += "." + sorted(set(first.instance) - set(first.schema["properties"]))[0]
        raise ConfigError(f"config invalid at {path}: {first.message}")
    return cfg


# ---------------------------------------------------------------------------
# Gram truncation study


def gram_truncation_study(
    kernel,
    gamma,
    sizes,
    center=None,
    margin: float = 0.5,
    floor: float = 0.01,
    stabilization_rtol: float = 0.10,
) -> dict:
    """Windowed Gram spectra of normalized kernels over balls of growing radius.

    Per window: extreme eigenvalues, the redundancy-adjusted minimum
    ("min_nonzero": the eigenvalue at the local mode count when the window
    holds at least that many kernels), and the near-zero cluster size.
    """
    d = kernel.dim
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    mode_density = getattr(kernel, "mode_density", None)
    rows = []
    for R in sorted(float(s) for s in sizes):
        window = Ball(center, R)
        pts = gamma.points_in_ball(window) if hasattr(gamma, "points_in_ball") else gamma.atoms_in_ball(window)[0]
        if len(pts) == 0:
            rows.append({"radius": R, "m": 0, "note": "window contains no points"})
            continue
        G = kernel.normalized_cross(pts, pts)
        lam = np.linalg.eigvalsh(G)
        lam_max = float(lam[-1])
        local_dim = None
        min_nonzero = None
        if mode_density is not None:
            local_dim = mode_density * ball_volume(d, max(R - margin, 1e-6))
            need = max(1, math.ceil(local_dim))
            if len(pts) >= need:
                min_nonzero = float(lam[len(pts) - need])
        cluster = int(np.sum(lam < 1e-10 * max(lam_max, 1e-300)))
        rows.append(
            {
                "radius": R,
                "m": int(len(pts)),
                "local_dim": local_dim,
                "max_eig": lam_max,
                "min_eig": float(lam[0]),
                "min_nonzero": min_nonzero,
                "near_zero_cluster": cluster,
            }
        )

    usable = [r for r in rows if r.get("m", 0) > 0]

    def stable(values):
        if len(values) < 2 or any(v is None for v in values):
            return False
        a, b = values[-2], values[-1]
        if min(a, b) < floor:
            return False
        return abs(b - a) <= stabilization_rtol * max(abs(a), 1e-300)

    frame_evidence = bool(
        usable
        and all(r["min_nonzero"] is not None and r["min_nonzero"] >= floor for r in usable)
        and stable([r["min_nonzero"] for r in usable])
    )
    riesz_evidence = bool(
        usable
        and all(r["min_eig"] >= floor for r in usable)
        and stable([r["min_eig"] for r in usable])
    )
    return {
        "rows": rows,
        "margin": margin,
        "floor": floor,
        "stabilization_rtol": stabilization_rtol,
        "frame_evidence": frame_evidence,
        "riesz_evidence": riesz_evidence,
    }


# ---------------------------------------------------------------------------
# Theorem table and corollary check


def theorem_main_table(pair: FramePairSpec, radii, center=None, cfg: QuadConfig | None = None, tol: float = 1e-9):
    """Per-radius inequality table for the localization-density chain.

    Column A is the diagonal average on the mu side (identically 1 for
    self-dual normalized families), column B the ball-mass ratio nu/mu,
    column C the effective localization epsilon.  Rows satisfying
    A <= B + C (1 + B) are consistent with the diagonal hypotheses; a
    violated row means those hypotheses cannot all hold for this pair.
    """
    cfg = cfg or QuadConfig()
    d = pair.kernel.dim
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    rows = []
    loc_rows = []
    for r in sorted(float(x) for x in radii):
        ball = Ball(center, r)
        loc = localization_defect(pair, ball, cfg)
        loc_rows.append(loc)
        mu_b = loc.normalizer - pair.g_measure.ball_mass(ball, quad_cfg=cfg)
        nu_b = loc.normalizer - mu_b
        a_col = 1.0
        b_col = nu_b / mu_b
        c_col = loc.epsilon_effective
        bound = b_col + c_col * (1.0 + b_col)
        rows.append(
            {
                "center": loc.center,
                "radius": r,
                "A": a_col,
                "B": b_col,
                "C": c_col,
                "bound": bound,
                "verdict": "pass" if a_col <= bound + tol else "hypotheses-unmet",
            }
        )
    return rows, loc_rows


def corollary_parseval_check(pair: FramePairSpec, sched: DensitySchedule, tol: float = 0.05, quad_cfg=None) -> dict:
    """Densities both ways for a pair of Parseval normalized families.

    Pass iff all four estimates (upper/lower, both orientations) are within
    tol of 1.  The Parseval property itself is an analytic precondition of
    the model families, not something this check can certify.
    """
    d_mu_nu = density(pair.g_measure, pair.f_measure, sched, quad_cfg=quad_cfg)
    d_nu_mu = density(pair.f_measure, pair.g_measure, sched, quad_cfg=quad_cfg)
    values = {
        "D_upper_mu(nu)": d_mu_nu.upper,
        "D_lower_mu(nu)": d_mu_nu.lower,
        "D_upper_nu(mu)": d_nu_mu.upper,
        "D_lower_nu(mu)": d_nu_mu.lower,
    }
    ok = all(abs(v - 1.0) <= tol for v in values.values())
    return {
        "values": values,
        "tolerance": tol,
        "verdict": "pass" if ok else "hypotheses-unmet",
        "per_radius_mu_nu": [list(r) for r in d_mu_nu.per_radius],
        "per_radius_nu_mu": [list(r) for r in d_nu_mu.per_radius],
    }


# ---------------------------------------------------------------------------
# Scenario implementations


def _build_lattice_support(cfg: dict):
    """Point support for a scenario: CSV points, a lattice, or a thinned lattice.

    Returns (support, lattice_cfg, known_separation); thinned lattices keep
    the generating lattice's separation (thinning only removes points).
    """
    if "points_csv" in cfg:
        from .space import load_point_set_csv

        ps = load_point_set_csv(cfg["points_csv"])
        return ps, {"scale": None, "dim": ps.dim}, None
    lat_cfg = cfg.get("lattice", {"scale": 1.0, "dim": 2})
    lat = Lattice(lat_cfg["scale"], lat_cfg["dim"])
    thin = lat_cfg.get("thin")
    if thin is None:
        return lat, lat_cfg, lat.scale
    # drop-even-even: remove points whose integer coordinates are all even
    reach = max(
        max(cfg.get("gram_radii", [4.5])),
        cfg.get("density_rmax", 128.0),
        max(cfg.get("radii", [16.0])),
    ) + 8.0
    box = lat.points_in_box(-reach * np.ones(lat.dim), reach * np.ones(lat.dim))
    idx = np.rint(box / lat.scale).astype(int)
    keep = ~np.all(idx % 2 == 0, axis=1)
    return PointSet(box[keep]), lat_cfg, lat.scale


def _quad_from_config(cfg: dict, default_h: float = 0.08, default_refine: int = 2) -> QuadConfig:
    # scenario tables need ~1e-5 accuracy on epsilon columns, not the tight
    # tail-law tolerance; the coarser defaults keep sweeps fast
    q = cfg.get("quad", {})
    return QuadConfig(
        h=q.get("h", default_h),
        truncation_radius=q.get("r_truncate"),
        truncation_margin=q.get("truncation_margin", 6.0),
        boundary_refine=q.get("boundary_refine", default_refine),
    )


def _density_for_lattice(support, dim: int, scale: float | None, r_max: float) -> DensityEstimate:
    if scale is not None:
        sched = lattice_schedule(scale, dim, r_max=r_max)
    else:
        sched = lattice_schedule(1.0, dim, r_max=r_max)
    return density(CountingMeasure(support), LebesgueMeasure(dim), sched)


def _lattice_verdicts(dens: DensityEstimate, study: dict, tol: float, critical_band: float) -> list:
    verdicts = []
    frame_ev = study["frame_evidence"]
    riesz_ev = study["riesz_evidence"]
    est = 0.5 * (dens.upper + dens.lower)
    critical = abs(est - 1.0) <= critical_band

    if frame_ev and dens.upper < 1.0 - tol:
        verdicts.append(
            {
                "name": "sampling-density",
                "verdict": "CONTRADICTION",
                "detail": f"frame evidence with density {est:.4f} < 1: violates the lower density bound",
            }
        )
    elif riesz_ev and dens.lower > 1.0 + tol:
        verdicts.append(
            {
                "name": "interpolating-density",
                "verdict": "CONTRADICTION",
                "detail": f"Riesz evidence with density {est:.4f} > 1: violates the upper density bound",
            }
        )
    elif critical:
        verdicts.append(
            {
                "name": "density-theorem",
                "verdict": "critical-no-claim",
                "detail": f"density estimate {est:.4f} inside the critical band around 1; no claim",
            }
        )
    elif frame_ev:
        verdicts.append(
            {
                "name": "density-theorem",
                "verdict": "pass",
                "detail": f"frame evidence and density {est:.4f} >= 1 - {tol}",
            }
        )
    else:
        verdicts.append(
            {
                "name": "density-theorem",
                "verdict": "vacuous-consistent",
                "detail": "no frame evidence at desk scale; the density bound imposes nothing",
            }
        )
    return verdicts


def _loc_rows_json(loc_rows: list[LocalizationRow]) -> list:
    return [
        {
            "center": list(row.center),
            "radius": row.radius,
            "defect": row.defect,
            "t1": row.double_tail_fg,
            "t2": row.double_tail_gf,
            "normalizer": row.normalizer,
            "eps_eff": row.epsilon_effective,
            "trunc_bound": row.truncation_bound,
        }
        for row in loc_rows
    ]


def _finite_oracle_scenario(cfg: dict) -> dict:
    seed = cfg.get("seed", 7)
    trials = cfg.get("trials", 100)
    rng = np.random.RandomState(seed)
    residuals = []
    proj_residuals = []
    idem_residuals = []
    for trial in range(trials):
        n = int(rng.randint(1, 9))
        m_f = int(rng.randint(1, 17))
        m_g = int(rng.randint(1, 17))
        F = finframe.random_frame(rng, n, m_f, index_dim=2)
        if trial % 2 == 0:
            G = finframe.random_frame(rng, n, m_g, index_dim=2)
        else:
            G = finframe.random_frame(rng, n, m_f, index_dim=2)
            G.index_points = F.index_points.copy()
        if trial % 3 == 0:
            omega = Ball(rng.uniform(-1, 1, size=2), float(rng.uniform(0.3, 1.5)))
        else:
            omega = rng.rand(F.m) < rng.uniform(0.2, 0.8)
        residuals.append(finframe.comparison_residual(F, G, omega))

        f = rng.randn(n) + 1j * rng.randn(n)
        p1 = finframe.project(F, f, formula="synthesis")
        p2 = finframe.project(F, f, formula="analysis")
        proj_residuals.append(float(np.linalg.norm(p1 - p2)))
        idem_residuals.append(float(np.linalg.norm(finframe.project(F, p1) - p1)))
    worst = max(residuals)
    verdict = "pass" if worst < 1e-10 and max(proj_residuals) < 1e-10 and max(idem_residuals) < 1e-12 else "hypotheses-unmet"
    return {
        "identity": {
            "trials": trials,
            "max_residual": worst,
            "residuals_below_1e-10": int(sum(r < 1e-10 for r in residuals)),
        },
        "projection": {
            "max_formula_gap": max(proj_residuals),
            "max_idempotency_gap": max(idem_residuals),
        },
        "verdicts": [{"name": "comparison-identity", "verdict": verdict, "detail": f"max residual {worst:.3e}"}],
    }


def _model_space_scenario(cfg: dict, kernel, support, scale: float | None) -> dict:
    tolerances = cfg.get("tolerances", {})
    tol = tolerances.get("density", 0.05)
    critical_band = tolerances.get("critical_band", 0.05)
    quad = _quad_from_config(cfg)
    d = kernel.dim

    radii = cfg.get("radii", [4.0, 8.0, 16.0])
    gram_radii = cfg.get("gram_radii", [2.5, 3.5, 4.5])
    r_max = cfg.get("density_rmax", 128.0)

    dens = _density_for_lattice(support, d, scale, r_max)
    study = gram_truncation_study(kernel, support, gram_radii)
    pair = FramePairSpec(
        kernel=kernel,
        f_measure=LebesgueMeasure(d),
        g_measure=CountingMeasure(support),
    )
    table, loc_rows = theorem_main_table(pair, radii, cfg=quad)
    verdicts = _lattice_verdicts(dens, study, tol, critical_band)
    if any(row["verdict"] == "hypotheses-unmet" for row in table):
        verdicts.append(
            {
                "name": "theorem-table",
                "verdict": "vacuous-consistent",
                "detail": "inequality rows fail: the diagonal hypotheses cannot all hold for this pair",
            }
        )
    else:
        verdicts.append({"name": "theorem-table", "verdict": "pass", "detail": "all rows satisfy A <= B + C(1+B)"})
    return {
        "density": {
            "upper": dens.upper,
            "lower": dens.lower,
            "converged": dens.converged,
            "trend": dens.trend,
            "per_radius": [list(r) for r in dens.per_radius],
        },
        "gram_study": study,
        "localization": _loc_rows_json(loc_rows),
        "theorem_table": table,
        "verdicts": verdicts,
    }


def _fock_scenario(cfg: dict) -> dict:
    support, lat_cfg, _ = _build_lattice_support(cfg)
    scale = None if lat_cfg.get("thin") else lat_cfg["scale"]
    return _model_space_scenario(cfg, FockKernel(), support, scale)


def _gabor_scenario(cfg: dict) -> dict:
    # separation of the point set is enforced at construction: PointSet
    # rejects coincident points naming the offender, and lattice-derived
    # supports inherit the lattice spacing
    support, lat_cfg, _ = _build_lattice_support(cfg)
    if lat_cfg["dim"] % 2 != 0:
        raise ConfigError("config invalid at $.lattice.dim: gabor phase space needs even dimension")
    kernel = GaborGaussianKernel(n=lat_cfg["dim"] // 2)
    scale = None if lat_cfg.get("thin") else lat_cfg["scale"]
    return _model_space_scenario(cfg, kernel, support, scale)


def _paley_wiener_scenario(cfg: dict) -> dict:
    kernel = PaleyWienerKernel()
    lat = Lattice(cfg.get("lattice", {"scale": 1.0, "dim": 1})["scale"], 1)
    quad = _quad_from_config(cfg, default_h=0.02)
    r_max = cfg.get("density_rmax", 128.0)
    pair = FramePairSpec(
        kernel=kernel, f_measure=LebesgueMeasure(1), g_measure=CountingMeasure(lat)
    )
    sched = lattice_schedule(lat.scale, 1, r_max=r_max)
    corollary = corollary_parseval_check(pair, sched, tol=cfg.get("tolerances", {}).get("density", 0.05))
    gram_radii = cfg.get("gram_radii", [10.0, 15.0, 20.0])
    study = gram_truncation_study(kernel, lat, gram_radii)
    radii = cfg.get("radii", [4.0, 8.0, 16.0])
    table, loc_rows = theorem_main_table(pair, radii, cfg=quad)
    verdicts = [
        {
            "name": "parseval-corollary",
            "verdict": corollary["verdict"],
            "detail": f"density estimates {corollary['values']}",
        }
    ]
    return {
        "corollary": corollary,
        "gram_study": study,
        "localization": _loc_rows_json(loc_rows),
        "theorem_table": table,
        "verdicts": verdicts,
    }


def _dual_embedding_scenario(cfg: dict) -> dict:
    kernel = FockKernel()
    offset = np.asarray(cfg.get("offset", [0.35, 0.2]), dtype=float)
    quad = _quad_from_config(cfg)
    pair = FramePairSpec(
        kernel=kernel,
        f_measure=LebesgueMeasure(2),
        g_measure=LebesgueMeasure(2),
        f_offset=None,
        g_offset=offset,
    )
    radii = cfg.get("radii", [2.0, 4.0])
    rows = [localization_defect(pair, Ball(np.zeros(2), r), quad) for r in sorted(radii)]
    # both index measures are Lebesgue: densities are exactly 1 at every radius
    sched = lattice_schedule(1.0, 2, r_max=cfg.get("density_rmax", 32.0))
    corollary = corollary_parseval_check(pair, sched)
    ok = corollary["verdict"] == "pass" and all(r.epsilon_effective < 1e-10 for r in rows)
    return {
        "corollary": corollary,
        "localization": _loc_rows_json(rows),
        "verdicts": [
            {
                "name": "dual-embedding",
                "verdict": "pass" if ok else "hypotheses-unmet",
                "detail": "translated Parseval family: defect 0 and densities 1",
            }
        ],
    }


_SCENARIOS = {
    "finite-oracle": _finite_oracle_scenario,
    "paley-wiener": _paley_wiener_scenario,
    "fock": _fock_scenario,
    "gabor": _gabor_scenario,
    "dual-embedding": _dual_embedding_scenario,
}


def run(cfg: dict) -> dict:
    """Execute a scenario configuration and return the report dictionary."""
    validate_config(cfg)
    name = cfg["scenario"]
    body = _SCENARIOS[name](cfg)
    report = {
        "schema": SCHEMA_ID,
        "scenario": name,
        "seed": cfg.get("seed", 7),
        "inputs": {k: v for k, v in sorted(cfg.items()) if k != "out_dir"},
    }
    report.update(body)
    verdicts = report.get("verdicts", [])
    report["overall"] = (
        "pass"
        if all(v["verdict"] in PASSING_VERDICTS for v in verdicts)
        else ("CONTRADICTION" if any(v["verdict"] == "CONTRADICTION" for v in verdicts) else "fail")
    )
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_localization_csv(rows: list, path) -> None:
    """CSV view of localization rows as produced by _loc_rows_json."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["center", "r", "defect", "t1", "t2", "normalizer", "eps_eff", "trunc_bound"])
        for row in rows:
            writer.writerow(
                [";".join(repr(c) for c in row["center"])]
                + [repr(row[k]) for k in ("radius", "defect", "t1", "t2", "normalizer", "eps_eff", "trunc_bound")]
            )


def write_report(report: dict, out_dir) -> Path:
    """Write report.json plus CSV views of the tables; returns the JSON path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{report['scenario']}-report.json"
    json_path.write_text(report_json(report))
    if "localization" in report:
        write_localization_csv(report["localization"], out / f"{report['scenario']}-localization.csv")
    if "gram_study" in report:
        with open(out / f"{report['scenario']}-gram.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["radius", "m", "local_dim", "max_eig", "min_eig", "min_nonzero", "near_zero_cluster"])
            for row in report["gram_study"]["rows"]:
                writer.writerow([repr(row.get(k)) for k in ("radius", "m", "local_dim", "max_eig", "min_eig", "min_nonzero", "near_zero_cluster")])
    return json_path
