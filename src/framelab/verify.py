"""Scenario runner: end-to-end consistency checks with machine-readable reports.

Verdict vocabulary (never "theorem verified"): "pass", "vacuous-consistent",
"hypotheses-unmet", "critical-no-claim", "CONTRADICTION".  Desk-scale Gram
spectra and finite-radius localization tables are evidence, not proof; every
verdict is recomputable from the tables carried in the same report.

Frame evidence from a windowed Gram study: the window must contain at least
as many kernels as the local mode count (the reference-measure mass of a
margin-shrunk window), and the eigenvalue at that mode count, the "min
nonzero" after discarding the redundancy cluster, must stay above a floor
and stabilize: the last window is compared with the last earlier one that
holds fewer points, so a repeated window is no evidence.  Riesz evidence
uses the raw minimum eigenvalue, which for a true Riesz sequence is monotone
under taking subfamilies.  A lattice whose density estimate sits inside the
critical band around 1 yields no claim in either direction.

Configuration: ``DEFAULTS`` lists, per scenario, every optional key it reads
with its default, down to the ``tolerances`` fields.
``CONFIG_SCHEMA`` rejects any other key or field by its JSON path, and
``run`` validates a config and then resolves it once (``resolve_config``).
Scenario bodies read only the resolved dict; the report's ``inputs`` keep
the config as given.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import finframe
from .density import DEFAULT_RADII, DensityEstimate, DensitySchedule, density, lattice_schedule
from .kernels import FockKernel, GaborGaussianKernel, PaleyWienerKernel
from .localization import FramePairSpec, localization_defect
from .space import (
    Ball,
    CountingMeasure,
    Lattice,
    LebesgueMeasure,
    PointSet,
    ThinnedLattice,
    ball_volume,
    load_point_set_csv,
)

__all__ = [
    "ConfigError",
    "DEFAULTS",
    "gram_truncation_study",
    "theorem_main_table",
    "corollary_parseval_check",
    "resolve_config",
    "run",
    "write_report",
    "write_table_csv",
]

SCHEMA_ID = "framelab/1"
PASSING_VERDICTS = ("pass", "vacuous-consistent", "critical-no-claim", "info")

# Every optional key each scenario reads, with its default; scenario, seed and
# out_dir are legal everywhere.  tolerances are merged one level deep, so a
# scenario reads exactly the fields listed here.
_MODEL_SPACE = {
    "lattice": {"scale": 1.0, "dim": 2},
    "points_csv": None,
    "radii": [4.0, 8.0, 16.0],
    "gram_radii": [2.5, 3.5, 4.5],
    "density_rmax": 128.0,
    "tolerances": {"density": 0.05, "critical_band": 0.05},
}
DEFAULTS = {
    "finite-oracle": {"trials": 100},
    "paley-wiener": {
        "lattice": {"scale": 1.0, "dim": 1},
        "radii": [4.0, 8.0, 16.0],
        "gram_radii": [10.0, 15.0, 20.0],
        "density_rmax": 128.0,
        "tolerances": {"density": 0.05},
    },
    "fock": _MODEL_SPACE,
    "gabor": _MODEL_SPACE,
    "dual-embedding": {"offset": [0.35, 0.2], "radii": [2.0, 4.0], "density_rmax": 32.0},
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "scenario": {"type": "string", "enum": list(DEFAULTS)},
        "seed": {"type": "integer", "minimum": 0},
        "lattice": {
            "type": "object",
            "properties": {
                "scale": {"type": "number", "exclusiveMinimum": 0},
                "dim": {"type": "integer", "minimum": 1},
                "thin": {"type": "string", "enum": ["drop-even-even"]},
            },
            "required": ["scale", "dim"],
            "additionalProperties": False,
        },
        "points_csv": {"type": "string"},
        "radii": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}, "minItems": 1},
        # the density schedule keeps the radii up to density_rmax: it needs the first
        "density_rmax": {"type": "number", "minimum": DEFAULT_RADII[0]},
        # a repeated window holds no new points: it would only repeat its spectrum
        "gram_radii": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
            "uniqueItems": True,
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
    # a lattice beside points_csv is rejected rather than ignored, and so are
    # keys a scenario never reads (rules appended from DEFAULTS); the Fock and
    # Gabor (n = 1) kernels live on R^2 (the localization terms cover d <= 2 only);
    # Paley-Wiener runs on a 1-D lattice and never thins
    "allOf": [
        {"if": {"required": ["points_csv"]}, "then": {"properties": {"lattice": {"not": {}}}}},
        {
            "if": {"properties": {"scenario": {"enum": ["fock", "gabor"]}}},
            "then": {"properties": {"lattice": {"properties": {"dim": {"const": 2}}}}},
        },
        {
            "if": {"properties": {"scenario": {"const": "paley-wiener"}}},
            "then": {"properties": {"lattice": {"properties": {"dim": {"const": 1}, "thin": {"not": {}}}}}},
        },
    ],
}


def _unread(defaults: dict) -> dict:
    """Schema properties rejecting each optional key, and each tolerances field, missing from defaults."""
    props = {}
    for key, spec in CONFIG_SCHEMA["properties"].items():
        if key not in defaults and key not in ("scenario", "seed", "out_dir"):
            props[key] = {"not": {}}
        elif key == "tolerances":
            props[key] = {"properties": {f: {"not": {}} for f in spec["properties"] if f not in defaults[key]}}
    return props


CONFIG_SCHEMA["allOf"] += [
    {"if": {"properties": {"scenario": {"const": name}}}, "then": {"properties": _unread(defaults)}}
    for name, defaults in DEFAULTS.items()
]


class ConfigError(ValueError):
    """Scenario configuration rejected; message carries the JSON path."""


def _non_finite_path(value, path: str = "$") -> str | None:
    """JSON path of the first NaN or infinite number in a parsed JSON value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}", item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    for where, item in items:
        found = _non_finite_path(item, where)
        if found is not None:
            return found
    return None


def validate_config(cfg: dict, schema: dict = CONFIG_SCHEMA) -> dict:
    """cfg, checked against schema; the first fault is a ConfigError naming its JSON path.

    Python's json reads NaN, Infinity and overflowing numbers such as 1e999,
    which no config means: they are rejected first, before the schema, whose
    number type admits them.
    """
    import jsonschema

    path = _non_finite_path(cfg)
    if path is not None:
        raise ConfigError(f"config invalid at {path}: not a finite number")

    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        path = first.json_path
        if first.validator == "additionalProperties":
            # point at the first unexpected key, not at the object holding it
            path += "." + sorted(set(first.instance) - set(first.schema["properties"]))[0]
        message = "the chosen scenario or kernel does not read this key" if first.validator == "not" else first.message
        raise ConfigError(f"config invalid at {path}: {message}")
    return cfg


def config_point_set(path, where: str = "$.points_csv") -> PointSet:
    """The point set of a config's points_csv file.

    A file that cannot be read as at least one distinct finite point is a
    ConfigError at where: verify and the CLI share this one conversion.
    """
    try:
        return load_point_set_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config invalid at {where}: {exc}") from None


# ---------------------------------------------------------------------------
# Gram truncation study


# the local mode count is the reference mass of the window shrunk by
# _GRAM_MARGIN; evidence needs eigenvalues >= _EVIDENCE_FLOOR whose last window
# agrees within _STABLE_RTOL with the last earlier one holding fewer points
_GRAM_MARGIN = 0.5
_EVIDENCE_FLOOR = 0.01
_STABLE_RTOL = 0.10


def _quarter_turn(pts: np.ndarray) -> np.ndarray:
    """rho(x, y) = (-y, x), row by row: a swap and a sign flip, so exact."""
    return np.column_stack([-pts[:, 1], pts[:, 0]])


def _same_rows(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two point arrays hold the same rows, in any order."""
    return a.shape == b.shape and np.array_equal(a[np.lexsort(a.T)], b[np.lexsort(b.T)])


def _gram_spectrum(kernel, pts: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the Gram matrix kernel.normalized_cross(pts, pts), in quarter-turn blocks.

    The Fock Gram is invariant under the quarter turn z -> iz, and the Gabor
    n = 1 Gram is its twin: through the Bargmann transform it equals
    D G_Fock D* with D = diag(exp(i pi p q)), z = p + i q, so both share one
    spectrum.  When the window's points equal their quarter turn, the Gram
    is block-circulant over the orbit representatives p_j (x > 0, y >= 0):
    with G_t = normalized_cross(reps, rho^t reps), its spectrum is the union
    of those of H_k = sum_t i^(kt) G_t, k = 0..3, the origin (if present)
    bordered into H_0 by 2 G(p_j, 0) and G(0, 0).  Any other window is the
    same computation with one turn: reps = pts and H_0 = G.
    """
    if isinstance(kernel, GaborGaussianKernel) and kernel.n == 1:
        kernel = FockKernel()
    if isinstance(kernel, FockKernel) and _same_rows(pts, _quarter_turn(pts)):
        turns = 4
        reps, centre = pts[(pts[:, 0] > 0) & (pts[:, 1] >= 0)], pts[np.all(pts == 0, axis=1)]
    else:
        turns, reps, centre = 1, pts, pts[:0]
    orbit = [reps]
    for _ in range(turns - 1):
        orbit.append(_quarter_turn(orbit[-1]))
    blocks = [kernel.normalized_cross(reps, turned) for turned in orbit]
    spectra = []
    for k in range(turns):
        H = sum((1, 1j, -1, -1j)[k * t % 4] * G for t, G in enumerate(blocks))
        if k == 0 and len(centre):
            border = kernel.normalized_cross(np.vstack([reps, centre]), centre)
            H = np.block([[H, 2.0 * border[:-1]], [2.0 * border[:-1].conj().T, border[-1:]]])
        spectra.append(np.linalg.eigvalsh(H))
    return np.sort(np.concatenate(spectra))


def gram_truncation_study(kernel, gamma: Lattice | PointSet, sizes) -> dict:
    """Windowed Gram spectra of normalized kernels over origin balls of growing radius.

    Per window: extreme eigenvalues, the redundancy-adjusted minimum
    ("min_nonzero": the eigenvalue at the local mode count when the window
    holds at least that many kernels), and the near-zero cluster size.  The
    largest window is walked once; each window takes the walked points its
    ball contains by gamma's own rule, in the walk's order.
    """
    d = kernel.dim
    radii = sorted(float(s) for s in sizes)
    walked = gamma.points_in_ball(Ball(np.zeros(d), radii[-1])) if radii else None
    rows = []
    for R in radii:
        pts = walked[gamma.contains(Ball(np.zeros(d), R), walked)]
        if len(pts) == 0:
            rows.append({"radius": R, "m": 0, "note": "window contains no points"})
            continue
        lam = _gram_spectrum(kernel, pts)
        lam_max = float(lam[-1])
        local_dim = None
        min_nonzero = None
        if kernel.mode_density is not None:
            local_dim = kernel.mode_density * ball_volume(d, max(R - _GRAM_MARGIN, 1e-6))
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
    # a window holding the same points as the one before it repeats its eigenvalues exactly
    fewer = [r for r in usable if r["m"] < usable[-1]["m"]] if usable else []

    def stable(key):
        # callers have checked every window's value against the floor
        if not fewer:
            return False
        a, b = fewer[-1][key], usable[-1][key]
        return abs(b - a) <= _STABLE_RTOL * max(abs(a), 1e-300)

    frame_evidence = bool(
        usable
        and all(r["min_nonzero"] is not None and r["min_nonzero"] >= _EVIDENCE_FLOOR for r in usable)
        and stable("min_nonzero")
    )
    riesz_evidence = bool(
        usable
        and all(r["min_eig"] >= _EVIDENCE_FLOOR for r in usable)
        and stable("min_eig")
    )
    return {
        "rows": rows,
        "margin": _GRAM_MARGIN,
        "floor": _EVIDENCE_FLOOR,
        "stabilization_rtol": _STABLE_RTOL,
        "frame_evidence": frame_evidence,
        "riesz_evidence": riesz_evidence,
    }


# ---------------------------------------------------------------------------
# Theorem table and corollary check


_TABLE_TOL = 1e-9  # rounding slack of the row inequality A <= B + C(1 + B)


def theorem_main_table(pair: FramePairSpec, radii):
    """Per-radius inequality table over origin balls for the localization-density chain.

    Column A is the diagonal average on the mu side (identically 1 for
    self-dual normalized families), column B the ball-mass ratio nu/mu,
    column C the effective localization epsilon.  Rows satisfying
    A <= B + C (1 + B) are consistent with the diagonal hypotheses; a
    violated row means those hypotheses cannot all hold for this pair.
    """
    radii = sorted(float(x) for x in radii)
    balls = [Ball(np.zeros(pair.kernel.dim), r) for r in radii]
    centers = np.zeros((len(radii), pair.kernel.dim))
    nu = pair.g_measure.ball_masses(centers, radii).tolist()
    mu = pair.f_measure.ball_masses(centers, radii).tolist()
    rows = []
    loc_rows = []
    for r, ball, nu_b, mu_b in zip(radii, balls, nu, mu):
        loc = localization_defect(pair, ball)
        loc_rows.append(loc)
        a_col = 1.0
        b_col = nu_b / mu_b
        c_col = loc["eps_eff"]
        bound = b_col + c_col * (1.0 + b_col)
        rows.append(
            {
                "center": loc["center"],
                "radius": r,
                "A": a_col,
                "B": b_col,
                "C": c_col,
                "bound": bound,
                "verdict": "pass" if a_col <= bound + _TABLE_TOL else "hypotheses-unmet",
            }
        )
    return rows, loc_rows


def corollary_parseval_check(pair: FramePairSpec, sched: DensitySchedule, tol: float = 0.05) -> dict:
    """Densities both ways for a pair of Parseval normalized families.

    Pass iff all four estimates (upper/lower, both orientations) are within
    tol of 1.  The Parseval property itself is an analytic precondition of
    the model families, not something this check can certify.
    """
    d_mu_nu = density(pair.g_measure, pair.f_measure, sched)
    d_nu_mu = density(pair.f_measure, pair.g_measure, sched)
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
        "per_radius_mu_nu": d_mu_nu.per_radius,
        "per_radius_nu_mu": d_nu_mu.per_radius,
    }


# ---------------------------------------------------------------------------
# Scenario implementations


def _build_lattice_support(cfg: dict):
    """Point support for a scenario and its density schedule: CSV points, a lattice, or a thinned lattice.

    The schedule's centres cover one period of a lattice (side scale) or of
    a thinned lattice (side 2 scale), at the plain lattice's spacing, and
    the unit box for CSV points.  The one thinning, drop-even-even, is a
    ThinnedLattice: it counts by the lattice rule, everywhere.
    """
    if cfg["points_csv"] is not None:
        points = config_point_set(cfg["points_csv"])
        return points, lattice_schedule(1.0, points.dim, r_max=cfg["density_rmax"])
    thin = "thin" in cfg["lattice"]
    lat = (ThinnedLattice if thin else Lattice)(cfg["lattice"]["scale"], cfg["lattice"]["dim"])
    sched = lattice_schedule(lat.scale, lat.dim, r_max=cfg["density_rmax"])
    if not thin:
        return lat, sched
    lo, hi = sched.center_box
    return lat, DensitySchedule(sched.radii, (lo, 2.0 * hi), sched.center_spacing)


def _lattice_verdicts(dens: DensityEstimate, study: dict, tol: float, critical_band: float) -> list:
    verdicts = []
    frame_ev = study["frame_evidence"]
    riesz_ev = study["riesz_evidence"]
    est = 0.5 * (dens.upper + dens.lower)
    critical = abs(est - 1.0) <= critical_band

    if not dens.converged:
        verdicts.append(
            {
                "name": "density-theorem",
                "verdict": "hypotheses-unmet",
                "detail": f"density estimate not converged (trend {dens.trend!r}); no density-theorem claim",
            }
        )
    elif frame_ev and dens.upper < 1.0 - tol:
        verdicts.append(
            {
                "name": "sampling-density",
                "verdict": "CONTRADICTION",
                "detail": f"frame evidence with upper density {dens.upper!r} < 1 - {tol}: "
                "violates the lower density bound",
            }
        )
    elif riesz_ev and dens.lower > 1.0 + tol:
        verdicts.append(
            {
                "name": "interpolating-density",
                "verdict": "CONTRADICTION",
                "detail": f"Riesz evidence with lower density {dens.lower!r} > 1 + {tol}: "
                "violates the upper density bound",
            }
        )
    elif critical:
        verdicts.append(
            {
                "name": "density-theorem",
                "verdict": "critical-no-claim",
                "detail": f"|density estimate {est!r} - 1| <= {critical_band}: inside the critical band; no claim",
            }
        )
    elif frame_ev:
        verdicts.append(
            {
                "name": "density-theorem",
                "verdict": "pass",
                "detail": f"frame evidence and upper density {dens.upper!r} >= 1 - {tol}",
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


def _finite_oracle_scenario(cfg: dict) -> dict:
    trials = cfg["trials"]
    rng = np.random.RandomState(cfg["seed"])
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
    gates = [
        ("max residual", worst, 1e-10),
        ("projection formula gap", max(proj_residuals), 1e-10),
        ("idempotency gap", max(idem_residuals), 1e-12),
    ]
    verdict = "pass" if all(value < gate for _, value, gate in gates) else "hypotheses-unmet"
    detail = "; ".join(f"{n} {v!r} {'<' if v < g else '>= (failed)'} {g!r}" for n, v, g in gates)
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
        "verdicts": [{"name": "comparison-identity", "verdict": verdict, "detail": detail}],
    }


def _model_space_scenario(cfg: dict, kernel) -> dict:
    # separation of the point set is enforced at construction: PointSet
    # rejects coincident points naming the offender, and lattice-derived
    # supports inherit the lattice spacing
    d = kernel.dim
    support, sched = _build_lattice_support(cfg)
    if support.dim != d:
        where = "$.lattice.dim" if cfg["points_csv"] is None else "$.points_csv"
        need = f"the {cfg['scenario']} kernel needs {d}-d points, got {support.dim}-d"
        raise ConfigError(f"config invalid at {where}: {need}")
    dens = density(CountingMeasure(support), LebesgueMeasure(d), sched)
    study = gram_truncation_study(kernel, support, cfg["gram_radii"])
    pair = FramePairSpec(
        kernel=kernel,
        f_measure=LebesgueMeasure(d),
        g_measure=CountingMeasure(support),
    )
    table, loc_rows = theorem_main_table(pair, cfg["radii"])
    verdicts = _lattice_verdicts(dens, study, cfg["tolerances"]["density"], cfg["tolerances"]["critical_band"])
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
        "density": dataclasses.asdict(dens),
        "gram_study": study,
        "localization": loc_rows,
        "theorem_table": table,
        "verdicts": verdicts,
    }


def _paley_wiener_scenario(cfg: dict) -> dict:
    kernel = PaleyWienerKernel()
    lat = Lattice(cfg["lattice"]["scale"], 1)
    pair = FramePairSpec(kernel=kernel, f_measure=LebesgueMeasure(1), g_measure=CountingMeasure(lat))
    sched = lattice_schedule(lat.scale, 1, r_max=cfg["density_rmax"])
    corollary = corollary_parseval_check(pair, sched, tol=cfg["tolerances"]["density"])
    study = gram_truncation_study(kernel, lat, cfg["gram_radii"])
    table, loc_rows = theorem_main_table(pair, cfg["radii"])
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
        "localization": loc_rows,
        "theorem_table": table,
        "verdicts": verdicts,
    }


def _dual_embedding_scenario(cfg: dict) -> dict:
    pair = FramePairSpec(
        kernel=FockKernel(),
        f_measure=LebesgueMeasure(2),
        g_measure=LebesgueMeasure(2),
        g_offset=cfg["offset"],
    )
    rows = [localization_defect(pair, Ball(np.zeros(2), r)) for r in sorted(cfg["radii"])]
    # both index measures are Lebesgue: densities are exactly 1 at every radius
    sched = lattice_schedule(1.0, 2, r_max=cfg["density_rmax"])
    corollary = corollary_parseval_check(pair, sched)
    ok = corollary["verdict"] == "pass" and all(r["eps_eff"] < 1e-10 for r in rows)
    return {
        "corollary": corollary,
        "localization": rows,
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
    "fock": lambda cfg: _model_space_scenario(cfg, FockKernel()),
    "gabor": lambda cfg: _model_space_scenario(cfg, GaborGaussianKernel()),
    "dual-embedding": _dual_embedding_scenario,
}


def resolve_config(cfg: dict) -> dict:
    """The config a scenario runs with: its DEFAULTS filled in, tolerances merged one level deep."""
    defaults = DEFAULTS[cfg["scenario"]]
    resolved = {"seed": 7, **defaults, **cfg}
    if "tolerances" in defaults:
        resolved["tolerances"] = {**defaults["tolerances"], **resolved["tolerances"]}
    return resolved


def run(cfg: dict) -> dict:
    """Execute a scenario configuration and return the report dictionary.

    The report's inputs are the raw config; the scenario reads the resolved one.
    """
    validate_config(cfg)
    resolved = resolve_config(cfg)
    name = resolved["scenario"]
    body = _SCENARIOS[name](resolved)
    report = {
        "schema": SCHEMA_ID,
        "scenario": name,
        "seed": resolved["seed"],
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
    """The report as strict JSON: a NaN or infinity raises ValueError rather than being written."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


# CSV views of report tables: column title -> row key
LOCALIZATION_CSV = {"center": "center", "r": "radius"} | {
    k: k for k in ("defect", "t1", "t2", "normalizer", "eps_eff", "trunc_bound")
}
GRAM_CSV = {k: k for k in ("radius", "m", "local_dim", "max_eig", "min_eig", "min_nonzero", "near_zero_cluster")}


def write_table_csv(rows: list, columns: dict, path) -> None:
    """CSV view of report rows: cells are repr(row.get(key)), lists joined by ';'."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            cells = (row.get(k) for k in columns.values())
            writer.writerow([";".join(map(repr, v)) if isinstance(v, list) else repr(v) for v in cells])


def write_report(report: dict, out_dir) -> Path:
    """Write report.json plus CSV views of the tables; returns the JSON path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{report['scenario']}-report.json"
    json_path.write_text(report_json(report))
    if "localization" in report:
        write_table_csv(report["localization"], LOCALIZATION_CSV, out / f"{report['scenario']}-localization.csv")
    if "gram_study" in report:
        write_table_csv(report["gram_study"]["rows"], GRAM_CSV, out / f"{report['scenario']}-gram.csv")
    return json_path
