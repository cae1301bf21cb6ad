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
critical band around 1 yields no claim in either direction.  One body gives
these verdicts to ``fock``, ``gabor`` and ``paley-wiener``, each on its
kernel's space; ``paley-wiener`` adds the Parseval density corollary, which
imposes nothing (``vacuous-consistent``) when the densities are off 1.

Configuration: ``DEFAULTS`` lists, per scenario, every optional key it reads
with its default, down to the ``tolerances`` fields.  ``CONFIG_SCHEMA``
checks only shapes, through framelab's own checker of thirteen keywords
(``validate_config``); ``run`` checks a config against it, then resolves it
once (``resolve_config``), which rejects any key or field its scenario's
``DEFAULTS`` does not list by its JSON path, so a shape fault comes before
an unread key.  Scenario bodies read only the resolved dict; the report's
``inputs`` keep the config as given.
"""
from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import finframe
from .density import DEFAULT_RADII, DensityEstimate, DensitySchedule, default_schedule, density, lattice_schedule
from .kernels import KERNELS
from .localization import FramePairSpec, localization_defect
from .space import (
    AtomicMeasure,
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
]

SCHEMA_ID = "framelab/1"
PASSING_VERDICTS = ("pass", "vacuous-consistent", "critical-no-claim")

# Every optional key each scenario reads, with its default (seed is one, read by
# finite-oracle alone); scenario is legal everywhere.  tolerances are merged one
# level deep; resolve_config rejects any key or tolerances field not listed here.
_MODEL_SPACE = {
    "lattice": {"scale": 1.0, "dim": 2},
    "points_csv": None,
    "radii": [4.0, 8.0, 16.0],
    "gram_radii": [2.5, 3.5, 4.5],
    "density_rmax": 128.0,
    "tolerances": {"density": 0.05, "critical_band": 0.05},
}
DEFAULTS = {
    "finite-oracle": {"seed": 7, "trials": 100},
    "paley-wiener": {**_MODEL_SPACE, "lattice": {"scale": 1.0, "dim": 1}, "gram_radii": [10.0, 15.0, 20.0]},
    "fock": _MODEL_SPACE,
    "gabor": _MODEL_SPACE,
    "dual-embedding": {"offset": [0.35, 0.2], "radii": [2.0, 4.0], "density_rmax": 32.0},
}


class ConfigError(ValueError):
    """Scenario configuration rejected; message carries the JSON path."""


# exactly one measure kind: every measure spec, and a scenario's lattice or points_csv
MEASURE_SCHEMA = {
    "type": "object",
    "properties": {
        "lebesgue": {
            "type": "object",
            "properties": {"dim": {"type": "integer", "minimum": 1}},
            "required": ["dim"],
            "additionalProperties": False,
        },
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
        "atomic": {
            "type": "object",
            "properties": {
                "points": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                    "minItems": 1,
                },
                "weights": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
            },
            "required": ["points", "weights"],
            "additionalProperties": False,
        },
    },
    "minProperties": 1,
    "maxProperties": 1,
    "additionalProperties": False,
}


def measure_from_spec(spec: dict, root: str = "$", dim: int | None = None):
    """The measure of {"lebesgue": {...}} | {"lattice": {...}} | {"points_csv": ...} | {"atomic": {...}}.

    A lattice with thin is a ThinnedLattice.  Point data that makes no
    measure is a ConfigError at its JSON path under root, and so, with dim,
    is a measure in another dimension, at the key that fixes it: the dim of
    lebesgue or lattice, or the point data itself.
    """
    ((kind, body),) = spec.items()
    if kind == "lebesgue":
        measure = LebesgueMeasure(int(body["dim"]))
    elif kind == "lattice":
        measure = CountingMeasure((ThinnedLattice if "thin" in body else Lattice)(body["scale"], int(body["dim"])))
    elif kind == "points_csv":
        try:
            measure = CountingMeasure(load_point_set_csv(body))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config invalid at {root}.points_csv: {exc}") from None
    elif kind == "atomic":
        points = body["points"]
        first = {}
        for i, p in enumerate(points):
            where = f"config invalid at {root}.atomic.points[{i}]"
            if len(p) != len(points[0]):
                raise ConfigError(f"{where}: {len(p)} coordinates, not {len(points[0])}")
            j = first.setdefault(tuple(p), i)
            if j != i:
                raise ConfigError(f"{where}: the same atom as points[{j}]")
        try:
            measure = AtomicMeasure(points, body["weights"])
        except ValueError as exc:  # the points are checked above: what is left is the weights
            raise ConfigError(f"config invalid at {root}.atomic.weights: {exc}") from None
    else:
        raise ConfigError(f"config invalid at {root}: measure needs one of lebesgue/lattice/points_csv/atomic")
    if dim is not None and measure.dim != dim:
        where = f"{root}.{kind}.dim" if kind in ("lebesgue", "lattice") else f"{root}.{kind}"
        raise ConfigError(f"config invalid at {where}: needs dimension {dim}, got {measure.dim}")
    return measure


CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "scenario": {"type": "string", "enum": list(DEFAULTS)},
        "seed": {"type": "integer", "minimum": 0},
        "lattice": MEASURE_SCHEMA["properties"]["lattice"],
        "points_csv": MEASURE_SCHEMA["properties"]["points_csv"],
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
    },
    "required": ["scenario"],
    "additionalProperties": False,
}


def _non_finite_path(value, path: str = "$") -> str | None:
    """JSON path of the first NaN, infinity or integer too large for a float in a parsed JSON value, or None."""
    if isinstance(value, (int, float)):
        try:
            return None if math.isfinite(value) else path
        except OverflowError:  # an integer literal no float holds
            return path
    if isinstance(value, dict):
        items = ((f"{path}.{key}", item) for key, item in value.items())
    else:
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value if isinstance(value, list) else ()))
    return next((found for where, item in items if (found := _non_finite_path(item, where)) is not None), None)


def _is(value, kind: str) -> bool:
    """Draft 2020-12's test of the five types the schemas use: true and false are no numbers, and 5.0 is an integer."""
    types = {"object": dict, "array": list, "string": str, "integer": (int, float), "number": (int, float)}[kind]
    return not isinstance(value, bool) and isinstance(value, types) and (kind != "integer" or value % 1 == 0)


def _canon(value):
    """value's hashable form under JSON equality: 1 equals 1.0, true is not 1, lists and objects go by their items."""
    if isinstance(value, list):
        return ("array", tuple(map(_canon, value)))
    if isinstance(value, dict):
        return ("object", frozenset((k, _canon(v)) for k, v in value.items()))
    return ("number" if type(value) in (int, float) else type(value).__name__, value)


# keyword -> (the type it applies to, or None for any; value, argument -> its fault's message, or a falsy value)
_CHECKS = {
    "type": (None, lambda v, a: not _is(v, a) and f"{v!r} is not of type {a!r}"),
    "enum": (None, lambda v, a: _canon(v) not in map(_canon, a) and f"{v!r} is not one of {a!r}"),
    "minimum": ("number", lambda v, a: v < a and f"{v!r} is less than the minimum of {a!r}"),
    "exclusiveMinimum": ("number", lambda v, a: v <= a and f"{v!r} is less than or equal to the minimum of {a!r}"),
    "minItems": ("array", lambda v, a: len(v) < a and f"{v!r} is too short"),
    "maxItems": ("array", lambda v, a: len(v) > a and f"{v!r} is too long"),
    "uniqueItems": ("array", lambda v, a: a and len({*map(_canon, v)}) < len(v) and f"{v!r} has non-unique elements"),
    "minProperties": ("object", lambda v, a: len(v) < a and f"{v!r} does not have enough properties"),
    "maxProperties": ("object", lambda v, a: len(v) > a and f"{v!r} has too many properties"),
    "required": ("object", lambda v, a: next((f"{k!r} is a required property" for k in a if k not in v), None)),
}
_KEYWORDS = {*_CHECKS, "properties", "items", "additionalProperties"}


def _faults(value, schema: dict, path: str = "$"):
    """(path, rank, where, message) of each fault of value against schema, at most one per keyword, in keyword order.

    An unexpected key ranks 0 at its object's path and is named where by the first in sorted order; others rank 1.
    """
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown:  # refused wherever it would apply, so no keyword passes unchecked
        raise ValueError(f"schema keyword {unknown[0]!r} is not implemented by validate_config")
    for keyword, arg in schema.items():
        if keyword == "properties" and isinstance(value, dict):
            for key, sub in arg.items():
                if key in value:
                    yield from _faults(value[key], sub, f"{path}.{key}")
        elif keyword == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _faults(item, arg, f"{path}[{i}]")
        elif keyword == "additionalProperties" and isinstance(value, dict) and arg is False:
            extra = sorted(set(value) - set(schema.get("properties", {})))
            if extra:
                names = ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"
                yield path, 0, f"{path}.{extra[0]}", "Additional properties are not allowed (%s %s unexpected)" % names
        elif keyword in _CHECKS:
            kind, fault = _CHECKS[keyword]
            message = (kind is None or _is(value, kind)) and fault(value, arg)
            if message:
                yield path, 1, path, message


def validate_config(cfg: dict, schema: dict = CONFIG_SCHEMA) -> dict:
    """cfg, checked against schema; the first fault is a ConfigError naming its JSON path.

    Python's json reads NaN, Infinity and overflowing numbers such as 1e999
    (as inf) or an integer of 400 digits (as an int no float holds), which no
    config means: they are rejected first, before the schema, whose number
    type admits them.  Then framelab's own checker of the schemas' thirteen
    Draft 2020-12 keywords (``_faults``) names the fault at the least JSON
    path: at one object an unexpected key first, then the schema's keyword order.
    """
    path = _non_finite_path(cfg)
    if path is not None:
        raise ConfigError(f"config invalid at {path}: not a finite number")
    first = min(_faults(cfg, schema), key=lambda fault: fault[:2], default=None)
    if first is not None:
        raise ConfigError(f"config invalid at {first[2]}: {first[3]}")
    return cfg


def density_schedule(mu, nu, r_max: float) -> DensitySchedule:
    """The centres and radii (up to r_max) of mu's density against nu: one rule for run and framelab density.

    A point set on either side takes a unit grid over its bounding box (on
    both sides, the intersection of the two boxes) shrunk on every side by
    the largest radius, so no ball reaches past the data's box; a box that
    shrinks to nothing is a ConfigError at $.points_csv.  Otherwise a
    lattice on either side, mu's first, takes one period at the plain
    lattice's spacing (a ThinnedLattice's period is 2 scale).  Two
    Lebesgue measures take default_schedule's radii at one centre, the
    origin: every centre reads the same ratio.  Any other pair takes
    default_schedule.
    """
    supports = [getattr(m, "support", None) for m in (mu, nu)]
    point_sets = [s.points for s in supports if isinstance(s, PointSet)]
    lattices = [s for s in supports if isinstance(s, Lattice)]
    if lattices and not point_sets:
        sched = lattice_schedule(lattices[0].scale, lattices[0].dim, r_max=r_max)
        if isinstance(lattices[0], ThinnedLattice):
            lo, hi = sched.center_box
            sched = DensitySchedule(sched.radii, (lo, 2.0 * hi), sched.center_spacing)
        return sched
    sched = default_schedule(mu.dim, r_max=r_max)
    if point_sets:
        r = sched.radii[-1]
        lo = np.max([pts.min(axis=0) for pts in point_sets], axis=0) + r
        hi = np.min([pts.max(axis=0) for pts in point_sets], axis=0) - r
        if np.any(hi < lo):
            raise ConfigError(f"config invalid at $.points_csv: no radius-{r!r} ball fits in the points' box")
        sched = DensitySchedule(sched.radii, (lo, hi), sched.center_spacing)
    elif not (mu.is_discrete or nu.is_discrete):
        origin = np.zeros(mu.dim)
        sched = DensitySchedule(sched.radii, (origin, origin), sched.center_spacing)
    return sched


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

    A kernel's twin, when it has one, shares its spectrum and has its Gram
    solved in the kernel's place.  When that Gram is invariant under the
    quarter turn z -> iz (quarter_turn) and the window's points equal their
    quarter turn, it is block-circulant over the orbit representatives p_j
    (x > 0, y >= 0): with G_t = normalized_cross(reps, rho^t reps), its
    spectrum is the union of those of H_k = sum_t i^(kt) G_t, k = 0..3, the
    origin (if present) bordered into H_0 by 2 G(p_j, 0) and G(0, 0).  Any
    other window is the same computation with one turn: reps = pts and H_0 = G.
    """
    if kernel.twin is not None:
        kernel = kernel.twin
    if kernel.quarter_turn and _same_rows(pts, _quarter_turn(pts)):
        reps, centre = pts[(pts[:, 0] > 0) & (pts[:, 1] >= 0)], pts[np.all(pts == 0, axis=1)]
        orbit = [reps, _quarter_turn(reps), -reps, -_quarter_turn(reps)]  # rho^2 = -1
    else:
        orbit, reps, centre = [pts], pts, pts[:0]
    turns = len(orbit)
    G = [kernel.normalized_cross(reps, turned) for turned in orbit]
    # H_k = sum_t i^(kt) G_t = (G_0 + G_2) +- (G_1 + G_3) at k = 0, 2 and (G_0 - G_2) +- i (G_1 - G_3) at k = 1, 3
    halves = [(G[0] + G[2], G[1] + G[3]), (G[0] - G[2], 1j * (G[1] - G[3]))] if turns == 4 else [(G[0], 0)]
    spectra = []
    for k in range(turns):
        even, odd = halves[k % 2]
        H = even + odd if k < 2 else even - odd
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
        local_dim = kernel.mode_density * ball_volume(d, max(R - _GRAM_MARGIN, 1e-6))
        need = max(1, math.ceil(local_dim))
        min_nonzero = None
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
        b_col = nu_b / mu_b if mu_b > 0 else math.inf
        if not math.isfinite(b_col):
            raise ValueError(f"ball mass ratio nu(B)/mu(B) is not finite at radius {r!r}")
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


def corollary_parseval_check(pair: FramePairSpec, sched: DensitySchedule, d_mu_nu: DensityEstimate, tol=0.05) -> dict:
    """Densities both ways for a pair of normalized families; d_mu_nu is density(g_measure, f_measure, sched).

    Pass iff all four estimates (upper/lower, both orientations) are within
    tol of 1; otherwise the pair is not Parseval, the corollary imposes
    nothing, and the verdict is vacuous-consistent.  The Parseval property
    itself is an analytic precondition, not something this check certifies.
    """
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
        "verdict": "pass" if ok else "vacuous-consistent",
        "per_radius_mu_nu": d_mu_nu.per_radius,
        "per_radius_nu_mu": d_nu_mu.per_radius,
    }


# ---------------------------------------------------------------------------
# Scenario implementations


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
    trials, seed = int(cfg["trials"]), int(cfg["seed"])  # a JSON integer may be written 5.0
    if seed >= 2**32:  # the schema bounds no integer above; RandomState's seeds stop below 2**32
        raise ConfigError(f"config invalid at $.seed: {seed} is not below 2**32, numpy's seed range")
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
    gates = [
        ("max residual", worst, 1e-10),
        ("projection formula gap", max(proj_residuals), 1e-10),
        ("idempotency gap", max(idem_residuals), 1e-12),
    ]
    verdict = "pass" if all(value < gate for _, value, gate in gates) else "hypotheses-unmet"
    detail = "; ".join(f"{n} {v!r} {'<' if v < g else '>= (failed)'} {g!r}" for n, v, g in gates)
    return {
        "seed": seed,
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


def _model_space_scenario(cfg: dict, kernel, corollary: bool = False) -> dict:
    # separation of the point set is enforced at construction: PointSet
    # rejects coincident points naming the offender, and lattice-derived
    # supports inherit the lattice spacing
    d = kernel.dim
    spec = {"lattice": cfg["lattice"]} if cfg["points_csv"] is None else {"points_csv": cfg["points_csv"]}
    counting, lebesgue = measure_from_spec(spec, dim=d), LebesgueMeasure(d)
    sched = density_schedule(counting, lebesgue, cfg["density_rmax"])
    dens = density(counting, lebesgue, sched)
    study = gram_truncation_study(kernel, counting.support, cfg["gram_radii"])
    pair = FramePairSpec(kernel=kernel, f_measure=lebesgue, g_measure=counting)
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
    body = {
        "density": dataclasses.asdict(dens),
        "gram_study": study,
        "localization": loc_rows,
        "theorem_table": table,
        "verdicts": verdicts,
    }
    if corollary:  # dens is its mu -> nu orientation: each orientation's density is estimated once
        body["corollary"] = check = corollary_parseval_check(pair, sched, dens, cfg["tolerances"]["density"])
        detail = f"density estimates {check['values']}"
        if check["verdict"] != "pass":
            detail += "; densities off 1: the pair is not Parseval; the corollary imposes nothing"
        verdicts.append({"name": "parseval-corollary", "verdict": check["verdict"], "detail": detail})
    return body


def _dual_embedding_scenario(cfg: dict) -> dict:
    pair = FramePairSpec(
        kernel=KERNELS["fock"](),
        f_measure=LebesgueMeasure(2),
        g_measure=LebesgueMeasure(2),
        g_offset=cfg["offset"],
    )
    rows = [localization_defect(pair, Ball(np.zeros(2), r)) for r in sorted(cfg["radii"])]
    # both index measures are Lebesgue: densities are exactly 1 at every radius
    sched = density_schedule(pair.f_measure, pair.g_measure, cfg["density_rmax"])
    corollary = corollary_parseval_check(pair, sched, density(pair.g_measure, pair.f_measure, sched))
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
    "paley-wiener": lambda cfg: _model_space_scenario(cfg, KERNELS["paley-wiener"](), corollary=True),
    "fock": lambda cfg: _model_space_scenario(cfg, KERNELS["fock"]()),
    "gabor": lambda cfg: _model_space_scenario(cfg, KERNELS["gabor-gaussian"]()),
    "dual-embedding": _dual_embedding_scenario,
}


def resolve_config(cfg: dict) -> dict:
    """The config a scenario runs with: its DEFAULTS filled in, tolerances merged one level deep.

    cfg has passed validate_config.  A key or tolerances field that its
    scenario's DEFAULTS does not list is a ConfigError at the first such JSON
    path, and so is a lattice beside points_csv, which takes its place.
    """
    name = cfg["scenario"]
    defaults = DEFAULTS[name]
    unread = [f"$.{key}" for key in cfg if key not in defaults and key != "scenario"]
    if "tolerances" in cfg and "tolerances" in defaults:
        unread += [f"$.tolerances.{f}" for f in cfg["tolerances"] if f not in defaults["tolerances"]]
    if "lattice" in cfg and "points_csv" in cfg:
        unread.append("$.lattice")
    if unread:
        raise ConfigError(f"config invalid at {min(unread)}: scenario {name!r} does not read it")
    resolved = {**defaults, **cfg}
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
        "inputs": dict(sorted(cfg.items())),
    }
    report.update(body)
    verdicts = report.get("verdicts", [])
    report["overall"] = (
        "pass"
        if all(v["verdict"] in PASSING_VERDICTS for v in verdicts)
        else ("CONTRADICTION" if any(v["verdict"] == "CONTRADICTION" for v in verdicts) else "fail")
    )
    return report


def report_json(report: dict | list) -> str:
    """Strict JSON of a report or of its rows: a NaN or infinity raises ValueError rather than being written."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(report: dict, out_dir) -> Path:
    """Write the report as <scenario>-report.json in out_dir; returns its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{report['scenario']}-report.json"
    json_path.write_text(report_json(report))
    return json_path
