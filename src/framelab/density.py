"""Generalized Beurling densities of one measure against another.

The true densities are limits of sup/inf ball-mass ratios over all centers
as the radius grows.  Here centers run over a finite grid in a box and radii
over a finite schedule, so the output is a finite-scale surrogate; the
schedule travels with the estimate so that every reported number is scoped.
For periodic point sets periodicity confines the centers to one
fundamental cell, but the cell is sampled only at spacing min(1, alpha / 2)
(lattice_schedule), so at a finite radius the reported sup/inf lie inside
the true range over all centers: for alpha = 2, r = 4 the grid reads
[0.2387, 0.2586] against a fine grid's [0.1989, 0.2785].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["DensitySchedule", "DensityEstimate", "density", "lattice_schedule"]

DEFAULT_RADII = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
_BOX_HALF = 16.0  # default_schedule: centers on a unit grid in [-16, 16]^d
_TREND_TOL = 0.05  # converged when the trend is within 5% of the estimate


@dataclass(frozen=True)
class DensitySchedule:
    """Radii schedule plus a center grid specification."""

    radii: tuple
    center_box: tuple  # (lo, hi) arrays
    center_spacing: float

    def __post_init__(self):
        r = tuple(float(x) for x in self.radii)
        if len(r) == 0 or any(b <= a for a, b in zip(r, r[1:])) or r[0] <= 0:
            raise ValueError("radii must be a strictly increasing positive sequence")
        object.__setattr__(self, "radii", r)
        if self.center_spacing <= 0:
            raise ValueError("center spacing must be positive")
        lo = np.asarray(self.center_box[0], dtype=float)
        hi = np.asarray(self.center_box[1], dtype=float)
        if lo.shape != hi.shape or np.any(hi < lo):
            raise ValueError("center box is empty or malformed")
        object.__setattr__(self, "center_box", (lo, hi))

    def centers(self) -> np.ndarray:
        lo, hi = self.center_box
        axes = []
        for a, b in zip(lo, hi):
            n = max(1, int(math.floor((b - a) / self.center_spacing)) + 1)
            axes.append(a + self.center_spacing * np.arange(n))
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


@dataclass(frozen=True)
class DensityEstimate:
    per_radius: tuple  # rows (r, sup_ratio, inf_ratio)
    upper: float
    lower: float
    converged: bool
    trend: float  # ratio change between the last two radii, the convergence diagnostic


def default_schedule(dim: int, r_max: float) -> DensitySchedule:
    radii = tuple(r for r in DEFAULT_RADII if r <= r_max)
    return DensitySchedule(radii, (np.full(dim, -_BOX_HALF), np.full(dim, _BOX_HALF)), 1.0)


def lattice_schedule(scale: float, dim: int, r_max: float) -> DensitySchedule:
    """Periodic-cell schedule: centers cover one fundamental cell of the lattice."""
    radii = tuple(r for r in DEFAULT_RADII if r <= r_max)
    spacing = min(1.0, scale / 2.0)
    lo = np.zeros(dim)
    hi = np.full(dim, scale * (1.0 - 1e-9))  # half-open cell
    return DensitySchedule(radii, (lo, hi), spacing)


def density(mu, nu, sched: DensitySchedule) -> DensityEstimate:
    """Sup/inf ball-mass ratios mu(B)/nu(B) over the schedule, one ball_masses call per measure.

    Every (centre, radius) pair of the schedule goes into that one call, and
    the masses are split per radius afterwards.  Requires nu(B(a, r_min)) > 0
    at every sampled center, mirroring the standing assumption on the
    reference measure.  The trend compares the last two radii; the library's
    schedules double their radii, so that is r_max against r_max / 2.
    """
    centers = sched.centers()
    shape = (len(sched.radii), len(centers))
    all_centers, all_radii = np.tile(centers, (len(sched.radii), 1)), np.repeat(sched.radii, len(centers))
    nub = nu.ball_masses(all_centers, all_radii).reshape(shape)
    if np.any(nub <= 0):
        raise ValueError("reference measure vanishes on a ball")
    ratios = mu.ball_masses(all_centers, all_radii).reshape(shape) / nub
    rows = [(r, float(np.max(row)), float(np.min(row))) for r, row in zip(sched.radii, ratios)]

    _, upper, lower = rows[-1]
    if len(rows) > 1:
        _, prev_upper, prev_lower = rows[-2]
        trend = max(abs(upper - prev_upper), abs(lower - prev_lower))
    else:
        trend = math.inf
    scale = max(abs(upper), abs(lower), 1e-12)
    return DensityEstimate(
        per_radius=tuple(rows),
        upper=upper,
        lower=lower,
        converged=bool(trend <= _TREND_TOL * scale),
        trend=trend,
    )

