"""Metric measure spaces over R^d: points, closed balls, point sets, lattices,
and the Lebesgue, counting and atomic measures whose ball masses the density
and localization code compare.

Balls are closed throughout: an atom sitting exactly on the boundary sphere
belongs to the ball.  Atom membership uses exact floating-point comparison
(no fuzzy tolerance); coordinates are treated as exact inputs.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Ball",
    "PointSet",
    "Lattice",
    "LebesgueMeasure",
    "CountingMeasure",
    "AtomicMeasure",
    "as_point",
    "ball_volume",
    "load_point_set_csv",
]


def as_point(x) -> np.ndarray:
    """Coerce to a 1-d float array and validate finiteness."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1 or p.size < 1:
        raise ValueError("point must be a 1-d coordinate vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    return p


@dataclass(frozen=True)
class Ball:
    """Closed ball B(center, radius) in R^d."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not (self.radius > 0):
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Closed-ball membership for an (m, d) array of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diff = pts - self.center[None, :]
        return np.einsum("ij,ij->i", diff, diff) <= self.radius * self.radius


def ball_volume(d: int, r: float) -> float:
    """Lebesgue volume of a ball of radius r in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r**d


class PointSet:
    """Finite set of distinct points."""

    def __init__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, max(pts.shape[-1], 1) if pts.ndim == 2 else 1)
        if not np.all(np.isfinite(pts)):
            raise ValueError("point set has non-finite coordinates")
        self.points = pts
        if len(pts) > 1:
            uniq, counts = np.unique(pts, axis=0, return_counts=True)
            if len(uniq) != len(pts):
                offender = uniq[np.argmax(counts > 1)]
                raise ValueError(f"point set not separated: duplicate point {offender.tolist()}")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def points_in_ball(self, b: Ball) -> np.ndarray:
        return self.points[b.contains(self.points)]


class Lattice:
    """Scaled integer lattice alpha * Z^d with closed-form ball enumeration."""

    def __init__(self, scale: float, dim: int):
        if scale <= 0:
            raise ValueError("lattice scale must be positive")
        if dim < 1:
            raise ValueError("lattice dimension must be >= 1")
        self.scale = float(scale)
        self.dim = int(dim)

    def count_in_ball(self, b: Ball) -> int:
        """Number of lattice points in the closed ball, without enumeration.

        Row-by-row counting: for each prefix of fixed leading coordinates the
        final axis contributes floor/ceil interval counts.
        """
        if b.dim != self.dim:
            raise ValueError("ball dimension does not match lattice dimension")
        c = b.center / self.scale
        r = b.radius / self.scale
        return int(self._count_rec(c, r * r))

    def _count_rec(self, c: np.ndarray, r2: float) -> int:
        if r2 < 0:
            return 0
        r = math.sqrt(r2)
        if c.size == 1:
            lo = math.ceil(c[0] - r)
            hi = math.floor(c[0] + r)
            return max(0, hi - lo + 1)
        lo = math.ceil(c[0] - r)
        hi = math.floor(c[0] + r)
        if hi < lo:
            return 0
        i = np.arange(lo, hi + 1, dtype=float)
        rem = r2 - (i - c[0]) ** 2
        if c.size == 2:
            rr = np.sqrt(np.maximum(rem, 0.0))
            his = np.floor(c[1] + rr)
            los = np.ceil(c[1] - rr)
            return int(np.sum(np.maximum(0.0, his - los + 1.0)))
        return sum(self._count_rec(c[1:], float(t)) for t in rem)

    def points_in_ball(self, b: Ball) -> np.ndarray:
        """Enumerate lattice points in the closed ball as an (m, d) array."""
        if b.dim != self.dim:
            raise ValueError("ball dimension does not match lattice dimension")
        lo = np.ceil((b.center - b.radius) / self.scale).astype(int)
        hi = np.floor((b.center + b.radius) / self.scale).astype(int)
        if np.any(hi < lo):
            return np.zeros((0, self.dim))
        axes = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grid], axis=1).astype(float) * self.scale
        return pts[b.contains(pts)]

    def points_in_box(self, lo, hi) -> np.ndarray:
        lo = np.ceil(as_point(lo) / self.scale).astype(int)
        hi = np.floor(as_point(hi) / self.scale).astype(int)
        if np.any(hi < lo):
            return np.zeros((0, self.dim))
        axes = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=1).astype(float) * self.scale


@dataclass
class LebesgueMeasure:
    """Lebesgue measure on R^d; ball masses are the closed-form volume."""

    dim: int

    is_discrete: bool = field(default=False, init=False, repr=False)

    def ball_mass(self, b: Ball) -> float:
        if b.dim != self.dim:
            raise ValueError("ball dimension does not match measure dimension")
        return ball_volume(self.dim, b.radius)


class CountingMeasure:
    """Counting measure of a PointSet or Lattice."""

    is_discrete = True

    def __init__(self, support: PointSet | Lattice):
        if not isinstance(support, (PointSet, Lattice)):
            raise ValueError("counting measure needs a PointSet or Lattice support")
        self.support = support

    @property
    def dim(self) -> int:
        return self.support.dim

    def ball_mass(self, b: Ball) -> float:
        if isinstance(self.support, Lattice):
            return float(self.support.count_in_ball(b))
        return float(np.count_nonzero(b.contains(self.support.points)))

    def atoms_in_ball(self, b: Ball) -> tuple[np.ndarray, np.ndarray]:
        pts = self.support.points_in_ball(b)
        return pts, np.ones(len(pts))


class AtomicMeasure:
    """Finite atomic measure: sum of positive point masses."""

    is_discrete = True

    def __init__(self, points, weights):
        self.point_set = PointSet(points)
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(self.point_set),):
            raise ValueError("weights must match the number of atoms")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("atomic weights must be positive and finite")
        self.weights = w

    @property
    def dim(self) -> int:
        return self.point_set.dim

    @property
    def points(self) -> np.ndarray:
        return self.point_set.points

    def ball_mass(self, b: Ball) -> float:
        inside = b.contains(self.points)
        return float(math.fsum(self.weights[inside]))

    def atoms_in_ball(self, b: Ball) -> tuple[np.ndarray, np.ndarray]:
        inside = b.contains(self.points)
        return self.points[inside], self.weights[inside]


def load_point_set_csv(path) -> PointSet:
    """Load a point set from CSV with header x1,...,xd (one point per row)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expect = [f"x{i + 1}" for i in range(len(header))]
        if [h.strip() for h in header] != expect:
            raise ValueError(f"point CSV header must be {','.join(expect)}")
        rows = [[float(v) for v in row] for row in reader if row]
    return PointSet(np.asarray(rows, dtype=float).reshape(len(rows), len(header)))
