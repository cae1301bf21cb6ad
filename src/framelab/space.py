"""Metric measure spaces over R^d: points, closed balls, point sets, lattices,
and the Lebesgue, counting and atomic measures whose ball masses the density
and localization code compare.

Balls are closed throughout: an atom sitting exactly on the boundary sphere
belongs to the ball.  Point sets test membership by exact floating-point
comparison, lattices in integer coordinates by one rule (see Lattice), which
thinned lattices (ThinnedLattice) follow too.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ball",
    "PointSet",
    "Lattice",
    "ThinnedLattice",
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

    def contains(self, b: Ball, points) -> np.ndarray:
        return b.contains(points)

    def points_in_ball(self, b: Ball) -> np.ndarray:
        return self.points[b.contains(self.points)]

    def count_in_balls(self, centers, radius) -> np.ndarray:
        """Points in each ball B(center, radius), radius scalar or per centre: one Ball.contains scan per ball."""
        radii = np.broadcast_to(np.asarray(radius, dtype=float), len(centers))
        counts = [np.count_nonzero(Ball(c, float(r)).contains(self.points)) for c, r in zip(centers, radii)]
        return np.array(counts, dtype=np.int64)


def _step(rem, k, c):
    """The lattice membership rule's one arithmetic step: the remainder left after axis k."""
    return rem - (k - c) ** 2


def _runs(c: np.ndarray, rem: np.ndarray):
    """Runs [lo, hi] (empty: hi = lo - 1) of the integers k with _step(rem, k, c) >= 0.

    The sqrt endpoints are only a guess, corrected by one against _step itself.
    """
    s = np.sqrt(np.maximum(rem, 0.0))
    lo, hi = np.ceil(c - s), np.floor(c + s)
    lo = np.where(_step(rem, lo - 1, c) >= 0, lo - 1, np.where(_step(rem, lo, c) >= 0, lo, lo + 1))
    hi = np.where(_step(rem, hi + 1, c) >= 0, hi + 1, np.where(_step(rem, hi, c) >= 0, hi, hi - 1))
    return lo, np.maximum(hi, lo - 1)


def _expand(lo: np.ndarray, hi: np.ndarray):
    """Unroll runs: (index of the run, integer value) for every member, runs in order."""
    n = (hi - lo + 1).astype(np.int64)
    run = np.repeat(np.arange(len(n)), n)
    return run, lo[run] + (np.arange(len(run)) - np.repeat(np.cumsum(n) - n, n))


class Lattice:
    """Scaled integer lattice alpha * Z^d with closed-form ball enumeration.

    Membership: with k = x / alpha and c' = c / alpha, x lies in B(c, r) iff
    (r / alpha)^2 - sum_j (k_j - c'_j)^2, subtracted by _step in axis order,
    stays >= 0; counts and enumerations walk the same remainders.
    """

    def __init__(self, scale: float, dim: int):
        if scale <= 0:
            raise ValueError("lattice scale must be positive")
        if dim < 1:
            raise ValueError("lattice dimension must be >= 1")
        self.scale = float(scale)
        self.dim = int(dim)

    def _scaled(self, centers, radius):
        """Centres (n, d) and squared radius (scalar or per centre: the same bits) in integer coordinates."""
        c = np.asarray(centers, dtype=float)
        if c.ndim != 2 or c.shape[1] != self.dim:
            raise ValueError("ball dimension does not match lattice dimension")
        r = np.asarray(radius, dtype=float) / self.scale
        return c / self.scale, r * r

    def contains(self, b: Ball, points) -> np.ndarray:
        """Closed-ball membership of an (m, d) array of lattice points."""
        (c,), rem = self._scaled(b.center[None], b.radius)
        k = np.rint(np.atleast_2d(np.asarray(points, dtype=float)) / self.scale)
        for j in range(self.dim):
            rem = _step(rem, k[:, j], c[j])
        return rem >= 0

    def _ball_runs(self, centers, radius):
        """(owner, k, lo, hi) for the balls B(centers[i], radius[i]) (or one radius for all), all walked at once.

        The points of ball owner[i] are k[i] x [lo[i], hi[i]] (integer
        coordinates), lexicographically within each ball; each centre takes
        the arithmetic one ball alone would.
        """
        c, r2 = self._scaled(centers, radius)
        owner, k, rem = np.arange(len(c)), np.zeros((len(c), 0)), np.full(len(c), r2)
        for j in range(self.dim - 1):
            run, kj = _expand(*_runs(c[owner, j], rem))
            owner, k = owner[run], np.column_stack([k[run], kj])
            rem = _step(rem[run], kj, c[owner, j])
        lo, hi = _runs(c[owner, -1], rem)
        return owner, k, lo, hi

    def count_in_balls(self, centers, radius) -> np.ndarray:
        """Lattice points in each ball B(center, radius), radius scalar or per centre; the last axis is not walked."""
        owner, _, lo, hi = self._ball_runs(centers, radius)
        return np.bincount(owner, weights=hi - lo + 1, minlength=len(centers)).astype(np.int64)

    def points_in_ball(self, b: Ball) -> np.ndarray:
        """Enumerate lattice points in the closed ball as an (m, d) array."""
        _, k, lo, hi = self._ball_runs(b.center[None], b.radius)
        run, last = _expand(lo, hi)
        return np.column_stack([k[run], last]) * self.scale


class ThinnedLattice(Lattice):
    """alpha * Z^d without the points whose integer coordinates are all even (drop-even-even).

    The even points are 2 alpha * Z^d, and halving every scaled quantity is
    exact, so Lattice(2 alpha) decides them by the same bits: a count is the
    plain lattice's minus 2 alpha * Z^d's, and membership and enumeration
    are the lattice rule with the even points dropped.
    """

    def _odd(self, points) -> np.ndarray:
        k = np.rint(np.atleast_2d(np.asarray(points, dtype=float)) / self.scale)
        return ~np.all(k % 2 == 0, axis=1)

    def contains(self, b: Ball, points) -> np.ndarray:
        return super().contains(b, points) & self._odd(points)

    def count_in_balls(self, centers, radius) -> np.ndarray:
        even = Lattice(2.0 * self.scale, self.dim)
        return super().count_in_balls(centers, radius) - even.count_in_balls(centers, radius)

    def points_in_ball(self, b: Ball) -> np.ndarray:
        pts = super().points_in_ball(b)
        return pts[self._odd(pts)]


@dataclass
class LebesgueMeasure:
    """Lebesgue measure on R^d; ball masses are the closed-form volume."""

    dim: int
    is_discrete = False

    def ball_mass(self, b: Ball) -> float:
        if b.dim != self.dim:
            raise ValueError("ball dimension does not match measure dimension")
        return ball_volume(self.dim, b.radius)

    def ball_masses(self, centers, r) -> np.ndarray:
        """The mass does not depend on the centre: ball_mass of the ball at the origin, once per distinct radius."""
        centers = np.asarray(centers, dtype=float)
        radii, back = np.unique(np.broadcast_to(np.asarray(r, dtype=float), len(centers)), return_inverse=True)
        origin = np.zeros(centers.shape[-1])
        return np.array([self.ball_mass(Ball(origin, float(x))) for x in radii])[back]


class CountingMeasure:
    """Counting measure of a PointSet or Lattice: every ball mass is its support's count_in_balls."""

    is_discrete = True

    def __init__(self, support: PointSet | Lattice):
        if not isinstance(support, (PointSet, Lattice)):
            raise ValueError("counting measure needs a PointSet or Lattice support")
        self.support = support

    @property
    def dim(self) -> int:
        return self.support.dim

    def ball_mass(self, b: Ball) -> float:
        return float(self.ball_masses(b.center[None], b.radius)[0])

    def ball_masses(self, centers, r) -> np.ndarray:
        """Masses of the balls B(center, r), one per row of centers; r is a scalar or one radius per row."""
        return self.support.count_in_balls(centers, r).astype(float)

    def atoms_in_ball(self, b: Ball) -> tuple[np.ndarray, np.ndarray]:
        pts = self.support.points_in_ball(b)
        return pts, np.ones(len(pts))

    def contains(self, b: Ball, atoms) -> np.ndarray:
        """Membership of this measure's atoms in b, by its support's rule."""
        return self.support.contains(b, atoms)


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
        try:
            math.fsum(w.tolist())  # raises exactly when the total is no finite float
        except OverflowError:
            raise ValueError("atomic weights must have a finite total") from None
        self.weights = w

    @property
    def dim(self) -> int:
        return self.point_set.dim

    @property
    def points(self) -> np.ndarray:
        return self.point_set.points

    def ball_mass(self, b: Ball) -> float:
        inside = b.contains(self.points)
        return math.fsum(self.weights[inside].tolist())

    def ball_masses(self, centers, r) -> np.ndarray:
        """ball_mass of each ball B(center, r), one per row of centers; r is a scalar or one radius per row."""
        radii = np.broadcast_to(np.asarray(r, dtype=float), len(centers))
        return np.array([self.ball_mass(Ball(a, float(x))) for a, x in zip(centers, radii)], dtype=float)

    def atoms_in_ball(self, b: Ball) -> tuple[np.ndarray, np.ndarray]:
        inside = b.contains(self.points)
        return self.points[inside], self.weights[inside]

    def contains(self, b: Ball, atoms) -> np.ndarray:
        return b.contains(atoms)


def load_point_set_csv(path) -> PointSet:
    """Load a point set from CSV with header x1,...,xd (one point per row, at least one row)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        expect = [f"x{i + 1}" for i in range(max(len(header), 1))]
        if [h.strip() for h in header] != expect:
            raise ValueError(f"point CSV header must be {','.join(expect)}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError("point CSV holds no points")
    return PointSet(np.asarray(rows, dtype=float).reshape(len(rows), len(header)))
