"""Deterministic Lebesgue quadrature of real fields over balls, shells and ball complements in R^d (d <= 2).

One grid engine, ``shell_nodes``, yields nodes and weights on a shell
r_in < |x - c| <= r_out (r_in = 0 is the closed ball).  Its cells have
spacing h and are anchored at the center.  Interior cells get one of two
rules, fixed by the caller:

- a 2-point-per-axis Gauss-Legendre tensor rule, used by ``integrate_ball`` and
  ``integrate_complement``, whose Gaussian tail law needs 1e-4 relative
  accuracy at h = 0.02;
- one midpoint node, used by the localization cross terms, where every node
  enters a node x atom sum and extra nodes cost the most.

In d = 1 cells are clipped exactly to the shell.  In d = 2 cells that
straddle either sphere are subdivided and weighted by the exact closed-form
cell/disk intersection area.  Each evaluation chunk is added, as it is
produced, into an exact per-exponent binned sum (``summation.ExactSum``).
The value is the correctly rounded sum of all node terms, whatever their
order or chunking.

Every field the lab integrates is real and lives on the line (Paley-Wiener)
or the plane (Fock, Gabor with n = 1); sums over atoms of a discrete index
measure are taken by ``localization`` itself.

``integrate_complement`` stays the difference of two ball integrals over the
same grid rather than one shell pass.  A shell pass would give the cells
straddling the inner sphere a different rule than the big ball gives them,
so the partition identity ball + complement = truncated ball would no
longer hold to rounding.  The inner ball is also a small share of the work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import Ball
from .summation import ExactSum

__all__ = ["QuadConfig", "IntegralResult", "integrate_ball", "integrate_complement", "shell_nodes"]

_GAUSS_OFFSET = 0.5 / math.sqrt(3.0)  # 2-point Gauss nodes at +- this, in cell units
_EVAL_CHUNK = 1 << 16  # integrand evaluations per call


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature parameters.

    truncation_radius, when set, is the absolute cutoff radius for
    complement integrals; otherwise ball radius + truncation_margin is used.
    boundary_refine is the per-axis subdivision of cells that straddle a
    sphere.
    """

    h: float = 0.02
    truncation_radius: float | None = None
    truncation_margin: float = 6.0
    boundary_refine: int = 8

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("spacing h must be positive")
        if self.truncation_radius is not None and self.truncation_radius <= 0:
            raise ValueError("truncation radius must be positive")
        if self.boundary_refine < 1:
            raise ValueError("boundary_refine must be >= 1")

    def effective_truncation(self, ball_radius: float) -> float:
        if self.truncation_radius is not None:
            return self.truncation_radius
        return ball_radius + self.truncation_margin


@dataclass(frozen=True)
class IntegralResult:
    value: float
    node_count: int


def _circle_rect_area(x1, x2, y1, y2, r: float) -> np.ndarray:
    """Exact area of the disk x^2 + y^2 <= r^2 inside [x1,x2] x [y1,y2]."""

    def antider(t):
        t = np.clip(t, -r, r)
        return 0.5 * (t * np.sqrt(np.maximum(r * r - t * t, 0.0)) + r * r * np.arcsin(np.clip(t / r, -1.0, 1.0)))

    def corner(x, y):
        # area of the disk inside [0,x] x [0,y] for x, y >= 0
        x = np.minimum(x, r)
        x0 = np.where(y >= r, 0.0, np.sqrt(np.maximum(r * r - y * y, 0.0)))
        flat = np.minimum(x, x0) * y
        return flat + antider(np.maximum(x, x0)) - antider(x0)

    def signed(x, y):
        return np.sign(x) * np.sign(y) * corner(np.abs(x), np.abs(y))

    return signed(x2, y2) - signed(x1, y2) - signed(x2, y1) + signed(x1, y1)


def _cell_offsets(axis: np.ndarray, d: int) -> np.ndarray:
    """Tensor product of one axis with itself, as an (len(axis)**d, d) array."""
    return np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)


def shell_nodes(center: np.ndarray, r_in: float, r_out: float, cfg: QuadConfig, gauss: bool):
    """Nodes and weights on the shell r_in < |x - center| <= r_out; r_in = 0 is the closed ball.

    Cells of side cfg.h are anchored at the center.  Interior cells carry a
    2-point-per-axis Gauss rule when gauss is set, one midpoint node
    otherwise.  In d = 1 cells are clipped exactly to the shell; in d = 2
    cells straddling either sphere are split into boundary_refine**2
    subcells with exact partial areas; subcells whose area comes out <= 0
    are dropped.
    Returns (points (n, d), weights (n,)).
    """
    d = center.size
    h = cfg.h
    if d > 2:
        raise ValueError("quadrature supports dimensions d <= 2 only")
    if r_out <= max(r_in, 0.0):
        return np.zeros((0, d)), np.zeros(0)
    # interior node positions along each axis, in units of the cell width
    rule = np.array([-_GAUSS_OFFSET, _GAUSS_OFFSET] if gauss else [0.0])
    if d == 1:
        c = float(center[0])
        n = int(math.ceil(r_out / h)) + 1
        k = np.arange(-n, n)
        starts, widths = [], []
        for lo, hi in ((c - r_out, c - r_in), (c + r_in, c + r_out)):
            a = np.maximum(c + k * h, lo)
            w = np.minimum(c + (k + 1) * h, hi) - a
            starts.append(a[w > 0])
            widths.append(w[w > 0])
        starts, widths = np.concatenate(starts), np.concatenate(widths)
        mids = starts + widths / 2.0
        pts = mids[None, :] + rule[:, None] * widths[None, :]
        return pts.reshape(-1, 1), np.tile(widths / len(rule), len(rule))

    n = int(math.ceil(r_out / h)) + 2
    offsets = _cell_offsets((np.arange(-n, n) + 0.5) * h, d)
    dist = np.sqrt(np.einsum("ij,ij->i", offsets, offsets))
    half_diag = h * math.sqrt(d) / 2.0
    strad = (np.abs(dist - r_out) < half_diag) | ((np.abs(dist - r_in) < half_diag) & (r_in > 0))
    cells = offsets[(dist > r_in) & (dist <= r_out) & ~strad] + center[None, :]

    bk = cfg.boundary_refine
    hs = h / bk
    sub_off = _cell_offsets(((np.arange(bk) + 0.5) / bk - 0.5) * h, d)
    sc = (offsets[strad][:, None, :] + sub_off[None, :, :]).reshape(-1, d)
    del offsets, dist  # the full grid is the largest array; drop it before the nodes exist
    lo, hi = sc - hs / 2.0, sc + hs / 2.0
    sub_w = _circle_rect_area(lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1], r_out)
    if r_in > 0:
        sub_w = sub_w - _circle_rect_area(lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1], r_in)
    keep = sub_w > 0

    # interior nodes are written straight into the output
    shifts = _cell_offsets(rule * h, d)
    n_int = len(shifts) * len(cells)
    pts = np.empty((n_int + int(np.count_nonzero(keep)), d))
    np.add(shifts[:, None, :], cells[None, :, :], out=pts[:n_int].reshape(len(shifts), len(cells), d))
    pts[n_int:] = sc[keep] + center[None, :]
    w = np.empty(len(pts))
    w[:n_int] = h**d / len(shifts)
    w[n_int:] = sub_w[keep]
    return pts, w


def integrate_ball(f, b: Ball, cfg: QuadConfig) -> IntegralResult:
    """Lebesgue integral of f over the closed ball b.

    f is a vectorized real field mapping an (n, d) array of points to (n,)
    values.
    """
    pts, w = shell_nodes(b.center, 0.0, b.radius, cfg, gauss=True)
    total = ExactSum()
    # chunked so the integrand's temporaries stay small next to the node arrays
    for i in range(0, len(pts), _EVAL_CHUNK):
        p = pts[i : i + _EVAL_CHUNK]
        vals = np.asarray(f(p))
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise ValueError(f"non-finite integrand value at node {p[np.argmax(bad)].tolist()}")
        total.add(vals * w[i : i + _EVAL_CHUNK])
    return IntegralResult(value=total.value, node_count=max(len(pts), 1))


def integrate_complement(f, b: Ball, cfg: QuadConfig) -> IntegralResult:
    """Lebesgue integral of f over B(center, R_tr) \\ b.

    Evaluated as the difference of two ball integrals on the same grid, so
    that integrate_ball(b) + integrate_complement(b) reproduces the truncated
    ball integral to rounding.  What lies beyond R_tr is the caller's bound.
    """
    r_tr = cfg.effective_truncation(b.radius)
    if r_tr < b.radius:
        raise ValueError("truncation radius is smaller than the ball radius")
    big = integrate_ball(f, Ball(b.center, r_tr), cfg)
    small = integrate_ball(f, b, cfg)
    return IntegralResult(value=big.value - small.value, node_count=big.node_count + small.node_count)
