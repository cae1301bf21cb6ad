"""Deterministic Lebesgue quadrature of real fields over balls, shells and ball complements in R^d (d <= 2).

One grid engine, ``integrate_shell``, integrates a real field over a shell
r_in < |x - c| <= r_out (r_in = 0 is the closed ball) on the line
(Paley-Wiener localization) or the plane (``tail_sup``, the Gaussian tail
law that checks the grid); ``integrate_ball`` wraps it.  Cells have spacing
h and are anchored at the center.  Every interior cell gets a
2-point-per-axis Gauss-Legendre tensor rule, which the Gaussian tail law
needs for 1e-4 relative accuracy at h = 0.02.

In d = 1 cells are clipped exactly to the shell.  In d = 2 cells that
straddle either sphere are split into _BOUNDARY_REFINE^2 subcells, and each
subcell is classified by its nearest and farthest distance from the centre:
one wholly inside the shell weighs exactly its area (h / _BOUNDARY_REFINE)^2,
one wholly outside is dropped, and only a cut subcell is weighted by the exact
closed-form cell/disk intersection area.  That area is a difference of
antiderivatives of size ~r^2, whose cancellation would otherwise leave noise
of ~r^2 * eps on whole subcells, positive weight on some outside ones
included.

A d = 2 grid does not depend on the centre, so it is built once as a
read-only template (``_shell_template``: interior cell offsets, rule shifts,
kept straddle-subcell offsets and weights) and kept in an LRU cache of two,
which covers the two balls of a complement.  Each call translates it by the
centre with the float operations ``(offset + center)`` then
``shift + cell``, in chunks of at most ``_EVAL_CHUNK`` nodes written into one
reused buffer; interior chunks carry the scalar weight h^d / len(shifts).
The field is evaluated on these chunks, so no whole node array is ever held.
The d = 1 grid depends on the centre through its clipping and is built per
call.

Each evaluation chunk is added, as it is produced, into an exact
per-exponent binned sum (``summation.ExactSum``).  The value is the
correctly rounded sum of all node terms, whatever their order or chunking.

``integrate_complement`` stays the difference of two ball integrals over the
same grid rather than one shell pass.  A shell pass would give the cells
straddling the inner sphere a different rule than the big ball gives them,
so the partition identity ball + complement = truncated ball would no
longer hold to rounding.  The inner ball is also a small share of the work.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .space import Ball
from .summation import ExactSum

__all__ = ["QuadConfig", "IntegralResult", "integrate_ball", "integrate_complement", "integrate_shell"]

_RULE = np.array([-0.5, 0.5]) / math.sqrt(3.0)  # 2-point Gauss nodes per axis, in cell widths
_EVAL_CHUNK = 1 << 16  # integrand evaluations per call
_BOUNDARY_REFINE = 8  # per-axis subdivision of d = 2 cells that straddle a sphere


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature parameters.

    truncation_radius, when set, is the absolute cutoff radius for
    complement integrals; otherwise ball radius + truncation_margin is used.
    """

    h: float = 0.02
    truncation_radius: float | None = None
    truncation_margin: float = 6.0

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("spacing h must be positive")
        if self.truncation_radius is not None and self.truncation_radius <= 0:
            raise ValueError("truncation radius must be positive")

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


def _interval_nodes(center: np.ndarray, r_in: float, r_out: float, h: float):
    """d = 1 nodes and weights, cells clipped exactly to the two intervals of the shell."""
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
    pts = mids[None, :] + _RULE[:, None] * widths[None, :]
    return pts.reshape(-1, 1), np.tile(widths / len(_RULE), len(_RULE))


class _ShellTemplate(NamedTuple):
    """Centre-free d = 2 shell grid; every array is read-only.

    cells: interior cell centres relative to the shell centre; shifts: the
    interior rule's node offsets within a cell; sub_off, sub_w: centres
    (relative to the shell centre) and weights of the kept straddle subcells.
    """

    cells: np.ndarray
    shifts: np.ndarray
    sub_off: np.ndarray
    sub_w: np.ndarray

    @property
    def size(self) -> int:
        return len(self.shifts) * len(self.cells) + len(self.sub_w)


@functools.lru_cache(maxsize=2)  # a complement is two balls
def _shell_template(d: int, r_in: float, r_out: float, h: float, bk: int) -> _ShellTemplate:
    n = int(math.ceil(r_out / h)) + 2
    offsets = _cell_offsets((np.arange(-n, n) + 0.5) * h, d)
    dist = np.sqrt(np.einsum("ij,ij->i", offsets, offsets))
    half_diag = h * math.sqrt(d) / 2.0
    strad = (np.abs(dist - r_out) < half_diag) | ((np.abs(dist - r_in) < half_diag) & (r_in > 0))
    cells = offsets[(dist > r_in) & (dist <= r_out) & ~strad]

    hs = h / bk
    sub_off = _cell_offsets(((np.arange(bk) + 0.5) / bk - 0.5) * h, d)
    sc = (offsets[strad][:, None, :] + sub_off[None, :, :]).reshape(-1, d)
    del offsets, dist  # the full grid is the largest array; drop it before the subcell areas exist
    lo, hi = sc - hs / 2.0, sc + hs / 2.0
    # squared nearest and farthest distance of each subcell from the centre
    near, far = np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)
    near2, far2 = np.einsum("ij,ij->i", near, near), np.einsum("ij,ij->i", far, far)
    inside = (near2 >= r_in * r_in) & (far2 <= r_out * r_out)
    cut = ~inside & (near2 < r_out * r_out) & (far2 > r_in * r_in)
    sub_w = np.where(inside, hs**d, 0.0)
    lo, hi = lo[cut], hi[cut]
    area = _circle_rect_area(lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1], r_out)
    if r_in > 0:
        area = area - _circle_rect_area(lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1], r_in)
    sub_w[cut] = area
    keep = sub_w > 0
    template = _ShellTemplate(cells, _cell_offsets(_RULE * h, d), sc[keep], sub_w[keep])
    for a in template:
        a.flags.writeable = False
    return template


def _node_chunks(center: np.ndarray, r_in: float, r_out: float, cfg: QuadConfig):
    """(node count, iterator of (points, weights) chunks of <= _EVAL_CHUNK nodes) on a shell.

    In d = 2 the interior nodes come shift-major (every cell for the first
    rule shift, then the next), then the straddle subcells; the points of a
    chunk are a buffer that the next chunk overwrites, and interior chunks
    carry the scalar weight h^d / len(shifts).
    """
    d = center.size
    if d > 2:
        raise ValueError("quadrature supports dimensions d <= 2 only")
    if r_out <= max(r_in, 0.0):
        return 0, iter(())
    if d == 1:
        pts, w = _interval_nodes(center, r_in, r_out, cfg.h)
        chunks = ((pts[i : i + _EVAL_CHUNK], w[i : i + _EVAL_CHUNK]) for i in range(0, len(pts), _EVAL_CHUNK))
        return len(pts), chunks
    t = _shell_template(d, r_in, r_out, cfg.h, _BOUNDARY_REFINE)
    return t.size, _translated_chunks(t, center, cfg.h**d / len(t.shifts))


def _translated_chunks(t: _ShellTemplate, center: np.ndarray, w_int: float):
    m = min(_EVAL_CHUNK, t.size)
    buf = np.empty((m, center.size))
    # whole (m, d) operands: a broadcast (d,) row would run numpy's inner loop d elements at a time
    cen = np.tile(center, (m, 1))
    for shift in t.shifts:
        sh = np.tile(shift, (m, 1))
        for i in range(0, len(t.cells), _EVAL_CHUNK):
            k = min(_EVAL_CHUNK, len(t.cells) - i)
            np.add(t.cells[i : i + k], cen[:k], out=buf[:k])
            np.add(sh[:k], buf[:k], out=buf[:k])
            yield buf[:k], w_int
    for i in range(0, len(t.sub_w), _EVAL_CHUNK):
        k = min(_EVAL_CHUNK, len(t.sub_w) - i)
        np.add(t.sub_off[i : i + k], cen[:k], out=buf[:k])
        yield buf[:k], t.sub_w[i : i + k]


def integrate_shell(f, center, r_in: float, r_out: float, cfg: QuadConfig) -> IntegralResult:
    """Lebesgue integral of f over the shell r_in < |x - center| <= r_out; r_in = 0 is the closed ball.

    f is a vectorized real field mapping an (n, d) array of points to (n,)
    values.  Its argument is a buffer that the next chunk overwrites.
    """
    n, chunks = _node_chunks(np.asarray(center, dtype=float), r_in, r_out, cfg)
    total = ExactSum()
    for p, wc in chunks:
        vals = np.asarray(f(p))
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise ValueError(f"non-finite integrand value at node {p[np.argmax(bad)].tolist()}")
        total.add(vals * wc)
    return IntegralResult(value=total.value, node_count=max(n, 1))


def integrate_ball(f, b: Ball, cfg: QuadConfig) -> IntegralResult:
    """Lebesgue integral of f over the closed ball b (``integrate_shell`` with r_in = 0)."""
    return integrate_shell(f, b.center, 0.0, b.radius, cfg)


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
