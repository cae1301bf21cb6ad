"""Deterministic Lebesgue quadrature of real fields over intervals, shells and complements on the line.

One grid engine, ``integrate_shell``, integrates a real field over a shell
r_in < |x - c| <= r_out (r_in = 0 is the closed ball) in d = 1, where the
Paley-Wiener localization terms live; ``integrate_ball`` wraps it.  Every
other dimension raises ``ValueError``: the Gaussian (Fock, Gabor n = 1)
terms of the plane are radial integrals in ``framelab.localization``.
Cells have spacing h, are anchored at the centre and are clipped exactly
to the shell; every cell gets a 2-point Gauss-Legendre rule.

The field is evaluated in chunks of at most ``_EVAL_CHUNK`` nodes, and
each chunk is added, as it is produced, into an exact per-exponent binned
sum (``summation.ExactSum``).  The value is the correctly rounded sum of
all node terms, whatever their order or chunking.

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

__all__ = ["QuadConfig", "IntegralResult", "integrate_ball", "integrate_complement", "integrate_shell"]

_RULE = np.array([-0.5, 0.5]) / math.sqrt(3.0)  # 2-point Gauss nodes, in cell widths
_EVAL_CHUNK = 1 << 16  # integrand evaluations per call


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


def _node_chunks(center: np.ndarray, r_in: float, r_out: float, cfg: QuadConfig):
    """(node count, iterator of (points, weights) chunks of <= _EVAL_CHUNK nodes) on a shell of the line."""
    if center.size != 1:
        raise ValueError(f"quadrature integrates on the line (d = 1) only, got d = {center.size}")
    if r_out <= max(r_in, 0.0):
        return 0, iter(())
    pts, w = _interval_nodes(center, r_in, r_out, cfg.h)
    chunks = ((pts[i : i + _EVAL_CHUNK], w[i : i + _EVAL_CHUNK]) for i in range(0, len(pts), _EVAL_CHUNK))
    return len(pts), chunks


def integrate_shell(f, center, r_in: float, r_out: float, cfg: QuadConfig) -> IntegralResult:
    """Lebesgue integral of f over the shell r_in < |x - center| <= r_out; r_in = 0 is the closed ball.

    f is a vectorized real field mapping an (n, 1) array of points to (n,)
    values.  An empty shell has no nodes and the value 0.
    """
    n, chunks = _node_chunks(np.asarray(center, dtype=float), r_in, r_out, cfg)
    total = ExactSum()
    for p, wc in chunks:
        vals = np.asarray(f(p))
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise ValueError(f"non-finite integrand value at node {p[np.argmax(bad)].tolist()}")
        total.add(vals * wc)
    return IntegralResult(value=total.value, node_count=n)


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
