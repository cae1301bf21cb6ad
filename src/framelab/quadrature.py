"""Deterministic Lebesgue quadrature of real fields over intervals and their complements on the line.

One private pass, ``_integrate``, integrates a real field over the shell
r_in < |x - c| <= r_out in d = 1: ``integrate_ball`` is the pass over
[0, r], and ``integrate_complement`` the pass over (r, R_tr].  No term, no
tail and no CLI command reaches the grid: each is a closed form in
``framelab.localization``, where only ``tail_sup`` reads ``QuadConfig``.  The
passes and ``QuadConfig.h`` stay for the benchmark harness, whose tracer binds
them and whose ``tail-law`` sets h.  Every other dimension raises ``ValueError``.  Cells have spacing h, are
anchored at the centre and are clipped exactly to the shell; every cell
gets a 2-point Gauss-Legendre rule.  The field is evaluated once on all
nodes, and the value is the correctly rounded sum of its terms (``math.fsum``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import Ball

__all__ = ["QuadConfig", "IntegralResult", "integrate_ball", "integrate_complement"]

_RULE = np.array([-0.5, 0.5]) / math.sqrt(3.0)  # 2-point Gauss nodes, in cell widths


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature parameters.

    truncation_radius, when set, is the absolute cutoff radius for
    complement integrals; otherwise ball radius + truncation_margin is used.
    h, truncation_radius (when set) and truncation_margin must be positive
    and finite.  ``effective_truncation`` is the one check that this window
    reaches the ball's sphere.  Only the grid passes, which nothing in framelab calls, read h.
    """

    h: float = 0.02
    truncation_radius: float | None = None
    truncation_margin: float = 6.0

    def __post_init__(self):
        for name in ("h", "truncation_radius", "truncation_margin"):
            value = getattr(self, name)
            if not (value is None and name == "truncation_radius" or 0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def effective_truncation(self, ball_radius: float) -> float:
        r_tr = ball_radius + self.truncation_margin if self.truncation_radius is None else self.truncation_radius
        if r_tr < ball_radius:
            raise ValueError("truncation radius is smaller than the ball radius")
        return r_tr


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


def _integrate(f, center: np.ndarray, r_in: float, r_out: float, cfg: QuadConfig) -> IntegralResult:
    """Lebesgue integral of f over the shell r_in < |x - center| <= r_out; r_in = 0 is the closed ball.

    f is a vectorized real field mapping an (n, 1) array of points to (n,)
    values.  An empty shell (r_out = r_in) has no nodes and the value 0.
    """
    if center.size != 1:
        raise ValueError(f"quadrature integrates on the line (d = 1) only, got d = {center.size}")
    pts, w = _interval_nodes(center, r_in, r_out, cfg.h)
    vals = np.asarray(f(pts))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise ValueError(f"non-finite integrand value at node {pts[np.argmax(bad)].tolist()}")
    return IntegralResult(value=math.fsum((vals * w).tolist()), node_count=len(pts))


def integrate_ball(f, b: Ball, cfg: QuadConfig) -> IntegralResult:
    """Lebesgue integral of f over the closed ball b."""
    return _integrate(f, b.center, 0.0, b.radius, cfg)


def integrate_complement(f, b: Ball, cfg: QuadConfig) -> IntegralResult:
    """Lebesgue integral of f over B(center, R_tr) \\ b, one pass over R_tr >= |x - center| > radius.

    What lies beyond R_tr is the caller's bound.
    """
    return _integrate(f, b.center, b.radius, cfg.effective_truncation(b.radius), cfg)
