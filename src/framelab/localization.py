"""Numerical evaluation of the localization hypotheses.

All operations reduce to double integrals of |<f_x, g_y>|^2 over B x B^c
split between two index measures, for kernels in d <= 2 (Paley-Wiener,
Fock, Gabor with n = 1).  A family's kernel point is its index point plus
its offset, so a pair's kernel distance is within |Delta| =
|f_offset - g_offset| of its index distance.
A Fock or Gabor pair more than c = sqrt(ln(1e14) / pi) ~ 3.20 (``_cutoff``;
none for Paley-Wiener) apart in kernel coordinates has a term below 1e-14
times its two weights, so only atoms within c + |Delta| of the sphere enter
a sum; the truncation bound adds 1e-14 f(B_tr) g(B_tr) for each of t1 and
t2 to cover the rest.

- Fock and Gabor, a Lebesgue side against a discrete one:
  |<k_x, k_y>|^2 = e^{-pi |x - y|^2}, so the Lebesgue side against one atom
  is the mass of a unit Gaussian inside or outside a disk, the noncentral
  chi-square CDF with 2 degrees of freedom, one minus Marcum's Q_1 (Marcum,
  IRE Trans. Inf. Theory 6, 1960): ``_disk_mass``, a 1-d rule over the
  Gaussian's radial density with no grid error.  Its Bessel factor
  e^{-x} I_0(x) (``_scaled_i0``) is the 64-point periodic trapezoid rule on
  its 33 distinct nodes up to x = 50, the asymptotic series beyond.
- Paley-Wiener (c = inf), a Lebesgue side against a discrete one: an atom's
  term over B, or over B(R_tr) \\ B, is a difference of the closed form
  F(t) = (Si(2bt) - sin^2(bt)/(bt)) / b of ``_sinc2_integral``.  Tabulated
  kernels integrate the atom field with ``integrate_ball`` or ``integrate_complement``.
- Two discrete sides: an exact atom x atom sum.
- Two Lebesgue sides: |<k_x, k_y>|^2 integrates to 1 / mode_density over
  all x (reproducing formula), so a double tail is |B| / mode_density minus
  the kernel's integral against the closed-form lens area |B ∩ (B + z)|:
  for Fock and Gabor the same radial rule (``_lens_overlap``), for
  Paley-Wiener one ``integrate_ball``.
- The tail supremum ``tail_sup`` (the acceptance tail law): for Fock and
  Gabor two outside disk masses from one ``_disk_mass`` call, for Paley-Wiener
  2 (F(R_tr) - F(R)), for other kernels ``integrate_complement`` on the line.

A row walks each discrete side once over the window B(c, R_tr) and takes
every atom set and mass from that walk.  The truncation bound does not cover
the grid error of the Paley-Wiener Lebesgue x Lebesgue overlap on the line.

``double_tail`` returns (t1, t2); ``localization_defect`` returns one report
row, a dict under the keys of ``verify.LOCALIZATION_CSV``, which reports,
CSVs and the CLI take as it is.

v1 restricts to self-dual (Parseval normalized) families: every in-scope
pair enters only through |<f_x, g_y>|^2, which needs no dual.  General dual
pairings in infinite dimensions have no computable handle here; the exact
finite-dimensional case lives in finframe instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial.polynomial import polyval

from .kernels import FockKernel, GaborGaussianKernel, PaleyWienerKernel
from .quadrature import QuadConfig, integrate_ball, integrate_complement
from .space import Ball, LebesgueMeasure, as_point, ball_volume

__all__ = [
    "FramePairSpec",
    "tail_sup",
    "double_tail",
    "localization_defect",
]

_PRUNE_EPS = 1e-14
_NODE_CHUNK = 8192
_CUTOFF = math.sqrt(-math.log(_PRUNE_EPS) / math.pi)  # e^{-pi c^2} = _PRUNE_EPS: c ~ 3.20
_DISK_SPAN = 1.5 * _CUTOFF  # e^{-pi span^2} = 1e-31.5
# the radial integrals' 64-node Gauss-Legendre rule on [0, 1]; numpy's own weights are
# off by up to ~1e-12 relative, so they are recomputed from P_64' at its nodes
_GL_X = legendre.leggauss(64)[0]
_GL_U = (_GL_X + 1.0) / 2.0
_GL_W = 1.0 / ((1.0 - _GL_X**2) * legendre.legval(_GL_X, legendre.legder(np.eye(65)[64])) ** 2)
# e^{-x} I_0(x) = (1/pi) integral_0^pi e^{-2x sin^2(t/2)} dt: the 64-point trapezoid rule of the
# periodic integrand, folded onto its 33 distinct nodes t_j = pi j / 32 (weights 1/64 at the two
# ends, 2/64 between, summing to exactly 1), up to _I0_SPLIT; the asymptotic series beyond
_I0_SPLIT = 50.0
_I0_C = np.array([2.0 * math.sin(math.pi * j / 64) ** 2 for j in range(33)])
_I0_W = np.array([1.0 if j in (0, 32) else 2.0 for j in range(33)]) / 64.0
_SI_SPLIT = 40.0  # Si: the 64-node rule up to here, the asymptotic series beyond
_SI_TERMS = 22
_SI_F = np.array([(-1) ** k * math.factorial(2 * k) for k in range(_SI_TERMS)], dtype=float)
_SI_G = np.array([(-1) ** k * math.factorial(2 * k + 1) for k in range(_SI_TERMS)], dtype=float)


def _mod2_cross(kernel, X, Y) -> np.ndarray:
    """|<k_x, k_y>|^2 as an (n, m) array, avoiding complex phases when possible."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if isinstance(kernel, (FockKernel, GaborGaussianKernel)):
        # |x-y|^2 via the quadratic expansion: one BLAS product instead of an
        # (n, m, d) temporary; clamp the cancellation residue at zero
        x2 = np.einsum("ij,ij->i", X, X)
        y2 = np.einsum("ij,ij->i", Y, Y)
        d2 = x2[:, None] + y2[None, :] - 2.0 * (X @ Y.T)
        np.maximum(d2, 0.0, out=d2)
        return np.exp(-math.pi * d2)
    if isinstance(kernel, PaleyWienerKernel):
        t = X[:, 0][:, None] - Y[:, 0][None, :]
        return np.sinc(kernel.band * t / math.pi) ** 2
    return np.abs(kernel.normalized_cross(X, Y)) ** 2


def _cutoff(kernel) -> float:
    """Distance beyond which |<k_x, k_y>|^2 < _PRUNE_EPS: _CUTOFF for Fock and Gabor, none (inf) for the rest."""
    return _CUTOFF if isinstance(kernel, (FockKernel, GaborGaussianKernel)) else math.inf


def _tail_mass(kernel, gap: float) -> float:
    """Bound on the mass of |<k_x, k_y>|^2 over |x - y| > gap: Fock, Gabor e^{-pi gap^2}; PW 2/(b^2 gap); else inf."""
    if isinstance(kernel, (FockKernel, GaborGaussianKernel)):
        return math.exp(-math.pi * gap * gap)
    if isinstance(kernel, PaleyWienerKernel) and gap > 0:
        return 2.0 / (kernel.band * kernel.band * gap)
    return math.inf


def _scaled_i0(x: np.ndarray) -> np.ndarray:
    """e^{-x} I_0(x) for x >= 0, elementwise, each entry on its own.

    x <= _I0_SPLIT: the periodic trapezoid rule, sum_j W_j e^{-x C_j} (~4e-16
    relative).  Beyond: the asymptotic series
    sum_k ((2k-1)!!)^2 / (k! (8x)^k) / sqrt(2 pi x), 13 terms (the 14th < 1e-18).
    Each branch runs on its own entries only, picked by a mask; with no entry
    above the split the series is skipped.
    """
    out = np.empty_like(x)
    small = x <= _I0_SPLIT
    out[small] = (np.exp(-np.multiply.outer(x[small], _I0_C)) * _I0_W).sum(axis=1)
    if not small.all():
        big = x[~small]
        term = total = np.ones_like(big)
        for k in range(1, 14):
            term = term * ((2 * k - 1) ** 2 / (8.0 * k)) / big
            total = total + term
        out[~small] = total / np.sqrt(2.0 * math.pi * big)
    return out


def _radial_density(s, d) -> np.ndarray:
    """Radial density 2 pi rho e^{-pi d^2} e^{-x} I_0(x), x = 2 pi rho s, of e^{-pi |x - p|^2}, |p| = s, at rho = s + d.

    Smooth for every s >= 0; d = rho - s spares the Gaussian a rounding of size s eps.
    """
    rho = s + d
    return 2.0 * math.pi * rho * np.exp(-math.pi * d * d) * _scaled_i0(2.0 * math.pi * rho * s)


def _disk_mass(s, r, inside: bool) -> np.ndarray:
    """Mass of the unit Gaussian e^{-pi |x - p|^2} inside (or outside) the disk B(0, r), |p| = s.

    Inside integrates the radial density over [0, r], outside over
    [r, inf), each by the 64-node rule on the part within _DISK_SPAN of s,
    in d = rho - s.  Good to ~3e-16 absolute against 30-digit quadrature.
    r is one radius, giving one mass per entry of s, or several, giving a
    row of masses per entry of s, one per radius.
    The rule runs once per distinct distance (a lattice's atoms take few), and
    each (distance, radius) row's 64 terms are summed on their own, never by a
    matrix product whose rounding depends on the row's place in the batch: an
    entry's mass is the same bits whatever else the call holds.
    """
    s, back = np.unique(np.asarray(s, dtype=float), return_inverse=True)
    r = np.asarray(r, dtype=float)
    s = s.reshape((-1,) + (1,) * r.ndim)
    lo = np.maximum(-_DISK_SPAN, -s if inside else r - s)
    hi = np.maximum(lo, np.minimum(_DISK_SPAN, r - s) if inside else _DISK_SPAN)
    d = lo[..., None] + (hi - lo)[..., None] * _GL_U
    return ((hi - lo) * (_radial_density(s[..., None], d) * _GL_W).sum(axis=-1))[back]


def _lens_overlap(s: float, r: float) -> float:
    """integral over z in R^2 of e^{-pi |z - p|^2} A(|z|) dz, |p| = s, A(rho) = |B(0, r) ∩ B(z, r)|.

    The radial density against A, zero beyond 2r, on the part within
    _DISK_SPAN of s.  A ~ (2r - rho)^{3/2} would cost a rule in rho accuracy
    (~4e-10 at r <= 1); in theta, rho = 2r sin(theta), A is smooth up to 2r.
    """
    lo, hi = (math.asin(min(2.0 * r, max(0.0, x)) / (2.0 * r)) for x in (s - _DISK_SPAN, s + _DISK_SPAN))
    theta = lo + (hi - lo) * _GL_U
    sin, cos = np.sin(theta), np.cos(theta)
    lens = 2.0 * r * r * (0.5 * math.pi - theta - sin * cos)
    return (hi - lo) * float((_radial_density(s, 2.0 * r * sin - s) * lens * (2.0 * r * cos)) @ _GL_W)


def _si(x) -> np.ndarray:
    """The sine integral Si(x) = integral_0^x sin(t) / t dt, elementwise and odd, each entry on its own.

    |x| <= _SI_SPLIT: the 64-node rule on [0, x], sum_i W_i sin(x U_i) / U_i.
    Beyond: pi/2 - f(x) cos x - g(x) sin x with the auxiliary asymptotic
    series f ~ sum_k (-1)^k (2k)! / x^(2k+1), g ~ sum_k (-1)^k (2k+1)! / x^(2k+2),
    _SI_TERMS terms each (the last adds ~2e-18 at x = 40).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) <= _SI_SPLIT
    out[small] = (np.sin(x[small][:, None] * _GL_U) / _GL_U * _GL_W).sum(axis=1)
    big = np.abs(x[~small])
    inv2 = 1.0 / (big * big)
    tail = polyval(inv2, _SI_F) / big * np.cos(big) + polyval(inv2, _SI_G) * inv2 * np.sin(big)
    out[~small] = np.copysign(0.5 * math.pi - tail, x[~small])
    return out


def _sinc2_integral(band: float, t) -> np.ndarray:
    """F(t) = integral_0^t sinc^2(band u) du = (Si(2 band t) - sin^2(band t) / (band t)) / band, sinc(y) = sin(y)/y."""
    x = band * np.asarray(t, dtype=float)
    sin = np.sin(x)
    return (_si(2.0 * x) - sin * sin / np.where(x == 0.0, 1.0, x)) / band


@dataclass
class FramePairSpec:
    """Two normalized kernel families over one geometry with their index measures.

    Both families come from the same kernel; an optional offset translates a
    family's kernel points relative to its index points (used by the
    dual-embedding scenario; no offset is the zero vector).  Both families
    are self-dual: see the module note.  The kernel lives in d <= 2: the
    line's grid and the plane's radial rules cover the Lebesgue sides.
    """

    kernel: object
    f_measure: object  # mu side
    g_measure: object  # nu side
    f_offset: np.ndarray | None = None
    g_offset: np.ndarray | None = None

    def __post_init__(self):
        d = self.kernel.dim
        if d > 2:
            raise ValueError(f"frame pairs need a kernel in dimension <= 2, got {d}")
        if self.f_measure.dim != d or self.g_measure.dim != d:
            raise ValueError("index measures must match the kernel dimension")
        for name in ("f_offset", "g_offset"):
            offset = np.zeros(d) if getattr(self, name) is None else as_point(getattr(self, name))
            if offset.size != d:
                raise ValueError(f"{name} must have {d} coordinates, got {offset.size}")
            setattr(self, name, offset)


def tail_sup(kernel, index_measure, R: float, probe_centers, cfg: QuadConfig) -> float:
    """max over probes x of the Lebesgue mass of |<k_x, k_.>|^2 on B(x, R_tr) \\ B(x, R).

    index_measure must be Lebesgue measure in the kernel's dimension, and
    every probe must have that many coordinates.  For Fock and Gabor (n = 1)
    the mass is e^{-pi R^2} - e^{-pi R_tr^2} at every probe, taken as the
    difference of the outside masses at R and R_tr from one ``_disk_mass``
    call (the radial rule of every Gaussian atom term, which the tail law
    thus checks; the inside masses would cancel to ~1e-3 relative at R = 3).
    For Paley-Wiener it is 2 (F(R_tr) - F(R)) of ``_sinc2_integral``; other
    kernels integrate the field with ``integrate_complement``.  R must be
    positive and finite.
    """
    if not 0.0 < R < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {R}")
    d = kernel.dim
    if not (isinstance(index_measure, LebesgueMeasure) and index_measure.dim == d):
        raise ValueError(f"tail_sup integrates against Lebesgue measure in dimension {d} only")
    probes = np.atleast_2d(np.asarray(probe_centers, dtype=float))
    if probes.size == 0:
        raise ValueError("tail_sup needs at least one probe centre")
    if probes.ndim != 2 or probes.shape[1] != d:
        raise ValueError(f"probe centres must have {d} coordinates, got {probes.shape[-1]}")
    if isinstance(kernel, (FockKernel, GaborGaussianKernel)) and d == 2:
        outside = _disk_mass(np.zeros(1), [R, cfg.effective_truncation(R)], inside=False)[0]
        return float(outside[0] - outside[1])
    if isinstance(kernel, PaleyWienerKernel):
        inner, outer = _sinc2_integral(kernel.band, np.array([R, cfg.effective_truncation(R)]))
        return 2.0 * float(outer - inner)
    best = -math.inf
    for x in probes:
        field = lambda pts: _mod2_cross(kernel, x[None, :], pts)[0]
        best = max(best, integrate_complement(field, Ball(x, R), cfg).value)
    return best


def _lex_sorted(atoms, weights):
    """Atoms and their weights in lexicographic order of the atoms, whatever order they come in."""
    order = np.lexsort(atoms.T[::-1])
    return atoms[order], weights[order]


def _sum_field_over_atoms(kernel, nodes, atoms, atom_weights) -> np.ndarray:
    """sum_j w_j |<k_node_i, k_atom_j>|^2 over every pair of kernel points, in blocks of _NODE_CHUNK nodes.

    The atoms enter in lexicographic order, so a node's value does not depend
    on the order they come in.
    """
    atoms, atom_weights = _lex_sorted(atoms, atom_weights)
    out = np.empty(len(nodes))
    for i in range(0, len(nodes), _NODE_CHUNK):
        out[i : i + _NODE_CHUNK] = _mod2_cross(kernel, nodes[i : i + _NODE_CHUNK], atoms) @ atom_weights
    return out


def _lebesgue_pair_term(kernel, s: np.ndarray, r: float, cfg: QuadConfig) -> float:
    """integral over x in B^c of integral over y in B of mod2, both sides Lebesgue.

    For the model kernels mod2 is a function of z - s (z = x - y, s = inner
    offset - outer offset) with integral 1 / mode_density, so

        t = |B| / mode_density - integral of mod2(z - s) A_r(|z|) dz,

    with the lens area A_r(rho) = |B ∩ (B + z)|: ``_lens_overlap`` for Fock
    and Gabor (n = 1); in d = 1 (kernels with no cutoff) A_r = (2r - rho)_+
    on the whole ball B(0, 2r), which puts the lens kinks (z = 0, |z| = 2r)
    on a cell edge and on its own boundary, never inside a Gauss cell.
    """
    if not kernel.mode_density:
        raise ValueError("continuous-continuous double tails need a kernel mode_density")
    if isinstance(kernel, (FockKernel, GaborGaussianKernel)):
        overlap = _lens_overlap(float(np.linalg.norm(s)), r)
    elif kernel.dim == 1:
        field = lambda z: _mod2_cross(kernel, z, s[None, :])[:, 0] * (2.0 * r - np.minimum(np.abs(z[:, 0]), 2.0 * r))
        overlap = integrate_ball(field, Ball(np.zeros(1), 2.0 * r), cfg).value
    else:
        raise ValueError(f"no Lebesgue x Lebesgue double tail for {type(kernel).__name__} in dimension {kernel.dim}")
    return ball_volume(kernel.dim, r) / kernel.mode_density - overlap


class _Side(NamedTuple):
    """A row's side: its masses of B = B(c, r) and of the window B(c, R_tr), and for a discrete side,
    walked once over the window, its (atoms, weights) in B and outside B within B(c, min(R_tr, r + reach)),
    in the walk's order and by the measure's own rule."""

    offset: np.ndarray
    mass: float
    window_mass: float
    inside: tuple | None = None
    outside: tuple | None = None


def _walk(pair: FramePairSpec, b: Ball, cfg: QuadConfig) -> list[_Side]:
    """The f and g sides over b; reach = c + |f_offset - g_offset| is the decay cutoff in index coordinates."""
    r_tr = cfg.effective_truncation(b.radius)
    reach = _cutoff(pair.kernel) + float(np.linalg.norm(pair.f_offset - pair.g_offset))
    window, near = Ball(b.center, r_tr), Ball(b.center, min(r_tr, b.radius + reach))
    sides = []
    for m, offset in ((pair.f_measure, pair.f_offset), (pair.g_measure, pair.g_offset)):
        if not getattr(m, "is_discrete", False):
            sides.append(_Side(offset, m.ball_mass(b), m.ball_mass(window)))
            continue
        atoms, w = m.atoms_in_ball(window)
        inside = m.contains(b, atoms)
        outside = m.contains(near, atoms) & ~inside
        mass, window_mass = math.fsum(w[inside].tolist()), math.fsum(w.tolist())
        sides.append(_Side(offset, mass, window_mass, (atoms[inside], w[inside]), (atoms[outside], w[outside])))
    return sides


def _cross_term(kernel, outer: _Side, inner: _Side, ball: Ball, cfg: QuadConfig) -> float:
    """One iterated integral of the walked sides: the outer side over B^c, the inner one over B.

    t1 = integral_{x in B^c} d mu integral_{y in B} d nu |<f_x, g_y>|^2 has
    the f side outer; t2 swaps the roles.
    """
    r = ball.radius
    cutoff = _cutoff(kernel)
    reach = cutoff + float(np.linalg.norm(outer.offset - inner.offset))  # the cutoff in index coordinates
    out_disc, in_disc = outer.outside is not None, inner.inside is not None
    if not out_disc and not in_disc:
        return _lebesgue_pair_term(kernel, inner.offset - outer.offset, r, cfg)
    if in_disc:
        atoms_in, w_in = inner.inside
        near = np.linalg.norm(atoms_in - ball.center, axis=1) >= r - reach
        v_atoms, w_in = atoms_in[near] + inner.offset, w_in[near]
    if out_disc:
        u_atoms, w_out = outer.outside[0] + outer.offset, outer.outside[1]
    if out_disc and in_disc:
        # the outer atoms in the inner ones' order too: the sum is then the same bits for any input order
        u_atoms, w_out = _lex_sorted(u_atoms, w_out)
        return float(w_out @ _sum_field_over_atoms(kernel, u_atoms, v_atoms, w_in))
    # an atom's term is the mass its kernel puts across the sphere, seen from the Lebesgue
    # side: inside B for an outer atom, outside B for an inner one; p is its kernel point
    # relative to the Lebesgue side's offset
    p, w = (u_atoms - inner.offset, w_out) if out_disc else (v_atoms - outer.offset, w_in)
    if isinstance(kernel, (FockKernel, GaborGaussianKernel)):
        s = np.linalg.norm(p - ball.center, axis=1)
        near = s <= r + cutoff if out_disc else s >= r - cutoff
        return math.fsum((w[near] * _disk_mass(s[near], r, inside=out_disc)).tolist())
    if isinstance(kernel, PaleyWienerKernel):
        # sinc^2(band (x - p)) over B = [c - r, c + r], or over the window's two pieces outside B
        c, r_tr = float(ball.center[0]), cfg.effective_truncation(r)
        ends = [c + r, c - r] if out_disc else [c - r, c - r_tr, c + r_tr, c + r]
        F = _sinc2_integral(kernel.band, np.subtract.outer(ends, p[:, 0]))
        return math.fsum((w * (F[0::2] - F[1::2]).sum(axis=0)).tolist())
    # every kernel left here has no cutoff: its field spans all of B, or of B(R_tr) \ B
    if out_disc:
        field = lambda x: _sum_field_over_atoms(kernel, x + inner.offset, u_atoms, w_out)
        return integrate_ball(field, ball, cfg).value
    field = lambda x: _sum_field_over_atoms(kernel, x + outer.offset, v_atoms, w_in)
    return integrate_complement(field, ball, cfg).value


def _tails(pair: FramePairSpec, b: Ball, cfg: QuadConfig):
    """(t1, t2, f side, g side), each side walked once."""
    f, g = _walk(pair, b, cfg)
    # Lebesgue x Lebesgue is symmetric for ANY offsets: reflecting the ball
    # through its center negates x - y, and |<k_x, k_y>|^2 is even
    t1 = _cross_term(pair.kernel, f, g, b, cfg)
    t2 = t1 if f.inside is None and g.inside is None else _cross_term(pair.kernel, g, f, b, cfg)
    return t1, t2, f, g


def double_tail(pair: FramePairSpec, b: Ball, cfg: QuadConfig) -> tuple[float, float]:
    """The two iterated cross-tail integrals (t1, t2) over B x B^c.

    t1 integrates the f-family outside the ball against the g-family inside;
    t2 swaps the roles.  The truncation window R_tr must reach the ball's
    sphere.
    """
    return _tails(pair, b, cfg)[:2]


def localization_defect(pair: FramePairSpec, b: Ball, cfg: QuadConfig) -> dict:
    """One report row of the localization mismatch over the ball b, under the CSV keys.

    For self-dual families the two iterated integrals of the localization
    condition are exactly the double tails, so the defect is |t1 - t2|; the
    normalizer is mu(B) + nu(B).  Each discrete side is walked once, and
    its tails and masses all come from that walk.

    trunc_bound bounds what t1 and t2 leave out.  Every pair the cross terms
    skip lies more than c = _cutoff(kernel) apart in kernel coordinates, so
    its term is < _PRUNE_EPS w_x w_y (an atom skipped against a Gaussian
    Lebesgue side has < _PRUNE_EPS w of its mass across the sphere).  Both
    sides lie in B(center, R_tr), hence

        skipped mass of t1, and of t2,  <=  _PRUNE_EPS f(B(center, R_tr)) g(B(center, R_tr)),

    one such term for each.  The window term (mu(B) + nu(B)) _tail_mass(min(gap, c))
    covers what lies beyond R_tr: in kernel coordinates that is at least
    gap = R_tr - r - |f_offset - g_offset| from the sphere (clamped at 0).
    """
    t1, t2, f, g = _tails(pair, b, cfg)
    normalizer = f.mass + g.mass
    if normalizer <= 0:
        raise ValueError("empty ball: defect normalizer vanishes")
    defect = abs(t1 - t2)
    delta = float(np.linalg.norm(pair.f_offset - pair.g_offset))
    gap = max(0.0, cfg.effective_truncation(b.radius) - b.radius - delta)
    tail = _tail_mass(pair.kernel, min(gap, _cutoff(pair.kernel)))
    slack = 2.0 * _PRUNE_EPS * f.window_mass * g.window_mass
    return {
        "center": [float(c) for c in b.center],
        "radius": float(b.radius),
        "defect": defect,
        "t1": t1,
        "t2": t2,
        "normalizer": normalizer,
        "eps_eff": defect / normalizer,
        "trunc_bound": slack + normalizer * tail if math.isfinite(tail) else math.inf,
    }
