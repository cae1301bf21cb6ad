"""Numerical evaluation of the localization hypotheses.

All operations reduce to double integrals of |<f_x, g_y>|^2 over B x B^c
split between two index measures.  For every kernel a pair can hold, that
quantity is a radial profile phi(|x - y|) of the two kernel points:
e^{-pi d^2} for Fock and Gabor (n = 1), sinc^2(b d) for Paley-Wiener of
band b.  A family's kernel point is its index point plus its offset, so a
pair's kernel distance is within |Delta| = |f_offset - g_offset| of its
index distance.

One private table, ``_PROFILES``, keyed by kernel class, holds one record
(``_Profile``) per profile; Fock and Gabor share the Gaussian one.  A kernel
with no record (a tabulated one, Gabor with n >= 2) is refused by
``FramePairSpec`` and ``tail_sup``.  A record carries:

- phi over every pair of two point arrays;
- its cutoff, beyond which phi < 1e-14: c = sqrt(ln(1e14) / pi) ~ 3.20 for
  the Gaussian, none (inf) for sinc^2;
- for the Gaussian, its tail bound on the mass of phi beyond a distance
  gap, e^{-pi gap^2};
- the Lebesgue mass M(s, r, inside) of phi(|. - p|), |p| = s, inside
  B(0, r) or over all of its complement.  For the Gaussian it is one
  ``_disk_mass`` call, the noncentral chi-square CDF with 2 degrees of
  freedom (one minus Marcum's Q_1; Marcum, IRE Trans. Inf. Theory 6, 1960):
  a 1-d rule over the radial density with no grid error.  For sinc^2 it is
  a difference of F(t) = (Si(2bt) - sin^2(bt)/(bt)) / b
  (``_sinc2_moments``) inside, and pi / b less that outside;
- the centred tail over B(0, R_tr) \\ B(0, R), a float, for ``tail_sup``;
- the lens overlap, the integral of phi(z - s) against the lens area
  |B(0, r) ∩ B(z, r)| over all z, a closed form of |s|: the same radial rule
  for the Gaussian (``_lens_overlap``), differences of F and of its first
  moment G(t) = Cin(2bt) / (2b^2) for sinc^2 (``_sinc2_lens``);
- for sinc^2, its Poisson sum over a lattice alpha Z (``_sinc2_comb``), a
  trig polynomial, at a point or integrated over an interval.

Every term is taken over all of B^c, and none builds a quadrature grid.  A
cross term takes one of three paths: a Lebesgue side against a discrete one
is sum_j w_j M over the atoms within the cutoff (plus |Delta|) of the
sphere; two Lebesgue sides are |B| / mode_density (phi integrates to
1 / mode_density, the reproducing formula) minus the lens overlap; two
discrete sides are an exact atom x atom sum.  With no cutoff a lattice
outer side is its Poisson sum less its own atoms in B, and a finite one
reaches every atom.  A row walks each discrete side once (``_walk``).

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
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial.polynomial import polyval

from .kernels import FockKernel, GaborGaussianKernel, PaleyWienerKernel

# integrate_complement serves no term here: perfbench/tracing.py binds it under this module's name
from .quadrature import QuadConfig, integrate_complement  # noqa: F401
from .space import Ball, Lattice, LebesgueMeasure, ThinnedLattice, as_point, ball_volume

__all__ = [
    "FramePairSpec",
    "tail_sup",
    "double_tail",
    "localization_defect",
]

_PRUNE_EPS = 1e-14
# c ~ 3.20 rounds down, so e^{-pi c^2} is 1e-14 (1 + 2.3e-15); at every float beyond c it is below _PRUNE_EPS
_CUTOFF = math.sqrt(-math.log(_PRUNE_EPS) / math.pi)
_DISK_SPAN = 1.5 * _CUTOFF  # e^{-pi span^2} = 1e-31.5
_BLOCK = 1 << 20  # kernel pairs per block of an atom x atom product
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
# the series' coefficients in 1/x, ((2k-1)!!)^2 / (k! 8^k) for k = 0..13
_I0_SERIES = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8.0 * k) for k in range(1, 14)])
_SI_SPLIT = 40.0  # Si: the 64-node rule up to here, the asymptotic series beyond
_SI_TERMS = 22
_SI_F = np.array([(-1) ** k * math.factorial(2 * k) for k in range(_SI_TERMS)], dtype=float)
_SI_G = np.array([(-1) ** k * math.factorial(2 * k + 1) for k in range(_SI_TERMS)], dtype=float)


def _scaled_i0(x: np.ndarray) -> np.ndarray:
    """e^{-x} I_0(x) for x >= 0, elementwise, each entry on its own.

    x <= _I0_SPLIT: the periodic trapezoid rule, sum_j W_j e^{-x C_j} (~4e-16
    relative).  Beyond: the asymptotic series
    sum_k ((2k-1)!!)^2 / (k! (8x)^k) / sqrt(2 pi x), k = 0..13 (the next term < 1e-18),
    one Horner evaluation in 1/x.
    A branch that takes every entry runs on the whole array, unmasked; only an
    array with entries on both sides of the split is gathered and scattered.
    """

    def rule(v):
        return (np.exp(-(v[..., None] * _I0_C)) * _I0_W).sum(axis=-1)

    def series(v):
        return polyval(1.0 / v, _I0_SERIES) / np.sqrt(2.0 * math.pi * v)

    small = x <= _I0_SPLIT
    n_small = np.count_nonzero(small)
    if n_small == x.size:
        return rule(x)
    if n_small == 0:
        return series(x)
    out = np.empty_like(x)
    out[small] = rule(x[small])
    out[~small] = series(x[~small])
    return out


def _radial_density(s, d) -> np.ndarray:
    """Radial density 2 pi rho e^{-pi d^2} e^{-x} I_0(x), x = 2 pi rho s, of e^{-pi |x - p|^2}, |p| = s, at rho = s + d.

    Smooth for every s >= 0; d = rho - s spares the Gaussian a rounding of size s eps.
    """
    a = 2.0 * math.pi * (s + d)
    return a * np.exp(-math.pi * d * d) * _scaled_i0(a * s)


def _disk_mass(s, r, inside: bool) -> np.ndarray:
    """Mass of the unit Gaussian e^{-pi |x - p|^2} inside (or outside) the disk B(0, r), |p| = s.

    Inside integrates the radial density over [0, r], outside over [r, inf),
    each by the 64-node rule on the part within _DISK_SPAN of s, in
    d = rho - s.  Good to ~6e-16 absolute against 30-digit quadrature and
    the closed form at s = 0 (-expm1(-pi r^2) inside, e^{-pi r^2} outside).
    r is one radius, giving one mass per entry of s, or several, giving a
    row of masses per entry of s, one per radius.
    When s holds several distances the rule runs once per distinct one (a
    lattice's atoms take few), unmasked; one distance runs as it is.  Each
    (distance, radius) row's 64 terms are summed on their own, never by a
    matrix product whose rounding depends on the row's place in the batch:
    an entry's mass is the same bits whatever else the call holds.
    """

    def rule(v):
        v = v.reshape((-1,) + (1,) * r.ndim)
        lo = np.maximum(-_DISK_SPAN, -v if inside else r - v)
        width = np.maximum(lo, np.minimum(_DISK_SPAN, r - v) if inside else _DISK_SPAN) - lo
        d = lo[..., None] + width[..., None] * _GL_U
        return width * (_radial_density(v[..., None], d) * _GL_W).sum(axis=-1)

    s = np.asarray(s, dtype=float)
    shape, back = s.shape, None
    if s.size > 1:
        s, back = np.unique(s, return_inverse=True)
    r = np.asarray(r, dtype=float)
    mass = rule(s.reshape(-1))
    return mass.reshape(shape + r.shape) if back is None else mass[back]


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


def _sici(x) -> tuple[np.ndarray, np.ndarray]:
    """(Si(x), Cin(x)) elementwise, each entry on its own: Si(x) = integral_0^x sin(t) / t dt is odd and
    Cin(x) = integral_0^x (1 - cos t) / t dt even.

    |x| <= _SI_SPLIT: the 64-node rule on [0, x], sum_i W_i sin(x U_i) / U_i
    and sum_i W_i 2 sin^2(x U_i / 2) / U_i.  Beyond: Si = pi/2 - f(x) cos x -
    g(x) sin x and Cin = gamma + ln x - Ci(x), Ci = f(x) sin x - g(x) cos x
    (Abramowitz & Stegun 5.2.2, 5.2.9), with the auxiliary asymptotic series
    f ~ sum_k (-1)^k (2k)! / x^(2k+1), g ~ sum_k (-1)^k (2k+1)! / x^(2k+2),
    _SI_TERMS terms each (the last adds ~2e-18 at x = 40).
    """
    x = np.asarray(x, dtype=float)
    si, cin = np.empty_like(x), np.empty_like(x)
    small = np.abs(x) <= _SI_SPLIT
    xu = x[small][:, None] * _GL_U
    half = np.sin(0.5 * xu)
    si[small] = (np.sin(xu) / _GL_U * _GL_W).sum(axis=1)
    cin[small] = (2.0 * half * half / _GL_U * _GL_W).sum(axis=1)
    big = np.abs(x[~small])
    inv2 = 1.0 / (big * big)
    f, g = polyval(inv2, _SI_F) / big, polyval(inv2, _SI_G) * inv2
    sin, cos = np.sin(big), np.cos(big)
    si[~small] = np.copysign(0.5 * math.pi - (f * cos + g * sin), x[~small])
    cin[~small] = np.euler_gamma + np.log(big) - (f * sin - g * cos)
    return si, cin


def _sinc2_moments(band: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(F(t), G(t)), sinc(y) = sin(y)/y: F(t) = integral_0^t sinc^2(band u) du = (Si(2 band t) - sin^2(band t) /
    (band t)) / band, odd, and G(t) = integral_0^t u sinc^2(band u) du = Cin(2 band t) / (2 band^2), even."""
    x = band * np.asarray(t, dtype=float)
    si, cin = _sici(2.0 * x)
    sin = np.sin(x)
    return (si - sin * sin / np.where(x == 0.0, 1.0, x)) / band, cin / (2.0 * band * band)


def _gaussian_phi(kernel, X, Y) -> np.ndarray:
    """e^{-pi |x - y|^2} as an (n, m) array; |x-y|^2 via the quadratic expansion, one BLAS product
    instead of an (n, m, d) temporary, with the cancellation residue clamped at zero."""
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = np.einsum("ij,ij->i", Y, Y)
    d2 = x2[:, None] + y2[None, :] - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-math.pi * d2)


def _sinc2_phi(kernel, X, Y) -> np.ndarray:
    """sinc^2(band (x - y)) as an (n, m) array."""
    t = X[:, 0][:, None] - Y[:, 0][None, :]
    return np.sinc(kernel.band * t / math.pi) ** 2


def _sinc2_mass(kernel, s: np.ndarray, r: float, inside: bool) -> np.ndarray:
    """Mass of sinc^2(band (x - p)), |p| = s, over [-r, r], or over all of its complement: pi / band, the whole
    mass, less the part inside."""
    F, _ = _sinc2_moments(kernel.band, np.subtract.outer([r, -r], s))
    return F[0] - F[1] if inside else math.pi / kernel.band - (F[0] - F[1])


def _sinc2_comb(kernel, lattice: Lattice, x, r: float | None) -> np.ndarray:
    """The Poisson sum P(x) = sum_k sinc^2(band (x - alpha k)) over the lattice alpha Z at each x, or with r its
    integral over [x - r, x + r]; a ThinnedLattice is alpha Z less 2 alpha Z.

    sinc^2(band t) has the Fourier transform (pi / band)(1 - pi |xi| / band)_+, so with q = band alpha / pi
    P(x) = (1 / q) sum_{|m| < q} (1 - |m| / q) e^{2 pi i m x / alpha}, a trig polynomial (1 / q at q <= 1);
    over [x - r, x + r] the mode m integrates to 2 sin(w r) / w, w = 2 pi m / alpha, and m = 0 to 2r.
    """

    def comb(alpha):
        q = kernel.band * alpha / math.pi
        m = np.arange(1, math.ceil(q))
        w = 2.0 * math.pi * m / alpha
        weight, span = (1.0, 1.0) if r is None else (2.0 * np.sin(w * r) / w, 2.0 * r)
        return (span + 2.0 * np.cos(np.multiply.outer(x, w)) @ ((1.0 - m / q) * weight)) / q

    return comb(lattice.scale) - (comb(2.0 * lattice.scale) if isinstance(lattice, ThinnedLattice) else 0.0)


def _sinc2_lens(kernel, s: np.ndarray, r: float) -> float:
    """integral of sinc^2(band (z - s)) (2r - |z|)_+ dz from a = |s|, as it is even in s: with (F, G) =
    ``_sinc2_moments``, the tent in u = z - a gives (2r - a)[F(2r - a) - F(-a)] - [G(2r - a) - G(-a)]
    + (2r + a)[F(-a) - F(-2r - a)] + [G(-a) - G(-2r - a)]."""
    b, a = kernel.band, abs(float(s[0]))
    F, G = _sinc2_moments(b, [2.0 * r - a, -a, -2.0 * r - a])
    return float((2.0 * r - a) * (F[0] - F[1]) - (G[0] - G[1]) + (2.0 * r + a) * (F[1] - F[2]) + (G[1] - G[2]))


class _Profile(NamedTuple):
    """A radial profile phi(|x - y|) = |<k_x, k_y>|^2 and its closed forms (see the module note)."""

    phi: Callable  # (kernel, X, Y) -> phi over every pair of rows, an (n, m) array
    cutoff: float  # phi < _PRUNE_EPS beyond it; inf: none, and nothing is pruned
    tail: Callable | None  # (kernel, gap) -> a bound on the mass of phi beyond gap; None with no cutoff
    mass: Callable  # (kernel, s, r, inside) -> M(s, r, inside) per entry of s
    lens: Callable  # (kernel, s, r) -> the lens overlap, s = inner offset - outer offset
    centred: Callable  # (kernel, R, r_tr) -> M(0, R, r_tr, outside), a float
    comb: Callable | None  # (kernel, lattice, x, r) -> the Poisson sum over the lattice; None with a cutoff


_GAUSSIAN = _Profile(
    phi=_gaussian_phi,
    cutoff=_CUTOFF,
    tail=lambda kernel, gap: math.exp(-math.pi * gap * gap),
    mass=lambda kernel, s, r, inside: _disk_mass(s, r, inside),
    lens=lambda kernel, s, r: _lens_overlap(float(np.linalg.norm(s)), r),
    centred=lambda kernel, R, r_tr: math.exp(-math.pi * R * R) - math.exp(-math.pi * r_tr * r_tr),
    comb=None,
)
_PROFILES = {
    FockKernel: _GAUSSIAN,
    GaborGaussianKernel: _GAUSSIAN,
    PaleyWienerKernel: _Profile(
        phi=_sinc2_phi,
        cutoff=math.inf,
        tail=None,
        mass=_sinc2_mass,
        lens=_sinc2_lens,
        centred=lambda kernel, R, r_tr: float(2.0 * np.subtract(*_sinc2_moments(kernel.band, [r_tr, R])[0])),
        comb=_sinc2_comb,
    ),
}


def _profile(kernel) -> _Profile:
    """The kernel's record in _PROFILES; a kernel with none, or outside d <= 2 (Gabor n >= 2), is refused."""
    profile = _PROFILES.get(type(kernel))
    if profile is None or kernel.dim > 2:
        raise ValueError(f"no radial profile for {type(kernel).__name__} in dimension {kernel.dim}")
    return profile


@dataclass
class FramePairSpec:
    """Two normalized kernel families over one geometry with their index measures.

    Both families come from the same kernel; an optional offset translates a
    family's kernel points relative to its index points (used by the
    dual-embedding scenario; no offset is the zero vector).  Both families
    are self-dual: see the module note.  The kernel lives in d <= 2 and has
    a radial profile record in ``_PROFILES``.
    """

    kernel: object
    f_measure: object  # mu side
    g_measure: object  # nu side
    f_offset: np.ndarray | None = None
    g_offset: np.ndarray | None = None

    def __post_init__(self):
        d = self.kernel.dim
        _profile(self.kernel)
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
    every probe must have that many coordinates.  The profile is radial, so
    every probe has the record's centred tail M(0, R, R_tr, outside), a
    closed form and no ``_disk_mass`` call: for Fock and Gabor (n = 1)
    e^{-pi R^2} - e^{-pi R_tr^2}, from the outside masses at R and R_tr (the
    inside masses would cancel to ~1e-3 relative at R = 3); for Paley-Wiener
    2 (F(R_tr) - F(R)).  R must be positive and finite.
    """
    if not 0.0 < R < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {R}")
    profile = _profile(kernel)
    d = kernel.dim
    if not (isinstance(index_measure, LebesgueMeasure) and index_measure.dim == d):
        raise ValueError(f"tail_sup integrates against Lebesgue measure in dimension {d} only")
    probes = np.atleast_2d(np.asarray(probe_centers, dtype=float))
    if probes.size == 0:
        raise ValueError("tail_sup needs at least one probe centre")
    if probes.ndim != 2 or probes.shape[1] != d:
        raise ValueError(f"probe centres must have {d} coordinates, got {probes.shape[-1]}")
    return profile.centred(kernel, R, cfg.effective_truncation(R))


def _lex_sorted(atoms, weights):
    """Atoms and their weights in lexicographic order of the atoms, whatever order they come in."""
    order = np.lexsort(atoms.T[::-1])
    return atoms[order], weights[order]


class _Side(NamedTuple):
    """A row's side: its masses of B = B(c, r) and of the walk ball; for a discrete side its (atoms, weights) in
    B and outside B in the walk ball, by the measure's own rule, or the lattice whose Poisson sum stands for them."""

    offset: np.ndarray
    mass: float
    walk_mass: float
    inside: tuple | None = None
    outside: tuple | None = None
    lattice: Lattice | None = None


def _walk(pair: FramePairSpec, b: Ball) -> list[_Side]:
    """The f and g sides over b, each discrete side walked once over the walk ball B(c, r + c_cut + |Delta|).

    c_cut is the profile's cutoff: a pair with one atom beyond the walk ball and the other in B lies more
    than c_cut apart in kernel coordinates.  With no cutoff (sinc^2) the walk ball is all of R^d: a finite
    side is walked whole, a lattice over B alone.
    """
    reach = _profile(pair.kernel).cutoff + float(np.linalg.norm(pair.f_offset - pair.g_offset))
    walk = Ball(b.center, b.radius + reach)
    sides = []
    for m, offset in ((pair.f_measure, pair.f_offset), (pair.g_measure, pair.g_offset)):
        if not getattr(m, "is_discrete", False):
            sides.append(_Side(offset, m.ball_mass(b), m.ball_mass(walk)))
            continue
        support = getattr(m, "support", None)
        lattice = support if isinstance(support, Lattice) and math.isinf(walk.radius) else None
        atoms, w = m.atoms_in_ball(walk if lattice is None else b)
        inside = m.contains(b, atoms)
        mass = math.fsum(w[inside].tolist())
        walk_mass = math.fsum(w.tolist()) if lattice is None else math.inf
        sides.append(_Side(offset, mass, walk_mass, (atoms[inside], w[inside]), (atoms[~inside], w[~inside]), lattice))
    return sides


def _cross_term(kernel, outer: _Side, inner: _Side, ball: Ball) -> float:
    """One iterated integral of the walked sides: the outer side over B^c, the inner one over B.

    t1 = integral_{x in B^c} d mu integral_{y in B} d nu |<f_x, g_y>|^2 has
    the f side outer; t2 swaps the roles.
    """
    r, profile = ball.radius, _profile(kernel)
    if outer.lattice is not None:
        # the whole lattice is its Poisson sum, seen from the inner side's kernel points: integrated over a
        # Lebesgue B, or at each inner atom; the atom paths then take its own atoms in B back off
        shift = outer.offset[0] - inner.offset[0]
        (x, w), span = ((ball.center[None], np.ones(1)), r) if inner.inside is None else (inner.inside, None)
        total = math.fsum((w * profile.comb(kernel, outer.lattice, x[:, 0] - shift, span)).tolist())
        return total - _cross_term(kernel, outer._replace(outside=outer.inside, lattice=None), inner, ball)
    reach = profile.cutoff + float(np.linalg.norm(outer.offset - inner.offset))  # the cutoff in index coordinates
    out_disc, in_disc = outer.outside is not None, inner.inside is not None
    if not out_disc and not in_disc:
        # phi integrates to 1 / mode_density; the lens overlap is the part of it B keeps
        return ball_volume(kernel.dim, r) / kernel.mode_density - profile.lens(kernel, inner.offset - outer.offset, r)
    if in_disc:
        atoms_in, w_in = inner.inside
        near = np.linalg.norm(atoms_in - ball.center, axis=1) >= r - reach
        v_atoms, w_in = atoms_in[near] + inner.offset, w_in[near]
    if out_disc:
        u_atoms, w_out = outer.outside[0] + outer.offset, outer.outside[1]
    if out_disc and in_disc:
        # both sides in lexicographic order, the outer one in blocks of at most _BLOCK pairs: the sum is
        # then the same bits for any input order
        u_atoms, w_out = _lex_sorted(u_atoms, w_out)
        v_atoms, w_in = _lex_sorted(v_atoms, w_in)
        rows = max(1, _BLOCK // max(1, len(v_atoms)))
        blocks = (slice(i, i + rows) for i in range(0, len(u_atoms), rows))
        return math.fsum(float(w_out[k] @ (profile.phi(kernel, u_atoms[k], v_atoms) @ w_in)) for k in blocks)
    # an atom's term is the mass its profile puts across the sphere, seen from the Lebesgue
    # side: inside B for an outer atom, over all of B^c for an inner one; p is its
    # kernel point relative to the Lebesgue side's offset
    p, w = (u_atoms - inner.offset, w_out) if out_disc else (v_atoms - outer.offset, w_in)
    s = np.linalg.norm(p - ball.center, axis=1)
    near = s <= r + profile.cutoff if out_disc else s >= r - profile.cutoff
    mass = profile.mass(kernel, s[near], r, inside=out_disc)
    return math.fsum((w[near] * mass).tolist())


def _tails(pair: FramePairSpec, b: Ball):
    """(t1, t2, f side, g side), each side walked once."""
    f, g = _walk(pair, b)
    return _cross_term(pair.kernel, f, g, b), _cross_term(pair.kernel, g, f, b), f, g


def double_tail(pair: FramePairSpec, b: Ball) -> tuple[float, float]:
    """The two iterated cross-tail integrals (t1, t2) over B x B^c: t1 takes the f-family over all of B^c against
    the g-family inside B, t2 swaps the roles."""
    return _tails(pair, b)[:2]


def localization_defect(pair: FramePairSpec, b: Ball) -> dict:
    """One report row of the localization mismatch over the ball b, under the CSV keys.

    For self-dual families the two iterated integrals of the localization
    condition are exactly the double tails, so the defect is |t1 - t2|; the
    normalizer is mu(B) + nu(B).

    trunc_bound bounds what the cutoff leaves out of t1 and t2: 0.0 with no
    cutoff (Paley-Wiener) or two Lebesgue sides.  Otherwise every pair the
    cross terms skip lies more than the cutoff c apart in kernel
    coordinates, so its term is < _PRUNE_EPS w_x w_y (an atom skipped
    against a Lebesgue side has < _PRUNE_EPS w of its mass across the
    sphere): within the walk ball B_w, of radius r_w = r + c + |Delta|,
    that is _PRUNE_EPS f(B_w) g(B_w) for each of t1 and t2.  The term
    (mu(B) + nu(B)) tail(min(gap, c)) covers what lies beyond B_w, at least
    gap = r_w - r - |Delta| (c up to rounding) from the sphere.
    """
    t1, t2, f, g = _tails(pair, b)
    normalizer = f.mass + g.mass
    if normalizer <= 0:
        raise ValueError("empty ball: defect normalizer vanishes")
    defect = abs(t1 - t2)
    profile = _profile(pair.kernel)
    trunc_bound = 0.0
    if math.isfinite(profile.cutoff) and (f.inside is not None or g.inside is not None):
        delta = float(np.linalg.norm(pair.f_offset - pair.g_offset))
        gap = max(0.0, b.radius + (profile.cutoff + delta) - b.radius - delta)
        tail = profile.tail(pair.kernel, min(gap, profile.cutoff))
        trunc_bound = 2.0 * _PRUNE_EPS * f.walk_mass * g.walk_mass + normalizer * tail
    return {
        "center": [float(c) for c in b.center],
        "radius": float(b.radius),
        "defect": defect,
        "t1": t1,
        "t2": t2,
        "normalizer": normalizer,
        "eps_eff": defect / normalizer,
        "trunc_bound": trunc_bound,
    }
