"""Numerical evaluation of the localization hypotheses.

All operations reduce to double integrals of |<f_x, g_y>|^2 over B x B^c
split between two index measures.  For every kernel a pair can hold, that
quantity is a radial profile phi(|x - y|) of the two kernel points:
e^{-pi d^2} for Fock and Gabor (n = 1), sinc^2(b d) for Paley-Wiener of
band b.  The f family's kernel points are its index points; the g family's
are its index points plus the pair's one offset, Delta = g_offset, so a
pair's kernel distance is within |Delta| of its index distance.

One private table, ``_PROFILES``, keyed by a kernel's ``profile``, holds
a record (``_Profile``) per profile: "gaussian" for Fock and Gabor (n = 1),
"sinc2" for Paley-Wiener.  ``FramePairSpec`` and ``tail_sup`` refuse a
kernel whose profile is None (Gabor n >= 2, tabulated).  A record carries:

- phi over every pair of two point arrays: the kernel's own entry squared
  for sinc^2, real arithmetic (``_gaussian_phi``) for the Gaussian;
- its cutoff, beyond which phi < 1e-14: c = sqrt(ln(1e14) / pi) ~ 3.20 for
  the Gaussian, none (inf) for sinc^2;
- the Lebesgue mass M(s, r, inside) of phi(|. - p|), |p| = s, inside
  B(0, r) or over all of its complement.  For the Gaussian it is one
  ``_disk_mass`` call, the noncentral chi-square CDF with 2 degrees of
  freedom (one minus Marcum's Q_1; Marcum, IRE Trans. Inf. Theory 6, 1960):
  a 1-d rule over the radial density with no grid error.  For sinc^2 it is
  a difference of F(t) = (Si(2bt) - sin^2(bt)/(bt)) / b
  (``_sinc2_moments``) inside, and pi / b less that outside;
- the centred tail over B(0, R_tr) \\ B(0, R), a float, for ``tail_sup``;
  at R_tr = inf the mass beyond R, ``localization_defect``'s pruning term;
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
row, a dict that a report's ``localization`` list and ``framelab
localize``'s JSON take as it is.

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
# the radial integrals' 64-node Gauss-Legendre rule on [0, 1], mirrored from the 32 positive nodes x on [-1, 1] of
# numpy's leggauss(64) and (row 1) their weights 1 / ((1 - x^2) P_64'(x)^2), recomputed from P_64' at them (numpy's
# own are off by up to ~1e-12 relative); written out, so that importing this module solves no eigenproblem
_GL_HALF = np.array([
    [0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283, 0.21742364374000708,
     0.2646871622087674, 0.31132287199021097, 0.3572201583376681, 0.4022701579639916, 0.4463660172534641,
     0.48940314570705296, 0.5312794640198946, 0.571895646202634, 0.6111553551723933, 0.6489654712546573,
     0.6852363130542333, 0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
     0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028, 0.9295691721319396,
     0.9464113748584028, 0.9610087996520538, 0.973326827789911, 0.983336253884626, 0.9910133714767443,
     0.9963401167719552, 0.9993050417357722],
    [0.024345478504569862, 0.024287733720751697, 0.02417238111740151, 0.02399969429822917, 0.0237700828574152,
     0.023484091408105003, 0.02314239829065721, 0.02274581396370907, 0.02229527908187832, 0.02179186226466171,
     0.021236757561826816, 0.020631281621311805, 0.019976870566360213, 0.0192750765893078, 0.018527564270120003,
     0.01773610662844116, 0.016902580918570862, 0.016028964177425824, 0.015117328536201213, 0.014169836307129716,
     0.013188734857527333, 0.012176351284355447, 0.011135086904191602, 0.010067411576765144, 0.008975857887848616,
     0.007863015238012338, 0.006731523948359351, 0.0055840697300656005, 0.0044233799131819535, 0.0032522289844892104,
     0.002073516630281279, 0.0008916403608481525],
])
_GL_X = np.concatenate([-_GL_HALF[0, ::-1], _GL_HALF[0]])
_GL_U = (_GL_X + 1.0) / 2.0
_GL_W = np.concatenate([_GL_HALF[1, ::-1], _GL_HALF[1]])
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


def _polyval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] x^k by Horner's rule, in numpy.polynomial.polynomial.polyval's operations and order."""
    out = c[-1] + x * 0
    for coef in c[-2::-1]:
        out = coef + out * x
    return out


def _scaled_i0(x: np.ndarray) -> np.ndarray:
    """e^{-x} I_0(x) for x >= 0, elementwise, each entry on its own.

    x <= _I0_SPLIT: the periodic trapezoid rule, sum_j W_j e^{-x C_j} (~4e-16
    relative).  Beyond: the asymptotic series
    sum_k ((2k-1)!!)^2 / (k! (8x)^k) / sqrt(2 pi x), k = 0..13 (the next term < 1e-18),
    one Horner evaluation in 1/x.  Each branch gathers its entries by the
    split's mask, so an entry's bits do not depend on the rest of the array.
    """

    def rule(v):
        return (np.exp(-(v[..., None] * _I0_C)) * _I0_W).sum(axis=-1)

    def series(v):
        return _polyval(1.0 / v, _I0_SERIES) / np.sqrt(2.0 * math.pi * v)

    small = x <= _I0_SPLIT
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
    r is one radius, giving one mass per entry of s.
    The rule runs once per distinct distance (a lattice's atoms take few).
    Each distance's 64 terms are summed on their own, never by a matrix
    product whose rounding depends on the distance's place in the batch: an
    entry's mass is the same bits whatever else the call holds.
    """

    def rule(v):
        lo = np.maximum(-_DISK_SPAN, -v if inside else r - v)
        width = np.maximum(lo, np.minimum(_DISK_SPAN, r - v) if inside else _DISK_SPAN) - lo
        d = lo[:, None] + width[:, None] * _GL_U
        return width * (_radial_density(v[:, None], d) * _GL_W).sum(axis=-1)

    s = np.asarray(s, dtype=float)
    distinct, back = np.unique(s, return_inverse=True)
    return rule(distinct)[back].reshape(s.shape)


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
    f, g = _polyval(inv2, _SI_F) / big, _polyval(inv2, _SI_G) * inv2
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
    instead of an (n, m, d) temporary, with the cancellation residue clamped at zero.  Real arithmetic is
    faster than squaring the complex Fock or Gabor entry, whose last bits differ."""
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = np.einsum("ij,ij->i", Y, Y)
    d2 = x2[:, None] + y2[None, :] - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-math.pi * d2)


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
    mass: Callable  # (kernel, s, r, inside) -> M(s, r, inside) per entry of s
    lens: Callable  # (kernel, s, r) -> the lens overlap, s = inner offset - outer offset
    centred: Callable  # (kernel, R, r_tr) -> M(0, R, r_tr, outside), a float; r_tr = inf: the mass beyond R
    comb: Callable | None  # (kernel, lattice, x, r) -> the Poisson sum over the lattice; None with a cutoff


_PROFILES = {
    "gaussian": _Profile(
        phi=_gaussian_phi,
        cutoff=_CUTOFF,
        mass=lambda kernel, s, r, inside: _disk_mass(s, r, inside),
        lens=lambda kernel, s, r: _lens_overlap(float(np.linalg.norm(s)), r),
        centred=lambda kernel, R, r_tr: math.exp(-math.pi * R * R) - math.exp(-math.pi * r_tr * r_tr),
        comb=None,
    ),
    "sinc2": _Profile(
        phi=lambda kernel, X, Y: kernel.normalized_cross(X, Y) ** 2,
        cutoff=math.inf,
        mass=_sinc2_mass,
        lens=_sinc2_lens,
        centred=lambda kernel, R, r_tr: float(2.0 * np.subtract(*_sinc2_moments(kernel.band, [r_tr, R])[0])),
        comb=_sinc2_comb,
    ),
}


def _profile(kernel) -> _Profile:
    """The record in _PROFILES of the kernel's profile; a kernel whose profile is None is refused."""
    if kernel.profile is None:
        raise ValueError(f"no radial profile for {type(kernel).__name__} in dimension {kernel.dim}")
    return _PROFILES[kernel.profile]


@dataclass
class FramePairSpec:
    """Two normalized kernel families over one geometry with their index measures.

    Both families come from the same kernel.  The f family's kernel points
    are its index points; the optional g_offset translates the g family's
    kernel points from its index points (the dual-embedding scenario's
    offset, and the g_offset key of a ``framelab localize`` pair; no offset
    is the zero vector).  Every term reads only that one difference.  Both
    families are self-dual: see the module note.  The kernel's profile
    names its radial profile record in ``_PROFILES``.
    """

    kernel: object
    f_measure: object  # mu side
    g_measure: object  # nu side
    g_offset: np.ndarray | None = None

    def __post_init__(self):
        d = self.kernel.dim
        _profile(self.kernel)
        if self.f_measure.dim != d or self.g_measure.dim != d:
            raise ValueError("index measures must match the kernel dimension")
        self.g_offset = np.zeros(d) if self.g_offset is None else as_point(self.g_offset)
        if self.g_offset.size != d:
            raise ValueError(f"g_offset must have {d} coordinates, got {self.g_offset.size}")


def tail_sup(kernel, index_measure, R: float, probe_centers, cfg: QuadConfig) -> float:
    """max over probes x of the Lebesgue mass of |<k_x, k_.>|^2 on B(x, R_tr) \\ B(x, R).

    index_measure must be Lebesgue measure in the kernel's dimension.
    probe_centers is a nonempty sequence of points ([p] for one point),
    each of d finite coordinates; anything else, a flat point such as
    [0.3, -0.2] included, raises ValueError.  The check builds no array:
    the value never reads the probes.  The profile is radial, so
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
    try:
        probes = list(probe_centers)
        if not probes:
            raise ValueError("tail_sup needs at least one probe centre")
        for p in probes:
            if len(p) != d:
                raise ValueError(f"probe centres must have {d} coordinates, got {len(p)}")
            if not all(map(math.isfinite, map(float, p))):
                raise ValueError("probe centres must be finite")
    except TypeError:
        raise ValueError(f"probe centres must be points with {d} coordinates, got {probe_centers!r}") from None
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
    reach = _profile(pair.kernel).cutoff + float(np.linalg.norm(pair.g_offset))
    walk = Ball(b.center, b.radius + reach)
    sides = []
    for m, offset in ((pair.f_measure, np.zeros(pair.kernel.dim)), (pair.g_measure, pair.g_offset)):
        if not m.is_discrete:
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
    out_disc, in_disc = outer.outside is not None, inner.inside is not None
    if not out_disc and not in_disc:
        # phi integrates to 1 / mode_density; the lens overlap is the part of it B keeps
        return ball_volume(kernel.dim, r) / kernel.mode_density - profile.lens(kernel, inner.offset - outer.offset, r)
    if out_disc and in_disc:
        # inner atoms within the cutoff of the sphere in index coordinates; both sides in lexicographic order,
        # the outer one in blocks of at most _BLOCK pairs: the sum is then the same bits for any input order
        reach = profile.cutoff + float(np.linalg.norm(outer.offset - inner.offset))
        atoms_in, w_in = inner.inside
        near = np.linalg.norm(atoms_in - ball.center, axis=1) >= r - reach
        u_atoms, w_out = _lex_sorted(outer.outside[0] + outer.offset, outer.outside[1])
        v_atoms, w_in = _lex_sorted(atoms_in[near] + inner.offset, w_in[near])
        rows = max(1, _BLOCK // max(1, len(v_atoms)))
        blocks = (slice(i, i + rows) for i in range(0, len(u_atoms), rows))
        return math.fsum(float(w_out[k] @ (profile.phi(kernel, u_atoms[k], v_atoms) @ w_in)) for k in blocks)
    # an atom's term is the mass its profile puts across the sphere, seen from the Lebesgue
    # side: inside B for an outer atom, over all of B^c for an inner one; s is the distance from
    # the centre of its kernel point relative to the Lebesgue side's offset
    disc, leb = (outer, inner) if out_disc else (inner, outer)
    atoms, w = disc.outside if out_disc else disc.inside
    s = np.linalg.norm(atoms + disc.offset - leb.offset - ball.center, axis=1)
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
    """One report row of the localization mismatch over the ball b.

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
    (mu(B) + nu(B)) M(min(gap, c)), M(g) the record's centred mass beyond g,
    covers what lies beyond B_w, at least gap = r_w - r - |Delta| (c up to
    rounding) from the sphere.
    """
    t1, t2, f, g = _tails(pair, b)
    normalizer = f.mass + g.mass
    if normalizer <= 0:
        raise ValueError("empty ball: defect normalizer vanishes")
    defect = abs(t1 - t2)
    profile = _profile(pair.kernel)
    trunc_bound = 0.0
    if math.isfinite(profile.cutoff) and (f.inside is not None or g.inside is not None):
        delta = float(np.linalg.norm(pair.g_offset))
        gap = max(0.0, b.radius + (profile.cutoff + delta) - b.radius - delta)
        tail = profile.centred(pair.kernel, min(gap, profile.cutoff), math.inf)
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
