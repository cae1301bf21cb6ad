"""Exact finite-dimensional frame oracle.

Finite frames over finite atomic index measures in C^n: frame bounds,
canonical dual, projections and the two-frame comparison identity.
All sums are finite, so the identities hold to rounding and serve as the
machine-precision reference for the continuous machinery.

Spectra come from one LAPACK thin SVD W^1/2 conj(V) = U Sigma Q^*: the frame
operator S = Q Sigma^2 Q^* is never formed, its bounds are nonzero sigma^2,
and conj(V~) = W^-1/2 U_r Sigma_r^-1 Q_r^*.  Rounding thus scales with
kappa(W^1/2 V), not with kappa(S) = kappa(W^1/2 V)^2 as for the normal
equations (Higham, Accuracy and Stability of Numerical Algorithms, ch. 20).
"""
from __future__ import annotations

import numpy as np

from .space import Ball

__all__ = [
    "FiniteFrame",
    "frame_bounds",
    "canonical_dual",
    "project",
    "comparison_residual",
    "comparison_sides",
    "random_frame",
]

# eigenvalues sigma^2 of S below ZERO_THRESHOLD * sigma_1^2 are treated as zero;
# values in the surrounding ambiguity band abort dual computation instead of guessing
ZERO_THRESHOLD = 1e-10
AMBIGUITY_BAND = (1e-11, 1e-9)

# framelab never calls this name.  It stays only because the benchmark's tracer
# (perfbench/tracing.py) binds it; drop it once the tracer's eigen counters move.
jacobi_eigh = np.linalg.eigh


class FiniteFrame:
    """Finitely many vectors with positive weights over finite index atoms.

    vectors: (m, n) complex array, one frame vector per row.
    weights: (m,) positive reals (the index measure's atom masses).
    index_points: (m, d) atom locations; defaults to 0, 1, ..., m-1 on R.
    """

    def __init__(self, vectors, weights=None, index_points=None):
        V = np.atleast_2d(np.asarray(vectors, dtype=complex))
        m, n = V.shape
        if m < 1:
            raise ValueError("a frame needs at least one vector")
        w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (m,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive finite reals, one per vector")
        if index_points is None:
            pts = np.arange(m, dtype=float).reshape(m, 1)
        else:
            pts = np.atleast_2d(np.asarray(index_points, dtype=float))
            if pts.shape[0] != m:
                raise ValueError("index_points must match the number of vectors")
        self.vectors = V
        self.weights = w
        self.index_points = pts

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


def _svd(F: FiniteFrame):
    """Thin SVD W^1/2 conj(V) = U diag(s) Qh, s descending; S = Qh^* diag(s^2) Qh."""
    U, s, Qh = np.linalg.svd(np.sqrt(F.weights)[:, None] * F.vectors.conj(), full_matrices=False)
    if not s[0] > 0:
        raise ValueError("degenerate frame: all vectors vanish")
    return U, s, Qh


def frame_bounds(F: FiniteFrame) -> tuple[float, float]:
    """(c, C): smallest nonzero and largest eigenvalue of the frame operator."""
    _, s, _ = _svd(F)
    lam = s * s
    return float(lam[lam > ZERO_THRESHOLD * lam[0]][-1]), float(lam[0])


def canonical_dual(F: FiniteFrame) -> FiniteFrame:
    """Dual frame ~v_i = S^+ v_i (inverse on the span, zero elsewhere)."""
    U, s, Qh = _svd(F)
    rel = (s / s[0]) ** 2
    ambiguous = (rel >= AMBIGUITY_BAND[0]) & (rel <= AMBIGUITY_BAND[1])
    if np.any(ambiguous):
        raise ValueError("numerically rank-deficient: eigenvalue inside the zero-threshold band")
    r = int(np.count_nonzero(rel > ZERO_THRESHOLD))
    conj_dual = (U[:, :r] / s[:r]) @ Qh[:r] / np.sqrt(F.weights)[:, None]
    return FiniteFrame(np.conj(conj_dual), F.weights.copy(), F.index_points.copy())


def project(F: FiniteFrame, f, formula: str = "synthesis") -> np.ndarray:
    """Orthogonal projection of f onto the frame's span.

    formula "synthesis": sum_i w_i <f, ~v_i> v_i ; "analysis": with the dual
    on the synthesis side.  The two agree to rounding for any frame of the
    span, and both equal the orthogonal projection.
    """
    f = np.asarray(f, dtype=complex)
    dual = canonical_dual(F)
    if formula == "synthesis":
        coeff = dual.vectors.conj() @ f
        return F.vectors.T @ (F.weights * coeff)
    if formula == "analysis":
        coeff = F.vectors.conj() @ f
        return dual.vectors.T @ (F.weights * coeff)
    raise ValueError("formula must be 'synthesis' or 'analysis'")


def _omega_masks(F: FiniteFrame, G: FiniteFrame, omega) -> tuple[np.ndarray, np.ndarray]:
    """Membership of F- and G-atoms in the comparison region Omega.

    A Ball tests both atom sets geometrically.  A boolean mask, one entry
    per F-atom, selects F-atoms; G-atoms belong when their location exactly
    matches a selected F-atom location.  Anything else raises ValueError.
    """
    if isinstance(omega, Ball):
        return omega.contains(F.index_points), omega.contains(G.index_points)
    mask_f = np.asarray(omega)
    if mask_f.dtype != bool or mask_f.shape != (F.m,):
        raise ValueError("omega must be a Ball or a boolean mask with one entry per F-atom")
    sel = F.index_points[mask_f]
    return mask_f, np.all(G.index_points[:, None, :] == sel[None, :, :], axis=2).any(axis=1)


def comparison_sides(F: FiniteFrame, G: FiniteFrame, omega) -> tuple[complex, complex]:
    """Both sides of the two-frame comparison identity over Omega.

    LHS  = sum_{y in Omega} w_y <P_G ~f_y, f_y>
    RHS  = sum_{x in Omega} w_x <P_F g_x, ~g_x>
           - sum_{x in Omega, y not in Omega} Phi(x, y) w_x w_y
           + sum_{x not in Omega, y in Omega} Phi(x, y) w_x w_y
    with Phi(x, y) = <g_x, f_y><~f_y, ~g_x>.
    """
    if F.n != G.n:
        raise ValueError("frames live in different ambient dimensions")
    mask_f, mask_g = _omega_masks(F, G, omega)
    Fd = canonical_dual(F)
    Gd = canonical_dual(G)
    # matrices of the orthogonal projections onto the two spans
    P_F = (F.vectors.T * F.weights) @ Fd.vectors.conj()
    P_G = (G.vectors.T * G.weights) @ Gd.vectors.conj()

    # <P_G ~f_y, f_y> = f_y^H (P_G ~f_y)
    pg_fd = Fd.vectors @ P_G.T  # row y: (P_G ~f_y)^T
    lhs_terms = np.einsum("ij,ij->i", np.conj(F.vectors), pg_fd)
    lhs = complex(np.sum(F.weights[mask_f] * lhs_terms[mask_f]))

    pf_g = G.vectors @ P_F.T
    g_diag = np.einsum("ij,ij->i", np.conj(Gd.vectors), pf_g)
    rhs = complex(np.sum(G.weights[mask_g] * g_diag[mask_g]))

    # Phi[y, x] = <g_x, f_y> <~f_y, ~g_x>
    inner_gf = F.vectors.conj() @ G.vectors.T
    inner_dd = Fd.vectors @ Gd.vectors.conj().T
    phi = inner_gf * inner_dd
    wphi = (F.weights[:, None] * G.weights[None, :]) * phi
    rhs -= complex(np.sum(wphi[np.ix_(~mask_f, mask_g)]))
    rhs += complex(np.sum(wphi[np.ix_(mask_f, ~mask_g)]))
    return lhs, rhs


def comparison_residual(F: FiniteFrame, G: FiniteFrame, omega) -> float:
    """|LHS - RHS| of the comparison identity; zero to rounding for any Omega."""
    lhs, rhs = comparison_sides(F, G, omega)
    return abs(lhs - rhs)


def random_frame(rng: np.random.RandomState, n: int, m: int, index_dim: int = 1) -> FiniteFrame:
    """Seeded random frame: entries i.i.d. uniform on the complex square [-1,1]^2."""
    re = rng.uniform(-1.0, 1.0, size=(m, n))
    im = rng.uniform(-1.0, 1.0, size=(m, n))
    weights = rng.uniform(0.5, 1.5, size=m)
    pts = rng.uniform(-1.0, 1.0, size=(m, index_dim))
    return FiniteFrame(re + 1j * im, weights, pts)

