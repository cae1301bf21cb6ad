"""Exact finite-dimensional frame oracle.

Finite frames over finite atomic index measures in C^n: frame operator,
bounds, canonical dual, projections, the two-frame comparison identity, and
Gram/Riesz diagnostics.  All sums are finite, so the identities hold to
rounding and serve as the machine-precision reference for the continuous
machinery.

Spectra come from LAPACK through ``np.linalg.eigh``/``eigvalsh``.  Its
absolute eigenvalue error is ~1e-15 * lambda_max; every decision here
thresholds far above that (the ZERO_THRESHOLD/AMBIGUITY_BAND guard of
canonical_dual, the Gram floors of the verify module), so the higher relative
accuracy that Jacobi iterations give tiny eigenvalues of graded matrices is
not needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import Ball

__all__ = [
    "FiniteFrame",
    "DiagonalTerms",
    "frame_operator",
    "frame_bounds",
    "canonical_dual",
    "project",
    "comparison_residual",
    "comparison_sides",
    "gram",
    "riesz_bounds",
    "diagonal_terms",
    "random_frame",
    "load_frame_csv",
]

# eigenvalues below ZERO_THRESHOLD * lambda_max are treated as zero; values in
# the surrounding ambiguity band abort dual computation instead of guessing
ZERO_THRESHOLD = 1e-10
AMBIGUITY_BAND = (1e-11, 1e-9)

# framelab never calls this name.  It stays only because the benchmark's tracer
# (perfbench/tracing.py) binds it; drop it once the tracer's eigen counters move.
jacobi_eigh = np.linalg.eigh


@dataclass
class DiagonalTerms:
    """Per-index diagonal pairings against the other family's projector.

    Both dual orderings are carried: downstream bounds need <P g, ~g> <= 1
    on one side and <P ~f, f> >= 1 on the other, and the orderings differ
    only by conjugation for Hermitian projectors.
    """

    f_terms: np.ndarray          # <P_G ~f_y, f_y> per mu-atom
    f_terms_swapped: np.ndarray  # <P_G f_y, ~f_y>
    g_terms: np.ndarray          # <P_F g_x, ~g_x> per nu-atom
    g_terms_swapped: np.ndarray  # <P_F ~g_x, g_x>

    def pairs(self):
        if len(self.f_terms) != len(self.g_terms):
            raise ValueError("families have different index sizes; use the per-side arrays")
        return list(zip(self.g_terms, self.f_terms))


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


def frame_operator(F: FiniteFrame) -> np.ndarray:
    """S = sum_i w_i v_i v_i^*, symmetrised to be exactly Hermitian."""
    S = (F.vectors.T * F.weights) @ F.vectors.conj()
    return (S + S.conj().T) / 2.0


def _spectrum(F: FiniteFrame):
    return np.linalg.eigh(frame_operator(F))


def frame_bounds(F: FiniteFrame) -> tuple[float, float]:
    """(c, C): smallest nonzero and largest eigenvalue of the frame operator."""
    lam, _ = _spectrum(F)
    lam_max = float(lam[-1])
    if lam_max <= 0:
        raise ValueError("degenerate frame: all vectors vanish")
    nonzero = lam[lam > ZERO_THRESHOLD * lam_max]
    return float(nonzero[0]), lam_max


def canonical_dual(F: FiniteFrame) -> FiniteFrame:
    """Dual frame ~v_i = S^+ v_i (inverse on the span, zero elsewhere)."""
    lam, Q = _spectrum(F)
    lam_max = float(lam[-1])
    if lam_max <= 0:
        raise ValueError("degenerate frame: all vectors vanish")
    rel = lam / lam_max
    ambiguous = (rel >= AMBIGUITY_BAND[0]) & (rel <= AMBIGUITY_BAND[1])
    if np.any(ambiguous):
        raise ValueError("numerically rank-deficient: eigenvalue inside the zero-threshold band")
    inv = np.where(rel > ZERO_THRESHOLD, 1.0 / np.where(rel > ZERO_THRESHOLD, lam, 1.0), 0.0)
    S_pinv = (Q * inv) @ Q.conj().T
    dual_vectors = F.vectors @ np.conj(S_pinv)
    return FiniteFrame(dual_vectors, F.weights.copy(), F.index_points.copy())


def projector_matrix(F: FiniteFrame, dual: FiniteFrame | None = None) -> np.ndarray:
    """Matrix of the orthogonal projection onto span{v_i}."""
    dual = canonical_dual(F) if dual is None else dual
    return (F.vectors.T * F.weights) @ dual.vectors.conj()


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

    A Ball tests both atom sets geometrically.  An index sequence (or boolean
    mask) selects F-atoms; G-atoms belong when their location exactly matches
    a selected F-atom location.
    """
    if isinstance(omega, Ball):
        return omega.contains(F.index_points), omega.contains(G.index_points)
    omega = np.asarray(omega)
    if omega.dtype == bool:
        mask_f = omega
        if mask_f.shape != (F.m,):
            raise ValueError("boolean omega mask must have one entry per F-atom")
    else:
        mask_f = np.zeros(F.m, dtype=bool)
        mask_f[omega.astype(int)] = True
    sel = F.index_points[mask_f]
    if len(sel) == 0:
        mask_g = np.zeros(G.m, dtype=bool)
    else:
        mask_g = np.array([np.any(np.all(sel == p[None, :], axis=1)) for p in G.index_points])
    return mask_f, mask_g


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
    P_F = projector_matrix(F, Fd)
    P_G = projector_matrix(G, Gd)

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


def gram(F: FiniteFrame) -> np.ndarray:
    """G_ij = sqrt(w_i w_j) <v_j, v_i>, symmetrised to be exactly Hermitian."""
    M = F.vectors.conj() @ F.vectors.T
    rw = np.sqrt(F.weights)
    G = rw[:, None] * M * rw[None, :]
    return (G + G.conj().T) / 2.0


def riesz_bounds(F: FiniteFrame) -> tuple[float, float]:
    """(min, max) eigenvalues of the Gram matrix, zeros included."""
    lam = np.linalg.eigvalsh(gram(F))
    return float(lam[0]), float(lam[-1])


def diagonal_terms(F: FiniteFrame, G: FiniteFrame) -> DiagonalTerms:
    """Diagonal pairings gating the density theorem's hypotheses."""
    Fd = canonical_dual(F)
    Gd = canonical_dual(G)
    P_F = projector_matrix(F, Fd)
    P_G = projector_matrix(G, Gd)

    pg_fd = Fd.vectors @ P_G.T
    pg_f = F.vectors @ P_G.T
    f_terms = np.einsum("ij,ij->i", np.conj(F.vectors), pg_fd)
    f_swapped = np.einsum("ij,ij->i", np.conj(Fd.vectors), pg_f)

    pf_g = G.vectors @ P_F.T
    pf_gd = Gd.vectors @ P_F.T
    g_terms = np.einsum("ij,ij->i", np.conj(Gd.vectors), pf_g)
    g_swapped = np.einsum("ij,ij->i", np.conj(G.vectors), pf_gd)
    return DiagonalTerms(f_terms, f_swapped, g_terms, g_swapped)


def random_frame(rng: np.random.RandomState, n: int, m: int, index_dim: int = 1) -> FiniteFrame:
    """Seeded random frame: entries i.i.d. uniform on the complex square [-1,1]^2."""
    re = rng.uniform(-1.0, 1.0, size=(m, n))
    im = rng.uniform(-1.0, 1.0, size=(m, n))
    weights = rng.uniform(0.5, 1.5, size=m)
    pts = rng.uniform(-1.0, 1.0, size=(m, index_dim))
    return FiniteFrame(re + 1j * im, weights, pts)


def load_frame_csv(path) -> FiniteFrame:
    """Frame from CSV: each row is re/im interleaved vector entries then weight."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.shape[1] < 3 or rows.shape[1] % 2 == 0:
        raise ValueError("frame CSV rows must be re,im pairs followed by a weight")
    w = rows[:, -1]
    re = rows[:, :-1:2]
    im = rows[:, 1:-1:2]
    return FiniteFrame(re + 1j * im, w)
