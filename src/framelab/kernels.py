"""Reproducing kernels of the model spaces and their normalized versions.

Conventions fixed here once:
  Paley-Wiener, band b (default pi):  K(x, y) = sin(b (x - y)) / (pi (x - y)),
      so the diagonal is b / pi and equals 1 at the default band.
  Fock (one complex variable, points in R^2 ~ C):  K(z, w) = exp(pi z conj(w)),
      giving |<k_z, k_w>|^2 = exp(-pi |z - w|^2); the matching normalized
      index measure is Lebesgue on C.
  Gabor-Gaussian in n variables (phase-space points (p, q) in R^{2n}, window
      2^{n/4} exp(-pi |x|^2)):  the family is already normalized and
      <g_l, g_m> = exp(i pi (q - q') . (p + p')) exp(-pi (|p - p'|^2 + |q - q'|^2)/2),
      a closed form derived from the Gaussian integral and regression-tested
      against direct quadrature of the time-frequency shift inner product.

kernel.normalized_cross(x, y) returns the matrix of normalized kernels
K(x_i, y_j) / sqrt(K(x_i, x_i) K(y_j, y_j)) = <k_{y_j}, k_{x_i}>; Hermitian
symmetry is structural for every variant.  The array is real (float) for
the real sinc kernel and complex for the others.  Only the normalized families
enter the lab, and they are computed through exponents with nonpositive real
part, so they stay finite where the raw Fock kernel exp(pi |z|^2) would
overflow.  A kernel is one class: these Gram entries, dim, mode_density,
params (name -> schema of each param it reads), profile (the key of its
framelab.localization record, or None), quarter_turn and twin (its Gram
symmetry, see verify._gram_spectrum).  KERNELS maps config names to classes.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "KERNELS",
    "PaleyWienerKernel",
    "FockKernel",
    "GaborGaussianKernel",
    "TabulatedKernel",
]


def _rows(points, dim: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != dim:
        raise ValueError(f"points must have dimension {dim}, got {pts.shape[1]}")
    return pts


class PaleyWienerKernel:
    """Sinc kernel of the band-limited space on R."""

    def __init__(self, band: float = math.pi):
        if band <= 0:
            raise ValueError("band must be positive")
        self.band = float(band)

    params = {"band": {"type": "number", "exclusiveMinimum": 0}}
    dim = 1
    profile = "sinc2"
    quarter_turn = False
    twin = None

    @property
    def mode_density(self) -> float:
        # local dimension per unit length of the index line
        return self.band / math.pi

    def normalized_cross(self, x, y) -> np.ndarray:
        t = _rows(x, 1)[:, 0][:, None] - _rows(y, 1)[:, 0][None, :]
        return np.sinc(self.band * t / math.pi)


class FockKernel:
    """Bargmann-Fock kernel exp(pi z conj(w)) in one complex variable."""

    params = {}
    dim = 2
    mode_density = 1.0
    profile = "gaussian"
    quarter_turn = True  # the Gram is invariant under the quarter turn z -> iz
    twin = None

    @staticmethod
    def _as_complex(pts) -> np.ndarray:
        return pts[:, 0] + 1j * pts[:, 1]

    def normalized_cross(self, x, y) -> np.ndarray:
        z = self._as_complex(_rows(x, 2))[:, None]
        w = self._as_complex(_rows(y, 2))[None, :]
        expo = math.pi * (z * np.conj(w) - 0.5 * np.abs(z) ** 2 - 0.5 * np.abs(w) ** 2)
        return np.exp(expo)


class GaborGaussianKernel:
    """Coherent-state family of time-frequency shifts of the Gaussian window."""

    def __init__(self, n: int = 1):
        if n < 1:
            raise ValueError("number of variables must be >= 1")
        self.n = int(n)
        # n = 1 shares Fock's spectrum: the Bargmann transform makes this Gram D G_Fock D*, D = diag(exp(i pi p q))
        self.twin = FockKernel() if n == 1 else None
        self.profile = "gaussian" if n == 1 else None  # the Gaussian record's masses are taken in the plane

    @property
    def dim(self) -> int:
        return 2 * self.n

    params = {"n": {"type": "integer", "minimum": 1}}
    mode_density = 1.0
    quarter_turn = False

    def normalized_cross(self, x, y) -> np.ndarray:
        lam = _rows(x, self.dim)
        mu = _rows(y, self.dim)
        p, q = lam[:, : self.n][:, None, :], lam[:, self.n :][:, None, :]
        pp, qp = mu[:, : self.n][None, :, :], mu[:, self.n :][None, :, :]
        dp2 = np.sum((p - pp) ** 2, axis=2)
        dq2 = np.sum((q - qp) ** 2, axis=2)
        phase = math.pi * np.sum((q - qp) * (p + pp), axis=2)
        return np.exp(-0.5 * math.pi * (dp2 + dq2) + 1j * phase)


class TabulatedKernel:
    """Kernel given by a user callback K(x, y) -> complex on single points, for Gram studies only.

    The callback must supply its own (positive) diagonal; nothing is
    interpolated.
    """

    profile = None  # a callback need not be a function of x - y, so framelab.localization refuses it
    quarter_turn = False
    twin = None

    def __init__(self, fn, dim: int, mode_density: float):
        self.fn = fn
        self.dim = int(dim)
        self.mode_density = mode_density

    def diagonal(self, x) -> np.ndarray:
        pts = _rows(x, self.dim)
        return np.array([complex(self.fn(p, p)).real for p in pts])

    def cross(self, x, y) -> np.ndarray:
        xp = _rows(x, self.dim)
        yp = _rows(y, self.dim)
        out = np.empty((len(xp), len(yp)), dtype=complex)
        for i, p in enumerate(xp):
            for j, q in enumerate(yp):
                out[i, j] = complex(self.fn(p, q))
        return out

    def normalized_cross(self, x, y) -> np.ndarray:
        kxy = self.cross(x, y)
        dx = self.diagonal(x)
        dy = self.diagonal(y)
        if np.any(dx <= 0) or np.any(dy <= 0):
            raise ValueError("kernel degenerate at point: nonpositive diagonal")
        return kxy / np.sqrt(dx)[:, None] / np.sqrt(dy)[None, :]


KERNELS = {"paley-wiener": PaleyWienerKernel, "fock": FockKernel, "gabor-gaussian": GaborGaussianKernel}
