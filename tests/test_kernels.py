import math

import numpy as np
import pytest

from framelab.kernels import FockKernel, GaborGaussianKernel, PaleyWienerKernel, TabulatedKernel
from framelab.space import Ball


def pw_frequency_oracle(x, y, band=math.pi, n_nodes=200):
    """Independent oracle: (1/2pi) int_{-band}^{band} e^{i xi (x-y)} d xi by Gauss-Legendre.

    This is the raw kernel K(x, y); the normalized one is K(x, y) pi / band.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    xi = band * nodes
    vals = np.exp(1j * xi * (x - y)) * weights
    return complex(np.sum(vals)) * band / (2 * math.pi)


def gabor_direct_oracle(p, q, pp, qp, n_nodes=6000, span=12.0):
    """Independent oracle: direct integral of the time-frequency shift inner product."""
    h = 2 * span / n_nodes
    x = -span + (np.arange(n_nodes) + 0.5) * h
    phi = 2 ** 0.25 * np.exp(-math.pi * x**2)
    fa = np.exp(2j * math.pi * q * x) * 2 ** 0.25 * np.exp(-math.pi * (x - p) ** 2)
    fb = np.exp(2j * math.pi * qp * x) * 2 ** 0.25 * np.exp(-math.pi * (x - pp) ** 2)
    return complex(np.sum(fa * np.conj(fb))) * h


class TestPaleyWiener:
    def test_diagonal_limit(self):
        assert PaleyWienerKernel().normalized_cross([0.0], [0.0])[0, 0] == pytest.approx(1.0)

    def test_half_integer_against_oracle(self):
        got = PaleyWienerKernel().normalized_cross([0.0], [0.5])[0, 0]
        oracle = pw_frequency_oracle(0.0, 0.5)
        assert got == pytest.approx(2 / math.pi, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_integer_zero(self):
        got = PaleyWienerKernel().normalized_cross([0.0], [1.0])[0, 0]
        assert abs(got) < 1e-15
        assert abs(pw_frequency_oracle(0.0, 1.0)) < 1e-13

    def test_general_band_oracle(self):
        band = 2.0
        K = PaleyWienerKernel(band=band)
        for x, y in ((0.0, 0.3), (1.2, -0.7), (0.5, 0.5)):
            got = K.normalized_cross([x], [y])[0, 0]
            assert got == pytest.approx(pw_frequency_oracle(x, y, band=band) * math.pi / band, abs=1e-12)

    def test_gram_is_real(self):
        band = 2.0
        x = np.linspace(-3.0, 3.0, 13).reshape(-1, 1)
        G = PaleyWienerKernel(band=band).normalized_cross(x, np.vstack([x, x + 0.3]))
        assert G.dtype == np.float64
        t = x - np.vstack([x, x + 0.3]).T
        safe = np.where(t == 0, 1.0, t)
        np.testing.assert_allclose(G, np.where(t == 0, 1.0, np.sin(band * safe) / (band * safe)), rtol=0, atol=1e-15)


class TestFock:
    def test_normalized_modulus_law(self):
        val = FockKernel().normalized_cross([0, 0], [1, 0])[0, 0]
        assert abs(val) ** 2 == pytest.approx(math.exp(-math.pi), abs=1e-12)

    def test_closed_form_cross_check(self):
        # |<k_z, k_w>|^2 = exp(2 pi Re(z conj(w)) - pi |z|^2 - pi |w|^2)
        rng = np.random.RandomState(5)
        K = FockKernel()
        for _ in range(50):
            z = rng.uniform(-2, 2, 2)
            w = rng.uniform(-2, 2, 2)
            zc, wc = complex(*z), complex(*w)
            expect = math.exp(2 * math.pi * (zc * wc.conjugate()).real - math.pi * (abs(zc) ** 2 + abs(wc) ** 2))
            assert abs(K.normalized_cross(z, w)[0, 0]) ** 2 == pytest.approx(expect, abs=1e-12)

    def test_modulus_law_random(self):
        rng = np.random.RandomState(9)
        K = FockKernel()
        for _ in range(50):
            z = rng.uniform(-3, 3, 2)
            w = rng.uniform(-3, 3, 2)
            expect = math.exp(-math.pi * float(np.sum((z - w) ** 2)))
            assert abs(abs(K.normalized_cross(z, w)[0, 0]) ** 2 - expect) < 1e-12


class TestGaborGaussian:
    def test_normalized_modulus(self):
        val = GaborGaussianKernel(1).normalized_cross([0, 0], [1, 0])[0, 0]
        assert abs(val) ** 2 == pytest.approx(math.exp(-math.pi), abs=1e-12)

    def test_closed_form_regression_against_quadrature(self):
        # the closed form was derived once from this integral; keep them locked
        rng = np.random.RandomState(2)
        K = GaborGaussianKernel(1)
        for _ in range(8):
            p, q, pp, qp = rng.uniform(-1.5, 1.5, 4)
            got = K.normalized_cross([p, q], [pp, qp])[0, 0]
            oracle = gabor_direct_oracle(p, q, pp, qp)
            assert got == pytest.approx(oracle, abs=1e-10)

    def test_window_is_unit_norm(self):
        assert GaborGaussianKernel(1).normalized_cross([0, 0], [0, 0])[0, 0] == pytest.approx(1.0)

    def test_two_variables(self):
        K = GaborGaussianKernel(2)
        lam = np.array([0.3, -0.2, 0.1, 0.4])
        mu = np.array([0.0, 0.5, -0.3, 0.2])
        val = K.normalized_cross(lam, mu)[0, 0]
        assert abs(val) ** 2 == pytest.approx(math.exp(-math.pi * float(np.sum((lam - mu) ** 2))), abs=1e-12)


class TestSharedInvariants:
    KERNELS = [
        PaleyWienerKernel(),
        PaleyWienerKernel(band=2.5),
        FockKernel(),
        GaborGaussianKernel(1),
    ]

    @pytest.mark.parametrize("kernel", KERNELS, ids=["pw-pi", "pw-2.5", "fock", "gabor"])
    def test_hermitian_symmetry(self, kernel):
        rng = np.random.RandomState(1)
        for _ in range(30):
            x = rng.uniform(-2, 2, kernel.dim)
            y = rng.uniform(-2, 2, kernel.dim)
            a = kernel.normalized_cross(x, y)[0, 0]
            b = np.conj(kernel.normalized_cross(y, x)[0, 0])
            assert abs(a - b) < 1e-14

    @pytest.mark.parametrize("kernel", KERNELS, ids=["pw-pi", "pw-2.5", "fock", "gabor"])
    def test_normalized_bounded_by_one(self, kernel):
        rng = np.random.RandomState(4)
        for _ in range(30):
            x = rng.uniform(-2.5, 2.5, kernel.dim)
            y = rng.uniform(-2.5, 2.5, kernel.dim)
            assert abs(kernel.normalized_cross(x, y)[0, 0]) <= 1 + 1e-12

    @pytest.mark.parametrize("kernel", KERNELS, ids=["pw-pi", "pw-2.5", "fock", "gabor"])
    def test_translation_invariant_modulus(self, kernel):
        rng = np.random.RandomState(8)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, kernel.dim)
            y = rng.uniform(-1.5, 1.5, kernel.dim)
            v = rng.uniform(-1, 1, kernel.dim)
            a = abs(kernel.normalized_cross(x, y)[0, 0]) ** 2
            b = abs(kernel.normalized_cross(x + v, y + v)[0, 0]) ** 2
            assert a == pytest.approx(b, abs=2e-12)

    @pytest.mark.parametrize("kernel", KERNELS, ids=["pw-pi", "pw-2.5", "fock", "gabor"])
    def test_gram_positive_semidefinite(self, kernel):
        rng = np.random.RandomState(6)
        pts = rng.uniform(-1.5, 1.5, size=(12, kernel.dim))
        G = kernel.normalized_cross(pts, pts)
        lam = np.linalg.eigvalsh(G)
        assert lam[0] >= -1e-10 * max(lam[-1], 1.0)


def diagonal_range(diagonal, region, spacing):
    """(min, max) of diagonal(points) over the grid points of spacing h inside a ball."""
    n = math.floor(2 * region.radius / spacing) + 1
    axes = [c - region.radius + spacing * np.arange(n) for c in region.center]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    diag = np.real(diagonal(pts[region.contains(pts)]))
    return float(np.min(diag)), float(np.max(diag))


def normalized_diagonal(kernel):
    return lambda pts: np.array([kernel.normalized_cross(p, p)[0, 0] for p in pts])


class TestDiagonalBounds:
    def test_paley_wiener_constant(self):
        lo, hi = diagonal_range(normalized_diagonal(PaleyWienerKernel()), Ball([0.0], 3.0), 0.25)
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_fock_growth(self):
        # the raw diagonal exp(pi |z|^2) overflows beyond |z| ~ 15; the normalized one stays 1
        lo, hi = diagonal_range(normalized_diagonal(FockKernel()), Ball([0, 0], 20.0), 2.0)
        assert (lo, hi) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))

    def test_tabulated_constant(self):
        K = TabulatedKernel(lambda x, y: 3.5, dim=2, mode_density=1.0)
        lo, hi = diagonal_range(K.diagonal, Ball([0, 0], 1.0), 0.5)
        assert (lo, hi) == (3.5, 3.5)


class TestTabulated:
    def test_degenerate_diagonal_rejected(self):
        K = TabulatedKernel(lambda x, y: 0.0, dim=1, mode_density=1.0)
        with pytest.raises(ValueError, match="kernel degenerate at point"):
            K.normalized_cross([0.0], [1.0])

    def test_normalization(self):
        K = TabulatedKernel(lambda x, y: 2.0 * math.exp(-abs(x[0] - y[0])), dim=1, mode_density=1.0)
        assert K.normalized_cross([0.0], [1.0])[0, 0] == pytest.approx(math.exp(-1.0))
