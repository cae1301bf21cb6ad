import math

import numpy as np
import pytest

from framelab.kernels import (
    FockKernel,
    GaborGaussianKernel,
    PaleyWienerKernel,
    TabulatedKernel,
    diagonal_bounds,
    kernel_eval,
    kernel_from_config,
    normalized_inner,
)
from framelab.space import Ball


def pw_frequency_oracle(x, y, band=math.pi, n_nodes=200):
    """Independent oracle: (1/2pi) int_{-band}^{band} e^{i xi (x-y)} d xi by Gauss-Legendre."""
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
        assert kernel_eval(PaleyWienerKernel(), [0.0], [0.0]) == pytest.approx(1.0)

    def test_half_integer_against_oracle(self):
        got = kernel_eval(PaleyWienerKernel(), [0.0], [0.5])
        oracle = pw_frequency_oracle(0.0, 0.5)
        assert got == pytest.approx(2 / math.pi, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_integer_zero(self):
        got = kernel_eval(PaleyWienerKernel(), [0.0], [1.0])
        assert abs(got) < 1e-15
        assert abs(pw_frequency_oracle(0.0, 1.0)) < 1e-13

    def test_general_band_oracle(self):
        band = 2.0
        K = PaleyWienerKernel(band=band)
        for x, y in ((0.0, 0.3), (1.2, -0.7), (0.5, 0.5)):
            got = kernel_eval(K, [x], [y])
            assert got == pytest.approx(pw_frequency_oracle(x, y, band=band), abs=1e-12)


class TestFock:
    def test_normalized_modulus_law(self):
        ni = normalized_inner(FockKernel(), [0, 0], [1, 0])
        assert ni.modulus_sq == pytest.approx(math.exp(-math.pi), abs=1e-12)

    def test_closed_form_cross_check(self):
        # |<k_z, k_w>|^2 = exp(2 pi Re(z conj(w)) - pi |z|^2 - pi |w|^2)
        rng = np.random.RandomState(5)
        K = FockKernel()
        for _ in range(50):
            z = rng.uniform(-2, 2, 2)
            w = rng.uniform(-2, 2, 2)
            zc, wc = complex(*z), complex(*w)
            expect = math.exp(2 * math.pi * (zc * wc.conjugate()).real - math.pi * (abs(zc) ** 2 + abs(wc) ** 2))
            assert normalized_inner(K, z, w).modulus_sq == pytest.approx(expect, abs=1e-12)

    def test_modulus_law_random(self):
        rng = np.random.RandomState(9)
        K = FockKernel()
        for _ in range(50):
            z = rng.uniform(-3, 3, 2)
            w = rng.uniform(-3, 3, 2)
            expect = math.exp(-math.pi * float(np.sum((z - w) ** 2)))
            assert abs(normalized_inner(K, z, w).modulus_sq - expect) < 1e-12


class TestGaborGaussian:
    def test_normalized_modulus(self):
        ni = normalized_inner(GaborGaussianKernel(1), [0, 0], [1, 0])
        assert ni.modulus_sq == pytest.approx(math.exp(-math.pi), abs=1e-12)

    def test_closed_form_regression_against_quadrature(self):
        # the closed form was derived once from this integral; keep them locked
        rng = np.random.RandomState(2)
        K = GaborGaussianKernel(1)
        for _ in range(8):
            p, q, pp, qp = rng.uniform(-1.5, 1.5, 4)
            got = kernel_eval(K, [p, q], [pp, qp])
            oracle = gabor_direct_oracle(p, q, pp, qp)
            assert got == pytest.approx(oracle, abs=1e-10)

    def test_window_is_unit_norm(self):
        assert kernel_eval(GaborGaussianKernel(1), [0, 0], [0, 0]) == pytest.approx(1.0)

    def test_two_variables(self):
        K = GaborGaussianKernel(2)
        lam = np.array([0.3, -0.2, 0.1, 0.4])
        mu = np.array([0.0, 0.5, -0.3, 0.2])
        val = normalized_inner(K, lam, mu)
        assert val.modulus_sq == pytest.approx(math.exp(-math.pi * float(np.sum((lam - mu) ** 2))), abs=1e-12)


class TestSharedInvariants:
    KERNELS = [
        PaleyWienerKernel(),
        PaleyWienerKernel(band=2.5),
        FockKernel(),
        GaborGaussianKernel(1),
    ]

    @pytest.mark.parametrize("kernel", KERNELS, ids=["pw-pi", "pw-2.5", "fock", "gabor"])
    def test_hermitian_symmetry(self, kernel):
        # tolerance is relative: the raw Fock kernel grows like e^{pi |z|^2}
        rng = np.random.RandomState(1)
        for _ in range(30):
            x = rng.uniform(-2, 2, kernel.dim)
            y = rng.uniform(-2, 2, kernel.dim)
            a = kernel_eval(kernel, x, y)
            b = np.conj(kernel_eval(kernel, y, x))
            assert abs(a - b) < 1e-14 * max(1.0, abs(a))

    @pytest.mark.parametrize("kernel", KERNELS, ids=["pw-pi", "pw-2.5", "fock", "gabor"])
    def test_normalized_bounded_by_one(self, kernel):
        rng = np.random.RandomState(4)
        for _ in range(30):
            x = rng.uniform(-2.5, 2.5, kernel.dim)
            y = rng.uniform(-2.5, 2.5, kernel.dim)
            assert abs(normalized_inner(kernel, x, y).value) <= 1 + 1e-12

    @pytest.mark.parametrize("kernel", KERNELS, ids=["pw-pi", "pw-2.5", "fock", "gabor"])
    def test_translation_invariant_modulus(self, kernel):
        rng = np.random.RandomState(8)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, kernel.dim)
            y = rng.uniform(-1.5, 1.5, kernel.dim)
            v = rng.uniform(-1, 1, kernel.dim)
            a = normalized_inner(kernel, x, y).modulus_sq
            b = normalized_inner(kernel, x + v, y + v).modulus_sq
            assert a == pytest.approx(b, abs=2e-12)

    @pytest.mark.parametrize("kernel", KERNELS, ids=["pw-pi", "pw-2.5", "fock", "gabor"])
    def test_gram_positive_semidefinite(self, kernel):
        rng = np.random.RandomState(6)
        pts = rng.uniform(-1.5, 1.5, size=(12, kernel.dim))
        G = kernel.cross(pts, pts)
        lam = np.linalg.eigvalsh(G)
        assert lam[0] >= -1e-10 * max(lam[-1], 1.0)


class TestDiagonalBounds:
    def test_paley_wiener_constant(self):
        lo, hi = diagonal_bounds(PaleyWienerKernel(), Ball([0.0], 3.0), 0.25)
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_fock_growth(self):
        lo, hi = diagonal_bounds(FockKernel(), Ball([0, 0], 1.0), 0.1)
        assert lo == pytest.approx(1.0, abs=1e-12)  # grid contains the origin
        assert hi == pytest.approx(math.exp(math.pi), rel=1e-12)  # |z| = 1 on the grid

    def test_tabulated_constant(self):
        K = TabulatedKernel(lambda x, y: 3.5, dim=2)
        lo, hi = diagonal_bounds(K, Ball([0, 0], 1.0), 0.5)
        assert (lo, hi) == (3.5, 3.5)

    def test_bad_spacing(self):
        with pytest.raises(ValueError, match="grid spacing"):
            diagonal_bounds(FockKernel(), Ball([0, 0], 1.0), -1.0)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty sample grid"):
            diagonal_bounds(FockKernel(), Ball([0.05, 0.05], 0.01), 5.0)


class TestTabulated:
    def test_degenerate_diagonal_rejected(self):
        K = TabulatedKernel(lambda x, y: 0.0, dim=1)
        with pytest.raises(ValueError, match="kernel degenerate at point"):
            normalized_inner(K, [0.0], [1.0])

    def test_normalization(self):
        K = TabulatedKernel(lambda x, y: 2.0 * math.exp(-abs(x[0] - y[0])), dim=1)
        ni = normalized_inner(K, [0.0], [1.0])
        assert ni.value == pytest.approx(math.exp(-1.0))


class TestConfig:
    def test_kernel_from_config(self):
        assert isinstance(kernel_from_config({"kernel": "fock"}), FockKernel)
        k = kernel_from_config({"kernel": "paley-wiener", "params": {"band": 2.0}})
        assert k.band == 2.0
        k = kernel_from_config({"kernel": "gabor-gaussian", "params": {"n": 2}})
        assert k.dim == 4

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kernel_from_config({"kernel": "bessel"})
