import math

import numpy as np
import pytest

from framelab.finframe import (
    FiniteFrame,
    canonical_dual,
    comparison_residual,
    comparison_sides,
    frame_bounds,
    project,
    random_frame,
)
from framelab.space import Ball

MERCEDES = np.array([[0.0, 1.0], [-math.sqrt(3) / 2, -0.5], [math.sqrt(3) / 2, -0.5]], dtype=complex)


def direct_projection(vectors, f):
    """Oracle: orthogonal projection onto the span via an orthonormal basis (SVD)."""
    U, s, _ = np.linalg.svd(np.asarray(vectors, dtype=complex).T, full_matrices=False)
    basis = U[:, s > 1e-12 * max(s[0], 1e-300)]
    return basis @ (basis.conj().T @ f)


def frame_operator(F):
    """Oracle: S = sum_i w_i v_i v_i^* formed directly (framelab never forms it)."""
    return (F.vectors.T * F.weights) @ F.vectors.conj()


class TestFrameOperator:
    """The test-side frame operator against frame_bounds and the dual, whose frame operator is S^+."""

    def test_orthonormal_identity(self):
        F = FiniteFrame(np.eye(2, dtype=complex))
        np.testing.assert_allclose(frame_operator(F), np.eye(2), atol=1e-15)
        assert frame_bounds(F) == (pytest.approx(1.0, abs=1e-15), pytest.approx(1.0, abs=1e-15))
        np.testing.assert_allclose(frame_operator(canonical_dual(F)), np.eye(2), atol=1e-15)

    def test_mercedes(self):
        F = FiniteFrame(MERCEDES)
        np.testing.assert_allclose(frame_operator(F), 1.5 * np.eye(2), atol=1e-14)
        assert frame_bounds(F) == (pytest.approx(1.5, abs=1e-14), pytest.approx(1.5, abs=1e-14))
        np.testing.assert_allclose(frame_operator(canonical_dual(F)), np.eye(2) / 1.5, atol=1e-14)

    def test_repeated_vector(self):
        F = FiniteFrame(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex))
        np.testing.assert_allclose(frame_operator(F), np.diag([2.0, 1.0]), atol=1e-15)
        assert frame_bounds(F) == (pytest.approx(1.0, abs=1e-14), pytest.approx(2.0, abs=1e-14))
        np.testing.assert_allclose(frame_operator(canonical_dual(F)), np.diag([0.5, 1.0]), atol=1e-15)


class TestFrameBounds:
    def test_orthonormal(self):
        assert frame_bounds(FiniteFrame(np.eye(3, dtype=complex))) == (1.0, 1.0)

    def test_mercedes(self):
        c, C = frame_bounds(FiniteFrame(MERCEDES))
        assert c == pytest.approx(1.5, abs=1e-12)
        assert C == pytest.approx(1.5, abs=1e-12)

    def test_repeated(self):
        c, C = frame_bounds(FiniteFrame(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)))
        assert c == pytest.approx(1.0, abs=1e-12)
        assert C == pytest.approx(2.0, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="degenerate frame"):
            frame_bounds(FiniteFrame(np.zeros((2, 3), dtype=complex)))

    def test_frame_inequality_random(self):
        # c ||f||^2 <= sum w |<f, v>|^2 <= C ||f||^2, 200 seeded frames
        rng = np.random.RandomState(42)
        for _ in range(200):
            n = int(rng.randint(1, 9))
            m = int(rng.randint(1, 17))
            F = random_frame(rng, n, m)
            c, C = frame_bounds(F)
            for _ in range(50):
                f = rng.randn(n) + 1j * rng.randn(n)
                # restrict to the span: the lower bound holds there
                fs = direct_projection(F.vectors, f)
                e = float(np.real(np.sum(F.weights * np.abs(F.vectors.conj() @ fs) ** 2)))
                nf = float(np.linalg.norm(fs) ** 2)
                if nf < 1e-12:
                    continue
                assert e >= c * nf * (1 - 1e-9)
                assert e <= C * nf * (1 + 1e-9)


class TestCanonicalDual:
    def test_orthonormal_self_dual(self):
        F = FiniteFrame(np.eye(2, dtype=complex))
        np.testing.assert_allclose(canonical_dual(F).vectors, F.vectors, atol=1e-14)

    def test_mercedes_scaling(self):
        D = canonical_dual(FiniteFrame(MERCEDES))
        np.testing.assert_allclose(D.vectors, MERCEDES * (2.0 / 3.0), atol=1e-13)

    def test_repeated_split(self):
        F = FiniteFrame(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex))
        D = canonical_dual(F)
        np.testing.assert_allclose(
            D.vectors, np.array([[0.5, 0], [0.5, 0], [0, 1]]), atol=1e-14
        )

    def test_parseval_self_duality_random(self):
        rng = np.random.RandomState(5)
        for _ in range(20):
            n = int(rng.randint(1, 6))
            m = n + int(rng.randint(1, 6))
            F = random_frame(rng, n, m)
            # normalize into a Parseval frame via S^{-1/2} (rows: v @ conj(H))
            lam, Q = np.linalg.eigh(frame_operator(F))
            half = (Q * (1.0 / np.sqrt(lam))) @ Q.conj().T
            P = FiniteFrame(F.vectors @ np.conj(half), F.weights, F.index_points)
            c, C = frame_bounds(P)
            assert abs(c - 1) < 1e-10 and abs(C - 1) < 1e-10
            np.testing.assert_allclose(canonical_dual(P).vectors, P.vectors, atol=1e-10)

    def test_rank_deficiency_band_rejected(self):
        eps = 1e-10  # relative eigenvalue inside the ambiguity band
        F = FiniteFrame(np.array([[1, 0], [0, math.sqrt(eps)]], dtype=complex))
        with pytest.raises(ValueError, match="numerically rank-deficient"):
            canonical_dual(F)


class TestProject:
    def test_full_span_identity(self):
        rng = np.random.RandomState(0)
        F = random_frame(rng, 3, 7)
        f = rng.randn(3) + 1j * rng.randn(3)
        np.testing.assert_allclose(project(F, f), f, atol=1e-11)

    def test_coordinate_projection(self):
        F = FiniteFrame(np.array([[1, 0]], dtype=complex))
        got = project(F, np.array([3.0, 4.0j]))
        np.testing.assert_allclose(got, [3.0, 0.0], atol=1e-14)

    def test_mercedes_span(self):
        F = FiniteFrame(MERCEDES)
        got = project(F, np.array([1.0, 1.0], dtype=complex))
        np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-12)

    def test_both_formulas_match_direct_projection(self):
        # synthesis and analysis formulas both equal the SVD-based
        # orthogonal projection, and are idempotent
        rng = np.random.RandomState(17)
        for _ in range(100):
            n = int(rng.randint(1, 9))
            m = int(rng.randint(1, 17))
            F = random_frame(rng, n, m)
            f = rng.randn(n) + 1j * rng.randn(n)
            p_syn = project(F, f, formula="synthesis")
            p_ana = project(F, f, formula="analysis")
            p_direct = direct_projection(F.vectors, f)
            assert np.linalg.norm(p_syn - p_direct) < 1e-10
            assert np.linalg.norm(p_ana - p_direct) < 1e-10
            assert np.linalg.norm(project(F, p_syn) - p_syn) < 1e-12


class TestComparisonIdentity:
    def test_orthonormal_single_index(self):
        F = FiniteFrame(np.eye(2, dtype=complex))
        G = FiniteFrame(np.eye(2, dtype=complex))
        lhs, rhs = comparison_sides(F, G, np.array([True, False]))
        assert lhs == pytest.approx(1.0, abs=1e-14)
        assert abs(lhs - rhs) < 1e-14

    def test_empty_omega(self):
        F = FiniteFrame(np.eye(2, dtype=complex))
        lhs, rhs = comparison_sides(F, F, np.zeros(2, dtype=bool))
        assert lhs == 0 and rhs == 0

    def test_residual_small_on_random_pairs(self):
        rng = np.random.RandomState(101)
        for trial in range(100):
            n = int(rng.randint(1, 9))
            F = random_frame(rng, n, int(rng.randint(1, 17)), index_dim=2)
            G = random_frame(rng, n, int(rng.randint(1, 17)), index_dim=2)
            if trial % 2:
                omega = Ball(rng.uniform(-1, 1, 2), float(rng.uniform(0.3, 1.4)))
            else:
                omega = rng.rand(F.m) < 0.5
            assert comparison_residual(F, G, omega) < 1e-10

    def test_omega_ball_membership_both_sides(self):
        rng = np.random.RandomState(3)
        F = random_frame(rng, 3, 6, index_dim=1)
        G = random_frame(rng, 3, 5, index_dim=1)
        omega = Ball([0.0], 0.5)
        assert comparison_residual(F, G, omega) < 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.RandomState(1)
        with pytest.raises(ValueError, match="ambient"):
            comparison_residual(random_frame(rng, 2, 3), random_frame(rng, 3, 3), np.array([True, False, False]))

    @pytest.mark.parametrize(
        "omega",
        [np.array([0]), np.array([True, False, True]), None],
        ids=["index-sequence", "wrong-length", "none"],
    )
    def test_omega_is_a_ball_or_a_boolean_mask(self, omega):
        F = FiniteFrame(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="Ball or a boolean mask"):
            comparison_residual(F, F, omega)


def gram_oracle(F):
    """Gram matrix G[i, j] = sqrt(w_i w_j) <v_j, v_i> of the weighted vectors."""
    W = F.vectors * np.sqrt(F.weights)[:, None]
    return W.conj() @ W.T


class TestGramRiesz:
    """The Gram matrix shares its nonzero spectrum with the frame operator."""

    def test_orthonormal_gram(self):
        F = FiniteFrame(np.eye(3, dtype=complex))
        np.testing.assert_allclose(gram_oracle(F), np.eye(3), atol=1e-15)
        assert frame_bounds(F) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_repeated_vector_gram(self):
        F = FiniteFrame(np.array([[1, 0], [1, 0]], dtype=complex))
        np.testing.assert_allclose(gram_oracle(F), np.ones((2, 2)), atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(gram_oracle(F)), [0.0, 2.0], atol=1e-14)
        # the zero Gram eigenvalue is the kernel of synthesis, not a frame bound
        c, C = frame_bounds(F)
        assert c == pytest.approx(2.0, abs=1e-14)
        assert C == pytest.approx(2.0, abs=1e-14)

    def test_mercedes_gram_spectrum(self):
        lam = np.linalg.eigvalsh(gram_oracle(FiniteFrame(MERCEDES)))
        np.testing.assert_allclose(np.sort(lam), [0.0, 1.5, 1.5], atol=1e-13)
        c, C = frame_bounds(FiniteFrame(MERCEDES))
        assert c == pytest.approx(1.5, abs=1e-13)
        assert C == pytest.approx(1.5, abs=1e-13)

    def test_weights_enter_as_sqrt(self):
        F = FiniteFrame(np.array([[1, 0], [0, 1]], dtype=complex), weights=[4.0, 9.0])
        np.testing.assert_allclose(gram_oracle(F), np.diag([4.0, 9.0]), atol=1e-14)
        np.testing.assert_allclose(frame_operator(F), np.diag([4.0, 9.0]), atol=1e-14)


class TestDiagonalTerms:
    """Per-atom terms <P_G ~f_y, f_y>: the comparison identity over one atom."""

    def test_parseval_pairs_are_one(self):
        F = FiniteFrame(np.eye(2, dtype=complex))
        for k in range(2):
            lhs, rhs = comparison_sides(F, F, np.arange(2) == k)
            assert (lhs, rhs) == (pytest.approx(1.0, abs=1e-13), pytest.approx(1.0, abs=1e-13))

    def test_orthogonal_spans(self):
        F = FiniteFrame(np.array([[1, 0]], dtype=complex))
        G = FiniteFrame(np.array([[0, 1]], dtype=complex))
        lhs, rhs = comparison_sides(F, G, np.array([True]))
        assert abs(lhs) < 1e-14
        assert abs(rhs) < 1e-14

    def test_dual_diagonal_bounded_by_one(self):
        # <g, ~g> <= 1 whenever the family contains the vector's own frame
        rng = np.random.RandomState(23)
        for _ in range(50):
            n = int(rng.randint(1, 6))
            G = random_frame(rng, n, n + int(rng.randint(0, 8)))
            # normalize vectors so the bound reads cleanly
            norms = np.linalg.norm(G.vectors, axis=1)
            G = FiniteFrame(G.vectors / norms[:, None], G.weights, G.index_points)
            Gd = canonical_dual(G)
            diag = np.einsum("ij,ij->i", np.conj(Gd.vectors), G.vectors) * G.weights
            assert np.all(np.real(diag) <= 1 + 1e-9)
            assert np.max(np.abs(np.imag(diag))) < 1e-10

    def test_bracketing_inequality_both_orderings(self):
        # if a <= <P_G ~f_y, f_y> <= b on the support then the
        # weighted double sum over Omega lies in [a mu(Omega), b mu(Omega)];
        # the swapped dual ordering satisfies the same inequalities
        rng = np.random.RandomState(31)
        for _ in range(30):
            n = int(rng.randint(2, 6))
            F = random_frame(rng, n, int(rng.randint(2, 10)))
            G = random_frame(rng, n, int(rng.randint(2, 10)))
            mask = rng.rand(F.m) < 0.6
            if not np.any(mask):
                continue
            mu_omega = float(np.sum(F.weights[mask]))
            Fd = canonical_dual(F)
            Gd = canonical_dual(G)
            inner_gf = F.vectors.conj() @ G.vectors.T
            inner_dd = Fd.vectors @ Gd.vectors.conj().T
            phi = inner_gf * inner_dd
            wphi = (F.weights[:, None] * G.weights[None, :]) * phi
            double_sum = complex(np.sum(wphi[mask, :]))
            # random index points never coincide, so Omega = {y} holds no G-atom
            f_terms = np.array([comparison_sides(F, G, np.arange(F.m) == y)[0] / F.weights[y] for y in range(F.m)])
            P_G = (G.vectors.T * G.weights) @ Gd.vectors.conj()
            f_swapped = np.einsum("ij,ij->i", np.conj(Fd.vectors), F.vectors @ P_G.T)
            for per_index in (f_terms, f_swapped):
                vals = np.real(per_index)
                a, b = float(np.min(vals)), float(np.max(vals))
                lo = a * mu_omega - 1e-9 * (1 + abs(a) * mu_omega)
                hi = b * mu_omega + 1e-9 * (1 + abs(b) * mu_omega)
                assert lo <= np.real(double_sum) <= hi


class TestPrescribedSpectrum:
    def test_clustered_spectrum_bounds_and_projection(self):
        # columns q_i of a unitary Q with weights lam_i: S = Q diag(lam) Q^H
        rng = np.random.RandomState(14)
        lam_true = np.array([1.0, 1.0, 1.0 + 1e-9, 2.0, 2.0])
        Q, _ = np.linalg.qr(rng.randn(5, 5) + 1j * rng.randn(5, 5))
        F = FiniteFrame(Q.T, weights=lam_true)
        c, C = frame_bounds(F)
        assert abs(c - 1.0) < 1e-12 and abs(C - 2.0) < 1e-12
        for f in np.eye(5, dtype=complex):
            np.testing.assert_allclose(project(F, f), f, atol=1e-12)

