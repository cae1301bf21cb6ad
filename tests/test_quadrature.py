import math
import re

import numpy as np
import pytest

from framelab.quadrature import QuadConfig, _interval_nodes, integrate_ball, integrate_complement
from framelab.space import Ball, ball_volume

SQRT_PI = math.sqrt(math.pi)


def gauss1(pts):
    return np.exp(-math.pi * pts[:, 0] ** 2)


def ones(pts):
    return np.ones(len(pts))


def shell_nodes(center, r_in, r_out, cfg):
    """Every node and weight of the pass over r_in < |x - center| <= r_out, in order."""
    return _interval_nodes(np.asarray(center, dtype=float), r_in, r_out, cfg.h)


class TestIntegrateBall:
    def test_unit_interval_length(self):
        # off-grid centre: the clipped boundary cells give the length 2 to rounding
        res = integrate_ball(ones, Ball([0.3], 1.0), QuadConfig(h=0.01))
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_gaussian_normalization(self):
        # oracle: integral of exp(-pi x^2) over [-6, 6] is erf(6 sqrt(pi)), 1 to double precision
        res = integrate_ball(gauss1, Ball([0.0], 6.0), QuadConfig(h=0.02))
        assert res.value == pytest.approx(math.erf(6.0 * SQRT_PI), abs=1e-12)

    def test_one_dimensional_interval(self):
        res = integrate_ball(lambda p: np.cos(p[:, 0]), Ball([0.0], 1.0), QuadConfig(h=0.01))
        assert res.value == pytest.approx(2 * math.sin(1.0), abs=1e-10)

    @pytest.mark.parametrize(
        "f, b, h, exact",
        [
            (gauss1, Ball([0.1], 700.0), 0.005, 1.0),
            # integral over the line: sqrt(1000 pi) e^{-250} ~ 1e-107
            (lambda p: np.cos(p[:, 0]) * np.exp(-1e-3 * p[:, 0] ** 2), Ball([0.3], 900.0), 0.01, 0.0),
        ],
        ids=["d1-gauss", "d1"],
    )
    def test_several_chunks_sum_like_fsum(self, f, b, h, exact):
        # a long grid (over 3 * 2^16 nodes): the value is still the correctly
        # rounded sum of all node terms
        cfg = QuadConfig(h=h)
        pts, w = shell_nodes(b.center, 0.0, b.radius, cfg)
        assert len(pts) > 3 * (1 << 16)
        res = integrate_ball(f, b, cfg)
        assert res.node_count == len(pts)
        assert res.value == math.fsum((f(pts) * w).tolist())
        assert res.value == pytest.approx(exact, abs=1e-12)

    def test_non_finite_field_reports_node(self):
        def f(pts):
            return np.where(pts[:, 0] > 0.25, np.inf, 1.0)

        with pytest.raises(ValueError, match="non-finite integrand value at node"):
            integrate_ball(f, Ball([0.25], 0.5), QuadConfig(h=0.5))

    @pytest.mark.parametrize("index", [100_000, -1], ids=["interior", "straddle"])
    def test_non_finite_field_reports_translated_node_in_later_chunk(self, index):
        # non-finite only at one node far into a long grid (past the first
        # 2^16), inside or in the clipped cell at the sphere: the check runs
        # on every node and names the node's coordinates, not its index
        b, cfg = Ball([0.1], 900.0), QuadConfig(h=0.02)
        pts, _ = shell_nodes(b.center, 0.0, b.radius, cfg)
        target = pts[index]
        assert not np.all(pts[: 1 << 16] == target, axis=1).any()

        def f(p):
            return np.where(np.all(p == target, axis=1), np.nan, 1.0)

        with pytest.raises(ValueError, match=re.escape(f"non-finite integrand value at node {target.tolist()}")):
            integrate_ball(f, b, cfg)

    def test_dimension_cap(self):
        # the grid lives on the line; the plane's Gaussian terms are radial integrals
        for d in (2, 3, 5):
            with pytest.raises(ValueError, match=rf"line \(d = 1\) only, got d = {d}"):
                integrate_ball(ones, Ball([0] * d, 1.0), QuadConfig(h=0.5))
            with pytest.raises(ValueError, match="line"):
                integrate_complement(ones, Ball([0] * d, 0.5), QuadConfig(h=0.5))


class TestIntegrateComplement:
    def test_gaussian_tail(self):
        # oracle: the mass of exp(-pi (x - z)^2) on 1 < |x - z| <= 7 is erfc(sqrt(pi)) - erfc(7 sqrt(pi));
        # the grid's error is ~3e-8 relative at h = 0.02
        z = 0.7
        res = integrate_complement(
            lambda p: gauss1(p - z),
            Ball([z], 1.0),
            QuadConfig(h=0.02, truncation_radius=7.0),
        )
        assert res.value == pytest.approx(math.erfc(SQRT_PI) - math.erfc(7.0 * SQRT_PI), rel=1e-7)

    def test_zero_field(self):
        res = integrate_complement(lambda p: np.zeros(len(p)), Ball([0.0], 1.0), QuadConfig(h=0.1))
        assert res.value == 0.0

    def test_truncation_radius_too_small(self):
        with pytest.raises(ValueError, match="truncation radius"):
            integrate_complement(ones, Ball([0.0], 3.0), QuadConfig(truncation_radius=2.0))

    def test_one_pass_over_the_shell(self):
        # off-grid centre and radius: the complement is the correctly rounded sum
        # of the field over the nodes of (r, R_tr] alone, not a difference of two balls
        c, r, r_tr, cfg = 0.013, 0.737, 1.9, QuadConfig(h=0.05, truncation_radius=1.9)
        f = lambda p: gauss1(p - 0.4)
        pts, w = shell_nodes([c], r, r_tr, cfg)
        res = integrate_complement(f, Ball([c], r), cfg)
        assert res.value == math.fsum((f(pts) * w).tolist())
        assert res.node_count == len(w)


@pytest.mark.parametrize(
    "field, value",
    [("h", v) for v in (math.nan, math.inf)]
    + [("truncation_radius", v) for v in (math.nan, math.inf)]
    + [("truncation_margin", v) for v in (math.nan, math.inf, 0.0, -1.0)],
)
def test_config_fields_must_be_positive_and_finite(field, value):
    # a NaN margin or radius would make every tail NaN, and an infinite one a window no grid covers
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        QuadConfig(**{field: value})


class TestShellNodes:
    @pytest.mark.parametrize("center", [[0.013]], ids=["d1"])
    def test_ball_plus_shell_is_exact_volume(self, center):
        # off-grid centre, inner radius not a multiple of h: every cell of
        # B(c, R_tr) must be counted once, split exactly across the ball and
        # the complement's shell
        c, r, r_tr = np.asarray(center), 0.737, 1.9
        cfg = QuadConfig(h=0.05, truncation_radius=r_tr)
        total = 0.0
        for (r_in, r_out), res in (
            ((0.0, r), integrate_ball(ones, Ball(c, r), cfg)),
            ((r, r_tr), integrate_complement(ones, Ball(c, r), cfg)),
        ):
            pts, w = shell_nodes(c, r_in, r_out, cfg)
            assert pts.shape == (len(w), 1)
            dist = np.abs(pts[:, 0] - c[0])
            assert np.all((dist > r_in) & (dist <= r_out))
            assert res.node_count == len(w) and res.value == math.fsum(w.tolist())
            total += res.value
        assert abs(total - 2.0 * r_tr) <= 1e-11 * 2.0 * r_tr

    def test_empty_shell(self):
        # a window that ends on the sphere leaves nothing to integrate
        res = integrate_complement(ones, Ball([0.0], 1.0), QuadConfig(h=0.1, truncation_radius=1.0))
        assert res.value == 0.0 and res.node_count == 0


class TestInvariants:
    def test_halving_h_converges(self):
        # halving h changes the result by less than 4x the advertised tolerance,
        # and both spacings are within it of erf(1.3 sqrt(pi)) (the sphere cuts the Gaussian's flank)
        tol = 1e-4
        vals = {}
        for h in (0.04, 0.02):
            vals[h] = integrate_ball(gauss1, Ball([0.0], 1.3), QuadConfig(h=h)).value
            assert vals[h] == pytest.approx(math.erf(1.3 * SQRT_PI), abs=tol)
        assert abs(vals[0.04] - vals[0.02]) < 4 * tol

    def test_partition_consistency_lebesgue(self):
        cfg = QuadConfig(h=0.05, truncation_radius=4.0)
        b = Ball([0.2], 1.3)
        inner = integrate_ball(gauss1, b, cfg)
        outer = integrate_complement(gauss1, b, cfg)
        total = integrate_ball(gauss1, Ball(b.center, 4.0), cfg)
        assert abs((inner.value + outer.value) - total.value) < 1e-12
