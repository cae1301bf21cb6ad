import math
import re

import numpy as np
import pytest

from framelab.quadrature import (
    _BOUNDARY_REFINE,
    QuadConfig,
    _node_chunks,
    _shell_template,
    integrate_ball,
    integrate_complement,
    integrate_shell,
)
from framelab.space import Ball, ball_volume


def gauss2(pts):
    return np.exp(-math.pi * np.einsum("ij,ij->i", pts, pts))


def ones(pts):
    return np.ones(len(pts))


def shell_nodes(center, r_in, r_out, cfg):
    """Every node and weight integrate_shell streams, copied out of the chunk buffers in order."""
    center = np.asarray(center, dtype=float)
    n, chunks = _node_chunks(center, r_in, r_out, cfg)
    pts, w = np.empty((n, center.size)), np.empty(n)
    i = 0
    for p, wc in chunks:
        pts[i : i + len(p)] = p
        w[i : i + len(p)] = wc
        i += len(p)
    return pts, w


class TestIntegrateBall:
    def test_unit_disk_area(self):
        res = integrate_ball(ones, Ball([0, 0], 1.0), QuadConfig(h=0.01))
        assert res.value == pytest.approx(math.pi, abs=1e-2)  # advertised tolerance
        assert res.value == pytest.approx(math.pi, abs=1e-8)  # actual behavior

    def test_gaussian_normalization(self):
        # oracle: integral of exp(-pi |u|^2) over R^2 is exactly 1
        res = integrate_ball(gauss2, Ball([0, 0], 6.0), QuadConfig(h=0.02))
        assert res.value == pytest.approx(1.0, abs=1e-4)

    def test_one_dimensional_interval(self):
        res = integrate_ball(lambda p: np.cos(p[:, 0]), Ball([0.0], 1.0), QuadConfig(h=0.01))
        assert res.value == pytest.approx(2 * math.sin(1.0), abs=1e-10)

    @pytest.mark.parametrize(
        "f, b, h",
        [
            (gauss2, Ball([0.1, -0.2], 3.0), 0.02),
            (lambda p: np.cos(p[:, 0]) * np.exp(-1e-3 * p[:, 0] ** 2), Ball([0.3], 900.0), 0.01),
        ],
        ids=["d2", "d1"],
    )
    def test_several_chunks_sum_like_fsum(self, f, b, h):
        # more nodes than one evaluation chunk: the chunk sums must add up to
        # the correctly rounded sum of all node terms
        cfg = QuadConfig(h=h)
        pts, w = shell_nodes(b.center, 0.0, b.radius, cfg)
        assert len(pts) > 3 * (1 << 16)
        res = integrate_ball(f, b, cfg)
        assert res.node_count == len(pts)
        assert res.value == math.fsum((f(pts) * w).tolist())

    def test_non_finite_field_reports_node(self):
        def f(pts):
            return np.where(pts[:, 0] > 0.25, np.inf, 1.0)

        with pytest.raises(ValueError, match="non-finite integrand value at node"):
            integrate_ball(f, Ball([0.25], 0.5), QuadConfig(h=0.5))

    @pytest.mark.parametrize("index", [100_000, -1], ids=["interior", "straddle"])
    def test_non_finite_field_reports_translated_node_in_later_chunk(self, index):
        # d = 2, non-finite only at one node past the first evaluation chunk:
        # the check runs on every streamed chunk and names the node's
        # coordinates, not its offset from the centre
        b, cfg = Ball([0.1, -0.2], 3.0), QuadConfig(h=0.02)
        pts, _ = shell_nodes(b.center, 0.0, b.radius, cfg)
        target = pts[index]
        assert not np.all(pts[: 1 << 16] == target, axis=1).any()

        def f(p):
            return np.where(np.all(p == target, axis=1), np.nan, 1.0)

        with pytest.raises(ValueError, match=re.escape(f"non-finite integrand value at node {target.tolist()}")):
            integrate_ball(f, b, cfg)

    def test_dimension_cap(self):
        # the fields of the lab live on the line and the plane
        for d in (3, 5):
            with pytest.raises(ValueError, match="d <= 2"):
                integrate_ball(ones, Ball([0] * d, 1.0), QuadConfig(h=0.5))


class TestIntegrateComplement:
    def test_gaussian_tail(self):
        # oracle: radial integral, int_R^inf 2 pi r e^{-pi r^2} dr = e^{-pi R^2}
        z = np.array([0.7, -0.4])
        res = integrate_complement(
            lambda p: gauss2(p - z),
            Ball(z, 1.0),
            QuadConfig(h=0.02, truncation_radius=7.0),
        )
        assert res.value == pytest.approx(math.exp(-math.pi), abs=1e-4)

    def test_zero_field(self):
        res = integrate_complement(lambda p: np.zeros(len(p)), Ball([0, 0], 1.0), QuadConfig(h=0.1))
        assert res.value == 0.0

    def test_truncation_radius_too_small(self):
        with pytest.raises(ValueError, match="truncation radius"):
            integrate_complement(ones, Ball([0, 0], 3.0), QuadConfig(truncation_radius=2.0))


class TestShellNodes:
    @pytest.mark.parametrize("center", [[0.013], [0.013, -0.0271]], ids=["d1", "d2"])
    def test_ball_plus_shell_is_exact_volume(self, center):
        # off-grid center, inner radius not a multiple of h: every cell of
        # B(c, R) must be counted once, split exactly across the two passes
        c = np.asarray(center)
        d = c.size
        h, r, R = 0.05, 0.737, 1.9
        cfg = QuadConfig(h=h)
        total = 0.0
        for r_in, r_out in ((0.0, r), (r, R)):
            pts, w = shell_nodes(c, r_in, r_out, cfg)
            assert pts.shape == (len(w), d)
            dist = np.sqrt(np.einsum("ij,ij->i", pts - c, pts - c))
            assert np.all(dist >= r_in - h * math.sqrt(d))
            assert np.all(dist <= r_out + h * math.sqrt(d))
            res = integrate_shell(ones, c, r_in, r_out, cfg)
            assert res.node_count == len(w) and res.value == math.fsum(w.tolist())
            total += res.value
        exact = ball_volume(d, R)
        assert abs(total - exact) <= 1e-11 * exact

    def test_ball_is_the_shell_from_zero(self):
        c, cfg = np.array([0.1, -0.2]), QuadConfig(h=0.05)
        assert integrate_ball(gauss2, Ball(c, 1.3), cfg) == integrate_shell(gauss2, c, 0.0, 1.3, cfg)

    def test_empty_shell(self):
        pts, w = shell_nodes(np.zeros(2), 1.0, 1.0, QuadConfig(h=0.1))
        assert pts.shape == (0, 2) and len(w) == 0
        assert integrate_shell(ones, np.zeros(2), 1.0, 1.0, QuadConfig(h=0.1)).value == 0.0


class TestStraddleSubcells:
    @pytest.mark.parametrize(
        "h, bk, r_in, r_out",
        [(0.02, 8, 0.0, 7.5), (0.08, 2, 0.0, 16.0), (0.08, 2, 11.3, 16.0)],
        ids=["tail-law", "scenario-ball", "scenario-shell"],
    )
    def test_whole_subcells_get_their_area_or_are_dropped(self, h, bk, r_in, r_out):
        # a subcell wholly inside the shell weighs exactly (h/bk)^2, one wholly
        # outside is no node; 1e-9 keeps the classification clear of rounding
        t = _shell_template(2, r_in, r_out, h, bk)
        hs = h / bk
        q = np.abs(t.sub_off)
        near = np.sqrt((np.maximum(q - hs / 2, 0.0) ** 2).sum(axis=1))
        far = np.sqrt(((q + hs / 2) ** 2).sum(axis=1))
        outside = (near >= r_out + 1e-9) | (far <= r_in - 1e-9)
        inside = (near >= r_in + 1e-9) & (far <= r_out - 1e-9)
        assert inside.sum() > 1000
        assert not outside.any(), f"{outside.sum()} nodes in subcells wholly outside the shell"
        assert np.all(t.sub_w[inside] == hs**2)


def translated(t, c, h):
    """The streamed nodes rebuilt from a template: shift + (cell + c), then the subcells."""
    interior = np.concatenate([shift + (t.cells + c) for shift in t.shifts])
    w = np.concatenate([np.full(len(interior), h**2 / len(t.shifts)), t.sub_w])
    return np.concatenate([interior, t.sub_off + c]), w


class TestShellTemplate:
    def test_shell_nodes_is_the_translated_template_after_eviction(self):
        cfg = QuadConfig(h=0.05)
        r_in, r_out = 0.4, 1.9
        t = _shell_template(2, r_in, r_out, cfg.h, _BOUNDARY_REFINE)
        for c in (np.array([0.013, -0.0271]), np.array([-3.2, 5.7])):
            want_pts, want_w = translated(t, c, cfg.h)
            for other in (None, 2.5, 3.0):
                if other is not None:  # two other shells evict the first template
                    shell_nodes(c, 0.0, other, cfg)
                    assert _shell_template.cache_info().currsize <= 2
                pts, w = shell_nodes(c, r_in, r_out, cfg)
                assert np.array_equal(pts, want_pts) and np.array_equal(w, want_w)
                assert pts.flags.writeable and w.flags.writeable
        assert _shell_template.cache_info().maxsize == 2

    def test_cached_arrays_are_read_only(self):
        t = _shell_template(2, 0.0, 1.0, 0.1, 2)
        for a in t:
            assert len(a) > 0
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_configs_never_share_a_template(self):
        shells = [(0.05, 4), (0.04, 4), (0.05, 3)]  # (h, bk)

        def count(shell):
            return _shell_template(2, 0.3, 1.7, *shell).size

        fresh = []
        for shell in shells:
            _shell_template.cache_clear()
            fresh.append(count(shell))
        assert len(set(fresh)) == len(shells)
        # each variant right after the base shell, whose template is then cached
        _shell_template.cache_clear()
        for shell, n in zip(shells, fresh):
            assert count(shells[0]) == fresh[0]
            assert count(shell) == n


class TestInvariants:
    def test_halving_h_converges(self):
        # halving h changes the result by less than 4x the advertised tolerance
        tol = 1e-4
        vals = {}
        for h in (0.04, 0.02):
            vals[h] = integrate_ball(gauss2, Ball([0, 0], 3.0), QuadConfig(h=h)).value
        assert abs(vals[0.04] - vals[0.02]) < 4 * tol

    def test_partition_consistency_lebesgue(self):
        cfg = QuadConfig(h=0.05, truncation_radius=4.0)
        b = Ball([0.2, -0.1], 1.3)
        inner = integrate_ball(gauss2, b, cfg)
        outer = integrate_complement(gauss2, b, cfg)
        total = integrate_ball(gauss2, Ball(b.center, 4.0), cfg)
        assert abs((inner.value + outer.value) - total.value) < 1e-12
