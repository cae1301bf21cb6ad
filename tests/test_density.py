import math

import numpy as np
import pytest

from framelab.density import DensitySchedule, density, lattice_schedule
from framelab.space import AtomicMeasure, Ball, CountingMeasure, Lattice, LebesgueMeasure, PointSet, ThinnedLattice


def small_sched(dim, scale=1.0, r_max=32.0):
    return lattice_schedule(scale, dim, r_max=r_max)


class TestDensity:
    def test_identical_measures_ratio_one(self):
        mu = CountingMeasure(Lattice(1.0, 2))
        sched = small_sched(2)
        est = density(mu, mu, sched)
        for r, sup_r, inf_r in est.per_radius:
            assert sup_r == 1.0 and inf_r == 1.0
        assert est.upper == est.lower == 1.0

    def test_unit_lattice_against_lebesgue(self):
        est = density(CountingMeasure(Lattice(1.0, 2)), LebesgueMeasure(2), small_sched(2))
        assert est.upper == pytest.approx(1.0, rel=0.05)
        assert est.lower == pytest.approx(1.0, rel=0.05)

    def test_half_lattice(self):
        est = density(CountingMeasure(Lattice(0.5, 2)), LebesgueMeasure(2), small_sched(2, 0.5))
        assert est.upper == pytest.approx(4.0, rel=0.05)
        assert est.lower == pytest.approx(4.0, rel=0.05)

    def test_reference_vanishing_rejected(self):
        nu = AtomicMeasure([[50.0, 50.0]], [1.0])
        sched = DensitySchedule((2.0, 4.0), (np.zeros(2), np.ones(2)), 0.5)
        with pytest.raises(ValueError, match="reference measure vanishes"):
            density(CountingMeasure(Lattice(1.0, 2)), nu, sched)

    def test_scaling_covariance(self):
        # density of alpha Lambda = alpha^{-d} density of Lambda
        base = density(CountingMeasure(Lattice(1.0, 1)), LebesgueMeasure(1), small_sched(1)).upper
        for alpha in (0.5, 2.0):
            est = density(
                CountingMeasure(Lattice(alpha, 1)), LebesgueMeasure(1), small_sched(1, alpha)
            ).upper
            assert est == pytest.approx(base / alpha, rel=0.08)

    def test_monotone_in_added_points(self):
        sched = DensitySchedule((4.0, 8.0), (np.zeros(1), np.ones(1) * 0.999), 0.5)
        small = PointSet(np.arange(-40.0, 41.0).reshape(-1, 1))
        extra = PointSet(np.concatenate([np.arange(-40.0, 41.0), [0.5, 3.3]]).reshape(-1, 1))
        for r_small, r_big in zip(
            density(CountingMeasure(small), LebesgueMeasure(1), sched).per_radius,
            density(CountingMeasure(extra), LebesgueMeasure(1), sched).per_radius,
        ):
            assert r_big[1] >= r_small[1]  # sup never decreases

    def test_translation_shifts_by_at_most_shell(self):
        sched = DensitySchedule((8.0,), (np.zeros(2), np.full(2, 0.999)), 0.5)
        base = density(CountingMeasure(Lattice(1.0, 2)), LebesgueMeasure(2), sched)
        grid = np.stack(np.meshgrid(np.arange(-42.0, 43.0), np.arange(-42.0, 43.0), indexing="ij"), axis=-1)
        shifted = PointSet(grid.reshape(-1, 2) + np.array([0.3, 0.7]))
        moved = density(CountingMeasure(shifted), LebesgueMeasure(2), sched)
        r = 8.0
        shell = (math.pi * ((r + math.sqrt(2)) ** 2 - r**2)) / (math.pi * r * r)
        assert abs(moved.per_radius[0][1] - base.per_radius[0][1]) <= shell + 1e-12

    def test_bracketing_with_annulus_correction(self):
        # sup/inf ratios at radius r bracket the true lattice density within
        # the annulus correction ((r + sqrt(d) s)^d - r^d) / r^d
        s = 1.0
        est = density(CountingMeasure(Lattice(s, 2)), LebesgueMeasure(2), small_sched(2, s))
        for r, sup_r, inf_r in est.per_radius:
            corr = ((r + math.sqrt(2) * s) ** 2 - r**2) / r**2
            assert sup_r >= 1.0 - corr
            assert inf_r <= 1.0 + corr

    def test_trend_diagnostic(self):
        est = density(CountingMeasure(Lattice(1.0, 2)), LebesgueMeasure(2), small_sched(2))
        assert est.trend >= 0
        assert est.converged == (est.trend <= 0.05 * max(abs(est.upper), abs(est.lower), 1e-12))

    @pytest.mark.parametrize(
        "mu",
        [
            CountingMeasure(Lattice(0.8, 2)),
            CountingMeasure(ThinnedLattice(0.8, 2)),
            CountingMeasure(PointSet([[0.1, 0.2], [1.0, -0.5]])),
        ],
        ids=["lattice", "thinned", "points"],
    )
    def test_one_ball_masses_call_per_measure(self, mu, monkeypatch):
        # a work count: every (centre, radius) pair goes into one call, and
        # the rows per radius are those of one call per radius
        sched, nu = small_sched(2, 0.8), LebesgueMeasure(2)
        calls = []
        for m in (mu, nu):
            batched = m.ball_masses
            monkeypatch.setattr(m, "ball_masses", lambda c, r, batched=batched: calls.append(len(c)) or batched(c, r))
        est = density(mu, nu, sched)
        centers = sched.centers()
        assert calls == [len(centers) * len(sched.radii)] * 2
        for (r, sup_r, inf_r), r_want in zip(est.per_radius, sched.radii):
            ratios = mu.ball_masses(centers, r_want) / nu.ball_masses(centers, r_want)
            assert (r, sup_r, inf_r) == (r_want, float(np.max(ratios)), float(np.min(ratios)))


class TestClassicalDensity:
    def test_integers(self):
        est = density(CountingMeasure(Lattice(1.0, 1)), LebesgueMeasure(1), small_sched(1))
        assert est.upper == pytest.approx(1.0, rel=0.05)

    def test_even_integers(self):
        est = density(CountingMeasure(Lattice(2.0, 1)), LebesgueMeasure(1), small_sched(1, 2.0))
        assert est.upper == pytest.approx(0.5, rel=0.05)

    def test_empty_set(self):
        est = density(
            CountingMeasure(PointSet(np.zeros((0, 1)))),
            LebesgueMeasure(1),
            DensitySchedule((4.0,), (np.zeros(1), np.ones(1)), 0.5),
        )
        assert est.upper == 0.0 and est.lower == 0.0

    @pytest.mark.parametrize(
        "mu, sched",
        [
            (CountingMeasure(Lattice(0.5, 2)), lattice_schedule(0.5, 2, r_max=32.0)),
            (CountingMeasure(ThinnedLattice(0.8, 2)), DensitySchedule((4.0, 8.0), (np.zeros(2), np.full(2, 1.6)), 0.4)),
            (CountingMeasure(Lattice(2.0, 1)), lattice_schedule(2.0, 1, r_max=128.0)),
            (CountingMeasure(PointSet(np.arange(-40.0, 41.0).reshape(-1, 1) * 0.7)), small_sched(1, r_max=16.0)),
        ],
    )
    def test_rows_equal_a_per_ball_loop(self, mu, sched):
        # the loop over single balls is the reference: batching changes no ratio by a bit
        nu = LebesgueMeasure(mu.dim)
        want = []
        for r in sched.radii:
            ratios = [mu.ball_mass(Ball(a, r)) / nu.ball_mass(Ball(a, r)) for a in sched.centers()]
            want.append((r, max(ratios), min(ratios)))
        assert density(mu, nu, sched).per_radius == tuple(want)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            density(CountingMeasure(Lattice(1.0, 2)), LebesgueMeasure(1), small_sched(1))


class TestSchedule:
    def test_radii_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DensitySchedule((4.0, 4.0), (np.zeros(1), np.ones(1)), 0.5)

    def test_periodic_cell_centers(self):
        sched = lattice_schedule(0.5, 2, r_max=16.0)
        centers = sched.centers()
        assert len(centers) == 4  # spacing 0.25 over one fundamental cell
        assert np.all(centers >= 0) and np.all(centers < 0.5)
