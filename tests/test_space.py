import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.density import DEFAULT_RADII, lattice_schedule
from framelab.space import (
    AtomicMeasure,
    Ball,
    CountingMeasure,
    Lattice,
    LebesgueMeasure,
    PointSet,
    ThinnedLattice,
    load_point_set_csv,
)


def brute_lattice_count(scale, center, r):
    """Oracle: enumerate lattice points in a box and count those in the ball."""
    n = int(math.floor((abs(center).max() + r) / scale)) + 2
    ax = scale * np.arange(-n, n + 1)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    d2 = (X - center[0]) ** 2 + (Y - center[1]) ** 2
    return int(np.sum(d2 <= r * r))


class TestBallMass:
    def test_lebesgue_unit_disk(self):
        assert LebesgueMeasure(2).ball_mass(Ball([0, 0], 1.0)) == pytest.approx(math.pi, abs=1e-12)

    def test_counting_z2(self):
        m = CountingMeasure(Lattice(1.0, 2))
        assert m.ball_mass(Ball([0, 0], 1.5)) == 9.0

    def test_atomic_single_atom(self):
        m = AtomicMeasure([[0.0]], [2.5])
        assert m.ball_mass(Ball([0.0], 1.0)) == 2.5

    def test_atomic_weights_need_a_finite_total(self):
        # each weight is finite but their sum overflows: every ball mass would too
        with pytest.raises(ValueError, match="atomic weights must have a finite total"):
            AtomicMeasure([[0.1], [0.2]], [1e308, 1e308])
        m = AtomicMeasure([[0.1], [0.2]], [1e308, 7e307])
        assert m.ball_mass(Ball([0.0], 1.0)) == math.fsum([1e308, 7e307])

    @given(
        st.lists(
            st.tuples(st.floats(min_value=1.0, max_value=10.0), st.integers(min_value=-300, max_value=299)),
            min_size=1,
            max_size=80,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_atomic_mass_is_the_exact_sum_in_any_order(self, terms, rnd):
        # weights spread over 1e-300 ... 1e300: the mass of the atoms inside
        # is math.fsum of their weights, bit for bit, whatever the atom order
        weights = np.array([m * 10.0**e for m, e in terms])
        pts = np.arange(len(weights), dtype=float)[:, None]
        ball = Ball([len(weights) / 3.0], len(weights) / 2.0)
        mass = AtomicMeasure(pts, weights).ball_mass(ball)
        assert mass == math.fsum(weights[ball.contains(pts)].tolist())
        order = list(range(len(weights)))
        rnd.shuffle(order)
        assert AtomicMeasure(pts[order], weights[order]).ball_mass(ball) == mass

    def test_boundary_atom_counts(self):
        # closed balls: an atom exactly on the sphere belongs to the ball
        m = CountingMeasure(PointSet([[1.0], [2.0]]))
        assert m.ball_mass(Ball([0.0], 1.0)) == 1.0

    def test_monotone_in_radius(self):
        measures = [
            LebesgueMeasure(2),
            CountingMeasure(Lattice(0.7, 2)),
            AtomicMeasure([[0.3, 0.1], [1.5, -0.2], [2.0, 2.0]], [1.0, 2.0, 0.5]),
        ]
        radii = [0.5, 1.0, 1.7, 2.5, 4.0]
        for m in measures:
            masses = [m.ball_mass(Ball([0.1, -0.3], r)) for r in radii]
            assert all(b >= a for a, b in zip(masses, masses[1:]))

    def test_counting_matches_brute_force(self):
        rng = np.random.RandomState(11)
        m = CountingMeasure(Lattice(0.8, 2))
        for _ in range(25):
            c = rng.uniform(-3, 3, size=2)
            r = float(rng.uniform(0.5, 7.0))
            assert m.ball_mass(Ball(c, r)) == brute_lattice_count(0.8, c, r)

    def test_lattice_enumeration_matches_count(self):
        lat = Lattice(0.5, 2)
        b = Ball([0.3, -0.7], 3.2)
        pts = lat.points_in_ball(b)
        assert len(pts) == lat.count_in_balls(b.center[None], b.radius)[0]
        assert np.all(lat.contains(b, pts))

    def test_lattice_3d_count(self):
        lat = Lattice(1.0, 3)
        b = Ball([0, 0, 0], 1.0)
        # +-e_i and the origin
        assert lat.count_in_balls(b.center[None], b.radius)[0] == 7


class TestLatticeMembership:
    """One rule decides lattice membership: counts, enumerations and inside/outside tests agree."""

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 3), alpha=st.sampled_from([0.8, 0.3, 1 / 3]), data=st.data())
    def test_count_enumeration_mass_and_predicate_agree(self, dim, alpha, data):
        # centers on multiples of alpha/2 and radii alpha sqrt(n): the sphere runs through lattice points
        m = np.array(data.draw(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)))
        n = data.draw(st.integers(1, 150 if dim < 3 else 40))
        b = Ball(m * alpha / 2, alpha * math.sqrt(n))
        lat = Lattice(alpha, dim)
        ax = np.arange(math.floor(m.min() / 2 - math.sqrt(n)) - 1, math.ceil(m.max() / 2 + math.sqrt(n)) + 2)
        k = np.stack(np.meshgrid(*[ax] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        box = k * alpha
        inside = lat.contains(b, box)
        pts = lat.points_in_ball(b)
        count = lat.count_in_balls(b.center[None], b.radius)[0]
        assert count == len(pts) == CountingMeasure(lat).ball_mass(b) == np.count_nonzero(inside)
        np.testing.assert_array_equal(pts, box[inside])
        # rounding can only decide the points exactly on the sphere, |2k - m|^2 = 4n
        d2 = np.sum((2 * k - m) ** 2, axis=1)
        assert np.all(inside[d2 < 4 * n]) and not np.any(inside[d2 > 4 * n])

    def test_gabor_origin_balls(self):
        # 4 / 0.8 = 5 is exact, so every point with |k| = 5 (10, 20) lies on the sphere
        lat = Lattice(0.8, 2)
        for r, expect in ((4.0, 81), (8.0, 317), (16.0, 1257)):
            b = Ball([0.0, 0.0], r)
            assert lat.count_in_balls(b.center[None], b.radius)[0] == len(lat.points_in_ball(b)) == expect

    def test_measure_contains_uses_support_rule(self):
        lat = Lattice(0.8, 2)
        b = Ball([0.0, 0.0], 4.0)
        boundary = np.array([[3, 4], [4, -3]]) * 0.8  # on the sphere: |k| = 5
        assert not np.any(b.contains(boundary))  # |0.8 k|^2 rounds above 16
        assert np.all(CountingMeasure(lat).contains(b, boundary))
        assert not np.any(CountingMeasure(PointSet(boundary)).contains(b, boundary))


class TestThinnedLattice:
    """drop-even-even: alpha * Z^d less 2 alpha * Z^d, decided by the lattice rule."""

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 3), alpha=st.sampled_from([0.8, 0.3, 1 / 3, 4.0]), data=st.data())
    def test_count_enumeration_predicate_and_difference_agree(self, dim, alpha, data):
        # centers on multiples of alpha/2 and radii alpha sqrt(n): the sphere runs through lattice points
        m = np.array(data.draw(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)))
        n = data.draw(st.integers(1, 150 if dim < 3 else 40))
        b = Ball(m * alpha / 2, alpha * math.sqrt(n))
        thin = ThinnedLattice(alpha, dim)
        ax = np.arange(math.floor(m.min() / 2 - math.sqrt(n)) - 1, math.ceil(m.max() / 2 + math.sqrt(n)) + 2)
        k = np.stack(np.meshgrid(*[ax] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        box = k * alpha
        inside = thin.contains(b, box)
        pts = thin.points_in_ball(b)
        one = b.center[None], b.radius  # the ball b, as a batch of one
        difference = Lattice(alpha, dim).count_in_balls(*one)[0] - Lattice(2 * alpha, dim).count_in_balls(*one)[0]
        assert thin.count_in_balls(*one)[0] == len(pts) == np.count_nonzero(inside) == difference
        np.testing.assert_array_equal(pts, box[inside])
        # the lattice rule with the all-even points dropped: boundary points belong to the ball
        np.testing.assert_array_equal(inside, Lattice(alpha, dim).contains(b, box) & np.any(k % 2 != 0, axis=1))

    def test_boundary_points_belong_to_the_ball(self):
        # |0.8 k|^2 rounds above 16 for the 8 odd points with |k| = 5, yet they lie on the sphere
        thin = CountingMeasure(ThinnedLattice(0.8, 2))
        assert thin.ball_mass(Ball([0.0, 0.0], 4.0)) == 81 - 21


class TestBatchedCounts:
    """count_in_balls walks many balls at once and counts each exactly as a batch of that one ball."""

    @pytest.mark.parametrize("cls", [Lattice, ThinnedLattice])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.8, 1 / 3, 2.0])
    def test_count_in_balls_equals_count_in_ball(self, cls, dim, alpha):
        lat = cls(alpha, dim)
        rng = np.random.default_rng(dim)
        cases = []
        # the schedule grid of one period, at the schedule's radii
        grid = lattice_schedule(alpha, dim, r_max=32.0)
        cases += [(grid.centers(), r) for r in grid.radii if r / alpha <= 60]
        # random centres
        cases += [(rng.uniform(-5, 5, size=(17, dim)), r) for r in (0.9, 3.3, 7.0)]
        # centres on multiples of alpha/2 and radii alpha sqrt(n): the spheres run through lattice points
        cases += [(rng.integers(-6, 7, size=(17, dim)) * alpha / 2, alpha * math.sqrt(n)) for n in (1, 2, 5, 25, 50)]
        for centers, r in cases:
            want = [lat.count_in_balls(c[None], r)[0] for c in centers]
            assert lat.count_in_balls(centers, r).tolist() == want

    def test_integer_centres_and_radii(self):
        # 3-4-5 and 5-12-13 triples put lattice points on the integer spheres
        centers = np.array([[0.0, 0.0], [1.0, -2.0], [3.0, 4.0], [-7.0, 2.0]])
        for cls in (Lattice, ThinnedLattice):
            lat = cls(1.0, 2)
            for r in (1, 5, 13):
                assert lat.count_in_balls(centers, r).tolist() == [lat.count_in_balls(c[None], r)[0] for c in centers]
        assert Lattice(1.0, 2).count_in_balls(centers, 5).tolist() == [
            brute_lattice_count(1.0, c, 5.0) for c in centers
        ]

    @pytest.mark.parametrize(
        "m",
        [
            LebesgueMeasure(1),
            LebesgueMeasure(2),
            LebesgueMeasure(3),
            CountingMeasure(Lattice(0.8, 2)),
            CountingMeasure(ThinnedLattice(0.8, 2)),
            CountingMeasure(Lattice(1 / 3, 3)),
            CountingMeasure(PointSet(np.random.default_rng(5).uniform(-4, 4, size=(60, 2)))),
            AtomicMeasure(np.random.default_rng(6).uniform(-4, 4, size=(30, 2)), np.linspace(0.5, 2.0, 30)),
        ],
        ids=lambda m: type(m).__name__ + str(m.dim),
    )
    def test_ball_masses_is_ball_mass_per_ball(self, m):
        rng = np.random.default_rng(7)
        for r in DEFAULT_RADII[:3] + (0.8, 2.4):
            for c in rng.uniform(-3, 3, size=(6, m.dim)):
                b = Ball(c, r)
                assert m.ball_mass(b) == m.ball_masses(b.center[None], b.radius)[0]

    @pytest.mark.parametrize("cls", [Lattice, ThinnedLattice, PointSet])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_per_row_radii_count_as_one_ball_each(self, cls, dim):
        # one radius per centre row: every count is the one that ball takes alone,
        # spheres through lattice points included (alpha = 0.8, r = 4 and alpha sqrt(n));
        # the point set is the lattice's points around the balls, counted by Ball.contains
        alpha = 0.8
        if cls is PointSet:
            support = PointSet(Lattice(alpha, dim).points_in_ball(Ball(np.zeros(dim), 16.0)))
        else:
            support = cls(alpha, dim)
        rng = np.random.default_rng(11 + dim)
        centers = np.vstack([rng.uniform(-5, 5, size=(20, dim)), rng.integers(-6, 7, size=(20, dim)) * alpha / 2])
        radii = rng.choice([0.9, 3.3, 4.0, 7.0] + [alpha * math.sqrt(n) for n in (1, 2, 5, 25)], size=len(centers))
        balls = [Ball(c, r) for c, r in zip(centers, radii)]
        if cls is PointSet:
            want = [np.count_nonzero(b.contains(support.points)) for b in balls]
        else:
            want = [len(support.points_in_ball(b)) for b in balls]
        assert support.count_in_balls(centers, radii).tolist() == want

    @pytest.mark.parametrize(
        "m",
        [
            LebesgueMeasure(2),
            CountingMeasure(Lattice(0.8, 2)),
            CountingMeasure(ThinnedLattice(0.8, 2)),
            CountingMeasure(PointSet(np.random.default_rng(5).uniform(-4, 4, size=(60, 2)))),
            AtomicMeasure(np.random.default_rng(6).uniform(-4, 4, size=(30, 2)), np.linspace(0.5, 2.0, 30)),
        ],
        ids=lambda m: type(m).__name__ + str(m.dim),
    )
    def test_ball_masses_per_row_radii_is_ball_mass_per_ball(self, m):
        rng = np.random.default_rng(8)
        centers = np.vstack([rng.uniform(-3, 3, size=(12, 2)), np.zeros((2, 2))])
        radii = rng.choice(DEFAULT_RADII[:3] + (0.8, 2.4), size=len(centers))
        radii[-2:] = 4.0  # alpha = 0.8, r = 4: twelve lattice points on the sphere
        want = [m.ball_mass(Ball(c, r)) for c, r in zip(centers, radii)]
        assert m.ball_masses(centers, radii).tolist() == want

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            CountingMeasure(Lattice(1.0, 2)).ball_masses(np.zeros((3, 1)), 4.0)
        with pytest.raises(ValueError, match="dimension"):
            LebesgueMeasure(2).ball_masses(np.zeros((3, 1)), 4.0)


def annulus_over_ball(m, a, r, rho):
    """m(B(a, r+rho) \\ B(a, r)) / m(B(a, r)) from two ball masses."""
    inner = m.ball_mass(Ball(a, r))
    return (m.ball_mass(Ball(a, r + rho)) - inner) / inner


class TestAnnularRatio:
    """The annular decay property of the measures, read off their ball masses."""

    def test_lebesgue_plane(self):
        got = annulus_over_ball(LebesgueMeasure(2), [0, 0], 100.0, 1.0)
        assert got == pytest.approx((2 * 100 + 1) / 100**2, rel=1e-12)

    def test_counting_integers(self):
        got = annulus_over_ball(CountingMeasure(Lattice(1.0, 1)), [0.0], 10.5, 1.0)
        assert got == pytest.approx(2.0 / 21.0)

    def test_single_atom_annulus_empty(self):
        m = AtomicMeasure([[0.0]], [1.0])
        assert annulus_over_ball(m, [0.0], 1.0, 1.0) == 0.0

    def test_vanishes_at_large_radius(self):
        vals = [annulus_over_ball(LebesgueMeasure(3), [0, 0, 0], r, 1.0) for r in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] == pytest.approx((1001**3 - 1000**3) / 1000**3, rel=1e-10)


class TestPointSet:
    def test_duplicates_rejected_with_offending_point(self):
        with pytest.raises(ValueError, match=r"not separated: duplicate point \[1\.0, 2\.0\]"):
            PointSet([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x1,x2\n0.5,1.5\n-2.0,0.25\n")
        ps = load_point_set_csv(path)
        np.testing.assert_allclose(ps.points, [[0.5, 1.5], [-2.0, 0.25]])

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_point_set_csv(path)

