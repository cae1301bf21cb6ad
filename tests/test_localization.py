import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import ncx2

from framelab import localization
from framelab.kernels import FockKernel, GaborGaussianKernel, PaleyWienerKernel, TabulatedKernel
from framelab.localization import FramePairSpec, double_tail, localization_defect, tail_sup
from framelab.quadrature import QuadConfig, integrate_ball
from framelab.space import AtomicMeasure, Ball, CountingMeasure, Lattice, LebesgueMeasure, PointSet, ThinnedLattice


def gaussian_ball_integral(center_dist, r):
    """Oracle: integral over B(0, r) of exp(-pi |x - p|^2), |p| = center_dist (scalar or array).

    The Gaussian is an isotropic normal with variance 1/(2 pi), so the ball
    mass is a noncentral chi-square tail probability.
    """
    return ncx2.cdf(2 * math.pi * r * r, 2, 2 * math.pi * np.asarray(center_dist) ** 2)


def gaussian_disk_oracle(s, r, inside):
    """Mass of exp(-pi |x - p|^2), |p| = s, inside (or outside) B(0, r), from scipy's ncx2.

    Near 1 scipy's value of the larger tail is off by up to ~2e-14 at r = 64
    (against 30-digit quadrature), so the smaller tail comes from scipy and
    the larger one is its complement.
    """
    x, nc = 2 * math.pi * r * r, 2 * math.pi * np.asarray(s, dtype=float) ** 2
    cdf, sf = ncx2.cdf(x, 2, nc), ncx2.sf(x, 2, nc)
    return np.where(cdf <= sf, cdf, 1.0 - sf) if inside else np.where(sf <= cdf, sf, 1.0 - cdf)


def atom_terms_oracle(points, weights, ball, r_tr, shift):
    """(inner atoms' Gaussian mass outside B, window atoms outside B: mass inside B) from ncx2.

    shift moves an atom's index point to its kernel point as the Lebesgue
    family sees it (atom offset minus Lebesgue offset).
    """
    rel = np.asarray(points, dtype=float) - ball.center
    dist = np.sqrt(np.einsum("ij,ij->i", rel, rel))
    inner, outer = dist <= ball.radius, (dist > ball.radius) & (dist <= r_tr)
    s = np.sqrt(np.einsum("ij,ij->i", rel + shift, rel + shift))
    out_mass = math.fsum(weights[inner] * gaussian_disk_oracle(s[inner], ball.radius, inside=False))
    in_mass = math.fsum(weights[outer] * gaussian_disk_oracle(s[outer], ball.radius, inside=True))
    return out_mass, in_mass


def lattice_radii(scale, r_lo, r_hi):
    pts = Lattice(scale, 2).points_in_ball(Ball([0, 0], r_hi + 1e-9))
    rr = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    return rr[(rr > r_lo) & (rr <= r_hi)], rr[rr <= r_lo]


def paley_wiener_mass(b, L):
    """Oracle: mass of sinc^2(b t / pi) on [-L, L], (2/b)(Si(2bL) - sin^2(bL)/(bL))."""
    return 2.0 / b * (special.sici(2.0 * b * L)[0] - math.sin(b * L) ** 2 / (b * L))


class TestTailSup:
    def test_fock_tail_law(self):
        # Fock and Gabor (n = 1) share |<k_x, k_y>|^2 = e^{-pi |x - y|^2}: the mass on
        # B(x, R_tr) \ B(x, R) is e^{-pi R^2} - e^{-pi R_tr^2}
        for K in (FockKernel(), GaborGaussianKernel(1)):
            for R in (0.5, 1.0, 3.0):
                got = tail_sup(K, LebesgueMeasure(2), R, [[0.0, 0.0]], QuadConfig(h=0.02, truncation_radius=R + 6))
                target = math.exp(-math.pi * R * R)
                assert got == pytest.approx(target, rel=1e-4, abs=0)
                assert got == pytest.approx(target - math.exp(-math.pi * (R + 6) ** 2), rel=1e-15, abs=0)

    @pytest.mark.parametrize("R", [1.0, 2.5, 4.0])
    def test_paley_wiener_tail_against_si(self, R):
        # the closed form 2 (F(R_tr) - F(R)): mass of sinc^2 on R < |t - x| <= R_tr
        K = PaleyWienerKernel()
        got = tail_sup(K, LebesgueMeasure(1), R, [[0.3]], QuadConfig(h=0.02, truncation_radius=R + 6))
        exact = paley_wiener_mass(K.band, R + 6) - paley_wiener_mass(K.band, R)
        assert got == pytest.approx(exact, rel=1e-12)

    def test_several_probes_give_the_max_of_single_probes(self):
        # each value must equal its own call bit for bit
        cfg = QuadConfig(h=0.05, truncation_radius=5.0)
        for K in (FockKernel(), PaleyWienerKernel()):
            probes = [p[: K.dim] for p in ([0.0, 0.0], [0.62, -1.37], [2.5, 3.1])]
            singles = [tail_sup(K, LebesgueMeasure(K.dim), 1.0, [p], cfg) for p in probes]
            assert tail_sup(K, LebesgueMeasure(K.dim), 1.0, probes, cfg) == max(singles)

    def test_far_tail_below_floor(self):
        got = tail_sup(FockKernel(), LebesgueMeasure(2), 3.0, [[0.0, 0.0]], QuadConfig(h=0.05, truncation_radius=9.0))
        assert got <= 1e-8

    def test_nonincreasing_in_radius(self):
        K = FockKernel()
        cfg = lambda R: QuadConfig(h=0.05, truncation_radius=R + 6)
        vals = [tail_sup(K, LebesgueMeasure(2), R, [[0.3, -0.2]], cfg(R)) for R in (0.5, 1.0, 1.5, 2.0)]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_center_independence(self):
        K = FockKernel()
        cfg = QuadConfig(h=0.05, truncation_radius=7.0)
        vals = [
            tail_sup(K, LebesgueMeasure(2), 1.0, [p], cfg)
            for p in ([0.0, 0.0], [0.62, -1.37], [2.5, 3.1])
        ]
        assert max(vals) - min(vals) == 0.0

    @pytest.mark.parametrize(
        "measure", [CountingMeasure(Lattice(1.0, 2)), LebesgueMeasure(1)], ids=["counting", "wrong-dim"]
    )
    def test_lebesgue_index_measure_only(self, measure):
        with pytest.raises(ValueError, match="Lebesgue measure in dimension 2"):
            tail_sup(FockKernel(), measure, 2.0, [[0.0, 0.0]], QuadConfig())

    @pytest.mark.parametrize(
        "probes, message",
        [([[0.0]], "probe centres must have 2 coordinates, got 1"), ([], "at least one probe centre")],
        ids=["one-coordinate", "empty"],
    )
    def test_probes_must_match_the_kernel(self, probes, message):
        # a probe with one coordinate has no tail in the Fock kernel's plane
        with pytest.raises(ValueError, match=message):
            tail_sup(FockKernel(), LebesgueMeasure(2), 1.0, probes, QuadConfig())

    def test_window_must_reach_the_sphere(self):
        with pytest.raises(ValueError, match="truncation radius is smaller than the ball radius"):
            tail_sup(FockKernel(), LebesgueMeasure(2), 3.0, [[0.0, 0.0]], QuadConfig(truncation_radius=2.0))

    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize(
        "kernel",
        [FockKernel(), GaborGaussianKernel(1), PaleyWienerKernel(), TabulatedKernel(lambda x, y: 1.0, dim=1)],
        ids=["fock", "gabor", "paley-wiener", "tabulated"],
    )
    def test_radius_must_be_positive_and_finite(self, kernel, R):
        # the closed forms would return a number for any R; every kernel refuses it alike
        with pytest.raises(ValueError, match="ball radius must be positive and finite"):
            tail_sup(kernel, LebesgueMeasure(kernel.dim), R, [[0.0] * kernel.dim], QuadConfig(truncation_margin=2.0))

    def test_gaussian_tail_is_one_disk_mass_call(self):
        # the centred tail is the outside masses at R and R_tr that one disk-mass call at s = 0
        # gives, each within the radial rule's accuracy of its scalar call
        got = tail_sup(FockKernel(), LebesgueMeasure(2), 1.5, [[0.3, -0.2]], QuadConfig(truncation_margin=2.5))
        both = localization._disk_mass(np.zeros(1), [1.5, 4.0], inside=False)[0]
        single = [localization._disk_mass(np.zeros(1), r, inside=False)[0] for r in (1.5, 4.0)]
        assert np.array_equal(both, np.ravel(single))
        assert abs(got - (both[0] - both[1])) <= 4e-16 * got

    def test_gaussian_tail_deduplicates_nothing(self, monkeypatch):
        # the tail is one closed form: no np.unique, though a call with several distances takes one
        unique = np.unique
        calls = []
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        got = tail_sup(FockKernel(), LebesgueMeasure(2), 1.5, [[0.3, -0.2]], QuadConfig(truncation_margin=2.5))
        assert calls == []
        localization._disk_mass(np.array([0.0, 2.75]), [1.5, 4.0], inside=False)
        assert len(calls) == 1
        assert got == math.exp(-math.pi * 1.5**2) - math.exp(-math.pi * 4.0**2)

    @pytest.mark.parametrize("kernel", [FockKernel(), GaborGaussianKernel(1)], ids=["fock", "gabor"])
    def test_gaussian_tail_runs_no_radial_rule(self, kernel, monkeypatch):
        # the tail is centred, s = 0, where the record takes e^{-pi R^2} - e^{-pi R_tr^2} in closed
        # form, bit for bit: no disk mass and no radial density
        calls = []
        monkeypatch.setattr(localization, "_disk_mass", lambda *a: calls.append(a))
        monkeypatch.setattr(localization, "_radial_density", lambda *a: calls.append(a))
        for R, margin in ((0.5, 6.0), (1.0, 6.0), (1.5, 6.0), (3.0, 6.0), (1.5, 2.5)):
            got = tail_sup(kernel, LebesgueMeasure(2), R, [[0.3, -0.2]], QuadConfig(truncation_margin=margin))
            assert got == math.exp(-math.pi * R * R) - math.exp(-math.pi * (R + margin) ** 2)
        assert calls == []

    @pytest.mark.parametrize(
        "kernel", [FockKernel(), GaborGaussianKernel(1), PaleyWienerKernel()], ids=["fock", "gabor", "paley-wiener"]
    )
    def test_centred_is_the_mass_at_the_centre(self, kernel):
        # the record's centred tail is its mass at distance 0 between the two spheres: for sinc^2 the
        # inside masses give the same bits (F is odd), for the Gaussian the outside masses agree within
        # the radial rule's accuracy at the centre
        profile = localization._profile(kernel)
        for R in (0.5, 1.0, 3.0):
            for margin in (2.0, 6.0):
                centred = profile.centred(kernel, R, R + margin)
                inside = isinstance(kernel, PaleyWienerKernel)
                near, far = (profile.mass(kernel, np.zeros(1), x, inside=inside)[0] for x in (R, R + margin))
                assert isinstance(centred, float)
                if inside:
                    assert centred == far - near
                else:
                    assert abs(centred - (near - far)) <= 4e-16 * centred

    def test_kernel_with_no_profile_is_refused(self):
        kernel = TabulatedKernel(lambda x, y: 1.0, dim=1, mode_density=1.0)
        with pytest.raises(ValueError, match="no radial profile for TabulatedKernel"):
            tail_sup(kernel, LebesgueMeasure(1), 1.0, [[0.0]], QuadConfig())

    def test_gaussian_rule_is_for_the_plane_only(self):
        # GaborGaussianKernel(2) lives in R^4, where the tail is not e^{-pi R^2}; no grid reaches it
        with pytest.raises(ValueError, match="no radial profile for GaborGaussianKernel in dimension 4"):
            tail_sup(GaborGaussianKernel(2), LebesgueMeasure(4), 1.0, [[0.0] * 4], QuadConfig())


class TestDoubleTail:
    def test_symmetric_pair_equal_terms(self):
        pair = FramePairSpec(FockKernel(), LebesgueMeasure(2), LebesgueMeasure(2))
        t1, t2 = double_tail(pair, Ball([0, 0], 2.0))
        assert abs(t1 - t2) < 1e-10

    def test_fock_lattice_against_radial_oracle(self):
        pair = FramePairSpec(
            FockKernel(), LebesgueMeasure(2), g_measure=CountingMeasure(Lattice(1.0, 2))
        )
        r = 4.0
        t1, t2 = double_tail(pair, Ball([0, 0], r))
        out_r, in_r = lattice_radii(1.0, r, r + 6.0)
        t1_oracle = math.fsum(gaussian_disk_oracle(in_r, r, inside=False))
        t2_oracle = math.fsum(gaussian_disk_oracle(out_r, r, inside=True))
        assert t1 == pytest.approx(t1_oracle, rel=1e-12)
        assert t2 == pytest.approx(t2_oracle, rel=1e-12)

    def test_per_atom_tail_bound(self):
        # every inner atom's contribution is at most its boundary-distance tail
        pair = FramePairSpec(
            FockKernel(), LebesgueMeasure(2), g_measure=CountingMeasure(Lattice(1.0, 2))
        )
        r = 4.0
        t1, _ = double_tail(pair, Ball([0, 0], r))
        _, in_r = lattice_radii(1.0, r, r + 6.0)
        bound = float(np.sum([math.exp(-math.pi * (r - s) ** 2) for s in in_r]))
        assert t1 <= bound * (1 + 1e-6)

    def test_empty_inner_side(self):
        atoms = CountingMeasure(PointSet([[10.0, 0.0]]))
        pair = FramePairSpec(FockKernel(), LebesgueMeasure(2), g_measure=atoms)
        t1, t2 = double_tail(pair, Ball([0, 0], 2.0))
        assert t1 == 0.0  # no nu atoms inside the ball
        assert t2 >= 0.0

    def test_cauchy_schwarz_chain(self):
        # t1 <= nu(B) sup_x int_{B^c} mod2 d mu
        pair = FramePairSpec(
            FockKernel(), LebesgueMeasure(2), g_measure=CountingMeasure(Lattice(1.0, 2))
        )
        r = 3.0
        t1, _ = double_tail(pair, Ball([0, 0], r))
        nu_b = pair.g_measure.ball_mass(Ball([0, 0], r))
        sup = tail_sup(FockKernel(), LebesgueMeasure(2), 0.0 + 1e-9, [[0.0, 0.0]], QuadConfig(h=0.05, truncation_radius=r + 6))
        assert t1 <= nu_b * sup * (1 + 1e-6)

    def test_kernel_with_no_profile_is_refused(self):
        # a tabulated callback need not be a radial profile of x - y: no term is taken for it
        lattice = CountingMeasure(Lattice(1.0, 1))
        with pytest.raises(ValueError, match="no radial profile for TabulatedKernel"):
            FramePairSpec(TabulatedKernel(lambda x, y: 1.0, dim=1, mode_density=1.0), LebesgueMeasure(1), lattice)

    def test_kernel_dimension_cap(self):
        lattice = CountingMeasure(Lattice(1.0, 4))
        with pytest.raises(ValueError, match="no radial profile for GaborGaussianKernel in dimension 4"):
            FramePairSpec(GaborGaussianKernel(2), lattice, lattice)

    @pytest.mark.parametrize(
        "kernel, discrete, fixed, fixed_side, ball",
        [
            (FockKernel(), "points", "lebesgue", "f", Ball([0.1, -0.3], 2.5)),
            (FockKernel(), "points", "lebesgue", "g", Ball([0.1, -0.3], 2.5)),
            (PaleyWienerKernel(), "atoms", "lebesgue", "f", Ball([0.2], 2.5)),
            (PaleyWienerKernel(), "atoms", "lebesgue", "g", Ball([0.2], 2.5)),
            (FockKernel(), "atoms", "atoms", "f", Ball([0.1, -0.3], 2.5)),
            (FockKernel(), "atoms", "atoms", "g", Ball([0.1, -0.3], 2.5)),
            (PaleyWienerKernel(), "atoms", "atoms", "f", Ball([0.2], 2.5)),
            (PaleyWienerKernel(), "atoms", "atoms", "g", Ball([0.2], 2.5)),
        ],
        ids=[
            "fock-lebesgue-points",
            "fock-points-lebesgue",
            "pw-lebesgue-atomic",
            "pw-atomic-lebesgue",
            "fock-atomic-permuted",
            "fock-permuted-atomic",
            "pw-atomic-permuted",
            "pw-permuted-atomic",
        ],
    )
    def test_permuted_atoms_give_the_same_bits(self, kernel, discrete, fixed, fixed_side, ball):
        # a discrete side's terms are summed exactly, so the order its points
        # or atoms come in cannot move t1, t2 or either ball mass by one bit;
        # the fixed side is Lebesgue or a second seeded atomic measure
        rng = np.random.default_rng(3)
        n = 200 if kernel.dim == 2 else 40
        pts = rng.uniform(-6.0, 6.0, size=(n, kernel.dim))
        weights = rng.uniform(0.1, 3.0, len(pts))
        if fixed == "lebesgue":
            other = LebesgueMeasure(kernel.dim)
        else:
            other = AtomicMeasure(rng.uniform(-6.0, 6.0, size=(n, kernel.dim)), rng.uniform(0.1, 3.0, n))

        def tails(order):
            side = (
                CountingMeasure(PointSet(pts[order]))
                if discrete == "points"
                else AtomicMeasure(pts[order], weights[order])
            )
            sides = (other, side)
            pair = FramePairSpec(kernel, *(sides if fixed_side == "f" else sides[::-1]))
            return *double_tail(pair, ball), pair.f_measure.ball_mass(ball), pair.g_measure.ball_mass(ball)

        first = tails(np.arange(len(pts)))
        assert first[0] > 0 and first[1] > 0
        for _ in range(5):
            assert tails(rng.permutation(len(pts))) == first


PROFILES = dict(localization._PROFILES)  # the records as built, whatever a test patches


def patch_profile(monkeypatch, kernel, pairs, **fields):
    """Replace the kernel's _PROFILES record by one whose phi adds the pairs it evaluates to pairs[-1],
    with the given fields changed."""
    profile = PROFILES[type(kernel)]

    def counted(kernel, X, Y):
        out = profile.phi(kernel, X, Y)
        pairs[-1] += out.size
        return out

    monkeypatch.setitem(localization._PROFILES, type(kernel), profile._replace(phi=counted, **fields))


def jittered_points(seed, scale, half_width):
    """A seeded jittered scale * Z^2 on [-half_width, half_width]^2."""
    rng = np.random.default_rng(seed)
    n = np.arange(-half_width / scale, half_width / scale + 1)
    grid = np.stack(np.meshgrid(n, n, indexing="ij"), axis=-1).reshape(-1, 2) * scale
    return grid + rng.uniform(-0.2 * scale, 0.2 * scale, size=grid.shape)


ATOMS_2D = jittered_points(4, 0.9, 12.0)


def pruned_and_dense(pair, ball, monkeypatch):
    """double_tail with the kernel's own cutoff and with none (every pair), plus the number of kernel pairs
    each evaluated."""
    pairs = [0]
    patch_profile(monkeypatch, pair.kernel, pairs)
    pruned = double_tail(pair, ball)
    pairs.append(0)
    patch_profile(monkeypatch, pair.kernel, pairs, cutoff=math.inf)
    dense = double_tail(pair, ball)
    return pruned, dense, pairs


# a Gaussian cutoff that prunes nothing representable: e^{-pi 7^2} ~ 1e-67
WIDE_CUTOFF = 7.0
# the atom oracles' reach beyond the sphere: the Gaussian puts e^{-36 pi} ~ 1e-49 beyond it
ORACLE_REACH = 6.0


class TestPrunedSum:
    """Cutoff-pruned cross terms against oracles that skip no pair within a wide reach."""

    def assert_agree(self, pruned, t1, t2):
        for got, want in ((pruned["t1"], t1), (pruned["t2"], t2)):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            assert abs(got - want) <= pruned["trunc_bound"]

    @pytest.mark.parametrize("r", [8.0, 16.0])
    def test_fock_lattice(self, r):
        pair = FramePairSpec(FockKernel(), LebesgueMeasure(2), CountingMeasure(Lattice(0.5, 2)))
        ball = Ball([0, 0], r)
        res = localization_defect(pair, ball)
        pts = Lattice(0.5, 2).points_in_ball(Ball([0, 0], r + ORACLE_REACH))
        t1, t2 = atom_terms_oracle(pts, np.ones(len(pts)), ball, r + ORACLE_REACH, shift=np.zeros(2))
        assert res["t1"] != res["t2"]
        self.assert_agree(res, t1, t2)

    def test_gabor_jittered_points_with_offset(self):
        pts = jittered_points(3, 0.8, 14.0)
        points = CountingMeasure(PointSet(pts))
        pair = FramePairSpec(GaborGaussianKernel(), LebesgueMeasure(2), points, g_offset=[0.3, -0.15])
        ball = Ball([0.4, -0.7], 6.0)
        res = localization_defect(pair, ball)
        t1, t2 = atom_terms_oracle(pts, np.ones(len(pts)), ball, 6.0 + ORACLE_REACH, pair.g_offset)
        self.assert_agree(res, t1, t2)

    def test_atomic_unequal_weights(self):
        pts = jittered_points(5, 0.7, 12.0)
        weights = np.random.default_rng(5).uniform(0.5, 2.0, size=len(pts))
        pair = FramePairSpec(FockKernel(), AtomicMeasure(pts, weights), LebesgueMeasure(2))
        ball = Ball([0, 0], 5.0)
        res = localization_defect(pair, ball)
        # the atoms are the f side: t1 takes the outer atoms, t2 the inner ones
        t2, t1 = atom_terms_oracle(pts, weights, ball, 5.0 + ORACLE_REACH, np.zeros(2))
        self.assert_agree(res, t1, t2)

    def test_lattice_by_lattice(self, monkeypatch):
        f, g = CountingMeasure(Lattice(0.5, 2)), CountingMeasure(Lattice(0.7, 2))
        ball = Ball([0, 0], 8.0)
        pairs = []
        results = []
        # the wide run keeps every pair that holds a representable term
        for cutoff in (localization._PROFILES[FockKernel].cutoff, WIDE_CUTOFF):
            pairs.append(0)
            patch_profile(monkeypatch, FockKernel(), pairs, cutoff=cutoff)
            results.append(localization_defect(FramePairSpec(FockKernel(), f, g), ball))
        pruned, full = results
        self.assert_agree(pruned, full["t1"], full["t2"])
        assert pairs[0] < pairs[1]

    @pytest.mark.parametrize("f", [LebesgueMeasure(1), CountingMeasure(Lattice(1.0, 1))])
    def test_paley_wiener_infinite_cutoff_is_dense(self, f, monkeypatch):
        pair = FramePairSpec(PaleyWienerKernel(), f, CountingMeasure(Lattice(0.9, 1)))
        pruned, dense, pairs = pruned_and_dense(pair, Ball([0.0], 8.0), monkeypatch)
        assert pruned == dense
        assert pairs[0] == pairs[1]

    @pytest.mark.parametrize("delta", [[0.3, -0.15], [1.5, 0.0], [2.5, 0.0]], ids=["small", "1.5", "2.5"])
    @pytest.mark.parametrize("f", [LebesgueMeasure(2), CountingMeasure(Lattice(1.0, 2))], ids=["lebesgue", "lattice"])
    def test_offsets_widen_every_cutoff(self, f, delta, monkeypatch):
        # the cutoff rings sit at r +- (c + |Delta|): an offset pair must keep
        # every term that the wide kernel finds above the pruning bound
        g = CountingMeasure(Lattice(1.0, 2))
        ball = Ball([0.0, 0.0], 4.0)
        pair = FramePairSpec(FockKernel(), f, g, f_offset=delta)
        pruned = localization_defect(pair, ball)
        patch_profile(monkeypatch, FockKernel(), [0], cutoff=WIDE_CUTOFF)
        full_t1, full_t2 = double_tail(pair, ball)
        assert abs(pruned["t1"] - full_t1) <= pruned["trunc_bound"]
        assert abs(pruned["t2"] - full_t2) <= pruned["trunc_bound"]


@pytest.mark.parametrize("kernel_class", list(localization._PROFILES), ids=lambda cls: cls.__name__)
def test_profile_record_supports_trunc_bound(kernel_class):
    # the facts trunc_bound rests on, for each record at its kernel's defaults
    kernel = kernel_class()
    profile = localization._PROFILES[kernel_class]
    origin = np.zeros((1, kernel.dim))
    # 1. a pair the sums skip lies beyond the cutoff, where phi <= _PRUNE_EPS (an infinite cutoff skips none);
    #    the float cutoff is sqrt(ln(1e14) / pi) rounded down, so phi there is 1e-14 (1 + 2.3e-15)
    if math.isfinite(profile.cutoff):
        beyond = math.nextafter(profile.cutoff, math.inf)
        assert profile.phi(kernel, origin, np.eye(kernel.dim)[:1] * beyond)[0, 0] <= localization._PRUNE_EPS
    # 2. the outside mass is over all of the complement: inside + outside is the reproducing mass
    #    1 / mode_density up to rounding, and a record that prunes bounds the outside mass by its tail
    for gap in (0.5, 1.0, 2.0, 3.2):
        outside = profile.mass(kernel, np.zeros(1), gap, inside=False)[0]
        inside = profile.mass(kernel, np.zeros(1), gap, inside=True)[0]
        assert 0.0 < outside
        assert abs(inside + outside - 1.0 / kernel.mode_density) <= 2e-15
        if math.isfinite(profile.cutoff):
            assert outside <= profile.tail(kernel, gap)
        else:
            assert profile.tail is None


def gaussian_window_bound(f, g, ball, delta, margin):
    """2 1e-14 f(B_w) g(B_w) + (mu(B) + nu(B)) e^{-pi min(gap, c)^2}, B_w = B(c, r + margin), gap = margin - |Delta|
    clamped at 0: the bound of a Gaussian row cut at the window B_w."""
    c = math.sqrt(-math.log(1e-14) / math.pi)
    r_w = ball.radius + margin
    window = Ball(ball.center, r_w)
    gap = max(0.0, r_w - ball.radius - delta)
    tail = math.exp(-math.pi * min(gap, c) ** 2)
    return 2 * 1e-14 * f.ball_mass(window) * g.ball_mass(window) + (f.ball_mass(ball) + g.ball_mass(ball)) * tail


def gaussian_walk_bound(f, g, ball, delta):
    """The window bound of a Gaussian row whose window is the walk ball, of margin c + |Delta|."""
    c = math.sqrt(-math.log(1e-14) / math.pi)
    return gaussian_window_bound(f, g, ball, delta, c + delta)


class TestTruncationBound:
    """trunc_bound is 0.0 where nothing is pruned (Paley-Wiener, two Lebesgue sides); on a Gaussian row that
    prunes it is the window bound 2 1e-14 f(B_w) g(B_w) + (mu(B) + nu(B)) tail(min(gap, c)) over the walk
    ball B_w, bit for bit.  Where a case names a margin m, that bound is also smaller than the bound of a row
    cut at the window B(c, r + m): at m = 6 the window is wider than the walk ball, at m = 1.5 its gap is under
    the cutoff.
    """

    @pytest.mark.parametrize(
        "kernel, f, g, offset, margin",
        [
            (FockKernel(), LebesgueMeasure(2), CountingMeasure(Lattice(1.0, 2)), [0.0, 0.0], 6.0),
            (FockKernel(), LebesgueMeasure(2), CountingMeasure(Lattice(1.0, 2)), [0.0, 0.0], 1.5),
            (GaborGaussianKernel(1), LebesgueMeasure(2), CountingMeasure(Lattice(0.8, 2)), [0.6, -0.8], None),
            (FockKernel(), LebesgueMeasure(2), CountingMeasure(Lattice(1.0, 2)), [1.5, 0.0], None),
            (FockKernel(), CountingMeasure(Lattice(0.5, 2)), CountingMeasure(Lattice(0.7, 2)), [0.0, 0.0], None),
            (FockKernel(), CountingMeasure(ThinnedLattice(0.8, 2)), LebesgueMeasure(2), [1.5, 0.0], None),
            (FockKernel(), AtomicMeasure(ATOMS_2D, np.linspace(0.5, 2.0, len(ATOMS_2D))), CountingMeasure(Lattice(0.9, 2)), [0.3, 0.2], None),
            (PaleyWienerKernel(2.0), LebesgueMeasure(1), CountingMeasure(Lattice(0.9, 1)), [0.0], None),
            (PaleyWienerKernel(), LebesgueMeasure(1), CountingMeasure(Lattice(0.9, 1)), [1.5], None),
            (PaleyWienerKernel(), LebesgueMeasure(1), CountingMeasure(Lattice(1.0, 1)), [7.0], None),
            (PaleyWienerKernel(), CountingMeasure(Lattice(1.0, 1)), CountingMeasure(Lattice(0.9, 1)), [0.3], None),
            (FockKernel(), LebesgueMeasure(2), LebesgueMeasure(2), [40.0, 0.0], None),
            (GaborGaussianKernel(1), LebesgueMeasure(2), LebesgueMeasure(2), [0.35, 0.2], None),
        ],
        ids=[
            "fock-lattice-margin-6",
            "fock-lattice-margin-1.5",
            "gabor-offset",
            "fock-offset-1.5",
            "fock-lattice-by-lattice",
            "fock-thinned-offset",
            "fock-atomic-lattice",
            "pw-lebesgue-lattice",
            "pw-offset-1.5",
            "pw-offset-7",
            "pw-lattice-by-lattice",
            "fock-lebesgue-offset-40",
            "gabor-lebesgue",
        ],
    )
    def test_against_its_formula(self, kernel, f, g, offset, margin):
        # at the parent's window of margin 6 the pw offset-7 rows read inf (gap 0), and the Lebesgue rows at
        # offset 40 the whole normalizer
        pruned = isinstance(kernel, (FockKernel, GaborGaussianKernel)) and (f.is_discrete or g.is_discrete)
        delta = float(np.linalg.norm(offset))
        for r in (2.0, 3.0, 4.0, 16.0):
            ball = Ball(np.zeros(kernel.dim), r)
            res = localization_defect(FramePairSpec(kernel, f, g, f_offset=offset), ball)
            want = gaussian_walk_bound(f, g, ball, delta) if pruned else 0.0
            assert res["trunc_bound"] == want
            if margin is not None:
                assert res["trunc_bound"] < gaussian_window_bound(f, g, ball, delta, margin)


class TestDiskMass:
    """The closed-form atom term: a unit Gaussian's mass inside or outside a disk."""

    @pytest.mark.parametrize("r", [0.5, 2.0, 4.0, 8.0, 16.0, 64.0])
    def test_against_ncx2(self, r):
        c = localization._PROFILES[FockKernel].cutoff
        hugging = np.logspace(-12, 0, 60)
        s = np.concatenate([[0.0], np.linspace(max(0.0, r - c - 3.0), r + c + 3.0, 2001), r + hugging, r - hugging])
        s = s[s >= 0.0]  # the centre, both sides of the sphere, and points hugging it
        for inside in (True, False):
            err = np.abs(localization._disk_mass(s, r, inside) - gaussian_disk_oracle(s, r, inside))
            assert err.max() <= 1e-14

    def test_inside_and_outside_add_to_one(self):
        s = np.linspace(0.0, 12.0, 241)
        total = localization._disk_mass(s, 6.0, True) + localization._disk_mass(s, 6.0, False)
        assert np.max(np.abs(total - 1.0)) <= 2e-15  # two sums of 64 rounded terms

    @staticmethod
    def lattice_distances():
        # the distances of 0.8 Z^2 from the centre of B(0, 4), around its sphere: many repeat
        pts = Lattice(0.8, 2).points_in_ball(Ball([0.0, 0.0], 9.0))
        return np.sqrt(np.einsum("ij,ij->i", pts, pts))

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    def test_each_entry_is_its_own_call(self, inside):
        # an entry's mass does not depend on the rest of the batch, bit for bit; with several
        # radii, each column is also the call with that radius alone
        s = np.concatenate([self.lattice_distances(), np.linspace(0.0, 12.0, 97)])
        radii = [0.5, 4.0, 4.0 + 1e-12, 7.25]
        for r in (4.0, radii):
            batch = localization._disk_mass(s, r, inside)
            alone = np.array([localization._disk_mass(s[i : i + 1], r, inside)[0] for i in range(len(s))])
            assert np.array_equal(batch, alone)
        assert np.array_equal(batch, np.column_stack([localization._disk_mass(s, x, inside) for x in radii]))

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    def test_shuffled_duplicates_permute_the_values(self, inside):
        s = self.lattice_distances()
        perm = np.random.default_rng(3).permutation(len(s))
        assert len(np.unique(s)) < len(s) / 4
        shuffled = localization._disk_mass(s[perm], 4.0, inside)
        assert np.array_equal(shuffled, localization._disk_mass(s, 4.0, inside)[perm])

    def test_one_rule_per_distinct_distance(self, monkeypatch):
        rows = []
        radial_density = localization._radial_density

        def record(s, d):
            rows.append(np.shape(s)[0])
            return radial_density(s, d)

        monkeypatch.setattr(localization, "_radial_density", record)
        s = self.lattice_distances()
        assert np.count_nonzero(s == 0.0) == 1  # the centre, a distance like any other
        localization._disk_mass(s, 4.0, inside=False)
        assert rows == [len(np.unique(s))]
        # one distance: one row, for one radius or several
        rows.clear()
        localization._disk_mass(s[:1], 4.0, inside=False)
        localization._disk_mass(s[:1], [4.0, 10.0], inside=True)
        localization._disk_mass(np.zeros(3), [4.0, 10.0], inside=True)
        assert rows == [1, 1, 1]

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    def test_rule_at_the_centre_against_the_closed_form(self, inside):
        # the radial rule at s = 0 itself, where the mass is the closed form (Marcum's central case)
        radii = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        rule = localization._disk_mass(np.zeros(1), radii, inside)[0]
        centre = -np.expm1(-math.pi * radii**2) if inside else np.exp(-math.pi * radii**2)
        if inside:
            # masses in [1/2, 1) summed from 64 rounded terms: 3 to 5 ulps apart
            assert np.max(np.abs(rule - centre)) <= 6e-16
        else:
            assert np.max(np.abs(rule - centre) / centre) <= 4e-16


def scaled_i0_oracle(x: float) -> Decimal:
    """e^{-x} I_0(x) at 40 digits: the power series sum_k (x^2/4)^k / (k!)^2 times Decimal.exp(-x)."""
    with localcontext() as ctx:
        ctx.prec = 40
        q = Decimal(x) * Decimal(x) / 4
        term = total = Decimal(1)
        k = 0
        while term > total * Decimal("1e-42"):
            k += 1
            term = term * q / (k * k)
            total += term
        return total * (-Decimal(x)).exp()


class TestScaledI0:
    """e^{-x} I_0(x): the periodic trapezoid rule up to the split 50, the asymptotic series beyond."""

    @pytest.mark.parametrize(
        "x",
        [
            np.linspace(0.0, 200.0, 4001),
            50.0 + np.concatenate([-np.logspace(-12, 0, 49), [0.0], np.logspace(-12, 0, 49)]),
            np.logspace(2, 6, 401),
        ],
        ids=["0-200", "around-50", "up-to-1e6"],
    )
    def test_against_scipy_i0e(self, x):
        want = special.i0e(x)
        assert np.max(np.abs(localization._scaled_i0(x) - want) / want) <= 2e-15

    def test_rule_against_40_digit_series(self):
        x = np.concatenate([np.linspace(0.0, 50.0, 2001), 50.0 - np.logspace(-12, 0, 49)])
        want = [scaled_i0_oracle(v) for v in x.tolist()]
        worst = max(abs(Decimal(g) - w) / w for g, w in zip(localization._scaled_i0(x).tolist(), want))
        assert worst <= Decimal("5e-16")  # numpy's i0 times exp reaches 5.7e-16 here

    def test_zero_is_exactly_one(self):
        # the weights sum to exactly 1 and e^0 = 1
        assert localization._scaled_i0(np.array([0.0]))[0] == 1.0

    def test_one_sided_arrays_are_the_bits_of_a_mixed_call(self):
        # an array wholly on one side of the split runs its branch unmasked, in any shape,
        # with the bits each entry gets from a call that gathers both sides
        rule = np.concatenate([[0.0], np.linspace(1e-3, 50.0, 95)])
        series = np.concatenate([50.0 + np.logspace(-12, 0, 40), np.logspace(2, 6, 56)])
        mixed = localization._scaled_i0(np.concatenate([rule, series]))
        for x, want in ((rule, mixed[: len(rule)]), (series, mixed[len(rule) :])):
            assert np.array_equal(localization._scaled_i0(x), want)
            assert np.array_equal(localization._scaled_i0(x.reshape(2, 3, 16)), want.reshape(2, 3, 16))

    def test_split_is_fifty_inclusive(self, monkeypatch):
        # doubling the rule's weights doubles exactly the entries the rule takes
        x = np.array([0.0, 49.5, 50.0, 50.5, 1e3])
        before = localization._scaled_i0(x)
        monkeypatch.setattr(localization, "_I0_W", 2.0 * localization._I0_W)
        after = localization._scaled_i0(x)
        assert np.array_equal(after[:3], 2.0 * before[:3])
        assert np.array_equal(after[3:], before[3:])


class TestLensOverlap:
    """The Lebesgue x Lebesgue term for Gaussian kernels: a radial integral against the lens area."""

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0, 4.0, 16.0])
    @pytest.mark.parametrize("s", [0.0, 0.403, 0.707, 2.236])
    def test_against_scipy_quad(self, r, s):
        # oracle: the radial density against A(rho) = 2r^2 acos(rho/2r) - (rho/2) sqrt(4r^2 - rho^2)
        # in rho itself, split at the Gaussian's ridge s; the lens ends at 2r
        def integrand(rho):
            lens = 2 * r * r * math.acos(rho / (2 * r)) - 0.5 * rho * math.sqrt(max(4 * r * r - rho * rho, 0.0))
            return 2 * math.pi * rho * math.exp(-math.pi * (rho - s) ** 2) * special.i0e(2 * math.pi * rho * s) * lens

        breaks = [b for b in (s,) if 0.0 < b < 2 * r]
        oracle, _ = integrate.quad(integrand, 0.0, 2 * r, points=breaks or None, epsabs=0.0, epsrel=1e-13, limit=200)
        assert localization._lens_overlap(s, r) == pytest.approx(oracle, rel=1e-13)

    def test_non_gaussian_plane_kernel_is_refused(self):
        kernel = TabulatedKernel(lambda x, y: 1.0, dim=2, mode_density=1.0)
        with pytest.raises(ValueError, match="TabulatedKernel in dimension 2"):
            FramePairSpec(kernel, LebesgueMeasure(2), LebesgueMeasure(2))


class TestBoundaryPartition:
    """Atoms on the sphere of B sit on one side of every cross term, the side mu(B) counts them on."""

    def test_inner_and_outer_atoms_split_the_lattice(self, monkeypatch):
        # gabor alpha = 0.8 at r = 4: twelve lattice points, |k| = 5, lie on the sphere
        lat = Lattice(0.8, 2)
        kernel = GaborGaussianKernel(1)
        pair = FramePairSpec(kernel, LebesgueMeasure(2), CountingMeasure(lat))
        ball = Ball([0.0, 0.0], 4.0)
        seen = {}
        disk_mass = localization._disk_mass

        def record(s, r, inside):
            seen[inside] = np.asarray(s)
            return disk_mass(s, r, inside)

        monkeypatch.setattr(localization, "_disk_mass", record)
        # t1 takes the lattice atoms inside B (mass outside), t2 those outside B (mass inside)
        double_tail(pair, ball)
        c = localization._PROFILES[type(kernel)].cutoff
        # integer coordinates: no atom lies within rounding of r - c or r + c
        k2 = np.rint(np.einsum("ij,ij->i", *[lat.points_in_ball(Ball([0.0, 0.0], 9.0)) / 0.8] * 2)).astype(int)
        want_inner = np.sort(0.8 * np.sqrt(k2[(k2 <= 25) & (0.8 * np.sqrt(k2) >= 4.0 - c)]))
        want_outer = np.sort(0.8 * np.sqrt(k2[(k2 > 25) & (0.8 * np.sqrt(k2) <= 4.0 + c)]))
        inner, outer = np.sort(seen[False]), np.sort(seen[True])
        assert len(inner) == len(want_inner) and len(outer) == len(want_outer)
        assert np.allclose(inner, want_inner, rtol=0, atol=1e-12) and np.allclose(outer, want_outer, rtol=0, atol=1e-12)
        assert np.sum(np.abs(inner - 4.0) < 1e-12) == 12 and not np.any(np.abs(outer - 4.0) < 1e-12)


class TestLocalizationDefect:
    def test_identical_pair_zero(self):
        pair = FramePairSpec(FockKernel(), LebesgueMeasure(2), LebesgueMeasure(2))
        row = localization_defect(pair, Ball([0, 0], 2.0))
        assert row["defect"] == 0.0
        assert row["eps_eff"] == 0.0

    def test_fock_lattice_decay(self):
        pair = FramePairSpec(
            FockKernel(), LebesgueMeasure(2), g_measure=CountingMeasure(Lattice(1.0, 2))
        )
        eps = [
            localization_defect(pair, Ball([0, 0], r))["eps_eff"] for r in (4.0, 8.0, 16.0)
        ]
        assert eps[0] > eps[1] > eps[2]

    def test_swap_symmetry(self):
        lattice = CountingMeasure(Lattice(1.0, 2))
        fwd = localization_defect(FramePairSpec(FockKernel(), LebesgueMeasure(2), lattice), Ball([0, 0], 4.0))
        rev = localization_defect(FramePairSpec(FockKernel(), lattice, LebesgueMeasure(2)), Ball([0, 0], 4.0))
        assert fwd["defect"] == pytest.approx(rev["defect"], abs=1e-12)
        assert fwd["t1"] == pytest.approx(rev["t2"], abs=1e-12)

    def test_disjoint_orthogonal_supports(self):
        # one family inside B, the other outside, every cross pair beyond the cutoff: defect 0
        inner = CountingMeasure(PointSet([[0.0, 0.0], [0.5, 0.0]]))
        outer = CountingMeasure(PointSet([[9.0, 0.0], [10.0, 0.0]]))
        pair = FramePairSpec(FockKernel(), inner, outer)
        row = localization_defect(pair, Ball([0.0, 0.0], 2.0))
        assert row["defect"] == 0.0


def normalized_mod2_field(kernel, a):
    """x -> |<k_x, k_a>|^2 / (K(x, x) K(a, a)) as a vectorized field."""
    return lambda pts: np.abs(kernel.normalized_cross(pts, [a])[:, 0]) ** 2


def polar_disk_integral(field, a, r):
    """Oracle: integral of a field over the disk B(a, r) in polar coordinates about a.

    scipy's adaptive quad in the radius, a periodic trapezoid rule of 64
    angles on each ring (exact for a field that is radial about a).
    """
    theta = 2.0 * math.pi * np.arange(64) / 64
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1)

    def f(rho):
        return 2.0 * math.pi * rho * float(np.mean(field(np.asarray(a) + rho * ring)))

    return integrate.quad(f, 0.0, r, epsabs=1e-14, epsrel=1e-13, limit=200)[0]


class TestMeanValue:
    """Mean-value constant of the kernel itself: 1 / integral over B(a, r) of |k~_a|^2."""

    def test_fock_kernel_itself(self):
        # oracle: 1 / integral over B(a, 1) of exp(-pi |x - a|^2) = 1/(1 - e^{-pi})
        res = polar_disk_integral(normalized_mod2_field(FockKernel(), [0.0, 0.0]), [0.0, 0.0], 1.0)
        assert 1.0 / res == pytest.approx(1.0 / (1.0 - math.exp(-math.pi)), rel=1e-4)

    def test_paley_wiener_kernel(self):
        # oracle: 1 / int_{-1}^{1} sinc^2, computed by Gauss-Legendre
        nodes, weights = np.polynomial.legendre.leggauss(400)
        denom = float(np.sum(np.sinc(nodes) ** 2 * weights))
        res = integrate_ball(
            normalized_mod2_field(PaleyWienerKernel(), [0.0]),
            Ball([0.0], 1.0),
            QuadConfig(h=0.005),
        )
        assert 1.0 / res.value == pytest.approx(1.0 / denom, rel=1e-4)

    @pytest.mark.parametrize(
        "kernel, x0",
        [
            (FockKernel(), [0.3, -0.2]),
            (GaborGaussianKernel(1), [0.3, -0.2]),
            (PaleyWienerKernel(), [0.3]),
            (PaleyWienerKernel(2.0), [0.3]),
        ],
        ids=["fock", "gabor-1", "paley-wiener-pi", "paley-wiener-2"],
    )
    def test_reproducing_identity(self, kernel, x0):
        # integral over all y of |<k_x, k_y>|^2 = 1 / mode_density
        field = normalized_mod2_field(kernel, x0)
        if kernel.dim == 2:
            res = polar_disk_integral(field, x0, 6.0)
            assert res == pytest.approx(1.0 / kernel.mode_density, rel=1e-10)
            return
        # Paley-Wiener mass on [x - L, x + L] is (2/b)(Si(2bL) - sin^2(bL)/(bL)), whose
        # shortfall from pi/b stays below the analytic tail 2/(b^2 L)
        b = kernel.band
        for L in (2.0, 8.0, 32.0):
            res = integrate_ball(field, Ball(x0, L), QuadConfig(h=0.005))
            exact = paley_wiener_mass(b, L)
            assert res.value == pytest.approx(exact, rel=1e-9)
            assert 0.0 < 1.0 / kernel.mode_density - exact <= 2.0 / (b * b * L)


class TestOffsets:
    def test_translated_family_defect_zero(self):
        pair = FramePairSpec(
            FockKernel(),
            LebesgueMeasure(2),
            LebesgueMeasure(2),
            g_offset=np.array([0.35, 0.2]),
        )
        row = localization_defect(pair, Ball([0, 0], 2.0))
        assert row["defect"] == 0.0
        assert row["t1"] > 0  # honest nonzero tails

    def test_offset_length_must_match_kernel(self):
        with pytest.raises(ValueError, match="g_offset must have 2 coordinates"):
            FramePairSpec(FockKernel(), LebesgueMeasure(2), LebesgueMeasure(2), g_offset=[0.1])

    def test_lebesgue_tail_against_scipy(self):
        # oracle: ncx2 inner ball mass around each outer point, integrated in
        # polar coordinates over B^c (no lens area, no reproducing identity)
        offset = np.array([0.35, 0.2])
        pair = FramePairSpec(FockKernel(), LebesgueMeasure(2), LebesgueMeasure(2), g_offset=offset)
        theta = 2.0 * math.pi * np.arange(64) / 64  # periodic trapezoid rule

        def ring(rho, r):
            dist = np.hypot(rho * np.cos(theta) - offset[0], rho * np.sin(theta) - offset[1])
            return 2.0 * math.pi * rho * float(np.mean(gaussian_ball_integral(dist, r)))

        for r in (2.0, 4.0):
            oracle, _ = integrate.quad(ring, r, r + 8.0, args=(r,), epsabs=1e-12, epsrel=1e-12, limit=200)
            t1, t2 = double_tail(pair, Ball([0.0, 0.0], r))
            assert t1 == pytest.approx(oracle, rel=1e-12)
            assert t2 == t1

    @pytest.mark.parametrize("band", [math.pi, 2.0, 0.5])
    def test_paley_wiener_lebesgue_tail_against_quad(self, band):
        # t1 = 2r pi/b - the lens overlap, the integral of sinc^2(b (z - s)) (2r - |z|)_+, by quad on
        # the pieces between its kinks and s, each cut into spans of at most 4 to keep quad's
        # subdivisions to a few oscillations
        for r in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0):
            for s in (0.0, 0.3, 1.3, 2.0 * r, 2.0 * r + 0.7, 40.0):
                cuts = [0.0, 2.0 * r] + ([s] if s < 2.0 * r else [])
                ends = np.unique(np.concatenate([np.arange(-2.0 * r, 2.0 * r, 4.0), cuts]))
                lens_field = lambda z: np.sinc(band * (z - s) / math.pi) ** 2 * (2.0 * r - abs(z))
                lens = math.fsum(
                    integrate.quad(lens_field, a, b, epsabs=0.0, epsrel=1e-13)[0] for a, b in zip(ends, ends[1:])
                )
                oracle = 2.0 * r * math.pi / band - lens
                for sign in (1.0, -1.0):
                    pair = FramePairSpec(
                        PaleyWienerKernel(band), LebesgueMeasure(1), LebesgueMeasure(1), g_offset=[sign * s]
                    )
                    t1, t2 = double_tail(pair, Ball([0.0], r))
                    assert t1 == pytest.approx(oracle, rel=1e-12)
                    assert t2 == t1  # t2 takes the lens at -s: it is even in s, bit for bit

    @pytest.mark.parametrize("band", [math.pi, 2.0])
    def test_paley_wiener_lebesgue_tail_against_dblquad(self, band):
        # end to end, independent of the tent reduction: t1 = 2r pi/b - integral over [-r, r]^2 of
        # sinc^2(b (x - y - s) / pi), at the tolerance dblquad resolves
        pair = FramePairSpec(PaleyWienerKernel(band), LebesgueMeasure(1), LebesgueMeasure(1), g_offset=[0.3])
        for r in (2.0, 4.0):
            inner, _ = integrate.dblquad(
                lambda y, x: np.sinc(band * (x - y - 0.3) / math.pi) ** 2, -r, r, -r, r, epsabs=1e-11, epsrel=1e-11
            )
            t1, _ = double_tail(pair, Ball([0.0], r))
            assert t1 == pytest.approx(2.0 * r * math.pi / band - inner, abs=1e-10)


def sinc2_oracle(band, t):
    """F(t) = integral_0^t sinc^2(band u) du from scipy's sici (sinc(y) = sin(y) / y)."""
    x = band * np.asarray(t, dtype=float)
    sq = np.sin(x) ** 2 / np.where(x == 0.0, 1.0, x)
    return (special.sici(2.0 * x)[0] - sq) / band


def sinc2_inside(band, a, c, r):
    """Mass of sinc^2(band (x - a)) over [c - r, c + r], from sici, per entry of a."""
    return sinc2_oracle(band, c + r - a) - sinc2_oracle(band, c - r - a)


def sinc2_outside(band, a, c, r):
    """Mass of sinc^2(band (x - a)) over the complement of [c - r, c + r]: its two half-line tails
    pi / (2 band) - F(c + r - a) and pi / (2 band) + F(c - r - a), from sici (Si(inf) = pi / 2)."""
    half = math.pi / (2.0 * band)
    return (half - sinc2_oracle(band, c + r - a)) + (half + sinc2_oracle(band, c - r - a))


def lattice_inner_oracle(band, alpha, shift, c, r):
    """The atoms alpha k of alpha Z in [c - r, c + r], kernel points alpha k + shift, against Lebesgue
    measure on the complement, from sici."""
    k = np.arange(math.floor((c - r) / alpha) - 1, math.ceil((c + r) / alpha) + 2)
    k = k[np.abs(alpha * k - c) <= r]
    return math.fsum(sinc2_outside(band, alpha * k + shift, c, r))


def lattice_outer_oracle(band, alpha, shift, c, r, odd=False, K=10**6):
    """The atoms alpha k of alpha Z outside [c - r, c + r] (odd k only with odd), kernel points alpha k + shift,
    against Lebesgue measure on it: a direct sici sum over |k| <= K, in chunks, plus the remainder of |k| > K.

    Each far atom puts ~ r / (b^2 alpha^2 k^2) on the interval (sin^2 averages 1/2), so the remainder is
    2r / (b^2 alpha^2 (K + 1/2)), and r / (b^2 alpha^2 K) for the odd k beyond an even K, each to O(1/K^2)
    when 2 b alpha is no multiple of 2 pi.  Cancellation in the F differences sets a floor of ~1.4e-12.
    """
    total = []
    for lo in range(-K, K + 1, 200_000):
        k = np.arange(lo, min(lo + 200_000, K + 1))
        k = k[(np.abs(alpha * k - c) > r) & ((k % 2 != 0) | (not odd))]
        total.append(np.sum(sinc2_inside(band, alpha * k + shift, c, r)))  # positive terms: no cancellation
    return math.fsum(total) + r / (band * alpha) ** 2 * (1.0 / K if odd else 2.0 / (K + 0.5))


def lattice_pair_oracle(band, alpha_out, alpha_in, shift, c, r, K=10**6):
    """The atoms of alpha_out Z outside [c - r, c + r] against those of alpha_in Z inside it, kernel points
    shifted by shift = inner offset - outer offset: sinc^2 summed directly over |k| <= K for each inner atom,
    plus the remainder 1 / (b^2 alpha_out^2 (K + 1/2)) of |k| > K."""
    j = np.arange(math.floor((c - r) / alpha_in) - 1, math.ceil((c + r) / alpha_in) + 2)
    y = alpha_in * j[np.abs(alpha_in * j - c) <= r] + shift
    total = []
    for lo in range(-K, K + 1, 200_000):
        k = np.arange(lo, min(lo + 200_000, K + 1))
        x = alpha_out * k[np.abs(alpha_out * k - c) > r]
        total.append(np.sum(np.sinc(band * np.subtract.outer(x, y) / math.pi) ** 2))  # positive terms
    return math.fsum(total) + len(y) / ((band * alpha_out) ** 2 * (K + 0.5))


def paley_wiener_atoms_oracle(pair, ball):
    """(t1, t2) of a Paley-Wiener pair of a Lebesgue side and an atomic side: every atom, from sici."""
    f_disc = pair.f_measure.is_discrete
    disc, leb_off, atom_off = (
        (pair.f_measure, pair.g_offset, pair.f_offset) if f_disc else (pair.g_measure, pair.f_offset, pair.g_offset)
    )
    c, r, b = float(ball.center[0]), ball.radius, pair.kernel.band
    x, w = disc.points[:, 0], disc.weights
    a = x + atom_off[0] - leb_off[0]
    inner = np.abs(x - c) <= r
    t_inner = math.fsum(w[inner] * sinc2_outside(b, a[inner], c, r))
    t_outer = math.fsum(w[~inner] * sinc2_inside(b, a[~inner], c, r))
    # t1 takes the f side outside B: the atoms' outer terms when f is discrete
    return (t_outer, t_inner) if f_disc else (t_inner, t_outer)


class TestSincSquaredClosedForm:
    """Paley-Wiener atom terms and tail as differences of F(t) = (Si(2bt) - sin^2(bt)/(bt)) / b."""

    def test_si_against_scipy_sici(self):
        x = np.concatenate([np.linspace(-300.0, 300.0, 120001), [0.0, 40.0, -40.0, np.nextafter(40.0, 41.0), 1e-300]])
        err = np.abs(localization._sici(x)[0] - special.sici(x)[0])
        assert err.max() <= 2e-15

    def test_si_is_odd(self):
        x = np.random.default_rng(4).uniform(0.0, 300.0, 500)
        si, cin = localization._sici(x)
        si_neg, cin_neg = localization._sici(-x)
        assert np.array_equal(si_neg, -si)
        assert np.array_equal(cin_neg, cin)  # and Cin is even

    def test_cin_against_scipy(self):
        # Cin(x) = integral_0^x 2 sin^2(u/2) / u du by quad up to 1, gamma + ln x - Ci(x) from sici beyond
        small = np.geomspace(1e-6, 1.0, 60)
        field = lambda u: 2.0 * math.sin(0.5 * u) ** 2 / u
        want = [integrate.quad(field, 0.0, x, epsabs=0.0, epsrel=2e-14)[0] for x in small]
        assert np.max(np.abs(localization._sici(small)[1] / want - 1.0)) <= 2e-15
        big = np.concatenate([np.linspace(1.0, 300.0, 3001), [40.0, np.nextafter(40.0, 41.0)]])
        want = np.euler_gamma + np.log(big) - special.sici(big)[1]
        assert np.max(np.abs(localization._sici(big)[1] / want - 1.0)) <= 2e-15

    @pytest.mark.parametrize("band", [math.pi, 2.0, 0.5])
    def test_integral_against_scipy_quad(self, band):
        t = np.array([-17.3, -4.0, -0.7, 0.0, 1e-9, 0.31, 2.5, 6.0, 22.0, 61.0])
        F, G = localization._sinc2_moments(band, t)
        for ti, fi, gi in zip(t, F, G):
            for moment, got in ((0, fi), (1, gi)):
                want, _ = integrate.quad(
                    lambda u: u**moment * np.sinc(band * u / math.pi) ** 2,
                    0.0,
                    ti,
                    epsabs=1e-15,
                    epsrel=1e-13,
                    limit=500,
                )
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("band", [math.pi, 2.0], ids=["pi", "2"])
    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.3])
    @pytest.mark.parametrize("lattice_side", ["f", "g"])
    def test_lattice_rows_against_sici_oracle(self, alpha, band, lattice_side):
        # the lattice inside B against the Lebesgue complement at 1e-12; outside B against Lebesgue B, where
        # band alpha <= pi makes the Poisson sum the constant pi / (band alpha), at 1e-12, and beyond that
        # against the direct sum at its 1e-11 floor
        lattice = CountingMeasure(Lattice(alpha, 1))
        sides = (LebesgueMeasure(1), lattice) if lattice_side == "g" else (lattice, LebesgueMeasure(1))
        pair = FramePairSpec(PaleyWienerKernel(band), *sides)
        for r in (4.0, 8.0, 16.0):
            row = localization_defect(pair, Ball([0.0], r))
            inner = lattice_inner_oracle(band, alpha, 0.0, 0.0, r)
            if band * alpha <= math.pi:
                k = np.arange(-math.ceil(r / alpha), math.ceil(r / alpha) + 1)
                k = k[np.abs(alpha * k) <= r]
                outer, rtol = 2.0 * r * math.pi / (band * alpha) - math.fsum(sinc2_inside(band, alpha * k, 0.0, r)), 1e-12
            else:
                outer, rtol = lattice_outer_oracle(band, alpha, 0.0, 0.0, r), 1e-11
            t1, t2 = (outer, inner) if lattice_side == "f" else (inner, outer)
            assert row["t1"] == pytest.approx(t1, rel=1e-12 if lattice_side == "g" else rtol, abs=0)
            assert row["t2"] == pytest.approx(t2, rel=rtol if lattice_side == "g" else 1e-12, abs=0)

    @pytest.mark.parametrize("band, alpha", [(math.pi, 1.3), (math.pi, 2.2), (2.0, 2.2)], ids=["pi-1.3", "pi-2.2", "2-2.2"])
    def test_poisson_sum_against_direct_sum(self, band, alpha):
        # band alpha > pi: the Poisson sum has modes |m| < band alpha / pi, the oracle shares no code with it
        pair = FramePairSpec(PaleyWienerKernel(band), LebesgueMeasure(1), CountingMeasure(Lattice(alpha, 1)), f_offset=[-0.2])
        # no atom lies on a sphere, where the oracle's plain distances and the lattice rule could part
        for r in (4.0, 8.0, 16.0, 7.3):
            ball = Ball([0.45], r)
            t1, t2 = double_tail(pair, ball)
            assert t2 == pytest.approx(lattice_outer_oracle(band, alpha, 0.2, 0.45, r), rel=1e-11, abs=0)
            assert t1 == pytest.approx(lattice_inner_oracle(band, alpha, 0.2, 0.45, r), rel=1e-12, abs=0)

    @pytest.mark.parametrize("r", [4.0, 8.0, 16.0, 2.5, 7.3])
    def test_integer_lattice_defect_is_the_count_excess(self, r):
        # at alpha = 1 and band pi the Poisson sum is 1: t1 - t2 = #(B ∩ Z) - 2r
        pair = FramePairSpec(PaleyWienerKernel(), LebesgueMeasure(1), CountingMeasure(Lattice(1.0, 1)))
        t1, t2 = double_tail(pair, Ball([0.0], r))
        assert abs((t1 - t2) - (2 * math.floor(r) + 1 - 2.0 * r)) <= 1e-12

    @pytest.mark.parametrize("lattice_side", ["f", "g"])
    def test_thinned_lattice_against_direct_sum(self, lattice_side):
        # drop-even-even on the line keeps the odd multiples of alpha: alpha Z less 2 alpha Z
        thinned = CountingMeasure(ThinnedLattice(0.8, 1))
        sides = (LebesgueMeasure(1), thinned) if lattice_side == "g" else (thinned, LebesgueMeasure(1))
        pair = FramePairSpec(PaleyWienerKernel(), *sides)
        for r in (4.3, 8.5):
            t1, t2 = double_tail(pair, Ball([0.0], r))
            k = np.arange(-math.ceil(r / 0.8), math.ceil(r / 0.8) + 1)
            k = k[(np.abs(0.8 * k) <= r) & (k % 2 != 0)]
            inner = math.fsum(sinc2_outside(math.pi, 0.8 * k, 0.0, r))
            outer = lattice_outer_oracle(math.pi, 0.8, 0.0, 0.0, r, odd=True)
            want = (outer, inner) if lattice_side == "f" else (inner, outer)
            assert t1 == pytest.approx(want[0], rel=1e-11, abs=0)
            assert t2 == pytest.approx(want[1], rel=1e-11, abs=0)

    def test_lattice_by_lattice_with_offset_against_direct_sum(self):
        # every outer atom, each side its own Poisson sum, against sinc^2 summed atom by atom
        f, g = Lattice(1.0, 1), Lattice(0.9, 1)
        pair = FramePairSpec(PaleyWienerKernel(2.0), CountingMeasure(f), CountingMeasure(g), g_offset=[0.3])
        for r in (4.0, 8.0):
            t1, t2 = double_tail(pair, Ball([0.0], r))
            assert t1 == pytest.approx(lattice_pair_oracle(2.0, 1.0, 0.9, 0.3, 0.0, r), rel=1e-11, abs=0)
            assert t2 == pytest.approx(lattice_pair_oracle(2.0, 0.9, 1.0, -0.3, 0.0, r), rel=1e-11, abs=0)

    def test_no_lattice_walk_is_unbounded(self, monkeypatch):
        # a lattice side with no cutoff is walked over B alone: no ball of infinite radius, no warning
        walk = Lattice.points_in_ball
        radii = []
        monkeypatch.setattr(Lattice, "points_in_ball", lambda self, b: radii.append(b.radius) or walk(self, b))
        lattice, thinned = CountingMeasure(Lattice(1.0, 1)), CountingMeasure(ThinnedLattice(0.7, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, g in ((LebesgueMeasure(1), lattice), (lattice, thinned), (thinned, LebesgueMeasure(1))):
                localization_defect(FramePairSpec(PaleyWienerKernel(), f, g, g_offset=[7.0]), Ball([0.0], 4.0))
        assert radii and all(x == 4.0 for x in radii)

    def test_finite_outer_side_in_blocks(self, monkeypatch):
        # an atomic side reaches every atom; its product with a lattice side is taken in blocks of at most
        # _BLOCK pairs, within rounding of one block
        rng = np.random.default_rng(11)
        atomic = AtomicMeasure(rng.uniform(-400.0, 400.0, size=(3000, 1)), rng.uniform(0.2, 3.0, 3000))
        pair = FramePairSpec(PaleyWienerKernel(2.0), atomic, CountingMeasure(Lattice(0.9, 1)), f_offset=[0.37])
        whole = double_tail(pair, Ball([0.5], 6.0))
        blocks = []
        phi = PROFILES[PaleyWienerKernel].phi
        counted = PROFILES[PaleyWienerKernel]._replace(phi=lambda k, X, Y: blocks.append(len(X) * len(Y)) or phi(k, X, Y))
        monkeypatch.setitem(localization._PROFILES, PaleyWienerKernel, counted)
        monkeypatch.setattr(localization, "_BLOCK", 50)
        blocked = double_tail(pair, Ball([0.5], 6.0))
        assert len(blocks) > 1 and max(blocks) <= 50
        assert blocked == pytest.approx(whole, rel=1e-13)

    @pytest.mark.parametrize("atomic_side", ["f", "g"])
    def test_atomic_side_with_offset_against_sici_oracle(self, atomic_side):
        rng = np.random.default_rng(9)
        atomic = AtomicMeasure(rng.uniform(-14.0, 15.0, size=(60, 1)), rng.uniform(0.2, 3.0, 60))
        offsets = {"f_offset": [0.37]} if atomic_side == "f" else {"g_offset": [-0.61]}
        sides = (LebesgueMeasure(1), atomic) if atomic_side == "g" else (atomic, LebesgueMeasure(1))
        pair = FramePairSpec(PaleyWienerKernel(2.0), *sides, **offsets)
        ball = Ball([0.8], 5.0)
        row = localization_defect(pair, ball)
        t1, t2 = paley_wiener_atoms_oracle(pair, ball)
        assert row["t1"] == pytest.approx(t1, rel=1e-12, abs=0)
        assert row["t2"] == pytest.approx(t2, rel=1e-12, abs=0)


class TestOneWalk:
    """A row walks each discrete side once over the walk ball B(c, r + c_cut + |Delta|) and takes every atom set
    and mass from it; with no cutoff a lattice side is walked over B alone."""

    @pytest.mark.parametrize(
        "measure, ball",
        [
            (CountingMeasure(Lattice(0.8, 2)), Ball([0.0, 0.0], 4.0)),  # twelve lattice points on the sphere
            (CountingMeasure(Lattice(0.8, 2)), Ball([0.13, -0.4], 3.3)),
            (CountingMeasure(ThinnedLattice(0.8, 2)), Ball([0.0, 0.0], 4.0)),
            (CountingMeasure(ThinnedLattice(0.8, 2)), Ball([0.4, 0.4], 2.5)),
            (CountingMeasure(PointSet(jittered_points(2, 0.8, 12.0))), Ball([0.2, 0.1], 4.0)),
            (AtomicMeasure(ATOMS_2D, np.linspace(0.3, 2.0, len(ATOMS_2D))), Ball([-0.3, 0.5], 4.0)),
            (CountingMeasure(Lattice(1.0, 1)), Ball([0.0], 4.0)),
        ],
        ids=["lattice-sphere", "lattice", "thinned-sphere", "thinned", "points", "atomic", "line"],
    )
    @pytest.mark.parametrize("offset", [6.0, 1.5])  # each coordinate of g_offset: it widens the walk ball
    def test_walked_sides_equal_their_own_walks(self, measure, ball, offset):
        d = measure.dim
        kernel = FockKernel() if d == 2 else PaleyWienerKernel()
        pair = FramePairSpec(kernel, LebesgueMeasure(d), measure, g_offset=np.full(d, offset))
        f, g = localization._walk(pair, ball)
        delta = float(np.linalg.norm(pair.f_offset - pair.g_offset))
        walk = Ball(ball.center, ball.radius + (localization._PROFILES[type(kernel)].cutoff + delta))
        # masses: the same bits as ball_mass
        assert (g.mass, f.mass) == (measure.ball_mass(ball), LebesgueMeasure(d).ball_mass(ball))
        assert f.walk_mass == LebesgueMeasure(d).ball_mass(walk)
        # atom sets: the same rows, in the same order, as walking each ball alone
        inner, w_inner = measure.atoms_in_ball(ball)
        assert np.array_equal(g.inside[0], inner) and np.array_equal(g.inside[1], w_inner)
        if math.isfinite(walk.radius):
            near, w_near = measure.atoms_in_ball(walk)
            assert g.walk_mass == measure.ball_mass(walk) and g.lattice is None
        else:
            near, w_near = inner, w_inner
            assert g.walk_mass == math.inf and g.lattice is measure.support
        outside = ~measure.contains(ball, near)
        assert np.array_equal(g.outside[0], near[outside]) and np.array_equal(g.outside[1], w_near[outside])
        assert f.inside is None and f.outside is None
        row = localization_defect(pair, ball)
        assert row["normalizer"] == LebesgueMeasure(d).ball_mass(ball) + measure.ball_mass(ball)

    def test_fock_lattice_row_walks_each_discrete_side_once(self, monkeypatch):
        # a work count: one atoms_in_ball call per discrete side, no ball count
        calls = []
        walk, count = CountingMeasure.atoms_in_ball, Lattice.count_in_balls
        monkeypatch.setattr(CountingMeasure, "atoms_in_ball", lambda self, b: calls.append("walk") or walk(self, b))
        monkeypatch.setattr(Lattice, "count_in_balls", lambda self, c, r: calls.append("count") or count(self, c, r))
        lattice = CountingMeasure(Lattice(0.8, 2))
        for f, walks in ((LebesgueMeasure(2), 1), (CountingMeasure(Lattice(0.7, 2)), 2)):
            calls.clear()
            localization_defect(FramePairSpec(FockKernel(), f, lattice), Ball([0.0, 0.0], 4.0))
            assert calls == ["walk"] * walks
