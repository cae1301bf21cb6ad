import json
import math
import re
import sys

import numpy as np
import pytest

from framelab.cli import main
from framelab.density import DensityEstimate, DensitySchedule, default_schedule, density, lattice_schedule
from framelab.kernels import FockKernel, GaborGaussianKernel, PaleyWienerKernel
from framelab.localization import FramePairSpec
from framelab import localization, quadrature, verify
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
from framelab.verify import (
    CONFIG_SCHEMA,
    DEFAULTS,
    ConfigError,
    corollary_parseval_check,
    density_schedule,
    _gram_spectrum,
    _lattice_verdicts,
    gram_truncation_study,
    measure_from_spec,
    report_json,
    run,
    theorem_main_table,
    validate_config,
    write_report,
)

FAST_FOCK = {
    "scenario": "fock",
    "lattice": {"scale": 1.0, "dim": 2},
    "radii": [2.0, 4.0],
    "gram_radii": [2.0, 3.0],
    "density_rmax": 32.0,
}


# 0.8 Z^2 with each coordinate jittered by up to 0.12: no longer its own quarter turn
WINDOW = Lattice(0.8, 2).points_in_ball(Ball(np.zeros(2), 6.0))
JITTERED = PointSet(WINDOW + np.random.default_rng(3).uniform(-0.12, 0.12, WINDOW.shape))
# 0.8 Z^2 in B(0, 3) and the quarter-turn orbit of (1.1, 0.5): its own quarter turn, not its own swap
CHIRAL = PointSet(
    np.vstack([Lattice(0.8, 2).points_in_ball(Ball(np.zeros(2), 3.0)), [[1.1, 0.5], [-0.5, 1.1], [-1.1, -0.5], [0.5, -1.1]]])
)


def solve(monkeypatch, kernel, pts):
    """_gram_spectrum(kernel, pts), and the size and the dtype of each Hermitian block it solved."""
    sizes, dtypes = [], []
    eigvalsh = np.linalg.eigvalsh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", lambda H: sizes.append(len(H)) or dtypes.append(H.dtype) or eigvalsh(H))
        lam = _gram_spectrum(kernel, pts)
    return lam, sizes, dtypes


def assert_same_spectrum(lam, dense):
    assert np.all(np.diff(lam) >= 0)
    assert np.max(np.abs(lam - dense)) <= 1e-13 * max(1.0, dense[-1])
    assert np.sum(lam < 1e-10 * lam[-1]) == np.sum(dense < 1e-10 * dense[-1])


class TestGramStudy:
    def test_paley_wiener_identity_gram(self):
        study = gram_truncation_study(PaleyWienerKernel(), Lattice(1.0, 1), [5.0, 8.0, 10.0])
        for row in study["rows"]:
            assert row["max_eig"] == pytest.approx(1.0, abs=1e-8)
            assert row["min_eig"] == pytest.approx(1.0, abs=1e-8)
            assert row["min_nonzero"] == pytest.approx(1.0, abs=1e-8)
        assert study["frame_evidence"]

    def test_oversampled_fock_lattice(self):
        study = gram_truncation_study(FockKernel(), Lattice(0.5, 2), [2.0, 3.0, 4.0])
        assert study["frame_evidence"]
        for row in study["rows"]:
            assert row["min_nonzero"] > 0.01
            assert row["near_zero_cluster"] > 0  # redundancy shows as a zero cluster

    def test_interpolating_fock_lattice(self):
        study = gram_truncation_study(FockKernel(), Lattice(1.2, 2), [2.0, 3.0, 4.0])
        assert not study["frame_evidence"]  # too few vectors for the local modes
        assert study["riesz_evidence"]
        for row in study["rows"]:
            assert row["min_eig"] > 0.5

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.2, 2.0])
    def test_fock_and_gabor_n1_give_one_study(self, alpha):
        # the normalized Gabor n = 1 and Fock Gram matrices agree up to unimodular
        # phases, so the two families share every spectrum and every verdict
        fock = gram_truncation_study(FockKernel(), Lattice(alpha, 2), [2.0, 4.0, 6.0])
        gabor = gram_truncation_study(GaborGaussianKernel(1), Lattice(alpha, 2), [2.0, 4.0, 6.0])
        for key in ("frame_evidence", "riesz_evidence", "margin", "floor", "stabilization_rtol"):
            assert fock[key] == gabor[key]
        assert len(fock["rows"]) == len(gabor["rows"]) == 3
        for a, b in zip(fock["rows"], gabor["rows"]):
            assert (a["radius"], a["m"], a["local_dim"], a["near_zero_cluster"]) == (
                b["radius"],
                b["m"],
                b["local_dim"],
                b["near_zero_cluster"],
            )
            tol = 1e-12 * max(1.0, a["max_eig"])
            for key in ("max_eig", "min_eig", "min_nonzero"):
                if a[key] is None:
                    assert b[key] is None
                else:
                    assert abs(a[key] - b[key]) <= tol

    @pytest.mark.parametrize("kernel", [FockKernel(), GaborGaussianKernel(1)], ids=["fock", "gabor"])
    @pytest.mark.parametrize(
        "support, radii",
        [
            pytest.param(s, (2.5, 4.0, 4.5), id=f"{type(s).__name__}({s.scale})")
            for s in [Lattice(alpha, 2) for alpha in (0.37, 0.5, 0.8, 1.2, 2.0)] + [ThinnedLattice(0.8, 2)]
        ]
        + [pytest.param(CHIRAL, (3.0,), id="chiral"), pytest.param(Lattice(2.0, 2), (1.0,), id="origin")],
    )
    def test_quarter_turn_blocks_match_the_dense_gram(self, kernel, support, radii, monkeypatch):
        # each family against its own dense Gram; R = 4 at alpha = 0.8 puts lattice points on the sphere
        for R in radii:
            pts = support.points_in_ball(Ball(np.zeros(2), R))
            m = len(pts)
            lam, sizes, dtypes = solve(monkeypatch, kernel, pts)
            assert sizes == [m - 3 * (m // 4)] + [m // 4] * 3  # the origin, if present, is bordered into H_0
            assert dtypes == [np.dtype(complex)] * 4
            assert_same_spectrum(lam, np.linalg.eigvalsh(kernel.normalized_cross(pts, pts)))

    @pytest.mark.parametrize(
        "kernel, alpha, R",
        [(FockKernel(), 0.5, 6.0), (FockKernel(), 0.5, 8.0), (FockKernel(), 0.8, 4.5), (FockKernel(), 1.0, 8.0)]
        # criterion 09's windows, 0.5Z² at R = 4.5 among them
        + [
            (kernel, alpha, R)
            for kernel, alpha in (
                (FockKernel(), 0.5),
                (GaborGaussianKernel(1), 0.8),
                (GaborGaussianKernel(1), 1.2),
                (FockKernel(), 2.0),
            )
            for R in DEFAULTS["fock"]["gram_radii"]
        ],
        ids=lambda v: type(v).__name__[:-6] if hasattr(v, "dim") else str(v),
    )
    def test_real_blocks_match_the_dense_gram(self, kernel, alpha, R, monkeypatch):
        # a window of the real lattice alpha Z^2 up to R = 8: four complex blocks, the dense spectrum
        pts = Lattice(alpha, 2).points_in_ball(Ball(np.zeros(2), R))
        m = len(pts)
        lam, sizes, dtypes = solve(monkeypatch, kernel, pts)
        assert sizes == [m - 3 * (m // 4)] + [m // 4] * 3 and dtypes == [np.dtype(complex)] * 4
        assert_same_spectrum(lam, np.linalg.eigvalsh(kernel.normalized_cross(pts, pts)))

    @pytest.mark.parametrize(
        "kernel, support, R",
        [
            (FockKernel(), JITTERED, 4.0),
            (GaborGaussianKernel(1), JITTERED, 4.0),
            (GaborGaussianKernel(2), Lattice(1.0, 4), 1.5),
            (PaleyWienerKernel(), Lattice(0.7, 1), 5.0),
        ],
        ids=["fock-jittered", "gabor-jittered", "gabor-n2", "paley-wiener"],
    )
    def test_other_windows_take_one_turn(self, kernel, support, R, monkeypatch):
        pts = support.points_in_ball(Ball(np.zeros(kernel.dim), R))
        lam, sizes, dtypes = solve(monkeypatch, kernel, pts)
        assert sizes == [len(pts)]
        assert dtypes == [kernel.normalized_cross(pts[:1], pts[:1]).dtype]  # the Gram's own: real for the sinc kernel
        assert_same_spectrum(lam, np.linalg.eigvalsh(kernel.normalized_cross(pts, pts)))

    @pytest.mark.parametrize(
        "support",
        [Lattice(0.8, 2), ThinnedLattice(0.8, 2), JITTERED],
        ids=["lattice", "thinned", "jittered"],
    )
    def test_one_walk_gives_each_window_its_own_rows(self, support, monkeypatch):
        # a work count: the largest window is walked once, and each window holds the
        # rows its own walk would, in the same order (R = 4 at alpha = 0.8 runs
        # through lattice points)
        radii = [2.5, 4.0, 4.5]
        windows = {R: support.points_in_ball(Ball(np.zeros(2), R)) for R in radii}
        walks, seen = [], []
        walk = type(support).points_in_ball
        monkeypatch.setattr(type(support), "points_in_ball", lambda self, b: walks.append(b.radius) or walk(self, b))
        spectrum = _gram_spectrum
        monkeypatch.setattr(verify, "_gram_spectrum", lambda kernel, pts: seen.append(pts) or spectrum(kernel, pts))
        gram_truncation_study(FockKernel(), support, radii[::-1])
        assert walks == [4.5]
        assert len(seen) == 3 and all(np.array_equal(pts, windows[R]) for pts, R in zip(seen, radii))

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("radii", [[4.5], [4.5, 4.5], [4.5, 4.50001]], ids=["one", "repeated", "same-points"])
    def test_a_window_of_the_same_points_is_no_evidence(self, alpha, radii):
        # both windows hold the same points (253 at alpha = 0.5, 69 at 1.0), so their spectra agree
        # exactly: that is no stabilization, and with no window of fewer points there is no evidence
        study = gram_truncation_study(FockKernel(), Lattice(alpha, 2), radii)
        assert len({row["m"] for row in study["rows"]}) == 1
        assert not study["frame_evidence"] and not study["riesz_evidence"]

    def test_stability_skips_windows_of_the_same_points(self):
        # the last window is compared with the last earlier one holding fewer points
        repeated = gram_truncation_study(FockKernel(), Lattice(0.5, 2), [2.5, 4.5, 4.50001])
        plain = gram_truncation_study(FockKernel(), Lattice(0.5, 2), [2.5, 4.5])
        assert [row["m"] for row in repeated["rows"]] == [81, 253, 253]
        assert repeated["frame_evidence"] == plain["frame_evidence"] is True
        assert repeated["riesz_evidence"] == plain["riesz_evidence"] is False

    @pytest.mark.parametrize("alpha, counts", [(0.5, [81, 149, 253]), (2.0, [5, 9, 21])])
    def test_default_windows_hold_distinct_counts(self, alpha, counts):
        study = gram_truncation_study(FockKernel(), Lattice(alpha, 2), DEFAULTS["fock"]["gram_radii"])
        assert [row["m"] for row in study["rows"]] == counts

    def test_empty_window_noted(self):
        study = gram_truncation_study(FockKernel(), PointSet(np.zeros((0, 2))), [1.0])
        assert study["rows"][0]["note"] == "window contains no points"
        assert not study["frame_evidence"]


class TestTheoremTable:
    def test_identical_pair_rows_pass(self):
        pair = FramePairSpec(FockKernel(), LebesgueMeasure(2), LebesgueMeasure(2))
        rows, _ = theorem_main_table(pair, [2.0, 4.0])
        for row in rows:
            assert row["A"] == 1.0
            assert row["B"] == pytest.approx(1.0)
            assert row["C"] == pytest.approx(0.0, abs=1e-12)
            assert row["verdict"] == "pass"

    def test_sparse_lattice_rows_fail_hypotheses(self):
        pair = FramePairSpec(
            FockKernel(), LebesgueMeasure(2), CountingMeasure(Lattice(2.0, 2))
        )
        rows, _ = theorem_main_table(pair, [8.0])
        assert rows[0]["B"] == pytest.approx(0.25, abs=0.05)
        assert rows[0]["verdict"] == "hypotheses-unmet"

    def test_dense_lattice_rows_pass(self):
        pair = FramePairSpec(
            FockKernel(), LebesgueMeasure(2), CountingMeasure(Lattice(0.8, 2))
        )
        rows, _ = theorem_main_table(pair, [8.0])
        assert rows[0]["B"] > 1.5
        assert rows[0]["verdict"] == "pass"

    @pytest.mark.parametrize("support", ["lattice", "thinned", "points_csv"])
    def test_column_b_is_one_ball_masses_call_per_measure(self, support, monkeypatch, tmp_path):
        # column B equals the per-ball ratio nu(B) / mu(B) bit for bit, with no ball_mass call of its own
        if support == "points_csv":
            rng = np.random.default_rng(5)
            pts = np.vstack([rng.uniform(-6.0, 6.0, size=(300, 2)), [[4.0, 0.0], [0.0, -2.5]]])  # two on a sphere
            (tmp_path / "pts.csv").write_text("x1,x2\n" + "".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()))
            points = load_point_set_csv(tmp_path / "pts.csv")
        else:
            points = (Lattice if support == "lattice" else ThinnedLattice)(0.8, 2)  # 12 points on |x| = 4
        pair = FramePairSpec(FockKernel(), LebesgueMeasure(2), CountingMeasure(points))
        radii = [4.0, 1.5, 2.5]
        balls = [Ball([0.0, 0.0], r) for r in sorted(radii)]
        want = [pair.g_measure.ball_mass(b) / pair.f_measure.ball_mass(b) for b in balls]

        calls = []
        for cls in (LebesgueMeasure, CountingMeasure):
            for name in ("ball_mass", "ball_masses"):
                def spy(self, *args, _name=name, _method=getattr(cls, name)):
                    calls.append((sys._getframe(1).f_code.co_name, _name, type(self).__name__))
                    return _method(self, *args)

                monkeypatch.setattr(cls, name, spy)
        monkeypatch.setattr(verify, "localization_defect", lambda pair, b: {"center": [0.0, 0.0], "eps_eff": 0.0})
        rows, _ = theorem_main_table(pair, radii)
        from_table = sorted(call[1:] for call in calls if call[0] == "theorem_main_table")
        assert from_table == [("ball_masses", "CountingMeasure"), ("ball_masses", "LebesgueMeasure")]
        assert [row["B"] for row in rows] == want

    def test_mass_gap_bounded_by_defects(self):
        # numerical restatement of the identity behind the table: the ball-mass
        # gap |A mu(B) - B mu(B)| = |mu(B) - nu(B)| never exceeds the defect
        # plus its family-swapped twin
        pair = FramePairSpec(FockKernel(), LebesgueMeasure(2), CountingMeasure(Lattice(1.0, 2)))
        swapped = FramePairSpec(FockKernel(), CountingMeasure(Lattice(1.0, 2)), LebesgueMeasure(2))
        from framelab.localization import localization_defect
        from framelab.space import Ball

        for r in (4.0, 8.0):
            fwd = localization_defect(pair, Ball([0, 0], r))
            rev = localization_defect(swapped, Ball([0, 0], r))
            mu_b = math.pi * r * r
            nu_b = fwd["normalizer"] - mu_b
            assert abs(mu_b - nu_b) <= fwd["defect"] + rev["defect"] + 1e-6


class TestCorollary:
    def test_identical_measures_exact(self):
        pair = FramePairSpec(FockKernel(), LebesgueMeasure(2), LebesgueMeasure(2))
        sched = lattice_schedule(1.0, 2, r_max=16.0)
        res = corollary_parseval_check(pair, sched, density(pair.g_measure, pair.f_measure, sched))
        assert res["verdict"] == "pass"
        assert all(v == 1.0 for v in res["values"].values())

    def test_pw_integer_family(self):
        pair = FramePairSpec(
            PaleyWienerKernel(), LebesgueMeasure(1), CountingMeasure(Lattice(1.0, 1))
        )
        sched = lattice_schedule(1.0, 1, r_max=64.0)
        res = corollary_parseval_check(pair, sched, density(pair.g_measure, pair.f_measure, sched))
        assert res["verdict"] == "pass"
        for v in res["values"].values():
            assert v == pytest.approx(1.0, abs=0.05)


def record_grids(monkeypatch) -> list[int]:
    """The dimension of every quadrature grid built from now on; every grid goes through _integrate."""
    grids = []
    integrate = quadrature._integrate

    def recording(f, center, *args):
        grids.append(center.size)
        return integrate(f, center, *args)

    monkeypatch.setattr(quadrature, "_integrate", recording)
    return grids


class TestScenarios:
    def test_config_validation_unknown_scenario(self):
        with pytest.raises(ConfigError, match=r"\$\.scenario"):
            validate_config({"scenario": "bogus"})

    def test_config_validation_bad_field(self):
        with pytest.raises(ConfigError, match="radii"):
            validate_config({"scenario": "fock", "radii": [-1.0]})

    @pytest.mark.parametrize(
        "cfg, path",
        [
            ({"scenario": "fock", "lattice": {"scale": 0.5, "dim": 2}, "density_rmax": math.inf}, "$.density_rmax"),
            ({"scenario": "paley-wiener", "radii": [math.nan]}, "$.radii[0]"),
            ({"scenario": "fock", "gram_radii": [2.5, math.inf]}, "$.gram_radii[1]"),
            ({"scenario": "dual-embedding", "offset": [0.1, -math.inf]}, "$.offset[1]"),
        ],
    )
    def test_non_finite_number_names_path(self, cfg, path):
        # the Python API rejects what the CLI rejects, before any scenario work
        with pytest.raises(ConfigError, match=re.escape(f"config invalid at {path}: not a finite number")):
            run(cfg)

    @pytest.mark.parametrize("scenario", ["fock", "gabor", "paley-wiener", "dual-embedding"])
    def test_seed_is_read_by_finite_oracle_only(self, scenario):
        # no other scenario draws a random number, so a seed there would change nothing
        assert "seed" in DEFAULTS["finite-oracle"] and "seed" not in DEFAULTS[scenario]
        with pytest.raises(ConfigError, match=re.escape("config invalid at $.seed:")):
            run({"scenario": scenario, "seed": 3})

    @pytest.mark.parametrize("scenario", ["fock", "gabor", "paley-wiener"])
    def test_repeated_gram_radius_names_path(self, scenario):
        with pytest.raises(ConfigError, match=re.escape("config invalid at $.gram_radii: [4.5, 4.5] has non-unique")):
            run({"scenario": scenario, "gram_radii": [4.5, 4.5]})

    @pytest.mark.parametrize(
        "alpha, tolerances",
        [(0.5, {}), (1.0, {"density": 0.0, "critical_band": 0.0})],
        ids=["oversampled", "critical-lattice"],
    )
    def test_windows_of_the_same_points_give_no_frame_evidence(self, alpha, tolerances):
        # counted as stable, such windows made both read pass, though Z^2 is no frame
        cfg = {"scenario": "fock", "lattice": {"scale": alpha, "dim": 2}, "gram_radii": [4.5, 4.50001]}
        rep = run({**cfg, "tolerances": tolerances, "radii": [4.0], "density_rmax": 32.0})
        verdict = next(v for v in rep["verdicts"] if v["name"] == "density-theorem")
        assert verdict["verdict"] == "vacuous-consistent"

    @staticmethod
    def assert_printed_inequality_holds(detail: str) -> float:
        """The detail's "<side> density <x> <op> 1 <sign> <tol>" read as printed; returns x."""
        m = re.search(r"(?:upper|lower) density (\S+) (>=|<|>) 1 ([-+]) (\S+?)(?::|$)", detail)
        assert m, detail
        x, threshold = float(m[1]), 1.0 + float(m[4]) * (1.0 if m[3] == "+" else -1.0)
        assert {">=": x >= threshold, "<": x < threshold, ">": x > threshold}[m[2]], detail
        return x

    def test_density_pass_prints_the_bound_it_tested(self):
        # Z^2 at tolerance 0 passes on its upper density 1.00016; its midpoint 0.9997 is below 1 - 0
        rep = run({"scenario": "fock", "tolerances": {"density": 0.0, "critical_band": 0.0}})
        verdict = next(v for v in rep["verdicts"] if v["name"] == "density-theorem")
        assert verdict["verdict"] == "pass"
        assert self.assert_printed_inequality_holds(verdict["detail"]) == rep["density"]["upper"]
        assert 0.5 * (rep["density"]["upper"] + rep["density"]["lower"]) < 1.0

    @pytest.mark.parametrize(
        "upper, lower, frame, riesz, tol, verdict",
        [
            (0.98, 0.96, True, False, 0.01, "CONTRADICTION"),
            (1.05, 1.03, False, True, 0.01, "CONTRADICTION"),
            (1.2, 1.1, True, False, 0.01, "pass"),
            # four decimals would print 0.9999 >= 1 - 6e-05
            (0.999941, 0.99, True, False, 6e-05, "pass"),
        ],
        ids=["sampling", "interpolating", "pass", "pass-fifth-decimal"],
    )
    def test_density_verdicts_print_the_bound_they_tested(self, upper, lower, frame, riesz, tol, verdict):
        dens = DensityEstimate(per_radius=(), upper=upper, lower=lower, converged=True, trend=0.0)
        study = {"frame_evidence": frame, "riesz_evidence": riesz}
        row = _lattice_verdicts(dens, study, tol=tol, critical_band=0.0)
        assert row["verdict"] == verdict
        assert self.assert_printed_inequality_holds(row["detail"]) == (lower if riesz else upper)

    def test_critical_verdict_prints_the_band_it_tested(self):
        # four decimals printed the estimate 0.99999 as 1.0000 and left the band 1.5e-05 out
        dens = DensityEstimate(per_radius=(), upper=1.00001, lower=0.99997, converged=True, trend=0.0)
        study = {"frame_evidence": True, "riesz_evidence": False}
        row = _lattice_verdicts(dens, study, tol=0.0, critical_band=1.5e-05)
        assert row["verdict"] == "critical-no-claim"
        m = re.search(r"\|density estimate (\S+) - 1\| <= (\S+):", row["detail"])
        assert m, row["detail"]
        assert float(m[1]) == 0.5 * (dens.upper + dens.lower)
        assert abs(float(m[1]) - 1.0) <= float(m[2]) == 1.5e-05, row["detail"]

    def test_finite_oracle_prints_the_values_it_tested(self, monkeypatch):
        # .3e printed a residual of 9.9996e-11 that passes the gate as "1.000e-10 < 1e-10"
        from framelab import finframe

        monkeypatch.setattr(finframe, "comparison_residual", lambda F, G, omega: 9.9996e-11)
        verdict = run({"scenario": "finite-oracle", "seed": 7, "trials": 3})["verdicts"][0]
        assert verdict["verdict"] == "pass"
        gates = re.findall(r"([a-z][a-z ]*) (\S+) (<|>= \(failed\)) ([^;\s]+)", verdict["detail"])
        assert [name for name, *_ in gates] == ["max residual", "projection formula gap", "idempotency gap"]
        for _, value, op, gate in gates:
            assert op == "<" and float(value) < float(gate), verdict["detail"]
        assert float(gates[0][1]) == 9.9996e-11

    def test_finite_oracle(self):
        rep = run({"scenario": "finite-oracle", "seed": 7, "trials": 30})
        assert rep["overall"] == "pass"
        assert rep["identity"]["residuals_below_1e-10"] == 30
        assert rep["projection"]["max_idempotency_gap"] < 1e-12
        assert rep["seed"] == 7

    def test_finite_oracle_seed_10_at_1000_trials(self):
        # this seed failed the 1e-12 idempotency gate when S = V*WV was formed and inverted
        rep = run({"scenario": "finite-oracle", "seed": 10, "trials": 1000})
        assert rep["overall"] == "pass"
        assert rep["identity"]["max_residual"] < 1e-10
        assert rep["projection"]["max_formula_gap"] < 1e-10
        assert rep["projection"]["max_idempotency_gap"] < 1e-12

    def test_finite_oracle_detail_names_failed_gate(self, monkeypatch):
        from framelab import finframe

        project = finframe.project
        # a constant error cancels in the formula gap but not in idempotency
        monkeypatch.setattr(finframe, "project", lambda F, f, formula="synthesis": project(F, f, formula) + 1e-11)
        verdict = run({"scenario": "finite-oracle", "seed": 7, "trials": 5})["verdicts"][0]
        assert verdict["verdict"] == "hypotheses-unmet"
        assert re.search(r"max residual \S+ < 1e-10", verdict["detail"])
        assert re.search(r"projection formula gap \S+ < 1e-10", verdict["detail"])
        assert re.search(r"idempotency gap \S+ >= \(failed\) 1e-12", verdict["detail"])

    def test_fock_scenario_structure(self):
        rep = run(FAST_FOCK)
        for key in ("density", "gram_study", "localization", "theorem_table", "verdicts", "overall"):
            assert key in rep
        assert rep["schema"] == "framelab/1"
        # critical lattice: no density-theorem claim in either direction
        names = {v["name"]: v["verdict"] for v in rep["verdicts"]}
        assert names["density-theorem"] == "critical-no-claim"

    def test_unconverged_density_is_hypotheses_unmet(self):
        # one density radius leaves no trend (None): no density-theorem claim
        cfg = {
            "scenario": "fock",
            "lattice": {"scale": 0.5, "dim": 2},
            "density_rmax": 4.0,
            "gram_radii": [1.5, 2.0],
            "radii": [2.0],
        }
        rep = run(cfg)
        assert rep["density"]["converged"] is False
        verdict = next(v for v in rep["verdicts"] if v["name"] == "density-theorem")
        assert verdict["verdict"] == "hypotheses-unmet"
        assert rep["density"]["trend"] is None
        assert "trend None" in verdict["detail"]
        assert rep["overall"] == "fail"

    def test_gabor_scenario_thinned(self):
        cfg = {
            "scenario": "gabor",
            "lattice": {"scale": 1.0, "dim": 2, "thin": "drop-even-even"},
            "radii": [2.0, 4.0],
            "gram_radii": [2.0, 3.0],
            "density_rmax": 32.0,
        }
        rep = run(cfg)
        assert rep["density"]["upper"] == pytest.approx(0.75, abs=0.02)
        assert not rep["gram_study"]["frame_evidence"]
        assert rep["overall"] == "pass"  # vacuous-consistent, never CONTRADICTION
        assert all(v["verdict"] != "CONTRADICTION" for v in rep["verdicts"])

    def test_thinned_lattice_density_centres_cover_its_period(self):
        # drop-even-even has period 2 scale: at scale 1 the centres run over
        # [0, 2)^2 at the plain lattice's spacing 0.5, where the r = 4 ball
        # reaching the fewest points gives the lower ratio 0.6764 ([0, 1)^2 misses it: 0.7162)
        cfg = {
            "scenario": "fock",
            "lattice": {"scale": 1.0, "dim": 2, "thin": "drop-even-even"},
            "radii": [4.0],
            "gram_radii": [2.0],
            "density_rmax": 4.0,
        }
        sched = density_schedule(measure_from_spec({"lattice": cfg["lattice"]}), LebesgueMeasure(2), cfg["density_rmax"])
        assert sched.center_spacing == 0.5
        assert np.array_equal(np.unique(sched.centers()), 0.5 * np.arange(4))
        assert run(cfg)["density"]["lower"] == pytest.approx(0.6764, abs=5e-5)

    def test_density_schedule_keeps_point_set_balls_inside_the_data(self):
        # 0.5 Z^2 clipped to [-20, 20]^2 at r_max 16: the unit grid on [-4, 4]^2; an atomic
        # measure on the same points keeps default_schedule's [-16, 16]^2 grid, and Lebesgue, where
        # every centre reads the same ratio, its radii at the origin alone
        grid = 0.5 * np.stack(np.meshgrid(np.arange(-40, 41), np.arange(-40, 41)), axis=-1).reshape(-1, 2)
        centers = density_schedule(CountingMeasure(PointSet(grid)), LebesgueMeasure(2), 16.0).centers()
        assert len(centers) == 81 and np.array_equal(np.unique(centers), np.arange(-4.0, 5.0))
        default = default_schedule(2, r_max=16.0)
        sched = density_schedule(AtomicMeasure(grid, np.ones(len(grid))), LebesgueMeasure(2), 16.0)
        assert np.array_equal(sched.centers(), default.centers())
        sched = density_schedule(LebesgueMeasure(2), LebesgueMeasure(2), 16.0)
        assert sched.radii == default.radii and np.array_equal(sched.centers(), np.zeros((1, 2)))
        with pytest.raises(ConfigError, match=r"at \$\.points_csv:"):
            density_schedule(CountingMeasure(PointSet(grid)), LebesgueMeasure(2), 32.0)

    @pytest.mark.xfail(
        strict=True, reason="two lattices are periodic only in their joint period; ROADMAP item 16 brackets it"
    )
    def test_two_lattice_schedule_reaches_the_joint_period_range(self):
        # 0.5 Z^2 against 0.8 Z^2 repeats over [0, 4)^2, but the schedule samples mu's cell [0, 0.5)^2:
        # at r = 4 it reads [2.4321, 2.5789], and the joint period at the same spacing [2.4198, 2.7733]
        mu, nu = CountingMeasure(Lattice(0.5, 2)), CountingMeasure(Lattice(0.8, 2))
        sched = density_schedule(mu, nu, 16.0)
        (_, upper, lower), *_ = density(mu, nu, sched).per_radius
        joint = DensitySchedule((4.0,), (np.zeros(2), np.full(2, 4.0 * (1.0 - 1e-9))), sched.center_spacing)
        (_, wide_upper, wide_lower), = density(mu, nu, joint).per_radius
        assert lower <= wide_lower and upper >= wide_upper

    @pytest.mark.parametrize(
        "scale, center, r, want",
        [(0.8, [0.0, 0.0], 4.0, 60), (4.0, [7.0, 7.0], 128.0, 2418)],
        ids=["boundary-points", "beyond-the-table-radii"],
    )
    def test_thinned_lattice_counts_by_the_lattice_rule(self, scale, center, r, want):
        # want counts the k in Z^2, not all even, with |scale k - center| <= r in integer
        # arithmetic: the 0.8 ball has 8 odd points on its sphere, and the density ball
        # at (7, 7) reaches past every radius the config lists
        cfg = {"scenario": "fock", "lattice": {"scale": scale, "dim": 2, "thin": "drop-even-even"}}
        assert measure_from_spec({"lattice": cfg["lattice"]}).ball_mass(Ball(center, r)) == want

    def test_thinned_report_row_is_the_lattice_difference(self):
        # each atom's term is the same bits in every lattice that holds it, so the
        # thinned tails are the 0.8 Z^2 tails less the 1.6 Z^2 ones
        cfg = {
            "scenario": "fock",
            "lattice": {"scale": 0.8, "dim": 2, "thin": "drop-even-even"},
            "radii": [4.0],
            "gram_radii": [2.0],
            "density_rmax": 4.0,
        }
        (row,) = run(cfg)["localization"]
        ball = Ball([0.0, 0.0], 4.0)
        pairs = [FramePairSpec(FockKernel(), LebesgueMeasure(2), CountingMeasure(Lattice(a, 2))) for a in (0.8, 1.6)]
        plain, even = (localization.double_tail(pair, ball) for pair in pairs)
        assert row["t1"] == pytest.approx(plain[0] - even[0], rel=1e-12)
        assert row["t2"] == pytest.approx(plain[1] - even[1], rel=1e-12)
        assert row["normalizer"] == LebesgueMeasure(2).ball_mass(ball) + 60

    @pytest.mark.parametrize("name", ["fock", "gabor", "dual-embedding", "localize-fock-lebesgue-lebesgue"])
    def test_gaussian_scenarios_build_no_quadrature_grid(self, name, tmp_path, monkeypatch):
        # their terms are closed-form disk masses and lens overlaps: no grid is built
        grids = record_grids(monkeypatch)
        if name == "dual-embedding":
            run({"scenario": name})
        elif name.startswith("localize"):
            pair = {"kernel": {"kernel": "fock"}, "f": {"lebesgue": {"dim": 2}}, "g": {"lebesgue": {"dim": 2}}}
            argv = ["localize", "--pair", json.dumps({**pair, "g_offset": [0.35, 0.2]}), "--radii", "1,4"]
            assert main(argv + ["--out", str(tmp_path / "loc.json")]) == 0
        else:
            run({**FAST_FOCK, "scenario": name, "lattice": {"scale": 0.8, "dim": 2}})
        assert grids == []

    def test_gaussian_atom_terms_take_one_rule_per_distinct_distance(self, monkeypatch):
        # a work counter: lattice symmetry repeats atom distances, and the radial
        # rule runs once per distinct one in each call
        distances, rows = [], []
        disk_mass, radial_density = localization._disk_mass, localization._radial_density

        def record_distances(s, r, inside):
            distances.append(len(np.unique(s)))
            return disk_mass(s, r, inside)

        def record_rows(s, d):
            rows.append(np.shape(s)[0])
            return radial_density(s, d)

        monkeypatch.setattr(localization, "_disk_mass", record_distances)
        monkeypatch.setattr(localization, "_radial_density", record_rows)
        run({"scenario": "fock", "lattice": {"scale": 0.5, "dim": 2}})
        assert distances and sum(rows) <= sum(distances)

    def test_every_quad_and_tolerances_field_is_read_by_some_scenario(self):
        # a field no scenario lists in DEFAULTS would be a setting that changes nothing; every term is
        # taken over all of B^c, so no scenario has a window to set and quad is no key at all
        assert "quad" not in CONFIG_SCHEMA["properties"]
        for key in ("tolerances",):
            listed = set().union(*(defaults.get(key, {}) for defaults in DEFAULTS.values()))
            assert set(CONFIG_SCHEMA["properties"][key]["properties"]) == listed

    def test_dual_embedding(self):
        rep = run({"scenario": "dual-embedding", "radii": [2.0]})
        assert rep["overall"] == "pass"
        assert all(r["defect"] == 0.0 for r in rep["localization"])

    def test_paley_wiener_scenario(self, monkeypatch):
        # its atom terms are closed-form differences of the sinc^2 integral: no grid is built
        grids = record_grids(monkeypatch)
        rep = run({"scenario": "paley-wiener", "radii": [4.0, 8.0], "density_rmax": 64.0})
        assert grids == []
        names = {v["name"]: v["verdict"] for v in rep["verdicts"]}
        assert names["parseval-corollary"] == "pass"
        assert rep["overall"] == "pass"

    def test_paley_wiener_scenario_calls_no_bound_grid_name(self, monkeypatch):
        # framelab.localization holds one grid name, integrate_complement, only for the
        # benchmark's tracer to bind there: the scenario never calls it
        assert not hasattr(localization, "integrate_ball")
        calls = []
        spied = localization.integrate_complement
        monkeypatch.setattr(localization, "integrate_complement", lambda *a: calls.append(a) or spied(*a))
        rep = run({"scenario": "paley-wiener", "radii": [4.0], "density_rmax": 16.0})
        assert calls == []
        assert rep["overall"] == "pass"

    @pytest.mark.parametrize("name", list(DEFAULTS))
    def test_defaults_table_matches_schema_and_scenario(self, name):
        # the schema accepts every key the table lists, and spelling all of them
        # out changes nothing in the report but its inputs
        spelled = {"scenario": name, **{k: v for k, v in DEFAULTS[name].items() if v is not None}}
        validate_config(spelled)
        full, bare = run(spelled), run({"scenario": name})
        assert full.pop("inputs") != bare.pop("inputs")
        assert report_json(full) == report_json(bare)

    def test_gabor_odd_dimension_rejected(self):
        # gabor runs with n = 1 only, on a 2-d lattice
        with pytest.raises(ConfigError, match=r"config invalid at \$\.lattice\.dim:"):
            run({"scenario": "gabor", "lattice": {"scale": 1.0, "dim": 3}})


class TestReports:
    def test_deterministic_json(self):
        cfg = {"scenario": "finite-oracle", "seed": 11, "trials": 20}
        a = report_json(run(cfg))
        b = report_json(run(cfg))
        assert a == b

    def test_write_report_files(self, tmp_path):
        rep = run(FAST_FOCK)
        path = write_report(rep, tmp_path)
        assert path.exists()
        parsed = json.loads(path.read_text())
        assert parsed["schema"] == "framelab/1"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fock-report.json"]

    def test_verdicts_recomputable_from_tables(self):
        rep = run(FAST_FOCK)
        # the theorem-table verdict is a pure function of the rows it carries
        rows_ok = all(r["A"] <= r["bound"] + 1e-9 for r in rep["theorem_table"])
        table_verdict = next(v for v in rep["verdicts"] if v["name"] == "theorem-table")
        assert (table_verdict["verdict"] == "pass") == rows_ok


@pytest.mark.parametrize(
    "cfg",
    [{"scenario": "paley-wiener"}, {"scenario": "dual-embedding"}, {"scenario": "dual-embedding", "offset": [40.0, 0.0]}],
    ids=["paley-wiener", "dual-embedding", "dual-embedding-40"],
)
def test_rows_that_prune_nothing_have_zero_trunc_bound(cfg):
    # every term of these rows is taken over all of B^c with no pair skipped; at offset [40, 0] the
    # window bound once read the whole normalizer (25.13 and 100.53) although the rows are exact
    rows = run(cfg)["localization"]
    assert [row["trunc_bound"] for row in rows] == [0.0] * len(rows)


def test_paley_wiener_default_rows_against_sici():
    # band pi on Z: the Poisson sum of sinc^2 is 1, so t2 = 2r - sum_{k in B} M_in(k), t1 = sum_{k in B} (1 - M_in(k))
    # and the defect is #(B ∩ Z) - 2r = 1, each M_in a difference of F(t) = (Si(2 pi t) - sin^2(pi t) / (pi t)) / pi
    from scipy.special import sici

    def F(t):
        x = math.pi * t
        return (sici(2.0 * x)[0] - np.sin(x) ** 2 / np.where(x == 0.0, 1.0, x)) / math.pi

    rows = run({"scenario": "paley-wiener"})["localization"]
    for row, r in zip(rows, (4.0, 8.0, 16.0)):
        k = np.arange(-r, r + 1)
        inside = F(r - k) - F(-r - k)
        assert row["t1"] == pytest.approx(math.fsum(1.0 - inside), rel=1e-12, abs=0)
        assert row["t2"] == pytest.approx(2.0 * r - math.fsum(inside), rel=1e-12, abs=0)
        assert row["defect"] == pytest.approx(1.0, abs=1e-12)
        assert row["trunc_bound"] == 0.0
    assert [row["t2"] for row in rows] == pytest.approx([0.2702801467902676, 0.337417193258009, 0.406082282886711], rel=1e-12)
