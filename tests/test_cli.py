import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framelab import cli, quadrature, verify
from framelab.cli import _kernel, main
from framelab.kernels import KERNELS, FockKernel, GaborGaussianKernel, PaleyWienerKernel
from framelab.space import AtomicMeasure, CountingMeasure, LebesgueMeasure, ThinnedLattice
from framelab.verify import measure_from_spec

SRC = Path(__file__).resolve().parents[1] / "src"

LOC_PAIR = {"kernel": {"kernel": "fock"}, "f": {"lebesgue": {"dim": 2}}, "g": {"lattice": {"scale": 1.0, "dim": 2}}}
FOCK_N2 = {"kernel": "fock", "params": {"n": 2}}
GABOR_BAND = {"kernel": "gabor-gaussian", "params": {"band": 2.0}}
LATTICE_2D = '{"lattice": {"scale": 0.5, "dim": 2}}'
PW_N1_PAIR = {
    "kernel": {"kernel": "paley-wiener", "params": {"n": 1}},
    "f": {"lebesgue": {"dim": 1}},
    "g": {"lattice": {"scale": 1.0, "dim": 1}},
}
PW_PAIR = {**PW_N1_PAIR, "kernel": {"kernel": "paley-wiener"}}
PW_LATTICE = PW_PAIR["g"]
LATTICE_PAIR = {**LOC_PAIR, "f": LOC_PAIR["g"]}
GABOR_PAIR = {**LOC_PAIR, "kernel": {"kernel": "gabor-gaussian"}}
SWAPPED_PAIR = {**LOC_PAIR, "f": LOC_PAIR["g"], "g": LOC_PAIR["f"]}
LEBESGUE_PAIR = {**LOC_PAIR, "g": LOC_PAIR["f"]}
GABOR_LEBESGUE_PAIR = {**LEBESGUE_PAIR, "kernel": GABOR_PAIR["kernel"]}
LEBESGUE_2D = '{"lebesgue": {"dim": 2}}'
ATOMIC_SHORT_WEIGHTS = {"atomic": {"points": [[0, 0], [1, 1]], "weights": [1]}}
ATOMIC_RAGGED = {"atomic": {"points": [[0.1, 0.2], [0.1]], "weights": [1, 1]}}
ATOMIC_DUPLICATE = {"atomic": {"points": [[0.1, 0.2], [0.5, 0.5], [0.1, 0.2]], "weights": [1, 1, 1]}}
ATOMIC_OVERFLOW = {"atomic": {"points": [[0.1, 0.0], [0.2, 0.0]], "weights": [1e308, 1e308]}}
PW_ATOMIC_OVERFLOW = {"atomic": {"points": [[0.1], [0.2]], "weights": [1e308, 1e308]}}
GABOR_N2_PAIR = {
    "kernel": {"kernel": "gabor-gaussian", "params": {"n": 2}},
    "f": {"lattice": {"scale": 1.0, "dim": 4}},
    "g": {"lattice": {"scale": 1.0, "dim": 4}},
}


class TestMeasureSpecs:
    def test_lebesgue(self):
        m = measure_from_spec({"lebesgue": {"dim": 2}})
        assert isinstance(m, LebesgueMeasure) and m.dim == 2

    def test_lattice(self):
        m = measure_from_spec({"lattice": {"scale": 0.5, "dim": 2}})
        assert isinstance(m, CountingMeasure)
        assert m.support.scale == 0.5

    def test_atomic(self):
        m = measure_from_spec({"atomic": {"points": [[0.0]], "weights": [2.0]}})
        assert isinstance(m, AtomicMeasure)

    def test_points_csv(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0.0\n1.0\n")
        m = measure_from_spec({"points_csv": str(p)})
        assert isinstance(m, CountingMeasure) and len(m.support) == 2

    def test_unknown(self):
        with pytest.raises(Exception, match="measure"):
            measure_from_spec({"nope": {}})


class TestKernelSpecs:
    def test_kernel_from_spec(self):
        # a spec the schema has checked builds its class with its params
        assert isinstance(_kernel({"kernel": "fock"}), FockKernel)
        k = _kernel({"kernel": "paley-wiener", "params": {"band": 2.0}})
        assert isinstance(k, PaleyWienerKernel) and k.band == 2.0
        k = _kernel({"kernel": "gabor-gaussian", "params": {"n": 2}})
        assert isinstance(k, GaborGaussianKernel) and k.dim == 4


class TestCommands:
    def test_density_command(self, tmp_path):
        out = tmp_path / "est.json"
        rc = main(
            [
                "density",
                "--mu",
                '{"lattice": {"scale": 2.0, "dim": 2}}',
                "--nu",
                '{"lebesgue": {"dim": 2}}',
                "--rmax",
                "64",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["upper"] == pytest.approx(0.25, abs=0.01)

    def test_identity_command(self, tmp_path):
        # the comparison identity is a finite-oracle run; seed and trials are config keys
        cfg = {"scenario": "finite-oracle", "seed": 3, "trials": 10}
        assert main(["run", "--config", json.dumps(cfg), "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "finite-oracle-report.json").read_text())
        assert payload["identity"]["residuals_below_1e-10"] == 10

    def test_gram_command(self, tmp_path):
        out = tmp_path / "gram.json"
        rc = main(
            [
                "gram",
                "--kernel",
                '{"kernel": "fock"}',
                "--support",
                '{"lattice": {"scale": 1.2, "dim": 2}}',
                "--radii",
                "2.0,3.0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        study = json.loads(out.read_text())
        assert study["riesz_evidence"] is True

    def test_gram_support_in_another_dimension_exit_2(self, tmp_path, capsys):
        # measure_from_spec checks the support against the kernel's dimension, at the key that fixes it
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2,x3\n0,0,0\n1,0,0\n")
        argv = ["gram", "--kernel", '{"kernel": "fock"}', "--support", json.dumps({"points_csv": str(pts)})]
        assert main(argv + ["--radii", "2", "--out", str(tmp_path / "gram.json")]) == 2
        assert "config invalid at $.points_csv:" in capsys.readouterr().err

    def test_gram_on_a_point_set_writes_the_lattice_rows(self, tmp_path):
        # the CSV of 0.5 Z^2 on [-20, 20]^2 holds every point of 0.5 Z^2 in each window
        outs = []
        for spec in ({"points_csv": str(_clipped_grid(tmp_path))}, {"lattice": {"scale": 0.5, "dim": 2}}):
            outs.append(tmp_path / f"gram-{len(outs)}.json")
            argv = ["gram", "--kernel", '{"kernel": "fock"}', "--support", json.dumps(spec), "--radii", "2.5,3.5,4.5"]
            assert main(argv + ["--out", str(outs[-1])]) == 0
        assert outs[0].read_text() == outs[1].read_text()

    def test_gram_on_a_thinned_lattice(self, tmp_path):
        # every command reads thin: gram writes the library's study of the ThinnedLattice
        out = tmp_path / "gram.json"
        support = {"lattice": {"scale": 0.8, "dim": 2, "thin": "drop-even-even"}}
        argv = ["gram", "--kernel", '{"kernel": "fock"}', "--support", json.dumps(support), "--radii", "2.5,3.5"]
        assert main(argv + ["--out", str(out)]) == 0
        study = verify.gram_truncation_study(FockKernel(), ThinnedLattice(0.8, 2), [2.5, 3.5])
        assert out.read_text() == verify.report_json(study)

    @pytest.mark.xfail(
        strict=True,
        reason="the frame-evidence rule reads density, not frames (ROADMAP items 1 and 14): Z^2 x Z^2/2 is no frame",
    )
    def test_gram_finds_no_frame_evidence_for_a_product_with_a_critical_factor(self, tmp_path):
        # Gaussian Gabor n = 2 on Z^2 x (1/2)Z^2, points (p1, p2, q1, q2) = (a, c/2, b, d/2): density 4,
        # yet A = A1 A2 = 0 because the (p1, q1) factor Z^2 is critical (Groechenig 2011)
        a, c = np.arange(-2.0, 3.0), np.arange(-5, 6) / 2
        grid = np.stack(np.meshgrid(a, c, a, c, indexing="ij"), axis=-1).reshape(-1, 4)
        pts = tmp_path / "product.csv"
        pts.write_text("x1,x2,x3,x4\n" + "".join(",".join(map(repr, row)) + "\n" for row in grid.tolist()))
        out = tmp_path / "gram.json"
        argv = ["gram", "--kernel", '{"kernel": "gabor-gaussian", "params": {"n": 2}}']
        argv += ["--support", json.dumps({"points_csv": str(pts)}), "--radii", "2,2.5", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["frame_evidence"] is False

    def test_localize_command(self, tmp_path):
        pair = tmp_path / "pair.json"
        pair.write_text(
            json.dumps(
                {
                    "kernel": {"kernel": "fock"},
                    "f": {"lebesgue": {"dim": 2}},
                    "g": {"lattice": {"scale": 1.0, "dim": 2}},
                }
            )
        )
        out = tmp_path / "loc.json"
        rc = main(["localize", "--pair", str(pair), "--radii", "2,4", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        keys = ["center", "defect", "eps_eff", "normalizer", "radius", "t1", "t2", "trunc_bound"]
        assert [sorted(row) for row in rows] == [keys] * 2
        assert [row["radius"] for row in rows] == [2.0, 4.0]

    def test_localize_writes_the_localization_rows_of_a_run_report(self, tmp_path):
        # (Fock, Lebesgue, 0.8 Z^2) is the fock scenario's pair: localize writes its report's rows, byte for byte
        lattice = {"scale": 0.8, "dim": 2}
        cfg = {"scenario": "fock", "lattice": lattice}
        assert main(["run", "--config", json.dumps(cfg), "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fock-report.json").read_text())
        pair = {**LOC_PAIR, "g": {"lattice": lattice}}
        out = tmp_path / "loc.json"
        assert main(["localize", "--pair", json.dumps(pair), "--radii", "4,8,16", "--out", str(out)]) == 0
        assert out.read_text() == verify.report_json(report["localization"])

    @pytest.mark.parametrize("name", [n for n, cls in KERNELS.items() if cls().profile is not None])
    @pytest.mark.parametrize("sides", ["lebesgue-lattice", "lattice-lattice", "lebesgue-lebesgue"])
    def test_localize_takes_every_kernel_of_the_table(self, name, sides, tmp_path, monkeypatch):
        # every CLI kernel with a radial profile needs its record for each of the three cross-term
        # paths, and each path is a closed form: no quadrature grid is built
        monkeypatch.setattr(quadrature, "_integrate", lambda *a: pytest.fail("a quadrature grid was built"))
        d = KERNELS[name]().dim
        measure = {"lebesgue": {"lebesgue": {"dim": d}}, "lattice": {"lattice": {"scale": 0.9, "dim": d}}}
        f, g = sides.split("-")
        pair = {"kernel": {"kernel": name}, "f": measure[f], "g": measure[g]}
        out = tmp_path / "loc.json"
        assert main(["localize", "--pair", json.dumps(pair), "--radii", "2", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 1

    def test_localize_bad_quad_exit_2(self, tmp_path, capsys):
        pair = {
            "kernel": {"kernel": "fock"},
            "f": {"lebesgue": {"dim": 2}},
            "g": {"lattice": {"scale": 1.0, "dim": 2}},
            "quad": {"boundary_refine": "x"},
        }
        rc = main(["localize", "--pair", json.dumps(pair), "--radii", "2", "--out", str(tmp_path / "loc.json")])
        assert rc == 2
        # no pair has a window to set: quad is no key of a pair
        assert "config invalid at $.quad:" in capsys.readouterr().err

    def test_localize_trunc_bound_is_zero_where_nothing_is_pruned(self, tmp_path):
        # a Paley-Wiener pair takes every atom over all of B^c: at g_offset 7 a window with gap 0 once wrote inf
        pair = {**PW_PAIR, "g_offset": [7.0]}
        out = tmp_path / "loc.json"
        assert main(["localize", "--pair", json.dumps(pair), "--radii", "4,8,16", "--out", str(out)]) == 0
        assert [row["trunc_bound"] for row in json.loads(out.read_text())] == [0.0] * 3

    @pytest.mark.parametrize(
        "argv, where",
        [
            (["run", "--config", '{"scenario": "fock", "lattice": {"scale": 0.8, "dim": 2}, "density_rmax": 4.0}'], "fock-report.json"),
            (["density", "--mu", '{"lattice": {"scale": 0.5, "dim": 2}}', "--nu", LEBESGUE_2D, "--rmax", "4"], "density.json"),
        ],
        ids=["run", "density"],
    )
    def test_one_radius_schedule_writes_strict_json(self, argv, where, tmp_path):
        # one density radius leaves no trend: null and not converged, never the non-JSON Infinity
        out = ["--out-dir", str(tmp_path)] if argv[0] == "run" else ["--out", str(tmp_path / where)]
        main(argv + out)

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        report = json.loads((tmp_path / where).read_text(), parse_constant=refuse)
        est = report["density"] if argv[0] == "run" else report
        assert est["trend"] is None and est["converged"] is False

    def test_run_command_and_exit_codes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "finite-oracle", "seed": 5, "trials": 10}))
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out" / "deeper")])
        assert rc == 0
        assert (tmp_path / "out" / "deeper" / "finite-oracle-report.json").exists()

    def test_integers_written_as_floats_run_as_integers(self, tmp_path):
        # JSON Schema's integer admits 5.0: finite-oracle takes it as the seed or trial count 5
        reports = []
        for name, seed, trials in (("int", 5, 3), ("float", 5.0, 3.0)):
            cfg = json.dumps({"scenario": "finite-oracle", "seed": seed, "trials": trials})
            assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
            report = json.loads((tmp_path / name / "finite-oracle-report.json").read_text())
            reports.append({key: value for key, value in report.items() if key != "inputs"})
        assert reports[0] == reports[1]

    def test_unknown_scenario_exit_2(self):
        rc = main(["run", "--config", '{"scenario": "bogus"}'])
        assert rc == 2

    @pytest.mark.parametrize(
        "cfg, path",
        [
            ({"scenario": "fock", "kernel": {"kernel": "paley-wiener"}}, "$.kernel"),
            ({"scenario": "fock", "quad": {"boundary_refine": "x"}}, "$.quad"),
            ({"scenario": "fock", "quad": {"boundary_refine": 0}}, "$.quad"),
            ({"scenario": "dual-embedding", "offset": [0.1, 0.2, 0.3]}, "$.offset"),
            ({"scenario": "fock", "tolerances": {"density": "abc"}}, "$.tolerances.density"),
            ({"scenario": "fock", "tolerances": {"densty": 0.1}}, "$.tolerances.densty"),
            ({"scenario": "fock", "lattice": {"scale": 0.5, "dim": 3}}, "$.lattice.dim"),
            (
                {"scenario": "paley-wiener", "lattice": {"scale": 1.0, "dim": 2, "thin": "drop-even-even"}},
                "$.lattice.dim",
            ),
            # paley-wiener reads thin, points_csv and critical_band as fock and gabor do: their values are checked
            ({"scenario": "paley-wiener", "lattice": {"scale": 1.0, "dim": 1, "thin": "drop-odd"}}, "$.lattice.thin"),
            ({"scenario": "paley-wiener", "points_csv": "x1,x2\n0,0\n1,0\n"}, "$.points_csv"),
            # keys the scenario never reads
            ({"scenario": "dual-embedding", "lattice": {"scale": 1.0, "dim": 2}}, "$.lattice"),
            ({"scenario": "dual-embedding", "points_csv": "pts.csv"}, "$.points_csv"),
            ({"scenario": "dual-embedding", "gram_radii": [2.0]}, "$.gram_radii"),
            ({"scenario": "dual-embedding", "tolerances": {"density": 0.1}}, "$.tolerances"),
            ({"scenario": "fock", "lattice": {"scale": 0.5, "dim": 2}, "points_csv": "pts.csv"}, "$.lattice"),
            ({"scenario": "fock", "trials": 5}, "$.trials"),
            ({"scenario": "finite-oracle", "radii": [2.0]}, "$.radii"),
            # points of the wrong dimension in a CSV (inline text, written to a file below)
            ({"scenario": "fock", "points_csv": "x1,x2,x3\n0,0,0\n1,0,0\n"}, "$.points_csv"),
            ({"scenario": "gabor", "points_csv": "x1,x2,x3\n0,0,0\n1,0,0\n"}, "$.points_csv"),
            # misspelt keys of nested objects
            ({"scenario": "fock", "lattice": {"scale": 0.8, "dim": 2, "thinn": "drop-even-even"}}, "$.lattice.thinn"),
            ({"scenario": "fock", "quad": {"hh": 0.01}}, "$.quad"),
            ({"scenario": "fock", "quad": {"r_truncate": 5.0}}, "$.quad"),
            # gabor runs with n = 1: 2-d points only
            ({"scenario": "gabor", "lattice": {"scale": 0.8, "dim": 4}}, "$.lattice.dim"),
            ({"scenario": "gabor", "points_csv": "x1,x2,x3,x4\n0,0,0,0\n1,0,0,0\n"}, "$.points_csv"),
            # a negative critical band, and quad, which no scenario reads
            ({"scenario": "paley-wiener", "tolerances": {"critical_band": -0.1}}, "$.tolerances.critical_band"),
            ({"scenario": "paley-wiener", "quad": {"boundary_refine": 64}}, "$.quad"),
            # fock and gabor take every term over all of B^c: no grid and no window to set
            ({"scenario": "fock", "quad": {"h": 0.05}}, "$.quad"),
            ({"scenario": "fock", "quad": {"boundary_refine": 4}}, "$.quad"),
            ({"scenario": "gabor", "quad": {"h": 0.05}}, "$.quad"),
            ({"scenario": "gabor", "quad": {"boundary_refine": 4}}, "$.quad"),
            # dual-embedding takes its Lebesgue x Lebesgue overlap in closed form, and no scenario refines cells
            ({"scenario": "dual-embedding", "quad": {"h": 0.08}}, "$.quad"),
            ({"scenario": "dual-embedding", "quad": {"boundary_refine": 2}}, "$.quad"),
            ({"scenario": "paley-wiener", "quad": {"h": 0.02, "boundary_refine": 8}}, "$.quad"),
            # a density schedule needs its first radius, 4
            ({"scenario": "fock", "density_rmax": 2.0}, "$.density_rmax"),
            ({"scenario": "paley-wiener", "density_rmax": 3.99}, "$.density_rmax"),
            ({"scenario": "dual-embedding", "density_rmax": 1.0}, "$.density_rmax"),
            # paley-wiener takes its atom terms in closed form too
            ({"scenario": "paley-wiener", "quad": {"h": 0.02}}, "$.quad"),
            # a repeated Gram window only repeats its spectrum
            ({"scenario": "fock", "gram_radii": [4.5, 4.5]}, "$.gram_radii"),
            # every term is taken over all of B^c: no scenario reads a truncation margin
            ({"scenario": "fock", "quad": {"truncation_margin": 6.0}}, "$.quad"),
            ({"scenario": "paley-wiener", "quad": {"truncation_margin": 6.0}}, "$.quad"),
            # a shape fault comes before a key the scenario does not read, though $.offset sorts first
            ({"scenario": "paley-wiener", "offset": [0.1, 0.2], "radii": []}, "$.radii"),
            # the schema bounds no integer above; numpy's RandomState takes seeds below 2**32
            ({"scenario": "finite-oracle", "seed": 4294967296}, "$.seed"),
        ],
    )
    def test_malformed_config_exit_2_names_path(self, cfg, path, tmp_path, capsys):
        if "\n" in cfg.get("points_csv", ""):
            csv_path = tmp_path / "pts.csv"
            csv_path.write_text(cfg["points_csv"])
            cfg = {**cfg, "points_csv": str(csv_path)}
        rc = main(["run", "--config", json.dumps(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert f"config invalid at {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["run", "--config", '{"scenario": "fock", "density_rmax": Infinity}'], "$.density_rmax"),
            (["run", "--config", '{"scenario": "fock", "density_rmax": 1e999}'], "$.density_rmax"),
            (["run", "--config", '{"scenario": "fock", "gram_radii": [2.5, Infinity]}'], "$.gram_radii[1]"),
            (["run", "--config", '{"scenario": "paley-wiener", "radii": [NaN]}'], "$.radii[0]"),
            (["run", "--config", '{"scenario": "dual-embedding", "offset": [0.1, -Infinity]}'], "$.offset[1]"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "g_offset": [0.1, math.nan]}), "--radii", "2"], "$.g_offset[1]"),
            (["gram", "--kernel", '{"kernel": "fock"}', "--support", '{"lattice": {"scale": 1e999, "dim": 2}}', "--radii", "2"], "$.lattice.scale"),
            # an integer literal too large for a float
            (["run", "--config", json.dumps({"scenario": "fock", "radii": [10**400]})], "$.radii[0]"),
            (["run", "--config", json.dumps({"scenario": "fock", "lattice": {"scale": 10**400, "dim": 2}})], "$.lattice.scale"),
            (["density", "--mu", json.dumps({"lattice": {"scale": 10**400, "dim": 2}}), "--nu", '{"lebesgue": {"dim": 2}}'], "$.lattice.scale"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "kernel": {"kernel": "paley-wiener", "params": {"band": 10**400}}}), "--radii", "2"], "$.kernel.params.band"),
        ],
    )
    def test_non_finite_number_exit_2_names_path(self, argv, path, tmp_path, capsys):
        # Python's json reads NaN, Infinity, 1e999 (as inf) and 10**400 (as an int); no config means them
        out = ["--out-dir", str(tmp_path)] if argv[0] == "run" else ["--out", str(tmp_path / "out")]
        rc = main(argv + out)
        assert rc == 2
        assert f"config invalid at {path}: not a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["gram", "--kernel", '{"kernel": "fock"}', "--support", '{"lattice": {"scale": 0.5, "dim": 1}}', "--radii", "2"], "$.lattice.dim"),
            (["gram", "--kernel", '{"kernel": "bessel"}', "--support", LATTICE_2D, "--radii", "2"], "$.kernel"),
            (["density", "--mu", '{"lattice": {"scale": "x", "dim": 2}}', "--nu", '{"lebesgue": {"dim": 2}}'], "$.lattice.scale"),
            (["density", "--mu", '{"lattice": {"scale": 0.5}}', "--nu", '{"lebesgue": {"dim": 2}}'], "$.lattice"),
            (["density", "--mu", '{"lattice": {"scale": 0.5, "dim": 2}}', "--nu", '{"nope": {}}'], "$.nope"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "kernel": {"kernel": "bessel"}}), "--radii", "2"], "$.kernel.kernel"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "f": {"lebesgue": {"dim": "2"}}}), "--radii", "2"], "$.f.lebesgue.dim"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "g": {"nope": {}}}), "--radii", "2"], "$.g.nope"),
            (["density", "--mu", '{"lattice": {"scale": 0.5, "dim": 2}}', "--nu", '{"lebesgue": {"dim": 1}}'], "$.lebesgue.dim"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "f": {"lebesgue": {"dim": 1}}}), "--radii", "2"], "$.f.lebesgue.dim"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "g_offset": [0.1]}), "--radii", "2"], "$.g_offset"),
            (["localize", "--pair", json.dumps(GABOR_N2_PAIR), "--radii", "2"], "$.kernel.params.n"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "quad": {"r_truncate": 5.0}}), "--radii", "2"], "$.quad"),
            # params the chosen kernel never reads
            (["gram", "--kernel", json.dumps(FOCK_N2), "--support", LATTICE_2D, "--radii", "2"], "$.params.n"),
            (["gram", "--kernel", json.dumps(GABOR_BAND), "--support", LATTICE_2D, "--radii", "2"], "$.params.band"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "kernel": FOCK_N2}), "--radii", "2"], "$.kernel.params.n"),
            (
                ["localize", "--pair", json.dumps({**LOC_PAIR, "kernel": GABOR_BAND}), "--radii", "2"],
                "$.kernel.params.band",
            ),
            (["localize", "--pair", json.dumps(PW_N1_PAIR), "--radii", "2"], "$.kernel.params.n"),
            # no pair refines cells or has a window: quad is no key of a pair
            (
                ["localize", "--pair", json.dumps({**PW_PAIR, "quad": {"boundary_refine": 16}}), "--radii", "2"],
                "$.quad",
            ),
            # no pair builds a grid, so no pair reads a spacing h, whatever its kernel and sides
            (
                ["localize", "--pair", json.dumps({**PW_PAIR, "f": PW_LATTICE, "quad": {"h": 1.0}}), "--radii", "2"],
                "$.quad",
            ),
            (
                ["localize", "--pair", json.dumps({**LATTICE_PAIR, "quad": {"boundary_refine": 3}}), "--radii", "2"],
                "$.quad",
            ),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "quad": {"h": 0.1}}), "--radii", "2"], "$.quad"),
            (
                ["localize", "--pair", json.dumps({**GABOR_PAIR, "quad": {"boundary_refine": 3}}), "--radii", "2"],
                "$.quad",
            ),
            (["localize", "--pair", json.dumps({**SWAPPED_PAIR, "quad": {"h": 0.1}}), "--radii", "2"], "$.quad"),
            (["localize", "--pair", json.dumps({**LEBESGUE_PAIR, "quad": {"h": 0.1}}), "--radii", "2"], "$.quad"),
            (
                ["localize", "--pair", json.dumps({**LEBESGUE_PAIR, "quad": {"boundary_refine": 2}}), "--radii", "2"],
                "$.quad",
            ),
            (
                ["localize", "--pair", json.dumps({**GABOR_LEBESGUE_PAIR, "quad": {"h": 0.1}}), "--radii", "2"],
                "$.quad",
            ),
            # atomic point data that makes no measure
            (["density", "--mu", json.dumps(ATOMIC_SHORT_WEIGHTS), "--nu", LEBESGUE_2D], "$.atomic.weights"),
            (["density", "--mu", json.dumps(ATOMIC_RAGGED), "--nu", LEBESGUE_2D], "$.atomic.points[1]"),
            (["density", "--mu", json.dumps(ATOMIC_DUPLICATE), "--nu", LEBESGUE_2D], "$.atomic.points[2]"),
            (["density", "--mu", '{"atomic": {"points": [], "weights": []}}', "--nu", LEBESGUE_2D], "$.atomic.points"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "g": ATOMIC_SHORT_WEIGHTS}), "--radii", "2"], "$.g.atomic.weights"),
            (["localize", "--pair", json.dumps({**LOC_PAIR, "g": ATOMIC_RAGGED}), "--radii", "2"], "$.g.atomic.points[1]"),
            (["localize", "--pair", json.dumps({**SWAPPED_PAIR, "f": ATOMIC_DUPLICATE}), "--radii", "2"], "$.f.atomic.points[2]"),
            # finite weights whose total overflows
            (["density", "--mu", json.dumps(ATOMIC_OVERFLOW), "--nu", LEBESGUE_2D], "$.atomic.weights"),
            (["localize", "--pair", json.dumps({**PW_PAIR, "g": PW_ATOMIC_OVERFLOW}), "--radii", "2"], "$.g.atomic.weights"),
            (["localize", "--pair", json.dumps({**PW_PAIR, "f": PW_ATOMIC_OVERFLOW}), "--radii", "2"], "$.f.atomic.weights"),
            # a Paley-Wiener pair reads no h either, whichever sides it has
            (["localize", "--pair", json.dumps({**PW_PAIR, "quad": {"h": 0.05}}), "--radii", "2"], "$.quad"),
            (
                [
                    "localize",
                    "--pair",
                    json.dumps({**PW_PAIR, "f": PW_LATTICE, "g": PW_PAIR["f"], "quad": {"h": 0.05}}),
                    "--radii",
                    "2",
                ],
                "$.quad",
            ),
            (
                ["localize", "--pair", json.dumps({**PW_PAIR, "g": PW_PAIR["f"], "quad": {"h": 0.05}}), "--radii", "2"],
                "$.quad",
            ),
            # no pair reads a truncation margin either
            (["localize", "--pair", json.dumps({**PW_PAIR, "quad": {"truncation_margin": 6.0}}), "--radii", "2"], "$.quad"),
            # a Gram family is indexed by a lattice or a point set, never by a continuous or weighted measure
            (["gram", "--kernel", '{"kernel": "fock"}', "--support", LEBESGUE_2D, "--radii", "2"], "$.lebesgue"),
            (["gram", "--kernel", '{"kernel": "fock"}', "--support", json.dumps(ATOMIC_RAGGED), "--radii", "2"], "$.atomic"),
            # several unexpected keys, or a known one beside an unexpected one: the first unexpected key is named,
            # not the object that holds too many
            (["gram", "--kernel", '{"kernel": "fock"}', "--support", '{"scale": 0.5, "dim": 2}', "--radii", "2"], "$.dim"),
            (["density", "--mu", '{"lattice": {"scale": 0.5, "dim": 2}, "foo": 1}', "--nu", LEBESGUE_2D], "$.foo"),
            # a pair has one offset, the g family's: the f family's kernel points are its index points
            (["localize", "--pair", json.dumps({**LOC_PAIR, "f_offset": [0.1, 0.2]}), "--radii", "2"], "$.f_offset"),
            # a shape fault comes before a param the kernel does not read, though $.params.band sorts first
            (
                ["gram", "--kernel", json.dumps({**FOCK_N2, "params": {"band": 1.0, "n": 0}})]
                + ["--support", LATTICE_2D, "--radii", "2"],
                "$.params.n",
            ),
        ],
    )
    def test_malformed_spec_exit_2_names_path(self, argv, path, tmp_path, capsys):
        rc = main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"config invalid at {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, path", [("run", "$.points_csv"), ("density", "$.points_csv"), ("localize", "$.g.points_csv")])
    @pytest.mark.parametrize(
        "text",
        ["a,b\n0,0\n", "x1,x2\n0,abc\n", "x1,x2\n0.5,nan\n", "x1,x2\n1.0,2.0\n0,0\n1.0,2.0\n", "x1,x2\n"],
        ids=["header", "not-a-number", "nan", "duplicate-row", "header-only"],
    )
    def test_malformed_points_csv_exit_2_names_path(self, command, path, text, tmp_path, capsys):
        # a header-only file would otherwise run as a support with no points
        csv_path = tmp_path / "pts.csv"
        csv_path.write_text(text)
        spec = {"points_csv": str(csv_path)}
        out = tmp_path / "out"
        argv = {
            "run": ["run", "--config", json.dumps({"scenario": "gabor", **spec}), "--out-dir", str(out)],
            "density": ["density", "--mu", json.dumps(spec), "--nu", LEBESGUE_2D, "--out", str(out)],
            "localize": ["localize", "--pair", json.dumps({**LOC_PAIR, "g": spec}), "--radii", "2", "--out", str(out)],
        }[command]
        assert main(argv) == 2
        assert f"config invalid at {path}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["density", "--mu", LATTICE_2D, "--nu", '{"lebesgue": {"dim": 2}}', "--rmax", "2"], "--rmax"),
            (["density", "--mu", LATTICE_2D, "--nu", '{"lebesgue": {"dim": 2}}', "--rmax", "x"], "--rmax"),
            (["localize", "--pair", json.dumps(PW_PAIR), "--radii", "2,x"], "--radii"),
            (["localize", "--pair", json.dumps(PW_PAIR), "--radii", "2,-1"], "--radii"),
            (["localize", "--pair", json.dumps(PW_PAIR), "--radii", "2,inf"], "--radii"),
            (["gram", "--kernel", '{"kernel": "fock"}', "--support", LATTICE_2D, "--radii", "2,x"], "--radii"),
            (["gram", "--kernel", '{"kernel": "fock"}', "--support", LATTICE_2D, "--radii", "2,-1"], "--radii"),
            (["gram", "--kernel", '{"kernel": "fock"}', "--support", LATTICE_2D, "--radii", "4.5,4.5"], "--radii"),
            (["localize", "--pair", json.dumps(PW_PAIR), "--radii", "2,4,2"], "--radii"),
        ],
    )
    def test_bad_option_value_is_a_usage_error(self, argv, option, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument {option}:" in capsys.readouterr().err

    def test_rmax_at_the_smallest_radius(self, tmp_path):
        out = tmp_path / "est.json"
        argv = ["density", "--mu", LATTICE_2D, "--nu", '{"lebesgue": {"dim": 2}}', "--rmax", "4"]
        assert main(argv + ["--out", str(out)]) == 0
        assert [row[0] for row in json.loads(out.read_text())["per_radius"]] == [4.0]

    def test_runtime_error_exit_1(self, tmp_path, capsys):
        # both sides' atoms lie outside the ball: the defect has no normalizer
        far = {"atomic": {"points": [[10.0, 0.0]], "weights": [1.0]}}
        pair = {**LOC_PAIR, "f": far, "g": far}
        rc = main(["localize", "--pair", json.dumps(pair), "--radii", "2", "--out", str(tmp_path / "loc.json")])
        assert rc == 1
        assert "empty ball: defect normalizer vanishes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, radius", [("fock", 1e-170), ("gabor", 1e-170), ("paley-wiener", 1e-320)], ids=str
    )
    def test_tiny_radius_exit_1(self, scenario, radius, tmp_path, capsys):
        # the ball's Lebesgue mass underflows (to 0 in the plane, to a subnormal on the line), so nu(B)/mu(B)
        # is no finite float: one error line naming the radius, no traceback and no report
        cfg = {"scenario": scenario, "radii": [radius]}
        rc = main(["run", "--config", json.dumps(cfg), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(radius) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "support, verdict",
        [
            *(({"lattice": {"scale": a, "dim": 1}}, v) for a, v in [(0.5, "pass"), (0.9, "pass")]),
            ({"lattice": {"scale": 1.0, "dim": 1}}, "critical-no-claim"),
            *(({"lattice": {"scale": a, "dim": 1}}, "vacuous-consistent") for a in (1.1, 2.0)),
            ({"lattice": {"scale": 1.0, "dim": 1, "thin": "drop-even-even"}}, "vacuous-consistent"),
            ({"points_csv": "half-z.csv", "density_rmax": 32.0}, "pass"),
        ],
        ids=["0.5", "0.9", "1.0", "1.1", "2.0", "thin", "csv-0.5"],
    )
    def test_paley_wiener_density_theorem_verdict(self, support, verdict, tmp_path, monkeypatch):
        # Shannon and Landau: alpha Z is a frame for band pi below alpha = 1 and a Riesz sequence above it;
        # the thinned Z (the odd integers, density 1/2) is a Riesz sequence; every case exits 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "half-z.csv").write_text("\n".join(["x1", *(repr(0.5 * i) for i in range(-128, 129))]) + "\n")
        cfg = {"scenario": "paley-wiener", **support}
        assert main(["run", "--config", json.dumps(cfg), "--out-dir", "out"]) == 0
        report = json.loads((tmp_path / "out" / "paley-wiener-report.json").read_text())
        assert {v["name"]: v["verdict"] for v in report["verdicts"]}["density-theorem"] == verdict

    def test_key_error_inside_a_command_propagates(self, tmp_path, monkeypatch):
        # no validated input raises KeyError: one raised inside a command is a bug, never a config error
        def broken(*args, **kwargs):
            raise KeyError("properties")

        monkeypatch.setattr(cli, "localization_rows", broken)
        with pytest.raises(KeyError, match="properties"):
            main(["localize", "--pair", json.dumps(LOC_PAIR), "--radii", "2", "--out", str(tmp_path / "loc.json")])

    @pytest.mark.parametrize("data", [None, b"\xff\xfe" + "{}".encode("utf-16-le")], ids=["path", "utf-16"])
    def test_unreadable_json_argument_exit_2(self, data, tmp_path, capsys):
        # a directory, then a file that is not UTF-8 (UTF-16 with its byte-order mark)
        path = tmp_path
        if data is not None:
            path = tmp_path / "cfg.json"
            path.write_bytes(data)
        rc = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ref", [""], ids=["path"])
    def test_json_argument_not_an_object_exit_2_at_root(self, ref, tmp_path, capsys):
        # read once, the value reaches the schema, which names it at $
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]\n")
        rc = main(["run", "--config", ref + str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "config invalid at $: [1] is not of type 'object'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "[1]"],
            ["density", "--mu", " [1]", "--nu", LEBESGUE_2D, "--out", "est.json"],
            ["localize", "--pair", "[1]", "--radii", "2", "--out", "loc.json"],
            ["gram", "--kernel", "[1]", "--support", LATTICE_2D, "--radii", "2", "--out", "gram.json"],
        ],
        ids=["run", "density", "localize", "gram"],
    )
    def test_inline_json_array_exit_2_at_root(self, argv, tmp_path, monkeypatch, capsys):
        # text opening with [ is inline JSON, never a path: the schema names it at $
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "config invalid at $: [1] is not of type 'object'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--mu", LATTICE_2D, "--nu", LEBESGUE_2D],
            ["localize", "--pair", json.dumps(PW_PAIR), "--radii", "4,8,16"],
            ["gram", "--kernel", '{"kernel": "fock"}', "--support", LATTICE_2D, "--radii", "2"],
        ],
        ids=["density", "localize", "gram"],
    )
    @pytest.mark.parametrize("out", ["missing/out", "."], ids=["missing-directory", "a-directory"])
    def test_out_not_a_writable_path_exit_2_before_any_work(self, argv, out, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --out:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("below", ["", "/sub"], ids=["a-file", "below-a-file"])
    @pytest.mark.parametrize("given", ["option", "config"])
    def test_run_output_directory_exit_2_before_any_work(self, given, below, tmp_path, monkeypatch, capsys):
        a_file = tmp_path / "a-file"
        a_file.write_text("")
        calls = []
        monkeypatch.setitem(verify._SCENARIOS, "fock", lambda cfg: calls.append(cfg))
        cfg = {"scenario": "fock", "lattice": {"scale": 0.5, "dim": 2}}
        if given == "option":
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", json.dumps(cfg), "--out-dir", str(a_file) + below])
            assert exc.value.code == 2
            assert "argument --out-dir:" in capsys.readouterr().err
        else:
            # --out-dir is the one spelling: a config out_dir is a key no scenario reads
            assert main(["run", "--config", json.dumps({**cfg, "out_dir": str(a_file) + below})]) == 2
            assert "config invalid at $.out_dir:" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("given", ["config"])
    @pytest.mark.parametrize("scenario", ["fock", "gabor", "paley-wiener", "dual-embedding"])
    def test_seed_outside_finite_oracle_exit_2_before_any_work(self, scenario, given, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario, "seed": 3}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert "config invalid at $.seed:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["identity", "--seed", "3", "--trials", "10"], "invalid choice: 'identity'"),
            (["run", "--config", '{"scenario": "finite-oracle"}', "--seed", "3"], "unrecognized arguments: --seed 3"),
        ],
        ids=["identity", "run-seed"],
    )
    def test_removed_spelling_is_a_usage_error(self, argv, message, tmp_path, monkeypatch, capsys):
        # a finite-oracle config holds seed and trials: no subcommand or flag repeats them
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_points_csv_gets_one_density_answer(self, tmp_path):
        # run and density take a point set's density over the same centres and radii, a CSV's and a lattice's
        rng = np.random.default_rng(4)
        pts = tmp_path / "pts.csv"
        pts.write_text("x1,x2\n" + "".join(f"{x!r},{y!r}\n" for x, y in rng.uniform(-24.0, 24.0, (600, 2)).tolist()))
        for spec in ({"points_csv": str(pts)}, {"lattice": {"scale": 0.8, "dim": 2}}):
            cfg = {"scenario": "fock", **spec, "density_rmax": 8.0, "gram_radii": [1.5, 2.5]}
            assert main(["run", "--config", json.dumps(cfg), "--out-dir", str(tmp_path)]) in (0, 1)
            out = tmp_path / "est.json"
            assert main(["density", "--mu", json.dumps(spec), "--nu", LEBESGUE_2D, "--rmax", "8", "--out", str(out)]) == 0
            per_radius = json.loads(out.read_text())["per_radius"]
            assert json.loads((tmp_path / "fock-report.json").read_text())["density"]["per_radius"] == per_radius
            assert [row[0] for row in per_radius] == [4.0, 8.0]

    def test_points_csv_density_converges_inside_the_data(self, tmp_path):
        # 0.5 Z^2 clipped to [-20, 20]^2: at r_max 16 the centres are the unit grid on [-4, 4]^2,
        # so no ball reaches past the data and every radius reads close to the density 4
        pts = _clipped_grid(tmp_path)
        cfg = {"scenario": "fock", "points_csv": str(pts), "density_rmax": 16.0}
        assert main(["run", "--config", json.dumps(cfg), "--out-dir", str(tmp_path)]) == 0
        dens = json.loads((tmp_path / "fock-report.json").read_text())["density"]
        out = tmp_path / "est.json"
        mu = json.dumps({"points_csv": str(pts)})
        assert main(["density", "--mu", mu, "--nu", LEBESGUE_2D, "--rmax", "16", "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == dens
        assert dens["converged"] and dens["lower"] == dens["upper"] == pytest.approx(3.9901, abs=5e-5)

    def test_points_csv_nu_density_converges_inside_the_data(self, tmp_path):
        # the finite side sets the centres whichever side it is: Lebesgue against 0.5 Z^2 clipped to
        # [-20, 20]^2 reads close to 1/4 at every radius (centres from --mu alone read 0.5708 at r = 16)
        nu = json.dumps({"points_csv": str(_clipped_grid(tmp_path))})
        out = tmp_path / "est.json"
        assert main(["density", "--mu", LEBESGUE_2D, "--nu", nu, "--rmax", "16", "--out", str(out)]) == 0
        est = json.loads(out.read_text())
        assert est["converged"] and est["lower"] == est["upper"] == pytest.approx(0.2506225, abs=1e-7)

    def test_two_points_csv_densities_take_the_intersection_of_their_boxes(self, tmp_path):
        # 0.5 Z^2 on [-20, 20]^2 against Z^2 on [-10, 30] x [-20, 20]: at r_max 8 the centres lie in
        # [-2, 12] x [-12, 12], so every ball lies inside both sets and the ratio stays near 4
        mu = json.dumps({"points_csv": str(_clipped_grid(tmp_path))})
        shifted = tmp_path / "shifted.csv"
        shifted.write_text("x1,x2\n" + "".join(f"{i}.0,{j}.0\n" for i in range(-10, 31) for j in range(-20, 21)))
        out = tmp_path / "est.json"
        argv = ["density", "--mu", mu, "--nu", json.dumps({"points_csv": str(shifted)}), "--rmax", "8"]
        assert main(argv + ["--out", str(out)]) == 0
        est = json.loads(out.read_text())
        assert est["converged"] and 3.9 < est["lower"] <= est["upper"] < 4.1

    @pytest.mark.xfail(strict=True, reason="a point set's density centres cover its box, not its hull (ROADMAP item 17)")
    def test_points_csv_density_centres_stay_inside_the_hull(self, tmp_path):
        # 0.5 Z^2 clipped to the disc of radius 20 (5025 points): at r_max 8 the box's corner centres near
        # (+-12, +-12) put balls past the data, and the lower density reads 2.7852 at r = 8 (true 4), not converged
        pts = tmp_path / "disc.csv"
        disc = [(i, j) for i in range(-40, 41) for j in range(-40, 41) if i * i + j * j <= 1600]
        pts.write_text("x1,x2\n" + "".join(f"{0.5 * i!r},{0.5 * j!r}\n" for i, j in disc))
        out = tmp_path / "est.json"
        argv = ["density", "--mu", json.dumps({"points_csv": str(pts)}), "--nu", LEBESGUE_2D, "--rmax", "8"]
        assert main(argv + ["--out", str(out)]) == 0
        est = json.loads(out.read_text())
        assert est["converged"]
        assert est["lower"] == pytest.approx(4.0, rel=0.02) and est["upper"] == pytest.approx(4.0, rel=0.02)

    @pytest.mark.parametrize("command", ["run", "density", "density-nu"])
    def test_points_csv_smaller_than_the_largest_ball_exit_2(self, command, tmp_path, capsys):
        # at the default r_max 128 no density ball fits inside the data's [-20, 20]^2 box, on either side
        pts = _clipped_grid(tmp_path)
        out = tmp_path / "out"
        spec = json.dumps({"points_csv": str(pts)})
        if command == "run":
            argv = ["run", "--config", json.dumps({"scenario": "fock", "points_csv": str(pts)}), "--out-dir", str(out)]
        elif command == "density":
            argv = ["density", "--mu", spec, "--nu", LEBESGUE_2D, "--out", str(out)]
        else:
            argv = ["density", "--mu", LEBESGUE_2D, "--nu", spec, "--out", str(out)]
        assert main(argv) == 2
        assert "config invalid at $.points_csv:" in capsys.readouterr().err
        assert not out.exists()

    def test_at_file_is_no_json_argument(self, tmp_path, capsys):
        # a JSON argument is inline or a path: "@" is read as part of the path
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"scenario": "finite-oracle", "trials": 1}')
        assert main(["run", "--config", f"@{cfg}", "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _clipped_grid(tmp_path):
    """A CSV of 0.5 Z^2 clipped to [-20, 20]^2: 6561 points of density 4."""
    pts = tmp_path / "grid.csv"
    pts.write_text("x1,x2\n" + "".join(f"{0.5 * i!r},{0.5 * j!r}\n" for i in range(-40, 41) for j in range(-40, 41)))
    return pts


# well-formed inputs whose work or arithmetic overflows; each exits 1 today, one of them with a traceback
EXTREME_INPUTS = [
    pytest.param(["run", "--config", '{"scenario": "fock", "radii": [1e300]}', "--out-dir", "out"], id="run-radius"),
    pytest.param(
        ["run", "--config", '{"scenario": "fock", "lattice": {"scale": 1e-300, "dim": 2}}', "--out-dir", "out"],
        id="run-lattice-scale",
    ),
    pytest.param(
        ["run", "--config", '{"scenario": "dual-embedding", "offset": [1e300, 0]}', "--out-dir", "out"],
        id="dual-embedding-offset",
    ),
    pytest.param(
        ["localize", "--pair", json.dumps({**LOC_PAIR, "g_offset": [1e200, 0]}), "--radii", "4", "--out", "loc.json"],
        id="localize-g-offset",
    ),
]


@pytest.mark.xfail(
    strict=True, reason="no work budget or overflow check refuses it at its JSON path (ROADMAP items 18 and 23)"
)
@pytest.mark.parametrize("argv", EXTREME_INPUTS)
def test_extreme_input_exits_2_without_a_traceback(argv, tmp_path):
    # a child process under a 2 GiB address-space cap, so that an input asking for more fails fast
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "from framelab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
