import csv
import json
import math

import pytest

from framelab import cli, quadrature, verify
from framelab.cli import _kernel, main, measure_from_config
from framelab.kernels import FockKernel, GaborGaussianKernel, PaleyWienerKernel
from framelab.space import AtomicMeasure, CountingMeasure, LebesgueMeasure

LOC_PAIR = {"kernel": {"kernel": "fock"}, "f": {"lebesgue": {"dim": 2}}, "g": {"lattice": {"scale": 1.0, "dim": 2}}}
FOCK_N2 = {"kernel": "fock", "params": {"n": 2}}
GABOR_BAND = {"kernel": "gabor-gaussian", "params": {"band": 2.0}}
LATTICE_2D = '{"scale": 0.5, "dim": 2}'
LATTICE_2D_MEASURE = '{"lattice": ' + LATTICE_2D + "}"
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
        m = measure_from_config({"lebesgue": {"dim": 2}})
        assert isinstance(m, LebesgueMeasure) and m.dim == 2

    def test_lattice(self):
        m = measure_from_config({"lattice": {"scale": 0.5, "dim": 2}})
        assert isinstance(m, CountingMeasure)
        assert m.support.scale == 0.5

    def test_atomic(self):
        m = measure_from_config({"atomic": {"points": [[0.0]], "weights": [2.0]}})
        assert isinstance(m, AtomicMeasure)

    def test_points_csv(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("x1\n0.0\n1.0\n")
        m = measure_from_config({"points_csv": str(p)})
        assert isinstance(m, CountingMeasure) and len(m.support) == 2

    def test_unknown(self):
        with pytest.raises(Exception, match="measure"):
            measure_from_config({"nope": {}})


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
        out = tmp_path / "id.json"
        rc = main(["identity", "--seed", "3", "--trials", "10", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["identity"]["residuals_below_1e-10"] == 10

    def test_gram_command(self, tmp_path):
        out = tmp_path / "gram.json"
        rc = main(
            [
                "gram",
                "--kernel",
                '{"kernel": "fock"}',
                "--lattice",
                '{"scale": 1.2, "dim": 2}',
                "--radii",
                "2.0,3.0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        study = json.loads(out.read_text())
        assert study["riesz_evidence"] is True

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
        out = tmp_path / "loc.csv"
        rc = main(["localize", "--pair", str(pair), "--radii", "2,4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "center,r,defect,t1,t2,normalizer,eps_eff,trunc_bound"
        assert len(lines) == 3

    @pytest.mark.parametrize("name", [n for n, (cls, _) in cli._KERNEL_PARAMS.items() if cls().dim <= 2])
    @pytest.mark.parametrize("sides", ["lebesgue-lattice", "lattice-lattice", "lebesgue-lebesgue"])
    def test_localize_takes_every_kernel_of_the_table(self, name, sides, tmp_path, monkeypatch):
        # every CLI kernel in d <= 2 needs a radial profile record for each of the three cross-term
        # paths, and each path is a closed form: no quadrature grid is built
        monkeypatch.setattr(quadrature, "_integrate", lambda *a: pytest.fail("a quadrature grid was built"))
        d = cli._KERNEL_PARAMS[name][0]().dim
        measure = {"lebesgue": {"lebesgue": {"dim": d}}, "lattice": {"lattice": {"scale": 0.9, "dim": d}}}
        f, g = sides.split("-")
        pair = {"kernel": {"kernel": name}, "f": measure[f], "g": measure[g]}
        out = tmp_path / "loc.csv"
        assert main(["localize", "--pair", json.dumps(pair), "--radii", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_localize_bad_quad_exit_2(self, tmp_path, capsys):
        pair = {
            "kernel": {"kernel": "fock"},
            "f": {"lebesgue": {"dim": 2}},
            "g": {"lattice": {"scale": 1.0, "dim": 2}},
            "quad": {"boundary_refine": "x"},
        }
        rc = main(["localize", "--pair", json.dumps(pair), "--radii", "2", "--out", str(tmp_path / "loc.csv")])
        assert rc == 2
        # no pair has a window to set: quad is no key of a pair
        assert "config invalid at $.quad:" in capsys.readouterr().err

    def test_localize_trunc_bound_is_zero_where_nothing_is_pruned(self, tmp_path):
        # a Paley-Wiener pair takes every atom over all of B^c: at g_offset 7 a window with gap 0 once wrote inf
        pair = {**PW_PAIR, "g_offset": [7.0]}
        out = tmp_path / "loc.csv"
        assert main(["localize", "--pair", json.dumps(pair), "--radii", "4,8,16", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["trunc_bound"] for row in rows] == ["0.0"] * 3

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
            (
                {"scenario": "paley-wiener", "lattice": {"scale": 1.0, "dim": 1, "thin": "drop-even-even"}},
                "$.lattice.thin",
            ),
            # keys the scenario never reads
            ({"scenario": "paley-wiener", "points_csv": "pts.csv"}, "$.points_csv"),
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
            # tolerances fields the scenario never reads, and quad, which no scenario reads
            ({"scenario": "paley-wiener", "tolerances": {"critical_band": 0.3}}, "$.tolerances.critical_band"),
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
            (["gram", "--kernel", '{"kernel": "fock"}', "--lattice", '{"scale": 1e999, "dim": 2}', "--radii", "2"], "$.scale"),
        ],
    )
    def test_non_finite_number_exit_2_names_path(self, argv, path, tmp_path, capsys):
        # Python's json reads NaN, Infinity and 1e999 (as inf); no config means them
        out = ["--out-dir", str(tmp_path)] if argv[0] == "run" else ["--out", str(tmp_path / "out")]
        rc = main(argv + out)
        assert rc == 2
        assert f"config invalid at {path}: not a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["gram", "--kernel", '{"kernel": "fock"}', "--lattice", '{"scale": 0.5, "dim": 1}', "--radii", "2"], "$.dim"),
            (["gram", "--kernel", '{"kernel": "bessel"}', "--lattice", '{"scale": 0.5, "dim": 2}', "--radii", "2"], "$.kernel"),
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
            (["gram", "--kernel", json.dumps(FOCK_N2), "--lattice", LATTICE_2D, "--radii", "2"], "$.params.n"),
            (["gram", "--kernel", json.dumps(GABOR_BAND), "--lattice", LATTICE_2D, "--radii", "2"], "$.params.band"),
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
            (["density", "--mu", LATTICE_2D_MEASURE, "--nu", '{"lebesgue": {"dim": 2}}', "--rmax", "2"], "--rmax"),
            (["density", "--mu", LATTICE_2D_MEASURE, "--nu", '{"lebesgue": {"dim": 2}}', "--rmax", "x"], "--rmax"),
            (["localize", "--pair", json.dumps(PW_PAIR), "--radii", "2,x"], "--radii"),
            (["localize", "--pair", json.dumps(PW_PAIR), "--radii", "2,-1"], "--radii"),
            (["localize", "--pair", json.dumps(PW_PAIR), "--radii", "2,inf"], "--radii"),
            (["gram", "--kernel", '{"kernel": "fock"}', "--lattice", LATTICE_2D, "--radii", "2,x"], "--radii"),
            (["gram", "--kernel", '{"kernel": "fock"}', "--lattice", LATTICE_2D, "--radii", "2,-1"], "--radii"),
            (["gram", "--kernel", '{"kernel": "fock"}', "--lattice", LATTICE_2D, "--radii", "4.5,4.5"], "--radii"),
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
        argv = ["density", "--mu", LATTICE_2D_MEASURE, "--nu", '{"lebesgue": {"dim": 2}}', "--rmax", "4"]
        assert main(argv + ["--out", str(out)]) == 0
        assert [row[0] for row in json.loads(out.read_text())["per_radius"]] == [4.0]

    def test_runtime_error_exit_1(self, tmp_path, capsys):
        # both sides' atoms lie outside the ball: the defect has no normalizer
        far = {"atomic": {"points": [[10.0, 0.0]], "weights": [1.0]}}
        pair = {**LOC_PAIR, "f": far, "g": far}
        rc = main(["localize", "--pair", json.dumps(pair), "--radii", "2", "--out", str(tmp_path / "loc.csv")])
        assert rc == 1
        assert "empty ball: defect normalizer vanishes" in capsys.readouterr().err

    @pytest.mark.parametrize("ref", ["@", ""], ids=["at-file", "path"])
    def test_unreadable_json_argument_exit_2(self, ref, tmp_path, capsys):
        rc = main(["run", "--config", ref + str(tmp_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "ref, seed", [("@", []), ("@", ["--seed", "3"]), ("", ["--seed", "3"])], ids=["at-file", "at-file-seed", "path-seed"]
    )
    def test_json_argument_not_an_object_exit_2_at_root(self, ref, seed, tmp_path, capsys):
        # read once, the value reaches the schema, which names it at $
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]\n")
        rc = main(["run", "--config", ref + str(cfg), "--out-dir", str(tmp_path / "out"), *seed])
        assert rc == 2
        assert "config invalid at $: [1] is not of type 'object'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config", "[1]"],
            ["density", "--mu", " [1]", "--nu", LEBESGUE_2D, "--out", "est.json"],
            ["localize", "--pair", "[1]", "--radii", "2", "--out", "loc.csv"],
            ["gram", "--kernel", "[1]", "--lattice", LATTICE_2D, "--radii", "2", "--out", "gram.json"],
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
            ["density", "--mu", LATTICE_2D_MEASURE, "--nu", LEBESGUE_2D],
            ["localize", "--pair", json.dumps(PW_PAIR), "--radii", "4,8,16"],
            ["gram", "--kernel", '{"kernel": "fock"}', "--lattice", LATTICE_2D, "--radii", "2"],
            ["identity", "--trials", "3"],
        ],
        ids=["density", "localize", "gram", "identity"],
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
        monkeypatch.setattr(verify, "run", lambda cfg: calls.append(cfg))
        cfg = {"scenario": "fock", "lattice": {"scale": 0.5, "dim": 2}}
        if given == "option":
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", json.dumps(cfg), "--out-dir", str(a_file) + below])
            assert exc.value.code == 2
            assert "argument --out-dir:" in capsys.readouterr().err
        else:
            assert main(["run", "--config", json.dumps({**cfg, "out_dir": str(a_file) + below})]) == 2
            assert "config invalid at $.out_dir:" in capsys.readouterr().err
        assert calls == []

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "finite-oracle", "seed": 5, "trials": 10}))
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path), "--seed", "9"])
        assert rc == 0
        rep = json.loads((tmp_path / "finite-oracle-report.json").read_text())
        assert rep["seed"] == 9
