import json

import pytest

from framelab.cli import main, measure_from_config
from framelab.space import AtomicMeasure, CountingMeasure, LebesgueMeasure


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
                    "quad": {"h": 0.1},
                }
            )
        )
        out = tmp_path / "loc.csv"
        rc = main(["localize", "--pair", str(pair), "--radii", "2,4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "center,r,defect,t1,t2,normalizer,eps_eff,trunc_bound"
        assert len(lines) == 3

    def test_localize_honours_truncation_margin(self, tmp_path):
        def trunc_bound(quad):
            pair = {
                "kernel": {"kernel": "fock"},
                "f": {"lebesgue": {"dim": 2}},
                "g": {"lattice": {"scale": 1.0, "dim": 2}},
                "quad": quad,
            }
            out = tmp_path / "loc.csv"
            assert main(["localize", "--pair", json.dumps(pair), "--radii", "2", "--out", str(out)]) == 0
            return float(out.read_text().splitlines()[1].split(",")[-1])

        assert trunc_bound({"h": 0.2, "truncation_margin": 1.0}) > trunc_bound({"h": 0.2})

    def test_localize_bad_quad_exit_2(self, tmp_path, capsys):
        pair = {
            "kernel": {"kernel": "fock"},
            "f": {"lebesgue": {"dim": 2}},
            "g": {"lattice": {"scale": 1.0, "dim": 2}},
            "quad": {"boundary_refine": "x"},
        }
        rc = main(["localize", "--pair", json.dumps(pair), "--radii", "2", "--out", str(tmp_path / "loc.csv")])
        assert rc == 2
        assert "config invalid at $.quad.boundary_refine:" in capsys.readouterr().err

    def test_run_command_and_exit_codes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "finite-oracle", "seed": 5, "trials": 10}))
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "finite-oracle-report.json").exists()

    def test_unknown_scenario_exit_2(self):
        rc = main(["run", "--config", '{"scenario": "bogus"}'])
        assert rc == 2

    @pytest.mark.parametrize(
        "cfg, path",
        [
            ({"scenario": "fock", "kernel": {"kernel": "paley-wiener"}}, "$.kernel"),
            ({"scenario": "fock", "quad": {"boundary_refine": "x"}}, "$.quad.boundary_refine"),
            ({"scenario": "fock", "quad": {"boundary_refine": 0}}, "$.quad.boundary_refine"),
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
        ],
    )
    def test_malformed_config_exit_2_names_path(self, cfg, path, tmp_path, capsys):
        rc = main(["run", "--config", json.dumps(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert f"config invalid at {path}:" in capsys.readouterr().err

    def test_runtime_error_exit_1(self, tmp_path, capsys):
        p = tmp_path / "pts.csv"
        p.write_text("x1,x2\n1.0,2.0\n1.0,2.0\n")  # coincident pair
        rc = main(
            [
                "run",
                "--config",
                json.dumps({"scenario": "gabor", "points_csv": str(p)}),
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 1
        assert "not separated" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "finite-oracle", "seed": 5, "trials": 10}))
        rc = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path), "--seed", "9"])
        assert rc == 0
        rep = json.loads((tmp_path / "finite-oracle-report.json").read_text())
        assert rep["seed"] == 9
