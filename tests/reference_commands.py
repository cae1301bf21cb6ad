"""The framelab commands whose outputs ``tests/reference/`` holds, and one runner for them.

Each command is a ``framelab`` argv, run in-process with its cwd in one output
directory, and writes one JSON file there (``run`` writes
``<scenario>-report.json`` into its own subdirectory).  ``grid.csv``, 0.5Z²
clipped to [-20, 20]², is written there first, so the point-set commands read
it by that relative name and their reports hold no machine's path.  Every
command must exit 0: the script exits 1, naming each one that did not.

Run every command into OUT_DIR (CI does so under ``OPENBLAS_NUM_THREADS`` 1,
2 and 4, then ``diff -r``s the 1-thread directory against each of the others)::

    PYTHONPATH=src python tests/reference_commands.py OUT_DIR

Into an OUT_DIR the script also writes the ``run`` reports of the benchmark's
scenario configs (``perfbench/workloads.py``'s ``scenario_configs``) for
seeds 0 to 10, 66 in all, as ``scenarios/<seed>-<index>/<scenario>-report.json``,
and prints the sha256 of their bytes concatenated in that order: one hash
that two commits or two thread counts can be compared by.

Rewrite ``tests/reference/`` from the current code, at one BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/reference_commands.py --rewrite
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import sys
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCENARIO_SEEDS = range(11)

_ATOMIC = '{"atomic": {"points": [[0.0, 0.0], [0.5, 0.25], [-1.0, 2.0]], "weights": [1.0, 2.0, 0.5]}}'

COMMANDS = [
    # the six seed-0 benchmark scenarios, a thinned lattice, a finite oracle, fock on the grid CSV, and
    # paley-wiener off the critical density: a frame (0.5Z), a Riesz sequence (2Z) and the thinned Z
    *(
        ["run", "--config", cfg, "--out-dir", f"run-{name}"]
        for name, cfg in [
            ("fock-0.5", '{"scenario": "fock", "lattice": {"scale": 0.5, "dim": 2}}'),
            ("gabor-0.8", '{"scenario": "gabor", "lattice": {"scale": 0.8, "dim": 2}}'),
            ("gabor-1.2", '{"scenario": "gabor", "lattice": {"scale": 1.2, "dim": 2}}'),
            ("fock-2.0", '{"scenario": "fock", "lattice": {"scale": 2.0, "dim": 2}}'),
            ("fock-0.8-thin", '{"scenario": "fock", "lattice": {"scale": 0.8, "dim": 2, "thin": "drop-even-even"}}'),
            ("paley-wiener", '{"scenario": "paley-wiener"}'),
            ("dual-embedding", '{"scenario": "dual-embedding"}'),
            ("finite-oracle", '{"scenario": "finite-oracle", "seed": 3, "trials": 100}'),
            ("fock-grid", '{"scenario": "fock", "points_csv": "grid.csv", "density_rmax": 16}'),
            ("paley-wiener-0.5", '{"scenario": "paley-wiener", "lattice": {"scale": 0.5, "dim": 1}}'),
            ("paley-wiener-2.0", '{"scenario": "paley-wiener", "lattice": {"scale": 2.0, "dim": 1}}'),
            (
                "paley-wiener-thin",
                '{"scenario": "paley-wiener", "lattice": {"scale": 1.0, "dim": 1, "thin": "drop-even-even"}}',
            ),
        ]
    ),
    # localize: every cross-term path, a profile reached through gabor-gaussian, and the thinned Poisson sum
    *(
        ["localize", "--pair", pair, "--radii", "4,8,16", "--out", f"localize-{name}.json"]
        for name, pair in [
            (
                "pw-lebesgue-lebesgue",
                '{"kernel": {"kernel": "paley-wiener"}, "f": {"lebesgue": {"dim": 1}}, '
                '"g": {"lebesgue": {"dim": 1}}, "g_offset": [0.3]}',
            ),
            (
                "fock-lebesgue-lattice",
                '{"kernel": {"kernel": "fock"}, "f": {"lebesgue": {"dim": 2}}, '
                '"g": {"lattice": {"scale": 0.5, "dim": 2}}}',
            ),
            (
                "pw-lebesgue-lattice",
                '{"kernel": {"kernel": "paley-wiener"}, "f": {"lebesgue": {"dim": 1}}, '
                '"g": {"lattice": {"scale": 1.3, "dim": 1}}}',
            ),
            (
                "pw-band-2-lattice-lattice",
                '{"kernel": {"kernel": "paley-wiener", "params": {"band": 2.0}}, '
                '"f": {"lattice": {"scale": 1.0, "dim": 1}}, "g": {"lattice": {"scale": 0.9, "dim": 1}}, '
                '"g_offset": [0.3]}',
            ),
            (
                "fock-lattice-lattice",
                '{"kernel": {"kernel": "fock"}, "f": {"lattice": {"scale": 0.8, "dim": 2}}, '
                '"g": {"lattice": {"scale": 0.9, "dim": 2}}, "g_offset": [0.1, 0.2]}',
            ),
            (
                "fock-lebesgue-atomic",
                '{"kernel": {"kernel": "fock"}, "f": {"lebesgue": {"dim": 2}}, '
                f'"g": {_ATOMIC}, "g_offset": [0.1, 0.2]}}',
            ),
            (
                "gabor-1-lattice-lattice",
                '{"kernel": {"kernel": "gabor-gaussian", "params": {"n": 1}}, '
                '"f": {"lattice": {"scale": 0.8, "dim": 2}}, "g": {"lattice": {"scale": 0.9, "dim": 2}}, '
                '"g_offset": [0.1, 0.2]}',
            ),
            (
                "pw-lebesgue-thinned",
                '{"kernel": {"kernel": "paley-wiener"}, "f": {"lebesgue": {"dim": 1}}, '
                '"g": {"lattice": {"scale": 0.8, "dim": 1, "thin": "drop-even-even"}}, "g_offset": [0.3]}',
            ),
        ]
    ),
    # localize over the grid CSV with an offset, radii unsorted: one table's rows, in the order given
    [
        "localize",
        "--pair",
        '{"kernel": {"kernel": "fock"}, "f": {"lebesgue": {"dim": 2}}, "g": {"points_csv": "grid.csv"}, '
        '"g_offset": [0.3, -0.2]}',
        "--radii",
        "16,4,8",
        "--out",
        "localize-fock-lebesgue-grid.json",
    ],
    # gram: the scenario windows, 0.5Z² out to R = 6 (an H_0 of 111), a thinned lattice, the grid CSV,
    # and a kernel param
    *(
        ["gram", "--kernel", kernel, "--support", support, "--radii", radii, "--out", f"gram-{name}.json"]
        for name, kernel, support, radii in [
            ("fock-0.5", '{"kernel": "fock"}', '{"lattice": {"scale": 0.5, "dim": 2}}', "2.5,3.5,4.5"),
            ("fock-0.5-r6", '{"kernel": "fock"}', '{"lattice": {"scale": 0.5, "dim": 2}}', "4.5,6"),
            ("fock-2.0", '{"kernel": "fock"}', '{"lattice": {"scale": 2.0, "dim": 2}}', "2.5,3.5,4.5"),
            ("gabor-0.8", '{"kernel": "gabor-gaussian"}', '{"lattice": {"scale": 0.8, "dim": 2}}', "2.5,3.5,4.5"),
            ("gabor-1.2", '{"kernel": "gabor-gaussian"}', '{"lattice": {"scale": 1.2, "dim": 2}}', "2.5,3.5,4.5"),
            ("pw-1.0", '{"kernel": "paley-wiener"}', '{"lattice": {"scale": 1.0, "dim": 1}}', "10,15,20"),
            (
                "fock-0.8-thin",
                '{"kernel": "fock"}',
                '{"lattice": {"scale": 0.8, "dim": 2, "thin": "drop-even-even"}}',
                "2.5,3.5,4.5",
            ),
            ("fock-grid", '{"kernel": "fock"}', '{"points_csv": "grid.csv"}', "2.5,3.5,4.5"),
            (
                "pw-band-2-1.0",
                '{"kernel": "paley-wiener", "params": {"band": 2.0}}',
                '{"lattice": {"scale": 1.0, "dim": 1}}',
                "10,15,20",
            ),
        ]
    ),
    # density against Lebesgue: a lattice, an atomic measure, and the grid CSV, whose balls lie inside it at 16
    *(
        ["density", "--mu", mu, "--nu", '{"lebesgue": {"dim": 2}}', *rmax, "--out", f"density-{name}.json"]
        for name, mu, rmax in [
            ("lattice-0.5", '{"lattice": {"scale": 0.5, "dim": 2}}', []),
            ("atomic", _ATOMIC, []),
            ("grid", '{"points_csv": "grid.csv"}', ["--rmax", "16"]),
        ]
    ),
]


def run_all(out_dir) -> dict[str, int]:
    """Write grid.csv into out_dir and run every command with its cwd there; each one's exit code, by its shell form."""
    from framelab.cli import main

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [f"{0.5 * i!r},{0.5 * j!r}" for i in range(-40, 41) for j in range(-40, 41)]
    (out / "grid.csv").write_text("\n".join(["x1,x2", *rows]) + "\n")
    codes, cwd = {}, os.getcwd()
    os.chdir(out)
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[f"framelab {shlex.join(argv)}"] = main(argv)
    finally:
        os.chdir(cwd)
    return codes


def run_scenarios(out_dir) -> tuple[dict[str, int], str]:
    """Write the run report of every benchmark scenario config of SCENARIO_SEEDS under out_dir/scenarios; each
    run's exit code, by its shell form, and the sha256 of the reports' bytes concatenated in run order."""
    from framelab.cli import main

    sys.path.insert(0, str(PERFBENCH))
    from workloads import scenario_configs

    codes, digest = {}, hashlib.sha256()
    for seed in SCENARIO_SEEDS:
        for i, cfg in enumerate(scenario_configs(seed)):
            out = Path(out_dir) / "scenarios" / f"{seed}-{i}"
            argv = ["run", "--config", json.dumps(cfg), "--out-dir", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                codes[f"framelab {shlex.join(argv)}"] = main(argv)
            for report in sorted(out.glob("*-report.json")):
                digest.update(report.read_bytes())
    return codes, digest.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("out_dir", nargs="?", help="directory to run every command into")
    target.add_argument("--rewrite", action="store_true", help=f"rewrite {REFERENCE} from the current code")
    args = parser.parse_args()
    if args.rewrite:
        shutil.rmtree(REFERENCE, ignore_errors=True)
        codes = run_all(REFERENCE)
        (REFERENCE / "grid.csv").unlink()
    else:
        codes = run_all(args.out_dir)
        scenario_codes, digest = run_scenarios(args.out_dir)
        codes.update(scenario_codes)
        print(f"sha256 of the {len(scenario_codes)} scenario reports: {digest}")
    sys.exit("\n".join(f"{command} exited {rc}" for command, rc in codes.items() if rc) or 0)
