"""Command-line interface.

Subcommands: run (scenario runner), density, localize, gram, identity.
Exit codes: 0 when every verdict passes or is explicitly vacuous/no-claim,
1 on failing verdicts or contradictions, 2 on configuration errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import verify
from .density import density, lattice_schedule, default_schedule
from .kernels import kernel_from_config
from .localization import FramePairSpec, localization_defect
from .space import AtomicMeasure, Ball, CountingMeasure, Lattice, LebesgueMeasure, load_point_set_csv


def _load_json_arg(arg: str) -> dict:
    text = Path(arg[1:]).read_text() if arg.startswith("@") else arg
    if not text.lstrip().startswith("{"):
        text = Path(text).read_text()
    return json.loads(text)


def measure_from_config(cfg: dict):
    """Measure from {"lebesgue": {...}} | {"lattice": {...}} | {"points_csv": ...} | {"atomic": {...}}."""
    if "lebesgue" in cfg:
        return LebesgueMeasure(int(cfg["lebesgue"]["dim"]))
    if "lattice" in cfg:
        lat = cfg["lattice"]
        return CountingMeasure(Lattice(float(lat["scale"]), int(lat["dim"])))
    if "points_csv" in cfg:
        return CountingMeasure(load_point_set_csv(cfg["points_csv"]))
    if "atomic" in cfg:
        return AtomicMeasure(cfg["atomic"]["points"], cfg["atomic"]["weights"])
    raise verify.ConfigError(
        "config invalid at $: measure needs one of lebesgue/lattice/points_csv/atomic"
    )


def _cmd_run(args) -> int:
    cfg = _load_json_arg(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    report = verify.run(cfg)
    out_dir = args.out_dir or cfg.get("out_dir", ".")
    path = verify.write_report(report, out_dir)
    print(f"report written to {path}")
    for v in report.get("verdicts", []):
        print(f"  [{v['verdict']}] {v['name']}: {v['detail']}")
    print(f"overall: {report['overall']}")
    return 0 if report["overall"] == "pass" else 1


def _cmd_density(args) -> int:
    mu = measure_from_config(_load_json_arg(args.mu))
    nu = measure_from_config(_load_json_arg(args.nu))
    if isinstance(mu, CountingMeasure) and isinstance(mu.support, Lattice):
        sched = lattice_schedule(mu.support.scale, mu.dim, r_max=args.rmax)
    else:
        sched = default_schedule(mu.dim, r_max=args.rmax)
    est = density(mu, nu, sched)
    payload = {
        "upper": est.upper,
        "lower": est.lower,
        "converged": est.converged,
        "trend": est.trend,
        "per_radius": [list(r) for r in est.per_radius],
    }
    Path(args.out).write_text(verify.report_json(payload))
    print(f"upper={est.upper!r} lower={est.lower!r} -> {args.out}")
    return 0


def _cmd_localize(args) -> int:
    pair_cfg = _load_json_arg(args.pair)
    kernel = kernel_from_config(pair_cfg["kernel"])
    pair = FramePairSpec(
        kernel=kernel,
        f_measure=measure_from_config(pair_cfg["f"]),
        g_measure=measure_from_config(pair_cfg["g"]),
        f_offset=np.asarray(pair_cfg["f_offset"], dtype=float) if "f_offset" in pair_cfg else None,
        g_offset=np.asarray(pair_cfg["g_offset"], dtype=float) if "g_offset" in pair_cfg else None,
    )
    verify.validate_config(pair_cfg, {"properties": {"quad": verify.CONFIG_SCHEMA["properties"]["quad"]}})
    cfg = verify._quad_from_config(pair_cfg, default_h=0.05, default_refine=8)
    center = np.zeros(kernel.dim)
    rows = [localization_defect(pair, Ball(center, float(r)), cfg) for r in args.radii.split(",")]
    for row in rows:
        print(f"r={row.radius}: defect={row.defect:.6g} eps_eff={row.epsilon_effective:.6g}")
    verify.write_localization_csv(verify._loc_rows_json(rows), args.out)
    print(f"localization table -> {args.out}")
    return 0


def _cmd_gram(args) -> int:
    kernel = kernel_from_config(_load_json_arg(args.kernel))
    lat_cfg = _load_json_arg(args.lattice)
    support = Lattice(float(lat_cfg["scale"]), int(lat_cfg["dim"]))
    sizes = [float(r) for r in args.radii.split(",")]
    study = verify.gram_truncation_study(kernel, support, sizes)
    Path(args.out).write_text(verify.report_json(study))
    for row in study["rows"]:
        print(row)
    print(f"frame_evidence={study['frame_evidence']} riesz_evidence={study['riesz_evidence']} -> {args.out}")
    return 0


def _cmd_identity(args) -> int:
    report = verify.run({"scenario": "finite-oracle", "seed": args.seed, "trials": args.trials})
    if args.out:
        Path(args.out).write_text(verify.report_json(report))
    stats = report["identity"]
    print(f"{stats['residuals_below_1e-10']}/{stats['trials']} residuals < 1e-10 (max {stats['max_residual']:.3e})")
    return 0 if report["overall"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="framelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write its report")
    p_run.add_argument("--config", required=True, help="scenario JSON (inline, @file, or path)")
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_den = sub.add_parser("density", help="generalized Beurling density of mu against nu")
    p_den.add_argument("--mu", required=True, help="measure spec JSON")
    p_den.add_argument("--nu", required=True, help="measure spec JSON")
    p_den.add_argument("--rmax", type=float, default=128.0)
    p_den.add_argument("--out", required=True)
    p_den.set_defaults(fn=_cmd_density)

    p_loc = sub.add_parser("localize", help="localization defect table for a frame pair")
    p_loc.add_argument("--pair", required=True, help="pair spec JSON (kernel, f, g)")
    p_loc.add_argument("--radii", required=True, help="comma-separated ball radii")
    p_loc.add_argument("--out", required=True)
    p_loc.set_defaults(fn=_cmd_localize)

    p_gram = sub.add_parser("gram", help="windowed Gram spectra of a lattice kernel family")
    p_gram.add_argument("--kernel", required=True)
    p_gram.add_argument("--lattice", required=True)
    p_gram.add_argument("--radii", required=True)
    p_gram.add_argument("--out", required=True)
    p_gram.set_defaults(fn=_cmd_gram)

    p_id = sub.add_parser("identity", help="seeded random comparison-identity residuals")
    p_id.add_argument("--seed", type=int, default=7)
    p_id.add_argument("--trials", type=int, default=100)
    p_id.add_argument("--out", default=None)
    p_id.set_defaults(fn=_cmd_identity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except verify.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
