"""Command-line interface.

Subcommands: run (scenario runner), density, localize, gram, identity.
Exit codes: 0 when every verdict passes or is explicitly vacuous/no-claim,
1 on failing verdicts or contradictions, 2 on configuration and usage errors,
found before any work: an --out that is no file path in an existing
directory is one, and so is an output directory of run (--out-dir, or the
config's out_dir) that is neither a directory nor a path whose nearest
existing ancestor is one.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import verify
from .density import DEFAULT_RADII, density, lattice_schedule, default_schedule
from .kernels import FockKernel, GaborGaussianKernel, PaleyWienerKernel
from .localization import FramePairSpec, localization_defect
from .space import AtomicMeasure, Ball, CountingMeasure, Lattice, LebesgueMeasure


_LATTICE_SCHEMA = {
    "type": "object",
    "properties": {
        "scale": {"type": "number", "exclusiveMinimum": 0},
        "dim": {"type": "integer", "minimum": 1},
    },
    "required": ["scale", "dim"],
    "additionalProperties": False,
}
# each kernel's class and the params it reads
_KERNEL_PARAMS = {
    "paley-wiener": (PaleyWienerKernel, ("band",)),
    "fock": (FockKernel, ()),
    "gabor-gaussian": (GaborGaussianKernel, ("n",)),
}
_KERNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "kernel": {"enum": list(_KERNEL_PARAMS)},
        "params": {
            "type": "object",
            "properties": {"band": {"type": "number", "exclusiveMinimum": 0}, "n": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
    },
    "required": ["kernel"],
    "additionalProperties": False,
    # params the chosen kernel never reads are rejected rather than ignored
    "allOf": [
        {
            "if": {"properties": {"kernel": {"const": name}}},
            "then": {
                "properties": {"params": {"properties": {k: {"not": {}} for k in ("band", "n") if k not in keys}}}
            },
        }
        for name, (_, keys) in _KERNEL_PARAMS.items()
    ],
}
# exactly one measure kind
_MEASURE_SCHEMA = {
    "type": "object",
    "properties": {
        "lebesgue": {
            "type": "object",
            "properties": {"dim": {"type": "integer", "minimum": 1}},
            "required": ["dim"],
            "additionalProperties": False,
        },
        "lattice": _LATTICE_SCHEMA,
        "points_csv": {"type": "string"},
        "atomic": {
            "type": "object",
            "properties": {
                "points": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                    "minItems": 1,
                },
                "weights": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
            },
            "required": ["points", "weights"],
            "additionalProperties": False,
        },
    },
    "minProperties": 1,
    "maxProperties": 1,
    "additionalProperties": False,
}
_OFFSET_SCHEMA = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_PAIR_SCHEMA = {
    "type": "object",
    "properties": {
        "kernel": _KERNEL_SCHEMA,
        "f": _MEASURE_SCHEMA,
        "g": _MEASURE_SCHEMA,
        "f_offset": _OFFSET_SCHEMA,
        "g_offset": _OFFSET_SCHEMA,
    },
    "required": ["kernel", "f", "g"],
    "additionalProperties": False,
}


def _load_json_arg(arg: str):
    """A command's JSON argument: inline (an object or array), @file or a path; the schema checks what it holds."""
    inline = not arg.startswith("@") and arg.lstrip()[:1] in ("{", "[")
    return json.loads(arg if inline else Path(arg.removeprefix("@")).read_text())


def _kernel(spec: dict):
    """The kernel of a spec the schema has checked: its class, called with its params."""
    cls, _ = _KERNEL_PARAMS[spec["kernel"]]
    return cls(**spec.get("params", {}))


def measure_from_config(cfg: dict, root: str = "$"):
    """Measure from {"lebesgue": {...}} | {"lattice": {...}} | {"points_csv": ...} | {"atomic": {...}}.

    Point data that makes no measure is a ConfigError at its JSON path under root.
    """
    if "lebesgue" in cfg:
        return LebesgueMeasure(int(cfg["lebesgue"]["dim"]))
    if "lattice" in cfg:
        lat = cfg["lattice"]
        return CountingMeasure(Lattice(float(lat["scale"]), int(lat["dim"])))
    if "points_csv" in cfg:
        return CountingMeasure(verify.config_point_set(cfg["points_csv"], f"{root}.points_csv"))
    if "atomic" in cfg:
        points, weights = cfg["atomic"]["points"], cfg["atomic"]["weights"]
        first = {}
        for i, p in enumerate(points):
            where = f"config invalid at {root}.atomic.points[{i}]"
            if len(p) != len(points[0]):
                raise verify.ConfigError(f"{where}: {len(p)} coordinates, not {len(points[0])}")
            j = first.setdefault(tuple(p), i)
            if j != i:
                raise verify.ConfigError(f"{where}: the same atom as points[{j}]")
        try:
            return AtomicMeasure(points, weights)
        except ValueError as exc:  # the points are checked above: what is left is the weights
            raise verify.ConfigError(f"config invalid at {root}.atomic.weights: {exc}") from None
    raise verify.ConfigError(
        "config invalid at $: measure needs one of lebesgue/lattice/points_csv/atomic"
    )


def _dim_path(spec: dict, root: str = "$") -> str:
    """JSON path that fixes a measure spec's dimension: its dim key, or its point data."""
    (kind,) = spec
    return f"{root}.{kind}.dim" if kind in ("lebesgue", "lattice") else f"{root}.{kind}"


def _cmd_run(args) -> int:
    cfg = verify.validate_config(_load_json_arg(args.config))
    if args.seed is not None:
        cfg = {**cfg, "seed": args.seed}
    out_dir = args.out_dir or cfg.get("out_dir", ".")
    try:
        _out_dir(out_dir)
    except argparse.ArgumentTypeError as exc:
        raise verify.ConfigError(f"config invalid at $.out_dir: {exc}") from None
    report = verify.run(cfg)
    path = verify.write_report(report, out_dir)
    print(f"report written to {path}")
    for v in report.get("verdicts", []):
        print(f"  [{v['verdict']}] {v['name']}: {v['detail']}")
    print(f"overall: {report['overall']}")
    return 0 if report["overall"] == "pass" else 1


def _cmd_density(args) -> int:
    mu = measure_from_config(verify.validate_config(_load_json_arg(args.mu), _MEASURE_SCHEMA))
    nu_cfg = verify.validate_config(_load_json_arg(args.nu), _MEASURE_SCHEMA)
    nu = measure_from_config(nu_cfg)
    if nu.dim != mu.dim:
        raise verify.ConfigError(f"config invalid at {_dim_path(nu_cfg)}: --mu lives in dimension {mu.dim}")
    if isinstance(mu, CountingMeasure) and isinstance(mu.support, Lattice):
        sched = lattice_schedule(mu.support.scale, mu.dim, r_max=args.rmax)
    else:
        sched = default_schedule(mu.dim, r_max=args.rmax)
    est = density(mu, nu, sched)
    Path(args.out).write_text(verify.report_json(dataclasses.asdict(est)))
    print(f"upper={est.upper!r} lower={est.lower!r} -> {args.out}")
    return 0


def _cmd_localize(args) -> int:
    pair_cfg = verify.validate_config(_load_json_arg(args.pair), _PAIR_SCHEMA)
    kernel = _kernel(pair_cfg["kernel"])
    if kernel.dim > 2:
        raise verify.ConfigError(
            f"config invalid at $.kernel.params.n: localize needs a kernel in dimension <= 2, got {kernel.dim}"
        )
    measures = {side: measure_from_config(pair_cfg[side], f"$.{side}") for side in ("f", "g")}
    for side, m in measures.items():
        if m.dim != kernel.dim:
            path = _dim_path(pair_cfg[side], f"$.{side}")
            raise verify.ConfigError(f"config invalid at {path}: the kernel lives in dimension {kernel.dim}")
    for key in ("f_offset", "g_offset"):
        if key in pair_cfg and len(pair_cfg[key]) != kernel.dim:
            raise verify.ConfigError(f"config invalid at $.{key}: the kernel lives in dimension {kernel.dim}")
    pair = FramePairSpec(
        kernel=kernel,
        f_measure=measures["f"],
        g_measure=measures["g"],
        f_offset=pair_cfg.get("f_offset"),
        g_offset=pair_cfg.get("g_offset"),
    )
    rows = [localization_defect(pair, Ball(np.zeros(kernel.dim), r)) for r in args.radii]
    for row in rows:
        print(f"r={row['radius']}: defect={row['defect']:.6g} eps_eff={row['eps_eff']:.6g}")
    verify.write_table_csv(rows, verify.LOCALIZATION_CSV, args.out)
    print(f"localization table -> {args.out}")
    return 0


def _cmd_gram(args) -> int:
    kernel = _kernel(verify.validate_config(_load_json_arg(args.kernel), _KERNEL_SCHEMA))
    lat_cfg = verify.validate_config(_load_json_arg(args.lattice), _LATTICE_SCHEMA)
    if lat_cfg["dim"] != kernel.dim:
        raise verify.ConfigError(f"config invalid at $.dim: the kernel lives in dimension {kernel.dim}")
    support = Lattice(lat_cfg["scale"], lat_cfg["dim"])
    study = verify.gram_truncation_study(kernel, support, args.radii)
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


def _radii(text: str) -> list[float]:
    """argparse type: comma-separated distinct positive finite numbers."""
    try:
        radii = [float(r) for r in text.split(",")]
    except ValueError:
        radii = [math.nan]
    if not all(0 < r < math.inf for r in radii) or len(set(radii)) < len(radii):
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of distinct positive finite numbers")
    return radii


def _rmax(text: str) -> float:
    """argparse type: a bound on the density radii that keeps the smallest one."""
    try:
        r = float(text)
    except ValueError:
        r = math.nan
    if not r >= DEFAULT_RADII[0]:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a number >= {DEFAULT_RADII[0]:g}, the smallest density radius"
        )
    return r


def _out(text: str) -> str:
    """argparse type: an output file in a directory that exists, checked before any work."""
    if Path(text).is_dir() or not Path(text).parent.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is not a file path in an existing directory")
    return text


def _out_dir(text: str) -> str:
    """argparse type: a directory write_report can use, checked before any work: one, or a path below one."""
    ancestor = Path(text).absolute()
    while not os.path.lexists(ancestor):
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither a directory nor a path whose nearest existing ancestor is one"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="framelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write its report")
    p_run.add_argument("--config", required=True, help="scenario JSON (inline, @file, or path)")
    p_run.add_argument("--out-dir", type=_out_dir, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_den = sub.add_parser("density", help="generalized Beurling density of mu against nu")
    p_den.add_argument("--mu", required=True, help="measure spec JSON")
    p_den.add_argument("--nu", required=True, help="measure spec JSON")
    p_den.add_argument("--rmax", type=_rmax, default=128.0, help="largest density radius")
    p_den.add_argument("--out", type=_out, required=True)
    p_den.set_defaults(fn=_cmd_density)

    p_loc = sub.add_parser("localize", help="localization defect table for a frame pair")
    p_loc.add_argument("--pair", required=True, help="pair spec JSON (kernel, f, g)")
    p_loc.add_argument("--radii", type=_radii, required=True, help="comma-separated ball radii")
    p_loc.add_argument("--out", type=_out, required=True)
    p_loc.set_defaults(fn=_cmd_localize)

    p_gram = sub.add_parser("gram", help="windowed Gram spectra of a lattice kernel family")
    p_gram.add_argument("--kernel", required=True)
    p_gram.add_argument("--lattice", required=True)
    p_gram.add_argument("--radii", type=_radii, required=True, help="comma-separated window radii")
    p_gram.add_argument("--out", type=_out, required=True)
    p_gram.set_defaults(fn=_cmd_gram)

    p_id = sub.add_parser("identity", help="seeded random comparison-identity residuals")
    p_id.add_argument("--seed", type=int, default=7)
    p_id.add_argument("--trials", type=int, default=100)
    p_id.add_argument("--out", type=_out, default=None)
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
    except (json.JSONDecodeError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
