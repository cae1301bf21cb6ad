"""Command-line interface.

Subcommands: run (scenario runner), density, localize, gram; each writes
one strict-JSON file through verify.report_json.  A JSON argument is inline
or a file's path.  Every measure spec, gram's --support (a lattice or
points_csv) included, is checked against verify.MEASURE_SCHEMA and read by
verify.measure_from_spec, as run's lattice and points_csv are; density
chooses its schedule from both measures by verify.density_schedule, as run does.
A kernel spec names a class of kernels.KERNELS and sets only the params
that class declares; localize refuses a kernel whose profile is None.
Exit codes: 0 when every verdict passes or is explicitly vacuous/no-claim,
1 on failing verdicts or contradictions, 2 on configuration and usage errors,
found before any work: an --out that is no file path in an existing
directory is one, and so is a run --out-dir that is neither a directory nor
a path whose nearest existing ancestor is one.
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
from .density import DEFAULT_RADII, density
from .kernels import KERNELS
from .localization import FramePairSpec, localization_defect
from .space import Ball

_KERNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "kernel": {"enum": list(KERNELS)},
        "params": {
            "type": "object",
            "properties": {name: shape for cls in KERNELS.values() for name, shape in cls.params.items()},
            "additionalProperties": False,
        },
    },
    "required": ["kernel"],
    "additionalProperties": False,
}
_PAIR_SCHEMA = {
    "type": "object",
    "properties": {
        "kernel": _KERNEL_SCHEMA,
        "f": verify.MEASURE_SCHEMA,
        "g": verify.MEASURE_SCHEMA,
        "g_offset": {"type": "array", "items": {"type": "number"}, "minItems": 1},
    },
    "required": ["kernel", "f", "g"],
    "additionalProperties": False,
}


def _load_json_arg(arg: str):
    """A command's JSON argument: inline (an object or array) or a file's path; the schema checks what it holds."""
    return json.loads(arg if arg.lstrip()[:1] in ("{", "[") else Path(arg).read_text())


def _kernel(spec: dict, root: str = "$"):
    """The kernel of a spec the schema has checked: its KERNELS class, called with its params.

    A param its class's params do not list is a ConfigError at <root>.params.<name>.
    """
    cls = KERNELS[spec["kernel"]]
    params = spec.get("params", {})
    unread = sorted(set(params) - set(cls.params))
    if unread:
        raise verify.ConfigError(
            f"config invalid at {root}.params.{unread[0]}: kernel {spec['kernel']!r} does not read it"
        )
    return cls(**params)


def _cmd_run(args) -> int:
    report = verify.run(_load_json_arg(args.config))
    path = verify.write_report(report, args.out_dir)
    print(f"report written to {path}")
    for v in report.get("verdicts", []):
        print(f"  [{v['verdict']}] {v['name']}: {v['detail']}")
    print(f"overall: {report['overall']}")
    return 0 if report["overall"] == "pass" else 1


def _cmd_density(args) -> int:
    mu = verify.measure_from_spec(verify.validate_config(_load_json_arg(args.mu), verify.MEASURE_SCHEMA))
    nu = verify.measure_from_spec(verify.validate_config(_load_json_arg(args.nu), verify.MEASURE_SCHEMA), dim=mu.dim)
    est = density(mu, nu, verify.density_schedule(mu, nu, args.rmax))
    Path(args.out).write_text(verify.report_json(dataclasses.asdict(est)))
    print(f"upper={est.upper!r} lower={est.lower!r} -> {args.out}")
    return 0


def _cmd_localize(args) -> int:
    pair_cfg = verify.validate_config(_load_json_arg(args.pair), _PAIR_SCHEMA)
    kernel = _kernel(pair_cfg["kernel"], "$.kernel")
    if kernel.profile is None:
        raise verify.ConfigError(
            f"config invalid at $.kernel.params.n: localize needs a kernel in dimension <= 2, got {kernel.dim}"
        )
    measures = {side: verify.measure_from_spec(pair_cfg[side], f"$.{side}", kernel.dim) for side in ("f", "g")}
    if "g_offset" in pair_cfg and len(pair_cfg["g_offset"]) != kernel.dim:
        raise verify.ConfigError(f"config invalid at $.g_offset: the kernel lives in dimension {kernel.dim}")
    pair = FramePairSpec(kernel, measures["f"], measures["g"], pair_cfg.get("g_offset"))
    rows = [localization_defect(pair, Ball(np.zeros(kernel.dim), r)) for r in args.radii]
    for row in rows:
        print(f"r={row['radius']}: defect={row['defect']:.6g} eps_eff={row['eps_eff']:.6g}")
    Path(args.out).write_text(verify.report_json(rows))
    print(f"localization rows -> {args.out}")
    return 0


def _cmd_gram(args) -> int:
    kernel = _kernel(verify.validate_config(_load_json_arg(args.kernel), _KERNEL_SCHEMA))
    # a Gram family is indexed by a discrete support: a lattice or a point set
    kinds = {k: verify.MEASURE_SCHEMA["properties"][k] for k in ("lattice", "points_csv")}
    spec = verify.validate_config(_load_json_arg(args.support), {**verify.MEASURE_SCHEMA, "properties": kinds})
    study = verify.gram_truncation_study(kernel, verify.measure_from_spec(spec, dim=kernel.dim).support, args.radii)
    Path(args.out).write_text(verify.report_json(study))
    for row in study["rows"]:
        print(row)
    print(f"frame_evidence={study['frame_evidence']} riesz_evidence={study['riesz_evidence']} -> {args.out}")
    return 0


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
    p_run.add_argument("--config", required=True, help="scenario JSON (inline, or a file's path)")
    p_run.add_argument("--out-dir", type=_out_dir, default=".")
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

    p_gram = sub.add_parser("gram", help="windowed Gram spectra of a kernel family over a lattice or point set")
    p_gram.add_argument("--kernel", required=True)
    p_gram.add_argument("--support", required=True, help="support spec JSON (lattice or points_csv)")
    p_gram.add_argument("--radii", type=_radii, required=True, help="comma-separated window radii")
    p_gram.add_argument("--out", type=_out, required=True)
    p_gram.set_defaults(fn=_cmd_gram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (verify.ConfigError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
