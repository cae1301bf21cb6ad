"""One benchmark pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        [--setup-only | --trace-file PATH]

Set-up is everything before the first op: interpreter start, the imports of
framelab, numpy and jsonschema, and the generation of the workload's inputs.
The worker prints one JSON line: the CLOCK_MONOTONIC time of the first op
(the parent subtracts its spawn time), and unless --setup-only the pass's
wall time, per-op failures, peak RSS, CPU time and input summary.  With
--trace-file it also wraps framelab's public functions, writes the spans to
that file and reports per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_info() -> dict:
    """OpenBLAS version and thread count of the loaded numpy, when readable."""
    import ctypes

    import numpy as np

    info = {"blas": None, "blas_version": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as maps:
            libs = [line.split()[-1] for line in maps if "openblas" in line.lower() and line.rstrip().endswith(".so")]
        if libs:
            lib = ctypes.CDLL(libs[0])
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    info["blas_threads"] = int(fn())
                    break
    except OSError:
        pass
    return info


def environment() -> dict:
    import jsonschema
    import numpy as np

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": getattr(jsonschema, "__version__", None),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }
    env.update(blas_info())
    return env


def run_pass(workload, tracer=None) -> dict:
    """Issue the workload's ops once, traced when a tracer is given; the pass record."""
    import workloads

    if tracer is not None:
        tracer.install()
    try:
        _, failures, op_s = workloads.run_ops(workload, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    wall_s = sum(op_s)
    record = {
        "ops": len(workload.ops),
        "wall_s": wall_s,
        "op_s": op_s,
        "failures": [[i, msg] for i, fails in enumerate(failures) for msg in fails],
        "failed_ops": sum(1 for fails in failures if fails),
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "inputs": workload.describe(),
    }
    if tracer is not None:
        from tracing import layer_metrics

        record["counters"] = dict(tracer.counters)
        record["layers"] = layer_metrics(tracer.spans, tracer.counters, wall_s)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import jsonschema  # noqa: F401  set-up covers the imports a scenario run needs
    import numpy  # noqa: F401

    import framelab  # noqa: F401
    import workloads

    try:
        workload = workloads.make_workload(args.workload, args.seed, args.out / "reports" / args.workload)
    except KeyError:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    record = {"t_first_op": time.monotonic(), "ops": len(workload.ops)}
    if args.setup_only:
        record["env"] = environment()
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace_file is not None:
        from tracing import Tracer

        tracer = Tracer()
    record.update(run_pass(workload, tracer))
    if tracer is not None:
        args.trace_file.parent.mkdir(parents=True, exist_ok=True)
        args.trace_file.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "spans": tracer.span_records()})
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
