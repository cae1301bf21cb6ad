"""framelab benchmark: one workload at one seed, measured for --seconds seconds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: scenarios, tail-law, oracle, pointset-density (see workloads.py
for why each exists).  A pass runs the workload's ops once, closed-loop, in a
fresh worker process; passes repeat while the next one is expected to end
within S seconds (at least one pass), and each metric is the median over
the run's passes.  With --trace 0 the result holds
the end-to-end metrics (wall_s, setup_s, peak_rss_mib, ok_share); with
--trace 1 it alternates untraced and traced passes and holds the per-layer
metrics, including trace.overhead_s.  Every op's output is checked against a
known answer; the exact work counters of traced passes must repeat across
runs of the same seed and code.

The last line of standard output is the result JSON, the line before it the
run record (seed, generated sizes, versions, BLAS threads, commit), which is
also written under perfbench/out/ with the trace spans.  The script exits 2
when the framelab sources are not beside it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 9  # set-up is short and noisy: report the median of several
RUN_BUDGET_S = 170.0  # a run must end within 180 s
COUNTER_NOTE = "exact counts computed from argument and return shapes of the wrapped calls"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "ok_share": "ratio"}


class WorkerError(RuntimeError):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "%"
    return "count"


def code_digest() -> str:
    """Digest of the framelab sources and this benchmark, keying stored counters."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "framelab").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def spawn(args, extra, timeout: float) -> tuple[dict, float]:
    """Run one worker; returns (its JSON record, its spawn time on CLOCK_MONOTONIC)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", str(OUT),
    ] + extra
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerError(f"worker exited with code {proc.returncode}", proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def check_counters(traced: list[dict], key: str) -> list[str]:
    """Counters must repeat exactly across passes and runs of one seed and code."""
    problems = []
    first = traced[0]["counters"]
    for rec in traced[1:]:
        if rec["counters"] != first:
            problems.append(f"counters differ between passes: {first} vs {rec['counters']}")
    stored = OUT / "counters" / f"{key}.json"
    if stored.is_file():
        previous = json.loads(stored.read_text())
        if previous != first:
            problems.append(f"counters differ from an earlier run: {previous} vs {first}")
    else:
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(json.dumps(first, sort_keys=True))
    return problems


def summarize(untraced: list[dict], traced: list[dict], setups: list[float], trace: int) -> tuple[dict, dict]:
    """The result JSON of a run from its pass records, plus fail_share and problems."""
    passes = untraced + traced
    attempted = sum(rec["ops"] for rec in passes)
    failed = sum(rec["failed_ops"] for rec in passes)
    problems = [f"pass {i} op {op}: {msg}" for i, rec in enumerate(passes) for op, msg in rec["failures"]]
    untraced_wall = statistics.median(rec["wall_s"] for rec in untraced)
    if trace:
        metrics = {name: statistics.median(rec["layers"][name] for rec in traced) for name in traced[0]["layers"]}
        traced_wall = statistics.median(rec["wall_s"] for rec in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["process.cpu_s"] = statistics.median(rec["cpu_s"] for rec in untraced)
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": untraced_wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(rec["peak_rss_mib"] for rec in untraced),
            "ok_share": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, {"fail_share": failed / attempted, "problems": problems}


def measure(args) -> tuple[dict, dict]:
    start = time.monotonic()

    def left() -> float:
        return RUN_BUDGET_S - (time.monotonic() - start)

    # the first worker compiles bytecode in a fresh checkout; users pay that once
    warm, _ = spawn(args, ["--setup-only"], left())
    setups, untraced, traced = [], [], []

    def one_pass(trace: bool):
        extra = ["--trace-file", str(OUT / f"trace-{args.workload}-seed{args.seed}.json")] if trace else []
        rec, spawned = spawn(args, extra, left())
        setups.append(rec["t_first_op"] - spawned)
        (traced if trace else untraced).append(rec)

    # at least one pass; no further pass that would end after --seconds
    loop_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        one_pass(False)
        if args.trace:
            one_pass(True)
        step = time.monotonic() - t0
        elapsed = time.monotonic() - loop_start
        if elapsed + step > args.seconds or left() < 1.5 * step:
            break
    while len(setups) < SETUP_SAMPLES and left() > 10.0:
        rec, spawned = spawn(args, ["--setup-only"], left())
        setups.append(rec["t_first_op"] - spawned)

    result, summary = summarize(untraced, traced, setups, args.trace)
    digest = code_digest()
    if traced:
        problems = check_counters(traced, f"{args.workload}-seed{args.seed}-{digest[:16]}")
        summary["problems"] += problems
        result["correct"] = result["correct"] and not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": untraced[0]["inputs"],
        "env": warm["env"],
        "git_commit": git_commit(),
        "code_sha256": digest,
        "loop": "closed, one client in one process",
        "passes": {
            "wall_s": [rec["wall_s"] for rec in untraced],
            "traced_wall_s": [rec["wall_s"] for rec in traced],
            "op_s": [rec["op_s"] for rec in untraced],
            "setup_s": setups,
        },
        "fail_share": summary["fail_share"],
        "problems": summary["problems"][:50],
        "counters": traced[0]["counters"] if traced else None,
        "counters_note": COUNTER_NOTE,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "framelab" / "__init__.py").is_file():
        print(f"perfbench: no framelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = measure(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
