"""Spans and exact work counters around framelab's public functions.

Spans are recorded from the benchmark's side: each target function is
replaced, at every name a caller looks it up by, with a wrapper that records
(name, start, end, parent, op) and updates the target's counters.  The
wrappers are installed for one traced pass and removed afterwards.

Counters are exact and are computed from argument and return shapes only;
they never look inside a call.  Work that framelab does without crossing one
of these names (for example the kernel-pair blocks inside
``localization._mod2_cross``) is not visible here.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _eigh_counts(counters, args, kwargs, result):
    n = len(args[0])
    counters["finframe.jacobi_eigh.n3"] += n**3
    counters["finframe.jacobi_eigh.n_max"] = max(counters["finframe.jacobi_eigh.n_max"], n)


def _node_counts(name):
    def count(counters, args, kwargs, result):
        counters[name + ".nodes"] += int(result.node_count)

    return count


def _points_scanned(counters, args, kwargs, result):
    # bound method: args[0] is the measure; lattices and Lebesgue are closed-form
    measure = args[0]
    support = getattr(measure, "support", None)
    points = getattr(support, "points", None)
    if points is None:
        points = getattr(measure, "point_set", None)
        points = getattr(points, "points", None)
    counters["space.ball_mass.points_scanned"] += 0 if points is None else len(points)


def _atom_counts(counters, args, kwargs, result):
    counters["space.atoms_in_ball.atoms"] += len(result[0])


def _pair_counts(counters, args, kwargs, result):
    counters["kernels.normalized_cross.pairs"] += len(args[1]) * len(args[2])


def _ball_counts(counters, args, kwargs, result):
    sched = args[2] if len(args) > 2 else kwargs["sched"]
    counters["density.density.balls"] += len(sched.centers()) * len(sched.radii)


# (span name, bindings, counter hook).  A binding is "module:attr" or
# "module:Class.attr"; every binding of one original function shares a wrapper.
TARGETS = (
    ("finframe.jacobi_eigh", ("framelab.finframe:jacobi_eigh",), _eigh_counts),
    ("finframe.canonical_dual", ("framelab.finframe:canonical_dual",), None),
    ("finframe.comparison_residual", ("framelab.finframe:comparison_residual",), None),
    ("finframe.project", ("framelab.finframe:project",), None),
    (
        "localization.localization_defect",
        ("framelab.localization:localization_defect", "framelab.verify:localization_defect"),
        None,
    ),
    ("localization.double_tail", ("framelab.localization:double_tail",), None),
    ("localization.tail_sup", ("framelab.localization:tail_sup",), None),
    ("quadrature.integrate_ball", ("framelab.quadrature:integrate_ball",), _node_counts("quadrature.integrate_ball")),
    (
        "quadrature.integrate_complement",
        ("framelab.quadrature:integrate_complement", "framelab.localization:integrate_complement"),
        _node_counts("quadrature.integrate_complement"),
    ),
    (
        "space.ball_mass",
        (
            "framelab.space:CountingMeasure.ball_mass",
            "framelab.space:LebesgueMeasure.ball_mass",
            "framelab.space:AtomicMeasure.ball_mass",
        ),
        _points_scanned,
    ),
    (
        "space.atoms_in_ball",
        ("framelab.space:CountingMeasure.atoms_in_ball", "framelab.space:AtomicMeasure.atoms_in_ball"),
        _atom_counts,
    ),
    ("space.points_in_ball", ("framelab.space:PointSet.points_in_ball", "framelab.space:Lattice.points_in_ball"), None),
    (
        "kernels.normalized_cross",
        (
            "framelab.kernels:FockKernel.normalized_cross",
            "framelab.kernels:GaborGaussianKernel.normalized_cross",
            "framelab.kernels:PaleyWienerKernel.normalized_cross",
            "framelab.kernels:TabulatedKernel.normalized_cross",
        ),
        _pair_counts,
    ),
    # the package re-export framelab.density is the function, so the module
    # is reached through importlib, never through attribute access
    ("density.density", ("framelab.density:density", "framelab.verify:density"), _ball_counts),
    ("verify.run", ("framelab.verify:run",), None),
    ("verify.gram_truncation_study", ("framelab.verify:gram_truncation_study",), None),
    ("verify.theorem_main_table", ("framelab.verify:theorem_main_table",), None),
    ("verify.write_report", ("framelab.verify:write_report",), None),
)

COUNTERS = (
    "finframe.jacobi_eigh.n3",
    "finframe.jacobi_eigh.n_max",
    "quadrature.integrate_ball.nodes",
    "quadrature.integrate_complement.nodes",
    "space.ball_mass.points_scanned",
    "space.atoms_in_ball.atoms",
    "kernels.normalized_cross.pairs",
    "density.density.balls",
)

MODULES = ("space", "kernels", "quadrature", "finframe", "density", "localization", "verify")


def _resolve(binding: str):
    module_name, _, attr_path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span recorder: install() wraps TARGETS, uninstall() restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counters: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, self.clock(), None, parent, self.op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        for name, bindings, count in targets:
            wrappers = {}
            for binding in bindings:
                owner, attr = _resolve(binding)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original, count)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]


def covered_length(intervals) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed self time.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  ``spans`` holds [name, start, end, parent, op]
    records whose parent is an index into the same list.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children[index] if e > start and s < end]
        out[name] += (end - start) - covered_length(inside)
    return dict(out)


def layer_metrics(spans, counters, wall_s: float) -> dict[str, float]:
    """Per-function calls and self time, exact counters, and module shares of wall_s."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span[0]] += 1
    metrics: dict[str, float] = {}
    for name, _, _ in TARGETS:
        metrics[name + ".calls"] = calls.get(name, 0)
        metrics[name + ".self_s"] = selfs.get(name, 0.0)
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0)
    for module in MODULES:
        module_self = sum(v for k, v in selfs.items() if k.split(".")[0] == module)
        metrics[module + ".share"] = 100.0 * module_self / wall_s if wall_s > 0 else 0.0
    quad_s = selfs.get("quadrature.integrate_ball", 0.0) + selfs.get("quadrature.integrate_complement", 0.0)
    nodes = counters.get("quadrature.integrate_ball.nodes", 0)
    metrics["quadrature.nodes_per_s"] = nodes / quad_s if quad_s > 0 else 0.0
    return metrics
