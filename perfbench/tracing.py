"""Spans and counters at bloomlab's layer boundaries, installed from outside.

install() replaces the public functions at each layer boundary with timing
wrappers, on the names the calling module bound (a function imported with
`from .kernel import stirling2` is wrapped where analytics and occupancy
look it up). bloomlab itself is not modified on disk and knows nothing of
the tracer.

A span records its name, start, end, parent span, op id, self time (its
duration minus the time of its traced children) and whether it raised.
Spans are kept in memory and written out at the end of the run. Boundaries
called per item or per Stirling number are aggregated into a count and a
total time instead of one span per call.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, aggregate). "Class.method" patches the class.
BOUNDARIES = [
    ("bloomlab.cli", "main", "cli", False),
    ("bloomlab.analytics", "fpr_report", "analytics.fpr_report", False),
    ("bloomlab.analytics", "fpr_exact", "analytics.fpr_exact", False),
    ("bloomlab.analytics", "fpr_standard_exact", "analytics.fpr_standard_exact", False),
    ("bloomlab.analytics", "fpr_classic_exact", "analytics.fpr_classic_exact", False),
    ("bloomlab.analytics", "fpr_recursive", "analytics.fpr_recursive", False),
    ("bloomlab.analytics", "fpr_taylor", "analytics.fpr_taylor", False),
    ("bloomlab.analytics", "fpr_bounds", "analytics.fpr_bounds", False),
    ("bloomlab.analytics", "optimal_k", "analytics.optimal_k", False),
    ("bloomlab.analytics", "capacity_n_max", "analytics.capacity_n_max", False),
    ("bloomlab.analytics", "size_m_min", "analytics.size_m_min", False),
    ("bloomlab.analytics", "nabla_power_row", "kernel.nabla_power_row", False),
    ("bloomlab.analytics", "log2_fraction", "kernel.log2_fraction", True),
    ("bloomlab.analytics", "stirling2", "kernel.stirling2", True),
    ("bloomlab.analytics", "classic_mean_variance", "occupancy.classic_mean_variance", False),
    ("bloomlab.occupancy", "nabla_power_row", "kernel.nabla_power_row", False),
    ("bloomlab.occupancy", "stirling2", "kernel.stirling2", True),
    ("bloomlab.occupancy", "rho", "kernel.rho", True),
    ("bloomlab.montecarlo", "run_validation", "montecarlo.run_validation", False),
    ("bloomlab.montecarlo", "conjecture_scan", "montecarlo.conjecture_scan", False),
    ("bloomlab.montecarlo", "fpr_exact", "analytics.fpr_exact", False),
    ("bloomlab.montecarlo", "optimal_k", "analytics.optimal_k", False),
    ("bloomlab.montecarlo", "classic_pmf", "occupancy.classic_pmf", True),
    ("bloomlab.montecarlo", "committee_pmf", "occupancy.committee_pmf", True),
    ("bloomlab.montecarlo", "classic_mean_variance", "occupancy.classic_mean_variance", False),
    ("bloomlab.montecarlo", "committee_mean_variance", "occupancy.committee_mean_variance", False),
    ("bloomlab.montecarlo", "_chi2.sf", "scipy.chi2_sf", False),
    ("bloomlab.filters", "BloomFilter.insert", "filters.insert", True),
    ("bloomlab.filters", "BloomFilter.query", "filters.query", True),
    ("bloomlab.filters", "serialize", "filters.serialize", False),
    ("bloomlab.filters", "deserialize", "filters.deserialize", False),
    ("bloomlab.filters", "filter_union", "filters.union", False),
    ("bloomlab.filters", "filter_intersect", "filters.intersect", False),
    ("bloomlab.filters", "estimate_cardinality", "filters.estimate_cardinality", False),
    ("bloomlab.filters", "estimate_n", "estimators.estimate_n", False),
]

_tracer: "Tracer | None" = None


def phase(label: str | None) -> None:
    """Label the per-item calls that follow (query_present / query_absent);
    a no-op when no tracer is installed."""
    if _tracer is not None:
        _tracer.label = label


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # open spans: [span id, name, child seconds, extra]
        self.stack: list[list] = []
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.stats: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.op_id: int | None = None
        self.label: str | None = None
        self._next = 0

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn, hook=None, collect: bool = False):
        """Full span per call; with collect, frame[3] gathers child data."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self.stack[-1] if self.stack else None
            frame = [sid, name, 0.0, [] if collect else None]
            self.stack.append(frame)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.spans.append(
                    (sid, name, t0, t1, parent[0] if parent else None, self.op_id,
                     t1 - t0 - frame[2], failed)
                )
                if parent is not None:
                    parent[2] += t1 - t0
                if hook is not None and not failed:
                    h0 = perf_counter()
                    hook(self, frame, parent, args, result)
                    if parent is not None:  # tracer bookkeeping is not the parent's work
                        parent[2] += perf_counter() - h0

        return wrapper

    def aggregate(self, name: str, fn):
        query = name == "filters.query"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                key = f"filters.{self.label or 'query_absent'}" if query else name
                a = self.agg[key]
                a[0] += 1
                a[1] += dur
                if self.stack:
                    self.stack[-1][2] += dur

        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op, self_s, failed in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                    "op": op, "self_s": self_s, "error": failed,
                }) + "\n")
            for name, (calls, total) in sorted(self.agg.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls, "total_s": total}) + "\n")


# -- hooks: counters measured where the work happens ----------------------


def _max_bits(tr, frame, parent, args, row):
    tr.stats["kernel.nabla_power_row.max_bits"] = max(
        tr.stats["kernel.nabla_power_row.max_bits"], max(abs(v).bit_length() for v in row)
    )


def _exact_eval(tr, frame, parent, args, f):
    if parent is not None and parent[1] == "analytics.optimal_k":
        parent[3].append((args[2], f))


def _optimal_k_done(tr, frame, parent, args, result):
    evals = frame[3]
    m = args[0]
    tr.stats["optimal_k.evals"] += len(evals)
    tr.stats["optimal_k.candidates"] += m
    # replay the scan order (increasing k) to count evaluations that
    # improved the best rate found so far
    best = None
    for _, f in sorted(evals, key=lambda kv: kv[0]):
        if best is None or f < best:
            best = f
            tr.stats["optimal_k.improving"] += 1
    if parent is not None and parent[1] in ("analytics.capacity_n_max", "analytics.size_m_min"):
        tr.stats[f"{parent[1]}.optimal_k_calls"] += 1


def _validation_trials(tr, frame, parent, args, rows):
    tr.stats["run_validation.trials"] += sum(c.trials for c in args[0])


def _scan_cells(tr, frame, parent, args, report):
    tr.stats["conjecture_scan.cells"] += len(report.ordering)


HOOKS = {
    "kernel.nabla_power_row": _max_bits,
    "analytics.fpr_exact": _exact_eval,
    "analytics.optimal_k": _optimal_k_done,
    "montecarlo.run_validation": _validation_trials,
    "montecarlo.conjecture_scan": _scan_cells,
}


class _Sf:
    """Stands in for scipy's chi2 object with a traced sf()."""

    def __init__(self, dist, sf):
        self._dist = dist
        self.sf = sf

    def __getattr__(self, attr):
        return getattr(self._dist, attr)


def install(tr: Tracer) -> list[tuple]:
    """Wrap every boundary that exists and return what uninstall() needs.

    A name none of whose bindings exist is recorded as absent, so a removed
    function is reported as absent rather than as 0."""
    global _tracer
    undo, installed = [], set()
    for module_name, attr, name, aggregate in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = getattr(owner, fn_name, None) if owner is not None else None
        if fn is None:
            continue
        installed.add(name)
        if aggregate:
            wrapped = tr.aggregate(name, fn)
        else:
            collect = name == "analytics.optimal_k"
            wrapped = tr.span(name, fn, HOOKS.get(name), collect)
        if owner_name == "_chi2":
            undo.append((module, "_chi2", owner))
            setattr(module, "_chi2", _Sf(owner, wrapped))
        else:
            undo.append((owner, fn_name, fn))
            setattr(owner, fn_name, wrapped)
    tr.absent = {name for _, _, name, _ in BOUNDARIES} - installed
    _tracer = tr
    return undo


def uninstall(undo: list[tuple]) -> None:
    """Put back what install() replaced, last first."""
    global _tracer
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    _tracer = None
