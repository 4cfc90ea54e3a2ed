"""bloomlab's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; bloomlab is imported from its src/. The
run walks op lists drawn from --seed, a fresh one per pass, in a closed loop
(one client, no worker pool) until --seconds of op time are spent, checks
every output, and prints the metrics. Times are reported at a reference
machine speed, measured by calibrations around every op (see speed.py);
the raw times are printed beside them. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 untraced and traced passes
alternate and the metrics are the per-layer ones (see NOTES.md). Exits 2
without a result when the checkout has no bloomlab.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 6  # fresh interpreters per run; setup_s is their median
TRACE_DIR = ".bench_build"
REF_DIGITS = 16  # hex digits of each op's digest kept in reference.json


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest() -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


# --------------------------------------------------------------------------
# set-up: fresh interpreters
# --------------------------------------------------------------------------


def probe_setup(workload: str, seed: int, scale: float, importtime: bool) -> dict:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(HERE, "setup_probe.py"), "--workload", workload,
            "--seed", str(seed), "--scale", str(scale)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        fail(f"set-up probe failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if importtime:
        result.update(parse_importtime(out.stderr))
    calibration = result.pop("calibration_s")
    scaled = {key: speed.scaled(value, calibration) for key, value in result.items()}
    scaled["raw_setup_s"] = result["setup_s"]
    return scaled


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of bloomlab, and of the outermost scipy
    modules (scipy is imported beneath bloomlab.montecarlo)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    bloomlab_s = scipy_s = 0.0
    parent_at: dict[int, str] = {}
    # importtime prints children before their parent; walk backwards so each
    # module's parent is seen first
    for depth, name, cumulative in reversed(rows):
        parent_at[depth] = name
        parent = parent_at.get(depth - 1, "") if depth else ""
        if depth == 0 and name.split(".")[0] == "bloomlab":
            bloomlab_s += cumulative
        elif name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += cumulative
    return {"import_bloomlab_s": bloomlab_s, "import_scipy_s": scipy_s}


# --------------------------------------------------------------------------
# the closed loop
# --------------------------------------------------------------------------


def new_state() -> dict:
    return {"passes": 0, "digests": {}, "pass0": {}, "tracebacks": set()}


class Phase:
    """Latencies and outcomes of the passes made in one timed phase."""

    def __init__(self) -> None:
        self.latencies: list[list[float]] = []  # per pass, one per op
        # per pass, one per op: the faster calibration just before and after it
        self.calibrations: list[list[float]] = []
        self.busy = 0.0  # op time over all passes
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.wrong_exact = 0
        self.failures: dict[str, str] = {}
        self.recursive_imprecise = 0


def run_pass(build, state: dict, ph: Phase, tracer=None) -> None:
    """One pass, added to ph. build(pass_no) gives the pass's workload; its
    inputs are drawn outside the timed calls.

    state carries across phases the pass counter and the per-op digests, so
    an op whose inputs recur is compared with their first output, and pass
    0's digests make the run's exact-output digest."""
    import workloads as W

    pass_no = state["passes"]
    workload = build(pass_no)
    reference = W.load_reference().get("digests", {}).get(workload.name, {})
    latencies, calibrations = [], []
    before = speed.calibrate()
    for i, op in enumerate(workload.ops()):
        if tracer is not None:
            tracer.op_id = i
        error = None
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a traceback: the op failed
            error_type = type(exc).__name__
            error = f"{error_type}: {exc}"
            tb = traceback.format_exc()
        t1 = perf_counter()
        if tracer is not None:
            tracer.op_id = None
        after = speed.calibrate()
        latencies.append(t1 - t0)
        calibrations.append(min(before, after))
        before = after
        ph.attempted += 1
        reasons = []
        wrong_exact = False
        if error is not None:
            reasons.append(f"traceback {error}")
            if error_type not in state["tracebacks"]:
                state["tracebacks"].add(error_type)
                print(f"# traceback in {op.key}:\n# " + tb.strip().replace("\n", "\n# "))
        else:
            try:
                outcome = op.check(result)
            except Exception as exc:  # an output the check cannot read is wrong
                outcome = W.Outcome(exact={"unreadable": type(exc).__name__},
                                    wrong_exact=[f"unreadable output ({exc})"])
            if outcome.exact is not None:
                d = W.digest(outcome.exact)
                if pass_no == 0:
                    state["pass0"][op.key] = d
                if state["digests"].setdefault(op.key, d) != d:
                    outcome.wrong_exact.append("exact output differs between passes")
                if op.key in reference and reference[op.key] != d[:REF_DIGITS]:
                    outcome.wrong_exact.append("exact output differs from the recorded reference")
            reasons += outcome.wrong_exact + outcome.wrong_approx
            wrong_exact = bool(outcome.wrong_exact)
            ph.recursive_imprecise += any(r.startswith("recursive") for r in outcome.wrong_approx)
        if reasons:
            ph.failed += 1
            ph.wrong_exact += wrong_exact
            ph.failures.setdefault(op.key, "; ".join(reasons))
    ph.latencies.append(latencies)
    ph.calibrations.append(calibrations)
    ph.busy += sum(latencies)
    ph.passes += 1
    state["passes"] += 1


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method, as statistics.quantiles)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(ph: Phase) -> dict:
    """Throughput and latency percentiles over every op of every pass, each
    op's time scaled to the reference speed by the calibrations around it.
    The raw_ figures are the same without scaling; they are printed, not
    reported."""
    raw = [t for lat in ph.latencies for t in lat]
    lat = [
        speed.scaled(t, c)
        for ts, cs in zip(ph.latencies, ph.calibrations)
        for t, c in zip(ts, cs)
    ]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": quantile(lat, 50) * 1000,
        "op_p90_ms": quantile(lat, 90) * 1000,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": quantile(raw, 50) * 1000,
        "raw_op_p90_ms": quantile(raw, 90) * 1000,
    }


# --------------------------------------------------------------------------
# per-layer metrics from the trace
# --------------------------------------------------------------------------


def per_layer(tracer, ph: Phase, setup: dict, overhead: dict) -> dict:
    """Per-pass layer numbers: counts and seconds are per pass over the op
    list, so they compare across commits whatever the number of passes."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for _sid, name, _t0, _t1, _parent, _op, s, _failed in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
    taylor_failures = sum(1 for sp in tracer.spans if sp[1] == "analytics.fpr_taylor" and sp[7])
    total_s: dict[str, float] = {}
    for _sid, name, t0, t1, *_ in tracer.spans:
        total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
    for name, (n, t) in tracer.agg.items():
        calls[name] = n
        self_s[name] = t
    passes = ph.passes
    st = tracer.stats
    out: dict[str, tuple] = {}

    def put(metric: str, value, unit: str, boundary: str | None = None) -> None:
        if boundary is not None and boundary in tracer.absent:
            value = None
        out[metric] = (value, unit)

    def rate(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name in ("kernel.nabla_power_row", "kernel.log2_fraction", "kernel.stirling2",
                 "kernel.rho", "occupancy.classic_pmf", "occupancy.committee_pmf",
                 "estimators.estimate_n", "analytics.optimal_k"):
        put(f"{name}.calls", calls.get(name, 0) / passes, "count", name)
        put(f"{name}.self_s", self_s.get(name, 0.0) / passes, "s", name)
    put("kernel.nabla_power_row.max_bits", st["kernel.nabla_power_row.max_bits"], "bits",
        "kernel.nabla_power_row")
    put("analytics.fpr_exact.calls", calls.get("analytics.fpr_exact", 0) / passes, "count",
        "analytics.fpr_exact")
    for name in ("analytics.fpr_standard_exact", "analytics.fpr_classic_exact",
                 "analytics.fpr_recursive", "analytics.fpr_taylor", "analytics.fpr_bounds",
                 "occupancy.classic_mean_variance", "occupancy.committee_mean_variance",
                 "filters.serialize", "filters.deserialize", "filters.union",
                 "filters.intersect", "montecarlo.run_validation",
                 "montecarlo.conjecture_scan", "scipy.chi2_sf", "cli"):
        put(f"{name}.self_s", self_s.get(name, 0.0) / passes, "s", name)
    k = "analytics.optimal_k"
    put(f"{k}.exact_evals_per_call", rate(st["optimal_k.evals"], calls.get(k, 0)), "count", k)
    put(f"{k}.pruned_ratio",
        rate(st["optimal_k.candidates"] - st["optimal_k.evals"], st["optimal_k.candidates"]),
        "ratio", k)
    put(f"{k}.useful_eval_ratio", rate(st["optimal_k.improving"], st["optimal_k.evals"]), "ratio", k)
    for name in ("analytics.capacity_n_max", "analytics.size_m_min"):
        put(f"{name}.optimal_k_calls", st[f"{name}.optimal_k_calls"] / passes, "count", name)
    put("analytics.fpr_taylor.failures", taylor_failures / passes, "count", "analytics.fpr_taylor")
    put("analytics.fpr_recursive.imprecise", ph.recursive_imprecise / passes, "count",
        "analytics.fpr_recursive")
    for name in ("filters.insert", "filters.query_present", "filters.query_absent"):
        n, t = tracer.agg.get(name, (0, 0.0))
        boundary = "filters.query" if "query" in name else name
        put(f"{name}.items_per_s", rate(n, t), "1/s", boundary)
    put("montecarlo.run_validation.trials_per_s",
        rate(st["run_validation.trials"], total_s.get("montecarlo.run_validation", 0.0)),
        "1/s", "montecarlo.run_validation")
    put("montecarlo.conjecture_scan.cells_per_s",
        rate(st["conjecture_scan.cells"], total_s.get("montecarlo.conjecture_scan", 0.0)),
        "1/s", "montecarlo.conjecture_scan")
    put("setup.import_bloomlab_s", setup["import_bloomlab_s"], "s")
    put("setup.import_scipy_s", setup["import_scipy_s"], "s")
    put("setup.inputs_s", setup["inputs_s"], "s")
    for name, (value, unit) in overhead.items():
        put(name, value, unit)
    return out


# --------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["plan", "filter-rw", "verify"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the self-test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "bloomlab", "__init__.py")):
        fail("no src/bloomlab here; run from the root of a bloomlab checkout")
    sys.path.insert(0, os.path.abspath("src"))
    env = environment(args.seed)

    import bloomlab.cli  # noqa: F401
    import tracing
    import workloads as W

    def build(pass_no: int):
        return W.WORKLOADS[args.workload](args.seed, args.scale, pass_no)

    # set-up is timed in fresh interpreters, one after each pass, so the
    # probes meet the machine at different moments of the run
    setups: list[dict] = []

    def probe() -> None:
        if len(setups) < SETUP_RUNS:
            setups.append(probe_setup(args.workload, args.seed, args.scale,
                                      importtime=bool(args.trace)))

    state = new_state()
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops/pass={len(build(0).ops())}")

    if args.trace:
        # untraced and traced passes alternate, so both see the same load
        # on the machine and the difference is the tracing overhead
        plain, ph, tracer = Phase(), Phase(), tracing.Tracer()
        while plain.busy + ph.busy < args.seconds or not ph.passes:
            run_pass(build, state, plain)
            undo = tracing.install(tracer)
            try:
                run_pass(build, state, ph, tracer)
            finally:
                tracing.uninstall(undo)
            probe()
        phases = [plain, ph]
    else:
        ph = Phase()
        while ph.busy < args.seconds or not ph.passes:
            run_pass(build, state, ph)
            probe()
        phases = [ph]
    while len(setups) < SETUP_RUNS:
        probe()
    setup = {key: statistics.median(s[key] for s in setups) for key in setups[0]}

    if args.trace:
        untraced, traced = end_to_end(plain), end_to_end(ph)
        overhead = {
            "trace.overhead.ops_per_s": (traced["ops_per_s"] - untraced["ops_per_s"], "1/s"),
            "trace.overhead.op_p50_ms": (traced["op_p50_ms"] - untraced["op_p50_ms"], "ms"),
            "trace.overhead.op_p90_ms": (traced["op_p90_ms"] - untraced["op_p90_ms"], "ms"),
        }
        os.makedirs(TRACE_DIR, exist_ok=True)
        spans_path = os.path.join(TRACE_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans_path)
        metrics = per_layer(tracer, ph, setup, overhead)
    else:
        e2e = end_to_end(ph)
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "ops_per_s": (e2e["ops_per_s"], "1/s"),
            "op_p50_ms": (e2e["op_p50_ms"], "ms"),
            "op_p90_ms": (e2e["op_p90_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong_exact = sum(p.wrong_exact for p in phases)
    env["loadavg_end"] = os.getloadavg()
    print("# env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        n = len(ph.latencies[0])
        samples = f"{ph.attempted} ops, {ph.passes} passes of {n}"
        print(f"# setup_s      {setup['setup_s']:.4f} s   (median of {len(setups)} fresh interpreters;"
              f" raw {setup['raw_setup_s']:.4f} s; inputs {setup['inputs_s']:.4f} s)")
        print(f"# ops_per_s    {e2e['ops_per_s']:.4f} 1/s ({samples}; raw {e2e['raw_ops_per_s']:.4f})")
        print(f"# op_p50_ms    {e2e['op_p50_ms']:.4f} ms  ({samples}; raw {e2e['raw_op_p50_ms']:.4f})")
        print(f"# op_p90_ms    {e2e['op_p90_ms']:.4f} ms  ({samples}, {ph.attempted - int(0.9 * ph.attempted)}"
              f" beyond; raw {e2e['raw_op_p90_ms']:.4f})")
        print(f"# error_rate   {failed / attempted:.6f} ratio (failed {failed} of {attempted} ops)")
        print(f"# peak_rss_mb  {metrics['peak_rss_mb'][0]:.2f} MB")
        cals = [c for cs in ph.calibrations for c in cs]
        print(f"# calibration  {min(cals) * 1000:.4f} / {statistics.median(cals) * 1000:.4f} ms"
              f" fastest / median; reference {speed.REFERENCE_S * 1000:g} ms")
    else:
        spans = len(tracer.spans)
        print(f"# trace: {spans} spans and {len(tracer.agg)} aggregates in {spans_path}; "
              f"absent boundaries: {sorted(tracer.absent) or 'none'}")
        for name, (value, unit) in metrics.items():
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"# {name:<48} {shown} {unit}")
    pass_digest = W.digest(sorted(state["pass0"].items()))
    print(f"# exact-output digest {args.workload} seed={args.seed} pass 0: {pass_digest}")
    for key, reason in sorted(ph.failures.items()):
        print(f"# failed: {key}: {reason}")

    result = {
        "correct": wrong_exact == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
