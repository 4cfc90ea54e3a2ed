"""Self-test of the benchmark: tiny runs of every workload, and every
output check shown a wrong answer.

    python3 perfbench/selftest.py

Run from the root of a checkout. Exits 1 on the first problem found.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from bloomlab.filters import BloomFilter  # noqa: E402
from bloomlab.montecarlo import ValidationRow  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAILED: {message}")
        sys.exit(1)


def tiny_runs() -> None:
    """Every metric named in BENCHMARK.json comes out of a tiny run."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
                 "--scale", "0.05"],
                capture_output=True, text=True, timeout=600,
            )
            expect(out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}: "
                   f"{out.stderr[-500:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{workload} trace={trace}: incorrect outputs")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            got = set(result["metrics"])
            expect(got == wanted[trace], f"{workload} trace={trace}: metrics differ: "
                   f"missing {sorted(wanted[trace] - got)}, extra {sorted(got - wanted[trace])}")
            for name, metric in result["metrics"].items():
                expect(isinstance(metric["value"], (int, float)),
                       f"{workload}: {name} is {metric['value']!r}")
            print(f"selftest: {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")


def cli_result(payload) -> tuple:
    return 0, json.dumps(payload)


def checks_fire() -> None:
    """Each check reports a wrong answer when it is handed one."""
    # plan: exact rate outside [L, U], pinned f_C, recursive tolerance
    ok = W._check_analyze(64, 4, 11, "classic")(
        cli_result({"exact_fraction": "1/2", "recursive": 0.5}))
    expect(any("[L, U]" in r for r in ok.wrong_exact), "analyze [L, U] check silent")
    expect(any("4.85097" in r for r in ok.wrong_exact), "pinned f_C(64,4,11) check silent")
    f = W.PAPER_F_C_64_4_11
    res = W._check_analyze(1000, 1, 999, "standard")(
        cli_result({"exact_fraction": f"{f.numerator}/{f.denominator}", "recursive": 1e-3}))
    expect(any(r.startswith("recursive") for r in res.wrong_approx), "recursive check silent")
    res = W._check_optimize(64, 4)(cli_result([
        {"variant": "classic", "k_exact": 10}, {"variant": "standard", "k_exact": 10}]))
    expect(res.wrong_exact, "paper k* check silent")
    expect(W._check_optimize(64, 4)((1, "")).exact == {"exit": 1},
           "documented exit code not passed through as an answer")

    # filter-rw
    fr = W.FilterRW(5, 0.01)
    ops = fr.ops()
    st = W._FilterState(fr.plans[1])  # m=655, k=32: one query batch
    st.filt.count = 10
    res = W._check_query(st, 0)((len(fr.plans[1].present[0]) - 1, 0))
    expect(res.wrong_exact, "false-negative check silent")
    st.absent_hits, st.expected_fp, st.var_fp = 100, 1.0, 1.0
    expect(W._check_estimate(st)(0.0).wrong_approx, "absent-probe FPR check silent")
    other = BloomFilter(st.filt.params)
    other.insert(b"not in the filter")
    expect(W._check_roundtrip(st)((b"", other)).wrong_exact, "round-trip check silent")
    st.filt.insert(b"x")
    expect(W._check_union(st)(BloomFilter(st.filt.params)).wrong_exact, "union check silent")
    expect(W._check_intersect(st)(other).wrong_exact, "intersection check silent")
    vectors = W.hash_vectors()
    vectors["index_stream"][0] = vectors["index_stream"][0][::-1]
    expect(W._check_hash_vectors(vectors).wrong_exact, "pinned hash vector check silent")
    expect(not W._check_hash_vectors(W.hash_vectors()).wrong_exact,
           "pinned hash vectors differ from reference.json")

    # verify
    row = ValidationRow(m=16, n=3, k=2, variant="standard", exact=0.1, empirical=0.3,
                        std_err=0.01, z_score=20.0, mean_exact=5.0, mean_empirical=5.0,
                        mean_z=0.0, chi2_p=1e-9)
    config = W.montecarlo.TrialConfig(
        params=W.FilterParams(16, 2, W.FilterVariant.STANDARD, 1), n=3, trials=20, probes=1)
    res = W._check_validation(config)([row])
    expect(not res.wrong_approx, "a miss that fresh trials do not repeat counted as failed")
    real = W.montecarlo.run_validation
    try:  # a sampler that is always off: the fresh trials miss too
        W.montecarlo.run_validation = lambda configs, workers: [row]
        res = W._check_validation(config)([row])
    finally:
        W.montecarlo.run_validation = real
    expect(len(res.wrong_approx) == 2, "z-score / chi-square checks silent")

    class Report:
        ordering = [type("Row", (), {"m": 26, "n": 12})()]

        @staticmethod
        def to_csv():
            return "header\nordering,26,12,1,1,1.0833,1.5018,1\n"

    expect(W._check_scan(Report()).wrong_exact, "conjecture-scan row check silent")
    expect(W.committed_scan_rows()[(26, 12)].endswith(",0"),
           "the (26, 12) violation is missing from the committed scan")

    # every pass draws new inputs; only the fixed ops recur
    for cls in W.WORKLOADS.values():
        keys = [{op.key for op in cls(3, 0.05, pass_no).ops()} for pass_no in (0, 1)]
        common = keys[0] & keys[1]
        expect(len(common) <= 6, f"{cls.name}: passes 0 and 1 share {len(common)} ops")

    # the runner: a traceback fails the op; a digest unlike the reference
    # or unlike the first output for the same inputs is a wrong exact output
    class Workload:
        name = "plan"
        calls = 0

        def ops(self):
            def boom():
                raise OverflowError("boom")

            def changing():
                Workload.calls += 1
                return Workload.calls

            return [
                W.Op("raises", boom, lambda r: W.Outcome()),
                W.Op("changes", changing, lambda r: W.Outcome(exact=r)),
                W.Op("optimize --m 64 --n 4 --format json", lambda: 0,
                     lambda r: W.Outcome(exact={"not": "the reference"})),
            ]

    state = run.new_state()
    ph = run.Phase()
    run.run_pass(lambda pass_no: Workload(), state, ph)
    run.run_pass(lambda pass_no: Workload(), state, ph)
    expect(ph.failures.get("raises", "").startswith("traceback"), "traceback not counted")
    expect("between passes" in ph.failures.get("changes", ""), "pass-to-pass digest check silent")
    expect("reference" in ph.failures.get("optimize --m 64 --n 4 --format json", ""),
           "reference digest check silent")
    # the reference mismatch in both passes, the changed output in the second
    expect(ph.wrong_exact == 3, f"wrong exact outputs counted {ph.wrong_exact}, want 3")
    print(f"selftest: every check fired ({len(ops)} filter-rw ops built at scale 0.01)")


def main() -> None:
    if not os.path.isfile(os.path.join("src", "bloomlab", "__init__.py")):
        sys.exit("selftest: run from the root of a bloomlab checkout")
    checks_fire()
    tiny_runs()
    print("selftest: ok")


if __name__ == "__main__":
    main()
