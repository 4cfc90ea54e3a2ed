"""The three benchmark workloads: op lists built from a seed, and the checks
that decide whether each op's output is right.

A workload is built from its seed and a pass number: every pass of a run
walks a fresh op list drawn from (seed, pass), so no op's inputs repeat from
pass to pass and a cache keyed by inputs gains nothing that a caller with new
inputs would not. Only the fixed paper requests, the (26, 12) scan cell and
the pinned hash vectors recur in every pass. Building pass 0 is the set-up
the benchmark times. Filter-rw ops act on filters built from empty in their
pass.

An op returns an Outcome: its exact values (hashed into the digest), the
failures of checks that concern exact values (these make a run incorrect),
and the failures of checks on approximate or statistical values (these only
count the op as failed).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb
from typing import Any, Callable

from bloomlab import cli, filters, montecarlo
from bloomlab.filters import BloomFilter, FilterParams, FilterVariant

from tracing import phase

LN2 = math.log(2)
GOLDEN = (math.sqrt(5) - 1) / 2
SILVER = math.sqrt(2) - 1
DEFAULT_SEED = 1
# The invariants suite compares the recursive backend to the exact rate at
# this relative tolerance.
RECURSIVE_RTOL = 5e-7
# Highest load ratio m/n drawn. Beyond it one optimal_k call can outlast a
# run: 9.7 s at (m=512, n=1) and 137 s at (1024, 1) on a 2-CPU machine.
MAX_M_PER_N = 128
PAPER_K = {  # (m, n) -> (k*_standard, k*_classic)
    (64, 4): (10, 9),
    (1000, 20): (34, 33),
    (1024, 5): (133, 124),
}
PAPER_F_C_64_4_11 = Fraction(485097, 10**9)  # printed to 6 digits


@dataclass
class Outcome:
    """What one op produced and what the checks found wrong with it."""

    exact: Any = None  # JSON-serialisable exact values, hashed into the digest
    wrong_exact: list[str] = field(default_factory=list)
    wrong_approx: list[str] = field(default_factory=list)


@dataclass
class Op:
    key: str  # identifies the inputs; reference digests are looked up by it
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def digest(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def spread(rng: random.Random, count: int, step: float) -> list[float]:
    """count points in [0, 1): point i sits at 0.5 + i * step (mod 1), moved
    by the seed within a quarter of a cell (1/count) either way.

    step = 1/count gives an even grid; step = GOLDEN a Kronecker sequence,
    which pairs evenly with an even grid on a second axis. Every draw is
    still a seeded choice, but the set of values, and so the work of a pass
    and its percentiles, stays nearly the same from seed to seed.
    """
    return [(0.5 + i * step + (rng.random() - 0.5) / (2 * count)) % 1.0 for i in range(count)]


def log_uniform_int(u: float, lo: int, hi: int) -> int:
    """Maps u in [0, 1) to an int log-uniform on [lo, hi]."""
    a, b = math.log2(lo), math.log2(hi + 1)
    return min(hi, int(2 ** (a + u * (b - a))))


# --------------------------------------------------------------------------
# plan: analyze / optimize requests through the CLI entry point
# --------------------------------------------------------------------------


def run_cli(args: list[str]) -> tuple[int, str]:
    """Invoke `bloomlab <args>` in-process; (exit code, stdout).

    A documented exit code comes back as a value; any other exception is a
    traceback and propagates to the op runner.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["bloomlab", *args]
    code = 0
    try:
        with redirect_stdout(out), redirect_stderr(err):
            cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    return code, out.getvalue()


@functools.lru_cache(maxsize=None)
def _lower_upper(m: int, n: int, k: int) -> tuple[Fraction, Fraction]:
    """The L and U bounds from their closed forms, computed independently of
    bloomlab: L = nabla^k[x^(nk)]_m / m^(nk), U = (1 - ((m-k)/m)^n)^k."""
    nk = n * k
    lower = sum((-1) ** j * comb(k, j) * (m - j) ** nk for j in range(k + 1))
    upper = (1 - Fraction(m - k, m) ** n) ** k
    return Fraction(lower, m**nk), upper


def _check_analyze(m: int, n: int, k: int, variant: str):
    def check(result) -> Outcome:
        code, text = result
        if code != 0:
            return Outcome(exact={"exit": code})
        payload = json.loads(text)
        num, den = payload["exact_fraction"].split("/")
        exact = Fraction(int(num), int(den))
        res = Outcome(exact={"exit": 0, "exact_fraction": payload["exact_fraction"]})
        if 1 <= k <= (m - 1) / 2:
            lower, upper = _lower_upper(m, n, k)
            if not lower <= exact <= upper:
                res.wrong_exact.append("exact rate outside [L, U]")
        if (m, n, k, variant) == (64, 4, 11, "classic"):
            if abs(exact - PAPER_F_C_64_4_11) > Fraction(5, 10**10):
                res.wrong_exact.append("f_C(64,4,11) != 4.85097e-04")
        rec = payload["recursive"]
        if exact and abs(Fraction(rec) - exact) > RECURSIVE_RTOL * exact:
            res.wrong_approx.append(
                f"recursive {rec:.6e} vs exact {float(exact):.6e}"
            )
        return res

    return check


_EXACT_KEYS = ("variant", "k_exact", "n_max_exact", "m_min_exact")


def _check_optimize(m: int | None, n: int | None):
    def check(result) -> Outcome:
        code, text = result
        if code != 0:
            return Outcome(exact={"exit": code})
        payload = json.loads(text)
        rows = payload if isinstance(payload, list) else [payload]
        res = Outcome(
            exact={
                "exit": 0,
                "rows": [{k: r[k] for k in _EXACT_KEYS if k in r} for r in rows],
            }
        )
        if (m, n) in PAPER_K:
            got = {r["variant"]: r["k_exact"] for r in rows}
            want_s, want_c = PAPER_K[(m, n)]
            if got != {"standard": want_s, "classic": want_c}:
                res.wrong_exact.append(f"k* at ({m},{n}) = {got}")
        return res

    return check


def _plan_op(args: list[str], check) -> Op:
    args = [*args, "--format", "json"]
    return Op(" ".join(args), lambda: run_cli(args), check)


def _analyze(m: int, n: int, k: int, variant: str) -> Op:
    args = ["analyze", "--m", str(m), "--n", str(n), "--k", str(k), "--variant", variant]
    return _plan_op(args, _check_analyze(m, n, k, variant))


def _optimize_k(m: int, n: int) -> Op:
    return _plan_op(["optimize", "--m", str(m), "--n", str(n)], _check_optimize(m, n))


def _load_cells(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """count (m, n): n log-uniform on [1, 64], then m log-uniform on
    [32, min(1024, MAX_M_PER_N * n)]."""
    grid = zip(spread(rng, count, 1 / count), spread(rng, count, GOLDEN))
    return [
        (log_uniform_int(u, 32, min(1024, MAX_M_PER_N * n)), n)
        for u, n in ((u, log_uniform_int(v, 1, 64)) for u, v in grid)
    ]


class Plan:
    """Analysts' requests: `bloomlab analyze` and the three `optimize` modes."""

    name = "plan"

    def __init__(self, seed: int, scale: float = 1.0, pass_no: int = 0) -> None:
        rng = random.Random(f"plan:{seed}:{pass_no}")
        count = max(4, round(60 * scale))
        ops = [
            _optimize_k(64, 4),
            _optimize_k(1000, 20),
            _optimize_k(1024, 5),
            _analyze(64, 4, 11, "classic"),
            _analyze(1024, 5, 133, "classic"),
            _analyze(1024, 5, 133, "standard"),
        ]
        for m, n in _load_cells(rng, count):
            ops.append(_optimize_k(m, n))
        # analysts look at k from half to twice the rule-of-thumb optimum
        k_factor = spread(rng, count, SILVER)
        for i, (m, n) in enumerate(_load_cells(rng, count)):
            k = round(m / n * LN2 * 2 ** (2 * k_factor[i] - 1))
            ops.append(_analyze(m, n, min(max(k, 1), m), ("standard", "classic")[i % 2]))
        planning = max(2, round(16 * scale))
        grid = zip(spread(rng, planning, 1 / planning), spread(rng, planning, GOLDEN))
        for i, (u, v) in enumerate(grid):
            variant = ("standard", "classic")[i % 2]
            m, p = log_uniform_int(u, 32, 256), 10 ** (-6 + 4 * v)
            ops.append(
                _plan_op(
                    ["optimize", "--m", str(m), "--p", f"{p:.3g}", "--variant", variant],
                    _check_optimize(m, None),
                )
            )
        grid = zip(spread(rng, planning, 1 / planning), spread(rng, planning, GOLDEN))
        for i, (u, v) in enumerate(grid):
            variant = ("standard", "classic")[i % 2]
            n = log_uniform_int(u, 1, 64)
            # p is drawn so that m_min ~ n log2(1/p) / ln2 stays within 512
            lo = max(-6.0, -512 * LN2 / n * math.log10(2))
            p = 10 ** (lo + (-2 - lo) * v)
            ops.append(
                _plan_op(
                    ["optimize", "--n", str(n), "--p", f"{p:.3g}", "--variant", variant],
                    _check_optimize(None, n),
                )
            )
        rng.shuffle(ops)
        self.op_list = ops

    def ops(self) -> list[Op]:
        return self.op_list


# --------------------------------------------------------------------------
# filter-rw: live filters, inserts beside present and absent queries
# --------------------------------------------------------------------------

BATCH = 1000
# Half of the 2 x 2 x 2 design over m, k and variant: every level of each
# factor appears, and a pass is short enough to be repeated 5 or 6 times in
# a 20-s run (the full design's pass of 7 s would leave about 3).
FILTERS = [
    (1 << 16, 7, FilterVariant.CLASSIC),
    (1 << 16, 32, FilterVariant.STANDARD),
    (1 << 20, 7, FilterVariant.STANDARD),
    (1 << 20, 32, FilterVariant.CLASSIC),
]
# One query batch after every QUERY_EVERY[k] insert batches. A k=32 batch
# takes about 3.5x a k=7 batch; with these proportions the k=7 batches hold
# about the 10th-77th percentiles and the k=32 batches the 79th-100th, so
# p50 and p90 each sit inside a band, not on the gap between them.
QUERY_EVERY = {7: 2, 32: 1}
MAX_Z = 6.0


def _bits(f: BloomFilter) -> int:
    return int.from_bytes(f.bits, "little")


@dataclass
class _FilterPlan:
    params: FilterParams
    inserts: list[list[bytes]]
    present: list[list[bytes]]  # per query batch, drawn from what is inserted so far
    absent: list[list[bytes]]
    sibling: list[bytes]


class _FilterState:
    """One pass's live filter plus the tallies its checks need."""

    def __init__(self, plan: _FilterPlan) -> None:
        self.plan = plan
        self.filt = BloomFilter(plan.params)
        self.sibling = BloomFilter(plan.params)
        self.expected_fp = 0.0
        self.var_fp = 0.0
        self.absent_hits = 0


def _fpr_approx(m: int, k: int, n: int) -> float:
    return (-math.expm1(-k * n / m)) ** k


class FilterRW:
    """Library users of live filters: batches of inserts, present and absent
    queries, and per filter one round trip, union, intersection and
    cardinality estimate."""

    name = "filter-rw"

    def __init__(self, seed: int, scale: float = 1.0, pass_no: int = 0) -> None:
        rng = random.Random(f"filter-rw:{seed}:{pass_no}")
        self.tag = f"s{seed}p{pass_no}"
        self.plans = []
        for m, k, variant in FILTERS:
            m = max(64, int(m * scale))
            params = FilterParams(m, k, variant, rng.getrandbits(128))
            n = round(m * LN2 / k)
            items = [b"\x00" + rng.randbytes(15) for _ in range(n)]
            inserts = [items[i : i + BATCH] for i in range(0, n, BATCH)]
            present, absent = [], []
            every = QUERY_EVERY[k]
            for b in range(every - 1, len(inserts), every):
                loaded = (b + 1) * BATCH
                present.append([items[rng.randrange(min(loaded, n))] for _ in range(BATCH // 2)])
                absent.append([b"\x01" + rng.randbytes(15) for _ in range(BATCH // 2)])
            sibling = items[: BATCH // 2] + [b"\x02" + rng.randbytes(15) for _ in range(BATCH // 2)]
            self.plans.append(_FilterPlan(params, inserts, present, absent, sibling))

    def ops(self) -> list[Op]:
        out = [Op("hash_vectors", hash_vectors, _check_hash_vectors)]
        for idx, plan in enumerate(self.plans):
            st = _FilterState(plan)
            p = plan.params
            tag = f"{self.tag}:f{idx}:m{p.m}:k{p.k}:{p.variant.name.lower()}"
            q = 0
            for b, batch in enumerate(plan.inserts):
                out.append(Op(f"{tag}:insert{b}", _insert(st.filt, batch), _no_check))
                if (b + 1) % QUERY_EVERY[p.k] == 0:
                    out.append(Op(f"{tag}:query{q}", _query(st, q), _check_query(st, q)))
                    q += 1
            out.append(Op(f"{tag}:sibling", _insert(st.sibling, plan.sibling), _no_check))
            out.append(Op(f"{tag}:roundtrip", _roundtrip(st), _check_roundtrip(st)))
            out.append(Op(f"{tag}:union", _union(st), _check_union(st)))
            out.append(Op(f"{tag}:intersect", _intersect(st), _check_intersect(st)))
            out.append(Op(f"{tag}:estimate", _estimate(st), _check_estimate(st)))
        return out


def _no_check(_result) -> Outcome:
    return Outcome()


def _insert(filt: BloomFilter, batch: list[bytes]):
    def run():
        ins = filt.insert
        for e in batch:
            ins(e)

    return run


def _query(st: _FilterState, q: int):
    present, absent = st.plan.present[q], st.plan.absent[q]

    def run():
        query = st.filt.query
        phase("query_present")
        hits = sum(query(e) for e in present)
        phase("query_absent")
        fps = sum(query(e) for e in absent)
        phase(None)
        return hits, fps

    return run


def _check_query(st: _FilterState, q: int):
    def check(result) -> Outcome:
        hits, fps = result
        res = Outcome(exact={"present_hits": hits, "absent_hits": fps})
        if hits != len(st.plan.present[q]):
            res.wrong_exact.append(f"{len(st.plan.present[q]) - hits} false negatives")
        p = st.plan.params
        rate = _fpr_approx(p.m, p.k, st.filt.count)
        probes = len(st.plan.absent[q])
        st.expected_fp += probes * rate
        st.var_fp += probes * rate * (1 - rate)
        st.absent_hits += fps
        return res

    return check


def _roundtrip(st: _FilterState):
    def run():
        data = filters.serialize(st.filt)
        return data, filters.deserialize(data)

    return run


def _check_roundtrip(st: _FilterState):
    def check(result) -> Outcome:
        data, back = result
        res = Outcome(exact={"sha256": hashlib.sha256(data).hexdigest()})
        if back != st.filt or filters.serialize(back) != data:
            res.wrong_exact.append("serialize/deserialize round trip differs")
        return res

    return check


def _union(st: _FilterState):
    return lambda: filters.filter_union(st.filt, st.sibling)


def _intersect(st: _FilterState):
    return lambda: filters.filter_intersect(st.filt, st.sibling)


def _check_union(st: _FilterState):
    def check(u: BloomFilter) -> Outcome:
        bu, ba, bb = _bits(u), _bits(st.filt), _bits(st.sibling)
        res = Outcome(exact={"sha256": hashlib.sha256(u.bits).hexdigest()})
        if ba & ~bu or bb & ~bu:
            res.wrong_exact.append("union does not contain an operand")
        return res

    return check


def _check_intersect(st: _FilterState):
    def check(x: BloomFilter) -> Outcome:
        bx, ba, bb = _bits(x), _bits(st.filt), _bits(st.sibling)
        res = Outcome(exact={"sha256": hashlib.sha256(x.bits).hexdigest()})
        if bx & ~ba or bx & ~bb:
            res.wrong_exact.append("intersection not contained in an operand")
        return res

    return check


def _estimate(st: _FilterState):
    return lambda: filters.estimate_cardinality(st.filt)


def _check_estimate(st: _FilterState):
    """Last op of a filter: also judges its absent-probe rate over the pass."""

    def check(_estimate_value) -> Outcome:
        res = Outcome()
        se = math.sqrt(st.var_fp)
        dev = st.absent_hits - st.expected_fp
        if abs(dev) > MAX_Z * se if se else st.absent_hits > 0:
            res.wrong_approx.append(
                f"absent-probe positives {st.absent_hits} vs expected {st.expected_fp:.1f}"
            )
        return res

    return check


# Fixed inputs whose hash positions and wire bytes are pinned in
# reference.json: a change to hash scheme 1 or to the format shows here.
HASH_VECTOR_INPUTS = [
    (0, b"hello", 1024, 8, "classic"),
    (42, b"bloomlab", 1 << 16, 7, "standard"),
    ((1 << 128) - 1, b"\x00\x00\x00", 1_000_003, 32, "standard"),
    (7, b"x" * 100, 97, 64, "classic"),
    (123456789, b"", 1 << 20, 32, "classic"),
]


def hash_vectors() -> dict:
    out = []
    for seed, element, m, k, variant in HASH_VECTOR_INPUTS:
        params = FilterParams(m, k, FilterVariant[variant.upper()], seed)
        out.append(filters.index_stream(params, element))
    f = BloomFilter(FilterParams(4096, 7, FilterVariant.CLASSIC, 42))
    for e in (b"a", b"b", b"c"):
        f.insert(e)
    data = filters.serialize(f)
    return {"index_stream": out, "header": data[:44].hex(), "body_sha256": hashlib.sha256(data[44:]).hexdigest()}


def _check_hash_vectors(result: dict) -> Outcome:
    res = Outcome(exact=result)
    pinned = load_reference().get("hash_vectors")
    if pinned is not None and result != pinned:
        res.wrong_exact.append("hash scheme 1 or wire format changed")
    return res


# --------------------------------------------------------------------------
# verify: Monte Carlo validation configs and conjecture-scan sub-grids
# --------------------------------------------------------------------------

VALIDATION_SHAPES = [(16, 3, 2), (16, 5, 3), (32, 8, 3), (32, 6, 2), (64, 12, 4), (128, 24, 4)]
TRIALS = 300
VALIDATION_REPEATS = 2
SCAN_OPS = 96
PROBES = 10
SCAN_M_MAX = 256
SCAN_N_MAX = 32
MIN_CHI2_P = 1e-4
SCAN_CSV = os.path.join("reports", "conjecture_scan.csv")


def _validation_op(config: montecarlo.TrialConfig) -> Op:
    p = config.params
    key = (
        f"validation m={p.m} n={config.n} k={p.k} {p.variant.name.lower()} "
        f"seed={p.seed} rng={config.rng_seed} trials={config.trials}"
    )
    return Op(key, lambda: montecarlo.run_validation([config], workers=1),
              _check_validation(config))


def _misses(r: montecarlo.ValidationRow) -> list[str]:
    out = []
    if abs(r.z_score) > MAX_Z:
        out.append(f"fpr z-score {r.z_score:+.2f}")
    if r.chi2_p <= MIN_CHI2_P:
        out.append(f"chi-square p {r.chi2_p:.2e}")
    return out


def _check_validation(config: montecarlo.TrialConfig):
    """|z| <= 6 and chi-square p > 1e-4. A config that misses is run again
    on fresh trials (untimed) and fails only if it misses again: with right
    code, one config in 10,000 has p <= 1e-4 by chance, while a biased
    sampler or a wrong exact p.m.f. misses on any trials."""

    def check(rows) -> Outcome:
        (r,) = rows
        res = Outcome(exact={"exact": r.exact, "empirical": r.empirical,
                             "mean_empirical": r.mean_empirical})
        missed = _misses(r)
        if missed:
            fresh = random.Random(f"again:{config.rng_seed}").getrandbits(64)
            (again,) = montecarlo.run_validation([replace(config, rng_seed=fresh)], workers=1)
            if _misses(again):
                res.wrong_approx += [f"{miss}, and on fresh trials {', '.join(_misses(again))}"
                                     for miss in missed]
        return res

    return check


_scan_rows: dict[tuple[int, int], str] | None = None


def committed_scan_rows() -> dict[tuple[int, int], str]:
    global _scan_rows
    if _scan_rows is None:
        with open(SCAN_CSV, newline="") as fh:
            _scan_rows = {
                (int(row[1]), int(row[2])): ",".join(row)
                for row in csv.reader(fh)
                if row and row[0] == "ordering"
            }
    return _scan_rows


def _scan_op(m_values: list[int], n_values: list[int]) -> Op:
    key = f"scan m={m_values} n={n_values}"
    return Op(
        key, lambda: montecarlo.conjecture_scan(m_values, n_values), _check_scan
    )


def _check_scan(report) -> Outcome:
    lines = report.to_csv().splitlines()[1:]
    res = Outcome(exact=lines)
    committed = committed_scan_rows()
    for row, line in zip(report.ordering, lines):
        if committed.get((row.m, row.n)) != line:
            res.wrong_exact.append(f"cell ({row.m},{row.n}) differs from {SCAN_CSV}")
    return res


class Verify:
    """CI's longest waits: `verify montecarlo` and `verify conjectures`, at
    reduced size."""

    name = "verify"

    def __init__(self, seed: int, scale: float = 1.0, pass_no: int = 0) -> None:
        rng = random.Random(f"verify:{seed}:{pass_no}")
        ops = [_scan_op([26], [12])]
        trials = max(20, round(TRIALS * scale))
        for _ in range(VALIDATION_REPEATS):
            for m, n, k in VALIDATION_SHAPES:
                for variant in (FilterVariant.STANDARD, FilterVariant.CLASSIC):
                    params = FilterParams(m, k, variant, rng.getrandbits(128))
                    config = montecarlo.TrialConfig(
                        params=params, n=n, trials=trials, probes=PROBES,
                        rng_seed=rng.getrandbits(64),
                    )
                    ops.append(_validation_op(config))
        # sub-grids [m] x [n, n+1] spread evenly over the suite's grid, so the
        # costly low-load corner (n = 1, 2 at large m) gets its share
        count = max(4, round(SCAN_OPS * scale))
        for u, v in zip(spread(rng, count, 1 / count), spread(rng, count, GOLDEN)):
            m = 1 + int(u * SCAN_M_MAX)
            n = 1 + int(v * (SCAN_N_MAX - 1))
            ops.append(_scan_op([m], [n, n + 1]))
        rng.shuffle(ops)
        self.op_list = ops

    def ops(self) -> list[Op]:
        return self.op_list


WORKLOADS = {w.name: w for w in (Plan, FilterRW, Verify)}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
_reference: dict | None = None


def load_reference() -> dict:
    global _reference
    if _reference is None:
        try:
            with open(REFERENCE_PATH) as fh:
                _reference = json.load(fh)
        except FileNotFoundError:
            _reference = {}
    return _reference
