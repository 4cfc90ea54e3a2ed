"""Command-line front end.

Subcommands: analyze, optimize, sweep, build, insert, query, info,
simulate, verify. Exit codes: 0 success, 1 usage error, 2 I/O or format
error, 3 verification failure.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import analytics, montecarlo
from .estimators import SaturationError, UnsupportedObservationError
from .filters import (
    BloomFilter,
    FilterParams,
    FilterVariant,
    FormatError,
    deserialize,
    estimate_cardinality,
    serialize,
)
from .kernel import _Certified, _lowest_terms, log2_fraction

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3


def fraction_sci(value: Fraction | float) -> str:
    """Scientific notation to 6 significant digits, for a rational of any size
    (a float, such as a chain bracket's end, is taken exactly).

    float() would underflow around 1e-308; this scales by exact powers of
    ten instead, so 1e-43 rates (and far smaller) print correctly. The six
    digits are floor(|value| 10^(5 - exp)) from one integer divmod, with
    the exponent exp from log2; the remainder rounds them half to even, as
    round() of the Fraction would.

    The exponent needs no correction. log2_fraction is within u (|L| + 4)
    of L = log2 |value| (u = 2^-53), and its product with log10(2) within
    u (1.3 |L| + 2) of log10 |value|. While |L| < 2^30 (every dyadic
    bracket end of a rate, and every float, whose |L| is at most 1075),
    that is under 1.6e-7, so exp is one off only within 3.6e-7 relative of
    a power of ten, and there both exponents print the same: just under
    10^(e+1), exp = e + 1 gives q = 99999 and a remainder above one half,
    which rounds up to 1.00000e(e+1), as the six digits 999999.5 and above
    do; at or just above 10^e, exp = e - 1 gives q = 10^6 and a remainder
    of at most one half, which stays 10^6 (even) and carries to
    1.00000e(e).
    """
    if value == 0:
        return "0"
    a = abs(Fraction(value))
    num, den = a.numerator, a.denominator
    exp = math.floor(log2_fraction(a) * math.log10(2))
    q, r, d = _sci_digits(num, den, exp)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    if q == 10**6:  # rounded up to the next power of ten
        q //= 10
        exp += 1
    text = str(q)
    return f"{'-' if value < 0 else ''}{text[0]}.{text[1:]}e{exp:+03d}"


def _sci_digits(num: int, den: int, exp: int) -> tuple[int, int, int]:
    """(q, r, d) with num 10^(5 - exp) / den = q + r / d, 0 <= r < d."""
    shift = 5 - exp
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    return *divmod(num, den), den


def power_sci(base: Fraction, k: int) -> str:
    """fraction_sci(base ** k) for base >= 0, without forming base ** k.

    r = floor(base 2^s) keeps about 64 + bit_length(k) + 8 significant bits,
    so r^k / 2^(sk) <= base^k <= (r+1)^k / 2^(sk), a bracket some 2^-70 wide
    relative to base^k that costs k times r's bits, not k times base's.
    Rounding to significant digits is monotone, so the certified power
    (kernel._Certified.read) prints from the bracket where both ends print
    alike, and from the exact power base ** k otherwise: at or next to a
    rounding boundary (the tie 2^-10 = 9.765625e-04 is one). The ends are
    reduced by stripping powers of two (kernel._lowest_terms), not by a gcd.
    """
    num, den = base.numerator, base.denominator
    s = max(64 + k.bit_length() + 8 + den.bit_length() - num.bit_length(), 0)
    r = (num << s) // den
    one = 1 << (s * k)
    ends = _lowest_terms(r**k, one, 2), _lowest_terms((r + 1) ** k, one, 2)
    return _Certified(*ends, lambda: base**k).read(fraction_sci)


def _variant(name: str) -> FilterVariant:
    return FilterVariant.CLASSIC if name == "classic" else FilterVariant.STANDARD


_VARIANT_OPT = click.option(
    "--variant",
    type=click.Choice(["classic", "standard"]),
    default="standard",
    show_default=True,
    help="Filter variant (classic marks k distinct bits per item).",
)


def _format_opt(*formats: str):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(["text", *formats]),
        default="text",
        show_default=True,
    )


@click.group()
def cli() -> None:
    """Exact analytics and reference filters for Bloom-style membership."""


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------


@cli.command()
@click.option("--m", type=int, required=True, help="Filter length in bits.")
@click.option("--n", type=int, required=True, help="Stored item count.")
@click.option("--k", type=int, required=True, help="Hash bits per item.")
@_VARIANT_OPT
@_format_opt("json")
def analyze(m: int, n: int, k: int, variant: str, fmt: str) -> None:
    """Exact false-positive rate, bounds, approximations, efficiency."""
    rep = analytics.fpr_report(m, n, k, _variant(variant))
    # 0.0 - x rather than -x, so a rate of 1 cuts down 0 bits, not -0
    cutdown = 0.0 - rep.log2_exact
    payload = {
        "m": m,
        "n": n,
        "k": k,
        "variant": variant,
        # int-to-str is quadratic in CPython: built only where it is printed
        "exact_fraction": (
            f"{rep.exact.numerator}/{rep.exact.denominator}" if fmt == "json" else None
        ),
        "exact": fraction_sci(rep.exact),
        "log2_exact": rep.log2_exact if math.isfinite(rep.log2_exact) else None,
        "bits_of_cutdown": cutdown if math.isfinite(cutdown) else None,
        "bound_E": rep.bounds.E,
        "bound_M": power_sci(rep.bounds.M_base, rep.bounds.M_exp),
        "bound_L": fraction_sci(rep.bounds.L),
        "bound_U": fraction_sci(rep.bounds.U),
        "taylor": rep.taylor,
        "recursive": rep.recursive,
        "efficiency": rep.efficiency,
    }
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2))
        return
    click.echo(f"m={m} n={n} k={k} variant={variant}")
    num, den = rep.exact.numerator, rep.exact.denominator
    frac = f"{num}/{den}" if den != 1 and den < 10**40 else None
    click.echo(
        "exact fpr      " + payload["exact"] + (f"  (= {frac})" if frac else "")
    )
    click.echo(f"log2 exact     {rep.log2_exact:.6f}  (cut-down {cutdown:.4f} bits)")
    click.echo(f"bound E        {rep.bounds.E:.6e}")
    click.echo(f"bound M        {payload['bound_M']}")
    click.echo(f"bound L        {payload['bound_L']}")
    click.echo(f"bound U        {payload['bound_U']}")
    click.echo(f"taylor approx  {rep.taylor:.6e}")
    click.echo(f"recursive      {rep.recursive:.6e}")
    click.echo(f"efficiency     {rep.efficiency:.6f}")


# --------------------------------------------------------------------------
# optimize
# --------------------------------------------------------------------------


@cli.command()
@click.option("--m", type=int, default=None, help="Filter length in bits.")
@click.option("--n", type=int, default=None, help="Stored item count.")
@click.option("--p", type=float, default=None, help="Target false-positive rate.")
@click.option(
    "--variant",
    type=click.Choice(["classic", "standard"]),
    default=None,
    help="Filter variant; omit to report both.",
)
@_format_opt("json")
def optimize(m, n, p, variant: str | None, fmt: str) -> None:
    """Optimal k (given m, n), max n (given m, p), or min m (given n, p)."""
    given = [v is not None for v in (m, n, p)]
    if sum(given) != 2:
        raise click.UsageError("supply exactly two of --m, --n, --p")
    if m is not None and m < 1:
        raise ValueError("--m must be >= 1")
    if n is not None and n < 1:
        raise ValueError("--n must be >= 1")
    variants = [variant] if variant else ["classic", "standard"]
    payloads = [_optimize_one(m, n, p, name) for name in variants]
    if fmt == "json":
        click.echo(json.dumps(payloads if len(payloads) > 1 else payloads[0], indent=2))
        return
    for i, payload in enumerate(payloads):
        if i:
            click.echo()
        for key, val in payload.items():
            click.echo(f"{key:<16} {val}")


def _optimize_one(m, n, p, variant: str) -> dict:
    var = _variant(variant)
    payload: dict = {"variant": variant}
    if p is None:
        k, _, best, seed = analytics._optimum(m, n, var)
        est = analytics.optimal_k_estimate(m, n)
        payload.update(
            m=m,
            n=n,
            k_exact=k,
            fpr_exact=best.read(fraction_sci),
            k_estimate=est,
            fpr_at_estimate=seed.read(fraction_sci),
            estimate_gap=round(est) - k,
        )
    elif m is not None:
        n_exact = analytics.capacity_n_max(m, p, var)
        payload.update(
            m=m,
            p=p,
            n_max_exact=n_exact,
            n_max_estimate=analytics.n_max_estimate(m, p),
            k_exact=analytics._optimum(m, n_exact, var)[0],
        )
        payload["estimate_gap"] = round(payload["n_max_estimate"]) - n_exact
    else:
        m_exact = analytics.size_m_min(n, p, var)
        payload.update(
            n=n,
            p=p,
            m_min_exact=m_exact,
            m_min_estimate=analytics.m_min_estimate(n, p),
            k_exact=analytics._optimum(m_exact, n, var)[0],
        )
        payload["estimate_gap"] = round(payload["m_min_estimate"]) - m_exact
    return payload


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

_SWEEP_OUTPUTS = [
    "exact", "E", "M", "L", "U", "taylor", "efficiency",
    "kstar_est", "kstar_classic", "kstar_standard",
]
_KSTAR_OUTPUTS = {"kstar_est", "kstar_classic", "kstar_standard"}


@cli.command()
@click.option(
    "--variable",
    type=click.Choice(["k", "n", "m"]),
    required=True,
    help="Which parameter the sweep varies.",
)
@click.option("--start", type=int, required=True)
@click.option("--end", type=int, required=True, help="Inclusive end of the range.")
@click.option("--step", type=int, default=1, show_default=True)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@_VARIANT_OPT
@click.option(
    "--outputs",
    default="exact",
    show_default=True,
    help="Comma-separated subset of " + ",".join(_SWEEP_OUTPUTS) + ".",
)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write CSV here instead of stdout.")
def sweep(variable, start, end, step, m, n, k, variant, outputs, out) -> None:
    """CSV of analytics over an inclusive parameter range."""
    wanted = [w.strip() for w in outputs.split(",") if w.strip()]
    unknown = [w for w in wanted if w not in _SWEEP_OUTPUTS]
    if unknown:
        raise click.UsageError(f"unknown outputs: {', '.join(unknown)}")
    if start > end or step < 1:
        raise click.UsageError("need start <= end and step >= 1")
    kstar_only = set(wanted) <= _KSTAR_OUTPUTS
    if any(w in _KSTAR_OUTPUTS for w in wanted) and not kstar_only:
        raise click.UsageError("kstar_* outputs cannot be mixed with rate outputs")
    if kstar_only and variable == "k":
        raise click.UsageError("kstar_* outputs sweep m or n, not k")
    fixed = {"m": m, "n": n, "k": k}
    if fixed[variable] is not None:
        raise click.UsageError(f"--{variable} is the sweep variable; do not fix it")
    needed = {"m", "n"} - {variable} if kstar_only else set(fixed) - {variable}
    missing = [name for name in sorted(needed) if fixed[name] is None]
    if missing:
        raise click.UsageError("missing fixed parameters: " + ", ".join(missing))
    var = _variant(variant)
    # one rate source across a k sweep's rising k, one per row otherwise
    rates = analytics._rate_source(m, n, var) if variable == "k" else None
    lines = [("m,n," if kstar_only else "variant,m,n,k,") + ",".join(wanted)]
    for value in range(start, end + 1, step):
        point = {**fixed, variable: value}
        pm, pn, pk = point["m"], point["n"], point["k"]
        if kstar_only:
            if pm < 1 or pn < 0:
                raise ValueError(f"sweep needs m >= 1, n >= 0; got {pm}, {pn}")
            key = f"{pm},{pn},"
        elif pm < 1 or pk < 1 or pn < 0:
            raise ValueError(
                f"sweep needs m >= 1, n >= 0, k >= 1; got {pm}, {pn}, {pk}"
            )
        elif pk > pm and var is FilterVariant.CLASSIC:
            continue
        else:
            key = f"{variant},{pm},{pn},{pk},"
        cells = []
        bounds = rate = None
        for w in wanted:
            if w == "kstar_est":
                cells.append(f"{analytics.optimal_k_estimate(pm, pn):.4f}")
            elif w.startswith("kstar_"):
                cells.append(str(analytics._optimum(pm, pn, _variant(w[6:]))[0]))
            elif w in ("exact", "efficiency"):
                if rate is None:
                    rate = (rates or analytics._rate_source(pm, pn, var))(pk)
                if w == "exact":
                    cells.append(rate.read(fraction_sci))
                else:
                    cells.append(f"{analytics._efficiency(pm, pn, rate.exact()):.9f}")
            elif w in ("E", "M", "L", "U"):
                bounds = bounds or analytics.fpr_bounds(pm, pn, pk)
                if w == "E":
                    cells.append(f"{bounds.E:.9e}")
                elif w == "M":
                    cells.append(power_sci(bounds.M_base, bounds.M_exp))
                else:
                    cells.append(fraction_sci(getattr(bounds, w)))
            elif w == "taylor":
                cells.append(f"{analytics.fpr_taylor(pm, pn, pk):.9e}")
        lines.append(key + ",".join(cells))
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


# --------------------------------------------------------------------------
# filter file operations
# --------------------------------------------------------------------------


# Existence is not checked here: a missing file is an I/O error (exit 2)
# raised on opening, not a usage error.
_FILTER_ARG = click.argument("filter_file", type=click.Path(dir_okay=False))
_INPUT_OPT = click.option(
    "--input", "source", type=click.Path(dir_okay=False, allow_dash=True),
    default="-", help="Newline-delimited elements (default stdin).",
)


def _warn_if_overfull(filt: BloomFilter) -> None:
    if filt.fill_ratio() > 0.5:
        click.echo(
            "warning: bit sum exceeds m/2; past bit parity, additional items "
            "should go to a new filter",
            err=True,
        )


@cli.command()
@click.option("--m", type=int, required=True)
@click.option("--k", type=int, required=True)
@_VARIANT_OPT
@click.option("--seed", type=int, default=0, show_default=True,
              help="128-bit hashing seed.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def build(m, k, variant, seed, out) -> None:
    """Write an empty serialized filter."""
    params = FilterParams(m=m, k=k, variant=_variant(variant), seed=seed)
    Path(out).write_bytes(serialize(BloomFilter(params)))
    click.echo(f"wrote empty {variant} filter m={m} k={k} to {out}")


@cli.command()
@_FILTER_ARG
@_INPUT_OPT
def insert(filter_file, source) -> None:
    """Insert newline-delimited elements and rewrite the filter file."""
    filt = deserialize(Path(filter_file).read_bytes())
    inserted = 0
    with click.open_file(source, "rb") as lines:
        for line in lines:
            filt.insert(line.rstrip(b"\r\n"))
            inserted += 1
    Path(filter_file).write_bytes(serialize(filt))
    _warn_if_overfull(filt)
    click.echo(f"inserted {inserted} elements; bit sum {filt.bit_sum()}/{filt.params.m}")


@cli.command()
@_FILTER_ARG
@_INPUT_OPT
@_format_opt("json")
def query(filter_file, source, fmt) -> None:
    """Per-element membership verdicts plus a summary."""
    filt = deserialize(Path(filter_file).read_bytes())
    positives = 0
    total = 0
    rows = []
    with click.open_file(source, "rb") as lines:
        for line in lines:
            element = line.rstrip(b"\r\n")
            hit = filt.query(element)
            positives += hit
            total += 1
            rows.append((element, hit))
    if fmt == "json":
        click.echo(
            json.dumps(
                {
                    "results": [
                        {"element": e.decode("utf-8", "replace"), "positive": bool(h)}
                        for e, h in rows
                    ],
                    "positives": positives,
                    "total": total,
                }
            )
        )
        return
    for element, hit in rows:
        label = "positive" if hit else "negative"
        click.echo(f"{label}\t{element.decode('utf-8', 'replace')}")
    click.echo(f"# {positives}/{total} positive")


@cli.command()
@_FILTER_ARG
@_format_opt("json")
def info(filter_file, fmt) -> None:
    """Parameters, bit sum, and estimated cardinality of a filter file."""
    filt = deserialize(Path(filter_file).read_bytes())
    try:
        cardinality, unknown = estimate_cardinality(filt), None
    except SaturationError:
        cardinality, unknown = None, "saturated"
    except UnsupportedObservationError:
        cardinality, unknown = None, "unavailable"
    payload = {
        "m": filt.params.m,
        "k": filt.params.k,
        "variant": filt.params.variant.name.lower(),
        "seed": filt.params.seed,
        "count": filt.count,
        "bit_sum": filt.bit_sum(),
        "fill_ratio": filt.fill_ratio(),
        "estimated_cardinality": cardinality,
    }
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2))
    else:
        for key, val in payload.items():
            shown = unknown if key == "estimated_cardinality" and val is None else val
            click.echo(f"{key:<22} {shown}")
    _warn_if_overfull(filt)


# --------------------------------------------------------------------------
# simulate / verify
# --------------------------------------------------------------------------


@cli.command()
@click.option("--m", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@_VARIANT_OPT
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--probes", type=int, default=10, show_default=True,
              help="Never-inserted elements probed per trial.")
@click.option("--seed", type=int, default=0, show_default=True)
@_format_opt("json", "csv")
def simulate(m, n, k, variant, trials, probes, seed, fmt) -> None:
    """Empirical FPR and occupancy histogram against the exact law."""
    params = FilterParams(m=m, k=k, variant=_variant(variant), seed=seed)
    config = montecarlo.TrialConfig(
        params=params, n=n, trials=trials, probes=probes, rng_seed=seed
    )
    rows = montecarlo.run_validation([config])
    row = rows[0]
    if fmt == "csv":
        click.echo(montecarlo.validation_csv(rows), nl=False)
        return
    if fmt == "json":
        click.echo(json.dumps(row.__dict__, indent=2))
        return
    click.echo(montecarlo.validation_summary(rows), nl=False)
    if abs(row.z_score) > 4:
        click.echo("note: fpr z-score outside 4 SE", err=True)


# suites.suite_names(), listed here so that importing the CLI does not
# import the suites (and the oracle they check against); a test keeps the two
# equal
_SUITE_NAMES = (
    "paper-numbers",
    "oracle-small",
    "invariants",
    "montecarlo",
    "asymptotics",
    "valley",
    "conjectures",
    "all",
)


@cli.command()
@click.argument("suite", type=click.Choice(_SUITE_NAMES))
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Directory for report artifacts (CSV).")
def verify(suite, out) -> None:
    """Run a verification suite; exit 3 if any check fails."""
    from . import suites

    results = suites.run_suite(suite)
    failed = False
    for result in results:
        click.echo(f"== {result.suite}")
        for check in result.checks:
            click.echo(check.line())
            failed |= not check.passed
        if out:
            Path(out).mkdir(parents=True, exist_ok=True)
            for stem, text in result.artifacts.items():
                Path(out, f"{stem}.csv").write_text(text, encoding="utf-8")
    if failed:
        sys.exit(EXIT_VERIFY)


def main() -> None:
    """Entry point mapping exception classes onto the documented exit codes."""
    # analyze prints exact fractions in full, often past Python's default
    # 4300-digit cap on int-to-str conversion
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        cli.main(standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_IO)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)
    except (FormatError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)
    except (ValueError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    main()
