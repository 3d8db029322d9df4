"""Command-line front end.

Commands: tau-prime, xi, ohtsuki, dedekind, jacobi, gauss, cf, oracle,
verify.  Exact values are printed losslessly (rationals as
numerator/denominator pairs, cyclotomic values as {order, coeffs});
numeric values carry the tolerance in force.  Identical flags produce
byte-identical JSON.  main() may be called repeatedly in one process:
every call reuses one parser, and plain text is rendered only for
--format plain.

Only cf, oracle and verify use the numeric oracle, so only they import
`rt_oracle` (and with it numpy), on their first call; the exact
commands never load numpy.

Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import lens_invariants as li
from . import ohtsuki as oh
from .cyclotomic import Cyclotomic, gauss_sum
from .errors import InvalidOption
from .number_theory import dedekind_sum, jacobi_symbol

EMBED_TOL = 1e-12  # double-precision embedding error bound at desk scale


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the CLI contract wants 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _complex_dict(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _rational_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _emit(record: dict, fmt: str, plain_lines) -> None:
    """Print the record as JSON, or the lines plain_lines() returns.

    Exact values print in full: the limit on int-to-str digits (4300 by
    default since Python 3.10.7) is lifted while the record is rendered.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            print(json.dumps(record, sort_keys=True))
        else:
            for line in plain_lines():
                print(line)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _plain_cyclotomic(value: Cyclotomic) -> str:
    return f"{value}  (z = exp(2*pi*i/{value.order}))"


def _plain_complex(z: dict) -> str:
    return f"{_fmt_float(z['re'])} + {_fmt_float(z['im'])}i"


def _exact_fields(value: Cyclotomic) -> dict:
    """The exact value, its embedding and the embedding's error bound."""
    return {
        "value": value.to_dict(),
        "numeric": _complex_dict(value.to_complex()),
        "numeric_tolerance": EMBED_TOL,
    }


def _parse_r_list(text: str) -> list[int]:
    """The orders of a verify sweep, checked as sweep_verify checks them."""
    from .rt_oracle import _check_orders
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidOption(f"cannot parse r list {text!r}")
    if not values:
        raise InvalidOption("empty r list")
    _check_orders(values)
    return values


# -- commands ----------------------------------------------------------


def cmd_tau_prime(args) -> int:
    L = li.make_lens_space(args.p, args.q)
    result = li.tau_prime(L, args.r)
    record = {
        "p": L.p, "q": L.q, "r": args.r, "c": result.c,
        "branch": result.branch, "eta": result.eta,
        **_exact_fields(result.value),
    }
    _emit(record, args.format, lambda: [
        f"tau'_{args.r}(L({L.p},{L.q}))  [branch {result.branch_label()}, c = {result.c}]",
        f"  exact: {_plain_cyclotomic(result.value)}",
        f"  numeric: {_plain_complex(record['numeric'])}  (+- {EMBED_TOL:g})",
    ])
    return 0


def cmd_xi(args) -> int:
    L = li.make_lens_space(args.p, args.q)
    value = li.xi_r(L, args.r)
    record = {"p": L.p, "q": L.q, "r": args.r, **_exact_fields(value)}
    _emit(record, args.format, lambda: [
        f"xi_{args.r}(L({L.p},{L.q}), e_{args.r})",
        f"  exact: {_plain_cyclotomic(value)}",
        f"  numeric: {_plain_complex(record['numeric'])}  (+- {EMBED_TOL:g})",
    ])
    return 0


def cmd_ohtsuki(args) -> int:
    L = li.make_lens_space(args.p, args.q)
    series = oh.ohtsuki_tau(L, args.terms)
    record = {
        "p": L.p, "q": L.q,
        "lambda": [_rational_pair(c) for c in series.coeffs],
    }
    _emit(record, args.format, lambda: [
        f"tau(L({L.p},{L.q})) in powers of h = t - 1:",
        *(f"  lambda_{n} = {c}" for n, c in enumerate(series.coeffs)),
    ])
    return 0


def cmd_dedekind(args) -> int:
    value = dedekind_sum(args.q, args.p)
    record = {"q": args.q, "p": args.p, "value": _rational_pair(value)}
    _emit(record, args.format, lambda: [f"s({args.q},{args.p}) = {value}"])
    return 0


def cmd_jacobi(args) -> int:
    value = jacobi_symbol(args.a, args.n)
    record = {"a": args.a, "n": args.n, "value": value}
    _emit(record, args.format, lambda: [f"({args.a}|{args.n}) = {value}"])
    return 0


def cmd_gauss(args) -> int:
    value = gauss_sum(args.c)
    record = {"c": args.c, **_exact_fields(value)}
    _emit(record, args.format, lambda: [
        f"gauss_sum({args.c}) = epsilon({args.c}) * sqrt({args.c})",
        f"  exact: {_plain_cyclotomic(value)}",
        f"  numeric: {_plain_complex(record['numeric'])}",
    ])
    return 0


def cmd_cf(args) -> int:
    from . import rt_oracle as rt
    framings = list(rt.continued_fraction(args.p, args.q))
    record = {"p": args.p, "q": args.q, "framings": framings}
    _emit(record, args.format, lambda: [
        f"{args.p}/{args.q} = {framings} (negative continued fraction)",
    ])
    return 0


def cmd_oracle(args) -> int:
    from . import rt_oracle as rt
    framings = rt.continued_fraction(args.p, args.q)
    if args.kind == "so3":
        value = rt.so3_invariant(framings, args.r)
    else:
        value = rt.rt_invariant(framings, args.r)
    record = {
        "p": args.p, "q": args.q, "r": args.r, "kind": args.kind,
        "framings": list(framings),
        "value": _complex_dict(value),
    }
    _emit(record, args.format, lambda: [
        f"{args.kind} invariant of L({args.p},{args.q}) at r = {args.r} "
        f"(chain {list(framings)}):",
        f"  {_plain_complex(record['value'])}",
    ])
    return 0


_CONVENTION_NOTE = (
    "oracle: S_jk ~ sin(pi*j*k/r), twists exp(i*pi*(n^2-1)/(2r)), "
    "anomaly = Gauss-sum phase; bracket signs (-1,-1) [oracle-calibrated]"
)


def cmd_verify(args) -> int:
    from . import rt_oracle as rt
    if args.max_p < 1:
        raise InvalidOption(f"--max-p must be >= 1, got {args.max_p}")
    if not 0 < args.tolerance < 1:
        raise InvalidOption(
            f"--tolerance must be positive and below 1, got {args.tolerance:g}")
    if args.jobs < 0:
        raise InvalidOption(f"--jobs must be >= 0, got {args.jobs}")
    r_values = _parse_r_list(args.r)
    jobs = args.jobs or rt.usable_cpus()
    records = rt.sweep_verify(args.max_p, r_values, args.tolerance, jobs=jobs)
    summary = rt.summarize(records)
    record = {
        "max_p": args.max_p,
        "r_values": r_values,
        "tolerance": args.tolerance,
        "convention": _CONVENTION_NOTE,
        **summary,
    }
    if args.per_case:
        record["cases"] = [rec.to_dict() for rec in records]
    if args.sign_study:
        study = rt.bracket_sign_study(min(args.max_p, 10),
                                      tuple(r_values), args.tolerance)
        record["sign_study"] = {
            f"({s12},{srest})": stats for (s12, srest), stats in study.items()
        }

    def plain_lines() -> list[str]:
        lines = [
            f"verify sweep: p <= {args.max_p}, r in {r_values}, "
            f"tolerance {args.tolerance:g}",
            f"  convention: {_CONVENTION_NOTE}",
            f"  cases: {summary['total']}",
            f"  branch tallies: {summary['branch_counts']}",
            f"  matches: {summary['match_counts']} "
            f"(kind: {summary['match_kind']})",
            f"  worst |error|: {_fmt_float(summary['worst_abs_error'])}",
        ]
        if args.per_case:
            lines += [f"    L({rec.p},{rec.q}) r={rec.r}: {rec.branch:12s} "
                      f"{rec.match:9s} err {_fmt_float(rec.abs_error)}"
                      for rec in records]
        if args.sign_study:
            lines.append("  bracket sign study (CaseTwo instances):")
            lines += [f"    signs {key}: {stats}"
                      for key, stats in record["sign_study"].items()]
        return lines

    _emit(record, args.format, plain_lines)
    return 0 if summary["consistent"] else 2


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process and shared by every call."""
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("plain", "json"), default="plain")
    pq = argparse.ArgumentParser(add_help=False)
    pq.add_argument("--p", type=int, required=True)
    pq.add_argument("--q", type=int, required=True)
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument("--r", type=int, required=True)

    parser = _Parser(prog="lenstau", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, about, *parents) -> _Parser:
        p = sub.add_parser(name, help=about, parents=[*parents, fmt])
        p.set_defaults(func=func)
        return p

    command("tau-prime", cmd_tau_prime, "exact SO(3) invariant tau'_r",
            pq, order)
    command("xi", cmd_xi, "exact invariant xi_r at e_r", pq, order)
    p = command("ohtsuki", cmd_ohtsuki, "Ohtsuki series coefficients", pq)
    p.add_argument("--terms", type=int, default=16,
                   help="coefficients lambda_0 .. lambda_(terms-1), "
                        f"at most {oh.MAX_TERMS}")
    command("dedekind", cmd_dedekind, "Dedekind sum s(q,p)", pq)
    p = command("jacobi", cmd_jacobi, "Jacobi symbol (a|n)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = command("gauss", cmd_gauss, "quadratic Gauss sum, exact")
    p.add_argument("--c", type=int, required=True)
    command("cf", cmd_cf, "negative continued fraction of p/q", pq)
    p = command("oracle", cmd_oracle, "numeric invariant from surgery data",
                pq, order)
    p.add_argument("--kind", choices=("so3", "rt"), default="so3")

    p = command("verify", cmd_verify, "formula-vs-oracle sweep")
    p.add_argument("--max-p", type=int, required=True, dest="max_p")
    p.add_argument("--r", type=str, required=True,
                   help="comma-separated odd orders, e.g. 3,5,7,9")
    p.add_argument("--tolerance", type=float, default=1e-8,
                   help="relative bound in (0, 1): a case matches when "
                        "|formula - oracle| <= tolerance * max(1, |formula|)")
    p.add_argument("--jobs", type=int, default=0,
                   help="processes, this one included: the orders are "
                        "dealt largest first, this process runs the "
                        "largest share and each worker sends back plain "
                        "rows; at most the usable CPUs and one per order, "
                        "so a one-order sweep starts no worker "
                        "(default: the usable CPUs)")
    p.add_argument("--per-case", action="store_true")
    p.add_argument("--sign-study", action="store_true",
                   help="also compare all bracket sign readings")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"lenstau: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
