"""Command-line surface over every pipeline stage.

One subcommand per stage, deterministic output given the same flags, CSV
columns mirroring the reference tables so regenerated files diff cleanly.
Each command returns its records as (json object, csv line) pairs and
`main` renders them once; `verify` and `crosscheck` have no csv line and
always print JSON.  Exit codes: 0 success, 2 a budget was exhausted,
3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .arith import (
    DEFAULT_FACTOR_BUDGET,
    FactorBudgetExceeded,
    FactorCache,
    decimal_lower,
    decimal_upper,
    factor,
    factor_qm_minus_1,
    prime_power,
    squarefree_divisor_count,
)
from .bounds import (
    WINDOW_PARTS,
    WINDOWS,
    certificate_search,
    evaluate_l,
    main_margin,
    worst_case_row,
)
from .ff import build_ctx
from .refdata import bound_window, load_certificate_rows
from .verify import (
    DEFAULT_ALPHA_BUDGET,
    EnumerationBudgetExceeded,
    check_crosscheck,
    crosscheck_identity,
    resolve_pair,
    scan_exceptions,
)

CACHE_ENV = "PRIMPAIRS_CACHE"

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_INVALID = 3


def _manifest(args) -> dict:
    return {"seed": args.seed,
            "factor_budget": args.budget_factor,
            "enum_budget": args.budget_enum}


# ---------------------------------------------------------------------------
# subcommands: each returns a list of (json object, csv line or None)

def cmd_factor(args) -> list:
    if args.N < 1:
        raise ValueError("N must be positive")
    fact = factor(args.N, cache=args.cache, budget=args.budget_factor)
    return [({"n": args.N, "factors": [list(pe) for pe in fact.factors]},
             " ".join(str(p) for p, e in fact.factors for _ in range(e)))]


def cmd_check(args) -> list:
    prime_power(args.q)  # ValueError unless q is a prime power
    group = factor_qm_minus_1(args.q, args.m, cache=args.cache,
                              budget=args.budget_factor)
    W = squarefree_divisor_count(group)
    margin = main_margin(args.q, args.m, args.n, W)
    verdict = "PASS" if margin > 0 else "FAIL"
    if margin == 0:
        verdict += " equality"
    return [({"q": args.q, "m": args.m, "n": args.n, "W": W,
              "pass": margin > 0, "equality": margin == 0,
              "margin": str(margin)},
             f"{verdict} q={args.q} m={args.m} n={args.n} W={W}")]


def cmd_sieve(args) -> list:
    cert = certificate_search(args.q, args.m, args.n, cache=args.cache,
                              budget=args.budget_factor)
    if cert is None:
        return [({"q": args.q, "m": args.m, "n": args.n,
                  "certificate": None}, "none")]
    return [(cert.serialize(),
             ",".join(str(x) for x in cert.csv_row(1)[1:]))]


def _parse_m_range(text: str) -> range:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return range(int(lo), int(hi) + 1)
    return range(int(text), int(text) + 1)


def cmd_appendix2(args) -> list:
    """Recompute every listed certificate row for the requested m values
    from the factorization of q^m - 1 and the listed l.  Warn on stderr
    where a listed delta/Delta lies farther from the exact value than
    bound_window allows: 1e-9 or one unit in its last printed place,
    whichever is coarser."""
    wanted = _parse_m_range(args.m_range)
    records = []
    for row in load_certificate_rows():
        if row.m not in wanted:
            continue
        group = factor_qm_minus_1(row.q, row.m, cache=args.cache,
                                  budget=args.budget_factor)
        cert = evaluate_l(row.q, row.m, 2, group, factor(row.l))
        if not cert.passes:
            print(f"warning: m={row.m} q={row.q} l={row.l}: "
                  "sieve inequality does not pass", file=sys.stderr)
        blob = cert.serialize()
        for column, exact in (("delta", cert.delta), ("Delta", cert.Delta)):
            listed = getattr(row, column)
            if abs(exact - Fraction(listed)) > bound_window(listed):
                print(f"warning: m={row.m} q={row.q} l={row.l}: {column} "
                      f"{blob[column + '_decimal']} vs listed {listed}",
                      file=sys.stderr)
        records.append(({"m": row.m, "sr": row.sr, **blob},
                        f"{row.m}," + ",".join(
                            str(x) for x in cert.csv_row(row.sr))))
    return records


def cmd_scan(args) -> list:
    return [({"m": rec.m, "q": rec.q, "equality": rec.equality},
             f"{rec.m},{rec.q},{int(rec.equality)}")
            for rec in scan_exceptions(args.n, cache=args.cache,
                                       budget=args.budget_factor)]


def cmd_table1(args) -> list:
    records = []
    for sr, ((a, b), part) in enumerate(zip(WINDOWS, WINDOW_PARTS), start=1):
        row = worst_case_row(a, b, args.n)
        delta = decimal_lower(row.delta_lower, 7)
        Delta = decimal_upper(row.Delta_upper, 7)
        records.append(({"sr": sr, "a": a, "b": b, "log2_Wl": a,
                         "delta": delta, "Delta": Delta,
                         "bound": row.bound_value, "part": part},
                        ",".join(str(x) for x in
                                 [sr, a, b, a, delta, Delta,
                                  row.bound_value, part])))
    return records


def cmd_verify(args) -> list:
    verdict = resolve_pair(args.q, args.m, args.n,
                           alpha_budget=args.budget_enum,
                           sample_count=args.sample, seed=args.seed,
                           cache=args.cache, factor_budget=args.budget_factor)
    return [({"verdict": verdict.serialize(),
              "manifest": {**_manifest(args), "sample": args.sample}}, None)]


def cmd_crosscheck(args) -> list:
    check_crosscheck(args.p, args.k, args.m, args.trials, args.budget_enum)
    ctx = build_ctx(args.p, args.k, args.m, cache=args.cache,
                    factor_budget=args.budget_factor)
    report = crosscheck_identity(ctx, args.trials, args.seed,
                                 budget=args.budget_enum)
    blob = report.serialize()
    blob["ok"] = report.ok
    blob["manifest"] = _manifest(args)
    return [(blob, None)]


# ---------------------------------------------------------------------------
# wiring

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on bad usage; 2 is taken by "budget exceeded"
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def build_parser() -> _Parser:
    parser = _Parser(prog="primpairs", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--cache", default=None,
                        help=f"factor cache path (default ${CACHE_ENV})")
    parser.add_argument("--budget-factor", type=int,
                        default=DEFAULT_FACTOR_BUDGET)
    parser.add_argument("--budget-enum", type=int,
                        default=DEFAULT_ALPHA_BUDGET)
    parser.add_argument("--out", default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("factor", help="factor an integer")
    s.add_argument("N", type=int)
    s.set_defaults(func=cmd_factor)

    for name, func in (("check", cmd_check), ("sieve", cmd_sieve),
                       ("verify", cmd_verify)):
        s = sub.add_parser(name)
        s.add_argument("q", type=int)
        s.add_argument("m", type=int)
        s.add_argument("n", type=int)
        if name == "verify":
            s.add_argument("--sample", type=int, default=1000)
            s.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        s.set_defaults(func=func)

    s = sub.add_parser("appendix2", help="recompute listed certificate rows")
    s.add_argument("m_range", help="single m or lo-hi range")
    s.set_defaults(func=cmd_appendix2)

    s = sub.add_parser("scan", help="regenerate the exception list")
    s.add_argument("n", type=int)
    s.set_defaults(func=cmd_scan)

    s = sub.add_parser("table1", help="regenerate the worst-case window table")
    s.add_argument("n", type=int)
    s.set_defaults(func=cmd_table1)

    s = sub.add_parser("crosscheck", help="character sum vs brute force")
    s.add_argument("p", type=int)
    s.add_argument("k", type=int)
    s.add_argument("m", type=int)
    s.add_argument("trials", type=int)
    s.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    s.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    path = args.cache if args.cache is not None else os.environ.get(CACHE_ENV)
    args.cache = FactorCache(path) if path else None
    try:
        for name, value in (("factor_budget", args.budget_factor),
                            ("enum_budget", args.budget_enum)):
            if value < 1:
                raise ValueError(f"{name} must be positive")
        if not -(1 << 63) <= args.seed < 1 << 63:
            raise ValueError("seed must fit in 64 bits")
        records = args.func(args)
    except (FactorBudgetExceeded, EnumerationBudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    payload = "".join(
        (json.dumps(obj, sort_keys=True)
         if args.format == "json" or line is None else line) + "\n"
        for obj, line in records)
    status = EXIT_OK
    if args.out is None:
        sys.stdout.write(payload)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"invalid input: cannot write output {args.out}: "
                  f"{exc.strerror}", file=sys.stderr)
            status = EXIT_INVALID
    if args.cache is not None:
        try:
            args.cache.save()
        except OSError as exc:
            print(f"invalid input: cannot save factor cache {path}: "
                  f"{exc.strerror}", file=sys.stderr)
            return EXIT_INVALID
    return status
