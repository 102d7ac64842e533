"""Command-line surface over every pipeline stage.

One subcommand per stage, deterministic output given the same flags, CSV
columns mirroring the reference tables so regenerated files diff cleanly.
Each command returns its records as (json object, csv line) pairs and
`main` renders them once; `verify` and `crosscheck` have no csv line and
always print JSON.  Exit codes: 0 success, 2 a budget was exhausted,
3 invalid input.  --format, --cache and --out come before the command,
every other option after it:
  factor, check, sieve, appendix2, scan   --budget-factor
  table1                                  (none)
  verify      --budget-factor --seed --budget-enum --sample
  crosscheck  --seed --budget-enum
The factor cache (--cache, else $PRIMPAIRS_CACHE) is opened only for the
commands that read --budget-factor; --cache before table1 or crosscheck
is a usage error.
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
from .refdata import bound_window, load_certificate_rows
from .verify import (
    DEFAULT_ALPHA_BUDGET,
    DEFAULT_SAMPLE,
    EnumerationBudgetExceeded,
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
    lo, dash, hi = text.partition("-")
    wanted = range(int(lo), int(hi if dash else lo) + 1)
    if not wanted:
        raise ValueError(f"m range {text} is empty")
    return wanted


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
    report = crosscheck_identity(args.p, args.k, args.m, args.trials,
                                 args.seed, budget=args.budget_enum)
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


def positive(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return int(text)


def int64(text: str) -> int:
    if not -(1 << 63) <= int(text) < 1 << 63:
        raise argparse.ArgumentTypeError(f"{text} does not fit in 64 bits")
    return int(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="primpairs", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--cache", default=None,
                        help=f"factor cache path (default ${CACHE_ENV})")
    parser.add_argument("--out", default=None)

    factoring = argparse.ArgumentParser(add_help=False)
    factoring.add_argument(
        "--budget-factor", type=positive, default=DEFAULT_FACTOR_BUDGET,
        help="modular squarings one Pollard rho call may spend, "
             "floor(log2 k) for each step of its walk y^k + c that enters "
             "a gcd (about half of its steps; the rest only move the walk "
             "on); each composite cofactor taken apart gets a call of its "
             "own (default %(default)s)")
    counting = argparse.ArgumentParser(add_help=False)
    counting.add_argument("--seed", type=int64, default=0)
    counting.add_argument("--budget-enum", type=positive,
                          default=DEFAULT_ALPHA_BUDGET)
    # crosscheck's factoring, all below 2^22, never reads this budget
    counting.set_defaults(budget_factor=DEFAULT_FACTOR_BUDGET)

    sub = parser.add_subparsers(dest="command", required=True)
    for spec, func, parents, text in (
            ("factor N", cmd_factor, [factoring], "factor an integer"),
            ("check q m n", cmd_check, [factoring], "test the main condition"),
            ("sieve q m n", cmd_sieve, [factoring], "best sieve certificate"),
            ("appendix2 m_range", cmd_appendix2, [factoring],
             "recompute listed certificate rows for one m or lo-hi"),
            ("scan n", cmd_scan, [factoring], "regenerate the exception list"),
            ("table1 n", cmd_table1, [],
             "regenerate the worst-case window table"),
            ("verify q m n", cmd_verify, [factoring, counting],
             "is (q, m) in Q_n?"),
            ("crosscheck p k m trials", cmd_crosscheck, [counting],
             "character sum vs brute force")):
        name, *positionals = spec.split()
        s = sub.add_parser(name, parents=parents, help=text, description=text)
        for arg in positionals:
            s.add_argument(arg, type=str if arg == "m_range" else int)
        if name == "verify":
            s.add_argument("--sample", type=int, default=DEFAULT_SAMPLE)
        s.set_defaults(func=func, factors=factoring in parents)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache is not None and not args.factors:
        parser.error(f"--cache: {args.command} reads no factor cache")
    path = args.cache if args.cache is not None else os.environ.get(CACHE_ENV)
    args.cache = FactorCache(path) if path and args.factors else None
    try:
        records = args.func(args)
    except (FactorBudgetExceeded, EnumerationBudgetExceeded,
            MemoryError) as exc:
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
