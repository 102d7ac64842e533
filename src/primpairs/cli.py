"""Command-line surface over every pipeline stage.

One subcommand per stage, deterministic output given the same flags, CSV
columns mirroring the reference tables so regenerated files diff cleanly.
Exit codes: 0 success, 2 a budget was exhausted, 3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    DEFAULT_FACTOR_BUDGET,
    FactorBudgetExceeded,
    FactorCache,
    decimal_lower,
    decimal_upper,
    factor,
    factor_qm_minus_1,
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
from .ff import DLOG_LIMIT, build_ctx
from .refdata import bound_window, load_certificate_rows
from .verify import (
    DEFAULT_ALPHA_BUDGET,
    EnumerationBudgetExceeded,
    crosscheck_identity,
    resolve_pair,
    scan_exceptions,
)

CACHE_ENV = "PRIMPAIRS_CACHE"

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_INVALID = 3


@dataclass
class RunConfig:
    """Knobs shared by all subcommands; every output is a pure function of
    the subcommand arguments plus this."""

    seed: int = 0
    factor_budget: int = DEFAULT_FACTOR_BUDGET
    enum_budget: int = DEFAULT_ALPHA_BUDGET
    format: str = "csv"
    cache: str | None = None
    out: str | None = None

    def __post_init__(self):
        self._cache_obj: FactorCache | None = None

    def validate(self) -> None:
        for name in ("factor_budget", "enum_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        if not -(1 << 63) <= self.seed < 1 << 63:
            raise ValueError("seed must fit in 64 bits")

    def factor_cache(self) -> FactorCache | None:
        if self.cache is None:
            return None
        if self._cache_obj is None:
            self._cache_obj = FactorCache(self.cache)
        return self._cache_obj

    def save_cache(self) -> None:
        if self._cache_obj is not None:
            self._cache_obj.save()

    def manifest(self) -> dict:
        return {"seed": self.seed,
                "factor_budget": self.factor_budget,
                "enum_budget": self.enum_budget}


class _Sink:
    """Stdout or --out file, line-oriented."""

    def __init__(self, path: str | None):
        self.path = path
        self.lines: list[str] = []

    def line(self, text: str) -> None:
        self.lines.append(text)

    def json(self, obj) -> None:
        self.lines.append(json.dumps(obj, sort_keys=True))

    def flush(self) -> None:
        payload = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.path is None:
            sys.stdout.write(payload)
        else:
            with open(self.path, "w") as fh:
                fh.write(payload)


# ---------------------------------------------------------------------------
# subcommands

def cmd_factor(args, cfg: RunConfig, sink: _Sink) -> int:
    if args.N < 1:
        raise ValueError("N must be positive")
    fact = factor(args.N, cache=cfg.factor_cache(), budget=cfg.factor_budget)
    if cfg.format == "json":
        sink.json({"n": args.N, "factors": [list(pe) for pe in fact.factors]})
    else:
        sink.line(" ".join(str(p) for p, e in fact.factors for _ in range(e)))
    return EXIT_OK


def cmd_check(args, cfg: RunConfig, sink: _Sink) -> int:
    group = factor_qm_minus_1(args.q, args.m, cache=cfg.factor_cache(),
                              budget=cfg.factor_budget)
    W = squarefree_divisor_count(group)
    margin = main_margin(args.q, args.m, args.n, W)
    ok = margin > 0
    if cfg.format == "json":
        sink.json({"q": args.q, "m": args.m, "n": args.n, "W": W,
                   "pass": ok, "equality": margin == 0,
                   "margin": str(margin)})
    else:
        verdict = "PASS" if ok else "FAIL"
        if margin == 0:
            verdict += " equality"
        sink.line(f"{verdict} q={args.q} m={args.m} n={args.n} W={W}")
    return EXIT_OK


def cmd_sieve(args, cfg: RunConfig, sink: _Sink) -> int:
    cert = certificate_search(args.q, args.m, args.n,
                              cache=cfg.factor_cache(),
                              budget=cfg.factor_budget)
    if cert is None:
        if cfg.format == "json":
            sink.json({"q": args.q, "m": args.m, "n": args.n,
                       "certificate": None})
        else:
            sink.line("none")
        return EXIT_OK
    if cfg.format == "json":
        sink.json(cert.serialize())
    else:
        sink.line(",".join(str(x) for x in cert.csv_row(1)[1:]))
    return EXIT_OK


def _parse_m_range(text: str) -> range:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return range(int(lo), int(hi) + 1)
    return range(int(text), int(text) + 1)


def cmd_appendix2(args, cfg: RunConfig, sink: _Sink) -> int:
    """Recompute every listed certificate row for the requested m values
    from the factorization of q^m - 1 and the listed l.  Warn on stderr
    where a listed delta/Delta lies farther from the exact value than
    bound_window allows: 1e-9 or one unit in its last printed place,
    whichever is coarser."""
    wanted = _parse_m_range(args.m_range)
    cache = cfg.factor_cache()
    for row in load_certificate_rows():
        if row.m not in wanted:
            continue
        group = factor_qm_minus_1(row.q, row.m, cache=cache,
                                  budget=cfg.factor_budget)
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
        if cfg.format == "json":
            out = {"m": row.m, "sr": row.sr}
            out.update(blob)
            sink.json(out)
        else:
            sink.line(f"{row.m}," + ",".join(
                str(x) for x in cert.csv_row(row.sr)))
    return EXIT_OK


def cmd_scan(args, cfg: RunConfig, sink: _Sink) -> int:
    records = scan_exceptions(args.n, cache=cfg.factor_cache(),
                              budget=cfg.factor_budget)
    for rec in records:
        if cfg.format == "json":
            sink.json({"m": rec.m, "q": rec.q, "equality": rec.equality})
        else:
            sink.line(f"{rec.m},{rec.q},{int(rec.equality)}")
    return EXIT_OK


def cmd_table1(args, cfg: RunConfig, sink: _Sink) -> int:
    for sr, ((a, b), part) in enumerate(zip(WINDOWS, WINDOW_PARTS), start=1):
        row = worst_case_row(a, b, args.n)
        delta = decimal_lower(row.delta_lower, 7)
        Delta = decimal_upper(row.Delta_upper, 7)
        if cfg.format == "json":
            sink.json({"sr": sr, "a": a, "b": b, "log2_Wl": a,
                       "delta": delta, "Delta": Delta,
                       "bound": row.bound_value, "part": part})
        else:
            sink.line(",".join(str(x) for x in
                               [sr, a, b, a, delta, Delta,
                                row.bound_value, part]))
    return EXIT_OK


def cmd_verify(args, cfg: RunConfig, sink: _Sink) -> int:
    verdict = resolve_pair(
        args.q, args.m, args.n,
        alpha_budget=cfg.enum_budget,
        sample_count=args.sample,
        seed=cfg.seed,
        cache=cfg.factor_cache(),
        factor_budget=cfg.factor_budget)
    manifest = cfg.manifest()
    manifest["sample"] = args.sample
    sink.json({"verdict": verdict.serialize(), "manifest": manifest})
    return EXIT_OK


def cmd_crosscheck(args, cfg: RunConfig, sink: _Sink) -> int:
    # for p >= 2 an exponent past the limit's bit length already exceeds
    # the limit; test it first, since p ** exponent may not fit in memory
    exponent = args.k * args.m
    if exponent > DLOG_LIMIT.bit_length() or args.p ** exponent > DLOG_LIMIT:
        raise EnumerationBudgetExceeded(
            f"field size {args.p}^{exponent} beyond dlog table limit "
            f"{DLOG_LIMIT}")
    ctx = build_ctx(args.p, args.k, args.m, cache=cfg.factor_cache(),
                    factor_budget=cfg.factor_budget)
    report = crosscheck_identity(ctx, args.trials, cfg.seed)
    blob = report.serialize()
    blob["ok"] = report.ok
    blob["manifest"] = cfg.manifest()
    sink.json(blob)
    return EXIT_OK


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
            s.add_argument("--seed", type=int, dest="sub_seed", default=None)
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
    s.add_argument("--seed", type=int, dest="sub_seed", default=None)
    s.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = args.cache if args.cache is not None else os.environ.get(CACHE_ENV)
    if getattr(args, "sub_seed", None) is not None:
        args.seed = args.sub_seed
    cfg = RunConfig(seed=args.seed,
                    factor_budget=args.budget_factor,
                    enum_budget=args.budget_enum,
                    format=args.format, cache=cache, out=args.out)
    sink = _Sink(cfg.out)
    try:
        cfg.validate()
        code = args.func(args, cfg, sink)
    except (FactorBudgetExceeded, EnumerationBudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    cfg.save_cache()
    sink.flush()
    return code
