"""Span recorder for the traced benchmark run.

The recorder wraps the public functions each primpairs layer exposes, from
the outside: every module attribute bound to a wrapped function is replaced
for the duration of a traced pass and restored afterwards, so `verify`
(which binds `build_ctx`, `find_irreducibles` and `certificate_search` by
name) is traced where it looks the names up.  Nothing under src/ changes.

A span is [name, start, end, parent index, run id].  Spans stay in memory
and are written out after each traced pass, outside its timed region.
Self time of a span is its duration minus the time its direct children
cover; a layer's self time is the sum over the layer's spans, so the self
times of all layers add up to the root span, which encloses one workload
pass.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import weakref
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("arith", "bounds", "ff", "verify", "cli", "bench")


class Recorder:
    """In-memory spans and counters of one traced pass (single-threaded)."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._masked = weakref.WeakSet()  # contexts whose quad mask is counted

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("span closed out of order")

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(out, args)
            return out
        return traced

    def wrap_generator(self, name: str, fn):
        """Time each next() of the generator fn returns as its own span and
        count the items it yields."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts[name + ".items"] += 1
                yield item
        return traced


def _table_bytes(rec: Recorder):
    def note(ctx, _args):
        rec.counts["ff.table_bytes"] += sum(
            v.nbytes for v in vars(ctx).values() if isinstance(v, np.ndarray))
    return note


def _quad_mask_bytes(rec: Recorder):
    def note(mask, args):
        ctx = args[0]
        if ctx not in rec._masked:  # the mask is built once per context
            rec._masked.add(ctx)
            rec.counts["ff.quad_mask_bytes"] += mask.nbytes
    return note


def _outcome(rec: Recorder, yes: str, no: str, test):
    def note(out, _args):
        rec.counts[yes if test(out) else no] += 1
    return note


def _targets(rec: Recorder):
    """(owner, attribute, wrapper) for every traced public entry point."""
    from primpairs import arith, bounds, cli, ff, verify

    funcs = [
        (arith, "factor", None),
        (arith, "factor_qm_minus_1", None),
        (bounds, "certificate_search",
         _outcome(rec, "bounds.found", "bounds.not_found",
                  lambda c: c is not None)),
        (bounds, "main_margin", None),
        (ff, "build_ctx", _table_bytes(rec)),
        (ff, "is_irreducible_in_ctx",
         _outcome(rec, "ff.irreducible", "ff.reducible", bool)),
        (verify, "resolve_pair", None),
        (verify, "scan_exceptions", None),
        (cli, "main", None),
        (cli, "cmd_scan", None),
    ]
    gens = [(ff, "find_irreducibles"), (verify, "enumerate_R")]
    methods = [
        (arith.FactorCache, "get", "arith.cache_get",
         _outcome(rec, "arith.cache_miss", "arith.cache_hit",
                  lambda hit: hit is None)),
        (arith.FactorCache, "save", "arith.cache_save", None),
        (ff.FieldCtx, "quad_reducible_mask", "ff.quad_mask",
         _quad_mask_bytes(rec)),
        (ff.RationalFunction, "varr_eval", "ff.varr_eval", None),
    ]
    out = []
    for mod, attr, note in funcs:
        fn = getattr(mod, attr)
        out.append((fn, rec.wrap(f"{mod.__name__.split('.')[-1]}.{attr}",
                                 fn, note)))
    for mod, attr in gens:
        fn = getattr(mod, attr)
        out.append((fn, rec.wrap_generator(
            f"{mod.__name__.split('.')[-1]}.{attr}", fn)))
    patches = []
    modules = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "primpairs" and m is not None]
    for fn, wrapper in out:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, attr, wrapper))
    for cls, attr, name, note in methods:
        patches.append((cls, attr, rec.wrap(name, vars(cls)[attr], note)))
    return patches


class installed:
    """Context manager: route every traced name through `rec`."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list = []

    def __enter__(self):
        for owner, attr, wrapper in _targets(self.rec):
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        return self.rec

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    cover = [0.0] * len(spans)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            cover[parent] += end - start
    return [end - start - c
            for (_n, start, end, _p, _r), c in zip(spans, cover)]


def inclusive_times(spans) -> Counter:
    """Name -> total duration of its spans, not counting those nested in a
    span of the same name."""
    out = Counter()
    for name, start, end, parent, _run in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name] += end - start
    return out


def layer_self(spans) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, self_times(spans)):
        out[span[0].split(".", 1)[0]] += t
    return out


def check_spans(spans, wall_s: float, slack: float = 0.01) -> list[str]:
    """Problems with a pass's spans: a child outside its parent, more than
    one root, or layer self times that do not add up to the traced wall
    time within `slack` of it (the recorder's own gaps)."""
    problems = []
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1:
        problems.append(f"{len(roots)} root spans, expected 1")
    for name, start, end, parent, _run in spans:
        if end < start:
            problems.append(f"span {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                problems.append(f"span {name} lies outside its parent {p[0]}")
    total = sum(layer_self(spans).values())
    if abs(total - wall_s) > slack * wall_s + 1e-3:
        problems.append(f"layer self times sum to {total:.4f} s, "
                        f"traced wall time is {wall_s:.4f} s")
    return problems


def write_spans(path, spans, append: bool = False) -> None:
    with open(path, "a" if append else "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# percentiles

LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    return xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]


def tail_percentile(samples, beyond: int = 10):
    """(pct, value, n): the highest percentile on LADDER with at least
    `beyond` samples above its rank, or None when no rung qualifies."""
    n = len(samples)
    for pct in LADDER:
        if n - math.ceil(pct / 100 * n) >= beyond:
            return pct, percentile(samples, pct), n
    return None


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

PAIR_PARENTS = ("verify.scan_exceptions", "verify.resolve_pair")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pair_factor_ms(spans) -> list[float]:
    """Durations of the factorisations the pair pipeline asks for directly
    (one per scanned or resolved pair), in milliseconds."""
    return [(end - start) * 1e3 for name, start, end, parent, _ in spans
            if name == "arith.factor_qm_minus_1" and parent >= 0
            and spans[parent][0] in PAIR_PARENTS]


def layer_metrics(rec: Recorder) -> dict[str, float]:
    spans, c = rec.spans, rec.counts
    names = Counter(s[0] for s in spans)
    pair_ms = pair_factor_ms(spans)
    searches = names["bounds.certificate_search"]
    tests = c["ff.irreducible"] + c["ff.reducible"]
    reps = c["verify.enumerate_R.items"]
    incl = inclusive_times(spans)
    resolve_s = incl["verify.resolve_pair"]
    selfs = layer_self(spans)
    return {
        "arith.factor_calls": names["arith.factor"],
        "arith.factor_s": incl["arith.factor"],
        "arith.pair_factor_samples": len(pair_ms),
        "arith.pair_factor_ms_p50": percentile(pair_ms, 50) if pair_ms else 0.0,
        "arith.pair_factor_ms_p99": percentile(pair_ms, 99) if pair_ms else 0.0,
        "arith.cache_hits": c["arith.cache_hit"],
        "arith.cache_misses": c["arith.cache_miss"],
        "arith.cache_hit_ratio": _ratio(
            c["arith.cache_hit"], c["arith.cache_hit"] + c["arith.cache_miss"]),
        "arith.cache_get_s": incl["arith.cache_get"],
        "arith.cache_save_s": incl["arith.cache_save"],
        "bounds.certificate_search_calls": searches,
        "bounds.certificate_search_s": incl["bounds.certificate_search"],
        "bounds.certificate_yield": _ratio(c["bounds.found"], searches),
        "bounds.main_margin_calls": names["bounds.main_margin"],
        "ff.build_ctx_calls": names["ff.build_ctx"],
        "ff.build_ctx_s": incl["ff.build_ctx"],
        "ff.quad_mask_s": incl["ff.quad_mask"],
        "ff.quad_mask_bytes": c["ff.quad_mask_bytes"],
        "ff.table_bytes": c["ff.table_bytes"],
        "ff.varr_eval_calls": names["ff.varr_eval"],
        "ff.varr_eval_s": incl["ff.varr_eval"],
        "ff.irreducible_tests": tests,
        "ff.irreducible_accept_ratio": _ratio(c["ff.irreducible"], tests),
        "ff.find_irreducibles_s": incl["ff.find_irreducibles"],
        "verify.resolve_s": resolve_s,
        "verify.reps_checked": reps,
        "verify.us_per_rep": _ratio(resolve_s * 1e6, reps),
        "verify.enumerate_s": incl["verify.enumerate_R"],
        "cli.scan_s": incl["cli.cmd_scan"],
        **{f"{layer}.self_s": t for layer, t in selfs.items()},
    }
