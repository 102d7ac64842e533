"""The three benchmark workloads and the correctness gate on their outputs.

Each workload body drives the public API of primpairs and returns its raw
outputs; `check` compares them with the shipped reference tables and the
recorded witnesses, outside the timed region.  The seed reaches the
program only as `resolve_pair(seed=...)`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from primpairs import arith, bounds, cli, ff, refdata, verify

N = 2  # the degree bound n of every workload

#: (m, q) pairs on which the main condition holds with equality
EQUALITY_PAIRS = {(16, 4), (20, 4), (24, 4), (20, 8), (8, 256)}
CERTIFIED = 431  # exceptions closed by a sieve certificate

EXHAUSTIVE_PAIR = (2, 5)  # (q, m): every representative is checked
EXHAUSTIVE_REPS = 61_504
RECORDED_SEED = 0
#: (q, m) -> the witness resolve_pair(q, m, 2, seed=RECORDED_SEED) returns.
#: (3, 5) is resolved by sampling, so another seed may find another witness.
WITNESSES = {
    (2, 6): {"f": {"num": [1, 3, 1], "den": [1]}, "a": 0, "b": 0,
             "split": [2, 0]},
    (3, 4): {"f": {"num": [1, 3, 1], "den": [1]}, "a": 0, "b": 0,
             "split": [2, 0]},
    (4, 3): {"f": {"num": [1, 2, 1], "den": [1]}, "a": 0, "b": 0,
             "split": [2, 0]},
    (3, 5): {"f": {"num": [227, 99, 25], "den": [1]}, "a": 0, "b": 1,
             "split": [2, 0]},
}

SAMPLED_PAIRS = ((2, 8), (2, 9), (3, 7), (2, 10), (2, 11), (2, 12))
SAMPLE_PER_SPLIT = 1000
SAMPLED_REPS = SAMPLE_PER_SPLIT * (N + 1)


@dataclass(frozen=True)
class References:
    exceptions: list  # [(m, q)] in table order
    unresolved: frozenset  # {(q, m)}
    certified: frozenset  # {(q, m)} with a listed certificate row
    scan_size: int  # (q, m) pairs the scan tests


def load_references() -> References:
    """Load (and checksum) the reference tables the gate compares with."""
    cascade = bounds.threshold_cascade(N)
    return References(
        [(p.m, p.q) for p in refdata.load_exception_pairs()],
        frozenset((p.q, p.m) for p in refdata.load_unresolved_pairs()),
        frozenset((r.q, r.m) for r in refdata.load_certificate_rows()),
        sum(len(arith.prime_powers_upto(qmax)) for qmax in cascade.values()))


@dataclass
class Gate:
    """Checks attempted and the messages of those that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


_REPS = re.compile(r"(\d+) (?:sampled )?representatives")


def reps_of(verdict) -> int:
    """Representatives checked, as stated in the verdict's coverage."""
    match = _REPS.search(verdict.coverage)
    return int(match.group(1)) if match else 0


# ---------------------------------------------------------------------------
# workload bodies: each returns (outputs, items processed)

def run_scan(workdir: Path, seed: int, refs: References):
    """`scan 2` through the CLI into a fresh cache, then a certificate
    search on every exception, reading the cache the scan saved.  The
    scan has no random input, so the seed is unused."""
    cache_path, out_path = workdir / "factors.json", workdir / "scan.csv"
    code = cli.main(["--cache", str(cache_path), "--out", str(out_path),
                     "scan", str(N)])
    rows = []
    if code == 0:
        rows = [tuple(int(x) for x in line.split(","))
                for line in out_path.read_text().splitlines()]
    cache = arith.FactorCache(cache_path)
    certs = {(q, m): bounds.certificate_search(q, m, N, cache=cache)
             for m, q, _eq in rows}
    return ({"code": code, "rows": rows, "certs": certs},
            refs.scan_size + len(certs))


def run_exhaustive(workdir: Path, seed: int, refs: References):
    pairs = [EXHAUSTIVE_PAIR, *WITNESSES]
    verdicts = {(q, m): verify.resolve_pair(q, m, N, seed=seed)
                for q, m in pairs}
    return verdicts, sum(reps_of(v) for v in verdicts.values())


def run_sampled(workdir: Path, seed: int, refs: References):
    verdicts = {(q, m): verify.resolve_pair(q, m, N, seed=seed,
                                            sample_count=SAMPLE_PER_SPLIT)
                for q, m in SAMPLED_PAIRS}
    return verdicts, sum(reps_of(v) for v in verdicts.values())


# ---------------------------------------------------------------------------
# the gate

def witness_count(q: int, m: int, witness: dict) -> int:
    """Independent recount of a witness cell with brute_force_count; a
    genuine witness has count 0."""
    p, k = arith.factor(q).factors[0]
    ctx = ff.build_ctx(p, k, m)
    f = ff.RationalFunction(ctx, witness["f"]["num"], witness["f"]["den"])
    return verify.brute_force_count(f, witness["a"], witness["b"],
                                    ctx.order, ctx.order)


def check_scan(gate: Gate, out: dict, refs: References) -> None:
    gate.check(out["code"] == 0, f"scan exited with code {out['code']}")
    rows = out["rows"]
    got = [row[:2] for row in rows]
    gate.check(got == sorted(got), "scan rows are not ordered by (m, q)")
    have = set(got)
    for m, q in refs.exceptions:
        gate.check((m, q) in have, f"scan misses (m={m}, q={q})")
    extra = sorted(have - set(refs.exceptions))
    gate.check(not extra and len(have) == len(got),
               f"scan rows not in the table or repeated: {extra[:5]}")
    equality = {(m, q) for m, q, eq in rows if eq}
    gate.check(equality == EQUALITY_PAIRS,
               f"equality rows {sorted(equality)}")
    found = {pair for pair, cert in out["certs"].items()
             if cert is not None and cert.passes}
    for q, m in sorted(out["certs"]):
        want = (q, m) not in refs.unresolved
        gate.check(((q, m) in found) == want,
                   f"certificate for (q={q}, m={m}): found "
                   f"{(q, m) in found}, want {want}")
    gate.check(len(found) == CERTIFIED == len(refs.certified)
               and found == refs.certified,
               f"{len(found)} certificates found, want {CERTIFIED}")


def _check_witness(gate: Gate, q: int, m: int, verdict) -> None:
    gate.check(verdict.witness is not None
               and witness_count(q, m, verdict.witness) == 0,
               f"(q={q}, m={m}): witness {verdict.witness} has a nonzero "
               "count")


def check_exhaustive(gate: Gate, verdicts: dict, refs: References) -> None:
    v = verdicts[EXHAUSTIVE_PAIR]
    gate.check(v.status == verify.VERIFIED_EXHAUSTIVE
               and reps_of(v) == EXHAUSTIVE_REPS,
               f"{EXHAUSTIVE_PAIR}: {v.status}, {v.coverage}")
    for (q, m), want in WITNESSES.items():
        v = verdicts[(q, m)]
        # a witness from exhaustive enumeration (seed None) is canonical
        exact = v.seed in (None, RECORDED_SEED)
        gate.check(v.status == verify.EXCEPTION_WITNESS
                   and (v.witness == want or not exact),
                   f"(q={q}, m={m}): {v.status}, witness {v.witness}")
        _check_witness(gate, q, m, v)


def check_sampled(gate: Gate, verdicts: dict, refs: References) -> None:
    for (q, m), v in verdicts.items():
        if v.status == verify.EXCEPTION_WITNESS:
            _check_witness(gate, q, m, v)
            continue
        gate.check(v.status == verify.VERIFIED_SAMPLED
                   and reps_of(v) == SAMPLED_REPS,
                   f"(q={q}, m={m}): {v.status}, {v.coverage}")


WORKLOADS = {
    "scan": (run_scan, check_scan),
    "exhaustive": (run_exhaustive, check_exhaustive),
    "sampled": (run_sampled, check_sampled),
}
