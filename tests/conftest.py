import functools
import re

import pytest

from primpairs.arith import FactorCache
from primpairs.ff import build_ctx

CRITERIA = {
    1: "certificate table reproduction (s, delta, Delta, sieve pass)",
    2: "exception scan regeneration under the threshold cascade",
    3: "certificate closure: search succeeds except on the unresolved set",
    4: "worst-case window digits, wide window, factorial-bound boundary",
    5: "indicator identities and character/brute-force crosscheck",
    6: "character sum modulus bound",
    7: "exhaustive count table: reproducible, independently recounted",
}

_CRITERION_PAT = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION_PAT.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            num = int(match.group(1))
            if outcome != "passed":
                seen[num] = "FAIL"
            else:
                seen.setdefault(num, "PASS")
    if not seen:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA):
        status = seen.get(num, "not run")
        terminalreporter.write_line(
            f"criterion {num}: {status} - {CRITERIA[num]}")


class TabledField:
    """A small context's scalar field arithmetic read from Python lists:
    the same codes and results as its own add, sub, mul, neg and inv,
    several times faster for scalar oracles such as is_irreducible_poly."""

    def __init__(self, ctx):
        self.card = self.N = ctx.N
        codes = range(ctx.N)
        self._add = [[ctx.add(a, b) for b in codes] for a in codes]
        self._mul = [[ctx.mul(a, b) for b in codes] for a in codes]
        self._neg = [ctx.neg(a) for a in codes]
        self._inv = [None] + [ctx.inv(a) for a in codes[1:]]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]


@pytest.fixture(scope="session")
def scalar_field():
    """ctx -> the field scalar oracles run on: a TabledField for at most
    256 elements (built once per context), ctx itself above that."""
    tabled = functools.cache(TabledField)
    return lambda ctx: tabled(ctx) if ctx.N <= 256 else ctx


@pytest.fixture(scope="session")
def fcache(tmp_path_factory):
    """Factorizations of q^m - 1 recur across the acceptance criteria; one
    shared cache keeps the suite at scan speed."""
    return FactorCache(tmp_path_factory.mktemp("cache") / "factors.json")


@pytest.fixture(scope="session")
def ctx_f4():
    return build_ctx(2, 1, 2)


@pytest.fixture(scope="session")
def ctx_f8():
    return build_ctx(2, 1, 3)


@pytest.fixture(scope="session")
def ctx_f9():
    return build_ctx(3, 1, 2)


@pytest.fixture(scope="session")
def ctx_f3_4():
    return build_ctx(3, 1, 4)


@pytest.fixture(scope="session")
def ctx_f2_6():
    return build_ctx(2, 1, 6)


@pytest.fixture(scope="session")
def ctx_f64_tower():
    # same field size as ctx_f2_6 but built as F_4[y]/(cubic)
    return build_ctx(2, 2, 3)


@pytest.fixture(scope="session")
def ctx_f3_7():
    return build_ctx(3, 1, 7)
