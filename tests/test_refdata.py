"""Reference-table loaders: checksums, shapes, and the cross-file
bookkeeping the acceptance suite leans on."""

import shutil
from collections import Counter
from fractions import Fraction

import pytest

from primpairs import refdata
from primpairs.refdata import (
    ChecksumMismatch,
    bound_window,
    load_certificate_errata,
    load_certificate_rows,
    load_exception_pairs,
    load_unresolved_pairs,
    load_window_rows,
    verify_checksum,
)


def test_counts():
    assert len(load_exception_pairs()) == 495
    assert len(load_certificate_rows()) == 431
    assert len(load_window_rows()) == 7
    assert len(load_unresolved_pairs()) == 64


def test_exception_sources():
    pairs = load_exception_pairs()
    by_source = Counter(p.source for p in pairs)
    assert by_source == {"listed": 493, "equality-note": 1,
                         "certificate-implied": 1}
    assert [(p.m, p.q) for p in pairs if p.source == "equality-note"] == [(24, 4)]
    assert [(p.m, p.q) for p in pairs if p.source == "certificate-implied"] == [(8, 256)]
    assert len({(p.m, p.q) for p in pairs}) == 495  # no duplicates


def test_certificate_row_shape():
    rows = load_certificate_rows()
    per_m = Counter(r.m for r in rows)
    assert per_m[7] == 185 and per_m[8] == 142
    assert all(per_m[m] == 1 for m in (22, 28, 30, 36))
    for m in per_m:
        srs = sorted(r.sr for r in rows if r.m == m)
        assert srs == list(range(1, per_m[m] + 1))
    first = rows[0]
    assert (first.m, first.sr, first.q, first.l, first.s) == (7, 1, 32, 1, 4)
    assert first.delta == "0.8915505547"
    assert first.Delta == "9.8514897025"


def test_certificates_plus_unresolved_cover_exceptions():
    exceptions = {(p.q, p.m) for p in load_exception_pairs()}
    certified = {(r.q, r.m) for r in load_certificate_rows()}
    unresolved = {(u.q, u.m) for u in load_unresolved_pairs()}
    assert certified & unresolved == set()
    assert certified | unresolved == exceptions


def test_unresolved_groups():
    pairs = load_unresolved_pairs()
    per_group = Counter(p.group for p in pairs)
    assert per_group == {1: 18, 2: 22, 3: 8, 4: 5, 5: 2, 6: 4, 7: 5}
    assert [(p.q, p.m) for p in pairs if p.group == 7] == [
        (2, 14), (2, 16), (2, 18), (2, 20), (2, 24)]


def test_window_rows_content():
    rows = load_window_rows()
    assert [(r.a, r.b) for r in rows] == [(10, 61), (7, 29), (6, 23), (6, 22),
                                          (6, 21), (5, 19), (5, 18)]
    assert [r.part for r in rows] == [1, 1, 1, 1, 1, 2, 2]
    assert rows[6].bound == 969830


def test_checksum_guard(tmp_path, monkeypatch):
    for f in refdata.DATA_DIR.iterdir():
        shutil.copy(f, tmp_path / f.name)
    tampered = tmp_path / "window_rows.csv"
    tampered.write_text(tampered.read_text().replace("969830", "969831"))
    monkeypatch.setattr(refdata, "DATA_DIR", tmp_path)
    monkeypatch.setattr(refdata, "_checked", set())
    with pytest.raises(ChecksumMismatch):
        load_window_rows()
    with pytest.raises(ChecksumMismatch):
        verify_checksum("no_such_table.csv")
    # untouched files still verify against the copied manifest
    load_certificate_rows()


# -- certificate errata, checked without primpairs.arith or primpairs.bounds

# the only rows whose Delta has four integer digits, printed with 8 decimals
COARSE_DELTA_ROWS = {(7, 4096), (7, 3499), (8, 701), (10, 169), (16, 8),
                     (24, 4)}


def _directed(x: Fraction, places: int, up: bool) -> str:
    """x > 0 rounded down (up=False) or up to `places` decimals."""
    scaled = x.numerator * 10 ** places
    digits = -(-scaled // x.denominator) if up else scaled // x.denominator
    whole, frac = divmod(digits, 10 ** places)
    return f"{whole}.{frac:0{places}d}"


def test_bound_window_follows_printed_precision():
    nano = Fraction(1, 10 ** 9)
    assert bound_window("24.4344152110") == nano
    assert bound_window("7.77012840672") == nano
    assert bound_window("5718.64881982") == Fraction(1, 10 ** 8)


def test_errata_against_independent_recomputation():
    """Recompute s, delta, Delta from sympy.factorint(q^m - 1): each
    corrected string (and each coarse Delta) is the exact value rounded the
    table's way at its printed precision, and each printed erratum is not."""
    sympy = pytest.importorskip("sympy")
    rows = {(r.m, r.q): r for r in load_certificate_rows()}
    errata = load_certificate_errata()
    assert len(errata) == 9
    assert {k for k, r in rows.items()
            if len(r.Delta.partition(".")[2]) < 9} == COARSE_DELTA_ROWS
    fixes = {(e.m, e.q, e.column): e for e in errata}
    for m, q in COARSE_DELTA_ROWS | {(e.m, e.q) for e in errata}:
        row = rows[m, q]
        omitted = [p for p in sympy.factorint(q ** m - 1) if row.l % p]
        assert len(omitted) == row.s
        delta = 1 - 2 * sum(Fraction(1, p) for p in omitted)
        Delta = Fraction(2 * row.s - 1) / delta + 2
        for column, exact, up in (("delta", delta, False),
                                  ("Delta", Delta, True)):
            printed = getattr(row, column)
            directed = _directed(exact, len(printed.partition(".")[2]), up)
            fix = fixes.get((m, q, column))
            if fix is None:
                assert printed == directed, (m, q, column)
            else:
                assert fix.printed == printed, (m, q, column)
                assert printed != directed, (m, q, column)
                assert fix.corrected == directed, (m, q, column)
