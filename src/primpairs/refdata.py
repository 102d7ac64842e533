"""Loaders for the reference tables shipped with the package.

Five CSVs live in data/: the exception pairs a full scan must reproduce,
the per-pair certificate rows with their printed delta/Delta strings, the
errata to those strings, the worst-case window table, and the pairs no
certificate resolves.  Every load verifies the file against
data/CHECKSUMS.sha256 first, so a silently edited table fails loudly rather
than skewing a comparison.  delta/Delta stay strings: the printed digits are
the contract and parsing them to float would discard exactly the information
the tests need.

The contract is the certificate table's column headings, "delta >" and
"Delta <": each printed delta is a lower bound on the exact value, each
printed Delta an upper bound, and each lies within bound_window(printed) of
it.  certificate_rows.csv is kept as the source printed it; the nine strings
that break the contract are listed, with their directed roundings, in
certificate_errata.csv.
"""

from __future__ import annotations

import csv
import hashlib
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

DATA_DIR = Path(__file__).parent / "data"

_checked: set[str] = set()

NANO = Fraction(1, 10 ** 9)


class ChecksumMismatch(RuntimeError):
    pass


def verify_checksum(name: str) -> None:
    if name in _checked:
        return
    sums = {}
    for line in (DATA_DIR / "CHECKSUMS.sha256").read_text().splitlines():
        digest, fname = line.split()
        sums[fname] = digest
    if name not in sums:
        raise ChecksumMismatch(f"{name} has no recorded checksum")
    actual = hashlib.sha256((DATA_DIR / name).read_bytes()).hexdigest()
    if actual != sums[name]:
        raise ChecksumMismatch(
            f"{name}: checksum {actual} does not match recorded {sums[name]}")
    _checked.add(name)


def _rows(name: str):
    verify_checksum(name)
    with open(DATA_DIR / name, newline="") as fh:
        yield from csv.DictReader(fh)


class ExceptionPair(NamedTuple):
    m: int
    q: int
    source: str  # listed | equality-note | certificate-implied


class CertificateRow(NamedTuple):
    m: int
    sr: int
    q: int
    l: int
    s: int
    delta: str  # printed lower bound, digits kept verbatim
    Delta: str  # printed upper bound


class CertificateErratum(NamedTuple):
    m: int
    q: int
    column: str  # delta | Delta
    printed: str  # the certificate table's string, verbatim
    corrected: str  # the exact value rounded the table's way at that precision


class WindowRow(NamedTuple):
    sr: int
    a: int
    b: int
    log2_Wl: int
    delta: str
    Delta: str
    bound: int
    part: int


class UnresolvedPair(NamedTuple):
    group: int
    q: int
    m: int


def load_exception_pairs() -> list[ExceptionPair]:
    return [ExceptionPair(int(r["m"]), int(r["q"]), r["source"])
            for r in _rows("exception_pairs.csv")]


def load_certificate_rows() -> list[CertificateRow]:
    return [CertificateRow(int(r["m"]), int(r["sr"]), int(r["q"]), int(r["l"]),
                           int(r["s"]), r["delta"], r["Delta"])
            for r in _rows("certificate_rows.csv")]


def load_certificate_errata() -> list[CertificateErratum]:
    return [CertificateErratum(int(r["m"]), int(r["q"]), r["column"],
                               r["printed"], r["corrected"])
            for r in _rows("certificate_errata.csv")]


def load_window_rows() -> list[WindowRow]:
    return [WindowRow(int(r["sr"]), int(r["a"]), int(r["b"]),
                      int(r["log2_Wl"]), r["delta"], r["Delta"],
                      int(r["bound"]), int(r["part"]))
            for r in _rows("window_rows.csv")]


def load_unresolved_pairs() -> list[UnresolvedPair]:
    return [UnresolvedPair(int(r["group"]), int(r["q"]), int(r["m"]))
            for r in _rows("unresolved_pairs.csv")]


def bound_window(printed: str) -> Fraction:
    """How far a printed bound may lie from its exact value: 1e-9, or one
    unit in the last printed place when that is coarser (a Delta printed
    with 8 decimals cannot come within 1e-9 but by chance)."""
    places = len(printed.partition(".")[2])
    return max(NANO, Fraction(1, 10 ** places))
