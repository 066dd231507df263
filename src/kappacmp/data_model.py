"""Observed-data representation for the paired 2x2x2 design.

Two binary tests and a reference (gold) standard are applied to every
subject; the data reduce to eight cell counts, s_ij for diseased subjects
and r_ij for healthy ones, where i is the result of test 1 and j the
result of test 2.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass

from .errors import DomainError, IngestionError

__all__ = [
    "PairedCounts",
    "MAX_SUBJECTS",
    "counts_from_records",
    "apply_continuity_correction",
    "SMALL_SAMPLE",
    "correct_counts",
    "MethodRecommendation",
    "recommend_method",
    "read_table",
    "read_records",
]

CELL_NAMES = ("s11", "s10", "s01", "s00", "r11", "r10", "r01", "r00")
MARGIN_NAMES = ("11", "10", "01", "00")

RECORD_HEADER = "d,t1,t2"

# The most subjects a table holds. Below it every sum of half-counts is
# exact and every product of two cells is finite.
MAX_SUBJECTS = 2 ** 51


@dataclass(frozen=True)
class PairedCounts:
    """The eight observed cell counts of the paired design.

    Each cell is a count, or a count + 0.5 on a continuity-corrected
    table, stored as a float so that both flow through every downstream
    formula unchanged; a table holds at most MAX_SUBJECTS subjects. Any
    other cell, or a larger total, is a DomainError; no estimator checks
    the table again.
    """

    s11: float
    s10: float
    s01: float
    s00: float
    r11: float
    r10: float
    r01: float
    r00: float

    def __post_init__(self):
        for name in CELL_NAMES:
            value = getattr(self, name)
            # compared before float(), which overflows on a huge int; a value
            # that is not a number fails the comparison or float()
            try:
                is_count = 0 <= value <= MAX_SUBJECTS and (2.0 * float(value)).is_integer()
            except (TypeError, ValueError, ArithmeticError):
                is_count = False
            if not is_count:
                raise DomainError(f"cell {name} must be a count or a count + 0.5 "
                                  f"in [0, 2**51], got {value!r}")
            object.__setattr__(self, name, float(value))
        # a sum rounds only past 2**52, so a total past the cap never rounds below it
        if self.n > MAX_SUBJECTS:
            raise DomainError(f"a table holds at most 2**51 subjects, got {self.n!r}")

    @property
    def s(self) -> float:
        """Number of diseased subjects."""
        return self.s11 + self.s10 + self.s01 + self.s00

    @property
    def r(self) -> float:
        """Number of healthy subjects."""
        return self.r11 + self.r10 + self.r01 + self.r00

    @property
    def n(self) -> float:
        """Total sample size."""
        return self.s + self.r

    def cells(self) -> tuple[float, ...]:
        """Cells in canonical order (s11, s10, s01, s00, r11, r10, r01, r00)."""
        return (self.s11, self.s10, self.s01, self.s00,
                self.r11, self.r10, self.r01, self.r00)

    def margins(self) -> tuple[float, ...]:
        """Test-pattern margins s_ij + r_ij in order (11, 10, 01, 00)."""
        return (self.s11 + self.r11, self.s10 + self.r10,
                self.s01 + self.r01, self.s00 + self.r00)

    def swap_tests(self) -> "PairedCounts":
        """Relabel test 1 as test 2 and vice versa (transpose i and j)."""
        return PairedCounts(self.s11, self.s01, self.s10, self.s00,
                            self.r11, self.r01, self.r10, self.r00)


def counts_from_records(records) -> PairedCounts:
    """Tabulate per-subject records into the eight cell counts.

    Accepts (d, t1, t2) triples. A non-binary field raises IngestionError
    naming the offending row (0-based).
    """
    cells = {name: 0 for name in CELL_NAMES}
    for i, rec in enumerate(records):
        try:
            d, t1, t2 = rec
        except (TypeError, ValueError):
            raise IngestionError(f"record {i}: expected (d, t1, t2), got {rec!r}") from None
        if d not in (0, 1) or t1 not in (0, 1) or t2 not in (0, 1):
            raise IngestionError(f"record {i}: fields must be 0 or 1, got {(d, t1, t2)!r}")
        prefix = "s" if d == 1 else "r"
        cells[f"{prefix}{t1}{t2}"] += 1
    return PairedCounts(**cells)


def apply_continuity_correction(counts: PairedCounts) -> PairedCounts:
    """Return a new table with 0.5 added to every cell (n grows by 4)."""
    return PairedCounts(*(cell + 0.5 for cell in counts.cells()))


# Below this many subjects the recommended interval is the corrected Wald ratio.
SMALL_SAMPLE = 100


def correct_counts(counts: PairedCounts, correct: bool | str) -> tuple[PairedCounts, bool]:
    """The working table under ``correct`` (True, False or "auto"), and whether +0.5 was added.

    "auto" corrects tables under SMALL_SAMPLE subjects: for precision, never
    to manufacture estimability, so an empty stratum stays uncorrected.
    """
    if correct == "auto":
        apply = counts.n < SMALL_SAMPLE and counts.s > 0 and counts.r > 0
    else:
        apply = bool(correct)
    return (apply_continuity_correction(counts) if apply else counts), apply


@dataclass(frozen=True)
class MethodRecommendation:
    method: str
    corrected: bool
    note: str


def recommend_method(n: float) -> MethodRecommendation:
    """Interval to prefer at a given sample size."""
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n!r}")
    if n < SMALL_SAMPLE:
        return MethodRecommendation(
            method="wald-ratio", corrected=True,
            note="small sample: Wald interval for the ratio on +0.5-corrected counts")
    if n < 500:
        return MethodRecommendation(
            method="wald-ratio", corrected=False,
            note="moderate sample: Wald interval for the ratio, uncorrected")
    return MethodRecommendation(
        method="any", corrected=False,
        note="large sample: any of the difference or ratio intervals")


def read_table(path_or_file, header: str) -> list[tuple[str, list[str]]]:
    """``("<file>:<line>", fields)`` of each data row of a delimited text file.

    Blank lines and ``#`` lines are skipped. The first other line must be
    ``header``; every later line must split on commas into as many fields
    as the header has, each stripped of surrounding whitespace. The text
    must be UTF-8; a file may start with the byte-order mark that
    spreadsheets write. A path is opened here; any other argument is read as an
    iterable of lines. Every parse error is an IngestionError naming the
    file and, where one is at fault, the line.
    """
    is_path = isinstance(path_or_file, (str, os.PathLike))
    source = str(path_or_file) if is_path else "<stream>"
    width = header.count(",") + 1
    rows = []
    header_seen = False
    lineno = 0
    lines = io.open(path_or_file, "r", encoding="utf-8-sig") if is_path else path_or_file
    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != header:
                    raise IngestionError(
                        f"{source}:{lineno}: expected header {header!r}, got {line!r}")
                header_seen = True
                continue
            fields = [field.strip() for field in line.split(",")]
            if len(fields) != width:
                raise IngestionError(f"{source}:{lineno}: expected {width} comma-separated "
                                     f"values, got {len(fields)}")
            rows.append((f"{source}:{lineno}", fields))
    except UnicodeDecodeError as exc:
        # text is decoded in blocks: the bad byte lies somewhere past the
        # last line read, not necessarily on the next one
        past = f" past line {lineno}" if lineno else ""
        raise IngestionError(f"{source}: not UTF-8 text{past} ({exc.reason})") from None
    finally:
        if is_path:
            lines.close()
    if not header_seen:
        raise IngestionError(f"{source}: empty file, expected header {header!r}")
    return rows


def read_records(path_or_file) -> list[tuple[int, int, int]]:
    """The (d, t1, t2) triple of each subject of a record file (header ``d,t1,t2``)."""
    records = []
    for where, fields in read_table(path_or_file, RECORD_HEADER):
        for field in fields:
            if field not in ("0", "1"):
                raise IngestionError(f"{where}: values must be 0 or 1, got {field!r}")
        d, t1, t2 = fields
        records.append((int(d), int(t1), int(t2)))
    return records
