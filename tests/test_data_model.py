import io
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from kappacmp.cli import build_analysis_report
from kappacmp.data_model import (
    CELL_NAMES,
    MARGIN_NAMES,
    PairedCounts,
    apply_continuity_correction,
    correct_counts,
    counts_from_records,
    read_records,
    read_table,
)
from kappacmp.errors import DomainError, IngestionError, NonEstimableError
from kappacmp.kappa_core import accuracy_from_counts


def table8_records():
    """Per-subject records that tabulate back to the n=300 worked example."""
    cells = {("s", 1, 1): 41, ("s", 1, 0): 0, ("s", 0, 1): 40, ("s", 0, 0): 8,
             ("r", 1, 1): 5, ("r", 1, 0): 1, ("r", 0, 1): 24, ("r", 0, 0): 181}
    records = []
    for (stratum, t1, t2), count in cells.items():
        d = 1 if stratum == "s" else 0
        records.extend([(d, t1, t2)] * count)
    return records


class TestPairedCounts:
    def test_derived_totals(self, table8):
        assert table8.s == 89
        assert table8.r == 211
        assert table8.n == 300

    @pytest.mark.parametrize("value,name", [
        (-1, "s00"), (math.nan, "s11"), (math.inf, "r00"), (-math.inf, "s10"), (0.3, "r10"),
        (1e-300, "s01"), (2.25, "r11"), (7.0000001, "r10"), (2**51 + 0.5, "r01"),
        (10**400, "s11"), ("1", "s11"), (None, "s10"), ([1], "r11"), (b"1", "r00"),
        (1 + 0j, "s01"), (Decimal("NaN"), "r01"),
    ], ids=["-1", "nan", "inf", "-inf", "0.3", "1e-300", "2.25", "7.0000001", "2**51+0.5",
            "401 digits", "str", "None", "list", "bytes", "complex", "Decimal NaN"])
    def test_cell_outside_the_domain_refused(self, value, name):
        # the cap is compared before float(), so a huge int is no OverflowError,
        # and a value that is not a number is refused as any other
        cells = dict.fromkeys(CELL_NAMES, 1)
        cells[name] = value
        error = f"cell {name} must be a count or a count + 0.5 in [0, 2**51], got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
            PairedCounts(**cells)

    def test_cells_of_other_number_types_accepted(self):
        counts = PairedCounts(np.int64(3), Fraction(1, 2), Decimal("2"), 1, 1, 1, 1, 1)
        assert counts.cells() == (3.0, 0.5, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert all(type(cell) is float for cell in counts.cells())

    def test_total_past_the_cap_refused(self):
        # a table of 2**51 subjects is kept, half-counts included, and half a subject more is not
        assert PairedCounts(2**51 - 3.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5).n == 2**51
        with pytest.raises(DomainError, match=r"at most 2\*\*51 subjects, got 2251799813685248.5"):
            PairedCounts(2**50, 0, 0, 0, 0, 0, 0.5, 2**50)
        # 2**52 + 0.5 rounds to 2**52, which is still past the cap
        with pytest.raises(DomainError, match=r"at most 2\*\*51 subjects, got 4503599627370496.0"):
            PairedCounts(2**51, 2**51, 0.5, 0, 0, 0, 0, 0)

    def test_swap_tests_transposes(self, table8):
        swapped = table8.swap_tests()
        assert swapped.s10 == table8.s01
        assert swapped.r01 == table8.r10
        assert swapped.swap_tests() == table8


class TestCountsFromRecords:
    def test_empty_sequence(self):
        counts = counts_from_records([])
        assert counts.cells() == (0,) * 8
        assert counts.n == 0

    def test_table8_reconstruction(self, table8):
        assert counts_from_records(table8_records()) == table8

    def test_single_record(self):
        counts = counts_from_records([(1, 1, 0)])
        assert counts.s10 == 1
        assert sum(counts.cells()) == 1

    def test_permutation_invariant(self):
        records = table8_records()
        rng = np.random.RandomState(0)
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert counts_from_records(shuffled) == counts_from_records(records)

    def test_tuples_accepted(self):
        assert counts_from_records([(1, 1, 1), (0, 0, 0)]) == \
            PairedCounts(1, 0, 0, 0, 0, 0, 0, 1)

    def test_bad_row_named(self):
        with pytest.raises(IngestionError, match="record 2"):
            counts_from_records([(1, 1, 1), (0, 0, 0), (1, 2, 0)])


class TestValidateCounts:
    def test_all_diseased_not_estimable(self):
        counts = PairedCounts(3, 2, 1, 4, 0, 0, 0, 0)
        working, applied = correct_counts(counts, "auto")
        assert not applied and working == counts  # no correction to manufacture estimability
        with pytest.raises(NonEstimableError):
            accuracy_from_counts(working)

    def test_two_zero_margins_need_correction(self):
        # s10+r10 = s01+r01 = 0 with both strata populated
        counts = PairedCounts(5, 0, 0, 3, 2, 0, 0, 7)
        accuracy_from_counts(counts)  # estimable
        zero = tuple(name for name, m in zip(MARGIN_NAMES, counts.margins()) if m == 0)
        assert zero == ("10", "01")
        report = build_analysis_report(counts, cs=[0.5], methods=["wald-diff"], correct=False)
        assert any("+0.5 correction" in w for w in report.warnings)


class TestContinuityCorrection:
    def test_zero_counts(self):
        corrected = apply_continuity_correction(PairedCounts(*(0,) * 8))
        assert corrected.cells() == (0.5,) * 8
        assert corrected.n == 4

    def test_table8(self, table8):
        corrected = apply_continuity_correction(table8)
        assert corrected.s11 == 41.5
        assert corrected.r00 == 181.5
        assert corrected.n == 304
        assert table8.s11 == 41  # value semantics: original untouched

    def test_twice_adds_one(self, table8):
        twice = apply_continuity_correction(apply_continuity_correction(table8))
        assert twice.cells() == tuple(c + 1.0 for c in table8.cells())

    def test_corrected_counts_always_estimable(self):
        for cells in [(0,) * 8, (3, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 2, 0, 0, 0)]:
            accuracy_from_counts(apply_continuity_correction(PairedCounts(*cells)))

    def test_preserves_cell_differences(self, table8):
        corrected = apply_continuity_correction(table8)
        base = table8.cells()
        fixed = corrected.cells()
        for i in range(8):
            for j in range(8):
                assert fixed[i] - fixed[j] == pytest.approx(base[i] - base[j])


class TestRecordFile:
    def test_round_trip(self, tmp_path, table8):
        path = tmp_path / "records.csv"
        lines = ["d,t1,t2"]
        lines += [f"{d},{t1},{t2}" for d, t1, t2 in table8_records()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_records(path) == table8_records()
        assert counts_from_records(read_records(path)) == table8

    def test_byte_order_mark_is_skipped(self, tmp_path, table8):
        path = tmp_path / "bom.csv"
        lines = ["d,t1,t2"] + [f"{d},{t1},{t2}" for d, t1, t2 in table8_records()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        assert read_records(path) == table8_records()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t1,t2,d\n1,1,1\n", encoding="utf-8")
        with pytest.raises(IngestionError, match="header"):
            read_records(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("d,t1,t2\n1,1,1\n0,2,0\n", encoding="utf-8")
        with pytest.raises(IngestionError, match=":3"):
            read_records(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestionError):
            read_records(path)


class TestReadTable:
    def test_rows_carry_their_file_and_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# note\n\na,b\n1, 2\n\n# more\n 3 ,4 \n", encoding="utf-8")
        assert read_table(path, "a,b") == [(f"{path}:4", ["1", "2"]),
                                           (f"{path}:7", ["3", "4"])]

    def test_stream_is_named_stream(self):
        assert read_table(io.StringIO("a,b\n1,2\n"), "a,b") == [("<stream>:2", ["1", "2"])]

    @pytest.mark.parametrize("text, error", [
        ("", "<stream>: empty file, expected header 'a,b'"),
        ("# only a comment\n\n", "<stream>: empty file, expected header 'a,b'"),
        ("a, b\n", "<stream>:1: expected header 'a,b', got 'a, b'"),
        ("a,b\n1,2,3\n", "<stream>:2: expected 2 comma-separated values, got 3"),
    ], ids=["empty", "comments-only", "header", "fields"])
    def test_errors_name_the_line(self, text, error):
        with pytest.raises(IngestionError) as exc:
            read_table(io.StringIO(text), "a,b")
        assert str(exc.value) == error

    def test_non_utf8_path(self, tmp_path):
        # well past the first block of decoded text, so some lines read first
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"\xff,2\n")
        with pytest.raises(IngestionError, match=r"t\.csv: not UTF-8 text past line \d+ "
                                                 r"\(invalid start byte\)"):
            read_table(path, "a,b")

    def test_non_utf8_stream(self):
        stream = io.TextIOWrapper(io.BytesIO(b"a,b\n\xc3\n"), encoding="utf-8")
        with pytest.raises(IngestionError, match="<stream>: not UTF-8 text"):
            read_table(stream, "a,b")
