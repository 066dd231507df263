import hashlib
import json
import re
from pathlib import Path

import pytest

import kappacmp.simulation as simulation
from conftest import PAPER_GRID
from kappacmp.cli import build_analysis_report, main
from kappacmp.data_model import PairedCounts
from kappacmp.errors import FiellerInvalidError
from kappacmp.inference import ConfidenceConfig, fieller_ratio_ci

TABLE8 = ["41", "0", "40", "8", "5", "1", "24", "181"]
FAST = ["--bootstrap-b", "100", "--bayes-m", "1000"]
DET_METHODS = ["--methods", "wald-diff,wald-ratio,log-ratio,fieller-ratio"]
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_machine(path):
    values = {}
    for line in path.read_text(encoding="utf-8").strip().split("\n"):
        key, _, value = line.partition("=")
        values[key] = value
    return values


class TestAnalyze:
    def test_table8_cohen_row(self, capsys, tmp_path):
        out_path = tmp_path / "report.txt"
        code, out, _ = run(capsys, ["analyze", *TABLE8, "--c", "0.5",
                                    *DET_METHODS, "--out", str(out_path)])
        assert code == 0
        # delta prints as -0.223 (the published table rounds the rounded kappas)
        assert "0.501" in out and "0.723" in out and "-0.223" in out
        assert "-0.345" in out and "-0.100" in out
        assert out_path.read_text(encoding="utf-8") == out

    def test_sample_size_plan(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["analyze", *TABLE8, "--c", "0.9",
                                    "--precision", "0.10", *DET_METHODS,
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "required n = 435" in out
        assert "add 135 subjects" in out

    def test_degenerate_stratum_is_an_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["analyze", "1", "0", "0", "0", "0", "0", "0", "0",
                                    "--c", "0.5", "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert err == "error: need both strata non-empty to estimate (s=1, r=0)\n"

    @pytest.mark.parametrize("cells,strata", [
        (["5", "3", "2", "1", "0", "0", "0", "0"], "s=11, r=0"),
        (["0", "0", "0", "0", "5", "3", "2", "1"], "s=0, r=11"),
    ], ids=["healthy-empty", "diseased-empty"])
    def test_analyze_and_plan_report_an_empty_stratum_alike(self, capsys, tmp_path,
                                                           cells, strata):
        expected = f"error: need both strata non-empty to estimate ({strata})\n"
        code, out, err = run(capsys, ["analyze", *cells, "--c", "0.5",
                                      "--out", str(tmp_path / "r.txt")])
        assert (code, out, err) == (1, "", expected)
        code, out, err = run(capsys, ["plan", *cells, "--c", "0.5", "--precision", "0.1"])
        assert (code, out, err) == (1, "", expected)

    @pytest.mark.parametrize("correct", [[], ["--correct"]])
    def test_empty_table_is_an_error(self, capsys, tmp_path, correct):
        code, _, err = run(capsys, ["analyze", *["0"] * 8, *correct,
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert err == "error: sample size must be at least 1, got 0.0\n"

    def test_header_only_records_are_an_error(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("d,t1,t2\n", encoding="utf-8")
        code, _, err = run(capsys, ["analyze", "--records", str(records), "--correct",
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert err == "error: sample size must be at least 1, got 0.0\n"

    def test_explicit_correction_rescues_empty_stratum(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["analyze", "5", "3", "2", "1", "0", "0", "0", "0",
                                    "--c", "0.5", "--correct", *DET_METHODS,
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "continuity correction" in out

    def test_fractional_counts_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "41", "0.5", "40", "8", "5", "1", "24", "181", "--c", "0.5"])
        assert exc.value.code == 2

    def test_wrong_count_arity_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "41", "0", "40", "--c", "0.5"])
        assert exc.value.code == 2

    def test_records_ingestion(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        lines = ["d,t1,t2"] + ["1,1,0"] * 30 + ["1,0,1"] * 25 + ["1,1,1"] * 40 \
            + ["0,0,0"] * 150 + ["0,1,1"] * 5 + ["0,0,1"] * 10
        records.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, ["analyze", "--records", str(records),
                                    "--c", "0.5", *DET_METHODS,
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "n = 260" in out

    def test_records_with_a_byte_order_mark_read_like_without(self, capsys, tmp_path):
        # spreadsheets export "CSV UTF-8" with a BOM before the header
        text = "d,t1,t2\n" + "1,1,0\n" * 30 + "1,0,1\n" * 25 + "0,0,0\n" * 150 + "0,0,1\n" * 10
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        reports = [run(capsys, ["analyze", "--records", str(path), "--c", "0.5", *DET_METHODS,
                                "--out", "-"]) for path in (plain, marked)]
        assert reports[0] == reports[1] and reports[0][0] == 0

    def test_machine_out_matches_report(self, capsys, tmp_path):
        machine = tmp_path / "machine.txt"
        code, _, _ = run(capsys, ["analyze", *TABLE8, "--c", "0.5", *DET_METHODS,
                                  "--out", str(tmp_path / "r.txt"),
                                  "--machine-out", str(machine)])
        assert code == 0
        values = parse_machine(machine)
        report = build_analysis_report(
            PairedCounts(41, 0, 40, 8, 5, 1, 24, 181), cs=[0.5],
            methods=("wald-diff", "wald-ratio", "log-ratio", "fieller-ratio"))
        row = report.rows[0]
        assert float(values["row.0.kappa1"]) == row.kappa1
        assert float(values["row.0.delta"]) == row.delta
        assert float(values["row.0.ci.wald-diff.lower"]) == row.intervals["wald-diff"].lower
        assert float(values["accuracy.se1"]) == report.accuracy.se1
        assert float(values["compare.c_prime"]) == report.c_prime
        assert values["compare.rule"] == "c3"

    def test_default_grid_includes_crossover(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["analyze", *TABLE8, *DET_METHODS,
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "0.1902" in out
        for c in ("0.1 ", "0.5 ", "0.9 "):
            assert f"  {c}" in out

    def test_stochastic_methods_smoke(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["analyze", *TABLE8, "--c", "0.9", *FAST,
                                    "--seed", "3", "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "boot-ratio" in out and "bayes-ratio" in out

    def test_inverse_flag(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["analyze", *TABLE8, "--c", "0.9", *DET_METHODS,
                                    "--inverse", "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "inverse ratio" in out
        assert "wald-ratio (scaled)" in out
        assert "wald-ratio (reciprocal)" in out

    def test_scaled_inverse_is_the_wald_ratio_of_the_swapped_table(self, capsys, tmp_path):
        machine, swapped = tmp_path / "machine.txt", tmp_path / "swapped.txt"
        for cells, extra, path in ((TABLE8, ["--inverse"], machine),
                                   (["41", "40", "0", "8", "5", "24", "1", "181"], [], swapped)):
            code, _, _ = run(capsys, ["analyze", *cells, "--methods", "wald-ratio", *extra,
                                      "--out", "-", "--machine-out", str(path)])
            assert code == 0
        values, want = parse_machine(machine), parse_machine(swapped)
        rows = [key[:-2] for key in values if key.endswith(".c")]
        assert len(rows) == 10
        for row in rows:
            assert values[f"{row}.c"] == want[f"{row}.c"]
            for bound in ("lower", "upper"):
                assert (values[f"{row}.inverse.wald-ratio.scaled.{bound}"]
                        == want[f"{row}.ci.wald-ratio.{bound}"])


class TestWarnings:
    def test_negative_dependence_flagged(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["analyze", "2", "30", "30", "2", "1", "20", "20", "40",
                                    "--c", "0.5", "--no-correct", *DET_METHODS,
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "outside theoretical bounds" in out

    def test_degenerate_margins_flagged(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["analyze", "50", "0", "0", "30", "20", "0", "0", "70",
                                    "--c", "0.5", "--no-correct", *DET_METHODS,
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "zero test-pattern margins: 10, 01" in out
        assert "two or more zero margins" in out and "+0.5" in out

    def test_single_zero_margin_flagged(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["analyze", "5", "0", "1", "3", "2", "0", "3", "7",
                                    "--c", "0.5", "--no-correct", *DET_METHODS,
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "zero test-pattern margins: 10\n" in out
        assert "two or more zero margins" not in out  # no +0.5 warning

    def test_worked_table_is_clean(self, table8):
        report = build_analysis_report(table8, cs=[0.5], methods=["wald-diff"])
        assert not report.corrected
        assert report.warnings == ()

    def test_anti_informative_test_flagged(self, capsys, tmp_path):
        # test 1 scores below chance on this table (negative Youden estimate)
        code, out, _ = run(capsys, ["analyze", "2", "1", "8", "9", "9", "8", "1", "3",
                                    "--c", "0.5", "--no-correct",
                                    "--methods", "wald-diff",
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "Youden index" in out and "no better than chance" in out
        assert "ordering rules not applicable" in out

    def test_small_sample_correction_noted(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["analyze", "10", "2", "6", "4", "2", "1", "8", "30",
                                    "--c", "0.5", *DET_METHODS,
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "continuity correction applied" in out

    def test_fieller_invalid_reported_not_fatal(self, capsys, tmp_path):
        counts = None
        for cells in [(2, 3, 3, 2, 3, 2, 2, 4), (3, 2, 2, 3, 2, 3, 3, 2),
                      (4, 1, 1, 4, 2, 3, 3, 3), (2, 2, 1, 3, 3, 3, 2, 3)]:
            candidate = PairedCounts(*cells)
            try:
                fieller_ratio_ci(candidate, 0.5, ConfidenceConfig())
            except FiellerInvalidError:
                counts = cells
                break
            except Exception:
                continue
        assert counts is not None, "no Fieller-invalid candidate found"
        code, out, _ = run(capsys, ["analyze", *[str(c) for c in counts],
                                    "--c", "0.5", "--no-correct",
                                    "--methods", "wald-diff,fieller-ratio",
                                    "--out", str(tmp_path / "r.txt")])
        assert code == 0
        assert "Fieller interval invalid" in out
        assert "invalid" in out

    def test_every_interval_error_is_warned_inverse_ones_included(self, capsys, tmp_path):
        # both resampled ratio intervals straddle zero here, so --inverse
        # records their undefined reciprocals as inverse-* errors
        machine = tmp_path / "m.txt"
        code, out, _ = run(capsys, ["analyze", "10", "5", "8", "7", "6", "9", "5", "10",
                                    "--c", "0.5", "--inverse", "--bootstrap-b", "200",
                                    "--bayes-m", "1000", "--out", str(tmp_path / "r.txt"),
                                    "--machine-out", str(machine)])
        assert code == 0
        values = parse_machine(machine)
        errors = [(key.split(".")[3], value) for key, value in values.items()
                  if key.startswith("row.0.ci.") and key.endswith(".error")]
        assert [method for method, _ in errors][-2:] == ["inverse-boot-ratio",
                                                         "inverse-bayes-ratio"]
        names = {"fieller-ratio": "Fieller"}
        warned = [value for key, value in values.items()
                  if key.startswith("warning.") and " interval invalid at " in value]
        assert warned == [f"{names.get(method, method)} interval invalid at c=0.5: {error}"
                          for method, error in errors]
        assert "inverse-bayes-ratio interval invalid at c=0.5: interval (" in out


class TestCurve:
    def read_rows(self, path):
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "c,kappa1,kappa2"
        return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]

    def crossing(self, rows):
        for (c0, a0, b0), (c1, a1, b1) in zip(rows, rows[1:]):
            if (a0 - b0) == 0 or (a0 - b0) * (a1 - b1) < 0:
                return 0.5 * (c0 + c1)
        return None

    def test_counts_input_crosses_at_crossover(self, capsys, tmp_path):
        out = tmp_path / "curve.txt"
        code, _, _ = run(capsys, ["curve", *TABLE8, "--grid-points", "1001",
                                  "--out", str(out)])
        assert code == 0
        rows = self.read_rows(out)
        assert len(rows) == 1001
        assert self.crossing(rows) == pytest.approx(0.1902, abs=1e-3)

    def test_parameter_input_balanced_prevalence(self, capsys, tmp_path):
        out = tmp_path / "curve.txt"
        code, _, _ = run(capsys, ["curve", "--se1", "0.80", "--sp1", "0.95",
                                  "--se2", "0.90", "--sp2", "0.85", "--p", "0.5",
                                  "--grid-points", "201", "--out", str(out)])
        assert code == 0
        assert self.crossing(self.read_rows(out)) == pytest.approx(0.50, abs=5e-3)

    def test_single_point_grid(self, capsys, tmp_path):
        out = tmp_path / "curve.txt"
        code, _, _ = run(capsys, ["curve", *TABLE8, "--grid", "0.25", "--out", str(out)])
        assert code == 0
        assert len(self.read_rows(out)) == 1

    @pytest.mark.parametrize("grid", [",", "", " , ", "0.2,x"])
    def test_empty_or_non_numeric_grid_is_a_usage_error(self, grid, capsys, tmp_path):
        out = tmp_path / "curve.txt"
        with pytest.raises(SystemExit) as exc:
            main(["curve", *TABLE8, "--grid", grid, "--out", str(out)])
        assert exc.value.code == 2
        assert f"--grid must be a comma list of numbers, got {grid!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_parameters_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["curve", "--se1", "0.8", "--sp1", "0.95",
                                    "--se2", "0.9", "--sp2", "0.85", "--p", "1.5",
                                    "--out", str(tmp_path / "c.txt")])
        assert code == 1
        assert "prevalence" in err


BATCH = ("k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n"
         "0.3,0.6,0.8,0.8,0.25,0.5,0.5,80,120\n")


class TestSimulate:
    def test_deterministic_report(self, capsys, tmp_path):
        batch = tmp_path / "batch.csv"
        batch.write_text(BATCH, encoding="utf-8")
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        for out in (out1, out2):
            code, _, _ = run(capsys, ["simulate", "--batch", str(batch),
                                      "--seed", "5", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_batch_with_a_byte_order_mark_reads_like_without(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(BATCH, encoding="utf-8")
        marked.write_text(BATCH, encoding="utf-8-sig")
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        for batch, out in ((plain, out1), (marked, out2)):
            code, _, _ = run(capsys, ["simulate", "--batch", str(batch), *DET_METHODS,
                                      "--seed", "5", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_invariance(self, capsys, tmp_path):
        # two rows, so that the second reuses the workers of the first
        batch = tmp_path / "batch.csv"
        batch.write_text(BATCH + "0.21,0.14,0.81,0.72,0.5,0.1,0.5,60,100\n", encoding="utf-8")
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        run(capsys, ["simulate", "--batch", str(batch), "--seed", "5",
                     "--out", str(out1)])
        run(capsys, ["simulate", "--batch", str(batch), "--seed", "5",
                     "--jobs", "2", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    # sha256 of each report: the first recorded before the bootstrap tables and
    # the posterior draws were shared between the difference and the ratio, the
    # second (paper scenario 5 at n = 25: many redraws) before the coverage
    # tally took its tables from a source
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("row, digest", [
        ("0.30,0.60,0.80,0.80,0.25,0.5,0.5,40,100",
         "08d4dfe3f1eac56b8d7ffea02f303954b473c7cd00ec870127f4b5d88a4b6151"),
        ("0.60,0.60,0.40,0.90,0.05,0.9,0.5,25,100",
         "823a995e9eeb61e4c0afe5178d9332f6306ca688c33d92432a9a1da558b86870"),
    ], ids=["scenario-n40", "redraws-n25"])
    def test_all_methods_report_matches_recorded_digest(self, row, digest, jobs, capsys,
                                                        tmp_path):
        batch = tmp_path / "batch.csv"
        batch.write_text(f"k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n{row}\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        code, _, _ = run(capsys, ["simulate", "--batch", str(batch), "--methods",
                                  "wald-diff,boot-diff,bayes-diff,wald-ratio,log-ratio,"
                                  "fieller-ratio,boot-ratio,bayes-ratio",
                                  *FAST, "--seed", "3", "--jobs", jobs, "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("last, error", [
        ("0.21,0.14,0.81,0.72,0.5,0.1,0.5,60,50", "{batch}:3: need at least 100 replicates, got 50"),
        ("0.21,0.14,0.81,0.72,0.5,0.1,1.5,60,100",
         "{batch}:3: dependence fraction must be in [0, 1]"),
        ("0.21,0.14,0.81,0.72,0.5,0.1,0.5,1e300,100",
         "{batch}:3: sample size must be at most 2**26 = 67108864, got 1e+300"),
    ], ids=["N=50", "f=1.5", "n=1e300"])
    def test_bad_last_row_fails_before_any_replicate(self, last, error, capsys, tmp_path,
                                                     monkeypatch):
        calls = []
        run_range = simulation._run_range

        def counted(args):
            calls.append(args)
            return run_range(args)

        monkeypatch.setattr(simulation, "_run_range", counted)
        batch = tmp_path / "batch.csv"
        batch.write_text(BATCH + last + "\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        code, _, err = run(capsys, ["simulate", "--batch", str(batch), "--out", str(out)])
        assert code == 1
        assert err.startswith("error: " + error.format(batch=batch))
        assert calls == [] and not out.exists()

    def test_unwritable_out_fails_before_any_replicate(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(simulation, "_run_range", calls.append)
        batch = tmp_path / "batch.csv"
        batch.write_text(BATCH, encoding="utf-8")
        out = tmp_path / "missing" / "report.txt"
        code, _, err = run(capsys, ["simulate", "--batch", str(batch), "--out", str(out)])
        assert code == 1
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert calls == []

    def test_demo06_grid_matches_the_recorded_digest(self, capsys, tmp_path):
        # grids/paper.csv less scenario 2, at N = 500: its report is the one
        # the benchmark's coverage_closed_grid digest records
        lines, skip = [], False
        for line in PAPER_GRID.read_text(encoding="utf-8").splitlines():
            if line.startswith("# scenario"):
                skip = line.startswith("# scenario 2:")
            if not skip:
                lines.append(re.sub(r",2000$", ",500", line))
        batch = tmp_path / "batch.csv"
        batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        code, _, _ = run(capsys, ["simulate", "--batch", str(batch), *DET_METHODS,
                                  "--seed", "0", "--out", str(out)])
        assert code == 0
        recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == recorded["coverage_closed_grid"]

    def test_small_sample_grid_matches_the_recorded_digest(self, capsys, tmp_path):
        # sha256 of the +0.5-corrected ratio-method tables at N = 100, recorded
        # from the scenario list that grids/paper_small.csv replaced
        text = PAPER_GRID.with_name("paper_small.csv").read_text(encoding="utf-8")
        batch = tmp_path / "batch.csv"
        batch.write_text(re.sub(r",2000$", ",100", text, flags=re.MULTILINE), encoding="utf-8")
        code, out, err = run(capsys, ["simulate", "--batch", str(batch), "--correct",
                                      "--methods", "wald-ratio,log-ratio,fieller-ratio",
                                      "--seed", "0"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "f9afcb88c1d21e37f981c7cebf6cce8350cb8e052032ee2e2c53b269124be834")
        progress = err.splitlines()
        assert len(progress) == 25 and progress[-1].startswith("done in ")
        assert progress[2].startswith("row 3/24 n=100 N=100  wald-ratio ")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, jobs, capsys, tmp_path):
        batch = tmp_path / "batch.csv"
        batch.write_text(BATCH, encoding="utf-8")
        code, out, err = run(capsys, ["simulate", "--batch", str(batch), "--jobs", jobs])
        assert code == 1 and out == ""
        assert err == f"error: jobs must be an integer >= 1, got {jobs}\n"

    def test_zero_replicates_is_usage_error(self, capsys, tmp_path):
        batch = tmp_path / "batch.csv"
        batch.write_text("k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n"
                         "0.3,0.6,0.8,0.8,0.25,0.5,0.5,80,0\n", encoding="utf-8")
        code, _, err = run(capsys, ["simulate", "--batch", str(batch)])
        assert code == 1
        assert "need at least 100 replicates, got 0" in err and ":2" in err

    def test_published_row_reproduced(self, capsys, tmp_path):
        # the kappas 0.2/0.8 population at n=500: Wald diff CP near 0.955
        batch = tmp_path / "batch.csv"
        batch.write_text("k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n"
                         "0.21,0.14,0.81,0.72,0.5,0.1,0.5,500,2000\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        code, _, _ = run(capsys, ["simulate", "--batch", str(batch), "--seed", "11",
                                  "--methods", "wald-diff", "--out", str(out)])
        assert code == 0
        cp = float(out.read_text(encoding="utf-8").strip().split("\n")[1].split(",")[4])
        assert cp == pytest.approx(0.955, abs=0.015)

    def test_coverage_value_sane(self, capsys, tmp_path):
        batch = tmp_path / "batch.csv"
        batch.write_text(BATCH, encoding="utf-8")
        out = tmp_path / "report.txt"
        run(capsys, ["simulate", "--batch", str(batch), "--seed", "5",
                     "--out", str(out)])
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].startswith("method,target,n,N,cp,al")
        cp = float(lines[1].split(",")[4])
        assert 0.8 <= cp <= 1.0


@pytest.mark.parametrize("argv", [
    ["simulate", "--batch", "{missing}"],
    ["simulate", "--batch", "{directory}"],
    ["analyze", "--records", "{missing}"],
    ["curve", "--records", "{missing}"],
    ["simulate", "--batch", "{batch}", "--out", "{unwritable}"],
    ["analyze", *TABLE8, *DET_METHODS, "--out", "{unwritable}"],
], ids=["simulate-batch", "simulate-batch-dir", "analyze-records", "curve-records",
        "simulate-out", "analyze-out"])
def test_file_errors_are_usage_errors(argv, capsys, tmp_path):
    batch = tmp_path / "batch.csv"
    batch.write_text(BATCH, encoding="utf-8")
    paths = dict(missing=tmp_path / "nope.csv", directory=tmp_path, batch=batch,
                 unwritable=tmp_path / "missing" / "x.txt")
    code, _, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 1
    assert err.splitlines()[-1].startswith("error: [Errno ")


RECORDS = "d,t1,t2\n1,1,1\n"


@pytest.mark.parametrize("option, text, error", [
    ("--records", "t1,t2,d\n1,1,1\n", "1: expected header 'd,t1,t2', got 't1,t2,d'"),
    ("--records", RECORDS + "1,1\n", "3: expected 3 comma-separated values, got 2"),
    ("--records", RECORDS + "\n# a comment\n0,2,0\n", "5: values must be 0 or 1, got '2'"),
    ("--batch", "k0_1,k1_1,k0_2,k1_2,p,c,f,n\n",
     "1: expected header 'k0_1,k1_1,k0_2,k1_2,p,c,f,n,N', got 'k0_1,k1_1,k0_2,k1_2,p,c,f,n'"),
    ("--batch", BATCH + "0.3,0.6,0.8,0.8,0.25,0.5,0.5,80\n",
     "3: expected 9 comma-separated values, got 8"),
    ("--batch", BATCH + "0.3,0.6,0.8,0.8,0.25,0.5,0.5,zap,120\n",
     "3: could not convert string to float: 'zap'"),
    ("--batch", BATCH + "0.3,0.6,0.8,0.8,0.25,0.5,1.5,80,120\n",
     "3: dependence fraction must be in [0, 1], got 1.5"),
    ("--batch", BATCH + "0.3,0.6,0.8,0.8,1.5,0.5,0.5,80,120\n",
     "3: prevalence must be in (0, 1), got 1.5"),
    ("--batch", BATCH + "1e-11,1e-11,0.8,0.8,0.25,0.5,0.5,80,120\n",
     "3: implied Youden index 1e-11 is not positive"),
], ids=["records-header", "records-fields", "records-value", "batch-header",
        "batch-fields", "batch-n", "batch-f", "batch-p", "batch-infeasible"])
def test_malformed_input_file_names_file_and_line(option, text, error, capsys, tmp_path):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    command = "analyze" if option == "--records" else "simulate"
    code, out, err = run(capsys, [command, option, str(path)])
    assert (code, out, err) == (1, "", f"error: {path}:{error}\n")


@pytest.mark.parametrize("option", ["--records", "--batch"])
def test_non_utf8_input_file_is_an_error(option, capsys, tmp_path):
    path = tmp_path / "input.csv"
    path.write_bytes(b"d,t1,t2\n\x89PNG\r\n\x1a\n\x00\xff\xfe")
    command = "analyze" if option == "--records" else "simulate"
    code, out, err = run(capsys, [command, option, str(path)])
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"


def test_record_comment_lines_do_not_count(capsys, tmp_path):
    lines = ["d,t1,t2"] + ["1,1,0"] * 30 + ["1,0,1"] * 25 + ["0,0,0"] * 150 + ["0,1,1"] * 5
    plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
    plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    commented.write_text("# exported subjects\n" + "\n# next subject\n".join(lines) + "\n",
                         encoding="utf-8")
    reports = [run(capsys, ["analyze", "--records", str(path), "--c", "0.5", *DET_METHODS,
                            "--out", "-"]) for path in (plain, commented)]
    assert reports[0] == reports[1] and reports[0][0] == 0
    assert "n = 210" in reports[0][1]


@pytest.mark.parametrize("precision", ["0", "-1", "nan", "inf"])
def test_analyze_and_plan_reject_a_bad_precision_alike(precision, capsys):
    expected = f"error: precision must be positive and finite, got {float(precision)!r}\n"
    for argv in (["analyze", *TABLE8, "--c", "0.5", *DET_METHODS, "--out", "-"],
                 ["plan", *TABLE8, "--c", "0.5"]):
        assert run(capsys, [*argv, "--precision", precision]) == (1, "", expected)


@pytest.mark.parametrize("precision", ["1e-200", "1e-160"])
def test_analyze_and_plan_reject_a_precision_too_small_to_size_alike(precision, capsys):
    expected = (f"error: precision {float(precision)!r} is too small: the required sample "
                "size is not finite\n")
    for argv in (["analyze", *TABLE8, "--c", "0.5", *DET_METHODS, "--out", "-"],
                 ["plan", *TABLE8, "--c", "0.5"]):
        assert run(capsys, [*argv, "--precision", precision]) == (1, "", expected)


class TestPlan:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, ["plan", *TABLE8, "--c", "0.9",
                                    "--precision", "0.10"])
        assert code == 0
        assert "required n = 435" in out
        assert "add 135 subjects" in out

    def test_achieved(self, capsys):
        code, out, _ = run(capsys, ["plan", *TABLE8, "--c", "0.9",
                                    "--precision", "0.13"])
        assert code == 0
        assert "reached" in out

    def test_small_pilot_corrected(self, capsys):
        code, out, _ = run(capsys, ["plan", "10", "2", "6", "4", "2", "1", "8", "30",
                                    "--c", "0.5", "--precision", "0.05"])
        assert code == 0
        assert "[corrected]" in out

    def test_empty_stratum_needs_an_explicit_correction(self, capsys):
        # the same rule as analyze: "auto" never corrects a table to make it estimable
        empty_healthy = ["5", "3", "2", "1", "0", "0", "0", "0", "--c", "0.5",
                         "--precision", "0.1"]
        code, out, err = run(capsys, ["plan", *empty_healthy])
        assert code == 1 and out == ""
        assert err.startswith("error: need both strata non-empty to estimate")
        code, out, _ = run(capsys, ["plan", *empty_healthy, "--correct"])
        assert code == 0
        assert "[corrected]" in out
