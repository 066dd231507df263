import hashlib

import pytest

from kappacmp.cli import build_analysis_report, main
from kappacmp.data_model import PairedCounts
from kappacmp.errors import FiellerInvalidError
from kappacmp.inference import ConfidenceConfig, fieller_ratio_ci

TABLE8 = ["41", "0", "40", "8", "5", "1", "24", "181"]
FAST = ["--bootstrap-b", "100", "--bayes-m", "1000"]
DET_METHODS = ["--methods", "wald-diff,wald-ratio,log-ratio,fieller-ratio"]


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
        assert "r = 0" in err or "healthy" in err

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
        assert "zero test-pattern margins" in out
        assert "+0.5" in out

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

    def test_all_methods_report_matches_recorded_digest(self, capsys, tmp_path):
        # sha256 of this report recorded before the bootstrap tables and the
        # posterior draws were shared between the difference and the ratio
        batch = tmp_path / "batch.csv"
        batch.write_text("k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n"
                         "0.30,0.60,0.80,0.80,0.25,0.5,0.5,40,100\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        code, _, _ = run(capsys, ["simulate", "--batch", str(batch), "--methods",
                                  "wald-diff,boot-diff,bayes-diff,wald-ratio,log-ratio,"
                                  "fieller-ratio,boot-ratio,bayes-ratio",
                                  *FAST, "--seed", "3", "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "08d4dfe3f1eac56b8d7ffea02f303954b473c7cd00ec870127f4b5d88a4b6151")

    def test_zero_replicates_is_usage_error(self, capsys, tmp_path):
        batch = tmp_path / "batch.csv"
        batch.write_text("k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n"
                         "0.3,0.6,0.8,0.8,0.25,0.5,0.5,80,0\n", encoding="utf-8")
        code, _, err = run(capsys, ["simulate", "--batch", str(batch)])
        assert code == 1
        assert "N must be" in err and ":2" in err

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
