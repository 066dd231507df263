"""The method registry: declarations, validation, shared draws and report order."""

import pytest

from kappacmp import inference, simulation
from kappacmp.cli import _config_from_args, build_analysis_report, build_parser, main, render_report
from kappacmp.errors import DomainError
from kappacmp.inference import (
    BAYES_STREAM,
    BOOTSTRAP_STREAM,
    METHODS,
    BootstrapTables,
    ConfidenceConfig,
    PosteriorDraws,
    check_methods,
)
from kappacmp.numerics import RandomStream
from kappacmp.simulation import build_scenario_from_kappas, coverage_study

FAST = ConfidenceConfig(bootstrap_b=100, bayes_m=1000, seed=5)
CLOSED = ("wald-diff", "wald-ratio", "log-ratio", "fieller-ratio")
TABLE8 = ["41", "0", "40", "8", "5", "1", "24", "181"]


@pytest.fixture
def scenario():
    # demo-06 scenario 4: diff -0.4 / ratio 0.5, c = 0.5, p = 25%
    return build_scenario_from_kappas(0.30, 0.60, 0.80, 0.80, 0.25, 0.5, 0.5)


def _refuse(*args, **kwargs):
    raise AssertionError("a shared draw no requested method reads was built")


class TestRegistry:
    def test_tags_targets_and_draws_in_report_order(self):
        assert [(tag, m.target, m.draw) for tag, m in METHODS.items()] == [
            ("wald-diff", "difference", None),
            ("boot-diff", "difference", "tables"),
            ("bayes-diff", "difference", "draws"),
            ("wald-ratio", "ratio", None),
            ("log-ratio", "ratio", None),
            ("fieller-ratio", "ratio", None),
            ("boot-ratio", "ratio", "tables"),
            ("bayes-ratio", "ratio", "draws"),
        ]

    @pytest.mark.parametrize("tag", list(METHODS))
    def test_call_builds_its_target_from_its_declared_draw_alone(self, table8, tag):
        entry = METHODS[tag]
        tables = draws = None
        if entry.draw == "tables":
            tables = BootstrapTables(table8, RandomStream(FAST.seed, BOOTSTRAP_STREAM))
        elif entry.draw == "draws":
            draws = PosteriorDraws(table8, FAST.priors, FAST.bayes_m,
                                   RandomStream(FAST.seed, BAYES_STREAM))
        lower, upper, point = entry.call(table8, 0.5, FAST, tables, draws)
        assert lower <= upper
        ci = entry.interval(table8, 0.5, FAST, tables, draws)
        assert (ci.target, ci.method) == (entry.target, entry.label)
        assert (ci.lower, ci.upper, ci.point) == (lower, upper, point)

    def test_calls_look_up_the_interval_functions_when_they_run(self, table8, monkeypatch):
        calls = []
        original = inference._wald_ratio

        def wrapped(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(inference, "_wald_ratio", wrapped)
        bounds = METHODS["wald-ratio"].call(table8, 0.5, FAST, None, None)
        assert calls == [(table8, 0.5, FAST)]
        assert bounds == original(table8, 0.5, FAST)
        ci = inference.wald_ratio_ci(table8, 0.5, FAST)
        assert len(calls) == 2 and (ci.lower, ci.upper, ci.point) == bounds

    def test_check_methods_returns_a_tuple(self):
        assert check_methods(iter(["log-ratio", "wald-diff"])) == ("log-ratio", "wald-diff")

    def test_check_methods_names_the_first_unknown_tag(self):
        with pytest.raises(DomainError, match="unknown method 'nope'"):
            check_methods(["wald-diff", "nope", "bad"])


class TestUnknownMethods:
    def test_build_analysis_report(self, table8):
        with pytest.raises(DomainError, match="unknown method 'nope'"):
            build_analysis_report(table8, cs=[0.5], methods=["wald-diff", "nope"])

    def test_coverage_study(self, scenario):
        with pytest.raises(DomainError, match="unknown method 'nope'"):
            coverage_study(scenario, 100, 100, ["wald-diff", "nope"])

    def test_analyze_and_simulate_exit_2_with_one_message(self, capsys, tmp_path):
        messages = []
        for argv in (["analyze", *TABLE8, "--methods", "wald-diff,nope"],
                     ["simulate", "--batch", str(tmp_path / "absent.csv"),
                      "--methods", "wald-diff,nope"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            messages.append(err[err.index("unknown method"):])
        assert messages[0] == messages[1]
        assert messages[0].startswith("unknown method 'nope'; choose from ")


class TestSharedDrawsPerReplicate:
    def test_closed_form_methods_build_no_shared_draw(self, scenario, monkeypatch):
        monkeypatch.setattr(simulation, "BootstrapTables", _refuse)
        monkeypatch.setattr(simulation, "PosteriorDraws", _refuse)
        rows = coverage_study(scenario, 100, 100, CLOSED, FAST)
        assert [r.method for r in rows] == list(CLOSED)

    def test_bootstrap_methods_build_tables_once_and_no_posterior(self, scenario, monkeypatch):
        built = []

        class Counted(BootstrapTables):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(simulation, "BootstrapTables", Counted)
        monkeypatch.setattr(simulation, "PosteriorDraws", _refuse)
        coverage_study(scenario, 100, 100, ("boot-diff", "boot-ratio"), FAST)
        assert len(built) == 100

    def test_bayesian_methods_build_no_bootstrap_tables(self, scenario, monkeypatch):
        monkeypatch.setattr(simulation, "BootstrapTables", _refuse)
        coverage_study(scenario, 100, 100, ("bayes-ratio",), FAST)


class TestReportOrder:
    def test_default_methods_follow_the_registry(self, table8):
        report = build_analysis_report(table8, cs=[0.5], config=FAST)
        row = report.rows[0]
        assert [m for m in METHODS if m in row.intervals or m in row.interval_errors] \
            == list(METHODS)
        assert list(row.intervals) == [m for m in METHODS if m in row.intervals]

    def test_columns_follow_the_registry_not_the_request(self, table8):
        report = build_analysis_report(table8, cs=[0.5], config=FAST,
                                       methods=tuple(reversed(METHODS)))
        lines = render_report(report).splitlines()
        for target in ("difference", "ratio"):
            header = lines[lines.index(f"Confidence intervals for the {target}") + 1]
            assert header.split()[1:] == [m for m, e in METHODS.items() if e.target == target]


class TestConfigOptions:
    OPTIONS = ["--conf", "0.9", "--seed", "7", "--bootstrap-b", "300",
               "--bayes-m", "2000", "--prior", "2,3"]

    @pytest.mark.parametrize("options", [[], OPTIONS])
    def test_analyze_plan_and_simulate_build_equal_configs(self, options):
        parser = build_parser()
        argvs = (["analyze", *TABLE8, *options],
                 ["plan", *TABLE8, "--c", "0.5", "--precision", "0.1", *options],
                 ["simulate", "--batch", "b.csv", *options])
        configs = [_config_from_args(parser.parse_args(argv)) for argv in argvs]
        assert configs[0] == configs[1] == configs[2]
        if options:
            assert configs[0] == ConfidenceConfig(
                conf=0.9, seed=7, bootstrap_b=300, bayes_m=2000,
                priors=inference.Priors(*[inference.BetaPrior(2.0, 3.0)] * 5))
        else:
            assert configs[0] == ConfidenceConfig()
