"""The method registry: declarations, validation, shared draws and report order."""

import dataclasses

import pytest

from kappacmp import cli, inference, simulation
from kappacmp.cli import _config_from_args, build_analysis_report, build_parser, main, render_report
from kappacmp.data_model import PairedCounts
from kappacmp.errors import DomainError, KappaCmpError
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
    # paper-grid scenario 4: diff -0.4 / ratio 0.5, c = 0.5, p = 25%
    return build_scenario_from_kappas(0.30, 0.60, 0.80, 0.80, 0.25, 0.5, 0.5)


def _refuse(*args, **kwargs):
    raise AssertionError("a resample store no requested method reads was built")


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
    def test_interval_builds_its_target_from_its_declared_draw_alone(self, table8, tag):
        entry = METHODS[tag]
        tables = draws = None
        if entry.draw == "tables":
            tables = BootstrapTables(table8, RandomStream(FAST.seed, BOOTSTRAP_STREAM))
        elif entry.draw == "draws":
            draws = PosteriorDraws(table8, FAST.priors, RandomStream(FAST.seed, BAYES_STREAM))
        ci = entry.interval(table8, 0.5, FAST, tables, draws)
        assert (ci.target, ci.method) == (entry.target, entry.label)
        assert ci.lower <= ci.upper
        # a resampled interval draws the same shared draw when given none
        assert entry.interval(table8, 0.5, FAST) == ci
        # a closed-form interval is its bound on the table's analysis
        assert (entry.bound is None) is (entry.draw is not None)
        if entry.bound is not None:
            assert entry.bound(inference._analysis(table8.cells(), 0.5), FAST.z) \
                == (ci.lower, ci.upper, ci.point)

    def test_every_caller_reaches_a_closed_form_bound_through_its_entry(
            self, table8, scenario, monkeypatch):
        # analyze, the public interval and the coverage scorer each call the
        # bound of the entry that METHODS holds when they run
        calls = []
        original = METHODS["wald-ratio"].bound

        def wrapped(analysis, z):
            calls.append((analysis, z))
            return original(analysis, z)

        unwrapped = coverage_study(scenario, 40, 100, ["wald-ratio"], FAST)
        monkeypatch.setitem(inference.METHODS, "wald-ratio",
                            dataclasses.replace(METHODS["wald-ratio"], bound=wrapped))
        analysis = inference._analysis(table8.cells(), 0.5)

        ci = inference.wald_ratio_ci(table8, 0.5, FAST)
        assert calls == [(analysis, FAST.z)]
        assert (ci.lower, ci.upper, ci.point) == original(analysis, FAST.z)

        calls.clear()
        report = build_analysis_report(table8, cs=[0.5], methods=["wald-ratio"], config=FAST,
                                       correct=False)
        assert calls == [(analysis, FAST.z)]
        assert report.rows[0].intervals["wald-ratio"] == ci

        calls.clear()
        analyses = []  # the analysis of each replicate's table, as the redraw rule accepts it

        def recorded(cells, c):
            analyses.append(inference._analysis(cells, c))
            return analyses[-1]

        monkeypatch.setattr(simulation, "_analysis", recorded)
        assert coverage_study(scenario, 40, 100, ["wald-ratio"], FAST, jobs=1) == unwrapped
        assert len(analyses) == 100
        assert calls == [(each, FAST.z) for each in analyses]

    def test_check_methods_returns_a_tuple(self):
        assert check_methods(iter(["log-ratio", "wald-diff"])) == ("log-ratio", "wald-diff")

    def test_check_methods_names_the_first_unknown_tag(self):
        with pytest.raises(DomainError, match="unknown method 'nope'"):
            check_methods(["wald-diff", "nope", "bad"])

    def test_check_methods_refuses_an_empty_list(self):
        with pytest.raises(DomainError, match="^the method list is empty; choose from "):
            check_methods(iter([]))

    @pytest.mark.parametrize("methods, named", [
        (["wald-diff", "wald-diff"], "wald-diff"),
        (["log-ratio", "boot-diff", "log-ratio", "boot-diff"], "log-ratio"),
    ])
    def test_check_methods_names_the_first_repeated_tag(self, methods, named):
        with pytest.raises(DomainError, match=f"^the method list names '{named}' twice$"):
            check_methods(methods)

    def test_check_methods_names_whichever_fault_comes_first(self):
        with pytest.raises(DomainError, match="unknown method 'nope'"):
            check_methods(["wald-diff", "nope", "wald-diff"])
        with pytest.raises(DomainError, match="names 'wald-diff' twice"):
            check_methods(["wald-diff", "wald-diff", "nope"])


class TestUnknownMethods:
    def test_build_analysis_report(self, table8):
        with pytest.raises(DomainError, match="unknown method 'nope'"):
            build_analysis_report(table8, cs=[0.5], methods=["wald-diff", "nope"])

    def test_coverage_study(self, scenario):
        with pytest.raises(DomainError, match="unknown method 'nope'"):
            coverage_study(scenario, 100, 100, ["wald-diff", "nope"])

    @pytest.mark.parametrize("methods", [[], ["wald-diff", "wald-diff"]],
                             ids=["empty", "repeated"])
    def test_empty_or_repeated_list_runs_no_replicate(self, scenario, table8, methods,
                                                      monkeypatch):
        def run_range(args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(simulation, "_run_range", run_range)
        with pytest.raises(DomainError, match="^the method list "):
            coverage_study(scenario, 100, 100, methods)
        with pytest.raises(DomainError, match="^the method list "):
            build_analysis_report(table8, cs=[0.5], methods=methods)

    @pytest.mark.parametrize("methods, message", [
        ("wald-diff,nope", "unknown method 'nope'; choose from "),
        (",", "the method list is empty; choose from "),
        ("wald-diff,wald-diff", "the method list names 'wald-diff' twice"),
    ], ids=["unknown", "empty", "repeated"])
    def test_analyze_and_simulate_exit_2_with_one_message(self, methods, message, capsys,
                                                          tmp_path):
        messages = []
        for argv in (["analyze", *TABLE8, "--methods", methods],
                     ["simulate", "--batch", str(tmp_path / "absent.csv"),
                      "--methods", methods]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.count("argument --methods: ") == 1
            messages.append(err[err.index("argument --methods: "):])
        assert messages[0] == messages[1]
        assert messages[0].startswith("argument --methods: " + message)


class TestSharedDrawsPerReplicate:
    # a replicate resamples only what a requested method asks for: its stores
    # (analysis_draws) are built only when a method resamples, and a store
    # that no requested method reads draws no row

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The store of each _draw call, by store class."""
        drawn = {BootstrapTables: [], PosteriorDraws: []}
        for cls in drawn:
            def counted(store, k, original=cls._draw, stores=drawn[cls]):
                stores.append(store)
                return original(store, k)

            monkeypatch.setattr(cls, "_draw", counted)
        return drawn

    def test_closed_form_methods_build_no_shared_draw(self, scenario, monkeypatch, drawn):
        monkeypatch.setattr(simulation, "analysis_draws", _refuse)
        rows = coverage_study(scenario, 100, 100, CLOSED, FAST)
        assert [r.method for r in rows] == list(CLOSED)
        assert drawn == {BootstrapTables: [], PosteriorDraws: []}

    def test_bootstrap_methods_draw_one_store_per_replicate_and_no_posterior(
            self, scenario, drawn):
        coverage_study(scenario, 100, 100, ("boot-diff", "boot-ratio"), FAST)
        assert len({id(store) for store in drawn[BootstrapTables]}) == 100
        assert drawn[PosteriorDraws] == []

    def test_bayesian_methods_build_no_bootstrap_tables(self, scenario, drawn):
        coverage_study(scenario, 100, 100, ("bayes-ratio",), FAST)
        assert len({id(store) for store in drawn[PosteriorDraws]}) == 100
        assert drawn[BootstrapTables] == []

    def test_replicate_i_reads_the_analysis_draws_at_base_3i(self, scenario, monkeypatch):
        # each resampled interval of replicate i is that of the Method on the
        # replicate's table and its analysis_draws at stream base 3i
        methods = ("boot-diff", "bayes-ratio")
        scored = []
        original = inference.Method.interval

        def recorded(method, counts, c, config=None, tables=None, draws=None):
            scored.append((method, counts, original(method, counts, c, config, tables, draws)))
            return scored[-1][2]

        monkeypatch.setattr(inference.Method, "interval", recorded)
        coverage_study(scenario, 40, 100, methods, FAST)
        monkeypatch.undo()
        tables = simulation._sampled_tables(scenario, 40, FAST, 0, 100, False)
        expected = []
        for i, (_, cells, _, _, _) in enumerate(tables):
            counts = PairedCounts(*cells)
            stores = inference.analysis_draws(counts, FAST, 3 * i)
            for method in (METHODS[tag] for tag in methods):
                expected.append((method, counts,
                                 method.interval(counts, scenario.c, FAST, *stores)))
        assert scored == expected


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
    def test_analyze_and_simulate_build_equal_configs(self, options):
        parser = build_parser()
        argvs = (["analyze", *TABLE8, *options],
                 ["simulate", "--batch", "b.csv", *options])
        configs = [_config_from_args(parser.parse_args(argv)) for argv in argvs]
        assert configs[0] == configs[1]
        if options:
            assert configs[0] == ConfidenceConfig(
                conf=0.9, seed=7, bootstrap_b=300, bayes_m=2000,
                priors=inference.Priors(*[inference.BetaPrior(2.0, 3.0)] * 5))
        else:
            assert configs[0] == ConfidenceConfig()

    @pytest.mark.parametrize("options, conf", [([], 0.95), (["--conf", "0.9"], 0.9)])
    def test_plan_builds_a_conf_only_config(self, options, conf, monkeypatch, capsys):
        seen = []

        def plan_iteration(*args, config, correct):
            seen.append(config)
            raise KappaCmpError("stop")

        monkeypatch.setattr(cli, "plan_iteration", plan_iteration)
        assert main(["plan", *TABLE8, "--c", "0.5", "--precision", "0.1", *options]) == 1
        assert seen == [ConfidenceConfig(conf=conf)]

    @pytest.mark.parametrize("prior", ["nan,1", "inf,1", "1,1,1,1,1,nan,1,1,1,1"])
    def test_non_finite_prior_is_a_usage_error(self, prior, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", *TABLE8, "--c", "0.5", "--methods", "bayes-diff",
                  "--out", "-", "--prior", prior])
        assert exc.value.code == 2
        assert f"argument --prior: prior {prior!r}: " in capsys.readouterr().err

    def test_huge_prior_leaves_the_bayesian_cell_invalid(self, capsys, tmp_path):
        machine = tmp_path / "machine.txt"
        assert main(["analyze", *TABLE8, "--c", "0.5", "--methods", "bayes-diff",
                     "--out", "-", "--prior", "1e308,1", "--machine-out", str(machine)]) == 0
        assert "invalid" in capsys.readouterr().out
        errors = [line for line in machine.read_text(encoding="utf-8").splitlines()
                  if line.startswith("row.0.ci.bayes-diff.error=")]
        assert len(errors) == 1 and "0 or 1 10000 times in a row" in errors[0]

    @pytest.mark.parametrize("option", ["--seed", "--bootstrap-b", "--bayes-m", "--prior"])
    def test_plan_rejects_resampling_options(self, option, capsys):
        value = "2,3" if option == "--prior" else "50"
        with pytest.raises(SystemExit) as exc:
            main(["plan", *TABLE8, "--c", "0.5", "--precision", "0.1", option, value])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + option in capsys.readouterr().err
