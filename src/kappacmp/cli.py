"""Command-line front end: analyze, curve, simulate and plan subcommands."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from . import __version__
from .data_model import (
    CELL_NAMES,
    MARGIN_NAMES,
    MethodRecommendation,
    PairedCounts,
    correct_counts,
    counts_from_records,
    read_records,
    recommend_method,
)
from .errors import DomainError, KappaCmpError
from .inference import (
    DEFAULT_CONFIG,
    METHODS,
    BetaPrior,
    ConfidenceConfig,
    ConfidenceInterval,
    Priors,
    TestResult,
    analysis_draws,
    # the interval functions run through METHODS; perfbench/run.py traces them here
    bayesian_ci,  # noqa: F401
    bloch_test,
    bootstrap_ci,  # noqa: F401
    check_methods,
    fieller_ratio_ci,  # noqa: F401
    log_ratio_ci,  # noqa: F401
    reciprocal_ratio_ci,
    wald_diff_ci,  # noqa: F401
    wald_ratio_ci,  # noqa: F401
)
from .kappa_core import (
    AccuracyEstimates,
    ComparisonVerdict,
    accuracy_from_counts,
    compare_over_range,
    kappa_curve,
    kappa_pair,
    render_curve,
)
from .sample_size import SampleSizePlan, plan_iteration

DEFAULT_OUT = "results_kappa.txt"
DEFAULT_C_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

@dataclass(frozen=True)
class AnalysisRow:
    """Everything computed at one weighting index."""

    c: float
    kappa1: float
    kappa2: float
    delta: float
    theta: float | None
    test: TestResult | None
    test_error: str | None
    intervals: dict          # method -> ConfidenceInterval
    interval_errors: dict    # method -> message for intervals that could not be built
    inverse: dict            # label -> ConfidenceInterval (only with --inverse)


@dataclass(frozen=True)
class AnalysisReport:
    """Single source for both the human-readable and machine-readable outputs."""

    counts: PairedCounts
    corrected: bool
    conf: float
    accuracy: AccuracyEstimates
    c_prime: float | None
    verdict: ComparisonVerdict | None
    rows: tuple
    recommendation: MethodRecommendation
    plan: SampleSizePlan | None
    warnings: tuple


def build_analysis_report(counts: PairedCounts, cs=None, methods=None,
                          config: ConfidenceConfig | None = None,
                          correct: bool | str = "auto",
                          precision: float | None = None,
                          include_inverse: bool = False) -> AnalysisReport:
    """Full analysis of one observed table; the CLI is a thin shell over this.

    A ``precision`` (target half-width of the Wald ratio interval) adds a
    sample-size plan at the one weighting index in ``cs``; None plans nothing.
    """
    config = config or DEFAULT_CONFIG
    methods = check_methods(METHODS if methods is None else methods)

    warnings = []
    recommendation = recommend_method(counts.n)  # raises when n < 1
    working, apply = correct_counts(counts, correct)
    if apply:
        warnings.append("continuity correction applied: 0.5 added to every cell")
    # margins of the observed table: the correction leaves none at zero
    zero_margins = [name for name, margin in zip(MARGIN_NAMES, counts.margins())
                    if margin == 0]
    if zero_margins:
        warnings.append("zero test-pattern margins: " + ", ".join(zero_margins))
    if len(zero_margins) >= 2 and not apply:
        warnings.append("two or more zero margins; frequentist intervals need the +0.5 correction")

    accuracy = accuracy_from_counts(working)  # NonEstimableError on an empty stratum
    for label, y in (("test 1", accuracy.y1), ("test 2", accuracy.y2)):
        if y <= 0:
            warnings.append(f"{label} has estimated Youden index {y:.4f} <= 0 "
                            "(no better than chance); interpret kappas with care")
    if not accuracy.eps_within_bounds:
        warnings.append(
            f"dependence estimates outside theoretical bounds "
            f"(eps1={accuracy.eps1:.4f} in [0, {accuracy.eps1_max:.4f}], "
            f"eps0={accuracy.eps0:.4f} in [0, {accuracy.eps0_max:.4f}]); kept as-is")
    try:
        verdict = compare_over_range(accuracy)
        c_prime = verdict.c_prime
    except KappaCmpError as exc:
        verdict, c_prime = None, None
        warnings.append(f"ordering rules not applicable: {exc}")

    if cs is None:
        cs = list(DEFAULT_C_GRID)
        if c_prime is not None and 0.0 < c_prime < 1.0:
            cs.append(round(c_prime, 4))
        cs.sort()
    # one bootstrap set and one posterior serve every c and target; both
    # draw nothing until a resampling method asks
    tables, draws = analysis_draws(working, config)
    rows = []
    for c in cs:
        kp = kappa_pair(accuracy, c)
        theta = kp.kappa1 / kp.kappa2 if kp.kappa2 != 0.0 else None
        try:
            test = bloch_test(working, c)
            test_error = None
        except KappaCmpError as exc:
            test, test_error = None, str(exc)
        intervals = {}
        errors = {}
        for method in methods:
            try:
                intervals[method] = METHODS[method].interval(working, c, config, tables, draws)
            except KappaCmpError as exc:
                errors[method] = str(exc)
        inverse = {}
        if include_inverse and theta is not None:
            for method in methods:
                ci = intervals.get(method)
                if ci is None or ci.target != "ratio":
                    continue
                try:
                    label = method
                    if method == "wald-ratio":
                        # the Wald interval of kappa2/kappa1: the swapped table's Wald ratio
                        inverse[method + " (scaled)"] = METHODS[method].interval(
                            working.swap_tests(), c, config)
                        label += " (reciprocal)"
                    inverse[label] = reciprocal_ratio_ci(ci, theta)
                except KappaCmpError as exc:
                    errors["inverse-" + method] = str(exc)
        rows.append(AnalysisRow(c=c, kappa1=kp.kappa1, kappa2=kp.kappa2,
                                delta=kp.delta, theta=theta, test=test,
                                test_error=test_error, intervals=intervals,
                                interval_errors=errors, inverse=inverse))
    for row in rows:
        for method, error in row.interval_errors.items():
            name = "Fieller" if method == "fieller-ratio" else method
            warnings.append(f"{name} interval invalid at c={row.c:g}: {error}")

    plan = None
    if precision is not None:
        if len(cs) != 1:
            raise KappaCmpError("sample-size planning needs a single weighting index; "
                                "pass --c")
        plan = plan_iteration(counts, cs[0], precision, config=config, correct=apply)
        warnings.extend(plan.warnings)

    return AnalysisReport(counts=counts, corrected=apply,
                          conf=config.conf, accuracy=accuracy, c_prime=c_prime,
                          verdict=verdict, rows=tuple(rows),
                          recommendation=recommendation, plan=plan,
                          warnings=tuple(warnings))


def _fmt_ci(ci: ConfidenceInterval) -> str:
    return f"({ci.lower:7.3f}, {ci.upper:7.3f})"


def render_report(report: AnalysisReport) -> str:
    """Human-readable report; 3 decimals for kappas/intervals, 4 for accuracies."""
    counts = report.counts
    out = []
    out.append("Comparison of two weighted kappa coefficients (paired design)")
    out.append("=" * 62)
    out.append(f"counts: s11={counts.s11:g} s10={counts.s10:g} s01={counts.s01:g} "
               f"s00={counts.s00:g}")
    out.append(f"        r11={counts.r11:g} r10={counts.r10:g} r01={counts.r01:g} "
               f"r00={counts.r00:g}")
    out.append(f"n = {counts.n:g} (diseased s = {counts.s:g}, healthy r = {counts.r:g}); "
               f"confidence = {report.conf:.0%}")
    if report.corrected:
        out.append("continuity correction (+0.5 per cell) applied to all estimates below")
    acc = report.accuracy
    out.append("")
    out.append("Accuracy estimates")
    out.append(f"  Se1 = {acc.se1:.4f}   Sp1 = {acc.sp1:.4f}")
    out.append(f"  Se2 = {acc.se2:.4f}   Sp2 = {acc.sp2:.4f}")
    out.append(f"  prevalence = {acc.p:.4f}   eps1 = {acc.eps1:.4f}   eps0 = {acc.eps0:.4f}")
    out.append(f"  rTPF(1:2) = {acc.rtpf:.3f}   rFPF(1:2) = {acc.rfpf:.3f}")
    if report.c_prime is not None:
        out.append(f"  crossover index c' = {report.c_prime:.4f}")
    if report.verdict is not None:
        out.append(f"  ordering (rule {report.verdict.rule}): {report.verdict.describe()}")

    out.append("")
    out.append("Point estimates and test of equal kappas")
    out.append("      c   kappa1   kappa2    delta    theta        z        p")
    for row in report.rows:
        theta = f"{row.theta:8.3f}" if row.theta is not None else "     n/a"
        if row.test is not None:
            z_txt, p_txt = f"{row.test.z_stat:8.3f}", f"{row.test.p_value:8.4f}"
        else:
            z_txt, p_txt = "     n/a", "     n/a"
        out.append(f"  {row.c:5.4g} {row.kappa1:8.3f} {row.kappa2:8.3f} "
                   f"{row.delta:8.3f} {theta} {z_txt} {p_txt}")

    shown = [m for m in METHODS
             if any(m in r.intervals or m in r.interval_errors for r in report.rows)]
    for title in ("difference", "ratio"):
        group = [m for m in shown if METHODS[m].target == title]
        if not group:
            continue
        out.append("")
        out.append(f"Confidence intervals for the {title}")
        header = "      c" + "".join(f" {m:>20}" for m in group)
        out.append(header)
        for row in report.rows:
            cells = []
            for m in group:
                if m in row.intervals:
                    cells.append(f" {_fmt_ci(row.intervals[m]):>20}")
                else:
                    cells.append(f" {'invalid':>20}")
            out.append(f"  {row.c:5.4g}" + "".join(cells))
    inverse_rows = [(row, label, ci) for row in report.rows
                    for label, ci in row.inverse.items()]
    if inverse_rows:
        out.append("")
        out.append("Confidence intervals for the inverse ratio kappa2/kappa1")
        for row, label, ci in inverse_rows:
            out.append(f"  c={row.c:5.4g}  {label:<28} {_fmt_ci(ci)}")

    rec = report.recommendation
    out.append("")
    out.append(f"Recommended interval at n = {counts.n:g}: {rec.method}"
               f"{' with +0.5 correction' if rec.corrected else ''} ({rec.note})")

    if report.plan is not None:
        plan = report.plan
        out.append("")
        out.append(f"Sample size for ratio precision {plan.phi:g} at {plan.conf:.0%} confidence")
        out.append(f"  current Wald ratio interval: {_fmt_ci(plan.ci)} "
                   f"(half-width {plan.ci.half_width:.4f})")
        if plan.achieved:
            out.append(f"  precision reached with the current n = {plan.pilot_n}")
        else:
            out.append(f"  required n = {plan.n_required}; "
                       f"add {plan.additional_needed} subjects to the current {plan.pilot_n}")

    if report.warnings:
        out.append("")
        out.append("Warnings")
        for w in report.warnings:
            out.append(f"  - {w}")
    return "\n".join(out) + "\n"


def render_machine(report: AnalysisReport) -> str:
    """Machine-readable key=value lines at full precision."""
    lines = []

    def put(key, value):
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, float):
            value = f"{value:.17g}"
        lines.append(f"{key}={value}")

    for name, value in zip(CELL_NAMES, report.counts.cells()):
        put(f"input.{name}", value)
    put("input.n", report.counts.n)
    put("conf", report.conf)
    put("corrected", report.corrected)
    acc = report.accuracy
    for name in ("se1", "sp1", "se2", "sp2", "p", "eps1", "eps0"):
        put(f"accuracy.{name}", getattr(acc, name))
    put("accuracy.eps_within_bounds", acc.eps_within_bounds)
    put("compare.rtpf", acc.rtpf)
    put("compare.rfpf", acc.rfpf)
    if report.verdict is not None:
        put("compare.rule", report.verdict.rule)
    if report.c_prime is not None:
        put("compare.c_prime", report.c_prime)
    for i, row in enumerate(report.rows):
        prefix = f"row.{i}"
        put(f"{prefix}.c", row.c)
        put(f"{prefix}.kappa1", row.kappa1)
        put(f"{prefix}.kappa2", row.kappa2)
        put(f"{prefix}.delta", row.delta)
        if row.theta is not None:
            put(f"{prefix}.theta", row.theta)
        if row.test is not None:
            put(f"{prefix}.bloch.z", row.test.z_stat)
            put(f"{prefix}.bloch.p", row.test.p_value)
        elif row.test_error:
            put(f"{prefix}.bloch.error", row.test_error)
        for method, ci in row.intervals.items():
            put(f"{prefix}.ci.{method}.lower", ci.lower)
            put(f"{prefix}.ci.{method}.upper", ci.upper)
            put(f"{prefix}.ci.{method}.point", ci.point)
        for method, msg in row.interval_errors.items():
            put(f"{prefix}.ci.{method}.error", msg)
        for label, ci in row.inverse.items():
            key = label.replace(" ", "").replace("(", ".").replace(")", "")
            put(f"{prefix}.inverse.{key}.lower", ci.lower)
            put(f"{prefix}.inverse.{key}.upper", ci.upper)
    put("recommendation.method", report.recommendation.method)
    put("recommendation.corrected", report.recommendation.corrected)
    if report.plan is not None:
        plan = report.plan
        put("plan.phi", plan.phi)
        put("plan.conf", plan.conf)
        put("plan.achieved", plan.achieved)
        put("plan.pilot_n", plan.pilot_n)
        put("plan.n_required", plan.n_required)
        put("plan.add", plan.additional_needed)
        put("plan.ci.lower", plan.ci.lower)
        put("plan.ci.upper", plan.ci.upper)
    for i, warning in enumerate(report.warnings):
        put(f"warning.{i}", warning)
    return "\n".join(lines) + "\n"


def _parse_prior(text: str) -> Priors:
    try:
        values = [float(part) for part in text.split(",")]
        if len(values) in (2, 10):
            values *= 10 // len(values)  # 'a,b' is the prior of all five parameters
            return Priors(*(BetaPrior(values[i], values[i + 1]) for i in range(0, 10, 2)))
    except DomainError as exc:  # a ValueError, so caught first
        raise argparse.ArgumentTypeError(f"prior {text!r}: {exc}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"prior must be numeric, got {text!r}") from None
    raise argparse.ArgumentTypeError(
        "prior takes 'a,b' (all five parameters) or 10 values 'a1,b1,...,a5,b5' "
        "in order se1, sp1, se2, sp2, prevalence")


def _parse_methods(text: str) -> tuple[str, ...]:
    try:
        return check_methods(m.strip() for m in text.split(",") if m.strip())
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _counts_from_args(parser: argparse.ArgumentParser, args) -> PairedCounts:
    if args.records is not None:
        if args.counts:
            parser.error("give either eight counts or --records, not both")
        return counts_from_records(read_records(args.records))
    if len(args.counts) != 8:
        parser.error(f"expected 8 cell counts, got {len(args.counts)}")
    values = []
    for text in args.counts:
        try:
            values.append(int(text))
        except ValueError:
            parser.error(f"counts must be non-negative integers, got {text!r}")
    try:
        return PairedCounts(*values)
    except DomainError as exc:  # a negative cell, or a table too large
        parser.error(str(exc))


def _config_from_args(args) -> ConfidenceConfig:
    return ConfidenceConfig(conf=args.conf, bootstrap_b=args.bootstrap_b,
                            bayes_m=args.bayes_m, priors=args.prior, seed=args.seed)


def _correct_mode(args):
    return False if args.no_correct else (True if args.correct else "auto")


def _add_table_options(sub):
    sub.add_argument("counts", nargs="*",
                     help="the eight cell counts s11 s10 s01 s00 r11 r10 r01 r00")
    sub.add_argument("--records", metavar="PATH",
                     help="read per-subject records (header d,t1,t2) instead of counts")
    # neither flag: apply +0.5 when the sample-size rule says so
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--correct", action="store_true",
                       help="always apply the +0.5 continuity correction")
    group.add_argument("--no-correct", action="store_true",
                       help="never apply the +0.5 continuity correction")


def _add_conf_option(sub):
    sub.add_argument("--conf", type=float, default=0.95, help="confidence level (default 0.95)")


def _add_config_options(sub):
    _add_conf_option(sub)
    sub.add_argument("--seed", type=int, default=0, help="seed for all resampling (default 0)")
    sub.add_argument("--bootstrap-b", type=int, default=2000,
                     help="bootstrap resamples (default 2000)")
    sub.add_argument("--bayes-m", type=int, default=10000,
                     help="posterior draws (default 10000)")
    sub.add_argument("--prior", type=_parse_prior, default=Priors(),
                     help="Beta prior 'a,b' for all five parameters, or 10 values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kappacmp",
        description="Estimate and compare the weighted kappa coefficients of two "
                    "binary diagnostic tests applied to the same subjects.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="full analysis report for one table")
    _add_table_options(analyze)
    _add_config_options(analyze)
    analyze.add_argument("--c", type=float, default=None,
                         help="weighting index; omit to tabulate c = 0.1 ... 0.9 plus c'")
    analyze.add_argument("--precision", type=float, default=None,
                         help="target half-width for the ratio; adds a sample-size plan")
    analyze.add_argument("--methods", type=_parse_methods, default=tuple(METHODS),
                         help="comma list of interval methods (default: all)")
    analyze.add_argument("--inverse", action="store_true",
                         help="also report intervals for the inverse ratio kappa2/kappa1")
    analyze.add_argument("--out", default=DEFAULT_OUT,
                         help=f"report file (default {DEFAULT_OUT}; '-' for stdout only)")
    analyze.add_argument("--machine-out", metavar="PATH",
                         help="also write key=value machine-readable output")

    curve = subs.add_parser("curve", help="export kappa1(c), kappa2(c) over a grid of c")
    curve.add_argument("counts", nargs="*",
                       help="the eight cell counts (or use --se1/--sp1/--se2/--sp2/--p)")
    curve.add_argument("--records", metavar="PATH", help="per-subject record file")
    for name in ("se1", "sp1", "se2", "sp2", "p"):
        curve.add_argument(f"--{name}", type=float, default=None)
    curve.add_argument("--grid", default=None,
                       help="comma list of c values (default: uniform grid)")
    curve.add_argument("--grid-points", type=int, default=101,
                       help="size of the uniform grid on [0, 1] (default 101)")
    curve.add_argument("--out", default="-", help="output file ('-' for stdout)")

    simulate = subs.add_parser("simulate", help="coverage study over a scenario batch file")
    simulate.add_argument("--batch", required=True,
                          help="scenario file with header k0_1,k1_1,k0_2,k1_2,p,c,f,n,N")
    simulate.add_argument("--methods", type=_parse_methods,
                          default=("wald-diff", "wald-ratio"),
                          help="comma list of methods (default wald-diff,wald-ratio)")
    _add_config_options(simulate)
    simulate.add_argument("--jobs", type=int, default=1,
                          help="worker processes, at most the CPU count, started once and "
                               "shared by every row of the batch (results identical for "
                               "any value)")
    simulate.add_argument("--correct", action="store_true",
                          help="apply the +0.5 correction to every sampled table")
    simulate.add_argument("--out", default="-", help="coverage report file ('-' for stdout)")

    # a plan builds only a Wald interval, so it takes no resampling options
    plan = subs.add_parser("plan", help="one sample-size planning round")
    _add_table_options(plan)
    _add_conf_option(plan)
    plan.add_argument("--c", type=float, required=True, help="weighting index")
    plan.add_argument("--precision", type=float, required=True,
                      help="target half-width for the Wald ratio interval")
    return parser


def _write_out(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_analyze(parser, args) -> int:
    counts = _counts_from_args(parser, args)
    config = _config_from_args(args)
    cs = None if args.c is None else [args.c]
    if args.c is not None and not 0.0 <= args.c <= 1.0:
        parser.error(f"--c must be in [0, 1], got {args.c}")
    if args.precision is not None and args.c is None:
        parser.error("--precision needs a single weighting index; pass --c")
    report = build_analysis_report(counts, cs=cs, methods=args.methods, config=config,
                                   correct=_correct_mode(args), precision=args.precision,
                                   include_inverse=args.inverse)
    text = render_report(report)
    sys.stdout.write(text)
    if args.out != "-":
        _write_out(text, args.out)
    if args.machine_out:
        _write_out(render_machine(report), args.machine_out)
    return 0


def cmd_curve(parser, args) -> int:
    params = [args.se1, args.sp1, args.se2, args.sp2, args.p]
    if any(v is not None for v in params):
        if not all(v is not None for v in params):
            parser.error("give all of --se1 --sp1 --se2 --sp2 --p")
        if args.counts or args.records:
            parser.error("give either counts or accuracy parameters, not both")
        acc = AccuracyEstimates(se1=args.se1, sp1=args.sp1, se2=args.se2,
                                sp2=args.sp2, p=args.p)
    else:
        counts = _counts_from_args(parser, args)
        acc = accuracy_from_counts(counts)
    if args.grid is not None:
        try:
            grid = [float(x) for x in args.grid.split(",") if x.strip()]
        except ValueError:
            grid = []
        if not grid:
            parser.error(f"--grid must be a comma list of numbers, got {args.grid!r}")
    else:
        if args.grid_points < 2:
            parser.error("--grid-points must be at least 2 (use --grid for explicit points)")
        m = args.grid_points
        grid = [i / (m - 1) for i in range(m)]
    rows = kappa_curve(acc, grid)
    _write_out(render_curve(rows), args.out)
    return 0


def cmd_simulate(parser, args) -> int:
    # only simulate loads simulation and, through it, the process-pool modules
    from .simulation import coverage_grid, read_scenario_batch, render_coverage_report

    cells = read_scenario_batch(args.batch)
    config = _config_from_args(args)
    # every row is built and checked, and --out opened, before the first
    # replicate of any row runs: a bad row or path fails now, not days later
    grid = coverage_grid(cells, args.methods, config, jobs=args.jobs, correct=args.correct)
    if args.out != "-":
        open(args.out, "a", encoding="utf-8").close()
    start = time.monotonic()
    results = []
    for k, ((_, n, n_replicates), cell_results) in enumerate(zip(cells, grid), start=1):
        results.extend(cell_results)
        scores = "  ".join(f"{r.method} {r.cp:.3f}/{r.al:.3f}" for r in cell_results)
        print(f"row {k}/{len(cells)} n={n} N={n_replicates}  {scores}", file=sys.stderr)
    _write_out(render_coverage_report(results), args.out)
    print(f"done in {time.monotonic() - start:.0f} s", file=sys.stderr)
    return 0


def cmd_plan(parser, args) -> int:
    counts = _counts_from_args(parser, args)
    if not 0.0 <= args.c <= 1.0:
        parser.error(f"--c must be in [0, 1], got {args.c}")
    plan = plan_iteration(counts, args.c, args.precision,
                          config=ConfidenceConfig(conf=args.conf),
                          correct=_correct_mode(args))
    out = []
    out.append(f"pilot n = {plan.pilot_n}; Wald ratio interval "
               f"({plan.ci.lower:.3f}, {plan.ci.upper:.3f}), half-width {plan.ci.half_width:.4f}"
               f"{' [corrected]' if plan.corrected else ''}")
    if plan.achieved:
        out.append(f"precision {plan.phi:g} reached; no additional subjects needed")
    else:
        out.append(f"precision {plan.phi:g} not reached; required n = {plan.n_required} "
                   f"(add {plan.additional_needed} subjects)")
    for warning in plan.warnings:
        out.append(f"warning: {warning}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"analyze": cmd_analyze, "curve": cmd_curve,
               "simulate": cmd_simulate, "plan": cmd_plan}[args.command]
    try:
        return handler(parser, args)
    except (KappaCmpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
