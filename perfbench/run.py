"""kappacmp benchmark: `analyze` latency and coverage throughput, traced per module.

Run from the repository root:

    python3 perfbench/run.py --workload analyze_worked --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --digests
    python3 -m pytest -q perfbench/test_smoke.py

Workloads (BENCHMARK.json says why each was chosen):

* ``analyze_worked``: `analyze` of the paper's worked 300-subject table
  (8 methods, 9 c values plus c', B=2000, M=10000), rendered both ways.
  One operation is one call.
* ``coverage_closed_grid``: the demo-06 default grid without its scenario
  2 (7 scenarios x 8 sizes, 4 closed-form methods, 500 replicates per
  cell) at jobs=2. GRID_SCENARIOS says why scenario 2 is left out.

A third workload, ``coverage_resample`` (all 8 methods on demo-06
scenario 4 at n=100 and n=500, 100 replicates per cell, B=400, M=2000,
jobs=2), was dropped. Ten 30-second runs of it spread by 14% of their
median on a shared 2-vCPU host, against 5.5% and 7.6% for the two above,
and SpeedProbe does not steady it: its cells run in pool workers on both
vCPUs. The bootstrap and posterior layers it stressed are measured on
``analyze_worked``.

On ``coverage_closed_grid`` one operation is one (scenario, n) cell, and a
grid pass runs every cell once.

``--trace 0`` times operations (or grid passes) with tracing off for
``--seconds`` and prints the end-to-end metrics: ``op_s``, the median
seconds per unit of work (one `analyze` call, or one coverage replicate,
the inverse of replicates per second), ``setup_s`` and ``peak_rss_mb``.
On ``analyze_worked`` both times are wall times scaled to a reference
machine speed by SpeedProbe, which says why; the raw wall times are
printed beside them (``analyze_s`` and ``setup_wall_s``). On
``coverage_closed_grid`` they are raw wall times (``run_workload`` says why).

``--trace 1`` prints the per-layer metrics. It times the ROADMAP kernel
rows, runs the workload once untraced and once traced (coverage: a grid
pass at jobs=2, one untraced at jobs=1 and one traced at jobs=1, because
spans recorded in pool workers would be lost), and writes the spans to
``perfbench/out/``.

Every run checks the outputs (the correctness gate) and prints one JSON
object as its last line. It exits 1 when the gate fails and 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

# The package runs from its source tree; it is imported inside functions,
# after main() has checked that the source is there.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

ALL_METHODS = ("wald-diff", "boot-diff", "bayes-diff", "wald-ratio",
               "log-ratio", "fieller-ratio", "boot-ratio", "bayes-ratio")
CLOSED_METHODS = ("wald-diff", "wald-ratio", "log-ratio", "fieller-ratio")
WORKED_TABLE = (41, 0, 40, 8, 5, 1, 24, 181)

# The eight populations of demos/06_full_coverage_tables.py:
# (k0_1, k1_1, k0_2, k1_2, p, c), dependence fraction DEPENDENCE.
SCENARIOS = (
    (0.21, 0.14, 0.81, 0.72, 0.50, 0.1),
    (0.20, 0.20, 0.80, 0.80, 0.10, 0.9),
    (0.38, 0.76, 0.80, 0.80, 0.10, 0.1),
    (0.30, 0.60, 0.80, 0.80, 0.25, 0.5),
    (0.60, 0.60, 0.40, 0.90, 0.05, 0.9),
    (0.90, 0.15, 0.90, 0.40, 0.25, 0.1),
    (0.30, 0.60, 0.60, 0.30, 0.25, 0.5),
    (0.10, 0.60, 0.40, 0.40, 0.50, 0.9),
)
DEPENDENCE = 0.5
# Scenario 2 (index 1: kappa1 = 0.2 at p = 10%) is left out of the closed
# grid. At n = 300 and 400 it draws tables with kappa1 just above 0, such
# as (3, 0, 18, 8, 7, 21, 3, 240) at c = 0.9, on which log_ratio_ci raises
# OverflowError out of coverage_study: the grid failed at 3 of 120
# workload seeds. test_smoke.py keeps that defect visible as a strict
# xfail; put the scenario back once the library raises a KappaCmpError.
GRID_SCENARIOS = (0, 2, 3, 4, 5, 6, 7)
GRID_SIZES = (25, 50, 100, 200, 300, 400, 500, 1000)
JOBS = 2  # fixed, not nproc, so that pool counts and timings compare across machines

# Digests of the rendered outputs are taken at this configuration seed, so
# `kappacmp analyze 41 0 40 8 5 1 24 181 --machine-out F` and
# `demos/06_full_coverage_tables.py --seed 0 --replicates 500 --scenarios 1,3,4,5,6,7,8`
# reproduce two of them.
CHECK_SEED = 0
SETUP_REPEATS = 3
REF_LOOP = 100_000
REF_CHUNK_S = 0.01
REF_SHARE = 0.1
REF_MIN_S = 0.1
KERNEL_REPEATS = 5
TOL = 1e-3

# Acceptance goldens for the worked table (tests/test_acceptance.py):
# c -> (kappa1, kappa2), and c -> bounds of wald-diff, wald-ratio,
# log-ratio and fieller-ratio.
GOLDEN_KAPPAS = {
    0.1: (0.726, 0.642), 0.1902: (0.659, 0.659), 0.2: (0.653, 0.661),
    0.3: (0.593, 0.681), 0.4: (0.543, 0.701), 0.5: (0.501, 0.723),
    0.6: (0.464, 0.747), 0.7: (0.433, 0.772), 0.8: (0.406, 0.799),
    0.9: (0.382, 0.827),
}
GOLDEN_CIS = {
    0.1: ((-0.041, 0.208), (0.925, 1.335), (0.943, 1.355), (0.940, 1.357)),
    0.1902: ((-0.125, 0.125), (0.811, 1.189), (0.828, 1.208), (0.823, 1.206)),
    0.2: ((-0.133, 0.116), (0.800, 1.174), (0.817, 1.194), (0.812, 1.192)),
    0.3: ((-0.213, 0.037), (0.695, 1.046), (0.711, 1.065), (0.704, 1.059)),
    0.4: ((-0.283, -0.034), (0.609, 0.939), (0.625, 0.958), (0.615, 0.948)),
    0.5: ((-0.345, -0.100), (0.537, 0.847), (0.553, 0.866), (0.541, 0.854)),
    0.6: ((-0.402, -0.163), (0.476, 0.768), (0.492, 0.786), (0.479, 0.772)),
    0.7: ((-0.455, -0.223), (0.425, 0.698), (0.440, 0.716), (0.426, 0.701)),
    0.8: ((-0.506, -0.280), (0.380, 0.637), (0.395, 0.654), (0.381, 0.639)),
    0.9: ((-0.557, -0.333), (0.341, 0.582), (0.356, 0.599), (0.342, 0.584)),
}

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "numerics.multinomial.calls": "count", "numerics.multinomial.self_s": "s",
    "numerics.beta.calls": "count", "numerics.beta.self_s": "s",
    "numerics.uniform_ns": "ns", "numerics.multinomial_n300_us": "us",
    "numerics.multinomial_n1000_us": "us", "numerics.beta_42_40_us": "us",
    "kappa_core.accuracy.calls": "count", "kappa_core.accuracy.self_s": "s",
    "kappa_core.kappa_pair.calls": "count", "kappa_core.kappa_pair.self_s": "s",
    "inference.covariance.calls": "count", "inference.covariance.self_s": "s",
    "inference.closed_ci.calls": "count", "inference.closed_ci.self_s": "s",
    "inference.wald_ratio_us": "us",
    "inference.bootstrap.calls": "count", "inference.bootstrap.self_s": "s",
    "inference.bootstrap.tables": "count", "inference.bootstrap.useful_frac": "fraction",
    "inference.bayes.calls": "count", "inference.bayes.self_s": "s",
    "inference.bayes.draws": "count", "inference.bayes.cache_hit_frac": "fraction",
    "simulation.coverage_study.calls": "count", "simulation.replicate_us": "us",
    "simulation.redraw_frac": "fraction", "simulation.invalid_frac": "fraction",
    "simulation.pools": "count", "simulation.parallel_speedup": "x",
    "cli.report.self_s": "s", "cli.render.self_s": "s",
    "trace.traced_s": "s", "trace.untraced_s": "s", "trace.overhead": "x",
}


@dataclass(frozen=True)
class Analyze:
    """`analyze` of the worked table; ``cs=None`` is the default c grid plus c'."""

    name: str
    b: int = 2000
    m: int = 10_000
    cs: tuple | None = None


@dataclass(frozen=True)
class Coverage:
    """Coverage cells ``(scenario index, n)`` run in order at JOBS workers."""

    name: str
    cells: tuple
    methods: tuple
    replicates: int
    b: int = 2000
    m: int = 10_000


WORKLOADS = {w.name: w for w in (
    Analyze("analyze_worked"),
    Coverage("coverage_closed_grid",
             cells=tuple((i, n) for i in GRID_SCENARIOS for n in GRID_SIZES),
             methods=CLOSED_METHODS, replicates=500),
)}


def derive_seed(seed: int, role: str, index: int) -> int:
    """Configuration seed for one use of the workload seed."""
    digest = hashlib.sha256(f"{seed}/{role}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_for(workload, seed: int):
    from kappacmp.inference import ConfidenceConfig
    return ConfidenceConfig(bootstrap_b=workload.b, bayes_m=workload.m, seed=seed)


def traced_op(tracer, fn, *args):
    """Run one benchmark operation, inside a root span when tracing."""
    if tracer is None:
        return fn(*args)
    return tracer.call("bench.op", fn, *args)


class SpeedProbe:
    """Speed of the machine next to each timed call, from a fixed pure-Python loop.

    The shared 2-vCPU host the benchmark was tuned on switches between
    speed modes about 1.5x apart, for seconds to minutes at a time, on
    both vCPUs at once; one `analyze` call took 1.8 s in one mode and
    3.1 s in the other, and the median raw time of ten runs and that of
    five runs made 15 minutes later differed by 25%. So after each timed call
    the run times this loop for REF_SHARE of the call's wall time, and the
    call's wall time is divided by the loop's slowness around it: the mean
    of the samples taken just before and just after the call. Scaled times
    read as seconds on a machine where one loop chunk takes REF_CHUNK_S.
    """

    def __init__(self):
        self.chunks = []
        self.last = None  # slowness of the latest sample

    @staticmethod
    def _chunk() -> int:
        total = 0
        for i in range(REF_LOOP):
            total += i * i % 7
        return total

    def scale(self, wall: float) -> float:
        """``wall`` at reference speed; samples the loop for REF_SHARE of ``wall`` first.

        A sample lasts REF_MIN_S at least, as one chunk is too short to
        tell the speed: chunk times jump between modes within a second.
        """
        before, first, start = self.last, len(self.chunks), perf_counter()
        while True:
            t0 = perf_counter()
            self._chunk()
            end = perf_counter()
            self.chunks.append(end - t0)
            if end - start >= max(REF_MIN_S, REF_SHARE * wall):
                break
        self.last = statistics.fmean(self.chunks[first:]) / REF_CHUNK_S
        return wall / (self.last if before is None else (before + self.last) / 2)


def timed_loop(op, seconds: float, calls: int = 1, probe: SpeedProbe | None = None):
    """Call ``op(index)`` until ``seconds`` have passed and ``calls`` were made.

    Returns the wall seconds of each call, the same scaled to reference
    speed by ``probe`` (unscaled without one), and the results.
    """
    walls, scaled, results = [], [], []
    start = perf_counter()
    while len(walls) < calls or perf_counter() - start < seconds:
        t0 = perf_counter()
        results.append(op(len(walls)))
        walls.append(perf_counter() - t0)
        scaled.append(walls[-1] if probe is None else probe.scale(walls[-1]))
    return walls, scaled, results


# ---------------------------------------------------------------- analyze

def analyze_once(workload: Analyze, seed: int):
    from kappacmp import cli
    from kappacmp.data_model import PairedCounts
    report = cli.build_analysis_report(PairedCounts(*WORKED_TABLE), cs=workload.cs,
                                       config=config_for(workload, seed))
    return report, cli.render_report(report), cli.render_machine(report)


def check_analysis(workload: Analyze, result) -> list[str]:
    """Goldens to +-0.001, and every bound finite and ordered."""
    report, human, machine = result
    problems = []
    if not human or not machine:
        problems.append("empty rendered report")
    wanted = GOLDEN_KAPPAS if workload.cs is None else [
        c for c in GOLDEN_KAPPAS if any(abs(c - x) <= 1e-9 for x in workload.cs)]
    for c in wanted:
        row = next((r for r in report.rows if abs(r.c - c) <= 1e-9), None)
        if row is None:
            problems.append(f"no row at c={c}")
            continue
        k1, k2 = GOLDEN_KAPPAS[c]
        for label, got, want in (("kappa1", row.kappa1, k1), ("kappa2", row.kappa2, k2),
                                 ("delta", row.delta, k1 - k2),
                                 ("theta", row.theta, k1 / k2)):
            if got is None or abs(got - want) > TOL:
                problems.append(f"c={c}: {label} {got} != {want}")
        for method, (lo, hi) in zip(CLOSED_METHODS, GOLDEN_CIS[c]):
            ci = row.intervals.get(method)
            if ci is None or abs(ci.lower - lo) > TOL or abs(ci.upper - hi) > TOL:
                problems.append(f"c={c}: {method} {ci} != ({lo}, {hi})")
    for row in report.rows:
        if row.interval_errors:
            problems.append(f"c={row.c}: intervals not built: {row.interval_errors}")
        for method, ci in row.intervals.items():
            if not (math.isfinite(ci.lower) and math.isfinite(ci.upper)
                    and ci.lower <= ci.upper):
                problems.append(f"c={row.c}: {method} bounds ({ci.lower}, {ci.upper})")
    return problems


def analyze_setup(workload: Analyze, seed: int, repeat: int) -> str:
    # The first warm-up runs at the check seed and yields the output digest.
    config_seed = CHECK_SEED if repeat == 0 else derive_seed(seed, "warm-up", repeat)
    _, _, machine = analyze_once(workload, config_seed)
    return machine


def run_analyze(workload: Analyze, seed: int, seconds: float, trace: bool, tracer_out, probe):
    """Timed or traced `analyze` calls; returns (samples, ops, metrics)."""
    # Each call gets its own seed. inference caches the posterior draws per
    # (counts, seed) in a module-level lru_cache, so repeating one seed would
    # time cache hits (2.62-2.64 s against 3.07-3.12 s per call with fresh
    # seeds on a 2-vCPU VM) that a CLI user, one call per process, never gets.
    if not trace:
        walls, scaled, results = timed_loop(
            lambda i: attempt(lambda: analyze_once(workload, derive_seed(seed, "call", i))),
            seconds, probe=probe)
        print_metric("analyze_s", statistics.median(walls), "s")
        return scaled, [check_op(r, lambda r: check_analysis(workload, r)) for r in results], {}

    ops = []
    kernels = kernel_timings()
    t0 = perf_counter()
    ops.append(attempt(lambda: analyze_once(workload, derive_seed(seed, "call", 0))))
    untraced_s = perf_counter() - t0
    tracer = Tracer()
    with tracer.installed(trace_targets()):
        t0 = perf_counter()
        ops.append(attempt(lambda: traced_op(tracer, analyze_once, workload,
                                             derive_seed(seed, "call", 1))))
        traced_s = perf_counter() - t0
    tracer_out(tracer)
    metrics = layer_metrics(tracer, workload, kernels)
    metrics.update({"trace.traced_s": traced_s, "trace.untraced_s": untraced_s,
                    "trace.overhead": traced_s / untraced_s})
    return [], [check_op(op, lambda r: check_analysis(workload, r)) for op in ops], metrics


# --------------------------------------------------------------- coverage

def build_scenarios(workload: Coverage) -> dict:
    from kappacmp.simulation import build_scenario_from_kappas
    return {i: build_scenario_from_kappas(*SCENARIOS[i], DEPENDENCE)
            for i in sorted({i for i, _ in workload.cells})}


def coverage_pass(workload: Coverage, scenarios, config, jobs: int, tracer=None):
    """Every cell once, in order; returns (wall seconds, per-cell results)."""
    from kappacmp import simulation

    def cell(index, n):
        return simulation.coverage_study(scenarios[index], n, workload.replicates,
                                         workload.methods, config, jobs=jobs)

    start = perf_counter()
    results = [attempt(lambda: traced_op(tracer, cell, i, n)) for i, n in workload.cells]
    return perf_counter() - start, results


def check_cell(workload: Coverage, rows) -> list[str]:
    """cp and cp_valid in [0, 1] and al finite, for every method of the cell."""
    problems = []
    if [r.method for r in rows] != list(workload.methods):
        problems.append(f"methods {[r.method for r in rows]}")
    for r in rows:
        if not (0.0 <= r.cp <= 1.0 and 0.0 <= r.cp_valid <= 1.0 and math.isfinite(r.al)):
            problems.append(f"{r.method} n={r.n}: cp={r.cp} cp_valid={r.cp_valid} al={r.al}")
    return problems


def coverage_report(results) -> str | None:
    from kappacmp.simulation import render_coverage_report
    if any(isinstance(rows, BaseException) for rows in results):
        return None
    return render_coverage_report([r for rows in results for r in rows])


def coverage_setup(workload: Coverage, seed: int, repeat: int) -> None:
    # Input generation plus one small closed-form cell at jobs=1. The
    # resampling methods have no lazy state to warm: every replicate owns
    # its streams and fills no cache.
    from kappacmp import simulation
    scenarios = build_scenarios(workload)
    index, n = workload.cells[0]
    methods = tuple(m for m in workload.methods if m in CLOSED_METHODS)
    simulation.coverage_study(scenarios[index], n, 100, methods,
                              config_for(workload, derive_seed(seed, "warm-up", repeat)))


def run_coverage(workload: Coverage, seed: int, seconds: float, trace: bool, tracer_out, probe):
    """Timed grid passes, or the three passes of a traced run."""
    from kappacmp import simulation
    scenarios = build_scenarios(workload)
    config = config_for(workload, derive_seed(seed, "coverage", 0))
    replicates = len(workload.cells) * workload.replicates

    def gate(rows):
        return check_cell(workload, rows)

    if not trace:
        walls, scaled, passes = timed_loop(
            lambda i: coverage_pass(workload, scenarios, config, JOBS)[1], seconds, probe=probe)
        print_metric("replicates_per_s", replicates / statistics.median(walls), "1/s")
        ops = [check_op(rows, gate) for results in passes for rows in results]
        return [wall / replicates for wall in scaled], ops, {}

    kernels = kernel_timings()
    pools = Tracer()  # counts pool constructions; spans in workers would be lost
    with pools.installed([(simulation, "ProcessPoolExecutor", "simulation.pools")]):
        parallel_s, parallel = coverage_pass(workload, scenarios, config, JOBS)
    untraced_s, serial = coverage_pass(workload, scenarios, config, 1)
    tracer = Tracer()
    with tracer.installed(trace_targets()):
        traced_s, traced = coverage_pass(workload, scenarios, config, 1, tracer)
    tracer_out(tracer)

    # jobs invariance: the jobs=1 reports, traced and untraced, must be
    # byte-identical to the jobs=2 report, cell by cell.
    ops = [check_op(rows, gate) for rows in parallel]
    for results in (serial, traced):
        for rows, reference in zip(results, parallel):
            ok = check_op(rows, gate)
            if ok and coverage_report([rows]) != coverage_report([reference]):
                print("jobs invariance broken for a cell", file=sys.stderr)
                ok = False
            ops.append(ok)
    identical = coverage_report(traced) is not None and \
        coverage_report(traced) == coverage_report(parallel)
    print(f"jobs invariance: jobs=1 traced report {'identical to' if identical else 'DIFFERS from'}"
          f" jobs={JOBS} report")

    metrics = layer_metrics(tracer, workload, kernels)
    rows = [r for cell in parallel if not isinstance(cell, BaseException) for r in cell]
    redraws = sum(cell[0].failures for cell in parallel if not isinstance(cell, BaseException))
    metrics.update({
        "simulation.replicate_us": untraced_s / replicates * 1e6,
        "simulation.redraw_frac": redraws / (redraws + replicates),
        "simulation.invalid_frac": sum(r.invalid for r in rows) / (replicates * len(workload.methods)),
        "simulation.pools": pools.calls("simulation.pools"),
        "simulation.parallel_speedup": untraced_s / parallel_s,
        "trace.traced_s": traced_s, "trace.untraced_s": untraced_s,
        "trace.overhead": traced_s / untraced_s,
    })
    return [], ops, metrics


# ----------------------------------------------------------------- layers

def trace_targets():
    """(module, imported name, span name): the public names each caller imported."""
    from kappacmp import cli, inference, simulation
    targets = [
        (inference, "sample_multinomial", "numerics.multinomial"),
        (simulation, "sample_multinomial", "numerics.multinomial"),
        (inference, "sample_beta", "numerics.beta"),
        (inference, "accuracy_from_counts", "kappa_core.accuracy"),
        (simulation, "accuracy_from_counts", "kappa_core.accuracy"),
        (cli, "accuracy_from_counts", "kappa_core.accuracy"),
        (inference, "kappa_pair", "kappa_core.kappa_pair"),
        (cli, "kappa_pair", "kappa_core.kappa_pair"),
        (inference, "kappa_covariance", "inference.covariance"),
        (simulation, "coverage_study", "simulation.coverage_study"),
        (cli, "build_analysis_report", "cli.report"),
        (cli, "render_report", "cli.render"),
        (cli, "render_machine", "cli.render"),
    ]
    for module in (simulation, cli):
        targets += [(module, name, "inference.closed_ci") for name in
                    ("wald_diff_ci", "wald_ratio_ci", "log_ratio_ci", "fieller_ratio_ci")]
        targets += [(module, "bootstrap_ci", "inference.bootstrap"),
                    (module, "bayesian_ci", "inference.bayes")]
    return targets


def per_call(fn, calls: int) -> float:
    """Median over KERNEL_REPEATS batches of the seconds per call of ``fn``."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times)


def kernel_timings() -> dict:
    """The kernel rows of the ROADMAP north-star table, untraced."""
    from kappacmp.data_model import PairedCounts
    from kappacmp.inference import wald_ratio_ci
    from kappacmp.numerics import RandomStream, sample_beta, sample_multinomial
    stream = RandomStream(CHECK_SEED, 0)
    counts = PairedCounts(*WORKED_TABLE)
    probs = [x / counts.n for x in WORKED_TABLE]
    return {
        "numerics.uniform_ns": per_call(stream.uniform, 50_000) * 1e9,
        "numerics.multinomial_n300_us": per_call(lambda: sample_multinomial(probs, 300, stream), 1000) * 1e6,
        "numerics.multinomial_n1000_us": per_call(lambda: sample_multinomial(probs, 1000, stream), 500) * 1e6,
        "numerics.beta_42_40_us": per_call(lambda: sample_beta(42.0, 40.0, stream), 5000) * 1e6,
        "inference.wald_ratio_us": per_call(lambda: wald_ratio_ci(counts, 0.5), 2000) * 1e6,
    }


def layer_metrics(tracer: Tracer, workload, kernels: dict) -> dict:
    """Per-layer metrics from one traced run; zero where a layer is not called."""
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    for layer in ("numerics.multinomial", "numerics.beta", "kappa_core.accuracy",
                  "kappa_core.kappa_pair", "inference.covariance", "inference.closed_ci",
                  "inference.bootstrap", "inference.bayes"):
        metrics[f"{layer}.calls"] = tracer.calls(layer)
        metrics[f"{layer}.self_s"] = tracer.self_s(layer)
    boot_calls = tracer.calls("inference.bootstrap")
    tables = tracer.edge_calls("inference.bootstrap", "numerics.multinomial")
    metrics["inference.bootstrap.tables"] = tables
    metrics["inference.bootstrap.useful_frac"] = workload.b * boot_calls / tables if tables else 0.0
    bayes_calls = tracer.calls("inference.bayes")
    # one posterior draw is one (Se1, Sp1, Se2, Sp2, p) tuple: five Beta draws
    metrics["inference.bayes.draws"] = tracer.edge_calls("inference.bayes", "numerics.beta") // 5
    # a call that drew nothing was served from the posterior cache
    metrics["inference.bayes.cache_hit_frac"] = (
        tracer.childless("inference.bayes") / bayes_calls if bayes_calls else 0.0)
    metrics["simulation.coverage_study.calls"] = tracer.calls("simulation.coverage_study")
    metrics["cli.report.self_s"] = tracer.self_s("cli.report")
    metrics["cli.render.self_s"] = tracer.self_s("cli.render")
    metrics.update(kernels)
    return metrics


# ------------------------------------------------------------------ driver

def attempt(fn):
    """Result of ``fn()``, or the exception it raised (reported to stderr)."""
    try:
        return fn()
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc()
        return exc


def check_op(result, gate) -> bool:
    if isinstance(result, BaseException):
        return False
    problems = gate(result)
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    return not problems


def measure_setup(workload, seed: int, probe: SpeedProbe | None) -> float:
    """Median seconds over SETUP_REPEATS set-ups, scaled by ``probe`` when given.

    One set-up is a fresh interpreter importing the package (what a CLI
    user pays on every run), input generation and the untimed warm-up.
    """
    setup = analyze_setup if isinstance(workload, Analyze) else coverage_setup

    def once(repeat):
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import kappacmp.cli", str(SRC)], check=True, timeout=120)
        return setup(workload, seed, repeat)

    walls, scaled, results = timed_loop(once, 0.0, calls=SETUP_REPEATS, probe=probe)
    if results[0] is not None:
        report_digest(workload.name, sha256(results[0]))
    print_metric("setup_wall_s", statistics.median(walls), "s")
    return statistics.median(scaled)


def peak_rss_mb() -> float:
    """Largest max RSS of this process and its reaped children (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout; do not search parent directories
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(workload, seed: int, trace: bool) -> dict:
    import kappacmp
    coverage = isinstance(workload, Coverage)
    return {
        "kappacmp": kappacmp.__version__, "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "B": workload.b, "M": workload.m,
        "jobs": JOBS if coverage else 1,
        "replicates_per_cell": workload.replicates if coverage else None,
    }


def report_digest(name: str, digest: str) -> None:
    recorded = json.loads(DIGESTS.read_text()).get(name) if DIGESTS.is_file() else None
    verdict = "matches" if digest == recorded else f"differs from recorded {recorded}"
    print(f"digest {name} sha256 {digest} ({verdict})")


def print_metric(name: str, value, unit: str) -> None:
    print(f"  {name:<34} {value:<22.10g} {unit}")


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints the metrics and returns the result object."""
    t0 = perf_counter()
    import kappacmp.cli  # noqa: F401 - timed first import
    import_s = perf_counter() - t0
    meta = metadata(workload, seed, trace)
    print("meta " + json.dumps(meta))
    print(f"first import {import_s:.4f} s")

    def tracer_out(tracer):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-{seed}.json"
        tracer.dump(path, meta)
        print(f"spans written to {path.relative_to(ROOT)} ({len(tracer.spans)} kept)")

    # The probe runs in this process, on one vCPU: it tracks `analyze`,
    # which runs here too, but not coverage cells, which run in pool
    # workers on both vCPUs. Scaling the cells of the dropped
    # coverage_resample workload by it widened their spread (0.17 of the
    # median, against 0.08 raw, over five runs).
    probe = SpeedProbe() if isinstance(workload, Analyze) else None
    setup_s = measure_setup(workload, seed, probe)
    run = run_analyze if isinstance(workload, Analyze) else run_coverage
    samples, ops, layer = run(workload, seed, seconds, trace, tracer_out, probe)
    failed = ops.count(False)
    print(f"operations: {len(ops)} attempted, {failed} failed")
    if trace:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        if probe is not None:
            print(f"speed probe: {len(probe.chunks)} loop chunks,"
                  f" mean {statistics.fmean(probe.chunks) * 1e3:.4f} ms")
        values = {"op_s": statistics.median(samples), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print(f"timed samples: {len(samples)}")
        print_metric("ops_failed_frac", failed / len(ops), "fraction")
    for name, metric in metrics.items():
        print_metric(name, metric["value"], metric["unit"])
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def compute_digests() -> dict:
    """SHA-256 of the rendered outputs at the check seed."""
    digests = {}
    for workload in WORKLOADS.values():
        if isinstance(workload, Analyze):
            _, _, text = analyze_once(workload, CHECK_SEED)
        else:
            _, results = coverage_pass(workload, build_scenarios(workload),
                                       config_for(workload, CHECK_SEED), JOBS)
            text = coverage_report(results)
        digests[workload.name] = sha256(text)
        report_digest(workload.name, digests[workload.name])
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", action="store_true",
                        help="print the output digests at the check seed and compare "
                             "them with perfbench/digests.json")
    args = parser.parse_args(argv)
    if not (SRC / "kappacmp" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.digests:
        print(json.dumps(compute_digests()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
