"""Full coverage-probability tables over the eight benchmark populations.

Eight scenarios span true differences {-0.6, -0.4, -0.2, 0} (equivalently
ratios {0.25, 0.5, 0.75, 1}) across prevalences 5%-50% and weighting
indices {0.1, 0.5, 0.9}; each population is specified by its pair of
chance-corrected specificities/sensitivities (kappa(0), kappa(1)) per test.

At full fidelity (--replicates 10000 with the bootstrap and Bayesian
methods included) this is a multi-day job: every replicate then carries
2000 resamples and 10000 posterior draws. The default therefore runs the
closed-form methods only; scale up per table with --methods/--replicates
and spread over cores with --jobs (results are identical for any --jobs).

    python demos/06_full_coverage_tables.py --replicates 2000
    python demos/06_full_coverage_tables.py --replicates 10000 \
        --methods wald-diff,boot-diff,bayes-diff --jobs 8
    python demos/06_full_coverage_tables.py --small-sample   # +0.5 variant
"""

import argparse
import sys
import time

from kappacmp import (
    ConfidenceConfig,
    build_scenario_from_kappas,
    coverage_study,
    render_coverage_report,
)
from kappacmp.inference import METHODS, check_methods

# (label, k0_1, k1_1, k0_2, k1_2, p, c); dependence fraction is a flag.
SCENARIOS = [
    ("diff -0.6 / ratio 0.25, c=0.1, p=50%", 0.21, 0.14, 0.81, 0.72, 0.50, 0.1),
    ("diff -0.6 / ratio 0.25, c=0.9, p=10%", 0.20, 0.20, 0.80, 0.80, 0.10, 0.9),
    ("diff -0.4 / ratio 0.50, c=0.1, p=10%", 0.38, 0.76, 0.80, 0.80, 0.10, 0.1),
    ("diff -0.4 / ratio 0.50, c=0.5, p=25%", 0.30, 0.60, 0.80, 0.80, 0.25, 0.5),
    ("diff -0.2 / ratio 0.75, c=0.9, p=5%", 0.60, 0.60, 0.40, 0.90, 0.05, 0.9),
    ("diff -0.2 / ratio 0.75, c=0.1, p=25%", 0.90, 0.15, 0.90, 0.40, 0.25, 0.1),
    ("diff  0.0 / ratio 1.00, c=0.5, p=25%", 0.30, 0.60, 0.60, 0.30, 0.25, 0.5),
    ("diff  0.0 / ratio 1.00, c=0.9, p=50%", 0.10, 0.60, 0.40, 0.40, 0.50, 0.9),
]

SIZES = (25, 50, 100, 200, 300, 400, 500, 1000)
SMALL_SIZES = (25, 50, 100)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--replicates", type=int, default=2000,
                        help="samples per (scenario, n) cell (default 2000; "
                             "the full tables use 10000)")
    parser.add_argument("--methods", default="wald-diff,wald-ratio,log-ratio,fieller-ratio",
                        help="comma list; add boot-*/bayes-* for full fidelity")
    parser.add_argument("--sizes", default=None,
                        help="comma list of sample sizes (default 25...1000)")
    parser.add_argument("--scenarios", default=None,
                        help="comma list of 1-based scenario numbers (default all)")
    parser.add_argument("--dependence", type=float, default=0.5,
                        help="fraction of the maximal dependence factors (default 0.5)")
    parser.add_argument("--small-sample", action="store_true",
                        help="+0.5-corrected variant at n = 25, 50, 100, ratio methods")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes, started once and shared by every cell "
                             "(results identical for any value)")
    parser.add_argument("--out", default="-", help="report file ('-' for stdout)")
    args = parser.parse_args(argv)

    methods = check_methods(m.strip() for m in args.methods.split(",") if m.strip())
    sizes = (tuple(int(s) for s in args.sizes.split(",")) if args.sizes
             else (SMALL_SIZES if args.small_sample else SIZES))
    if args.small_sample:
        methods = tuple(m for m in methods if METHODS[m].target == "ratio") or ("wald-ratio",)
    picks = (range(len(SCENARIOS)) if args.scenarios is None
             else [int(i) - 1 for i in args.scenarios.split(",")])

    config = ConfidenceConfig(seed=args.seed)
    results = []
    start = time.time()
    for idx in picks:
        label, k0_1, k1_1, k0_2, k1_2, p, c = SCENARIOS[idx]
        scenario = build_scenario_from_kappas(k0_1, k1_1, k0_2, k1_2, p, c,
                                              args.dependence)
        print(f"scenario {idx + 1}: {label}  "
              f"(Se1={scenario.se1:.3f} Sp1={scenario.sp1:.3f} "
              f"Se2={scenario.se2:.3f} Sp2={scenario.sp2:.3f} "
              f"eps1={scenario.eps1:.4f} eps0={scenario.eps0:.4f})", file=sys.stderr)
        for n in sizes:
            rows = coverage_study(scenario, n, args.replicates, methods, config,
                                  jobs=args.jobs, correct=args.small_sample)
            results.extend(rows)
            cp_text = "  ".join(f"{r.method} {r.cp:.3f}/{r.al:.3f}" for r in rows)
            print(f"  n={n:5d}  {cp_text}", file=sys.stderr)
    report = render_coverage_report(results)
    if args.out == "-":
        sys.stdout.write(report)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"report written to {args.out}", file=sys.stderr)
    print(f"done in {time.time() - start:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
