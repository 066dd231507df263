"""Desk-scale coverage study: do the intervals hold their nominal 95%?

Draws 2000 samples at each size from a known population, builds the
requested intervals on every sample, and reports the fraction covering the
true value (CP) plus the average interval length (AL). A method fails at
the 95% level when its CP drops to 93% or less.
"""

import time

from kappacmp import ConfidenceConfig, build_scenario_from_kappas, coverage_study

# Population with true kappas 0.2 and 0.8 at c = 0.1 (so a -0.6 difference
# and a 0.25 ratio), balanced prevalence, intermediate dependence.
scenario = build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5)
print(f"true kappas: {scenario.kappa1:.3f} vs {scenario.kappa2:.3f} "
      f"(difference {scenario.delta:.2f}, ratio {scenario.theta:.2f})")

config = ConfidenceConfig(seed=11)
methods = ["wald-diff", "wald-ratio", "log-ratio", "fieller-ratio"]

print(f"\n{'n':>6} {'method':<14} {'CP':>6} {'AL':>9}  verdict")
start = time.time()
for n in (50, 100, 200, 500, 1000):
    for res in coverage_study(scenario, n, 2000, methods, config):
        verdict = "FAILS" if res.failed else "ok"
        print(f"{n:6d} {res.method:<14} {res.cp:6.3f} {res.al:9.3g}  {verdict}")
print(f"\n{time.time() - start:.1f} s for {5 * 2000} samples x {len(methods)} methods")
print("The asymptotic intervals need a few hundred subjects before their")
print("coverage settles near 95%. Below that the log interval both fails and")
print("produces absurd average lengths: whenever a sample's kappa1 estimate")
print("lands near zero its log-scale variance explodes. The +0.5 correction")
print("(kappacmp simulate --batch grids/paper_small.csv --correct) repairs the")
print("Wald ratio interval, which is why it is the small-sample recommendation.")
