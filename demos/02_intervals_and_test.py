"""All eight interval constructions plus the equality test, side by side.

For a screening use of the two tests (false negatives matter most) we fix
c = 0.9 and ask: is the beyond-chance agreement of test 2 with the
reference really higher, and by how much?
"""

from kappacmp import (
    ConfidenceConfig,
    PairedCounts,
    accuracy_from_counts,
    bayesian_ci,
    bloch_test,
    bootstrap_ci,
    fieller_ratio_ci,
    kappa_pair,
    log_ratio_ci,
    reciprocal_ratio_ci,
    wald_diff_ci,
    wald_ratio_ci,
)

counts = PairedCounts(41, 0, 40, 8, 5, 1, 24, 181)
c = 0.9
config = ConfidenceConfig(seed=1)  # B = 2000 resamples, M = 10000 posterior draws

acc = accuracy_from_counts(counts)
kp = kappa_pair(acc, c)
print(f"kappa1({c}) = {kp.kappa1:.3f}, kappa2({c}) = {kp.kappa2:.3f}")
print(f"difference = {kp.delta:.3f}, ratio = {kp.theta:.3f}")

test = bloch_test(counts, c)
print(f"\nequality test: z = {test.z_stat:.3f}, two-sided p = {test.p_value:.2g}")

print("\n95% intervals for the difference kappa1 - kappa2")
for label, ci in [("Wald", wald_diff_ci(counts, c, config)),
                  ("bias-corrected bootstrap", bootstrap_ci(counts, c, "difference", config)),
                  ("Bayesian quantile", bayesian_ci(counts, c, "difference", config))]:
    print(f"  {label:<26} ({ci.lower:7.3f}, {ci.upper:7.3f})")

print("\n95% intervals for the ratio kappa1 / kappa2")
ratio_cis = [("Wald", wald_ratio_ci(counts, c, config)),
             ("logarithmic", log_ratio_ci(counts, c, config)),
             ("Fieller", fieller_ratio_ci(counts, c, config)),
             ("bias-corrected bootstrap", bootstrap_ci(counts, c, "ratio", config)),
             ("Bayesian quantile", bayesian_ci(counts, c, "ratio", config))]
for label, ci in ratio_cis:
    print(f"  {label:<26} ({ci.lower:7.3f}, {ci.upper:7.3f})")

# Every ratio interval sits below 1 and every difference interval below 0:
# at screening weights, test 2's agreement is significantly higher.
print("\n95% intervals for the inverse ratio kappa2 / kappa1")
print("(how many times larger test 2's agreement is)")
wald_scaled = wald_ratio_ci(counts.swap_tests(), c, config)  # Wald ratio of kappa2/kappa1
print(f"  {'Wald':<26} ({wald_scaled.lower:7.3f}, {wald_scaled.upper:7.3f})"
      " (Wald ratio of the swapped table)")
for label, ci in ratio_cis:
    inverse = reciprocal_ratio_ci(ci, kp.theta)
    label = "Wald, plain reciprocals" if label == "Wald" else label
    print(f"  {label:<26} ({inverse.lower:7.3f}, {inverse.upper:7.3f})")
