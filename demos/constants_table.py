"""
Closed-form constants and their large-N limit laws
---------------------------------------------------

Tabulate the digit means and growth constants for several indices, then show
how fast K_N/N approaches e and the power means approach (1-r)^(-1/r) * N.
"""

import math

from ncfrac import ConstantsReport, holder_mean, khinchin, levy_lambda

print(f"{'N':>5} {'K_N':>12} {'Lambda_N':>10} {'L_N':>8} {'lyapunov':>9} "
      f"{'loch':>7} {'lyap_bound':>11} {'denom_bound':>12}")
for N in (1, 2, 3, 5, 10, 100):
    rep = ConstantsReport.compute(N)
    print(f"{N:>5} {rep['khinchin']:>12.6f} {rep['levy_lambda']:>10.6f} {rep['levy_L']:>8.4f} "
          f"{rep['lyapunov']:>9.4f} {rep['loch']:>7.4f} {rep['lower_bound_lyapunov']:>11.4f} "
          f"{rep['lower_bound_denominator']:>12.4f}")

print("\nlimit laws: K_N/N -> e, K_(N,-1)/N -> 2, K_(N,1/2)/N -> 4, Lambda_N -> 1")
print(f"{'N':>7} {'K_N/N':>10} {'K(-1)/N':>9} {'K(1/2)/N':>9} {'Lambda_N':>10}")
for N in (3, 10, 100, 1000, 10000):
    print(f"{N:>7} {khinchin(N)/N:>10.6f} {holder_mean(N, -1.0)/N:>9.5f} "
          f"{holder_mean(N, 0.5)/N:>9.5f} {levy_lambda(N):>10.7f}")
print(f"{'inf':>7} {math.e:>10.6f} {2.0:>9.5f} {4.0:>9.5f} {1.0:>10.7f}")

print("\nthe plain digit mean (order r = 1) is infinite for every N:")
print("holder_mean(3, 1.0) =", holder_mean(3, 1.0))
