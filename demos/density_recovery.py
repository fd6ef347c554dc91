"""
Recovering the invariant density from the transfer operator
-----------------------------------------------------------

Discretize the map on a uniform grid, power-iterate to the stationary
distribution, and compare the histogram with the analytic density
1/((N + x) log(1 + 1/N)) that it recovers with no knowledge of the closed
form.  Writes a density profile CSV for external plotting.
"""

import csv

import numpy as np

from ncfrac import build_model, density

print("L1 recovery error vs grid resolution")
print(f"{'N':>3} {'m=32':>10} {'m=128':>10} {'m=512':>10} {'iterations(512)':>16}")
for N in (1, 2, 3, 5, 10):
    errors = {}
    for m in (32, 128, 512):
        model = build_model(N, m)
        errors[m] = model.l1_error
    print(f"{N:>3} {errors[32]:>10.2e} {errors[128]:>10.2e} {errors[512]:>10.2e} "
          f"{model.iterations:>16}")

model = build_model(1, 512)
mids = (np.arange(8) + 0.5) / 8
print("\nclassical case N=1, m=512: histogram vs analytic density (8 sample points)")
for x in mids:
    cell = int(x * 512)
    print(f"  x={x:.4f}: recovered {model.stationary[cell] * 512:.6f}   "
          f"analytic {density(1, x):.6f}")

with open("density_profile_n1.csv", "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["midpoint", "empirical", "analytic"])
    for cell, mass in enumerate(model.stationary.tolist()):
        x = (cell + 0.5) / 512
        writer.writerow([repr(x), repr(mass * 512), repr(density(1, x))])
print("\nfull 512-cell profile written to density_profile_n1.csv "
      "(columns: midpoint, empirical, analytic)")
