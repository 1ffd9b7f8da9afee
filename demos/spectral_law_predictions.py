"""
Spectral-law predictions against sampled clusters
=================================================

The scatter spectrum of a T-point Gaussian cluster in n dimensions
follows a known limiting density.  Integrating that density predicts
the fractional anisotropy and Var(lambda) a sampled cluster will
report, with no sampling at all.  Here we put prediction and
measurement side by side while n grows past T.
"""

import numpy as np

from isoclust import MpParams, mp_pdf, mp_support, run_mp_rows

rows = run_mp_rows(points=100, dims=[50, 100, 200, 400, 800, 1600], sigma2=1.0, mu=0.0, empirical=8, seed=0)
print("clusters of T = 100 points, 8 sampled per row")
print(f"{'n':>6} {'fa pred':>9} {'fa meas':>9} {'var pred':>10} {'var meas':>10}")
for row in rows:
    print(
        f"{row['dims']:>6} {row['expected_fa']:>9.4f} {row['measured_fa_mean']:>9.4f} "
        f"{row['expected_var_lambda']:>10.2e} {row['measured_var_lambda_mean']:>10.2e}"
    )

# FA climbs toward 1 as n outruns T (the cluster cannot fill the
# space), while Var(lambda) decays like 1/(nT): two views of the same
# thinning spectrum.

# The density itself, for one configuration:
params = MpParams(points=100, dims=400)
lo, hi = mp_support(params)
print()
print(f"T=100, n=400: support [{lo:.2f}, {hi:.2f}]")
for lam in np.linspace(lo, hi, 7):
    bar = "#" * int(60 * mp_pdf(params, lam))
    print(f"  pdf({lam:4.2f}) = {mp_pdf(params, lam):6.4f} {bar}")
