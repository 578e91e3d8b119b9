"""Sample the linear stochastic heat solution and check its law.

The field v solves dv = Laplacian(v) dt + dW on the unit torus, driven by
noise whose spatial spectrum is (1 + |k|^2)^(-s/2).  Every Fourier mode is
an independent complex OU process, so v can be sampled exactly in law on
any time grid: no time discretization error enters.  This script draws one
realization, prints a few field statistics, and then verifies the
two-point covariance of grad v against the closed-form mode sum by
Monte Carlo.
"""

import numpy as np

from qspde.mc_harness import covariance_check
from qspde.spectral_noise import (
    CovarianceSpec,
    choose_kmax,
    evaluate_field,
    sample_mode_states,
)

d, s = 1, 2.0

# how many modes does a 1e-6 tail-mass tolerance need?
for tol in (1e-3, 1e-4, 1e-6):
    print(f"tol={tol:.0e}  kmax={choose_kmax(d, s, tol)}")

spec = CovarianceSpec(d, s, kmax=32)
print(f"\nusing kmax={spec.kmax}, neglected tail mass {spec.tail_fraction:.2e}")

# one exact realization on 65 time slabs, evaluated on 128 grid points
times = np.linspace(0.0, 1.0, 65)
path = sample_mode_states(spec, times, seed=7)
v, gv = evaluate_field(path, 128, ["v", 0])  # v and its x-derivative in one pass
print(f"v(t=1): mean {v.values[-1].mean():+.3e}  max |v| {np.abs(v.values[-1]).max():.4f}")
print(f"grad v(t=1): max {np.abs(gv.values[-1]).max():.4f}")

# refining the spatial grid re-evaluates the same realization
(v2,) = evaluate_field(path, 256)
print(f"nested grids agree: {np.allclose(v2.values[:, ::2], v.values, atol=1e-12)}")

# Monte Carlo covariance of grad v against the closed-form mode sum; the
# gradient drops the k=0 mode and the remaining modes decorrelate fast in
# time, so the cross-time entries are near zero
points = [
    (0.5, 0.0, 0.5, 0.0),      # equal-time variance
    (1.0, 0.0, 0.25, 0.0),     # across time
    (1.0, 0.125, 0.5, 0.0),    # across time and space
]
chk = covariance_check(spec, points, N=5000, seed=2)
for pt, mc, cf, se in zip(points, chk.mc, chk.closed, chk.se):
    print(f"cov{pt}: mc {mc:+.5f}  closed {cf:+.5f}  ({abs(mc - cf) / se:.2f} SE)")
print(f"covariance check passed: {chk.passed}")
