"""Solve the flux-form equation and watch two solutions contract.

With v handled exactly by the spectral sampler, the remainder w = u - v
solves the random PDE

    dw/dt = div( A(grad w + grad v) + j ),    w(0) = 0,

which an explicit theta-weighted finite-difference march integrates in
conservative form.  Monotone fluxes (eigenvalues of DA confined to
[lam, 1]) make the march contractive in L2: two solves differing only in
their initial data approach each other, which is the discrete footprint
of pathwise uniqueness.  The script runs one solve, then a perturbed
pair, then a small identity-flux consistency sweep where u should
reproduce v up to discretization error.
"""

import numpy as np

from qspde.nonlinearity import builtin
from qspde.solver import GRAD_V_NEGATED, SolverConfig, contraction_test, solve
from qspde.spectral_noise import CovarianceSpec, sample_mode_states

spec = CovarianceSpec(1, 2.0, kmax=15)
nl = builtin("tanh_perturbed", 0.5)

# one solve: n_x=64 nodes, dt at half the stability bound, unforced
cfg = SolverConfig(1, 64, dt=2.0**-14, t_end=0.25, nl=nl)
times = np.arange(cfg.n_steps + 1) * cfg.dt
path = sample_mode_states(spec, times, seed=11)
traj = solve(cfg, path, save_every=cfg.n_steps // 4)
print(f"steps={cfg.n_steps}  saved slabs={traj.w.shape[0]}")
print(f"max |w| at t_end: {np.abs(traj.w[-1]).max():.4e}")
print(f"max |u - v| at t_end: {np.abs(traj.u[-1] - traj.v[-1]).max():.4e}")
print(f"mean drift per unit time: {traj.mean_drift_rate:.2e}")

# contraction: perturb the initial condition by 1e-3 and track the
# discrete L2 distance and per-step dissipation
rep = contraction_test(cfg, path, GRAD_V_NEGATED, epsilon=1e-3, seed=4)
print(f"\ncontraction: d(0)={rep.initial_distance:.3e}  d(T)={rep.final_distance:.3e}")
print(f"min dissipation {rep.min_dissipation:.2e} (must be >= -1e-10)")
print(f"passed: {rep.passed}")

# identity flux with j = -grad v collapses the equation to the heat
# equation driven by the same noise, so u is a second-order-in-space
# discretization of the exactly sampled v
print("\nidentity consistency sweep (gap = max |u - v| at t=1):")
ident = builtin("identity")
master = sample_mode_states(spec, np.arange(2**16 + 1) * 2.0**-16, seed=2026)
gaps = []
for n_x in (32, 64, 128):
    c = SolverConfig(1, n_x, 1.0 / (4 * n_x * n_x), 1.0, ident)
    t = solve(c, master, GRAD_V_NEGATED, save_every=c.n_steps)
    gaps.append(np.abs(t.u[-1] - t.v[-1]).max())
    order = "" if len(gaps) < 2 else f"  order {np.log2(gaps[-2] / gaps[-1]):.2f}"
    print(f"  n_x={n_x:4d}  gap {gaps[-1]:.3e}{order}")
