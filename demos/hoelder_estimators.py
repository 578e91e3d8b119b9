"""Estimate parabolic Hölder seminorms two ways and compare.

The seminorm [f]_alpha takes the sup of |f(z) - f(z')| / dist(z, z')^alpha
over space-time points z = (t, x), with the parabolic distance
sqrt(|t - t'|) + |x - x'| (periodic in x).  The naive estimator maximizes
the quotient over sampled point pairs; the dyadic estimator Theta only
compares points at dyadic separations R = 2^-m and is dramatically
cheaper.  A chaining argument makes the two equivalent up to constants,
which this script exhibits on random fields, before evaluating the
C^{1+alpha}-type composite norm of a solved trajectory.
"""

import numpy as np

from qspde.hoelder import (
    C2_EQUIVALENCE,
    c1alpha_seminorm,
    centered_gradient,
    seminorm_dyadic,
    seminorm_naive,
)
from qspde.nonlinearity import builtin
from qspde.solver import SolverConfig, solve
from qspde.spectral_noise import CovarianceSpec, Field, evaluate_field, sample_mode_states

alpha = 0.3
rng = np.random.default_rng(5)

# random dyadic-sized fields: Theta <= (sqrt3 + sqrt d)^alpha * naive and
# naive <= C2 * Theta must hold pairwise
print(f"two-sided equivalence on random fields (C2 = {C2_EQUIVALENCE}):")
for d in (1, 2):
    f = Field(rng.standard_normal((9,) + (8,) * d), dt=1.0 / 32)
    nv = seminorm_naive(f, alpha).naive
    th = seminorm_dyadic(f, alpha).theta
    chain = (np.sqrt(3.0) + np.sqrt(d)) ** alpha
    print(
        f"  d={d}: naive {nv:8.4f}  theta {th:8.4f}  "
        f"theta/naive {th / nv:.3f} (<= {chain:.3f})  naive/theta {nv / th:.3f}"
    )

# the dyadic report carries a witness pair that reproduces the estimate
f = Field(rng.standard_normal((9, 16)), dt=1.0 / 32)
rep = seminorm_dyadic(f, alpha)
(t, x), (t2, x2) = rep.pair
print(f"\ndyadic witness: f({t:.4f}, {x[0]:.4f}) vs f({t2:.4f}, {x2[0]:.4f})"
      f" at scale R={rep.level_R:.4f} gives {rep.theta:.4f}")

# composite norm of a solved remainder: sup |grad w| plus the alpha-Hölder
# seminorm of grad w plus the (1+alpha)/2 time regularity of w
spec = CovarianceSpec(1, 2.0, kmax=15)
cfg = SolverConfig(1, 64, dt=2.0**-14, t_end=0.25, nl=builtin("tanh_perturbed", 0.5))
every = cfg.n_steps // 16
path = sample_mode_states(spec, np.arange(cfg.n_steps + 1) * cfg.dt, seed=11)
w = Field(solve(cfg, path, save_every=every).w, dt=cfg.dt * every)
gw_alpha = seminorm_dyadic(Field(centered_gradient(w)[:, 0], dt=w.dt), alpha).theta
composite = c1alpha_seminorm(w, alpha)
# grad v at the saves, evaluated spectrally from the noise path
(grad_v,) = evaluate_field(path, cfg.n_x, [0])
gv_alpha = seminorm_dyadic(Field(grad_v.values[::every], dt=w.dt), alpha).theta

print(f"\nsolved trajectory, alpha={alpha}:")
print(f"  [grad w]_alpha  {gw_alpha:.4f}")
print(f"  composite 1+alpha norm of w  {composite:.4f}")
print(f"  [grad v]_alpha  {gv_alpha:.4f}")
print("under grid refinement the w norms stabilize while v's estimator")
print("keeps growing; run qspde.mc_harness.regularity_gap_study to see it")
