"""Acceptance gate: one test per shipped claim, pinned seeds and tolerances.

Each test is self-contained desk-scale evidence for one headline property
of the package; `pytest -v tests/test_acceptance.py` prints one pass/fail
line per claim.  Statistical claims run on frozen root seeds; the full
file takes a few minutes.
"""

import functools
import itertools
import time

import numpy as np

from qspde.config import ExperimentConfig
from qspde.hoelder import C2_EQUIVALENCE, seminorm_dyadic, seminorm_naive
from qspde.mc_harness import (
    covariance_check,
    increment_scaling_fit,
    regularity_gap_study,
    run_campaign,
)
from qspde.nonlinearity import Nonlinearity, builtin, verify_ellipticity
from qspde.solver import GRAD_V_NEGATED, SolverConfig, contraction_test, solve
from qspde.spectral_noise import (
    CovarianceSpec,
    Field,
    sample_mode_states,
)

ROOT_SEED = 20260816


def test_criterion_1_covariance_oracle():
    # d=1, s=2, kmax=32, N=2*10^4: MC covariance of the gradient field at
    # all (t, t') in {0.25, 0.5, 1}^2 and offsets {0, 1/8} within 4 SE
    t0 = time.perf_counter()
    spec = CovarianceSpec(1, 2.0, 32)
    ts = (0.25, 0.5, 1.0)
    points = [
        (t, off, t2, 0.0)
        for t, t2 in itertools.product(ts, ts)
        for off in (0.0, 0.125)
    ]
    chk = covariance_check(spec, points, N=20000, seed=ROOT_SEED)
    assert chk.passed, f"max ratio {np.max(chk.ratio):.3f} exceeds 4 SE"
    assert time.perf_counter() - t0 <= 120.0


def test_criterion_2_increment_scaling():
    # d=1, s=1.5: spatial slope in [0.35, 0.65] (target 0.5), temporal in
    # [0.175, 0.325] (target 0.25), N=5*10^3
    t0 = time.perf_counter()
    spec = CovarianceSpec(1, 1.5, 1023)
    fit = increment_scaling_fit(spec, N=5000, seed=ROOT_SEED)
    assert 0.35 <= fit.spatial_slope <= 0.65, fit.spatial_slope
    assert 0.175 <= fit.temporal_slope <= 0.325, fit.temporal_slope
    assert time.perf_counter() - t0 <= 180.0


def test_criterion_3_gradient_norm_tail():
    # d=1, s=1.5, alpha=0.2: stretched-exponential exponent of the dyadic
    # gradient-norm samples in [1.6, 2.4] at N=5*10^3
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        d=1,
        s=1.5,
        kmax=7,
        n_x=16,
        dt=0.125,
        t_end=1.0,
        alphas=(0.2,),
        nl_kind="tanh_perturbed",
        nl_lambda=0.5,
        j_mode="zero",
        seed=ROOT_SEED,
        n_realizations=5000,
    )
    stats = run_campaign(cfg)
    assert stats.n == 5000 and not stats.failures
    assert stats.tail is not None
    assert 1.6 <= stats.tail.p <= 2.4, f"tail exponent {stats.tail.p:.4f}"
    assert time.perf_counter() - t0 <= 300.0


@functools.lru_cache(maxsize=1)
def _criterion4_solves():
    # one fixed realization advanced exactly on a 2^-16 master grid; each
    # refinement level reads the rows of its own grid from that sample path
    spec = CovarianceSpec(1, 2.0, 15)
    path = sample_mode_states(spec, np.arange(2**16 + 1) * 2.0**-16, seed=2026)
    ident = builtin("identity")
    out = []
    for n_x in (32, 64, 128):
        cfg = SolverConfig(1, n_x, 1.0 / (4 * n_x * n_x), 1.0, ident)
        traj = solve(cfg, path, GRAD_V_NEGATED, save_every=cfg.n_steps)
        gap = float(np.max(np.abs(traj.u[-1] - traj.v[-1])))
        out.append((n_x, gap, traj.mean_drift_rate))
    return out

def test_criterion_4_identity_consistency():
    # identity flux with j = -grad v makes u a discretization of v itself:
    # max|u - v| at T=1 must shrink with observed order >= 1 per level
    t0 = time.perf_counter()
    runs = _criterion4_solves()
    gaps = [g for (_, g, _) in runs]
    orders = [np.log2(gaps[i] / gaps[i + 1]) for i in range(len(gaps) - 1)]
    assert all(o >= 1.0 for o in orders), f"gaps {gaps}, orders {orders}"
    assert time.perf_counter() - t0 <= 120.0


@functools.lru_cache(maxsize=1)
def _criterion5_reports():
    spec = CovarianceSpec(1, 2.0, 7)
    nl = builtin("tanh_perturbed", 0.5)
    dt = 2.0**-12
    times = np.arange(int(0.25 / dt) + 1) * dt
    reports = []
    for k in range(10):
        path = sample_mode_states(spec, times, ROOT_SEED, realization=k)
        cfg = SolverConfig(1, 32, dt, 0.25, nl)
        reports.append(
            contraction_test(cfg, path, GRAD_V_NEGATED, epsilon=1e-3, seed=k)
        )
    return reports

def test_criterion_5_contraction_uniqueness():
    # tanh_perturbed lambda=0.5, 1e-3 initial perturbation, 10 seeds:
    # dissipation never below -1e-10 and final distance <= initial
    for rep in _criterion5_reports():
        assert rep.min_dissipation >= -1e-10, rep.seed
        assert rep.distances[-1] <= rep.distances[0], rep.seed


def test_criterion_6_mean_conservation():
    # spatial mean of w drifts at most 1e-10 per unit time on every solve
    # performed for the consistency and contraction claims
    for (n_x, _, drift) in _criterion4_solves():
        assert drift <= 1e-10, f"n_x={n_x} drift {drift:.3e}"
    for rep in _criterion5_reports():
        assert rep.mean_drift_rate <= 1e-10, rep.seed


def test_criterion_7_regularity_gap():
    # d=1, s=2, alpha=0.4, tanh_perturbed lambda=0.5, refinements
    # n_x in {64, 128, 256}: the composite norm of w stabilizes (< 25%
    # between the finest levels) while v's grows >= 1.5x per level;
    # majority of 5 realizations must pass
    results = [regularity_gap_study(ROOT_SEED, realization=r) for r in range(5)]
    npass = sum(st.passed for st in results)
    detail = [
        (st.realization, round(st.w_rel_change, 4), tuple(round(g, 3) for g in st.v_growth))
        for st in results
    ]
    assert npass >= 4, detail


def test_criterion_8_estimator_equivalence():
    # 200 random dyadic fields: dyadic estimate <= (sqrt3+sqrtd)^alpha *
    # naive, and naive <= C2 * dyadic, zero violations either way
    rng = np.random.default_rng(ROOT_SEED)
    alpha = 0.3
    worst = 0.0
    for i in range(200):
        d = 1 if i % 2 == 0 else 2
        n_t = int(rng.choice([3, 5, 9]))
        n_x = int(rng.choice([2, 4, 8]))
        dt = 1.0 / (4 * (n_t - 1))
        f = Field(rng.standard_normal((n_t,) + (n_x,) * d), dt=dt)
        th = seminorm_dyadic(f, alpha).theta
        nv = seminorm_naive(f, alpha).naive
        chain = (np.sqrt(3.0) + np.sqrt(d)) ** alpha
        assert th <= chain * nv * (1 + 1e-12), f"field {i}: upper bound violated"
        assert nv <= C2_EQUIVALENCE * th, f"field {i}: ratio {nv / th:.4f}"
        worst = max(worst, nv / th)
    assert worst <= C2_EQUIVALENCE


def test_criterion_9_ellipticity_gate():
    # the certificate passes both built-ins at 1e5 samples and flags an
    # overscaled flux
    assert verify_ellipticity(builtin("identity"), 100000, 8.0, seed=ROOT_SEED).passed
    for lam in (0.25, 0.5, 0.9):
        rep = verify_ellipticity(builtin("tanh_perturbed", lam), 100000, 8.0, seed=ROOT_SEED)
        assert rep.passed, (lam, rep.violations)
    doubled = Nonlinearity(
        "doubled",
        1.0,
        0.0,
        lambda q: 2.0 * np.asarray(q, float),
        lambda q: 2.0 * np.ones_like(np.asarray(q, float)),
    )
    assert not verify_ellipticity(doubled, 100000, 8.0, seed=ROOT_SEED).passed
