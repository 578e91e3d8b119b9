"""Monte Carlo harness tests: campaign plumbing, statistical verifiers
against known laws, and the tail estimator on synthetic samples."""

import numpy as np
import pytest

from qspde import mc_harness
from qspde.config import ExperimentConfig
from qspde.mc_harness import (
    CampaignFailure,
    covariance_check,
    increment_scaling_fit,
    regularity_gap_study,
    run_campaign,
    tail_fit,
)
from qspde.spectral_noise import CovarianceSpec


def noise_cfg(**kw):
    base = dict(
        d=1,
        s=2.0,
        kmax=3,
        n_x=8,
        dt=1 / 16,
        t_end=1.0,
        alphas=(0.3,),
        nl_kind="tanh_perturbed",
        nl_lambda=0.5,
        j_mode="zero",
        seed=101,
        n_realizations=12,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def solve_cfg(**kw):
    base = dict(
        d=1,
        s=2.0,
        kmax=3,
        n_x=8,
        dt=1 / 256,
        t_end=0.25,
        alphas=(0.3,),
        nl_kind="tanh_perturbed",
        nl_lambda=0.5,
        j_mode="grad_v_negated",
        seed=77,
        n_realizations=4,
        mc_solve=True,
        save_every=4,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def criterion_points():
    ts = (0.25, 0.5, 1.0)
    pts = []
    for r in (0.0, 0.125):
        for t in ts:
            for t2 in ts:
                pts.append((t, 0.0, t2, r))
    return pts


# ---------------------------------------------------------------------------
# campaigns


def test_campaign_noise_only_records():
    stats = run_campaign(noise_cfg())
    assert stats.n == 12
    assert [r.seed for r in stats.records] == list(range(12))
    assert all(np.isfinite(r.grad_v_alpha) and r.grad_v_alpha > 0 for r in stats.records)
    assert all(r.grad_u_alpha is None and r.w_c1alpha is None for r in stats.records)
    assert set(stats.moments) == {"grad_v_alpha"}
    assert stats.tail is None  # below the sample-count threshold


def test_campaign_solve_mode_records():
    stats = run_campaign(solve_cfg())
    assert stats.n == 4
    for r in stats.records:
        assert r.grad_u_alpha is not None and r.w_c1alpha is not None
        assert 0 < r.w_c1alpha < np.inf
    assert set(stats.moments) == {"grad_v_alpha", "grad_u_alpha", "w_c1alpha"}


def test_campaign_rerun_is_bitwise_identical():
    a = run_campaign(noise_cfg())
    b = run_campaign(noise_cfg())
    for ra, rb in zip(a.records, b.records):
        assert ra.grad_v_alpha == rb.grad_v_alpha


def test_campaign_single_realization_projection():
    full = run_campaign(noise_cfg())
    one = run_campaign(noise_cfg(), realizations=[5])
    assert one.n == 1
    assert one.records[0].grad_v_alpha == full.records[5].grad_v_alpha


def test_campaign_workers_do_not_change_results():
    a = run_campaign(noise_cfg(), workers=1)
    b = run_campaign(noise_cfg(), workers=2)
    assert [r.grad_v_alpha for r in a.records] == [r.grad_v_alpha for r in b.records]


def test_campaign_failure_gate_aborts(monkeypatch):
    real = mc_harness._campaign_record

    def flaky(plan, r):
        if r in (1, 3):
            raise RuntimeError("synthetic failure")
        return real(plan, r)

    monkeypatch.setattr(mc_harness, "_campaign_record", flaky)
    with pytest.raises(CampaignFailure):
        run_campaign(noise_cfg(n_realizations=8))


def test_campaign_rare_failures_recorded(monkeypatch):
    real = mc_harness._campaign_record

    def flaky(plan, r):
        if r in (10, 200):
            raise RuntimeError("synthetic failure")
        return real(plan, r)

    monkeypatch.setattr(mc_harness, "_campaign_record", flaky)
    stats = run_campaign(noise_cfg(n_realizations=300))
    assert stats.n == 298
    assert [f["seed"] for f in stats.failures] == [10, 200]
    assert "synthetic failure" in stats.failures[0]["error"]


def test_campaign_rejects_empty_inputs():
    with pytest.raises(ValueError):
        run_campaign(noise_cfg(alphas=()))
    with pytest.raises(ValueError):
        run_campaign(noise_cfg(), realizations=[])


@pytest.mark.parametrize("mc_solve", [False, True])
def test_campaign_rejects_file_j_mode_before_any_realization(monkeypatch, mc_solve):
    calls = []
    monkeypatch.setattr(mc_harness, "_campaign_record", lambda cfg, r: calls.append(r))
    cfg = solve_cfg(j_mode="file", j_file="j0.qspd", mc_solve=mc_solve)
    with pytest.raises(ValueError, match="campaigns support zero and grad_v_negated only"):
        run_campaign(cfg)
    assert calls == []


def test_substreams_uncorrelated_across_realizations():
    stats = run_campaign(noise_cfg(n_realizations=256))
    x = np.array([r.grad_v_alpha for r in stats.records])
    x = (x - x.mean()) / x.std()
    r1 = float(np.mean(x[:-1] * x[1:]))
    assert abs(r1) <= 3.0 / np.sqrt(x.size - 1)


def test_two_root_seeds_agree_in_law():
    a = run_campaign(noise_cfg(seed=500, n_realizations=64))
    b = run_campaign(noise_cfg(seed=501, n_realizations=64))
    ma, mb = a.moments["grad_v_alpha"], b.moments["grad_v_alpha"]
    se = np.hypot(ma["std"] / 8.0, mb["std"] / 8.0)
    assert abs(ma["mean"] - mb["mean"]) <= 4.0 * se


# ---------------------------------------------------------------------------
# covariance verifier


def test_covariance_check_most_seeds_pass():
    # the 4-SE gate is a per-point property of the estimator, so thinning
    # the sample count must not change the pass rate materially
    spec = CovarianceSpec(1, 2.0, 32)
    pts = criterion_points()
    passed = sum(covariance_check(spec, pts, 2000, seed).passed for seed in range(20))
    assert passed >= 19


def test_covariance_check_zero_variance_point():
    spec = CovarianceSpec(1, 2.0, 4)
    rep = covariance_check(spec, [(0.5, 0.0, 0.0, 0.0)], 50, seed=3)
    # h vanishes identically at t'=0: zero residual, zero SE, clean pass
    assert rep.ratio[0] == 0.0
    assert rep.passed


def test_covariance_check_points_are_the_flat_lists_of_its_dict():
    # [t, *x, t', *x'] per pair, so to_dict is the dataclass fields as they are
    spec = CovarianceSpec(2, 3.0, 2)
    rep = covariance_check(spec, [(0.5, (0.25, 0.0), 1.0, np.zeros(2))], 10, seed=3)
    assert rep.points == [[0.5, 0.25, 0.0, 1.0, 0.0, 0.0]]
    assert all(type(c) is float for c in rep.points[0])
    assert rep.to_dict()["points"] == rep.points


def test_covariance_check_validation():
    spec = CovarianceSpec(1, 2.0, 4)
    with pytest.raises(ValueError):
        covariance_check(spec, [(0.5, (0.0, 0.0), 0.5, (0.0, 0.0))], 10, seed=0)
    with pytest.raises(ValueError):
        covariance_check(spec, [(1.5, 0.0, 0.5, 0.0)], 10, seed=0)
    with pytest.raises(ValueError):
        covariance_check(spec, [(0.5, 0.0, 0.5, 0.0)], 1, seed=0)


def _no_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(mc_harness, "sample_mode_states", refuse)


@pytest.mark.parametrize("N, j", [(0, 0), (1, 0), (10, -1), (10, 2)])
def test_verifiers_check_draws_and_axis_before_sampling(monkeypatch, N, j):
    # N = 0 gave NaN slopes and N = 1 NaN standard errors; j = -1 aliased
    # the last axis and j = d raised a bare IndexError
    _no_sampling(monkeypatch)
    spec = CovarianceSpec(2, 3.0, 3)
    match = "N must be >= 2" if N < 2 else rf"axis {j} out of range for d=2"
    with pytest.raises(ValueError, match=match):
        increment_scaling_fit(spec, N, seed=0, spatial_lags=np.array([1 / 8]), temporal_lags=np.array([0.25]), j=j)
    with pytest.raises(ValueError, match=match):
        covariance_check(spec, [(0.5, (0.0, 0.0), 0.5, (0.0, 0.0))], N, seed=0, j=j)


# ---------------------------------------------------------------------------
# increment scaling


def test_scaling_invariant_window():
    # slope targets s-d in space and (s-d)/2 in time on dyadic windows
    spec = CovarianceSpec(1, 1.5, 1023)
    fit = increment_scaling_fit(
        spec, 100, seed=424242, temporal_lags=2.0 ** np.arange(-10, -3)
    )
    assert abs(fit.spatial_slope - 0.5) <= 0.15
    assert abs(fit.temporal_slope - 0.25) <= 0.15


def test_scaling_se_shrinks_with_sample_size():
    spec = CovarianceSpec(1, 1.5, 31)
    kw = dict(
        spatial_lags=np.array([1 / 16, 1 / 8]),
        temporal_lags=np.array([2.0**-8, 2.0**-7, 2.0**-6]),
    )
    small = increment_scaling_fit(spec, 800, seed=9, **kw)
    big = increment_scaling_fit(spec, 3200, seed=9, **kw)
    assert small.spatial_se / big.spatial_se == pytest.approx(2.0, rel=0.15)
    assert small.temporal_se / big.temporal_se == pytest.approx(2.0, rel=0.15)


def test_scaling_default_lags_error_names_the_cause():
    with pytest.raises(ValueError, match=r"kmax=63.*256 \| 2\*kmax\+2.*pass spatial_lags"):
        increment_scaling_fit(CovarianceSpec(1, 1.5, 63), 3, seed=0)


def test_scaling_validation():
    with pytest.raises(ValueError, match="s - d"):
        increment_scaling_fit(CovarianceSpec(1, 3.5, 15), 10, seed=0)
    spec = CovarianceSpec(1, 1.5, 31)  # n_x = 64 cannot host lag 2^-8
    with pytest.raises(ValueError, match="multiples"):
        increment_scaling_fit(spec, 10, seed=0)
    for lag in (np.nan, np.inf):
        with pytest.raises(ValueError, match="multiples"):
            increment_scaling_fit(spec, 10, seed=0, spatial_lags=np.array([1 / 16, lag]))
    for lag in (1.5, np.nan):
        with pytest.raises(ValueError, match="temporal"):
            increment_scaling_fit(
                spec, 10, seed=0, spatial_lags=np.array([1 / 16]), temporal_lags=np.array([lag])
            )


# ---------------------------------------------------------------------------
# tail estimator


def test_tail_fit_gaussian_modulus():
    # the fitted exponent sits near 2 but carries a mild downward bias at
    # observable quantiles; the band rules out exponential decay (p = 1)
    rng = np.random.default_rng(0)
    p, c = tail_fit(np.abs(rng.standard_normal(10000)))
    assert 1.5 <= p <= 2.5
    assert c > 0


def test_tail_fit_exponential():
    rng = np.random.default_rng(2)
    fit = tail_fit(rng.exponential(scale=2.0, size=10000))
    assert 0.85 <= fit.p <= 1.15


def test_tail_fit_shifted_exponential_recovers_location():
    rng = np.random.default_rng(3)
    fit = tail_fit(5.0 + rng.exponential(scale=0.5, size=20000))
    assert 0.8 <= fit.p <= 1.25
    assert 4.0 <= fit.location <= 5.2


def test_tail_fit_deterministic():
    rng = np.random.default_rng(4)
    x = np.abs(rng.standard_normal(2000))
    assert tail_fit(x).to_dict() == tail_fit(x).to_dict()


def test_tail_fit_rejections():
    with pytest.raises(ValueError):
        tail_fit(np.ones(5000))
    with pytest.raises(ValueError):
        tail_fit(np.arange(100, dtype=float))
    bad = np.ones(2000)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        tail_fit(bad)


def test_campaign_attaches_tail_for_large_runs():
    stats = run_campaign(noise_cfg(kmax=2, n_realizations=1000))
    assert stats.tail is not None
    assert stats.tail.n == 1000
    assert stats.tail.p > 0


# ---------------------------------------------------------------------------
# refinement study (structural smoke; the production gate runs in the
# acceptance suite)


def test_gap_study_structure():
    study = regularity_gap_study(
        seed=7, s=2.0, kmax=3, alpha=0.3, levels=((8, 4), (16, 16))
    )
    assert len(study.levels) == 2
    assert all(lv.theta_v > 0 and lv.theta_w >= 0 for lv in study.levels)
    assert len(study.v_growth) == 1
    assert np.isfinite(study.w_rel_change)
    d = study.to_dict()
    assert d["seed"] == 7 and len(d["levels"]) == 2
