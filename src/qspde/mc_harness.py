"""Seeded Monte Carlo campaigns over noise realizations.

Each realization draws its own counter-based sub-streams from the root
seed, so campaigns are deterministic, order-independent, and safely
parallel.  The module also carries the statistical verifiers: the
covariance cross-check against the closed form, log-log increment
scaling fits, stretched-exponential tail fits, and the refinement study
comparing the composite seminorm of u - v against the same estimator
applied to the rough background field.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import _plain, check
from .hoelder import _max_component_theta, _row_stride, c1alpha_seminorm, centered_gradient
from .nonlinearity import builtin
from .solver import GRAD_V_NEGATED, SolverConfig, solve
from .spectral_noise import (
    CovarianceSpec,
    Field,
    _spectral_slabs,
    covariance_closed_form,
    make_mode_set,
    read_qspd,
    sample_mode_states,
)


class CampaignFailure(RuntimeError):
    """Raised when more than 1% of realizations fail."""


@dataclass
class McRecord:
    """Norms of a single realization; seed is the sub-stream index."""

    seed: int
    grad_v_alpha: float
    grad_u_alpha: Optional[float]
    w_c1alpha: Optional[float]
    wall_time: float


@dataclass
class McStats:
    """Campaign aggregate: records in realization order plus summaries."""

    n: int
    root_seed: int
    alpha: float
    records: list
    failures: list
    moments: dict
    tail: Optional["TailFit"] = None


def _noise_path(cfg, realization: int):
    """The configured noise realization on the grid arange(n_steps+1)*dt."""
    spec = CovarianceSpec(cfg.d, cfg.s, cfg.kmax)
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    return sample_mode_states(spec, times, cfg.seed, realization=realization)


def _solver_setup(cfg):
    """The SolverConfig with the built-in flux, and the j source of cfg.j_mode.

    The source is None (zero), GRAD_V_NEGATED, or the (d,) + grid array
    stacked from the j_file components; a j_file that cannot serve raises
    ValueError naming it.
    """
    nl = builtin(cfg.nl_kind, cfg.nl_lambda)
    scfg = SolverConfig(cfg.d, cfg.n_x, cfg.dt, cfg.t_end, nl, cfg.theta)
    if cfg.j_mode != "file":
        return scfg, GRAD_V_NEGATED if cfg.j_mode == "grad_v_negated" else None
    names = [p.strip() for p in cfg.j_file.split(",") if p.strip()]
    if len(names) != cfg.d:
        raise ValueError(f"j_file: expected {cfg.d} component files, got {len(names)}")
    comps = []
    for name in names:
        try:
            f = read_qspd(name)
        except (OSError, ValueError) as exc:
            raise ValueError(f"j_file: {name}: {exc}")
        if f.d != cfg.d or f.n_t != 1 or f.n_x != cfg.n_x:
            raise ValueError(f"j_file: {name}: need a single-slab d={cfg.d} field on the n_x={cfg.n_x} grid")
        comps.append(f.values[0])
    return scfg, np.stack(comps, axis=0)


def _campaign_record(cfg, r: int) -> McRecord:
    t0 = time.perf_counter()
    alpha = float(cfg.alphas[0])
    path = _noise_path(cfg, r)

    # gradients only on the rows the dyadic estimator reads, every s-th of the save grid
    every = cfg.save_every if cfg.mc_solve else 1
    dt_s = cfg.dt * every
    s = _row_stride(cfg.n_steps // every + 1, cfg.n_x, dt_s)
    gv = _spectral_slabs(path.modes, path.coeffs[:: every * s], cfg.n_x, range(cfg.d))
    grad_v_alpha = _max_component_theta(gv, s * dt_s, alpha)
    grad_u_alpha = w_norm = None
    if cfg.mc_solve:
        scfg, j_source = _solver_setup(cfg)
        w = solve(scfg, path, j_source, save_every=every).w
        grad_w = centered_gradient(Field(w[::s], dt=s * dt_s))
        grad_u_alpha = _max_component_theta(np.add(grad_w, gv, out=grad_w), s * dt_s, alpha)
        w_norm = c1alpha_seminorm(Field(w, dt=dt_s), alpha)
    return McRecord(
        seed=r,
        grad_v_alpha=float(grad_v_alpha),
        grad_u_alpha=None if grad_u_alpha is None else float(grad_u_alpha),
        w_c1alpha=None if w_norm is None else float(w_norm),
        wall_time=time.perf_counter() - t0,
    )


def _campaign_worker(args):
    cfg, r = args
    try:
        return r, _campaign_record(cfg, r), None
    except Exception as exc:  # recorded, gated below
        return r, None, f"{type(exc).__name__}: {exc}"


def run_campaign(cfg, workers: int = 1, realizations: Optional[Sequence[int]] = None) -> McStats:
    """Run the configured campaign over noise realizations.

    Each realization r derives its sub-streams from (cfg.seed, r), samples
    the noise path, optionally solves (cfg.mc_solve), and records dyadic
    norms at the first configured alpha.  Without a solve the norms live
    on the cfg.dt time grid itself; with one they live on the save grid
    (dt * save_every), so the two modes consume different draws and are
    comparable in law only.  Records are aggregated in realization order,
    so the result is bitwise independent of the worker count.  Individual
    failures are recorded; more than 1% of them aborts with
    CampaignFailure.  A config without alphas, or with j_mode = file,
    raises ValueError before any realization runs.
    """
    check(alphas=cfg.alphas)
    if cfg.j_mode == "file":
        raise ValueError("j_mode: campaigns support zero and grad_v_negated only")
    if realizations is None:
        realizations = range(cfg.n_realizations)
    idx = list(realizations)
    if not idx:
        raise ValueError("empty realization list")
    tasks = [(cfg, r) for r in idx]
    if workers > 1:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            raw = pool.map(_campaign_worker, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
    else:
        raw = [_campaign_worker(t) for t in tasks]

    records = []
    failures = []
    for r, rec, err in raw:
        if err is None:
            records.append(rec)
        else:
            failures.append({"seed": r, "error": err})
    if len(failures) > 0.01 * len(idx):
        raise CampaignFailure(
            f"{len(failures)}/{len(idx)} realizations failed; first: {failures[0]}"
        )

    moments = {}
    for name in ("grad_v_alpha", "grad_u_alpha", "w_c1alpha"):
        vals = np.array([getattr(rec, name) for rec in records if getattr(rec, name) is not None])
        if vals.size:
            moments[name] = {
                "mean": float(vals.mean()),
                "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                "max": float(vals.max()),
            }
    gv = [rec.grad_v_alpha for rec in records]
    tail = tail_fit(gv) if len(gv) >= 1000 and max(gv) > min(gv) else None
    return McStats(
        n=len(records),
        root_seed=cfg.seed,
        alpha=float(cfg.alphas[0]),
        records=records,
        failures=failures,
        moments=moments,
        tail=tail,
    )


# ---------------------------------------------------------------------------
# covariance verification


def _check_draws(spec: CovarianceSpec, N: int, j: int):
    """Reject, before any sampling, fewer than two draws or a gradient axis j outside [0, d)."""
    if not N >= 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not 0 <= j < spec.d:
        raise ValueError(f"axis {j} out of range for d={spec.d}")


@dataclass
class CovarianceCheck:
    """MC-vs-closed-form residuals at chosen space-time point pairs.

    points holds each pair (t, x, t', x') as the flat float list
    [t, *x, t', *x'], in the order the pairs were given.
    """

    points: list
    mc: np.ndarray
    closed: np.ndarray
    se: np.ndarray
    ratio: np.ndarray
    n: int
    seed: int
    passed: bool

    to_dict = _plain


def covariance_check(
    spec: CovarianceSpec, points, N: int, seed: int, j: int = 0
) -> CovarianceCheck:
    """MC covariance of the gradient component h against the closed form.

    points is a sequence of (t, x, t_prime, x_prime) with x scalar or
    length-d; all times must lie in [0, 1].  PASS needs every residual
    within 4 MC standard errors.  A point with exactly zero sample
    variance (e.g. t'=0, where h vanishes) passes iff its residual is 0.
    Needs N >= 2 and 0 <= j < d.
    """
    pts = []
    for (t, x, t2, x2) in points:
        xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
        xb = np.atleast_1d(np.asarray(x2, dtype=np.float64))
        if xa.size != spec.d or xb.size != spec.d:
            raise ValueError("point coordinates do not match dimension d")
        if not (0.0 <= t <= 1.0 and 0.0 <= t2 <= 1.0):
            raise ValueError("times must lie in [0, 1]")
        pts.append((float(t), xa, float(t2), xb))
    _check_draws(spec, N, j)

    times = sorted({p[0] for p in pts} | {p[2] for p in pts})
    t_index = {t: i for i, t in enumerate(times)}
    modes = make_mode_set(spec.d, spec.kmax)
    hk = 1j * modes.k[:, j]

    # distinct (time, position) evaluations: their rows, phases, and each point's pair
    evals = sorted(
        {(p[0], tuple(p[1])) for p in pts} | {(p[2], tuple(p[3])) for p in pts}
    )
    e_index = {e: i for i, e in enumerate(evals)}
    rows = [t_index[t] for t, _ in evals]
    phases = np.array([np.exp(1j * (modes.k @ np.asarray(xt))) for _, xt in evals])
    first = [e_index[(p[0], tuple(p[1]))] for p in pts]
    second = [e_index[(p[2], tuple(p[3]))] for p in pts]

    prods = np.empty((N, len(pts)))
    tarr = np.asarray(times, dtype=np.float64)
    # strictly increasing grid; sample_mode_states rejects duplicate times
    for r in range(N):
        coeffs = sample_mode_states(spec, tarr, seed, realization=r, modes=modes).coeffs
        h = np.real(np.sum(hk * coeffs[rows] * phases, axis=-1))
        prods[r] = h[first] * h[second]

    mc = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(N)
    closed = np.array(
        [covariance_closed_form(spec, j, p[0], p[2], p[1] - p[3]) for p in pts]
    )
    resid = np.abs(mc - closed)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(se > 0, resid / se, np.where(resid == 0, 0.0, np.inf))
    return CovarianceCheck(
        points=[[t, *xa.tolist(), t2, *xb.tolist()] for t, xa, t2, xb in pts],
        mc=mc,
        closed=closed,
        se=se,
        ratio=ratio,
        n=N,
        seed=seed,
        passed=bool(np.all(ratio <= 4.0)),
    )


# ---------------------------------------------------------------------------
# increment scaling


@dataclass
class IncrementScalingFit:
    """Log-log slopes of second moments of gradient-field increments."""

    spatial_slope: float
    spatial_se: float
    temporal_slope: float
    temporal_se: float
    spatial_lags: np.ndarray
    temporal_lags: np.ndarray
    spatial_moments: np.ndarray
    temporal_moments: np.ndarray
    n: int
    seed: int

    to_dict = _plain


def _slope_with_se(lags, means, ses):
    x = np.log(lags)
    xc = x - x.mean()
    sxx = np.sum(xc * xc)
    a = xc / sxx  # slope = sum a_l * log(mean_l)
    slope = float(np.sum(a * np.log(means)))
    var = float(np.sum(a * a * (ses / means) ** 2))
    return slope, float(np.sqrt(var))


def increment_scaling_fit(
    spec: CovarianceSpec,
    N: int,
    seed: int,
    spatial_lags=None,
    temporal_lags=None,
    j: int = 0,
) -> IncrementScalingFit:
    """Fit the dyadic-separation scaling of gradient-field increments.

    Spatial separations default to 2^-8..2^-4 (grid strides on the finest
    alias-free grid n_x = 2*kmax+2) and temporal separations to
    2^-12..2^-6, both anchored at t = 1 where the field is stationary in
    law.  Every spatial lag must be a multiple of 1/n_x, so the default
    lags need 256 | 2*kmax+2 (kmax = 127, 255, 383, ...); for any other
    kmax pass spatial_lags.  The second-moment slopes target s-d in space
    and (s-d)/2 in time; standard errors propagate the per-lag MC spread
    through the least-squares fit.  Requires s - d < 2 so the spatial
    exponent is resolvable against the grid.  Needs N >= 2 and 0 <= j < d.
    """
    if not spec.s - spec.d < 2:
        raise ValueError("spatial exponent out of resolvable range; need s - d < 2")
    _check_draws(spec, N, j)
    n_x = 2 * spec.kmax + 2
    if spatial_lags is None:
        spatial_lags = 2.0 ** np.arange(-8, -3)
    spatial_lags = np.asarray(spatial_lags, dtype=np.float64)
    strides = spatial_lags * n_x
    if not np.all(np.isfinite(strides)) or np.any(np.abs(strides - np.round(strides)) > 1e-9) or np.any(strides < 1):
        raise ValueError(
            f"spatial lags must be multiples of 1/{n_x} (n_x = 2*kmax+2, kmax={spec.kmax}); "
            f"the default lags 2^-8..2^-4 need 256 | 2*kmax+2, so pass spatial_lags"
        )
    strides = np.round(strides).astype(int)
    if temporal_lags is None:
        temporal_lags = 2.0 ** np.arange(-12, -5)
    temporal_lags = np.asarray(temporal_lags, dtype=np.float64)
    if not np.all((temporal_lags > 0) & (temporal_lags < 1)):
        raise ValueError("temporal lags must lie in (0, 1)")

    times = np.concatenate([np.sort(1.0 - temporal_lags), [1.0]])
    modes = make_mode_set(spec.d, spec.kmax)
    n_sp = spatial_lags.size
    n_tp = temporal_lags.size
    sp = np.empty((N, n_sp))
    tp = np.empty((N, n_tp))
    order = np.argsort(np.argsort(-temporal_lags))  # map lag order to time order
    for r in range(N):
        path = sample_mode_states(spec, times, seed, realization=r, modes=modes)
        h = _spectral_slabs(modes, path.coeffs, n_x, (j,))[:, 0]
        last = h[-1]
        for q, st in enumerate(strides):
            diff = np.roll(last, -st, axis=0) - last
            sp[r, q] = np.mean(diff * diff)
        for q in range(n_tp):
            diff = h[order[q]] - last
            tp[r, q] = np.mean(diff * diff)

    sp_mean = sp.mean(axis=0)
    sp_se = sp.std(axis=0, ddof=1) / np.sqrt(N)
    tp_mean = tp.mean(axis=0)
    tp_se = tp.std(axis=0, ddof=1) / np.sqrt(N)
    s_slope, s_se = _slope_with_se(spatial_lags, sp_mean, sp_se)
    t_slope, t_se = _slope_with_se(temporal_lags, tp_mean, tp_se)
    return IncrementScalingFit(
        spatial_slope=s_slope,
        spatial_se=s_se,
        temporal_slope=t_slope,
        temporal_se=t_se,
        spatial_lags=spatial_lags,
        temporal_lags=temporal_lags,
        spatial_moments=sp_mean,
        temporal_moments=tp_mean,
        n=N,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# stretched-exponential tail fit


@dataclass
class TailFit:
    """Fitted tail shape -log P(X > M) ~ (M/c)^p above a location shift."""

    p: float
    c: float
    location: float
    ssr: float
    n: int

    to_dict = _plain

    def __iter__(self):
        return iter((self.p, self.c))


def _tail_anchors(x: np.ndarray, s_hi: float, n_anchors: int):
    """Anchor levels with survival fractions log-spaced in (2/n, s_hi]."""
    n = x.size
    s_lo = 2.0 / n
    targets = np.exp(np.linspace(np.log(s_hi), np.log(s_lo), n_anchors))
    idx = np.unique(np.round(n * (1.0 - targets)).astype(int))
    idx = idx[idx <= n - 2]
    surv = (n - idx - 1.0) / n
    return x[idx], surv


def _tail_wols(levels, surv, m0):
    """Weighted least squares of log(-log S) on log(M - m0)."""
    y = np.log(-np.log(surv))
    w = surv / (1.0 - surv) * np.log(surv) ** 2  # inverse delta-method variance
    lx = np.log(levels - m0)
    sw = np.sum(w)
    xm = np.sum(w * lx) / sw
    ym = np.sum(w * y) / sw
    sxx = np.sum(w * (lx - xm) ** 2)
    p = np.sum(w * (lx - xm) * (y - ym)) / sxx
    ssr = np.sum(w * (y - ym - p * (lx - xm)) ** 2)
    return p, ym - p * xm, ssr


def tail_fit(samples) -> TailFit:
    """Estimate the stretched exponent of the sample tail.

    Regresses log(-log) of the empirical survival function on the log
    exceedance level, weighted by the delta-method variance of the
    survival estimate.  A location shift is profiled on the upper half
    over a deterministic grid first; the exponent then comes from the
    upper-quartile anchors alone (the shape is a tail statement and the
    bulk would bias it).  Needs at least 10^3 samples; degenerate
    samples are rejected.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    if x.ndim != 1 or x.size < 1000:
        raise ValueError("tail_fit needs at least 1000 scalar samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("tail_fit needs finite samples")
    span = float(x[-1] - x[0])
    if span == 0.0:
        raise ValueError("degenerate samples: all values equal")

    quart_m, quart_s = _tail_anchors(x, 0.25, 48)
    half_m, half_s = _tail_anchors(x, 0.50, 64)
    lim = half_m[0] - 0.02 * (half_m[-1] - half_m[0])
    grid = np.concatenate(
        [[0.0], lim - np.exp(np.linspace(np.log(3.0 * span), np.log(1e-3 * span), 160))]
    )
    grid = grid[grid < lim]
    best_m0 = 0.0
    best_ssr = np.inf
    for m0 in grid:
        _, _, ssr = _tail_wols(half_m, half_s, m0)
        if ssr < best_ssr:
            best_ssr = ssr
            best_m0 = float(m0)
    p, b, ssr = _tail_wols(quart_m, quart_s, best_m0)
    c = float(np.exp(-b / p)) if p > 0 else float("nan")
    return TailFit(p=float(p), c=c, location=best_m0, ssr=float(ssr), n=x.size)


# ---------------------------------------------------------------------------
# refinement study of the composite seminorm


@dataclass
class GapLevel:
    n_x: int
    n_save: int
    theta_w: float
    theta_v: float


@dataclass
class GapStudy:
    """Composite-seminorm stability of w against growth for v."""

    levels: list
    w_rel_change: float
    v_growth: tuple
    passed: bool
    seed: int
    realization: int

    to_dict = _plain


GAP_LEVELS = ((64, 16), (128, 256), (256, 4096))


def regularity_gap_study(
    seed: int,
    realization: int = 0,
    s: float = 2.0,
    kmax: int = 31,
    alpha: float = 0.4,
    lam: float = 0.5,
    levels=GAP_LEVELS,
    w_tol: float = 0.25,
    v_factor: float = 1.5,
) -> GapStudy:
    """Refine solver and observation grids against one noise realization.

    All levels are driven by one master-grid realization (step 2^-18);
    solve reads the rows of its own grid, so the comparison is pathwise.
    Per level (n_x, n_save) the equation is solved unforced with the
    smooth perturbed flux, the solution difference w = u - v is recorded
    on n_save uniform intervals, and the composite seminorm of w and of v
    is estimated from those slabs.  PASS: the w estimate moves by less
    than w_tol between the two finest levels while the v estimate grows
    by at least v_factor per level (its temporal quotient diverges under
    time refinement; w's stays put).
    """
    spec = CovarianceSpec(1, s, kmax)
    nl = builtin("tanh_perturbed", lam)
    master = sample_mode_states(spec, np.arange(2**18 + 1) * 2.0**-18, seed, realization)
    out = []
    for n_x, n_save in levels:
        cfg = SolverConfig(1, n_x, 1.0 / (4 * n_x * n_x), 1.0, nl)
        traj = solve(cfg, master, None, save_every=cfg.n_steps // n_save)
        theta_w, theta_v = (c1alpha_seminorm(Field(f, dt=1.0 / n_save), alpha) for f in (traj.w, traj.v))
        out.append(GapLevel(n_x, n_save, float(theta_w), float(theta_v)))
    w_rel = abs(out[-1].theta_w / out[-2].theta_w - 1.0)
    v_growth = tuple(
        out[i + 1].theta_v / out[i].theta_v for i in range(len(out) - 1)
    )
    passed = bool(w_rel < w_tol and all(g >= v_factor for g in v_growth))
    return GapStudy(
        levels=out,
        w_rel_change=float(w_rel),
        v_growth=v_growth,
        passed=passed,
        seed=seed,
        realization=realization,
    )
