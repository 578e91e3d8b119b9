"""Flux-form solver tests: exact identities, a nodal recursion oracle,
conservation, and contraction behaviour."""

import dataclasses

import numpy as np
import pytest

from qspde import solver, spectral_noise
from qspde.nonlinearity import Nonlinearity, builtin
from qspde.solver import (
    GRAD_V_NEGATED,
    SolverConfig,
    _face_average,
    _FluxMarch,
    contraction_test,
    solve,
)
from qspde.spectral_noise import (
    CovarianceSpec,
    NoisePath,
    _spectral_slabs,
    make_mode_set,
    sample_mode_states,
)

IDENT = builtin("identity")
TANH = builtin("tanh_perturbed", lam=0.5)


def uniform_path(d, s, kmax, dt, n_rows, seed):
    spec = CovarianceSpec(d, s, kmax)
    times = np.arange(n_rows + 1) * dt
    return sample_mode_states(spec, times, seed=seed)


def zero_path(d, s, kmax, dt, n_rows):
    spec = CovarianceSpec(d, s, kmax)
    modes = make_mode_set(d, kmax)
    times = np.arange(n_rows + 1) * dt
    coeffs = np.zeros((n_rows + 1, len(modes)), complex)
    return NoisePath(spec=spec, modes=modes, times=times, coeffs=coeffs, seed=0)


def _on_faces(field, d):
    return None if field is None else _face_average(field, d, np.empty_like(field))


def flux_divergence(w, grad_v=None, j=None, nl=IDENT):
    """One B = 1 divergence of the march kernel on a single slab w.

    grad_v and j, shape (d,) + w.shape, are averaged onto faces first, as
    solve does; the flux is A(grad w + grad v) + j.
    """
    w = np.asarray(w, dtype=np.float64)
    d, n_x = w.ndim, w.shape[0]
    march = _FluxMarch(d, n_x, nl, 1)
    march.ring[0] = w
    return march.divergence(0, _on_faces(grad_v, d), _on_faces(j, d))[0]


def step(w, t, cfg, grad_v=None, j=None, source=None):
    """One B = 1 explicit Euler update w + dt*(flux divergence + source).

    It runs as a one-step block of the march, as step t/dt of a solve.
    """
    march = _FluxMarch(cfg.d, cfg.n_x, cfg.nl, 1)
    march.ring[0] = w
    gvf, jf = _on_faces(grad_v, cfg.d), _on_faces(j, cfg.d)
    march.advance_block(
        round(t / cfg.dt),
        1,
        cfg.dt,
        None if gvf is None else gvf[None],
        None if source is None else source[None],
        None if jf is None else (lambda t: jf),
    )
    return march.ring[1, 0]


# ---------------------------------------------------------------------------
# flux divergence


def test_divergence_of_constant_is_exactly_zero():
    for nl in (IDENT, TANH):
        out = flux_divergence(np.full((8,), 1.7), nl=nl)
        assert np.all(out == 0.0)
        out2 = flux_divergence(np.full((4, 4), -0.3), nl=nl)
        assert np.all(out2 == 0.0)


def test_divergence_telescopes_to_zero_mean():
    rng = np.random.default_rng(0)
    for d in (1, 2):
        w = rng.standard_normal((16,) * d)
        gv = rng.standard_normal((d,) + (16,) * d)
        j = rng.standard_normal((d,) + (16,) * d)
        div = flux_divergence(w, gv, j, TANH)
        assert abs(div.sum()) <= 1e-12 * np.abs(div).max() * div.size


def test_divergence_sin_mode_is_discrete_eigenvector():
    for n_x in (8, 16, 32):
        x = np.arange(n_x) / n_x
        w = np.sin(2 * np.pi * x)
        dxs = 1.0 / n_x
        sym = 2.0 * (1.0 - np.cos(2 * np.pi * dxs)) / dxs**2
        div = flux_divergence(w, nl=IDENT)
        assert np.allclose(div, -sym * w, atol=1e-10)


def test_discrete_symbol_second_order_accurate():
    def sym(n_x):
        dxs = 1.0 / n_x
        return 2.0 * (1.0 - np.cos(2 * np.pi * dxs)) / dxs**2

    e16 = abs(sym(16) - 4 * np.pi**2)
    e32 = abs(sym(32) - 4 * np.pi**2)
    assert e16 / e32 == pytest.approx(4.0, rel=0.05)


def test_divergence_shape_validation():
    cfg = SolverConfig(d=1, n_x=8, dt=2.0**-8, t_end=0.25, nl=IDENT)
    path = zero_path(1, 2.0, 3, 2.0**-8, 64)
    with pytest.raises(ValueError, match="j has shape"):
        solve(cfg, path, j_source=np.zeros((2, 8)))
    with pytest.raises(ValueError, match="j has shape"):
        solve(cfg, path, j_source=np.zeros((1, 4)))
    with pytest.raises(ValueError, match="j has shape"):
        solve(cfg, path, j_source=lambda t: np.zeros((1, 4)))


def _roll_divergence(w, grad_v, j, nl):
    # the np.roll formulation of the flux divergence: the slice kernel's oracle
    d = w.ndim
    dx = 1.0 / w.shape[0]
    div = np.zeros_like(w)
    for a in range(d):
        g = (np.roll(w, -1, axis=a) - w) / dx
        if grad_v is not None:
            g = g + 0.5 * (grad_v[a] + np.roll(grad_v[a], -1, axis=a))
        f = nl.a(g)
        if j is not None:
            f = f + 0.5 * (j[a] + np.roll(j[a], -1, axis=a))
        div += (f - np.roll(f, 1, axis=a)) / dx
    return div


def _random_slab(rng, shape):
    # layers +0, +0, -0 along axis 0 make a -0 flux difference there,
    # which the divergence sum, started as 0 + x, must turn into +0
    w = rng.standard_normal(shape)
    w[0], w[1], w[2] = 0.0, 0.0, -0.0
    return w


@pytest.mark.parametrize("d, n_x", [(1, 12), (2, 10), (3, 6)])
@pytest.mark.parametrize("nl", [IDENT, TANH], ids=["identity", "tanh"])
@pytest.mark.parametrize("with_gv", [False, True], ids=["no_gv", "gv"])
@pytest.mark.parametrize("with_j", [False, True], ids=["no_j", "j"])
def test_kernel_bitwise_matches_roll_oracle(d, n_x, nl, with_gv, with_j):
    rng = np.random.default_rng(17 * d + n_x)
    grid = (n_x,) * d
    w = _random_slab(rng, grid)
    gv = rng.standard_normal((d,) + grid) if with_gv else None
    j = rng.standard_normal((d,) + grid) if with_j else None
    src = rng.standard_normal(grid)
    expected = _roll_divergence(w, gv, j, nl)
    assert flux_divergence(w, gv, j, nl).tobytes() == expected.tobytes()

    dt = 0.25 / (n_x * n_x * 2 * d)
    cfg = SolverConfig(d, n_x, dt, dt, nl)
    assert step(w, 0.0, cfg, gv, j).tobytes() == (w + dt * expected).tobytes()
    stepped = w + dt * (expected + src)
    assert step(w, 0.0, cfg, gv, j, src).tobytes() == stepped.tobytes()


def test_face_average_in_place_matches_roll():
    rng = np.random.default_rng(3)
    for d, n_x in ((1, 9), (2, 5), (3, 4)):
        field = rng.standard_normal((7, d) + (n_x,) * d)
        expected = np.stack(
            [0.5 * (field[:, a] + np.roll(field[:, a], -1, axis=1 + a)) for a in range(d)],
            axis=1,
        )
        assert _face_average(field, d, field).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d, n_x", [(1, 12), (2, 6)])
def test_batch_march_matches_single_marches_bitwise(d, n_x):
    rng = np.random.default_rng(d)
    grid = (n_x,) * d
    dt = 0.25 / (n_x * n_x * 2 * d)
    both = np.stack([_random_slab(rng, grid), _random_slab(rng, grid)])
    gvf, jfs = rng.standard_normal((2, 6, d) + grid)
    src = rng.standard_normal((6,) + grid)

    def j_faces(t):
        return jfs[round(t / dt)]

    batch = _FluxMarch(d, n_x, TANH, 2, block=6)
    batch.ring[0] = both
    means = batch.advance_block(0, 6, dt, gvf, src, j_faces)
    for b in range(2):
        single = _FluxMarch(d, n_x, TANH, 1, block=6)
        single.ring[0] = both[b]
        (row_means,) = single.advance_block(0, 6, dt, gvf, src, j_faces).T
        assert row_means.tobytes() == means[:, b].tobytes()
        assert list(row_means) == [float(w.mean()) for w in single.ring[1:, 0]]
        assert single.ring[1:, 0].tobytes() == batch.ring[1:, b].tobytes()


def test_finite_field_whose_sum_overflows_does_not_abort():
    # the abort check reads the spatial mean first; its sum is inf here
    # although every node is finite, which must not count as divergence
    cfg = SolverConfig(d=1, n_x=8, dt=2.0**-8, t_end=0.25, nl=IDENT)
    w = np.full(8, 1.5e308)
    with np.errstate(over="ignore"):
        out = step(w, 0.0, cfg)
    assert np.array_equal(out, w)


# ---------------------------------------------------------------------------
# single step


def test_step_at_rest_stays_at_rest():
    cfg = SolverConfig(d=1, n_x=8, dt=2.0**-8, t_end=0.25, nl=IDENT)
    w = np.zeros(8)
    assert np.all(step(w, 0.0, cfg) == 0.0)


def test_step_identity_matches_heat_update():
    cfg = SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=0.25, nl=IDENT)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(16)
    lap = (np.roll(w, -1) - 2 * w + np.roll(w, 1)) * 16.0**2
    out = step(w, 0.0, cfg)
    assert np.allclose(out, w + cfg.dt * lap, atol=1e-12)
    assert out.mean() == pytest.approx(w.mean(), abs=1e-14)


def test_step_aborts_on_nonfinite_with_location():
    cfg = SolverConfig(d=1, n_x=8, dt=2.0**-8, t_end=0.25, nl=IDENT)
    w = np.zeros(8)
    w[3] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError) as exc:
            step(w, 0.125, cfg)
    msg = str(exc.value)
    assert "non-finite" in msg and "t=0.125" in msg and "node" in msg


# ---------------------------------------------------------------------------
# configuration guards


def test_cfl_boundary_accepted_and_excess_rejected():
    limit = 0.5 * (1 / 16) ** 2 / 2.0
    SolverConfig(d=1, n_x=16, dt=limit, t_end=limit * 8, nl=IDENT)
    with pytest.raises(ValueError, match="stability bound"):
        SolverConfig(d=1, n_x=16, dt=limit * 1.01, t_end=limit * 1.01 * 8, nl=IDENT)


def test_t_end_must_be_step_multiple():
    with pytest.raises(ValueError):
        SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=0.25 + 2.0**-11, nl=IDENT)
    # t_end/dt rounds to zero steps, which is no whole number >= 1 of steps
    with pytest.raises(ValueError, match="t_end must be an integer multiple of dt"):
        SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=1e-13, nl=IDENT)


def test_config_basic_guards():
    with pytest.raises(ValueError):
        SolverConfig(d=0, n_x=16, dt=2.0**-10, t_end=0.25, nl=IDENT)
    with pytest.raises(ValueError):
        SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=0.25, nl=IDENT, theta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(d=1, n_x=16, dt=-1e-3, t_end=0.25, nl=IDENT)


def test_solve_rejects_incompatible_noise():
    cfg = SolverConfig(d=1, n_x=8, dt=2.0**-8, t_end=0.25, nl=IDENT)
    with pytest.raises(ValueError):  # dimension mismatch
        solve(cfg, zero_path(2, 3.0, 1, 2.0**-8, 64))
    with pytest.raises(ValueError, match="alias"):  # n_x too small for kmax
        solve(cfg, zero_path(1, 2.0, 4, 2.0**-8, 64))
    with pytest.raises(ValueError, match="refine"):  # noise coarser than solver
        solve(cfg, zero_path(1, 2.0, 3, 2.0**-7, 32))
    with pytest.raises(ValueError, match="short"):  # path ends before t_end
        solve(cfg, zero_path(1, 2.0, 3, 2.0**-8, 32))
    with pytest.raises(ValueError, match="short"):  # one row has no time step
        solve(cfg, zero_path(1, 2.0, 3, 2.0**-8, 0))
    with pytest.raises(ValueError, match="short"):
        contraction_test(cfg, zero_path(1, 2.0, 3, 2.0**-8, 0))
    late = zero_path(1, 2.0, 3, 2.0**-8, 64)
    late.times = late.times + 0.5
    with pytest.raises(ValueError, match="start at t=0"):
        solve(cfg, late)
    with pytest.raises(ValueError, match="save_every"):
        solve(cfg, zero_path(1, 2.0, 3, 2.0**-8, 64), save_every=7)
    with pytest.raises(ValueError, match="unknown j_source"):
        solve(cfg, zero_path(1, 2.0, 3, 2.0**-8, 64), "grad_v")


# ---------------------------------------------------------------------------
# full solves


def test_zero_noise_solve_stays_zero():
    cfg = SolverConfig(d=1, n_x=8, dt=2.0**-8, t_end=0.25, nl=TANH)
    traj = solve(cfg, zero_path(1, 2.0, 3, 2.0**-8, 64))
    assert np.all(traj.w == 0.0)
    assert np.all(traj.v == 0.0)
    assert np.all(traj.u == 0.0)
    assert traj.mean_drift_rate == 0.0


def test_spectral_slabs_are_contiguous_real_copies():
    # a strided .real view would keep the complex transform alive
    path = uniform_path(2, 3.0, 3, 2.0**-9, 16, seed=1)
    v = _spectral_slabs(path, 8, ("v",))
    assert v.base is None and v.flags.c_contiguous and v.dtype == np.float64
    cfg = SolverConfig(d=2, n_x=8, dt=2.0**-9, t_end=2.0**-5, nl=TANH)
    traj = solve(cfg, path, save_every=2)
    assert traj.v.base is None and traj.v.flags.c_contiguous


def test_nodal_recursion_matches_independent_oracle():
    # replays every step of a solve against a hand-built update: centered
    # spectral slabs evaluated mode by mode, face averaging and telescoping
    # differences written out directly
    n_x, kmax, dt = 8, 3, 2.0**-8
    n_steps = 64
    path = uniform_path(1, 2.0, kmax, dt, n_steps, seed=314)
    cfg = SolverConfig(d=1, n_x=n_x, dt=dt, t_end=0.25, nl=IDENT)
    traj = solve(cfg, path, j_source=GRAD_V_NEGATED, save_every=1)

    x = np.arange(n_x) / n_x
    k = path.modes.k[:, 0]
    phases = np.exp(1j * np.outer(k, x))  # (n_modes, n_x)

    def manual_gv(n):
        return np.real((1j * k * path.coeffs[n]) @ phases)

    def manual_src(n):
        return np.real((path.modes.ksq * path.coeffs[n]) @ phases)

    dxs = 1.0 / n_x
    for n in range(n_steps):
        w = traj.w[n]
        gv = manual_gv(n)
        g = (np.roll(w, -1) - w) / dxs
        q = g + 0.5 * (gv + np.roll(gv, -1))
        div = (q - np.roll(q, 1)) / dxs
        expected = w + dt * (div + manual_src(n))
        assert np.allclose(traj.w[n + 1], expected, atol=1e-13), f"step {n}"
    v_last = np.real(path.coeffs[n_steps] @ phases)
    assert np.allclose(traj.v[-1], v_last, atol=1e-13)


@pytest.mark.parametrize("d, save_every, block", [(1, 1, 2048), (1, 8, 2048), (1, 8, 5), (2, 4, 7)])
def test_solve_evaluates_each_grad_v_row_once(monkeypatch, d, save_every, block):
    # the march evaluates rows 0..n_steps-1, one per step, and keeps none
    # of them: n_steps rows in all, whatever save_every; a small block puts
    # save rows across its edges
    n_x, kmax, dt, n_steps = 8, 3, 2.0**-10, 64
    path = uniform_path(d, 2.0 if d == 1 else 3.0, kmax, dt, n_steps, seed=41)
    cfg = SolverConfig(d=d, n_x=n_x, dt=dt, t_end=n_steps * dt, nl=TANH)
    once = _spectral_slabs(path[:n_steps], n_x, range(d))

    rows = []

    def counting(noise, n_x, parts, out=None):
        axes = [p for p in parts if p not in ("v", "div_j")]
        assert axes in ([], list(range(d)))
        out = _spectral_slabs(noise, n_x, parts, out)
        if axes:  # copied before the march averages them onto faces in place
            rows.append(out[:, :d].copy())
        return out

    monkeypatch.setattr(solver, "_spectral_slabs", counting)
    monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", block_bytes(block, n_x, d))
    solve(cfg, path, j_source=GRAD_V_NEGATED, save_every=save_every)
    assert sum(len(r) for r in rows) == n_steps
    # step i read row i, bitwise as one evaluation of the path gives it
    assert np.concatenate(rows).tobytes() == once.tobytes()


def block_bytes(steps, n_x, d):
    """The spectral_noise._BLOCK_BYTES that makes march blocks of the given steps on the n_x^d grid."""
    return steps * 8 * n_x**d


def _solve_block_cases():
    # blocks of 3 and 7 steps put save rows on and across their edges;
    # 600 steps also take the default block size more than once
    for d, n_steps, save_every in ((1, 600, 4), (2, 84, 3)):
        for j_kind in ("zero", "grad_v_negated", "callable"):
            yield d, n_steps, save_every, j_kind


@pytest.mark.parametrize("d, n_steps, save_every, j_kind", list(_solve_block_cases()))
def test_solve_is_bitwise_independent_of_block_size(monkeypatch, d, n_steps, save_every, j_kind):
    n_x, dt = 8, 2.0**-10
    path = uniform_path(d, 2.0 if d == 1 else 3.0, 3, dt, n_steps, seed=43)
    cfg = SolverConfig(d=d, n_x=n_x, dt=dt, t_end=n_steps * dt, nl=TANH)
    j = np.random.default_rng(8).standard_normal((d,) + (n_x,) * d)
    j_source = {"zero": None, "grad_v_negated": GRAD_V_NEGATED, "callable": lambda t: j * np.cos(9.0 * t)}

    def run(nbytes):
        monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", nbytes)
        traj = solve(cfg, path, j_source[j_kind], save_every=save_every)
        return [traj.w.tobytes(), traj.v.tobytes(), repr(traj.mean_drift_rate)]

    default = run(spectral_noise._BLOCK_BYTES)
    for block in (1, 3, 7):
        assert run(block_bytes(block, n_x, d)) == default, block


@pytest.mark.parametrize("d, n_steps", [(1, 600), (2, 84)])
def test_contraction_is_bitwise_independent_of_block_size(monkeypatch, d, n_steps):
    dt = 2.0**-10
    path = uniform_path(d, 2.0 if d == 1 else 3.0, 3, dt, n_steps, seed=44)
    cfg = SolverConfig(d=d, n_x=8, dt=dt, t_end=n_steps * dt, nl=TANH)

    def run(nbytes):
        monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", nbytes)
        rep = contraction_test(cfg, path, GRAD_V_NEGATED, epsilon=1e-3, seed=5)
        return [rep.distances.tobytes(), rep.dissipation.tobytes(), repr(rep.mean_drift_rate)]

    default = run(spectral_noise._BLOCK_BYTES)
    for block in (1, 3, 7):
        assert run(block_bytes(block, 8, d)) == default, block


def test_mean_conserved_under_tanh_flux():
    cfg = SolverConfig(d=1, n_x=32, dt=2.0**-12, t_end=0.125, nl=TANH)
    path = uniform_path(1, 2.0, 7, 2.0**-12, 512, seed=5)
    traj = solve(cfg, path, j_source=GRAD_V_NEGATED, save_every=64)
    assert traj.mean_drift_rate <= 1e-10
    assert np.any(traj.w[-1] != 0.0)


def test_solve_deterministic_bitwise():
    cfg = SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=0.125, nl=TANH)
    path = uniform_path(1, 2.0, 5, 2.0**-10, 128, seed=21)
    a = solve(cfg, path, j_source=GRAD_V_NEGATED, save_every=16)
    b = solve(cfg, path, j_source=GRAD_V_NEGATED, save_every=16)
    assert np.array_equal(a.w, b.w)


def test_save_every_subsamples_the_same_march():
    cfg = SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=0.125, nl=TANH)
    path = uniform_path(1, 2.0, 5, 2.0**-10, 128, seed=22)
    full = solve(cfg, path, save_every=1)
    thin = solve(cfg, path, save_every=32)
    assert np.array_equal(thin.w, full.w[::32])
    assert np.array_equal(thin.times, full.times[::32])


def test_solve_d2_smoke():
    cfg = SolverConfig(d=2, n_x=8, dt=2.0**-10, t_end=0.125, nl=TANH)
    path = uniform_path(2, 3.0, 3, 2.0**-10, 128, seed=9)
    traj = solve(cfg, path, j_source=GRAD_V_NEGATED, save_every=32)
    assert traj.w.shape == (5, 8, 8)
    assert np.all(np.isfinite(traj.w))
    assert traj.mean_drift_rate <= 1e-10
    assert np.array_equal(traj.u, traj.w + traj.v)


def test_constant_j_field_accepted_and_inert():
    # a spatially constant j has zero divergence: w stays zero
    cfg = SolverConfig(d=1, n_x=8, dt=2.0**-8, t_end=0.25, nl=IDENT)
    j = np.full((1, 8), 3.7)
    traj = solve(cfg, zero_path(1, 2.0, 3, 2.0**-8, 64), j_source=j)
    assert np.allclose(traj.w, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# contraction


def test_contraction_zero_perturbation_is_degenerate():
    cfg = SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=0.125, nl=TANH)
    path = uniform_path(1, 2.0, 5, 2.0**-10, 128, seed=2)
    rep = contraction_test(cfg, path, epsilon=0.0, seed=0)
    assert rep.passed
    assert np.all(rep.distances == 0.0)
    assert np.all(np.abs(rep.dissipation) <= 1e-14)


def test_contraction_identity_matches_slow_mode_rate():
    # with the identity flux the difference obeys the plain discrete heat
    # iteration; after many steps the slowest mode dominates and the
    # per-step ratio equals 1 - dt*2(1-cos(2 pi dx))/dx^2 exactly
    n_x, theta = 16, 0.25
    dt = theta * (1 / n_x) ** 2 / 2.0
    n_steps = 1024
    cfg = SolverConfig(d=1, n_x=n_x, dt=dt, t_end=n_steps * dt, nl=IDENT, theta=theta)
    rep = contraction_test(cfg, zero_path(1, 2.0, 1, dt, n_steps), epsilon=1e-3, seed=4)
    dxs = 1.0 / n_x
    rho1 = 1.0 - dt * 2.0 * (1.0 - np.cos(2 * np.pi * dxs)) / dxs**2
    assert rep.distances[-1] / rep.distances[-2] == pytest.approx(rho1, rel=1e-9)
    assert rep.distances[-1] <= rep.distances[0] * rho1**n_steps * (1 + 1e-9)
    assert rep.passed
    assert np.min(rep.dissipation) >= 0.0


def test_contraction_tanh_dissipation_nonnegative():
    cfg = SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=0.25, nl=TANH)
    path = uniform_path(1, 2.0, 5, 2.0**-10, 256, seed=6)
    rep = contraction_test(cfg, path, j_source=GRAD_V_NEGATED, epsilon=1e-3, seed=11)
    assert rep.passed
    assert rep.min_dissipation >= -1e-10
    assert rep.final_distance <= rep.initial_distance
    assert rep.mean_drift_rate <= 1e-10


@pytest.mark.parametrize("d, n_x", [(1, 12), (2, 6)])
@pytest.mark.parametrize("nl", [IDENT, TANH], ids=["identity", "tanh"])
@pytest.mark.parametrize("with_j", [False, True], ids=["no_j", "j"])
def test_contraction_hook_matches_roll_oracle(d, n_x, nl, with_j):
    # the dissipation that contraction_test's hook sums from the march's
    # face gradients and fluxes, and the distances, bitwise those of two
    # np.roll marches stepped side by side
    dt = 0.25 / (n_x * n_x * 2 * d)
    n_steps = 10
    path = uniform_path(d, 2.0 if d == 1 else 3.0, 2, dt, n_steps, seed=31)
    cfg = SolverConfig(d, n_x, dt, n_steps * dt, nl)
    grid = (n_x,) * d
    j = np.random.default_rng(d).standard_normal((d,) + grid) if with_j else None
    rep = contraction_test(cfg, path, j, epsilon=1e-3, seed=8)

    pert = np.random.default_rng(8).standard_normal(grid)  # the pair contraction_test starts from
    pert -= pert.mean()
    pair = [np.zeros(grid), pert * (1e-3 / np.max(np.abs(pert)))]
    gv = _spectral_slabs(path[:n_steps], n_x, range(d))
    dx, cell = 1.0 / n_x, (1.0 / n_x) ** d
    dissipation = np.zeros(n_steps)
    distances = [pair]
    for i in range(n_steps):
        for a in range(d):
            gvf = 0.5 * (gv[i, a] + np.roll(gv[i, a], -1, axis=a))
            g = [(np.roll(w, -1, axis=a) - w) / dx for w in pair]
            f = [nl.a(gw + gvf) for gw in g]
            dissipation[i] += float(np.sum((g[0] - g[1]) * (f[0] - f[1]))) * cell
        pair = [w + dt * _roll_divergence(w, gv[i], j, nl) for w in pair]
        distances.append(pair)
    sq = np.array([((w0 - w1) ** 2).reshape(-1) for w0, w1 in distances])
    assert rep.dissipation.tobytes() == dissipation.tobytes()
    assert rep.distances.tobytes() == np.sqrt(np.add.reduce(sq, -1) * cell).tobytes()


def test_contraction_divergence_names_copy_and_node():
    # a flux that overflows on any nonzero gradient blows up only the
    # perturbed copy; the zero copy stays at rest
    blow = Nonlinearity("blow", 1.0, 0.0, lambda q: np.asarray(q) / 1e-320, np.ones_like)
    cfg = SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=0.125, nl=IDENT)
    path = zero_path(1, 2.0, 1, 2.0**-10, 128)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(FloatingPointError) as exc:
            contraction_test(dataclasses.replace(cfg, nl=blow), path, epsilon=1e-3, seed=4)
    msg = str(exc.value)
    assert "non-finite" in msg and "t=0," in msg and "copy 1" in msg and "node (" in msg


def _blowing_up_at(call, node):
    """The tanh flux, except that call number `call` returns +inf at node of the last row."""
    calls = []

    def a(q):
        out = TANH.a(q)
        if len(calls) == call:
            out[(-1,) + node] = np.inf
        calls.append(call)
        return out

    return Nonlinearity("blows_up", TANH.lam, TANH.Lam, a, TANH.da)


@pytest.mark.parametrize("batch", [1, 2])
def test_blow_up_mid_block_names_the_step_by_step_location(monkeypatch, batch):
    # an inf flux at face 5 in step 37 makes nodes 5 and 6 non-finite;
    # blocks of one step are the step-by-step march, and step 37 lies
    # inside a block of 7 steps and inside the default block
    dt, n_steps = 2.0**-10, 128
    path = uniform_path(1, 2.0, 5, dt, n_steps, seed=7)
    copy = ", copy 1" if batch == 2 else ""
    expected = f"solver produced a non-finite value at t={37 * dt:.9g}{copy}, node (5,)"

    def message(nbytes):
        monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", nbytes)
        cfg = SolverConfig(d=1, n_x=16, dt=dt, t_end=n_steps * dt, nl=_blowing_up_at(37, (5,)))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            if batch == 1:
                solve(cfg, path, GRAD_V_NEGATED)
            else:
                contraction_test(cfg, path, GRAD_V_NEGATED, epsilon=1e-3, seed=1)
        return str(exc.value)

    default = spectral_noise._BLOCK_BYTES
    assert [message(nbytes) for nbytes in (block_bytes(1, 16, 1), block_bytes(7, 16, 1), default)] == [expected] * 3


def test_non_finite_step_count_rejected():
    with pytest.raises(ValueError, match="multiple"):
        SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=np.inf, nl=IDENT)


def test_contraction_rejects_negative_epsilon():
    cfg = SolverConfig(d=1, n_x=16, dt=2.0**-10, t_end=0.125, nl=TANH)
    for epsilon in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            contraction_test(cfg, zero_path(1, 2.0, 1, 2.0**-10, 128), epsilon=epsilon)
