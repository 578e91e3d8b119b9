"""Noise sampler tests: frozen oracles first, then laws and plumbing."""

import math
import os
import pathlib
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from qspde import spectral_noise
from qspde.spectral_noise import (
    CovarianceSpec,
    Field,
    ModeSet,
    NoisePath,
    _mode_streams,
    _stream_key,
    choose_kmax,
    covariance_closed_form,
    evaluate_field,
    make_mode_set,
    read_qspd,
    sample_mode_states,
    step_moments,
    write_qspd,
)

# Stationary-in-time covariance of h = dv/dx at t = t' = 1, r = 0 for
# d=1, s=2, kmax=32: sum over k != 0 of khat * (1 - exp(-2 k^2)) / 2.
# Frozen from an independent direct-summation oracle (plain math loop).
COV_ORACLE_D1_S2_K32 = 0.040209027411872933


def oracle_covariance(kmax, s, t, t2, r):
    # independent implementation: plain python sum, no vectorization
    if t2 > t:
        t, t2 = t2, t
    total = 0.0
    for m in range(-kmax, kmax + 1):
        if m == 0:
            continue
        k = 2.0 * math.pi * m
        k2 = k * k
        kh = (1.0 + k2) ** (-s / 2.0)
        bracket = math.exp(-(t - t2) * k2) - math.exp(-(t + t2) * k2)
        total += kh * 0.5 * math.cos(k * r) * bracket
    return total


# ---------------------------------------------------------------------------
# mode sets and covariance spec


def test_mode_set_d1_kmax1_is_pm_2pi():
    ms = make_mode_set(1, 1)
    assert sorted(ms.k[:, 0]) == pytest.approx([-2 * np.pi, 0.0, 2 * np.pi])


def test_mode_set_cardinality_d2():
    assert len(make_mode_set(2, 2)) == 25


def test_mode_set_negation_closed():
    for d, kmax in ((1, 3), (2, 2), (3, 1)):
        ms = make_mode_set(d, kmax)
        # negation is index reversal, and the zero mode is present
        assert np.array_equal(ms.k[::-1], -ms.k)
        assert np.any(np.all(ms.m == 0, axis=1))


def test_mode_set_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_mode_set(0, 3)
    with pytest.raises(ValueError):
        make_mode_set(1, -1)


def test_mode_set_kmax_zero():
    # a zero-mode noise has grad v = 0; kmax >= 1 everywhere, as parse_config requires
    with pytest.raises(ValueError, match="kmax: must be >= 1, got 0"):
        make_mode_set(2, 0)


def test_constructors_name_a_non_integer_size_by_its_key():
    with pytest.raises(ValueError, match="d: expected an integer, got 1.5"):
        CovarianceSpec(1.5, 3.0, 2)
    with pytest.raises(ValueError, match="kmax: expected an integer, got 2.5"):
        make_mode_set(1, 2.5)


def _sign_rule_reps(m):
    # one representative per {k, -k}: m = 0, or first nonzero component positive
    nonzero = m != 0
    first = np.argmax(nonzero, axis=1)
    lead = m[np.arange(m.shape[0]), first]
    return ~nonzero.any(axis=1) | (lead > 0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kmax", [1, 2, 3, 4])
def test_rep_mask_matches_sign_rule(d, kmax):
    ms = make_mode_set(d, kmax)
    assert np.array_equal(ms.rep_mask, _sign_rule_reps(ms.m))
    # every non-representative is the negation of a representative
    assert np.all(ms.rep_mask[::-1][~ms.rep_mask])


def test_spec_rejects_s_at_or_below_d():
    with pytest.raises(ValueError):
        CovarianceSpec(1, 1.0, 4)
    with pytest.raises(ValueError):
        CovarianceSpec(2, 1.5, 4)


def test_khat_values():
    spec = CovarianceSpec(1, 2.0, 4)
    assert spec.khat(np.array([0.0])) == 1.0
    assert spec.khat(np.array([2 * np.pi])) == pytest.approx(
        1.0 / (1.0 + 4 * np.pi**2), rel=1e-15
    )


def test_khat_monotone_and_bounded():
    spec = CovarianceSpec(2, 3.0, 5)
    ms = make_mode_set(2, 5)
    vals = spec.khat(ms.k)
    assert np.all(vals <= 1.0)
    assert np.sum(vals == 1.0) == 1  # only k = 0
    # monotone in |k|
    order = np.argsort(ms.ksq)
    assert np.all(np.diff(vals[order]) <= 1e-15)


def test_choose_kmax_minimal():
    km = choose_kmax(1, 2.0, tol=1e-3)
    assert CovarianceSpec(1, 2.0, km).tail_fraction < 1e-3
    assert CovarianceSpec(1, 2.0, km - 1).tail_fraction >= 1e-3


def test_tail_fraction_criterion_scale():
    # d=1, s=2, kmax=32 keeps about 1.5e-3 of the mass in the tail bound
    tf = CovarianceSpec(1, 2.0, 32).tail_fraction
    assert 1e-4 < tf < 5e-3


# ---------------------------------------------------------------------------
# exact OU step: step_moments gives x -> decay*x + sqrt(var)*z


def _ou_step(x, ksq, kh, t0, t1, rng):
    decay, var = step_moments(ksq, kh, t0, t1)
    z = rng.standard_normal(np.shape(ksq) + (2,))
    zc = np.where(ksq > 0.0, (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0), z[..., 0])
    return decay * x + np.sqrt(var) * zc


def test_ou_step_dt_zero_identity():
    rng = np.random.default_rng(0)
    x = np.array([0.3 + 0.2j, 1.0 + 0.0j])
    ksq = np.array([4 * np.pi**2, 0.0])
    out = _ou_step(x, ksq, np.array([0.5, 1.0]), 0.5, 0.5, rng)
    assert np.array_equal(out, x)


def test_ou_step_zero_khat_decays():
    rng = np.random.default_rng(1)
    x = np.array([1.0 + 1.0j])
    ksq = np.array([9.0])
    out = _ou_step(x, ksq, np.array([0.0]), 0.5, 0.75, rng)
    assert out == pytest.approx(np.exp(-0.25 * 9.0) * x)


def test_ou_step_rejects_negative_dt():
    with pytest.raises(ValueError):
        step_moments(np.ones(1), np.ones(1), 0.5, 0.4)


def test_ou_step_stationary_variance():
    # a step across the whole noise window: Var|X| -> khat/(2 k^2) up to
    # exp(-2 k^2); ensemble of 2*10^4 draws, 4 SE gate
    rng = np.random.default_rng(3)
    ksq = np.array([4 * np.pi**2])
    kh = np.array([0.7])
    n = 20000
    out = _ou_step(
        np.zeros((n, 1), complex), np.broadcast_to(ksq, (n, 1)), np.broadcast_to(kh, (n, 1)), 0.0, 1.0, rng
    )
    target = kh[0] / (2 * ksq[0])
    sq = np.abs(out[:, 0]) ** 2
    se = sq.std(ddof=1) / np.sqrt(n)
    assert abs(sq.mean() - target) <= 4 * se


# ---------------------------------------------------------------------------
# path sampling laws


def test_path_determinism_bitwise():
    spec = CovarianceSpec(1, 2.0, 5)
    times = np.linspace(0.0, 1.0, 9)
    a = sample_mode_states(spec, times, seed=42)
    b = sample_mode_states(spec, times, seed=42)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = sample_mode_states(spec, times, seed=43)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_path_zero_for_nonpositive_times():
    spec = CovarianceSpec(1, 2.0, 3)
    times = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    path = sample_mode_states(spec, times, seed=7)
    assert np.all(path.coeffs[:3] == 0)
    assert np.any(path.coeffs[3] != 0)


def test_path_decays_after_one():
    spec = CovarianceSpec(1, 2.0, 3)
    times = np.array([0.5, 1.0, 1.5, 2.0])
    path = sample_mode_states(spec, times, seed=7)
    decay = np.exp(-0.5 * path.modes.ksq)
    assert np.array_equal(path.coeffs[2], decay * path.coeffs[1])
    assert np.array_equal(path.coeffs[3], decay * path.coeffs[2])


def test_path_reality_pairing_exact():
    spec = CovarianceSpec(2, 3.0, 2)
    times = np.linspace(0.0, 1.0, 5)
    path = sample_mode_states(spec, times, seed=11)
    assert np.array_equal(path.coeffs[:, ::-1], np.conj(path.coeffs))
    zero = np.all(path.modes.m == 0, axis=1)
    assert np.all(path.coeffs[:, zero].imag == 0)


def test_mode_variance_matches_ito_isometry():
    # ensemble over 10^4 realizations; every k and two times, 4 SE gate
    spec = CovarianceSpec(1, 2.0, 2)
    times = np.array([0.3, 1.0])
    modes = make_mode_set(1, 2)
    n = 10000
    acc = np.empty((n, times.size, len(modes)))
    for r in range(n):
        p = sample_mode_states(spec, times, seed=99, realization=r, modes=modes)
        acc[r] = np.abs(p.coeffs) ** 2
    kh = spec.khat(modes.k)
    for it, t in enumerate(times):
        with np.errstate(divide="ignore", invalid="ignore"):
            target = kh * -np.expm1(-2 * t * modes.ksq) / (2 * modes.ksq)
        target = np.where(modes.ksq > 0, target, kh * t)
        mean = acc[:, it].mean(axis=0)
        se = acc[:, it].std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - target) <= 4 * se)


def test_nonuniform_grid_matches_uniform_at_common_times():
    # law-exact transitions do not depend on intermediate grid rows in law,
    # but the draw sequence does; here check the generic path accepts a
    # nonuniform grid and stays zero/decay-consistent
    spec = CovarianceSpec(1, 2.0, 3)
    times = np.array([0.0, 0.1, 0.4, 1.0])
    path = sample_mode_states(spec, times, seed=5)
    assert np.all(path.coeffs[0] == 0)
    assert np.all(np.isfinite(path.coeffs.view(np.float64)))


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, np.inf]])
def test_sampler_rejects_non_finite_times(monkeypatch, times):
    def no_draws(*args):
        raise AssertionError("drew before validating times")

    monkeypatch.setattr(spectral_noise, "_mode_streams", no_draws)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="times must be finite"):
            sample_mode_states(CovarianceSpec(1, 2.0, 3), times, seed=1)


@pytest.mark.parametrize(
    "times", [np.arange(17) / 16, np.array([0.0, 0.1, 0.4, 1.0, 1.5])], ids=["uniform", "nonuniform"]
)
def test_non_finite_variance_is_reported(monkeypatch, times):
    real = spectral_noise.step_moments

    def one_nan(ksq, khat_k, t0, t1):
        decay, var = real(ksq, khat_k, t0, t1)
        var[-1] = np.nan  # the representative with the largest index
        return decay, var

    monkeypatch.setattr(spectral_noise, "step_moments", one_nan)
    with pytest.raises(FloatingPointError, match="non-finite mode coefficient"):
        sample_mode_states(CovarianceSpec(1, 2.0, 3), times, seed=1)


@pytest.mark.parametrize(
    "times, bound",
    [(np.arange(2**14 + 1) / 2**14, 1.2), ((np.arange(2**12 + 1) / 2**12) ** 2, 1.2)],
    ids=["uniform", "nonuniform"],
)
def test_sampler_peak_memory_near_coeffs(times, bound):
    # representatives are written straight into coeffs and the conjugate
    # half is filled in place: no states copy and no full-size temporaries.
    # Every grid holds one draw group of normals, at most _BLOCK_BYTES.
    spec = CovarianceSpec(1, 2.0, 31)
    modes = make_mode_set(1, 31)
    sample_mode_states(spec, times[:4], seed=3, modes=modes)  # warm caches
    tracemalloc.start()
    try:
        path = sample_mode_states(spec, times, seed=3, modes=modes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * path.coeffs.nbytes


# Run in a fresh interpreter where every scipy import fails: the package,
# uniform and non-uniform sampling, a scaling fit and the sample-noise,
# solve, norms and mc subcommands need numpy alone.
NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule raises ImportError
import numpy as np
import qspde
from qspde import cli

spec = qspde.CovarianceSpec(1, 2.0, 3)
qspde.sample_mode_states(spec, np.arange(5) / 4, seed=0)
qspde.sample_mode_states(spec, np.array([-0.5, 0.1, 0.4, 1.0, 1.5]), seed=0)
qspde.increment_scaling_fit(qspde.CovarianceSpec(1, 1.5, 127), 2, seed=1)
for command in ("sample-noise", "solve", "norms", "mc"):
    assert cli.main([command, "--config", "exp.cfg"]) == 0, command
print("numpy only")
"""


def test_package_runs_without_scipy(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    config = dict(d=1, s=2.0, kmax=3, n_x=8, dt=2.0**-8, t_end=0.25, save_every=4, alpha=0.3)
    config.update(nonlinearity="tanh_perturbed", j_mode="zero", mc_solve="true", seed=1, n_realizations=1)
    config.update(out_dir="out")
    (tmp_path / "exp.cfg").write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "numpy only"


def test_strided_sampler_bitwise_matches_full_grid(monkeypatch):
    # a coarse view of a fine path is its row slice; the draw group size
    # must not change a byte.  Bytes, not values: the rows keep the full
    # grid's signed zeros.
    spec = CovarianceSpec(1, 2.0, 3)
    times = np.arange(65) / 64
    full = sample_mode_states(spec, times, seed=77, realization=5)
    for group in (1, 3):  # one stream at a time; groups of 3 and 1
        monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", 16 * times.size * group)
        blocked = sample_mode_states(spec, times, seed=77, realization=5)
        assert blocked.coeffs.tobytes() == full.coeffs.tobytes()
        for stride in (1, 4, 16):
            assert blocked.coeffs[::stride].tobytes() == full.coeffs[::stride].tobytes()


def test_strided_sampler_d2(monkeypatch):
    spec = CovarianceSpec(2, 3.0, 2)
    times = np.arange(33) / 32
    full = sample_mode_states(spec, times, seed=9)
    monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", 16 * times.size * 5)  # groups of 5, 5 and 3
    blocked = sample_mode_states(spec, times, seed=9)
    assert blocked.coeffs.tobytes() == full.coeffs.tobytes()


def two_branch_sampler(spec, times, seed, realization=0, chunk=8192):
    """The sampler as it was with two recursions, kept as an oracle.

    A uniform grid inside [0, 1] filtered each mode with scipy's lfilter in
    blocks of chunk rows, carrying the filter state; any other grid took an
    exact step per row for all modes at once.  Each mode's stream is built
    fresh (mode_stream), independently of the shared generator.
    """
    from scipy.signal import lfilter

    times = np.asarray(times, dtype=np.float64)
    modes = make_mode_set(spec.d, spec.kmax)
    h = len(modes) // 2
    ksq = modes.ksq[h:]
    kh = spec.khat(modes.k[h:])

    def to_complex(z, ksq):
        return np.where(ksq > 0.0, (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0), z[..., 0])

    _, var0 = step_moments(ksq, kh, 0.0, max(times[0], 0.0))
    sig0 = np.sqrt(var0)
    coeffs = np.empty((times.size, len(modes)), dtype=np.complex128)
    upper = coeffs[:, h:]
    n_steps = times.size - 1
    uniform = n_steps > 0 and np.allclose(np.diff(times), times[1] - times[0], rtol=1e-12, atol=1e-15)
    if uniform and times[0] >= 0.0 and times[-1] <= 1.0:
        decay, var = step_moments(ksq, kh, 0.0, times[1] - times[0])
        sig = np.sqrt(var)
        for j in range(ksq.size):
            gen = mode_stream(seed, realization, h + j)
            upper[0, j] = (sig0[j] * to_complex(gen.standard_normal((1, 2)), ksq[j]))[0]
            zi = np.array([decay[j] * upper[0, j]])
            done = 0
            while done < n_steps:
                c = min(chunk, n_steps - done)
                noise = sig[j] * to_complex(gen.standard_normal((c, 2)), ksq[j])
                y, zi = lfilter([1.0], [1.0, -decay[j]], noise, zi=zi)
                upper[done + 1 : done + 1 + c, j] = y
                done += c
    else:
        streams = [mode_stream(seed, realization, h + j) for j in range(ksq.size)]
        normals = np.array([gen.standard_normal((times.size, 2)) for gen in streams])
        cur = sig0 * to_complex(normals[:, 0, :], ksq)
        upper[0] = cur
        for i in range(1, times.size):
            decay, var = step_moments(ksq, kh, times[i - 1], times[i])
            cur = decay * cur + np.sqrt(var) * to_complex(normals[:, i, :], ksq)
            upper[i] = cur
    np.conjugate(coeffs[:, :h:-1], out=coeffs[:, :h])
    return coeffs


# grids of both former branches: uniform from 0 and from inside (0, 1),
# non-uniform or reaching outside [0, 1], and one or two rows
ORACLE_GRIDS = {
    "uniform_from_0": np.arange(33) / 32,
    "uniform_inside": 0.25 + np.arange(24) / 64,
    "uniform_to_1": np.linspace(0.5, 1.0, 17),
    "nonuniform_across_0_and_1": np.array([-0.5, -0.125, 0.0, 0.1, 0.35, 0.4, 0.9, 1.0, 1.25, 3.0]),
    "uniform_across_0": np.arange(-4, 12) / 8,
    "uniform_past_1": np.arange(4, 20) / 8,
    "nonuniform_inside": np.sort(np.random.default_rng(8).random(21)),
    "one_row": np.array([0.3]),
    "one_row_at_0": np.array([0.0]),
    "two_rows": np.array([0.0, 0.125]),
    "two_rows_across_1": np.array([0.75, 1.5]),
}


@pytest.mark.parametrize("grid", list(ORACLE_GRIDS))
@pytest.mark.parametrize(
    "d, s, kmax", [(1, 2.0, 1), (1, 1.5, 2), (1, 2.0, 7), (1, 1.5, 31), (2, 3.0, 1), (2, 3.0, 4), (3, 4.0, 1), (3, 3.5, 2)]
)
def test_one_recursion_matches_two_branch_oracle(grid, d, s, kmax):
    times = ORACLE_GRIDS[grid]
    spec = CovarianceSpec(d, s, kmax)
    modes = make_mode_set(d, kmax)
    for k in range(20):
        seed, realization = 1000 + 7 * k, (3 * k) % 11
        path = sample_mode_states(spec, times, seed, realization, modes=modes)
        want = two_branch_sampler(spec, times, seed, realization, chunk=(5, 8192)[k % 2])
        assert path.coeffs.tobytes() == want.tobytes(), (seed, realization)


def mode_stream(root_seed: int, realization: int, mode_index: int) -> np.random.Generator:
    """Counter-based stream for one (realization, mode) pair, built fresh.

    The Philox key derives from the root seed only; the counter words are
    [draw, 0, realization, mode_index], so distinct pairs can never
    overlap no matter how many values each stream consumes.  The samplers
    draw the same values through _mode_streams without rebuilding the
    generator; this function is the reference they are tested against.
    """
    bitgen = np.random.Philox(counter=[0, 0, realization, mode_index], key=_stream_key(root_seed))
    return np.random.Generator(bitgen)


def test_mode_streams_are_distinct():
    a = mode_stream(1, 0, 0).standard_normal(4)
    b = mode_stream(1, 0, 1).standard_normal(4)
    c = mode_stream(1, 1, 0).standard_normal(4)
    d = mode_stream(2, 0, 0).standard_normal(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _state_words(gen):
    st = gen.bit_generator.state
    return (
        tuple(st["state"]["counter"]),
        tuple(st["state"]["key"]),
        tuple(st["buffer"]),
        st["buffer_pos"],
        st["has_uint32"],
        st["uinteger"],
    )


# ways a mode can leave the shared generator half used for the next mode
_LEFTOVERS = (
    lambda g: None,
    lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),  # odd uint32 count
    lambda g: g.random(),  # one word of a four-word block
    lambda g: g.standard_normal(5),
)


@pytest.mark.parametrize("seed", [0, 1, 2026, 2**64 - 1])
def test_shared_stream_matches_fresh_mode_stream(seed):
    big = 2**40
    for r in (0, 7, big - 1, big):
        stream = _mode_streams(seed, r)
        for i, m in enumerate((0, 1, 3, 12345, big - 1, big, 2)):
            fresh = mode_stream(seed, r, m)
            shared = stream(m)
            assert _state_words(shared) == _state_words(fresh)
            for draw in (
                lambda g: g.standard_normal((4, 2)),
                lambda g: g.integers(0, 2**32, size=5, dtype=np.uint32),
                lambda g: g.random(3),
            ):
                assert np.array_equal(draw(shared), draw(fresh))
            _LEFTOVERS[(i + r) % len(_LEFTOVERS)](shared)


def test_one_seed_sequence_per_sampling_call(monkeypatch):
    calls = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    spec = CovarianceSpec(1, 2.0, 1023)
    modes = make_mode_set(1, 1023)
    assert np.count_nonzero(modes.rep_mask) == 1024
    sample_mode_states(spec, np.array([0.5, 1.0]), seed=5, modes=modes)
    assert calls == [(5,)]
    calls.clear()
    sample_mode_states(spec, np.arange(5) * 0.25, seed=6, modes=modes)
    assert calls == [(6,)]


# ---------------------------------------------------------------------------
# field evaluation


def _manual_path(spec, modes, times, coeffs):
    return NoisePath(spec=spec, modes=modes, times=times, coeffs=coeffs, seed=0)


def test_evaluate_single_pair_closed_form():
    spec = CovarianceSpec(1, 2.0, 2)
    modes = make_mode_set(1, 2)
    c = 0.3 - 0.8j
    coeffs = np.zeros((1, len(modes)), complex)
    i_plus = int(np.where(modes.m[:, 0] == 1)[0][0])
    coeffs[0, i_plus] = c
    coeffs[0, ::-1][i_plus] = np.conj(c)
    path = _manual_path(spec, modes, np.array([0.5]), coeffs)
    n_x = 8
    (f,) = evaluate_field(path, n_x)
    x = np.arange(n_x) / n_x
    expected = 2.0 * np.real(c * np.exp(1j * 2 * np.pi * x))
    assert np.allclose(f.values[0], expected, atol=1e-14)


def test_evaluate_gradient_of_constant_mode_is_zero():
    spec = CovarianceSpec(1, 2.0, 1)
    modes = make_mode_set(1, 1)
    coeffs = np.zeros((1, len(modes)), complex)
    zero = int(np.where(modes.m[:, 0] == 0)[0][0])
    coeffs[0, zero] = 2.5
    path = _manual_path(spec, modes, np.array([0.5]), coeffs)
    (g,) = evaluate_field(path, 8, [0])
    assert np.all(g.values == 0)


def test_evaluate_rejects_aliasing_grid():
    spec = CovarianceSpec(1, 2.0, 4)
    path = sample_mode_states(spec, np.array([0.0, 1.0]), seed=1)
    with pytest.raises(ValueError):
        evaluate_field(path, 2 * 4 + 1)


def test_evaluate_reality_residue_guard():
    spec = CovarianceSpec(1, 2.0, 1)
    modes = make_mode_set(1, 1)
    coeffs = np.zeros((1, len(modes)), complex)
    coeffs[0, 0] = 1.0 + 0.5j  # breaks the conjugate pairing
    path = _manual_path(spec, modes, np.array([0.5]), coeffs)
    with pytest.raises(FloatingPointError):
        evaluate_field(path, 8)


def _path_of(modes, coeffs):
    """A NoisePath that holds the given coefficient rows, at times 0, 1, 2, ..."""
    spec = CovarianceSpec(modes.d, modes.d + 1.0, modes.kmax)
    return NoisePath(spec, modes, np.arange(float(len(coeffs))), coeffs, seed=0)


def _unpaired_residue(modes, coeffs, n_x):
    """max |Im| of the d=1 inverse transform, computed without the package."""
    buf = np.zeros((coeffs.shape[0], n_x), complex)
    buf[:, modes.m[:, 0] % n_x] = coeffs
    return float(np.max(np.abs(np.fft.ifft(buf, axis=1).imag * n_x)))


@pytest.mark.parametrize("c", [0.5j, -0.5j, 0.25 - 0.7j])
def test_residue_guard_reports_max_abs_imaginary_part(c):
    modes = make_mode_set(1, 1)
    coeffs = np.zeros((2, len(modes)), complex)
    coeffs[1, 0] = c  # one unpaired mode: its imaginary part survives
    with pytest.raises(FloatingPointError) as exc:
        spectral_noise._spectral_slabs(_path_of(modes, coeffs), 8, ["v"])
    assert f"residue {_unpaired_residue(modes, coeffs, 8):.3e} " in str(exc.value)


def test_residue_guard_rejects_nan():
    # a NaN residue fails "residue <= 1e-10", so the guard fires
    modes = make_mode_set(1, 1)
    coeffs = np.zeros((1, len(modes)), complex)
    coeffs[0, 0] = complex(np.nan, 1.0)
    with pytest.raises(FloatingPointError, match="imaginary residue nan exceeds"):
        spectral_noise._spectral_slabs(_path_of(modes, coeffs), 8, ["v"])


def fill_scatter_slabs(modes, coeffs, n_x, parts):
    """Reference evaluator: per part, fill one full complex buffer with
    zeros, scatter the weighted coefficients by flat index and transform
    it in place."""
    d, n_t = modes.d, coeffs.shape[0]
    grid = (n_x,) * d
    out = np.empty((n_t, len(parts)) + grid)
    idx = np.ravel_multi_index(tuple((modes.m % n_x).T), grid)
    buf = np.empty((n_t,) + grid, dtype=np.complex128)
    for c, part in enumerate(parts):
        if part == "v":
            weighted = coeffs
        elif part == "div_j":
            weighted = coeffs * modes.ksq.astype(np.complex128)
        else:
            weighted = coeffs * (1j * modes.k[:, part])
        buf.fill(0.0)
        buf.reshape(n_t, -1)[:, idx] = weighted
        np.fft.ifftn(buf, axes=tuple(range(1, d + 1)), out=buf)
        buf *= float(n_x**d)
        out[:, c] = buf.real
    return out


@pytest.mark.parametrize(
    "d, kmax, n_x",
    [
        (1, 3, 8), (1, 3, 12), (1, 5, 30), (1, 6, 14),
        (2, 2, 6), (2, 3, 12), (2, 7, 32),
        (3, 1, 4), (3, 2, 7),
    ],
)
def test_spectral_slabs_match_fill_scatter_oracle(monkeypatch, d, kmax, n_x):
    # times start at 0, so the first row of coefficients is all zero
    path = sample_mode_states(CovarianceSpec(d, d + 1.0, kmax), np.linspace(0.0, 0.5, 8), seed=5)
    assert not path.coeffs[0].any()
    parts = ["v", *range(d), "div_j", 0]
    want = fill_scatter_slabs(path.modes, path.coeffs, n_x, parts).tobytes()
    assert spectral_noise._spectral_slabs(path, n_x, parts).tobytes() == want
    # blocks of 3 rows: 8 rows end on a partial block
    monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", 3 * 16 * n_x**d)
    assert spectral_noise._spectral_slabs(path, n_x, parts).tobytes() == want
    strided = path[1::3]  # rows read through a strided view
    want = fill_scatter_slabs(path.modes, strided.coeffs, n_x, parts).tobytes()
    assert spectral_noise._spectral_slabs(strided, n_x, parts).tobytes() == want
    # "v" must pass signed zeros through
    signed = _path_of(path.modes, np.full((2, len(path.modes)), complex(-0.0, -0.0)))
    want = fill_scatter_slabs(path.modes, signed.coeffs, n_x, parts).tobytes()
    assert spectral_noise._spectral_slabs(signed, n_x, parts).tobytes() == want


def test_evaluate_refined_grid_contains_coarse_nodes():
    spec = CovarianceSpec(1, 2.0, 3)
    path = sample_mode_states(spec, np.linspace(0, 1, 5), seed=13)
    coarse = evaluate_field(path, 8)[0].values
    fine = evaluate_field(path, 16)[0].values
    assert np.allclose(fine[:, ::2], coarse, atol=1e-12)


def test_evaluate_d2_gradient_components_differ():
    spec = CovarianceSpec(2, 3.0, 2)
    path = sample_mode_states(spec, np.array([0.0, 0.5, 1.0]), seed=3)
    g0 = evaluate_field(path, 8, [0])[0].values
    g1 = evaluate_field(path, 8, [1])[0].values
    assert g0.shape == (3, 8, 8)
    assert not np.allclose(g0, g1)


def test_evaluate_mode_list_is_one_pass_of_the_single_fields(monkeypatch):
    spec = CovarianceSpec(2, 3.0, 3)
    path = sample_mode_states(spec, np.linspace(0.0, 0.5, 9), seed=4)
    parts = ["v", 0, 1]
    singles = [evaluate_field(path, 8, [p])[0] for p in parts]
    seen = []
    slabs = spectral_noise._spectral_slabs

    def counting(path_, n_x, p, out=None):
        seen.append(list(p))
        return slabs(path_, n_x, p, out)

    monkeypatch.setattr(spectral_noise, "_spectral_slabs", counting)
    fields = evaluate_field(path, 8, parts)
    assert seen == [["v", 0, 1]]
    for f, g in zip(fields, singles):
        assert f.values.tobytes() == g.values.tobytes() and f.values.flags.c_contiguous
        assert (f.dt, f.t_start) == (g.dt, g.t_start)
    with pytest.raises(ValueError, match=r"part 2 is neither 'v' nor an axis in \[0, 2\)"):
        evaluate_field(path, 8, ["v", 2])
    assert seen == [["v", 0, 1]]  # refused before any evaluation


@pytest.mark.parametrize("bad", [True, "div_j", "value", -1, 2, 1.0, ("gradient", 0)])
def test_evaluate_field_names_a_part_outside_its_vocabulary(monkeypatch, bad):
    path = sample_mode_states(CovarianceSpec(2, 3.0, 1), np.linspace(0.0, 0.5, 3), seed=4)

    def refuse(*args, **kwargs):
        raise AssertionError("a bad part reached the spectral pass")

    monkeypatch.setattr(spectral_noise, "_spectral_slabs", refuse)
    with pytest.raises(ValueError) as exc:
        evaluate_field(path, 8, ["v", 0, bad])
    assert str(exc.value) == f"evaluation part {bad!r} is neither 'v' nor an axis in [0, 2)"


# ---------------------------------------------------------------------------
# closed-form covariance


def test_covariance_matches_independent_oracle():
    spec = CovarianceSpec(1, 2.0, 32)
    got = covariance_closed_form(spec, 0, 1.0, 1.0, np.array([0.0]))
    assert got == pytest.approx(COV_ORACLE_D1_S2_K32, rel=1e-12)
    for (t, t2, r) in ((0.5, 0.25, 0.125), (1.0, 0.5, 0.0), (0.25, 0.25, 0.3)):
        assert covariance_closed_form(spec, 0, t, t2, np.array([r])) == pytest.approx(
            oracle_covariance(32, 2.0, t, t2, r), rel=1e-12, abs=1e-15
        )


def test_covariance_zero_at_time_zero():
    spec = CovarianceSpec(1, 2.0, 8)
    for r in (0.0, 0.2):
        assert covariance_closed_form(spec, 0, 0.7, 0.0, np.array([r])) == 0.0


def test_covariance_even_in_offset():
    spec = CovarianceSpec(2, 3.0, 4)
    r = np.array([0.11, -0.07])
    a = covariance_closed_form(spec, 1, 0.8, 0.3, r)
    b = covariance_closed_form(spec, 1, 0.8, 0.3, -r)
    assert a == pytest.approx(b, rel=1e-14)


def test_covariance_rejects_times_outside_unit_interval():
    spec = CovarianceSpec(1, 2.0, 4)
    with pytest.raises(ValueError):
        covariance_closed_form(spec, 0, 1.5, 0.5, np.array([0.0]))
    with pytest.raises(ValueError):
        covariance_closed_form(spec, 0, 0.5, -0.1, np.array([0.0]))


# ---------------------------------------------------------------------------
# field container and binary format


def test_field_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Field(np.zeros((4, 8, 6)), dt=0.1)  # unequal spatial axes


def test_qspd_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        f = Field(rng.standard_normal((3,) + (4,) * d), dt=0.125, t_start=0.5)
        p = tmp_path / f"f{d}.qspd"
        write_qspd(p, f)
        g = read_qspd(p)
        assert np.array_equal(g.values, f.values)
        assert g.dt == f.dt and g.t_start == f.t_start


def test_qspd_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.qspd"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_qspd(p)


def _qspd_bytes(f):
    """The QSPD layout assembled independently of write_qspd."""
    head = b"QSPD" + struct.pack("<Iq", 1, f.d) + struct.pack(f"<{f.d}q", *f.values.shape[1:])
    head += struct.pack("<qdd", f.n_t, f.dt, f.t_start)
    return head + np.ascontiguousarray(f.values, dtype="<f8").tobytes()


def test_qspd_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        vals = rng.standard_normal((5,) + (6,) * d)
        vals.flat[3] = -0.0
        strided = vals[(slice(None),) + (slice(None, None, 2),) * d]  # not contiguous
        for f in (Field(vals, dt=0.125, t_start=0.5), Field(strided, dt=0.25)):
            p = tmp_path / "f.qspd"
            write_qspd(p, f)
            assert p.read_bytes() == _qspd_bytes(f)
            q = tmp_path / "g.qspd"
            write_qspd(q, read_qspd(p))
            assert q.read_bytes() == p.read_bytes()


def test_qspd_rows_written_in_blocks_equal_write_qspd(tmp_path):
    rng = np.random.default_rng(10)
    for d in (1, 2):
        vals = rng.standard_normal((19,) + (4,) * d)
        vals.flat[5] = -0.0
        f = Field(vals, dt=0.125, t_start=0.5)
        write_qspd(tmp_path / "whole.qspd", f)
        whole = (tmp_path / "whole.qspd").read_bytes()
        for rows in (1, 7, f.n_t):
            p = tmp_path / f"rows{rows}.qspd"
            blocks = (vals[lo : lo + rows] for lo in range(0, f.n_t, rows))
            spectral_noise._write_qspd_rows(p, vals.shape, f.dt, f.t_start, blocks)
            assert p.read_bytes() == whole == _qspd_bytes(f), (d, rows)
            g = read_qspd(p)
            assert g.values.tobytes() == vals.tobytes() and (g.dt, g.t_start) == (f.dt, f.t_start)


def test_qspd_rows_refuse_a_wrong_row_count(tmp_path):
    vals = np.zeros((4, 3))
    with pytest.raises(ValueError, match="got 3 time rows, its header says 4"):
        spectral_noise._write_qspd_rows(tmp_path / "f.qspd", vals.shape, 0.5, 0.0, [vals[:3]])


@pytest.mark.parametrize("cut", [1, 8, 13])
def test_qspd_rejects_truncated_payload(tmp_path, cut):
    f = Field(np.arange(24.0).reshape(3, 2, 2, 2)[..., 0], dt=0.5)
    p = tmp_path / "f.qspd"
    write_qspd(p, f)
    p.write_bytes(p.read_bytes()[:-cut])
    found = (12 * 8 - cut) // 8
    with pytest.raises(ValueError, match=f"expected 12 float64 values, found {found}"):
        read_qspd(p)


def _qspd_header(shape, n_t, version=1):
    d = len(shape)
    return b"QSPD" + struct.pack(f"<Iq{d}qqdd", version, d, *shape, n_t, 0.5, 0.0)


@pytest.mark.parametrize(
    "header, match",
    [
        (_qspd_header((2,), -1), "n_t is -1"),
        (_qspd_header((2, 2), -4), "n_t is -4"),
        (_qspd_header((-3,), 2), r"axis sizes \(-3,\)"),
        (_qspd_header((4, -1), 2), r"axis sizes \(4, -1\)"),
        (_qspd_header((0,), 3), r"axis sizes \(0,\)"),
        (_qspd_header((3, 0, 3), 1), r"axis sizes \(3, 0, 3\)"),
        (_qspd_header((2,), 1, version=2), "unsupported QSPD version 2"),
        (_qspd_header((2,) * 9, 1), "implausible dimension 9"),
    ],
    ids=["n_t=-1", "n_t=-4", "axis0=-3", "axis1=-1", "axis0=0", "axis1=0", "version=2", "d=9"],
)
def test_qspd_rejects_impossible_header_sizes(tmp_path, header, match):
    p = tmp_path / "f.qspd"
    p.write_bytes(header + b"\x00" * 64)
    with pytest.raises(ValueError, match=match):
        read_qspd(p)


@pytest.mark.parametrize("grid, n_t", [((2**32, 2**32), 1), ((2**21,) * 3, 2)], ids=["2^64", "2^63*2"])
def test_qspd_size_check_counts_without_overflow(tmp_path, grid, n_t):
    # 2^64 values wrap to 0 in int64, which an empty payload would match
    p = tmp_path / "f.qspd"
    p.write_bytes(_qspd_header(grid, n_t))
    with pytest.raises(ValueError, match=f"truncated QSPD payload: expected {2**64} float64 values, found 0"):
        read_qspd(p)


@pytest.mark.parametrize("extra", [1, 24])
def test_qspd_rejects_bytes_after_payload(tmp_path, extra):
    p = tmp_path / "f.qspd"
    write_qspd(p, Field(np.arange(12.0).reshape(3, 4), dt=0.5))
    p.write_bytes(p.read_bytes() + b"\x00" * extra)
    with pytest.raises(ValueError, match=f"12 float64 values is followed by {extra} extra bytes"):
        read_qspd(p)
