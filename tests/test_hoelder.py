"""Hoelder seminorm tests: brute-force oracles, the two-sided comparison
between the exhaustive and dyadic estimators, and witness audits."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qspde.hoelder as hoelder
from qspde.hoelder import (
    C2_EQUIVALENCE,
    c1alpha_seminorm,
    centered_gradient,
    seminorm_dyadic,
    seminorm_naive,
)
from qspde import spectral_noise
from qspde.spectral_noise import Field


def random_field(rng, n_t, n_x, d, dt):
    return Field(rng.standard_normal((n_t,) + (n_x,) * d), dt=dt)


def parabolic_distance(z, z_prime) -> float:
    """sqrt(|t-t'|) + |x-x'| with minimal-image periodic Euclidean |x-x'|.

    Points are (t, x) with x a scalar or length-d sequence; coordinates
    live on the unit torus per axis.
    """
    t, x = z
    t2, x2 = z_prime
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    x2 = np.atleast_1d(np.asarray(x2, dtype=np.float64))
    if x.shape != x2.shape:
        raise ValueError("spatial coordinates differ in dimension")
    delta = np.abs(x - x2) % 1.0
    delta = np.minimum(delta, 1.0 - delta)
    return float(np.sqrt(abs(t - t2)) + np.sqrt(np.sum(delta * delta)))


# ---------------------------------------------------------------------------
# parabolic distance


def test_distance_trivia():
    assert parabolic_distance((0.3, (0.2,)), (0.3, (0.2,))) == 0.0
    assert parabolic_distance((0.0, (0.0,)), (1.0, (0.0,))) == 1.0
    assert parabolic_distance((0.5, (0.1,)), (0.5, (0.3,))) == pytest.approx(0.2)
    assert parabolic_distance((0.25, (0.5, 0.0)), (0.0, (0.0, 0.0))) == pytest.approx(1.0)


def test_distance_symmetric_and_wraps():
    a, b = (0.2, (0.95,)), (0.7, (0.05,))
    assert parabolic_distance(a, b) == parabolic_distance(b, a)
    assert parabolic_distance((0.0, (0.95,)), (0.0, (0.05,))) == pytest.approx(0.1)


def test_distance_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        parabolic_distance((0.0, (0.1,)), (0.0, (0.1, 0.2)))


# ---------------------------------------------------------------------------
# exhaustive estimator


def test_naive_constant_field_is_zero():
    f = Field(np.full((3, 8), 2.5), dt=1 / 16)
    rep = seminorm_naive(f, 0.3)
    assert rep.naive == 0.0


def test_naive_single_spike_closed_form():
    # nearest grid neighbours sit at distance min(dx, sqrt(dt)) from the
    # spike; with dx = sqrt(dt) = 0.25 the sup quotient is |c| / 0.25^alpha
    vals = np.zeros((3, 4))
    vals[1, 2] = -1.3
    f = Field(vals, dt=1 / 16)
    rep = seminorm_naive(f, 0.4)
    assert rep.naive == pytest.approx(1.3 / 0.25**0.4, rel=1e-12)


def test_naive_matches_triple_loop_oracle():
    rng = np.random.default_rng(7)
    f = random_field(rng, 5, 5, 1, dt=1 / 32)
    alpha = 0.3
    rep = seminorm_naive(f, alpha)

    best = 0.0
    times = f.times
    xs = np.arange(5) / 5
    for i_t in range(5):
        for i_x in range(5):
            for j_t in range(5):
                for j_x in range(5):
                    if (i_t, i_x) >= (j_t, j_x):
                        continue
                    dx = abs(xs[i_x] - xs[j_x]) % 1.0
                    dx = min(dx, 1.0 - dx)
                    dist = math.sqrt(abs(times[i_t] - times[j_t])) + dx
                    if dist == 0.0:
                        continue
                    q = abs(f.values[i_t, i_x] - f.values[j_t, j_x]) / dist**alpha
                    best = max(best, q)
    assert rep.naive == pytest.approx(best, rel=1e-12)


def meshgrid_naive(f, alpha):
    """The exhaustive scan with node coordinates stacked from np.meshgrid,
    as seminorm_naive built them before np.indices; returns (naive, pair)."""
    mesh = np.meshgrid(*[np.arange(f.n_x) * f.dx] * f.d, indexing="ij")
    pos = np.stack([g.ravel() for g in mesh], axis=1)
    t_flat, x_flat = np.repeat(f.times, pos.shape[0]), np.tile(pos, (f.n_t, 1))
    vals = f.values.reshape(-1)
    best, best_pair = 0.0, None
    for i in range(vals.size - 1):
        dxs = np.abs(x_flat[i + 1 :] - x_flat[i]) % 1.0
        dxs = np.minimum(dxs, 1.0 - dxs)
        dist = np.sqrt(np.abs(t_flat[i + 1 :] - t_flat[i])) + np.sqrt(np.sum(dxs * dxs, axis=1))
        quot = np.abs(vals[i + 1 :] - vals[i]) / dist**alpha
        jrel = int(np.argmax(quot))
        if quot[jrel] > best:
            best, j = float(quot[jrel]), i + 1 + jrel
            best_pair = ((float(t_flat[i]), tuple(x_flat[i])), (float(t_flat[j]), tuple(x_flat[j])))
    return best, best_pair


@pytest.mark.parametrize("d, n_x, n_t", [(1, 5, 4), (1, 16, 9), (2, 3, 5), (2, 8, 5), (3, 4, 3)])
def test_naive_matches_meshgrid_oracle(d, n_x, n_t):
    f = Field(np.random.default_rng(50).standard_normal((n_t,) + (n_x,) * d) ** 3, dt=1 / 64, t_start=0.25)
    rep = seminorm_naive(f, 0.3)
    naive, pair = meshgrid_naive(f, 0.3)
    assert (rep.naive.hex(), rep.pair) == (naive.hex(), pair)


def test_naive_witness_reproduces_value():
    rng = np.random.default_rng(8)
    f = random_field(rng, 3, 8, 1, dt=1 / 64)
    rep = seminorm_naive(f, 0.45)
    (t1, x1), (t0, x0) = rep.pair
    i1 = int(round(t1 / f.dt)), int(round(x1[0] / f.dx))
    i0 = int(round(t0 / f.dt)), int(round(x0[0] / f.dx))
    gap = abs(f.values[i1] - f.values[i0])
    dist = parabolic_distance((t1, x1), (t0, x0))
    assert gap / dist**0.45 == pytest.approx(rep.naive, rel=1e-14)


def test_naive_budget_guard_mentions_dyadic_alternative():
    f = Field(np.zeros((30, 1024)), dt=1e-4)
    with pytest.raises(ValueError, match="dyadic"):
        seminorm_naive(f, 0.3)


def test_naive_rejects_bad_alpha():
    f = Field(np.zeros((3, 4)), dt=1 / 16)
    for alpha in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            seminorm_naive(f, alpha)


@pytest.mark.parametrize("dt", [0.0, -0.25, np.nan, np.inf])
@pytest.mark.parametrize("estimator", [seminorm_naive, seminorm_dyadic, c1alpha_seminorm])
def test_estimators_refuse_a_bad_time_step(estimator, dt):
    # the dyadic scans raised ZeroDivisionError at dt = 0 and could not
    # convert NaN to an integer; the naive scan returned 0.0, or inf at dt = 0
    f = Field(np.random.default_rng(3).standard_normal((5, 8)), dt=dt)
    with pytest.raises(ValueError, match=f"^dt must be finite and > 0, got {dt}$"):
        estimator(f, 0.3)


@pytest.mark.parametrize("t_start", [np.nan, np.inf])
def test_naive_refuses_a_non_finite_t_start(t_start):
    f = Field(np.random.default_rng(4).standard_normal((5, 8)), dt=1 / 16, t_start=t_start)
    with pytest.raises(ValueError, match=f"^t_start must be finite, got {t_start}$"):
        seminorm_naive(f, 0.3)


# ---------------------------------------------------------------------------
# dyadic estimator


def test_dyadic_constant_field_is_zero():
    f = Field(np.full((5, 8), -0.7), dt=1 / 16)
    rep = seminorm_dyadic(f, 0.3)
    assert rep.theta == 0.0
    assert rep.pair is None


def test_dyadic_two_sided_comparison_d1():
    rng = np.random.default_rng(11)
    for alpha in (0.3, 0.7):
        for _ in range(5):
            f = random_field(rng, 5, 8, 1, dt=1 / 16)
            th = seminorm_dyadic(f, alpha).theta
            nv = seminorm_naive(f, alpha).naive
            chain = (np.sqrt(3.0) + 1.0) ** alpha
            assert th <= chain * nv * (1 + 1e-12)
            assert nv <= C2_EQUIVALENCE * th * (1 + 1e-12)


def test_dyadic_two_sided_comparison_d2():
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = random_field(rng, 3, 4, 2, dt=1 / 16)
        th = seminorm_dyadic(f, 0.3).theta
        nv = seminorm_naive(f, 0.3).naive
        chain = (np.sqrt(3.0) + np.sqrt(2.0)) ** 0.3
        assert th <= chain * nv * (1 + 1e-12)
        assert nv <= C2_EQUIVALENCE * th * (1 + 1e-12)


def test_dyadic_witness_reproduces_value():
    rng = np.random.default_rng(13)
    f = random_field(rng, 9, 16, 1, dt=1 / 256)
    rep = seminorm_dyadic(f, 0.4)
    (t1, x1), (t0, x0) = rep.pair
    i1 = int(round(t1 / f.dt)), int(round(x1[0] / f.dx))
    i0 = int(round(t0 / f.dt)), int(round(x0[0] / f.dx))
    gap = float(abs(f.values[i1] - f.values[i0]))
    assert gap * rep.level_R**-0.4 == rep.theta


def test_dyadic_rejects_non_dyadic_grids():
    with pytest.raises(ValueError):
        seminorm_dyadic(Field(np.zeros((5, 5)), dt=1 / 16), 0.3)  # n_x not 2^k
    with pytest.raises(ValueError):
        seminorm_dyadic(Field(np.zeros((4, 8)), dt=1 / 16), 0.3)  # n_t-1 not 2^k
    with pytest.raises(ValueError, match="scale"):
        seminorm_dyadic(Field(np.zeros((5, 8)), dt=1 / 10), 0.3)  # dt misaligned
    with pytest.raises(ValueError, match="two time slabs"):
        seminorm_dyadic(Field(np.zeros((1, 8)), dt=1 / 16), 0.3)
    for alpha in (0.0, 1.0, np.nan):
        with pytest.raises(ValueError, match="alpha"):
            seminorm_dyadic(Field(np.zeros((5, 8)), dt=1 / 16), alpha)


def test_dyadic_scaling_by_power_of_two_exact():
    rng = np.random.default_rng(14)
    f = random_field(rng, 5, 8, 1, dt=1 / 16)
    g = Field(4.0 * f.values, dt=f.dt)
    assert seminorm_dyadic(g, 0.3).theta == 4.0 * seminorm_dyadic(f, 0.3).theta
    assert seminorm_naive(g, 0.3).naive == 4.0 * seminorm_naive(f, 0.3).naive


def roll_dyadic(f, alpha):
    """The dyadic scan with np.roll copies and abs/argmax at every offset.

    Returns (theta, pair, level_R) of seminorm_dyadic; every offset is
    scanned, the mirrored ones at time offset 0 included.
    """
    best, best_pair, best_R = 0.0, None, None
    offsets = list(itertools.product((-1, 0, 1), repeat=f.d))
    for _, R, st, sx in hoelder._dyadic_levels(f.n_x, f.dt):
        sub = f.values[(slice(None, None, st),) + (slice(None, None, sx),) * f.d]
        m_t = sub.shape[0]
        for dt_idx in range(min(4, m_t)):
            lead, base = sub[dt_idx:], sub[: m_t - dt_idx]
            for off in offsets:
                if dt_idx == 0 and not any(off):
                    continue
                shifted = lead
                for a, o in enumerate(off):
                    if o:
                        shifted = np.roll(shifted, -o, axis=1 + a)
                diff = np.abs(shifted - base)
                pos = int(np.argmax(diff))
                m = float(diff.ravel()[pos])
                if m * R**-alpha > best:
                    best, best_R = m * R**-alpha, R
                    i_t, *p = np.unravel_index(pos, diff.shape)
                    t1 = f.t_start + (i_t + dt_idx) * st * f.dt
                    t0 = f.t_start + i_t * st * f.dt
                    x1 = tuple(((pi + o) * sx % f.n_x) * f.dx for pi, o in zip(p, off))
                    x0 = tuple((pi * sx) * f.dx for pi in p)
                    best_pair = ((t1, x1), (t0, x0))
    return best, best_pair, best_R


def _dyadic_oracle_fields():
    rng = np.random.default_rng(41)
    grids = (
        (1, 16, 65, 1 / 1024),
        (1, 2, 5, 1 / 16),
        (1, 8, 17, 1 / 64),
        (2, 8, 33, 1 / 256),
        (2, 4, 9, 1 / 16),
        (3, 4, 17, 1 / 64),
    )
    for d, n_x, n_t, dt in grids:
        shape = (n_t,) + (n_x,) * d
        yield Field(rng.standard_normal(shape), dt=dt, t_start=0.25)
        yield Field(np.cumsum(rng.standard_normal(shape), axis=0), dt=dt)
        # few distinct values: tied maxima at many offsets and positions
        yield Field(rng.integers(-2, 3, shape).astype(float), dt=dt)
        spike = np.zeros(shape)
        spike[(n_t // 2,) + (n_x - 1,) * d] = 1.0
        yield Field(spike, dt=dt)
        yield Field(np.full(shape, -0.0), dt=dt)


def test_dyadic_matches_roll_oracle():
    for f in _dyadic_oracle_fields():
        for alpha in (0.3, 0.7):
            rep = seminorm_dyadic(f, alpha)
            theta, pair, level_R = roll_dyadic(f, alpha)
            assert _same_bits(rep.theta, theta), (f.values.shape, alpha, rep.theta, theta)
            assert (rep.pair, rep.level_R) == (pair, level_R), f.values.shape


def piece_table_dyadic(f, alpha):
    """The dyadic scan that read each periodic offset as a table of slice
    pieces, one np.subtract per piece, before the wrap-padded copy.

    Returns (theta, pair, level_R) of seminorm_dyadic on grids it accepts.
    """
    best, best_pair, best_R = 0.0, None, None
    offsets = list(itertools.product((-1, 0, 1), repeat=f.d))
    for _, R, st, sx in hoelder._dyadic_levels(f.n_x, f.dt):
        sub = f.values[(slice(None, None, st),) + (slice(None, None, sx),) * f.d]
        m_t, cells = sub.shape[:2]
        roll = {}
        for o in (-1, 0, 1):  # (into, from) slices with into[i] = from[(i + o) % cells]
            k = o % cells
            roll[o] = [(slice(0, cells - k), slice(k, cells)), (slice(cells - k, cells), slice(0, k))][: 2 if k else 1]
        plan = [
            (off, [tuple((slice(None),) + s for s in zip(*p)) for p in itertools.product(*(roll[o] for o in off))])
            for off in offsets
        ]
        buf = np.empty(sub.shape)
        scale = R**-alpha
        for dt_idx in range(min(4, m_t)):
            lead, base, diff = sub[dt_idx:], sub[: m_t - dt_idx], buf[: m_t - dt_idx]
            for off, pieces in plan if dt_idx else plan[: len(plan) // 2]:
                for into, frm in pieces:
                    np.subtract(lead[frm], base[into], out=diff[into])
                m = float(max(diff.max(), -diff.min()))
                if m * scale > best:
                    best, best_R = m * scale, R
                    i_t, *p = np.unravel_index(np.argmax(np.abs(diff, out=diff)), diff.shape)
                    t1 = f.t_start + (i_t + dt_idx) * st * f.dt
                    t0 = f.t_start + i_t * st * f.dt
                    x1 = tuple(((pi + o) * sx % f.n_x) * f.dx for pi, o in zip(p, off))
                    x0 = tuple((pi * sx) * f.dx for pi in p)
                    best_pair = ((t1, x1), (t0, x0))
                elif m != m:
                    raise hoelder._nan_error(sub, st, sx)
    return best, best_pair, best_R


def _piece_table_grids():
    for d in (1, 2, 3):
        for n_x in (2, 4, 8, 16):
            for intervals in (2, 4, 8, 16, 64):
                if (intervals + 1) * n_x**d > 70000:  # d = 3, n_x = 16 with 64 intervals
                    continue
                for dt in (1 / n_x**2, 1 / (4 * n_x**2), 1 / (3 * n_x**2)):
                    yield d, n_x, intervals + 1, dt


def test_dyadic_matches_piece_table_oracle():
    rng = np.random.default_rng(48)
    cases = 0
    for d, n_x, n_t, dt in _piece_table_grids():
        for t_start in (0.0, 0.25):
            # cubed normals: heavy tails put near-ties among the largest increments
            f = Field(rng.standard_normal((n_t,) + (n_x,) * d) ** 3, dt=dt, t_start=t_start)
            rep = seminorm_dyadic(f, 0.3)
            theta, pair, level_R = piece_table_dyadic(f, 0.3)
            assert rep.theta.hex() == theta.hex(), (d, n_x, n_t, dt, t_start)
            assert (rep.pair, rep.level_R) == (pair, level_R), (d, n_x, n_t, dt, t_start)
            cases += 1
    assert cases == 2 * 3 * (4 * 5 * 3 - 1)


def _oracle_error(f):
    try:
        piece_table_dyadic(f, 0.3)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("the oracle accepted a non-finite field")


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("d, n_x, n_t, dt", [(1, 16, 17, 1 / 256), (2, 4, 9, 1 / 64), (3, 4, 5, 1 / 16)])
def test_dyadic_non_finite_sample_raises_as_the_piece_table_oracle(bad, d, n_x, n_t, dt):
    vals = np.random.default_rng(49).standard_normal((n_t,) + (n_x,) * d)
    vals[(slice(n_t // 2, None),) + (n_x - 1,) * d] = bad  # inf - inf at a time offset is NaN
    f = Field(vals, dt=dt)
    with pytest.raises(ValueError) as exc:
        seminorm_dyadic(f, 0.3)
    assert str(exc.value) == _oracle_error(f)
    assert str(exc.value).startswith(f"NaN increment: sample {bad}")


def test_dyadic_nan_sample_raises_naming_it():
    # the largest increment sits far from the NaN, which every level reads
    rng = np.random.default_rng(43)
    vals = rng.standard_normal((17, 8))
    vals[9, 5] += 50.0
    vals[0, 0] = np.nan
    with pytest.raises(ValueError, match=r"sample nan at time index 0, node \(0,\)"):
        seminorm_dyadic(Field(vals, dt=1 / 64), 0.3)
    vals = rng.standard_normal((9, 4, 4))
    vals[4, 2, 1] = np.nan
    with pytest.raises(ValueError, match=r"sample nan at time index 4, node \(2, 1\)"):
        seminorm_dyadic(Field(vals, dt=1 / 16), 0.3)


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
def test_dyadic_inf_minus_inf_names_the_infinite_sample():
    vals = np.random.default_rng(44).standard_normal((17, 8))
    vals[3:5, 2] = np.inf  # time offset 1 subtracts inf from inf
    with pytest.raises(ValueError, match=r"sample inf at time index 3, node \(2,\)"):
        seminorm_dyadic(Field(vals, dt=1 / 64), 0.3)


def test_temporal_sup_nan_sample_raises_naming_it():
    vals = np.random.default_rng(45).standard_normal((17, 4, 4))
    vals[12, 3, 1] = np.nan
    with pytest.raises(ValueError, match=r"sample nan at time index 12, node \(3, 1\)"):
        hoelder._temporal_sup(Field(vals, dt=1 / 64), 0.3)


def test_nan_search_only_runs_on_a_nan_increment(monkeypatch):
    class NoNanSearch:
        def __getattr__(self, name):
            if name in ("isnan", "isinf", "argwhere"):
                raise AssertionError(f"np.{name} called on a field without NaN increments")
            return getattr(np, name)

    vals = np.random.default_rng(46).standard_normal((17, 8))
    vals[5, 3] = np.inf  # infinite increments, none of them NaN
    monkeypatch.setattr(hoelder, "np", NoNanSearch())
    for f in (Field(vals, dt=1 / 64), random_field(np.random.default_rng(47), 9, 4, 2, dt=1 / 16)):
        seminorm_dyadic(f, 0.3)
        c1alpha_seminorm(f, 0.3)


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(-10, 10, allow_nan=False))
def test_shift_invariance(shift):
    rng = np.random.default_rng(15)
    f = random_field(rng, 5, 8, 1, dt=1 / 16)
    g = Field(f.values + shift, dt=f.dt)
    assert seminorm_dyadic(g, 0.3).theta == pytest.approx(
        seminorm_dyadic(f, 0.3).theta, rel=1e-10
    )


def test_naive_monotone_in_alpha_on_short_window():
    # all pairwise distances stay <= 1 when T <= 1/4 in d=1, so the
    # quotient grows with alpha pointwise
    rng = np.random.default_rng(16)
    f = random_field(rng, 5, 8, 1, dt=1 / 16)
    n1 = seminorm_naive(f, 0.2).naive
    n2 = seminorm_naive(f, 0.5).naive
    n3 = seminorm_naive(f, 0.8).naive
    assert n1 <= n2 * (1 + 1e-12) and n2 <= n3 * (1 + 1e-12)


def test_csv_row_and_header_shape():
    f = Field(np.arange(12.0).reshape(3, 4), dt=1 / 16)
    rep = seminorm_naive(f, 0.3)
    row = rep.to_csv_row()
    assert len(row.split(",")) == len(rep.csv_header().split(","))
    assert rep.csv_header().startswith("alpha,naive,theta")


# ---------------------------------------------------------------------------
# gradients and the composite norm


def test_centered_gradient_of_sine():
    n_x = 32
    x = np.arange(n_x) / n_x
    f = Field(np.sin(2 * np.pi * x)[None, :], dt=1.0)
    g = centered_gradient(f)
    h = 1.0 / n_x
    expected = np.cos(2 * np.pi * x) * np.sin(2 * np.pi * h) / h
    assert np.allclose(g[0, 0], expected, atol=1e-12)


def test_centered_gradient_shape_d2():
    f = Field(np.zeros((3, 8, 8)), dt=0.25)
    assert centered_gradient(f).shape == (3, 2, 8, 8)


def _temporal_subtracts(monkeypatch, f):
    """c1alpha_seminorm(f, 0.3) and the row count of each np.subtract in _temporal_sup.

    The temporal scan makes one subtraction per scanned lag, with one row
    per scanned site; subtractions elsewhere in hoelder are not counted.
    """
    rows = []
    temporal = hoelder._temporal_sup.__code__

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def subtract(a, *args, **kwargs):
            if sys._getframe(1).f_code is temporal:
                rows.append(a.shape[0])
            return np.subtract(a, *args, **kwargs)

    monkeypatch.setattr(hoelder, "np", CountingNumpy())
    value = c1alpha_seminorm(f, 0.3)
    monkeypatch.undo()
    return value, rows


def test_c1alpha_zero_field():
    f = Field(np.zeros((5, 4)), dt=0.25)
    assert c1alpha_seminorm(f, 0.3) == 0.0


def test_c1alpha_linear_in_time_is_unit(monkeypatch):
    times = np.arange(5) * 0.25
    vals = np.broadcast_to(times[:, None], (5, 4)).copy()
    f = Field(vals, dt=0.25)
    # gradient part vanishes; temporal part peaks at the full window,
    # |t - t'|^((1-alpha)/2) = 1 at |t - t'| = 1, so no lag may be skipped
    value, rows = _temporal_subtracts(monkeypatch, f)
    assert value == 1.0
    assert len(rows) == 5 - 1


def unpruned_c1alpha(w, grad_w, alpha):
    """Exhaustive lag scan: the composite seminorm before lag pruning."""
    grad_part = 0.0
    for a in range(w.d):
        comp = Field(grad_w[:, a], dt=w.dt, t_start=w.t_start)
        grad_part = max(grad_part, seminorm_dyadic(comp, alpha).theta)
    expo = (1.0 + alpha) / 2.0
    vals = w.values
    temporal = 0.0
    for lag in range(1, w.n_t):
        m = float(np.max(np.abs(vals[lag:] - vals[:-lag])))
        temporal = max(temporal, m / (lag * w.dt) ** expo)
    return grad_part + temporal


def _oracle_fields():
    rng = np.random.default_rng(17)
    for d, n_x, n_t in ((1, 16, 65), (2, 8, 33), (3, 4, 17)):
        for _ in range(3):
            yield random_field(rng, n_t, n_x, d, dt=1 / 1024)
            # a smooth trend plus noise, so that the pruning rule skips lags
            trend = np.sin(np.linspace(0.0, 6.0, n_t)).reshape((n_t,) + (1,) * d)
            yield Field(5.0 * trend + 0.1 * rng.standard_normal((n_t,) + (n_x,) * d), dt=1 / 1024)
    yield Field(np.full((33, 8), -1.5), dt=1 / 1024)  # R = 0
    signed = np.zeros((17, 8))
    signed[::2, 1::2] = -0.0
    signed[3, 4] = 1.0
    yield Field(signed, dt=1 / 256)
    for bad in (np.nan, np.inf):
        vals = rng.standard_normal((33, 8))
        vals[20, 3] = bad
        yield Field(vals, dt=1 / 1024)
    yield random_field(rng, 2, 8, 1, dt=1 / 64)  # n_t = 2
    yield random_field(rng, 2, 4, 2, dt=1 / 16)


def test_c1alpha_matches_unpruned_oracle():
    for f in _oracle_fields():
        gw = centered_gradient(f)
        if np.isnan(f.values).any():
            with pytest.raises(ValueError, match="NaN increment: sample nan at time index 20, node"):
                c1alpha_seminorm(f, 0.3)
            continue
        for alpha in (0.3, 0.7):
            got = np.float64(c1alpha_seminorm(f, alpha))
            want = np.float64(unpruned_c1alpha(f, gw, alpha))
            assert got.tobytes() == want.tobytes(), (f.values.shape, alpha, got, want)


def test_c1alpha_prunes_saturated_lags(monkeypatch):
    n_t = 257
    times = np.arange(n_t) / 128
    f = Field(np.broadcast_to(np.sin(2 * np.pi * times)[:, None], (n_t, 8)).copy(), dt=1 / 128)
    value, rows = _temporal_subtracts(monkeypatch, f)
    assert len(rows) < n_t - 1
    assert value == unpruned_c1alpha(f, centered_gradient(f), 0.3)


def exhaustive_temporal(w, alpha):
    """The temporal part of the composite seminorm, every lag and site."""
    expo = (1.0 + alpha) / 2.0
    vals = w.values
    temporal = 0.0
    for lag in range(1, w.n_t):
        m = float(np.max(np.abs(vals[lag:] - vals[:-lag])))
        temporal = max(temporal, m / (lag * w.dt) ** expo)
    return temporal


def hot_site_field(rng, n_t, n_x, d, ramp=48):
    """Smooth small sites plus one hot site whose value climbs late.

    The hot site holds the largest range, so a bound shared by all sites
    cannot skip a lag below the ramp length; only its own bound prunes
    the smooth sites there.
    """
    t = np.arange(n_t) / (n_t - 1)
    shape = (n_t,) + (n_x,) * d
    smooth = 0.01 * np.sin(6 * np.pi * t).reshape((n_t,) + (1,) * d)
    vals = smooth + 1e-3 * rng.standard_normal(shape)
    climb = np.clip((np.arange(n_t) - (n_t - 1 - ramp)) / ramp, 0.0, 1.0)
    vals.reshape(n_t, -1)[:, 5 % n_x**d] += 5.0 * climb
    return Field(vals, dt=1 / max(n_t - 1, 1))


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_c1alpha_hot_site_matches_exhaustive():
    rng = np.random.default_rng(23)
    for d, n_x, n_t in ((1, 16, 257), (2, 8, 129), (3, 4, 65)):
        f = hot_site_field(rng, n_t, n_x, d)
        gw = centered_gradient(f)
        for alpha in (0.3, 0.7):
            got = c1alpha_seminorm(f, alpha)
            want = unpruned_c1alpha(f, gw, alpha)
            assert _same_bits(got, want), (d, alpha, got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_c1alpha_hot_site_nonfinite_at_a_pruned_site(bad):
    rng = np.random.default_rng(29)
    for row in (0, 40, 128):
        f = hot_site_field(rng, 129, 16, 1)
        f.values[row, 2] = bad  # site 2 is smooth: its bound alone would prune it
        gw = centered_gradient(f)
        if np.isnan(bad):
            with pytest.raises(ValueError, match=rf"sample nan at time index {row}, node \(2,\)"):
                c1alpha_seminorm(f, 0.3)
            continue
        got = c1alpha_seminorm(f, 0.3)
        assert _same_bits(got, unpruned_c1alpha(f, gw, 0.3)), (bad, row, got)


@pytest.mark.parametrize("n_t", [2, 3, 5, 6, 1000])
def test_temporal_sup_short_and_long_records(n_t):
    # lags beyond the widest window use the whole-record range
    rng = np.random.default_rng(n_t)
    fields = [
        random_field(rng, n_t, 8, 1, dt=1 / 64),
        Field(np.cumsum(rng.standard_normal((n_t, 4, 4)), axis=0), dt=1 / 64),
    ]
    if n_t > 2:
        fields.append(hot_site_field(rng, n_t, 8, 1, ramp=max(n_t // 4, 1)))
    for f in fields:
        for alpha in (0.3, 0.7):
            got = hoelder._temporal_sup(f, alpha)
            assert _same_bits(got, exhaustive_temporal(f, alpha)), (n_t, alpha)


@pytest.mark.parametrize("n_t", [1, 2, 3, 5, 6, 17])
def test_windowed_ranges_match_brute_force(n_t):
    rng = np.random.default_rng(31)
    series = rng.standard_normal((3, n_t))
    table = hoelder._windowed_ranges(series)
    k = 1
    while 2**k <= n_t:
        want = [max(np.ptp(s[i : i + 2**k]) for i in range(n_t - 2**k + 1)) for s in series]
        assert table[k - 1].tolist() == want
        k += 1
    assert table.shape[0] == k
    assert table[-1].tolist() == np.ptp(series, axis=1).tolist()


def test_c1alpha_prunes_site_lag_pairs(monkeypatch):
    f = hot_site_field(np.random.default_rng(37), 129, 8, 2)
    sites, lags = f.values[0].size, f.n_t - 1
    value, pairs = _temporal_subtracts(monkeypatch, f)
    assert _same_bits(value, unpruned_c1alpha(f, centered_gradient(f), 0.3))

    # the lags a single bound shared by every site would scan
    expo = 0.65
    R = float(np.ptp(f.values, axis=0).max())
    temporal, shared_lags = 0.0, 0
    for lag in range(1, f.n_t):
        if R / (lag * f.dt) ** expo <= temporal:
            continue
        shared_lags += 1
        m = float(np.max(np.abs(f.values[lag:] - f.values[:-lag])))
        temporal = max(temporal, m / (lag * f.dt) ** expo)
    assert 10 * sum(pairs) < sites * lags
    assert 4 * sum(pairs) < sites * shared_lags


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_x", [2, 3, 8])
def test_centered_gradient_matches_roll_formula(d, n_x):
    rng = np.random.default_rng(10 * d + n_x)
    f = Field(rng.standard_normal((4,) + (n_x,) * d), dt=0.1)
    want = np.stack(
        [
            (np.roll(f.values, -1, axis=1 + a) - np.roll(f.values, 1, axis=1 + a)) / (2.0 * f.dx)
            for a in range(d)
        ],
        axis=1,
    )
    assert centered_gradient(f).tobytes() == want.tobytes()


@pytest.mark.parametrize("t_start", [0.0, 0.375])
@pytest.mark.parametrize("n_x", [8, 16, 32])
@pytest.mark.parametrize("d", [1, 2])
def test_dyadic_on_the_row_stride_matches_the_full_field(d, n_x, t_start):
    # every dyadic grid of the family up to 2^17 samples, n_t - 1 from 16
    # to 1024 and dt from 2^-6 to 2^-13; s = 1 on some of them
    rng = np.random.default_rng(100 * d + n_x)
    strides = set()
    for e_t, e_dt in itertools.product(range(4, 11), range(6, 14)):
        n_t, dt = 2**e_t + 1, 2.0**-e_dt
        if not hoelder._dyadic_levels(n_x, dt) or n_t * n_x**d > 2**17:
            continue
        s = hoelder._row_stride(n_t, n_x, dt)
        shape = (n_t,) + (n_x,) * d
        # a random walk in time plus noise, so the witness lies at varying scales
        vals = rng.uniform() * np.cumsum(rng.standard_normal(shape), axis=0) + rng.standard_normal(shape)
        full = seminorm_dyadic(Field(vals, dt=dt, t_start=t_start), 0.3)
        kept = seminorm_dyadic(Field(vals[::s], dt=s * dt, t_start=t_start), 0.3)
        assert (kept.theta.hex(), kept.pair, kept.level_R) == (full.theta.hex(), full.pair, full.level_R)
        strides.add(s)
    assert 1 in strides and max(strides) > 1


def test_c1alpha_with_the_row_stride_gradient_keeps_the_full_gradient_value():
    rng = np.random.default_rng(31)
    for d, n_x, n_t, dt in ((1, 16, 257, 2.0**-12), (2, 8, 129, 2.0**-10), (2, 16, 65, 2.0**-11)):
        f = Field(np.cumsum(rng.standard_normal((n_t,) + (n_x,) * d), axis=0), dt=dt, t_start=0.375)
        s = hoelder._row_stride(n_t, n_x, dt)
        assert s > 1
        full = centered_gradient(f)
        kept = centered_gradient(Field(f.values[::s], dt=s * dt))
        assert kept.tobytes() == full[::s].tobytes()
        want = unpruned_c1alpha(f, full, 0.3)  # the dyadic part on every row
        assert _same_bits(c1alpha_seminorm(f, 0.3), want)


def whole_field_temporal_sup(w, alpha):
    """The temporal quotient as one scan over every site: the test oracle of the blocked scan.

    One contiguous series copy of the whole field, one bound table and one
    scratch buffer of the same size, and the lag loop over all sites at once.
    """
    expo = (1.0 + alpha) / 2.0
    n_t = w.n_t
    series = np.ascontiguousarray(w.values.reshape(n_t, -1).T)
    n_sites = series.shape[0]
    levels = max(n_t.bit_length() - 1, 0)
    bounds = np.empty((levels + 1, n_sites))
    mx = mn = series
    for k in range(1, levels + 1):
        h = 1 << (k - 1)
        mx = np.maximum(mx[:, :-h], mx[:, h:])
        mn = np.minimum(mn[:, :-h], mn[:, h:])
        np.max(mx - mn, axis=1, out=bounds[k - 1])
    bounds[levels] = np.ptp(series, axis=1)
    widest = bounds.max(axis=1).tolist()
    buf = np.empty(series.size)
    temporal = 0.0
    for lag in range(1, n_t):
        denom = (lag * w.dt) ** expo
        row = min(lag.bit_length() - 1, levels)
        if widest[row] / denom <= temporal:
            continue
        sites = np.flatnonzero(~(bounds[row] / denom <= temporal))
        k, span = sites.size, n_t - lag
        if k * (span + n_t) <= buf.size:
            rows = np.take(series, sites, axis=0, out=buf[buf.size - k * n_t :].reshape(k, n_t), mode="clip")
        else:
            rows, k = series, n_sites
        diff = np.subtract(rows[:, lag:], rows[:, :-lag], out=buf[: k * span].reshape(k, span))
        m = float(np.abs(diff, out=diff).max())
        if m != m:
            raise hoelder._nan_error(w.values)
        temporal = max(temporal, m / denom)
    return temporal


# (d, n_x): 1, 127, 128, 129 and 1024 sites, and d = 2, 3 grids on and across
# the edges of 128-site blocks (the default budget makes 63-site blocks at n_t = 1025)
_BLOCK_GRIDS = [(1, 1), (2, 1), (3, 1), (1, 127), (1, 128), (1, 129), (1, 1024), (2, 32), (2, 12), (3, 5), (3, 6)]


def _blocked_oracle_fields(rng, d, n_x, n_t):
    shape = (n_t,) + (n_x,) * d
    yield "random", rng.standard_normal(shape)
    trend = np.sin(np.linspace(0.0, 6.0, n_t)).reshape((n_t,) + (1,) * d)
    yield "trend", 5.0 * trend + 0.1 * rng.standard_normal(shape)
    hot = 1e-3 * rng.standard_normal(shape)
    hot.reshape(n_t, -1)[:, -1] += np.linspace(0.0, 5.0, n_t)  # the hot site sits in the last block
    yield "hot_last", hot
    yield "constant", np.full(shape, -1.5)
    yield "tied", rng.integers(0, 3, shape).astype(float)  # equal maxima in every block


# the long record runs on the d = 1 grids and the d = 2 grid of 1024 sites
_BLOCK_CASES = [
    (d, n_x, n_t) for d, n_x in _BLOCK_GRIDS for n_t in (1, 2, 3, 17, 1025) if n_t < 1025 or n_x in (1, 127, 128, 129, 1024, 32)
]


@pytest.mark.parametrize("d, n_x, n_t", _BLOCK_CASES)
def test_blocked_temporal_sup_matches_whole_field_oracle(monkeypatch, d, n_x, n_t):
    rng = np.random.default_rng(1000 * d + n_x + n_t)
    for kind, vals in _blocked_oracle_fields(rng, d, n_x, n_t):
        f = Field(vals, dt=1 / 1024)
        want = {alpha: whole_field_temporal_sup(f, alpha).hex() for alpha in (0.3, 0.7)}
        # the default budget, then 128-site blocks (one site's series is a block row)
        for budget in (spectral_noise._BLOCK_BYTES, 128 * 8 * n_t):
            monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", budget)
            for alpha in (0.3, 0.7):
                assert hoelder._temporal_sup(f, alpha).hex() == want[alpha], (kind, alpha, budget)


@pytest.mark.parametrize("d, n_x", [(1, 129), (2, 32), (3, 6)])
def test_blocked_temporal_sup_nan_raises_the_oracle_text(monkeypatch, d, n_x):
    monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", 128 * 8 * 17)  # 128-site blocks
    rng = np.random.default_rng(60 + d)
    for site in (0, n_x**d - 1):
        vals = rng.standard_normal((17,) + (n_x,) * d)
        vals.reshape(17, -1)[9, site] = np.nan
        f = Field(vals, dt=1 / 64)
        with pytest.raises(ValueError) as want:
            whole_field_temporal_sup(f, 0.3)
        with pytest.raises(ValueError) as got:
            hoelder._temporal_sup(f, 0.3)
        assert str(got.value) == str(want.value)
