"""Flux nonlinearity tests: closed-form constants and randomized bounds."""

import numpy as np
import pytest

from qspde import nonlinearity
from qspde.nonlinearity import (
    SECH2_SLOPE_MAX,
    Nonlinearity,
    builtin,
    verify_ellipticity,
)


def test_identity_flux():
    nl = builtin("identity")
    q = np.array([3.0, -1.0])
    assert np.array_equal(nl.a(q), q)
    assert np.array_equal(nl.da(q), np.ones(2))
    assert nl.lam == 1.0 and nl.Lam == 0.0


def test_tanh_values_at_zero():
    nl = builtin("tanh_perturbed", lam=0.5)
    assert nl.a(np.zeros(3)) == pytest.approx(np.zeros(3))
    assert nl.da(np.zeros(3)) == pytest.approx(np.ones(3))  # 0.5 + 0.5*1
    assert nl.lam == 0.5


def test_tanh_flux_bitwise_matches_formula():
    # the flux works in place on its tanh array; values, shapes and the
    # input must be those of lam*q + (1-lam)*tanh(q)
    nl = builtin("tanh_perturbed", lam=0.3)
    grid = np.random.default_rng(2).standard_normal((4, 6))
    for q in (grid, grid[:, ::2], np.asarray(0.7), -1.2):
        before = np.array(q, copy=True)
        ref = 0.3 * np.asarray(q) + 0.7 * np.tanh(q)
        out = nl.a(q)
        assert np.shape(out) == np.shape(ref)
        assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()
        assert np.array_equal(q, before)


def test_sech2_slope_constant_against_grid_search():
    # brute-force max of |d/dq sech^2(q)| over a fine grid
    q = np.arange(-5.0, 5.0, 1e-4)
    slope = np.abs(-2.0 * np.tanh(q) / np.cosh(q) ** 2)
    assert abs(slope.max() - SECH2_SLOPE_MAX) < 1e-7
    nl = builtin("tanh_perturbed", lam=0.3)
    assert nl.Lam == pytest.approx((1 - 0.3) * SECH2_SLOPE_MAX, rel=1e-15)


def test_builtin_rejects_bad_lambda():
    for lam in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            builtin("tanh_perturbed", lam=lam)
    with pytest.raises(ValueError):
        builtin("no_such_flux")


def test_jacobian_matches_finite_differences():
    nl = builtin("tanh_perturbed", lam=0.4)
    rng = np.random.default_rng(1)
    q = rng.uniform(-4, 4, size=1000)
    h = 1e-6
    fd = (nl.a(q + h) - nl.a(q - h)) / (2 * h)
    assert np.max(np.abs(fd - nl.da(q)) / np.abs(nl.da(q))) <= 1e-6


def secant_coefficient(nl: Nonlinearity, q1, q2) -> np.ndarray:
    """Segment average of the Jacobian, int_0^1 DA(theta*q2 + (1-theta)*q1) dtheta.

    For a componentwise flux this average is exactly the difference
    quotient (A(q2) - A(q1)) / (q2 - q1), so no quadrature is involved
    and the [lam, 1] eigenvalue confinement carries over up to rounding.
    Where the endpoints nearly coincide the quotient would cancel
    catastrophically; those entries fall back to DA at the midpoint,
    keeping the result within about 1e-10 of the exact average.
    Returns the diagonal entries at the broadcast shape of q1 and q2.
    """
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    if not (np.all(np.isfinite(q1)) and np.all(np.isfinite(q2))):
        raise ValueError("secant_coefficient needs finite arguments")
    q1, q2 = np.broadcast_arrays(q1, q2)
    dq = q2 - q1
    near = np.abs(dq) <= 1e-6 * np.maximum(np.maximum(np.abs(q1), np.abs(q2)), 1.0)
    quot = (nl.a(q2) - nl.a(q1)) / np.where(near, 1.0, dq)
    return np.where(near, nl.da(0.5 * (q1 + q2)), quot)


def test_secant_equal_arguments_is_jacobian():
    nl = builtin("tanh_perturbed", lam=0.5)
    q = np.array([-2.0, 0.0, 0.7])
    got = secant_coefficient(nl, q, q)
    assert got == pytest.approx(nl.da(q), rel=1e-12)


def test_secant_identity_is_one():
    nl = builtin("identity")
    got = secant_coefficient(nl, np.array([1.0, 2.0]), np.array([-3.0, 5.0]))
    assert np.array_equal(got, np.ones(2))


def test_secant_symmetric_interval_closed_form():
    # int_{-a}^{a} (lam + (1-lam) sech^2) dq / (2a) = lam + (1-lam) tanh(a)/a
    nl = builtin("tanh_perturbed", lam=0.5)
    for a in (0.5, 1.0, 3.0):
        got = secant_coefficient(nl, np.array([-a]), np.array([a]))[0]
        expected = 0.5 + 0.5 * np.tanh(a) / a
        assert abs(got - expected) < 1e-10


def test_secant_confined_to_declared_interval():
    nl = builtin("tanh_perturbed", lam=0.25)
    rng = np.random.default_rng(2)
    q1 = rng.uniform(-8, 8, size=10000)
    q2 = rng.uniform(-8, 8, size=10000)
    coeff = secant_coefficient(nl, q1, q2)
    assert np.all(coeff >= 0.25 - 1e-12)
    assert np.all(coeff <= 1.0 + 1e-12)


def test_secant_rejects_nonfinite():
    nl = builtin("identity")
    with pytest.raises(ValueError):
        secant_coefficient(nl, np.array([np.nan]), np.array([0.0]))


def test_verify_identity_passes_exactly():
    rep = verify_ellipticity(builtin("identity"), 1000, 8.0, seed=0)
    assert rep.passed
    assert rep.min_rayleigh == pytest.approx(1.0, abs=1e-12)
    assert rep.max_opnorm == pytest.approx(1.0, abs=1e-12)


def test_verify_tanh_passes_large_sample():
    for lam in (0.25, 0.5, 0.9):
        rep = verify_ellipticity(builtin("tanh_perturbed", lam=lam), 100000, 8.0, seed=3)
        assert rep.passed, rep.violations
        assert rep.min_rayleigh >= lam - 1e-12
        assert rep.max_opnorm <= 1.0 + 1e-12


def test_verify_flags_overscaled_flux():
    # A(q) = 2q exceeds the normalized upper bound; reported, not raised
    bad = Nonlinearity(
        "doubled", 1.0, 0.0, lambda q: 2.0 * np.asarray(q, float),
        lambda q: 2.0 * np.ones_like(np.asarray(q, float)),
    )
    rep = verify_ellipticity(bad, 1000, 8.0, seed=4)
    assert not rep.passed
    assert rep.max_opnorm > 1.0
    assert rep.violations


def test_verify_keeps_the_first_ten_violations():
    # a declared floor of 3 fails every Rayleigh sample and the doubled
    # Jacobian every operator norm; the report keeps the first ten, all Rayleigh
    bad = Nonlinearity(
        "doubled", 3.0, 0.0, lambda q: 2.0 * np.asarray(q, float),
        lambda q: 2.0 * np.ones_like(np.asarray(q, float)),
    )
    rep = verify_ellipticity(bad, 1000, 8.0, seed=4)
    assert not rep.passed
    assert [v["check"] for v in rep.violations] == ["rayleigh"] * 10
    assert rep.to_dict()["violations"] == rep.violations


def test_verify_seed_stability():
    a = verify_ellipticity(builtin("tanh_perturbed", lam=0.5), 5000, 8.0, seed=7)
    b = verify_ellipticity(builtin("tanh_perturbed", lam=0.5), 5000, 8.0, seed=7)
    assert a.to_dict() == b.to_dict()


def test_verify_multidimensional():
    rep = verify_ellipticity(builtin("tanh_perturbed", lam=0.5), 20000, 5.0, seed=8, d=3)
    assert rep.passed


def test_verify_rejects_empty_sample():
    with pytest.raises(ValueError):
        verify_ellipticity(builtin("identity"), 0, 1.0, seed=0)


@pytest.mark.parametrize("radius, d", [(np.nan, 1), (np.inf, 1), (0.0, 1), (-8.0, 1), (8.0, 0), (8.0, 1.5)])
def test_verify_rejects_bad_radius_or_dimension(monkeypatch, radius, d):
    # radius = nan passed with min_rayleigh = nan, radius = inf passed with a
    # vacuous Lipschitz ratio of 0, and d = 0 raised ZeroDivisionError
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(nonlinearity, "_ball", refuse)
    with pytest.raises(ValueError, match="radius" if d == 1 else "^d: "):
        verify_ellipticity(builtin("tanh_perturbed", lam=0.5), 100, radius, seed=0, d=d)
