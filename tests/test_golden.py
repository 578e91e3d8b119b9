"""Golden outputs: sha256 digests of small seeded sampler artifacts.

The rerun tests elsewhere compare a run with a second run, so a change
that moves every draw the same way passes them.  These digests pin the
actual values.  A digest may change only together with a CHANGES.md
entry that says why the outputs moved.
"""

import hashlib
import json

import numpy as np
import pytest

from qspde.mc_harness import increment_scaling_fit, regularity_gap_study
from qspde.spectral_noise import CovarianceSpec, sample_mode_states, sample_mode_states_strided


def _digest_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<c16").tobytes()).hexdigest()


def _digest_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _uniform_interior():
    spec = CovarianceSpec(1, 2.0, 7)
    return sample_mode_states(spec, np.arange(1, 17) / 16, seed=2017, realization=3).coeffs


def _nonuniform_across_one():
    spec = CovarianceSpec(1, 2.0, 7)
    times = np.array([-0.25, 0.0, 0.1, 0.35, 0.9, 1.0, 1.3, 2.0])
    return sample_mode_states(spec, times, seed=2017, realization=1).coeffs


def _uniform_d2():
    spec = CovarianceSpec(2, 3.0, 3)
    return sample_mode_states(spec, np.linspace(0.0, 1.0, 9), seed=11).coeffs


def _strided_4():
    spec = CovarianceSpec(1, 2.0, 5)
    return sample_mode_states_strided(spec, 1 / 64, 64, 4, seed=77, realization=5).coeffs


# (builder, sha256 of the coefficient bytes)
CASES = {
    "uniform_interior": (
        _uniform_interior,
        "9d31018d1c4d6c9940ba42ff1fba671e24bd355af9acaf253cb9f90f1dc9e8a9",
    ),
    "nonuniform_across_one": (
        _nonuniform_across_one,
        "bf785bd588ebd92cb15c443860f84a542df614232a013f938539b360bf63bb65",
    ),
    "uniform_d2": (
        _uniform_d2,
        "327a7b7564f57eea4a1e5665d7c8cbb68af9e0cec75f1505195ccde6a30e2f7b",
    ),
    "strided_4": (
        _strided_4,
        "8053cb1f9c7ed36039e7b266e908030394f216993c95180798bbd437d8ff5233",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_noise_coeffs(name):
    build, expected = CASES[name]
    assert _digest_array(build()) == expected


def test_golden_increment_scaling_fit():
    # kmax = 63 gives n_x = 128, so the spatial lags start at 2^-7
    fit = increment_scaling_fit(
        CovarianceSpec(1, 1.5, 63), N=3, seed=2017, spatial_lags=2.0 ** np.arange(-7, -2)
    )
    expected = "2a4964d3c168a7de1450c23cec6096c857159087d8bf88f77c5e4af99add4a6c"
    assert _digest_json(fit.to_dict()) == expected


def test_golden_gap_study():
    study = regularity_gap_study(seed=7, s=2.0, kmax=3, alpha=0.3, levels=((8, 4), (16, 16)))
    expected = "4d2eb590e02b8514394cd76465383745c70dc6081415e062552bc8f6435d2e40"
    assert _digest_json(study.to_dict()) == expected
