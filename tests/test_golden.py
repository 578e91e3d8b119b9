"""Golden outputs: sha256 digests of small seeded artifacts.

The rerun tests elsewhere compare a run with a second run, so a change
that moves every draw the same way passes them.  These digests pin the
actual values.  A digest may change only together with a CHANGES.md
entry that says why the outputs moved.
"""

import hashlib
import json

import numpy as np
import pytest

from qspde import cli
from qspde.hoelder import c1alpha_seminorm, seminorm_dyadic
from qspde.mc_harness import covariance_check, increment_scaling_fit, regularity_gap_study
from qspde.nonlinearity import builtin
from qspde.solver import GRAD_V_NEGATED, SolverConfig, contraction_test, solve
from qspde.spectral_noise import CovarianceSpec, Field, _spectral_slabs, sample_mode_states


def _digest_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<c16").tobytes()).hexdigest()


def _digest_real(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


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
    return sample_mode_states(spec, np.arange(65) / 64, seed=77, realization=5).coeffs[::4]


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
    # rows 0, 4, ..., 64 of the full-grid sample, signed zeros included
    "strided_4": (
        _strided_4,
        "6b0466aab9b18e2a5f935db4e61c4a0e683eda9b114b7b421abb1170524d52e9",
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


@pytest.mark.parametrize(
    "d, s, kmax, expected",
    [
        (1, 2.0, 7, "bda28647018ccc3d06c108a3e783bfc8b615b8263d73fa920def52d065689ea8"),
        (2, 3.0, 3, "448794d5cf0e71f0b6257196bb5192ea75063e1a14c43de0d6d8ad36d7173658"),
    ],
    ids=["d1", "d2"],
)
def test_golden_covariance_check(d, s, kmax, expected):
    # t = 0 rows give zero-variance points; the shifted offsets share times
    offsets = [np.zeros(d), np.concatenate([[0.125], np.zeros(d - 1)])]
    ts = (0.0, 0.5, 1.0)
    points = [(t, off, t2, np.zeros(d)) for t in ts for t2 in ts for off in offsets]
    chk = covariance_check(CovarianceSpec(d, s, kmax), points, N=40, seed=2017)
    assert _digest_json(chk.to_dict()) == expected


def test_golden_gap_study():
    study = regularity_gap_study(seed=7, s=2.0, kmax=3, alpha=0.3, levels=((8, 4), (16, 16)))
    expected = "4d2eb590e02b8514394cd76465383745c70dc6081415e062552bc8f6435d2e40"
    assert _digest_json(study.to_dict()) == expected


# ---------------------------------------------------------------------------
# solver, contraction, campaign and estimator outputs


def _solver_case(d, kmax, n_x, dt, t_end, seed):
    spec = CovarianceSpec(d, 2.0 if d == 1 else 3.0, kmax)
    cfg = SolverConfig(d, n_x, dt, t_end, builtin("tanh_perturbed", 0.5))
    path = sample_mode_states(spec, np.arange(cfg.n_steps + 1) * dt, seed=seed)
    return cfg, path


_GRAD_V_D1 = "450cb4e6f84cef2fc5e2e0d8bfbcf44d6ee0450bb7278cedb6afb52b2269e865"
_GRAD_V_D2 = "825be1f4f285e1fc20aa194c167e1c3f7699ded2047a5cb4e0f8554b010c4cfe"


@pytest.mark.parametrize(
    "d, j_source, expected, grad_v",
    [
        (1, None, "b74080340018bd71ce4769ad0dca14711454c64136c2cc870d0ccbde6f1ab531", _GRAD_V_D1),
        (1, GRAD_V_NEGATED, "99fd64205c7762f5a6b2c61766ef190d5e2396044e464ae46095a3de45a813a6", _GRAD_V_D1),
        (2, GRAD_V_NEGATED, "fce7a389151a7a033056969de39b4b83540d46d6899807a0823ca5c64d20f5e8", _GRAD_V_D2),
    ],
    ids=["d1_unforced", "d1_grad_v_negated", "d2_grad_v_negated"],
)
def test_golden_solve(d, j_source, expected, grad_v):
    # grad_v is the same noise with or without j, so the d = 1 cases share it
    if d == 1:
        cfg, path = _solver_case(1, 7, 16, 2.0**-10, 0.125, seed=2017)
    else:
        cfg, path = _solver_case(2, 3, 8, 2.0**-9, 0.0625, seed=2017)
    traj = solve(cfg, path, j_source, save_every=8)
    assert _digest_real(traj.w, traj.v) == expected
    # grad v at the saves, the rows the estimators evaluate from the path
    assert _digest_real(_spectral_slabs(path.modes, path.coeffs[::8], cfg.n_x, range(d))) == grad_v


@pytest.mark.parametrize(
    "d, j_source, expected",
    [
        (1, None, "1.5612511283791264e-17"),
        (1, GRAD_V_NEGATED, "1.1709383462843448e-17"),
        (2, GRAD_V_NEGATED, "3.0357660829594124e-18"),
    ],
    ids=["d1_unforced", "d1_grad_v_negated", "d2_grad_v_negated"],
)
def test_golden_mean_drift_rate(d, j_source, expected):
    if d == 1:
        cfg, path = _solver_case(1, 7, 16, 2.0**-10, 0.125, seed=2017)
    else:
        cfg, path = _solver_case(2, 3, 8, 2.0**-9, 0.0625, seed=2017)
    assert repr(solve(cfg, path, j_source, save_every=8).mean_drift_rate) == expected


_J_CONSTANT = np.random.default_rng(8).standard_normal((1, 16))


def _j_callable(t):
    x = np.arange(16) / 16
    return np.sin(2 * np.pi * x + 40.0 * t)[None] * (1.0 + t)


@pytest.mark.parametrize(
    "j_source, expected, drift",
    [
        (
            _J_CONSTANT,
            "f55328066ef8ed926c6af453f1ceb518b8c62407486a32f1f61843a96bc741d7",
            "2.914335439641036e-16",
        ),
        (
            _j_callable,
            "5dab1912cab8e5ae1b543f5dba4de051c94621459854cf283ab9648f3a7dd7f5",
            "5.898059818321144e-17",
        ),
    ],
    ids=["d1_constant_j", "d1_callable_j"],
)
def test_golden_solve_user_j(j_source, expected, drift):
    cfg, path = _solver_case(1, 7, 16, 2.0**-10, 0.125, seed=2017)
    traj = solve(cfg, path, j_source, save_every=8)
    assert _digest_real(traj.w, traj.v) == expected
    assert repr(traj.mean_drift_rate) == drift


def test_golden_contraction():
    cfg, path = _solver_case(1, 7, 16, 2.0**-10, 0.125, seed=2017)
    rep = contraction_test(cfg, path, GRAD_V_NEGATED, epsilon=1e-3, seed=4)
    assert _digest_real(rep.distances, rep.dissipation) == (
        "b079cb70055cb735aafb8991a78881ad86174449ed9a532ef5a957357593b2ad"
    )


def test_golden_contraction_d2():
    cfg, path = _solver_case(2, 3, 8, 2.0**-9, 0.0625, seed=2017)
    rep = contraction_test(cfg, path, GRAD_V_NEGATED, epsilon=1e-3, seed=9)
    assert _digest_real(rep.distances, rep.dissipation) == (
        "52a17adf5315238c40674c656f6f91e5a2db070315ae9c9b72a8adf718e331e2"
    )
    assert repr(rep.mean_drift_rate) == "3.469446951953614e-18"


@pytest.mark.parametrize(
    "mc_solve, expected",
    [
        ("false", "15866a67c4e36b2692f3bd60d2019d0d564119f30c4e1e9ef36e8f251bfa6acf"),
        ("true", "e930c8a5a4a5d2478234109b3646ca7a1dc799c1fd4dc4d4abd8f1f203b08688"),
    ],
    ids=["noise_only", "with_solve"],
)
def test_golden_mc_records(tmp_path, monkeypatch, capsys, mc_solve, expected):
    # a relative out_dir keeps the config hash in the csv header fixed
    monkeypatch.chdir(tmp_path)
    cfg = {
        "d": 1, "s": 2.0, "kmax": 3, "n_x": 8, "dt": 0.00390625, "t_end": 0.25,
        "save_every": 4, "alpha": 0.3, "nonlinearity": "tanh_perturbed",
        "lambda": 0.5, "j_mode": "grad_v_negated", "mc_solve": mc_solve,
        "seed": 101, "n_realizations": 3,
    }
    (tmp_path / "exp.cfg").write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert cli.main(["mc", "--config", "exp.cfg", "--out", "run", "--deterministic"]) == 0
    capsys.readouterr()
    blob = (tmp_path / "run" / "mc_records.csv").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == expected


def test_golden_seminorms():
    rng = np.random.default_rng(5)
    rows = []
    for d in (1, 2):
        f = Field(rng.standard_normal((9,) + (8,) * d), dt=1.0 / 32)
        rep = seminorm_dyadic(f, 0.3)
        rows.append([rep.to_csv_row(), repr(rep.level_R)])
        rows.append(repr(c1alpha_seminorm(f, 0.3)))
    assert _digest_json(rows) == (
        "20bf6044dba4d23a4555c0d578ca4f461afbd5fbc49ec0dc845440d3479af627"
    )
