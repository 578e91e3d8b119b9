"""Config schema and CLI contract tests.

The CLI is exercised in-process through cli.main(argv) so stdout and exit
codes can be asserted cheaply; one subprocess test covers the installed
console script.
"""

import json
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspde import cli, config, hoelder, solver, spectral_noise
from qspde.config import ConfigError, ExperimentConfig, config_hash, parse_config, serialize
from qspde.hoelder import c1alpha_seminorm, centered_gradient, seminorm_dyadic
from qspde.mc_harness import _noise_path
from qspde.nonlinearity import builtin
from qspde.solver import SolverConfig, solve
from qspde.spectral_noise import CovarianceSpec, Field, make_mode_set, read_qspd, write_qspd

BASE = {
    "d": "1",
    "s": "2.0",
    "kmax": "3",
    "n_x": "8",
    "dt": "0.0625",
    "t_end": "1.0",
    "alpha": "0.3",
    "nonlinearity": "tanh_perturbed",
    "lambda": "0.5",
    "j_mode": "zero",
    "seed": "101",
    "n_realizations": "12",
}


def config_text(**overrides):
    kv = dict(BASE)
    for k, v in overrides.items():
        if v is None:
            kv.pop(k, None)
        else:
            kv[k] = str(v)
    return "".join(f"{k} = {v}\n" for k, v in kv.items())


def write_cfg(tmp_path, name="exp.cfg", **overrides):
    p = tmp_path / name
    p.write_text(config_text(**overrides))
    return p


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return rc, json.loads(out)


# ---------------------------------------------------------------------------
# config schema


def test_parse_reports_every_violation_at_once():
    text = config_text(
        d="2",
        s="2.0",  # not trace class for d = 2
        kmax="0",
        n_x="3",  # not a power of two
        dt="0.3",  # 1.0/0.3 is not integral
        nonlinearity="cubic",
        **{"lambda": "1.5"},
        j_mode="maybe",
        seed="-1",
        n_realizations="0",
    ) + "bogus = 7\nnot a key value line\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    v = "\n".join(exc.value.violations)
    assert len(exc.value.violations) >= 9
    for needle in (
        "trace class",
        "kmax",
        "power of two",
        "integer multiple",
        "cubic",
        "lambda",
        "j_mode",
        "seed",
        "n_realizations",
        "bogus",
        "key = value",
    ):
        assert needle in v, needle


def test_parse_trace_class_citation_alone():
    with pytest.raises(ConfigError) as exc:
        parse_config(config_text(s="1.0"))
    assert len(exc.value.violations) == 1
    assert "trace class" in exc.value.violations[0]


def test_parse_alpha_window_depends_on_s_minus_d():
    with pytest.raises(ConfigError) as exc:
        parse_config(config_text(alpha="0.6"))  # cap is (s-d)/2 = 0.5
    assert "admissible exponents" in exc.value.violations[0]
    # widening s raises the cap
    parse_config(config_text(s="2.5", alpha="0.6"))


def test_parse_duplicate_and_missing_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config(config_text(seed=None) + "d = 1\n")
    v = "\n".join(exc.value.violations)
    assert "duplicate" in v and "seed: required key missing" in v


def test_parse_cfl_only_checked_for_scheduled_solves():
    # dt = 1/16 is far above the diffusion bound for n_x = 8
    parse_config(config_text())  # noise-only: accepted
    with pytest.raises(ConfigError) as exc:
        parse_config(config_text(mc_solve="true"))
    assert "stability bound" in "\n".join(exc.value.violations)


def test_parse_j_file_coupling():
    with pytest.raises(ConfigError) as exc:
        parse_config(config_text(j_mode="file"))
    assert "j_file" in exc.value.violations[0]
    with pytest.raises(ConfigError) as exc:
        parse_config(config_text(j_file="j0.qspd"))  # j_mode is still zero
    assert "j_file" in exc.value.violations[0]


# (config text, every violation in the order parse_config reports it)
VIOLATION_CASES = {
    "many_rules": (
        config_text(
            d="2", s="2.0", kmax="0", n_x="3", dt="0.3", nonlinearity="cubic",
            **{"lambda": "1.5"}, j_mode="maybe", seed="-1", n_realizations="0",
        ) + "bogus = 7\nnot a key value line\n",
        [
            "line 14: expected 'key = value', got 'not a key value line'",
            "bogus: unknown key",
            "s: noise covariance is trace class only for s > d, got s = 2 with d = 2",
            "kmax: must be >= 1, got 0",
            "dt: t_end must be an integer multiple of dt, got t_end/dt = 3.3333333333333335",
            "nonlinearity: must be one of identity, tanh_perturbed, got 'cubic'",
            "lambda: ellipticity constant must lie in (0, 1], got 1.5",
            "j_mode: must be one of zero, grad_v_negated, file, got 'maybe'",
            "seed: must be >= 0, got -1",
            "n_realizations: must be >= 1, got 0",
            "n_x: dyadic norm estimation needs a power of two, got 3",
        ],
    ),
    "types_duplicate_missing": (
        config_text(
            kmax="three", dt="fast", alpha="0.1, x", seed=None, theta="half",
            mc_solve="yes", save_every="2.5",
        ) + "n_x = 16\n",
        [
            "line 15: duplicate key 'n_x'",
            "seed: required key missing",
            "kmax: expected an integer, got 'three'",
            "dt: expected a real, got 'fast'",
            "alpha: expected a comma-separated list of reals, got '0.1, x'",
            "theta: expected a real, got 'half'",
            "save_every: expected an integer, got '2.5'",
            "mc_solve: expected true or false, got 'yes'",
        ],
    ),
    "cross_rules": (
        config_text(
            j_mode="file", n_x="16", save_every="3", alpha="0.2, 0.7",
            mc_solve="true", dt="0.03125", t_end="0.5",
        ),
        [
            "alpha: admissible exponents lie in (0, min((s-d)/2, 1)) = (0, 0.5), got 0.69999999999999996",
            "j_file: required when j_mode = file",
            "save_every: must divide n_steps = 16, got 3",
            "dt: violates the diffusion stability bound theta*dx^2/(2d) = 0.0009765625, got 0.03125",
        ],
    ),
    "range_rules": (
        config_text(d="0", n_x="6", dt="0", t_end="-1", alpha="", theta="0", save_every="0"),
        [
            "d: must be >= 1, got 0",
            "n_x: must be >= 2*kmax+2 = 8 for alias-free evaluation, got 6",
            "dt: must be > 0, got 0",
            "t_end: must be > 0, got -1",
            "alpha: needs at least one value",
            "theta: stability fraction must lie in (0, 1], got 0",
            "save_every: must be >= 1, got 0",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(VIOLATION_CASES))
def test_parse_violations_pinned(name):
    text, expected = VIOLATION_CASES[name]
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.violations == expected


def test_rules_read_only_experiment_config_fields():
    # a misspelled field is never held, so its rule would silently never run
    names = {f.name for f in fields(ExperimentConfig)}
    for read, _ in config._RULES:
        assert set(read) <= names, read


# at n_x = 8 the stability bound is dt <= 2^-8, so this config can be solved
SOLVABLE = {"dt": 2.0**-8, "t_end": 2.0**-4}

# (config overrides, the constructor or guard that holds the same values)
PARITY_CASES = {
    "theta": ({"theta": 1.5}, lambda: SolverConfig(1, 8, 2.0**-8, 2.0**-4, builtin("identity"), theta=1.5)),
    "lambda": ({"lambda": 1.5}, lambda: builtin("tanh_perturbed", 1.5)),
    "s_at_d": ({"s": 1.0}, lambda: CovarianceSpec(1, 1.0, 3)),
    "kmax": ({"kmax": 0}, lambda: make_mode_set(1, 0)),
    "cfl_dt": ({"mc_solve": "true"}, lambda: SolverConfig(1, 8, 0.0625, 1.0, builtin("identity"))),
    "save_every": (
        dict(SOLVABLE, save_every=3),
        lambda: solve(
            SolverConfig(1, 8, 2.0**-8, 2.0**-4, builtin("identity")),
            _noise_path(parse_config(config_text(**SOLVABLE)), 0),
            save_every=3,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_constructors_raise_the_first_parse_violation(name):
    overrides, build = PARITY_CASES[name]
    with pytest.raises(ConfigError) as parsed:
        parse_config(config_text(**overrides))
    with pytest.raises(ValueError) as built:
        build()
    assert str(built.value) == parsed.value.violations[0]


def test_serialize_pinned_with_every_optional_key():
    text = config_text(
        dt="0.001953125", t_end="0.25", j_mode="file", j_file="j0.qspd", out_dir="runs/a",
        theta="0.75", save_every="4", mc_solve="true", **{"lambda": "0.25"},
    )
    assert serialize(parse_config(text)) == (
        "d = 1\ns = 2\nkmax = 3\nn_x = 8\ndt = 0.001953125\nt_end = 0.25\n"
        "alpha = 0.29999999999999999\nnonlinearity = tanh_perturbed\nlambda = 0.25\n"
        "j_mode = file\nj_file = j0.qspd\nseed = 101\nn_realizations = 12\n"
        "out_dir = runs/a\ntheta = 0.75\nsave_every = 4\nmc_solve = true\n"
    )


def test_python_defaults_equal_parsed_defaults():
    built = ExperimentConfig(
        d=1, s=2.0, kmax=3, n_x=8, dt=0.0625, t_end=1.0, alphas=(0.3,),
        nl_kind="tanh_perturbed", j_mode="zero", seed=101, n_realizations=12,
    )
    assert built == parse_config(config_text(**{"lambda": None}))


def test_serialize_parse_idempotent():
    cfg = parse_config(config_text())
    text = serialize(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize(again) == text
    assert config_hash(again) == config_hash(cfg)


def test_config_hash_tracks_content():
    a = parse_config(config_text())
    b = parse_config(config_text(seed="102"))
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 16


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n_real=st.integers(1, 10**6),
    lam=st.floats(0.01, 1.0),
    alpha=st.floats(0.01, 0.49),
)
def test_config_round_trip_property(seed, n_real, lam, alpha):
    text = config_text(
        seed=seed, n_realizations=n_real, alpha=repr(alpha), **{"lambda": repr(lam)}
    )
    cfg = parse_config(text)
    assert parse_config(serialize(cfg)) == cfg


# ---------------------------------------------------------------------------
# exit codes


def test_cli_sample_noise_success(tmp_path, capsys):
    cfgp = write_cfg(tmp_path)
    out = tmp_path / "run"
    rc, summary = run_cli(capsys, ["sample-noise", "--config", str(cfgp), "--out", str(out)])
    assert rc == 0
    assert (out / "v.qspd").exists() and (out / "grad_v_0.qspd").exists()
    meta = json.loads((out / "sample_noise_meta.json").read_text())
    assert meta["command"] == "sample-noise"
    assert meta["config_hash"] == summary["config_hash"]
    assert meta["seed"] == 101
    v = read_qspd(out / "v.qspd")
    assert v.values.shape == (17, 8)


def test_cli_missing_config_is_validation_error(tmp_path, capsys):
    rc, err = run_cli(capsys, ["sample-noise", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert err["error"]["exit"] == 1
    assert err["error"]["type"] == "validation"


def test_cli_bad_config_lists_violations(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, s="1.0", seed="-4")
    rc, err = run_cli(capsys, ["sample-noise", "--config", str(cfgp)])
    assert rc == 1
    msgs = "\n".join(err["error"]["messages"])
    assert "trace class" in msgs and "seed" in msgs


@pytest.mark.parametrize("t_end", ["inf", "1e308"])
def test_cli_t_end_without_finite_step_count_is_validation_error(tmp_path, capsys, t_end):
    # t_end/dt overflows to inf, which has no integer step count
    cfgp = write_cfg(tmp_path, t_end=t_end)
    rc, err = run_cli(capsys, ["sample-noise", "--config", str(cfgp), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert err["error"]["type"] == "validation"
    assert err["error"]["messages"] == ["t_end: must be a finite multiple of dt, got t_end/dt = inf"]


def test_cli_solve_reports_the_stability_bound_as_parse_config_does(tmp_path, capsys):
    # BASE schedules no solve, so it parses although dt = 1/16 breaks the n_x = 8 bound
    cfgp = write_cfg(tmp_path)
    rc, err = run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert err["error"]["type"] == "validation"
    expected = ["dt: violates the diffusion stability bound theta*dx^2/(2d) = 0.00390625, got 0.0625"]
    assert err["error"]["messages"] == expected
    with pytest.raises(ConfigError) as exc:
        parse_config(config_text(mc_solve="true"))
    assert exc.value.violations == expected


def test_cli_usage_error(tmp_path, capsys):
    rc, err = run_cli(capsys, ["frobnicate", "--config", "x"])
    assert rc == 1
    assert err["error"]["type"] == "usage"


def test_cli_runtime_error_is_exit_2(tmp_path, capsys):
    cfgp = write_cfg(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    rc, err = run_cli(
        capsys, ["sample-noise", "--config", str(cfgp), "--out", str(blocker / "sub")]
    )
    assert rc == 2
    assert err["error"]["type"] == "runtime"


def test_cli_gate_failure_is_exit_3(tmp_path, capsys, monkeypatch):
    class FakeCheck:
        passed = False
        ratio = np.array([9.0])

        def to_dict(self):
            return {"passed": False, "ratio": [9.0]}

    monkeypatch.setattr(cli, "covariance_check", lambda *a, **k: FakeCheck())
    cfgp = write_cfg(tmp_path)
    out = tmp_path / "run"
    rc, err = run_cli(capsys, ["verify-covariance", "--config", str(cfgp), "--out", str(out)])
    assert rc == 3
    assert err["error"]["type"] == "gate"
    report = json.loads((out / "covariance_report.json").read_text())
    assert report["gate"] == "FAIL"


# ---------------------------------------------------------------------------
# subcommand behaviour


def test_cli_sample_noise_reruns_byte_identical(tmp_path, capsys):
    cfgp = write_cfg(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["sample-noise", "--config", str(cfgp), "--out", str(out)]) == 0
    capsys.readouterr()
    names = ["v.qspd", "grad_v_0.qspd", "sample_noise_meta.json"]
    snapshot = {n: (out / n).read_bytes() for n in names}
    assert cli.main(["sample-noise", "--config", str(cfgp), "--out", str(out)]) == 0
    capsys.readouterr()
    for n in names:
        assert (out / n).read_bytes() == snapshot[n], n


def test_cli_seed_override_changes_hash_and_draws(tmp_path, capsys):
    cfgp = write_cfg(tmp_path)
    rc1, s1 = run_cli(capsys, ["sample-noise", "--config", str(cfgp), "--out", str(tmp_path / "a")])
    rc2, s2 = run_cli(
        capsys,
        ["sample-noise", "--config", str(cfgp), "--seed", "999", "--out", str(tmp_path / "b")],
    )
    assert rc1 == rc2 == 0
    assert s1["config_hash"] != s2["config_hash"]
    assert s2["seed"] == 999
    va = read_qspd(tmp_path / "a" / "v.qspd")
    vb = read_qspd(tmp_path / "b" / "v.qspd")
    assert not np.array_equal(va.values, vb.values)


@pytest.mark.parametrize(
    "command", ["sample-noise", "solve", "norms", "mc", "verify-covariance", "verify-ellipticity"]
)
def test_cli_seed_override_is_validated(tmp_path, capsys, command):
    cfgp = write_cfg(tmp_path)
    out = tmp_path / "run"
    rc, err = run_cli(capsys, [command, "--config", str(cfgp), "--seed", "-3", "--out", str(out)])
    assert rc == 1
    assert err["error"]["type"] == "validation"
    assert err["error"]["messages"] == ["seed: must be >= 0, got -3"]
    assert not out.exists()


SOLVE_OVERRIDES = dict(dt="0.00390625", t_end="0.25", save_every="4", j_mode="grad_v_negated")


def test_cli_solve_then_norms_thin_shell(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, **SOLVE_OVERRIDES)
    out = tmp_path / "run"
    rc, summary = run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(out)])
    assert rc == 0
    assert abs(summary["mean_drift_rate"]) <= 1e-10
    for n in ("u.qspd", "w.qspd", "v.qspd", "solve_meta.json"):
        assert (out / n).exists()
    w = read_qspd(out / "w.qspd")
    v = read_qspd(out / "v.qspd")
    assert np.array_equal(read_qspd(out / "u.qspd").values, w.values + v.values)
    assert w.dt == 0.00390625 * 4

    rc, summary = run_cli(capsys, ["norms", "--config", str(cfgp), "--out", str(out)])
    assert rc == 0
    gw = centered_gradient(w)
    gv = centered_gradient(v)
    expect = {
        "grad_v[0]": seminorm_dyadic(Field(gv[:, 0], dt=w.dt), 0.3).theta,
        "grad_u[0]": seminorm_dyadic(Field(gw[:, 0] + gv[:, 0], dt=w.dt), 0.3).theta,
        "w_c1alpha": c1alpha_seminorm(w, 0.3),
    }
    assert summary["values"] == [expect]

    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=") and "seed=101" in lines[0]
    assert lines[1] == "quantity,alpha,naive,theta,t,x,t_prime,x_prime"
    assert len(lines) == 2 + 3


def test_cli_norms_multi_alpha_rows_match_single_alpha_runs(tmp_path, capsys):
    out = tmp_path / "run"
    cfgp = write_cfg(tmp_path, **SOLVE_OVERRIDES)
    assert run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(out)])[0] == 0

    def norms_rows(alpha):
        p = write_cfg(tmp_path, name=f"norms_{alpha}.cfg", alpha=alpha, **SOLVE_OVERRIDES)
        rc, summary = run_cli(capsys, ["norms", "--config", str(p), "--out", str(out)])
        assert rc == 0
        return (out / "norms.csv").read_text().splitlines()[2:], summary["values"]

    both, values = norms_rows("0.2, 0.3")
    assert len(both) == 2 * 3
    # the summary keeps one {quantity: theta} map per alpha, in config order
    assert (both[:3], values[:1]) == norms_rows("0.2")
    assert (both[3:], values[1:]) == norms_rows("0.3")


def test_cli_norms_without_solve_outputs(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, **SOLVE_OVERRIDES)
    rc, err = run_cli(capsys, ["norms", "--config", str(cfgp), "--out", str(tmp_path / "empty")])
    assert rc == 1
    assert "run solve first" in "\n".join(err["error"]["messages"])


@pytest.mark.parametrize("name", ["w", "v"])
def test_cli_norms_rejects_non_finite_input(tmp_path, capsys, name):
    cfgp = write_cfg(tmp_path, **SOLVE_OVERRIDES)
    out = tmp_path / "run"
    assert run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(out)])[0] == 0
    fp = out / f"{name}.qspd"
    f = read_qspd(fp)
    vals = f.values.copy()
    vals[5, 3] = np.nan
    vals[7, 1] = np.inf  # later in time: the first bad sample is named
    write_qspd(fp, Field(vals, dt=f.dt, t_start=f.t_start))
    rc, err = run_cli(capsys, ["norms", "--config", str(cfgp), "--out", str(out)])
    assert rc == 1
    msg = "\n".join(err["error"]["messages"])
    assert f"{name}.qspd" in msg and "time index 5" in msg and "node (3,)" in msg
    assert not (out / "norms.csv").exists()


def _halve_rows(f):
    return Field(f.values[: f.n_t // 2 + 1], dt=f.dt, t_start=f.t_start)


@pytest.mark.parametrize(
    "change_v, change_w, key",
    [
        (_halve_rows, None, "shape"),
        (lambda f: Field(f.values, dt=np.nan, t_start=f.t_start), None, "dt"),
        (lambda f: Field(f.values, dt=0.0, t_start=f.t_start), None, "dt"),
        (lambda f: Field(f.values, dt=2 * f.dt, t_start=f.t_start), None, "dt"),
        (lambda f: Field(f.values, dt=f.dt, t_start=0.5), None, "t_start"),
        # one grid, but a step no estimator can scale by
        (lambda f: Field(f.values, dt=0.0), lambda f: Field(f.values, dt=0.0), "dt must be finite and > 0"),
    ],
    ids=["rows", "dt_nan", "dt_zero", "dt_doubled", "t_start", "both_dt_zero"],
)
def test_cli_norms_rejects_fields_off_one_grid(tmp_path, capsys, change_v, change_w, key):
    cfgp = write_cfg(tmp_path, **SOLVE_OVERRIDES)
    out = tmp_path / "run"
    assert run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(out)])[0] == 0
    for name, change in (("v", change_v), ("w", change_w)):
        if change is not None:
            write_qspd(out / f"{name}.qspd", change(read_qspd(out / f"{name}.qspd")))
    rc, err = run_cli(capsys, ["norms", "--config", str(cfgp), "--out", str(out)])
    assert (rc, err["error"]["type"]) == (1, "validation")
    (msg,) = err["error"]["messages"]
    assert f"{out / 'w.qspd'} and {out / 'v.qspd'}" in msg and key in msg
    assert not (out / "norms.csv").exists()


@pytest.mark.parametrize(
    "overrides, mismatch",
    [
        (dict(d="2", s="3.0"), "d 1 in the file, 2 in the config"),
        (dict(n_x="16", dt="0.0009765625", seed="9"), "n_x 8 in the file, 16 in the config"),
        (dict(save_every="2"), "n_t 17 in the file, 33 in the config"),
        (dict(dt="0.0078125", t_end="0.5"), "dt 0.015625 in the file, 0.03125 in the config"),
    ],
    ids=["d", "n_x", "n_t", "dt"],
)
def test_cli_norms_rejects_fields_off_the_config_grid(tmp_path, capsys, overrides, mismatch):
    out = tmp_path / "run"
    cfgp = write_cfg(tmp_path, **SOLVE_OVERRIDES)
    assert run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(out)])[0] == 0
    other = write_cfg(tmp_path, name="other.cfg", **{**SOLVE_OVERRIDES, **overrides})
    rc, err = run_cli(capsys, ["norms", "--config", str(other), "--out", str(out)])
    assert (rc, err["error"]["type"]) == (1, "validation")
    assert err["error"]["messages"] == [f"norms: {out / 'w.qspd'} is not on the config's grid: {mismatch}"]
    assert not (out / "norms.csv").exists()


def test_cli_norms_accepts_another_config_on_the_same_grid(tmp_path, capsys):
    # half the step and twice the save stride save the same grid; the seed
    # cannot be read off the fields, so only the stamp line changes
    out = tmp_path / "run"
    cfgp = write_cfg(tmp_path, **SOLVE_OVERRIDES)
    assert run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(out)])[0] == 0
    assert run_cli(capsys, ["norms", "--config", str(cfgp), "--out", str(out)])[0] == 0
    rows = (out / "norms.csv").read_text().splitlines()
    same_grid = {**SOLVE_OVERRIDES, "dt": "0.001953125", "save_every": "8", "seed": "7"}
    other = write_cfg(tmp_path, name="other.cfg", **same_grid)
    assert run_cli(capsys, ["norms", "--config", str(other), "--out", str(out)])[0] == 0
    again = (out / "norms.csv").read_text().splitlines()
    assert again[1:] == rows[1:] and again[0] != rows[0] and "seed=7" in again[0]


# d = 2, 1025 saved rows; the dyadic estimator reads every 8th of them
MEMORY_OVERRIDES = dict(d="2", s="3.0", kmax="15", n_x="32", dt="0.0001220703125", t_end="0.125", save_every="1")
MEMORY_FIELD_BYTES = 1025 * 32 * 32 * 8


def traced_peak(capsys, argv) -> int:
    tracemalloc.start()
    try:
        rc, _ = run_cli(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak


def test_cli_sample_noise_peak_memory(tmp_path, capsys):
    # the noise coefficients (1.9 fields at kmax = 15) and one evaluated
    # field at a time, plus the transform's row blocks: 3.28 fields measured
    cfgp = write_cfg(tmp_path, **MEMORY_OVERRIDES)
    peak = traced_peak(capsys, ["sample-noise", "--config", str(cfgp), "--out", str(tmp_path / "run")])
    assert peak <= 3.5 * MEMORY_FIELD_BYTES


def test_cli_solve_peak_memory(tmp_path, capsys):
    # the noise coefficients and w; the march holds its grad v and states a
    # block of steps at a time, v is evaluated and written a block of saves
    # at a time, and u goes into w's buffer: 3.27 fields measured
    cfgp = write_cfg(tmp_path, **MEMORY_OVERRIDES)
    peak = traced_peak(capsys, ["solve", "--config", str(cfgp), "--out", str(tmp_path / "run")])
    assert peak <= 3.5 * MEMORY_FIELD_BYTES


def test_cli_norms_peak_memory(tmp_path, capsys):
    # w, one block of v and the 129 of its 1025 rows that the dyadic
    # estimator reads, and one site block of the temporal quotient's
    # scratch; the gradients come after the quotient: 1.78 fields measured
    cfgp = write_cfg(tmp_path, **MEMORY_OVERRIDES)
    out = tmp_path / "run"
    assert run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(out)])[0] == 0
    peak = traced_peak(capsys, ["norms", "--config", str(cfgp), "--out", str(out)])
    assert peak <= 2.0 * MEMORY_FIELD_BYTES


def _solve_and_norms_files(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, **SOLVE_OVERRIDES)
    out = tmp_path / "run"  # one out_dir, which the config hash covers
    for command in ("solve", "norms"):
        assert run_cli(capsys, [command, "--config", str(cfgp), "--out", str(out)])[0] == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_cli_streamed_v_is_bitwise_independent_of_block_rows(tmp_path, capsys, monkeypatch):
    # solve writes v.qspd and u.qspd, and norms reads v.qspd, a block of
    # rows at a time; 17 saves on the n_x = 8 grid fit one default block
    default = _solve_and_norms_files(tmp_path, capsys)
    for rows in (1, 3, 16):
        monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", rows * 8 * 8)
        assert _solve_and_norms_files(tmp_path, capsys) == default, rows


def test_cli_norms_names_the_first_non_finite_v_row_across_blocks(tmp_path, capsys, monkeypatch):
    cfgp = write_cfg(tmp_path, **SOLVE_OVERRIDES)
    out = tmp_path / "run"
    assert run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(out)])[0] == 0
    f = read_qspd(out / "v.qspd")
    vals = f.values.copy()
    vals[10, 2] = np.inf
    vals[13, 1] = np.nan  # a later block: the earlier sample is named
    write_qspd(out / "v.qspd", Field(vals, dt=f.dt, t_start=f.t_start))
    monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", 3 * 8 * 8)  # rows 9..11 are the fourth block
    rc, err = run_cli(capsys, ["norms", "--config", str(cfgp), "--out", str(out)])
    assert (rc, err["error"]["type"]) == (1, "validation")
    assert err["error"]["messages"] == [f"norms: {out / 'v.qspd'}: non-finite value at time index 10, node (2,)"]
    assert not (out / "norms.csv").exists()


# every blocked loop of the package, by the function that asks _block_rows for its rows
BLOCKED_LOOPS = {"sample_mode_states", "_spectral_slabs", "_march", "_cmd_solve", "_cmd_norms", "_temporal_sup"}


def _split_loops(monkeypatch):
    """The set of callers of _block_rows that got fewer rows than they hold: loops of several blocks."""
    block_rows, split = spectral_noise._block_rows, set()

    def recording(row_bytes, n):
        rows = block_rows(row_bytes, n)
        if rows < n:
            split.add(sys._getframe(1).f_code.co_name)
        return rows

    for module in (spectral_noise, solver, hoelder, cli):
        monkeypatch.setattr(module, "_block_rows", recording)
    return split


@pytest.mark.parametrize("budget", [1, 512])
def test_one_block_budget_splits_every_loop_and_keeps_every_byte(tmp_path, capsys, monkeypatch, budget):
    # a budget of one byte makes blocks of one row, and 512 bytes blocks of
    # a few rows (4 spectral rows, 8 march steps, 3 sites); sample-noise,
    # solve, norms and a solving campaign must write the default-budget bytes
    mc = dict(SOLVE_OVERRIDES, mc_solve="true", n_realizations="3")
    runs = {
        "noise": (SOLVE_OVERRIDES, [["sample-noise"]]),
        "run": (SOLVE_OVERRIDES, [["solve"], ["norms"]]),
        "mc": (mc, [["mc", "--deterministic"]]),
    }

    def outputs():
        files = {}
        for name, (overrides, commands) in runs.items():
            cfgp, out = write_cfg(tmp_path, **overrides), tmp_path / name
            for command in commands:
                assert run_cli(capsys, command + ["--config", str(cfgp), "--out", str(out)])[0] == 0, command
            files.update({f"{name}/{p.name}": p.read_bytes() for p in sorted(out.iterdir())})
        return files

    default = outputs()
    split = _split_loops(monkeypatch)
    monkeypatch.setattr(spectral_noise, "_BLOCK_BYTES", budget)
    assert outputs() == default
    assert split == BLOCKED_LOOPS


def test_cli_mc_deterministic_and_stable(tmp_path, capsys):
    cfgp = write_cfg(tmp_path)
    out = tmp_path / "run"
    rc, summary = run_cli(
        capsys, ["mc", "--config", str(cfgp), "--out", str(out), "--deterministic"]
    )
    assert rc == 0 and summary["n"] == 12
    lines = (out / "mc_records.csv").read_text().splitlines()
    assert lines[1] == "seed,grad_v_alpha,grad_u_alpha,w_c1alpha,wall_time"
    assert len(lines) == 2 + 12
    for row in lines[2:]:
        cells = row.split(",")
        assert cells[2] == "" and cells[3] == ""  # noise-only campaign
        assert cells[4] == "0"
    report = json.loads((out / "mc_report.json").read_text())
    for key in (
        "command", "config_hash", "seed", "config", "n", "alpha", "workers",
        "deterministic", "moments", "tail", "failures", "records_csv", "gates",
    ):
        assert key in report, key
    assert report["deterministic"] is True and report["workers"] == 1
    assert report["gates"] == {"failure_rate": "PASS"}

    snapshot = {n: (out / n).read_bytes() for n in ("mc_records.csv", "mc_report.json")}
    assert cli.main(["mc", "--config", str(cfgp), "--out", str(out), "--deterministic"]) == 0
    capsys.readouterr()
    for n, blob in snapshot.items():
        assert (out / n).read_bytes() == blob, n


def test_cli_mc_rejects_file_j_mode(tmp_path, capsys):
    jp = tmp_path / "j0.qspd"
    write_qspd(jp, Field(np.zeros((1, 8)), dt=1.0))
    cfgp = write_cfg(tmp_path, j_mode="file", j_file=str(jp))
    rc, err = run_cli(capsys, ["mc", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "campaigns support" in "\n".join(err["error"]["messages"])


def test_cli_solve_j_file_round_trip(tmp_path, capsys):
    # a spatially constant j divides out: same w as the zero-j wiring
    jp = tmp_path / "j0.qspd"
    write_qspd(jp, Field(np.full((1, 8), 1.25), dt=1.0))
    cfg_file = write_cfg(
        tmp_path, name="file.cfg", j_mode="file", j_file=str(jp),
        dt="0.00390625", t_end="0.25", save_every="4",
    )
    cfg_zero = write_cfg(
        tmp_path, name="zero.cfg", j_mode="zero",
        dt="0.00390625", t_end="0.25", save_every="4",
    )
    rc, _ = run_cli(capsys, ["solve", "--config", str(cfg_file), "--out", str(tmp_path / "f")])
    assert rc == 0
    rc, _ = run_cli(capsys, ["solve", "--config", str(cfg_zero), "--out", str(tmp_path / "z")])
    assert rc == 0
    wf = read_qspd(tmp_path / "f" / "w.qspd")
    wz = read_qspd(tmp_path / "z" / "w.qspd")
    assert np.allclose(wf.values, wz.values, atol=1e-12)


def test_cli_solve_j_file_component_count(tmp_path, capsys):
    jp = tmp_path / "j0.qspd"
    write_qspd(jp, Field(np.zeros((1, 8)), dt=1.0))
    cfgp = write_cfg(
        tmp_path, j_mode="file", j_file=f"{jp},{jp}",
        dt="0.00390625", t_end="0.25", save_every="4",
    )
    rc, err = run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "expected 1 component" in "\n".join(err["error"]["messages"])


def test_cli_solve_j_file_grid_mismatch(tmp_path, capsys):
    jp = tmp_path / "j0.qspd"
    write_qspd(jp, Field(np.zeros((1, 4)), dt=1.0))  # wrong n_x
    cfgp = write_cfg(
        tmp_path, j_mode="file", j_file=str(jp),
        dt="0.00390625", t_end="0.25", save_every="4",
    )
    rc, err = run_cli(capsys, ["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "single-slab" in "\n".join(err["error"]["messages"])


def test_cli_verify_covariance_passes(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, kmax="4", n_x="16", n_realizations="200")
    out = tmp_path / "run"
    rc, summary = run_cli(capsys, ["verify-covariance", "--config", str(cfgp), "--out", str(out)])
    assert rc == 0
    assert summary["gate"] == "PASS"
    assert summary["max_ratio"] <= 4.0
    report = json.loads((out / "covariance_report.json").read_text())
    assert report["gate"] == "PASS" and report["n"] == 200


def test_cli_verify_covariance_names_n_realizations(tmp_path, capsys, monkeypatch):
    # one draw has no standard error; refused before any sampling
    monkeypatch.setattr(cli, "covariance_check", lambda *a, **k: pytest.fail("sampled"))
    cfgp = write_cfg(tmp_path, n_realizations="1")
    out = tmp_path / "run"
    rc, err = run_cli(capsys, ["verify-covariance", "--config", str(cfgp), "--out", str(out)])
    assert (rc, err["error"]["type"]) == (1, "validation")
    assert err["error"]["messages"] == ["n_realizations: verify-covariance needs at least 2, got 1"]
    assert not out.exists()


def test_cli_verify_ellipticity_passes(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, n_realizations="5000")
    out = tmp_path / "run"
    rc, summary = run_cli(capsys, ["verify-ellipticity", "--config", str(cfgp), "--out", str(out)])
    assert rc == 0 and summary["gate"] == "PASS"
    report = json.loads((out / "ellipticity_report.json").read_text())
    assert report["kind"] == "tanh_perturbed"
    assert report["min_rayleigh"] >= 0.5 - 1e-12


def test_console_script_installed(tmp_path):
    cfgp = write_cfg(tmp_path)
    out = tmp_path / "run"
    proc = subprocess.run(
        ["qspde", "sample-noise", "--config", str(cfgp), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["seed"] == 101
    assert (out / "v.qspd").exists()
