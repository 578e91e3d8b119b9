"""Batch command-line front end.

Subcommands: sample-noise, solve, norms, mc, verify-covariance,
verify-ellipticity.  Each reads one config file, writes its artifacts
under out_dir, and prints a one-object JSON summary to stdout.  Exit
codes are a stable contract: 0 success/PASS, 1 validation error,
2 runtime failure, 3 a verification gate failed.  Failures print a
machine-readable error JSON instead of a summary.

Outputs carry the config hash and root seed: QSPD files get a sidecar
meta JSON (the binary format has no header slot for them), CSV files a
leading comment line, JSON reports embedded fields.  With
--deterministic the per-record wall times are written as 0 so repeated
single-worker runs are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from .config import ConfigError, ExperimentConfig, config_hash, parse_config, serialize
from .hoelder import HoelderReport, c1alpha_seminorm, centered_gradient, seminorm_dyadic
from .mc_harness import CampaignFailure, McRecord, _noise_path, _solver_setup, covariance_check, run_campaign
from .nonlinearity import builtin, verify_ellipticity
from .solver import solve
from .spectral_noise import CovarianceSpec, Field, evaluate_field, read_qspd, write_qspd


class _CliError(Exception):
    def __init__(self, code: int, kind: str, messages):
        self.code = code
        self.kind = kind
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route them through the contract
    def error(self, message):
        raise _CliError(1, "usage", [message])


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config file")
    common.add_argument("--seed", type=int, default=None, help="override the root seed")
    common.add_argument("--out", default=None, help="override out_dir")
    common.add_argument("--workers", type=int, default=1, help="campaign worker count")
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="force workers=1 and zero wall times for byte-stable outputs",
    )
    p = _Parser(prog="qspde", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("sample-noise", parents=[common], help="write v and grad v fields")
    sub.add_parser("solve", parents=[common], help="solve and write u, w, v fields")
    sub.add_parser("norms", parents=[common], help="estimate norms of solve outputs")
    sub.add_parser("mc", parents=[common], help="run the Monte Carlo campaign")
    sub.add_parser("verify-covariance", parents=[common], help="check MC covariance against the closed form")
    sub.add_parser("verify-ellipticity", parents=[common], help="check the flux ellipticity certificate")
    return p


def _load_config(args) -> ExperimentConfig:
    try:
        with open(args.config, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(1, "validation", [f"config: {exc}"])
    overrides = {k: v for k, v in (("seed", args.seed), ("out_dir", args.out)) if v is not None}
    try:
        cfg = parse_config(text)
        if overrides:  # an overridden config passes the same schema as a written one
            cfg = parse_config(serialize(replace(cfg, **overrides)))
    except ConfigError as exc:
        raise _CliError(1, "validation", exc.violations)
    return cfg


def _meta(cfg: ExperimentConfig, command: str, extra=None) -> dict:
    out = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "config": serialize(cfg),
    }
    if extra:
        out.update(extra)
    return out


def _write_json(path: str, obj: dict):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _cmd_sample_noise(cfg: ExperimentConfig, args) -> dict:
    path = _noise_path(cfg, 0)
    os.makedirs(cfg.out_dir, exist_ok=True)
    files = []
    fields = evaluate_field(path, cfg.n_x, ["value"] + [("gradient", a) for a in range(cfg.d)])
    for name, f in zip(["v"] + [f"grad_v_{a}" for a in range(cfg.d)], fields):
        fp = os.path.join(cfg.out_dir, f"{name}.qspd")
        write_qspd(fp, f)
        files.append(fp)
    meta = _meta(cfg, "sample-noise", {"files": [os.path.basename(f) for f in files]})
    mp = os.path.join(cfg.out_dir, "sample_noise_meta.json")
    _write_json(mp, meta)
    return {"written": files + [mp], "config_hash": meta["config_hash"], "seed": cfg.seed}


def _read_j_components(cfg: ExperimentConfig) -> np.ndarray:
    names = [p.strip() for p in cfg.j_file.split(",") if p.strip()]
    if len(names) != cfg.d:
        raise _CliError(1, "validation", [f"j_file: expected {cfg.d} component files, got {len(names)}"])
    comps = []
    for name in names:
        try:
            f = read_qspd(name)
        except (OSError, ValueError) as exc:
            raise _CliError(1, "validation", [f"j_file: {name}: {exc}"])
        if f.d != cfg.d or f.n_t != 1 or f.n_x != cfg.n_x:
            raise _CliError(
                1,
                "validation",
                [f"j_file: {name}: need a single-slab d={cfg.d} field on the n_x={cfg.n_x} grid"],
            )
        comps.append(f.values[0])
    return np.stack(comps, axis=0)


def _cmd_solve(cfg: ExperimentConfig, args) -> dict:
    try:
        scfg, j_source = _solver_setup(cfg)
    except ValueError as exc:
        raise _CliError(1, "validation", [f"solver: {exc}"])
    if cfg.j_mode == "file":
        j_source = _read_j_components(cfg)
    path = _noise_path(cfg, 0)
    traj = solve(scfg, path, j_source, save_every=cfg.save_every)
    os.makedirs(cfg.out_dir, exist_ok=True)
    dt_save = cfg.dt * cfg.save_every
    files = []
    for name, vals in (("u", traj.u), ("w", traj.w), ("v", traj.v)):
        fp = os.path.join(cfg.out_dir, f"{name}.qspd")
        write_qspd(fp, Field(vals, dt=dt_save))
        files.append(fp)
    meta = _meta(
        cfg,
        "solve",
        {
            "files": [os.path.basename(f) for f in files],
            "mean_drift_rate": traj.mean_drift_rate,
            "j_mode": cfg.j_mode,
        },
    )
    mp = os.path.join(cfg.out_dir, "solve_meta.json")
    _write_json(mp, meta)
    return {
        "written": files + [mp],
        "config_hash": meta["config_hash"],
        "seed": cfg.seed,
        "mean_drift_rate": traj.mean_drift_rate,
    }


def _cmd_norms(cfg: ExperimentConfig, args) -> dict:
    wp = os.path.join(cfg.out_dir, "w.qspd")
    vp = os.path.join(cfg.out_dir, "v.qspd")
    try:
        w = read_qspd(wp)
        v = read_qspd(vp)
    except (OSError, ValueError) as exc:
        raise _CliError(1, "validation", [f"norms: run solve first; {exc}"])
    for fp, f in ((wp, w), (vp, v)):
        if not np.isfinite(f.values).all():
            i_t, *node = np.argwhere(~np.isfinite(f.values))[0].tolist()
            raise _CliError(1, "validation", [f"norms: {fp}: non-finite value at time index {i_t}, node {tuple(node)}"])
    grad_w = centered_gradient(w)
    grad_v = centered_gradient(v)
    wnorms = [c1alpha_seminorm(w, grad_w, alpha) for alpha in cfg.alphas]
    grad_u = np.add(grad_w, grad_v, out=grad_w)  # grad_w is not read again
    rows = []
    for alpha, wnorm in zip(cfg.alphas, wnorms):
        for a in range(w.d):
            gv = seminorm_dyadic(Field(grad_v[:, a], dt=v.dt, t_start=v.t_start), alpha)
            gu = seminorm_dyadic(Field(grad_u[:, a], dt=w.dt, t_start=w.t_start), alpha)
            rows.append((f"grad_v[{a}]", gv))
            rows.append((f"grad_u[{a}]", gu))
        rows.append(
            (
                "w_c1alpha",
                HoelderReport(alpha=alpha, naive=None, theta=wnorm, pair=None, domain="composite"),
            )
        )
    cp = os.path.join(cfg.out_dir, "norms.csv")
    with open(cp, "w") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} seed={cfg.seed}\n")
        fh.write("quantity," + HoelderReport.csv_header() + "\n")
        for name, rep in rows:
            fh.write(f"{name},{rep.to_csv_row()}\n")
    values = {
        name: rep.theta for name, rep in rows
    }
    return {"written": [cp], "config_hash": config_hash(cfg), "seed": cfg.seed, "values": values}


def _csv_cell(value) -> str:
    """Floats with 17 significant digits, None as an empty cell."""
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _cmd_mc(cfg: ExperimentConfig, args) -> dict:
    workers = 1 if args.deterministic else max(1, args.workers)
    try:
        stats = run_campaign(cfg, workers=workers)
    except ValueError as exc:  # the config cannot drive a campaign (j_mode = file)
        raise _CliError(1, "validation", [str(exc)])
    except CampaignFailure as exc:
        raise _CliError(3, "gate", [str(exc)])
    os.makedirs(cfg.out_dir, exist_ok=True)
    cp = os.path.join(cfg.out_dir, "mc_records.csv")
    with open(cp, "w") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} seed={cfg.seed}\n")
        fh.write(",".join(f.name for f in fields(McRecord)) + "\n")
        for rec in stats.records:
            if args.deterministic:
                rec = replace(rec, wall_time=0.0)
            fh.write(",".join(map(_csv_cell, astuple(rec))) + "\n")
    report = _meta(
        cfg,
        "mc",
        {
            "n": stats.n,
            "alpha": stats.alpha,
            "workers": workers,
            "deterministic": bool(args.deterministic),
            "moments": stats.moments,
            "tail": None if stats.tail is None else stats.tail.to_dict(),
            "failures": stats.failures,
            "records_csv": os.path.basename(cp),
            "gates": {"failure_rate": "PASS"},
        },
    )
    rp = os.path.join(cfg.out_dir, "mc_report.json")
    _write_json(rp, report)
    return {"written": [cp, rp], "config_hash": report["config_hash"], "seed": cfg.seed, "n": stats.n}


def _cmd_verify_covariance(cfg: ExperimentConfig, args) -> dict:
    spec = CovarianceSpec(cfg.d, cfg.s, cfg.kmax)
    offsets = [np.zeros(cfg.d), np.concatenate([[0.125], np.zeros(cfg.d - 1)])]
    ts = (0.25, 0.5, 1.0)
    points = [
        (t, off, t2, np.zeros(cfg.d))
        for t, t2 in itertools.product(ts, ts)
        for off in offsets
    ]
    chk = covariance_check(spec, points, N=cfg.n_realizations, seed=cfg.seed)
    os.makedirs(cfg.out_dir, exist_ok=True)
    report = _meta(cfg, "verify-covariance", chk.to_dict())
    report["gate"] = "PASS" if chk.passed else "FAIL"
    rp = os.path.join(cfg.out_dir, "covariance_report.json")
    _write_json(rp, report)
    if not chk.passed:
        raise _CliError(3, "gate", [f"covariance check failed; report at {rp}"])
    return {"written": [rp], "gate": "PASS", "max_ratio": float(np.max(chk.ratio))}


def _cmd_verify_ellipticity(cfg: ExperimentConfig, args) -> dict:
    nl = builtin(cfg.nl_kind, cfg.nl_lambda)
    rep = verify_ellipticity(nl, n_samples=cfg.n_realizations, radius=8.0, seed=cfg.seed, d=cfg.d)
    os.makedirs(cfg.out_dir, exist_ok=True)
    report = _meta(cfg, "verify-ellipticity", rep.to_dict())
    report["gate"] = "PASS" if rep.passed else "FAIL"
    rp = os.path.join(cfg.out_dir, "ellipticity_report.json")
    _write_json(rp, report)
    if not rep.passed:
        raise _CliError(3, "gate", [f"ellipticity check failed; report at {rp}"])
    return {"written": [rp], "gate": "PASS"}


_COMMANDS = {
    "sample-noise": _cmd_sample_noise,
    "solve": _cmd_solve,
    "norms": _cmd_norms,
    "mc": _cmd_mc,
    "verify-covariance": _cmd_verify_covariance,
    "verify-ellipticity": _cmd_verify_ellipticity,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
        summary = _COMMANDS[args.command](cfg, args)
    except _CliError as exc:
        print(
            json.dumps(
                {"error": {"exit": exc.code, "type": exc.kind, "messages": exc.messages}},
                sort_keys=True,
            )
        )
        return exc.code
    except Exception as exc:  # runtime contract: anything unexpected is exit 2
        print(
            json.dumps(
                {"error": {"exit": 2, "type": "runtime", "messages": [f"{type(exc).__name__}: {exc}"]}},
                sort_keys=True,
            )
        )
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
