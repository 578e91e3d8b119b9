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
from dataclasses import replace

import numpy as np

from .config import ConfigError, ExperimentConfig, config_hash, parse_config, serialize
from .hoelder import HoelderReport, c1alpha_seminorm, centered_gradient, seminorm_dyadic
from .mc_harness import CampaignFailure, covariance_check, run_campaign
from .nonlinearity import builtin, verify_ellipticity
from .solver import GRAD_V_NEGATED, SolverConfig, solve
from .spectral_noise import (
    CovarianceSpec,
    Field,
    evaluate_field,
    read_qspd,
    sample_mode_states,
    write_qspd,
)


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
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        raise _CliError(1, "validation", exc.violations)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
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


def _noise_path(cfg: ExperimentConfig):
    spec = CovarianceSpec(cfg.d, cfg.s, cfg.kmax)
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    return sample_mode_states(spec, times, cfg.seed, realization=0)


def _cmd_sample_noise(cfg: ExperimentConfig, args) -> dict:
    path = _noise_path(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    files = []
    v = evaluate_field(path, cfg.n_x, mode="value")
    fp = os.path.join(cfg.out_dir, "v.qspd")
    write_qspd(fp, v)
    files.append(fp)
    for a in range(cfg.d):
        g = evaluate_field(path, cfg.n_x, mode=("gradient", a))
        fp = os.path.join(cfg.out_dir, f"grad_v_{a}.qspd")
        write_qspd(fp, g)
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
    nl = builtin(cfg.nl_kind, cfg.nl_lambda)
    try:
        scfg = SolverConfig(cfg.d, cfg.n_x, cfg.dt, cfg.t_end, nl, cfg.theta)
    except ValueError as exc:
        raise _CliError(1, "validation", [f"solver: {exc}"])
    j_source = {"zero": None, "grad_v_negated": GRAD_V_NEGATED}.get(cfg.j_mode)
    if cfg.j_mode == "file":
        j_source = _read_j_components(cfg)
    path = _noise_path(cfg)
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


def _cmd_mc(cfg: ExperimentConfig, args) -> dict:
    if cfg.j_mode == "file":
        raise _CliError(1, "validation", ["j_mode: campaigns support zero and grad_v_negated only"])
    workers = 1 if args.deterministic else max(1, args.workers)
    try:
        stats = run_campaign(cfg, workers=workers)
    except CampaignFailure as exc:
        raise _CliError(3, "gate", [str(exc)])
    os.makedirs(cfg.out_dir, exist_ok=True)
    cp = os.path.join(cfg.out_dir, "mc_records.csv")
    with open(cp, "w") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} seed={cfg.seed}\n")
        fh.write("seed,grad_v_alpha,grad_u_alpha,w_c1alpha,wall_time\n")
        for rec in stats.records:
            wall = 0.0 if args.deterministic else rec.wall_time
            cells = [
                str(rec.seed),
                f"{rec.grad_v_alpha:.17g}",
                "" if rec.grad_u_alpha is None else f"{rec.grad_u_alpha:.17g}",
                "" if rec.w_c1alpha is None else f"{rec.w_c1alpha:.17g}",
                f"{wall:.17g}",
            ]
            fh.write(",".join(cells) + "\n")
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
