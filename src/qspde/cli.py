"""Batch command-line front end.

Subcommands: sample-noise, solve, norms, mc, verify-covariance,
verify-ellipticity.  Each reads one config file, writes its artifacts
under out_dir, and prints a one-object JSON summary to stdout.  Exit
codes are a stable contract: 0 success/PASS, 1 validation error,
2 runtime failure, 3 a verification gate failed.  Failures print a
machine-readable error JSON instead of a summary.

Outputs carry the config hash and root seed, stamped by one of two
writers.  _write_report writes a JSON report with the command, config
hash, seed and canonical config embedded; QSPD files get such a report
as their sidecar meta JSON (the binary format has no header slot for
them).  _write_csv writes a CSV table under a leading
"# config_hash=... seed=..." line, floats with 17 significant digits.
With --deterministic the per-record wall times are written as 0 so
repeated single-worker runs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from .config import ConfigError, ExperimentConfig, _cell, config_hash, parse_config, serialize
from .hoelder import HoelderReport, _row_stride, c1alpha_seminorm, centered_gradient, seminorm_dyadic
from .mc_harness import CampaignFailure, McRecord, _noise_path, _solver_setup, covariance_check, run_campaign
from .nonlinearity import builtin, verify_ellipticity
from .solver import _keep, solve
from .spectral_noise import (
    CovarianceSpec,
    Field,
    _block_rows,
    _read_qspd_header,
    _read_qspd_rows,
    _write_qspd_rows,
    evaluate_field,
    read_qspd,
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
    overrides = {k: v for k, v in (("seed", args.seed), ("out_dir", args.out)) if v is not None}
    try:
        cfg = parse_config(text)
        if overrides:  # an overridden config passes the same schema as a written one
            cfg = parse_config(serialize(replace(cfg, **overrides)))
    except ConfigError as exc:
        raise _CliError(1, "validation", exc.violations)
    return cfg


def _out(cfg: ExperimentConfig, name: str) -> str:
    """Path of the artifact name under out_dir, which is created on first use."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _write_report(cfg: ExperimentConfig, command: str, name: str, body: dict) -> str:
    """Write body as the JSON report out_dir/name, stamped with command, config hash, seed and config."""
    report = {"command": command, "config_hash": config_hash(cfg), "seed": cfg.seed, "config": serialize(cfg)}
    report.update(body)
    path = _out(cfg, name)
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _write_csv(cfg: ExperimentConfig, name: str, columns, rows) -> str:
    """Write rows as out_dir/name under the stamp line and the header, each value as its config._cell."""
    path = _out(cfg, name)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} seed={cfg.seed}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")
    return path


def _cmd_sample_noise(cfg: ExperimentConfig, args) -> dict:
    path = _noise_path(cfg, 0)
    names = [f"{name}.qspd" for name in ["v"] + [f"grad_v_{a}" for a in range(cfg.d)]]
    written = [_out(cfg, name) for name in names]
    for fp, part in zip(written, ["v", *range(cfg.d)]):  # one field at a time: evaluated, written, dropped
        [f] = evaluate_field(path, cfg.n_x, [part])
        write_qspd(fp, f)
        del f
    written.append(_write_report(cfg, "sample-noise", "sample_noise_meta.json", {"files": names}))
    return {"written": written, "config_hash": config_hash(cfg), "seed": cfg.seed}


def _cmd_solve(cfg: ExperimentConfig, args) -> dict:
    try:
        scfg, j_source = _solver_setup(cfg)
    except ValueError as exc:
        raise _CliError(1, "validation", [str(exc)])
    traj = solve(scfg, _noise_path(cfg, 0), j_source, save_every=cfg.save_every)
    dt_save = cfg.dt * cfg.save_every
    names = ["u.qspd", "w.qspd", "v.qspd"]
    written = [_out(cfg, name) for name in names]
    w = traj.w
    write_qspd(written[1], Field(w, dt=dt_save))
    rows = _block_rows(8 * w[0].size, len(w))
    buf = np.empty((rows,) + w.shape[1:])

    def v_blocks():
        # v a block of saves at a time; once a block is written, u = w + v
        # goes into w's buffer, which is written already
        for lo in range(0, len(w), rows):
            hi = min(lo + rows, len(w))
            v = traj.v_rows(lo, hi, buf[: hi - lo])
            yield v
            np.add(w[lo:hi], v, out=w[lo:hi])

    _write_qspd_rows(written[2], w.shape, dt_save, 0.0, v_blocks())
    write_qspd(written[0], Field(w, dt=dt_save))
    meta = {"files": names, "mean_drift_rate": traj.mean_drift_rate, "j_mode": cfg.j_mode}
    written.append(_write_report(cfg, "solve", "solve_meta.json", meta))
    return {
        "written": written,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "mean_drift_rate": traj.mean_drift_rate,
    }


def _require_finite(fp: str, values: np.ndarray, t0: int = 0):
    """values, the time rows t0, t0 + 1, ... of the field in fp, must be finite."""
    if not np.isfinite(values).all():
        i_t, *node = np.argwhere(~np.isfinite(values))[0].tolist()
        msg = f"norms: {fp}: non-finite value at time index {t0 + i_t}, node {tuple(node)}"
        raise _CliError(1, "validation", [msg])


def _require_one_grid(wp: str, w: tuple, vp: str, v: tuple):
    """w and v, each (shape, dt, t_start), must be the saves of one solve, with dt finite and > 0."""
    for name, a, b in zip(("shape", "dt", "t_start"), w, v):
        if a != b:
            raise _CliError(1, "validation", [f"norms: {wp} and {vp} are not on one grid: {name} {a} against {b}"])
    if not 0.0 < w[1] < np.inf:
        raise _CliError(1, "validation", [f"norms: {wp} and {vp}: dt must be finite and > 0, got {w[1]}"])


def _require_config_grid(cfg: ExperimentConfig, wp: str, w: Field):
    """w must lie on the save grid a solve of cfg writes; a seed cannot be read off the fields."""
    n_t = cfg.n_steps // cfg.save_every + 1
    for name, want in (("d", cfg.d), ("n_x", cfg.n_x), ("n_t", n_t), ("dt", cfg.dt * cfg.save_every)):
        have = getattr(w, name)
        if have != want:
            msg = f"norms: {wp} is not on the config's grid: {name} {have} in the file, {want} in the config"
            raise _CliError(1, "validation", [msg])


def _cmd_norms(cfg: ExperimentConfig, args) -> dict:
    wp = os.path.join(cfg.out_dir, "w.qspd")
    vp = os.path.join(cfg.out_dir, "v.qspd")
    with contextlib.ExitStack() as files:
        try:
            w = read_qspd(wp)
            vfh = files.enter_context(open(vp, "rb"))
            v_shape, v_dt, v_t_start = _read_qspd_header(vfh)
        except (OSError, ValueError) as exc:
            raise _CliError(1, "validation", [f"norms: run solve first; {exc}"])
        _require_one_grid(wp, (w.values.shape, w.dt, w.t_start), vp, (v_shape, v_dt, v_t_start))
        _require_config_grid(cfg, wp, w)
        _require_finite(wp, w.values)
        # gradients only on the rows the dyadic estimator reads; v is read a
        # block at a time, and only those rows of it are kept
        s = _row_stride(w.n_t, w.n_x, w.dt)
        grid = w.values.shape[1:]
        kept = np.empty(((w.n_t - 1) // s + 1,) + grid)
        rows = _block_rows(8 * w.values[0].size, w.n_t)
        for lo in range(0, w.n_t, rows):
            block = _read_qspd_rows(vfh, grid, min(rows, w.n_t - lo))
            _require_finite(vp, block, lo)
            _keep(block, lo, s, kept)
    del block  # not read again
    wnorms = [c1alpha_seminorm(w, alpha) for alpha in cfg.alphas]
    # the gradients after the temporal quotient, so that their buffers never meet
    grad_v = centered_gradient(Field(kept, dt=s * w.dt))
    gv = [Field(g, dt=s * w.dt, t_start=w.t_start) for g in grad_v.swapaxes(0, 1)]
    del kept  # not read again
    grad_w = centered_gradient(Field(w.values[::s], dt=s * w.dt))
    grad_u = np.add(grad_w, grad_v, out=grad_w)  # grad_w is not read again
    gu = [Field(g, dt=s * w.dt, t_start=w.t_start) for g in grad_u.swapaxes(0, 1)]
    del w  # w is not read again
    rows, values = [], []  # values: one {quantity: theta} map per alpha, in config order
    for alpha, wnorm in zip(cfg.alphas, wnorms):
        group = []
        for a, (fv, fu) in enumerate(zip(gv, gu)):
            group.append((f"grad_v[{a}]", seminorm_dyadic(fv, alpha)))
            group.append((f"grad_u[{a}]", seminorm_dyadic(fu, alpha)))
        group.append(("w_c1alpha", HoelderReport(alpha=alpha, naive=None, theta=wnorm, pair=None)))
        rows += [(name, rep.to_csv_row()) for name, rep in group]
        values.append({name: rep.theta for name, rep in group})
    cp = _write_csv(cfg, "norms.csv", ["quantity", HoelderReport.csv_header()], rows)
    return {"written": [cp], "config_hash": config_hash(cfg), "seed": cfg.seed, "values": values}


def _cmd_mc(cfg: ExperimentConfig, args) -> dict:
    workers = 1 if args.deterministic else max(1, args.workers)
    try:
        stats = run_campaign(cfg, workers=workers)
    except ValueError as exc:  # the config cannot drive a campaign (j_mode = file)
        raise _CliError(1, "validation", [str(exc)])
    except CampaignFailure as exc:
        raise _CliError(3, "gate", [str(exc)])
    records = (replace(rec, wall_time=0.0) if args.deterministic else rec for rec in stats.records)
    cp = _write_csv(cfg, "mc_records.csv", [f.name for f in fields(McRecord)], map(astuple, records))
    report = {
        "n": stats.n,
        "alpha": stats.alpha,
        "workers": workers,
        "deterministic": bool(args.deterministic),
        "moments": stats.moments,
        "tail": None if stats.tail is None else stats.tail.to_dict(),
        "failures": stats.failures,
        "records_csv": "mc_records.csv",
        "gates": {"failure_rate": "PASS"},
    }
    rp = _write_report(cfg, "mc", "mc_report.json", report)
    return {"written": [cp, rp], "config_hash": config_hash(cfg), "seed": cfg.seed, "n": stats.n}


def _gate(cfg: ExperimentConfig, check: str, result) -> str:
    """Write the verify-check report, result.to_dict() plus its gate; a FAIL exits 3."""
    body = {**result.to_dict(), "gate": "PASS" if result.passed else "FAIL"}
    rp = _write_report(cfg, f"verify-{check}", f"{check}_report.json", body)
    if not result.passed:
        raise _CliError(3, "gate", [f"{check} check failed; report at {rp}"])
    return rp


def _cmd_verify_covariance(cfg: ExperimentConfig, args) -> dict:
    if cfg.n_realizations < 2:  # a standard error needs two draws
        msg = f"n_realizations: verify-covariance needs at least 2, got {cfg.n_realizations}"
        raise _CliError(1, "validation", [msg])
    spec = CovarianceSpec(cfg.d, cfg.s, cfg.kmax)
    offsets = [np.zeros(cfg.d), np.concatenate([[0.125], np.zeros(cfg.d - 1)])]
    ts = (0.25, 0.5, 1.0)
    points = [
        (t, off, t2, np.zeros(cfg.d))
        for t, t2 in itertools.product(ts, ts)
        for off in offsets
    ]
    chk = covariance_check(spec, points, N=cfg.n_realizations, seed=cfg.seed)
    return {"written": [_gate(cfg, "covariance", chk)], "gate": "PASS", "max_ratio": float(np.max(chk.ratio))}


def _cmd_verify_ellipticity(cfg: ExperimentConfig, args) -> dict:
    nl = builtin(cfg.nl_kind, cfg.nl_lambda)
    rep = verify_ellipticity(nl, n_samples=cfg.n_realizations, radius=8.0, seed=cfg.seed, d=cfg.d)
    return {"written": [_gate(cfg, "ellipticity", rep)], "gate": "PASS"}


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
    except Exception as exc:
        if not isinstance(exc, _CliError):  # runtime contract: anything unexpected is exit 2
            exc = _CliError(2, "runtime", [f"{type(exc).__name__}: {exc}"])
        error = {"exit": exc.code, "type": exc.kind, "messages": exc.messages}
        print(json.dumps({"error": error}, sort_keys=True))
        return exc.code
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
