"""Experiment configuration: a flat key = value schema and its rules.

_KEYS is the schema: one row per key, in canonical order, naming the
ExperimentConfig field it fills, how to parse and format its value and
what a bad value should have looked like.  The dataclass defaults are the
only defaults; a key whose field has none is required.

_RULES is every validation rule of the package, once, in report order.
A row names the ExperimentConfig fields it reads, the first being the
one it is keyed on, and a check that returns its "key: ..."
violation(s) or nothing.  A row runs only when every field it reads is
present and broke no earlier row; a failing row marks its key field.
parse_config runs the table on every parsed field and reports every
violation.  Constructors and internal guards pass the fields they hold
to check, which raises the first violation as ValueError, worded as
parse_config words it.

serialize emits a canonical normal form (fixed key order, floats with
17 significant digits), so serialize(parse(text)) is idempotent and
config_hash identifies an experiment.  _fmt is the one float format of
every text artifact, _cell the one rule for a CSV cell, and _plain the
one JSON form of every report.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np


class ConfigError(ValueError):
    """All schema violations of one parse, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


def _n_steps(c) -> int:
    """Steps of size dt to t_end."""
    return int(round(c.t_end / c.dt))


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    s: float
    kmax: int
    n_x: int
    dt: float
    t_end: float
    alphas: Tuple[float, ...]
    nl_kind: str
    j_mode: str
    seed: int
    n_realizations: int
    nl_lambda: float = 1.0
    j_file: Optional[str] = None
    out_dir: str = "."
    theta: float = 0.5
    save_every: int = 1
    mc_solve: bool = False

    n_steps = property(_n_steps)


_NL_KINDS = ("identity", "tanh_perturbed")
_J_MODES = ("zero", "grad_v_negated", "file")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cell(v) -> str:
    """Text of one CSV cell: None is empty, a float goes through _fmt, anything else through str."""
    return "" if v is None else _fmt(v) if isinstance(v, float) else str(v)


def _plain(value):
    """JSON-ready form of a report: dataclasses by their fields, arrays and sequences as lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _parse_bool(v: str) -> bool:
    lv = v.lower()
    if lv not in ("true", "false"):
        raise ValueError(v)
    return lv == "true"


def _parse_reals(v: str) -> Tuple[float, ...]:
    return tuple(float(p) for p in v.split(",") if p.strip())


# (key, ExperimentConfig field, parser, expected value, formatter) in serialize order
_KEYS = (
    ("d", "d", int, "an integer", str),
    ("s", "s", float, "a real", _fmt),
    ("kmax", "kmax", int, "an integer", str),
    ("n_x", "n_x", int, "an integer", str),
    ("dt", "dt", float, "a real", _fmt),
    ("t_end", "t_end", float, "a real", _fmt),
    ("alpha", "alphas", _parse_reals, "a comma-separated list of reals", lambda a: ", ".join(map(_fmt, a))),
    ("nonlinearity", "nl_kind", str, "a string", str),
    ("lambda", "nl_lambda", float, "a real", _fmt),
    ("j_mode", "j_mode", str, "a string", str),
    ("j_file", "j_file", str, "a string", str),
    ("seed", "seed", int, "an integer", str),
    ("n_realizations", "n_realizations", int, "an integer", str),
    ("out_dir", "out_dir", str, "a string", str),
    ("theta", "theta", float, "a real", _fmt),
    ("save_every", "save_every", int, "an integer", str),
    ("mc_solve", "mc_solve", _parse_bool, "true or false", lambda b: "true" if b else "false"),
)
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.default is not MISSING}


def _step_multiple(c):
    ratio = c.t_end / c.dt
    if not math.isfinite(ratio):
        return f"t_end: must be a finite multiple of dt, got t_end/dt = {_fmt(ratio)}"
    n = _n_steps(c)
    if abs(n * c.dt - c.t_end) > 1e-9 * max(1.0, c.t_end) or n < 1:
        return f"dt: t_end must be an integer multiple of dt, got t_end/dt = {_fmt(ratio)}"


def _alpha_window(c):
    cap = min((c.s - c.d) / 2.0, 1.0)
    return [
        f"alpha: admissible exponents lie in (0, min((s-d)/2, 1)) = (0, {_fmt(cap)}), got {_fmt(a)}"
        for a in c.alphas
        if not 0.0 < a < cap
    ]


def _saved_intervals(c):
    # dyadic norm grids: the saved intervals of a solve, or the steps of the noise alone
    m = _n_steps(c) // c.save_every if c.mc_solve else _n_steps(c)
    if m & (m - 1) != 0:
        return f"dt: dyadic norm estimation needs a power of two of saved intervals, got {m}"


def _stability(c):
    dx = 1.0 / c.n_x
    limit = c.theta * dx * dx / (2.0 * c.d)
    if c.mc_solve and c.dt > limit * (1.0 + 1e-12):
        return f"dt: violates the diffusion stability bound theta*dx^2/(2d) = {_fmt(limit)}, got {_fmt(c.dt)}"


# (fields read, the first one keyed; check -> its "key: ..." violation(s) or nothing) in report order
_RULES = (
    (("d",), lambda c: c.d < 1 and f"d: must be >= 1, got {c.d}"),
    (("s", "d"), lambda c: not c.s > c.d and f"s: noise covariance is trace class only for s > d, got s = {_fmt(c.s)} with d = {c.d}"),
    (("kmax",), lambda c: c.kmax < 1 and f"kmax: must be >= 1, got {c.kmax}"),
    (("n_x", "kmax"), lambda c: c.n_x < 2 * c.kmax + 2 and f"n_x: must be >= 2*kmax+2 = {2 * c.kmax + 2} for alias-free evaluation, got {c.n_x}"),
    (("n_x",), lambda c: c.n_x < 2 and f"n_x: must be >= 2, got {c.n_x}"),
    (("dt",), lambda c: not c.dt > 0 and f"dt: must be > 0, got {_fmt(c.dt)}"),
    (("t_end",), lambda c: not c.t_end > 0 and f"t_end: must be > 0, got {_fmt(c.t_end)}"),
    # keyed on t_end: every rule that needs the step count reads it
    (("t_end", "dt"), _step_multiple),
    (("alphas",), lambda c: not c.alphas and "alpha: needs at least one value"),
    (("alphas", "s", "d"), _alpha_window),
    (("nl_kind",), lambda c: c.nl_kind not in _NL_KINDS and f"nonlinearity: must be one of {', '.join(_NL_KINDS)}, got {c.nl_kind!r}"),
    (("nl_lambda",), lambda c: not 0.0 < c.nl_lambda <= 1.0 and f"lambda: ellipticity constant must lie in (0, 1], got {_fmt(c.nl_lambda)}"),
    (("j_mode",), lambda c: c.j_mode not in _J_MODES and f"j_mode: must be one of {', '.join(_J_MODES)}, got {c.j_mode!r}"),
    (("j_file", "j_mode"), lambda c: c.j_mode == "file" and c.j_file is None and "j_file: required when j_mode = file"),
    (("j_file", "j_mode"), lambda c: c.j_file is not None and c.j_mode != "file" and f"j_file: only meaningful with j_mode = file, got j_mode = {c.j_mode!r}"),
    (("seed",), lambda c: c.seed < 0 and f"seed: must be >= 0, got {c.seed}"),
    (("n_realizations",), lambda c: c.n_realizations < 1 and f"n_realizations: must be >= 1, got {c.n_realizations}"),
    (("theta",), lambda c: not 0.0 < c.theta <= 1.0 and f"theta: stability fraction must lie in (0, 1], got {_fmt(c.theta)}"),
    (("save_every",), lambda c: c.save_every < 1 and f"save_every: must be >= 1, got {c.save_every}"),
    (("save_every", "t_end", "dt"), lambda c: _n_steps(c) % c.save_every != 0 and f"save_every: must divide n_steps = {_n_steps(c)}, got {c.save_every}"),
    (("n_x", "alphas"), lambda c: c.n_x & (c.n_x - 1) != 0 and f"n_x: dyadic norm estimation needs a power of two, got {c.n_x}"),
    (("t_end", "dt", "save_every", "mc_solve", "alphas"), _saved_intervals),
    (("dt", "mc_solve", "d", "n_x", "theta"), _stability),
)


def _violations(held: dict) -> list:
    """Every violation of the rules whose fields are all in held, in table order."""
    c = SimpleNamespace(**held)
    ok = set(held)
    out = []
    for names, rule in _RULES:
        if ok.issuperset(names):
            found = rule(c)
            if found:
                out += [found] if isinstance(found, str) else found
                ok.discard(names[0])
    return out


def check(**held) -> None:
    """Raise the first violation of the rules on the held fields as ValueError.

    An integer field must hold a whole number; mc_solve = True applies
    the stability bound.
    """
    for key, name, conv, desc, _ in _KEYS:
        if conv is int and name in held and held[name] % 1:
            raise ValueError(f"{key}: expected {desc}, got {held[name]!r}")
    bad = _violations(held)
    if bad:
        raise ValueError(bad[0])


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the key = value schema.

    Lines are 'key = value'; blank lines and # comments are skipped.
    Raises ConfigError carrying every violation found, not just the
    first.  The stability bound is enforced here only when the config
    itself schedules a solve (mc_solve = true); SolverConfig enforces it
    for every solve.
    """
    raw = {}
    bad = []
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            bad.append(f"line {ln}: expected 'key = value', got {stripped!r}")
            continue
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip()
        if key in raw:
            bad.append(f"line {ln}: duplicate key {key!r}")
            continue
        raw[key] = val

    known = {key for key, *_ in _KEYS}
    for key in raw:
        if key not in known:
            bad.append(f"{key}: unknown key")
    for key, name, *_ in _KEYS:
        if key not in raw and name not in _DEFAULTS:
            bad.append(f"{key}: required key missing")

    # every field that parsed or has a default; the rules skip the others
    vals = {}
    for key, name, conv, desc, _ in _KEYS:
        if key not in raw:
            if name in _DEFAULTS:
                vals[name] = _DEFAULTS[name]
            continue
        try:
            vals[name] = conv(raw[key])
        except (TypeError, ValueError):
            bad.append(f"{key}: expected {desc}, got {raw[key]!r}")

    bad += _violations(vals)
    if bad:
        raise ConfigError(bad)
    return ExperimentConfig(**vals)


def serialize(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg.  A key whose value is None is left out."""
    lines = []
    for key, name, _, _, fmt in _KEYS:
        value = getattr(cfg, name)
        if value is not None:
            lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """First 16 hex digits of the sha256 of the canonical form."""
    return hashlib.sha256(serialize(cfg).encode()).hexdigest()[:16]
