"""Experiment configuration: a flat key = value schema.

_KEYS is the schema: one row per key, in canonical order, naming the
ExperimentConfig field it fills, how to parse and format its value and
what a bad value should have looked like.  The dataclass defaults are the
only defaults; a key whose field has none is required.

parse_config validates the whole file and reports every violation at
once, each naming the offending key and the constraint it breaks.
serialize emits a canonical normal form (fixed key order, floats with
17 significant digits), so serialize(parse(text)) is idempotent and
config_hash identifies an experiment.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, fields
from types import SimpleNamespace
from typing import Optional, Tuple


class ConfigError(ValueError):
    """All schema violations of one parse, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


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

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


_NL_KINDS = ("identity", "tanh_perturbed")
_J_MODES = ("zero", "grad_v_negated", "file")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the key = value schema.

    Lines are 'key = value'; blank lines and # comments are skipped.
    Raises ConfigError carrying every violation found, not just the
    first.  The CFL bound is enforced here only when the config itself
    schedules a solve (mc_solve = true); the solve subcommand re-checks
    it at solver construction either way.
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

    # every field, None where its key is missing without a default or fails to parse
    vals = {}
    for key, name, conv, desc, _ in _KEYS:
        try:
            vals[name] = conv(raw[key]) if key in raw else _DEFAULTS.get(name)
        except (TypeError, ValueError):
            bad.append(f"{key}: expected {desc}, got {raw[key]!r}")
            vals[name] = None

    # cross-key rules read the parsed fields by name
    c = SimpleNamespace(**vals)
    if c.d is not None and c.d < 1:
        bad.append(f"d: must be >= 1, got {c.d}")
    if c.d is not None and c.s is not None and not c.s > c.d:
        bad.append(f"s: noise covariance is trace class only for s > d, got s = {_fmt(c.s)} with d = {c.d}")
    if c.kmax is not None and c.kmax < 1:
        bad.append(f"kmax: must be >= 1, got {c.kmax}")
    if c.n_x is not None and c.kmax is not None and c.n_x < 2 * c.kmax + 2:
        bad.append(f"n_x: must be >= 2*kmax+2 = {2 * c.kmax + 2} for alias-free evaluation, got {c.n_x}")
    if c.dt is not None and not c.dt > 0:
        bad.append(f"dt: must be > 0, got {_fmt(c.dt)}")
    if c.t_end is not None and not c.t_end > 0:
        bad.append(f"t_end: must be > 0, got {_fmt(c.t_end)}")
    n_steps = None
    if c.dt is not None and c.t_end is not None and c.dt > 0 and c.t_end > 0:
        ratio = c.t_end / c.dt
        n_steps = int(round(ratio)) if math.isfinite(ratio) else None
        if n_steps is None:
            bad.append(f"t_end: must be a finite multiple of dt, got t_end/dt = {_fmt(ratio)}")
        elif abs(n_steps * c.dt - c.t_end) > 1e-9 * max(1.0, c.t_end) or n_steps < 1:
            bad.append(f"dt: t_end must be an integer multiple of dt, got t_end/dt = {_fmt(ratio)}")
            n_steps = None
    if c.alphas is not None:
        if not c.alphas:
            bad.append("alpha: needs at least one value")
        elif c.d is not None and c.s is not None and c.s > c.d:
            cap = min((c.s - c.d) / 2.0, 1.0)
            for a in c.alphas:
                if not 0.0 < a < cap:
                    bad.append(
                        f"alpha: admissible exponents lie in (0, min((s-d)/2, 1)) = (0, {_fmt(cap)}), got {_fmt(a)}"
                    )
    if c.nl_kind is not None and c.nl_kind not in _NL_KINDS:
        bad.append(f"nonlinearity: must be one of {', '.join(_NL_KINDS)}, got {c.nl_kind!r}")
    if c.nl_lambda is not None and not 0.0 < c.nl_lambda <= 1.0:
        bad.append(f"lambda: ellipticity constant must lie in (0, 1], got {_fmt(c.nl_lambda)}")
    if c.j_mode is not None and c.j_mode not in _J_MODES:
        bad.append(f"j_mode: must be one of {', '.join(_J_MODES)}, got {c.j_mode!r}")
    if c.j_mode == "file" and c.j_file is None:
        bad.append("j_file: required when j_mode = file")
    if c.j_file is not None and c.j_mode is not None and c.j_mode != "file":
        bad.append(f"j_file: only meaningful with j_mode = file, got j_mode = {c.j_mode!r}")
    if c.seed is not None and c.seed < 0:
        bad.append(f"seed: must be >= 0, got {c.seed}")
    if c.n_realizations is not None and c.n_realizations < 1:
        bad.append(f"n_realizations: must be >= 1, got {c.n_realizations}")
    if c.theta is not None and not 0.0 < c.theta <= 1.0:
        bad.append(f"theta: stability fraction must lie in (0, 1], got {_fmt(c.theta)}")
    if c.save_every is not None and c.save_every < 1:
        bad.append(f"save_every: must be >= 1, got {c.save_every}")
    if (
        c.save_every is not None
        and n_steps is not None
        and c.save_every >= 1
        and n_steps % c.save_every != 0
    ):
        bad.append(f"save_every: must divide n_steps = {n_steps}, got {c.save_every}")

    # dyadic norm grids: required whenever norms will be estimated
    if c.alphas and c.n_x is not None and c.n_x >= 2 and (c.n_x & (c.n_x - 1)) != 0:
        bad.append(f"n_x: dyadic norm estimation needs a power of two, got {c.n_x}")
    if c.alphas and n_steps is not None and c.save_every and n_steps % c.save_every == 0:
        m = n_steps // c.save_every if c.mc_solve else n_steps
        if m >= 1 and (m & (m - 1)) != 0:
            bad.append(
                f"dt: dyadic norm estimation needs a power of two of saved intervals, got {m}"
            )

    if (
        c.mc_solve
        and None not in (c.d, c.n_x, c.dt, c.theta)
        and c.d >= 1
        and c.n_x >= 2
        and c.dt > 0
        and 0 < c.theta <= 1
    ):
        dx = 1.0 / c.n_x
        limit = c.theta * dx * dx / (2.0 * c.d)
        if c.dt > limit * (1.0 + 1e-12):
            bad.append(
                f"dt: violates the diffusion stability bound theta*dx^2/(2d) = {_fmt(limit)}, got {_fmt(c.dt)}"
            )

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
