"""Layer spans for qspde, recorded from outside the package.

install() wraps the public functions of each qspde module and rebinds
every module attribute that refers to them, so calls are caught where the
caller looks the name up: mc_harness and cli import sample_mode_states
and solve by name, and hoelder's c1alpha_seminorm reaches
seminorm_dyadic through its own module globals.  The flux callable `a`
is wrapped on every Nonlinearity that builtin() returns.  Private
helpers stay unwrapped, so their time counts toward the caller: the
spectral evaluation of grad v inside solve is solver time, and the
_spectral_slabs and increment loops of increment_scaling_fit are
mc_harness time.

Spans (name, start, end, parent span, unit) live in flat arrays in
memory and are written once, by save().  Work counts are computed from
the arguments of each wrapped call (and, for read_qspd and run_campaign,
from what it returns), never from the program's own counters; byte
counts are computed from array shapes, not measured I/O.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import replace

import numpy as np

LAYERS = ("spectral_noise", "solver", "nonlinearity", "hoelder", "mc_harness", "config", "cli")


def _qspd_bytes(f) -> int:
    # magic, version, d, d axis sizes, n_t, dt, t_start, then float64 payload
    return 4 + 4 + 8 + 8 * f.d + 8 + 16 + 8 * f.values.size


def _dyadic_samples(f) -> int:
    """Increment evaluations seminorm_dyadic makes on this field's grid."""
    total = 0
    n = 1
    while True:
        R = 2.0**-n
        sx = f.n_x * R
        st = R * R / f.dt
        if sx < 1.0 - 1e-9 or st < 1.0 - 1e-9:
            return total
        if abs(sx - round(sx)) < 1e-9 and abs(st - round(st)) < 1e-9:
            m_t = -(-f.n_t // int(round(st)))
            cells = (f.n_x // int(round(sx))) ** f.d
            for lag in range(min(4, m_t)):
                offsets = 3**f.d - (1 if lag == 0 else 0)
                total += offsets * (m_t - lag) * cells
        n += 1


def _representatives(spec, modes) -> int:
    if modes is not None:
        return int(np.count_nonzero(modes.rep_mask))
    return ((2 * spec.kmax + 1) ** spec.d + 1) // 2


def _count_sample(a, out):
    reps = _representatives(a["spec"], a.get("modes"))
    return {"streams": reps, "mode_rows": reps * len(a["times"])}


def _count_solve(a, out):
    cfg = a["cfg"]
    return {"steps": cfg.n_steps, "node_updates": cfg.n_steps * cfg.n_x**cfg.d}


def _count_c1alpha(a, out):
    w = a["w"]
    return {"lag_pairs": w.n_t * (w.n_t - 1) // 2 * w.n_x**w.d}


def _count_campaign(a, out):
    return {"realizations": out.n + len(out.failures), "failures": len(out.failures)}


# (module, attribute, span name, counter); counters return per-call totals.
# Public functions that no workload reaches (sample_noise_path,
# sample_mode_states_strided, contraction_test, covariance_check,
# regularity_gap_study, ...) are left out.
TARGETS = (
    ("qspde.spectral_noise", "sample_mode_states", "spectral_noise.sample", _count_sample),
    ("qspde.spectral_noise", "evaluate_field", "spectral_noise.evaluate", None),
    ("qspde.spectral_noise", "write_qspd", "spectral_noise.qspd_io", lambda a, out: {"bytes": _qspd_bytes(a["f"])}),
    ("qspde.spectral_noise", "read_qspd", "spectral_noise.qspd_io", lambda a, out: {"bytes": _qspd_bytes(out)}),
    ("qspde.solver", "solve", "solver.solve", _count_solve),
    ("qspde.hoelder", "seminorm_dyadic", "hoelder.dyadic", lambda a, out: {"samples": _dyadic_samples(a["f"])}),
    ("qspde.hoelder", "c1alpha_seminorm", "hoelder.c1alpha", _count_c1alpha),
    ("qspde.hoelder", "centered_gradient", "hoelder.gradient", None),
    ("qspde.mc_harness", "run_campaign", "mc_harness.campaign", _count_campaign),
    ("qspde.mc_harness", "increment_scaling_fit", "mc_harness.scaling_fit", lambda a, out: {"realizations": a["N"]}),
    ("qspde.config", "parse_config", "config.parse", None),
    ("qspde.cli", "main", "cli.main", None),
)
FLUX = "nonlinearity.flux"


class Tracer:
    """In-memory span store plus per-unit work counts."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.names: list = []
        self._index: dict = {}
        self.parent = array.array("q")
        self.name = array.array("h")
        self.unit = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list = []
        self.unit_counts: list = []
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def begin_unit(self) -> None:
        self.unit_counts.append(Counter())

    def _intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, span: str, fn, counter=None):
        idx = self._intern(span)
        sig = inspect.signature(fn) if counter is not None else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(idx)
            self.unit.append(len(self.unit_counts) - 1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                stack.pop()
            if counter is not None and self.unit_counts:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.unit_counts[-1].update(
                    {f"{span}.{k}": v for k, v in counter(bound.arguments, out).items()}
                )
            return out

        return traced

    def install(self) -> None:
        """Rebind every qspde module attribute that names a target."""
        modules = [m for n, m in list(sys.modules.items()) if n == "qspde" or n.startswith("qspde.")]
        swaps = {}
        for mod_name, attr, span, counter in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            swaps[id(orig)] = (orig, self.wrap(span, orig, counter))
        builtin = sys.modules["qspde.nonlinearity"].builtin

        @functools.wraps(builtin)
        def traced_builtin(*args, **kwargs):
            nl = builtin(*args, **kwargs)
            return replace(nl, a=self.wrap(FLUX, nl.a))

        swaps[id(builtin)] = (builtin, traced_builtin)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = swaps.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))

    def uninstall(self) -> None:
        """Put back every attribute install() rebound."""
        for mod, attr, val in self._restore:
            setattr(mod, attr, val)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Totals over the traced units.

        Per span name and per layer: calls, busy_s (duration of spans with
        no enclosing span of the same name or layer) and self_s (duration
        minus the time covered by direct children).  Plus the summed work
        counts under "<span>.<counter>" keys.
        """
        sp = self.arrays()
        parent, dur = sp["parent"], sp["end"] - sp["start"]
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_t = dur - child
        layer_table = np.array([LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int64)
        layer_idx = layer_table[sp["name"]]
        out = {}

        def outermost(key):
            nested = np.zeros(dur.size, dtype=bool)
            anc = parent.copy()
            while np.any(anc >= 0):
                live = anc >= 0
                nested[live] |= key[anc[live]] == key[live]
                anc[live] = parent[anc[live]]
            return ~nested

        top_name = outermost(sp["name"])
        top_layer = outermost(layer_idx)
        for i, n in enumerate(self.names):
            sel = sp["name"] == i
            out[f"{n}.calls"] = int(np.count_nonzero(sel))
            out[f"{n}.busy_s"] = float(dur[sel & top_name].sum())
            out[f"{n}.self_s"] = float(self_t[sel].sum())
        for li, layer in enumerate(LAYERS):
            sel = layer_idx == li
            out[f"{layer}.busy_s"] = float(dur[sel & top_layer].sum())
            out[f"{layer}.self_s"] = float(self_t[sel].sum())
        totals = Counter()
        for c in self.unit_counts:
            totals.update(c)
        # layer totals too: mc_harness.realizations sums every mc_harness span's
        for key, val in list(totals.items()):
            layer, _, counter = key.split(".")
            totals[f"{layer}.{counter}"] += val
        out.update(totals)
        return out

    def counts_repeat(self) -> bool:
        """True when every traced unit made exactly the same work counts."""
        return all(c == self.unit_counts[0] for c in self.unit_counts)

    def save(self, path: str, meta: dict) -> None:
        meta = dict(meta, workload=self.workload, run_id=self.run_id, names=self.names)
        np.savez_compressed(path, meta=np.array(json.dumps(meta)), **self.arrays())
