"""Explicit flux-form marching for the gradient-perturbed diffusion.

The unknown is the difference w between the full solution u and the
sampled rough background v.  Rewriting the dynamics in w removes the
time derivative of v exactly; what remains is

    dw/dt = div( A(grad w + grad v) + j ),   w(0) = 0,   u = w + v,

discretized with forward differences to cell faces, face-averaged
background gradients, and a backward-difference divergence.  The
scheme conserves the spatial mean to roundoff and is explicit Euler
in time under the usual diffusive CFL bound (upper ellipticity is
normalized to one, so the bound carries no nonlinearity constant).

One kernel, _FluxMarch, does every step.  It marches a batch of slabs
shaped (B,) + grid with slice differences into buffers allocated once
per march; grad v is evaluated once per row, in spectral blocks, and
averaged onto faces once per block.  solve marches B = 1 and
contraction_test marches its pair as B = 2 with a hook that sums the
dissipation.  Every output equals, bit for bit, that of the np.roll
formulation which tests/test_solver.py keeps as the oracle.

The built-in nonlinearities act componentwise, so the flux through a
face normal to axis a needs only component a of the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .nonlinearity import Nonlinearity
from .spectral_noise import _BLOCK, NoisePath, _spectral_slabs

# j_source sentinel: wire j = -grad v, so the full right-hand side of the
# reconstructed equation matches the linear one driving v.  The divergence
# of this choice is evaluated spectrally (exact for the truncated series);
# face interpolation would cancel the identity-case discretization error
# instead of exhibiting it.
GRAD_V_NEGATED = "grad_v_negated"

JSource = Union[None, str, np.ndarray, Callable[[float], np.ndarray]]


@dataclass(frozen=True)
class SolverConfig:
    """Grid, step and flux choices for one solve.

    dt must satisfy the explicit diffusion bound dt <= theta*dx^2/(2d)
    with dx = 1/n_x, and t_end must be an integer multiple of dt.
    """

    d: int
    n_x: int
    dt: float
    t_end: float
    nl: Nonlinearity
    theta: float = 0.5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.n_x < 2:
            raise ValueError("n_x must be >= 2")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        limit = self.theta * self.dx * self.dx / (2.0 * self.d)
        if self.dt > limit * (1.0 + 1e-12):
            raise ValueError(
                f"CFL violation: dt={self.dt} exceeds theta*dx^2/(2d)={limit}"
            )
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("t_end must be an integer multiple of dt")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_x

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class Trajectory:
    """Recorded slabs of one solve, on the save-time grid.

    w, v at shape (n_saves,) + grid, grad_v at (n_saves, d) + grid.
    mean_drift_rate is max_t |mean w(t)| divided by t_end; the flux form
    keeps it at roundoff scale.
    """

    times: np.ndarray
    w: np.ndarray
    v: np.ndarray
    grad_v: np.ndarray
    dt: float
    dx: float
    mean_drift_rate: float

    @property
    def u(self) -> np.ndarray:
        return self.w + self.v

    @property
    def d(self) -> int:
        return self.w.ndim - 1


def _layers(d, n_x, a):
    """Index tuples (head, tail, first, last) along grid axis a of d.

    head/tail are the cells [0, n_x-1) and [1, n_x); first/last are the
    wrap-around layers 0 and n_x-1.  A leading Ellipsis lets the same
    tuples index a slab, a (B,) + grid batch or a component of a field.
    """
    rest = (slice(None),) * (d - 1 - a)
    return tuple(
        (Ellipsis, s) + rest
        for s in (slice(0, n_x - 1), slice(1, n_x), slice(0, 1), slice(n_x - 1, n_x))
    )


def _face_average(field, d, out):
    """Average component a of field onto the faces normal to grid axis a.

    field and out carry (..., d) + grid; out[a] at cell i is
    0.5*(field[a] at i + field[a] at i+1 along axis a, periodic), the
    values of 0.5*(f + np.roll(f, -1, axis)).  out may be field itself.
    """
    n_x = field.shape[-1]
    for a in range(d):
        comp = (Ellipsis, a) + (slice(None),) * d
        f, o = field[comp], out[comp]
        head, tail, first, last = _layers(d, n_x, a)
        wrap = f[first].copy()  # read before an in-place write covers it
        np.add(f[head], f[tail], o[head])
        np.add(f[last], wrap, o[last])
        o *= 0.5
    return out


def _faces(j, d, n_x):
    """Validated copy of a user j, shape (d,) + grid, averaged onto faces."""
    j = np.asarray(j, dtype=np.float64)
    want = (d,) + (n_x,) * d
    if j.shape != want:
        raise ValueError(f"j has shape {j.shape}, expected {want}")
    return _face_average(j, d, np.empty_like(j))


class _FluxMarch:
    """Explicit flux-form Euler steps of a batch of slabs, shape (B,) + grid.

    Differences to faces and back are slice pairs plus one wrap-around
    layer per axis, written into face buffers allocated once per march.
    Each step runs the ufuncs of the np.roll formulation on the same
    operands, so its output is bitwise that formulation's.  grad v and j
    arrive already averaged onto faces, shape (d,) + grid, shared by
    every row of the batch.
    """

    def __init__(self, d: int, n_x: int, nl: Nonlinearity, batch: int):
        self.nl = nl
        self.dx = 1.0 / n_x
        shape = (batch,) + (n_x,) * d
        self._g, self._q, self._f, self._o, self._div = (np.empty(shape) for _ in range(5))
        self._axes = [_layers(d, n_x, a) for a in range(d)]

    def divergence(self, w, gvf=None, jf=None, hook=None) -> np.ndarray:
        """Backward divergence of A(grad w + gvf) + jf, into a reused buffer.

        hook(g, f), when given, sees each axis's face gradient of w and
        flux A(g + gvf) before j is added.
        """
        div, dx = self._div, self.dx
        div.fill(0.0)
        for a, (head, tail, first, last) in enumerate(self._axes):
            g = self._g
            np.subtract(w[tail], w[head], g[head])
            np.subtract(w[first], w[last], g[last])
            np.true_divide(g, dx, g)
            f = self.nl.a(g if gvf is None else np.add(g, gvf[a], self._q))
            if hook is not None:
                hook(g, f)
            if jf is not None:
                f = np.add(f, jf[a], self._f)
            o = self._o
            np.subtract(f[tail], f[head], o[tail])
            np.subtract(f[first], f[last], o[first])
            np.true_divide(o, dx, o)
            np.add(div, o, div)
        return div

    def advance(self, w, t, dt, gvf=None, jf=None, src=None, hook=None) -> list:
        """w += dt*(divergence + src) in place; returns each row's spatial mean.

        A non-finite node aborts with its batch row and node named.  Any
        non-finite node makes the row's sum non-finite, so the nodes are
        scanned only then; a finite row whose sum overflows goes on.
        """
        div = self.divergence(w, gvf, jf, hook)
        if src is not None:
            np.add(div, src, div)
        np.multiply(div, dt, div)
        np.add(w, div, w)
        means = []
        for b, row in enumerate(w):
            mean = float(np.add.reduce(row, None)) / row.size  # == row.mean()
            if not math.isfinite(mean):
                bad = np.argwhere(~np.isfinite(row))
                if bad.size:
                    copy = f", copy {b}" if w.shape[0] > 1 else ""
                    raise FloatingPointError(
                        f"solver produced a non-finite value at t={t:.9g}{copy}, "
                        f"node {tuple(int(i) for i in bad[0])}"
                    )
            means.append(mean)
        return means


def _noise_alignment(cfg: SolverConfig, noise: NoisePath) -> int:
    """Stride of the noise grid under the solver grid; noise must refine it."""
    if noise.spec.d != cfg.d:
        raise ValueError("noise dimension does not match solver dimension")
    if cfg.n_x < 2 * noise.spec.kmax + 2:
        raise ValueError(
            f"n_x={cfg.n_x} cannot represent modes up to kmax={noise.spec.kmax} "
            f"without aliasing; need n_x >= {2 * noise.spec.kmax + 2}"
        )
    if abs(noise.times[0]) > 1e-12:
        raise ValueError("noise path must start at t=0")
    ndt = noise.dt
    ratio = cfg.dt / ndt
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ValueError(
            f"noise grid (dt={ndt}) must refine the solver grid (dt={cfg.dt})"
        )
    ratio = int(round(ratio))
    need = cfg.n_steps * ratio
    if noise.coeffs.shape[0] < need + 1:
        raise ValueError("noise path too short for the requested end time")
    return ratio


def _resolve_j(j_source: JSource, cfg: SolverConfig):
    """Split j_source into (spectral source flag, t -> j on faces or None)."""
    if j_source is None:
        return False, None
    if isinstance(j_source, str):
        if j_source != GRAD_V_NEGATED:
            raise ValueError(f"unknown j_source {j_source!r}")
        return True, None
    if callable(j_source):
        return False, lambda t: _faces(j_source(t), cfg.d, cfg.n_x)
    jf = _faces(j_source, cfg.d, cfg.n_x)
    return False, lambda t: jf


def _forcing(cfg: SolverConfig, noise: NoisePath, ratio, j_source, grad_v_out=None, save_every=1):
    """Yield (t, grad v on faces, j on faces, div j source) for each step.

    Step i reads noise row i*ratio.  grad v (and div j for the
    grad_v_negated wiring) is evaluated _BLOCK steps at a time and
    averaged onto faces once per block; when grad_v_out is given, the raw
    grad v of every save_every-th step i is first copied into its row
    i // save_every.
    """
    spectral_j, j_faces = _resolve_j(j_source, cfg)
    d = cfg.d
    parts = tuple(range(d)) + (("div_j",) if spectral_j else ())
    for lo in range(0, cfg.n_steps, _BLOCK):
        hi = min(lo + _BLOCK, cfg.n_steps)
        coeffs = noise.coeffs[lo * ratio : hi * ratio : ratio]
        block = _spectral_slabs(noise.modes, coeffs, cfg.n_x, parts)
        gv = block[:, :d]
        if grad_v_out is not None:
            first = -(-lo // save_every) * save_every  # first save step in the block
            kept = gv[first - lo :: save_every]
            grad_v_out[first // save_every : first // save_every + kept.shape[0]] = kept
        _face_average(gv, d, gv)
        for i, row in enumerate(block, lo):
            t = i * cfg.dt
            jf = j_faces(t) if j_faces is not None else None
            yield t, row[:d], jf, (row[d] if spectral_j else None)


def solve(
    cfg: SolverConfig,
    noise: NoisePath,
    j_source: JSource = None,
    save_every: int = 1,
) -> Trajectory:
    """March w from rest at 0 to t_end and record every save_every-th slab.

    The noise path must live on a uniform grid starting at 0 that refines
    the solver grid.  j_source is None for the unforced equation, the
    GRAD_V_NEGATED sentinel for the stochastic wiring j = -grad v (whose
    divergence is evaluated spectrally), a constant (d,)+grid array, or a
    callable t -> (d,)+grid for user forcing.  Deterministic given its
    arguments.
    """
    ratio = _noise_alignment(cfg, noise)
    n_steps = cfg.n_steps
    if save_every < 1 or n_steps % save_every:
        raise ValueError("save_every must be >= 1 and divide the step count")

    save_rows = np.arange(0, n_steps + 1, save_every) * ratio
    grid = (cfg.n_x,) * cfg.d
    grad_v = np.empty((save_rows.size, cfg.d) + grid)
    march = _FluxMarch(cfg.d, cfg.n_x, cfg.nl, 1)
    w = np.zeros((1,) + grid)
    saves = np.empty((save_rows.size,) + grid)
    saves[0] = w[0]
    max_mean = 0.0
    steps = _forcing(cfg, noise, ratio, j_source, grad_v, save_every)
    for i, (t, gvf, jf, src) in enumerate(steps):
        (mean,) = march.advance(w, t, cfg.dt, gvf, jf, src)
        max_mean = max(max_mean, abs(mean))
        if (i + 1) % save_every == 0:
            saves[(i + 1) // save_every] = w[0]
    # the last block's views keep it alive; drop them before v is evaluated
    gvf = src = None

    # the march never reads the last row, so only its grad v is left
    _spectral_slabs(noise.modes, noise.coeffs[save_rows[-1:]], cfg.n_x, range(cfg.d), grad_v[-1:])
    v = np.empty((save_rows.size,) + grid)
    _spectral_slabs(noise.modes, noise.coeffs[save_rows], cfg.n_x, ("v",), v[:, None])
    return Trajectory(
        times=np.asarray(noise.times)[save_rows],
        w=saves,
        v=v,
        grad_v=grad_v,
        dt=cfg.dt,
        dx=cfg.dx,
        mean_drift_rate=max_mean / cfg.t_end,
    )


@dataclass
class ContractionReport:
    """Distance and dissipation history of a perturbed solve pair."""

    passed: bool
    epsilon: float
    seed: int
    dt: float
    initial_distance: float
    final_distance: float
    min_dissipation: float
    distances: np.ndarray
    dissipation: np.ndarray
    mean_drift_rate: float = 0.0

    def to_dict(self):
        return {
            "passed": self.passed,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "dt": self.dt,
            "initial_distance": self.initial_distance,
            "final_distance": self.final_distance,
            "min_dissipation": self.min_dissipation,
            "mean_drift_rate": self.mean_drift_rate,
        }


def contraction_test(
    cfg: SolverConfig,
    noise: NoisePath,
    j_source: JSource = None,
    epsilon: float = 1e-3,
    seed: int = 0,
) -> ContractionReport:
    """Contraction of two solves split by a mean-zero initial perturbation.

    The second copy starts from a random mean-zero field of max-norm
    amplitude epsilon.  Each step records the discrete L2 distance and the
    dissipation sum_faces (G1-G2).(A(G1+gv)-A(G2+gv))*dx^d, which the
    ellipticity of A keeps non-negative.  PASS means no dissipation below
    -1e-10 and final distance <= initial*(1 + 10*dt).  The two copies
    march together as one batch of two; a non-finite value aborts with
    the copy (0 or 1) and the node named.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    ratio = _noise_alignment(cfg, noise)
    n_steps = cfg.n_steps
    march = _FluxMarch(cfg.d, cfg.n_x, cfg.nl, 2)

    grid = (cfg.n_x,) * cfg.d
    cell = cfg.dx**cfg.d
    w = np.zeros((2,) + grid)
    rng = np.random.default_rng(seed)
    pert = rng.standard_normal(grid)
    pert -= pert.mean()
    peak = np.max(np.abs(pert))
    if epsilon > 0 and peak > 0:
        w[1] = pert * (epsilon / peak)

    def l2(a, b):
        return float(np.sqrt(np.sum((a - b) ** 2) * cell))

    distances = np.empty(n_steps + 1)
    dissipation = np.zeros(n_steps)
    distances[0] = l2(w[0], w[1])
    mean0 = [float(row.mean()) for row in w]
    drift = 0.0

    def dissipate(g, f):
        # sum over the faces normal to one axis of (G1-G2).(A(G1+gv)-A(G2+gv))
        dissipation[i] += float(np.sum((g[0] - g[1]) * (f[0] - f[1]))) * cell

    for i, (t, gvf, jf, src) in enumerate(_forcing(cfg, noise, ratio, j_source)):
        means = march.advance(w, t, cfg.dt, gvf, jf, src, dissipate)
        distances[i + 1] = l2(w[0], w[1])
        drift = max(drift, *(abs(m - m0) for m, m0 in zip(means, mean0)))

    passed = bool(
        np.min(dissipation) >= -1e-10
        and distances[-1] <= distances[0] * (1.0 + 10.0 * cfg.dt)
    )
    return ContractionReport(
        passed=passed,
        epsilon=float(epsilon),
        seed=int(seed),
        dt=cfg.dt,
        initial_distance=float(distances[0]),
        final_distance=float(distances[-1]),
        min_dissipation=float(np.min(dissipation)) if n_steps else 0.0,
        distances=distances,
        dissipation=dissipation,
        mean_drift_rate=drift / cfg.t_end,
    )
