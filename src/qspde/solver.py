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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .nonlinearity import Nonlinearity
from .spectral_noise import NoisePath, _grad_slabs, _spectral_slabs

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


def _check_grid(name, arr, d, n_x):
    want = (d,) + (n_x,) * d
    if arr.shape != want:
        raise ValueError(f"{name} has shape {arr.shape}, expected {want}")


def _face_average(arr, axis):
    return 0.5 * (arr + np.roll(arr, -1, axis=axis))


def flux_divergence(w, grad_v=None, j=None, nl: Nonlinearity = None) -> np.ndarray:
    """Conservative divergence of the face flux A(grad w + grad v) + j.

    w is a single slab, shape (n_x,)*d on the unit torus; grad_v and j,
    when given, carry a leading component axis, shape (d,) + w.shape.
    grad w is formed by forward differences to faces, grad_v and j are
    averaged onto faces, and the divergence is the backward difference,
    so the spatial sum of the output telescopes to zero.

    The built-in nonlinearities act componentwise, so the flux through
    a face normal to axis a needs only component a of the argument.
    """
    w = np.asarray(w, dtype=np.float64)
    d = w.ndim
    n_x = w.shape[0]
    if w.shape != (n_x,) * d:
        raise ValueError(f"w must be square, got shape {w.shape}")
    if grad_v is not None:
        grad_v = np.asarray(grad_v, dtype=np.float64)
        _check_grid("grad_v", grad_v, d, n_x)
    if j is not None:
        j = np.asarray(j, dtype=np.float64)
        _check_grid("j", j, d, n_x)
    dx = 1.0 / n_x
    div = np.zeros_like(w)
    for a in range(d):
        g = (np.roll(w, -1, axis=a) - w) / dx
        q = g if grad_v is None else g + _face_average(grad_v[a], a)
        f = nl.a(q)
        if j is not None:
            f = f + _face_average(j[a], a)
        div += (f - np.roll(f, 1, axis=a)) / dx
    return div


def step(w, t, cfg: SolverConfig, grad_v=None, j=None, source=None) -> np.ndarray:
    """One explicit Euler update w + dt*(flux divergence + source).

    source, when given, is an extra divergence-form forcing slab added
    to the right-hand side (used for the spectrally evaluated div j of
    the grad_v_negated wiring).  A non-finite result aborts with the
    first offending node named.
    """
    rhs = flux_divergence(w, grad_v, j, cfg.nl)
    if source is not None:
        rhs = rhs + source
    out = w + cfg.dt * rhs
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))[0]
        raise FloatingPointError(
            f"solver produced a non-finite value at t={t:.9g}, "
            f"node {tuple(int(i) for i in bad)}"
        )
    return out


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


class _SlabStream:
    """Batched spectral evaluation of grad v (and optionally div j) rows."""

    def __init__(self, noise: NoisePath, rows, n_x, need_source, block=2048):
        self.noise = noise
        self.rows = np.asarray(rows, dtype=np.int64)
        self.n_x = n_x
        self.need_source = need_source
        self.block = int(block)
        # div j for j = -grad v is -laplacian(v): mode weight +|k|^2
        self._ws = noise.modes.ksq.astype(np.complex128)
        self._lo = 0
        self._gv = None
        self._src = None

    def fetch(self, i):
        # i indexes self.rows; refill the block buffer on demand
        if self._gv is None or not (self._lo <= i < self._lo + self._gv.shape[0]):
            self._lo = (i // self.block) * self.block
            hi = min(self._lo + self.block, self.rows.size)
            sel = self.rows[self._lo:hi]
            coeffs = self.noise.coeffs[sel]
            modes = self.noise.modes
            self._gv = _grad_slabs(modes, coeffs, self.n_x)
            if self.need_source:
                self._src = _spectral_slabs(modes, coeffs, self.n_x, self._ws)
        k = i - self._lo
        src = self._src[k] if self.need_source else None
        return self._gv[k], src


def _resolve_j(j_source: JSource, cfg: SolverConfig):
    """Split j_source into (spectral source flag, face field provider)."""
    if j_source is None:
        return False, None
    if isinstance(j_source, str):
        if j_source != GRAD_V_NEGATED:
            raise ValueError(f"unknown j_source {j_source!r}")
        return True, None
    if callable(j_source):
        return False, j_source
    arr = np.asarray(j_source, dtype=np.float64)
    _check_grid("j", arr, cfg.d, cfg.n_x)
    return False, lambda t: arr


def solve(
    cfg: SolverConfig,
    noise: NoisePath,
    j_source: JSource = None,
    save_every: int = 1,
    block: int = 2048,
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
    spectral_j, j_of_t = _resolve_j(j_source, cfg)

    rows = np.arange(n_steps + 1, dtype=np.int64) * ratio
    stream = _SlabStream(noise, rows, cfg.n_x, spectral_j, block)

    grid = (cfg.n_x,) * cfg.d
    w = np.zeros(grid)
    saves = [w.copy()]
    max_mean = 0.0
    for i in range(n_steps):
        t = i * cfg.dt
        gv, src = stream.fetch(i)
        j = j_of_t(t) if j_of_t is not None else None
        w = step(w, t, cfg, gv, j, src)
        max_mean = max(max_mean, abs(float(w.mean())))
        if (i + 1) % save_every == 0:
            saves.append(w.copy())

    save_rows = rows[::save_every]
    times = np.asarray(noise.times)[save_rows]
    coeffs = noise.coeffs[save_rows]
    # evaluate the slabs before stacking w: the transforms' scratch is the peak
    v = _spectral_slabs(noise.modes, coeffs, cfg.n_x, None)
    grad_v = _grad_slabs(noise.modes, coeffs, cfg.n_x)
    return Trajectory(
        times=times,
        w=np.asarray(saves),
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
    nl: Optional[Nonlinearity] = None,
    block: int = 2048,
) -> ContractionReport:
    """Contraction of two solves split by a mean-zero initial perturbation.

    The second copy starts from a random mean-zero field of max-norm
    amplitude epsilon.  Each step records the discrete L2 distance and the
    dissipation sum_faces (G1-G2).(A(G1+gv)-A(G2+gv))*dx^d, which the
    ellipticity of A keeps non-negative.  PASS means no dissipation below
    -1e-10 and final distance <= initial*(1 + 10*dt).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if nl is None:
        nl = cfg.nl
    ratio = _noise_alignment(cfg, noise)
    n_steps = cfg.n_steps
    spectral_j, j_of_t = _resolve_j(j_source, cfg)
    rows = np.arange(n_steps + 1, dtype=np.int64) * ratio
    stream = _SlabStream(noise, rows, cfg.n_x, spectral_j, block)

    grid = (cfg.n_x,) * cfg.d
    cell = cfg.dx**cfg.d
    w1 = np.zeros(grid)
    rng = np.random.default_rng(seed)
    pert = rng.standard_normal(grid)
    pert -= pert.mean()
    peak = np.max(np.abs(pert))
    w2 = pert * (epsilon / peak) if epsilon > 0 and peak > 0 else np.zeros(grid)

    def l2(a, b):
        return float(np.sqrt(np.sum((a - b) ** 2) * cell))

    distances = np.empty(n_steps + 1)
    dissipation = np.empty(n_steps)
    distances[0] = l2(w1, w2)
    dx = cfg.dx
    mean0_1 = float(w1.mean())
    mean0_2 = float(w2.mean())
    drift = 0.0
    for i in range(n_steps):
        t = i * cfg.dt
        gv, src = stream.fetch(i)
        j = j_of_t(t) if j_of_t is not None else None
        div1 = np.zeros(grid)
        div2 = np.zeros(grid)
        diss = 0.0
        for a in range(cfg.d):
            g1 = (np.roll(w1, -1, axis=a) - w1) / dx
            g2 = (np.roll(w2, -1, axis=a) - w2) / dx
            gvf = _face_average(gv[a], a)
            f1 = nl.a(g1 + gvf)
            f2 = nl.a(g2 + gvf)
            diss += float(np.sum((g1 - g2) * (f1 - f2))) * cell
            if j is not None:
                jf = _face_average(j[a], a)
                f1 = f1 + jf
                f2 = f2 + jf
            div1 += (f1 - np.roll(f1, 1, axis=a)) / dx
            div2 += (f2 - np.roll(f2, 1, axis=a)) / dx
        dissipation[i] = diss
        if src is not None:
            div1 += src
            div2 += src
        w1 = w1 + cfg.dt * div1
        w2 = w2 + cfg.dt * div2
        if not (np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))):
            raise FloatingPointError(f"contraction pair diverged at t={t:.9g}")
        distances[i + 1] = l2(w1, w2)
        drift = max(
            drift, abs(float(w1.mean()) - mean0_1), abs(float(w2.mean()) - mean0_2)
        )

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
