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

One kernel, _FluxMarch, does every step, and one loop, _march, drives
it.  _march steps a batch of slabs shaped (B,) + grid with slice
differences into buffers allocated once per march, in blocks of _BLOCK
steps: grad v is evaluated once per row and averaged onto faces once per
block, the states go into a ring, and the means, the finiteness check
and the saves are taken once per block.  It returns the saved batch,
grad v at the saves and the mean drift.  solve is its B = 1 call and
contraction_test its B = 2 call with a hook that sums the dissipation.
Every output equals, bit for bit, that of the np.roll formulation kept
as the test oracle, at any block size.

The built-in nonlinearities act componentwise, so the flux through a
face normal to axis a needs only component a of the argument.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .nonlinearity import Nonlinearity
from .spectral_noise import NoisePath, _spectral_slabs

# j_source sentinel: wire j = -grad v, so the full right-hand side of the
# reconstructed equation matches the linear one driving v.  The divergence
# of this choice is evaluated spectrally (exact for the truncated series);
# face interpolation would cancel the identity-case discretization error
# instead of exhibiting it.
GRAD_V_NEGATED = "grad_v_negated"

JSource = Union[None, str, np.ndarray, Callable[[float], np.ndarray]]

# steps per march block, small enough that a block's spectral slabs and
# its ring of states stay in cache at the grids the lab runs
_BLOCK = 256


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
        if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
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
    mean_drift_rate: float

    @property
    def u(self) -> np.ndarray:
        return self.w + self.v


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
    arrive already averaged onto faces, shape (d,) + grid per step,
    shared by every row of the batch.  The states live in a ring shaped
    (block + 1, B) + grid: step k of a block reads ring[k] and writes
    ring[k + 1].
    """

    def __init__(self, d: int, n_x: int, nl: Nonlinearity, batch: int, block: int = 1):
        self.nl = nl
        self.dx = np.array(1.0 / n_x)  # a 0-d array divides faster than a float
        shape = (batch,) + (n_x,) * d
        g, self._q, self._f, o, self._div = (np.empty(shape) for _ in range(5))
        self._g, self._o, self._zero = g, o, np.zeros(shape)
        # per axis: head, tail, first, last and the face views every step writes
        layers = [_layers(d, n_x, a) for a in range(d)]
        self._axes = [lay + (g[lay[0]], g[lay[3]], o[lay[1]], o[lay[2]]) for lay in layers]
        self.ring = np.zeros((block + 1,) + shape)

    def divergence(self, w, gvf=None, jf=None, hook=None) -> np.ndarray:
        """Backward divergence of A(grad w + gvf) + jf, into a reused buffer.

        hook(g, f), when given, sees each axis's face gradient of w and
        flux A(g + gvf) before j is added.
        """
        div, dx, g, o = self._div, self.dx, self._g, self._o
        for a, (head, tail, first, last, g_head, g_last, o_tail, o_first) in enumerate(self._axes):
            np.subtract(w[tail], w[head], g_head)
            np.subtract(w[first], w[last], g_last)
            np.true_divide(g, dx, g)
            f = self.nl.a(g if gvf is None else np.add(g, gvf[a], self._q))
            if hook is not None:
                hook(g, f)
            if jf is not None:
                f = np.add(f, jf[a], self._f)
            np.subtract(f[tail], f[head], o_tail)
            np.subtract(f[first], f[last], o_first)
            np.true_divide(o, dx, o)
            np.add(div if a else self._zero, o, div)  # starts at +0, so -0 becomes +0
        return div

    def advance_block(self, lo, n, dt, gvf=None, src=None, j_faces=None, hook=None) -> np.ndarray:
        """Steps lo .. lo+n-1 from ring[0]; returns the (n, B) spatial means.

        Step i = lo + k adds dt*(divergence + src[k]) with grad v faces
        gvf[k] and j faces j_faces(i*dt); hook(i, g, f) is the divergence
        hook of step i.  ring[k + 1] holds the states after step i.

        A non-finite node aborts naming the time, batch row and node of the
        first step that made one; the flux may see non-finite values for
        the rest of the block.  A row's nodes are scanned only when its
        mean is not finite, so a finite row whose sum overflows goes on.
        """
        ring, step = self.ring, np.array(dt)
        for k, i in enumerate(range(lo, lo + n)):
            jf = None if j_faces is None else j_faces(i * dt)
            h = None if hook is None else functools.partial(hook, i)
            div = self.divergence(ring[k], None if gvf is None else gvf[k], jf, h)
            if src is not None:
                np.add(div, src[k], div)
            np.multiply(div, step, div)
            np.add(ring[k], div, ring[k + 1])
        states = ring[1 : n + 1]
        # bitwise row.mean() for every row of every state
        means = np.add.reduce(states.reshape(n, states.shape[1], -1), -1) / states[0, 0].size
        for k, b in np.argwhere(~np.isfinite(means)):  # step order, then row
            bad = np.argwhere(~np.isfinite(states[k, b]))
            if bad.size:
                copy = f", copy {b}" if means.shape[1] > 1 else ""
                raise FloatingPointError(
                    f"solver produced a non-finite value at t={(lo + int(k)) * dt:.9g}{copy}, "
                    f"node {tuple(int(i) for i in bad[0])}"
                )
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
    if noise.coeffs.shape[0] < 2:  # a single row has no step to divide by
        raise ValueError("noise path too short for the requested end time")
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


def _keep(rows, n0, every, out):
    """Copy rows[m], the row of index n0 + m, into out[(n0 + m) // every] when every divides n0 + m."""
    first = -(-n0 // every)
    kept = rows[first * every - n0 :: every]
    out[first : first + kept.shape[0]] = kept


def _march(cfg: SolverConfig, noise: NoisePath, j_source, w0, save_every=1, hook=None):
    """March the batch w0, shape (B,) + grid, from t = 0 to t_end.

    Returns (save_rows, saves, grad_v, drift): the noise rows of every
    save_every-th step, the batch at those steps, shape (n_saves, B) + grid
    and starting with w0, the raw grad v there, shape (n_saves, d) + grid,
    and the fmax over steps and rows of |mean - mean of w0|.  Step i reads
    noise row i*ratio.  grad v (and div j for the grad_v_negated wiring)
    is evaluated _BLOCK steps at a time, so each grad v row is evaluated
    once; the march never reads the last one, which is evaluated at the
    end.  hook(i, g, f) is the divergence hook of step i.
    """
    ratio = _noise_alignment(cfg, noise)
    d, n_steps = cfg.d, cfg.n_steps
    if save_every < 1 or n_steps % save_every:
        raise ValueError("save_every must be >= 1 and divide the step count")
    spectral_j, j_faces = _resolve_j(j_source, cfg)
    parts = tuple(range(d)) + (("div_j",) if spectral_j else ())
    save_rows = np.arange(0, n_steps + 1, save_every) * ratio
    saves = np.empty(save_rows.shape + w0.shape)
    grad_v = np.empty(save_rows.shape + (d,) + w0.shape[1:])
    saves[0] = w0
    # bitwise row.mean(), as advance_block takes the means of the states
    mean0 = np.add.reduce(w0.reshape(w0.shape[0], -1), -1) / w0[0].size
    drift = 0.0
    march = _FluxMarch(d, cfg.n_x, cfg.nl, w0.shape[0], min(_BLOCK, n_steps))
    march.ring[0] = w0
    for lo in range(0, n_steps, _BLOCK):
        n = min(_BLOCK, n_steps - lo)
        block = _spectral_slabs(noise.modes, noise.coeffs[lo * ratio : (lo + n) * ratio : ratio], cfg.n_x, parts)
        gv = block[:, :d]
        _keep(gv, lo, save_every, grad_v)
        _face_average(gv, d, gv)
        means = march.advance_block(lo, n, cfg.dt, gv, block[:, d] if spectral_j else None, j_faces, hook)
        # fmax skips NaN means, as a running max() over the steps would
        drift = max(drift, float(np.fmax.reduce(np.abs(means - mean0), None)))
        _keep(march.ring[1 : n + 1], lo + 1, save_every, saves)
        march.ring[0] = march.ring[n]
    _spectral_slabs(noise.modes, noise.coeffs[save_rows[-1:]], cfg.n_x, range(d), grad_v[-1:])
    return save_rows, saves, grad_v, drift


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
    grid = (cfg.n_x,) * cfg.d
    save_rows, saves, grad_v, drift = _march(cfg, noise, j_source, np.zeros((1,) + grid), save_every)
    v = np.empty((save_rows.size,) + grid)
    _spectral_slabs(noise.modes, noise.coeffs[save_rows], cfg.n_x, ("v",), v[:, None])
    return Trajectory(
        times=np.asarray(noise.times)[save_rows],
        w=saves[:, 0],
        v=v,
        grad_v=grad_v,
        mean_drift_rate=drift / cfg.t_end,
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
    if not 0.0 <= epsilon < np.inf:
        raise ValueError("epsilon must be finite and >= 0")
    grid = (cfg.n_x,) * cfg.d
    cell = cfg.dx**cfg.d
    w0 = np.zeros((2,) + grid)
    rng = np.random.default_rng(seed)
    pert = rng.standard_normal(grid)
    pert -= pert.mean()
    peak = np.max(np.abs(pert))
    if epsilon > 0 and peak > 0:
        w0[1] = pert * (epsilon / peak)

    dissipation = np.zeros(cfg.n_steps)

    def dissipate(i, g, f):
        # sum over the faces normal to one axis of (G1-G2).(A(G1+gv)-A(G2+gv))
        dissipation[i] += float(np.sum((g[0] - g[1]) * (f[0] - f[1]))) * cell

    _, saves, _, drift = _march(cfg, noise, j_source, w0, hook=dissipate)
    sq = ((saves[:, 0] - saves[:, 1]) ** 2).reshape(len(saves), -1)
    distances = np.sqrt(np.add.reduce(sq, -1) * cell)

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
        min_dissipation=float(np.min(dissipation)) if cfg.n_steps else 0.0,
        distances=distances,
        dissipation=dissipation,
        mean_drift_rate=drift / cfg.t_end,
    )
