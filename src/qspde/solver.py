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
differences into buffers allocated once per march, in blocks of steps,
one grid-sized component per _block_rows row and at most _BLOCK_STEPS:
grad v is evaluated once per row into one block buffer and averaged onto
faces once per block, the states go into a ring, and the means, the
finiteness check and the saves are taken once per block.  It returns the saved batch and the mean drift,
not grad v: its readers evaluate it on their own rows.  solve is its
B = 1 call and contraction_test its B = 2 call with a hook that sums the
dissipation.  solve holds w at the saves and evaluates v only when it is
read, whole or a block of saves at a time (Trajectory.v_rows), so a
solve holds one field plus blocks of scratch.
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

from .config import _n_steps, check
from .nonlinearity import Nonlinearity
from .spectral_noise import NoisePath, _block_rows, _spectral_slabs

# j_source sentinel: wire j = -grad v, so the full right-hand side of the
# reconstructed equation matches the linear one driving v.  The divergence
# of this choice is evaluated spectrally (exact for the truncated series);
# face interpolation would cancel the identity-case discretization error
# instead of exhibiting it.
GRAD_V_NEGATED = "grad_v_negated"

JSource = Union[None, str, np.ndarray, Callable[[float], np.ndarray]]

# A march block is capped in bytes by the one block budget, a row being one
# grid-sized component, so that its grad v slabs and its ring of states, a
# few such components, stay in a 2 MB L2 cache (64 steps at d = 2, n_x = 32,
# where 256-step blocks held 6.3 MB).  On small grids _BLOCK_STEPS caps it
# instead (256 steps on the d = 1, n_x = 64 grid): by then the per-block
# overhead is paid off and longer blocks only cost memory, and at d = 2,
# n_x = 32 blocks of 16 steps or fewer were measured slower than 256-step
# ones.
_BLOCK_STEPS = 256


@dataclass(frozen=True)
class SolverConfig:
    """Grid, step and flux choices for one solve.

    The config rules hold: dt must satisfy the explicit diffusion bound
    dt <= theta*dx^2/(2d) with dx = 1/n_x, and t_end must be a whole
    number >= 1 of steps.
    """

    d: int
    n_x: int
    dt: float
    t_end: float
    nl: Nonlinearity
    theta: float = 0.5

    n_steps = property(_n_steps)

    def __post_init__(self):
        check(d=self.d, n_x=self.n_x, dt=self.dt, t_end=self.t_end, theta=self.theta, mc_solve=True)

    @property
    def dx(self) -> float:
        return 1.0 / self.n_x


@dataclass
class Trajectory:
    """Recorded slabs of one solve, on the save-time grid.

    w has shape (n_saves,) + grid.  v, the sampled background at the same
    saves and shape, is evaluated from the noise path on its first read
    and then kept; v_rows evaluates a block of saves alone, bitwise the
    same rows, so that a reader can stream v without holding it whole,
    and a reader of w alone never evaluates it.  u = w + v is summed per
    read.  mean_drift_rate is max_t |mean w(t)| divided by t_end; the flux
    form keeps it at roundoff scale.
    """

    times: np.ndarray
    w: np.ndarray
    mean_drift_rate: float
    noise: NoisePath
    save_rows: slice  # the noise rows of the saves

    def v_rows(self, lo: int, hi: int, out=None) -> np.ndarray:
        """v at the saves lo .. hi-1, shape (rows,) + grid, written into out when given."""
        # slices, so the coefficients are read in place, not copied
        coeffs = self.noise.coeffs[self.save_rows][lo:hi]
        if out is None:
            out = np.empty(coeffs.shape[:1] + self.w.shape[1:])
        _spectral_slabs(self.noise.modes, coeffs, self.w.shape[-1], ("v",), out[:, None])
        return out

    @functools.cached_property
    def v(self) -> np.ndarray:
        return self.v_rows(0, len(self.times))

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
    layer per axis, written into face buffers allocated once per march;
    the slice views of those buffers and of every ring slot are built once
    per march too, and a flux that writes_out writes into the march's
    flux buffer, so a step of a built-in flux allocates almost nothing.
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
        self._layers = [_layers(d, n_x, a) for a in range(d)]
        # per axis: the face views every step writes, and the layers of every
        # ring slot and of each buffer a flux can return (its argument g or q,
        # or the flux buffer it writes into), built once per march
        self._faces = [(g[head], g[last], o[tail], o[first]) for head, tail, first, last in self._layers]
        self.ring = np.zeros((block + 1,) + shape)
        self._rows = list(self.ring)
        self._slots = [self._cut(w) for w in self._rows]
        self._owned = {id(x): self._cut(x) for x in (g, self._q, self._f)}

    def _cut(self, x):
        """Per grid axis, the (head, tail, first, last) views of x."""
        return [tuple(x[s] for s in lay) for lay in self._layers]

    def divergence(self, k, gvf=None, jf=None, hook=None) -> np.ndarray:
        """Backward divergence of A(grad w + gvf) + jf at w = ring[k], into a reused buffer.

        hook(g, f), when given, sees each axis's face gradient of w and
        flux A(g + gvf) before j is added.
        """
        div, dx, g, o, buf, nl = self._div, self.dx, self._g, self._o, self._f, self.nl
        for a, ((w_head, w_tail, w_first, w_last), (g_head, g_last, o_tail, o_first)) in enumerate(
            zip(self._slots[k], self._faces)
        ):
            np.subtract(w_tail, w_head, g_head)
            np.subtract(w_first, w_last, g_last)
            np.true_divide(g, dx, g)
            q = g if gvf is None else np.add(g, gvf[a], self._q)
            f = nl.a(q, out=buf) if nl.writes_out else nl.a(q)
            if hook is not None:
                hook(g, f)
            if jf is not None:
                f = np.add(f, jf[a], buf)
            f_head, f_tail, f_first, f_last = (self._owned.get(id(f)) or self._cut(f))[a]
            np.subtract(f_tail, f_head, o_tail)
            np.subtract(f_first, f_last, o_first)
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
        rows, step = self._rows, np.array(dt)
        for k, i in enumerate(range(lo, lo + n)):
            jf = None if j_faces is None else j_faces(i * dt)
            h = None if hook is None else functools.partial(hook, i)
            div = self.divergence(k, None if gvf is None else gvf[k], jf, h)
            if src is not None:
                np.add(div, src[k], div)
            np.multiply(div, step, div)
            np.add(rows[k], div, rows[k + 1])
        states = self.ring[1 : n + 1]
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
    check(n_x=cfg.n_x, kmax=noise.spec.kmax)
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

    Returns (save_rows, saves, drift): the slice of the noise rows of
    every save_every-th step, the batch at those steps, shape
    (n_saves, B) + grid and starting with w0, and the fmax over steps and
    rows of |mean - mean of w0|.  Step i reads noise row i*ratio; grad v
    (and div j for the grad_v_negated wiring) is evaluated a block of
    rows at a time into one buffer, n_steps rows in all.
    hook(i, g, f) is the divergence hook of step i.
    """
    ratio = _noise_alignment(cfg, noise)
    d, n_steps = cfg.d, cfg.n_steps
    check(save_every=save_every, t_end=cfg.t_end, dt=cfg.dt)
    spectral_j, j_faces = _resolve_j(j_source, cfg)
    parts = tuple(range(d)) + (("div_j",) if spectral_j else ())
    save_rows = slice(0, n_steps * ratio + 1, save_every * ratio)
    n_saves = n_steps // save_every + 1
    saves = np.empty((n_saves,) + w0.shape)
    saves[0] = w0
    # bitwise row.mean(), as advance_block takes the means of the states
    mean0 = np.add.reduce(w0.reshape(w0.shape[0], -1), -1) / w0[0].size
    drift = 0.0
    block = _block_rows(8 * cfg.n_x**d, min(_BLOCK_STEPS, n_steps))
    march = _FluxMarch(d, cfg.n_x, cfg.nl, w0.shape[0], block)
    march.ring[0] = w0
    slabs = np.empty((block, len(parts)) + w0.shape[1:])
    for lo in range(0, n_steps, block):
        n = min(block, n_steps - lo)
        rows = noise.coeffs[lo * ratio : (lo + n) * ratio : ratio]
        _spectral_slabs(noise.modes, rows, cfg.n_x, parts, slabs[:n])
        gv = slabs[:n, :d]
        _face_average(gv, d, gv)
        means = march.advance_block(lo, n, cfg.dt, gv, slabs[:n, d] if spectral_j else None, j_faces, hook)
        # fmax skips NaN means, as a running max() over the steps would
        drift = max(drift, float(np.fmax.reduce(np.abs(means - mean0), None)))
        _keep(march.ring[1 : n + 1], lo + 1, save_every, saves)
        march.ring[0] = march.ring[n]
    return save_rows, saves, drift


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
    save_rows, saves, drift = _march(cfg, noise, j_source, np.zeros((1,) + grid), save_every)
    return Trajectory(
        times=np.array(noise.times[save_rows]),
        w=saves[:, 0],
        mean_drift_rate=drift / cfg.t_end,
        noise=noise,
        save_rows=save_rows,
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

    _, saves, drift = _march(cfg, noise, j_source, w0, hook=dissipate)
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
        min_dissipation=float(np.min(dissipation)),
        distances=distances,
        dissipation=dissipation,
        mean_drift_rate=drift / cfg.t_end,
    )
