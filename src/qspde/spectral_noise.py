"""Exact-in-law sampling of the linear stochastic heat solution on the torus.

The field is a truncated Fourier series over wave vectors k = 2*pi*m,
|m_i| <= kmax.  Each mode is an Ornstein-Uhlenbeck type stochastic
convolution driven by a complex Brownian motion with spectral weight
khat(k) = (1 + |k|^2)^(-s/2); noise is injected only on (0, 1], after
which modes decay deterministically.  Advancing a mode between two grid
times uses the exact Gaussian transition law, so grid values have the
exact law of the continuum object regardless of step size.
"""

from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import check

QSPD_MAGIC = b"QSPD"
QSPD_VERSION = 1


# ---------------------------------------------------------------------------
# grid fields and the shared binary format


@dataclass
class Field:
    """Scalar samples on a uniform periodic grid, one slab per time.

    values has shape (n_t, n_x, ..., n_x) with d trailing spatial axes.
    Spatial indexing is periodic: index n_x wraps to 0.  Vector-valued
    data (gradients, fluxes) is carried as one Field per component.
    """

    values: np.ndarray
    dt: float
    t_start: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim < 2:
            raise ValueError("Field needs a time axis plus at least one spatial axis")
        spatial = self.values.shape[1:]
        if len(set(spatial)) != 1:
            raise ValueError(f"spatial axes must agree, got {spatial}")

    @property
    def d(self) -> int:
        return self.values.ndim - 1

    @property
    def n_t(self) -> int:
        return self.values.shape[0]

    @property
    def n_x(self) -> int:
        return self.values.shape[1]

    @property
    def dx(self) -> float:
        return 1.0 / self.n_x

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_t)


def write_qspd(path, f: Field) -> None:
    """Write a Field in the shared binary format.

    Layout: magic "QSPD", u32 version, int64 d, d int64 per-axis sizes,
    int64 n_t, f64 dt, f64 t_start, then float64 little-endian payload,
    time-major then row-major in space.
    """
    with open(path, "wb") as fh:
        fh.write(QSPD_MAGIC)
        fh.write(struct.pack("<I", QSPD_VERSION))
        fh.write(struct.pack("<q", f.d))
        fh.write(struct.pack(f"<{f.d}q", *f.values.shape[1:]))
        fh.write(struct.pack("<q", f.n_t))
        fh.write(struct.pack("<dd", f.dt, f.t_start))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8"))


def read_qspd(path) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != QSPD_MAGIC:
            raise ValueError(f"not a QSPD file (magic {magic!r})")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != QSPD_VERSION:
            raise ValueError(f"unsupported QSPD version {version}")
        (d,) = struct.unpack("<q", fh.read(8))
        if not 1 <= d <= 8:
            raise ValueError(f"implausible dimension {d}")
        shape = struct.unpack(f"<{d}q", fh.read(8 * d))
        (n_t,) = struct.unpack("<q", fh.read(8))
        dt, t_start = struct.unpack("<dd", fh.read(16))
        if min(shape) < 1:
            raise ValueError(f"QSPD header axis sizes {shape} must all be at least 1")
        if n_t < 0:
            raise ValueError(f"QSPD header n_t is {n_t}; it must be at least 0")
        count = n_t * int(np.prod(shape))
        payload = np.fromfile(fh, dtype="<f8", count=count)
        extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if payload.size != count:
        raise ValueError(f"truncated QSPD payload: expected {count} float64 values, found {payload.size}")
    if extra:
        raise ValueError(f"QSPD payload of {count} float64 values is followed by {extra} extra bytes")
    return Field(payload.reshape((n_t,) + shape), dt=dt, t_start=t_start)


# ---------------------------------------------------------------------------
# covariance spec and mode bookkeeping


class CovarianceSpec:
    """Noise parameters: dimension d, decay exponent s > d, mode cutoff kmax >= 1.

    s > d is the trace-class condition; the constructor applies the config
    rules, so it rejects s <= d with the message parse_config prints.
    The spectral weight saturates the decay bound: khat(k) = (1+|k|^2)^(-s/2).
    tail_fraction estimates the neglected spectral mass outside the cutoff
    (exact partial sum plus an integral-comparison remainder); it is
    reported, not enforced, so desk-scale runs can trade tail mass for speed.
    """

    def __init__(self, d: int, s: float, kmax: int):
        check(d=d, s=s, kmax=kmax)
        self.d = int(d)
        self.s = float(s)
        self.kmax = int(kmax)
        self.tail_fraction = self._tail_fraction()

    def khat(self, k) -> np.ndarray:
        """Spectral weight (1+|k|^2)^(-s/2) for wave vectors k (last axis d)."""
        k = np.asarray(k, dtype=np.float64)
        ksq = np.sum(np.atleast_2d(k) ** 2, axis=-1) if k.ndim > 1 else np.sum(k**2)
        return (1.0 + ksq) ** (-self.s / 2.0)

    def _shell_mass(self, ell: np.ndarray) -> np.ndarray:
        # number of m with |m|_inf = ell, times the largest khat on the shell;
        # an upper bound on the shell's spectral mass
        count = (2 * ell + 1) ** self.d - (2 * ell - 1) ** self.d
        return count * (1.0 + (2.0 * np.pi * ell) ** 2) ** (-self.s / 2.0)

    def _tail_fraction(self) -> float:
        ell = np.arange(1, self.kmax + 1, dtype=np.float64)
        inside = 1.0 + np.sum(self._shell_mass(ell))
        # explicit shells beyond the cutoff, then an integral comparison for
        # the rest; converges since s > d
        ell_out = np.arange(self.kmax + 1, self.kmax + 2001, dtype=np.float64)
        tail = np.sum(self._shell_mass(ell_out))
        L = float(ell_out[-1])
        # remainder: sum_{l>L} 2d(2l+1)^(d-1) (2 pi l)^(-s) <= integral bound
        p = self.s - (self.d - 1)
        tail += 2 * self.d * 3.0 ** (self.d - 1) * (2 * np.pi) ** (-self.s) * L ** (1 - p) / (p - 1)
        return float(tail / (inside + tail))

    def __repr__(self):
        return f"CovarianceSpec(d={self.d}, s={self.s}, kmax={self.kmax})"


def choose_kmax(d: int, s: float, tol: float = 1e-6, limit: int = 1 << 20) -> int:
    """Smallest kmax whose estimated neglected tail mass is below tol."""

    def ok(kmax):
        return CovarianceSpec(d, s, kmax).tail_fraction < tol

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > limit:
            raise ValueError(f"no kmax below {limit} meets tol={tol}")
    lo = hi // 2  # tail mass decreases in kmax, so bisect on the last doubling
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ModeSet:
    """All wave vectors k = 2*pi*m with |m_i| <= kmax, negation-closed.

    Rows are ordered lexicographically in m over [-kmax, kmax]^d, so the
    negation pairing is index reversal and rep_mask, one representative per
    {k, -k} pair (m = 0, or first nonzero component positive), is the upper
    half: indices n // 2 and up.  Only representatives consume random draws.
    """

    d: int
    kmax: int
    m: np.ndarray
    k: np.ndarray
    ksq: np.ndarray
    rep_mask: np.ndarray

    def __len__(self):
        return self.m.shape[0]


def make_mode_set(d: int, kmax: int) -> ModeSet:
    check(d=d, kmax=kmax)
    rng1 = np.arange(-kmax, kmax + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng1] * d), indexing="ij")
    m = np.stack(grids, axis=-1).reshape(-1, d)
    k = 2.0 * np.pi * m.astype(np.float64)
    ksq = np.sum(k * k, axis=1)
    n = m.shape[0]
    return ModeSet(int(d), int(kmax), m, k, ksq, np.arange(n) >= n // 2)


# ---------------------------------------------------------------------------
# random streams and exact mode transitions


def _stream_key(root_seed: int) -> np.ndarray:
    return np.random.SeedSequence(root_seed).generate_state(2, np.uint64)


def _mode_streams(root_seed: int, realization: int):
    """stream(mode_index) -> Generator for one (realization, mode) pair.

    The Philox key derives from the root seed only; the counter words are
    [draw, 0, realization, mode_index], so distinct pairs can never
    overlap no matter how many values each stream consumes.  One Philox
    and one Generator serve every mode of a sampling call: a Philox
    stream is fully determined by its key and its counter, so restoring
    the whole fresh state (counter [0, 0, realization, mode], empty
    buffer, no cached uint32) gives the draws of a new generator.  The
    returned Generator is shared: take a mode's draws before asking for
    the next mode.
    """
    bitgen = np.random.Philox(counter=[0, 0, realization, 0], key=_stream_key(root_seed))
    fresh = bitgen.state
    gen = np.random.Generator(bitgen)

    def stream(mode_index: int) -> np.random.Generator:
        fresh["state"]["counter"][3] = mode_index
        bitgen.state = fresh
        return gen

    return stream


def step_moments(ksq, khat_k, t0: float, t1: float):
    """Exact transition moments of a mode from time t0 to t1 >= t0.

    Returns (decay, var): the state map is x -> decay*x + sqrt(var)*z with
    z a standard complex Gaussian (real at k = 0).  Noise is accumulated
    only over the window (max(t0, 0), min(t1, 1)]; outside it the mode
    decays deterministically.
    """
    if t1 < t0:
        raise ValueError(f"t1 < t0 ({t1} < {t0})")
    ksq = np.asarray(ksq, dtype=np.float64)
    khat_k = np.asarray(khat_k, dtype=np.float64)
    decay = np.exp(-(t1 - t0) * ksq)
    w_lo = max(t0, 0.0)
    w_hi = min(t1, 1.0)
    if w_hi <= w_lo:
        return decay, np.zeros_like(ksq)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = (
            khat_k
            * np.exp(-2.0 * (t1 - w_hi) * ksq)
            * -np.expm1(-2.0 * (w_hi - w_lo) * ksq)
            / (2.0 * ksq)
        )
    var = np.where(ksq > 0.0, var, khat_k * (w_hi - w_lo))
    return decay, var


# ---------------------------------------------------------------------------
# path sampling


@dataclass
class NoisePath:
    """Mode coefficients X_k at a strictly increasing time grid.

    Reality holds by construction: X_{-k} = conj(X_k) at every time, and
    the k = 0 coefficient is real.  Coefficients are zero at times <= 0;
    past t = 1 no new randomness enters (pure exponential decay).
    """

    spec: CovarianceSpec
    modes: ModeSet
    times: np.ndarray
    coeffs: np.ndarray  # (n_t, n_modes) complex
    seed: int
    realization: int = 0

    @property
    def dt(self) -> float:
        steps = np.diff(self.times)
        if steps.size and not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15):
            raise ValueError("time grid is not uniform")
        return float(steps[0]) if steps.size else 0.0


# rows of normals drawn and filtered at a time on the uniform-grid path
_CHUNK = 8192


def sample_mode_states(
    spec: CovarianceSpec,
    times,
    seed: int,
    realization: int = 0,
    modes: ModeSet | None = None,
) -> NoisePath:
    """Exact joint sample of all modes at a strictly increasing time grid.

    Times may be non-uniform, non-positive (zero state), or beyond 1
    (deterministic decay); each transition uses the exact window-clamped
    moments.  Deterministic given (spec, times, seed, realization).

    On a uniform grid inside [0, 1] the recursion runs per mode in blocks
    of _CHUNK rows, so only one block of normals is held at a time; any
    other grid takes the vectorised exact-step loop.

    Each representative mode draws its normals from a Philox stream keyed
    by the seed with counter [draw, 0, realization, mode index], two per
    grid time (the first pair drives the transition from rest into
    times[0]).  The index is the mode's position in the order for this
    kmax, so changing kmax changes every mode's draws.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    n_steps = times.size - 1
    if modes is None:
        modes = make_mode_set(spec.d, spec.kmax)
    h = len(modes) // 2
    ksq = modes.ksq[h:]
    kh = spec.khat(modes.k[h:])
    stream = _mode_streams(seed, realization)
    # first state: transition from rest at time 0 (or zero if t <= 0)
    _, var0 = step_moments(ksq, kh, 0.0, max(times[0], 0.0))
    sig0 = np.sqrt(var0)
    coeffs = np.empty((times.size, len(modes)), dtype=np.complex128)
    upper = coeffs[:, h:]

    uniform = n_steps > 0 and np.allclose(np.diff(times), times[1] - times[0], rtol=1e-12, atol=1e-15)
    if uniform and times[0] >= 0.0 and times[-1] <= 1.0:
        # constant-coefficient recursion, one lfilter per mode and block;
        # imported here: loading scipy.signal costs about 0.8 s and 70 MB
        from scipy.signal import lfilter

        decay, var = step_moments(ksq, kh, 0.0, times[1] - times[0])
        sig = np.sqrt(var)
        for j in range(ksq.size):
            gen = stream(h + j)
            upper[0, j] = (sig0[j] * _to_complex(gen.standard_normal((1, 2)), ksq[j]))[0]
            zi = np.array([decay[j] * upper[0, j]])
            done = 0
            while done < n_steps:
                c = min(_CHUNK, n_steps - done)
                noise = sig[j] * _to_complex(gen.standard_normal((c, 2)), ksq[j])
                y, zi = lfilter([1.0], [1.0, -decay[j]], noise, zi=zi)
                upper[done + 1 : done + 1 + c, j] = y
                done += c
    else:
        normals = np.empty((ksq.size, times.size, 2), dtype=np.float64)
        for j in range(ksq.size):
            stream(h + j).standard_normal(out=normals[j])
        cur = sig0 * _to_complex(normals[:, 0, :], ksq)
        upper[0] = cur
        for i in range(1, times.size):
            decay, var = step_moments(ksq, kh, times[i - 1], times[i])
            cur = decay * cur + np.sqrt(var) * _to_complex(normals[:, i, :], ksq)
            upper[i] = cur

    # conjugation keeps finiteness, so checking the upper half suffices
    if not np.isfinite(upper).all():
        raise FloatingPointError("non-finite mode coefficient")
    # mode i is the negation of mode n-1-i: the reversed upper half, less m = 0
    np.conjugate(coeffs[:, :h:-1], out=coeffs[:, :h])
    return NoisePath(spec, modes, times, coeffs, seed, realization)


def _to_complex(z, ksq):
    # pairs of normals along the last axis -> standard complex Gaussians;
    # the zero mode stays real and its second normal is deliberately unused
    return np.where(ksq > 0.0, (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0), z[..., 0])


# ---------------------------------------------------------------------------
# field evaluation and the closed-form covariance


_FFT_BLOCK_BYTES = 1 << 20  # size of each complex row block that _spectral_slabs transforms


def _spectral_slabs(modes: ModeSet, coeffs: np.ndarray, n_x: int, parts, out=None) -> np.ndarray:
    """Inverse-FFT evaluation of sum_k w_k X_k(t) e^{ikx} on the n_x grid.

    Each part names one component and its mode weight w_k: "v" is v
    itself (the coefficients unscaled, so their signed zeros reach the
    transform unchanged), an axis a is d_a v (i*k_a), and "div_j" is the
    divergence of the wiring j = -grad v, that is -laplacian v (|k|^2).
    Component c is written into out[:, c], a real (n_t, len(parts)) +
    grid array allocated here unless given.  Per block of rows, each part's
    weighted coefficients fill the 2^d corners its modes occupy in one
    zero-padded block, transformed out of place; the zeros are never
    rewritten.  An imaginary residue that is NaN or above 1e-10 raises.
    """
    check(n_x=n_x, kmax=modes.kmax)
    d, kmax = modes.d, modes.kmax
    n_t = coeffs.shape[0]
    side = (2 * kmax + 1,) * d
    grid = (n_x,) * d
    if out is None:
        out = np.empty((n_t, len(parts)) + grid)
    # modes are lexicographic in m over [-kmax, kmax]^d, so along each axis
    # m >= 0 fills bins 0..kmax and m < 0 the last kmax bins: (mode, bin) slices
    halves = [(slice(kmax, None), slice(0, kmax + 1)), (slice(0, kmax), slice(n_x - kmax, None))]
    corners = [tuple(zip(*c)) for c in itertools.product(halves, repeat=d)]
    weights = [None if p == "v" else (modes.ksq.astype(complex) if p == "div_j" else 1j * modes.k[:, p]) for p in parts]
    # at most half the rows, rounded up: the two blocks together hold about one field
    rows = max(1, min((n_t + 1) // 2, _FFT_BLOCK_BYTES // (16 * n_x**d)))
    padded = np.zeros((rows,) + grid, dtype=np.complex128)
    buf = np.empty_like(padded)
    for lo in range(0, n_t, rows):
        r = min(rows, n_t - lo)
        block = coeffs[lo : lo + r].reshape((r,) + side)
        for c, w in enumerate(weights):
            for src, dst in corners:
                at = padded[(slice(r),) + dst]
                if w is None:
                    at[...] = block[(slice(None),) + src]
                else:
                    np.multiply(block[(slice(None),) + src], w.reshape(side)[src], out=at)
            np.fft.ifftn(padded[:r], axes=tuple(range(1, d + 1)), out=buf[:r])
            buf[:r] *= float(n_x**d)
            # |imag| goes into c's slot of out, which buf.real then overwrites: no temporary
            slot = out[lo : lo + r, c]
            residue = float(np.abs(buf[:r].imag, out=slot).max())
            if not residue <= 1e-10:
                raise FloatingPointError(f"imaginary residue {residue:.3e} exceeds 1e-10")
            slot[...] = buf[:r].real
    return out


def evaluate_field(path: NoisePath, n_x: int, parts=("v",)) -> list:
    """Evaluate parts of a NoisePath as real Fields on the uniform n_x grid.

    Each part is named as _spectral_slabs names it: "v" for the field
    itself, an integer axis a in [0, d) for its derivative d_a v (weights
    i*k_a).  Returns one Field per part, in order, from one spectral pass;
    a part of any other name raises ValueError before anything is
    evaluated.  Requires a uniform time grid and n_x >= 2*kmax + 2 so
    retained modes occupy distinct FFT bins.
    """
    d = path.modes.d
    for p in parts:
        axis = isinstance(p, (int, np.integer)) and not isinstance(p, bool)
        if not (0 <= p < d if axis else p == "v"):
            raise ValueError(f"evaluation part {p!r} is neither 'v' nor an axis in [0, {d})")
    dt = path.dt  # raises on non-uniform grids
    # component-major, so that each Field's values are contiguous
    values = np.empty((len(parts), path.coeffs.shape[0]) + (n_x,) * d)
    _spectral_slabs(path.modes, path.coeffs, n_x, parts, values.swapaxes(0, 1))
    return [Field(v, dt=dt, t_start=float(path.times[0])) for v in values]


def covariance_closed_form(spec: CovarianceSpec, j: int, t: float, t_prime: float, r) -> float:
    """Truncated closed-form covariance of the gradient component h = d_j v.

    <h(t,x) h(t',x')> = sum_k khat(k) * k_j^2/(2|k|^2) * cos(k.(x-x'))
                        * [exp(-|t-t'| |k|^2) - exp(-(t+t') |k|^2)],
    with the k = 0 term defined as 0.  Valid for t, t' in [0, 1].
    """
    if not (0.0 <= t <= 1.0 and 0.0 <= t_prime <= 1.0):
        raise ValueError(f"times must lie in [0, 1], got {t}, {t_prime}")
    if not 0 <= j < spec.d:
        raise ValueError(f"axis {j} out of range for d={spec.d}")
    if t < t_prime:
        t, t_prime = t_prime, t
    modes = make_mode_set(spec.d, spec.kmax)
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    if r.size != spec.d:
        raise ValueError(f"offset needs {spec.d} components, got {r.size}")
    nz = modes.ksq > 0.0
    k = modes.k[nz]
    ksq = modes.ksq[nz]
    kh = spec.khat(k)
    bracket = np.exp(-(t - t_prime) * ksq) - np.exp(-(t + t_prime) * ksq)
    terms = kh * (k[:, j] ** 2 / (2.0 * ksq)) * np.cos(k @ r) * bracket
    return float(np.sum(terms))
