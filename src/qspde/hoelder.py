"""Parabolic Hoelder seminorm estimators on space-time grid fields.

Distances use the parabolic metric sqrt(|dt|) + |dx| with periodic
minimal-image spatial distance.  Two estimators are provided: an
exhaustive pair scan for small grids, and a multiscale dyadic-grid
estimator whose cost is near linear in the sample count.  The two are
equivalent up to constants; the upper constant is analytic, the lower
one is shipped as a calibrated number.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spectral_noise import Field

# Lower equivalence constant in naive <= C2 * theta, calibrated as the
# empirical max ratio over a 200-field random suite (d in {1,2}, dyadic
# grids up to 9x9x9, alpha=0.3, root seed 20260816) plus a 10% margin.
# Measured max ratio 7.9977, attained on a 5x2 grid whose ladder has a
# single valid level (the constant grows when intermediate dyadic scales
# are missing); shipped value rounds the margined figure up.
C2_EQUIVALENCE = 8.80


@dataclass
class HoelderReport:
    """One seminorm evaluation: estimate(s), witness pair, and domain.

    pair is ((t, x), (t', x')) with tuple x; re-evaluating the quotient
    (naive) or R^{-alpha}*|f(z)-f(z')| at level_R (dyadic) reproduces the
    reported value bitwise.
    """

    alpha: float
    naive: Optional[float]
    theta: Optional[float]
    pair: Optional[tuple]
    domain: str
    level_R: Optional[float] = None

    def to_csv_row(self) -> str:
        def fmt(v):
            return "" if v is None else f"{v:.17g}"

        cells = [fmt(self.alpha), fmt(self.naive), fmt(self.theta)]
        if self.pair is None:
            cells += [""] * 4
        else:
            (t, x), (t2, x2) = self.pair
            cells += [
                fmt(t),
                ";".join(f"{c:.17g}" for c in x),
                fmt(t2),
                ";".join(f"{c:.17g}" for c in x2),
            ]
        return ",".join(cells)

    @staticmethod
    def csv_header() -> str:
        return "alpha,naive,theta,t,x,t_prime,x_prime"


def _flat_coordinates(f: Field):
    d = f.d
    n_x = f.n_x
    times = f.times
    axes = [np.arange(n_x) * f.dx] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pos = np.stack([g.ravel() for g in mesh], axis=1)  # (n_x^d, d)
    n_sp = pos.shape[0]
    t_flat = np.repeat(times, n_sp)
    x_flat = np.tile(pos, (f.n_t, 1))
    return t_flat, x_flat


def _domain_of(f: Field) -> str:
    return (
        f"grid n_t={f.n_t} n_x={f.n_x} d={f.d} "
        f"dt={f.dt:.17g} t_start={f.t_start:.17g}"
    )


def seminorm_naive(f: Field, alpha: float, budget: int = 20000) -> HoelderReport:
    """Exhaustive parabolic Hoelder quotient over all grid-point pairs.

    Quadratic in the sample count, so refuses fields above the budget.
    The witness is the first pair in scan order (flat time-major index
    pairs i < j) attaining the maximum.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    vals = f.values.reshape(f.n_t, -1).ravel()
    n = vals.size
    if n > budget:
        raise ValueError(
            f"{n} samples exceed the naive budget {budget}; "
            "use seminorm_dyadic for grids this large"
        )
    t_flat, x_flat = _flat_coordinates(f)

    best = 0.0
    best_pair = None
    for i in range(n - 1):
        dt = np.abs(t_flat[i + 1 :] - t_flat[i])
        dxs = np.abs(x_flat[i + 1 :] - x_flat[i]) % 1.0
        dxs = np.minimum(dxs, 1.0 - dxs)
        dist = np.sqrt(dt) + np.sqrt(np.sum(dxs * dxs, axis=1))
        quot = np.abs(vals[i + 1 :] - vals[i]) / dist**alpha
        jrel = int(np.argmax(quot))
        if quot[jrel] > best:
            best = float(quot[jrel])
            j = i + 1 + jrel
            best_pair = (
                (float(t_flat[i]), tuple(x_flat[i])),
                (float(t_flat[j]), tuple(x_flat[j])),
            )
    return HoelderReport(
        alpha=alpha, naive=best, theta=None, pair=best_pair, domain=_domain_of(f)
    )


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _dyadic_levels(f: Field):
    """Valid dyadic scales: R = 2^-n with R*n_x and R^2/dt both integral."""
    levels = []
    n = 1
    while True:
        R = 2.0**-n
        sx = f.n_x * R
        st = R * R / f.dt
        if sx < 1.0 - 1e-9 or st < 1.0 - 1e-9:
            break
        if abs(sx - round(sx)) < 1e-9 and abs(st - round(st)) < 1e-9:
            levels.append((n, R, int(round(st)), int(round(sx))))
        n += 1
    return levels


def seminorm_dyadic(f: Field, alpha: float) -> HoelderReport:
    """Multiscale estimate Theta over dyadic sub-grids.

    For each scale R = 2^-n the field is subsampled to time spacing R^2
    and spatial spacing R, and increments are taken over pairs with
    |t-s| <= 3R^2 and max-norm spatial offset at most one coarse cell;
    Theta is the max over scales of R^-alpha times the largest increment.
    Requires n_x and the interval count n_t-1 to be powers of two (and a
    compatible dt) so the sub-grids subsample exactly.

    Scan order for the witness: scales coarse to fine, time offset 0..3,
    spatial offsets lexicographic over {-1,0,1}^d, then row-major grid
    position; the first strict maximum wins.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    if f.n_t < 2:
        raise ValueError("need at least two time slabs")
    if not (_is_pow2(f.n_x) and _is_pow2(f.n_t - 1)):
        raise ValueError(
            f"dyadic estimator needs power-of-two n_x and n_t-1, "
            f"got n_x={f.n_x}, n_t={f.n_t}"
        )
    levels = _dyadic_levels(f)
    if not levels:
        raise ValueError("no dyadic scale fits this grid (non-dyadic dt?)")

    d = f.d
    vals = f.values
    best = 0.0
    best_pair = None
    best_R = None
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=d)]
    for n, R, st, sx in levels:
        sub = vals[::st]
        for a in range(d):
            sub = np.take(sub, np.arange(0, f.n_x, sx), axis=1 + a)
        m_t = sub.shape[0]
        scale = R**-alpha
        for dt_idx in range(0, min(4, m_t)):
            lead = sub[dt_idx:]
            base = sub[: m_t - dt_idx] if dt_idx else sub
            for off in offsets:
                if dt_idx == 0 and all(o == 0 for o in off):
                    continue
                shifted = lead
                for a, o in enumerate(off):
                    if o:
                        shifted = np.roll(shifted, -o, axis=1 + a)
                diff = np.abs(shifted - base)
                pos = int(np.argmax(diff))
                m = float(diff.ravel()[pos])
                if m * scale > best:
                    best = m * scale
                    best_R = R
                    idx = np.unravel_index(pos, diff.shape)
                    i_t = idx[0]
                    p = idx[1:]
                    t1 = f.t_start + (i_t + dt_idx) * st * f.dt
                    t0 = f.t_start + i_t * st * f.dt
                    x1 = tuple(((pi + o) * sx % f.n_x) * f.dx for pi, o in zip(p, off))
                    x0 = tuple((pi * sx) * f.dx for pi in p)
                    best_pair = ((t1, x1), (t0, x0))
    return HoelderReport(
        alpha=alpha,
        naive=None,
        theta=best,
        pair=best_pair,
        domain=_domain_of(f),
        level_R=best_R,
    )


def centered_gradient(f: Field) -> np.ndarray:
    """Second-order periodic gradient of each slab, shape (n_t, d) + grid."""
    comps = []
    for a in range(f.d):
        comps.append(
            (np.roll(f.values, -1, axis=1 + a) - np.roll(f.values, 1, axis=1 + a))
            / (2.0 * f.dx)
        )
    return np.stack(comps, axis=1)


def c1alpha_seminorm(w: Field, grad_w: np.ndarray, alpha: float) -> float:
    """Composite seminorm: dyadic [grad w]_alpha plus the temporal quotient.

    grad_w has shape (n_t, d) + grid (see centered_gradient).  The
    gradient part is the max over components of the dyadic estimate; the
    temporal part is the per-site sup of
    |w(t,x)-w(t',x)| / |t-t'|^((1+alpha)/2) over all time pairs.

    Lags are visited in increasing order, and a lag is skipped when
    R / (lag*dt)^((1+alpha)/2) is at most the running sup, R being the
    largest per-site range max_t w - min_t w.  Rounding is monotone, so
    no rounded increment exceeds the rounded range R and a skipped lag
    cannot raise the sup: the result is bitwise the exhaustive scan's.
    """
    if grad_w.shape != (w.n_t, w.d) + w.values.shape[1:]:
        raise ValueError("grad_w shape does not match the field grid")
    grad_part = 0.0
    for a in range(w.d):
        comp = Field(grad_w[:, a], dt=w.dt, t_start=w.t_start)
        grad_part = max(grad_part, seminorm_dyadic(comp, alpha).theta)
    expo = (1.0 + alpha) / 2.0
    vals = w.values
    R = float(np.ptp(vals, axis=0).max())
    buf = np.empty_like(vals)
    temporal = 0.0
    for lag in range(1, w.n_t):
        denom = (lag * w.dt) ** expo
        # continue, not break: pow is not guaranteed monotone in lag
        if R / denom <= temporal:
            continue
        diff = np.subtract(vals[lag:], vals[:-lag], out=buf[: w.n_t - lag])
        m = float(np.abs(diff, out=diff).max())
        temporal = max(temporal, m / denom)
    return grad_part + temporal
