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
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import _cell
from .spectral_noise import Field, _block_rows

# Lower equivalence constant in naive <= C2 * theta, calibrated as the
# empirical max ratio over a 200-field random suite (d in {1,2}, dyadic
# grids up to 9x9x9, alpha=0.3, root seed 20260816) plus a 10% margin.
# Measured max ratio 7.9977, attained on a 5x2 grid whose ladder has a
# single valid level (the constant grows when intermediate dyadic scales
# are missing); shipped value rounds the margined figure up.
C2_EQUIVALENCE = 8.80

# the largest sample count seminorm_naive scans: its cost is quadratic in it
_NAIVE_BUDGET = 20000


@dataclass
class HoelderReport:
    """One seminorm evaluation: estimate(s) and witness pair.

    It does not describe the grid it was read on; norms.csv labels each
    row by its quantity instead.  pair is ((t, x), (t', x')) with tuple
    x; re-evaluating the quotient (naive) or R^{-alpha}*|f(z)-f(z')| at
    level_R (dyadic) reproduces the reported value bitwise.
    """

    alpha: float
    naive: Optional[float]
    theta: Optional[float]
    pair: Optional[tuple]
    level_R: Optional[float] = None

    def to_csv_row(self) -> str:
        cells = [self.alpha, self.naive, self.theta]
        if self.pair is None:
            cells += [None] * 4
        else:
            (t, x), (t2, x2) = self.pair
            cells += [t, ";".join(map(_cell, x)), t2, ";".join(map(_cell, x2))]
        return ",".join(map(_cell, cells))

    @staticmethod
    def csv_header() -> str:
        return "alpha,naive,theta,t,x,t_prime,x_prime"


def seminorm_naive(f: Field, alpha: float) -> HoelderReport:
    """Exhaustive parabolic Hoelder quotient over all grid-point pairs.

    Quadratic in the sample count, so refuses fields above _NAIVE_BUDGET
    samples; refuses a dt that is not finite and > 0 and a t_start that is
    not finite, which give no distances.  The witness is the first pair in
    scan order (flat time-major index pairs i < j, nodes row-major as
    np.indices lists them) attaining the maximum.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    _check_dt(f.dt)
    if not math.isfinite(f.t_start):
        raise ValueError(f"t_start must be finite, got {f.t_start}")
    vals = f.values.reshape(f.n_t, -1).ravel()
    n = vals.size
    if n > _NAIVE_BUDGET:
        raise ValueError(
            f"{n} samples exceed the naive budget {_NAIVE_BUDGET}; "
            "use seminorm_dyadic for grids this large"
        )
    pos = np.indices((f.n_x,) * f.d).reshape(f.d, -1).T * f.dx  # (n_x^d, d), row-major
    t_flat = np.repeat(f.times, pos.shape[0])
    x_flat = np.tile(pos, (f.n_t, 1))

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
    return HoelderReport(alpha=alpha, naive=best, theta=None, pair=best_pair)


def _check_dt(dt: float) -> None:
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _dyadic_levels(n_x: int, dt: float):
    """Valid dyadic scales: R = 2^-n with R*n_x and R^2/dt both integral; dt must be finite and > 0."""
    _check_dt(dt)
    levels = []
    n = 1
    while True:
        R = 2.0**-n
        sx = n_x * R
        st = R * R / dt
        if sx < 1.0 - 1e-9 or st < 1.0 - 1e-9:
            break
        if abs(sx - round(sx)) < 1e-9 and abs(st - round(st)) < 1e-9:
            levels.append((n, R, int(round(st)), int(round(sx))))
        n += 1
    return levels


def _row_stride(n_t: int, n_x: int, dt: float) -> int:
    """Stride s of the time rows seminorm_dyadic reads on an n_t-row grid.

    s = gcd(st, n_t - 1), st the time stride of the finest valid scale: a
    power of two that divides every scale's stride, so the estimate on
    Field(values[::s], dt=s*dt, t_start) has the same theta bits, pair and
    level_R.  1 when the estimator refuses the grid, so it refuses it alike;
    a dt that is not finite and > 0 raises the estimator's ValueError.
    """
    levels = _dyadic_levels(n_x, dt)
    if n_t < 2 or not (levels and _is_pow2(n_x) and _is_pow2(n_t - 1)):
        return 1
    return math.gcd(levels[-1][2], n_t - 1)


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
    position; the first strict maximum wins.  At time offset 0 the mirror
    -o of an earlier offset o is skipped: it has the same |differences|, so
    it cannot win.  Per scale one copy of the sub-grid, wrap-padded by a
    cell on each spatial side, serves every offset as a slice.  A NaN
    increment raises ValueError naming a NaN sample.
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
    levels = _dyadic_levels(f.n_x, f.dt)
    if not levels:
        raise ValueError("no dyadic scale fits this grid (non-dyadic dt?)")

    d = f.d
    vals = f.values
    best = 0.0
    best_pair = None
    best_R = None
    offsets = list(itertools.product((-1, 0, 1), repeat=d))
    for n, R, st, sx in levels:
        sub = vals[(slice(None, None, st),) + (slice(None, None, sx),) * d]
        m_t, cells = sub.shape[:2]
        # padded[:, 1 + o + i] = sub[:, (i + o) % cells] along each spatial
        # axis: the interior, then each axis's two wrap layers, corners included
        padded = np.empty((m_t,) + (cells + 2,) * d)
        padded[(slice(None),) + (slice(1, -1),) * d] = sub
        for ax in range(1, d + 1):
            lead = (slice(None),) * ax
            padded[lead + (0,)] = padded[lead + (cells,)]
            padded[lead + (cells + 1,)] = padded[lead + (1,)]
        buf = np.empty(sub.shape)
        scale = R**-alpha
        for dt_idx in range(0, min(4, m_t)):
            base = sub[: m_t - dt_idx]
            diff = buf[: m_t - dt_idx]
            for off in offsets if dt_idx else offsets[: len(offsets) // 2]:
                lead = padded[(slice(dt_idx, None),) + tuple(slice(1 + o, 1 + o + cells) for o in off)]
                np.subtract(lead, base, out=diff)
                m = float(max(diff.max(), -diff.min()))
                if m * scale > best:
                    best = m * scale
                    best_R = R
                    i_t, *p = np.unravel_index(np.argmax(np.abs(diff, out=diff)), diff.shape)
                    t1 = f.t_start + (i_t + dt_idx) * st * f.dt
                    t0 = f.t_start + i_t * st * f.dt
                    x1 = tuple(((pi + o) * sx % f.n_x) * f.dx for pi, o in zip(p, off))
                    x0 = tuple((pi * sx) * f.dx for pi in p)
                    best_pair = ((t1, x1), (t0, x0))
                elif m != m:
                    raise _nan_error(sub, st, sx)
    return HoelderReport(
        alpha=alpha,
        naive=None,
        theta=best,
        pair=best_pair,
        level_R=best_R,
    )


def _nan_error(sub: np.ndarray, st: int = 1, sx: int = 1) -> ValueError:
    """Names the first NaN of sub, a field read every st-th time and sx-th node, else its first inf (inf - inf)."""
    i_t, *node = np.argwhere(np.isnan(sub) if np.isnan(sub).any() else np.isinf(sub))[0].tolist()
    where = f"time index {i_t * st}, node {tuple(i * sx for i in node)}"
    return ValueError(f"NaN increment: sample {sub[(i_t, *node)]} at {where}")


def centered_gradient(f: Field) -> np.ndarray:
    """Second-order periodic gradient of each slab, shape (n_t, d) + grid.

    Component a is (f[i+1] - f[i-1]) / (2 dx) along spatial axis a with
    periodic wrap, written slice by slice into one array; bitwise the
    np.roll formula.
    """
    vals = f.values
    n = f.n_x
    grad = np.empty((f.n_t, f.d) + vals.shape[1:])

    def at(i):
        return (i % n, i % n + 1)

    def cut(arr, axis, span):
        return arr[(slice(None),) * axis + (slice(*span),)]

    # (indices i, indices i+1, indices i-1): the interior, then i = 0 and i = n-1
    pieces = (((1, n - 1), (2, n), (0, n - 2)), (at(0), at(1), at(-1)), (at(n - 1), at(n), at(n - 2)))
    for a in range(f.d):
        for rows, plus, minus in pieces:  # the interior is empty for n <= 2
            np.subtract(cut(vals, 1 + a, plus), cut(vals, 1 + a, minus), out=cut(grad[:, a], 1 + a, rows))
    grad /= 2.0 * f.dx
    return grad


def _windowed_ranges(series: np.ndarray) -> np.ndarray:
    """Per-site bound table for the temporal quotient.

    series is (sites, n_t), one time series per row.  Row k-1 of the
    table holds, per site, the largest max - min over any 2^k consecutive
    times (k = 1, 2, ... while 2^k <= n_t); the last row is the
    whole-record range np.ptp, which covers lags beyond the last window.
    A NaN sample makes every bound of its site NaN.
    """
    sites, n_t = series.shape
    levels = max(n_t.bit_length() - 1, 0)  # largest k with 2^k <= n_t
    table = np.empty((levels + 1, sites))
    mx = mn = series
    for k in range(1, levels + 1):
        h = 1 << (k - 1)
        mx = np.maximum(mx[:, :-h], mx[:, h:])
        mn = np.minimum(mn[:, :-h], mn[:, h:])
        np.max(mx - mn, axis=1, out=table[k - 1])
    table[levels] = np.ptp(series, axis=1)
    return table


def c1alpha_seminorm(w: Field, alpha: float) -> float:
    """Composite seminorm: dyadic [grad w]_alpha plus the temporal quotient.

    The gradient part is the max over components of the dyadic estimate
    of centered_gradient(w), computed only on the rows [::s] that the
    dyadic estimator reads, s = _row_stride(w.n_t, w.n_x, w.dt): the
    gradient of Field(w.values[::s], dt=s*w.dt), which has the same
    estimate.  The temporal part is the per-site sup of
    |w(t,x)-w(t',x)| / |t-t'|^((1+alpha)/2) over all time pairs.

    The sites are scanned in blocks, one site's series per _block_rows row,
    widest range first, so that the scan holds one block's series and
    scratch beside w, not copies of the whole field.  Within a block lags are visited in
    increasing order, and a site is skipped at a lag when
    B / (lag*dt)^((1+alpha)/2) is at most the running sup, B being
    the site's largest max - min over any window of 2^k consecutive
    times, 2^k the smallest window spanning the lag (the whole record's
    range when no window does).  Both times of a pair lie in one such
    window and rounding is monotone, so no rounded increment exceeds the
    rounded bound and a skipped pair cannot raise the sup: the result is
    bitwise the exhaustive scan's.  A NaN bound is never skipped, and a
    lag whose every site is skipped costs no subtraction.  A NaN increment
    raises ValueError naming a NaN sample.
    """
    s = _row_stride(w.n_t, w.n_x, w.dt)
    # the gradient is dropped before the temporal quotient takes its scratch
    grad_part = _max_component_theta(centered_gradient(Field(w.values[::s], dt=s * w.dt)), s * w.dt, alpha)
    return grad_part + _temporal_sup(w, alpha)


def _max_component_theta(slabs: np.ndarray, dt: float, alpha: float) -> float:
    """Max over a of the dyadic Theta of slabs[:, a] (Theta ignores t_start); slabs is (n_t, d) + grid."""
    out = 0.0
    for a in range(slabs.shape[1]):
        out = max(out, seminorm_dyadic(Field(slabs[:, a], dt=dt), alpha).theta)
    return out


def _temporal_sup(w: Field, alpha: float) -> float:
    """The temporal part of c1alpha_seminorm, pruned per site and lag.

    The sites are scanned a _block_rows block at a time, widest
    whole-record range first, each block over every lag, with one running sup across
    blocks.  Every m / denom of a block is one the whole-field scan could
    compare, and a max over blocks of max / denom is the max over all
    sites, so the result keeps its bits in any site order; the widest
    sites first raise the sup early, so that it prunes the other blocks.
    """
    expo = (1.0 + alpha) / 2.0
    n_t = w.n_t
    flat = w.values.reshape(n_t, -1)
    denoms = [(lag * w.dt) ** expo for lag in range(1, n_t)]
    levels = max(n_t.bit_length() - 1, 0)  # the whole-record row of the bound table
    # per lag, the row of the smallest window spanning it
    rows = [min(lag.bit_length() - 1, levels) for lag in range(1, n_t)]
    lag_rows, lag_denoms = np.array(rows, dtype=np.intp), np.array(denoms)
    # one block's contiguous time series, then per lag its gathered sites and differences
    block = _block_rows(8 * n_t, flat.shape[1])
    series_buf = np.empty((block, n_t))
    buf = np.empty(series_buf.size)
    order = np.argsort(-np.ptp(flat, axis=0), kind="stable")
    temporal = 0.0
    for c0 in range(0, flat.shape[1], block):
        series = series_buf[: flat.shape[1] - c0]
        series[...] = flat[:, order[c0 : c0 + block]].T  # gathering sites is cheap in this layout
        bounds = _windowed_ranges(series)
        widest = bounds.max(axis=1)  # per row; NaN if any bound is NaN
        # the lags whose widest bound beats the sup at the block's start; the
        # sup only grows, so every other lag would be skipped below
        scan = np.flatnonzero(~(widest[lag_rows] / lag_denoms <= temporal)).tolist()
        widest = widest.tolist()
        for i in scan:
            lag, denom, row = i + 1, denoms[i], rows[i]
            # continue, not break: pow is not guaranteed monotone in lag
            if widest[row] / denom <= temporal:
                continue
            sites = np.flatnonzero(~(bounds[row] / denom <= temporal))
            k, span = sites.size, n_t - lag
            if k * (span + n_t) <= buf.size:
                # gather into the tail of buf, clear of the differences; "clip"
                # (the indices are in range) lets take write out unbuffered
                at = np.take(series, sites, axis=0, out=buf[buf.size - k * n_t :].reshape(k, n_t), mode="clip")
            else:
                at, k = series, series.shape[0]  # scanning every site needs no second copy
            diff = np.subtract(at[:, lag:], at[:, :-lag], out=buf[: k * span].reshape(k, span))
            m = float(np.abs(diff, out=diff).max())
            if m != m:
                raise _nan_error(w.values)
            temporal = max(temporal, m / denom)
    return temporal
