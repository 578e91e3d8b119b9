"""Flux nonlinearities with certified ellipticity and Lipschitz constants.

Built-in fluxes act componentwise, so the Jacobian is diagonal and its
eigenvalues are available in closed form.  The upper ellipticity bound is
normalized to one; user-supplied fluxes must be pre-scaled to respect it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import _plain, check

# max_q |d/dq sech^2(q)| = 4/(3*sqrt(3)), attained where tanh(q) = 1/sqrt(3)
SECH2_SLOPE_MAX = 4.0 / (3.0 * np.sqrt(3.0))


@dataclass(frozen=True)
class Nonlinearity:
    """A flux q -> A(q) with diagonal Jacobian q -> diag(DA(q)).

    a maps an array of gradient components to the flux, componentwise.
    da returns the diagonal Jacobian entries at the same shape.  lam is
    the declared ellipticity floor, Lam the declared Lipschitz constant
    of DA; both are promises checked by verify_ellipticity, not enforced
    at call time.  writes_out says that a also takes a buffer out of q's
    shape, a(q, out=out), and writes the flux there; the solver's march
    then steps without allocating the flux.
    """

    kind: str
    lam: float
    Lam: float
    a: Callable[[np.ndarray], np.ndarray]
    da: Callable[[np.ndarray], np.ndarray]
    writes_out: bool = False

    def __repr__(self):
        return f"Nonlinearity({self.kind!r}, lam={self.lam}, Lam={self.Lam})"


def builtin(kind: str, lam: float = 1.0) -> Nonlinearity:
    """Built-in fluxes.

    identity: A(q) = q, Jacobian I, lam = 1, Lam = 0.
    tanh_perturbed: A(q) = lam*q + (1-lam)*tanh(q) componentwise, Jacobian
    diag(lam + (1-lam)*sech^2(q)) with eigenvalues confined to [lam, 1]
    and Lipschitz constant (1-lam)*4/(3*sqrt(3)).
    """
    check(nl_kind=kind, nl_lambda=lam)
    if kind == "identity":
        return Nonlinearity("identity", 1.0, 0.0, lambda q: np.asarray(q, float), _ones_like)
    lam = float(lam)
    rest = 1.0 - lam

    def a(q, out=None):
        # lam*q + (1-lam)*tanh(q), in place on the tanh array (a scalar
        # for 0-d q, which the augmented operators simply rebind)
        q = np.asarray(q, dtype=np.float64)
        out = np.tanh(q, out=out)
        out *= rest
        out += lam * q
        return out

    def da(q):
        q = np.asarray(q, dtype=np.float64)
        return lam + (1.0 - lam) / np.cosh(q) ** 2

    return Nonlinearity("tanh_perturbed", lam, (1.0 - lam) * SECH2_SLOPE_MAX, a, da, writes_out=True)


def _ones_like(q):
    return np.ones_like(np.asarray(q, dtype=np.float64))


@dataclass
class EllipticityReport:
    """Sampled verdict on the ellipticity and Lipschitz declarations.

    violations holds the first ten failed samples, in the order of the
    checks (rayleigh, opnorm, lipschitz).
    """

    kind: str
    n_samples: int
    radius: float
    seed: int
    min_rayleigh: float
    max_opnorm: float
    max_lipschitz_ratio: float
    passed: bool
    violations: list = field(default_factory=list)

    to_dict = _plain


def verify_ellipticity(
    nl: Nonlinearity, n_samples: int, radius: float, seed: int, d: int = 1
) -> EllipticityReport:
    """Randomized check of the declared lam, upper bound 1, and Lam.

    Samples q, q' uniformly in the radius ball and directions xi on the
    unit sphere; PASS needs min Rayleigh quotient >= lam - 1e-12, operator
    norm <= 1 + 1e-12, and Lipschitz ratio <= Lam*(1 + 1e-6).  Violations
    are reported, not raised; bad arguments raise before any sampling.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius}")
    check(d=d)
    rng = np.random.default_rng(seed)
    q = _ball(rng, n_samples, d, radius)
    q2 = _ball(rng, n_samples, d, radius)
    xi = rng.standard_normal((n_samples, d))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)

    diag = nl.da(q)
    rayleigh = np.sum(diag * xi * xi, axis=1)  # xi . DA(q) xi, |xi| = 1
    opnorm = np.linalg.norm(diag * xi, axis=1)
    dq = np.linalg.norm(q2 - q, axis=1)
    ddiag = np.max(np.abs(nl.da(q2) - diag), axis=1)  # diagonal operator norm
    with np.errstate(invalid="ignore", divide="ignore"):
        lip = np.where(dq > 0, ddiag / dq, 0.0)

    violations = []
    for i in np.nonzero(rayleigh < nl.lam - 1e-12)[0][:10]:
        violations.append({"check": "rayleigh", "q": q[i].tolist(), "value": float(rayleigh[i])})
    for i in np.nonzero(opnorm > 1.0 + 1e-12)[0][:10]:
        violations.append({"check": "opnorm", "q": q[i].tolist(), "value": float(opnorm[i])})
    for i in np.nonzero(lip > nl.Lam * (1.0 + 1e-6))[0][:10]:
        violations.append(
            {"check": "lipschitz", "q": q[i].tolist(), "q2": q2[i].tolist(), "value": float(lip[i])}
        )
    return EllipticityReport(
        kind=nl.kind,
        n_samples=int(n_samples),
        radius=float(radius),
        seed=int(seed),
        min_rayleigh=float(np.min(rayleigh)),
        max_opnorm=float(np.max(opnorm)),
        max_lipschitz_ratio=float(np.max(lip)),
        passed=not violations,
        violations=violations[:10],
    )


def _ball(rng, n, d, radius):
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * radius * rng.random((n, 1)) ** (1.0 / d)
