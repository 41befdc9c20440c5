"""Gamma and Mittag-Leffler evaluation plus the exponential-domination
certificate used by the Gronwall machinery.

The two-parameter function used throughout is

    ml(beta, c, z) = sum_{k>=0} z^(beta*k) / Gamma(k*beta + c),

so ml(1, 1, z) = exp(z) and the derivative in z of ml(beta, 1, .) satisfies
the identity d/dz ml(beta, 1, z) = z^(beta-1) * ml(beta, beta, z), which is
how the derivative is evaluated (never by term-wise differentiation).

Series terms are computed as exp(k*beta*log z - lgamma(k*beta + c)) so large
arguments stay in range; a configurable overflow horizon (default 350, the
largest z with exp(2z) representable) bounds the admissible z.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericsError

#: largest argument for which exp(2 z) is representable in binary64
OVERFLOW_HORIZON = 350.0

_REL_TOL = 1e-16
_MAX_TERMS = 40000


class MlBoundCertificate:
    """Record that ml'(beta,1,z) <= m_beta * exp(2 z) held on [z_min, z_max].

    Verified pointwise on a dense grid; m_beta carries a 10 percent safety
    margin and is rounded up to the dyadic grid of resolution 2**-20.
    """

    __slots__ = ("beta", "m_beta", "z_min", "z_max", "n_grid")

    def __init__(self, beta: float, m_beta: float, z_min: float, z_max: float, n_grid: int):
        self.beta = float(beta)
        self.m_beta = float(m_beta)
        self.z_min = float(z_min)
        self.z_max = float(z_max)
        self.n_grid = int(n_grid)

    def verify(self, zs) -> bool:
        """Re-check the certified inequality on fresh points of the interval."""
        zs = np.asarray(zs, dtype=float)
        if np.any(zs < self.z_min) or np.any(zs > self.z_max):
            raise ValueError("verification points must lie inside [z_min, z_max]")
        lhs = ml_derivative_array(self.beta, zs)
        return bool(np.all(lhs <= self.m_beta * np.exp(2.0 * zs)))


def gamma_fn(z: float) -> float:
    """Gamma function for positive real arguments."""
    if z <= 0:
        raise ValueError(f"gamma_fn requires z > 0, got {z}")
    return math.gamma(z)


def mittag_leffler_array(beta: float, c: float, z, horizon: float = OVERFLOW_HORIZON) -> np.ndarray:
    """Vectorized series evaluation of ml(beta, c, .) on nonnegative arguments."""
    if beta <= 0 or c <= 0:
        raise ValueError("beta and c must be positive")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be nonnegative")
    if np.any(z > horizon):
        raise NumericsError(f"argument exceeds the overflow horizon {horizon}",
                            z_max=float(np.max(z)), horizon=horizon)
    out = np.full(z.shape, 1.0 / math.gamma(c))
    with np.errstate(divide="ignore"):
        logz = np.where(z > 0, np.log(z), -np.inf)
    zmax = float(np.max(z)) if z.size else 0.0
    k = 1
    while True:
        term = np.exp(k * beta * logz - math.lgamma(k * beta + c))
        out += term
        past_peak = k * beta + c > zmax + 1.0
        if past_peak and np.all(term <= _REL_TOL * out):
            break
        k += 1
        if k > _MAX_TERMS:
            raise NumericsError("Mittag-Leffler series did not converge", beta=beta, c=c)
    return out


@functools.lru_cache(maxsize=256)
def mittag_leffler(beta: float, c: float, z: float, horizon: float = OVERFLOW_HORIZON) -> float:
    """Series value of ml(beta, c, z) with term-ratio stopping.

    Memoized on the arguments: every BoundConstants derivation asks for the
    same ml(1 - sigma_f, 1, z_min).
    """
    return float(mittag_leffler_array(beta, c, np.asarray([z]), horizon)[0])


def ml_derivative_array(beta: float, z, horizon: float = OVERFLOW_HORIZON) -> np.ndarray:
    """d/dz ml(beta, 1, z) through the identity z^(beta-1) * ml(beta, beta, z)."""
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise ValueError("z must be positive; the factor z^(beta-1) is singular at 0")
    return z ** (beta - 1.0) * mittag_leffler_array(beta, beta, z, horizon)


def ml_derivative(beta: float, z: float, horizon: float = OVERFLOW_HORIZON) -> float:
    return float(ml_derivative_array(beta, np.asarray([z]), horizon)[0])


@functools.lru_cache(maxsize=64)
def certify_ml_bound(beta: float, z_min: float, z_max: float, n_grid: int = 1000) -> MlBoundCertificate:
    """Smallest dyadic m_beta with ml'(beta,1,z) <= m_beta exp(2z) on the grid.

    The certificate carries a 10 percent margin on top of the grid supremum of
    ml'(beta,1,z) * exp(-2z) and is rounded up to a multiple of 2**-20. The
    bound is always certifiable because exp(2z) dominates the exp(z)-order
    growth of the derivative.

    Memoized on the arguments: constant derivations and every m_big
    bisection step ask for the same few certificates. Callers share the
    returned certificate and must not modify it.
    """
    if not 1.0 < z_min < z_max:
        raise ValueError("need 1 < z_min < z_max")
    zs = np.linspace(z_min, z_max, n_grid)
    log_ratio = ((beta - 1.0) * np.log(zs)
                 + np.log(mittag_leffler_array(beta, beta, zs)) - 2.0 * zs)
    sup_ratio = float(np.exp(np.max(log_ratio)))
    m_raw = 1.1 * sup_ratio
    m_beta = math.ceil(m_raw * 2.0 ** 20) / 2.0 ** 20
    return MlBoundCertificate(beta, m_beta, z_min, z_max, n_grid)
