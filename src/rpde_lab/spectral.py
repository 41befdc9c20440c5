"""Diagonal spectral model: fractional-power norms, semigroup, coefficients.

The operator is diagonal in a fixed orthonormal basis with eigenvalue
sequence mu_k. The default construction uses the Dirichlet Laplacian on the
unit interval shifted by lambda_a, i.e. mu_k = (k pi)^2 + lambda_a with
eigenfunctions sqrt(2) sin(k pi x). Fractional spaces are realized by the
weighted norms

    |x|_a = ( sum_k mu_k^(2a) x_k^2 )^(1/2),

so every smoothing constant is explicit. Two diffusion coefficients are
built in: a scaled fractional power of the (unshifted) Laplacian acting
diagonally, and a smoothing integral operator u -> int g(., u(x)) dx with a
smooth bounded kernel, discretized with fixed Gauss-Legendre quadrature so the
operator and its Frechet derivatives are mutually consistent.

The drift coefficient is a mode-wise saturating map scaled by mu_k^sigma_f,
which makes its Lipschitz constant from E_alpha to E_(alpha-sigma_f) exactly
c_f.
"""

from __future__ import annotations

import math

import numpy as np

from .configio import get_finite, get_typed, load_kv_file
from .errors import ConfigError

_G_KINDS = ("linear", "integral")


def aligned_empty(shape) -> np.ndarray:
    """np.empty(shape) of float64 whose data starts on a 64-byte boundary.

    Where numpy's allocator places an array follows the allocation history,
    and elementwise loops over arrays off a cache-line boundary ran up to
    twice as slow; hot scratch buffers take their place from here instead.
    """
    size = math.prod(shape)
    raw = np.empty(8 * size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + 8 * size].view(np.float64).reshape(shape)


def smoothing_constant(sigma: float, lam: float, mu1: float) -> float:
    """Least per-mode constant with |S_t x|_(a+sigma) <= C exp(-lam t) t^-sigma |x|_a.

    Equals sup_u u^sigma exp(-(1 - lam/mu1) u) for the bottom eigenvalue mu1;
    requires sigma >= 0 and lam < mu1.
    """
    if sigma < 0:
        raise ConfigError("sigma must be nonnegative")
    if sigma == 0.0:
        return 1.0
    if lam >= mu1:
        raise ConfigError(f"decay rate {lam} must stay below mu_1 = {mu1}")
    rate = 1.0 - lam / mu1
    u = sigma / rate
    return u ** sigma * math.exp(-sigma)


class SpectralModel:
    """Immutable diagonal model with coefficient configuration."""

    __slots__ = ("n_modes", "mu", "lambda_a", "alpha", "sigma_f", "sigma_g",
                 "c_f", "c_g", "g_kind", "lap", "_nodes", "_weights", "_basis",
                 "_f_scale", "_g_scale", "_k_scale", "_k_shift")

    def __init__(self, n_modes: int, lambda_a: float, alpha: float = 0.0,
                 sigma_f: float = 0.0, sigma_g: float = 0.0,
                 c_f: float = 0.0, c_g: float = 0.0, g_kind: str = "linear",
                 mu=None, quad_points: int | None = None):
        if n_modes < 1:
            raise ConfigError("n_modes must be at least 1")
        if lambda_a <= 0:
            raise ConfigError("lambda_a must be positive")
        if not 0.0 <= sigma_f < 1.0:
            raise ConfigError("sigma_f must lie in [0, 1)")
        if sigma_g < 0:
            raise ConfigError("sigma_g must be nonnegative")
        if g_kind not in _G_KINDS:
            raise ConfigError(f"g_kind must be one of {_G_KINDS}")
        self.n_modes = int(n_modes)
        self.lambda_a = float(lambda_a)
        self.alpha = float(alpha)
        self.sigma_f = float(sigma_f)
        self.sigma_g = float(sigma_g)
        self.c_f = float(c_f)
        self.c_g = float(c_g)
        self.g_kind = g_kind
        if mu is None:
            k = np.arange(1, n_modes + 1, dtype=float)
            lap = (k * np.pi) ** 2
            mu = lap + lambda_a
        else:
            mu = np.array(mu, dtype=float)
            if mu.shape != (n_modes,):
                raise ConfigError("custom eigenvalues must match n_modes")
            lap = mu - lambda_a
            if np.any(lap < 0):
                raise ConfigError("custom eigenvalues must dominate lambda_a")
        if np.any(np.diff(mu) <= 0):
            raise ConfigError("eigenvalues must be strictly increasing")
        if mu[0] < lambda_a:
            raise ConfigError("mu_1 must be at least lambda_a")
        self.mu = mu
        self.lap = lap
        self.mu.flags.writeable = False
        self.lap.flags.writeable = False
        self._f_scale = self.c_f * self.mu ** self.sigma_f
        self._g_scale = self.c_g * self.lap ** self.sigma_g
        if g_kind == "integral":
            nq = quad_points if quad_points is not None else max(128, 4 * self.n_modes)
            nodes, weights = np.polynomial.legendre.leggauss(nq)
            self._nodes = 0.5 * (nodes + 1.0)
            self._weights = 0.5 * weights
            k = np.arange(1, self.n_modes + 1, dtype=float)
            self._basis = np.sqrt(2.0) * np.sin(np.pi * np.outer(k, self._nodes))
            # the kernel g(xi, v) = c_g sin(pi xi) tanh(v + cos(pi xi)/2), which
            # vanishes on the boundary, as scale and shift on full (q, q) grids:
            # contiguous operands run faster than broadcast columns
            xi = self._nodes[:, None]
            self._k_scale = np.repeat(self.c_g * np.sin(np.pi * xi), nq, axis=1)
            self._k_shift = np.repeat(0.5 * np.cos(np.pi * xi), nq, axis=1)
        else:
            self._nodes = self._weights = self._basis = self._k_scale = self._k_shift = None

    # -- spaces ---------------------------------------------------------

    def frac_norm(self, coeffs, alpha: float) -> float:
        """Norm of a coefficient array in the fractional space of index alpha."""
        coeffs = np.asarray(coeffs, dtype=float)
        w = self.mu ** (2.0 * alpha)
        return float(np.sqrt(np.sum(w * coeffs * coeffs)))

    def frac_norm_rows(self, rows: np.ndarray, alpha: float) -> np.ndarray:
        """Row-wise fractional norms of a (n, n_modes) array."""
        w = self.mu ** (2.0 * alpha)
        return np.sqrt((rows * rows) @ w)

    # -- semigroup ------------------------------------------------------

    def semigroup_factors(self, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError("semigroup time must be nonnegative")
        return np.exp(-self.mu * t)

    # -- drift ----------------------------------------------------------

    def f_values(self, y: np.ndarray) -> np.ndarray:
        """The drift c_f mu^sigma_f tanh(y) of a coefficient array: mode-wise
        saturating, Lipschitz c_f from alpha to alpha - sigma_f."""
        return self._f_scale * np.tanh(y)

    # -- diffusion ------------------------------------------------------

    def _point_values(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs @ self._basis

    def _project(self, point_vals: np.ndarray) -> np.ndarray:
        return self._basis @ (self._weights * point_vals)

    def kernel_work(self) -> np.ndarray | None:
        """Scratch for g_values / g_and_dg: the kernel's grid and a work grid.

        Allocate it once per trajectory; None for the linear model, which has
        no grid. It starts on a 64-byte boundary (aligned_empty): the grid
        step ran about a fifth slower when it did not.
        """
        if self.g_kind == "linear":
            return None
        q = self._nodes.size
        return aligned_empty((2, q, q))

    def _kernel_grid(self, u: np.ndarray, work: np.ndarray) -> np.ndarray:
        # the kernel's grid tanh(u(x_j) + cos(pi xi_i)/2) into work[0]
        np.add(u, self._k_shift, out=work[0])
        np.tanh(work[0], out=work[0])
        return work

    def g_values(self, y: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """Diffusion coefficient G(y) of a coefficient array.

        The integral diffusion leaves its tanh grid in work[0], where g_and_dg reuses it.
        """
        if self.g_kind == "linear":
            return self._g_scale * y
        grid, scratch = self._kernel_grid(self._point_values(y),
                                          work if work is not None else self.kernel_work())
        return self._project(np.multiply(self._k_scale, grid, out=scratch) @ self._weights)

    def _dg_on_grid(self, work: np.ndarray, h: np.ndarray) -> np.ndarray:
        # DG(y)[h] of the integral diffusion from the grid in work[0]
        grid, scratch = work
        np.multiply(grid, grid, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.multiply(self._k_scale, scratch, out=scratch)
        scratch *= self._point_values(h)
        return self._project(scratch @ self._weights)

    def g_and_dg(self, y: np.ndarray, work: np.ndarray | None = None):
        """(G(y), DG(y)[G(y)]): the two noise weights of one Euler step.

        The integral diffusion evaluates its tanh grid once for both; the
        linear model returns (scale y, scale G(y)).
        """
        if self.g_kind == "linear":
            g = self._g_scale * y
            return g, self._g_scale * g
        if work is None:
            work = self.kernel_work()
        g = self.g_values(y, work)
        return g, self._dg_on_grid(work, g)

    def diffusion_key(self, y: np.ndarray) -> bytes:
        """Bytes that fix g_and_dg(y): rows with equal keys get the same pair bitwise.

        The integral diffusion reads y only through its point values u = y @ basis:
        g_values builds its grid from u, and DG(y)[h] reads that grid and
        h = G(y), itself fixed by u. So the key is the bytes of u, from the
        product g_values takes. The linear diffusion reads y itself.
        """
        if self.g_kind == "linear":
            return y.tobytes()
        return self._point_values(y).tobytes()

    @property
    def c_g_bound(self) -> float:
        """Effective bound for the diffusion coefficient and its derivatives.

        For the diagonal fractional power the operator norm from index a to
        a - sigma_g is below |c_g| since the unshifted eigenvalues stay below
        the shifted ones; the integral operator's kernel and its derivatives
        in v stay below 2 |c_g|.
        """
        return abs(self.c_g) if self.g_kind == "linear" else 2.0 * abs(self.c_g)


def model_from_config(path: str) -> SpectralModel:
    """A model from a key-value file of SpectralModel's scalar arguments, floats finite."""
    cfg = load_kv_file(path)
    return SpectralModel(
        n_modes=get_typed(cfg, "n_modes", int),
        lambda_a=get_finite(cfg, "lambda_a"),
        alpha=get_finite(cfg, "alpha", 0.0),
        sigma_f=get_finite(cfg, "sigma_f", 0.0),
        sigma_g=get_finite(cfg, "sigma_g", 0.0),
        c_f=get_finite(cfg, "c_f", 0.0),
        c_g=get_finite(cfg, "c_g", 0.0),
        g_kind=cfg.get("g_kind", "linear"),
        quad_points=get_typed(cfg, "quad_points", int, 0) or None,
    )
