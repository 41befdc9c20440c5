"""Grid rough paths: canonical lifts, fBm sampling, seminorms, metric, shifts.

A rough path here is a scalar path X sampled on a uniform grid together with
its second level XX over consecutive grid cells. Values over non-adjacent
grid pairs are reconstructed through Chen's relation

    XX[s,t] = XX[s,u] + XX[u,t] + X[s,u] * X[u,t],        s <= u <= t,

which is exact for the per-cell storage (prefix-sum closed form below).

Time shifts act by slicing: the object keeps the originally sampled values
(`x_raw`) and only the exposed first level is re-zeroed. Every two-point
quantity is computed from raw differences inside a window slice, so Hoelder
seminorms, controls and solver increments of a shifted path are bit-for-bit
equal to the same quantities of the original path on the shifted window.

Exponent convention: gamma in (1/3, 1/2] for the first level, 2*gamma for
the second level.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericsError

_GRID_RTOL = 1e-9
# columns of pair values built per block by the window kernels (the pair
# suprema here and the greedy DP); the 32-cell unit windows of the
# absorbing-radius pipeline fit in one block
BLOCK = 64
# windows evaluated together by the batched window kernels (window_seminorms
# here, greedy.window_counts): memory is O(CHUNK * cells^2) whatever the
# number of windows
CHUNK = 16


class GridRoughPath:
    """First and second rough-path level on a uniform grid.

    Attributes:
        t0: start time of the grid.
        dt: grid step, positive.
        x: first-level values with x[0] == 0 (re-zeroed view of x_raw).
        xx: second-level values over consecutive cells, len(x) - 1 entries.
        gamma: Hoelder exponent in (1/3, 1/2].
    """

    __slots__ = ("t0", "dt", "x", "xx", "gamma", "x_raw")

    def __init__(self, t0: float, dt: float, x, xx, gamma: float, x_raw=None):
        x = np.asarray(x, dtype=float)
        xx = np.asarray(xx, dtype=float)
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if x.ndim != 1 or x.size < 2:
            raise ValueError("x must hold at least two grid values")
        if xx.shape != (x.size - 1,):
            raise ValueError(f"xx must have one entry per cell, got {xx.shape}")
        if not 1.0 / 3.0 < gamma <= 0.5:
            raise ValueError(f"gamma must lie in (1/3, 1/2], got {gamma}")
        if x_raw is None:
            x_raw = x
        else:
            x_raw = np.asarray(x_raw, dtype=float)
            if x_raw.shape != x.shape:
                raise ValueError("x_raw must match x in shape")
        if x[0] != 0.0:
            raise ValueError("first level must be re-zeroed: x[0] == 0")
        if not (np.all(np.isfinite(x_raw)) and np.all(np.isfinite(xx))):
            raise ValueError("non-finite path values")
        self.t0 = float(t0)
        self.dt = float(dt)
        self.x = x
        self.xx = xx
        self.gamma = float(gamma)
        self.x_raw = x_raw
        for arr in (self.x, self.xx, self.x_raw):
            arr.flags.writeable = False

    @property
    def n_cells(self) -> int:
        return self.x.size - 1

    @property
    def end_time(self) -> float:
        return self.t0 + self.n_cells * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.x.size)

    def index(self, t: float) -> int:
        """Grid index of time t; raises if t is off the grid or outside it."""
        k = round((t - self.t0) / self.dt)
        if k < 0 or k > self.n_cells or abs(self.t0 + k * self.dt - t) > _GRID_RTOL * max(self.dt, 1.0):
            raise ValueError(f"time {t} is not a grid point of [{self.t0}, {self.end_time}] with dt={self.dt}")
        return int(k)

    def interval_slice(self, interval=None) -> tuple[int, int]:
        """Interval (s, t) -> index pair (i, j), defaulting to the full grid."""
        if interval is None:
            return 0, self.n_cells
        s, t = interval
        i, j = self.index(s), self.index(t)
        if i > j:
            raise ValueError(f"empty interval orientation: ({s}, {t})")
        return i, j

    def increment(self, i: int, j: int) -> float:
        return self.x_raw[j] - self.x_raw[i]

    def second_level(self, i: int, j: int) -> float:
        """XX over [t_i, t_j] via Chen aggregation of the stored cells."""
        if j <= i:
            return 0.0
        raw = self.x_raw
        d = np.diff(raw[i:j + 1])
        return float(np.sum(self.xx[i:j]) + np.sum((raw[i:j] - raw[i]) * d))

    def window(self, s: float, t: float) -> "GridRoughPath":
        """Sub-path on [s, t], raw values preserved (bitwise-stable increments)."""
        i, j = self.index(s), self.index(t)
        if j - i < 1:
            raise ValueError("window must contain at least one cell")
        raw = self.x_raw[i:j + 1]
        return GridRoughPath(self.t0 + i * self.dt, self.dt, raw - raw[0],
                             self.xx[i:j], self.gamma, x_raw=raw)

    def __repr__(self) -> str:
        return (f"GridRoughPath(t0={self.t0}, dt={self.dt}, cells={self.n_cells}, "
                f"gamma={self.gamma})")


class HolderReport:
    """Hoelder seminorms of both levels and their sum on one interval."""

    __slots__ = ("seminorm_x", "seminorm_xx", "rho", "interval")

    def __init__(self, seminorm_x: float, seminorm_xx: float, interval):
        self.seminorm_x = float(seminorm_x)
        self.seminorm_xx = float(seminorm_xx)
        self.rho = self.seminorm_x + self.seminorm_xx
        self.interval = (float(interval[0]), float(interval[1]))


def lift_piecewise_linear(samples, t0: float, dt: float, gamma: float = 0.5) -> GridRoughPath:
    """Canonical lift of the piecewise-linear interpolant of sampled values.

    Over one cell the iterated integral of a linear segment is exactly half the
    squared increment, so xx[k] = (x[k+1]-x[k])**2 / 2. The first value is
    shifted so the path starts at zero.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need at least two samples to lift")
    x = samples - samples[0]
    d = np.diff(x)
    xx = 0.5 * d * d
    return GridRoughPath(t0, dt, x, xx, gamma, x_raw=x)


def _fgn_autocov(n: int, hurst: float) -> np.ndarray:
    k = np.arange(n, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 + np.abs(k - 1) ** h2 - 2.0 * np.abs(k) ** h2)


def _fgn_davies_harte(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray | None:
    """Exact fGn sample by circulant embedding; None if the embedding fails."""
    row = _fgn_autocov(n, hurst)
    circ = np.concatenate([row, [0.0], row[1:][::-1]])
    lam = np.fft.fft(circ).real
    if lam.min() < -1e-8 * lam.max():
        return None
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    z0, zn = rng.standard_normal(2)
    v = rng.standard_normal((n - 1, 2))
    z = np.empty(m, dtype=complex)
    z[0] = z0
    z[n] = zn
    z[1:n] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
    z[n + 1:] = np.conj(z[1:n][::-1])
    fgn = np.fft.ifft(np.sqrt(lam) * z).real[:n] * np.sqrt(m)
    return fgn


def _fgn_cholesky(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    row = _fgn_autocov(n, hurst)
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    cov = row[idx]
    cov[np.diag_indices_from(cov)] += 1e-12
    chol = np.linalg.cholesky(cov)
    return chol @ rng.standard_normal(n)


def sample_fbm(hurst: float, n_steps: int, seed: int, horizon: float = 1.0) -> np.ndarray:
    """Exact-in-law fBm sample: n_steps increments on [0, horizon], X[0] = 0.

    Uses i.i.d. Gaussian increments for H = 1/2, the degenerate line t*Z for
    H = 1, circulant embedding of the fGn covariance otherwise (Cholesky as
    fallback when the embedding is not nonnegative definite). Deterministic
    for a fixed (hurst, n_steps, seed, horizon).
    """
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    if not 1.0 / 3.0 < hurst <= 1.0:
        raise ValueError(f"hurst must lie in (1/3, 1], got {hurst}")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    dt = horizon / n_steps
    if hurst == 1.0:
        z = rng.standard_normal()
        incr = np.full(n_steps, z * dt)
    elif hurst == 0.5:
        incr = rng.standard_normal(n_steps) * np.sqrt(dt)
    else:
        fgn = _fgn_davies_harte(n_steps, hurst, rng)
        if fgn is None:
            if n_steps > 4096:
                raise NumericsError("circulant embedding failed and n_steps too large for Cholesky",
                                    n_steps=n_steps, hurst=hurst)
            fgn = _fgn_cholesky(n_steps, hurst, np.random.default_rng(seed))
        incr = fgn * dt ** hurst
    out = np.empty(n_steps + 1)
    out[0] = 0.0
    np.cumsum(incr, out=out[1:])
    return out


def _window_arrays(rp: GridRoughPath, interval=None):
    i, j = rp.interval_slice(interval)
    return rp.x_raw[i:j + 1], rp.xx[i:j]


def _prefix_sums(raw: np.ndarray, xx: np.ndarray):
    """Prefix sums xxc and a of the window, accumulated from its start.

    xxc[m] = sum_{k<m} xx[k] and a[m] = sum_{k<m} raw[k]*(raw[k+1]-raw[k]).
    np.cumsum adds sequentially, so a window cut short at any column carries
    the same prefix sums, bit for bit, as the full window. Leading axes of raw
    and xx index a batch of windows of one length.
    """
    xxc = np.zeros(raw.shape)
    np.cumsum(xx, axis=-1, out=xxc[..., 1:])
    a = np.zeros(raw.shape)
    np.cumsum(raw[..., :-1] * np.diff(raw), axis=-1, out=a[..., 1:])
    return xxc, a


def _chen_pairs(raw: np.ndarray, xxc: np.ndarray, a: np.ndarray, rows, cols) -> np.ndarray:
    """Second level XX[i, j] over the rows i and the columns j of the window.

    XX[i, j] = (xxc[j]-xxc[i]) + (a[j]-a[i]) - raw[i]*(raw[j]-raw[i]) with the
    prefix sums of _prefix_sums; rows and cols are slices or index arrays.
    Each entry is the same elementwise expression whatever the selection, so
    it is bitwise the entry of the full block. Entries with j <= i are not
    meaningful.
    """
    xi, ai, ri = xxc[..., rows, None], a[..., rows, None], raw[..., rows, None]
    xj, aj, rj = xxc[..., None, cols], a[..., None, cols], raw[..., None, cols]
    return (xj - xi) + (aj - ai) - ri * (rj - ri)


def _second_level_block(raw: np.ndarray, xx: np.ndarray, c0: int = 0) -> np.ndarray:
    """Second level of the window over every row i and the columns j >= c0,
    by _chen_pairs on the window's prefix sums."""
    return _chen_pairs(raw, *_prefix_sums(raw, xx), slice(None), slice(c0, None))


@functools.lru_cache(maxsize=16)
def _lag_table(m: int, dt: float, p: float) -> np.ndarray:
    """table[m - 1 + lag] = (lag * dt) ** p for lag = 1, ..., m, and inf for
    lag = 1 - m, ..., 0; each weight by Python's scalar pow. Built once per
    (m, dt, p) and returned read-only."""
    table = np.array([math.inf] * m + [(lag * dt) ** p for lag in range(1, m + 1)])
    table.flags.writeable = False
    return table


def _pair_sups(values, m: int, dt: float, exponents) -> list[float]:
    """Sup over grid pairs 0 <= i < j <= m of value[i, j] / ((j - i) * dt) ** p.

    values(c0, c1) returns one array of nonnegative pair values per exponent,
    over the rows i = 0, ..., c1 - 1 and the columns j = c0, ..., c1 - 1;
    entries with j <= i are ignored. The columns are walked BLOCK at a time,
    so memory is O(m * BLOCK) and no m x m array is built. Each lag weight is
    evaluated once, by Python's scalar pow, and read through a Toeplitz view
    that holds inf where j <= i. A correctly rounded division is monotone, so
    the largest value / weight of a lag is the lag's largest value over its
    weight: the result equals the lag-by-lag supremum bit for bit.
    """
    tables = [_lag_table(m, dt, p) for p in exponents]
    best = [0.0] * len(tables)
    c0 = 1
    with np.errstate(invalid="ignore"):  # inf / inf = nan on an ignored entry; fmax skips it
        while c0 <= m:
            c1 = min(c0 + BLOCK, m + 1)
            for k, vals in enumerate(values(c0, c1)):
                weight = sliding_window_view(tables[k][m + c0 - c1:m + c1 - 1], c1 - c0)[::-1]
                best[k] = float(np.fmax.reduce(vals / weight, axis=None, initial=best[k]))
            c0 = c1
    return best


def holder_seminorm(rp: GridRoughPath, interval=None) -> HolderReport:
    """Grid-restricted Hoelder seminorms of both levels over the interval.

    [X]_gamma is the sup of |X[s,t]| / (t-s)^gamma over grid pairs, and
    [XX]_2gamma the sup of the Chen-reconstructed |XX[s,t]| / (t-s)^(2 gamma).
    The interval defaults to the whole grid; an empty one gives zeros.
    """
    raw, xx = _window_arrays(rp, interval)

    def values(c0, c1):
        return (np.abs(raw[c0:c1] - raw[:c1, None]),
                np.abs(_second_level_block(raw[:c1], xx[:c1 - 1], c0)))

    sx, sxx = _pair_sups(values, raw.size - 1, rp.dt, (rp.gamma, 2.0 * rp.gamma))
    return HolderReport(sx, sxx, (rp.t0, rp.end_time) if interval is None else interval)


def _window_starts(rp: GridRoughPath, starts, cells: int) -> np.ndarray:
    """Grid indices a of the windows [t_a, t_(a + cells)] as an array; each
    window must hold at least one cell and lie on the grid."""
    starts = np.asarray(starts, dtype=np.intp)
    if cells < 1 or starts.size and (starts.min() < 0 or starts.max() + cells > rp.n_cells):
        raise ValueError(f"windows of {cells} cells must start in [0, {rp.n_cells - cells}]")
    return starts


def window_seminorms(rp: GridRoughPath, starts, cells: int):
    """[X]_gamma and [XX]_2gamma of the windows [t_a, t_(a + cells)], a in starts.

    starts are grid indices, in any order and with repeats. The windows are
    evaluated CHUNK at a time, each pair value by the formulas of
    holder_seminorm and over the same scalar-pow lag weights, so every entry
    equals holder_seminorm over the same window bit for bit. Returns two
    arrays aligned with starts.
    """
    starts = _window_starts(rp, starts, cells)
    raw = sliding_window_view(rp.x_raw, cells + 1)
    xx = sliding_window_view(rp.xx, cells)
    # weight[i, j - 1] of the pair (i, j): inf where j <= i
    weights = [sliding_window_view(_lag_table(cells, rp.dt, p), cells)[::-1]
               for p in (rp.gamma, 2.0 * rp.gamma)]
    sx = np.empty(starts.size)
    sxx = np.empty(starts.size)
    for c in range(0, starts.size, CHUNK):
        chunk = starts[c:c + CHUNK]
        r = raw[chunk]
        vals = (np.abs(r[:, None, 1:] - r[:, :, None]),
                np.abs(_second_level_block(r, xx[chunk], 1)))
        for out, v, weight in zip((sx, sxx), vals, weights):
            out[c:c + CHUNK] = np.fmax.reduce(v / weight, axis=(1, 2), initial=0.0)
    return sx, sxx


def rough_metric(a: GridRoughPath, b: GridRoughPath, interval=None) -> float:
    """Inhomogeneous rough-path distance on a common grid.

    Sum of the first-level seminorm of the difference path and the
    second-level seminorm of the difference of the Chen reconstructions.
    rho(a) is recovered as the distance of a to a zero path. Kept for the
    convergence of nested lifts, which no acceptance criterion covers.
    """
    if a.n_cells != b.n_cells or a.dt != b.dt or a.t0 != b.t0:
        raise ValueError("paths must share the same grid")
    if a.gamma != b.gamma:
        raise ValueError("paths must share the same Hoelder exponent")
    raw_a, xx_a = _window_arrays(a, interval)
    raw_b, xx_b = _window_arrays(b, interval)
    diff1 = (raw_a - raw_a[0]) - (raw_b - raw_b[0])

    def values(c0, c1):
        return (np.abs(diff1[c0:c1] - diff1[:c1, None]),
                np.abs(_second_level_block(raw_a[:c1], xx_a[:c1 - 1], c0)
                       - _second_level_block(raw_b[:c1], xx_b[:c1 - 1], c0)))

    best1, best2 = _pair_sups(values, raw_a.size - 1, a.dt, (a.gamma, 2.0 * a.gamma))
    return best1 + best2


def shift(rp: GridRoughPath, r: float) -> GridRoughPath:
    """Time shift by a grid multiple r >= 0: the sampled realization of theta_r.

    The returned path exposes X re-zeroed at the new origin while keeping the
    raw values, so seminorms, controls and greedy counts over [s, t] equal the
    originals over [s+r, t+r] exactly.
    """
    k = round(r / rp.dt)
    if abs(k * rp.dt - r) > _GRID_RTOL * max(rp.dt, 1.0):
        raise ValueError(f"shift {r} is not an integer multiple of dt={rp.dt}")
    if k < 0 or rp.n_cells - k < 1:
        raise ValueError(f"shifted window exceeds the sampled horizon (shift {r})")
    raw = rp.x_raw[k:]
    return GridRoughPath(rp.t0, rp.dt, raw - raw[0], rp.xx[k:], rp.gamma, x_raw=raw)


def coarsen(rp: GridRoughPath, factor: int) -> GridRoughPath:
    """Restriction to every factor-th grid point, second level Chen-aggregated.

    The noise of a solver step of factor cells (solver.solve_mild on the
    result), and the common coarse grid on which rough_metric compares lifts
    on nested dyadic grids, the convergence no acceptance criterion covers.
    """
    if factor < 1 or rp.n_cells % factor != 0:
        raise ValueError(f"factor {factor} must divide the cell count {rp.n_cells}")
    if factor == 1:
        return rp
    raw = rp.x_raw[::factor]
    n_coarse = rp.n_cells // factor
    xx = np.empty(n_coarse)
    for c in range(n_coarse):
        i = c * factor
        xx[c] = rp.second_level(i, i + factor)
    return GridRoughPath(rp.t0, rp.dt * factor, raw - raw[0], xx, rp.gamma, x_raw=raw)


def save_csv(rp: GridRoughPath, path: str) -> None:
    """Serialize as ``t,x,xx_cell`` rows; xx on the cell's left endpoint row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,x,xx_cell\n")
        times = rp.times
        for k in range(rp.x.size):
            xx = repr(float(rp.xx[k])) if k < rp.n_cells else ""
            fh.write(f"{float(times[k])!r},{float(rp.x[k])!r},{xx}\n")
