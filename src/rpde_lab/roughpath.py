"""Grid rough paths: canonical lifts, fBm sampling, seminorms, metric, shifts.

A rough path here is a scalar path X sampled on a uniform grid together with
its second level XX over consecutive grid cells. Values over non-adjacent
grid pairs are reconstructed through Chen's relation

    XX[s,t] = XX[s,u] + XX[u,t] + X[s,u] * X[u,t],        s <= u <= t,

which is exact for the per-cell storage (prefix-sum closed form below).

The first level is stored as the sampled values `x_raw`, which need not
start at zero: every two-point quantity is a difference of them, computed
inside a window slice. Windows and time shifts slice the samples, so Hoelder
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
# columns of pair values built per tile by the window kernels (the pair
# suprema here and the greedy DP); the 32-cell unit windows of the
# absorbing-radius pipeline fit in one tile
BLOCK = 64
# bytes of one array of pair values of the batched window kernels
# (window_seminorms here, greedy.window_constants): each takes as many windows
# or DP rows per call as keep its largest pair array within them (at least
# one), 31 of 32 cells and 7 of 64, whatever the number of windows; 2 ** 15
# and 2 ** 18 both ran the unit windows of absorb slower
PAIR_BYTES = 2 ** 17


class GridRoughPath:
    """First and second rough-path level on a uniform grid.

    Attributes:
        t0: start time of the grid.
        dt: grid step, positive.
        x_raw: sampled first-level values; X[s, t] = x_raw[t] - x_raw[s].
        xx: second-level values over consecutive cells, len(x_raw) - 1 entries.
        gamma: Hoelder exponent in (1/3, 1/2].
    """

    __slots__ = ("t0", "dt", "x_raw", "xx", "gamma")

    def __init__(self, t0: float, dt: float, x_raw, xx, gamma: float):
        # a writeable input may be the caller's own array: freeze a copy of it
        x_raw, xx = (a.copy() if a.flags.writeable else a
                     for a in (np.asarray(x_raw, dtype=float), np.asarray(xx, dtype=float)))
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if x_raw.ndim != 1 or x_raw.size < 2:
            raise ValueError("x_raw must hold at least two grid values")
        if xx.shape != (x_raw.size - 1,):
            raise ValueError(f"xx must have one entry per cell, got {xx.shape}")
        if not 1.0 / 3.0 < gamma <= 0.5:
            raise ValueError(f"gamma must lie in (1/3, 1/2], got {gamma}")
        if not (np.all(np.isfinite(x_raw)) and np.all(np.isfinite(xx))):
            raise ValueError("non-finite path values")
        self.t0 = float(t0)
        self.dt = float(dt)
        self.x_raw = x_raw
        self.xx = xx
        self.gamma = float(gamma)
        x_raw.flags.writeable = xx.flags.writeable = False

    @property
    def n_cells(self) -> int:
        return self.x_raw.size - 1

    @property
    def end_time(self) -> float:
        return self.t0 + self.n_cells * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.x_raw.size)

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
        return GridRoughPath(self.t0 + i * self.dt, self.dt, self.x_raw[i:j + 1],
                             self.xx[i:j], self.gamma)

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
    return GridRoughPath(t0, dt, x, xx, gamma)


def _fgn_davies_harte(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Exact fGn sample of n unit-step increments by circulant embedding.

    The circulant's first row is r(0), ..., r(n), r(n - 1), ..., r(1) with r
    the fGn autocovariance. That embedding is nonnegative definite for every
    hurst in (0, 1) (Dietrich and Newsam, SIAM J. Sci. Comput. 18, 1997), so
    an eigenvalue below rounding level is a numerical failure.
    """
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    row = 0.5 * (np.abs(k + 1) ** h2 + np.abs(k - 1) ** h2 - 2.0 * np.abs(k) ** h2)
    lam = np.fft.fft(np.concatenate([row, row[-2:0:-1]])).real
    if lam.min() < -1e-8 * lam.max():
        raise NumericsError("circulant embedding of the fGn covariance is not nonnegative",
                            n_steps=n, hurst=hurst, lambda_min=float(lam.min()))
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    z0, zn = rng.standard_normal(2)
    v = rng.standard_normal((n - 1, 2))
    z = np.empty(m, dtype=complex)
    z[0] = z0
    z[n] = zn
    z[1:n] = (v[:, 0] + 1j * v[:, 1]) / np.sqrt(2.0)
    z[n + 1:] = np.conj(z[1:n][::-1])
    return np.fft.ifft(np.sqrt(lam) * z).real[:n] * np.sqrt(m)


def sample_fbm(hurst: float, n_steps: int, seed: int, horizon: float = 1.0) -> np.ndarray:
    """Exact-in-law fBm sample: n_steps increments on [0, horizon], X[0] = 0.

    Uses i.i.d. Gaussian increments for H = 1/2, the degenerate line t*Z for
    H = 1, circulant embedding of the fGn covariance otherwise (O(n log n)
    time and O(n) memory at every hurst). Deterministic for a fixed (hurst,
    n_steps, seed, horizon).
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
        incr = _fgn_davies_harte(n_steps, hurst, rng) * dt ** hurst
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
    """_chen_at over the rows i and the columns j of the window (slices or index
    arrays), every pair of them; entries with j <= i are not meaningful."""
    return _chen_at(raw, xxc, a, (..., rows, None), (..., None, cols))


def _chen_at(raw: np.ndarray, xxc: np.ndarray, a: np.ndarray, i, j) -> np.ndarray:
    """Second level XX[i, j] at the pairs that the indices i and j select, by
    _chen_ends; the selections by i and by j broadcast to the shape of the
    result."""
    ri = raw[i]
    return _chen_ends(ri, raw[j] - ri, xxc[j] - xxc[i], a[j] - a[i])


def _chen_ends(ri, x, dc, da) -> np.ndarray:
    """XX[i, j] = (xxc[j]-xxc[i]) + (a[j]-a[i]) - raw[i]*(raw[j]-raw[i]) from
    raw[i], the increments x = raw[j] - raw[i], dc = xxc[j] - xxc[i] and
    da = a[j] - a[i], with xxc and a the prefix sums of _prefix_sums.

    Each entry is the same elementwise expression however the endpoints were
    gathered, so it is bitwise the entry of the full block. The sums are
    taken in place, in the order of the formula, in dc: a fresh array of
    the result's shape, which the result overwrites.
    """
    dc += da
    dc -= ri * x
    return dc


def _second_level_block(raw: np.ndarray, xx: np.ndarray, c0: int = 0) -> np.ndarray:
    """Second level of the window over every row i and the columns j >= c0,
    by _chen_pairs on the window's prefix sums."""
    return _chen_pairs(raw, *_prefix_sums(raw, xx), slice(None), slice(c0, None))


@functools.lru_cache(maxsize=16)
def _lag_table(m: int, dt: float, p: float) -> np.ndarray:
    """table[lag] = (lag * dt) ** p for lag = 1, ..., m, by Python's scalar
    pow, and nan at lag 0, which no pair has. Built once per (m, dt, p) and
    returned read-only."""
    table = np.array([math.nan] + [(lag * dt) ** p for lag in range(1, m + 1)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=BLOCK)
def _triangle(b: int):
    """Rows i and columns j of the pairs 0 <= i < j <= b, packed, read-only."""
    rows, cols = np.triu_indices(b + 1, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _rows_per_call(pairs: int) -> int:
    """Windows or DP rows per call of a batched kernel whose largest array of
    pair values holds pairs entries per row: PAIR_BYTES of float64."""
    return max(1, PAIR_BYTES // (8 * pairs))


def _fold_sups(best: list, values, lag, tables) -> None:
    """best[k] = fmax(best[k], sup of values[k] / tables[k][lag]) over the
    pair axes, the trailing lag.ndim axes of values[k]; leading axes index a
    batch of windows. A correctly rounded division is monotone, so the sup
    over the pairs of a lag is the lag's largest value over its weight, and
    fmax does not round: the result does not depend on how the pairs are
    grouped, bit for bit."""
    pair_axes = tuple(range(-lag.ndim, 0))
    for k, (vals, table) in enumerate(zip(values, tables)):
        best[k] = np.fmax(best[k], np.fmax.reduce(vals / table[lag], axis=pair_axes))


def _pair_sups(values, m: int, dt: float, exponents) -> list:
    """Sup over grid pairs 0 <= i < j <= m of value[i, j] / ((j - i) * dt) ** p.

    values(i, j) returns one array of nonnegative pair values per exponent at
    the pairs of two integer index arrays of equal ndim that broadcast
    together; each pair i < j is passed once, and no other. The pair axes
    are the trailing ones; leading axes index a batch of windows, and each
    sup is then an array over them (a float for a single window). The
    columns are walked BLOCK at a time: the pairs among the grid points
    c0 - 1, ..., c1 - 1 as one packed triangle (_triangle), the rows before
    them in BLOCK x BLOCK squares (i a column, j a row). A window of up to
    BLOCK cells is one triangle, and memory is O(BLOCK^2) per window whatever
    m. Each lag weight is evaluated once, by Python's scalar pow, and each
    pair reads it by its lag (_fold_sups): the result equals the lag-by-lag
    supremum bit for bit.
    """
    tables = [_lag_table(m, dt, p) for p in exponents]
    best = [0.0] * len(tables)

    def fold(i, j):
        _fold_sups(best, values(i, j), j - i, tables)

    for c0 in range(1, m + 1, BLOCK):
        c1 = min(c0 + BLOCK, m + 1)
        rows, cols = _triangle(c1 - c0)
        fold(rows + (c0 - 1), cols + (c0 - 1))
        for r0 in range(0, c0 - 1, BLOCK):
            fold(np.arange(r0, r0 + BLOCK)[:, None], np.arange(c0, c1)[None])
    return [b if np.ndim(b) else float(b) for b in best]


def _seminorm_values(raw: np.ndarray, xxc: np.ndarray, a: np.ndarray, axis: int = -1):
    """values(i, j) of _pair_sups for [X] and [XX] of the windows raw with
    prefix sums xxc, a: the grid points on the given axis, a batch of
    windows on the other; the pair axes of the values take its place."""

    def values(i, j):
        # np.take gathers along an axis faster than (..., i) does, and each
        # endpoint array is let go once its increment is taken
        dc = np.take(xxc, j, axis=axis) - np.take(xxc, i, axis=axis)
        da = np.take(a, j, axis=axis) - np.take(a, i, axis=axis)
        ri = np.take(raw, i, axis=axis)
        x = np.take(raw, j, axis=axis) - ri
        xx = _chen_ends(ri, x, dc, da)
        return np.abs(x, out=x), np.abs(xx, out=xx)

    return values


def holder_seminorm(rp: GridRoughPath, interval=None) -> HolderReport:
    """Grid-restricted Hoelder seminorms of both levels over the interval.

    [X]_gamma is the sup of |X[s,t]| / (t-s)^gamma over grid pairs, and
    [XX]_2gamma the sup of the Chen-reconstructed |XX[s,t]| / (t-s)^(2 gamma).
    The interval defaults to the whole grid; an empty one gives zeros.
    """
    raw, xx = _window_arrays(rp, interval)
    sx, sxx = _pair_sups(_seminorm_values(raw, *_prefix_sums(raw, xx)), raw.size - 1, rp.dt,
                         (rp.gamma, 2.0 * rp.gamma))
    return HolderReport(sx, sxx, (rp.t0, rp.end_time) if interval is None else interval)


def _join_windows(rps, windows, cells: int):
    """The first path, the sliding rows (cells + 1 points of x_raw, cells of
    xx) from every point of the paths laid end to end, and each window's row.
    Each path is followed by cells zero increments, so a row from any of its
    grid points stays inside its own stretch."""
    rp = rps[0]
    if any((p.t0, p.dt, p.n_cells, p.gamma) != (rp.t0, rp.dt, rp.n_cells, rp.gamma) for p in rps):
        raise ValueError("the rough paths must share one grid (t0, dt, cell count and gamma)")
    paths, starts = np.asarray(windows, dtype=np.intp).reshape(-1, 2).T
    if cells < 1 or starts.size and (starts.min() < 0 or starts.max() + cells > rp.n_cells):
        raise ValueError(f"windows of {cells} cells must start in [0, {rp.n_cells - cells}]")
    if paths.size and (paths.min() < 0 or paths.max() >= len(rps)):
        raise ValueError(f"window path numbers must lie in [0, {len(rps) - 1}]")
    x_raw = np.concatenate([np.append(p.x_raw, np.full(cells, p.x_raw[-1])) for p in rps])
    xx = np.concatenate([np.append(p.xx, np.zeros(cells + 1)) for p in rps])
    return (rp, sliding_window_view(x_raw, cells + 1), sliding_window_view(xx, cells),
            paths * (rp.n_cells + cells + 1) + starts)


def window_seminorms(rps, windows, cells: int):
    """[X]_gamma and [XX]_2gamma of windows of a stack of rough paths.

    rps is a sequence of rough paths with the same t0, dt, cell count and
    gamma, and windows holds (path number, a) pairs, one per window
    [t_a, t_(a + cells)] of that path, in any order and with repeats. They go
    through the pair walk of holder_seminorm as many at a time as PAIR_BYTES
    allows, so every entry equals holder_seminorm over the same window bit
    for bit. Returns two arrays aligned with windows.
    """
    rp, raw, xx, starts = _join_windows(rps, windows, cells)
    sx = np.empty(starts.size)
    sxx = np.empty(starts.size)
    # the largest pair array of the walk: the first triangle or a full square
    step = _rows_per_call(cells * (cells + 1) // 2 if cells <= BLOCK else BLOCK * BLOCK)
    for c in range(0, starts.size, step):
        r = raw[starts[c:c + step]]
        values = _seminorm_values(r, *_prefix_sums(r, xx[starts[c:c + step]]))
        sx[c:c + step], sxx[c:c + step] = _pair_sups(values, cells, rp.dt,
                                                     (rp.gamma, 2.0 * rp.gamma))
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
    sums_a, sums_b = _prefix_sums(raw_a, xx_a), _prefix_sums(raw_b, xx_b)

    def values(i, j):
        return (np.abs(diff1[j] - diff1[i]),
                np.abs(_chen_at(raw_a, *sums_a, i, j) - _chen_at(raw_b, *sums_b, i, j)))

    best1, best2 = _pair_sups(values, raw_a.size - 1, a.dt, (a.gamma, 2.0 * a.gamma))
    return best1 + best2


def shift(rp: GridRoughPath, r: float) -> GridRoughPath:
    """Time shift by a grid multiple r >= 0: the sampled realization of theta_r.

    The returned path keeps the sampled values, so seminorms, controls and
    greedy counts over [s, t] equal the originals over [s+r, t+r] exactly.
    """
    k = round(r / rp.dt)
    if abs(k * rp.dt - r) > _GRID_RTOL * max(rp.dt, 1.0):
        raise ValueError(f"shift {r} is not an integer multiple of dt={rp.dt}")
    if k < 0 or rp.n_cells - k < 1:
        raise ValueError(f"shifted window exceeds the sampled horizon (shift {r})")
    return GridRoughPath(rp.t0, rp.dt, rp.x_raw[k:], rp.xx[k:], rp.gamma)


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
    n_coarse = rp.n_cells // factor
    xx = np.empty(n_coarse)
    for c in range(n_coarse):
        i = c * factor
        xx[c] = rp.second_level(i, i + factor)
    return GridRoughPath(rp.t0, rp.dt * factor, rp.x_raw[::factor], xx, rp.gamma)


def save_csv(rp: GridRoughPath, path: str) -> None:
    """Serialize as ``t,x,xx_cell`` rows, x re-zeroed at the path's start;
    xx on the cell's left endpoint row."""
    x = rp.x_raw - rp.x_raw[0]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,x,xx_cell\n")
        times = rp.times
        for k in range(x.size):
            xx = repr(float(rp.xx[k])) if k < rp.n_cells else ""
            fh.write(f"{float(times[k])!r},{float(x[k])!r},{xx}\n")
