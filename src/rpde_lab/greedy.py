"""Greedy-time machinery: the two-parameter control W, greedy times, counts.

The control of a rough path over [s, t] with weight exponent eta in [0, gamma)
is the supremum over partitions s = k_0 < ... < k_n = t of

    sum_j (k_{j+1}-k_j)^(-eta/(gamma-eta)) *
          ( |X[k_j,k_{j+1}]|^(1/(gamma-eta)) + |XX[k_j,k_{j+1}]|^(1/(2(gamma-eta))) ).

Restricted to grid partitions this supremum is computed exactly by a dynamic
program over the grid points of the window, dp[k] = max_{i<k} dp[i] + cost[i, k]
with cost the one-segment term above. One kernel, _control_dp, serves W, the
greedy scan and the all-pairs matrix. It builds the costs of BLOCK columns at
a time, from second-level prefix sums accumulated from the window start, and
advances dp column by column: O(n^2) time for W over n cells, O(n * BLOCK)
memory, and no n x n matrix at any point.

Greedy times chop an interval into maximal steps whose control, raised to
gamma - eta, stays below the threshold chi; N counts the steps. W is
superadditive, so it is monotone in the right endpoint: each greedy step scans
from its start and stops at the first column past the threshold, so the whole
scan costs O(n * (longest step + BLOCK)) time.

window_counts counts many equal-length windows at once. The windows jump from
step end to step end in lockstep, and each grid point a jump reaches gets one
DP row, built CHUNK rows at a time and shared by every window stepping from
it. Single windows stay on the scan above.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericsError
from .roughpath import BLOCK, CHUNK, GridRoughPath, _second_level_block, _window_starts


class GreedyPartition:
    """Greedy times on a grid interval together with threshold data."""

    __slots__ = ("taus", "count", "chi", "eta", "interval")

    def __init__(self, taus, chi: float, eta: float, interval):
        self.taus = np.asarray(taus, dtype=float)
        if self.taus.size < 2 or np.any(np.diff(self.taus) <= 0):
            raise ValueError("greedy times must be strictly increasing with >= 2 entries")
        self.count = self.taus.size - 1
        self.chi = float(chi)
        self.eta = float(eta)
        self.interval = (float(interval[0]), float(interval[1]))


def _check_eta(rp: GridRoughPath, eta: float) -> None:
    if not 0.0 <= eta < rp.gamma:
        raise ValueError(f"eta must lie in [0, gamma={rp.gamma}), got {eta}")


def _cost_block(raw: np.ndarray, xx: np.ndarray, k0: int, dt: float, eta: float,
                g: float) -> np.ndarray:
    """cost[i, k] = one-segment control term of the window pair (i, k0 + k).

    Rows run over the whole window raw[0], ..., raw[-1]; columns over its grid
    points from k0 on. Only entries with i < k0 + k are meaningful. The lag
    weight depends on k0 + k - i alone, so it is evaluated once per lag and
    read through a Toeplitz view. Leading axes of raw and xx index a batch of
    windows of one length.
    """
    rows = raw.shape[-1]
    p1 = 1.0 / g
    p2 = 0.5 / g
    wexp = -eta / g
    lag = np.arange(k0 - rows + 1, rows).astype(float) * dt
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(lag > 0, lag ** wexp, 0.0) if eta > 0 else np.where(lag > 0, 1.0, 0.0)
    weight = sliding_window_view(weight, rows - k0)[::-1]
    cost = np.abs(raw[..., None, k0:] - raw[..., :, None]) ** p1
    cost += np.abs(_second_level_block(raw, xx, k0)) ** p2
    cost *= weight
    return cost


def _control_dp(rp: GridRoughPath, eta: float, i0: int, i1: int, limit: float):
    """W over [t_i0, t_i0+k] for k = 0, 1, ... by dynamic programming.

    dp[k] = max_{i<k} dp[i] + cost[i, k], with the costs built BLOCK columns
    at a time, so memory is O((i1 - i0) * BLOCK). Within a block, the paths
    whose last cut lies before the block are maximized in one pass; each new
    column then raises the later columns of the block. A maximum does not
    round, so dp equals the column-by-column recursion bit for bit. The scan
    stops at the first column k whose dp[k] ** (gamma - eta) exceeds limit
    (limit = inf scans the whole window). Returns (dp, last): last is the
    last column within the limit, and dp is filled up to min(last + 1, i1 - i0).
    """
    raw = rp.x_raw[i0:i1 + 1]
    xx = rp.xx[i0:i1]
    m = i1 - i0
    g = rp.gamma - eta
    check = limit < math.inf
    dp = np.empty(m + 1)
    dp[0] = 0.0
    k0 = 1
    while k0 <= m:
        k1 = min(k0 + BLOCK, m + 1)
        cost = _cost_block(raw[:k1], xx[:k1 - 1], k0, rp.dt, eta, g)
        cost[:k0] += dp[:k0, None]
        best = cost[:k0].max(axis=0)
        for k in range(k0, k1):
            c = k - k0
            dp[k] = best[c]
            if check and not dp[k] ** g <= limit:
                return dp, k - 1
            np.maximum(best[c + 1:], dp[k] + cost[k, c + 1:], out=best[c + 1:])
        k0 = k1
    return dp, m


def control_w(rp: GridRoughPath, eta: float, s: float, t: float) -> float:
    """Exact grid-restricted control W over [s, t] by dynamic programming."""
    _check_eta(rp, eta)
    i, j = rp.index(s), rp.index(t)
    if j < i:
        raise ValueError("need s <= t")
    if j == i:
        return 0.0
    dp, m = _control_dp(rp, eta, i, j, math.inf)
    return float(dp[m])


def _coarse_cell(rp: GridRoughPath, chi: float, cur: int, w_cell: float) -> NumericsError:
    """The error of a greedy step from grid point cur whose first cell has
    control w_cell ** (1 / (gamma - eta)) above chi."""
    t_bad = rp.t0 + cur * rp.dt
    return NumericsError(
        f"grid too coarse for chi={chi}: cell [{t_bad}, {t_bad + rp.dt}] "
        f"already exceeds the greedy threshold",
        cell_left=t_bad, chi=chi, w_cell=w_cell)


def _greedy_scan(rp: GridRoughPath, eta: float, chi: float, i0: int, i1: int):
    """Greedy step indices in [i0, i1]; raises when one cell already violates."""
    g = rp.gamma - eta
    cuts = [i0]
    cur = i0
    while cur < i1:
        dp, last_ok = _control_dp(rp, eta, cur, i1, chi)
        if last_ok == 0:
            raise _coarse_cell(rp, chi, cur, float(dp[1] ** g))
        cur += last_ok
        cuts.append(cur)
    return cuts


def greedy_times(rp: GridRoughPath, eta: float, chi: float, interval=None) -> GreedyPartition:
    """Greedy partition of the interval: each step is the largest grid time
    whose accumulated control raised to gamma - eta stays <= chi (boundary
    accepted on equality)."""
    _check_eta(rp, eta)
    if chi <= 0:
        raise ValueError("chi must be positive")
    i0, i1 = rp.interval_slice(interval)
    if i1 == i0:
        raise ValueError("greedy interval must contain at least one cell")
    cuts = _greedy_scan(rp, eta, chi, i0, i1)
    taus = rp.t0 + rp.dt * np.asarray(cuts, dtype=float)
    if interval is None:
        interval = (rp.t0, rp.end_time)
    return GreedyPartition(taus, chi, eta, interval)


def count_in_window(rp: GridRoughPath, eta: float, chi: float, s: float, t: float) -> int:
    """Number of greedy steps N on [s, t]."""
    return greedy_times(rp, eta, chi, (s, t)).count


def _step_lengths(raw: np.ndarray, xx: np.ndarray, dt: float, eta: float, g: float,
                  chi: float):
    """Greedy step length from the first point of each window of the batch
    raw, xx, and the one-cell dp of that step.

    Row b is _control_dp's dp from raw[b, 0], by the same costs and the same
    maxima of single sums. The step ends before the first column k with
    dp[k] ** g > chi, or at the last column. dp is nondecreasing and pow is
    monotone, so the violations form a suffix of the row, found by bisection
    with the scan's scalar pow.
    """
    cells = raw.shape[-1] - 1
    cost = _cost_block(raw, xx, 1, dt, eta, g)
    dp = np.zeros(raw.shape)
    best = cost[:, 0]
    for k in range(1, cells + 1):
        dp[:, k] = best[:, k - 1]
        np.maximum(best[:, k:], dp[:, k, None] + cost[:, k, k:], out=best[:, k:])
    lengths = []
    for row in dp.tolist():
        lo, hi = 1, cells + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if row[mid] ** g <= chi:
                lo = mid + 1
            else:
                hi = mid
        lengths.append(lo - 1)
    return lengths, dp[:, 1]


def window_counts(rp: GridRoughPath, eta: float, chi: float, starts, cells: int) -> list[int]:
    """Greedy counts N of the windows [t_a, t_(a + cells)], a in starts.

    starts are grid indices, in any order and with repeats. The windows walk
    their greedy steps in lockstep; each round computes the DP rows of the
    grid points first reached in it, CHUNK rows at a time, so a point's row
    is built once however many windows step from it. Each count equals
    count_in_window over the same window, and a window whose scan meets a
    cell above chi raises the scan's NumericsError; the first such window in
    the order of starts is the one reported.
    """
    _check_eta(rp, eta)
    if chi <= 0:
        raise ValueError("chi must be positive")
    starts = _window_starts(rp, starts, cells)
    g = rp.gamma - eta
    # the path extended by zero increments, so a row of cells columns fits
    # from every grid point; a window caps its steps at its own end, which
    # the extension never reaches
    raw = sliding_window_view(np.concatenate([rp.x_raw, np.full(cells, rp.x_raw[-1])]),
                              cells + 1)
    xx = sliding_window_view(np.concatenate([rp.xx, np.zeros(cells)]), cells)
    # end of the step from each grid point (-1: row not built) and its dp[1];
    # the last entry belongs to the path's end, where steps only finish
    step_end = np.full(rp.n_cells + 1, -1)
    first = np.empty(rp.n_cells + 1)
    cur, end = starts.copy(), starts + cells
    counts = np.zeros(starts.size, dtype=int)
    walking = np.ones(starts.size, dtype=bool)
    stuck = np.zeros(starts.size, dtype=bool)
    while walking.any():
        # distinct rows to build, sorted (np.unique would import numpy.ma)
        new = np.sort(cur[walking & (step_end[cur] < 0)])
        new = new[np.diff(new, prepend=-1) != 0]
        for c in range(0, new.size, CHUNK):
            rows = new[c:c + CHUNK]
            lengths, first[rows] = _step_lengths(raw[rows], xx[rows], rp.dt, eta, g, chi)
            step_end[rows] = rows + lengths
        nxt = step_end[cur]
        stuck |= walking & (nxt == cur)
        walking &= ~stuck
        cur[walking] = np.minimum(nxt, end)[walking]
        counts[walking] += 1
        walking &= cur < end
    if stuck.any():
        bad = int(cur[np.argmax(stuck)])
        raise _coarse_cell(rp, chi, bad, float(first[bad] ** g))
    return counts.tolist()


def control_w_all_pairs(rp: GridRoughPath, eta: float, interval=None) -> np.ndarray:
    """Matrix of W over all grid pairs of the window; used by property tests.

    Row i is one DP scan from grid point i, so entry (i, j) equals control_w
    over the same pair exactly.
    """
    _check_eta(rp, eta)
    i0, i1 = rp.interval_slice(interval)
    m = i1 - i0
    out = np.zeros((m + 1, m + 1))
    for i in range(m):
        out[i, i:] = _control_dp(rp, eta, i0 + i, i1, math.inf)[0]
    return out
