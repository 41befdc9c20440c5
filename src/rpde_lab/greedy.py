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
advances dp column by column in O(n * BLOCK) memory, with no n x n matrix at
any point. Only a near band of rows (the tile's own and the BLOCK rows before
them) is costed in full. Each older block of rows is summarized by its last
row p, R = max |X[i,p]| and A = max |XX[i,p]|, which bound all its candidates
(Chen's identity, dp nondecreasing, the lag weight falling with the lag), and
is costed only where that bound reaches the near band's best. A skipped
candidate is strictly below the column maximum, so W stays bitwise the dense
recursion, as exact p-variation codes skip candidates (Butkus-Norvaisa, Lith.
Math. J. 2018). On 2048-cell Brownian lifts W costs 21-27 % of the n^2 / 2
pairs: 44 to 75 of the 465 far blocks, besides the near bands.

Greedy times chop an interval into maximal steps whose control, raised to
gamma - eta, stays below the threshold chi; N counts the steps. W is
superadditive, so it is monotone in the right endpoint: each greedy step scans
from its start and stops at the first column past the threshold, so the whole
scan costs O(n * (longest step + BLOCK)) time.

window_constants gives the window constants (N, [X], [XX]) of equal-length
windows of a stack of paths in one pass, the windows stepping in lockstep.
Its batched DP costs each tile's pairs i < j only, and the rows from the
windows' starts, built across their windows, fold the seminorms from the same
pair values that their costs are raised from.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericsError
from .roughpath import (BLOCK, GridRoughPath, _chen_pairs, _join_windows, _lag_table,
                        _prefix_sums, _rows_per_call, _seminorm_values, _triangle)

# margins of the far-block bound of _control_dp: relative, over the rounding of
# the costs and pows it bounds (a few ulps times the exponent 1 / (gamma - eta),
# ample below exponents of 10^5), and absolute on a computed XX entry, in units
# of the window's largest |xxc|, |a| and raw ** 2 (its error is below 20 ulps)
_REL_SLACK = 1e-9
_ABS_SLACK = 64 * np.finfo(float).eps


class GreedyPartition:
    """Greedy times on a grid interval and their step count."""

    __slots__ = ("taus", "count")

    def __init__(self, taus):
        self.taus = np.asarray(taus, dtype=float)
        if self.taus.size < 2 or np.any(np.diff(self.taus) <= 0):
            raise ValueError("greedy times must be strictly increasing with >= 2 entries")
        self.count = self.taus.size - 1


def _check_args(rp: GridRoughPath, eta: float, chi: float = 1.0) -> None:
    if not 0.0 <= eta < rp.gamma:
        raise ValueError(f"eta must lie in [0, gamma={rp.gamma}), got {eta}")
    if chi <= 0:
        raise ValueError("chi must be positive")


def _lag_weights(lo: int, hi: int, dt: float, eta: float, g: float):
    """w[lag - lo] = (lag * dt) ** (-eta / g) for lag = lo, ..., hi - 1, and 0
    for lag <= 0; None when eta = 0, where every weight is 1."""
    if eta == 0:
        return None
    lag = np.arange(lo, hi).astype(float) * dt
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lag > 0, lag ** (-eta / g), 0.0)


def _toeplitz(w, r0: int, k0: int, k1: int):
    """The weights of _lag_weights(k0 - k1 + 1, ...) as a (k1 - r0) x (k1 - k0)
    view over the rows r0, ..., k1 - 1 and the columns k0, ..., k1 - 1."""
    if w is None:
        return None
    return sliding_window_view(w[:2 * k1 - k0 - r0 - 1], k1 - k0)[::-1]


def _pair_costs(raw, xxc, a, rows, k0: int, k1: int, weight, p1: float, p2: float):
    """cost[r, c] = one-segment control term of the window pair (rows[r], k0 + c).

    rows is a slice or an index array of the window's grid points and the
    columns run over k0, ..., k1 - 1; xxc and a are the window's prefix sums
    and weight the lag weight of every pair (None: all weights 1). Each entry
    is the same elementwise expression whatever the rows, so it is bitwise
    the entry of a full block. Only pairs with row < column are meaningful.
    Leading axes of raw, xxc and a index a batch of windows of one length.
    """
    cost = np.abs(raw[..., None, k0:k1] - raw[..., rows, None]) ** p1
    cost += np.abs(_chen_pairs(raw, xxc, a, rows, slice(k0, k1))) ** p2
    if weight is not None:
        cost *= weight
    return cost


def _far_bound(raw, xxc, a, far, k0: int, k1: int, w, p1: float, p2: float):
    """bound[b, c] >= dp[i] + cost[i, k0 + c] for every row i of far block b.

    far = (pivot, dp at pivot, R, A) per block, the pivot p being the block's
    last row, R = max |X[i,p]| and A = max |XX[i,p]| over its rows; w is the
    tile's _lag_weights. For a row i of the block and a column k, Chen's identity
    XX[i,k] = XX[i,p] + XX[p,k] + X[i,p] X[p,k] holds exactly on the stored
    prefix sums, dp[i] <= dp[p] and the lag weight falls with the lag, so

        dp[i] + cost[i,k] <= dp[p] + w(k - p) ((|X[p,k]| + R) ** p1
                                               + (|XX[p,k]| + A + R |X[p,k]| + slack) ** p2),

    up to rounding. The slack covers the rounding of the computed XX entries
    (a few ulps of the largest |xxc|, |a| and raw ** 2 of the window) and the
    relative factor that of the costs and the pows.
    """
    piv, top, reach, area = far
    cols = slice(k0, k1)
    d = np.abs(raw[cols] - raw[piv, None])
    scale = max(float(np.abs(xxc).max()), float(np.abs(a).max()),
                float(np.abs(raw[:k1]).max()) ** 2)
    bound = (d + reach[:, None]) ** p1
    bound += (np.abs(_chen_pairs(raw, xxc, a, piv, cols)) + area[:, None] + reach[:, None] * d
              + _ABS_SLACK * scale) ** p2
    if w is not None:
        bound *= w[np.arange(k0, k1) - piv[:, None] - (k0 - k1 + 1)]
    bound += top[:, None]
    bound *= 1.0 + _REL_SLACK
    return bound


def _control_dp(rp: GridRoughPath, eta: float, i0: int, i1: int, limit: float):
    """W over [t_i0, t_i0+k] for k = 0, 1, ... by dynamic programming.

    dp[k] = max_{i<k} dp[i] + cost[i, k], with the costs built BLOCK columns
    at a time, so memory is O((i1 - i0) * BLOCK). The rows are grouped in
    blocks aligned with the column tiles (block 0 also holds row 0). A tile
    costs exactly its own rows and the block before them (the near band);
    their best candidate is a lower bound LB of each column's maximum. Every
    older block is costed only where the bound of _far_bound reaches LB in
    some column of the tile: a skipped candidate is strictly below the
    maximum, so dp is the same as over all rows, bit for bit. Within a tile,
    the rows before it are maximized in one pass; each new column then raises
    the later columns of the tile. A maximum does not round, so dp equals the
    column-by-column recursion bit for bit. The scan stops at the first
    column k whose dp[k] ** (gamma - eta) exceeds limit (limit = inf scans
    the whole window). Returns (dp, last): last is the last column within the
    limit, and dp is filled up to min(last + 1, i1 - i0).
    """
    raw = rp.x_raw[i0:i1 + 1]
    xx = rp.xx[i0:i1]
    m = i1 - i0
    g = rp.gamma - eta
    p1, p2 = 1.0 / g, 0.5 / g
    check = limit < math.inf
    dp = np.empty(m + 1)
    dp[0] = 0.0
    # per far block: pivot (its last row), dp at the pivot, R and A
    n_far = max(0, (m - 1) // BLOCK - 1)
    piv = np.arange(1, n_far + 1) * BLOCK
    top, reach, area = np.empty(n_far), np.empty(n_far), np.empty(n_far)
    k0 = 1
    while k0 <= m:
        k1 = min(k0 + BLOCK, m + 1)
        nf = (k0 - 1) // BLOCK - 1  # far blocks of this tile
        r0 = k0 - BLOCK if nf > 0 else 0
        xxc, a = _prefix_sums(raw[:k1], xx[:k1 - 1])
        w = _lag_weights(k0 - k1 + 1, k1, rp.dt, eta, g)
        cost = _pair_costs(raw, xxc, a, slice(r0, k1), k0, k1, _toeplitz(w, r0, k0, k1), p1, p2)
        cost[:k0 - r0] += dp[r0:k0, None]
        best = cost[:k0 - r0].max(axis=0)
        if nf > 0:
            # block nf - 1 has just left the near band: summarize it
            q, p = nf - 1, piv[nf - 1]
            block = slice(p - BLOCK + 1 if q else 0, p + 1)
            top[q] = dp[p]
            reach[q] = np.abs(raw[p] - raw[block]).max()
            area[q] = np.abs(_chen_pairs(raw, xxc, a, block, slice(p, p + 1))).max()
            far = (piv[:nf], top[:nf], reach[:nf], area[:nf])
            live = ~(_far_bound(raw, xxc, a, far, k0, k1, w, p1, p2) < best).all(axis=1)
            if live.any():
                # rows 1 + q * BLOCK, ..., (q + 1) * BLOCK of each live block q,
                # and row 0 with block 0
                rows = np.flatnonzero(live[np.maximum(np.arange(r0) - 1, 0) // BLOCK])
                weight = None if w is None else w[np.arange(k0, k1) - rows[:, None] - (k0 - k1 + 1)]
                far_cost = _pair_costs(raw, xxc, a, rows, k0, k1, weight, p1, p2)
                far_cost += dp[rows, None]
                np.maximum(best, far_cost.max(axis=0), out=best)
        diag = cost[k0 - r0:]
        for c in range(k1 - k0):
            d = best[c]
            if check and not d ** g <= limit:
                dp[k0:k0 + c + 1] = best[:c + 1]
                return dp, k0 + c - 1
            later = best[c + 1:]
            np.maximum(later, diag[c, c + 1:] + d, out=later)
        dp[k0:k1] = best
        k0 = k1
    return dp, m


def control_w(rp: GridRoughPath, eta: float, s: float, t: float) -> float:
    """Exact grid-restricted control W over [s, t] by dynamic programming."""
    _check_args(rp, eta)
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
    _check_args(rp, eta, chi)
    i0, i1 = rp.interval_slice(interval)
    if i1 == i0:
        raise ValueError("greedy interval must contain at least one cell")
    cuts = _greedy_scan(rp, eta, chi, i0, i1)
    taus = rp.t0 + rp.dt * np.asarray(cuts, dtype=float)
    return GreedyPartition(taus)


@functools.lru_cache(maxsize=16)
def _dp_weights(cells: int, dt: float, eta: float, g: float):
    """_lag_weights(0, cells + 1, ...) of the batched DP, indexed by the lag;
    built once per (cells, dt, eta, g) and read-only. None when eta = 0."""
    w = _lag_weights(0, cells + 1, dt, eta, g)
    if w is not None:
        w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=BLOCK)
def _packed(b: int):
    """_triangle(b) and the offsets of its rows: the pairs (i, j) with
    j > i of point i are the entries off[i], ..., off[i + 1] - 1."""
    rows, cols = _triangle(b)
    return rows, cols, [i * b - i * (i - 1) // 2 for i in range(b + 2)]


def _dp_pairs(cells: int) -> int:
    """Entries per DP row of the largest pair array of _step_lengths over a
    window of cells cells: a tile's square or its triangle."""
    return max(max((k0 - 1) * b, b * (b + 1) // 2)
               for k0 in range(1, cells + 1, BLOCK) for b in [min(BLOCK, cells + 1 - k0)])


def _fold_pairs(q: np.ndarray) -> np.ndarray:
    """np.fmax.reduce of the C-contiguous q over its leading (pair) axes, the
    trailing (batch) axis kept: the pair rows are halved in place, the later
    half folded into the first by one fmax over contiguous memory per step,
    where a reduction over the pair axis would stride by the batch. fmax does
    not round, so the result is the reduction's bit for bit."""
    q = q.reshape(-1, q.shape[-1])
    n = q.shape[0]
    while n > 1:
        h = n // 2
        np.fmax(q[:h], q[n - h:n], out=q[:h])
        n -= h
    return q[0]


def _step_lengths(raw: np.ndarray, xx: np.ndarray, dt: float, eta: float, g: float,
                  chi: float, room, tables=None):
    """Greedy step length from the first point of each window of the batch
    raw, xx, the DP rows, and with tables the windows' seminorms.

    Row b is _control_dp's dp from raw[b, 0] (the same costs and maxima of
    single sums), built BLOCK columns at a time. A tile of the columns
    k0, ..., k1 - 1 costs only the pairs i < j: the rows 0, ..., k0 - 2 as a
    square, and the tile's own points k0 - 1, ..., k1 - 1 as the packed
    triangle of _pair_sups, where the later columns of each point are
    contiguous. The rows before the tile are maximized at once; each column
    then raises the later columns of the tile by its triangle row. A maximum
    does not round, so dp is the column-by-column recursion bit for bit.
    dp is nondecreasing: the step ends before the first column k with
    dp[k] ** g > chi (the scan's scalar pow), found by bisection.

    Without tables, the tiles stop once every row b has passed chi or column
    room[b] (a step of room[b] or more cells may be longer). With tables,
    the lag tables of [X] and [XX], every row is built across its whole
    window: its pairs are all the window's pairs, and their |X| and |XX|,
    before they are raised to costs, fold the seminorms. Fold order: each
    tile's values are divided by their lag weights in the (pairs, batch)
    layout they are built in, reduced over the pairs by halving
    (_fold_pairs: the later half of the pair rows fmax-ed into the first,
    contiguous, until one row is left), and that row is fmax-ed into the
    running seminorms, the triangle's before the square's. A maximum does
    not round, so each seminorm is _pair_sups' (holder_seminorm) bit for bit.
    Returns (lengths, dp, [[X], [XX]]), the seminorms None without tables.
    """
    cells = raw.shape[-1] - 1
    # the grid points first and the batch last: a column's candidates, and
    # the later columns of a triangle row, are contiguous
    raw, xxc, a = (np.ascontiguousarray(v.T) for v in (raw, *_prefix_sums(raw, xx)))
    values = _seminorm_values(raw, xxc, a, axis=0)
    w = _dp_weights(cells, dt, eta, g)
    p1, p2 = 1.0 / g, 0.5 / g
    sups = None if tables is None else [0.0, 0.0]

    def costs(i, j):
        lag = j - i
        ax, axx = values(i, j)
        if sups is not None:
            for k, (vals, table) in enumerate(zip((ax, axx), tables)):
                sups[k] = np.fmax(sups[k], _fold_pairs(vals / table[lag][..., None]))
        cost = np.power(ax, p1, out=ax)
        cost += np.power(axx, p2, out=axx)
        if w is not None:
            cost *= w[lag][..., None]
        return cost

    dp = np.zeros(raw.shape)
    k0 = 1
    while True:
        k1 = min(k0 + BLOCK, cells + 1)
        rows, cols, off = _packed(k1 - k0)
        tri = costs(rows + (k0 - 1), cols + (k0 - 1))
        best = tri[:k1 - k0] + dp[k0 - 1]
        if k0 > 1:
            square = costs(np.arange(k0 - 1)[:, None], np.arange(k0, k1)[None])
            square += dp[:k0 - 1, None]
            np.maximum(best, square.max(axis=0), out=best)
        for c in range(k1 - k0 - 1):
            later = best[c + 1:]
            np.maximum(later, tri[off[c + 1]:off[c + 2]] + best[c], out=later)
        dp[k0:k1] = best
        k0 = k1
        if k0 > cells or sups is None and all(
                v ** g > chi or k1 > r for v, r in zip(dp[k1 - 1].tolist(), room)):
            break
    dp = dp.T
    lengths = [bisect.bisect_right(row, chi, 1, k0, key=lambda v: v ** g) - 1
               for row in dp.tolist()]
    return lengths, dp, sups


def window_constants(rps, eta: float, chi: float, windows, cells: int):
    """Greedy counts N and seminorms [X]_gamma, [XX]_2gamma of the windows of
    roughpath.window_seminorms, in one pass.

    The windows walk their greedy steps in lockstep; each round builds the DP
    rows of the (path, grid point) pairs first reached in it, once however
    many windows step from them, as many rows per call as PAIR_BYTES allows.
    The first round builds the row from each window's start across the whole
    window, and the same pairs fold the window's seminorms. A row first
    reached later reads only the window of latest start at or before its
    point, which ends farthest (at E) of those that contain the point, run
    backwards past E, and stops in the first tile past chi or E. A window
    that steps from the point ends by E and caps its step there, so the dp up
    to E decides the step, and past E need only stay nondecreasing (zero
    increments there would send pow down its slow path on exact zeros). Each
    count equals greedy_times(...).count and each seminorm holder_seminorm
    over the same window, bit for bit. A window whose scan
    meets a cell above chi has, in place of its count, the NumericsError
    that greedy_times raises on it. Returns the counts as a list and the
    seminorms as two arrays, aligned with windows.
    """
    rp, raw, xx, starts = _join_windows(rps, windows, cells)
    _check_args(rp, eta, chi)
    g = rp.gamma - eta
    tables = [_lag_table(cells, rp.dt, p) for p in (rp.gamma, 2.0 * rp.gamma)]
    step = _rows_per_call(_dp_pairs(cells))
    span = rp.n_cells + cells + 1
    # the windows' starts, sorted: all windows have the same length, so the
    # latest start at or before a point is that of the farthest-ending window
    latest = np.sort(starts)
    # end of the step from each joined point (-1: row not built), its dp[1],
    # and the seminorms of the window from it
    step_end = np.full(raw.shape[0], -1)
    first = np.empty(raw.shape[0])
    sx, sxx = np.empty(raw.shape[0]), np.empty(raw.shape[0])
    cur, end = starts.copy(), starts + cells
    counts = np.zeros(starts.size, dtype=int)
    walking = np.ones(starts.size, dtype=bool)
    stuck = np.zeros(starts.size, dtype=bool)
    fold = tables  # only the first round, of the windows' starts
    while walking.any():
        # distinct rows to build, sorted (np.unique would import numpy.ma)
        new = np.sort(cur[walking & (step_end[cur] < 0)])
        new = new[np.diff(new, prepend=-1) != 0]
        new_start = latest[np.searchsorted(latest, new, "right") - 1][:, None]
        for c in range(0, new.size, step):
            rows, start = new[c:c + step], new_start[c:c + step]
            r, x = raw[rows], xx[rows]
            if fold is None:  # past the window's end, run the window backwards
                at = rows[:, None] - start + np.arange(cells + 1)
                r = raw[start, np.minimum(at, 2 * cells - at)]
                x = xx[start, np.minimum(at[:, :-1], 2 * cells - 1 - at[:, :-1])]
            lengths, dp, sups = _step_lengths(r, x, rp.dt, eta, g, chi,
                                              (start[:, 0] + cells - rows).tolist(), fold)
            step_end[rows] = rows + lengths
            first[rows] = dp[:, 1]
            if sups is not None:
                sx[rows], sxx[rows] = sups
        fold = None
        nxt = step_end[cur]
        stuck |= walking & (nxt == cur)
        walking &= ~stuck
        cur[walking] = np.minimum(nxt, end)[walking]
        counts[walking] += 1
        walking &= cur < end
    counts = counts.tolist()
    for w in np.flatnonzero(stuck).tolist():
        counts[w] = _coarse_cell(rp, chi, int(cur[w]) % span, float(first[cur[w]] ** g))
    return counts, sx[starts], sxx[starts]


def control_w_all_pairs(rp: GridRoughPath, eta: float, interval=None) -> np.ndarray:
    """Matrix of W over all grid pairs of the window; used by property tests.

    Row i is one DP scan from grid point i, so entry (i, j) equals control_w
    over the same pair exactly.
    """
    _check_args(rp, eta)
    i0, i1 = rp.interval_slice(interval)
    m = i1 - i0
    out = np.zeros((m + 1, m + 1))
    for i in range(m):
        out[i, i:] = _control_dp(rp, eta, i0 + i, i1, math.inf)[0]
    return out
