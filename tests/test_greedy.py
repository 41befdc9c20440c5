"""Control W, greedy times and counts."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from rpde_lab import greedy
from rpde_lab import roughpath as rpm
from rpde_lab.errors import NumericsError

GAMMA, ETA = 0.4, 0.1


def fbm_lift(seed, n=64, scale=0.3, hurst=0.45):
    xs = scale * rpm.sample_fbm(hurst, n, seed)
    return rpm.lift_piecewise_linear(xs, 0.0, 1.0 / n, gamma=GAMMA)


def brute_costs(rp, eta, lo, hi):
    """Independent one-segment costs of every grid pair of [lo, hi]; XX[i, j]
    sums the cells of [i, j] in order with Chen's cross terms."""
    g = rp.gamma - eta
    m = hi - lo
    x, xx = rp.x_raw.tolist(), rp.xx.tolist()
    cost = np.zeros((m + 1, m + 1))
    for i in range(m + 1):
        xxij = 0.0
        for j in range(i + 1, m + 1):
            k = lo + j - 1
            xxij += xx[k] + (x[k] - x[lo + i]) * (x[k + 1] - x[k])
            xij = x[lo + j] - x[lo + i]
            w = ((j - i) * rp.dt) ** (-eta / g) if eta > 0 else 1.0
            cost[i, j] = w * (abs(xij) ** (1 / g) + abs(xxij) ** (0.5 / g))
    return cost


def brute_force_w(rp, eta, lo, hi):
    """Independent exhaustive enumeration over all grid partitions."""
    m = hi - lo
    cost = brute_costs(rp, eta, lo, hi)
    best = 0.0
    for mask in range(2 ** (m - 1)):
        cuts = [0] + [b + 1 for b in range(m - 1) if mask >> b & 1] + [m]
        best = max(best, sum(cost[a, b] for a, b in zip(cuts, cuts[1:])))
    return best


class TestControl:
    def test_constant_path(self):
        rp = rpm.lift_piecewise_linear(np.zeros(17), 0.0, 1 / 16, gamma=GAMMA)
        assert greedy.control_w(rp, ETA, 0.0, 1.0) == 0.0

    def test_degenerate_interval(self):
        rp = fbm_lift(0)
        assert greedy.control_w(rp, ETA, 0.5, 0.5) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_dp_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([[0.0], np.cumsum(rng.normal(0, 0.4, 9))])
        xx = rng.normal(0, 0.05, 9)
        rp = rpm.GridRoughPath(0.0, 0.1, x, xx, GAMMA)
        dp = greedy.control_w(rp, ETA, 0.0, 0.9)
        assert dp == pytest.approx(brute_force_w(rp, ETA, 0, 9), rel=1e-12)

    def test_eta_validation(self):
        rp = fbm_lift(1)
        with pytest.raises(ValueError):
            greedy.control_w(rp, GAMMA, 0.0, 1.0)
        with pytest.raises(ValueError):
            greedy.control_w(rp, -0.1, 0.0, 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_superadditivity(self, seed):
        rp = fbm_lift(seed, n=32)
        mat = greedy.control_w_all_pairs(rp, ETA)
        for u in range(1, 32):
            lhs = mat[: u + 1, u][:, None] + mat[u, u:][None, :]
            assert np.all(lhs <= mat[: u + 1, u:] + 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_interval_upper_bound(self, seed):
        # W <= (t-s) ([X]^(1/(g-e)) + [XX]^(1/(2(g-e)))) over the unit window
        rp = fbm_lift(seed)
        w = greedy.control_w(rp, ETA, 0.0, 1.0)
        rep = rpm.holder_seminorm(rp)
        sx, sxx = rep.seminorm_x, rep.seminorm_xx
        g = GAMMA - ETA
        assert w <= sx ** (1 / g) + sxx ** (0.5 / g) + 1e-12


class TestGreedyTimes:
    def test_constant_path_single_step(self):
        rp = rpm.lift_piecewise_linear(np.zeros(33), 0.0, 1 / 32, gamma=GAMMA)
        gp = greedy.greedy_times(rp, ETA, 0.5)
        assert gp.count == 1
        assert gp.taus[0] == 0.0 and gp.taus[-1] == 1.0

    def test_huge_threshold_single_step(self):
        rp = fbm_lift(3)
        w = greedy.control_w(rp, ETA, 0.0, 1.0)
        gp = greedy.greedy_times(rp, ETA, chi=w ** (GAMMA - ETA) + 1.0)
        assert gp.count == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_count_bound(self, seed):
        rp = fbm_lift(seed, n=128)
        chi = 0.5
        n_steps = greedy.greedy_times(rp, ETA, chi, (0.0, 1.0)).count
        w = greedy.control_w(rp, ETA, 0.0, 1.0)
        assert 1 <= n_steps <= w * chi ** (-1.0 / (GAMMA - ETA)) + 1.0

    def test_steps_maximal(self):
        # each accepted step obeys the threshold; extending by one cell breaks it
        rp = fbm_lift(7, n=128, scale=0.3)
        chi = 0.25
        gp = greedy.greedy_times(rp, ETA, chi)
        assert gp.count > 1
        g = GAMMA - ETA
        for a, b in zip(gp.taus, gp.taus[1:]):
            assert greedy.control_w(rp, ETA, a, b) ** g <= chi + 1e-12
        for a, b in zip(gp.taus[:-2], gp.taus[1:-1]):
            assert greedy.control_w(rp, ETA, a, b + rp.dt) ** g > chi

    def test_count_monotone_in_chi(self):
        rp = fbm_lift(9, n=128, scale=0.3)
        counts = [greedy.greedy_times(rp, ETA, chi, (0.0, 1.0)).count
                  for chi in (0.25, 0.4, 0.6, 0.9)]
        assert counts[0] > 1
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_shift_equivariance_exact(self):
        rp = fbm_lift(11, n=128, scale=0.3)
        sh = rpm.shift(rp, 0.25)
        assert greedy.control_w(sh, ETA, 0.0, 0.5) == greedy.control_w(rp, ETA, 0.25, 0.75)
        assert greedy.greedy_times(sh, ETA, 0.3, (0.0, 0.5)).count == \
            greedy.greedy_times(rp, ETA, 0.3, (0.25, 0.75)).count

    def test_grid_too_coarse(self):
        x = np.array([0.0, 5.0, 5.5])
        rp = rpm.GridRoughPath(0.0, 0.5, x, np.array([12.5, 0.125]), GAMMA)
        with pytest.raises(NumericsError, match="grid too coarse"):
            greedy.greedy_times(rp, ETA, chi=0.1)

    def test_partition_record_fields(self):
        rp = fbm_lift(2)
        gp = greedy.greedy_times(rp, ETA, 0.5, (0.0, 1.0))
        assert gp.count == gp.taus.size - 1
        assert gp.chi == 0.5 and gp.eta == ETA
        assert gp.interval == (0.0, 1.0)


# ---------------------------------------------------------------------------
# dense reference: the O(n^2)-memory scan the block kernel replaced
# ---------------------------------------------------------------------------

def dense_costs(rp, eta, i0, i1):
    """cost[i, j] of the window [i0, i1] from full pair matrices."""
    raw, xx = rp.x_raw[i0:i1 + 1], rp.xx[i0:i1]
    m = raw.size - 1
    g = rp.gamma - eta
    p1 = 1.0 / g
    p2 = 0.5 / g
    wexp = -eta / g
    d = np.diff(raw)
    xxc = np.concatenate([[0.0], np.cumsum(xx)])
    a = np.concatenate([[0.0], np.cumsum(raw[:-1] * d)])
    mat = (xxc[None, :] - xxc[:, None]) + (a[None, :] - a[:, None]) \
        - raw[:, None] * (raw[None, :] - raw[:, None])
    mat2 = np.abs(np.triu(mat, k=1))
    inc = np.abs(raw[None, :] - raw[:, None])
    lag = (np.arange(m + 1)[None, :] - np.arange(m + 1)[:, None]).astype(float) * rp.dt
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(lag > 0, lag ** wexp, 0.0) if eta > 0 else np.where(lag > 0, 1.0, 0.0)
    return weight * (inc ** p1 + mat2 ** p2)


def dense_w(rp, eta, i0, i1):
    cost = dense_costs(rp, eta, i0, i1)
    m = cost.shape[0] - 1
    dp = np.empty(m + 1)
    dp[0] = 0.0
    for k in range(1, m + 1):
        dp[k] = np.max(dp[:k] + cost[:k, k])
    return dp


def dense_scan(rp, eta, chi, i0, i1):
    g = rp.gamma - eta
    cuts = [i0]
    cur = i0
    while cur < i1:
        cost = dense_costs(rp, eta, cur, i1)
        m = cost.shape[0] - 1
        dp = np.empty(m + 1)
        dp[0] = 0.0
        last_ok = 0
        for k in range(1, m + 1):
            dp[k] = np.max(dp[:k] + cost[:k, k])
            if dp[k] ** g <= chi:
                last_ok = k
            else:
                break
        if last_ok == 0:
            t_bad = rp.t0 + cur * rp.dt
            raise NumericsError("grid too coarse", cell_left=t_bad, chi=chi,
                                w_cell=float(dp[1] ** g))
        cur += last_ok
        cuts.append(cur)
    return cuts


def scan_outcome(scan, rp, eta, chi, i0, i1):
    """Cut list, or the context of the grid-too-coarse diagnostic."""
    try:
        return scan(rp, eta, chi, i0, i1)
    except NumericsError as err:
        return err.context


def long_lift(seed, n, gamma, spu=64, scale=0.3, hurst=0.45):
    xs = scale * rpm.sample_fbm(hurst, n, seed, horizon=n / spu)
    return rpm.lift_piecewise_linear(xs, 0.0, 1.0 / spu, gamma=gamma)


# (gamma, eta, chi): eta = 0 with plain and with squared exponents, eta > 0,
# and thresholds giving steps shorter and longer than one block of columns
BLOCK_CASES = [(0.4, 0.0, 0.3), (0.5, 0.0, 0.2), (0.4, 0.1, 0.5), (0.49, 0.05, 0.35),
               (0.45, 0.2, 1.5)]


class TestBlockKernelMatchesDense:
    @pytest.mark.parametrize("gamma,eta,chi", BLOCK_CASES)
    @pytest.mark.parametrize("n", [37, 64, 65, 200, 333])
    def test_cuts_and_w_identical(self, gamma, eta, chi, n):
        for seed in range(3):
            rp = long_lift(seed, n, gamma)
            assert scan_outcome(greedy._greedy_scan, rp, eta, chi, 0, n) == \
                scan_outcome(dense_scan, rp, eta, chi, 0, n)
            assert greedy.control_w(rp, eta, 0.0, rp.end_time) == dense_w(rp, eta, 0, n)[n]
            # a window that starts off the grid origin
            i0, i1 = 5, n - 3
            s, t = rp.t0 + i0 * rp.dt, rp.t0 + i1 * rp.dt
            assert greedy.control_w(rp, eta, s, t) == dense_w(rp, eta, i0, i1)[i1 - i0]
            assert scan_outcome(greedy._greedy_scan, rp, eta, chi, i0, i1) == \
                scan_outcome(dense_scan, rp, eta, chi, i0, i1)

    def test_steps_longer_than_a_block(self):
        rp = long_lift(4, 333, 0.4, scale=0.1)
        cuts = greedy._greedy_scan(rp, 0.1, 0.5, 0, 333)
        assert max(np.diff(cuts)) > rpm.BLOCK
        assert cuts == dense_scan(rp, 0.1, 0.5, 0, 333)

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_threshold_equality_accepted(self, eta):
        # chi equal to W(0, k) ** (gamma - eta): the step to k is accepted
        rp = long_lift(6, 150, 0.4)
        g = 0.4 - eta
        for k in (1, 9, 70, 150):
            chi = float(dense_w(rp, eta, 0, 150)[k] ** g)
            assert greedy._control_dp(rp, eta, 0, 150, chi)[1] >= k
            assert scan_outcome(greedy._greedy_scan, rp, eta, chi, 0, 150) == \
                scan_outcome(dense_scan, rp, eta, chi, 0, 150)

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_grid_too_coarse_context(self, eta):
        rp = long_lift(8, 90, 0.4, scale=3.0)
        chi = 1e-3
        with pytest.raises(NumericsError) as want:
            dense_scan(rp, eta, chi, 0, 90)
        with pytest.raises(NumericsError, match="grid too coarse") as got:
            greedy.greedy_times(rp, eta, chi)
        assert got.value.context == want.value.context

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_all_pairs_rows_are_control_w(self, eta):
        rp = fbm_lift(5, n=40)
        mat = greedy.control_w_all_pairs(rp, eta)
        for i in range(0, 40, 7):
            for j in range(i, 41, 5):
                assert mat[i, j] == greedy.control_w(rp, eta, i * rp.dt, j * rp.dt)


def test_long_horizon_in_linear_memory():
    # 16384 cells: one dense n x n float matrix would take 2 GiB
    n = 16384
    xs = 0.01 * rpm.sample_fbm(0.5, n, 1, horizon=256.0)
    rp = rpm.lift_piecewise_linear(xs, 0.0, 256.0 / n, gamma=0.49)
    tracemalloc.start()
    try:
        gp = greedy.greedy_times(rp, 0.05, 0.019)
        w = greedy.control_w(rp, 0.05, 0.0, 256.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gp.count > 1 and w > 0
    assert peak < 64 * 2 ** 20


# ---------------------------------------------------------------------------
# batched window constants of equal-length windows against the per-window scan
# ---------------------------------------------------------------------------

def noisy_path(cells, extra=40):
    """A path of cells + extra cells whose xx is not the geometric lift."""
    rng = np.random.default_rng(cells)
    n = cells + extra
    x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.05, n))])
    return rpm.GridRoughPath(0.25, 1.0 / 32, x, rng.normal(0.0, 0.01, n), GAMMA)


@pytest.fixture
def small_calls(monkeypatch):
    """A budget of eight pair values: the batched kernels take at most eight
    windows or DP rows per call, so a few windows need several calls."""
    monkeypatch.setattr(rpm, "PAIR_BYTES", 64)


def mixed_starts(last):
    """Unordered starts with repeats, both path ends, more distinct starts
    than one call of small_calls takes."""
    starts = [last, 0, last // 2, 0, last] + list(range(last, -1, -3))
    assert len(set(starts)) > 8 and len(set(starts)) < len(starts)
    return starts


def per_window_counts(rp, eta, chi, starts, cells):
    """The reference: one greedy scan per window, in the order of starts."""
    return [greedy.greedy_times(rp, eta, chi, (rp.t0 + a * rp.dt,
                                               rp.t0 + (a + cells) * rp.dt)).count
            for a in starts]


def batched_counts(rp, eta, chi, starts, cells):
    """The counts of window_constants over windows of the one path rp."""
    return greedy.window_constants([rp], eta, chi, [(0, a) for a in starts], cells)[0]


class TestWindowCounts:
    @pytest.mark.parametrize("cells", [1, 31, 32, 64, 65])
    def test_matches_count_in_window(self, cells, small_calls):
        # shifted paths, windows that end at the path's end, and steps from
        # near the end, whose DP rows run past it
        base = noisy_path(cells)
        for k in (0, 7):
            rp = rpm.shift(base, k * base.dt)
            starts = mixed_starts(rp.n_cells - cells)
            for eta, chi in ((ETA, 0.3), (ETA, 0.6), (0.0, 0.3)):
                counts = batched_counts(rp, eta, chi, starts, cells)
                assert counts == per_window_counts(rp, eta, chi, starts, cells)

    def test_threshold_between_array_and_scalar_pow(self):
        # each chi is the lower of numpy's array pow and the scalar pow of a
        # window's W ** (gamma - eta), on W where the two differ: only the
        # scan's scalar pow then ends the steps where the scan does
        rp = noisy_path(32)
        g = GAMMA - ETA
        w = greedy.control_w_all_pairs(rp, ETA)
        pows = [(float(np.power(np.array([v]), g)[0]), v ** g) for i in range(rp.n_cells)
                for v in w[i, i + 1:i + 33]]
        chis = [min(p) for p in pows if p[0] != p[1]][:8] or [pows[10][1]]
        starts = range(rp.n_cells - 32 + 1)

        def outcome(count):
            try:
                return count(rp, ETA, chi, starts, 32)
            except NumericsError as exc:  # a chi below some one-cell W
                return str(exc), exc.context

        for chi in chis:
            assert outcome(batched_counts) == outcome(per_window_counts)

    def test_first_bad_window_in_caller_order(self):
        # two cells above chi; the windows are listed so that the later
        # cell's window comes first, and a clean window precedes both
        cells = 32
        rp = noisy_path(cells, extra=100)
        x = rp.x_raw.copy()
        x[101:] += 5.0
        x[41:] += 5.0
        rp = rpm.GridRoughPath(rp.t0, rp.dt, x, rp.xx, GAMMA)
        starts = [0, 90, 20, 95]
        with pytest.raises(NumericsError) as ref:
            per_window_counts(rp, ETA, 0.3, starts, cells)
        with pytest.raises(NumericsError) as got:
            batched_counts(rp, ETA, 0.3, starts, cells)
        assert ref.value.context["cell_left"] == rp.t0 + 100 * rp.dt
        assert str(got.value) == str(ref.value)
        assert got.value.context == ref.value.context

    def test_rejects_windows_off_the_grid(self):
        rp = noisy_path(32)
        for starts, cells in (([0], 0), ([-1], 32), ([rp.n_cells - 31], 32)):
            with pytest.raises(ValueError):
                batched_counts(rp, ETA, 0.3, starts, cells)

    @pytest.mark.parametrize("cells", [1, 63, 64, 65, 129, 200])
    def test_stack_of_paths(self, cells, small_calls):
        # paths of one grid with different step lengths (chi = 0.6 gives
        # steps of tens to over a hundred cells, across the column tiles);
        # windows as (path, start) pairs, unordered and repeated, the same
        # start on several paths, and more than one chunk of distinct rows
        rps = [noisy_path(cells, extra=60)]
        for k, sd in enumerate((0.02, 0.035, 0.05)):
            rng = np.random.default_rng([cells, k])
            x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, sd, rps[0].n_cells))])
            rps.append(rpm.GridRoughPath(rps[0].t0, rps[0].dt, x,
                                         rng.normal(0.0, 0.01, rps[0].n_cells), GAMMA))
        last = rps[0].n_cells - cells
        windows = [(3, last), (0, 0), (1, 0), (2, 0), (0, 0), (3, 0), (1, last // 2)]
        windows += [(p, a) for a in range(last, -1, -7) for p in (2, 0, 3, 1)]
        for eta, chi in ((ETA, 0.3), (ETA, 0.6), (0.0, 0.6)):
            want = [per_window_counts(rps[p], eta, chi, [a], cells)[0] for p, a in windows]
            assert greedy.window_constants(rps, eta, chi, windows, cells)[0] == want
            assert cells == 1 or len(set(want)) > 1

    def test_rejects_paths_off_one_grid(self):
        rp = noisy_path(32)
        for other in (rpm.shift(rp, rp.dt), rpm.GridRoughPath(0.0, rp.dt, rp.x_raw, rp.xx, GAMMA),
                      rpm.GridRoughPath(rp.t0, rp.dt, rp.x_raw, rp.xx, 0.45)):
            with pytest.raises(ValueError, match="share one grid"):
                greedy.window_constants([rp, other], ETA, 0.3, [(0, 0), (1, 0)], 32)
        for windows in ([(2, 0)], [(-1, 0)], [(0, 0, 1)]):
            with pytest.raises(ValueError):
                greedy.window_constants([rp, rp], ETA, 0.3, windows, 32)

    def test_steep_line_start_row_spans_window_later_rows_one_tile(self, monkeypatch):
        # every one of 1024 cells is a greedy step, so each of the 1024
        # rounds builds one row. The first row, from the window's start, is
        # built across the window (16 tiles), as its seminorms need every
        # pair; each later row stops in its first tile of at most BLOCK
        # columns, which already passes chi (the last row, the path's end)
        steep = rpm.lift_piecewise_linear(8.0 * np.arange(1025) / 1024, 0.0, 1.0 / 1024,
                                          gamma=0.49)
        tiles = []  # per _step_lengths call: its rows and the width of each tile
        step_lengths, packed = greedy._step_lengths, greedy._packed

        def counting_calls(raw, *rest):
            tiles.append((raw.shape[0], []))
            return step_lengths(raw, *rest)

        def counting_tiles(b):
            tiles[-1][1].append(b)
            return packed(b)

        monkeypatch.setattr(greedy, "_step_lengths", counting_calls)
        monkeypatch.setattr(greedy, "_packed", counting_tiles)
        counts, sx, sxx = greedy.window_constants([steep], 0.05, 0.019, [(0, 0)], 1024)
        assert counts == [1024]
        rep = rpm.holder_seminorm(steep)
        assert (sx.tolist(), sxx.tolist()) == ([rep.seminorm_x], [rep.seminorm_xx])
        assert tiles[0] == (1, [rpm.BLOCK] * 16)
        assert len(tiles) == 1024
        assert all(rows == 1 and len(b) == 1 and b[0] <= rpm.BLOCK for rows, b in tiles[1:])

    def test_chunked_memory(self):
        # every unit window of a 14-unit, 32-step path: one batch of all 417
        # windows would hold several arrays of 417 x 528 pair values (1.8 MB
        # each), counts and seminorms alike
        xs = 0.01 * rpm.sample_fbm(0.5, 14 * 32, 2, horizon=14.0)
        rp = rpm.lift_piecewise_linear(xs, -13.0, 1.0 / 32, gamma=0.49)
        starts = range(rp.n_cells - 32 + 1)
        tracemalloc.start()
        try:
            counts = batched_counts(rp, 0.05, 0.019, starts, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert min(counts) >= 1
        assert peak < 2 * 2 ** 20


# ---------------------------------------------------------------------------
# the pruned DP against the kernel that costed every row, bit for bit
# ---------------------------------------------------------------------------

def ref_cost_block(raw, xx, k0, dt, eta, g):
    """The all-rows cost block of the unpruned kernel, verbatim."""
    rows = raw.shape[-1]
    p1 = 1.0 / g
    p2 = 0.5 / g
    wexp = -eta / g
    lag = np.arange(k0 - rows + 1, rows).astype(float) * dt
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(lag > 0, lag ** wexp, 0.0) if eta > 0 else np.where(lag > 0, 1.0, 0.0)
    weight = sliding_window_view(weight, rows - k0)[::-1]
    cost = np.abs(raw[..., None, k0:] - raw[..., :, None]) ** p1
    cost += np.abs(rpm._second_level_block(raw, xx, k0)) ** p2
    cost *= weight
    return cost


def ref_control_dp(rp, eta, i0, i1, limit):
    """The unpruned _control_dp, verbatim: every row of every column block."""
    raw = rp.x_raw[i0:i1 + 1]
    xx = rp.xx[i0:i1]
    m = i1 - i0
    g = rp.gamma - eta
    check = limit < math.inf
    dp = np.empty(m + 1)
    dp[0] = 0.0
    k0 = 1
    while k0 <= m:
        k1 = min(k0 + rpm.BLOCK, m + 1)
        cost = ref_cost_block(raw[:k1], xx[:k1 - 1], k0, rp.dt, eta, g)
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


def ref_greedy_scan(rp, eta, chi, i0, i1):
    g = rp.gamma - eta
    cuts = [i0]
    cur = i0
    while cur < i1:
        dp, last_ok = ref_control_dp(rp, eta, cur, i1, chi)
        if last_ok == 0:
            raise greedy._coarse_cell(rp, chi, cur, float(dp[1] ** g))
        cur += last_ok
        cuts.append(cur)
    return cuts


def dp_outcome(kernel, rp, eta, i0, i1, limit=math.inf):
    """The filled part of the DP row and the last column within the limit."""
    dp, last = kernel(rp, eta, i0, i1, limit)
    return dp[:min(last + 2, i1 - i0 + 1)], last


def same_dp(rp, eta, i0, i1, limit=math.inf):
    got = dp_outcome(greedy._control_dp, rp, eta, i0, i1, limit)
    want = dp_outcome(ref_control_dp, rp, eta, i0, i1, limit)
    return got[1] == want[1] and np.array_equal(got[0], want[0])


def prune_path(kind, cells):
    """A geometric lift or a path with non-geometric xx, 40 cells longer than
    the windows cut from it."""
    if kind == "lift":
        return long_lift(cells, cells + 40, GAMMA)
    return noisy_path(cells)


PRUNE_ETAS = [0.0, 0.1, 0.3]


class TestPrunedDpBitwise:
    @pytest.mark.parametrize("kind", ["lift", "noisy"])
    @pytest.mark.parametrize("eta", PRUNE_ETAS)
    @pytest.mark.parametrize("cells", [1, 63, 64, 65, 128, 129, 200, 4096])
    def test_w_rows(self, kind, eta, cells):
        rp = prune_path(kind, cells)
        windows = [(17, 17 + cells)] if cells > 1000 else [(0, cells), (17, 17 + cells)]
        for i0, i1 in windows:
            assert same_dp(rp, eta, i0, i1)

    @pytest.mark.parametrize("kind", ["lift", "noisy"])
    @pytest.mark.parametrize("eta", PRUNE_ETAS)
    def test_limited_scans(self, kind, eta):
        # thresholds met inside the first, the third and the fifth block of
        # columns, and one below the first cell
        rp = prune_path(kind, 600)
        g = GAMMA - eta
        for i0 in (0, 23):
            ref = ref_control_dp(rp, eta, i0, i0 + 600, math.inf)[0]
            for chi in [float(ref[k] ** g) for k in (40, 150, 300)] + [float(ref[1] ** g) / 2]:
                assert same_dp(rp, eta, i0, i0 + 600, chi)
                assert scan_outcome(greedy._greedy_scan, rp, eta, chi, i0, i0 + 600) == \
                    scan_outcome(ref_greedy_scan, rp, eta, chi, i0, i0 + 600)
        chi = float(ref[300] ** g)
        gp = greedy.greedy_times(rp, eta, chi)
        cuts = ref_greedy_scan(rp, eta, chi, 0, rp.n_cells)
        assert gp.taus.tolist() == (rp.t0 + rp.dt * np.asarray(cuts, dtype=float)).tolist()
        s, t = rp.t0 + 23 * rp.dt, rp.t0 + 623 * rp.dt
        assert greedy.greedy_times(rp, eta, chi, (s, t)).count == \
            len(ref_greedy_scan(rp, eta, chi, 23, 623)) - 1

    def test_first_cell_error_context(self):
        rp = prune_path("noisy", 300)
        chi = float(ref_control_dp(rp, 0.1, 0, 300, math.inf)[0][1] ** 0.3) / 2
        with pytest.raises(NumericsError) as want:
            ref_greedy_scan(rp, 0.1, chi, 0, 300)
        with pytest.raises(NumericsError) as got:
            greedy.greedy_times(rp, 0.1, chi)
        assert str(got.value) == str(want.value) and got.value.context == want.value.context

    @pytest.mark.parametrize("cells", [32, 65])
    def test_window_counts(self, cells):
        rp = noisy_path(cells)
        starts = mixed_starts(rp.n_cells - cells)
        for eta, chi in ((0.1, 0.3), (0.0, 0.3), (0.3, 0.6)):
            want = [len(ref_greedy_scan(rp, eta, chi, a, a + cells)) - 1 for a in starts]
            assert batched_counts(rp, eta, chi, starts, cells) == want

    def test_all_pairs_rows(self):
        rp = prune_path("noisy", 140)
        mat = greedy.control_w_all_pairs(rp, 0.1, (rp.t0, rp.t0 + 140 * rp.dt))
        for i in (0, 5, 11):
            assert np.array_equal(mat[i, i:], ref_control_dp(rp, 0.1, i, 140, math.inf)[0])


# ---------------------------------------------------------------------------
# the fused window pass: packed DP rows, counts and seminorms, bit for bit
# ---------------------------------------------------------------------------

def ref_step_dp(raw, xx, dt, eta, g):
    """The full-square batched DP that the packed triangle replaced: every
    (row, column) entry of each tile of ref_cost_block, over whole rows."""
    cells = raw.shape[-1] - 1
    dp = np.zeros(raw.shape)
    for k0 in range(1, cells + 1, rpm.BLOCK):
        k1 = min(k0 + rpm.BLOCK, cells + 1)
        cost = ref_cost_block(raw[:, :k1], xx[:, :k1 - 1], k0, dt, eta, g)
        cost[:, :k0] += dp[:, :k0, None]
        best = cost[:, :k0].max(axis=1)
        for c in range(k1 - k0):
            dp[:, k0 + c] = best[:, c]
            np.maximum(best[:, c + 1:], dp[:, k0 + c, None] + cost[:, k0 + c, c + 1:],
                       out=best[:, c + 1:])
    return dp


def stack_of_paths(cells):
    """Three paths of one grid, 60 cells longer than the windows, whose xx
    is not the geometric lift, with steps of a few to over a hundred cells."""
    rps = []
    for k, sd in enumerate((0.02, 0.035, 0.05)):
        rng = np.random.default_rng([cells, k, 7])
        x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, sd, cells + 60))])
        rps.append(rpm.GridRoughPath(0.25, 1.0 / 32, x, rng.normal(0.0, 0.01, cells + 60), GAMMA))
    return rps


FUSED_CELLS = [1, 31, 32, 33, 63, 64, 65, 129]


class TestWindowConstants:
    @pytest.mark.parametrize("eta", [0.0, 0.05])
    @pytest.mark.parametrize("cells", FUSED_CELLS)
    def test_matches_per_window_reference(self, cells, eta):
        # (path, start) windows unordered and repeated, the same start on
        # several paths, against one greedy scan and one seminorm pass each
        rps = stack_of_paths(cells)
        windows = [(2, 60), (0, 0), (1, 0), (0, 0), (2, 0), (1, 30), (1, 30)]
        windows += [(p, a) for a in range(60, -1, -11) for p in (1, 2, 0)]
        counts, sx, sxx = greedy.window_constants(rps, eta, 0.3, windows, cells)
        want = []
        for p, a in windows:
            s, t = rps[p].t0 + a * rps[p].dt, rps[p].t0 + (a + cells) * rps[p].dt
            rep = rpm.holder_seminorm(rps[p], (s, t))
            want.append((greedy.greedy_times(rps[p], eta, 0.3, (s, t)).count,
                         rep.seminorm_x, rep.seminorm_xx))
        assert np.array_equal(np.array(list(zip(counts, sx, sxx))), np.array(want))
        assert cells < 31 or len({n for n, _, _ in want}) > 1

    @pytest.mark.parametrize("eta", [0.0, 0.05])
    @pytest.mark.parametrize("cells", FUSED_CELLS)
    def test_dp_rows_match_full_square(self, cells, eta):
        # rows from every point of a path: with the seminorm tables the whole
        # row, without them the tiles built until every row passed chi
        rp = stack_of_paths(cells)[1]
        g = GAMMA - eta
        raw = sliding_window_view(rp.x_raw, cells + 1)
        xx = sliding_window_view(rp.xx, cells)
        ref = ref_step_dp(raw, xx, rp.dt, eta, g)
        tables = [rpm._lag_table(cells, rp.dt, p) for p in (GAMMA, 2 * GAMMA)]
        room = [cells] * raw.shape[0]
        _, dp, sups = greedy._step_lengths(raw, xx, rp.dt, eta, g, 0.3, room, tables)
        assert np.array_equal(dp, ref) and len(sups) == 2
        _, dp, sups = greedy._step_lengths(raw, xx, rp.dt, eta, g, 0.3, room)
        built = 1 + int(np.count_nonzero(dp[0, 1:]))
        assert sups is None and (built == cells + 1 or (built - 1) % rpm.BLOCK == 0)
        assert np.array_equal(dp[:, :built], ref[:, :built]) and not dp[:, built:].any()
        assert cells < 129 or built < cells + 1


def drift_path(cells, slope, flat=0, offset=0.0, seed=0):
    """A geometric lift of a strong linear drift with small noise, constant on
    its first flat cells; x_raw sits at the given offset."""
    rng = np.random.default_rng(seed)
    steps = np.concatenate([np.zeros(flat), slope / 64 + rng.normal(0.0, 1e-3, cells - flat)])
    x = np.concatenate([[0.0], np.cumsum(steps)])
    return rpm.GridRoughPath(0.0, 1.0 / 64, x + offset, 0.5 * steps * steps, GAMMA)


def last_column_candidates(rp, eta, m):
    """dp[i] + cost[i, m] of every row i, by the unpruned kernel's arithmetic."""
    dp = ref_control_dp(rp, eta, 0, m, math.inf)[0]
    cost = ref_cost_block(rp.x_raw[:m + 1], rp.xx[:m], m, rp.dt, eta, rp.gamma - eta)
    return dp[:m] + cost[:m, 0]


class TestPrunedDpAdversarial:
    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_single_segment_from_the_farthest_block(self, eta):
        # superadditive drift: the one segment [0, m] wins the last column, so
        # the winner sits in block 0, the farthest from the last tile
        rp = drift_path(300, 2.0)
        cand = last_column_candidates(rp, eta, 300)
        assert int(np.argmax(cand)) == 0 and np.sum(cand == cand[0]) == 1
        assert greedy.control_w(rp, eta, 0.0, rp.end_time) == cand[0]
        assert same_dp(rp, eta, 0, 300)

    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_single_segment_of_pure_area(self, eta):
        # x constant and xx > 0: only the second level costs, every block has
        # R = 0, and the one segment [0, m] wins through its area A
        rng = np.random.default_rng(1)
        rp = rpm.GridRoughPath(0.0, 1.0 / 64, np.zeros(301), 0.01 * (1.0 + rng.random(300)),
                               GAMMA)
        cand = last_column_candidates(rp, eta, 300)
        assert int(np.argmax(cand)) == 0
        assert greedy.control_w(rp, eta, 0.0, rp.end_time) == cand[0]
        assert same_dp(rp, eta, 0, 300)

    @pytest.mark.parametrize("eta", [0.05, 0.3])
    def test_winner_is_the_pivot_row(self, eta):
        # flat up to row BLOCK, block 0's pivot; the falling lag weight then
        # makes that row the winner of every later column
        rp = drift_path(320, 2.0, flat=rpm.BLOCK)
        cand = last_column_candidates(rp, eta, 320)
        assert int(np.argmax(cand)) == rpm.BLOCK
        assert greedy.control_w(rp, eta, 0.0, rp.end_time) == cand[rpm.BLOCK]
        assert same_dp(rp, eta, 0, 320)

    @pytest.mark.parametrize("offset", [1e4, 1e7])
    def test_raw_far_from_zero(self, offset):
        # prefix sums and raw ** 2 dwarf the second-level entries, so their
        # rounding is large against the costs
        for eta in (0.0, 0.1):
            for seed in range(3):
                assert same_dp(drift_path(400, 2.0, offset=offset, seed=seed), eta, 0, 400)
            noisy = noisy_path(400)
            rp = rpm.GridRoughPath(noisy.t0, noisy.dt, noisy.x_raw + offset, noisy.xx, GAMMA)
            assert same_dp(rp, eta, 0, 400)

    @pytest.mark.parametrize("kind", ["lift", "noisy"])
    def test_matches_exhaustive_last_cut_oracle(self, kind):
        # Bellman's recursion over every last cut, on the pair costs of
        # brute_force_w; 2 ** 170 partitions are too many to enumerate
        rp = prune_path(kind, 170)
        for eta in (0.0, 0.1):
            cost = brute_costs(rp, eta, 0, 170)
            best = [0.0]
            for j in range(1, 171):
                best.append(max(best[i] + cost[i, j] for i in range(j)))
            assert greedy.control_w(rp, eta, rp.t0, rp.t0 + 170 * rp.dt) == \
                pytest.approx(best[-1], rel=1e-12)


def far_blocks(rp, eta, m):
    """Pivot, dp at the pivot, R and A of every row block of [0, m] that a
    later column tile can treat as far, from the unpruned dp."""
    dp = ref_control_dp(rp, eta, 0, m, math.inf)[0]
    raw = rp.x_raw[:m + 1]
    xxc, a = rpm._prefix_sums(raw, rp.xx[:m])
    blocks = []
    for p in range(rpm.BLOCK, m - 2 * rpm.BLOCK + 1, rpm.BLOCK):
        rows = slice(0 if p == rpm.BLOCK else p - rpm.BLOCK + 1, p + 1)
        blocks.append((rows, p, dp[p], np.abs(raw[p] - raw[rows]).max(),
                       np.abs(rpm._chen_pairs(raw, xxc, a, rows, slice(p, p + 1))).max()))
    return dp, raw, xxc, a, blocks


class TestFarBound:
    @pytest.mark.parametrize("case", ["tight", "noisy", "offset"])
    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_bounds_every_candidate_of_its_block(self, case, eta):
        # "tight": a geometric lift that rises to row BLOCK + 1, the first
        # row of block 1, creeps down to its pivot by less than dp's last bit
        # and then falls. dp of that row equals dp of the pivot, it attains
        # R and A, and Chen's inequality holds with equality, so at eta = 0
        # the bound is attained by that row's candidates up to rounding
        if case == "tight":
            rng = np.random.default_rng(3)
            steps = np.repeat([0.05, -1e-10, -0.05], [rpm.BLOCK + 1, rpm.BLOCK - 1, 272]) \
                * (1.0 + 0.1 * rng.random(400))
            x = np.concatenate([[0.0], np.cumsum(steps)])
            rp = rpm.GridRoughPath(0.0, 1.0 / 64, x, 0.5 * steps * steps, GAMMA)
        elif case == "noisy":
            rp = noisy_path(400)
        else:
            noisy = noisy_path(400)
            rp = rpm.GridRoughPath(noisy.t0, noisy.dt, noisy.x_raw + 1e6, noisy.xx, GAMMA)
        m = 400
        g = GAMMA - eta
        dp, raw, xxc, a, blocks = far_blocks(rp, eta, m)
        far = tuple(np.array(v) for v in zip(*(b[1:] for b in blocks)))
        k0 = blocks[-1][1] + rpm.BLOCK + 1
        w = greedy._lag_weights(k0 - m, m + 1, rp.dt, eta, g)
        bound = greedy._far_bound(raw, xxc, a, far, k0, m + 1, w, 1 / g, 0.5 / g)
        for b, (rows, *_) in enumerate(blocks):
            rows = np.arange(m + 1)[rows]
            weight = None if w is None else w[np.arange(k0, m + 1) - rows[:, None] - (k0 - m)]
            cand = greedy._pair_costs(raw, xxc, a, rows, k0, m + 1, weight, 1 / g, 0.5 / g)
            cand += dp[rows, None]
            assert np.all(cand <= bound[b])


def test_pruning_costs_a_fraction_of_the_pairs(monkeypatch):
    # a dense fall-back would cost all n^2 / 2 pairs of a 2048-cell W
    n = 2048
    xs = 0.01 * rpm.sample_fbm(0.5, n, 4, horizon=32.0)
    rp = rpm.lift_piecewise_linear(xs, 0.0, 1.0 / 64, gamma=0.49)
    costed = []
    pair_costs = greedy._pair_costs

    def counting(*args):
        cost = pair_costs(*args)
        costed.append(cost.shape[0] * cost.shape[1])
        return cost

    monkeypatch.setattr(greedy, "_pair_costs", counting)
    w = greedy.control_w(rp, 0.05, 0.0, 32.0)
    assert w == ref_control_dp(rp, 0.05, 0, n, math.inf)[0][n]
    assert sum(costed) < 0.4 * n * n / 2
