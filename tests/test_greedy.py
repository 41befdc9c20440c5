"""Control W, greedy times and counts."""

import tracemalloc

import numpy as np
import pytest

from rpde_lab import greedy
from rpde_lab import roughpath as rpm
from rpde_lab.errors import NumericsError

GAMMA, ETA = 0.4, 0.1


def fbm_lift(seed, n=64, scale=0.3, hurst=0.45):
    xs = scale * rpm.sample_fbm(hurst, n, seed)
    return rpm.lift_piecewise_linear(xs, 0.0, 1.0 / n, gamma=GAMMA)


def brute_force_w(rp, eta, lo, hi):
    """Independent exhaustive enumeration over all grid partitions."""
    g = rp.gamma - eta
    m = hi - lo
    cost = np.zeros((m + 1, m + 1))
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            xij = rp.x[lo + j] - rp.x[lo + i]
            xxij = 0.0
            for k in range(lo + i, lo + j):
                xxij += rp.xx[k] + (rp.x[k] - rp.x[lo + i]) * (rp.x[k + 1] - rp.x[k])
            w = ((j - i) * rp.dt) ** (-eta / g) if eta > 0 else 1.0
            cost[i, j] = w * (abs(xij) ** (1 / g) + abs(xxij) ** (0.5 / g))
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
        n_steps = greedy.count_in_window(rp, ETA, chi, 0.0, 1.0)
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
        counts = [greedy.count_in_window(rp, ETA, chi, 0.0, 1.0)
                  for chi in (0.25, 0.4, 0.6, 0.9)]
        assert counts[0] > 1
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_shift_equivariance_exact(self):
        rp = fbm_lift(11, n=128, scale=0.3)
        sh = rpm.shift(rp, 0.25)
        assert greedy.control_w(sh, ETA, 0.0, 0.5) == greedy.control_w(rp, ETA, 0.25, 0.75)
        assert greedy.count_in_window(sh, ETA, 0.3, 0.0, 0.5) == \
            greedy.count_in_window(rp, ETA, 0.3, 0.25, 0.75)

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
# batched counts of equal-length windows against the per-window scan
# ---------------------------------------------------------------------------

def noisy_path(cells, extra=40):
    """A path of cells + extra cells whose xx is not the geometric lift."""
    rng = np.random.default_rng(cells)
    n = cells + extra
    x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.05, n))])
    return rpm.GridRoughPath(0.25, 1.0 / 32, x, rng.normal(0.0, 0.01, n), GAMMA)


def mixed_starts(last):
    """Unordered starts with repeats, both path ends, more than one chunk."""
    starts = [last, 0, last // 2, 0, last] + list(range(last, -1, -3))
    assert len(starts) > rpm.CHUNK and len(set(starts)) < len(starts)
    return starts


def per_window_counts(rp, eta, chi, starts, cells):
    return [greedy.count_in_window(rp, eta, chi, rp.t0 + a * rp.dt, rp.t0 + (a + cells) * rp.dt)
            for a in starts]


class TestWindowCounts:
    @pytest.mark.parametrize("cells", [1, 31, 32, 64, 65])
    def test_matches_count_in_window(self, cells):
        # shifted paths, windows that end at the path's end, and steps from
        # near the end, whose DP rows run past it
        base = noisy_path(cells)
        for k in (0, 7):
            rp = rpm.shift(base, k * base.dt)
            starts = mixed_starts(rp.n_cells - cells)
            for eta, chi in ((ETA, 0.3), (ETA, 0.6), (0.0, 0.3)):
                counts = greedy.window_counts(rp, eta, chi, starts, cells)
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
            assert outcome(greedy.window_counts) == outcome(per_window_counts)

    def test_first_bad_window_in_caller_order(self):
        # two cells above chi; the windows are listed so that the later
        # cell's window comes first, and a clean window precedes both
        cells = 32
        rp = noisy_path(cells, extra=100)
        x = rp.x_raw.copy()
        x[101:] += 5.0
        x[41:] += 5.0
        rp = rpm.GridRoughPath(rp.t0, rp.dt, x - x[0], rp.xx, GAMMA, x_raw=x)
        starts = [0, 90, 20, 95]
        with pytest.raises(NumericsError) as ref:
            per_window_counts(rp, ETA, 0.3, starts, cells)
        with pytest.raises(NumericsError) as got:
            greedy.window_counts(rp, ETA, 0.3, starts, cells)
        assert ref.value.context["cell_left"] == rp.t0 + 100 * rp.dt
        assert str(got.value) == str(ref.value)
        assert got.value.context == ref.value.context

    def test_rejects_windows_off_the_grid(self):
        rp = noisy_path(32)
        for starts, cells in (([0], 0), ([-1], 32), ([rp.n_cells - 31], 32)):
            with pytest.raises(ValueError):
                greedy.window_counts(rp, ETA, 0.3, starts, cells)

    def test_chunked_memory(self):
        # every unit window of a 14-unit, 32-step path: one batch of all 417
        # windows would hold several 417 x 33 x 32 float arrays (3.5 MB each)
        xs = 0.01 * rpm.sample_fbm(0.5, 14 * 32, 2, horizon=14.0)
        rp = rpm.lift_piecewise_linear(xs, -13.0, 1.0 / 32, gamma=0.49)
        starts = range(rp.n_cells - 32 + 1)
        tracemalloc.start()
        try:
            counts = greedy.window_counts(rp, 0.05, 0.019, starts, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert min(counts) >= 1
        assert peak < 2 * 2 ** 20
