"""Lifts, fBm sampling, seminorms, metric, shifts."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpde_lab import roughpath as rpm


def lift_linear(n=64, gamma=0.4):
    dt = 1.0 / n
    return rpm.lift_piecewise_linear(np.arange(n + 1) * dt, 0.0, dt, gamma=gamma)


class TestLift:
    def test_linear_path_single_cell(self):
        rp = rpm.lift_piecewise_linear([0.0, 1.0], 0.0, 1.0, gamma=0.4)
        assert rp.xx[0] == 0.5

    def test_constant_path_has_zero_area(self):
        rp = rpm.lift_piecewise_linear(np.full(9, 3.7), 0.0, 0.125, gamma=0.4)
        assert np.all(rp.xx == 0.0)
        assert np.all(rp.x_raw == 0.0)

    def test_rebased_to_zero(self):
        rp = rpm.lift_piecewise_linear([5.0, 6.0, 4.5], 0.0, 0.5, gamma=0.4)
        assert rp.x_raw[0] == 0.0
        assert rp.x_raw[1] == 1.0

    def test_cell_area_matches_riemann_oracle(self):
        # brute-force Riemann approximation of the iterated integral of the
        # piecewise-linear interpolant, 1e4 sub-steps per cell
        rng = np.random.default_rng(5)
        samples = np.cumsum(rng.normal(0, 0.5, 8))
        dt = 0.25
        rp = rpm.lift_piecewise_linear(samples, 0.0, dt, gamma=0.4)
        sub = 10_000
        for k in range(7):
            dx = rp.x_raw[k + 1] - rp.x_raw[k]
            r = (np.arange(sub) + 0.5) / sub
            riemann = np.sum((r * dx) * (dx / sub))
            assert rp.xx[k] == pytest.approx(riemann, rel=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            rpm.lift_piecewise_linear([1.0], 0.0, 1.0)

    def test_caller_arrays_stay_writeable(self):
        x, xx = np.zeros(3), np.zeros(2)
        rp = rpm.GridRoughPath(0.0, 1.0, x, xx, 0.4)
        x[0] = xx[1] = 1.0
        assert rp.x_raw[0] == 0.0 and rp.xx[1] == 0.0
        assert not (rp.x_raw.flags.writeable or rp.xx.flags.writeable)
        # read-only inputs, such as the views a window passes, are not copied
        assert np.shares_memory(rp.window(1.0, 2.0).x_raw, rp.x_raw)


class TestFbm:
    def test_brownian_increment_variance(self):
        n, reps = 8, 10_000
        incs = []
        for seed in range(reps):
            x = rpm.sample_fbm(0.5, n, seed)
            incs.append(np.diff(x))
        var = float(np.var(np.concatenate(incs)))
        assert abs(var - 1.0 / n) <= 0.05 / n

    def test_starts_at_zero(self):
        for hurst in (0.4, 0.5, 0.75, 1.0):
            assert rpm.sample_fbm(hurst, 16, seed=3)[0] == 0.0
        # the circulant embedding is nonnegative definite up to rounding for
        # every hurst in (1/3, 1) and every length
        for hurst in (0.34, 0.8, 0.85, 0.9, 0.95, 0.99, 0.99999):
            for n in (2, 3, 17, 1000, 4097):
                x = rpm.sample_fbm(hurst, n, seed=n)
                assert x[0] == 0.0 and np.isfinite(x).all()

    def test_terminal_variance_h04(self):
        reps = 10_000
        finals = np.array([rpm.sample_fbm(0.4, 16, seed)[-1] for seed in range(reps)])
        assert abs(np.var(finals) - 1.0) <= 0.05

    def test_law_at_high_hurst(self):
        # fBm on [0, 1] has Var X(1) = 1, and fGn of step dt the lag-1
        # covariance dt^(2H) r(1), r(1) = (2^(2H) - 2) / 2 = 0.741 at H = 0.9;
        # the tolerances are about 3.5 standard errors over 10 000 seeds
        hurst, n, reps = 0.9, 16, 10_000
        paths = np.array([rpm.sample_fbm(hurst, n, seed) for seed in range(reps)])
        assert abs(np.var(paths[:, -1]) - 1.0) <= 0.05
        incr = np.diff(paths, axis=1) * n ** hurst  # unit-step fGn
        assert abs(np.mean(incr[:, 1:] * incr[:, :-1]) - (2.0 ** (2 * hurst) - 2.0) / 2.0) <= 0.05

    def test_long_sample_at_high_hurst_in_linear_memory(self):
        # a dense 8192 x 8192 covariance alone would take 512 MiB
        tracemalloc.start()
        try:
            x = rpm.sample_fbm(0.95, 8192, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(x).all()
        assert peak < 8 * 2 ** 20

    def test_self_similarity_scaling(self):
        a = rpm.sample_fbm(0.4, 32, seed=11, horizon=4.0)
        b = rpm.sample_fbm(0.4, 32, seed=11, horizon=1.0)
        assert a == pytest.approx(b * 4.0 ** 0.4)

    def test_deterministic_per_seed(self):
        assert np.array_equal(rpm.sample_fbm(0.45, 32, 7), rpm.sample_fbm(0.45, 32, 7))

    def test_hurst_validation(self):
        with pytest.raises(ValueError):
            rpm.sample_fbm(0.2, 16, 0)
        with pytest.raises(ValueError):
            rpm.sample_fbm(1.2, 16, 0)
        with pytest.raises(ValueError):
            rpm.sample_fbm(0.5, 1, 0)


class TestSeminorm:
    def test_linear_path_value(self):
        rp = lift_linear(64, gamma=0.4)
        # |t-s| / (t-s)^0.4 maximal at the full interval
        assert rpm.holder_seminorm(rp).seminorm_x == pytest.approx(1.0, abs=1e-12)

    def test_constant_path(self):
        rp = rpm.lift_piecewise_linear(np.zeros(17), 0.0, 1 / 16, gamma=0.4)
        rep = rpm.holder_seminorm(rp)
        assert rep.seminorm_x == 0.0
        assert rep.seminorm_xx == 0.0

    def test_empty_interval(self):
        rp = lift_linear(8)
        assert rpm.holder_seminorm(rp, (0.25, 0.25)).seminorm_x == 0.0

    def test_refinement_monotonicity(self):
        xs = rpm.sample_fbm(0.5, 128, seed=2)
        fine = rpm.lift_piecewise_linear(xs, 0.0, 1 / 128, gamma=0.4)
        coarse = rpm.coarsen(fine, 2)
        rf, rc = rpm.holder_seminorm(fine), rpm.holder_seminorm(coarse)
        assert rf.seminorm_x >= rc.seminorm_x
        assert rf.seminorm_xx >= rc.seminorm_xx

    def test_shift_equivariance_exact(self):
        xs = rpm.sample_fbm(0.45, 96, seed=9)
        rp = rpm.lift_piecewise_linear(xs, 0.0, 1 / 32, gamma=0.4)
        sh = rpm.shift(rp, 0.5)
        a, b = rpm.holder_seminorm(sh, (0.0, 1.0)), rpm.holder_seminorm(rp, (0.5, 1.5))
        assert a.seminorm_x == b.seminorm_x
        assert a.seminorm_xx == b.seminorm_xx


class TestChen:
    def test_linear_path_exact_area(self):
        rp = lift_linear(64)
        dt = rp.dt
        for i in range(0, 65, 7):
            for j in range(i + 1, 65, 5):
                assert rp.second_level(i, j) == ((j - i) * dt) ** 2 / 2.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_chen_defect_random_paths(self, seed):
        rng = np.random.default_rng(seed)
        n = 24
        x = np.concatenate([[0.0], np.cumsum(rng.normal(0, 0.3, n))])
        xx = rng.normal(0, 0.1, n)
        rp = rpm.GridRoughPath(0.0, 0.125, x, xx, 0.4)
        idx = rng.integers(0, n + 1, size=(20, 3))
        for raw in idx:
            i, u, j = np.sort(raw)
            if i == u or u == j:
                continue
            defect = (rp.second_level(i, j) - rp.second_level(i, u) - rp.second_level(u, j)
                      - rp.increment(i, u) * rp.increment(u, j))
            assert abs(defect) <= 1e-12 * (1.0 + abs(rp.second_level(i, j)))


class TestMetric:
    def test_self_distance_zero(self):
        rp = lift_linear(32)
        assert rpm.rough_metric(rp, rp) == 0.0

    def test_distance_to_zero_is_rho(self):
        xs = rpm.sample_fbm(0.5, 64, seed=4)
        rp = rpm.lift_piecewise_linear(xs, 0.0, 1 / 64, gamma=0.4)
        zero = rpm.GridRoughPath(rp.t0, rp.dt, np.zeros_like(rp.x_raw), np.zeros_like(rp.xx), rp.gamma)
        rho = rpm.rough_metric(rp, zero)
        expected = rpm.holder_seminorm(rp).rho
        assert rho == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        a = rpm.lift_piecewise_linear(rpm.sample_fbm(0.5, 32, 1), 0.0, 1 / 32, gamma=0.4)
        b = rpm.lift_piecewise_linear(rpm.sample_fbm(0.5, 32, 2), 0.0, 1 / 32, gamma=0.4)
        assert rpm.rough_metric(a, b) == rpm.rough_metric(b, a)
        assert rpm.rough_metric(a, b) > 0

    def test_mismatched_grids_rejected(self):
        a = lift_linear(32)
        b = lift_linear(64)
        with pytest.raises(ValueError):
            rpm.rough_metric(a, b)

    def test_nested_lifts_agree_on_common_grid(self):
        # scalar canonical lifts carry the geometric second level X^2/2, so
        # nested samples restrict to the identical rough path on a coarse grid
        n_fine = 256
        xs = rpm.sample_fbm(0.5, n_fine, seed=13)
        coarse = rpm.lift_piecewise_linear(xs[::4], 0.0, 4 / n_fine, gamma=0.4)
        fine = rpm.lift_piecewise_linear(xs, 0.0, 1 / n_fine, gamma=0.4)
        assert rpm.rough_metric(coarse, rpm.coarsen(fine, 4)) <= 1e-12

    def test_dyadic_lifts_form_cauchy_sequence(self):
        # lifts of dyadic piecewise-linear interpolants of one fBm sample
        # converge to the full-resolution lift in the gamma' metric, gamma' < H
        n_fine = 512
        xs = rpm.sample_fbm(0.5, n_fine, seed=13)
        t_fine = np.arange(n_fine + 1) / n_fine
        fine = rpm.lift_piecewise_linear(xs, 0.0, 1 / n_fine, gamma=0.35)
        dists = []
        for n in (32, 64, 128, 256):
            k = n_fine // n
            t_coarse = np.arange(n + 1) * k / n_fine
            interp = np.interp(t_fine, t_coarse, xs[::k])
            approx = rpm.lift_piecewise_linear(interp, 0.0, 1 / n_fine, gamma=0.35)
            dists.append(rpm.rough_metric(approx, fine))
        assert all(b < a for a, b in zip(dists, dists[1:]))


# ---------------------------------------------------------------------------
# reference: the lag-by-lag loops over dense pair matrices that the pair-sup
# kernel replaced
# ---------------------------------------------------------------------------

def dense_second_level(raw, xx):
    d = np.diff(raw)
    xxc = np.concatenate([[0.0], np.cumsum(xx)])
    a = np.concatenate([[0.0], np.cumsum(raw[:-1] * d)])
    mat = (xxc[None, :] - xxc[:, None]) + (a[None, :] - a[:, None]) \
        - raw[:, None] * (raw[None, :] - raw[:, None])
    return np.triu(mat, k=1)


def lag_loop(lag_values, m, dt, p):
    best = 0.0
    for lag in range(1, m + 1):
        best = max(best, np.max(lag_values(lag)) / (lag * dt) ** p)
    return float(best)


def ref_holder(rp, interval=None):
    i, j = rp.interval_slice(interval)
    raw, xx = rp.x_raw[i:j + 1], rp.xx[i:j]
    m = raw.size - 1
    mat = dense_second_level(raw, xx)
    return (lag_loop(lambda lag: np.abs(raw[lag:] - raw[:-lag]), m, rp.dt, rp.gamma),
            lag_loop(lambda lag: np.abs(np.diagonal(mat, offset=lag)), m, rp.dt,
                     2.0 * rp.gamma))


def ref_metric(a, b, interval=None):
    i, j = a.interval_slice(interval)
    raw_a, raw_b = a.x_raw[i:j + 1], b.x_raw[i:j + 1]
    m = raw_a.size - 1
    diff1 = (raw_a - raw_a[0]) - (raw_b - raw_b[0])
    mat = dense_second_level(raw_a, a.xx[i:j]) - dense_second_level(raw_b, b.xx[i:j])
    best1 = lag_loop(lambda lag: np.abs(diff1[lag:] - diff1[:-lag]), m, a.dt, a.gamma)
    best2 = lag_loop(lambda lag: np.abs(np.diagonal(mat, offset=lag)), m, a.dt,
                     2.0 * a.gamma)
    return float(best1 + best2)


class TestPairSupKernel:
    @pytest.mark.parametrize("cells", [1, 2, 31, 63, 64, 65, 130])
    def test_matches_lag_loops_bitwise(self, cells):
        # windows shorter than, equal to and longer than one column block, on
        # sub-intervals and on shifted paths; xx is not the geometric lift
        rng = np.random.default_rng(cells)
        dt = 1.0 / 32

        def path():
            x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.3, cells + 7))])
            return rpm.GridRoughPath(0.25, dt, x, rng.normal(0.0, 0.1, cells + 7), 0.4)

        a, b = path(), path()
        for k in (0, 3, 7):
            sa, sb = rpm.shift(a, k * dt), rpm.shift(b, k * dt)
            for lo, hi in ((0, cells), (cells // 3, cells - cells // 4)):
                interval = (sa.t0 + lo * dt, sa.t0 + hi * dt)
                rep = rpm.holder_seminorm(sa, interval)
                assert (rep.seminorm_x, rep.seminorm_xx) == ref_holder(sa, interval)
                assert rep.rho == rep.seminorm_x + rep.seminorm_xx
                assert rpm.rough_metric(sa, sb, interval) == ref_metric(sa, sb, interval)

    def test_whole_grid_report(self):
        rp = rpm.lift_piecewise_linear(rpm.sample_fbm(0.45, 96, 5), 1.0, 1 / 32, gamma=0.4)
        rep = rpm.holder_seminorm(rp)
        assert rep.interval == (1.0, 4.0)
        assert (rep.seminorm_x, rep.seminorm_xx) == ref_holder(rp)

    def test_lag_tables_built_once_and_read_only(self):
        table = rpm._lag_table(8, 1 / 32, 0.4)
        assert rpm._lag_table(8, 1 / 32, 0.4) is table
        assert not table.flags.writeable
        assert table[1:].tolist() == [(lag / 32) ** 0.4 for lag in range(1, 9)]

    def test_long_window_in_linear_memory(self):
        # 4096 cells: one dense n x n float matrix takes 128 MiB, and the
        # dense code built several
        n = 4096
        a = rpm.lift_piecewise_linear(rpm.sample_fbm(0.5, n, 3, horizon=128.0), 0.0,
                                      128.0 / n, gamma=0.49)
        b = rpm.lift_piecewise_linear(rpm.sample_fbm(0.5, n, 4, horizon=128.0), 0.0,
                                      128.0 / n, gamma=0.49)
        tracemalloc.start()
        try:
            rep = rpm.holder_seminorm(a)
            peak_holder = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            dist = rpm.rough_metric(a, b)
            peak_metric = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.rho > 0 and dist > 0
        assert peak_holder < 32 * 2 ** 20
        assert peak_metric < 32 * 2 ** 20


class TestWindowSeminorms:
    @pytest.mark.parametrize("cells", [1, 31, 32, 64, 65])
    def test_matches_holder_seminorm_bitwise(self, cells, monkeypatch):
        # shifted paths; starts unordered, repeated, at both path ends and
        # more of them than one call takes under a budget of eight pair
        # values; xx is not the geometric lift; lag weights on which
        # numpy's array pow and the scalar pow differ
        monkeypatch.setattr(rpm, "PAIR_BYTES", 64)
        rng = np.random.default_rng(cells)
        n = cells + 40
        # with a drift, the suprema sit at the longest lags
        x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.3, n))])
        for (dt, gamma), drift, k in itertools.product(((1.0 / 32, 0.49), (0.1, 0.4)),
                                                       (0.0, 1.0), (0, 7)):
            base = rpm.GridRoughPath(0.25, dt, x + drift * np.arange(n + 1),
                                     rng.normal(0.0, 0.1, n), gamma)
            rp = rpm.shift(base, k * base.dt)
            last = rp.n_cells - cells
            starts = [last, 0, last // 2, 0, last] + list(range(last, -1, -3))
            assert len(starts) > 8
            sx, sxx = rpm.window_seminorms([rp], [(0, a) for a in starts], cells)
            for a, got_x, got_xx in zip(starts, sx.tolist(), sxx.tolist()):
                rep = rpm.holder_seminorm(rp, (rp.t0 + a * rp.dt, rp.t0 + (a + cells) * rp.dt))
                assert (got_x, got_xx) == (rep.seminorm_x, rep.seminorm_xx)

    @pytest.mark.parametrize("cells", [1, 63, 64, 65, 129])
    def test_stack_of_paths_bitwise(self, cells):
        # paths of one grid; (path, start) pairs unordered and repeated, the
        # same start on several paths
        rng = np.random.default_rng(cells)
        n = cells + 30
        rps = [rpm.GridRoughPath(0.25, 1.0 / 32,
                                 np.concatenate([[0.0], np.cumsum(rng.normal(0.0, scale, n))]),
                                 rng.normal(0.0, 0.1, n), 0.45) for scale in (0.1, 0.3, 1.0)]
        windows = [(2, 30), (0, 0), (1, 0), (2, 0), (0, 0)]
        windows += [(p, a) for a in range(30, -1, -4) for p in (1, 2, 0)]
        sx, sxx = rpm.window_seminorms(rps, windows, cells)
        for (p, a), got_x, got_xx in zip(windows, sx.tolist(), sxx.tolist()):
            rep = rpm.holder_seminorm(rps[p], (0.25 + a / 32, 0.25 + (a + cells) / 32))
            assert (got_x, got_xx) == (rep.seminorm_x, rep.seminorm_xx)

    def test_rejects_windows_off_the_grid(self):
        rp = lift_linear(64)
        for starts, cells in (([0], 0), ([-1], 32), ([33], 32)):
            with pytest.raises(ValueError):
                rpm.window_seminorms([rp], [(0, a) for a in starts], cells)
        for windows in ([(1, 0)], [(-1, 0)]):
            with pytest.raises(ValueError):
                rpm.window_seminorms([rp], windows, 32)
        for other in (rpm.shift(rp, rp.dt), lift_linear(64, gamma=0.45)):
            with pytest.raises(ValueError, match="share one grid"):
                rpm.window_seminorms([rp, other], [(0, 0), (1, 0)], 32)


class TestShift:
    def test_zero_shift_is_identity(self):
        rp = lift_linear(16)
        sh = rpm.shift(rp, 0.0)
        assert np.array_equal(sh.x_raw, rp.x_raw) and np.array_equal(sh.xx, rp.xx)

    def test_double_shift_composes(self):
        xs = rpm.sample_fbm(0.5, 64, seed=6)
        rp = rpm.lift_piecewise_linear(xs, 0.0, 1 / 16, gamma=0.4)
        once = rpm.shift(rpm.shift(rp, 0.25), 0.5)
        direct = rpm.shift(rp, 0.75)
        assert np.array_equal(once.x_raw, direct.x_raw)
        assert np.array_equal(once.xx, direct.xx)

    def test_saved_shift_starts_at_zero(self, tmp_path):
        # the shifted path keeps the samples; its CSV re-zeroes them
        xs = rpm.sample_fbm(0.5, 32, seed=8)
        rp = rpm.lift_piecewise_linear(xs, 0.0, 1 / 32, gamma=0.4)
        sh = rpm.shift(rp, 0.5)
        assert sh.x_raw[0] == rp.x_raw[16] != 0.0
        rpm.save_csv(sh, str(tmp_path / "shifted.csv"))
        x = np.genfromtxt(str(tmp_path / "shifted.csv"), delimiter=",", skip_header=1)[:, 1]
        assert x[0] == 0.0
        assert np.array_equal(x, sh.x_raw - sh.x_raw[0])

    def test_shift_beyond_horizon(self):
        rp = lift_linear(16)
        with pytest.raises(ValueError):
            rpm.shift(rp, 1.0)
        with pytest.raises(ValueError):
            rpm.shift(rp, 0.3)  # not a grid multiple


class TestSerialization:
    def test_round_trip(self, tmp_path):
        xs = rpm.sample_fbm(0.45, 48, seed=21)
        rp = rpm.lift_piecewise_linear(xs, 0.0, 1 / 48, gamma=0.4)
        path = tmp_path / "path.csv"
        rpm.save_csv(rp, str(path))
        t, x, xx = np.genfromtxt(str(path), delimiter=",", skip_header=1, unpack=True)
        back = rpm.GridRoughPath(t[0], t[1] - t[0], x, xx[:-1], 0.4)
        assert np.array_equal(t, rp.times)
        assert np.array_equal(back.x_raw, rp.x_raw)
        assert np.array_equal(back.xx, rp.xx)
        path2 = tmp_path / "again.csv"
        rpm.save_csv(back, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_header_schema(self, tmp_path):
        rp = lift_linear(4)
        path = tmp_path / "p.csv"
        rpm.save_csv(rp, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,xx_cell"
        assert lines[-1].endswith(",")  # last row has an empty cell column
