"""The pair-sup walk over the triangle i < j and the kernels built on it.

The square-block forms below are verbatim copies of controlled_norm,
holder_seminorm and rough_metric as they were before the walk visited only
the pairs i < j (names prefixed with square_), with the lag table of that
time: each column block built every row of the window, and the pairs j <= i
were divided by an infinite weight. percall_controlled_norm is a verbatim
copy of controlled_norm as it was before controlled_norms, when each call
gathered its pair values into arrays of its own. unflushed_window_norm is a
verbatim copy of solver._window_norm as it was before it flushed negligible
entries of y and y' (solver._flushed), with the weight vectors computed per
window. The kernels must agree with them bit for bit.
"""

import dataclasses
import functools
import math
import pathlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from rpde_lab import cli, solver
from rpde_lab import roughpath as rpm
from rpde_lab.roughpath import (BLOCK, HolderReport, _lag_table, _pair_sups, _prefix_sums,
                                _triangle, _window_arrays)
from rpde_lab.solver import ControlledNorm
from rpde_lab.spectral import SpectralModel, aligned_empty

# ---------------------------------------------------------------------------
# reference: the square-block forms
# ---------------------------------------------------------------------------


def square_lag_table(m, dt, p):
    return np.array([np.inf] * m + [(lag * dt) ** p for lag in range(1, m + 1)])


def square_chen_pairs(raw, xxc, a, rows, cols):
    xi, ai, ri = xxc[..., rows, None], a[..., rows, None], raw[..., rows, None]
    xj, aj, rj = xxc[..., None, cols], a[..., None, cols], raw[..., None, cols]
    return (xj - xi) + (aj - ai) - ri * (rj - ri)


def square_second_level_block(raw, xx, c0=0):
    return square_chen_pairs(raw, *_prefix_sums(raw, xx), slice(None), slice(c0, None))


def square_pair_sups(values, m, dt, exponents):
    tables = [square_lag_table(m, dt, p) for p in exponents]
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


def square_holder_seminorm(rp, interval=None):
    raw, xx = _window_arrays(rp, interval)

    def values(c0, c1):
        return (np.abs(raw[c0:c1] - raw[:c1, None]),
                np.abs(square_second_level_block(raw[:c1], xx[:c1 - 1], c0)))

    sx, sxx = square_pair_sups(values, raw.size - 1, rp.dt, (rp.gamma, 2.0 * rp.gamma))
    return HolderReport(sx, sxx)


def square_rough_metric(a, b, interval=None):
    if a.n_cells != b.n_cells or a.dt != b.dt or a.t0 != b.t0:
        raise ValueError("paths must share the same grid")
    if a.gamma != b.gamma:
        raise ValueError("paths must share the same Hoelder exponent")
    raw_a, xx_a = _window_arrays(a, interval)
    raw_b, xx_b = _window_arrays(b, interval)
    diff1 = (raw_a - raw_a[0]) - (raw_b - raw_b[0])

    def values(c0, c1):
        return (np.abs(diff1[c0:c1] - diff1[:c1, None]),
                np.abs(square_second_level_block(raw_a[:c1], xx_a[:c1 - 1], c0)
                       - square_second_level_block(raw_b[:c1], xx_b[:c1 - 1], c0)))

    best1, best2 = square_pair_sups(values, raw_a.size - 1, a.dt, (a.gamma, 2.0 * a.gamma))
    return best1 + best2


def square_controlled_norm(model, path, rp, interval=None, alpha=None):
    if alpha is None:
        alpha = model.alpha
    gamma = path.gamma
    if interval is None:
        lo, hi = 0, path.times.size - 1
    else:
        s, t = interval
        lo = int(round((s - path.times[0]) / path.dt))
        hi = int(round((t - path.times[0]) / path.dt))
        if not (0 <= lo <= hi < path.times.size):
            raise ValueError(f"interval {interval} outside the solved span")
    if abs(path.dt - rp.dt) > 1e-12 * rp.dt:
        raise ValueError("path and noise must share the grid step")
    y = path.y[lo:hi + 1]
    yp = path.y_prime[lo:hi + 1]
    xvals = rp.x_raw[rp.index(path.times[lo]):rp.index(path.times[hi]) + 1]

    sup_y = float(np.max(model.frac_norm_rows(y, alpha)))
    sup_yp = float(np.max(model.frac_norm_rows(yp, alpha - gamma)))

    def values(c0, c1):
        # (rows, cols, modes) pair blocks of y'_j - y'_i and of the remainder
        # y_j - y_i - y'_i X[i, j], BLOCK rows at a time to bound the memory
        out = np.empty((3, c1, c1 - c0))
        for r0 in range(0, c1, BLOCK):
            r1 = min(r0 + BLOCK, c1)
            out[0, r0:r1] = model.frac_norm_rows(yp[None, c0:c1] - yp[r0:r1, None],
                                                 alpha - 2.0 * gamma)
            rem = y[None, c0:c1] - y[r0:r1, None]
            rem -= yp[r0:r1, None] * (xvals[c0:c1] - xvals[r0:r1, None])[:, :, None]
            out[1, r0:r1] = model.frac_norm_rows(rem, alpha - gamma)
            out[2, r0:r1] = model.frac_norm_rows(rem, alpha - 2.0 * gamma)
        return out

    hol_yp, rem_g, rem_2g = square_pair_sups(values, y.shape[0] - 1, path.dt,
                                             (gamma, gamma, 2.0 * gamma))
    return ControlledNorm(sup_y, sup_yp, hol_yp, rem_g, rem_2g)


def percall_controlled_norm(model, path, rp, interval=None, alpha=None):
    if alpha is None:
        alpha = model.alpha
    gamma = path.gamma
    if interval is None:
        lo, hi = 0, path.times.size - 1
    else:
        s, t = interval
        lo = int(round((s - path.times[0]) / path.dt))
        hi = int(round((t - path.times[0]) / path.dt))
        if not (0 <= lo <= hi < path.times.size):
            raise ValueError(f"interval {interval} outside the solved span")
    if abs(path.dt - rp.dt) > 1e-12 * rp.dt:
        raise ValueError("path and noise must share the grid step")
    y = path.y[lo:hi + 1]
    yp = path.y_prime[lo:hi + 1]
    xvals = rp.x_raw[rp.index(path.times[lo]):rp.index(path.times[hi]) + 1]

    sup_y = float(np.max(model.frac_norm_rows(y, alpha)))
    sup_yp = float(np.max(model.frac_norm_rows(yp, alpha - gamma)))

    # frac_norm_rows's weights of the remainder's two spaces
    w_g, w_2g = (model.mu ** (2.0 * a) for a in (alpha - gamma, alpha - 2.0 * gamma))

    def values(i, j):
        # the remainder y_j - y_i - y'_i X[i, j], then y'_j - y'_i in its buffer;
        # np.take gathers rows faster than indexing does
        rem = np.take(y, j, axis=0) - np.take(y, i, axis=0)
        ypi = np.take(yp, i, axis=0)
        rem -= ypi * (xvals[j] - xvals[i])[..., None]
        rem *= rem
        norms = np.sqrt(rem @ w_g), np.sqrt(rem @ w_2g)
        dyp = np.subtract(np.take(yp, j, axis=0), ypi, out=rem)
        return model.frac_norm_rows(dyp, alpha - 2.0 * gamma), *norms

    hol_yp, rem_g, rem_2g = _pair_sups(values, y.shape[0] - 1, path.dt,
                                       (gamma, gamma, 2.0 * gamma))
    return ControlledNorm(sup_y, sup_yp, hol_yp, rem_g, rem_2g)


def unflushed_window_norm(model, alpha, y, yp, xvals, gamma, dt, bufs):
    """controlled_norm of the rows y, y' over the window with first-level values
    xvals, its pair values built in the three rows of bufs."""
    sup_y = float(np.max(model.frac_norm_rows(y, alpha)))
    sup_yp = float(np.max(model.frac_norm_rows(yp, alpha - gamma)))

    # frac_norm_rows's weights of the remainder's two spaces; y'_j - y'_i is
    # measured in the second
    w_g, w_2g = (model.mu ** (2.0 * a) for a in (alpha - gamma, alpha - 2.0 * gamma))
    modes = y.shape[1]

    def take(a, idx, buf):
        # numpy gathers into out through a buffer of its own unless mode is "clip";
        # the indices of _pair_sups lie in range
        return np.take(a, idx, axis=0, out=buf[:idx.size * modes].reshape(idx.shape + (modes,)),
                       mode="clip")

    def values(i, j):
        # the remainder y_j - y_i - y'_i X[i, j] in rem, then y'_j - y'_i in its place
        shape = np.broadcast_shapes(i.shape, j.shape) + (modes,)
        rem, tmp = (buf[:math.prod(shape)].reshape(shape) for buf in bufs[:2])
        np.subtract(take(y, j, bufs[1]), take(y, i, bufs[2]), out=rem)
        ypi = take(yp, i, bufs[2])
        rem -= np.multiply(ypi, (xvals[j] - xvals[i])[..., None], out=tmp)
        rem *= rem
        norms = np.sqrt(rem @ w_g), np.sqrt(rem @ w_2g)
        dyp = np.subtract(take(yp, j, bufs[1]), ypi, out=rem)
        return np.sqrt(np.multiply(dyp, dyp, out=dyp) @ w_2g), *norms

    hol_yp, rem_g, rem_2g = _pair_sups(values, y.shape[0] - 1, dt, (gamma, gamma, 2.0 * gamma))
    return ControlledNorm(sup_y, sup_yp, hol_yp, rem_g, rem_2g)


def unflushed_controlled_norm(model, path, rp, interval):
    lo, hi, xvals = solver._norm_window(path, rp, interval)
    bufs = aligned_empty((3, solver._tile_pairs(hi - lo) * model.n_modes))
    return unflushed_window_norm(model, model.alpha, path.y[lo:hi + 1], path.y_prime[lo:hi + 1],
                                 xvals, path.gamma, path.dt, bufs)


# ---------------------------------------------------------------------------

WINDOWS = [1, 2, 63, 64, 65, 129, 130, 256]


def assert_same_fields(got, want):
    for g, w in zip(dataclasses.astuple(got), dataclasses.astuple(want)):
        assert np.array_equal(g, w), (got, want)


def noise(seed, cells=544, horizon=4.25, gamma=0.45):
    xs = 0.3 * rpm.sample_fbm(0.5, cells, seed, horizon=horizon)
    return rpm.lift_piecewise_linear(xs, 0.0, horizon / cells, gamma=gamma)


class TestPairWalk:
    def test_each_pair_once_with_the_weight_of_its_lag(self):
        # values returns the lag weight the pair should be divided by, for p
        # and -p: a weight read at any other lag makes one of the two ratios
        # exceed 1, since the weights rise with the lag for p and fall for -p
        dt, p = 1.0 / 64, 0.4
        for m in range(1, 131):
            tables = (_lag_table(m, dt, p), _lag_table(m, dt, -p))
            seen = []

            def values(i, j):
                i, j = np.broadcast_arrays(i, j)
                seen.append((i.ravel(), j.ravel()))
                return [table[j - i] for table in tables]

            assert rpm._pair_sups(values, m, dt, (p, -p)) == [1.0, 1.0]
            rows = np.concatenate([i for i, _ in seen])
            cols = np.concatenate([j for _, j in seen])
            assert rows.size == m * (m + 1) // 2
            assert (0 <= rows).all() and (rows < cols).all() and (cols <= m).all()
            assert np.unique(rows * (m + 1) + cols).size == rows.size

    def test_window_of_one_block_is_one_triangle(self):
        calls = []

        def values(i, j):
            calls.append((i.shape, j.shape))
            return [np.abs(j - i).astype(float)]

        rpm._pair_sups(values, BLOCK, 0.1, (0.5,))
        assert calls == [((BLOCK * (BLOCK + 1) // 2,),) * 2]


class TestRoughPathKernels:
    @pytest.mark.parametrize("cells", WINDOWS)
    def test_match_square_blocks_bitwise(self, cells):
        # offset windows and whole paths, fine and coarsened grids; xx is
        # not the geometric lift
        rng = np.random.default_rng(cells)
        n = 4 * (cells + 3)
        x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.3, n))])
        a = rpm.GridRoughPath(0.25, 1.0 / 64, x, rng.normal(0.0, 0.1, n), 0.4)
        b = rpm.GridRoughPath(0.25, 1.0 / 64, x[::-1] - x[-1], rng.normal(0.0, 0.1, n), 0.4)
        pairs = [(a, b, 3), (rpm.coarsen(a, 4), rpm.coarsen(b, 4), 0)]
        if cells == 1:
            pairs.append((rpm.GridRoughPath(0.0, 0.5, [0.0, 1.0], [0.25], 0.4),) * 2 + (0,))
        for pa, pb, lo in pairs:
            for interval in ((pa.t0 + lo * pa.dt, pa.t0 + (lo + cells) * pa.dt), None):
                rep, want = rpm.holder_seminorm(pa, interval), square_holder_seminorm(pa, interval)
                assert np.array_equal((rep.seminorm_x, rep.seminorm_xx),
                                      (want.seminorm_x, want.seminorm_xx))
                assert np.array_equal(rpm.rough_metric(pa, pb, interval),
                                      square_rough_metric(pa, pb, interval))


class TestControlledNorm:
    @pytest.mark.parametrize("kind", ["linear", "integral"])
    @pytest.mark.parametrize("modes", [1, 4, 12, 16, 17, 64])
    def test_matches_square_blocks_bitwise(self, modes, kind):
        # the trajectory and its composition pair (alpha one sigma_g lower),
        # on windows of every tiling case on the noise grid, and of those
        # that fit on the grid coarsened four times
        model = SpectralModel(modes, lambda_a=4.0, sigma_f=0.25, sigma_g=0.1, c_f=0.5,
                              c_g=0.3, g_kind=kind)
        y0 = np.random.default_rng(modes).standard_normal(modes)
        rp = noise(modes)
        for grid, lo in ((rp, 5), (rpm.coarsen(rp, 4), 0)):
            path = solver.solve_mild(model, y0, grid)
            pair = solver.composition_pair(model, path)
            for cells in (c for c in WINDOWS if lo + c <= grid.n_cells):
                interval = (grid.t0 + lo * grid.dt, grid.t0 + (lo + cells) * grid.dt)
                for traj, alpha in ((path, None), (pair, model.alpha - model.sigma_g)):
                    assert_same_fields(
                        solver.controlled_norm(model, traj, grid, interval, alpha=alpha),
                        square_controlled_norm(model, traj, grid, interval, alpha=alpha))


class TestControlledNorms:
    """controlled_norms against percall_controlled_norm, case by case."""

    @staticmethod
    def trajectories(kind, modes=16):
        model = SpectralModel(modes, lambda_a=4.0, sigma_f=0.25, sigma_g=0.1, c_f=0.5,
                              c_g=0.3, g_kind=kind)
        rps = [noise(7), noise(8)]
        paths = [solver.solve_mild(model, np.random.default_rng(r).standard_normal(modes), rp)
                 for r, rp in enumerate(rps)]
        return model, rps, paths

    @pytest.mark.parametrize("kind", ["linear", "integral"])
    def test_mixed_and_repeated_cases_match_per_call_norms(self, kind):
        # windows of one to several tiles in an order that grows and shrinks,
        # repeats of one window, and one window on both paths; one call
        model, rps, paths = self.trajectories(kind)
        dt = rps[0].dt
        cases = []
        for r, (lo, cells) in enumerate([(5, 64), (0, 1), (3, 129), (40, 63), (5, 64),
                                         (0, 65), (200, 1), (17, 129), (3, 129), (0, 544)]):
            p = r % 2 if cells != 129 else 0
            interval = None if cells == 544 else (lo * dt, (lo + cells) * dt)
            cases.append((paths[p], rps[p], interval))
        cases.append((paths[1], rps[1], (5 * dt, 69 * dt)))
        for alpha in (None, model.alpha - model.sigma_g):
            got = solver.controlled_norms(model, cases, alpha)
            assert len(got) == len(cases)
            for norm, (path, rp, interval) in zip(got, cases):
                assert_same_fields(norm, percall_controlled_norm(model, path, rp, interval, alpha))

    @pytest.mark.parametrize("cells", [1, 63, 64, 65, 129])
    def test_composition_pairs_of_one_length(self, cells):
        # alpha one sigma_g lower, as composition_norm measures (G(y), DG(y)[G(y)])
        model, rps, paths = self.trajectories("integral", modes=12)
        dt = rps[0].dt
        pairs = [solver.composition_pair(model, path) for path in paths]
        cases = [(pair, rp, (lo * dt, (lo + cells) * dt))
                 for lo in (0, 11, 300) for pair, rp in zip(pairs, rps)]
        alpha = model.alpha - model.sigma_g
        for norm, case in zip(solver.controlled_norms(model, cases, alpha), cases):
            assert_same_fields(norm, percall_controlled_norm(model, *case, alpha))
        assert_same_fields(solver.composition_norm(model, paths[0], rps[0], cases[0][2]),
                           percall_controlled_norm(model, *cases[0], alpha))

    def test_first_error_in_case_order(self):
        model, rps, paths = self.trajectories("linear", modes=4)
        good = (paths[0], rps[0], (0.0, 1.0))
        outside = (paths[0], rps[0], (0.0, 9.0))
        coarse = (paths[1], rpm.coarsen(rps[1], 4), (0.0, 1.0))
        for cases, match, before in (([good, outside, coarse], "outside the solved span", 1),
                                     ([good, good, coarse, outside], "share the grid step", 2)):
            with pytest.raises(ValueError, match=match):
                solver.controlled_norms(model, cases)
            # the norms of the cases before the failing one come with its error
            norms, error = solver._controlled_norms(model, cases)
            assert len(norms) == before and match in str(error)
            for norm in norms:
                assert_same_fields(norm, percall_controlled_norm(model, *good))
        assert solver.controlled_norms(model, []) == []

    @pytest.mark.parametrize("shape", [(1,), (3, 5), (2080 * 16,), (2, 128, 128)])
    def test_aligned_empty(self, shape):
        for _ in range(4):
            a = aligned_empty(shape)
            assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
            assert a.ctypes.data % 64 == 0 and a.flags.writeable
        work = SpectralModel(4, lambda_a=4.0, c_g=0.3, g_kind="integral").kernel_work()
        assert work.ctypes.data % 64 == 0


ROOT = pathlib.Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=1)
def bounds_fixture():
    """The model of perfbench/configs/bounds.txt and its 40 training seeds solved
    to t = 3: the [0, 1] windows bounds trains on and the [1, 2] and [2, 3]
    windows its a-priori check reads. The high modes decay into subnormals."""
    cfg = cli.load_experiment(str(ROOT / "perfbench" / "configs" / "bounds.txt"), {})
    model = cli._build_model(cfg)
    gamma = cli._build_constants(cfg, model).gamma
    return model, cli.solve_seeds(cfg, model, gamma, range(cfg.train_seeds), 3.0)


def scaled(path, factor):
    return solver.ControlledPath(path.times, path.y * factor, path.y_prime * factor, path.gamma)


def is_subnormal(a):
    return (a != 0) & (np.abs(a) < np.finfo(float).tiny)


class TestFlushedNorms:
    """controlled_norms, whose pair values come from flushed rows, against
    unflushed_window_norm, case by case and bit for bit."""

    @staticmethod
    def assert_unflushed(model, cases):
        for norm, case in zip(solver.controlled_norms(model, cases), cases):
            assert_same_fields(norm, unflushed_controlled_norm(model, *case))

    def test_bounds_windows(self):
        model, solved = bounds_fixture()
        for factor in (1.0, 2.0 ** -900):
            cases = [(scaled(path, factor), rp, (float(l), float(l + 1)))
                     for path, rp in solved for l in range(3)]
            self.assert_unflushed(model, cases)

    def test_integral_model(self):
        model, rps, paths = TestControlledNorms.trajectories("integral")
        dt = rps[0].dt
        for factor in (1.0, 2.0 ** -900):
            cases = [(scaled(path, factor), rp, (lo * dt, (lo + cells) * dt))
                     for path, rp in zip(paths, rps) for lo, cells in ((0, 64), (100, 129))]
            self.assert_unflushed(model, cases + [(scaled(paths[0], factor), rps[0], None)])

    def test_all_zero_trajectory(self):
        model, solved = bounds_fixture()
        path, rp = solved[0]
        self.assert_unflushed(model, [(scaled(path, 0.0), rp, (0.0, 1.0))])

    def test_huge_constant_mode(self, monkeypatch):
        # mode 1 held at 1e150 with y'_1 = 0 cancels from every increment; a
        # purely relative threshold (2 ** -200 of the largest entry, about
        # 6e89) flushes the modes that carry the increments and moves rem_g,
        # the absolute cap 2 ** -300 keeps them
        model, solved = bounds_fixture()
        path, rp = solved[0]
        y, yp = path.y.copy(), path.y_prime.copy()
        y[:, 0], yp[:, 0] = 1e150, 0.0
        case = (solver.ControlledPath(path.times, y, yp, path.gamma), rp, (0.0, 1.0))
        want = unflushed_controlled_norm(model, *case)
        self.assert_unflushed(model, [case])
        monkeypatch.setattr(solver, "_FLUSH_ABS", math.inf)
        relative = solver.controlled_norm(model, *case)
        assert relative.rem_g < 1e-3 * want.rem_g

    def test_no_subnormal_pair_values(self):
        # the slow path of subnormal arithmetic: the flushed rows and the
        # squared remainders and y' increments one values call leaves in the
        # pair buffers hold none, where the unflushed rows hold many
        model, solved = bounds_fixture()
        rows, cols = _triangle(BLOCK)
        bufs = aligned_empty((3, rows.size * model.n_modes))
        gamma = solved[0][0].gamma
        weights = [model.mu ** (2.0 * a) for a in (model.alpha - gamma, model.alpha - 2 * gamma)]
        seen = 0
        for path, rp in solved:
            for l in range(3):
                lo, hi, xvals = solver._norm_window(path, rp, (float(l), float(l + 1)))
                y, yp = path.y[lo:hi + 1], path.y_prime[lo:hi + 1]
                seen += int(is_subnormal(y).sum())
                fy, fyp = solver._flushed(y), solver._flushed(yp)
                assert not is_subnormal(fy).any() and not is_subnormal(fyp).any()
                solver._pair_values(fy, fyp, xvals, weights, bufs)(rows, cols)
                assert not is_subnormal(bufs).any()
        assert seen > 1000
