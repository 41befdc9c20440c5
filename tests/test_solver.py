"""Rough convolution and the exponential rough Euler scheme."""

import math

import numpy as np
import pytest

from rpde_lab import roughpath as rpm
from rpde_lab import solver
from rpde_lab.errors import NumericsError
from rpde_lab.spectral import IntegralKernel, SpectralModel, SpectralState


def brownian_lift(seed, n=256, gamma=0.5, scale=1.0, horizon=1.0, t0=0.0):
    xs = scale * rpm.sample_fbm(0.5, n, seed, horizon=horizon)
    return rpm.lift_piecewise_linear(xs, t0, horizon / n, gamma=gamma)


def solver_grid(rp, horizon=None, cells_per_step=1):
    """The noise of a solve over [t0, t0 + horizon] in steps of cells_per_step cells."""
    if horizon is not None:
        rp = rp.window(rp.t0, rp.t0 + horizon)
    return rpm.coarsen(rp, cells_per_step)


def controlled(times, y_rows, yp_rows, gamma=0.5):
    return solver.ControlledPath(np.asarray(times), np.asarray(y_rows),
                                 np.asarray(yp_rows), gamma)


def ref_solve_mild(model, y0, rp, horizon=None, cells_per_step=1):
    """The per-step SpectralState loop that the array loop replaced.

    Returns (y, y_prime, t_bad) with t_bad None when no step blew up.
    """
    n_cells = rp.n_cells if horizon is None else int(round(horizon / rp.dt))
    n_steps = n_cells // cells_per_step
    step = cells_per_step * rp.dt
    decay = model.semigroup_factors(step)
    y = np.empty((n_steps + 1, model.n_modes))
    yp = np.empty_like(y)
    y[0] = y0
    cur = SpectralState(y0, model.alpha)
    yp[0] = model.apply_g(cur).coeffs
    for k in range(n_steps):
        c = k * cells_per_step
        xc = rp.increment(c, c + cells_per_step)
        xxc = rp.xx[c] if cells_per_step == 1 else rp.second_level(c, c + cells_per_step)
        g = model.apply_g(cur)
        dg_g = model.apply_dg(cur, g)
        drift = model.apply_f(cur).coeffs * step
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = decay * (cur.coeffs + drift + g.coeffs * xc + dg_g.coeffs * xxc)
        if not np.all(np.isfinite(nxt)) or np.max(np.abs(nxt)) > 1e150:
            return y, yp, rp.t0 + (c + cells_per_step) * rp.dt
        cur = SpectralState(nxt, model.alpha)
        y[k + 1] = nxt
        yp[k + 1] = model.apply_g(cur).coeffs
    return y, yp, None


def ref_controlled_norm(model, path, rp, interval, alpha):
    """The lag-by-lag loop that the pair-sup kernel replaced."""
    gamma = path.gamma
    lo = int(round((interval[0] - path.times[0]) / path.dt))
    hi = int(round((interval[1] - path.times[0]) / path.dt))
    y = path.y[lo:hi + 1]
    yp = path.y_prime[lo:hi + 1]
    stride = int(round(path.dt / rp.dt))
    xvals = rp.x_raw[rp.index(path.times[lo]) + stride * np.arange(hi - lo + 1)]
    sup_y = float(np.max(model.frac_norm_rows(y, alpha)))
    sup_yp = float(np.max(model.frac_norm_rows(yp, alpha - gamma)))
    hol_yp = rem_g = rem_2g = 0.0
    for lag in range(1, y.shape[0]):
        span = (lag * path.dt) ** gamma
        span2 = (lag * path.dt) ** (2.0 * gamma)
        dyp = yp[lag:] - yp[:-lag]
        hol_yp = max(hol_yp, float(np.max(model.frac_norm_rows(dyp, alpha - 2.0 * gamma))) / span)
        rem = y[lag:] - y[:-lag] - yp[:-lag] * (xvals[lag:] - xvals[:-lag])[:, None]
        rem_g = max(rem_g, float(np.max(model.frac_norm_rows(rem, alpha - gamma))) / span)
        rem_2g = max(rem_2g, float(np.max(model.frac_norm_rows(rem, alpha - 2.0 * gamma))) / span2)
    return solver.ControlledNorm(sup_y, sup_yp, hol_yp, rem_g, rem_2g)


class TestRoughConvolution:
    def test_zero_integrand(self):
        model = SpectralModel(3, lambda_a=1.0)
        rp = brownian_lift(0, n=64)
        z = controlled(rp.times, np.zeros((65, 3)), np.zeros((65, 3)))
        out = solver.rough_convolution(model, z, rp, 0.0, 1.0)
        assert np.all(out.coeffs == 0.0)

    def test_linear_path_closed_form(self):
        # integrand c + c' (u - s) controlled by X_t = t on a near-flat mode:
        # the limit is c (t-s) + c' (t-s)^2 / 2
        c, cp = 1.5, 0.8
        model = SpectralModel(1, lambda_a=1e-9, mu=[1e-9])
        errs = []
        for n in (64, 256, 1024):
            dt = 1.0 / n
            rp = rpm.lift_piecewise_linear(np.arange(n + 1) * dt, 0.0, dt, gamma=0.5)
            times = rp.times
            z = controlled(times, (c + cp * times)[:, None], np.full((n + 1, 1), cp))
            out = solver.rough_convolution(model, z, rp, 0.0, 1.0)
            errs.append(abs(out.coeffs[0] - (c + cp / 2.0)))
        assert errs[-1] <= 1e-6 * (c + cp / 2.0)
        assert errs[0] > errs[-1]

    def test_beta_out_range(self):
        model = SpectralModel(3, lambda_a=1.0)
        rp = brownian_lift(1, n=32)
        z = controlled(rp.times, np.zeros((33, 3)), np.zeros((33, 3)))
        with pytest.raises(ValueError):
            solver.rough_convolution(model, z, rp, 0.0, 1.0, beta_out=1.5)

    @staticmethod
    def _defect_curve(model, beta, hs, seeds, n_fine=2048):
        v = model.mu ** (-0.75)
        acc = np.zeros(len(hs))
        for seed in seeds:
            xs = rpm.sample_fbm(0.5, n_fine, seed=900 + seed)
            rp = rpm.lift_piecewise_linear(xs, 0.0, 1 / n_fine, gamma=0.5)
            times = rp.times
            z = controlled(times, np.sin(xs)[:, None] * v, np.cos(xs)[:, None] * v)
            for j, h in enumerate(hs):
                i1 = int(h * n_fine)
                germ = model.semigroup_factors(h) * (
                    z.y[0] * rp.increment(0, i1) + z.y_prime[0] * rp.second_level(0, i1))
                out = solver.rough_convolution(model, z, rp, 0.0, h, beta_out=beta)
                acc[j] += model.frac_norm(out.coeffs - germ,
                                          model.alpha - 1.0 + beta) ** 2
        return np.sqrt(acc / len(seeds))

    def test_germ_defect_order_matches_estimate(self):
        # the one-step sewing defect scales like the interval length to the
        # power 3 gamma - beta_out; fitted at beta_out = 0 within 20 percent
        gamma = 0.5
        model = SpectralModel(48, lambda_a=1.0)
        hs = [2.0 ** -j for j in range(2, 8)]
        rms = self._defect_curve(model, 0.0, hs, range(8))
        slope = np.polyfit(np.log(hs), np.log(rms), 1)[0]
        assert abs(slope - 3 * gamma) <= 0.2 * 3 * gamma

    def test_integral_estimate_with_calibrated_constant(self):
        # in the lifted norm the defect stays below the calibrated multiple of
        # rho * |z| * h^(3 gamma - beta) as the window shrinks
        gamma, beta = 0.5, 1.2
        model = SpectralModel(48, lambda_a=1.0)
        hs = [2.0 ** -j for j in range(2, 8)]
        rms = self._defect_curve(model, beta, hs, range(8))
        envelope = np.asarray(hs) ** (3 * gamma - beta)
        c_cal = rms[0] / envelope[0]
        assert np.all(rms <= 1.05 * c_cal * envelope)


class TestSolveMild:
    def test_pure_semigroup_reduction(self):
        model = SpectralModel(8, lambda_a=2.0)
        rp = brownian_lift(3, n=64)
        path = solver.solve_mild(model, np.ones(8), rp)
        exact = np.exp(-model.mu * 1.0)
        assert np.max(np.abs(path.y[-1] - exact)) <= 1e-12
        assert np.all(path.y_prime == 0.0)

    def test_geometric_oracle_single_seed(self):
        lam, sig, n = 1.0, 0.3, 512
        scalar = SpectralModel(1, lambda_a=lam, c_g=sig, mu=[lam])
        xs = rpm.sample_fbm(0.5, n, seed=3)
        exact = math.exp(-lam + sig * xs[-1])
        errs = []
        for k in (8, 2):
            rp = rpm.lift_piecewise_linear(xs[::k], 0.0, k / n, gamma=0.5)
            path = solver.solve_mild(scalar, np.array([1.0]), rp)
            errs.append(abs(path.y[-1, 0] - exact))
        assert errs[1] < errs[0]
        assert errs[1] <= 1e-3

    def test_gubinelli_component_is_g_of_y(self):
        model = SpectralModel(6, lambda_a=2.0, c_g=0.1, sigma_g=0.2)
        rp = brownian_lift(5, n=64, scale=0.1)
        path = solver.solve_mild(model, np.ones(6) / 3.0, rp)
        for k in (0, 10, 64):
            g = model.apply_g(SpectralState(path.y[k], model.alpha)).coeffs
            assert np.array_equal(path.y_prime[k], g)

    def test_cocycle_property_bitwise(self):
        model = SpectralModel(5, lambda_a=2.0, sigma_f=0.25, c_f=0.4, c_g=0.1)
        rp = brownian_lift(6, n=128, horizon=2.0, scale=0.2)
        full = solver.solve_mild(model, np.ones(5), rp)
        first = solver.solve_mild(model, np.ones(5), rp.window(0.0, 1.0))
        second = solver.solve_mild(model, first.y[-1], rpm.shift(rp, 1.0))
        assert np.array_equal(full.y[-1], second.y[-1])

    def test_coarser_solution_grid(self):
        model = SpectralModel(4, lambda_a=2.0, c_g=0.05)
        rp = brownian_lift(7, n=128, scale=0.2)
        path = solver.solve_mild(model, np.ones(4), rpm.coarsen(rp, 4))
        assert path.times.size == 33
        assert path.dt == pytest.approx(4 / 128)
        y, yp, t_bad = ref_solve_mild(model, np.ones(4), rp, cells_per_step=4)
        assert t_bad is None
        assert np.array_equal(path.y, y) and np.array_equal(path.y_prime, yp)

    def test_blowup_diagnostic_names_first_time(self):
        # the exact t_bad of the per-step loop; the large state blows up on
        # the first step
        model = SpectralModel(2, lambda_a=0.5, c_g=200.0)
        rp = brownian_lift(8, n=256, scale=2.0)
        for y0 in (np.ones(2), np.full(2, 1e149)):
            with pytest.raises(NumericsError) as err:
                solver.solve_mild(model, y0, rp)
            t_bad = ref_solve_mild(model, y0, rp)[2]
            assert err.value.context["t_bad"] == t_bad
            assert 0.0 < t_bad <= 1.0
        assert t_bad == rp.dt

    def test_nonfinite_y_prime_is_a_numerics_error(self):
        # without noise y only decays and stays finite; the kernel is NaN once
        # the state is small, which first happens on the last row
        n = 8
        thr = np.sqrt(2.0) * np.exp(-SpectralModel(1, lambda_a=1.0).mu[0] * 7.5 / n)

        def g(xi, v):
            return np.where(np.abs(v).max() < thr, np.nan, 0.0 * xi * v)

        def zero(xi, v):
            return 0.0 * xi * v

        model = SpectralModel(1, lambda_a=1.0, g_kind="integral",
                              kernel=IntegralKernel(g, zero, deriv_bound=1.0))
        rp = rpm.lift_piecewise_linear(np.zeros(n + 1), 0.0, 1.0 / n)
        with pytest.raises(NumericsError, match="not finite") as err:
            solver.solve_mild(model, np.ones(1), rp)
        assert err.value.context["t_bad"] == 1.0
        # the lockstep evolution drops that row; the row started at cell 4
        # ends above the threshold and survives
        got = solver._evolve_lockstep(model, rp, n, [(0, np.ones(1)), (4, np.ones(1))])
        assert got[0] is None
        tail = solver.solve_mild(model, np.ones(1), rp.window(0.5, 1.0))
        assert np.array_equal(got[1], tail.y[-1])

    @pytest.mark.parametrize("cells_per_step", [1, 4])
    @pytest.mark.parametrize("horizon", [None, 1.25])
    @pytest.mark.parametrize("kind", ["integral", "linear_drift"])
    def test_matches_per_step_loop(self, kind, horizon, cells_per_step):
        if kind == "integral":
            model = SpectralModel(16, lambda_a=8.0, c_g=0.5, g_kind="integral")
        else:
            model = SpectralModel(12, lambda_a=2.0, sigma_f=0.25, sigma_g=0.2,
                                  c_f=0.6, c_g=0.4)
        rp = brownian_lift(16, n=128, horizon=2.0, scale=0.3)
        y0 = np.random.default_rng(17).standard_normal(model.n_modes)
        path = solver.solve_mild(model, y0, solver_grid(rp, horizon, cells_per_step))
        y, yp, t_bad = ref_solve_mild(model, y0, rp, horizon, cells_per_step)
        assert t_bad is None
        assert path.times.size == (128 if horizon is None else 80) // cells_per_step + 1
        assert np.array_equal(path.times, rp.t0 + cells_per_step * rp.dt * np.arange(len(y)))
        assert np.array_equal(path.y, y)
        assert np.array_equal(path.y_prime, yp)

    def test_horizon_validation(self):
        # a shorter solve is a window of the noise, which must lie inside it
        # and hold a cell; a coarser one a cell count that divides it
        rp = brownian_lift(9, n=32)
        for s, t in ((0.0, 2.0), (-0.5, 1.0), (0.5, 0.5), (0.0, 0.01)):
            with pytest.raises(ValueError):
                rp.window(s, t)
        with pytest.raises(ValueError, match="must divide"):
            rpm.coarsen(rp.window(0.0, 0.3125), 4)


def drift_model():
    return SpectralModel(12, lambda_a=2.0, sigma_f=0.25, sigma_g=0.2, c_f=0.6, c_g=0.4)


def count_rows(monkeypatch):
    """Counts of rows stepped by solver._euler_step and of rows whose
    SpectralModel.g_and_dg runs; a (rows, modes) block counts its rows."""
    counts = {"steps": 0, "kernels": 0}
    step, g_and_dg = solver._euler_step, SpectralModel.g_and_dg

    def counting_step(model, cur, *args):
        counts["steps"] += len(np.atleast_2d(cur))
        return step(model, cur, *args)

    def counting_kernel(model, y, work=None):
        counts["kernels"] += len(np.atleast_2d(y))
        return g_and_dg(model, y, work)

    monkeypatch.setattr(solver, "_euler_step", counting_step)
    monkeypatch.setattr(SpectralModel, "g_and_dg", counting_kernel)
    return counts


class TestSolveMany:
    """solver.solve_many: one block of trajectories on a shared grid, bitwise per row."""

    @staticmethod
    def check(model, y0s, rps, horizon=None, cells_per_step=1):
        paths = solver.solve_many(model, y0s, [solver_grid(rp, horizon, cells_per_step)
                                               for rp in rps])
        assert len(paths) == len(rps)
        for path, y0, rp in zip(paths, y0s, rps):
            y, yp, t_bad = ref_solve_mild(model, y0, rp, horizon, cells_per_step)
            assert t_bad is None
            assert np.array_equal(path.y, y)
            assert np.array_equal(path.y_prime, yp)
            assert np.array_equal(path.times, rp.t0 + cells_per_step * rp.dt * np.arange(len(y)))
            assert path.y.flags.c_contiguous and path.y_prime.flags.c_contiguous
        return paths

    # 700 rows of 12 modes exceed numpy's 8192-element ufunc buffer
    @pytest.mark.parametrize("rows,cells", [(1, 128), (7, 128), (40, 64), (700, 8)])
    def test_linear_rows_match_per_step_loop(self, rows, cells):
        model = drift_model()
        rps = [brownian_lift(seed, n=cells, horizon=2.0, scale=0.3) for seed in range(rows)]
        y0s = np.random.default_rng(rows).standard_normal((rows, model.n_modes))
        paths = self.check(model, y0s, rps)
        # each path views the shared block: no copy per row
        assert all(p.y.base is paths[0].y.base is not None for p in paths)

    def test_integral_rows_match_per_step_loop(self):
        model = SpectralModel(16, lambda_a=8.0, c_g=0.5, g_kind="integral")
        rps = [brownian_lift(seed, n=32, scale=0.3) for seed in range(3)]
        self.check(model, np.random.default_rng(3).standard_normal((3, 16)), rps)

    @pytest.mark.parametrize("kind", ["integral", "linear_drift"])
    def test_coarser_step_and_shorter_horizon(self, kind):
        model = (SpectralModel(16, lambda_a=8.0, c_g=0.5, g_kind="integral")
                 if kind == "integral" else drift_model())
        rps = [brownian_lift(seed, n=64, horizon=2.0, scale=0.3) for seed in (4, 5, 6)]
        y0s = np.random.default_rng(5).standard_normal((3, model.n_modes))
        paths = self.check(model, y0s, rps, horizon=1.25, cells_per_step=4)
        assert paths[0].times.size == 40 // 4 + 1

    def test_first_failing_row_in_input_order_raises(self):
        # the large state blows up on the first step, the unit state later;
        # the zero state never does
        model = SpectralModel(2, lambda_a=0.5, c_g=200.0)
        rp = brownian_lift(8, n=256, scale=2.0)
        ones, big, zero = np.ones(2), np.full(2, 1e149), np.zeros(2)
        late = ref_solve_mild(model, ones, rp)[2]
        assert late > rp.dt
        for y0s, t_bad in (([ones, big], late), ([big, ones], rp.dt), ([zero, big, ones], rp.dt),
                           ([zero, ones, big], late), ([zero, ones], late)):
            with pytest.raises(NumericsError, match="blew up") as err:
                solver.solve_many(model, y0s, [rp] * len(y0s))
            assert err.value.context == {"t_bad": t_bad}
            assert str(err.value) == f"trajectory blew up at t = {t_bad}"
        # one row per seed: the earlier seed's later blow-up comes first
        other = brownian_lift(9, n=256, scale=2.0)
        times = [ref_solve_mild(model, ones, p)[2] for p in (rp, other)]
        assert times[0] != times[1]
        with pytest.raises(NumericsError) as err:
            solver.solve_many(model, [ones, ones], [rp, other])
        assert err.value.context["t_bad"] == times[0]

    def test_nonfinite_final_y_prime_row(self):
        # the kernel of test_nonfinite_y_prime_is_a_numerics_error: G is NaN
        # on the last row of the unit state only; the huge state blows up on
        # its first step
        n = 8
        thr = np.sqrt(2.0) * np.exp(-SpectralModel(1, lambda_a=1.0).mu[0] * 7.5 / n)

        def g(xi, v):
            return np.where(np.abs(v).max() < thr, np.nan, 0.0 * xi * v)

        def zero(xi, v):
            return 0.0 * xi * v

        model = SpectralModel(1, lambda_a=1.0, g_kind="integral",
                              kernel=IntegralKernel(g, zero, deriv_bound=1.0))
        rp = rpm.lift_piecewise_linear(np.zeros(n + 1), 0.0, 1.0 / n)
        ones, huge = np.ones(1), np.full(1, 1e151)
        with pytest.raises(NumericsError, match="not finite") as err:
            solver.solve_many(model, [ones, huge], [rp, rp])
        assert err.value.context == {"t_bad": 1.0}
        with pytest.raises(NumericsError, match="blew up") as err:
            solver.solve_many(model, [huge, ones], [rp, rp])
        assert err.value.context == {"t_bad": 1.0 / n}

    def test_repeated_rows_share_their_kernel(self, monkeypatch):
        model = SpectralModel(16, lambda_a=8.0, c_g=0.5, g_kind="integral")
        rp = brownian_lift(7, n=32, scale=0.3)
        y0, y1 = np.random.default_rng(7).standard_normal((2, 16))
        want = [solver.solve_mild(model, y, rp) for y in (y0, y0, y1)]
        counts = count_rows(monkeypatch)
        got = solver.solve_many(model, [y0, y0, y1], [rp] * 3)
        # two evaluations per step and two for the final y' rows
        assert counts["kernels"] == 2 * (rp.n_cells + 1)
        for a, b in zip(got, want):
            assert np.array_equal(a.y, b.y) and np.array_equal(a.y_prime, b.y_prime)

    def test_grids_must_match(self):
        model = SpectralModel(2, lambda_a=1.0)
        rp = brownian_lift(9, n=32)
        assert solver.solve_many(model, [], []) == []
        for other in (brownian_lift(9, n=64), brownian_lift(9, n=32, horizon=2.0),
                      brownian_lift(9, n=32, t0=0.5)):
            with pytest.raises(ValueError, match="share one grid"):
                solver.solve_many(model, [np.ones(2)] * 2, [rp, other])
        with pytest.raises(ValueError, match="one rough path per initial state"):
            solver.solve_many(model, [np.ones(2)] * 2, [rp])


class TestSharedKernel:
    """solver._g_and_dg_rows: one g_and_dg per distinct SpectralModel.diffusion_key."""

    @staticmethod
    def check(model, block, monkeypatch):
        # each row gets its own g_and_dg pair; returns the evaluations made
        want = [model.g_and_dg(row) for row in block]
        counts = count_rows(monkeypatch)
        g, dg_g = solver._g_and_dg_rows(model, block, model.kernel_work())
        for r, (want_g, want_dg) in enumerate(want):
            assert np.array_equal(g[r], want_g) and np.array_equal(dg_g[r], want_dg)
        return counts["kernels"]

    def test_rows_apart_below_an_ulp_of_u_share_one_evaluation(self, monkeypatch):
        # mode 1 near 1e-25 moves u = y @ basis by far less than one ulp of
        # its 1e-8 entries: the rows differ, their point values do not
        model = SpectralModel(16, lambda_a=8.0, c_g=0.5, g_kind="integral")
        row = 1e-8 * np.random.default_rng(5).standard_normal(16)
        row[0] = 1e-25
        twin = row.copy()
        twin[0] += 1e-40
        assert row.tobytes() != twin.tobytes()
        assert model.diffusion_key(row) == model.diffusion_key(twin)
        assert self.check(model, np.array([row, twin]), monkeypatch) == 1

    def test_rows_apart_at_one_node_evaluate_apart(self, monkeypatch):
        # as many modes as nodes, so a row can move u at the last node alone,
        # by less than a float32 ulp; its G moves with it
        model = SpectralModel(4, lambda_a=8.0, c_g=0.5, g_kind="integral", quad_points=4)
        basis = model._point_values(np.eye(4))
        row = np.random.default_rng(6).standard_normal(4)
        u = model._point_values(row)
        to_last = np.linalg.solve(basis.T, np.eye(4)[3])
        for eps in 1e-9 * 0.75 ** np.arange(40):
            twin = row + eps * to_last
            v = model._point_values(twin)
            moved = v != u
            if moved[3] and not moved[:3].any() and np.array_equal(v.astype(np.float32),
                                                                     u.astype(np.float32)):
                break
        else:
            pytest.fail("no row moves u at the last node alone")
        assert model.diffusion_key(row) != model.diffusion_key(twin)
        assert not np.array_equal(model.g_values(row), model.g_values(twin))
        assert self.check(model, np.array([row, twin, row]), monkeypatch) == 2

    def test_linear_keys_are_the_rows(self):
        model = drift_model()
        row = np.random.default_rng(8).standard_normal(12)
        assert model.diffusion_key(row) == row.tobytes()


def lockstep_reference(model, rp, end, entries):
    """One solve_mild per entry: its final state, or None where it raises."""
    finals = []
    for start, y0 in entries:
        try:
            window = rp.window(rp.t0 + start * rp.dt, rp.t0 + end * rp.dt)
            finals.append(solver.solve_mild(model, y0, window).y[-1])
        except NumericsError:
            finals.append(None)
    return finals


class TestLockstep:
    """solver._evolve_lockstep: each distinct row stepped once, bitwise per-point states."""

    @pytest.fixture
    def counts(self, monkeypatch):
        # rows the evolver steps, counted at the Euler step it shares with
        # solve_mild (a block counts its rows), and rows whose kernel
        # g_and_dg evaluates
        return count_rows(monkeypatch)

    @staticmethod
    def check(model, rp, t_list, cloud, counts):
        end = rp.index(0.0)
        entries = [(rp.index(-t), point) for t in t_list for point in cloud]
        want = lockstep_reference(model, rp, end, entries)
        counts.update(steps=0, kernels=0)
        got = solver._evolve_lockstep(model, rp, end, entries)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            assert b is None or np.array_equal(a, b)
        return sum(end - start for start, _ in entries), got

    def test_contracting_integral_cloud_merges(self, counts):
        # the cloud collapses onto one state in floating point after about
        # five units, so the t = 8 points share their last steps
        model = SpectralModel(16, lambda_a=8.0, c_g=2e-4, g_kind="integral")
        rp = brownian_lift(3, n=256, horizon=8.0, scale=0.01, t0=-8.0)
        cloud = np.random.default_rng(3).standard_normal((3, 16))
        row_steps, got = self.check(model, rp, (2.0, 4.0, 8.0), cloud, counts)
        assert counts["steps"] < row_steps - 100
        # before rows merge, their point values agree to the last bit: mode 1,
        # which the kernel hardly forces, keeps them apart far below one ulp of u
        assert counts["kernels"] < counts["steps"] - 100
        assert all(np.array_equal(got[6], y) for y in got[7:])

    @pytest.mark.parametrize("kind", ["integral", "linear_drift"])
    def test_cloud_that_never_merges(self, counts, kind):
        if kind == "integral":
            model = SpectralModel(16, lambda_a=8.0, c_g=2e-4, g_kind="integral")
        else:
            model = SpectralModel(12, lambda_a=2.0, sigma_f=0.25, sigma_g=0.2,
                                  c_f=0.6, c_g=0.4)
        rp = brownian_lift(16, n=96, horizon=3.0, scale=0.3, t0=-3.0)
        cloud = np.random.default_rng(17).standard_normal((3, model.n_modes))
        row_steps, _ = self.check(model, rp, (1.0, 2.0, 3.0), cloud, counts)
        assert counts["steps"] == row_steps
        assert counts["kernels"] == row_steps

    def test_repeated_times_and_points_step_once(self, counts):
        model = SpectralModel(12, lambda_a=2.0, sigma_f=0.25, sigma_g=0.2, c_f=0.6, c_g=0.4)
        rp = brownian_lift(18, n=64, horizon=2.0, scale=0.3, t0=-2.0)
        point = np.random.default_rng(19).standard_normal(12)
        cloud = np.array([point, point, -point])
        row_steps, _ = self.check(model, rp, (1.0, 2.0, 2.0), cloud, counts)
        assert counts["steps"] == counts["kernels"] == 2 * 64 + 2 * 32
        assert row_steps == 6 * 64 + 3 * 32

    def test_dropped_rows_match_solve_mild_errors(self, counts):
        # the large points blow up on the long window only; the small ones and
        # the zero state survive every window
        model = SpectralModel(2, lambda_a=0.5, c_g=100.0)
        rp = brownian_lift(0, n=128, horizon=4.0, scale=1.0, t0=-4.0)
        cloud = np.array([[1.0, 1.0], [2.0, -1.0], [1e-100, 2e-100], [0.0, 0.0]])
        _, got = self.check(model, rp, (1.0, 2.0, 4.0), cloud, counts)
        assert [y is None for y in got] == [False] * 8 + [True, True, False, False]

    def test_validation(self):
        model = SpectralModel(2, lambda_a=1.0)
        rp = brownian_lift(9, n=32)
        assert solver._evolve_lockstep(model, rp, 32, []) == []
        for start, end in ((4, 4), (-1, 8), (0, 33)):
            with pytest.raises(ValueError, match="start on the grid"):
                solver._evolve_lockstep(model, rp, end, [(start, np.ones(2))])
        with pytest.raises(ValueError):
            solver._evolve_lockstep(model, rp, 32, [(0, np.array([1.0, np.nan]))])
        with pytest.raises(ValueError, match="one coefficient per mode"):
            solver._evolve_lockstep(model, rp, 32, [(0, np.ones(3))])


class TestControlledNorm:
    def test_constant_pair_has_no_seminorms(self):
        model = SpectralModel(4, lambda_a=1.0)
        rp = brownian_lift(10, n=32)
        y = np.tile(np.array([1.0, 0.5, 0.2, 0.1]), (33, 1))
        path = controlled(rp.times, y, np.zeros_like(y))
        norm = solver.controlled_norm(model, path, rp)
        assert norm.hol_yp == 0.0 and norm.rem_g == 0.0 and norm.rem_2g == 0.0
        assert norm.sup_y == pytest.approx(model.frac_norm(y[0], 0.0))
        assert norm.total == norm.sup_y

    @pytest.mark.parametrize("n_modes,sigma_g,cells_per_step", [(4, 0.0, 1), (16, 0.2, 1),
                                                                (6, 0.1, 2)])
    def test_matches_lag_loop(self, n_modes, sigma_g, cells_per_step):
        # windows of 1, 2, 63, 64, 65 and 130 steps, the composition pair's
        # shifted base space included; row norms go through BLAS in another
        # batch shape, which can move the last bit
        model = SpectralModel(n_modes, lambda_a=2.0, c_g=0.3, sigma_g=sigma_g)
        rp = brownian_lift(15, n=140 * cells_per_step, horizon=140 / 64, scale=0.3)
        coarse = rpm.coarsen(rp, cells_per_step)
        path = solver.solve_mild(model, np.ones(n_modes) / 2.0, coarse)
        y, yp, _ = ref_solve_mild(model, np.ones(n_modes) / 2.0, rp, cells_per_step=cells_per_step)
        assert np.array_equal(path.y, y) and np.array_equal(path.y_prime, yp)
        pair = solver.composition_pair(model, path)
        step = path.dt
        for lo, steps in ((0, 1), (5, 2), (3, 63), (7, 64), (0, 65), (10, 130)):
            interval = (lo * step, (lo + steps) * step)
            for traj, alpha in ((path, model.alpha), (pair, model.alpha - model.sigma_g)):
                # measured against the coarse noise: the reference's strided read of rp
                got = solver.controlled_norm(model, traj, coarse, interval, alpha=alpha)
                want = ref_controlled_norm(model, traj, rp, interval, alpha)
                for name in ("sup_y", "sup_yp", "hol_yp", "rem_g", "rem_2g"):
                    assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-14, abs=0.0)
            assert solver.composition_norm(model, path, coarse, interval) == \
                solver.controlled_norm(model, pair, coarse, interval, alpha=model.alpha - model.sigma_g)

    def test_path_off_the_noise_grid_is_rejected(self):
        # a trajectory on a coarser grid than the noise it is measured against
        model = SpectralModel(4, lambda_a=2.0, c_g=0.2)
        rp = brownian_lift(13, n=64, scale=0.3)
        coarse = solver.solve_mild(model, np.ones(4), rpm.coarsen(rp, 2))
        with pytest.raises(ValueError, match="share the grid step"):
            solver.controlled_norm(model, coarse, rp)
        with pytest.raises(ValueError, match="share the grid step"):
            solver.composition_norm(model, solver.solve_mild(model, np.ones(4), rp),
                                    rpm.coarsen(rp, 2))

    def test_monotone_under_interval_inclusion(self):
        model = SpectralModel(6, lambda_a=2.0, c_g=0.2)
        rp = brownian_lift(11, n=128, horizon=2.0, scale=0.3)
        path = solver.solve_mild(model, np.ones(6), rp)
        inner = solver.controlled_norm(model, path, rp, (0.5, 1.0))
        outer = solver.controlled_norm(model, path, rp, (0.0, 2.0))
        assert outer.total >= inner.total

    def test_composition_estimate_calibrated(self):
        # |G(y), (G(y))'| <= C rho (1 + |y, G(y)|): calibrate C on one batch of
        # trajectories, then require it on a fresh batch
        model = SpectralModel(8, lambda_a=2.0, c_g=0.3, sigma_g=0.1)

        def ratio(seed):
            rp = brownian_lift(seed, n=64, scale=0.3)
            path = solver.solve_mild(model, np.ones(8) / 2.0, rp)
            rho = rpm.holder_seminorm(rp).rho
            comp = solver.composition_norm(model, path, rp).total
            base = solver.controlled_norm(model, path, rp).total
            return comp / (rho * (1.0 + base))

        c_cal = max(ratio(seed) for seed in range(40)) * 1.25
        assert all(ratio(seed) <= c_cal for seed in range(100, 130))

    def test_norms_on_coarsened_solver_grid(self):
        # a trajectory stepped every fourth noise cell yields finite seminorms,
        # measured against the coarsened noise it was solved on
        model = SpectralModel(6, lambda_a=2.0, c_g=0.2)
        rp = brownian_lift(14, n=128, scale=0.3)
        fine = solver.solve_mild(model, np.ones(6), rp)
        coarse_rp = rpm.coarsen(rp, 4)
        coarse = solver.solve_mild(model, np.ones(6), coarse_rp)
        y, yp, _ = ref_solve_mild(model, np.ones(6), rp, cells_per_step=4)
        assert np.array_equal(coarse.y, y) and np.array_equal(coarse.y_prime, yp)
        nf = solver.controlled_norm(model, fine, rp)
        nc = solver.controlled_norm(model, coarse, coarse_rp)
        want = ref_controlled_norm(model, coarse, rp, (0.0, 1.0), model.alpha)
        assert nc.total == pytest.approx(want.total, rel=1e-14, abs=0.0)
        assert np.isfinite(nc.total) and nc.total > 0
        assert nc.sup_y <= 2.0 * nf.sup_y + 1e-12  # same dynamics, coarser view

    def test_remainder_stable_under_refinement(self):
        model = SpectralModel(4, lambda_a=2.0, c_g=0.2)
        n = 256
        xs = rpm.sample_fbm(0.5, n, seed=12)
        levels = []
        for k in (4, 1):
            rp = rpm.lift_piecewise_linear(xs[::k], 0.0, k / n, gamma=0.45)
            path = solver.solve_mild(model, np.ones(4), rp)
            levels.append(solver.controlled_norm(model, path, rp).rem_2g)
        assert all(np.isfinite(levels))
        assert levels[1] <= 4.0 * max(levels[0], 1e-12)
