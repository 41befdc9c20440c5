"""Bound pipeline, ergodic moments, gap condition, absorbing set, pullback."""

import math

import numpy as np
import pytest

from rpde_lab import attractor as att
from rpde_lab import greedy
from rpde_lab import roughpath as rpm
from rpde_lab import solver
from rpde_lab.configio import write_kv_file
from rpde_lab.errors import ConfigError, NumericsError
from rpde_lab.spectral import SpectralModel

DESK = dict(gamma=0.49, eta=0.05, chi=0.019, m_tilde=1.05, c_i=0.5,
            z_min=2.0, z_max=50.0, delta_bar=0.1, n_tilde_override=2)


def desk_model(c_g=0.0, g_kind="linear", lambda_a=8.0, **kw):
    return SpectralModel(16, lambda_a=lambda_a, alpha=0.0, c_g=c_g,
                         g_kind=g_kind, **kw)


def desk_constants(model, m_big=0.078, **overrides):
    pairs = dict(DESK)
    pairs.update(overrides)
    return att.BoundConstants.derive(model, m_big=m_big, **pairs)


def scaled_lift(seed, span, t0, gamma=0.49, steps=32, scale=0.01, hurst=0.5):
    n = int(round(span * steps))
    xs = scale * rpm.sample_fbm(hurst, n, seed, horizon=span)
    return rpm.lift_piecewise_linear(xs, t0, span / n, gamma=gamma)


def zero_lift(span, t0, gamma=0.49, steps=32):
    n = int(round(span * steps))
    return rpm.lift_piecewise_linear(np.zeros(n + 1), t0, span / n, gamma=gamma)


def ref_window(rp, cons, interval):
    """The reference window constants (N, [X], [XX], P-tilde, P1, P2) of one
    interval, by one greedy scan and one seminorm pass."""
    s, t = interval
    if t - s <= 0:
        raise ValueError("interval must have positive length")
    if t - s > 1.0 + 1e-9:
        raise ValueError("solution-bound windows are limited to length one")
    n = greedy.greedy_times(rp, cons.eta, cons.chi, (s, t)).count
    rep = rpm.holder_seminorm(rp, (s, t))
    sx, sxx = rep.seminorm_x, rep.seminorm_xx
    return (n, sx, sxx) + att.p_values(n, sx, sxx, att.window_blocks(t - s, cons.d_step),
                                       cons.m_big, cons.m_tilde)


def solution_checks(model, cases, cons):
    """The solution-bound checks of (trajectory, rough path, interval) cases."""
    return att.validate_bounds(model, cases, [], cons)[0]


def apriori(model, traj, rp, cons, t):
    """The a-priori check of one trajectory at time t."""
    return att.validate_bounds(model, [], [(traj, rp)], cons, t)[1][0]


def window_p(rp, cons, interval):
    """(N, [X], [XX], P-tilde, P1, P2) of one interval by the batched pass."""
    n, sx, sxx = att._window_constants(cons, [(rp, interval)])[0]
    s, t = interval
    return (n, sx, sxx) + att.p_values(n, sx, sxx, att.window_blocks(t - s, cons.d_step),
                                       cons.m_big, cons.m_tilde)


class TestConstants:
    def test_block_formulas(self):
        # boundary arithmetic of the window-length cap and unit block count
        assert att.step_cap(1.0, 0.0, 0.4) == pytest.approx(4.0 ** -5)
        assert att.unit_blocks(1.0, 0.0, 0.4) == 1024

    def test_noise_polynomial(self):
        assert att.poly_p(0.0, 0.0) == 1.0
        assert att.poly_p(1.0, 1.0) == 5.0

    def test_derive_populates_consistently(self):
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model)
        assert cons.n_tilde == 2 and cons.d_step == 0.5
        assert cons.n_tilde_formula > 2  # the formula value stays on record
        assert cons.lam == cons.lambda_a - cons.big_l
        assert cons.c_of_n == max(1 + 2, 2 * (1 + 2), 3.0 * 2 ** 12 * cons.m_big ** 3)
        assert cons.q_moment == pytest.approx(4 * 3 / (0.49 - 0.05))

    def test_threshold_coupling_enforced(self):
        model = desk_model()
        with pytest.raises(ConfigError, match="threshold coupling"):
            desk_constants(model, chi=0.5)
        with pytest.raises(ConfigError):
            desk_constants(model, m_tilde=0.9)

    def test_eta_must_dominate_sigma_g(self):
        model = SpectralModel(8, lambda_a=8.0, sigma_g=0.1, c_g=1e-3)
        with pytest.raises(ConfigError):
            desk_constants(model, eta=0.05)

    def test_drift_free_conventions(self):
        cons = desk_constants(desk_model())
        assert cons.big_l == 0.0 and cons.l_tilde == 1.0
        assert cons.c_tilde_2 == 0.0 and math.isinf(cons.t0)

    def test_config_round_trip_and_cross_check(self, tmp_path):
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model)
        path = tmp_path / "constants.txt"
        pairs = {name: getattr(cons, name) for name in att._PRIMITIVE + att._DERIVED}
        pairs["n_tilde"] = cons.n_tilde_override
        write_kv_file(str(path), pairs)
        again = att.constants_from_config(str(path), model)
        assert again == cons
        tampered = dict(pairs, c_tilde_1=123.0)
        write_kv_file(str(path), tampered)
        with pytest.raises(ConfigError, match="does not match"):
            att.constants_from_config(str(path), model)

    def test_example_moment_order(self):
        # gamma = 0.4, eta = 0.35, two unit blocks: q = 4 * 3 / 0.05 = 240
        model = desk_model()
        cons = att.BoundConstants.derive(model, gamma=0.4, eta=0.35, chi=1e-16,
                                         m_tilde=1.05, m_big=0.1, c_i=0.5,
                                         n_tilde_override=2)
        assert cons.q_moment == pytest.approx(240.0)

    def test_provenance_labels(self):
        cons = desk_constants(desk_model())
        rows = {name: prov for name, _, prov in cons.as_rows()}
        assert rows["gamma"] == "primitive"
        assert rows["m_big"] == "calibrated"
        assert rows["n_tilde"] == "calibrated"  # pinned by the override
        assert rows["c_const"] == "derived"


class TestPConstants:
    def test_zero_noise_exact_values(self):
        cons = desk_constants(desk_model())
        rp = zero_lift(1.0, 0.0)
        n, sx, _, got_tilde, p1, p2 = window_p(rp, cons, (0.0, 1.0))
        p_tilde = cons.m_big * math.exp(cons.m_tilde)
        assert n == 1 and sx == 0.0
        assert got_tilde == pytest.approx(p_tilde, rel=1e-12)
        assert p1 == pytest.approx(2 * p_tilde ** 3, rel=1e-12)
        ratio = (math.exp(2 * cons.m_tilde) - 1) / (math.exp(cons.m_tilde) - 1)
        geom = (p_tilde ** 2 - 1) / (p_tilde - 1)
        assert p2 == pytest.approx(cons.m_big * 2 * ratio * geom, rel=1e-12)

    def test_unit_geometric_factor_limit(self):
        model = desk_model()
        cons = desk_constants(model, m_big=math.exp(-DESK["m_tilde"]))
        _, _, _, p_tilde, _, p2 = window_p(zero_lift(1.0, 0.0), cons, (0.0, 1.0))
        assert p_tilde == pytest.approx(1.0)
        assert math.isfinite(p2) and p2 > 0

    def test_interval_cap(self):
        cons = desk_constants(desk_model())
        rp = zero_lift(3.0, 0.0)
        with pytest.raises(ValueError, match="limited to length one"):
            att._window_constants(cons, [(rp, (0.0, 1.0)), (rp, (0.0, 2.0))])
        with pytest.raises(ValueError, match="positive length"):
            att._window_constants(cons, [(rp, (1.0, 1.0))])

    def test_p1_monotone_in_chi(self):
        model = desk_model()
        rp = scaled_lift(4, 1.0, 0.0, scale=0.01)
        p1s = []
        for chi in (0.010, 0.014, 0.019):
            cons = desk_constants(model, chi=chi)
            p1s.append(window_p(rp, cons, (0.0, 1.0))[4])
        assert all(b <= a for a, b in zip(p1s, p1s[1:]))

    def test_p_values_overflow_branches(self):
        # log p_tilde = log(1e308) + 1.05 > 709: every constant overflows
        assert att.p_values(1, 0.0, 0.0, 2, 1e308, 1.05) == (math.inf, math.inf, math.inf)
        # n m_tilde + m_tilde > 709 with log p_tilde near 51: only P2 overflows
        p_tilde, p1, p2 = att.p_values(700, 0.0, 0.0, 2, 1e-300, 1.05)
        assert math.isfinite(p_tilde) and math.isfinite(p1)
        assert p2 == math.inf

    def test_window_blocks(self):
        assert att.window_blocks(1.0, 0.5) == 2
        assert att.window_blocks(1.0 + 1e-13, 0.5) == 2  # within the 1e-12 slack
        assert att.window_blocks(0.1, 0.5) == 1


def mixed_windows(cells):
    """Windows of cells cells of three paths on one grid of 256 steps per
    unit: unordered, repeated, and the same start on several paths."""
    rps = [scaled_lift(seed, 1.25, 0.0, steps=256, scale=scale)
           for seed, scale in ((0, 0.02), (1, 0.04), (2, 0.06))]
    last = 320 - cells
    starts = [last, 0, last // 2, 0] + list(range(last, -1, -23))
    return [(rps[k % 3], (a / 256, (a + cells) / 256)) for k, a in enumerate(starts)] \
        + [(rp, (0.0, cells / 256)) for rp in rps]


class TestWindowConstants:
    """att._window_constants against the per-window reference, bit for bit."""

    @pytest.mark.parametrize("cells", [1, 63, 64, 65, 129])
    def test_matches_per_window_kernels_bitwise(self, cells):
        cons = desk_constants(desk_model())
        windows = mixed_windows(cells)
        got = att._window_constants(cons, windows)
        want = [ref_window(rp, cons, interval)[:3] for rp, interval in windows]
        assert np.array_equal(np.array(got), np.array(want))
        assert cells < 63 or len({n for n, _, _ in want}) > 2

    def test_mixed_grids_in_calibration(self):
        # trajectories on grids of 32 and 64 steps per unit, interleaved
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model, m_big=1.0)
        cases = []
        for seed in range(6):
            rp = scaled_lift(seed, 2.0, 0.0, steps=(32, 64)[seed % 2], scale=0.02)
            interval = (0.0, 1.0) if seed < 4 else (0.5, 1.5)
            cases.append((solver.solve_mild(model, np.ones(16) / (4.0 + seed), rp), rp, interval))
        got = att._solution_cases(model, cases, cons)
        want = []
        for traj, rp, interval in cases:
            n, sx, sxx = ref_window(rp, cons, interval)[:3]
            ynorm = model.frac_norm(traj.y[att._traj_index(traj, interval[0])], model.alpha)
            want.append((solver.controlled_norm(model, traj, rp, interval).total, ynorm,
                         n, sx, sxx, att.window_blocks(1.0, cons.d_step)))
        assert np.array_equal(np.array(got), np.array(want))
        cal = att.calibrate_m_big(model, cases, cons)
        assert att.calibrate_m_big(model, cases[::-1], cons).m_big == cal.m_big

    def test_first_window_error_in_window_order(self):
        # the windows of the 32-step grid form the first batch, but the
        # window of the 64-step jumpy path comes first among the failing ones
        cons = desk_constants(desk_model(c_g=5e-4))
        good, bad32, bad64 = scaled_lift(4, 8.0, -7.0), jumpy_lift(), jumpy_lift(steps=64)
        windows = [(good, (-1.0, 0.0)), (bad32, (-6.0, -5.0)), (good, (-3.0, -2.0))]

        def first_error(windows, reference):
            with pytest.raises((NumericsError, ValueError)) as err:
                if reference:
                    for rp, interval in windows:
                        ref_window(rp, cons, interval)
                else:
                    att._window_constants(cons, windows)
            return type(err.value), str(err.value), getattr(err.value, "context", None)

        for order in (windows[:2] + [(bad64, (-3.0, -2.0))] + windows[1:],
                      [windows[0], (bad64, (-3.0, -2.0))] + windows[1:],
                      windows[:1] + [(good, (-1.0, 0.5))] + windows[1:],
                      windows + [(good, (-1.0, 0.5))], windows + [(good, (0.0, 0.0))]):
            assert first_error(order, False) == first_error(order, True)
        assert first_error([windows[0], (bad64, (-3.0, -2.0))] + windows[1:],
                           False)[2]["cell_left"] == -2.5

    def test_calibration_error_in_case_order(self):
        # a controlled-norm error (window beyond the solved span) against a
        # later case's greedy error, and the other way round
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model, m_big=1.0)
        rp = scaled_lift(0, 2.0, 0.0)
        x = rp.x_raw.copy()
        x[rp.index(0.5) + 1:] += 1.0
        jumpy = rpm.GridRoughPath(rp.t0, rp.dt, x, rp.xx, rp.gamma)
        y0 = np.ones(16) / 4.0
        short = (solver.solve_mild(model, y0, rp.window(0.0, 1.0)), rp, (0.0, 1.5))
        greedy_case = (solver.solve_mild(model, y0, jumpy), jumpy, (0.0, 1.0))
        with pytest.raises(ValueError, match="outside the solved span"):
            att.calibrate_m_big(model, [short, greedy_case], cons)
        with pytest.raises(NumericsError, match="grid too coarse"):
            att.calibrate_m_big(model, [greedy_case, short], cons)


class TestSolutionBound:
    def test_zero_noise_check(self):
        model = desk_model()
        cons = desk_constants(model, m_big=1.0)
        rp = zero_lift(1.0, 0.0)
        traj = solver.solve_mild(model, np.ones(16) / 4.0, rp)
        chk, = solution_checks(model, [(traj, rp, (0.0, 1.0))], cons)
        assert chk.passed and chk.rhs > chk.lhs

    def test_calibration_margin_and_monotonicity(self):
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model, m_big=1.0)
        cases = []
        for seed in range(20):
            rp = scaled_lift(seed, 1.0, 0.0, scale=0.02)
            traj = solver.solve_mild(model, np.ones(16) / 4.0, rp)
            cases.append((traj, rp, (0.0, 1.0)))
        cal = att.calibrate_m_big(model, cases, cons, margin=0.1)
        for chk in solution_checks(model, cases, cal):
            assert chk.passed
            assert chk.rhs >= 1.1 * chk.lhs * (1 - 1e-6)
        smaller = cal.with_m_big(cal.m_big * 0.5)
        fails = sum(not chk.passed or chk.rhs < 1.1 * chk.lhs
                    for chk in solution_checks(model, cases, smaller))
        assert fails > 0  # the calibrated value is tight up to bisection slack

    @pytest.mark.parametrize("y_scale", [0.0, 0.25])
    def test_calibration_accepts_overflowing_window(self, y_scale):
        # a steep line makes every one of 1024 cells a greedy step, so
        # n m_tilde > 709 and P1, P2 overflow at every m_big of the bracket;
        # rhs is inf (nan when |y_s| = 0) and the window never counts as a miss
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model, m_big=1.0)
        cases = []
        for seed in range(5):
            rp = scaled_lift(seed, 1.0, 0.0, scale=0.02)
            cases.append((solver.solve_mild(model, np.ones(16) / 4.0, rp), rp, (0.0, 1.0)))
        steep = rpm.lift_piecewise_linear(8.0 * np.arange(1025) / 1024, 0.0, 1.0 / 1024, gamma=0.49)
        traj = solver.solve_mild(model, np.full(16, y_scale), steep)
        assert att._window_constants(cons, [(steep, (0.0, 1.0))])[0][0] == 1024
        cal = att.calibrate_m_big(model, cases + [(traj, steep, (0.0, 1.0))], cons, margin=0.1)
        assert cal.m_big == att.calibrate_m_big(model, cases, cons, margin=0.1).m_big


class TestApriori:
    def test_drift_free_reduction(self):
        model = desk_model()
        cons = desk_constants(model)
        rp = zero_lift(3.0, 0.0)
        traj = solver.solve_mild(model, np.ones(16) / 4.0, rp)
        chk = apriori(model, traj, rp, cons, 2.0)
        assert chk.passed

    def test_holds_at_fractional_times(self):
        model = SpectralModel(16, lambda_a=4.0, alpha=0.0, sigma_f=0.25,
                              c_f=0.5, c_g=5e-4)
        cons = att.BoundConstants.derive(model, m_big=1.0, **DESK)
        rp = scaled_lift(2, 4.0, 0.0, steps=64)
        traj = solver.solve_mild(model, np.ones(16) / 4.0, rp)
        for t in (0.5, 1.25, 2.5):
            assert apriori(model, traj, rp, cons, t).passed

    def test_matches_per_window_reference(self):
        # P3 = rho^2 (1 + |y,y'|_D) of each unit window by holder_seminorm
        model = SpectralModel(16, lambda_a=4.0, alpha=0.0, sigma_f=0.25, c_f=0.5, c_g=5e-4)
        cons = att.BoundConstants.derive(model, m_big=1.0, **DESK)
        rp = scaled_lift(3, 5.0, -1.0, steps=64, scale=0.05)
        traj = solver.solve_mild(model, np.ones(16) / 4.0, rp.window(0.0, 4.0))
        chk = apriori(model, traj, rp, cons, 2.5)
        acc = 0.0
        for l in range(3):
            window = (float(l), float(l + 1))
            p3 = rpm.holder_seminorm(rp, window).rho ** 2 \
                * (1.0 + solver.controlled_norm(model, traj, rp, window).total)
            acc += math.exp(cons.lam * l) * p3
        y0 = model.frac_norm(traj.y[0], model.alpha)
        rhs = cons.c_tilde_a * y0 + cons.c_tilde_2 * math.exp(cons.lam * 2.5) \
            + cons.c_tilde_1 * cons.c_g * acc
        assert chk.rhs == rhs

    def test_requires_positive_rate(self):
        model = SpectralModel(8, lambda_a=0.05, alpha=0.0, sigma_f=0.25, c_f=2.0)
        cons = att.BoundConstants.derive(model, m_big=0.1, **DESK)
        assert cons.lam < 0
        rp = zero_lift(2.0, 0.0)
        traj = solver.solve_mild(model, np.ones(8), rp)
        with pytest.raises(ConfigError):
            apriori(model, traj, rp, cons, 1.0)

    def test_chain_bound_consistency_at_integer_times(self):
        model = SpectralModel(16, lambda_a=4.0, alpha=0.0, sigma_f=0.25,
                              c_f=0.5, c_g=5e-4)
        cons = att.BoundConstants.derive(model, m_big=1.0, **DESK)
        cases = []
        for seed in range(15):
            rp = scaled_lift(seed, 4.0, 0.0, steps=64)
            traj = solver.solve_mild(model, np.ones(16) / 4.0, rp)
            cases.append((traj, rp))
        cal = att.calibrate_m_big(model, [(t, r, (0.0, 1.0)) for t, r in cases],
                                  cons, margin=0.1)
        for traj, rp in cases[:5]:
            apr = apriori(model, traj, rp, cal, 3.0)
            chain = att.discrete_chain_bound(model, traj, rp, cal, 3)
            assert apr.passed and chain.passed


class TestValidateBounds:
    @staticmethod
    def cases(n=4):
        # lifts over [0, 4], trajectories on [0, 3], as bounds validates
        model = SpectralModel(16, lambda_a=4.0, alpha=0.0, sigma_f=0.25, c_f=0.5, c_g=5e-4)
        cons = att.BoundConstants.derive(model, m_big=1.0, **DESK)
        cases = []
        for seed in range(n):
            rp = scaled_lift(seed, 4.0, 0.0, steps=64)
            cases.append((solver.solve_mild(model, np.ones(16) / (4.0 + seed), rp.window(0.0, 3.0)),
                          rp))
        return model, cons, cases

    def test_one_norm_pass_matches_separate_checks(self, monkeypatch):
        # the [0, 1] window that both checks read is measured once
        model, cons, cases = self.cases()
        unit = [(traj, rp, (0.0, 1.0)) for traj, rp in cases]
        sols = att.validate_bounds(model, unit, [], cons)[0]
        aprs = att.validate_bounds(model, [], cases, cons, 3.0)[1]
        real, calls = solver._window_norm, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "_window_norm", counted)
        both = att.validate_bounds(model, unit, cases, cons, 3.0)
        assert both == (sols, aprs) and len(calls) == 3 * len(cases)
        assert [chk.lhs for chk in sols] == [solver.controlled_norm(model, *case).total
                                             for case in unit]

    def test_errors_in_checking_order(self):
        model, cons, cases = self.cases(3)
        traj, rp = cases[0]
        short = (solver.solve_mild(model, np.ones(16) / 4.0, rp.window(0.0, 1.0)), rp)
        coarse = (solver.solve_mild(model, np.ones(16) / 4.0, rpm.coarsen(rp, 2)), rp)
        long = (traj, rp, (0.0, 2.0))
        # each solution case's errors, a norm's before its window's, come
        # before any a-priori case's
        with pytest.raises(ValueError, match="outside the solved span"):
            att.validate_bounds(model, [(*short, (1.0, 2.0)), long], [short], cons, 3.0)
        with pytest.raises(ValueError, match="limited to length one"):
            att.validate_bounds(model, [long, (*short, (1.0, 2.0))], [short], cons, 3.0)
        # then the a-priori cases in order, whether a norm or a check before it fails
        with pytest.raises(ValueError, match="share the grid step"):
            att.validate_bounds(model, [], [cases[2], coarse, short], cons, 3.0)
        with pytest.raises(ValueError, match=r"must be solved on \[0, 3\]"):
            att.validate_bounds(model, [], [cases[2], short, coarse], cons, 3.0)
        slow = SpectralModel(16, lambda_a=0.05, alpha=0.0, sigma_f=0.25, c_f=2.0)
        with pytest.raises(ConfigError):
            att.validate_bounds(model, [], cases,
                                att.BoundConstants.derive(slow, m_big=0.1, **DESK), 3.0)


def eval_h(rp, cons, interval):
    """The window constants (H1, H2) of one interval, from the reference."""
    _, sx, sxx, _, p1, p2 = ref_window(rp, cons, interval)
    return att.h_values(cons, sx + sxx, p1, p2)


class TestH:
    def test_zero_noise_collapse(self):
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model)
        h1, h2 = eval_h(zero_lift(1.0, 0.0), cons, (0.0, 1.0))
        assert h1 == 0.0
        expected = max(cons.c_tilde_a * math.exp(cons.lam),
                       cons.c_tilde_1 * cons.c_g)
        assert h2 == pytest.approx(expected, rel=1e-12)

    def test_shift_equivariance_exact(self):
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model)
        rp = scaled_lift(3, 3.0, 0.0, scale=0.02)
        sh = rpm.shift(rp, 1.0)
        assert eval_h(sh, cons, (0.0, 1.0)) == eval_h(rp, cons, (1.0, 2.0))


class TestErgodic:
    def test_zero_noise(self):
        report = att.ergodic_moments([zero_lift(4.0, 0.0)], q=2.0)
        assert report.k_q == 0.0 and report.kk_q == 0.0 and report.k_bold == 0.0

    def test_brownian_two_estimator_agreement(self):
        samples = [scaled_lift(seed, 8.0, 0.0, scale=1.0) for seed in range(40)]
        report = att.ergodic_moments(samples, q=2.0)
        spread = 3.0 * math.hypot(report.std_err_time, report.std_err_ens)
        time_avg = report.k_q_time + report.kk_q_time
        ens_avg = report.k_q_ens + report.kk_q_ens
        assert abs(time_avg - ens_avg) <= spread

    def test_overflow_moment_order_flagged(self):
        samples = [scaled_lift(seed, 4.0, 0.0, gamma=0.4, steps=64,
                               scale=1.0, hurst=0.45) for seed in range(10)]
        with pytest.raises(NumericsError) as err:
            att.ergodic_moments(samples, q=240.0)
        assert err.value.context["max_safe_q"] < 240

    def test_matches_per_window_seminorms(self):
        samples = [scaled_lift(seed, span, 0.5, scale=1.0) for seed, span in ((0, 3.0), (1, 2.0))]
        report = att.ergodic_moments(samples, q=3.0)
        reps = [[rpm.holder_seminorm(rp, (0.5 + j, 1.5 + j))
                 for j in range(round(rp.n_cells * rp.dt))] for rp in samples]
        pow_x = [np.asarray([r.seminorm_x for r in row]) ** 3.0 for row in reps]
        pow_xx = [np.asarray([r.seminorm_xx for r in row]) ** 3.0 for row in reps]
        assert report.n_samples == 5
        assert (report.k_q, report.kk_q) == (float(np.mean(np.concatenate(pow_x))),
                                             float(np.mean(np.concatenate(pow_xx))))
        assert (report.k_q_time, report.kk_q_time) == (float(np.mean(pow_x[0])),
                                                       float(np.mean(pow_xx[0])))
        assert report.k_q_ens == float(np.mean([v[0] for v in pow_x]))

    def test_report_sum_field(self):
        samples = [scaled_lift(0, 2.0, 0.0, scale=1.0)]
        report = att.ergodic_moments(samples, q=2.0)
        assert report.k_bold == report.k_q + report.kk_q


class TestIntegrability:
    def test_window_constants_have_stable_moments(self):
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model)
        samples = [scaled_lift(seed, 4.0, 0.0) for seed in range(30)]
        report = att.integrability_check(samples, cons)
        norms = (report.lp_core, report.lp_p1, report.lp_p2)
        assert all(math.isfinite(v) for lp in norms for v in lp.values())
        assert report.n_windows == 120
        # L^p norms are nondecreasing in p, and halving the ensemble moves the
        # estimates by far less than a heavy tail would
        for series in (report.lp_core, report.lp_p1, report.lp_p2):
            vals = [series[p] for p in report.orders]
            assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))
        assert all(1 / 3 <= r <= 3.0 for r in report.stability.values())

    def test_matches_per_window_reference(self):
        # stability is the L^p ratio of P1 + P2 over the even-numbered unit
        # windows to that over the odd-numbered ones, in ensemble order
        cons = desk_constants(desk_model(c_g=5e-4))
        samples = [scaled_lift(seed, 3.0, 0.0, scale=0.02) for seed in range(3)]
        report = att.integrability_check(samples, cons, orders=(1.0, 3.0))
        ref = np.array([ref_window(rp, cons, (float(j), j + 1.0)) for rp in samples
                        for j in range(3)])
        n, sx, p1, p2 = ref[:, 0], ref[:, 1], ref[:, 4], ref[:, 5]
        core = n * (1.0 + sx) * np.exp(n * cons.m_tilde)
        total = p1 + p2

        def lp(vals, p):
            return float(np.mean(vals ** p) ** (1.0 / p))

        assert report.n_windows == 9
        for p in report.orders:
            assert report.stability[p] == lp(total[0::2], p) / lp(total[1::2], p)
            assert (report.lp_p1[p], report.lp_p2[p]) == (lp(p1, p), lp(p2, p))
            assert report.lp_core[p] == pytest.approx(lp(core, p), rel=1e-14)

    def test_needs_two_windows(self):
        cons = desk_constants(desk_model())
        with pytest.raises(ValueError):
            att.integrability_check([zero_lift(1.0, 0.0)], cons)


class TestGapCondition:
    def _ergodic(self, cons):
        samples = [scaled_lift(seed, 4.0, 0.0, scale=0.01) for seed in range(10)]
        return att.ergodic_moments(samples, cons.q_moment)

    def test_lhs_formula_sigma_f_zero(self):
        # with sigma_f = 0 the drift threshold is lambda_a - 2 c_f exactly
        model = SpectralModel(16, lambda_a=8.0, alpha=0.0, c_f=0.5, c_g=5e-4)
        cons = att.BoundConstants.derive(model, m_big=0.078, **DESK)
        assert cons.big_l == pytest.approx(2 * 0.5)
        erg = self._ergodic(cons)
        rep = att.check_gap_condition(cons, erg)
        assert rep.lhs == pytest.approx(8.0 - 1.0)

    def test_drift_free_reduction(self):
        cons = desk_constants(desk_model(c_g=5e-4))
        erg = self._ergodic(cons)
        rep = att.check_gap_condition(cons, erg)
        assert rep.lhs == cons.lambda_a
        assert rep.rhs == pytest.approx(cons.c_const * (erg.k_bold + 1.0))
        assert rep.passed

    def test_shifted_variant(self):
        cons = desk_constants(desk_model(c_g=5e-4))
        erg = self._ergodic(cons)
        rep = att.check_gap_condition(cons, erg, beta=0.2)
        assert rep.passed_shifted is not None and rep.lhs_shifted == cons.lambda_a

    def test_invalid_regularity_shift(self):
        cons = desk_constants(desk_model(c_g=5e-4))
        erg = self._ergodic(cons)
        with pytest.raises(ValueError, match="invalid regularity"):
            att.check_gap_condition(cons, erg, beta=0.6)


class TestAbsorbingRadius:
    def test_zero_noise_closed_form(self):
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model)
        rp = zero_lift(14.0, -13.0)
        rep = att.absorbing_radius(rp, cons, truncation_k=12)
        h2 = eval_h(rp, cons, (-1.0, 0.0))[1]
        lam = cons.lam
        closed = h2 * math.exp(-lam) / (1.0 - math.exp(-lam))
        assert rep.r_value == pytest.approx(closed, rel=1e-10)
        assert rep.radius == pytest.approx(
            1.0 + rep.p1_val * rep.r_value + rep.p2_val + cons.delta_bar)

    def test_truncation_tail_control(self):
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model)
        rp = scaled_lift(5, 26.0, -25.0, scale=0.01)
        short = att.absorbing_radius(rp, cons, truncation_k=12)
        long = att.absorbing_radius(rp, cons, truncation_k=24)
        assert abs(long.radius - short.radius) <= short.tail_bound + 1e-12

    def test_series_divergence_diagnostic(self):
        # nearly flat decay with an amplified chain: terms grow and the
        # estimator refuses to report a radius
        model = desk_model(c_g=0.5, lambda_a=0.01)
        cons = att.BoundConstants.derive(model, m_big=1.0, **DESK)
        rp = scaled_lift(6, 14.0, -13.0, scale=0.02)
        with pytest.raises(NumericsError, match="not decaying"):
            att.absorbing_radius(rp, cons, truncation_k=12)

    def test_absorption_for_all_later_times(self):
        # once inside, the evolved states stay below the radius at every later
        # tested pullback time
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model)
        for seed in range(3):
            rp = scaled_lift(seed, 14.0, -13.0)
            rep = att.absorbing_radius(rp, cons, truncation_k=12)
            y0 = np.ones(16) / model.frac_norm(np.ones(16), 0.0)
            for t in (4.0, 8.0, 12.0):
                traj = solver.solve_mild(model, y0, rp.window(-t, 0.0))
                assert model.frac_norm(traj.y[-1], 0.0) <= rep.radius

    def test_temperedness_proxy_trend(self):
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model)
        k_max = 6
        trunc = 8
        rp = scaled_lift(7, trunc + 2.0 + k_max, -(trunc + 1.0 + k_max), scale=0.01)
        ratios = []
        for k in range(k_max + 1):
            # the window, relabeled onto the clock [-(trunc + 1), 1]
            sub = rp.window(-trunc - 1.0 - k, 1.0 - k)
            window = rpm.GridRoughPath(-(trunc + 1.0), sub.dt, sub.x_raw, sub.xx, sub.gamma)
            rep = att.absorbing_radius(window, cons, truncation_k=trunc)
            ratios.append(max(math.log(rep.radius), 0.0) / (k + 1))
        assert all(np.isfinite(ratios))
        assert ratios[-1] < ratios[0]


def ref_absorbing_radius(rp, constants, truncation_k, eps_points):
    """The per-window loop that the batched window kernels replaced: one greedy
    scan and one seminorm pass per (eps, k) window, in evaluation order."""
    lam = constants.lam
    best_sum, best_terms, best_eps, p1_val, p2_val = -math.inf, None, 0.0, 0.0, 0.0
    for eps in att._grid_eps_values(rp, eps_points):
        _, _, _, _, p1, p2 = ref_window(rp, constants, (-eps, 1.0 - eps))
        p1_val = max(p1_val, p1)
        p2_val = max(p2_val, p2)
        terms = np.empty(truncation_k)
        prod = 1.0
        for k in range(1, truncation_k + 1):
            _, sx, sxx, _, p1, p2 = ref_window(rp, constants, (-k - eps, 1.0 - k - eps))
            rho = sx + sxx
            h1 = constants.c_tilde_1 * constants.c_g * rho * rho * p1
            h2 = max(constants.c_tilde_a * math.exp(constants.lam),
                     constants.c_tilde_1 * constants.c_g) * (1.0 + rho * rho * (1.0 + p2))
            terms[k - 1] = math.exp(-lam * k) * h2 * prod
            prod *= 1.0 + h1
        total = float(np.sum(terms))
        if total > best_sum:
            best_sum, best_terms, best_eps = total, terms, float(eps)
    half = truncation_k // 2
    ratios = best_terms[half + 1:] / np.maximum(best_terms[half:-1], 1e-300)
    decay = float(np.max(ratios))
    tail_bound = p1_val * (float(best_terms[-1]) * decay / (1.0 - decay))
    return dict(radius=1.0 + p1_val * best_sum + p2_val + constants.delta_bar,
                r_value=best_sum, series_terms=best_terms, p1_val=p1_val, p2_val=p2_val,
                tail_bound=tail_bound, eps_argmax=best_eps)


class TestAbsorbingWindowKernels:
    @pytest.mark.parametrize("steps", [32, 64])
    @pytest.mark.parametrize("eps_points", [1, 11, 33])
    def test_matches_per_window_loop_bitwise(self, steps, eps_points):
        cons = desk_constants(desk_model(c_g=5e-4))
        trunc = 6
        for seed, scale in ((0, 0.01), (1, 0.015), (2, 0.02)):
            rp = scaled_lift(seed, trunc + 2.0, -(trunc + 1.0), steps=steps, scale=scale)
            rep = att.absorbing_radius(rp, cons, truncation_k=trunc, eps_points=eps_points)
            ref = ref_absorbing_radius(rp, cons, trunc, eps_points)
            assert np.array_equal(rep.series_terms, ref.pop("series_terms"))
            for key, value in ref.items():
                assert getattr(rep, key) == value, key

    def test_first_bad_window_in_evaluation_order(self):
        # cells above chi at t = -5.5 and t = -2.5; the loop meets the window
        # [-3, -2] (eps = 0, k = 3) before any window holding the earlier cell
        cons = desk_constants(desk_model(c_g=5e-4))
        rp = jumpy_lift()
        with pytest.raises(NumericsError) as ref:
            ref_absorbing_radius(rp, cons, 6, 11)
        with pytest.raises(NumericsError) as got:
            att.absorbing_radius(rp, cons, truncation_k=6, eps_points=11)
        assert ref.value.context["cell_left"] == -2.5
        assert str(got.value) == str(ref.value)
        assert got.value.context == ref.value.context



def jumpy_lift(steps=32):
    """A realization with cells above chi: its radius raises a NumericsError."""
    rp = scaled_lift(4, 8.0, -7.0, steps=steps)
    x = rp.x_raw.copy()
    for t in (-5.5, -2.5):
        x[rp.index(t) + 1:] += 1.0
    return rpm.GridRoughPath(rp.t0, rp.dt, x, rp.xx, rp.gamma)


class TestAbsorbingRadii:
    """att.absorbing_radii: the evolutions of several realizations as one block."""

    @pytest.mark.parametrize("c_g", [5e-4, 0.3])
    def test_matches_case_by_case(self, c_g):
        model = desk_model(c_g=c_g, sigma_f=0.25, c_f=0.5)
        cons = desk_constants(desk_model(c_g=5e-4))
        rng = np.random.default_rng(2)
        cases = [(scaled_lift(seed, 8.0, -7.0), rng.standard_normal(16)) for seed in range(5)]
        got = att.absorbing_radii(model, cases, cons, truncation_k=6, eps_points=5)
        for rep, (rp, y0) in zip(got, cases):
            alone = att.absorbing_radius(rp, cons, truncation_k=6, eps_points=5)
            traj = solver.solve_mild(model, y0, rp.window(-6.0, 0.0))
            final_norm = model.frac_norm(traj.y[-1], model.alpha)
            assert rep.final_norm == final_norm
            assert rep.accepted == (final_norm <= alone.radius)
            assert np.array_equal(rep.series_terms, alone.series_terms)
            assert rep.radius == alone.radius and rep.tail_bound == alone.tail_bound
            one = att.absorbing_radii(model, [(rp, y0)], cons, truncation_k=6, eps_points=5)[0]
            assert (one.final_norm, one.accepted) == (rep.final_norm, rep.accepted)

    def test_errors_in_case_order(self):
        # the radius error of the jumpy realization, and the solve error of
        # the huge state (it blows up on the first step of [-6, 0])
        cons = desk_constants(desk_model(c_g=5e-4))
        model = desk_model(c_g=1e5)
        good, bad = scaled_lift(4, 8.0, -7.0), jumpy_lift()
        huge, zero = np.full(16, 1e149), np.zeros(16)
        with pytest.raises(NumericsError) as radius_error:
            att.absorbing_radius(bad, cons, truncation_k=6)
        with pytest.raises(NumericsError) as solve_error:
            solver.solve_mild(model, huge, good.window(-6.0, 0.0))

        def first_error(cases, constants=cons):
            with pytest.raises(NumericsError) as err:
                att.absorbing_radii(model, cases, constants, truncation_k=6)
            return str(err.value), err.value.context

        radius = str(radius_error.value), radius_error.value.context
        solve = str(solve_error.value), solve_error.value.context
        assert "cell_left" in radius[1] and solve[1] == {"t_bad": -6.0 + good.dt}
        # a case's radius error comes before its own solve error ...
        assert first_error([(bad, huge), (good, huge)]) == radius
        assert first_error([(good, zero), (bad, huge)]) == radius
        # ... and an earlier case's solve error before a later case's radius error
        assert first_error([(good, huge), (bad, zero)]) == solve
        assert first_error([(good, zero), (good, huge), (bad, zero)]) == solve
        # an earlier case's series error before a later case's cell above chi,
        # although the later case's window constants raise in the batch of all
        # cases, before any series is summed
        weak_gap = att.BoundConstants.derive(desk_model(c_g=0.5, lambda_a=0.01), m_big=1.0,
                                             **DESK)
        growing = scaled_lift(6, 8.0, -7.0, scale=0.02)
        with pytest.raises(NumericsError, match="not decaying") as series_error:
            att.absorbing_radius(growing, weak_gap, truncation_k=6)
        with pytest.raises(NumericsError, match="grid too coarse"):
            att.absorbing_radius(bad, weak_gap, truncation_k=6)
        series = str(series_error.value), series_error.value.context
        assert first_error([(growing, zero), (bad, zero)], weak_gap) == series
        assert "grid too coarse" in first_error([(bad, zero), (growing, zero)], weak_gap)[0]

def ref_pullback_estimate(model, ensemble, t_list, cloud):
    """The per-point solve_mild loop that the lockstep evolution replaced."""
    t_list = sorted(float(t) for t in t_list)
    cloud = np.asarray(cloud, dtype=float)
    rows = []
    evolved_map = {}
    converged = {}
    for seed, rp in ensemble:
        prev = None
        semis = []
        for t in t_list:
            window = rp.window(-t, 0.0)
            pts = []
            blew = 0
            for point in cloud:
                try:
                    traj = solver.solve_mild(model, point, window)
                    pts.append(traj.y[-1])
                except NumericsError:
                    blew += 1
            if not pts:
                raise NumericsError(f"every trajectory blew up for seed {seed} at t = {t}")
            pts = np.asarray(pts)
            diam = att.cloud_diameter(model, pts)
            semi = math.nan if prev is None else att.hausdorff_semidistance(model, prev, pts)
            if prev is not None:
                semis.append(semi)
            rows.append(att.PullbackRow(seed, t, diam, semi, blew))
            evolved_map[(seed, t)] = pts
            prev = pts
        decreasing = all(b < a for a, b in zip(semis, semis[1:])) if len(semis) > 1 else True
        converged[seed] = decreasing and (not semis or semis[-1] < 1e-6 * (1 + semis[0]))
    return att.PullbackReport(tuple(rows), evolved_map, converged)


def assert_same_report(got, want):
    assert len(got.rows) == len(want.rows)
    for a, b in zip(got.rows, want.rows):
        assert (a.seed, a.t, a.diameter, a.blew_up) == (b.seed, b.t, b.diameter, b.blew_up)
        assert a.semidistance == b.semidistance or (math.isnan(a.semidistance)
                                                    and math.isnan(b.semidistance))
    assert got.evolved.keys() == want.evolved.keys()
    assert all(np.array_equal(got.evolved[k], want.evolved[k]) for k in want.evolved)
    assert got.converged == want.converged


class TestPullback:
    # a strong linear diffusion whose growth over four units passes 1e150
    # from unit states but not from states of size 1e-100
    BLOWUP_MODEL = dict(n_modes=2, lambda_a=0.5, c_g=100.0)

    def test_partial_blowup_matches_per_point_loop(self):
        model = SpectralModel(**self.BLOWUP_MODEL)
        cons = desk_constants(model)
        cloud = np.array([[1.0, 1.0], [2.0, -1.0], [1e-100, 2e-100], [3e-100, 0.0]])
        ens = [(seed, scaled_lift(seed, 4.0, -4.0, scale=1.0)) for seed in (0, 1)]
        rep = att.pullback_estimate(model, cons, ens, (4.0, 1.0, 2.0, 2.0), cloud)
        assert_same_report(rep, ref_pullback_estimate(model, ens, (4.0, 1.0, 2.0, 2.0), cloud))
        assert [r.blew_up for r in rep.rows] == [0, 0, 0, 2] * 2
        assert rep.evolved[(0, 4.0)].shape == (2, 2)
        assert rep.rows[3].diameter > 0.0

    def test_every_trajectory_blew_up(self):
        model = SpectralModel(**self.BLOWUP_MODEL)
        cons = desk_constants(model)
        ens = [(0, scaled_lift(0, 4.0, -4.0, scale=1.0))]
        cloud = np.array([[1.0, 1.0], [2.0, -1.0]])
        with pytest.raises(NumericsError) as want:
            ref_pullback_estimate(model, ens, (1.0, 4.0), cloud)
        with pytest.raises(NumericsError) as got:
            att.pullback_estimate(model, cons, ens, (1.0, 4.0), cloud)
        assert str(got.value) == str(want.value) == "every trajectory blew up for seed 0 at t = 4.0"

    def test_nonfinite_point_is_a_value_error(self):
        model = desk_model()
        cons = desk_constants(model)
        cloud = np.eye(16)[:2]
        cloud[1, 3] = np.inf
        with pytest.raises(ValueError):
            att.pullback_estimate(model, cons, [(0, scaled_lift(0, 3.0, -2.0))], (1.0, 2.0), cloud)

    def test_integral_cloud_matches_per_point_loop(self):
        model = desk_model(c_g=2e-4, g_kind="integral")
        cons = desk_constants(model)
        cloud = np.random.default_rng(5).standard_normal((3, 16))
        ens = [(s, scaled_lift(s, 8.0, -8.0)) for s in (5, 6)]
        rep = att.pullback_estimate(model, cons, ens, (2.0, 4.0, 8.0), cloud)
        assert_same_report(rep, ref_pullback_estimate(model, ens, (2.0, 4.0, 8.0), cloud))
        assert rep.rows[2].diameter == 0.0  # collapsed in floating point

    def test_contraction_with_zero_coefficients(self):
        model = desk_model()
        cons = desk_constants(model)
        cloud = np.eye(16)[:3]
        ens = [(0, scaled_lift(0, 5.0, -4.0))]
        rep = att.pullback_estimate(model, cons, ens, (1.0, 2.0, 4.0), cloud)
        rows = [r for r in rep.rows if r.seed == 0]
        assert rows[-1].diameter <= math.exp(-model.mu[0] * 4.0) * 2.0
        assert rep.converged[0]

    def test_diameter_rate_exceeds_gap_rate(self):
        model = desk_model(c_g=5e-4)
        cons = desk_constants(model)
        erg = TestGapCondition()._ergodic(cons)
        gap = att.check_gap_condition(cons, erg)
        assert gap.passed
        cloud = np.eye(16)[:2]
        ens = [(0, scaled_lift(1, 5.0, -4.0))]
        t_list = (1.0, 2.0, 3.0, 4.0)
        rep = att.pullback_estimate(model, cons, ens, t_list, cloud)
        diams = np.array([r.diameter for r in rep.rows])
        rate = -np.polyfit(np.asarray(t_list), np.log(diams), 1)[0]
        assert rate >= 0.5 * (cons.lam - cons.c_const * (erg.k_bold + 1.0))

    def test_two_seeds_reach_distinct_states(self):
        model = desk_model(c_g=2e-4, g_kind="integral")
        cons = desk_constants(model)
        cloud = np.zeros((2, 16))
        cloud[1, 0] = 1.0
        ens = [(s, scaled_lift(s, 9.0, -8.0)) for s in (0, 1)]
        rep = att.pullback_estimate(model, cons, ens, (4.0, 8.0), cloud)
        a = rep.evolved[(0, 8.0)]
        b = rep.evolved[(1, 8.0)]
        gap_ab = att.hausdorff_semidistance(model, a, b)
        scale = max(float(np.max(model.frac_norm_rows(a, 0.0))),
                    float(np.max(model.frac_norm_rows(b, 0.0))))
        assert gap_ab > 0.1 * scale > 0.0

    def test_invariance_proxy(self):
        # evolving the estimate one unit forward matches the estimate for the
        # shifted noise within the estimator resolution
        model = desk_model(c_g=2e-4, g_kind="integral")
        cons = desk_constants(model)
        t_hor = 6.0
        rp = scaled_lift(3, t_hor + 2.0, -(t_hor + 1.0))
        cloud = np.eye(16)[:3]
        attractor_now = att.pullback_estimate(
            model, cons, [(0, rp)], (t_hor - 1.0, t_hor), cloud)
        a_t = attractor_now.evolved[(0, t_hor)]
        resolution = max(att.hausdorff_semidistance(
            model, attractor_now.evolved[(0, t_hor - 1.0)], a_t), 1e-10)
        forward = [solver.solve_mild(model, pt, rp.window(0.0, 1.0)).y[-1]
                   for pt in a_t]
        shifted_est = [solver.solve_mild(model, pt, rp.window(-t_hor, 1.0)).y[-1]
                       for pt in cloud]
        dist = att.hausdorff_semidistance(model, np.asarray(forward),
                                          np.asarray(shifted_est))
        assert dist <= resolution
