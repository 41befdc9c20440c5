"""Acceptance suite: nine desk-scale criteria with pinned tolerances.

Each criterion builds its own deterministic fixture (fixed seeds), checks the
stated inequality or tolerance, and reports one pass/fail line. The suite is
what `rpde-lab accept` runs and what tests/test_acceptance.py asserts.
"""

from __future__ import annotations

import filecmp
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import attractor as att
from . import cli as cli_mod
from . import greedy, gronwall, roughpath, solver, specfun
from .cli import sample_lift, solve_seeds, unit_cloud, unit_state
from .spectral import SpectralModel


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# shared desk-scale configurations
# ---------------------------------------------------------------------------

_GREEDY_CONS = dict(gamma=0.49, eta=0.05, chi=0.019, m_tilde=1.05, c_i=0.5,
                    z_min=2.0, z_max=50.0, delta_bar=0.1, n_tilde_override=2)


def _attractor_model(c_g: float = 0.0, g_kind: str = "linear") -> SpectralModel:
    return SpectralModel(16, lambda_a=8.0, alpha=0.0, sigma_f=0.0, sigma_g=0.0,
                         c_f=0.0, c_g=c_g, g_kind=g_kind)


def _attractor_constants(model: SpectralModel) -> att.BoundConstants:
    return att.BoundConstants.derive(model, m_big=0.078, **_GREEDY_CONS)


# noise of the fixture lifts; sample_lift reads hurst, steps_per_unit and noise_scale
_DESK_NOISE = cli_mod.ExperimentConfig("accept")  # H = 1/2, 32 steps per unit, scale 0.01
_FINE_NOISE = replace(_DESK_NOISE, steps_per_unit=64)
_UNIT_NOISE = replace(_FINE_NOISE, noise_scale=1.0)


def _bounds_model() -> SpectralModel:
    return SpectralModel(16, lambda_a=4.0, alpha=0.0, sigma_f=0.25, sigma_g=0.0,
                         c_f=0.5, c_g=5e-4, g_kind="linear")


# ---------------------------------------------------------------------------
# criterion 1: Chen relation of canonical lifts
# ---------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    n = 64
    dt = 1.0 / n  # dyadic step: linear-path second level is exact in binary
    lin = roughpath.lift_piecewise_linear(np.arange(n + 1) * dt, 0.0, dt, gamma=0.4)
    worst_exact = 0.0
    for i in range(n):
        for j in range(i + 1, n + 1):
            expect = ((j - i) * dt) ** 2 / 2.0
            worst_exact = max(worst_exact, abs(lin.second_level(i, j) - expect))
    worst_defect = 0.0
    noise = replace(_UNIT_NOISE, steps_per_unit=n, hurst=0.45)
    for seed in range(5):
        rp = sample_lift(noise, seed, 1.0, 0.0, 0.4)
        raw, xx = rp.x_raw, rp.xx
        mat = roughpath._second_level_block(raw, xx)  # read only where i < j
        for u in range(1, n):
            left = mat[:u, u]
            right = mat[u, u + 1:]
            cross = (raw[u] - raw[:u])[:, None] * (raw[u + 1:] - raw[u])[None, :]
            defect = np.abs(mat[:u, u + 1:] - left[:, None] - right[None, :] - cross)
            scale = 1.0 + np.abs(mat[:u, u + 1:])
            worst_defect = max(worst_defect, float(np.max(defect / scale)))
    passed = worst_exact == 0.0 and worst_defect <= 1e-12
    return CriterionResult(1, "Chen relation of canonical lifts", passed,
                           f"linear-path max deviation {worst_exact:.3g} (exact), "
                           f"relative Chen defect {worst_defect:.3g} <= 1e-12")


# ---------------------------------------------------------------------------
# criterion 2: greedy control against brute force; count bound and control law
# ---------------------------------------------------------------------------

def _oracle_control(x: np.ndarray, xx: np.ndarray, dt: float, gamma: float,
                    eta: float) -> float:
    """Exhaustive partition enumeration, built from raw pair values only."""
    n = len(xx)
    m = n + 1
    cost = np.zeros((m, m))
    g = gamma - eta
    for i in range(m):
        for j in range(i + 1, m):
            xij = x[j] - x[i]
            xxij = 0.0
            for k in range(i, j):
                xxij += xx[k] + (x[k] - x[i]) * (x[k + 1] - x[k])
            w = ((j - i) * dt) ** (-eta / g) if eta > 0 else 1.0
            cost[i, j] = w * (abs(xij) ** (1.0 / g) + abs(xxij) ** (0.5 / g))
    interior = n - 1
    best = 0.0
    for mask in range(2 ** interior):
        cuts = [0]
        for b in range(interior):
            if mask >> b & 1:
                cuts.append(b + 1)
        cuts.append(n)
        total = sum(cost[a, b] for a, b in zip(cuts, cuts[1:]))
        best = max(best, total)
    return best


def criterion_2() -> CriterionResult:
    gamma, eta = 0.4, 0.1
    dt = 0.1
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(1000):
        x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.4, 11))])
        xx = rng.normal(0.0, 0.05, 11)
        rp = roughpath.GridRoughPath(0.0, dt, x, xx, gamma)
        dp = greedy.control_w(rp, eta, 0.0, 1.1)
        oracle = _oracle_control(x, xx, dt, gamma, eta)
        worst = max(worst, abs(dp - oracle) / max(1.0, oracle))
    dp_ok = worst <= 1e-12

    chi = 0.5
    count_ok = True
    super_ok = True
    noise = replace(_FINE_NOISE, noise_scale=0.3, hurst=0.45)
    for seed in range(100):
        rp = sample_lift(noise, seed, 1.0, 0.0, gamma)
        w_full = greedy.control_w(rp, eta, 0.0, 1.0)
        n_steps = greedy.count_in_window(rp, eta, chi, 0.0, 1.0)
        count_ok &= n_steps <= w_full * chi ** (-1.0 / (gamma - eta)) + 1.0
        rep = roughpath.holder_seminorm(rp)
        sx, sxx = rep.seminorm_x, rep.seminorm_xx
        count_ok &= w_full <= 1.0 * (sx ** (1.0 / (gamma - eta)) + sxx ** (0.5 / (gamma - eta))) + 1e-12
        mat = greedy.control_w_all_pairs(rp, eta)
        for u in range(1, 64):
            lhs = mat[:u + 1, u][:, None] + mat[u, u:][None, :]
            super_ok &= bool(np.all(lhs <= mat[:u + 1, u:] + 1e-12))
    passed = dp_ok and count_ok and super_ok
    return CriterionResult(2, "greedy control: DP exactness and count bounds", passed,
                           f"DP vs enumeration rel dev {worst:.3g} <= 1e-12 over 1000 "
                           f"instances; count bound {'held' if count_ok else 'FAILED'}, "
                           f"superadditivity {'held' if super_ok else 'FAILED'} on 100 samples")


# ---------------------------------------------------------------------------
# criterion 3: special functions
# ---------------------------------------------------------------------------

def criterion_3() -> CriterionResult:
    zs = np.linspace(0.0, 10.0, 401)
    vals = specfun.mittag_leffler_array(1.0, 1.0, zs)
    exp_err = float(np.max(np.abs(vals - np.exp(zs)) / np.exp(zs)))

    betas = np.linspace(0.3, 0.95, 20)
    zgrid = np.linspace(0.5, 8.0, 20)
    worst_fd = 0.0
    for beta in betas:
        for z in zgrid:
            h = 1e-4 * max(1.0, z)
            fd = (specfun.mittag_leffler(beta, 1.0, z + h)
                  - specfun.mittag_leffler(beta, 1.0, z - h)) / (2.0 * h)
            ident = specfun.ml_derivative(beta, z)
            worst_fd = max(worst_fd, abs(fd - ident) / abs(ident))

    t_lo, t_hi = 50.0, 100.0
    slope = (math.log(specfun.mittag_leffler(0.5, 0.5, t_hi))
             - math.log(specfun.mittag_leffler(0.5, 0.5, t_lo))) / (t_hi - t_lo)
    slope_ok = abs(slope - 1.0) <= 0.05
    passed = exp_err <= 1e-10 and worst_fd <= 1e-6 and slope_ok
    return CriterionResult(3, "special functions", passed,
                           f"exp reduction rel err {exp_err:.3g} <= 1e-10; derivative "
                           f"identity vs FD {worst_fd:.3g} <= 1e-6; log-slope {slope:.4f} "
                           f"within 5% of 1")


# ---------------------------------------------------------------------------
# criterion 4: Gronwall calculators
# ---------------------------------------------------------------------------

def criterion_4() -> CriterionResult:
    n = 4000
    times = np.linspace(0.0, 2.0, n + 1)
    const = gronwall.BoundCurve(times, np.full(n + 1, 3.0))
    classic = gronwall.singular_gronwall(const, big_m=1.0, beta=1.0)
    err_classic = float(np.max(np.abs(classic.values - 3.0 * np.exp(times))
                               / (3.0 * np.exp(times))))

    beta = 0.6
    kappa = (specfun.gamma_fn(beta) * 1.0) ** (1.0 / beta)
    ml_curve = gronwall.singular_gronwall(const, big_m=1.0, beta=beta)
    exact = 3.0 * specfun.mittag_leffler_array(beta, 1.0, times * kappa)
    err_ml = float(np.max(np.abs(ml_curve.values - exact) / exact))

    rng = np.random.default_rng(44)
    violations = 0
    for _ in range(1000):
        m = 10
        a = rng.uniform(0.0, 2.0)
        u0 = rng.uniform(0.0, 2.0)
        b = rng.uniform(0.0, 1.0, m)
        c = rng.uniform(0.0, 1.0, m)
        damp = rng.uniform(0.0, 1.0, m + 1)
        u = np.empty(m + 1)
        u[0] = u0
        for k in range(1, m + 1):
            u[k] = damp[k] * (a + np.dot(b[:k], u[:k]) + np.sum(c[:k]))
        bound = gronwall.discrete_gronwall(a, u0, b, c)
        violations += int(np.any(u > bound + 1e-12))
    passed = err_classic <= 1e-6 and err_ml <= 1e-4 and violations == 0
    return CriterionResult(4, "Gronwall bound calculators", passed,
                           f"classical reduction rel err {err_classic:.3g} <= 1e-6; "
                           f"constant-forcing closed form rel err {err_ml:.3g} <= 1e-4; "
                           f"{violations} domination violations in 1000 runs")


# ---------------------------------------------------------------------------
# criterion 5: solver oracle
# ---------------------------------------------------------------------------

def criterion_5() -> CriterionResult:
    lam, sig, n_fine, gamma = 1.0, 0.3, 512, 0.5
    scalar = SpectralModel(1, lambda_a=lam, alpha=0.0, c_g=sig, sigma_g=0.0, mu=[lam])
    levels = (8, 4, 2, 1)
    sq_err = np.zeros(len(levels))
    n_seeds = 32
    for seed in range(n_seeds):
        xs = roughpath.sample_fbm(0.5, n_fine, seed=100 + seed)
        exact = math.exp(-lam + sig * xs[-1])
        for i, k in enumerate(levels):
            rp = roughpath.lift_piecewise_linear(xs[::k], 0.0, k / n_fine, gamma=gamma)
            path = solver.solve_mild(scalar, np.array([1.0]), rp)
            sq_err[i] += (path.y[-1, 0] - exact) ** 2
    rms = np.sqrt(sq_err / n_seeds)
    ns = np.array([n_fine // k for k in levels], dtype=float)
    order = -float(np.polyfit(np.log(ns), np.log(rms), 1)[0])
    order_ok = order >= 1.5 * gamma * 0.8  # stated order with 20% slope tolerance

    model = SpectralModel(8, lambda_a=2.0, alpha=0.0)
    rp = sample_lift(_UNIT_NOISE, 3, 1.0, 0.0, 0.5)
    path = solver.solve_mild(model, np.ones(8), rp)
    exact_final = np.exp(-model.mu * 1.0)
    decay_err = float(np.max(np.abs(path.y[-1] - exact_final)))
    passed = order_ok and decay_err <= 1e-12
    return CriterionResult(5, "solver oracle", passed,
                           f"geometric-case observed order {order:.3f} >= {1.5 * gamma * 0.8}; "
                           f"pure-decay reduction max err {decay_err:.3g} <= 1e-12")


# ---------------------------------------------------------------------------
# criterion 6: bound pipeline calibration and validation
# ---------------------------------------------------------------------------

def criterion_6() -> CriterionResult:
    # the fixture of the bounds command: lifts over [0, 4], trajectories from unit states
    model = _bounds_model()
    cons = att.BoundConstants.derive(model, m_big=1.0, **_GREEDY_CONS)
    train = solve_seeds(_FINE_NOISE, model, cons.gamma, range(100))
    cons = att.calibrate_m_big(model, [(t, r, (0.0, 1.0)) for t, r in train], cons,
                               margin=0.1)
    sol_viol = 0
    apr_viol = 0
    for traj, rp in solve_seeds(_FINE_NOISE, model, cons.gamma, range(1000, 1100)):
        sol_viol += not att.check_solution_bound(model, traj, rp, cons, (0.0, 1.0)).passed
        apr_viol += not att.apriori_bound(model, traj, rp, cons, 3.0).passed
    passed = sol_viol == 0 and apr_viol == 0
    return CriterionResult(6, "bound pipeline calibrate/validate", passed,
                           f"calibrated m_big = {cons.m_big:.6g}; fresh-sample violations: "
                           f"solution bound {sol_viol}, a-priori bound {apr_viol} (of 100)")


# ---------------------------------------------------------------------------
# criterion 7: pullback contraction and absorbing acceptance
# ---------------------------------------------------------------------------

def criterion_7() -> CriterionResult:
    model0 = _attractor_model(0.0)
    cons = _attractor_constants(model0)
    samples = [sample_lift(_DESK_NOISE, seed, 4.0, 0.0, cons.gamma) for seed in range(16)]
    erg = att.ergodic_moments(samples, cons.q_moment)
    gap = att.check_gap_condition(cons, erg)
    if not gap.passed:
        return CriterionResult(7, "absorbing and pullback", False,
                               f"gap condition failed: {gap.lhs} <= {gap.rhs}")

    cloud = unit_cloud(model0, 5)
    t_list = (2.0, 4.0, 8.0, 16.0)
    ens = [(seed, sample_lift(_DESK_NOISE, seed, 17.0, -16.0, cons.gamma)) for seed in range(3)]
    rep = att.pullback_estimate(model0, cons, ens, t_list, cloud)
    initial_diam = att.cloud_diameter(model0, cloud)
    decay_ok = True
    rate_ok = True
    cloud_max = float(np.max(model0.frac_norm_rows(cloud, 0.0)))
    for seed, rp in ens:
        semis = [r.semidistance for r in rep.rows if r.seed == seed][1:]
        decay_ok &= all(b < a for a, b in zip(semis, semis[1:]))
        final = [r for r in rep.rows if r.seed == seed][-1]
        decay_ok &= final.diameter < 0.01 * initial_diam
        for t in t_list:
            pts = rep.evolved[(seed, t)]
            dist0 = float(np.max(model0.frac_norm_rows(pts, 0.0)))
            rate_ok &= dist0 <= math.exp(-model0.lambda_a * t) * cloud_max * (1.0 + 1e-12)

    model_g = _attractor_model(5e-4)
    cons_g = _attractor_constants(model_g)
    cases = [(sample_lift(_DESK_NOISE, seed, 14.0, -13.0, cons_g.gamma),
              unit_state(model_g, seed)) for seed in range(50)]
    n_acc = sum(bool(rep_a.accepted) for rep_a in
                att.absorbing_radii(model_g, cases, cons_g, truncation_k=12, ergodic=erg))
    passed = decay_ok and rate_ok and n_acc >= 48  # >= 95% of 50
    return CriterionResult(7, "absorbing and pullback", passed,
                           f"gap margin {gap.margin:.3g}; contraction strictly decreasing: "
                           f"{decay_ok}, semigroup rate bound: {rate_ok}; absorbing "
                           f"acceptance {n_acc}/50 seeds (need >= 48)")


# ---------------------------------------------------------------------------
# criterion 8: attractor regularity in the lifted space
# ---------------------------------------------------------------------------

def criterion_8() -> CriterionResult:
    model = _attractor_model(2e-4, g_kind="integral")
    cons = _attractor_constants(model)
    beta = 0.5 * min(1.0 - cons.sigma_f, cons.gamma - cons.sigma_g)
    samples = [sample_lift(_DESK_NOISE, seed, 4.0, 0.0, cons.gamma) for seed in range(16)]
    erg = att.ergodic_moments(samples, cons.q_moment)
    gap = att.check_gap_condition(cons, erg, beta=beta)
    if not gap.passed_shifted:
        return CriterionResult(8, "attractor regularity", False,
                               f"shifted gap condition failed: {gap.lhs_shifted} <= {gap.rhs_shifted}")
    cloud = unit_cloud(model, 5)
    worst = 0.0
    for seed in range(8):
        rp = sample_lift(_DESK_NOISE, seed, 17.0, -16.0, cons.gamma)
        rep = att.pullback_estimate(model, cons, [(seed, rp)], (16.0,), cloud)
        pts = rep.evolved[(seed, 16.0)]
        worst = max(worst, float(np.max(model.frac_norm_rows(pts, model.alpha + beta))))
    passed = math.isfinite(worst) and worst <= 1e3
    return CriterionResult(8, "attractor regularity", passed,
                           f"beta = {beta:.3f}; max lifted-space norm over seeds "
                           f"{worst:.3g} (finite, <= 1e3)")


# ---------------------------------------------------------------------------
# criterion 9: determinism of the runner
# ---------------------------------------------------------------------------

def criterion_9() -> CriterionResult:
    tmp = tempfile.mkdtemp(prefix="rpde_accept_")
    try:
        out1 = os.path.join(tmp, "jobs1")
        out8 = os.path.join(tmp, "jobs8")
        replay = os.path.join(tmp, "replay")
        base = ["solve", "--seeds", "1,2,3", "--jobs", "1", "--out", out1]
        if cli_mod.main(base) != 0:
            return CriterionResult(9, "determinism", False, "jobs=1 run failed")
        if cli_mod.main(["solve", "--seeds", "1,2,3", "--jobs", "8", "--out", out8]) != 0:
            return CriterionResult(9, "determinism", False, "jobs=8 run failed")
        if cli_mod.main(["--config", os.path.join(out1, "manifest.txt"),
                         "--out", replay, "--jobs", "8"]) != 0:
            return CriterionResult(9, "determinism", False, "manifest replay failed")
        csvs = sorted(f for f in os.listdir(out1) if f.endswith(".csv"))
        if not csvs:
            return CriterionResult(9, "determinism", False, "no CSV outputs found")
        same = True
        for name in csvs:
            same &= filecmp.cmp(os.path.join(out1, name), os.path.join(out8, name),
                                shallow=False)
            same &= filecmp.cmp(os.path.join(out1, name), os.path.join(replay, name),
                                shallow=False)
        return CriterionResult(9, "determinism", same,
                               f"{len(csvs)} CSVs byte-identical across jobs=1, jobs=8 "
                               f"and manifest replay: {same}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
             criterion_6, criterion_7, criterion_8, criterion_9)


def run_all(verbose: bool = False):
    results = []
    for fn in _CRITERIA:
        result = fn()
        results.append(result)
        if verbose:
            mark = "PASS" if result.passed else "FAIL"
            print(f"[{mark}] criterion {result.index}: {result.name} -- {result.detail}")
    return results
