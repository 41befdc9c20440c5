"""Bound pipeline and pullback-attractor diagnostics.

This module wires the greedy counts, Hoelder seminorms, special-function
certificates and Gronwall calculators into the chain of estimates that
controls the long-time behavior of the mild solution:

  * per-window solution bounds       |y,y'| <= |y_s| P1 + P2,
  * the weighted a-priori estimate   |y_t| e^(lam t) <= CA |y_0| + C2 e^(lam t)
                                     + C1 CG sum_l e^(lam l) P3(l),
  * its discrete chain form driven by the window constants H1, H2,
  * ergodic moment estimates of the noise seminorms,
  * the spectral-gap inequality gating the absorbing set,
  * the truncated series for the absorbing radius R = 1 + P1 r + P2 + margin,
  * an empirical pullback estimator evolving point clouds from the past.

All constants live in one auditable record (BoundConstants). The scale
factor m_big and the exponential factor m_tilde are calibration parameters:
m_tilde is fixed by configuration (> 1), m_big is fitted by bisection so the
per-window solution bound holds with a configured margin on a training
ensemble. Derived constants are recomputed from primitives and cross-checked
whenever a record is loaded from file.

Desk-scale regime: the step formula d = (4 m_tilde)^(-1/(1-max(sigma_f,
2 gamma))) forces ceil(1/d) >= 65 for any admissible gamma, which makes the
combinatorial constant C(N~) astronomically large. Configurations may
therefore pin n_tilde explicitly (provenance "calibrated"); the formula value
is reported alongside for audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .configio import get_finite, get_typed, load_kv_file
from .errors import ConfigError, NumericsError
from .greedy import window_constants
from .gronwall import discrete_gronwall
from .roughpath import GridRoughPath, window_seminorms
from .solver import ControlledPath, _controlled_norms, _evolve_lockstep, solve_many
from .spectral import SpectralModel, smoothing_constant
from .specfun import certify_ml_bound, gamma_fn, mittag_leffler

_LOG_MAX = 709.0


def _exp_guard(logv: float) -> float:
    return math.inf if logv > _LOG_MAX else math.exp(logv)


def _drift_l(c: float, c_f: float, expo: float) -> float:
    """The drift's Gronwall rate L = 2 (c c_f Gamma(e))^(1/e) for the smoothing
    constant c and the exponent e; 0 without drift (c_f = 0)."""
    return 2.0 * (c * c_f * gamma_fn(expo)) ** (1.0 / expo) if c_f > 0 else 0.0


def step_cap(m_tilde: float, sigma_f: float, gamma: float) -> float:
    """Largest window length d the one-block solution bound covers."""
    exponent = 1.0 - max(sigma_f, 2.0 * gamma)
    if exponent <= 0:
        raise ConfigError("need max(sigma_f, 2 gamma) < 1")
    return (4.0 * m_tilde) ** (-1.0 / exponent)


def unit_blocks(m_tilde: float, sigma_f: float, gamma: float) -> int:
    """Block count of a unit interval chopped into steps of length d."""
    return math.ceil(1.0 / step_cap(m_tilde, sigma_f, gamma) - 1e-9)


def window_blocks(length: float, d_step: float) -> int:
    """Block count of a window of the given length chopped into steps d_step."""
    return max(1, math.ceil(length / d_step - 1e-12))


def _until_error(f, items, errors=ValueError):
    """f of each item up to the first whose call raises one of errors, and
    that error or None; raised after the items before it, it keeps its order."""
    out = []
    for item in items:
        try:
            out.append(f(item))
        except errors as exc:
            return out, exc
    return out, None


# ---------------------------------------------------------------------------
# constants record
# ---------------------------------------------------------------------------

_PRIMITIVE = ("gamma", "eta", "chi", "sigma_f", "sigma_g", "c_f", "c_g",
              "lambda_a", "mu1", "m_tilde", "m_big", "c_i", "z_min", "z_max",
              "delta_bar")
_DERIVED = ("d_step", "n_tilde", "n_tilde_formula", "c_minus_sigma_f", "big_l",
            "l_tilde", "lam", "t0", "m_beta", "c1", "c2", "c_tilde_1",
            "c_tilde_2", "c_tilde_a", "c_of_n", "c_const", "q_moment")


@dataclass(frozen=True)
class BoundConstants:
    """Every named constant of the bound pipeline in one record."""

    gamma: float
    eta: float
    chi: float
    sigma_f: float
    sigma_g: float
    c_f: float
    c_g: float
    lambda_a: float
    mu1: float
    m_tilde: float
    m_big: float
    c_i: float
    z_min: float
    z_max: float
    delta_bar: float
    n_tilde_override: int | None = None
    # derived (filled by derive)
    d_step: float = field(default=math.nan)
    n_tilde: int = field(default=0)
    n_tilde_formula: int = field(default=0)
    c_minus_sigma_f: float = field(default=math.nan)
    big_l: float = field(default=math.nan)
    l_tilde: float = field(default=math.nan)
    lam: float = field(default=math.nan)
    t0: float = field(default=math.nan)
    m_beta: float = field(default=math.nan)
    c1: float = field(default=math.nan)
    c2: float = field(default=math.nan)
    c_tilde_1: float = field(default=math.nan)
    c_tilde_2: float = field(default=math.nan)
    c_tilde_a: float = field(default=math.nan)
    c_of_n: float = field(default=math.nan)
    c_const: float = field(default=math.nan)
    q_moment: float = field(default=math.nan)

    @staticmethod
    def derive(model: SpectralModel, gamma: float, eta: float, chi: float,
               m_tilde: float, m_big: float, c_i: float = 1.0,
               z_min: float = 2.0, z_max: float = 50.0, delta_bar: float = 0.1,
               n_tilde_override: int | None = None) -> "BoundConstants":
        if not 1.0 / 3.0 < gamma <= 0.5:
            raise ConfigError(f"gamma must lie in (1/3, 1/2], got {gamma}")
        if not 0.0 <= eta < gamma:
            raise ConfigError(f"eta must lie in [0, gamma), got {eta}")
        if eta < model.sigma_g:
            raise ConfigError("eta must dominate sigma_g for the solution bounds")
        if not 0.0 < chi < 1.0:
            raise ConfigError(f"chi must lie in (0, 1), got {chi}")
        if m_tilde <= 1.0:
            raise ConfigError(f"m_tilde must exceed 1, got {m_tilde}")
        if math.exp(m_tilde) * chi ** (gamma - eta) > 0.5 + 1e-12:
            raise ConfigError(
                f"threshold coupling violated: exp(m_tilde) * chi^(gamma-eta) = "
                f"{math.exp(m_tilde) * chi ** (gamma - eta):.6g} > 1/2")
        if m_big <= 0 or c_i <= 0:
            raise ConfigError("m_big and c_i must be positive")
        base = BoundConstants(
            gamma=gamma, eta=eta, chi=chi,
            sigma_f=model.sigma_f, sigma_g=model.sigma_g,
            c_f=model.c_f, c_g=model.c_g_bound,
            lambda_a=model.lambda_a, mu1=float(model.mu[0]),
            m_tilde=m_tilde, m_big=m_big, c_i=c_i,
            z_min=z_min, z_max=z_max, delta_bar=delta_bar,
            n_tilde_override=n_tilde_override)
        return base._with_derived()

    def _with_derived(self) -> "BoundConstants":
        d_formula = step_cap(self.m_tilde, self.sigma_f, self.gamma)
        n_formula = unit_blocks(self.m_tilde, self.sigma_f, self.gamma)
        if self.n_tilde_override is not None:
            if self.n_tilde_override < 1:
                raise ConfigError("n_tilde override must be a positive integer")
            n_tilde = int(self.n_tilde_override)
            d_step = 1.0 / n_tilde
        else:
            n_tilde = n_formula
            d_step = d_formula

        c_minus = smoothing_constant(self.sigma_f, self.lambda_a, self.mu1)
        beta_g = 1.0 - self.sigma_f
        big_l = _drift_l(c_minus, self.c_f, beta_g)
        lam = self.lambda_a - big_l
        m_beta = certify_ml_bound(beta_g, self.z_min, self.z_max).m_beta
        if big_l > 0:
            t0 = 2.0 * self.z_min / big_l
            l_tilde = 2.0 * mittag_leffler(beta_g, 1.0, self.z_min) / big_l + 1.0
            c2 = c_minus * self.c_f * self.lambda_a ** (self.sigma_f - 1.0) * gamma_fn(beta_g)
            c_tilde_2 = c2 * (l_tilde + big_l * m_beta / (2.0 * lam)) if lam > 0 else math.inf
        else:
            # vacuous Gronwall step: no drift feedback to absorb
            t0 = math.inf
            l_tilde = 1.0
            c2 = 0.0
            c_tilde_2 = 0.0
        c1 = self.c_i  # max(c_i * c_a, c_i) with c_a = 1 in the diagonal model
        boost = max(l_tilde, m_beta / 2.0)
        c_tilde_1 = c1 * math.exp(self.lambda_a) * boost
        c_tilde_a = boost
        log_c_big = math.log(3.0) + 4.0 * (1 + n_tilde) * math.log(2.0) \
            + (1 + n_tilde) * math.log(self.m_big)
        c_of_n = max(1.0 + n_tilde, 2.0 * (1 + n_tilde), _exp_guard(log_c_big))
        c_const = c_of_n * max(self.m_tilde, c_tilde_1 * self.c_g)
        q_moment = 4.0 * (1 + n_tilde) / (self.gamma - self.eta)
        return replace(self, d_step=d_step, n_tilde=n_tilde, n_tilde_formula=n_formula,
                       c_minus_sigma_f=c_minus, big_l=big_l, l_tilde=l_tilde,
                       lam=lam, t0=t0, m_beta=m_beta, c1=c1, c2=c2,
                       c_tilde_1=c_tilde_1, c_tilde_2=c_tilde_2, c_tilde_a=c_tilde_a,
                       c_of_n=c_of_n, c_const=c_const, q_moment=q_moment)

    def with_m_big(self, m_big: float) -> "BoundConstants":
        return replace(self, m_big=m_big)._with_derived()

    def require_positive_gap_rate(self) -> None:
        if not self.lam > 0:
            raise ConfigError(
                f"absorbing-set runs need lambda_a - L > 0, got lam = {self.lam}")

    def provenance(self, name: str) -> str:
        if name in ("m_big",):
            return "calibrated"
        if name == "n_tilde" and self.n_tilde_override is not None:
            return "calibrated"
        if name in _PRIMITIVE:
            return "primitive"
        return "derived"

    def as_rows(self):
        rows = []
        for name in _PRIMITIVE + _DERIVED:
            rows.append((name, getattr(self, name), self.provenance(name)))
        return rows


def constants_from_config(path: str, model: SpectralModel) -> BoundConstants:
    """Load finite primitives, rederive and cross-check any derived values on file."""
    cfg = load_kv_file(path)
    override = get_typed(cfg, "n_tilde", int, 0) or None
    cons = BoundConstants.derive(
        model,
        gamma=get_finite(cfg, "gamma"),
        eta=get_finite(cfg, "eta"),
        chi=get_finite(cfg, "chi"),
        m_tilde=get_finite(cfg, "m_tilde"),
        m_big=get_finite(cfg, "m_big"),
        c_i=get_finite(cfg, "c_i", 1.0),
        z_min=get_finite(cfg, "z_min", 2.0),
        z_max=get_finite(cfg, "z_max", 50.0),
        delta_bar=get_finite(cfg, "delta_bar", 0.1),
        n_tilde_override=override)
    for key in ("sigma_f", "sigma_g", "c_f", "c_g", "lambda_a"):
        if key in cfg:
            want = get_typed(cfg, key, float)
            have = getattr(cons, key)
            if not math.isclose(want, have, rel_tol=1e-9, abs_tol=1e-12):
                raise ConfigError(f"constants file key {key} = {want} disagrees with model value {have}")
    for key in _DERIVED:
        if key in cfg:
            want = get_typed(cfg, key, float)
            have = float(getattr(cons, key))
            if math.isinf(want) and math.isinf(have):
                continue
            if not math.isclose(want, have, rel_tol=1e-9, abs_tol=1e-12):
                raise ConfigError(
                    f"derived constant {key} on file ({want}) does not match its "
                    f"recomputed value ({have})")
    return cons


# ---------------------------------------------------------------------------
# per-window polynomial constants
# ---------------------------------------------------------------------------

def poly_p(x: float, y: float) -> float:
    """The noise polynomial 1 + x + y + x (x^2 + y)."""
    return 1.0 + x + y + x * (x * x + y)


def p_values(n: int, sx: float, sxx: float, n_tilde: int, m_big: float,
             m_tilde: float) -> tuple:
    """(P-tilde, P1, P2) of a window with greedy count n, seminorms sx, sxx
    and n_tilde blocks.

    A factor whose logarithm passes 709 evaluates to inf, and so does every
    constant it enters. The geometric factor of P2 is evaluated as the limit
    value n_tilde when p_tilde is within 1e-9 of one.
    """
    log_pt = math.log(m_big) + math.log(n) + math.log1p(sx) + n * m_tilde
    p_tilde = _exp_guard(log_pt)
    p1 = n_tilde * _exp_guard((n_tilde + 1) * log_pt)
    if math.isinf(p_tilde):
        geom = math.inf
    elif abs(p_tilde - 1.0) < 1e-9:
        geom = float(n_tilde)
    else:
        p_pow = _exp_guard(n_tilde * log_pt)
        geom = math.inf if math.isinf(p_pow) else (p_pow - 1.0) / (p_tilde - 1.0)
    exp_arg = n * m_tilde + m_tilde
    ratio = math.inf if exp_arg > _LOG_MAX else \
        (math.exp(exp_arg) - 1.0) / (math.exp(m_tilde) - 1.0)
    p2 = m_big * n_tilde * n * (1.0 + sx) * ratio * poly_p(sx, sxx) * geom
    return p_tilde, p1, p2


def _window_constants(constants: BoundConstants, windows) -> list:
    """(N, [X], [XX]) of each (rough path, (s, t)) window, in window order.

    A window has a positive length of at most one. The windows of one grid
    and cell count form one batch of greedy.window_constants, each distinct
    (path, start) once. Errors come in window order, as one window at a time
    raises them.
    """
    def place(window):  # (batch key, path, start)
        rp, (s, t) = window
        if t - s <= 0:
            raise ValueError("interval must have positive length")
        if t - s > 1.0 + 1e-9:
            raise ValueError("solution-bound windows are limited to length one")
        i, j = rp.index(s), rp.index(t)
        return (rp.t0, rp.dt, rp.n_cells, rp.gamma, j - i), rp, i

    where, error = _until_error(place, windows)
    batches = {}  # batch key -> the batch's paths, numbered
    for key, rp, _ in where:
        paths = batches.setdefault(key, {})
        paths.setdefault(rp, len(paths))
    values = {}
    try:
        for key, paths in batches.items():
            pairs = list(dict.fromkeys((paths[rp], i) for k, rp, i in where if k == key))
            counts, sx, sxx = window_constants(list(paths), constants.eta, constants.chi,
                                               pairs, key[-1])
            values[key] = dict(zip(pairs, zip(counts, sx.tolist(), sxx.tolist())))
    except NumericsError:
        # batches do not know each other's order: rescan window by window
        for key, rp, i in where:
            window_constants([rp], constants.eta, constants.chi, [(0, i)], key[-1])
        raise
    if error is not None:
        raise error
    return [values[key][batches[key][rp], i] for key, rp, i in where]


def _window_p(constants: BoundConstants, windows) -> list:
    """(N, [X], [XX], P1, P2) of each window of the list, at constants.m_big."""
    return [(n, sx, sxx, *p_values(n, sx, sxx, window_blocks(t - s, constants.d_step),
                                   constants.m_big, constants.m_tilde)[1:])
            for (n, sx, sxx), (_, (s, t)) in zip(_window_constants(constants, windows), windows)]


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of an inequality check: both sides and the verdict."""

    passed: bool
    lhs: float
    rhs: float


def _traj_index(traj: ControlledPath, t: float) -> int:
    k = int(round((t - traj.times[0]) / traj.dt))
    if k < 0 or k >= traj.times.size or abs(traj.times[k] - t) > 1e-9:
        raise ValueError(f"time {t} is not on the solved grid")
    return k


def _solution_cases(model: SpectralModel, cases, constants: BoundConstants,
                    norms=None) -> list:
    """(lhs = |y,y'|_D, |y_s|_alpha, N, [X], [XX], n_tilde) of each
    (trajectory, rough path, interval) case. Errors come in case order: a
    case's controlled-norm error after the window errors of those before it.
    norms is solver._controlled_norms of the cases where the caller took it.
    """
    cases = list(cases)
    norms, error = norms or _controlled_norms(model, cases)
    solved = cases[:len(norms)]
    consts = _window_constants(constants, [(rp, interval) for _, rp, interval in solved])
    ynorms = [model.frac_norm(traj.y[_traj_index(traj, interval[0])], model.alpha)
              for traj, _, interval in solved]
    if error is not None:
        raise error
    return [(v.total, ynorm, *c, window_blocks(interval[1] - interval[0], constants.d_step))
            for v, ynorm, c, (_, _, interval) in zip(norms, ynorms, consts, solved)]


def calibrate_m_big(model: SpectralModel, cases, constants: BoundConstants,
                    margin: float = 0.1, bracket=(1e-8, 1e8)) -> BoundConstants:
    """Fit the scale constant by bisection on a training ensemble.

    cases is a sequence of (trajectory, rough path, interval) triples. The
    returned record carries the smallest m_big (up to bisection resolution)
    for which every training window satisfies rhs >= (1 + margin) * lhs,
    with derived constants refreshed.
    """
    data = _solution_cases(model, cases, constants)

    # d_step and m_tilde do not depend on m_big; an overflowing window has
    # rhs = inf (or nan when ynorm = 0) and never counts as a miss
    def ok(m_big: float) -> bool:
        for lhs, ynorm, n, sx, sxx, n_tilde in data:
            _, p1, p2 = p_values(n, sx, sxx, n_tilde, m_big, constants.m_tilde)
            if ynorm * p1 + p2 < (1.0 + margin) * lhs:
                return False
        return True

    lo, hi = bracket
    if not ok(hi):
        raise ConfigError("calibration failed: even the largest m_big misses a training window")
    if ok(lo):
        return constants.with_m_big(lo)
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-6:
            break
    return constants.with_m_big(hi)


# ---------------------------------------------------------------------------
# a-priori estimate and its discrete chain form
# ---------------------------------------------------------------------------

def _apriori_terms(model: SpectralModel, traj: ControlledPath, rp: GridRoughPath,
                   constants: BoundConstants, t: float) -> tuple:
    """lhs, |y_0|_alpha and the rho of each unit window [l, l + 1] up to n + 1
    of the weighted a-priori estimate at time t in [n, n + 1]."""
    constants.require_positive_gap_rate()
    if abs(traj.times[0]) > 1e-9:
        raise ValueError("a-priori estimate is anchored at start time 0")
    n = int(math.floor(t - 1e-12))
    if t <= 0:
        raise ValueError("need t > 0")
    if traj.times[-1] + 1e-9 < n + 1:
        raise ValueError(f"trajectory must be solved on [0, {n + 1}] for t = {t}")
    k = _traj_index(traj, t)
    lhs = model.frac_norm(traj.y[k], model.alpha) * math.exp(constants.lam * t)
    y0 = model.frac_norm(traj.y[0], model.alpha)
    starts = [rp.index(float(l)) for l in range(n + 2)]
    sx, sxx = window_seminorms([rp], [(0, a) for a in starts[:-1]], starts[1] - starts[0])
    return lhs, y0, [a + b for a, b in zip(sx.tolist(), sxx.tolist())]


def validate_bounds(model: SpectralModel, solution_cases, apriori_cases,
                    constants: BoundConstants, t: float | None = None) -> tuple:
    """Verify the solution bound on each (trajectory, rough path, interval) of
    solution_cases and the weighted a-priori estimate at time t on each
    (trajectory, rough path) of apriori_cases: two lists of BoundCheck.

    The solution bound is |y,y'|_{D,[s,t]} <= |y_s|_alpha P1 + P2; the
    a-priori estimate weighs P3 = rho^2 (1 + |y,y'|_D) of each unit window
    [l, l + 1] up to t. One controlled-norm pass takes the norms of every
    window of both lists, each distinct one once, so a [0, 1] window that
    both check is measured once. Errors come in the order of checking each
    solution case and then each a-priori case.
    """
    solution_cases, apriori_cases = list(solution_cases), list(apriori_cases)
    terms, error = _until_error(lambda case: _apriori_terms(model, *case, constants, t),
                                apriori_cases)
    windows = [(traj, rp, (float(l), float(l + 1)))
               for (traj, rp), (_, _, rhos) in zip(apriori_cases, terms) for l in range(len(rhos))]
    norms, norm_error = _controlled_norms(model, solution_cases + windows)
    solved = len(solution_cases)
    # an error among the solution windows is the solution checks' own
    sols = []
    for lhs, ynorm, n, sx, sxx, n_tilde in _solution_cases(
            model, solution_cases, constants,
            (norms[:solved], norm_error if len(norms) < solved else None)):
        _, p1, p2 = p_values(n, sx, sxx, n_tilde, constants.m_big, constants.m_tilde)
        rhs = ynorm * p1 + p2
        sols.append(BoundCheck(lhs <= rhs, lhs, rhs))
    if norm_error is not None:
        raise norm_error
    if error is not None:
        raise error
    totals = iter(norm.total for norm in norms[solved:])
    lam = constants.lam
    aprs = []
    for lhs, y0, rhos in terms:
        acc = 0.0
        for l, rho in enumerate(rhos):
            acc += math.exp(lam * l) * (rho ** 2 * (1.0 + next(totals)))
        rhs = constants.c_tilde_a * y0 + constants.c_tilde_2 * math.exp(lam * t) \
            + constants.c_tilde_1 * constants.c_g * acc
        aprs.append(BoundCheck(lhs <= rhs, lhs, rhs))
    return sols, aprs


def h_values(constants: BoundConstants, rho: float, p1: float, p2: float) -> tuple:
    """H1 = C~1 CG rho^2 P1 and H2 = max(C~A e^lam, C~1 CG)(1 + rho^2 (1 + P2))."""
    h1 = constants.c_tilde_1 * constants.c_g * rho * rho * p1
    h2 = max(constants.c_tilde_a * math.exp(constants.lam),
             constants.c_tilde_1 * constants.c_g) * (1.0 + rho * rho * (1.0 + p2))
    return h1, h2


def discrete_chain_bound(model: SpectralModel, traj: ControlledPath, rp: GridRoughPath,
                         constants: BoundConstants, n: int) -> BoundCheck:
    """Check |y_n| against the H-driven chain bound built by discrete Gronwall.

    Kept for the chain form of the a-priori bound, which no acceptance
    criterion covers.
    """
    constants.require_positive_gap_rate()
    if n < 1:
        raise ValueError("need n >= 1")
    if abs(traj.times[0]) > 1e-9:
        raise ValueError("chain estimate is anchored at start time 0")
    h1s = np.empty(n)
    h2s = np.empty(n)
    windows = [(rp, (float(j), float(j + 1))) for j in range(n)]
    for j, (_, sx, sxx, p1, p2) in enumerate(_window_p(constants, windows)):
        h1s[j], h2s[j] = h_values(constants, sx + sxx, p1, p2)
    lam = constants.lam
    y0 = model.frac_norm(traj.y[0], model.alpha)
    cs = np.exp(lam * np.arange(n)) * h2s
    weighted = discrete_gronwall(constants.c_tilde_a * y0, y0, h1s, cs)
    bound = math.exp(-lam * n) * float(weighted[n])
    lhs = model.frac_norm(traj.y[_traj_index(traj, float(n))], model.alpha)
    return BoundCheck(lhs <= bound, lhs, bound)


# ---------------------------------------------------------------------------
# ergodic moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErgodicReport:
    """Moment estimates of the window seminorms and their agreement data."""

    k_q: float
    kk_q: float
    q: float
    n_samples: int
    std_err: float
    k_q_time: float
    k_q_ens: float
    kk_q_time: float
    kk_q_ens: float
    std_err_time: float
    std_err_ens: float

    @property
    def k_bold(self) -> float:
        return self.k_q + self.kk_q


def _unit_windows(rp: GridRoughPath) -> tuple:
    """Cells per unit and number of the unit windows [t0 + j, t0 + j + 1]."""
    per_unit = int(round(1.0 / rp.dt))
    if abs(per_unit * rp.dt - 1.0) > 1e-9 or per_unit < 1:
        raise ValueError("ergodic windows need a grid commensurate with unit length")
    n_units = rp.n_cells // per_unit
    if n_units < 1:
        raise ValueError("realization shorter than one unit window")
    return per_unit, n_units


def ergodic_moments(samples, q: float) -> ErgodicReport:
    """Estimate the q-th moments of the unit-window seminorms.

    samples is a sequence of rough paths, each covering at least one unit
    window. The pooled estimate over all windows is reported together with a
    per-sample time average and an across-sample ensemble average (first
    windows only), whose agreement is the Birkhoff consistency diagnostic.

    Raises a range error when the observed seminorms are too large for the
    requested q: the safety rule keeps obs_max^(4q) representable, which
    covers the squared powers entering the standard-error estimate with a
    factor-two margin.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    per_sample_x: list[np.ndarray] = []
    per_sample_xx: list[np.ndarray] = []
    obs_max = 0.0
    for rp in samples:
        per_unit, n_units = _unit_windows(rp)
        sx, sxx = window_seminorms([rp], [(0, j * per_unit) for j in range(n_units)], per_unit)
        obs_max = max(obs_max, float(sx.max()), float(sxx.max()))
        per_sample_x.append(sx)
        per_sample_xx.append(sxx)
    if not per_sample_x:
        raise ValueError("need at least one sample")
    if obs_max > 1.0:
        q_safe = math.floor(_LOG_MAX / (4.0 * math.log(obs_max)))
        if q > q_safe:
            raise NumericsError(
                f"moment order q = {q} is overflow-unsafe for observed seminorms "
                f"up to {obs_max:.3g}; largest safe q is {q_safe}",
                max_safe_q=q_safe, obs_max=obs_max)
    pow_x = [v ** q for v in per_sample_x]
    pow_xx = [v ** q for v in per_sample_xx]
    all_x = np.concatenate(pow_x)
    all_xx = np.concatenate(pow_xx)
    tot = all_x + all_xx
    n = tot.size
    k_q = float(np.mean(all_x))
    kk_q = float(np.mean(all_xx))
    std_err = float(np.std(tot, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    time_x = float(np.mean(pow_x[0]))
    time_xx = float(np.mean(pow_xx[0]))
    t_tot = pow_x[0] + pow_xx[0]
    se_time = float(np.std(t_tot, ddof=1) / math.sqrt(t_tot.size)) if t_tot.size > 1 else math.inf
    firsts_x = np.asarray([v[0] for v in pow_x])
    firsts_xx = np.asarray([v[0] for v in pow_xx])
    f_tot = firsts_x + firsts_xx
    se_ens = float(np.std(f_tot, ddof=1) / math.sqrt(f_tot.size)) if f_tot.size > 1 else math.inf
    return ErgodicReport(k_q=k_q, kk_q=kk_q, q=q, n_samples=n, std_err=std_err,
                         k_q_time=time_x, k_q_ens=float(np.mean(firsts_x)),
                         kk_q_time=time_xx, kk_q_ens=float(np.mean(firsts_xx)),
                         std_err_time=se_time, std_err_ens=se_ens)


@dataclass(frozen=True)
class IntegrabilityReport:
    """Empirical moment norms of the window constants over an ensemble.

    lp_p1 / lp_p2 map each probed order p to the ensemble estimate of
    E[P_i^p]^(1/p); stability maps p to the ratio of the P1 + P2 estimate on
    the even-numbered windows to that on the odd-numbered ones. Heavy tails
    show up as diverging high-order norms and unstable ratios.
    """

    orders: tuple
    lp_core: dict
    lp_p1: dict
    lp_p2: dict
    stability: dict  # even-window / odd-window split-half ratio per order
    n_windows: int


def integrability_check(samples, constants: BoundConstants,
                        orders=(1.0, 2.0, 4.0)) -> IntegrabilityReport:
    """Empirical higher-moment check of the per-window solution constants.

    Evaluates the greedy core N (1 + [X]) e^(N m_tilde) together with P1 and
    P2 on every unit window of the ensemble and reports L^p norms for the
    probed orders plus an interleaved split-half stability ratio; a
    non-integrable tail concentrates the moment mass on single windows and
    drives the ratio away from one as the ensemble grows.
    """
    core_vals, p1_vals, p2_vals = [], [], []
    windows = [(rp, (rp.t0 + j, rp.t0 + j + 1.0)) for rp in samples
               for j in range(_unit_windows(rp)[1])]
    for n, sx, _, p1, p2 in _window_p(constants, windows):
        core_vals.append(n * (1.0 + sx) * _exp_guard(n * constants.m_tilde))
        p1_vals.append(p1)
        p2_vals.append(p2)
    if len(p1_vals) < 2:
        raise ValueError("need at least two unit windows")
    core = np.asarray(core_vals)
    p1 = np.asarray(p1_vals)
    p2 = np.asarray(p2_vals)

    def lp(vals, p):
        return float(np.mean(vals ** p) ** (1.0 / p))

    lp_core = {p: lp(core, p) for p in orders}
    lp_p1 = {p: lp(p1, p) for p in orders}
    lp_p2 = {p: lp(p2, p) for p in orders}
    total = p1 + p2
    stability = {p: lp(total[0::2], p) / max(lp(total[1::2], p), 1e-300)
                 for p in orders}
    return IntegrabilityReport(tuple(orders), lp_core, lp_p1, lp_p2,
                               stability, p1.size)


# ---------------------------------------------------------------------------
# spectral gap condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    """Both sides of the gap inequality, plus the space-shifted variant."""

    passed: bool
    lhs: float
    rhs: float
    beta: float | None = None
    passed_shifted: bool | None = None
    lhs_shifted: float | None = None
    rhs_shifted: float | None = None

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


def check_gap_condition(constants: BoundConstants, ergodic: ErgodicReport,
                        beta: float | None = None) -> GapReport:
    """Evaluate lambda_a - L > c (K_q + 1), optionally shifted by beta.

    The shifted variant gates the extra space regularity of the attractor and
    requires 0 < beta < min(1 - sigma_f, gamma - sigma_g).
    """
    k_bold = ergodic.k_q + ergodic.kk_q
    lhs = constants.lambda_a - constants.big_l
    rhs = constants.c_const * (k_bold + 1.0)
    report = GapReport(lhs > rhs, lhs, rhs)
    if beta is None:
        return report
    limit = min(1.0 - constants.sigma_f, constants.gamma - constants.sigma_g)
    if not 0.0 < beta < limit:
        raise ValueError(
            f"invalid regularity shift: need 0 < beta < {limit}, got {beta}")
    c_shift = smoothing_constant(constants.sigma_f + beta, constants.lambda_a, constants.mu1)
    lhs_b = constants.lambda_a - _drift_l(c_shift, constants.c_f, 1.0 - constants.sigma_f - beta)
    m_beta_b = certify_ml_bound(1.0 - constants.sigma_f - beta,
                                constants.z_min, constants.z_max).m_beta
    c_minus_b = smoothing_constant(beta, constants.lambda_a, constants.mu1)
    c_tilde_1b = max(constants.c_i, c_minus_b * constants.c_i) \
        * math.exp(constants.lambda_a) * min(constants.l_tilde, m_beta_b / 2.0)
    c_b = constants.c_of_n * max(constants.m_tilde, c_tilde_1b * constants.c_g)
    rhs_b = c_b * (k_bold + 1.0)
    return replace(report, beta=beta, passed_shifted=lhs_b > rhs_b,
                   lhs_shifted=lhs_b, rhs_shifted=rhs_b)


# ---------------------------------------------------------------------------
# absorbing radius
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsorbReport:
    """Truncated-series absorbing radius on one noise realization."""

    radius: float
    r_value: float
    series_terms: np.ndarray
    truncation_k: int
    p1_val: float
    p2_val: float
    tail_bound: float
    eps_argmax: float
    accepted: bool | None
    final_norm: float | None


def _grid_eps_values(rp: GridRoughPath, eps_points: int) -> np.ndarray:
    per_unit = int(round(1.0 / rp.dt))
    idx = np.round(np.linspace(0, per_unit, eps_points)).astype(int)
    # drop repeats of the nondecreasing indices (np.unique would import numpy.ma)
    return idx[np.diff(idx, prepend=-1) != 0] * rp.dt


def _absorb_windows(rp: GridRoughPath, constants: BoundConstants, truncation_k: int,
                    eps_points: int) -> list:
    """The windows whose constants absorbing_radius evaluates on rp, in
    evaluation order, after its checks of the arguments: per eps, the unit
    windows [-k - eps, 1 - k - eps] for k = 0, ..., truncation_k; k = 0
    gives P1 and P2, k >= 1 the series."""
    constants.require_positive_gap_rate()
    if truncation_k < 2:
        raise ValueError("need at least two series terms")
    if rp.t0 > -truncation_k - 1 + 1e-9 or rp.end_time < 1.0 - 1e-9:
        raise ValueError(
            f"realization must cover [-{truncation_k + 1}, 1], got [{rp.t0}, {rp.end_time}]")
    return [(rp, (float(-k - eps), float(1.0 - k - eps)))
            for eps in _grid_eps_values(rp, eps_points) for k in range(truncation_k + 1)]


def absorbing_radius(rp: GridRoughPath, constants: BoundConstants,
                     truncation_k: int = 40, eps_points: int = 11,
                     ergodic: ErgodicReport | None = None) -> AbsorbReport:
    """Truncated series for the random absorbing radius.

    The realization must cover [-truncation_k - 1, 1]. The supremum over the
    unit-window shift is taken over a grid-aligned epsilon grid, outside the
    truncated series. The window constants on [-1, 1] are realized as the
    epsilon-grid supremum of the unit-window values, matching how they enter
    the chained estimate. absorbing_radii also evolves an initial state over
    [-truncation_k, 0] and compares it against the radius.
    """
    windows = _absorb_windows(rp, constants, truncation_k, eps_points)
    return _absorb_report(rp, constants, truncation_k, eps_points, ergodic,
                          _window_p(constants, windows))


def _absorb_report(rp: GridRoughPath, constants: BoundConstants, truncation_k: int,
                   eps_points: int, ergodic: ErgodicReport | None, consts) -> AbsorbReport:
    """absorbing_radius from the _window_p values of its _absorb_windows."""
    lam = constants.lam
    consts = iter(consts)
    best_sum = -math.inf
    best_terms = None
    best_eps = 0.0
    p1_val = 0.0
    p2_val = 0.0
    for eps in _grid_eps_values(rp, eps_points):
        _, _, _, p1, p2 = next(consts)
        p1_val = max(p1_val, p1)
        p2_val = max(p2_val, p2)
        terms = np.empty(truncation_k)
        prod = 1.0
        for k in range(1, truncation_k + 1):
            _, sx, sxx, p1, p2 = next(consts)
            h1, h2 = h_values(constants, sx + sxx, p1, p2)
            terms[k - 1] = math.exp(-lam * k) * h2 * prod
            prod *= 1.0 + h1
        total = float(np.sum(terms))
        if total > best_sum:
            best_sum = total
            best_terms = terms
            best_eps = float(eps)
    half = truncation_k // 2
    logs = np.log(np.maximum(best_terms[half:], 1e-300))
    slope = float(np.polyfit(np.arange(half, truncation_k), logs, 1)[0])
    ratios = best_terms[half + 1:] / np.maximum(best_terms[half:-1], 1e-300)
    decay = float(np.max(ratios))  # conservative late-tail contraction factor
    if slope >= 0 or decay >= 1.0:
        raise NumericsError(
            "absorbing-radius series terms are not decaying; the gap condition "
            "fails empirically on this realization", slope=slope)
    tail_r = float(best_terms[-1]) * decay / (1.0 - decay)
    if ergodic is not None:
        gap = check_gap_condition(constants, ergodic)
        if gap.passed:
            # margin split: delta = (lam - c K_q - c) / 2, leaving rate = delta
            rate = 0.5 * (constants.lam - constants.c_const * (ergodic.k_bold + 1.0))
            if rate > 0:
                tail_r = max(tail_r, float(best_terms[-1]) * math.exp(-rate)
                             / (1.0 - math.exp(-rate)))
    tail = p1_val * tail_r  # propagated to the radius scale
    radius = 1.0 + p1_val * best_sum + p2_val + constants.delta_bar
    return AbsorbReport(radius=radius, r_value=best_sum, series_terms=best_terms,
                        truncation_k=truncation_k, p1_val=p1_val, p2_val=p2_val,
                        tail_bound=tail, eps_argmax=best_eps,
                        accepted=None, final_norm=None)


def absorbing_radii(model: SpectralModel, cases, constants: BoundConstants,
                    truncation_k: int = 40, eps_points: int = 11,
                    ergodic: ErgodicReport | None = None) -> list:
    """absorbing_radius of each (realization, initial state) case, state evolved.

    The window constants of every case come from one batch, and the
    evolutions over [-truncation_k, 0] are solved as one block
    (solver.solve_many), so the realizations must share one grid. Errors
    come in the order of case-by-case calls: a case's radius error before
    its solve error, and both before anything of a later case.
    """
    cases = list(cases)
    try:
        windows = [_absorb_windows(rp, constants, truncation_k, eps_points) for rp, _ in cases]
        consts = _window_p(constants, [w for case in windows for w in case])
    except (NumericsError, ValueError):
        # the batch does not know the order of cases: rerun case by case
        reports, error = _until_error(
            lambda case: absorbing_radius(case[0], constants, truncation_k, eps_points, ergodic),
            cases, (NumericsError, ValueError))
    else:
        consts = iter(consts)  # each case takes the values of its windows in turn
        reports, error = _until_error(
            lambda item: _absorb_report(item[0][0], constants, truncation_k, eps_points, ergodic,
                                        [next(consts) for _ in item[1]]),
            zip(cases, windows), (NumericsError, ValueError))
    solved = cases[:len(reports)]
    trajs = solve_many(model, [y0 for _, y0 in solved],
                       [rp.window(float(-truncation_k), 0.0) for rp, _ in solved])
    if error is not None:
        raise error
    out = []
    for rep, traj in zip(reports, trajs):
        final_norm = model.frac_norm(traj.y[-1], model.alpha)
        out.append(replace(rep, accepted=final_norm <= rep.radius, final_norm=final_norm))
    return out


# ---------------------------------------------------------------------------
# pullback estimation
# ---------------------------------------------------------------------------

def hausdorff_semidistance(model: SpectralModel, cloud_a: np.ndarray,
                           cloud_b: np.ndarray, alpha: float | None = None) -> float:
    """sup over a of the distance from a to cloud_b in the alpha norm."""
    alpha = model.alpha if alpha is None else alpha
    best = 0.0
    for a in cloud_a:
        dists = model.frac_norm_rows(cloud_b - a[None, :], alpha)
        best = max(best, float(np.min(dists)))
    return best


def cloud_diameter(model: SpectralModel, cloud: np.ndarray, alpha: float | None = None) -> float:
    alpha = model.alpha if alpha is None else alpha
    best = 0.0
    for a in cloud:
        best = max(best, float(np.max(model.frac_norm_rows(cloud - a[None, :], alpha))))
    return best


@dataclass(frozen=True)
class PullbackRow:
    seed: int
    t: float
    diameter: float
    semidistance: float  # to the previous evolved cloud; nan for the first t
    blew_up: int


@dataclass(frozen=True)
class PullbackReport:
    rows: tuple
    evolved: dict
    converged: dict


def pullback_estimate(model: SpectralModel, constants: BoundConstants,
                      ensemble, t_list, cloud) -> PullbackReport:
    """Evolve a point cloud from pulled-back starting times and report decay.

    ensemble is a sequence of (seed, rough path) pairs, each path covering
    [-max(t_list), 0]. For every t the cloud is driven through the noise
    window [-t, 0]; consecutive evolved clouds are compared by Hausdorff
    semidistance and the cloud diameter is tracked. Blow-ups are recorded per
    trajectory and the run continues.

    All (t, point) trajectories of one seed move in lockstep on its path
    (solver._evolve_lockstep): points that reach the same state in floating
    point merge and share their remaining steps, and rows whose point values
    already agree share their kernel grid, while every evolved state is
    bitwise the one a separate solve_mild reaches. A contracting cloud still
    costs several trajectories, since rows merge only once every mode agrees
    to the last bit: an 8-point cloud from t = 2, 4, 8 and 16 at 32 steps per
    unit steps about 4430 rows instead of 7680 and evaluates about 3400
    kernel grids, against 512 steps for one trajectory from t = 16.
    """
    t_list = sorted(float(t) for t in t_list)
    if not t_list or t_list[0] <= 0:
        raise ValueError("t_list must hold positive times")
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim != 2 or cloud.shape[1] != model.n_modes:
        raise ValueError("cloud must be (n_points, n_modes)")
    n_points = cloud.shape[0]
    rows = []
    evolved_map = {}
    converged = {}
    for seed, rp in ensemble:
        starts = [rp.index(-t) for t in t_list]
        final = _evolve_lockstep(model, rp, rp.index(0.0),
                                 [(start, point) for start in starts for point in cloud])
        prev = None
        semis = []
        for k, t in enumerate(t_list):
            pts = [y for y in final[k * n_points:(k + 1) * n_points] if y is not None]
            blew = n_points - len(pts)
            if not pts:
                raise NumericsError(f"every trajectory blew up for seed {seed} at t = {t}")
            pts = np.asarray(pts)
            diam = cloud_diameter(model, pts)
            semi = math.nan if prev is None else hausdorff_semidistance(model, prev, pts)
            if prev is not None:
                semis.append(semi)
            rows.append(PullbackRow(seed, t, diam, semi, blew))
            evolved_map[(seed, t)] = pts
            prev = pts
        decreasing = all(b < a for a, b in zip(semis, semis[1:])) if len(semis) > 1 else True
        converged[seed] = decreasing and (not semis or semis[-1] < 1e-6 * (1 + semis[0]))
    return PullbackReport(tuple(rows), evolved_map, converged)
