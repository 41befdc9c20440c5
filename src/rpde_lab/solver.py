"""Rough-convolution integrator and the exponential rough Euler scheme.

The mild solution of

    dy = (A y + F(y)) dt + G(y) dX

is advanced cell by cell with the one-step expansion

    y_{k+1} = S_dt ( y_k + F(y_k) dt + G(y_k) X[cell] + DG(y_k)[G(y_k)] XX[cell] ),

whose limit under grid refinement is the semigroup-weighted compensated
Riemann sum realized by rough_convolution. The Gubinelli derivative of the
solution is G(y) by construction: each step stores the G(y_k) it uses as the
row y'_k, so every state's G is computed once. The step loop runs on plain
arrays and evaluates one kernel grid per step, shared by G(y_k) and
DG(y_k)[G(y_k)] (SpectralModel.g_and_dg).

One step loop, solve_many, serves every full trajectory: it steps a
(rows, modes) block of trajectories that share a grid, such as a command's
seeds, and solve_mild is its one-row call. The linear model's diffusion and
the drift are elementwise, so the block steps as one array, bitwise equal to
each row stepped alone. The integral diffusion goes row by row inside the
block step, since a stacked kernel gemm would change the summation order and
with it the last bits, and it evaluates its kernel grid once per distinct
point-value vector u = y @ basis (SpectralModel.diffusion_key): rows with
equal u get bitwise equal (G, DG[G]) pairs, so they share one evaluation.
y and y' of all rows live in one (rows, steps + 1, modes) block each, and
every ControlledPath holds a view of its row.

The scheme consumes per-cell increments of the raw sampled noise, so solving
over [0, s+t] and solving over [0, s] followed by the shifted noise on [0, t]
produce bit-identical states (exact cocycle property on grids).

A pullback cloud needs only the final states of many trajectories driven by
one noise path from several start times. _evolve_lockstep walks that grid
once: rows join at their start cell, rows whose coefficients are equal byte
for byte merge before each step, and the distinct rows are stepped as one
block by the step solve_mild takes. Trajectories that synchronize in floating
point (a contracting cloud does) thus share their remaining steps; rows that
are still apart but whose point values already agree share their kernel
grid. Every final state is bitwise the one solve_mild reaches.

controlled_norms measures a list of (trajectory, rough path, interval)
cases, each distinct one once, and builds the pair values of every case and
tile in one 64-byte-aligned workspace per call; controlled_norm is its
one-case call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .roughpath import BLOCK, GridRoughPath, _pair_sups
from .spectral import SpectralModel, SpectralState, aligned_empty


@dataclass(frozen=True)
class ControlledPath:
    """Solution pair on a uniform grid: y in E_alpha, y' = G(y) in E_(alpha-gamma)."""

    times: np.ndarray
    y: np.ndarray
    y_prime: np.ndarray
    gamma: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        y = np.asarray(self.y, dtype=float)
        yp = np.asarray(self.y_prime, dtype=float)
        if y.shape != yp.shape or y.ndim != 2 or times.size != y.shape[0]:
            raise ValueError("times, y and y_prime must be aligned (n_times, n_modes)")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "y_prime", yp)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class ControlledNorm:
    """The five seminorms of the controlled-path norm and their sum."""

    sup_y: float
    sup_yp: float
    hol_yp: float
    rem_g: float
    rem_2g: float

    @property
    def total(self) -> float:
        return self.sup_y + self.sup_yp + self.hol_yp + self.rem_g + self.rem_2g


def rough_convolution(model: SpectralModel, z: ControlledPath, rp: GridRoughPath,
                      s: float, t: float, beta_out: float = 0.0) -> SpectralState:
    """Semigroup-weighted compensated Riemann sum of the integrand pair z.

    Sums S_(t-u) (z_u X[u,v] + z'_u XX[u,v]) over the grid cells of [s, t].
    beta_out only labels the output space E_(alpha - 2 gamma + beta_out) and
    must stay below 3 gamma, mirroring the regularity window of the limit.
    Kept for the sewing-germ defect of order 3 gamma - beta_out, which no
    acceptance criterion covers.
    """
    gamma = rp.gamma
    if beta_out >= 3.0 * gamma:
        raise ValueError(f"beta_out must be below 3*gamma = {3 * gamma}")
    i, j = rp.index(s), rp.index(t)
    if j <= i:
        raise ValueError("need s < t on the grid")
    zi = z.times
    if abs(z.dt - rp.dt) > 1e-12 * rp.dt:
        raise ValueError("integrand and noise must share the grid step")
    k0 = int(round((s - zi[0]) / z.dt))
    if k0 < 0 or k0 + (j - i) >= zi.size or abs(zi[k0] - s) > 1e-9:
        raise ValueError("integrand grid must cover the integration interval")
    acc = np.zeros(model.n_modes)
    dt = rp.dt
    for c in range(i, j):
        u = rp.t0 + c * dt
        weight = model.semigroup_factors(t - u)
        xc = rp.increment(c, c + 1)
        xxc = rp.xx[c]
        kz = k0 + (c - i)
        acc = acc + weight * (z.y[kz] * xc + z.y_prime[kz] * xxc)
    return SpectralState(acc, model.alpha - 2.0 * gamma + beta_out)


_BLOW_CAP = 1e150  # declare divergence before overflow pollutes the maps


def _initial_coeffs(model: SpectralModel, y0) -> np.ndarray:
    coeffs = (y0 if isinstance(y0, SpectralState) else SpectralState(y0, model.alpha)).coeffs
    if coeffs.shape != (model.n_modes,):
        raise ValueError("initial state must carry one coefficient per mode")
    return coeffs


def _g_and_dg_rows(model: SpectralModel, cur: np.ndarray, work):
    """(G, DG[G]) of a coefficient row, or of each row of a (rows, modes) block.

    The linear diffusion is elementwise and takes the block at once; any other
    goes row by row, since a stacked kernel gemm would move the last bits, and
    evaluates once per distinct model.diffusion_key: a row whose key an
    earlier row has gets that row's pair, which is bitwise its own.
    """
    if cur.ndim == 1 or model.g_kind == "linear":
        return model.g_and_dg(cur, work)
    g, dg_g = np.empty_like(cur), np.empty_like(cur)
    firsts = {}  # key -> first row that has it
    for r, row in enumerate(cur):
        first = firsts.setdefault(model.diffusion_key(row), r)
        if first == r:
            g[r], dg_g[r] = model.g_and_dg(row, work)
        else:
            g[r], dg_g[r] = g[first], dg_g[first]
    return g, dg_g


def _euler_step(model: SpectralModel, cur: np.ndarray, work, decay: np.ndarray,
                step: float, x, xx):
    """One exponential Euler step from the coefficient row cur: (G(cur), next row).

    cur may also be a (rows, modes) block, with x and xx as scalars shared by
    every row or as (rows, 1) columns. Every operation but the diffusion is
    elementwise, so each row of the block is bitwise the row stepped alone.
    """
    g, dg_g = _g_and_dg_rows(model, cur, work)
    return g, decay * (cur + model.f_values(cur) * step + g * x + dg_g * xx)


def solve_mild(model: SpectralModel, y0, rp: GridRoughPath) -> ControlledPath:
    """Exponential rough Euler trajectory driven by rp, started at y0.

    The solver grid is the noise grid of rp: a shorter span is rp.window(s, t)
    and a coarser step is roughpath.coarsen(rp, k), whose cells Chen-aggregate
    k noise cells. A state that is not finite or exceeds 1e150, and a
    non-finite y' row, abort with a NumericsError naming the first bad time
    (t_bad).
    """
    return solve_many(model, [y0], [rp])[0]


def solve_many(model: SpectralModel, y0s, rps) -> list:
    """solve_mild of each (y0, rp) pair, the pairs stepped as one block.

    The rough paths must share one grid: the same t0, dt and cell count. Each
    row is bitwise the trajectory solve_mild reaches, and each ControlledPath
    holds views into one (rows, steps + 1, modes) block of y and one of y'.
    The first pair, in input order, for which solve_mild would raise a
    NumericsError raises that error; a failing row drops itself and every
    later row from the block, and the earlier rows step on.
    """
    coeffs = [_initial_coeffs(model, y0) for y0 in y0s]
    rps = list(rps)
    if len(coeffs) != len(rps):
        raise ValueError("need one rough path per initial state")
    if not rps:
        return []
    rp = rps[0]
    if any((p.t0, p.dt, p.n_cells) != (rp.t0, rp.dt, rp.n_cells) for p in rps):
        raise ValueError("the rough paths must share one grid (t0, dt and cell count)")
    n_steps, step = rp.n_cells, rp.dt
    decay = model.semigroup_factors(step)
    # first- and second-level increments of each step and row
    incs = np.empty((2, n_steps, len(rps), 1))
    for r, p in enumerate(rps):
        incs[0, :, r, 0] = np.diff(p.x_raw)
        incs[1, :, r, 0] = p.xx
    work = model.kernel_work()
    y = np.empty((len(rps), n_steps + 1, model.n_modes))
    yp = np.empty_like(y)
    y[:, 0] = coeffs

    def stepped(live):
        # step-major views of rows [0, live): y, y', and the increments as
        # (rows, 1) columns; one row steps as 1-D arrays with scalar increments
        if live == 1:
            return y[0], yp[0], *incs[:, :, 0, 0].tolist()
        return (y[:live].swapaxes(0, 1), yp[:live].swapaxes(0, 1),
                incs[0, :, :live], incs[1, :, :live])

    live = len(rps)
    ys, yps, xs, xxs = stepped(live)
    blow_up = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            yps[k], nxt = _euler_step(model, ys[k], work, decay, step, xs[k], xxs[k])
            size = np.abs(nxt)
            if not size.max() <= _BLOW_CAP:  # also true for NaN
                # this row fails first in input order unless an earlier one
                # fails later: drop it and every later row, step the rest on
                live = int(np.argmin(size.reshape(live, -1).max(axis=1) <= _BLOW_CAP))
                blow_up = rp.t0 + (k + 1) * rp.dt
                if not live:
                    break
                ys, yps, xs, xxs = stepped(live)
                nxt = nxt[:live]
            ys[k + 1] = nxt
        if live:
            yps[n_steps] = _g_and_dg_rows(model, ys[n_steps], work)[0]
    times = rp.times
    finite = np.isfinite(yp[:live]).all(axis=2)
    if not finite.all():
        t_bad = float(times[np.argmin(finite[np.argmin(finite.all(axis=1))])])
        raise NumericsError(f"y' = G(y) is not finite at t = {t_bad}", t_bad=t_bad)
    if blow_up is not None:
        raise NumericsError(f"trajectory blew up at t = {blow_up}", t_bad=blow_up)
    return [ControlledPath(times, y[r], yp[r], p.gamma) for r, p in enumerate(rps)]


def _evolve_lockstep(model: SpectralModel, rp: GridRoughPath, end: int, entries) -> list:
    """Final states at grid index end of trajectories driven by one path.

    entries holds (start index, initial state) pairs. Each entry's trajectory
    takes the steps solve_mild takes on the window of rp from its start to
    end, but the entries move in lockstep: a row joins at its start cell,
    rows equal byte for byte merge before each step, and the distinct rows
    are stepped as one block, whose rows with equal diffusion keys share one
    kernel evaluation (_g_and_dg_rows). Returns one coefficient array per
    entry, or None where solve_mild would raise a NumericsError: a step
    beyond 1e150 or non-finite, or a non-finite G at the end (a non-finite G
    earlier makes its own step non-finite).
    """
    joins = {}
    for idx, (start, y0) in enumerate(entries):
        coeffs = _initial_coeffs(model, y0)
        if not 0 <= start < end <= rp.n_cells:
            raise ValueError("each trajectory must start on the grid before its end")
        joins.setdefault(start, []).append((idx, coeffs))
    final = [None] * len(entries)
    first = min(joins, default=end)
    decay = model.semigroup_factors(rp.dt)
    x_step = np.diff(rp.x_raw[first:end + 1]).tolist()
    xx_step = rp.xx[first:end].tolist()
    work = model.kernel_work()
    live = {}  # row bytes -> (row, indices of the entries it carries)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(first, end):
            for idx, coeffs in joins.get(c, ()):
                live.setdefault(coeffs.tobytes(), (coeffs, []))[1].append(idx)
            if not live:
                continue
            block = np.array([row for row, _ in live.values()])
            nxt = _euler_step(model, block, work, decay, rp.dt,
                              x_step[c - first], xx_step[c - first])[1]
            stepped = {}
            for row, ok, (_, members) in zip(nxt, np.abs(nxt).max(axis=1) <= _BLOW_CAP,
                                             live.values()):
                if ok:
                    stepped.setdefault(row.tobytes(), (row, []))[1].extend(members)
            live = stepped
        for row, members in live.values():
            if np.isfinite(model.g_values(row, work)).all():
                for idx in members:
                    final[idx] = row
    return final


def controlled_norm(model: SpectralModel, path: ControlledPath, rp: GridRoughPath,
                    interval=None, alpha: float | None = None) -> ControlledNorm:
    """Grid-restricted controlled-path norm of a trajectory on an interval.

    The five contributions are measured in the spaces of the defining norm:
    sup |y|_alpha, sup |y'|_(alpha-gamma), the gamma-Hoelder seminorm of y' in
    alpha-2gamma, and the gamma / 2gamma seminorms of the remainder in
    alpha-gamma / alpha-2gamma. alpha defaults to the model's base space.
    The one-case call of controlled_norms.
    """
    return controlled_norms(model, [(path, rp, interval)], alpha)[0]


def controlled_norms(model: SpectralModel, cases, alpha: float | None = None) -> list:
    """controlled_norm of each (trajectory, rough path, interval) case.

    Each distinct (trajectory, rough path, interval) is evaluated once, and
    the first case, in input order, for which controlled_norm would raise
    raises that error. Each pair i < j is built once (roughpath._pair_sups),
    its remainder squared once, into one set of 64-byte-aligned pair buffers
    that every case and tile of the call reuses.
    """
    norms, error = _controlled_norms(model, cases, alpha)
    if error is not None:
        raise error
    return norms


def _norm_window(path: ControlledPath, rp: GridRoughPath, interval) -> tuple:
    """Grid indices (lo, hi) of the interval on the trajectory, and the first-level
    values of rp at them."""
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
    return lo, hi, rp.x_raw[rp.index(path.times[lo]):rp.index(path.times[hi]) + 1]


def _tile_pairs(cells: int) -> int:
    """Pairs of the largest tile _pair_sups hands values() on a window of cells:
    the one triangle of a window of up to BLOCK cells, else a square."""
    return cells * (cells + 1) // 2 if cells <= BLOCK else BLOCK * BLOCK


def _controlled_norms(model: SpectralModel, cases, alpha: float | None = None):
    """(controlled_norm of the cases before the first failing one, its error or None)."""
    if alpha is None:
        alpha = model.alpha
    windows, error = {}, None  # (path, rp, lo, hi) ids -> (path, lo, hi, x values)
    keys = []
    try:
        for path, rp, interval in cases:
            lo, hi, xvals = _norm_window(path, rp, interval)
            keys.append((id(path), id(rp), lo, hi))
            windows.setdefault(keys[-1], (path, lo, hi, xvals))
    except ValueError as exc:
        error = exc
    if not windows:
        return [], error
    # three buffers of the largest tile's pair values, each row 64-byte aligned
    pairs = max(_tile_pairs(hi - lo) for _, lo, hi, _ in windows.values())
    bufs = aligned_empty((3, -(-pairs * model.n_modes // 8) * 8))
    norms = {key: _window_norm(model, alpha, path.y[lo:hi + 1], path.y_prime[lo:hi + 1], xvals,
                               path.gamma, path.dt, bufs)
             for key, (path, lo, hi, xvals) in windows.items()}
    return [norms[key] for key in keys], error


def _window_norm(model: SpectralModel, alpha: float, y: np.ndarray, yp: np.ndarray,
                 xvals: np.ndarray, gamma: float, dt: float, bufs) -> ControlledNorm:
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


def composition_pair(model: SpectralModel, path: ControlledPath) -> ControlledPath:
    """The controlled pair (G(y), DG(y)[G(y)]) along a solved trajectory."""
    gy, gyp = _g_and_dg_rows(model, path.y, model.kernel_work())
    return ControlledPath(path.times.copy(), gy, gyp, path.gamma)


def composition_norm(model: SpectralModel, path: ControlledPath, rp: GridRoughPath,
                     interval=None) -> ControlledNorm:
    """Controlled norm of (G(y), (G(y))') measured one sigma_g lower in space.

    Kept for the composition estimate |G(y)|_D <= C rho (1 + |y|_D), which no
    acceptance criterion covers.
    """
    pair = composition_pair(model, path)
    return controlled_norm(model, pair, rp, interval, alpha=model.alpha - model.sigma_g)
