"""Batch experiment runner.

One executable drives all modules: sampling and lifting noise, greedy
statistics, special-function certificates, Gronwall curves, trajectory
solves, bound calibration and validation, ergodic moments with the gap
check, absorbing radii and pullback tables, plus the acceptance suite.

Configuration is a plain key = value file. The command may come from the
positional argument or from the ``command`` key, so a written manifest is
itself a replayable config. Every run writes ``manifest.txt`` into the
output directory, also a run that exits 3 after creating it, so its partial
outputs can be replayed; all tabular outputs are CSV with repr-formatted floats,
byte-identical for a fixed (config, seeds) regardless of worker count.

Exit codes: 0 ok, 2 configuration error, 3 numerical diagnostic,
4 acceptance failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import platform
import sys
import time
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import __version__
from . import attractor as att
from . import gronwall, roughpath, solver, specfun
from .configio import (dump_kv_text, format_value, get_typed, load_kv_file, write_csv,
                       write_kv_file)
from .errors import ConfigError, NumericsError
from .spectral import SpectralModel, model_from_config

SEED_ENV = "RPDE_LAB_SEED_OFFSET"

COMMANDS = ("lift", "greedy", "specfun-cert", "gronwall", "solve", "bounds",
            "ergodic", "absorb", "pullback", "accept")


@dataclass
class ExperimentConfig:
    """Resolved run settings; field names double as config keys.

    The field order is the manifest order, which fixes ``config_hash``; the
    annotation picks the parser of each key.
    """

    command: str
    seeds: tuple[int, ...] = (0,)
    out: str = "out"
    jobs: int = 1
    verbose: bool = False
    model: str = ""          # path to a model config; empty -> desk default
    constants: str = ""      # path to a constants config; empty -> desk default
    hurst: float = 0.5
    steps_per_unit: int = 32
    horizon: float = 4.0
    noise_scale: float = 0.01
    train_seeds: int = 100
    calib_margin: float = 0.1
    trunc_k: int = 12
    eps_points: int = 11
    t_list: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0)
    cloud_points: int = 5
    cloud_radius: float = 1.0
    q_moment: float = 0.0    # 0 -> use the derived q
    config_path: str = ""  # the file the settings came from; not itself a key


# the config keys, in manifest order
_SETTINGS = tuple(f for f in fields(ExperimentConfig) if f.name != "config_path")
_KINDS = {"str": str, "int": int, "float": float, "bool": bool,
          "tuple[int, ...]": int, "tuple[float, ...]": float}
# written into every manifest beside the settings (beta_shift by earlier
# versions, as a setting no command read); ignored when one is replayed
_BOOKKEEPING = ("config_hash", "package_version", "python_version", "numpy_version",
                "wall_time_s", "beta_shift")
# (key, requirement, test) of the settings that have a valid range; every
# float setting and list element must also be finite
_RANGES = (
    ("seeds", "must be non-negative", lambda v: min(v) >= 0),
    ("jobs", "must be at least 1", lambda v: v >= 1),
    ("hurst", "must lie in (1/3, 1]", lambda v: 1.0 / 3.0 < v <= 1.0),
    ("steps_per_unit", "must be at least 1", lambda v: v >= 1),
    ("horizon", "must be positive", lambda v: v > 0),
    ("train_seeds", "must be at least 1", lambda v: v >= 1),
    ("calib_margin", "must be nonnegative", lambda v: v >= 0),
    ("trunc_k", "must be at least 2", lambda v: v >= 2),
    ("eps_points", "must be at least 1", lambda v: v >= 1),
    ("t_list", "must hold positive times", lambda v: min(v) > 0),
    ("cloud_points", "must be at least 1", lambda v: v >= 1),
    ("cloud_radius", "must be positive", lambda v: v > 0),
    ("q_moment", "must be 0 (the derived order) or at least 1", lambda v: v == 0 or v >= 1),
)


def default_model_pairs() -> dict:
    """Desk-scale model: moderate gap, weak linear multiplicative diffusion."""
    return {"n_modes": 16, "lambda_a": 8.0, "alpha": 0.0, "sigma_f": 0.0,
            "sigma_g": 0.0, "c_f": 0.0, "c_g": 5e-4, "g_kind": "linear"}


def default_constants_pairs() -> dict:
    """Desk-scale bound constants honoring the threshold coupling."""
    return {"gamma": 0.49, "eta": 0.05, "chi": 0.019, "m_tilde": 1.05,
            "m_big": 0.078, "c_i": 0.5, "z_min": 2.0, "z_max": 50.0,
            "delta_bar": 0.1, "n_tilde": 2}


def _parse_list(key: str, raw: str, kind) -> tuple:
    try:
        values = tuple(kind(p) for p in raw.replace(" ", "").split(",") if p != "")
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {raw!r} as a {kind.__name__} list") from exc
    if not values:
        raise ConfigError(f"config key {key}: the list must not be empty")
    return values


def load_experiment(path: str | None, overrides: dict) -> ExperimentConfig:
    """Settings from the config file, then the non-empty overrides, checked.

    A config that carries ``config_hash`` is a manifest: its seeds are the
    ones that ran, so the seed offset is not applied again.
    """
    pairs = load_kv_file(path) if path else {}
    annotations = {f.name: f.type for f in _SETTINGS}
    unknown = [key for key in pairs if key not in annotations and key not in _BOOKKEEPING]
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(unknown)}")
    cfg = ExperimentConfig(command="")
    for key, raw in pairs.items():
        if key in annotations:
            kind = _KINDS[annotations[key]]
            setattr(cfg, key, _parse_list(key, raw, kind) if annotations[key].startswith("tuple")
                    else get_typed(pairs, key, kind))
    if path:
        # referenced files resolve relative to the config file itself
        base = os.path.dirname(os.path.abspath(path))
        for key in ("model", "constants"):
            value = getattr(cfg, key)
            if value and not os.path.isabs(value):
                setattr(cfg, key, os.path.join(base, value))
    for key, value in overrides.items():
        if value is not None and (value or key != "command"):
            setattr(cfg, key, value)
    if not cfg.command:
        raise ConfigError("no command given (positional argument or 'command' key)")
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}; choose from {COMMANDS}")
    try:
        offset = int(os.environ.get(SEED_ENV, "0"))
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV} must be an integer, got {os.environ[SEED_ENV]!r}") from exc
    if offset and "config_hash" not in pairs:
        cfg.seeds = tuple(s + offset for s in cfg.seeds)
    for f in _SETTINGS:
        value = getattr(cfg, f.name)
        if _KINDS[f.type] is float and not np.isfinite(value).all():
            raise ConfigError(f"config key {f.name} must be finite, got {value!r}")
    for key, need, valid in _RANGES:
        if not valid(getattr(cfg, key)):
            raise ConfigError(f"config key {key} {need}, got {getattr(cfg, key)!r}")
    cfg.config_path = path or ""
    return cfg


def _build_model(cfg: ExperimentConfig) -> SpectralModel:
    if cfg.model:
        return model_from_config(cfg.model)
    return SpectralModel(**default_model_pairs())


def _build_constants(cfg: ExperimentConfig, model: SpectralModel) -> att.BoundConstants:
    if cfg.constants:
        return att.constants_from_config(cfg.constants, model)
    pairs = default_constants_pairs()
    override = pairs.pop("n_tilde")
    return att.BoundConstants.derive(model, n_tilde_override=override, **pairs)


def _lift_cells(cfg: ExperimentConfig, span: float) -> int:
    """Cell count of sample_lift over span; a lift needs at least 2."""
    n = int(round(span * cfg.steps_per_unit))
    if n < 2:
        raise ConfigError(f"config key steps_per_unit: {cfg.steps_per_unit!r} steps per unit "
                          f"give {n} cell(s) on a span of {span!r}; a lift needs at least 2")
    return n


def sample_lift(cfg: ExperimentConfig, seed: int, span: float, t_start: float,
                gamma: float) -> roughpath.GridRoughPath:
    """Lift of the seeded fBm noise of cfg (hurst, steps_per_unit, noise_scale)."""
    n = _lift_cells(cfg, span)
    values = cfg.noise_scale * roughpath.sample_fbm(cfg.hurst, n, seed, horizon=span)
    return roughpath.lift_piecewise_linear(values, t_start, span / n, gamma=gamma)


def unit_state(model: SpectralModel, seed: int, radius: float = 1.0) -> np.ndarray:
    """The seeded random initial state of a run, scaled to alpha-norm radius."""
    rng = np.random.default_rng(10_000 + seed)
    y0 = rng.standard_normal(model.n_modes)
    y0 /= max(model.frac_norm(y0, model.alpha), 1e-12)
    y0 *= radius
    return y0


def unit_cloud(model: SpectralModel, n_points: int, radius: float = 1.0) -> np.ndarray:
    """A fixed random cloud of n_points states, each of alpha-norm radius."""
    rng = np.random.default_rng(777)
    cloud = rng.standard_normal((n_points, model.n_modes))
    cloud *= radius / np.maximum(model.frac_norm_rows(cloud, model.alpha), 1e-12)[:, None]
    return cloud


def _parallel_map(fn, items, jobs: int) -> list:
    """fn over contiguous chunks of items, one chunk per worker, joined in order.

    fn maps a chunk (a list of items) to one result per item. Starts at most
    one worker per item and per CPU, whatever jobs asks for; the chunk sizes
    differ by at most one, so the results do not depend on the worker count.
    """
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return list(fn(items))
    cuts = [len(items) * w // workers for w in range(workers + 1)]
    chunks = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    import concurrent.futures  # here, not at the top: it pulls in logging, ~8 ms per process

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for part in pool.map(fn, chunks) for result in part]


def _ensure_out(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def write_manifest(cfg: ExperimentConfig, wall_time: float) -> None:
    pairs = {}
    for f in _SETTINGS:
        value = getattr(cfg, f.name)
        pairs[f.name] = ",".join(repr(v) for v in value) if isinstance(value, tuple) else value
    digest = hashlib.sha256(dump_kv_text(pairs).encode()).hexdigest()
    pairs_out = dict(pairs)
    pairs_out["config_hash"] = digest
    pairs_out["package_version"] = __version__
    pairs_out["python_version"] = platform.python_version()
    pairs_out["numpy_version"] = np.__version__
    pairs_out["wall_time_s"] = wall_time
    write_kv_file(os.path.join(cfg.out, "manifest.txt"), pairs_out)


# ---------------------------------------------------------------------------
# per-command drivers
# ---------------------------------------------------------------------------

def _cmd_lift(cfg: ExperimentConfig) -> None:
    _lift_cells(cfg, cfg.horizon)
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    out = _ensure_out(cfg)
    for seed in cfg.seeds:
        rp = sample_lift(cfg, seed, cfg.horizon, 0.0, cons.gamma)
        roughpath.save_csv(rp, os.path.join(out, f"path_seed{seed}.csv"))
        if cfg.verbose:
            rep = roughpath.holder_seminorm(rp)
            print(f"seed {seed}: [X] = {rep.seminorm_x:.6g}  [XX] = {rep.seminorm_xx:.6g}")


def _each_seed(task, cfg: ExperimentConfig, seeds) -> list:
    """A chunk task that runs task(cfg, seed) seed by seed."""
    return [task(cfg, seed) for seed in seeds]


def _greedy_task(cfg: ExperimentConfig, seed: int):
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    rp = sample_lift(cfg, seed, cfg.horizon, 0.0, cons.gamma)
    from .greedy import control_w, greedy_times
    gp = greedy_times(rp, cons.eta, cons.chi)
    w = control_w(rp, cons.eta, 0.0, cfg.horizon)
    return (f"0.0..{cfg.horizon!r}", gp.count, w, cons.chi, cons.eta)


def _cmd_greedy(cfg: ExperimentConfig) -> None:
    _lift_cells(cfg, cfg.horizon)
    rows = _parallel_map(partial(_each_seed, _greedy_task, cfg), cfg.seeds, cfg.jobs)
    write_csv(os.path.join(_ensure_out(cfg), "greedy.csv"),
              ["interval", "N", "W", "chi", "eta"], rows)


def _cmd_specfun_cert(cfg: ExperimentConfig) -> None:
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    out = _ensure_out(cfg)
    betas = sorted({1.0 - cons.sigma_f, 0.5, 1.0})
    rows = []
    for beta in betas:
        cert = specfun.certify_ml_bound(beta, cons.z_min, cons.z_max)
        rows.append((beta, cert.z_min, cert.z_max, cert.m_beta, cert.n_grid))
    write_csv(os.path.join(out, "certificates.csv"),
              ["beta", "z_min", "z_max", "m_beta", "n_grid"], rows)


def _cmd_gronwall(cfg: ExperimentConfig) -> None:
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    out = _ensure_out(cfg)
    n = max(64, int(cfg.horizon * cfg.steps_per_unit))
    times = np.linspace(0.0, cfg.horizon, n + 1)
    beta = 1.0 - cons.sigma_f
    curve = gronwall.singular_gronwall(gronwall.BoundCurve(times, np.ones(n + 1)),
                                       big_m=max(cons.big_l / 2.0, 0.5), beta=beta)
    curve.write_csv(os.path.join(out, "gronwall_bound.csv"))


def _traj_rows(model: SpectralModel, path: solver.ControlledPath):
    m = min(8, model.n_modes)
    rows = []
    for k, t in enumerate(path.times):
        norm = model.frac_norm(path.y[k], model.alpha)
        rows.append((t, norm, *path.y[k, :m]))
    return rows


def solve_seeds(cfg: ExperimentConfig, model: SpectralModel, gamma: float, seeds,
                end: float | None = None) -> list:
    """(trajectory, lift) of each seed, solved as one block.

    Each seed's lift is sample_lift's over [0, horizon], whose samples depend
    on the cell count, and its trajectory starts at its unit_state and runs
    on the lift's window [0, end] (end defaults to the horizon): bitwise the
    prefix of the full solve. solver.solve_many steps them all at once.
    """
    rps = [sample_lift(cfg, seed, cfg.horizon, 0.0, gamma) for seed in seeds]
    spans = rps if end is None else [rp.window(0.0, end) for rp in rps]
    paths = solver.solve_many(model, [unit_state(model, seed) for seed in seeds], spans)
    return list(zip(paths, rps))


def _solve_chunk(cfg: ExperimentConfig, seeds, end: float | None = None):
    """The model of cfg and solve_seeds of a chunk of seeds under it."""
    model = _build_model(cfg)
    return model, solve_seeds(cfg, model, _build_constants(cfg, model).gamma, seeds, end)


def _solve_task(cfg: ExperimentConfig, seeds) -> list:
    model, cases = _solve_chunk(cfg, seeds)
    return [_traj_rows(model, path) for path, _ in cases]


def _cmd_solve(cfg: ExperimentConfig) -> None:
    _lift_cells(cfg, cfg.horizon)
    model = _build_model(cfg)
    m = min(8, model.n_modes)
    header = ["t", "norm_alpha"] + [f"coeff_{i + 1}" for i in range(m)]
    results = _parallel_map(partial(_solve_task, cfg), cfg.seeds, cfg.jobs)
    out = _ensure_out(cfg)
    for seed, rows in zip(cfg.seeds, results):
        write_csv(os.path.join(out, f"trajectory_seed{seed}.csv"), header, rows)


def _bounds_task(cfg: ExperimentConfig, end: float, seeds) -> list:
    return _solve_chunk(cfg, seeds, end)[1]


def _apriori_time(horizon: float) -> float:
    return max(float(int(horizon) - 1), 1.0)


def _require_unit_horizon(cfg: ExperimentConfig) -> None:
    """The [0, horizon] grid of sample_lift must hold whole unit windows."""
    if cfg.horizon < 1.0:
        raise ConfigError(f"config key horizon must be at least 1 for {cfg.command}, "
                          f"got {cfg.horizon!r}")
    dt = cfg.horizon / _lift_cells(cfg, cfg.horizon)
    if abs(round(1.0 / dt) * dt - 1.0) > 1e-9:
        raise ConfigError(f"config key horizon: {cfg.horizon!r} at {cfg.steps_per_unit} steps "
                          f"per unit gives a grid step of {dt!r}, which does not divide one "
                          f"unit; {cfg.command} needs whole unit windows")


def _cmd_bounds(cfg: ExperimentConfig) -> None:
    _require_unit_horizon(cfg)
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    out = _ensure_out(cfg)
    # each trajectory is solved as far as its checks read: [0, 1] for
    # training, [0, t_check] for validation
    train = _parallel_map(partial(_bounds_task, cfg, 1.0), range(cfg.train_seeds), cfg.jobs)
    cons = att.calibrate_m_big(model, [(t, r, (0.0, 1.0)) for t, r in train],
                               cons, margin=cfg.calib_margin)
    del train  # frees the training block before the validation block is solved
    rows = []
    t_check = _apriori_time(cfg.horizon)
    valid = _parallel_map(partial(_bounds_task, cfg, t_check), cfg.seeds, cfg.jobs)
    unit = [(traj, rp, (0.0, 1.0)) for traj, rp in valid]
    for seed, sol, apr in zip(cfg.seeds, *att.validate_bounds(model, unit, valid, cons, t_check)):
        rows.append((seed, "0..1", "solution", sol.lhs, sol.rhs, int(sol.passed)))
        rows.append((seed, f"0..{t_check!r}", "apriori", apr.lhs, apr.rhs, int(apr.passed)))
    write_csv(os.path.join(out, "bounds.csv"),
              ["seed", "interval", "kind", "lhs", "rhs", "passed"], rows)
    write_csv(os.path.join(out, "constants.csv"), ["name", "value", "provenance"],
              cons.as_rows())
    misses = [f"seed {seed} {kind} on {interval}: lhs {format_value(lhs)} > rhs {format_value(rhs)}"
              for seed, interval, kind, lhs, rhs, passed in rows if not passed]
    if misses:
        raise NumericsError("bound validation found violations", violations="; ".join(misses))


def _cmd_ergodic(cfg: ExperimentConfig) -> None:
    _require_unit_horizon(cfg)
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    out = _ensure_out(cfg)
    samples = [sample_lift(cfg, s, cfg.horizon, 0.0, cons.gamma) for s in cfg.seeds]
    q = cfg.q_moment if cfg.q_moment > 0 else cons.q_moment
    report = att.ergodic_moments(samples, q)
    gap = att.check_gap_condition(cons, report)
    write_csv(os.path.join(out, "ergodic.csv"),
              ["q", "k_q", "kk_q", "k_bold", "std_err", "n_samples",
               "gap_lhs", "gap_rhs", "gap_passed"],
              [(report.q, report.k_q, report.kk_q, report.k_bold, report.std_err,
                report.n_samples, gap.lhs, gap.rhs, int(gap.passed))])
    if len(samples) > 1 or samples[0].n_cells * samples[0].dt >= 2.0:
        integ = att.integrability_check(samples, cons)
        write_csv(os.path.join(out, "integrability.csv"),
                  ["p", "lp_core", "lp_p1", "lp_p2", "split_half_ratio"],
                  [(p, integ.lp_core[p], integ.lp_p1[p], integ.lp_p2[p],
                    integ.stability[p]) for p in integ.orders])


def _absorb_task(cfg: ExperimentConfig, seeds) -> list:
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    span = cfg.trunc_k + 2.0
    cases = [(sample_lift(cfg, seed, span, -(cfg.trunc_k + 1.0), cons.gamma),
              unit_state(model, seed, cfg.cloud_radius)) for seed in seeds]
    reports = att.absorbing_radii(model, cases, cons, truncation_k=cfg.trunc_k,
                                  eps_points=cfg.eps_points)
    return [(seed, rep.radius, rep.r_value, rep.p1_val, rep.p2_val,
             rep.tail_bound, int(bool(rep.accepted)), rep.final_norm)
            for seed, rep in zip(seeds, reports)]


def _cmd_absorb(cfg: ExperimentConfig) -> None:
    rows = _parallel_map(partial(_absorb_task, cfg), cfg.seeds, cfg.jobs)
    write_csv(os.path.join(_ensure_out(cfg), "absorb.csv"),
              ["seed", "radius", "r_value", "p1", "p2", "tail_bound",
               "accepted", "final_norm"], rows)


def _pullback_task(cfg: ExperimentConfig, seed: int):
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    t_max = max(cfg.t_list)
    span = max(t_max, cfg.trunc_k + 1.0) + 1.0
    rp = sample_lift(cfg, seed, span, -(span - 1.0), cons.gamma)
    cloud = unit_cloud(model, cfg.cloud_points, cfg.cloud_radius)
    report = att.pullback_estimate(model, cons, [(seed, rp)], cfg.t_list, cloud)
    absorb = att.absorbing_radii(model, [(rp, cloud[0])], cons, truncation_k=cfg.trunc_k,
                                 eps_points=cfg.eps_points)[0]
    rows = []
    blow_ups = []
    for row in report.rows:
        rows.append((row.seed, row.t, row.diameter,
                     "" if np.isnan(row.semidistance) else row.semidistance,
                     absorb.radius, int(bool(absorb.accepted))))
        if row.blew_up:
            blow_ups.append(f"pullback: seed {row.seed}, t = {row.t}: "
                            f"{row.blew_up} of {len(cloud)} trajectories blew up")
    return rows, blow_ups


def _cmd_pullback(cfg: ExperimentConfig) -> None:
    # the noise grid of _pullback_task, of step 1 / steps_per_unit and ending
    # at 1, holds -t only for a t of a whole number of steps
    spu = cfg.steps_per_unit
    off = [t for t in cfg.t_list if abs(t * spu - round(t * spu)) > 1e-9 * spu]
    if off:
        raise ConfigError(f"config key t_list: {', '.join(map(repr, off))} not on the noise "
                          f"grid of {spu} steps per unit")
    results = _parallel_map(partial(_each_seed, _pullback_task, cfg), cfg.seeds, cfg.jobs)
    out = _ensure_out(cfg)
    # reported here, in seed order, whichever worker ran the seed
    for _, blow_ups in results:
        for line in blow_ups:
            print(line, file=sys.stderr)
    rows = [row for chunk, _ in results for row in chunk]
    write_csv(os.path.join(out, "pullback.csv"),
              ["seed", "t", "diameter", "semidistance", "radius", "accepted"], rows)


def _cmd_accept(cfg: ExperimentConfig) -> int:
    from . import acceptance
    out = _ensure_out(cfg)
    results = acceptance.run_all(verbose=True)
    write_csv(os.path.join(out, "acceptance.csv"),
              ["criterion", "name", "passed", "detail"],
              [(r.index, r.name, int(r.passed), r.detail) for r in results])
    return 0 if all(r.passed for r in results) else 4


_DRIVERS = {
    "lift": _cmd_lift,
    "greedy": _cmd_greedy,
    "specfun-cert": _cmd_specfun_cert,
    "gronwall": _cmd_gronwall,
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "ergodic": _cmd_ergodic,
    "absorb": _cmd_absorb,
    "pullback": _cmd_pullback,
}


def main(argv=None) -> int:
    gc.freeze()  # exit then skips the import heap: deallocating it cost ~20 ms per process
    parser = argparse.ArgumentParser(
        prog="rpde-lab",
        description="numerical laboratory for rough-path driven parabolic equations")
    parser.add_argument("command", nargs="?", default="", choices=COMMANDS + ("",),
                        help="experiment to run (may also come from the config file)")
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--seeds", default=None, help="comma-separated seed list")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=None, help="parallel workers")
    parser.add_argument("--verbose", action="store_true", default=None)
    args = parser.parse_args(argv)

    overrides = {"command": args.command, "out": args.out, "jobs": args.jobs,
                 "verbose": args.verbose}
    start = time.monotonic()
    cfg = None
    try:
        if args.seeds is not None:
            overrides["seeds"] = _parse_list("seeds", args.seeds, int)
        cfg = load_experiment(args.config, overrides)
        if cfg.command == "accept":
            code = _cmd_accept(cfg)
        else:
            _DRIVERS[cfg.command](cfg)
            code = 0
        write_manifest(cfg, time.monotonic() - start)
        return code
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        if cfg is not None and os.path.isdir(cfg.out):
            # the outputs written before the error can be replayed
            write_manifest(cfg, time.monotonic() - start)
        context = ", ".join(f"{k}={format_value(v)}" for k, v in exc.context.items())
        print(f"numerics: {exc}" + (f" ({context})" if context else ""), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
