"""Batch experiment runner.

One executable drives all modules: sampling and lifting noise, greedy
statistics, special-function certificates, Gronwall curves, trajectory
solves, bound calibration and validation, ergodic moments with the gap
check, absorbing radii and pullback tables, plus the acceptance suite.

Configuration is a plain key = value file. The command may come from the
positional argument or from the ``command`` key, so a written manifest is
itself a replayable config. Every run writes ``manifest.txt`` into the
output directory; all tabular outputs are CSV with repr-formatted floats,
byte-identical for a fixed (config, seeds) regardless of worker count.

Exit codes: 0 ok, 2 configuration error, 3 numerical diagnostic,
4 acceptance failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import os
import platform
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import attractor as att
from . import gronwall, roughpath, solver, specfun
from .configio import dump_kv_text, get_typed, load_kv_file, write_csv, write_kv_file
from .errors import ConfigError, NumericsError
from .spectral import SpectralModel, model_from_config

SEED_ENV = "RPDE_LAB_SEED_OFFSET"

COMMANDS = ("lift", "greedy", "specfun-cert", "gronwall", "solve", "bounds",
            "ergodic", "absorb", "pullback", "accept")


@dataclass
class ExperimentConfig:
    """Resolved run settings; field names double as config keys."""

    command: str
    seeds: tuple = (0,)
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
    t_list: tuple = (2.0, 4.0, 8.0, 16.0)
    cloud_points: int = 5
    cloud_radius: float = 1.0
    q_moment: float = 0.0    # 0 -> use the derived q
    beta_shift: float = 0.0  # 0 -> half the admissible limit
    config_path: str = ""
    extras: dict = field(default_factory=dict)


def default_model_pairs() -> dict:
    """Desk-scale model: moderate gap, weak linear multiplicative diffusion."""
    return {"n_modes": 16, "lambda_a": 8.0, "alpha": 0.0, "sigma_f": 0.0,
            "sigma_g": 0.0, "c_f": 0.0, "c_g": 5e-4, "g_kind": "linear"}


def default_constants_pairs() -> dict:
    """Desk-scale bound constants honoring the threshold coupling."""
    return {"gamma": 0.49, "eta": 0.05, "chi": 0.019, "m_tilde": 1.05,
            "m_big": 0.078, "c_i": 0.5, "z_min": 2.0, "z_max": 50.0,
            "delta_bar": 0.1, "n_tilde": 2}


def _parse_seed_list(raw: str) -> tuple:
    try:
        seeds = tuple(int(p) for p in raw.replace(" ", "").split(",") if p != "")
    except ValueError as exc:
        raise ConfigError(f"cannot parse seed list {raw!r}") from exc
    if not seeds:
        raise ConfigError("seed list must not be empty")
    return seeds


def _parse_float_list(raw: str) -> tuple:
    return tuple(float(p) for p in raw.replace(" ", "").split(",") if p != "")


def load_experiment(path: str | None, overrides: dict) -> ExperimentConfig:
    pairs = load_kv_file(path) if path else {}
    known = {}
    extras = {}
    for key, value in pairs.items():
        if key in ("wall_time_s", "config_hash", "package_version",
                   "python_version", "numpy_version"):
            continue  # manifest bookkeeping, not run settings
        known[key] = value
    cfg = ExperimentConfig(command=known.get("command", overrides.get("command", "")))
    if "command" in overrides and overrides["command"]:
        cfg.command = overrides["command"]
    if not cfg.command:
        raise ConfigError("no command given (positional argument or 'command' key)")
    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}; choose from {COMMANDS}")
    if "seeds" in known:
        cfg.seeds = _parse_seed_list(known["seeds"])
    if "t_list" in known:
        cfg.t_list = _parse_float_list(known["t_list"])
    for key in ("out", "model", "constants"):
        if key in known:
            setattr(cfg, key, known[key])
    for key, kind in (("jobs", int), ("verbose", bool), ("hurst", float),
                      ("steps_per_unit", int), ("horizon", float),
                      ("noise_scale", float), ("train_seeds", int),
                      ("calib_margin", float), ("trunc_k", int),
                      ("eps_points", int), ("cloud_points", int),
                      ("cloud_radius", float), ("q_moment", float),
                      ("beta_shift", float)):
        if key in known:
            setattr(cfg, key, get_typed(known, key, kind))
    handled = {"command", "seeds", "t_list", "out", "model", "constants",
               "jobs", "verbose", "hurst", "steps_per_unit", "horizon",
               "noise_scale", "train_seeds", "calib_margin", "trunc_k",
               "eps_points", "cloud_points", "cloud_radius", "q_moment",
               "beta_shift"}
    cfg.extras = {k: v for k, v in known.items() if k not in handled}
    if path:
        # referenced files resolve relative to the config file itself
        base = os.path.dirname(os.path.abspath(path))
        for key in ("model", "constants"):
            value = getattr(cfg, key)
            if value and not os.path.isabs(value):
                setattr(cfg, key, os.path.join(base, value))
    for key, value in overrides.items():
        if value is not None and key != "command":
            setattr(cfg, key, value)
    offset = int(os.environ.get(SEED_ENV, "0"))
    if offset:
        cfg.seeds = tuple(s + offset for s in cfg.seeds)
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


def sample_lift(cfg: ExperimentConfig, seed: int, span: float, t_start: float,
                gamma: float) -> roughpath.GridRoughPath:
    n = int(round(span * cfg.steps_per_unit))
    values = cfg.noise_scale * roughpath.sample_fbm(cfg.hurst, n, seed, horizon=span)
    return roughpath.lift_piecewise_linear(values, t_start, span / n, gamma=gamma)


def _parallel_map(fn, items, jobs: int):
    """Ordered map; results keyed by submission order for determinism.

    Starts at most one worker per item and per CPU, whatever jobs asks for.
    """
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _ensure_out(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _config_pairs_for_manifest(cfg: ExperimentConfig) -> dict:
    pairs = {
        "command": cfg.command,
        "seeds": ",".join(str(s) for s in cfg.seeds),
        "out": cfg.out, "jobs": cfg.jobs, "verbose": cfg.verbose,
        "model": cfg.model, "constants": cfg.constants,
        "hurst": cfg.hurst, "steps_per_unit": cfg.steps_per_unit,
        "horizon": cfg.horizon, "noise_scale": cfg.noise_scale,
        "train_seeds": cfg.train_seeds, "calib_margin": cfg.calib_margin,
        "trunc_k": cfg.trunc_k, "eps_points": cfg.eps_points,
        "t_list": ",".join(repr(t) for t in cfg.t_list),
        "cloud_points": cfg.cloud_points, "cloud_radius": cfg.cloud_radius,
        "q_moment": cfg.q_moment, "beta_shift": cfg.beta_shift,
    }
    pairs.update(cfg.extras)
    return pairs


def write_manifest(cfg: ExperimentConfig, wall_time: float) -> None:
    pairs = _config_pairs_for_manifest(cfg)
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
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    out = _ensure_out(cfg)
    for seed in cfg.seeds:
        rp = sample_lift(cfg, seed, cfg.horizon, 0.0, cons.gamma)
        roughpath.save_csv(rp, os.path.join(out, f"path_seed{seed}.csv"))
        rep = roughpath.holder_report(rp)
        if cfg.verbose:
            print(f"seed {seed}: [X] = {rep.seminorm_x:.6g}  [XX] = {rep.seminorm_xx:.6g}")


def _greedy_task(args):
    cfg_pairs, seed = args
    cfg = _cfg_from_pairs(cfg_pairs)
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    rp = sample_lift(cfg, seed, cfg.horizon, 0.0, cons.gamma)
    from .greedy import control_w, greedy_times
    gp = greedy_times(rp, cons.eta, cons.chi)
    w = control_w(rp, cons.eta, 0.0, cfg.horizon)
    return (f"0.0..{cfg.horizon!r}", gp.count, w, cons.chi, cons.eta)


def _cmd_greedy(cfg: ExperimentConfig) -> None:
    out = _ensure_out(cfg)
    rows = _parallel_map(_greedy_task, [(_cfg_pairs(cfg), s) for s in cfg.seeds], cfg.jobs)
    write_csv(os.path.join(out, "greedy.csv"),
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


def _traj_rows(model: SpectralModel, path: solver.ControlledPath, seed: int):
    m = min(8, model.n_modes)
    rows = []
    for k, t in enumerate(path.times):
        norm = model.frac_norm(path.y[k], model.alpha)
        rows.append((t, norm, *path.y[k, :m]))
    return rows


def _solve_task(args):
    cfg_pairs, seed = args
    cfg = _cfg_from_pairs(cfg_pairs)
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    rp = sample_lift(cfg, seed, cfg.horizon, 0.0, cons.gamma)
    rng = np.random.default_rng(10_000 + seed)
    y0 = rng.standard_normal(model.n_modes)
    y0 /= max(model.frac_norm(y0, model.alpha), 1e-12)
    path = solver.solve_mild(model, y0, rp)
    return seed, _traj_rows(model, path, seed)


def _cmd_solve(cfg: ExperimentConfig) -> None:
    out = _ensure_out(cfg)
    model = _build_model(cfg)
    m = min(8, model.n_modes)
    header = ["t", "norm_alpha"] + [f"coeff_{i + 1}" for i in range(m)]
    results = _parallel_map(_solve_task, [(_cfg_pairs(cfg), s) for s in cfg.seeds], cfg.jobs)
    for seed, rows in results:
        write_csv(os.path.join(out, f"trajectory_seed{seed}.csv"), header, rows)


def _bounds_case(args):
    cfg_pairs, seed = args
    cfg = _cfg_from_pairs(cfg_pairs)
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    rp = sample_lift(cfg, seed, cfg.horizon, 0.0, cons.gamma)
    rng = np.random.default_rng(10_000 + seed)
    y0 = rng.standard_normal(model.n_modes)
    y0 /= max(model.frac_norm(y0, model.alpha), 1e-12)
    traj = solver.solve_mild(model, y0, rp)
    return seed, traj, rp


def _apriori_time(horizon: float) -> float:
    return max(float(int(horizon) - 1), 1.0)


def _cmd_bounds(cfg: ExperimentConfig) -> None:
    out = _ensure_out(cfg)
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    pairs = _cfg_pairs(cfg)
    train = _parallel_map(_bounds_case, [(pairs, s) for s in range(cfg.train_seeds)], cfg.jobs)
    cons = att.calibrate_m_big(model, [(t, r, (0.0, 1.0)) for _, t, r in train],
                               cons, margin=cfg.calib_margin)
    rows = []
    t_check = _apriori_time(cfg.horizon)
    for seed, traj, rp in _parallel_map(_bounds_case, [(pairs, s) for s in cfg.seeds], cfg.jobs):
        sol = att.check_solution_bound(model, traj, rp, cons, (0.0, 1.0))
        apr = att.apriori_bound(model, traj, rp, cons, t_check)
        rows.append((seed, "0..1", "solution", sol.lhs, sol.rhs, int(sol.passed)))
        rows.append((seed, f"0..{t_check!r}", "apriori", apr.lhs, apr.rhs, int(apr.passed)))
    write_csv(os.path.join(out, "bounds.csv"),
              ["seed", "interval", "kind", "lhs", "rhs", "passed"], rows)
    write_csv(os.path.join(out, "constants.csv"), ["name", "value", "provenance"],
              cons.as_rows())
    if any(row[5] == 0 for row in rows):
        raise NumericsError("bound validation found violations")


def _cmd_ergodic(cfg: ExperimentConfig) -> None:
    out = _ensure_out(cfg)
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
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


def _absorb_task(args):
    cfg_pairs, seed = args
    cfg = _cfg_from_pairs(cfg_pairs)
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    span = cfg.trunc_k + 2.0
    rp = sample_lift(cfg, seed, span, -(cfg.trunc_k + 1.0), cons.gamma)
    rng = np.random.default_rng(10_000 + seed)
    y0 = rng.standard_normal(model.n_modes)
    y0 /= max(model.frac_norm(y0, model.alpha), 1e-12)
    y0 *= cfg.cloud_radius
    rep = att.absorbing_radius(rp, cons, truncation_k=cfg.trunc_k,
                               eps_points=cfg.eps_points, model=model,
                               y0=model.state(y0))
    return (seed, rep.radius, rep.r_value, rep.p1_val, rep.p2_val,
            rep.tail_bound, int(bool(rep.accepted)), rep.final_norm)


def _cmd_absorb(cfg: ExperimentConfig) -> None:
    out = _ensure_out(cfg)
    rows = _parallel_map(_absorb_task, [(_cfg_pairs(cfg), s) for s in cfg.seeds], cfg.jobs)
    write_csv(os.path.join(out, "absorb.csv"),
              ["seed", "radius", "r_value", "p1", "p2", "tail_bound",
               "accepted", "final_norm"], rows)


def _pullback_task(args):
    cfg_pairs, seed = args
    cfg = _cfg_from_pairs(cfg_pairs)
    model = _build_model(cfg)
    cons = _build_constants(cfg, model)
    t_max = max(cfg.t_list)
    span = max(t_max, cfg.trunc_k + 1.0) + 1.0
    rp = sample_lift(cfg, seed, span, -(span - 1.0), cons.gamma)
    rng = np.random.default_rng(777)
    cloud = rng.standard_normal((cfg.cloud_points, model.n_modes))
    cloud *= cfg.cloud_radius / np.maximum(model.frac_norm_rows(cloud, model.alpha), 1e-12)[:, None]
    report = att.pullback_estimate(model, cons, [(seed, rp)], cfg.t_list, cloud)
    absorb = att.absorbing_radius(rp, cons, truncation_k=cfg.trunc_k,
                                  eps_points=cfg.eps_points, model=model,
                                  y0=model.state(cloud[0]))
    rows = []
    for row in report.rows:
        rows.append((row.seed, row.t, row.diameter,
                     "" if np.isnan(row.semidistance) else row.semidistance,
                     absorb.radius, int(bool(absorb.accepted))))
    return rows


def _cmd_pullback(cfg: ExperimentConfig) -> None:
    out = _ensure_out(cfg)
    results = _parallel_map(_pullback_task, [(_cfg_pairs(cfg), s) for s in cfg.seeds], cfg.jobs)
    rows = [row for chunk in results for row in chunk]
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


def _cfg_pairs(cfg: ExperimentConfig) -> dict:
    return _config_pairs_for_manifest(cfg)


def _cfg_from_pairs(pairs: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(command=pairs["command"])
    cfg.seeds = _parse_seed_list(str(pairs["seeds"]))
    cfg.t_list = _parse_float_list(str(pairs["t_list"]))
    cfg.out = str(pairs["out"])
    cfg.model = str(pairs["model"])
    cfg.constants = str(pairs["constants"])
    for key, kind in (("jobs", int), ("hurst", float), ("steps_per_unit", int),
                      ("horizon", float), ("noise_scale", float),
                      ("train_seeds", int), ("calib_margin", float),
                      ("trunc_k", int), ("eps_points", int),
                      ("cloud_points", int), ("cloud_radius", float),
                      ("q_moment", float), ("beta_shift", float)):
        setattr(cfg, key, kind(pairs[key]))
    cfg.verbose = str(pairs.get("verbose", "false")).lower() in ("1", "true", "yes", "on")
    return cfg


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
    if args.seeds is not None:
        overrides["seeds"] = _parse_seed_list(args.seeds)
    start = time.monotonic()
    try:
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
        print(f"numerics: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
