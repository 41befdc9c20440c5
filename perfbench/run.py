"""Seed-throughput benchmark of the ``rpde-lab`` commands.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

A run is a closed loop with one client: it launches one ``rpde-lab``
command at a time as its own process, with ``--jobs 1`` and a fresh output
directory, and starts the next when the last has ended, until the next
command would end after ``--seconds``. One untimed warm-up command comes
first. Every command of a run gets the same inputs, fixed by ``--seed``
(see workloads.py), and every command's outputs are checked.

With ``--trace 0`` the run reports, per workload:
  seeds_per_s  noise realizations processed per second of command time,
               from the median command; command time excludes set-up
  setup_s      median time from launching a process until the CLI's main
               starts (interpreter start, numpy and package import)
  peak_rss_mb  largest peak RSS of any command process of the run

With ``--trace 1`` every other command runs with the listed package
functions wrapped (launch.py), and the run reports their self time and call
counts per seed, plus the tracing overhead: traced minus untraced
seeds_per_s. ``--smoke`` runs one command of every workload with its checks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
RESULTS = os.path.join(HERE, "results")

COMMAND_LIMIT_S = 75.0  # a command still running after this is killed and failed

# per-layer metrics of the traced run, all per seed: (metric, unit)
PER_LAYER = (
    ("roughpath.holder_seminorm.self_s", "s/seed"),
    ("roughpath.holder_seminorm.calls", "calls/seed"),
    ("attractor.eval_p_constants.self_s", "s/seed"),
    ("attractor.eval_p_constants.calls", "calls/seed"),
    ("attractor.absorbing_radius.self_s", "s/seed"),
    ("greedy.greedy_times.self_s", "s/seed"),
    ("greedy.greedy_times.calls", "calls/seed"),
    ("greedy.control_w.self_s", "s/seed"),
    ("spectral.apply_g.self_s", "s/seed"),
    ("spectral.apply_g.calls", "calls/seed"),
    ("spectral.apply_dg.self_s", "s/seed"),
    ("spectral.apply_f.self_s", "s/seed"),
    ("attractor.pullback_estimate.self_s", "s/seed"),
    ("solver.solve_mild.self_s", "s/seed"),
    ("solver.solve_mild.cells", "cells/seed"),
    ("solver.controlled_norm.self_s", "s/seed"),
    ("solver.controlled_norm.calls", "calls/seed"),
    ("attractor.calibrate_m_big.self_s", "s/seed"),
    ("specfun.certify_ml_bound.self_s", "s/seed"),
    ("specfun.certify_ml_bound.calls", "calls/seed"),
    ("attractor.with_m_big.calls", "calls/seed"),
    ("roughpath.sample_fbm.self_s", "s/seed"),
    ("cli.main.self_s", "s/seed"),
    ("configio.write_csv.self_s", "s/seed"),
)


def child_env() -> dict:
    """Environment of every command: the checkout's package, one BLAS thread,
    and no seed offset (cli.load_experiment would add it to every seed)."""
    env = dict(os.environ)
    env.pop("RPDE_LAB_SEED_OFFSET", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


@dataclass
class Command:
    """Outcome and timings of one launched command."""

    exit_code: int
    setup_s: float
    command_s: float
    rss_mb: float
    traced: bool
    stats: dict  # per traced function: calls, self_s and count
    problems: list

    @property
    def failed(self) -> bool:
        return self.exit_code != 0


def _wait(pid: int, limit: float):
    """os.wait4 on pid; the child is killed once it has run ``limit`` seconds."""
    def expire(signum, frame):
        raise TimeoutError

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        return os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def run_command(workload, seed: int, workdir: str, env: dict, trace: bool) -> Command:
    """Launch one command in a fresh directory, time it, check its outputs."""
    os.makedirs(workdir)
    out = os.path.join(workdir, "out")
    stamp = os.path.join(workdir, "stamp")
    trace_path = os.path.join(workdir, "trace.json")
    argv = [sys.executable, LAUNCH, stamp, trace_path if trace else "-", "--",
            *workload.argv(seed), "--out", out, "--jobs", "1"]
    with open(os.path.join(workdir, "log"), "wb") as log:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, log.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
        launched = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        try:
            _, status, usage = _wait(pid, COMMAND_LIMIT_S)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        ended = time.monotonic()
    code = os.waitstatus_to_exitcode(status)
    try:
        with open(stamp, encoding="utf-8") as fh:
            started = float(fh.read())
    except (OSError, ValueError):
        started = launched  # died before main: all of its life counts as command time
        code = code or 1
    problems = []
    stats = {}
    if code == 0:
        try:
            problems = workload.check(out, seed)
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if trace:
            with open(trace_path, encoding="utf-8") as fh:
                stats = json.load(fh)
    else:
        with open(os.path.join(workdir, "log"), encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(f"{workload.name}: command exited {code}:\n{tail}", file=sys.stderr)
    shutil.rmtree(workdir)
    return Command(code, started - launched, ended - started, usage.ru_maxrss / 1024.0,
                   trace, stats, problems)


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 max_commands: int | None = None, warmup: bool = True) -> dict:
    """Closed loop of commands for ``seconds``; returns counts and metrics."""
    env = child_env()
    rundir = os.path.join(RESULTS, f"{workload.name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    problems = []
    if warmup:
        first = run_command(workload, seed, os.path.join(rundir, "warmup"), env, False)
        problems += first.problems
    # a round is one command, or an untraced and a traced one when tracing
    per_round = 2 if trace else 1
    commands = []
    begin = time.monotonic()
    while True:
        for k in range(per_round):
            workdir = os.path.join(rundir, f"c{len(commands):04d}")
            commands.append(run_command(workload, seed, workdir, env, trace and k == 1))
        if max_commands is not None and len(commands) >= max_commands:
            break
        typical = statistics.median(c.setup_s + c.command_s for c in commands)
        if time.monotonic() - begin + per_round * typical > seconds:
            break
    shutil.rmtree(rundir, ignore_errors=True)
    for c in commands:
        problems += c.problems
    for p in problems[:20]:
        print(f"{workload.name}: CHECK FAILED: {p}", file=sys.stderr)
    plain = [c for c in commands if not c.traced]
    traced = [c for c in commands if c.traced]
    per_s = workload.seeds_per_command / statistics.median(c.command_s for c in plain)
    if trace:
        metrics = layer_metrics(workload, traced, per_s)
    else:
        metrics = {
            "seeds_per_s": (per_s, "seeds/s"),
            "setup_s": (statistics.median(c.setup_s for c in plain), "s"),
            "peak_rss_mb": (max(c.rss_mb for c in plain), "MiB"),
        }
    return {"correct": not problems, "attempted": len(commands),
            "failed": sum(c.failed for c in commands), "metrics": metrics}


def layer_metrics(workload, traced, per_s: float) -> dict:
    """Per-seed self times and counts of the traced commands."""
    seeds = workload.seeds_per_command * len(traced)
    total = {}
    for c in traced:
        for name, st in c.stats.items():
            acc = total.setdefault(name, {"calls": 0, "self_s": 0.0, "count": 0})
            for key in acc:
                acc[key] += st[key]
    metrics = {}
    for metric, unit in PER_LAYER:
        name, field = metric.rsplit(".", 1)
        st = total.get(name, {})
        value = st.get("count" if field == "cells" else field, 0)
        metrics[metric] = (value / seeds, unit)
    traced_per_s = workload.seeds_per_command / statistics.median(c.command_s for c in traced)
    metrics["trace.overhead_seeds_per_s"] = (traced_per_s - per_s, "seeds/s")
    # every traced layer's share of the traced command time, for the README
    busy = sum(c.command_s for c in traced)
    print(f"{workload.name}: traced command time {busy / seeds:.4g} s/seed; self-time shares:",
          file=sys.stderr)
    for name, st in sorted(total.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:32s} {st['self_s'] / seeds:10.4g} s/seed {100 * st['self_s'] / busy:5.1f} %"
              f" {st['calls'] / seeds:10.4g} calls/seed", file=sys.stderr)
    return metrics


def as_json(metrics: dict, prefix: str = "") -> dict:
    return {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=28.0, help="run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one command per workload, with its checks")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rpde_lab", "cli.py")):
        print(f"run.py: no rpde_lab package under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.smoke:
        names, budget, warmup = list(WORKLOADS), 1 + args.trace, False
    elif args.workload == "all":
        names, budget, warmup = list(WORKLOADS), None, True
    elif args.workload in WORKLOADS:
        names, budget, warmup = [args.workload], None, True
    else:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace),
                           max_commands=budget, warmup=warmup)
        results[name] = res
        shown = ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in res["metrics"].items()
                          if not args.trace or not k.endswith(".calls"))
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}; {shown}")
    if len(names) == 1:
        metrics = as_json(results[names[0]]["metrics"])
    else:
        metrics = {}
        for name, res in results.items():
            metrics.update(as_json(res["metrics"], f"{name}."))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
