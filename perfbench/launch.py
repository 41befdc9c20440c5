"""Run one ``rpde-lab`` command the way the console script does, and time it.

Usage: launch.py STAMP TRACE -- CLI-ARGS...

Imports ``rpde_lab.cli`` from the checkout's ``src`` and calls its ``main``,
as the ``rpde-lab`` entry point does. After ``main`` returns, the
``time.monotonic()`` reading taken just before it started is written to
STAMP, so the caller can split the process's life into set-up and command
time. When TRACE is not ``-``, the public functions in ``TRACED`` are wrapped
at every binding through which the package calls them, and their call counts
and self times are written to TRACE as JSON.
"""

import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)

from rpde_lab import cli  # noqa: E402  (set-up ends once this import is done)

# (module, attribute path) of each traced function; a dotted path names a
# method, wrapped on its class
TRACED = (
    ("cli", "main"),
    ("roughpath", "sample_fbm"),
    ("roughpath", "holder_seminorm"),
    ("greedy", "greedy_times"),
    ("greedy", "control_w"),
    ("spectral", "SpectralModel.apply_f"),
    ("spectral", "SpectralModel.apply_g"),
    ("spectral", "SpectralModel.apply_dg"),
    ("solver", "solve_mild"),
    ("solver", "controlled_norm"),
    ("specfun", "certify_ml_bound"),
    ("attractor", "BoundConstants.with_m_big"),
    ("attractor", "eval_p_constants"),
    ("attractor", "calibrate_m_big"),
    ("attractor", "absorbing_radius"),
    ("attractor", "pullback_estimate"),
    ("configio", "write_csv"),
)


class Tracer:
    """Call counts and self times of wrapped functions.

    A function's self time is its wall time minus the wall time of the traced
    calls made inside it.
    """

    def __init__(self):
        self.stats = {}  # name -> [calls, self seconds, extra count]
        self._child = [0.0]  # traced time of the children of each open call

    def wrap(self, name, fn, count=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0])
        child = self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                child[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - inner
            if count is not None:
                stats[2] += count(result, args, kwargs)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function wherever a package module binds it."""
        import importlib
        import pkgutil

        import rpde_lab

        modules = [importlib.import_module(f"rpde_lab.{m.name}")
                   for m in pkgutil.iter_modules(rpde_lab.__path__)]
        for mod_name, attr in TRACED:
            *cls_name, fn_name = attr.split(".")
            holder = sys.modules[f"rpde_lab.{mod_name}"]
            if cls_name:
                holder = getattr(holder, cls_name[0], None)
            fn = getattr(holder, fn_name, None)
            if fn is None:
                print(f"launch: {mod_name}.{attr} not found; not traced", file=sys.stderr)
                continue
            wrapped = self.wrap(f"{mod_name}.{fn_name}", fn,
                                _solver_cells if fn_name == "solve_mild" else None)
            if cls_name:
                setattr(holder, fn_name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def write(self, path):
        import json

        out = {name: {"calls": c, "self_s": s, "count": n} for name, (c, s, n) in self.stats.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


def _solver_cells(result, args, kwargs):
    """Noise cells stepped by one solve_mild call."""
    cells_per_step = kwargs.get("cells_per_step", args[4] if len(args) > 4 else 1)
    return (result.times.size - 1) * cells_per_step


def main(argv):
    stamp_path, trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py STAMP TRACE -- CLI-ARGS...")
    loaded = os.path.dirname(os.path.abspath(cli.__file__))
    if loaded != os.path.join(_SRC, "rpde_lab"):
        print(f"launch: rpde_lab was imported from {loaded}, not from {_SRC}", file=sys.stderr)
        return 97
    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        tracer.install()
    entry = cli.main
    started = time.monotonic()
    try:
        return entry(cli_args)
    finally:
        with open(stamp_path, "w", encoding="utf-8") as fh:
            fh.write(repr(started))
        if tracer is not None:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
