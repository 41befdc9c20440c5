"""Experiment runner: configs, outputs, exit codes, determinism."""

import dataclasses
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from rpde_lab import cli
from rpde_lab.configio import load_kv_file, write_kv_file


def run(args):
    return cli.main(args)


# small configs of the pool commands (seeds, sizes); bounds also gets a model
SMALL = {
    "solve": "seeds = 5,6,7\n",
    "greedy": "seeds = 3,4,5\nhorizon = 2.0\n",
    "absorb": "seeds = 1,2\ntrunc_k = 4\neps_points = 5\n",
    "pullback": "seeds = 1\ntrunc_k = 3\neps_points = 5\nt_list = 1,2\ncloud_points = 2\n",
    "bounds": "seeds = 50,51,52\ntrain_seeds = 12\nhorizon = 4.0\nsteps_per_unit = 64\n",
}


def small_config(tmp_path, command):
    cfg = tmp_path / f"{command}.txt"
    text = f"command = {command}\n{SMALL[command]}"
    if command == "bounds":
        model = tmp_path / "model.txt"
        write_kv_file(str(model), {"n_modes": 8, "lambda_a": 4.0, "alpha": 0.0,
                                   "sigma_f": 0.25, "sigma_g": 0.0, "c_f": 0.5,
                                   "c_g": 0.0005, "g_kind": "linear"})
        text += f"model = {model}\n"
    cfg.write_text(text)
    return cfg


class TestBasics:
    def test_lift_writes_paths(self, tmp_path):
        out = tmp_path / "lift"
        assert run(["lift", "--seeds", "1,2", "--out", str(out)]) == 0
        t, x, xx = np.genfromtxt(str(out / "path_seed1.csv"), delimiter=",", skip_header=1,
                                 unpack=True)
        assert t.size - 1 == 4 * 32  # default horizon times steps per unit
        assert x[0] == 0.0 and np.isnan(xx[-1]) and np.isfinite(xx[:-1]).all()
        assert (out / "manifest.txt").exists()

    def test_greedy_schema(self, tmp_path):
        out = tmp_path / "greedy"
        assert run(["greedy", "--seeds", "3", "--out", str(out)]) == 0
        lines = (out / "greedy.csv").read_text().splitlines()
        assert lines[0] == "interval,N,W,chi,eta"
        assert len(lines) == 2

    def test_specfun_cert(self, tmp_path):
        out = tmp_path / "cert"
        assert run(["specfun-cert", "--out", str(out)]) == 0
        lines = (out / "certificates.csv").read_text().splitlines()
        assert lines[0] == "beta,z_min,z_max,m_beta,n_grid"

    def test_gronwall_curve(self, tmp_path):
        out = tmp_path / "gr"
        assert run(["gronwall", "--out", str(out)]) == 0
        lines = (out / "gronwall_bound.csv").read_text().splitlines()
        assert lines[0] == "t,bound"

    def test_ergodic_report(self, tmp_path):
        out = tmp_path / "erg"
        assert run(["ergodic", "--seeds", ",".join(str(s) for s in range(6)),
                    "--out", str(out)]) == 0
        lines = (out / "ergodic.csv").read_text().splitlines()
        assert lines[0].startswith("q,k_q,kk_q,k_bold")
        assert lines[1].split(",")[-1] == "1"  # desk defaults pass the gap


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert run(["solve", "--config", str(tmp_path / "nope.txt")]) == 2

    def test_missing_constants_file(self, tmp_path):
        cfg = tmp_path / "exp.txt"
        cfg.write_text("command = solve\nconstants = /nonexistent/cons.txt\n")
        assert run(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_no_command(self, tmp_path):
        cfg = tmp_path / "empty.txt"
        cfg.write_text("seeds = 1\n")
        assert run(["--config", str(cfg)]) == 2

    def test_numerics_exit_code(self, tmp_path, capsys):
        # unscaled rough noise at a large moment order trips the overflow guard
        cfg = tmp_path / "erg.txt"
        cfg.write_text("command = ergodic\nnoise_scale = 1.0\nhurst = 0.45\n"
                       "q_moment = 240\nseeds = 1,2,3,4\nhorizon = 4.0\n"
                       f"out = {tmp_path / 'o'}\n")
        assert run(["--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "max_safe_q=" in err and "obs_max=" in err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "typo.txt"
        cfg.write_text(f"command = lift\nhorizn = 8\nout = {tmp_path / 'o'}\n")
        assert run(["--config", str(cfg)]) == 2
        assert "horizn" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,line,env,key", [
        ("absorb", "", "abc", cli.SEED_ENV),
        ("absorb", "steps_per_unit = 0", None, "steps_per_unit"),
        ("absorb", "hurst = 0.2", None, "hurst"),
        ("absorb", "trunc_k = 1", None, "trunc_k"),
        ("absorb", "t_list = 1,x", None, "t_list"),
        ("absorb", "t_list = 0,1", None, "t_list"),
        ("absorb", "eps_points = 0", None, "eps_points"),
        ("absorb", "cloud_points = 0", None, "cloud_points"),
        ("absorb", "q_moment = 0.5", None, "q_moment"),
        ("absorb", "train_seeds = 0", None, "train_seeds"),
        # spans too short for the command: one cell, or less than a unit window
        ("lift", "steps_per_unit = 1\nhorizon = 1.0", None, "steps_per_unit"),
        ("solve", "steps_per_unit = 1\nhorizon = 1.0", None, "steps_per_unit"),
        ("greedy", "steps_per_unit = 1\nhorizon = 1.0", None, "steps_per_unit"),
        ("bounds", "steps_per_unit = 1\nhorizon = 1.0", None, "steps_per_unit"),
        ("ergodic", "horizon = 0.5", None, "horizon"),
        ("bounds", "horizon = 0.5", None, "horizon"),
        # a grid step that does not divide one unit: 42 cells on 1.3
        ("ergodic", "horizon = 1.3", None, "horizon"),
        ("bounds", "horizon = 1.3", None, "horizon"),
        ("bounds", "calib_margin = -2", None, "calib_margin"),
        ("pullback", "cloud_radius = -1", None, "cloud_radius"),
        # values the range tests above would pass or that crash later
        ("absorb", "seeds = -1", None, "seeds"),
        ("absorb", "noise_scale = nan", None, "noise_scale"),
        ("lift", "horizon = inf", None, "horizon"),
        ("pullback", "t_list = 2,nan", None, "t_list"),
        ("absorb", "jobs = 0", None, "jobs"),
        ("absorb", "jobs = -3", None, "jobs"),
    ], ids=["seed_offset", "steps_per_unit", "hurst", "trunc_k", "t_list_parse",
            "t_list_range", "eps_points", "cloud_points", "q_moment", "train_seeds",
            "lift_one_cell", "solve_one_cell", "greedy_one_cell", "bounds_one_cell",
            "ergodic_short_horizon",
            "bounds_short_horizon", "ergodic_off_unit_grid", "bounds_off_unit_grid",
            "calib_margin", "cloud_radius", "negative_seed", "nan_noise_scale",
            "inf_horizon", "nan_in_t_list", "zero_jobs", "negative_jobs"])
    def test_bad_value(self, tmp_path, monkeypatch, capsys, command, line, env, key):
        if env is not None:
            monkeypatch.setenv(cli.SEED_ENV, env)
        cfg = tmp_path / "bad.txt"
        cfg.write_text(f"command = {command}\n{line}\nout = {tmp_path / 'o'}\n")
        assert run(["--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_seed_list_option(self, tmp_path):
        assert run(["lift", "--seeds", "1,x", "--out", str(tmp_path / "o")]) == 2


class TestDeterminism:
    @pytest.mark.parametrize("command", sorted(SMALL))
    def test_replay_and_jobs(self, tmp_path, command):
        # every command that runs seeds on the worker pool writes the same
        # bytes with one worker, with two, and when its manifest is replayed
        cfg = small_config(tmp_path, command)
        one, two, replay = tmp_path / "one", tmp_path / "two", tmp_path / "replay"
        assert run(["--config", str(cfg), "--jobs", "1", "--out", str(one)]) == 0
        assert run(["--config", str(cfg), "--jobs", "2", "--out", str(two)]) == 0
        assert run(["--config", str(one / "manifest.txt"), "--out", str(replay)]) == 0
        names = sorted(p.name for p in one.glob("*.csv"))
        assert names
        for out in (two, replay):
            assert sorted(p.name for p in out.glob("*.csv")) == names
            for name in names:
                assert (out / name).read_bytes() == (one / name).read_bytes()

    def test_manifest_replay(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run(["greedy", "--seeds", "7", "--out", str(out1)]) == 0
        assert run(["--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
        assert (out1 / "greedy.csv").read_bytes() == (out2 / "greedy.csv").read_bytes()

    def test_replay_of_manifest_with_retired_beta_shift(self, tmp_path):
        # manifests of earlier versions carry beta_shift, a key no command
        # read; they still replay, to the same bytes, whatever its value
        cfg = small_config(tmp_path, "absorb")
        one, old, replay = tmp_path / "one", tmp_path / "old.txt", tmp_path / "replay"
        assert run(["--config", str(cfg), "--out", str(one)]) == 0
        text = (one / "manifest.txt").read_text()
        assert "beta_shift" not in text
        old.write_text(text.replace("q_moment = 0.0\n", "q_moment = 0.0\nbeta_shift = 0.3\n"))
        assert "beta_shift = 0.3" in old.read_text()
        assert run(["--config", str(old), "--out", str(replay)]) == 0
        assert (replay / "absorb.csv").read_bytes() == (one / "absorb.csv").read_bytes()
        assert "beta_shift" not in (replay / "manifest.txt").read_text()

    def test_seed_offset_env(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        monkeypatch.setenv(cli.SEED_ENV, "10")
        assert run(["lift", "--seeds", "1", "--out", str(out1)]) == 0
        assert (out1 / "path_seed11.csv").exists()
        monkeypatch.setenv(cli.SEED_ENV, "0")
        assert run(["lift", "--seeds", "11", "--out", str(out2)]) == 0
        a = (out1 / "path_seed11.csv").read_bytes()
        assert a == (out2 / "path_seed11.csv").read_bytes()

    def test_manifest_replay_ignores_seed_offset(self, tmp_path, monkeypatch):
        # the manifest records the seeds that ran; replaying it must not shift them again
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        monkeypatch.setenv(cli.SEED_ENV, "5")
        assert run(["lift", "--seeds", "1", "--out", str(out1)]) == 0
        assert (out1 / "path_seed6.csv").exists()
        assert run(["--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
        assert sorted(p.name for p in out2.glob("*.csv")) == ["path_seed6.csv"]
        assert (out1 / "path_seed6.csv").read_bytes() == (out2 / "path_seed6.csv").read_bytes()

    @pytest.mark.parametrize("jobs,items,cpus,expect", [
        (8, 5, 2, 2),      # more jobs than CPUs
        (8, 3, 16, 3),     # more jobs than items
        (2, 5, 16, 2),     # jobs is the least
        (8, 5, 1, None),   # one CPU: no pool at all
        (8, 5, None, None),  # CPU count unknown: no pool at all
    ])
    def test_pool_size_clamped(self, monkeypatch, jobs, items, cpus, expect):
        # one contiguous chunk per worker, sizes within one of each other
        started = []
        chunks = []

        def negate(chunk):
            chunks.append(list(chunk))
            return [-k for k in chunk]

        class RecordingExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, seq):
                return map(fn, seq)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert cli._parallel_map(negate, range(items), jobs) == [-k for k in range(items)]
        assert started == ([] if expect is None else [expect])
        assert len(chunks) == (expect or 1)
        assert [k for chunk in chunks for k in chunk] == list(range(items))
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1

    def test_manifest_records_hash_and_versions(self, tmp_path):
        out = tmp_path / "m"
        assert run(["lift", "--seeds", "1", "--out", str(out)]) == 0
        pairs = load_kv_file(str(out / "manifest.txt"))
        for key in ("config_hash", "package_version", "numpy_version", "wall_time_s"):
            assert key in pairs

    def test_manifest_keys_follow_field_order(self, tmp_path):
        # the settings come first, in dataclass field order, and config_hash
        # is the digest of exactly those lines
        out = tmp_path / "m"
        assert run(["lift", "--seeds", "1,2", "--out", str(out)]) == 0
        lines = (out / "manifest.txt").read_text().splitlines(keepends=True)
        keys = [line.split(" = ", 1)[0] for line in lines]
        names = [f.name for f in dataclasses.fields(cli.ExperimentConfig)
                 if f.name != "config_path"]
        assert keys[:len(names)] == names
        assert keys[len(names)] == "config_hash"
        digest = hashlib.sha256("".join(lines[:len(names)]).encode()).hexdigest()
        assert lines[len(names)] == f"config_hash = {digest}\n"


class TestPipelines:
    def test_bounds_pipeline_small(self, tmp_path):
        cfg = small_config(tmp_path, "bounds")
        assert run(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "bounds.csv").read_text().splitlines()
        assert rows[0] == "seed,interval,kind,lhs,rhs,passed"
        assert all(line.endswith(",1") for line in rows[1:])
        cons_rows = (tmp_path / "o" / "constants.csv").read_text().splitlines()
        assert cons_rows[0] == "name,value,provenance"
        provs = {line.split(",")[-1] for line in cons_rows[1:]}
        assert provs <= {"primitive", "derived", "calibrated"}

    def test_bounds_exit_3_names_the_misses(self, tmp_path, capsys):
        # fitted on training seeds 0-39, m_big misses the solution bound of
        # seed 241682 (lhs/rhs about 1.04); seed 5 is a training seed
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = os.path.join(root, "perfbench", "configs", "bounds.txt")
        out = tmp_path / "o"
        assert run(["--config", cfg, "--seeds", "241682,5", "--out", str(out)]) == 3
        rows = [line.split(",") for line in (out / "bounds.csv").read_text().splitlines()]
        assert [(r[0], r[2], r[5]) for r in rows[1:]] == [
            ("241682", "solution", "0"), ("241682", "apriori", "1"),
            ("5", "solution", "1"), ("5", "apriori", "1")]
        lhs, rhs = rows[1][3:5]
        assert float(lhs) > float(rhs)
        assert capsys.readouterr().err == (
            "numerics: bound validation found violations (violations=seed 241682 "
            f"solution on 0..1: lhs {lhs} > rhs {rhs})\n")
        assert (out / "constants.csv").exists()

    def test_bounds_exit_3_writes_a_replayable_manifest(self, tmp_path, capsys):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = os.path.join(root, "perfbench", "configs", "bounds.txt")
        out, replay = tmp_path / "o", tmp_path / "replay"
        assert run(["--config", cfg, "--seeds", "241682,5", "--out", str(out)]) == 3
        assert run(["--config", str(out / "manifest.txt"), "--out", str(replay)]) == 3
        first, second = capsys.readouterr().err.splitlines()
        assert first == second and first.startswith("numerics: bound validation")
        for name in ("bounds.csv", "constants.csv"):
            assert (replay / name).read_bytes() == (out / name).read_bytes()
        assert (replay / "manifest.txt").exists()

    def test_absorb_small(self, tmp_path):
        cfg = small_config(tmp_path, "absorb")
        assert run(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "absorb.csv").read_text().splitlines()
        assert lines[0].startswith("seed,radius")
        assert len(lines) == 3

    def test_pullback_small(self, tmp_path):
        cfg = small_config(tmp_path, "pullback")
        assert run(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "pullback.csv").read_text().splitlines()
        assert lines[0] == "seed,t,diameter,semidistance,radius,accepted"
        assert len(lines) == 3

    def test_pullback_reports_blow_ups_on_stderr(self, tmp_path, monkeypatch, capsys):
        # the report only goes to stderr: pullback.csv is the same with and
        # without blow-ups among the points
        cfg = small_config(tmp_path, "pullback")
        assert run(["--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
        assert capsys.readouterr().err == ""
        real = cli.att.pullback_estimate

        def partly_blown(*args):
            rep = real(*args)
            rows = tuple(dataclasses.replace(r, blew_up=1) if r.t == 2.0 else r
                         for r in rep.rows)
            return dataclasses.replace(rep, rows=rows)

        monkeypatch.setattr(cli.att, "pullback_estimate", partly_blown)
        assert run(["--config", str(cfg), "--out", str(tmp_path / "blown")]) == 0
        assert capsys.readouterr().err == \
            "pullback: seed 1, t = 2.0: 1 of 2 trajectories blew up\n"
        assert ((tmp_path / "blown" / "pullback.csv").read_bytes()
                == (tmp_path / "plain" / "pullback.csv").read_bytes())

    def test_absorb_and_pullback_leave_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma lazily, about 13 ms of every process
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from rpde_lab import cli\n"
                "for cfg in sys.argv[2:]:\n"
                "    assert cli.main(['--config', cfg, '--out', cfg + '.out']) == 0\n"
                "print('numpy.ma' in sys.modules)")
        cfgs = [str(small_config(tmp_path, command)) for command in ("absorb", "pullback")]
        proc = subprocess.run([sys.executable, "-c", code, src, *cfgs],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
