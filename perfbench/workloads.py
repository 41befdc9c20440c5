"""The four benchmark workloads: their inputs and the checks on their outputs.

Each workload is one ``rpde-lab`` command on a config kept in
``perfbench/configs``. The workload seed fixes the noise seeds the command
gets, so every command of a run processes the same inputs. The checks read
the command's CSV outputs and compare them with closed forms and with
properties the method must have, computed here with numpy alone, without
importing the program.
"""

from __future__ import annotations

import csv
import math
import os
import random

import numpy as np

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

# the sampler draws i.i.d. N(0, 1) increments from numpy's default_rng(seed)
# when the Hurst index is 1/2; the closed forms below regenerate them
_HURST = 0.5
_REL = 1e-9  # relative tolerance of every closed-form comparison


def read_kv(name: str) -> dict:
    """``key = value`` pairs of a config under perfbench/configs."""
    pairs = {}
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, value = line.split("=", 1)
                pairs[key.strip()] = value.strip()
    return pairs


def _rows(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = _REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _increments(seed: int, n_cells: int, span: float, noise_scale: float) -> np.ndarray:
    """First-level increments of the sampled noise over its n_cells cells."""
    rng = np.random.default_rng(seed)
    return noise_scale * rng.standard_normal(n_cells) * math.sqrt(span / n_cells)


def _unit_rows(seed: int, n_rows: int, n_modes: int, radius: float) -> np.ndarray:
    """Gaussian rows rescaled to Euclidean norm ``radius`` (alpha = 0 spaces)."""
    rows = np.random.default_rng(seed).standard_normal((n_rows, n_modes))
    return rows * (radius / np.sqrt(np.sum(rows * rows, axis=1)))[:, None]


def _eigenvalues(model: dict) -> np.ndarray:
    k = np.arange(1, int(model["n_modes"]) + 1, dtype=float)
    return (k * math.pi) ** 2 + float(model["lambda_a"])


class Workload:
    """One command line, the seeds it processes, and the checks on its output."""

    name = ""
    config = ""
    seeds_per_command = 1

    def __init__(self):
        self.exp = read_kv(self.config)
        self.model = read_kv(self.exp["model"])
        self.cons = read_kv(self.exp["constants"])
        if float(self.exp.get("hurst", _HURST)) != _HURST:
            raise ValueError(f"{self.config}: the closed-form checks need hurst = 0.5")
        if float(self.model.get("alpha", 0.0)) != 0.0:
            raise ValueError(f"{self.exp['model']}: the checks use Euclidean norms (alpha = 0)")

    def noise_seeds(self, seed: int) -> list:
        """The noise seeds passed to every command of a run with this seed."""
        return random.Random(f"{self.name}:{seed}").sample(range(1000, 1_000_000),
                                                           self.seeds_per_command)

    def argv(self, seed: int) -> list:
        seeds = ",".join(str(s) for s in self.noise_seeds(seed))
        return ["--config", os.path.join(CONFIG_DIR, self.config), "--seeds", seeds]

    def check(self, out: str, seed: int) -> list:
        """Problems found in the outputs under ``out``; empty when correct."""
        raise NotImplementedError


class AbsorbEnsemble(Workload):
    name = "absorb-ensemble"
    config = "absorb.txt"
    seeds_per_command = 4

    def __init__(self):
        super().__init__()
        model = self.model
        if model.get("g_kind", "linear") != "linear" or float(model.get("sigma_g", 0.0)) != 0.0 \
                or float(model.get("c_f", 0.0)) != 0.0:
            raise ValueError(f"{self.exp['model']}: the closed form needs linear diffusion "
                             "with sigma_g = 0 and no drift")

    def check(self, out, seed):
        exp, model = self.exp, self.model
        k = int(exp["trunc_k"])
        per_unit = int(exp["steps_per_unit"])
        scale = float(exp["noise_scale"])
        radius0 = float(exp["cloud_radius"])
        c_g = float(model["c_g"])
        mu = _eigenvalues(model)
        rows = _rows(os.path.join(out, "absorb.csv"))
        seeds = self.noise_seeds(seed)
        if [int(r["seed"]) for r in rows] != seeds:
            return [f"absorb.csv seeds {[r['seed'] for r in rows]} != {seeds}"]
        problems = []
        for row, s in zip(rows, seeds):
            # the noise covers [-k-1, 1]; the state is evolved over [-k, 0]
            dx = _increments(s, (k + 2) * per_unit, k + 2.0, scale)[per_unit:(k + 1) * per_unit]
            # with G(y) = c_g y each Euler step multiplies every mode by
            # e^{-mu dt} (1 + c_g dX + c_g^2 dX^2 / 2)
            gain = float(np.prod(1.0 + c_g * dx + 0.5 * (c_g * dx) ** 2))
            y0 = _unit_rows(10_000 + s, 1, mu.size, radius0)[0]
            want = abs(gain) * float(np.sqrt(np.sum((y0 * np.exp(-mu * k)) ** 2)))
            got = float(row["final_norm"])
            if not _close(got, want):
                problems.append(f"seed {s}: final_norm {got!r} != closed form {want!r}")
            radius = 1.0 + float(row["p1"]) * float(row["r_value"]) + float(row["p2"]) \
                + float(self.cons["delta_bar"])
            if not _close(float(row["radius"]), radius, 1e-12):
                problems.append(f"seed {s}: radius {row['radius']} != 1 + p1 r + p2 + delta_bar")
            if not got <= float(row["radius"]) or row["accepted"] != "1":
                problems.append(f"seed {s}: final_norm {got!r} not absorbed by {row['radius']}")
        return problems


class PullbackCloud(Workload):
    name = "pullback-cloud"
    config = "pullback.txt"

    def check(self, out, seed):
        exp = self.exp
        t_list = sorted(float(t) for t in exp["t_list"].split(","))
        lam_a = float(self.model["lambda_a"])
        cloud = _unit_rows(777, int(exp["cloud_points"]), int(self.model["n_modes"]),
                           float(exp["cloud_radius"]))
        diam0 = max(float(np.max(np.sqrt(np.sum((cloud - a) ** 2, axis=1)))) for a in cloud)
        rows = _rows(os.path.join(out, "pullback.csv"))
        (s,) = self.noise_seeds(seed)
        if [(int(r["seed"]), float(r["t"])) for r in rows] != [(s, t) for t in t_list]:
            return [f"pullback.csv rows do not cover seed {s} at t = {t_list}"]
        problems = []
        semis = []
        for row in rows:
            t = float(row["t"])
            bound = math.exp(-lam_a * t) * diam0
            if not float(row["diameter"]) <= bound:
                problems.append(f"t = {t}: diameter {row['diameter']} > e^(-lambda_a t) "
                                f"diam0 = {bound!r}")
            if row["semidistance"]:
                semis.append(float(row["semidistance"]))
            if row["accepted"] != "1":
                problems.append(f"t = {t}: absorbing radius not accepted")
        if len(semis) != len(t_list) - 1 or any(b > a for a, b in zip(semis, semis[1:])):
            problems.append(f"semidistances {semis} increase with t")
        return problems


class BoundsCalibrate(Workload):
    name = "bounds-calibrate"
    config = "bounds.txt"
    validation_seeds = 10

    def __init__(self):
        super().__init__()
        self.seeds_per_command = int(self.exp["train_seeds"]) + self.validation_seeds

    def noise_seeds(self, seed):
        # the program always trains on seeds 0 .. train_seeds - 1; the run
        # validates on validation_seeds of them. Out-of-sample validation
        # seeds make the command fail on some workload seeds (CHANGES.md).
        return random.Random(f"{self.name}:{seed}").sample(range(int(self.exp["train_seeds"])),
                                                           self.validation_seeds)

    def check(self, out, seed):
        rows = _rows(os.path.join(out, "bounds.csv"))
        seeds = self.noise_seeds(seed)
        want = [(s, kind) for s in seeds for kind in ("solution", "apriori")]
        if [(int(r["seed"]), r["kind"]) for r in rows] != want:
            return ["bounds.csv rows do not match the validation seeds"]
        problems = [f"seed {r['seed']}: {r['kind']} bound violated"
                    for r in rows if r["passed"] != "1"]
        # calibration picks m_big so that every training window has
        # rhs >= (1 + calib_margin) lhs, and the validation seeds are training seeds
        floor = (1.0 + float(self.exp["calib_margin"])) * (1.0 - _REL)
        problems += [f"seed {r['seed']}: solution rhs {r['rhs']} < (1 + calib_margin) lhs {r['lhs']}"
                     for r in rows if r["kind"] == "solution"
                     and not float(r["rhs"]) >= floor * float(r["lhs"])]
        # y0 has unit norm, and the controlled norm includes sup |y|
        problems += [f"seed {r['seed']}: solution lhs {r['lhs']} < 1 = |y0|"
                     for r in rows if r["kind"] == "solution" and not float(r["lhs"]) >= 1.0]
        return problems + self._check_constants(os.path.join(out, "constants.csv"))

    def _check_constants(self, path):
        rows = {r["name"]: r for r in _rows(path)}
        val = {name: float(r["value"]) for name, r in rows.items()}
        model, cons = self.model, self.cons
        problems = []
        for name, want in (("gamma", float(cons["gamma"])), ("eta", float(cons["eta"])),
                           ("m_tilde", float(cons["m_tilde"])),
                           ("sigma_f", float(model["sigma_f"])), ("c_f", float(model["c_f"])),
                           ("lambda_a", float(model["lambda_a"])),
                           ("mu1", float(_eigenvalues(model)[0]))):
            if not _close(val[name], want):
                problems.append(f"constants.csv primitive {name} = {val[name]!r}, config gives {want!r}")
        gamma, eta, sigma_f, c_f = val["gamma"], val["eta"], val["sigma_f"], val["c_f"]
        lam_a, mu1, n_tilde = val["lambda_a"], val["mu1"], val["n_tilde"]
        if rows["n_tilde"]["provenance"] == "calibrated":
            d_step = 1.0 / n_tilde
        else:  # d = (4 m_tilde)^(-1/(1 - max(sigma_f, 2 gamma)))
            d_step = (4.0 * val["m_tilde"]) ** (-1.0 / (1.0 - max(sigma_f, 2.0 * gamma)))
        # C_{-sigma_f} = sup_u u^sigma_f e^{-(1 - lambda_a/mu_1) u}
        c_minus = 1.0 if sigma_f == 0.0 else \
            (sigma_f / (1.0 - lam_a / mu1)) ** sigma_f * math.exp(-sigma_f)
        big_l = 2.0 * (c_minus * c_f * math.gamma(1.0 - sigma_f)) ** (1.0 / (1.0 - sigma_f)) \
            if c_f > 0 else 0.0
        for name, want in (("d_step", d_step),
                           ("q_moment", 4.0 * (1.0 + n_tilde) / (gamma - eta)),
                           ("big_l", big_l), ("lam", lam_a - big_l)):
            if not _close(val[name], want):
                problems.append(f"constants.csv {name} = {val[name]!r}, formula gives {want!r}")
        return problems


class GreedyHorizon(Workload):
    name = "greedy-horizon"
    config = "greedy.txt"

    def check(self, out, seed):
        exp, cons = self.exp, self.cons
        horizon = float(exp["horizon"])
        n_cells = int(round(horizon * int(exp["steps_per_unit"])))
        gamma, eta, chi = float(cons["gamma"]), float(cons["eta"]), float(cons["chi"])
        g = gamma - eta
        rows = _rows(os.path.join(out, "greedy.csv"))
        (s,) = self.noise_seeds(seed)
        if len(rows) != 1:
            return [f"greedy.csv holds {len(rows)} rows, want 1"]
        n, w = int(rows[0]["N"]), float(rows[0]["W"])
        # one-cell terms of the control; XX of a cell is dX^2 / 2
        dx = np.abs(_increments(s, n_cells, horizon, float(exp["noise_scale"])))
        dt = horizon / n_cells
        cells = float(np.sum(dt ** (-eta / g) * (dx ** (1.0 / g) + (0.5 * dx * dx) ** (0.5 / g))))
        unit = chi ** (1.0 / g)  # largest control a greedy step may hold
        problems = []
        if not w >= cells * (1.0 - _REL):
            problems.append(f"W = {w!r} < sum of cell costs {cells!r}")
        # every step holds at most chi^(1/g) of the superadditive control, so
        # N >= cells / unit; a step that stops before the horizon would exceed
        # unit with one more cell, so the steps with even index, which are
        # disjoint once extended by that cell, give (N - 1) / 2 < W / unit
        if not cells / unit <= n <= 2.0 * w / unit + 1.0:
            problems.append(f"N = {n} outside [{cells / unit:.4g}, {2.0 * w / unit + 1.0:.4g}]")
        return problems


WORKLOADS = {w.name: w for w in (AbsorbEnsemble, PullbackCloud, BoundsCalibrate, GreedyHorizon)}
