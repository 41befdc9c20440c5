"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import numpy as np
import pytest

from rpde_lab import acceptance


def _report(result):
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] criterion {result.index}: {result.name} -- {result.detail}")
    assert result.passed, result.detail


def test_criterion_1_chen_relation():
    _report(acceptance.criterion_1())


def test_criterion_2_greedy_control():
    _report(acceptance.criterion_2())


def test_criterion_3_special_functions():
    _report(acceptance.criterion_3())


def test_criterion_4_gronwall_bounds():
    _report(acceptance.criterion_4())


def test_criterion_5_solver_oracle():
    _report(acceptance.criterion_5())


def test_criterion_6_bound_pipeline():
    _report(acceptance.criterion_6())


def test_criterion_7_absorbing_pullback():
    _report(acceptance.criterion_7())


def test_criterion_8_attractor_regularity():
    _report(acceptance.criterion_8())


def test_criterion_9_determinism():
    _report(acceptance.criterion_9())


def ref_partition_totals(cost):
    """The loop oracle's enumeration, verbatim: the cost of each partition
    of the grid of cost, in mask order, summed by Python's sum."""
    n = cost.shape[0] - 1
    interior = n - 1
    totals = []
    for mask in range(2 ** interior):
        cuts = [0]
        for b in range(interior):
            if mask >> b & 1:
                cuts.append(b + 1)
        cuts.append(n)
        totals.append(sum(cost[a, b] for a, b in zip(cuts, cuts[1:])))
    return totals


def ref_oracle_control(x, xx, dt, gamma, eta):
    """The loop oracle that criterion 2's array enumeration replaced, verbatim."""
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
    best = 0.0
    for total in ref_partition_totals(cost):
        best = max(best, total)
    return best


@pytest.mark.parametrize("n", range(1, 12))
def test_oracle_enumeration_matches_loop_oracle(n):
    # criterion 2's instances (gamma 0.4, dt 0.1) at eta 0.1, and eta = 0;
    # every partition's total, in mask order, and the maximum, bit for bit
    rng = np.random.default_rng([20240, n])
    for eta in (0.1, 0.0):
        for _ in range(20):
            x = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, 0.4, n))])
            xx = rng.normal(0.0, 0.05, n)
            cost = acceptance._oracle_costs(x, xx, 0.1, 0.4, eta)
            totals = acceptance._partition_totals(cost)
            assert totals.shape == (2 ** (n - 1),)
            assert np.array_equal(totals, np.array(ref_partition_totals(cost)))
            assert acceptance._oracle_control(x, xx, 0.1, 0.4, eta) == \
                ref_oracle_control(x, xx, 0.1, 0.4, eta)
