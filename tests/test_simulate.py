import math

import numpy as np
import pytest

from crowdtree import (
    AssignmentStrategy,
    assign_proposed,
    effective_table,
    exact_misclassification,
    simulate,
    sweep_error,
    sweep_workers,
    validate_table,
)
from crowdtree.errors import ValidationError
from crowdtree.fixtures import demo_table, designed_tree
from crowdtree.model import DecisionTree, Internal, Leaf
from crowdtree.simulate import _bits, _trial_key

import support

TABLE = demo_table(0.05)
TREE = designed_tree()
EXACT_PM = 0.082311875


def _u01(seed, trial, counter):
    """Uniform [0, 1) values of the simulator's draws."""
    return (_bits(_trial_key(seed, trial), counter) >> np.uint64(11)) * 2.0**-53


def test_u01_uniformity():
    trial = np.arange(200_000, dtype=np.uint64)
    draws = _u01(np.uint64(12345), trial, np.uint64(3))
    assert abs(draws.mean() - 0.5) < 0.004
    assert abs(draws.var() - 1.0 / 12.0) < 0.002
    assert draws.min() >= 0.0 and draws.max() < 1.0
    for t in range(0, 200_000, 4999):
        assert draws[t] == support.u01_int(12345, t, 3)
    # different counters decorrelate
    other = _u01(np.uint64(12345), trial, np.uint64(4))
    assert abs(np.corrcoef(draws, other)[0, 1]) < 0.01


def test_simulate_zero_errors_never_misclassifies():
    table = demo_table(0.0)
    report = simulate(TREE, table, trials=20_000, seed=5)
    assert report.misclassified == 0
    assert report.p_hat == 0.0
    # error-free objects walk exactly their own path, so the question count
    # is the drawn class mix weighted by path depth
    depths = {"c1": 2, "c2": 4, "c3": 3, "c4": 1, "c5": 4}
    drawn = report.confusion.sum(axis=1)
    expected = sum(
        int(drawn[i]) * depths[c] for i, c in enumerate(table.classes)
    ) / report.trials
    assert report.mean_questions == pytest.approx(expected, abs=1e-12)
    assert abs(report.mean_questions - 1.7) < 0.03  # 4 sigma of the depth spread


def test_simulate_matches_exact_within_four_sigma():
    trials = 200_000
    report = simulate(TREE, TABLE, trials=trials, seed=11)
    sigma = math.sqrt(EXACT_PM * (1 - EXACT_PM) / trials)
    assert abs(report.p_hat - EXACT_PM) <= 4 * sigma


def test_simulate_convergence_scaling():
    for trials in (10_000, 100_000, 1_000_000):
        report = simulate(TREE, TABLE, trials=trials, seed=2)
        sigma = math.sqrt(EXACT_PM * (1 - EXACT_PM) / trials)
        assert abs(report.p_hat - EXACT_PM) <= 4 * sigma


def test_simulate_lane_independence():
    base = simulate(TREE, TABLE, trials=50_000, seed=9, lanes=1)
    for lanes in (2, 4, 8):
        other = simulate(TREE, TABLE, trials=50_000, seed=9, lanes=lanes)
        assert other.p_hat == base.p_hat
        assert (other.confusion == base.confusion).all()
        assert other.mean_questions == base.mean_questions


def test_simulate_report_invariants():
    report = simulate(TREE, TABLE, trials=40_000, seed=4)
    assert int(report.confusion.sum()) == report.trials
    assert report.misclassified == int(report.confusion.sum() - np.trace(report.confusion))
    assert report.p_hat == report.misclassified / report.trials
    half = 1.96 * math.sqrt(report.p_hat * (1 - report.p_hat) / report.trials)
    assert report.ci_high - report.ci_low == pytest.approx(2 * half, abs=1e-15)
    # class draws follow the priors within 4 sigma each
    row_sums = report.confusion.sum(axis=1)
    for i, prior in enumerate(TABLE.priors):
        sigma = math.sqrt(prior * (1 - prior) * report.trials)
        assert abs(row_sums[i] - prior * report.trials) <= 4 * sigma


def test_simulate_with_fused_workers_matches_exact_effective():
    # when the table's own error equals the worker error, seated and extra
    # workers are exchangeable and the fused group error is exact
    table = demo_table(0.2)
    alloc, _ = assign_proposed(TREE, table, 4, 0.2)
    expected = exact_misclassification(TREE, effective_table(table, alloc))
    trials = 200_000
    report = simulate(TREE, table, alloc, trials=trials, seed=21)
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(report.p_hat - expected) <= 4 * sigma
    assert report.config["allocation"]["extra_pairs"] == dict(alloc.extra_pairs)


def test_simulate_off_path_objects_still_reach_a_leaf():
    # the heavy class faces an undefined test after a root error; the trial
    # must still land on some leaf and count as a misclassification
    table = demo_table(0.3)
    report = simulate(TREE, table, trials=30_000, seed=3)
    heavy = TABLE.classes.index("c4")
    row = report.confusion[heavy]
    assert row.sum() > 0
    assert row[heavy] < row.sum()  # some root errors happened
    misrouted = row.sum() - row[heavy]
    assert misrouted > 0


def test_simulate_validates_args():
    with pytest.raises(ValidationError):
        simulate(TREE, TABLE, trials=0)
    with pytest.raises(ValidationError):
        simulate(TREE, TABLE, trials=10, lanes=0)


def test_sweep_error_shape():
    grid = [0.05, 0.1, 0.2]
    points = sweep_error(TABLE, grid, n_random_trees=10, seed=0)
    assert [p.error_prob for p in points] == grid
    for p in points:
        assert p.designed_pm <= p.random_mean_pm
        assert p.random_std_pm >= 0.0
    assert points == sweep_error(TABLE, grid, n_random_trees=10, seed=0)


def test_sweep_error_rejects_bad_grid():
    with pytest.raises(ValidationError):
        sweep_error(TABLE, [0.0], n_random_trees=2)
    with pytest.raises(ValidationError):
        sweep_error(TABLE, [0.5], n_random_trees=2)


def test_sweep_error_single_tree_instance_designed_equals_random():
    table = validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], 0.1)
    points = sweep_error(table, [0.05, 0.2], n_random_trees=5, seed=0)
    for p in points:
        assert p.designed_pm == pytest.approx(p.random_mean_pm, abs=1e-15)
        assert p.random_std_pm == pytest.approx(0.0, abs=1e-15)


def test_sweep_workers_k0_all_strategies_coincide():
    points = sweep_workers(TREE, TABLE, [0], list(AssignmentStrategy), 0.2, seed=0)
    values = {p.pm for p in points}
    assert len(values) == 1
    assert values.pop() == pytest.approx(0.29984, abs=1e-10)


def test_sweep_workers_every_curve_non_increasing():
    points = sweep_workers(
        TREE, TABLE, range(0, 16), list(AssignmentStrategy), 0.2, seed=0, random_draws=20
    )
    curves: dict[AssignmentStrategy, list[float]] = {}
    for p in points:
        curves.setdefault(p.strategy, []).append(p.pm)
    for curve in curves.values():
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))


def test_sweep_workers_deterministic():
    args = (TREE, TABLE, [0, 3, 7], [AssignmentStrategy.RANDOM_PER_PAIR], 0.2)
    assert sweep_workers(*args, seed=5, random_draws=10) == sweep_workers(
        *args, seed=5, random_draws=10
    )


def test_simulate_single_node_tree():
    table = validate_table(["a", "b"], [0.25, 0.75], ["t"], [[0, 1]], 0.1)
    tree = DecisionTree(Internal("t", Leaf("a"), Leaf("b")))
    trials = 100_000
    report = simulate(tree, table, trials=trials, seed=1)
    sigma = math.sqrt(0.1 * 0.9 / trials)
    assert abs(report.p_hat - 0.1) <= 4 * sigma
    assert report.mean_questions == 1.0
