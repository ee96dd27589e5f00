import math
from fractions import Fraction

import numpy as np
import pytest

from crowdtree import (
    AssignmentStrategy,
    WorkerAllocation,
    build_greedy,
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


# --- the exact vote-enumeration oracle (support.vote_enumeration) -----------

DEMO_ALLOCATION = WorkerAllocation({"T1": 4, "T2": 0, "T3": 0, "T5": 0}, 0.2,
                                   AssignmentStrategy.PROPOSED)


def _oracle_cases():
    """(tree, table, allocation): the demo with 4 pairs on T1, and two
    5- and 6-class tables with per-cell errors whose trees meet undefined
    cells off path. On those, the tests take 0, 5, 1 and 2 pairs in turn
    (5 pairs are 11 voters, past the enumeration cap), and the tests with
    0 pairs answer without error, so some leaves are out of a class's reach."""
    yield designed_tree(), TABLE, DEMO_ALLOCATION
    for seed in (23, 30):
        table = support.random_table(seed, cell_errors=True)
        tree = build_greedy(table).tree
        pairs = {t: (0, 5, 1, 2)[i % 4] for i, t in enumerate(sorted(tree.test_ids()))}
        table = table.with_test_errors({t: 0.0 for t, k in pairs.items() if k == 0})
        yield tree, table, WorkerAllocation(pairs, 0.2, AssignmentStrategy.PROPOSED)


def test_vote_enumeration_without_workers_is_the_exact_evaluator():
    """With no allocation a wrong answer leaves the class's path for good,
    so the oracle's pm is the rational path-survival value, and the float
    evaluator lies within its stated bound of it (see test_metrics)."""
    u = Fraction(2) ** -53
    for tree, table, _ in _oracle_cases():
        oracle = support.vote_enumeration(tree, table)
        assert oracle.pm == support.fraction_pm(tree, table)
        bound = (tree.depth() + 1) * u + table.n_classes * u * oracle.pm
        assert abs(Fraction(exact_misclassification(tree, table)) - oracle.pm) <= bound
        assert all(sum(row) == 1 for row in oracle.confusion)


def test_vote_enumeration_demo_values():
    oracle = support.vote_enumeration(TREE, TABLE, DEMO_ALLOCATION)
    assert round(float(oracle.pm), 12) == 0.046280695808
    # c4 misrouted at the root meets T5, undefined for it: half goes to c1,
    # half to T3's subtree
    c4, c1 = TABLE.class_index("c4"), TABLE.class_index("c1")
    assert oracle.confusion[c4][c1] > 0
    below_t3 = [TABLE.class_index(c) for c in ("c2", "c3", "c5")]
    assert oracle.confusion[c4][c1] == sum(oracle.confusion[c4][j] for j in below_t3)


def test_vote_enumeration_cap_changes_no_value():
    """Enumerated answer patterns and summed binomial counts give the same
    rational, on both sides of the cap."""
    for k in range(6):
        for seated, worker in ((Fraction(0.05), Fraction(0.2)), (Fraction(0.3), Fraction(0.45))):
            enumerated = support.majority_wrong_fraction(seated, k, worker, 2 * k + 1)
            assert enumerated == support.majority_wrong_fraction(seated, k, worker, 0)
    assert support.VOTE_ENUMERATION_MAX_VOTERS == 9


def test_vote_enumeration_equals_the_fused_table_where_the_models_agree():
    """When every cell's error is the worker error, seated and extra workers
    are exchangeable, and the fused table's pm is the oracle's."""
    for tree, table, allocation in _oracle_cases():
        table = table.with_scalar_error(allocation.worker_error)
        oracle = support.vote_enumeration(tree, table, allocation)
        fused = exact_misclassification(tree, effective_table(table, allocation))
        assert fused == pytest.approx(float(oracle.pm), rel=1e-12)


def _path_workers(node, allocation, above=0) -> list[int]:
    """Per leaf, the workers on its root path."""
    if isinstance(node, Leaf):
        return [above]
    here = above + 2 * allocation.pairs_for(node.test) + 1
    return _path_workers(node.zero, allocation, here) + _path_workers(node.one, allocation, here)


def test_simulator_confusion_matches_vote_enumeration():
    """Every confusion cell with an expected count of at least 25 lies
    within 4 sigma of the oracle's, and a cell the oracle gives probability
    0 is empty. The tables of the cases meet undefined cells off path. The
    mean answers per object lie within 4 sigma of the oracle's expected
    answers too, sigma from the spread of the root paths' worker counts
    (a variance is at most a quarter of the squared range)."""
    trials = 200_000
    for n, (tree, table, allocation) in enumerate(_oracle_cases()):
        tests = [table.test_index(t) for t in tree.test_ids()]
        assert (table.outcomes[tests] < 0).any()
        oracle = support.vote_enumeration(tree, table, allocation)
        report = simulate(tree, table, allocation, trials=trials, seed=40 + n)
        checked = zeros = 0
        for i, prior in enumerate(table.priors):
            for j, p in enumerate(oracle.confusion[i]):
                cell = float(Fraction(prior) * p)
                count = int(report.confusion[i, j])
                if p == 0:
                    assert count == 0, (n, i, j)
                    zeros += 1
                elif trials * cell >= 25:
                    sigma = math.sqrt(trials * cell * (1 - cell))
                    assert abs(count - trials * cell) <= 4 * sigma, (n, i, j, count, trials * cell)
                    checked += 1
        assert checked >= table.n_classes + 1 and (n == 0 or zeros > 0)
        expected = float(sum(Fraction(p) * q for p, q in zip(table.priors, oracle.questions)))
        paths = _path_workers(tree.root, allocation)
        sigma = (max(paths) - min(paths)) / 2 / math.sqrt(trials)
        assert abs(report.mean_questions - expected) <= 4 * sigma
