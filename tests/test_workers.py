import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdtree import (
    AssignmentStrategy,
    MetricConfig,
    Metric,
    allocation_cost,
    assign_baseline,
    assign_proposed,
    build_greedy,
    effective_table,
    exact_misclassification,
    group_error,
    level_quantities,
    sweep_workers,
)
from crowdtree.errors import UnknownStrategy, UnknownTest, ValidationError
from crowdtree.fixtures import demo_table, designed_tree
from crowdtree.model import DecisionTree, Internal, Leaf
from crowdtree.workers import WorkerAllocation, _partials

import support

TABLE = demo_table(0.05)
TREE = designed_tree()


def _alloc(pairs, p_e=0.2, strategy=AssignmentStrategy.PROPOSED):
    return WorkerAllocation(extra_pairs=pairs, worker_error=p_e, strategy=strategy)


def test_effective_error_examples():
    alloc = _alloc({"T1": 0, "T2": 1})
    assert alloc.effective_error("T1") == pytest.approx(0.2, abs=1e-15)
    assert alloc.effective_error("T2") == pytest.approx(0.104, abs=1e-15)
    assert _alloc({"T1": 1}, p_e=0.05).effective_error("T1") == pytest.approx(0.00725)
    with pytest.raises(UnknownTest):
        alloc.effective_error("T9")


@pytest.mark.parametrize(
    "pairs, p_e, message",
    [
        ({"T1": 1, "T2": -1}, 0.2, "pairs on test 'T2' must be an integer >= 0, got -1"),
        ({"T1": 1.5}, 0.2, "pairs on test 'T1' must be an integer >= 0, got 1.5"),
        ({"T1": 1}, 0.9, "worker error must lie strictly in (0, 0.5), got 0.9"),
        ({"T1": 1}, 0.0, "worker error must lie strictly in (0, 0.5), got 0.0"),
        ({"T1": 1}, 0.5, "worker error must lie strictly in (0, 0.5), got 0.5"),
    ],
    ids=["negative-pairs", "fractional-pairs", "worker-error-0.9", "worker-error-0.0",
         "worker-error-0.5"],
)
def test_allocation_rejects_bad_pairs_and_worker_error(pairs, p_e, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        _alloc(pairs, p_e)


def test_effective_errors_never_drift_from_fusion():
    alloc, _ = assign_proposed(TREE, TABLE, 12, 0.2)
    for test_id, k in alloc.extra_pairs.items():
        assert alloc.effective_error(test_id) == group_error(k, 0.2)
    fused = effective_table(TABLE, alloc)
    for test_id, k in alloc.extra_pairs.items():
        for class_id in TABLE.classes:
            if TABLE.outcome(test_id, class_id) is None:
                continue
            assert fused.error(test_id, class_id) == group_error(k, 0.2)


def test_assign_proposed_first_pair_goes_to_root_level():
    alloc, log = assign_proposed(TREE, TABLE, 1, 0.05)
    assert alloc.extra_pairs == {"T1": 1, "T2": 0, "T3": 0, "T5": 0}
    step = log[0]
    assert step.level == 1 and step.test == "T1"
    assert step.metric_before == pytest.approx(19.419, abs=1e-3)
    assert step.metric_after == pytest.approx(133.92, abs=5e-3)
    assert step.effective_error_after == pytest.approx(0.00725, abs=1e-15)


def test_assign_proposed_second_pair_breaks_level_tie_earliest():
    alloc, log = assign_proposed(TREE, TABLE, 2, 0.05)
    assert [(s.level, s.test) for s in log] == [(1, "T1"), (2, "T5")]
    assert alloc.extra_pairs == {"T1": 1, "T2": 0, "T3": 0, "T5": 1}


def test_assign_proposed_zero_budget_identity():
    alloc, log = assign_proposed(TREE, TABLE, 0, 0.2)
    assert log == []
    assert all(k == 0 for k in alloc.extra_pairs.values())
    assert set(alloc.extra_pairs) == {"T1", "T2", "T3", "T5"}


def test_assign_proposed_budget_conservation():
    for budget in (1, 5, 17, 30):
        alloc, log = assign_proposed(TREE, TABLE, budget, 0.2)
        assert alloc.total_pairs() == budget
        assert len(log) == budget


def test_assign_proposed_weakest_level_metric_never_drops():
    # replay the log: the smallest per-level additive metric is non-decreasing
    pairs = {t: 0 for t in ("T1", "T2", "T3", "T5")}
    _, log = assign_proposed(TREE, TABLE, 25, 0.2)

    def min_metric(state):
        fused = TABLE.with_test_errors(
            {t: group_error(k, 0.2) for t, k in state.items()}
        )
        return min(q.additive_metric for q in level_quantities(TREE, fused))

    previous = min_metric(pairs)
    for step in log:
        pairs[step.test] += 1
        current = min_metric(pairs)
        assert current >= previous - 1e-12
        previous = current


def test_assign_proposed_monotone_improvement_in_budget():
    pms = []
    for budget in range(31):
        alloc, _ = assign_proposed(TREE, TABLE, budget, 0.2)
        pms.append(exact_misclassification(TREE, effective_table(TABLE, alloc)))
    assert all(b <= a + 1e-15 for a, b in zip(pms, pms[1:]))


def test_assign_proposed_multiplicative_metric_variant():
    config = MetricConfig(kind=Metric.MULTIPLICATIVE)
    alloc, log = assign_proposed(TREE, TABLE, 1, 0.05, config)
    # same weakest level on this instance: the root level gets the pair
    assert alloc.extra_pairs["T1"] == 1
    assert log[0].metric_after < log[0].metric_before


def test_assign_proposed_validates_args():
    with pytest.raises(ValidationError):
        assign_proposed(TREE, TABLE, -1, 0.2)
    with pytest.raises(ValidationError):
        assign_proposed(TREE, TABLE, 1, 0.5)


def test_pair_budgets_are_checked_below_2_63():
    # pair counts are held as int64: a budget past that fails its check, not a cast
    message = "pair budget must be below 2\\*\\*63, got 9223372036854775808"
    with pytest.raises(ValidationError, match=message):
        assign_proposed(TREE, TABLE, 1 << 63, 0.2)
    for strategy in list(AssignmentStrategy)[1:]:
        with pytest.raises(ValidationError, match=message):
            assign_baseline(TREE, TABLE, strategy, 1 << 63, 0.2)
        with pytest.raises(ValidationError, match=message):
            sweep_workers(TREE, TABLE, [3, 1 << 63], [strategy], 0.2)
    largest = (1 << 63) - 1
    alloc = assign_baseline(TREE, TABLE, AssignmentStrategy.ALL_WORKERS_ALL_TESTS, largest, 0.2)
    assert all(type(k) is int and k == largest for k in alloc.extra_pairs.values())


def test_baseline_single_test():
    alloc = assign_baseline(TREE, TABLE, AssignmentStrategy.SINGLE_TEST, 3, 0.2, seed=7)
    ks = sorted(alloc.extra_pairs.values())
    assert ks == [0, 0, 0, 3]
    assert alloc == assign_baseline(TREE, TABLE, AssignmentStrategy.SINGLE_TEST, 3, 0.2, seed=7)
    # the chosen test depends on the seed only, not on the budget
    a1 = assign_baseline(TREE, TABLE, AssignmentStrategy.SINGLE_TEST, 1, 0.2, seed=7)
    target = [t for t, k in alloc.extra_pairs.items() if k][0]
    assert a1.extra_pairs[target] == 1


def test_baseline_random_per_pair():
    alloc = assign_baseline(TREE, TABLE, AssignmentStrategy.RANDOM_PER_PAIR, 4, 0.2, seed=3)
    assert alloc.total_pairs() == 4
    assert alloc == assign_baseline(
        TREE, TABLE, AssignmentStrategy.RANDOM_PER_PAIR, 4, 0.2, seed=3
    )
    # same seed, bigger budget: the first choices form a prefix
    bigger = assign_baseline(TREE, TABLE, AssignmentStrategy.RANDOM_PER_PAIR, 5, 0.2, seed=3)
    assert sum(bigger.extra_pairs.values()) == 5
    assert all(bigger.extra_pairs[t] >= alloc.extra_pairs[t] for t in alloc.extra_pairs)


def test_baseline_all_workers_all_tests():
    alloc = assign_baseline(TREE, TABLE, AssignmentStrategy.ALL_WORKERS_ALL_TESTS, 12, 0.2)
    assert alloc.shared_pool
    assert set(alloc.extra_pairs.values()) == {12}
    assert all(alloc.group_size(t) == 25 for t in alloc.extra_pairs)


def test_baseline_rejects_proposed():
    with pytest.raises(UnknownStrategy):
        assign_baseline(TREE, TABLE, AssignmentStrategy.PROPOSED, 1, 0.2)


def test_allocation_cost_demo():
    zero = assign_baseline(TREE, TABLE, AssignmentStrategy.RANDOM_PER_PAIR, 0, 0.2, 0)
    expected, flat = allocation_cost(TREE, TABLE, zero)
    assert expected == pytest.approx(1.7, abs=1e-12)
    assert flat == 4
    for budget in (1, 4, 9):
        alloc = assign_baseline(
            TREE, TABLE, AssignmentStrategy.RANDOM_PER_PAIR, budget, 0.2, seed=1
        )
        _, flat = allocation_cost(TREE, TABLE, alloc)
        assert flat == 4 + 2 * budget
    pool = assign_baseline(TREE, TABLE, AssignmentStrategy.ALL_WORKERS_ALL_TESTS, 12, 0.2)
    expected, flat = allocation_cost(TREE, TABLE, pool)
    assert flat == 4 * 25
    assert expected == pytest.approx(1.7 * 25, abs=1e-9)


def test_assign_proposed_on_random_instances():
    for seed in range(6):
        table = support.random_table(seed, max_classes=5, max_tests=6)
        tree = build_greedy(table).tree
        alloc, log = assign_proposed(tree, table, 8, 0.3)
        assert alloc.total_pairs() == 8
        base = exact_misclassification(tree, effective_table(table, _alloc(
            {t: 0 for t in alloc.extra_pairs}, p_e=0.3)))
        improved = exact_misclassification(tree, effective_table(table, alloc))
        assert improved <= base + 1e-12


def test_baseline_rejects_trees_the_table_does_not_fit():
    root = TREE.root
    swapped = DecisionTree(Internal(root.test, root.one, root.zero))
    relabelled = DecisionTree(Internal(root.test, root.zero, Leaf("c1")))
    for tree in (swapped, relabelled):
        with pytest.raises(ValidationError) as expected:
            exact_misclassification(tree, TABLE)
        for strategy in (s for s in AssignmentStrategy if s is not AssignmentStrategy.PROPOSED):
            with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
                assign_baseline(tree, TABLE, strategy, 3, 0.2)


# a level's masses: products p * e or p * (1 - e) of priors from 1 down to
# 1e-300 and into the subnormals, and errors from 0 up to 0.4999
_PRIORS = st.one_of(st.floats(1e-300, 1.0), st.floats(5e-324, 2.0**-1022))
_MASSES = st.lists(
    st.builds(
        lambda p, e, correct: p * (1.0 - e) if correct else p * e,
        _PRIORS, st.floats(0.0, 0.4999), st.booleans(),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(a=_MASSES, b=_MASSES, c=_MASSES)
@example(a=[1.0, 1e-300, -1.0], b=[5e-324] * 3, c=[0.4999, 2.0**-1074])
@example(a=[0.1] * 10, b=[], c=[])
def test_partials_hold_the_exact_sum(a, b, c):
    def exact(xs):
        return sum(map(Fraction, xs), Fraction(0))

    partials = _partials(a)
    assert exact(partials) == exact(a)
    assert math.fsum(partials) == math.fsum(a)
    # a level's sum with test b's masses replaced by test c's
    moved = _partials(a + b) + [-x for x in _partials(b)] + _partials(c)
    assert math.fsum(moved) == math.fsum(a + c)
