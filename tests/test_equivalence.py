"""Bit-for-bit equivalence of the one-walk evaluator, the per-level
allocation scorer and the shared-structure sweeps with the per-class,
per-trial-pair, per-budget and per-point computations in ``support``,
plus guards on how often the expensive layers run."""

import importlib

import pytest

from crowdtree import (
    AssignmentStrategy,
    MetricConfig,
    Metric,
    allocation_cost,
    assign_proposed,
    build_greedy,
    build_random,
    exact_correct,
    exact_misclassification,
    sweep_error,
    sweep_workers,
    validate_table,
)
from crowdtree.errors import InapplicableTest, ValidationError
from crowdtree.fixtures import alternative_tree, demo_table, designed_tree
from crowdtree.builder import BuilderConfig
from crowdtree.model import DecisionTree, Internal, Leaf, class_path

import support

# The package re-exports ``simulate`` the function under the module's name.
metrics_module = importlib.import_module("crowdtree.metrics")
model_module = importlib.import_module("crowdtree.model")
simulate_module = importlib.import_module("crowdtree.simulate")

METRICS = (MetricConfig(), MetricConfig(kind=Metric.MULTIPLICATIVE, ratio_offset=0.5))
SEEDS = range(12)


def _cell_tables():
    for seed in SEEDS:
        yield support.random_table(seed, cell_errors=True, max_error=0.3)


def _trees(table):
    yield build_greedy(table).tree
    for seed in range(3):
        yield build_random(table, seed)


def _counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that calls are counted in the returned list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_exact_evaluators_equal_class_path_product():
    cases = [(designed_tree(), demo_table(p)) for p in (0.0, 0.05, 0.2, 0.45)]
    cases.append((alternative_tree(), demo_table(0.05)))
    cases.extend((tree, table) for table in _cell_tables() for tree in _trees(table))
    for tree, table in cases:
        assert exact_misclassification(tree, table) == support.class_path_pm(tree, table)
        assert exact_correct(tree, table) == support.class_path_pc(tree, table)


def _error_of(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    raise AssertionError("expected an exception")


def test_exact_evaluator_undefined_test_on_path_raises():
    table = demo_table(0.05)  # T5 is undefined for c4
    tree = DecisionTree(
        Internal(
            "T5",
            Internal("T1", Leaf("c1"), Leaf("c4")),
            Internal("T3", Leaf("c3"), Internal("T2", Leaf("c2"), Leaf("c5"))),
        )
    )
    for evaluate in (exact_misclassification, exact_correct):
        with pytest.raises(InapplicableTest, match="'T5' undefined for class 'c4'"):
            evaluate(tree, table)
    assert _error_of(lambda: exact_misclassification(tree, table)) == _error_of(
        lambda: support.class_path_pm(tree, table)
    )


def test_exact_evaluator_leaf_mismatch_raises():
    table = demo_table(0.05)
    swapped = DecisionTree(
        Internal(
            "T1",
            Internal(
                "T5",
                Leaf("c3"),  # c1 routes here
                Internal("T3", Leaf("c1"), Internal("T2", Leaf("c2"), Leaf("c5"))),
            ),
            Leaf("c4"),
        )
    )
    for evaluate in (exact_misclassification, exact_correct):
        with pytest.raises(ValidationError, match="path for 'c1' ends at leaf 'c3'"):
            evaluate(swapped, table)
    assert _error_of(lambda: exact_correct(swapped, table)) == _error_of(
        lambda: support.class_path_pc(swapped, table)
    )


def test_exact_evaluator_reports_first_failing_class():
    # c1 hits an undefined test, c2 a wrong leaf: class order decides
    table = validate_table(
        ["c1", "c2", "c3"], [0.2, 0.3, 0.5], ["s", "u"], [[0, 1, 1], [None, 0, 1]], 0.1
    )
    tree = DecisionTree(Internal("u", Leaf("c3"), Leaf("c2")))
    assert _error_of(lambda: exact_misclassification(tree, table)) == (
        InapplicableTest,
        "test 'u' undefined for class 'c1'",
    )
    assert _error_of(lambda: exact_misclassification(tree, table)) == _error_of(
        lambda: support.class_path_pm(tree, table)
    )
    root_leaf = DecisionTree(Leaf("c2"))
    assert _error_of(lambda: exact_correct(root_leaf, table)) == _error_of(
        lambda: support.class_path_pc(root_leaf, table)
    )


def test_assign_proposed_equals_fused_rebuild_demo_every_budget():
    tree, table = designed_tree(), demo_table(0.05)
    for metric in METRICS:
        for worker_error in (0.05, 0.3):
            for budget in range(31):
                got = assign_proposed(tree, table, budget, worker_error, metric)
                want = support.fused_rebuild_assign(tree, table, budget, worker_error, metric)
                assert got == want


def test_assign_proposed_equals_fused_rebuild_random_instances():
    for table in _cell_tables():
        tree = build_greedy(table).tree
        for metric in METRICS:
            for worker_error in (0.1, 0.45):
                for budget in (0, 1, 7, 30):
                    got = assign_proposed(tree, table, budget, worker_error, metric)
                    want = support.fused_rebuild_assign(
                        tree, table, budget, worker_error, metric
                    )
                    assert got == want


def test_allocation_cost_equals_subtree_rebuild():
    cases = [(designed_tree(), demo_table(0.05)), (alternative_tree(), demo_table(0.05))]
    cases.extend((tree, table) for table in _cell_tables() for tree in _trees(table))
    for tree, table in cases:
        for budget in (0, 5, 30):
            allocation, _ = assign_proposed(tree, table, budget, 0.2)
            assert allocation_cost(tree, table, allocation) == (
                support.subtree_rebuild_allocation_cost(tree, table, allocation)
            )


def test_sweep_workers_equals_per_budget_allocations():
    k_values = [5, 0, 3, 5, 12, 1]  # unsorted, repeated
    cases = [(designed_tree(), demo_table(0.05))]
    cases.extend((build_greedy(t).tree, t) for t in list(_cell_tables())[:4])
    for tree, table in cases:
        for metric in METRICS:
            args = (tree, table, k_values, list(AssignmentStrategy), 0.2)
            kwargs = dict(seed=3, random_draws=6, metric=metric)
            assert sweep_workers(*args, **kwargs) == support.per_budget_sweep_workers(
                *args, **kwargs
            )


def test_sweep_error_equals_per_point_builds():
    cases = [(demo_table(0.05), [0.01, 0.05, 0.1, 0.2, 0.3, 0.45])]
    cases.extend((t, [0.05, 0.25]) for t in list(_cell_tables())[:4])
    for table, grid in cases:
        for metric in METRICS:
            config = BuilderConfig(metric=metric)
            got = sweep_error(table, grid, n_random_trees=7, config=config, seed=2)
            assert got == support.per_point_sweep_error(table, grid, 7, config, seed=2)


def test_sweep_error_checks_whole_grid_before_building(monkeypatch):
    builds = _counting(monkeypatch, simulate_module, "build_greedy")
    randoms = _counting(monkeypatch, simulate_module, "build_random")
    with pytest.raises(ValidationError, match="0.5"):
        sweep_error(demo_table(), [0.05, 0.1, 0.5], n_random_trees=3)
    inseparable = validate_table(["a", "b", "c"], [0.2, 0.4, 0.4], ["t"], [[0, 1, 1]], 0.1)
    with pytest.raises(ValidationError):
        sweep_error(inseparable, [0.1, 0.0])
    assert builds == [] and randoms == []
    assert sweep_error(demo_table(), [], n_random_trees=3) == []
    assert builds == [] and randoms == []


def test_sweep_workers_checks_inputs_before_any_work(monkeypatch):
    tree, table = designed_tree(), demo_table(0.05)
    assigned = _counting(monkeypatch, simulate_module, "assign_proposed")
    baselines = _counting(monkeypatch, simulate_module, "assign_baseline")
    strategies = list(AssignmentStrategy)
    with pytest.raises(ValidationError, match="budget"):
        sweep_workers(tree, table, [0, 4, -1], strategies, 0.2)
    for worker_error in (0.0, 0.5, -0.1):
        with pytest.raises(ValidationError, match="worker error"):
            sweep_workers(tree, table, [0, 4], strategies, worker_error)
    assert sweep_workers(tree, table, [], strategies, 0.2) == []
    assert assigned == [] and baselines == []


def test_assign_proposed_builds_no_fused_table(monkeypatch):
    calls = _counting(monkeypatch, model_module.TestTable, "with_test_errors")
    table = support.random_table(3, cell_errors=True)
    for tree, tbl in ((designed_tree(), demo_table(0.05)), (build_greedy(table).tree, table)):
        for metric in METRICS:
            assign_proposed(tree, tbl, 25, 0.2, metric)
    assert calls == []


def test_sweep_workers_runs_assign_proposed_once(monkeypatch):
    calls = _counting(monkeypatch, simulate_module, "assign_proposed")
    sweep_workers(designed_tree(), demo_table(0.05), range(11), list(AssignmentStrategy), 0.2,
                  random_draws=3)
    assert len(calls) == 1 and calls[0][2] == 10
    sweep_workers(designed_tree(), demo_table(0.05), range(11),
                  [AssignmentStrategy.SINGLE_TEST], 0.2)
    assert len(calls) == 1


def test_sweep_error_builds_each_random_tree_once(monkeypatch):
    calls = _counting(monkeypatch, simulate_module, "build_random")
    grid = [0.01 * k for k in range(1, 31)]
    sweep_error(demo_table(), grid, n_random_trees=20, seed=4)
    assert [args[1] for args in calls] == list(range(4, 24))


def test_exact_evaluators_never_call_class_path(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("class_path called")

    monkeypatch.setattr(model_module, "class_path", forbidden)
    monkeypatch.setattr(metrics_module, "class_path", forbidden, raising=False)
    tree, table = designed_tree(), demo_table(0.05)
    assert exact_misclassification(tree, table) == 0.08231187500000005
    exact_correct(tree, table)
    # the public per-class path is still there for callers that want it
    monkeypatch.undo()
    assert [s.test for s in class_path(tree, table, "c2")] == ["T1", "T5", "T3", "T2"]
