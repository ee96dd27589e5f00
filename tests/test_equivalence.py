"""Bit-for-bit equivalence of the one-walk evaluator, the per-level
allocation scorer, the shared-structure sweeps, the table-driven simulator,
the vectorised table and report renders and the preorder tree form with
the per-class, per-trial-pair, per-budget, per-point, per-node, per-cell
and recursive computations in ``support``, plus guards on how often the
expensive layers run."""

import hashlib
import importlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtree import (
    AssignmentStrategy,
    MetricConfig,
    Metric,
    allocation_cost,
    assign_baseline,
    assign_proposed,
    build_greedy,
    build_random,
    exact_correct,
    exact_misclassification,
    simulate,
    sweep_error,
    sweep_workers,
    validate_table,
)
from crowdtree.errors import CrowdTreeError, InapplicableTest, ValidationError
from crowdtree.fixtures import alternative_tree, demo_table, designed_tree
from crowdtree.builder import BuilderConfig
from crowdtree.fileio import simulation_report_csv, table_checksum, table_to_text
from crowdtree.metrics import level_quantities
from crowdtree.model import DecisionTree, Internal, Leaf, level_trace, validate_tree
from crowdtree.simulate import SimulationReport
from crowdtree.workers import WorkerAllocation

import support

# The package re-exports ``simulate`` the function under the module's name.
builder_module = importlib.import_module("crowdtree.builder")
metrics_module = importlib.import_module("crowdtree.metrics")
model_module = importlib.import_module("crowdtree.model")
simulate_module = importlib.import_module("crowdtree.simulate")
workers_module = importlib.import_module("crowdtree.workers")

METRICS = (MetricConfig(), MetricConfig(kind=Metric.MULTIPLICATIVE, ratio_offset=0.5))
SEEDS = range(12)


def _cell_tables():
    for seed in SEEDS:
        yield support.random_table(seed, cell_errors=True, max_error=0.3)


def _trees(table):
    yield build_greedy(table).tree
    for seed in range(3):
        yield build_random(table, seed)


def _counting(monkeypatch, owner, name, calls=None):
    """Wrap ``owner.name`` so that calls are counted in the returned list."""
    calls = [] if calls is None else calls
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
    # random trees put tests at several depths, so each fused error meets many blocks
    cases.extend((tree, t) for t in list(_cell_tables())[:4] for tree in _trees(t))
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
    for n_random_trees in (0, -2):
        with pytest.raises(ValidationError, match="random trees"):
            sweep_error(demo_table(), [0.05, 0.1], n_random_trees=n_random_trees)
    assert builds == [] and randoms == []
    assert sweep_error(demo_table(), [], n_random_trees=3) == []
    assert builds == [] and randoms == []


def test_sweep_workers_checks_inputs_before_any_work(monkeypatch):
    tree, table = designed_tree(), demo_table(0.05)
    assigned = _counting(monkeypatch, simulate_module, "assign_proposed")
    baselines = _counting(monkeypatch, simulate_module, "_baseline_pairs")
    compiled = _counting(monkeypatch, simulate_module, "_compile")
    strategies = list(AssignmentStrategy)
    with pytest.raises(ValidationError, match="budget"):
        sweep_workers(tree, table, [0, 4, -1], strategies, 0.2)
    for worker_error in (0.0, 0.5, -0.1):
        with pytest.raises(ValidationError, match="worker error"):
            sweep_workers(tree, table, [0, 4], strategies, worker_error)
    for random_draws in (0, -1):
        with pytest.raises(ValidationError, match="random draws"):
            sweep_workers(tree, table, [0, 4], strategies, 0.2, random_draws=random_draws)
    assert sweep_workers(tree, table, [], strategies, 0.2) == []
    assert assigned == [] and baselines == [] and compiled == []


def _counting_compiles(monkeypatch):
    """Count ``_compile`` calls from every module that imports it."""
    calls = []
    for owner in (model_module, metrics_module, workers_module, simulate_module):
        _counting(monkeypatch, owner, "_compile", calls)
    return calls


def test_sweep_workers_compiles_once_and_builds_no_fused_table(monkeypatch):
    compiled = _counting_compiles(monkeypatch)
    rebuilt = _counting(monkeypatch, model_module.TestTable, "with_test_errors")
    table = support.random_table(3, cell_errors=True)
    for tree, tbl in ((designed_tree(), demo_table(0.05)), (build_random(table, 1), table)):
        for strategies, compiles in (
            ([s for s in AssignmentStrategy if s is not AssignmentStrategy.PROPOSED], 1),
            (list(AssignmentStrategy), 2),  # the second is assign_proposed's level trace
        ):
            compiled.clear()
            sweep_workers(tree, tbl, range(12), strategies, 0.2, random_draws=4)
            assert len(compiled) == compiles
            assert all(args[0] is tree for args in compiled)
    assert rebuilt == []


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


def test_sweep_error_compiles_each_random_tree_once(monkeypatch):
    built = []
    original = simulate_module.build_random

    def build_random(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(simulate_module, "build_random", build_random)
    compiled = _counting_compiles(monkeypatch)
    grid = [0.01 * k for k in range(1, 31)]
    sweep_error(demo_table(), grid, n_random_trees=20, seed=4)
    assert len(built) == 20
    for tree in built:
        assert sum(args[0] is tree for args in compiled) == 1
    # each designed tree twice: the level trace of its build, then its pm
    assert len(compiled) == 20 + 2 * len(grid)


def test_exact_evaluators_never_call_class_path():
    tree, table = designed_tree(), demo_table(0.05)
    assert exact_misclassification(tree, table) == 0.08231187500000005
    exact_correct(tree, table)
    # the per-class path lives on as a test oracle
    assert [s.test for s in support.class_path(tree, table, "c2")] == ["T1", "T5", "T3", "T2"]


def _assert_matches_per_node_router(tree, table, allocation, trials, seed, lanes_values):
    confusion, asked = support.per_node_simulation(tree, table, allocation, trials, seed)
    misclassified = int(confusion.sum() - confusion.trace())
    for lanes in lanes_values:
        report = simulate(tree, table, allocation, trials=trials, seed=seed, lanes=lanes)
        assert (report.confusion == confusion).all()
        assert report.misclassified == misclassified
        assert report.mean_questions == asked / trials


def _mixed_allocations(tree, table):
    """Proposed, single-test, random-per-pair and all-tests allocations at
    several budgets: group sizes differ across the tree's tests, and a
    single-test allocation puts every pair on one test beside tests with 0."""
    for budget in (1, 5, 12):
        yield assign_proposed(tree, table, budget, 0.2)[0]
    for budget in (3, 9):
        for strategy in (
            AssignmentStrategy.SINGLE_TEST,
            AssignmentStrategy.ALL_WORKERS_ALL_TESTS,
        ):
            yield assign_baseline(tree, table, strategy, budget, 0.25, seed=budget)
        for seed in range(2):
            yield assign_baseline(
                tree, table, AssignmentStrategy.RANDOM_PER_PAIR, budget, 0.3, seed=seed
            )


def test_simulate_equals_per_node_router_demo():
    # at error 0.3 objects of c4 misrouted at the root meet T5, which is
    # undefined for them (the fair-coin cells)
    for error in (0.05, 0.3):
        table = demo_table(error)
        for tree in (designed_tree(), alternative_tree()):
            _assert_matches_per_node_router(tree, table, None, 20_000, 7, (1, 2))
            for i, allocation in enumerate(_mixed_allocations(tree, table)):
                _assert_matches_per_node_router(tree, table, allocation, 6_000, i, (i % 3 + 1,))
    single = assign_baseline(
        designed_tree(), demo_table(0.3), AssignmentStrategy.SINGLE_TEST, 9, 0.25
    )
    assert sorted(single.extra_pairs.values()) == [0, 0, 0, 9]


def test_simulate_equals_per_node_router_random_instances():
    tables = list(_cell_tables())
    assert any((t.outcomes < 0).any() for t in tables)  # undefined cells present
    for seed, table in enumerate(tables):
        for tree in _trees(table):
            _assert_matches_per_node_router(tree, table, None, 8_000, seed, (1 + seed % 3,))
        tree = build_greedy(table).tree
        for allocation in list(_mixed_allocations(tree, table))[::3]:
            _assert_matches_per_node_router(tree, table, allocation, 4_000, seed, (2,))


def test_simulate_equals_per_node_router_across_chunks_and_lanes():
    chunk = simulate_module._CHUNK_TRIALS
    tree, table = designed_tree(), demo_table(0.3)
    allocation = assign_baseline(
        tree, table, AssignmentStrategy.RANDOM_PER_PAIR, 6, 0.2, seed=1
    )
    assert len(set(allocation.extra_pairs.values())) > 1
    for trials in (1, chunk - 1, chunk + 1, 3 * chunk + 7):
        _assert_matches_per_node_router(tree, table, allocation, trials, 13, (1, 2, 3))


def test_simulate_draws_once_per_depth_and_worker(monkeypatch):
    # A wide tree: one generator call per node visited would exceed the bound.
    table = support.random_table(6, max_classes=30, max_tests=40)
    tree = build_greedy(table).tree
    internal = len(table.classes) - 1
    allocation = assign_baseline(
        tree, table, AssignmentStrategy.RANDOM_PER_PAIR, 9, 0.2, seed=0
    )
    trials = simulate_module._CHUNK_TRIALS  # one chunk
    for alloc in (None, allocation):
        max_group = max(alloc.group_size(t) for t in tree.test_ids()) if alloc else 1
        bound = 1 + tree.depth() * max_group
        if alloc is None:
            assert internal > bound
        u01_calls = _counting(monkeypatch, simulate_module, "_u01")
        draw_calls = _counting(monkeypatch, simulate_module, "_draw")
        simulate(tree, table, alloc, trials=trials, seed=5)
        monkeypatch.undo()
        assert len(u01_calls) == 1  # the class draw
        assert len(draw_calls) <= bound  # every draw, the class draw included


def test_hoisted_trial_key_finishes_to_the_same_draw():
    seed = np.uint64(987654321)
    trial = np.arange(0, 5000, 7, dtype=np.uint64)
    counter = (trial * np.uint64(3)) % np.uint64(41)
    key = simulate_module._trial_key(seed, trial)
    drawn = simulate_module._draw(key, counter)
    assert (drawn == simulate_module._u01(seed, trial, counter)).all()
    for i in range(0, len(trial), 50):
        assert drawn[i] == support.u01_int(int(seed), int(trial[i]), int(counter[i]))


def test_table_checksum_equals_per_cell_render():
    tables = [demo_table(0.05)]
    tables.extend(support.random_table(seed, max_classes=12, max_tests=16) for seed in range(12))
    assert sum(int((t.outcomes < 0).sum()) for t in tables) > 0
    for table in tables:
        text = support.table_to_text_per_cell(table)
        assert table_to_text(table) == text
        assert table_checksum(table) == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert table_checksum(demo_table(0.05)) == (
        "367161fb5aba3d01f54755ad532070d9199019f0eb0d86e7b83e92888aefbe81"
    )


def test_simulation_report_csv_equals_per_cell_render():
    table = support.chain_table(100)
    rng = np.random.default_rng(5)
    confusion = rng.integers(0, 40, size=(100, 100)) * (rng.random((100, 100)) < 0.2)
    confusion[np.diag_indices(100)] = rng.integers(1, 10_000, size=100)
    trials = int(confusion.sum())
    misclassified = trials - int(np.trace(confusion))
    report = SimulationReport(
        trials=trials, misclassified=misclassified, p_hat=misclassified / trials,
        ci_low=0.25, ci_high=0.5, confusion=confusion, mean_questions=7.5, seed=9, lanes=2,
        config={"allocation": None},
    )
    reports = [report, simulate(designed_tree(), demo_table(0.2), trials=5000, seed=1)]
    for report, tbl in zip(reports, (table, demo_table(0.2))):
        assert simulation_report_csv(report, tbl) == support.simulation_report_csv_per_cell(
            report, tbl
        )


# ---------------------------------------------------------------------------
# The preorder tree form against the recursive walkers it replaced


def _form_cases():
    """(tree, table): the demo's two trees, and for ``random_table`` seeds
    0-39 with cell errors the greedy tree under each metric and two random
    trees."""
    yield designed_tree(), demo_table(0.05)
    yield alternative_tree(), demo_table(0.3)
    for seed in range(40):
        table = support.random_table(seed, cell_errors=True, max_error=0.3)
        for metric in METRICS:
            yield build_greedy(table, BuilderConfig(metric=metric)).tree, table
        for tree_seed in range(2):
            yield build_random(table, tree_seed), table


def _paths(node, path=()):
    """(path from the root, node) in preorder; a path is a tuple of outcomes."""
    yield path, node
    if isinstance(node, Internal):
        yield from _paths(node.zero, path + (0,))
        yield from _paths(node.one, path + (1,))


def _replace(node, path, new):
    if not path:
        return new
    if path[0] == 0:
        return Internal(node.test, _replace(node.zero, path[1:], new), node.one)
    return Internal(node.test, node.zero, _replace(node.one, path[1:], new))


def _mutations(tree, table):
    """Trees one edit away: each internal node's children swapped, its test
    replaced by every other test of the table and by an unknown one, and
    each leaf relabelled to every other class and to an unknown one."""
    for path, node in _paths(tree.root):
        if isinstance(node, Internal):
            edits = [Internal(node.test, node.one, node.zero)]
            edits += [Internal(t, node.zero, node.one) for t in (*table.tests, "TX") if t != node.test]
        else:
            edits = [Leaf(c) for c in (*table.classes, "zz") if c != node.label]
        for edit in edits:
            yield DecisionTree(_replace(tree.root, path, edit))


def _outcome(call):
    """(exception type, message) of ``call``, or None when it returns."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    return None


def _steps(steps):
    return [(s.before, list(s.assignment.items()), s.after) for s in steps]


def test_applicable_tests_equals_per_cell_scan():
    tables = [demo_table(0.05)]
    tables += [support.random_table(seed, max_classes=12, max_tests=16) for seed in range(40)]
    rng = np.random.default_rng(0)
    for table in tables:
        n = table.n_classes
        blocks = [tuple(range(n))] + [tuple(b) for b in itertools.combinations(range(n), 2)]
        blocks += [tuple(sorted(rng.choice(n, size=rng.integers(2, n + 1), replace=False)))
                   for _ in range(20)]
        for block in blocks:
            want = support.applicable_tests_per_cell(table, block)
            assert model_module.applicable_tests(table, block) == want


def test_level_trace_equals_recursive_walk():
    for tree, table in _form_cases():
        assert _steps(level_trace(tree, table)) == _steps(
            support.level_trace_recursive(tree, table)
        )


def _unreached_node_tree():
    """The demo tree with its root test repeated on the zero side: every
    class reaches its own leaf, but the inner T1 sends them all one way."""
    designed = designed_tree().root
    return DecisionTree(Internal("T1", Internal("T1", designed.zero, Leaf("c4")), Leaf("c4")))


def test_validate_tree_first_exception_equals_recursive_walk():
    """``validate_tree`` rejects exactly the trees the recursive walk
    rejects, and raises what every reader raises: the (type, message) of
    ``exact_misclassification``'s compile, not the walk's first defect."""
    cases = [(mutant, table) for tree, table in _form_cases() for mutant in _mutations(tree, table)]
    cases.append((_unreached_node_tree(), demo_table(0.05)))  # no single edit makes one
    walk_messages, messages = set(), set()
    for mutant, table in cases:
        got = _outcome(lambda: validate_tree(mutant, table))
        want = _outcome(lambda: support.validate_tree_recursive(mutant, table))
        assert (got is None) == (want is None)
        if got is not None:
            assert got == _outcome(lambda: exact_misclassification(mutant, table))
            messages.add(got[1])
            walk_messages.add(want[1])
    for defect in (
        "do not match classes",
        "repeats along a path",
        "unknown test",
        "undefined for class",
        "does not split block",
        "disagree with its outcomes",
    ):
        assert any(defect in message for message in walk_messages), defect
    for defect in ("ends at leaf", "unknown test", "undefined for class", "does not split block"):
        assert any(defect in message for message in messages), defect


def test_every_consumer_rejects_what_validate_tree_rejects():
    cases = list(_form_cases())[:26]  # the demo and random_table seeds 0-5
    for tree, table in cases:
        allocation = WorkerAllocation(
            extra_pairs={t: 1 for t in table.tests},
            worker_error=0.2,
            strategy=AssignmentStrategy.ALL_WORKERS_ALL_TESTS,
        )
        consumers = (
            lambda t: level_trace(t, table),
            lambda t: level_quantities(t, table),
            lambda t: exact_misclassification(t, table),
            lambda t: exact_correct(t, table),
            lambda t: allocation_cost(t, table, allocation),
            lambda t: assign_proposed(t, table, 1, 0.2),
            lambda t: assign_baseline(t, table, AssignmentStrategy.RANDOM_PER_PAIR, 1, 0.2),
            lambda t: simulate(t, table, allocation, trials=8),
        )
        for mutant in _mutations(tree, table):
            if _outcome(lambda: validate_tree(mutant, table)) is None:
                continue
            for consume in consumers:
                with pytest.raises(CrowdTreeError):
                    consume(mutant)


def test_a_node_no_class_reaches_is_rejected():
    table, tree = demo_table(0.05), _unreached_node_tree()
    message = "test 'T1' does not split block (0, 1, 2, 4)"
    for consume in (validate_tree, level_trace, exact_misclassification, exact_correct):
        with pytest.raises(InapplicableTest, match=re.escape(message)):
            consume(tree, table)
    with pytest.raises(InapplicableTest, match=re.escape(message)):
        simulate(tree, table, None, trials=8)


def test_router_arrays_equal_recursive_numbering():
    for tree, table in _form_cases():
        allocations = [None, assign_proposed(tree, table, 5, 0.2)[0]]
        allocations.append(
            assign_baseline(tree, table, AssignmentStrategy.RANDOM_PER_PAIR, 7, 0.3, seed=1)
        )
        for allocation in allocations:
            router = simulate_module._router(tree, table, allocation)
            want = support.router_arrays_recursive(tree, table, allocation)
            assert router.depth == want.pop("depth")
            for name, array in want.items():
                got = getattr(router, name)
                assert got.dtype == array.dtype and np.array_equal(got, array), name


def test_assembled_trees_equal_recursive_assembly():
    for tree, table in _form_cases():
        chosen = [step.assignment for step in support.level_trace_recursive(tree, table)]
        root = support.assemble_recursive(table.all_classes_block(), 0, chosen, table)
        assert builder_module._assemble(chosen, table) == DecisionTree(root) == tree


def _rebuild(form, table):
    """Nested nodes from the compiled arrays alone, children before parents."""
    built = [None] * len(form.test)
    for k in reversed(range(len(form.test))):
        m = form.test[k]
        if m < 0:
            built[k] = Leaf(table.classes[form.leaf[k]])
        else:
            zero, one = form.child[2 * k : 2 * k + 2]
            built[k] = Internal(table.tests[m], built[zero], built[one])
    return DecisionTree(built[0])


@settings(max_examples=60, deadline=None)
@given(
    table_seed=st.integers(0, 10_000),
    tree_seed=st.integers(0, 10_000),
    greedy=st.booleans(),
)
def test_compiled_form_rebuilds_the_same_tree(table_seed, tree_seed, greedy):
    table = support.random_table(table_seed, max_classes=9, max_tests=12, cell_errors=True)
    tree = build_greedy(table).tree if greedy else build_random(table, tree_seed)
    form = model_module._compile(tree, table)
    assert _rebuild(form, table) == tree
    blocks: dict = {}
    support.subtree_blocks_recursive(tree.root, table, blocks)
    assert form.block == [blocks[id(node)] for node in model_module._preorder(tree.root)]
    assert max(form.depth) == tree.depth() == support.router_arrays_recursive(tree, table, None)["depth"]
