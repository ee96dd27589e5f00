"""Bit-for-bit equivalence of the one-walk evaluator, the per-level
allocation scorer, the shared-structure sweeps, the table-driven simulator,
the vectorised table and report renders, the preorder tree form and the
greedy builder's per-build level scoring with the per-class,
per-trial-pair, per-budget, per-point, per-node, per-cell, recursive and
per-pair computations in ``support``, plus guards on how often the
expensive layers run."""

import dataclasses
import hashlib
import importlib
import itertools
import json
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
from crowdtree.errors import (
    CrowdTreeError,
    DuplicateIdentifier,
    ErrorProbOutOfRange,
    InapplicableTest,
    NonPositivePrior,
    ParseError,
    PriorSumMismatch,
    UselessTest,
    ValidationError,
)
from crowdtree.fixtures import DEMO_TABLE_CSV, alternative_tree, demo_table, designed_tree
from crowdtree.builder import BuilderConfig
from crowdtree.fileio import (
    parse_table_text,
    simulation_report_csv,
    table_checksum,
    table_to_text,
    tree_to_doc,
)
from crowdtree.metrics import level_quantities
from crowdtree.model import DecisionTree, Internal, Leaf, level_trace, validate_tree
from crowdtree.simulate import SimulationReport
from crowdtree.workers import WorkerAllocation, effective_table

import support

# The package re-exports ``simulate`` the function under the module's name.
builder_module = importlib.import_module("crowdtree.builder")
cli_module = importlib.import_module("crowdtree.cli")
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


EDGE_ERRORS = (0.0, 1e-12, 0.4999999999)


def _error_settings(table, tests, rng):
    """(table, fused) error settings for one tree: the table's own cells,
    then scalar, per-test and per-cell errors, all drawing on the edge values."""
    values = [*EDGE_ERRORS, *rng.uniform(0.0, 0.5, 3).tolist()]
    defined = table.outcomes >= 0
    settings = [(table, None)]
    settings += [(table.with_scalar_error(e), None) for e in values]
    settings += [(table, dict.fromkeys(tests, e)) for e in values]
    settings += [(table, {m: float(rng.choice(values)) for m in tests}) for _ in range(3)]
    for _ in range(3):
        errs = np.where(defined, rng.choice(values, size=defined.shape), np.nan)
        cells = model_module.TestTable(
            table.classes, table.priors, table.tests, table.outcomes.copy(), errs
        )
        settings.append((cells, None))
    return settings


def _factor_matrix(table, fused) -> np.ndarray:
    """``1 - e`` of every cell under one setting, by test and class."""
    errors = table.errors.copy()
    for m, e in (fused or {}).items():
        errors[m] = e
    return 1.0 - errors


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    tree_seed=st.integers(-1, 3),  # -1 is the greedy tree
    max_classes=st.integers(2, 12),
)
def test_batched_exact_equals_per_setting_oracle(seed, tree_seed, max_classes):
    table = support.random_table(seed, max_classes=max_classes, max_tests=12, cell_errors=True)
    tree = build_greedy(table).tree if tree_seed < 0 else build_random(table, tree_seed)
    form = model_module._compile(tree, table)
    rng = np.random.default_rng(seed)
    setups = _error_settings(table, sorted(set(form.test) - {-1}), rng)
    want = [support.exact_per_setting(form, tbl, fused) for tbl, fused in setups]
    cells = np.stack([_factor_matrix(tbl, fused) for tbl, fused in setups], axis=-1)

    def batched(lanes):
        pm, pc = metrics_module._exact(tree, table, cells[..., lanes])
        return list(zip(pm.tolist(), pc.tolist()))

    assert batched(list(range(len(setups)))) == want
    # a lane's value does not depend on the other lanes of its batch
    subset = rng.permutation(len(setups))[: rng.integers(1, len(setups) + 1)]
    assert batched(subset) == [want[s] for s in subset]
    for s, (tbl, fused) in enumerate(setups):
        assert batched([s]) == [want[s]]
        assert metrics_module._exact(tree, table, _factor_matrix(tbl, fused).tolist()) == want[s]
        if fused is None:
            assert metrics_module._exact(tree, tbl) == want[s]


def test_sweep_pairs_follow_assign_baseline_streams():
    one_test = validate_table(["a", "b"], [0.4, 0.6], ["t"], [[0, 1]], 0.1)
    cases = [(designed_tree(), demo_table(0.05)), (build_greedy(one_test).tree, one_test)]
    cases.extend((build_random(t, 1), t) for t in list(_cell_tables())[:3])
    kmax, draws, seed = 12, 5, 7
    for tree, table in cases:
        tests = sorted(tree.test_ids(), key=table.test_index)
        for k_values in (list(range(kmax + 1)), [7, 0, 12, 7, 3]):
            for strategy, width in (
                (AssignmentStrategy.RANDOM_PER_PAIR, draws),
                (AssignmentStrategy.SINGLE_TEST, 1),
            ):
                rows = simulate_module._sweep_pairs(
                    tests, [], k_values, [strategy], seed, draws
                )
                assert len(rows) == width * len(k_values)
                for b, budget in enumerate(k_values):
                    for j in range(width):
                        want = assign_baseline(tree, table, strategy, budget, 0.2, seed + j)
                        assert dict(zip(tests, rows[b * width + j])) == want.extra_pairs


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
    builds = _counting(monkeypatch, simulate_module, "_greedy_tree")
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
    compiled = _counting_compiles(monkeypatch)
    strategies = list(AssignmentStrategy)
    with pytest.raises(ValidationError, match="budget"):
        sweep_workers(tree, table, [0, 4, -1], strategies, 0.2)
    for worker_error in (0.0, 0.5, -0.1, 0.9):
        for k_values in ([0, 4], []):
            with pytest.raises(ValidationError, match="worker error"):
                sweep_workers(tree, table, k_values, strategies, worker_error)
    for random_draws in (0, -1):
        with pytest.raises(ValidationError, match="random draws"):
            sweep_workers(tree, table, [0, 4], strategies, 0.2, random_draws=random_draws)
    assert sweep_workers(tree, table, [], strategies, 0.2) == []
    assert assigned == [] and baselines == [] and compiled == []


def _counting_compiles(monkeypatch):
    """Count real compiles: the misses of the form cache on the tree."""
    return _counting(monkeypatch, model_module, "_compile_uncached")


def test_sweep_workers_compiles_once_and_builds_no_fused_table(monkeypatch):
    compiled = _counting_compiles(monkeypatch)
    rebuilt = _counting(monkeypatch, model_module.TestTable, "with_test_errors")
    table = support.random_table(3, cell_errors=True)
    cases = ((designed_tree, demo_table(0.05)), (lambda: build_random(table, 1), table))
    for fresh_tree, tbl in cases:
        for strategies in (
            [s for s in AssignmentStrategy if s is not AssignmentStrategy.PROPOSED],
            list(AssignmentStrategy),  # assign_proposed's level trace reads the same form
        ):
            tree = fresh_tree()  # a tree compiled before would count no compile
            compiled.clear()
            sweep_workers(tree, tbl, range(12), strategies, 0.2, random_draws=4)
            assert len(compiled) == 1 and compiled[0][0] is tree
    assert rebuilt == []


def _raised(call):
    try:
        call()
    except CrowdTreeError as exc:
        return type(exc), str(exc)
    return None


_TREE_READERS = (
    validate_tree,
    level_trace,
    exact_misclassification,
    lambda tree, table: assign_proposed(tree, table, 2, 0.2),
    lambda tree, table: assign_baseline(tree, table, AssignmentStrategy.SINGLE_TEST, 2, 0.2),
    lambda tree, table: simulate(tree, table, trials=10),
)


def test_cached_form_is_not_reused_for_another_table():
    table = demo_table(0.05)
    flipped = np.array(table.outcomes)
    flipped[0] = np.where(flipped[0] >= 0, 1 - flipped[0], -1)  # T1 answers the other way
    classes, tests = list(table.classes), list(table.tests)
    classes[0], classes[3] = classes[3], classes[0]
    tests[0], tests[1] = tests[1], tests[0]
    # each shares every part of the key with ``table`` but one
    others = [
        dataclasses.replace(table, outcomes=flipped),
        dataclasses.replace(table, classes=tuple(classes)),
        dataclasses.replace(table, tests=tuple(tests)),
        dataclasses.replace(table, tests=("X1",) + table.tests[1:]),
    ]
    for other in others:
        for reader in _TREE_READERS:
            tree = designed_tree()
            validate_tree(tree, table)  # caches the form for ``table``
            want = _raised(lambda: reader(designed_tree(), other))
            assert want is not None
            assert _raised(lambda: reader(tree, other)) == want
            assert exact_misclassification(tree, table) == exact_misclassification(
                designed_tree(), table
            )


def test_failed_compile_is_not_cached(monkeypatch):
    compiles = _counting_compiles(monkeypatch)
    table = demo_table(0.05)
    bad = DecisionTree(Internal("T1", Leaf("c4"), Internal("T5", Leaf("c1"), Leaf("c3"))))
    want = _raised(lambda: validate_tree(DecisionTree(bad.root), table))
    assert want is not None
    compiles.clear()
    for reader in _TREE_READERS:
        assert _raised(lambda: reader(bad, table)) == want
    assert len(compiles) == len(_TREE_READERS)


def test_derived_tables_reuse_the_form(monkeypatch):
    compiles = _counting_compiles(monkeypatch)
    table = demo_table(0.05)
    tree = designed_tree()
    form = model_module._compile(tree, table)
    allocation = WorkerAllocation({"T1": 2, "T2": 0}, 0.2, AssignmentStrategy.PROPOSED)
    derived = [
        table.with_scalar_error(0.2),
        table.with_test_errors({"T3": 0.1}),
        effective_table(table, allocation),
    ]
    compiles.clear()
    for other in derived:
        assert other.outcomes is table.outcomes
        assert model_module._compile(tree, other) is form
        assert exact_misclassification(tree, other) == exact_misclassification(
            designed_tree(), other
        )
    assert not any(args[0] is tree for args in compiles)  # only the fresh trees compiled
    # an equal table that shares no array compiles again, to an equal form
    compiles.clear()
    assert model_module._compile(tree, demo_table(0.05)) == form
    assert [args[0] for args in compiles] == [tree]


def test_cached_form_leaves_tree_identity_alone():
    table = demo_table(0.05)
    plain, compiled = designed_tree(), designed_tree()
    validate_tree(compiled, table)
    assert compiled == plain and hash(compiled) == hash(plain)
    assert repr(compiled) == repr(plain)
    dumps = [json.dumps(tree_to_doc(t, table), indent=2) for t in (plain, compiled)]
    assert dumps[0] == dumps[1]


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
    built = {"build_random": [], "_greedy_tree": []}
    for name, trees in built.items():
        original = getattr(simulate_module, name)

        def build(*args, original=original, trees=trees):
            trees.append(original(*args))
            return trees[-1]

        monkeypatch.setattr(simulate_module, name, build)
    compiled = _counting_compiles(monkeypatch)
    grid = [0.01 * k for k in range(1, 31)]
    sweep_error(demo_table(), grid, n_random_trees=20, seed=4)
    assert len(built["build_random"]) == 20 and len(built["_greedy_tree"]) == len(grid)
    # the designed tree of each grid point once, for its pm: no level figures
    for tree in built["build_random"] + built["_greedy_tree"]:
        assert sum(args[0] is tree for args in compiled) == 1
    assert len(compiled) == 20 + len(grid)


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
    # a group of 601 has more than 255 wrong answers: the vote count needs 16 bits
    large = assign_baseline(
        designed_tree(), demo_table(0.3), AssignmentStrategy.SINGLE_TEST, 300, 0.49
    )
    _assert_matches_per_node_router(designed_tree(), demo_table(0.3), large, 2_000, 5, (1, 2))


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
        key_calls = _counting(monkeypatch, simulate_module, "_trial_key")
        draw_calls = _counting(monkeypatch, simulate_module, "_bits")
        simulate(tree, table, alloc, trials=trials, seed=5)
        monkeypatch.undo()
        assert len(key_calls) == 1  # one trial-key hash per chunk
        assert len(draw_calls) <= bound  # every draw, the class draw included


def test_hoisted_trial_key_finishes_to_the_same_draw():
    seed = np.uint64(987654321)
    trial = np.arange(0, 5000, 7, dtype=np.uint64)
    counter = (trial * np.uint64(3)) % np.uint64(41)
    key = simulate_module._trial_key(seed, trial)
    drawn = (simulate_module._bits(key, counter) >> np.uint64(11)) * 2.0**-53
    assert (drawn == support.u01(seed, trial, counter)).all()
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


# ---------------------------------------------------------------------------
# The simulator's integer draws and guide-table class draw


@settings(max_examples=300, deadline=None)
@given(
    x=st.integers(0, 2**64 - 1),
    error=st.one_of(
        st.sampled_from([0.0, 0.5, 0.05, 0.2, 0.25, 0.3, 0.4999999999999999, 5e-324]),
        st.floats(0.0, 0.5),
    ),
)
def test_integer_threshold_equals_float_compare(x, error):
    def below(hashes):
        return (hashes >> np.uint64(11)).astype(np.float64) * 2.0**-53 < error

    threshold = int(simulate_module._thresholds(error))
    hashes = [x] + [h for h in (threshold - 1, threshold) if 0 <= h < 2**64]
    hashes = np.array(hashes, dtype=np.uint64)
    assert ((hashes < np.uint64(threshold)) == below(hashes)).all()
    # every seated and extra-worker error the demo and random tables use
    errors = np.concatenate([demo_table(0.05).errors.ravel(),
                             support.random_table(x % 97, cell_errors=True).errors.ravel()])
    errors = np.append(errors[~np.isnan(errors)], [0.0, 0.5, 0.2])
    thresholds = simulate_module._thresholds(errors)
    for e, t in zip(errors.tolist(), thresholds.tolist()):
        for h in (x, t - 1, t):
            if 0 <= h < 2**64:
                assert (h < t) == ((h >> 11) * 2.0**-53 < e)


def _cum_priors(priors):
    cum = np.cumsum(np.asarray(priors, dtype=np.float64))
    cum[-1] = 1.0
    return cum


def _assert_guide_draw_equals_searchsorted(cum, hashes):
    hashes = np.asarray(hashes, dtype=np.uint64)
    got = simulate_module._classes(hashes, cum, simulate_module._guide(cum))
    u = (hashes >> np.uint64(11)).astype(np.float64) * 2.0**-53
    want = np.searchsorted(cum, u, side="right")
    assert got.dtype == want.dtype and (got == want).all()


_EDGES = np.arange(4096, dtype=np.uint64) << np.uint64(52)  # each bucket's first hash


def test_guide_class_draw_on_every_bucket_edge():
    for priors in ([0.25, 0.25, 0.5], [0.5, 0.5], demo_table().priors, [1 / 3] * 3,
                   [2**-12] * 4 + [1 - 2**-10], [0.1] * 10):
        cum = _cum_priors(priors)
        guide = simulate_module._guide(cum)
        # a cumulative prior on an edge splits no bucket
        if list(priors) == [0.25, 0.25, 0.5]:
            assert (guide >= 0).all()
        assert (guide < 0).sum() <= len(priors) - 1
        hashes = np.concatenate([_EDGES, _EDGES - np.uint64(1), _EDGES + np.uint64(2047),
                                 _EDGES + np.uint64(2048), _EDGES | np.uint64(2**52 - 1)])
        _assert_guide_draw_equals_searchsorted(cum, hashes)


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=40),
    hashes=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
)
def test_guide_class_draw_equals_searchsorted(raw, hashes):
    total = sum(raw)
    cum = _cum_priors([v / total for v in raw])
    # the draws nearest each cumulative prior, on either side
    near = np.ceil(np.clip(cum, 0.0, 1.0 - 2**-53) * 2.0**53).astype(np.uint64) << np.uint64(11)
    near = np.concatenate([near, near - np.uint64(1)])
    _assert_guide_draw_equals_searchsorted(cum, np.concatenate([np.array(hashes, dtype=np.uint64),
                                                                near, _EDGES]))


# ---------------------------------------------------------------------------
# Table ingest: the array checks against the per-cell parser and validator


def _ingest(parse, *args, **kwargs):
    """A parsed table as bytes, or the (type, message, line) it raised."""
    try:
        table = parse(*args, **kwargs)
    except (CrowdTreeError, ValueError, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (
        table.classes, table.tests, table.priors,
        table.outcomes.dtype, table.outcomes.shape, table.outcomes.tobytes(),
        table.errors.dtype, table.errors.shape, table.errors.tobytes(),
    )


def _matrix_text(table, undefined="nan"):
    lines = ["class," + ",".join(table.classes)]
    for m, test_id in enumerate(table.tests):
        cells = [repr(float(e)) if o >= 0 else undefined
                 for o, e in zip(table.outcomes[m].tolist(), table.errors[m].tolist())]
        lines.append(test_id + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


_TOKENS = ("2", "x", "", "1_0", " 0.1", "0.1 ", "nan", "inf", "-inf", "-0.0", "0.5",
           "0.4999999999999999", "1e-320", "0", "1", "-", "T1", "c1")


def _line_mutants(text):
    """One-edit variants of ``text``: each line dropped, doubled, blanked,
    shortened by a cell or lengthened by one, made constant or undefined,
    and a few cells replaced by each token."""
    lines = text.split("\n")
    yield text
    for i, line in enumerate(lines):
        cells = line.split(",")
        yield "\n".join(lines[:i] + lines[i + 1:])
        yield "\n".join(lines[:i] + [line] + lines[i:])
        yield "\n".join(lines[:i] + [""] + lines[i:])
        yield "\n".join(lines[:i] + [",".join(cells[:-1])] + lines[i + 1:])
        yield "\n".join(lines[:i] + [line + ",0"] + lines[i + 1:])
        for fill in ("0", "1", "-"):
            yield "\n".join(lines[:i] + [",".join(cells[:1] + [fill] * (len(cells) - 1))]
                            + lines[i + 1:])
        for k in sorted({0, 1, len(cells) - 1}):
            for token in _TOKENS:
                edited = cells[:k] + [token] + cells[k + 1:]
                yield "\n".join(lines[:i] + [",".join(edited)] + lines[i + 1:])


def _ingest_cases():
    """(table text, error prob, error matrix text) on the demo and random tables."""
    yield DEMO_TABLE_CSV, 0.05, None
    yield DEMO_TABLE_CSV, None, _matrix_text(demo_table(0.05))
    for seed in range(6):
        table = support.random_table(seed, max_classes=5, max_tests=5, cell_errors=True,
                                     max_error=0.45)
        yield table_to_text(table), None, _matrix_text(table, "0.7" if seed % 2 else "nan")


def test_parse_table_text_equals_per_cell_parser():
    outcomes = []
    for text, error_prob, matrix in _ingest_cases():
        runs = [(mutant, error_prob, matrix) for mutant in _line_mutants(text)]
        if matrix is not None:
            runs.extend((text, None, mutant) for mutant in _line_mutants(matrix))
        for args in runs:
            got = _ingest(parse_table_text, *args)
            assert got == _ingest(support.parse_table_text_per_cell, *args), args
            outcomes.append(got[0])
    # the corpus accepts tables and meets every kind of rejection
    assert any(isinstance(first, tuple) for first in outcomes)  # a table's class ids
    for kind in (ParseError, UselessTest, DuplicateIdentifier, ErrorProbOutOfRange,
                 NonPositivePrior, PriorSumMismatch):
        assert kind in outcomes, kind


def test_validate_table_equals_per_cell_validator():
    classes, priors, tests = ["a", "b", "c"], [0.2, 0.3, 0.5], ["s", "t", "u"]
    good = [[0, 1, None], [1, 0, 0], [0, 0, 1]]
    matrix = [[0.1, 0.2, None], [0.3, 0.0, -0.0], [0.25, 0.45, 0.4999]]
    cases = [
        (good, 0.1), (good, matrix), (good, 0.5), (good, -0.1), (good, True),
        ([[0, 0, None], [1, 2, 0], [0, 0, 1]], 0.1),  # useless row before a bad entry
        ([[0, 1, None], [1, 2, 0], [0, 0, 0]], 0.1),  # bad entry before a useless row
        ([[0, 0, None], [1, 0], [0, 0, 1]], 0.1),  # useless row before a short row
        ([[0, 1, None], [1, 0, 0], [0, 0]], 0.1),
        ([[0, 1, [1]], [1, 0, 0], [0, 0, 1]], 0.1),  # an unhashable entry
        ([[0, 1, 1.0], [True, 0, 0], [0, 0, np.int64(1)]], 0.1),
        ([[0, 1, float("nan")], [1, 0, 0], [0, 0, 1]], 0.1),
        ([[0, 1, -1], [1, 0, 0], [0, 0, 1]], 0.1),
        (good[:2], 0.1),
        (good, matrix[:2]),
        (good, [[0.1, 0.6, None], [0.3, 0.0], [0.25, 0.45, 0.4999]]),  # bad value, then short
        (good, [[0.1, 0.2, None], [0.3, 0.0], [0.25, 0.45, 0.7]]),  # short, then bad value
        (good, [[0.1, 0.2, None], [0.3, float("nan"), 0.0], [0.25, 0.45, 0.4999]]),
        (good, [[0.1, 0.2, 0.9], [0.3, 0.0, 0.0], [0.25, 0.45, 0.5]]),
    ]
    for outcomes, errors in cases:
        for args in (
            (classes, priors, tests, outcomes, errors),
            (classes, [0.2, 0.3, 0.6], tests, outcomes, errors),
            (classes, [0.2, 0.3, 0.5000004], tests, outcomes, errors),
            (["a", "b", "a"], priors, tests, outcomes, errors),
            (classes, priors, ["s", "t", "s"], outcomes, errors),
        ):
            assert _ingest(validate_table, *args) == _ingest(
                support.validate_table_per_cell, *args
            ), args
    with pytest.raises(UselessTest, match="'s'"):
        validate_table(classes, priors, tests, [[0, 0, None], [1, 2, 0], [0, 0, 1]], 0.1)


# ---------------------------------------------------------------------------
# The greedy builder's level scoring, and the compiles behind each report


def _point_key(point):
    test, h, g, c = point
    return (test, float.hex(h), float.hex(g), float.hex(c))


def _check_greedy_scoring(table, config=BuilderConfig()):
    """Every level of the build: the same points, bit for bit, as the per-pair
    oracle; the same steps, so the same tests and tie-breaks; and the
    build's level figures are the tree's."""
    levels = support.greedy_levels_per_pair(table, config)
    result = build_greedy(table, config)
    assert level_trace(result.tree, table) == [step for step, _ in levels]
    cells = builder_module._cells(table)
    for step, points in levels:
        got = [builder_module._block_points(cells, b) for b in step.before if len(b) > 1]
        assert [[_point_key(p) for p in pts] for pts in got] == [
            [_point_key(p) for p in pts] for pts in points
        ]
    offset = config.metric.ratio_offset
    assert list(result.levels) == level_quantities(result.tree, table, offset)


SCORING_CONFIGS = (
    BuilderConfig(),
    BuilderConfig(metric=MetricConfig(kind=Metric.MULTIPLICATIVE)),
    BuilderConfig(metric=MetricConfig(kind=Metric.MULTIPLICATIVE, ratio_offset=0.5)),
)


def test_level_points_equal_per_pair_scoring_demo():
    for p_star in (0.01, 0.05, 0.2):
        for config in SCORING_CONFIGS:
            _check_greedy_scoring(demo_table(p_star), config)


@pytest.mark.parametrize("size", [{}, {"max_classes": 12, "max_tests": 16}])
@pytest.mark.parametrize("cell_errors", [True, False])
def test_level_points_equal_per_pair_scoring_random_tables(size, cell_errors):
    for seed in range(300):
        table = support.random_table(seed, cell_errors=cell_errors, **size)
        for config in SCORING_CONFIGS[:2]:
            _check_greedy_scoring(table, config)


@pytest.mark.parametrize("n_classes", [40, 100])
def test_level_points_equal_per_pair_scoring_wide_tables(n_classes):
    table = support.wide_table(n_classes, 0)
    assert 0.08 < (table.outcomes < 0).mean() < 0.12
    for config in SCORING_CONFIGS[:2]:
        _check_greedy_scoring(table, config)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    max_classes=st.integers(2, 14),
    cell_errors=st.booleans(),
    na_prob=st.sampled_from([0.0, 0.12, 0.3]),
    config=st.sampled_from(SCORING_CONFIGS),
)
def test_level_points_equal_per_pair_scoring_property(seed, max_classes, cell_errors, na_prob,
                                                      config):
    table = support.random_table(
        seed, max_classes=max_classes, max_tests=16, cell_errors=cell_errors, na_prob=na_prob
    )
    _check_greedy_scoring(table, config)


def _inseparable_tables():
    yield validate_table(["a", "b", "c"], [0.2, 0.4, 0.4], ["t"], [[0, 1, 1]], 0.1)
    # every pair is told apart, but no test is defined on the whole block
    yield validate_table(["a", "b", "c"], [0.2, 0.4, 0.4], ["s", "t", "u"],
                         [[0, 1, None], [None, 0, 1], [1, None, 0]], 0.1)
    rng = np.random.default_rng(5)
    for _ in range(300):
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        rows = []
        while len(rows) < m:
            row = [None if rng.random() < 0.3 else int(rng.integers(0, 2)) for _ in range(n)]
            if 0 in row and 1 in row:
                rows.append(row)
        yield validate_table([f"c{i}" for i in range(n)], [1 / n] * n,
                             [f"T{j}" for j in range(m)], rows, 0.1)


def test_inseparable_error_equals_per_pair_scan():
    for table in _inseparable_tables():
        blocks = [table.all_classes_block()]
        blocks += [b for b in itertools.combinations(range(table.n_classes), 3)][:20]
        for block in blocks:
            got = builder_module._inseparable_error(table, block)
            want = support.inseparable_error_per_pair(table, block)
            assert type(got) is type(want) and str(got) == str(want), block


def _cli_compile_counts(monkeypatch, argv):
    """Real compiles in one CLI job; each job builds or loads its own tree."""
    calls = _counting_compiles(monkeypatch)
    assert cli_module.main(argv) == 0
    return len(calls)


def test_cli_jobs_compile_once(monkeypatch, tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(DEMO_TABLE_CSV, encoding="utf-8")
    tree = str(tmp_path / "tree.json")
    on_table = ["--table", str(table), "--error-prob", "0.05"]
    on_tree = ["--tree", tree, *on_table]
    assert _cli_compile_counts(monkeypatch, ["build", *on_table, "--out", tree]) == 1
    for metric in ("additive", "multiplicative"):
        assert _cli_compile_counts(monkeypatch, ["build", *on_table, "--metric", metric]) == 1
    assert _cli_compile_counts(monkeypatch, ["evaluate", *on_tree]) == 1
    alloc = str(tmp_path / "alloc.json")
    for strategy in ("proposed", "random", "single", "all"):
        argv = ["assign", *on_tree, "--workers", "4", "--worker-error", "0.2",
                "--strategy", strategy, "--out", alloc]
        assert _cli_compile_counts(monkeypatch, argv) == 1
    for extra in ([], ["--allocation", alloc]):
        argv = ["simulate", *on_tree, "--trials", "1000", *extra]
        assert _cli_compile_counts(monkeypatch, argv) == 1
    argv = ["sweep-workers", *on_tree, "--kmax", "6", "--worker-error", "0.2", "--draws", "3"]
    assert _cli_compile_counts(monkeypatch, argv) == 1
    capsys.readouterr()
