import itertools
import math
import random

import pytest

from crowdtree import (
    BuilderConfig,
    Metric,
    MetricConfig,
    Objective,
    applicable_tests,
    best_tree_exhaustive,
    build_greedy,
    build_random,
    enumerate_trees,
    exact_misclassification,
    level_correct_mass,
    level_entropy,
    level_error_mass,
    level_trace,
    metric_additive,
    metric_multiplicative,
    refine_partition,
    validate_table,
    validate_tree,
)
from crowdtree.errors import InseparableClasses, InstanceTooLarge, ValidationError
from crowdtree.fixtures import alternative_tree, demo_table, designed_tree

import support


def test_greedy_reproduces_designed_tree_both_metrics():
    for p_star in (0.01, 0.05, 0.1, 0.2, 0.3):
        table = demo_table(p_star)
        for kind in Metric:
            config = BuilderConfig(metric=MetricConfig(kind=kind))
            result = build_greedy(table, config)
            assert result.tree == designed_tree(), (p_star, kind)
            validate_tree(result.tree, table)


def test_greedy_level_quantities_demo():
    result = build_greedy(demo_table(0.05))
    assert [round(q.additive_metric, 6) for q in result.levels] == [
        19.419012,
        20.0,
        20.0,
        20.0,
    ]
    assert [q.level for q in result.levels] == [1, 2, 3, 4]


def test_level_one_metric_ordering_with_oracle():
    # per-root-candidate additive metric via the independent entropy oracle
    table = demo_table(0.05)
    full = table.all_classes_block()
    h0 = support.entropy_oracle(table.priors, (full,))
    oracle_values = {}
    for test_id in applicable_tests(table, full):
        after = refine_partition(table, (full,), {full: test_id})
        oracle_values[test_id] = (h0 - support.entropy_oracle(table.priors, after)) / 0.05
    assert oracle_values["T1"] == pytest.approx(19.419, abs=1e-3)
    assert oracle_values["T4"] == pytest.approx(17.626, abs=1e-3)
    assert oracle_values["T2"] == pytest.approx(12.196, abs=1e-3)
    assert oracle_values["T3"] == pytest.approx(9.379, abs=1e-3)
    assert (
        oracle_values["T1"] > oracle_values["T4"] > oracle_values["T2"] > oracle_values["T3"]
    )


def test_greedy_tie_breaks_to_lower_test_index():
    # T3 and T4 induce the identical split of the block left after T1 and T5;
    # the builder must settle on T3
    tree = build_greedy(demo_table(0.05)).tree
    node = tree.root.zero.one  # after T1=0, T5=1
    assert node.test == "T3"


def test_greedy_single_choice_instance():
    table = validate_table(["a", "b"], [0.3, 0.7], ["t"], [[0, 1]], 0.1)
    for kind in Metric:
        tree = build_greedy(table, BuilderConfig(metric=MetricConfig(kind=kind))).tree
        assert tree.test_ids() == ("t",)


def test_greedy_deterministic():
    for seed in range(10):
        table = support.random_table(seed, cell_errors=True)
        first = build_greedy(table).tree
        second = build_greedy(table).tree
        assert first == second


def _enumerated_assignment(table, partition, kind):
    """Reference joint assignment by cross-product enumeration: score every
    combination with the library's level functions, keep the best, and break
    ties toward the smallest tuple of test indices, blocks in partition order.

    Scores within 1e-12 (relative) count as tied: complementary tests give a
    block the same two sub-blocks, but in swapped order, so the partition's
    entropy sums them in another order and can differ in the last bit.
    """
    open_blocks = [b for b in partition if len(b) > 1]
    h_before = level_entropy(table.priors, partition)
    scored = {}
    for combo in itertools.product(*(applicable_tests(table, b) for b in open_blocks)):
        assignment = dict(zip(open_blocks, combo))
        h_after = level_entropy(table.priors, refine_partition(table, partition, assignment))
        if kind is Metric.ADDITIVE:
            score = metric_additive(
                h_before - h_after, level_error_mass(table, partition, assignment)
            )
        else:
            score = metric_multiplicative(
                h_before, h_after, level_correct_mass(table, partition, assignment)
            )
        scored[tuple(table.test_index(t) for t in combo)] = (score, assignment)
    best = max(score for score, _ in scored.values())
    key = min(k for k, (score, _) in scored.items() if score >= best * (1 - 1e-12))
    return scored[key][1]


def _parity_table(seed):
    # eight classes coded by three bits; each test is the parity of a bit
    # subset, so every test splits every block it is not constant on in half
    # and the third level has four open blocks
    rng = random.Random(seed)
    rows = [[bin(i & mask).count("1") % 2 for i in range(8)] for mask in range(1, 8)]
    raw = [rng.uniform(0.05, 1.0) for _ in range(8)]
    errors = [[rng.uniform(0.005, 0.2) for _ in range(8)] for _ in rows]
    return validate_table(
        [f"c{i}" for i in range(8)],
        [v / sum(raw) for v in raw],
        [f"P{mask}" for mask in range(1, 8)],
        rows,
        errors,
    )


def _replay_tables():
    yield demo_table(0.05)
    for seed in range(12):
        yield support.random_table(seed, max_classes=5, max_tests=6, cell_errors=True)
    for seed in range(8):
        yield support.random_table(seed, cell_errors=True)
    # a complementary pair (T3, T15) ties exactly at level 2 under the
    # additive metric; summing the partition's entropy picks T15 by a last-bit
    # difference, the documented tie-break picks T3
    yield support.random_table(205, max_classes=12, max_tests=16)
    # duplicate and complementary rows: exact ties inside a block
    yield validate_table(
        ["a", "b", "c", "d", "e"],
        [0.1, 0.3, 0.2, 0.25, 0.15],
        ["T1", "T2", "T3", "T4", "T5"],
        [[0, 0, 1, 1, 1], [0, 0, 1, 1, 1], [1, 1, 0, 0, 0], [0, 1, 0, 1, 0], [0, 1, 1, 0, 0]],
        0.05,
    )
    for seed in (0, 1):
        yield _parity_table(seed)
    # error-free tests: levels that score +inf, and levels where only some
    # blocks have an error-free candidate
    for seed in range(6):
        table = _parity_table(seed) if seed < 2 else support.random_table(seed, cell_errors=True)
        yield table.with_test_errors({t: 0.0 for t in table.tests[seed % 2 :: 2]})


def test_greedy_choice_maximizes_level_metric_exact_replay():
    # at every level of the built tree, under both metrics, the chosen joint
    # assignment is the lexicographically smallest optimum of the full cross
    # product of per-block candidates
    seen_infinite_level = seen_three_open_blocks = False
    for table in _replay_tables():
        for kind in Metric:
            result = build_greedy(table, BuilderConfig(metric=MetricConfig(kind=kind)))
            validate_tree(result.tree, table)
            for step in level_trace(result.tree, table):
                assert step.assignment == _enumerated_assignment(table, step.before, kind)
                seen_three_open_blocks |= len(step.assignment) >= 3
            seen_infinite_level |= any(math.isinf(q.additive_metric) for q in result.levels)
    assert seen_infinite_level and seen_three_open_blocks


def test_greedy_inseparable_names_pair():
    table = validate_table(
        ["a", "b", "c"], [0.2, 0.4, 0.4], ["t"], [[0, 1, 1]], 0.1
    )
    with pytest.raises(InseparableClasses) as err:
        build_greedy(table)
    assert "'b'" in str(err.value) and "'c'" in str(err.value)


def test_builder_config_validation():
    with pytest.raises(ValidationError):
        BuilderConfig(max_depth=0)


def test_depth_guard():
    from crowdtree.errors import DepthGuardExceeded

    with pytest.raises(DepthGuardExceeded):
        build_greedy(demo_table(0.05), BuilderConfig(max_depth=2))
    # the demo tree needs exactly four levels
    assert build_greedy(demo_table(0.05), BuilderConfig(max_depth=4)).tree == designed_tree()


def test_build_random_deterministic_and_valid():
    table = demo_table(0.05)
    for seed in (0, 1, 7, 123):
        tree = build_random(table, seed)
        validate_tree(tree, table)
        assert tree == build_random(table, seed)


def test_build_random_unique_tree_instance():
    table = validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], 0.1)
    trees = {build_random(table, seed) for seed in range(10)}
    assert len(trees) == 1


def test_random_mean_worse_than_greedy_over_seeds():
    table = demo_table(0.05)
    greedy_pm = exact_misclassification(build_greedy(table).tree, table)
    pms = [exact_misclassification(build_random(table, s), table) for s in range(1000)]
    assert sum(pms) / len(pms) > greedy_pm


def test_greedy_not_worse_than_worst_of_100_random():
    for seed in range(10):
        table = support.random_table(seed, cell_errors=(seed % 2 == 0))
        greedy_pm = exact_misclassification(build_greedy(table).tree, table)
        worst = max(
            exact_misclassification(build_random(table, s), table) for s in range(100)
        )
        assert greedy_pm <= worst + 1e-12


def test_enumerate_two_class_two_tests():
    table = validate_table(["a", "b"], [0.5, 0.5], ["s", "t"], [[0, 1], [1, 0]], 0.1)
    trees = list(enumerate_trees(table))
    assert len(trees) == 2
    assert {t.root.test for t in trees} == {"s", "t"}


def test_enumerate_three_class_bipartitions():
    # three classes, one isolating test per class: any of 3 roots, then either
    # of the two remaining tests still splits the leftover pair -> 6 trees
    table = validate_table(
        ["a", "b", "c"],
        [0.5, 0.25, 0.25],
        ["s1", "s2", "s3"],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        0.1,
    )
    trees = list(enumerate_trees(table))
    assert len(trees) == 6
    for tree in trees:
        validate_tree(tree, table)
    assert len(set(trees)) == 6


def test_enumerate_demo_contains_both_reference_trees():
    table = demo_table(0.05)
    trees = list(enumerate_trees(table, max_classes=5, max_tests=5))
    assert any(t == designed_tree() for t in trees)
    assert any(t == alternative_tree() for t in trees)
    for tree in trees:
        validate_tree(tree, table)


def test_enumerate_instance_too_large():
    table = validate_table(
        ["a", "b", "c", "d", "e", "f"],
        [1 / 6] * 6,
        ["t1", "t2", "t3"],
        [[0, 0, 0, 1, 1, 1], [0, 1, 1, 0, 0, 1], [1, 0, 1, 0, 1, 0]],
        0.1,
    )
    with pytest.raises(InstanceTooLarge):
        list(enumerate_trees(table))
    # raising the bound lets the same instance through
    assert list(enumerate_trees(table, max_classes=6, max_tests=3))


def test_best_tree_exhaustive_demo():
    table = demo_table(0.05)
    best, value = best_tree_exhaustive(table)
    assert value <= exact_misclassification(designed_tree(), table) + 1e-15
    # on this instance the greedy tree is the global optimum
    assert best == designed_tree()
    assert value == pytest.approx(0.082311875, abs=1e-12)


def test_best_tree_objective_duality():
    for seed in range(10):
        table = support.random_table(seed, max_classes=4, max_tests=4)
        tree_pm, value_pm = best_tree_exhaustive(table, Objective.EXACT_PM)
        tree_pc, value_pc = best_tree_exhaustive(table, Objective.EXACT_PC)
        assert tree_pm == tree_pc
        assert value_pm + value_pc == pytest.approx(1.0, abs=1e-12)


def test_metric_agreement_recorded_not_assumed():
    # the two metrics often pick the same tree but are not required to; both
    # outputs must be valid either way, and disagreements are only reported
    disagreements = 0
    for seed in range(30):
        table = support.random_table(seed, cell_errors=True)
        additive = build_greedy(table).tree
        multiplicative = build_greedy(
            table, BuilderConfig(metric=MetricConfig(kind=Metric.MULTIPLICATIVE))
        ).tree
        validate_tree(additive, table)
        validate_tree(multiplicative, table)
        if additive != multiplicative:
            disagreements += 1
    print(f"metric disagreement on {disagreements}/30 random instances")


def test_greedy_output_is_among_enumerated():
    for seed in range(8):
        table = support.random_table(seed, max_classes=4, max_tests=4)
        greedy = build_greedy(table).tree
        assert any(t == greedy for t in enumerate_trees(table, 4, 4))
