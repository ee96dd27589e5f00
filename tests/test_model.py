import math
import re
import sys

import pytest

from crowdtree import (
    DecisionTree,
    Internal,
    Leaf,
    applicable_tests,
    level_trace,
    refine_partition,
    split_block,
    validate_table,
    validate_tree,
)
from crowdtree.builder import build_greedy, build_random
from crowdtree.metrics import exact_correct, exact_misclassification, level_quantities
from crowdtree.simulate import simulate
from crowdtree.workers import allocation_cost, assign_proposed
from crowdtree.errors import (
    DuplicateIdentifier,
    ErrorProbOutOfRange,
    InapplicableTest,
    InvalidPartition,
    NonPositivePrior,
    PriorSumMismatch,
    SingletonBlock,
    UnknownClass,
    UselessTest,
    ValidationError,
)
from crowdtree.fileio import load_tree, parse_table_text, save_tree
from crowdtree.fixtures import DEMO_TABLE_CSV, demo_table, designed_tree, alternative_tree

import support
from support import class_path


def test_demo_table_is_valid():
    table = demo_table(0.05)
    assert table.classes == ("c1", "c2", "c3", "c4", "c5")
    assert math.isclose(sum(table.priors), 1.0, abs_tol=1e-12)
    assert table.outcome("T5", "c4") is None
    assert table.outcome("T5", "c1") == 0
    assert table.error("T1", "c4") == 0.05
    assert math.isnan(table.error("T5", "c4"))


def test_minimal_two_class_table():
    table = validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], 0.1)
    assert table.n_classes == 2
    assert applicable_tests(table, (0, 1)) == ["t"]


def test_error_prob_out_of_range():
    with pytest.raises(ErrorProbOutOfRange):
        validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], 0.6)
    with pytest.raises(ErrorProbOutOfRange):
        validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], [[0.1, -0.2]])
    # an integer past the float range reads as the text 1e400 does: as ±inf
    for big, text in ((10**400, "inf"), (-10**400, "-inf")):
        message = re.escape(f"error probability {text} outside [0, 0.5)")
        for errors in (big, [[0.1, big]]):
            with pytest.raises(ErrorProbOutOfRange, match=message):
                validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], errors)
        with pytest.raises(ErrorProbOutOfRange, match=message):
            parse_table_text(DEMO_TABLE_CSV, error_prob=big)


def test_non_numeric_error_entry():
    with pytest.raises(ValidationError, match="test 't': error for 'a' is 'x', not a number"):
        validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], [["x", 0.1]])
    with pytest.raises(ValidationError, match="error for 'b' is \\[0.1\\]"):
        validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], [[0.1, [0.1]]])
    # in a row before a short one, and after an earlier out-of-range cell
    with pytest.raises(ValidationError, match="test 's': error for 'a' is 'x'"):
        validate_table(["a", "b"], [0.5, 0.5], ["s", "t"], [[0, 1], [1, 0]], [["x", 0.1], [0.1]])
    with pytest.raises(ErrorProbOutOfRange, match="0.7"):
        validate_table(["a", "b"], [0.5, 0.5], ["s", "t"], [[0, 1], [1, 0]],
                       [[0.7, 0.1], ["x", 0.1]])
    # a None in a defined cell is NaN, out of range, whatever the other cells hold
    for other in (0.1, "x"):
        with pytest.raises(ErrorProbOutOfRange, match="nan"):
            validate_table(["a", "b"], [0.5, 0.5], ["s", "t"], [[0, 1], [1, 0]],
                           [[None, 0.1], [other, 0.1]])
    # an undefined cell carries no error model, whatever its entry
    table = validate_table(["a", "b", "c"], [0.2, 0.3, 0.5], ["t"], [[0, 1, None]],
                           [[0.1, 0.2, "x"]])
    assert table.errors[0, :2].tolist() == [0.1, 0.2] and math.isnan(table.errors[0, 2])


def test_prior_validation():
    with pytest.raises(NonPositivePrior):
        validate_table(["a", "b"], [0.0, 1.0], ["t"], [[0, 1]], 0.1)
    with pytest.raises(PriorSumMismatch):
        validate_table(["a", "b"], [0.6, 0.6], ["t"], [[0, 1]], 0.1)
    with pytest.raises(NonPositivePrior, match="prior for 'a' is inf, must be in"):
        validate_table(["a", "b"], [10**400, 0.5], ["t"], [[0, 1]], 0.1)
    # a hand-typed table slightly off gets renormalized
    table = validate_table(["a", "b"], [0.5000004, 0.5], ["t"], [[0, 1]], 0.1)
    assert math.isclose(sum(table.priors), 1.0, abs_tol=1e-12)


def test_duplicate_and_useless():
    with pytest.raises(DuplicateIdentifier):
        validate_table(["a", "a"], [0.5, 0.5], ["t"], [[0, 1]], 0.1)
    with pytest.raises(DuplicateIdentifier):
        validate_table(["a", "b"], [0.5, 0.5], ["t", "t"], [[0, 1], [1, 0]], 0.1)
    with pytest.raises(UselessTest):
        validate_table(["a", "b"], [0.5, 0.5], ["t"], [[1, 1]], 0.1)
    with pytest.raises(UselessTest):
        validate_table(["a", "b"], [0.5, 0.5], ["t"], [[None, 1]], 0.1)


def test_single_class_rejected():
    with pytest.raises(ValidationError):
        validate_table(["a"], [1.0], ["t"], [[0]], 0.1)


def test_tables_are_immutable():
    table = demo_table(0.05)
    with pytest.raises(ValueError):
        table.outcomes[0, 0] = 1
    with pytest.raises(ValueError):
        table.errors[0, 0] = 0.4


def test_applicable_tests_demo():
    table = demo_table(0.05)
    assert applicable_tests(table, (0, 1, 2, 3, 4)) == ["T1", "T2", "T3", "T4"]
    assert applicable_tests(table, (1, 2, 4)) == ["T2", "T3", "T4"]
    with pytest.raises(SingletonBlock):
        applicable_tests(table, (3,))


def test_split_block_demo():
    table = demo_table(0.05)
    assert split_block(table, (0, 1, 2, 3, 4), "T1") == ((0, 1, 2, 4), (3,))
    assert split_block(table, (0, 1, 2, 4), "T5") == ((0,), (1, 2, 4))
    with pytest.raises(InapplicableTest):
        split_block(table, (1, 4), "T1")  # constant on the block
    with pytest.raises(InapplicableTest):
        split_block(table, (2, 3), "T5")  # undefined for c4


def test_split_block_roundtrip_properties():
    for seed in range(20):
        table = support.random_table(seed)
        block = table.all_classes_block()
        for test_id in applicable_tests(table, block):
            zeros, ones = split_block(table, block, test_id)
            assert set(zeros) | set(ones) == set(block)
            assert not set(zeros) & set(ones)
            assert len(zeros) + len(ones) == len(block)


def test_refine_partition():
    table = demo_table(0.05)
    start = ((0, 1, 2, 3, 4),)
    assert refine_partition(table, start, {start[0]: "T1"}) == ((0, 1, 2, 4), (3,))
    assert refine_partition(table, start, {}) == start
    part = ((0, 2, 3), (1, 4))
    refined = refine_partition(table, part, {(0, 2, 3): "T4", (1, 4): "T2"})
    assert refined == ((0, 2), (3,), (1,), (4,))


def test_refine_partition_grows_by_assigned_count():
    table = demo_table(0.05)
    part = ((0, 1, 2, 3, 4),)
    for assignment in ({}, {part[0]: "T1"}):
        out = refine_partition(table, part, assignment)
        assert len(out) == len(part) + len(assignment)


def test_refine_partition_errors():
    table = demo_table(0.05)
    with pytest.raises(InvalidPartition):
        refine_partition(table, ((0, 1), (1, 2, 3, 4)), {})
    with pytest.raises(SingletonBlock):
        refine_partition(table, ((0,), (1, 2, 3, 4)), {(0,): "T1"})


def test_class_path_designed_tree():
    table = demo_table(0.05)
    tree = designed_tree()
    path_c4 = class_path(tree, table, "c4")
    assert [(s.test, s.outcome) for s in path_c4] == [("T1", 1)]
    assert path_c4[0].error_prob == 0.05
    path_c2 = class_path(tree, table, "c2")
    assert [(s.test, s.outcome) for s in path_c2] == [
        ("T1", 0),
        ("T5", 1),
        ("T3", 1),
        ("T2", 0),
    ]
    with pytest.raises(UnknownClass):
        class_path(tree, table, "c9")


def test_class_path_single_test_tree():
    table = validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], 0.1)
    tree = DecisionTree(Internal("t", Leaf("a"), Leaf("b")))
    assert len(class_path(tree, table, "a")) == 1
    assert len(class_path(tree, table, "b")) == 1


def test_path_replay_lands_on_own_leaf():
    table = demo_table(0.05)
    tree = designed_tree()
    for class_id in table.classes:
        block = table.all_classes_block()
        for step in class_path(tree, table, class_id):
            zeros, ones = split_block(table, block, step.test)
            block = ones if step.outcome else zeros
        assert block == (table.class_index(class_id),)


def test_level_trace_designed_tree():
    table = demo_table(0.05)
    steps = level_trace(designed_tree(), table)
    assert [s.after for s in steps] == [
        ((0, 1, 2, 4), (3,)),
        ((0,), (1, 2, 4), (3,)),
        ((0,), (2,), (1, 4), (3,)),
        ((0,), (2,), (1,), (4,), (3,)),
    ]
    assert steps[0].assignment == {(0, 1, 2, 3, 4): "T1"}
    assert steps[1].assignment == {(0, 1, 2, 4): "T5"}
    # final partition is all singletons, first is the single block
    assert all(len(b) == 1 for b in steps[-1].after)
    assert steps[0].before == ((0, 1, 2, 3, 4),)


def test_leaf_multiset_matches_classes():
    table = demo_table(0.05)
    for tree in (designed_tree(), alternative_tree()):
        assert sorted(tree.leaf_labels()) == sorted(table.classes)
        validate_tree(tree, table)


def test_validate_tree_catches_bad_structure():
    table = demo_table(0.05)
    # swapped children contradict the test's outcomes
    bad = DecisionTree(
        Internal(
            "T1",
            Leaf("c4"),
            Internal(
                "T5",
                Leaf("c1"),
                Internal("T3", Leaf("c3"), Internal("T2", Leaf("c2"), Leaf("c5"))),
            ),
        )
    )
    with pytest.raises(ValidationError):
        validate_tree(bad, table)
    # missing class
    incomplete = DecisionTree(Internal("T1", Leaf("c1"), Leaf("c4")))
    with pytest.raises(ValidationError):
        validate_tree(incomplete, table)


def test_depths():
    assert designed_tree().depth() == 4
    assert alternative_tree().depth() == 3


def test_tree_repr_is_the_dataclass_text():
    """The nodes' iterative ``repr`` writes what the dataclass default did."""
    assert repr(designed_tree()) == (
        "DecisionTree(root=Internal(test='T1', zero=Internal(test='T5', zero=Leaf(label='c1'), "
        "one=Internal(test='T3', zero=Leaf(label='c3'), one=Internal(test='T2', "
        "zero=Leaf(label='c2'), one=Leaf(label='c5')))), one=Leaf(label='c4')))"
    )
    assert repr(Leaf("it's")) == 'Leaf(label="it\'s")'


def test_1200_class_chain_has_no_depth_limit(tmp_path):
    n = 1200
    table = support.chain_table(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        random_tree = build_random(table, 0)
        tree = build_greedy(table).tree
        assert tree.depth() == random_tree.depth() == n - 1
        assert tree.leaf_labels() == tuple(reversed(table.classes))
        assert tree.test_ids() == table.tests
        for t in (tree, random_tree):
            validate_tree(t, table)
        assert len(level_quantities(tree, table)) == n - 1
        pm = exact_misclassification(tree, table)
        pc = exact_correct(tree, table)
        allocation, _ = assign_proposed(tree, table, 3, 0.2)
        expected, _ = allocation_cost(tree, table, allocation)
        report = simulate(tree, table, allocation, trials=50, seed=1)
        path = str(tmp_path / "chain.json")
        save_tree(path, tree, table)
        again = load_tree(path, table)
        assert again == tree and again is not tree
        assert hash(again) == hash(tree)
        text = repr(again)
        assert text == repr(tree) and text.count("Internal(test=") == n - 1
        assert again != DecisionTree(again.root.zero) and again.root.one == Leaf(table.classes[0])
    finally:
        sys.setrecursionlimit(limit)
    # class j meets tests T1..Tj, the last class all n - 1; every cell has the same error
    e = table.error("T1", "c1")
    paths = [[e] * min(j, n - 1) for j in range(1, n + 1)]
    assert pm == support.path_survival_pm(table.priors, paths)
    assert pc == pytest.approx(1.0 - pm)
    assert expected >= n / 2
    assert report.trials == 50
