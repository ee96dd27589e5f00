import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtree import (
    BuilderConfig,
    additive_approx,
    bounds_additive,
    bounds_multiplicative,
    build_greedy,
    build_random,
    exact_correct,
    exact_misclassification,
    level_correct_mass,
    level_entropy,
    level_error_mass,
    level_quantities,
    metric_additive,
    metric_multiplicative,
    multiplicative_approx,
    validate_table,
)
from crowdtree.errors import InvalidPartition, UnknownTest, ValidationError
from crowdtree.fixtures import demo_table, designed_tree, alternative_tree
from crowdtree.metrics import Metric, MetricConfig
from crowdtree.model import DecisionTree, Internal, Leaf

import support

TABLE = demo_table(0.05)
FULL = ((0, 1, 2, 3, 4),)
SINGLETONS = ((0,), (1,), (2,), (3,), (4,))


def test_level_entropy_frozen_values():
    h0 = level_entropy(TABLE.priors, FULL)
    assert abs(h0 - 1.67095) < 1e-5
    assert level_entropy(TABLE.priors, SINGLETONS) == 0.0
    # conditional distribution 0.5/0.125/0.25/0.125 inside the big block
    h1 = level_entropy(TABLE.priors, ((0, 1, 2, 4), (3,)))
    assert abs(h1 - 0.70000) < 1e-9


def test_level_entropy_matches_joint_form_oracle():
    for seed in range(25):
        table = support.random_table(seed)
        partition = tuple((i,) for i in range(table.n_classes - 2)) + (
            tuple(range(table.n_classes - 2, table.n_classes)),
        )
        assert math.isclose(
            level_entropy(table.priors, partition),
            support.entropy_oracle(table.priors, partition),
            abs_tol=1e-12,
        )


def test_level_entropy_permutation_invariant():
    rng = random.Random(7)
    partition = [(0, 1, 2, 4), (3,)]
    base = level_entropy(TABLE.priors, tuple(partition))
    for _ in range(10):
        shuffled = [tuple(rng.sample(block, len(block))) for block in partition]
        rng.shuffle(shuffled)
        assert level_entropy(TABLE.priors, tuple(shuffled)) == pytest.approx(base, abs=1e-12)


def test_level_entropy_rejects_bad_partition():
    with pytest.raises(InvalidPartition):
        level_entropy(TABLE.priors, ((0, 1), (1, 2, 3, 4)))
    with pytest.raises(InvalidPartition):
        level_entropy(TABLE.priors, ((0, 1),))


def test_level_masses():
    g = level_error_mass(TABLE, FULL, {FULL[0]: "T1"})
    assert g == pytest.approx(0.05, abs=1e-12)
    part = ((0, 1, 2, 4), (3,))
    g2 = level_error_mass(TABLE, part, {part[0]: "T5"})
    assert g2 == pytest.approx(0.02, abs=1e-12)
    assert level_error_mass(TABLE, SINGLETONS, {}) == 0.0
    # complements
    assert level_correct_mass(TABLE, FULL, {FULL[0]: "T1"}) == pytest.approx(0.95)
    assert level_correct_mass(TABLE, part, {part[0]: "T5"}) == pytest.approx(0.98)
    assert level_correct_mass(TABLE, SINGLETONS, {}) == 1.0


def test_level_masses_keep_first_fault_order():
    # each block's test name is looked up as its block is reached
    part = ((0, 1), (2, 3, 4))
    for mass in (level_error_mass, level_correct_mass):
        with pytest.raises(InvalidPartition, match="'T5' undefined for class 'c4'"):
            mass(TABLE, part, {(2, 3, 4): "T5", (0, 1): "NOPE"})
        with pytest.raises(UnknownTest):
            mass(TABLE, part, {(0, 1): "NOPE", (2, 3, 4): "T5"})


def test_correct_mass_linear_in_tested_mass():
    # only the 0.6-mass pair sits under a near-coin-flip test
    table = validate_table(
        ["a", "b", "c"], [0.3, 0.3, 0.4], ["t"], [[0, 1, 0]], 0.4999
    )
    part = ((0, 1), (2,))
    b = level_correct_mass(table, part, {(0, 1): "t"})
    assert b == pytest.approx(1.0 - 0.6 * 0.4999, abs=1e-12)


def test_mass_complement_property():
    for seed in range(15):
        table = support.random_table(seed, cell_errors=True)
        full = (table.all_classes_block(),)
        from crowdtree import applicable_tests

        tests = applicable_tests(table, full[0])
        if not tests:
            continue
        assignment = {full[0]: tests[0]}
        g = level_error_mass(table, full, assignment)
        b = level_correct_mass(table, full, assignment)
        assert g + b == pytest.approx(1.0, abs=1e-12)


def test_metric_additive():
    assert metric_additive(0.97095, 0.05) == pytest.approx(19.419, abs=1e-3)
    assert metric_additive(0.0, 0.3) == 0.0
    assert metric_additive(0.4, 0.02) == pytest.approx(20.0, abs=1e-12)
    # error-free level with progress is never the binding one
    assert metric_additive(0.4, 0.0) == math.inf
    assert metric_additive(0.0, 0.0) == 0.0
    with pytest.raises(ValidationError):
        metric_additive(-0.1, 0.05)


def test_metric_multiplicative():
    assert metric_multiplicative(1.67095, 0.7, 0.95) == pytest.approx(1.65384, abs=1e-5)
    assert metric_multiplicative(0.5, 0.5, 1.0) == 1.0
    assert metric_multiplicative(0.7, 0.3, 0.98) == pytest.approx(1.33437, abs=1e-5)
    with pytest.raises(ValidationError):
        metric_multiplicative(0.5, 0.5, 0.0)
    with pytest.raises(ValidationError):
        metric_multiplicative(0.5, 0.5, 0.9, ratio_offset=0.0)


def test_exact_evaluators_designed_and_alternative():
    # independent oracle: per-class path survival from hand-read paths
    paths = support.tree_paths(designed_tree())
    errs = [[0.05] * len(paths[c]) for c in TABLE.classes]
    oracle = support.path_survival_pm(TABLE.priors, errs)
    assert oracle == pytest.approx(0.082311875, abs=1e-12)
    assert exact_misclassification(designed_tree(), TABLE) == pytest.approx(oracle, abs=1e-12)

    paths_alt = support.tree_paths(alternative_tree())
    errs_alt = [[0.05] * len(paths_alt[c]) for c in TABLE.classes]
    oracle_alt = support.path_survival_pm(TABLE.priors, errs_alt)
    assert oracle_alt == pytest.approx(0.1110375, abs=1e-12)
    assert exact_misclassification(alternative_tree(), TABLE) == pytest.approx(
        oracle_alt, abs=1e-12
    )


def test_exact_zero_error():
    table = demo_table(0.0)
    assert exact_misclassification(designed_tree(), table) == 0.0
    assert exact_correct(designed_tree(), table) == 1.0
    assert additive_approx(designed_tree(), table) == 0.0
    assert multiplicative_approx(designed_tree(), table) == 1.0


def test_pm_plus_pc_is_one():
    for seed in range(30):
        table = support.random_table(seed, cell_errors=(seed % 2 == 0))
        tree = build_greedy(table).tree
        pm = exact_misclassification(tree, table)
        pc = exact_correct(tree, table)
        assert abs(pm + pc - 1.0) < 1e-12


def test_approximations_demo_values():
    assert additive_approx(designed_tree(), TABLE) == pytest.approx(0.085, abs=1e-12)
    assert additive_approx(alternative_tree(), TABLE) == pytest.approx(0.115, abs=1e-12)
    assert multiplicative_approx(designed_tree(), TABLE) == pytest.approx(
        0.95 * 0.98 * 0.99 * 0.995, abs=1e-12
    )


def test_additive_approx_upper_bounds_exact():
    for seed in range(25):
        table = support.random_table(seed, cell_errors=(seed % 3 == 0))
        tree = build_greedy(table).tree
        assert additive_approx(tree, table) >= exact_misclassification(tree, table) - 1e-12


def test_additive_gap_shrinks_quadratically():
    tree = designed_tree()
    gaps = []
    for p in (0.02, 0.01):
        table = demo_table(p)
        gaps.append(additive_approx(tree, table) - exact_misclassification(tree, table))
    ratio = gaps[0] / gaps[1]
    assert abs(ratio - 4.0) <= 0.4  # halving the error quarters the gap, within 10%


def test_first_order_agreement_of_both_approximations():
    tree = designed_tree()
    deviations = []
    for p in (1e-3, 1e-4):
        table = demo_table(p)
        ratio = (1.0 - multiplicative_approx(tree, table)) / additive_approx(tree, table)
        deviations.append(abs(ratio - 1.0))
    assert deviations[0] < 0.01
    assert deviations[1] < deviations[0]


def test_one_level_tree_approximations_are_complements():
    table = validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], 0.05)
    tree = DecisionTree(Internal("t", Leaf("a"), Leaf("b")))
    assert additive_approx(tree, table) == pytest.approx(0.05, abs=1e-15)
    assert multiplicative_approx(tree, table) == pytest.approx(0.95, abs=1e-15)


def test_bounds_additive_demo_and_sandwich():
    lo, hi = bounds_additive(designed_tree(), TABLE)
    assert lo == pytest.approx(0.083548, abs=1e-6)
    assert hi == pytest.approx(0.086047, abs=1e-6)
    approx = additive_approx(designed_tree(), TABLE)
    assert lo - 1e-9 <= approx <= hi + 1e-9


def test_bounds_additive_single_level_degenerate():
    table = validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], 0.05)
    tree = DecisionTree(Internal("t", Leaf("a"), Leaf("b")))
    lo, hi = bounds_additive(tree, table)
    assert lo == pytest.approx(0.05, abs=1e-12)
    assert hi == pytest.approx(0.05, abs=1e-12)


def test_bounds_additive_sandwich_random_instances():
    for seed in range(40):
        table = support.random_table(seed, cell_errors=(seed % 2 == 0))
        tree = build_greedy(table).tree
        lo, hi = bounds_additive(tree, table)
        approx = additive_approx(tree, table)
        assert lo - 1e-9 <= approx <= hi + 1e-9


def test_bounds_multiplicative_contract():
    lo, hi = bounds_multiplicative(designed_tree(), TABLE)
    values = [q.multiplicative_metric for q in level_quantities(designed_tree(), TABLE)]
    h0 = level_quantities(designed_tree(), TABLE)[0].entropy_before
    assert lo == pytest.approx((h0 + 1.0) / max(values), abs=1e-12)
    assert hi == pytest.approx((h0 + 1.0) / min(values), abs=1e-12)
    # the upper value always dominates the product approximation
    assert multiplicative_approx(designed_tree(), TABLE) <= hi + 1e-9


def test_bounds_multiplicative_single_level_equality():
    # with one level both values coincide with the product approximation
    table = validate_table(["a", "b"], [0.5, 0.5], ["t"], [[0, 1]], 0.05)
    tree = DecisionTree(Internal("t", Leaf("a"), Leaf("b")))
    lo, hi = bounds_multiplicative(tree, table)
    approx = multiplicative_approx(tree, table)
    assert lo == pytest.approx(approx, abs=1e-12)
    assert hi == pytest.approx(approx, abs=1e-12)


def test_level_quantities_entropies_decrease():
    for seed in range(15):
        table = support.random_table(seed)
        tree = build_greedy(table).tree
        quantities = level_quantities(tree, table)
        entropies = [quantities[0].entropy_before] + [q.entropy_after for q in quantities]
        assert all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))
        assert entropies[-1] == 0.0
        for q in quantities:
            assert q.error_mass + q.correct_mass == pytest.approx(1.0, abs=1e-12)


def test_metric_config_validates_offset():
    with pytest.raises(ValidationError):
        MetricConfig(ratio_offset=0.0)


_U = 2.0**-53  # the unit roundoff of a float64


def _tree(table, tree_seed, offset):
    """The greedy tree under the multiplicative metric at ``offset`` for a
    negative ``tree_seed``, else the random tree of that seed."""
    if tree_seed < 0:
        config = BuilderConfig(MetricConfig(Metric.MULTIPLICATIVE, ratio_offset=offset))
        return build_greedy(table, config).tree
    return build_random(table, tree_seed)


@settings(max_examples=150, deadline=None)
@given(
    table_seed=st.integers(0, 10_000),
    cell_errors=st.booleans(),
    tree_seed=st.integers(-1, 3),
    offset=st.sampled_from([1.0, 0.5]),
)
def test_product_of_correct_masses_is_an_identity_of_the_level_metrics(
    table_seed, cell_errors, tree_seed, offset
):
    """With m_d = ((H_{d-1} + r) / (H_d + r)) / c_d and H_D = 0 after the
    last level, the product telescopes: prod c_d = (H_0 + r) / (r prod m_d).
    Each side rounds once or a few times per level, so they agree within
    8 u per level, relative."""
    table = support.random_table(table_seed, max_classes=10, max_tests=12, cell_errors=cell_errors)
    levels = level_quantities(_tree(table, tree_seed, offset), table, offset)
    assert levels[-1].entropy_after == 0.0
    product = metric = 1.0
    for q in levels:
        product *= q.correct_mass
        metric *= q.multiplicative_metric
    identity = (levels[0].entropy_before + offset) / (offset * metric)
    assert abs(product - identity) <= 8 * len(levels) * _U * product


@settings(max_examples=150, deadline=None)
@given(
    table_seed=st.integers(0, 10_000),
    tree_seed=st.integers(-1, 3),
    offset=st.sampled_from([1.0, 0.5]),
)
def test_product_of_correct_masses_is_below_exact_pc_under_one_error(
    table_seed, tree_seed, offset
):
    """Under one scalar error a class's factor at level d is 1 - e while it
    is still tested there and 1 after, so every factor falls as the class's
    depth grows; factors that fall together are positively correlated
    (Chebyshev's sum inequality), so prod c_d <= exact pc, within 8 u per
    level for rounding. With per-cell errors this can fail."""
    table = support.random_table(table_seed, max_classes=10, max_tests=12, max_error=0.45)
    tree = _tree(table, tree_seed, offset)
    levels = level_quantities(tree, table, offset)
    product = 1.0
    for q in levels:
        product *= q.correct_mass
    assert product <= exact_correct(tree, table) + 8 * len(levels) * _U


@settings(max_examples=150, deadline=None)
@given(table_seed=st.integers(0, 10_000), tree_seed=st.integers(-1, 3))
def test_sum_of_error_masses_is_a_union_bound_on_exact_pm(table_seed, tree_seed):
    """sum g_d counts each class's prior times the sum of its path's cell
    errors, and P(some test on the path errs) is at most that sum (a union
    bound), so sum g_d >= exact pm for any errors, per-cell ones included.
    Each side rounds a few times per level: within 8 u per level."""
    table = support.random_table(
        table_seed, max_classes=10, max_tests=12, max_error=0.45, cell_errors=True
    )
    tree = _tree(table, tree_seed, 1.0)
    depth = len(level_quantities(tree, table))
    assert additive_approx(tree, table) >= exact_misclassification(tree, table) - 8 * depth * _U


@settings(max_examples=150, deadline=None)
@given(
    table_seed=st.integers(0, 10_000),
    tree_seed=st.integers(-1, 3),
    scale=st.sampled_from([1.0, 1e-4, 1e-8, 1e-12, 1e-15]),
)
def test_exact_pm_is_within_its_stated_bound_of_the_rational_value(table_seed, tree_seed, scale):
    """pm = sum p (1 - prod (1 - e)) rounds each 1 - e by up to u/2, so a
    class's survival is off by about its depth times u, absolutely; the
    class terms and their sum add a relative u per class. So
    |pm - pm*| <= (depth + 1) u + n u pm*, where pm* is the rational value
    on the same float inputs. The relative error grows as u / e when the
    errors shrink, which is why the bound has an absolute part."""
    table = support.random_table(
        table_seed, max_classes=10, max_tests=12, max_error=0.45, cell_errors=True
    )
    tree = _tree(table, tree_seed, 1.0)
    table = support.table_variant(table, errors=table.errors * scale)
    exact = support.fraction_pm(tree, table)
    u = Fraction(_U)
    bound = (tree.depth() + 1) * u + table.n_classes * u * exact
    assert abs(Fraction(exact_misclassification(tree, table)) - exact) <= bound


def test_product_of_correct_masses_can_exceed_exact_pc_under_per_cell_errors():
    # class a errs often at the root and rarely below it, b the other way
    # round, so the two levels' factors are anti-correlated across classes
    errors = [[0.45, 0.01, 0.01], [0.01, 0.45, 0.01]]
    table = validate_table(["a", "b", "c"], [0.4, 0.4, 0.2], ["t0", "t1"],
                           [[0, 0, 1], [0, 1, None]], errors)
    tree = DecisionTree(Internal("t0", Internal("t1", Leaf("a"), Leaf("b")), Leaf("c")))
    assert build_greedy(table).tree == tree
    product = multiplicative_approx(tree, table)
    assert product == pytest.approx(0.814 * 0.816, rel=1e-12)
    assert exact_correct(tree, table) == pytest.approx(0.6336, rel=1e-12)
    assert product > exact_correct(tree, table) + 0.03
    # under one scalar error the same tree keeps the product below pc
    scalar = table.with_scalar_error(0.45)
    assert multiplicative_approx(tree, scalar) <= exact_correct(tree, scalar)
