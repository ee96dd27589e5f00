import builtins
import importlib
import itertools
import math
import random
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from crowdtree.builder import _ULP, _Point, _select_additive
from crowdtree.errors import (
    InseparableClasses,
    InstanceTooLarge,
    InvalidPartition,
    SingletonBlock,
)
from crowdtree.fileio import load_tree, save_tree
from crowdtree.fixtures import alternative_tree, demo_table, designed_tree
from crowdtree.metrics import _entropy_term

import support

builder_module = importlib.import_module("crowdtree.builder")


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


def test_builders_split_each_block_once_from_their_own_cells(monkeypatch):
    calls = []
    model = importlib.import_module("crowdtree.model")
    for module in (model, importlib.import_module("crowdtree.builder")):
        for function in ("split_block", "applicable_tests", "refine_partition"):
            if hasattr(module, function):
                original = getattr(module, function)

                def counted(*args, original=original, function=function):
                    calls.append(function)
                    return original(*args)

                monkeypatch.setattr(module, function, counted)
    tables = [demo_table(0.05), support.wide_table(40, 0), support.random_table(7)]
    for table in tables:
        for kind in Metric:
            build_greedy(table, BuilderConfig(metric=MetricConfig(kind=kind)))
        for seed in range(3):
            build_random(table, seed)
    assert calls == []
    # the guard sees calls made through either module
    list(enumerate_trees(demo_table(0.05)))
    model.refine_partition(demo_table(0.05), ((0, 1, 2, 3, 4),), {(0, 1, 2, 3, 4): "T1"})
    assert {"split_block", "applicable_tests", "refine_partition"} == set(calls)


def test_only_screened_levels_make_the_screen_rows():
    """Every level of a 12-class benchmark-shaped table stays under the
    screen's threshold, so its build never makes ``_Cells.screen``; a
    40-class build screens its first level and makes them."""
    for n_classes, screened in ((12, False), (40, True)):
        for seed in range(3):
            table = support.wide_table(n_classes, seed)
            for kind in Metric:
                cells = builder_module._cells(table, kind)
                config = BuilderConfig(metric=MetricConfig(kind=kind))
                builder_module._greedy_splits(table, config, cells)
                assert len(cells.screen) == (2 if screened else 0), (n_classes, seed, kind)


def test_builders_do_not_recheck_their_own_partitions(monkeypatch):
    checks = []
    for name in ("crowdtree.model", "crowdtree.metrics"):
        module = importlib.import_module(name)
        original = module.check_partition

        def counted(*args, original=original):
            checks.append(args)
            return original(*args)

        monkeypatch.setattr(module, "check_partition", counted)
    tables = [demo_table(0.05), support.wide_table(40, 0), support.random_table(7)]
    for table in tables:
        for kind in Metric:
            build_greedy(table, BuilderConfig(metric=MetricConfig(kind=kind)))
        build_random(table, 3)
    assert checks == []
    # the public calls still check what they are given
    table = demo_table(0.05)
    bad = {
        "class index 1 repeated or out of range": ((0, 1), (1, 2, 3, 4)),
        "partition does not cover every class": ((0, 1, 2),),
        "empty block": ((), (0, 1, 2, 3, 4)),
    }
    for message, partition in bad.items():
        for call in (
            lambda: refine_partition(table, partition, {}),
            lambda: level_entropy(table.priors, partition),
            lambda: level_error_mass(table, partition, {}),
            lambda: level_correct_mass(table, partition, {}),
        ):
            with pytest.raises(InvalidPartition, match=message):
                call()
    assert len(checks) == 4 * len(bad)
    with pytest.raises(SingletonBlock, match="cannot be assigned a test"):
        refine_partition(table, ((0,), (1, 2, 3, 4)), {(0,): "T1"})


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    max_classes=st.integers(2, 14),
    cell_errors=st.booleans(),
    na_prob=st.sampled_from([0.0, 0.12, 0.3]),
    random_seed=st.integers(0, 2**32),
)
def test_built_trees_validate_and_round_trip_through_files(
    seed, max_classes, cell_errors, na_prob, random_seed
):
    table = support.random_table(
        seed, max_classes=max_classes, max_tests=16, cell_errors=cell_errors, na_prob=na_prob
    )
    trees = [build_greedy(table, BuilderConfig(metric=MetricConfig(kind=kind))).tree
             for kind in Metric]
    trees.append(build_random(table, random_seed))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        for tree in trees:
            validate_tree(tree, table)
            save_tree(str(first), tree, table, {"kind": "property"})
            loaded = load_tree(str(first), table)
            assert loaded == tree
            save_tree(str(second), loaded, table, {"kind": "property"})
            assert second.read_bytes() == first.read_bytes()


def test_select_additive_takes_least_h_in_a_block_of_one_mass():
    low, high = 1.0, math.nextafter(1.0, 2.0)
    points = [_Point(0, high, 1.0), _Point(1, low, 1.0)]
    # h_before makes lam 99, and h + 99 * 1.0 rounds to 100.0 at both points
    assert high + 99.0 == low + 99.0
    assert _select_additive([points], 100.0) == [points[1]]
    # a block of mixed masses keeps the key h + lam * g: its least-h point loses on mass
    mixed = [_Point(0, high, 1.0), _Point(1, low, math.nextafter(1.0, 2.0))]
    assert _select_additive([points, mixed], 200.0) == [points[1], mixed[0]]


CONFIGS = [BuilderConfig(metric=MetricConfig(kind=kind, ratio_offset=offset))
           for kind in Metric for offset in (1.0, 0.5)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    max_classes=st.integers(2, 14),
    cell_errors=st.booleans(),
    na_prob=st.sampled_from([0.0, 0.12, 0.3]),
    errors=st.lists(st.floats(1e-300, 0.5, exclude_max=True), min_size=2, max_size=2),
)
def test_greedy_tree_does_not_depend_on_one_scalar_error(
    seed, max_classes, cell_errors, na_prob, errors
):
    table = support.random_table(
        seed, max_classes=max_classes, max_tests=16, cell_errors=cell_errors, na_prob=na_prob
    )
    for config in CONFIGS:
        first, second = (build_greedy(table.with_scalar_error(p), config).tree for p in errors)
        assert first == second


def _extreme_table(seed: int, n: int, priors: str, errors: str):
    """A seeded table of ``n`` classes and 12 tests, each with both
    outcomes and about 10% undefined cells, with priors all equal, half of
    them near 1e-300, or Gamma(2); and errors all 0, all 0.4999, or mixed
    (0, 0.4999, 0.1, 1e-9 and uniform in [0, 0.3))."""
    rng = np.random.default_rng([seed, n])
    outcomes = rng.integers(0, 2, (12, n))
    outcomes[:, :2] = [0, 1]
    undefined = rng.random((12, n)) < 0.1
    undefined[:, :2] = False
    outcomes[undefined] = -1
    if priors == "equal":
        p = np.full(n, 1.0 / n)
    elif priors == "tiny":
        tiny = rng.random(n) < 0.5
        tiny[:2] = [True, False]
        p = np.where(tiny, 1e-300 * (1.0 + rng.random(n)), 1.0)
        p[~tiny] = (1.0 - p[tiny].sum()) / (~tiny).sum()
    else:
        p = rng.gamma(2.0, size=n)
        p /= p.sum()
    if errors == "zero":
        e = np.zeros((12, n))
    elif errors == "near half":
        e = np.full((12, n), 0.4999)
    else:
        picks = rng.choice([0.0, 0.4999, 0.1, 1e-9], size=(12, n))
        e = np.where(rng.random((12, n)) < 0.7, picks, rng.uniform(0.0, 0.3, (12, n)))
    return validate_table(
        [f"c{i}" for i in range(n)],
        p.tolist(),
        [f"T{m}" for m in range(12)],
        [[None if v < 0 else int(v) for v in row] for row in outcomes.tolist()],
        e.tolist(),
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    source=st.sampled_from(["random_table", "extreme"]),
    n=st.sampled_from([2, 3, 7, 40, 200]),
    priors=st.sampled_from(["equal", "tiny", "gamma"]),
    errors=st.sampled_from(["zero", "near half", "mixed"]),
)
def test_screen_lies_within_a_sixteenth_of_its_bound(seed, source, n, priors, errors):
    """Every screened point's h~ = E_B + split and mass~ lie within
    delta / 16 of the exact point of ``_block_points``, on the whole class
    set, a third of it and a pair, and the screen raises no warning."""
    if source == "random_table":
        table = support.random_table(seed, max_classes=12, max_tests=16, cell_errors=True)
    else:
        table = _extreme_table(seed, n, priors, errors)
    rng = random.Random(seed)
    whole = table.all_classes_block()
    blocks = [whole]
    if len(whole) > 2:
        blocks += [tuple(sorted(rng.sample(whole, max(2, len(whole) // 3)))),
                   tuple(sorted(rng.sample(whole, 2)))]
    cells = builder_module._cells(table)
    tests = [builder_module._applicable(cells, b) for b in blocks]
    blocks, tests = [b for b, ms in zip(blocks, tests) if ms], [ms for ms in tests if ms]
    if not blocks:  # a screen has some block: on an extreme table every test splits classes 0, 1
        blocks, tests = [(0, 1)], [builder_module._applicable(cells, (0, 1))]
    terms = [_entropy_term([table.priors[i] for i in b]) for b in blocks]
    for kind in Metric:
        cells = builder_module._cells(table, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            screen = builder_module._screen(cells, blocks, terms, tests)
        for block, entropy, lo, hi, delta in zip(
            blocks, terms, screen.bounds, screen.bounds[1:], screen.delta
        ):
            mass = math.fsum(table.priors[i] for i in block)
            assert math.isclose(delta, 64 * _ULP * len(block) * (entropy + mass), rel_tol=1e-9)
            points = builder_module._block_points(
                cells, block, builder_module._applicable(cells, block)
            )
            assert [p.test for p in points] == screen.test[lo:hi].tolist()
            for point, split, approx in zip(points, screen.split[lo:hi], screen.mass[lo:hi]):
                assert abs(entropy + split - point.h) <= delta / 16
                assert abs(approx - point.mass) <= delta / 16


def _integer_sum(values, start=0):
    """``sum`` of integers only: the builder adds floats by a left fold."""
    values = list(values)
    if not all(isinstance(v, int) for v in [start, *values]):
        raise TypeError(f"sum of non-integers: {values!r}")
    return builtins.sum(values, start)


def test_builder_adds_no_floats_with_sum(monkeypatch):
    """From Python 3.12 ``sum`` compensates float sums, so a selector that
    added its h values with it would score, and break ties, by the Python
    version. The builder's ``sum`` only ever sees integers."""
    tables = [demo_table(0.05), support.random_table(18, 12, 16, cell_errors=True)]
    configs = [BuilderConfig(metric=MetricConfig(kind=kind)) for kind in Metric]
    trees = [build_greedy(table, config).tree for table in tables for config in configs]
    monkeypatch.setattr(builder_module, "sum", _integer_sum, raising=False)
    assert [build_greedy(table, config).tree for table in tables for config in configs] == trees


def test_greedy_builds_score_few_points_exactly(monkeypatch):
    """On a 100-class wide table, the screen leaves at most a tenth of the
    (open block, applicable test) points to exact scoring."""
    table = support.wide_table(100, 0)
    for kind in Metric:
        config = BuilderConfig(metric=MetricConfig(kind=kind))
        cells = builder_module._cells(table, kind)
        tree = build_greedy(table, config).tree
        applicable = sum(len(builder_module._applicable(cells, b))
                         for step in level_trace(tree, table) for b in step.before if len(b) > 1)
        scored = []
        original = builder_module._block_points

        def counted(*args):
            points = original(*args)
            scored.extend(points)
            return points

        monkeypatch.setattr(builder_module, "_block_points", counted)
        assert build_greedy(table, config).tree == tree
        monkeypatch.undo()
        assert applicable > 7000 and len(scored) <= applicable // 10, (kind, len(scored))
