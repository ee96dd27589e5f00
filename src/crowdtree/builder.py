"""Decision tree construction: greedy metric-driven, random, and exhaustive.

The greedy builder works level by level: every still-ambiguous block gets
exactly one applicable test per level, and the joint choice across blocks is
scored by the configured metric. The choice is exact without enumerating
the cross product: Dinkelbach's iteration for the additive ratio, a walk along
the lower-left hull of the Minkowski sum of the per-block points for the
multiplicative product.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .errors import DepthGuardExceeded, InseparableClasses, InstanceTooLarge, ValidationError
from .metrics import (
    LevelQuantities,
    Metric,
    MetricConfig,
    _block_entropy,
    exact_correct,
    exact_misclassification,
    level_entropy,
    level_quantities,
    metric_additive,
    metric_multiplicative,
)
from .model import (
    Block,
    DecisionTree,
    Internal,
    Leaf,
    Node,
    Partition,
    TestTable,
    applicable_tests,
    level_trace,
    refine_partition,
    split_block,
)


@dataclass(frozen=True)
class BuilderConfig:
    metric: MetricConfig = field(default_factory=MetricConfig)
    max_depth: int = 64

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValidationError(f"max depth must be >= 1, got {self.max_depth}")


@dataclass(frozen=True)
class GreedyResult:
    tree: DecisionTree
    levels: tuple[LevelQuantities, ...]


def _inseparable_error(table: TestTable, block: Block) -> InseparableClasses:
    """Name an offending pair: two block members no single test tells apart."""
    for i, j in itertools.combinations(block, 2):
        separable = False
        for m in range(table.n_tests):
            oi, oj = int(table.outcomes[m, i]), int(table.outcomes[m, j])
            if oi >= 0 and oj >= 0 and oi != oj:
                separable = True
                break
        if not separable:
            return InseparableClasses(
                f"classes {table.classes[i]!r} and {table.classes[j]!r} are not "
                f"separated by any test"
            )
    names = [table.classes[i] for i in block]
    return InseparableClasses(
        f"no applicable test splits the group {names}; classes "
        f"{names[0]!r} and {names[1]!r} stay together"
    )


class _Point(NamedTuple):
    test: int  # test index, the tie-break key
    h: float  # mass times entropy of the two sub-blocks
    g: float  # error mass
    c: float  # correct mass


def _select_additive(points: list[list[_Point]], h_before: float) -> list[_Point]:
    """Dinkelbach's iteration on (h_before - sum h) / sum g. Each round takes,
    per block, the argmax of (H_b - h) - lam * g, where H_b is the block's own
    entropy term, so the argmin of h + lam * g; ties go to the lowest index.
    Once lam stops rising, that argmax is the lexicographically smallest
    optimum."""
    error_free = [next((p for p in pts if p.g == 0.0), None) for pts in points]
    if None not in error_free:
        return error_free  # the level scores +inf

    def ratio(choice: list[_Point]) -> float:
        return metric_additive(h_before - sum(p.h for p in choice), math.fsum(p.g for p in choice))

    lam = ratio([pts[0] for pts in points])
    while True:
        choice = [min(pts, key=lambda p: p.h + lam * p.g) for pts in points]
        value = ratio(choice)
        if not value > lam:
            return choice
        lam = value


def _lower_left_hull(points: list[_Point]) -> list[_Point]:
    """Lower-left convex hull of the (h, c) points, from least h to least c;
    a repeated point keeps its lowest test index."""
    hull: list[_Point] = []
    for p in sorted(points, key=lambda p: (p.h, p.c, p.test)):
        if hull and p.c >= hull[-1].c:
            continue  # dominated
        while len(hull) > 1 and (hull[-1].h - hull[-2].h) * (p.c - hull[-2].c) <= (
            hull[-1].c - hull[-2].c
        ) * (p.h - hull[-2].h):
            hull.pop()
        hull.append(p)
    return hull


def _select_multiplicative(
    points: list[list[_Point]], entropy_before: float, singleton_mass: float, offset: float
) -> list[_Point]:
    """Minimize (sum h + offset) * (sum c + singleton mass). The product is
    quasi-concave and rises in both sums, so the optimum is a vertex of the
    lower-left hull of the Minkowski sum of the per-block points; walk that
    hull by merging the per-block hull edges by slope."""
    hulls = [_lower_left_hull(pts) for pts in points]
    edges = [[((b.c - a.c) / (b.h - a.h), k, b) for a, b in zip(hull, hull[1:])]
             for k, hull in enumerate(hulls)]
    choice = [hull[0] for hull in hulls]
    vertices = [list(choice)]
    for _, k, p in heapq.merge(*edges, key=lambda edge: edge[0]):
        choice[k] = p
        vertices.append(list(choice))

    def score(choice: list[_Point]) -> float:
        correct = math.fsum([*(p.c for p in choice), singleton_mass])
        return metric_multiplicative(entropy_before, sum(p.h for p in choice), correct, offset)

    return max(vertices, key=lambda choice: (score(choice), [-p.test for p in choice]))


def _choose_level_assignment(
    table: TestTable, partition: Partition, config: BuilderConfig
) -> dict[Block, str]:
    """One test per open block, exactly maximizing the level metric; ties go
    to the lexicographically smallest test indices, blocks in partition order.
    Both metrics are sums of per-(block, test) points, computed once here."""
    open_blocks = [b for b in partition if len(b) > 1]
    points = []
    for block in open_blocks:
        tests = applicable_tests(table, block)
        if not tests:
            raise _inseparable_error(table, block)
        points.append([])
        for test_id in tests:
            m = table.test_index(test_id)
            zeros, ones = split_block(table, block, test_id)
            h = _block_entropy(table.priors, zeros) + _block_entropy(table.priors, ones)
            g = math.fsum(table.priors[i] * float(table.errors[m, i]) for i in block)
            c = math.fsum(table.priors[i] * (1.0 - float(table.errors[m, i])) for i in block)
            points[-1].append(_Point(m, h, g, c))
    entropy_before = level_entropy(table.priors, partition)
    if config.metric.kind is Metric.ADDITIVE:
        choice = _select_additive(points, entropy_before)
    else:
        singletons = math.fsum(table.priors[b[0]] for b in partition if len(b) == 1)
        offset = config.metric.ratio_offset
        choice = _select_multiplicative(points, entropy_before, singletons, offset)
    return {b: table.tests[p.test] for b, p in zip(open_blocks, choice)}


def _assemble(chosen: list[dict[Block, str]], table: TestTable) -> DecisionTree:
    """The tree whose level d gives block b the test ``chosen[d][b]``, built from
    the deepest level up, so that a block's two halves are nodes before it."""
    node_of: dict[Block, Node] = {(i,): Leaf(c) for i, c in enumerate(table.classes)}
    for assignment in reversed(chosen):
        for block, test_id in assignment.items():
            zeros, ones = split_block(table, block, test_id)
            node_of[block] = Internal(test_id, node_of[zeros], node_of[ones])
    return DecisionTree(node_of[table.all_classes_block()])


def build_greedy(table: TestTable, config: BuilderConfig | None = None) -> GreedyResult:
    """Construct a tree level by level under the configured metric.

    Every non-singleton block receives a test at every level; construction
    ends when all blocks are singletons. Deterministic for a given table and
    config. The result carries each level's quantities under the config's
    ratio offset.
    """
    config = config or BuilderConfig()
    tree = _greedy_tree(table, config)
    return GreedyResult(
        tree=tree,
        levels=tuple(level_quantities(tree, table, config.metric.ratio_offset)),
    )


def _greedy_tree(table: TestTable, config: BuilderConfig) -> DecisionTree:
    """The tree of :func:`build_greedy`, without its level quantities."""
    partition: Partition = (table.all_classes_block(),)
    chosen: list[dict[Block, str]] = []
    while any(len(b) > 1 for b in partition):
        if len(chosen) >= config.max_depth:
            raise DepthGuardExceeded(f"tree exceeded max depth {config.max_depth}")
        assignment = _choose_level_assignment(table, partition, config)
        chosen.append(assignment)
        partition = refine_partition(table, partition, assignment)
    return _assemble(chosen, table)


def build_random(table: TestTable, seed: int) -> DecisionTree:
    """Tree with a uniformly random applicable test at every block.

    Blocks are visited level by level in partition order, so a given seed
    reproduces the same tree bit for bit.
    """
    rng = random.Random(seed)
    partition: Partition = (table.all_classes_block(),)
    chosen: list[dict[Block, str]] = []
    while any(len(b) > 1 for b in partition):
        assignment: dict[Block, str] = {}
        for block in partition:
            if len(block) == 1:
                continue
            tests = applicable_tests(table, block)
            if not tests:
                raise _inseparable_error(table, block)
            assignment[block] = tests[rng.randrange(len(tests))]
        chosen.append(assignment)
        partition = refine_partition(table, partition, assignment)
    return _assemble(chosen, table)


_DEFAULT_MAX_CLASSES = 5
_DEFAULT_MAX_TESTS = 5


def enumerate_trees(
    table: TestTable,
    max_classes: int = _DEFAULT_MAX_CLASSES,
    max_tests: int = _DEFAULT_MAX_TESTS,
) -> Iterator[DecisionTree]:
    """Yield every distinct valid tree for a small instance.

    Recursion never needs to track used tests: once a test splits a block,
    it is constant on both halves and therefore never applicable below.
    """
    if table.n_classes > max_classes or table.n_tests > max_tests:
        raise InstanceTooLarge(
            f"{table.n_classes} classes / {table.n_tests} tests exceeds the "
            f"{max_classes}/{max_tests} enumeration bound"
        )
    memo: dict[Block, list[Node]] = {}

    def block_trees(block: Block) -> list[Node]:
        if len(block) == 1:
            return [Leaf(table.classes[block[0]])]
        cached = memo.get(block)
        if cached is not None:
            return cached
        out: list[Node] = []
        for test_id in applicable_tests(table, block):
            zeros, ones = split_block(table, block, test_id)
            for zt in block_trees(zeros):
                for ot in block_trees(ones):
                    out.append(Internal(test_id, zt, ot))
        memo[block] = out
        return out

    for root in block_trees(table.all_classes_block()):
        yield DecisionTree(root)


class Objective(enum.Enum):
    EXACT_PM = "exact-pm"  # minimize misclassification probability
    EXACT_PC = "exact-pc"  # maximize correct-classification probability


def _level_test_key(tree: DecisionTree, table: TestTable) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(table.test_index(step.assignment[b]) for b in step.before if b in step.assignment)
        for step in level_trace(tree, table)
    )


def best_tree_exhaustive(
    table: TestTable,
    objective: Objective = Objective.EXACT_PM,
    max_classes: int = _DEFAULT_MAX_CLASSES,
    max_tests: int = _DEFAULT_MAX_TESTS,
) -> tuple[DecisionTree, float]:
    """Globally optimal tree by brute force over :func:`enumerate_trees`.

    Exact-value ties break toward the lexicographically smallest per-level
    test sequence.
    """
    best_tree: DecisionTree | None = None
    best_value = 0.0
    best_key: tuple | None = None
    for tree in enumerate_trees(table, max_classes, max_tests):
        if objective is Objective.EXACT_PM:
            value = exact_misclassification(tree, table)
            better = best_tree is None or value < best_value
        else:
            value = exact_correct(tree, table)
            better = best_tree is None or value > best_value
        key = _level_test_key(tree, table)
        if better or (value == best_value and key < best_key):
            best_tree, best_value, best_key = tree, value, key
    if best_tree is None:
        raise _inseparable_error(table, table.all_classes_block())
    return best_tree, best_value
