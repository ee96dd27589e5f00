"""Decision tree construction: greedy metric-driven, random, and exhaustive.

The greedy and random builders share one level loop, :func:`_grow`: every
still-ambiguous block gets exactly one applicable test per level, picked by
the builder's own choice function, until every block is a singleton. Each
level splits every open block into two non-empty halves, so a build ends
within classes - 1 levels. The greedy choice is joint across the level's
blocks and scored by the configured metric. Both metrics are sums over
blocks of one point per (block, applicable test): h, the mass times entropy
of the two sub-blocks, and one mass, which is the error mass g under the
additive metric and the correct mass c under the multiplicative one. The
choice is exact without enumerating the cross product: Dinkelbach's
iteration for the additive ratio, a walk along the lower-left hull of the
Minkowski sum of the per-block points for the multiplicative product.
Under one scalar error every point of a block carries the same mass, so
both choices take each block's least-h point, the lowest test index on
equal h, and the greedy tree does not depend on the error;
:func:`crowdtree.simulate.sweep_error` builds it once. The additive
selector takes that point outright in a block of one mass, so that
rounding in its key h + lam * g cannot tie points whose h differ.

Both builders read what does not change between levels from one
:class:`_Cells` per build, or per table for random builds that share it
through :func:`_random_tree`: bit masks of the cells answering 1 and of the
undefined ones, the outcome rows and, for a greedy build, the products
``p·e`` (additive) or ``p·(1−e)`` (multiplicative) of every cell, made by
numpy with the same bits as Python's ``*``. A test applies to a block when
it is defined for every member and answers 1 for some but not all of them.
The mass is ``fsum`` of the block's products, picked out at C level; h is
computed once per split of the block, since many tests split a small block
the same way. Each chosen block is split once, and that split makes both
the next level's blocks and the tree's node. A greedy build's per-level
figures are read afterwards from the tree it built.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import compress
from operator import and_, attrgetter, itemgetter, not_, or_
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InseparableClasses, InstanceTooLarge
from .metrics import (
    LevelQuantities,
    Metric,
    MetricConfig,
    _entropy_term,
    _level_entropy,
    exact_correct,
    exact_misclassification,
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
    split_block,
)


@dataclass(frozen=True)
class BuilderConfig:
    metric: MetricConfig = field(default_factory=MetricConfig)


@dataclass(frozen=True)
class GreedyResult:
    tree: DecisionTree
    levels: tuple[LevelQuantities, ...]


def _inseparable_error(table: TestTable, block: Block) -> InseparableClasses:
    """Name an offending pair: the first two block members, in
    ``itertools.combinations`` order, that no single test tells apart."""
    cells = table.outcomes[:, block]
    ones, zeros = cells == 1, cells == 0
    for k in range(len(block) - 1):  # member k against every later member
        apart = (ones[:, k, None] & zeros[:, k + 1:]) | (zeros[:, k, None] & ones[:, k + 1:])
        together = ~apart.any(axis=0)
        if together.any():
            i, j = block[k], block[k + 1 + int(together.argmax())]
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
    mass: float  # the error mass g (additive) or the correct mass c (multiplicative)


def _select_additive(points: list[list[_Point]], h_before: float) -> list[_Point]:
    """The additive level choice from ``points[k]``, open block k's points
    in test order as :func:`_block_points` scores them; the sums below run
    over one chosen point per block.

    Dinkelbach's iteration on (h_before - sum h) / sum g, a point's mass
    being its g. Each round takes, per block, the argmax of (H_b - h) - lam * g,
    where H_b is the block's own entropy term, so the argmin of h + lam * g;
    ties go to the lowest index.
    Once lam stops rising, that argmax is the lexicographically smallest
    optimum. A block whose points all carry one g takes its least-h point,
    the lowest index on equal h, in every round: that is the argmin for any
    lam, and taking it outright keeps rounding in h + lam * g from tying
    points whose h differ. Under one scalar error every block is such a
    block, so the choice does not depend on the error."""
    error_free = [next((p for p in pts if p.mass == 0.0), None) for pts in points]
    if None not in error_free:
        return error_free  # the level scores +inf

    def ratio(choice: list[_Point]) -> float:
        g = math.fsum(p.mass for p in choice)
        return metric_additive(h_before - sum(p.h for p in choice), g)

    one_mass = [min(pts, key=attrgetter("h")) if all(p.mass == pts[0].mass for p in pts)
                else None for pts in points]
    lam = ratio([pts[0] for pts in points])
    while True:
        choice = [min(pts, key=lambda p: p.h + lam * p.mass) if least is None else least
                  for pts, least in zip(points, one_mass)]
        value = ratio(choice)
        if not value > lam:
            return choice
        lam = value


def _lower_left_hull(points: list[_Point]) -> list[_Point]:
    """Lower-left convex hull of the (h, mass) points, from least h to least
    mass; a repeated point keeps its lowest test index."""
    hull: list[_Point] = []
    for p in sorted(points, key=lambda p: (p.h, p.mass, p.test)):
        if hull and p.mass >= hull[-1].mass:
            continue  # dominated
        while len(hull) > 1 and (hull[-1].h - hull[-2].h) * (p.mass - hull[-2].mass) <= (
            hull[-1].mass - hull[-2].mass
        ) * (p.h - hull[-2].h):
            hull.pop()
        hull.append(p)
    return hull


def _select_multiplicative(
    points: list[list[_Point]], entropy_before: float, singleton_mass: float, offset: float
) -> list[_Point]:
    """The multiplicative level choice from the same per-block points as
    :func:`_select_additive`, where a point's mass is its c.

    Minimize (sum h + offset) * (sum c + singleton mass). The product is
    quasi-concave and rises in both sums, so the optimum is a vertex of the
    lower-left hull of the Minkowski sum of the per-block points; walk that
    hull by merging the per-block hull edges by slope."""
    hulls = [_lower_left_hull(pts) for pts in points]
    edges = [[((b.mass - a.mass) / (b.h - a.h), k, b) for a, b in zip(hull, hull[1:])]
             for k, hull in enumerate(hulls)]
    choice = [hull[0] for hull in hulls]
    vertices = [list(choice)]
    for _, k, p in heapq.merge(*edges, key=lambda edge: edge[0]):
        choice[k] = p
        vertices.append(list(choice))

    def score(choice: list[_Point]) -> float:
        correct = math.fsum([*(p.mass for p in choice), singleton_mass])
        return metric_multiplicative(entropy_before, sum(p.h for p in choice), correct, offset)

    return max(vertices, key=lambda choice: (score(choice), [-p.test for p in choice]))


class _Cells(NamedTuple):
    """What the builders read of a table, made once per build."""

    priors: tuple[float, ...]
    ones: list[int]  # per test, the mask of the classes answering 1 (bit i: class i)
    tests_one: list[int]  # per class, the mask of the tests answering 1 (bit m: test m)
    tests_undefined: list[int]  # per class, the mask of the tests undefined for it
    outcomes: list[bytes]  # per test, each class's outcome; -1 reads 255
    mass: list[memoryview]  # per test, p * e (additive) or p * (1 - e) by class


def _masks(cells: np.ndarray) -> list[int]:
    """Per row of a boolean array, the mask of its true cells."""
    packed = np.packbits(cells, axis=1, bitorder="little")
    rows, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(rows[k : k + width], "little") for k in range(0, len(rows), width)]


def _cells(table: TestTable, metric: Metric | None = None) -> _Cells:
    """The mass products of ``metric``, none without one, are elementwise
    IEEE operations, with the same bits as ``table.priors[i] *
    float(table.errors[m, i])`` or its complement."""
    priors, ones = np.asarray(table.priors), table.outcomes == 1
    rows, n = table.outcomes.tobytes(), table.n_classes
    mass = []
    if metric is not None:
        factor = table.errors if metric is Metric.ADDITIVE else 1.0 - table.errors
        mass = [memoryview(row) for row in priors * factor]
    outcomes = [rows[k : k + n] for k in range(0, len(rows), n)]
    undefined = _masks(table.outcomes.T < 0)
    return _Cells(table.priors, _masks(ones), _masks(ones.T), undefined, outcomes, mass)


def _applicable(cells: _Cells, block: Block) -> list[int]:
    """The tests applicable to ``block``, in test order: defined for every
    member, answering 1 for some member but not for all."""
    pick = itemgetter(*block)
    ones = pick(cells.tests_one)
    fit = reduce(or_, ones) & ~(reduce(and_, ones) | reduce(or_, pick(cells.tests_undefined)))
    return [m for m, bit in enumerate(reversed(bin(fit))) if bit == "1"]  # lowest bit first


def _block_points(cells: _Cells, block: Block) -> list[_Point]:
    """One point per test applicable to ``block``, in test order; empty if
    none is. The test's ones on the block fix both sub-blocks, so h is
    computed once per split, from the block's priors."""
    mask = sum(map((1).__lshift__, block))
    pick = itemgetter(*block)
    priors = pick(cells.priors)
    h_of: dict[int, float] = {}
    points = []
    for m in _applicable(cells, block):
        ones = cells.ones[m] & mask
        h = h_of.get(ones)
        if h is None:
            side = pick(cells.outcomes[m])
            h = _entropy_term([*compress(priors, map(not_, side))])
            h += _entropy_term([*compress(priors, side)])
            h_of[ones] = h_of[mask ^ ones] = h  # the mirror split sums the same terms
        points.append(_Point(m, h, math.fsum(pick(cells.mass[m]))))
    return points


def _choose_level_assignment(
    table: TestTable, cells: _Cells, config: BuilderConfig, partition: Partition
) -> dict[Block, int]:
    """One test index per open block, exactly maximizing the level metric; ties
    go to the lexicographically smallest test indices, blocks in partition order."""
    open_blocks = [b for b in partition if len(b) > 1]
    points = []
    for block in open_blocks:
        points.append(_block_points(cells, block))
        if not points[-1]:
            raise _inseparable_error(table, block)
    entropy_before = _level_entropy(table.priors, partition)
    if config.metric.kind is Metric.ADDITIVE:
        choice = _select_additive(points, entropy_before)
    else:
        singletons = math.fsum(table.priors[b[0]] for b in partition if len(b) == 1)
        offset = config.metric.ratio_offset
        choice = _select_multiplicative(points, entropy_before, singletons, offset)
    return {b: p.test for b, p in zip(open_blocks, choice)}


def _split_level(cells: _Cells, partition: Partition, chosen: dict, splits: list) -> Partition:
    """The partition after each block b of ``chosen`` is split by the test
    of index ``chosen[b]``; appends (b, that index, zeros, ones), in
    partition order, to ``splits``."""
    after: list[Block] = []
    for block in partition:
        m = chosen.get(block)
        if m is None:
            after.append(block)
            continue
        side = itemgetter(*block)(cells.outcomes[m])
        # tuples made from lists: tuple() of an iterator resizes as it fills
        split = tuple([*compress(block, map(not_, side))]), tuple([*compress(block, side)])
        after += split
        splits.append((block, m, *split))
    return tuple(after)


def _assemble(splits: list, table: TestTable) -> DecisionTree:
    """The tree of ``splits``, listed level by level as :func:`_split_level`
    makes them: built from the last one back, so that a block's two halves
    are nodes before it."""
    node_of: dict[Block, Node] = {(i,): Leaf(c) for i, c in enumerate(table.classes)}
    for block, m, zeros, ones in reversed(splits):
        node_of[block] = Internal(table.tests[m], node_of[zeros], node_of[ones])
    return DecisionTree(node_of[table.all_classes_block()])


def _grow(table: TestTable, cells: _Cells, choose) -> DecisionTree:
    """The tree made level by level from the one-block partition:
    ``choose(partition)`` maps each open block to a test index, and each
    chosen block is split by its test, until every block is a singleton."""
    partition: Partition = (table.all_classes_block(),)
    splits: list[tuple] = []
    while any(len(b) > 1 for b in partition):
        partition = _split_level(cells, partition, choose(partition), splits)
    return _assemble(splits, table)


def build_greedy(table: TestTable, config: BuilderConfig | None = None) -> GreedyResult:
    """Construct a tree level by level under the configured metric.

    Every non-singleton block receives a test at every level; construction
    ends when all blocks are singletons. Deterministic for a given table and
    config. The result carries each level's quantities under the config's
    ratio offset, read from the built tree by :func:`level_quantities`; the
    compile that takes stays cached on the tree for its other readers.
    """
    config = config or BuilderConfig()
    tree = _greedy_tree(table, config)
    return GreedyResult(tree, tuple(level_quantities(tree, table, config.metric.ratio_offset)))


def _greedy_tree(table: TestTable, config: BuilderConfig) -> DecisionTree:
    """The tree of :func:`build_greedy`, without its level quantities."""
    cells = _cells(table, config.metric.kind)
    return _grow(table, cells, partial(_choose_level_assignment, table, cells, config))


def build_random(table: TestTable, seed: int) -> DecisionTree:
    """Tree with a uniformly random applicable test at every block.

    Blocks are visited level by level in partition order, so a given seed
    reproduces the same tree bit for bit.
    """
    return _random_tree(table, seed, _cells(table))


def _random_tree(table: TestTable, seed: int, cells: _Cells) -> DecisionTree:
    """The tree of :func:`build_random` from ``cells``, the table's
    :func:`_cells`, which any number of seeds can share."""
    rng = random.Random(seed)

    def choose(partition: Partition) -> dict[Block, int]:
        chosen: dict[Block, int] = {}
        for block in partition:
            if len(block) == 1:
                continue
            tests = _applicable(cells, block)
            if not tests:
                raise _inseparable_error(table, block)
            chosen[block] = tests[rng.randrange(len(tests))]
        return chosen

    return _grow(table, cells, choose)


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
