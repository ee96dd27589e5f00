"""Classification instance (classes, priors, noisy binary tests) and tree structures.

A test maps every class to outcome 0 or 1, or is undefined for that class.
Blocks are sorted tuples of class indices; a partition is a tuple of disjoint
blocks covering every class. Trees route an object through tests until a
single-class leaf is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    DuplicateIdentifier,
    ErrorProbOutOfRange,
    InapplicableTest,
    InvalidPartition,
    NonPositivePrior,
    PriorSumMismatch,
    SingletonBlock,
    UnknownClass,
    UnknownTest,
    UselessTest,
    ValidationError,
)

Block = tuple[int, ...]
Partition = tuple[Block, ...]

_PRIOR_EXACT_TOL = 1e-9
_PRIOR_RENORM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class TestTable:
    """Validated classification instance.

    ``outcomes[m, i]`` is 0, 1, or -1 (undefined) for test ``m`` and class
    ``i``; ``errors[m, i]`` is the probability that an object of class ``i``
    is mis-categorized at test ``m`` (NaN where the outcome is undefined).
    Instances are immutable; build them with :func:`validate_table`.
    """

    classes: tuple[str, ...]
    priors: tuple[float, ...]
    tests: tuple[str, ...]
    outcomes: np.ndarray
    errors: np.ndarray

    def __post_init__(self):
        self.outcomes.setflags(write=False)
        self.errors.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_tests(self) -> int:
        return len(self.tests)

    def class_index(self, class_id: str) -> int:
        try:
            return self.classes.index(class_id)
        except ValueError:
            raise UnknownClass(f"unknown class {class_id!r}") from None

    def test_index(self, test_id: str) -> int:
        try:
            return self.tests.index(test_id)
        except ValueError:
            raise UnknownTest(f"unknown test {test_id!r}") from None

    def outcome(self, test_id: str, class_id: str) -> int | None:
        """Outcome of ``test_id`` for ``class_id``: 0, 1, or None if undefined."""
        raw = int(self.outcomes[self.test_index(test_id), self.class_index(class_id)])
        return None if raw < 0 else raw

    def error(self, test_id: str, class_id: str) -> float:
        return float(self.errors[self.test_index(test_id), self.class_index(class_id)])

    def all_classes_block(self) -> Block:
        return tuple(range(self.n_classes))

    def with_scalar_error(self, error_prob: float) -> "TestTable":
        """Copy of this table with every defined cell's error set to ``error_prob``."""
        _check_error_value(error_prob)
        errs = np.where(self.outcomes >= 0, float(error_prob), np.nan)
        return TestTable(self.classes, self.priors, self.tests, self.outcomes.copy(), errs)

    def with_test_errors(self, per_test: Mapping[str, float]) -> "TestTable":
        """Copy with the named tests' error columns replaced by flat values."""
        rows: list[int] = []
        values: list[float] = []
        for test_id, value in per_test.items():
            _check_error_value(value)
            rows.append(self.test_index(test_id))
            values.append(float(value))
        errs = self.errors.copy()
        if rows:
            flat = np.asarray(values, dtype=np.float64)[:, None]
            errs[rows] = np.where(self.outcomes[rows] >= 0, flat, np.nan)
        return TestTable(self.classes, self.priors, self.tests, self.outcomes.copy(), errs)


def _check_error_value(value: float) -> None:
    if not (0.0 <= value < 0.5):
        raise ErrorProbOutOfRange(f"error probability {value!r} outside [0, 0.5)")


def _check_unique(ids: Sequence[str], what: str) -> None:
    seen = set()
    for ident in ids:
        if ident in seen:
            raise DuplicateIdentifier(f"duplicate {what} identifier {ident!r}")
        seen.add(ident)


def validate_table(
    classes: Sequence[str],
    priors: Sequence[float],
    tests: Sequence[str],
    outcomes: Sequence[Sequence[int | None]],
    error_probs: Union[float, Sequence[Sequence[float]]] = 0.0,
) -> TestTable:
    """Validate raw instance data and return an immutable :class:`TestTable`.

    ``outcomes`` has one row per test with entries 0, 1, or None (undefined).
    ``error_probs`` is either a scalar applied to every defined cell or a full
    per-test-per-class matrix. Priors that sum to 1 within 1e-6 are
    renormalized; a larger mismatch is an error.
    """
    classes = tuple(str(c) for c in classes)
    tests = tuple(str(t) for t in tests)
    if len(classes) < 2:
        raise ValidationError("need at least two classes")
    _check_unique(classes, "class")
    _check_unique(tests, "test")

    if len(priors) != len(classes):
        raise ValidationError(
            f"expected {len(classes)} priors, got {len(priors)}"
        )
    priors = tuple(float(p) for p in priors)
    for class_id, p in zip(classes, priors):
        if not (0.0 < p <= 1.0) or math.isnan(p):
            raise NonPositivePrior(f"prior for {class_id!r} is {p!r}, must be in (0, 1]")
    total = math.fsum(priors)
    if abs(total - 1.0) > _PRIOR_RENORM_TOL:
        raise PriorSumMismatch(f"priors sum to {total!r}, expected 1")
    if abs(total - 1.0) > _PRIOR_EXACT_TOL or total != 1.0:
        priors = tuple(p / total for p in priors)

    if len(outcomes) != len(tests):
        raise ValidationError(f"expected {len(tests)} outcome rows, got {len(outcomes)}")
    out = np.full((len(tests), len(classes)), -1, dtype=np.int8)
    for m, (test_id, row) in enumerate(zip(tests, outcomes)):
        if len(row) != len(classes):
            raise ValidationError(
                f"test {test_id!r}: expected {len(classes)} outcomes, got {len(row)}"
            )
        for i, entry in enumerate(row):
            if entry is None:
                continue
            if entry not in (0, 1):
                raise ValidationError(
                    f"test {test_id!r}: outcome for {classes[i]!r} is {entry!r}"
                )
            out[m, i] = entry
        if not ((out[m] == 0).any() and (out[m] == 1).any()):
            raise UselessTest(
                f"test {test_id!r} never produces both outcomes, it cannot split"
            )

    if isinstance(error_probs, (int, float)):
        _check_error_value(float(error_probs))
        errs = np.where(out >= 0, float(error_probs), np.nan)
    else:
        if len(error_probs) != len(tests):
            raise ValidationError(
                f"expected {len(tests)} error rows, got {len(error_probs)}"
            )
        errs = np.full(out.shape, np.nan)
        for m, row in enumerate(error_probs):
            if len(row) != len(classes):
                raise ValidationError(
                    f"test {tests[m]!r}: expected {len(classes)} error entries"
                )
            for i, value in enumerate(row):
                if out[m, i] < 0:
                    continue  # undefined cells carry no error model
                _check_error_value(float(value))
                errs[m, i] = float(value)
    return TestTable(classes, priors, tests, out, errs)


def applicable_tests(table: TestTable, block: Block) -> list[str]:
    """Tests defined for every class in ``block`` that split it into two
    non-empty parts, in declaration order."""
    if len(block) < 2:
        raise SingletonBlock(f"block {block!r} has fewer than two classes")
    result = []
    for m, test_id in enumerate(table.tests):
        row = table.outcomes[m]
        values = [int(row[i]) for i in block]
        if any(v < 0 for v in values):
            continue
        if 0 in values and 1 in values:
            result.append(test_id)
    return result


def split_block(table: TestTable, block: Block, test_id: str) -> tuple[Block, Block]:
    """Split ``block`` by ``test_id`` into its outcome-0 and outcome-1 parts."""
    m = table.test_index(test_id)
    row = table.outcomes[m]
    zeros, ones = [], []
    for i in block:
        v = int(row[i])
        if v < 0:
            raise InapplicableTest(
                f"test {test_id!r} undefined for class {table.classes[i]!r}"
            )
        (zeros if v == 0 else ones).append(i)
    if not zeros or not ones:
        raise InapplicableTest(f"test {test_id!r} does not split block {block!r}")
    return tuple(zeros), tuple(ones)


def check_partition(n_classes: int, partition: Partition) -> None:
    seen: set[int] = set()
    for block in partition:
        if not block:
            raise InvalidPartition("empty block")
        for i in block:
            if i in seen or not (0 <= i < n_classes):
                raise InvalidPartition(f"class index {i} repeated or out of range")
            seen.add(i)
    if len(seen) != n_classes:
        raise InvalidPartition("partition does not cover every class")


def refine_partition(
    table: TestTable, partition: Partition, assignment: Mapping[Block, str]
) -> Partition:
    """Replace each assigned block by its two sub-blocks; others pass through."""
    check_partition(table.n_classes, partition)
    for block in assignment:
        if len(block) < 2:
            raise SingletonBlock(f"singleton block {block!r} cannot be assigned a test")
    refined: list[Block] = []
    for block in partition:
        test_id = assignment.get(block)
        if test_id is None:
            refined.append(block)
        else:
            zeros, ones = split_block(table, block, test_id)
            refined.extend((zeros, ones))
    return tuple(refined)


# ---------------------------------------------------------------------------
# Decision trees


@dataclass(frozen=True)
class Leaf:
    label: str


@dataclass(frozen=True)
class Internal:
    test: str
    zero: "Node"
    one: "Node"


Node = Union[Leaf, Internal]


@dataclass(frozen=True)
class DecisionTree:
    """Binary decision tree: internal nodes carry a test id, leaves a class."""

    root: Node

    def leaf_labels(self) -> tuple[str, ...]:
        out: list[str] = []

        def walk(node: Node) -> None:
            if isinstance(node, Leaf):
                out.append(node.label)
            else:
                walk(node.zero)
                walk(node.one)

        walk(self.root)
        return tuple(out)

    def test_ids(self) -> tuple[str, ...]:
        """Distinct test ids in first-visit (preorder) order."""
        out: dict[str, None] = {}  # insertion-ordered set

        def walk(node: Node) -> None:
            if isinstance(node, Internal):
                out.setdefault(node.test)
                walk(node.zero)
                walk(node.one)

        walk(self.root)
        return tuple(out)

    def depth(self) -> int:
        def walk(node: Node) -> int:
            if isinstance(node, Leaf):
                return 0
            return 1 + max(walk(node.zero), walk(node.one))

        return walk(self.root)


class PathStep(NamedTuple):
    test: str
    outcome: int
    error_prob: float


class LevelStep(NamedTuple):
    """One level of a tree: the partition entering it, the test applied to
    each still-ambiguous block, and the resulting partition."""

    before: Partition
    assignment: dict[Block, str]
    after: Partition


def _subtree_blocks(node: Node, table: TestTable, blocks: dict[int, Block]) -> Block:
    """Sorted class block below ``node``. Stores it, and that of every node
    below, in ``blocks`` under ``id(node)``: one post-order pass per tree."""
    if isinstance(node, Leaf):
        block: Block = (table.class_index(node.label),)
    else:
        zeros = _subtree_blocks(node.zero, table, blocks)
        block = tuple(sorted(zeros + _subtree_blocks(node.one, table, blocks)))
    blocks[id(node)] = block
    return block


def level_trace(tree: DecisionTree, table: TestTable) -> list[LevelStep]:
    """Level-by-level view of the tree, starting from the one-block partition.

    Singleton blocks (classes already isolated) persist untested through
    deeper levels until every block is a singleton.
    """
    blocks: dict[int, Block] = {}
    _subtree_blocks(tree.root, table, blocks)
    frontier: list[Node] = [tree.root]
    steps: list[LevelStep] = []
    while any(isinstance(n, Internal) for n in frontier):
        before = tuple(blocks[id(n)] for n in frontier)
        assignment = {blocks[id(n)]: n.test for n in frontier if isinstance(n, Internal)}
        nxt: list[Node] = []
        for node in frontier:
            nxt.extend((node.zero, node.one) if isinstance(node, Internal) else (node,))
        after = tuple(blocks[id(n)] for n in nxt)
        steps.append(LevelStep(before, assignment, after))
        frontier = nxt
    return steps


def class_path(tree: DecisionTree, table: TestTable, class_id: str) -> list[PathStep]:
    """Root-to-leaf tests an error-free object of ``class_id`` traverses."""
    i = table.class_index(class_id)
    node = tree.root
    path: list[PathStep] = []
    while isinstance(node, Internal):
        out = table.outcome(node.test, class_id)
        if out is None:
            raise InapplicableTest(
                f"test {node.test!r} undefined for class {class_id!r}"
            )
        path.append(PathStep(node.test, out, float(table.errors[table.test_index(node.test), i])))
        node = node.one if out else node.zero
    if node.label != class_id:
        raise ValidationError(
            f"path for {class_id!r} ends at leaf {node.label!r}; tree inconsistent with table"
        )
    return path


def validate_tree(tree: DecisionTree, table: TestTable) -> None:
    """Check every structural invariant of ``tree`` against ``table``.

    Leaves must cover each class exactly once, no test may repeat along a
    path, and each node's test must be defined for, and split, the classes
    below it exactly as its children claim.
    """
    labels = tree.leaf_labels()
    if sorted(labels) != sorted(table.classes):
        raise ValidationError(
            f"leaves {sorted(labels)} do not match classes {sorted(table.classes)}"
        )

    blocks: dict[int, Block] = {}
    _subtree_blocks(tree.root, table, blocks)

    def walk(node: Node, used: frozenset[str]) -> None:
        if isinstance(node, Leaf):
            return
        if node.test in used:
            raise ValidationError(f"test {node.test!r} repeats along a path")
        zeros, ones = split_block(table, blocks[id(node)], node.test)  # raises if inapplicable
        if blocks[id(node.zero)] != zeros or blocks[id(node.one)] != ones:
            raise ValidationError(
                f"children of test {node.test!r} disagree with its outcomes"
            )
        walk(node.zero, used | {node.test})
        walk(node.one, used | {node.test})

    walk(tree.root, frozenset())
