"""Classification instance (classes, priors, noisy binary tests) and tree structures.

A test maps every class to outcome 0 or 1, or is undefined for that class.
Blocks are sorted tuples of class indices; a partition is a tuple of disjoint
blocks covering every class. Trees route an object through tests until a
single-class leaf is reached.

Trees are nested ``Leaf``/``Internal`` nodes, but nothing recurses over
them. ``_preorder`` lists the nodes; leaf labels, depth, ``validate_tree``
and the JSON writer read that list. ``_compile`` checks a tree
against a table and gives, per preorder node, the test index, child links,
leaf class, depth and class block, found by routing every class down its
error-free path. Level traces, the exact evaluators, allocation costs and
the simulator's tables read that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    CrowdTreeError,
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
        object.__setattr__(self, "_class_index", {c: i for i, c in enumerate(self.classes)})
        object.__setattr__(self, "_test_index", {t: m for m, t in enumerate(self.tests)})

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_tests(self) -> int:
        return len(self.tests)

    def class_index(self, class_id: str) -> int:
        try:
            return self._class_index[class_id]
        except KeyError:
            raise UnknownClass(f"unknown class {class_id!r}") from None

    def test_index(self, test_id: str) -> int:
        try:
            return self._test_index[test_id]
        except KeyError:
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
    cells = table.outcomes[:, block]
    lows, highs = cells.min(axis=1).tolist(), cells.max(axis=1).tolist()
    return [t for t, lo, hi in zip(table.tests, lows, highs) if lo == 0 and hi == 1]


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
        return tuple(node.label for node in _preorder(self.root) if isinstance(node, Leaf))

    def test_ids(self) -> tuple[str, ...]:
        """Distinct test ids in first-visit (preorder) order."""
        ids: dict[str, None] = {}  # insertion-ordered set
        stack = [self.root]  # as in _preorder, minus the leaves: assign_baseline calls this often
        while stack:
            node = stack.pop()
            while isinstance(node, Internal):
                ids[node.test] = None
                stack.append(node.one)
                node = node.zero
        return tuple(ids)

    def depth(self) -> int:
        heights: list[int] = []  # of the subtrees done so far, the zero child's on top
        for node in reversed(_preorder(self.root)):
            heights.append(0 if isinstance(node, Leaf) else 1 + max(heights.pop(), heights.pop()))
        return heights.pop()


class LevelStep(NamedTuple):
    """One level of a tree: the partition entering it, the test applied to
    each still-ambiguous block, and the resulting partition."""

    before: Partition
    assignment: dict[Block, str]
    after: Partition


def _preorder(root: Node) -> list[Node]:
    """The nodes below ``root`` in preorder. Read backwards, each internal
    node comes just after its two subtrees, so a stack of results builds
    anything bottom-up: pop the zero child's, then the one child's."""
    nodes: list[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        while isinstance(node, Internal):  # down the zero children; the one children wait
            nodes.append(node)
            stack.append(node.one)
            node = node.zero
        nodes.append(node)
    return nodes


class _Compiled(NamedTuple):
    """A tree checked against a table, in preorder (see the module docstring)."""

    child: list[int]  # at 2 * node + outcome; a leaf points to itself
    depth: list[int]
    test: list[int]  # test index, -1 at leaves
    leaf: list[int]  # class index at leaves, -1 at internal nodes
    block: list[Block]  # the classes whose error-free path passes the node


def _compile(tree: DecisionTree, table: TestTable) -> _Compiled:
    """The preorder form of ``tree``. Raises unless every node is on some
    class's error-free path and each path ends at its class's leaf; of the
    classes that fail, the first in class order raises."""
    form = _Compiled([], [], [], [], [])
    child, depth, test, leaf, block = form
    failures: dict[int, CrowdTreeError] = {}
    n = table.n_classes
    cells = table.outcomes.tobytes()  # test m's row is cells[m * n : (m + 1) * n]; -1 reads 255
    # (node, the parent's child slot, depth, the classes reaching the node)
    stack = [(tree.root, -1, 0, table.all_classes_block())]
    while stack:
        node, slot, d, arriving = stack.pop()
        k = len(block)
        if slot >= 0:
            child[slot] = k
        child += k, k
        depth.append(d)
        block.append(arriving)
        leaf.append(-1)
        if isinstance(node, Leaf):
            test.append(-1)
            for i in arriving:
                if table.classes[i] == node.label:
                    leaf[k] = i
                else:
                    failures[i] = ValidationError(
                        f"path for {table.classes[i]!r} ends at leaf {node.label!r}; "
                        "tree inconsistent with table"
                    )
            continue
        m, zeros, ones = -1, [], []
        if arriving:  # a node no class reaches is reported below
            m = table.test_index(node.test)
            row = cells[m * n : (m + 1) * n]
            for i in arriving:
                if row[i] == 0:
                    zeros.append(i)
                elif row[i] == 1:
                    ones.append(i)
                else:
                    failures[i] = InapplicableTest(
                        f"test {node.test!r} undefined for class {table.classes[i]!r}"
                    )
        test.append(m)
        stack.append((node.one, 2 * k + 1, d + 1, tuple(ones)))
        stack.append((node.zero, 2 * k, d + 1, tuple(zeros)))
    if failures:
        raise failures[min(failures)]
    if () in block:  # reached by no class: its parent's test sends them all one way
        p = child.index(block.index(())) // 2
        raise InapplicableTest(f"test {table.tests[test[p]]!r} does not split block {block[p]!r}")
    return form


def level_trace(tree: DecisionTree, table: TestTable) -> list[LevelStep]:
    """Level-by-level view of the tree, starting from the one-block partition.

    Singleton blocks (classes already isolated) persist untested through
    deeper levels until every block is a singleton.
    """
    child, _, test, _, block = _compile(tree, table)
    frontier, before, steps = [0], (block[0],), []
    while True:
        assignment = {block[k]: table.tests[test[k]] for k in frontier if test[k] >= 0}
        if not assignment:
            return steps
        nxt: list[int] = []  # a tested block's two halves replace it in place
        for k in frontier:
            nxt += child[2 * k : 2 * k + 2] if test[k] >= 0 else (k,)
        after = tuple(block[k] for k in nxt)
        steps.append(LevelStep(before, assignment, after))
        frontier, before = nxt, after


def validate_tree(tree: DecisionTree, table: TestTable) -> None:
    """Check every structural invariant of ``tree`` against ``table``.

    Leaves must cover each class exactly once, no test may repeat along a
    path, and each node's test must be defined for, and split, the classes
    below it exactly as its children claim. The first defect in preorder raises.
    """
    nodes = _preorder(tree.root)
    labels = sorted(node.label for node in nodes if isinstance(node, Leaf))
    if labels != sorted(table.classes):
        raise ValidationError(f"leaves {labels} do not match classes {sorted(table.classes)}")
    below: dict[int, Block] = {}  # id(node) -> the classes of the leaves below it
    for node in reversed(nodes):
        if isinstance(node, Leaf):
            below[id(node)] = (table.class_index(node.label),)
        else:
            below[id(node)] = tuple(sorted(below[id(node.zero)] + below[id(node.one)]))
    stack = [(tree.root, frozenset())]  # (node, the tests above it)
    while stack:
        node, used = stack.pop()
        if isinstance(node, Leaf):
            continue
        if node.test in used:
            raise ValidationError(f"test {node.test!r} repeats along a path")
        zeros, ones = split_block(table, below[id(node)], node.test)  # raises if inapplicable
        if below[id(node.zero)] != zeros or below[id(node.one)] != ones:
            raise ValidationError(f"children of test {node.test!r} disagree with its outcomes")
        used = used | {node.test}
        stack += (node.one, used), (node.zero, used)
