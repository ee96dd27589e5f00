"""Classification instance (classes, priors, noisy binary tests) and tree structures.

A test maps every class to outcome 0 or 1, or is undefined for that class.
Blocks are sorted tuples of class indices; a partition is a tuple of disjoint
blocks covering every class. Trees route an object through tests until a
single-class leaf is reached.

Trees are nested ``Leaf``/``Internal`` nodes, but nothing recurses over
them. ``_preorder`` lists the nodes; leaf labels, test ids, depth,
``==``, ``hash`` and the tree document read that list, and ``repr`` walks
the same order with its own stack, so no tree is too deep for any of
them. ``_compile`` checks a tree
against a table and gives, per preorder node, the test index, child
links, leaf class, depth and class block, found by routing every class
down its error-free path.
It is the one tree checker: ``validate_tree`` is the compile with its form
discarded. The same walk records, per depth, each tested node's split
``(block, test index, zeros, ones)`` as the builders list theirs, in
partition order: it pops the zero child first, so it meets each depth's
nodes left to right. Every level reader, ``level_trace`` included, reads
that record; allocation costs and the simulator's tables read the form.

The form is memoised on the tree, keyed on the identity of the table's
``outcomes``, ``classes`` and ``tests``, the only parts of a table it
reads. Tables derived by ``with_scalar_error``, ``with_test_errors`` and
``workers.effective_table`` share those objects, so a tree compiles once for a table and every error
setting of it. The key holds the read-only outcomes array, so its id
cannot be reused while the entry lives. A failed compile stores nothing.
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
        return TestTable(self.classes, self.priors, self.tests, self.outcomes, errs)

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
        return TestTable(self.classes, self.priors, self.tests, self.outcomes, errs)


def _check_error_value(value: float) -> None:
    if not (0.0 <= value < 0.5):
        raise ErrorProbOutOfRange(f"error probability {value!r} outside [0, 0.5)")


def _as_float(value) -> float:
    """``float(value)``, or ±inf for a number past the float range, as the
    text ``1e400`` reads."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
    renormalized; a larger mismatch is an error. The first failing check in
    row order is the one raised.
    """
    classes = tuple(str(c) for c in classes)
    tests = tuple(str(t) for t in tests)
    priors = _checked_priors(classes, priors, tests)
    n = len(classes)
    if len(outcomes) != len(tests):
        raise ValidationError(f"expected {len(tests)} outcome rows, got {len(outcomes)}")
    codes: list[list[int]] = []
    for test_id, row in zip(tests, outcomes):
        if len(row) != n:
            raise ValidationError(f"test {test_id!r}: expected {n} outcomes, got {len(row)}")
        coded = []
        for class_id, entry in zip(classes, row):
            try:
                coded.append(_OUTCOME_CODES[entry])
            except (KeyError, TypeError):  # TypeError: unhashable
                raise ValidationError(
                    f"test {test_id!r}: outcome for {class_id!r} is {entry!r}"
                ) from None
        if 0 not in coded or 1 not in coded:
            raise UselessTest(f"test {test_id!r} never produces both outcomes, it cannot split")
        codes.append(coded)
    out = np.array(codes, dtype=np.int8).reshape(len(tests), n)

    if isinstance(error_probs, (int, float)):
        return TestTable(classes, priors, tests, out, _error_cells(out, error_probs))
    if len(error_probs) != len(tests):
        raise ValidationError(f"expected {len(tests)} error rows, got {len(error_probs)}")
    errs = np.full(out.shape, np.nan)
    for m, (test_id, row) in enumerate(zip(tests, error_probs)):
        if len(row) != n:
            raise ValidationError(f"test {test_id!r}: expected {n} error entries")
        for i, (class_id, code, value) in enumerate(zip(classes, codes[m], row)):
            if code < 0:
                continue  # undefined cells carry no error model
            try:
                cell = np.array(value, dtype=np.float64)  # None is NaN
            except OverflowError:
                cell = np.array(_as_float(value))
            except (TypeError, ValueError):
                cell = None
            if cell is None or cell.ndim:
                raise ValidationError(
                    f"test {test_id!r}: error for {class_id!r} is {value!r}, not a number"
                )
            _check_error_value(float(cell))
            errs[m, i] = cell
    return TestTable(classes, priors, tests, out, errs)


_OUTCOME_CODES = {None: -1, 0: 0, 1: 1}


def _checked_table(
    classes: tuple[str, ...],
    priors: Sequence[float],
    tests: tuple[str, ...],
    out: np.ndarray,
    errors: Union[float, np.ndarray],
) -> TestTable:
    """:func:`validate_table` of an int8 outcome array (-1 where undefined)
    and a scalar error or a float64 error array of the same shape."""
    priors = _checked_priors(classes, priors, tests)
    _check_useful(tests, out)
    return TestTable(classes, priors, tests, out, _error_cells(out, errors))


def _checked_priors(
    classes: tuple[str, ...], priors: Sequence[float], tests: tuple[str, ...]
) -> tuple[float, ...]:
    """The identifier and prior checks; returns the priors, renormalized
    when they miss 1 by more than rounding."""
    if len(classes) < 2:
        raise ValidationError("need at least two classes")
    _check_unique(classes, "class")
    _check_unique(tests, "test")
    if len(priors) != len(classes):
        raise ValidationError(f"expected {len(classes)} priors, got {len(priors)}")
    priors = tuple(_as_float(p) for p in priors)
    for class_id, p in zip(classes, priors):
        if not 0.0 < p <= 1.0:  # a NaN fails too
            raise NonPositivePrior(f"prior for {class_id!r} is {p!r}, must be in (0, 1]")
    total = math.fsum(priors)
    if abs(total - 1.0) > _PRIOR_RENORM_TOL:
        raise PriorSumMismatch(f"priors sum to {total!r}, expected 1")
    if total != 1.0:
        priors = tuple(p / total for p in priors)
    return priors


def _check_useful(tests: Sequence[str], out: np.ndarray) -> None:
    """Raise for the first row of ``out`` that lacks a 0 or a 1."""
    useless = ~((out == 0).any(axis=1) & (out == 1).any(axis=1))
    if useless.any():
        test_id = tests[int(useless.argmax())]
        raise UselessTest(f"test {test_id!r} never produces both outcomes, it cannot split")


def _error_cells(out: np.ndarray, errors: Union[float, np.ndarray]) -> np.ndarray:
    """``errors`` on the defined cells of ``out`` and NaN elsewhere; raises
    for a scalar outside [0, 0.5), then for the first defined cell outside
    it in row-major order."""
    if np.ndim(errors) == 0:
        errors = _as_float(errors)
        _check_error_value(errors)
    defined = out >= 0
    errs = np.where(defined, errors, np.nan)
    bad = defined & ~((errs >= 0.0) & (errs < 0.5))  # NaN is bad too
    if bad.any():
        _check_error_value(float(errs.flat[bad.argmax()]))
    return errs


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


class _Shaped:
    """``==``, ``hash`` and the dataclass ``repr`` of a node, from its
    preorder, so that no depth reaches the recursion limit. A tree's own
    dataclass methods read its root's."""

    def _shape(self) -> list:
        """The nodes in preorder, an internal node as its test id and a leaf
        as the 1-tuple of its label: equal shapes make equal nodes."""
        return [node.test if isinstance(node, Internal) else (node.label,)
                for node in _preorder(self)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash(tuple(self._shape()))

    def __repr__(self) -> str:
        parts, stack = [], [self]  # the texts and nodes still to write, the next on top
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, Leaf):
                parts.append(f"Leaf(label={item.label!r})")
            else:
                parts.append(f"Internal(test={item.test!r}, zero=")
                stack += ")", item.one, ", one=", item.zero
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class Leaf(_Shaped):
    label: str


@dataclass(frozen=True, eq=False, repr=False)
class Internal(_Shaped):
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
        tests = (node.test for node in _preorder(self.root) if isinstance(node, Internal))
        return tuple(dict.fromkeys(tests))  # an insertion-ordered set

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
    levels: list[list[tuple]]  # per depth, the tested nodes' splits, in partition order


def _compile(tree: DecisionTree, table: TestTable) -> _Compiled:
    """The preorder form of ``tree`` for ``table``, memoised on the tree
    (see the module docstring). Readers must not change it."""
    key = (table.outcomes, table.classes, table.tests)
    cached = tree.__dict__.get("_form")
    if cached is not None and all(a is b for a, b in zip(cached, key)):
        return cached[3]
    form = _compile_uncached(tree, table)
    object.__setattr__(tree, "_form", (*key, form))
    return form


def _tree_tests(form: _Compiled) -> list[int]:
    """The table indices of the distinct tests on a compiled tree, ascending."""
    return sorted(set(form.test) - {-1})


def _compile_uncached(tree: DecisionTree, table: TestTable) -> _Compiled:
    """The preorder form of ``tree``. Raises unless every node is on some
    class's error-free path and each path ends at its class's leaf; of the
    classes that fail, the first in class order raises."""
    form = _Compiled([], [], [], [], [], [])
    child, depth, test, leaf, block, levels = form
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
        zeros, ones = tuple(zeros), tuple(ones)
        if d == len(levels):
            levels.append([])
        levels[d].append((arriving, m, zeros, ones))
        stack.append((node.one, 2 * k + 1, d + 1, ones))
        stack.append((node.zero, 2 * k, d + 1, zeros))
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
    steps, before = [], (table.all_classes_block(),)
    for level in _compile(tree, table).levels:
        halves = {block: (zeros, ones) for block, _, zeros, ones in level}
        after: list[Block] = []
        for block in before:  # a tested block's two halves replace it in place
            after += halves.get(block, (block,))
        steps.append(LevelStep(before, {b: table.tests[m] for b, m, _, _ in level}, tuple(after)))
        before = steps[-1].after
    return steps


def validate_tree(tree: DecisionTree, table: TestTable) -> None:
    """Check ``tree`` against ``table`` as every reader does: raise unless
    each class's error-free path ends at its own leaf and every node lies
    on some class's path (see :func:`_compile`)."""
    _compile(tree, table)
