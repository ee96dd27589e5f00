"""Classification instance (classes, priors, noisy binary tests) and tree structures.

A test maps every class to outcome 0 or 1, or is undefined for that class.
Blocks are sorted tuples of class indices; a partition is a tuple of disjoint
blocks covering every class. Trees route an object through tests until a
single-class leaf is reached.

Trees are nested ``Leaf``/``Internal`` nodes, but nothing recurses over
them. ``_preorder`` lists the nodes; leaf labels, test ids, depth and the
JSON writer read that list. ``_compile`` checks a tree against a table and
gives, per preorder node, the test index, child links, leaf class, depth
and class block, found by routing every class down its error-free path.
It is the one tree checker: ``validate_tree`` is the compile with its form
discarded. Level traces, the exact evaluators, allocation costs and the
simulator's tables read that form.

The form is memoised on the tree, keyed on the identity of the table's
``outcomes``, ``classes`` and ``tests``, the only parts of a table it
reads. Tables derived by ``with_scalar_error`` and ``with_test_errors``
share those objects, so a tree compiles once for a table and every error
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
            problem = f"expected {n} outcomes, got {len(row)}"
        else:
            try:
                codes.append([_OUTCOME_CODES[entry] for entry in row])
                continue
            except (KeyError, TypeError):
                i = next(i for i, entry in enumerate(row) if not _is_outcome(entry))
                problem = f"outcome for {classes[i]!r} is {row[i]!r}"
        _check_useful(tests, np.array(codes, dtype=np.int8).reshape(-1, n))  # earlier rows first
        raise ValidationError(f"test {test_id!r}: {problem}")
    out = np.array(codes, dtype=np.int8).reshape(len(tests), n)
    _check_useful(tests, out)

    if isinstance(error_probs, (int, float)):
        return TestTable(classes, priors, tests, out, _error_cells(out, error_probs))
    if len(error_probs) != len(tests):
        raise ValidationError(f"expected {len(tests)} error rows, got {len(error_probs)}")
    rows: list = []
    for test_id, row in zip(tests, error_probs):
        if len(row) != n:
            _error_cells(out[: len(rows)], _error_array(classes, tests, out, rows))
            raise ValidationError(f"test {test_id!r}: expected {n} error entries")
        rows.append(row)
    errs = _error_cells(out, _error_array(classes, tests, out, rows))
    return TestTable(classes, priors, tests, out, errs)


def _error_array(
    classes: tuple[str, ...], tests: tuple[str, ...], out: np.ndarray, rows: list
) -> np.ndarray:
    """The error rows as float64, one row per row of ``out`` they cover,
    each entry converted as numpy converts it (None is NaN). Entries on
    undefined cells are ignored; a defined cell that does not convert
    raises, unless the range check finds an earlier defined cell first."""
    try:
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(classes))
    except (TypeError, ValueError):
        pass
    errs = np.full((len(rows), len(classes)), np.nan)
    for m, row in enumerate(rows):
        for i, value in enumerate(row):
            try:
                cell = np.array(value, dtype=np.float64)
                if cell.ndim == 0:
                    errs[m, i] = cell
                    continue
            except (TypeError, ValueError):
                pass
            if out[m, i] < 0:
                continue
            errs.flat[m * len(classes) + i :] = 0.0  # leave only earlier cells to check
            _error_cells(out[: len(rows)], errs)
            raise ValidationError(
                f"test {tests[m]!r}: error for {classes[i]!r} is {value!r}, not a number"
            )
    return errs


_OUTCOME_CODES = {None: -1, 0: 0, 1: 1}


def _is_outcome(entry) -> bool:
    try:
        return entry in _OUTCOME_CODES
    except TypeError:  # unhashable
        return False


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
    priors = tuple(float(p) for p in priors)
    for class_id, p in zip(classes, priors):
        if not (0.0 < p <= 1.0) or math.isnan(p):
            raise NonPositivePrior(f"prior for {class_id!r} is {p!r}, must be in (0, 1]")
    total = math.fsum(priors)
    if abs(total - 1.0) > _PRIOR_RENORM_TOL:
        raise PriorSumMismatch(f"priors sum to {total!r}, expected 1")
    if abs(total - 1.0) > _PRIOR_EXACT_TOL or total != 1.0:
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
        _check_error_value(float(errors))
        errors = float(errors)
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
    return _refine(table, partition, assignment)


def _refine(table: TestTable, partition: Partition, assignment: Mapping[Block, str]) -> Partition:
    """:func:`refine_partition` without its checks, for a partition and an
    assignment that the caller made itself."""
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


def _compile_uncached(tree: DecisionTree, table: TestTable) -> _Compiled:
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
    """Check ``tree`` against ``table`` as every reader does: raise unless
    each class's error-free path ends at its own leaf and every node lies
    on some class's path (see :func:`_compile`)."""
    _compile(tree, table)
