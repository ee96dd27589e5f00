"""Scalar quality measures for decision trees over noisy tests.

Level entropy is computed on the true class distribution induced by the
partitions; test errors never enter the entropy, only the per-level error
and correct masses. All logs are base 2, probabilities are doubles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InvalidPartition, ValidationError
from .model import (
    Block,
    DecisionTree,
    LevelStep,
    Partition,
    TestTable,
    _compile,
    _Compiled,
    check_partition,
    level_trace,
)


class Metric(enum.Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class MetricConfig:
    """Which construction metric to drive decisions with.

    ``ratio_offset`` is the additive offset applied to entropies inside the
    multiplicative metric's ratio; 1.0 is the conventional choice and is not
    claimed optimal.
    """

    kind: Metric = Metric.ADDITIVE
    ratio_offset: float = 1.0

    def __post_init__(self):
        if not self.ratio_offset > 0:
            raise ValidationError(f"ratio offset must be > 0, got {self.ratio_offset!r}")


@dataclass(frozen=True)
class LevelQuantities:
    """Per-level figures: entropies, error/correct mass, and both metrics."""

    level: int
    entropy_before: float
    entropy_after: float
    error_mass: float
    correct_mass: float
    additive_metric: float
    multiplicative_metric: float


def level_entropy(priors: Sequence[float], partition: Partition) -> float:
    """Residual class uncertainty (bits) given the partition's block is known.

    Each block contributes its mass times the entropy of the classes inside
    it, renormalized to the block.
    """
    check_partition(len(priors), partition)
    return _level_entropy(priors, partition)


def _level_entropy(priors: Sequence[float], partition: Partition) -> float:
    """:func:`level_entropy` without the check, for a partition that the
    caller made itself."""
    total = 0.0
    for block in partition:
        total += _block_entropy(priors, block)
    return total


def _block_entropy(priors: Sequence[float], block: Block) -> float:
    """One block's term of :func:`level_entropy`; 0 for a singleton."""
    mass = math.fsum(priors[i] for i in block)
    if mass <= 0.0:
        raise InvalidPartition(f"block {block!r} has no probability mass")
    if len(block) == 1:
        return 0.0
    h = 0.0
    for i in block:
        q = priors[i] / mass
        if q > 0.0:
            h -= q * math.log2(q)
    return mass * h


def _masses(table: TestTable, assignment: Mapping[Block, str]) -> tuple[float, float]:
    """(:func:`level_error_mass`, :func:`level_correct_mass`) without the
    partition check. A class in an assigned block has the assigned test's
    error, a class left untested has error 0."""
    errs = [0.0] * table.n_classes
    for block, test_id in assignment.items():
        m = table.test_index(test_id)
        for i in block:
            e = table.errors.item(m, i)
            if math.isnan(e):
                raise InvalidPartition(
                    f"test {test_id!r} undefined for class {table.classes[i]!r}"
                )
            errs[i] = e
    return (
        math.fsum(p * e for p, e in zip(table.priors, errs)),
        math.fsum(p * (1.0 - e) for p, e in zip(table.priors, errs)),
    )


def level_error_mass(
    table: TestTable, partition: Partition, assignment: Mapping[Block, str]
) -> float:
    """Prior-weighted probability that some test at this level errs."""
    check_partition(table.n_classes, partition)
    return _masses(table, assignment)[0]


def level_correct_mass(
    table: TestTable, partition: Partition, assignment: Mapping[Block, str]
) -> float:
    """Prior-weighted probability that every test at this level answers right."""
    check_partition(table.n_classes, partition)
    return _masses(table, assignment)[1]


def metric_additive(entropy_drop: float, error_mass: float) -> float:
    """Entropy reduction per unit error mass; +inf for an error-free level.

    An error-free level can never be the binding (minimal) level, so the
    infinity convention keeps evaluators total without special-casing.
    """
    if entropy_drop < 0:
        raise ValidationError(f"entropy drop must be >= 0, got {entropy_drop!r}")
    if error_mass < 0:
        raise ValidationError(f"error mass must be >= 0, got {error_mass!r}")
    if error_mass == 0.0:
        return math.inf if entropy_drop > 0.0 else 0.0
    return entropy_drop / error_mass


def metric_multiplicative(
    entropy_before: float,
    entropy_after: float,
    correct_mass: float,
    ratio_offset: float = 1.0,
) -> float:
    """Offset entropy ratio of consecutive levels per unit correct mass."""
    if not correct_mass > 0:
        raise ValidationError(f"correct mass must be > 0, got {correct_mass!r}")
    if not ratio_offset > 0:
        raise ValidationError(f"ratio offset must be > 0, got {ratio_offset!r}")
    if entropy_after > entropy_before:
        raise ValidationError("entropy must not increase between levels")
    ratio = (entropy_before + ratio_offset) / (entropy_after + ratio_offset)
    return ratio / correct_mass


def level_quantities(
    tree: DecisionTree, table: TestTable, ratio_offset: float = 1.0
) -> list[LevelQuantities]:
    """Entropy, masses, and both metrics for every level of ``tree``."""
    return _level_quantities(level_trace(tree, table), table, ratio_offset)


def _level_quantities(
    steps: Sequence[LevelStep], table: TestTable, ratio_offset: float
) -> list[LevelQuantities]:
    """:func:`level_quantities` of a level trace that a compile or the
    builder made, so its partitions go unchecked."""
    out: list[LevelQuantities] = []
    h_prev = _level_entropy(table.priors, steps[0].before) if steps else 0.0
    for d, step in enumerate(steps, start=1):
        h_next = _level_entropy(table.priors, step.after)
        g, b = _masses(table, step.assignment)
        out.append(
            LevelQuantities(
                level=d,
                entropy_before=h_prev,
                entropy_after=h_next,
                error_mass=g,
                correct_mass=b,
                additive_metric=metric_additive(h_prev - h_next, g),
                multiplicative_metric=metric_multiplicative(h_prev, h_next, b, ratio_offset),
            )
        )
        h_prev = h_next
    return out


def _survivals(form: _Compiled, table: TestTable, factors) -> list:
    """Per class, in class order, the product of the factors ``1 - e`` of
    the tests on the class's true path, multiplied from root to leaf.

    ``factors[m][i]`` is ``1 - e`` for test ``m`` and class ``i``. An entry
    is a float, or a numpy vector with one lane per error setting: then one
    pass scores every setting, holding settings × classes floats, and each
    lane gets the bits of its own float pass (the same IEEE operations).
    """
    survive = [1.0] * table.n_classes
    for m, block in zip(form.test, form.block):
        if m >= 0:
            row = factors[m]
            for i in block:
                survive[i] *= row[i]  # the first product is a fresh vector
    return survive


def _exact(tree: DecisionTree, table: TestTable, factors=None) -> tuple:
    """(:func:`exact_misclassification`, :func:`exact_correct`) from one
    survival pass, each its own class-order sum, under the
    :func:`_survivals` factors (by default the table's own errors); with
    vector factors, each is a vector with one lane per setting."""
    form = _compile(tree, table)
    pm = pc = 0.0
    if factors is None:  # per test on the tree, its row of 1 - e as floats
        tests = sorted(set(form.test) - {-1})
        factors = dict(zip(tests, (1.0 - table.errors[tests]).tolist()))
    for p, survive in zip(table.priors, _survivals(form, table, factors)):
        pm += p * (1.0 - survive)
        pc += p * survive
    return pm, pc


def exact_misclassification(tree: DecisionTree, table: TestTable) -> float:
    """Probability that at least one test along an object's true path errs."""
    return _exact(tree, table)[0]


def exact_correct(tree: DecisionTree, table: TestTable) -> float:
    """Probability that every test along an object's true path answers right."""
    return _exact(tree, table)[1]


def additive_approx(tree: DecisionTree, table: TestTable) -> float:
    """First-order misclassification estimate: the sum of level error masses."""
    return _additive_approx(level_quantities(tree, table))


def _additive_approx(levels: Sequence[LevelQuantities]) -> float:
    return math.fsum(q.error_mass for q in levels)


def multiplicative_approx(tree: DecisionTree, table: TestTable) -> float:
    """Correct-classification estimate: the product of level correct masses."""
    return _multiplicative_approx(level_quantities(tree, table))


def _multiplicative_approx(levels: Sequence[LevelQuantities]) -> float:
    result = 1.0
    for q in levels:
        result *= q.correct_mass
    return result


def bounds_additive(tree: DecisionTree, table: TestTable) -> tuple[float, float]:
    """(lower, upper) bracket on the additive misclassification estimate.

    The initial entropy divided by the largest (smallest) per-level additive
    metric brackets the sum of level error masses.
    """
    return _bounds_additive(level_quantities(tree, table))


def _bounds_additive(levels: Sequence[LevelQuantities]) -> tuple[float, float]:
    h0 = levels[0].entropy_before if levels else 0.0
    values = [q.additive_metric for q in levels]
    return (_safe_div(h0, max(values)), _safe_div(h0, min(values)))


def bounds_multiplicative(
    tree: DecisionTree, table: TestTable, ratio_offset: float = 1.0
) -> tuple[float, float]:
    """The pair ((H0+r)/max metric, (H0+r)/min metric) for the product form.

    Unlike the additive pair, this does not bracket the product of correct
    masses once the tree has two or more levels: every per-level factor is
    at least 1, so the product of factors exceeds any single one and both
    returned values then sit at or above the product approximation.
    """
    return _bounds_multiplicative(level_quantities(tree, table, ratio_offset), ratio_offset)


def _bounds_multiplicative(
    levels: Sequence[LevelQuantities], ratio_offset: float
) -> tuple[float, float]:
    """:func:`bounds_multiplicative` of levels computed under ``ratio_offset``."""
    h0 = levels[0].entropy_before if levels else 0.0
    values = [q.multiplicative_metric for q in levels]
    return (
        _safe_div(h0 + ratio_offset, max(values)),
        _safe_div(h0 + ratio_offset, min(values)),
    )


def _safe_div(num: float, den: float) -> float:
    if math.isinf(den):
        return 0.0
    return num / den
