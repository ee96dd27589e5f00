"""Scalar quality measures for decision trees over noisy tests.

Level entropy is computed on the true class distribution induced by the
partitions; test errors never enter the entropy, only the per-level error
and correct masses. All logs are base 2, probabilities are doubles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidPartition, ValidationError
from .model import (
    Block,
    DecisionTree,
    Partition,
    TestTable,
    _compile,
    check_partition,
)


class Metric(enum.Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


def _check_ratio_offset(offset: float) -> None:
    if not 0.0 < offset < math.inf:  # a NaN fails too
        raise ValidationError(f"ratio offset must be finite and > 0, got {offset!r}")


@dataclass(frozen=True)
class MetricConfig:
    """Which construction metric to drive decisions with.

    ``ratio_offset`` is the additive offset applied to entropies inside the
    multiplicative metric's ratio; 1.0 is the conventional choice and is not
    claimed optimal. It must be finite and positive: an infinite offset
    makes every ratio inf / inf, a NaN.
    """

    kind: Metric = Metric.ADDITIVE
    ratio_offset: float = 1.0

    def __post_init__(self):
        _check_ratio_offset(self.ratio_offset)


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
    total = 0.0
    for block in partition:
        total += _block_entropy(priors, block)
    return total


def _level_entropies(priors: Sequence[float], levels: Sequence[list]) -> list[float]:
    """:func:`level_entropy` of the partition entering each of a compiled
    form's ``levels``, then 0.0, as the last level leaves only singletons.
    The form is of a tree checked against a table, whose priors are all
    positive, so a level's tested blocks are its partition's blocks of more
    than one class, in partition order. Only those are summed
    (:func:`_open_entropy`): a singleton's term is 0.0, and adding it
    changes no bit."""
    out = [_open_entropy(priors, [block for block, *_ in level])[1] for level in levels]
    out.append(0.0)
    return out


def _open_entropy(priors: Sequence[float], blocks: Sequence[Block]) -> tuple[list[float], float]:
    """(terms, total): the :func:`_entropy_term` of each of a level's open
    ``blocks``, in partition order, and their running sum in that order,
    the level's :func:`level_entropy` bit for bit. The greedy builder's
    level choice and :func:`_level_entropies` both sum a level here."""
    terms = [_entropy_term([priors[i] for i in block]) for block in blocks]
    return terms, reduce(add, terms, 0.0)  # not sum(), which compensates from Python 3.12


def _block_entropy(priors: Sequence[float], block: Block) -> float:
    """One block's term of :func:`level_entropy`; 0 for a singleton."""
    mass = math.fsum(priors[i] for i in block)
    if mass <= 0.0:
        raise InvalidPartition(f"block {block!r} has no probability mass")
    if len(block) == 1:
        return 0.0
    return _entropy_term([priors[i] for i in block])


def _entropy_term(masses: list[float]) -> float:
    """Mass times entropy of a block whose members have the priors ``masses``."""
    mass = math.fsum(masses)
    h = 0.0
    for p in masses:
        q = p / mass
        if q > 0.0:
            h -= q * math.log2(q)
    return mass * h


def _masses(table: TestTable, splits, total: list[float]) -> tuple[float, float]:
    """(:func:`level_error_mass`, :func:`level_correct_mass`) of a level
    given as ``(block, test index, ...)`` items with disjoint blocks,
    without the partition check, given ``total``, the :func:`_partials` of
    all priors. A class in an assigned block has the assigned test's error,
    a class left untested has error 0. So the error mass is the tested
    classes' ``p * e``, and the correct mass is all the priors less the
    tested ones plus their ``p * (1 - e)``: each has the exact sum of the
    per-class terms, which ``fsum`` rounds as it rounds those, at a cost in
    tested classes only."""
    wrong: list[float] = []
    right = list(total)
    priors = table.priors
    for block, m, *_ in splits:
        for i in block:
            e = table.errors.item(m, i)
            if math.isnan(e):
                raise InvalidPartition(
                    f"test {table.tests[m]!r} undefined for class {table.classes[i]!r}"
                )
            p = priors[i]
            wrong.append(p * e)
            right += p * (1.0 - e), -p
    return math.fsum(wrong), math.fsum(right)


def _partials(xs: list[float]) -> list[float]:
    """Floats whose exact sum is the exact sum of ``xs``: each is the
    ``fsum`` of ``xs`` less those before it, until that is 0. ``fsum``
    rounds the exact sum of its inputs correctly, so a sum of doubles that
    is not 0 never rounds to 0, and each partial is within half an ulp of
    what is left: a handful of floats stand for any number of ``xs``."""
    xs = list(xs)
    out = []
    while (r := math.fsum(xs)) != 0.0:
        out.append(r)
        xs.append(-r)
    return out


def _checked_masses(
    table: TestTable, partition: Partition, assignment: Mapping[Block, str]
) -> tuple[float, float]:
    check_partition(table.n_classes, partition)
    blocks = set(map(tuple, partition))
    for block in assignment:
        if block not in blocks:
            raise InvalidPartition(f"assigned block {block!r} is not a block of the partition")
    # looked up lazily: a block's undefined cell raises before a later block's unknown test
    splits = ((block, table.test_index(t)) for block, t in assignment.items())
    return _masses(table, splits, _partials(table.priors))


def level_error_mass(
    table: TestTable, partition: Partition, assignment: Mapping[Block, str]
) -> float:
    """Prior-weighted probability that some test at this level errs."""
    return _checked_masses(table, partition, assignment)[0]


def level_correct_mass(
    table: TestTable, partition: Partition, assignment: Mapping[Block, str]
) -> float:
    """Prior-weighted probability that every test at this level answers right."""
    return _checked_masses(table, partition, assignment)[1]


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
    _check_ratio_offset(ratio_offset)
    if entropy_after > entropy_before:
        raise ValidationError("entropy must not increase between levels")
    ratio = (entropy_before + ratio_offset) / (entropy_after + ratio_offset)
    return ratio / correct_mass


def level_quantities(
    tree: DecisionTree, table: TestTable, ratio_offset: float = 1.0
) -> list[LevelQuantities]:
    """Entropy, masses, and both metrics for every level of ``tree``. The
    levels come from a compile, so they go unchecked."""
    levels = _compile(tree, table).levels
    return _level_figures(table, levels, _level_entropies(table.priors, levels), ratio_offset)


def _level_figures(
    table: TestTable, levels: Sequence[list], entropies: Sequence[float], ratio_offset: float
) -> list[LevelQuantities]:
    """:func:`level_quantities` of a tree given as its ``levels``, each the
    list of its splits ``(block, test index, ...)``, with ``entropies`` the
    :func:`_level_entropies` of those levels."""
    total = _partials(table.priors)
    out: list[LevelQuantities] = []
    for d, (level, h_prev, h_next) in enumerate(zip(levels, entropies, entropies[1:]), start=1):
        g, b = _masses(table, level, total)
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
    return out


def _survivals(levels: Sequence[list], table: TestTable, factors) -> list:
    """Per class, in class order, the product of the factors ``1 - e`` of
    the tests on the class's true path, multiplied from root to leaf, for
    a tree given as its level record ``levels``: per level, the list of its
    splits ``(block, test index, zeros, ones)`` in partition order, as a
    compiled tree's ``levels`` or a builder's own levels hold them.

    ``factors[m][i]`` is ``1 - e`` for test ``m`` and class ``i``. An entry
    is a float, or a numpy vector with one lane per error setting: then one
    pass scores every setting, holding settings × classes floats, and each
    lane gets the bits of its own float pass (the same IEEE operations).
    """
    survive = [1.0] * table.n_classes
    for level in levels:
        for block, m, _, _ in level:
            row = factors[m]
            for i in block:
                survive[i] *= row[i]  # the first product is a fresh vector
    return survive


def _split_pms(trees: Sequence[list], priors: Sequence[float], factor: np.ndarray) -> np.ndarray:
    """:func:`exact_misclassification` of each tree, given as its builder
    levels of splits ``(block, test, zeros, ones)``, when every cell's factor
    ``1 - e`` is ``factor``, a vector with one lane per error setting; one
    row per tree, one column per lane.

    Each lane has the bits of :func:`_exact` with that factor in every
    cell. A class's survival there is ``1.0 * v``, which is ``v``, then
    times ``v`` once more per further test on its path, so it depends only
    on the class's depth, the number of split blocks holding it: one
    product per depth serves every class and tree. The classes' terms ``p * (1 - survival)``
    are then added in class order, as :func:`_exact` adds them (a running
    sum; a pairwise reduction would round differently)."""
    n = len(priors)
    depth = np.array([np.bincount([i for level in levels for split in level for i in split[0]],
                                  minlength=n) for levels in trees])
    survive = [np.ones_like(factor), factor]  # by depth; no class has depth 0
    for _ in range(2, int(depth.max()) + 1):
        survive.append(survive[-1] * factor)
    loss = 1.0 - np.array(survive)  # per depth and lane
    terms = np.asarray(priors)[:, None] * loss[depth]  # per tree, class and lane
    return np.add.accumulate(terms, axis=1)[:, -1]


def _exact(levels: Sequence[list], table: TestTable, factors=None) -> tuple:
    """(:func:`exact_misclassification`, :func:`exact_correct`) of a tree
    given as its :func:`_survivals` level record, from one survival pass,
    each its own class-order sum, under the :func:`_survivals` factors (by
    default the table's own errors); with vector factors, each is a vector
    with one lane per setting."""
    pm = pc = 0.0
    if factors is None:  # per test on the tree, its row of 1 - e as floats
        tests = sorted({m for level in levels for _, m, _, _ in level})
        factors = dict(zip(tests, (1.0 - table.errors[tests]).tolist()))
    for p, survive in zip(table.priors, _survivals(levels, table, factors)):
        pm += p * (1.0 - survive)
        pc += p * survive
    return pm, pc


def exact_misclassification(tree: DecisionTree, table: TestTable) -> float:
    """Probability that at least one test along an object's true path errs."""
    return _exact(_compile(tree, table).levels, table)[0]


def exact_correct(tree: DecisionTree, table: TestTable) -> float:
    """Probability that every test along an object's true path answers right."""
    return _exact(_compile(tree, table).levels, table)[1]


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
