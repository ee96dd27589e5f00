"""Allocation of redundant crowd workers to the tests of a built tree.

Every tree test starts with one seated worker; a budget of worker pairs is
then distributed so each test keeps an odd group size. The fused group error
of a test replaces its per-class error probability in every downstream
metric and evaluator.
"""

from __future__ import annotations

import enum
import math
import numbers
import random
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, UnknownStrategy, UnknownTest, ValidationError
from .fusion import _MAX_EXACT_PAIRS, _answer_errors, _check_worker_error, group_error
from .metrics import (
    Metric,
    MetricConfig,
    _level_entropies,
    _partials,
    metric_additive,
    metric_multiplicative,
)
from .model import DecisionTree, TestTable, _compile, _tree_tests


class AssignmentStrategy(enum.Enum):
    PROPOSED = "proposed"
    RANDOM_PER_PAIR = "random"
    SINGLE_TEST = "single"
    ALL_WORKERS_ALL_TESTS = "all"


@dataclass(frozen=True)
class WorkerAllocation:
    """Extra worker pairs per test on top of one seated worker each."""

    extra_pairs: Mapping[str, int]
    worker_error: float
    strategy: AssignmentStrategy
    seed: int | None = None

    def __post_init__(self):
        for test_id, k in self.extra_pairs.items():
            if not isinstance(k, numbers.Integral) or isinstance(k, bool) or k < 0:
                raise ValidationError(
                    f"pairs on test {test_id!r} must be an integer >= 0, got {k!r}"
                )
        _check_worker_error(self.worker_error)

    @property
    def shared_pool(self) -> bool:
        """Whether one pool of workers answers every test, as under the
        all-tests strategy: then ``extra_pairs`` holds the same pair count
        for each test and the budget is not a sum across tests."""
        return self.strategy is AssignmentStrategy.ALL_WORKERS_ALL_TESTS

    def pairs_for(self, test_id: str) -> int:
        try:
            return self.extra_pairs[test_id]
        except KeyError:
            raise UnknownTest(f"test {test_id!r} not covered by this allocation") from None

    def group_size(self, test_id: str) -> int:
        return 2 * self.pairs_for(test_id) + 1

    def effective_error(self, test_id: str) -> float:
        """Fused error of the test's worker group; replaces the test's raw
        error probability everywhere downstream."""
        return group_error(self.pairs_for(test_id), self.worker_error)

    def total_pairs(self) -> int:
        return sum(self.extra_pairs.values())


def effective_table(table: TestTable, allocation: WorkerAllocation) -> TestTable:
    """Table with each allocated test's defined cells set to the chance that
    its group answers wrong (:func:`crowdtree.fusion._answer_errors`). It
    shares the table's outcomes, classes and tests, so a tree compiled for
    one is compiled for the other."""
    rows = [table.test_index(t) for t in allocation.extra_pairs]
    errors = table.errors.copy()
    wrong = _answer_errors(errors[rows], list(allocation.extra_pairs.values()),
                           allocation.worker_error)
    errors[rows] = np.where(table.outcomes[rows] >= 0, wrong, np.nan)
    return TestTable(table.classes, table.priors, table.tests, table.outcomes, errors)


@dataclass(frozen=True)
class AssignStep:
    """One committed pair: which level was weakest and which test got help."""

    iteration: int
    level: int
    test: str
    metric_before: float
    metric_after: float
    pairs_after: int
    effective_error_after: float


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValidationError(f"pair budget must be >= 0, got {budget}")
    if budget >= 1 << 63:  # pair counts are held as int64
        raise ValidationError(f"pair budget must be below 2**63, got {budget}")


def _check_pair_limit(tree: DecisionTree, table: TestTable, budgets: Sequence[int]) -> None:
    """Raise for the first of ``budgets`` above the exact pair limit times the
    tree's test count, as every strategy then puts more than it on some test."""
    n_tests = len(_tree_tests(_compile(tree, table)))
    for budget in budgets:
        if budget > _MAX_EXACT_PAIRS * n_tests:
            raise DomainError(f"budget {budget} puts more than {_MAX_EXACT_PAIRS} pairs on some "
                              f"test of the tree's {n_tests} under every strategy; exact "
                              f"summation supports at most {_MAX_EXACT_PAIRS} pairs")


class _LevelMasses(NamedTuple):
    """The error-independent part of one level's metric under fused errors."""

    entropy_before: float
    entropy_after: float
    tested: dict[str, list[float]]  # test -> priors of the classes it sees here
    untested: list[float]  # the _partials of the priors of the classes no test sees here


def _level_masses(table: TestTable, levels: list[list[tuple]]) -> list[_LevelMasses]:
    """Per level of a compiled form's ``levels``, at a cost in its tested classes: its
    untested priors are all the priors' partials less its tested priors."""
    entropies = _level_entropies(table.priors, levels)
    total = _partials(table.priors)
    out = []
    for level, h_before, h_after in zip(levels, entropies, entropies[1:]):
        tested: dict[str, list[float]] = {}
        for block, m, _, _ in level:
            tested.setdefault(table.tests[m], []).extend(table.priors[i] for i in block)
        untested = _partials([*total, *(-p for ps in tested.values() for p in ps)])
        out.append(_LevelMasses(h_before, h_after, tested, untested))
    return out


def assign_proposed(
    tree: DecisionTree,
    table: TestTable,
    budget: int,
    worker_error: float,
    metric: MetricConfig | None = None,
) -> tuple[WorkerAllocation, list[AssignStep]]:
    """Distribute worker pairs greedily, always repairing the weakest level.

    Each iteration picks the weakest level under the current fused errors
    (lowest additive metric or highest multiplicative metric; earliest
    level on ties) and commits one pair to the test at that level whose
    reinforcement improves the level metric the most (lowest test index on
    ties).

    A level's metric reads its two entropies, computed once per call, and
    its error mass, the exactly rounded ``fsum`` of ``p * e`` over the
    classes its tests see (under the multiplicative metric its correct
    mass, of ``p * (1 - e)`` plus the untested priors): the same value a
    fused table would give. Each level keeps that sum exact as a few
    :func:`_partials`, and so does each (level, test, pair count) for the
    test's own classes there. A candidate pair is scored from the level's
    partials less its test's at the current count plus its test's at the
    next, and ``fsum`` of those rounds the new exact sum correctly: a
    handful of floats per test of the level, whatever the class count. A
    commit re-sums only the levels that use the test that got the pair.
    The chance that a test answers wrong comes from one
    :func:`crowdtree.fusion._answer_errors` call per pair count, for every
    test at once, so each (test, count) is derived once. The rule never
    reads ``budget`` except to stop, so the first K steps of the log are
    the run for budget K.
    """
    metric = metric or MetricConfig()
    _check_budget(budget)
    _check_worker_error(worker_error)
    additive = metric.kind is Metric.ADDITIVE
    levels = _level_masses(table, _compile(tree, table).levels)
    candidates = [sorted(level.tested, key=table.test_index) for level in levels]
    pairs = {t: 0 for t in sorted({t for ts in candidates for t in ts}, key=table.test_index)}
    uses = {t: [d for d, ts in enumerate(candidates) if t in ts] for t in pairs}
    errors = table.errors[[table.test_index(t) for t in pairs]]
    wrong: dict[int, dict[str, float]] = {}  # per pair count, per test: its answer's error
    terms: dict[tuple[int, str, int], list[float]] = {}
    log: list[AssignStep] = []

    def term(d: int, test_id: str, k: int) -> list[float]:
        """The partials of level d's masses from ``test_id`` at k pairs."""
        key = (d, test_id, k)
        if key not in terms:
            if k not in wrong:
                wrong[k] = dict(zip(pairs, _answer_errors(errors, k, worker_error)[:, 0].tolist()))
            e = wrong[k][test_id]
            factor = e if additive else 1.0 - e
            terms[key] = _partials([p * factor for p in levels[d].tested[test_id]])
        return terms[key]

    def moved(d: int, test_id: str) -> list[float]:
        """Level d's partials with one more pair on ``test_id``."""
        k = pairs[test_id]
        return [*sums[d], *(-x for x in term(d, test_id, k)), *term(d, test_id, k + 1)]

    def level_metric(d: int, partials: list[float]) -> float:
        level, mass = levels[d], math.fsum(partials)
        if additive:
            return metric_additive(level.entropy_before - level.entropy_after, mass)
        return metric_multiplicative(
            level.entropy_before, level.entropy_after, mass, metric.ratio_offset
        )

    sums = [
        _partials([*(x for t in ts for x in term(d, t, 0)), *([] if additive else level.untested)])
        for d, (level, ts) in enumerate(zip(levels, candidates))
    ]
    values = [level_metric(d, partials) for d, partials in enumerate(sums)]
    up = 1.0 if additive else -1.0  # up * metric grows as a level gets stronger
    for iteration in range(1, budget + 1):
        target = min(range(len(values)), key=lambda d: (up * values[d], d))
        scored = [(level_metric(target, moved(target, t)), t) for t in candidates[target]]
        best_value, best_test = max(scored, key=lambda s: up * s[0])  # the first on ties
        before = values[target]
        for d in uses[best_test]:
            sums[d] = _partials(moved(d, best_test))
            values[d] = level_metric(d, sums[d])
            del terms[d, best_test, pairs[best_test]]
        pairs[best_test] += 1
        log.append(
            AssignStep(
                iteration=iteration,
                level=target + 1,
                test=best_test,
                metric_before=before,
                metric_after=best_value,
                pairs_after=pairs[best_test],
                effective_error_after=wrong[pairs[best_test]][best_test],
            )
        )
    allocation = WorkerAllocation(
        extra_pairs=pairs,
        worker_error=worker_error,
        strategy=AssignmentStrategy.PROPOSED,
    )
    return allocation, log


def assign_baseline(
    tree: DecisionTree,
    table: TestTable,
    strategy: AssignmentStrategy,
    budget: int,
    worker_error: float,
    seed: int = 0,
) -> WorkerAllocation:
    """One of the reference allocations: all pairs on one random test, each
    pair on an independently random test, or one shared pool on every test.

    Checks the budget and the worker error, then, as every other reader
    does, the tree against ``table``, then that ``strategy`` is a baseline
    (:class:`UnknownStrategy`). Randomized strategies draw from ``seed``;
    for a fixed seed the random per-pair choices for budget K are a prefix
    of those for budget K+1.
    """
    _check_budget(budget)
    _check_worker_error(worker_error)
    tests = [table.tests[m] for m in _tree_tests(_compile(tree, table))]
    counts = _pair_counts(len(tests), None, [budget], [strategy], seed, 1)[0]
    return WorkerAllocation(
        extra_pairs=dict(zip(tests, counts.tolist())),
        worker_error=worker_error,
        strategy=strategy,
        seed=seed,
    )


def _draws(strategy: AssignmentStrategy, draws: int) -> int:
    """How many allocations ``strategy`` makes per budget in a sweep."""
    return draws if strategy is AssignmentStrategy.RANDOM_PER_PAIR else 1


def _pair_counts(
    n_tests: int,
    proposed: Sequence[int] | None,
    budgets: Sequence[int],
    strategies: Sequence[AssignmentStrategy],
    seed: int,
    draws: int,
) -> np.ndarray:
    """The pairs on each of a tree's ``n_tests`` tests, in table
    declaration order, of every allocation: a (settings × tests) int64
    array, one row per (budget, strategy, draw) in that order.

    Draw j of a random strategy reads one stream of test picks from
    ``random.Random(seed + j)``: single-test puts the whole budget on the
    first pick, random per-pair one pair on each of the first K picks. The
    proposed stream is ``proposed``, the test positions of an
    :func:`assign_proposed` log at the largest budget; without one the
    proposed strategy, like any non-strategy, raises
    :class:`UnknownStrategy`.

    Budget K's pairs are a prefix count of its stream. Pick i counts toward
    every budget above i: in sorted order, toward the budgets from rank r
    on, r being how many budgets are at most i. One bincount of (r, draw,
    pick) over every stream and a running sum down the sorted budgets give
    every budget's counts. The budgets are ranked only when there is a
    stream, so all-tests and single-test never make a budget-sized array.
    """
    values = np.asarray(budgets, dtype=np.int64)
    largest = int(values.max(initial=0))
    settings = [(s, j) for s in strategies for j in range(_draws(s, draws))]
    pairs = np.zeros((len(values), len(settings), n_tests), dtype=np.int64)
    streams, picks = [], []  # the columns with a stream of picks, and its picks
    for column, (strategy, j) in enumerate(settings):
        if strategy is AssignmentStrategy.ALL_WORKERS_ALL_TESTS:
            pairs[:, column] = values[:, None]
        elif strategy is AssignmentStrategy.SINGLE_TEST:
            pairs[:, column, random.Random(seed + j).randrange(n_tests)] = values
        elif strategy is AssignmentStrategy.RANDOM_PER_PAIR:
            rng = random.Random(seed + j)
            streams.append(column)
            picks += (rng.randrange(n_tests) for _ in range(largest))
        elif strategy is AssignmentStrategy.PROPOSED and proposed is not None:
            streams.append(column)
            picks += proposed
        else:
            raise UnknownStrategy(
                f"{strategy} is not a baseline; use assign_proposed for the greedy rule"
            )
    if streams:
        order = np.argsort(values)
        rank = np.searchsorted(values[order], np.arange(largest), side="right")
        cells = np.tile(rank, len(streams)) * len(settings) + np.repeat(streams, largest)
        keys = cells * n_tests + np.array(picks, dtype=np.int64)
        pairs[order] += np.bincount(keys, minlength=pairs.size).reshape(pairs.shape).cumsum(axis=0)
    return pairs.reshape(-1, n_tests)


def allocation_cost(
    tree: DecisionTree, table: TestTable, allocation: WorkerAllocation
) -> tuple[float, int]:
    """(expected worker answers per error-free object, flat total group size).

    The expected cost weights each node's group size by the probability that
    an error-free object reaches the node; the flat total just sums group
    sizes over all allocated tests.
    """
    child, _, test, _, block, _ = _compile(tree, table)
    prior = table.priors.__getitem__
    mass = [0.0] * len(test)  # of the classes reaching each node
    mass[0] = math.fsum(table.priors)
    expected = 0.0
    for k, m in enumerate(test):
        if m >= 0:
            expected += mass[k] * allocation.group_size(table.tests[m])
            zero, one = child[2 * k], child[2 * k + 1]
            mass[zero] = math.fsum(map(prior, block[zero]))
            mass[one] = mass[k] - mass[zero]
    flat = sum(2 * k + 1 for k in allocation.extra_pairs.values())
    return expected, flat
