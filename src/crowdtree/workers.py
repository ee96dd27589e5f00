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
from itertools import count, islice
from typing import Iterator, Mapping, NamedTuple, Sequence

from .errors import UnknownStrategy, UnknownTest, ValidationError
from .fusion import group_error
from .metrics import (
    Metric,
    MetricConfig,
    _level_entropy,
    metric_additive,
    metric_multiplicative,
)
from .model import DecisionTree, LevelStep, TestTable, _compile, level_trace, validate_tree


class AssignmentStrategy(enum.Enum):
    PROPOSED = "proposed"
    RANDOM_PER_PAIR = "random"
    SINGLE_TEST = "single"
    ALL_WORKERS_ALL_TESTS = "all"


@dataclass(frozen=True)
class WorkerAllocation:
    """Extra worker pairs per test on top of one seated worker each.

    ``shared_pool`` marks the convention where one pool of workers answers
    every test (then ``extra_pairs`` holds the same pair count for each test
    and the budget is not a sum across tests).
    """

    extra_pairs: Mapping[str, int]
    worker_error: float
    strategy: AssignmentStrategy
    seed: int | None = None
    shared_pool: bool = False

    def __post_init__(self):
        for test_id, k in self.extra_pairs.items():
            if not isinstance(k, numbers.Integral) or k < 0:
                raise ValidationError(
                    f"pairs on test {test_id!r} must be an integer >= 0, got {k!r}"
                )
        _check_worker_error(self.worker_error)

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
    """Table with each allocated test's error column set to its fused error."""
    fused = {
        k: group_error(k, allocation.worker_error) for k in set(allocation.extra_pairs.values())
    }
    return table.with_test_errors({t: fused[k] for t, k in allocation.extra_pairs.items()})


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


def _check_worker_args(budget: int, worker_error: float) -> None:
    _check_budget(budget)
    _check_worker_error(worker_error)


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValidationError(f"pair budget must be >= 0, got {budget}")


def _check_worker_error(worker_error: float) -> None:
    if not (0.0 < worker_error < 0.5):
        raise ValidationError(
            f"worker error must lie strictly in (0, 0.5), got {worker_error!r}"
        )


class _LevelMasses(NamedTuple):
    """The error-independent part of one level's metric under fused errors."""

    entropy_before: float
    entropy_after: float
    tested: dict[str, list[float]]  # test -> priors of the classes it sees here
    untested: list[float]  # priors of the classes no test sees here


def _level_masses(table: TestTable, step: LevelStep) -> _LevelMasses:
    h_before = _level_entropy(table.priors, step.before)
    h_after = _level_entropy(table.priors, step.after)
    tested: dict[str, list[float]] = {}
    for block, test_id in step.assignment.items():
        tested.setdefault(test_id, []).extend(table.priors[i] for i in block)
    seen = {i for block in step.assignment for i in block}
    untested = [p for i, p in enumerate(table.priors) if i not in seen]
    return _LevelMasses(h_before, h_after, tested, untested)


def assign_proposed(
    tree: DecisionTree,
    table: TestTable,
    budget: int,
    worker_error: float,
    metric: MetricConfig | None = None,
) -> tuple[WorkerAllocation, list[AssignStep]]:
    """Distribute worker pairs greedily, always repairing the weakest level.

    Each iteration recomputes every level's metric under the current fused
    errors, picks the weakest level (lowest additive metric or highest
    multiplicative metric; earliest level on ties), and commits one pair to
    the test at that level whose reinforcement improves the level metric the
    most (lowest test index on ties).

    Only the fused errors change between iterations, so each level's two
    entropies and its priors grouped by assigned test are computed once per
    call, and the group error once per distinct pair count. A level's error
    (correct) mass is then the exactly rounded ``fsum`` of ``p * e``
    (``p * (1 - e)``, plus the untested priors), the same value a fused
    table would give. The rule never reads ``budget`` except to stop, so
    the first K steps of the log are the run for budget K.
    """
    metric = metric or MetricConfig()
    _check_worker_args(budget, worker_error)
    steps = level_trace(tree, table)
    levels = [_level_masses(table, step) for step in steps]
    tested = {t for step in steps for t in step.assignment.values()}  # every node is in a level
    pairs = {t: 0 for t in sorted(tested, key=table.test_index)}
    fused_by_pairs: dict[int, float] = {}
    log: list[AssignStep] = []

    def fused(k: int) -> float:
        if k not in fused_by_pairs:
            fused_by_pairs[k] = group_error(k, worker_error)
        return fused_by_pairs[k]

    errors = {t: fused(0) for t in pairs}

    def level_metric(level: _LevelMasses, errs: Mapping[str, float]) -> float:
        if metric.kind is Metric.ADDITIVE:
            g = math.fsum(p * errs[t] for t, ps in level.tested.items() for p in ps)
            return metric_additive(level.entropy_before - level.entropy_after, g)
        tested = (p * (1.0 - errs[t]) for t, ps in level.tested.items() for p in ps)
        c = math.fsum([*level.untested, *tested])
        return metric_multiplicative(
            level.entropy_before, level.entropy_after, c, metric.ratio_offset
        )

    for iteration in range(1, budget + 1):
        values = [level_metric(level, errors) for level in levels]
        if metric.kind is Metric.ADDITIVE:
            target = min(range(len(values)), key=lambda d: (values[d], d))
        else:
            target = min(range(len(values)), key=lambda d: (-values[d], d))
        best_test: str | None = None
        best_value = 0.0
        for test_id in sorted(levels[target].tested, key=table.test_index):
            value = level_metric(levels[target], {**errors, test_id: fused(pairs[test_id] + 1)})
            better = (
                value > best_value
                if metric.kind is Metric.ADDITIVE
                else value < best_value
            )
            if best_test is None or better:
                best_test, best_value = test_id, value
        assert best_test is not None
        pairs[best_test] += 1
        errors[best_test] = fused(pairs[best_test])
        log.append(
            AssignStep(
                iteration=iteration,
                level=target + 1,
                test=best_test,
                metric_before=values[target],
                metric_after=best_value,
                pairs_after=pairs[best_test],
                effective_error_after=errors[best_test],
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

    Randomized strategies draw from ``seed``; for a fixed seed the random
    per-pair choices for budget K are a prefix of those for budget K+1.
    Raises, as every other reader does, unless ``tree`` fits ``table``.
    """
    _check_worker_args(budget, worker_error)
    validate_tree(tree, table)
    tests = sorted(tree.test_ids(), key=table.test_index)
    pairs = dict(zip(tests, _baseline_pairs(len(tests), strategy, [budget], seed)[0]))
    return WorkerAllocation(
        extra_pairs=pairs,
        worker_error=worker_error,
        strategy=strategy,
        seed=seed,
        shared_pool=strategy is AssignmentStrategy.ALL_WORKERS_ALL_TESTS,
    )


def _baseline_pairs(
    n_tests: int, strategy: AssignmentStrategy, budgets: Sequence[int], seed: int
) -> list[list[int]]:
    """Per budget, the pairs that :func:`assign_baseline` puts on each of
    the tree's ``n_tests`` tests, in table declaration order.

    Both random strategies read one stream of test picks from
    ``random.Random(seed)``: single-test puts the whole budget on the first
    pick, random per-pair one pair on each of the first K picks, so budget
    K's pairs are a prefix count of the stream."""
    if strategy is AssignmentStrategy.ALL_WORKERS_ALL_TESTS:
        return [[budget] * n_tests for budget in budgets]
    rng = random.Random(seed)
    picks = (rng.randrange(n_tests) for _ in count())
    if strategy is AssignmentStrategy.SINGLE_TEST:
        first = next(picks)
        return [[budget if i == first else 0 for i in range(n_tests)] for budget in budgets]
    if strategy is AssignmentStrategy.RANDOM_PER_PAIR:
        return _prefix_counts(picks, n_tests, budgets)
    raise UnknownStrategy(
        f"{strategy} is not a baseline; use assign_proposed for the greedy rule"
    )


def _prefix_counts(picks: Iterator[int], n_tests: int, budgets: Sequence[int]) -> list[list[int]]:
    """Per budget K, how many of the first K ``picks`` name each test position."""
    counts, done, at = [0] * n_tests, 0, {}
    for budget in sorted(set(budgets)):
        for i in islice(picks, budget - done):
            counts[i] += 1
        done, at[budget] = budget, counts.copy()
    return [at[budget] for budget in budgets]


def allocation_cost(
    tree: DecisionTree, table: TestTable, allocation: WorkerAllocation
) -> tuple[float, int]:
    """(expected worker answers per error-free object, flat total group size).

    The expected cost weights each node's group size by the probability that
    an error-free object reaches the node; the flat total just sums group
    sizes over all allocated tests.
    """
    child, _, test, _, block = _compile(tree, table)
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
