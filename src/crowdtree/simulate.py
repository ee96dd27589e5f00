"""Seeded Monte Carlo classification through a tree, and experiment sweeps.

Per-trial randomness comes from a counter-based generator keyed by (seed,
trial index, draw counter), so splitting the trial range across any number
of parallel lanes cannot change the result: the k-th draw of trial t is the
same number no matter which lane or chunk runs it. The generator is two
hashes: the first depends only on (seed, trial) and gives the trial's key,
the second finishes draw ``counter`` from that key. The simulator hashes
each trial's key once per chunk.

Routing is table-driven. Each node's test and each class select one cell of
small lookup tables (seated error, extra-worker error, error-free outcome),
and every trial of a chunk takes one vectorised step per tree depth. Leaves
are absorbing: they read an extra row with error 0, a group of 0 workers
and both children equal to the leaf, so a trial that has arrived simply
stays. There is no loop over nodes, and the tables are the size of the test
table plus one row, whatever the size of the tree.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .builder import BuilderConfig, build_greedy, build_random
from .errors import ValidationError
from .fusion import group_error
from .metrics import MetricConfig, _misclassification, exact_misclassification
from .model import DecisionTree, TestTable, _compile
from .workers import (
    AssignmentStrategy,
    AssignStep,
    WorkerAllocation,
    _baseline_pairs,
    _check_worker_args,
    _tree_tests,
    assign_proposed,
)

_SH33 = np.uint64(33)
_SH11 = np.uint64(11)
_MUL1 = np.uint64(0xFF51AFD7ED558CCD)
_MUL2 = np.uint64(0xC4CEB9FE1A85EC53)
_KEY_TRIAL = np.uint64(0x9E3779B97F4A7C15)
_KEY_COUNTER = np.uint64(0xD1B54A32D192ED03)
_INV_2_53 = 1.0 / 9007199254740992.0
_CHUNK_TRIALS = 1 << 15


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> _SH33)) * _MUL1
    x = (x ^ (x >> _SH33)) * _MUL2
    return x ^ (x >> _SH33)


def _trial_key(seed: np.uint64, trial) -> np.ndarray:
    """The half of the generator that depends only on the trial."""
    with np.errstate(over="ignore"):  # modular 64-bit arithmetic is intended
        return _mix64(seed ^ (trial * _KEY_TRIAL))


def _draw(key, counter) -> np.ndarray:
    """Finish draw number ``counter`` of the trial whose key is ``key``."""
    with np.errstate(over="ignore"):
        x = _mix64(key ^ (counter * _KEY_COUNTER))
    return (x >> _SH11).astype(np.float64) * _INV_2_53


def _u01(seed: np.uint64, trial, counter) -> np.ndarray:
    """Uniform [0, 1) draw number ``counter`` of trial ``trial``."""
    return _draw(_trial_key(seed, trial), counter)


@dataclass(frozen=True)
class _Router:
    """Lookup tables for one step of every trial at once.

    Cells are indexed by ``test * n_classes + class``; one extra row past
    the last test serves the leaves. Nodes are numbered in preorder.
    """

    seated_error: np.ndarray  # per cell; 0.5 on undefined cells, 0 on the leaf row
    extra_error: np.ndarray  # per cell: the worker error, 0.5 on undefined cells
    one: np.ndarray  # per cell: the error-free answer is 1
    row: np.ndarray  # per node: first cell of its test's row (the leaf row at leaves)
    child: np.ndarray  # at 2 * node + outcome: the next node; a leaf points to itself
    group: np.ndarray  # per node: workers answering (uint64, 0 at leaves)
    leaf_cls: np.ndarray  # per node: class index of a leaf, -1 at internal nodes
    depth: int


def _router(
    tree: DecisionTree, table: TestTable, allocation: WorkerAllocation | None
) -> _Router:
    form = _compile(tree, table)
    n = table.n_classes
    row = [m * n if m >= 0 else table.n_tests * n for m in form.test]
    group = [
        0 if m < 0 else 1 if allocation is None else allocation.group_size(table.tests[m])
        for m in form.test
    ]
    defined = table.outcomes >= 0
    worker_error = allocation.worker_error if allocation is not None else 0.5
    absorbing = np.zeros(n)
    return _Router(
        seated_error=np.concatenate([np.where(defined, table.errors, 0.5).ravel(), absorbing]),
        extra_error=np.concatenate([np.where(defined, worker_error, 0.5).ravel(), absorbing]),
        one=np.concatenate([(table.outcomes == 1).ravel(), np.zeros(n, dtype=bool)]),
        row=np.asarray(row, dtype=np.int64),
        child=np.asarray(form.child, dtype=np.int64),
        group=np.asarray(group, dtype=np.uint64),
        leaf_cls=np.asarray(form.leaf, dtype=np.int64),
        depth=max(form.depth),
    )


def _run_range(
    start: int, stop: int, seed: np.uint64, router: _Router, cum_priors: np.ndarray
) -> tuple[np.ndarray, int]:
    """Simulate trials [start, stop); returns (confusion counts, question count).

    Trials run in chunks, and each chunk takes one whole-chunk step per tree
    depth. In a step every trial reads its cell ``row[node] + class``: the
    seated worker errs when its draw falls below the cell's error, and the
    node's ``g`` workers vote. A trial already at a leaf reads the leaf row
    (error 0, ``g`` = 0) and stays where it is, so no trial is masked. Draw
    ``counter`` of a trial is finished from the trial's key, hashed once
    per chunk; the counter advances by ``g`` at each step, so draw k of
    trial t goes to the same node and worker whatever the chunk or lane.
    """
    r = router
    n = len(cum_priors)
    confusion = np.zeros((n, n), dtype=np.int64)
    questions = 0
    for lo in range(start, stop, _CHUNK_TRIALS):
        trials = np.arange(lo, min(lo + _CHUNK_TRIALS, stop), dtype=np.uint64)
        cls = np.searchsorted(cum_priors, _u01(seed, trials, np.uint64(0)), side="right")
        key = _trial_key(seed, trials)
        counter = np.ones(len(trials), dtype=np.uint64)
        node = np.zeros(len(trials), dtype=np.int64)
        for _ in range(r.depth):
            ix = r.row[node] + cls
            g = r.group[node]
            wrong = _draw(key, counter) < r.seated_error[ix]
            sel = np.flatnonzero(g > 1)
            if sel.size:
                # extra workers; a group's size g is odd, and the majority
                # answer is wrong when more than g // 2 answers are wrong
                g_sel = g[sel]
                n_wrong = wrong[sel].astype(np.uint64)
                voting = np.arange(sel.size)
                for j in range(1, int(g_sel.max())):
                    voting = voting[g_sel[voting] > j]
                    t = sel[voting]
                    draws = _draw(key[t], counter[t] + np.uint64(j))
                    n_wrong[voting] += draws < r.extra_error[ix[t]]
                wrong[sel] = n_wrong > g_sel // np.uint64(2)
            node = r.child[2 * node + (wrong ^ r.one[ix])]
            counter += g
        questions += int(counter.sum()) - len(trials)  # every draw after the class draw
        leaf = r.leaf_cls[node]
        assert (leaf >= 0).all(), "trial stuck above a leaf"
        confusion += np.bincount(cls * n + leaf, minlength=n * n).reshape(n, n)
    return confusion, questions


@dataclass(frozen=True, eq=False)
class SimulationReport:
    trials: int
    misclassified: int
    p_hat: float
    ci_low: float
    ci_high: float
    confusion: np.ndarray  # counts, true class by reached leaf class
    mean_questions: float
    seed: int
    lanes: int
    config: dict = field(default_factory=dict)


def simulate(
    tree: DecisionTree,
    table: TestTable,
    allocation: WorkerAllocation | None = None,
    trials: int = 100_000,
    seed: int = 0,
    lanes: int = 1,
) -> SimulationReport:
    """Classify ``trials`` random objects through ``tree`` under noisy tests.

    The seated worker at a node errs with the table's per-class probability
    for the node's test; extra workers from ``allocation`` err with the
    allocation's worker error; the group majority routes the object. Output
    is identical for any ``lanes`` value.

    A test undefined for an object's class answers a fair coin, from every
    worker in the group. The case is reachable: an earlier error can send an
    object off its own path to a node whose test is undefined for its class
    (on the demo table, ``c4`` misrouted at the root meets ``T5``). Such an
    object still ends at some leaf and counts as misclassified. In the
    lookup tables these are the cells whose error is 0.5.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if lanes < 1:
        raise ValidationError(f"lanes must be >= 1, got {lanes}")
    router = _router(tree, table, allocation)
    cum = np.cumsum(np.asarray(table.priors, dtype=np.float64))
    cum[-1] = 1.0
    seed_u = np.uint64(seed % (1 << 64))
    bounds = [trials * i // lanes for i in range(lanes + 1)]
    ranges = [(bounds[i], bounds[i + 1]) for i in range(lanes) if bounds[i] < bounds[i + 1]]
    if len(ranges) <= 1:
        results = [_run_range(a, b, seed_u, router, cum) for a, b in ranges]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            results = list(
                pool.map(lambda r: _run_range(*r, seed_u, router, cum), ranges)
            )
    n = table.n_classes
    confusion = np.zeros((n, n), dtype=np.int64)
    questions = 0
    for conf, asked in results:
        confusion += conf
        questions += asked
    misclassified = int(confusion.sum() - np.trace(confusion))
    p_hat = misclassified / trials
    half = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    config = {"allocation": None}
    if allocation is not None:
        config["allocation"] = {
            "strategy": allocation.strategy.value,
            "worker_error": allocation.worker_error,
            "extra_pairs": dict(allocation.extra_pairs),
            "shared_pool": allocation.shared_pool,
        }
    return SimulationReport(
        trials=trials,
        misclassified=misclassified,
        p_hat=p_hat,
        ci_low=p_hat - half,
        ci_high=p_hat + half,
        confusion=confusion,
        mean_questions=questions / trials,
        seed=seed,
        lanes=lanes,
        config=config,
    )


@dataclass(frozen=True)
class ErrorSweepPoint:
    error_prob: float
    designed_pm: float
    random_mean_pm: float
    random_std_pm: float


def sweep_error(
    table: TestTable,
    grid: Sequence[float],
    n_random_trees: int = 20,
    config: BuilderConfig | None = None,
    seed: int = 0,
) -> list[ErrorSweepPoint]:
    """Designed-tree versus random-ordering misclassification across a grid
    of scalar test error probabilities, all evaluated exactly.

    The whole grid is checked before any tree is built. A random tree
    depends only on the table's outcomes and its seed, so the
    ``n_random_trees`` trees are built and compiled once and shared by
    every grid point: only the errors change along the grid.
    """
    config = config or BuilderConfig()
    grid = list(grid)
    for p_star in grid:
        if not (0.0 < p_star < 0.5):
            raise ValidationError(f"grid error prob {p_star!r} outside (0, 0.5)")
    random_forms = None
    points: list[ErrorSweepPoint] = []
    for p_star in grid:
        tbl = table.with_scalar_error(p_star)
        designed = build_greedy(tbl, config).tree
        designed_pm = exact_misclassification(designed, tbl)
        if random_forms is None:  # after the first designed tree: it names an inseparable pair
            random_forms = [
                _compile(build_random(tbl, seed + i), tbl) for i in range(n_random_trees)
            ]
        random_pms = [_misclassification(form, tbl) for form in random_forms]
        points.append(
            ErrorSweepPoint(
                error_prob=float(p_star),
                designed_pm=designed_pm,
                random_mean_pm=float(np.mean(random_pms)),
                random_std_pm=float(np.std(random_pms)),
            )
        )
    return points


@dataclass(frozen=True)
class WorkerSweepPoint:
    budget: int
    strategy: AssignmentStrategy
    pm: float


def sweep_workers(
    tree: DecisionTree,
    table: TestTable,
    k_values: Sequence[int],
    strategies: Sequence[AssignmentStrategy],
    worker_error: float,
    seed: int = 0,
    random_draws: int = 50,
    metric: MetricConfig | None = None,
) -> list[WorkerSweepPoint]:
    """Misclassification versus worker-pair budget for each strategy.

    Deterministic strategies are evaluated exactly through their fused test
    errors; the random-per-pair strategy is averaged over ``random_draws``
    seeded allocations, each evaluated exactly. Every budget is checked
    before any work. The greedy rule never reads its budget, so one
    :func:`assign_proposed` run at the largest budget serves them all: the
    proposed allocation for budget K is the first K steps of its log. The
    tree is compiled once, every allocation is scored against that form
    with its tests' fused errors, and the group error is computed once per
    distinct pair count.
    """
    metric = metric or MetricConfig()
    k_values = list(k_values)
    for budget in k_values:
        _check_worker_args(budget, worker_error)
    if not k_values:
        return []
    form = _compile(tree, table)
    tests = _tree_tests(form, table)
    log: list[AssignStep] = []
    if AssignmentStrategy.PROPOSED in strategies:
        _, log = assign_proposed(tree, table, max(k_values), worker_error, metric)
    fused_by_pairs: dict[int, float] = {}

    def pm(pairs: dict[str, int]) -> float:
        fused = {}
        for test_id, k in pairs.items():
            if k not in fused_by_pairs:
                fused_by_pairs[k] = group_error(k, worker_error)
            fused[table.test_index(test_id)] = fused_by_pairs[k]
        return _misclassification(form, table, fused)

    points: list[WorkerSweepPoint] = []
    for budget in k_values:
        for strategy in strategies:
            if strategy is AssignmentStrategy.PROPOSED:
                pairs = dict.fromkeys(tests, 0)
                for step in log[:budget]:
                    pairs[step.test] += 1
                value = pm(pairs)
            elif strategy is AssignmentStrategy.RANDOM_PER_PAIR:
                draws = [
                    pm(_baseline_pairs(tests, strategy, budget, seed + j))
                    for j in range(random_draws)
                ]
                value = float(np.mean(draws))
            else:
                value = pm(_baseline_pairs(tests, strategy, budget, seed))
            points.append(WorkerSweepPoint(budget=int(budget), strategy=strategy, pm=value))
    return points
