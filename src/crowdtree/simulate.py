"""Seeded Monte Carlo classification through a tree, and experiment sweeps.

Per-trial randomness comes from a counter-based generator keyed by (seed,
trial index, draw counter), so splitting the trial range across any number
of parallel lanes cannot change the result: the k-th draw of trial t is the
same number no matter which lane runs it.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .builder import BuilderConfig, build_greedy, build_random
from .errors import ValidationError
from .metrics import MetricConfig, exact_misclassification
from .model import DecisionTree, Leaf, Node, TestTable
from .workers import (
    AssignmentStrategy,
    AssignStep,
    WorkerAllocation,
    _check_worker_args,
    assign_baseline,
    assign_proposed,
    effective_table,
)

_SH33 = np.uint64(33)
_SH11 = np.uint64(11)
_MUL1 = np.uint64(0xFF51AFD7ED558CCD)
_MUL2 = np.uint64(0xC4CEB9FE1A85EC53)
_KEY_TRIAL = np.uint64(0x9E3779B97F4A7C15)
_KEY_COUNTER = np.uint64(0xD1B54A32D192ED03)
_INV_2_53 = 1.0 / 9007199254740992.0
_CHUNK_TRIALS = 1 << 17


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> _SH33)) * _MUL1
    x = (x ^ (x >> _SH33)) * _MUL2
    return x ^ (x >> _SH33)


def _u01(seed: np.uint64, trial, counter) -> np.ndarray:
    """Uniform [0, 1) draw number ``counter`` of trial ``trial``."""
    with np.errstate(over="ignore"):  # modular 64-bit arithmetic is intended
        x = _mix64(seed ^ (trial * _KEY_TRIAL))
        x = _mix64(x ^ (counter * _KEY_COUNTER))
    return (x >> _SH11).astype(np.float64) * _INV_2_53


@dataclass(frozen=True)
class _FlatTree:
    test_idx: np.ndarray  # -1 at leaves
    child0: np.ndarray
    child1: np.ndarray
    leaf_cls: np.ndarray  # -1 at internal nodes
    group_size: np.ndarray  # workers answering each node's test
    depth: int


def _flatten(tree: DecisionTree, table: TestTable, allocation: WorkerAllocation | None) -> _FlatTree:
    test_idx: list[int] = []
    child0: list[int] = []
    child1: list[int] = []
    leaf_cls: list[int] = []
    group: list[int] = []

    def add(node: Node) -> int:
        idx = len(test_idx)
        test_idx.append(-1)
        child0.append(-1)
        child1.append(-1)
        leaf_cls.append(-1)
        group.append(1)
        if isinstance(node, Leaf):
            leaf_cls[idx] = table.class_index(node.label)
        else:
            test_idx[idx] = table.test_index(node.test)
            if allocation is not None:
                group[idx] = allocation.group_size(node.test)
            child0[idx] = add(node.zero)
            child1[idx] = add(node.one)
        return idx

    add(tree.root)
    return _FlatTree(
        test_idx=np.asarray(test_idx, dtype=np.int64),
        child0=np.asarray(child0, dtype=np.int64),
        child1=np.asarray(child1, dtype=np.int64),
        leaf_cls=np.asarray(leaf_cls, dtype=np.int64),
        group_size=np.asarray(group, dtype=np.int64),
        depth=tree.depth(),
    )


def _run_range(
    start: int,
    stop: int,
    seed: np.uint64,
    flat: _FlatTree,
    table: TestTable,
    cum_priors: np.ndarray,
    extra_error: float,
) -> tuple[np.ndarray, int]:
    """Simulate trials [start, stop); returns (confusion counts, question count)."""
    n = table.n_classes
    confusion = np.zeros((n, n), dtype=np.int64)
    questions = 0
    for lo in range(start, stop, _CHUNK_TRIALS):
        hi = min(lo + _CHUNK_TRIALS, stop)
        trials = np.arange(lo, hi, dtype=np.uint64)
        cls = np.searchsorted(
            cum_priors, _u01(seed, trials, np.uint64(0)), side="right"
        ).astype(np.int64)
        counter = np.ones(hi - lo, dtype=np.uint64)
        node = np.zeros(hi - lo, dtype=np.int64)
        asked = np.zeros(hi - lo, dtype=np.int64)
        for _ in range(flat.depth):
            live = flat.test_idx[node] >= 0
            if not live.any():
                break
            for nid in np.unique(node[live]):
                sel = np.flatnonzero(node == nid)
                m = int(flat.test_idx[nid])
                n_workers = int(flat.group_size[nid])
                tcls = cls[sel]
                out = table.outcomes[m, tcls]
                defined = out >= 0
                base = out == 1  # undefined cells answer a fair coin via p=0.5 below
                p_seated = np.where(defined, table.errors[m, tcls], 0.5)
                draws = _u01(
                    seed,
                    trials[sel][:, None],
                    counter[sel][:, None] + np.arange(n_workers, dtype=np.uint64)[None, :],
                )
                if n_workers == 1:
                    decide = (draws[:, 0] < p_seated) ^ base
                else:
                    flip_prob = np.empty((len(sel), n_workers))
                    flip_prob[:, 0] = p_seated
                    flip_prob[:, 1:] = np.where(defined, extra_error, 0.5)[:, None]
                    ones = ((draws < flip_prob) ^ base[:, None]).sum(axis=1)
                    decide = ones > n_workers // 2
                node[sel] = np.where(decide, flat.child1[nid], flat.child0[nid])
                counter[sel] += np.uint64(n_workers)
                asked[sel] += n_workers
        assert (flat.test_idx[node] < 0).all(), "trial stuck above a leaf"
        leaf = flat.leaf_cls[node]
        confusion += np.bincount(cls * n + leaf, minlength=n * n).reshape(n, n)
        questions += int(asked.sum())
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
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if lanes < 1:
        raise ValidationError(f"lanes must be >= 1, got {lanes}")
    flat = _flatten(tree, table, allocation)
    cum = np.cumsum(np.asarray(table.priors, dtype=np.float64))
    cum[-1] = 1.0
    seed_u = np.uint64(seed % (1 << 64))
    extra = allocation.worker_error if allocation is not None else 0.5
    bounds = [trials * i // lanes for i in range(lanes + 1)]
    ranges = [(bounds[i], bounds[i + 1]) for i in range(lanes) if bounds[i] < bounds[i + 1]]
    if len(ranges) <= 1:
        results = [_run_range(a, b, seed_u, flat, table, cum, extra) for a, b in ranges]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            results = list(
                pool.map(lambda r: _run_range(*r, seed_u, flat, table, cum, extra), ranges)
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
    ``n_random_trees`` trees are built once and shared by every grid point.
    """
    config = config or BuilderConfig()
    grid = list(grid)
    for p_star in grid:
        if not (0.0 < p_star < 0.5):
            raise ValidationError(f"grid error prob {p_star!r} outside (0, 0.5)")
    random_trees: list[DecisionTree] | None = None
    points: list[ErrorSweepPoint] = []
    for p_star in grid:
        tbl = table.with_scalar_error(p_star)
        designed = build_greedy(tbl, config).tree
        designed_pm = exact_misclassification(designed, tbl)
        if random_trees is None:  # after the first designed tree: it names an inseparable pair
            random_trees = [build_random(tbl, seed + i) for i in range(n_random_trees)]
        random_pms = [exact_misclassification(tree, tbl) for tree in random_trees]
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
    proposed allocation for budget K is the first K steps of its log.
    """
    metric = metric or MetricConfig()
    k_values = list(k_values)
    for budget in k_values:
        _check_worker_args(budget, worker_error)
    proposed: WorkerAllocation | None = None
    log: list[AssignStep] = []
    if k_values and AssignmentStrategy.PROPOSED in strategies:
        proposed, log = assign_proposed(tree, table, max(k_values), worker_error, metric)
    points: list[WorkerSweepPoint] = []
    for budget in k_values:
        for strategy in strategies:
            if strategy is AssignmentStrategy.PROPOSED:
                pairs = dict.fromkeys(proposed.extra_pairs, 0)
                for step in log[:budget]:
                    pairs[step.test] += 1
                allocation = dataclasses.replace(proposed, extra_pairs=pairs)
                pm = exact_misclassification(tree, effective_table(table, allocation))
            elif strategy is AssignmentStrategy.RANDOM_PER_PAIR:
                draws = []
                for j in range(random_draws):
                    allocation = assign_baseline(
                        tree, table, strategy, budget, worker_error, seed=seed + j
                    )
                    draws.append(
                        exact_misclassification(tree, effective_table(table, allocation))
                    )
                pm = float(np.mean(draws))
            else:
                allocation = assign_baseline(
                    tree, table, strategy, budget, worker_error, seed=seed
                )
                pm = exact_misclassification(tree, effective_table(table, allocation))
            points.append(WorkerSweepPoint(budget=int(budget), strategy=strategy, pm=pm))
    return points
