"""Seeded Monte Carlo classification through a tree, and experiment sweeps.

Per-trial randomness comes from a counter-based generator keyed by (seed,
trial index, draw counter), so splitting the trial range across any number
of parallel lanes cannot change the result: the k-th draw of trial t is the
same number no matter which lane or chunk runs it. The generator is two
hashes: the first depends only on (seed, trial) and gives the trial's key,
the second finishes draw ``counter`` from that key. The simulator hashes
each trial's key once per chunk.

A draw is its 64-bit hash ``x``; its uniform value is ``u = (x >> 11) *
2**-53``, and no worker's answer forms it. An answer with error ``e`` is
wrong when ``u < e``, which for ``e`` in [0, 0.5] is exactly ``x <
ceil(e * 2**53) << 11``: ``u`` is a whole number of steps of ``2**-53``,
and ``e * 2**53`` is exact and at most ``2**52``. The lookup tables hold
these integer thresholds. Draw 0 picks the trial's class through a guide
table (Chen & Asau, 1974): ``x >> 52`` names one of 4096 equal buckets of
[0, 1), and a bucket that no cumulative prior falls strictly inside gives
every draw in it the same class, so only draws in the at most n - 1 other
buckets are searched among the cumulative priors. Both give the classes
and answers of the float comparisons exactly.

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

from .builder import BuilderConfig, _greedy_tree, build_random
from .errors import ValidationError
from .fusion import group_error
from .metrics import MetricConfig, _exact, exact_misclassification
from .model import DecisionTree, TestTable, _compile
from .workers import (
    AssignmentStrategy,
    AssignStep,
    WorkerAllocation,
    _baseline_pairs,
    _check_budget,
    _check_worker_error,
    _prefix_counts,
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
_GUIDE_BITS = 12  # the class draw's guide table has 2**12 buckets
_GUIDE_SHIFT = np.uint64(64 - _GUIDE_BITS)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Finalize ``x`` in place."""
    x ^= x >> _SH33
    x *= _MUL1
    x ^= x >> _SH33
    x *= _MUL2
    x ^= x >> _SH33
    return x


def _trial_key(seed: np.uint64, trial) -> np.ndarray:
    """The half of the generator that depends only on the trial."""
    with np.errstate(over="ignore"):  # modular 64-bit arithmetic is intended
        x = np.multiply(trial, _KEY_TRIAL, dtype=np.uint64)
        x ^= seed
        return _mix64(x)


def _bits(key, counter) -> np.ndarray:
    """The 64-bit hash ``x`` of draw ``counter`` of the trial whose key is
    ``key``; the draw's uniform [0, 1) value is ``(x >> 11) * 2**-53``."""
    with np.errstate(over="ignore"):
        x = np.multiply(counter, _KEY_COUNTER, dtype=np.uint64)
        x ^= key
        return _mix64(x)


def _thresholds(error) -> np.ndarray:
    """Per error ``e`` in [0, 0.5], the uint64 ``t`` with ``x < t`` exactly
    when ``(x >> 11) * 2**-53 < e``: that is ``x >> 11 < ceil(e * 2**53)``,
    and ``e * 2**53`` is exact and at most ``2**52``."""
    return np.ceil(np.asarray(error, dtype=np.float64) * 2.0**53).astype(np.uint64) << _SH11


def _guide(cum_priors: np.ndarray) -> np.ndarray:
    """The class of every draw in each bucket ``[b, b + 1) / 2**12`` of
    [0, 1), or -1 where a cumulative prior falls strictly inside the bucket
    and the draw itself decides. A draw with hash ``x`` lies in bucket
    ``x >> 52``."""
    edges = np.arange((1 << _GUIDE_BITS) + 1) / (1 << _GUIDE_BITS)
    first = np.searchsorted(cum_priors, edges[:-1], side="right")
    last = np.searchsorted(cum_priors, edges[1:], side="left")
    return np.where(first == last, first, -1)


def _classes(x: np.ndarray, cum_priors: np.ndarray, guide: np.ndarray) -> np.ndarray:
    """``searchsorted(cum_priors, u, side="right")`` of the draws ``u`` whose
    hashes are ``x``, read from the guide table where the bucket decides."""
    cls = guide[x >> _GUIDE_SHIFT]
    split = np.flatnonzero(cls < 0)
    if split.size:
        u = (x[split] >> _SH11).astype(np.float64) * _INV_2_53
        cls[split] = np.searchsorted(cum_priors, u, side="right")
    return cls


@dataclass(frozen=True)
class _Router:
    """Lookup tables for one step of every trial at once.

    Cells are indexed by ``test * n_classes + class``; one extra row past
    the last test serves the leaves. Nodes are numbered in preorder. Error
    probabilities are held as :func:`_thresholds`.
    """

    seated_error: np.ndarray  # per cell; 0.5 on undefined cells, 0 on the leaf row
    extra_error: np.ndarray  # per cell: the worker error, 0.5 on undefined cells
    one: np.ndarray  # per cell: the error-free answer is 1
    row: np.ndarray  # per node: first cell of its test's row (the leaf row at leaves)
    child: np.ndarray  # at 2 * node + outcome: the next node; a leaf points to itself
    group: np.ndarray  # per node: workers answering (uint64, 0 at leaves)
    leaf_cls: np.ndarray  # per node: class index of a leaf, -1 at internal nodes
    depth: int
    cum_priors: np.ndarray  # per class; the last is exactly 1
    guide: np.ndarray  # per guide bucket: see _guide


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
    cum = np.cumsum(np.asarray(table.priors, dtype=np.float64))
    cum[-1] = 1.0
    return _Router(
        seated_error=_thresholds(
            np.concatenate([np.where(defined, table.errors, 0.5).ravel(), absorbing])
        ),
        extra_error=_thresholds(
            np.concatenate([np.where(defined, worker_error, 0.5).ravel(), absorbing])
        ),
        one=np.concatenate([(table.outcomes == 1).ravel(), np.zeros(n, dtype=bool)]),
        row=np.asarray(row, dtype=np.int64),
        child=np.asarray(form.child, dtype=np.int64),
        group=np.asarray(group, dtype=np.uint64),
        leaf_cls=np.asarray(form.leaf, dtype=np.int64),
        depth=max(form.depth),
        cum_priors=cum,
        guide=_guide(cum),
    )


def _run_range(start: int, stop: int, seed: np.uint64, router: _Router) -> tuple[np.ndarray, int]:
    """Simulate trials [start, stop); returns (confusion counts, question count)."""
    n = len(router.cum_priors)
    confusion = np.zeros((n, n), dtype=np.int64)
    questions = 0
    for lo in range(start, stop, _CHUNK_TRIALS):
        counts, asked = _run_chunk(lo, min(lo + _CHUNK_TRIALS, stop), seed, router)
        confusion += counts
        questions += asked
    return confusion, questions


def _run_chunk(lo: int, hi: int, seed: np.uint64, r: _Router) -> tuple[np.ndarray, int]:
    """Simulate the chunk of trials [lo, hi) in one whole-chunk step per
    tree depth; returns (confusion counts, question count).

    In a step every trial reads its cell ``row[node] + class``: the seated
    worker errs when its draw falls below the cell's error, and the node's
    ``g`` workers vote. A trial already at a leaf reads the leaf row (error
    0, ``g`` = 0) and stays where it is, so no trial is masked. Draw
    ``counter`` of a trial is finished from the trial's key, hashed once
    per chunk; draw 0 picks the class, and the counter advances by ``g`` at
    each step, so draw k of trial t goes to the same node and worker
    whatever the chunk or lane. Each chunk and step runs in its own call,
    so that its temporaries are freed before the next one allocates.
    """
    key = _trial_key(seed, np.arange(lo, hi, dtype=np.uint64))
    cls = _classes(_bits(key, np.uint64(0)), r.cum_priors, r.guide)
    counter = np.ones(hi - lo, dtype=np.uint64)
    node = np.zeros(hi - lo, dtype=np.int64)
    for _ in range(r.depth):
        node = _step(r, key, cls, counter, node)
    leaf = r.leaf_cls[node]
    assert (leaf >= 0).all(), "trial stuck above a leaf"
    n = len(r.cum_priors)
    counts = np.bincount(cls * n + leaf, minlength=n * n).reshape(n, n)
    return counts, int(counter.sum()) - (hi - lo)  # every draw after the class draw


def _step(
    r: _Router, key: np.ndarray, cls: np.ndarray, counter: np.ndarray, node: np.ndarray
) -> np.ndarray:
    """Every trial's next node; advances ``counter`` past the step's draws."""
    cell = r.row[node] + cls
    wrong = _bits(key, counter) < r.seated_error[cell]
    one = r.one[cell]
    voters = np.flatnonzero(r.group[node] > 1)
    if voters.size:
        threshold = r.extra_error[cell[voters]]
        del cell  # the vote is the step's largest working set
        wrong[voters] = _majority_wrong(
            key[voters], counter[voters], threshold, r.group[node[voters]], wrong[voters]
        )
    counter += r.group[node]
    return r.child[2 * node + (wrong ^ one)]


def _majority_wrong(
    key: np.ndarray,
    counter: np.ndarray,
    threshold: np.ndarray,
    group: np.ndarray,
    seated_wrong: np.ndarray,
) -> np.ndarray:
    """Whether more than half of each group answers wrong, given its seated
    worker's answer. A group's size is odd and above 1; its extra worker j
    errs when draw ``counter + j`` falls below ``threshold``. The voters'
    arrays are narrowed only when some group has no more workers, and they
    are consumed: ``counter`` is advanced in place."""
    largest = int(group.max())
    n_wrong = seated_wrong.astype(np.min_scalar_type(largest))
    voting = None  # positions still drawing; None while all are
    size = group
    for j in range(1, largest):
        if size.min() <= j:
            keep = np.flatnonzero(size > j)
            voting = keep if voting is None else voting[keep]
            key, counter, threshold, size = key[keep], counter[keep], threshold[keep], size[keep]
        counter += np.uint64(1)  # worker j draws number counter + j
        if voting is None:
            n_wrong += _bits(key, counter) < threshold
        else:
            n_wrong[voting] += _bits(key, counter) < threshold
    return n_wrong > group >> np.uint64(1)


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
    seed_u = np.uint64(seed % (1 << 64))
    bounds = [trials * i // lanes for i in range(lanes + 1)]
    ranges = [(bounds[i], bounds[i + 1]) for i in range(lanes) if bounds[i] < bounds[i + 1]]
    if len(ranges) <= 1:
        results = [_run_range(a, b, seed_u, router) for a, b in ranges]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            results = list(
                pool.map(lambda r: _run_range(*r, seed_u, router), ranges)
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

    The whole grid and the tree count are checked before any tree is
    built. A random tree depends only on the table's outcomes and its seed,
    so the ``n_random_trees`` trees are built and compiled once, and each is
    scored at every grid point in one batched pass of the exact evaluator,
    one lane per grid point (grid points × classes floats). Each designed
    tree is built without the level quantities that :func:`build_greedy`
    attaches, and compiled once, for its pm.
    """
    config = config or BuilderConfig()
    grid = list(grid)
    if n_random_trees < 1:
        raise ValidationError(f"random trees must be >= 1, got {n_random_trees}")
    for p_star in grid:
        if not (0.0 < p_star < 0.5):
            raise ValidationError(f"grid error prob {p_star!r} outside (0, 0.5)")
    random_forms, designed_pms = [], []
    for p_star in grid:
        tbl = table.with_scalar_error(p_star)
        designed_pms.append(exact_misclassification(_greedy_tree(tbl, config), tbl))
        if not random_forms:  # after the first designed tree: it names an inseparable pair
            random_forms = [
                _compile(build_random(tbl, seed + i), tbl) for i in range(n_random_trees)
            ]
    factors = [[1.0 - np.array(grid, dtype=np.float64)] * table.n_classes] * table.n_tests
    # per grid point, a contiguous row (as np.mean and np.std of a list read) of the trees' pms
    random_pms = np.array([_exact(form, table, factors)[0] for form in random_forms]).T.copy()
    return [
        ErrorSweepPoint(
            error_prob=float(p_star),
            designed_pm=designed_pm,
            random_mean_pm=float(np.mean(pms)),
            random_std_pm=float(np.std(pms)),
        )
        for p_star, designed_pm, pms in zip(grid, designed_pms, random_pms)
    ]


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
    seeded allocations, each evaluated exactly. Every budget, the worker
    error and the draw count are checked before any work, also when
    ``k_values`` is empty. Every allocation is a prefix count of one stream
    of test picks (:func:`_sweep_pairs`; one :func:`assign_proposed` run at
    the largest budget serves every budget), the group error is computed
    once per distinct pair count, and the tree, compiled once, is scored
    for every setting in one batched exact pass (settings × classes floats).
    """
    metric = metric or MetricConfig()
    k_values = list(k_values)
    if random_draws < 1:
        raise ValidationError(f"random draws must be >= 1, got {random_draws}")
    for budget in k_values:
        _check_budget(budget)
    _check_worker_error(worker_error)
    if not k_values:
        return []
    form = _compile(tree, table)
    tests = _tree_tests(form, table)
    log: list[AssignStep] = []
    if AssignmentStrategy.PROPOSED in strategies:
        _, log = assign_proposed(tree, table, max(k_values), worker_error, metric)
    pairs = _sweep_pairs(tests, log, k_values, strategies, seed, random_draws)
    # in the order the settings meet them, so the first count past the limit raises
    fused = {k: group_error(k, worker_error) for k in dict.fromkeys(k for r in pairs for k in r)}
    lut = np.array([fused.get(k, 0.0) for k in range(max(fused, default=0) + 1)])
    lanes = 1.0 - lut[np.array(pairs).T]  # per test, 1 - its fused error in every setting
    factors = {table.test_index(t): [lane] * table.n_classes for t, lane in zip(tests, lanes)}
    pm = _exact(form, table, factors)[0]
    points: list[WorkerSweepPoint] = []
    at = 0
    for budget in k_values:
        for strategy in strategies:  # the mean of one draw is that draw's pm
            width = random_draws if strategy is AssignmentStrategy.RANDOM_PER_PAIR else 1
            value, at = float(np.mean(pm[at : at + width])), at + width
            points.append(WorkerSweepPoint(budget=int(budget), strategy=strategy, pm=value))
    return points


def _sweep_pairs(
    tests: list[str], log: list[AssignStep], budgets: list[int], strategies, seed: int, draws: int
) -> list[list[int]]:
    """The pairs on each of ``tests`` of every allocation that
    :func:`sweep_workers` scores, one row per (budget, strategy, draw) in
    that order. The proposed allocation for budget K is the first K steps of
    ``log``; baseline draw j reads the :func:`_baseline_pairs` stream of
    ``seed + j``, and single-test and all-tests make one draw."""
    n, position = len(tests), {t: i for i, t in enumerate(tests)}
    picks = (position[step.test] for step in log)
    rows = {AssignmentStrategy.PROPOSED: [_prefix_counts(picks, n, budgets)]}
    for strategy in strategies:
        if strategy not in rows:
            width = draws if strategy is AssignmentStrategy.RANDOM_PER_PAIR else 1
            rows[strategy] = [_baseline_pairs(n, strategy, budgets, seed + j) for j in range(width)]
    return [draw[b] for b in range(len(budgets)) for s in strategies for draw in rows[s]]
