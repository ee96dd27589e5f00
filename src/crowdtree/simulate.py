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

Routing is table-driven, over states rather than nodes. A trial at an
internal node is in state ``rank * n + class``, where ``rank`` numbers the
internal nodes in preorder and ``n`` is the class count; a trial at a leaf
is in that leaf's one absorbing state, numbered after every internal
state. A node fixes its root path, so the draw counter at it (1 plus the
workers above it) is a per-node constant, and so is everything a step
reads. Per state the router holds the seated draw's ``counter *
_KEY_COUNTER``, the seated worker's threshold, and at ``2 * state +
wrong`` the next state: the child on the class's error-free outcome when
the seated answer (or the vote) is right, the other child when it is
wrong. When some group votes it also holds, per state, the node's group
size and the extra workers' threshold (the worker error's, or 0.5's on an
undefined cell). An absorbing state has threshold 0 and both next states
equal to itself, so a trial that has arrived stays.

Every trial of a chunk takes one vectorised step per tree depth, with no
loop over nodes. At step d every trial not yet at a leaf is at a depth-d
node, so the router plans each depth once. Where every depth-d node has
the same draw counter (at every depth without an allocation, and above
the first node with extra workers with one), the step hashes every trial
with that one offset and reads no per-trial counter; a trial at a leaf
hashes it too, harmlessly, as its threshold is 0. A depth with no voting
node skips the vote, and a voting root votes on whole arrays, as every
trial starts there. A trial's answers are the workers on its leaf's root
path, so the question count is the sum over leaves of arrivals times that
path's workers. There are internal nodes × classes states plus one per
leaf, at 32 bytes each, plus an 8-byte threshold and a 1-byte group size
(wider past 255 workers) when some group votes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .builder import BuilderConfig, _cells, _greedy_splits, _random_splits
from .errors import ValidationError
from .fusion import _answer_errors, _check_worker_error
from .metrics import MetricConfig, _exact, _split_pms
from .model import DecisionTree, TestTable, _compile, _tree_tests
from .workers import (
    AssignmentStrategy,
    WorkerAllocation,
    _check_budget,
    _check_pair_limit,
    _draws,
    _pair_counts,
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
        return _hash(key, np.multiply(counter, _KEY_COUNTER, dtype=np.uint64))


def _hash(key, offset) -> np.ndarray:
    """:func:`_bits` from ``offset = counter * _KEY_COUNTER`` (mod 2**64),
    which the router holds per state; every draw goes through here."""
    return _mix64(np.bitwise_xor(offset, key))


def _thresholds(error) -> np.ndarray:
    """Per error ``e`` in [0, 0.5], the uint64 ``t`` with ``x < t`` exactly
    when ``(x >> 11) * 2**-53 < e``: that is ``x >> 11 < ceil(e * 2**53)``,
    and ``e * 2**53`` is exact and at most ``2**52``. Works in place on one
    copy of ``error``: on a large table fewer temporaries mean a lower peak."""
    x = np.array(error, dtype=np.float64)
    x *= 2.0**53
    np.ceil(x, out=x)
    t = x.astype(np.uint64)
    del x
    t <<= _SH11
    return t


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
    """Per-state lookup tables and a per-depth plan for one step of every
    trial at once (see the module docstring). ``absorbing`` is the first
    leaf state; internal nodes are ranked, and leaves numbered, in preorder.
    Error probabilities are held as :func:`_thresholds`."""

    draw: np.ndarray  # per state: the seated draw's counter * _KEY_COUNTER, 0 at leaves
    seated: np.ndarray  # per state: the seated threshold; 0.5 on undefined cells, 0 at leaves
    next: np.ndarray  # at 2 * state + wrong: the next state; a leaf's state is its own
    extra: np.ndarray | None  # per state: the extra workers' threshold; None if no group votes
    group: np.ndarray | None  # per state: its node's workers, 0 at leaves; None if no group votes
    plan: tuple[tuple[np.uint64 | None, str], ...]  # per depth: (shared draw offset, voters)
    leaf_cls: np.ndarray  # per leaf: its class index
    cost: np.ndarray  # per class: the workers on its leaf's root path
    absorbing: int
    cum_priors: np.ndarray  # per class; the last is exactly 1
    guide: np.ndarray  # per guide bucket: see _guide


def _router(
    tree: DecisionTree, table: TestTable, allocation: WorkerAllocation | None
) -> _Router:
    form = _compile(tree, table)
    n = table.n_classes
    internal = [k for k, m in enumerate(form.test) if m >= 0]
    leaves = [k for k, m in enumerate(form.test) if m < 0]
    absorbing = len(internal) * n
    states = absorbing + len(leaves)
    base = np.empty(len(form.test), dtype=np.int64)  # per node: class 0's state, a leaf's only one
    base[internal] = np.arange(absorbing, step=n)
    base[leaves] = np.arange(absorbing, states)
    group = [0 if m < 0 else 1 if allocation is None else allocation.group_size(table.tests[m])
             for m in form.test]
    counter = [1] * len(form.test)  # in preorder a parent comes before its children
    for k in internal:
        counter[form.child[2 * k]] = counter[form.child[2 * k + 1]] = counter[k] + group[k]
    tests = np.array(form.test, dtype=np.int64)[internal]
    ranked = np.array(form.test) >= 0

    # per (rank, class) views of the state tables, written in place: the
    # only temporaries are thresholds of the test table's cells and
    # chunk-sized blocks of next states
    undefined = table.outcomes < 0
    cells = _thresholds(np.where(undefined, 0.5, table.errors))
    seated = np.zeros(states, dtype=np.uint64)
    np.take(cells, tests, axis=0, out=seated[:absorbing].reshape(-1, n), mode="clip")
    del cells
    draw = np.zeros(states, dtype=np.uint64)
    with np.errstate(over="ignore"):  # modular 64-bit arithmetic is intended
        draw[:absorbing].reshape(-1, n)[:] = (
            np.array(counter, dtype=np.uint64)[internal] * _KEY_COUNTER
        )[:, None]
    nxt = np.empty(2 * states, dtype=np.int64)
    pairs = nxt[: 2 * absorbing].reshape(-1, n, 2)
    child = np.array(form.child, dtype=np.int64).reshape(-1, 2)[internal]
    classes = np.arange(n, dtype=np.int64)
    step = max(1, _CHUNK_TRIALS // n)  # ranks per block: its temporaries stay chunk-sized
    for lo in range(0, len(internal), step):
        zero, one = child[lo : lo + step, 0], child[lo : lo + step, 1]
        on_zero = base[zero][:, None] + ranked[zero][:, None] * classes
        on_one = base[one][:, None] + ranked[one][:, None] * classes
        # right is the child on the error-free answer, wrong the other one
        flip = (on_one - on_zero) * (table.outcomes[tests[lo : lo + step]] == 1)
        pairs[lo : lo + step, :, 0] = on_zero + flip
        pairs[lo : lo + step, :, 1] = on_one - flip
    nxt[2 * absorbing :] = np.repeat(np.arange(absorbing, states), 2)

    # per depth: the draw counters and the largest group of its internal nodes
    counters: list[set[int]] = [set() for _ in range(max(form.depth))]
    largest = [1] * max(form.depth)
    for k in internal:
        counters[form.depth[k]].add(counter[k])
        largest[form.depth[k]] = max(largest[form.depth[k]], group[k])
    plan = []
    for d, (shared, size) in enumerate(zip(counters, largest)):
        offset = None
        if len(shared) == 1:
            offset = np.uint64(shared.pop() * int(_KEY_COUNTER) % (1 << 64))
        plan.append((offset, "none" if size == 1 else "all" if d == 0 else "some"))
    extra = sizes = None
    if max(largest) > 1:
        worker = _thresholds([allocation.worker_error, 0.5])
        extra = np.zeros(states, dtype=np.uint64)
        np.take(worker[undefined.view(np.uint8)], tests, axis=0,
                out=extra[:absorbing].reshape(-1, n), mode="clip")
        sizes = np.zeros(states, dtype=np.min_scalar_type(max(largest)))
        sizes[:absorbing].reshape(-1, n)[:] = np.array(group)[internal][:, None]
    cost = np.zeros(n, dtype=np.int64)
    cost[[form.leaf[k] for k in leaves]] = [counter[k] - 1 for k in leaves]
    cum = np.cumsum(np.asarray(table.priors, dtype=np.float64))
    cum[-1] = 1.0
    return _Router(
        draw=draw,
        seated=seated,
        next=nxt,
        extra=extra,
        group=sizes,
        plan=tuple(plan),
        leaf_cls=np.array(form.leaf, dtype=np.int64)[leaves],
        cost=cost,
        absorbing=absorbing,
        cum_priors=cum,
        guide=_guide(cum),
    )


def _run_range(start: int, stop: int, seed: np.uint64, router: _Router) -> np.ndarray:
    """Simulate the non-empty trials [start, stop); returns the confusion
    counts, summed into the first chunk's."""
    confusion = _run_chunk(start, min(start + _CHUNK_TRIALS, stop), seed, router)
    for lo in range(start + _CHUNK_TRIALS, stop, _CHUNK_TRIALS):
        confusion += _run_chunk(lo, min(lo + _CHUNK_TRIALS, stop), seed, router)
    return confusion


def _run_chunk(lo: int, hi: int, seed: np.uint64, r: _Router) -> np.ndarray:
    """Simulate the chunk of trials [lo, hi) in one whole-chunk step per
    tree depth; returns the confusion counts.

    Draw 0 picks the class, and the class is the trial's state at the root.
    A trial already in an absorbing state draws a number it cannot fall
    below and stays, so no trial is masked. Draw ``counter`` of a trial is
    finished from the trial's key, hashed once per chunk, and the counter
    at a node is the same for every trial there, so draw k of trial t goes
    to the same node and worker whatever the chunk or lane. Each chunk and
    step runs in its own call, so that its temporaries are freed before the
    next one allocates.
    """
    key = _trial_key(seed, np.arange(lo, hi, dtype=np.uint64))
    cls = _classes(_bits(key, np.uint64(0)), r.cum_priors, r.guide)
    state = cls  # the root is internal node 0: a trial's state there is its class
    for offset, voters in r.plan:
        state = _step(r, offset, voters, key, state)
    assert (state >= r.absorbing).all(), "trial stuck above a leaf"
    n = len(r.cum_priors)
    leaf = r.leaf_cls[state - r.absorbing]
    return np.bincount(cls * n + leaf, minlength=n * n).reshape(n, n)


def _step(
    r: _Router, offset: np.uint64 | None, voters: str, key: np.ndarray, state: np.ndarray
) -> np.ndarray:
    """Every trial's next state, at a depth of ``r.plan``: the draw offset
    its nodes share (None if they differ) and which of its trials vote:
    "none", "some" (those whose group has extra workers) or "all" (at a
    voting root, where every trial is)."""
    if offset is None:
        offset = r.draw.take(state)
    wrong = _hash(key, offset) < r.seated.take(state)
    if voters == "all":  # every trial is at the root
        wrong = _majority_wrong(key, offset, r.extra.take(state), r.group.take(state), wrong)
    elif voters == "some":
        group = r.group.take(state)
        at = np.flatnonzero(group > 1)
        if at.size:
            wrong[at] = _majority_wrong(
                key[at],
                offset if offset.ndim == 0 else offset[at],
                r.extra.take(state[at]),
                group[at],
                wrong[at],
            )
    at = state << 1
    at += wrong
    return r.next.take(at)


def _majority_wrong(
    key: np.ndarray,
    offset: np.ndarray | np.uint64,
    threshold: np.ndarray,
    group: np.ndarray,
    seated_wrong: np.ndarray,
) -> np.ndarray:
    """Whether more than half of each group answers wrong, given its seated
    worker's answer. A group's size is odd and above 1; the seated draw is
    at ``offset``, one per voter or one for all, and extra worker j errs
    when the draw at ``offset + j * _KEY_COUNTER`` (draw ``counter + j``)
    falls below ``threshold``. The voters' arrays are narrowed only when
    some group has no more workers, and they are consumed: an ``offset``
    array is advanced in place."""
    largest = int(group.max())
    n_wrong = seated_wrong.astype(np.min_scalar_type(largest))
    voting = None  # positions still drawing; None while all are
    size = group
    with np.errstate(over="ignore"):  # modular 64-bit arithmetic is intended
        for j in range(1, largest):
            if size.min() <= j:
                keep = np.flatnonzero(size > j)
                voting = keep if voting is None else voting[keep]
                key, threshold, size = key[keep], threshold[keep], size[keep]
                if offset.ndim:
                    offset = offset[keep]
            offset += _KEY_COUNTER  # worker j's draw is counter + j
            if voting is None:
                n_wrong += _hash(key, offset) < threshold
            else:
                n_wrong[voting] += _hash(key, offset) < threshold
    return n_wrong > group >> 1


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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    # one trial range per lane, up to the CPUs: a range past them costs a chunk and gains nothing
    n_ranges = min(lanes, _usable_cpus())
    bounds = [trials * i // n_ranges for i in range(n_ranges + 1)]
    ranges = [(bounds[i], bounds[i + 1]) for i in range(n_ranges) if bounds[i] < bounds[i + 1]]
    if len(ranges) <= 1:
        results = [_run_range(a, b, seed_u, router) for a, b in ranges]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            results = list(
                pool.map(lambda r: _run_range(*r, seed_u, router), ranges)
            )
    confusion = results[0]
    for counts in results[1:]:
        confusion += counts
    questions = int(confusion.sum(axis=0) @ router.cost)  # arrivals times path workers
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
    built. No tree depends on the grid point: a random tree depends only on
    the table's outcomes and its seed, and under one scalar error the greedy
    choice takes each block's least-h test, lowest index on equal h (see
    :mod:`crowdtree.builder`). So the designed tree is built once, at the
    largest grid error, where no mass can underflow to 0 unless it does at
    every grid point; then the ``n_random_trees`` trees from the same table
    cells, made once for both builders. No tree is assembled: each stays
    the builder's levels of splits, and every tree is scored at every grid
    point at once, one lane per grid point (trees × classes × grid points
    floats). Under one scalar error every cell carries the same factor, so
    a class's survival depends only on how many splits it passes
    (:func:`crowdtree.metrics._split_pms`), with the bits of the exact
    evaluator on the assembled tree.
    """
    config = config or BuilderConfig()
    grid = list(grid)
    if n_random_trees < 1:
        raise ValidationError(f"random trees must be >= 1, got {n_random_trees}")
    for p_star in grid:
        if not (0.0 < p_star < 0.5):
            raise ValidationError(f"grid error prob {p_star!r} outside (0, 0.5)")
    if not grid:
        return []
    tbl = table.with_scalar_error(max(grid))
    cells = _cells(tbl, config.metric.kind)
    trees = [_greedy_splits(tbl, config, cells)]  # first: it names an inseparable pair
    trees += [_random_splits(tbl, seed + i, cells) for i in range(n_random_trees)]
    pms = _split_pms(trees, table.priors, 1.0 - np.array(grid, dtype=np.float64))
    # per grid point a contiguous row of the random pms, each reduced pairwise as a list would be
    random_pms = pms[1:].T.copy()
    return [
        ErrorSweepPoint(error_prob=float(p_star), designed_pm=d, random_mean_pm=m, random_std_pm=s)
        for p_star, d, m, s in zip(
            grid,
            pms[0].tolist(),
            np.mean(random_pms, axis=1).tolist(),
            np.std(random_pms, axis=1).tolist(),
        )
    ]


@dataclass(frozen=True)
class WorkerSweepPoint:
    budget: int
    strategy: AssignmentStrategy
    pm: float


_MAX_SWEEP_PAIRS = 1 << 23  # the pair counts a sweep holds at once, 64 MiB as int64


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
    ``k_values`` is empty, and then the tree against ``table``. Every
    allocation is a prefix count of one stream of test picks, and all of
    them are held as one (settings × tests) int array
    (:func:`crowdtree.workers._pair_counts`; one :func:`assign_proposed`
    run at the largest budget serves every budget). A budget above the
    exact pair limit times the tree's test count raises before any
    allocation is made, since every strategy puts more than the limit on
    some test; the first such budget in the given order is named. So does
    a sweep whose (settings × tests) array would hold more than
    ``_MAX_SWEEP_PAIRS`` pair counts. Otherwise a pair count past the
    exact limit raises before any group error is computed: the first one
    the settings meet, budget by budget in the given order. Each test's
    answer error in every setting comes from one
    :func:`crowdtree.fusion._answer_errors` call (settings × tests floats),
    the tree, compiled once, is scored for every setting in one batched
    exact pass (settings × classes floats), and each strategy's draws are
    averaged in one reduction per strategy.
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
    _check_pair_limit(tree, table, k_values)
    form = _compile(tree, table)
    tests = _tree_tests(form)
    settings = sum(_draws(strategy, random_draws) for strategy in strategies)
    if len(k_values) * settings * len(tests) > _MAX_SWEEP_PAIRS:
        raise ValidationError(
            f"{len(k_values)} budgets x {settings} allocations x {len(tests)} tests make more "
            f"than {_MAX_SWEEP_PAIRS} pair counts; use fewer budgets or random draws"
        )
    proposed = None
    if AssignmentStrategy.PROPOSED in strategies:
        _, log = assign_proposed(tree, table, max(k_values), worker_error, metric)
        position = {table.tests[m]: i for i, m in enumerate(tests)}
        proposed = [position[step.test] for step in log]
    pairs = _pair_counts(len(tests), proposed, k_values, strategies, seed, random_draws)
    wrong = _answer_errors(table.errors[tests], pairs, worker_error)[..., 0]
    lanes = np.subtract(1.0, wrong.T, order="C")  # per test, 1 - its answer's error per setting
    factors = {m: [lane] * table.n_classes for m, lane in zip(tests, lanes)}
    pm = _exact(form.levels, table, factors)[0].reshape(len(k_values), -1)
    ends = np.cumsum([_draws(strategy, random_draws) for strategy in strategies])
    means = [np.mean(block, axis=1).tolist() for block in np.split(pm, ends, axis=1)[:-1]]
    return [
        WorkerSweepPoint(budget=int(budget), strategy=strategy, pm=column[b])
        for b, budget in enumerate(k_values)
        for strategy, column in zip(strategies, means)
    ]
