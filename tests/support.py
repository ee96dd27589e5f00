"""Shared helpers: independent oracles and a seeded random-instance generator.

Oracles here deliberately re-derive quantities through a different route
than the library (joint-probability entropy, explicit vote enumeration,
closed-form path survival) so tests cross-check rather than echo.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

from crowdtree import DecisionTree, Leaf, TestTable, validate_table
from crowdtree.builder import BuilderConfig, build_greedy, build_random
from crowdtree.errors import (
    DuplicateIdentifier,
    ErrorProbOutOfRange,
    InapplicableTest,
    InseparableClasses,
    NonPositivePrior,
    ParseError,
    PriorSumMismatch,
    UselessTest,
    ValidationError,
)
from crowdtree.fusion import group_error
from crowdtree.metrics import (
    Metric,
    MetricConfig,
    _entropy_term,
    exact_misclassification,
    level_correct_mass,
    level_entropy,
    level_error_mass,
    metric_additive,
    metric_multiplicative,
)
from crowdtree.model import (
    Internal,
    LevelStep,
    _checked_table,
    applicable_tests,
    level_trace,
    refine_partition,
    split_block,
)
from crowdtree.simulate import ErrorSweepPoint, SimulationReport, WorkerSweepPoint
from crowdtree.workers import (
    AssignmentStrategy,
    AssignStep,
    WorkerAllocation,
    assign_baseline,
    assign_proposed,
    effective_table,
)


def entropy_oracle(priors, partition) -> float:
    """Joint-form conditional entropy: -sum p(class) log2 p(class | block)."""
    total = 0.0
    for block in partition:
        mass = sum(priors[i] for i in block)
        for i in block:
            total -= priors[i] * math.log2(priors[i] / mass)
    return total


def path_survival_pm(priors, error_lists) -> float:
    """Closed-form misclassification from per-class error-probability lists."""
    total = 0.0
    for p, errs in zip(priors, error_lists):
        alive = 1.0
        for e in errs:
            alive *= 1.0 - e
        total += p * (1.0 - alive)
    return total


def vote_enumeration_group_error(extra_pairs: int, worker_error: float) -> float:
    """Group error by enumerating every vote pattern of 2k+1 workers."""
    n = 2 * extra_pairs + 1
    total = 0.0
    for pattern in itertools.product((False, True), repeat=n):  # True = correct
        prob = 1.0
        for correct in pattern:
            prob *= (1.0 - worker_error) if correct else worker_error
        if sum(pattern) <= extra_pairs:
            total += prob
    return total


def comb_group_errors(extra_pairs: int, worker_errors: Sequence[float]) -> list[float]:
    """Per worker error, the group error summed with ``math.comb`` for every
    coefficient (each coefficient is computed once and used for every error)."""
    n = 2 * extra_pairs + 1
    coeffs = [math.comb(n, j) for j in range(extra_pairs + 1)]
    return [
        math.fsum(c * (1.0 - w) ** j * w ** (n - j) for j, c in enumerate(coeffs))
        for w in worker_errors
    ]


def tree_paths(tree: DecisionTree) -> dict[str, list[tuple[str, int]]]:
    """Class -> list of (test, outcome) pairs, walked independently."""
    paths: dict[str, list[tuple[str, int]]] = {}

    def walk(node, prefix):
        if isinstance(node, Leaf):
            paths[node.label] = prefix
        else:
            walk(node.zero, prefix + [(node.test, 0)])
            walk(node.one, prefix + [(node.test, 1)])

    walk(tree.root, [])
    return paths


def random_table(
    seed: int,
    max_classes: int = 6,
    max_tests: int = 8,
    max_error: float = 0.2,
    cell_errors: bool = False,
    na_prob: float = 0.12,
) -> TestTable:
    """Seeded random valid, separable instance (greedy construction succeeds)."""
    rng = random.Random(seed)
    for _ in range(500):
        n = rng.randint(2, max_classes)
        m = rng.randint(1, max_tests)
        raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
        total = sum(raw)
        priors = [v / total for v in raw]
        rows = []
        ok = True
        for _ in range(m):
            for _ in range(50):
                row = [
                    None if rng.random() < na_prob else rng.randint(0, 1)
                    for _ in range(n)
                ]
                defined = [v for v in row if v is not None]
                if 0 in defined and 1 in defined:
                    rows.append(row)
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        if cell_errors:
            errors = [[rng.uniform(0.005, max_error) for _ in range(n)] for _ in range(m)]
        else:
            errors = rng.uniform(0.005, max_error)
        table = validate_table(
            [f"c{i}" for i in range(1, n + 1)],
            priors,
            [f"T{j}" for j in range(1, m + 1)],
            rows,
            errors,
        )
        try:
            build_greedy(table)
        except InseparableClasses:
            continue
        return table
    raise AssertionError(f"no separable instance found for seed {seed}")



def wide_table(n_classes: int, seed: int) -> TestTable:
    """Seeded instance of ``n_classes`` classes and 1.5 times as many tests,
    with per-cell errors and 20% undefined cells in every odd-numbered test
    (about 10% overall); every class pair differs on some fully defined
    test, so greedy construction succeeds."""
    rng = np.random.default_rng([seed, n_classes])
    n_tests = round(1.5 * n_classes)
    while True:
        out = rng.integers(0, 2, size=(n_tests, n_classes)).astype(np.int8)
        out[1::2][rng.random((n_tests // 2, n_classes)) < 0.2] = -1
        full = out[(out >= 0).all(axis=1)]
        useful = ((out == 0).any(axis=1) & (out == 1).any(axis=1)).all()
        if useful and len({full[:, i].tobytes() for i in range(n_classes)}) == n_classes:
            break
    priors = rng.gamma(2.0, size=n_classes)
    return validate_table(
        [f"c{i}" for i in range(1, n_classes + 1)],
        (priors / priors.sum()).tolist(),
        [f"T{m}" for m in range(1, n_tests + 1)],
        [[None if v < 0 else v for v in row] for row in out.tolist()],
        rng.uniform(0.02, 0.08, size=(n_tests, n_classes)).tolist(),
    )

# ---------------------------------------------------------------------------
# Reference implementations that recompute everything per class, per trial
# pair, per budget, per grid point, per tree node and per table cell. Each
# gives the library's result bit for bit, so equivalence tests compare with
# ``==``.


class PathStep(NamedTuple):
    test: str
    outcome: int
    error_prob: float


def class_path(tree: DecisionTree, table: TestTable, class_id: str) -> list[PathStep]:
    """Root-to-leaf tests an error-free object of ``class_id`` traverses."""
    i = table.class_index(class_id)
    node = tree.root
    path: list[PathStep] = []
    while isinstance(node, Internal):
        out = table.outcome(node.test, class_id)
        if out is None:
            raise InapplicableTest(
                f"test {node.test!r} undefined for class {class_id!r}"
            )
        path.append(PathStep(node.test, out, float(table.errors[table.test_index(node.test), i])))
        node = node.one if out else node.zero
    if node.label != class_id:
        raise ValidationError(
            f"path for {class_id!r} ends at leaf {node.label!r}; tree inconsistent with table"
        )
    return path


def class_path_survival(tree: DecisionTree, table: TestTable) -> list[float]:
    """Per class, the root-to-leaf product of ``1 - e`` along its class_path."""
    out = []
    for class_id in table.classes:
        survive = 1.0
        for step in class_path(tree, table, class_id):
            survive *= 1.0 - step.error_prob
        out.append(survive)
    return out


def class_path_pm(tree: DecisionTree, table: TestTable) -> float:
    total = 0.0
    for p, survive in zip(table.priors, class_path_survival(tree, table)):
        total += p * (1.0 - survive)
    return total


def class_path_pc(tree: DecisionTree, table: TestTable) -> float:
    total = 0.0
    for p, survive in zip(table.priors, class_path_survival(tree, table)):
        total += p * survive
    return total


def fraction_pm(tree: DecisionTree, table: TestTable) -> Fraction:
    """``exact_misclassification``'s model value on the table's own float
    priors and errors, in exact rational arithmetic: no step rounds."""
    total = Fraction(0)
    for p, class_id in zip(table.priors, table.classes):
        survive = Fraction(1)
        for step in class_path(tree, table, class_id):
            survive *= 1 - Fraction(step.error_prob)
        total += Fraction(p) * (1 - survive)
    return total


VOTE_ENUMERATION_MAX_VOTERS = 9  # groups up to 4 pairs: at most 2**9 answer patterns per node


class VoteEnumeration(NamedTuple):
    confusion: list[list[Fraction]]  # [i][j]: P(an object of class i ends at class j's leaf)
    pm: Fraction  # sum over classes of prior times the chance of another class's leaf
    questions: list[Fraction]  # [i]: the expected worker answers an object of class i costs


def majority_wrong_fraction(
    seated: Fraction, extra_pairs: int, worker: Fraction, max_voters: int
) -> Fraction:
    """The chance that more than half of a group answers wrong, when its
    seated worker errs with ``seated`` and its ``2 * extra_pairs`` extra
    workers each with ``worker``.

    Up to ``max_voters`` voters, every answer pattern is enumerated: bit 0
    is the seated worker, each other bit an extra worker, a set bit a wrong
    answer. Past it, the extra workers' wrong count j is summed with its
    binomial count: the majority is wrong when j + (seated wrong) > k."""
    k = extra_pairs
    n = 2 * k + 1
    # extra[j]: the chance of one given answer pattern of the extra workers with j wrong
    extra = [worker**j * (1 - worker) ** (2 * k - j) for j in range(2 * k + 1)]
    if n <= max_voters:
        total = Fraction(0)
        for pattern in range(1 << n):
            if bin(pattern).count("1") > k:
                first = seated if pattern & 1 else 1 - seated
                total += first * extra[bin(pattern >> 1).count("1")]
        return total
    tail = [sum(math.comb(2 * k, j) * extra[j] for j in range(lo, 2 * k + 1)) for lo in (k, k + 1)]
    return seated * tail[0] + (1 - seated) * tail[1]


def vote_enumeration(tree: DecisionTree, table: TestTable, allocation=None) -> VoteEnumeration:
    """The simulator's model in exact rational arithmetic on the float
    inputs: per class, walk every root path the object can take. At a node
    the seated worker errs at the cell's error and the node's ``2k`` extra
    workers at the allocation's worker error (k = 0 without an allocation);
    a wrong majority sends the object to the child its class's outcome does
    not name. A cell undefined for the class sends it to each child with
    probability 1/2, as a group of fair coins votes. An object's answers
    are the group sizes of the nodes it visits, weighted by the chance of
    each visit."""
    n = table.n_classes
    worker = Fraction(0 if allocation is None else allocation.worker_error)  # no voter at 0 pairs
    wrong_of: dict[tuple, Fraction] = {}  # by (seated error, pairs)
    confusion = [[Fraction(0)] * n for _ in range(n)]
    questions = [Fraction(0)] * n

    def walk(i: int, node, mass: Fraction) -> None:
        if isinstance(node, Leaf):
            confusion[i][table.class_index(node.label)] += mass
            return
        m = table.test_index(node.test)
        outcome = int(table.outcomes[m, i])
        pairs = 0 if allocation is None else allocation.pairs_for(node.test)
        questions[i] += mass * (2 * pairs + 1)
        if outcome < 0:
            wrong = Fraction(1, 2)
        else:
            key = (float(table.errors[m, i]), pairs)
            if key not in wrong_of:
                wrong_of[key] = majority_wrong_fraction(
                    Fraction(key[0]), key[1], worker, VOTE_ENUMERATION_MAX_VOTERS
                )
            wrong = wrong_of[key]
        right, other = (node.one, node.zero) if outcome == 1 else (node.zero, node.one)
        walk(i, right, mass * (1 - wrong))
        walk(i, other, mass * wrong)

    for i in range(n):
        walk(i, tree.root, Fraction(1))
    pm = sum(Fraction(p) * (1 - confusion[i][i]) for i, p in enumerate(table.priors))
    return VoteEnumeration(confusion, pm, questions)


def survivals_per_setting(form, table: TestTable, fused=None) -> list[float]:
    """One error setting's survivals on a compiled tree: per class, in class
    order, the root-to-leaf product of ``1 - e`` as floats, reading each cell
    from the table, or from ``fused``, which maps a test index to one error
    for every cell of that test."""
    survive = [1.0] * table.n_classes
    error = table.errors.item
    fused = fused or {}
    for m, block in zip(form.test, form.block):
        if m in fused:
            q = 1.0 - fused[m]
            for i in block:
                survive[i] *= q
        elif m >= 0:
            for i in block:
                survive[i] *= 1.0 - error(m, i)
    return survive


def exact_per_setting(form, table: TestTable, fused=None) -> tuple[float, float]:
    """(pm, pc) of one error setting, each its own class-order float sum."""
    pm = pc = 0.0
    for p, survive in zip(table.priors, survivals_per_setting(form, table, fused)):
        pm += p * (1.0 - survive)
        pc += p * survive
    return pm, pc


def fused_rebuild_assign(
    tree: DecisionTree,
    table: TestTable,
    budget: int,
    worker_error: float,
    metric: MetricConfig | None = None,
) -> tuple[WorkerAllocation, list[AssignStep]]:
    """The greedy pair allocation, scoring every trial pair on a whole fused
    table rebuilt with ``with_test_errors``."""
    metric = metric or MetricConfig()
    steps = level_trace(tree, table)
    present = set(tree.test_ids())
    pairs = {t: 0 for t in table.tests if t in present}
    log: list[AssignStep] = []

    def level_metric(step_idx, trial_pairs):
        fused = table.with_test_errors(
            {t: group_error(k, worker_error) for t, k in trial_pairs.items()}
        )
        step = steps[step_idx]
        h_before = level_entropy(table.priors, step.before)
        h_after = level_entropy(table.priors, step.after)
        if metric.kind is Metric.ADDITIVE:
            return metric_additive(
                h_before - h_after, level_error_mass(fused, step.before, step.assignment)
            )
        return metric_multiplicative(
            h_before,
            h_after,
            level_correct_mass(fused, step.before, step.assignment),
            metric.ratio_offset,
        )

    for iteration in range(1, budget + 1):
        values = [level_metric(d, pairs) for d in range(len(steps))]
        sign = 1 if metric.kind is Metric.ADDITIVE else -1
        target = min(range(len(values)), key=lambda d: (sign * values[d], d))
        best_test, best_value = None, 0.0
        for test_id in sorted(set(steps[target].assignment.values()), key=table.tests.index):
            value = level_metric(target, {**pairs, test_id: pairs[test_id] + 1})
            if best_test is None or sign * value > sign * best_value:
                best_test, best_value = test_id, value
        pairs[best_test] += 1
        log.append(
            AssignStep(
                iteration=iteration,
                level=target + 1,
                test=best_test,
                metric_before=values[target],
                metric_after=best_value,
                pairs_after=pairs[best_test],
                effective_error_after=group_error(pairs[best_test], worker_error),
            )
        )
    allocation = WorkerAllocation(
        extra_pairs=pairs, worker_error=worker_error, strategy=AssignmentStrategy.PROPOSED
    )
    return allocation, log


def subtree_rebuild_allocation_cost(tree, table, allocation) -> tuple[float, int]:
    """allocation_cost with each node's zero-side mass summed over the leaf
    labels of a subtree rebuilt at that node."""
    expected = 0.0

    def walk(node, mass):
        nonlocal expected
        if isinstance(node, Leaf):
            return
        expected += mass * allocation.group_size(node.test)
        labels = DecisionTree(node.zero).leaf_labels()
        zero_mass = math.fsum(table.priors[table.class_index(lbl)] for lbl in labels)
        walk(node.zero, zero_mass)
        walk(node.one, mass - zero_mass)

    walk(tree.root, math.fsum(table.priors))
    return expected, sum(2 * k + 1 for k in allocation.extra_pairs.values())


def per_budget_sweep_workers(
    tree, table, k_values, strategies, worker_error, seed=0, random_draws=50, metric=None
) -> list[WorkerSweepPoint]:
    """The worker sweep with one fresh allocation per budget and strategy."""
    points = []
    for budget in k_values:
        for strategy in strategies:
            if strategy is AssignmentStrategy.PROPOSED:
                allocations = [assign_proposed(tree, table, budget, worker_error, metric)[0]]
            elif strategy is AssignmentStrategy.RANDOM_PER_PAIR:
                allocations = [
                    assign_baseline(tree, table, strategy, budget, worker_error, seed=seed + j)
                    for j in range(random_draws)
                ]
            else:
                allocations = [
                    assign_baseline(tree, table, strategy, budget, worker_error, seed=seed)
                ]
            pms = [
                exact_misclassification(tree, effective_table(table, a)) for a in allocations
            ]
            pm = float(np.mean(pms)) if strategy is AssignmentStrategy.RANDOM_PER_PAIR else pms[0]
            points.append(WorkerSweepPoint(budget=int(budget), strategy=strategy, pm=pm))
    return points


def baseline_pairs_lists(
    n_tests: int, strategy: AssignmentStrategy, budgets: Sequence[int], seed: int
) -> list[list[int]]:
    """Per budget, the baseline's pairs on each test as Python lists, read
    lazily from the ``random.Random(seed)`` stream of test picks."""
    if strategy is AssignmentStrategy.ALL_WORKERS_ALL_TESTS:
        return [[budget] * n_tests for budget in budgets]
    rng = random.Random(seed)
    picks = (rng.randrange(n_tests) for _ in itertools.count())
    if strategy is AssignmentStrategy.SINGLE_TEST:
        first = next(picks)
        return [[budget if i == first else 0 for i in range(n_tests)] for budget in budgets]
    assert strategy is AssignmentStrategy.RANDOM_PER_PAIR
    return prefix_counts_lists(picks, n_tests, budgets)


def prefix_counts_lists(picks, n_tests: int, budgets: Sequence[int]) -> list[list[int]]:
    """Per budget K, how many of the first K picks of the iterator
    ``picks`` name each test position, counted one pick at a time."""
    counts, done, at = [0] * n_tests, 0, {}
    for budget in sorted(set(budgets)):
        for i in itertools.islice(picks, budget - done):
            counts[i] += 1
        done, at[budget] = budget, counts.copy()
    return [at[budget] for budget in budgets]


def sweep_pairs_lists(tests, log, budgets, strategies, seed: int, draws: int) -> list[list[int]]:
    """The worker sweep's pair rows, one per (budget, strategy, draw), as
    Python lists."""
    n, position = len(tests), {t: i for i, t in enumerate(tests)}
    picks = (position[step.test] for step in log)
    rows = {AssignmentStrategy.PROPOSED: [prefix_counts_lists(picks, n, budgets)]}
    for strategy in strategies:
        if strategy not in rows:
            width = draws if strategy is AssignmentStrategy.RANDOM_PER_PAIR else 1
            rows[strategy] = [baseline_pairs_lists(n, strategy, budgets, seed + j)
                              for j in range(width)]
    return [draw[b] for b in range(len(budgets)) for s in strategies for draw in rows[s]]


def per_point_sweep_error(
    table, grid, n_random_trees=20, config=None, seed=0
) -> list[ErrorSweepPoint]:
    """The error sweep building every random tree anew at every grid point."""
    config = config or BuilderConfig()
    points = []
    for p_star in grid:
        tbl = table.with_scalar_error(p_star)
        designed_pm = exact_misclassification(build_greedy(tbl, config).tree, tbl)
        random_pms = [
            exact_misclassification(build_random(tbl, seed + i), tbl)
            for i in range(n_random_trees)
        ]
        points.append(
            ErrorSweepPoint(
                error_prob=float(p_star),
                designed_pm=designed_pm,
                random_mean_pm=float(np.mean(random_pms)),
                random_std_pm=float(np.std(random_pms)),
            )
        )
    return points


def applicable_tests_per_cell(table: TestTable, block) -> list[str]:
    """The tests defined on every class of ``block`` that show both outcomes
    on it, reading one outcome cell at a time."""
    result = []
    for m, test_id in enumerate(table.tests):
        values = [int(table.outcomes[m, i]) for i in block]
        if min(values) >= 0 and 0 in values and 1 in values:
            result.append(test_id)
    return result


def table_to_text_per_cell(table: TestTable) -> str:
    """The canonical structural CSV, rendered one outcome cell at a time."""
    lines = ["class," + ",".join(table.classes)]
    lines.append("prior," + ",".join(repr(p) for p in table.priors))
    for m, test_id in enumerate(table.tests):
        cells = []
        for i in range(table.n_classes):
            v = int(table.outcomes[m, i])
            cells.append("-" if v < 0 else str(v))
        lines.append(test_id + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def simulation_report_csv_per_cell(report: SimulationReport, table: TestTable) -> str:
    """The simulation report, reading the confusion matrix one cell at a time."""
    header = {
        "seed": report.seed,
        "lanes": report.lanes,
        "trials": report.trials,
        "allocation": json.dumps(report.config.get("allocation")),
    }
    lines = [f"# {key}={value}" for key, value in header.items()]
    lines.append("quantity,value")
    lines.append(f"misclassified,{report.misclassified}")
    lines.append(f"p_hat,{report.p_hat!r}")
    lines.append(f"ci_low,{report.ci_low!r}")
    lines.append(f"ci_high,{report.ci_high!r}")
    lines.append(f"mean_questions,{report.mean_questions!r}")
    lines.append("confusion,true_class,leaf_class,count")
    for i, true_id in enumerate(table.classes):
        for j, leaf_id in enumerate(table.classes):
            count = int(report.confusion[i, j])
            if count:
                lines.append(f"confusion,{true_id},{leaf_id},{count}")
    return "\n".join(lines) + "\n"


_MASK64 = (1 << 64) - 1


def _mix64_int(x: int) -> int:
    x = ((x ^ (x >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
    x = ((x ^ (x >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
    return x ^ (x >> 33)


def u01_int(seed: int, trial: int, counter: int) -> float:
    """The simulator's draw ``counter`` of trial ``trial``, in Python integers."""
    x = _mix64_int(seed ^ ((trial * 0x9E3779B97F4A7C15) & _MASK64))
    x = _mix64_int(x ^ ((counter * 0xD1B54A32D192ED03) & _MASK64))
    return (x >> 11) / 9007199254740992.0


def _mix64_np(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(33))) * np.uint64(0xFF51AFD7ED558CCD)
    x = (x ^ (x >> np.uint64(33))) * np.uint64(0xC4CEB9FE1A85EC53)
    return x ^ (x >> np.uint64(33))


def u01(seed: np.uint64, trial, counter) -> np.ndarray:
    """:func:`u01_int` vectorised: the simulator's draws as floats, from the
    float form of its generator that integer thresholds replaced."""
    with np.errstate(over="ignore"):
        key = _mix64_np(seed ^ (np.asarray(trial, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)))
        x = _mix64_np(key ^ (np.asarray(counter, dtype=np.uint64) * np.uint64(0xD1B54A32D192ED03)))
    return (x >> np.uint64(11)).astype(np.float64) / 9007199254740992.0


def per_node_simulation(
    tree: DecisionTree,
    table: TestTable,
    allocation: WorkerAllocation | None,
    trials: int,
    seed: int,
) -> tuple[np.ndarray, int]:
    """(confusion counts, question count) from a per-node router.

    At each depth it visits, one node at a time, every node that some trial
    has reached, and draws the answers of that node's whole worker group at
    once: draw ``counter + j`` is worker j's, the seated worker first. Trials
    already at a leaf are left out.
    """
    n = table.n_classes
    test_idx: list[int] = []
    child: list[list[int]] = []
    leaf_cls: list[int] = []
    group: list[int] = []

    def add(node) -> int:
        idx = len(test_idx)
        test_idx.append(-1)
        child.append([-1, -1])
        leaf_cls.append(-1)
        group.append(1)
        if isinstance(node, Leaf):
            leaf_cls[idx] = table.class_index(node.label)
        else:
            test_idx[idx] = table.test_index(node.test)
            if allocation is not None:
                group[idx] = allocation.group_size(node.test)
            child[idx] = [add(node.zero), add(node.one)]
        return idx

    add(tree.root)
    extra_error = allocation.worker_error if allocation is not None else 0.5
    cum = np.cumsum(np.asarray(table.priors, dtype=np.float64))
    cum[-1] = 1.0
    seed_u = np.uint64(seed % (1 << 64))
    trial = np.arange(trials, dtype=np.uint64)
    cls = np.searchsorted(cum, u01(seed_u, trial, np.uint64(0)), side="right")
    counter = np.ones(trials, dtype=np.uint64)
    node = np.zeros(trials, dtype=np.int64)
    asked = 0
    for _ in range(tree.depth()):
        for nid in sorted(set(node.tolist())):
            m = test_idx[nid]
            if m < 0:
                continue
            sel = np.flatnonzero(node == nid)
            k = group[nid]
            out = table.outcomes[m, cls[sel]]
            defined = out >= 0
            flip_prob = np.empty((len(sel), k))
            flip_prob[:, 0] = np.where(defined, table.errors[m, cls[sel]], 0.5)
            flip_prob[:, 1:] = np.where(defined, extra_error, 0.5)[:, None]
            draws = u01(
                seed_u,
                trial[sel][:, None],
                counter[sel][:, None] + np.arange(k, dtype=np.uint64)[None, :],
            )
            ones = ((draws < flip_prob) ^ (out == 1)[:, None]).sum(axis=1)
            node[sel] = np.where(ones > k // 2, child[nid][1], child[nid][0])
            counter[sel] += np.uint64(k)
            asked += k * len(sel)
    leaf = np.asarray(leaf_cls)[node]
    assert (leaf >= 0).all(), "trial stuck above a leaf"
    confusion = np.bincount(cls * n + leaf, minlength=n * n).reshape(n, n)
    return confusion, asked


def masses_per_class(table: TestTable, assignment) -> tuple[float, float]:
    """(error mass, correct mass) of a level as sums over every class, an
    untested class with error 0."""
    errs = [0.0] * table.n_classes
    for block, test_id in assignment.items():
        for i in block:
            errs[i] = float(table.errors[table.test_index(test_id), i])
    return (
        math.fsum(p * e for p, e in zip(table.priors, errs)),
        math.fsum(p * (1.0 - e) for p, e in zip(table.priors, errs)),
    )


def chain_table(n: int, error_prob: float = 0.01) -> TestTable:
    """n classes and n - 1 tests; test j is 1 for class j, 0 for the classes
    after it and undefined for those before, so each test splits off one
    class and every tree is a chain of depth n - 1."""
    rows = [[None] * j + [1] + [0] * (n - j - 1) for j in range(n - 1)]
    return validate_table(
        [f"c{i}" for i in range(1, n + 1)],
        [1.0 / n] * n,
        [f"T{j}" for j in range(1, n)],
        rows,
        error_prob,
    )


# ---------------------------------------------------------------------------
# The recursive tree walkers that the preorder form in ``crowdtree.model``
# replaced, kept as references for ``==`` comparisons.


def subtree_blocks_recursive(node, table: TestTable, blocks: dict) -> tuple[int, ...]:
    """Sorted class block below ``node``, stored for every node under ``id(node)``."""
    if isinstance(node, Leaf):
        block = (table.class_index(node.label),)
    else:
        zeros = subtree_blocks_recursive(node.zero, table, blocks)
        block = tuple(sorted(zeros + subtree_blocks_recursive(node.one, table, blocks)))
    blocks[id(node)] = block
    return block


def level_trace_recursive(tree: DecisionTree, table: TestTable) -> list[LevelStep]:
    blocks: dict = {}
    subtree_blocks_recursive(tree.root, table, blocks)
    frontier = [tree.root]
    steps = []
    while any(isinstance(n, Internal) for n in frontier):
        before = tuple(blocks[id(n)] for n in frontier)
        assignment = {blocks[id(n)]: n.test for n in frontier if isinstance(n, Internal)}
        nxt = []
        for node in frontier:
            nxt.extend((node.zero, node.one) if isinstance(node, Internal) else (node,))
        steps.append(LevelStep(before, assignment, tuple(blocks[id(n)] for n in nxt)))
        frontier = nxt
    return steps


def validate_tree_recursive(tree: DecisionTree, table: TestTable) -> None:
    labels = tree.leaf_labels()
    if sorted(labels) != sorted(table.classes):
        raise ValidationError(
            f"leaves {sorted(labels)} do not match classes {sorted(table.classes)}"
        )
    blocks: dict = {}
    subtree_blocks_recursive(tree.root, table, blocks)

    def walk(node, used: frozenset) -> None:
        if isinstance(node, Leaf):
            return
        if node.test in used:
            raise ValidationError(f"test {node.test!r} repeats along a path")
        zeros, ones = split_block(table, blocks[id(node)], node.test)
        if blocks[id(node.zero)] != zeros or blocks[id(node.one)] != ones:
            raise ValidationError(
                f"children of test {node.test!r} disagree with its outcomes"
            )
        walk(node.zero, used | {node.test})
        walk(node.one, used | {node.test})

    walk(tree.root, frozenset())


def router_arrays_recursive(tree: DecisionTree, table: TestTable, allocation) -> dict:
    """The simulator's routing tables (all but the class draw's), one Python
    value per state or depth, from a recursive walk: internal nodes are
    ranked and leaves numbered in the order the walk meets them, and the
    draw counter at a node is 1 plus the workers above it."""
    n = table.n_classes
    internal: list = []  # (node, counter, depth) in preorder
    leaves: list = []

    def group(node) -> int:
        return allocation.group_size(node.test) if allocation is not None else 1

    def walk(node, counter: int, depth: int) -> None:
        if isinstance(node, Leaf):
            leaves.append((node, counter))
        else:
            internal.append((node, counter, depth))
            walk(node.zero, counter + group(node), depth + 1)
            walk(node.one, counter + group(node), depth + 1)

    walk(tree.root, 1, 0)
    absorbing = len(internal) * n
    rank = {id(node): r for r, (node, _, _) in enumerate(internal)}
    number = {id(node): j for j, (node, _) in enumerate(leaves)}

    def state(node, c: int) -> int:
        return rank[id(node)] * n + c if id(node) in rank else absorbing + number[id(node)]

    def threshold(error: float) -> int:
        return math.ceil(error * 2**53) << 11

    worker_error = allocation.worker_error if allocation is not None else 0.5
    draw, seated, nxt, extra, sizes = [], [], [], [], []
    for node, counter, _ in internal:
        m = table.test_index(node.test)
        for c in range(n):
            outcome = int(table.outcomes[m, c])
            draw.append(counter * 0xD1B54A32D192ED03 & _MASK64)
            seated.append(threshold(float(table.errors[m, c]) if outcome >= 0 else 0.5))
            right, wrong = (node.one, node.zero) if outcome == 1 else (node.zero, node.one)
            nxt += [state(right, c), state(wrong, c)]
            extra.append(threshold(worker_error if outcome >= 0 else 0.5))
            sizes.append(group(node))
    for j in range(len(leaves)):
        draw.append(0)
        seated.append(0)
        nxt += [absorbing + j] * 2
        extra.append(0)
        sizes.append(0)
    cost = [0] * n
    for node, counter in leaves:
        cost[table.class_index(node.label)] = counter - 1
    plan = []
    for d in range(max(depth for _, _, depth in internal) + 1):
        at = [(counter, group(node)) for node, counter, depth in internal if depth == d]
        shared = {counter for counter, _ in at}
        offset = None
        if len(shared) == 1:
            offset = np.uint64(shared.pop() * 0xD1B54A32D192ED03 & _MASK64)
        voting = any(size > 1 for _, size in at)
        plan.append((offset, "none" if not voting else "all" if d == 0 else "some"))
    votes = any(size > 1 for size in sizes)
    return {
        "draw": np.array(draw, dtype=np.uint64),
        "seated": np.array(seated, dtype=np.uint64),
        "next": np.array(nxt, dtype=np.int64),
        "extra": np.array(extra, dtype=np.uint64) if votes else None,
        "group": np.array(sizes, dtype=np.min_scalar_type(max(sizes))) if votes else None,
        "plan": tuple(plan),
        "leaf_cls": np.array([table.class_index(node.label) for node, _ in leaves], dtype=np.int64),
        "cost": np.array(cost, dtype=np.int64),
        "absorbing": absorbing,
    }


def assemble_recursive(block, level: int, chosen: list, table: TestTable):
    """The nested nodes whose level d gives block b the test ``chosen[d][b]``."""
    if len(block) == 1:
        return Leaf(table.classes[block[0]])
    test_id = chosen[level][block]
    zeros, ones = split_block(table, block, test_id)
    return Internal(
        test_id,
        assemble_recursive(zeros, level + 1, chosen, table),
        assemble_recursive(ones, level + 1, chosen, table),
    )


# ---------------------------------------------------------------------------
# The per-cell table parser and validator that the array checks in
# ``crowdtree.fileio`` and ``crowdtree.model`` replaced, kept as references
# for bit-for-bit comparisons.


_PRIOR_EXACT_TOL = 1e-9
_PRIOR_RENORM_TOL = 1e-6


def _check_error_value(value: float) -> None:
    if not (0.0 <= value < 0.5):
        raise ErrorProbOutOfRange(f"error probability {value!r} outside [0, 0.5)")


def _check_unique(ids, what: str) -> None:
    seen = set()
    for ident in ids:
        if ident in seen:
            raise DuplicateIdentifier(f"duplicate {what} identifier {ident!r}")
        seen.add(ident)


def _split_lines(text: str) -> list[str]:
    return [line.rstrip("\r") for line in text.split("\n")]


def validate_table_per_cell(
    classes: Sequence[str],
    priors: Sequence[float],
    tests: Sequence[str],
    outcomes: Sequence[Sequence[int | None]],
    error_probs: Union[float, Sequence[Sequence[float]]] = 0.0,
) -> TestTable:
    """``model.validate_table`` as it was, one cell at a time."""
    classes = tuple(str(c) for c in classes)
    tests = tuple(str(t) for t in tests)
    if len(classes) < 2:
        raise ValidationError("need at least two classes")
    _check_unique(classes, "class")
    _check_unique(tests, "test")

    if len(priors) != len(classes):
        raise ValidationError(
            f"expected {len(classes)} priors, got {len(priors)}"
        )
    priors = tuple(float(p) for p in priors)
    for class_id, p in zip(classes, priors):
        if not (0.0 < p <= 1.0) or math.isnan(p):
            raise NonPositivePrior(f"prior for {class_id!r} is {p!r}, must be in (0, 1]")
    total = math.fsum(priors)
    if abs(total - 1.0) > _PRIOR_RENORM_TOL:
        raise PriorSumMismatch(f"priors sum to {total!r}, expected 1")
    if abs(total - 1.0) > _PRIOR_EXACT_TOL or total != 1.0:
        priors = tuple(p / total for p in priors)

    if len(outcomes) != len(tests):
        raise ValidationError(f"expected {len(tests)} outcome rows, got {len(outcomes)}")
    out = np.full((len(tests), len(classes)), -1, dtype=np.int8)
    for m, (test_id, row) in enumerate(zip(tests, outcomes)):
        if len(row) != len(classes):
            raise ValidationError(
                f"test {test_id!r}: expected {len(classes)} outcomes, got {len(row)}"
            )
        for i, entry in enumerate(row):
            if entry is None:
                continue
            if entry not in (0, 1):
                raise ValidationError(
                    f"test {test_id!r}: outcome for {classes[i]!r} is {entry!r}"
                )
            out[m, i] = entry
        if not ((out[m] == 0).any() and (out[m] == 1).any()):
            raise UselessTest(
                f"test {test_id!r} never produces both outcomes, it cannot split"
            )

    if isinstance(error_probs, (int, float)):
        _check_error_value(float(error_probs))
        errs = np.where(out >= 0, float(error_probs), np.nan)
    else:
        if len(error_probs) != len(tests):
            raise ValidationError(
                f"expected {len(tests)} error rows, got {len(error_probs)}"
            )
        errs = np.full(out.shape, np.nan)
        for m, row in enumerate(error_probs):
            if len(row) != len(classes):
                raise ValidationError(
                    f"test {tests[m]!r}: expected {len(classes)} error entries"
                )
            for i, value in enumerate(row):
                if out[m, i] < 0:
                    continue  # undefined cells carry no error model
                _check_error_value(float(value))
                errs[m, i] = float(value)
    return TestTable(classes, priors, tests, out, errs)


def parse_table_text_per_cell(
    text: str,
    error_prob: float | None = None,
    error_matrix_text: str | None = None,
) -> TestTable:
    """``fileio.parse_table_text`` as it was, one cell at a time."""
    lines = _split_lines(text)
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise ParseError("expected 'class,<id>,...' with at least two classes", 1)
    head = lines[0].split(",")
    if head[0] != "class" or len(head) < 3:
        raise ParseError("expected 'class,<id>,...' with at least two classes", 1)
    classes = head[1:]
    if len(lines) < 2 or lines[1].split(",")[0] != "prior":
        raise ParseError("expected 'prior,<p>,...'", 2)
    prior_row = lines[1].split(",")
    if len(lines) < 3:
        raise ParseError("table needs at least one test row", 3)
    if len(prior_row) != len(head):
        raise ParseError(f"expected {len(classes)} priors, got {len(prior_row) - 1}", 2)
    try:
        priors = [float(v) for v in prior_row[1:]]
    except ValueError as exc:
        raise ParseError(f"bad prior value: {exc}", 2) from None
    tests: list[str] = []
    outcomes: list[list[int | None]] = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            raise ParseError("blank line inside table", lineno)
        row = line.split(",")
        if len(row) != len(head):
            raise ParseError(f"expected {len(classes)} outcomes, got {len(row) - 1}", lineno)
        tests.append(row[0])
        parsed: list[int | None] = []
        for value in row[1:]:
            if value == "-":
                parsed.append(None)
            elif value in ("0", "1"):
                parsed.append(int(value))
            else:
                raise ParseError(f"outcome must be 0, 1 or '-', got {value!r}", lineno)
        outcomes.append(parsed)

    if error_matrix_text is not None:
        if error_prob is not None:
            raise ValidationError("give either a scalar error or a matrix, not both")
        matrix = _parse_error_matrix_per_cell(error_matrix_text, classes, tests)
        return validate_table_per_cell(classes, priors, tests, outcomes, matrix)
    return validate_table_per_cell(
        classes, priors, tests, outcomes, 0.0 if error_prob is None else error_prob
    )


def _parse_error_matrix_per_cell(
    text: str, classes: Sequence[str], tests: Sequence[str]
) -> list[list[float]]:
    lines = _split_lines(text)
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise ParseError("empty error matrix", 1)
    head = lines[0].split(",")
    if head[0] != "class" or head[1:] != list(classes):
        raise ParseError("error matrix header must list the table's classes", 1)
    rows: dict[str, list[float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        row = line.split(",")
        if len(row) != len(head):
            raise ParseError(f"expected {len(classes)} error entries", lineno)
        if row[0] in rows:
            raise ParseError(f"duplicate error row for test {row[0]!r}", lineno)
        if row[0] not in tests:
            raise ParseError(f"error row for unknown test {row[0]!r}", lineno)
        try:
            rows[row[0]] = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ParseError(f"bad error value: {exc}", lineno) from None
    missing = [t for t in tests if t not in rows]
    if missing:
        raise ParseError(f"no error row for tests {missing}")
    return [rows[t] for t in tests]


def parse_table_text_per_row(
    text: str,
    error_prob: float | None = None,
    error_matrix_text: str | None = None,
) -> TestTable:
    """``fileio.parse_table_text`` as it was before its whole-array passes:
    one dict lookup per outcome cell and one list of floats per error row."""
    lines = _split_lines(text)
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise ParseError("expected 'class,<id>,...' with at least two classes", 1)
    head = lines[0].split(",")
    if head[0] != "class" or len(head) < 3:
        raise ParseError("expected 'class,<id>,...' with at least two classes", 1)
    classes = head[1:]
    if len(lines) < 2 or lines[1].split(",")[0] != "prior":
        raise ParseError("expected 'prior,<p>,...'", 2)
    prior_row = lines[1].split(",")
    if len(lines) < 3:
        raise ParseError("table needs at least one test row", 3)
    if len(prior_row) != len(head):
        raise ParseError(f"expected {len(classes)} priors, got {len(prior_row) - 1}", 2)
    try:
        priors = [float(v) for v in prior_row[1:]]
    except ValueError as exc:
        raise ParseError(f"bad prior value: {exc}", 2) from None
    tests: list[str] = []
    codes: list[list[int]] = []
    code = {"-": -1, "0": 0, "1": 1}.__getitem__
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            raise ParseError("blank line inside table", lineno)
        row = line.split(",")
        if len(row) != len(head):
            raise ParseError(f"expected {len(classes)} outcomes, got {len(row) - 1}", lineno)
        tests.append(row[0])
        try:
            codes.append(list(map(code, row[1:])))
        except KeyError as exc:
            raise ParseError(
                f"outcome must be 0, 1 or '-', got {exc.args[0]!r}", lineno
            ) from None
    outcomes = np.array(codes, dtype=np.int8)

    if error_matrix_text is not None:
        if error_prob is not None:
            raise ValidationError("give either a scalar error or a matrix, not both")
        errors = _parse_error_matrix_per_row(error_matrix_text, classes, tests)
    else:
        errors = 0.0 if error_prob is None else error_prob
    return _checked_table(tuple(classes), priors, tuple(tests), outcomes, errors)


def _parse_error_matrix_per_row(
    text: str, classes: Sequence[str], tests: Sequence[str]
) -> np.ndarray:
    lines = _split_lines(text)
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise ParseError("empty error matrix", 1)
    head = lines[0].split(",")
    if head[0] != "class" or head[1:] != list(classes):
        raise ParseError("error matrix header must list the table's classes", 1)
    known = set(tests)
    rows: dict[str, list[float]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        row = line.split(",")
        if len(row) != len(head):
            raise ParseError(f"expected {len(classes)} error entries", lineno)
        if row[0] in rows:
            raise ParseError(f"duplicate error row for test {row[0]!r}", lineno)
        if row[0] not in known:
            raise ParseError(f"error row for unknown test {row[0]!r}", lineno)
        try:
            rows[row[0]] = list(map(float, row[1:]))
        except ValueError as exc:
            raise ParseError(f"bad error value: {exc}", lineno) from None
    missing = [t for t in tests if t not in rows]
    if missing:
        raise ParseError(f"no error row for tests {missing}")
    return np.array([rows[t] for t in tests], dtype=np.float64)


# ---------------------------------------------------------------------------
# The greedy builder's per-pair scoring, its cell-by-cell inseparability scan
# and the random builder's per-block test scan and double split, which
# per-build cell data and array scans in ``crowdtree.builder`` replaced, kept
# as references for ``==`` comparisons.


def level_points_per_pair(table: TestTable, partition) -> list[list[tuple]]:
    """Per open block of ``partition``, the (test, h, g, c) point of every
    applicable test, each read cell by cell."""
    points = []
    for block in (b for b in partition if len(b) > 1):
        points.append([])
        for test_id in applicable_tests(table, block):
            m = table.test_index(test_id)
            zeros, ones = split_block(table, block, test_id)
            h = (_entropy_term([table.priors[i] for i in zeros])
                 + _entropy_term([table.priors[i] for i in ones]))
            g = math.fsum(table.priors[i] * float(table.errors[m, i]) for i in block)
            c = math.fsum(table.priors[i] * (1.0 - float(table.errors[m, i])) for i in block)
            points[-1].append((m, h, g, c))
    return points


def greedy_levels_per_pair(table: TestTable, config: BuilderConfig) -> list[tuple]:
    """(level step, points) of every level of the greedy build, with the
    points of :func:`level_points_per_pair` as the builder scores them, each
    (test, h, g) under the additive metric and (test, h, c) under the
    multiplicative one, and the builder's own selectors."""
    from crowdtree import builder

    levels = []
    partition = (table.all_classes_block(),)
    additive = config.metric.kind is Metric.ADDITIVE
    while any(len(b) > 1 for b in partition):
        open_blocks = [b for b in partition if len(b) > 1]
        pts = []
        for block, block_points in zip(open_blocks, level_points_per_pair(table, partition)):
            if not block_points:
                raise inseparable_error_per_pair(table, block)
            pts.append([builder._Point(m, h, g if additive else c) for m, h, g, c in block_points])
        entropy_before = level_entropy(table.priors, partition)
        if additive:
            choice = builder._select_additive(pts, entropy_before)
        else:
            singletons = math.fsum(table.priors[b[0]] for b in partition if len(b) == 1)
            choice = builder._select_multiplicative(
                pts, entropy_before, singletons, config.metric.ratio_offset
            )
        assignment = {b: table.tests[p.test] for b, p in zip(open_blocks, choice)}
        after = refine_partition(table, partition, assignment)
        levels.append((LevelStep(partition, assignment, after), pts))
        partition = after
    return levels


def level_choice_per_point(table: TestTable, cells, config: BuilderConfig, partition) -> dict:
    """The greedy level choice, test index per open block, from every point
    of ``builder._block_points`` and the builder's own selectors, with no
    screen: what each level chose before the screen."""
    from crowdtree import builder

    open_blocks = [b for b in partition if len(b) > 1]
    points = []
    for block in open_blocks:
        points.append(builder._block_points(cells, block, builder._applicable(cells, block)))
        if not points[-1]:
            raise builder._inseparable_error(cells, block)
    entropy_before = level_entropy(table.priors, partition)
    if config.metric.kind is Metric.ADDITIVE:
        choice = builder._select_additive(points, entropy_before)
    else:
        singletons = math.fsum(table.priors[b[0]] for b in partition if len(b) == 1)
        choice = builder._select_multiplicative(
            points, entropy_before, singletons, config.metric.ratio_offset
        )
    return {b: p.test for b, p in zip(open_blocks, choice)}


def table_variant(table: TestTable, priors=None, outcomes=None, errors=None) -> TestTable:
    """``table`` with its priors, outcome rows (-1 undefined) or per-cell
    errors replaced, validated again; new rows get tests T1, T2, ..."""
    priors = table.priors if priors is None else priors
    outcomes = table.outcomes if outcomes is None else np.asarray(outcomes)
    errors = table.errors if errors is None else np.asarray(errors)
    tests = table.tests if len(outcomes) == table.n_tests else [
        f"T{m}" for m in range(1, len(outcomes) + 1)
    ]
    return validate_table(
        list(table.classes),
        list(priors),
        list(tests),
        [[None if v < 0 else int(v) for v in row] for row in outcomes.tolist()],
        np.where(outcomes >= 0, errors, 0.0).tolist(),
    )


def build_random_per_block(table: TestTable, seed: int) -> DecisionTree:
    """:func:`build_random` from a NumPy ``applicable_tests`` scan per block,
    the partition refined through ``refine_partition`` and the tree assembled
    by splitting every chosen block again through ``split_block``."""
    rng = random.Random(seed)
    partition = (table.all_classes_block(),)
    chosen = []
    while any(len(b) > 1 for b in partition):
        assignment = {}
        for block in partition:
            if len(block) == 1:
                continue
            tests = applicable_tests(table, block)
            if not tests:
                raise inseparable_error_per_pair(table, block)
            assignment[block] = tests[rng.randrange(len(tests))]
        chosen.append(assignment)
        partition = refine_partition(table, partition, assignment)
    node_of = {(i,): Leaf(c) for i, c in enumerate(table.classes)}
    for assignment in reversed(chosen):
        for block, test_id in assignment.items():
            zeros, ones = split_block(table, block, test_id)
            node_of[block] = Internal(test_id, node_of[zeros], node_of[ones])
    return DecisionTree(node_of[table.all_classes_block()])


def inseparable_error_per_pair(table: TestTable, block) -> InseparableClasses:
    """The builder's error for ``block``, found by scanning every pair's cells."""
    for i, j in itertools.combinations(block, 2):
        separable = False
        for m in range(table.n_tests):
            oi, oj = int(table.outcomes[m, i]), int(table.outcomes[m, j])
            if oi >= 0 and oj >= 0 and oi != oj:
                separable = True
                break
        if not separable:
            return InseparableClasses(
                f"classes {table.classes[i]!r} and {table.classes[j]!r} are not "
                f"separated by any test"
            )
    names = [table.classes[i] for i in block]
    return InseparableClasses(
        f"no applicable test splits the group {names}; classes "
        f"{names[0]!r} and {names[1]!r} stay together"
    )


def additive_points_lists(screen) -> list[list[int]]:
    """``builder._additive_points`` from Python lists, block by block: the
    first point, the first error-free one, and the near-least-h points of
    a proven block or else the first point whose g~ lies more than
    2 delta from the first's, or every point when none does."""
    split, mass, bounds = screen.split.tolist(), screen.mass.tolist(), screen.bounds.tolist()
    base = []
    for lo, hi, delta, proven in zip(bounds, bounds[1:], screen.delta.tolist(), screen.proven):
        keep = {lo}
        zeros = [i for i in range(lo, hi) if mass[i] == 0.0]
        keep.update(zeros[:1])
        if proven:
            least = min(split[lo:hi]) + 2.0 * delta
            keep.update(i for i in range(lo, hi) if split[i] <= least)
        else:
            far = [i for i in range(lo, hi) if 2.0 * delta < abs(mass[i] - mass[lo])]
            keep.update(far[:1] if far else range(lo, hi))
        base.append(sorted(keep))
    return base


def narrow_lists(screen, lam: float) -> list[list[int]]:
    """``builder._narrow`` from Python lists, block by block."""
    keys = (screen.split + lam * screen.mass).tolist()
    bounds = screen.bounds.tolist()
    kept = []
    for lo, hi, delta, proven in zip(bounds, bounds[1:], screen.delta.tolist(), screen.proven):
        if proven:
            kept.append([])
        elif not math.isfinite(4.0 * lam):
            kept.append(list(range(lo, hi)))
        else:
            least = min(keys[lo:hi]) + 4.0 * (1.0 + lam) * delta
            kept.append([i for i in range(lo, hi) if keys[i] <= least])
    return kept


def multiplicative_points_lists(cells, blocks, screen) -> list[list[int]]:
    """``builder._multiplicative_points`` from Python lists, one point at a
    time in (h~, c~, test) order per block, the witness being the first
    least-c~ point before it and the split compared on the tests' masks."""
    split, mass, tests = screen.split.tolist(), screen.mass.tolist(), screen.test.tolist()
    bounds, points = screen.bounds.tolist(), []
    for block, lo, hi, delta, proven in zip(
        blocks, bounds, bounds[1:], screen.delta.tolist(), screen.proven
    ):
        if proven:
            least = min(split[lo:hi]) + 2.0 * delta
            points.append([i for i in range(lo, hi) if split[i] <= least])
            continue
        mask, margin, keep = sum(1 << i for i in block), 2.0 * delta, []

        def key(i: int) -> int:
            ones = cells.ones[tests[i]] & mask
            return min(ones, mask ^ ones)

        witness = None
        for i in sorted(range(lo, hi), key=lambda i: (split[i], mass[i], i)):
            w = witness
            if w is not None and mass[w] < mass[i] - margin and (
                split[w] < split[i] - margin or key(w) == key(i)
            ):
                continue
            keep.append(i)
            if w is None or mass[i] < mass[w]:
                witness = i
        points.append(sorted(keep))
    return points
