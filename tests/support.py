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
    _block_entropy,
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
    """The simulator's per-node lookup arrays, numbered by a recursive walk."""
    n = table.n_classes
    leaf_row = table.n_tests * n
    row, child, group, leaf_cls = [], [], [], []

    def add(node) -> int:
        idx = len(row)
        row.append(leaf_row)
        child.extend((idx, idx))
        group.append(0)
        leaf_cls.append(-1)
        if isinstance(node, Leaf):
            leaf_cls[idx] = table.class_index(node.label)
        else:
            row[idx] = table.test_index(node.test) * n
            group[idx] = allocation.group_size(node.test) if allocation is not None else 1
            child[2 * idx] = add(node.zero)
            child[2 * idx + 1] = add(node.one)
        return idx

    add(tree.root)

    def depth(node) -> int:
        return 0 if isinstance(node, Leaf) else 1 + max(depth(node.zero), depth(node.one))

    return {
        "row": np.asarray(row, dtype=np.int64),
        "child": np.asarray(child, dtype=np.int64),
        "group": np.asarray(group, dtype=np.uint64),
        "leaf_cls": np.asarray(leaf_cls, dtype=np.int64),
        "depth": depth(tree.root),
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


# ---------------------------------------------------------------------------
# The greedy builder's per-pair scoring and its cell-by-cell inseparability
# scan, which per-build cell data and array scans in ``crowdtree.builder``
# replaced, kept as references for ``==`` comparisons.


def level_points_per_pair(table: TestTable, partition) -> list[list[tuple]]:
    """Per open block of ``partition``, the (test, h, g, c) point of every
    applicable test, each read cell by cell."""
    points = []
    for block in (b for b in partition if len(b) > 1):
        points.append([])
        for test_id in applicable_tests(table, block):
            m = table.test_index(test_id)
            zeros, ones = split_block(table, block, test_id)
            h = _block_entropy(table.priors, zeros) + _block_entropy(table.priors, ones)
            g = math.fsum(table.priors[i] * float(table.errors[m, i]) for i in block)
            c = math.fsum(table.priors[i] * (1.0 - float(table.errors[m, i])) for i in block)
            points[-1].append((m, h, g, c))
    return points


def greedy_levels_per_pair(table: TestTable, config: BuilderConfig) -> list[tuple]:
    """(level step, points) of every level of the greedy build, with the
    points of :func:`level_points_per_pair` and the builder's own selectors."""
    from crowdtree import builder

    levels = []
    partition = (table.all_classes_block(),)
    while any(len(b) > 1 for b in partition):
        points = level_points_per_pair(table, partition)
        open_blocks = [b for b in partition if len(b) > 1]
        for block, block_points in zip(open_blocks, points):
            if not block_points:
                raise inseparable_error_per_pair(table, block)
        pts = [[builder._Point(*p) for p in block_points] for block_points in points]
        entropy_before = level_entropy(table.priors, partition)
        if config.metric.kind is Metric.ADDITIVE:
            choice = builder._select_additive(pts, entropy_before)
        else:
            singletons = math.fsum(table.priors[b[0]] for b in partition if len(b) == 1)
            choice = builder._select_multiplicative(
                pts, entropy_before, singletons, config.metric.ratio_offset
            )
        assignment = {b: table.tests[p.test] for b, p in zip(open_blocks, choice)}
        after = refine_partition(table, partition, assignment)
        levels.append((LevelStep(partition, assignment, after), points))
        partition = after
    return levels


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
