"""Command-line interface.

Exit codes: 0 success, 2 validation or parse error, 3 infeasible instance
(some classes cannot be separated), 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import fileio, workers
from .builder import BuilderConfig, build_greedy
from .errors import CrowdTreeError, InseparableClasses, ValidationError
from .fusion import _answer_errors
from .metrics import Metric, MetricConfig, _exact, _summary, level_quantities
from .model import _compile
from .simulate import simulate, sweep_error, sweep_workers
from .workers import AssignmentStrategy, allocation_cost, assign_baseline, assign_proposed

_STRATEGY_NAMES = {s.value: s for s in AssignmentStrategy}


def _metric_config(args) -> MetricConfig:
    return MetricConfig(kind=Metric(args.metric), ratio_offset=args.ratio_offset)


def _add_metric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metric",
        choices=[m.value for m in Metric],
        default=Metric.ADDITIVE.value,
        help="construction metric (default: additive)",
    )
    p.add_argument(
        "--ratio-offset",
        type=float,
        default=1.0,
        help="entropy offset of the multiplicative metric (default: 1)",
    )


def _add_error_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--error-prob", type=float, help="scalar test error probability")
    p.add_argument("--error-matrix", help="CSV file of per-test per-class error probabilities")


def _load_table(args, require_error: bool = True):
    if args.error_prob is not None and args.error_matrix is not None:
        raise CrowdTreeError("give at most one of --error-prob and --error-matrix")
    if require_error and args.error_prob is None and args.error_matrix is None:
        raise CrowdTreeError("give exactly one of --error-prob and --error-matrix")
    return fileio.load_table(args.table, args.error_prob, args.error_matrix)


def _add_stored_tree_flags(p: argparse.ArgumentParser) -> None:
    """The inputs that :func:`_load_stored_tree` reads."""
    p.add_argument("--tree", required=True)
    p.add_argument("--table", required=True)
    _add_error_flags(p)
    p.add_argument("--ignore-checksum", action="store_true")


def _load_stored_tree(args, require_error: bool = True):
    """``(table, tree)`` of a command's ``--table`` and stored ``--tree``."""
    table = _load_table(args, require_error)
    return table, fileio.load_tree(args.tree, table, check_checksum=not args.ignore_checksum)


def _write_report(args, text: str) -> int:
    """Write ``text`` to ``--out``, if given, then to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _print_quality(table, ratio_offset: float, splits, levels) -> None:
    """The quality report of a tree given as its level record ``splits``
    (:func:`crowdtree.metrics._survivals`) and its per-level figures
    ``levels``: those figures, then the exact values, both from one
    survival pass, approximations and bounds."""
    print("level,entropy_before,entropy_after,error_mass,correct_mass,"
          "additive_metric,multiplicative_metric")
    for q in levels:
        print(
            f"{q.level},{q.entropy_before!r},{q.entropy_after!r},{q.error_mass!r},"
            f"{q.correct_mass!r},{q.additive_metric!r},{q.multiplicative_metric!r}"
        )
    exact_pm, exact_pc = _exact(splits, table)
    add, mul, (lo_a, hi_a), (lo_m, hi_m) = _summary(levels, ratio_offset)
    print(f"exact_pm,{exact_pm!r}")
    print(f"exact_pc,{exact_pc!r}")
    print(f"additive_approx,{add!r}")
    print(f"multiplicative_approx,{mul!r}")
    print(f"additive_bounds,{lo_a!r},{hi_a!r}")
    print(f"multiplicative_bounds,{lo_m!r},{hi_m!r}")


def _cmd_build(args) -> int:
    table = _load_table(args)
    config = BuilderConfig(metric=_metric_config(args))
    result = build_greedy(table, config)
    builder_info = {
        "kind": "greedy",
        "metric": args.metric,
        "ratio_offset": args.ratio_offset,
    }
    if args.out:
        fileio.save_tree(args.out, result.tree, table, builder_info)
    _print_quality(table, args.ratio_offset, result._splits, result.levels)
    return 0


def _cmd_evaluate(args) -> int:
    table, tree = _load_stored_tree(args)
    levels = level_quantities(tree, table, args.ratio_offset)
    _print_quality(table, args.ratio_offset, _compile(tree, table).levels, levels)
    return 0


def _cmd_assign(args) -> int:
    table, tree = _load_stored_tree(args, require_error=False)
    workers._check_pair_limit(tree, table, [args.workers])
    strategy = _STRATEGY_NAMES[args.strategy]
    rows = []  # the whole report, so that a failing job prints none of it
    if strategy is AssignmentStrategy.PROPOSED:
        allocation, log = assign_proposed(
            tree, table, args.workers, args.worker_error, _metric_config(args)
        )
        rows.append("iteration,level,test,metric_before,metric_after,pairs,effective_error")
        rows += (
            f"{step.iteration},{step.level},{step.test},{step.metric_before!r},"
            f"{step.metric_after!r},{step.pairs_after},{step.effective_error_after!r}"
            for step in log
        )
    else:
        allocation = assign_baseline(
            tree, table, strategy, args.workers, args.worker_error, args.seed
        )
    pairs = allocation.extra_pairs
    wrong = _answer_errors(table.errors[list(map(table.test_index, pairs))],
                           list(pairs.values()), allocation.worker_error)[:, 0].tolist()
    rows.append("test,extra_pairs,workers,effective_error")
    rows += (f"{test_id},{k},{2 * k + 1},{e!r}" for (test_id, k), e in zip(pairs.items(), wrong))
    expected, flat = allocation_cost(tree, table, allocation)
    rows += f"expected_questions,{expected!r}", f"total_group_size,{flat}"
    print("\n".join(rows))
    if args.out:
        fileio.save_allocation(args.out, allocation)
    return 0


def _cmd_simulate(args) -> int:
    table, tree = _load_stored_tree(args)
    allocation = fileio.load_allocation(args.allocation) if args.allocation else None
    report = simulate(
        tree,
        table,
        allocation,
        trials=args.trials,
        seed=args.seed,
        lanes=args.lanes,
    )
    text = fileio.simulation_report_csv(report, table)
    return _write_report(args, text)


_MAX_GRID_POINTS = 10_000  # 333 times the default grid's 30 points


def _parse_grid(text: str) -> list[float]:
    """The points of ``start:stop:step``. A grid of more than about
    ``_MAX_GRID_POINTS`` points, counted from its three numbers, fails
    before any point is made."""
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise CrowdTreeError(f"grid must be start:stop:step, got {text!r}") from None
    if not (step > 0 and stop >= start):  # a NaN fails here too
        raise CrowdTreeError(f"bad grid {text!r}")
    if not (stop - start) / step < _MAX_GRID_POINTS:  # an inf too
        raise CrowdTreeError(f"bad grid {text!r}: more than {_MAX_GRID_POINTS} points")
    grid = []
    value = start
    while value <= stop + 1e-12:
        grid.append(round(value, 12))
        value += step
    return grid


def _cmd_sweep_error(args) -> int:
    table = fileio.load_table(args.table)
    config = BuilderConfig(metric=_metric_config(args))
    points = sweep_error(
        table, _parse_grid(args.grid), args.random_trees, config, args.seed
    )
    header = {
        "table_sha256": fileio.table_checksum(table),
        "grid": args.grid,
        "random_trees": args.random_trees,
        "seed": args.seed,
        "metric": args.metric,
    }
    text = fileio.error_sweep_csv(points, header)
    return _write_report(args, text)


def _cmd_sweep_workers(args) -> int:
    if args.kmax < 0:
        raise ValidationError(f"kmax must be >= 0, got {args.kmax}")
    table, tree = _load_stored_tree(args, require_error=False)
    budgets = range(args.kmax + 1)  # lazy: the check stops at the first budget past the limit
    workers._check_pair_limit(tree, table, budgets)
    strategies = []
    for name in args.strategies.split(","):
        name = name.strip()
        if name not in _STRATEGY_NAMES:
            raise CrowdTreeError(
                f"unknown strategy {name!r}; choose from {sorted(_STRATEGY_NAMES)}"
            )
        strategies.append(_STRATEGY_NAMES[name])
    points = sweep_workers(
        tree,
        table,
        budgets,
        strategies,
        args.worker_error,
        seed=args.seed,
        random_draws=args.draws,
        metric=_metric_config(args),
    )
    header = {
        "table_sha256": fileio.table_checksum(table),
        "kmax": args.kmax,
        "worker_error": args.worker_error,
        "strategies": args.strategies,
        "seed": args.seed,
        "random_draws": args.draws,
        "metric": args.metric,
    }
    text = fileio.worker_sweep_csv(points, header)
    return _write_report(args, text)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. A build takes about
    2 ms and leaves some 450 objects in reference cycles, a large share of
    a short job's time and of the garbage collector's work; parsing reads
    the parser and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="crowdtree",
        description="Design and validate decision trees over noisy binary tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a tree greedily and report its quality")
    p.add_argument("--table", required=True)
    _add_metric_flags(p)
    _add_error_flags(p)
    p.add_argument("--out", help="write the tree document here")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("evaluate", help="evaluate a stored tree against a table")
    _add_stored_tree_flags(p)
    p.add_argument("--ratio-offset", type=float, default=1.0)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("assign", help="allocate worker pairs to a tree's tests")
    _add_stored_tree_flags(p)
    p.add_argument("--workers", type=int, required=True, help="pair budget")
    p.add_argument("--worker-error", type=float, required=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGY_NAMES), default="proposed")
    p.add_argument("--seed", type=int, default=0)
    _add_metric_flags(p)
    p.add_argument("--out", help="write the allocation document here")
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("simulate", help="Monte Carlo classification through a tree")
    _add_stored_tree_flags(p)
    p.add_argument("--allocation", help="allocation document to fuse workers from")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--lanes", type=int, default=1, help="parallel lanes; result is identical for any value"
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep-error", help="designed vs random trees across error grid")
    p.add_argument("--table", required=True)
    p.add_argument("--grid", default="0.01:0.30:0.01", help="start:stop:step")
    p.add_argument("--random-trees", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_metric_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep_error)

    p = sub.add_parser("sweep-workers", help="strategy comparison across pair budgets")
    _add_stored_tree_flags(p)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--worker-error", type=float, required=True)
    p.add_argument(
        "--strategies",
        default="proposed,random,single,all",
        help="comma-separated strategy names",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=50, help="random allocations to average")
    _add_metric_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep_workers)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InseparableClasses as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CrowdTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
