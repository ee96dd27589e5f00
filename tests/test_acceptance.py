"""Acceptance gate: one test per top-level criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Expected figures come from independent in-test oracles, never from
the code paths they check.
"""

import math
import time

import pytest

from crowdtree import (
    AssignmentStrategy,
    BuilderConfig,
    Metric,
    MetricConfig,
    additive_approx,
    applicable_tests,
    bounds_additive,
    bounds_multiplicative,
    build_greedy,
    build_random,
    enumerate_trees,
    exact_correct,
    exact_misclassification,
    group_error,
    level_quantities,
    multiplicative_approx,
    prop1_check,
    refine_partition,
    reg_incomplete_beta,
    simulate,
    sweep_error,
    sweep_workers,
)
from crowdtree.builder import Objective, best_tree_exhaustive
from crowdtree.fixtures import alternative_tree, demo_table, designed_tree

import support

P_E_GRID = [0.05 * i for i in range(1, 10)]  # 0.05 .. 0.45


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_designed_structure_under_both_metrics():
    start = time.perf_counter()
    reference = designed_tree()
    for p_star in (0.01, 0.05, 0.1, 0.2, 0.3):
        table = demo_table(p_star)
        for kind in Metric:
            tree = build_greedy(table, BuilderConfig(metric=MetricConfig(kind=kind))).tree
            assert tree == reference, (p_star, kind)
    elapsed = time.perf_counter() - start
    _report("1", elapsed < 1.0, f"structure T1;T5;T3;T2 under both metrics, {elapsed:.2f}s")


def test_criterion_2_level_one_metric_ordering():
    table = demo_table(0.05)
    full = table.all_classes_block()
    h0 = support.entropy_oracle(table.priors, (full,))
    oracle: dict[str, float] = {}
    for test_id in applicable_tests(table, full):
        after = refine_partition(table, (full,), {full: test_id})
        drop = h0 - support.entropy_oracle(table.priors, after)
        mass = sum(table.priors)  # every class is under test at the root level
        oracle[test_id] = drop / (mass * 0.05)
    expected = {"T1": 19.419, "T4": 17.626, "T2": 12.196, "T3": 9.379}
    for test_id, value in expected.items():
        assert oracle[test_id] == pytest.approx(value, abs=1e-3), test_id
    assert oracle["T1"] > oracle["T4"] > oracle["T2"] > oracle["T3"]
    _report("2", True, "level-1 additive metrics " + str({k: round(v, 3) for k, v in oracle.items()}))


def test_criterion_3_exact_evaluator_reference_trees():
    table = demo_table(0.05)
    pm_designed = exact_misclassification(designed_tree(), table)
    pm_alt = exact_misclassification(alternative_tree(), table)

    assert pm_designed == pytest.approx(0.08231, abs=1e-5)

    # independent oracle: survival over hand-read path depths (2,4,3,1,4)
    # and (3,2,3,2,2) at a flat 0.05 error
    oracle_designed = support.path_survival_pm(
        table.priors, [[0.05] * d for d in (2, 4, 3, 1, 4)]
    )
    oracle_alt = support.path_survival_pm(
        table.priors, [[0.05] * d for d in (3, 2, 3, 2, 2)]
    )
    assert pm_designed == pytest.approx(oracle_designed, abs=1e-12)
    assert pm_alt == pytest.approx(oracle_alt, abs=1e-4)
    assert oracle_alt == pytest.approx(0.1110375, abs=1e-12)

    # The often-quoted pair 0.068 / 0.05 for these two trees is NOT what the
    # exact evaluator yields at a 0.05 test error; it matches the first-order
    # (additive) estimate at a test error near 0.0294 instead. Documented
    # here, never asserted as an expected evaluator output.
    p_doc = 0.05 / 1.7  # additive estimate of the designed tree equals 0.05
    doc_table = demo_table(round(p_doc, 6))
    assert additive_approx(designed_tree(), doc_table) == pytest.approx(0.05, abs=1e-3)
    assert additive_approx(alternative_tree(), doc_table) == pytest.approx(0.068, abs=1e-3)
    _report(
        "3",
        True,
        f"exact pm designed={pm_designed:.7f}, alternative={pm_alt:.7f}; "
        f"quoted 0.068/0.05 reproduced only by the additive estimate at ~{p_doc:.4f}",
    )


def _bound_instances():
    return [support.random_table(1000 + i) for i in range(200)]


def test_criterion_4_bound_sandwich_additive():
    worst = 0.0
    for table in _bound_instances():
        tree = build_greedy(table).tree
        lo, hi = bounds_additive(tree, table)
        approx = additive_approx(tree, table)
        assert lo - 1e-9 <= approx <= hi + 1e-9, table
        worst = max(worst, lo - approx, approx - hi)
    _report("4a", True, f"additive sandwich on 200 instances, worst slack {worst:.2e}")


def test_criterion_4_bound_sandwich_multiplicative():
    # The lower inequality below cannot hold once a tree has two or more
    # levels: every per-level factor is >= 1, so the product of all factors
    # exceeds the largest single one, leaving the product approximation
    # strictly below (H0+1)/max. It is asserted as stated anyway; see the
    # README's "known failing check" note for the algebra.
    failures = []
    for table in _bound_instances():
        tree = build_greedy(table).tree
        lo, hi = bounds_multiplicative(tree, table)
        approx = multiplicative_approx(tree, table)
        if not (lo - 1e-9 <= approx <= hi + 1e-9):
            failures.append((table.n_classes, tree.depth(), lo, approx, hi))
    detail = (
        f"{len(failures)}/200 instances violate the stated sandwich; first: "
        f"depth={failures[0][1]}, lower={failures[0][2]:.4f} > approx={failures[0][3]:.4f}"
        if failures
        else "sandwich held on all 200 instances"
    )
    _report("4b", not failures, detail)


def test_criterion_4_powered_pair_multiplicative():
    # What 4b's pair becomes once each level's metric is raised to the
    # depth: with m_d = ((H_{d-1}+r)/(H_d+r))/c_d and H_D = 0, the product
    # telescopes to prod c_d = (H0+r)/(r prod m_d), and prod m_d lies
    # between min m^D and max m^D. Checked on 4b's instances, greedy and
    # random trees, at offsets 1 and 0.5 (README, "What the approximations
    # do bound").
    failures, worst, cases = [], 0.0, 0
    for table in _bound_instances():
        for r in (1.0, 0.5):
            config = BuilderConfig(metric=MetricConfig(Metric.MULTIPLICATIVE, ratio_offset=r))
            for tree in (build_greedy(table, config).tree, build_random(table, 0)):
                levels = level_quantities(tree, table, r)
                metrics = [q.multiplicative_metric for q in levels]
                top = levels[0].entropy_before + r
                lo = top / (r * max(metrics) ** len(levels))
                hi = top / (r * min(metrics) ** len(levels))
                approx = multiplicative_approx(tree, table)
                cases += 1
                if not (lo * (1 - 1e-12) <= approx <= hi * (1 + 1e-12)):
                    failures.append((table.n_classes, len(levels), lo, approx, hi))
                worst = max(worst, (lo - approx) / approx, (approx - hi) / approx)
    detail = (
        f"powered pair held on all {cases} trees, worst relative slack {worst:.1e}"
        if not failures
        else f"{len(failures)}/{cases} trees violate the powered pair; first: {failures[0]}"
    )
    _report("4b powered", not failures, detail)


def test_criterion_5_fusion_suite():
    start = time.perf_counter()
    for p_e in P_E_GRID:
        report = prop1_check(p_e, 50)
        assert report.strictly_decreasing, p_e
        assert report.diminishing_differences, p_e
        for k in range(51):
            assert abs(group_error(k, p_e) - reg_incomplete_beta(p_e, k + 1, k + 1)) <= 1e-10
        h = 1e-4
        magnitudes = []
        for j in [1.0 + 0.5 * i for i in range(49)]:
            d = (
                reg_incomplete_beta(p_e, j + h, j + h)
                - reg_incomplete_beta(p_e, j - h, j - h)
            ) / (2 * h)
            assert d < 0.0, (p_e, j)
            magnitudes.append(abs(d))
        assert all(b <= a + 1e-6 for a, b in zip(magnitudes, magnitudes[1:])), p_e
    elapsed = time.perf_counter() - start
    _report("5", elapsed < 1.0, f"monotone fusion + beta agreement, {elapsed:.2f}s")


def test_criterion_6_error_sweep_shape():
    start = time.perf_counter()
    table = demo_table(0.05)
    grid = [round(0.01 * i, 2) for i in range(1, 31)]
    points = sweep_error(table, grid, n_random_trees=20, seed=0)
    again = sweep_error(table, grid, n_random_trees=20, seed=0)
    assert points == again  # deterministic
    for p in points:
        assert p.designed_pm <= p.random_mean_pm, p
    gap = {p.error_prob: p.random_mean_pm - p.designed_pm for p in points}
    assert gap[0.30] > gap[0.05]
    elapsed = time.perf_counter() - start
    _report(
        "6",
        elapsed < 5.0,
        f"designed <= random mean at all 30 points; gap 0.05->{gap[0.05]:.4f}, "
        f"0.30->{gap[0.30]:.4f}; {elapsed:.2f}s",
    )


def test_criterion_7_worker_sweep_shape():
    start = time.perf_counter()
    table = demo_table(0.05)
    tree = designed_tree()
    points = sweep_workers(
        tree, table, range(31), list(AssignmentStrategy), 0.2, seed=0, random_draws=50
    )
    curves: dict[AssignmentStrategy, list[float]] = {}
    for p in points:
        curves.setdefault(p.strategy, []).append(p.pm)
    single = curves[AssignmentStrategy.SINGLE_TEST]
    rand = curves[AssignmentStrategy.RANDOM_PER_PAIR]
    proposed = curves[AssignmentStrategy.PROPOSED]
    pooled = curves[AssignmentStrategy.ALL_WORKERS_ALL_TESTS]
    for k in range(5, 31):
        assert single[k] >= rand[k] >= proposed[k] >= pooled[k], k
    for curve in curves.values():
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
    assert abs(proposed[30] - pooled[30]) <= 0.02
    elapsed = time.perf_counter() - start
    _report(
        "7",
        elapsed < 10.0,
        f"single >= random >= proposed >= pooled for K>=5; "
        f"|proposed-pooled|@30 = {abs(proposed[30] - pooled[30]):.4f}; {elapsed:.2f}s",
    )


def test_criterion_8_monte_carlo_consistency():
    start = time.perf_counter()
    table = demo_table(0.05)
    tree = designed_tree()
    exact = exact_misclassification(tree, table)
    trials = 1_000_000
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    lanes_reports = {
        lanes: simulate(tree, table, trials=trials, seed=42, lanes=lanes)
        for lanes in (1, 4, 8)
    }
    base = lanes_reports[1]
    assert abs(base.p_hat - exact) <= 4 * sigma
    for lanes, report in lanes_reports.items():
        assert report.p_hat == base.p_hat, lanes
        assert (report.confusion == base.confusion).all(), lanes
    elapsed = time.perf_counter() - start
    _report(
        "8",
        elapsed < 30.0,
        f"p_hat={base.p_hat:.6f} vs exact {exact:.6f} "
        f"({abs(base.p_hat - exact) / sigma:.2f} sigma); lanes 1/4/8 identical; {elapsed:.1f}s",
    )


def test_criterion_9_exhaustive_oracle():
    optimal_hits = 0
    worst_gap = 0.0
    for i in range(50):
        table = support.random_table(2000 + i, max_classes=4, max_tests=4)
        greedy_pm = exact_misclassification(build_greedy(table).tree, table)
        pms = []
        for tree in enumerate_trees(table, max_classes=4, max_tests=4):
            pm = exact_misclassification(tree, table)
            pc = exact_correct(tree, table)
            assert abs(pm + pc - 1.0) <= 1e-12
            pms.append(pm)
        assert pms, "enumeration must produce at least the greedy tree"
        assert greedy_pm <= max(pms) + 1e-12
        _, best_pm = best_tree_exhaustive(table, Objective.EXACT_PM, 4, 4)
        assert best_pm <= greedy_pm + 1e-12
        gap = greedy_pm - best_pm
        worst_gap = max(worst_gap, gap)
        if gap <= 1e-12:
            optimal_hits += 1
    _report(
        "9",
        True,
        f"greedy optimal on {optimal_hits}/50 instances, worst optimality gap "
        f"{worst_gap:.5f}, never above the worst enumerated tree",
    )
