import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import crowdtree
from crowdtree import (
    AssignmentStrategy,
    WorkerAllocation,
    effective_table,
    group_error,
    majority_decide,
    prop1_check,
    reg_incomplete_beta,
)
from crowdtree.errors import DomainError, ErrorProbOutOfRange, EvenVoteCount
from crowdtree.fixtures import demo_table
from crowdtree.fusion import _answer_errors

import support


def test_majority_decide():
    assert majority_decide([0, 0, 1]) == 0
    assert majority_decide([1]) == 1
    assert majority_decide([1, 0, 1, 1, 0]) == 1
    with pytest.raises(EvenVoteCount):
        majority_decide([0, 1])
    with pytest.raises(EvenVoteCount):
        majority_decide([])


def test_group_error_hand_values():
    assert group_error(0, 0.2) == pytest.approx(0.2, abs=1e-15)
    assert group_error(1, 0.2) == pytest.approx(0.104, abs=1e-15)
    assert group_error(2, 0.2) == pytest.approx(0.05792, abs=1e-15)
    assert group_error(1, 0.05) == pytest.approx(0.00725, abs=1e-15)


def test_group_error_against_vote_enumeration():
    for k in range(4):
        for p in (0.05, 0.2, 0.35, 0.49):
            assert group_error(k, p) == pytest.approx(
                support.vote_enumeration_group_error(k, p), abs=1e-13
            )


def test_group_error_recurrence_equals_comb_sum():
    # bit for bit wherever every power w ** (n - j) is a normal float; past
    # that the powers are scaled, which the tests below check
    worker_errors = (1e-12, 0.01, 0.2, 0.3, 0.4999999999)
    for k in range(501):
        unscaled = [w for w in worker_errors if (2 * k + 1) * -math.log2(w) < 1022]
        got = [group_error(k, w) for w in unscaled]
        assert got == support.comb_group_errors(k, unscaled), k


GROUP_ERROR_REL_BOUND = 1e-12  # scipy's betainc itself strays up to 1.5e-13 on this grid


def test_group_error_against_betainc_at_every_pair_count():
    """Within 1e-12 of ``betainc(k + 1, k + 1, w)``, relative, for every
    k <= 500 where that is a normal float, including the k where a term's
    power of w would underflow: from k = 77 at w = 0.01 and k = 220 at 0.2."""
    for w in (0.01, 0.05, 0.1, 0.2, 0.3):
        for k in range(501):
            want = float(special.betainc(k + 1, k + 1, w))
            if want >= sys.float_info.min:
                assert abs(group_error(k, w) - want) <= GROUP_ERROR_REL_BOUND * want, (w, k)


def test_group_error_past_underflow_equals_exact_tail():
    # the rational tail of the same float w; at w = 1e-10, k = 30 betainc is
    # off by 1e-5, relative
    for w, k in ((1e-10, 30), (0.01, 196), (0.05, 300), (0.2, 462), (0.2, 499)):
        a, b = w.as_integer_ratio()  # w = a / b
        n = 2 * k + 1
        tail = sum(math.comb(n, j) * (b - a) ** j * a ** (n - j) for j in range(k + 1))
        exact = tail / b**n  # int / int rounds correctly
        assert abs(group_error(k, w) - exact) <= 1e-13 * exact, (w, k)


def test_prop1_holds_where_group_errors_underflowed():
    # each call reported strictly_decreasing=False while group_error read 0.0
    for w, k_max in ((0.05, 300), (0.2, 499)):
        report = prop1_check(w, k_max)
        assert report.strictly_decreasing and report.passed, w
    assert group_error(300, 0.05) == pytest.approx(1.45e-219, rel=1e-2)
    assert group_error(499, 0.2) == pytest.approx(2.58e-99, rel=1e-2)


def test_group_error_domain():
    with pytest.raises(ErrorProbOutOfRange):
        group_error(1, 0.5)
    with pytest.raises(ErrorProbOutOfRange):
        group_error(1, 0.0)
    with pytest.raises(DomainError):
        group_error(-1, 0.2)
    with pytest.raises(DomainError):
        group_error(501, 0.2)


def test_group_error_large_group_is_finite_and_tiny():
    value = group_error(500, 0.2)
    assert 0.0 <= value < 1e-50


def test_beta_trivial_identities():
    for x in (0.0, 0.1, 0.37, 0.5, 0.93, 1.0):
        assert reg_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-13)
    for a in (0.5, 1.0, 3.7, 40.0):
        assert reg_incomplete_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)


def test_beta_binomial_identity():
    assert reg_incomplete_beta(0.2, 2.0, 2.0) == pytest.approx(0.104, abs=1e-12)
    assert reg_incomplete_beta(0.2, 2.0, 2.0) == pytest.approx(group_error(1, 0.2), abs=1e-12)


def test_beta_against_scipy():
    grid = [0.01, 0.05, 0.2, 0.33, 0.5, 0.77, 0.95, 0.999]
    shapes = [0.3, 0.9, 1.0, 2.5, 7.0, 51.0, 200.5]
    for x in grid:
        for a in shapes:
            for b in shapes:
                assert reg_incomplete_beta(x, a, b) == pytest.approx(
                    float(special.betainc(a, b, x)), abs=1e-12
                )


def test_beta_against_quadrature():
    def direct(x, a, b):
        num, _ = integrate.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0.0, x)
        return num / math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))

    for x, a, b in [(0.2, 2.0, 2.0), (0.45, 5.5, 3.25), (0.07, 0.8, 1.9)]:
        assert reg_incomplete_beta(x, a, b) == pytest.approx(direct(x, a, b), abs=1e-10)


def test_beta_domain_errors():
    with pytest.raises(DomainError):
        reg_incomplete_beta(-0.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        reg_incomplete_beta(1.1, 1.0, 1.0)
    with pytest.raises(DomainError):
        reg_incomplete_beta(0.5, 0.0, 1.0)
    with pytest.raises(DomainError):
        reg_incomplete_beta(0.5, 1.0, -2.0)


def test_group_error_matches_beta_across_grid():
    for p in [0.05 * i for i in range(1, 10)]:
        for k in range(0, 101, 7):
            assert abs(group_error(k, p) - reg_incomplete_beta(p, k + 1, k + 1)) <= 1e-10


def test_complement_symmetry():
    # swapping correct/incorrect workers flips the group decision
    for k in (0, 1, 3, 10):
        for p in (0.05, 0.2, 0.45):
            lhs = reg_incomplete_beta(1.0 - p, k + 1, k + 1)
            assert lhs == pytest.approx(1.0 - group_error(k, p), abs=1e-12)


def test_prop1_check_reports():
    report = prop1_check(0.2, 10)
    assert report.passed
    assert report.values[:3] == pytest.approx((0.2, 0.104, 0.05792), abs=1e-12)
    assert prop1_check(0.49, 20).passed
    near_half = prop1_check(0.5 - 1e-9, 5)
    assert near_half.passed  # still strictly below one half


def test_prop1_monotonicity_across_grid():
    for p in [0.05 * i for i in range(1, 10)]:
        assert prop1_check(p, 50).passed


def test_real_parameter_finite_differences():
    # the fused error falls, ever more slowly, as the group grows --
    # checked on the real-parameter extension with central differences
    h = 1e-4
    grid = [1.0 + 0.5 * i for i in range(49)]  # 1, 1.5, ..., 25
    for p in [0.05 * i for i in range(1, 10)]:
        derivs = []
        for j in grid:
            d = (
                reg_incomplete_beta(p, j + h, j + h)
                - reg_incomplete_beta(p, j - h, j - h)
            ) / (2 * h)
            assert d < 0.0
            derivs.append(d)
        magnitudes = [abs(d) for d in derivs]
        for earlier, later in zip(magnitudes, magnitudes[1:]):
            assert later <= earlier + 1e-6


ANSWER_ERROR_CASES = (
    # table, pairs per allocated test; each has an undefined cell in an
    # allocated test, and the random table in an unallocated one as well
    (demo_table(0.05), {"T1": 4, "T2": 0, "T5": 1}),
    (support.random_table(11, cell_errors=True), {"T1": 0, "T2": 3, "T3": 1, "T7": 2, "T8": 0}),
)


@pytest.mark.parametrize("case", range(len(ANSWER_ERROR_CASES)))
def test_answer_errors_pins_every_cell(case):
    """The chance of a wrong answer is group_error(k, w) in every defined
    cell of a test with a pair entry, k = 0 included; the table's error in
    every other defined cell; NaN in every undefined cell. Leading axes of
    the pair counts are settings."""
    table, pairs = ANSWER_ERROR_CASES[case]
    w = 0.2
    rows = [table.test_index(t) for t in pairs]
    counts = list(pairs.values())
    undefined = table.outcomes < 0
    assert undefined[rows].any() and (case == 0 or np.delete(undefined, rows, axis=0).any())
    got = _answer_errors(table.errors[rows], counts, w)
    assert got.shape == (len(rows), 1)
    cells = np.broadcast_to(got, (len(rows), table.n_classes))
    for r, k in enumerate(counts):
        assert (cells[r][~undefined[rows[r]]] == group_error(k, w)).all()
    settings = [counts, [k + 1 for k in counts], [0] * len(counts)]
    stacked = _answer_errors(table.errors[rows], settings, w)
    assert stacked.shape == (3, len(rows), 1)
    for s, setting in enumerate(settings):
        assert stacked[s].tolist() == [[group_error(k, w)] for k in setting]
    for k in (0, *counts, 500):  # one count for every test
        one = _answer_errors(table.errors[rows], k, w)
        assert one.tolist() == _answer_errors(table.errors[rows], [k] * len(rows), w).tolist()
    fused = effective_table(table, WorkerAllocation(pairs, w, AssignmentStrategy.PROPOSED))
    for m, test_id in enumerate(table.tests):
        for i in range(table.n_classes):
            if undefined[m, i]:
                assert math.isnan(fused.errors[m, i])
            elif test_id in pairs:
                assert fused.errors[m, i] == group_error(pairs[test_id], w)
            else:
                assert fused.errors[m, i] == table.errors[m, i]


def test_answer_errors_raise_for_the_first_refused_count_in_settings_order():
    errors = demo_table(0.05).errors[:2]
    with pytest.raises(DomainError, match="at most 500 pairs, got 600"):
        _answer_errors(errors, [[3, 600], [700, 2]], 0.2)
    with pytest.raises(DomainError, match="non-negative integer, got -1"):
        _answer_errors(errors, [[2, 3], [-1, 501]], 0.2)
    with pytest.raises(DomainError, match="got 10000000000000000000000000000000"):
        _answer_errors(errors, [1, 10**31], 0.2)
    with pytest.raises(ErrorProbOutOfRange):
        _answer_errors(errors, [1, 2], 0.5)
    for count, phrase in ((501, "at most 500 pairs, got 501"), (-1, "non-negative integer")):
        with pytest.raises(DomainError, match=phrase):
            _answer_errors(errors, count, 0.2)
    with pytest.raises(ErrorProbOutOfRange):
        _answer_errors(errors, 3, 0.5)
    assert _answer_errors(errors[:0], [], 0.2).shape == (0, 1)


def test_only_the_one_derivation_and_the_per_test_report_call_group_error():
    """The evaluator, the allocator and the worker sweep read a wrong
    answer's probability from ``_answer_errors``, and the assign log
    reports the value its pair was scored with. Besides it, only an
    allocation's per-test ``effective_error`` and ``prop1_check`` call
    ``group_error``."""
    package = Path(crowdtree.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                calls = (n for n in ast.walk(node) if isinstance(n, ast.Call))
                if any(getattr(c.func, "id", None) == "group_error" for c in calls):
                    callers.add(f"{path.stem}.{node.name}")
    assert callers == {
        "fusion._answer_errors",
        "fusion.prop1_check",
        "workers.effective_error",
    }
