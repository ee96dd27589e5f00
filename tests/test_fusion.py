import math

import pytest
from scipy import integrate, special

from crowdtree import group_error, majority_decide, prop1_check, reg_incomplete_beta
from crowdtree.errors import DomainError, ErrorProbOutOfRange, EvenVoteCount

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
    worker_errors = (1e-12, 0.01, 0.2, 0.3, 0.4999999999)
    for k in range(501):
        got = [group_error(k, w) for w in worker_errors]
        assert got == support.comb_group_errors(k, worker_errors), k


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
