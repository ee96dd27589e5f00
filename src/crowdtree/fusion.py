"""Majority-vote fusion of redundant workers and the group error law.

A group of 2k+1 workers answering the same binary test, each wrong with
probability p < 0.5, errs as a group exactly when at most k workers are
right. That tail equals the regularized incomplete beta function I_p(k+1,
k+1), which extends the law to real-valued group parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ErrorProbOutOfRange, EvenVoteCount

_MAX_EXACT_PAIRS = 500
_NORMAL_EXPONENTS = 1022  # 2**-1022 is the least normal float
_BETA_EPS = 1e-15
_BETA_MAX_ITER = 500


def majority_decide(votes: Sequence[int]) -> int:
    """Majority bit of an odd, non-empty list of 0/1 votes."""
    n = len(votes)
    if n == 0 or n % 2 == 0:
        raise EvenVoteCount(f"need an odd, non-empty vote count, got {n}")
    ones = sum(1 for v in votes if v)
    return 1 if ones > n // 2 else 0


def _check_worker_error(worker_error: float) -> None:
    if not (0.0 < worker_error < 0.5):
        raise ErrorProbOutOfRange(
            f"worker error must lie strictly in (0, 0.5), got {worker_error!r}"
        )


def group_error(extra_pairs: int, worker_error: float) -> float:
    """Error probability of a fused group of ``2*extra_pairs + 1`` workers.

    Direct binomial tail with exact integer coefficients: the probability
    that at most ``extra_pairs`` of the workers answer correctly. Each
    coefficient comes from the one before by the exact integer recurrence
    C(n, j + 1) = C(n, j) * (n - j) // (j + 1).

    Where ``w ** n`` would leave the normal floats, n·log2(1/w) ≥ 1022, the
    powers of ``w = f·2**e`` are taken as ``f ** (n - j)`` and their powers
    of two carried apart, relative to the largest term's (j = k): no term
    then underflows before it meets its coefficient. Elsewhere every power
    is normal, f is w and e is 0, so each term is
    ``C(n, j) * q**j * w**(n - j)`` bit for bit.
    """
    _check_worker_error(worker_error)
    if extra_pairs < 0 or extra_pairs != int(extra_pairs):
        raise DomainError(f"extra pair count must be a non-negative integer, got {extra_pairs!r}")
    if extra_pairs > _MAX_EXACT_PAIRS:
        raise DomainError(
            f"exact summation supports at most {_MAX_EXACT_PAIRS} pairs, got {extra_pairs}"
        )
    k = int(extra_pairs)
    n = 2 * k + 1
    q = 1.0 - worker_error
    f, e = worker_error, 0
    if n * -math.log2(worker_error) >= _NORMAL_EXPONENTS:
        f, e = math.frexp(worker_error)
    # term j is x·2**(e·(n - j)), x = C(n, j)·q**j·f**(n - j), in [2**-1001, 2**1000]
    # when scaled; it is kept as x·2**(e·(k - j)), relative to the largest term's
    terms, c = [], 1  # c is C(n, j)
    for j in range(k + 1):
        terms.append(math.ldexp(c * q**j * f ** (n - j), e * (k - j)))
        c = c * (n - j) // (j + 1)
    return math.ldexp(math.fsum(terms), e * (k + 1))


def _answer_errors(errors: np.ndarray, pairs, worker_error: float) -> np.ndarray:
    """The chance that a test's group answers wrong by majority, per cell.

    ``errors`` holds the seated worker's error cells of some tests (tests ×
    classes, NaN where a test is undefined) and ``pairs`` a pair count per
    test, after any leading axes of settings, or one int count for every
    test. This is the one place that
    turns a pair count into a wrong answer's probability for the
    evaluator, the allocator and the worker sweep.

    Every voter, the seated one too, errs at ``worker_error``: each cell of
    a test is :func:`group_error` of its count, k = 0 included, so
    ``errors`` is not read and the result, shaped ``(…, tests, 1)``,
    broadcasts over classes. A count that :func:`group_error` refuses
    raises first, the first such in the order of ``pairs``; then the group
    error is computed once per distinct count. One int count in the limit
    takes no array pass but the result's.
    """
    if type(pairs) is int and 0 <= pairs <= _MAX_EXACT_PAIRS:
        return np.full((len(errors), 1), group_error(pairs, worker_error))
    pairs = np.asarray(pairs)
    top = pairs.max(initial=0)
    if top > _MAX_EXACT_PAIRS or pairs.min(initial=0) < 0:  # raises for the first such count
        group_error(int(pairs[(pairs < 0) | (pairs > _MAX_EXACT_PAIRS)][0]), worker_error)
    pairs = pairs.astype(np.int64, copy=False)
    fused = np.zeros(int(top) + 1)
    for k in np.flatnonzero(np.bincount(pairs.ravel(), minlength=1)).tolist():
        fused[k] = group_error(k, worker_error)
    return fused[pairs][..., None]


def reg_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0, x in [0, 1].

    Continued-fraction evaluation (modified Lentz) with the symmetry switch
    I_x(a,b) = 1 - I_{1-x}(b,a) applied when x exceeds (a+1)/(a+b+2), which
    keeps the fraction in its fast-converging region. Absolute accuracy is
    about 1e-13 or better across the domain.
    """
    if not 0.0 <= x <= 1.0:  # a NaN fails too
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"shape parameters must be positive, got a={a!r}, b={b!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    # log of x^a (1-x)^b / (a B(a,b))
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(x, a, b) / a
    return 1.0 - math.exp(log_front) * _beta_cf(1.0 - x, b, a) / b


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta, evaluated by Lentz's method."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise DomainError(
        f"continued fraction failed to converge for x={x!r}, a={a!r}, b={b!r}"
    )


@dataclass(frozen=True)
class MonotonicityReport:
    """Fused-group error sequence and the two monotonicity checks on it."""

    worker_error: float
    values: tuple[float, ...]  # group error for 0, 1, ..., k_max + 1 extra pairs
    strictly_decreasing: bool
    diminishing_differences: bool

    @property
    def passed(self) -> bool:
        return self.strictly_decreasing and self.diminishing_differences


def prop1_check(worker_error: float, k_max: int) -> MonotonicityReport:
    """Verify that adding worker pairs always helps, with diminishing returns.

    Checks, for k = 0..k_max, that the fused error strictly decreases from k
    to k+1 and that the absolute improvement never grows with k.
    """
    if k_max < 0:
        raise DomainError(f"k_max must be >= 0, got {k_max}")
    values = tuple(group_error(k, worker_error) for k in range(k_max + 2))
    diffs = [abs(values[k + 1] - values[k]) for k in range(k_max + 1)]
    decreasing = all(values[k + 1] < values[k] for k in range(k_max + 1))
    diminishing = all(diffs[k + 1] <= diffs[k] for k in range(k_max))
    return MonotonicityReport(
        worker_error=worker_error,
        values=values,
        strictly_decreasing=decreasing,
        diminishing_differences=diminishing,
    )
