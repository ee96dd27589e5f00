"""Seeded synthetic classification tables for the benchmark.

A table of ``n`` classes has ``round(1.5 * n)`` tests. Outcomes are fair
coin flips. About 10% of all cells are undefined, and they all sit in the
odd-numbered tests (20% of those tests' cells): with the same share spread
uniformly over every test, a table of 24 or more classes often has no test
defined on every class, so even the root block cannot be split. Each
defined cell gets its own error probability, uniform in ``ERROR_RANGE``;
priors are Gamma(2)-distributed and normalised.

A draw is kept only if every pair of classes is told apart by some fully
defined test. A fully defined test splits every block whose classes it
tells apart, so the builders can never meet an unsplittable block; any
other draw is redrawn from the same generator.

Table ``(n, index)`` is one fixed member of a family drawn from
``FAMILY_SEED``. The workload seed shuffles the order of its class columns
(priors and errors move with their class), which gives every seed its own
files and checksums while keeping the instance, and so the work of
building, evaluating and simulating it, the same. A fresh draw per seed
would not: one 100-class greedy build takes from 3 s to 6 s depending on
the draw, which would swamp the run-to-run comparison.
"""

from __future__ import annotations

import numpy as np

FAMILY_SEED = 0
TESTS_PER_CLASS = 1.5
UNDEFINED_SHARE_SPARSE_TESTS = 0.2  # odd tests only, so ~10% of all cells
ERROR_RANGE = (0.02, 0.08)
_MAX_DRAWS = 1000


def _draw_outcomes(rng: np.random.Generator, n_classes: int, n_tests: int) -> np.ndarray:
    """Outcome matrix (tests x classes) with -1 for undefined cells; every
    test shows both outcomes on its defined cells."""
    out = np.empty((n_tests, n_classes), dtype=np.int8)
    for m in range(n_tests):
        while True:
            row = rng.integers(0, 2, size=n_classes).astype(np.int8)
            if m % 2 == 1:
                row[rng.random(n_classes) < UNDEFINED_SHARE_SPARSE_TESTS] = -1
            if (row == 0).any() and (row == 1).any():
                out[m] = row
                break
    return out


def separable(outcomes: np.ndarray) -> bool:
    """True when every class pair differs on some fully defined test."""
    full = outcomes[(outcomes >= 0).all(axis=1)]
    codes = {full[:, i].tobytes() for i in range(full.shape[1])}
    return full.shape[0] > 0 and len(codes) == full.shape[1]


def synthetic_table(n_classes: int, index: int, seed: int) -> tuple[str, str]:
    """(table CSV, error-matrix CSV) of family member ``(n_classes, index)``
    with its class columns in the order drawn from ``seed``."""
    n_tests = round(TESTS_PER_CLASS * n_classes)
    rng = np.random.default_rng([FAMILY_SEED, n_classes, index])
    for _ in range(_MAX_DRAWS):
        outcomes = _draw_outcomes(rng, n_classes, n_tests)
        if separable(outcomes):
            break
    else:
        raise RuntimeError(f"no separable {n_classes}-class table in {_MAX_DRAWS} draws")
    priors = rng.gamma(2.0, size=n_classes)
    priors = priors / priors.sum()
    errors = rng.uniform(*ERROR_RANGE, size=(n_tests, n_classes))

    order = np.random.default_rng([seed, n_classes, index]).permutation(n_classes)
    head = "class," + ",".join(f"c{i + 1}" for i in order)
    table_lines = [head, "prior," + ",".join(repr(float(priors[i])) for i in order)]
    error_lines = [head]
    for m in range(n_tests):
        row = outcomes[m, order]
        table_lines.append(f"T{m + 1}," + ",".join("-" if v < 0 else str(int(v)) for v in row))
        # Undefined cells carry no error model; the parser skips their values.
        error_lines.append(f"T{m + 1}," + ",".join(repr(float(e)) for e in errors[m, order]))
    return "\n".join(table_lines) + "\n", "\n".join(error_lines) + "\n"
