"""Bundled five-class demo instance and its two reference trees.

The instance has five classes with skewed priors and five binary tests, one
of which is undefined for the heaviest class. It is small enough to inspect
by hand yet rich enough to exercise every part of the library, and it is
used throughout the tests and the README walkthrough.
"""

from __future__ import annotations

from .fileio import parse_table_text
from .model import DecisionTree, Internal, Leaf, TestTable

DEMO_TABLE_CSV = """\
class,c1,c2,c3,c4,c5
prior,0.2,0.05,0.1,0.6,0.05
T1,0,0,0,1,0
T2,1,0,0,1,1
T3,0,1,0,0,1
T4,0,1,0,1,1
T5,0,1,1,-,1
"""


def demo_table(error_prob: float = 0.05) -> TestTable:
    """The demo instance with a flat scalar test error probability."""
    return parse_table_text(DEMO_TABLE_CSV, error_prob)


def designed_tree() -> DecisionTree:
    """The tree the greedy builder produces on the demo instance.

    It isolates the heavy class at the root and resolves the light classes
    one per level: T1, then T5, T3, T2.
    """
    return DecisionTree(
        Internal(
            "T1",
            Internal(
                "T5",
                Leaf("c1"),
                Internal("T3", Leaf("c3"), Internal("T2", Leaf("c2"), Leaf("c5"))),
            ),
            Leaf("c4"),
        )
    )


def alternative_tree() -> DecisionTree:
    """A valid but worse ordering of the same tests, rooted at T3."""
    return DecisionTree(
        Internal(
            "T3",
            Internal("T4", Internal("T5", Leaf("c1"), Leaf("c3")), Leaf("c4")),
            Internal("T2", Leaf("c2"), Leaf("c5")),
        )
    )
