"""Parsing and serialization of tables, trees, allocations, and reports.

Formats:
  * table: CSV with a ``class`` header line, a ``prior`` line, then one row
    per test with outcomes 0, 1, or ``-`` (undefined);
  * error matrix: same header, one row of per-class error probabilities per
    test;
  * tree: JSON document with a structure checksum of its table;
  * reports: CSV rows under ``#``-prefixed header lines echoing the config.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError, TableMismatch, ValidationError
from .model import (
    DecisionTree,
    Internal,
    Leaf,
    Node,
    TestTable,
    _preorder,
    validate_table,
    validate_tree,
)
from .simulate import ErrorSweepPoint, SimulationReport, WorkerSweepPoint
from .workers import AssignmentStrategy, WorkerAllocation

TREE_FORMAT = "crowdtree/tree-v1"
ALLOCATION_FORMAT = "crowdtree/allocation-v1"


# ---------------------------------------------------------------------------
# Tables


def _split_lines(text: str) -> list[str]:
    return [line.rstrip("\r") for line in text.split("\n")]


def parse_table_text(
    text: str,
    error_prob: float | None = None,
    error_matrix_text: str | None = None,
) -> TestTable:
    """Parse table CSV text, attaching either a scalar error probability or a
    parsed error-matrix file. Raises :class:`ParseError` with line numbers."""
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
        matrix = _parse_error_matrix(error_matrix_text, classes, tests)
        return validate_table(classes, priors, tests, outcomes, matrix)
    return validate_table(
        classes, priors, tests, outcomes, 0.0 if error_prob is None else error_prob
    )


def _parse_error_matrix(
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


def load_table(
    path: str,
    error_prob: float | None = None,
    error_matrix_path: str | None = None,
) -> TestTable:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    matrix_text = None
    if error_matrix_path is not None:
        with open(error_matrix_path, "r", encoding="utf-8") as fh:
            matrix_text = fh.read()
    return parse_table_text(text, error_prob, matrix_text)


_OUTCOME_TEXT = np.array(["-", "0", "1"])


def table_to_text(table: TestTable) -> str:
    """Canonical structural CSV for a table; error probabilities are not part
    of the structure and are omitted."""
    lines = ["class," + ",".join(table.classes)]
    lines.append("prior," + ",".join(repr(p) for p in table.priors))
    cells = _OUTCOME_TEXT[table.outcomes + 1].tolist()  # -1, 0, 1 -> "-", "0", "1"
    lines.extend(
        test_id + "," + ",".join(row) for test_id, row in zip(table.tests, cells)
    )
    return "\n".join(lines) + "\n"


def table_checksum(table: TestTable) -> str:
    """SHA-256 of the canonical structural CSV (classes, priors, outcomes)."""
    return hashlib.sha256(table_to_text(table).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Trees


def _node_to_doc(root: Node) -> dict:
    docs: list[dict] = []  # of the subtrees done so far, the zero child's on top
    for node in reversed(_preorder(root)):
        if isinstance(node, Leaf):
            docs.append({"leaf": node.label})
        else:
            docs.append({"test": node.test, "0": docs.pop(), "1": docs.pop()})
    return docs.pop()


def _node_from_doc(root_doc) -> Node:
    """Check the node documents in preorder; build each node once its children are."""
    built: list[Node] = []  # of the subtrees done so far, the latest on top
    stack = [(root_doc, False)]  # (document, whether its children are built)
    while stack:
        doc, children_built = stack.pop()
        if children_built:
            one, zero = built.pop(), built.pop()
            built.append(Internal(doc["test"], zero, one))
        elif not isinstance(doc, dict):
            raise ParseError(f"tree node must be an object, got {type(doc).__name__}")
        elif "leaf" in doc:
            if set(doc) != {"leaf"} or not isinstance(doc["leaf"], str):
                raise ParseError(f"bad leaf node: {doc!r}")
            built.append(Leaf(doc["leaf"]))
        elif set(doc) != {"test", "0", "1"} or not isinstance(doc.get("test"), str):
            raise ParseError(f"internal node needs exactly 'test', '0', '1': {sorted(doc)}")
        else:
            stack += (doc, True), (doc["1"], False), (doc["0"], False)
    return built.pop()


_TOO_DEEP = "tree nested too deeply for json"


def tree_to_doc(tree: DecisionTree, table: TestTable, builder: Mapping | None = None) -> dict:
    return {
        "format": TREE_FORMAT,
        "table_sha256": table_checksum(table),
        "builder": dict(builder) if builder else {"kind": "manual"},
        "root": _node_to_doc(tree.root),
    }


def tree_from_doc(doc: Mapping, table: TestTable, check_checksum: bool = True) -> DecisionTree:
    """Rebuild and fully validate a tree document against ``table``."""
    if doc.get("format") != TREE_FORMAT:
        raise ParseError(f"unsupported tree format {doc.get('format')!r}")
    if check_checksum and doc.get("table_sha256") != table_checksum(table):
        raise TableMismatch(
            "tree document was built from a different table (checksum mismatch)"
        )
    tree = DecisionTree(_node_from_doc(doc["root"]))
    validate_tree(tree, table)
    return tree


def save_tree(path: str, tree: DecisionTree, table: TestTable, builder: Mapping | None = None) -> None:
    try:
        text = json.dumps(tree_to_doc(tree, table, builder), indent=2)
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_tree(path: str, table: TestTable, check_checksum: bool = True) -> DecisionTree:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ParseError(_TOO_DEEP) from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad tree document: {exc.msg}", exc.lineno) from None
    return tree_from_doc(doc, table, check_checksum)


# ---------------------------------------------------------------------------
# Allocations


def allocation_to_doc(allocation: WorkerAllocation) -> dict:
    tests = [
        {
            "test": t,
            "extra_pairs": k,
            "workers": 2 * k + 1,
            "effective_error": allocation.effective_error(t),
        }
        for t, k in allocation.extra_pairs.items()
    ]
    return {
        "format": ALLOCATION_FORMAT,
        "strategy": allocation.strategy.value,
        "worker_error": allocation.worker_error,
        "budget": allocation.total_pairs() if not allocation.shared_pool else (
            max(allocation.extra_pairs.values()) if allocation.extra_pairs else 0
        ),
        "seed": allocation.seed,
        "shared_pool": allocation.shared_pool,
        "tests": tests,
    }


def allocation_from_doc(doc: Mapping) -> WorkerAllocation:
    if doc.get("format") != ALLOCATION_FORMAT:
        raise ParseError(f"unsupported allocation format {doc.get('format')!r}")
    try:
        strategy = AssignmentStrategy(doc["strategy"])
        pairs = {row["test"]: row["extra_pairs"] for row in doc["tests"]}
        return WorkerAllocation(
            extra_pairs=pairs,
            worker_error=float(doc["worker_error"]),
            strategy=strategy,
            seed=doc.get("seed"),
            shared_pool=bool(doc.get("shared_pool", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad allocation document: {exc}") from None


def save_allocation(path: str, allocation: WorkerAllocation) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(allocation_to_doc(allocation), fh, indent=2)
        fh.write("\n")


def load_allocation(path: str) -> WorkerAllocation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad allocation document: {exc.msg}", exc.lineno) from None
    return allocation_from_doc(doc)


# ---------------------------------------------------------------------------
# Reports


def _header_lines(header: Mapping) -> list[str]:
    return [f"# {key}={value}" for key, value in header.items()]


def error_sweep_csv(points: Sequence[ErrorSweepPoint], header: Mapping) -> str:
    lines = _header_lines(header)
    lines.append("error_prob,designed_pm,random_mean_pm,random_std_pm")
    for p in points:
        lines.append(
            f"{p.error_prob!r},{p.designed_pm!r},{p.random_mean_pm!r},{p.random_std_pm!r}"
        )
    return "\n".join(lines) + "\n"


def worker_sweep_csv(points: Sequence[WorkerSweepPoint], header: Mapping) -> str:
    lines = _header_lines(header)
    lines.append("budget,strategy,pm")
    for p in points:
        lines.append(f"{p.budget},{p.strategy.value},{p.pm!r}")
    return "\n".join(lines) + "\n"


def simulation_report_csv(report: SimulationReport, table: TestTable) -> str:
    header = {
        "seed": report.seed,
        "lanes": report.lanes,
        "trials": report.trials,
        "allocation": json.dumps(report.config.get("allocation")),
    }
    lines = _header_lines(header)
    lines.append("quantity,value")
    lines.append(f"misclassified,{report.misclassified}")
    lines.append(f"p_hat,{report.p_hat!r}")
    lines.append(f"ci_low,{report.ci_low!r}")
    lines.append(f"ci_high,{report.ci_high!r}")
    lines.append(f"mean_questions,{report.mean_questions!r}")
    lines.append("confusion,true_class,leaf_class,count")
    rows, cols = np.nonzero(report.confusion)  # in row-major order
    counts = report.confusion[rows, cols].tolist()
    for i, j, count in zip(rows.tolist(), cols.tolist(), counts):
        lines.append(f"confusion,{table.classes[i]},{table.classes[j]},{count}")
    return "\n".join(lines) + "\n"
