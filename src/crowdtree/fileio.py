"""Parsing and serialization of tables, trees, allocations, and reports.

Formats:
  * table: CSV with a ``class`` header line, a ``prior`` line, then one row
    per test with outcomes 0, 1, or ``-`` (undefined);
  * error matrix: same header, one row of per-class error probabilities per
    test;
  * tree: JSON document with a structure checksum of its table and its
    nodes in preorder, ``[test]`` or ``["leaf", label]`` one a line
    (``crowdtree/tree-v2``); the nested ``crowdtree/tree-v1`` is still read;
  * reports: CSV rows under ``#``-prefixed header lines echoing the config.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _encode_string
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError, TableMismatch, ValidationError
from .model import (
    DecisionTree,
    Internal,
    Leaf,
    Node,
    TestTable,
    _checked_table,
    _preorder,
    validate_tree,
)
from .simulate import ErrorSweepPoint, SimulationReport, WorkerSweepPoint
from .workers import AssignmentStrategy, WorkerAllocation

TREE_FORMAT = "crowdtree/tree-v2"
_TREE_FORMAT_V1 = "crowdtree/tree-v1"  # still read: one object per node, nested
ALLOCATION_FORMAT = "crowdtree/allocation-v1"


# ---------------------------------------------------------------------------
# Tables


def _split_lines(text: str) -> list[str]:
    """The lines of ``text``, without their ``\\r`` and trailing blank lines."""
    lines = [line.rstrip("\r") for line in text.split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    return lines


def parse_table_text(
    text: str,
    error_prob: float | None = None,
    error_matrix_text: str | None = None,
) -> TestTable:
    """Parse table CSV text, attaching either a scalar error probability or a
    parsed error-matrix file. Raises :class:`ParseError` with line numbers."""
    lines = _split_lines(text)
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
    tests, outcomes = _parse_outcomes(lines[2:], len(classes))

    if error_matrix_text is not None:
        if error_prob is not None:
            raise ValidationError("give either a scalar error or a matrix, not both")
        errors = _parse_error_matrix(error_matrix_text, classes, tests)
    else:
        errors = 0.0 if error_prob is None else error_prob
    return _checked_table(tuple(classes), priors, tuple(tests), outcomes, errors)


# per byte: the outcome code of a one-character cell, 2 where no cell has it
_OUTCOME_CODE = np.full(256, 2, dtype=np.int8)
_OUTCOME_CODE[list(b"-01")] = -1, 0, 1
_COMMA = ord(",")


def _parse_outcomes(lines: list[str], n: int) -> tuple[list[str], np.ndarray]:
    """(test ids, int8 outcomes) of the test rows ``lines`` of a table with
    ``n`` classes. A well-formed row is its id, then ``n`` one-byte cells
    after commas, so the rows' cells, joined by commas, are one byte string
    in which every even byte is a cell and every odd one a comma; they are
    read in one pass through a byte table. Otherwise the first bad row, in
    line order, raises from :func:`_outcome_row`."""
    tests, _, cells = zip(*(line.partition(",") for line in lines))
    grid = np.frombuffer((",".join(cells) + ",").encode("utf-8"), dtype=np.uint8)
    if all(len(row) == 2 * n - 1 for row in cells) and grid.size == 2 * n * len(lines):
        grid = grid.reshape(len(lines), n, 2)
        codes = _OUTCOME_CODE[grid[:, :, 0]]
        if (grid[:, :, 1] == _COMMA).all() and (codes < 2).all():
            return list(tests), codes
    for lineno, line in enumerate(lines, start=3):
        _outcome_row(line, lineno, n)
    raise AssertionError("a table row failed the byte check but parses")


def _outcome_row(line: str, lineno: int, n: int) -> None:
    """Raise the :class:`ParseError` of the test row ``line``, if it has one."""
    if not line:
        raise ParseError("blank line inside table", lineno)
    row = line.split(",")
    if len(row) != n + 1:
        raise ParseError(f"expected {n} outcomes, got {len(row) - 1}", lineno)
    for cell in row[1:]:
        if cell not in ("-", "0", "1"):
            raise ParseError(f"outcome must be 0, 1 or '-', got {cell!r}", lineno)


def _parse_error_matrix(text: str, classes: Sequence[str], tests: Sequence[str]) -> np.ndarray:
    """The error matrix's rows in the order of ``tests``. A well-formed file
    has one row per test with ``len(classes)`` values, which are read in one
    flat pass by :func:`_read_rows`; otherwise the first bad row, in line
    order, raises from :func:`_error_row`."""
    lines = _split_lines(text)
    if not lines:
        raise ParseError("empty error matrix", 1)
    head = lines[0].split(",")
    if head[0] != "class" or head[1:] != list(classes):
        raise ParseError("error matrix header must list the table's classes", 1)
    n, known = len(classes), set(tests)
    rows = [line.partition(",") for line in lines[1:]]
    values = [cells for _, _, cells in rows]
    row_of = {test_id: r for r, (test_id, _, _) in enumerate(rows)}
    if len(row_of) == len(rows) and known.issuperset(row_of):
        matrix = _read_rows(values, n)
        if matrix is not None:
            missing = [t for t in tests if t not in row_of]
            if missing:
                raise ParseError(f"no error row for tests {missing}")
            return matrix[[row_of[t] for t in tests]]
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        _error_row(line, lineno, n, seen, known)
    raise AssertionError("an error row failed the flat read but parses")


def _error_row(line: str, lineno: int, n: int, seen: set, known: set) -> None:
    """Raise the :class:`ParseError` of the error row ``line``, if it has
    one, given the ids of the rows above it in ``seen``; adds its id."""
    row = line.split(",")
    if len(row) != n + 1:
        raise ParseError(f"expected {n} error entries", lineno)
    if row[0] in seen:
        raise ParseError(f"duplicate error row for test {row[0]!r}", lineno)
    if row[0] not in known:
        raise ParseError(f"error row for unknown test {row[0]!r}", lineno)
    try:
        list(map(float, row[1:]))
    except ValueError as exc:
        raise ParseError(f"bad error value: {exc}", lineno) from None
    seen.add(row[0])


# Below this many cells, reading each cell with ``float`` is as fast as the
# fixed cost of :func:`_read_plain_decimals`' array passes: on ``repr``
# cells they break even near 240 cells on a 2-core x86-64 VM.
_VECTOR_READ_MIN_CELLS = 256
_MAX_FRACTION_DIGITS = 22  # 10**22 is the largest power of ten a float holds exactly
_POW10 = np.array([float(10**k) for k in range(_MAX_FRACTION_DIGITS + 1)])
_POINT, _ZERO, _NINE = ord("."), ord("0"), ord("9")
_SPLITTER = float((1 << 27) + 1)  # splits a float into two 26-bit halves


def _read_rows(rows: list[str], n: int) -> np.ndarray | None:
    """The ``len(rows) × n`` float64 matrix of the comma-separated cells of
    ``rows``, each with the bits ``float`` gives it, or None unless every row
    has ``n`` cells and ``float`` reads each."""
    if not rows:
        return np.empty((0, n))
    joined = ",".join(rows)
    if len(rows) * n >= _VECTOR_READ_MIN_CELLS:
        ends = np.cumsum([len(row) + 1 for row in rows]) - 1
        values = _read_plain_decimals(joined, ends, n)
        if values is not None:
            return values.reshape(-1, n)
    if not all(row.count(",") == n - 1 for row in rows):
        return None
    try:
        return np.array(list(map(float, joined.split(","))), dtype=np.float64).reshape(-1, n)
    except ValueError:
        return None


def _read_plain_decimals(joined: str, ends: np.ndarray, n: int) -> np.ndarray | None:
    """The cells of ``joined``, rows of ``n`` cells that end at the offsets
    ``ends``, as :func:`_read_rows` reads them, when each cell is ASCII
    ``digits.digits`` with at most 22 fraction digits and at most 2**62 - 1
    as an integer without its point; otherwise None.

    A cell's digits without its point are an integer ``w`` and its fraction
    digits a count ``s``, so its value is ``x = w / 10**s``. Below 2**53 both
    operands are exact floats, and one division rounds ``x`` correctly
    (Clinger, 1990). From 2**53, ``q = fl(fl(w) / 10**s)`` lies within 1.5
    units in the last place of ``x``, and the exact residual ``w - q·10**s``,
    from a two-product, tells how many units ``x`` lies from ``q``. A cell
    whose ``x`` lies near a midpoint of two floats, or whose ``q`` or result
    is a power of two, is read with ``float`` alone."""
    if not joined.isascii():
        return None
    raw = joined.encode("ascii")
    text = np.frombuffer(raw, dtype=np.uint8)
    if text.max() > _NINE:
        return None
    marks = np.flatnonzero(text < _ZERO)  # point, comma, point, ..., point when well formed
    points, commas = marks[0::2], marks[1::2]
    if (
        marks.size != 2 * n * ends.size - 1
        or marks[0] == 0
        or marks[-1] == text.size - 1
        or (np.diff(marks) < 2).any()
        or (text[points] != _POINT).any()
        or (text[commas] != _COMMA).any()
        or (commas[n - 1 :: n] != ends[:-1]).any()  # each row has n cells
    ):
        return None
    digits = np.append(commas, text.size) - points - 1
    if digits.max() > _MAX_FRACTION_DIGITS:
        return None
    w = np.fromstring(raw.replace(b".", b""), dtype=np.int64, sep=",")
    if w.max() >= 1 << 62:  # past 2**63 - 1, a cell reads as 2**63 - 1
        return None
    scale = _POW10[digits]
    values = w / scale
    big = np.flatnonzero(w >= 1 << 53)
    if big.size:
        q, p = values[big], scale[big]
        hi = q * p
        lo = _product_error(q, p, hi)
        ulp = np.spacing(q)
        # (x - q) / ulp; w - hi is exact in integers once hi >= 2**53
        units = ((w[big] - hi.astype(np.int64)) - lo) / (p * ulp)
        step = np.rint(units)
        values[big] = fixed = q + step * ulp
        q_mant, q_exp = np.frexp(q)
        fixed_mant, fixed_exp = np.frexp(fixed)
        redo = big[
            (hi < 1 << 53)
            | (np.abs(units - step) > 0.5 - 2.0**-20)
            | (q_mant == 0.5)
            | (fixed_mant == 0.5)
            | (q_exp != fixed_exp)
        ]
        if redo.size:
            cells = joined.split(",")
            values[redo] = [float(cells[i]) for i in redo.tolist()]
    return values


def _product_error(a: np.ndarray, b: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """``a·b - ab`` exactly, where ``ab = fl(a·b)`` and nothing under- or
    overflows (Dekker's two-product)."""
    a_hi, a_lo = _split_float(a)
    b_hi, b_lo = _split_float(b)
    return a_lo * b_lo - (((ab - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _split_float(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` with ``hi + lo == a`` exactly and 26 significant bits each."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


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


_CELL_TEXT = np.frombuffer(b"-,0,1,", dtype=np.uint16)  # at outcome + 1: its cell and a comma


def _table_bytes(table: TestTable) -> bytes:
    """:func:`table_to_text` in UTF-8. The test rows' cells are written as
    two-byte (cell, comma) units; each row's last comma becomes its newline."""
    width = 2 * table.n_classes
    cells = bytearray(_CELL_TEXT[table.outcomes + 1].tobytes())
    cells[width - 1 :: width] = b"\n" * len(table.tests)
    head = "class," + ",".join(table.classes) + "\nprior," + ",".join(map(repr, table.priors))
    parts = [(head + "\n").encode("utf-8")]
    for r, test_id in enumerate(table.tests):
        parts += (test_id + ",").encode("utf-8"), cells[r * width : (r + 1) * width]
    return b"".join(parts)


def table_to_text(table: TestTable) -> str:
    """Canonical structural CSV for a table; error probabilities are not part
    of the structure and are omitted."""
    return _table_bytes(table).decode("utf-8")


def table_checksum(table: TestTable) -> str:
    """SHA-256 of the canonical structural CSV (classes, priors, outcomes),
    memoised on the table, whose parts never change."""
    digest = table.__dict__.get("_sha256")
    if digest is None:
        digest = hashlib.sha256(_table_bytes(table)).hexdigest()
        object.__setattr__(table, "_sha256", digest)
    return digest


# ---------------------------------------------------------------------------
# Trees


def _node_from_preorder(entries) -> Node:
    """Check the node entries of a v2 document and build each node in one
    reversed pass: each internal node comes just before its two subtrees.
    If the pass fails, the first malformed entry in preorder is named, as
    in a v1 document, before any error of the tree's shape."""
    if not isinstance(entries, list):
        raise ParseError(f"bad tree document: 'preorder' is a {type(entries).__name__}, "
                         "not a list")
    built: list[Node] = []  # of the subtrees done so far, the latest on top
    for k in range(len(entries) - 1, -1, -1):
        entry = entries[k]  # checked by isinstance and len, several times faster than a match
        if (isinstance(entry, list) and len(entry) == 1 and isinstance(entry[0], str)
                and len(built) >= 2):
            built.append(Internal(entry[0], built.pop(), built.pop()))
        elif (isinstance(entry, list) and len(entry) == 2 and entry[0] == "leaf"
              and isinstance(entry[1], str)):
            built.append(Leaf(entry[1]))
        else:
            break
    else:
        if len(built) != 1:
            raise ParseError(f"bad tree document: 'preorder' holds {len(built)} trees, not one")
        return built.pop()
    for j, entry in enumerate(entries[: k + 1]):  # the entries after k are well formed
        if not _well_formed(entry):
            raise ParseError(f'tree node {j} must be [test] or ["leaf", label] with string '
                             f"ids, got {entry!r}")
    raise ParseError(f"bad tree document: 'preorder' ends inside node {k}'s subtree")


def _well_formed(entry) -> bool:
    """Whether ``entry`` is a v2 node entry, ``[test]`` or ``["leaf", label]``."""
    return isinstance(entry, list) and (
        len(entry) == 1 and isinstance(entry[0], str)
        or len(entry) == 2 and entry[0] == "leaf" and isinstance(entry[1], str)
    )


def _v1_preorder(root_doc) -> list:
    """The v2 ``"preorder"`` entries of a v1 node document, each node
    checked as the walk meets it."""
    entries, stack = [], [root_doc]  # the nodes still to visit, the next on top
    while stack:
        doc = stack.pop()
        if not isinstance(doc, dict):
            raise ParseError(f"tree node must be an object, got {type(doc).__name__}")
        if "leaf" in doc:
            if set(doc) != {"leaf"} or not isinstance(doc["leaf"], str):
                raise ParseError(f"bad leaf node: {doc!r}")
            entries.append(["leaf", doc["leaf"]])
        elif set(doc) != {"test", "0", "1"} or not isinstance(doc.get("test"), str):
            raise ParseError(f"internal node needs exactly 'test', '0', '1': {sorted(doc)}")
        else:
            entries.append([doc["test"]])
            stack += doc["1"], doc["0"]
    return entries


def _tree_head(table: TestTable, builder: Mapping | None) -> dict:
    """The tree document's members before its ``"preorder"``."""
    return {
        "format": TREE_FORMAT,
        "table_sha256": table_checksum(table),
        "builder": dict(builder) if builder else {"kind": "manual"},
    }


def tree_to_doc(tree: DecisionTree, table: TestTable, builder: Mapping | None = None) -> dict:
    nodes = [[node.test] if isinstance(node, Internal) else ["leaf", node.label]
             for node in _preorder(tree.root)]
    return {**_tree_head(table, builder), "preorder": nodes}


def _object(doc, kind: str) -> Mapping:
    """``doc``, if it is a JSON object; else raise ParseError."""
    if not isinstance(doc, Mapping):
        raise ParseError(f"{kind} document must be an object, got {type(doc).__name__}")
    return doc


def tree_from_doc(doc: Mapping, table: TestTable, check_checksum: bool = True) -> DecisionTree:
    """Rebuild and fully validate a v2 or v1 tree document against ``table``."""
    version = _object(doc, "tree").get("format")
    if version not in (TREE_FORMAT, _TREE_FORMAT_V1):
        raise ParseError(f"unsupported tree format {version!r}")
    if check_checksum and doc.get("table_sha256") != table_checksum(table):
        raise TableMismatch(
            "tree document was built from a different table (checksum mismatch)"
        )
    member = "preorder" if version == TREE_FORMAT else "root"
    if member not in doc:
        raise ParseError(f"bad tree document: no {member!r}")
    entries = doc[member] if version == TREE_FORMAT else _v1_preorder(doc[member])
    tree = DecisionTree(_node_from_preorder(entries))
    validate_tree(tree, table)
    return tree


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _read_json(path: str, kind: str):
    """The JSON document in ``path``; bad JSON or nesting past json's limit raises."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ParseError(f"{kind} nested too deeply for json") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad {kind} document: {exc.msg}", exc.lineno) from None


def save_tree(path: str, tree: DecisionTree, table: TestTable, builder: Mapping | None = None) -> None:
    """Write ``tree_to_doc(tree, table, builder)`` as JSON: the members
    before ``"preorder"`` as ``json.dumps(..., indent=2)`` lays them out,
    then one node a line, its ids written by json's own string encoder."""
    nodes = ",\n    ".join([
        "[" + _encode_string(node.test) + "]" if isinstance(node, Internal)
        else '["leaf", ' + _encode_string(node.label) + "]"
        for node in _preorder(tree.root)
    ])
    head = json.dumps(_tree_head(table, builder), indent=2)[:-2]  # without its closing "\n}"
    _write_text(path, head + ',\n  "preorder": [\n    ' + nodes + "\n  ]\n}")


def load_tree(path: str, table: TestTable, check_checksum: bool = True) -> DecisionTree:
    return tree_from_doc(_read_json(path, "tree"), table, check_checksum)


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
    if _object(doc, "allocation").get("format") != ALLOCATION_FORMAT:
        raise ParseError(f"unsupported allocation format {doc.get('format')!r}")
    try:
        strategy = AssignmentStrategy(doc["strategy"])
        pairs = {}
        for row in doc["tests"]:
            if row["test"] in pairs:
                raise ParseError(f"duplicate allocation row for test {row['test']!r}")
            pairs[row["test"]] = row["extra_pairs"]
        allocation = WorkerAllocation(
            extra_pairs=pairs,
            worker_error=float(doc["worker_error"]),
            strategy=strategy,
            seed=doc.get("seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad allocation document: {exc}") from None
    # the strategy decides it; a document that says otherwise is inconsistent
    if bool(doc.get("shared_pool", allocation.shared_pool)) != allocation.shared_pool:
        raise ParseError(
            f"bad allocation document: shared_pool {doc['shared_pool']!r} contradicts "
            f"strategy {strategy.value!r}"
        )
    return allocation


def save_allocation(path: str, allocation: WorkerAllocation) -> None:
    _write_text(path, json.dumps(allocation_to_doc(allocation), indent=2))


def load_allocation(path: str) -> WorkerAllocation:
    return allocation_from_doc(_read_json(path, "allocation"))


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
