import dataclasses
import importlib
import json
import math
import os
import random
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdtree import (
    AssignmentStrategy,
    DecisionTree,
    Internal,
    Leaf,
    assign_baseline,
    assign_proposed,
    sweep_error,
)
from crowdtree.builder import BuilderConfig, build_greedy, build_random
from crowdtree.errors import ParseError, TableMismatch, UnknownTest, ValidationError
from crowdtree.fileio import (
    allocation_from_doc,
    allocation_to_doc,
    error_sweep_csv,
    load_allocation,
    load_table,
    load_tree,
    parse_table_text,
    save_allocation,
    save_tree,
    simulation_report_csv,
    table_checksum,
    table_to_text,
    tree_from_doc,
    tree_to_doc,
    worker_sweep_csv,
)
from crowdtree.fixtures import DEMO_TABLE_CSV, demo_table, designed_tree
from crowdtree.metrics import Metric, MetricConfig
from crowdtree.simulate import simulate, sweep_workers

import support


def test_parse_demo_csv_matches_fixture():
    parsed = parse_table_text(DEMO_TABLE_CSV, error_prob=0.05)
    fixture = demo_table(0.05)
    assert parsed.classes == fixture.classes
    assert parsed.tests == fixture.tests
    assert parsed.priors == fixture.priors
    assert (parsed.outcomes == fixture.outcomes).all()
    assert table_checksum(parsed) == table_checksum(fixture)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_table_text("class,a,b\nT1,0,1\nT2,1,0\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_table_text("class,a,b\nprior,0.5,0.5\nT1,0,2\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_table_text("class,a,b\nprior,0.5\nT1,0,1\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_table_text("")


def test_parse_crlf_tolerated():
    parsed = parse_table_text(DEMO_TABLE_CSV.replace("\n", "\r\n"), error_prob=0.05)
    assert parsed.classes == demo_table().classes


def test_error_matrix_parsing():
    matrix = (
        "class,c1,c2,c3,c4,c5\n"
        "T1,0.01,0.01,0.01,0.01,0.01\n"
        "T2,0.02,0.02,0.02,0.02,0.02\n"
        "T3,0.03,0.03,0.03,0.03,0.03\n"
        "T4,0.04,0.04,0.04,0.04,0.04\n"
        "T5,0.05,0.05,0.05,0.44,0.05\n"
    )
    table = parse_table_text(DEMO_TABLE_CSV, error_matrix_text=matrix)
    assert table.error("T2", "c3") == 0.02
    assert math.isnan(table.error("T5", "c4"))  # undefined cell ignores the file value
    with pytest.raises(ParseError):
        parse_table_text(DEMO_TABLE_CSV, error_matrix_text="class,a\nT1,0.1\n")
    missing = "class,c1,c2,c3,c4,c5\nT1,0.01,0.01,0.01,0.01,0.01\n"
    with pytest.raises(ParseError):
        parse_table_text(DEMO_TABLE_CSV, error_matrix_text=missing)
    with pytest.raises(ValidationError):
        parse_table_text(DEMO_TABLE_CSV, error_prob=0.05, error_matrix_text=matrix)


fileio = importlib.import_module("crowdtree.fileio")


def _float_bits(cells):
    return np.array(list(map(float, cells)), dtype=np.float64).view(np.uint64)


def _plain_read(cells):
    """The vectorised read of ``cells`` as one row, or None where it declines."""
    joined = ",".join(cells)
    return fileio._read_plain_decimals(joined, np.array([len(joined)]), len(cells))


def _is_plain(cell):
    return re.fullmatch(r"[0-9]+\.[0-9]{1,22}", cell) and int(cell.replace(".", "")) < 2**62


def _assert_reads_as_float(cells):
    """Both reads give ``float``'s bits, and the vectorised one declines
    exactly the matrices that hold a cell outside its layout."""
    got = _plain_read(cells)
    if all(map(_is_plain, cells)):
        assert got is not None and got.view(np.uint64).tolist() == _float_bits(cells).tolist()
    else:
        assert got is None
    rows = fileio._read_rows([",".join(cells)], len(cells))
    assert rows.view(np.uint64).ravel().tolist() == _float_bits(cells).tolist()


_PLAIN_FLOATS = st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            _PLAIN_FLOATS.map(repr),
            st.tuples(_PLAIN_FLOATS, st.integers(1, 23)).map(lambda x: format(x[0], f".{x[1]}f")),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_vectorised_read_has_the_bits_of_float(cells):
    _assert_reads_as_float(cells)


def test_vectorised_read_fixed_cases():
    cases = [
        # exact binary midpoints, which round to the even neighbour
        "4503599627370496.5", "4503599627370497.5", "9007199254740993.0",
        "9007199254740995.0", "18014398509481986.0", "18014398509481990.0",
        # w at 2**53 - 1, 2**53 and 2**53 + 1
        "900719925474099.1", "900719925474099.2", "900719925474099.3",
        "0.9007199254740991", "0.9007199254740992", "0.9007199254740993",
        # results that are powers of two, from above and below
        "1.0000000000000000", "0.99999999999999999", "1.0000000000000001",
        "0.50000000000000000", "0.1250000000000000001", "2.0000000000000000",
        # 22 and 23 fraction digits
        "0.0000012345678901234567", "0.1234567890123456789012", "0.12345678901234567890123",
        # digit strings at 2**62 - 1, 2**62 and past 2**63
        "4611686018427387.903", "4611686018427387.904", "12345678901234567890123.5",
        # leading zeros and zero
        "000.5", "007.25000", "0.0000000000000000001", "0.0", "00.000",
    ]
    for cell in cases:
        _assert_reads_as_float([cell])
    _assert_reads_as_float(cases)
    _assert_reads_as_float([c for c in cases if _is_plain(c)])


def test_vectorised_read_near_midpoints():
    # truncations of the exact midpoint of two neighbouring floats, moved by
    # one unit of their last digit: residuals of a tiny fraction of a unit
    rng = random.Random(5)
    cells = []
    for _ in range(1000):
        x = rng.uniform(1e-6, 1e6) if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
        whole, fraction = format((Decimal(x) + Decimal(np.nextafter(x, 2.0 * x + 1.0))) / 2,
                                 "f").split(".")
        keep = max(k for k in range(1, 23) if int(whole + fraction[:k]) < 2**62)
        w = int(whole + fraction[:keep])
        for digits in (str(w + d).rjust(keep + 1, "0") for d in (-1, 0, 1)):
            cells.append(digits[:-keep] + "." + digits[-keep:])
    assert all(map(_is_plain, cells))
    _assert_reads_as_float(cells)


def _matrix(n_classes, n_tests, seed):
    """(error-matrix text, classes, tests) with ``repr`` cells."""
    rng = random.Random(seed)
    classes = [f"c{i}" for i in range(1, n_classes + 1)]
    tests = [f"T{j}" for j in range(1, n_tests + 1)]
    lines = ["class," + ",".join(classes)]
    lines += [t + "," + ",".join(repr(rng.uniform(0.02, 0.08)) for _ in classes) for t in tests]
    return "\n".join(lines) + "\n", classes, tests


def test_wide_repr_matrix_takes_the_vectorised_read(monkeypatch):
    reads = []

    def spy(*args):
        reads.append(real(*args))
        return reads[-1]

    real = fileio._read_plain_decimals
    monkeypatch.setattr(fileio, "_read_plain_decimals", spy)
    text, classes, tests = _matrix(40, 60, seed=3)
    matrix = fileio._parse_error_matrix(text, classes, tests)
    assert len(reads) == 1 and reads[0] is not None
    cells = [cell for line in text.split("\n")[1:-1] for cell in line.split(",")[1:]]
    assert matrix.view(np.uint64).ravel().tolist() == _float_bits(cells).tolist()
    # a 12-class matrix of 216 cells stays below the crossover
    fileio._parse_error_matrix(*_matrix(12, 18, seed=3))
    assert len(reads) == 1


def test_table_text_roundtrip():
    table = demo_table(0.05)
    again = parse_table_text(table_to_text(table), error_prob=0.05)
    assert table_checksum(again) == table_checksum(table)


def test_checksum_ignores_error_probs():
    assert table_checksum(demo_table(0.05)) == table_checksum(demo_table(0.3))


def test_tree_document_roundtrip():
    table = demo_table(0.05)
    tree = designed_tree()
    doc = tree_to_doc(tree, table, {"kind": "greedy", "metric": "additive"})
    assert tree_from_doc(doc, table) == tree
    assert doc["format"] == "crowdtree/tree-v2"
    assert doc["preorder"][:3] == [["T1"], ["T5"], ["leaf", "c1"]]
    assert doc["preorder"][-1] == ["leaf", "c4"]
    text = json.dumps(doc)
    assert tree_from_doc(json.loads(text), table) == tree


def test_tree_document_checksum_mismatch():
    table = demo_table(0.05)
    doc = tree_to_doc(designed_tree(), table)
    other = parse_table_text(
        DEMO_TABLE_CSV.replace("0.2,0.05,0.1,0.6,0.05", "0.6,0.05,0.1,0.2,0.05"),
        error_prob=0.05,
    )
    with pytest.raises(TableMismatch):
        tree_from_doc(doc, other)
    # explicit opt-out skips the check but still validates structure
    assert tree_from_doc(doc, other, check_checksum=False)


def test_tree_document_unknown_test():
    table = demo_table(0.05)
    doc = tree_to_doc(designed_tree(), table)
    doc["preorder"][0] = ["T9"]
    with pytest.raises(UnknownTest):
        tree_from_doc(doc, table)


def test_tree_document_bad_nodes():
    table = demo_table(0.05)
    doc = tree_to_doc(designed_tree(), table)
    doc["preorder"][2] = ["leaf", "c1", "extra"]
    with pytest.raises(ParseError):
        tree_from_doc(doc, table)
    doc = {**doc, "format": "crowdtree/tree-v1", "root": {"leaf": "c1", "extra": 1}}
    with pytest.raises(ParseError):
        tree_from_doc(doc, table)
    with pytest.raises(ParseError):
        tree_from_doc({"format": "nope", "root": {}}, table)


def test_tree_file_roundtrip(tmp_path):
    table = demo_table(0.05)
    path = tmp_path / "tree.json"
    save_tree(str(path), designed_tree(), table, {"kind": "manual"})
    assert load_tree(str(path), table) == designed_tree()


def test_allocation_roundtrip(tmp_path):
    table = demo_table(0.05)
    alloc, _ = assign_proposed(designed_tree(), table, 5, 0.2)
    doc = allocation_to_doc(alloc)
    assert doc["budget"] == 5
    again = allocation_from_doc(doc)
    assert again.extra_pairs == dict(alloc.extra_pairs)
    assert again.worker_error == alloc.worker_error
    assert again.strategy is AssignmentStrategy.PROPOSED
    path = tmp_path / "alloc.json"
    save_allocation(str(path), alloc)
    assert load_allocation(str(path)).extra_pairs == dict(alloc.extra_pairs)
    with pytest.raises(ParseError):
        allocation_from_doc({"format": "nope"})


def test_allocation_shared_pool_follows_strategy(tmp_path):
    table = demo_table(0.05)
    for strategy in AssignmentStrategy:
        if strategy is AssignmentStrategy.PROPOSED:
            alloc = assign_proposed(designed_tree(), table, 4, 0.2)[0]
        else:
            alloc = assign_baseline(designed_tree(), table, strategy, 4, 0.2, seed=1)
        shared = strategy is AssignmentStrategy.ALL_WORKERS_ALL_TESTS
        assert alloc.shared_pool is shared
        doc = allocation_to_doc(alloc)
        assert doc["shared_pool"] is shared and doc["budget"] == 4
        assert allocation_from_doc(doc) == alloc
        path = tmp_path / "alloc.json"
        save_allocation(str(path), alloc)
        assert load_allocation(str(path)) == alloc
        del doc["shared_pool"]  # the strategy alone decides it
        assert allocation_from_doc(doc).shared_pool is shared
        doc["shared_pool"] = not shared
        with pytest.raises(ParseError, match="contradicts strategy"):
            allocation_from_doc(doc)


def test_load_table(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(DEMO_TABLE_CSV, encoding="utf-8")
    table = load_table(str(path), error_prob=0.1)
    assert table.error("T1", "c1") == 0.1


def test_report_csv_deterministic():
    table = demo_table(0.05)
    points = sweep_error(table, [0.05, 0.1], n_random_trees=5, seed=0)
    header = {"seed": 0, "grid": "0.05:0.1:0.05"}
    assert error_sweep_csv(points, header) == error_sweep_csv(points, header)
    text = error_sweep_csv(points, header)
    assert text.startswith("# seed=0\n")
    assert "error_prob,designed_pm,random_mean_pm,random_std_pm" in text

    wpoints = sweep_workers(
        designed_tree(), table, [0, 1], [AssignmentStrategy.PROPOSED], 0.2
    )
    wtext = worker_sweep_csv(wpoints, {"seed": 0})
    assert "budget,strategy,pm" in wtext
    assert "0,proposed," in wtext

    report = simulate(designed_tree(), table, trials=1000, seed=0)
    rtext = simulation_report_csv(report, table)
    assert rtext == simulation_report_csv(report, table)
    assert "p_hat," in rtext and "# seed=0" in rtext


def deep_tree_text(depth: int) -> str:
    """A v1 tree document ``depth`` levels deep, written as text."""
    return (
        '{"format": "crowdtree/tree-v1", "table_sha256": "", "builder": {}, "root": '
        + '{"test": "T1", "0": ' * depth
        + '{"leaf": "c1"}'
        + ', "1": {"leaf": "c2"}}' * depth
        + "}"
    )


# v1 documents nest once per tree level. How deep json's C decoder goes
# depends on the Python version (about 990 levels on CPython 3.11), and
# this is far deeper.
TOO_DEEP_FOR_JSON = 100_000


def _chain(depth: int) -> Internal:
    root = Leaf("c1")
    for _ in range(depth):
        root = Internal("T1", root, Leaf("c2"))
    return root


def test_too_deep_tree_document_raises_parse_error(tmp_path):
    """A v1 document keeps json's nesting limit; a v2 document of the same
    tree is flat and has none."""
    path = tmp_path / "deep.json"
    path.write_text(deep_tree_text(TOO_DEEP_FOR_JSON), encoding="utf-8")
    with pytest.raises(ParseError, match="nested too deeply for json"):
        load_tree(str(path), demo_table(0.05))
    root = _chain(5000)
    out = tmp_path / "out.json"
    save_tree(str(out), DecisionTree(root), demo_table(0.05))
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert len(doc["preorder"]) == 10_001
    assert fileio._node_from_preorder(doc["preorder"]) == root


_ID_PIECES = st.text(st.sampled_from(['"', "\\", "/", "\n", "\x00", "a", "é", "☃", "𝄞"]),
                     max_size=4)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda values: st.lists(values, max_size=3) | st.dictionaries(st.text(max_size=3), values,
                                                                  max_size=3),
    max_leaves=12,
)
_TREE_END = "\n  ]\n}\n"


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    random_seed=st.none() | st.integers(0, 1_000),
    metric=st.sampled_from(list(Metric)),
    class_piece=_ID_PIECES,
    test_piece=_ID_PIECES,
    builder=st.none() | st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=4),
)
def test_saved_tree_round_trips(
    tmp_path_factory, seed, random_seed, metric, class_piece, test_piece, builder
):
    """``save_tree`` writes ``tree_to_doc``'s document, one node a line, and
    ``load_tree`` reads the same tree back, for greedy and random trees
    whose ids hold quotes, backslashes, control and non-ASCII characters,
    under builder mappings of any JSON values (NaN and infinities included)
    and empty containers."""
    table = support.random_table(seed, max_classes=10, max_tests=12)
    table = dataclasses.replace(
        table,
        classes=tuple(f"{i}{class_piece}" for i in range(table.n_classes)),
        tests=tuple(f"{test_piece}{m}" for m in range(table.n_tests)),
    )
    if random_seed is None:
        tree = build_greedy(table, BuilderConfig(metric=MetricConfig(kind=metric))).tree
    else:
        tree = build_random(table, random_seed)
    path = tmp_path_factory.getbasetemp() / "property.json"
    save_tree(str(path), tree, table, builder)
    assert load_tree(str(path), table) == tree
    want = tree_to_doc(tree, table, builder)
    text = path.read_text(encoding="utf-8")
    assert json.dumps(json.loads(text)) == json.dumps(want)  # NaN as NaN
    _, _, nodes = text.rpartition('\n  "preorder": [\n')
    assert nodes.endswith(_TREE_END)
    lines = nodes[: -len(_TREE_END)].split("\n")
    assert [json.loads(line.strip().rstrip(",")) for line in lines] == want["preorder"]


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _committed_tables() -> dict:
    return {
        "demo": parse_table_text(DEMO_TABLE_CSV),
        "random12": load_table(os.path.join(DATA_DIR, "random12_table.csv")),
    }


def test_committed_trees_save_to_their_own_bytes(tmp_path):
    """Every v2 tree file under ``tests/data``, read and saved again with
    its own builder mapping, is byte-identical to the file."""
    tables = _committed_tables()
    names = sorted(name for name in os.listdir(DATA_DIR)
                   if name.endswith(".json") and not name.endswith(".v1.json"))
    assert len(names) == 8
    for name in names:
        with open(os.path.join(DATA_DIR, name), "rb") as fh:
            committed = fh.read()
        doc = json.loads(committed)
        table = tables[name.split("_")[0]]
        out = tmp_path / name
        save_tree(str(out), tree_from_doc(doc, table), table, doc["builder"])
        assert out.read_bytes() == committed, name


def test_v1_tree_file_loads_equal_to_its_v2_recapture(tmp_path):
    """The v1 file ``build`` wrote before v2 still loads, to the tree of its
    v2 re-capture; saved again, it gives the v2 file's bytes."""
    table = _committed_tables()["demo"]
    v1 = os.path.join(DATA_DIR, "demo_build_additive_r1.v1.json")
    v2 = os.path.join(DATA_DIR, "demo_build_additive_r1.json")
    with open(v1, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["format"] == "crowdtree/tree-v1"
    tree = load_tree(v1, table)
    assert tree == load_tree(v2, table) == designed_tree()
    out = tmp_path / "again.json"
    save_tree(str(out), tree, table, doc["builder"])
    with open(v2, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_tree_document_of_depth_500_round_trips(tmp_path):
    """At depth 500, within json's nesting limit, a saved v2 document lists
    the nodes a v1 document of the same tree nests, and both build it."""
    root = _chain(500)
    path = tmp_path / "deep.json"
    save_tree(str(path), DecisionTree(root), demo_table(0.05))
    entries = json.loads(path.read_text(encoding="utf-8"))["preorder"]
    assert entries == fileio._v1_preorder(json.loads(deep_tree_text(500))["root"])
    assert fileio._node_from_preorder(entries) == root
