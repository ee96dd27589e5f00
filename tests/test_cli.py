import importlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import crowdtree
import support
from crowdtree import AssignmentStrategy, assign_baseline, sweep_workers
from crowdtree.cli import _MAX_GRID_POINTS, _parse_grid, main
from crowdtree.errors import DomainError
from crowdtree.fileio import table_to_text
from crowdtree.fixtures import DEMO_TABLE_CSV, demo_table, designed_tree

INSEPARABLE_CSV = "class,a,b,c\nprior,0.2,0.4,0.4\nt,0,1,1\n"


@pytest.fixture()
def table_path(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(DEMO_TABLE_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture()
def tree_path(tmp_path, table_path):
    path = tmp_path / "tree.json"
    code = main(
        ["build", "--table", table_path, "--error-prob", "0.05", "--out", str(path)]
    )
    assert code == 0
    return str(path)


def test_build_prints_quality_and_writes_tree(table_path, tmp_path, capsys):
    out = tmp_path / "tree.json"
    code = main(
        ["build", "--table", table_path, "--error-prob", "0.05", "--out", str(out)]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "exact_pm,0.08231187500000005" in captured
    doc = json.loads(out.read_text())
    assert doc["format"] == "crowdtree/tree-v2" and doc["preorder"][0] == ["T1"]
    assert doc["builder"]["metric"] == "additive"


def test_build_has_no_depth_limit(tmp_path, capsys):
    # a 70-class chain needs 69 levels, one class split off at each
    path = tmp_path / "chain.csv"
    path.write_text(table_to_text(support.chain_table(70)), encoding="utf-8")
    assert main(["build", "--table", str(path), "--error-prob", "0.01"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows[1:70]] == [str(d) for d in range(1, 70)]
    assert rows[70].startswith("exact_pm,")


def test_build_multiplicative_same_tree(table_path, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["build", "--table", table_path, "--error-prob", "0.05", "--out", str(a)]) == 0
    assert (
        main(
            [
                "build",
                "--table",
                table_path,
                "--metric",
                "multiplicative",
                "--error-prob",
                "0.05",
                "--out",
                str(b),
            ]
        )
        == 0
    )
    assert json.loads(a.read_text())["preorder"] == json.loads(b.read_text())["preorder"]


def test_lane_count_ignores_the_environment(table_path, monkeypatch, capsys):
    # ``--lanes`` is the only way to set the lane count
    monkeypatch.setenv("CROWDTREE_THREADS", "two")
    assert main(["build", "--table", table_path, "--error-prob", "0.05"]) == 0
    assert "exact_pm,0.08231187500000005" in capsys.readouterr().out


def test_build_requires_exactly_one_error_source(table_path, capsys):
    assert main(["build", "--table", table_path]) == 2
    assert "error" in capsys.readouterr().err


def test_evaluate_tree(table_path, tree_path, capsys):
    code = main(
        ["evaluate", "--tree", tree_path, "--table", table_path, "--error-prob", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "exact_pm,0.0\n" in out


def test_assign_proposed_cli(table_path, tree_path, tmp_path, capsys):
    out = tmp_path / "alloc.json"
    code = main(
        [
            "assign",
            "--tree",
            tree_path,
            "--table",
            table_path,
            "--error-prob",
            "0.05",
            "--workers",
            "2",
            "--worker-error",
            "0.05",
            "--strategy",
            "proposed",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "T1,1,3,0.00725" in text
    doc = json.loads(out.read_text())
    assert doc["strategy"] == "proposed"
    assert doc["budget"] == 2


def test_assign_zero_budget_identity(table_path, tree_path, capsys):
    code = main(
        [
            "assign",
            "--tree",
            tree_path,
            "--table",
            table_path,
            "--error-prob",
            "0.05",
            "--workers",
            "0",
            "--worker-error",
            "0.2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "T1,0,1,0.2" in out


def test_assign_single_deterministic(table_path, tree_path, capsys):
    # table error values play no role in allocation, so no error flag needed
    argv = [
        "assign",
        "--tree",
        tree_path,
        "--table",
        table_path,
        "--workers",
        "3",
        "--worker-error",
        "0.2",
        "--strategy",
        "single",
        "--seed",
        "7",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_simulate_cli(table_path, tree_path, tmp_path, capsys):
    out = tmp_path / "report.csv"
    argv = [
        "simulate",
        "--tree",
        tree_path,
        "--table",
        table_path,
        "--error-prob",
        "0.05",
        "--trials",
        "20000",
        "--seed",
        "42",
        "--out",
        str(out),
    ]
    assert main(argv) == 0
    text = out.read_text()
    assert "# seed=42" in text
    assert "p_hat," in text
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first  # byte-identical rerun


def test_sweep_error_cli(table_path, capsys):
    code = main(
        [
            "sweep-error",
            "--table",
            table_path,
            "--grid",
            "0.05:0.15:0.05",
            "--random-trees",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "error_prob,designed_pm,random_mean_pm,random_std_pm"
    assert len(rows) == 4


def test_sweep_workers_cli(table_path, tree_path, capsys):
    code = main(
        [
            "sweep-workers",
            "--tree",
            tree_path,
            "--table",
            table_path,
            "--error-prob",
            "0.05",
            "--kmax",
            "3",
            "--worker-error",
            "0.2",
            "--strategies",
            "proposed,all",
            "--draws",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "budget,strategy,pm"
    assert len(rows) == 1 + 4 * 2


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
ON_DEMO_TREE = ["--error-prob", "0.05", "--worker-error", "0.2"]
_DEMO_TREE = ["--tree", "TREE", "--table", "TABLE", *ON_DEMO_TREE]
GOLDEN_JOBS = {
    # golden file -> argv. TABLE and TREE stand for the demo table and its
    # designed tree, OUT for the document a job writes, which must match the
    # golden file of the same name ending in .json instead of .txt.
    "demo_assign_proposed_additive.txt": ["assign", *_DEMO_TREE, "--workers", "30",
                                          "--strategy", "proposed", "--metric", "additive"],
    "demo_assign_proposed_multiplicative.txt": ["assign", *_DEMO_TREE, "--workers", "30",
                                                "--strategy", "proposed",
                                                "--metric", "multiplicative"],
    "demo_sweep_workers_additive.txt": ["sweep-workers", *_DEMO_TREE, "--kmax", "30",
                                        "--metric", "additive"],
    "demo_sweep_workers_multiplicative.txt": ["sweep-workers", *_DEMO_TREE, "--kmax", "30",
                                              "--metric", "multiplicative"],
    "demo_sweep_error.txt": ["sweep-error", "--table", "TABLE"],
}
for _metric in ("additive", "multiplicative"):
    GOLDEN_JOBS[f"random12_sweep_error_{_metric}.txt"] = [
        "sweep-error", "--table", os.path.join(DATA_DIR, "random12_table.csv"),
        "--grid", "0.01:0.45:0.04", "--random-trees", "5", "--metric", _metric]
    # all four strategies on 12 classes with per-cell errors
    GOLDEN_JOBS[f"random12_sweep_workers_{_metric}.txt"] = [
        "sweep-workers", "--tree", os.path.join(DATA_DIR, "random12_build_additive_r1.json"),
        "--table", os.path.join(DATA_DIR, "random12_table.csv"),
        "--error-matrix", os.path.join(DATA_DIR, "random12_errors.csv"), "--kmax", "12",
        "--worker-error", "0.2", "--draws", "5", "--seed", "3", "--metric", _metric]
# build and evaluate reports on the demo table and on a 12-class table with an
# error matrix (support.random_table(18, 12, 16, cell_errors=True), stored as text)
_QUALITY_TABLES = {
    "demo": ["--table", "TABLE", "--error-prob", "0.05"],
    "random12": ["--table", os.path.join(DATA_DIR, "random12_table.csv"),
                 "--error-matrix", os.path.join(DATA_DIR, "random12_errors.csv")],
}
for _name, _table in _QUALITY_TABLES.items():
    for _metric in ("additive", "multiplicative"):
        for _offset in ("1", "0.5"):
            GOLDEN_JOBS[f"{_name}_build_{_metric}_r{_offset}.txt"] = [
                "build", *_table, "--metric", _metric, "--ratio-offset", _offset, "--out", "OUT"]
    for _tree_offset, _offset in (("1", "0.5"), ("0.5", "1")):
        _tree = os.path.join(DATA_DIR, f"{_name}_build_multiplicative_r{_tree_offset}.json")
        GOLDEN_JOBS[f"{_name}_evaluate_r{_offset}.txt"] = [
            "evaluate", "--tree", _tree, *_table, "--ratio-offset", _offset]


def _golden(name: str) -> str:
    with open(os.path.join(DATA_DIR, name), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("golden", sorted(GOLDEN_JOBS))
def test_reports_match_golden_bytes(golden, table_path, tree_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    files = {"TABLE": table_path, "TREE": tree_path, "OUT": out}
    assert main([files.get(arg, arg) for arg in GOLDEN_JOBS[golden]]) == 0
    assert capsys.readouterr().out == _golden(golden)
    if "OUT" in GOLDEN_JOBS[golden]:
        with open(out, encoding="utf-8", newline="") as fh:
            assert fh.read() == _golden(golden[: -len(".txt")] + ".json")


def test_build_with_error_matrix(table_path, tmp_path, capsys):
    matrix = tmp_path / "errors.csv"
    matrix.write_text(
        "class,c1,c2,c3,c4,c5\n"
        + "".join(f"T{m},0.05,0.05,0.05,0.05,0.05\n" for m in range(1, 6)),
        encoding="utf-8",
    )
    code = main(["build", "--table", table_path, "--error-matrix", str(matrix)])
    assert code == 0
    assert "exact_pm,0.08231187500000005" in capsys.readouterr().out


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("class,a,b\nT1,0,1\n", encoding="utf-8")
    assert main(["build", "--table", str(bad), "--error-prob", "0.05"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_exit_code_inseparable(tmp_path, capsys):
    path = tmp_path / "insep.csv"
    path.write_text(INSEPARABLE_CSV, encoding="utf-8")
    assert main(["build", "--table", str(path), "--error-prob", "0.05"]) == 3
    err = capsys.readouterr().err
    assert "'b'" in err and "'c'" in err


def test_evaluate_too_deep_tree_document_exits_2(table_path, tmp_path, capsys):
    from test_fileio import TOO_DEEP_FOR_JSON, deep_tree_text

    path = tmp_path / "deep.json"
    path.write_text(deep_tree_text(TOO_DEEP_FOR_JSON), encoding="utf-8")
    code = main(["evaluate", "--tree", str(path), "--table", table_path, "--error-prob", "0.05"])
    assert code == 2
    assert "nested too deeply for json" in capsys.readouterr().err


ON_TREE_ARGS = {
    # command -> argv after "--tree TREE --table TABLE"
    "evaluate": ["--error-prob", "0.05"],
    "simulate": ["--error-prob", "0.05", "--trials", "10"],
    "assign": [*ON_DEMO_TREE, "--workers", "2"],
    "sweep-workers": [*ON_DEMO_TREE, "--kmax", "2"],
}


def _edited_tree(edit, source=None):
    """A maker of the tree document at ``source`` (by default the designed
    tree's v2 file) after ``edit`` changes it in place."""
    def make(tmp_path, tree_path):
        with open(source or tree_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path), None

    return make


def _set_node(k, entry):
    def edit(doc):
        doc["preorder"][k] = entry

    return _edited_tree(edit)


V1_TREE = os.path.join(DATA_DIR, "demo_build_additive_r1.v1.json")


def _truncated_tree(tmp_path, tree_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "crowdtree/tree-v1", "root": {', encoding="utf-8")
    return str(path), None


def _tree_text(text):
    def make(tmp_path, tree_path):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        return str(path), None

    return make


def _table_with_other_checksum(tmp_path, tree_path):
    other = tmp_path / "other.csv"
    other.write_text(
        DEMO_TABLE_CSV.replace("0.2,0.05,0.1,0.6,0.05", "0.6,0.05,0.1,0.2,0.05"),
        encoding="utf-8",
    )
    return tree_path, str(other)


TREE_DEFECTS = {
    # defect -> (the (tree, table) paths to load, a phrase of the error, any
    # flags to add); a row whose phrase is None has flags that waive its defect
    "checksum": (_table_with_other_checksum, "checksum"),
    "checksum-ignored": (_table_with_other_checksum, None, "--ignore-checksum"),
    "truncated": (_truncated_tree, "bad tree document"),
    "no-one-child": (_edited_tree(lambda doc: doc["root"].pop("1"), V1_TREE),
                     "internal node needs exactly"),
    "array": (_tree_text("[]"), "tree document must be an object, got list"),
    "string": (_tree_text('"x"'), "tree document must be an object, got str"),
    "no-root": (_edited_tree(lambda doc: doc.pop("root"), V1_TREE),
                "bad tree document: no 'root'"),
    # v2 documents
    "no-preorder": (_edited_tree(lambda doc: doc.pop("preorder")),
                    "bad tree document: no 'preorder'"),
    "preorder-object": (_edited_tree(lambda doc: doc.update(preorder={})),
                        "'preorder' is a dict, not a list"),
    "node-not-list": (_set_node(1, "T5"), "tree node 1 must be [test] or"),
    "node-arity": (_set_node(0, ["T1", "T5"]), "tree node 0 must be [test] or"),
    "node-empty": (_set_node(2, []), "tree node 2 must be [test] or"),
    "node-id-not-string": (_set_node(2, ["leaf", 1]), "with string ids, got ['leaf', 1]"),
    "leftover-nodes": (_edited_tree(lambda doc: doc["preorder"].append(["leaf", "c1"])),
                       "'preorder' holds 2 trees, not one"),
    "missing-nodes": (_edited_tree(lambda doc: doc["preorder"].pop()),
                      "'preorder' ends inside node 0's subtree"),
    "no-nodes": (_edited_tree(lambda doc: doc["preorder"].clear()),
                 "'preorder' holds 0 trees, not one"),
}


@pytest.mark.parametrize("defect", sorted(TREE_DEFECTS))
@pytest.mark.parametrize("command", sorted(ON_TREE_ARGS))
def test_bad_tree_document_exits_2(command, defect, table_path, tree_path, tmp_path, capsys):
    make, phrase, *flags = TREE_DEFECTS[defect]
    tree, table = make(tmp_path, tree_path)
    argv = [command, "--tree", tree, "--table", table or table_path, *ON_TREE_ARGS[command],
            *flags]
    code = main(argv)
    captured = capsys.readouterr()
    if phrase is None:
        assert code == 0 and captured.err == ""
    else:
        assert code == 2 and phrase in captured.err and captured.out == ""


def _allocation_text(extra_pairs=1, worker_error=0.2, **fields):
    tests = [{"test": f"T{m}", "extra_pairs": 1} for m in range(1, 6)]
    tests[0]["extra_pairs"] = extra_pairs
    return json.dumps({"format": "crowdtree/allocation-v1", "strategy": "proposed",
                       "worker_error": worker_error, "tests": tests, **fields})


ALLOCATION_DEFECTS = {
    # defect -> (document text, a phrase of the error)
    "truncated": ('{"format": "crowdtree/allocation-v1", "tests": [', "bad allocation document"),
    "negative-pairs": (_allocation_text(extra_pairs=-1), "must be an integer >= 0, got -1"),
    "fractional-pairs": (_allocation_text(extra_pairs=1.5), "must be an integer >= 0, got 1.5"),
    "worker-error-0.9": (_allocation_text(worker_error=0.9), "strictly in (0, 0.5), got 0.9"),
    "worker-error-0.0": (_allocation_text(worker_error=0.0), "strictly in (0, 0.5), got 0.0"),
    "shared-pool-not-all": (_allocation_text(shared_pool=True),
                            "shared_pool True contradicts strategy 'proposed'"),
    "all-not-shared-pool": (_allocation_text(strategy="all", shared_pool=False),
                            "shared_pool False contradicts strategy 'all'"),
    "nested-too-deep": ("[" * 100_000 + "]" * 100_000, "allocation nested too deeply for json"),
    "array": ("[]", "allocation document must be an object, got list"),
    "boolean-pairs": (_allocation_text(extra_pairs=True), "must be an integer >= 0, got True"),
    "repeated-test": (_allocation_text().replace("]", ', {"test": "T1", "extra_pairs": 3}]'),
                      "duplicate allocation row for test 'T1'"),
}


@pytest.mark.parametrize("defect", sorted(ALLOCATION_DEFECTS))
def test_bad_allocation_document_exits_2(defect, table_path, tree_path, tmp_path, capsys):
    text, phrase = ALLOCATION_DEFECTS[defect]
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code = main(["simulate", "--tree", tree_path, "--table", table_path, "--error-prob", "0.05",
                 "--allocation", str(path), "--trials", "10"])
    assert code == 2
    captured = capsys.readouterr()
    assert phrase in captured.err and captured.out == ""


OUT_OF_RANGE_SIZES = {
    # case -> (argv after "--tree TREE --table TABLE" or, for sweep-error,
    # "--table TABLE"; a phrase of the error)
    "simulate-trials-0": (["simulate", *ON_TREE_ARGS["simulate"], "--trials", "0"],
                          "trials must be >= 1"),
    "simulate-lanes-0": (["simulate", *ON_TREE_ARGS["simulate"], "--lanes", "0"],
                         "lanes must be >= 1"),
    "sweep-workers-kmax--1": (["sweep-workers", *ON_TREE_ARGS["sweep-workers"], "--kmax", "-1"],
                              "kmax must be >= 0"),
    "sweep-workers-draws-0": (["sweep-workers", *ON_TREE_ARGS["sweep-workers"], "--draws", "0"],
                              "random draws must be >= 1"),
    # checked before any budget, draw or pair array is made
    "sweep-workers-kmax-10**12": (["sweep-workers", *ON_TREE_ARGS["sweep-workers"],
                                   "--kmax", str(10**12)],
                                  "budget 2001 puts more than 500 pairs on some test"),
    "sweep-workers-draws-past-the-pair-counts": (
        ["sweep-workers", *ON_TREE_ARGS["sweep-workers"], "--draws", str(10**8)],
        "3 budgets x 100000003 allocations x 4 tests make more than 8388608 pair counts"),
    "sweep-error-random-trees-0": (["sweep-error", "--random-trees", "0"],
                                   "random trees must be >= 1"),
    "sweep-error-random-trees--2": (["sweep-error", "--random-trees", "-2"],
                                    "random trees must be >= 1"),
    # malformed arguments
    "simulate-both-error-flags": (["simulate", *ON_TREE_ARGS["simulate"],
                                   "--error-matrix", "errors.csv"],
                                  "give at most one of --error-prob and --error-matrix"),
    "evaluate-both-error-flags": (["evaluate", *ON_TREE_ARGS["evaluate"],
                                   "--error-matrix", "errors.csv"],
                                  "give at most one of --error-prob and --error-matrix"),
    "assign-both-error-flags": (["assign", *ON_TREE_ARGS["assign"],
                                 "--error-matrix", "errors.csv"],
                                "give at most one of --error-prob and --error-matrix"),
    "sweep-workers-both-error-flags": (["sweep-workers", *ON_TREE_ARGS["sweep-workers"],
                                        "--error-matrix", "errors.csv"],
                                       "give at most one of --error-prob and --error-matrix"),
    "sweep-error-grid-two-parts": (["sweep-error", "--grid", "0.1:0.2"],
                                   "grid must be start:stop:step, got '0.1:0.2'"),
    "sweep-error-grid-descending": (["sweep-error", "--grid", "0.3:0.1:0.1"],
                                    "bad grid '0.3:0.1:0.1'"),
    "sweep-error-grid-step-0": (["sweep-error", "--grid", "0.1:0.3:0"], "bad grid '0.1:0.3:0'"),
    "sweep-error-grid-step-nan": (["sweep-error", "--grid", "0.1:0.3:nan"],
                                  "bad grid '0.1:0.3:nan'"),
    # counted from start, stop and step before any point is made
    "sweep-error-grid-480-million-points": (["sweep-error", "--grid", "0.01:0.49:1e-9"],
                                            "bad grid '0.01:0.49:1e-9': more than 10000 points"),
    "sweep-error-grid-10001-points": (["sweep-error", "--grid", "0:1:0.0001"],
                                      "bad grid '0:1:0.0001': more than 10000 points"),
    "sweep-error-grid-infinite-stop": (["sweep-error", "--grid", "0.01:inf:0.01"],
                                       "bad grid '0.01:inf:0.01': more than 10000 points"),
    "sweep-workers-unknown-strategy": (["sweep-workers", *ON_TREE_ARGS["sweep-workers"],
                                        "--strategies", "proposed,bogus"],
                                       "unknown strategy 'bogus'"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_SIZES))
def test_out_of_range_size_exits_2(case, table_path, tree_path, capsys):
    (command, *rest), phrase = OUT_OF_RANGE_SIZES[case]
    on_tree = [] if command == "sweep-error" else ["--tree", tree_path]
    assert main([command, *on_tree, "--table", table_path, *rest]) == 2
    captured = capsys.readouterr()
    assert phrase in captured.err and captured.out == ""


INFINITE_OFFSET = {
    # command -> argv after the command; TREE and TABLE are the demo's, OUT a fresh path
    "build": ["--table", "TABLE", "--error-prob", "0.05", "--metric", "multiplicative",
              "--out", "OUT"],
    "evaluate": ["--tree", "TREE", "--table", "TABLE", "--error-prob", "0.05"],
    "assign": ["--tree", "TREE", "--table", "TABLE", *ON_DEMO_TREE, "--workers", "2",
               "--metric", "multiplicative", "--out", "OUT"],
}


@pytest.mark.parametrize("command", sorted(INFINITE_OFFSET))
def test_infinite_ratio_offset_exits_2(command, table_path, tree_path, tmp_path, capsys):
    """An infinite offset makes every multiplicative ratio inf / inf: the
    command refuses it before it prints or writes anything."""
    out = tmp_path / "out"
    files = {"TABLE": table_path, "TREE": tree_path, "OUT": str(out)}
    argv = [command, *(files.get(a, a) for a in INFINITE_OFFSET[command]), "--ratio-offset", "inf"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "ratio offset must be finite and > 0, got inf" in captured.err
    assert captured.out == "" and not out.exists()


def test_grid_of_the_point_limit_expands():
    grid = _parse_grid("0:0.9999:0.0001")
    assert len(grid) == _MAX_GRID_POINTS and grid[-1] == 0.9999


def test_exit_code_io_error(tmp_path):
    assert (
        main(["build", "--table", str(tmp_path / "missing.csv"), "--error-prob", "0.05"])
        == 4
    )


def test_module_entry_point(table_path):
    # the child process imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(crowdtree.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "crowdtree.cli",
            "build",
            "--table",
            table_path,
            "--error-prob",
            "0.05",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "exact_pm,0.08231187500000005" in proc.stdout


def test_simulate_report_matches_golden_bytes(table_path, tree_path, tmp_path, capsys):
    allocation = str(tmp_path / "alloc.json")
    assert main(["assign", "--tree", tree_path, "--table", table_path, *ON_DEMO_TREE,
                 "--workers", "4", "--strategy", "proposed", "--out", allocation]) == 0
    capsys.readouterr()
    with open(os.path.join(DATA_DIR, "demo_simulate_allocation.txt"), encoding="utf-8",
              newline="") as fh:
        golden = fh.read()  # captured at --lanes 2
    for lanes in ("1", "2", "3"):
        assert main(["simulate", "--tree", tree_path, "--table", table_path,
                     "--error-prob", "0.05", "--allocation", allocation,
                     "--trials", "100000", "--seed", "3", "--lanes", lanes]) == 0
        assert capsys.readouterr().out == golden.replace("# lanes=2\n", f"# lanes={lanes}\n")


class _SerialPool:
    """A ThreadPoolExecutor stand-in that records its arguments and runs
    every task in the calling thread."""

    def __init__(self, calls, max_workers):
        self.calls = calls
        calls.append({"max_workers": max_workers})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.calls[-1]["tasks"] = len(items)
        return [fn(item) for item in items]


def test_simulate_lanes_past_the_cpus_start_no_more_threads(
    table_path, tree_path, capsys, monkeypatch
):
    simulate_module = importlib.import_module("crowdtree.simulate")
    calls = []
    monkeypatch.setattr(
        simulate_module, "ThreadPoolExecutor",
        lambda max_workers: _SerialPool(calls, max_workers),
    )
    argv = ["simulate", "--tree", tree_path, "--table", table_path, "--error-prob", "0.05",
            "--trials", "50", "--seed", "3"]
    assert main([*argv, "--lanes", "1"]) == 0
    one = capsys.readouterr().out
    assert calls == []  # one lane runs in the calling thread
    assert main([*argv, "--lanes", "100000"]) == 0
    assert capsys.readouterr().out == one.replace("# lanes=1\n", "# lanes=100000\n")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # one trial range per CPU at most, each run by its own thread
    n = min(50, cpus)
    assert calls == ([{"max_workers": n, "tasks": n}] if n > 1 else [])
    monkeypatch.setattr(simulate_module, "_usable_cpus", lambda: 8)
    for lanes, tasks in (("3", 3), ("8", 8), ("100000", 8)):
        calls.clear()
        assert main([*argv, "--lanes", lanes]) == 0
        assert capsys.readouterr().out == one.replace("# lanes=1\n", f"# lanes={lanes}\n")
        assert calls == [{"max_workers": tasks, "tasks": tasks}]


def test_sweep_workers_pair_limit(table_path, tree_path, capsys):
    # 500 pairs on one test is the largest group the exact law sums
    message = "exact summation supports at most 500 pairs, got 501"
    for strategy in (AssignmentStrategy.SINGLE_TEST, AssignmentStrategy.ALL_WORKERS_ALL_TESTS):
        with pytest.raises(DomainError, match=message):
            sweep_workers(designed_tree(), demo_table(0.05), [500, 501, 502], [strategy], 0.2)
    argv = ["sweep-workers", "--tree", tree_path, "--table", table_path, *ON_DEMO_TREE,
            "--kmax", "501"]
    assert main([*argv, "--strategies", "single"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert main([*argv, "--strategies", "proposed"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].startswith("501,proposed,") and len(rows) == 8 + 502


def test_assign_pair_limit_prints_no_partial_report(table_path, tree_path, capsys):
    message = "exact summation supports at most 500 pairs, got 600"
    argv = ["assign", "--tree", tree_path, "--table", table_path, *ON_DEMO_TREE,
            "--workers", "600"]
    for strategy in ("all", "single"):
        assert main([*argv, "--strategy", strategy]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""


def test_sweep_workers_pair_limit_names_the_first_count_the_settings_meet():
    # settings run budget by budget in the given order, so the first budget's
    # count raises, not the smallest count past the limit
    tree, table = designed_tree(), demo_table(0.05)
    cases = [
        ([502, 501], [AssignmentStrategy.ALL_WORKERS_ALL_TESTS], 502),
        ([502, 501], [AssignmentStrategy.SINGLE_TEST], 502),
        ([503, 501], [AssignmentStrategy.PROPOSED, AssignmentStrategy.ALL_WORKERS_ALL_TESTS], 503),
    ]
    for k_values, strategies, first in cases:
        message = f"exact summation supports at most 500 pairs, got {first}$"
        with pytest.raises(DomainError, match=message):
            sweep_workers(tree, table, k_values, strategies, 0.2)


def test_pair_limit_fails_without_memory_sized_by_the_budget():
    # the one-pool and one-test baselines never rank their budget, and the sweep's
    # per-count table stops at the exact limit: a budget of 10**7 costs no 80 MB array
    tree, table = designed_tree(), demo_table(0.05)
    tracemalloc.start()
    try:
        for strategy in (AssignmentStrategy.SINGLE_TEST, AssignmentStrategy.ALL_WORKERS_ALL_TESTS):
            allocation = assign_baseline(tree, table, strategy, 10**7, 0.2)
            assert max(allocation.extra_pairs.values()) == 10**7
            with pytest.raises(DomainError, match="^budget 10000000 puts more than 500 pairs"):
                sweep_workers(tree, table, [3, 10**7, 600], [strategy], 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_budget_past_the_pair_limit_times_the_tests_fails_before_any_allocation(
    monkeypatch, table_path, tree_path, capsys
):
    # the demo tree has 4 tests: any allocation of 2 001 pairs puts 501 on one of them
    tree, table = designed_tree(), demo_table(0.05)
    message = ("budget 2001 puts more than 500 pairs on some test of the tree's 4 under "
               "every strategy; exact summation supports at most 500 pairs")

    def no_allocation(*args, **kwargs):
        raise AssertionError("an allocation was made")

    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("crowdtree.workers").random, "Random",
                      no_allocation)
        for module in ("crowdtree.simulate", "crowdtree.cli"):
            patch.setattr(importlib.import_module(module), "assign_proposed", no_allocation)
        for strategies in ([AssignmentStrategy.RANDOM_PER_PAIR], list(AssignmentStrategy)):
            for k_values in ([3, 2001], [3, 2001, 10**6], [3, 600, 2001]):
                with pytest.raises(DomainError) as caught:
                    sweep_workers(tree, table, k_values, strategies, 0.2)
                assert str(caught.value) == message
        on_tree = ["--tree", tree_path, "--table", table_path, *ON_DEMO_TREE]
        jobs = [["sweep-workers", *on_tree, "--kmax", "2001", "--strategies", "random"]]
        jobs += (["assign", *on_tree, "--workers", "2001", "--strategy", strategy]
                 for strategy in ("random", "proposed"))
        for argv in jobs:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n" and captured.out == "", argv
    # at the bound, the first pair count the settings meet is named, as before
    with pytest.raises(DomainError, match="at most 500 pairs, got 2000$"):
        sweep_workers(tree, table, [3, 2000], [AssignmentStrategy.SINGLE_TEST], 0.2)


def test_cli_jobs_leave_numpy_ma_unimported(table_path, tmp_path):
    # numpy.ma (pulled in by np.unique, among others) adds about 1.5 MB of peak RSS
    tree = str(tmp_path / "guard-tree.json")
    script = (
        "import sys\n"
        "from crowdtree.cli import main\n"
        "table, tree = sys.argv[1:]\n"
        "jobs = [\n"
        "    ['build', '--table', table, '--error-prob', '0.05', '--out', tree],\n"
        "    ['sweep-error', '--table', table, '--random-trees', '5'],\n"
        "    ['sweep-workers', '--tree', tree, '--table', table, '--error-prob', '0.05',\n"
        "     '--worker-error', '0.2', '--kmax', '10', '--draws', '5'],\n"
        "]\n"
        "for argv in jobs:\n"
        "    assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(crowdtree.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, table_path, tree],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
