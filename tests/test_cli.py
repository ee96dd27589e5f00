import json
import os
import subprocess
import sys

import pytest

import crowdtree
from crowdtree import AssignmentStrategy, sweep_workers
from crowdtree.cli import main
from crowdtree.errors import DomainError
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
    assert doc["root"]["test"] == "T1"
    assert doc["builder"]["metric"] == "additive"


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
    assert json.loads(a.read_text())["root"] == json.loads(b.read_text())["root"]


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


def _tree_without_one_child(tmp_path, tree_path):
    with open(tree_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["root"]["1"]
    path = tmp_path / "no_one.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path), None


def _truncated_tree(tmp_path, tree_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "crowdtree/tree-v1", "root": {', encoding="utf-8")
    return str(path), None


def _table_with_other_checksum(tmp_path, tree_path):
    other = tmp_path / "other.csv"
    other.write_text(
        DEMO_TABLE_CSV.replace("0.2,0.05,0.1,0.6,0.05", "0.6,0.05,0.1,0.2,0.05"),
        encoding="utf-8",
    )
    return tree_path, str(other)


TREE_DEFECTS = {
    # defect -> (the (tree, table) paths to load, a phrase of the error)
    "checksum": (_table_with_other_checksum, "checksum"),
    "truncated": (_truncated_tree, "bad tree document"),
    "no-one-child": (_tree_without_one_child, "internal node needs exactly"),
}


@pytest.mark.parametrize("defect", sorted(TREE_DEFECTS))
@pytest.mark.parametrize("command", sorted(ON_TREE_ARGS))
def test_bad_tree_document_exits_2(command, defect, table_path, tree_path, tmp_path, capsys):
    make, phrase = TREE_DEFECTS[defect]
    tree, table = make(tmp_path, tree_path)
    argv = [command, "--tree", tree, "--table", table or table_path, *ON_TREE_ARGS[command]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert phrase in captured.err and captured.out == ""


def _allocation_text(extra_pairs=1, worker_error=0.2):
    tests = [{"test": f"T{m}", "extra_pairs": 1} for m in range(1, 6)]
    tests[0]["extra_pairs"] = extra_pairs
    return json.dumps({"format": "crowdtree/allocation-v1", "strategy": "proposed",
                       "worker_error": worker_error, "tests": tests})


ALLOCATION_DEFECTS = {
    # defect -> (document text, a phrase of the error)
    "truncated": ('{"format": "crowdtree/allocation-v1", "tests": [', "bad allocation document"),
    "negative-pairs": (_allocation_text(extra_pairs=-1), "must be an integer >= 0, got -1"),
    "fractional-pairs": (_allocation_text(extra_pairs=1.5), "must be an integer >= 0, got 1.5"),
    "worker-error-0.9": (_allocation_text(worker_error=0.9), "strictly in (0, 0.5), got 0.9"),
    "worker-error-0.0": (_allocation_text(worker_error=0.0), "strictly in (0, 0.5), got 0.0"),
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
    "sweep-error-random-trees-0": (["sweep-error", "--random-trees", "0"],
                                   "random trees must be >= 1"),
    "sweep-error-random-trees--2": (["sweep-error", "--random-trees", "-2"],
                                    "random trees must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_SIZES))
def test_out_of_range_size_exits_2(case, table_path, tree_path, capsys):
    (command, *rest), phrase = OUT_OF_RANGE_SIZES[case]
    on_tree = [] if command == "sweep-error" else ["--tree", tree_path]
    assert main([command, *on_tree, "--table", table_path, *rest]) == 2
    captured = capsys.readouterr()
    assert phrase in captured.err and captured.out == ""


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
