import json
import os
import subprocess
import sys

import pytest

import crowdtree
from crowdtree.cli import main
from crowdtree.fixtures import DEMO_TABLE_CSV

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


def test_evaluate_checksum_mismatch(tmp_path, tree_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text(
        DEMO_TABLE_CSV.replace("0.2,0.05,0.1,0.6,0.05", "0.6,0.05,0.1,0.2,0.05"),
        encoding="utf-8",
    )
    code = main(
        ["evaluate", "--tree", tree_path, "--table", str(other), "--error-prob", "0.05"]
    )
    assert code == 2
    assert "checksum" in capsys.readouterr().err


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
