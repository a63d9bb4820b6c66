import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curvebetti.cli import _parse_grid, main
from curvebetti.pipelines import DEFAULT_GRID, grid_keys


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_key_json(capsys):
    code, out, err = run(
        capsys,
        "betti",
        "--k", "1", "--n", "3", "--d", "3", "--compactification", "S",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["space"] == "S(Gr(1,3),3)"
    assert record["q_coefficients"] == [1, 2, 3, 3, 3, 3, 3, 2, 1]
    assert record["betti"] == [1, 0, 2, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 2, 0, 1]
    assert record["euler"] == 21
    assert record["dim"] == 8
    assert record["palindromic"] is True
    assert record["components"] == 1
    assert record["k"] == 1 and record["n"] == 3 and record["d"] == 3
    assert record["compactification"] == "S"


def test_betti_json_is_byte_deterministic(capsys):
    args = (
        "betti",
        "--k", "2", "--n", "5", "--d", "2", "--compactification", "M",
        "--format", "json",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.endswith("\n")


def test_betti_space_expression(capsys):
    code, out, err = run(capsys, "betti", "--space", "P(2) * Gr(1,3)")
    assert code == 0
    assert "euler 9" in out
    assert "q-coefficients: 1 2 3 2 1" in out


def test_betti_space_moduli_fills_key_fields(capsys):
    code, out, _ = run(
        capsys, "betti", "--space", "S(Gr(1,3),3)", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["k"] == 1
    assert record["compactification"] == "S"


def test_betti_csv(capsys):
    code, out, _ = run(
        capsys,
        "betti",
        "--k", "1", "--n", "3", "--d", "2", "--compactification", "S",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:6] == ["k", "n", "d", "compactification", "dim", "euler"]
    assert rows[1][:6] == ["1", "3", "2", "S", "5", "6"]


def test_betti_usage_errors(capsys):
    code, _, err = run(capsys, "betti")
    assert code == 2
    code, _, err = run(
        capsys, "betti", "--space", "P(2)", "--k", "1", "--n", "3",
        "--d", "2", "--compactification", "S",
    )
    assert code == 2
    code, _, err = run(capsys, "betti", "--k", "1", "--n", "3")
    assert code == 2


def test_betti_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "betti", "--space", "Gr(2 4)")
    assert code == 2
    assert "offset 5" in err


def test_betti_invalid_parameters_exit_2(capsys):
    code, _, err = run(
        capsys,
        "betti",
        "--k", "1", "--n", "3", "--d", "3", "--compactification", "H",
    )
    assert code == 2
    assert "error:" in err


def test_betti_arithmetic_error_exit_3(capsys):
    code, _, err = run(
        capsys, "betti", "--space", "blowdown(P(1), P(0), P(2))"
    )
    assert code == 3
    assert "error:" in err


def test_betti_trace(capsys):
    code, out, _ = run(
        capsys,
        "betti",
        "--k", "1", "--n", "4", "--d", "3", "--compactification", "S",
        "--format", "json", "--trace",
    )
    assert code == 0
    record = json.loads(out)
    labels = [step["label"] for step in record["trace"]]
    assert labels == [
        "Gamma^1_0", "Gamma^2_1", "Gamma^3_2",
        "Gamma^2_3", "Gamma^3_4", "Gamma^1_5",
    ]
    assert all("correction" in step and "cumulative" in step for step in record["trace"])


def test_betti_trace_unavailable_for_kontsevich(capsys):
    code, out, err = run(
        capsys,
        "betti",
        "--k", "1", "--n", "4", "--d", "2", "--compactification", "M",
        "--format", "json", "--trace",
    )
    assert code == 0
    record = json.loads(out)
    assert "trace" not in record or record["trace"] is None
    assert "trace" in err.lower()


def test_table_csv(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--k", "1", "--n", "3..5", "--d", "2", "--compactification", "S",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "k"
    assert len(rows) == 4
    widths = {len(row) for row in rows}
    assert len(widths) == 1


def test_table_skips_invalid_cells(capsys):
    code, out, err = run(
        capsys,
        "table",
        "--k", "1", "--n", "3..5", "--d", "3", "--compactification", "H",
        "--format", "csv",
    )
    assert code == 0
    assert "skipped n=3" in err
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        "table",
        "--k", "1", "--n", "4..5", "--d", "3", "--compactification", "S",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    rows = list(csv.reader(io.StringIO(target.read_text())))
    assert len(rows) == 3


def test_table_n_single_value(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--k", "2", "--n", "4", "--d", "2", "--compactification", "M",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["n"] == 4


def test_table_bad_range_exit_2(capsys):
    code, _, err = run(
        capsys,
        "table",
        "--k", "1", "--n", "5..x", "--d", "2", "--compactification", "S",
    )
    assert code == 2


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--grid", "k=1..1,n=3..4", "--suite", "all",
        "--color", "never",
    )
    assert code == 0
    assert "total:" in out
    assert "0 failures" in out.splitlines()[-1]


def test_verify_single_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--grid", "k=1..1,n=4..4", "--suite", "pipeline",
        "--color", "never",
    )
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("pipeline:") for line in lines)
    assert not any(line.startswith("duality:") for line in lines)


def test_verify_json_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--grid", "k=1..1,n=4..4", "--json", str(target),
        "--color", "never",
    )
    assert code == 0
    report = json.loads(target.read_text())
    assert report["total_failures"] == 0
    assert report["total_checks"] > 0
    for entry in report["suites"].values():
        assert entry["failures"] == 0
        assert entry["failed"] == []


def test_verify_bad_grid_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--grid", "k=1..4")
    assert code == 2
    assert "grid" in err


def test_grid_forms_build_the_grid_keys_grids():
    assert _parse_grid(DEFAULT_GRID) == grid_keys()
    assert _parse_grid(" k = 1..2 , n = 3..6 ") == grid_keys(1, 2, 3, 6)
    assert _parse_grid("k=0..3,n=k+0..6") == grid_keys(0, 3, None, 6, n_offset=0)
    assert _parse_grid("k=2..5,n=k+2..8") == grid_keys(2, 5, None, 8, n_offset=2)


def test_verify_grid_with_a_huge_k_range_stops_k_below_n():
    def verify(grid):
        return subprocess.run(
            [sys.executable, "-m", "curvebetti", "verify", "--grid", grid],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True,
            text=True,
            timeout=30,
        )

    huge = verify("k=1..99999999999,n=k+1..5")
    small = verify("k=1..4,n=k+1..5")
    assert (huge.returncode, huge.stdout, huge.stderr) == (0, small.stdout, "")
    assert small.returncode == 0


def test_verify_default_grid_runs_clean(capsys):
    code, out, _ = run(capsys, "verify", "--color", "never")
    assert code == 0
    assert out.splitlines()[-1].endswith("0 failures")


def test_no_subcommand_exit_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_unknown_subcommand_exit_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_verify_empty_grid_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--grid", "k=1..1,n=9..3", "--suite", "duality")
    assert code == 2
    assert out == ""
    assert err == "error: grid 'k=1..1,n=9..3' selects no keys\n"


def test_integer_literals_past_the_digit_limit_exit_2(capsys):
    nines = "9" * 4301  # one past Python's default limit on int() of a string
    code, out, err = run(capsys, "betti", "--space", f"P({nines})")
    assert (code, out) == (2, "")
    assert err == "error: at offset 2: expected a shorter integer, found 4301 digits\n"
    grid = f"k=1..{nines},n=k+1..5"
    code, out, err = run(capsys, "verify", "--grid", grid)
    assert (code, out) == (2, "")
    assert err == f"error: bad grid {grid!r}, expected like {DEFAULT_GRID}\n"


def test_table_unwritable_out_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(
        capsys,
        "table", "--k", "1", "--n", "4..5", "--d", "2",
        "--compactification", "S", "--out", str(target),
    )
    assert code == 2
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_unwritable_paths_fail_before_the_work(tmp_path, capsys, monkeypatch):
    from curvebetti import cli

    calls = []
    monkeypatch.setattr(cli, "verify_suite", lambda *a: calls.append(a))
    monkeypatch.setattr(cli, "space_poly", lambda *a: calls.append(a))
    target = tmp_path / "missing" / "x"
    code, out, err = run(
        capsys, "verify", "--grid", "k=1..1,n=3..4", "--json", str(target)
    )
    assert code == 2 and out == "" and calls == []
    assert err == f"error: cannot write {target}: No such file or directory\n"
    code, out, err = run(
        capsys,
        "table", "--k", "1", "--n", "4..5", "--d", "2",
        "--compactification", "S", "--out", str(target),
    )
    assert code == 2 and out == "" and calls == []
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--k", "1", "--n", "4..6", "--d", "2", "--compactification", "S",
         "--out", "/dev/full"),
        ("verify", "--grid", "k=1..1,n=3..4", "--json", "/dev/full"),
    ],
)
def test_failed_write_names_the_path(capsys, argv):
    # Opening /dev/full succeeds; the write fails, with no filename of its own.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: cannot write /dev/full: No space left on device\n"


def test_failed_sweep_leaves_an_existing_file_as_it_was(tmp_path, capsys, monkeypatch):
    from curvebetti import cli
    from curvebetti.polyring import NonExactDivision

    def fail(*args):
        raise NonExactDivision("inexact")

    monkeypatch.setattr(cli, "verify_suite", fail)
    monkeypatch.setattr(cli, "space_poly", fail)
    target = tmp_path / "x"
    target.write_text("old output\n")
    code, out, err = run(
        capsys, "verify", "--grid", "k=1..1,n=3..4", "--json", str(target)
    )
    assert code == 3 and err == "error: inexact\n"
    assert target.read_text() == "old output\n"
    code, out, err = run(
        capsys,
        "table", "--k", "1", "--n", "4..5", "--d", "2",
        "--compactification", "S", "--out", str(target),
    )
    assert code == 3 and err == "error: inexact\n"
    assert target.read_text() == "old output\n"


def test_out_replaces_a_longer_existing_file(tmp_path, capsys):
    target = tmp_path / "x"
    target.write_text("x" * 10_000)
    code, out, err = run(
        capsys,
        "table", "--k", "1", "--n", "4..5", "--d", "2",
        "--compactification", "S", "--format", "json", "--out", str(target),
    )
    assert code == 0 and out == ""
    code, stdout, err = run(
        capsys,
        "table", "--k", "1", "--n", "4..5", "--d", "2",
        "--compactification", "S", "--format", "json",
    )
    assert target.read_text() == stdout


def test_verify_unwritable_json_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(
        capsys, "verify", "--grid", "k=1..1,n=3..4", "--json", str(target)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize(
    "space", ["(" * 2000 + "P(1)" + ")" * 2000, "P(1)" + " + P(1)" * 2000]
)
def test_betti_deep_expression_exit_2(capsys, space):
    code, out, err = run(capsys, "betti", "--space", space)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "levels of nesting" in err
