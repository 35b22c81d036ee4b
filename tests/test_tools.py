"""The tables of tools/scaling.py, and the benchmark's imports from src/."""

import os
import subprocess
import sys

import scaling

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_in_process_tables_print_a_cell_per_column(monkeypatch, capsys):
    # sizes 1 and 2 (depths and seeds alike), so each table prints a first
    # row and an x2 against it; the child tables run only in the script
    for name in ("SIZES", "STAGED_IF_SIZES", "NEST_DEPTHS", "TREE_DEPTHS",
                 "STAGED_CHAIN_SEEDS"):
        monkeypatch.setattr(scaling, name, (1, 2))
    for table in scaling.tables(sys.getrecursionlimit()):
        scaling.print_table(table)
        lines = capsys.readouterr().out.splitlines()
        title = table.title.splitlines()
        assert lines[:len(title)] == title
        rows = lines[len(title):]
        assert len(rows) > 1
        for line in rows:
            assert len(line.split()) == len(table.columns.split()), line
            assert "Error" not in line, line


def test_benchmark_imports_resolve_in_src(tmp_path):
    # the benchmark imports adlc's public names from src/; a change to src/
    # that removes or renames one fails here, not in a benchmark run.  -B:
    # the import writes nothing under bench/
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]))
    r = subprocess.run([sys.executable, "-B", "-c", "import run, workloads"], cwd=tmp_path,
                       env=env, capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
