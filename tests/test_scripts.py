"""Smoke tests of the command line scripts under ``scripts/`` and of the
benchmark's own self-test, a check that the test oracles stay apart from
the package, and a check for unused imports."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from motifset.metrics import W_EFF
from motifset.train import run_sweep

ROOT = Path(__file__).resolve().parent.parent
RUN_FILES = ["checkpoint.bin", "evolution.csv", "manifest.txt", "metrics.csv"]


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *map(str, args)],
                          capture_output=True, text=True, env=env)


def test_desk_run_synthetic(tmp_path):
    done = _run("desk_run.py", "--synthetic", "--epochs", 1, "--out",
                tmp_path)
    assert done.returncode == 0, done.stderr
    for m in ("m1", "m2"):
        assert sorted(p.name for p in (tmp_path / m).iterdir()) == RUN_FILES
    assert (tmp_path / "sweep.csv").is_file()
    report = run_sweep(tmp_path / "m1" / "manifest.txt",
                       tmp_path / "m2" / "manifest.txt", [W_EFF]).points[0]
    assert f"comprehensive score S(m=2) = {report.s:.4f}" in done.stdout


def test_desk_run_missing_idx_files(tmp_path):
    done = _run("desk_run.py", "--data-dir", tmp_path, "--out",
                tmp_path / "out")
    assert done.returncode == 1
    assert f"IDX files not found under {tmp_path}" in done.stderr
    assert not (tmp_path / "out").exists()


def test_score_tables_prints_readme_scores():
    done = _run("score_tables.py")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    scores = [row[5] for row in rows if row and row[0] in ("1", "2", "4")]
    assert scores == ["0.9000", "0.9102", "0.8819",
                      "0.9000", "0.9198", "0.9089"]


def test_code_lines_counts_a_fixture(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "notes.py").write_text("# only a comment\n\n")
    (package / "mod.py").write_text('''"""A module docstring
over two lines."""
# a comment

import os  # a comment after code


def f(x):
    """A docstring."""
    text = """a string
over two lines"""
    "a string statement"
    return os.sep.join([x,
                        text])
''')
    done = _run("code_lines.py", package)
    assert done.returncode == 0, done.stderr
    # import, def, the two lines of the assigned string and of the return
    assert done.stdout.splitlines() == [f"     6 {package / 'mod.py'}",
                                        f"     0 {package / 'notes.py'}",
                                        "     6 total"]


def test_motif_curve_tiny_record(tmp_path):
    # the record's fields, not its ratios: those are measured, not fixed
    out = tmp_path / "curve.json"
    done = _run("motif_curve.py", "--tiny", "--out", out)
    assert done.returncode == 0, done.stderr
    bench = json.loads(out.read_text())
    assert bench["tiny"] is True and bench["environment"]["blas_threads"] == 1
    records = bench["records"]
    assert [(r["shape"], r["m"]) for r in records] == [
        (shape, m) for shape in ("desk", "wide") for m in (1, 2, 4)]
    for r in records:
        assert len(r["round_step_ms"]) == 3
        assert r["step_ms_min"] <= r["step_ms_median"]
        assert r["wall_ratio_min"] <= r["wall_ratio_median"]
        assert r["analytic_macs"] > 0 and r["grid_macs"] > 0
        assert r["minor_faults_per_step"] >= 0
        assert ("gate_pass" in r) == (r["m"] > 1)
        if r["m"] == 1:
            assert r["analytic_ratio"] == r["grid_ratio"] == 1.0
        else:
            assert r["gate_bound"] == 1.25 * r["analytic_ratio"]
            assert r["gate_pass"] == (r["wall_ratio_median"]
                                      <= r["gate_bound"])
    # the tiny desk shape 32-16-16-4 at m = 4 stores grids of 8 x 4, 4 x 4
    # and, at tile 1 on the last layer, 16 x 4; each runs three products a
    # sample, but layer 0 forms no input delta
    desk4 = records[2]
    assert desk4["grid_macs"] == 8 * (2 * 8 * 4 + 3 * 4 * 4 + 3 * 16 * 4)


def test_perfbench_selftest():
    # the benchmark imports the package's run_train, its callees and the
    # checkpoint loader; an API change that breaks it shows up here
    done = subprocess.run([sys.executable,
                           str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: ok"


def test_oracles_import_nothing_from_the_package():
    # an oracle that calls the code it checks agrees with it by construction
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert [m for m in imported if m.split(".")[0] == "motifset"] == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module's top-level imports bind that its code never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in read]


def test_no_unused_top_level_imports():
    # the project runs no linter, so a refactor that stops using an import
    # would otherwise leave it behind
    paths = sorted([*(ROOT / "src" / "motifset").glob("*.py"),
                    *(ROOT / "scripts").glob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    assert len(paths) > 20
    assert [u for p in paths for u in _unused_imports(p)] == []


def test_package_imports_no_private_names():
    # a leading underscore marks a name as its module's own; a module that
    # needs one from another should get it made public instead
    private = []
    for path in sorted((ROOT / "src" / "motifset").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                private += [f"{path.name}:{node.lineno} {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")
                            and not alias.name.startswith("__")]
    assert private == []
