"""Tests of the benchmark itself: output checks, tracer patching and counts.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Op, check, load_references, pentagonal  # noqa: E402

from partlab import _dpcore_py, cli, setspec  # noqa: E402

CLASSICAL = next(op for op in WORKLOADS["count-sweep"] if op.name == "count all nat 2500")
TABLE_ALL = next(op for op in WORKLOADS["table-bounds"] if op.name == "table all 375")

# Cheap operations that still reach every layer the tracer wraps.
SMALL_OPS = [
    ("count", "--parts", "all", "--n", "100"),
    ("count", "--parts", "dexp:2", "--mults", "zero|dexp:2", "--n", "4096"),
    ("count", "--parts", "finite:3,5", "--mults", "zero|finite:1,2", "--n", "300", "--format", "json"),
    ("table", "--parts", "pow:2", "--upto", "64", "--bounds", "debruijn_upper,product_upper", "--format", "csv"),
    ("table", "--parts", "finite:2,3", "--upto", "40", "--bounds", "padberg,eq10,schur,refined", "--format", "json"),
    ("verify", "--suite", "eq10", "--format", "json"),
    ("verify", "--suite", "harmonic-chain", "--format", "json"),
    ("analyze", "--parts", "finite:6,10,15"),
    ("count", "--parts", "finite:0", "--n", "3"),
]


def _partlab_bindings() -> dict:
    """Every attribute of every partlab module and set-spec class."""
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "partlab" or name.startswith("partlab."))]
    classes = [setspec.IntegerSetSpec]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    return {(id(owner), attr): value
            for owner in owners + classes for attr, value in vars(owner).items()}


def test_pentagonal_matches_known_values():
    p = pentagonal(200)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert p[100] == 190569292
    assert p[200] == 3972999029388


def test_reference_and_oracle_checks_flag_tampering():
    references = load_references()
    p = pentagonal(3000)
    code, out = tracer.run_op(cli.main, CLASSICAL.argv)
    assert check(CLASSICAL, code, out, references, p) == []

    tampered = json.loads(json.dumps(references))
    tampered[CLASSICAL.name]["stdout_sha256"] = "0" * 64
    assert check(CLASSICAL, code, out, tampered, p)
    tampered = json.loads(json.dumps(references))
    tampered[CLASSICAL.name]["exit_code"] = 3
    assert check(CLASSICAL, code, out, tampered, p)

    wrong = str(int(out) + 1).encode() + b"\n"
    assert any("pentagonal" in x for x in check(CLASSICAL, code, wrong, {}, p))
    assert check(CLASSICAL, code, wrong, references, p)


def test_table_count_column_checked_against_pentagonal():
    p = pentagonal(400)
    code, out = tracer.run_op(cli.main, TABLE_ALL.argv)
    assert check(TABLE_ALL, code, out, load_references(), p) == []
    lines = out.decode().splitlines()
    n, count, rest = lines[200].split(",", 2)
    lines[200] = ",".join([n, str(int(count) - 1), rest])
    problems = check(TABLE_ALL, code, ("\n".join(lines) + "\n").encode(), {}, p)
    assert any("n = 199" in x for x in problems)


def test_tampered_reference_counts_as_failed_and_run_carries_on(monkeypatch):
    tampered = load_references()
    tampered[CLASSICAL.name] = dict(tampered[CLASSICAL.name], stdout_sha256="0" * 64)
    monkeypatch.setattr(run, "load_references", lambda: tampered)
    monkeypatch.setattr(run, "WORKLOADS", {"tiny": (CLASSICAL, WORKLOADS["count-sweep"][2])})
    monkeypatch.setattr(run, "SETUP_SAMPLES", 3)
    rundir = run.RunDir()
    try:
        metrics, attempted, problems, _ = run.run_untraced(rundir, "tiny", seed=1, seconds=0)
    finally:
        rundir.close()
    assert attempted == 2
    assert [name for name, _ in problems] == [CLASSICAL.name]
    assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0 and metrics["peak_rss_mb"] > 0


def test_patches_are_restored():
    before = _partlab_bindings()
    original_count_table = sys.modules["partlab.counting"].count_table
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert sys.modules["partlab.counting"].count_table is not original_count_table
            assert cli.count_table is not original_count_table
            for argv in SMALL_OPS:
                tracer.run_op(t.span("cli", cli.main), argv)
            raise RuntimeError("leave the traced block early")
    after = _partlab_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert t.calls["counting"] > 0 and t.calls["dpcore"] > 0


def test_traced_outputs_equal_untraced_outputs():
    plain = [tracer.run_op(cli.main, argv) for argv in SMALL_OPS]
    t = tracer.Tracer()
    with t.installed():
        main = t.span("cli", cli.main)
        traced = [tracer.run_op(main, argv) for argv in SMALL_OPS]
    assert traced == plain
    assert plain[-1][0] == 2  # part set containing 0 is rejected
    for layer in ("cli", "setspec.parse", "counting", "dpcore", "bounds.report",
                  "bounds.eval", "bounds.certify", "bounds.interval", "suites", "arith"):
        assert t.calls[layer] > 0, layer


def test_bound_evaluation_and_certification_fit_inside_bound_reports():
    # table-bounds' operations at a smaller n: every bound column, three part sets
    t = tracer.Tracer()
    with t.installed():
        main = t.span("cli", cli.main)
        for op in WORKLOADS["table-bounds"][::2]:
            argv = list(op.argv)
            argv[argv.index("--upto") + 1] = "60"
            assert tracer.run_op(main, argv)[0] == 0
    m = t.metrics(wall_s=1.0, output_bytes=0)
    assert m["bounds.report_calls"] == 3 * 61
    assert m["bounds.eval_calls"] > 0 and m["bounds.interval_evals"] > 0
    assert m["bounds.eval_s"] + m["bounds.interval_s"] <= m["bounds.report_s"]


def test_traced_verify_all_counts_repeat_exactly():
    runs = [tracer.run_workload("verify-all", seed, traced=True) for seed in (1, 2)]
    for report in runs:
        assert all(not op["problems"] for op in report["ops"])
        layers = report["layers"]
        assert layers["counting.tables_built"] == 810
        assert layers["counting.tables_distinct"] == 736
        assert layers["bounds.interval_evals"] == 8303
        assert layers["bounds.escalations"] == 0
        assert layers["trace.coverage_ratio"] >= 0.9
    counts = [{k: v for k, v in r["layers"].items() if isinstance(v, int)} for r in runs]
    assert counts[0] == counts[1]


def test_kernel_comparison_agrees_on_tables():
    ops = [Op("count all nat 300", ("count", "--parts", "all", "--n", "300")),
           Op("count pow:2", ("count", "--parts", "pow:2", "--mults", "zero|finite:1", "--n", "500"))]
    rows, problems = tracer.compare_kernels(ops, _dpcore_py, _dpcore_py)
    assert problems == []
    assert set(rows) == {op.name for op in ops}
    assert all(row["compiled"] > 0 and row["python"] > 0 for row in rows.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "count-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_child_past_its_timeout_is_killed_and_reaped():
    rundir = run.RunDir()
    try:
        child = rundir.run(["-c", "import time; time.sleep(30)"], timeout=0.5)
    finally:
        rundir.close()
    assert child.timed_out
    assert child.exit_code == -9
    assert child.seconds < 10
