"""The package's public names, and what each command imports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partlab

HEAVY = ("mpmath", "partlab.bounds", "partlab.suites")

# Runs the argv lists given as JSON in argv[1], each through cli.main in this
# one process, and prints [exit code, HEAVY modules loaded so far] per run
CHILD = f"""
import contextlib, io, json, sys
from partlab import cli
loaded = lambda: [m for m in {HEAVY!r} if m in sys.modules]
runs = [[0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        runs.append([cli.main(argv), loaded()])
print(json.dumps(runs))
"""


def _run_cli_in_child(argvs, cwd):
    src = str(Path(partlab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_every_exported_name_resolves():
    missing = [name for name in partlab.__all__ if not hasattr(partlab, name)]
    assert missing == []
    assert len(set(partlab.__all__)) == len(partlab.__all__)


def test_each_exported_name_is_its_modules_object():
    for module, names in partlab._EXPORTS.items():
        source = importlib.import_module(f"partlab.{module}")
        for name in names:
            assert getattr(partlab, name) is getattr(source, name), name
    assert set(partlab.__all__) <= set(dir(partlab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        partlab.no_such_name  # noqa: B018


def test_submodules_still_import_by_name():
    from partlab import bounds, cli

    assert bounds.__name__ == "partlab.bounds"
    assert cli.__name__ == "partlab.cli"


def test_light_commands_load_neither_bounds_nor_suites(tmp_path):
    eps = tmp_path / "eps.txt"
    eps.write_text("4 1\n16 2\n256 3\n")
    runs = _run_cli_in_child(
        [
            ["count", "--parts", "all", "--n", "100"],
            ["analyze", "--parts", "finite:6,10,15"],
            ["explore", "--parts", "pow:2", "--upto", "64"],
            ["sparse", str(eps)],
        ],
        tmp_path,
    )
    assert runs == [[0, []]] * 5


def test_table_bounds_and_verify_load_what_they_use(tmp_path):
    table, verify = (
        _run_cli_in_child([argv], tmp_path)
        for argv in (
            ["table", "--parts", "all", "--upto", "30", "--bounds", "hrr"],
            ["verify", "--suite", "eq4"],
        )
    )
    assert table == [[0, []], [0, ["mpmath", "partlab.bounds"]]]
    assert verify == [[0, []], [0, list(HEAVY)]]
