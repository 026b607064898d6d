"""The dense oracle stays apart: numpy only behind `cwskit.dense`.

The exact checks must run without numpy, and the oracle must share none
of the mask arithmetic it is compared against.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cwskit
import cwskit.cli
from cwskit import dense

PACKAGE = Path(cwskit.__file__).resolve().parent
MASK_HELPERS = {"_stabilizer_table", "mul", "_error_masks", "_stab_element"}

# The nine subcommands, each as one argv.
COMMANDS = [("paper-demo",), ("verify",), ("distance",), ("patterns",), ("proofcheck",),
            ("projector",), ("enumerator",), ("search", "--budget", "1"), ("statevec",)]

# Runs every subcommand in a fresh interpreter, then reads the dense oracle.
SCRIPT = """
import contextlib, io, json, sys
import cwskit, cwskit.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cwskit.cli.main(list(argv))

codes = [run(*c) for c in %r]
numpy_after_commands = "numpy" in sys.modules
print(json.dumps({"codes": codes, "numpy_after_commands": numpy_after_commands,
                  "state_n": cwskit.state_vector(cwskit.loop_graph(3)).n,
                  "numpy_after_oracle": "numpy" in sys.modules}))
""" % (COMMANDS,)

# Runs every subcommand in a fresh interpreter that cannot import numpy.
BLOCKED_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import cwskit, cwskit.cli
from cwskit import *

def run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cwskit.cli.main(list(argv)), err.getvalue()

print(json.dumps({c[0]: run(*c) for c in %r}))
""" % (COMMANDS,)


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    return env


def imported_modules(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_dense_imports_numpy():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert ("numpy" in imported_modules(tree)) == (path.name == "dense.py"), path.name


def test_dense_uses_no_mask_helpers():
    tree = ast.parse(Path(dense.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
    assert not names & MASK_HELPERS


def test_verification_path_does_not_import_numpy():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=subprocess_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    # no command imports numpy, statevec included; the oracle's lazy name does
    assert result == {
        "codes": [0] * 9, "numpy_after_commands": False, "state_n": 3, "numpy_after_oracle": True,
    }


def test_dense_names_stay_public():
    from cwskit import DenseState, state_vector

    assert DenseState is dense.DenseState
    assert state_vector is cwskit.state_vector is dense.state_vector
    for name in cwskit.__all__:
        getattr(cwskit, name)
    with pytest.raises(AttributeError):
        cwskit.apply_pauli


def test_commands_name_every_subcommand():
    # the numpy checks run COMMANDS, so a subcommand missing from it skips them
    parser = cwskit.cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(argv[0] for argv in COMMANDS) == sorted(sub.choices)


def test_every_command_runs_without_numpy():
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCRIPT], capture_output=True, text=True,
        env=subprocess_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert {name: code for name, (code, _) in results.items()} == {c[0]: 0 for c in COMMANDS}
    assert all(err == "" for name, (_, err) in results.items() if name != "paper-demo")
