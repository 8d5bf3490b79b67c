"""The package's lazy export table names only attributes that exist, and its
modules import each other in one direction."""

import ast
import os
import pathlib
import subprocess
import sys

import ehrgen

PACKAGE_DIR = pathlib.Path(ehrgen.__file__).parent


def test_every_exported_name_resolves():
    """``dir(ehrgen)`` lists ``__all__``; a name left in the export table
    after its definition is deleted would fail here, not on first use."""
    missing = []
    for name in dir(ehrgen):
        try:
            getattr(ehrgen, name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_model_and_evaluation_do_not_load_the_trainer():
    """The model description and the metrics read no part of the update
    scheme, so importing them leaves ``ehrgen.trainer`` unloaded."""
    code = ("import sys, ehrgen.model, ehrgen.evaluation; "
            "print('ehrgen.trainer' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_no_function_level_relative_imports():
    """A package import inside a function hides a cycle. Only the command
    line defers its imports, so that ``EHRGEN_THREADS`` is applied before
    the numeric stack loads."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}"
                          for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level]
    assert found == []
