"""Properties of the package as shipped rather than of its numbers."""

import ast
import os
import subprocess
import sys

import equidist

SRC = os.path.dirname(os.path.dirname(os.path.abspath(equidist.__file__)))
PKG = os.path.join(SRC, "equidist")


def test_cli_import_loads_no_scipy():
    # SciPy is a test-time oracle only; a fresh interpreter must be able
    # to start the CLI without it
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import sys, equidist.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_builds_no_quadrature_rule():
    # the Gauss-Legendre rule is built on first use, not at import
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import equidist.cli, equidist.modular as m; "
            "print(m._legendre_rule.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_no_runtime_asserts():
    # python -O strips assert statements, so validation must raise
    found = []
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += ["%s:%d" % (name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
