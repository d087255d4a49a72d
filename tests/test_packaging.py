"""Properties of the package as shipped rather than of its numbers."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import equidist

SRC = os.path.dirname(os.path.dirname(os.path.abspath(equidist.__file__)))
PKG = os.path.join(SRC, "equidist")
MODULES = ("constants", "geometry", "modular", "selection", "wiener")


def _public_names():
    return {name: list(importlib.import_module("equidist." + name).__all__)
            for name in MODULES}


def _loaded_by_cli_import(package):
    """The modules of package that a fresh `import equidist.cli` loads."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = ("import sys, equidist.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == %r or m.startswith(%r)))" % (package, package + "."))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # SciPy is a test-time oracle only; a fresh interpreter must be able
    # to start the CLI without it
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_jsonschema():
    # the compiled check decides acceptance; jsonschema is imported only
    # to word a refusal
    assert _loaded_by_cli_import("jsonschema") == "[]"


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


def test_root_exports_the_modules_public_names():
    names = [n for module in _public_names().values() for n in module]
    assert len(set(names)) == len(names)
    assert sorted(equidist.__all__) == sorted(names + ["__version__"])
    assert all(hasattr(equidist, n) for n in equidist.__all__)


def test_readme_package_layout_lists_the_public_names():
    # each module line is followed by indented lines naming its __all__
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Package layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    listed = {}
    names = None
    for line in block.splitlines():
        head = re.match(r"  (\w+)\.py\s", line)
        if head:
            names = listed.setdefault(head.group(1), [])
        elif names is not None and line.strip():
            names += re.findall(r"\w+", line)
    assert {m: sorted(v) for m, v in listed.items() if v} == {
        m: sorted(v) for m, v in _public_names().items()}
