"""Properties of the package as shipped rather than of its numbers."""

import ast
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import equidist

from test_cli import readme_manifests

SRC = os.path.dirname(os.path.dirname(os.path.abspath(equidist.__file__)))
PKG = os.path.join(SRC, "equidist")
MODULES = ("constants", "geometry", "modular", "selection", "wiener")
# what the ledger path must not load: numpy and every layer but constants
NOT_FOR_LEDGER = ("numpy", "equidist.geometry", "equidist.modular",
                  "equidist.selection", "equidist.wiener")


def _public_names():
    return {name: list(importlib.import_module("equidist." + name).__all__)
            for name in MODULES}


def _python(*argv):
    """The stdout of a fresh interpreter on the package sources, run with
    argv; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True,
                          check=True).stdout


def _loaded_after(code, *packages):
    """The modules of packages that a fresh interpreter has loaded after
    running code."""
    modules = json.loads(_python(
        "-c", code + "\nimport json, sys; print(json.dumps(sorted("
        "sys.modules)))").splitlines()[-1])
    return [m for m in modules for p in packages
            if m == p or m.startswith(p + ".")]


def test_cli_import_loads_no_scipy():
    # SciPy is a test-time oracle only; a fresh interpreter must be able
    # to start the CLI without it
    assert _loaded_after("import equidist.cli", "scipy") == []


def test_cli_import_loads_no_jsonschema():
    # the compiled check decides acceptance; jsonschema is imported only
    # to word a refusal
    assert _loaded_after("import equidist.cli", "jsonschema") == []


def test_cli_import_builds_no_quadrature_rule():
    # the Gauss-Legendre rule is built on first use, not at import
    assert _python("-c", "import equidist.cli, equidist.modular as m; "
                   "print(m._legendre_rule.cache_info().currsize)"
                   ).strip() == "0"


def test_ledger_path_loads_no_numpy(tmp_path):
    # the constant ledger needs only floats: importing the package or the
    # CLI, or running a ledger, loads neither numpy nor the other layers
    block = readme_manifests()["ledger"]
    block["ledger"]["theorem"] = "B"
    manifest = tmp_path / "ledger.json"
    manifest.write_text(json.dumps(block), encoding="utf-8")
    out = tmp_path / "out"
    run = ("from equidist import cli\n"
           "cli.main(['ledger', '--manifest', %r, '--out', %r], "
           "standalone_mode=False)" % (str(manifest), str(out)))
    for code in ("import equidist", "import equidist.cli", run):
        assert _loaded_after(code, *NOT_FOR_LEDGER) == [], code
    assert json.loads((out / "ledger.json").read_text())["mode"] == \
        "theorem-B"
    commands = _python("-m", "equidist", "--help").split("Commands:")[1]
    assert sorted(re.findall(r"^  (\w+)", commands, re.M)) == [
        "correlate", "fit", "ledger", "schedule", "verify"]


def test_one_process_writes_what_fresh_ones_write(tmp_path):
    # each body imports the layers it runs: after the bodies before it ran
    # in the same process, a subcommand writes the stdout and files that
    # it writes in a fresh process
    blocks = readme_manifests()
    results = tmp_path / "results"
    argvs = []
    for mode, block in blocks.items():
        manifest = tmp_path / ("%s.json" % mode)
        manifest.write_text(json.dumps(block), encoding="utf-8")
        argvs.append([mode, "--manifest", str(manifest),
                      "--out", str(results)])
    assert [argv[0] for argv in argvs] == [
        "ledger", "schedule", "correlate", "fit", "verify"]

    def written():
        return {f.name: f.read_bytes() for f in sorted(results.iterdir())}

    fresh = [_python("-m", "equidist", *argv) for argv in argvs]
    fresh_files = written()
    shutil.rmtree(results)
    one = json.loads(_python("-c", (
        "import contextlib, io, json, sys\n"
        "from equidist import cli\n"
        "stdout = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:\n"
        "        cli.main(argv, standalone_mode=False)\n"
        "    stdout.append(buf.getvalue())\n"
        "print(json.dumps(stdout))"), json.dumps(argvs)))
    assert one == fresh
    assert written() == fresh_files


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
    public = _public_names()
    names = [n for module in public.values() for n in module]
    assert len(set(names)) == len(names)
    assert equidist.__all__ == names + ["__version__"]
    # the root resolves each name in its module on access
    for module, module_names in public.items():
        home = importlib.import_module("equidist." + module)
        assert getattr(equidist, module) is home
        for name in module_names:
            assert getattr(equidist, name) is getattr(home, name), name
    star = {}
    exec("from equidist import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(equidist.__all__)
    assert set(equidist.__all__) <= set(dir(equidist))


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
