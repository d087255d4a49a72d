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
LAYERS = tuple("equidist." + name for name in MODULES)
# what the ledger path must not load: numpy and every layer but constants
NOT_FOR_LEDGER = ("numpy", *LAYERS[1:])


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


def _of_packages(modules, packages):
    return [m for m in modules for p in packages
            if m == p or m.startswith(p + ".")]


def _loaded_after(code, *packages):
    """The modules of packages that a fresh interpreter has loaded after
    running code."""
    return _of_packages(json.loads(_python(
        "-c", code + "\nimport json, sys; print(json.dumps(sorted("
        "sys.modules)))").splitlines()[-1]), packages)


def test_cli_import_loads_no_scipy():
    # SciPy is a test-time oracle only; a fresh interpreter must be able
    # to start the CLI without it
    assert _loaded_after("import equidist.cli", "scipy") == []


def test_cli_import_loads_no_jsonschema():
    # the compiled check is the only validator; jsonschema is a test-time
    # oracle
    assert _loaded_after("import equidist.cli", "jsonschema") == []


def test_suites_import_loads_no_fractions():
    # the battery's brute force decides its inequalities in integers;
    # fractions and the decimal module it imports cost a verify process
    # milliseconds
    assert _loaded_after("import equidist.suites", "fractions",
                         "decimal") == []


def _toml_list(text, name):
    """The strings of the TOML array `name = [...]` in text."""
    body = re.search(r"^%s = \[(.*?)\]" % name, text, re.M | re.S).group(1)
    return re.findall(r'"([^"]+)"', body)


def test_numpy_is_the_only_runtime_dependency():
    text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    assert _toml_list(text, "dependencies") == ["numpy>=1.25"]
    assert "jsonschema>=4.0" in _toml_list(text, "test")


# (module file, imported package): why the package may be imported
IMPORT_EXCEPTIONS = {
    ("cli.py", "jsonschema"): "cli.__getattr__ serves cli.jsonschema to "
                              "the benchmark's self-test, on access only",
}


def test_sources_import_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "equidist"}
    found = set()
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PKG, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                packages = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                packages = [node.module]
            else:
                continue
            found |= {(name, p.split(".")[0]) for p in packages
                      if p.split(".")[0] not in allowed}
    assert found == set(IMPORT_EXCEPTIONS)


# (module file, sibling module it must not import): the layering of the
# exact half, where selection works on plain rows and geometry on logs
FORBIDDEN_IMPORTS = {("selection.py", "geometry"), ("geometry.py", "constants")}


def _package_imports(name):
    """The names that a package module imports from the package, at any
    depth: its sibling modules among them."""
    with open(os.path.join(PKG, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "equidist." * bool(node.level) + (node.module or "")
            targets = [base] + [base.rstrip(".") + "." + alias.name
                                for alias in node.names]
        else:
            continue
        found |= {t.split(".")[1] for t in targets
                  if t.startswith("equidist.")}
    return found


def test_exact_half_layering():
    found = {(name, module) for name, module in FORBIDDEN_IMPORTS
             if module in _package_imports(name)}
    assert found == set()


def _without_jsonschema(argv):
    """A fresh interpreter on the package sources in which jsonschema
    cannot be imported, running the CLI with argv."""
    code = ("import sys\n"
            "sys.modules['jsonschema'] = None\n"
            "from equidist import cli\n"
            "cli.main(sys.argv[1:])")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)


def test_cli_runs_without_jsonschema(tmp_path):
    # a refusal is worded and a manifest runs with jsonschema unimportable
    block = readme_manifests()["ledger"]
    bad = json.loads(json.dumps(block))
    bad["ledger"]["r_max"] = "three"
    for name, manifest in (("bad", bad), ("good", block)):
        (tmp_path / ("%s.json" % name)).write_text(json.dumps(manifest),
                                                    encoding="utf-8")
    res = _without_jsonschema(["ledger", "--manifest",
                               str(tmp_path / "bad.json"),
                               "--out", str(tmp_path / "bad")])
    assert res.returncode == 2
    assert res.stderr == json.dumps(
        {"error": "schema", "message": "'three' is not of type 'integer'",
         "path": ["ledger", "r_max"]}, sort_keys=True) + "\n"
    assert not (tmp_path / "bad").exists()
    res = _without_jsonschema(["ledger", "--manifest",
                               str(tmp_path / "good.json"),
                               "--out", str(tmp_path / "good")])
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "good" / "ledger.csv").exists()


def test_cli_import_loads_only_the_cli():
    # the front end is argparse, and each body imports numpy and the
    # layers it runs: a fresh `import equidist.cli` loads none of them
    assert _loaded_after("import equidist.cli", "click", "numpy",
                         "equidist") == ["equidist", "equidist.cli"]


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
           "cli.main(['ledger', '--manifest', %r, '--out', %r])"
           % (str(manifest), str(out)))
    for code in ("import equidist", "import equidist.cli", run):
        assert _loaded_after(code, *NOT_FOR_LEDGER) == [], code
    assert json.loads((out / "ledger.json").read_text())["mode"] == \
        "theorem-B"
    commands = _python("-m", "equidist", "--help").split("\ncommands:\n")[1]
    assert sorted(re.findall(r"^    (\w+)", commands, re.M)) == [
        "correlate", "fit", "ledger", "schedule", "verify"]


def _imported_by(argv, *packages):
    """The modules of packages, in import order, that a fresh interpreter
    run with argv imports, read from -X importtime; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=SRC)
    err = subprocess.run([sys.executable, "-X", "importtime", *argv],
                         env=env, capture_output=True, text=True,
                         check=True).stderr
    return _of_packages(
        [line.rsplit("|", 1)[1].strip() for line in err.splitlines()
         if line.startswith("import time:") and "self [us]" not in line],
        packages)


def test_fit_path_loads_no_numpy(tmp_path):
    # the fit reads its CSV with the csv module and solves in integers: a
    # fit run, in-process or in its own process, loads neither numpy nor
    # any layer, the constant ledger included, and importing the CLI
    # does not load the fit
    (tmp_path / "t.csv").write_text(
        "Delta_mult,abs_error\n2.0,0.5\n4.0,0.3\n8.0,0.2\n",
        encoding="utf-8")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        {"mode": "fit", "fit": {"input_csv": "t.csv"}}), encoding="utf-8")
    argv = ["fit", "--manifest", str(manifest), "--out", str(tmp_path)]
    run = "from equidist import cli\ncli.main(%r)" % argv
    assert _loaded_after(run, "numpy", *LAYERS) == []
    assert _loaded_after("import equidist.cli", "equidist._fit") == []
    assert _imported_by(["-m", "equidist", *argv], "equidist._fit",
                        "numpy", *LAYERS) == ["equidist._fit"]
    assert json.loads((tmp_path / "fit.json").read_text())["n_points"] == 3


def test_correlate_at_one_thread_starts_no_pool(tmp_path):
    # concurrent.futures is imported only for a thread pool
    block = readme_manifests()["correlate"]
    family = block["correlate"]["family"]
    family["t_stop"] = family["t_start"]
    manifest = tmp_path / "c.json"
    manifest.write_text(json.dumps(block), encoding="utf-8")
    assert _imported_by(["-m", "equidist", "correlate", "--manifest",
                         str(manifest), "--out", str(tmp_path), "--threads",
                         "1"], "equidist.modular", "concurrent") == [
        "equidist.modular"]


def test_boundless_correlate_loads_no_constant_ledger(tmp_path):
    # only a bound block asks correlate for the constant ledger: the
    # README's correlate manifest has none, and with one added the run
    # loads it
    blocks = readme_manifests()
    block = blocks["correlate"]
    family = block["correlate"]["family"]
    family["t_stop"] = family["t_start"]
    assert "bound" not in block["correlate"]
    bounded = json.loads(json.dumps(block))
    bounded["correlate"]["bound"] = {
        "params": blocks["ledger"]["ledger"]["params"]}
    for name, manifest, loaded in (("c", block, []),
                                   ("b", bounded, ["equidist.constants"])):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        argv = ["correlate", "--manifest", str(path),
                "--out", str(tmp_path / name)]
        run = "from equidist import cli\ncli.main(%r)" % argv
        assert _loaded_after(run, "equidist.constants") == loaded
        assert _imported_by(["-m", "equidist", *argv],
                            "equidist.constants") == loaded


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
        "        cli.main(argv)\n"
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
