"""Self-tests of the benchmark: run with

    python3 -m pytest bench -q

from the repository root.  They use shrunken copies of the workload
manifests so that they finish in seconds.
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT as ROOT_SPAN, Layers, Tracer  # noqa: E402

sys.path.insert(0, run.SRC)
from equidist import cli  # noqa: E402


def _small(workload, seed=5):
    """The workload's invocations with less work: fewer nodes and tuples."""
    invs = workloads.generate(workload, seed)
    for inv in invs:
        if inv.command == "correlate":
            inv.manifest["correlate"]["nodes"] = 2 ** 12
            inv.expect["nodes"] = 2 ** 12
        elif inv.command == "schedule":
            inv.manifest["schedule"]["tuples"] = \
                inv.manifest["schedule"]["tuples"][:40]
            inv.expect["rows"] = 40
    return invs


def _subprocess_outputs(invs, base):
    dirs = workloads.write_manifests(invs, str(base))
    codes = []
    for inv, d in zip(invs, dirs):
        code, _, _ = run._spawn(run._cli_argv(inv, d),
                                os.path.join(d, "stdout"),
                                os.path.join(d, "stderr"))
        codes.append(code)
    return dirs, codes


def _traced_outputs(invs, base, tracer):
    dirs = workloads.write_manifests(invs, str(base))
    layers = Layers(tracer)
    layers.install()
    codes = []
    try:
        for inv, d in zip(invs, dirs):
            tracer.begin(ROOT_SPAN)
            try:
                codes.append(run._call_cli(cli, inv, d)[0])
            finally:
                tracer.end()
    finally:
        layers.uninstall()
    return dirs, codes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrappers_are_transparent(workload, tmp_path):
    invs = _small(workload)
    sub_dirs, sub_codes = _subprocess_outputs(invs, tmp_path / "sub")
    tracer = Tracer()
    in_dirs, in_codes = _traced_outputs(invs, tmp_path / "in", tracer)
    assert in_codes == sub_codes
    digests = checks.csv_digests(invs, sub_dirs)
    assert digests
    assert checks.csv_digests(invs, in_dirs) == digests
    # self times of all layers add up to the time spent in the CLI
    summary = tracer.summary()
    total = summary[ROOT_SPAN]["total_s"]
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(
        total, rel=1e-9)
    assert summary[ROOT_SPAN]["calls"] == len(invs)


def test_wrappers_are_removed():
    originals = (cli.correlation, cli.jsonschema.validate,
                 cli.EisensteinObservable.value_reduced)
    layers = Layers(Tracer())
    layers.install()
    assert cli.correlation is not originals[0]
    layers.uninstall()
    assert (cli.correlation, cli.jsonschema.validate,
            cli.EisensteinObservable.value_reduced) == originals
    assert "value" not in vars(cli.TorusMeasure)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    def texts(seed):
        return [inv.manifest_text() for inv in
                workloads.generate(workload, seed)]
    assert texts(11) == texts(11)
    assert texts(11) != texts(12)
    props = [workloads.input_properties(workloads.generate(workload, s))
             for s in (11, 12)]
    for key in ("rows", "r", "nodes", "points", "tuples"):
        assert props[0][key] == props[1][key]


def test_generator_enforces_resolution_guard():
    with pytest.raises(ValueError, match="resolution guard"):
        workloads._correlate("c", {}, [{}], {"t_start": 1.0, "t_stop": 9.0,
                                             "t_step": 1.0,
                                             "pattern": [1.0]}, 2 ** 14)


def _rewrite_csv(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines = edit(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _set_cell(column, value, row=1):
    def edit(lines):
        header = lines[0].split(",")
        cells = lines[row].split(",")
        cells[header.index(column)] = value
        lines[row] = ",".join(cells)
        return lines
    return edit


@pytest.mark.parametrize("command,edit,problem", [
    ("correlate", lambda lines: lines[:-1], "correlate rows"),
    ("correlate", _set_cell("value_re", "nan"), "non-finite value_re"),
    ("correlate", _set_cell("mu_product", "1.0e-02"), "mu_product off"),
    ("schedule", _set_cell("ok_group_upper", "0"), "window checks fail"),
])
def test_corrupted_csv_fails_checks(command, edit, problem, tmp_path):
    workload = {"correlate": "corr-r2-haar", "schedule": "exact-tables"}
    invs = [inv for inv in _small(workload[command])
            if inv.command == command]
    dirs, codes = _subprocess_outputs(invs, tmp_path)
    assert codes == [0]
    assert checks.check_invocation(invs[0], 0, "", dirs[0]) == []
    _rewrite_csv(os.path.join(dirs[0], command + ".csv"), edit)
    problems = checks.check_invocation(invs[0], 0, "", dirs[0])
    assert any(p.startswith(problem) for p in problems), problems
    assert checks.classify("exact-tables", invs[0].label, problems) \
        == "unexpected"


def test_known_failures_match_only_their_signature():
    for (workload, label), (problems, _) in checks.KNOWN_FAILURES.items():
        assert checks.classify(workload, label, problems) == "known"
        assert checks.classify(workload, label,
                               problems + ["extra"]) == "unexpected"
        assert checks.classify("corr-r2-haar", label,
                               problems) == "unexpected"
        assert checks.classify(workload, label, []) == "ok"


@pytest.mark.parametrize("y_lo,y_hi", [(1.5, 3.0), (1.2, 2.5), (1.0, 1.1)])
def test_gauss_legendre_reference_matches_adaptive_quadrature(y_lo, y_hi):
    from equidist.modular import BumpProfile, mu_integral
    ref = mu_integral(BumpProfile("bump", y_lo, y_hi))
    assert checks.bump_mu(y_lo, y_hi) == pytest.approx(ref, rel=1e-13)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
