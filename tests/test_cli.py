"""End-to-end exercises of the command line driver.

Every test drives the entry point in-process through the `runner`
fixture with manifests written into a temp directory, then inspects the
emitted CSV/JSON/gnuplot files and exit codes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from equidist import _draft7, cli, modular
from equidist.cli import _csv_lines, _finite_or_null, _json_text, main
from equidist.constants import _exp
from equidist.geometry import (RootAction, TupleStack, select_direction,
                               tuple_stats)
from equidist.modular import BumpProfile, EisensteinObservable
from equidist.selection import choose_window, pigeonhole
from equidist.suites import _brute_force_pq

GOLDEN_PARAMS = {
    "d_o": 1, "D_o": 1.0, "delta_o": 1.0, "C": 1.0, "c": 0.4,
    "A": 1.0, "a": 1.0,
    "growth": {"kind": "power-law", "L1": 1.0, "ell": 1.0, "L2": 1.0},
}


def write_manifest(path, payload):
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


def _refuse_constant(token):
    raise ValueError("%s is not strict JSON" % token)


def read_json(path):
    """An output JSON file, parsed as strict JSON (RFC 8259): a NaN or
    Infinity token fails the test."""
    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=_refuse_constant)


def read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def readme_manifests():
    """The README's JSON manifests by mode, in the order it gives them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    return {b["mode"]: b for b in map(json.loads, re.findall(
        r"```json\n(.*?)```", readme, re.S))}


def balanced_entry(rng, m, n):
    # nonnegative coordinates whose first m and last n share one total
    total = rng.uniform(0.5, 12.0)
    return np.concatenate([rng.dirichlet(np.ones(m)) * total,
                           rng.dirichlet(np.ones(n)) * total]).tolist()


def rebuilt_schedule_csv(block):
    """schedule.csv for a theta "auto" block with a builtin action, from
    the library calls in the CLI's 18-column order."""
    action = RootAction.u_mn(block["action"]["m"], block["action"]["n"])
    rows = []
    for idx, entries in enumerate(block["tuples"]):
        stack = TupleStack(action, [entries])
        stats = tuple_stats(stack)
        sel = select_direction(stack)
        log_M_r = float(stats.log_M_r[0])
        theta = math.exp(-log_M_r)
        log_norms = sel.log_norms.tolist()
        win = choose_window(log_norms, [_exp(v) for v in log_norms], theta)
        rows.append((idx, int(stack.r[0]),
                     *(_exp(float(col[0])) for col in (
                         stats.log_rho_r, stats.log_m_r, stats.log_M_r,
                         stats.log_Delta_r)),
                     *(int(col[0]) for col in (sel.chosen_root, sel.i, sel.j,
                                               sel.l)),
                     theta, win.p, win.q, win.L, win.log_L,
                     *(ok for _, _, ok in win.checks.values())))
    return "".join(_csv_lines(
        ("tuple_index", "r", "rho_r", "m_r", "M_r", "Delta_mult",
         "chosen_root", "i", "j", "l", "theta", "p", "q", "L", "log_L",
         "ok_scale_cap", "ok_group_lower", "ok_group_upper"), rows))


# the smallest value each flag accepts
FLAG_FLOORS = {"--threads": 1, "--nodes": 16, "--seed": 0}


class TestLedgerCommand:
    def manifest(self, tmp_path, **overrides):
        blk = {"params": GOLDEN_PARAMS, "theorem": "A", "r_max": 3,
               "evaluate": [{"r": 1, "Delta": math.exp(10.0),
                             "wiener_norm": 1.0, "s_norms": [1.0]}]}
        blk.update(overrides)
        return write_manifest(tmp_path / "m.json",
                              {"mode": "ledger", "seed": 7, "ledger": blk})

    def test_golden_outputs(self, tmp_path, runner):
        mpath = self.manifest(tmp_path)
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, rows = read_csv_rows(tmp_path / "ledger.csv")
        assert header == ["r", "d_r", "D_r", "log10_D_r", "delta_r",
                          "eps_r", "threshold"]
        assert len(rows) == 3
        first = rows[0]
        assert int(first["r"]) == 1
        assert int(first["d_r"]) == 2
        assert float(first["delta_r"]) == pytest.approx(1.0 / 22.0,
                                                        rel=1e-12)
        assert float(first["D_r"]) == pytest.approx(5.0 * math.sqrt(3.0),
                                                    rel=1e-12)
        payload = read_json(tmp_path / "ledger.json")
        assert payload["seed"] == 7
        # NaN (no eps_r in the base row, no Q_r under theorem A) is null
        assert payload["rows"][0]["eps_r"] is None
        assert all(row["Q_r"] is None for row in payload["rows"])
        assert payload["Bprime"] == pytest.approx(3.0, rel=1e-15)
        assert payload["log10_Bprime"] == pytest.approx(math.log10(3.0),
                                                        rel=1e-15)
        ev = payload["evaluations"][0]
        assert ev["bound"] == pytest.approx(5.496978635094461, rel=1e-12)
        assert (tmp_path / "ledger.gp").read_text().startswith("#")

    def test_factorial_mode_reports_growth_constants(self, tmp_path, runner):
        mpath = self.manifest(tmp_path, theorem="B", r_max=10, evaluate=[])
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "lambda=" in res.output
        payload = read_json(tmp_path / "ledger.json")
        for key in ("lambda", "H1", "gamma", "H2"):
            assert key in payload

    def test_seed_flag_overrides_manifest(self, tmp_path, runner):
        mpath = self.manifest(tmp_path)
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path), "--seed", "99"])
        assert res.exit_code == 0
        payload = read_json(tmp_path / "ledger.json")
        assert payload["seed"] == 99

    def test_bad_parameters_exit_numerical(self, tmp_path, runner):
        # passes the schema but b < a/4, caught when the recursion reads b(d)
        params = dict(GOLDEN_PARAMS, a=3.0,
                      growth={"kind": "constant", "B": 1.0, "b": 0.7,
                              "M": 1.0})
        mpath = self.manifest(tmp_path, params=params)
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["error"] == "numerical"

    @pytest.mark.parametrize("growth, D_1, log10_D_1", [
        # B' = L1^4 + 2 L1 = 1e800, D_1 = 5 sqrt(B'): both past the range
        ({"kind": "power-law", "L1": 1e200, "ell": 1.0, "L2": 1.0},
         math.inf, 400.0 + math.log10(5.0)),
        # B' = B^2 + 2 B = 1e320 is past the range, D_1 = 5e160 is not
        ({"kind": "constant", "B": 1e160, "b": 1.0, "M": 1.0},
         5e160, 160.0 + math.log10(5.0))])
    def test_constants_past_the_float_range_read_inf(self, tmp_path, runner,
                                                     growth, D_1, log10_D_1):
        params = dict(GOLDEN_PARAMS, growth=growth)
        mpath = self.manifest(tmp_path, params=params)
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = read_json(tmp_path / "ledger.json")
        # inf is written as null; the log10 twin keeps the value
        assert payload["Bprime"] is None
        assert payload["log10_Bprime"] == pytest.approx(
            2.0 * (log10_D_1 - math.log10(5.0)), rel=1e-12)
        first = payload["rows"][0]
        if D_1 == math.inf:
            assert first["D_r"] is None
        else:
            assert first["D_r"] == pytest.approx(D_1, rel=1e-12)
        assert first["log10_D_r"] == pytest.approx(log10_D_1, rel=1e-12)
        assert all(math.isfinite(row["log10_D_r"])
                   for row in payload["rows"])
        ev = payload["evaluations"][0]
        assert ev["log10_bound"] == pytest.approx(
            log10_D_1 - first["delta_r"] * 10.0 / math.log(10.0), rel=1e-12)
        assert (ev["bound"] is None) == (D_1 == math.inf)

    def test_theorem_b_refuses_an_infinite_base_constant(self, tmp_path,
                                                         runner):
        params = dict(GOLDEN_PARAMS, growth={"kind": "power-law",
                                             "L1": 1e200, "ell": 1.0,
                                             "L2": 1.0})
        mpath = self.manifest(tmp_path, params=params, theorem="B")
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["error"] == "numerical"
        assert "theorem B needs a finite D_1" in err["message"]
        assert "log10 D_1 = 400.699" in err["message"]
        assert not (tmp_path / "ledger.csv").exists()

    def test_theorem_b_refuses_an_overflowing_D_r(self, tmp_path, runner):
        # r_max Q is finite, but Q_4 = Q P_1^(c1/4) > Q pushes D_4 past it
        params = dict(GOLDEN_PARAMS, A=2.245e307)
        mpath = self.manifest(tmp_path, params=params, theorem="B",
                              r_max=4)
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["error"] == "numerical"
        assert err["message"] == ("theorem B needs a finite D_4, but "
                                  "log10 D_4 = 308.255 is past the float "
                                  "range")
        assert not (tmp_path / "ledger.csv").exists()
        # just below, every D_r is finite and the run succeeds
        mpath = self.manifest(tmp_path, theorem="B", r_max=4,
                              params=dict(GOLDEN_PARAMS, A=2.2e307))
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "ledger.json").read_text())
        assert all(row["D_r"] is not None for row in report["rows"])

    @pytest.mark.parametrize("theorem", ["A", "B"])
    @pytest.mark.parametrize("name, value, message", [
        # 14 C is past the float range
        ("C", 1e308, "C = 1e+308 is too large: P_1 = sqrt(14 C) "),
        # Q = 2 A is past it
        ("A", 1e308, "A = 1e+308 is too large: r_max Q = 4 * 2 max(A, P_1) "),
        # Q = 1e308 is not, 4 Q is
        ("A", 5e307, "A = 5e+307 is too large: r_max Q = 4 * 2 max(A, P_1) "),
    ])
    def test_overflowing_P1_or_Q_is_refused(self, tmp_path, runner, theorem,
                                            name, value, message):
        params = dict(GOLDEN_PARAMS, **{name: value})
        mpath = self.manifest(tmp_path, params=params, theorem=theorem,
                              r_max=4)
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["error"] == "numerical"
        assert err["message"] == message + "overflows the float range"
        assert not (tmp_path / "ledger.csv").exists()

    def test_out_of_range_parameters_exit_schema(self, tmp_path, runner):
        params = dict(GOLDEN_PARAMS, delta_o=2.0)
        mpath = self.manifest(tmp_path, params=params)
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert err["error"] == "schema"


class TestManifestErrors:
    def test_missing_file(self, tmp_path, runner):
        res = runner.invoke(main, ["ledger", "--manifest",
                                   str(tmp_path / "nope.json")])
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert err["error"] == "file-missing"

    def test_invalid_json(self, tmp_path, runner):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        res = runner.invoke(main, ["ledger", "--manifest", str(bad)])
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert "not valid JSON" in err["message"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_not_json(self, tmp_path, runner, token):
        # json.loads would read these as floats; a manifest is strict JSON
        mpath = write_manifest(
            tmp_path / "m.json",
            {"mode": "ledger", "ledger": {"params": GOLDEN_PARAMS,
                                          "r_max": 2}})
        text = Path(mpath).read_text(encoding="utf-8")
        Path(mpath).write_text(text.replace('"D_o": 1.0', '"D_o": ' + token),
                               encoding="utf-8")
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert json.loads(res.stderr) == {
            "error": "schema",
            "message": "manifest is not valid JSON: %s is not a JSON number"
                       % token}
        assert not (tmp_path / "ledger.csv").exists()

    @pytest.mark.parametrize("token", ["1e400", "-1e400"])
    def test_number_past_the_float_range_is_not_json(self, tmp_path, runner,
                                                     token):
        # json.loads would read the literal as an infinite float
        mpath = write_manifest(
            tmp_path / "m.json",
            {"mode": "ledger", "ledger": {"params": GOLDEN_PARAMS,
                                          "r_max": 2}})
        text = Path(mpath).read_text(encoding="utf-8")
        Path(mpath).write_text(text.replace('"D_o": 1.0', '"D_o": ' + token),
                               encoding="utf-8")
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert json.loads(res.stderr) == {
            "error": "schema",
            "message": "manifest is not valid JSON: %s is past the float "
                       "range" % token}
        assert not (tmp_path / "ledger.csv").exists()

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("mode", ["ledger", "schedule"])
    def test_integer_past_the_float_range_is_not_json(self, tmp_path, runner,
                                                      sign, mode):
        # json.loads would read the literal as an int that no float holds,
        # and the run would fail later with an unnamed OverflowError
        token = sign + "1" + "0" * 400
        if mode == "ledger":
            block = {"params": dict(GOLDEN_PARAMS, D_o=7.5), "r_max": 2}
        else:
            block = {"action": {"builtin": "u_mn", "m": 1, "n": 1},
                     "tuples": [[[2.0, 2.0], [5.0, 7.5]]]}
        mpath = tmp_path / "m.json"
        text = json.dumps({"mode": mode, mode: block})
        assert text.count("7.5") == 1
        mpath.write_text(text.replace("7.5", token), encoding="utf-8")
        res = runner.invoke(main, [mode, "--manifest", str(mpath),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert json.loads(res.stderr) == {
            "error": "schema",
            "message": "manifest is not valid JSON: %s is past the float "
                       "range" % token}
        assert not (tmp_path / (mode + ".csv")).exists()

    def test_integer_inside_the_float_range_is_an_int(self):
        text = '{"r_max": 2, "D_o": 1%s, "m": -7}' % ("0" * 300)
        obj = json.loads(text, parse_int=_draft7._finite_int)
        assert obj == {"r_max": 2, "D_o": 10 ** 300, "m": -7}
        assert all(type(v) is int for v in obj.values())

    def test_non_utf8_manifest(self, tmp_path, runner):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"mode": "ledger"\xff}')
        res = runner.invoke(main, ["ledger", "--manifest", str(bad)])
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert err["error"] == "file-encoding"
        assert str(bad) in err["message"]

    def test_empty_manifest_reports_missing_mode(self, tmp_path, runner):
        mpath = write_manifest(tmp_path / "empty.json", {})
        res = runner.invoke(main, ["ledger", "--manifest", mpath])
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert "mode" in err["message"]

    def test_mode_mismatch(self, tmp_path, runner):
        mpath = write_manifest(
            tmp_path / "m.json",
            {"mode": "ledger", "ledger": {"params": GOLDEN_PARAMS,
                                          "r_max": 2}})
        res = runner.invoke(main, ["schedule", "--manifest", mpath])
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert "does not match" in err["message"]

    def test_schema_violation_reports_path(self, tmp_path, runner):
        mpath = write_manifest(
            tmp_path / "m.json",
            {"mode": "ledger", "ledger": {"params": GOLDEN_PARAMS,
                                          "r_max": "three"}})
        res = runner.invoke(main, ["ledger", "--manifest", mpath])
        assert res.exit_code == 2
        assert json.loads(res.stderr) == {
            "error": "schema", "message": "'three' is not of type 'integer'",
            "path": ["ledger", "r_max"]}

    def test_thread_environment_variable_is_not_read(self, tmp_path,
                                                     runner):
        # --threads is the only thread setting; the retired
        # EQUIDIST_THREADS variable neither refuses nor sets a count
        mpath = write_manifest(
            tmp_path / "m.json",
            {"mode": "correlate", "correlate": dict(CORRELATE_BLOCK)})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path)],
                            env={"EQUIDIST_THREADS": "many"})
        assert res.exit_code == 0, res.stderr
        assert (tmp_path / "correlate.csv").exists()

    @pytest.mark.parametrize("flag,env", [
        (["--threads", "0"], {}),
        (["--threads", "-2"], {}),
        # a valid count in the retired EQUIDIST_THREADS does not
        # rescue the flag
        (["--threads", "0"], {"EQUIDIST_THREADS": "2"}),
        # the schema's minimum for the manifest's nodes and seed
        (["--nodes", "8"], {}),
        (["--seed", "-1"], {}),
    ])
    def test_non_positive_threads_rejected(self, tmp_path, runner, flag,
                                           env):
        mpath = write_manifest(
            tmp_path / "m.json",
            {"mode": "correlate", "correlate": dict(CORRELATE_BLOCK)})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path)] + flag, env=env)
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert err["error"] == "schema"
        name = flag[0]
        assert name in err["message"]
        assert "at least %d" % FLAG_FLOORS[name] in err["message"]
        assert not (tmp_path / "correlate.csv").exists()

    @pytest.mark.parametrize("command", ["ledger", "schedule", "fit",
                                         "verify"])
    def test_every_subcommand_checks_threads(self, tmp_path, runner,
                                             command):
        # the thread count and the seed are checked before the manifest
        # is read
        for flag, value in (("--threads", "0"), ("--seed", "-1")):
            res = runner.invoke(main, [command, "--manifest",
                                       str(tmp_path / "absent.json"),
                                       "--out", str(tmp_path), flag, value])
            assert res.exit_code == 2
            err = json.loads(res.stderr)
            assert err["error"] == "schema"
            assert flag in err["message"]
            assert "at least %d" % FLAG_FLOORS[flag] in err["message"]
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["ledger", "schedule", "fit", "verify"])
def test_nodes_only_on_correlate(tmp_path, runner, command):
    res = runner.invoke(main, [command, "--manifest",
                               str(tmp_path / "absent.json"),
                               "--nodes", "512"])
    assert res.exit_code == 2
    assert "unrecognized arguments: --nodes" in res.stderr


@pytest.mark.parametrize("argv", [
    [],
    ["correlate", "--out", "OUT"],
    ["correlate", "--manifest", "M", "--out", "OUT", "--threads", "two"],
    ["correlate", "--manifest", "M", "--out", "OUT", "--seed", "1.5"],
    ["correlate", "--manifest", "M", "--out", "OUT", "--nodes", "1e4"],
    # no flag is matched by a prefix of its name
    ["correlate", "--manif", "M", "--out", "OUT"],
    ["correlate", "--manifest", "M", "--out", "OUT", "--thread", "2"],
])
def test_usage_errors_write_nothing(tmp_path, runner, argv):
    # no subcommand, a missing --manifest, a non-integer flag or an
    # abbreviated one: exit 2 with argparse's usage message, before the
    # manifest, a valid one, is read
    mpath = write_manifest(tmp_path / "m.json",
                           {"mode": "correlate", "correlate": CORRELATE_BLOCK})
    out = tmp_path / "out"
    res = runner.invoke(main, [{"M": mpath, "OUT": str(out)}.get(a, a)
                               for a in argv])
    assert res.exit_code == 2
    assert res.output == ""
    assert res.stderr.startswith("usage: equidist")
    assert not out.exists()


def test_out_naming_a_file_is_refused(tmp_path, runner):
    mpath = write_manifest(tmp_path / "m.json",
                           {"mode": "correlate", "correlate": CORRELATE_BLOCK})
    taken = tmp_path / "taken"
    taken.write_text("kept\n", encoding="utf-8")
    res = runner.invoke(main, ["correlate", "--manifest", mpath,
                               "--out", str(taken)])
    assert res.exit_code == 2
    assert res.output == ""
    assert "argument --out: " in res.stderr
    assert taken.read_text(encoding="utf-8") == "kept\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["m.json", "taken"]


def test_out_that_cannot_be_made_exits_2(tmp_path, runner):
    # a directory under a regular file
    mpath = write_manifest(tmp_path / "m.json", {
        "mode": "verify", "verify": {"trials": 10}})
    (tmp_path / "taken").write_text("kept\n", encoding="utf-8")
    out = tmp_path / "taken" / "sub"
    res = runner.invoke(main, ["verify", "--manifest", mpath,
                               "--out", str(out)])
    assert res.exit_code == 2
    assert res.output == ""
    err = json.loads(res.stderr)
    assert err["error"] == "file-write"
    assert str(out) in err["message"]


def test_output_file_that_cannot_be_written_exits_2(tmp_path, runner):
    # ledger.csv taken by a directory
    mpath = write_manifest(tmp_path / "m.json", {
        "mode": "ledger", "ledger": {"params": GOLDEN_PARAMS, "r_max": 3}})
    (tmp_path / "out" / "ledger.csv").mkdir(parents=True)
    res = runner.invoke(main, ["ledger", "--manifest", mpath,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert res.output == ""
    err = json.loads(res.stderr)
    assert err["error"] == "file-write"
    assert str(tmp_path / "out" / "ledger.csv") in err["message"]


def test_file_that_cannot_be_read_exits_2(tmp_path, runner, monkeypatch):
    # a file without read permission; simulated, since root reads any file
    mpath = write_manifest(tmp_path / "m.json", {
        "mode": "ledger", "ledger": {"params": GOLDEN_PARAMS, "r_max": 3}})

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    res = runner.invoke(main, ["ledger", "--manifest", mpath])
    assert res.exit_code == 2
    err = json.loads(res.stderr)
    assert err == {"error": "file-read", "message": "manifest cannot be "
                   "read: %s (Permission denied)" % mpath}


def test_version_and_help(runner):
    res = runner.invoke(main, ["--version"])
    assert (res.exit_code, res.output) == (0, "equidist, version 0.1.0\n")
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    commands = res.output.split("\ncommands:\n")[1]
    assert re.findall(r"^    (\w+)", commands, re.M) == [
        "ledger", "schedule", "correlate", "fit", "verify"]


class TestScheduleCommand:
    def manifest(self, tmp_path, tuples, theta="auto"):
        return write_manifest(
            tmp_path / "s.json",
            {"mode": "schedule", "seed": 3,
             "schedule": {"action": {"builtin": "u_mn", "m": 1, "n": 1},
                          "tuples": tuples, "theta": theta}})

    def test_pair_example(self, tmp_path, runner):
        mpath = self.manifest(tmp_path, [[[2.0, 2.0], [5.0, 5.0]]])
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, rows = read_csv_rows(tmp_path / "schedule.csv")
        assert header[:6] == ["tuple_index", "r", "rho_r", "m_r", "M_r",
                              "Delta_mult"]
        row = rows[0]
        assert (int(row["i"]), int(row["j"])) == (2, 1)
        assert int(row["l"]) == 2
        assert float(row["M_r"]) == pytest.approx(math.exp(6.0), rel=1e-12)
        assert float(row["log_L"]) == pytest.approx(-4.5, abs=1e-12)
        assert (int(row["ok_scale_cap"]), int(row["ok_group_lower"]),
                int(row["ok_group_upper"])) == (1, 1, 1)

    def test_json_keeps_what_the_csv_lacks(self, tmp_path, runner):
        mpath = self.manifest(tmp_path, [[[2.0, 2.0], [5.0, 5.0]]])
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        detail = read_json(tmp_path / "schedule.json")
        assert sorted(detail) == ["action", "mode", "seed", "tuples",
                                  "version"]
        (entry,) = detail["tuples"]
        assert entry == {
            "tuple_index": 0,
            # Delta_r = min(rho_r, m_r) = min(e^2, e^6)
            "log_Delta_r": 2.0,
            # root values 4 and 10, i = 2, j = 1: images e^6 and e^0
            "relabeling": [2, 1], "log_norms": [6.0, 0.0],
            "checks": entry["checks"]}
        # theta = e^-6, r = 2, (p, q) = (1, 0), log L = -4.5
        expected = {"scale_cap": (1.5, 6.0), "group_lower": (1.5, 1.5),
                    "group_upper": (-4.5, -1.5)}
        assert sorted(entry["checks"]) == sorted(expected)
        for name, (lhs, rhs) in expected.items():
            assert entry["checks"][name] == {
                "lhs": pytest.approx(math.exp(lhs), rel=1e-12),
                "rhs": pytest.approx(math.exp(rhs), rel=1e-12)}

    @pytest.mark.parametrize("source", ["readme", "random"])
    def test_csv_matches_the_library_calls(self, tmp_path, runner, source):
        if source == "readme":
            block = readme_manifests()["schedule"]["schedule"]
        else:
            rng = np.random.default_rng(2023)
            block = {"action": {"builtin": "u_mn", "m": 2, "n": 3},
                     "theta": "auto",
                     "tuples": [[balanced_entry(rng, 2, 3) for _ in
                                 range(int(rng.integers(2, 9)))]
                                for _ in range(200)]}
        mpath = write_manifest(tmp_path / "s.json",
                               {"mode": "schedule", "schedule": block})
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "schedule.csv").read_text(encoding="utf-8")
        assert text == rebuilt_schedule_csv(block)
        # schedule.json repeats no CSV column but the join key
        header = text.split("\n", 1)[0].split(",")
        detail = read_json(tmp_path / "schedule.json")
        assert len(detail["tuples"]) == len(block["tuples"])
        for entry in detail["tuples"]:
            assert set(entry) & set(header) == {"tuple_index"}

    def test_triple_gets_own_window(self, tmp_path, runner):
        mpath = self.manifest(
            tmp_path, [[[1.0, 1.0], [3.0, 3.0], [6.0, 6.0]]])
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        _, rows = read_csv_rows(tmp_path / "schedule.csv")
        assert int(rows[0]["r"]) == 3
        assert float(rows[0]["L"]) > 0.0

    def test_degenerate_tuple_fails(self, tmp_path, runner):
        mpath = self.manifest(tmp_path, [[[2.0, 2.0], [2.0, 2.0]]])
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert "degenerate" in err["message"]

    def test_rho_past_the_float_range_reads_inf(self, tmp_path, runner):
        # rho_r = e^720 overflows; M_r = m_r = Delta_r = e^160 do not
        mpath = self.manifest(tmp_path, [[[800.0, 800.0], [720.0, 720.0]]])
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        _, rows = read_csv_rows(tmp_path / "schedule.csv")
        assert rows[0]["rho_r"] == "inf"
        for key in ("m_r", "M_r", "Delta_mult"):
            assert float(rows[0][key]) == pytest.approx(math.exp(160.0),
                                                        rel=1e-12)
        assert (rows[0]["ok_scale_cap"], rows[0]["ok_group_lower"],
                rows[0]["ok_group_upper"]) == ("1", "1", "1")
        read_json(tmp_path / "schedule.json")

    def test_M_past_the_float_range_fails(self, tmp_path, runner):
        # M_r = e^800: theta = 1/M_r underflows to 0
        mpath = self.manifest(tmp_path, [[[2.0, 2.0], [5.0, 5.0]],
                                         [[400.0, 400.0], [0.0, 0.0]]])
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["error"] == "numerical"
        assert err["message"].startswith("tuple 1: log M_r = 800.0 ")
        assert "theta = 1/M_r underflows" in err["message"]
        assert not (tmp_path / "schedule.csv").exists()


    # (action, a bad three-entry tuple, what its refusal says)
    BAD_TRIPLES = {
        "cone": (None, [[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]],
                 "requires nonnegative coordinates"),
        "finite": (None, [[1.0, 1.0], [2.0, 2.0], [math.inf, math.inf]],
                   "entries must be finite"),
        "ragged": (None, [[1.0, 1.0], [2.0], [3.0, 3.0]],
                   "entry 1 has 1 coordinates, expected 2"),
        "rho": ({"dim_t": 2, "roots": [[1.0, 1.0], [1.0, -1.0]]},
                [[1.0, 2.0], [3.0, -1.0], [0.0, 0.0]],
                "requires min coordinate >= 0"),
        "degenerate": (None, [[2.0, 2.0]] * 3, "degenerate"),
        "M_r": (None, [[1.0, 1.0], [2.0, 2.0], [400.0, 400.0]],
                "log M_r = 798.0 is past the float range"),
    }

    @pytest.mark.parametrize("kind", sorted(BAD_TRIPLES))
    def test_first_failing_tuple_in_manifest_order(self, tmp_path, runner,
                                                   kind):
        # tuple 2 (two entries) also fails, and its length group comes
        # first, but the refusal names tuple 1
        action, bad, phrase = self.BAD_TRIPLES[kind]
        mpath = write_manifest(
            tmp_path / "s.json",
            {"mode": "schedule",
             "schedule": {"action": action or {"builtin": "u_mn", "m": 1,
                                               "n": 1},
                          "tuples": [[[2.0, 2.0], [5.0, 5.0]], bad,
                                     [[3.0, 3.0], [3.0, 3.0]]]}})
        # the manifest parser refuses the Infinity token and a literal
        # past the float range alike; test_non_finite_entry_is_named
        # hands the body the inf itself
        text = Path(mpath).read_text(encoding="utf-8")
        Path(mpath).write_text(text.replace("Infinity", "1e400"),
                               encoding="utf-8")
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        if kind == "finite":
            assert res.exit_code == 2
            assert json.loads(res.stderr) == {
                "error": "schema", "message": "manifest is not valid JSON: "
                "1e400 is past the float range"}
            return
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["error"] == "numerical"
        assert err["message"].startswith("tuple 1: "), err["message"]
        assert phrase in err["message"]
        assert not (tmp_path / "schedule.csv").exists()

    def test_non_finite_entry_is_named(self, tmp_path, runner, monkeypatch):
        # a parsed block holding inf, as no manifest can give it, reaches
        # the body; tuple 2 fails too, but the refusal names tuple 1
        manifest = {"mode": "schedule", "schedule": {
            "action": {"builtin": "u_mn", "m": 1, "n": 1},
            "tuples": [[[2.0, 2.0], [5.0, 5.0]],
                       self.BAD_TRIPLES["finite"][1],
                       [[3.0, 3.0], [3.0, 3.0]]]}}
        monkeypatch.setattr(cli, "_load_manifest", lambda path, mode:
                            manifest)
        res = runner.invoke(main, ["schedule", "--manifest", "unread.json",
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert json.loads(res.stderr) == {
            "error": "numerical", "message": "tuple 1: entries must be finite"}
        assert not (tmp_path / "schedule.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_root_values_fail_on_M_r(self, tmp_path, runner):
        # alpha_1 = t_1 + t_2 overflows on the difference (1e308, 1e308);
        # numpy's overflow warning would break the one-line JSON stderr
        mpath = write_manifest(
            tmp_path / "s.json",
            {"mode": "schedule",
             "schedule": {"action": {"dim_t": 2,
                                     "roots": [[1.0, 1.0], [0.0, 1.0]]},
                          "tuples": [[[1e308, 1e308], [0.0, 0.0]]]}})
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["message"].startswith(
            "tuple 0: log M_r = inf is past the float range")

    def test_ragged_roots_are_named(self, tmp_path, runner):
        mpath = write_manifest(
            tmp_path / "s.json",
            {"mode": "schedule",
             "schedule": {"action": {"dim_t": 2,
                                     "roots": [[1.0, 1.0], [1.0]]},
                          "tuples": [[[1.0, 2.0], [3.0, 4.0]]]}})
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert json.loads(res.stderr)["message"] == (
            "root 1 has 1 coefficients, expected 2")

    @pytest.mark.parametrize("dim_t,tag", [
        (2, "u_mn:0,2"),  # a block size below 1
        (3, "u_mn:x"),    # malformed
        (3, "u_mn:1,1"),  # m + n other than dim_t
        (3, "cone"),      # unknown
    ])
    def test_bad_cone_tag_is_refused_for_the_action(self, tmp_path, runner,
                                                     dim_t, tag):
        # the tag is parsed once, when the action is built, so the refusal
        # names the tag and no tuple
        mpath = write_manifest(
            tmp_path / "s.json",
            {"mode": "schedule",
             "schedule": {"action": {"dim_t": dim_t,
                                     "roots": np.eye(dim_t).tolist(),
                                     "cone_tag": tag},
                          "tuples": [[[1.0] * dim_t, [2.0] * dim_t]]}})
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        assert res.stderr == (
            '{"error": "numerical", "message": "cone tag \'%s\' is neither '
            '\'free\' nor \'u_mn:m,n\' with m, n >= 1 and m + n = dim_t = '
            '%d"}\n' % (tag, dim_t))
        assert not (tmp_path / "out").exists()

    def test_proper_action_whose_roots_do_not_span_is_refused(
            self, tmp_path, runner):
        mpath = write_manifest(
            tmp_path / "s.json",
            {"mode": "schedule",
             "schedule": {"action": {"dim_t": 2, "roots": [[1.0, 1.0]],
                                     "proper": True},
                          "tuples": [[[1.0, 2.0], [3.0, 4.0]]]}})
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        assert json.loads(res.stderr) == {
            "error": "numerical", "message": "action declared proper but "
            "the roots do not span the dual space"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("action,tuples", [
        ({"builtin": "u_mn", "m": 2, "n": 3},
         [[[1.0, 2.0, 1.0, 1.0, 1.0], [4.0, 0.5, 2.0, 2.0, 0.5]],
          [[0.0, 3.0, 3.0, 0.0, 0.0], [1.5, 1.5, 0.5, 1.0, 1.5],
           [6.0, 1.0, 2.0, 2.0, 3.0]]]),
        ({"dim_t": 2, "roots": [[1.0, 1.0], [1.0, -1.0], [2.0, 0.5]],
          "multiplicities": [1, 3, 2], "proper": True},
         [[[1.0, 2.0], [3.0, 0.5], [0.0, 4.0]], [[2.0, 2.0], [5.0, 1.0]]]),
        ({"dim_t": 3, "roots": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
          "cone_tag": "u_mn:2,1"},
         [[[1.0, 2.0, 3.0], [4.0, 0.0, 4.0]],
          [[0.5, 0.5, 1.0], [2.0, 1.0, 3.0], [0.0, 6.0, 6.0]]]),
    ])
    def test_written_action_reproduces_the_run(self, tmp_path, runner,
                                               action, tuples):
        # schedule.json's action is a manifest action: in place of the
        # manifest's own it gives the same exit code, stdout and files
        def run(name, action):
            mpath = write_manifest(
                tmp_path / (name + ".json"),
                {"mode": "schedule", "seed": 3,
                 "schedule": {"action": action, "tuples": tuples}})
            out = tmp_path / name
            res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                       "--out", str(out)])
            return (res.exit_code, res.output, res.stderr,
                    {f.name: f.read_bytes() for f in out.glob("*")})

        first = run("first", action)
        assert first[0] == 0, first[2]
        written = json.loads(first[3]["schedule.json"])["action"]
        assert run("again", written) == first

    @pytest.mark.parametrize("action,message,path", [
        # u_mn(10^5, 1) would build a 0.8 GB root table
        ({"builtin": "u_mn", "m": 100000, "n": 1},
         "100000 is greater than the maximum of 64", ["m"]),
        # past numpy's largest dimension
        ({"builtin": "u_mn", "m": 2 ** 70, "n": 1},
         "1180591620717411303424 is greater than the maximum of 64", ["m"]),
        # a multiplicity past the schema's cap
        ({"dim_t": 2, "roots": [[1.0, 1.0], [1.0, -1.0]],
          "multiplicities": [1, 2 ** 70]},
         "1180591620717411303424 is greater than the maximum of 1024",
         ["multiplicities", "1"]),
    ])
    def test_action_past_its_size_limits_is_refused(self, tmp_path, runner,
                                                     action, message, path):
        mpath = write_manifest(
            tmp_path / "s.json",
            {"mode": "schedule",
             "schedule": {"action": action,
                          "tuples": [[[1.0, 2.0], [3.0, 4.0]]]}})
        res = runner.invoke(main, ["schedule", "--manifest", mpath,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 2
        assert json.loads(res.stderr) == {
            "error": "schema", "message": message,
            "path": ["schedule", "action", *path]}
        assert not (tmp_path / "out").exists()


CORRELATE_BLOCK = {
    "sigma": {"dim": 1, "coeffs": [{"chi": [0], "re": 1.0, "im": 0.0}]},
    "profiles": [{"kind": "bump", "y_lo": 1.5, "y_hi": 3.0}],
    "family": {"t_start": 2.0, "t_stop": 5.0, "t_step": 1.0,
               "pattern": [1.0]},
    "nodes": 1024,
}


class TestCorrelateCommand:
    def manifest(self, tmp_path, name="c.json", **overrides):
        blk = dict(CORRELATE_BLOCK)
        blk.update(overrides)
        return write_manifest(tmp_path / name,
                              {"mode": "correlate", "seed": 11,
                               "correlate": blk})

    def test_header_and_reproducibility(self, tmp_path, runner):
        mpath = self.manifest(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        res1 = runner.invoke(main, ["correlate", "--manifest", mpath,
                                    "--out", str(out1)])
        res2 = runner.invoke(main, ["correlate", "--manifest", mpath,
                                    "--out", str(out2), "--threads", "4"])
        assert res1.exit_code == 0, res1.output
        assert res2.exit_code == 0, res2.output
        text1 = (out1 / "correlate.csv").read_text()
        # thread count must not leak into the numbers
        assert text1 == (out2 / "correlate.csv").read_text()
        header, rows = read_csv_rows(out1 / "correlate.csv")
        assert header == ["r", "t_1", "Delta_add", "Delta_mult",
                          "value_re", "value_im", "mu_product",
                          "abs_error", "N_nodes"]
        assert len(rows) == 4
        for row in rows:
            assert int(row["r"]) == 1
            assert int(row["N_nodes"]) == 1024
            assert float(row["abs_error"]) >= 0.0
        echo = read_json(out1 / "correlate_manifest.json")
        assert echo["nodes"] == 1024
        assert len(echo["times"]) == 4
        assert "threads" not in echo

    @pytest.mark.parametrize("rows,row", [
        ({"times": [[2.0], [2.0, 3.0]]}, "[2.0, 3.0]"),
        ({"family": {"t_start": 2.0, "t_stop": 3.0, "t_step": 1.0,
                     "pattern": [1.0, 2.0]}}, "[2.0, 4.0]"),
    ])
    def test_time_row_of_the_wrong_length_is_refused(self, tmp_path, runner,
                                                     rows, row):
        # one profile; the first row whose length differs is named
        blk = {k: v for k, v in CORRELATE_BLOCK.items() if k != "family"}
        mpath = write_manifest(tmp_path / "c.json", {
            "mode": "correlate", "correlate": dict(blk, **rows)})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        assert res.stderr == (
            '{"error": "numerical", "message": "time row %s does not match '
            'the 1 declared profiles"}\n' % row)
        assert not (tmp_path / "out").exists()

    def test_pair_header_lists_both_times(self, tmp_path, runner):
        mpath = self.manifest(
            tmp_path,
            profiles=[{"kind": "bump", "y_lo": 1.5, "y_hi": 3.0},
                      {"kind": "bump", "y_lo": 2.0, "y_hi": 4.0}],
            family={"t_start": 2.0, "t_stop": 3.0, "t_step": 0.5,
                    "pattern": [1.0, 2.0]})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        header, rows = read_csv_rows(tmp_path / "correlate.csv")
        assert header[:3] == ["r", "t_1", "t_2"]
        assert float(rows[0]["t_2"]) == pytest.approx(4.0)

    def test_bound_block_reports_soft_check(self, tmp_path, runner):
        mpath = self.manifest(
            tmp_path,
            bound={"params": GOLDEN_PARAMS, "theorem": "A"})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "bound" in res.output
        assert (tmp_path / "correlate.gp").exists()
        bound = read_json(tmp_path / "correlate_manifest.json")["bound"]
        assert len(bound["values"]) == 4
        assert bound["log10_values"] == [
            pytest.approx(math.log10(v), rel=1e-12) for v in bound["values"]]

    def test_row_length_mismatch_fails(self, tmp_path, runner):
        blk = dict(CORRELATE_BLOCK)
        del blk["family"]
        blk["times"] = [[2.0, 3.0]]
        mpath = write_manifest(tmp_path / "c.json",
                               {"mode": "correlate", "seed": 11,
                                "correlate": blk})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert "does not match" in err["message"]

    @pytest.mark.parametrize("family", [
        # t + t_step == t: the family never reaches t_stop
        {"t_start": 1.0, "t_stop": 2.0, "t_step": 1e-17, "pattern": [1.0]},
        # 300001 rows, past the 100000-row cap
        {"t_start": 0.0, "t_stop": 30.0, "t_step": 1e-4, "pattern": [1.0]},
    ])
    def test_endless_time_family_fails(self, tmp_path, runner, family):
        mpath = self.manifest(tmp_path, family=family)
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["error"] == "numerical"
        assert "t_step" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_gauss_legendre_rows_byte_equal(self, tmp_path, runner):
        # an r = 2 Haar family whose rows all fit the point budget: the
        # CSV bytes repeat across runs and at --threads 2
        mpath = self.manifest(
            tmp_path, nodes=2 ** 14,
            profiles=[{"kind": "bump", "y_lo": 1.5, "y_hi": 3.0},
                      {"kind": "bump", "y_lo": 1.2, "y_hi": 2.5}],
            family={"t_start": 0.5, "t_stop": 3.5, "t_step": 0.5,
                    "pattern": [1.0, 2.0]})
        texts = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                       "--out", str(tmp_path / name),
                                       "--threads", threads])
            assert res.exit_code == 0, res.output
            texts.append((tmp_path / name / "correlate.csv").read_bytes())
        assert texts[0] == texts[1] == texts[2]
        pair = [EisensteinObservable(BumpProfile("bump", 1.5, 3.0)),
                EisensteinObservable(BumpProfile("bump", 1.2, 2.5))]
        for k in range(7):
            t = 0.5 + 0.5 * k
            factors = [(o.profile, math.exp(-s))
                       for o, s in zip(pair, [t, 2.0 * t])]
            assert modular._pieces(factors)[0].size * 64 <= 2 ** 14

    def test_row_past_the_farey_bound_is_refused(self, tmp_path, runner):
        # t = 9 and 10 fit 16384 nodes, t = 11 needs nodes >= e^11 / 1.5:
        # exit 3 before any output, naming the row and that count, which
        # then resolves the run
        mpath = self.manifest(tmp_path, nodes=16384, family={
            "t_start": 9.0, "t_stop": 11.0, "t_step": 1.0, "pattern": [1.0]})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["error"] == "numerical"
        assert err["message"].startswith("row t=(11) needs nodes >= 39917 ")
        assert not (tmp_path / "out").exists()
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path / "out"),
                                   "--nodes", "39917"])
        assert res.exit_code == 0, res.output
        _, rows = read_csv_rows(tmp_path / "out" / "correlate.csv")
        assert [int(row["N_nodes"]) for row in rows] == [39917] * 3

    def test_one_refusal_names_the_largest_farey_set(self, tmp_path,
                                                      runner):
        # t = 9, 10 and 11 all pass 1024 nodes (they need 5403, 14685 and
        # 39917): one run names the largest count, before any row is
        # computed, so one rerun at that count admits every row
        mpath = self.manifest(tmp_path, family={
            "t_start": 9.0, "t_stop": 11.0, "t_step": 1.0, "pattern": [1.0]})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        assert json.loads(res.stderr)["message"] == (
            "row t=(11) needs nodes >= 39917 to enumerate its Farey set "
            "1/(e^-t y_lo); it has nodes=1024")
        assert res.output == ""
        assert not (tmp_path / "out").exists()

    def test_row_cut_past_nodes_is_refused(self, tmp_path, runner):
        # a weight at frequency 10^9 cuts the t = 2 row's pieces about
        # 4 * 10^7 times: exit 3 before any sub-piece or output is made,
        # naming the row and that count
        sigma = {"dim": 1, "coeffs": [
            {"chi": [0], "re": 1.0, "im": 0.0},
            {"chi": [1000000000], "re": 0.1, "im": 0.0}]}
        mpath = self.manifest(tmp_path, sigma=sigma)
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["error"] == "numerical"
        msg = re.match(r"row t=\(2\) needs nodes >= (\d+) to cut its "
                       r"pieces to 8 periods of its weight; it has "
                       r"nodes=1024$", err["message"])
        assert msg and int(msg.group(1)) > 4 * 10 ** 7
        assert not (tmp_path / "out").exists()

    def test_failed_allocation_exits_numerical(self, tmp_path, runner,
                                               monkeypatch):
        # a row at 10^14 nodes passes its Farey check, 7.1e12 at t = 30,
        # and then asks numpy for terabytes of arcs; the allocation fails
        # here without being made: exit 3 with one JSON line, no output
        def out_of_memory(profile, y):
            raise MemoryError

        monkeypatch.setattr(modular, "_arcs", out_of_memory)
        blk = {k: v for k, v in CORRELATE_BLOCK.items() if k != "family"}
        mpath = write_manifest(
            tmp_path / "c.json",
            {"mode": "correlate",
             "correlate": dict(blk, times=[[30.0]], nodes=10 ** 14)})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        assert json.loads(res.stderr) == {"error": "numerical",
                                          "message": "MemoryError"}
        assert res.output == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("blk, message", [
        # two means of 1e308 multiply past the float range
        ({"profiles": [{"kind": "constant", "value": 1e308}] * 2,
          "times": [[1.0, 2.0]]},
         "mu_product, the product of the profiles' means (1e+308, 1e+308), "
         "is not finite"),
        # a finite mean, but a density of Wiener norm 2e5 carries the
        # first row past it
        ({"sigma": {"dim": 1, "coeffs": [
            {"chi": [0], "re": 1.0}, {"chi": [1], "re": 1e5},
            {"chi": [-1], "re": 1e5}]},
          "profiles": [{"kind": "constant", "value": 1e308},
                       {"kind": "bump", "y_lo": 1.5, "y_hi": 3.0}],
          "times": [[1.0, 1.0], [1.0, 2.0]]},
         "row t=(1,1) is not finite: value (inf+0j), abs_error inf "
         "(mu_product 1.1146639430497644e+307)"),
    ], ids=["mu_product", "row"])
    def test_non_finite_results_are_refused(self, tmp_path, runner, blk,
                                            message):
        # exit 3 before any output, naming the row or the profiles' means,
        # in place of inf and nan cells
        base = {k: v for k, v in CORRELATE_BLOCK.items() if k != "family"}
        mpath = write_manifest(tmp_path / "c.json", {
            "mode": "correlate", "correlate": dict(base, **blk)})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 3
        assert json.loads(res.stderr) == {"error": "numerical",
                                          "message": message}
        assert res.output == ""
        assert not (tmp_path / "out").exists()

    def test_wide_bump_runs_without_warnings(self, tmp_path, runner):
        # y_hi = 1e308 overflows y * y in the mean's quadrature and the
        # bump's reciprocal near y_lo, where both terms are 0; under the
        # suite's warnings-as-errors a warning would raise here
        mpath = self.manifest(tmp_path, profiles=[
            {"kind": "bump", "y_lo": 1.5, "y_hi": 1e308}])
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert res.stderr == ""
        # the bump is below 1e-300 wherever y < 1e300, so both are ~0
        assert 0.0 <= modular.mu_integral(BumpProfile("bump", 1.5,
                                                      1e308)) < 1e-300
        _, rows = read_csv_rows(tmp_path / "correlate.csv")
        assert [float(row["value_re"]) for row in rows] == [0.0] * 4

    # the benchmark's r = 1 density (its seed-3 draw), profile and family
    R1_WIENER = {
        "sigma": {"dim": 1, "coeffs": [
            {"chi": [0], "re": 1.0, "im": 0.0},
            {"chi": [1], "re": -0.08432505382684594,
             "im": -0.04786112752706498},
            {"chi": [-1], "re": -0.08432505382684594,
             "im": 0.04786112752706498},
            {"chi": [3], "re": 0.2850898272352675,
             "im": 0.19147356157332773},
            {"chi": [-3], "re": 0.2850898272352675,
             "im": -0.19147356157332773}]},
        "profiles": [{"kind": "bump", "y_lo": 1.4933126940236474,
                      "y_hi": 2.9979051298140833}],
        "family": {"t_start": 0.5, "t_stop": 7.3, "t_step": 0.1,
                   "pattern": [1.0]}}

    def test_weighted_rows_do_not_depend_on_nodes(self, tmp_path, runner):
        # every row is the same bytes at nodes N and 4N; only N_nodes
        # differs
        mpath = self.manifest(tmp_path, **self.R1_WIENER)
        texts = []
        for nodes in ("4096", "16384"):
            res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                       "--out", str(tmp_path / nodes),
                                       "--nodes", nodes])
            assert res.exit_code == 0, res.output
            lines = (tmp_path / nodes / "correlate.csv").read_text()
            texts.append([ln.rsplit(",", 1)[0]
                          for ln in lines.splitlines()])
        assert len(texts[0]) == 70
        assert texts[0] == texts[1]

    def test_real_density_rows_are_real(self, tmp_path, runner):
        # the density is real, so the coefficients at n and -n add to a
        # real weight and every row's value_im is exactly 0
        mpath = self.manifest(tmp_path, nodes=2 ** 16, **self.R1_WIENER)
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        _, rows = read_csv_rows(tmp_path / "correlate.csv")
        assert len(rows) == 69
        assert {row["value_im"] for row in rows} == {
            "0.0000000000000000e+00"}

    def test_negative_constants_give_no_negative_zero(self, tmp_path,
                                                      runner):
        # two constants -1 beside the bump; at t = 0.1 the bump reaches
        # no coset.  Both rows' value_im, and the empty row's value_re,
        # are 0 with a positive sign
        blk = {key: CORRELATE_BLOCK[key] for key in ("sigma", "nodes")}
        mpath = write_manifest(tmp_path / "c.json", {
            "mode": "correlate", "correlate": dict(
                blk, profiles=[{"kind": "constant", "value": -1.0}] * 2
                + CORRELATE_BLOCK["profiles"],
                times=[[1.0, 1.0, 2.0], [1.0, 1.0, 0.1]])})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        _, rows = read_csv_rows(tmp_path / "correlate.csv")
        assert [(row["value_re"], row["value_im"]) for row in rows] == [
            (rows[0]["value_re"], "0.0000000000000000e+00"),
            ("0.0000000000000000e+00", "0.0000000000000000e+00")]
        assert float(rows[0]["value_re"]) > 0.0

    def test_nodes_flag_overrides_manifest(self, tmp_path, runner):
        mpath = self.manifest(tmp_path)
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path),
                                   "--nodes", "512"])
        assert res.exit_code == 0, res.output
        _, rows = read_csv_rows(tmp_path / "correlate.csv")
        assert all(int(row["N_nodes"]) == 512 for row in rows)


class TestFitCommand:
    def test_fit_on_correlate_output(self, tmp_path, runner):
        corr = write_manifest(tmp_path / "c.json",
                              {"mode": "correlate", "seed": 11,
                               "correlate": dict(CORRELATE_BLOCK)})
        res = runner.invoke(main, ["correlate", "--manifest", corr,
                                   "--out", str(tmp_path / "run")])
        assert res.exit_code == 0, res.output
        fpath = write_manifest(tmp_path / "f.json",
                               {"mode": "fit", "seed": 0,
                                "fit": {"input_csv": "run/correlate.csv"}})
        res = runner.invoke(main, ["fit", "--manifest", fpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = read_json(tmp_path / "fit.json")
        assert payload["n_points"] >= 3
        assert payload["exponent"] > 0.0
        assert "x**(-B)" in (tmp_path / "fit.gp").read_text()

    def test_outputs_do_not_depend_on_the_working_directory(
            self, tmp_path, runner, monkeypatch):
        # the same manifest and CSV under two directories, each run from
        # its own one: fit.json keeps input_csv as the manifest gives it
        # and fit.gp names the CSV relative to --out
        rows = ["Delta_mult,abs_error"] + ["%r,%r" % (2.0 ** k, 0.5 ** k)
                                           for k in range(1, 6)]
        outputs = []
        for name in ("a", "b/c"):
            base = tmp_path / name
            (base / "run").mkdir(parents=True)
            (base / "run" / "tbl.csv").write_text("\n".join(rows) + "\n",
                                                  encoding="utf-8")
            write_manifest(base / "f.json",
                           {"mode": "fit",
                            "fit": {"input_csv": "run/tbl.csv"}})
            monkeypatch.chdir(base)
            res = runner.invoke(main, ["fit", "--manifest", "f.json",
                                       "--out", "results/fit"])
            assert res.exit_code == 0, res.output
            outputs.append([(base / "results" / "fit" / f).read_bytes()
                            for f in ("fit.json", "fit.gp")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["input_csv"] == "run/tbl.csv"
        assert b"'../../run/tbl.csv' using" in outputs[0][1]

    def test_missing_csv(self, tmp_path, runner):
        fpath = write_manifest(tmp_path / "f.json",
                               {"mode": "fit",
                                "fit": {"input_csv": "nothing.csv"}})
        res = runner.invoke(main, ["fit", "--manifest", fpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert err["error"] == "file-missing"

    def test_non_utf8_csv(self, tmp_path, runner):
        (tmp_path / "tbl.csv").write_bytes(
            b"Delta_mult,abs_error\n1.0,0.5\xff\n2.0,0.25\n4.0,0.125\n")
        fpath = write_manifest(tmp_path / "f.json",
                               {"mode": "fit",
                                "fit": {"input_csv": "tbl.csv"}})
        res = runner.invoke(main, ["fit", "--manifest", fpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert err["error"] == "file-encoding"
        assert str(tmp_path / "tbl.csv") in err["message"]

    def test_missing_column(self, tmp_path, runner):
        (tmp_path / "tbl.csv").write_text("a,b\n1.0,2.0\n3.0,4.0\n",
                                          encoding="utf-8")
        fpath = write_manifest(tmp_path / "f.json",
                               {"mode": "fit",
                                "fit": {"input_csv": "tbl.csv"}})
        res = runner.invoke(main, ["fit", "--manifest", fpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert "not found" in err["message"]

    def test_column_overrides(self, tmp_path, runner):
        # gap and err follow 3 gap^-1/2; the default columns do not
        rows = ["Delta_mult, gap ,abs_error,err"]
        rows += ["%r,%r,%r,%r" % (2.0 ** k, 4.0 ** k, 0.5, 3.0 * 2.0 ** -k)
                 for k in range(1, 6)]
        (tmp_path / "tbl.csv").write_text("\n".join(rows) + "\n",
                                          encoding="utf-8")
        fpath = write_manifest(tmp_path / "f.json", {
            "mode": "fit", "fit": {"input_csv": "tbl.csv",
                                   "x_column": "gap", "y_column": "err"}})
        res = runner.invoke(main, ["fit", "--manifest", fpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = read_json(tmp_path / "fit.json")
        assert (payload["x_column"], payload["y_column"]) == ("gap", "err")
        assert payload["n_points"] == 5
        assert payload["exponent"] == pytest.approx(0.5, abs=1e-12)
        assert payload["prefactor"] == pytest.approx(3.0, rel=1e-12)
        gp = (tmp_path / "fit.gp").read_text()
        assert "xlabel 'gap'" in gp and "ylabel 'err'" in gp
        assert "using 'gap':'err'" in gp

    def test_ragged_row_is_one_line(self, tmp_path, runner):
        (tmp_path / "tbl.csv").write_text(
            "Delta_mult,abs_error\n1.0,0.5\n2.0,0.25,7\n4.0,0.125\n",
            encoding="utf-8")
        fpath = write_manifest(tmp_path / "f.json",
                               {"mode": "fit",
                                "fit": {"input_csv": "tbl.csv"}})
        res = runner.invoke(main, ["fit", "--manifest", fpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads(res.stderr)
        assert err["message"] == ("%s line 3 has 3 cells, the header has 2"
                                  % (tmp_path / "tbl.csv"))

    def test_infinite_cell_is_refused_by_line(self, tmp_path):
        # in a fresh process, so output that native code writes to the
        # file descriptors is seen too
        (tmp_path / "tbl.csv").write_text(
            "Delta_mult,abs_error\n1.0,0.5\n2.0,0.25\ninf,0.01\n4.0,0.125\n",
            encoding="utf-8")
        fpath = write_manifest(tmp_path / "f.json",
                               {"mode": "fit",
                                "fit": {"input_csv": "tbl.csv"}})
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "equidist", "fit", "--manifest", fpath,
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr) == {
            "error": "numerical",
            "message": "%s line 4, column 'Delta_mult': 'inf' is not finite"
                       % (tmp_path / "tbl.csv")}
        assert not (tmp_path / "out").exists()


class TestVerifyCommand:
    def test_battery_passes(self, tmp_path, runner):
        # the manifest the README gives
        mpath = write_manifest(tmp_path / "v.json",
                               {"mode": "verify", "seed": 42,
                                "verify": {"trials": 400}})
        res = runner.invoke(main, ["verify", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = read_json(tmp_path / "verify_report.json")
        assert report["passed"] is True
        assert len(report["suites"]) == 7
        for suite in report["suites"]:
            assert suite["passed"], suite
        assert res.output.count("PASS") == 7

    def test_brute_force_keeps_upper_bound_strict(self):
        # log2 betas 6, 5, -24 with theta = 2^-3: (1, 0) would need
        # beta_2 = 32 < 64 * theta^(1/3) = 32, which is false
        betas, theta = [2.0 ** 6, 2.0 ** 5, 2.0 ** -24], 2.0 ** -3
        assert _brute_force_pq(betas, theta) == (2, 1)
        assert pigeonhole(betas, theta) == (2, 1)


def _old_json_text(payload):
    """The writer _json_text replaced, as the reference for its parsed
    value: a deep-copying null pass, then an indented dump."""
    def null(obj):
        if isinstance(obj, float):
            return obj if math.isfinite(obj) else None
        if isinstance(obj, dict):
            return {k: null(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [null(v) for v in obj]
        return obj
    return json.dumps(null(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _holds_nonfinite(obj):
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(map(_holds_nonfinite, obj.values()))
    if isinstance(obj, (list, tuple)):
        return any(map(_holds_nonfinite, obj))
    return False


def _shares_finite_parts(src, out):
    """Every part of src that holds no non-finite float is out's part at
    the same place, and every non-finite float became None."""
    if not _holds_nonfinite(src):
        return out is src
    if isinstance(src, float):
        return out is None
    keys = src.keys() if isinstance(src, dict) else range(len(src))
    return (len(out) == len(src)
            and all(_shares_finite_parts(src[k], out[k]) for k in keys))


_JSON_LEAVES = st.one_of(
    st.integers(), st.booleans(), st.none(),
    st.text(max_size=6), st.sampled_from(["NaN", "Infinity", "-Infinity"]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats().map(np.float64))
_JSON_PAYLOADS = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=25)


@given(_JSON_PAYLOADS)
def test_json_text_is_strict_and_copies_only_nonfinite_paths(payload):
    before = repr(payload)
    text = _json_text(payload)
    assert text.endswith("\n") and text.count("\n") == 1
    parsed = json.loads(text, parse_constant=_refuse_constant)
    assert parsed == json.loads(_old_json_text(payload))
    # a payload with no non-finite float comes back as the same object
    assert _shares_finite_parts(payload, _finite_or_null(payload))
    assert repr(payload) == before


# one small manifest per JSON echo; the ledger's base row has a null eps_r
_ECHO_MANIFESTS = {
    "ledger.json": {"mode": "ledger", "seed": 7,
                    "ledger": {"params": GOLDEN_PARAMS, "theorem": "A",
                               "r_max": 6}},
    "schedule.json": {"mode": "schedule", "seed": 3, "schedule": {
        "action": {"builtin": "u_mn", "m": 1, "n": 1},
        "tuples": [[[2.0, 2.0], [5.0, 5.0]],
                   [[1.0, 1.0], [3.0, 3.0], [6.0, 6.0]]]}},
    "correlate_manifest.json": {"mode": "correlate", "seed": 11,
                                "correlate": CORRELATE_BLOCK},
}


@pytest.mark.parametrize("name", sorted(_ECHO_MANIFESTS))
def test_json_echo_is_one_deterministic_line(tmp_path, runner, name):
    """The echo is one line ending in a newline, with the same bytes over
    two runs and at one and at four threads."""
    manifest = _ECHO_MANIFESTS[name]
    mpath = write_manifest(tmp_path / "m.json", manifest)
    texts = []
    for k, threads in enumerate(("1", "1", "4")):
        out = tmp_path / str(k)
        res = runner.invoke(main, [manifest["mode"], "--manifest", mpath,
                                   "--out", str(out), "--threads", threads])
        assert res.exit_code == 0, res.output
        texts.append((out / name).read_bytes())
    assert texts[0] == texts[1] == texts[2]
    assert texts[0].endswith(b"\n") and texts[0].count(b"\n") == 1
    read_json(tmp_path / "0" / name)


def test_readme_examples(tmp_path, runner):
    """The five README manifests run in order, and every output file and
    the stdout are the same bytes at one and at two threads."""
    blocks = readme_manifests()
    modes = list(blocks)
    assert modes == ["ledger", "schedule", "correlate", "fit", "verify"]
    for mode, block in blocks.items():
        write_manifest(tmp_path / ("%s.json" % mode), block)
    results = tmp_path / "results"
    runs = []
    for threads in ("1", "2"):
        shutil.rmtree(results, ignore_errors=True)
        stdout = []
        for mode in modes:
            res = runner.invoke(main, [mode, "--manifest",
                                       str(tmp_path / ("%s.json" % mode)),
                                       "--out", str(results),
                                       "--threads", threads])
            assert res.exit_code == 0, res.output
            stdout.append(res.output)
        files = {f.name: f.read_bytes() for f in sorted(results.iterdir())}
        runs.append((stdout, files))
    assert sorted(runs[0][1]) == sorted(
        ["ledger.csv", "ledger.json", "ledger.gp", "schedule.csv",
         "schedule.json", "schedule.gp", "correlate.csv",
         "correlate_manifest.json", "correlate.gp", "fit.json", "fit.gp",
         "verify_report.json"])
    assert runs[0] == runs[1]
    for name in runs[0][1]:
        if name.endswith(".json"):
            read_json(results / name)
