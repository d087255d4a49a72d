"""End-to-end exercises of the command line driver.

Every test drives the click entry point through CliRunner with manifests
written into a temp directory, then inspects the emitted CSV/JSON/gnuplot
files and exit codes.
"""

import json
import math
import re
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from equidist.cli import _brute_force_pq, main
from equidist.selection import pigeonhole

GOLDEN_PARAMS = {
    "d_o": 1, "D_o": 1.0, "delta_o": 1.0, "C": 1.0, "c": 0.4,
    "A": 1.0, "a": 1.0,
    "growth": {"kind": "power-law", "L1": 1.0, "ell": 1.0, "L2": 1.0},
}


def write_manifest(path, payload):
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return str(path)


def read_csv_rows(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# the smallest value each flag accepts
FLAG_FLOORS = {"--threads": 1, "--nodes": 16, "--seed": 0}


@pytest.fixture()
def runner():
    return CliRunner()


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
        payload = json.loads((tmp_path / "ledger.json").read_text())
        assert payload["seed"] == 7
        ev = payload["evaluations"][0]
        assert ev["bound"] == pytest.approx(5.496978635094461, rel=1e-12)
        assert (tmp_path / "ledger.gp").read_text().startswith("#")

    def test_factorial_mode_reports_growth_constants(self, tmp_path, runner):
        mpath = self.manifest(tmp_path, theorem="B", r_max=10, evaluate=[])
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "lambda=" in res.output
        payload = json.loads((tmp_path / "ledger.json").read_text())
        for key in ("lambda", "H1", "gamma", "H2"):
            assert key in payload

    def test_seed_flag_overrides_manifest(self, tmp_path, runner):
        mpath = self.manifest(tmp_path)
        res = runner.invoke(main, ["ledger", "--manifest", mpath,
                                   "--out", str(tmp_path), "--seed", "99"])
        assert res.exit_code == 0
        payload = json.loads((tmp_path / "ledger.json").read_text())
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
        err = json.loads(res.stderr)
        assert err["error"] == "schema"

    def test_garbage_thread_env_rejected(self, tmp_path, runner):
        mpath = write_manifest(
            tmp_path / "m.json",
            {"mode": "correlate", "correlate": dict(CORRELATE_BLOCK)})
        res = runner.invoke(main, ["correlate", "--manifest", mpath,
                                   "--out", str(tmp_path)],
                            env={"EQUIDIST_THREADS": "many"})
        assert res.exit_code == 2
        err = json.loads(res.stderr)
        assert "thread count" in err["message"]

    @pytest.mark.parametrize("flag,env", [
        (["--threads", "0"], {}),
        (["--threads", "-2"], {}),
        ([], {"EQUIDIST_THREADS": "-1"}),
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
        name = flag[0] if flag else "--threads"
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
    assert "no such option" in res.stderr.lower()


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
        detail = json.loads((tmp_path / "schedule.json").read_text())
        win = detail["tuples"][0]["window"]
        assert all(ch["ok"] for ch in win["checks"].values())

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
        echo = json.loads((out1 / "correlate_manifest.json").read_text())
        assert echo["nodes"] == 1024
        assert len(echo["times"]) == 4
        assert "threads" not in echo

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
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["n_points"] >= 3
        assert payload["exponent"] > 0.0
        assert "x**(-B)" in (tmp_path / "fit.gp").read_text()

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


class TestVerifyCommand:
    def test_battery_passes(self, tmp_path, runner):
        # the manifest the README gives
        mpath = write_manifest(tmp_path / "v.json",
                               {"mode": "verify", "seed": 42,
                                "verify": {"trials": 400}})
        res = runner.invoke(main, ["verify", "--manifest", mpath,
                                   "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        report = json.loads((tmp_path / "verify_report.json").read_text())
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


def test_readme_examples(tmp_path, runner):
    """The five README manifests run in order, and every output file and
    the stdout are the same bytes at one and at two threads."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```",
                                                  readme, re.S)]
    modes = [b["mode"] for b in blocks]
    assert modes == ["ledger", "schedule", "correlate", "fit", "verify"]
    for block in blocks:
        write_manifest(tmp_path / ("%s.json" % block["mode"]), block)
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
            stdout.append(res.stdout)
        files = {f.name: f.read_bytes() for f in sorted(results.iterdir())}
        runs.append((stdout, files))
    assert sorted(runs[0][1]) == sorted(
        ["ledger.csv", "ledger.json", "ledger.gp", "schedule.csv",
         "schedule.json", "schedule.gp", "correlate.csv",
         "correlate_manifest.json", "correlate.gp", "fit.json", "fit.gp",
         "verify_report.json"])
    assert runs[0] == runs[1]
