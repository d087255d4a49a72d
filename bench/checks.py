"""Output checks for one CLI invocation, and the known failures.

check_invocation() returns a list of problems, empty when every check
passed.  An invocation with any problem counts as failed.  A failure is
known when its problem list equals the recorded signature of a defect
that the program has at this point; any other failure makes the run
incorrect.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

MU_RTOL = 1e-12

# (workload, invocation label) -> (problems, cause).  These are defects
# of the program, recorded so that they show in every run; they are not
# worked around.  A later fix makes the invocation pass, which is fine.
KNOWN_FAILURES = {
    ("exact-tables", "ledger-A"): (
        ["delta_r not positive and strictly decreasing at r=60"],
        "theorem A at r_max=64 exits 0 but delta_r underflows to 0 from "
        "r=60 (ledger exponents are not kept in log space)"),
    ("exact-tables", "ledger-B"): (
        ["exit 3: float division by zero"],
        "theorem B at r_max=64: eps_r underflows to 0 and log_P / eps_r "
        "divides by zero"),
    ("exact-tables", "verify"): (
        ["exit 3: verification battery failed",
         "suite failed: pigeonhole_vs_bruteforce"],
        "the brute force in cli._suite_pigeonhole puts its 1+1e-9 slack "
        "on the strict inequality (it accepts 5 < 5), so it disagrees "
        "with the exact dyadic path on some seed-42 trials"),
}


def classify(workload, label, problems):
    """'ok', 'known' or 'unexpected' for one invocation's problems."""
    if not problems:
        return "ok"
    known = KNOWN_FAILURES.get((workload, label))
    if known is not None and problems == known[0]:
        return "known"
    return "unexpected"


def bump_mu(y_lo, y_hi, n=256):
    """(3/pi) * integral of the bump profile f(y) / y^2 over its support,
    by an n-point Gauss-Legendre rule; the reference for mu_product."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (y_hi - y_lo)
    y = y_lo + half * (x + 1.0)
    v = (y - y_lo) / (y_hi - y_lo)
    f = np.exp(4.0 - 1.0 / (v * (1.0 - v)))
    return (3.0 / math.pi) * half * float(np.sum(w * f / (y * y)))


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _finite_table(header, rows):
    for k, row in enumerate(rows):
        if len(row) != len(header):
            return "row %d has %d fields, expected %d" % (k, len(row),
                                                          len(header))
        for name, cell in zip(header, row):
            if not math.isfinite(float(cell)):
                return "non-finite %s in row %d" % (name, k)
    return None


def _exit_problem(code, stderr):
    message = ""
    for line in reversed(stderr.splitlines()):
        try:
            message = json.loads(line)["message"]
            break
        except (ValueError, KeyError, TypeError):
            continue
    return "exit %d: %s" % (code, message) if message else "exit %d" % code


def _check_correlate(inv, out_dir):
    exp = inv.expect
    header, rows = _read_csv(os.path.join(out_dir, "correlate.csv"))
    problems = []
    if len(rows) != exp["rows"]:
        problems.append("correlate rows %d, expected %d"
                        % (len(rows), exp["rows"]))
    bad = _finite_table(header, rows)
    if bad:
        problems.append(bad)
        return problems
    col = {name: k for k, name in enumerate(header)}
    if any(int(row[col["r"]]) != exp["r"]
           or int(row[col["N_nodes"]]) != exp["nodes"] for row in rows):
        problems.append("r or N_nodes column differs from the manifest")
    ref = 1.0
    for p in exp["profiles"]:
        ref *= bump_mu(p["y_lo"], p["y_hi"])
    worst = max(abs(float(row[col["mu_product"]]) - ref) / ref
                for row in rows)
    if worst > MU_RTOL:
        problems.append("mu_product off the Gauss-Legendre reference by "
                        "%.3g relative" % worst)
    if exp["bound"]:
        with open(os.path.join(out_dir, "correlate_manifest.json"),
                  encoding="utf-8") as fh:
            values = json.load(fh)["bound"]["values"]
        if len(values) != exp["rows"] or not all(
                math.isfinite(v) for v in values):
            problems.append("bound values missing or not finite")
    return problems


def _check_fit(inv, out_dir):
    with open(os.path.join(out_dir, "fit.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    if not all(math.isfinite(rep[k])
               for k in ("exponent", "prefactor", "residual")):
        return ["fit result not finite"]
    if rep["n_points"] < 3:
        return ["fit used %d points" % rep["n_points"]]
    return []


def _check_schedule(inv, out_dir):
    header, rows = _read_csv(os.path.join(out_dir, "schedule.csv"))
    problems = []
    if len(rows) != inv.expect["rows"]:
        problems.append("schedule rows %d, expected %d"
                        % (len(rows), inv.expect["rows"]))
    bad = _finite_table(header, rows)
    if bad:
        problems.append(bad)
        return problems
    checks = [header.index(c) for c in
              ("ok_scale_cap", "ok_group_lower", "ok_group_upper")]
    failing = [row[0] for row in rows if any(row[k] != "1" for k in checks)]
    if failing:
        problems.append("window checks fail on %d tuples, first %s"
                        % (len(failing), failing[0]))
    return problems


def _check_ledger(inv, out_dir):
    header, rows = _read_csv(os.path.join(out_dir, "ledger.csv"))
    if len(rows) != inv.expect["r_max"]:
        return ["ledger rows %d, expected %d"
                % (len(rows), inv.expect["r_max"])]
    col = {name: k for k, name in enumerate(header)}
    for row in rows:
        if not math.isfinite(float(row[col["log10_D_r"]])):
            return ["log10_D_r not finite at r=%s" % row[col["r"]]]
    prev = math.inf
    for row in rows:
        delta = float(row[col["delta_r"]])
        if not 0.0 < delta < prev:
            return ["delta_r not positive and strictly decreasing at r=%s"
                    % row[col["r"]]]
        prev = delta
    with open(os.path.join(out_dir, "ledger.json"), encoding="utf-8") as fh:
        evaluations = json.load(fh)["evaluations"]
    if not all(math.isfinite(ev["bound"]) for ev in evaluations):
        return ["bound evaluation not finite"]
    return []


def _check_verify(inv, out_dir):
    path = os.path.join(out_dir, "verify_report.json")
    if not os.path.isfile(path):
        return ["verify_report.json missing"]
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    problems = ["suite failed: %s" % s["suite"]
                for s in rep["suites"] if not s["passed"]]
    if not rep["passed"] and not problems:
        problems.append("report says failed with every suite passed")
    return problems


_CHECKS = {"correlate": _check_correlate, "fit": _check_fit,
           "schedule": _check_schedule, "ledger": _check_ledger,
           "verify": _check_verify}


def check_invocation(inv, code, stderr, out_dir):
    """Problems with one invocation's exit code and outputs."""
    problems = []
    if code != 0:
        problems.append(_exit_problem(code, stderr))
        # verify writes its report before it exits 3; nothing else does
        if inv.command != "verify":
            return problems
    try:
        problems.extend(_CHECKS[inv.command](inv, out_dir))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append("unreadable output: %s: %s"
                        % (type(exc).__name__, exc))
    return problems


def csv_digests(invocations, out_dirs):
    """label/file -> sha256 of every CSV the invocations wrote."""
    digests = {}
    for inv, d in zip(invocations, out_dirs):
        for name in sorted(os.listdir(d)):
            if name.endswith(".csv"):
                digests["%s/%s" % (inv.label, name)] = sha256_file(
                    os.path.join(d, name))
    return digests
