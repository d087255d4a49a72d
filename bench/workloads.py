"""Seeded workload generator.

Each workload is a fixed list of CLI invocations whose manifests are
generated from the workload seed.  The seed drives the schedule tuples,
the sigma amplitudes and small shifts of the bump profiles; the amount
of work per iteration (rows, r, nodes, tuple count) does not depend on
it.  The CLI only ever sees the generated manifest files.
"""

import json
import math
import os

import numpy as np

# Below nodes * e^-t = 40 the midpoint grid no longer resolves the
# horocycle at height e^-t, so the benchmark would time wrong numbers.
RESOLUTION_GUARD = 40.0

# README example parameters: at r_max 64 they expose the ledger
# underflow listed among the known failures.
LEDGER_PARAMS = {
    "d_o": 1, "D_o": 1.0, "delta_o": 1.0, "C": 1.0, "c": 0.4,
    "A": 1.0, "a": 1.0,
    "growth": {"kind": "power-law", "L1": 1.0, "ell": 1.0, "L2": 1.0},
}

WORKLOADS = ("corr-r2-haar", "corr-r1-wiener", "exact-tables")


class Invocation:
    """One CLI process: subcommand, manifest text and what to expect."""

    def __init__(self, label, command, manifest, expect):
        self.label = label
        self.command = command
        self.manifest = manifest
        self.expect = expect

    def manifest_text(self):
        return json.dumps(self.manifest, sort_keys=True) + "\n"


def _family_rows(t_start, t_stop, t_step):
    return int(round((t_stop - t_start) / t_step)) + 1


def _bump(rng, y_lo, y_hi):
    # shift both ends by at most 0.05; supports stay inside [1, inf)
    lo, hi = (float(v) for v in np.asarray([y_lo, y_hi])
              + rng.uniform(-0.05, 0.05, size=2))
    return {"kind": "bump", "y_lo": lo, "y_hi": hi}


def _correlate(label, sigma, profiles, family, nodes, bound=None):
    pattern = family["pattern"]
    rows = _family_rows(family["t_start"], family["t_stop"],
                        family["t_step"])
    t_max = family["t_stop"] * max(pattern)
    min_resolution = nodes * math.exp(-t_max)
    if min_resolution < RESOLUTION_GUARD:
        raise ValueError("%s: nodes*e^-t_max = %.3g is below the "
                         "resolution guard %g"
                         % (label, min_resolution, RESOLUTION_GUARD))
    block = {"sigma": sigma, "profiles": profiles, "family": family,
             "nodes": nodes}
    if bound is not None:
        block["bound"] = bound
    expect = {"rows": rows, "r": len(profiles), "nodes": nodes,
              "profiles": profiles, "bound": bound is not None,
              "min_resolution": min_resolution}
    return Invocation(label, "correlate",
                      {"mode": "correlate", "seed": 0, "correlate": block},
                      expect)


def _corr_r2_haar(rng):
    sigma = {"dim": 1, "coeffs": [{"chi": [0], "re": 1.0, "im": 0.0}]}
    profiles = [_bump(rng, 1.5, 3.0), _bump(rng, 1.2, 2.5)]
    family = {"t_start": 0.5, "t_stop": 4.1, "t_step": 0.1,
              "pattern": [1.0, 2.0]}
    return [_correlate("correlate", sigma, profiles, family, 2 ** 18)]


def _corr_r1_wiener(rng):
    # |a_1| + |a_3| <= 1/2 keeps the density 1 + 2 Re(...) nonnegative
    radii = rng.dirichlet([1.0, 1.0]) * rng.uniform(0.2, 0.5)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
    coeffs = [{"chi": [0], "re": 1.0, "im": 0.0}]
    for chi, rad, ph in zip((1, 3), radii, phases):
        re, im = float(rad * math.cos(ph)), float(rad * math.sin(ph))
        coeffs.append({"chi": [chi], "re": re, "im": im})
        coeffs.append({"chi": [-chi], "re": re, "im": -im})
    sigma = {"dim": 1, "coeffs": coeffs}
    family = {"t_start": 0.5, "t_stop": 7.3, "t_step": 0.1,
              "pattern": [1.0]}
    bound = {"params": LEDGER_PARAMS, "theorem": "B"}
    corr = _correlate("correlate", sigma, [_bump(rng, 1.5, 3.0)], family,
                      2 ** 16, bound=bound)
    # input_csv is resolved against the fit manifest's own directory
    fit = Invocation("fit", "fit", {
        "mode": "fit", "fit": {"input_csv": "../correlate/correlate.csv"}},
        {})
    return [corr, fit]


def _balanced_entry(rng, m, n):
    # nonnegative coordinates whose first m and last n sum to one total
    total = float(rng.uniform(0.5, 12.0))
    left = rng.dirichlet(np.ones(m)) * total
    right = rng.dirichlet(np.ones(n)) * total
    return [float(v) for v in np.concatenate([left, right])]


def _schedule_tuples(rng, count):
    tuples = []
    for _ in range(count):
        r = int(rng.integers(2, 9))
        tuples.append([_balanced_entry(rng, 2, 3) for _ in range(r)])
    return tuples


def _ledger(label, theorem):
    return Invocation(label, "ledger", {
        "mode": "ledger", "seed": 7,
        "ledger": {"params": LEDGER_PARAMS, "theorem": theorem,
                   "r_max": 64,
                   "evaluate": [{"r": 1, "Delta": 22026.47,
                                 "wiener_norm": 1.0, "s_norms": [1.0]}]}},
        {"r_max": 64})


def _exact_tables(rng):
    tuples = _schedule_tuples(rng, 3000)
    schedule = Invocation("schedule", "schedule", {
        "mode": "schedule", "seed": 3,
        "schedule": {"action": {"builtin": "u_mn", "m": 2, "n": 3},
                     "tuples": tuples, "theta": "auto"}},
        {"rows": len(tuples)})
    # the verify manifest exactly as the README gives it
    verify = Invocation("verify", "verify",
                        {"mode": "verify", "seed": 42,
                         "verify": {"trials": 400}}, {})
    return [schedule, _ledger("ledger-A", "A"), _ledger("ledger-B", "B"),
            verify]


_BUILDERS = {"corr-r2-haar": _corr_r2_haar,
             "corr-r1-wiener": _corr_r1_wiener,
             "exact-tables": _exact_tables}


def generate(workload, seed):
    """The invocations of one iteration of `workload` for `seed`."""
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r (have %s)"
                         % (workload, ", ".join(WORKLOADS)))
    return _BUILDERS[workload](np.random.default_rng(seed))


def write_manifests(invocations, work_dir):
    """Write each manifest to work_dir/<label>/manifest.json; return the
    per-invocation output directories."""
    out_dirs = []
    for inv in invocations:
        d = os.path.join(work_dir, inv.label)
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(inv.manifest_text())
        out_dirs.append(d)
    return out_dirs


def input_properties(invocations):
    """Input properties of one iteration, for the benchmark record."""
    props = {"invocations": len(invocations), "rows": 0, "r": [],
             "nodes": [], "points": 0, "min_resolution": None,
             "tuples": 0, "manifest_bytes": 0}
    for inv in invocations:
        props["manifest_bytes"] += len(inv.manifest_text().encode())
        exp = inv.expect
        if inv.command == "correlate":
            props["rows"] += exp["rows"]
            props["r"].append(exp["r"])
            props["nodes"].append(exp["nodes"])
            props["points"] += exp["rows"] * exp["r"] * exp["nodes"]
            res = exp["min_resolution"]
            if props["min_resolution"] is None or res < props["min_resolution"]:
                props["min_resolution"] = res
        elif inv.command == "schedule":
            props["tuples"] += exp["rows"]
    return props
