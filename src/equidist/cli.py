"""Manifest-driven command line front end.

Five subcommands: ledger (constant tables), schedule (direction and
window selection for translation tuples), correlate (horocycle
correlation experiments), fit (decay-exponent fits on existing CSVs),
and verify (a seeded self-check battery).  Each takes --manifest, --out,
--seed and --threads; correlate also takes --nodes.

One driver runs every subcommand: it validates the manifest against the
packaged JSON schema, resolves the seed, calls the subcommand's body,
writes the files the body returns into --out and echoes its summary
lines.  A body only computes; it returns its files as text.

The verify suites are the only implementation of their randomized
checks; the test suite calls them with its own seeds and trial counts.

Exit codes: 0 success, 2 manifest or file problems, 3 numerical
failures, failed window checks and failed verify suites.  Errors are
emitted as one-line JSON on stderr so wrappers can parse them.  All CSV
output uses 17-significant-digit scientific notation and fixed row
order, so re-running a manifest reproduces the bytes exactly,
regardless of the thread count.  Every JSON output file is one line of
strict JSON (RFC 8259) with sorted keys; a NaN or infinite float is
written as null, next to a log10 twin where the value can read inf.
"""

import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from importlib import resources

import click
import jsonschema
import numpy as np

from . import __version__
from .constants import (AssumptionParams, ConstantGrowth, PowerLawGrowth,
                        TabulatedGrowth, bound_evaluate, build_ledger)
from .geometry import (DirectionSelection, RootAction, TranslationTuple,
                       select_direction, star_norm, tuple_stats)
from .modular import (BumpProfile, ConstantObservable, EisensteinObservable,
                      HorocycleMeasure, check_integral_estimate, correlation,
                      delta_statistics, fit_decay, reduce_arrays,
                      s_norm_surrogate)
from .selection import choose_window, pigeonhole
from .wiener import (TorusMeasure, TorusObservable, character_expansion_check,
                     equivariance_check, wiener_norm)

_LOG10 = math.log(10.0)
_NUMERIC_ERRORS = (ValueError, ArithmeticError, KeyError)
# the schema's cap on verify.trials, also the longest time family
_MAX_FAMILY_ROWS = 100000


def _fail(code, kind, message, **extra):
    payload = {"error": kind, "message": str(message)}
    payload.update(extra)
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


def _schema():
    with resources.files("equidist").joinpath(
            "manifest_schema.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_text(path, what):
    """The file's text; exit 2 naming the file if it is missing or not
    UTF-8."""
    if not os.path.isfile(path):
        _fail(2, "file-missing", "%s not found: %s" % (what, path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except ValueError as exc:
        _fail(2, "file-encoding", "%s is not UTF-8 text: %s (%s)"
              % (what, path, exc))


def _load_manifest(path, expect_mode):
    text = _read_text(path, "manifest")
    try:
        obj = json.loads(text)
    except ValueError as exc:
        _fail(2, "schema", "manifest is not valid JSON: %s" % exc)
    try:
        jsonschema.validate(obj, _schema())
    except jsonschema.ValidationError as exc:
        _fail(2, "schema", exc.message,
              path=[str(p) for p in exc.absolute_path])
    if obj["mode"] != expect_mode:
        _fail(2, "schema", "manifest mode %r does not match subcommand %r"
              % (obj["mode"], expect_mode))
    return obj


def _resolve_threads(threads):
    if threads is None:
        threads = os.environ.get("EQUIDIST_THREADS", "1")
    try:
        threads = int(threads)
    except ValueError:
        _fail(2, "schema", "thread count must be an integer, got %r"
              % threads)
    if threads < 1:
        _fail(2, "schema", "thread count must be at least 1, got %d; pass "
              "--threads 1 or set EQUIDIST_THREADS to a positive integer"
              % threads)
    return threads


def _at_least(floor):
    """Click callback: exit 2 naming the flag when its value is below
    floor, the manifest schema's minimum for the same setting."""
    def check(ctx, param, value):
        if value is not None and value < floor:
            _fail(2, "schema", "%s must be at least %d, got %d"
                  % (param.opts[0], floor, value))
        return value
    return check


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None.  Only the dicts,
    lists and tuples on a path to such a float are copied (a copied tuple
    becomes a list); obj itself comes back when it holds none."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return obj
    copy = None
    for key, value in items:
        new = _finite_or_null(value)
        if new is not value:
            if copy is None:
                copy = dict(obj) if isinstance(obj, dict) else list(obj)
            copy[key] = new
    return obj if copy is None else copy


def _json_text(payload):
    """One line of strict JSON (RFC 8259) with sorted keys and a trailing
    newline: a NaN or infinite float is written as null; where a value can
    read inf, a log10 twin next to it keeps the value.  Without an indent
    the json module encodes in C."""
    return json.dumps(_finite_or_null(payload), sort_keys=True,
                      allow_nan=False) + "\n"


def _csv_text(header, rows):
    """Comma-separated table: %d for int and bool cells, %.16e for the
    rest, so the same rows always give the same bytes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            ("%d" if isinstance(v, int) else "%.16e") % v
            for v in row))
    return "\n".join(lines) + "\n"


@click.group()
@click.version_option(version=__version__, prog_name="equidist")
def main():
    """Correlation-bound ledgers and equidistribution experiments."""


def _subcommand(*options):
    """Register body(block, seed=, threads=, manifest_path=, **options) as
    the subcommand of its name.  It gets its mode's manifest block and
    returns ({file name: text}, stdout lines (at least one), failure
    message or None); numerical errors exit 3 before any output, a
    failure exits 3 after."""
    def register(body):
        mode = body.__name__

        def command(manifest_path, out_dir, threads, seed, **opts):
            manifest = _load_manifest(manifest_path, mode)
            if seed is None:
                seed = manifest.get("seed", 0)
            try:
                files, lines, failure = body(
                    manifest.get(mode, {}), seed=int(seed), threads=threads,
                    manifest_path=manifest_path, **opts)
            except _NUMERIC_ERRORS as exc:
                _fail(3, "numerical", exc)
            os.makedirs(out_dir, exist_ok=True)
            for name, text in files.items():
                _write(os.path.join(out_dir, name), text)
            click.echo("\n".join(lines))
            if failure is not None:
                _fail(3, "numerical", failure)

        for param in reversed((
                click.option("--manifest", "manifest_path", required=True,
                             type=click.Path(), help="Manifest JSON path."),
                click.option("--out", "out_dir", default=".",
                             type=click.Path(file_okay=False),
                             help="Output directory."),
                *options,
                click.option("--threads", type=int, default=None,
                             callback=lambda ctx, param, value:
                             _resolve_threads(value),
                             help="Worker threads (default: "
                                  "EQUIDIST_THREADS or 1)."),
                click.option("--seed", type=int, default=None,
                             callback=_at_least(0),
                             help="Override the manifest seed."))):
            command = param(command)
        return main.command(name=mode, help=body.__doc__)(command)
    return register


def _gnuplot(title, settings, plots, fit=None):
    """Gnuplot script over a CSV with a header row; a decay fit adds the
    curve A x^-B to the plot."""
    lines = ["# " + title, "set datafile separator ','",
             "set key autotitle columnhead"] + ["set " + s for s in settings]
    if fit is not None:
        lines += ["A = %.16e" % fit.prefactor, "B = %.16e" % fit.exponent]
        plots = plots + ["A * x**(-B) with lines title "
                         "sprintf('fit: %.4g * x^{-%.4g}', A, B)"]
    return "\n".join(lines + ["plot " + ", \\\n     ".join(plots)]) + "\n"


@_subcommand()
def ledger(blk, seed, **_):
    """Build a constant table from assumption parameters."""
    params = AssumptionParams.from_json(blk["params"])
    mode = "theorem-%s" % blk.get("theorem", "A")
    led = build_ledger(params, int(blk["r_max"]), mode=mode)
    evaluations = []
    for ev in blk.get("evaluate", []):
        bv = bound_evaluate(led, int(ev["r"]), float(ev["Delta"]),
                            float(ev["wiener_norm"]), ev["s_norms"])
        evaluations.append({
            "r": int(ev["r"]), "Delta": float(ev["Delta"]),
            "bound": bv.value, "log10_bound": bv.log_value / _LOG10,
            "threshold_ok": bv.threshold_ok})
    payload = dict(led.to_json(), seed=seed, evaluations=evaluations,
                   log10_Bprime=led.log_Bprime / _LOG10)
    lines = ["ledger: mode=%s r_max=%d" % (led.mode, led.r_max)]
    lines += ["  r=%d d_r=%d delta_r=%.6g log10(D_r)=%.6g"
              % (row.r, row.d_r, row.delta_r, row.log_D_r / _LOG10)
              for row in led.rows]
    if led.mode == "theorem-B":
        lines.append("  lambda=%.10g H1=%.10g gamma=%.10g H2=%.10g"
                     % (led.lam, led.H1, led.gamma, led.H2))
    lines += ["  bound r=%d Delta=%.6g -> %.6g (threshold_ok=%s)"
              % (ev["r"], ev["Delta"], ev["bound"], ev["threshold_ok"])
              for ev in evaluations]
    return {
        "ledger.csv": _csv_text(
            ("r", "d_r", "D_r", "log10_D_r", "delta_r", "eps_r",
             "threshold"),
            [(row.r, row.d_r, row.D_r, row.log_D_r / _LOG10, row.delta_r,
              row.eps_r, row.threshold) for row in led.rows]),
        "ledger.json": _json_text(payload),
        "ledger.gp": _gnuplot(
            "plot delta_r and D_r against the correlation order",
            ["key left bottom", "logscale y", "xlabel 'r'",
             "ylabel 'value (log scale)'"],
            ["'ledger.csv' using 1:5 with linespoints title 'delta_r'",
             "'ledger.csv' using 1:3 with linespoints title 'D_r'"]),
    }, lines, None


# schedule.csv columns; a record holds these and the fields below
_SCHEDULE_COLUMNS = (
    "tuple_index", "r", "rho_r", "m_r", "M_r", "Delta_mult", "chosen_root",
    "i", "j", "l", "theta", "p", "q", "L", "log_L", "ok_scale_cap",
    "ok_group_lower", "ok_group_upper")
# the per-tuple fields of schedule.json: the join key and what the CSV lacks
_SCHEDULE_JSON_FIELDS = ("tuple_index", "entries", "log_Delta_r",
                         "relabeling", "log_norms", "checks")


def _schedule_records(action, tuples, theta_spec):
    """One schedule record per tuple, in input order, from one
    tuple_stats and one select_direction call.  A refusal does not name
    its tuple."""
    tuples = [TranslationTuple(entries, domain_tag=action.cone_tag)
              for entries in tuples]
    stats = tuple_stats(action, tuples)
    for st in stats:
        if st.M_r == math.inf:
            raise ValueError("log M_r = %r is past the float range, so "
                             "theta = 1/M_r underflows and the image "
                             "norms overflow; no window is computed"
                             % st.log_M_r)
    records = []
    for idx, (tup, st, sel) in enumerate(
            zip(tuples, stats, select_direction(action, tuples))):
        if sel.degenerate:
            raise ValueError("degenerate (all entries coincide); no "
                             "window exists")
        theta = (math.exp(-st.log_M_r) if theta_spec == "auto"
                 else float(theta_spec))
        win = choose_window(sel, theta)
        records.append(dict(
            tuple_index=idx, r=tup.r, rho_r=st.rho_r, m_r=st.m_r,
            M_r=st.M_r, Delta_mult=st.Delta_r,
            chosen_root=sel.chosen_root, i=sel.i, j=sel.j, l=sel.l,
            theta=theta, p=win.p, q=win.q, L=win.L, log_L=win.log_L,
            **{"ok_" + name: ok for name, (_, _, ok) in win.checks.items()},
            entries=tup.entries.tolist(), log_Delta_r=st.log_Delta_r,
            relabeling=sel.relabeling, log_norms=sel.log_norms,
            checks={name: {"lhs": lhs, "rhs": rhs}
                    for name, (lhs, rhs, _) in win.checks.items()}))
    return records


@_subcommand()
def schedule(blk, seed, **_):
    """Direction selection and window choice for translation tuples."""
    theta_spec = blk.get("theta", "auto")
    spec = blk["action"]
    action = (RootAction.u_mn(spec["m"], spec["n"]) if "builtin" in spec
              else RootAction.from_json(spec))
    try:
        records = _schedule_records(action, blk["tuples"], theta_spec)
    except _NUMERIC_ERRORS:
        # refuse for the first failing tuple in manifest order, by index
        for idx, entries in enumerate(blk["tuples"]):
            try:
                _schedule_records(action, [entries], theta_spec)
            except _NUMERIC_ERRORS as exc:
                raise ValueError("tuple %d: %s" % (idx, exc)) from None
        raise
    ok_all = all(rec["ok_scale_cap"] and rec["ok_group_lower"]
                 and rec["ok_group_upper"] for rec in records)
    lines = ["schedule: %d tuples, window checks %s"
             % (len(records), "all passed" if ok_all else "FAILED")]
    lines += ["  tuple=%(tuple_index)d r=%(r)d (p,q)=(%(p)d,%(q)d) L=%(L).6g"
              % rec for rec in records]
    return {
        "schedule.csv": _csv_text(
            _SCHEDULE_COLUMNS,
            [[rec[c] for c in _SCHEDULE_COLUMNS] for rec in records]),
        "schedule.json": _json_text(
            {"mode": "schedule", "seed": seed, "action": action.to_json(),
             "tuples": [{k: rec[k] for k in _SCHEDULE_JSON_FIELDS}
                        for rec in records],
             "version": __version__}),
        "schedule.gp": _gnuplot(
            "window length against tuple index",
            ["logscale y", "xlabel 'tuple index'",
             "ylabel 'window length L'"],
            ["'schedule.csv' using 1:14 with points pt 7 title 'L'"]),
    }, lines, None if ok_all else "window inequality check failed"


def _expand_times(blk):
    if "times" in blk:
        return [[float(t) for t in row] for row in blk["times"]]
    fam = blk["family"]
    rows = []
    t = float(fam["t_start"])
    step = float(fam["t_step"])
    while t <= float(fam["t_stop"]) + 1e-9:
        if t + step == t:
            raise ValueError("time family does not advance: t_step %r is "
                             "lost in rounding at t = %r" % (step, t))
        if len(rows) == _MAX_FAMILY_ROWS:
            raise ValueError("time family has more than %d rows; raise "
                             "t_step (%r)" % (_MAX_FAMILY_ROWS, step))
        rows.append([t * float(p) for p in fam["pattern"]])
        t += step
    if not rows:
        raise ValueError("time family is empty")
    return rows


@_subcommand(click.option("--nodes", type=int, default=None,
                          callback=_at_least(16),
                          help="Override the quadrature node count."))
def correlate(blk, seed, threads, nodes, **_):
    """Run horocycle correlation experiments from a manifest."""
    sigma = TorusMeasure.from_json(blk["sigma"])
    measure = HorocycleMeasure(sigma)
    observables = [
        ConstantObservable(float(p.get("value", 1.0)))
        if p["kind"] == "constant" else EisensteinObservable(
            BumpProfile(p["kind"], float(p["y_lo"]), float(p["y_hi"])))
        for p in blk["profiles"]]
    r = len(observables)
    time_rows = _expand_times(blk)
    for row in time_rows:
        if len(row) != r:
            raise ValueError("time row %r does not match the %d "
                             "declared profiles" % (row, r))
    n_nodes = int(nodes if nodes is not None else blk.get("nodes", 2 ** 14))
    mu_product = 1.0
    for obs in observables:
        mu_product *= obs.mu

    def run_row(times):
        val = correlation(measure, observables, times, nodes=n_nodes)
        d_add, d_mult = delta_statistics(times)
        return val, d_add, d_mult, abs(val - mu_product)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(run_row, time_rows))
    else:
        results = [run_row(row) for row in time_rows]

    echo = {"mode": "correlate", "seed": seed, "version": __version__,
            "sigma": sigma.to_json(), "profiles": blk["profiles"],
            "times": time_rows, "nodes": n_nodes,
            "mu_product": mu_product}
    bounds = None
    if "bound" in blk:
        bparams = AssumptionParams.from_json(blk["bound"]["params"])
        bmode = "theorem-%s" % blk["bound"].get("theorem", "A")
        bled = build_ledger(bparams, max(r, 1), mode=bmode)
        d_r = bled.row(r).d_r
        surrogate_order = min(d_r, 4)
        s_norms = [s_norm_surrogate(obs, surrogate_order)
                   for obs in observables]
        w_norm = wiener_norm(sigma)
        bounds = [bound_evaluate(bled, r, max(d_mult, 1.0), w_norm, s_norms)
                  for _, _, d_mult, _ in results]
        echo["bound"] = {"mode": bled.mode, "d_r": d_r,
                         "surrogate_order": surrogate_order,
                         "wiener_norm": w_norm, "s_norms": s_norms,
                         "values": [b.value for b in bounds],
                         "log10_values": [b.log_value / _LOG10
                                          for b in bounds],
                         "threshold_ok": [b.threshold_ok for b in bounds]}

    lines = ["correlate: r=%d rows=%d nodes=%d mu_product=%.8g"
             % (r, len(time_rows), n_nodes, mu_product)]
    for k, (times, (_, _, d_mult, err)) in enumerate(zip(time_rows,
                                                         results)):
        lines.append("  t=(%s) Delta=%.6g measured_err=%.6g"
                     % (",".join("%g" % t for t in times), d_mult, err))
        if bounds is not None:
            lines[-1] += " bound=%.6g" % bounds[k].value
    if bounds is not None:
        exceeded = sum(b.value < res[3] for b, res in zip(bounds, results))
        lines.append("  bound check (soft): %d of %d rows exceed the bound"
                     % (exceeded, len(time_rows)))
    pos = [(d_mult, err) for _, _, d_mult, err in results if err > 0.0]
    try:
        fit = fit_decay([d for d, _ in pos], [e for _, e in pos])
    except ValueError:
        fit = None
        lines.append("  fit: skipped (needs >= 3 rows with positive error "
                     "and non-constant Delta)")
    else:
        lines.append("  fit: exponent=%.6g prefactor=%.6g residual=%.6g"
                     % (fit.exponent, fit.prefactor, fit.residual))
    return {
        "correlate.csv": _csv_text(
            ["r"] + ["t_%d" % (k + 1) for k in range(r)]
            + ["Delta_add", "Delta_mult", "value_re", "value_im",
               "mu_product", "abs_error", "N_nodes"],
            [(r, *times, d_add, d_mult, val.real, val.imag, mu_product,
              err, n_nodes)
             for times, (val, d_add, d_mult, err) in zip(time_rows,
                                                         results)]),
        "correlate_manifest.json": _json_text(echo),
        # Delta_mult and abs_error are columns r + 3 and r + 7
        "correlate.gp": _gnuplot(
            "measured correlation error against the decay parameter "
            "(log-log)",
            ["logscale xy", "xlabel 'Delta_mult'", "ylabel 'abs_error'"],
            ["'correlate.csv' using %d:%d with points pt 7 title 'measured'"
             % (r + 3, r + 7)], fit),
    }, lines, None


@_subcommand()
def fit(blk, seed, manifest_path, **_):
    """Fit a power-law decay to columns of an existing CSV."""
    csv_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                            blk["input_csv"])
    x_col = blk.get("x_column", "Delta_mult")
    y_col = blk.get("y_column", "abs_error")
    table = np.genfromtxt(_read_text(csv_path, "input CSV").splitlines(),
                          delimiter=",", names=True)
    if table.dtype.names is None or x_col not in table.dtype.names \
            or y_col not in table.dtype.names:
        raise ValueError("columns %r and %r not found in %s (have %r)"
                         % (x_col, y_col, csv_path, table.dtype.names))
    xs = np.atleast_1d(table[x_col])
    ys = np.atleast_1d(table[y_col])
    keep = (xs > 0) & (ys > 0)
    result = fit_decay(xs[keep], ys[keep])
    n_points = int(np.count_nonzero(keep))
    lines = ["fit: exponent=%.6g prefactor=%.6g residual=%.6g n=%d"
             % (result.exponent, result.prefactor, result.residual,
                n_points)]
    return {
        "fit.json": _json_text(
            {"mode": "fit", "seed": seed, "version": __version__,
             "input_csv": csv_path, "x_column": x_col, "y_column": y_col,
             "n_points": n_points, "exponent": result.exponent,
             "prefactor": result.prefactor, "residual": result.residual}),
        "fit.gp": _gnuplot(
            "decay fit over the source table (log-log)",
            ["logscale xy", "xlabel '%s'" % x_col, "ylabel '%s'" % y_col],
            ["'%s' using '%s':'%s' with points pt 7 title 'data'"
             % (csv_path, x_col, y_col)], result),
    }, lines, None


# ---------------------------------------------------------------- verify
#
# A suite takes a generator and a trial count and returns (checks,
# max_defect): checks counts properties times trials, max_defect is the
# worst deviation or, for a pass/fail suite, the number of failures.

def _brute_force_pq(betas, theta):
    """First (p, q) in lexicographic order satisfying the gap sandwich,
    decided in exact rationals: beta_{p+1} < beta_1 theta^((q+1)/r) is
    equivalent to beta_{p+1}^r < beta_1^r theta^(q+1)."""
    r = len(betas)
    pows = [Fraction(float(b)) ** r for b in betas]
    thetas = [Fraction(float(theta)) ** k for k in range(r)]
    for p in range(1, r):
        for q in range(0, r - 1):
            if (pows[p] < pows[0] * thetas[q + 1]
                    and pows[0] * thetas[q] <= pows[p - 1]):
                return p, q
    return None


def _gap_instance(rng):
    """Random pigeonhole input (betas, theta), r in [2, 8]: powers of two
    with theta near 1, or shifted by up to 2^+-200 with theta anywhere;
    reals with theta at or near beta_r / beta_1, or anywhere with, one
    time in ten, a zero last beta."""
    r = int(rng.integers(2, 9))
    family = int(rng.integers(0, 4))
    if family == 0:
        exps = np.sort(rng.integers(-40, 11, size=r))[::-1]
        exps[0] = max(exps[0], exps[-1] + r)
        return ([2.0 ** int(e) for e in exps],
                2.0 ** int(max(exps[-1] - exps[0], -rng.integers(1, 8))))
    if family == 1:
        drops = rng.integers(0, 40, size=r - 1)
        if drops.sum() == 0:
            drops[0] = 1
        shift = int(rng.integers(-200, 201))
        return ([2.0 ** (shift - int(e)) for e in np.cumsum([0, *drops])],
                2.0 ** -int(rng.integers(1, int(drops.sum()) + 1)))
    if family == 2:
        logs = np.sort(rng.uniform(-20.0, 5.0, size=r))[::-1]
        logs[0] = max(logs[0], logs[-1] + 0.5)
        return (list(np.exp(logs)),
                math.exp(max(logs[-1] - logs[0], -rng.uniform(0.3, 5.0))))
    gaps = rng.uniform(0.0, 8.0, size=r - 1)
    gaps[0] = max(gaps[0], 0.3)
    logs = rng.uniform(-30.0, 30.0) - np.cumsum([0.0, *gaps])
    betas = [math.exp(v) for v in logs]
    theta = math.exp((logs[-1] - logs[0]) * rng.uniform(1e-3, 1.0))
    if rng.random() < 0.1:
        betas[-1] = 0.0
    return betas, theta


def _suite_pigeonhole(rng, trials):
    """pigeonhole returns the brute force's (p, q)."""
    return trials, float(sum(
        _brute_force_pq(*inst) != pigeonhole(*inst)
        for inst in (_gap_instance(rng) for _ in range(trials))))


def _selection(norms):
    """A direction selection with the given decreasing image norms."""
    return DirectionSelection(
        degenerate=False, chosen_root=1, i=1, j=len(norms), l=len(norms),
        relabeling=tuple(range(1, len(norms) + 1)),
        log_norms=tuple(math.log(v) for v in norms),
        norms=tuple(float(v) for v in norms))


def _window_fails(sel, theta):
    """Whether the window breaks a check, differs from the brute force's
    (p, q), misses L = norm_1^-1 theta^(-(q+1/2)/r) or fails to separate
    the norms at theta^(-+1/(2r)), the last two to 1e-9."""
    win = choose_window(sel, theta)
    r = sel.r
    length = sel.norms[0] ** -1.0 * theta ** (-(win.q + 0.5) / r)
    return (not all(ok for _, _, ok in win.checks.values())
            or _brute_force_pq(sel.norms, theta) != (win.p, win.q)
            or abs(win.L - length) > 1e-9 * length
            or any(win.L * v < theta ** (-1 / (2 * r)) * (1 - 1e-9)
                   for v in sel.norms[:win.p])
            or any(win.L * v > theta ** (1 / (2 * r)) * (1 + 1e-9)
                   for v in sel.norms[win.p:]))


def _suite_window(rng, trials):
    """Windows for a random u_mn(1, 2) tuple of 2 to 6 entries at theta =
    1/M_r, and for a pigeonhole instance's betas scaled to end at 1.  The
    tuples of all trials share one tuple_stats and one select_direction
    call."""
    action = RootAction.u_mn(1, 2)
    tuples, gap_cases = [], []
    for _ in range(trials):
        a = rng.uniform(0.0, 6.0, size=int(rng.integers(2, 7)))
        b = rng.uniform(0.0, a)
        tuples.append(TranslationTuple(
            np.stack([a, b, a - b], axis=1).tolist(),
            domain_tag=action.cone_tag))
        betas, theta = _gap_instance(rng)
        gap_cases.append(
            [(_selection([v / betas[-1] for v in betas]), theta)]
            if betas[-1] > 0.0 else [])
    failures = 0
    for sel, stats, gap in zip(select_direction(action, tuples),
                               tuple_stats(action, tuples), gap_cases):
        cases = [(sel, math.exp(-stats.log_M_r))] + gap
        failures += any(_window_fails(s, th) for s, th in cases)
    return trials, float(failures)


def _sparse_observable(rng, dim, degree=6):
    """One to six random terms at characters in [-degree, degree]^dim."""
    n = int(rng.integers(1, 7))
    chis = rng.integers(-degree, degree + 1, size=(n, dim)).tolist()
    return TorusObservable(dim, [(chi, complex(*amp)) for chi, amp in
                                 zip(chis, rng.normal(size=(n, 2)).tolist())])


def _suite_wiener(rng, trials):
    """Twist equivariance under Haar and the character expansion against
    a direct quadrature, per trial on a dense degree 1-8 polynomial
    with a one-harmonic density and, from a child stream (so a seed's
    dense cases stay put), on sparse ones: on a 1- or 2-torus with xi in
    [-6, 6]^dim, w in [-2, 2]^dim; under up to six harmonics in [-6, 6]."""
    worst = 0.0
    haar = TorusMeasure.haar(1)
    sparse = rng.spawn(1)[0]
    for _ in range(trials):
        deg = int(rng.integers(1, 9))
        eta = TorusObservable(1, {(k,): complex(rng.normal(), rng.normal())
                                  for k in range(-deg, deg + 1)})
        xi = int(rng.integers(-5, 6))
        w = float(rng.uniform(-1.0, 1.0))
        amp = 0.5 * complex(rng.normal(), rng.normal())
        sigma = TorusMeasure(1, {(0,): 1.0, (1,): amp,
                                 (-1,): amp.conjugate()})
        dim = int(sparse.integers(1, 3))
        density = {chi: 0.3 * v for chi, v in
                   _sparse_observable(sparse, 1).coeffs.items()}
        density[(0,)] = 1.0
        worst = max(worst, equivariance_check(haar, xi, w, eta)[2],
                    character_expansion_check(sigma, eta)[2],
                    equivariance_check(TorusMeasure.haar(dim),
                                       sparse.integers(-6, 7, size=dim),
                                       sparse.uniform(-2.0, 2.0, size=dim),
                                       _sparse_observable(sparse, dim))[2],
                    character_expansion_check(
                        TorusMeasure(1, density),
                        _sparse_observable(sparse, 1))[2])
    return 2 * trials, worst


def _suite_geometry(rng, trials):
    """Star norms are submultiplicative and even, as relative defects,
    for u_mn(2, 1) and u_mn(1, 2) on [-5, 5]^3."""
    worst = 0.0
    actions = (RootAction.u_mn(2, 1), RootAction.u_mn(1, 2))
    for _ in range(trials):
        for action in actions:
            s, t = rng.uniform(-5.0, 5.0, size=(2, 3))
            norm_s = star_norm(action, s)
            rhs = norm_s * star_norm(action, t)
            worst = max(worst, (star_norm(action, s + t) - rhs) / rhs,
                        abs(norm_s - star_norm(action, -s)) / norm_s)
    return 2 * trials, worst


def _suite_modular(rng, trials):
    """At random z, |x| <= 10, 0.02 <= y <= 50: reduction lands in the
    fundamental domain to 1e-12 (else the defect is infinite), is
    idempotent and invariant under z + 1 and -1/z; the observable by
    coset enumeration agrees at z, z + 1, -1/z and the reduced point,
    and with the fast path.  Deeper points (|x| ~ 50, y ~ 1e-4) amplify
    the rounding of -1/z past 1e-10, a limit of float arithmetic."""
    obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
    xs = rng.uniform(-10.0, 10.0, size=trials)
    ys = np.exp(rng.uniform(math.log(0.02), math.log(50.0), size=trials))
    n2 = xs * xs + ys * ys
    rx, ry = reduce_arrays(xs, ys)
    if np.any(np.abs(rx) > 0.5 + 1e-12) or np.any(rx * rx + ry * ry
                                                  < 1.0 - 1e-12):
        return trials, math.inf
    worst = 0.0
    for px, py in (reduce_arrays(rx, ry), reduce_arrays(xs + 1.0, ys),
                   reduce_arrays(-xs / n2, ys / n2)):
        worst = max(worst, np.max(np.abs(px - rx)), np.max(np.abs(py - ry)))
    for x, y, n, u, v, fast in zip(xs, ys, n2, rx, ry,
                                   obs.value_at(xs, ys)):
        base = obs.value(x, y)
        worst = max(worst, *(abs(val - base) for val in (
            obs.value(x + 1.0, y), obs.value(-x / n, y / n),
            obs.value(u, v), fast)))
    return trials, float(worst)


def _suite_integral(rng, trials):
    """The mean-kernel estimate on a fixed (R, c) grid; ignores its args."""
    grid = [(R, c) for R in (1.0, 10.0, 100.0, 1e3, 1e4)
            for c in (0.05, 0.1, 0.25, 0.4, 0.49)]
    return len(grid), float(sum(not check_integral_estimate(R, c).passed
                                for R, c in grid))


def _random_params(rng):
    a = float(rng.uniform(0.1, 2.0))
    lo = max(0.5, a / 4.0) + 0.01
    kind = int(rng.integers(0, 3))
    if kind == 0:
        growth = PowerLawGrowth(*map(float, rng.uniform(1.0, 3.0, size=3)))
    elif kind == 1:
        growth = TabulatedGrowth(*(
            tuple(map(float, rng.uniform(low, high, size=40)))
            for low, high in ((1.0, 3.0), (lo, lo + 3.0), (1.0, 3.0))))
    else:
        growth = ConstantGrowth(float(rng.uniform(1.0, 4.0)),
                                float(rng.uniform(lo, 4.0)),
                                float(rng.uniform(1.0, 4.0)))
    return AssumptionParams(
        d_o=int(rng.integers(1, 4)), D_o=float(rng.uniform(1.0, 10.0)),
        delta_o=float(rng.uniform(0.05, 1.0)),
        C=float(rng.uniform(1.0, 20.0)), c=float(rng.uniform(0.02, 0.48)),
        A=float(rng.uniform(1.0, 5.0)), a=a, growth=growth)


def _suite_ledger(rng, trials):
    """Random parameters (d_o up to 3, all three growth kinds) give
    ledgers to r = 12 with strictly decreasing delta_r, d_r = (r+1) d_o,
    eps_r in (0, 1) and finite log D_r."""
    failures = 0
    for _ in range(trials):
        params = _random_params(rng)
        rows = build_ledger(params, 12).rows
        failures += sum((
            any(b.delta_r >= a.delta_r for a, b in zip(rows, rows[1:])),
            any(rw.d_r != (rw.r + 1) * params.d_o for rw in rows),
            any(not 0.0 < rw.eps_r < 1.0 for rw in rows[1:]),
            any(not math.isfinite(rw.log_D_r) for rw in rows)))
    return trials, float(failures)


# (name, suite, tolerance on max_defect, cap on the trial count)
_VERIFY_SUITES = (
    ("pigeonhole_vs_bruteforce", _suite_pigeonhole, 1.0, None),
    ("window_inequalities", _suite_window, 1.0, None),
    ("wiener_identities", _suite_wiener, 1e-12, None),
    ("geometry_norm_axioms", _suite_geometry, 1e-12, None),
    ("modular_reduction_invariance", _suite_modular, 1e-10, None),
    ("integral_estimate_grid", _suite_integral, 1.0, None),
    ("ledger_monotonicity", _suite_ledger, 1.0, 40),
)


@_subcommand()
def verify(blk, seed, **_):
    """Run the seeded self-check battery."""
    trials = int(blk.get("trials", 400))
    report = []
    for name, suite, tol, cap in _VERIFY_SUITES:
        checked, worst = suite(np.random.default_rng(seed),
                               trials if cap is None else min(trials, cap))
        report.append({"suite": name, "checks": checked, "max_defect": worst,
                       "tolerance": tol, "passed": worst < tol})
    passed = all(entry["passed"] for entry in report)
    lines = ["%s %s (checks=%d, max_defect=%.3g)"
             % ("PASS" if e["passed"] else "FAIL", e["suite"], e["checks"],
                e["max_defect"]) for e in report]
    files = {"verify_report.json": _json_text(
        {"mode": "verify", "seed": seed, "trials": trials,
         "version": __version__, "suites": report, "passed": passed})}
    return files, lines, None if passed else "verification battery failed"


if __name__ == "__main__":
    main()
