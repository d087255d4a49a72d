"""Manifest-driven command line front end.

Five subcommands: ledger (constant tables), schedule (direction and
window selection for translation tuples), correlate (horocycle
correlation experiments), fit (decay-exponent fits on existing CSVs),
and verify (a seeded self-check battery).  Each takes --manifest and
--out plus optional --nodes / --threads / --seed overrides; manifests
are validated against the packaged JSON schema before anything runs.

Exit codes: 0 success, 2 manifest or file problems, 3 numerical
failures.  Errors are emitted as one-line JSON on stderr so wrappers
can parse them.  All CSV output uses 17-significant-digit scientific
notation and fixed row order, so re-running a manifest reproduces the
bytes exactly, regardless of the thread count.
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
from .geometry import (RootAction, TranslationTuple, select_direction,
                       star_norm, tuple_stats)
from .modular import (BumpProfile, ConstantObservable, EisensteinObservable,
                      HorocycleMeasure, UpperHalfPoint,
                      check_integral_estimate, correlation, delta_statistics,
                      fit_decay, reduce_arrays, s_norm_surrogate)
from .selection import choose_window, pigeonhole
from .wiener import (TorusMeasure, TorusObservable, character_expansion_check,
                     equivariance_check, wiener_norm)

_LOG10 = math.log(10.0)
_NUMERIC_ERRORS = (ValueError, ArithmeticError, KeyError)


def _fail(code, kind, message, **extra):
    payload = {"error": kind, "message": str(message)}
    payload.update(extra)
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


def _schema():
    with resources.files("equidist").joinpath(
            "manifest_schema.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_manifest(path, expect_mode):
    if not os.path.isfile(path):
        _fail(2, "file-missing", "manifest not found: %s" % path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
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


def _resolve_seed(manifest, seed):
    if seed is not None:
        return int(seed)
    return int(manifest.get("seed", 0))


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path, payload):
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, rows):
    """Comma-separated table: %d for int and bool cells, %.16e for the
    rest, so the same rows always give the same bytes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            ("%d" if isinstance(v, int) else "%.16e") % v
            for v in row))
    _write(path, "\n".join(lines) + "\n")


def _common(f):
    opts = [
        click.option("--seed", type=int, default=None,
                     help="Override the manifest seed."),
        click.option("--threads", type=int, default=None,
                     callback=lambda ctx, param, value:
                     _resolve_threads(value),
                     help="Worker threads (default: EQUIDIST_THREADS or 1)."),
        click.option("--nodes", type=int, default=None,
                     help="Override quadrature node counts."),
        click.option("--out", "out_dir", default=".",
                     type=click.Path(file_okay=False),
                     help="Output directory."),
        click.option("--manifest", "manifest_path", required=True,
                     type=click.Path(), help="Manifest JSON path."),
    ]
    for opt in opts:
        f = opt(f)
    return f


@click.group()
@click.version_option(version=__version__, prog_name="equidist")
def main():
    """Correlation-bound ledgers and equidistribution experiments."""


# ---------------------------------------------------------------- ledger

_LEDGER_GP = """\
# plot delta_r and D_r against the correlation order
set datafile separator ','
set key autotitle columnhead
set key left bottom
set logscale y
set xlabel 'r'
set ylabel 'value (log scale)'
plot 'ledger.csv' using 1:5 with linespoints title 'delta_r', \\
     'ledger.csv' using 1:3 with linespoints title 'D_r'
"""


@main.command()
@_common
def ledger(manifest_path, out_dir, nodes, threads, seed):
    """Build a constant table from assumption parameters."""
    m = _load_manifest(manifest_path, "ledger")
    blk = m["ledger"]
    seed = _resolve_seed(m, seed)
    try:
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
    except _NUMERIC_ERRORS as exc:
        _fail(3, "numerical", exc)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "ledger.csv"),
               ("r", "d_r", "D_r", "log10_D_r", "delta_r", "eps_r",
                "threshold"),
               [(row.r, row.d_r, row.D_r, row.log_D_r / _LOG10, row.delta_r,
                 row.eps_r, row.threshold) for row in led.rows])
    payload = led.to_json()
    payload["seed"] = seed
    payload["evaluations"] = evaluations
    _write_json(os.path.join(out_dir, "ledger.json"), payload)
    _write(os.path.join(out_dir, "ledger.gp"), _LEDGER_GP)
    click.echo("ledger: mode=%s r_max=%d" % (led.mode, led.r_max))
    for row in led.rows:
        click.echo("  r=%d d_r=%d delta_r=%.6g log10(D_r)=%.6g"
                   % (row.r, row.d_r, row.delta_r, row.log_D_r / _LOG10))
    if led.mode == "theorem-B":
        click.echo("  lambda=%.10g H1=%.10g gamma=%.10g H2=%.10g"
                   % (led.lam, led.H1, led.gamma, led.H2))
    for ev in evaluations:
        click.echo("  bound r=%d Delta=%.6g -> %.6g (threshold_ok=%s)"
                   % (ev["r"], ev["Delta"], ev["bound"], ev["threshold_ok"]))


# -------------------------------------------------------------- schedule

_SCHEDULE_GP = """\
# window length against tuple index
set datafile separator ','
set key autotitle columnhead
set logscale y
set xlabel 'tuple index'
set ylabel 'window length L'
plot 'schedule.csv' using 1:14 with points pt 7 title 'L'
"""


def _action_from_block(blk):
    if "builtin" in blk:
        return RootAction.u_mn(blk["m"], blk["n"])
    return RootAction.from_json(blk)


@main.command()
@_common
def schedule(manifest_path, out_dir, nodes, threads, seed):
    """Direction selection and window choice for translation tuples."""
    m = _load_manifest(manifest_path, "schedule")
    blk = m["schedule"]
    seed = _resolve_seed(m, seed)
    theta_spec = blk.get("theta", "auto")
    rows = []
    detail = []
    try:
        action = _action_from_block(blk["action"])
        for idx, entries in enumerate(blk["tuples"]):
            tup = TranslationTuple(entries, domain_tag=action.cone_tag)
            stats = tuple_stats(action, tup)
            sel = select_direction(action, tup)
            if sel.degenerate:
                raise ValueError("tuple %d is degenerate (all entries "
                                 "coincide); no window exists" % idx)
            theta = (math.exp(-stats.log_M_r) if theta_spec == "auto"
                     else float(theta_spec))
            win = choose_window(sel, theta)
            rows.append((idx, tup.r, stats.rho_r, stats.m_r, stats.M_r,
                         stats.Delta_r, sel.chosen_root, sel.i, sel.j, sel.l,
                         theta, win.p, win.q, win.L, win.log_L,
                         win.checks["scale_cap"][2],
                         win.checks["group_lower"][2],
                         win.checks["group_upper"][2]))
            detail.append({
                "tuple_index": idx, "r": tup.r,
                "entries": [list(map(float, e)) for e in tup.entries],
                "stats": {"rho_r": stats.rho_r, "m_r": stats.m_r,
                          "M_r": stats.M_r, "Delta_r": stats.Delta_r,
                          "log_Delta_r": stats.log_Delta_r},
                "selection": {"chosen_root": sel.chosen_root, "i": sel.i,
                              "j": sel.j, "l": sel.l,
                              "relabeling": list(sel.relabeling),
                              "norms": list(sel.norms),
                              "log_norms": list(sel.log_norms)},
                "window": {"theta": theta, "p": win.p, "q": win.q,
                           "L": win.L, "log_L": win.log_L,
                           "checks": {k: {"lhs": v[0], "rhs": v[1],
                                          "ok": v[2]}
                                      for k, v in win.checks.items()}}})
    except _NUMERIC_ERRORS as exc:
        _fail(3, "numerical", exc)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "schedule.csv"),
               ("tuple_index", "r", "rho_r", "m_r", "M_r", "Delta_mult",
                "chosen_root", "i", "j", "l", "theta", "p", "q", "L", "log_L",
                "ok_scale_cap", "ok_group_lower", "ok_group_upper"), rows)
    _write_json(os.path.join(out_dir, "schedule.json"),
                {"mode": "schedule", "seed": seed,
                 "action": action.to_json(), "tuples": detail,
                 "version": __version__})
    _write(os.path.join(out_dir, "schedule.gp"), _SCHEDULE_GP)
    ok_all = all(rw[-3] and rw[-2] and rw[-1] for rw in rows)
    click.echo("schedule: %d tuples, window checks %s"
               % (len(rows), "all passed" if ok_all else "FAILED"))
    for rw in rows:
        click.echo("  tuple=%d r=%d (p,q)=(%d,%d) L=%.6g" %
                   (rw[0], rw[1], rw[11], rw[12], rw[13]))
    if not ok_all:
        _fail(3, "numerical", "window inequality check failed")


# ------------------------------------------------------------- correlate

_CORRELATE_GP = """\
# measured correlation error against the decay parameter (log-log)
set datafile separator ','
set key autotitle columnhead
set logscale xy
set xlabel 'Delta_mult'
set ylabel 'abs_error'
A = %.16e
B = %.16e
plot 'correlate.csv' using %d:%d with points pt 7 title 'measured', \\
     A * x**(-B) with lines title sprintf('fit: %%.4g * x^{-%%.4g}', A, B)
"""

_CORRELATE_GP_NOFIT = """\
# measured correlation error against the decay parameter (log-log)
set datafile separator ','
set key autotitle columnhead
set logscale xy
set xlabel 'Delta_mult'
set ylabel 'abs_error'
plot 'correlate.csv' using %d:%d with points pt 7 title 'measured'
"""


def _profiles_to_observables(profiles):
    out = []
    for p in profiles:
        if p["kind"] == "constant":
            out.append(ConstantObservable(float(p.get("value", 1.0))))
        else:
            out.append(EisensteinObservable(
                BumpProfile(p["kind"], float(p["y_lo"]), float(p["y_hi"]))))
    return out


def _expand_times(blk):
    if "times" in blk:
        return [[float(t) for t in row] for row in blk["times"]]
    fam = blk["family"]
    rows = []
    t = float(fam["t_start"])
    stop = float(fam["t_stop"])
    step = float(fam["t_step"])
    while t <= stop + 1e-9:
        rows.append([t * float(p) for p in fam["pattern"]])
        t += step
    if not rows:
        raise ValueError("time family is empty")
    return rows


@main.command()
@_common
def correlate(manifest_path, out_dir, nodes, threads, seed):
    """Run horocycle correlation experiments from a manifest."""
    m = _load_manifest(manifest_path, "correlate")
    blk = m["correlate"]
    seed = _resolve_seed(m, seed)
    try:
        sigma = TorusMeasure.from_json(blk["sigma"])
        measure = HorocycleMeasure(sigma)
        observables = _profiles_to_observables(blk["profiles"])
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

        bound_info = None
        if "bound" in blk:
            bparams = AssumptionParams.from_json(blk["bound"]["params"])
            bmode = "theorem-%s" % blk["bound"].get("theorem", "A")
            bled = build_ledger(bparams, max(r, 1), mode=bmode)
            d_r = bled.row(r).d_r
            surrogate_order = min(d_r, 4)
            s_norms = [s_norm_surrogate(obs, surrogate_order)
                       for obs in observables]
            w_norm = wiener_norm(sigma)
            bounds = []
            for times, (val, d_add, d_mult, err) in zip(time_rows, results):
                bv = bound_evaluate(bled, r, max(d_mult, 1.0), w_norm,
                                    s_norms)
                bounds.append(bv)
            bound_info = {"mode": bled.mode, "d_r": d_r,
                          "surrogate_order": surrogate_order,
                          "wiener_norm": w_norm, "s_norms": s_norms,
                          "values": [b.value for b in bounds],
                          "threshold_ok": [b.threshold_ok for b in bounds]}
    except _NUMERIC_ERRORS as exc:
        _fail(3, "numerical", exc)

    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "correlate.csv"),
               ["r"] + ["t_%d" % (k + 1) for k in range(r)]
               + ["Delta_add", "Delta_mult", "value_re", "value_im",
                  "mu_product", "abs_error", "N_nodes"],
               [(r, *times, d_add, d_mult, val.real, val.imag, mu_product,
                 err, n_nodes)
                for times, (val, d_add, d_mult, err) in zip(time_rows,
                                                            results)])

    echo = {"mode": "correlate", "seed": seed, "version": __version__,
            "sigma": sigma.to_json(), "profiles": blk["profiles"],
            "times": time_rows, "nodes": n_nodes,
            "mu_product": mu_product}
    if bound_info is not None:
        echo["bound"] = bound_info
    _write_json(os.path.join(out_dir, "correlate_manifest.json"), echo)

    # columns for the plot script: Delta_mult and abs_error
    col_delta = r + 3
    col_err = r + 7
    fit = None
    pos = [(dm, err) for (_, _, dm, err) in results if err > 0.0]
    if len(pos) >= 3 and max(d for d, _ in pos) > min(d for d, _ in pos):
        try:
            fit = fit_decay([d for d, _ in pos], [e for _, e in pos])
        except ValueError:
            fit = None
    if fit is not None:
        _write(os.path.join(out_dir, "correlate.gp"),
               _CORRELATE_GP % (fit.prefactor, fit.exponent,
                                col_delta, col_err))
    else:
        _write(os.path.join(out_dir, "correlate.gp"),
               _CORRELATE_GP_NOFIT % (col_delta, col_err))

    click.echo("correlate: r=%d rows=%d nodes=%d mu_product=%.8g"
               % (r, len(time_rows), n_nodes, mu_product))
    violations = 0
    for k, (times, (val, d_add, d_mult, err)) in enumerate(
            zip(time_rows, results)):
        line = ("  t=(%s) Delta=%.6g measured_err=%.6g"
                % (",".join("%g" % t for t in times), d_mult, err))
        if bound_info is not None:
            b = bound_info["values"][k]
            line += " bound=%.6g" % b
            if b < err:
                violations += 1
        click.echo(line)
    if bound_info is not None:
        click.echo("  bound check (soft): %d of %d rows exceed the bound"
                   % (violations, len(time_rows)))
    if fit is not None:
        click.echo("  fit: exponent=%.6g prefactor=%.6g residual=%.6g"
                   % (fit.exponent, fit.prefactor, fit.residual))
    else:
        click.echo("  fit: skipped (needs >= 3 rows with positive error "
                   "and non-constant Delta)")


# ------------------------------------------------------------------- fit

_FIT_GP = """\
# decay fit over the source table (log-log)
set datafile separator ','
set key autotitle columnhead
set logscale xy
set xlabel '%s'
set ylabel '%s'
A = %.16e
B = %.16e
plot '%s' using '%s':'%s' with points pt 7 title 'data', \\
     A * x**(-B) with lines title sprintf('fit: %%.4g * x^{-%%.4g}', A, B)
"""


@main.command()
@_common
def fit(manifest_path, out_dir, nodes, threads, seed):
    """Fit a power-law decay to columns of an existing CSV."""
    m = _load_manifest(manifest_path, "fit")
    blk = m["fit"]
    seed = _resolve_seed(m, seed)
    csv_path = blk["input_csv"]
    if not os.path.isabs(csv_path):
        csv_path = os.path.join(os.path.dirname(os.path.abspath(
            manifest_path)), csv_path)
    if not os.path.isfile(csv_path):
        _fail(2, "file-missing", "input CSV not found: %s" % csv_path)
    x_col = blk.get("x_column", "Delta_mult")
    y_col = blk.get("y_column", "abs_error")
    try:
        table = np.genfromtxt(csv_path, delimiter=",", names=True)
        if table.dtype.names is None or x_col not in table.dtype.names \
                or y_col not in table.dtype.names:
            raise ValueError("columns %r and %r not found in %s (have %r)"
                             % (x_col, y_col, csv_path,
                                table.dtype.names))
        xs = np.atleast_1d(table[x_col])
        ys = np.atleast_1d(table[y_col])
        keep = (xs > 0) & (ys > 0)
        result = fit_decay(xs[keep], ys[keep])
    except _NUMERIC_ERRORS as exc:
        _fail(3, "numerical", exc)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "fit.json"),
                {"mode": "fit", "seed": seed, "version": __version__,
                 "input_csv": csv_path, "x_column": x_col, "y_column": y_col,
                 "n_points": int(np.count_nonzero(keep)),
                 "exponent": result.exponent, "prefactor": result.prefactor,
                 "residual": result.residual})
    _write(os.path.join(out_dir, "fit.gp"),
           _FIT_GP % (x_col, y_col, result.prefactor, result.exponent,
                      csv_path, x_col, y_col))
    click.echo("fit: exponent=%.6g prefactor=%.6g residual=%.6g n=%d"
               % (result.exponent, result.prefactor, result.residual,
                  int(np.count_nonzero(keep))))


# ---------------------------------------------------------------- verify

def _brute_force_pq(betas, theta):
    """First (p, q) in lexicographic order satisfying the gap sandwich,
    decided without logarithms: beta_{p+1} < beta_1 theta^((q+1)/r) is
    equivalent to beta_{p+1}^r < beta_1^r theta^(q+1), and every float
    is an exact rational, so Fraction powers settle each comparison."""
    r = len(betas)
    b_pow = [Fraction(b) ** r for b in betas]
    th = Fraction(theta)
    th_pow = [th ** k for k in range(r)]
    for p in range(1, r):
        for q in range(0, r - 1):
            if (b_pow[p] < b_pow[0] * th_pow[q] * th
                    and b_pow[0] * th_pow[q] <= b_pow[p - 1]):
                return p, q
    return None


def _suite_pigeonhole(rng, trials):
    failures = 0
    for _ in range(trials):
        r = int(rng.integers(2, 9))
        dyadic = bool(rng.integers(0, 2))
        if dyadic:
            exps = np.sort(rng.integers(-40, 11, size=r))[::-1]
            exps[0] = max(exps[0], exps[-1] + r)
            betas = [float(2.0 ** int(e)) for e in exps]
            # theta must cover the full ratio: beta_r <= beta_1 * theta
            theta = 2.0 ** int(max(exps[-1] - exps[0],
                                   -int(rng.integers(1, 8))))
        else:
            logs = np.sort(rng.uniform(-20.0, 5.0, size=r))[::-1]
            logs[0] = max(logs[0], logs[-1] + 0.5)
            betas = list(np.exp(logs))
            theta = math.exp(max(logs[-1] - logs[0],
                                 -float(rng.uniform(0.3, 5.0))))
        if _brute_force_pq(betas, theta) != pigeonhole(betas, theta):
            failures += 1
    return trials, float(failures)


def _suite_window(rng, trials):
    failures = 0
    checked = 0
    action = RootAction.u_mn(1, 2)
    for _ in range(trials):
        r = int(rng.integers(2, 6))
        entries = []
        for _ in range(r):
            a = float(rng.uniform(0.0, 6.0))
            b = float(rng.uniform(0.0, a)) if a > 0 else 0.0
            entries.append([a, b, a - b])
        tup = TranslationTuple(entries, domain_tag=action.cone_tag)
        sel = select_direction(action, tup)
        if sel.degenerate:
            continue
        stats = tuple_stats(action, tup)
        theta = math.exp(-stats.log_M_r)
        win = choose_window(sel, theta)
        checked += 1
        if not all(ok for _, _, ok in win.checks.values()):
            failures += 1
    return checked, float(failures)


def _suite_wiener(rng, trials):
    worst = 0.0
    haar = TorusMeasure.haar(1)
    for _ in range(trials):
        deg = int(rng.integers(1, 9))
        coeffs = {}
        for k in range(-deg, deg + 1):
            coeffs[(k,)] = complex(rng.normal(), rng.normal())
        eta = TorusObservable(1, coeffs)
        xi = int(rng.integers(-5, 6))
        w = float(rng.uniform(-1.0, 1.0))
        _, _, defect = equivariance_check(haar, xi, w, eta)
        worst = max(worst, defect)
        amp = complex(rng.normal(), rng.normal())
        sigma = TorusMeasure(1, {(0,): 1.0, (1,): 0.5 * amp,
                                 (-1,): 0.5 * amp.conjugate()})
        _, _, defect2 = character_expansion_check(sigma, eta, grid=256)
        worst = max(worst, defect2)
    return 2 * trials, worst


def _suite_geometry(rng, trials):
    worst = 0.0
    action = RootAction.u_mn(2, 1)
    for _ in range(trials):
        s = rng.uniform(-3.0, 3.0, size=3)
        t = rng.uniform(-3.0, 3.0, size=3)
        lhs = star_norm(action, s + t)
        rhs = star_norm(action, s) * star_norm(action, t)
        worst = max(worst, max(0.0, (lhs - rhs) / rhs))
        sym = abs(star_norm(action, s) - star_norm(action, -s))
        worst = max(worst, sym / star_norm(action, s))
    return 2 * trials, worst


def _suite_modular(rng, trials):
    worst = 0.0
    obs = EisensteinObservable(BumpProfile("bump", 1.5, 3.0))
    xs = rng.uniform(-8.0, 8.0, size=trials)
    ys = np.exp(rng.uniform(math.log(0.05), math.log(8.0), size=trials))
    rx, ry = reduce_arrays(xs, ys)
    r2x, r2y = reduce_arrays(rx, ry)
    worst = max(worst, float(np.max(np.abs(r2x - rx))),
                float(np.max(np.abs(r2y - ry))))
    sx, sy = reduce_arrays(xs + 1.0, ys)
    worst = max(worst, float(np.max(np.abs(sx - rx))),
                float(np.max(np.abs(sy - ry))))
    for k in range(min(trials, 40)):
        z = UpperHalfPoint(float(xs[k]), float(ys[k]))
        direct = obs.value(z)
        via_reduction = float(obs.value_at(z.x, z.y))
        worst = max(worst, abs(direct - via_reduction))
    return trials, worst


def _suite_integral(rng, trials):
    failures = 0
    checked = 0
    for R in (1.0, 10.0, 100.0, 1e3, 1e4):
        for c in (0.05, 0.1, 0.25, 0.4, 0.49):
            est = check_integral_estimate(R, c)
            checked += 1
            if not est.passed:
                failures += 1
    return checked, float(failures)


def _random_params(rng):
    kind = int(rng.integers(0, 3))
    a_val = float(rng.uniform(0.1, 2.0))
    if kind == 0:
        growth = PowerLawGrowth(float(rng.uniform(1.0, 2.0)),
                                float(rng.uniform(1.0, 2.0)),
                                float(rng.uniform(1.0, 2.0)))
    elif kind == 1:
        n = 40
        lo = max(0.5, a_val / 4.0) + 0.01
        growth = TabulatedGrowth(
            tuple(float(v) for v in rng.uniform(1.0, 3.0, size=n)),
            tuple(float(v) for v in rng.uniform(lo, lo + 3.0, size=n)),
            tuple(float(v) for v in rng.uniform(1.0, 3.0, size=n)))
    else:
        growth = ConstantGrowth(float(rng.uniform(1.0, 4.0)),
                                float(rng.uniform(max(0.51, a_val / 4.0
                                                      + 0.01), 4.0)),
                                float(rng.uniform(1.0, 4.0)))
    return AssumptionParams(
        d_o=int(rng.integers(1, 3)), D_o=float(rng.uniform(1.0, 5.0)),
        delta_o=float(rng.uniform(0.05, 1.0)),
        C=float(rng.uniform(1.0, 10.0)), c=float(rng.uniform(0.02, 0.48)),
        A=float(rng.uniform(1.0, 4.0)), a=a_val, growth=growth)


def _suite_ledger(rng, trials):
    failures = 0
    checked = 0
    for _ in range(trials):
        params = _random_params(rng)
        led = build_ledger(params, 12)
        deltas = [rw.delta_r for rw in led.rows]
        checked += 1
        if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
            failures += 1
        if any(rw.d_r != (rw.r + 1) * params.d_o for rw in led.rows):
            failures += 1
        if any(not 0.0 < rw.eps_r < 1.0 for rw in led.rows[1:]):
            failures += 1
        if any(not math.isfinite(rw.log_D_r) for rw in led.rows):
            failures += 1
    return checked, float(failures)


_VERIFY_SUITES = (
    ("pigeonhole_vs_bruteforce", _suite_pigeonhole, 1.0),
    ("window_inequalities", _suite_window, 1.0),
    ("wiener_identities", _suite_wiener, 1e-12),
    ("geometry_norm_axioms", _suite_geometry, 1e-12),
    ("modular_reduction_invariance", _suite_modular, 1e-10),
    ("integral_estimate_grid", _suite_integral, 1.0),
    ("ledger_monotonicity", _suite_ledger, 1.0),
)


@main.command()
@_common
def verify(manifest_path, out_dir, nodes, threads, seed):
    """Run the seeded self-check battery."""
    m = _load_manifest(manifest_path, "verify")
    blk = m.get("verify", {})
    seed = _resolve_seed(m, seed)
    trials = int(blk.get("trials", 400))
    report = []
    all_ok = True
    for name, fn, tol in _VERIFY_SUITES:
        rng = np.random.default_rng(seed)
        n = trials if name != "ledger_monotonicity" else min(trials, 40)
        try:
            checked, worst = fn(rng, n)
            passed = worst < tol
        except _NUMERIC_ERRORS as exc:
            checked, worst, passed = 0, math.inf, False
            click.echo("  %s raised: %s" % (name, exc))
        report.append({"suite": name, "checks": checked,
                       "max_defect": worst, "tolerance": tol,
                       "passed": passed})
        all_ok = all_ok and passed
        click.echo("%s %s (checks=%d, max_defect=%.3g)"
                   % ("PASS" if passed else "FAIL", name, checked, worst))
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "verify_report.json"),
                {"mode": "verify", "seed": seed, "trials": trials,
                 "version": __version__, "suites": report,
                 "passed": all_ok})
    if not all_ok:
        _fail(3, "numerical", "verification battery failed")


if __name__ == "__main__":
    main()
