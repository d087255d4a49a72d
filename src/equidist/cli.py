"""Manifest-driven command line front end.

Five subcommands: ledger (constant tables), schedule (direction and
window selection for translation tuples), correlate (horocycle
correlation experiments), fit (decay-exponent fits on existing CSVs),
and verify (a seeded self-check battery).  Each takes --manifest, --out,
--seed and --threads; correlate also takes --nodes.  Only correlate uses
--threads: its rows run on that many worker threads.

One driver runs every subcommand: it checks the manifest, resolves the
seed, calls the subcommand's body, writes the files the body returns
into --out and echoes its summary lines.  A body only computes; it
returns its files as text, or, as schedule does, as chunks that format
its columns one tuple at a time.

A manifest is read as UTF-8 text and handed to equidist._draft7.parse,
which parses strict JSON and checks it against the packaged schema; the
driver then matches its mode to the subcommand.  A refusal exits 2.
_draft7 is imported on the first manifest load, not with this module.

The module imports none of the layers: each body imports the layers it
runs when it is called.  A ledger run loads the constant ledger and no
numpy; a fit run loads no layer at all, since its body imports
equidist._fit, which reads the CSV with the csv module and fits in
integer arithmetic; schedule imports numpy, geometry, selection and
constants; correlate imports numpy, modular, wiener and geometry, whose
tuple_stats gives its decay parameter; and verify imports its suites
from equidist.suites.  The front end is the standard library's
argparse, which words usage errors.

Exit codes: 0 success, 2 manifest or file problems (a file that cannot
be read or written included), 3 numerical failures, failed window checks
and failed verify suites.  Errors are emitted as one-line JSON on stderr
so wrappers can parse them.  All CSV output uses 17-significant-digit
scientific notation and fixed row order, so re-running a manifest
reproduces the bytes exactly, regardless of the thread count.  Every
JSON output file is one line of strict JSON (RFC 8259) with sorted keys;
a NaN or infinite float is written as null, next to a log10 twin where
the value can read inf.
"""

import argparse
import json
import math
import os
import sys
from functools import partial
from itertools import islice

from . import __version__

_LOG10 = math.log(10.0)
# MemoryError: an allocation past what the machine holds, such as the
# arcs of a row at 10^14 nodes
_NUMERIC_ERRORS = (ValueError, ArithmeticError, KeyError, MemoryError)
# the schema's cap on verify.trials, also the longest time family
_MAX_FAMILY_ROWS = 100000
# stdout lines per write
_ECHO_LINES = 1024


def _fail(code, kind, message, path=None):
    payload = {"error": kind, "message": str(message)}
    if path is not None:
        payload["path"] = path
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    sys.exit(code)


def _read_text(path, what):
    """The file's text; exit 2 naming the file if it is missing, cannot
    be read or is not UTF-8."""
    if not os.path.isfile(path):
        _fail(2, "file-missing", "%s not found: %s" % (what, path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except ValueError as exc:
        _fail(2, "file-encoding", "%s is not UTF-8 text: %s (%s)"
              % (what, path, exc))
    except OSError as exc:
        _fail(2, "file-read", "%s cannot be read: %s (%s)"
              % (what, path, exc.strerror or exc))


def _load_manifest(path, expect_mode):
    """The manifest at path, as equidist._draft7.parse accepts it; a
    refusal, or a mode other than expect_mode, exits 2."""
    from ._draft7 import Refusal, parse

    try:
        obj = parse(_read_text(path, "manifest"))
    except Refusal as exc:
        _fail(2, "schema", *exc.args)
    if obj["mode"] != expect_mode:
        _fail(2, "schema", "manifest mode %r does not match subcommand %r"
              % (obj["mode"], expect_mode))
    return obj


def __getattr__(name):
    # the layers' public names, such as cli.correlation, stay reachable
    # without importing them with the module; cli.jsonschema serves only
    # the benchmark's self-test, which reads cli.jsonschema.validate
    if name == "jsonschema":
        import jsonschema
        return jsonschema
    import equidist
    if name in equidist.__all__:
        return getattr(equidist, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _write(path, text):
    """Write text, or an iterable of text chunks, to path."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)


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


def _json_value(obj):
    """obj as strict JSON (RFC 8259) on one line, with sorted keys: a NaN
    or infinite float is written as null.  Without an indent the json
    module encodes in C; only a refused float makes it walk obj."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError:
        return json.dumps(_finite_or_null(obj), sort_keys=True,
                          allow_nan=False)


def _json_text(payload):
    """payload as one line of strict JSON with a trailing newline; where
    a value can read inf, a log10 twin next to it keeps the value."""
    return _json_value(payload) + "\n"


def _csv_lines(header, rows):
    """Comma-separated table, one line at a time: %d for int and bool
    cells, %.16e for the rest, so the same rows always give the same
    bytes."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(("%d" if isinstance(v, int) else "%.16e") % v
                       for v in row) + "\n"


# {subcommand: (body, its (flag, floor, help) options)}, in help order
_COMMANDS = {}
_SEED = ("--seed", 0, "Override the manifest seed.")
_THREADS = ("--threads", 1, "Worker threads; only correlate uses them "
            "(default 1).")


def _subcommand(*flags):
    """Register body(block, seed=, threads=, manifest_path=, out_dir=,
    **options) as the subcommand of its name; flags are the integer
    options it takes besides --threads and --seed, each (flag, floor,
    help) with floor the manifest schema's minimum for the same setting,
    checked before the manifest is read.
    The body gets its mode's manifest block and returns ({file name:
    text or an iterable of text chunks}, an iterable of stdout lines (at
    least one), failure message or None).  Numerical errors exit 3
    before any output, so a body computes everything before it returns
    and its iterables only format; each file is written one chunk at a
    time and stdout in blocks of _ECHO_LINES lines.  A failure exits 3
    after the output."""
    def register(body):
        _COMMANDS[body.__name__] = body, flags
        return body
    return register


def _directory(path):
    """--out: any path but an existing file."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError("%r is a file, not a directory"
                                         % path)
    return path


def _parser(prog):
    def parser(make, **kwargs):
        # no -h, and no flag matches a prefix of its name
        new = make(add_help=False, allow_abbrev=False, **kwargs)
        new.add_argument("--help", action="help",
                         help="Show this message and exit.")
        return new

    top = parser(argparse.ArgumentParser, prog=prog, description=(
        "Correlation-bound ledgers and equidistribution experiments."))
    top.add_argument("--version", action="version",
                     version="equidist, version %s" % __version__,
                     help="Show the version and exit.")
    commands = top.add_subparsers(title="commands", dest="command",
                                  metavar="COMMAND", required=True)
    for name, (body, flags) in _COMMANDS.items():
        sub = parser(commands.add_parser, name=name, help=body.__doc__,
                     description=body.__doc__)
        sub.add_argument("--manifest", dest="manifest_path", required=True,
                         metavar="PATH", help="Manifest JSON path.")
        sub.add_argument("--out", dest="out_dir", default=".",
                         type=_directory, metavar="DIR",
                         help="Output directory.")
        for flag, _, text in (_THREADS, *flags, _SEED):
            sub.add_argument(flag, type=int, metavar="N", help=text)
    return top


def main(args=None, prog_name=None):
    """Run the subcommand that args (default sys.argv[1:]) name.  Returns
    on success; otherwise raises SystemExit with the exit code, after
    argparse's usage message or one JSON error line on stderr."""
    opts = vars(_parser(prog_name or "equidist").parse_args(args))
    body, flags = _COMMANDS[opts.pop("command")]
    for flag, floor, _ in (*flags, _SEED, _THREADS):
        if (value := opts[flag[2:]]) is not None and value < floor:
            _fail(2, "schema", "%s must be at least %d, got %d"
                  % (flag, floor, value))
    threads = opts.pop("threads") or 1
    seed = opts.pop("seed")
    mode = body.__name__
    manifest = _load_manifest(opts["manifest_path"], mode)
    if seed is None:
        seed = manifest.get("seed", 0)
    try:
        files, lines, failure = body(manifest.get(mode, {}), seed=int(seed),
                                     threads=threads, **opts)
    except _NUMERIC_ERRORS as exc:
        # a bare MemoryError has no message: name it
        _fail(3, "numerical", str(exc) or type(exc).__name__)
    path = out_dir = opts["out_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in files.items():
            path = os.path.join(out_dir, name)
            _write(path, text)
    except OSError as exc:
        _fail(2, "file-write", "output cannot be written: %s (%s)"
              % (path, exc.strerror or exc))
    lines = iter(lines)
    while block := list(islice(lines, _ECHO_LINES)):
        print("\n".join(block))
    if failure is not None:
        _fail(3, "numerical", failure)


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
    from .constants import AssumptionParams, bound_evaluate, build_ledger

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
        "ledger.csv": _csv_lines(
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


# schedule.csv columns
_SCHEDULE_COLUMNS = (
    "tuple_index", "r", "rho_r", "m_r", "M_r", "Delta_mult", "chosen_root",
    "i", "j", "l", "theta", "p", "q", "L", "log_L", "ok_scale_cap",
    "ok_group_lower", "ok_group_upper")


def _schedule_columns(action, tuples, theta_spec):
    """The schedule of tuples (entry lists) as columns in input order:
    the tuple_stats and select_direction results of their checked
    TupleStack, M_r, and {name: list} for the window columns: theta, one
    _window_row and L.  A refusal does not name its tuple."""
    from .constants import _exp
    from .geometry import TupleStack, select_direction, tuple_stats
    from .selection import _CHECKS, _window_row

    columns = ("theta", "p", "q", "log_L") + tuple(
        "%s_%s" % (part, name) for name in _CHECKS
        for part in ("lhs", "rhs", "ok")) + ("L",)
    stack = TupleStack(action, tuples)
    stats = tuple_stats(stack)
    log_M = stats.log_M_r.tolist()
    M = [_exp(v) for v in log_M]
    if math.inf in M:
        raise ValueError("log M_r = %r is past the float range, so theta = "
                         "1/M_r underflows and the image norms overflow; "
                         "no window is computed"
                         % log_M[M.index(math.inf)])
    sel = select_direction(stack)
    if sel.degenerate.any():
        raise ValueError("degenerate (all entries coincide); no window "
                         "exists")
    log_norms, offsets = sel.log_norms.tolist(), sel.offsets.tolist()
    window = {name: [] for name in columns}
    appends = [window[name].append for name in columns]
    for k, log_M_r in enumerate(log_M):
        theta = (math.exp(-log_M_r) if theta_spec == "auto"
                 else float(theta_spec))
        logs = log_norms[offsets[k]:offsets[k + 1]]
        p, q, log_L, *checks = _window_row(logs, [_exp(v) for v in logs],
                                           theta)
        for append, value in zip(appends, (theta, p, q, log_L,
                                           *(v for c in checks for v in c),
                                           math.exp(log_L))):
            append(value)
    return stats, sel, M, window


@_subcommand()
def schedule(blk, seed, **_):
    """Direction selection and window choice for translation tuples."""
    from .constants import _exp
    from .geometry import RootAction
    from .selection import _CHECKS

    theta_spec = blk.get("theta", "auto")
    spec = blk["action"]
    action = (RootAction.u_mn(spec["m"], spec["n"]) if "builtin" in spec
              else RootAction.from_json(spec))
    try:
        stats, sel, M, window = _schedule_columns(
            action, blk["tuples"], theta_spec)
    except _NUMERIC_ERRORS:
        # refuse for the first failing tuple in manifest order, by index.
        # Every check is per tuple, so a range fails when a tuple in it
        # fails alone: halve [lo, hi) until that tuple is left, and word
        # the refusal from its own run
        tuples = blk["tuples"]
        lo, hi = 0, len(tuples)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _schedule_columns(action, tuples[lo:mid], theta_spec)
            except _NUMERIC_ERRORS:
                hi = mid
            else:
                lo = mid
        if tuples:
            try:
                _schedule_columns(action, tuples[lo:lo + 1], theta_spec)
            except _NUMERIC_ERRORS as exc:
                raise ValueError("tuple %d: %s" % (lo, exc)) from None
        raise
    oks = [window["ok_" + name] for name in _CHECKS]
    ok_all = all(all(ok) for ok in oks)
    r = stats.r.tolist()

    csv_rows = zip(range(len(r)), r,
                   *(map(_exp, col.tolist()) for col in (
                       stats.log_rho_r, stats.log_m_r)), M,
                   map(_exp, stats.log_Delta_r.tolist()),
                   *(col.tolist() for col in (sel.chosen_root, sel.i, sel.j,
                                              sel.l)),
                   *(window[name] for name in ("theta", "p", "q", "L",
                                               "log_L")), *oks)

    def lines():
        yield ("schedule: %d tuples, window checks %s"
               % (len(r), "all passed" if ok_all else "FAILED"))
        for k, fields in enumerate(zip(r, window["p"], window["q"],
                                       window["L"])):
            yield "  tuple=%d r=%d (p,q)=(%d,%d) L=%.6g" % (k, *fields)

    def json_chunks():
        # the keys in sorted order, one tuple at a time
        yield ('{"action": %s, "mode": "schedule", "seed": %s, "tuples": ['
               % (_json_value(action.to_json()), _json_value(seed)))
        relabeling = sel.relabeling.tolist()
        log_norms = sel.log_norms.tolist()
        offsets = sel.offsets.tolist()
        checks = [(name, window["lhs_" + name], window["rhs_" + name])
                  for name in _CHECKS]
        for k, log_Delta_r in enumerate(stats.log_Delta_r.tolist()):
            lo, hi = offsets[k], offsets[k + 1]
            yield (", " if k else "") + _json_value({
                "tuple_index": k, "log_Delta_r": log_Delta_r,
                "relabeling": relabeling[lo:hi],
                "log_norms": log_norms[lo:hi],
                "checks": {name: {"lhs": lhs[k], "rhs": rhs[k]}
                           for name, lhs, rhs in checks}})
        yield '], "version": %s}\n' % _json_value(__version__)

    return {
        "schedule.csv": _csv_lines(_SCHEDULE_COLUMNS, csv_rows),
        "schedule.json": json_chunks(),
        "schedule.gp": _gnuplot(
            "window length against tuple index",
            ["logscale y", "xlabel 'tuple index'",
             "ylabel 'window length L'"],
            ["'schedule.csv' using 1:14 with points pt 7 title 'L'"]),
    }, lines(), None if ok_all else "window inequality check failed"


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


@_subcommand(("--nodes", 16, "Override nodes: the most points a row "
              "evaluates at once and the largest Farey set a row may "
              "enumerate."))
def correlate(blk, seed, threads, nodes, **_):
    """Run horocycle correlation experiments from a manifest."""
    from .geometry import TupleStack, tuple_stats
    from .modular import (_TIME_ACTION, BumpProfile, ConstantObservable,
                          EisensteinObservable, _check_rows, correlation,
                          fit_decay, s_norm_surrogate)
    from .wiener import TorusMeasure, wiener_norm

    sigma = TorusMeasure.from_json(blk["sigma"])
    observables = [
        ConstantObservable(float(p.get("value", 1.0)))
        if p["kind"] == "constant" else EisensteinObservable(
            BumpProfile(p["kind"], float(p["y_lo"]), float(p["y_hi"])))
        for p in blk["profiles"]]
    r = len(observables)
    time_rows = _expand_times(blk)
    n_nodes = int(nodes if nodes is not None else blk.get("nodes", 2 ** 14))
    # one refusal names the nodes that admit every row's Farey set
    _check_rows(observables, time_rows, n_nodes)
    d_add = tuple_stats(TupleStack(
        _TIME_ACTION, [[[t] for t in times] for times in time_rows]
    )).log_Delta_r.tolist()
    d_mult = [math.exp(d) for d in d_add]
    mu_product = math.prod(obs.mu for obs in observables)
    if not math.isfinite(mu_product):
        raise ValueError("mu_product, the product of the profiles' means "
                         "(%s), is not finite" % ", ".join(
                             "%g" % obs.mu for obs in observables))

    row_value = partial(correlation, sigma, observables, nodes=n_nodes)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            values = list(ex.map(row_value, time_rows))
    else:
        values = list(map(row_value, time_rows))
    # a value that is not finite has an error that is not finite; abs
    # raises on finite parts whose modulus is past the float range
    errors = []
    for times, val in zip(time_rows, values):
        try:
            errors.append(abs(val - mu_product))
        except OverflowError:
            errors.append(math.inf)
        if not math.isfinite(errors[-1]):
            raise ValueError("row t=(%s) is not finite: value %r, abs_error "
                             "%r (mu_product %r)" % (",".join(
                                 "%g" % t for t in times), val, errors[-1],
                                 mu_product))

    echo = {"mode": "correlate", "seed": seed, "version": __version__,
            "sigma": sigma.to_json(), "profiles": blk["profiles"],
            "times": time_rows, "nodes": n_nodes,
            "mu_product": mu_product}
    bounds = None
    if "bound" in blk:
        from .constants import AssumptionParams, bound_evaluate, build_ledger

        bparams = AssumptionParams.from_json(blk["bound"]["params"])
        bmode = "theorem-%s" % blk["bound"].get("theorem", "A")
        bled = build_ledger(bparams, r, mode=bmode)
        d_r = bled.row(r).d_r
        surrogate_order = min(d_r, 4)
        s_norms = [s_norm_surrogate(obs, surrogate_order)
                   for obs in observables]
        w_norm = wiener_norm(sigma)
        bounds = [bound_evaluate(bled, r, d, w_norm, s_norms)
                  for d in d_mult]
        echo["bound"] = {"mode": bled.mode, "d_r": d_r,
                         "surrogate_order": surrogate_order,
                         "wiener_norm": w_norm, "s_norms": s_norms,
                         "values": [b.value for b in bounds],
                         "log10_values": [b.log_value / _LOG10
                                          for b in bounds],
                         "threshold_ok": [b.threshold_ok for b in bounds]}

    lines = ["correlate: r=%d rows=%d nodes=%d mu_product=%.8g"
             % (r, len(time_rows), n_nodes, mu_product)]
    for k, (times, d, err) in enumerate(zip(time_rows, d_mult, errors)):
        lines.append("  t=(%s) Delta=%.6g measured_err=%.6g"
                     % (",".join("%g" % t for t in times), d, err))
        if bounds is not None:
            lines[-1] += " bound=%.6g" % bounds[k].value
    if bounds is not None:
        exceeded = sum(b.value < err for b, err in zip(bounds, errors))
        lines.append("  bound check (soft): %d of %d rows exceed the bound"
                     % (exceeded, len(time_rows)))
    pos = [(d, err) for d, err in zip(d_mult, errors) if err > 0.0]
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
        "correlate.csv": _csv_lines(
            ["r"] + ["t_%d" % (k + 1) for k in range(r)]
            + ["Delta_add", "Delta_mult", "value_re", "value_im",
               "mu_product", "abs_error", "N_nodes"],
            [(r, *times, da, dm, val.real, val.imag, mu_product, err,
              n_nodes)
             for times, da, dm, val, err in zip(time_rows, d_add, d_mult,
                                                values, errors)]),
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
def fit(blk, seed, manifest_path, out_dir, **_):
    """Fit a power-law decay to columns of an existing CSV."""
    from ._fit import fit_decay, read_columns

    csv_path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)),
                            blk["input_csv"])
    x_col = blk.get("x_column", "Delta_mult")
    y_col = blk.get("y_column", "abs_error")
    xs, ys = read_columns(_read_text(csv_path, "input CSV"), x_col, y_col,
                          csv_path)
    result = fit_decay(xs, ys)
    n_points = len(xs)
    lines = ["fit: exponent=%.6g prefactor=%.6g residual=%.6g n=%d"
             % (result.exponent, result.prefactor, result.residual,
                n_points)]
    return {
        "fit.json": _json_text(
            {"mode": "fit", "seed": seed, "version": __version__,
             "input_csv": blk["input_csv"], "x_column": x_col,
             "y_column": y_col, "n_points": n_points,
             "exponent": result.exponent, "prefactor": result.prefactor,
             "residual": result.residual}),
        "fit.gp": _gnuplot(
            "decay fit over the source table (log-log)",
            ["logscale xy", "xlabel '%s'" % x_col, "ylabel '%s'" % y_col],
            ["'%s' using '%s':'%s' with points pt 7 title 'data'"
             % (os.path.relpath(csv_path, out_dir), x_col, y_col)], result),
    }, lines, None


@_subcommand()
def verify(blk, seed, **_):
    """Run the seeded self-check battery."""
    import numpy as np

    from .suites import _VERIFY_SUITES

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
