"""Manifest-driven command line front end.

Five subcommands: ledger (constant tables), schedule (direction and
window selection for translation tuples), correlate (horocycle
correlation experiments), fit (decay-exponent fits on existing CSVs),
and verify (a seeded self-check battery).  Each takes --manifest, --out,
--seed and --threads; correlate also takes --nodes.

One driver runs every subcommand: it checks the manifest, resolves the
seed, calls the subcommand's body, writes the files the body returns
into --out and echoes its summary lines.  A body only computes; it
returns its files as text, or, as schedule does, as chunks that format
its columns one tuple at a time.

A manifest is parsed as strict JSON (NaN, Infinity and number literals
past the float range, such as 1e400 or a 400-digit integer, are refused)
and checked against the packaged draft-7 JSON schema by the compiled
check, a predicate built from the schema at import.  It decides
acceptance.  jsonschema is imported only when it refuses, to word the
refusal's message and path; a manifest jsonschema accepts still runs.

The module imports only the constant ledger among the layers, so a
ledger run loads no numpy.  The other bodies import numpy and the layers
they run when they are called, and verify imports its suites from
equidist.suites.

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
import operator
import os
import sys
from importlib import resources
from itertools import islice

import click

from . import __version__
from .constants import AssumptionParams, _exp, bound_evaluate, build_ledger

_LOG10 = math.log(10.0)
_NUMERIC_ERRORS = (ValueError, ArithmeticError, KeyError)
# the schema's cap on verify.trials, also the longest time family
_MAX_FAMILY_ROWS = 100000
# stdout lines per write
_ECHO_LINES = 1024


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


# ------------------------------------------------------ the compiled check
#
# A draft-7 schema compiles to one predicate over parsed JSON.  Each
# keyword becomes a test that passes every instance its keyword does not
# apply to, as in draft 7; a schema passes an instance that passes all of
# its tests.

def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# draft-7 types: a bool is never a number, an integral float is an integer
_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: _is_number(x) and (isinstance(x, int)
                                            or x.is_integer()),
    "null": lambda x: x is None,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _equal(a, b):
    """Draft-7 equality, as enum and const use it: True and 1 differ,
    1 and 1.0 do not."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k])
                                            for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _all(tests):
    if len(tests) == 1:
        return tests[0]

    def test(x):
        for t in tests:
            if not t(x):
                return False
        return True
    return test


def _enum_test(values, schema, sub):
    return lambda x: any(_equal(x, v) for v in values)


def _const_test(value, schema, sub):
    return lambda x: _equal(x, value)


def _required_test(names, schema, sub):
    return lambda x: not isinstance(x, dict) or all(n in x for n in names)


def _properties_test(props, schema, sub):
    tests = [(name, sub(s)) for name, s in props.items()]

    def test(x):
        if isinstance(x, dict):
            for name, t in tests:
                if name in x and not t(x[name]):
                    return False
        return True
    return test


def _additional_test(extra, schema, sub):
    if extra is not False:
        raise ValueError("additionalProperties %r has no compiled check"
                         % (extra,))
    known = frozenset(schema.get("properties", ()))
    return lambda x: not isinstance(x, dict) or known.issuperset(x)


def _items_test(items, schema, sub):
    if isinstance(items, list):
        raise ValueError("positional items have no compiled check")
    each = sub(items)
    return lambda x: not isinstance(x, list) or all(map(each, x))


def _length_test(within):
    return lambda n, schema, sub: (
        lambda x: not isinstance(x, list) or within(len(x), n))


def _bound_test(fails):
    """A numeric bound; fails is the comparison that refuses, as in
    jsonschema."""
    return lambda bound, schema, sub: (
        lambda x: not _is_number(x) or not fails(x, bound))


def _one_of_test(schemas, schema, sub):
    tests = [sub(s) for s in schemas]
    return lambda x: sum(t(x) for t in tests) == 1


def _not_test(negated, schema, sub):
    test = sub(negated)
    return lambda x: not test(x)


def _if_test(cond, schema, sub):
    test, then = sub(cond), sub(schema.get("then", True))
    return lambda x: not test(x) or then(x)


_KEYWORDS = {
    "type": lambda name, schema, sub: _TYPES[name],
    "enum": _enum_test,
    "const": _const_test,
    "required": _required_test,
    "properties": _properties_test,
    "additionalProperties": _additional_test,
    "items": _items_test,
    "minItems": _length_test(operator.ge),
    "maxItems": _length_test(operator.le),
    "minimum": _bound_test(operator.lt),
    "maximum": _bound_test(operator.gt),
    "exclusiveMinimum": _bound_test(operator.le),
    "exclusiveMaximum": _bound_test(operator.ge),
    "allOf": lambda schemas, schema, sub: _all([sub(s) for s in schemas]),
    "oneOf": _one_of_test,
    "not": _not_test,
    "if": _if_test,
    "then": None,  # read by if
    "$schema": None, "title": None, "definitions": None,
}


def _compile(schema, root):
    """The predicate of schema, a subschema of root.  $ref takes a local
    JSON pointer, such as #/definitions/params; a keyword outside
    _KEYWORDS raises ValueError, so no check is skipped unseen."""
    if isinstance(schema, bool):
        return lambda x: schema
    if "$ref" in schema:
        # draft 7 ignores the siblings of $ref
        ref = schema["$ref"]
        if not ref.startswith("#/"):
            raise ValueError("$ref %r has no compiled check; only local "
                             "ones do" % ref)
        target = root
        for part in ref[2:].split("/"):
            target = target[part]
        return _compile(target, root)
    unknown = sorted(set(schema) - set(_KEYWORDS))
    if unknown:
        raise ValueError("schema keywords %s have no compiled check"
                         % ", ".join(unknown))
    return _all([_KEYWORDS[key](value, schema,
                                lambda s: _compile(s, root))
                 for key, value in schema.items()
                 if _KEYWORDS[key] is not None])


def _compiled_schema():
    schema = _schema()
    return _compile(schema, schema)


_MANIFEST_CHECK = _compiled_schema()


def _refuse_constant(token):
    raise ValueError("%s is not a JSON number" % token)


def _finite_float(token):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError("%s is past the float range" % token)
    return value


def _finite_int(token):
    _finite_float(token)
    return int(token)


def _load_manifest(path, expect_mode):
    """The manifest, parsed as strict JSON with every number finite, and
    checked against the packaged schema.  The compiled check decides;
    jsonschema, imported only then, words a refusal, and a manifest it
    accepts runs."""
    text = _read_text(path, "manifest")
    try:
        obj = json.loads(text, parse_constant=_refuse_constant,
                         parse_float=_finite_float, parse_int=_finite_int)
    except ValueError as exc:
        _fail(2, "schema", "manifest is not valid JSON: %s" % exc)
    if not _MANIFEST_CHECK(obj):
        import jsonschema
        try:
            jsonschema.validate(obj, _schema())
        except jsonschema.ValidationError as exc:
            _fail(2, "schema", exc.message,
                  path=[str(p) for p in exc.absolute_path])
    if obj["mode"] != expect_mode:
        _fail(2, "schema", "manifest mode %r does not match subcommand %r"
              % (obj["mode"], expect_mode))
    return obj


def __getattr__(name):
    # cli.jsonschema and the layers' public names, such as cli.correlation,
    # stay reachable without importing them with the module
    if name == "jsonschema":
        import jsonschema
        return jsonschema
    import equidist
    if name in equidist.__all__:
        return getattr(equidist, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


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


def _csv_text(header, rows):
    """The comma-separated table of _csv_lines as one text."""
    return "".join(_csv_lines(header, rows))


@click.group()
@click.version_option(version=__version__, prog_name="equidist")
def main():
    """Correlation-bound ledgers and equidistribution experiments."""


def _subcommand(*options):
    """Register body(block, seed=, threads=, manifest_path=, **options) as
    the subcommand of its name.  It gets its mode's manifest block and
    returns ({file name: text or an iterable of text chunks}, an iterable
    of stdout lines (at least one), failure message or None).  Numerical
    errors exit 3 before any output, so a body computes everything
    before it returns and its iterables only format; each file is
    written one chunk at a time and stdout in blocks of _ECHO_LINES
    lines.  A failure exits 3 after the output."""
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
            lines = iter(lines)
            while block := list(islice(lines, _ECHO_LINES)):
                click.echo("\n".join(block))
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


# schedule.csv columns
_SCHEDULE_COLUMNS = (
    "tuple_index", "r", "rho_r", "m_r", "M_r", "Delta_mult", "chosen_root",
    "i", "j", "l", "theta", "p", "q", "L", "log_L", "ok_scale_cap",
    "ok_group_lower", "ok_group_upper")


def _schedule_columns(action, tuples, theta_spec):
    """The schedule of tuples (entry lists) as columns in input order:
    the checked TupleStack, its tuple_stats and select_direction results,
    M_r, and {name: list} for the window columns: theta, one _window_row
    and L.  A refusal does not name its tuple."""
    from .geometry import TupleStack, select_direction, tuple_stats
    from .selection import _CHECKS, _window_row

    columns = ("theta", "p", "q", "log_L") + tuple(
        "%s_%s" % (part, name) for name in _CHECKS
        for part in ("lhs", "rhs", "ok")) + ("L",)
    stack = TupleStack(tuples, domain_tag=action.cone_tag)
    stats = tuple_stats(action, stack)
    log_M = stats.log_M_r.tolist()
    M = [_exp(v) for v in log_M]
    if math.inf in M:
        raise ValueError("log M_r = %r is past the float range, so theta = "
                         "1/M_r underflows and the image norms overflow; "
                         "no window is computed"
                         % log_M[M.index(math.inf)])
    sel = select_direction(action, stack)
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
    return stack, stats, sel, M, window


@_subcommand()
def schedule(blk, seed, **_):
    """Direction selection and window choice for translation tuples."""
    from .geometry import RootAction
    from .selection import _CHECKS

    theta_spec = blk.get("theta", "auto")
    spec = blk["action"]
    action = (RootAction.u_mn(spec["m"], spec["n"]) if "builtin" in spec
              else RootAction.from_json(spec))
    try:
        stack, stats, sel, M, window = _schedule_columns(
            action, blk["tuples"], theta_spec)
    except _NUMERIC_ERRORS:
        # refuse for the first failing tuple in manifest order, by index
        for idx, entries in enumerate(blk["tuples"]):
            try:
                _schedule_columns(action, [entries], theta_spec)
            except _NUMERIC_ERRORS as exc:
                raise ValueError("tuple %d: %s" % (idx, exc)) from None
        raise
    oks = [window["ok_" + name] for name in _CHECKS]
    ok_all = all(all(ok) for ok in oks)
    r = stack.r.tolist()

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
                "tuple_index": k, "entries": stack[k].tolist(),
                "log_Delta_r": log_Delta_r,
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


@_subcommand(click.option("--nodes", type=int, default=None,
                          callback=_at_least(16),
                          help="Override the quadrature node count."))
def correlate(blk, seed, threads, nodes, **_):
    """Run horocycle correlation experiments from a manifest."""
    from concurrent.futures import ThreadPoolExecutor

    from .modular import (BumpProfile, ConstantObservable,
                          EisensteinObservable, HorocycleMeasure, correlation,
                          delta_statistics, fit_decay, s_norm_surrogate)
    from .wiener import TorusMeasure, wiener_norm

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
    import numpy as np

    from .modular import fit_decay

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
