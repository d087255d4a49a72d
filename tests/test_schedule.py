"""The columnar schedule against the record-based one it replaced.

reference_schedule is the schedule subcommand as it was when it built
one record dict per tuple, one tuple at a time, and encoded the whole
schedule.json document at once.  The columnar schedule must give the same schedule.csv,
schedule.json and stdout bytes, and the same refusals, on every
manifest; and its memory must not grow back to the records' size.
"""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Runner
from equidist import __version__, cli, geometry
from equidist.cli import _NUMERIC_ERRORS, _gnuplot, main
from equidist.constants import _exp
from equidist.geometry import (RootAction, TupleStack, select_direction,
                               tuple_stats)
from equidist.selection import choose_window

_SCHEDULE_COLUMNS = (
    "tuple_index", "r", "rho_r", "m_r", "M_r", "Delta_mult", "chosen_root",
    "i", "j", "l", "theta", "p", "q", "L", "log_L", "ok_scale_cap",
    "ok_group_lower", "ok_group_upper")
_SCHEDULE_JSON_FIELDS = ("tuple_index", "entries", "log_Delta_r",
                         "relabeling", "log_norms", "checks")


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            ("%d" if isinstance(v, int) else "%.16e") % v
            for v in row))
    return "\n".join(lines) + "\n"


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _json_text(payload):
    return json.dumps(_finite_or_null(payload), sort_keys=True,
                      allow_nan=False) + "\n"


def _schedule_record(action, idx, entries, theta_spec):
    """The record of one tuple, from a stack of one; a refusal raises."""
    stack = TupleStack(action, [entries])
    (r,) = stack.r.tolist()
    stats = tuple_stats(stack)
    log_rho_r, log_m_r, log_M_r, log_Delta_r = (
        float(getattr(stats, name)[0])
        for name in ("log_rho_r", "log_m_r", "log_M_r", "log_Delta_r"))
    if _exp(log_M_r) == math.inf:
        raise ValueError("log M_r = %r is past the float range, so theta = "
                         "1/M_r underflows and the image norms overflow; "
                         "no window is computed" % log_M_r)
    sel = select_direction(stack)
    if sel.degenerate[0]:
        raise ValueError("degenerate (all entries coincide); no window "
                         "exists")
    theta = (math.exp(-log_M_r) if theta_spec == "auto"
             else float(theta_spec))
    log_norms = sel.log_norms.tolist()
    win = choose_window(log_norms, [_exp(v) for v in log_norms], theta)
    return dict(
        tuple_index=idx, r=r, rho_r=_exp(log_rho_r), m_r=_exp(log_m_r),
        M_r=_exp(log_M_r), Delta_mult=_exp(log_Delta_r),
        **{name: int(getattr(sel, name)[0])
           for name in ("chosen_root", "i", "j", "l")},
        theta=theta, p=win.p, q=win.q, L=win.L, log_L=win.log_L,
        **{"ok_" + name: ok for name, (_, _, ok) in win.checks.items()},
        entries=stack[0].tolist(), log_Delta_r=log_Delta_r,
        relabeling=sel.relabeling.tolist(), log_norms=log_norms,
        checks={name: {"lhs": lhs, "rhs": rhs}
                for name, (lhs, rhs, _) in win.checks.items()})


def reference_schedule(blk, seed):
    """(files, stdout lines, failure) of the record-based schedule body;
    a refusal raises, naming the first failing tuple."""
    theta_spec = blk.get("theta", "auto")
    spec = blk["action"]
    action = (RootAction.u_mn(spec["m"], spec["n"]) if "builtin" in spec
              else RootAction.from_json(spec))
    records = []
    for idx, entries in enumerate(blk["tuples"]):
        try:
            records.append(_schedule_record(action, idx, entries,
                                            theta_spec))
        except _NUMERIC_ERRORS as exc:
            raise ValueError("tuple %d: %s" % (idx, exc)) from None
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


def reference_run(manifest):
    """(exit code, files as bytes, stdout, stderr) of the record-based
    schedule, as the CLI driver reports a body's outcome."""
    try:
        files, lines, failure = reference_schedule(
            manifest["schedule"], manifest.get("seed", 0))
    except _NUMERIC_ERRORS as exc:
        files, lines, failure = {}, None, exc
    stdout = "" if lines is None else "\n".join(lines) + "\n"
    stderr = "" if failure is None else json.dumps(
        {"error": "numerical", "message": str(failure)}, sort_keys=True) + "\n"
    return (0 if failure is None else 3,
            {name: text.encode() for name, text in files.items()},
            stdout, stderr)


def cli_run(manifest):
    """The same four outputs from the columnar schedule."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        out = Path(tmp) / "out"
        res = Runner.invoke(main, ["schedule", "--manifest", str(path),
                                   "--out", str(out)])
        files = ({f.name: f.read_bytes() for f in out.iterdir()}
                 if out.is_dir() else {})
    return res.exit_code, files, res.output, res.stderr


@st.composite
def _entry(draw, action, integral):
    """One translation: balanced and nonnegative for a u_mn action,
    nonnegative for a custom one; integers make ties common."""
    if "builtin" in action:
        m, n = action["m"], action["n"]
        if integral:
            left = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
            cuts = sorted(draw(st.lists(st.integers(0, sum(left)),
                                        min_size=n - 1, max_size=n - 1)))
            return left + [b - a for a, b in
                           zip([0] + cuts, cuts + [sum(left)])]
        left = draw(st.lists(st.floats(0.0, 12.0), min_size=m, max_size=m))
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
        total = sum(left)
        return left + [total * w / sum(weights) for w in weights]
    coords = st.integers(0, 9) if integral else st.floats(0.0, 8.0)
    return draw(st.lists(coords, min_size=action["dim_t"],
                         max_size=action["dim_t"]))


@st.composite
def _action(draw):
    if draw(st.booleans()):
        return {"builtin": "u_mn", "m": draw(st.integers(1, 3)),
                "n": draw(st.integers(1, 3))}
    dim = draw(st.integers(1, 4))
    coeffs = st.lists(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0, 3.0]),
                      min_size=dim, max_size=dim)
    return {"dim_t": dim, "roots": draw(st.lists(coeffs, min_size=1,
                                                 max_size=5))}


def _spoil(entries, kind):
    """A copy of a tuple that the schedule refuses: all entries equal, a
    negative coordinate, or a short entry."""
    if kind == "degenerate":
        return [entries[0]] * len(entries)
    entries = [list(e) for e in entries]
    if kind == "negative":
        entries[-1][0] = -1.0
    else:
        entries[-1] = entries[-1][:-1] or [1.0, 1.0]
    return entries


@st.composite
def _manifest(draw):
    """A schedule manifest: 1 to 14 tuples of 2 to 8 entries, integral or
    real, some with an entry repeated (tied image norms), and up to two
    spoilt ones; theta auto or a number."""
    action = draw(_action())
    integral = draw(st.booleans())
    tuples = []
    for _ in range(draw(st.integers(1, 14))):
        r = draw(st.integers(2, 8))
        entries = [draw(_entry(action, integral)) for _ in range(r)]
        if r > 2 and draw(st.booleans()):
            entries[draw(st.integers(1, r - 1))] = entries[0]
        tuples.append(entries)
    for kind in draw(st.sampled_from([(), (), (), ("degenerate",),
                                      ("negative",), ("short",),
                                      ("short", "negative"),
                                      ("negative", "degenerate")])):
        k = draw(st.integers(0, len(tuples) - 1))
        tuples[k] = _spoil(tuples[k], kind)
    manifest = {"mode": "schedule",
                "schedule": {"action": action, "tuples": tuples,
                             "theta": draw(st.sampled_from(
                                 ["auto", "auto", 0.9, 0.5, 1e-3]))}}
    if draw(st.booleans()):
        manifest["seed"] = draw(st.integers(0, 99))
    return manifest


@settings(max_examples=150, deadline=None)
@given(_manifest(), st.integers(1, 4))
def test_columns_give_the_records_bytes(manifest, chunk):
    # a small _CHUNK cuts every length group into several stacked passes
    with mock.patch.object(geometry, "_CHUNK", chunk):
        assert cli_run(manifest) == reference_run(manifest)


def test_columns_give_the_records_bytes_past_a_chunk():
    rng = np.random.default_rng(20240)
    tuples = []
    for r in rng.integers(2, 4, size=2 * geometry._CHUNK + 300).tolist():
        left = rng.integers(0, 9, size=(r, 2))
        left[:, 0] += 9 * np.arange(r)  # distinct entries
        tuples.append(np.concatenate(
            [left, left.sum(axis=1, keepdims=True)], axis=1).tolist())
    manifest = {"mode": "schedule", "seed": 5, "schedule": {
        "action": {"builtin": "u_mn", "m": 2, "n": 1}, "tuples": tuples}}
    code, files, stdout, stderr = cli_run(manifest)
    assert code == 0, stderr
    assert (code, files, stdout, stderr) == reference_run(manifest)


def _bench_manifest(rng, count):
    """count tuples of 2 to 8 balanced u_mn(2, 3) entries."""
    tuples = []
    for _ in range(count):
        r = int(rng.integers(2, 9))
        total = rng.uniform(0.5, 12.0, size=(r, 1))
        tuples.append(np.concatenate(
            [rng.dirichlet(np.ones(2), size=r) * total,
             rng.dirichlet(np.ones(3), size=r) * total], axis=1).tolist())
    return {"mode": "schedule", "seed": 3, "schedule": {
        "action": {"builtin": "u_mn", "m": 2, "n": 3}, "tuples": tuples,
        "theta": "auto"}}


# tracemalloc peak of the 3000-tuple run below, in MB: 1.25 times the
# columnar schedule's 9.2 MB (the record-based one peaked at 21.6 MB)
_PEAK_BOUND_MB = 11.5


def test_schedule_memory_stays_columnar():
    manifest = _bench_manifest(np.random.default_rng(3), 3000)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        del manifest
        argv = ["schedule", "--manifest", str(path), "--out", tmp]
        tracemalloc.start()
        try:
            res = Runner.invoke(main, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert res.exit_code == 0, res.output
    assert peak / 2 ** 20 < _PEAK_BOUND_MB, peak / 2 ** 20


def test_refusal_halves_to_the_failing_tuple():
    # only the last of 3000 tuples fails alone (a negative entry leaves
    # the cone): the refusal finds it in about log2(n) stacked passes,
    # not one single-tuple pass per tuple before it
    manifest = _bench_manifest(np.random.default_rng(3), 3000)
    tuples = manifest["schedule"]["tuples"]
    tuples[-1] = [[-v for v in row] for row in tuples[-1]]
    with mock.patch.object(cli, "_schedule_columns",
                           wraps=cli._schedule_columns) as passes:
        got = cli_run(manifest)
    assert got[0] == 3 and "tuple 2999: " in got[3], got[3]
    assert got == reference_run(manifest)
    assert passes.call_count <= 2 * math.ceil(math.log2(len(tuples))) + 2
