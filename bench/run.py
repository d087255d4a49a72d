"""Outside-in benchmark of the equidist CLI.

    python3 bench/run.py --workload corr-r2-haar --seed 1 --seconds 34 --trace 0

Run from the repository root.  With --trace 0 every iteration runs the
workload's generated manifests through `python -m equidist` in fresh
processes (--threads 1) and the end-to-end metrics are reported.  With
--trace 1 the CLI is called in-process, alternating untraced and traced
iterations, and the per-layer metrics are reported.  Both modes check
every output.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
input properties, CSV digests and known failures.  See bench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT as ROOT_SPAN, Layers, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 5
IMPORT_PACKAGES = ("numpy", "scipy", "click", "jsonschema", "equidist")
# end-to-end metric -> unit, in the order of BENCHMARK.json
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ops_ok_frac": "ratio"}


def _child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def _spawn(argv, stdout_path, stderr_path):
    """Run one child to completion: (exit code, wall s, max RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _cli_argv(inv, out_dir, threads=1):
    return [sys.executable, "-m", "equidist", inv.command,
            "--manifest", os.path.join(out_dir, "manifest.json"),
            "--out", out_dir, "--threads", str(threads)]


def _measure_import(scratch):
    code = ("import time; t = time.perf_counter(); import equidist.cli; "
            "print(repr(time.perf_counter() - t))")
    out = os.path.join(scratch, "setup.out")
    rc, _, _ = _spawn([sys.executable, "-c", code], out,
                      os.path.join(scratch, "setup.err"))
    if rc != 0:
        raise RuntimeError("import equidist.cli failed:\n"
                           + _read(os.path.join(scratch, "setup.err")))
    return float(_read(out).strip())


def _import_breakdown(scratch):
    """Self import time per package, from -X importtime in a fresh child."""
    err = os.path.join(scratch, "importtime.err")
    rc, _, _ = _spawn([sys.executable, "-X", "importtime", "-c",
                       "import equidist.cli"],
                      os.path.join(scratch, "importtime.out"), err)
    if rc != 0:
        raise RuntimeError("import equidist.cli failed:\n" + _read(err))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in _read(err).splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in totals:
            totals[top] += int(self_us) / 1e6
    return totals


class Run:
    """State shared by both modes: inputs, checks and failure counts."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.invocations = workloads.generate(workload, seed)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = {}
        self.digests = None
        self.output_bytes = None
        self.reference_csv = {}

    def fresh_dirs(self, name):
        d = os.path.join(self.work, name)
        shutil.rmtree(d, ignore_errors=True)
        return workloads.write_manifests(self.invocations, d)

    def record(self, inv, code, stderr, out_dir):
        problems = checks.check_invocation(inv, code, stderr, out_dir)
        self.attempted += 1
        kind = checks.classify(self.workload, inv.label, problems)
        if kind != "ok":
            self.failed += 1
        if kind == "known":
            self.known[inv.label] = {
                "problems": problems,
                "cause": checks.KNOWN_FAILURES[(self.workload,
                                                inv.label)][1]}
        elif kind == "unexpected":
            self.unexpected.append({"invocation": inv.label,
                                    "problems": problems})

    def finish_iteration(self, out_dirs):
        """Digest the CSVs; every iteration must reproduce the first."""
        digests = checks.csv_digests(self.invocations, out_dirs)
        if self.digests is None:
            self.digests = digests
            self.output_bytes = sum(
                os.path.getsize(os.path.join(d, name))
                for d in out_dirs for name in os.listdir(d)
                if name != "manifest.json")
            for inv, d in zip(self.invocations, out_dirs):
                path = os.path.join(d, "correlate.csv")
                if inv.command == "correlate" and os.path.isfile(path):
                    with open(path, "rb") as fh:
                        self.reference_csv[inv.label] = fh.read()
        elif digests != self.digests:
            self.unexpected.append({"invocation": "*", "problems": [
                "CSV bytes differ between iterations of one input"]})

    def check_threads(self):
        """Untimed: --threads 2 correlate CSVs equal the --threads 1 ones."""
        out_dirs = self.fresh_dirs("threads2")
        for inv, d in zip(self.invocations, out_dirs):
            if inv.command != "correlate":
                continue
            code, _, _ = _spawn(_cli_argv(inv, d, threads=2),
                                os.path.join(d, "stdout"),
                                os.path.join(d, "stderr"))
            problems = checks.check_invocation(
                inv, code, _read(os.path.join(d, "stderr")), d)
            with open(os.path.join(d, "correlate.csv"), "rb") as fh:
                if fh.read() != self.reference_csv.get(inv.label):
                    problems.append("--threads 2 CSV differs from "
                                    "--threads 1")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.unexpected.append({"invocation": inv.label + "@2",
                                        "problems": problems})

    def info(self, samples):
        return {"workload": self.workload, "samples": samples,
                "inputs": workloads.input_properties(self.invocations),
                "output_bytes": self.output_bytes,
                "csv_sha256": self.digests, "known_failures": self.known,
                "unexpected_failures": self.unexpected}


def _keep_going(t_start, seconds, durations):
    # start another iteration only if it should end within the budget
    return (time.perf_counter() - t_start + durations[-1]) <= seconds


def run_untraced(run, seconds):
    _measure_import(run.work)  # warm the file cache and bytecode
    setup = [_measure_import(run.work) for _ in range(SETUP_RUNS)]
    walls, rss = [], []
    t_start = time.perf_counter()
    while not walls or _keep_going(t_start, seconds, walls):
        out_dirs = run.fresh_dirs("iter")
        wall, peak = 0.0, 0.0
        for inv, d in zip(run.invocations, out_dirs):
            code, w, m = _spawn(_cli_argv(inv, d), os.path.join(d, "stdout"),
                                os.path.join(d, "stderr"))
            wall += w
            peak = max(peak, m)
            run.record(inv, code, _read(os.path.join(d, "stderr")), d)
        walls.append(wall)
        rss.append(peak)
        run.finish_iteration(out_dirs)
    n_iter = len(walls)
    run.check_threads()
    values = {"wall_s": statistics.median(walls),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": statistics.median(rss),
              "ops_ok_frac": 1.0 - run.failed / run.attempted}
    extra = {"wall_s_all": walls, "setup_s_all": setup}
    points = workloads.input_properties(run.invocations)["points"]
    if points:
        extra["points_per_s"] = points / values["wall_s"]
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in END_TO_END.items()}
    return metrics, n_iter, extra


def _call_cli(cli_module, inv, out_dir):
    """One in-process CLI call: (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_module.main(args=_cli_argv(inv, out_dir)[3:],
                            prog_name="equidist")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation, not a bench bug
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


LAYER_METRICS = (
    ("modular.reduce_arrays", ("self_s", "calls", "points")),
    ("modular.eisenstein", ("self_s", "points")),
    ("wiener.density", ("self_s", "calls", "points")),
    ("modular.correlation", ("self_s", "calls")),
    ("modular.mu_integral", ("self_s",)),
    ("modular.s_norm_surrogate", ("self_s",)),
    ("modular.fit_decay", ("self_s",)),
    ("geometry.tuple_stats", ("self_s", "calls")),
    ("geometry.select_direction", ("self_s", "calls")),
    ("selection.choose_window", ("self_s", "calls")),
    ("constants.build_ledger", ("self_s", "calls")),
    ("constants.bound_evaluate", ("self_s", "calls")),
    ("wiener.checks", ("self_s",)),
)


def run_traced(run, seconds, spans_path):
    sys.path.insert(0, SRC)
    from equidist import cli

    tracer = Tracer()
    layers = Layers(tracer)

    def iteration(traced):
        out_dirs = run.fresh_dirs("iter")
        first = len(tracer.spans)
        if traced:
            layers.install()
        t0 = time.perf_counter()
        try:
            for inv, d in zip(run.invocations, out_dirs):
                if traced:
                    tracer.begin(ROOT_SPAN)
                try:
                    code, stderr = _call_cli(cli, inv, d)
                finally:
                    if traced:
                        tracer.end()
                run.record(inv, code, stderr, d)
        finally:
            total = time.perf_counter() - t0
            layers.uninstall()
        run.finish_iteration(out_dirs)
        return total, tracer.summary(first) if traced else None

    plain, traced = [], []
    t_start = time.perf_counter()
    while not traced or _keep_going(t_start, seconds,
                                    [plain[-1] + traced[-1][0]]):
        plain.append(iteration(False)[0])
        traced.append(iteration(True))
    run.check_threads()
    imports = _import_breakdown(run.work)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "points"],
                   "spans": tracer.spans}, fh)

    def med(name, field):
        return statistics.median(s.get(name, {}).get(field, 0)
                                 for _, s in traced)

    values = {}
    for name, fields in LAYER_METRICS:
        for field in fields:
            if field == "self_s":
                values[name + ".self_s"] = (med(name, field), "s")
            else:
                values["%s.%s" % (name, field)] = (int(med(name, field)),
                                                   "count")
    values["cli.validate_s"] = (med("cli.validate", "self_s"), "s")
    values["cli.self_s"] = (med(ROOT_SPAN, "self_s"), "s")
    values["cli.output_bytes"] = (run.output_bytes, "bytes")
    for pkg in IMPORT_PACKAGES:
        values["cli.import.%s_s" % pkg] = (imports[pkg], "s")
    traced_total = med(ROOT_SPAN, "total_s")
    values["trace.total_s"] = (traced_total, "s")
    values["trace.overhead_s"] = (traced_total - statistics.median(plain),
                                  "s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, len(traced), {"untraced_s_all": plain,
                                  "traced_s_all": [t for t, _ in traced]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "equidist", "cli.py")):
        print("bench: no equidist sources under %s; run from a checkout of "
              "the repository" % SRC, file=sys.stderr)
        return 2
    tag = "%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    work = os.path.join(OUT, tag)
    os.makedirs(work)
    try:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            metrics, samples, extra = run_traced(
                run, args.seconds, os.path.join(OUT, tag + ".spans.json"))
        else:
            metrics, samples, extra = run_untraced(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = run.info(samples)
    info.update(extra)
    for name, m in metrics.items():
        print("%-36s %18.9g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not run.unexpected,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
