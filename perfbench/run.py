#!/usr/bin/env python3
"""Closed-loop benchmark of the gl11 command line, one client per workload.

    python3 perfbench/run.py --workload group-law --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each operation is one in-process call of
``gl11.cli.main([...])`` with ``--format json``; the next starts when the
previous one has returned.  The run makes whole passes over a seeded pool
of operations until ``--seconds`` have passed and at least 100 operations
ran.  Each output is checked right after its call, outside the timing;
the reference arithmetic runs after the loop.

The speed of the shared host drifts by a third within seconds, so every
reported time is scaled to a reference host speed: a fixed piece of work
(a probe) is timed right before and right after every operation, and the
operation's time is multiplied by the probe's reference time over the mean
of those two.  ``gaudin-commute`` is gauged by a dense complex matrix
product, every other operation and the set-up by a pure-Python loop; each
kind of work drifts with its own probe (README, "Host speed").  The
unscaled figures are printed too.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run alternates untraced and
traced passes, and reports per-layer metrics and the tracing overhead.
``--workload all``, the default, runs the three workloads one after another,
each in its own process.  Exit status: 0 when every check holds, 1 when one
fails, 2 on bad usage or when the gl11 sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One client, one thread: BLAS must not fan out over the cores the client uses.
# Set before anything imports numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("group-law", "geometry", "integrable")
MIN_OPS = 100          # op_p90_ms then has at least ten samples beyond it
SETUP_REPEATS = 7
PROBE_LOOPS = 20000
# Operations whose time goes mostly to dense complex matrix products; their
# time drifts with the host's matmul speed, not with its interpreter speed.
MATMUL_KINDS = frozenset({"gaudin-commute"})

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in its own process; exit status is the worst of them."""
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run([sys.executable, os.path.abspath(__file__),
                                "--workload", workload, "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], check=False)
        status = max(status, child.returncode)
    return status


# -- host speed --------------------------------------------------------------------

def python_probe_ms():
    """Wall time of a fixed pure-Python loop of dict updates and integer work."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(PROBE_LOOPS):
        key = (i * 7) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= key
    return (time.perf_counter() - start) * 1e3


_rng = np.random.default_rng(0)
_PROBE_MATRIX = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))


def matmul_probe_ms():
    """Wall time of one 256x256 complex matrix product, the size of m = 8."""
    start = time.perf_counter()
    _PROBE_MATRIX @ _PROBE_MATRIX
    return (time.perf_counter() - start) * 1e3


# name -> (probe, its time in ms on a typical spell of the 2-vCPU host that the
# README figures come from); times are reported as if the probe took that long
GAUGES = {"python": (python_probe_ms, 4.0), "matmul": (matmul_probe_ms, 3.5)}


def gauged(gauge, run):
    """(result of run(), seconds it took, factor to reference speed, last probe ms)."""
    probe, reference_ms = GAUGES[gauge]
    before = probe()
    start = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - start
    after = probe()
    return result, seconds, reference_ms / (0.5 * (before + after)), after


# -- set-up ------------------------------------------------------------------------

def fresh_import():
    """Import gl11 (and its CLI) anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "gl11" or n.startswith("gl11.")]:
        del sys.modules[name]
    cli = importlib.import_module("gl11.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError("gl11 imported from %s, not from %s" % (cli.__file__, SRC))
    return cli


def set_up(workload, seed, workdir):
    """Median over SETUP_REPEATS of (import gl11 + build the seeded pool).

    Returns (cli, pool, scaled median, unscaled median) in seconds.
    """
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        (cli, pool), seconds, factor, _ = gauged("python", lambda: (
            fresh_import(),
            workloads.BUILDERS[workload](np.random.default_rng(seed), workdir)))
        raw.append(seconds)
        times.append(seconds * factor)
    return cli, pool, statistics.median(times), statistics.median(raw)


# -- the closed loop ---------------------------------------------------------------

class Tally:
    """Outcomes of a series of operations; each output is checked, then dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}          # kind -> first error
        self.latencies_ms = []      # operations that did not fail, scaled
        self.busy_s = 0.0           # time inside cli.main, every operation, scaled
        self.raw_busy_s = 0.0       # the same, unscaled
        self.raw_latencies_ms = []
        self.probes_ms = {gauge: [] for gauge in GAUGES}
        self.pass_rates = []        # per pass: operations that did not fail / busy time
        self._pass_start = (0, 0.0)
        self.checks = 0             # checks in the reports
        self.report_bytes = 0
        self.problems = []

    def add(self, op, status, stdout, stderr, error, seconds, factor=1.0):
        """One outcome; seconds is the unscaled time, factor its host-speed scale."""
        self.attempted += 1
        self.busy_s += seconds * factor
        self.raw_busy_s += seconds
        self.report_bytes += len(stdout.encode())
        if error is not None:
            self.failed += 1
            self.failures.setdefault(op.kind, error)
            if not op.known_fault:
                self.problems.append("%s %s: raised %s" % (op.kind, " ".join(op.argv), error))
            return
        self.latencies_ms.append(seconds * factor * 1e3)
        self.raw_latencies_ms.append(seconds * 1e3)
        try:
            report = json.loads(stdout) if stdout.strip() else None
        except json.JSONDecodeError:
            report = None
        if report is not None:
            self.checks += len(report.get("checks", []))
        for problem in op.expect(status, report, stderr):
            self.problems.append("%s %s: %s" % (op.kind, " ".join(op.argv), problem))

    def end_pass(self):
        ok, busy = self._pass_start
        self.pass_rates.append((len(self.latencies_ms) - ok) / (self.busy_s - busy))
        self._pass_start = (len(self.latencies_ms), self.busy_s)

    def ops_per_s(self):
        """Median over passes, so a short slow spell of the host moves it little."""
        return statistics.median(self.pass_rates)


def gauge_of(op):
    return "matmul" if op.kind in MATMUL_KINDS else "python"


def call(cli, op):
    """One operation: (status, stdout, stderr, error).

    An exception escaping cli.main is caught and returned as error, for
    Tally.add to judge.
    """
    out, err = io.StringIO(), io.StringIO()
    status = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(op.argv)
        except SystemExit as exc:  # usage errors and unreadable files end this way
            if exc.code is None or isinstance(exc.code, int):
                status = exc.code or 0
            else:
                print(exc.code, file=sys.stderr)
                status = 1
        except Exception as exc:  # the program crashed: Tally.add judges it
            error = "%s: %s" % (type(exc).__name__, exc)
    return status, out.getvalue(), err.getvalue(), error


def closed_loop(cli, pool, seconds, min_ops, tally, tracer=None):
    """Whole passes over pool until ``seconds`` elapsed and min_ops ran.

    Each operation is scaled by the probes of its gauge on either side of it.
    """
    start = time.perf_counter()
    ran = 0
    while True:
        for op in pool:
            gauge = gauge_of(op)
            outcome, took, factor, probe = gauged(gauge, lambda: call(cli, op))
            if tracer is not None:
                tracer.end_op()
            tally.probes_ms[gauge].append(probe)
            tally.add(op, *outcome, took, factor)
        tally.end_pass()
        ran += len(pool)
        if time.perf_counter() - start >= seconds and ran >= min_ops:
            return


def warm_up(cli, pool):
    """One operation of each kind, untimed and uncounted: fills gl11's sign cache."""
    seen = {}
    for op in pool:
        seen.setdefault(op.kind, op)
    tally = Tally()
    for op in seen.values():
        tally.add(op, *call(cli, op), 0.0)
    return tally.problems


def reference_checks(workload, pool):
    """(identities checked, problems) of the independent reference arithmetic."""
    if workload == "group-law":
        seeds = [op.seed for op in pool if op.kind == "group-selftest"][:4]
        return reference.check_group_law(seeds)
    if workload == "integrable":
        return reference.check_gaudin([(op.seed, op.m) for op in pool
                                       if op.m is not None and op.m <= 5])
    return 0, []


# -- metrics -------------------------------------------------------------------------

def end_to_end(tally, setup_s):
    deciles = statistics.quantiles(tally.latencies_ms, n=10)
    return {"setup_s": setup_s, "ops_per_s": tally.ops_per_s(),
            "op_p50_ms": statistics.median(tally.latencies_ms), "op_p90_ms": deciles[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def unscaled(tally, setup_raw_s):
    """The timing metrics as measured, for the human-readable lines only."""
    ok = len(tally.raw_latencies_ms)
    return {"setup_s": setup_raw_s,
            "ops_per_s": ok / tally.raw_busy_s if tally.raw_busy_s else 0.0,
            "op_p50_ms": statistics.median(tally.raw_latencies_ms),
            "op_p90_ms": statistics.quantiles(tally.raw_latencies_ms, n=10)[8]}


def traced_run(cli, pool, seconds):
    """Alternate untraced and traced passes; per-layer metrics of the traced ones.

    Alternating keeps host drift out of the traced/untraced throughput ratio.
    Returns (tally of all passes, metrics).
    """
    tracer = tracing.Tracer()
    untraced, traced = Tally(), Tally()
    while untraced.busy_s + traced.busy_s < seconds:
        closed_loop(cli, pool, 0, 1, untraced)
        tracer.install()
        closed_loop(cli, pool, 0, 1, traced, tracer)
        tracer.uninstall()
    metrics = tracer.metrics(traced.attempted, traced.report_bytes, traced.checks)
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    metrics["trace.slowdown"] = untraced.ops_per_s() / traced.ops_per_s()
    both = Tally()
    for part in (untraced, traced):
        both.attempted += part.attempted
        both.failed += part.failed
        both.failures.update(part.failures)
        both.problems += part.problems
        for gauge, probes in part.probes_ms.items():
            both.probes_ms[gauge] += probes
    return both, metrics


def host_facts():
    try:
        threads = str(len(os.listdir("/proc/self/task")))
    except OSError:
        threads = "unknown"
    return ("nproc %d (usable %d), python %s, numpy %s, BLAS threads %s, "
            "process threads %s"
            % (os.cpu_count(), len(os.sched_getaffinity(0)), platform.python_version(),
               np.__version__, BLAS_THREADS, threads))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "gl11", "cli.py")):
        print("error: gl11 sources not found under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (args.workload, os.getpid()))
    try:
        cli, pool, setup_s, setup_raw_s = set_up(args.workload, args.seed, workdir)
        problems = warm_up(cli, pool)
        raw = {}
        if args.trace:
            tally, metrics = traced_run(cli, pool, args.seconds)
            units = {name: unit for name, unit, _ in tracing.metric_specs()}
        else:
            tally = Tally()
            closed_loop(cli, pool, args.seconds, MIN_OPS, tally)
            metrics = end_to_end(tally, setup_s)
            raw = unscaled(tally, setup_raw_s)
            units = dict(END_TO_END)
        problems += tally.problems
        ref_count, ref_problems = reference_checks(args.workload, pool)
        problems += ref_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    correct = not problems
    print("workload %s, seed %d, %.0f s, trace %d, pool of %d operations"
          % (args.workload, args.seed, args.seconds, args.trace, len(pool)))
    print("host: " + host_facts())
    for gauge, probes in tally.probes_ms.items():
        if len(probes) >= 2:
            quartiles = statistics.quantiles(probes, n=4)
            print("host speed: %s probe %.3f ms median, %.3f-%.3f ms quartiles, "
                  "%.3f-%.3f ms range; times below are scaled to %.1f ms"
                  % (gauge, quartiles[1], quartiles[0], quartiles[2], min(probes),
                     max(probes), GAUGES[gauge][1]))
    for name, value in metrics.items():
        extra = "  (unscaled %.6g)" % raw[name] if name in raw else ""
        print("  %-40s %14.6g %s%s" % (name, value, units[name], extra))
    print("attempted %d, failed %d" % (tally.attempted, tally.failed))
    for kind, error in tally.failures.items():
        print("  failed: %s (%s)" % (kind, error))
    print("reference identities checked: %d" % ref_count)
    print("correct: %s" % ("yes" if correct else "NO"))
    for problem in problems[:20]:
        print("  " + problem)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
