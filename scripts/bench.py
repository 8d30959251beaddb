#!/usr/bin/env python3
"""Paired pass times of two checkouts on the benchmark pools.

    python3 scripts/bench.py BASE HEAD [--workload W] [--pairs N] [--seed S] > BENCH_<pr>.json

BASE and HEAD are the roots of two checkouts.  For each workload, one
long-lived worker process per checkout imports gl11 from that checkout's
``src/``, builds the seeded pool from its ``perfbench/workloads.py`` and runs
one untimed warm-up pass.  The script then asks the workers for one pass at
a time, alternating between them and swapping which goes first each pair, so
that a drift of the host's speed falls on both sides of a pair (Kalibera and
Jones, "Rigorous benchmarking in reasonable time", ISMM 2013).  A worker runs
and judges each call with ``call`` and ``judge`` of ``report_digest.py``,
beside this script.  A pass time is the wall time spent inside
``gl11.cli.main``, summed over the pool.  Each output is judged by the pool's
expectation outside that time; a problem, a raise among them, ends the run.

The JSON written to stdout holds, per workload, each tree's median pass
time and quartiles, the HEAD/BASE ratio of the pairs' pass times with its
median and quartiles, the number of pairs HEAD won, and the verdict of the
one rule below (``verdict``).  Progress goes to stderr.  Exit status: 0 when
every output met its expectation, 1 when one did not or a worker failed (the
first five problems go to stderr), 2 on bad usage.
The ``perfbench/run.py`` runs stay the benchmark of record; this script
only decides whether HEAD is faster or slower than BASE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ("group-law", "geometry", "integrable")
WORKER = "--worker"  # the first argument of a worker process, never given by hand

# The claim rule, written once: HEAD is faster when it wins at least WIN_SHARE
# of at least MIN_PAIRS pairs and the ratio's upper quartile is below 1;
# slower in the mirror case; otherwise nothing is claimed.
MIN_PAIRS = 40
WIN_SHARE = 0.8
RULE = ("faster: HEAD faster in >= %d%% of >= %d pairs and the HEAD/BASE ratio's "
        "upper quartile < 1; slower: BASE faster in >= %d%% of >= %d pairs and the "
        "ratio's lower quartile > 1; otherwise no claim"
        % (100 * WIN_SHARE, MIN_PAIRS, 100 * WIN_SHARE, MIN_PAIRS))


def verdict(ratios) -> str:
    """The rule's verdict on the HEAD/BASE ratios of the pairs: "faster",
    "slower" or "no claim"."""
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    need = WIN_SHARE * len(ratios)
    if len(ratios) >= MIN_PAIRS:
        if sum(r < 1 for r in ratios) >= need and q3 < 1:
            return "faster"
        if sum(r > 1 for r in ratios) >= need and q1 > 1:
            return "slower"
    return "no claim"


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


# -- worker --------------------------------------------------------------------------

def worker(root, workload, seed):
    """Serve passes over one checkout's pool: a line on stdin asks for one, and
    the answer is one JSON line on the original stdout.  The first line written
    reports the warm-up pass."""
    import gc
    import shutil
    import tempfile

    import report_digest  # beside this script, the first entry of sys.path

    answers = os.fdopen(os.dup(1), "w")
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # nothing but answers reaches the pipe
    workloads = report_digest.load_workloads(root)
    import numpy as np

    def one_pass():
        seconds, problems = 0.0, []
        for op in pool:
            status, stdout, stderr, took = report_digest.call(op.argv)
            seconds += took
            problems += report_digest.judge(op, status, stdout, stderr)
        return {"seconds": seconds, "problems": problems}

    workdir = tempfile.mkdtemp(prefix="bench-pool-")
    try:
        pool = workloads.BUILDERS[workload](np.random.default_rng(int(seed)), workdir)
        answer = dict(one_pass(), ops=len(pool), numpy=np.__version__)
        while True:
            answers.write(json.dumps(answer) + "\n")
            answers.flush()
            if not sys.stdin.readline():
                break
            settle = one_pass()  # untimed: the caches the other worker took are refilled
            gc.collect()
            answer = one_pass()
            answer["problems"] += settle["problems"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Worker:
    """One worker process and its pipes."""

    def __init__(self, root, workload, seed):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.root = root
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), WORKER, root, workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=root)

    def answer(self) -> dict:
        """The next answer; problems in it, or a worker that ended, raise."""
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the worker on %s ended (exit status %s)"
                               % (self.root, self.process.wait()))
        answer = json.loads(line)
        if answer["problems"]:
            raise RuntimeError("%s: %s" % (self.root, "; ".join(answer["problems"][:5])))
        return answer

    def timed_pass(self) -> float:
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return self.answer()["seconds"]

    def close(self):
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def paired(base, head, workload, pairs, seed) -> dict:
    """The pairs of one workload and their summary."""
    sides = {}
    try:
        for side, root in (("base", base), ("head", head)):
            sides[side] = Worker(root, workload, seed)
        ready = {side: w.answer() for side, w in sides.items()}
        times = {"base": [], "head": []}
        for k in range(pairs):
            for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                times[side].append(sides[side].timed_pass() * 1e3)
    finally:
        for w in sides.values():
            w.close()
    ratios = [h / b for b, h in zip(times["base"], times["head"])]
    return {"ops": ready["head"]["ops"], "numpy": ready["head"]["numpy"],
            "base_pass_ms": spread(times["base"]), "head_pass_ms": spread(times["head"]),
            "ratio": spread(ratios), "pairs": pairs,
            "head_wins": sum(r < 1 for r in ratios), "verdict": verdict(ratios),
            "passes_ms": [list(p) for p in zip(times["base"], times["head"])]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="root of the checkout to compare against")
    parser.add_argument("head", help="root of the checkout under test")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to have quartiles")
    for root in (args.base, args.head):
        if not os.path.isfile(os.path.join(root, "perfbench", "workloads.py")):
            parser.error("%s holds no perfbench/workloads.py" % root)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    out = {"rule": RULE, "seed": args.seed,
           "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "machine": platform.machine()},
           "workloads": {}}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        print("%s: %d pairs ..." % (name, args.pairs), file=sys.stderr, flush=True)
        try:
            result = paired(os.path.abspath(args.base), os.path.abspath(args.head),
                            name, args.pairs, args.seed)
        except RuntimeError as err:
            print("error: %s" % err, file=sys.stderr)
            return 1
        out["workloads"][name] = result
        print("%s: ratio %.3f (%.3f-%.3f), HEAD won %d of %d: %s"
              % (name, result["ratio"]["median"], result["ratio"]["q1"],
                 result["ratio"]["q3"], result["head_wins"], args.pairs, result["verdict"]),
              file=sys.stderr, flush=True)
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == [WORKER]:
        worker(*sys.argv[2:])
    else:
        sys.exit(main())
