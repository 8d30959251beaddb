"""Every operation of the benchmark pools, once, judged by the pool's own expectations.

``perfbench/workloads.py`` builds the seeded operation pools of the three
benchmark workloads, each with the outcome the mathematics fixes for it.  Here
each pool is built at seed 1 and every operation runs once through
``gl11.cli.main``, as ``perfbench/run.py`` calls it, so a change that would
make the benchmark print ``correct: NO`` fails these tests first.  perfbench is
only read, never changed.
"""

import contextlib
import importlib.util
import io
import json
import pathlib
import sys

import numpy as np
import pytest

from gl11 import cli

WORKLOADS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call(op):
    """(status, stdout, stderr, error) of one operation, caught as the benchmark does."""
    out, err = io.StringIO(), io.StringIO()
    status = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(op.argv)
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                status = exc.code or 0
            else:
                print(exc.code, file=sys.stderr)
                status = 1
        except Exception as exc:  # judged below: no operation may raise
            error = "%s: %s" % (type(exc).__name__, exc)
    return status, out.getvalue(), err.getvalue(), error


@pytest.mark.parametrize("workload", ["group-law", "geometry", "integrable"])
def test_every_pool_operation_meets_its_expectation(workload, tmp_path):
    workloads = load_workloads()
    pool = workloads.BUILDERS[workload](np.random.default_rng(1), str(tmp_path))
    assert pool
    problems = []
    for op in pool:
        status, stdout, stderr, error = call(op)
        label = "%s %s" % (op.kind, " ".join(op.argv))
        if error is not None:
            problems.append("%s: raised %s" % (label, error))
            continue
        try:
            report = json.loads(stdout) if stdout.strip() else None
        except json.JSONDecodeError:
            report = None  # expect() names the missing report
        problems += ["%s: %s" % (label, problem) for problem in op.expect(status, report, stderr)]
    assert problems == []
