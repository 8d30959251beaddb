"""Every report the command line writes, byte for byte, against a committed digest.

``tests/data/report_digest.txt`` is the output of

    python3 scripts/report_digest.py --seeds 1 2

one line per call: argv, exit status and the SHA-256 of the output.  A change
that alters report bytes on purpose regenerates the file with that command.
The script also judges every benchmark pool operation by the outcome its pool
expects, and exits 1 with the problems on stderr when one misses.
"""

import pathlib
import subprocess
import sys

import numpy as np
import pytest

from gl11 import cli

import report_digest  # scripts/, on the test path

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "report_digest.txt"


def test_reports_match_the_committed_digest():
    # a subprocess: the script sets the BLAS thread variables before numpy is imported
    done = subprocess.run([sys.executable, report_digest.__file__, "--seeds", "1", "2"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    expected, actual = GOLDEN.read_text().splitlines(), done.stdout.splitlines()
    differing = next(((want, got) for want, got in zip(expected, actual) if want != got), None)
    assert differing is None, "first differing report:\n  expected  %s\n  actual    %s" % differing
    assert len(actual) == len(expected), (len(actual), len(expected))


def test_a_pool_operation_that_misses_its_expectation_fails_the_digest(
        monkeypatch, capsys, tmp_path):
    real, reports = cli.group_law_suite, []

    def one_more_failing_check(*args, **kw):
        reports.append(real(*args, **kw))
        if len(reports) == 1:  # the first group-selftest call only
            reports[0].add("planted", 1.0, 0.0)
        return reports[-1]

    monkeypatch.setattr(cli, "group_law_suite", one_more_failing_check)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts the checkout first
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    assert report_digest.main(["--seeds", "1"]) == 1
    out, err = capsys.readouterr()
    first = report_digest.load_workloads(ROOT).BUILDERS["group-law"](
        np.random.default_rng(1), str(tmp_path))[0]
    label = "problem: group-selftest %s: " % " ".join(first.argv)
    assert err.splitlines() == [
        label + "exit status 1, expected 0",
        label + "check names differ: missing [], unexpected ['planted']",
        label + "failing checks ['planted'], expected []",
    ]
    assert "\t".join([" ".join(first.argv), "1"]) in out  # stdout shows the planted failure


@pytest.mark.parametrize("exit, status, stderr", [
    (SystemExit(None), 0, ""), (SystemExit(0), 0, ""), (SystemExit(3), 3, ""),
    (SystemExit("bad words"), 1, "bad words\n"),
    (ValueError("broken on purpose"), "raised", "ValueError: broken on purpose\n")])
def test_call_reads_the_exit_status_as_python_does(monkeypatch, exit, status, stderr):
    def main(argv):
        print("written")
        raise exit

    monkeypatch.setattr(cli, "main", main)
    got_status, stdout, got_stderr, seconds = report_digest.call([])
    assert (got_status, stdout, got_stderr) == (status, "written\n", stderr)
    assert seconds >= 0
