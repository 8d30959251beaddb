"""Every report the command line writes, byte for byte, against a committed digest.

``tests/data/report_digest.txt`` is the output of

    python3 scripts/report_digest.py --seeds 1 2

one line per call: argv, exit status and the SHA-256 of the output.  A change
that alters report bytes on purpose regenerates the file with that command.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "report_digest.txt"


def test_reports_match_the_committed_digest():
    # a subprocess: the script sets the BLAS thread variables before numpy is imported
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digest.py"),
                           "--seeds", "1", "2"],
                          capture_output=True, text=True, timeout=600, check=True)
    expected = GOLDEN.read_text().splitlines()
    actual = done.stdout.splitlines()
    for want, got in zip(expected, actual):
        if want != got:
            argv, *outcome = want.split("\t")
            got_argv, *got_outcome = got.split("\t")
            raise AssertionError("first differing report: %s\n  expected  %s\n  actual    %s"
                                 % (argv, " ".join(outcome),
                                    " ".join(got_outcome if got_argv == argv else [got])))
    assert len(actual) == len(expected), (len(actual), len(expected))
