"""scripts/bench.py on a short pool slice: what its rule claims, what it
records of each tree and what it leaves running.

Each case copies ``src/`` and ``perfbench/`` into a temporary checkout whose
``integrable`` pool is cut to its first ``garnier-check`` call, so that the
rule's 40 pairs take about a second.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import bench as bench_script

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "scripts" / "bench.py"

SLICE = '''
_full_integrable = BUILDERS["integrable"]
BUILDERS["integrable"] = lambda rng, workdir: [
    op for op in _full_integrable(rng, workdir) if op.kind == "garnier-check"][:1]
'''


def checkout(where, main_prologue=None):
    """A copy of src/ and perfbench/ at ``where`` with the sliced pool, and with
    ``main_prologue`` run first in every cli.main call when given."""
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, where / part, ignore=ignore)
    with open(where / "perfbench" / "workloads.py", "a") as handle:
        handle.write(SLICE)
    if main_prologue is not None:
        cli = where / "src" / "gl11" / "cli.py"
        text = cli.read_text()
        head = "def main(argv=None) -> int:\n"
        assert text.count(head) == 1
        cli.write_text(text.replace(head, head + "    %s\n" % main_prologue))
    return where


def committed(where):
    """Make the checkout at ``where`` a git work tree with one commit; its hash."""
    def git(*args):
        return subprocess.run(["git", "-C", str(where), "-c", "user.name=bench",
                               "-c", "user.email=bench@localhost", *args],
                              check=True, capture_output=True, text=True).stdout.strip()
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "checkout")
    return git("rev-parse", "HEAD")


def workers_running(*roots):
    """Command lines of live processes that are bench.py workers on one of roots."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            argv = (pathlib.Path("/proc", pid, "cmdline").read_bytes().split(b"\0"))
        except OSError:
            continue
        if b"--worker" in argv and any(str(root).encode() in argv for root in roots):
            found.append(argv)
    return found


def bench(base, head, log):
    """(exit status, stdout, stderr) of bench.py on the sliced integrable pool.
    stderr goes to the file ``log``, not to a pipe: a worker left running would
    hold a pipe open and make the run wait for it."""
    with open(log, "w+") as err:
        done = subprocess.run([sys.executable, str(BENCH), str(base), str(head),
                               "--workload", "integrable", "--pairs", "40"],
                              stdout=subprocess.PIPE, stderr=err, text=True, timeout=300)
        err.seek(0)
        return done.returncode, done.stdout, err.read()


@pytest.fixture(scope="module")
def sliced(tmp_path_factory):
    return checkout(tmp_path_factory.mktemp("bench") / "base")


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")


@needs_proc
def test_the_same_checkout_on_both_sides_claims_nothing(sliced, tmp_path):
    status, out, err = bench(sliced, sliced, tmp_path / "log")
    assert status == 0, err
    out = json.loads(out)
    assert out["commits"] == {"base": None, "head": None}  # an export has no commit
    result = out["workloads"]["integrable"]
    assert result["verdict"] == "no claim"
    assert result["pairs"] == len(result["passes_ms"]) == 40
    assert result["ops"] == 1
    assert set(result["peak_rss_mb"]) == {"base", "head"}
    assert all(10 < mb < 1000 for mb in result["peak_rss_mb"].values())
    assert not workers_running(sliced)


@needs_proc
def test_a_sleep_in_cli_main_shows_as_a_loss(sliced, tmp_path):
    slow = checkout(tmp_path / "slow", "__import__('time').sleep(0.002)")
    head = committed(slow)
    status, out, err = bench(sliced, slow, tmp_path / "log")
    assert status == 0, err
    out = json.loads(out)
    assert out["commits"] == {"base": None, "head": head}
    result = out["workloads"]["integrable"]
    assert result["verdict"] == "slower"
    assert result["ratio"]["q1"] > 1
    assert not workers_running(sliced, slow)


@needs_proc
def test_a_crash_in_cli_main_ends_the_run_and_its_workers(sliced, tmp_path):
    broken = checkout(tmp_path / "broken", "raise RuntimeError('broken on purpose')")
    status, _, err = bench(sliced, broken, tmp_path / "log")
    assert status == 1
    assert "broken on purpose" in err
    assert not workers_running(sliced, broken)


def test_a_directory_inside_a_work_tree_has_no_commit_of_its_own(tmp_path):
    (tmp_path / "tree" / "inner").mkdir(parents=True)
    (tmp_path / "tree" / "inner" / "file").write_text("tracked\n")
    head = committed(tmp_path / "tree")
    assert bench_script.commit(str(tmp_path / "tree")) == head
    assert bench_script.commit(str(tmp_path / "tree" / "inner")) is None
    assert bench_script.commit(str(tmp_path)) is None
