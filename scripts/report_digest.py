#!/usr/bin/env python3
"""Digest of every report the command line writes, one line per call.

    python3 scripts/report_digest.py --seeds 1 2 > digest.txt

Runs every operation of the three benchmark pools (built by
``perfbench/workloads.py``) at each seed, then, in the order of ``main``, the
calls that the ``*_commands`` functions below list: the shipped fixtures,
Gaudin systems larger than the pools draw and with zero v, the small nerves,
Garnier systems outside the pools' m, tetrahedra with reversed edges and the
SU(1|1) connection.  Those without ``--format`` run in text and in JSON.
Each call prints one line: its argv, its exit status and the SHA-256 of its stdout plus
stderr (plus the file it wrote, for ``fatgraph normalize -o``).  The work
directory reads as ``<work>`` and the checkout as ``<root>``, in the argv
and in the hashed output, so the digests of two checkouts are equal line
for line exactly when their reports are byte-identical:

    diff <(python3 a/scripts/report_digest.py) <(python3 b/scripts/report_digest.py)

With ``--outcomes`` each line ends in the sorted names of the checks the
report marks failed instead of the hash, so that a change of the random
draws can be diffed by outcome: the fixture lines must keep theirs, while
the pool lines move with the inputs they draw.

Each pool operation is also judged by the outcome its pool expects
(``judge``).  After the last line every problem goes to stderr, naming the
operation, and the exit status is 1 if there was one and 0 otherwise;
stdout is the same either way.  ``scripts/bench.py`` loads a checkout, runs
its calls and judges them with this script's ``load_workloads``, ``call``
and ``judge``.

Like ``make_fixtures.py``, it runs the gl11 in its own checkout's ``src/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import shlex
import shutil
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "gl11" / "fixtures"
FAIL_LINE = re.compile(r"^(\S+) +\S+  FAIL$", re.MULTILINE)  # a failed check in a text report


def fixture_commands(workdir):
    """argv (without --format) of every command on the shipped fixtures."""
    def fx(name):
        return str(FIXTURES / name)

    boundary, graph = fx("nerve_tetrahedron_boundary.json"), fx("fatgraph_g1s1.json")
    flat, random = fx("connection_g1s1_flat.json"), fx("connection_g1s1_random.json")
    commands = [
        ["cech-verify", boundary, fx("cech_tetra_valid.json")],
        ["cech-verify", fx("nerve_tetrahedron.json"), fx("cech_tetra_valid.json")],
        ["cech-verify", boundary, fx("cech_tetra_corrupt_h.json")],
        ["hitchin-residual", fx("metric_example.json"), fx("higgs_example.json")],
        ["hitchin-residual", fx("metric_example_corrupt.json"), fx("higgs_example.json")],
        ["fatgraph", "normalize", graph, random,
         "-o", os.path.join(workdir, "normalized.json")],
        ["fatgraph", "normalize", graph, flat],
        ["fatgraph", "holonomy", graph, flat, "--cycle", "0+,1-"],
        ["fatgraph", "holonomy", graph, random, "--cycle", "0+,1-,2+"],
        ["fatgraph", "check-punctures", graph, flat],
        ["fatgraph", "check-punctures", graph, random],
        ["garnier-check", "--system", fx("gaudin_m3.json")],
        ["gaudin-commute", "--system", fx("gaudin_m3.json")],
        ["quantize-compare", "--system", fx("gaudin_m3.json"), "--hbar", "0.5"],
    ]
    for name in sorted(p.name for p in FIXTURES.glob("fatgraph_g*s*.json")):
        genus, punctures = name[len("fatgraph_g"):-len(".json")].split("s")
        dims = ["fatgraph", "dims", "--genus", genus, "--punctures", punctures]
        commands += [dims, dims + ["--constrained", "--su"]]
    return commands


def large_commands(seed):
    """argv of the seeded gaudin-commute runs at m = 12 and 16, whose
    realizations are larger than any the pools draw (they stop at m = 8)."""
    head = ["--format", "json", "--seed", str(seed), "gaudin-commute"]
    return [head + ["--m", "12"], head + ["--m", "16", "--hbar", "0.5"]]


def garnier_commands(seed):
    """argv of the seeded garnier-check runs at m = 2 (one site pair) and at
    m = 8 with two systems (28 pairs), outside the pools' m 3..5."""
    head = ["--format", "json", "--seed", str(seed), "garnier-check"]
    return [head + ["--m", "2"], head + ["--m", "8", "--count", "2"]]


def zero_v_commands(workdir):
    """argv (without --format) of gaudin-commute on gaudin_m3.json written into
    workdir with v_1 = 0 (pairs coupled one way only) and with every v = 0
    (operators with no pair)."""
    data = json.loads((FIXTURES / "gaudin_m3.json").read_text())
    commands = []
    for name, zero in (("gaudin_m3_v1_zero.json", [1]),
                       ("gaudin_m3_v_zero.json", range(len(data["sites"])))):
        sites = [dict(site, v=[0.0, 0.0]) if k in zero else site
                 for k, site in enumerate(data["sites"])]
        path = os.path.join(workdir, name)
        pathlib.Path(path).write_text(json.dumps(dict(data, sites=sites)))
        commands.append(["gaudin-commute", "--system", path])
    return commands


def small_nerve_commands(workdir):
    """argv (without --format) of cech-verify on nerve_triangle.json with SL and
    with GL data (a one-row coboundary solve) and on nerve_genus1.json, which
    has no triangle and so no cocycle check; the data are exact cocycles from
    seeded frames written into workdir."""
    import numpy as np
    from gl11 import cech, supergroup

    rng = np.random.default_rng(0)
    commands = []
    for nerve_name, mode in (("nerve_triangle.json", "sl"), ("nerve_triangle.json", "gl"),
                             ("nerve_genus1.json", "gl")):
        nerve_path = FIXTURES / nerve_name
        nerve = cech.nerve_from_dict(json.loads(nerve_path.read_text()))
        frames = {v: supergroup.random_coords(rng, 8, sl=mode == "sl") for v in nerve.vertices}
        path = os.path.join(workdir, "cech_%s_%s" % (mode, nerve_name))
        pathlib.Path(path).write_text(json.dumps(cech.transition_from_frames(nerve, frames)
                                                 .to_dict()))
        commands.append(["cech-verify", str(nerve_path), path])
    return commands


def reversed_edge_commands(seed, workdir):
    """argv of cech-verify on the solid tetrahedron and on its boundary, every
    edge listed reversed, so that each triangle's kept quadratic term is formed
    from ``coords_inverse`` coordinates; the data are exact cocycles from frames
    seeded by seed, nerve and data written into workdir."""
    import numpy as np
    from gl11 import cech, supergroup

    rng = np.random.default_rng(seed)
    commands = []
    for solid in (True, False):
        listed = cech.tetrahedron_nerve(solid).simplices
        nerve = cech.Nerve([1, 2, 3, 4], {1: [e[::-1] for e in listed[1]], 2: listed[2],
                                          3: listed[3]})
        frames = {v: supergroup.random_coords(rng, 8) for v in nerve.vertices}
        paths = [os.path.join(workdir, "%s_reversed_%s_%d.json" % (
            kind, "solid" if solid else "boundary", seed)) for kind in ("nerve", "cech")]
        pathlib.Path(paths[0]).write_text(json.dumps(cech.nerve_to_dict(nerve)))
        pathlib.Path(paths[1]).write_text(json.dumps(cech.transition_from_frames(nerve, frames)
                                                     .to_dict()))
        commands.append(["--format", "json", "cech-verify"] + paths)
    return commands


def su_commands(workdir):
    """argv (without --format) of the fatgraph commands on the shipped SU(1|1) connection."""
    graph, su = str(FIXTURES / "fatgraph_g1s1.json"), str(FIXTURES / "connection_g1s1_su.json")
    return [["fatgraph", "normalize", graph, su,
             "-o", os.path.join(workdir, "normalized_su.json")],
            ["fatgraph", "holonomy", graph, su, "--cycle", "0+,1-,2+"],
            ["fatgraph", "check-punctures", graph, su]]


def load_workloads(root):
    """perfbench's workloads module of the checkout at root, with that checkout's
    ``src/`` and ``perfbench/`` put first on sys.path.  RuntimeError when gl11
    still comes from another place, as it does when imported before."""
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path[:0] = [src, os.path.join(root, "perfbench")]
    import workloads
    from gl11 import cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError("gl11 imported from %s, not from %s" % (cli.__file__, src))
    return workloads


def call(argv):
    """(exit status, stdout, stderr, seconds) of cli.main(argv), run in this
    process; seconds is the wall time inside cli.main.  A SystemExit gives
    Python's exit status: 0 for None, an int itself, and 1 for anything else,
    which goes to stderr.  An escaped exception gives "raised", with
    "Type: message" on stderr."""
    from gl11 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = 0 if exc.code is None else exc.code
            if not isinstance(status, int):
                print(status, file=sys.stderr)
                status = 1
        except Exception as exc:  # an escaped exception is an outcome too
            status = "raised"
            print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        seconds = time.perf_counter() - start
    return status, out.getvalue(), err.getvalue(), seconds


def judge(op, status, stdout, stderr):
    """The problems of one pool operation's outcome by the pool's own
    expectation, each as "<kind> <argv>: <problem>"; a raise is one."""
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None  # the expectation names the missing report
    problems = (["raised " + stderr.strip()] if status == "raised"
                else op.expect(status, report, stderr))
    return ["%s %s: %s" % (op.kind, " ".join(op.argv), problem) for problem in problems]


def failing_checks(stdout):
    """Sorted names of the checks a JSON or text report marks failed."""
    try:
        checks = json.loads(stdout)["checks"]
    except ValueError:
        return sorted(FAIL_LINE.findall(stdout))
    return sorted(c["name"] for c in checks if not c["passed"])


def digest_line(argv, workdir, status, stdout, stderr, outcomes=False):
    """The line of the call argv, which gave status, stdout and stderr."""
    text = stdout + stderr
    output = argv[argv.index("-o") + 1] if "-o" in argv else None
    if output is not None and os.path.exists(output):
        text += pathlib.Path(output).read_text()
        os.remove(output)

    def relative(s):
        return s.replace(workdir, "<work>").replace(str(ROOT), "<root>")

    if outcomes:
        digest = " ".join(failing_checks(stdout)) or "-"
    else:
        digest = hashlib.sha256(relative(text).encode()).hexdigest()
    return "%s\t%s\t%s" % (" ".join(shlex.quote(relative(a)) for a in argv), status, digest)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="benchmark pool seeds (default 1 2)")
    parser.add_argument("--outcomes", action="store_true",
                        help="print the failing check names in place of the output hash")
    args = parser.parse_args(argv)
    # BLAS sums in a different order on more threads; run on one, as the benchmark
    # does.  Set here, not at import, so that importing fixture_commands changes nothing.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    workloads = load_workloads(ROOT)
    import numpy as np

    def digest(argv, op=None):
        """Print the line of argv; return the problems of the pool operation op."""
        status, stdout, stderr, _ = call(argv)
        print(digest_line(argv, workdir, status, stdout, stderr, args.outcomes))
        return [] if op is None else judge(op, status, stdout, stderr)

    def both_formats(commands):
        return [["--format", fmt] + command for command in commands for fmt in ("text", "json")]

    def each_seed(commands):
        return [argv for seed in args.seeds for argv in commands(seed)]

    workdir, problems = tempfile.mkdtemp(prefix="report_digest-"), []
    try:
        for workload in sorted(workloads.BUILDERS):
            for seed in args.seeds:
                for op in workloads.BUILDERS[workload](np.random.default_rng(seed), workdir):
                    problems += digest(op.argv, op)
        for argv in (both_formats(fixture_commands(workdir)) + each_seed(large_commands)
                     + both_formats(zero_v_commands(workdir) + small_nerve_commands(workdir))
                     + each_seed(garnier_commands)
                     + each_seed(lambda seed: reversed_edge_commands(seed, workdir))
                     + both_formats(su_commands(workdir))):
            digest(argv)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("problem: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
