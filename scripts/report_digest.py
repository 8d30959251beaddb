#!/usr/bin/env python3
"""Digest of every report the command line writes, one line per call.

    python3 scripts/report_digest.py --seeds 1 2 > digest.txt

Runs every operation of the three benchmark pools (built by
``perfbench/workloads.py``) at each seed, then every command on the shipped
fixtures in text and in JSON, then, at each seed, the JSON reports of
``gaudin-commute`` at m = 12 and m = 16, whose realizations are larger than
any the pools draw (they stop at m = 8), then ``gaudin-commute`` in text
and in JSON on ``gaudin_m3.json`` rewritten with v_1 = 0 (pairs coupled one
way only) and with every v = 0 (operators with no pair), then
``cech-verify`` in text and in JSON on the two small shipped nerves: the
triangle with SL and with GL cocycle data (a one-row coboundary solve), and
the genus-1 cycle, which has no triangle and so no cocycle check, then, at
each seed, the JSON reports of ``garnier-check`` at m = 2 (one site pair) and
at m = 8 with two systems (28 pairs), outside the pools' m 3..5, and last, at
each seed, the JSON reports of ``cech-verify`` on the solid tetrahedron and on
its boundary with every edge listed reversed, so that each triangle's kept
quadratic term is formed from ``coords_inverse`` coordinates, and after them
``fatgraph normalize -o``, ``holonomy`` and ``check-punctures`` in text and
in JSON on the SU(1|1) connection ``connection_g1s1_su.json``.  Each call
prints one line: its argv, its exit status and the SHA-256 of its stdout plus
stderr (plus the file it wrote, for ``fatgraph normalize -o``).  The work
directory reads as ``<work>`` and the checkout as ``<root>``, in the argv
and in the hashed output, so the digests of two checkouts are equal line
for line exactly when their reports are byte-identical:

    diff <(python3 a/scripts/report_digest.py) <(python3 b/scripts/report_digest.py)

With ``--outcomes`` each line ends in the sorted names of the checks the
report marks failed instead of the hash, so that a change of the random
draws can be diffed by outcome: the fixture lines must keep theirs, while
the pool lines move with the inputs they draw.

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
    """argv of the seeded gaudin-commute runs past the pools' m <= 8."""
    head = ["--format", "json", "--seed", str(seed), "gaudin-commute"]
    return [head + ["--m", "12"], head + ["--m", "16", "--hbar", "0.5"]]


def garnier_commands(seed):
    """argv of the seeded garnier-check runs at one site pair and at 28."""
    head = ["--format", "json", "--seed", str(seed), "garnier-check"]
    return [head + ["--m", "2"], head + ["--m", "8", "--count", "2"]]


def zero_v_commands(workdir):
    """argv of gaudin-commute on gaudin_m3.json written into workdir with
    v_1 = 0 and with every v = 0."""
    data = json.loads((FIXTURES / "gaudin_m3.json").read_text())
    commands = []
    for name, zero in (("gaudin_m3_v1_zero.json", [1]),
                       ("gaudin_m3_v_zero.json", range(len(data["sites"])))):
        sites = [dict(site, v=[0.0, 0.0]) if k in zero else site
                 for k, site in enumerate(data["sites"])]
        path = os.path.join(workdir, name)
        pathlib.Path(path).write_text(json.dumps(dict(data, sites=sites)))
        commands += [["--format", fmt, "gaudin-commute", "--system", path]
                     for fmt in ("text", "json")]
    return commands


def small_nerve_commands(workdir):
    """argv of cech-verify on nerve_triangle.json with SL and with GL data and on
    nerve_genus1.json, the data exact cocycles from seeded frames written into workdir."""
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
        commands += [["--format", fmt, "cech-verify", str(nerve_path), path]
                     for fmt in ("text", "json")]
    return commands


def reversed_edge_commands(seed, workdir):
    """argv of cech-verify on the solid tetrahedron and on its boundary, every
    edge listed reversed, the data exact cocycles from frames seeded by seed,
    nerve and data written into workdir."""
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


def call(argv):
    """(exit status, stdout, stderr) of cli.main(argv), run in this process."""
    from gl11 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # an escaped exception is an outcome too
            status = "raised"
            print("%s: %s" % (type(exc).__name__, exc), file=err)
    return status, out.getvalue(), err.getvalue()


def failing_checks(stdout):
    """Sorted names of the checks a JSON or text report marks failed."""
    try:
        checks = json.loads(stdout)["checks"]
    except ValueError:
        return sorted(FAIL_LINE.findall(stdout))
    return sorted(c["name"] for c in checks if not c["passed"])


def digest_line(argv, workdir, outcomes=False):
    status, stdout, stderr = call(argv)
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
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]  # this checkout's gl11
    import numpy as np
    import workloads

    workdir = tempfile.mkdtemp(prefix="report_digest-")
    try:
        for workload in sorted(workloads.BUILDERS):
            for seed in args.seeds:
                for op in workloads.BUILDERS[workload](np.random.default_rng(seed), workdir):
                    print(digest_line(op.argv, workdir, args.outcomes))
        for command in fixture_commands(workdir):
            for fmt in ("text", "json"):
                print(digest_line(["--format", fmt] + command, workdir, args.outcomes))
        for seed in args.seeds:
            for argv in large_commands(seed):
                print(digest_line(argv, workdir, args.outcomes))
        for argv in zero_v_commands(workdir) + small_nerve_commands(workdir):
            print(digest_line(argv, workdir, args.outcomes))
        for seed in args.seeds:
            for argv in garnier_commands(seed):
                print(digest_line(argv, workdir, args.outcomes))
        for seed in args.seeds:
            for argv in reversed_edge_commands(seed, workdir):
                print(digest_line(argv, workdir, args.outcomes))
        for command in su_commands(workdir):
            for fmt in ("text", "json"):
                print(digest_line(["--format", fmt] + command, workdir, args.outcomes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
