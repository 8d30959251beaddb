"""Seeded operation pools for the three benchmark workloads.

A pool is a list of operations.  Each operation is one argv for
``gl11.cli.main`` plus the outcome the mathematics fixes for it: the exit
status, the exact set of check names in the JSON report, the exact set of
failing checks and, where one exists, a predicted residual or info value.
None of these expectations is a stored copy of an earlier run.

Pools have a fixed make-up per workload; the seed only draws the data and
the order.  A run makes whole passes over its pool, so every run attempts
the same operations in the same proportions whatever its length.

The ``gl11`` modules are imported inside the builders, not at module level,
so that the set-up timing can re-import the package.
"""

from __future__ import annotations

import json
import os
from itertools import combinations

import numpy as np

# Grassmann generators in every generated input, as in the CLI self-test and
# the shipped fixtures.
N = 8

TOL = 1e-9

# epsilon added to one linear alpha coefficient in the cech negative control
CECH_EPSILON = 1e-3

# (g, s) of the four trivalent fatgraphs gl11 ships
GRAPHS = ((0, 3), (1, 1), (1, 2), (2, 1))

SELFTEST_CHECKS = frozenset({
    "associativity", "coords_vs_matrix", "identity", "inverse_formula",
    "sdet_exp_s", "sdet_homomorphism", "to_coords_roundtrip"})

GARNIER_CHECKS = frozenset({
    "hamiltonians_sum_to_zero", "poisson_commutativity", "two_routes_agree"})

HITCHIN_CHECKS = frozenset({
    "residual[0][0]", "residual[0][1]", "residual[1][0]", "residual[1][1]",
    "chern_form_routes_agree"})

# Operations per pool: group-law 10 rounds of 5, geometry 4 rounds of 24,
# integrable 1 round of 11.  One pass takes 2-4 s on a 2-core host, so a
# 25 s run makes 6 or more passes; ops_per_s is the median over them.
GROUP_LAW_ROUNDS = 10
GEOMETRY_ROUNDS = 4
INTEGRABLE_ROUNDS = 1
# Sizes of an integrable round, chosen so that op_p50_ms and op_p90_ms each
# fall in the middle of one operation's latencies, not on the step between
# two that differ by a factor of two or more: m = 8 twice makes it 2 of 11
# operations, so the 90th percentile lies inside the m = 8 latencies, and
# quantize-compare at m = 4 twice puts the median on garnier-check m = 4.
GAUDIN_MS = (6, 7, 8, 8)
QUANTIZE_MS = (4, 4, 5, 6)
GARNIER_MS = (3, 4, 5)

SELFTEST_COUNT = 10
GARNIER_COUNT = 10

# term counts of the random Grassmann coefficients in geometry inputs
CECH_FRAME_TERMS = 5
CONNECTION_TERMS = 5
HITCHIN_TERMS = 3
HITCHIN_DEGREE = 4


class Op:
    """One CLI call and the check its outcome must pass.

    ``known_fault`` marks the one operation that gl11 is known to crash on
    today: an exception escaping ``cli.main`` counts it as failed.  From any
    other operation such an exception is a problem that fails the run.
    """

    __slots__ = ("kind", "argv", "expect", "seed", "m", "known_fault")

    def __init__(self, kind, argv, expect, seed=None, m=None, known_fault=False):
        self.kind = kind
        self.argv = [str(a) for a in argv]
        self.expect = expect
        self.seed = seed
        self.m = m
        self.known_fault = known_fault


def expect_report(status, names, failing=frozenset(), extra=None):
    """Check of exit status, check names, failing checks and extra predictions.

    ``extra(report)`` returns a list of problems with further predicted values.
    """
    names = frozenset(names)
    failing = frozenset(failing)

    def check(rc, report, stderr):
        problems = []
        if rc != status:
            problems.append("exit status %r, expected %d" % (rc, status))
        if report is None:
            return problems + ["no JSON report on stdout"]
        got = {c["name"] for c in report["checks"]}
        if got != names:
            problems.append("check names differ: missing %s, unexpected %s"
                            % (sorted(names - got), sorted(got - names)))
        bad = {c["name"] for c in report["checks"] if not c["passed"]}
        if bad != failing:
            problems.append("failing checks %s, expected %s"
                            % (sorted(bad), sorted(failing)))
        if extra is not None:
            problems.extend(extra(report))
        return problems

    return check


def expect_usage_error(path, field):
    """Malformed input: exit 2 and a message naming the file and the field."""

    def check(rc, report, stderr):
        problems = []
        if rc != 2:
            problems.append("exit status %r, expected 2" % (rc,))
        if path not in stderr:
            problems.append("message does not name the file %s" % path)
        if ("'%s'" % field) not in stderr and ('"%s"' % field) not in stderr:
            problems.append("message does not name the field %r" % field)
        return problems

    return check


def _residuals(report):
    return {c["name"]: c["residual"] for c in report["checks"]}


def _seed(rng):
    return int(rng.integers(0, 2 ** 31 - 1))


def _write(workdir, name, payload):
    path = os.path.join(workdir, name)
    with open(path, "w") as handle:
        handle.write(json.dumps(payload))  # dumps takes the C encoder, dump does not
    return path


# -- group-law ------------------------------------------------------------------

def group_law(rng, workdir):
    """Criterion-1 path: ``group-selftest --count 10`` over seeded --seed values.

    Each round is four plain self-tests and one ``--corrupt`` negative
    control, which must fail on ``coords_vs_matrix`` alone.
    """
    plain = expect_report(0, SELFTEST_CHECKS, extra=_selftest_count)
    corrupt = expect_report(1, SELFTEST_CHECKS, failing={"coords_vs_matrix"},
                            extra=_selftest_count)
    ops = []
    for _ in range(GROUP_LAW_ROUNDS):
        for _ in range(4):
            seed = _seed(rng)
            ops.append(Op("group-selftest",
                          ["--format", "json", "--seed", seed, "group-selftest",
                           "--count", SELFTEST_COUNT], plain, seed=seed))
        seed = _seed(rng)
        ops.append(Op("group-selftest-corrupt",
                      ["--format", "json", "--seed", seed, "group-selftest",
                       "--count", SELFTEST_COUNT, "--corrupt"], corrupt, seed=seed))
    return ops


def _selftest_count(report):
    count = report["info"].get("count")
    return [] if count == SELFTEST_COUNT else ["info count %r" % (count,)]


# -- geometry -------------------------------------------------------------------

def tetrahedron_nerve(solid):
    """Nerve JSON of the tetrahedron (solid) or of its boundary sphere."""
    simplices = {"1": [list(e) for e in combinations((1, 2, 3, 4), 2)],
                 "2": [list(t) for t in combinations((1, 2, 3, 4), 3)]}
    if solid:
        simplices["3"] = [[1, 2, 3, 4]]
    return {"vertices": [1, 2, 3, 4], "simplices": simplices}


def _cech_names(solid):
    names = set()
    for tri in combinations((1, 2, 3, 4), 3):
        label = "%d%d%d" % tri
        for check in ("alpha_cocycle", "beta_cocycle", "h_cocycle",
                      "s_additivity", "sdet_cocycle"):
            names.add("%s[%s]" % (check, label))
    names.add("two_cocycle_split")
    if solid:
        names.add("two_cocycle_closed")
    return names


def _cech_corrupt_expect(solid, edge):
    """alpha_cocycle reads epsilon exactly on the triangles containing ``edge``.

    The edge starts at vertex 1, so it sits in the (i, j) or (i, k) slot of
    every triangle it lies on and enters the alpha identity without an
    e^{-s} factor.  The h identity of those triangles may also move (alpha
    enters its quadratic term); every other identity still holds.  The
    two-cocycle checks are skipped once a cocycle check fails.
    """
    names = _cech_names(solid) - {"two_cocycle_split", "two_cocycle_closed"}
    touched = ["%d%d%d" % tri for tri in combinations((1, 2, 3, 4), 3)
               if set(edge) <= set(tri)]

    def extra(report):
        res = _residuals(report)
        problems = []
        for name, value in res.items():
            label = name[name.index("[") + 1:-1]
            if name.startswith("alpha_cocycle") and label in touched:
                if abs(value - CECH_EPSILON) > TOL:
                    problems.append("%s = %r, expected %r" % (name, value, CECH_EPSILON))
            elif name.startswith("h_cocycle") and label in touched:
                continue
            elif value > TOL:
                problems.append("%s = %r should pass" % (name, value))
        return problems

    def check(rc, report, stderr):
        problems = [] if rc == 1 else ["exit status %r, expected 1" % (rc,)]
        if report is None:
            return problems + ["no JSON report on stdout"]
        got = {c["name"] for c in report["checks"]}
        if got != names:
            problems.append("check names differ: missing %s, unexpected %s"
                            % (sorted(names - got), sorted(got - names)))
        return problems + extra(report)

    return check


def _hitchin_corrupt_extra(report):
    """Adding z zbar to u adds d_zbar d_z (z zbar) = 1 to both diagonal entries."""
    res = _residuals(report)
    problems = []
    for name in ("residual[0][0]", "residual[1][1]"):
        if abs(res.get(name, 0.0) - 1.0) > TOL:
            problems.append("%s = %r, expected 1" % (name, res.get(name)))
    return problems


def _random_poly(rng, parity, degree, var, terms, gens=None):
    """Polynomial in one of z, zbar with random Grassmann coefficients.

    ``gens`` confines odd coefficients to monomials in those generators.
    """
    from gl11 import grassmann, hitchin

    coeffs = {}
    for p in range(degree + 1):
        if gens is not None:
            mono = {}
            while len(mono) < terms:
                k = 3 if rng.integers(0, 2) else 1
                idx = sorted(int(i) for i in rng.choice(gens, size=k, replace=False))
                mask = sum(1 << (i - 1) for i in idx)
                mono[mask] = complex(rng.standard_normal(), rng.standard_normal()) * 0.5
            coeff = grassmann.GrassmannElement(N, mono)
        elif parity == "odd":
            coeff = grassmann.random_odd(rng, N, num_terms=terms, scale=0.5)
        else:
            coeff = grassmann.random_even(rng, N, num_terms=terms, scale=0.5)
        coeffs[(p, 0) if var == "z" else (0, p)] = coeff
    return hitchin.LocalFunction(N, coeffs)


def hitchin_solution(rng):
    """(metric dict, Higgs dict) of a random solution of Hitchin's equation.

    v, a, delta and gamma have degree <= 4 with coefficients on all eight
    generators.  rho_h and rho_a have degree <= 1 with odd coefficients on
    generators {1, 2} and their conjugates {5, 6}: at most four such odd
    factors can multiply to a nonzero term, which keeps every intermediate
    product of ``hitchin_residual`` within the degree cap 8.
    """
    from gl11 import grassmann, hitchin

    table = grassmann.ConjugationTable.swap_halves(N)
    rho_gens = [1, 2, 5, 6]
    d = HITCHIN_DEGREE
    t = HITCHIN_TERMS
    rho_h = _random_poly(rng, "odd", 1, "z", 2, gens=rho_gens)
    rho_a = _random_poly(rng, "odd", 1, "zbar", 2, gens=rho_gens)
    v_h = _random_poly(rng, "even", d, "z", t)
    v_a = _random_poly(rng, "even", d, "zbar", t)
    delta = _random_poly(rng, "odd", d, "z", t)
    gamma = _random_poly(rng, "odd", d, "z", t)
    a = _random_poly(rng, "even", d, "z", t)
    metric = hitchin.hitchin_solution(rho_h, rho_a, v_h, v_a, delta, gamma, table)
    higgs = {"n": N, "a": a.to_dict(), "delta": delta.to_dict(),
             "gamma": gamma.to_dict()}
    return metric.to_dict(), higgs


def _add_zzbar(metric):
    """Metric dict with z zbar added to u."""
    out = json.loads(json.dumps(metric))
    out["u"]["terms"].append({"z": 1, "zbar": 1, "coeff": {
        "n": N, "terms": [{"mono": [], "re": 1.0, "im": 0.0}]}})
    return out


def _perturb_alpha(data, edge, generator):
    """Transition dict with CECH_EPSILON added to alpha's t_generator coefficient."""
    out = json.loads(json.dumps(data))
    for entry in out["edges"]:
        if tuple(entry["simplex"]) == edge:
            terms = entry["alpha"]["terms"]
            for term in terms:
                if term["mono"] == [generator]:
                    term["re"] += CECH_EPSILON
                    break
            else:
                terms.append({"mono": [generator], "re": CECH_EPSILON, "im": 0.0})
                terms.sort(key=lambda term: (len(term["mono"]), term["mono"]))
            return out
    raise ValueError("edge %r not in transition data" % (edge,))


def _pure_gauge(graph, frames, supergroup):
    """Edge coordinates R_source^{-1} R_target: every closed holonomy is 1."""
    return [supergroup.coords_product(supergroup.coords_inverse(frames[graph.source(e)]),
                                      frames[graph.target(e)])
            for e in range(graph.num_edges)]


def _cycle_arg(face):
    return ",".join("%d%s" % (e, "+" if forward else "-") for e, forward in face)


def _sdet_is_one(report):
    """Holonomies of SL(1|1) connections have Berezinian exactly 1."""
    sdet = report["info"].get("sdet", {"terms": []})
    worst = 0.0
    seen_body = False
    for term in sdet["terms"]:
        value = complex(term["re"], term["im"])
        if not term["mono"]:
            value -= 1.0
            seen_body = True
        worst = max(worst, abs(value))
    if not seen_body:
        worst = max(worst, 1.0)
    return [] if worst <= TOL else ["holonomy sdet differs from 1 by %.3e" % worst]


def _normalize_extra(graph):
    """The slice counts of a connected graph: E - rank(incidence) = E - V + 1."""
    free = graph.num_edges - graph.num_vertices + 1

    def extra(report):
        info = report["info"]
        if (info.get("free_even"), info.get("free_odd")) != (free, 2 * free):
            return ["free parameters (%r | %r), expected (%d | %d)"
                    % (info.get("free_even"), info.get("free_odd"), free, 2 * free)]
        return []

    return extra


def geometry(rng, workdir):
    """cech-verify, hitchin-residual and fatgraph commands on generated files.

    Each round holds three cech-verify calls (solid and boundary tetrahedron,
    one epsilon-corrupted negative control), three hitchin-residual calls
    (two solutions, one with z zbar added to u), one hitchin-residual call on
    a metric file without "n", and per (g, s) graph: normalize, holonomy
    along a face and check-punctures on a random connection (negative
    control), plus check-punctures on a pure-gauge connection; the (1,1)
    graph adds check-punctures on gl11's flat torus connection.
    """
    from gl11 import cech, fatgraph, supergroup

    ops = []
    nerves = {solid: _write(workdir, "nerve_%s.json" % ("solid" if solid else "boundary"),
                            tetrahedron_nerve(solid)) for solid in (True, False)}
    graphs = {}
    for gs in GRAPHS:
        graph = fatgraph.fixture_graph(*gs)
        graphs[gs] = (graph, _write(workdir, "graph_g%ds%d.json" % gs, graph.to_dict()))

    # the malformed-input operation reads the same files whatever the seed
    metric, higgs = hitchin_solution(np.random.default_rng(0))
    del metric["n"]
    no_n_path = _write(workdir, "metric_without_n.json", metric)
    no_n_higgs = _write(workdir, "higgs_for_metric_without_n.json", higgs)

    for r in range(GEOMETRY_ROUNDS):
        for solid in (True, False):
            nerve = cech.nerve_from_dict(tetrahedron_nerve(solid))
            frames = {v: supergroup.random_coords(rng, N, num_terms=CECH_FRAME_TERMS)
                      for v in nerve.vertices}
            data = cech.transition_from_frames(nerve, frames).to_dict()
            path = _write(workdir, "cech_%d_%d.json" % (r, solid), data)
            ops.append(Op("cech-verify", ["--format", "json", "cech-verify",
                                          nerves[solid], path],
                          expect_report(0, _cech_names(solid))))
        solid = bool(r % 2)
        nerve = cech.nerve_from_dict(tetrahedron_nerve(solid))
        frames = {v: supergroup.random_coords(rng, N, num_terms=CECH_FRAME_TERMS)
                  for v in nerve.vertices}
        edge = (1, int(rng.integers(2, 5)))
        generator = int(rng.integers(1, N + 1))
        data = _perturb_alpha(cech.transition_from_frames(nerve, frames).to_dict(),
                              edge, generator)
        path = _write(workdir, "cech_%d_corrupt.json" % r, data)
        ops.append(Op("cech-verify-corrupt", ["--format", "json", "cech-verify",
                                              nerves[solid], path],
                      _cech_corrupt_expect(solid, edge)))

        for k in range(3):
            metric, higgs = hitchin_solution(rng)
            if k == 2:
                metric = _add_zzbar(metric)
                kind = "hitchin-residual-corrupt"
                expect = expect_report(1, HITCHIN_CHECKS,
                                       failing={"residual[0][0]", "residual[1][1]"},
                                       extra=_hitchin_corrupt_extra)
            else:
                kind = "hitchin-residual"
                expect = expect_report(0, HITCHIN_CHECKS)
            mpath = _write(workdir, "metric_%d_%d.json" % (r, k), metric)
            hpath = _write(workdir, "higgs_%d_%d.json" % (r, k), higgs)
            ops.append(Op(kind, ["--format", "json", "hitchin-residual", mpath, hpath],
                          expect))
        ops.append(Op("hitchin-residual-no-n",
                      ["--format", "json", "hitchin-residual", no_n_path, no_n_higgs],
                      expect_usage_error(no_n_path, "n"), known_fault=True))

        for gs, (graph, gpath) in graphs.items():
            faces = graph.boundary_cycles()
            punctures = {"puncture[%d]" % k for k in range(len(faces))}
            coords = [supergroup.random_coords(rng, N, sl=True, num_terms=CONNECTION_TERMS)
                      for _ in range(graph.num_edges)]
            conn = fatgraph.connection_to_dict(fatgraph.GraphConnection(graph, coords))
            cpath = _write(workdir, "conn_%d_g%ds%d.json" % ((r,) + gs), conn)
            vertex_names = {"vertex_%s_sum[%d]" % (part, v)
                            for v in range(graph.num_vertices)
                            for part in ("h", "alpha", "beta")}
            ops.append(Op("fatgraph-normalize",
                          ["--format", "json", "fatgraph", "normalize", gpath, cpath],
                          expect_report(0, vertex_names, extra=_normalize_extra(graph))))
            face = faces[int(rng.integers(0, len(faces)))]
            ops.append(Op("fatgraph-holonomy",
                          ["--format", "json", "fatgraph", "holonomy", gpath, cpath,
                           "--cycle", _cycle_arg(face)],
                          expect_report(0, set(), extra=_sdet_is_one)))
            ops.append(Op("fatgraph-check-punctures-random",
                          ["--format", "json", "fatgraph", "check-punctures", gpath, cpath],
                          expect_report(1, punctures, failing=punctures)))

            frames = [supergroup.random_coords(rng, N, sl=True, num_terms=CONNECTION_TERMS)
                      for _ in range(graph.num_vertices)]
            flat = fatgraph.GraphConnection(graph, _pure_gauge(graph, frames, supergroup))
            fpath = _write(workdir, "flat_%d_g%ds%d.json" % ((r,) + gs),
                           fatgraph.connection_to_dict(flat))
            ops.append(Op("fatgraph-check-punctures-flat",
                          ["--format", "json", "fatgraph", "check-punctures", gpath, fpath],
                          expect_report(0, punctures)))
        x = supergroup.random_coords(rng, N, sl=True, num_terms=CONNECTION_TERMS)
        torus = fatgraph.flat_torus_connection(N, x, scale=0.6)
        tpath = _write(workdir, "torus_%d.json" % r, fatgraph.connection_to_dict(torus))
        ops.append(Op("fatgraph-check-punctures-flat",
                      ["--format", "json", "fatgraph", "check-punctures",
                       graphs[(1, 1)][1], tpath],
                      expect_report(0, {"puncture[0]"})))
    rng.shuffle(ops)
    return ops


# -- integrable -------------------------------------------------------------------

def integrable(rng, workdir):
    """gaudin-commute (m 6-8), quantize-compare (m 4-6), garnier-check (m 3-5).

    Each round runs the sizes GAUDIN_MS, QUANTIZE_MS and GARNIER_MS, each
    call with its own --seed.
    """
    ops = []
    for _ in range(INTEGRABLE_ROUNDS):
        for m in GAUDIN_MS:
            seed = _seed(rng)
            names = {"commutator[%d,%d]" % (i, j) for i in range(m) for j in range(i + 1, m)}
            names |= {"sum_zero", "fermion_number_conserved"}
            ops.append(Op("gaudin-commute", ["--format", "json", "--seed", seed,
                                             "gaudin-commute", "--m", m],
                          expect_report(0, names, extra=_info_m(m)), seed=seed, m=m))
        for m in QUANTIZE_MS:
            seed = _seed(rng)
            names = {"quantize_matches_gaudin[%d]" % i for i in range(m)}
            ops.append(Op("quantize-compare", ["--format", "json", "--seed", seed,
                                               "quantize-compare", "--m", m],
                          expect_report(0, names, extra=_info_m(m)), seed=seed, m=m))
        for m in GARNIER_MS:
            seed = _seed(rng)
            ops.append(Op("garnier-check", ["--format", "json", "--seed", seed,
                                            "garnier-check", "--m", m,
                                            "--count", GARNIER_COUNT],
                          expect_report(0, GARNIER_CHECKS), seed=seed, m=m))
    rng.shuffle(ops)
    return ops


def _info_m(m):
    def extra(report):
        got = report["info"].get("m")
        return [] if got == m else ["info m = %r, expected %d" % (got, m)]

    return extra


BUILDERS = {"group-law": group_law, "geometry": geometry, "integrable": integrable}
