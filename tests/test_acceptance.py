"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here and never loosened.  Criterion 6's unconstrained
free-parameter assertion states the closed form verbatim; the measured slice
dimension disagrees with it (see the test docstring), and the test reports
that failure honestly rather than hiding it.
"""

import time
from itertools import permutations

import numpy as np
import pytest

from gl11 import cech, fatgraph, hitchin, integrable
from gl11.cli import main as cli_main
from gl11.grassmann import (
    ConjugationTable,
    GrassmannElement,
    random_even,
    random_odd,
)
from gl11.supergroup import (
    GroupCoords,
    SuperMatrix11,
    coords_inverse,
    coords_product,
    from_coords,
    higgs_eigen,
    random_coords,
)

N = 8
TOL = 1e-9
TABLE = ConjugationTable.swap_halves(N)


def _report(name, residual, tol, runtime=None, limit=None):
    verdict = "PASS" if residual <= tol else "FAIL"
    extra = ""
    if runtime is not None:
        verdict = verdict if (limit is None or runtime < limit) else "FAIL"
        extra = ", runtime %.2f s" % runtime
    print("[%s] max residual %.3e (tol %.0e%s): %s" % (name, residual, tol,
                                                       extra, verdict))


def test_criterion_1_group_law_suite():
    """1000 random coordinate triples: group axioms, inverses, sdet = e^s."""
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    ident = SuperMatrix11.identity(N)
    for _ in range(1000):
        c1, c2, c3 = (random_coords(rng, N) for _ in range(3))
        m1, m2, m3 = from_coords(c1), from_coords(c2), from_coords(c3)
        worst = max(worst, (((m1 * m2) * m3) - (m1 * (m2 * m3))).max_abs())
        worst = max(worst, ((m1 * ident) - m1).max_abs())
        worst = max(worst, ((m1 * m1.inverse()) - ident).max_abs())
        # inverse coordinate formulas, SL and GL
        sl = GroupCoords.sl(c1.h, c1.alpha, c1.beta)
        worst = max(worst, (from_coords(sl).inverse()
                            - from_coords(GroupCoords.sl(-c1.h, -c1.alpha,
                                                         -c1.beta))).max_abs())
        worst = max(worst, (m1.inverse() - from_coords(coords_inverse(c1))).max_abs())
        worst = max(worst, (m1.sdet() - c1.s.exp()).max_abs())
        worst = max(worst, (from_coords(coords_product(c1, c2)) - m1 * m2).max_abs())
    runtime = time.time() - start
    _report("criterion 1: group law", worst, TOL, runtime, 5.0)
    assert worst <= TOL
    assert runtime < 5.0


def test_criterion_2_cocycle_suite():
    """Cocycle identities on triangle and tetrahedron nerves, 100 draws."""
    rng = np.random.default_rng(102)
    start = time.time()
    worst = 0.0
    solid = cech.tetrahedron_nerve(solid=True)
    for nerve in (cech.triangle_nerve(), solid):
        for _ in range(50):
            frames = {v: random_coords(rng, N) for v in nerve.vertices}
            data = cech.transition_from_frames(nerve, frames)
            report = cech.check_gl_cocycle(data, tol=TOL)
            worst = max(worst, report.worst())
            sl_frames = {v: random_coords(rng, N, sl=True) for v in nerve.vertices}
            sl_data = cech.transition_from_frames(nerve, sl_frames)
            worst = max(worst, cech.check_sl_cocycle(sl_data, tol=TOL).worst())
            # g alternates on every vertex ordering; delta-closedness is
            # measurable on the solid tetrahedron
            g = cech.two_cocycle_g(data)
            for tri in nerve.simplices[2]:
                for perm in permutations(tri):
                    worst = max(worst, cech.two_cocycle_value(data, *perm).residual(
                        g.value(perm)))
            if nerve.simplices[3]:
                worst = max(worst, g.coboundary().max_abs())
    # perturbation leaves exactly the injected residual on the named identity
    nerve = cech.triangle_nerve()
    frames = {v: random_coords(rng, N, sl=True) for v in nerve.vertices}
    data = cech.transition_from_frames(nerve, frames)
    eps = 0.125
    data.set_edge((1, 3), alpha=data.alpha(1, 3)
                  + GrassmannElement.monomial(N, [1], eps))
    report = cech.check_sl_cocycle(data, tol=TOL)
    failing = report.failing()
    perturb_ok = ([c.name for c in failing] == ["alpha_cocycle[123]"]
                  and abs(failing[0].residual - eps) < TOL)
    runtime = time.time() - start
    _report("criterion 2: cocycles", worst, TOL, runtime, 5.0)
    assert worst <= TOL
    assert perturb_ok
    assert runtime < 5.0


def test_criterion_3_higgs_constraints():
    """Gluing obstruction on the genus-1 nerve; c-cocycle cancellation."""
    rng = np.random.default_rng(103)
    start = time.time()
    # genus-1 nerve: the obstruction class is the signed loop sum of t
    nerve = cech.genus1_nerve()
    t1 = GrassmannElement.monomial(N, [1])
    t2 = GrassmannElement.monomial(N, [2])
    t3 = GrassmannElement.monomial(N, [3])
    data = cech.TransitionData(nerve, N)
    data.set_edge((1, 2), alpha=t2)
    data.set_edge((3, 4), alpha=t3)
    higgs = cech.HiggsCechData(nerve, N, delta={v: t1 for v in nerve.vertices})
    _, eta, report = cech.sl_higgs_obstruction(data, higgs, tol=TOL)
    obstructed_case = eta is None and report.info["obstructed"]
    data.set_edge((1, 4), alpha=t2 + t3)  # closes the loop sum
    t_c, eta, report = cech.sl_higgs_obstruction(data, higgs, tol=TOL)
    solvable_case = eta is not None and (eta.coboundary() - t_c).max_abs() <= TOL

    worst = 0.0
    tetra = cech.tetrahedron_nerve()
    for _ in range(100):
        frames = {v: random_coords(rng, N) for v in tetra.vertices}
        data = cech.transition_from_frames(tetra, frames)
        a = random_even(rng, N, num_terms=2)
        b = random_even(rng, N, num_terms=2)
        phi = SuperMatrix11(a + 0.5 * b, random_odd(rng, N, num_terms=2),
                            random_odd(rng, N, num_terms=2), a - 0.5 * b)
        higgs = cech.higgs_from_global(tetra, frames, phi)
        report = cech.gl_higgs_constraints(data, higgs, tol=TOL)
        worst = max(worst, report.worst())
    runtime = time.time() - start
    _report("criterion 3: Higgs gluing", worst, TOL, runtime, 5.0)
    assert obstructed_case and solvable_case
    assert worst <= TOL
    assert runtime < 5.0


def test_criterion_4_eigen_decomposition():
    """100 random Higgs supermatrices: both eigenvalue routes, diagonalization."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        a = random_even(rng, N, num_terms=3,
                        body=2.0 + rng.standard_normal() + 1j * rng.standard_normal())
        d = random_even(rng, N, num_terms=3,
                        body=-2.0 + rng.standard_normal() + 1j * rng.standard_normal())
        phi = SuperMatrix11(a, random_odd(rng, N, num_terms=3),
                            random_odd(rng, N, num_terms=3), d)
        eig = higgs_eigen(phi)
        st = phi.supertrace()
        st_inv = st.inv()
        # direct closed forms (sign pinned by the invariant forms below)
        worst = max(worst, (eig.lambda_plus - (phi.a + phi.beta * phi.gamma * st_inv)).max_abs())
        worst = max(worst, (eig.lambda_minus - (phi.d + phi.beta * phi.gamma * st_inv)).max_abs())
        # invariant str-based forms
        st2 = (phi * phi).supertrace()
        half = GrassmannElement.scalar(N, 0.5)
        worst = max(worst, (eig.lambda_plus - half * (st2 * st.inv() + st)).max_abs())
        worst = max(worst, (eig.lambda_minus - half * (st2 * st.inv() - st)).max_abs())
        diag = eig.p_matrix.inverse() * phi * eig.p_matrix
        worst = max(worst, diag.beta.max_abs(), diag.gamma.max_abs())
        worst = max(worst, (diag.a - eig.lambda_plus).max_abs())
        worst = max(worst, (diag.d - eig.lambda_minus).max_abs())
    _report("criterion 4: eigen-decomposition", worst, TOL)
    assert worst <= TOL


def _random_poly(rng, parity, max_deg, holo=False, anti=False):
    terms = {}
    for _ in range(3):
        p = 0 if anti else int(rng.integers(0, max_deg + 1))
        q = 0 if holo else int(rng.integers(0, max_deg + 1))
        coeff = (random_even(rng, N, num_terms=2) if parity == "even"
                 else random_odd(rng, N, num_terms=2))
        key = (p, q)
        terms[key] = terms.get(key, GrassmannElement.zero(N)) + coeff
    return hitchin.LocalFunction(N, terms)


def test_criterion_5_hitchin_residuals():
    """200 random flat/Hitchin solutions with degrees <= 4: exact residuals."""
    rng = np.random.default_rng(105)
    start = time.time()
    worst = 0.0
    zero = hitchin.LocalFunction.zero(N)
    for _ in range(100):
        rho_h = _random_poly(rng, "odd", 4, holo=True)
        rho_a = _random_poly(rng, "odd", 4, anti=True)
        v_h = _random_poly(rng, "even", 4, holo=True)
        v_a = _random_poly(rng, "even", 4, anti=True)
        flat = hitchin.flat_solution(rho_h, rho_a, v_h, v_a, TABLE)
        worst = max(worst, hitchin.curvature(flat).max_abs())
        delta = _random_poly(rng, "odd", 4, holo=True)
        gamma = _random_poly(rng, "odd", 4, holo=True)
        a = _random_poly(rng, "even", 4, holo=True)
        solved = hitchin.hitchin_solution(rho_h, rho_a, v_h, v_a, delta, gamma, TABLE)
        phi = hitchin.higgs_matrix(a, delta, gamma)
        worst = max(worst, hitchin.hitchin_residual(solved, phi).max_abs())
    # deliberate perturbation: +z zbar in u leaves the constant 1 on the diagonal
    delta = hitchin.LocalFunction.constant(GrassmannElement.monomial(N, [1]))
    good = hitchin.hitchin_solution(zero, zero, zero, zero, delta, zero, TABLE)
    bad = hitchin.MetricData(
        good.u + hitchin.LocalFunction.monomial(GrassmannElement.one(N), 1, 1),
        good.rho, TABLE)
    phi = hitchin.higgs_matrix(zero, delta, zero)
    injected = hitchin.hitchin_residual(bad, phi)[0, 0].coefficient(0, 0).max_abs()
    runtime = time.time() - start
    _report("criterion 5: Hitchin residuals", worst, TOL, runtime, 10.0)
    assert worst <= TOL
    assert injected >= 0.5
    assert runtime < 10.0


FIXTURES = [(0, 3), (1, 1), (1, 2), (2, 1)]


def test_criterion_6a_gauge_normalization():
    """Normalization succeeds on all fixtures with vertex sums below 1e-9."""
    rng = np.random.default_rng(106)
    worst = 0.0
    for (g, s) in FIXTURES:
        graph = fatgraph.fixture_graph(g, s)
        conn = fatgraph.random_connection(rng, graph, N)
        _, report = fatgraph.gauge_normalize(conn, tol=TOL)
        assert not report.info["singular"]
        worst = max(worst, report.worst())
    _report("criterion 6a: vertex sums after normalization", worst, TOL)
    assert worst <= TOL


def test_criterion_6b_unconstrained_free_parameters():
    """Free-parameter counts against the closed form (2g+2s-1 | 4g+2s-2).

    The measured constraint-slice dimensions are E - (V - 1) even and
    2(E - (V - 1)) odd, i.e. (2g+s-1 | 4g+2s-2): the odd count matches the
    closed form but the even count is smaller by s.  At (g, s) = (0, 3) the
    closed-form even value 5 exceeds the total number of even edge
    coordinates (E = 3), so no constraint-rank computation on the chart can
    reach it.  This test states the closed-form values verbatim and is
    expected to fail on the even part; the discrepancy is documented rather
    than patched over.
    """
    rng = np.random.default_rng(107)
    mismatches = []
    for (g, s) in FIXTURES:
        graph = fatgraph.fixture_graph(g, s)
        conn = fatgraph.random_connection(rng, graph, N)
        _, report = fatgraph.gauge_normalize(conn, tol=TOL)
        expected = fatgraph.moduli_dims(g, s, constrained=False)
        measured = (report.info["free_even"], report.info["free_odd"])
        print("[criterion 6b] (g,s)=(%d,%d): measured %r, closed form %r"
              % (g, s, measured, expected))
        if measured != expected:
            mismatches.append((g, s, measured, expected))
    _report("criterion 6b: unconstrained free parameters",
            float(len(mismatches)), 0.0)
    assert not mismatches, (
        "measured free-parameter counts differ from the closed form: %r"
        % mismatches)


def test_criterion_6c_constrained_free_parameters():
    """With puncture constraints the counts equal (2g | 4g)."""
    rng = np.random.default_rng(108)
    for (g, s) in FIXTURES:
        graph = fatgraph.fixture_graph(g, s)
        conn = fatgraph.random_connection(rng, graph, N)
        report = fatgraph.check_puncture_constraints(conn, tol=TOL)
        measured = (report.info["constrained_free_even"],
                    report.info["constrained_free_odd"])
        assert measured == fatgraph.moduli_dims(g, s, constrained=True), \
            "(g,s)=(%d,%d): %r" % (g, s, measured)
    _report("criterion 6c: constrained free parameters", 0.0, TOL)


def test_criterion_6d_holonomy_invariance():
    """Supertrace of a based holonomy under 100 random rescalings."""
    rng = np.random.default_rng(109)
    graph = fatgraph.fixture_graph(1, 1)
    conn = fatgraph.random_connection(rng, graph, N)
    cycle = [(0, True), (1, False)]
    base = conn.holonomy(cycle).supertrace()
    worst = 0.0
    for _ in range(100):
        v = int(rng.integers(graph.num_vertices))
        kind = ("diag", "lower", "upper")[int(rng.integers(3))]
        param = (random_even(rng, N, num_terms=2) if kind == "diag"
                 else random_odd(rng, N, num_terms=2))
        conn = conn.vertex_rescale(v, kind, param)
        worst = max(worst, (conn.holonomy(cycle).supertrace() - base).max_abs())
    _report("criterion 6d: holonomy supertrace invariance", worst, TOL)
    assert worst <= TOL


def test_criterion_7_garnier_integrability():
    """{H_i, H_j} = 0 and sum H_i = 0 for m in {2,3,4}, 50 draws each."""
    rng = np.random.default_rng(110)
    start = time.time()
    worst = 0.0
    for m in (2, 3, 4):
        for _ in range(50):
            p = integrable.random_system(rng, m)
            hams = [integrable.garnier_hamiltonian(p, i) for i in range(m)]
            total = GrassmannElement.zero(p.n)
            for h in hams:
                total = total + h
            worst = max(worst, total.max_abs())
            for i in range(m):
                for j in range(i + 1, m):
                    worst = max(worst,
                                integrable.poisson_bracket(p, hams[i], hams[j]).max_abs())
    runtime = time.time() - start
    _report("criterion 7: Garnier integrability", worst, TOL, runtime, 10.0)
    assert worst <= TOL
    assert runtime < 10.0


def test_criterion_8_gaudin_integrability():
    """Exact gl(1|1) relations; commutators for m up to 8; quantization match."""
    rng = np.random.default_rng(111)
    start = time.time()
    worst = 0.0
    for m in range(2, 9):
        p = integrable.random_system(rng, m)
        dim = 1 << m
        for i in range(m):
            n_op, e_op, plus, minus = integrable.gaudin_generators(p, i)
            worst = max(worst, np.abs(n_op @ plus - plus @ n_op - plus).max())
            worst = max(worst, np.abs(n_op @ minus - minus @ n_op + minus).max())
            worst = max(worst, np.abs(plus @ minus + minus @ plus - e_op).max())
        hams = [integrable.gaudin_hamiltonian(p, i) for i in range(m)]
        scale = max(max(np.abs(h).max() for h in hams), 1.0)
        worst = max(worst, np.abs(sum(hams)).max() / scale)
        n_tot = integrable.number_matrix(m)
        for i in range(m):
            worst = max(worst, np.abs(hams[i] @ n_tot - n_tot @ hams[i]).max() / scale)
        for i in range(m):
            for j in range(i + 1, m):
                c = hams[i] @ hams[j] - hams[j] @ hams[i]
                denom = max(np.linalg.norm(hams[i]) * np.linalg.norm(hams[j]), 1e-30)
                worst = max(worst, np.linalg.norm(c) / denom)
        if m <= 4:
            for i in range(m):
                classical = integrable.garnier_hamiltonian(p, i)
                q = integrable.quantize(p, classical, hbar=1.0)
                worst = max(worst, np.abs(q - hams[i]).max())
    runtime = time.time() - start
    _report("criterion 8: Gaudin integrability", worst, TOL, runtime, 60.0)
    assert worst <= TOL
    assert runtime < 60.0


def test_criterion_9_negative_controls(capsys, tmp_path):
    """Each suite has a corrupted fixture failing with a named residual."""
    import json
    import pathlib

    fixtures = pathlib.Path(fatgraph.__file__).parent / "fixtures"

    # group suite: injected corruption surfaces on the named check
    code = cli_main(["--format", "json", "group-selftest", "--count", "3",
                     "--corrupt"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [c["name"] for c in out["checks"] if not c["passed"]] == ["coords_vs_matrix"]

    # cech suite: dropped quadratic h-correction fails exactly the h identity
    code = cli_main(["--format", "json", "cech-verify",
                     str(fixtures / "nerve_tetrahedron_boundary.json"),
                     str(fixtures / "cech_tetra_corrupt_h.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    bad = [c["name"] for c in out["checks"] if not c["passed"]]
    assert bad and all(name.startswith("h_cocycle") for name in bad)

    # hitchin suite: perturbed metric leaves residual >= 0.5 on the diagonal
    code = cli_main(["--format", "json", "hitchin-residual",
                     str(fixtures / "metric_example_corrupt.json"),
                     str(fixtures / "higgs_example.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    failing = {c["name"]: c["residual"] for c in out["checks"] if not c["passed"]}
    assert failing.get("residual[0][0]", 0.0) >= 0.5

    # fatgraph suite: a non-flat connection fails the puncture checks by name
    code = cli_main(["--format", "json", "fatgraph", "check-punctures",
                     str(fixtures / "fatgraph_g1s1.json"),
                     str(fixtures / "connection_g1s1_random.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert any(c["name"].startswith("puncture") and not c["passed"]
               for c in out["checks"])

    # integrable suite: corrupting one Hamiltonian breaks commutativity
    rng = np.random.default_rng(112)
    p = integrable.random_system(rng, 3)
    h0 = integrable.garnier_hamiltonian(p, 0)
    h1 = integrable.garnier_hamiltonian(p, 1)
    theta_eta = integrable.site_products(p.m)[2]
    corrupted = h1 + 0.5 * theta_eta[0][1]  # theta_0 eta_1
    residual = integrable.poisson_bracket(p, h0, corrupted).max_abs()
    assert residual > TOL
    _report("criterion 9: negative controls", 0.0, TOL)
