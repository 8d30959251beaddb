"""Fatgraph combinatorics and graph-connection gauge tests."""

import inspect

import numpy as np
import pytest

from gl11 import fatgraph
from gl11.fatgraph import (
    FatGraph,
    GraphConnection,
    check_puncture_constraints,
    connection_from_dict,
    connection_to_dict,
    fixture_graph,
    flat_torus_connection,
    gauge_normalize,
    moduli_dims,
    random_connection,
    theta_graph,
)
from gl11.grassmann import (DEFAULT_TOL, ConjugationTable, GrassmannElement, random_even,
                            random_odd)
from gl11.hitchin import LocalMatrix
from gl11.supergroup import GroupCoords, SuperMatrix11, from_coords, random_coords

N = 8
TABLE = ConjugationTable.swap_halves(N)
FIXTURES = [(0, 3), (1, 1), (1, 2), (2, 1)]


def t(*indices):
    return GrassmannElement.monomial(N, indices)


def scalar(c):
    return GrassmannElement.scalar(N, c)


def rescaling_element(conn, kind, param) -> SuperMatrix11:
    """Matrix R such that conn.vertex_rescale(v, kind, param) maps a holonomy
    based at v to R^{-1} Hol R."""
    return from_coords(conn._rescaling_coords(kind, param))


def dumbbell_graph() -> FatGraph:
    """Two loops joined by a bridge."""
    # edge 0: loop at A (halves 0,1); edge 1: loop at B (2,3); bridge (4,5)
    return FatGraph([1, 0, 3, 2, 5, 4], [(0, 1, 4), (2, 3, 5)], orientation=[0, 2, 4])


def test_theta_graph_variants():
    assert theta_graph(genus_one=True).genus_punctures() == (1, 1)
    assert theta_graph(genus_one=False).genus_punctures() == (0, 3)


def test_dumbbell_faces_match_euler():
    g = dumbbell_graph()
    genus, s = g.genus_punctures()
    assert g.num_vertices - g.num_edges + s == 2 - 2 * genus


def test_trivalence_enforced():
    with pytest.raises(ValueError):
        FatGraph([1, 0], [(0, 1)])
    # a one-vertex trivalent graph is impossible: three half-edges cannot
    # carry a fixed-point-free pairing
    with pytest.raises(ValueError):
        FatGraph([1, 0, 2], [(0, 1, 2)])


def test_fixture_graphs_have_requested_topology():
    for (genus, s) in FIXTURES:
        graph = fixture_graph(genus, s)
        assert graph.genus_punctures() == (genus, s)
        assert graph.num_vertices == 2 * (2 * genus - 2 + s)
        assert graph.num_edges == 3 * (2 * genus - 2 + s)
        # faces partition the half-edges
        total = sum(len(face) for face in graph.boundary_cycles())
        assert total == 2 * graph.num_edges


def test_holonomy_empty_and_reversal():
    rng = np.random.default_rng(0)
    graph = theta_graph()
    conn = random_connection(rng, graph, N)
    ident = SuperMatrix11.identity(N)
    assert conn.holonomy([]).residual(ident) <= DEFAULT_TOL
    assert conn.holonomy([(0, True), (0, False)]).residual(ident) <= DEFAULT_TOL
    with pytest.raises(ValueError):
        conn.holonomy([(0, True), (0, True)])  # not contiguous


def test_vertex_rescale_zero_param_is_identity():
    rng = np.random.default_rng(1)
    graph = fixture_graph(1, 2)
    conn = random_connection(rng, graph, N)
    out = conn.vertex_rescale(0, "diag", GrassmannElement.zero(N))
    for before, after in zip(conn.coords, out.coords):
        assert after.h.residual(before.h) <= DEFAULT_TOL
        assert after.alpha.residual(before.alpha) <= DEFAULT_TOL
        assert after.beta.residual(before.beta) <= DEFAULT_TOL


def test_diag_rescale_shifts_toward_h():
    rng = np.random.default_rng(2)
    graph = theta_graph()
    conn = random_connection(rng, graph, N)
    c = scalar(0.37) + t(1, 2)
    v = graph.target(0)
    out = conn.vertex_rescale(v, "diag", c)
    for e in range(graph.num_edges):
        # all three edges point toward v on this graph
        assert out.coords[e].h.residual(conn.coords[e].h + c) <= DEFAULT_TOL
        assert out.coords[e].alpha.residual(conn.coords[e].alpha) <= DEFAULT_TOL


def test_rescale_parity_validation():
    rng = np.random.default_rng(3)
    conn = random_connection(rng, theta_graph(), N)
    from gl11.grassmann import ParityError
    with pytest.raises(ParityError):
        conn.vertex_rescale(0, "diag", t(1))
    with pytest.raises(ParityError):
        conn.vertex_rescale(0, "lower", scalar(1.0))


def _theta_based_cycle():
    # on the theta graph: edge 0 forward then edge 1 backward returns to source(0)
    return [(0, True), (1, False)]


def test_rescale_conjugates_based_holonomy():
    rng = np.random.default_rng(4)
    graph = theta_graph()
    cycle = _theta_based_cycle()
    base = graph.source(0)
    other = graph.target(0)
    for _ in range(20):
        conn = random_connection(rng, graph, N)
        hol = conn.holonomy(cycle)
        for kind, param in (("diag", random_even(rng, N, num_terms=2)),
                            ("lower", random_odd(rng, N, num_terms=2)),
                            ("upper", random_odd(rng, N, num_terms=2))):
            out = conn.vertex_rescale(base, kind, param)
            r = rescaling_element(conn, kind, param)
            expected = r.inverse() * hol * r
            assert out.holonomy(cycle).residual(expected) <= DEFAULT_TOL
            # based away from the rescaled vertex: conjugation at the midpoint
            # cancels, so a cycle through 'other' with base at 'other' is
            # conjugated only when based AT the vertex; str/sdet always agree
            assert out.holonomy(cycle).supertrace().residual(hol.supertrace()) <= DEFAULT_TOL
            assert out.holonomy(cycle).sdet().residual(hol.sdet()) <= DEFAULT_TOL
    # a cycle avoiding the vertex entirely is untouched: use the (1,2) fixture
    graph = fixture_graph(1, 2)
    conn = random_connection(rng, graph, N)
    for v in range(graph.num_vertices):
        edges_at_v = {e for e, _ in graph.incident[v]}
        loop = None
        for e in range(graph.num_edges):
            if e not in edges_at_v:
                loop = [(e, True), (e, False)]
                break
        if loop is None:
            continue
        out = conn.vertex_rescale(v, "lower", random_odd(rng, N, num_terms=2))
        assert out.holonomy(loop).residual(conn.holonomy(loop)) <= DEFAULT_TOL


def test_supertrace_invariance_under_random_rescalings():
    rng = np.random.default_rng(5)
    graph = fixture_graph(1, 1)
    conn = random_connection(rng, graph, N)
    cycle = _theta_based_cycle()
    base_str = conn.holonomy(cycle).supertrace()
    base_sdet = conn.holonomy(cycle).sdet()
    for _ in range(100):
        v = int(rng.integers(graph.num_vertices))
        kind = ("diag", "lower", "upper")[int(rng.integers(3))]
        param = (random_even(rng, N, num_terms=2) if kind == "diag"
                 else random_odd(rng, N, num_terms=2))
        conn = conn.vertex_rescale(v, kind, param)
    assert conn.holonomy(cycle).supertrace().residual(base_str) <= 1e-9
    assert conn.holonomy(cycle).sdet().residual(base_sdet) <= 1e-9


def test_same_coordinate_h_shift_variant_is_not_an_action():
    # the alternative odd move (h + gamma*alpha, alpha + gamma, beta), pairing
    # the h-shift with the coordinate being shifted, does not compose like a
    # one-parameter family: applying gamma1 then gamma2 differs from applying
    # gamma1 + gamma2 by the nonzero term gamma2 gamma1.  The implemented move
    # (h - gamma*beta/2, alpha + gamma, beta) composes exactly.
    rng = np.random.default_rng(6)
    graph = theta_graph()
    conn = random_connection(rng, graph, N)
    g1, g2 = t(1), t(2)

    def variant_move(c, gamma):
        return GroupCoords(c.h + gamma * c.alpha, c.s, c.alpha + gamma, c.beta)

    c = conn.coords[0]
    twice = variant_move(variant_move(c, g1), g2)
    once = variant_move(c, g1 + g2)
    assert twice.h.residual(once.h) > DEFAULT_TOL
    assert (twice.h - once.h).residual(g2 * g1) <= DEFAULT_TOL

    v = graph.target(0)
    good_twice = conn.vertex_rescale(v, "lower", g1).vertex_rescale(v, "lower", g2)
    good_once = conn.vertex_rescale(v, "lower", g1 + g2)
    for c1, c2 in zip(good_twice.coords, good_once.coords):
        assert c1.h.residual(c2.h) <= DEFAULT_TOL
        assert c1.alpha.residual(c2.alpha) <= DEFAULT_TOL


def test_gauge_normalize_zeroes_vertex_sums():
    rng = np.random.default_rng(7)
    for (genus, s) in FIXTURES:
        graph = fixture_graph(genus, s)
        conn = random_connection(rng, graph, N)
        normalized, report = gauge_normalize(conn)
        assert not report.info["singular"]
        assert report.ok
        assert report.worst() < 1e-9
        # idempotent: renormalizing changes nothing beyond roundoff
        again, report2 = gauge_normalize(normalized)
        for c1, c2 in zip(normalized.coords, again.coords):
            assert c1.h.residual(c2.h) <= 1e-9
            assert c1.alpha.residual(c2.alpha) <= 1e-9


def test_gauge_normalize_measured_free_params():
    # measured slice dimensions on a connected graph: the signed incidence
    # matrix has rank V - 1, so even = E - V + 1 and odd = 2(E - V + 1)
    rng = np.random.default_rng(8)
    for (genus, s) in FIXTURES:
        graph = fixture_graph(genus, s)
        conn = random_connection(rng, graph, N)
        _, report = gauge_normalize(conn)
        expected_even = graph.num_edges - graph.num_vertices + 1
        assert report.info["free_even"] == expected_even
        assert report.info["free_odd"] == 2 * expected_even
        assert report.info["residual_gauge_even"] == 1


def trivial_connection(graph):
    """The SL(1|1) connection with the identity on every edge."""
    return GraphConnection(graph, [GroupCoords.identity(N) for _ in range(graph.num_edges)])


def test_puncture_constraints_trivial_and_random():
    rng = np.random.default_rng(9)
    graph = fixture_graph(0, 3)
    trivial = trivial_connection(graph)
    report = check_puncture_constraints(trivial)
    assert report.ok
    conn = random_connection(rng, graph, N)
    report = check_puncture_constraints(conn)
    assert not report.ok  # generic connections are not flat


def test_puncture_constraints_gauge_orbit_of_trivial():
    rng = np.random.default_rng(10)
    for (genus, s) in FIXTURES:
        graph = fixture_graph(genus, s)
        conn = trivial_connection(graph)
        for _ in range(10):
            v = int(rng.integers(graph.num_vertices))
            kind = ("diag", "lower", "upper")[int(rng.integers(3))]
            param = (random_even(rng, N, num_terms=2) if kind == "diag"
                     else random_odd(rng, N, num_terms=2))
            conn = conn.vertex_rescale(v, kind, param)
        report = check_puncture_constraints(conn)
        assert report.ok, report.format_text()


def test_puncture_constraints_flat_torus():
    rng = np.random.default_rng(11)
    x = random_coords(rng, N, sl=True)
    conn = flat_torus_connection(N, x, scale=0.7)
    report = check_puncture_constraints(conn)
    assert report.ok, report.format_text()


def test_puncture_perturbation_is_localized():
    # perturbing one edge spoils exactly the two faces that edge borders
    graph = fixture_graph(0, 3)
    conn = trivial_connection(graph)
    faces = graph.boundary_cycles()
    touched = sorted(k for k, face in enumerate(faces)
                     if any(e == 0 for (e, _) in face))
    assert len(touched) == 2
    bad = GraphConnection(conn.graph, list(conn.coords), conn.table)
    bad.coords[0] = GroupCoords(scalar(0.5), GrassmannElement.zero(N),
                                GrassmannElement.zero(N), GrassmannElement.zero(N))
    report = check_puncture_constraints(bad)
    failing = sorted(c.name for c in report.failing())
    assert failing == ["puncture[%d]" % k for k in touched]


def test_measured_constrained_dims():
    rng = np.random.default_rng(12)
    for (genus, s) in FIXTURES:
        graph = fixture_graph(genus, s)
        conn = random_connection(rng, graph, N)
        report = check_puncture_constraints(conn)
        assert report.info["constrained_free_even"] == 2 * genus
        assert report.info["constrained_free_odd"] == 4 * genus


def test_moduli_dims_formulas():
    assert moduli_dims(1, 1) == (3, 4)
    assert moduli_dims(0, 3, constrained=True) == (0, 0)
    assert moduli_dims(1, 1, su=True) == (3, 2)
    assert moduli_dims(2, 1, constrained=True) == (4, 8)
    assert moduli_dims(2, 1, constrained=True, su=True) == (4, 4)
    with pytest.raises(ValueError):
        moduli_dims(2, 0)
    with pytest.raises(ValueError):
        moduli_dims(0, 2)


def test_su_mode_reality_preserved():
    rng = np.random.default_rng(13)
    graph = fixture_graph(1, 1)
    conn = random_connection(rng, graph, N, table=TABLE)
    assert conn.check_reality().ok
    for _ in range(20):
        v = int(rng.integers(graph.num_vertices))
        if rng.integers(2):
            c = random_even(rng, N, num_terms=2)
            param = (c - c.conjugate(TABLE)) * 0.5
            conn = conn.vertex_rescale(v, "diag", param)
        else:
            conn = conn.vertex_rescale(v, "odd", random_odd(rng, N, num_terms=2))
    assert conn.check_reality().ok
    with pytest.raises(ValueError):
        conn.vertex_rescale(0, "lower", t(1))
    with pytest.raises(ValueError):
        conn.vertex_rescale(0, "diag", scalar(1.0))  # not anti-real


def test_an_sl_connection_refuses_the_odd_move_naming_the_kinds_of_each_mode():
    # 'odd' pairs alpha with its conjugate, so it needs the table an SL connection lacks
    kinds = "an SL connection takes 'diag', 'lower' or 'upper', an SU connection 'diag' or 'odd'"
    sl = random_connection(np.random.default_rng(19), fixture_graph(1, 1), N)
    su = random_connection(np.random.default_rng(19), fixture_graph(1, 1), N, table=TABLE)
    for conn, kind in ((sl, "odd"), (su, "lower"), (su, "upper"), (sl, "shear")):
        with pytest.raises(ValueError, match="^rescaling kind %r: %s$" % (kind, kinds)):
            conn.vertex_rescale(0, kind, t(1))
    assert (sl.mode, su.mode) == ("sl", "su")
    with pytest.raises(AttributeError):
        su.mode = "sl"


def test_no_graded_container_takes_a_check_or_mode_switch():
    for build in (SuperMatrix11, LocalMatrix, GraphConnection, random_connection):
        assert not {"check", "mode"} & set(inspect.signature(build).parameters), build


def test_su_gauge_normalize():
    rng = np.random.default_rng(14)
    graph = fixture_graph(1, 1)
    conn = random_connection(rng, graph, N, table=TABLE)
    normalized, report = gauge_normalize(conn)
    assert report.ok
    assert normalized.check_reality().ok
    assert report.info["free_odd"] == report.info["free_even"] * 1


def test_su_gauge_normalize_counts_one_odd_move_per_even_one():
    # SU has one odd gauge move per vertex ('odd') where SL has two
    rng = np.random.default_rng(1)
    for (genus, s) in FIXTURES:
        graph = fixture_graph(genus, s)
        _, su = gauge_normalize(random_connection(rng, graph, N, table=TABLE))
        _, sl = gauge_normalize(random_connection(rng, graph, N))
        assert su.ok and sl.ok
        assert su.info["residual_gauge_odd"] == su.info["residual_gauge_even"] == 1
        assert su.info["free_odd"] == su.info["free_even"]
        assert sl.info["residual_gauge_odd"] == 2 * sl.info["residual_gauge_even"] == 2


def test_edge_reversal_equivalence():
    # reversing every edge and inverting every assignment preserves holonomy
    # supertraces of boundary cycles
    rng = np.random.default_rng(15)
    graph = theta_graph()
    conn = random_connection(rng, graph, N)
    reversed_graph = FatGraph(graph.pairing, graph.cyclic_orders,
                              orientation=[graph.head(e)
                                           for e in range(graph.num_edges)])
    from gl11.supergroup import coords_inverse
    reversed_conn = GraphConnection(
        reversed_graph, [coords_inverse(c) for c in conn.coords])
    for face, rface in zip(graph.boundary_cycles(),
                           reversed_graph.boundary_cycles()):
        st = conn.holonomy(face).supertrace()
        rst = reversed_conn.holonomy(rface).supertrace()
        assert st.residual(rst) <= DEFAULT_TOL


def test_graph_and_connection_json_roundtrip():
    rng = np.random.default_rng(16)
    graph = fixture_graph(1, 2)
    back = FatGraph.from_dict(graph.to_dict())
    assert back.genus_punctures() == (1, 2)
    assert back.edge_halves == graph.edge_halves
    conn = random_connection(rng, graph, N)
    conn2 = connection_from_dict(back, connection_to_dict(conn))
    for c1, c2 in zip(conn.coords, conn2.coords):
        assert c1.h.residual(c2.h) <= DEFAULT_TOL
        assert c1.alpha.residual(c2.alpha) <= DEFAULT_TOL
        assert c1.beta.residual(c2.beta) <= DEFAULT_TOL


def test_su_connection_json_roundtrip():
    rng = np.random.default_rng(17)
    graph = fixture_graph(1, 1)
    conn = random_connection(rng, graph, N, table=TABLE)
    data = connection_to_dict(conn)
    assert data["conjugation"] == {"pairing": list(TABLE.pairing)}
    back = connection_from_dict(graph, data)
    assert back.mode == "su"
    assert back.table.pairing == TABLE.pairing
    assert back.check_reality().ok
    for c1, c2 in zip(conn.coords, back.coords):
        assert c1.h.residual(c2.h) <= DEFAULT_TOL
        assert c1.alpha.residual(c2.alpha) <= DEFAULT_TOL
        assert c1.beta.residual(c2.beta) <= DEFAULT_TOL


def test_sl_connection_json_has_no_conjugation():
    conn = random_connection(np.random.default_rng(18), fixture_graph(1, 1), N)
    assert sorted(connection_to_dict(conn)) == ["edges", "mode", "n"]


def matrix_holonomy(conn, cycle):
    """The generic route: ordered product of assembled edge supermatrices.

    A reversed step is the matrix inverse of the stored edge, so this oracle
    shares neither the coordinate group law nor coords_inverse.
    """
    acc = None
    for e, forward in cycle:
        m = from_coords(conn.coords[e])
        m = m if forward else m.inverse()
        acc = m if acc is None else acc * m
    return acc


def closed_walks(graph):
    """Every face, each face reversed, and every face started at its second step."""
    for face in graph.boundary_cycles():
        yield face
        yield [(e, not forward) for e, forward in reversed(face)]
        yield face[1:] + face[:1]


@pytest.mark.parametrize("genus, punctures", FIXTURES)
@pytest.mark.parametrize("mode", ["sl", "su"])
def test_holonomy_matches_matrix_product(genus, punctures, mode):
    rng = np.random.default_rng(31 + 10 * genus + punctures)
    graph = fixture_graph(genus, punctures)
    table = TABLE if mode == "su" else None
    for _ in range(3):
        conn = random_connection(rng, graph, N, table=table)
        walks = list(closed_walks(graph))
        assert any(not forward for walk in walks for _, forward in walk)
        for walk in walks:
            assert (conn.holonomy(walk) - matrix_holonomy(conn, walk)).max_abs() <= 1e-12
        # open paths too: every single step in both directions
        for e in range(graph.num_edges):
            for forward in (True, False):
                step = [(e, forward)]
                assert (conn.holonomy(step) - matrix_holonomy(conn, step)).max_abs() <= 1e-12


def half_edge_laplacian(graph):
    """The graph Laplacian summed over half-edges, self-loops left out."""
    lap = np.zeros((graph.num_vertices, graph.num_vertices))
    for h in range(len(graph.pairing)):
        v, w = graph.vertex_of[h], graph.vertex_of[graph.pairing[h]]
        if v != w:
            lap[v, v] += 1.0
            lap[v, w] -= 1.0
    return lap


def incidence_graphs():
    return [fixture_graph(g, s) for g, s in FIXTURES] + [dumbbell_graph()]


def test_incidence_gram_is_the_graph_laplacian():
    # gauge_normalize solves with B B^T of the signed incidence B; the dumbbell has self-loops
    for graph in incidence_graphs():
        incidence = graph.incidence
        assert np.array_equal(incidence @ incidence.T, half_edge_laplacian(graph))


def edge_loop_incidence(graph):
    """The signed incidence edge by edge: +1 at the target, -1 at the source."""
    mat = np.zeros((graph.num_vertices, graph.num_edges))
    for e in range(graph.num_edges):
        mat[graph.target(e), e] += 1.0
        mat[graph.source(e), e] -= 1.0
    return mat


def test_incidence_is_the_edge_loop_and_read_only():
    for graph in incidence_graphs():
        want = edge_loop_incidence(graph)
        assert np.array_equal(graph.incidence, want)
        assert graph.incidence.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            graph.incidence[0, 0] = 1.0
    loops = dumbbell_graph().incidence[:, :2]  # edges 0 and 1 are self-loops
    assert not loops.any() and not np.signbit(loops).any()


# -- the half-edge table ------------------------------------------------------------

@pytest.mark.parametrize("genus, punctures", FIXTURES)
def test_incident_matches_a_scan_of_edge_halves(genus, punctures):
    graph = fixture_graph(genus, punctures)
    assert len(graph.incident) == graph.num_vertices
    for order, row in zip(graph.cyclic_orders, graph.incident):
        found = []
        for h in order:
            [step] = [(e, h == tail) for e, (tail, head) in enumerate(graph.edge_halves)
                      if h in (tail, head)]
            found.append(step)
        assert list(row) == found


def signed_float_vertex_sums(conn):
    """Vertex sums as sign * coordinate with a float sign of +-1.0, added up."""
    graph, sums = conn.graph, []
    for v in range(graph.num_vertices):
        acc = [GrassmannElement.zero(conn.n)] * 3
        for half in graph.cyclic_orders[v]:
            [(e, is_tail)] = [(e, half == tail) for e, (tail, head)
                              in enumerate(graph.edge_halves) if half in (tail, head)]
            sign = -1.0 if is_tail else 1.0
            c = conn.coords[e]
            acc = [a + sign * x for a, x in zip(acc, (c.h, c.alpha, c.beta))]
        sums.append(tuple(acc))
    return sums


def bits(x):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in x.terms.items()]


@pytest.mark.parametrize("genus, punctures", FIXTURES)
@pytest.mark.parametrize("mode", ["sl", "su"])
def test_vertex_sums_equal_the_signed_float_formula_bit_for_bit(genus, punctures, mode):
    rng = np.random.default_rng(7 + genus + 3 * punctures + (mode == "su"))
    graph = fixture_graph(genus, punctures)
    table = TABLE if mode == "su" else None
    for _ in range(3):
        conn = random_connection(rng, graph, N, table=table)
        for got, expected in zip(conn.vertex_sums(), signed_float_vertex_sums(conn)):
            assert [bits(x) for x in got] == [bits(x) for x in expected]


@pytest.mark.parametrize("genus, punctures", FIXTURES)
@pytest.mark.parametrize("mode", ["sl", "su"])
def test_vertex_sums_of_one_part_equal_that_slot_of_all_three_bit_for_bit(genus, punctures,
                                                                          mode):
    rng = np.random.default_rng(11 + genus + 3 * punctures + (mode == "su"))
    graph = fixture_graph(genus, punctures)
    conn = random_connection(rng, graph, N, table=TABLE if mode == "su" else None)
    full = conn.vertex_sums()
    for slot, part in enumerate(("h", "alpha", "beta")):
        alone = conn.vertex_sums((part,))
        assert [[bits(x) for x in sums] for sums in alone] == [
            [bits(sums[slot])] for sums in full]


def test_faces_are_walked_when_the_graph_is_built():
    graph = fixture_graph(1, 2)
    assert graph.boundary_cycles() is graph.boundary_cycles()
    assert graph.num_faces == len(graph.boundary_cycles()) == 2


@pytest.mark.parametrize("mode, stages", [("sl", ["lower", "upper", "diag"]),
                                          ("su", ["lower", "diag"])])
def test_gauge_normalize_reports_the_stage_whose_solve_fails(monkeypatch, mode, stages):
    real = fatgraph.solve_per_monomial
    table = TABLE if mode == "su" else None
    conn = random_connection(np.random.default_rng(3), theta_graph(), N, table=table)
    for fail_at, stage in enumerate(stages):
        calls = []

        def solve(mat, values, n):
            calls.append(1)
            sol, worst = real(mat, values, n)
            return sol, (1.0 if len(calls) == fail_at + 1 else worst)

        monkeypatch.setattr(fatgraph, "solve_per_monomial", solve)
        _, report = gauge_normalize(conn)
        assert [c.name for c in report.checks] == ["normalize_solve_%s" % stage]
        assert report.info["singular"] is True and len(calls) == fail_at + 1
    monkeypatch.setattr(fatgraph, "solve_per_monomial", real)
    _, report = gauge_normalize(conn)
    assert report.ok and report.info["singular"] is False
