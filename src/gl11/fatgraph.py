"""Trivalent fatgraphs and SL(1|1)/SU(1|1) graph connections.

A fatgraph is stored by half-edges: a fixed-point-free pairing involution,
a partition of the half-edges into trivalent vertices with a cyclic order at
each vertex, and an orientation (a tail half-edge per edge).  Boundary cycles
come from the face permutation "partner, then next in the cyclic order".
Construction builds one half-edge table, half-edge -> (edge, is_tail), and
from it ``incident`` (each vertex's (edge, is_tail) in cyclic order) and the
signed incidence matrix ``incidence`` (+1 at the target, -1 at the source);
faces are walked once from the same table, and vertex sums, gauge
normalization and the puncture counts all read these.

A graph connection assigns SL(1|1) coordinates (h, alpha, beta) to every
oriented edge with the reversal rule g_rev = g^{-1}.  Vertex rescalings are
implemented as genuine gauge transformations: every incident edge, written in
its toward-vertex orientation, is right-multiplied by one fixed one-parameter
subgroup element, so based holonomies are conjugated and their supertrace and
Berezinian are exactly invariant.  (In coordinates the odd moves shift h by
-(gamma beta)/2 resp. -(gamma alpha)/2; a same-coordinate shift h + gamma
alpha paired with alpha + gamma is not a group action and would break
holonomy invariance.)

A connection is SU(1|1) exactly when it holds a conjugation table, and
``mode`` ('sl' or 'su') is read from that; the table's reality conditions
(h_bar = -h, alpha_bar = -beta) are checked when a caller builds the
connection (``GraphConnection(...)``); a gauge move keeps them and s = 0, so
its result is built unscanned (``GraphConnection._trusted``).
The file format keeps its "mode" key: ``connection_from_dict`` reads the
table of an "su" file, and ``connection_to_dict`` writes "mode" back.  The
coordinates a file supplies are checked (``GroupCoords(...)``); a rescaling
move checks its kind and parameter and then builds its subgroup element
unscanned (``GroupCoords._graded``).
"""

from __future__ import annotations

from itertools import product as _iterproduct

import numpy as np

from .cech import RANK_TOL, solve_per_monomial
from .grassmann import (DEFAULT_TOL, ConjugationTable, GrassmannElement, json_at,
                        json_count, json_element, json_int, json_list, json_object, require_parity)
from .reports import CheckReport
from .supergroup import (
    GroupCoords,
    SuperMatrix11,
    coords_inverse,
    coords_product,
    from_coords,
    random_coords,
)


class FatGraph:
    """Half-edge fatgraph: pairing involution, cyclic orders, orientation.

    Each error about an argument starts with its name, which is also the
    key that holds it in a fatgraph file: ``"cyclic_orders": vertex [0, 1]
    is not trivalent``.
    """

    def __init__(self, pairing, cyclic_orders, orientation=None):
        pairing = tuple(pairing)
        size = len(pairing)
        if size % 2:
            raise ValueError('"pairing": odd number of half-edges')
        if sorted(pairing) != list(range(size)):
            raise ValueError('"pairing": not a permutation of 0..%d' % (size - 1))
        for h, p in enumerate(pairing):
            if p == h or pairing[p] != h:
                raise ValueError('"pairing": not a fixed-point-free involution at %d' % h)
        self.pairing = pairing
        self.cyclic_orders = tuple(tuple(order) for order in cyclic_orders)
        seen = [False] * size
        for order in self.cyclic_orders:
            if len(order) != 3:
                raise ValueError('"cyclic_orders": vertex %s is not trivalent' % list(order))
            for h in order:
                if not 0 <= h < size:
                    raise ValueError('"cyclic_orders": vertex %s: half-edge %d is not in 0..%d'
                                     % (list(order), h, size - 1))
                if seen[h]:
                    raise ValueError('"cyclic_orders": half-edge %d assigned to two vertices'
                                     % h)
                seen[h] = True
        if not all(seen):
            raise ValueError('"cyclic_orders": some half-edges missing from vertices')
        if not self.cyclic_orders:
            raise ValueError('"cyclic_orders": a fatgraph needs at least one vertex')
        self.vertex_of = [0] * size
        for v, order in enumerate(self.cyclic_orders):
            for h in order:
                self.vertex_of[h] = v
        # edges in order of their smaller half-edge; orientation = tail half-edge
        self.edge_halves = [(h, pairing[h]) for h in range(size) if h < pairing[h]]
        if orientation is not None:
            if len(orientation) != len(self.edge_halves):
                raise ValueError('"orientation": needs one tail half-edge per edge')
            for e, tail in enumerate(orientation):
                lo, hi = self.edge_halves[e]
                if tail != lo and tail != hi:
                    raise ValueError('"orientation": half-edge %d is not on edge %d'
                                     % (tail, e))
                self.edge_halves[e] = (lo, hi) if tail == lo else (hi, lo)
        self._edge_of = {h: (e, h == tail)  # half-edge -> (edge, is_tail)
                         for e, (tail, head) in enumerate(self.edge_halves) for h in (tail, head)}
        self.incident = tuple(tuple(self._edge_of[h] for h in order)
                              for order in self.cyclic_orders)
        self.incidence = np.zeros((self.num_vertices, self.num_edges))
        for v, row in enumerate(self.incident):
            for e, is_tail in row:
                self.incidence[v, e] += -1.0 if is_tail else 1.0
        self.incidence.flags.writeable = False
        self._check_connected()
        self._faces = self._walk_faces()

    def _check_connected(self):
        reach = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for h in self.cyclic_orders[v]:
                w = self.vertex_of[self.pairing[h]]
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        if len(reach) != self.num_vertices:
            raise ValueError('"pairing": the fatgraph is not connected')

    def _walk_faces(self) -> tuple:
        """Orbits of the face permutation as tuples of (edge, forward) steps."""
        faces = []
        visited = set()
        for start in range(len(self.pairing)):
            if start in visited:
                continue
            cycle = []
            h = start
            while True:
                visited.add(h)
                cycle.append(self._edge_of[h])
                h = self.next_at_vertex(self.pairing[h])
                if h == start:
                    break
            faces.append(tuple(cycle))
        return tuple(faces)

    @property
    def num_vertices(self) -> int:
        return len(self.cyclic_orders)

    @property
    def num_edges(self) -> int:
        return len(self.edge_halves)

    def tail(self, e: int) -> int:
        return self.edge_halves[e][0]

    def head(self, e: int) -> int:
        return self.edge_halves[e][1]

    def source(self, e: int) -> int:
        return self.vertex_of[self.tail(e)]

    def target(self, e: int) -> int:
        return self.vertex_of[self.head(e)]

    def next_at_vertex(self, h: int) -> int:
        order = self.cyclic_orders[self.vertex_of[h]]
        return order[(order.index(h) + 1) % 3]

    def boundary_cycles(self) -> tuple:
        """Faces as tuples of (edge, forward) steps; each step runs h -> pair(h).

        The faces are walked once, when the graph is built."""
        return self._faces

    @property
    def num_faces(self) -> int:
        return len(self._faces)

    def genus_punctures(self) -> tuple[int, int]:
        """(g, s) from V - E + s = 2 - 2g."""
        s = self.num_faces
        euler = self.num_vertices - self.num_edges + s
        if euler % 2:
            raise ValueError("inconsistent Euler characteristic %d" % euler)
        return (2 - euler) // 2, s

    def to_dict(self) -> dict:
        return {"half_edges": list(range(len(self.pairing))),
                "pairing": list(self.pairing),
                "cyclic_orders": [list(o) for o in self.cyclic_orders],
                "orientation": [tail for (tail, _) in self.edge_halves]}

    @classmethod
    def from_dict(cls, data: dict) -> "FatGraph":
        """{"pairing": [...], "cyclic_orders": [[...], ...], "orientation": [...]}."""
        orders = json_list(data["cyclic_orders"], "cyclic_orders")
        orientation = data.get("orientation")
        return cls(_half_edges(data["pairing"], "pairing"),
                   [_half_edges(order, "cyclic_orders") for order in orders],
                   orientation=None if orientation is None
                   else _half_edges(orientation, "orientation"))


def _half_edges(value, field: str) -> list:
    return [json_int(h, field) for h in json_list(value, field)]


# -- fixture graphs -----------------------------------------------------------

def theta_graph(genus_one: bool = True) -> FatGraph:
    """Two vertices joined by three edges; cyclic order picks (1,1) or (0,3)."""
    pairing = [1, 0, 3, 2, 5, 4]
    orders = [(0, 2, 4), (1, 3, 5)] if genus_one else [(0, 2, 4), (1, 5, 3)]
    return FatGraph(pairing, orders, orientation=[0, 2, 4])


def _complete_graph_edges(pairs):
    """Half-edge pairing and per-vertex half-edge lists for given vertex pairs."""
    pairing = []
    at_vertex: dict[int, list[int]] = {}
    for e, (a, b) in enumerate(pairs):
        pairing.extend([2 * e + 1, 2 * e])
        at_vertex.setdefault(a, []).append(2 * e)
        at_vertex.setdefault(b, []).append(2 * e + 1)
    return pairing, at_vertex


def _search_cyclic_orders(pairs, target):
    """First cyclic-order assignment (fixed enumeration) hitting (g, s)."""
    pairing, at_vertex = _complete_graph_edges(pairs)
    vertices = sorted(at_vertex)
    options = []
    for v in vertices:
        a, b, c = at_vertex[v]
        options.append([(a, b, c), (a, c, b)])
    for combo in _iterproduct(*options):
        graph = FatGraph(pairing, combo,
                         orientation=[2 * e for e in range(len(pairs))])
        if graph.genus_punctures() == target:
            return graph
    raise ValueError("no cyclic order with (g, s) = %r on this graph" % (target,))


def fixture_graph(genus: int, punctures: int) -> FatGraph:
    """Shipped trivalent fatgraph for (g, s) in {(0,3), (1,1), (1,2), (2,1)}."""
    key = (genus, punctures)
    if key == (1, 1):
        return theta_graph(genus_one=True)
    if key == (0, 3):
        return theta_graph(genus_one=False)
    if key == (1, 2):
        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        return _search_cyclic_orders(k4, (1, 2))
    if key == (2, 1):
        k33 = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
        return _search_cyclic_orders(k33, (2, 1))
    raise ValueError("no shipped fixture for (g, s) = %r" % (key,))


# -- graph connections --------------------------------------------------------

class GraphConnection:
    """SL(1|1) group coordinates on every oriented edge; an SU(1|1) connection
    exactly when it holds a conjugation table, whose reality conditions its
    coordinates must meet."""

    def __init__(self, graph: FatGraph, coords, table=None):
        if len(coords) != graph.num_edges:
            raise ValueError("need one coordinate triple per edge")
        for c in coords:
            if not c.is_sl():
                raise ValueError("graph connections use SL coordinates (s = 0)")
        self.graph = graph
        self.coords = list(coords)
        self.table = table
        self.n = coords[0].n if coords else 0
        if table is not None and not self.check_reality().ok:
            raise ValueError("coordinates violate the SU(1|1) reality conditions")

    @classmethod
    def _trusted(cls, graph: FatGraph, coords: list, table, n: int) -> "GraphConnection":
        """A connection whose coordinates are SL and, with a table, real by
        construction (a gauge move of a connection): no scan."""
        conn = object.__new__(cls)
        conn.graph, conn.coords, conn.table, conn.n = graph, coords, table, n
        return conn

    @property
    def mode(self) -> str:
        """'su' when the connection holds a conjugation table, else 'sl'."""
        return "sl" if self.table is None else "su"

    def edge_coords(self, e: int, forward: bool = True) -> GroupCoords:
        return self.coords[e] if forward else coords_inverse(self.coords[e])

    def check_reality(self, tol: float = DEFAULT_TOL) -> CheckReport:
        """h_bar = -h and alpha_bar = -beta on every edge (SU form)."""
        report = CheckReport()
        for e, c in enumerate(self.coords):
            report.add("su_h[%d]" % e,
                       (c.h.conjugate(self.table) + c.h).max_abs(), tol)
            report.add("su_odd[%d]" % e,
                       (c.alpha.conjugate(self.table) + c.beta).max_abs(), tol)
        return report

    def holonomy(self, cycle) -> SuperMatrix11:
        """Ordered product of the edge elements along (edge, forward) steps.

        The steps are folded in coordinates by the exact group law
        (``coords_product``, a reversed step contributing ``coords_inverse``)
        and the supermatrix is assembled once at the end, so no 2x2
        supermatrix product is formed.  An empty cycle gives the identity; a
        step naming no edge, or one that does not start where the previous
        step ended, raises ValueError naming the step.
        """
        if not cycle:
            return SuperMatrix11.identity(self.n)
        graph = self.graph
        prev_target = None
        acc = None
        for step, (e, forward) in enumerate(cycle):
            if not 0 <= e < graph.num_edges:
                raise ValueError("cycle step %d: edge %r is not in 0..%d"
                                 % (step, e, graph.num_edges - 1))
            src = graph.source(e) if forward else graph.target(e)
            dst = graph.target(e) if forward else graph.source(e)
            if prev_target is not None and src != prev_target:
                raise ValueError("cycle step %d: edge %d does not start where step %d ended"
                                 % (step, e, step - 1))
            prev_target = dst
            c = self.edge_coords(e, forward)
            acc = c if acc is None else coords_product(acc, c)
        return from_coords(acc)

    def _apply_gauge(self, elements: dict) -> "GraphConnection":
        """Gauge transformation by one group element per vertex.

        Edges in their stored orientation map to R_source^{-1} g R_target, so
        a holonomy based at v is conjugated to R_v^{-1} Hol R_v.
        """
        graph = self.graph
        new = []
        for e, c in enumerate(self.coords):
            src, dst = graph.source(e), graph.target(e)
            out = c
            if src in elements:
                out = coords_product(coords_inverse(elements[src]), out)
            if dst in elements:
                out = coords_product(out, elements[dst])
            new.append(out)
        # the group law keeps s = 0, and an SU connection is moved only by SU
        # elements (``_rescaling_coords``), which keep its reality conditions
        return GraphConnection._trusted(graph, new, self.table, self.n)

    def _rescaling_coords(self, kind: str, param: GrassmannElement) -> GroupCoords:
        """Coordinates of the subgroup element of a rescaling kind, built after
        the kind and the parameter are checked."""
        if kind not in (("diag", "odd") if self.mode == "su" else ("diag", "lower", "upper")):
            raise ValueError("rescaling kind %r: an SL connection takes 'diag', 'lower' or "
                             "'upper', an SU connection 'diag' or 'odd'" % (kind,))
        zero = GrassmannElement.zero(self.n)
        if kind == "diag":
            require_parity(param, "even", "diag rescaling parameter")
            if self.mode == "su" and (param.conjugate(self.table) + param).max_abs() > DEFAULT_TOL:
                raise ValueError("SU diag parameter must satisfy bar(c) = -c")
            return GroupCoords._graded(param, zero, zero, zero)
        require_parity(param, "odd", "%s rescaling parameter" % kind)
        if kind == "lower":
            return GroupCoords._graded(zero, zero, param, zero)
        if kind == "upper":
            return GroupCoords._graded(zero, zero, zero, param)
        return GroupCoords._graded(zero, zero, param, -param.conjugate(self.table))

    def vertex_rescale(self, v: int, kind: str, param: GrassmannElement):
        """Gauge move at one vertex by a one-parameter subgroup element.

        kind 'diag' takes an even parameter c (toward-v edges gain h + c);
        'lower'/'upper' take an odd parameter shifting alpha resp. beta.  An
        SU connection takes only 'diag' with anti-real c and the paired move
        'odd', which needs its conjugation table.
        """
        return self._apply_gauge({v: self._rescaling_coords(kind, param)})

    # -- gauge constraints ----------------------------------------------------

    def vertex_sums(self, parts=("h", "alpha", "beta")):
        """Signed sums of the coordinate parts named in ``parts`` at each vertex,
        a tuple per vertex; toward-v terms count +."""
        zero = GrassmannElement.zero(self.n)
        sums = []
        for row in self.graph.incident:
            acc = [zero] * len(parts)
            for e, is_tail in row:
                c = self.coords[e]
                for k, part in enumerate(parts):
                    x = getattr(c, part)
                    acc[k] = acc[k] - x if is_tail else acc[k] + x
            sums.append(tuple(acc))
        return sums


def gauge_normalize(conn: GraphConnection, tol: float = DEFAULT_TOL):
    """Bring all vertex sums to zero; returns (connection, report).

    Solves the odd sectors first (lower moves for alpha, upper for beta, which
    also perturb h), then the diagonal sector for h.  The report carries the
    post-normalization sums, the measured free-parameter counts of the
    constraint slice, and the residual gauge dimensions (Laplacian kernel).
    """
    graph = conn.graph
    n = conn.n
    incidence = graph.incidence
    lap = incidence @ incidence.T  # the graph Laplacian; a self-loop's column is zero
    report = CheckReport()

    # (check name, rescaling kind, summed part); on an SU connection alpha and beta
    # sums are conjugate-paired, so one 'odd' move fixes both
    stages = ([("lower", "odd", "alpha"), ("diag", "diag", "h")] if conn.mode == "su" else
              [("lower", "lower", "alpha"), ("upper", "upper", "beta"), ("diag", "diag", "h")])
    out = conn
    for check, kind, part in stages:
        params, worst = solve_per_monomial(
            lap, [-total for (total,) in out.vertex_sums((part,))], n)
        if worst > tol:
            report.add("normalize_solve_%s" % check, worst, tol)
            report.info["singular"] = True
            return out, report
        if conn.mode == "su" and kind == "diag":
            # keep the diagonal parameters anti-real so reality is preserved
            params = [(p - p.conjugate(conn.table)) * 0.5 for p in params]
        out = out._apply_gauge({v: conn._rescaling_coords(kind, p)
                                for v, p in enumerate(params)})

    for v, (h, alpha, beta) in enumerate(out.vertex_sums()):
        report.add("vertex_h_sum[%d]" % v, h.max_abs(), tol)
        report.add("vertex_alpha_sum[%d]" % v, alpha.max_abs(), tol)
        report.add("vertex_beta_sum[%d]" % v, beta.max_abs(), tol)

    rank = int(np.linalg.matrix_rank(incidence, tol=RANK_TOL))
    odd = odd_per_even(conn.mode == "su")
    report.info["singular"] = False
    report.info["free_even"] = graph.num_edges - rank
    report.info["free_odd"] = odd * (graph.num_edges - rank)
    report.info["residual_gauge_even"] = graph.num_vertices - rank
    report.info["residual_gauge_odd"] = odd * (graph.num_vertices - rank)
    return out, report


def check_puncture_constraints(conn: GraphConnection, tol: float = DEFAULT_TOL) -> CheckReport:
    """Deviation of each boundary holonomy from the identity, plus dim counts."""
    graph = conn.graph
    report = CheckReport()
    ident = SuperMatrix11.identity(conn.n)
    faces = graph.boundary_cycles()
    for k, face in enumerate(faces):
        hol = conn.holonomy(face)
        report.add("puncture[%d]" % k, hol.residual(ident), tol)
    # measured free parameters once the linearized face constraints are added
    incidence = graph.incidence
    face_rows = np.zeros((len(faces), graph.num_edges))
    for k, face in enumerate(faces):
        for (e, forward) in face:
            face_rows[k, e] += 1.0 if forward else -1.0
    combined = np.vstack([incidence, face_rows])
    rank = int(np.linalg.matrix_rank(combined, tol=RANK_TOL))
    e_count = graph.num_edges
    report.info["constrained_free_even"] = e_count - rank
    report.info["constrained_free_odd"] = odd_per_even(conn.mode == "su") * (e_count - rank)
    report.info["num_punctures"] = len(faces)
    genus, s = graph.genus_punctures()
    report.info["closed_form_constrained"] = moduli_dims(
        genus, s, constrained=True, su=conn.mode == "su")
    return report


def odd_per_even(su: bool) -> int:
    """Odd directions per even one: alpha and beta on SL; on SU beta is alpha's
    conjugate, so one."""
    return 1 if su else 2


def moduli_dims(genus: int, punctures: int, constrained: bool = False,
                su: bool = False) -> tuple[int, int]:
    """Closed-form chart dimensions of the flat-connection moduli."""
    if genus < 0 or punctures < 1 or 2 * genus - 2 + punctures <= 0:
        raise ValueError("need g >= 0, s >= 1 and 2g - 2 + s > 0, got (g, s) = (%d, %d)"
                         % (genus, punctures))
    if constrained:
        return 2 * genus, odd_per_even(su) * 2 * genus
    return 2 * genus + 2 * punctures - 1, odd_per_even(su) * (2 * genus + punctures - 1)


# -- random and file-backed connections ---------------------------------------

def random_connection(rng, graph: FatGraph, n: int, table=None,
                      scale: float = 0.4) -> GraphConnection:
    """Random SL connection, or SU (h anti-real, beta = -bar(alpha)) given a table."""
    coords = []
    for _ in range(graph.num_edges):
        c = random_coords(rng, n, sl=True, scale=scale)
        if table is not None:
            c = GroupCoords._graded((c.h - c.h.conjugate(table)) * 0.5, c.s, c.alpha,
                                    -c.alpha.conjugate(table))
        coords.append(c)
    return GraphConnection(graph, coords, table)


def flat_torus_connection(n: int, x: GroupCoords, scale) -> GraphConnection:
    """Puncture-flat connection on the (1,1) theta graph.

    Loops around the single puncture are commutators; taking the second loop
    coordinate proportional to the first makes the commutator exactly 1.
    """
    graph = theta_graph(genus_one=True)
    zero = GrassmannElement.zero(n)
    ident = GroupCoords.identity(n)
    y = GroupCoords(x.h * 0.3, zero, scale * x.alpha, scale * x.beta)
    return GraphConnection(graph, [ident, x, y])


def connection_to_dict(conn: GraphConnection) -> dict:
    su = {"conjugation": {"pairing": list(conn.table.pairing)}} if conn.mode == "su" else {}
    return {"mode": conn.mode, "n": conn.n, **su,
            "edges": [{"edge": e, "h": c.h.to_dict(), "alpha": c.alpha.to_dict(),
                       "beta": c.beta.to_dict()}
                      for e, c in enumerate(conn.coords)]}


def connection_from_dict(graph: FatGraph, data: dict) -> GraphConnection:
    """Connection from its dict; unlisted edges carry the identity.

    Each ``"edge"`` must be an integer edge index of ``graph``, listed at
    most once, and its "h", "alpha" and "beta" elements on the file's "n"
    generators; anything else raises an error naming the entry.
    """
    n = json_count(data["n"])
    coords = [GroupCoords.identity(n) for _ in range(graph.num_edges)]
    listed = set()
    for k, entry in enumerate(json_list(data.get("edges", []), "edges")):
        e, c = json_at(("edges[%d]", k), _edge_coords, entry, graph, n, listed)
        coords[e] = c
    mode = data.get("mode", "sl")
    if mode not in ("sl", "su"):
        raise ValueError('"mode" holds %r, not "sl" or "su"' % (mode,))
    table = (json_at("conjugation", ConjugationTable.from_dict, data["conjugation"], n)
             if mode == "su" else None)
    return GraphConnection(graph, coords, table)


def _edge_coords(entry, graph: FatGraph, n: int, listed: set):
    """(e, g_e) of one "edges" entry; e joins listed."""
    e = json_object(entry)["edge"]
    if type(e) is not int or not 0 <= e < graph.num_edges:  # bool is a subclass of int
        raise ValueError('"edge" must be an edge index in 0..%d, got %r'
                         % (graph.num_edges - 1, e))
    if e in listed:
        raise ValueError('"edge" %d is listed twice' % e)
    listed.add(e)
    h, alpha, beta = (json_element(entry[key], n, key) for key in ("h", "alpha", "beta"))
    return e, GroupCoords(h, GrassmannElement.zero(n), alpha, beta)
