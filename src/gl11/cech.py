"""Cech cochain algebra on an abstract nerve.

A nerve is a finite simplicial complex of dimension <= 3 recording which chart
overlaps are nonempty.  Cochains take values in a Grassmann algebra and extend
to all vertex orderings by the alternating rule.  Transition data holds one
``supergroup.GroupCoords`` g_ij per listed edge; the reversed orientation is
the group inverse, and the SL(1|1) and GL(1|1) cocycle checks compare g_ik
with the coordinate group law g_ij g_jk (``supergroup.coords_product``).
Every e^{+-s_ij} is read from ``GroupCoords.twist``, formed as each GL edge
is read; a reversed edge reads the swapped pair its inverse inherits.
``gl11 cech-verify`` runs the SL check when every s_ij is zero, else the GL one.
The data keep each listed triangle's ``quadratic_term`` (alpha_2, q) of
g_ij g_jk, formed on first use: the cocycle report assembles g_ij g_jk from
it (``supergroup.product_from_term``) and ``two_cocycle_value`` returns its q,
so each g_ijk is formed once.  The edge map is private, with two writers:
``set_edge``, which checks the parts a caller supplies and drops every kept
term, and ``_from_edges``, which takes the group law's results as they are.
A nerve answers every vertex ordering of a listed simplex from one orientation
table built with it: position, permutation sign and stored tuple.  From it the
nerve also builds ``faces``, the one table of delta that every coboundary here
reads; a cochain holds one value per listed simplex, in the nerve's order.
The module also builds the quadratic 2-cochain, solves coboundary equations
exactly (least-norm, per Grassmann monomial), and checks the Higgs gluing
constraints; builders and solvers check nothing themselves.
"""

from __future__ import annotations

import cmath
from itertools import combinations, permutations

import numpy as np

from .grassmann import (DEFAULT_TOL, PRUNE_TOL, GrassmannElement, _sort_sign, json_at,
                        json_count, json_element, json_int, json_ints, json_list, json_object,
                        nan_max, require_parity)
from .reports import CheckReport
from .supergroup import (GroupCoords, coords_inverse, coords_product, from_coords,
                         product_from_term, quadratic_term)

TWO_PI_I = 2j * cmath.pi
# singular values at or below this (relative for pinv, absolute for matrix_rank)
# count as zero in the coboundary and incidence solves
RANK_TOL = 1e-9

# (permutation, sign) of the p + 1 vertex positions of a p-simplex, p = 0..3
_ORDERINGS = [[(perm, _sort_sign(perm)) for perm in permutations(range(p + 1))]
              for p in range(4)]


class ObstructionError(ValueError):
    """Raised when a coboundary equation has no solution on the nerve;
    ``residual`` is the least-norm solve's largest gap."""

    def __init__(self, residual: float):
        super().__init__("obstruction class nonzero on this nerve (residual %.3e)" % residual)
        self.residual = residual


class Nerve:
    """Vertices plus ordered simplices of dimension 1..3, closed under faces.

    Construction builds one orientation table: every vertex ordering of every
    listed simplex maps to (position, orientation sign, stored tuple), the
    sign that of the permutation taking the stored tuple to the ordering.
    From it, ``faces[p]`` holds the coboundary for p = 1..3: per listed
    p-simplex s, the (position, sign) of each face s[:k] + s[k+1:] in k
    order, the sign (-1)^k times the face's orientation sign.
    """

    def __init__(self, vertices, simplices):
        self.vertices = tuple(vertices)
        self.simplices = {p: [tuple(s) for s in simplices.get(p, [])] for p in (1, 2, 3)}
        self.simplices[0] = [(v,) for v in self.vertices]
        self._orientations = {}
        self.faces = {1: [], 2: [], 3: []}
        for p in (0, 1, 2, 3):
            for pos, s in enumerate(self.simplices[p]):
                if len(set(s)) != len(s):
                    raise ValueError("simplex %r has repeated vertices" % (s,))
                if s in self._orientations:  # an ordering of a simplex listed before
                    raise ValueError('"vertices" lists vertex %r twice' % s if p == 0
                                     else "simplex %r listed twice" % (s,))
                if p:
                    self.faces[p].append(self._face_row(s))
                for perm, sign in _ORDERINGS[p]:
                    self._orientations[tuple(s[k] for k in perm)] = (pos, sign, s)

    def _face_row(self, s) -> list:
        """(position, sign) of each face of s, in k order; lower degrees are in the table.
        The lookups run from the last k down, so that an error names the first missing
        face in combinations order."""
        row = []
        for k in reversed(range(len(s))):
            face = s[:k] + s[k + 1:]
            hit = self._orientations.get(face)
            if hit is None:
                raise ValueError('"simplices": %r has the %s, which is not listed' % (
                    s, "vertex %r" % face if len(s) == 2 else "face %r" % (face,)))
            row.append((hit[0], -hit[1] if k % 2 else hit[1]))
        return row[::-1]

    def lookup(self, p: int, simplex) -> tuple[int, int, tuple]:
        """(position, orientation sign, stored tuple) for a vertex ordering."""
        hit = self._orientations.get(tuple(simplex))
        if hit is not None and len(simplex) == p + 1:
            return hit
        if len(simplex) != p + 1 or len(set(simplex)) != p + 1:
            raise ValueError("%r is not a %d-simplex" % (simplex, p))
        raise ValueError("simplex %r not in nerve" % (simplex,))

    def num(self, p: int) -> int:
        return len(self.simplices[p])


def nerve_to_dict(nerve: Nerve) -> dict:
    return {"vertices": list(nerve.vertices),
            "simplices": {str(p): [list(s) for s in nerve.simplices[p]]
                          for p in (1, 2, 3) if nerve.simplices[p]}}


def nerve_from_dict(data: dict) -> Nerve:
    listed = data.get("simplices", {})
    if type(listed) is not dict or not all(type(lst) is list for lst in listed.values()):
        raise TypeError('"simplices" holds %r, not an object of simplex lists' % (listed,))
    simplices = {}
    for key, lst in listed.items():
        p = {"1": 1, "2": 2, "3": 3}.get(key)
        if p is None:
            raise ValueError('"simplices" has the key %r, not "1", "2" or "3"' % key)
        simplices[p] = json_at("simplices", lambda: [json_ints(s, key, p + 1) for s in lst])
    return Nerve(json_ints(data["vertices"], "vertices"), simplices)


def triangle_nerve() -> Nerve:
    return Nerve([1, 2, 3], {1: [(1, 2), (1, 3), (2, 3)], 2: [(1, 2, 3)]})


def tetrahedron_nerve(solid: bool = True) -> Nerve:
    """Full tetrahedron; with solid=False only its boundary (H^2 nonzero)."""
    edges = list(combinations((1, 2, 3, 4), 2))
    triangles = list(combinations((1, 2, 3, 4), 3))
    simplices = {1: edges, 2: triangles}
    if solid:
        simplices[3] = [(1, 2, 3, 4)]
    return Nerve([1, 2, 3, 4], simplices)


def genus1_nerve() -> Nerve:
    """Four charts glued in a cycle: no triple overlaps, so H^1 is nontrivial."""
    return Nerve([1, 2, 3, 4], {1: [(1, 2), (2, 3), (3, 4), (1, 4)]})


class Cochain:
    """Degree-p cochain with Grassmann values, alternating in the vertices.

    ``values`` is a list aligned with ``nerve.simplices[degree]``; the constructor
    takes a dict that may name any vertex ordering, and unnamed simplices read zero.
    """

    def __init__(self, nerve: Nerve, degree: int, n: int, values=None):
        if degree not in (0, 1, 2, 3):
            raise ValueError("degree must be 0..3, got %r" % degree)
        self.nerve = nerve
        self.degree = degree
        self.n = n
        self.values = [GrassmannElement.zero(n)] * nerve.num(degree)
        for simplex, val in (values or {}).items():
            pos, sign, _ = nerve.lookup(degree, tuple(simplex))
            self.values[pos] = val if sign == 1 else -val

    def _with(self, degree: int, values: list) -> "Cochain":
        """A cochain on the same nerve from values aligned with simplices[degree]."""
        out = Cochain(self.nerve, degree, self.n)
        out.values = values
        return out

    def value(self, simplex) -> GrassmannElement:
        """Oriented value on any vertex ordering of a listed simplex."""
        pos, sign, _ = self.nerve.lookup(self.degree, tuple(simplex))
        val = self.values[pos]
        return val if sign == 1 else -val

    def coboundary(self) -> "Cochain":
        """Alternating-sum differential, read from ``Nerve.faces``; raises above degree 3."""
        if self.degree >= 3:
            raise ValueError("coboundary would exceed nerve dimension 3")
        zero, values = GrassmannElement.zero(self.n), self.values
        out = []
        for row in self.nerve.faces[self.degree + 1]:
            acc = zero
            for pos, sign in row:
                acc = acc + values[pos] if sign == 1 else acc - values[pos]
            out.append(acc)
        return self._with(self.degree + 1, out)

    def __add__(self, other):
        return self._with(self.degree, [x + y for x, y in zip(self.values, other.values)])

    def __sub__(self, other):
        return self._with(self.degree, [x - y for x, y in zip(self.values, other.values)])

    def __neg__(self):
        return self._with(self.degree, [-x for x in self.values])

    def max_abs(self) -> float:
        return nan_max(v.max_abs() for v in self.values)

    def residual(self, other: "Cochain") -> float:
        """(self - other).max_abs() as a fold of GrassmannElement.residual, no difference built."""
        return nan_max(x.residual(y) for x, y in zip(self.values, other.values))


def _coboundary_matrix(nerve: Nerve, degree_from: int) -> np.ndarray:
    """Matrix of delta: C^{degree_from} -> C^{degree_from+1} in the listed bases."""
    mat = np.zeros((nerve.num(degree_from + 1), nerve.num(degree_from)))
    for r, row in enumerate(nerve.faces[degree_from + 1]):
        for pos, sign in row:
            mat[r, pos] += sign
    return mat


def solve_per_monomial(mat: np.ndarray, values, n: int):
    """Least-norm x with mat @ x = values, one linear solve per Grassmann monomial.

    ``values`` holds one Grassmann element per row of ``mat``; the solution
    has one element per column.  Returns (solution, largest residual entry),
    so an inconsistent system shows as a residual above the caller's tol; a
    residual <= PRUNE_TOL reads 0.0, so an exact solve passes even at tol 0.
    """
    masks = sorted({m for v in values for m in v.terms})
    rhs = np.array([[v.terms.get(m, 0j) for m in masks] for v in values],
                   dtype=complex).reshape(len(values), len(masks))
    sol = np.linalg.pinv(mat, rcond=RANK_TOL) @ rhs
    residual = mat @ sol - rhs
    worst = abs(residual).max() if residual.size else 0.0
    if worst <= PRUNE_TOL:  # rounding of an exact solve, as GrassmannElement.residual
        worst = 0.0
    return [GrassmannElement(n, {m: sol[r, c] for c, m in enumerate(masks)})
            for r in range(mat.shape[1])], worst


def solve_coboundary(g: Cochain, tol: float = DEFAULT_TOL) -> Cochain:
    """Least-norm f with delta f = g, solved per Grassmann monomial.

    Raises ObstructionError when the linear system is inconsistent: when the
    class of g is nonzero, and also when g is not closed, which callers
    measure and report themselves.
    """
    if g.degree == 0:
        raise ValueError("cannot solve delta f = g for a 0-cochain g")
    sol, worst = solve_per_monomial(_coboundary_matrix(g.nerve, g.degree - 1), g.values, g.n)
    if worst > tol:
        raise ObstructionError(worst)
    return g._with(g.degree - 1, sol)


def coboundary_solution_dim(nerve: Nerve, degree_from: int) -> int:
    """Dimension of the kernel of delta on degree_from-cochains (per monomial)."""
    mat = _coboundary_matrix(nerve, degree_from)
    rank = np.linalg.matrix_rank(mat, tol=RANK_TOL) if mat.size else 0
    return nerve.num(degree_from) - int(rank)  # an int, not numpy's, for the JSON writer


class TransitionData:
    """GL(1|1) transition-function data on a nerve.

    Stores one ``GroupCoords`` g_ij on each listed 1-simplex (i, j) and the
    branch integer n on each listed 2-simplex.  The reversed orientation is
    the group inverse, g_ji = coords_inverse(g_ij); the accessors h, s,
    alpha and beta read the fields of ``coords``.  The data keep the
    ``quadratic_term`` of each listed triangle, formed on first use, until
    ``set_edge`` drops them all; after construction ``set_edge`` is the only
    writer of the edge map.
    """

    def __init__(self, nerve: Nerve, n: int):
        self.nerve = nerve
        self.n = n
        identity = GroupCoords.identity(n)
        self._edges = {e: identity for e in nerve.simplices[1]}
        self.integers = {tri: 0 for tri in nerve.simplices[2]}
        self._terms = {}

    @classmethod
    def _from_edges(cls, nerve: Nerve, n: int, edges: dict) -> "TransitionData":
        """Data holding ``edges``, one g_ij on every listed 1-simplex, as they
        are: the group law built them, so no part is checked and no e^{+-s}
        is formed."""
        td = cls(nerve, n)
        td._edges = edges
        return td

    def set_edge(self, simplex, h=None, s=None, alpha=None, beta=None):
        """Replace the given fields of g_ij; the others keep their values."""
        _, sign, stored = self.nerve.lookup(1, tuple(simplex))
        if sign != 1:
            raise ValueError("set edge data on the listed orientation only")
        old = self._edges[stored]
        c = json_at(("edge %r", stored), GroupCoords,
                    old.h if h is None else h, old.s if s is None else s,
                    old.alpha if alpha is None else alpha, old.beta if beta is None else beta)
        if not c.is_sl():  # e^{+-s} now, so that an overflow names the edge
            json_at(("edge %r", stored), c.twist)
        self._edges[stored] = c
        self._terms.clear()

    def is_sl(self) -> bool:
        return all(c.is_sl() for c in self._edges.values())

    def coords(self, i, j) -> GroupCoords:
        """g_ij: the stored coordinates, or the inverse of g_ji when (j, i) is listed."""
        _, sign, stored = self.nerve.lookup(1, (i, j))
        c = self._edges[stored]
        return c if sign == 1 else coords_inverse(c)

    def quadratic_term(self, i, j, k) -> tuple:
        """``supergroup.quadratic_term(g_ij, g_jk)``; kept when (i, j, k) is a
        listed triangle in its listed order, formed afresh on any other ordering."""
        tri = (i, j, k)
        term = self._terms.get(tri)
        if term is None:
            term = quadratic_term(self.coords(i, j), self.coords(j, k))
            if tri in self.integers:
                self._terms[tri] = term
        return term

    def h(self, i, j) -> GrassmannElement:
        return self.coords(i, j).h

    def s(self, i, j) -> GrassmannElement:
        return self.coords(i, j).s

    def alpha(self, i, j) -> GrassmannElement:
        return self.coords(i, j).alpha

    def beta(self, i, j) -> GrassmannElement:
        return self.coords(i, j).beta

    def integer(self, i, j, k) -> int:
        _, sign, stored = self.nerve.lookup(2, (i, j, k))
        if sign != 1:
            raise ValueError("branch integers are defined on listed orientations")
        return self.integers[stored]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [{"simplex": list(e), **c.to_dict()}
                      for e, c in sorted(self._edges.items())],
            "triangles": [
                {"simplex": list(tri), "n": val}
                for tri, val in sorted(self.integers.items())
            ],
        }

    @classmethod
    def from_dict(cls, nerve: Nerve, data: dict) -> "TransitionData":
        td = cls(nerve, json_count(data["n"]))
        for simplex, stored, entry in _listed(nerve, 1, "edge", data.get("edges", [])):
            td.set_edge(stored, **json_at(("edge %r", simplex), lambda: {
                key: json_element(entry[key], td.n, key)
                for key in ("h", "s", "alpha", "beta")}))
        for simplex, stored, entry in _listed(nerve, 2, "triangle", data.get("triangles", [])):
            td.integers[stored] = json_at(("triangle %r", simplex),
                                          lambda: json_int(entry["n"], "n"))
        return td


def _listed(nerve: Nerve, p: int, name: str, entries):
    """(simplex, stored, entry) per entry of "edges" or "triangles": each names
    a listed p-simplex once, in its listed orientation up to an even permutation."""
    seen = set()
    for k, entry in enumerate(json_list(entries, name + "s")):
        path = (name + "s[%d]", k)
        simplex = json_at(path, lambda: tuple(
            json_ints(json_object(entry)["simplex"], "simplex", p + 1)))
        _, sign, stored = json_at(path, nerve.lookup, p, simplex)
        if sign != 1:
            raise ValueError("%s %r: reverses the listed orientation %r"
                             % (name, simplex, stored))
        if stored in seen:
            raise ValueError("%s %r: listed twice" % (name, simplex))
        seen.add(stored)
        yield simplex, stored, entry


def check_sl_cocycle(data: TransitionData, tol: float = DEFAULT_TOL) -> CheckReport:
    """Additive cocycle identities on every listed 2-simplex (SL mode, s = 0)."""
    if not data.is_sl():
        raise ValueError("check_sl_cocycle requires SL mode (s identically zero)")
    return _cocycle_report(data, tol, twisted=False)


def check_gl_cocycle(data: TransitionData, tol: float = DEFAULT_TOL) -> CheckReport:
    """Twisted cocycle identities (e^{s} factors); reduces to the SL check at s = 0."""
    return _cocycle_report(data, tol, twisted=True)


def _cocycle_report(data, tol, twisted):
    """g_ik against g_ij g_jk, assembled from the kept quadratic term, h_ik less
    2 pi i n_ijk; s and e^s if twisted, e^{s_ij} the ``twist`` of each oriented g_ij."""
    report = CheckReport()
    for (i, j, k) in data.nerve.simplices[2]:
        label = "%d%d%d" % (i, j, k)
        c_ij, c_jk, c_ik = data.coords(i, j), data.coords(j, k), data.coords(i, k)
        law = product_from_term(c_ij, c_jk, data.quadratic_term(i, j, k))
        res_h = (c_ik.h - GrassmannElement.scalar(data.n, TWO_PI_I * data.integer(i, j, k))
                 - law.h)
        report.add("alpha_cocycle[%s]" % label, c_ik.alpha.residual(law.alpha), tol)
        report.add("beta_cocycle[%s]" % label, c_ik.beta.residual(law.beta), tol)
        report.add("h_cocycle[%s]" % label, res_h.max_abs(), tol)
        if twisted:
            report.add("s_additivity[%s]" % label, c_ik.s.residual(law.s), tol)
            report.add("sdet_cocycle[%s]" % label,
                       c_ik.twist()[0].residual(c_ij.twist()[0] * c_jk.twist()[0]), tol)
    return report


def two_cocycle_value(data: TransitionData, i, j, k) -> GrassmannElement:
    """g_ijk = (alpha_ij e^{s_ij} beta_jk - e^{-s_ij} alpha_jk beta_ij) / 2, the
    quadratic term of h in the group law g_ij g_jk (``TransitionData.quadratic_term``)."""
    return data.quadratic_term(i, j, k)[1]


def two_cocycle_g(data: TransitionData) -> Cochain:
    """The quadratic 2-cochain g_ijk on every listed triangle.

    ``data`` must be cocycle data, checked by the caller: only then is g
    alternating and closed.  Nothing is checked here.
    """
    return Cochain(data.nerve, 2, data.n, {tri: two_cocycle_value(data, *tri)
                                           for tri in data.nerve.simplices[2]})


class HiggsCechData:
    """Per-chart Higgs entries (a_i, b_i even; delta_i, gamma_i odd)."""

    def __init__(self, nerve: Nerve, n: int, a=None, b=None, delta=None, gamma=None):
        self.nerve = nerve
        self.n = n
        zero = GrassmannElement.zero(n)
        verts = nerve.vertices
        self.a = dict(a) if a else {v: zero for v in verts}
        self.b = dict(b) if b else {v: zero for v in verts}
        self.delta = dict(delta) if delta else {v: zero for v in verts}
        self.gamma = dict(gamma) if gamma else {v: zero for v in verts}
        for v in verts:
            require_parity(self.a[v], "even", "a_%r" % (v,))
            require_parity(self.b[v], "even", "b_%r" % (v,))
            require_parity(self.delta[v], "odd", "delta_%r" % (v,))
            require_parity(self.gamma[v], "odd", "gamma_%r" % (v,))


def _check_higgs_sections(data: TransitionData, higgs: HiggsCechData,
                          tol: float) -> CheckReport:
    """delta_j = e^{-s_ij} delta_i and gamma_j = e^{s_ij} gamma_i on overlaps."""
    report = CheckReport()
    for (i, j) in data.nerve.simplices[1]:
        e_s, e_ms = data.coords(i, j).twist()
        report.add("delta_section[%d%d]" % (i, j),
                   higgs.delta[j].residual(e_ms * higgs.delta[i]), tol)
        report.add("gamma_section[%d%d]" % (i, j),
                   higgs.gamma[j].residual(e_s * higgs.gamma[i]), tol)
    return report


def sl_higgs_obstruction(data: TransitionData, higgs: HiggsCechData,
                         tol: float = DEFAULT_TOL):
    """Obstruction to gluing a supertraceless Higgs field.

    Builds t_ij = delta_i alpha_ij - beta_ij gamma_i, verifies the cocycle
    identity t_jk - t_ik + t_ij = 0, and attempts t = delta(eta).  Returns
    (t, eta, report); eta is None when the class [t] is nonzero.
    """
    for v in higgs.nerve.vertices:
        if higgs.b[v].max_abs() > tol:
            raise ValueError("sl case requires b = 0; b_%r is nonzero" % (v,))
    report = _check_higgs_sections(data, higgs, tol)
    if not report.ok:
        raise ValueError("delta/gamma do not transform as sections: %s"
                         % [c.name for c in report.failing()])
    t = Cochain(data.nerve, 1, data.n, {(i, j): higgs.delta[i] * data.alpha(i, j)
                                        - data.beta(i, j) * higgs.gamma[i]
                                        for (i, j) in data.nerve.simplices[1]})
    if data.nerve.simplices[2]:
        report.add("t_cocycle", t.coboundary().max_abs(), tol)
    eta = None
    try:
        eta = solve_coboundary(t, tol)
        report.add("t_exact", eta.coboundary().residual(t), tol)
        report.info["obstructed"] = False
    except ObstructionError as err:
        report.info["obstructed"] = True
        report.info["obstruction"] = str(err)
    return t, eta, report


def _c_value(g_ij: GroupCoords, higgs: HiggsCechData, i) -> GrassmannElement:
    """c_ij = beta_ij gamma_i - delta_i alpha_ij - beta_ij alpha_ij b_i."""
    return (g_ij.beta * higgs.gamma[i] - higgs.delta[i] * g_ij.alpha
            - g_ij.beta * g_ij.alpha * higgs.b[i])


def gl_higgs_constraints(data: TransitionData, higgs: HiggsCechData,
                         tol: float = DEFAULT_TOL) -> CheckReport:
    """General supertrace constraints: the two b-relations and the c-cocycle."""
    report = CheckReport()
    c_listed = {}
    for (i, j) in data.nerve.simplices[1]:
        label = "%d%d" % (i, j)
        g_ij = data.coords(i, j)
        e_s, e_ms = g_ij.twist()
        brel_alpha = g_ij.alpha * higgs.b[i] - (higgs.gamma[i] - e_ms * higgs.gamma[j])
        brel_beta = g_ij.beta * higgs.b[i] - (e_s * higgs.delta[j] - higgs.delta[i])
        report.add("b_global[%s]" % label, higgs.b[i].residual(higgs.b[j]), tol)
        report.add("brel_alpha[%s]" % label, brel_alpha.max_abs(), tol)
        report.add("brel_beta[%s]" % label, brel_beta.max_abs(), tol)
        c_ij = c_listed[(i, j)] = _c_value(g_ij, higgs, i)
        # alternation c_ji = -c_ij recomputed from base-j data (uses brel)
        c_ji = _c_value(data.coords(j, i), higgs, j)
        report.add("c_alternating[%s]" % label, (c_ji + c_ij).max_abs(), tol)
    c = Cochain(data.nerve, 1, data.n, c_listed)
    for (i, j, k), res in zip(data.nerve.simplices[2], c.coboundary().values):
        report.add("c_cocycle[%d%d%d]" % (i, j, k), res.max_abs(), tol)
    # solve c_ij = a_i - a_j, i.e. delta(a) = -c, and compare the given a
    try:
        solve_coboundary(-c, tol)
        report.info["c_exact"] = True
        report.info["a_solution_dim"] = coboundary_solution_dim(data.nerve, 0)
    except ObstructionError as err:
        report.info["c_exact"] = False
        report.info["obstruction"] = str(err)
    a = Cochain(data.nerve, 0, data.n, {(v,): higgs.a[v] for v in data.nerve.vertices})
    report.add("c_equals_a_difference", c.residual(-a.coboundary()), tol)
    return report


# -- constructors for valid random data (used by tests and fixtures) ----------

def transition_from_frames(nerve: Nerve, frames: dict) -> TransitionData:
    """Exact cocycle data g_ij = R_i^{-1} R_j from per-vertex frame coordinates.

    Frame bodies should stay small so that no 2*pi*i branch integers arise;
    the returned data has n_ijk = 0.
    """
    first = next(iter(frames.values()))
    return TransitionData._from_edges(nerve, first.n, {
        (i, j): coords_product(coords_inverse(frames[i]), frames[j])
        for (i, j) in nerve.simplices[1]})


def higgs_from_global(nerve: Nerve, frames: dict, phi) -> HiggsCechData:
    """Chart data of a fixed supermatrix phi conjugated into each frame."""
    n = phi.n
    a, b, delta, gamma = {}, {}, {}, {}
    for v in nerve.vertices:
        r = from_coords(frames[v])
        local = r.inverse() * phi * r
        a[v] = (local.a + local.d) * 0.5
        b[v] = local.a - local.d
        delta[v] = local.beta
        gamma[v] = local.gamma
    return HiggsCechData(nerve, n, a=a, b=b, delta=delta, gamma=gamma)
