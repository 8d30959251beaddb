"""Local Hitchin-equation calculus on a single chart.

Works with bivariate polynomials in formal variables z, zbar whose
coefficients live in a Grassmann algebra.  The Hermitian metric is
H = e^u * G with G = [[1 - rho rhobar/2, rhobar], [rho, 1 + rho rhobar/2]];
the scalar e^u cancels inside H^{-1} dH and H^{-1} Phi^dagger H, so every
quantity here stays polynomial and residuals are exact.

Inverses are closed forms too.  A function c(1 + w) with nilpotent w has
inverse c^{-1}(1 - w + w^2 - ...), a series that ends at the first zero power
of w.  An even-diagonal, odd-off-diagonal matrix has the GL(1|1) block
inverse of gl11.supergroup.block_inverse, built from the two diagonal
inverses alone, because its odd entries square to zero.
"""

from __future__ import annotations

from .grassmann import ConjugationTable, GrassmannElement, ParityError, nilpotent_series
from .supergroup import block_inverse

DEFAULT_DEGREE_CAP = 8


class DegreeOverflowError(ValueError):
    """A product left the truncated polynomial model with a nonzero term."""


class LocalFunction:
    """Polynomial in z, zbar with GrassmannElement coefficients.

    ``terms`` maps (z_degree, zbar_degree) to a coefficient.  The parity
    property is computed from the coefficients when it is read: 'even',
    'odd', or 'mixed' (the zero function counts as even).
    """

    __slots__ = ("n", "terms", "cap")

    def __init__(self, n: int, terms=None, cap: int = DEFAULT_DEGREE_CAP):
        self.n = n
        self.cap = cap
        clean = {}
        if terms:
            for (p, q), coeff in terms.items():
                if coeff.n != n:
                    raise ValueError("coefficient generator count mismatch")
                if not coeff.terms:
                    continue
                if p < 0 or q < 0:
                    raise ValueError("negative degree (%d, %d)" % (p, q))
                if p > cap or q > cap:
                    raise DegreeOverflowError(
                        "term z^%d zbar^%d exceeds the degree cap %d" % (p, q, cap))
                clean[(int(p), int(q))] = coeff
        self.terms = clean

    @property
    def parity(self) -> str:
        """'even', 'odd' or 'mixed' from the coefficient parities."""
        parities = {c.parity() for c in self.terms.values()}
        if parities <= {"even"}:
            return "even"
        if parities == {"odd"}:
            return "odd"
        return "mixed"

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n, cap=DEFAULT_DEGREE_CAP):
        return cls(n, cap=cap)

    @classmethod
    def one(cls, n, cap=DEFAULT_DEGREE_CAP):
        return cls(n, {(0, 0): GrassmannElement.one(n)}, cap=cap)

    @classmethod
    def constant(cls, coeff: GrassmannElement, cap=DEFAULT_DEGREE_CAP):
        return cls(coeff.n, {(0, 0): coeff}, cap=cap)

    @classmethod
    def monomial(cls, coeff: GrassmannElement, p: int, q: int, cap=DEFAULT_DEGREE_CAP):
        return cls(coeff.n, {(p, q): coeff}, cap=cap)

    # -- structure -----------------------------------------------------------

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(c.max_abs() <= tol for c in self.terms.values())

    def is_holomorphic(self, tol: float = 0.0) -> bool:
        return all(q == 0 for (p, q), c in self.terms.items() if c.max_abs() > tol)

    def is_antiholomorphic(self, tol: float = 0.0) -> bool:
        return all(p == 0 for (p, q), c in self.terms.items() if c.max_abs() > tol)

    def coefficient(self, p, q) -> GrassmannElement:
        return self.terms.get((p, q), GrassmannElement.zero(self.n))

    def max_abs(self) -> float:
        return max((c.max_abs() for c in self.terms.values()), default=0.0)

    def is_close(self, other, tol=1e-9):
        return (self - other).max_abs() <= tol

    # -- algebra --------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GrassmannElement):
            other = LocalFunction.constant(other, cap=self.cap)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, GrassmannElement.zero(self.n)) + c
        return LocalFunction(self.n, terms, cap=max(self.cap, other.cap))

    def __neg__(self):
        return LocalFunction(self.n, {k: -c for k, c in self.terms.items()},
                             cap=self.cap)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return LocalFunction(self.n, {k: c * other for k, c in self.terms.items()},
                                 cap=self.cap)
        if isinstance(other, GrassmannElement):
            other = LocalFunction.constant(other, cap=self.cap)
        cap = max(self.cap, other.cap)
        acc: dict[tuple, GrassmannElement] = {}
        for (p1, q1), c1 in self.terms.items():
            for (p2, q2), c2 in other.terms.items():
                key = (p1 + p2, q1 + q2)
                prod = c1 * c2
                if not prod.terms:
                    continue
                if key in acc:
                    acc[key] = acc[key] + prod
                else:
                    acc[key] = prod
        # overflow only matters for terms that survive cancellation
        acc = {k: c for k, c in acc.items() if c.terms}
        for (p, q) in acc:
            if p > cap or q > cap:
                raise DegreeOverflowError(
                    "product term z^%d zbar^%d exceeds the degree cap %d" % (p, q, cap))
        return LocalFunction(self.n, acc, cap=cap)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, GrassmannElement)):
            if isinstance(other, GrassmannElement):
                return LocalFunction.constant(other, cap=self.cap) * self
            return self * other
        return NotImplemented

    def inv(self) -> "LocalFunction":
        """Inverse of c(1 + w) with w nilpotent (all non-body content soul)."""
        body = self.coefficient(0, 0).body()
        if abs(body) <= 1e-12:
            raise ValueError("not invertible: constant-term body is zero")
        scale = 1.0 / body
        w = self * scale - LocalFunction.one(self.n, cap=self.cap)
        for (p, q), c in w.terms.items():
            if abs(c.body()) > 1e-12:
                raise ValueError(
                    "not invertible in the polynomial model: term z^%d zbar^%d "
                    "has a nonzero body" % (p, q))
        return nilpotent_series(w, lambda k: (-1.0) ** k) * scale

    # -- calculus --------------------------------------------------------------

    def d_z(self) -> "LocalFunction":
        return LocalFunction(self.n, {(p - 1, q): c * float(p)
                                      for (p, q), c in self.terms.items() if p > 0},
                             cap=self.cap)

    def d_zbar(self) -> "LocalFunction":
        return LocalFunction(self.n, {(p, q - 1): c * float(q)
                                      for (p, q), c in self.terms.items() if q > 0},
                             cap=self.cap)

    def antiderivative_z(self) -> "LocalFunction":
        """Primitive in z with zero z-constant term."""
        return LocalFunction(self.n, {(p + 1, q): c * (1.0 / (p + 1))
                                      for (p, q), c in self.terms.items()},
                             cap=self.cap)

    def conjugate(self, table: ConjugationTable) -> "LocalFunction":
        """Swap z and zbar and conjugate every coefficient."""
        return LocalFunction(self.n, {(q, p): c.conjugate(table)
                                      for (p, q), c in self.terms.items()},
                             cap=self.cap)

    def evaluate(self, z: complex, zbar: complex) -> GrassmannElement:
        out = GrassmannElement.zero(self.n)
        for (p, q), c in self.terms.items():
            out = out + c * (z ** p * zbar ** q)
        return out

    def __repr__(self):
        return "LocalFunction(n=%d, %d terms, parity=%s)" % (
            self.n, len(self.terms), self.parity)

    def to_dict(self) -> dict:
        return {"parity": self.parity,
                "terms": [{"z": p, "zbar": q, "coeff": c.to_dict()}
                          for (p, q), c in sorted(self.terms.items())]}

    @classmethod
    def from_dict(cls, n: int, data: dict, cap=DEFAULT_DEGREE_CAP) -> "LocalFunction":
        terms = {}
        for entry in data.get("terms", []):
            key = (int(entry["z"]), int(entry["zbar"]))
            coeff = GrassmannElement.from_dict(entry["coeff"])
            terms[key] = terms.get(key, GrassmannElement.zero(n)) + coeff
        return cls(n, terms, cap=cap)


def _require_parity(f: LocalFunction, parity: str, name: str) -> LocalFunction:
    if not f.is_zero() and f.parity != parity:
        raise ParityError("%s must be %s, got %s" % (name, parity, f.parity))
    return f


class LocalMatrix:
    """2x2 matrix of LocalFunctions."""

    __slots__ = ("rows", "n")

    def __init__(self, rows):
        self.rows = [[rows[0][0], rows[0][1]], [rows[1][0], rows[1][1]]]
        self.n = rows[0][0].n

    @classmethod
    def identity(cls, n, cap=DEFAULT_DEGREE_CAP):
        one = LocalFunction.one(n, cap=cap)
        zero = LocalFunction.zero(n, cap=cap)
        return cls([[one, zero], [zero, one]])

    @classmethod
    def zero(cls, n, cap=DEFAULT_DEGREE_CAP):
        zero = LocalFunction.zero(n, cap=cap)
        return cls([[zero, zero], [zero, zero]])

    def __getitem__(self, idx):
        return self.rows[idx[0]][idx[1]]

    def __add__(self, other):
        return LocalMatrix([[self.rows[i][j] + other.rows[i][j] for j in (0, 1)]
                            for i in (0, 1)])

    def __sub__(self, other):
        return LocalMatrix([[self.rows[i][j] - other.rows[i][j] for j in (0, 1)]
                            for i in (0, 1)])

    def __mul__(self, other):
        if isinstance(other, LocalMatrix):
            return LocalMatrix([
                [sum((self.rows[i][k] * other.rows[k][j] for k in (0, 1)),
                     LocalFunction.zero(self.n)) for j in (0, 1)]
                for i in (0, 1)])
        return LocalMatrix([[self.rows[i][j] * other for j in (0, 1)]
                            for i in (0, 1)])

    def d_z(self):
        return LocalMatrix([[self.rows[i][j].d_z() for j in (0, 1)] for i in (0, 1)])

    def d_zbar(self):
        return LocalMatrix([[self.rows[i][j].d_zbar() for j in (0, 1)] for i in (0, 1)])

    def supertrace(self) -> LocalFunction:
        return self.rows[0][0] - self.rows[1][1]

    def adjoint(self, table: ConjugationTable) -> "LocalMatrix":
        """Conjugate transpose; an antihomomorphism since bar(uv) = bar(v)bar(u)."""
        return LocalMatrix([[self.rows[0][0].conjugate(table),
                             self.rows[1][0].conjugate(table)],
                            [self.rows[0][1].conjugate(table),
                             self.rows[1][1].conjugate(table)]])

    def inverse(self) -> "LocalMatrix":
        """Closed-form block inverse of an even-diagonal, odd-off-diagonal matrix."""
        (a, beta), (gamma, d) = self.rows
        _require_parity(a, "even", "diagonal entry [0][0]")
        _require_parity(d, "even", "diagonal entry [1][1]")
        _require_parity(beta, "odd", "off-diagonal entry [0][1]")
        _require_parity(gamma, "odd", "off-diagonal entry [1][0]")
        a_inv, beta_inv, gamma_inv, d_inv = block_inverse(a, beta, gamma, d)
        return LocalMatrix([[a_inv, beta_inv], [gamma_inv, d_inv]])

    def max_abs(self) -> float:
        return max(self.rows[i][j].max_abs() for i in (0, 1) for j in (0, 1))

    def is_close(self, other, tol=1e-9):
        return (self - other).max_abs() <= tol


class MetricData:
    """Hermitian metric data H = g(u, rho, rhobar): u even, rho odd."""

    __slots__ = ("u", "rho", "table")

    def __init__(self, u: LocalFunction, rho: LocalFunction, table: ConjugationTable):
        _require_parity(u, "even", "u")
        _require_parity(rho, "odd", "rho")
        if table.n != u.n:
            raise ValueError("conjugation table size mismatch")
        self.u = u
        self.rho = rho
        self.table = table

    @property
    def n(self):
        return self.u.n

    def rhobar(self) -> LocalFunction:
        return self.rho.conjugate(self.table)

    def reduced_matrix(self) -> LocalMatrix:
        """G with H = e^u G; the e^u factor cancels in every curvature formula."""
        n = self.n
        rho, rhobar = self.rho, self.rhobar()
        m = rho * rhobar * 0.5
        one = LocalFunction.one(n)
        return LocalMatrix([[one - m, rhobar], [rho, one + m]])

    def to_dict(self) -> dict:
        return {"n": self.n, "u": self.u.to_dict(), "rho": self.rho.to_dict(),
                "conjugation": {"pairing": list(self.table.pairing)}}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricData":
        n = int(data["n"])
        table = ConjugationTable(data["conjugation"]["pairing"])
        return cls(LocalFunction.from_dict(n, data["u"]),
                   LocalFunction.from_dict(n, data["rho"]), table)


def chern_form(m: MetricData) -> LocalMatrix:
    """H^{-1} d_z H in closed form.

    Diagonal d_z u - (rhobar d_z rho + rho d_z rhobar)/2; off-diagonals
    d_z rhobar (upper) and d_z rho (lower).
    """
    rho, rhobar = m.rho, m.rhobar()
    diag = m.u.d_z() - (rhobar * rho.d_z() + rho * rhobar.d_z()) * 0.5
    return LocalMatrix([[diag, rhobar.d_z()], [rho.d_z(), diag]])


def chern_form_via_inverse(m: MetricData) -> LocalMatrix:
    """Independent route: d_z u * I + G^{-1} d_z G by matrix inversion."""
    g = m.reduced_matrix()
    du = m.u.d_z()
    out = g.inverse() * g.d_z()
    ident = LocalMatrix.identity(m.n)
    return out + LocalMatrix([[ident[i, j] * du for j in (0, 1)] for i in (0, 1)])


def curvature(m: MetricData) -> LocalMatrix:
    """F = d_zbar (H^{-1} d_z H)."""
    return chern_form(m).d_zbar()


def flat_solution(rho_h: LocalFunction, rho_a: LocalFunction,
                  v_h: LocalFunction, v_a: LocalFunction,
                  table: ConjugationTable) -> MetricData:
    """Zero-curvature metric from holomorphic/antiholomorphic building blocks.

    rho = rho_h + rho_a and u = v + rhobar_h rho_h / 2 + rho_a rhobar_a / 2
    with v = v_h + v_a harmonic.
    """
    for f, name in ((rho_h, "rho_h"), (v_h, "v_h")):
        if not f.is_holomorphic():
            raise ValueError("%s must be holomorphic (no zbar)" % name)
    for f, name in ((rho_a, "rho_a"), (v_a, "v_a")):
        if not f.is_antiholomorphic():
            raise ValueError("%s must be antiholomorphic (no z)" % name)
    _require_parity(rho_h, "odd", "rho_h")
    _require_parity(rho_a, "odd", "rho_a")
    _require_parity(v_h, "even", "v_h")
    _require_parity(v_a, "even", "v_a")
    rho = rho_h + rho_a
    u = (v_h + v_a
         + rho_h.conjugate(table) * rho_h * 0.5
         + rho_a * rho_a.conjugate(table) * 0.5)
    return MetricData(u, rho, table)


def higgs_matrix(a: LocalFunction, delta: LocalFunction,
                 gamma: LocalFunction) -> LocalMatrix:
    """Supertraceless local Higgs field [[a, delta], [gamma, a]]."""
    _require_parity(a, "even", "a")
    _require_parity(delta, "odd", "delta")
    _require_parity(gamma, "odd", "gamma")
    return LocalMatrix([[a, delta], [gamma, a]])


def hitchin_solution(rho_h, rho_a, v_h, v_a, delta, gamma,
                     table: ConjugationTable) -> MetricData:
    """Metric solving F = [Phi, Phi^dagger_H] for Phi = [[a, delta], [gamma, a]].

    eta = int_z delta and phi = int_z gamma enter u as eta etabar + phi phibar
    on top of the flat solution.  The diagonal part a of Phi drops out of the
    commutator and does not enter the metric.
    """
    base = flat_solution(rho_h, rho_a, v_h, v_a, table)
    for f, name in ((delta, "delta"), (gamma, "gamma")):
        if not f.is_holomorphic():
            raise ValueError("%s must be holomorphic" % name)
        _require_parity(f, "odd", name)
    eta = delta.antiderivative_z()
    phi = gamma.antiderivative_z()
    u = (base.u + eta * eta.conjugate(table) + phi * phi.conjugate(table))
    return MetricData(u, base.rho, table)


def hitchin_residual(m: MetricData, phi: LocalMatrix, tol: float = 1e-9) -> LocalMatrix:
    """F - [Phi, Phi^dagger_H] with Phi^dagger_H = H^{-1} Phi^dagger H.

    Requires the supertraceless local shape [[a, delta], [gamma, a]].
    """
    if phi.supertrace().max_abs() > tol:
        raise ValueError("hitchin_residual requires str(Phi) = 0; got %.3e"
                         % phi.supertrace().max_abs())
    _require_parity(phi[0, 0], "even", "Phi diagonal")
    _require_parity(phi[0, 1], "odd", "Phi upper-right")
    _require_parity(phi[1, 0], "odd", "Phi lower-left")
    g = m.reduced_matrix()
    adj = phi.adjoint(m.table)
    adj_h = g.inverse() * adj * g
    commutator = phi * adj_h - adj_h * phi
    return curvature(m) - commutator
