"""Local Hitchin-equation calculus on a single chart.

Works with bivariate polynomials in formal variables z, zbar whose
coefficients live in a Grassmann algebra.  The Hermitian metric is
H = e^u * G with G = [[1 - rho rhobar/2, rhobar], [rho, 1 + rho rhobar/2]];
the scalar e^u cancels inside H^{-1} dH and H^{-1} Phi^dagger H, so every
quantity here stays polynomial and residuals are exact.

Polynomials are exact maps from (z degree, zbar degree) to coefficient, with
no degree bound: sums, products and derivatives never need truncating.

Inverses are closed forms too.  A function c(1 + w) with nilpotent w has
inverse c^{-1}(1 - w + w^2 - ...), a series that ends at the first zero power
of w: w has body-free coefficients, so w^(n+1) = 0.  LocalFunction sums it
with its own ``+`` and scalar ``*``, and forms every product as one
``GrassmannElement.dot`` per degree: this module never reaches the pair loop,
the prune or the series of gl11.grassmann.
A LocalMatrix is a SuperMatrix11 with LocalFunction entries; its inverse is
gl11.supergroup.block_inverse, built from the two diagonal inverses alone,
because its odd entries square to zero, and it keeps those two inverses.
``LocalMatrix(...)`` checks the parity of a caller's entries; every matrix
this module builds (derivatives, adjoint, inverse, G, both Chern forms, N
and the Higgs matrix, after its own named checks) is graded by construction
and built unscanned with ``LocalMatrix._graded``.

A MetricData keeps rhobar, G, G^{-1} and the Chern form H^{-1} d_z H, each
formed on first use and alive as long as the metric, whose fields are never
reassigned: ``hitchin_residual``, ``curvature``, ``chern_form_via_inverse``
and the CLI read one copy of each.  The two Chern-form routes that the CLI
compares stay independent: the closed form against G^{-1} d_z G.

The Hitchin commutator [Phi, Phi^dagger_H] drops the central part of Phi
before any product: for Phi = [[a, delta], [gamma, d]] with a even, a I
commutes with everything, so only N = Phi - a I (zero in the upper diagonal
entry, d - a in the lower) is conjugated and multiplied.
"""

from __future__ import annotations

from .grassmann import (
    DEFAULT_TOL,
    PRUNE_TOL,
    ConjugationTable,
    GrassmannElement,
    NotInvertibleError,
    json_at,
    json_count,
    json_int,
    json_list,
    json_object,
    nan_max,
    require_parity,
)
from .supergroup import SuperMatrix11


class LocalFunction:
    """Polynomial in z, zbar with GrassmannElement coefficients.

    ``terms`` maps (z_degree, zbar_degree) to a coefficient on n generators
    and holds no empty coefficient.  A product, and any sum of products
    (``dot``), is one fused ``GrassmannElement.dot`` per degree.
    Parity is GrassmannElement's contract, read from the coefficients when
    asked: ``is_even()`` and ``is_odd()`` hold when every coefficient is even
    or odd, and ``parity()`` is 'even', 'odd' or 'mixed' (zero is even).
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if coeff.n != n:
                    raise ValueError('term z^%d zbar^%d: coefficient has %d generators, '
                                     '"n" is %d' % (key + (coeff.n, n)))
                if key[0] < 0 or key[1] < 0:
                    raise ValueError("negative degree (%d, %d)" % key)
                if coeff.terms:
                    clean[key] = coeff
        self.terms = clean

    def is_even(self) -> bool:
        return all(c.is_even() for c in self.terms.values())

    def is_odd(self) -> bool:
        return all(c.is_odd() for c in self.terms.values())

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
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {(0, 0): GrassmannElement.one(n)})

    @classmethod
    def constant(cls, coeff: GrassmannElement):
        return cls(coeff.n, {(0, 0): coeff})

    @classmethod
    def monomial(cls, coeff: GrassmannElement, p: int, q: int):
        return cls(coeff.n, {(p, q): coeff})

    # -- structure -----------------------------------------------------------

    # the keys alone decide: terms never hold a zero coefficient
    def is_holomorphic(self) -> bool:
        return all(q == 0 for _, q in self.terms)

    def is_antiholomorphic(self) -> bool:
        return all(p == 0 for p, _ in self.terms)

    def body(self) -> complex:
        """Body of the constant term: the value at z = zbar = 0 and zero generators."""
        return self.coefficient(0, 0).body()

    def coefficient(self, p, q) -> GrassmannElement:
        return self.terms.get((p, q), GrassmannElement.zero(self.n))

    def max_abs(self) -> float:
        return nan_max(c.max_abs() for c in self.terms.values())

    def residual(self, other) -> float:
        """(self - other).max_abs() as a fold of GrassmannElement.residual, no difference built."""
        zero = GrassmannElement.zero(self.n)
        mine, theirs = self.terms, other.terms
        return nan_max(mine.get(key, zero).residual(theirs.get(key, zero))
                       for key in mine.keys() | theirs.keys())

    # -- algebra --------------------------------------------------------------

    def __add__(self, other):
        if type(other) is not LocalFunction:
            return NotImplemented
        terms = dict(self.terms)
        zero = GrassmannElement.zero(self.n)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, zero) + c
        return LocalFunction(self.n, terms)

    def __neg__(self):
        return LocalFunction(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not LocalFunction:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is LocalFunction:
            return LocalFunction.dot((self, other))
        if isinstance(other, (int, float, complex)):
            return LocalFunction(self.n, {k: c * other for k, c in self.terms.items()})
        return NotImplemented

    @staticmethod
    def dot(*pairs) -> "LocalFunction":
        """Sum of f * g over the pairs (f, g), one pair or more.

        The coefficient pairs are grouped by the (z, zbar) degree of their
        product, in pair order, and each degree is one fused
        ``GrassmannElement.dot``.  A degree whose terms all prune away is not
        stored.
        """
        n = pairs[0][0].n
        by_degree: dict[tuple, list] = {}
        for f, g in pairs:
            if f.n != n or g.n != n:
                raise ValueError("generator counts differ: %d vs %d"
                                 % (n, f.n if f.n != n else g.n))
            for (p1, q1), c1 in f.terms.items():
                for (p2, q2), c2 in g.terms.items():
                    by_degree.setdefault((p1 + p2, q1 + q2), []).append((c1, c2))
        return LocalFunction(n, {key: GrassmannElement.dot(*group)
                                 for key, group in by_degree.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def inv(self) -> "LocalFunction":
        """Inverse of c(1 + w) with w nilpotent (all non-body content soul)."""
        body = self.body()
        if abs(body) <= PRUNE_TOL:
            raise NotInvertibleError("not invertible: constant-term body is zero")
        scale = 1.0 / body
        w = self * scale - LocalFunction.one(self.n)
        for (p, q), c in w.terms.items():
            if abs(c.body()) > PRUNE_TOL:
                raise NotInvertibleError(
                    "not invertible in the polynomial model: term z^%d zbar^%d "
                    "has a nonzero body" % (p, q))
        # 1 - w + w^2 - ... up to the first zero power, scaled last
        series, power, sign = LocalFunction.one(self.n), w, -1.0
        while power.terms:
            series = series + power * sign
            power, sign = power * w, -sign
        return series * scale

    # -- calculus --------------------------------------------------------------

    def d_z(self) -> "LocalFunction":
        return LocalFunction(self.n, {(p - 1, q): c * float(p)
                                      for (p, q), c in self.terms.items() if p > 0})

    def d_zbar(self) -> "LocalFunction":
        return LocalFunction(self.n, {(p, q - 1): c * float(q)
                                      for (p, q), c in self.terms.items() if q > 0})

    def antiderivative_z(self) -> "LocalFunction":
        """Primitive in z with zero z-constant term."""
        return LocalFunction(self.n, {(p + 1, q): c * (1.0 / (p + 1))
                                      for (p, q), c in self.terms.items()})

    def conjugate(self, table: ConjugationTable) -> "LocalFunction":
        """Swap z and zbar and conjugate every coefficient."""
        return LocalFunction(self.n, {(q, p): c.conjugate(table)
                                      for (p, q), c in self.terms.items()})

    def __repr__(self):
        return "LocalFunction(n=%d, %d terms, parity=%s)" % (
            self.n, len(self.terms), self.parity())

    def to_dict(self) -> dict:
        return {"parity": self.parity(),
                "terms": [{"z": p, "zbar": q, "coeff": c.to_dict()}
                          for (p, q), c in sorted(self.terms.items())]}

    @classmethod
    def from_dict(cls, n: int, data) -> "LocalFunction":
        """{"terms": [{"z": p, "zbar": q, "coeff": <element>}, ...]} on n generators;
        the coefficients of a term listed twice add up."""
        terms = {}
        for entry in json_list(json_object(data).get("terms", []), "terms"):
            entry = json_object(entry, "terms")
            key = (json_int(entry["z"], "z"), json_int(entry["zbar"], "zbar"))
            # a one-term function, so that a wrong generator count names its term
            term = cls(n, {key: GrassmannElement.from_dict(json_object(entry["coeff"], "coeff"))})
            for key, coeff in term.terms.items():
                terms[key] = terms[key] + coeff if key in terms else coeff
        return cls(n, terms)


class LocalMatrix(SuperMatrix11):
    """SuperMatrix11 with LocalFunction entries, built as LocalMatrix(a, beta, gamma, d).

    The algebra, identity, inverse, supertrace, Berezinian, norm and parity
    checks are SuperMatrix11's; this class adds the chart calculus.
    """

    __slots__ = ()

    element = LocalFunction

    def __getitem__(self, idx):
        """Entry m[i, j]: m[0, 1] is beta and m[1, 0] is gamma."""
        i, j = idx
        return self.entries()[2 * i + j]

    def d_z(self):
        return LocalMatrix._graded(*(e.d_z() for e in self.entries()))

    def d_zbar(self):
        return LocalMatrix._graded(*(e.d_zbar() for e in self.entries()))

    def adjoint(self, table: ConjugationTable) -> "LocalMatrix":
        """Conjugate transpose; an antihomomorphism since bar(uv) = bar(v)bar(u)."""
        return LocalMatrix._graded(self.a.conjugate(table), self.gamma.conjugate(table),
                                   self.beta.conjugate(table), self.d.conjugate(table))

    # SuperMatrix11's block inverse, with LocalFunction.inv deciding invertibility;
    # bound here too because perfbench/tracing.py wraps LocalMatrix.inverse by name
    inverse = SuperMatrix11.inverse


class MetricData:
    """Hermitian metric data H = g(u, rho, rhobar): u even, rho odd.

    The metric keeps rhobar, G, G^{-1} and the Chern form, each formed on
    first use (``rhobar``, ``reduced_matrix``, ``reduced_inverse``,
    ``chern_form``); u, rho and the table are never reassigned.
    """

    __slots__ = ("u", "rho", "table", "_rhobar", "_g", "_g_inv", "_chern")

    def __init__(self, u: LocalFunction, rho: LocalFunction, table: ConjugationTable):
        require_parity(u, "even", "u")
        require_parity(rho, "odd", "rho")
        if table.n != u.n:
            raise ValueError("conjugation table size mismatch")
        self.u = u
        self.rho = rho
        self.table = table
        self._rhobar = self._g = self._g_inv = self._chern = None

    @property
    def n(self):
        return self.u.n

    def rhobar(self) -> LocalFunction:
        """The conjugate of rho, formed on first use and kept."""
        if self._rhobar is None:
            self._rhobar = self.rho.conjugate(self.table)
        return self._rhobar

    def reduced_matrix(self) -> LocalMatrix:
        """G with H = e^u G, formed on first use and kept; the e^u factor cancels
        in every curvature formula."""
        if self._g is None:
            rho, rhobar = self.rho, self.rhobar()
            m = rho * rhobar * 0.5
            one = LocalFunction.one(self.n)
            self._g = LocalMatrix._graded(one - m, rhobar, rho, one + m)
        return self._g

    def reduced_inverse(self) -> LocalMatrix:
        """G^{-1}, formed on first use and kept."""
        if self._g_inv is None:
            self._g_inv = self.reduced_matrix().inverse()
        return self._g_inv

    def to_dict(self) -> dict:
        return {"n": self.n, "u": self.u.to_dict(), "rho": self.rho.to_dict(),
                "conjugation": {"pairing": list(self.table.pairing)}}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricData":
        n = json_count(data["n"])
        table = json_at("conjugation", ConjugationTable.from_dict, data["conjugation"], n)
        u, rho = (json_at(key, LocalFunction.from_dict, n, data[key]) for key in ("u", "rho"))
        return cls(u, rho, table)


def chern_form(m: MetricData) -> LocalMatrix:
    """H^{-1} d_z H in closed form, formed on first use and kept by m.

    Diagonal d_z u - (rhobar d_z rho + rho d_z rhobar)/2; off-diagonals
    d_z rhobar (upper) and d_z rho (lower).
    """
    if m._chern is None:
        rho, rhobar = m.rho, m.rhobar()
        diag = m.u.d_z() - (rhobar * rho.d_z() + rho * rhobar.d_z()) * 0.5
        m._chern = LocalMatrix._graded(diag, rhobar.d_z(), rho.d_z(), diag)
    return m._chern


def chern_form_via_inverse(m: MetricData) -> LocalMatrix:
    """Independent route: d_z u * I + G^{-1} d_z G by matrix inversion."""
    du = m.u.d_z()
    zero = LocalFunction.zero(m.n)
    return (m.reduced_inverse() * m.reduced_matrix().d_z()
            + LocalMatrix._graded(du, zero, zero, du))


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
    require_parity(rho_h, "odd", "rho_h")
    require_parity(rho_a, "odd", "rho_a")
    require_parity(v_h, "even", "v_h")
    require_parity(v_a, "even", "v_a")
    rho = rho_h + rho_a
    u = (v_h + v_a
         + rho_h.conjugate(table) * rho_h * 0.5
         + rho_a * rho_a.conjugate(table) * 0.5)
    return MetricData(u, rho, table)


def higgs_matrix(a: LocalFunction, delta: LocalFunction,
                 gamma: LocalFunction) -> LocalMatrix:
    """Supertraceless local Higgs field [[a, delta], [gamma, a]]."""
    require_parity(a, "even", "a")
    require_parity(delta, "odd", "delta")
    require_parity(gamma, "odd", "gamma")
    return LocalMatrix._graded(a, delta, gamma, a)


def higgs_from_dict(n: int, data: dict) -> LocalMatrix:
    """The Higgs field of a Higgs file: its "a", "delta" and "gamma" on its "n" = n."""
    if json_int(data["n"], "n") != n:
        raise ValueError('"n" holds %d, not the metric\'s %d' % (data["n"], n))
    return higgs_matrix(*(json_at(key, LocalFunction.from_dict, n, data[key])
                          for key in ("a", "delta", "gamma")))


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
        require_parity(f, "odd", name)
    eta = delta.antiderivative_z()
    phi = gamma.antiderivative_z()
    u = (base.u + eta * eta.conjugate(table) + phi * phi.conjugate(table))
    return MetricData(u, base.rho, table)


def hitchin_residual(m: MetricData, phi: LocalMatrix, tol: float = DEFAULT_TOL) -> LocalMatrix:
    """F - [Phi, Phi^dagger_H] with Phi^dagger_H = H^{-1} Phi^dagger H.

    Requires the supertraceless local shape [[a, delta], [gamma, a]].  The
    commutator is taken of N = Phi - a I: a is even, so a I and its adjoint
    abar I are central and [Phi, Phi^dagger_H] = [N, N^dagger_H] exactly.
    N has a zero upper diagonal entry and d - a (zero when d = a) below it.
    """
    if phi.supertrace().max_abs() > tol:
        raise ValueError("hitchin_residual requires str(Phi) = 0; got %.3e"
                         % phi.supertrace().max_abs())
    shifted = LocalMatrix._graded(LocalFunction.zero(m.n), phi.beta, phi.gamma, phi.d - phi.a)
    adj_h = m.reduced_inverse() * shifted.adjoint(m.table) * m.reduced_matrix()
    commutator = shifted * adj_h - adj_h * shifted
    return curvature(m) - commutator
