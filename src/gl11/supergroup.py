"""GL(1|1) and SL(1|1) supermatrices over a Grassmann algebra.

A supermatrix is block [[a, beta], [gamma, d]] with a, d even and beta, gamma
odd.  Group elements are parametrized by a Gaussian decomposition

    g(h, alpha, beta) = N_-(alpha) * e^h (1 - alpha beta / 2) * N_+(beta)

with the GL(1|1) extension g~(h, s, alpha, beta) = g(h, alpha, beta) * H_s,
H_s = diag(e^{s/2}, e^{-s/2}), so sdet(g~) = e^s.  Products, inverses and the
coordinate group law are exact (no logarithm branches); to_coords uses the
principal branch on bodies, so h and s are canonical representatives of their
2*pi*i and 4*pi*i classes.

Odd entries square to zero, which gives every formula a closed form:
(a^{-1} beta d^{-1} gamma)^2 = 0, so

    M^{-1} = [[a^{-1} + a^{-1} beta d^{-1} gamma a^{-1}, -a^{-1} beta d^{-1}],
              [-d^{-1} gamma a^{-1}, d^{-1} + d^{-1} gamma a^{-1} beta d^{-1}]]

needs only a^{-1} and d^{-1}, and sdet(M) = (a - beta d^{-1} gamma) d^{-1}.
"""

from __future__ import annotations

import cmath

from .grassmann import (
    GrassmannElement,
    NotInvertibleError,
    ParityError,
    nan_max,
    random_even,
    random_odd,
)
from .reports import CheckReport


def _require_even(x: GrassmannElement, name: str) -> GrassmannElement:
    if not x.is_even():
        raise ParityError("%s must be even, got parity %r" % (name, x.parity()))
    return x


def _require_odd(x: GrassmannElement, name: str) -> GrassmannElement:
    if not x.is_odd():
        raise ParityError("%s must be odd, got parity %r" % (name, x.parity()))
    return x


def block_inverse(a, beta, gamma, d):
    """Entries of [[a, beta], [gamma, d]]^{-1} from a^{-1} and d^{-1} alone.

    a, d even and invertible, beta, gamma odd: (a^{-1} beta d^{-1} gamma)^2
    contains beta^2 = 0, so each Schur-complement inverse truncates after one
    term and the result is exact.  Works for any supercommutative entries
    with ``inv()``, ``*``, ``+`` and ``-``.
    """
    a_inv = a.inv()
    d_inv = d.inv()
    upper = a_inv * beta * d_inv
    lower = d_inv * gamma * a_inv
    return (a_inv + upper * gamma * a_inv, -upper,
            -lower, d_inv + lower * beta * d_inv)


class SuperMatrix11:
    """(1|1)x(1|1) supermatrix [[a, beta], [gamma, d]] with graded blocks."""

    __slots__ = ("a", "beta", "gamma", "d", "n")

    def __init__(self, a, beta, gamma, d, check: bool = True):
        ns = {a.n, beta.n, gamma.n, d.n}
        if len(ns) != 1:
            raise ValueError("entries live in different Grassmann algebras: %r" % ns)
        if check:
            _require_even(a, "a")
            _require_even(d, "d")
            _require_odd(beta, "beta")
            _require_odd(gamma, "gamma")
        self.a, self.beta, self.gamma, self.d = a, beta, gamma, d
        self.n = a.n

    @classmethod
    def identity(cls, n: int) -> "SuperMatrix11":
        one = GrassmannElement.one(n)
        zero = GrassmannElement.zero(n)
        return cls(one, zero, zero, one)

    @classmethod
    def zero(cls, n: int) -> "SuperMatrix11":
        z = GrassmannElement.zero(n)
        return cls(z, z, z, z)

    def entries(self):
        return (self.a, self.beta, self.gamma, self.d)

    def __mul__(self, other: "SuperMatrix11") -> "SuperMatrix11":
        a = self.a * other.a + self.beta * other.gamma
        beta = self.a * other.beta + self.beta * other.d
        gamma = self.gamma * other.a + self.d * other.gamma
        d = self.gamma * other.beta + self.d * other.d
        return SuperMatrix11(a, beta, gamma, d, check=False)

    def __add__(self, other: "SuperMatrix11") -> "SuperMatrix11":
        return SuperMatrix11(self.a + other.a, self.beta + other.beta,
                             self.gamma + other.gamma, self.d + other.d, check=False)

    def __sub__(self, other: "SuperMatrix11") -> "SuperMatrix11":
        return SuperMatrix11(self.a - other.a, self.beta - other.beta,
                             self.gamma - other.gamma, self.d - other.d, check=False)

    def scale(self, c) -> "SuperMatrix11":
        """Left multiplication of every entry by an even scalar."""
        return SuperMatrix11(c * self.a, c * self.beta, c * self.gamma, c * self.d,
                             check=False)

    def is_invertible(self, tol: float = 1e-12) -> bool:
        return abs(self.a.body()) > tol and abs(self.d.body()) > tol

    def inverse(self) -> "SuperMatrix11":
        """Closed-form block inverse; needs invertible a and d bodies."""
        if not self.is_invertible():
            raise NotInvertibleError(
                "supermatrix not invertible: body(a)=%r body(d)=%r"
                % (self.a.body(), self.d.body()))
        return SuperMatrix11(*block_inverse(*self.entries()), check=False)

    def supertrace(self) -> GrassmannElement:
        """str(M) = a - d."""
        return self.a - self.d

    def sdet(self) -> GrassmannElement:
        """Berezinian (a - beta d^{-1} gamma) d^{-1}."""
        if not self.is_invertible():
            raise NotInvertibleError("sdet needs invertible a and d bodies")
        d_inv = self.d.inv()
        return (self.a - self.beta * self.gamma * d_inv) * d_inv

    def max_abs(self) -> float:
        return nan_max(e.max_abs() for e in self.entries())

    def is_close(self, other: "SuperMatrix11", tol: float = 1e-9) -> bool:
        return (self - other).max_abs() <= tol

    def __repr__(self):
        return ("SuperMatrix11(a=%r, beta=%r, gamma=%r, d=%r)"
                % (self.a, self.beta, self.gamma, self.d))

    def to_dict(self) -> dict:
        return {"a": self.a.to_dict(), "beta": self.beta.to_dict(),
                "gamma": self.gamma.to_dict(), "d": self.d.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "SuperMatrix11":
        return cls(GrassmannElement.from_dict(data["a"]),
                   GrassmannElement.from_dict(data["beta"]),
                   GrassmannElement.from_dict(data["gamma"]),
                   GrassmannElement.from_dict(data["d"]))


class GroupCoords:
    """Gaussian-decomposition coordinates (h, s, alpha, beta) of a GL(1|1) element.

    h and s are even (s identically zero on SL(1|1)); alpha, beta are odd.
    h is defined modulo 2*pi*i and s modulo 4*pi*i; values stored here are
    additive representatives.
    """

    __slots__ = ("h", "s", "alpha", "beta", "n")

    def __init__(self, h, s, alpha, beta):
        ns = {h.n, s.n, alpha.n, beta.n}
        if len(ns) != 1:
            raise ValueError("coordinates live in different Grassmann algebras: %r" % ns)
        _require_even(h, "h")
        _require_even(s, "s")
        _require_odd(alpha, "alpha")
        _require_odd(beta, "beta")
        self.h, self.s, self.alpha, self.beta = h, s, alpha, beta
        self.n = h.n

    @classmethod
    def identity(cls, n: int) -> "GroupCoords":
        z = GrassmannElement.zero(n)
        return cls(z, z, z, z)

    @classmethod
    def sl(cls, h, alpha, beta) -> "GroupCoords":
        """SL(1|1) coordinates (s = 0)."""
        return cls(h, GrassmannElement.zero(h.n), alpha, beta)

    def is_sl(self, tol: float = 1e-12) -> bool:
        return self.s.max_abs() <= tol

    def __repr__(self):
        return ("GroupCoords(h=%r, s=%r, alpha=%r, beta=%r)"
                % (self.h, self.s, self.alpha, self.beta))

    def to_dict(self) -> dict:
        return {"h": self.h.to_dict(), "s": self.s.to_dict(),
                "alpha": self.alpha.to_dict(), "beta": self.beta.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "GroupCoords":
        return cls(GrassmannElement.from_dict(data["h"]),
                   GrassmannElement.from_dict(data["s"]),
                   GrassmannElement.from_dict(data["alpha"]),
                   GrassmannElement.from_dict(data["beta"]))


def from_coords(c: GroupCoords) -> SuperMatrix11:
    """Assemble the supermatrix g(h, alpha, beta) H_s."""
    e_plus = (c.h + c.s * 0.5).exp()
    e_minus = (c.h + c.s * (-0.5)).exp()
    ab_half = c.alpha * c.beta * 0.5
    one = GrassmannElement.one(c.n)
    return SuperMatrix11(
        e_plus * (one - ab_half),
        e_minus * c.beta,
        e_plus * c.alpha,
        e_minus * (one + ab_half),
        check=False,
    )


def to_coords(m: SuperMatrix11) -> GroupCoords:
    """Invert the parametrization, principal log branch on bodies."""
    s = m.sdet().log()
    h_minus_s = from_coords(GroupCoords(GrassmannElement.zero(m.n), -s,
                                        GrassmannElement.zero(m.n),
                                        GrassmannElement.zero(m.n)))
    g = m * h_minus_s
    h = (g.a * g.d).log() * 0.5
    # the half-log of a*d drops a possible i*pi: after peeling H_s the two
    # diagonal bodies are equal (sdet = 1), so compare signs against e^h
    if (g.a.body() / cmath.exp(h.body())).real < 0:
        h = h + GrassmannElement.scalar(m.n, 1j * cmath.pi)
    e_h_inv = h.exp().inv()
    return GroupCoords(h, s, e_h_inv * g.gamma, e_h_inv * g.beta)


def coords_product(c1: GroupCoords, c2: GroupCoords) -> GroupCoords:
    """Exact group law in coordinates (no branch ambiguity)."""
    e_s1 = c1.s.exp()
    e_ms1 = (-c1.s).exp()
    alpha = c1.alpha + e_ms1 * c2.alpha
    beta = c1.beta + e_s1 * c2.beta
    s = c1.s + c2.s
    h = c1.h + c2.h + (c1.alpha * e_s1 * c2.beta - e_ms1 * c2.alpha * c1.beta) * 0.5
    return GroupCoords(h, s, alpha, beta)


def coords_inverse(c: GroupCoords) -> GroupCoords:
    """g~(h,s,alpha,beta)^{-1} = g~(-h, -s, -e^s alpha, -e^{-s} beta)."""
    return GroupCoords(-c.h, -c.s, -(c.s.exp() * c.alpha), -((-c.s).exp() * c.beta))


class HiggsEigenData:
    """Eigenvalues of a Higgs supermatrix and the diagonalizing matrix."""

    __slots__ = ("lambda_plus", "lambda_minus", "p_matrix")

    def __init__(self, lambda_plus, lambda_minus, p_matrix):
        self.lambda_plus = lambda_plus
        self.lambda_minus = lambda_minus
        self.p_matrix = p_matrix


def higgs_eigen(phi: SuperMatrix11) -> HiggsEigenData:
    """Diagonalize a supermatrix with invertible supertrace.

    Eigenvalues lambda_+ = a + beta gamma / str(phi), lambda_- = d + beta
    gamma / str(phi); the invariant form lambda_+- = (str(phi^2)/str(phi)
    +- str(phi)) / 2 gives the same values.  P = [[1, -beta/str], [gamma/str,
    1]] conjugates phi to diag(lambda_+, lambda_-).
    """
    st = phi.supertrace()
    if abs(st.body()) <= 1e-12:
        raise NotInvertibleError("non-diagonalizable: supertrace not invertible")
    st_inv = st.inv()
    correction = phi.beta * phi.gamma * st_inv
    lam_plus = phi.a + correction
    lam_minus = phi.d + correction
    n = phi.n
    p = SuperMatrix11(GrassmannElement.one(n), -(phi.beta * st_inv),
                      phi.gamma * st_inv, GrassmannElement.one(n))
    return HiggsEigenData(lam_plus, lam_minus, p)


def higgs_transform(phi: SuperMatrix11, g: SuperMatrix11) -> SuperMatrix11:
    """Patch-to-patch Higgs transformation g^{-1} phi g."""
    return g.inverse() * phi * g


# -- random coordinates for property suites ----------------------------------

def random_coords(rng, n: int, sl: bool = False, scale: float = 0.4,
                  **kw) -> GroupCoords:
    """Random group coordinates with small bodies (keeps log branches trivial)."""
    h = random_even(rng, n, scale=scale, body=scale * complex(
        rng.standard_normal(), rng.standard_normal()), **kw)
    if sl:
        s = GrassmannElement.zero(n)
    else:
        s = random_even(rng, n, scale=scale, body=scale * complex(
            rng.standard_normal(), rng.standard_normal()), **kw)
    alpha = random_odd(rng, n, scale=scale, **kw)
    beta = random_odd(rng, n, scale=scale, **kw)
    return GroupCoords(h, s, alpha, beta)


# -- the group-law suite -------------------------------------------------------

def group_law_suite(rng, n: int, count: int, tol: float,
                    corrupt: bool = False) -> CheckReport:
    """Group axioms, inverses and the Berezinian on ``count`` random triples.

    Each round draws coordinates c1, c2, c3 and keeps the worst residual of
    every identity over all rounds.  With ``corrupt`` (and count > 0) one more
    pair is drawn after the loop and its coordinate product is offset by 0.5
    in h: a negative control that must fail ``coords_vs_matrix`` alone.
    """
    worst = dict.fromkeys(("associativity", "coords_vs_matrix", "identity",
                           "inverse_formula", "sdet_exp_s", "sdet_homomorphism",
                           "to_coords_roundtrip"), 0.0)

    def fold(name, difference):
        worst[name] = nan_max((worst[name], difference.max_abs()))

    ident = from_coords(GroupCoords.identity(n))
    for _ in range(count):
        c1 = random_coords(rng, n)
        c2 = random_coords(rng, n)
        c3 = random_coords(rng, n)
        m1, m2, m3 = from_coords(c1), from_coords(c2), from_coords(c3)
        m12 = m1 * m2
        sdet1 = m1.sdet()
        fold("associativity", m12 * m3 - m1 * (m2 * m3))
        fold("identity", m1 * ident - m1)
        fold("inverse_formula", m1.inverse() - from_coords(coords_inverse(c1)))
        fold("sdet_exp_s", sdet1 - c1.s.exp())
        fold("sdet_homomorphism", m12.sdet() - sdet1 * m2.sdet())
        fold("coords_vs_matrix", from_coords(coords_product(c1, c2)) - m12)
        fold("to_coords_roundtrip", from_coords(to_coords(m1)) - m1)
    if corrupt and count:
        c1, c2 = random_coords(rng, n), random_coords(rng, n)
        bad = coords_product(c1, c2)
        bad = GroupCoords(bad.h + GrassmannElement.scalar(n, 0.5), bad.s,
                          bad.alpha, bad.beta)
        fold("coords_vs_matrix", from_coords(bad) - from_coords(c1) * from_coords(c2))
    report = CheckReport()
    for name in sorted(worst):
        report.add(name, worst[name], tol)
    report.info["count"] = count
    return report
