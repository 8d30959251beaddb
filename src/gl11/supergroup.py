"""GL(1|1) and SL(1|1) supermatrices over a Grassmann algebra.

A supermatrix is block [[a, beta], [gamma, d]] with a, d even and beta, gamma
odd.  Group elements are parametrized by a Gaussian decomposition

    g(h, alpha, beta) = N_-(alpha) * e^h (1 - alpha beta / 2) * N_+(beta)

with the GL(1|1) extension g~(h, s, alpha, beta) = g(h, alpha, beta) * H_s,
H_s = diag(e^{s/2}, e^{-s/2}), so sdet(g~) = e^s.  Products, inverses and the
coordinate group law are exact (no logarithm branches); to_coords uses the
principal branch on bodies, so h and s are canonical representatives of their
2*pi*i and 4*pi*i classes.

Odd entries square to zero and even entries are central, which gives every
formula a short closed form (Berezin, Introduction to Superanalysis, 1987):

- M^{-1} = [[a^{-1} + a^{-1} t, -a^{-1} d^{-1} beta], [-a^{-1} d^{-1} gamma,
  d^{-1} - d^{-1} t]] with t = (a^{-1} d^{-1} beta) gamma, exact as t^2 = 0,
  and sdet(M) = (a - beta d^{-1} gamma) d^{-1}.
- a = e^{h+s/2}(1 - alpha beta/2) and d = e^{h-s/2}(1 + alpha beta/2), so
  a d = e^{2h} exactly and h = log(a d)/2, up to an i*pi decided by the sign of
  a's body against e^{h+s/2}; a^{-1} gamma = (1 + alpha beta/2) alpha = alpha and
  d^{-1} beta_M = (1 - alpha beta/2) beta = beta, as alpha^2 = beta^2 = 0.
- from_coords takes 1 -+ alpha beta/2 from the kernel in one pass
  (``GrassmannElement.one_pm_half_product``).

The twist e^{+-s} is all that separates the GL(1|1) law from SL(1|1), and it
belongs to the element: ``GroupCoords.twist()`` forms (e^s, e^{-s}) from one
sequence of soul powers (``exp_pair``) on first use and keeps it, and the
inverse, whose s is -s, inherits the swapped pair.  The product is

    alpha = alpha_1 + e^{-s_1} alpha_2,  beta = beta_1 + e^{s_1} beta_2,
    h = h_1 + h_2 + (alpha_1 e^{s_1} beta_2 - e^{-s_1} alpha_2 beta_1) / 2,

and ``quadratic_term`` is the one copy of the last term, which is also the
Cech 2-cochain g_ijk of gl11.cech; ``product_from_term`` assembles c1 c2 from
it, so a caller that keeps the term (``cech.TransitionData``) forms it once.

A supermatrix likewise keeps a^{-1}, d^{-1} and its Berezinian: each is
formed on its first read (``SuperMatrix11.a_inv``, ``d_inv``, ``sdet``) and
lives as long as the matrix, whose entries are never reassigned.  ``sdet``
reads d^{-1} alone, ``inverse`` (through ``block_inverse(m)``) reads both,
and ``to_coords`` reads both and the Berezinian, so a matrix whose
Berezinian, inverse and coordinates are all taken forms each value once.

Invertibility is decided by the entries: ``inv()`` raises
``NotInvertibleError`` on a body at or below ``PRUNE_TOL``, so ``inverse``
needs invertible a and d, and ``sdet``, like the Berezinian itself, only an
invertible d.

On SL(1|1) the twist is not formed: when the stored s has no terms, e^{+-s}
is exactly one, so the group law reduces to the additive edge-coordinate fold

    alpha = alpha_1 + alpha_2,  beta = beta_1 + beta_2,
    h = h_1 + h_2 + (alpha_1 beta_2 - alpha_2 beta_1) / 2,

the inverse to (-h, -s, -alpha, -beta), and from_coords needs e^h once.
The test is ``GroupCoords.is_sl()``, which reads ``not s.terms``: an exact
zero and not a tolerance, so a GL
element whose s is merely small keeps its twist factors.  Every product the
shortcut skips is a multiplication by e^0 = 1 + 0j, which is exact on finite
coefficients, so the results are the same floating-point values.

Parity is checked where a caller supplies the parts, and nowhere else:
``GroupCoords(...)`` (files, ``set_edge``) and ``SuperMatrix11(...)`` require
h, s, a and d even, alpha, beta and gamma odd, all on one algebra.  What the
program builds is graded by construction (an even by even or odd by odd
product is even, an even by odd one odd, and sums, scalings, conjugates and
derivatives keep parity), so it goes through the one unchecked path of each
container, ``GroupCoords._graded`` and ``SuperMatrix11._graded``: the group
law's coordinates, ``identity``, ``random_coords``, the matrix products, sums,
differences, ``inverse``, ``from_coords`` and ``higgs_eigen``'s P, the
LocalMatrix results of gl11.hitchin and the Garnier residues of gl11.integrable.

This module builds every element through the kernel's public operations:
it never reaches the pair loop, the prune or the series of gl11.grassmann.
"""

from __future__ import annotations

import cmath

from .grassmann import (
    GrassmannElement,
    nan_max,
    random_even,
    random_odd,
    require_parity,
)
from .reports import CheckReport

_new = object.__new__


def block_inverse(m: "SuperMatrix11") -> tuple:
    """Entries of m^{-1} in 6 products (module docstring) from m's kept a^{-1} and
    d^{-1}, for any supercommutative entries with ``inv()``, ``*``, ``+`` and ``-``."""
    a_inv, d_inv = m.a_inv(), m.d_inv()
    ad_inv = a_inv * d_inv
    upper = ad_inv * m.beta
    t = upper * m.gamma
    return a_inv + a_inv * t, -upper, -(ad_inv * m.gamma), d_inv - d_inv * t


def supertrace_product(x: "SuperMatrix11", y: "SuperMatrix11") -> GrassmannElement:
    """str(x y) from the diagonal blocks of x y alone.

    Each diagonal block is one fused ``dot`` of two pairs, the same
    operations, in the same order, as ``(x * y).supertrace()``, without
    forming the two off-diagonal blocks that the supertrace drops.
    """
    dot = x.element.dot
    return dot((x.a, y.a), (x.beta, y.gamma)) - dot((x.gamma, y.beta), (x.d, y.d))


class SuperMatrix11:
    """(1|1)x(1|1) supermatrix [[a, beta], [gamma, d]] with graded blocks.

    ``*``, ``+``, ``-`` and ``inverse`` build the operand's own class, and
    ``identity`` builds entries of its ``element`` type, so a subclass with
    other graded entries (gl11.hitchin.LocalMatrix) shares them.
    The matrix keeps a^{-1}, d^{-1} and its Berezinian, each formed on its
    first read (``a_inv``, ``d_inv``, ``sdet``); ``inverse`` and ``to_coords``
    read them.
    """

    __slots__ = ("a", "beta", "gamma", "d", "n", "_a_inv", "_d_inv", "_sdet")
    element = GrassmannElement

    def __init__(self, a, beta, gamma, d):
        ns = {a.n, beta.n, gamma.n, d.n}
        if len(ns) != 1:
            raise ValueError("entries live in different Grassmann algebras: %r" % ns)
        require_parity(a, "even", "a")
        require_parity(d, "even", "d")
        require_parity(beta, "odd", "beta")
        require_parity(gamma, "odd", "gamma")
        self.a, self.beta, self.gamma, self.d = a, beta, gamma, d
        self.n = a.n
        self._a_inv = self._d_inv = self._sdet = None

    @classmethod
    def _graded(cls, a, beta, gamma, d) -> "SuperMatrix11":
        """A matrix whose entries are even, odd, odd and even on one algebra by
        construction (the program's results): no parity scan."""
        m = _new(cls)
        m.a, m.beta, m.gamma, m.d = a, beta, gamma, d
        m.n = a.n
        m._a_inv = m._d_inv = m._sdet = None
        return m

    @classmethod
    def identity(cls, n: int) -> "SuperMatrix11":
        one = cls.element.one(n)
        zero = cls.element.zero(n)
        return cls._graded(one, zero, zero, one)

    def entries(self):
        return (self.a, self.beta, self.gamma, self.d)

    def __mul__(self, other: "SuperMatrix11") -> "SuperMatrix11":
        dot = self.element.dot
        a, beta, gamma, d = self.a, self.beta, self.gamma, self.d
        return type(self)._graded(dot((a, other.a), (beta, other.gamma)),
                                  dot((a, other.beta), (beta, other.d)),
                                  dot((gamma, other.a), (d, other.gamma)),
                                  dot((gamma, other.beta), (d, other.d)))

    def __add__(self, other: "SuperMatrix11") -> "SuperMatrix11":
        return type(self)._graded(self.a + other.a, self.beta + other.beta,
                                  self.gamma + other.gamma, self.d + other.d)

    def __sub__(self, other: "SuperMatrix11") -> "SuperMatrix11":
        return type(self)._graded(self.a - other.a, self.beta - other.beta,
                                  self.gamma - other.gamma, self.d - other.d)

    def a_inv(self):
        """a^{-1}, formed on first use and kept."""
        if self._a_inv is None:
            self._a_inv = self.a.inv()
        return self._a_inv

    def d_inv(self):
        """d^{-1}, formed on first use and kept."""
        if self._d_inv is None:
            self._d_inv = self.d.inv()
        return self._d_inv

    def inverse(self) -> "SuperMatrix11":
        """Closed-form block inverse; ``inv()`` of a and d decides invertibility."""
        return type(self)._graded(*block_inverse(self))

    def supertrace(self) -> GrassmannElement:
        """str(M) = a - d."""
        return self.a - self.d

    def sdet(self) -> GrassmannElement:
        """Berezinian (a - beta d^{-1} gamma) d^{-1}, formed on first use and kept;
        it needs an invertible d alone."""
        if self._sdet is None:
            d_inv = self.d_inv()
            self._sdet = (self.a - self.beta * self.gamma * d_inv) * d_inv
        return self._sdet

    def max_abs(self) -> float:
        return nan_max(e.max_abs() for e in self.entries())

    def residual(self, other: "SuperMatrix11") -> float:
        """``(self - other).max_abs()``: the worst entry residual, NaN-safe."""
        return nan_max([self.a.residual(other.a), self.beta.residual(other.beta),
                        self.gamma.residual(other.gamma), self.d.residual(other.d)])

    def __repr__(self):
        return ("SuperMatrix11(a=%r, beta=%r, gamma=%r, d=%r)"
                % (self.a, self.beta, self.gamma, self.d))

    def to_dict(self) -> dict:
        return {"a": self.a.to_dict(), "beta": self.beta.to_dict(),
                "gamma": self.gamma.to_dict(), "d": self.d.to_dict()}


class GroupCoords:
    """Gaussian-decomposition coordinates (h, s, alpha, beta) of a GL(1|1) element.

    h and s are even (s identically zero on SL(1|1)); alpha, beta are odd.
    h is defined modulo 2*pi*i and s modulo 4*pi*i; values stored here are
    additive representatives.
    """

    __slots__ = ("h", "s", "alpha", "beta", "n", "_twist")

    def __init__(self, h, s, alpha, beta):
        ns = {h.n, s.n, alpha.n, beta.n}
        if len(ns) != 1:
            raise ValueError("coordinates live in different Grassmann algebras: %r" % ns)
        require_parity(h, "even", "h")
        require_parity(s, "even", "s")
        require_parity(alpha, "odd", "alpha")
        require_parity(beta, "odd", "beta")
        self.h, self.s, self.alpha, self.beta = h, s, alpha, beta
        self.n = h.n
        self._twist = None

    @classmethod
    def identity(cls, n: int) -> "GroupCoords":
        z = GrassmannElement.zero(n)
        return cls._graded(z, z, z, z)

    @classmethod
    def sl(cls, h, alpha, beta) -> "GroupCoords":
        """SL(1|1) coordinates (s = 0)."""
        return cls(h, GrassmannElement.zero(h.n), alpha, beta)

    def is_sl(self) -> bool:
        """s has no stored terms: exactly SL(1|1), the test of the group-law shortcuts."""
        return not self.s.terms

    def twist(self) -> tuple:
        """(e^s, e^{-s}) from one ``exp_pair``, formed on first use and kept.

        The one place e^{+-s} is formed; ``coords_inverse`` hands its result
        the swapped pair, bit for bit that of -s.
        """
        if self._twist is None:
            self._twist = self.s.exp_pair()
        return self._twist

    @classmethod
    def _graded(cls, h, s, alpha, beta) -> "GroupCoords":
        """Coordinates whose parts are even, even, odd and odd on one algebra by
        construction (the group law's results): no parity scan."""
        c = _new(cls)
        c.h, c.s, c.alpha, c.beta = h, s, alpha, beta
        c.n = h.n
        c._twist = None
        return c

    def __repr__(self):
        return ("GroupCoords(h=%r, s=%r, alpha=%r, beta=%r)"
                % (self.h, self.s, self.alpha, self.beta))

    def to_dict(self) -> dict:
        return {"h": self.h.to_dict(), "s": self.s.to_dict(),
                "alpha": self.alpha.to_dict(), "beta": self.beta.to_dict()}


def from_coords(c: GroupCoords) -> SuperMatrix11:
    """Assemble the supermatrix g(h, alpha, beta) H_s."""
    if c.is_sl():
        e_plus = e_minus = c.h.exp()
    else:
        e_plus = c.h.add_combination((c.s, 0.5)).exp()
        e_minus = c.h.add_combination((c.s, -0.5)).exp()
    one_minus, one_plus = c.alpha.one_pm_half_product(c.beta)
    return SuperMatrix11._graded(e_plus * one_minus, e_minus * c.beta,
                                 e_plus * c.alpha, e_minus * one_plus)


def to_coords(m: SuperMatrix11) -> GroupCoords:
    """Invert the parametrization, principal log branch on bodies, by the closed
    forms of the module docstring, from m's kept Berezinian and inverses."""
    s = m.sdet().log()
    h = (m.a * m.d).log() * 0.5
    # the half-log of a*d drops a possible i*pi: compare a's body against e^{h + s/2}
    if (m.a.body() / cmath.exp(h.body() + 0.5 * s.body())).real < 0:
        h = h + GrassmannElement.scalar(m.n, 1j * cmath.pi)
    return GroupCoords._graded(h, s, m.a_inv() * m.gamma, m.d_inv() * m.beta)


def quadratic_term(c1: GroupCoords, c2: GroupCoords) -> tuple:
    """(e^{-s_1} alpha_2, q) for the product c1 c2: the alpha_2 term of its alpha
    and q = (alpha_1 e^{s_1} beta_2 - e^{-s_1} alpha_2 beta_1) / 2, the quadratic
    term of its h; on SL both twist factors are one and are not formed."""
    if c1.is_sl():
        alpha1, alpha2 = c1.alpha, c2.alpha
    else:
        alpha1, alpha2 = c1.alpha * c1.twist()[0], c1.twist()[1] * c2.alpha
    return alpha2, (alpha1 * c2.beta - alpha2 * c1.beta) * 0.5


def coords_product(c1: GroupCoords, c2: GroupCoords) -> GroupCoords:
    """Exact group law in coordinates (module docstring), no branch ambiguity."""
    return product_from_term(c1, c2, quadratic_term(c1, c2))


def product_from_term(c1: GroupCoords, c2: GroupCoords, term: tuple) -> GroupCoords:
    """c1 c2 assembled from term = ``quadratic_term(c1, c2)``, which a caller
    that keeps it (gl11.cech.TransitionData) passes in."""
    alpha2, q = term
    beta2 = c2.beta if c1.is_sl() else c1.twist()[0] * c2.beta
    return GroupCoords._graded(c1.h + c2.h + q, c1.s + c2.s, c1.alpha + alpha2,
                               c1.beta + beta2)


def coords_inverse(c: GroupCoords) -> GroupCoords:
    """g~(h,s,alpha,beta)^{-1} = g~(-h, -s, -e^s alpha, -e^{-s} beta), carrying
    c's twist swapped, (e^{-s}, e^s)."""
    if c.is_sl():
        return GroupCoords._graded(-c.h, -c.s, -c.alpha, -c.beta)
    e_s, e_ms = c.twist()
    inv = GroupCoords._graded(-c.h, -c.s, -(e_s * c.alpha), -(e_ms * c.beta))
    inv._twist = e_ms, e_s
    return inv


class HiggsEigenData:
    """Eigenvalues of a Higgs supermatrix and the diagonalizing matrix."""

    __slots__ = ("lambda_plus", "lambda_minus", "p_matrix")

    def __init__(self, lambda_plus, lambda_minus, p_matrix):
        self.lambda_plus = lambda_plus
        self.lambda_minus = lambda_minus
        self.p_matrix = p_matrix


def higgs_eigen(phi: SuperMatrix11) -> HiggsEigenData:
    """Diagonalize a supermatrix with invertible supertrace; ``str(phi).inv()``
    raises ``NotInvertibleError`` when it is not.

    Eigenvalues lambda_+ = a + beta gamma / str(phi), lambda_- = d + beta
    gamma / str(phi); the invariant form lambda_+- = (str(phi^2)/str(phi)
    +- str(phi)) / 2 gives the same values.  P = [[1, -beta/str], [gamma/str,
    1]] conjugates phi to diag(lambda_+, lambda_-).
    """
    st_inv = phi.supertrace().inv()
    correction = phi.beta * phi.gamma * st_inv
    lam_plus = phi.a + correction
    lam_minus = phi.d + correction
    n = phi.n
    p = SuperMatrix11._graded(GrassmannElement.one(n), -(phi.beta * st_inv),
                              phi.gamma * st_inv, GrassmannElement.one(n))
    return HiggsEigenData(lam_plus, lam_minus, p)


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
    return GroupCoords._graded(h, s, alpha, beta)


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

    def fold(name, x, y):
        worst[name] = nan_max((worst[name], x.residual(y)))

    ident = from_coords(GroupCoords.identity(n))
    for _ in range(count):
        c1 = random_coords(rng, n)
        c2 = random_coords(rng, n)
        c3 = random_coords(rng, n)
        m1, m2, m3 = from_coords(c1), from_coords(c2), from_coords(c3)
        m12 = m1 * m2
        fold("associativity", m12 * m3, m1 * (m2 * m3))
        fold("identity", m1 * ident, m1)
        fold("inverse_formula", m1.inverse(), from_coords(coords_inverse(c1)))
        fold("sdet_exp_s", m1.sdet(), c1.twist()[0])
        fold("sdet_homomorphism", m12.sdet(), m1.sdet() * m2.sdet())
        fold("coords_vs_matrix", from_coords(coords_product(c1, c2)), m12)
        fold("to_coords_roundtrip", from_coords(to_coords(m1)), m1)
    if corrupt and count:
        c1, c2 = random_coords(rng, n), random_coords(rng, n)
        bad = coords_product(c1, c2)
        bad = GroupCoords._graded(bad.h + GrassmannElement.scalar(n, 0.5), bad.s,
                                  bad.alpha, bad.beta)
        fold("coords_vs_matrix", from_coords(bad), from_coords(c1) * from_coords(c2))
    report = CheckReport()
    for name in sorted(worst):
        report.add(name, worst[name], tol)
    report.info["count"] = count
    return report
