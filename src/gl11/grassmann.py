"""Exact arithmetic in a finite Grassmann algebra over the complex numbers.

The algebra has N anticommuting generators t_1, ..., t_N (N <= 64) subject to
t_i t_j + t_j t_i = 0 and t_i^2 = 0.  An element is a finite linear combination
of square-free monomials; a monomial is stored as a bitmask (bit i-1 set means
generator i is present), always read in increasing generator order.  All
operations are pure and return new values; an element is never mutated after
construction.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

# Coefficients below PRUNE_TOL are dropped during canonicalization; DEFAULT_TOL
# is the comparison tolerance used by is_close and downstream residual checks.
PRUNE_TOL = 1e-12
DEFAULT_TOL = 1e-9

MAX_GENERATORS = 64


class ParityError(ValueError):
    """An operand does not have the parity an operation requires."""


class NotInvertibleError(ValueError):
    """Inverse (or log) requested for an element with vanishing body."""


@lru_cache(maxsize=1 << 16)
def _merge_sign(a: int, b: int) -> int:
    """Sign from sorting the concatenation of monomials a and b (disjoint)."""
    swaps = 0
    bb = b
    while bb:
        low = bb & -bb
        swaps += (a >> low.bit_length()).bit_count()
        bb ^= low
    return -1 if swaps & 1 else 1


def _prune(terms: dict, prune: float) -> dict:
    """Delete the entries of magnitude <= prune from ``terms``, in place.

    The test is written so that NaN and inf coefficients stay: a blown-up
    value must reach the residual instead of vanishing as a zero.
    """
    for m in [m for m, c in terms.items() if abs(c) <= prune]:
        del terms[m]
    return terms


def nan_max(values) -> float:
    """Largest of ``values`` (0.0 when empty), or NaN when any value is NaN.

    The builtin ``max`` keeps whichever value it met first when a comparison
    with NaN is False, so ``max(0.0, nan)`` reports a blown-up residual as 0.
    """
    worst = 0.0
    for v in values:
        if v != v:
            return math.nan
        if v > worst:
            worst = v
    return worst


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    """Bitmask to 1-based generator indices, increasing."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _indices_to_mask(indices) -> int:
    mask = 0
    for i in indices:
        i = int(i)
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError("repeated generator index %d in monomial" % i)
        mask |= bit
    return mask


def _sort_sign(seq) -> int:
    """Sign of the permutation sorting seq (entries distinct)."""
    swaps = 0
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                swaps += 1
    return -1 if swaps & 1 else 1


def nilpotent_series(w, coeff):
    """1 + sum_{k >= 1} coeff(k) w^k for a nilpotent ring element w.

    The sum stops at the first power of w that is zero, so the result is
    exact.  ``w`` needs ``one(n)``, ``*``, ``+`` and ``is_zero()``: a
    GrassmannElement soul or a polynomial with nilpotent coefficients.
    """
    acc = type(w).one(w.n)
    power, k = w, 1
    while not power.is_zero():
        acc = acc + power * coeff(k)
        power = power * w
        k += 1
    return acc


class GrassmannElement:
    """Element of the Grassmann algebra on ``n`` generators.

    ``terms`` maps a monomial bitmask to its complex coefficient.  The map is
    canonicalized at construction: coefficients of equal monomials are merged
    and entries of magnitude <= ``prune`` are removed.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None, prune: float = PRUNE_TOL):
        if not 1 <= n <= MAX_GENERATORS:
            raise ValueError("need 1 <= n <= %d generators, got %r" % (MAX_GENERATORS, n))
        merged: dict[int, complex] = {}
        if terms:
            full = (1 << n) - 1
            for mask, coeff in terms.items() if isinstance(terms, dict) else terms:
                if mask & ~full:
                    raise ValueError("monomial %s outside generator range 1..%d"
                                     % (_mask_to_indices(mask), n))
                c = merged.get(mask, 0j) + complex(coeff)
                merged[mask] = c
            _prune(merged, prune)
        self.n = n
        self.terms = merged

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, n: int, merged: dict, prune: float = PRUNE_TOL) -> "GrassmannElement":
        """Internal fast path: terms already merged and within range.

        ``merged`` becomes the new element's terms: it is pruned in place and
        must not be used by the caller afterwards.
        """
        self = object.__new__(cls)
        self.n = n
        self.terms = _prune(merged, prune)
        return self

    @classmethod
    def zero(cls, n: int) -> "GrassmannElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "GrassmannElement":
        return cls(n, {0: 1.0})

    @classmethod
    def scalar(cls, n: int, value) -> "GrassmannElement":
        return cls(n, {0: complex(value)})

    @classmethod
    def generator(cls, n: int, i: int) -> "GrassmannElement":
        """The generator t_i (1-based)."""
        if not 1 <= i <= n:
            raise ValueError("generator index %r out of range 1..%d" % (i, n))
        return cls(n, {1 << (i - 1): 1.0})

    @classmethod
    def monomial(cls, n: int, indices, coeff=1.0) -> "GrassmannElement":
        """coeff * t_{i1}...t_{ik} for increasing indices (sign if unsorted)."""
        idx = list(indices)
        sign = _sort_sign(idx)
        return cls(n, {_indices_to_mask(idx): sign * complex(coeff)})

    # -- structure ----------------------------------------------------------

    def body(self) -> complex:
        """Coefficient of the empty monomial."""
        return self.terms.get(0, 0j)

    def soul(self) -> "GrassmannElement":
        """The nilpotent part x - body(x)."""
        return GrassmannElement._raw(self.n, {m: c for m, c in self.terms.items() if m})

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def is_even(self) -> bool:
        """True when every monomial has even length (vacuously for 0)."""
        return all(m.bit_count() % 2 == 0 for m in self.terms)

    def is_odd(self) -> bool:
        return all(m.bit_count() % 2 == 1 for m in self.terms)

    def parity(self) -> str:
        """'even', 'odd', or 'mixed'; the zero element reports 'even'."""
        if not self.terms:
            return "even"
        if self.is_even():
            return "even"
        if self.is_odd():
            return "odd"
        return "mixed"

    def even_part(self) -> "GrassmannElement":
        return GrassmannElement(self.n, {m: c for m, c in self.terms.items()
                                         if m.bit_count() % 2 == 0})

    def odd_part(self) -> "GrassmannElement":
        return GrassmannElement(self.n, {m: c for m, c in self.terms.items()
                                         if m.bit_count() % 2 == 1})

    def max_abs(self) -> float:
        """Magnitude of the largest coefficient (the residual norm used throughout)."""
        return nan_max(abs(c) for c in self.terms.values())

    def is_close(self, other: "GrassmannElement", tol: float = DEFAULT_TOL) -> bool:
        return (self - other).max_abs() <= tol

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = GrassmannElement.scalar(self.n, other)
        if self.n != other.n:
            raise ValueError("generator counts differ: %d vs %d" % (self.n, other.n))
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0j) + c
        return GrassmannElement._raw(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement._raw(self.n, {m: -c for m, c in self.terms.items()},
                                     prune=0.0)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            return self + (-other)
        if self.n != other.n:
            raise ValueError("generator counts differ: %d vs %d" % (self.n, other.n))
        terms = dict(self.terms)
        get = terms.get
        for m, c in other.terms.items():
            terms[m] = get(m, 0j) - c
        return GrassmannElement._raw(self.n, terms)

    def __rsub__(self, other):
        return GrassmannElement.scalar(self.n, other) - self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GrassmannElement._raw(
                self.n, {m: c * other for m, c in self.terms.items()})
        if self.n != other.n:
            raise ValueError("generator counts differ: %d vs %d" % (self.n, other.n))
        terms: dict[int, complex] = {}
        get = terms.get
        sign = _merge_sign
        pairs = other.terms.items()
        for ma, ca in self.terms.items():
            if not ma:
                # the body meets every monomial without overlap or reordering
                for mb, cb in pairs:
                    terms[mb] = get(mb, 0j) + ca * cb
                continue
            for mb, cb in pairs:
                if ma & mb:
                    continue
                m = ma | mb
                terms[m] = get(m, 0j) + (ca * cb * sign(ma, mb) if mb else ca * cb)
        return GrassmannElement._raw(self.n, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    # -- transcendental maps on even elements -------------------------------

    def _even_body(self, op: str) -> complex:
        """Body of an even element; ``op`` names the map in the error."""
        if not self.is_even():
            raise ParityError("%s is defined for even elements, got parity %r"
                              % (op, self.parity()))
        return self.body()

    def _unit_soul(self, op: str, error: str):
        """(b, soul/b) for an even element with body b away from zero."""
        b = self._even_body(op)
        if abs(b) <= PRUNE_TOL:
            raise NotInvertibleError(error)
        return b, self.soul() * (1.0 / b)

    def exp(self) -> "GrassmannElement":
        """exp of an even element: e^body times the truncating soul series."""
        b = self._even_body("exp")
        series = nilpotent_series(self.soul(), lambda k: 1.0 / math.factorial(k))
        return series * cmath.exp(b)

    def inv(self) -> "GrassmannElement":
        """Multiplicative inverse; needs even parity and nonzero body."""
        b, w = self._unit_soul("inverse", "not invertible: body is zero")
        return nilpotent_series(w, lambda k: (-1.0) ** k) * (1.0 / b)

    def log(self) -> "GrassmannElement":
        """Principal log of an even invertible element."""
        b, w = self._unit_soul("log", "log undefined: body is zero")
        # the series is 1 + log(1 + w); subtracting 1 leaves an empty body for log(b)
        return nilpotent_series(w, lambda k: (-1.0) ** (k + 1) / k) - 1 + cmath.log(b)

    # -- derivations and conjugation ----------------------------------------

    def derivative(self, i: int) -> "GrassmannElement":
        """Left partial derivative with respect to generator i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError("generator index %r out of range 1..%d" % (i, self.n))
        bit = 1 << (i - 1)
        below = bit - 1
        terms = {}
        for m, c in self.terms.items():
            if not m & bit:
                continue
            sign = -1.0 if (m & below).bit_count() & 1 else 1.0
            terms[m ^ bit] = sign * c
        return GrassmannElement._raw(self.n, terms, prune=0.0)

    def conjugate(self, table: "ConjugationTable") -> "GrassmannElement":
        """Antilinear conjugation: bar(uv) = bar(v) bar(u), generators by table."""
        if table.n != self.n:
            raise ValueError("conjugation table is for %d generators, element has %d"
                             % (table.n, self.n))
        terms = {}
        for m, c in self.terms.items():
            idx = _mask_to_indices(m)
            mapped = [table.pairing[i - 1] for i in reversed(idx)]
            sign = _sort_sign(mapped)
            terms[_indices_to_mask(mapped)] = sign * c.conjugate()
        return GrassmannElement._raw(self.n, terms, prune=0.0)

    # -- presentation and serialization --------------------------------------

    def __repr__(self):
        if not self.terms:
            return "GrassmannElement(n=%d, 0)" % self.n
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = "" if m == 0 else "*" + "*".join("t%d" % i for i in _mask_to_indices(m))
            bits.append("(%.6g%+.6gj)%s" % (c.real, c.imag, mono))
        return "GrassmannElement(n=%d, %s)" % (self.n, " + ".join(bits))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"mono": list(_mask_to_indices(m)), "re": self.terms[m].real,
                 "im": self.terms[m].imag}
                for m in sorted(self.terms)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GrassmannElement":
        n = int(data["n"])
        terms = {}
        for entry in data.get("terms", []):
            mono = list(entry["mono"])
            if mono != sorted(mono):
                raise ValueError("monomial %r not in canonical increasing order" % (mono,))
            mask = _indices_to_mask(mono)
            terms[mask] = terms.get(mask, 0j) + complex(entry.get("re", 0.0),
                                                        entry.get("im", 0.0))
        return cls(n, terms)


class ConjugationTable:
    """Involution on generator indices realizing complex conjugation on Lambda."""

    def __init__(self, pairing):
        pairing = tuple(int(i) for i in pairing)
        n = len(pairing)
        if sorted(pairing) != list(range(1, n + 1)):
            raise ValueError("pairing must permute 1..%d" % n)
        for i, j in enumerate(pairing, start=1):
            if pairing[j - 1] != i:
                raise ValueError("pairing is not an involution at index %d" % i)
        self.n = n
        self.pairing = pairing

    @classmethod
    def swap_halves(cls, n: int) -> "ConjugationTable":
        """Default table: generator i pairs with i + n/2 (n even)."""
        if n % 2:
            raise ValueError("swap_halves needs an even generator count, got %d" % n)
        half = n // 2
        return cls([i + half if i <= half else i - half for i in range(1, n + 1)])

    @classmethod
    def identity(cls, n: int) -> "ConjugationTable":
        """Self-conjugate generators."""
        return cls(range(1, n + 1))

    def __repr__(self):
        return "ConjugationTable(%r)" % (self.pairing,)


# -- random elements (used by tests and the CLI self-test) -------------------

def random_element(rng, n: int, parity: str = "any", max_degree=None,
                   num_terms: int = 3, scale: float = 1.0,
                   body: complex | None = None) -> GrassmannElement:
    """Random element with ``num_terms`` monomials of the requested parity.

    ``body`` forces the empty-monomial coefficient (only sensible for even
    parity); ``max_degree`` caps monomial length.
    """
    if max_degree is None:
        max_degree = n
    terms: dict[int, complex] = {}
    attempts = 0
    while len(terms) < num_terms and attempts < 50 * num_terms:
        attempts += 1
        k = int(rng.integers(0, max_degree + 1))
        if parity == "even" and k % 2:
            k += 1 if k + 1 <= max_degree else -1
        if parity == "odd":
            if k % 2 == 0:
                k = k + 1 if k + 1 <= max_degree else k - 1
            if k < 1:
                continue
        if k < 0 or k > n:
            continue
        mask = _indices_to_mask(rng.choice(n, size=k, replace=False) + 1) if k else 0
        coeff = complex(rng.standard_normal(), rng.standard_normal()) * scale
        terms[mask] = coeff
    if body is not None:
        terms[0] = complex(body)
    elif parity == "odd":
        terms.pop(0, None)
    return GrassmannElement(n, terms)


def random_even(rng, n, **kw) -> GrassmannElement:
    return random_element(rng, n, parity="even", **kw)


def random_odd(rng, n, **kw) -> GrassmannElement:
    return random_element(rng, n, parity="odd", **kw)


def random_even_invertible(rng, n, **kw) -> GrassmannElement:
    """Even element whose body stays away from zero."""
    b = complex(rng.standard_normal(), rng.standard_normal())
    b += b / abs(b)  # push away from the origin
    return random_element(rng, n, parity="even", body=b, **kw)
