"""Exact arithmetic in a finite Grassmann algebra over the complex numbers.

The algebra has N anticommuting generators t_1, ..., t_N (N <= 64) subject to
t_i t_j + t_j t_i = 0 and t_i^2 = 0.  An element is a finite linear combination
of square-free monomials; a monomial is stored as a bitmask (bit i-1 set means
generator i is present), always read in increasing generator order.  All
operations are pure and return new values; an element is never mutated after
construction.

Every product goes through one monomial pair loop, ``_accumulate``, which adds
x * y into a dict in place.  It adds each disjoint pair's ca * cb, or
subtracts it when reordering the pair's generators is odd, which one int per
left monomial decides (``_odd_masks``); no sign multiplies a coefficient, so
an inf part of a product stays inf on every row (its other part may be NaN,
since inf * 0.0 is).  ``GrassmannElement.dot`` sums x * y over several
pairs into one such dict and prunes it once, and ``x * y`` is its one-pair
case; a sum of products therefore builds one element, not one per product.
``one_pm_half_product`` reads 1 -+ x y / 2 off one such dict.
Likewise every chain of scaled sums goes through one loop, ``_combine``,
which adds y * k for each pair (y, k) into a dict in place:
``x.add_combination((y_1, k_1), ...)`` forms x + sum k_i y_i in one dict
(one pair or more), and ``nilpotent_series`` sums the powers of exp, inv and
log with it.

This module owns the term maps: the pair loop, its parity masks
(``_odd_masks``), ``_combine``, the prune and the series are reached from
here alone.  The other modules (supergroup, hitchin, integrable, cech,
fatgraph) build every element through GrassmannElement's public operations.

No element stores a coefficient of magnitude <= PRUNE_TOL (NaN and inf stay,
so that a blown-up value reaches the residual).  The invariant is checked,
by one ``_prune`` scan, only where a small coefficient can arise: in the
constructor and in ``_element``, which builds products, scalar multiples,
the series (exp, inv, log), parsed and random input.  Every other producer
keeps it by construction and hands its dict to ``_pruned``, which does not
scan: ``+`` and ``-`` test only the keys both operands hold, ``_combine``
only a sum with an entry already there, and ``soul``, negation,
``derivative`` and ``conjugate`` map stored coefficients to ones of the same
magnitude.

Every input file is read through the readers here: ``json_int``,
``json_count`` (a generator count), ``json_number``, ``json_list``,
``json_ints`` (a list of integers), ``json_object`` and ``json_element``
(an element on exactly n generators), with ``json_at`` putting the field
path in front of any error raised inside a read.
"""

from __future__ import annotations

import cmath
import math

# Coefficients below PRUNE_TOL are dropped during canonicalization; DEFAULT_TOL
# is the default tolerance of every residual check.
PRUNE_TOL = 1e-12
DEFAULT_TOL = 1e-9

MAX_GENERATORS = 64
JSON_INT_BOUND = 2 ** 53  # integers up to this size convert to a float exactly


class ParityError(ValueError):
    """An operand does not have the parity an operation requires."""


class NotInvertibleError(ValueError):
    """Inverse (or log) requested for an element with vanishing body."""


def require_parity(x, parity: str, name: str):
    """x if it is ``parity`` ('even' or 'odd'), else ParityError naming ``name``.

    x is a GrassmannElement or anything with the same ``is_even``,
    ``is_odd`` and ``parity`` methods; zero passes as both parities.
    """
    if not (x.is_even() if parity == "even" else x.is_odd()):
        raise ParityError("%s must be %s, got parity %r" % (name, parity, x.parity()))
    return x


def _prune(terms: dict, prune: float) -> dict:
    """Delete the entries of magnitude <= prune from ``terms``, in place.

    The test is written so that NaN and inf coefficients stay: a blown-up
    value must reach the residual instead of vanishing as a zero.  Most
    calls delete nothing, so the values are scanned before any key is listed.
    """
    for c in terms.values():
        if abs(c) <= prune:
            break
    else:
        return terms
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


_low_bit = (1).__and__  # k & 1, mapped over monomial lengths by the parity tests


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


def json_int(value, field: str) -> int:
    """value if it is a JSON integer of size at most 2**53, the range in which
    a float still holds every integer.  The floats, strings and bools that
    int() would truncate or convert raise TypeError, and a larger integer
    ValueError, each naming field."""
    if type(value) is not int:  # bool is a subclass of int
        raise TypeError('"%s" holds %r, not an integer' % (field, value))
    if not -JSON_INT_BOUND <= value <= JSON_INT_BOUND:
        raise ValueError('"%s" holds an integer outside -2**53..2**53' % field)
    return value


def json_number(value, field: str) -> float:
    """value as a float if it is a finite JSON number.  A bool, string or
    other non-number raises TypeError, and NaN, an infinity or an integer too
    large for a float raises ValueError, each naming field."""
    if type(value) is not int and type(value) is not float:  # bool is a subclass of int
        raise TypeError('"%s" holds %r, not a number' % (field, value))
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError('"%s" holds %r, not a finite number' % (field, value))
    return number


def json_count(value) -> int:
    """value if it is a JSON integer in 1..MAX_GENERATORS, the "n" of a file."""
    n = json_int(value, "n")
    if not 1 <= n <= MAX_GENERATORS:
        raise ValueError('"n" holds %d, not a generator count in 1..%d' % (n, MAX_GENERATORS))
    return n


def json_list(value, field: str, length=None) -> list:
    """value if it is a JSON list (of length entries if given), else TypeError."""
    if type(value) is not list or length is not None and len(value) != length:
        raise TypeError('"%s" holds %r, not a list%s' % (
            field, value, "" if length is None else " of %d entries" % length))
    return value


def json_ints(value, field: str, length=None) -> list:
    """value if it is a JSON list (of length entries if given) of integers,
    each read by json_int; the errors name field."""
    return [json_int(v, field) for v in json_list(value, field, length)]


def json_object(value, field=None) -> dict:
    """value if it is a JSON object; anything else raises TypeError, naming
    field if given (else the caller's path names it)."""
    if type(value) is not dict:
        raise TypeError(("%r is not an object" % (value,)) if field is None
                        else '"%s" holds %r, not an object' % (field, value))
    return value


def json_at(path, read, *args):
    """read(*args), with "<path>: " put in front of a TypeError or ValueError
    raised inside; a KeyError becomes ValueError "<path>: missing field ...".
    path is a string or a tuple such as ("edges[%d]", k), formatted on errors only.
    """
    try:
        return read(*args)
    except (TypeError, ValueError) as err:
        error, problem = type(err), err
    except KeyError as err:
        error, problem = ValueError, "missing field %s" % err
    raise error("%s: %s" % (path if isinstance(path, str) else path[0] % path[1:],
                            problem)) from None


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


def nilpotent_series(w, *sums) -> list:
    """Term maps of (1 + sum_{k >= 1} coeff(k) w^k) * scale, one per (coeff, scale)
    in ``sums``, from one sequence of powers of a nilpotent element w (a soul)
    up to its first zero power.

    The powers are added into one map per sum by ``_combine``, in increasing
    order: the values and key order of a one-pair ``add_combination`` per
    power, without its element.
    The map is scaled last, unless scale is None, and the caller's element
    prunes it again: bit for bit ``series * scale``.
    """
    powers = []
    power = w
    while power.terms:
        powers.append(power)
        power = power * w
    maps = []
    for coeff, scale in sums:
        terms = {0: 1 + 0j}
        _combine(terms, [(power, coeff(k)) for k, power in enumerate(powers, 1)])
        maps.append(terms if scale is None else {m: c * scale for m, c in terms.items()})
    return maps


def _exp(b: complex) -> complex:
    """cmath.exp(b); an overflow raises ValueError naming the real part of b."""
    try:
        return cmath.exp(b)
    except OverflowError:
        raise ValueError("exp overflows: the body has real part %r" % b.real) from None


def _combine(terms: dict, pairs) -> None:
    """Add y * k into ``terms`` for each (y, k) in ``pairs``, k a number, in
    place, as the chain ``(x + y_1 * k_1) + y_2 * k_2 ...`` would.

    A scaled term that the product's prune would delete is left out, and an
    entry whose sum is at or below PRUNE_TOL is deleted at once, so a later
    pair that brings it back appends it, as a pruned element would.  A map
    without entries at or below PRUNE_TOL keeps none: only a sum with an
    entry already there can fall to the prune, so only that one is tested.
    """
    get = terms.get
    for y, k in pairs:
        for m, c in y.terms.items():
            c = c * k
            if not abs(c) <= PRUNE_TOL:
                old = get(m)
                if old is None:
                    terms[m] = 0j + c
                else:
                    c = old + c
                    if abs(c) <= PRUNE_TOL:
                        del terms[m]
                    else:
                        terms[m] = c


class _OddMasks(dict):
    """Monomial a -> the int whose bit j is set when a holds an odd number
    of generators above j; filled on first read, and emptied when it holds
    BOUND entries.

    Sorting a's generators followed by b's moves each generator of b past
    the generators of a above it, so the pair (a, b) sorts with sign -1
    exactly when b & odd has an odd bit count, as ``derivative`` reads its
    sign from m & below.
    """

    __slots__ = ()
    BOUND = 1 << 16

    def __missing__(self, a: int) -> int:
        odd = 0
        rest = a
        while rest:
            low = rest & -rest
            odd ^= low - 1  # the generator at low flips the parity of every bit below it
            rest ^= low
        if len(self) >= self.BOUND:
            self.clear()
        self[a] = odd
        return odd


_odd_masks = _OddMasks()


def _accumulate(terms: dict, x, y) -> None:
    """Add the product x * y of two elements into ``terms``, in place.

    The kernel's one monomial pair loop: the pairs are visited in the order
    of x's terms, then y's, and nothing is pruned here.  A disjoint pair
    (ma, mb) adds ca * cb, or subtracts it when mb & _odd_masks[ma] has an
    odd bit count.  With finite coefficients, subtracting is bit for bit
    adding ca * cb * (-1 + 0j): no stored sum holds a -0.0 part, since each
    starts as 0j + p.
    """
    get = terms.get
    odd_masks = _odd_masks
    pairs = y.terms.items()
    for ma, ca in x.terms.items():
        if not ma:
            # the body meets every monomial without overlap or reordering
            for mb, cb in pairs:
                terms[mb] = get(mb, 0j) + ca * cb
            continue
        odd = odd_masks[ma]
        for mb, cb in pairs:
            if ma & mb:
                continue
            m = ma | mb
            if (mb & odd).bit_count() & 1:
                terms[m] = get(m, 0j) - ca * cb
            else:
                terms[m] = get(m, 0j) + ca * cb


_new = object.__new__


def _pruned(n: int, terms: dict) -> "GrassmannElement":
    """The element on n generators that owns ``terms``, which already hold no
    coefficient of magnitude <= PRUNE_TOL: no scan.

    ``terms`` must be merged and within range already, and the caller must
    not use it afterwards.  Every result of the kernel is built here or in
    ``_element``.
    """
    x = _new(GrassmannElement)
    x.n = n
    x.terms = terms
    return x


def _element(n: int, terms: dict) -> "GrassmannElement":
    """``_pruned(n, terms)`` after one ``_prune`` scan of ``terms``: the
    constructor of the producers that can make a small coefficient (products,
    scalar multiples, the series, parsed and random input)."""
    x = _new(GrassmannElement)
    x.n = n
    x.terms = _prune(terms, PRUNE_TOL)
    return x


class GrassmannElement:
    """Element of the Grassmann algebra on ``n`` generators.

    ``terms`` is a dict from monomial bitmask to complex coefficient.  It is
    copied at construction, and entries of magnitude <= PRUNE_TOL are removed
    (NaN and inf stay), so no element stores such an entry.
    ``+``, ``-`` and ``*`` take a GrassmannElement or a number; any other
    operand returns NotImplemented, so Python raises TypeError.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if not 1 <= n <= MAX_GENERATORS:
            raise ValueError("need 1 <= n <= %d generators, got %r" % (MAX_GENERATORS, n))
        merged: dict[int, complex] = {}
        if terms:
            full = (1 << n) - 1
            for mask, coeff in terms.items():
                if mask & ~full:  # a negative mask has every high bit set
                    if mask < 0:
                        raise ValueError("monomial mask %d is negative" % mask)
                    raise ValueError("monomial %s outside generator range 1..%d"
                                     % (_mask_to_indices(mask), n))
                merged[mask] = 0j + complex(coeff)  # a -0.0 part is stored as 0.0
            _prune(merged, PRUNE_TOL)
        self.n = n
        self.terms = merged

    # -- constructors -------------------------------------------------------

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
        return _pruned(self.n, {m: c for m, c in self.terms.items() if m})

    def is_even(self) -> bool:
        """True when every monomial has even length (vacuously for 0)."""
        return not any(map(_low_bit, map(int.bit_count, self.terms)))

    def is_odd(self) -> bool:
        return all(map(_low_bit, map(int.bit_count, self.terms)))

    def parity(self) -> str:
        """'even', 'odd', or 'mixed'; the zero element reports 'even'."""
        if not self.terms:
            return "even"
        if self.is_even():
            return "even"
        if self.is_odd():
            return "odd"
        return "mixed"

    def max_abs(self) -> float:
        """Magnitude of the largest coefficient (the residual norm used throughout)."""
        return nan_max(abs(c) for c in self.terms.values())

    def residual(self, other: "GrassmannElement") -> float:
        """``(self - other).max_abs()``, without building the difference.

        The largest |x_m - y_m| over the union of monomials, NaN when any is
        NaN, and 0.0 when it is <= PRUNE_TOL, where the difference's prune
        would have deleted every term.
        """
        if self.n != other.n:
            raise ValueError("generator counts differ: %d vs %d" % (self.n, other.n))
        mine, theirs = self.terms, other.terms
        get = theirs.get
        worst = 0.0
        for m, c in mine.items():
            gap = abs(c - get(m, 0j))
            if gap > worst:
                worst = gap
            elif gap != gap:
                return math.nan
        for m, c in theirs.items():
            if m not in mine:
                gap = abs(c)
                if gap > worst:
                    worst = gap
                elif gap != gap:
                    return math.nan
        return worst if worst > PRUNE_TOL else 0.0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not GrassmannElement:
            if not isinstance(other, (int, float, complex)):
                return NotImplemented
            other = GrassmannElement.scalar(self.n, other)
        if self.n != other.n:
            raise ValueError("generator counts differ: %d vs %d" % (self.n, other.n))
        terms = dict(self.terms)
        get = terms.get
        for m, c in other.terms.items():
            old = get(m)
            if old is None:
                terms[m] = 0j + c
            else:
                c = old + c
                if abs(c) <= PRUNE_TOL:
                    del terms[m]
                else:
                    terms[m] = c
        return _pruned(self.n, terms)

    __radd__ = __add__

    def add_combination(self, *pairs) -> "GrassmannElement":
        """``self + y_1 * k_1 + y_2 * k_2 + ...`` over the pairs (y, k), one
        pair or more, k a number, summed into one dict: one element, not two
        per pair.

        Bit for bit the chain ``(self + y_1 * k_1) + y_2 * k_2 ...``, and
        ``self + y * k`` for one pair: a scaled term that the product's prune
        would delete is left out, and a running sum that prunes is deleted at
        once (``_combine``), so the values and the key order are the chain's
        and nothing is left for a scan to delete.
        """
        n = self.n
        for y, _ in pairs:
            if y.n != n:
                raise ValueError("generator counts differ: %d vs %d" % (n, y.n))
        terms = dict(self.terms)
        _combine(terms, pairs)
        return _pruned(n, terms)

    def __neg__(self):
        return _pruned(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not GrassmannElement:
            if not isinstance(other, (int, float, complex)):
                return NotImplemented
            return self + (-other)
        if self.n != other.n:
            raise ValueError("generator counts differ: %d vs %d" % (self.n, other.n))
        terms = dict(self.terms)
        get = terms.get
        for m, c in other.terms.items():
            old = get(m)
            if old is None:
                terms[m] = 0j - c
            else:
                c = old - c
                if abs(c) <= PRUNE_TOL:
                    del terms[m]
                else:
                    terms[m] = c
        return _pruned(self.n, terms)

    def __rsub__(self, other):
        if not isinstance(other, (int, float, complex)):
            return NotImplemented
        return GrassmannElement.scalar(self.n, other) - self

    def __mul__(self, other):
        if type(other) is GrassmannElement:
            return GrassmannElement.dot((self, other))
        if isinstance(other, (int, float, complex)):
            return _element(self.n, {m: c * other for m, c in self.terms.items()})
        return NotImplemented

    @staticmethod
    def dot(*pairs) -> "GrassmannElement":
        """Sum of x * y over the pairs (x, y), one pair or more.

        Every product is accumulated into one dict in pair order and the sum
        is pruned once, so no product is built, copied or pruned on its own.
        The one-pair case is ``x * y``, bit for bit.
        """
        n = pairs[0][0].n
        terms: dict[int, complex] = {}
        for x, y in pairs:
            if x.n != n or y.n != n:
                raise ValueError("generator counts differ: %d vs %d"
                                 % (n, x.n if x.n != n else y.n))
            _accumulate(terms, x, y)
        return _element(n, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    # -- transcendental maps on even elements -------------------------------

    def _even_body(self, op: str) -> complex:
        """Body of an even element; ``op`` names the map in the error."""
        return require_parity(self, "even", "the argument of " + op).body()

    def _unit_soul(self, op: str, error: str):
        """(b, soul/b) for an even element with body b away from zero, in one
        pass pruned after the scaling, as ``soul() * (1/b)``."""
        b = self._even_body(op)
        if abs(b) <= PRUNE_TOL:
            raise NotInvertibleError(error)
        r = 1.0 / b
        return b, _element(self.n, {m: c * r for m, c in self.terms.items() if m})

    def exp(self) -> "GrassmannElement":
        """exp of an even element: e^body times the truncating soul series."""
        b = self._even_body("exp")
        (terms,) = nilpotent_series(self.soul(), (lambda k: 1.0 / math.factorial(k), _exp(b)))
        return _element(self.n, terms)

    def exp_pair(self) -> tuple:
        """(e^x, e^{-x}) from one sequence of soul powers, bit for bit ``(x.exp(),
        (-x).exp())``: (-w)^k = (-1)^k w^k, and every sum starts from 0j."""
        b = self._even_body("exp")
        plus, minus = nilpotent_series(
            self.soul(), (lambda k: 1.0 / math.factorial(k), _exp(b)),
            (lambda k: (-1.0) ** k / math.factorial(k), _exp(-b)))
        return _element(self.n, plus), _element(self.n, minus)

    def one_pm_half_product(self, other) -> tuple:
        """(1 - x y / 2, 1 + x y / 2) for x = self and y = other with a body-free
        product (x and y odd), from one pair loop and no prune scan.

        Bit for bit ``1 -+ (x * y) * 0.5``: halving keeps every term that the
        product's prune would drop at or below the prune, so one test filters
        both, and 0j -+ t stores a -0.0 part as 0.0.
        """
        if self.n != other.n:
            raise ValueError("generator counts differ: %d vs %d" % (self.n, other.n))
        product = {}
        _accumulate(product, self, other)
        one_minus, one_plus = {0: 1 + 0j}, {0: 1 + 0j}
        for m, t in product.items():
            t = t * 0.5
            if not abs(t) <= PRUNE_TOL:
                one_minus[m] = 0j - t
                one_plus[m] = 0j + t
        return _pruned(self.n, one_minus), _pruned(self.n, one_plus)

    def inv(self) -> "GrassmannElement":
        """Multiplicative inverse; needs even parity and nonzero body."""
        b, w = self._unit_soul("inverse", "not invertible: body is zero")
        (terms,) = nilpotent_series(w, (lambda k: (-1.0) ** k, 1.0 / b))
        return _element(self.n, terms)

    def log(self) -> "GrassmannElement":
        """Principal log of an even invertible element."""
        b, w = self._unit_soul("log", "log undefined: body is zero")
        (terms,) = nilpotent_series(w, (lambda k: (-1.0) ** (k + 1) / k, None))
        # 1 + log(1 + w) - 1 + log(b): the body 1 - 1 prunes away and log(b) comes last
        del terms[0]
        terms[0] = 0j + cmath.log(b)
        return _element(self.n, terms)

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
        return _pruned(self.n, terms)

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
        return _pruned(self.n, terms)

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
    def from_dict(cls, data) -> "GrassmannElement":
        """{"n": n, "terms": [{"mono": [...], "re": x, "im": y}, ...]}: each "mono"
        increasing in 1..n, "re" and "im" finite numbers (0 when left out).

        One pass: every term is checked here, so the dict goes to ``_element``
        as it is.  0j + a complex stores a -0.0 part as 0.0, as the constructor
        would; finite floats skip ``json_number``, which reads everything else.
        """
        data = json_object(data)
        n = json_count(data["n"])  # bounds every 1 << (i - 1) below
        terms = {}
        get = terms.get
        isfinite = math.isfinite
        for entry in json_list(data.get("terms", []), "terms"):
            mono = json_list(json_object(entry, "terms")["mono"], "mono")
            mask = last = 0
            for i in mono:
                if type(i) is not int or not last < i <= n:
                    json_int(i, "mono")
                    raise ValueError('"mono" holds %r, not increasing indices in 1..%d'
                                     % (mono, n))
                mask |= 1 << (i - 1)
                last = i
            re, im = entry.get("re", 0.0), entry.get("im", 0.0)
            if not (type(re) is float and type(im) is float and isfinite(re) and isfinite(im)):
                re, im = json_number(re, "re"), json_number(im, "im")
            terms[mask] = get(mask, 0j) + complex(re, im)
        return _element(n, terms)


class ConjugationTable:
    """Involution on generator indices realizing complex conjugation on Lambda."""

    def __init__(self, pairing):
        pairing = tuple(pairing)
        n = len(pairing)
        if sorted(pairing) != list(range(1, n + 1)):
            raise ValueError("pairing must permute 1..%d" % n)
        for i, j in enumerate(pairing, start=1):
            if pairing[j - 1] != i:
                raise ValueError("pairing is not an involution at index %d" % i)
        self.n = n
        self.pairing = pairing

    @classmethod
    def from_dict(cls, data, n: int) -> "ConjugationTable":
        """The table {"pairing": [...]} of n integer generator indices."""
        return cls(json_ints(json_object(data)["pairing"], "pairing", n))

    @classmethod
    def swap_halves(cls, n: int) -> "ConjugationTable":
        """Default table: generator i pairs with i + n/2 (n even)."""
        if n % 2:
            raise ValueError("swap_halves needs an even generator count, got %d" % n)
        half = n // 2
        return cls([i + half if i <= half else i - half for i in range(1, n + 1)])

    def __repr__(self):
        return "ConjugationTable(%r)" % (self.pairing,)


def json_element(value, n: int, field: str) -> GrassmannElement:
    """GrassmannElement.from_dict(value) under the path field, on exactly n generators."""
    element = json_at(field, GrassmannElement.from_dict, value)
    if element.n != n:
        raise ValueError('%s has %d generators, "n" is %d' % (field, element.n, n))
    return element


# -- random elements (used by tests and the CLI self-test) -------------------

def random_element(rng, n: int, parity: str = "any",
                   num_terms: int = 3, scale: float = 1.0,
                   body: complex | None = None) -> GrassmannElement:
    """Random element with ``num_terms`` monomials of the requested parity.

    ``body`` forces the empty-monomial coefficient (only sensible for even
    parity).

    Candidates come in batches, one for each monomial still missing, and a
    batch of b costs two numpy calls: ``rng.random((b, n + 1))`` and
    ``rng.standard_normal(2 * b)``.  In each row the last column u gives the
    degree k = int(u * (n + 1)), uniform on 0..n and then moved to the
    requested parity, the first k indices of the argsort of the other n
    columns give a uniform k-subset of the generators, and two normals give
    the coefficient, times ``scale``.  A candidate whose
    monomial is already drawn replaces it and leaves a monomial missing for
    the next batch.  At most 50 * num_terms candidates are drawn.
    """
    terms: dict[int, complex] = {}
    budget = 50 * num_terms
    while len(terms) < num_terms and budget > 0:
        b = min(num_terms - len(terms), budget)
        budget -= b
        u = rng.random((b, n + 1))
        z = rng.standard_normal(2 * b).tolist()
        for order, key, re, im in zip(u[:, :n].argsort(axis=1).tolist(), u[:, n].tolist(),
                                      z[::2], z[1::2]):
            k = int(key * (n + 1))
            if parity == "even" and k % 2:
                k += 1 if k + 1 <= n else -1
            if parity == "odd" and k % 2 == 0:
                k = k + 1 if k + 1 <= n else k - 1
            mask = 0
            for i in order[:k]:
                mask |= 1 << i
            terms[mask] = 0j + complex(re, im) * scale  # 0j + stores a -0.0 part as 0.0
    if body is not None:
        terms[0] = 0j + complex(body)
    elif parity == "odd":
        terms.pop(0, None)
    return _element(n, terms)


def random_even(rng, n, **kw) -> GrassmannElement:
    return random_element(rng, n, parity="even", **kw)


def random_odd(rng, n, **kw) -> GrassmannElement:
    return random_element(rng, n, parity="odd", **kw)

