"""The gl(1|1) Garnier system and its quantization, the Gaudin model.

A system of m sites carries marked points z_i and weights u_i, v_i.  The odd
variables theta_i, eta_i of site i are realized as Grassmann generators
2i - 1 and 2i in an algebra with N = 2m generators.  Classical observables
are Grassmann elements with the complex weights already substituted; the odd
symplectic structure sum delta eta_i wedge delta theta_i yields the bracket

    {F, G} = sum_i (d_theta_i F  d_eta_i G  +  d_eta_i F  d_theta_i G)

with left derivatives (this is the unique super-antisymmetric sign choice
for the two-term form; validated by {H_i, H_j} = 0 and by matching operator
commutators after quantization).

The classical side computes each quantity once.  The generators theta_k,
eta_k and their products theta_i eta_j and eta_i theta_j depend on m alone:
site_products builds them once per site count, each product as x * y.
ParabolicData builds its residue matrices A_i from them on first use and
keeps them, without a parity scan: their entries are graded by construction.
Its sites are tuples, so the stored matrices cannot go stale.  It keeps its
Garnier Hamiltonians in the same way (ParabolicData.hamiltonians): S_ij =
str(A_i A_j) is taken from the diagonal blocks alone (supertrace_product),
the same floating-point operations as the supertrace of the full product,
once per pair i < j, since str(A_j A_i) equals it bit for bit;
garnier_hamiltonian reads H_i from there.
garnier_hamiltonian_expanded, the independent route, uses no residue matrix:
its u_k - 2 theta_k eta_k are built once per system and kept
(ParabolicData.expanded), and its cross terms are read from site_products.
Sharing S_ij makes sum_i H_i vanish by construction on the supertrace route,
so garnier-check sums the expanded Hamiltonians.
odd_gradient takes the 2m derivatives of an observable once, and
poisson_bracket accepts either observables or their gradients, so a family
of Hamiltonians is differentiated once and not once per pair.  The bracket's
2m gradient products are summed by one fused GrassmannElement.dot.

Quantization substitutes eta_i -> hbar d_theta_i and u_i -> hbar u_i and
realizes operators on the 2^m-dimensional module C[theta_1 .. theta_m] with
basis ordered by monomial bitmask.

Each Gaudin Hamiltonian is one-body, H_i = c_i + sum_kl A_kl theta_k d_theta_l,
and one_body returns (c_i, A_i) with A_i an m x m matrix; that is the one
place the Hamiltonian formula is written.  Bilinears close under commutation,
[theta A d, theta B d] = theta [A, B] d, so commutators of the H_i are
commutators of m x m matrices.  Quantization reads the same form off a
Garnier H_i = c + sum_kl A_kl theta_k eta_l (quantized_one_body).
one_body_terms realizes any (c, A) on the 2^m states by index arithmetic: the
diagonal c + sum_k A_kk n_k plus, for each site pair lo < hi that A couples,
the signed Jordan-Wigner hops theta_lo d_theta_hi and theta_hi d_theta_lo.
All pairs of one operator come from one vectorized pass (_hops) as
(pairs, 2^(m-2)) arrays of bit arithmetic, and one_body_terms returns those
arrays as they are; theta_hi d_theta_lo is theta_lo d_theta_hi with rows and
cols swapped.  Occupations and Jordan-Wigner strings are read from the bits
of the state index (np.bitwise_count), here and in theta_matrix.
one_body_matrix scatters the arrays densely, and gaudin-commute checks them
without forming a 2^m x 2^m array.

A Garnier H_i on either route and a sum of Hamiltonians are linear
combinations with number coefficients, each summed into one element by
GrassmannElement.add_combination, not one element per sum and per term: the
closed form of H_i is one combination of 1 + 3(m - 1) pairs, its w_i taken
once with the sum of its coefficients over j.
Every element here is built by GrassmannElement's public operations: this
module never reaches the pair loop, the prune or the signs of gl11.grassmann.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .grassmann import (DEFAULT_TOL, MAX_GENERATORS, GrassmannElement, json_at, json_list,
                        json_number, json_object, require_parity)
from .supergroup import SuperMatrix11, supertrace_product

MIN_SEPARATION = 1e-8
# site i carries two generators, theta_i and eta_i
MAX_SITES = MAX_GENERATORS // 2
# one_body_terms of a Gaudin H_i holds m - 1 pairs of 2^(m-2) states, 56 bytes
# each: about 14 MB at m = 16
MAX_REALIZED_SITES = 16


@lru_cache(maxsize=MAX_SITES)
def site_products(m: int) -> tuple:
    """(theta, eta, theta_eta, eta_theta) on the 2m generators of m sites, built
    once per site count: theta[k] and eta[k] the generators, theta_eta[i][j] =
    theta_i eta_j and eta_theta[i][j] = eta_i theta_j, all tuples.
    """
    theta = tuple(GrassmannElement.generator(2 * m, 2 * k + 1) for k in range(m))
    eta = tuple(GrassmannElement.generator(2 * m, 2 * k + 2) for k in range(m))
    return (theta, eta, tuple(tuple(x * y for y in eta) for x in theta),
            tuple(tuple(y * x for x in theta) for y in eta))


class ParabolicData:
    """Sites (z_i, u_i, v_i) with odd generators theta_i, eta_i per site
    (site_products(m))."""

    def __init__(self, z, u, v):
        self.z = tuple(complex(x) for x in z)
        self.u = tuple(complex(x) for x in u)
        self.v = tuple(complex(x) for x in v)
        if not (len(self.z) == len(self.u) == len(self.v)):
            raise ValueError("z, u, v must have equal lengths")
        if not self.z:
            raise ValueError("need at least one site")
        m = len(self.z)
        for i in range(m):
            for j in range(i + 1, m):
                sep = abs(self.z[i] - self.z[j])
                floor = MIN_SEPARATION * max(1.0, abs(self.z[i]), abs(self.z[j]))
                if sep < floor:
                    raise ValueError("marked points %d and %d are too close "
                                     "(separation %.3e)" % (i, j, sep))

    @property
    def m(self) -> int:
        return len(self.z)

    @property
    def n(self) -> int:
        """Grassmann generators: theta_i at 2i - 1, eta_i at 2i (1-based)."""
        return 2 * self.m

    def a(self, i) -> complex:
        return 0.5 * (self.u[i] + self.v[i])

    def b(self, i) -> complex:
        return 0.5 * (self.u[i] - self.v[i])

    @cached_property
    def residues(self) -> tuple:
        """(A_0, ..., A_{m-1}), built on first use and kept (see residue_matrix)."""
        n = self.n
        theta, eta, theta_eta, _ = site_products(self.m)
        out = []
        for i in range(self.m):
            te = theta_eta[i][i]
            out.append(SuperMatrix11._graded(GrassmannElement.scalar(n, self.a(i)) - te,
                                             theta[i],
                                             self.v[i] * eta[i],
                                             GrassmannElement.scalar(n, self.b(i)) - te))
        return tuple(out)

    @cached_property
    def hamiltonians(self) -> tuple:
        """(H_0, ..., H_{m-1}) of garnier_hamiltonian, built on first use and kept.

        S_ij = str(A_i A_j) is formed once per pair i < j: the two fused dots
        of supertrace_product give each monomial exactly one product, and
        complex products commute, so str(A_j A_i) is S_ij bit for bit.  Each
        H_i is one add_combination of its S_ij / (z_i - z_j) in j order.
        """
        a, z, m = self.residues, self.z, self.m
        s = {}
        for i in range(m):
            for j in range(i + 1, m):
                s[i, j] = s[j, i] = supertrace_product(a[i], a[j])
        zero = GrassmannElement.zero(self.n)
        return tuple(zero.add_combination(*[(s[i, j], 1.0 / (z[i] - z[j]))
                                            for j in range(m) if j != i])
                     for i in range(m))

    @cached_property
    def expanded(self) -> tuple:
        """(theta_eta, eta_theta, w): the site_products tables and the tuple of
        w_k = u_k - 2 theta_k eta_k, built on first use and kept:
        garnier_hamiltonian_expanded's operands."""
        n = self.n
        _, _, theta_eta, eta_theta = site_products(self.m)
        w = tuple(GrassmannElement.scalar(n, u) - 2 * theta_eta[k][k]
                  for k, u in enumerate(self.u))
        return theta_eta, eta_theta, w

    def scaled(self, hbar: float) -> "ParabolicData":
        """Same sites with u_i -> hbar u_i (the quantization weight rule)."""
        return ParabolicData(self.z, [hbar * ui for ui in self.u], self.v)

    def to_dict(self) -> dict:
        return {"sites": [{"z": [zi.real, zi.imag], "u": [ui.real, ui.imag],
                           "v": [vi.real, vi.imag]}
                          for zi, ui, vi in zip(self.z, self.u, self.v)]}

    @classmethod
    def from_dict(cls, data: dict) -> "ParabolicData":
        """{"sites": [{"z": [re, im], "u": [re, im], "v": [re, im]}, ...]} and nothing else,
        with 2..MAX_SITES sites, the range of the commands' --m."""
        for key in data:
            if key != "sites":
                raise ValueError('unknown field "%s": a system file holds only "sites"' % key)
        sites = [json_at(("sites[%d]", k), _site, site)
                 for k, site in enumerate(json_list(data["sites"], "sites"))]
        if not 2 <= len(sites) <= MAX_SITES:
            raise ValueError('"sites" holds %d sites, not a site count in 2..%d'
                             % (len(sites), MAX_SITES))
        return cls(*([site[i] for site in sites] for i in range(3)))


def _site(site) -> tuple:
    site = json_object(site)
    return tuple(json_at(key, _complex, site[key]) for key in ("z", "u", "v"))


def _complex(pair) -> complex:
    """A complex number written [re, im], two finite JSON numbers."""
    if type(pair) is not list or len(pair) != 2:
        raise TypeError("%r is not a list of two numbers" % (pair,))
    return complex(json_number(pair[0], "re"), json_number(pair[1], "im"))


def random_system(rng, m: int, spread: float = 2.0) -> ParabolicData:
    """Random sites with well-separated marked points.

    One draw of 6m normals, read as the pairs (re, im) of z, then of u, then
    of v: the values and the order of 6m scalar draws.
    """
    x = rng.standard_normal(6 * m).tolist()
    z = [complex(k * 1.0 + 0.3 * x[2 * k], 0.3 * x[2 * k + 1]) for k in range(m)]
    u = [complex(x[2 * k], x[2 * k + 1]) * spread for k in range(m, 2 * m)]
    v = [complex(x[2 * k], x[2 * k + 1]) * spread for k in range(2 * m, 3 * m)]
    return ParabolicData(z, u, v)


# -- classical side ------------------------------------------------------------

def residue_matrix(p: ParabolicData, i: int) -> SuperMatrix11:
    """A_i = [[a_i - theta_i eta_i, theta_i], [v_i eta_i, b_i - theta_i eta_i]]."""
    if not 0 <= i < p.m:
        raise ValueError("site index %r out of range" % i)
    return p.residues[i]


def garnier_hamiltonian(p: ParabolicData, i: int) -> GrassmannElement:
    """H_i = sum_{j != i} str(A_i A_j) / (z_i - z_j), read from p.hamiltonians."""
    if p.m < 2:
        raise ValueError("Garnier Hamiltonians need at least two sites")
    if not 0 <= i < p.m:
        raise ValueError("site index %r out of range" % i)
    return p.hamiltonians[i]


def garnier_hamiltonian_expanded(p: ParabolicData, i: int) -> GrassmannElement:
    """The same Hamiltonian from the rearranged closed form.

    sum_{j != i} [ (u_i - 2 theta_i eta_i) v_j / 2 + v_i (u_j - 2 theta_j eta_j) / 2
                   + theta_i v_j eta_j - v_i eta_i theta_j ] / (z_i - z_j).

    With k_ij = 1 / (z_i - z_j) and w_k = u_k - 2 theta_k eta_k, it is one
    add_combination from zero of 1 + 3(m - 1) pairs: w_i once, with
    coefficient sum_{j != i} v_j k_ij / 2, then for each j != i the pairs
    (w_j, v_i k_ij / 2), (theta_i eta_j, v_j k_ij) and (eta_i theta_j,
    -v_i k_ij).
    """
    if p.m < 2:
        raise ValueError("Garnier Hamiltonians need at least two sites")
    if not 0 <= i < p.m:
        raise ValueError("site index %r out of range" % i)
    theta_eta, eta_theta, w = p.expanded
    v_i, z_i = p.v[i], p.z[i]
    own, pairs = 0j, []
    for j in range(p.m):
        if j != i:
            k = 1.0 / (z_i - p.z[j])
            own += 0.5 * p.v[j] * k
            pairs += ((w[j], 0.5 * v_i * k), (theta_eta[i][j], p.v[j] * k),
                      (eta_theta[i][j], -v_i * k))
    return GrassmannElement.zero(p.n).add_combination((w[i], own), *pairs)


def odd_gradient(p: ParabolicData, f: GrassmannElement):
    """[(d_theta_k f, d_eta_k f) for each site k] of an even observable f."""
    require_parity(f, "even", "the observable of a bracket")
    return [(f.derivative(2 * k + 1), f.derivative(2 * k + 2)) for k in range(p.m)]


def poisson_bracket(p: ParabolicData, f, g) -> GrassmannElement:
    """Odd symplectic bracket of two even observables, or of their odd_gradients."""
    if isinstance(f, GrassmannElement):
        f = odd_gradient(p, f)
    if isinstance(g, GrassmannElement):
        g = odd_gradient(p, g)
    pairs = []
    for (theta_f, eta_f), (theta_g, eta_g) in zip(f, g, strict=True):
        pairs += (theta_f, eta_g), (eta_f, theta_g)
    return GrassmannElement.dot(*pairs)


# -- quantum side ---------------------------------------------------------------

def theta_matrix(m: int, i: int) -> np.ndarray:
    """Left multiplication by theta_i on C[theta_1..theta_m], bitmask basis."""
    dim = 1 << m
    free = np.arange(dim // 2)
    empty = free + (free & -(1 << i))  # the states with site i empty, as in _hops
    out = np.zeros((dim, dim), dtype=complex)
    out[empty | (1 << i), empty] = np.where(np.bitwise_count(empty & ((1 << i) - 1)) & 1,
                                            -1.0, 1.0)
    return out


def deriv_matrix(m: int, i: int) -> np.ndarray:
    """Left derivative d_theta_i on the same basis: the transpose of theta_i."""
    return theta_matrix(m, i).T


def number_matrix(m: int) -> np.ndarray:
    """Total fermion number sum_i theta_i d_theta_i (diagonal)."""
    return np.diag(np.bitwise_count(np.arange(1 << m))).astype(complex)


def gaudin_generators(p: ParabolicData, i: int):
    """(N_i, E_i, Psi_plus_i, Psi_minus_i) as dense 2^m matrices."""
    if not 0 <= i < p.m:
        raise ValueError("site index %r out of range" % i)
    m = p.m
    dim = 1 << m
    theta = theta_matrix(m, i)
    n_op = 0.5 * p.u[i] * np.eye(dim, dtype=complex) - np.diag(np.arange(dim) >> i & 1)
    e_op = p.v[i] * np.eye(dim, dtype=complex)
    psi_plus = p.v[i] * theta.T
    psi_minus = theta
    return n_op, e_op, psi_plus, psi_minus


def _hops(m: int, lo: np.ndarray, hi: np.ndarray):
    """theta_lo d_theta_hi for the site pairs lo[k] < hi[k] as (rows, cols, signs),
    each a (K, 2^(m-2)) array whose row k is the hop of pair k.

    d_theta_hi empties site hi and theta_lo fills site lo.  Row k of cols
    lists the states with hi filled and lo empty, increasing: the states of
    the other m - 2 sites with a zero bit inserted at lo and at hi, then bit
    hi set.  The sign counts the occupied sites strictly between lo and hi
    (the Jordan-Wigner string).
    """
    bit_lo, bit_hi = 1 << lo[:, None], 1 << hi[:, None]
    free = np.arange((1 << m) // 4)  # no pair exists at m = 1
    free = free + (free & -bit_lo)  # x + (x & -2^p) shifts the bits from p up by one
    free += free & -bit_hi
    string = np.bitwise_count(free & (bit_hi - 2 * bit_lo))  # the sites lo < k < hi
    return free | bit_lo, free | bit_hi, np.where(string & 1, -1.0, 1.0)


def one_body(p: ParabolicData, i: int, hbar: float = 1.0):
    """H_i = c + sum_kl A_kl theta_k d_theta_l as (c, A), A an m x m matrix.

    Writing out E_i N_j + N_i E_j + Psi-_i Psi+_j - Psi+_i Psi-_j with
    N_k = u_k/2 - n_k, n_k = theta_k d_theta_k the occupation of site k, gives

        H_i = hbar sum_{j!=i} [v_i (u_j/2 - n_j) + v_j (u_i/2 - n_i)
                               + v_j theta_i d_j + v_i theta_j d_i] / (z_i - z_j),

    so with w_ij = hbar / (z_i - z_j): c = sum_{j!=i} w_ij (v_i u_j + v_j u_i) / 2,
    A_ii = -sum_{j!=i} w_ij v_j, and for each j != i A_jj = -w_ij v_i,
    A_ij = w_ij v_j and A_ji = w_ij v_i.  Bilinears theta A d close under
    commutation, [theta A d, theta B d] = theta [A, B] d, so commutators of
    these Hamiltonians are commutators of m x m matrices.
    """
    if p.m < 2:
        raise ValueError("Gaudin Hamiltonians need at least two sites")
    if not 0 <= i < p.m:
        raise ValueError("site index %r out of range" % i)
    c = 0j
    a = np.zeros((p.m, p.m), dtype=complex)
    for j in range(p.m):
        if j == i:
            continue
        w = hbar / (p.z[i] - p.z[j])
        c += 0.5 * w * (p.v[i] * p.u[j] + p.v[j] * p.u[i])
        a[i, i] -= w * p.v[j]
        a[j, j] = -w * p.v[i]
        a[i, j] = w * p.v[j]
        a[j, i] = w * p.v[i]
    return c, a


def one_body_terms(c, a):
    """The Jordan-Wigner realization of c + sum_kl A_kl theta_k d_theta_l.

    Returns (diag, rows, cols, forward, backward).  diag is the diagonal
    c + sum_k A_kk n_k as a 2^m vector, n_k bit k of the state.  rows and
    cols are _hops's (K, 2^(m-2)) arrays for the K site pairs lo < hi that A
    couples in either direction, in increasing order: forward = A_lo,hi signs
    is theta_lo d_hi on (rows, cols), and backward = A_hi,lo signs is
    theta_hi d_lo on (cols, rows), since the string counts the same sites
    strictly between lo and hi.  Within one array no (row, col) repeats,
    and a pair that A couples one way only has zeros in the other.
    """
    m = len(a)
    if m > MAX_REALIZED_SITES:
        raise ValueError("the 2^m-state realization stops at m = %d"
                         % MAX_REALIZED_SITES)
    # int8, since the matmul casts the (m, 2^m) table to complex anyway
    bits = (np.arange(1 << m) >> np.arange(m)[:, None] & 1).astype(np.int8)
    diag = c + np.diagonal(a) @ bits
    lo, hi = np.nonzero(np.triu((a != 0) | (a.T != 0), 1))
    rows, cols, signs = _hops(m, lo, hi)
    return diag, rows, cols, a[lo, hi][:, None] * signs, a[hi, lo][:, None] * signs


def one_body_matrix(c, a) -> np.ndarray:
    """one_body_terms scattered into a dense 2^m x 2^m matrix."""
    if len(a) > 10:
        raise ValueError("dense matrices stop at m = 10; one_body_terms realizes beyond")
    diag, rows, cols, forward, backward = one_body_terms(c, a)
    out = np.diag(diag)
    out[rows, cols] += forward
    out[cols, rows] += backward
    return out


def gaudin_hamiltonian(p: ParabolicData, i: int, hbar: float = 1.0) -> np.ndarray:
    """H_i = hbar sum_{j!=i} (E_i N_j + N_i E_j + Psi-_i Psi+_j - Psi+_i Psi-_j)
    / (z_i - z_j) as a dense matrix."""
    return one_body_matrix(*one_body(p, i, hbar))


def quantized_one_body(p: ParabolicData, f: GrassmannElement, hbar: float = 1.0):
    """(c, hbar A) for f = c + sum_kl A_kl theta_k eta_l, which quantization
    eta_l -> hbar d_theta_l sends to c + hbar sum_kl A_kl theta_k d_theta_l.

    f.terms stores theta_k eta_l (k <= l) and eta_l theta_k = -theta_k eta_l
    (l < k) in increasing generator order; any other monomial raises.
    """
    if f.n != p.n:
        raise ValueError("observable lives in the wrong Grassmann algebra")
    c, a = 0j, np.zeros((p.m, p.m), dtype=complex)
    for mask, coeff in f.terms.items():
        bits = [b for b in range(p.n) if mask >> b & 1]  # theta_k at 2k, eta_k at 2k + 1
        if not bits:
            c += coeff
        elif len(bits) == 2 and (bits[0] ^ bits[1]) & 1:  # one theta, one eta
            x, y = bits[0] >> 1, bits[1] >> 1
            if bits[0] & 1:
                a[y, x] -= coeff
            else:
                a[x, y] += coeff
        else:
            name = " ".join(("theta_%d", "eta_%d")[b & 1] % (b >> 1) for b in bits)
            raise ValueError("monomial %s is not a constant or a theta_k eta_l" % name)
    return c, hbar * a


def quantize_observable(p: ParabolicData, f: GrassmannElement,
                        hbar: float = 1.0) -> np.ndarray:
    """eta_i -> hbar d_theta_i on f: one_body_matrix of quantized_one_body."""
    return one_body_matrix(*quantized_one_body(p, f, hbar))


def quantize(p: ParabolicData, f: GrassmannElement, hbar: float = 1.0) -> np.ndarray:
    """Quantize a Garnier Hamiltonian of this system.

    Identifies the site index by matching against the Garnier family (raising
    otherwise), applies the weight rule u_i -> hbar u_i by rebuilding the
    observable on the scaled system, then quantizes it (quantize_observable).
    """
    site = None
    for i in range(p.m):
        if garnier_hamiltonian(p, i).residual(f) <= DEFAULT_TOL:
            site = i
            break
    if site is None:
        raise ValueError("observable is not in the Garnier family of this system")
    scaled = garnier_hamiltonian(p.scaled(hbar), site)
    return quantize_observable(p, scaled, hbar)
