"""The gl(1|1) Garnier system and its quantization, the Gaudin model.

A system of m sites carries marked points z_i and weights u_i, v_i.  The odd
variables theta_i, eta_i of site i are realized as Grassmann generators
2i - 1 and 2i in an algebra with N = 2m generators.  Classical observables
are Grassmann elements with the complex weights already substituted; the odd
symplectic structure sum delta eta_i wedge delta theta_i yields the bracket

    {F, G} = sum_i (d_theta_i F  d_eta_i G  +  d_eta_i F  d_theta_i G)

with left derivatives (this is the unique super-antisymmetric sign choice
for the two-term form; validated by {H_i, H_j} = 0 and by matching operator
commutators after quantization).  Quantization substitutes eta_i -> hbar
d_theta_i and u_i -> hbar u_i and realizes operators on the 2^m-dimensional
module C[theta_1 .. theta_m] with basis ordered by monomial bitmask.
"""

from __future__ import annotations

import numpy as np

from .grassmann import GrassmannElement, ParityError
from .supergroup import SuperMatrix11

MIN_SEPARATION = 1e-8


class ParabolicData:
    """Sites (z_i, u_i, v_i) with odd generators theta_i, eta_i per site."""

    def __init__(self, z, u, v):
        self.z = [complex(x) for x in z]
        self.u = [complex(x) for x in u]
        self.v = [complex(x) for x in v]
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

    def theta(self, i) -> GrassmannElement:
        return GrassmannElement.generator(self.n, 2 * i + 1)

    def eta(self, i) -> GrassmannElement:
        return GrassmannElement.generator(self.n, 2 * i + 2)

    def scaled(self, hbar: float) -> "ParabolicData":
        """Same sites with u_i -> hbar u_i (the quantization weight rule)."""
        return ParabolicData(self.z, [hbar * ui for ui in self.u], self.v)

    def to_dict(self) -> dict:
        return {"sites": [{"z": [zi.real, zi.imag], "u": [ui.real, ui.imag],
                           "v": [vi.real, vi.imag]}
                          for zi, ui, vi in zip(self.z, self.u, self.v)]}

    @classmethod
    def from_dict(cls, data: dict) -> "ParabolicData":
        sites = data["sites"]
        return cls([complex(*site["z"]) for site in sites],
                   [complex(*site["u"]) for site in sites],
                   [complex(*site["v"]) for site in sites])


def random_system(rng, m: int, spread: float = 2.0) -> ParabolicData:
    """Random sites with well-separated marked points."""
    z = [complex(k * 1.0 + 0.3 * rng.standard_normal(),
                 0.3 * rng.standard_normal()) for k in range(m)]
    u = [complex(rng.standard_normal(), rng.standard_normal()) * spread
         for _ in range(m)]
    v = [complex(rng.standard_normal(), rng.standard_normal()) * spread
         for _ in range(m)]
    return ParabolicData(z, u, v)


# -- classical side ------------------------------------------------------------

def residue_matrix(p: ParabolicData, i: int) -> SuperMatrix11:
    """A_i = [[a_i - theta_i eta_i, theta_i], [v_i eta_i, b_i - theta_i eta_i]]."""
    if not 0 <= i < p.m:
        raise ValueError("site index %r out of range" % i)
    n = p.n
    theta, eta = p.theta(i), p.eta(i)
    te = theta * eta
    return SuperMatrix11(GrassmannElement.scalar(n, p.a(i)) - te,
                         theta,
                         p.v[i] * eta,
                         GrassmannElement.scalar(n, p.b(i)) - te)


def flag_frame(p: ParabolicData, i: int):
    """(A'_i, g_i) with A_i = g_i A'_i g_i^{-1}: the unconjugated flag form."""
    n = p.n
    zero = GrassmannElement.zero(n)
    one = GrassmannElement.one(n)
    upper = SuperMatrix11(GrassmannElement.scalar(n, p.a(i)), p.theta(i),
                          zero, GrassmannElement.scalar(n, p.b(i)))
    lower = SuperMatrix11(one, zero, p.eta(i), one)
    return upper, lower


def higgs_value(p: ParabolicData, z: complex) -> SuperMatrix11:
    """Phi(z) = sum_i A_i / (z - z_i) (coefficient of dz)."""
    z = complex(z)
    for i, zi in enumerate(p.z):
        if abs(z - zi) < MIN_SEPARATION:
            raise ValueError("evaluation at (or too close to) the pole z_%d" % i)
    acc = SuperMatrix11.zero(p.n)
    for i in range(p.m):
        acc = acc + residue_matrix(p, i).scale(
            GrassmannElement.scalar(p.n, 1.0 / (z - p.z[i])))
    return acc


def garnier_hamiltonian(p: ParabolicData, i: int) -> GrassmannElement:
    """H_i = sum_{j != i} str(A_i A_j) / (z_i - z_j)."""
    if p.m < 2:
        raise ValueError("Garnier Hamiltonians need at least two sites")
    if not 0 <= i < p.m:
        raise ValueError("site index %r out of range" % i)
    acc = GrassmannElement.zero(p.n)
    a_i = residue_matrix(p, i)
    for j in range(p.m):
        if j == i:
            continue
        acc = acc + (a_i * residue_matrix(p, j)).supertrace() * (1.0 / (p.z[i] - p.z[j]))
    return acc


def garnier_hamiltonian_expanded(p: ParabolicData, i: int) -> GrassmannElement:
    """The same Hamiltonian from the rearranged closed form.

    sum_{j != i} [ (u_i - 2 theta_i eta_i) v_j / 2 + v_i (u_j - 2 theta_j eta_j) / 2
                   + theta_i v_j eta_j - v_i eta_i theta_j ] / (z_i - z_j).
    """
    if p.m < 2:
        raise ValueError("Garnier Hamiltonians need at least two sites")
    n = p.n
    acc = GrassmannElement.zero(n)
    for j in range(p.m):
        if j == i:
            continue
        te_i = p.theta(i) * p.eta(i)
        te_j = p.theta(j) * p.eta(j)
        term = (0.5 * p.v[j] * (GrassmannElement.scalar(n, p.u[i]) - 2 * te_i)
                + 0.5 * p.v[i] * (GrassmannElement.scalar(n, p.u[j]) - 2 * te_j)
                + p.v[j] * (p.theta(i) * p.eta(j))
                - p.v[i] * (p.eta(i) * p.theta(j)))
        acc = acc + term * (1.0 / (p.z[i] - p.z[j]))
    return acc


def poisson_bracket(p: ParabolicData, f: GrassmannElement,
                    g: GrassmannElement) -> GrassmannElement:
    """Odd symplectic bracket for even observables."""
    if not (f.is_even() and g.is_even()):
        raise ParityError("the bracket is exercised on even observables only")
    acc = GrassmannElement.zero(p.n)
    for i in range(p.m):
        ti, ei = 2 * i + 1, 2 * i + 2
        acc = (acc + f.derivative(ti) * g.derivative(ei)
               + f.derivative(ei) * g.derivative(ti))
    return acc


# -- quantum side ---------------------------------------------------------------

def theta_matrix(m: int, i: int) -> np.ndarray:
    """Left multiplication by theta_i on C[theta_1..theta_m], bitmask basis."""
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=complex)
    bit = 1 << i
    below = bit - 1
    for state in range(dim):
        if state & bit:
            continue
        sign = -1.0 if (state & below).bit_count() & 1 else 1.0
        out[state | bit, state] = sign
    return out


def deriv_matrix(m: int, i: int) -> np.ndarray:
    """Left derivative d_theta_i on the same basis: the transpose of theta_i."""
    return theta_matrix(m, i).T


def number_matrix(m: int) -> np.ndarray:
    """Total fermion number sum_i theta_i d_theta_i (diagonal)."""
    dim = 1 << m
    return np.diag([float(state.bit_count()) for state in range(dim)]).astype(complex)


def operator_parity(mat: np.ndarray, tol: float = 1e-12) -> str:
    """'even' / 'odd' / 'mixed' with respect to monomial-length parity."""
    dim = mat.shape[0]
    par = np.array([state.bit_count() & 1 for state in range(dim)])
    same = par[:, None] == par[None, :]
    even_part = np.abs(mat[~same]).max() if (~same).any() else 0.0
    odd_part = np.abs(mat[same]).max() if same.any() else 0.0
    if even_part <= tol:
        return "even"
    if odd_part <= tol:
        return "odd"
    return "mixed"


def gaudin_generators(p: ParabolicData, i: int):
    """(N_i, E_i, Psi_plus_i, Psi_minus_i) as dense 2^m matrices."""
    if not 0 <= i < p.m:
        raise ValueError("site index %r out of range" % i)
    m = p.m
    dim = 1 << m
    theta = theta_matrix(m, i)
    deriv = deriv_matrix(m, i)
    n_op = 0.5 * p.u[i] * np.eye(dim, dtype=complex) - theta @ deriv
    e_op = p.v[i] * np.eye(dim, dtype=complex)
    psi_plus = p.v[i] * deriv
    psi_minus = theta
    return n_op, e_op, psi_plus, psi_minus


def gaudin_hamiltonian(p: ParabolicData, i: int, hbar: float = 1.0) -> np.ndarray:
    """H_i = hbar sum_{j!=i} (E_i N_j + N_i E_j + Psi-_i Psi+_j - Psi+_i Psi-_j)
    / (z_i - z_j)."""
    if p.m < 2:
        raise ValueError("Gaudin Hamiltonians need at least two sites")
    if p.m > 10:
        raise ValueError("dense matrices stop at m = 10; use gaudin_apply beyond")
    if not 0 <= i < p.m:
        raise ValueError("site index %r out of range" % i)
    dim = 1 << p.m
    n_i, e_i, plus_i, minus_i = gaudin_generators(p, i)
    acc = np.zeros((dim, dim), dtype=complex)
    for j in range(p.m):
        if j == i:
            continue
        n_j, e_j, plus_j, minus_j = gaudin_generators(p, j)
        term = e_i @ n_j + n_i @ e_j + minus_i @ plus_j - plus_i @ minus_j
        acc += term / (p.z[i] - p.z[j])
    return hbar * acc


def gaudin_apply(p: ParabolicData, i: int, vec: np.ndarray,
                 hbar: float = 1.0) -> np.ndarray:
    """Matrix-free application of the Gaudin Hamiltonian to a state vector.

    Intended for site counts where the dense 2^m x 2^m matrix is too large;
    agrees entrywise with gaudin_hamiltonian @ vec.
    """
    m = p.m
    dim = 1 << m
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (dim,):
        raise ValueError("state vector must have length 2^m = %d" % dim)

    def sign_below(state, bit):
        return -1.0 if (state & (bit - 1)).bit_count() & 1 else 1.0

    out = np.zeros(dim, dtype=complex)
    occ = np.array([float((state >> i) & 1) for state in range(dim)])
    occs = {j: np.array([float((state >> j) & 1) for state in range(dim)])
            for j in range(m)}
    for j in range(m):
        if j == i:
            continue
        w = hbar / (p.z[i] - p.z[j])
        # diagonal pieces: E_i N_j + N_i E_j with N = u/2 - theta d_theta
        diag = (p.v[i] * (0.5 * p.u[j] - occs[j])
                + p.v[j] * (0.5 * p.u[i] - occ))
        out += w * diag * vec
        # hopping pieces: Psi-_i Psi+_j - Psi+_i Psi-_j
        bit_i, bit_j = 1 << i, 1 << j
        for state in range(dim):
            amp = vec[state]
            if amp == 0:
                continue
            if state & bit_j and not state & bit_i:
                mid = state ^ bit_j
                s = sign_below(state, bit_j) * sign_below(mid, bit_i)
                out[mid | bit_i] += w * p.v[j] * s * amp
            if state & bit_i and not state & bit_j:
                mid = state | bit_j  # theta_j acts first, then d_theta_i
                s = sign_below(state, bit_j) * sign_below(mid, bit_i)
                out[mid ^ bit_i] -= w * p.v[i] * s * amp
    return out


def quantize_observable(p: ParabolicData, f: GrassmannElement,
                        hbar: float = 1.0) -> np.ndarray:
    """Monomial-wise substitution theta_i -> theta_i, eta_i -> hbar d_theta_i.

    Monomials are read in canonical increasing generator order, which places
    theta_i immediately before eta_i of the same site (normal ordering).
    """
    if f.n != p.n:
        raise ValueError("observable lives in the wrong Grassmann algebra")
    m = p.m
    dim = 1 << m
    cache = {}

    def op_for(gen_index):
        if gen_index not in cache:
            site, is_eta = divmod(gen_index - 1, 2)
            if is_eta:
                cache[gen_index] = hbar * deriv_matrix(m, site)
            else:
                cache[gen_index] = theta_matrix(m, site)
        return cache[gen_index]

    acc = np.zeros((dim, dim), dtype=complex)
    for mask, coeff in f.terms.items():
        word = np.eye(dim, dtype=complex)
        g = 1
        mm = mask
        while mm:
            if mm & 1:
                word = word @ op_for(g)
            mm >>= 1
            g += 1
        acc += coeff * word
    return acc


def quantize(p: ParabolicData, f: GrassmannElement, hbar: float = 1.0) -> np.ndarray:
    """Quantize a Garnier Hamiltonian of this system.

    Identifies the site index by matching against the Garnier family (raising
    otherwise), applies the weight rule u_i -> hbar u_i by rebuilding the
    observable on the scaled system, then substitutes monomial by monomial.
    """
    site = None
    for i in range(p.m):
        if (garnier_hamiltonian(p, i) - f).max_abs() <= 1e-9:
            site = i
            break
    if site is None:
        raise ValueError("observable is not in the Garnier family of this system")
    scaled = garnier_hamiltonian(p.scaled(hbar), site)
    return quantize_observable(p, scaled, hbar)
