"""Reference arithmetic written without gl11's algorithms.

Two independent constructions re-check samples of what the workloads ran:

* a dense Grassmann algebra on 2^8 coefficient vectors, whose product signs
  come from explicit inversion counts over generator index lists, and the
  (1|1) supermatrix product, Schur inverse series and Berezinian built on it;
* the Jordan-Wigner Kronecker realization of theta_i and d/dtheta_i on the
  2^m-dimensional module, from which the Gaudin Hamiltonians are rebuilt.

Only gl11's public data (``to_dict`` payloads and dense matrices) crosses
into this module; nothing here calls gl11 arithmetic.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import product

import numpy as np

TOL = 1e-9


class DenseGrassmann:
    """Grassmann algebra on n generators with dense coefficient vectors.

    Basis index ``mask`` holds the monomial t_{i1} ... t_{ik} (increasing
    indices, bit i - 1 for generator i).
    """

    def __init__(self, n):
        self.n = n
        self.dim = 1 << n
        left, right, out, sign = [], [], [], []
        for a, b in product(range(self.dim), repeat=2):
            if a & b:
                continue  # t_i t_i = 0
            # t_A t_B = (-1)^inv(A ++ B) t_{A u B}
            word = self.indices(a) + self.indices(b)
            inversions = sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
                             if word[i] > word[j])
            left.append(a)
            right.append(b)
            out.append(a | b)
            sign.append(-1.0 if inversions % 2 else 1.0)
        self.left = np.array(left)
        self.right = np.array(right)
        self.out = np.array(out)
        self.sign = np.array(sign)

    def indices(self, mask):
        return [i + 1 for i in range(self.n) if mask >> i & 1]

    def from_dict(self, data):
        """Dense vector of a gl11 element payload {"n", "terms": [{"mono", "re", "im"}]}."""
        if data["n"] != self.n:
            raise ValueError("element has %d generators, algebra %d" % (data["n"], self.n))
        vec = np.zeros(self.dim, dtype=complex)
        for term in data["terms"]:
            vec[sum(1 << (i - 1) for i in term["mono"])] += complex(term["re"], term["im"])
        return vec

    def one(self):
        vec = np.zeros(self.dim, dtype=complex)
        vec[0] = 1.0
        return vec

    def mul(self, x, y):
        acc = np.zeros(self.dim, dtype=complex)
        np.add.at(acc, self.out, self.sign * x[self.left] * y[self.right])
        return acc

    def _series(self, soul, coefficients):
        """sum_k coefficients[k] soul^k; soul^(n+1) = 0 bounds the sum."""
        acc = np.zeros(self.dim, dtype=complex)
        power = self.one()
        for c in coefficients:
            acc += c * power
            power = self.mul(power, soul)
        return acc

    def inv(self, x):
        """1/x = (1/b) sum_k (-w)^k with x = b(1 + w)."""
        body = x[0]
        w = x / body
        w[0] = 0.0
        return self._series(w, [(-1.0) ** k for k in range(self.n + 1)]) / body

    def exp(self, x):
        """e^x = e^b sum_k s^k / k! with s the soul of x."""
        soul = x.copy()
        soul[0] = 0.0
        return np.exp(x[0]) * self._series(soul, [1.0 / math.factorial(k)
                                                  for k in range(self.n + 1)])


class DenseSuperMatrix:
    """(1|1)x(1|1) supermatrices [[a, beta], [gamma, d]] over a DenseGrassmann."""

    def __init__(self, algebra):
        self.alg = algebra

    def from_dict(self, data):
        return tuple(self.alg.from_dict(data[key]) for key in ("a", "beta", "gamma", "d"))

    def identity(self):
        zero = np.zeros(self.alg.dim, dtype=complex)
        return (self.alg.one(), zero, zero, self.alg.one())

    def mul(self, x, y):
        m = self.alg.mul
        a, b, c, d = x
        a2, b2, c2, d2 = y
        return (m(a, a2) + m(b, c2), m(a, b2) + m(b, d2),
                m(c, a2) + m(d, c2), m(c, b2) + m(d, d2))

    def sdet(self, x):
        """Berezinian (a - beta d^{-1} gamma) d^{-1}."""
        m = self.alg.mul
        a, b, c, d = x
        d_inv = self.alg.inv(d)
        return m(a - m(m(b, d_inv), c), d_inv)

    @staticmethod
    def distance(x, y):
        return max(float(np.abs(u - v).max()) for u, v in zip(x, y))


def _grassmann_distance(x, y):
    return float(np.abs(x - y).max())


def check_group_law(seeds, n=8):
    """Re-check the first group-law draw of each ``group-selftest --seed`` value.

    The CLI self-test draws c1, c2, c3 = random_coords(default_rng(seed), n)
    first; the same draws are made here.  gl11 assembles M1 and M2 and
    computes M1 M2, M1^{-1}, sdet and exp; the dense reference checks the
    product, M1 M1^{-1} = 1, sdet(M1 M2) = sdet(M1) sdet(M2), sdet(M1) =
    e^{s1}, gl11's sdet, and exp against the truncated series.
    Returns (number of identities checked, list of problems).
    """
    from gl11.supergroup import from_coords, random_coords

    alg = DenseGrassmann(n)
    sm = DenseSuperMatrix(alg)
    checked = 0
    problems = []

    def expect(name, seed, distance):
        nonlocal checked
        checked += 1
        if not distance <= TOL:
            problems.append("reference %s differs by %.3e at seed %d" % (name, distance, seed))

    for seed in seeds:
        rng = np.random.default_rng(seed)
        c1, c2 = random_coords(rng, n), random_coords(rng, n)
        m1, m2 = from_coords(c1), from_coords(c2)
        d1, d2 = sm.from_dict(m1.to_dict()), sm.from_dict(m2.to_dict())
        d12 = sm.mul(d1, d2)
        expect("product", seed, sm.distance(sm.from_dict((m1 * m2).to_dict()), d12))
        expect("M M^-1 = 1", seed,
               sm.distance(sm.mul(d1, sm.from_dict(m1.inverse().to_dict())), sm.identity()))
        expect("sdet homomorphism", seed, _grassmann_distance(
            sm.sdet(d12), alg.mul(sm.sdet(d1), sm.sdet(d2))))
        expect("sdet = e^s", seed, _grassmann_distance(
            sm.sdet(d1), alg.exp(alg.from_dict(c1.s.to_dict()))))
        expect("gl11 sdet", seed, _grassmann_distance(
            alg.from_dict(m1.sdet().to_dict()), sm.sdet(d1)))
        for label, x in (("h", c1.h), ("s", c1.s)):
            expect("exp(%s)" % label, seed, _grassmann_distance(
                alg.from_dict(x.exp().to_dict()), alg.exp(alg.from_dict(x.to_dict()))))
    return checked, problems


# -- Jordan-Wigner ---------------------------------------------------------------

_RAISE = np.array([[0.0, 0.0], [1.0, 0.0]])   # |0> -> |1>
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])   # |1> -> |0>
_PARITY = np.diag([1.0, -1.0])
_ID2 = np.eye(2)


def jordan_wigner(m, i, local):
    """local on qubit i, parity strings on qubits below i, identity above.

    Basis state index = sum_k bit_k 2^k; np.kron puts the more significant
    qubit first, so factors run from qubit m-1 down to qubit 0.
    """
    factors = [_ID2 if k > i else local if k == i else _PARITY
               for k in range(m - 1, -1, -1)]
    return reduce(np.kron, factors).astype(complex)


def gaudin_reference(z, u, v, i, hbar=1.0):
    """H_i = hbar sum_{j != i} (E_i N_j + N_i E_j + Psi-_i Psi+_j - Psi+_i Psi-_j)/(z_i - z_j)

    with N = u/2 - theta d, E = v, Psi+ = v d, Psi- = theta.
    """
    m = len(z)
    dim = 1 << m
    ident = np.eye(dim, dtype=complex)
    theta = [jordan_wigner(m, k, _RAISE) for k in range(m)]
    deriv = [jordan_wigner(m, k, _LOWER) for k in range(m)]

    def gens(k):
        return (0.5 * u[k] * ident - theta[k] @ deriv[k], v[k] * ident,
                v[k] * deriv[k], theta[k])

    n_i, e_i, plus_i, minus_i = gens(i)
    acc = np.zeros((dim, dim), dtype=complex)
    for j in range(m):
        if j == i:
            continue
        n_j, e_j, plus_j, minus_j = gens(j)
        acc += (e_i @ n_j + n_i @ e_j + minus_i @ plus_j - plus_i @ minus_j) / (z[i] - z[j])
    return hbar * acc


def check_gaudin(systems):
    """Compare integrable.gaudin_hamiltonian with the Jordan-Wigner rebuild.

    ``systems`` holds (seed, m) pairs; the system is the CLI's first draw
    random_system(default_rng(seed), m).  Returns (identities checked, problems).
    """
    from gl11 import integrable

    checked = 0
    problems = []
    for seed, m in systems:
        p = integrable.random_system(np.random.default_rng(seed), m)
        payload = p.to_dict()["sites"]
        z = [complex(*s["z"]) for s in payload]
        u = [complex(*s["u"]) for s in payload]
        v = [complex(*s["v"]) for s in payload]
        for i in range(m):
            checked += 1
            diff = float(np.abs(integrable.gaudin_hamiltonian(p, i)
                                - gaudin_reference(z, u, v, i)).max())
            if not diff <= TOL:
                problems.append("Jordan-Wigner H_%d differs by %.3e at m=%d seed %d"
                                % (i, diff, m, seed))
    return checked, problems
