"""Grassmann algebra arithmetic: units, identities, and random property suites."""

import cmath
import math

import numpy as np
import pytest

from gl11.grassmann import (
    ConjugationTable,
    GrassmannElement,
    NotInvertibleError,
    ParityError,
    json_int,
    random_element,
    random_even,
    random_odd,
)

N = 8
TOL = 1e-9


def random_even_invertible(rng, n, **kw) -> GrassmannElement:
    """Even element whose body stays away from zero."""
    b = complex(rng.standard_normal(), rng.standard_normal())
    b += b / abs(b)  # push away from the origin
    return random_element(rng, n, parity="even", body=b, **kw)


def t(*indices):
    return GrassmannElement.monomial(N, indices)


def one():
    return GrassmannElement.one(N)


def test_add_linearity():
    assert (t(1) + t(1)).is_close(2 * t(1))
    assert (t(1) + (-t(1))).is_zero()
    x = one() + t(1, 2)
    y = GrassmannElement.scalar(N, 2) - t(1, 2)
    # term-by-term oracle: sum the two coefficient maps directly
    expected = {}
    for src in (x, y):
        for m, c in src.terms.items():
            expected[m] = expected.get(m, 0j) + c
    summed = x + y
    assert summed.is_close(GrassmannElement(N, expected))
    assert summed.is_close(GrassmannElement.scalar(N, 3))


def test_add_rejects_mismatched_generator_count():
    with pytest.raises(ValueError):
        GrassmannElement.one(4) + GrassmannElement.one(6)


def test_mul_anticommutation():
    assert (t(1) * t(2)).is_close(t(1, 2))
    assert (t(2) * t(1)).is_close(-t(1, 2))
    assert (t(1) * t(1)).is_zero()


def _brute_product(x, y):
    """Distribute-and-sort oracle for multiplication."""
    out = GrassmannElement.zero(x.n)
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            if ma & mb:
                continue
            idx_a = [i + 1 for i in range(x.n) if ma >> i & 1]
            idx_b = [i + 1 for i in range(x.n) if mb >> i & 1]
            seq = idx_a + idx_b
            # bubble sort counting swaps
            swaps = 0
            for i in range(len(seq)):
                for j in range(len(seq) - 1 - i):
                    if seq[j] > seq[j + 1]:
                        seq[j], seq[j + 1] = seq[j + 1], seq[j]
                        swaps += 1
            out = out + GrassmannElement.monomial(x.n, seq, ca * cb * (-1) ** swaps)
    return out


def test_mul_matches_distribute_and_sort_oracle():
    x = (one() + t(1)) * (one() + t(2))
    assert x.is_close(one() + t(1) + t(2) + t(1, 2))
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_element(rng, N, num_terms=4)
        b = random_element(rng, N, num_terms=4)
        assert (a * b).is_close(_brute_product(a, b))


def test_body_and_soul():
    x = GrassmannElement.scalar(N, 3) + t(1, 2)
    assert x.body() == 3
    assert x.soul().is_close(t(1, 2))
    s = x.soul()
    assert (s * s).is_zero()


def test_soul_nilpotency_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = random_element(rng, N, num_terms=5).soul()
        power = GrassmannElement.one(N)
        for _ in range(N + 1):
            power = power * s
        assert power.is_zero()


def test_exp_even():
    assert GrassmannElement.zero(N).exp().is_close(one())
    c = 0.3 + 0.2j
    x = GrassmannElement.scalar(N, c) + t(1, 2)
    assert x.exp().is_close(cmath.exp(c) * (one() + t(1, 2)))
    y = t(1, 2) + t(3, 4)
    assert y.exp().is_close(one() + t(1, 2) + t(3, 4) + t(1, 2) * t(3, 4))


def test_exp_truncated_series_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = random_even(rng, N, num_terms=4)
        s = x.soul()
        series = GrassmannElement.one(N)
        power = GrassmannElement.one(N)
        for k in range(1, N + 2):
            power = power * s
            series = series + power * (1.0 / math.factorial(k))
        assert x.exp().is_close(cmath.exp(x.body()) * series)
        assert (x.exp() * (-x).exp()).is_close(one())


def test_exp_rejects_odd():
    with pytest.raises(ParityError):
        t(1).exp()


def test_inv():
    assert one().inv().is_close(one())
    assert (one() + t(1, 2)).inv().is_close(one() - t(1, 2))
    x = GrassmannElement.scalar(N, 2) + t(1, 2) + t(3, 4)
    assert (x.inv() * x).is_close(one())
    assert (x * x.inv()).is_close(one())


def test_inv_rejects_zero_body():
    with pytest.raises(NotInvertibleError):
        t(1, 2).inv()


def test_log_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = random_even_invertible(rng, N, num_terms=4)
        assert x.log().exp().is_close(x)


def test_conjugate_literal_oracle():
    # bar(t1 t2) = bar(t2) bar(t1) applied literally, then canonicalized
    table = ConjugationTable.swap_halves(N)
    x = t(1, 2)
    expected = t(2).conjugate(table) * t(1).conjugate(table)
    assert x.conjugate(table).is_close(expected)
    # with pairing 1<->5, 2<->6: bar(t1 t2) = t6 t5 = -t5 t6
    assert x.conjugate(table).is_close(-t(5, 6))


def test_conjugate_antilinear():
    table = ConjugationTable.swap_halves(N)
    x = GrassmannElement.scalar(N, 1j)
    assert x.conjugate(table).is_close(GrassmannElement.scalar(N, -1j))


def test_conjugate_small_pairing_example():
    # pairing 1<->3, 2<->4 on four generators: bar(t1 t2) = t4 t3 = -t3 t4
    table = ConjugationTable([3, 4, 1, 2])
    x = GrassmannElement.monomial(4, [1, 2])
    expected = -GrassmannElement.monomial(4, [3, 4])
    assert x.conjugate(table).is_close(expected)


def test_conjugate_involution_and_antihomomorphism():
    rng = np.random.default_rng(4)
    for table in (ConjugationTable.swap_halves(N), ConjugationTable.identity(N)):
        for _ in range(500):
            x = random_element(rng, N, num_terms=4)
            y = random_element(rng, N, num_terms=4)
            assert x.conjugate(table).conjugate(table).is_close(x)
            lhs = (x * y).conjugate(table)
            rhs = y.conjugate(table) * x.conjugate(table)
            assert lhs.is_close(rhs)


def test_left_derivative():
    assert t(1).derivative(1).is_close(one())
    assert t(1, 2).derivative(2).is_close(-t(1))
    x = t(1, 2)
    anti = x.derivative(2).derivative(1) + x.derivative(1).derivative(2)
    assert anti.is_zero()
    with pytest.raises(ValueError):
        t(1).derivative(N + 1)


def test_derivative_is_odd_derivation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        parity = "even" if rng.integers(2) else "odd"
        x = random_element(rng, N, parity=parity, num_terms=3)
        y = random_element(rng, N, num_terms=3)
        i = int(rng.integers(1, N + 1))
        sign = 1.0 if parity == "even" else -1.0
        lhs = (x * y).derivative(i)
        rhs = x.derivative(i) * y + sign * (x * y.derivative(i))
        assert lhs.is_close(rhs)


def test_associativity_random_triples():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        x = random_element(rng, N, num_terms=3)
        y = random_element(rng, N, num_terms=3)
        z = random_element(rng, N, num_terms=3)
        assert ((x * y) * z).is_close(x * (y * z), tol=TOL)


def test_supercommutativity():
    rng = np.random.default_rng(8)
    for _ in range(200):
        px = "even" if rng.integers(2) else "odd"
        py = "even" if rng.integers(2) else "odd"
        x = random_element(rng, N, parity=px, num_terms=3)
        y = random_element(rng, N, parity=py, num_terms=3)
        sign = -1.0 if (px == "odd" and py == "odd") else 1.0
        assert (x * y).is_close(sign * (y * x))


def test_exp_additive_on_even():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = random_even(rng, N, num_terms=3)
        y = random_even(rng, N, num_terms=3)
        assert (x.exp() * y.exp()).is_close((x + y).exp(), tol=1e-8)


def test_inv_antihomomorphism():
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = random_even_invertible(rng, N, num_terms=3)
        y = random_even_invertible(rng, N, num_terms=3)
        prod_inv = (x * y).inv()
        assert prod_inv.is_close(y.inv() * x.inv())
        assert prod_inv.is_close(x.inv() * y.inv())


def test_parity_query():
    assert one().parity() == "even"
    assert t(1).parity() == "odd"
    assert (one() + t(1)).parity() == "mixed"
    assert GrassmannElement.zero(N).parity() == "even"


def test_canonicalization_prunes_small_terms():
    x = GrassmannElement(N, {0: 1.0, 1: 1e-15})
    assert list(x.terms) == [0]


def test_json_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = random_element(rng, N, num_terms=4)
        y = GrassmannElement.from_dict(x.to_dict())
        assert y.is_close(x)
    with pytest.raises(ValueError):
        GrassmannElement.from_dict({"n": 4, "terms": [{"mono": [2, 1], "re": 1.0}]})


def test_random_odd_has_odd_parity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        assert random_odd(rng, N).is_odd()
        assert random_even(rng, N).is_even()


# -- the random draw: distribution, termination and numpy calls per batch -----

DEGREES = {"any": lambda k: True, "even": lambda k: k % 2 == 0, "odd": lambda k: k % 2 == 1}


def available_monomials(n, parity):
    return sum(math.comb(n, k) for k in range(n + 1) if DEGREES[parity](k))


class CountingRng:
    """A seeded Generator that records each call; any other method raises AttributeError."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def standard_normal(self, size):
        self.calls.append(("standard_normal", size))
        return self.rng.standard_normal(size)

    def batches(self, n):
        """Batch sizes b, checking that each batch is random((b, n + 1)), standard_normal(2b)."""
        names = [name for name, _ in self.calls]
        assert names == ["random", "standard_normal"] * (len(names) // 2)
        sizes = [size for _, size in self.calls]
        assert all(normals % 2 == 0 and shape == (normals // 2, n + 1)
                   for shape, normals in zip(sizes[::2], sizes[1::2]))
        return [shape[0] for shape in sizes[::2]]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("parity", ["any", "even", "odd"])
def test_random_element_keeps_parity_degree_cap_and_term_count(n, parity):
    rng = np.random.default_rng(40 + n)
    want = min(4, available_monomials(n, parity))
    for _ in range(10):
        x = random_element(rng, n, parity, num_terms=4, scale=0.5)
        assert x.n == n
        assert len(x.terms) == want
        # the degree is capped at n: every monomial lies on the n generators
        assert all(DEGREES[parity](m.bit_count()) and m >> n == 0 for m in x.terms)
        if parity == "odd":
            assert 0 not in x.terms
        else:
            y = random_element(rng, n, parity, num_terms=4, body=0.25 - 2j)
            assert y.terms[0] == 0.25 - 2j
            assert len(y.terms) in (want, want + 1)
            assert all(DEGREES[parity](m.bit_count()) for m in y.terms)


def test_random_element_ends_when_too_few_monomials_exist():
    # n = 2 has only t1 and t2 odd: the draw stops after 50 * 5 candidates
    rng = CountingRng(3)
    x = random_odd(rng, 2, num_terms=5)
    assert sorted(x.terms) == [0b01, 0b10]
    assert sum(rng.batches(2)) == 250


def test_random_element_is_determined_by_the_seed():
    for parity in ("any", "even", "odd"):
        x = random_element(np.random.default_rng(5), N, parity, num_terms=6, scale=0.4)
        y = random_element(np.random.default_rng(5), N, parity, num_terms=6, scale=0.4)
        assert x.terms == y.terms
        assert list(x.terms) == list(y.terms)


def test_random_element_picks_generators_uniformly():
    # a biased k-subset pick (say the first k generators) shows up here
    rng = np.random.default_rng(2025)
    counts = [0] * N
    for _ in range(20_000):
        (mask,) = random_element(rng, N, num_terms=1).terms
        for i in range(N):
            counts[i] += mask >> i & 1
    mean = sum(counts) / N
    assert all(abs(c - mean) <= 0.05 * mean for c in counts), counts


@pytest.mark.parametrize("n, parity, num_terms", [
    (64, "any", 6), (8, "even", 3), (8, "odd", 6), (2, "even", 2), (3, "odd", 4)])
def test_random_element_makes_two_numpy_calls_per_batch(n, parity, num_terms):
    rng = CountingRng(7)
    x = random_element(rng, n, parity, num_terms=num_terms)
    batches = rng.batches(n)   # any per-term integers or choice call raises AttributeError
    assert batches[0] == num_terms
    assert all(b <= num_terms for b in batches)
    assert sum(batches) <= 50 * num_terms
    assert len(x.terms) == num_terms
    if n == 64:
        assert len(batches) == 1   # no collision among 6 of 2^64 monomials


@pytest.mark.parametrize("value, error, problem", [
    (math.inf, ValueError, "holds inf, not a finite number"),
    (-math.inf, ValueError, "holds -inf, not a finite number"),
    (math.nan, ValueError, "holds nan, not a finite number"),
    pytest.param(10 ** 400, ValueError, "holds 1(0)+, not a finite number",
                 id="int-beyond-float"),
    (True, TypeError, "holds True, not a number"),
    ("1.0", TypeError, "holds '1.0', not a number"),
    (None, TypeError, "holds None, not a number"),
])
def test_from_dict_rejects_coefficients_that_are_not_finite_numbers(value, error, problem):
    data = {"n": 2, "terms": [{"mono": [1], "re": 1.0, "im": value}]}
    with pytest.raises(error, match='"im" %s' % problem):
        GrassmannElement.from_dict(data)


def test_from_dict_reads_integer_coefficients_as_floats():
    data = {"n": 2, "terms": [{"mono": [1], "re": 2, "im": -3}, {"mono": [], "re": 0.5}]}
    assert GrassmannElement.from_dict(data).terms == {1: 2 - 3j, 0: 0.5 + 0j}


@pytest.mark.parametrize("n", [0, -1, 65])
def test_from_dict_checks_the_generator_count_before_any_index(n):
    # the count bounds every "mono" index, so no shift is taken past 64 bits
    data = {"n": n, "terms": [{"mono": [max(n, 1)], "re": 1.0}]}
    with pytest.raises(ValueError, match='"n" holds %d, not a generator count in 1..64' % n):
        GrassmannElement.from_dict(data)


@pytest.mark.parametrize("value", [0, -7, 2 ** 53, -(2 ** 53)])
def test_json_int_keeps_integers_a_float_holds_exactly(value):
    assert json_int(value, "z") == value and float(value) == value


@pytest.mark.parametrize("value", [2 ** 53 + 1, -(2 ** 53) - 1, 10 ** 400, -(10 ** 400)])
def test_json_int_rejects_integers_past_2_to_the_53(value):
    with pytest.raises(ValueError, match=r'^"z" holds an integer outside -2\*\*53\.\.2\*\*53$'):
        json_int(value, "z")
