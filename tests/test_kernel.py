"""The Grassmann kernel against naive references, and non-finite coefficients.

The product reference works on index lists: it concatenates the generator
indices of each pair of monomials, takes the sign of the sorting permutation
from ``_sort_sign`` and accumulates in the kernel's pair order.  Both sides
therefore do the same floating-point operations, and the comparison is exact
equality of the coefficient maps, not a tolerance.
"""

import ast
import cmath
import contextlib
import io
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl11 import cli, grassmann, integrable
from gl11.cech import Cochain, tetrahedron_nerve
from gl11.grassmann import (
    DEFAULT_TOL,
    PRUNE_TOL,
    ConjugationTable,
    GrassmannElement,
    _indices_to_mask,
    _mask_to_indices,
    _sort_sign,
    nan_max,
    random_element,
)
from gl11.hitchin import LocalFunction, LocalMatrix
from gl11.integrable import (garnier_hamiltonian, garnier_hamiltonian_expanded, odd_gradient,
                             poisson_bracket, random_system)
from gl11.reports import CheckReport
from gl11.supergroup import (GroupCoords, SuperMatrix11, coords_inverse, coords_product,
                             from_coords, random_coords)

N = 6
NAN = math.nan
INF = math.inf

coefficients = st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                  allow_infinity=False)
all_masks = st.integers(0, (1 << N) - 1)
odd_masks = all_masks.filter(lambda m: m.bit_count() % 2 == 1)


def elements(masks=all_masks, max_size=8, coeffs=coefficients):
    return st.dictionaries(masks, coeffs, max_size=max_size).map(
        lambda terms: GrassmannElement(N, terms))


body_only = elements(st.just(0))
any_element = st.one_of(elements(), body_only)
odd_element = elements(odd_masks)


def reference_product(x, y):
    terms = {}
    for ma, ca in x.terms.items():
        ia = list(_mask_to_indices(ma))
        for mb, cb in y.terms.items():
            ib = list(_mask_to_indices(mb))
            if set(ia) & set(ib):
                continue
            m = _indices_to_mask(ia + ib)
            terms[m] = terms.get(m, 0j) + ca * cb * _sort_sign(ia + ib)
    return {m: c for m, c in terms.items() if abs(c) > PRUNE_TOL}


def near_negation(x, eps):
    """-x shifted by eps on every coefficient: x plus it cancels to eps."""
    return GrassmannElement(N, {m: -c + eps for m, c in x.terms.items()})


t1 = GrassmannElement.monomial(N, [1])
t2 = GrassmannElement.monomial(N, [2])


@settings(max_examples=200, deadline=None)
@given(any_element, any_element)
@example(t1 + t2, t1 + t2)  # t1 t2 + t2 t1 cancels exactly
@example(GrassmannElement.scalar(N, 2.0), t1 + t2)
def test_product_matches_index_list_reference(x, y):
    assert (x * y).terms == reference_product(x, y)


@settings(max_examples=100, deadline=None)
@given(odd_element, odd_element)
def test_odd_times_odd_matches_reference(x, y):
    assert (x * y).terms == reference_product(x, y)
    assert (x * y).is_even()


@settings(max_examples=100, deadline=None)
@given(any_element, any_element)
def test_difference_equals_sum_with_negation(x, y):
    assert (x - y).terms == (x + (-y)).terms


@settings(max_examples=100, deadline=None)
@given(elements(max_size=6, coeffs=st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=4.0, allow_nan=False, allow_infinity=False)),
    st.sampled_from([0.0, 1e-13, 4e-13, 9e-13]))
@example(GrassmannElement(N, {3: 1 + 1j, 0: 2.0}), 5e-13)
def test_sum_cancelling_below_prune_tol(x, eps):
    y = near_negation(x, eps)
    assert (x + y).terms == {}
    assert (x - (-y)).terms == (x + y).terms


def test_nan_survives_construction():
    x = GrassmannElement(4, {0: NAN, 3: 1})
    assert set(x.terms) == {0, 3}
    assert math.isnan(x.max_abs())


def test_inf_minus_inf_is_a_failing_check():
    big = GrassmannElement(N, {0: INF, 1: 1.0})
    residual = (big - big).max_abs()
    assert math.isnan(residual)
    report = CheckReport()
    report.add("blown_up", residual, 1e-9)
    assert not report.checks[0].passed
    assert not report.ok


def test_an_inf_coefficient_stays_inf_on_every_row_of_the_pair_loop():
    # t2 t1 = -t1 t2: multiplying inf + nan j by a sign factor made the inf part NaN
    x = GrassmannElement(N, {2: INF, 0: 1.0})
    for product, inf in ((x * t1, -INF), (t1 * x, INF), (x * GrassmannElement.one(N), INF)):
        assert product.terms[max(product.terms)].real == inf  # t1 t2 or t2
        assert product.max_abs() == INF
        expected = GrassmannElement(N, {m: 1.0 for m in product.terms})
        for residual in (product.residual(expected), expected.residual(product)):
            assert math.isinf(residual) or math.isnan(residual)
            report = CheckReport()
            report.add("blown_up", residual, DEFAULT_TOL)
            assert not report.ok and not report.worst() <= DEFAULT_TOL


def test_max_abs_reports_nan_wherever_it_sits():
    for terms in ({0: NAN, 1: 5.0}, {1: 5.0, 2: NAN}, {2: NAN}):
        assert math.isnan(GrassmannElement(N, terms).max_abs())
    one = GrassmannElement.one(N)
    zero = GrassmannElement.zero(N)
    poisoned = GrassmannElement(N, {0: NAN})
    assert math.isnan(SuperMatrix11(one, zero, zero, poisoned).max_abs())
    assert math.isnan(SuperMatrix11(poisoned, zero, zero, one).max_abs())
    assert SuperMatrix11(one, zero, zero, one).max_abs() == 1.0


def test_nan_max():
    assert nan_max([]) == 0.0
    assert nan_max([0.5, 2.0, 1.0]) == 2.0
    assert math.isnan(nan_max([0.0, NAN]))
    assert math.isnan(nan_max([NAN, 3.0]))
    assert nan_max([1.0, INF]) == INF


def test_check_report_max_residual_keeps_nan():
    # the report-wide maximum residual is worst() with no prefix
    report = CheckReport()
    report.add("finite", 1.0, 1e-9)
    report.add("blown_up", NAN, 1e-9)
    assert math.isnan(report.worst())


def test_check_report_worst_keeps_nan():
    report = CheckReport()
    report.add("alpha[1]", 1.0, 1e-9)
    report.add("alpha[2]", NAN, 1e-9)
    report.add("beta[1]", 2.0, 1e-9)
    assert math.isnan(report.worst("alpha"))
    assert report.worst("beta") == 2.0
    assert math.isnan(report.worst())  # no prefix: every check


# -- the fused residual, the one-pair combination, the prune scan and parity --

def same_float(a, b):
    """a and b are the same float, NaN included."""
    return a == b or (a != a and b != b)


# the smallest magnitude an element stores: every coefficient at or below
# PRUNE_TOL is pruned at construction
SMALLEST = math.nextafter(PRUNE_TOL, 1.0)
edge_coefficients = st.sampled_from([SMALLEST, -SMALLEST, 1j * SMALLEST, PRUNE_TOL, 2 * PRUNE_TOL,
                                     NAN, INF, -INF, complex(0.0, INF), 0.5])
edge_elements = st.dictionaries(all_masks, st.one_of(coefficients, edge_coefficients),
                                max_size=6).map(lambda terms: GrassmannElement(N, terms))
residual_operands = st.one_of(any_element, edge_elements, st.just(GrassmannElement.zero(N)))
SMALLEST_T1 = GrassmannElement(N, {1: SMALLEST, 2: 1.0})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(residual_operands, residual_operands)
@example(t1, t2)                                             # disjoint supports
@example(GrassmannElement.zero(N), GrassmannElement.zero(N))
@example(GrassmannElement(N, {1: SMALLEST}), GrassmannElement.zero(N))
@example(GrassmannElement(N, {0: 1.0, 1: SMALLEST}), GrassmannElement.one(N))
@example(GrassmannElement(N, {3: NAN}), t1)
@example(t1, GrassmannElement(N, {1: INF}))
def test_residual_is_the_max_abs_of_the_difference(x, y):
    assert same_float(x.residual(y), (x - y).max_abs())
    assert same_float(y.residual(x), (y - x).max_abs())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(residual_operands, min_size=8, max_size=8))
def test_supermatrix_residual_is_the_max_abs_of_the_difference(entries):
    x = SuperMatrix11._graded(*entries[:4])  # entries of any parity, unchecked
    y = SuperMatrix11._graded(*entries[4:])
    assert same_float(x.residual(y), (x - y).max_abs())
    assert (x.residual(y) <= DEFAULT_TOL) == ((x - y).max_abs() <= 1e-9)


# LocalFunction coefficients as the kernel and the readers store them: pruned,
# NaN and inf kept
stored_coefficients = st.one_of(any_element, edge_elements)
local_functions = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                  stored_coefficients, max_size=4).map(
                                      lambda terms: LocalFunction(N, terms))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(local_functions, local_functions)
@example(LocalFunction(N), LocalFunction(N))
@example(LocalFunction(N, {(1, 0): t1}), LocalFunction(N, {(0, 1): t1}))
@example(LocalFunction(N, {(0, 0): GrassmannElement(N, {3: NAN})}),
         LocalFunction(N, {(1, 1): t2}))
def test_local_function_residual_is_the_max_abs_of_the_difference(x, y):
    assert same_float(x.residual(y), (x - y).max_abs())
    assert same_float(y.residual(x), (y - x).max_abs())


# cochains on the solid tetrahedron; a simplex without a value reads as zero
TETRAHEDRON = tetrahedron_nerve()


def cochain_pairs(degree):
    values = st.dictionaries(st.sampled_from(TETRAHEDRON.simplices[degree]),
                             stored_coefficients, max_size=6)
    return st.tuples(values, values).map(
        lambda pair: [Cochain(TETRAHEDRON, degree, N, v) for v in pair])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([0, 1, 2, 3]).flatmap(cochain_pairs))
@example([Cochain(TETRAHEDRON, 1, N), Cochain(TETRAHEDRON, 1, N)])
@example([Cochain(TETRAHEDRON, 1, N, {(1, 2): t1}), Cochain(TETRAHEDRON, 1, N, {(2, 1): t1})])
@example([Cochain(TETRAHEDRON, 2, N, {(1, 2, 3): GrassmannElement(N, {3: NAN})}),
          Cochain(TETRAHEDRON, 2, N, {(1, 2, 4): t2})])
def test_cochain_residual_is_the_max_abs_of_the_difference(pair):
    x, y = pair
    assert same_float(x.residual(y), (x - y).max_abs())
    assert same_float(y.residual(x), (y - x).max_abs())


def test_residual_of_different_algebras_raises():
    with pytest.raises(ValueError, match="generator counts differ"):
        GrassmannElement.one(N).residual(GrassmannElement.one(N + 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(residual_operands, residual_operands,
       st.one_of(st.sampled_from([0, 0.0, -0.0, 1e-13, 1e-12, 0.5, -0.5, 1j, 1e300]),
                 st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                    allow_infinity=False)))
@example(t1, t1, -1.0)                     # exact cancellation
@example(t1 + t2, t1, 1e-13)               # every scaled term below the prune
def test_add_scaled_is_bitwise_the_sum_with_a_scaled_element(x, other, k):
    expected = x + other * k
    got = x.add_combination((other, k))
    assert list(got.terms) == list(expected.terms)   # the same keys in the same order
    assert all(same_float(a.real, b.real) and same_float(a.imag, b.imag)
               and math.copysign(1, a.real) == math.copysign(1, b.real)
               and math.copysign(1, a.imag) == math.copysign(1, b.imag)
               for a, b in zip(got.terms.values(), expected.terms.values()))


def test_prune_scan_keeps_nan_and_inf():
    for terms in ({0: NAN, 1: 1.0}, {0: INF, 1: -INF}, {1: complex(0.0, NAN)}):
        assert set(GrassmannElement(N, terms).terms) == set(terms)
    x = GrassmannElement(N, {0: NAN, 1: 1e-13, 2: INF, 3: 2.0})
    assert set(x.terms) == {0, 2, 3}


def stores_no_small_coefficient(terms):
    """No coefficient of magnitude <= PRUNE_TOL; NaN and inf may stay."""
    return not any(abs(c) <= PRUNE_TOL for c in terms.values())


def graded_part(x, odd):
    """The monomials of x of odd (odd=1) or even (odd=0) length."""
    return GrassmannElement(N, {m: c for m, c in x.terms.items() if m.bit_count() % 2 == odd})


SWAP = ConjugationTable.swap_halves(N)
producer_scales = st.one_of(
    st.sampled_from([1e-13, -1e-13, PRUNE_TOL, SMALLEST, -SMALLEST, 0.0, 1.0, -1.0, 1j,
                     NAN, INF, -INF]),
    coefficients)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(residual_operands, residual_operands, producer_scales, st.integers(1, N))
@example(SMALLEST_T1, -SMALLEST_T1, 1e-13, 1)                    # every sum cancels to 0
@example(SMALLEST_T1, t1, -SMALLEST, 1)                          # t1 cancels in the combination
@example(GrassmannElement(N, {0: NAN, 3: SMALLEST}), t1 + t2, INF, 2)
def test_every_producer_stores_no_coefficient_at_or_below_the_prune(x, y, k, i):
    # the unscanned producers hand _pruned maps that already hold the invariant,
    # and every result, scanned or not, holds it; a NaN of x stays in each sum
    with pytest.MonkeyPatch.context() as patch:
        real = grassmann._pruned

        def vouched(n, terms):
            assert stores_no_small_coefficient(terms)
            return real(n, terms)

        patch.setattr(grassmann, "_pruned", vouched)
        keeps_nan = [x + y, x - y, x + k, x - k, k - x, -x, x * k, k * x, x.conjugate(SWAP),
                     x.add_combination((y, k)), x.add_combination((y, k), (x, -1.0), (y, -k))]
        results = keeps_nan + [x.soul(), x.derivative(i), x * y,
                               GrassmannElement.dot((x, y), (y, x))]
        even = graded_part(x, 0)
        if cmath.isfinite(even.body()):  # e^inf overflows
            results += [even.exp(), *even.exp_pair()]
            if abs(even.body()) > PRUNE_TOL:
                results += [even.inv(), even.log()]
        alpha, beta = graded_part(x, 1), graded_part(y, 1) * k
        for s in (GrassmannElement.zero(N), GrassmannElement.scalar(N, SMALLEST)):
            c = GroupCoords(GrassmannElement.zero(N), s, alpha, beta)
            results += from_coords(c).entries()
            for law in (coords_product(c, c), coords_inverse(c)):
                results += [law.h, law.s, law.alpha, law.beta]
        if math.isfinite(x.max_abs()) and math.isfinite((y * k).max_abs()):
            results.append(GrassmannElement.from_dict(
                {"n": N, "terms": x.to_dict()["terms"] + (y * k).to_dict()["terms"]}))
        if cmath.isfinite(k):
            results.append(random_element(np.random.default_rng(0), N, num_terms=4, scale=abs(k)))
    for r in results:
        assert stores_no_small_coefficient(r.terms), r
    if any(c != c for c in x.terms.values()):
        assert all(math.isnan(r.max_abs()) for r in keeps_nan)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(any_element)
def test_parity_tests_match_the_monomial_lengths(x):
    lengths = [m.bit_count() for m in x.terms]
    assert x.is_even() == all(k % 2 == 0 for k in lengths)
    assert x.is_odd() == all(k % 2 == 1 for k in lengths)


def test_parity_of_zero_odd_and_mixed():
    zero = GrassmannElement.zero(N)
    assert zero.is_even() and zero.is_odd() and zero.parity() == "even"
    assert t1.is_odd() and not t1.is_even() and t1.parity() == "odd"
    assert (t1 * t2).is_even() and not (t1 * t2).is_odd()
    mixed = GrassmannElement.one(N) + t1
    assert not mixed.is_even() and not mixed.is_odd() and mixed.parity() == "mixed"


# -- the fused sum of products: GrassmannElement.dot and LocalFunction.dot ------

def same_terms(got, expected):
    """The same keys in the same order and the same floats, signed zeros included."""
    return list(got) == list(expected) and all(
        same_float(a.real, b.real) and same_float(a.imag, b.imag)
        and math.copysign(1, a.real) == math.copysign(1, b.real)
        and math.copysign(1, a.imag) == math.copysign(1, b.imag)
        for a, b in zip(got.values(), expected.values()))


def reference_dot(pairs):
    """(sum of reference_product over the pairs, the scale of its terms)."""
    terms, scale = {}, 1.0
    for x, y in pairs:
        for m, c in reference_product(x, y).items():
            terms[m] = terms.get(m, 0j) + c
        scale += sum(map(abs, x.terms.values())) * sum(map(abs, y.terms.values()))
    return terms, scale


@settings(max_examples=150, deadline=None, derandomize=True)
@given(residual_operands, residual_operands)
@example(t1 + t2, t1 + t2)
@example(-GrassmannElement(N, {0: SMALLEST, 1: 1.0}), GrassmannElement.one(N))  # -0.0 parts
def test_dot_of_one_pair_is_the_product_bit_for_bit(x, y):
    assert same_terms(GrassmannElement.dot((x, y)).terms, (x * y).terms)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(any_element, any_element), min_size=1, max_size=5))
@example([(t1, t2), (t2, t1)])                    # cancels exactly
def test_dot_of_k_pairs_is_the_sum_of_the_products(pairs):
    got = GrassmannElement.dot(*pairs).terms
    expected, scale = reference_dot(pairs)
    # the reference prunes each product, dot only the sum
    tol = PRUNE_TOL * (scale + len(pairs) + 1)
    for m in got.keys() | expected.keys():
        assert abs(got.get(m, 0j) - expected.get(m, 0j)) <= tol
    assert all(abs(c) > PRUNE_TOL for c in got.values())


def test_dot_keeps_nan_and_inf_and_prunes_the_rest():
    one = GrassmannElement.one(N)
    small = GrassmannElement.scalar(N, 1e-7)
    poisoned = GrassmannElement(N, {4: NAN, 8: 1e-7})
    got = GrassmannElement.dot((poisoned, small), (t1, t2))   # 1e-14 t4 is pruned
    assert set(got.terms) == {3, 4} and math.isnan(got.terms[4].real)
    big = GrassmannElement(N, {0: INF, 1: 1.0})
    got = GrassmannElement.dot((big, one), (-big, one))
    assert set(got.terms) == {0} and math.isnan(got.max_abs())   # inf - inf stays a NaN
    got = GrassmannElement.dot((big, t2), (one, t1))
    assert set(got.terms) == {1, 2, 3} and got.terms[2].real == INF


def test_dot_of_different_algebras_raises_as_the_product_does():
    other = GrassmannElement.one(N + 1)
    with pytest.raises(ValueError, match="generator counts differ: %d vs %d" % (N, N + 1)):
        t1 * other
    with pytest.raises(ValueError, match="generator counts differ: %d vs %d" % (N, N + 1)):
        GrassmannElement.dot((t1, other))
    with pytest.raises(ValueError, match="generator counts differ: %d vs %d" % (N, N + 1)):
        GrassmannElement.dot((t1, t2), (other, other))
    f = LocalFunction.constant(t1)
    with pytest.raises(ValueError, match="generator counts differ: %d vs %d" % (N, N + 1)):
        LocalFunction.dot((f, f), (LocalFunction.one(N + 1), LocalFunction.one(N + 1)))


finite_local_functions = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                         any_element, max_size=4).map(
                                             lambda terms: LocalFunction(N, terms))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(local_functions, local_functions), min_size=1, max_size=3))
@example([(LocalFunction.constant(t1), LocalFunction.constant(t1))])   # t1 t1 = 0
@example([(LocalFunction.constant(t1), LocalFunction.constant(t2)),
          (LocalFunction.constant(t2), LocalFunction.constant(t1))])   # cancels exactly
def test_local_function_dot_stores_no_empty_coefficient(pairs):
    # nilpotent_series stops at the first power whose terms are empty
    got = LocalFunction.dot(*pairs)
    assert all(c.terms for c in got.terms.values())
    assert all(c.terms for c in (pairs[0][0] * pairs[0][1]).terms.values())


def test_local_function_dot_of_cancelling_pairs_is_empty():
    f = LocalFunction(N, {(1, 0): t1 + t2, (0, 2): GrassmannElement.one(N)})
    g = LocalFunction(N, {(0, 1): t2})
    assert LocalFunction.dot((f, g), (-f, g)).terms == {}
    w = LocalFunction(N, {(1, 0): t1})
    assert (w * w).terms == {}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(finite_local_functions, min_size=8, max_size=8))
def test_local_matrix_product_is_its_entrywise_formula(entries):
    x = LocalMatrix._graded(*entries[:4])  # entries of any parity, unchecked
    y = LocalMatrix._graded(*entries[4:])
    product = x * y
    assert type(product) is LocalMatrix
    formulas = (x.a * y.a + x.beta * y.gamma, x.a * y.beta + x.beta * y.d,
                x.gamma * y.a + x.d * y.gamma, x.gamma * y.beta + x.d * y.d)
    # the formula prunes each of its at most 2 * 9 * 9 coefficient products
    # and every partial sum; the fused entry only its sum
    scale = sum(f.max_abs() for f in entries[:4]) * sum(f.max_abs() for f in entries[4:])
    for got, formula in zip(product.entries(), formulas):
        assert got.residual(formula) <= PRUNE_TOL * (400 + scale)


# -- the pair loop's signs: one parity mask per left monomial ------------------

def mask_sign(masks, a, b):
    """The sign with which the pair loop adds the pair (a, b), read from the
    parity mask of a."""
    return -1 if (b & masks[a]).bit_count() & 1 else 1


def concatenation_sign(a, b):
    return _sort_sign(_mask_to_indices(a) + _mask_to_indices(b))


def test_the_mask_sign_is_the_sorting_sign_of_every_disjoint_pair_on_8_generators():
    masks = grassmann._OddMasks()
    pairs = 0
    for owner in itertools.product(range(3), repeat=8):  # generator k in a, in b or in neither
        a = sum(1 << k for k, o in enumerate(owner) if o == 1)
        b = sum(1 << k for k, o in enumerate(owner) if o == 2)
        assert mask_sign(masks, a, b) == concatenation_sign(a, b), (a, b)
        pairs += 1
    assert pairs == 3 ** 8 == 6561


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))
@example((1 << 64) - 1, 0)
@example(1 << 63, (1 << 63) - 1)
def test_the_mask_sign_is_the_sorting_sign_on_64_generators(a, b):
    b &= ~a
    assert mask_sign(grassmann._OddMasks(), a, b) == concatenation_sign(a, b)


def sign_factor_dot(*pairs):
    """Sum of x * y over the pairs by the pair loop that multiplies each
    disjoint pair by its sign, ca * cb * sign, the sign of sorting the
    concatenated indices; pruned once, in insertion order."""
    terms = {}
    get = terms.get
    for x, y in pairs:
        for ma, ca in x.terms.items():
            for mb, cb in y.terms.items():
                if ma & mb:
                    continue
                m = ma | mb
                terms[m] = get(m, 0j) + (ca * cb * concatenation_sign(ma, mb) if ma and mb
                                         else ca * cb)
    return {m: c for m, c in terms.items() if not abs(c) <= PRUNE_TOL}


@st.composite
def element_pairs(draw, max_n=12):
    """1 to 3 pairs of finite elements on one n <= max_n generators."""
    n = draw(st.integers(1, max_n))
    element = st.dictionaries(st.integers(0, (1 << n) - 1), coefficients, max_size=10).map(
        lambda terms: GrassmannElement(n, terms))
    return draw(st.lists(st.tuples(element, element), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(element_pairs())
@example([(t1 + t2, t1 + t2)])                                   # cancels exactly
@example([(-GrassmannElement(N, {0: SMALLEST, 3: 1.0}), GrassmannElement(N, {4: 1j}))])
def test_the_pair_loop_is_the_sign_factor_loop_bit_for_bit(pairs):
    x, y = pairs[0]
    assert same_terms((x * y).terms, sign_factor_dot((x, y)))
    assert same_terms(GrassmannElement.dot((x, y)).terms, sign_factor_dot((x, y)))
    assert same_terms(GrassmannElement.dot(*pairs).terms, sign_factor_dot(*pairs))


def test_the_mask_dict_stays_within_its_bound():
    bound = grassmann._OddMasks.BOUND
    n = bound.bit_length()  # 2^n - 1 > bound distinct left monomials
    x = GrassmannElement(n, {m: 1.0 for m in range(1, bound + 2)})
    assert len(x.terms) == bound + 1
    assert (x * GrassmannElement.one(n)).terms == x.terms
    masks = grassmann._odd_masks
    assert 0 < len(masks) <= bound
    fresh = grassmann._OddMasks()
    assert all(odd == fresh[a] for a, odd in masks.items())


# -- the fused linear combination: GrassmannElement.add_combination ---------------

def chained(x, pairs):
    """x + y_1 * k_1 + y_2 * k_2 + ...: one scaled element and one sum per pair."""
    for y, k in pairs:
        x = x + y * k
    return x


# -x carries the -0.0 parts that a negation makes; the scales hit the prune
# (1e-13, PRUNE_TOL, SMALLEST) and carry NaN, inf and signed zeros
combination_operands = st.one_of(residual_operands, residual_operands.map(lambda x: -x))
combination_scales = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, -1.0, 1e-13, PRUNE_TOL, SMALLEST, -SMALLEST, 0.5,
                     1j, 1e300, NAN, INF, complex(-0.0, 1.0)]),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(combination_operands,
       st.lists(st.tuples(combination_operands, combination_scales), min_size=1, max_size=5))
@example(t1 + t2, [(t1, -1.0), (t1, 2.0)])                 # t1 cancels, then comes back
@example(t1 + t2, [(t1, -1.0 + 1e-13), (t2, 1.0), (t1, 1.0)])   # prunes, then comes back
@example(t1, [(t2, PRUNE_TOL), (t1 + t2, 1e-13)])          # every scaled term at the prune
@example(SMALLEST_T1, [(t1, -SMALLEST), (t2, 1.0), (t1, 1.0)])  # x's t1 cancels, comes back
@example(-t1, [(-t1, 1.0), (t2, -0.0)])                    # -0.0 parts
@example(GrassmannElement(N, {0: NAN, 1: INF}), [(t1, -1.0), (t1, INF)])
def test_add_combination_is_bitwise_the_chain_of_scaled_sums(x, pairs):
    assert hex_terms(x.add_combination(*pairs)) == hex_terms(chained(x, pairs))
    assert hex_terms(x.add_combination(*pairs[:1])) == hex_terms(chained(x, pairs[:1]))


def test_a_running_sum_that_prunes_is_appended_again():
    assert list((t1 + t2).add_combination((t1, -1.0), (t1, 2.0)).terms) == [2, 1]
    # a 1e-13 coefficient is not stored, so the smallest stored one cancels here
    assert GrassmannElement(N, {1: 1e-13, 2: 1.0}).terms == {2: 1.0}
    got = SMALLEST_T1.add_combination((t1, -SMALLEST), (t2, 1.0), (t1, 1.0))
    assert list(got.terms) == [2, 1] and got.terms[1] == 1.0


def test_add_combination_of_different_algebras_raises_as_the_sum_does():
    other = GrassmannElement.one(N + 1)
    message = "generator counts differ: %d vs %d" % (N, N + 1)
    for pairs in ([(other, 1.0)], [(t1, 1.0), (other, 2.0)], [(t1, 1.0), (t2, 0.5), (other, 0)]):
        with pytest.raises(ValueError, match=message):
            chained(t1, pairs)
        with pytest.raises(ValueError, match=message):
            t1.add_combination(*pairs)


# -- how many elements a fused sum builds ------------------------------------------

@pytest.fixture
def built(count_calls):
    """A list that grows by one for every element the kernel builds, with a
    prune scan (grassmann._element) or without one (grassmann._pruned)."""
    calls = count_calls(grassmann, "_element")
    return count_calls(grassmann, "_pruned", calls)


def test_a_supermatrix_product_builds_one_element_per_entry(built):
    rng = np.random.default_rng(5)
    x, y = (from_coords(random_coords(rng, N)) for _ in range(2))
    built.clear()
    x * y
    assert len(built) == 4


@pytest.mark.parametrize("m", [2, 3, 5])
def test_a_poisson_bracket_of_gradients_builds_one_element(built, m):
    p = random_system(np.random.default_rng(6), m)
    grads = [odd_gradient(p, garnier_hamiltonian(p, i)) for i in range(2)]
    built.clear()
    poisson_bracket(p, grads[0], grads[1])
    assert len(built) == 1


def test_garnier_hamiltonians_build_three_elements_per_pair_and_one_sum_each(built):
    # one supertrace product per pair i < j is two dots and a difference, and
    # each H_i is one combination of its m - 1 supertraces
    p = random_system(np.random.default_rng(7), 5)
    p.residues  # kept, and built before the count
    built.clear()
    p.hamiltonians
    assert len(built) == 3 * p.m * (p.m - 1) // 2 + p.m


def test_an_expanded_hamiltonian_builds_one_element(built):
    # theta_k eta_l is read from the table of site_products, and the scalar c
    # and every entry of the one-body form go into one combination: m - 1
    # more elements when each j's four terms were combined on their own
    p = random_system(np.random.default_rng(7), 5)
    garnier_hamiltonian_expanded(p, 1)  # builds the site_products table, which is kept
    built.clear()
    garnier_hamiltonian_expanded(p, 0)
    assert len(built) == 1


def test_garnier_check_m5_count10_forms_100_supertraces_1400_products_1160_elements(
        built, count_calls):
    # 200 supertraces, 2,300 products and 2,260 elements when str(A_i A_j) was
    # formed for both orders of a pair and theta_i eta_j, eta_i theta_j were
    # multiplied for every system; 4,200 elements when every + and scalar *
    # built an element of its own; 1,460 when each j's four terms of an
    # expanded Hamiltonian were combined on their own; 1,260 when the expanded
    # route built u_k - 2 theta_k eta_k for every system.  The table of
    # site_products is built before the count, so the count is the run's in
    # any test order
    integrable.site_products(5)
    built.clear()
    supertraces = count_calls(integrable, "supertrace_product")
    products = count_calls(grassmann, "_accumulate")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["garnier-check", "--m", "5", "--count", "10"]) == 0
    assert (len(supertraces), len(products)) == (100, 1400)
    assert len(built) == 1160


# -- the series of exp, inv and log against the stepwise sum -------------------

def stepwise_series(w, coeff):
    """1 + sum coeff(k) w^k with one sum, pruned, per power (for elements the
    sum is a one-pair add_combination's, bit for bit, as tested above)."""
    acc = type(w).one(w.n)
    power, k = w, 1
    while power.terms:
        acc = acc + power * coeff(k)
        power = power * w
        k += 1
    return acc


def stepwise_exp(x):
    return stepwise_series(x.soul(), lambda k: 1.0 / math.factorial(k)) * cmath.exp(x.body())


def stepwise_inv(x):
    r = 1.0 / x.body()
    return stepwise_series(x.soul() * r, lambda k: (-1.0) ** k) * r


def stepwise_log(x):
    b = x.body()
    series = stepwise_series(x.soul() * (1.0 / b), lambda k: (-1.0) ** (k + 1) / k)
    return series - 1 + cmath.log(b)


def hex_terms(x):
    """The stored terms in their order, each part as float.hex: -0.0 and NaN count."""
    return [(m, c.real.hex(), c.imag.hex()) for m, c in x.terms.items()]


even_masks = all_masks.filter(lambda m: m.bit_count() % 2 == 0)
series_coefficients = st.one_of(coefficients, st.sampled_from(
    [PRUNE_TOL, 3 * PRUNE_TOL, 1j, -1.0, NAN, INF, complex(0.0, -2.0)]))
even_elements = elements(even_masks, coeffs=series_coefficients)
# the kernel stores -0.0 parts in results only: a negation makes them
series_operands = st.one_of(even_elements, even_elements.map(lambda x: -x))
# soul t12 + t34 + t56 + 0.7 t1..6 + e t1234: the t1..6 term of exp reads 0.7 after
# w, 0.7 + e ~ 1e-13 after w^2/2 (pruned) and 1 again after w^3/6
CANCELS_THEN_RETURNS = GrassmannElement(N, {0: 0.5, 0b11: 1.0, 0b1100: 1.0, 0b110000: 1.0,
                                            0b111111: 0.7, 0b1111: -0.7 + 1e-13})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(series_operands)
@example(CANCELS_THEN_RETURNS)
@example(GrassmannElement(N, {0: 2.0, 0b11: -1.0, 0b1100: 1.0, 0b1111: 1.0 + 1e-13}))
@example(GrassmannElement(N, {0: 1.0, 0b11: 1.0}) * -1.0)
def test_exp_inv_and_log_are_the_stepwise_series_bit_for_bit(x):
    assert hex_terms(x.exp()) == hex_terms(stepwise_exp(x))
    assert hex_terms(x.exp_pair()[0]) == hex_terms(x.exp())
    assert hex_terms(x.exp_pair()[1]) == hex_terms((-x).exp())
    if abs(x.body()) > PRUNE_TOL:
        assert hex_terms(x.inv()) == hex_terms(stepwise_inv(x))
        assert hex_terms(x.log()) == hex_terms(stepwise_log(x))


def test_the_cancelling_example_is_pruned_mid_series():
    # the stepwise sum deletes the t1..6 term at w^2 and adds it back at w^3,
    # so a sum pruned only at the end would read 1 + 1e-13 there
    w = CANCELS_THEN_RETURNS.soul()
    after_w2 = stepwise_series(w, lambda k: 1.0 / math.factorial(k) if k <= 2 else 0.0)
    assert 0b111111 not in after_w2.terms
    assert list(stepwise_exp(CANCELS_THEN_RETURNS).terms)[-1] == 0b111111


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       elements(all_masks.filter(lambda m: m != 0), max_size=4,
                                coeffs=series_coefficients), max_size=4),
       st.sampled_from([1.0, -0.5, 2.0 - 1j, 1j]))
# the scaled odd powers carry a -0.0 part here, which the stepwise sum stores as 0.0
@example({(1, 0): GrassmannElement(N, {0b11: -1.0}), (0, 1): GrassmannElement(N, {0b1100: -1.0})},
         1j)
def test_local_function_inverse_is_the_stepwise_series_bit_for_bit(souls, body):
    f = LocalFunction(N, souls) + LocalFunction.constant(GrassmannElement.scalar(N, body))
    scale = 1.0 / f.body()
    w = f * scale - LocalFunction.one(N)
    expected = stepwise_series(w, lambda k: (-1.0) ** k) * scale
    got = f.inv()
    assert [(key, hex_terms(c)) for key, c in got.terms.items()] == [
        (key, hex_terms(c)) for key, c in expected.terms.items()]


def test_exp_overflow_raises_value_error_naming_the_real_part():
    soul = GrassmannElement(N, {0b11: 0.5})
    for body in (710.0, complex(1000.0, 1.0)):
        x = soul + body
        with pytest.raises(ValueError, match="real part %r" % body.real):
            x.exp()
        for y in (x, -x):  # either half of the pair overflows
            with pytest.raises(ValueError, match="real part %r" % abs(body.real)):
                y.exp_pair()
    near = (soul + 709.7).exp()
    assert near.terms == stepwise_exp(soul + 709.7).terms and near.max_abs() < INF
    # an underflow is no error: e^-1000 is 0, so every term prunes away
    assert (soul - 1000.0).exp().terms == {} == stepwise_exp(soul - 1000.0).terms


# -- one owner of the term maps ------------------------------------------------------

# the pair loop, its parity masks, the scaled-sum loop, the prune and its two
# element builders, and the series: how a term map is stored, signed and pruned
TERM_MAP_INTERNALS = {"_accumulate", "_combine", "_element", "_prune", "_pruned",
                      "_OddMasks", "_odd_masks", "nilpotent_series"}


def test_no_module_but_grassmann_reaches_the_term_map_internals():
    # neither imported by name nor read as an attribute of the kernel module
    found = []
    for path in sorted(pathlib.Path(grassmann.__file__).parent.glob("*.py")):
        if path.name == "grassmann.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(path.name, name) for name in names if name in TERM_MAP_INTERNALS]
    assert found == []


def test_the_default_tolerance_is_spelled_once():
    # 1e-9 is DEFAULT_TOL (pass/fail) or cech.RANK_TOL (singular values); every
    # other use reads one of the two names
    found = []
    for path in sorted(pathlib.Path(grassmann.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        found += [(path.name, lines[node.lineno - 1]) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and node.value == 1e-9]
    assert found == [("cech.py", "RANK_TOL = 1e-9"), ("grassmann.py", "DEFAULT_TOL = 1e-9")]
