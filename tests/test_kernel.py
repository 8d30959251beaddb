"""The Grassmann kernel against naive references, and non-finite coefficients.

The product reference works on index lists: it concatenates the generator
indices of each pair of monomials, takes the sign of the sorting permutation
from ``_sort_sign`` and accumulates in the kernel's pair order.  Both sides
therefore do the same floating-point operations, and the comparison is exact
equality of the coefficient maps, not a tolerance.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl11.grassmann import (
    PRUNE_TOL,
    GrassmannElement,
    _indices_to_mask,
    _mask_to_indices,
    _sort_sign,
    nan_max,
)
from gl11.reports import CheckReport
from gl11.supergroup import SuperMatrix11

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
