"""GL(1|1)/SL(1|1) supermatrix tests: group law, Berezinian, diagonalization."""

import ast
import cmath
import math
import pathlib

import numpy as np
import pytest

from gl11.grassmann import (DEFAULT_TOL, PRUNE_TOL, GrassmannElement, NotInvertibleError,
                            ParityError, nan_max, random_even, random_odd)
from gl11 import grassmann, supergroup
from gl11.hitchin import LocalFunction, LocalMatrix
from gl11.supergroup import (
    GroupCoords,
    SuperMatrix11,
    block_inverse,
    coords_inverse,
    coords_product,
    from_coords,
    group_law_suite,
    higgs_eigen,
    random_coords,
    to_coords,
)

N = 8


def t(*indices):
    return GrassmannElement.monomial(N, indices)


def zero():
    return GrassmannElement.zero(N)


def one():
    return GrassmannElement.one(N)


def scalar(c):
    return GrassmannElement.scalar(N, c)


def higgs_transform(phi: SuperMatrix11, g: SuperMatrix11) -> SuperMatrix11:
    """Patch-to-patch Higgs transformation g^{-1} phi g."""
    return g.inverse() * phi * g


def test_from_coords_identity():
    m = from_coords(GroupCoords.identity(N))
    assert m.residual(SuperMatrix11.identity(N)) <= DEFAULT_TOL


def test_from_coords_closed_form():
    h = scalar(0.7) + t(1, 2)
    alpha, beta = t(3), t(4)
    m = from_coords(GroupCoords.sl(h, alpha, beta))
    e_h = h.exp()
    assert m.a.residual(e_h * (one() - alpha * beta * 0.5)) <= DEFAULT_TOL
    assert m.beta.residual(e_h * beta) <= DEFAULT_TOL
    assert m.gamma.residual(e_h * alpha) <= DEFAULT_TOL
    assert m.d.residual(e_h * (one() + alpha * beta * 0.5)) <= DEFAULT_TOL


def test_sdet_of_hs_is_exp_s():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = random_even(rng, N, num_terms=3, body=complex(
            rng.standard_normal(), rng.standard_normal()))
        m = from_coords(GroupCoords(zero(), s, zero(), zero()))
        assert m.sdet().residual(s.exp()) <= DEFAULT_TOL


def test_sdet_is_one_on_sl():
    rng = np.random.default_rng(1)
    for _ in range(100):
        c = random_coords(rng, N, sl=True)
        assert from_coords(c).sdet().residual(one()) <= DEFAULT_TOL


def test_sdet_of_general_coords():
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = random_coords(rng, N)
        assert from_coords(c).sdet().residual(c.s.exp()) <= DEFAULT_TOL


def test_mul_identity_and_inverse():
    rng = np.random.default_rng(3)
    ident = SuperMatrix11.identity(N)
    for _ in range(50):
        c = random_coords(rng, N)
        m = from_coords(c)
        assert (m * ident).residual(m) <= DEFAULT_TOL
        assert (m * m.inverse()).residual(ident) <= DEFAULT_TOL
        assert (m.inverse() * m).residual(ident) <= DEFAULT_TOL


def test_sl_inverse_formula():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = random_coords(rng, N, sl=True)
        lhs = from_coords(c).inverse()
        rhs = from_coords(GroupCoords.sl(-c.h, -c.alpha, -c.beta))
        assert lhs.residual(rhs) <= DEFAULT_TOL


def test_gl_inverse_formula():
    # inverse of g~(1, 2, t1, t2) is g~(-1, -2, -e^2 t1, -e^{-2} t2)
    c = GroupCoords(scalar(1.0), scalar(2.0), t(1), t(2))
    lhs = from_coords(c).inverse()
    rhs = from_coords(GroupCoords(scalar(-1.0), scalar(-2.0),
                                  -cmath.exp(2) * t(1), -cmath.exp(-2) * t(2)))
    assert lhs.residual(rhs) <= DEFAULT_TOL
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = random_coords(rng, N)
        assert from_coords(c).inverse().residual(from_coords(coords_inverse(c))) <= DEFAULT_TOL


def test_coords_product_identity_law():
    rng = np.random.default_rng(6)
    c1 = random_coords(rng, N)
    c2 = GroupCoords.identity(N)
    out = coords_product(c1, c2)
    assert from_coords(out).residual(from_coords(c1)) <= DEFAULT_TOL


def test_coords_product_h_correction():
    # s1 = s2 = 0: product of (0, t1, 0) and (0, 0, t2) has h = t1 t2 / 2
    out = coords_product(GroupCoords.sl(zero(), t(1), zero()),
                         GroupCoords.sl(zero(), zero(), t(2)))
    assert out.h.residual(0.5 * t(1, 2)) <= DEFAULT_TOL
    assert out.alpha.residual(t(1)) <= DEFAULT_TOL
    assert out.beta.residual(t(2)) <= DEFAULT_TOL


def test_coords_product_matches_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(200):
        c1 = random_coords(rng, N)
        c2 = random_coords(rng, N)
        lhs = from_coords(coords_product(c1, c2))
        rhs = from_coords(c1) * from_coords(c2)
        assert lhs.residual(rhs) <= DEFAULT_TOL


def test_group_associativity_in_coords():
    rng = np.random.default_rng(8)
    for _ in range(200):
        c1, c2, c3 = (random_coords(rng, N) for _ in range(3))
        lhs = coords_product(coords_product(c1, c2), c3)
        rhs = coords_product(c1, coords_product(c2, c3))
        assert from_coords(lhs).residual(from_coords(rhs)) <= DEFAULT_TOL


def test_to_coords_roundtrips():
    rng = np.random.default_rng(9)
    for _ in range(100):
        c = random_coords(rng, N)
        m = from_coords(c)
        assert from_coords(to_coords(m)).residual(m) <= DEFAULT_TOL
    c = GroupCoords(scalar(1.0), zero(), t(1), t(2))
    back = to_coords(from_coords(c))
    assert back.h.residual(c.h) <= DEFAULT_TOL
    assert back.alpha.residual(c.alpha) <= DEFAULT_TOL
    assert back.beta.residual(c.beta) <= DEFAULT_TOL


def test_to_coords_identity_and_diag():
    c = to_coords(SuperMatrix11.identity(N))
    for part in (c.h, c.s, c.alpha, c.beta):
        assert part.max_abs() <= 1e-12
    # [[2, 0], [0, 1]] has e^{h + s/2} = 2, e^{h - s/2} = 1
    m = SuperMatrix11(scalar(2.0), zero(), zero(), one())
    c = to_coords(m)
    half_log2 = 0.5 * cmath.log(2)
    assert c.h.residual(scalar(half_log2)) <= DEFAULT_TOL
    assert c.s.residual(scalar(2 * half_log2)) <= DEFAULT_TOL


def test_to_coords_negative_diagonal_bodies():
    # diag(-2, -1): the half-log branch must keep the sign of the diagonal
    m = SuperMatrix11(scalar(-2.0), zero(), zero(), scalar(-1.0))
    assert from_coords(to_coords(m)).residual(m) <= DEFAULT_TOL
    rng = np.random.default_rng(15)
    for _ in range(50):
        c = random_coords(rng, N)
        shifted = GroupCoords(c.h + scalar(1j * cmath.pi), c.s, c.alpha, c.beta)
        m = from_coords(shifted)
        assert from_coords(to_coords(m)).residual(m) <= DEFAULT_TOL


def test_to_coords_rejects_noninvertible():
    with pytest.raises(NotInvertibleError):
        to_coords(SuperMatrix11(one(), zero(), zero(), t(1, 2)))


def test_sdet_needs_an_invertible_d_alone():
    # Ber = (a - beta d^{-1} gamma) d^{-1} is defined whenever d is invertible
    m = SuperMatrix11(t(1, 2), t(3), t(4), one())
    assert m.sdet().residual(t(1, 2) - t(3) * t(4)) == 0.0
    # the inverse needs a^{-1} too, and to_coords the log of the Berezinian
    with pytest.raises(NotInvertibleError, match="body is zero"):
        m.inverse()
    with pytest.raises(NotInvertibleError, match="log undefined"):
        to_coords(m)
    singular_d = SuperMatrix11(one(), t(3), t(4), t(1, 2))
    for call in (singular_d.sdet, singular_d.inverse, lambda: to_coords(singular_d)):
        with pytest.raises(NotInvertibleError, match="not invertible: body is zero"):
            call()


@pytest.mark.parametrize("entries", ["grassmann", "local"])
def test_supermatrix_keeps_its_berezinian(count_calls, entries):
    rng = np.random.default_rng(22)
    m = _random_supermatrix(rng) if entries == "grassmann" else random_local_matrix(rng)
    fresh = bits(type(m)(*m.entries()).sdet())
    sdet = m.sdet()
    assert bits(sdet) == fresh
    products = count_calls(grassmann, "_accumulate")
    assert m.sdet() is sdet
    assert products == []
    # a result of the program starts without one and forms its own
    product = m * m
    assert bits(product.sdet()) == bits(type(m)(*product.entries()).sdet())


def test_sdet_homomorphism():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m1 = from_coords(random_coords(rng, N))
        m2 = from_coords(random_coords(rng, N))
        assert (m1 * m2).sdet().residual(m1.sdet() * m2.sdet()) <= DEFAULT_TOL


def test_supertrace_conjugation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = from_coords(random_coords(rng, N))
        phi = _random_supermatrix(rng)
        conj = higgs_transform(phi, g)
        assert conj.supertrace().residual(phi.supertrace()) <= DEFAULT_TOL
        assert (conj * conj).supertrace().residual((phi * phi).supertrace()) <= DEFAULT_TOL


def _random_supermatrix(rng, distinct_diag=True):
    a = random_even(rng, N, num_terms=3, body=complex(
        rng.standard_normal(), rng.standard_normal()))
    d = random_even(rng, N, num_terms=3, body=complex(
        rng.standard_normal(), rng.standard_normal()))
    if distinct_diag:
        # keep body(a - d) away from zero for eigen tests
        gap = a.body() - d.body()
        if abs(gap) < 0.5:
            a = a + GrassmannElement.scalar(N, 1.0 + 0j)
    return SuperMatrix11(a, random_odd(rng, N, num_terms=3),
                         random_odd(rng, N, num_terms=3), d)


def test_higgs_eigen_diagonal_input():
    phi = SuperMatrix11(scalar(2.0), zero(), zero(), scalar(1.0))
    eig = higgs_eigen(phi)
    assert eig.lambda_plus.residual(scalar(2.0)) <= DEFAULT_TOL
    assert eig.lambda_minus.residual(scalar(1.0)) <= DEFAULT_TOL
    assert eig.p_matrix.residual(SuperMatrix11.identity(N)) <= DEFAULT_TOL


def test_higgs_eigen_closed_form_and_conjugation():
    rng = np.random.default_rng(12)
    for _ in range(100):
        phi = _random_supermatrix(rng)
        eig = higgs_eigen(phi)
        st_inv = phi.supertrace().inv()
        # closed forms, sign pinned by the invariant identities
        # lambda_+ - lambda_- = str and lambda_+ + lambda_- = str(phi^2)/str
        assert eig.lambda_plus.residual(phi.a + phi.beta * phi.gamma * st_inv) <= DEFAULT_TOL
        assert eig.lambda_minus.residual(phi.d + phi.beta * phi.gamma * st_inv) <= DEFAULT_TOL
        # invariant forms
        st = phi.supertrace()
        st2 = (phi * phi).supertrace()
        assert (eig.lambda_plus + eig.lambda_minus).residual(st2 * st.inv()) <= DEFAULT_TOL
        assert (eig.lambda_plus - eig.lambda_minus).residual(st) <= DEFAULT_TOL
        # P^{-1} phi P is diagonal with the eigenvalues on the diagonal
        diag = eig.p_matrix.inverse() * phi * eig.p_matrix
        assert diag.a.residual(eig.lambda_plus) <= DEFAULT_TOL
        assert diag.d.residual(eig.lambda_minus) <= DEFAULT_TOL
        assert diag.beta.max_abs() <= 1e-9
        assert diag.gamma.max_abs() <= 1e-9


def test_higgs_eigen_rejects_zero_supertrace_body():
    phi = SuperMatrix11(one(), t(1), t(2), one() + t(1, 2))
    with pytest.raises(NotInvertibleError):
        higgs_eigen(phi)


def test_higgs_transform_identity_and_sl_closed_form():
    rng = np.random.default_rng(13)
    phi = _random_supermatrix(rng)
    assert higgs_transform(phi, SuperMatrix11.identity(N)).residual(phi) <= DEFAULT_TOL
    # supertraceless phi = [[a, delta], [gamma, a]] conjugated by g~(h,s,alpha,beta):
    # off-diagonals scale by e^{-s}, e^{s}; diagonal gains delta*alpha - beta*gamma
    a = random_even(rng, N, num_terms=2, body=0.3)
    delta, gamma = random_odd(rng, N, num_terms=2), random_odd(rng, N, num_terms=2)
    phi = SuperMatrix11(a, delta, gamma, a)
    c = random_coords(rng, N)
    out = higgs_transform(phi, from_coords(c))
    e_s, e_ms = c.s.exp(), (-c.s).exp()
    shift = delta * c.alpha - c.beta * gamma
    assert out.beta.residual(e_ms * delta) <= DEFAULT_TOL
    assert out.gamma.residual(e_s * gamma) <= DEFAULT_TOL
    assert out.a.residual(a + shift) <= DEFAULT_TOL
    assert out.d.residual(a + shift) <= DEFAULT_TOL


def test_supermatrix_parity_validation():
    with pytest.raises(ParityError):
        SuperMatrix11(t(1), zero(), zero(), one())
    with pytest.raises(ParityError):
        GroupCoords(zero(), zero(), one(), zero())


def supermatrix_from_dict(data):
    """The SuperMatrix11 that ``to_dict`` wrote."""
    return SuperMatrix11(*(GrassmannElement.from_dict(data[key])
                           for key in ("a", "beta", "gamma", "d")))


def coords_from_dict(data):
    """The GroupCoords that ``to_dict`` wrote."""
    return GroupCoords(*(GrassmannElement.from_dict(data[key])
                         for key in ("h", "s", "alpha", "beta")))


def test_supermatrix_json_roundtrip():
    rng = np.random.default_rng(14)
    m = _random_supermatrix(rng)
    assert supermatrix_from_dict(m.to_dict()).residual(m) <= DEFAULT_TOL
    c = random_coords(rng, N)
    c2 = coords_from_dict(c.to_dict())
    assert from_coords(c2).residual(from_coords(c)) <= DEFAULT_TOL


GROUP_LAW_CHECKS = ["associativity", "coords_vs_matrix", "identity", "inverse_formula",
                    "sdet_exp_s", "sdet_homomorphism", "to_coords_roundtrip"]


def test_group_law_suite_passes_and_names_every_check():
    report = group_law_suite(np.random.default_rng(4), N, 3, 1e-9)
    assert [c.name for c in report.checks] == GROUP_LAW_CHECKS
    assert report.ok
    assert report.info == {"count": 3}


def test_group_law_suite_corrupt_fails_coords_vs_matrix_alone():
    report = group_law_suite(np.random.default_rng(4), N, 2, 1e-9, corrupt=True)
    assert [c.name for c in report.failing()] == ["coords_vs_matrix"]
    assert report.worst("coords_vs_matrix") >= 0.5


def test_group_law_suite_draw_order():
    """Three draws per round, then the corrupt pair: the generator ends where
    3 * count + 2 plain draws of random_coords leave it."""
    for count, corrupt, draws in ((2, False, 6), (2, True, 8), (0, True, 0)):
        rng = np.random.default_rng(9)
        group_law_suite(rng, N, count, 1e-9, corrupt=corrupt)
        reference = np.random.default_rng(9)
        for _ in range(draws):
            random_coords(reference, N)
        assert rng.standard_normal() == reference.standard_normal()


def difference_fold_suite(rng, n, count, corrupt):
    """The worst residual of every check over the suite's rounds, folded as
    ``(x - y).max_abs()``."""
    worst = dict.fromkeys(GROUP_LAW_CHECKS, 0.0)

    def fold(name, difference):
        worst[name] = nan_max((worst[name], difference.max_abs()))

    ident = from_coords(GroupCoords.identity(n))
    for _ in range(count):
        c1, c2, c3 = random_coords(rng, n), random_coords(rng, n), random_coords(rng, n)
        m1, m2, m3 = from_coords(c1), from_coords(c2), from_coords(c3)
        m12 = m1 * m2
        fold("associativity", m12 * m3 - m1 * (m2 * m3))
        fold("identity", m1 * ident - m1)
        fold("inverse_formula", m1.inverse() - from_coords(coords_inverse(c1)))
        fold("sdet_exp_s", m1.sdet() - c1.s.exp())
        fold("sdet_homomorphism", m12.sdet() - m1.sdet() * m2.sdet())
        fold("coords_vs_matrix", from_coords(coords_product(c1, c2)) - m12)
        fold("to_coords_roundtrip", from_coords(to_coords(m1)) - m1)
    if corrupt and count:
        c1, c2 = random_coords(rng, n), random_coords(rng, n)
        bad = coords_product(c1, c2)
        bad = GroupCoords(bad.h + scalar(0.5), bad.s, bad.alpha, bad.beta)
        fold("coords_vs_matrix", from_coords(bad) - from_coords(c1) * from_coords(c2))
    return worst


@pytest.mark.parametrize("seed, corrupt", [(1, False), (2, False), (3, True), (4, True)])
def test_group_law_suite_equals_the_difference_fold(seed, corrupt):
    report = group_law_suite(np.random.default_rng(seed), N, 10, 1e-9, corrupt)
    oracle = difference_fold_suite(np.random.default_rng(seed), N, 10, corrupt)
    assert {c.name: c.residual.hex() for c in report.checks} == {
        name: value.hex() for name, value in oracle.items()}
    assert (oracle["coords_vs_matrix"] > 1e-9) == corrupt


def test_group_law_suite_keeps_a_nan_residual(monkeypatch):
    nan = GrassmannElement.scalar(N, math.nan)
    monkeypatch.setattr(supergroup, "to_coords",
                        lambda m: GroupCoords(nan, zero(), zero(), zero()))
    report = group_law_suite(np.random.default_rng(4), N, 2, 1e-9)
    assert [c.name for c in report.failing()] == ["to_coords_roundtrip"]
    assert math.isnan(report.worst("to_coords_roundtrip"))


# -- the s = 0 group law against the e^{+-s} formulas ---------------------------

def twisted_product(c1, c2):
    """coords_product with the twist factors e^{+-s_1} always formed."""
    e_s1 = c1.s.exp()
    e_ms1 = (-c1.s).exp()
    alpha = c1.alpha + e_ms1 * c2.alpha
    beta = c1.beta + e_s1 * c2.beta
    h = c1.h + c2.h + (c1.alpha * e_s1 * c2.beta - e_ms1 * c2.alpha * c1.beta) * 0.5
    return GroupCoords(h, c1.s + c2.s, alpha, beta)


def twisted_inverse(c):
    return GroupCoords(-c.h, -c.s, -(c.s.exp() * c.alpha), -((-c.s).exp() * c.beta))


def twisted_from_coords(c):
    e_plus = (c.h + c.s * 0.5).exp()
    e_minus = (c.h + c.s * (-0.5)).exp()
    ab_half = c.alpha * c.beta * 0.5
    return SuperMatrix11(e_plus * (one() - ab_half), e_minus * c.beta,
                         e_plus * c.alpha, e_minus * (one() + ab_half))


def assert_same_terms(x, y):
    """Equal coefficient maps: the same floating-point values, not a tolerance."""
    if isinstance(x, GroupCoords):
        x, y = (x.h, x.s, x.alpha, x.beta), (y.h, y.s, y.alpha, y.beta)
    else:
        x, y = x.entries(), y.entries()
    for u, v in zip(x, y):
        assert u.terms == v.terms


@pytest.mark.parametrize("seed", range(6))
def test_sl_group_law_equals_the_twisted_formulas(seed):
    rng = np.random.default_rng(seed)
    acc = GroupCoords.identity(N)
    for _ in range(8):
        c = random_coords(rng, N, sl=True, num_terms=5)
        inverse = coords_inverse(c)
        assert_same_terms(inverse, twisted_inverse(c))
        step = inverse if rng.integers(2) else c  # reversed steps, as in a holonomy
        product = coords_product(acc, step)
        assert_same_terms(product, twisted_product(acc, step))
        acc = product
        assert_same_terms(from_coords(acc), twisted_from_coords(acc))
    assert acc.alpha.terms and acc.h.terms  # the fold did not collapse


def test_sl_group_law_forms_no_exponential(monkeypatch):
    rng = np.random.default_rng(3)
    c1 = random_coords(rng, N, sl=True, num_terms=5)
    c2 = random_coords(rng, N, sl=True, num_terms=5)
    product, inverse = twisted_product(c1, c2), twisted_inverse(c1)

    def refuse(self):
        raise AssertionError("exp formed on the SL group law")

    monkeypatch.setattr(GrassmannElement, "exp", refuse)
    assert_same_terms(coords_product(c1, c2), product)
    assert_same_terms(coords_inverse(c1), inverse)


@pytest.mark.parametrize("s_term", [
    GrassmannElement(N, {0b11: 1e-11}),
    GrassmannElement(N, {0: math.nextafter(PRUNE_TOL, 1.0)}),  # the smallest s stored
])
def test_tiny_s_keeps_the_twist(s_term):
    rng = np.random.default_rng(5)
    c1 = random_coords(rng, N, sl=True, num_terms=5)
    c1 = GroupCoords(c1.h, s_term, c1.alpha, c1.beta)
    c2 = random_coords(rng, N, num_terms=5)
    assert_same_terms(coords_product(c1, c2), twisted_product(c1, c2))
    assert_same_terms(coords_inverse(c1), twisted_inverse(c1))
    assert_same_terms(from_coords(c1), twisted_from_coords(c1))


def test_is_sl_is_the_exact_test_of_the_shortcuts():
    # a stored s term, however small, keeps a GL element off the SL(1|1) fold
    c = random_coords(np.random.default_rng(6), N, sl=True)
    assert c.is_sl()
    tiny = GrassmannElement(N, {0: math.nextafter(PRUNE_TOL, 1.0)})
    assert not GroupCoords(c.h, tiny, c.alpha, c.beta).is_sl()
    # an s at or below the prune stores nothing: the element is on SL(1|1)
    assert GroupCoords(c.h, GrassmannElement(N, {0: 1e-13}), c.alpha, c.beta).is_sl()


@pytest.mark.parametrize("seed", range(6))
def test_group_law_results_are_graded_and_supplied_parts_are_checked(seed):
    # the law builds its results without a parity scan; a caller's parts keep one
    rng = np.random.default_rng(seed)
    c1 = random_coords(rng, N, num_terms=5)
    c2 = random_coords(rng, N, sl=seed % 2 == 1, num_terms=5)
    m = from_coords(c1)
    for c in (c1, c2, coords_product(c1, c2), coords_product(c2, c1), coords_inverse(c1),
              coords_inverse(c2), to_coords(m)):
        assert (c.h.parity(), c.s.parity(), c.alpha.parity(), c.beta.parity()) == (
            "even", "even", "odd", "odd")
        assert c.alpha.terms and c.beta.terms and c.n == N
    even = random_even(rng, N, num_terms=3, body=0.3)
    odd = random_odd(rng, N, num_terms=3)
    for k, name in enumerate(("h", "s", "alpha", "beta")):
        parts = [even, even, odd, odd]
        parts[k] = odd if k < 2 else even
        with pytest.raises(ParityError, match="^%s must be" % name):
            GroupCoords(*parts)
    # the same for the matrices: their results are graded, a caller's entries checked
    m2 = from_coords(c2)
    for x in (m * m2, m + m2, m - m2, m.inverse(), SuperMatrix11.identity(N),
              higgs_eigen(m).p_matrix):
        assert (x.a.is_even(), x.beta.is_odd(), x.gamma.is_odd(), x.d.is_even()) == (
            True, True, True, True)
    for k, name in enumerate(("a", "beta", "gamma", "d")):
        entries = [even, odd, odd, even]
        entries[k] = even if k in (1, 2) else odd
        with pytest.raises(ParityError, match="^%s must be" % name):
            SuperMatrix11(*entries)
        with pytest.raises(ParityError, match="^%s must be" % name):
            LocalMatrix(*(LocalFunction.constant(x) for x in entries))


# -- the twist e^{+-s} carried by a group element -------------------------------

def hex_terms(x):
    """The stored terms in their order, each part as float.hex: -0.0 and NaN count."""
    return [(m, c.real.hex(), c.imag.hex()) for m, c in x.terms.items()]


@pytest.mark.parametrize("seed", range(6))
def test_the_inverse_carries_the_swapped_twist_bit_for_bit(seed):
    c = random_coords(np.random.default_rng(seed), N, num_terms=5)
    inverse = coords_inverse(c)
    fresh = (-c.s).exp_pair()
    assert [hex_terms(x) for x in inverse.twist()] == [hex_terms(x) for x in fresh]
    twice = coords_inverse(inverse)
    assert all(x is y for x, y in zip(twice.twist(), c.twist()))


@pytest.mark.parametrize("count, corrupt", [(1, False), (4, False), (4, True)])
def test_group_law_suite_takes_one_exp_pair_per_round(count_calls, count, corrupt):
    # coords_inverse, sdet_exp_s and coords_product all read c1's twist
    calls = count_calls(GrassmannElement, "exp_pair")
    group_law_suite(np.random.default_rng(2), N, count, 1e-9, corrupt=corrupt)
    assert len(calls) == count + corrupt


class TwistForms(ast.NodeVisitor):
    """(file, enclosing class and function, method) of every call ``x.exp_pair()``
    and ``x.s.exp()`` or ``(-x.s).exp()`` in a module."""

    def __init__(self, name):
        self.name, self.scope, self.found = name, [], []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            operand = func.value.operand if isinstance(func.value, ast.UnaryOp) else func.value
            if func.attr == "exp_pair" or (func.attr == "exp" and isinstance(
                    operand, ast.Attribute) and operand.attr == "s"):
                self.found.append((self.name, ".".join(self.scope), func.attr))
        self.generic_visit(node)


def test_only_the_twist_forms_e_to_the_s():
    # one owner of e^{+-s}: a second exp_pair caller or an s.exp() fails here
    found = []
    for path in sorted(pathlib.Path(supergroup.__file__).parent.glob("*.py")):
        scan = TwistForms(path.name)
        scan.visit(ast.parse(path.read_text()))
        found += scan.found
    assert found == [("supergroup.py", "GroupCoords.twist", "exp_pair")]


def test_supertrace_product_equals_the_supertrace_of_the_product():
    # the diagonal blocks alone, with the operations of the full product
    rng = np.random.default_rng(90)
    for _ in range(20):
        x = from_coords(random_coords(rng, N))
        y = from_coords(random_coords(rng, N))
        for a, b in ((x, y), (y, x), (x, x)):
            assert supergroup.supertrace_product(a, b).terms == (a * b).supertrace().terms


# -- the closed forms against the generic routes they replace --------------------

def eight_product_inverse(a, beta, gamma, d):
    """The block inverse as [[a^-1 + a^-1 beta d^-1 gamma a^-1, ...]], 8 products."""
    a_inv, d_inv = a.inv(), d.inv()
    upper = a_inv * beta * d_inv
    lower = d_inv * gamma * a_inv
    return (a_inv + upper * gamma * a_inv, -upper, -lower, d_inv + lower * beta * d_inv)


def peeling_to_coords(m):
    """to_coords by peeling H_s off with a full supermatrix product."""
    s = m.sdet().log()
    g = m * from_coords(GroupCoords(zero(), -s, zero(), zero()))
    h = (g.a * g.d).log() * 0.5
    if (g.a.body() / cmath.exp(h.body())).real < 0:
        h = h + scalar(1j * cmath.pi)
    e_h_inv = h.exp().inv()
    return GroupCoords(h, s, e_h_inv * g.gamma, e_h_inv * g.beta)


def random_local_matrix(rng):
    """A LocalMatrix with invertible constant diagonal bodies and nilpotent rest."""
    def poly(parity, body=None):
        terms = {}
        for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
            draw = random_even if parity == "even" else random_odd
            terms[(p, q)] = draw(rng, N, num_terms=3, scale=0.5)
            if parity == "even":
                terms[(p, q)] = terms[(p, q)].soul()
        if body is not None:
            terms[(0, 0)] = terms[(0, 0)] + scalar(body)
        return LocalFunction(N, terms)
    return LocalMatrix(poly("even", 1.3 - 0.4j), poly("odd"), poly("odd"), poly("even", -0.8j))


@pytest.mark.parametrize("entries", ["grassmann", "local"])
def test_block_inverse_matches_the_eight_product_formula(entries):
    rng = np.random.default_rng(16)
    for _ in range(20):
        if entries == "grassmann":
            m = _random_supermatrix(rng)
            ident = SuperMatrix11.identity(N)
        else:
            m = random_local_matrix(rng)
            ident = LocalMatrix.identity(N)
        got = block_inverse(m)
        expected = eight_product_inverse(*m.entries())
        scale = 1.0 + max(x.max_abs() for x in expected)
        assert max(x.residual(y) for x, y in zip(got, expected)) <= 1e-12 * scale
        inverse = m.inverse()
        assert type(inverse) is type(m)
        assert (m * inverse).residual(ident) <= DEFAULT_TOL
        assert (inverse * m).residual(ident) <= DEFAULT_TOL


def bits(x):
    """Every coefficient of x, an element, a local function or a supermatrix of
    either, as float.hex pairs in key order."""
    if isinstance(x, SuperMatrix11):
        return [bits(e) for e in x.entries()]
    if isinstance(x, LocalFunction):
        return [(key, bits(c)) for key, c in x.terms.items()]
    return [(m, c.real.hex(), c.imag.hex()) for m, c in x.terms.items()]


@pytest.mark.parametrize("entries", ["grassmann", "local"])
def test_supermatrix_keeps_each_diagonal_inverse(monkeypatch, entries):
    # sdet forms d^{-1} alone; inverse adds a^{-1}; later reads form nothing
    rng = np.random.default_rng(20)
    m = _random_supermatrix(rng) if entries == "grassmann" else random_local_matrix(rng)
    fresh = bits(m.a.inv()), bits(m.d.inv())
    inverted = []
    real = type(m.a).inv
    monkeypatch.setattr(type(m.a), "inv", lambda x: inverted.append(x) or real(x))
    m.sdet()
    assert len(inverted) == 1 and inverted[0] is m.d
    m.inverse()
    m.sdet()
    block_inverse(m)
    assert len(inverted) == 2 and inverted[1] is m.a
    assert m.a_inv() is m.a_inv() and m.d_inv() is m.d_inv()
    assert (bits(m.a_inv()), bits(m.d_inv())) == fresh


def test_block_inverse_takes_the_matrix():
    # the entries alone carry no kept inverse: the old four-entry call fails loudly
    m = _random_supermatrix(np.random.default_rng(21))
    with pytest.raises(TypeError):
        block_inverse(*m.entries())


@pytest.mark.parametrize("kind", ["gl", "sl", "negative_diagonal"])
def test_to_coords_matches_the_peeling_route(kind):
    rng = np.random.default_rng(17)
    for _ in range(30):
        c = random_coords(rng, N, sl=kind == "sl")
        if kind == "negative_diagonal":
            c = GroupCoords(c.h + scalar(1j * cmath.pi), c.s, c.alpha, c.beta)
        m = from_coords(c)
        got, expected = to_coords(m), peeling_to_coords(m)
        for x, y in ((got.h, expected.h), (got.s, expected.s), (got.alpha, expected.alpha),
                     (got.beta, expected.beta)):
            assert x.residual(y) <= 1e-12 * (1.0 + y.max_abs())
        # the half-log branch test fires exactly on the shifted inputs
        assert (abs(got.h.body().imag) > cmath.pi / 2) == (kind == "negative_diagonal")
    m = SuperMatrix11(scalar(-2.0), zero(), zero(), scalar(-1.0))
    got, expected = to_coords(m), peeling_to_coords(m)
    assert got.h.residual(expected.h) <= 1e-15 and got.s.residual(expected.s) <= 1e-15


@pytest.fixture
def counted(count_calls):
    """The calls of the pair loop ("products"), of the exp, inv and log series
    ("series") and of the element builders ("elements")."""
    counted = {"products": count_calls(grassmann, "_accumulate"),
               "series": count_calls(grassmann, "nilpotent_series"), "elements": []}
    for owner, name in ((grassmann, "_element"), (grassmann, "_pruned"),
                        (GrassmannElement, "__init__")):
        count_calls(owner, name, counted["elements"])
    return counted


def series_products(counted):
    """The counted products made inside a series: those by its w, power * w."""
    souls = [args[0] for args in counted["series"]]
    return [args for args in counted["products"] if any(args[2] is w for w in souls)]


def outside_products(counted):
    """The counted products made outside the exp, inv and log series."""
    return len(counted["products"]) - len(series_products(counted))


def test_closed_forms_make_5_6_and_3_products(counted):
    rng = np.random.default_rng(18)
    for sl in (False, True):
        c = random_coords(rng, N, sl=sl)
        for calls in counted.values():
            calls.clear()
        m = from_coords(c)
        assert outside_products(counted) == 5
        counted["products"].clear()
        block_inverse(m)
        assert outside_products(counted) == 6
        m.sdet()
        counted["products"].clear()
        to_coords(m)  # reads the Berezinian the matrix keeps
        assert outside_products(counted) == 3


def test_exp_builds_one_element_besides_its_powers(counted):
    rng = np.random.default_rng(19)
    for num_terms in (1, 3, 6):
        x = random_even(rng, N, num_terms=num_terms, body=0.3)
        for method, results in ((x.exp, 1), (x.exp_pair, 2)):
            for calls in counted.values():
                calls.clear()
            method()
            powers = 1 + len(series_products(counted))  # the soul, then one product per power
            assert len(counted["elements"]) == powers + results
