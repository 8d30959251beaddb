"""GL(1|1)/SL(1|1) supermatrix tests: group law, Berezinian, diagonalization."""

import cmath
import math

import numpy as np
import pytest

from gl11.grassmann import GrassmannElement, NotInvertibleError, random_even, random_odd
from gl11 import supergroup
from gl11.supergroup import (
    GroupCoords,
    SuperMatrix11,
    coords_inverse,
    coords_product,
    from_coords,
    group_law_suite,
    higgs_eigen,
    higgs_transform,
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


def test_from_coords_identity():
    m = from_coords(GroupCoords.identity(N))
    assert m.is_close(SuperMatrix11.identity(N))


def test_from_coords_closed_form():
    h = scalar(0.7) + t(1, 2)
    alpha, beta = t(3), t(4)
    m = from_coords(GroupCoords.sl(h, alpha, beta))
    e_h = h.exp()
    assert m.a.is_close(e_h * (one() - alpha * beta * 0.5))
    assert m.beta.is_close(e_h * beta)
    assert m.gamma.is_close(e_h * alpha)
    assert m.d.is_close(e_h * (one() + alpha * beta * 0.5))


def test_sdet_of_hs_is_exp_s():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = random_even(rng, N, num_terms=3, body=complex(
            rng.standard_normal(), rng.standard_normal()))
        m = from_coords(GroupCoords(zero(), s, zero(), zero()))
        assert m.sdet().is_close(s.exp())


def test_sdet_is_one_on_sl():
    rng = np.random.default_rng(1)
    for _ in range(100):
        c = random_coords(rng, N, sl=True)
        assert from_coords(c).sdet().is_close(one())


def test_sdet_of_general_coords():
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = random_coords(rng, N)
        assert from_coords(c).sdet().is_close(c.s.exp())


def test_mul_identity_and_inverse():
    rng = np.random.default_rng(3)
    ident = SuperMatrix11.identity(N)
    for _ in range(50):
        c = random_coords(rng, N)
        m = from_coords(c)
        assert (m * ident).is_close(m)
        assert (m * m.inverse()).is_close(ident)
        assert (m.inverse() * m).is_close(ident)


def test_sl_inverse_formula():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = random_coords(rng, N, sl=True)
        lhs = from_coords(c).inverse()
        rhs = from_coords(GroupCoords.sl(-c.h, -c.alpha, -c.beta))
        assert lhs.is_close(rhs)


def test_gl_inverse_formula():
    # inverse of g~(1, 2, t1, t2) is g~(-1, -2, -e^2 t1, -e^{-2} t2)
    c = GroupCoords(scalar(1.0), scalar(2.0), t(1), t(2))
    lhs = from_coords(c).inverse()
    rhs = from_coords(GroupCoords(scalar(-1.0), scalar(-2.0),
                                  -cmath.exp(2) * t(1), -cmath.exp(-2) * t(2)))
    assert lhs.is_close(rhs)
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = random_coords(rng, N)
        assert from_coords(c).inverse().is_close(from_coords(coords_inverse(c)))


def test_coords_product_identity_law():
    rng = np.random.default_rng(6)
    c1 = random_coords(rng, N)
    c2 = GroupCoords.identity(N)
    out = coords_product(c1, c2)
    assert from_coords(out).is_close(from_coords(c1))


def test_coords_product_h_correction():
    # s1 = s2 = 0: product of (0, t1, 0) and (0, 0, t2) has h = t1 t2 / 2
    out = coords_product(GroupCoords.sl(zero(), t(1), zero()),
                         GroupCoords.sl(zero(), zero(), t(2)))
    assert out.h.is_close(0.5 * t(1, 2))
    assert out.alpha.is_close(t(1))
    assert out.beta.is_close(t(2))


def test_coords_product_matches_matrix_product():
    rng = np.random.default_rng(7)
    for _ in range(200):
        c1 = random_coords(rng, N)
        c2 = random_coords(rng, N)
        lhs = from_coords(coords_product(c1, c2))
        rhs = from_coords(c1) * from_coords(c2)
        assert lhs.is_close(rhs)


def test_group_associativity_in_coords():
    rng = np.random.default_rng(8)
    for _ in range(200):
        c1, c2, c3 = (random_coords(rng, N) for _ in range(3))
        lhs = coords_product(coords_product(c1, c2), c3)
        rhs = coords_product(c1, coords_product(c2, c3))
        assert from_coords(lhs).is_close(from_coords(rhs))


def test_to_coords_roundtrips():
    rng = np.random.default_rng(9)
    for _ in range(100):
        c = random_coords(rng, N)
        m = from_coords(c)
        assert from_coords(to_coords(m)).is_close(m)
    c = GroupCoords(scalar(1.0), zero(), t(1), t(2))
    back = to_coords(from_coords(c))
    assert back.h.is_close(c.h)
    assert back.alpha.is_close(c.alpha)
    assert back.beta.is_close(c.beta)


def test_to_coords_identity_and_diag():
    c = to_coords(SuperMatrix11.identity(N))
    for part in (c.h, c.s, c.alpha, c.beta):
        assert part.is_zero(tol=1e-12)
    # [[2, 0], [0, 1]] has e^{h + s/2} = 2, e^{h - s/2} = 1
    m = SuperMatrix11(scalar(2.0), zero(), zero(), one())
    c = to_coords(m)
    half_log2 = 0.5 * cmath.log(2)
    assert c.h.is_close(scalar(half_log2))
    assert c.s.is_close(scalar(2 * half_log2))


def test_to_coords_negative_diagonal_bodies():
    # diag(-2, -1): the half-log branch must keep the sign of the diagonal
    m = SuperMatrix11(scalar(-2.0), zero(), zero(), scalar(-1.0))
    assert from_coords(to_coords(m)).is_close(m)
    rng = np.random.default_rng(15)
    for _ in range(50):
        c = random_coords(rng, N)
        shifted = GroupCoords(c.h + scalar(1j * cmath.pi), c.s, c.alpha, c.beta)
        m = from_coords(shifted)
        assert from_coords(to_coords(m)).is_close(m)


def test_to_coords_rejects_noninvertible():
    with pytest.raises(NotInvertibleError):
        to_coords(SuperMatrix11(one(), zero(), zero(), t(1, 2)))


def test_sdet_homomorphism():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m1 = from_coords(random_coords(rng, N))
        m2 = from_coords(random_coords(rng, N))
        assert (m1 * m2).sdet().is_close(m1.sdet() * m2.sdet())


def test_supertrace_conjugation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = from_coords(random_coords(rng, N))
        phi = _random_supermatrix(rng)
        conj = higgs_transform(phi, g)
        assert conj.supertrace().is_close(phi.supertrace())
        assert (conj * conj).supertrace().is_close((phi * phi).supertrace())


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
    assert eig.lambda_plus.is_close(scalar(2.0))
    assert eig.lambda_minus.is_close(scalar(1.0))
    assert eig.p_matrix.is_close(SuperMatrix11.identity(N))


def test_higgs_eigen_closed_form_and_conjugation():
    rng = np.random.default_rng(12)
    for _ in range(100):
        phi = _random_supermatrix(rng)
        eig = higgs_eigen(phi)
        st_inv = phi.supertrace().inv()
        # closed forms, sign pinned by the invariant identities
        # lambda_+ - lambda_- = str and lambda_+ + lambda_- = str(phi^2)/str
        assert eig.lambda_plus.is_close(phi.a + phi.beta * phi.gamma * st_inv)
        assert eig.lambda_minus.is_close(phi.d + phi.beta * phi.gamma * st_inv)
        # invariant forms
        st = phi.supertrace()
        st2 = (phi * phi).supertrace()
        assert (eig.lambda_plus + eig.lambda_minus).is_close(st2 * st.inv())
        assert (eig.lambda_plus - eig.lambda_minus).is_close(st)
        # P^{-1} phi P is diagonal with the eigenvalues on the diagonal
        diag = eig.p_matrix.inverse() * phi * eig.p_matrix
        assert diag.a.is_close(eig.lambda_plus)
        assert diag.d.is_close(eig.lambda_minus)
        assert diag.beta.max_abs() <= 1e-9
        assert diag.gamma.max_abs() <= 1e-9


def test_higgs_eigen_rejects_zero_supertrace_body():
    phi = SuperMatrix11(one(), t(1), t(2), one() + t(1, 2))
    with pytest.raises(NotInvertibleError):
        higgs_eigen(phi)


def test_higgs_transform_identity_and_sl_closed_form():
    rng = np.random.default_rng(13)
    phi = _random_supermatrix(rng)
    assert higgs_transform(phi, SuperMatrix11.identity(N)).is_close(phi)
    # supertraceless phi = [[a, delta], [gamma, a]] conjugated by g~(h,s,alpha,beta):
    # off-diagonals scale by e^{-s}, e^{s}; diagonal gains delta*alpha - beta*gamma
    a = random_even(rng, N, num_terms=2, body=0.3)
    delta, gamma = random_odd(rng, N, num_terms=2), random_odd(rng, N, num_terms=2)
    phi = SuperMatrix11(a, delta, gamma, a)
    c = random_coords(rng, N)
    out = higgs_transform(phi, from_coords(c))
    e_s, e_ms = c.s.exp(), (-c.s).exp()
    shift = delta * c.alpha - c.beta * gamma
    assert out.beta.is_close(e_ms * delta)
    assert out.gamma.is_close(e_s * gamma)
    assert out.a.is_close(a + shift)
    assert out.d.is_close(a + shift)


def test_supermatrix_parity_validation():
    from gl11.grassmann import ParityError
    with pytest.raises(ParityError):
        SuperMatrix11(t(1), zero(), zero(), one())
    with pytest.raises(ParityError):
        GroupCoords(zero(), zero(), one(), zero())


def test_supermatrix_json_roundtrip():
    rng = np.random.default_rng(14)
    m = _random_supermatrix(rng)
    assert SuperMatrix11.from_dict(m.to_dict()).is_close(m)
    c = random_coords(rng, N)
    c2 = GroupCoords.from_dict(c.to_dict())
    assert from_coords(c2).is_close(from_coords(c))


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


def test_group_law_suite_keeps_a_nan_residual(monkeypatch):
    nan = GrassmannElement.scalar(N, math.nan)
    monkeypatch.setattr(supergroup, "to_coords",
                        lambda m: GroupCoords(nan, zero(), zero(), zero()))
    report = group_law_suite(np.random.default_rng(4), N, 2, 1e-9)
    assert [c.name for c in report.failing()] == ["to_coords_roundtrip"]
    assert math.isnan(report.worst("to_coords_roundtrip"))
