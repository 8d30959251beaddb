"""Hitchin-equation residual tests on the polynomial chart model."""

import numpy as np
import pytest

from gl11.grassmann import (
    ConjugationTable,
    GrassmannElement,
    ParityError,
    random_even,
    random_odd,
)
from gl11.hitchin import (
    DegreeOverflowError,
    LocalFunction,
    LocalMatrix,
    MetricData,
    chern_form,
    chern_form_via_inverse,
    curvature,
    flat_solution,
    higgs_matrix,
    hitchin_residual,
    hitchin_solution,
)
from gl11.supergroup import GroupCoords, coords_product

N = 8
TABLE = ConjugationTable.swap_halves(N)


def t(*indices):
    return GrassmannElement.monomial(N, indices)


def scalar(c):
    return GrassmannElement.scalar(N, c)


def const(x):
    return LocalFunction.constant(x)


def mono(x, p, q):
    return LocalFunction.monomial(x, p, q)


def zero_fn():
    return LocalFunction.zero(N)


def random_poly(rng, parity, max_deg=2, holo=False, anti=False, num_terms=3):
    terms = {}
    for _ in range(num_terms):
        p = 0 if anti else int(rng.integers(0, max_deg + 1))
        q = 0 if holo else int(rng.integers(0, max_deg + 1))
        coeff = (random_even(rng, N, num_terms=2) if parity == "even"
                 else random_odd(rng, N, num_terms=2))
        key = (p, q)
        terms[key] = terms.get(key, GrassmannElement.zero(N)) + coeff
    return LocalFunction(N, terms)


def test_formal_derivatives():
    f = mono(scalar(1.0), 2, 1)  # z^2 zbar
    assert f.d_z().is_close(mono(scalar(2.0), 1, 1))
    assert mono(scalar(1.0), 2, 0).d_zbar().is_zero()
    g = mono(3 * t(1), 2, 0)
    assert g.antiderivative_z().is_close(mono(t(1), 3, 0))
    assert g.antiderivative_z().d_z().is_close(g)


def test_derivatives_commute_and_are_derivations():
    rng = np.random.default_rng(0)
    for _ in range(30):
        f = random_poly(rng, "even")
        g = random_poly(rng, "odd")
        assert f.d_z().d_zbar().is_close(f.d_zbar().d_z())
        assert (f * g).d_z().is_close(f.d_z() * g + f * g.d_z())
        assert (f * g).d_zbar().is_close(f.d_zbar() * g + f * g.d_zbar())


def test_conjugate_fn():
    assert mono(scalar(1.0), 1, 0).conjugate(TABLE).is_close(mono(scalar(1.0), 0, 1))
    f = mono(t(1), 1, 0)
    g = f.conjugate(TABLE)
    assert g.coefficient(0, 1).is_close(t(1).conjugate(TABLE))
    rng = np.random.default_rng(1)
    for _ in range(30):
        f = random_poly(rng, "odd")
        assert f.conjugate(TABLE).conjugate(TABLE).is_close(f)
        # conjugation intertwines d_z and d_zbar
        assert f.d_z().conjugate(TABLE).is_close(f.conjugate(TABLE).d_zbar())


def test_degree_cap_errors_only_on_surviving_terms():
    big = mono(scalar(1.0), 5, 0)
    with pytest.raises(DegreeOverflowError):
        big * big  # z^10 with nonzero coefficient
    odd_big = mono(t(1), 5, 0)
    # coefficient t1*t1 = 0, so the overflowing term cancels before the check
    assert (odd_big * odd_big).is_zero()


def test_local_matrix_inverse():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_poly(rng, "odd", max_deg=2)
        m = MetricData(zero_fn(), rho, TABLE)
        g = m.reduced_matrix()
        prod = g * g.inverse()
        assert prod.is_close(LocalMatrix.identity(N))
        assert (g.inverse() * g).is_close(LocalMatrix.identity(N))


def test_local_matrix_inverse_rejects_off_grade_entries():
    one, odd = const(scalar(1.0)), const(t(1))
    for rows in ([[one, one], [zero_fn(), one]],      # even off-diagonal
                 [[one + odd, zero_fn()], [zero_fn(), one]]):  # mixed diagonal
        with pytest.raises(ParityError):
            LocalMatrix(rows).inverse()


def test_local_function_inverse_keeps_cap():
    rng = np.random.default_rng(5)
    for _ in range(10):
        souls = {k: c.soul() for k, c in random_poly(rng, "even").terms.items()}
        f = LocalFunction(N, souls, cap=16) + const(scalar(1.5 - 0.5j))
        f_inv = f.inv()
        assert f_inv.cap == 16
        assert (f * f_inv).is_close(LocalFunction.one(N))


def test_chern_form_constant_metric_is_zero():
    m = MetricData(const(scalar(0.7) + t(1, 2)), const(t(1)), TABLE)
    assert chern_form(m).max_abs() <= 1e-12


def test_chern_form_diagonal_from_u():
    # u = z, rho = 0: diagonal entries 1
    m = MetricData(mono(scalar(1.0), 1, 0), zero_fn(), TABLE)
    a = chern_form(m)
    assert a[0, 0].is_close(const(scalar(1.0)))
    assert a[1, 1].is_close(const(scalar(1.0)))
    assert a[0, 1].is_zero() and a[1, 0].is_zero()


def test_chern_form_two_routes_agree():
    rng = np.random.default_rng(3)
    for _ in range(40):
        u = random_poly(rng, "even", max_deg=2)
        rho = random_poly(rng, "odd", max_deg=2)
        m = MetricData(u, rho, TABLE)
        assert chern_form(m).is_close(chern_form_via_inverse(m), tol=1e-9)


def test_curvature_examples():
    # u = z zbar, rho = 0: diagonal entries constant 1
    m = MetricData(mono(scalar(1.0), 1, 1), zero_fn(), TABLE)
    f = curvature(m)
    assert f[0, 0].is_close(const(scalar(1.0)))
    assert f[1, 1].is_close(const(scalar(1.0)))
    # constant data: flat
    m = MetricData(const(t(1, 2)), const(t(1)), TABLE)
    assert curvature(m).max_abs() <= 1e-12


def test_flat_solution_is_flat():
    rng = np.random.default_rng(4)
    # spec example: rho_h = z t1, rho_a = zbar t2, v = 0
    m = flat_solution(mono(t(1), 1, 0), mono(t(2), 0, 1), zero_fn(), zero_fn(), TABLE)
    assert curvature(m).max_abs() <= 1e-12
    # harmonic v = z contributes the constant 1 to the chern form diagonal
    m = flat_solution(mono(t(1), 1, 0), zero_fn(), mono(scalar(1.0), 1, 0),
                      zero_fn(), TABLE)
    assert curvature(m).max_abs() <= 1e-12
    assert chern_form(m)[0, 0].coefficient(0, 0).body() == pytest.approx(1.0)
    for _ in range(50):
        m = flat_solution(
            random_poly(rng, "odd", max_deg=3, holo=True),
            random_poly(rng, "odd", max_deg=3, anti=True),
            random_poly(rng, "even", max_deg=3, holo=True),
            random_poly(rng, "even", max_deg=3, anti=True), TABLE)
        assert curvature(m).max_abs() <= 1e-10


def test_flat_solution_validates_inputs():
    with pytest.raises(ValueError):
        flat_solution(mono(t(1), 1, 1), zero_fn(), zero_fn(), zero_fn(), TABLE)


def test_hitchin_commutator_diagonal_identity():
    # [Phi, Phi^dagger_H] = diag(delta deltabar + gamma gammabar) exactly
    rng = np.random.default_rng(5)
    for _ in range(30):
        u = random_poly(rng, "even", max_deg=2)
        rho = random_poly(rng, "odd", max_deg=2)
        m = MetricData(u, rho, TABLE)
        a = random_poly(rng, "even", max_deg=2, holo=True)
        delta = random_poly(rng, "odd", max_deg=2, holo=True)
        gamma = random_poly(rng, "odd", max_deg=2, holo=True)
        phi = higgs_matrix(a, delta, gamma)
        g = m.reduced_matrix()
        adj_h = g.inverse() * phi.adjoint(TABLE) * g
        comm = phi * adj_h - adj_h * phi
        source = (delta * delta.conjugate(TABLE) + gamma * gamma.conjugate(TABLE))
        assert comm[0, 0].is_close(source, tol=1e-10)
        assert comm[1, 1].is_close(source, tol=1e-10)
        assert comm[0, 1].max_abs() <= 1e-10
        assert comm[1, 0].max_abs() <= 1e-10


def test_hitchin_solution_residual_vanishes():
    rng = np.random.default_rng(6)
    # delta = t1 constant, gamma = 0: u gains z zbar t1 t1bar, residual 0
    delta = const(t(1))
    m = hitchin_solution(zero_fn(), zero_fn(), zero_fn(), zero_fn(),
                         delta, zero_fn(), TABLE)
    eta_term = m.u.coefficient(1, 1)
    assert eta_term.is_close(t(1) * t(1).conjugate(TABLE))
    phi = higgs_matrix(zero_fn(), delta, zero_fn())
    assert hitchin_residual(m, phi).max_abs() <= 1e-12

    # diagonal a drops out of the commutator
    m = hitchin_solution(zero_fn(), zero_fn(), zero_fn(), zero_fn(),
                         mono(t(1), 1, 0), const(t(2)), TABLE)
    phi = higgs_matrix(mono(scalar(1.0), 1, 0), mono(t(1), 1, 0), const(t(2)))
    assert hitchin_residual(m, phi).max_abs() <= 1e-12

    for _ in range(50):
        rho_h = random_poly(rng, "odd", max_deg=2, holo=True)
        rho_a = random_poly(rng, "odd", max_deg=2, anti=True)
        v_h = random_poly(rng, "even", max_deg=2, holo=True)
        v_a = random_poly(rng, "even", max_deg=2, anti=True)
        delta = random_poly(rng, "odd", max_deg=2, holo=True)
        gamma = random_poly(rng, "odd", max_deg=2, holo=True)
        a = random_poly(rng, "even", max_deg=2, holo=True)
        m = hitchin_solution(rho_h, rho_a, v_h, v_a, delta, gamma, TABLE)
        phi = higgs_matrix(a, delta, gamma)
        assert hitchin_residual(m, phi).max_abs() <= 1e-10


def test_hitchin_solution_reduces_to_flat():
    rng = np.random.default_rng(7)
    rho_h = random_poly(rng, "odd", max_deg=2, holo=True)
    v_a = random_poly(rng, "even", max_deg=2, anti=True)
    flat = flat_solution(rho_h, zero_fn(), zero_fn(), v_a, TABLE)
    solved = hitchin_solution(rho_h, zero_fn(), zero_fn(), v_a,
                              zero_fn(), zero_fn(), TABLE)
    assert solved.u.is_close(flat.u)
    # residual with Phi = 0 is the curvature itself
    phi = higgs_matrix(zero_fn(), zero_fn(), zero_fn())
    res = hitchin_residual(flat, phi)
    assert res.is_close(curvature(flat))


def test_perturbed_metric_has_localized_residual():
    delta = const(t(1))
    m = hitchin_solution(zero_fn(), zero_fn(), zero_fn(), zero_fn(),
                         delta, zero_fn(), TABLE)
    bad = MetricData(m.u + mono(scalar(1.0), 1, 1), m.rho, TABLE)
    phi = higgs_matrix(zero_fn(), delta, zero_fn())
    res = hitchin_residual(bad, phi)
    # d_zbar d_z of the z zbar perturbation is the constant 1 on the diagonal
    assert res[0, 0].coefficient(0, 0).body() == pytest.approx(1.0)
    assert res.max_abs() >= 0.5


def test_hitchin_residual_requires_supertraceless():
    m = MetricData(zero_fn(), zero_fn(), TABLE)
    phi = LocalMatrix([[const(scalar(1.0)), zero_fn()],
                       [zero_fn(), const(scalar(-1.0))]])
    with pytest.raises(ValueError):
        hitchin_residual(m, phi)


def test_metric_gauge_transformation_coordinate_law():
    # pointwise law: g(hbar, betabar, alphabar) g(u, rho, rhobar) g(h, alpha, beta)
    # = g(u + h + hbar - (alpha alphabar + beta betabar + rho(alphabar - beta)
    #     + (alpha - betabar) rhobar)/2, rho + alpha + betabar,
    #     rhobar + beta + alphabar)
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = random_even(rng, N, num_terms=3)
        rho = random_odd(rng, N, num_terms=3)
        h = random_even(rng, N, num_terms=3)
        alpha = random_odd(rng, N, num_terms=3)
        beta = random_odd(rng, N, num_terms=3)
        rhobar = rho.conjugate(TABLE)
        hbar = h.conjugate(TABLE)
        alphabar = alpha.conjugate(TABLE)
        betabar = beta.conjugate(TABLE)
        zero = GrassmannElement.zero(N)
        left = GroupCoords(hbar, zero, betabar, alphabar)
        mid = GroupCoords(u, zero, rho, rhobar)
        right = GroupCoords(h, zero, alpha, beta)
        out = coords_product(coords_product(left, mid), right)
        expected_u = (u + h + hbar
                      - 0.5 * (alpha * alphabar + beta * betabar
                               + rho * (alphabar - beta)
                               + (alpha - betabar) * rhobar))
        assert out.h.is_close(expected_u)
        assert out.alpha.is_close(rho + alpha + betabar)
        assert out.beta.is_close(rhobar + beta + alphabar)


def test_metric_gauge_law_at_evaluated_points():
    # same coordinate law, driven through pointwise evaluation of polynomial
    # metric data: all local functions are sampled at a point and fed to the
    # group product
    rng = np.random.default_rng(10)
    for _ in range(10):
        u_fn = random_poly(rng, "even", max_deg=2)
        rho_fn = random_poly(rng, "odd", max_deg=2)
        h_fn = random_poly(rng, "even", max_deg=2)
        alpha_fn = random_poly(rng, "odd", max_deg=2)
        beta_fn = random_poly(rng, "odd", max_deg=2)
        z = complex(rng.standard_normal(), rng.standard_normal()) * 0.5
        zbar = z.conjugate()
        u = u_fn.evaluate(z, zbar)
        rho = rho_fn.evaluate(z, zbar)
        h = h_fn.evaluate(z, zbar)
        alpha = alpha_fn.evaluate(z, zbar)
        beta = beta_fn.evaluate(z, zbar)
        rhobar = rho_fn.conjugate(TABLE).evaluate(z, zbar)
        hbar_ = h_fn.conjugate(TABLE).evaluate(z, zbar)
        alphabar = alpha_fn.conjugate(TABLE).evaluate(z, zbar)
        betabar = beta_fn.conjugate(TABLE).evaluate(z, zbar)
        zero = GrassmannElement.zero(N)
        out = coords_product(
            coords_product(GroupCoords(hbar_, zero, betabar, alphabar),
                           GroupCoords(u, zero, rho, rhobar)),
            GroupCoords(h, zero, alpha, beta))
        expected_u = (u + h + hbar_
                      - 0.5 * (alpha * alphabar + beta * betabar
                               + rho * (alphabar - beta)
                               + (alpha - betabar) * rhobar))
        assert out.h.is_close(expected_u)
        assert out.alpha.is_close(rho + alpha + betabar)
        assert out.beta.is_close(rhobar + beta + alphabar)


def test_harmonic_metric_coboundary_representative():
    # per-chart harmonic off-diagonal data rho_i = rho_h_i + rho_a_i glued by
    # alpha_ji = rho_h_j - rho_h_i and beta_ji = rhobar_a_j - rhobar_a_i gives
    # an explicit primitive of the quadratic 2-cocycle:
    # delta(f) = g for f_ij = -(alpha_ji rhobar_a_i + beta_ji rho_h_i)/2
    # (the sign is pinned here by the coboundary identity itself)
    rng = np.random.default_rng(11)
    verts = (1, 2, 3)
    for _ in range(20):
        rho_h = {v: random_odd(rng, N, num_terms=2) for v in verts}
        rho_a_bar = {v: random_odd(rng, N, num_terms=2) for v in verts}

        def alpha(j, i):
            return rho_h[j] - rho_h[i]

        def beta(j, i):
            return rho_a_bar[j] - rho_a_bar[i]

        def f(i, j):
            return -0.5 * (alpha(j, i) * rho_a_bar[i] + beta(j, i) * rho_h[i])

        i, j, k = verts
        g_ijk = 0.5 * (alpha(i, j) * beta(j, k) - alpha(j, k) * beta(i, j))
        delta_f = f(j, k) - f(i, k) + f(i, j)
        assert (delta_f - g_ijk).max_abs() < 1e-12


def test_local_function_json_roundtrip():
    rng = np.random.default_rng(9)
    f = random_poly(rng, "odd", max_deg=3)
    g = LocalFunction.from_dict(N, f.to_dict())
    assert g.is_close(f)
    m = MetricData(random_poly(rng, "even"), random_poly(rng, "odd"), TABLE)
    m2 = MetricData.from_dict(m.to_dict())
    assert m2.u.is_close(m.u) and m2.rho.is_close(m.rho)


def test_local_function_parity_is_computed_on_read(monkeypatch):
    even, odd = const(t(1, 2)), const(t(3))
    assert even.parity == "even"
    assert odd.parity == "odd"
    assert (even + mono(t(1), 1, 0)).parity == "mixed"
    assert zero_fn().parity == "even"
    assert odd.to_dict()["parity"] == "odd"

    def no_parity(self):
        raise AssertionError("parity computed at construction")

    monkeypatch.setattr(GrassmannElement, "parity", no_parity)
    built = const(scalar(2.0) + t(1, 2)) * odd + mono(t(4), 1, 1)
    assert built.terms
    with pytest.raises(AssertionError):
        built.parity
