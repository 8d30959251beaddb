"""Hitchin-equation residual tests on the polynomial chart model."""

import json
import math
import types

import numpy as np
import pytest

from gl11.grassmann import (
    DEFAULT_TOL,
    ConjugationTable,
    GrassmannElement,
    NotInvertibleError,
    ParityError,
    random_even,
    random_odd,
    require_parity,
)
from gl11.hitchin import (
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
from gl11.supergroup import GroupCoords, SuperMatrix11, coords_product

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


def evaluate(f, z, zbar):
    """The local function f at the point (z, zbar), as one Grassmann element."""
    out = GrassmannElement.zero(f.n)
    for (p, q), c in f.terms.items():
        out = out + c * (z ** p * zbar ** q)
    return out


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
    assert f.d_z().residual(mono(scalar(2.0), 1, 1)) <= DEFAULT_TOL
    assert not mono(scalar(1.0), 2, 0).d_zbar().terms
    g = mono(3 * t(1), 2, 0)
    assert g.antiderivative_z().residual(mono(t(1), 3, 0)) <= DEFAULT_TOL
    assert g.antiderivative_z().d_z().residual(g) <= DEFAULT_TOL


def test_derivatives_commute_and_are_derivations():
    rng = np.random.default_rng(0)
    for _ in range(30):
        f = random_poly(rng, "even")
        g = random_poly(rng, "odd")
        assert f.d_z().d_zbar().residual(f.d_zbar().d_z()) <= DEFAULT_TOL
        assert (f * g).d_z().residual(f.d_z() * g + f * g.d_z()) <= DEFAULT_TOL
        assert (f * g).d_zbar().residual(f.d_zbar() * g + f * g.d_zbar()) <= DEFAULT_TOL


def test_conjugate_fn():
    assert mono(scalar(1.0), 1, 0).conjugate(TABLE).residual(mono(scalar(1.0), 0, 1)) <= DEFAULT_TOL
    f = mono(t(1), 1, 0)
    g = f.conjugate(TABLE)
    assert g.coefficient(0, 1).residual(t(1).conjugate(TABLE)) <= DEFAULT_TOL
    rng = np.random.default_rng(1)
    for _ in range(30):
        f = random_poly(rng, "odd")
        assert f.conjugate(TABLE).conjugate(TABLE).residual(f) <= DEFAULT_TOL
        # conjugation intertwines d_z and d_zbar
        assert f.d_z().conjugate(TABLE).residual(f.conjugate(TABLE).d_zbar()) <= DEFAULT_TOL


def test_product_drops_cancelled_terms():
    odd_big = mono(t(1), 5, 0)
    # coefficient t1*t1 = 0, so the z^10 term of the product is dropped
    assert not (odd_big * odd_big).terms


def test_local_matrix_inverse():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_poly(rng, "odd", max_deg=2)
        m = MetricData(zero_fn(), rho, TABLE)
        g = m.reduced_matrix()
        prod = g * g.inverse()
        assert prod.residual(LocalMatrix.identity(N)) <= DEFAULT_TOL
        assert (g.inverse() * g).residual(LocalMatrix.identity(N)) <= DEFAULT_TOL


def test_local_matrix_inverse_rejects_off_grade_entries():
    one, odd = const(scalar(1.0)), const(t(1))
    for entries in ((one, one, zero_fn(), one),      # even off-diagonal
                    (one + odd, zero_fn(), zero_fn(), one)):  # mixed diagonal
        with pytest.raises(ParityError):
            LocalMatrix(*entries).inverse()


def test_local_function_inverse():
    rng = np.random.default_rng(5)
    for _ in range(10):
        souls = {k: c.soul() for k, c in random_poly(rng, "even").terms.items()}
        f = LocalFunction(N, souls) + const(scalar(1.5 - 0.5j))
        f_inv = f.inv()
        assert (f * f_inv).residual(LocalFunction.one(N)) <= DEFAULT_TOL


def test_local_function_inverse_rejects_a_zero_constant_body():
    f = const(t(1, 2)) + mono(scalar(1.0), 1, 0)
    with pytest.raises(NotInvertibleError, match="constant-term body is zero"):
        f.inv()


def test_local_function_inverse_rejects_a_non_constant_term_with_a_body():
    f = LocalFunction.one(N) + mono(scalar(2.0) + t(1, 2), 0, 1)
    with pytest.raises(NotInvertibleError, match=r"term z\^0 zbar\^1 has a nonzero body"):
        f.inv()


def test_local_function_takes_no_grassmann_operand():
    # a constant function is LocalFunction.constant(x); a bare element is refused
    f, x = LocalFunction.one(N) + mono(scalar(1.0), 1, 0), scalar(2.0) + t(1)
    for op in (lambda: f * x, lambda: x * f, lambda: f + x):
        with pytest.raises(TypeError):
            op()


def test_local_function_arithmetic_refuses_a_foreign_operand():
    # +, - and * return NotImplemented for a foreign operand, so Python raises
    # TypeError; * still takes a number
    f, x = LocalFunction.one(N) + mono(scalar(1.0), 1, 0), scalar(2.0) + t(1)
    for other in (1.0, x, "1"):
        with pytest.raises(TypeError):
            f + other
        with pytest.raises(TypeError):
            f - other
    for other in (x, "1"):
        with pytest.raises(TypeError):
            f * other
    assert (f * 2.0).residual(f + f) == 0.0


def test_a_grassmann_element_takes_no_local_function_operand():
    f, x, b = LocalFunction.one(N) + mono(scalar(1.0), 1, 0), scalar(2.0) + t(1), scalar(3.0)
    for op in (lambda: x + f, lambda: x - f, lambda: b * f):
        with pytest.raises(TypeError):
            op()
    # numbers are taken as before
    assert (x + 1).terms == {0: 3 + 0j, 1: 1 + 0j}
    assert (1 - x).terms == {0: -1 + 0j, 1: -1 + 0j}
    assert (2 * x).terms == {0: 4 + 0j, 1: 2 + 0j}
    assert (x * 0.5j).terms == {0: 1j, 1: 0.5j}


def test_degree_9_metric_round_trips_and_inverts():
    rng = np.random.default_rng(9)
    u = random_poly(rng, "even") + mono(scalar(0.5) + t(1, 5), 9, 9)
    rho = random_poly(rng, "odd") + mono(t(2) + t(3), 9, 9)
    m = MetricData(u, rho, TABLE)
    back = MetricData.from_dict(json.loads(json.dumps(m.to_dict())))
    assert back.u.coefficient(9, 9).residual(scalar(0.5) + t(1, 5)) <= DEFAULT_TOL
    assert back.u.residual(u) <= DEFAULT_TOL and back.rho.residual(rho) <= DEFAULT_TOL
    # body only in the constant term; souls up to z^18 zbar^18 from rho rhobar
    f = const(scalar(1.5)) + back.rho * back.rhobar() + mono(t(1, 5), 9, 9)
    assert (f * f.inv()).residual(LocalFunction.one(N)) <= DEFAULT_TOL


def test_chern_form_constant_metric_is_zero():
    m = MetricData(const(scalar(0.7) + t(1, 2)), const(t(1)), TABLE)
    assert chern_form(m).max_abs() <= 1e-12


def test_chern_form_diagonal_from_u():
    # u = z, rho = 0: diagonal entries 1
    m = MetricData(mono(scalar(1.0), 1, 0), zero_fn(), TABLE)
    a = chern_form(m)
    assert a[0, 0].residual(const(scalar(1.0))) <= DEFAULT_TOL
    assert a[1, 1].residual(const(scalar(1.0))) <= DEFAULT_TOL
    assert not a[0, 1].terms and not a[1, 0].terms


def test_chern_form_two_routes_agree():
    rng = np.random.default_rng(3)
    for _ in range(40):
        u = random_poly(rng, "even", max_deg=2)
        rho = random_poly(rng, "odd", max_deg=2)
        m = MetricData(u, rho, TABLE)
        assert chern_form(m).residual(chern_form_via_inverse(m)) <= 1e-9


def test_curvature_examples():
    # u = z zbar, rho = 0: diagonal entries constant 1
    m = MetricData(mono(scalar(1.0), 1, 1), zero_fn(), TABLE)
    f = curvature(m)
    assert f[0, 0].residual(const(scalar(1.0))) <= DEFAULT_TOL
    assert f[1, 1].residual(const(scalar(1.0))) <= DEFAULT_TOL
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


def test_flat_solution_rejects_nan_term_of_the_wrong_variable():
    nan_t2 = GrassmannElement(N, {0b10: math.nan})  # t2 with a NaN coefficient
    with pytest.raises(ValueError, match="rho_h must be holomorphic"):
        flat_solution(mono(t(1), 1, 0) + mono(nan_t2, 0, 1), zero_fn(), zero_fn(),
                      zero_fn(), TABLE)
    with pytest.raises(ValueError, match="rho_a must be antiholomorphic"):
        flat_solution(zero_fn(), mono(t(1), 0, 1) + mono(nan_t2, 1, 0), zero_fn(),
                      zero_fn(), TABLE)


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
        assert comm[0, 0].residual(source) <= 1e-10
        assert comm[1, 1].residual(source) <= 1e-10
        assert comm[0, 1].max_abs() <= 1e-10
        assert comm[1, 0].max_abs() <= 1e-10


def test_hitchin_solution_residual_vanishes():
    rng = np.random.default_rng(6)
    # delta = t1 constant, gamma = 0: u gains z zbar t1 t1bar, residual 0
    delta = const(t(1))
    m = hitchin_solution(zero_fn(), zero_fn(), zero_fn(), zero_fn(),
                         delta, zero_fn(), TABLE)
    eta_term = m.u.coefficient(1, 1)
    assert eta_term.residual(t(1) * t(1).conjugate(TABLE)) <= DEFAULT_TOL
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
    assert solved.u.residual(flat.u) <= DEFAULT_TOL
    # residual with Phi = 0 is the curvature itself
    phi = higgs_matrix(zero_fn(), zero_fn(), zero_fn())
    res = hitchin_residual(flat, phi)
    assert res.residual(curvature(flat)) <= DEFAULT_TOL


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
    phi = LocalMatrix(const(scalar(1.0)), zero_fn(),
                      zero_fn(), const(scalar(-1.0)))
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
        assert out.h.residual(expected_u) <= DEFAULT_TOL
        assert out.alpha.residual(rho + alpha + betabar) <= DEFAULT_TOL
        assert out.beta.residual(rhobar + beta + alphabar) <= DEFAULT_TOL


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
        u = evaluate(u_fn, z, zbar)
        rho = evaluate(rho_fn, z, zbar)
        h = evaluate(h_fn, z, zbar)
        alpha = evaluate(alpha_fn, z, zbar)
        beta = evaluate(beta_fn, z, zbar)
        rhobar = evaluate(rho_fn.conjugate(TABLE), z, zbar)
        hbar_ = evaluate(h_fn.conjugate(TABLE), z, zbar)
        alphabar = evaluate(alpha_fn.conjugate(TABLE), z, zbar)
        betabar = evaluate(beta_fn.conjugate(TABLE), z, zbar)
        zero = GrassmannElement.zero(N)
        out = coords_product(
            coords_product(GroupCoords(hbar_, zero, betabar, alphabar),
                           GroupCoords(u, zero, rho, rhobar)),
            GroupCoords(h, zero, alpha, beta))
        expected_u = (u + h + hbar_
                      - 0.5 * (alpha * alphabar + beta * betabar
                               + rho * (alphabar - beta)
                               + (alpha - betabar) * rhobar))
        assert out.h.residual(expected_u) <= DEFAULT_TOL
        assert out.alpha.residual(rho + alpha + betabar) <= DEFAULT_TOL
        assert out.beta.residual(rhobar + beta + alphabar) <= DEFAULT_TOL


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
    assert g.residual(f) <= DEFAULT_TOL
    m = MetricData(random_poly(rng, "even"), random_poly(rng, "odd"), TABLE)
    m2 = MetricData.from_dict(m.to_dict())
    assert m2.u.residual(m.u) <= DEFAULT_TOL and m2.rho.residual(m.rho) <= DEFAULT_TOL


def test_local_function_parity_is_computed_on_read(monkeypatch):
    even, odd = const(t(1, 2)), const(t(3))
    assert even.parity() == "even"
    assert odd.parity() == "odd"
    assert (even + mono(t(1), 1, 0)).parity() == "mixed"
    assert zero_fn().parity() == "even"
    assert odd.to_dict()["parity"] == "odd"

    def no_parity(self):
        raise AssertionError("parity computed at construction")

    monkeypatch.setattr(GrassmannElement, "parity", no_parity)
    built = const(scalar(2.0) + t(1, 2)) * odd + mono(t(4), 1, 1)
    assert built.terms
    with pytest.raises(AssertionError):
        built.parity()


def test_local_function_max_abs_keeps_nan():
    f = LocalFunction(N, {(0, 0): scalar(1.0), (1, 0): scalar(math.nan)})
    assert math.isnan(f.max_abs())


def test_local_matrix_max_abs_keeps_nan():
    one, poisoned = const(scalar(1.0)), const(scalar(math.nan))
    m = LocalMatrix(one, zero_fn(), zero_fn(), poisoned)
    assert math.isnan(m.max_abs())


def rows_product(x, y):
    """The former rows-based LocalMatrix product: each entry a sum() from the zero function."""
    return [[sum((x[i, k] * y[k, j] for k in (0, 1)), zero_fn()) for j in (0, 1)]
            for i in (0, 1)]


def coefficient_dicts(f):
    return {key: c.terms for key, c in f.terms.items()}


def random_graded_matrix(rng):
    """Even diagonal, odd off-diagonal; each entry zero with probability 0.3."""
    return LocalMatrix(*[zero_fn() if rng.random() < 0.3 else random_poly(rng, parity)
                         for parity in ("even", "odd", "odd", "even")])


def test_local_matrix_product_matches_the_rows_product():
    rng = np.random.default_rng(71)
    for _ in range(40):
        x, y = random_graded_matrix(rng), random_graded_matrix(rng)
        product, oracle = x * y, rows_product(x, y)
        assert type(product) is LocalMatrix
        for i in (0, 1):
            for j in (0, 1):
                assert coefficient_dicts(product[i, j]) == coefficient_dicts(oracle[i][j])


def test_hitchin_products_are_supermatrix_products(monkeypatch):
    products = []
    multiply = SuperMatrix11.__mul__

    def spy(self, other):
        products.append(type(self))
        return multiply(self, other)

    monkeypatch.setattr(SuperMatrix11, "__mul__", spy)
    rng = np.random.default_rng(72)
    delta = random_poly(rng, "odd", holo=True)
    m = hitchin_solution(zero_fn(), random_poly(rng, "odd", anti=True), zero_fn(), zero_fn(),
                         delta, zero_fn(), TABLE)
    hitchin_residual(m, higgs_matrix(const(scalar(1.0)), delta, zero_fn()))
    chern_form_via_inverse(m)
    assert len(products) == 5 and set(products) == {LocalMatrix}


def bits(x):
    """Every coefficient of a LocalFunction or LocalMatrix as float.hex pairs, in key order."""
    if isinstance(x, LocalMatrix):
        return [bits(e) for e in x.entries()]
    return [(key, [(m, v.real.hex(), v.imag.hex()) for m, v in c.terms.items()])
            for key, c in x.terms.items()]


def test_metric_keeps_rhobar_g_its_inverse_and_the_chern_form():
    rng = np.random.default_rng(73)
    delta = random_poly(rng, "odd", holo=True)
    m = hitchin_solution(random_poly(rng, "odd", holo=True), random_poly(rng, "odd", anti=True),
                         zero_fn(), zero_fn(), delta, zero_fn(), TABLE)
    hitchin_residual(m, higgs_matrix(const(scalar(1.0)), delta, zero_fn()))
    chern_form_via_inverse(m)

    def kept():
        return m.rhobar(), m.reduced_matrix(), m.reduced_inverse(), chern_form(m)

    first = kept()
    assert all(x is y for x, y in zip(first, kept()))
    fresh = MetricData(m.u, m.rho, TABLE)  # forms each value anew
    anew = (m.rho.conjugate(TABLE), fresh.reduced_matrix(), fresh.reduced_matrix().inverse(),
            chern_form(fresh))
    assert [bits(x) for x in first] == [bits(x) for x in anew]


@pytest.mark.parametrize("seed", range(4))
def test_a_local_function_sum_builds_one_zero_and_the_same_values(count_calls, seed):
    # the zero that a key of the right operand alone is added to is built once per sum
    rng = np.random.default_rng(74 + seed)
    f, g = random_poly(rng, "even", num_terms=6), random_poly(rng, "odd", num_terms=6)
    per_key = dict(f.terms)
    for key, c in g.terms.items():
        per_key[key] = per_key.get(key, GrassmannElement.zero(N)) + c
    zeros = count_calls(GrassmannElement, "zero")
    total = f + g
    assert len(zeros) <= 1
    assert bits(total) == bits(LocalFunction(N, per_key))


def test_local_matrix_adds_only_the_chart_calculus():
    defined = {name for name, value in vars(LocalMatrix).items()
               if isinstance(value, (types.FunctionType, classmethod))}
    assert defined == {"__getitem__", "d_z", "d_zbar", "adjoint", "inverse"}


@pytest.mark.parametrize("kind", ["GrassmannElement", "LocalFunction"])
def test_require_parity_on_both_element_types(kind):
    if kind == "GrassmannElement":
        zero, even, odd, mixed = GrassmannElement.zero(N), t(1, 2), t(3), scalar(1.0) + t(1)
    else:
        zero, even, odd = zero_fn(), mono(t(1, 2), 1, 0), mono(t(3), 0, 2)
        mixed = const(t(1, 2)) + mono(t(3), 1, 0)  # each coefficient graded, not alike
    for parity in ("even", "odd"):
        assert require_parity(zero, parity, "x") is zero
        with pytest.raises(ParityError) as err:
            require_parity(mixed, parity, "x")
        assert str(err.value) == "x must be %s, got parity 'mixed'" % parity
    assert require_parity(even, "even", "x") is even
    assert require_parity(odd, "odd", "x") is odd
    with pytest.raises(ParityError) as err:
        require_parity(odd, "even", "u")
    assert str(err.value) == "u must be even, got parity 'odd'"
    with pytest.raises(ParityError) as err:
        require_parity(even, "odd", "rho")
    assert str(err.value) == "rho must be odd, got parity 'even'"


def full_phi_residual(m, phi):
    """The generic route: F - [Phi, Phi^dagger_H] with the whole Phi conjugated."""
    g = m.reduced_matrix()
    adj_h = g.inverse() * phi.adjoint(m.table) * g
    return curvature(m) - (phi * adj_h - adj_h * phi)


@pytest.mark.parametrize("case", ["solution", "perturbed_metric", "flat_metric",
                                  "d_differs_from_a"])
def test_hitchin_residual_matches_full_phi_commutator(case):
    rng = np.random.default_rng(["solution", "perturbed_metric", "flat_metric",
                                 "d_differs_from_a"].index(case) + 50)
    for _ in range(6):
        rho_h = random_poly(rng, "odd", max_deg=2, holo=True)
        rho_a = random_poly(rng, "odd", max_deg=2, anti=True)
        v_h = random_poly(rng, "even", max_deg=2, holo=True)
        v_a = random_poly(rng, "even", max_deg=2, anti=True)
        delta = random_poly(rng, "odd", max_deg=2, holo=True)
        gamma = random_poly(rng, "odd", max_deg=2, holo=True)
        # a with a nonzero body, so that a non-central remainder of a I would show
        a = random_poly(rng, "even", max_deg=2, holo=True) + const(scalar(1.5))
        m = hitchin_solution(rho_h, rho_a, v_h, v_a, delta, gamma, TABLE)
        d, tol = a, 1e-9
        if case == "perturbed_metric":
            m = MetricData(m.u + mono(scalar(1.0), 1, 1) + random_poly(rng, "even"),
                           m.rho, TABLE)
        elif case == "flat_metric":
            m = flat_solution(rho_h, rho_a, v_h, v_a, TABLE)
        elif case == "d_differs_from_a":
            d = a + random_poly(rng, "even", max_deg=2, holo=True) * 0.05 + const(scalar(0.2))
            tol = 1.0  # admits this str(Phi) = a - d
        phi = LocalMatrix(a, delta, gamma, d)
        expected = full_phi_residual(m, phi)
        residual = hitchin_residual(m, phi, tol=tol)
        assert (residual - expected).max_abs() <= 1e-12 * max(1.0, expected.max_abs())
        if case == "solution":
            assert expected.max_abs() <= 1e-10
        else:
            assert expected.max_abs() > 1e-3


def test_local_matrix_zero_and_identity_have_local_function_entries():
    z = LocalFunction.zero(4)
    for m in (LocalMatrix(z, z, z, z), LocalMatrix.identity(4)):
        assert type(m) is LocalMatrix
        assert all(type(e) is LocalFunction for e in m.entries())
    assert all(not e.terms for e in LocalMatrix(z, z, z, z).entries())


def test_local_matrix_invertibility_is_decided_by_the_constant_bodies():
    # LocalFunction.inv refuses a zero constant-term body; the matrix adds no test
    assert LocalMatrix.identity(4).inverse().residual(LocalMatrix.identity(4)) == 0.0
    with pytest.raises(NotInvertibleError, match="constant-term body is zero"):
        LocalMatrix(zero_fn(), zero_fn(), zero_fn(), zero_fn()).inverse()
    one, z = LocalFunction.one(N), mono(scalar(1.0), 1, 0)
    for a, d in ((one, z), (z, one)):
        with pytest.raises(NotInvertibleError, match="constant-term body is zero"):
            LocalMatrix(a, zero_fn(), zero_fn(), d).inverse()
    # the Berezinian needs d alone: a singular a gives a / d = z
    assert LocalMatrix(z, zero_fn(), zero_fn(), one).sdet().residual(z) == 0.0
    with pytest.raises(NotInvertibleError, match="constant-term body is zero"):
        LocalMatrix(one, zero_fn(), zero_fn(), z).sdet()


def test_local_matrix_sdet():
    assert LocalMatrix.identity(4).sdet().residual(LocalFunction.one(4)) == 0.0
    with pytest.raises(NotInvertibleError):
        LocalMatrix(zero_fn(), zero_fn(), zero_fn(), zero_fn()).sdet()
    # G = [[1 - rho rhobar/2, rhobar], [rho, 1 + rho rhobar/2]] has Berezinian 1
    rng = np.random.default_rng(73)
    for _ in range(10):
        g = MetricData(zero_fn(), random_poly(rng, "odd"), TABLE).reduced_matrix()
        assert g.sdet().residual(LocalFunction.one(N)) <= 1e-12
    # a diagonal of two constants: the Berezinian is a / d
    a, d = const(scalar(3.0) + t(1, 2)), const(scalar(2.0))
    expected = const((scalar(3.0) + t(1, 2)) * 0.5)
    assert LocalMatrix(a, zero_fn(), zero_fn(), d).sdet().residual(expected) == 0.0
