"""Garnier/Gaudin tests: residues, brackets, commutators, quantization."""

import numpy as np
import pytest

from gl11.grassmann import GrassmannElement, ParityError
from gl11.integrable import (
    ParabolicData,
    deriv_matrix,
    flag_frame,
    garnier_hamiltonian,
    garnier_hamiltonian_expanded,
    gaudin_apply,
    gaudin_generators,
    gaudin_hamiltonian,
    gaudin_terms,
    higgs_value,
    number_matrix,
    occupations,
    operator_parity,
    poisson_bracket,
    quantize,
    random_system,
    residue_matrix,
    theta_matrix,
)
from gl11.supergroup import SuperMatrix11


def comm(a, b):
    return a @ b - b @ a


def acomm(a, b):
    return a @ b + b @ a


def rel_norm(a, b_scale):
    return np.abs(a).max() / max(b_scale, 1e-30)


def test_parabolic_data_validation():
    with pytest.raises(ValueError):
        ParabolicData([0.0, 1e-12], [1, 1], [1, 1])
    p = ParabolicData([0.0, 1.0], [1, 2], [3, 4])
    assert p.m == 2 and p.n == 4
    assert p.a(0) == pytest.approx(2.0) and p.b(0) == pytest.approx(-1.0)


def test_residue_matrix_shape_and_supertrace():
    rng = np.random.default_rng(0)
    p = random_system(rng, 3)
    for i in range(3):
        a_i = residue_matrix(p, i)
        # str(A_i) = a_i - b_i = v_i
        st = a_i.supertrace()
        assert st.is_close(GrassmannElement.scalar(p.n, p.v[i]))
        # projecting the odd generators to zero leaves diag(a_i, b_i)
        assert a_i.a.body() == pytest.approx(p.a(i))
        assert a_i.d.body() == pytest.approx(p.b(i))


def test_residue_matrix_is_conjugated_flag():
    rng = np.random.default_rng(1)
    p = random_system(rng, 3)
    for i in range(3):
        upper, lower = flag_frame(p, i)
        conjugated = lower * upper * lower.inverse()
        assert conjugated.is_close(residue_matrix(p, i))


def test_higgs_value_residues():
    rng = np.random.default_rng(2)
    p = random_system(rng, 3)
    # circle-sampling residue oracle: averaging (z - z_i) Phi(z) over k
    # equally spaced points kills all other Laurent contributions to O(r^k)
    k, r = 8, 1e-2
    for i in range(p.m):
        acc = SuperMatrix11.zero(p.n)
        for j in range(k):
            z = p.z[i] + r * np.exp(2j * np.pi * j / k)
            acc = acc + higgs_value(p, z).scale(
                GrassmannElement.scalar(p.n, (z - p.z[i]) / k))
        assert (acc - residue_matrix(p, i)).max_abs() < 1e-9
    # large-z decay: z Phi(z) -> sum_i A_i
    z = 1e7 + 0.5j
    total = SuperMatrix11.zero(p.n)
    for i in range(p.m):
        total = total + residue_matrix(p, i)
    approx = higgs_value(p, z).scale(GrassmannElement.scalar(p.n, z))
    assert (approx - total).max_abs() < 1e-4
    with pytest.raises(ValueError):
        higgs_value(p, p.z[1])


def test_garnier_two_routes_agree():
    rng = np.random.default_rng(3)
    for m in (2, 3, 4):
        p = random_system(rng, m)
        for i in range(m):
            lhs = garnier_hamiltonian(p, i)
            rhs = garnier_hamiltonian_expanded(p, i)
            assert lhs.is_close(rhs, tol=1e-9)
            assert lhs.is_even()


def test_garnier_from_str_phi_squared_residues():
    # partial-fraction route: Res_{z_i} str(Phi(z)^2) = 2 H_i; the k-point
    # circle average of (z - z_i) str(Phi^2) extracts the residue even
    # through the double pole (its contribution averages to zero)
    rng = np.random.default_rng(20)
    p = random_system(rng, 3)
    k, r = 12, 1e-2
    for i in range(p.m):
        acc = GrassmannElement.zero(p.n)
        for j in range(k):
            z = p.z[i] + r * np.exp(2j * np.pi * j / k)
            phi = higgs_value(p, z)
            acc = acc + (phi * phi).supertrace() * ((z - p.z[i]) / k)
        expected = 2.0 * garnier_hamiltonian(p, i)
        assert (acc - expected).max_abs() < 1e-8


def test_garnier_bosonic_reduction():
    rng = np.random.default_rng(4)
    p = random_system(rng, 3)
    for i in range(3):
        h = garnier_hamiltonian(p, i)
        expected = sum(0.5 * (p.u[i] * p.v[j] + p.v[i] * p.u[j]) / (p.z[i] - p.z[j])
                       for j in range(3) if j != i)
        assert h.body() == pytest.approx(expected)


def test_garnier_m2_antisymmetry():
    rng = np.random.default_rng(5)
    p = random_system(rng, 2)
    assert (garnier_hamiltonian(p, 0) + garnier_hamiltonian(p, 1)).max_abs() < 1e-12


def test_garnier_requires_two_sites():
    p = ParabolicData([0.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        garnier_hamiltonian(p, 0)


def test_poisson_bracket_basics():
    rng = np.random.default_rng(6)
    p = random_system(rng, 3)
    n = p.n
    # disjoint bilinears commute
    f = p.theta(0) * p.eta(0)
    g = p.theta(1) * p.eta(1)
    assert poisson_bracket(p, f, g).max_abs() == 0.0
    # antisymmetry on even observables
    f = p.theta(0) * p.eta(1) + 2.0 * p.theta(2) * p.eta(0)
    g = p.theta(1) * p.eta(2)
    assert (poisson_bracket(p, f, g) + poisson_bracket(p, g, f)).max_abs() < 1e-12
    with pytest.raises(ParityError):
        poisson_bracket(p, p.theta(0), g)


def test_poisson_bracket_leibniz():
    rng = np.random.default_rng(7)
    p = random_system(rng, 3)

    def random_even_obs():
        acc = GrassmannElement.scalar(p.n, complex(rng.standard_normal(),
                                                   rng.standard_normal()))
        for i in range(p.m):
            for j in range(p.m):
                c = complex(rng.standard_normal(), rng.standard_normal())
                acc = acc + c * (p.theta(i) * p.eta(j))
        return acc

    for _ in range(10):
        f, g, k = random_even_obs(), random_even_obs(), random_even_obs()
        lhs = poisson_bracket(p, f, g * k)
        rhs = poisson_bracket(p, f, g) * k + g * poisson_bracket(p, f, k)
        assert (lhs - rhs).max_abs() < 1e-9


def test_garnier_hamiltonians_commute():
    rng = np.random.default_rng(8)
    for m in (2, 3, 4):
        for _ in range(10):
            p = random_system(rng, m)
            hams = [garnier_hamiltonian(p, i) for i in range(m)]
            total = GrassmannElement.zero(p.n)
            for h in hams:
                total = total + h
            assert total.max_abs() < 1e-9
            for i in range(m):
                for j in range(i + 1, m):
                    assert poisson_bracket(p, hams[i], hams[j]).max_abs() < 1e-9


def test_gl11_relations_per_site():
    rng = np.random.default_rng(9)
    for m in (1, 2, 3):
        p = random_system(rng, m)
        dim = 1 << m
        ident = np.eye(dim)
        for i in range(m):
            n_op, e_op, plus, minus = gaudin_generators(p, i)
            assert np.abs(comm(n_op, plus) - plus).max() < 1e-12
            assert np.abs(comm(n_op, minus) + minus).max() < 1e-12
            assert np.abs(acomm(plus, minus) - e_op).max() < 1e-12
            assert np.abs(comm(e_op, n_op)).max() < 1e-12
            assert np.abs(acomm(plus, plus)).max() < 1e-12
            assert np.abs(acomm(minus, minus)).max() < 1e-12
            assert operator_parity(n_op) == "even"
            assert operator_parity(plus) in ("odd", "even")  # even when v_i ~ 0
        # distinct sites supercommute: odd generators anticommute
        if m >= 2:
            for i in range(m):
                for j in range(m):
                    if i == j:
                        continue
                    _, _, plus_i, minus_i = gaudin_generators(p, i)
                    _, _, plus_j, minus_j = gaudin_generators(p, j)
                    assert np.abs(acomm(minus_i, minus_j)).max() < 1e-12
                    assert np.abs(acomm(plus_i, minus_j)).max() < 1e-12


def test_m1_generator_matrices():
    p = ParabolicData([0.0], [2.0], [3.0])
    _, _, plus, minus = gaudin_generators(p, 0)
    # basis (1, theta): Psi- = [[0,0],[1,0]], Psi+ = [[0,v],[0,0]]
    assert np.allclose(minus, np.array([[0, 0], [1, 0]]))
    assert np.allclose(plus, np.array([[0, 3.0], [0, 0]]))
    assert np.allclose(acomm(plus, minus), 3.0 * np.eye(2))


def test_gaudin_hamiltonians_commute_and_sum_to_zero():
    rng = np.random.default_rng(10)
    for m in (2, 3, 4, 5):
        p = random_system(rng, m)
        hams = [gaudin_hamiltonian(p, i) for i in range(m)]
        scale = max(np.abs(h).max() for h in hams)
        assert np.abs(sum(hams)).max() < 1e-9 * max(scale, 1.0)
        for i in range(m):
            for j in range(i + 1, m):
                c = comm(hams[i], hams[j])
                assert np.abs(c).max() < 1e-9 * max(scale * scale, 1.0)


def test_gaudin_preserves_fermion_number():
    rng = np.random.default_rng(11)
    p = random_system(rng, 4)
    n_tot = number_matrix(4)
    for i in range(4):
        h = gaudin_hamiltonian(p, i)
        assert np.abs(comm(h, n_tot)).max() < 1e-12
        assert operator_parity(h) == "even"


def test_gaudin_vacuum_sector():
    rng = np.random.default_rng(12)
    p = random_system(rng, 2)
    hbar = 0.7
    h = gaudin_hamiltonian(p, 0, hbar=hbar)
    expected = hbar * 0.5 * (p.v[0] * p.u[1] + p.u[0] * p.v[1]) / (p.z[0] - p.z[1])
    assert h[0, 0] == pytest.approx(expected)


def test_gaudin_hbar_scaling():
    rng = np.random.default_rng(13)
    p = random_system(rng, 3)
    h1 = gaudin_hamiltonian(p, 1, hbar=1.0)
    h0 = gaudin_hamiltonian(p, 1, hbar=0.0)
    h2 = gaudin_hamiltonian(p, 1, hbar=2.0)
    assert np.abs(h0).max() == 0.0
    assert np.allclose(h2, 2.0 * h1)


def test_matrix_free_application_matches_dense():
    rng = np.random.default_rng(14)
    p = random_system(rng, 6)
    dim = 1 << 6
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    for i in (0, 3, 5):
        dense = gaudin_hamiltonian(p, i, hbar=0.9) @ vec
        free = gaudin_apply(p, i, vec, hbar=0.9)
        assert np.abs(dense - free).max() < 1e-10 * max(np.abs(dense).max(), 1.0)


def test_quantize_matches_gaudin():
    rng = np.random.default_rng(15)
    for m in (2, 3):
        p = random_system(rng, m)
        for hbar in (1.0, 0.5):
            for i in range(m):
                classical = garnier_hamiltonian(p, i)
                quantum = quantize(p, classical, hbar=hbar)
                direct = gaudin_hamiltonian(p, i, hbar=hbar)
                assert np.abs(quantum - direct).max() < 1e-10


def test_quantize_rejects_non_garnier():
    rng = np.random.default_rng(16)
    p = random_system(rng, 2)
    with pytest.raises(ValueError):
        quantize(p, p.theta(0) * p.eta(0))


def test_quantize_hbar_zero_gives_zero():
    rng = np.random.default_rng(17)
    p = random_system(rng, 3)
    q = quantize(p, garnier_hamiltonian(p, 0), hbar=0.0)
    assert np.abs(q).max() == 0.0


def test_bosonic_truncation_matches_vacuum_element():
    rng = np.random.default_rng(18)
    p = random_system(rng, 3)
    hbar = 1.3
    for i in range(3):
        classical_scaled = garnier_hamiltonian(p.scaled(hbar), i)
        vacuum = gaudin_hamiltonian(p, i, hbar=hbar)[0, 0]
        assert classical_scaled.body() * hbar ** 0 == pytest.approx(vacuum.real + 1j * vacuum.imag, abs=1e-10)


def test_theta_deriv_matrices_anticommute():
    m = 4
    for i in range(m):
        for j in range(m):
            ti, tj = theta_matrix(m, i), theta_matrix(m, j)
            di, dj = deriv_matrix(m, i), deriv_matrix(m, j)
            assert np.abs(acomm(ti, tj)).max() < 1e-14
            assert np.abs(acomm(di, dj)).max() < 1e-14
            expected = np.eye(1 << m) if i == j else np.zeros((1 << m, 1 << m))
            assert np.abs(acomm(di, tj) - expected).max() < 1e-14


def test_system_json_roundtrip():
    rng = np.random.default_rng(19)
    p = random_system(rng, 3)
    q = ParabolicData.from_dict(p.to_dict())
    assert q.z == p.z and q.u == p.u and q.v == p.v


def gaudin_from_generators(p, i, hbar):
    """H_i assembled from its definition as products of generator matrices."""
    n_i, e_i, plus_i, minus_i = gaudin_generators(p, i)
    acc = np.zeros((1 << p.m, 1 << p.m), dtype=complex)
    for j in range(p.m):
        if j == i:
            continue
        n_j, e_j, plus_j, minus_j = gaudin_generators(p, j)
        term = e_i @ n_j + n_i @ e_j + minus_i @ plus_j - plus_i @ minus_j
        acc += term / (p.z[i] - p.z[j])
    return hbar * acc


def test_gaudin_one_body_build_matches_generator_products():
    rng = np.random.default_rng(21)
    for m in (2, 3, 4, 5, 6):
        p = random_system(rng, m)
        for hbar in (1.0, 0.5, 0.0):
            for i in range(m):
                expected = gaudin_from_generators(p, i, hbar)
                scale = np.abs(expected).max()
                got = gaudin_hamiltonian(p, i, hbar=hbar)
                assert np.abs(got - expected).max() <= 1e-12 * max(scale, 1.0)


def test_gaudin_terms_are_one_entry_per_column_hops():
    rng = np.random.default_rng(22)
    m = 5
    p = random_system(rng, m)
    for i in range(m):
        diag, hops = gaudin_terms(p, i)
        assert diag.shape == (1 << m,)
        assert len(hops) == 2 * (m - 1)
        for rows, cols, values in hops:
            assert len(cols) == 1 << (m - 2)
            assert len(set(cols.tolist())) == len(cols)
            assert len(set(rows.tolist())) == len(rows)
            # each hop moves one fermion: fermion number is unchanged
            assert np.array_equal(occupations(m)[:, rows].sum(axis=0),
                                  occupations(m)[:, cols].sum(axis=0))


def test_matrix_free_application_matches_dense_m8():
    rng = np.random.default_rng(23)
    m = 8
    p = random_system(rng, m)
    vec = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    for i in range(m):
        dense = gaudin_hamiltonian(p, i, hbar=0.8) @ vec
        free = gaudin_apply(p, i, vec, hbar=0.8)
        assert np.abs(dense - free).max() <= 1e-12 * max(np.abs(dense).max(), 1.0)


def test_matrix_free_sum_annihilates_beyond_dense_cap():
    rng = np.random.default_rng(24)
    m = 12
    p = random_system(rng, m)
    with pytest.raises(ValueError):
        gaudin_hamiltonian(p, 0)
    vec = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    images = [gaudin_apply(p, i, vec) for i in range(m)]
    scale = max(np.abs(image).max() for image in images)
    assert scale > 1.0
    assert np.abs(sum(images)).max() <= 1e-12 * scale


def test_basis_matrices_match_per_state_definition():
    for m in (1, 3, 5):
        dim = 1 << m
        for i in range(m):
            expected = np.zeros((dim, dim), dtype=complex)
            for state in range(dim):
                if not state >> i & 1:
                    below = bin(state & ((1 << i) - 1)).count("1")
                    expected[state | 1 << i, state] = -1.0 if below & 1 else 1.0
            assert np.array_equal(theta_matrix(m, i), expected)
        counts = [bin(state).count("1") for state in range(dim)]
        assert np.array_equal(number_matrix(m), np.diag(counts).astype(complex))
        assert np.array_equal(occupations(m).sum(axis=0), counts)
