"""Garnier/Gaudin tests: residues, brackets, commutators, quantization."""

import numpy as np
import pytest

from gl11.grassmann import DEFAULT_TOL, GrassmannElement, ParityError
from gl11 import cli, integrable
from gl11.integrable import (
    MIN_SEPARATION,
    ParabolicData,
    deriv_matrix,
    garnier_hamiltonian,
    garnier_hamiltonian_expanded,
    gaudin_generators,
    gaudin_hamiltonian,
    number_matrix,
    one_body,
    one_body_terms,
    poisson_bracket,
    quantize,
    quantize_observable,
    quantized_one_body,
    random_system,
    residue_matrix,
    site_products,
    theta_matrix,
)
from gl11.supergroup import SuperMatrix11


def theta(p: ParabolicData, k: int) -> GrassmannElement:
    """The odd generator theta_k of p's site k, from site_products."""
    return site_products(p.m)[0][k]


def eta(p: ParabolicData, k: int) -> GrassmannElement:
    """The odd generator eta_k of p's site k, from site_products."""
    return site_products(p.m)[1][k]


def operator_parity(mat, tol=1e-12):
    """'even' / 'odd' / 'mixed' with respect to monomial-length parity."""
    par = np.bitwise_count(np.arange(mat.shape[0])) & 1
    same = par[:, None] == par[None, :]
    even_part = np.abs(mat[~same]).max() if (~same).any() else 0.0
    odd_part = np.abs(mat[same]).max() if same.any() else 0.0
    if even_part <= tol:
        return "even"
    if odd_part <= tol:
        return "odd"
    return "mixed"


def flag_frame(p: ParabolicData, i: int):
    """(A'_i, g_i) with A_i = g_i A'_i g_i^{-1}: the unconjugated flag form."""
    n = p.n
    zero = GrassmannElement.zero(n)
    one = GrassmannElement.one(n)
    upper = SuperMatrix11(GrassmannElement.scalar(n, p.a(i)), theta(p, i),
                          zero, GrassmannElement.scalar(n, p.b(i)))
    lower = SuperMatrix11(one, zero, eta(p, i), one)
    return upper, lower


def scaled(m: SuperMatrix11, c: GrassmannElement) -> SuperMatrix11:
    """c m, entry by entry, for an even c."""
    return SuperMatrix11(c * m.a, c * m.beta, c * m.gamma, c * m.d)


def zero_matrix(n: int) -> SuperMatrix11:
    z = GrassmannElement.zero(n)
    return SuperMatrix11(z, z, z, z)


def higgs_value(p: ParabolicData, z: complex) -> SuperMatrix11:
    """Phi(z) = sum_i A_i / (z - z_i) (coefficient of dz)."""
    z = complex(z)
    for i, zi in enumerate(p.z):
        if abs(z - zi) < MIN_SEPARATION:
            raise ValueError("evaluation at (or too close to) the pole z_%d" % i)
    acc = zero_matrix(p.n)
    for i in range(p.m):
        acc = acc + scaled(residue_matrix(p, i), GrassmannElement.scalar(p.n, 1.0 / (z - p.z[i])))
    return acc


def _hop(m: int, a: int, b: int):
    """theta_a d_theta_b for a != b as (rows, cols, signs), one entry per column.

    d_theta_b empties site b and theta_a fills site a; the sign counts the
    occupied sites strictly between a and b (the Jordan-Wigner string),
    state by state.
    """
    cols = np.array([s for s in range(1 << m) if s >> b & 1 and not s >> a & 1], dtype=np.intp)
    between = range(min(a, b) + 1, max(a, b))
    signs = np.array([(-1.0) ** sum(s >> k & 1 for k in between) for s in cols.tolist()])
    return cols ^ ((1 << a) | (1 << b)), cols, signs


def apply(c, a, vec):
    """c + sum_kl a_kl theta_k d_theta_l on a state vector, from the arrays of
    one_body_terms: no 2^m x 2^m matrix."""
    diag, rows, cols, forward, backward = one_body_terms(c, a)
    out = diag * vec
    np.add.at(out, rows, forward * vec[cols])  # a row index repeats across pairs
    np.add.at(out, cols, backward * vec[rows])
    return out


def comm(a, b):
    return a @ b - b @ a


def acomm(a, b):
    return a @ b + b @ a


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
        assert st.residual(GrassmannElement.scalar(p.n, p.v[i])) <= DEFAULT_TOL
        # projecting the odd generators to zero leaves diag(a_i, b_i)
        assert a_i.a.body() == pytest.approx(p.a(i))
        assert a_i.d.body() == pytest.approx(p.b(i))


def test_residue_matrix_is_conjugated_flag():
    rng = np.random.default_rng(1)
    p = random_system(rng, 3)
    for i in range(3):
        upper, lower = flag_frame(p, i)
        conjugated = lower * upper * lower.inverse()
        assert conjugated.residual(residue_matrix(p, i)) <= DEFAULT_TOL


def test_higgs_value_residues():
    rng = np.random.default_rng(2)
    p = random_system(rng, 3)
    # circle-sampling residue oracle: averaging (z - z_i) Phi(z) over k
    # equally spaced points kills all other Laurent contributions to O(r^k)
    k, r = 8, 1e-2
    for i in range(p.m):
        acc = zero_matrix(p.n)
        for j in range(k):
            z = p.z[i] + r * np.exp(2j * np.pi * j / k)
            acc = acc + scaled(higgs_value(p, z), GrassmannElement.scalar(p.n, (z - p.z[i]) / k))
        assert (acc - residue_matrix(p, i)).max_abs() < 1e-9
    # large-z decay: z Phi(z) -> sum_i A_i
    z = 1e7 + 0.5j
    total = zero_matrix(p.n)
    for i in range(p.m):
        total = total + residue_matrix(p, i)
    approx = scaled(higgs_value(p, z), GrassmannElement.scalar(p.n, z))
    assert (approx - total).max_abs() < 1e-4
    with pytest.raises(ValueError):
        higgs_value(p, p.z[1])


def scalar_draw_sites(rng, m, spread=2.0):
    """(z, u, v) as random_system drew them with one standard_normal call per number."""
    z = [complex(k * 1.0 + 0.3 * rng.standard_normal(),
                 0.3 * rng.standard_normal()) for k in range(m)]
    u = [complex(rng.standard_normal(), rng.standard_normal()) * spread
         for _ in range(m)]
    v = [complex(rng.standard_normal(), rng.standard_normal()) * spread
         for _ in range(m)]
    return z, u, v


def test_random_system_draws_the_sites_of_the_scalar_draws():
    def bits(numbers):
        return [(x.real.hex(), x.imag.hex()) for x in numbers]

    for seed in (0, 1, 2, 17, 2 ** 31 - 2):
        for m in range(2, 33):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            p = random_system(ours, m)
            expected = scalar_draw_sites(theirs, m)
            assert [bits(x) for x in (p.z, p.u, p.v)] == [bits(x) for x in expected]
            assert ours.standard_normal().hex() == theirs.standard_normal().hex()


def test_garnier_two_routes_agree():
    rng = np.random.default_rng(3)
    for m in (2, 3, 4):
        p = random_system(rng, m)
        for i in range(m):
            lhs = garnier_hamiltonian(p, i)
            rhs = garnier_hamiltonian_expanded(p, i)
            assert lhs.residual(rhs) <= 1e-9
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
    f = theta(p, 0) * eta(p, 0)
    g = theta(p, 1) * eta(p, 1)
    assert poisson_bracket(p, f, g).max_abs() == 0.0
    # antisymmetry on even observables
    f = theta(p, 0) * eta(p, 1) + 2.0 * theta(p, 2) * eta(p, 0)
    g = theta(p, 1) * eta(p, 2)
    assert (poisson_bracket(p, f, g) + poisson_bracket(p, g, f)).max_abs() < 1e-12
    with pytest.raises(ParityError):
        poisson_bracket(p, theta(p, 0), g)


def test_poisson_bracket_leibniz():
    rng = np.random.default_rng(7)
    p = random_system(rng, 3)

    def random_even_obs():
        acc = GrassmannElement.scalar(p.n, complex(rng.standard_normal(),
                                                   rng.standard_normal()))
        for i in range(p.m):
            for j in range(p.m):
                c = complex(rng.standard_normal(), rng.standard_normal())
                acc = acc + c * (theta(p, i) * eta(p, j))
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
        free = apply(*one_body(p, i, hbar=0.9), vec)
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
        quantize(p, theta(p, 0) * eta(p, 0))


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
        diag, rows, cols, forward, backward = one_body_terms(*one_body(p, i))
        assert diag.shape == (1 << m,)
        # one row per pair {i, j}, both hops of the pair on it
        for array in (rows, cols, forward, backward):
            assert array.shape == (m - 1, 1 << (m - 2))
        for pair_rows, pair_cols in zip(rows, cols):
            assert len(set(pair_cols.tolist())) == len(pair_cols)
            assert len(set(pair_rows.tolist())) == len(pair_rows)
            # each hop moves one fermion: fermion number is unchanged
            assert [bin(s).count("1") for s in pair_rows.tolist()] == \
                [bin(s).count("1") for s in pair_cols.tolist()]


def assert_each_hop_is_its_oracle(a, terms):
    """Both hops of each pair lo < hi that a couples equal _hop exactly, dtype
    included: theta_lo d_hi on (rows, cols) and theta_hi d_lo on (cols, rows)."""
    m = len(a)
    diag, rows, cols, forward, backward = terms
    pairs = [(lo, hi) for lo in range(m) for hi in range(lo + 1, m)
             if a[lo, hi] != 0 or a[hi, lo] != 0]
    for array in (rows, cols, forward, backward):
        assert array.shape == (len(pairs), 1 << (m - 2))
    for k, (lo, hi) in enumerate(pairs):
        for (x, y), hop_rows, hop_cols, values in (((lo, hi), rows[k], cols[k], forward[k]),
                                                   ((hi, lo), cols[k], rows[k], backward[k])):
            direct_rows, direct_cols, signs = _hop(m, x, y)
            assert hop_rows.dtype == direct_rows.dtype and hop_cols.dtype == direct_cols.dtype
            assert np.array_equal(hop_rows, direct_rows)
            assert np.array_equal(hop_cols, direct_cols)
            assert values.dtype == complex and np.array_equal(values, a[x, y] * signs)


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("m", range(2, 9))
def test_each_hop_equals_its_jordan_wigner_hop_computed_directly(m, hbar):
    # theta_b d_a reuses the hop of theta_a d_b with rows and cols swapped
    p = random_system(np.random.default_rng(60 + m), m)
    for i in range(m):
        c, a = one_body(p, i, hbar)
        terms = one_body_terms(c, a)
        assert len(terms[1]) == m - 1  # the pairs {i, j}, j != i
        assert_each_hop_is_its_oracle(a, terms)


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("zero_v", [[2], range(5)], ids=["one_site", "all_sites"])
def test_each_hop_equals_its_oracle_when_a_has_zero_entries(zero_v, hbar):
    # v_k = 0 zeroes A_ik for every i != k (as +-0), so the pair {i, k} keeps
    # only theta_k d_i; with every v_k = 0 each A_i is diagonal and has no pair
    p = random_system(np.random.default_rng(67), 5)
    p = ParabolicData(p.z, p.u, [0j if k in zero_v else v for k, v in enumerate(p.v)])
    for i in range(5):
        c, a = one_body(p, i, hbar)
        entries = [(x, y) for x, y in zip(*np.nonzero(a)) if x != y]
        terms = one_body_terms(c, a)
        if len(zero_v) == 5:
            assert entries == [] and terms[1].shape == (0, 1 << 3)
        else:
            # H_2 and the pair {i, 2} of every other H_i couple one way only
            assert len(entries) == (4 if i == 2 else 7) and len(terms[1]) == 4
        assert_each_hop_is_its_oracle(a, terms)


def test_gaudin_commute_m8_makes_one_one_body_form_per_hamiltonian(count_calls):
    # the command realizes the forms it checks, not a second one_body per H_i
    calls = count_calls(integrable, "one_body")
    assert cli.main(["gaudin-commute", "--m", "8"]) == 0
    assert sorted(args[1] for args in calls) == list(range(8))


def test_gaudin_commute_m8_realizes_each_site_pair_once_per_hamiltonian(count_calls):
    # one _hops call per Hamiltonian, building its 7 site pairs once each: 56
    # pairs, where one hop per nonzero off-diagonal entry would build 112
    calls = count_calls(integrable, "_hops")
    assert cli.main(["gaudin-commute", "--m", "8"]) == 0
    assert len(calls) == 8
    for _, lo, hi in calls:
        pairs = list(zip(lo.tolist(), hi.tolist()))
        assert len(set(pairs)) == len(pairs) == 7 and all(x < y for x, y in pairs)


def test_matrix_free_application_matches_dense_m8():
    rng = np.random.default_rng(23)
    m = 8
    p = random_system(rng, m)
    vec = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    for i in range(m):
        dense = gaudin_hamiltonian(p, i, hbar=0.8) @ vec
        free = apply(*one_body(p, i, hbar=0.8), vec)
        assert np.abs(dense - free).max() <= 1e-12 * max(np.abs(dense).max(), 1.0)


def test_matrix_free_sum_annihilates_beyond_dense_cap():
    rng = np.random.default_rng(24)
    m = 12
    p = random_system(rng, m)
    with pytest.raises(ValueError):
        gaudin_hamiltonian(p, 0)
    vec = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    images = [apply(*one_body(p, i), vec) for i in range(m)]
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


def bilinears(m):
    """theta_k d_theta_l for all k, l as dense products of basis matrices."""
    thetas = [theta_matrix(m, k) for k in range(m)]
    return [[thetas[k] @ thetas[l].T for l in range(m)] for k in range(m)]


def realize(c, a, pairs):
    """c + sum_kl a_kl theta_k d_theta_l as a dense matrix (no one_body_terms)."""
    m = a.shape[0]
    out = c * np.eye(1 << m, dtype=complex)
    for k in range(m):
        for l in range(m):
            out += a[k, l] * pairs[k][l]
    return out


def test_one_body_realization_matches_gaudin_hamiltonian():
    rng = np.random.default_rng(25)
    for m in range(2, 9):
        p = random_system(rng, m)
        pairs = bilinears(m)
        for hbar in (1.0, 0.5, 0.0):
            for i in range(m):
                expected = gaudin_hamiltonian(p, i, hbar=hbar)
                got = realize(*one_body(p, i, hbar=hbar), pairs)
                scale = np.abs(expected).max()
                assert np.abs(got - expected).max() <= 1e-12 * max(scale, 1.0)


def test_one_body_realization_matches_generator_products():
    rng = np.random.default_rng(26)
    for m in (2, 3, 4, 5):
        p = random_system(rng, m)
        pairs = bilinears(m)
        for i in range(m):
            expected = gaudin_from_generators(p, i, 0.7)
            got = realize(*one_body(p, i, hbar=0.7), pairs)
            assert np.abs(got - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)


def test_dense_commutator_is_realized_matrix_commutator():
    rng = np.random.default_rng(27)
    for m in range(2, 9):
        p = random_system(rng, m)
        pairs = bilinears(m)
        hams = [gaudin_hamiltonian(p, i, hbar=0.7) for i in range(m)]
        mats = [one_body(p, i, hbar=0.7)[1] for i in range(m)]
        for i in range(m):
            # theta E d added to H_i makes every commutator with it nonzero
            e = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            h_i, a_i = hams[i] + realize(0.0, e, pairs), mats[i] + e
            for j in range(m):
                if j == i:
                    continue
                expected = realize(0.0, a_i @ mats[j] - mats[j] @ a_i, pairs)
                assert np.abs(expected).max() > 1e-3
                got = comm(h_i, hams[j])
                assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_one_body_matrices_commute_and_sum_to_zero_beyond_dense_cap():
    rng = np.random.default_rng(28)
    m = 40
    p = random_system(rng, m)
    forms = [one_body(p, i) for i in range(m)]
    scale = max(np.abs(a).max() for _, a in forms)
    assert abs(sum(c for c, _ in forms)) <= 1e-12 * scale
    assert np.abs(sum(a for _, a in forms)).max() <= 1e-12 * scale
    for i in range(m):
        for j in range(i + 1, m):
            a_i, a_j = forms[i][1], forms[j][1]
            assert np.abs(a_i @ a_j - a_j @ a_i).max() <= 1e-12 * scale * scale


def test_one_body_and_realization_site_limits():
    with pytest.raises(ValueError, match="at least two sites"):
        one_body(ParabolicData([0.0], [1.0], [1.0]), 0)
    p = random_system(np.random.default_rng(29), 17)
    c, a = one_body(p, 3)
    assert a.shape == (17, 17)
    with pytest.raises(ValueError, match="stops at m = 16"):
        one_body_terms(c, a)


def word_product_quantize(p, f, hbar):
    """Oracle: each monomial of f as a product of dense basis matrices,
    theta_i -> theta_matrix, eta_i -> hbar deriv_matrix, in generator order."""
    dim = 1 << p.m
    acc = np.zeros((dim, dim), dtype=complex)
    for mask, coeff in f.terms.items():
        word = np.eye(dim, dtype=complex)
        for g in range(p.n):
            if mask >> g & 1:
                site, is_eta = divmod(g, 2)
                word = word @ (hbar * deriv_matrix(p.m, site) if is_eta
                               else theta_matrix(p.m, site))
        acc += coeff * word
    return acc


def test_quantize_observable_matches_word_products_on_garnier():
    rng = np.random.default_rng(30)
    for m in range(2, 7):
        p = random_system(rng, m)
        for hbar in (1.0, 0.5, 0.0):
            for i in range(m):
                f = garnier_hamiltonian(p.scaled(hbar), i)
                expected = word_product_quantize(p, f, hbar)
                got = quantize_observable(p, f, hbar)
                assert np.abs(got - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)


def test_quantize_observable_matches_word_products_on_random_bilinears():
    # every (k, l) is stored as theta_k eta_l when k <= l and as eta_l theta_k
    # when l < k, so both orders occur
    rng = np.random.default_rng(31)
    for m in range(2, 6):
        p = random_system(rng, m)
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        c = complex(rng.standard_normal(), rng.standard_normal())
        f = GrassmannElement.scalar(p.n, c)
        for k in range(m):
            for l in range(m):
                f = f + a[k, l] * (theta(p, k) * eta(p, l))
        assert any(mask & 0b10 and mask & 0b100 for mask in f.terms)  # eta_0 theta_1
        for hbar in (1.0, 0.5, 0.0):
            c_q, a_q = quantized_one_body(p, f, hbar)
            assert abs(c_q - c) <= 1e-14
            assert np.abs(a_q - hbar * a).max() <= 1e-14
            expected = word_product_quantize(p, f, hbar)
            got = quantize_observable(p, f, hbar)
            assert np.abs(got - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)


@pytest.mark.parametrize("build, name", [
    (lambda p: theta(p, 0) * theta(p, 1), "theta_0 theta_1"),
    (lambda p: eta(p, 0) * eta(p, 2), "eta_0 eta_2"),
    (lambda p: theta(p, 1), "theta_1"),
    (lambda p: theta(p, 0) * eta(p, 0) * theta(p, 1) * eta(p, 1),
     "theta_0 eta_0 theta_1 eta_1"),
])
def test_quantized_one_body_rejects_non_bilinears(build, name):
    p = random_system(np.random.default_rng(32), 3)
    f = garnier_hamiltonian(p, 0) + build(p)
    with pytest.raises(ValueError, match="monomial %s is not" % name):
        quantized_one_body(p, f)
    with pytest.raises(ValueError, match="monomial %s is not" % name):
        quantize_observable(p, f)


def test_quantized_one_body_rejects_another_algebra():
    p = random_system(np.random.default_rng(33), 3)
    with pytest.raises(ValueError, match="wrong Grassmann algebra"):
        quantized_one_body(p, GrassmannElement.one(p.n + 2))


# -- the classical side computed once per system ------------------------------------
# The formulas as they were written before the shortcuts, kept as oracles: the
# residue rebuilt per use, str(A_i A_j) from the full SuperMatrix11 product, the
# closed form with its generators rebuilt per j, and a bracket that takes both
# observables' derivatives per pair.  The shortcuts keep the same floating-point
# operations in the same order, so the oracles agree in every coefficient bit.

from gl11.integrable import odd_gradient  # noqa: E402
from gl11.supergroup import supertrace_product  # noqa: E402


def rebuilt_residue(p, i):
    n = p.n
    theta_i, eta_i = theta(p, i), eta(p, i)
    te = theta_i * eta_i
    return SuperMatrix11(GrassmannElement.scalar(n, p.a(i)) - te, theta_i, p.v[i] * eta_i,
                         GrassmannElement.scalar(n, p.b(i)) - te)


def product_garnier(p, i):
    acc = GrassmannElement.zero(p.n)
    a_i = rebuilt_residue(p, i)
    for j in range(p.m):
        if j != i:
            acc = acc + (a_i * rebuilt_residue(p, j)).supertrace() * (1.0 / (p.z[i] - p.z[j]))
    return acc


def per_j_expanded(p, i):
    """The closed form in garnier_hamiltonian_expanded's grouping as a chain of
    + and * on elements: w_i = u_i - 2 theta_i eta_i once, times the sum of
    v_j k_ij / 2 with k_ij = 1 / (z_i - z_j), then per j the terms of w_j,
    theta_i eta_j and eta_i theta_j, each rebuilt from the generators."""
    n = p.n

    def w(k):
        return GrassmannElement.scalar(n, p.u[k]) - 2 * (theta(p, k) * eta(p, k))

    others = [j for j in range(p.m) if j != i]
    own = 0j
    for j in others:
        own += 0.5 * p.v[j] * (1.0 / (p.z[i] - p.z[j]))
    acc = GrassmannElement.zero(n) + w(i) * own
    for j in others:
        k = 1.0 / (p.z[i] - p.z[j])
        acc = (acc + w(j) * (0.5 * p.v[i] * k)
               + (theta(p, i) * eta(p, j)) * (p.v[j] * k)
               + (eta(p, i) * theta(p, j)) * (-p.v[i] * k))
    return acc


def per_pair_bracket(p, f, g):
    acc = GrassmannElement.zero(p.n)
    for i in range(p.m):
        ti, ei = 2 * i + 1, 2 * i + 2
        acc = (acc + f.derivative(ti) * g.derivative(ei)
               + f.derivative(ei) * g.derivative(ti))
    return acc


def oracle_systems():
    """Random systems with m = 2..6 and their copies scaled by hbar = 1, 0.5, 0."""
    rng = np.random.default_rng(40)
    for m in range(2, 7):
        for _ in range(2):
            p = random_system(rng, m)
            yield p
            for hbar in (1.0, 0.5, 0.0):
                yield p.scaled(hbar)


def test_residues_equal_the_rebuilt_oracle_and_are_kept():
    for p in oracle_systems():
        assert p.residues is p.residues
        for i in range(p.m):
            assert residue_matrix(p, i) is p.residues[i]
            got = [e.terms for e in residue_matrix(p, i).entries()]
            assert got == [e.terms for e in rebuilt_residue(p, i).entries()]


def test_residue_matrix_keeps_its_range_check():
    p = random_system(np.random.default_rng(41), 3)
    for i in (-1, 3):
        with pytest.raises(ValueError, match="site index %d out of range" % i):
            residue_matrix(p, i)
        with pytest.raises(ValueError, match="site index %d out of range" % i):
            garnier_hamiltonian(p, i)
        with pytest.raises(ValueError, match="site index %d out of range" % i):
            garnier_hamiltonian_expanded(p, i)


def test_sites_are_tuples_and_a_scaled_copy_has_its_own_residues():
    p = random_system(np.random.default_rng(42), 3)
    assert all(type(x) is tuple for x in (p.z, p.u, p.v))
    kept = p.residues
    q = p.scaled(0.5)
    assert p.residues is kept
    for i in range(p.m):
        assert residue_matrix(q, i).a.terms == rebuilt_residue(q, i).a.terms
        assert residue_matrix(q, i).a.terms != residue_matrix(p, i).a.terms


def test_supertrace_product_of_residues_equals_the_full_product():
    for p in oracle_systems():
        for x in p.residues:
            for y in p.residues:
                assert supertrace_product(x, y).terms == (x * y).supertrace().terms


def hex_terms(x):
    """The coefficients of x by float.hex of each part, signed zeros included."""
    return {m: (c.real.hex(), c.imag.hex()) for m, c in x.terms.items()}


def test_supertrace_product_is_symmetric_bit_for_bit():
    for p in oracle_systems():
        for i, x in enumerate(p.residues):
            for y in p.residues[i + 1:]:
                assert hex_terms(supertrace_product(x, y)) == hex_terms(supertrace_product(y, x))


def test_site_products_are_the_generator_products_they_replace():
    for m in (1, 2, 3, 5):
        theta, eta, theta_eta, eta_theta = site_products(m)
        assert site_products(m) is site_products(m)
        n = 2 * m
        assert [x.terms for x in theta] == [GrassmannElement.generator(n, 2 * k + 1).terms
                                            for k in range(m)]
        assert [x.terms for x in eta] == [GrassmannElement.generator(n, 2 * k + 2).terms
                                          for k in range(m)]
        for i in range(m):
            for j in range(m):
                assert theta_eta[i][j].n == eta_theta[i][j].n == n
                assert hex_terms(theta_eta[i][j]) == hex_terms(theta[i] * eta[j])
                assert hex_terms(eta_theta[i][j]) == hex_terms(eta[i] * theta[j])


def test_hamiltonians_are_kept_and_read_by_garnier_hamiltonian():
    p = random_system(np.random.default_rng(45), 4)
    assert p.hamiltonians is p.hamiltonians
    assert all(garnier_hamiltonian(p, i) is h for i, h in enumerate(p.hamiltonians))


def test_garnier_routes_equal_their_oracles_in_every_coefficient():
    for p in oracle_systems():
        for i in range(p.m):
            assert garnier_hamiltonian(p, i).terms == product_garnier(p, i).terms
            assert garnier_hamiltonian_expanded(p, i).terms == per_j_expanded(p, i).terms


def test_bracket_of_gradients_equals_the_per_pair_oracle():
    for p in oracle_systems():
        hams = [garnier_hamiltonian(p, i) for i in range(p.m)]
        grads = [odd_gradient(p, h) for h in hams]
        for i in range(p.m):
            for j in range(p.m):
                expected = per_pair_bracket(p, hams[i], hams[j]).terms
                assert poisson_bracket(p, grads[i], grads[j]).terms == expected
                assert poisson_bracket(p, hams[i], hams[j]).terms == expected


def test_odd_gradient_is_theta_then_eta_derivatives():
    rng = np.random.default_rng(43)
    p = random_system(rng, 3)
    # theta_0 eta_1 + 2 theta_2 eta_0 + 3 theta_1 eta_1: the two halves differ
    f = (theta(p, 0) * eta(p, 1) + 2.0 * theta(p, 2) * eta(p, 0)
         + 3.0 * theta(p, 1) * eta(p, 1))
    got = [(t.terms, e.terms) for t, e in odd_gradient(p, f)]
    assert got == [(f.derivative(2 * k + 1).terms, f.derivative(2 * k + 2).terms)
                   for k in range(p.m)]
    assert got[0][0] != got[0][1]


def test_bracket_elements_and_gradients_agree_and_odd_observables_raise():
    rng = np.random.default_rng(44)
    p = random_system(rng, 3)
    f = theta(p, 0) * eta(p, 1) + 2.0 * theta(p, 2) * eta(p, 0)
    g = theta(p, 1) * eta(p, 2) + garnier_hamiltonian(p, 1)
    expected = poisson_bracket(p, f, g).terms
    assert poisson_bracket(p, odd_gradient(p, f), odd_gradient(p, g)).terms == expected
    assert poisson_bracket(p, f, odd_gradient(p, g)).terms == expected
    odd = theta(p, 0) + theta(p, 1) * eta(p, 1) * eta(p, 2)
    with pytest.raises(ParityError):
        odd_gradient(p, odd)
    with pytest.raises(ParityError):
        poisson_bracket(p, f, odd)
    with pytest.raises(ParityError):
        poisson_bracket(p, odd, odd_gradient(p, g))
