"""Cech cochain tests: coboundaries, cocycle checks, cup products, Higgs gluing."""

import cmath
import contextlib
import io
import json
import math
import pathlib
import re
from itertools import permutations

import numpy as np
import pytest

from gl11 import cech, grassmann
from gl11.cech import (
    Cochain,
    HiggsCechData,
    Nerve,
    ObstructionError,
    TransitionData,
    check_gl_cocycle,
    check_sl_cocycle,
    coboundary_solution_dim,
    genus1_nerve,
    gl_higgs_constraints,
    higgs_from_global,
    nerve_from_dict,
    sl_higgs_obstruction,
    solve_coboundary,
    tetrahedron_nerve,
    transition_from_frames,
    nerve_to_dict,
    triangle_nerve,
    two_cocycle_g,
    two_cocycle_value,
)
from gl11.cli import main
from gl11.grassmann import (
    DEFAULT_TOL,
    GrassmannElement,
    ParityError,
    nan_max,
    random_element,
    random_even,
    random_odd,
)
from gl11.supergroup import (GroupCoords, SuperMatrix11, coords_inverse, coords_product,
                             quadratic_term, random_coords)

N = 8
TOL = 1e-9


def t(*indices):
    return GrassmannElement.monomial(N, indices)


def scalar(c):
    return GrassmannElement.scalar(N, c)


def random_cochain(rng, nerve, degree, parity="any"):
    return Cochain(nerve, degree, N, {s: random_element(rng, N, parity=parity, num_terms=3)
                                      for s in nerve.simplices[degree]})


def cup_product(u, v):
    """(u cup v) on the front and back faces, with Grassmann multiplication.

    Degrees up to the nerve dimension 3 are supported; the extra degree is
    needed to state the Leibniz identity for p + q = 2.
    """
    p, q = u.degree, v.degree
    return Cochain(u.nerve, p + q, u.n, {s: u.value(s[:p + 1]) * v.value(s[p:])
                                         for s in u.nerve.simplices[p + q]})


def multiplicative_class(data, tol=1e-9):
    """k_ij = h_ij + f_ij with delta f = g: e^{k} is a multiplicative cocycle.

    delta(k) = -2 pi i n_ijk on every triangle, so exp(k_ik) equals
    exp(k_ij) exp(k_jk) exactly.  The representative depends on the
    least-norm choice of f.
    """
    f = solve_coboundary(two_cocycle_g(data), tol)
    return Cochain(data.nerve, 1, data.n, {(i, j): data.h(i, j) + f.value((i, j))
                                           for (i, j) in data.nerve.simplices[1]})


def random_frames(rng, nerve, sl=False):
    return {v: random_coords(rng, N, sl=sl) for v in nerve.vertices}


def alternation_residual(data, g):
    """Largest gap between g on a vertex ordering of a listed triangle and the
    quadratic term computed on that ordering from the edge data."""
    return nan_max(two_cocycle_value(data, *perm).residual(g.value(perm))
                   for tri in data.nerve.simplices[2] for perm in permutations(tri))


def test_nerve_face_closure_enforced():
    with pytest.raises(ValueError):
        Nerve([1, 2, 3], {2: [(1, 2, 3)]})
    with pytest.raises(ValueError):
        Nerve([1, 2], {1: [(1, 1)]})


def test_coboundary_of_zero_cochain():
    nerve = triangle_nerve()
    f = Cochain(nerve, 0, N)
    assert f.coboundary().max_abs() == 0.0


def test_coboundary_definition_degree0():
    nerve = triangle_nerve()
    f = Cochain(nerve, 0, N, {(1,): t(1), (2,): t(2), (3,): scalar(1)})
    df = f.coboundary()
    assert df.value((1, 2)).residual(t(2) - t(1)) <= DEFAULT_TOL
    assert df.value((2, 1)).residual(t(1) - t(2)) <= DEFAULT_TOL


def test_delta_squared_is_zero():
    rng = np.random.default_rng(0)
    nerve = tetrahedron_nerve(solid=True)
    for degree in (0, 1):
        for _ in range(20):
            c = random_cochain(rng, nerve, degree)
            assert c.coboundary().coboundary().max_abs() <= 1e-12


def test_sl_cocycle_checks():
    nerve = triangle_nerve()
    data = TransitionData(nerve, N)
    report = check_sl_cocycle(data)
    assert report.ok and report.worst() == 0.0

    # alpha_13 = t1 + t2 closes the cocycle alpha_12 = t1, alpha_23 = t2
    data = TransitionData(nerve, N)
    data.set_edge((1, 2), alpha=t(1))
    data.set_edge((2, 3), alpha=t(2))
    data.set_edge((1, 3), alpha=t(1) + t(2))
    assert check_sl_cocycle(data).ok

    # breaking alpha_13 leaves exactly the defect t2
    data.set_edge((1, 3), alpha=t(1))
    report = check_sl_cocycle(data)
    bad = [c for c in report.failing()]
    assert len(bad) == 1 and bad[0].name == "alpha_cocycle[123]"
    assert bad[0].residual == pytest.approx(1.0)


def test_sl_cocycle_rejects_gl_data():
    data = TransitionData(triangle_nerve(), N)
    data.set_edge((1, 2), s=scalar(0.5))
    with pytest.raises(ValueError):
        check_sl_cocycle(data)


def test_h_identity_includes_quadratic_term_and_integer():
    nerve = triangle_nerve()
    data = TransitionData(nerve, N)
    data.set_edge((1, 2), alpha=t(1))
    data.set_edge((2, 3), beta=t(2))
    data.set_edge((1, 3), alpha=t(1), beta=t(2), h=0.5 * t(1, 2))
    assert check_sl_cocycle(data).ok
    # shifting h_13 by 2 pi i is absorbed by n_123 = 1
    data.set_edge((1, 3), h=0.5 * t(1, 2) + scalar(2j * cmath.pi))
    assert not check_sl_cocycle(data).ok
    data.integers[(1, 2, 3)] = 1
    assert check_sl_cocycle(data).ok


def test_gl_cocycle_frame_construction():
    rng = np.random.default_rng(1)
    for nerve in (triangle_nerve(), tetrahedron_nerve()):
        for _ in range(20):
            data = transition_from_frames(nerve, random_frames(rng, nerve))
            report = check_gl_cocycle(data)
            assert report.ok
            assert report.worst() < 1e-12


def test_gl_cocycle_twist_example():
    # constant twist s_12 = log 2: alpha_13 = alpha_12 + alpha_23 / 2
    nerve = triangle_nerve()
    data = TransitionData(nerve, N)
    s12 = scalar(cmath.log(2))
    data.set_edge((1, 2), s=s12, alpha=t(1))
    data.set_edge((2, 3), alpha=t(2))
    data.set_edge((1, 3), s=s12, alpha=t(1) + 0.5 * t(2))
    report = check_gl_cocycle(data)
    assert report.worst("alpha_cocycle") < 1e-12
    assert report.worst("s_additivity") < 1e-12
    data.set_edge((1, 3), alpha=t(1) + t(2))
    assert check_gl_cocycle(data).worst("alpha_cocycle") == pytest.approx(0.5)


def test_gl_reduces_to_sl_on_sl_data():
    rng = np.random.default_rng(2)
    nerve = tetrahedron_nerve()
    data = transition_from_frames(nerve, random_frames(rng, nerve, sl=True))
    sl_report = check_sl_cocycle(data)
    gl_report = check_gl_cocycle(data)
    assert sl_report.ok == gl_report.ok
    shared = {c.name for c in sl_report.checks}
    gl_named = {c.name: c.residual for c in gl_report.checks if c.name in shared}
    for c in sl_report.checks:
        assert gl_named[c.name] == pytest.approx(c.residual, abs=1e-12)


def test_two_cocycle_example_and_closedness():
    nerve = triangle_nerve()
    data = TransitionData(nerve, N)
    data.set_edge((1, 2), alpha=t(1))
    data.set_edge((2, 3), beta=t(2))
    data.set_edge((1, 3), alpha=t(1), beta=t(2), h=0.5 * t(1, 2))
    g = two_cocycle_g(data)
    assert g.value((1, 2, 3)).residual(0.5 * t(1, 2)) <= DEFAULT_TOL

    rng = np.random.default_rng(3)
    nerve = tetrahedron_nerve(solid=True)
    for _ in range(20):
        data = transition_from_frames(nerve, random_frames(rng, nerve))
        g = two_cocycle_g(data)
        assert alternation_residual(data, g) <= TOL
        assert g.coboundary().max_abs() < 1e-10


@pytest.mark.parametrize("nerve", [triangle_nerve(), tetrahedron_nerve(solid=True),
                                   tetrahedron_nerve(solid=False)])
@pytest.mark.parametrize("sl", [True, False])
def test_two_cocycle_g_of_cocycle_data_is_the_coboundary_of_the_h_souls(nerve, sl):
    # g = delta f with f_ij = -soul(h_ij) on data that pass the cocycle checks, so
    # cech-verify's two_cocycle_closed and two_cocycle_split cannot fail on such data
    rng = np.random.default_rng(5)
    check = check_sl_cocycle if sl else check_gl_cocycle
    for _ in range(5):
        data = transition_from_frames(nerve, random_frames(rng, nerve, sl=sl))
        assert check(data).ok
        g = two_cocycle_g(data)
        f = Cochain(nerve, 1, N, {(i, j): -data.h(i, j).soul() for (i, j) in nerve.simplices[1]})
        assert g.max_abs() > 0.01
        assert f.coboundary().residual(g) == 0.0


def test_two_cocycle_zero_for_zero_alpha():
    data = TransitionData(triangle_nerve(), N)
    g = two_cocycle_g(data)
    assert g.max_abs() == 0.0


def test_solve_coboundary_roundtrip():
    rng = np.random.default_rng(4)
    nerve = tetrahedron_nerve()
    for _ in range(20):
        f0 = random_cochain(rng, nerve, 1)
        g = f0.coboundary()
        f = solve_coboundary(g)
        assert (f.coboundary() - g).max_abs() < 1e-10


def test_solve_coboundary_zero_gives_zero():
    g = Cochain(tetrahedron_nerve(), 2, N)
    f = solve_coboundary(g)
    assert f.max_abs() == 0.0


def test_solve_coboundary_obstruction_on_sphere():
    # the boundary of the tetrahedron has H^2 nonzero: a 2-cochain with
    # nonvanishing total alternating sum is not a coboundary
    nerve = tetrahedron_nerve(solid=False)
    g = Cochain(nerve, 2, N, {(1, 2, 3): scalar(1.0)})
    with pytest.raises(ObstructionError) as caught:
        solve_coboundary(g)
    # the least-norm gap is g's part along the alternating sum: 1/4 on each triangle
    assert caught.value.residual == pytest.approx(0.25)
    assert str(caught.value) == "obstruction class nonzero on this nerve (residual 2.500e-01)"


def test_cup_product_examples():
    nerve = triangle_nerve()
    delta = Cochain(nerve, 0, N, {(v,): t(3) for v in (1, 2, 3)})
    alpha = Cochain(nerve, 1, N, {(1, 2): t(1), (2, 3): t(2), (1, 3): t(1) + t(2)})
    cup = cup_product(delta, alpha)
    assert cup.value((1, 2)).residual(t(3) * t(1)) <= DEFAULT_TOL
    zero = Cochain(nerve, 1, N)
    assert cup_product(delta, zero).max_abs() == 0.0


def test_cup_product_leibniz():
    rng = np.random.default_rng(5)
    nerve = tetrahedron_nerve(solid=True)
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)):
        for _ in range(10):
            pu = "even" if rng.integers(2) else "odd"
            u = random_cochain(rng, nerve, p, parity=pu)
            v = random_cochain(rng, nerve, q)
            sign = 1.0 if pu == "even" else -1.0
            # delta(u cup v) = delta u cup v + (-1)^p (u cup delta v), with the
            # cochain sign (-1)^p; Grassmann parity of u plays no role here
            lhs = cup_product(u, v).coboundary()
            rhs = cup_product(u.coboundary(), v) + (
                cup_product(u, v.coboundary()) if p % 2 == 0
                else -cup_product(u, v.coboundary()))
            assert (lhs - rhs).max_abs() < 1e-10


def test_sl_higgs_obstruction_trivial_and_constructed():
    rng = np.random.default_rng(6)
    nerve = tetrahedron_nerve()
    # all odd data zero: t = 0, eta = 0
    data = TransitionData(nerve, N)
    higgs = HiggsCechData(nerve, N)
    t_c, eta, report = sl_higgs_obstruction(data, higgs)
    assert report.ok and eta is not None and t_c.max_abs() == 0.0

    # frame-constructed supertraceless Higgs data glues with zero obstruction
    for _ in range(10):
        frames = random_frames(rng, nerve)
        data = transition_from_frames(nerve, frames)
        a = random_even(rng, N, num_terms=2)
        phi = SuperMatrix11(a, random_odd(rng, N, num_terms=2),
                            random_odd(rng, N, num_terms=2), a)
        higgs = higgs_from_global(nerve, frames, phi)
        t_c, eta, report = sl_higgs_obstruction(data, higgs)
        assert report.ok
        assert eta is not None


def test_sl_higgs_obstruction_on_genus1():
    # on the four-chart cycle nerve the class of t is its signed loop sum;
    # [delta][alpha] = [beta][gamma] holds iff that sum vanishes
    nerve = genus1_nerve()
    data = TransitionData(nerve, N)
    data.set_edge((1, 2), alpha=t(2))
    data.set_edge((3, 4), alpha=t(3))
    higgs = HiggsCechData(nerve, N, delta={v: t(1) for v in nerve.vertices})
    t_c, eta, report = sl_higgs_obstruction(data, higgs)
    assert t_c.value((1, 2)).residual(t(1) * t(2)) <= DEFAULT_TOL
    assert t_c.value((3, 4)).residual(t(1) * t(3)) <= DEFAULT_TOL
    assert eta is None and report.info["obstructed"]

    # alpha_14 closes the loop: class zero although t is nonzero edge-wise
    data.set_edge((1, 4), alpha=t(2) + t(3))
    t_c, eta, report = sl_higgs_obstruction(data, higgs)
    assert t_c.max_abs() > 0.5
    assert eta is not None
    assert (eta.coboundary() - t_c).max_abs() < 1e-10


def test_sl_higgs_requires_b_zero_and_sections():
    nerve = triangle_nerve()
    data = TransitionData(nerve, N)
    higgs = HiggsCechData(nerve, N, b={v: scalar(1.0) for v in (1, 2, 3)})
    with pytest.raises(ValueError):
        sl_higgs_obstruction(data, higgs)
    higgs = HiggsCechData(nerve, N, delta={1: t(1), 2: t(2), 3: t(1)})
    with pytest.raises(ValueError):
        sl_higgs_obstruction(data, higgs)


def test_gl_higgs_constraints_frame_construction():
    rng = np.random.default_rng(7)
    for nerve in (triangle_nerve(), tetrahedron_nerve()):
        for _ in range(10):
            frames = random_frames(rng, nerve)
            data = transition_from_frames(nerve, frames)
            a = random_even(rng, N, num_terms=2)
            b = random_even(rng, N, num_terms=2)
            phi = SuperMatrix11(a + 0.5 * b, random_odd(rng, N, num_terms=2),
                                random_odd(rng, N, num_terms=2), a - 0.5 * b)
            higgs = higgs_from_global(nerve, frames, phi)
            report = gl_higgs_constraints(data, higgs)
            assert report.ok, report.format_text()
            assert report.info["c_exact"]


def test_gl_higgs_constraints_b_zero_matches_sl():
    rng = np.random.default_rng(8)
    nerve = tetrahedron_nerve()
    frames = random_frames(rng, nerve)
    data = transition_from_frames(nerve, frames)
    a = random_even(rng, N, num_terms=2)
    phi = SuperMatrix11(a, random_odd(rng, N, num_terms=2),
                        random_odd(rng, N, num_terms=2), a)
    higgs = higgs_from_global(nerve, frames, phi)
    report = gl_higgs_constraints(data, higgs)
    assert report.ok
    _, eta, sl_report = sl_higgs_obstruction(data, higgs)
    assert sl_report.ok and (eta is not None) == report.info["c_exact"]


def test_gl_higgs_all_even_data_passes_trivially():
    nerve = triangle_nerve()
    data = TransitionData(nerve, N)
    higgs = HiggsCechData(nerve, N, b={v: scalar(2.0) for v in (1, 2, 3)})
    report = gl_higgs_constraints(data, higgs)
    assert report.ok and report.worst() == 0.0


def corrupted_higgs(higgs, field, vertex, bump):
    """Higgs chart data with ``bump`` added to ``field`` at one vertex."""
    fields = {name: dict(getattr(higgs, name)) for name in ("a", "b", "delta", "gamma")}
    fields[field][vertex] = fields[field][vertex] + bump
    return HiggsCechData(higgs.nerve, higgs.n, **fields)


# family -> corruption: (Higgs field, vertex, bump), or "alpha": alpha_12 moved by t(8)
HIGGS_CORRUPTIONS = {
    "b_global": ("b", 2, scalar(1.0)),
    "brel_alpha": ("gamma", 2, t(7)),
    "brel_beta": ("delta", 2, t(7)),
    "c_alternating": ("gamma", 1, t(7)),
    "c_cocycle": "alpha",
    "c_equals_a_difference": ("a", 2, scalar(1.0)),
}


@pytest.mark.parametrize("family", sorted(HIGGS_CORRUPTIONS))
@pytest.mark.parametrize("nerve", [triangle_nerve(), tetrahedron_nerve()],
                         ids=["triangle", "tetrahedron"])
def test_gl_higgs_constraints_each_family_fails_on_corrupted_data(nerve, family):
    # global-Higgs data passes; one corruption makes the named family fail
    rng = np.random.default_rng(40)
    frames = random_frames(rng, nerve)
    data = transition_from_frames(nerve, frames)
    a, b = random_even(rng, N, num_terms=2), random_even(rng, N, num_terms=2)
    phi = SuperMatrix11(a + 0.5 * b, random_odd(rng, N, num_terms=2),
                        random_odd(rng, N, num_terms=2), a - 0.5 * b)
    higgs = higgs_from_global(nerve, frames, phi)
    assert gl_higgs_constraints(data, higgs).ok
    corruption = HIGGS_CORRUPTIONS[family]
    if corruption == "alpha":
        data.set_edge((1, 2), alpha=data.alpha(1, 2) + t(8))
    else:
        higgs = corrupted_higgs(higgs, *corruption)
    report = gl_higgs_constraints(data, higgs)
    failing = {c.name.split("[")[0] for c in report.failing()}
    assert family in failing, report.format_text()
    if family == "c_equals_a_difference":  # a enters no other check
        assert failing == {family}


def test_solution_space_dimension():
    # connected nerves: constants are the kernel of delta on 0-cochains
    assert coboundary_solution_dim(triangle_nerve(), 0) == 1
    assert coboundary_solution_dim(genus1_nerve(), 0) == 1


def frame_change(data, frames):
    """g'_ij = r_i g_ij r_j^{-1}: the transition data of changed local frames."""
    out = TransitionData(data.nerve, data.n)
    for (i, j) in data.nerve.simplices[1]:
        c = GroupCoords(data.h(i, j), data.s(i, j), data.alpha(i, j),
                        data.beta(i, j))
        c = coords_product(coords_product(frames[i], c), coords_inverse(frames[j]))
        out.set_edge((i, j), h=c.h, s=c.s, alpha=c.alpha, beta=c.beta)
    return out


def loop_sum(data, accessor):
    """Signed sum of an edge quantity around the four-chart cycle."""
    total = accessor(1, 2) + accessor(2, 3) + accessor(3, 4) - accessor(1, 4)
    return total


def test_equivalence_preserves_odd_classes_on_genus1():
    # vertex frame changes shift alpha and beta by coboundaries, so their
    # loop classes on the cycle nerve are invariant
    rng = np.random.default_rng(12)
    nerve = genus1_nerve()
    data = TransitionData(nerve, N)
    for e in nerve.simplices[1]:
        data.set_edge(e, h=random_even(rng, N, num_terms=2),
                      alpha=random_odd(rng, N, num_terms=2),
                      beta=random_odd(rng, N, num_terms=2))
    frames = {v: random_coords(rng, N, sl=True) for v in nerve.vertices}
    changed = frame_change(data, frames)
    assert loop_sum(changed, changed.alpha).residual(loop_sum(data, data.alpha)) <= DEFAULT_TOL
    assert loop_sum(changed, changed.beta).residual(loop_sum(data, data.beta)) <= DEFAULT_TOL


def test_equivalence_preserves_k_class_on_tetrahedron():
    rng = np.random.default_rng(13)
    nerve = tetrahedron_nerve()
    base_frames = random_frames(rng, nerve, sl=True)
    data = transition_from_frames(nerve, base_frames)
    frames = {v: random_coords(rng, N, sl=True) for v in nerve.vertices}
    changed = frame_change(data, frames)
    assert check_gl_cocycle(changed).ok
    k_old = multiplicative_class(data)
    k_new = multiplicative_class(changed)
    # the difference of representatives is exact (equal classes)
    eta = solve_coboundary(k_new - k_old)
    assert (eta.coboundary() - (k_new - k_old)).max_abs() < 1e-9


def test_multiplicative_class_is_exp_cocycle():
    rng = np.random.default_rng(10)
    for nerve in (triangle_nerve(), tetrahedron_nerve()):
        for _ in range(10):
            data = transition_from_frames(nerve, random_frames(rng, nerve))
            k = multiplicative_class(data)
            for (i, j, kk) in nerve.simplices[2]:
                lhs = k.value((i, kk)).exp()
                rhs = k.value((i, j)).exp() * k.value((j, kk)).exp()
                assert lhs.residual(rhs) <= 1e-9


def test_t_cochain_first_term_is_cup_product():
    # t_ij = delta_i alpha_ij - beta_ij gamma_i: the first term is the cup
    # product of the 0-cochain delta with the 1-cochain alpha
    rng = np.random.default_rng(11)
    nerve = tetrahedron_nerve()
    frames = random_frames(rng, nerve, sl=True)
    data = transition_from_frames(nerve, frames)
    delta_val = t(1)
    higgs = HiggsCechData(nerve, N, delta={v: delta_val for v in nerve.vertices})
    t_c, _, _ = sl_higgs_obstruction(data, higgs)
    delta_cochain = Cochain(nerve, 0, N, {(v,): delta_val for v in nerve.vertices})
    alpha_cochain = Cochain(nerve, 1, N,
                            {e: data.alpha(*e) for e in nerve.simplices[1]})
    cup = cup_product(delta_cochain, alpha_cochain)
    for e in nerve.simplices[1]:
        assert t_c.value(e).residual(cup.value(e)) <= DEFAULT_TOL


def test_sl_check_h_mod_flag():
    nerve = triangle_nerve()
    data = TransitionData(nerve, N)
    data.set_edge((1, 3), h=scalar(2j * cmath.pi))
    assert not check_sl_cocycle(data).ok


def test_transition_data_json_roundtrip():
    rng = np.random.default_rng(9)
    nerve = tetrahedron_nerve()
    data = transition_from_frames(nerve, random_frames(rng, nerve))
    back = TransitionData.from_dict(nerve, data.to_dict())
    for (i, j) in nerve.simplices[1]:
        assert back.h(i, j).residual(data.h(i, j)) <= DEFAULT_TOL
        assert back.alpha(i, j).residual(data.alpha(i, j)) <= DEFAULT_TOL


# -- reference: the reversal rules and cocycle identities written out ---------

FIELDS = ("h", "s", "alpha", "beta")


def ref_oriented(raw, i, j):
    """(h, s, alpha, beta) of g_ij from the listed edge's fields:
    h_ji = -h_ij, s_ji = -s_ij, alpha_ji = -e^{s_ij} alpha_ij,
    beta_ji = -e^{-s_ij} beta_ij."""
    if (i, j) in raw:
        return raw[(i, j)]
    h, s, alpha, beta = raw[(j, i)]
    return -h, -s, -(s.exp() * alpha), -((-s).exp() * beta)


def ref_cocycle_residuals(nerve, raw, twisted):
    """The five cocycle residuals on every listed triangle (all n_ijk = 0)."""
    out = {}
    one = GrassmannElement.one(N)
    for (i, j, k) in nerve.simplices[2]:
        label = "[%d%d%d]" % (i, j, k)
        h_ij, s_ij, a_ij, b_ij = ref_oriented(raw, i, j)
        h_jk, s_jk, a_jk, b_jk = ref_oriented(raw, j, k)
        h_ik, s_ik, a_ik, b_ik = ref_oriented(raw, i, k)
        e_s, e_ms = (s_ij.exp(), (-s_ij).exp()) if twisted else (one, one)
        quad = (a_ij * e_s * b_jk - e_ms * a_jk * b_ij) * 0.5
        out["alpha_cocycle" + label] = (a_ik - a_ij - e_ms * a_jk).max_abs()
        out["beta_cocycle" + label] = (b_ik - b_ij - e_s * b_jk).max_abs()
        out["h_cocycle" + label] = (h_ik - h_ij - h_jk - quad).max_abs()
        if twisted:
            out["s_additivity" + label] = (s_ik - s_ij - s_jk).max_abs()
            out["sdet_cocycle" + label] = (s_ik.exp() - s_ij.exp() * s_jk.exp()).max_abs()
    return out


def sphere_nerve(reversed_triangles):
    """Tetrahedron boundary; reversed triangles read every edge against its
    listed orientation."""
    nerve = tetrahedron_nerve(solid=False)
    if not reversed_triangles:
        return nerve
    return Nerve(nerve.vertices, {1: nerve.simplices[1],
                                  2: [tri[::-1] for tri in nerve.simplices[2]]})


def perturbed(rng, sl, field, reversed_triangles):
    """Frame data with one field of edge (1, 3) perturbed, and its raw fields."""
    nerve = sphere_nerve(reversed_triangles)
    data = transition_from_frames(nerve, random_frames(rng, nerve, sl=sl))
    raw = {e: [getattr(data, f)(*e) for f in FIELDS] for e in nerve.simplices[1]}
    pos = FIELDS.index(field)
    bump = (random_even if field in ("h", "s") else random_odd)(rng, N, num_terms=3)
    raw[(1, 3)][pos] = raw[(1, 3)][pos] + bump
    data.set_edge((1, 3), **{field: raw[(1, 3)][pos]})
    return data, raw


def assert_matches_reference(data, raw, report, twisted):
    for (i, j) in data.nerve.simplices[1]:
        for a, b in ((i, j), (j, i)):
            want = ref_oriented(raw, a, b)
            c = data.coords(a, b)
            for f, w in zip(FIELDS, want):
                assert (getattr(data, f)(a, b) - w).max_abs() <= 1e-12, (f, a, b)
                assert (getattr(c, f) - w).max_abs() <= 1e-12, (f, a, b)
    ref = ref_cocycle_residuals(data.nerve, raw, twisted)
    got = {c.name: c.residual for c in report.checks}
    assert got.keys() == ref.keys()
    for name, want in ref.items():
        assert got[name] == pytest.approx(want, rel=1e-9, abs=1e-10), name
    assert max(ref.values()) > 1e-3  # the perturbation shows


@pytest.mark.parametrize("reversed_triangles", [False, True])
@pytest.mark.parametrize("field", FIELDS)
def test_gl_cocycle_check_matches_written_out_reference(field, reversed_triangles):
    rng = np.random.default_rng(20 + FIELDS.index(field))
    for _ in range(3):
        data, raw = perturbed(rng, False, field, reversed_triangles)
        assert_matches_reference(data, raw, check_gl_cocycle(data), twisted=True)


@pytest.mark.parametrize("reversed_triangles", [False, True])
@pytest.mark.parametrize("field", ("h", "alpha", "beta"))
def test_sl_cocycle_check_matches_written_out_reference(field, reversed_triangles):
    rng = np.random.default_rng(30 + FIELDS.index(field))
    for _ in range(3):
        data, raw = perturbed(rng, True, field, reversed_triangles)
        assert_matches_reference(data, raw, check_sl_cocycle(data), twisted=False)


def test_set_edge_names_edge_and_field():
    data = TransitionData(triangle_nerve(), N)
    with pytest.raises(ParityError, match=r"edge \(1, 2\): h must be even"):
        data.set_edge((1, 2), h=t(1))
    with pytest.raises(ParityError, match=r"edge \(2, 3\): beta must be odd"):
        data.set_edge((2, 3), beta=t(1, 2))
    # a rejected edit leaves the stored coordinates untouched
    assert data.h(1, 2).max_abs() == 0.0 and data.beta(2, 3).max_abs() == 0.0


def test_cochain_max_abs_keeps_nan():
    nerve = triangle_nerve()
    c = Cochain(nerve, 1, N, {(1, 2): scalar(1.0), (1, 3): scalar(math.nan)})
    assert math.isnan(c.max_abs())


def test_gl_higgs_given_a_fold_keeps_nan():
    nerve = triangle_nerve()
    data = TransitionData(nerve, N)
    higgs = HiggsCechData(nerve, N, a={1: scalar(0.0), 2: scalar(0.0),
                                       3: scalar(math.nan)})
    report = gl_higgs_constraints(data, higgs)
    given = [c for c in report.checks if c.name == "c_equals_a_difference"]
    assert math.isnan(given[0].residual) and not report.ok


def test_transition_data_triangle_orientation():
    nerve = triangle_nerve()
    for simplex in ([1, 2, 3], [2, 3, 1], [3, 1, 2]):
        data = TransitionData.from_dict(nerve, {"n": 2, "triangles": [
            {"simplex": simplex, "n": 1}]})
        assert data.integer(1, 2, 3) == 1
    for simplex in ([3, 2, 1], [2, 1, 3], [1, 3, 2]):
        with pytest.raises(ValueError, match=r"triangle \(%d, %d, %d\)" % tuple(simplex)):
            TransitionData.from_dict(nerve, {"n": 2, "triangles": [
                {"simplex": simplex, "n": 1}]})


def test_transition_data_generator_count_checked_while_parsing():
    nerve = triangle_nerve()
    good = TransitionData(nerve, 4).to_dict()
    good["edges"][1]["alpha"] = GrassmannElement.zero(6).to_dict()
    with pytest.raises(ValueError, match='edge \\(1, 3\\): alpha has 6 generators, "n" is 4'):
        TransitionData.from_dict(nerve, good)


def edges_reversed(nerve):
    """The same nerve with every edge listed in the opposite orientation."""
    return Nerve(nerve.vertices, {1: [e[::-1] for e in nerve.simplices[1]],
                                  2: nerve.simplices[2], 3: nerve.simplices[3]})


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("solid", [True, False])
def test_two_cocycle_g_alternates_on_every_vertex_ordering(solid, reverse):
    # cocycle data makes the quadratic term alternating: on each of the six
    # orderings of a triangle it equals the signed value stored for the listed one
    rng = np.random.default_rng(11 + 2 * solid + reverse)
    nerve = tetrahedron_nerve(solid)
    if reverse:
        nerve = edges_reversed(nerve)
    for _ in range(5):
        data = transition_from_frames(nerve, random_frames(rng, nerve))
        assert alternation_residual(data, two_cocycle_g(data)) <= TOL


@pytest.mark.parametrize("solid", [True, False])
def test_two_cocycle_g_matches_two_cocycle_value_bit_for_bit(solid):
    # every g_ij of a listed triangle is read through coords_inverse here
    rng = np.random.default_rng(43 + solid)
    nerve = edges_reversed(tetrahedron_nerve(solid))
    for _ in range(5):
        data = transition_from_frames(nerve, random_frames(rng, nerve))
        assert not data.is_sl()
        g = two_cocycle_g(data)
        for pos, (i, j, k) in enumerate(nerve.simplices[2]):
            value = two_cocycle_value(data, i, j, k)
            assert list(g.values[pos].terms.items()) == list(value.terms.items())
            # g_ijk is the quadratic term of h in the group law g_ij g_jk
            quadratic = data.h(i, k) - data.h(i, j) - data.h(j, k)
            assert (quadratic - value).max_abs() <= 1e-12


# -- Nerve.lookup: the stored-orientation index against the permutation sign --------

def permutation_lookup(nerve, p, simplex):
    """(position, sign, stored) from the unordered simplex and the sorting sign."""
    [(pos, stored)] = [(k, s) for k, s in enumerate(nerve.simplices[p])
                       if set(s) == set(simplex)]
    inversions = sum(stored.index(a) > stored.index(b)
                     for k, a in enumerate(simplex) for b in simplex[k + 1:])
    return pos, -1 if inversions % 2 else 1, stored


@pytest.mark.parametrize("nerve", [
    tetrahedron_nerve(), tetrahedron_nerve(solid=False),
    # stored orientations that are not the sorted ones
    Nerve([4, 3, 2, 1], {1: [(2, 1), (3, 1), (3, 2)], 2: [(3, 2, 1)]}),
], ids=["solid", "boundary", "reversed"])
def test_lookup_agrees_with_the_permutation_sign_for_every_ordering(nerve):
    for p in (0, 1, 2, 3):
        for stored in nerve.simplices[p]:
            assert nerve.lookup(p, stored) == (nerve.simplices[p].index(stored), 1, stored)
            for ordering in permutations(stored):
                assert nerve.lookup(p, ordering) == permutation_lookup(nerve, p, ordering)
                assert nerve.lookup(p, list(ordering)) == permutation_lookup(nerve, p, ordering)


def test_lookup_of_a_stored_tuple_keeps_its_degree_check():
    nerve = tetrahedron_nerve()
    for p, simplex in ((1, (1, 2, 3)), (2, (1, 2)), (0, (1, 2))):
        with pytest.raises(ValueError, match="is not a %d-simplex" % p):
            nerve.lookup(p, simplex)
    with pytest.raises(ValueError, match="not in nerve"):
        tetrahedron_nerve(solid=False).lookup(3, (1, 2, 3, 4))


@pytest.mark.parametrize("p, first, again", [(1, (1, 2), (2, 1)),
                                             (2, (1, 2, 3), (2, 1, 3)),
                                             (2, (1, 2, 3), (3, 1, 2))])
def test_a_simplex_listed_again_in_another_ordering_raises(p, first, again):
    simplices = {1: [(1, 2), (1, 3), (2, 3)]}
    simplices[p] = [s for s in simplices.get(p, []) if set(s) != set(first)]
    simplices[p] += [first, again]
    with pytest.raises(ValueError, match=re.escape("simplex %r listed twice" % (again,))):
        Nerve([1, 2, 3], simplices)


# -- Nerve.faces and Cochain.coboundary against the face lookups written out -------

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "gl11" / "fixtures"
SHIPPED_NERVES = ["nerve_triangle.json", "nerve_tetrahedron.json",
                  "nerve_tetrahedron_boundary.json", "nerve_genus1.json"]


def face_nerves():
    nerves = [nerve_from_dict(json.loads((FIXTURES / name).read_text()))
              for name in SHIPPED_NERVES]
    return nerves + [edges_reversed(tetrahedron_nerve(solid)) for solid in (True, False)]


@pytest.mark.parametrize("nerve", face_nerves(),
                         ids=SHIPPED_NERVES + ["solid_reversed", "boundary_reversed"])
def test_faces_match_lookup_of_each_face(nerve):
    # the matrix of delta is the same table scattered, row by row
    for p in (1, 2, 3):
        assert len(nerve.faces[p]) == nerve.num(p)
        mat = cech._coboundary_matrix(nerve, p - 1)
        assert mat.shape == (nerve.num(p), nerve.num(p - 1))
        for s, row, mat_row in zip(nerve.simplices[p], nerve.faces[p], mat):
            want, want_row = [], np.zeros(nerve.num(p - 1))
            for k in range(p + 1):
                pos, sign, _ = nerve.lookup(p - 1, s[:k] + s[k + 1:])
                want.append((pos, (-1) ** k * sign))
                want_row[pos] += (-1) ** k * sign
            assert row == want, s
            assert np.array_equal(mat_row, want_row), s


def written_out_coboundary(c):
    """delta c per listed simplex: the alternating sum of c on its faces, each
    face sliced out and read through Cochain.value, summed from zero."""
    out = []
    for s in c.nerve.simplices[c.degree + 1]:
        acc = GrassmannElement.zero(c.n)
        for k in range(len(s)):
            term = c.value(s[:k] + s[k + 1:])
            acc = acc + (term if k % 2 == 0 else -term)
        out.append(acc)
    return out


def term_bits(x):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in x.terms.items()]


@pytest.mark.parametrize("reverse", [False, True])
def test_coboundary_is_the_written_out_fold_bit_for_bit(reverse):
    rng = np.random.default_rng(44 + reverse)
    nerve = tetrahedron_nerve()
    if reverse:
        nerve = edges_reversed(nerve)
    for degree in (0, 1, 2):
        for _ in range(5):
            c = random_cochain(rng, nerve, degree)
            got = c.coboundary()
            assert len(got.values) == nerve.num(degree + 1)
            for x, y in zip(got.values, written_out_coboundary(c)):
                assert term_bits(x) == term_bits(y)


# -- cech-verify: orientation table and exponential series, counted -----------------


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(arg) for arg in argv])


def test_cech_verify_takes_one_exp_pair_per_edge(count_calls):
    # the reader forms the twist e^{+-s} of each of the 6 edges, and the cocycle
    # report, the group law and two_cocycle_value all read it from GroupCoords
    series = count_calls(grassmann, "nilpotent_series")
    for nerve in ("nerve_tetrahedron.json", "nerve_tetrahedron_boundary.json"):
        series.clear()
        assert quiet_main(["cech-verify", FIXTURES / nerve,
                           FIXTURES / "cech_tetra_valid.json"]) == 0
        assert len(series) == 6


@pytest.mark.parametrize("solid", [True, False])
def test_cech_verify_resolves_orderings_without_a_permutation_sign(count_calls, tmp_path,
                                                                   solid):
    # every edge stored reversed, so each triangle reads its edges through the table
    nerve = edges_reversed(tetrahedron_nerve(solid))
    data = transition_from_frames(nerve, random_frames(np.random.default_rng(5), nerve))
    nerve_path, data_path = tmp_path / "nerve.json", tmp_path / "data.json"
    nerve_path.write_text(json.dumps(nerve_to_dict(nerve)))
    data_path.write_text(json.dumps(data.to_dict()))
    signs = count_calls(cech, "_sort_sign")
    assert quiet_main(["cech-verify", nerve_path, data_path]) == 0
    assert signs == []


def bits(elements):
    """The coefficients of each element as float.hex pairs, in key order."""
    return [[(m, c.real.hex(), c.imag.hex()) for m, c in x.terms.items()] for x in elements]


@pytest.mark.parametrize("solid", [True, False])
def test_transition_data_keeps_each_listed_triangle_term(solid):
    # every edge stored reversed, so each kept term is read through coords_inverse
    nerve = edges_reversed(tetrahedron_nerve(solid))
    data = transition_from_frames(nerve, random_frames(np.random.default_rng(22), nerve))
    assert check_gl_cocycle(data).ok
    g = two_cocycle_g(data)
    for pos, (i, j, k) in enumerate(nerve.simplices[2]):
        term = data.quadratic_term(i, j, k)
        assert data.quadratic_term(i, j, k) is term
        assert two_cocycle_value(data, i, j, k) is term[1] and g.values[pos] is term[1]
        assert bits(term) == bits(quadratic_term(data.coords(i, j), data.coords(j, k)))


def test_set_edge_after_a_check_changes_the_next_report():
    # set_edge drops the kept terms: the next report is that of the same edges set afresh
    nerve = tetrahedron_nerve()
    data = transition_from_frames(nerve, random_frames(np.random.default_rng(23), nerve))
    before = check_gl_cocycle(data).to_dict()
    two_cocycle_g(data)
    data.set_edge((1, 2), beta=data.beta(1, 2) + t(3))
    fresh = TransitionData(nerve, N)
    for edge in nerve.simplices[1]:
        c = data.coords(*edge)
        fresh.set_edge(edge, h=c.h, s=c.s, alpha=c.alpha, beta=c.beta)
    after = check_gl_cocycle(data).to_dict()
    assert after == check_gl_cocycle(fresh).to_dict() and after != before
    assert [c["name"] for c in after["checks"] if not c["passed"]] == [
        "beta_cocycle[123]", "beta_cocycle[124]", "h_cocycle[123]", "h_cocycle[124]"]
    assert bits(two_cocycle_g(data).values) == bits(two_cocycle_g(fresh).values)


def test_frames_hand_their_edges_to_the_data_at_construction(monkeypatch):
    # no set_edge and no write into the edge map afterwards: the law's g_ij = R_i^{-1} R_j,
    # as the same edges set one by one would store them
    nerve = tetrahedron_nerve()
    frames = random_frames(np.random.default_rng(24), nerve)
    fresh = TransitionData(nerve, N)
    for i, j in nerve.simplices[1]:
        c = coords_product(coords_inverse(frames[i]), frames[j])
        fresh.set_edge((i, j), h=c.h, s=c.s, alpha=c.alpha, beta=c.beta)

    def refuse(self, *args, **kw):
        raise AssertionError("set_edge called while building from frames")

    monkeypatch.setattr(TransitionData, "set_edge", refuse)
    data = transition_from_frames(nerve, frames)
    assert list(data._edges) == list(fresh._edges)
    assert json.dumps(data.to_dict()) == json.dumps(fresh.to_dict())
