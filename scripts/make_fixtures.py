#!/usr/bin/env python3
"""Regenerate the JSON fixtures shipped with the package (deterministic)."""

import pathlib
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))  # run from a checkout without gl11 installed

from gl11 import cech, fatgraph, hitchin, integrable
from gl11.grassmann import ConjugationTable, GrassmannElement
from gl11.reports import to_json
from gl11.supergroup import random_coords

OUT = SRC / "gl11" / "fixtures"
N = 8


def dump(name, payload):
    path = OUT / name
    with open(path, "w") as handle:
        handle.write(to_json(payload) + "\n")
    print("wrote", path)


def nerves():
    dump("nerve_triangle.json", cech.nerve_to_dict(cech.triangle_nerve()))
    dump("nerve_tetrahedron.json", cech.nerve_to_dict(cech.tetrahedron_nerve()))
    dump("nerve_tetrahedron_boundary.json",
         cech.nerve_to_dict(cech.tetrahedron_nerve(solid=False)))
    dump("nerve_genus1.json", cech.nerve_to_dict(cech.genus1_nerve()))


def cech_data():
    rng = np.random.default_rng(2024)
    nerve = cech.tetrahedron_nerve(solid=False)
    frames = {v: random_coords(rng, N) for v in nerve.vertices}
    data = cech.transition_from_frames(nerve, frames)
    assert cech.check_gl_cocycle(data).ok
    dump("cech_tetra_valid.json", data.to_dict())
    # corrupt: delete the quadratic correction from h on edge (1, 3); only the
    # h identity fails, on the triangles containing that edge
    bad = cech.TransitionData.from_dict(nerve, data.to_dict())
    g_123 = cech.two_cocycle_value(bad, 1, 2, 3)
    bad.set_edge((1, 3), h=bad.h(1, 3) - g_123)
    report = cech.check_gl_cocycle(bad)
    failing = sorted(c.name for c in report.failing())
    assert failing and all(name.startswith("h_cocycle") for name in failing), failing
    dump("cech_tetra_corrupt_h.json", bad.to_dict())


def hitchin_data():
    table = ConjugationTable.swap_halves(N)

    def mono(indices, coeff, p, q):
        return hitchin.LocalFunction.monomial(
            GrassmannElement.monomial(N, indices, coeff), p, q)

    rho_h = mono([1], 1.0, 1, 0)
    rho_a = mono([2], 0.5, 0, 1)
    v_h = mono([], 0.25, 2, 0)
    v_a = mono([], 0.25, 0, 2)
    delta = mono([3], 1.0, 1, 0)
    gamma = mono([4], 0.75, 0, 0)
    a_diag = mono([], 1.0, 1, 0)
    metric = hitchin.hitchin_solution(rho_h, rho_a, v_h, v_a, delta, gamma, table)
    phi = hitchin.higgs_matrix(a_diag, delta, gamma)
    assert hitchin.hitchin_residual(metric, phi).max_abs() < 1e-12
    dump("metric_example.json", metric.to_dict())
    dump("higgs_example.json", {"n": N, "a": a_diag.to_dict(),
                                "delta": delta.to_dict(), "gamma": gamma.to_dict()})
    bad = hitchin.MetricData(metric.u + mono([], 1.0, 1, 1), metric.rho, table)
    residual = hitchin.hitchin_residual(bad, phi)
    assert residual.max_abs() >= 0.5
    dump("metric_example_corrupt.json", bad.to_dict())


def graphs():
    rng = np.random.default_rng(7)
    for (g, s) in ((0, 3), (1, 1), (1, 2), (2, 1)):
        graph = fatgraph.fixture_graph(g, s)
        dump("fatgraph_g%ds%d.json" % (g, s), graph.to_dict())
    x = random_coords(rng, N, sl=True)
    flat = fatgraph.flat_torus_connection(N, x, scale=0.6)
    assert fatgraph.check_puncture_constraints(flat).ok
    dump("connection_g1s1_flat.json", fatgraph.connection_to_dict(flat))
    conn = fatgraph.random_connection(rng, fatgraph.fixture_graph(1, 1), N)
    dump("connection_g1s1_random.json", fatgraph.connection_to_dict(conn))


def su_connection():
    # its own rng, so that the other fixtures keep their draws
    rng = np.random.default_rng(13)
    table = ConjugationTable.swap_halves(N)
    conn = fatgraph.random_connection(rng, fatgraph.fixture_graph(1, 1), N, table=table)
    dump("connection_g1s1_su.json", fatgraph.connection_to_dict(conn))


def systems():
    rng = np.random.default_rng(11)
    dump("gaudin_m3.json", integrable.random_system(rng, 3).to_dict())


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    nerves()
    cech_data()
    hitchin_data()
    graphs()
    su_connection()
    systems()


if __name__ == "__main__":
    main()
