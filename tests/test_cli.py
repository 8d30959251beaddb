"""CLI tests: exit-status contract, determinism, fixtures, negative controls."""

import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

from gl11 import cech, cli, fatgraph, grassmann, hitchin, integrable, supergroup
from gl11.cli import main
from gl11.grassmann import ConjugationTable, GrassmannElement, random_even, random_odd

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "gl11" / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_group_selftest_passes(capsys):
    code, out = run(capsys, "group-selftest", "--count", "50")
    assert code == 0
    assert "status: pass" in out


def test_group_selftest_corrupt_fails(capsys):
    code, out = run(capsys, "--format", "json", "group-selftest",
                    "--count", "5", "--corrupt")
    assert code == 1
    payload = json.loads(out)
    failing = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert failing == ["coords_vs_matrix"]


def test_deterministic_given_seed(capsys):
    _, out1 = run(capsys, "--format", "json", "--seed", "3",
                  "group-selftest", "--count", "20")
    _, out2 = run(capsys, "--format", "json", "--seed", "3",
                  "group-selftest", "--count", "20")
    # identical reports byte-for-byte across repeated runs with one seed
    assert out1 == out2


def test_cech_verify_fixture_passes(capsys):
    code, out = run(capsys, "cech-verify", fx("nerve_tetrahedron_boundary.json"),
                    fx("cech_tetra_valid.json"))
    assert code == 0


def test_cech_verify_corrupt_fails_on_h_identity_only(capsys):
    code, out = run(capsys, "--format", "json", "cech-verify",
                    fx("nerve_tetrahedron_boundary.json"),
                    fx("cech_tetra_corrupt_h.json"))
    assert code == 1
    payload = json.loads(out)
    failing = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert failing and all(name.startswith("h_cocycle") for name in failing)


def test_cech_verify_zero_data_on_triangle(capsys, tmp_path):
    data = {"n": 4, "edges": [], "triangles": []}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    code, _ = run(capsys, "cech-verify", fx("nerve_triangle.json"), str(path))
    assert code == 0


def perturbed_cech_files(tmp_path, seed, solid):
    """Nerve and data files: exact cocycle data on the tetrahedron from one
    seeded frame per vertex, then alpha_12 moved by 1e-3 t_1."""
    nerve = cech.tetrahedron_nerve(solid)
    rng = np.random.default_rng(seed)
    frames = {v: supergroup.random_coords(rng, 8) for v in nerve.vertices}
    data = cech.transition_from_frames(nerve, frames)
    data.set_edge((1, 2), alpha=data.alpha(1, 2) + 1e-3 * GrassmannElement.generator(8, 1))
    paths = [tmp_path / "nerve.json", tmp_path / "data.json"]
    paths[0].write_text(json.dumps(cech.nerve_to_dict(nerve)))
    paths[1].write_text(json.dumps(data.to_dict()))
    return [str(path) for path in paths]


def failing_checks(out):
    return [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]


def test_cech_verify_reports_data_that_pass_within_tol(capsys, tmp_path):
    # the perturbation passes every cocycle check at this tol; g is then not
    # alternating to 1e-9, which no check claims, and the report still comes out
    code, out, err = outcome(capsys, ["--format", "json", "--tol", "0.0010000001",
                                      "cech-verify", *perturbed_cech_files(tmp_path, 43, False)])
    assert (code, err) == (0, "")
    assert failing_checks(out) == []


def test_cech_verify_reports_an_open_two_cocycle(capsys, tmp_path):
    # here the same perturbation leaves |delta g| above tol: a failed check, not a crash.
    # Seed 116 is the smallest, and in 1..300 the only, seed whose solid tetrahedron
    # fails two_cocycle_closed alone at this tol; no boundary seed in 1..300 does.
    code, out, err = outcome(capsys, ["--format", "json", "--tol", "0.0010000001",
                                      "cech-verify", *perturbed_cech_files(tmp_path, 116, True)])
    assert (code, err) == (1, "")
    assert failing_checks(out) == ["two_cocycle_closed"]


@pytest.mark.parametrize("solid", [True, False])
def test_cech_verify_reports_a_shifted_two_cocycle(capsys, monkeypatch, tmp_path, solid):
    # frame data pass every cocycle check, and their g is exact (test_cech); a
    # constant added to g on one triangle is not closed on the solid tetrahedron
    # and has a nonzero class on its boundary, a sphere
    nerve = cech.tetrahedron_nerve(solid)
    frames = {v: supergroup.random_coords(np.random.default_rng(5), 8) for v in nerve.vertices}
    paths = [tmp_path / "nerve.json", tmp_path / "data.json"]
    paths[0].write_text(json.dumps(cech.nerve_to_dict(nerve)))
    paths[1].write_text(json.dumps(cech.transition_from_frames(nerve, frames).to_dict()))
    value, first = cech.two_cocycle_value, nerve.simplices[2][0]
    monkeypatch.setattr(cech, "two_cocycle_value", lambda data, *tri: (
        value(data, *tri) + 1.0 if tri == first else value(data, *tri)))
    code, out, err = outcome(capsys, ["--format", "json", "cech-verify", *map(str, paths)])
    payload = json.loads(out)
    names = {c["name"] for c in payload["checks"]}
    assert err == ""
    assert "two_cocycle_split" not in payload["info"]
    # the check carries the least-norm gap, 1/4 on each triangle for a unit shift
    split = [c["residual"] for c in payload["checks"] if c["name"] == "two_cocycle_split"]
    assert split == [pytest.approx(0.25)]
    if solid:
        assert (code, failing_checks(out)) == (1, ["two_cocycle_closed", "two_cocycle_split"])
    else:  # the obstruction fails the split check, the only one that fails
        assert (code, failing_checks(out)) == (1, ["two_cocycle_split"])
        assert "two_cocycle_closed" not in names


def test_exact_solves_pass_at_tol_0(capsys):
    # the rounding of an exact least-norm solve is neither an obstruction nor a singular system
    code, out, _ = outcome(capsys, ["--format", "json", "--tol", "0", "cech-verify",
                                    fx("nerve_tetrahedron_boundary.json"),
                                    fx("cech_tetra_valid.json")])
    payload = json.loads(out)
    assert code == 0
    assert "two_cocycle_split" in {c["name"] for c in payload["checks"]}
    assert "two_cocycle_split" not in payload["info"]
    code, out, _ = outcome(capsys, ["--format", "json", "--tol", "0", "cech-verify",
                                    fx("nerve_tetrahedron_boundary.json"),
                                    fx("cech_tetra_corrupt_h.json")])
    assert code == 1 and failing_checks(out)
    code, out, _ = outcome(capsys, ["--format", "json", "--tol", "0", "fatgraph", "normalize",
                                    fx("fatgraph_g1s1.json"), fx("connection_g1s1_random.json")])
    assert code == 0
    assert json.loads(out)["info"]["singular"] is False


def test_cech_verify_bad_file_diagnostics(capsys, tmp_path):
    # an unreadable or undecodable file is a usage error (exit 2), not a failed check
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    missing = tmp_path / "missing.json"
    for path in (bad, missing):
        code, out, err = outcome(capsys, ["cech-verify", fx("nerve_triangle.json"), str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: %s: " % path)


def test_cech_verify_nerve_missing_field_exits_2(capsys, tmp_path):
    nerve = json.loads(pathlib.Path(fx("nerve_triangle.json")).read_text())
    del nerve["vertices"]
    path = tmp_path / "no_vertices.json"
    path.write_text(json.dumps(nerve))
    code = main(["cech-verify", str(path), fx("cech_tetra_valid.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "no_vertices.json" in err and "'vertices'" in err


def test_hitchin_residual_metric_missing_field_exits_2(capsys, tmp_path):
    metric = json.loads(pathlib.Path(fx("metric_example.json")).read_text())
    del metric["n"]
    path = tmp_path / "no_n.json"
    path.write_text(json.dumps(metric))
    code = main(["hitchin-residual", str(path), fx("higgs_example.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "no_n.json" in err and "'n'" in err


def test_hitchin_residual_metric_wrong_type_exits_2(capsys, tmp_path):
    metric = json.loads(pathlib.Path(fx("metric_example.json")).read_text())
    metric["n"] = None
    path = tmp_path / "null_n.json"
    path.write_text(json.dumps(metric))
    code = main(["hitchin-residual", str(path), fx("higgs_example.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "null_n.json" in err and "wrongly typed" in err


def test_cech_verify_duplicate_vertex_names_vertices(capsys, tmp_path):
    nerve = json.loads(pathlib.Path(fx("nerve_tetrahedron_boundary.json")).read_text())
    nerve["vertices"] = [1, 2, 3, 4, 4]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(nerve))
    code, out, err = outcome(capsys, ["cech-verify", str(path), fx("cech_tetra_valid.json")])
    assert (code, out) == (2, "")
    assert err == 'error: %s: "vertices" lists vertex 4 twice\n' % path


def test_fatgraph_normalize_unwritable_output_exits_2(capsys, tmp_path):
    out_path = tmp_path / "missing_dir" / "x.json"
    code, out, err = outcome(capsys, ["fatgraph", "normalize", fx("fatgraph_g1s1.json"),
                                      fx("connection_g1s1_random.json"), "-o", str(out_path)])
    assert (code, out) == (2, "")
    assert err == "error: %s: No such file or directory\n" % out_path


def test_cech_verify_nerve_wrong_type_exits_2(capsys, tmp_path):
    nerve = json.loads(pathlib.Path(fx("nerve_triangle.json")).read_text())
    nerve["vertices"] = 5
    path = tmp_path / "int_vertices.json"
    path.write_text(json.dumps(nerve))
    code = main(["cech-verify", str(path), fx("cech_tetra_valid.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "int_vertices.json" in err and "wrongly typed" in err


def test_hitchin_residual_fixture(capsys):
    code, out = run(capsys, "hitchin-residual", fx("metric_example.json"),
                    fx("higgs_example.json"))
    assert code == 0


def test_hitchin_residual_corrupt_metric(capsys):
    code, out = run(capsys, "--format", "json", "hitchin-residual",
                    fx("metric_example_corrupt.json"), fx("higgs_example.json"))
    assert code == 1
    payload = json.loads(out)
    failing = {c["name"]: c["residual"] for c in payload["checks"] if not c["passed"]}
    assert "residual[0][0]" in failing
    assert failing["residual[0][0]"] >= 0.5


def test_fatgraph_normalize_and_output(capsys, tmp_path):
    out_path = tmp_path / "normalized.json"
    code, _ = run(capsys, "fatgraph", "normalize", fx("fatgraph_g1s1.json"),
                  fx("connection_g1s1_random.json"), "-o", str(out_path))
    assert code == 0
    code, _ = run(capsys, "fatgraph", "normalize", fx("fatgraph_g1s1.json"),
                  str(out_path))
    assert code == 0


def test_fatgraph_holonomy(capsys):
    code, out = run(capsys, "--format", "json", "fatgraph", "holonomy",
                    fx("fatgraph_g1s1.json"), fx("connection_g1s1_flat.json"),
                    "--cycle", "0+,0-")
    assert code == 0
    payload = json.loads(out)
    hol = payload["info"]["holonomy"]
    assert hol["a"]["terms"] == [{"mono": [], "re": 1.0, "im": 0.0}]


def test_fatgraph_check_punctures(capsys):
    code, _ = run(capsys, "fatgraph", "check-punctures", fx("fatgraph_g1s1.json"),
                  fx("connection_g1s1_flat.json"))
    assert code == 0
    code, _ = run(capsys, "fatgraph", "check-punctures", fx("fatgraph_g1s1.json"),
                  fx("connection_g1s1_random.json"))
    assert code == 1


def test_fatgraph_dims(capsys):
    code, out = run(capsys, "--format", "json", "fatgraph", "dims",
                    "--genus", "1", "--punctures", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["info"]["even"] == 3 and payload["info"]["odd"] == 4


def test_fatgraph_dims_constrained_su(capsys):
    code, out = run(capsys, "--format", "json", "fatgraph", "dims",
                    "--genus", "2", "--punctures", "1", "--constrained", "--su")
    assert code == 0
    payload = json.loads(out)
    assert payload["info"]["even"] == 4 and payload["info"]["odd"] == 4


@pytest.mark.parametrize("genus, punctures, flags", [(-1, 5, []), (-3, 9, ["--constrained"])])
def test_fatgraph_dims_refuses_a_negative_genus(capsys, genus, punctures, flags):
    # 2g - 2 + s > 0 holds for both, and the closed forms would give -6 and -12
    code, out, err = outcome(capsys, ["fatgraph", "dims", "--genus", str(genus),
                                      "--punctures", str(punctures)] + flags)
    assert (code, out) == (2, "")
    assert err == ("error: need g >= 0, s >= 1 and 2g - 2 + s > 0, got (g, s) = (%d, %d)\n"
                   % (genus, punctures))


def test_fatgraph_holonomy_bad_cycle(capsys):
    with pytest.raises(SystemExit):
        run(capsys, "fatgraph", "holonomy", fx("fatgraph_g1s1.json"),
            fx("connection_g1s1_flat.json"), "--cycle", "0*")


def test_garnier_check(capsys):
    code, _ = run(capsys, "garnier-check", "--m", "3", "--count", "5")
    assert code == 0
    code, _ = run(capsys, "garnier-check", "--system", fx("gaudin_m3.json"))
    assert code == 0


def test_gaudin_commute(capsys):
    code, out = run(capsys, "--format", "json", "gaudin-commute", "--m", "6")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "commutator[0,1]" in names
    code, _ = run(capsys, "gaudin-commute", "--system", fx("gaudin_m3.json"))
    assert code == 0


def test_quantize_compare(capsys):
    code, _ = run(capsys, "quantize-compare", "--m", "3")
    assert code == 0
    code, _ = run(capsys, "quantize-compare", "--system", fx("gaudin_m3.json"),
                  "--hbar", "0.5")
    assert code == 0


def outcome(capsys, argv):
    """(exit status, stdout, stderr) of one in-process call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def outcome_alone(capsys, argv):
    """The outcome of argv as the first call of a process."""
    cli._parser.cache_clear()
    return outcome(capsys, argv)


PLAIN = ["group-selftest", "--count", "2"]


@pytest.mark.parametrize("first, second", [
    (["group-selftest", "--count", "2", "--corrupt"], PLAIN),
    (["--format", "json", "group-selftest", "--count", "2"], PLAIN),
    # plain residuals print as 0: the JSON of a corrupt run shows seed and tol
    (["--seed", "5", "--tol", "1e-30", "group-selftest", "--count", "2"],
     ["--format", "json"] + PLAIN + ["--corrupt"]),
    (["group-selftest", "--count", "two"], PLAIN),
    (PLAIN, ["--format", "json", "--seed", "5", "group-selftest", "--count", "2",
             "--corrupt"]),
])
def test_reused_parser_leaks_no_state(capsys, first, second):
    expected = [outcome_alone(capsys, argv) for argv in (first, second)]
    cli._parser.cache_clear()
    assert [outcome(capsys, first), outcome(capsys, second)] == expected


def test_usage_error_then_valid_call(capsys):
    code, _, err = outcome(capsys, ["group-selftest", "--count", "two"])
    assert code == 2
    assert "invalid int value" in err
    code, out, _ = outcome(capsys, PLAIN)
    assert code == 0
    assert "status: pass" in out


def test_parser_built_once_per_process(capsys, count_calls):
    built = count_calls(cli, "build_parser")
    cli._parser.cache_clear()
    try:
        for argv in (PLAIN, ["--format", "json"] + PLAIN, ["fatgraph", "dims", "--genus",
                                                           "1", "--punctures", "1"]):
            outcome(capsys, argv)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_cech_verify_odd_term_in_h_names_file_edge_and_field(capsys, tmp_path):
    data = json.loads(pathlib.Path(fx("cech_tetra_valid.json")).read_text())
    data["edges"][0]["h"]["terms"].append({"mono": [3], "re": 1.0, "im": 0.0})
    path = tmp_path / "odd_h.json"
    path.write_text(json.dumps(data))
    code = main(["cech-verify", fx("nerve_tetrahedron_boundary.json"), str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "odd_h.json: edge (1, 2): h must be even" in err


def test_hitchin_residual_odd_term_in_u_names_file_and_field(capsys, tmp_path):
    metric = json.loads(pathlib.Path(fx("metric_example.json")).read_text())
    metric["u"]["terms"][0]["coeff"]["terms"].append({"mono": [3], "re": 1.0, "im": 0.0})
    path = tmp_path / "odd_u.json"
    path.write_text(json.dumps(metric))
    code = main(["hitchin-residual", str(path), fx("higgs_example.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "odd_u.json: u must be even" in err


@pytest.mark.parametrize("field, value", [("z", 1.5), ("zbar", "0"), ("n", 8.9),
                                          ("n", "8"), ("mono", 1.7), ("mono", True)])
def test_hitchin_residual_non_integer_field_exits_2(capsys, tmp_path, field, value):
    metric = json.loads(pathlib.Path(fx("metric_example.json")).read_text())
    term = metric["rho"]["terms"][0]
    if field in ("z", "zbar"):
        term[field] = value
    elif field == "n":
        term["coeff"]["n"] = value
    else:
        term["coeff"]["terms"][0]["mono"] = [value]
    path = tmp_path / ("bad_%s.json" % field)
    path.write_text(json.dumps(metric))
    code = main(["hitchin-residual", str(path), fx("higgs_example.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert 'bad_%s.json: rho: "%s" holds %r, not an integer' % (field, field, value) in err


def test_hitchin_residual_generator_count_names_field_and_term(capsys, tmp_path):
    higgs = json.loads(pathlib.Path(fx("higgs_example.json")).read_text())
    higgs["delta"]["terms"].append({"z": 0, "zbar": 0,
                                    "coeff": GrassmannElement.generator(4, 1).to_dict()})
    path = tmp_path / "short_delta.json"
    path.write_text(json.dumps(higgs))
    code = main(["hitchin-residual", fx("metric_example.json"), str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert ('short_delta.json: delta: term z^0 zbar^0: coefficient has 4 generators, '
            '"n" is 8') in err


@pytest.mark.parametrize("target, check", [
    ("garnier_hamiltonian_expanded", "two_routes_agree"),
    ("poisson_bracket", "poisson_commutativity"),
    ("garnier_hamiltonian_expanded", "hamiltonians_sum_to_zero"),
])
def test_garnier_check_folds_keep_nan(capsys, monkeypatch, target, check):
    real = getattr(integrable, target)
    calls = []

    def poisoned(*args, **kw):
        # the first call for the second system returns NaN, so each fold meets
        # it after a finite value, where the builtin max would keep the latter
        out = real(*args, **kw)
        calls.append(1)
        return out + GrassmannElement.scalar(out.n, math.nan) if len(calls) == 4 else out

    monkeypatch.setattr(integrable, target, poisoned)
    code, out = run(capsys, "--format", "json", "garnier-check", "--m", "3", "--count", "2")
    assert code == 1
    residuals = {c["name"]: c["residual"] for c in json.loads(out)["checks"]}
    assert math.isnan(residuals[check])


@pytest.mark.parametrize("command", ["group-selftest", "garnier-check"])
@pytest.mark.parametrize("count", ["0", "-5"])
def test_count_below_one_exits_2(capsys, command, count):
    # a suite that evaluated nothing must not pass
    code, out, err = outcome(capsys, [command, "--count", count])
    assert code == 2
    assert out == ""
    assert "argument --count: must be at least 1, got %s" % count in err


def gaudin_report(capsys, *argv):
    code, out, err = outcome(capsys, ["--format", "json", "gaudin-commute", *argv])
    assert err == ""
    return code, json.loads(out)


def test_gaudin_commute_beyond_dense_cap(capsys):
    code, payload = gaudin_report(capsys, "--m", "12")
    assert code == 0
    commutators = [c for c in payload["checks"] if c["name"].startswith("commutator[")]
    assert len(commutators) == 66
    assert all(c["passed"] for c in payload["checks"])
    assert payload["info"]["m"] == 12


def test_gaudin_commute_site_limits_exit_2(capsys):
    for m, message in (("1", "argument --m: must be a site count in 2..32"),
                       ("17", "stops at m = 16")):
        code, out, err = outcome(capsys, ["gaudin-commute", "--m", m])
        assert code == 2
        assert message in err


def test_gaudin_commute_forms_no_dense_matrix(capsys, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("a dense 2^m x 2^m matrix was requested")

    for name in ("gaudin_hamiltonian", "gaudin_generators", "theta_matrix",
                 "deriv_matrix", "number_matrix", "quantize_observable"):
        monkeypatch.setattr(integrable, name, refuse)
    code, payload = gaudin_report(capsys, "--m", "6")
    assert code == 0


@pytest.mark.parametrize("part", ["matrix", "constant"])
def test_gaudin_commute_perturbed_one_body_fails(capsys, monkeypatch, part):
    real = integrable.one_body

    def perturbed(p, i, hbar=1.0):
        c, a = real(p, i, hbar)
        if i == 2 and part == "constant":
            c += 1e-3
        elif i == 2:
            a = a.copy()
            a[0, 1] += 1e-3
        return c, a

    monkeypatch.setattr(integrable, "one_body", perturbed)
    code, payload = gaudin_report(capsys, "--m", "5")
    assert code == 1
    failing = {c["name"] for c in payload["checks"] if not c["passed"]}
    expected = {"sum_zero"}
    if part == "matrix":
        # theta E d added to H_2 breaks exactly the commutators with H_2
        expected |= {"commutator[%d,%d]" % (min(2, j), max(2, j)) for j in (0, 1, 3, 4)}
    assert failing == expected


def test_gaudin_commute_sees_a_hop_that_moves_fermion_number(capsys, monkeypatch):
    real = integrable.one_body_terms

    def moved(c, a):
        diag, rows, cols, forward, backward = real(c, a)
        # filling site 0 on top of the first pair's hops changes the fermion
        # number of its rows
        rows = rows.copy()
        rows[0] ^= 1
        return diag, rows, cols, forward, backward

    monkeypatch.setattr(integrable, "one_body_terms", moved)
    code, payload = gaudin_report(capsys, "--m", "4")
    assert code == 1
    failing = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert failing == ["fermion_number_conserved"]


def test_gaudin_commute_sees_a_backward_hop_that_moves_fermion_number(capsys, monkeypatch):
    real = integrable.one_body_terms

    def moved(c, a):
        diag, rows, cols, forward, backward = real(c, a)
        # as above, with the first pair's forward hop emptied: only theta_hi d_lo,
        # read at (cols, rows), moves a fermion
        rows, forward = rows.copy(), forward.copy()
        rows[0] ^= 1
        forward[0] = 0
        return diag, rows, cols, forward, backward

    monkeypatch.setattr(integrable, "one_body_terms", moved)
    code, payload = gaudin_report(capsys, "--m", "4")
    assert code == 1
    failing = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert failing == ["fermion_number_conserved"]


@pytest.mark.parametrize("zero_v", [[1], [0, 1, 2]], ids=["one_site", "all_sites"])
def test_gaudin_commute_on_a_system_with_zero_weights_v(capsys, tmp_path, zero_v):
    # v_k = 0 leaves the pairs {i, k} one hop each; with every v = 0 no H_i hops
    def change(data):
        for k in zero_v:
            data["sites"][k]["v"] = [0.0, 0.0]

    path = rewritten(tmp_path, "system.json", "gaudin_m3.json", change)
    code, payload = gaudin_report(capsys, "--system", path)
    assert code == 0
    residuals = {c["name"]: c["residual"] for c in payload["checks"]}
    assert sorted(residuals) == ["commutator[0,1]", "commutator[0,2]", "commutator[1,2]",
                                 "fermion_number_conserved", "sum_zero"]
    assert residuals["fermion_number_conserved"] == 0.0
    if len(zero_v) == 3:
        assert set(residuals.values()) == {0.0}


def test_cech_verify_generator_count_mismatch_names_file_edge_and_field(capsys, tmp_path):
    data = json.loads(pathlib.Path(fx("cech_tetra_valid.json")).read_text())
    data["n"] = 4
    path = tmp_path / "wrong_n.json"
    path.write_text(json.dumps(data))
    code, out, err = outcome(capsys, ["cech-verify", fx("nerve_tetrahedron_boundary.json"),
                                      str(path)])
    assert code == 2
    assert out == ""
    assert 'wrong_n.json: edge (1, 2): h has 8 generators, "n" is 4' in err


def test_cech_verify_reversed_triangle_exits_2(capsys, tmp_path):
    data = json.loads(pathlib.Path(fx("cech_tetra_valid.json")).read_text())
    data["triangles"][0]["simplex"] = [2, 1, 3]
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(data))
    code, out, err = outcome(capsys, ["cech-verify", fx("nerve_tetrahedron_boundary.json"),
                                      str(path)])
    assert code == 2
    assert "reversed.json: triangle (2, 1, 3): reverses the listed orientation (1, 2, 3)" in err


def quantize_report(capsys, *argv):
    code, out, err = outcome(capsys, ["--format", "json", "quantize-compare", *argv])
    assert err == ""
    return code, json.loads(out)


def test_quantize_compare_beyond_dense_cap(capsys):
    code, payload = quantize_report(capsys, "--m", "12")
    assert code == 0
    assert [c["name"] for c in payload["checks"]] == sorted(
        "quantize_matches_gaudin[%d]" % i for i in range(12))
    assert all(c["passed"] and c["residual"] <= 1e-13 for c in payload["checks"])
    assert payload["info"]["m"] == 12


def test_quantize_compare_runs_to_the_grassmann_limit(capsys):
    code, payload = quantize_report(capsys, "--m", "32")
    assert code == 0
    assert len(payload["checks"]) == 32
    code, out, err = outcome(capsys, ["quantize-compare", "--m", "33"])
    assert code == 2
    assert out == ""
    assert "argument --m: must be a site count in 2..32" in err


def test_quantize_compare_forms_no_dense_matrix(capsys, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("a 2^m-state operator was requested")

    for name in ("gaudin_hamiltonian", "theta_matrix", "deriv_matrix",
                 "quantize_observable", "one_body_terms"):
        monkeypatch.setattr(integrable, name, refuse)
    code, payload = quantize_report(capsys, "--m", "6", "--hbar", "0.7")
    assert code == 0


@pytest.mark.parametrize("part", ["matrix", "constant"])
def test_quantize_compare_perturbed_one_body_fails(capsys, monkeypatch, part):
    real = integrable.one_body

    def perturbed(p, i, hbar=1.0):
        c, a = real(p, i, hbar)
        if i == 2 and part == "constant":
            c += 1e-3
        elif i == 2:
            a = a.copy()
            a[3, 1] += 1e-3
        return c, a

    monkeypatch.setattr(integrable, "one_body", perturbed)
    code, payload = quantize_report(capsys, "--m", "5")
    assert code == 1
    failing = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert failing == ["quantize_matches_gaudin[2]"]


def check_polynomial_solution(capsys, tmp_path, degree):
    # building blocks of the given degree on all eight generators; at degree 8
    # eta and phi have degree 9 and intermediate products go far beyond it
    n = 8
    rng = np.random.default_rng(4)

    def poly(draw, var):
        return hitchin.LocalFunction(n, {(p, 0) if var == "z" else (0, p):
                                         draw(rng, n, num_terms=3, scale=0.5)
                                         for p in range(degree + 1)})

    rho_h, rho_a = poly(random_odd, "z"), poly(random_odd, "zbar")
    v_h, v_a = poly(random_even, "z"), poly(random_even, "zbar")
    delta, gamma, a = poly(random_odd, "z"), poly(random_odd, "z"), poly(random_even, "z")
    metric = hitchin.hitchin_solution(rho_h, rho_a, v_h, v_a, delta, gamma,
                                      ConjugationTable.swap_halves(n))
    metric_path, higgs_path = tmp_path / "metric.json", tmp_path / "higgs.json"
    metric_path.write_text(json.dumps(metric.to_dict()))
    higgs_path.write_text(json.dumps({"n": n, "a": a.to_dict(), "delta": delta.to_dict(),
                                      "gamma": gamma.to_dict()}))
    code, out, err = outcome(capsys, ["hitchin-residual", str(metric_path), str(higgs_path)])
    assert (code, err) == (0, "")
    assert "status: pass" in out


def test_hitchin_residual_degree_4_solution(capsys, tmp_path):
    check_polynomial_solution(capsys, tmp_path, 4)


def test_hitchin_residual_degree_8_solution(capsys, tmp_path):
    check_polynomial_solution(capsys, tmp_path, 8)


def test_fatgraph_normalize_su_connection(capsys, tmp_path):
    graph = fatgraph.fixture_graph(1, 1)
    conn = fatgraph.random_connection(np.random.default_rng(5), graph, 8,
                                      table=ConjugationTable.swap_halves(8))
    path, out_path = tmp_path / "su.json", tmp_path / "su_normalized.json"
    path.write_text(json.dumps(fatgraph.connection_to_dict(conn)))
    code, out, err = outcome(capsys, ["fatgraph", "normalize", fx("fatgraph_g1s1.json"),
                                      str(path), "-o", str(out_path)])
    assert (code, err) == (0, "")
    normalized = json.loads(out_path.read_text())
    assert normalized["mode"] == "su" and "conjugation" in normalized
    code, out, err = outcome(capsys, ["fatgraph", "holonomy", fx("fatgraph_g1s1.json"),
                                      str(out_path), "--cycle", "0+,0-"])
    assert (code, err) == (0, "")


def test_fatgraph_normalize_checks_reality_once_on_the_parsed_su_connection(
        capsys, monkeypatch, count_calls):
    # each gauge move keeps reality by construction, so only the parse checks it
    # (the moves re-checked it: 3 calls); the checked constructor still accepts the result
    checks = count_calls(fatgraph.GraphConnection, "check_reality")
    normalized = []
    real = fatgraph.gauge_normalize

    def normalize(conn, tol=1e-9):
        out = real(conn, tol)
        normalized.append(out[0])
        return out

    monkeypatch.setattr(fatgraph, "gauge_normalize", normalize)
    code, _, err = outcome(capsys, ["fatgraph", "normalize", fx("fatgraph_g1s1.json"),
                                    fx("connection_g1s1_su.json")])
    assert (code, err, len(checks)) == (0, "", 1)
    (out,) = normalized
    assert out.mode == "su" and all(c.is_sl() for c in out.coords)
    assert fatgraph.GraphConnection(out.graph, out.coords, out.table).check_reality().ok


G1S1_FACE = ",".join("%d%s" % (e, "+" if forward else "-") for e, forward in
                     fatgraph.FatGraph.from_dict(json.loads(
                         (FIXTURES / "fatgraph_g1s1.json").read_text())).boundary_cycles()[0])


@pytest.mark.parametrize("cycle, step, edge", [("-1+", 0, -1), ("9+", 0, 9),
                                               ("0+,0-,3-", 2, 3)])
def test_fatgraph_holonomy_unknown_edge_exits_2(capsys, cycle, step, edge):
    # a negative index must not wrap around to the last edge
    code, out, err = outcome(capsys, ["fatgraph", "holonomy", fx("fatgraph_g1s1.json"),
                                      fx("connection_g1s1_flat.json"), "--cycle=" + cycle])
    assert (code, out) == (2, "")
    assert "cycle step %d: edge %d is not in 0..2" % (step, edge) in err


@pytest.mark.parametrize("cycle", ["", ",", " , "])
def test_fatgraph_holonomy_of_a_cycle_with_no_step_exits_2(capsys, cycle):
    # an empty cycle would print the identity holonomy and pass
    code, out, err = outcome(capsys, ["fatgraph", "holonomy", fx("fatgraph_g1s1.json"),
                                      fx("connection_g1s1_random.json"), "--cycle=" + cycle])
    assert (code, out) == (2, "")
    assert "argument --cycle: %r names no step" % cycle in err


def connection_with(tmp_path, change):
    data = json.loads((FIXTURES / "connection_g1s1_flat.json").read_text())
    change(data["edges"])
    path = tmp_path / "connection.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("change, message", [
    (lambda edges: edges[0].update(edge=7),
     "edges[0]: \"edge\" must be an edge index in 0..2, got 7"),
    (lambda edges: edges[2].update(edge=-1),
     "edges[2]: \"edge\" must be an edge index in 0..2, got -1"),
    (lambda edges: edges[1].update(edge="1"),
     "edges[1]: \"edge\" must be an edge index in 0..2, got '1'"),
    (lambda edges: edges[1].update(edge=True),
     "edges[1]: \"edge\" must be an edge index in 0..2, got True"),
    (lambda edges: edges[2].update(edge=0), "edges[2]: \"edge\" 0 is listed twice"),
])
@pytest.mark.parametrize("command", ["check-punctures", "normalize"])
def test_connection_edge_index_names_file_and_field(capsys, tmp_path, change, message,
                                                    command):
    path = connection_with(tmp_path, change)
    code, out, err = outcome(capsys, ["fatgraph", command, fx("fatgraph_g1s1.json"), path])
    assert (code, out) == (2, "")
    assert err == "error: %s: %s\n" % (path, message)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "1e-9x"])
def test_invalid_tolerance_exits_2(capsys, tol):
    # an invalid tolerance is a usage error, not a failed check
    code, out, err = outcome(capsys, ["--tol", tol, "fatgraph", "check-punctures",
                                      fx("fatgraph_g1s1.json"), fx("connection_g1s1_flat.json")])
    assert (code, out) == (2, "")
    assert "argument --tol:" in err


@pytest.mark.parametrize("m", ["0", "1", "33"])
@pytest.mark.parametrize("command", ["garnier-check", "gaudin-commute", "quantize-compare"])
def test_site_count_outside_2_to_32_exits_2(capsys, command, m):
    # 2m generators must fit in 64, and a Garnier or Gaudin system needs two sites
    code, out, err = outcome(capsys, [command, "--m", m])
    assert (code, out) == (2, "")
    assert "argument --m: must be a site count in 2..32, so that the 2m generators " \
        "fit in 64, got %s" % m in err


@pytest.mark.parametrize("seed", ["-1", "-7", "1.5", "x"])
@pytest.mark.parametrize("command", ["group-selftest", "garnier-check", "gaudin-commute",
                                     "quantize-compare"])
def test_invalid_seed_exits_2_naming_the_flag(capsys, command, seed):
    # numpy's default_rng refuses a negative seed with a message naming no flag
    code, out, err = outcome(capsys, ["--seed", seed, command])
    assert (code, out) == (2, "")
    message = ("must be a non-negative int, got %s" % seed if seed.startswith("-")
               else "invalid int value: %r" % seed)
    assert "argument --seed: %s" % message in err


@pytest.mark.parametrize("command", ["group-selftest --count 2", "garnier-check --count 2",
                                     "gaudin-commute", "quantize-compare"])
def test_a_seed_beyond_64_bits_runs(capsys, command):
    code, _, err = outcome(capsys, ["--seed", str(2 ** 64)] + command.split())
    assert (code, err) == (0, "")


@pytest.mark.parametrize("hbar", ["0", "nan", "inf", "-inf", "0x"])
@pytest.mark.parametrize("command", ["gaudin-commute", "quantize-compare"])
def test_invalid_hbar_exits_2(capsys, command, hbar):
    # at hbar 0 both sides of every quantum check vanish: a usage error, not a pass
    code, out, err = outcome(capsys, [command, "--hbar=" + hbar])
    assert (code, out) == (2, "")
    assert "argument --hbar:" in err


def check_punctures(capsys, tol):
    """(exit status, checks) of check-punctures on the shipped random connection."""
    code, out, _ = outcome(capsys, ["--format", "json", "--tol", tol, "fatgraph",
                                    "check-punctures", fx("fatgraph_g1s1.json"),
                                    fx("connection_g1s1_random.json")])
    return code, json.loads(out)["checks"]


@pytest.mark.parametrize("tol", ["0", "1e-12", "reported"])
def test_valid_tolerance_is_used(capsys, tol):
    # "reported" is the worst residual the command reports at --tol 0: the data
    # pass at exactly that tol and fail just below it, whatever the fixture holds
    passing = tol == "reported"
    if passing:
        worst = max(c["residual"] for c in check_punctures(capsys, "0")[1])
        assert worst > 1e-12
        assert check_punctures(capsys, repr(math.nextafter(worst, 0.0)))[0] == 1
        tol = repr(worst)
    code, checks = check_punctures(capsys, tol)
    assert {c["tol"] for c in checks} == {float(tol)}
    assert code == (0 if passing else 1)


def test_fatgraph_commands_form_no_supermatrix_product(capsys, monkeypatch):
    # holonomies fold edge coordinates by the group law; no 2x2 product is formed
    def product(self, other):
        raise AssertionError("SuperMatrix11 product formed")

    monkeypatch.setattr(supergroup.SuperMatrix11, "__mul__", product)
    for connection, status in (("connection_g1s1_flat.json", 0),
                               ("connection_g1s1_random.json", 1)):
        code, _, err = outcome(capsys, ["fatgraph", "holonomy", fx("fatgraph_g1s1.json"),
                                        fx(connection), "--cycle", G1S1_FACE])
        assert (code, err) == (0, "")
        code, _, err = outcome(capsys, ["fatgraph", "check-punctures",
                                        fx("fatgraph_g1s1.json"), fx(connection)])
        assert (code, err) == (status, "")


def test_python_m_gl11_runs_the_cli(fresh_python):
    done = fresh_python("-m", "gl11", "fatgraph", "check-punctures",
                        fx("fatgraph_g1s1.json"), fx("connection_g1s1_random.json"))
    assert done.returncode == 1
    assert done.stdout.startswith("== fatgraph-check-punctures ==")
    assert done.stdout.rstrip().endswith("status: FAIL")


# every gl11 module the command ran, then every gl11 module registered; a module
# still waiting for its first attribute read is not of type ModuleType itself
LOADED_MODULES = """
import sys, types
from gl11.cli import main
if sys.argv[1:]:
    try:
        main(sys.argv[1:])
    except SystemExit:  # --help
        pass
gl11 = sorted(name for name in sys.modules if name.split(".")[0] == "gl11")
print(" ".join(name for name in gl11 if type(sys.modules[name]) is types.ModuleType))
print(" ".join(gl11))
"""
EAGER = ["gl11", "gl11.cli", "gl11.grassmann", "gl11.reports", "gl11.supergroup"]
LAZY = ["gl11.cech", "gl11.fatgraph", "gl11.hitchin", "gl11.integrable"]

# name -> (argv, the modules beyond EAGER that it runs)
COMMAND_MODULES = {
    "import": ([], []),
    "help": (["--help"], []),
    "group-selftest": (["group-selftest", "--count", "1"], []),
    "cech-verify": (["cech-verify", fx("nerve_tetrahedron.json"),
                     fx("cech_tetra_valid.json")], ["cech"]),
    "hitchin-residual": (["hitchin-residual", fx("metric_example.json"),
                          fx("higgs_example.json")], ["hitchin"]),
    "fatgraph-normalize": (["fatgraph", "normalize", fx("fatgraph_g1s1.json"),
                            fx("connection_g1s1_random.json")], ["cech", "fatgraph"]),
    "fatgraph-holonomy": (["fatgraph", "holonomy", fx("fatgraph_g1s1.json"),
                           fx("connection_g1s1_flat.json"), "--cycle", G1S1_FACE],
                          ["cech", "fatgraph"]),
    "fatgraph-check-punctures": (["fatgraph", "check-punctures", fx("fatgraph_g1s1.json"),
                                  fx("connection_g1s1_flat.json")], ["cech", "fatgraph"]),
    "fatgraph-dims": (["fatgraph", "dims", "--genus", "1", "--punctures", "1"],
                      ["cech", "fatgraph"]),
    "garnier-check": (["garnier-check", "--m", "2", "--count", "1"], ["integrable"]),
    "gaudin-commute": (["gaudin-commute", "--m", "2"], ["integrable"]),
    "quantize-compare": (["quantize-compare", "--system", fx("gaudin_m3.json")],
                         ["integrable"]),
}


@pytest.mark.parametrize("name", COMMAND_MODULES)
def test_a_command_runs_only_the_modules_it_reads(fresh_python, name):
    argv, runs = COMMAND_MODULES[name]
    done = fresh_python("-c", LOADED_MODULES, *argv)
    assert done.returncode == 0, done.stderr
    ran, registered = [line.split() for line in done.stdout.splitlines()[-2:]]
    assert ran == sorted(EAGER + ["gl11." + module for module in runs])
    # the others are registered all the same, as an import leaves them
    assert registered == sorted(EAGER + LAZY)


def cech_verify_with_s_body(fresh_python, tmp_path, edge, real):
    """cech-verify in a subprocess on cech_tetra_valid.json with the real part
    of the body of s on the given edge replaced."""
    data = json.loads((FIXTURES / "cech_tetra_valid.json").read_text())
    (body,) = [term for term in data["edges"][edge]["s"]["terms"] if term["mono"] == []]
    body["re"] = real
    path = tmp_path / "cech_overflow.json"
    path.write_text(json.dumps(data))
    return fresh_python("-m", "gl11", "cech-verify", fx("nerve_tetrahedron.json"), str(path))


def test_cech_verify_exp_overflow_exits_2_without_a_traceback(fresh_python, tmp_path):
    # e^1000 overflows a float: a usage error naming the file, the edge and the
    # real part, not a crash
    done = cech_verify_with_s_body(fresh_python, tmp_path, 0, 1000)
    assert done.returncode == 2
    assert done.stderr == ("error: %s: edge (1, 2): exp overflows: the body has real "
                           "part 1000.0\n" % (tmp_path / "cech_overflow.json"))
    assert done.stdout == ""


def test_cech_verify_overflow_of_e_to_the_minus_s_exits_2(fresh_python, tmp_path):
    # the check never inverts edge (3, 4), yet the reader forms e^{+-s} of every
    # listed edge, so e^{800} of its reversed orientation overflows in the same way
    done = cech_verify_with_s_body(fresh_python, tmp_path, 5, -800)
    assert done.returncode == 2
    assert done.stderr == ("error: %s: edge (3, 4): exp overflows: the body has real "
                           "part 800.0\n" % (tmp_path / "cech_overflow.json"))
    assert done.stdout == ""


@pytest.mark.parametrize("count", [1, 3])
def test_group_selftest_calls_to_coords_once_per_round(capsys, count_calls, count):
    calls = count_calls(supergroup, "to_coords")
    code, _ = run(capsys, "group-selftest", "--count", str(count))
    assert code == 0
    assert len(calls) == count


@pytest.mark.parametrize("half_edge", [9, -1])
def test_fatgraph_half_edge_out_of_range_names_file(capsys, tmp_path, half_edge):
    # -1 must not wrap around to the last half-edge
    data = json.loads((FIXTURES / "fatgraph_g1s1.json").read_text())
    data["cyclic_orders"][1][2] = half_edge
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code, out, err = outcome(capsys, ["fatgraph", "check-punctures", str(path),
                                      fx("connection_g1s1_flat.json")])
    assert (code, out) == (2, "")
    assert err == ('error: %s: "cyclic_orders": vertex [1, 3, %d]: half-edge %d is not in 0..5\n'
                   % (path, half_edge, half_edge))


def graph_error(capsys, tmp_path, change):
    """(exit code, stderr) of check-punctures on fatgraph_g1s1.json with change applied."""
    data = json.loads((FIXTURES / "fatgraph_g1s1.json").read_text())
    change(data)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code, out, err = outcome(capsys, ["fatgraph", "check-punctures", str(path),
                                      fx("connection_g1s1_flat.json")])
    assert out == ""
    return code, err.replace(str(path), "<file>")


def test_fatgraph_not_trivalent_names_cyclic_orders(capsys, tmp_path):
    def change(data):
        data["cyclic_orders"][0] = [0, 2]

    assert graph_error(capsys, tmp_path, change) == (
        2, 'error: <file>: "cyclic_orders": vertex [0, 2] is not trivalent\n')


@pytest.mark.parametrize("key, change, problem", [
    ("pairing", lambda data: data["pairing"].reverse(),
     "not a fixed-point-free involution at 2"),
    ("cyclic_orders", lambda data: data["cyclic_orders"][1].__setitem__(
        0, data["cyclic_orders"][0][0]), "half-edge 0 assigned to two vertices"),
    ("orientation", lambda data: data["orientation"].append(0),
     "needs one tail half-edge per edge"),
])
def test_fatgraph_errors_name_their_key(capsys, tmp_path, key, change, problem):
    assert graph_error(capsys, tmp_path, change) == (
        2, 'error: <file>: "%s": %s\n' % (key, problem))


@pytest.mark.parametrize("command", [["normalize"], ["holonomy", "--cycle", "0+"],
                                     ["check-punctures"]])
def test_fatgraph_with_no_vertex_names_cyclic_orders(capsys, tmp_path, command):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"pairing": [], "cyclic_orders": []}))
    argv = ["fatgraph", command[0], str(path), fx("connection_g1s1_flat.json")] + command[1:]
    code, out, err = outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert err == ('error: %s: "cyclic_orders": a fatgraph needs at least one vertex\n'
                   % path)


# -- integer "n" fields and repeated terms ----------------------------------------

def rewritten(tmp_path, name, fixture, change):
    """A copy of a shipped fixture with change(data) applied, written to tmp_path."""
    data = json.loads(pathlib.Path(fx(fixture)).read_text())
    change(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def set_n(value):
    return lambda data: data.__setitem__("n", value)


def test_hitchin_residual_float_n_exits_2(capsys, tmp_path):
    path = rewritten(tmp_path, "float_n.json", "metric_example.json", set_n(8.9))
    code = main(["hitchin-residual", path, fx("higgs_example.json")])
    assert code == 2
    assert 'float_n.json: "n" holds 8.9, not an integer' in capsys.readouterr().err


def test_cech_verify_float_n_exits_2(capsys, tmp_path):
    path = rewritten(tmp_path, "float_n.json", "cech_tetra_valid.json", set_n(8.5))
    code = main(["cech-verify", fx("nerve_tetrahedron.json"), path])
    assert code == 2
    assert 'float_n.json: "n" holds 8.5, not an integer' in capsys.readouterr().err


def test_cech_verify_float_triangle_n_exits_2(capsys, tmp_path):
    def change(data):
        data["triangles"][0]["n"] = 1.0

    path = rewritten(tmp_path, "float_triangle.json", "cech_tetra_valid.json", change)
    code = main(["cech-verify", fx("nerve_tetrahedron.json"), path])
    assert code == 2
    assert ('float_triangle.json: triangle (1, 2, 3): "n" holds 1.0, not an integer'
            in capsys.readouterr().err)


def test_fatgraph_holonomy_float_n_exits_2(capsys, tmp_path):
    path = rewritten(tmp_path, "float_n.json", "connection_g1s1_random.json", set_n(8.0))
    code = main(["fatgraph", "holonomy", fx("fatgraph_g1s1.json"), path, "--cycle", "0+"])
    assert code == 2
    assert 'float_n.json: "n" holds 8.0, not an integer' in capsys.readouterr().err


def test_hitchin_residual_repeated_term_names_the_term(capsys, tmp_path):
    def change(higgs):
        # z^1 listed twice, the second time on 4 generators
        higgs["delta"]["terms"].append({"z": 1, "zbar": 0,
                                        "coeff": GrassmannElement.generator(4, 1).to_dict()})

    path = rewritten(tmp_path, "repeated_delta.json", "higgs_example.json", change)
    code = main(["hitchin-residual", fx("metric_example.json"), path])
    assert code == 2
    assert ('repeated_delta.json: delta: term z^1 zbar^0: coefficient has 4 generators, '
            '"n" is 8') in capsys.readouterr().err


# -- the JSON writer on every shipped-fixture command --------------------------------

def load_report_digest():
    spec = importlib.util.spec_from_file_location(
        "report_digest",
        pathlib.Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_reports_are_json_dumps_bytes(capsys, tmp_path):
    commands = load_report_digest().fixture_commands(str(tmp_path))
    for command in commands:
        argv = ["--format", "json"] + command
        args = cli.build_parser().parse_args(argv)
        report = cli.RunReport(cli.command_name(args), args.func(args))
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True,
                              default=GrassmannElement.to_dict)
        main(argv)
        assert capsys.readouterr().out == expected + "\n", command
    written = (tmp_path / "normalized.json").read_text()
    assert written == json.dumps(json.loads(written), indent=2, sort_keys=True)


# -- each derived value formed once, by its owner ------------------------------------

def counted_calls(count_calls, names):
    """The calls of each named method ("Class.name", the class as gl11.hitchin
    binds it) or module function, the function counted under every gl11 module
    name that binds it (the kernel's names have one binding, in grassmann)."""
    calls = {}
    for name in names:
        owner, _, attr = name.rpartition(".")
        if owner:
            targets = [getattr(hitchin, owner)]
        else:
            real = getattr(grassmann, attr, None) or getattr(supergroup, attr)
            targets = [module for module in (grassmann, supergroup, hitchin, cech)
                       if getattr(module, attr, None) is real]
        calls[name] = []
        for target in targets:
            count_calls(target, attr, calls[name])
    return calls


@pytest.mark.parametrize("argv, expected", [
    # m1's a^{-1} and d^{-1} once per round, read by sdet, inverse and to_coords
    (["--seed", "1", "group-selftest", "--count", "10"],
     {"GrassmannElement.inv": 40, "nilpotent_series": 191, "_accumulate": 1242}),
    # rhobar, G, G^{-1} and the Chern form once per metric
    (["hitchin-residual", fx("metric_example.json"), fx("higgs_example.json")],
     {"LocalFunction.inv": 2, "GrassmannElement.conjugate": 4, "_accumulate": 214}),
    # g_ijk once per triangle, read by the cocycle report and by two_cocycle_g
    (["cech-verify", fx("nerve_tetrahedron.json"), fx("cech_tetra_valid.json")],
     {"quadratic_term": 4, "_accumulate": 31}),
])
def test_commands_form_each_derived_value_once(capsys, count_calls, argv, expected):
    calls = counted_calls(count_calls, list(expected))
    code, _, err = outcome(capsys, argv)
    assert (code, err) == (0, "")
    assert {name: len(made) for name, made in calls.items()} == expected


def test_hitchin_residual_builds_at_most_one_zero_per_local_function_sum(capsys, monkeypatch,
                                                                         count_calls):
    # a zero for every key of the right operand made 45 of the run's 51 zeros
    zeros = count_calls(GrassmannElement, "zero")
    per_sum = []
    real = hitchin.LocalFunction.__add__

    def add(self, other):
        before = len(zeros)
        out = real(self, other)
        per_sum.append(len(zeros) - before)
        return out

    monkeypatch.setattr(hitchin.LocalFunction, "__add__", add)
    code, _, err = outcome(capsys, ["hitchin-residual", fx("metric_example.json"),
                                    fx("higgs_example.json")])
    assert (code, err) == (0, "")
    assert len(per_sum) == 24 and max(per_sum) == 1, per_sum


@pytest.mark.parametrize("argv, most", [
    # sums, negations, souls, derivatives and conjugates build pruned maps
    # unscanned, and the group law's results and the Garnier residues skip
    # the parity checks; a scan on every element read 1,925 / 244,
    # 1,980 / 200 and 255 / 156.  What remains are the parts a file supplies:
    # 4 per listed edge (h, alpha, beta and the zero s of a connection edge)
    (["--seed", "1", "group-selftest", "--count", "10"], (1382, 0)),
    (["--seed", "1", "garnier-check", "--m", "5", "--count", "10"], (610, 0)),
    (["fatgraph", "normalize", fx("fatgraph_g1s1.json"), fx("connection_g1s1_random.json")],
     (69, 12)),
    (["fatgraph", "check-punctures", fx("fatgraph_g1s1.json"),
      fx("connection_g1s1_random.json")], (31, 12)),
    (["fatgraph", "holonomy", fx("fatgraph_g1s1.json"), fx("connection_g1s1_random.json"),
      "--cycle", "0+,1-,2+"], (29, 12)),
    (["cech-verify", fx("nerve_tetrahedron_boundary.json"), fx("cech_tetra_valid.json")],
     (81, 24)),
])
def test_commands_scan_only_what_a_producer_cannot_vouch_for(capsys, count_calls, argv, most):
    prunes = count_calls(grassmann, "_prune")
    parities = count_calls(supergroup, "require_parity")
    code, _, err = outcome(capsys, argv)
    # the random connection is not flat, so its puncture check fails
    assert (code, err) == (1 if "check-punctures" in argv else 0, "")
    assert len(prunes) <= most[0] and len(parities) <= most[1], (len(prunes), len(parities))


# -- garnier-check on its exact structure --------------------------------------------

@pytest.mark.parametrize("m", [3, 4, 5])
def test_garnier_check_forms_no_supermatrix_product(capsys, monkeypatch, m):
    # str(A_i A_j) comes from the diagonal blocks alone
    def product(self, other):
        raise AssertionError("SuperMatrix11 product formed")

    monkeypatch.setattr(supergroup.SuperMatrix11, "__mul__", product)
    code, out, err = outcome(capsys, ["garnier-check", "--m", str(m), "--count", "2"])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("m", [2, 3, 5])
def test_garnier_check_computes_each_quantity_once(capsys, count_calls, m):
    calls = {name: count_calls(owner, name) for owner, name in (
        (GrassmannElement, "derivative"), (supergroup.SuperMatrix11, "_graded"),
        (integrable, "garnier_hamiltonian"), (integrable, "garnier_hamiltonian_expanded"),
        (integrable, "poisson_bracket"))}
    code, _, err = outcome(capsys, ["garnier-check", "--m", str(m), "--count", "1"])
    assert (code, err) == (0, "")
    assert {name: len(made) for name, made in calls.items()} == {
        "derivative": 2 * m * m,     # each H_i's 2m derivatives, once
        "_graded": m,                # each residue matrix, once, unscanned
        "garnier_hamiltonian": m,
        "garnier_hamiltonian_expanded": m,
        "poisson_bracket": m * (m - 1) // 2,
    }


@pytest.mark.parametrize("m", [2, 3, 5])
def test_garnier_check_forms_one_supertrace_per_pair(capsys, count_calls, m):
    # str(A_j A_i) equals str(A_i A_j) bit for bit, so it is formed for i < j only
    pairs = count_calls(integrable, "supertrace_product")
    code, _, err = outcome(capsys, ["garnier-check", "--m", str(m), "--count", "1"])
    assert (code, err) == (0, "")
    assert all(x is not y for x, y in pairs)
    assert len({frozenset((id(x), id(y))) for x, y in pairs}) == len(pairs) == m * (m - 1) // 2


@pytest.mark.parametrize("m", [3, 4])
def test_garnier_check_sum_fails_with_a_flipped_cross_term(capsys, monkeypatch, m):
    # the sum is taken on the expanded route, where it does not vanish by
    # construction: with eta_i theta_j entering H_i with the wrong sign, the
    # cross terms of H_i and H_j add up instead of cancelling
    real = integrable.site_products

    def flipped(sites):
        theta, eta, theta_eta, eta_theta = real(sites)
        return theta, eta, theta_eta, tuple(tuple(-x for x in row) for row in eta_theta)

    monkeypatch.setattr(integrable, "site_products", flipped)
    code, out = run(capsys, "--format", "json", "garnier-check", "--m", str(m))
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not checks["hamiltonians_sum_to_zero"]["passed"]
    assert checks["hamiltonians_sum_to_zero"]["residual"] > 1.0
    assert checks["poisson_commutativity"]["passed"]  # the residue route is untouched


def is_generator(x):
    """x is a bare generator t_k: one degree-1 monomial with coefficient 1."""
    return len(x.terms) == 1 and all(c == 1.0 and mask.bit_count() == 1
                                     for mask, c in x.terms.items())


@pytest.mark.parametrize("count", [1, 3])
def test_garnier_check_forms_the_generator_products_once_per_site_count(capsys, count_calls,
                                                                         count):
    # theta_i eta_j and eta_i theta_j come from site_products(m), built once per
    # site count: 2m^2 products of two generators in the run, none per system
    integrable.site_products.cache_clear()
    products = count_calls(grassmann, "_accumulate")
    code, _, err = outcome(capsys, ["garnier-check", "--m", "5", "--count", str(count)])
    assert (code, err) == (0, "")
    assert sum(is_generator(x) and is_generator(y) for _, x, y in products) == 2 * 5 * 5


def test_garnier_check_brackets_the_gradients_of_each_pair(capsys, count_calls):
    seen = count_calls(integrable, "poisson_bracket")
    code, _, err = outcome(capsys, ["garnier-check", "--m", "4", "--count", "2"])
    assert (code, err) == (0, "")
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert len(seen) == 2 * len(pairs)
    for (p, f, g), (i, j) in zip(seen, pairs * 2):
        for got, site in ((f, i), (g, j)):
            want = integrable.odd_gradient(p, integrable.garnier_hamiltonian(p, site))
            assert [(t.terms, e.terms) for t, e in got] == [
                (t.terms, e.terms) for t, e in want]


# -- typed site fields in --system files ----------------------------------------------

def system_with(tmp_path, key, value):
    def change(data):
        data["sites"][0][key] = value

    return rewritten(tmp_path, "system.json", "gaudin_m3.json", change)


@pytest.mark.parametrize("key, value, message", [
    ("z", "5", "sites[0]: z: '5' is not a list of two numbers (wrongly typed field)"),
    ("z", [True, False],
     'sites[0]: z: "re" holds True, not a number (wrongly typed field)'),
    ("z", [math.inf, 0], 'sites[0]: z: "re" holds inf, not a finite number'),
    ("u", [1.0, math.nan], 'sites[0]: u: "im" holds nan, not a finite number'),
    ("v", [1.0, 2.0, 3.0],
     "sites[0]: v: [1.0, 2.0, 3.0] is not a list of two numbers (wrongly typed field)"),
])
def test_garnier_check_rejects_junk_site_fields(capsys, tmp_path, key, value, message):
    path = system_with(tmp_path, key, value)
    code, out, err = outcome(capsys, ["garnier-check", "--system", path])
    assert (code, out) == (2, "")
    assert err == "error: %s: %s\n" % (path, message)


@pytest.mark.parametrize("command", ["gaudin-commute", "quantize-compare"])
def test_other_system_commands_reject_junk_site_fields(capsys, tmp_path, command):
    path = system_with(tmp_path, "z", [math.inf, 0])
    code, out, err = outcome(capsys, [command, "--system", path])
    assert (code, out) == (2, "")
    assert err == 'error: %s: sites[0]: z: "re" holds inf, not a finite number\n' % path


@pytest.mark.parametrize("count", [0, 1, 33])
@pytest.mark.parametrize("command", ["garnier-check", "gaudin-commute", "quantize-compare"])
def test_system_file_site_count_is_checked_where_it_is_read(capsys, tmp_path, command, count):
    # the range of --m, 2..32, with the file and "sites" named
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"sites": [{"z": [k, 0], "u": [1, 0], "v": [1, 0.5]}
                                          for k in range(count)]}))
    code, out, err = outcome(capsys, [command, "--system", str(path)])
    assert (code, out) == (2, "")
    assert err == 'error: %s: "sites" holds %d sites, not a site count in 2..32\n' % (
        path, count)


def test_system_file_keeps_the_realization_limit_of_gaudin_commute(capsys, tmp_path):
    # 17 sites read, but the 2^m-state arrays stop at m = 16
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"sites": [{"z": [k, 0], "u": [1, 0], "v": [1, 0.5]}
                                          for k in range(17)]}))
    code, out, err = outcome(capsys, ["gaudin-commute", "--system", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: the 2^m-state realization stops at m = 16")


def test_system_file_with_integer_coordinates_still_runs(capsys, tmp_path):
    path = system_with(tmp_path, "z", [0, 1])
    code, _, err = outcome(capsys, ["garnier-check", "--system", path])
    assert (code, err) == (0, "")


# -- finite coefficients and named edge fields in input files --------------------------

def set_last_re(pick, field, value):
    """A change that sets "re" of the last term of pick(data)[field] to value."""
    return lambda data: pick(data)[field]["terms"][-1].__setitem__("re", value)


def test_connection_with_infinite_coefficient_exits_2(capsys, tmp_path):
    path = rewritten(tmp_path, "inf_alpha.json", "connection_g1s1_random.json",
                     set_last_re(lambda data: data["edges"][1], "alpha", math.inf))
    code, out, err = outcome(capsys, ["fatgraph", "holonomy", fx("fatgraph_g1s1.json"),
                                      path, "--cycle", "1-"])
    assert (code, out) == (2, "")
    assert err == 'error: %s: edges[1]: alpha: "re" holds inf, not a finite number\n' % path


def test_transition_data_with_nan_coefficient_exits_2(capsys, tmp_path):
    path = rewritten(tmp_path, "nan_h.json", "cech_tetra_valid.json",
                     set_last_re(lambda data: data["edges"][0], "h", math.nan))
    code, out, err = outcome(capsys, ["cech-verify", fx("nerve_tetrahedron.json"), path])
    assert (code, out) == (2, "")
    assert err == 'error: %s: edge (1, 2): h: "re" holds nan, not a finite number\n' % path


def test_higgs_file_with_infinite_coefficient_exits_2(capsys, tmp_path):
    path = rewritten(tmp_path, "inf_delta.json", "higgs_example.json",
                     set_last_re(lambda data: data["delta"]["terms"][0], "coeff", -math.inf))
    code, out, err = outcome(capsys, ["hitchin-residual", fx("metric_example.json"), path])
    assert (code, out) == (2, "")
    assert err == 'error: %s: delta: "re" holds -inf, not a finite number\n' % path


def test_transition_data_edge_type_error_names_edge_and_field(capsys, tmp_path):
    def change(data):
        data["edges"][0]["alpha"]["terms"][0]["mono"] = [1.5]

    path = rewritten(tmp_path, "float_mono.json", "cech_tetra_valid.json", change)
    code, out, err = outcome(capsys, ["cech-verify", fx("nerve_tetrahedron.json"), path])
    assert (code, out) == (2, "")
    assert err == ('error: %s: edge (1, 2): alpha: "mono" holds 1.5, not an integer '
                   '(wrongly typed field)\n' % path)


def test_connection_edge_type_error_names_edge_and_field(capsys, tmp_path):
    def change(data):
        data["edges"][1]["beta"]["n"] = "8"

    path = rewritten(tmp_path, "string_n.json", "connection_g1s1_random.json", change)
    code, out, err = outcome(capsys, ["fatgraph", "check-punctures",
                                      fx("fatgraph_g1s1.json"), path])
    assert (code, out) == (2, "")
    assert err == ('error: %s: edges[1]: beta: "n" holds \'8\', not an integer '
                   '(wrongly typed field)\n' % path)


@pytest.mark.parametrize("simplices", [[], {"1": 5}, "edges"])
def test_cech_verify_nerve_simplices_of_wrong_type_exits_2(capsys, tmp_path, simplices):
    path = rewritten(tmp_path, "nerve.json", "nerve_tetrahedron.json",
                     lambda data: data.__setitem__("simplices", simplices))
    code, out, err = outcome(capsys, ["cech-verify", path, fx("cech_tetra_valid.json")])
    assert (code, out) == (2, "")
    assert err == ('error: %s: "simplices" holds %r, not an object of simplex lists '
                   '(wrongly typed field)\n' % (path, simplices))


# -- one typed reader for every input file ---------------------------------------------

def set_at(keys, value):
    """A change that sets data[k0][k1]...[kn] to value."""
    def change(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value

    return change


def rename_simplices_key(data):
    data["simplices"]["1.0"] = data["simplices"].pop("1")


def two_theta_graphs(data):
    """A change that makes the graph two disjoint copies of its two vertices."""
    data["pairing"] = data["pairing"] + [h + 6 for h in data["pairing"]]
    data["cyclic_orders"] = data["cyclic_orders"] + [[h + 6 for h in order]
                                                     for order in data["cyclic_orders"]]
    data["orientation"] = data["orientation"] + [h + 6 for h in data["orientation"]]


GRAPH, FLAT, RANDOM = "fatgraph_g1s1.json", "connection_g1s1_flat.json", \
    "connection_g1s1_random.json"
MALFORMED = [
    # (fixture, change, argv with the changed file as {}, message after the path)
    (GRAPH, set_at(["pairing", 0], 1.5), ["fatgraph", "check-punctures", "{}", fx(FLAT)],
     '"pairing" holds 1.5, not an integer (wrongly typed field)'),
    (GRAPH, set_at(["pairing", 0], "1"), ["fatgraph", "check-punctures", "{}", fx(FLAT)],
     '"pairing" holds \'1\', not an integer (wrongly typed field)'),
    ("metric_example.json", set_at(["conjugation", "pairing", 0], 5.0),
     ["hitchin-residual", "{}", fx("higgs_example.json")],
     'conjugation: "pairing" holds 5.0, not an integer (wrongly typed field)'),
    ("metric_example.json", set_at(["conjugation", "pairing", 0], "5"),
     ["hitchin-residual", "{}", fx("higgs_example.json")],
     'conjugation: "pairing" holds \'5\', not an integer (wrongly typed field)'),
    ("nerve_tetrahedron.json", set_at(["vertices", 0], 1.0),
     ["cech-verify", "{}", fx("cech_tetra_valid.json")],
     '"vertices" holds 1.0, not an integer (wrongly typed field)'),
    ("nerve_tetrahedron.json", set_at(["simplices", "1", 0], [1, 2.0]),
     ["cech-verify", "{}", fx("cech_tetra_valid.json")],
     'simplices: "1" holds 2.0, not an integer (wrongly typed field)'),
    ("nerve_tetrahedron.json", rename_simplices_key,
     ["cech-verify", "{}", fx("cech_tetra_valid.json")],
     '"simplices" has the key \'1.0\', not "1", "2" or "3"'),
    ("cech_tetra_valid.json", set_at(["edges", 0, "simplex"], [1.0, 2.0]),
     ["cech-verify", fx("nerve_tetrahedron.json"), "{}"],
     'edges[0]: "simplex" holds 1.0, not an integer (wrongly typed field)'),
    ("cech_tetra_valid.json", set_at(["edges", 0, "h", "terms", 1, "mono"], [0, 1]),
     ["cech-verify", fx("nerve_tetrahedron.json"), "{}"],
     'edge (1, 2): h: "mono" holds [0, 1], not increasing indices in 1..8'),
    ("cech_tetra_valid.json", set_at(["edges", 0, "h", "terms", 1, "mono"], [-1, 1]),
     ["cech-verify", fx("nerve_tetrahedron.json"), "{}"],
     'edge (1, 2): h: "mono" holds [-1, 1], not increasing indices in 1..8'),
    ("cech_tetra_valid.json", set_at(["edges"], {"x": 1}),
     ["cech-verify", fx("nerve_tetrahedron.json"), "{}"],
     '"edges" holds {\'x\': 1}, not a list (wrongly typed field)'),
    ("cech_tetra_valid.json", set_at(["edges", 0], 7),
     ["cech-verify", fx("nerve_tetrahedron.json"), "{}"],
     "edges[0]: 7 is not an object (wrongly typed field)"),
    (RANDOM, set_at(["edges", 1, "alpha"], GrassmannElement.generator(4, 1).to_dict()),
     ["fatgraph", "check-punctures", fx(GRAPH), "{}"],
     'edges[1]: alpha has 4 generators, "n" is 8'),
    (RANDOM, lambda data: data["edges"][1]["h"]["terms"].append(
        {"mono": [3], "re": 1.0, "im": 0.0}),
     ["fatgraph", "check-punctures", fx(GRAPH), "{}"],
     "edges[1]: h must be even, got parity 'mixed'"),
    ("gaudin_m3.json", set_at(["sites"], [5]), ["quantize-compare", "--system", "{}"],
     "sites[0]: 5 is not an object (wrongly typed field)"),
    ("cech_tetra_valid.json", set_at(["n"], 0),
     ["cech-verify", fx("nerve_tetrahedron.json"), "{}"],
     '"n" holds 0, not a generator count in 1..64'),
    (RANDOM, set_at(["n"], 65), ["fatgraph", "check-punctures", fx(GRAPH), "{}"],
     '"n" holds 65, not a generator count in 1..64'),
    # integers past float range, which TWO_PI_I * n and float(p) cannot convert
    ("cech_tetra_valid.json", set_at(["triangles", 0, "n"], 10 ** 400),
     ["cech-verify", fx("nerve_tetrahedron.json"), "{}"],
     'triangle (1, 2, 3): "n" holds an integer outside -2**53..2**53'),
    ("metric_example.json", set_at(["u", "terms", 0, "z"], 10 ** 400),
     ["hitchin-residual", "{}", fx("higgs_example.json")],
     'u: "z" holds an integer outside -2**53..2**53'),
    ("cech_tetra_valid.json", set_at(["triangles", 0, "n"], -(2 ** 53) - 1),
     ["cech-verify", fx("nerve_tetrahedron.json"), "{}"],
     'triangle (1, 2, 3): "n" holds an integer outside -2**53..2**53'),
    ("nerve_tetrahedron.json", set_at(["vertices", 0], 99),
     ["cech-verify", "{}", fx("cech_tetra_valid.json")],
     '"simplices": (1, 2) has the vertex 1, which is not listed'),
    (RANDOM, set_at(["mode"], "xx"), ["fatgraph", "check-punctures", fx(GRAPH), "{}"],
     '"mode" holds \'xx\', not "sl" or "su"'),
    (GRAPH, set_at(["pairing", 5], 5), ["fatgraph", "check-punctures", "{}", fx(FLAT)],
     '"pairing": not a permutation of 0..5'),
    (GRAPH, set_at(["cyclic_orders"], [[0, 2, 4]]),
     ["fatgraph", "check-punctures", "{}", fx(FLAT)],
     '"cyclic_orders": some half-edges missing from vertices'),
    (GRAPH, set_at(["orientation", 0], 2), ["fatgraph", "check-punctures", "{}", fx(FLAT)],
     '"orientation": half-edge 2 is not on edge 0'),
    (GRAPH, two_theta_graphs, ["fatgraph", "normalize", "{}", fx(FLAT)],
     '"pairing": the fatgraph is not connected'),
    ("metric_example.json", set_at(["u", "terms", 0, "z"], -1),
     ["hitchin-residual", "{}", fx("higgs_example.json")], "u: negative degree (-1, 2)"),
    ("higgs_example.json", set_at(["n"], 6),
     ["hitchin-residual", fx("metric_example.json"), "{}"], '"n" holds 6, not the metric\'s 8'),
]


@pytest.mark.parametrize("fixture, change, argv, message", MALFORMED)
def test_malformed_input_names_file_and_field_path(capsys, tmp_path, fixture, change, argv,
                                                   message):
    path = rewritten(tmp_path, "changed.json", fixture, change)
    code, out, err = outcome(capsys, [path if arg == "{}" else arg for arg in argv])
    assert (code, out) == (2, "")
    assert err == "error: %s: %s\n" % (path, message)


def test_system_file_rejects_other_fields(capsys, tmp_path):
    # --hbar is the one source of hbar; a field the reader would ignore is refused
    path = rewritten(tmp_path, "system.json", "gaudin_m3.json", set_at(["hbar"], "junk"))
    code, out, err = outcome(capsys, ["quantize-compare", "--system", path])
    assert (code, out) == (2, "")
    assert err == 'error: %s: unknown field "hbar": a system file holds only "sites"\n' % path
