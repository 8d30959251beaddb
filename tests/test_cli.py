"""CLI tests: exit-status contract, determinism, fixtures, negative controls."""

import json
import pathlib

import pytest

from gl11.cli import main

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


def test_group_selftest_zero_count_empty_pass(capsys):
    code, out = run(capsys, "--format", "json", "group-selftest", "--count", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["exit_status"] == 0
    assert all(c["residual"] == 0.0 for c in payload["checks"])


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


def test_cech_verify_bad_file_diagnostics(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as err:
        run(capsys, "cech-verify", fx("nerve_triangle.json"), str(bad))
    assert "broken.json" in str(err.value)


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


def test_domain_errors_exit_2(capsys):
    # SL mode requested on twisted data: clean diagnostic, exit status 2
    code = main(["cech-verify", fx("nerve_tetrahedron_boundary.json"),
                 fx("cech_tetra_valid.json"), "--mode", "sl"])
    err = capsys.readouterr().err
    assert code == 2
    assert "SL mode" in err


def test_fatgraph_dims_constrained_su(capsys):
    code, out = run(capsys, "--format", "json", "fatgraph", "dims",
                    "--genus", "2", "--punctures", "1", "--constrained", "--su")
    assert code == 0
    payload = json.loads(out)
    assert payload["info"]["even"] == 4 and payload["info"]["odd"] == 4


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
