"""Mutated copies of every shipped fixture against the input readers.

Each example takes one of the 17 fixtures, applies one mutation and runs
the command that reads it, in process.  The mutations are: delete a key,
swap a type (an integer to a float, string, bool or null; a list to an
object and back), put NaN or an infinity in a coefficient, put an index out
of range (a "mono" index 0 or n + 1, an "edge" -1 or E, a simplex vertex the
nerve does not have), set an integer to 10**400, past the range of a float,
put an element on the wrong number of generators, or repeat a list entry.

The oracle: no exception escapes ``main`` (the digest's ``call`` reads one
as "raised").  The run exits 0 or 1 with a JSON report, or exits 2 with one
line "error: <file>: ..." naming an input file.
A mutation that breaks the input contract -- a required key deleted, a type
swapped in a field that is read, a coefficient that is not finite, an index
out of range, an integer past float range, a wrong generator count -- must
exit 2 with the message starting at the mutated file and naming the mutated
key.  Deleting a key
that has a default, repeating an entry and changing a field that no reader
reads ("half_edges", "parity") may leave a valid file, so any of the
outcomes above is allowed for them.
"""

import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import report_digest  # scripts/, on the test path

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "gl11" / "fixtures"

# keys whose absence a reader fills in; every other key is required
OPTIONAL = {"simplices", "1", "2", "3", "edges", "triangles", "terms", "re", "im",
            "orientation", "mode", "parity", "half_edges"}
IGNORED = {"half_edges", "parity"}  # written for readers of the files, read by none
ZERO_DATA = {"n": 2, "edges": [], "triangles": []}
NO_EDGES = {"n": 2, "edges": []}


def command_for(name, workdir):
    """argv reading the fixture name: the first shipped-fixture command that
    does, or the fixture beside a minimal valid partner written to workdir."""
    for argv in (report_digest.fixture_commands(str(workdir))
                 + report_digest.su_commands(str(workdir))):
        if str(FIXTURES / name) in argv:
            return argv
    if name.startswith("nerve_"):
        partner, argv = ZERO_DATA, ["cech-verify", str(FIXTURES / name)]
    else:
        partner, argv = NO_EDGES, ["fatgraph", "check-punctures", str(FIXTURES / name)]
    path = workdir / ("partner_" + name)
    path.write_text(json.dumps(partner))
    return argv + [str(path)]


def nodes(doc, path=()):
    """(path, value) of doc and of everything inside it."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from nodes(value, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def nearest_key(path):
    """The innermost object key on path: the field a message should name."""
    keys = [key for key in path if isinstance(key, str)]
    return keys[-1] if keys else None


def edge_count(argv):
    graphs = [arg for arg in argv if pathlib.Path(arg).name.startswith("fatgraph_")]
    if not graphs:
        return None
    return len(json.loads(pathlib.Path(graphs[0]).read_text())["pairing"]) // 2


DELETE = object()


def mutations(doc, argv):
    """kind -> [(path, [(new value, strict), ...], key)] for one fixture.

    The new value replaces the one at path (DELETE removes the key); strict
    says that the result breaks the input contract, and key is the field
    its message must name.
    """
    out = {kind: [] for kind in ("delete", "swap", "nonfinite", "range", "huge",
                                 "generators", "repeat")}
    edges = edge_count(argv)
    for path, value in nodes(doc):
        key, last = nearest_key(path), path[-1] if path else None
        read = not any(k in IGNORED for k in path)
        if isinstance(last, str):
            out["delete"].append((path, [(DELETE, last not in OPTIONAL)], last))
        if type(value) is int and read:
            number = key in ("re", "im")
            out["swap"].append((path, [(float(value), not number), (str(value), True),
                                       (not value, True), (None, True)], key))
            out["huge"].append((path, [(10 ** 400, True)], key))
        if isinstance(value, (list, dict)) and read:
            flipped = ({str(i): x for i, x in enumerate(value)} if isinstance(value, list)
                       else list(value.values()))
            out["swap"].append((path, [(flipped, True)], key))
        if key in ("re", "im") or (path[:1] == ("sites",) and len(path) == 4):
            out["nonfinite"].append((path, [(x, True) for x in (math.nan, math.inf,
                                                                -math.inf)], key))
        if len(path) >= 2 and path[-2] == "mono":
            n = at(doc, path[:-4])["n"]
            out["range"].append((path, [(0, True), (n + 1, True)], "mono"))
        if last == "edge" and edges is not None:
            out["range"].append((path, [(-1, True), (edges, True)], "edge"))
        if len(path) >= 2 and path[-2] == "simplex":
            out["range"].append((path, [(99, True)], "simplex"))
        if path and isinstance(value, dict) and "n" in value and set(value) <= {"n", "terms"}:
            other = value["n"] + 1 if value["n"] < 64 else value["n"] - 1
            out["generators"].append((path, [({"n": other, "terms": []}, True)], key))
        if isinstance(value, list) and value and read:
            out["repeat"].append((path, [(value + [entry], False) for entry in value], key))
    return {kind: spots for kind, spots in out.items() if spots}


def replaced(doc, path, new):
    """doc with the value at path replaced by new (or its key deleted)."""
    if not path:
        return new
    parent = at(doc, path[:-1])
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))


def test_every_fixture_is_covered():
    assert len(NAMES) == 17


@pytest.mark.parametrize("name", NAMES)
@settings(derandomize=True, deadline=None, max_examples=20, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_fixture_exits_cleanly(tmp_path, name, data):
    argv = command_for(name, tmp_path)
    doc = json.loads((FIXTURES / name).read_text())
    table = mutations(doc, argv)
    kind = data.draw(st.sampled_from(sorted(table)), label="kind")
    path, choices, key = data.draw(st.sampled_from(table[kind]), label="spot")
    new, strict = data.draw(st.sampled_from(choices), label="new")
    mutated = tmp_path / ("mutated_" + name)
    mutated.write_text(json.dumps(replaced(doc, path, new)))
    argv = ["--format", "json"] + [str(mutated) if arg == str(FIXTURES / name) else arg
                                   for arg in argv]
    files = [arg for arg in argv if arg.endswith(".json")]

    code, out, err, _ = report_digest.call(argv)
    if code in (0, 1):
        assert not strict, (kind, path, code)
        assert err == ""
        assert json.loads(out)["exit_status"] == code
        return
    assert code == 2 and out == "", (code, err)
    assert err.endswith("\n") and err.count("\n") == 1, err
    if strict:
        assert err.startswith("error: %s: " % mutated), (kind, path, err)
        assert key is None or key in err, (kind, path, key, err)
    else:
        assert any(err.startswith("error: %s: " % f) for f in files), err
