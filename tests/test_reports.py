"""reports.to_json writes the bytes of json.dumps(indent=2, sort_keys=True), a
GrassmannElement anywhere in the tree written as its to_dict()."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl11 import grassmann
from gl11.cli import main
from gl11.grassmann import MAX_GENERATORS, GrassmannElement
from gl11.reports import to_json
from gl11.supergroup import SuperMatrix11

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "gl11" / "fixtures"

floats = st.floats(allow_nan=True, allow_infinity=True)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, floats.map(np.float64),
    st.text(),  # non-ASCII, quotes, backslashes and control characters
)
# the Grassmann term shape as a plain dict, which the writer walks like any other
terms = st.fixed_dictionaries({"im": floats, "mono": st.lists(st.integers(1, 8)),
                               "re": floats})


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
        st.fixed_dictionaries({"im": children, "mono": children, "re": children}),
    )


trees = st.recursive(st.one_of(leaves, terms), containers, max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(trees)
@example({"b": [1, True, 0, False, None], "a": -0.0})
@example([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-0.0)])
@example({"z": {}, "y": [], "x": (), "é\n\"\\": "☃\t"})
@example({"im": 1, "mono": [True], "re": "x"})
def test_to_json_equals_json_dumps(tree):
    assert to_json(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_to_json_on_a_grassmann_element():
    x = GrassmannElement(8, {0: 1.5, 0b101: -2j, 0b11110000: np.float64(1e-3)})
    assert to_json(x.to_dict()) == json.dumps(x.to_dict(), indent=2, sort_keys=True)
    assert to_json(x) == json.dumps(x.to_dict(), indent=2, sort_keys=True)


def json_dumps(tree):
    return json.dumps(tree, indent=2, sort_keys=True, default=GrassmannElement.to_dict)


parts = st.one_of(floats, st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]))


@st.composite
def elements(draw):
    """An element as the kernel may store it: any masks in range, in any order,
    with NaN, +-inf and -0.0 parts; empty, on 1 and on MAX_GENERATORS generators."""
    n = draw(st.one_of(st.sampled_from([1, MAX_GENERATORS]), st.integers(1, MAX_GENERATORS)))
    masks = st.one_of(st.integers(0, (1 << n) - 1), st.sampled_from([0, (1 << n) - 1]))
    terms = draw(st.dictionaries(masks, st.builds(complex, parts, parts), max_size=6))
    return grassmann._pruned(n, terms)


element_trees = st.recursive(st.one_of(leaves, elements()), containers, max_leaves=20)


@settings(max_examples=150, deadline=None)
@given(element_trees)
@example(GrassmannElement.zero(1))
@example([GrassmannElement(MAX_GENERATORS, {(1 << MAX_GENERATORS) - 1: 1 + 1j})])
@example({"e": (grassmann._pruned(1, {1: complex(-0.0, math.nan), 0: complex(math.inf, -0.0)}),
                {"f": GrassmannElement.zero(MAX_GENERATORS)})})
def test_to_json_writes_elements_as_json_dumps_writes_their_to_dict(tree):
    assert to_json(tree) == json_dumps(tree)


@pytest.mark.parametrize("connection", ["connection_g1s1_flat.json",
                                        "connection_g1s1_random.json",
                                        "connection_g1s1_su.json"])
def test_fatgraph_holonomy_report_builds_no_term_dict(capsys, count_calls, connection):
    # the matrix entries, supertrace and sdet go to the writer as elements
    calls = count_calls(GrassmannElement, "to_dict")
    count_calls(SuperMatrix11, "to_dict", calls)
    code = main(["--format", "json", "fatgraph", "holonomy", str(FIXTURES / "fatgraph_g1s1.json"),
                 str(FIXTURES / connection), "--cycle", "0+,1-,2+"])
    report = json.loads(capsys.readouterr().out)
    assert (code, len(calls)) == (0, 0)
    assert set(report["info"]) == {"holonomy", "sdet", "supertrace"}
    assert set(report["info"]["holonomy"]) == {"a", "beta", "gamma", "d"}
