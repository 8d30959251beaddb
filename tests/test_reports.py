"""reports.to_json writes the bytes of json.dumps(indent=2, sort_keys=True)."""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl11.grassmann import GrassmannElement
from gl11.reports import to_json

floats = st.floats(allow_nan=True, allow_infinity=True)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, floats.map(np.float64),
    st.text(),  # non-ASCII, quotes, backslashes and control characters
)
# the Grassmann term shape, which the writer emits in one step
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
