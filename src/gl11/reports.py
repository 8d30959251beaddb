"""Named residual reports shared by the verification operations and the CLI.

``to_json`` is the one JSON writer of the package: reports, the normalized
connection files and the shipped fixtures all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

from .grassmann import GrassmannElement, _mask_to_indices, nan_max


def _json_float(x) -> str:
    """A float as json spells it: repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _json_element(x, newline: str) -> str:
    """x as json.dumps(x.to_dict(), indent=2, sort_keys=True) writes it at the
    depth of newline, read straight from x.n and x.terms: the terms by mask,
    each "mono" from its mask's indices, and no per-term dict or list."""
    inner = newline + "  "
    head = "{" + inner + '"n": ' + int.__repr__(x.n) + "," + inner + '"terms": '
    terms = x.terms
    if not terms:
        return head + "[]" + newline + "}"
    term = inner + "  "
    field = term + "  "
    index = field + "  "
    open_im = "{" + field + '"im": '
    open_mono = "," + field + '"mono": ['
    open_re = "," + field + '"re": '
    close = term + "}"
    next_index = "," + index
    rendered = []
    for mask in sorted(terms):
        c = terms[mask]
        mono = (index + next_index.join(map(int.__repr__, _mask_to_indices(mask))) + field
                if mask else "")
        rendered.append(open_im + _json_float(c.imag) + open_mono + mono + "]" + open_re
                        + _json_float(c.real) + close)
    return head + "[" + term + ("," + term).join(rendered) + inner + "]" + newline + "}"


_CONTAINERS = frozenset({dict, list, tuple, GrassmannElement})


def _json_value(o, newline: str) -> str:
    """o as json.dumps(o, indent=2, sort_keys=True, default=GrassmannElement.to_dict)
    writes it at the depth of newline."""
    kind = type(o)
    if kind is float:
        return _json_float(o)
    if kind is str:
        return _json_str(o)
    if kind is int:
        return int.__repr__(o)
    if kind not in _CONTAINERS:
        # bool, None, numpy scalars and subclasses, in json's order
        if isinstance(o, float):
            return _json_float(o)
        if isinstance(o, str):
            return _json_str(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, (list, tuple)):
            kind = list
        elif isinstance(o, dict):
            kind = dict
        elif isinstance(o, GrassmannElement):
            kind = GrassmannElement
        else:
            raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)
    if kind is GrassmannElement:
        return _json_element(o, newline)
    if not o:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    if kind is dict:
        return ("{" + inner + ("," + inner).join(
            [_json_str(key) + ": " + _json_value(o[key], inner) for key in sorted(o)])
            + newline + "}")
    return "[" + inner + ("," + inner).join([_json_value(v, inner) for v in o]) + newline + "]"


def to_json(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)``, a
    ``GrassmannElement`` anywhere in obj written as its ``to_dict()``.

    Dicts, lists and tuples are walked here, and an element is written
    straight from its term map, so no per-term dict is built; strings, ints
    and floats go through the C-level ``encode_basestring_ascii``,
    ``int.__repr__`` and ``float.__repr__``, as in json, so float subclasses
    such as numpy scalars read the same.  Dict keys must be strings (a
    non-str key raises TypeError).  The exact types are dispatched first;
    bools, None, numpy scalars and subclasses take the ``isinstance`` chain.
    json.dumps with an indent takes its pure-Python encoder, about 1.5 times
    as slow on the report schema; writing an element from its term map, not
    through ``to_dict``, takes a ``fatgraph holonomy`` report from 1.5-1.7
    to 1.0-1.3 ms on a 2-core host.
    """
    return _json_value(obj, "\n")


def _as_dicts(o):
    """An info value with every GrassmannElement in it, nested dicts included,
    replaced by its to_dict(), as the text report prints it."""
    if isinstance(o, GrassmannElement):
        return o.to_dict()
    if isinstance(o, dict):
        return {key: _as_dicts(value) for key, value in o.items()}
    return o


@dataclass
class Check:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def to_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual, "tol": self.tol,
                "passed": self.passed}


@dataclass
class CheckReport:
    """A list of named residual checks plus free-form info fields."""

    checks: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def add(self, name: str, residual: float, tol: float) -> None:
        self.checks.append(Check(name, float(residual), float(tol)))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list:
        return [c for c in self.checks if not c.passed]

    def worst(self, prefix: str = "") -> float:
        """Largest residual among checks whose name starts with prefix."""
        return nan_max(c.residual for c in self.checks if c.name.startswith(prefix))

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
                "info": self.info, "ok": self.ok}

    def format_text(self) -> str:
        lines = []
        for c in sorted(self.checks, key=lambda c: c.name):
            lines.append("%-48s %12.3e  %s" % (c.name, c.residual,
                                               "pass" if c.passed else "FAIL"))
        for key in sorted(self.info):
            lines.append("# %s = %r" % (key, _as_dicts(self.info[key])))
        return "\n".join(lines)
