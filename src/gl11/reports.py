"""Named residual reports shared by the verification operations and the CLI.

``to_json`` is the one JSON writer of the package: reports, the normalized
connection files and the shipped fixtures all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

from .grassmann import nan_max


def _json_float(x) -> str:
    """A float as json spells it: repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _json_value(o, newline: str) -> str:
    """o as json.dumps(o, indent=2, sort_keys=True) writes it at the depth of newline."""
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
    inner = newline + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return ("[" + inner + ("," + inner).join([_json_value(v, inner) for v in o])
                + newline + "]")
    if isinstance(o, dict):
        if not o:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [_json_str(key) + ": " + _json_value(o[key], inner) for key in sorted(o)])
            + newline + "}")
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def to_json(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)``.

    Dicts, lists and tuples are walked here; strings, ints and floats go
    through the C-level ``encode_basestring_ascii``, ``int.__repr__`` and
    ``float.__repr__``, as in json, so float subclasses such as numpy
    scalars read the same.  Dict keys must be strings (a non-str key raises
    TypeError).  json.dumps with an indent takes its pure-Python encoder,
    about 1.5 times as slow on the report schema.
    """
    return _json_value(obj, "\n")


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
            lines.append("# %s = %r" % (key, self.info[key]))
        return "\n".join(lines)
