"""Named residual reports shared by the verification operations and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

from .grassmann import nan_max


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

    def extend(self, other: "CheckReport") -> None:
        self.checks.extend(other.checks)
        self.info.update(other.info)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return nan_max(c.residual for c in self.checks)

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
