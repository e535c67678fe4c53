"""Structured pass/fail reports for the verification operations.

Verification entry points never raise on a failing certificate; they return a
Report listing every violation so batch tooling can show all failures at once.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    code: str
    degree: int | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        d: dict = {"code": self.code}
        if self.degree is not None:
            d["degree"] = self.degree
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class Report:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, degree: int | None = None, detail: str = "") -> None:
        self.violations.append(Violation(code, degree, detail))

    def merge(self, other: "Report", prefix: str = "") -> None:
        for v in other.violations:
            self.violations.append(
                Violation(prefix + v.code if prefix else v.code, v.degree, v.detail)
            )

    def as_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.as_dict() for v in self.violations]}

    def require(self, what: str) -> None:
        """Refuse input that fails this report: raise VerificationFailed."""
        if not self.ok:
            raise VerificationFailed(what, self)

    def certify(self, what: str) -> None:
        """Fail a certificate the engine built, a defect: raise ArithmeticError."""
        if not self.ok:
            raise ArithmeticError(f"{what}: {self.as_dict()['violations']}")

    def __bool__(self) -> bool:
        return self.ok


class VerificationFailed(ValueError):
    """A construction refused input that fails its verification; `report`
    lists every violation."""

    def __init__(self, what: str, report: Report):
        super().__init__(f"{what}: {report.as_dict()['violations']}")
        self.report = report
