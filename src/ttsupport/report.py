"""Check records shared by the verification-style operations."""

from __future__ import annotations

from .znum import value_class


@value_class
class CheckRecord:
    """One verified identity: its name, outcome, and on failure the two
    canonical forms that differed.  Advisory records flag without failing."""

    name: str
    passed: bool
    detail: str = ""
    advisory: bool = False

    def line(self) -> str:
        if self.passed:
            suffix = f" ({self.detail})" if self.detail else ""
            return f"[pass] {self.name}{suffix}"
        tag = "advisory" if self.advisory else "FAIL"
        suffix = f": {self.detail}" if self.detail else ""
        return f"[{tag}] {self.name}{suffix}"

    def to_json(self) -> dict:
        status = "pass" if self.passed else ("advisory" if self.advisory else "fail")
        out = {"name": self.name, "status": status}
        if self.detail:
            out["detail"] = self.detail
        return out


@value_class
class Report:
    records: tuple[CheckRecord, ...] = ()

    @classmethod
    def of(cls, records) -> "Report":
        return cls(tuple(records))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records if not r.advisory)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed and not r.advisory]

    def merged(self, other: "Report") -> "Report":
        return Report(self.records + other.records)

    def lines(self) -> list[str]:
        return [r.line() for r in self.records]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [r.to_json() for r in self.records],
        }


def check(name: str, ok: bool, lhs: object = None, rhs: object = None) -> CheckRecord:
    """Build a record; on failure the detail shows both canonical forms."""
    detail = ""
    if not ok and lhs is not None:
        detail = f"{lhs} != {rhs}"
    return CheckRecord(name, ok, detail)
