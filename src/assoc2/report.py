"""Violation records and check reports.

Checkers never answer with a bare boolean: the value of this artifact is
diagnosis, so every failed identity is reported with its condition label,
the basis tuple it failed on, and both sides of the equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    condition: str
    where: tuple[int, ...]
    lhs: tuple
    rhs: tuple


@dataclass
class CheckReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def by_condition(self) -> dict[str, list[Violation]]:
        out: dict[str, list[Violation]] = {}
        for v in self.violations:
            out.setdefault(v.condition, []).append(v)
        return out

    def conditions(self) -> tuple[str, ...]:
        return tuple(sorted({v.condition for v in self.violations}))

    def sorted(self) -> "CheckReport":
        return CheckReport(sorted(self.violations, key=lambda v: (v.condition, v.where)))

    def require(self, what: str) -> None:
        if self.violations:
            head = self.violations[0]
            raise PreconditionError(
                f"{what}: {len(self.violations)} violation(s), first is "
                f"{head.condition} at {head.where}: {head.lhs} != {head.rhs}",
                self,
            )


class PreconditionError(ValueError):
    """A domain precondition failed on otherwise well-formed input."""

    def __init__(self, message: str, report: "CheckReport | None" = None):
        super().__init__(message)
        self.report = report


def kept_field():
    """The field ``_kept`` a structure keeps what ``kept`` computes from it
    in: its report, the ``Sparse`` maps of its tensors, its semidirect
    products.  It is ``None`` until then, and no part of the structure's
    init, repr or equality."""
    return field(default=None, init=False, repr=False, compare=False)


def kept(obj, key, build, *args):
    """``build(*args)``, computed on the first call for ``key`` and kept in
    ``obj._kept``: a structure is never mutated once built, so what is
    computed from it holds for as long as it lives."""
    store = obj._kept
    if store is None:
        store = obj._kept = {}
    value = store.get(key)
    if value is None:
        value = store[key] = build(*args)
    return value


def checked(obj, compute) -> CheckReport:
    """``obj``'s report ``compute(obj)``, kept: a check runs once per object."""
    return kept(obj, "report", compute, obj)


def report_from(residuals) -> CheckReport:
    """Collect the non-identities from an iterator of (condition, tuple, lhs, rhs)."""
    report = CheckReport()
    for condition, where, lhs, rhs in residuals:
        if lhs != rhs:
            report.violations.append(Violation(condition, where, lhs, rhs))
    return report.sorted()
