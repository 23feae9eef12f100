"""Dense univariate polynomials with rational coefficients.

Deformation checks are coefficient statements: an axiom holds for the
deformed structure identically in the parameter iff every coefficient of the
residual polynomial vanishes.  Structure tensors whose entries are ``Poly``
values can be fed through the same axiom evaluators as rational ones, so
coefficient extraction is exact and shares no code with sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .report import CheckReport, Violation


def _coeffs_of(x) -> tuple[Fraction, ...]:
    if isinstance(x, Poly):
        return x.coeffs
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return (f,) if f else ()
    return NotImplemented  # type: ignore[return-value]


class Poly:
    """Polynomial in one variable, normalized (no trailing zero coefficients)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if k < len(self.coeffs) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __call__(self, value) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __add__(self, other):
        oc = _coeffs_of(other)
        if oc is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(oc))
        return Poly(tuple(self.coeff(k) + (oc[k] if k < len(oc) else 0) for k in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        s = self + (-other if isinstance(other, Poly) else -Fraction(other))
        return s

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        oc = _coeffs_of(other)
        if oc is NotImplemented:
            return NotImplemented
        if not self.coeffs or not oc:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(oc) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(oc):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        oc = _coeffs_of(other)
        if oc is NotImplemented:
            return NotImplemented
        return self.coeffs == oc

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeff(0))
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*t^{k}" for k, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + ")"


#: The deformation parameter itself.
T = Poly((0, 1))


# ---------------------------------------------------------------------------
# identities in the parameter, read coefficient by coefficient
# ---------------------------------------------------------------------------

def coefficient_violations(residuals) -> dict[int, list[Violation]]:
    """The nonzero coefficients of lhs - rhs, entry by entry, of residuals
    (condition, basis tuple, lhs, rhs) over polynomials in the parameter:
    per power, in residual order, one violation ``coefficient != 0`` at the
    basis tuple extended by the entry index."""
    found: dict[int, list[Violation]] = {}
    for condition, where, lhs, rhs in residuals:
        for idx, (a, b) in enumerate(zip(lhs, rhs, strict=True)):
            for k, coeff in enumerate(_coeffs_of(a - b)):
                if coeff:
                    found.setdefault(k, []).append(Violation(condition, where + (idx,), (coeff,), (Fraction(0),)))
    return found


def identity_report(residuals) -> CheckReport:
    """Every nonzero coefficient of identities meant to hold identically in
    the parameter, at (basis tuple, entry index, power)."""
    found = coefficient_violations(residuals)
    return CheckReport(
        [Violation(v.condition, v.where + (k,), v.lhs, v.rhs) for k, vs in found.items() for v in vs]
    ).sorted()


@dataclass
class GeneratesVerdict:
    cocycle_ok: bool
    standalone_ok: bool
    cocycle_violations: list[Violation]
    standalone_violations: list[Violation]

    @property
    def generates(self) -> bool:
        return self.cocycle_ok and self.standalone_ok


def generates_verdict(residuals) -> GeneratesVerdict:
    """The two-part criterion on the axiom residuals of a first-order
    deformation over the parameter: the constant coefficients vanish because
    the base passes its checker, the linear ones iff the perturbation is a
    two-cocycle in the adjoint representation, the quadratic ones iff it is
    a structure in its own right, and none is of higher degree."""
    found = coefficient_violations(residuals)
    if set(found) - {1, 2}:
        raise AssertionError(f"deformed axioms have coefficients of powers {sorted(set(found) - {1, 2})}")
    coc, standalone = found.get(1, []), found.get(2, [])
    return GeneratesVerdict(not coc, not standalone, coc, standalone)
