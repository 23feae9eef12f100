"""Dense univariate polynomials with rational coefficients.

Deformation checks are coefficient statements: an axiom holds for the
deformed structure identically in the parameter iff every coefficient of the
residual polynomial vanishes.  Structure tensors whose entries are ``Poly``
values can be fed through the same axiom evaluators as rational ones, so
coefficient extraction is exact and shares no code with sampling.
"""

from __future__ import annotations

from fractions import Fraction


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

    @staticmethod
    def const(c) -> "Poly":
        return Poly((Fraction(c),))

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
