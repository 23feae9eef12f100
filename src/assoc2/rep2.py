"""Representations of two-term algebras on two-term complexes.

A representation of g on a complex V1 --dv--> V0 consists of degree-zero
left/right actions (of g0 on V0 and on V1), degree-one actions
l1 : g1 x V0 -> V1 and r1 : V0 x g1 -> V1, and three trilinear actions

    tl : g0 x g0 x V0 -> V1      written (x,y) |> u
    tm : g0 x V0 x g0 -> V1      written x |> u <| y
    tr : V0 x g0 x g0 -> V1      written u <| (x,y)

subject to sixteen compatibility axioms, labelled R01-R16.  They are not
written out here: the data is a representation exactly when the
semidirect product g + V (``cohom2.semidirect_product``, the standard
total of the zero cochain) is a two-term algebra on the basis tuples with
one argument in V, and R01-R16 are the V part of the axioms (d)-(f) there,
relabelled through the table ``REPRESENTATION`` (CONVENTIONS.md,
"Representations are the semidirect product's axioms").  The adjoint
representation puts V = g with every action a product sort and every
trilinear action equal to l3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra2 import SLOTS, TwoTermAlgebra, TwoTermComplex, Tuples, algebra_residuals, require_algebra
from .extension import as_is, by_kernel_position, kernel_residuals, swapped, tail_parts
from .integral import integral_report, twin_field
from .report import CheckReport, checked, checked_field
from .tensorops import vneg, zeros2, zeros3


@dataclass
class Representation2:
    algebra: TwoTermAlgebra
    complex: TwoTermComplex  # V1 -> V0
    l0v0: tuple  # g0 x V0 -> V0
    l0v1: tuple  # g0 x V1 -> V1
    r0v0: tuple  # V0 x g0 -> V0
    r0v1: tuple  # V1 x g0 -> V1
    l1: tuple    # g1 x V0 -> V1
    r1: tuple    # V0 x g1 -> V1
    tl: tuple    # g0 x g0 x V0 -> V1
    tm: tuple    # g0 x V0 x g0 -> V1
    tr: tuple    # V0 x g0 x g0 -> V1
    _checked: CheckReport | None = checked_field()
    _twin: object = twin_field()

    @property
    def dim0(self) -> int:
        return self.complex.dim0

    @property
    def dim1(self) -> int:
        return self.complex.dim1

    def dv(self, m):
        return self.complex.diff @ m


def adjoint_representation(g: TwoTermAlgebra) -> Representation2:
    """g acting on its own complex: actions are the products, trilinear
    actions are l3."""
    require_algebra(g)
    return Representation2(
        algebra=g,
        complex=g.complex,
        l0v0=g.l2_00,
        l0v1=g.l2_01,
        r0v0=g.l2_00,
        r0v1=g.l2_10,
        l1=g.l2_10,
        r1=g.l2_01,
        tl=g.l3,
        tm=g.l3,
        tr=g.l3,
    )


def trivial_representation(g: TwoTermAlgebra, v: TwoTermComplex) -> Representation2:
    n0, n1 = g.dim0, g.dim1
    m0, m1 = v.dim0, v.dim1
    return Representation2(
        g,
        v,
        zeros2(n0, m0, m0),
        zeros2(n0, m1, m1),
        zeros2(m0, n0, m0),
        zeros2(m1, n0, m1),
        zeros2(n1, m0, m1),
        zeros2(m0, n1, m1),
        zeros3(n0, n0, m0, m1),
        zeros3(n0, m0, n0, m1),
        zeros3(m0, n0, n0, m1),
    )


def _swapped_negating(lhs, rhs):
    """The orientation of R09-R12: sides swapped and the new lhs negated,
    against the semidirect product's sign (CONVENTIONS.md, the R09-R12
    sign caveat)."""
    return vneg(rhs), lhs


# (axiom of g + V, position of its kernel argument) -> (label, orientation,
# degree of the values).  (a)-(c) on these tuples are the compatibilities
# of dv with the actions, which the checker does not test: no entry.
REPRESENTATION = {
    ("d", 2): ("R01", swapped, 0), ("e1", 2): ("R02", swapped, 1),
    ("e2", 2): ("R03", swapped, 1), ("e3", 2): ("R04", swapped, 1),
    ("d", 1): ("R05", swapped, 0), ("e2", 1): ("R06", swapped, 1),
    ("e1", 1): ("R07", swapped, 1), ("e3", 1): ("R08", swapped, 1),
    ("d", 0): ("R09", _swapped_negating, 0), ("e3", 0): ("R10", _swapped_negating, 1),
    ("e1", 0): ("R11", _swapped_negating, 1), ("e2", 0): ("R12", _swapped_negating, 1),
    ("f", 1): ("R13", as_is, 1), ("f", 2): ("R14", as_is, 1),
    ("f", 3): ("R15", as_is, 1), ("f", 0): ("R16", as_is, 1),
}


def representation_residuals(r: Representation2):
    """R01-R16: the kernel part of the axioms of the semidirect product
    g + V on the basis tuples with one kernel argument, relabelled through
    ``REPRESENTATION`` with that argument numbered in V."""
    from .cohom2 import semidirect_product  # cohom2 imports this module

    g = r.algebra
    cuts = (g.dim0, g.dim1)
    residuals = algebra_residuals(semidirect_product(g, r), tuples=Tuples(cuts, 1))
    return kernel_residuals(by_kernel_position(residuals, SLOTS, cuts), REPRESENTATION, tail_parts(cuts))


def check_representation(r: Representation2) -> CheckReport:
    """Check R01-R16 on every basis tuple, once per representation."""

    def compute(r):
        require_algebra(r.algebra)
        return integral_report(representation_residuals, r)

    return checked(r, compute)


def require_representation(r: Representation2) -> None:
    check_representation(r).require("representation axioms fail")
