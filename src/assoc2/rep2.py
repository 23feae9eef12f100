"""Representations of two-term algebras on two-term complexes.

A representation of g on a complex V1 --dv--> V0 consists of degree-zero
left/right actions (of g0 on V0 and on V1), degree-one actions
l1 : g1 x V0 -> V1 and r1 : V0 x g1 -> V1, and three trilinear actions

    tl : g0 x g0 x V0 -> V1      written (x,y) |> u
    tm : g0 x V0 x g0 -> V1      written x |> u <| y
    tr : V0 x g0 x g0 -> V1      written u <| (x,y)

subject to sixteen compatibility axioms, labelled R01-R16 in the order
checked below.  The adjoint representation puts V = g with every action a
product sort and every trilinear action equal to l3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra2 import TwoTermAlgebra, TwoTermComplex, require_algebra
from .integral import integral_report, twin_field
from .report import CheckReport, checked, checked_field
from .tensorops import bil, tri, unit, vadd, vsub, zeros2, zeros3


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


def representation_residuals(r: Representation2):
    g = r.algebra
    n0, n1 = g.dim0, g.dim1
    m0, m1 = r.dim0, r.dim1
    e = [unit(n0, i) for i in range(n0)]
    fv = [unit(n1, p) for p in range(n1)]
    u = [unit(m0, s) for s in range(m0)]
    w = [unit(m1, s) for s in range(m1)]
    dg = [g.complex.diff.col(p) for p in range(n1)]
    dv = r.complex.diff

    # left-action block
    for i in range(n0):
        for j in range(n0):
            xy = g.l2_00[i][j]
            for s in range(m0):
                yield (
                    "R01",
                    (i, j, s),
                    vsub(bil(r.l0v0, xy, u[s]), bil(r.l0v0, e[i], r.l0v0[j][s])),
                    dv @ r.tl[i][j][s],
                )
            for s in range(m1):
                yield (
                    "R02",
                    (i, j, s),
                    vsub(bil(r.l0v1, xy, w[s]), bil(r.l0v1, e[i], r.l0v1[j][s])),
                    tri(r.tl, e[i], e[j], dv.col(s)),
                )
    for i in range(n0):
        for p in range(n1):
            xa = g.l2_01[i][p]
            ax = g.l2_10[p][i]
            for s in range(m0):
                yield (
                    "R03",
                    (i, p, s),
                    vsub(bil(r.l1, xa, u[s]), bil(r.l0v1, e[i], r.l1[p][s])),
                    tri(r.tl, e[i], dg[p], u[s]),
                )
                yield (
                    "R04",
                    (p, i, s),
                    vsub(bil(r.l1, ax, u[s]), bil(r.l1, fv[p], r.l0v0[i][s])),
                    tri(r.tl, dg[p], e[i], u[s]),
                )

    # mixed block
    for i in range(n0):
        for j in range(n0):
            for s in range(m0):
                yield (
                    "R05",
                    (i, s, j),
                    vsub(bil(r.r0v0, r.l0v0[i][s], e[j]), bil(r.l0v0, e[i], r.r0v0[s][j])),
                    dv @ r.tm[i][s][j],
                )
            for s in range(m1):
                yield (
                    "R06",
                    (i, s, j),
                    vsub(bil(r.r0v1, r.l0v1[i][s], e[j]), bil(r.l0v1, e[i], r.r0v1[s][j])),
                    tri(r.tm, e[i], dv.col(s), e[j]),
                )
    for i in range(n0):
        for p in range(n1):
            for s in range(m0):
                yield (
                    "R07",
                    (i, s, p),
                    vsub(bil(r.r1, r.l0v0[i][s], fv[p]), bil(r.l0v1, e[i], r.r1[s][p])),
                    tri(r.tm, e[i], u[s], dg[p]),
                )
                yield (
                    "R08",
                    (p, s, i),
                    vsub(bil(r.r0v1, r.l1[p][s], e[i]), bil(r.l1, fv[p], r.r0v0[s][i])),
                    tri(r.tm, dg[p], u[s], e[i]),
                )

    # right-action block
    for i in range(n0):
        for j in range(n0):
            xy = g.l2_00[i][j]
            for s in range(m0):
                yield (
                    "R09",
                    (s, i, j),
                    vsub(bil(r.r0v0, u[s], xy), bil(r.r0v0, r.r0v0[s][i], e[j])),
                    dv @ r.tr[s][i][j],
                )
            for s in range(m1):
                yield (
                    "R10",
                    (s, i, j),
                    vsub(bil(r.r0v1, w[s], xy), bil(r.r0v1, r.r0v1[s][i], e[j])),
                    tri(r.tr, dv.col(s), e[i], e[j]),
                )
    for i in range(n0):
        for p in range(n1):
            xa = g.l2_01[i][p]
            ax = g.l2_10[p][i]
            for s in range(m0):
                yield (
                    "R11",
                    (s, i, p),
                    vsub(bil(r.r1, u[s], xa), bil(r.r1, r.r0v0[s][i], fv[p])),
                    tri(r.tr, u[s], e[i], dg[p]),
                )
                yield (
                    "R12",
                    (s, p, i),
                    vsub(bil(r.r1, u[s], ax), bil(r.r0v1, r.r1[s][p], e[i])),
                    tri(r.tr, u[s], dg[p], e[i]),
                )

    # trilinear compatibility block
    for i in range(n0):
        for s in range(m0):
            for j in range(n0):
                for k in range(n0):
                    yz = g.l2_00[j][k]
                    # R13: x|>(u<|(y,z)) + (x|>u<|y)<|z
                    #      = (x|>u)<|(y,z) - x|>(u<|y)<|z + x|>u<|(y.z)
                    lhs = vadd(bil(r.l0v1, e[i], r.tr[s][j][k]), bil(r.r0v1, r.tm[i][s][j], e[k]))
                    rhs = vadd(
                        vsub(tri(r.tr, r.l0v0[i][s], e[j], e[k]), tri(r.tm, e[i], r.r0v0[s][j], e[k])),
                        tri(r.tm, e[i], u[s], yz),
                    )
                    yield "R13", (i, s, j, k), lhs, rhs
                    # R14: x|>(y|>u<|z) + ((x,y)|>u)<|z
                    #      = (x.y)|>u<|z - x|>(y|>u)<|z + (x,y)|>(u<|z)
                    lhs = vadd(bil(r.l0v1, e[i], r.tm[j][s][k]), bil(r.r0v1, r.tl[i][j][s], e[k]))
                    rhs = vadd(
                        vsub(tri(r.tm, g.l2_00[i][j], u[s], e[k]), tri(r.tm, e[i], r.l0v0[j][s], e[k])),
                        tri(r.tl, e[i], e[j], r.r0v0[s][k]),
                    )
                    yield "R14", (i, j, s, k), lhs, rhs
                    # R15: x|>((y,z)|>u) + l3(x,y,z)|>u
                    #      = (x.y,z)|>u - (x,y.z)|>u + (x,y)|>(z|>u)
                    lhs = vadd(bil(r.l0v1, e[i], r.tl[j][k][s]), bil(r.l1, g.l3[i][j][k], u[s]))
                    rhs = vadd(
                        vsub(tri(r.tl, g.l2_00[i][j], e[k], u[s]), tri(r.tl, e[i], yz, u[s])),
                        tri(r.tl, e[i], e[j], r.l0v0[k][s]),
                    )
                    yield "R15", (i, j, k, s), lhs, rhs
                    # R16: u<|l3(x,y,z) + (u<|(x,y))<|z
                    #      = (u<|x)<|(y,z) - u<|(x.y,z) + u<|(x,y.z)
                    lhs = vadd(bil(r.r1, u[s], g.l3[i][j][k]), bil(r.r0v1, r.tr[s][i][j], e[k]))
                    rhs = vadd(
                        vsub(tri(r.tr, r.r0v0[s][i], e[j], e[k]), tri(r.tr, u[s], g.l2_00[i][j], e[k])),
                        tri(r.tr, u[s], e[i], yz),
                    )
                    yield "R16", (s, i, j, k), lhs, rhs


def check_representation(r: Representation2) -> CheckReport:
    """Check R01-R16 on every basis tuple, once per representation."""

    def compute(r):
        require_algebra(r.algebra)
        return integral_report(representation_residuals, r)

    return checked(r, compute)


def require_representation(r: Representation2) -> None:
    check_representation(r).require("representation axioms fail")
