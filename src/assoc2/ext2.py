"""Abelian extensions of two-term algebras.

An extension is stored concretely: a total algebra, the index sets that
carve out the abelian kernel as coordinate subspaces in each degree, the
projection onto the base, and an explicit splitting (a degreewise right
inverse of the projection; never chosen implicitly).  From this data the
induced representation and the extracted two-cocycle are computed; building
an extension from a cocycle produces the standard total structure on
(base + kernel) with the canonical inclusion, projection, and splitting.

Equivalence of two extensions over the same base and kernel is decided by a
single linear solve against the assembled d1 matrix; a successful witness is
converted into an honest homomorphism between the totals and re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra2 import (
    Homomorphism2,
    TwoTermAlgebra,
    TwoTermComplex,
    check_homomorphism,
    require_algebra,
)
from .cochain import Inequivalence, cohomologous
from .cohom2 import Cochain1, Cochain2, assemble_matrices, cochain_complex, d2_residual
from .exactlin import Matrix, rank
from .rep2 import Representation2, require_representation
from .report import CheckReport, Violation
from .tensorops import bil, tri, unit, vadd, vsub, vzero, tensor2, tensor3, zeros2, tflat


@dataclass
class Extension2:
    total: TwoTermAlgebra
    base: TwoTermAlgebra
    sub0: tuple[int, ...]   # indices of kernel coordinates inside total degree 0
    sub1: tuple[int, ...]   # indices of kernel coordinates inside total degree 1
    p0: Matrix              # total0 -> base0
    p1: Matrix              # total1 -> base1
    sigma0: Matrix          # base0 -> total0
    sigma1: Matrix          # base1 -> total1

    @property
    def hdim0(self) -> int:
        return len(self.sub0)

    @property
    def hdim1(self) -> int:
        return len(self.sub1)

    def incl0(self, v):
        out = [Fraction(0)] * self.total.dim0
        for pos, idx in enumerate(self.sub0):
            out[idx] = v[pos]
        return tuple(out)

    def incl1(self, v):
        out = [Fraction(0)] * self.total.dim1
        for pos, idx in enumerate(self.sub1):
            out[idx] = v[pos]
        return tuple(out)

    def restrict0(self, v):
        return tuple(v[idx] for idx in self.sub0)

    def restrict1(self, v):
        return tuple(v[idx] for idx in self.sub1)

    def kernel_complex(self) -> TwoTermComplex:
        cols = [self.restrict0(self.total.d(self.incl1(unit(self.hdim1, s)))) for s in range(self.hdim1)]
        return TwoTermComplex(self.hdim0, self.hdim1, Matrix.from_cols(cols, self.hdim0))


def check_extension(e: Extension2) -> CheckReport:
    """Structural invariants: exactness, strict projection, abelian kernel,
    and the splitting property."""
    violations: list[Violation] = []

    def flag(cond, where, lhs, rhs):
        if lhs != rhs:
            violations.append(Violation(cond, where, tuple(lhs), tuple(rhs)))

    require_algebra(e.total)
    require_algebra(e.base)
    n0, n1 = e.total.dim0, e.total.dim1
    b0, b1 = e.base.dim0, e.base.dim1

    if sorted(set(e.sub0)) != sorted(e.sub0) or sorted(set(e.sub1)) != sorted(e.sub1):
        raise ValueError("kernel index sets contain duplicates")

    # projection is a strict homomorphism and kills exactly the kernel coordinates
    proj = Homomorphism2(e.total, e.base, e.p0, e.p1, zeros2(n0, n0, b1))
    for v in check_homomorphism(proj).violations:
        violations.append(Violation("proj-" + v.condition, v.where, v.lhs, v.rhs))
    for pos in range(e.hdim0):
        flag("exact0", (pos,), e.p0 @ e.incl0(unit(e.hdim0, pos)), vzero(b0))
    for pos in range(e.hdim1):
        flag("exact1", (pos,), e.p1 @ e.incl1(unit(e.hdim1, pos)), vzero(b1))
    if rank(e.p0) != b0 or n0 - rank(e.p0) != e.hdim0:
        violations.append(Violation("exact0-rank", (), (rank(e.p0), n0 - e.hdim0), (b0, rank(e.p0))))
    if rank(e.p1) != b1 or n1 - rank(e.p1) != e.hdim1:
        violations.append(Violation("exact1-rank", (), (rank(e.p1), n1 - e.hdim1), (b1, rank(e.p1))))

    # differential maps the kernel into the kernel
    for s in range(e.hdim1):
        img = e.total.d(e.incl1(unit(e.hdim1, s)))
        flag("kernel-diff", (s,), e.p0 @ img, vzero(b0))

    # splitting property
    flag("split0", (), tflat((e.p0 @ e.sigma0).entries), tflat(Matrix.identity(b0).entries))
    flag("split1", (), tflat((e.p1 @ e.sigma1).entries), tflat(Matrix.identity(b1).entries))

    # abelian kernel: any product or l3 with two kernel arguments vanishes
    for s in range(e.hdim0):
        us = e.incl0(unit(e.hdim0, s))
        for t in range(e.hdim0):
            ut = e.incl0(unit(e.hdim0, t))
            flag("abelian-00", (s, t), e.total.m00(us, ut), vzero(n0))
            for k in range(n0):
                ek = unit(n0, k)
                flag("abelian-l3a", (s, t, k), e.total.l3v(us, ut, ek), vzero(n1))
                flag("abelian-l3b", (s, k, t), e.total.l3v(us, ek, ut), vzero(n1))
                flag("abelian-l3c", (k, s, t), e.total.l3v(ek, us, ut), vzero(n1))
        for t in range(e.hdim1):
            mt = e.incl1(unit(e.hdim1, t))
            flag("abelian-01", (s, t), e.total.m01(us, mt), vzero(n1))
            flag("abelian-10", (t, s), e.total.m10(mt, us), vzero(n1))
    return CheckReport(violations).sorted()


def require_extension(e: Extension2) -> None:
    check_extension(e).require("extension invariants fail")


def extract_representation(e: Extension2) -> Representation2:
    """The induced action of the base on the kernel (computed through the
    stored splitting; independent of which splitting is stored)."""
    require_extension(e)
    g = e.base
    n0, n1 = g.dim0, g.dim1
    h = e.kernel_complex()
    s0 = [e.sigma0.col(i) for i in range(n0)]
    s1 = [e.sigma1.col(p) for p in range(n1)]
    t = e.total
    hu = [e.incl0(unit(e.hdim0, s)) for s in range(e.hdim0)]
    hw = [e.incl1(unit(e.hdim1, s)) for s in range(e.hdim1)]

    return Representation2(
        algebra=g,
        complex=h,
        l0v0=tensor2(n0, e.hdim0, lambda i, s: e.restrict0(t.m00(s0[i], hu[s]))),
        l0v1=tensor2(n0, e.hdim1, lambda i, s: e.restrict1(t.m01(s0[i], hw[s]))),
        r0v0=tensor2(e.hdim0, n0, lambda s, i: e.restrict0(t.m00(hu[s], s0[i]))),
        r0v1=tensor2(e.hdim1, n0, lambda s, i: e.restrict1(t.m10(hw[s], s0[i]))),
        l1=tensor2(n1, e.hdim0, lambda p, s: e.restrict1(t.m10(s1[p], hu[s]))),
        r1=tensor2(e.hdim0, n1, lambda s, p: e.restrict1(t.m01(hu[s], s1[p]))),
        tl=tensor3(n0, n0, e.hdim0, lambda i, j, s: e.restrict1(t.l3v(s0[i], s0[j], hu[s]))),
        tm=tensor3(n0, e.hdim0, n0, lambda i, s, j: e.restrict1(t.l3v(s0[i], hu[s], s0[j]))),
        tr=tensor3(e.hdim0, n0, n0, lambda s, i, j: e.restrict1(t.l3v(hu[s], s0[i], s0[j]))),
    )


def extract_cocycle(e: Extension2) -> Cochain2:
    """The failure of the stored splitting to be a homomorphism."""
    require_extension(e)
    g = e.base
    n0, n1 = g.dim0, g.dim1
    t = e.total
    s0 = [e.sigma0.col(i) for i in range(n0)]
    s1 = [e.sigma1.col(p) for p in range(n1)]

    psi = Matrix.from_cols(
        [e.restrict0(vsub(t.d(s1[p]), e.sigma0 @ g.complex.diff.col(p))) for p in range(n1)],
        e.hdim0,
    )
    omega = tensor2(
        n0, n0, lambda i, j: e.restrict0(vsub(t.m00(s0[i], s0[j]), e.sigma0 @ g.l2_00[i][j]))
    )
    mu = tensor2(
        n0, n1, lambda i, p: e.restrict1(vsub(t.m01(s0[i], s1[p]), e.sigma1 @ g.l2_01[i][p]))
    )
    nu = tensor2(
        n1, n0, lambda p, i: e.restrict1(vsub(t.m10(s1[p], s0[i]), e.sigma1 @ g.l2_10[p][i]))
    )
    theta = tensor3(
        n0, n0, n0,
        lambda i, j, k: e.restrict1(vsub(t.l3v(s0[i], s0[j], s0[k]), e.sigma1 @ g.l3[i][j][k])),
    )
    return Cochain2(psi, omega, mu, nu, theta)


def build_extension(
    g: TwoTermAlgebra, h: TwoTermComplex, r: Representation2, c: Cochain2
) -> Extension2:
    """The standard extension on (base + kernel) twisted by a cocycle.

    Degree-0 coordinates are base0 then kernel0, likewise in degree 1.
    Rejected if c has a nonzero residual.
    """
    require_algebra(g)
    require_representation(r)
    if r.complex != h:
        raise ValueError("representation does not act on the given kernel complex")
    if any(x != 0 for x in d2_residual(g, r, c)):
        from .cohom2 import cocycle_report

        cocycle_report(g, r, c).require("not a two-cocycle")
    n0, n1, m0, m1 = g.dim0, g.dim1, r.dim0, r.dim1
    N0, N1 = n0 + m0, n1 + m1

    def j0(xg, xh):
        return tuple(xg) + tuple(xh)

    def j1(ag, ah):
        return tuple(ag) + tuple(ah)

    def split0(v):
        return v[:n0], v[n0:]

    def split1(v):
        return v[:n1], v[n1:]

    diff_cols = []
    for p in range(n1):
        diff_cols.append(j0(g.complex.diff.col(p), c.psi.col(p)))
    for s in range(m1):
        diff_cols.append(j0(vzero(n0), r.complex.diff.col(s)))
    diff = Matrix.from_cols(diff_cols, N0)

    def mul00(iu, jv):
        xg_i, xh_i = split0(unit(N0, iu))
        xg_j, xh_j = split0(unit(N0, jv))
        gpart = bil(g.l2_00, xg_i, xg_j)
        hpart = vadd(
            bil(c.omega, xg_i, xg_j),
            bil(r.l0v0, xg_i, xh_j),
            bil(r.r0v0, xh_i, xg_j),
        )
        return j0(gpart, hpart)

    def mul01(iu, pv):
        xg, xh = split0(unit(N0, iu))
        ag, ah = split1(unit(N1, pv))
        gpart = bil(g.l2_01, xg, ag)
        hpart = vadd(
            bil(c.mu, xg, ag),
            bil(r.l0v1, xg, ah),
            bil(r.r1, xh, ag),
        )
        return j1(gpart, hpart)

    def mul10(pv, iu):
        ag, ah = split1(unit(N1, pv))
        xg, xh = split0(unit(N0, iu))
        gpart = bil(g.l2_10, ag, xg)
        hpart = vadd(
            bil(c.nu, ag, xg),
            bil(r.l1, ag, xh),
            bil(r.r0v1, ah, xg),
        )
        return j1(gpart, hpart)

    def l3fun(iu, jv, kw):
        xg_i, xh_i = split0(unit(N0, iu))
        xg_j, xh_j = split0(unit(N0, jv))
        xg_k, xh_k = split0(unit(N0, kw))
        gpart = tri(g.l3, xg_i, xg_j, xg_k)
        hpart = vadd(
            tri(c.theta, xg_i, xg_j, xg_k),
            tri(r.tl, xg_i, xg_j, xh_k),
            tri(r.tm, xg_i, xh_j, xg_k),
            tri(r.tr, xh_i, xg_j, xg_k),
        )
        return j1(gpart, hpart)

    total = TwoTermAlgebra(
        TwoTermComplex(N0, N1, diff),
        tensor2(N0, N0, mul00),
        tensor2(N0, N1, mul01),
        tensor2(N1, N0, mul10),
        tensor3(N0, N0, N0, l3fun),
    )
    p0 = Matrix(tuple(tuple(Fraction(1 if i == j else 0) for j in range(N0)) for i in range(n0)), N0)
    p1 = Matrix(tuple(tuple(Fraction(1 if i == j else 0) for j in range(N1)) for i in range(n1)), N1)
    sigma0 = Matrix(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n0)) for i in range(N0)), n0)
    sigma1 = Matrix(tuple(tuple(Fraction(1 if i == j else 0) for j in range(n1)) for i in range(N1)), n1)
    ext = Extension2(
        total, g, tuple(range(n0, N0)), tuple(range(n1, N1)), p0, p1, sigma0, sigma1
    )
    require_algebra(total)
    return ext


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceWitness:
    primitive: Cochain1  # (lambda0, lambda1, lambda2) with d1(primitive) = c1 - c2
    homomorphism: Homomorphism2


def witness_homomorphism(e1: Extension2, e2: Extension2, lam: Cochain1) -> Homomorphism2:
    """The candidate equivalence built from a one-cochain: through the stored
    splittings, x + u maps to x + lambda0(x) + u degreewise, with degree-2
    part lambda2 of the projected arguments."""
    g = e1.base

    def f0_col(j):
        col = unit(e1.total.dim0, j)
        x = e1.p0 @ col
        u = e1.restrict0(vsub(col, e1.sigma0 @ x))
        return vadd(e2.sigma0 @ x, e2.incl0(vadd(lam.phi @ x, u)))

    def f1_col(j):
        col = unit(e1.total.dim1, j)
        a = e1.p1 @ col
        m = e1.restrict1(vsub(col, e1.sigma1 @ a))
        return vadd(e2.sigma1 @ a, e2.incl1(vadd(lam.phi1 @ a, m)))

    f0 = Matrix.from_cols([f0_col(j) for j in range(e1.total.dim0)], e2.total.dim0)
    f1 = Matrix.from_cols([f1_col(j) for j in range(e1.total.dim1)], e2.total.dim1)
    f2 = tensor2(
        e1.total.dim0,
        e1.total.dim0,
        lambda i, j: e2.incl1(bil(lam.chi, e1.p0 @ unit(e1.total.dim0, i), e1.p0 @ unit(e1.total.dim0, j))),
    )
    return Homomorphism2(e1.total, e2.total, f0, f1, f2)


def check_equivalence(e1: Extension2, e2: Extension2):
    """Witness search: extract both cocycles, solve for a primitive of their
    difference, and verify the induced homomorphism.  Returns an
    EquivalenceWitness or an Inequivalence certificate."""
    require_extension(e1)
    require_extension(e2)
    if e1.base != e2.base:
        raise ValueError("extensions have different bases")
    if e1.kernel_complex() != e2.kernel_complex():
        raise ValueError("extensions have different kernel complexes")
    r1 = extract_representation(e1)
    r2 = extract_representation(e2)
    if r1 != r2:
        raise ValueError("extensions induce different representations and are not comparable")

    c1 = extract_cocycle(e1)
    c2 = extract_cocycle(e2)
    lam = cohomologous(cochain_complex(e1.base, r1), assemble_matrices(e1.base, r1), c1, c2)
    if isinstance(lam, Inequivalence):
        return lam
    hom = witness_homomorphism(e1, e2, lam)
    check_homomorphism(hom).require("witness does not induce a homomorphism")
    # the witness respects the inclusions and projections
    incl_ok = all(
        hom.f0 @ e1.incl0(unit(e1.hdim0, s)) == e2.incl0(unit(e1.hdim0, s))
        for s in range(e1.hdim0)
    ) and all(
        hom.f1 @ e1.incl1(unit(e1.hdim1, s)) == e2.incl1(unit(e1.hdim1, s))
        for s in range(e1.hdim1)
    )
    proj_ok = (e2.p0 @ hom.f0 == e1.p0) and (e2.p1 @ hom.f1 == e1.p1)
    if not (incl_ok and proj_ok):
        raise AssertionError("witness does not commute with inclusion/projection")
    return EquivalenceWitness(lam, hom)
