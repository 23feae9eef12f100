"""Abelian extensions of two-term algebras.

An extension is stored concretely: a total algebra, the index sets that
carve out the abelian kernel as coordinate subspaces in each degree, the
projection onto the base, and an explicit splitting (a degreewise right
inverse of the projection; never chosen implicitly).  From this data the
induced representation and the extracted two-cocycle are computed; building
an extension from a cocycle produces the standard total structure on
(base + kernel) (``cohom2.extension_total``, the total d2 is read off) with
the canonical inclusion, projection, and splitting.

Equivalence of two extensions over the same base and kernel is decided by a
single linear solve against the assembled d1 matrix; a successful witness is
converted into an honest homomorphism between the totals and re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra2 import Homomorphism2, TwoTermAlgebra, TwoTermComplex, check_algebra, check_homomorphism
from .algebra2 import homomorphism_residuals, require_algebra
from .cochain import Inequivalence  # noqa: F401  (check_equivalence's certificate)
from .cohom2 import Cochain1, Cochain2, assemble_matrices, cochain_complex, cochain_layouts, extension_total
from .cohom2 import total_cocycle_families
from .exactlin import Matrix
from .extension import SplitExtension, families_report, kernel_residuals, placed, swapped
from .integral import on_integers
from .rep2 import Representation2, require_representation
from .report import CheckReport
from .tensorops import bil, unit, vzero, tensor2, tensor3, zeros2


class Extension2(SplitExtension):
    """An abelian extension of a two-term algebra (fields in ``SplitExtension``)."""

    def kernel_complex(self) -> TwoTermComplex:
        cols = [self.restrict0(self.total.d(self.incl1(unit(self.hdim1, s)))) for s in range(self.hdim1)]
        return TwoTermComplex(self.hdim0, self.hdim1, Matrix.from_cols(cols, self.hdim0))

    def require(self) -> None:
        require_extension(self)

    def representation(self) -> Representation2:
        return extract_representation(self)

    def cocycle(self) -> Cochain2:
        return extract_cocycle(self)

    def complex_of(self, r: Representation2):
        return cochain_complex(self.base, r), assemble_matrices(self.base, r)


def extension_residuals(e: Extension2):
    """Strict projection, exactness and splitting, a differential that keeps
    the kernel, and abelian kernel."""
    n0, n1 = e.total.dim0, e.total.dim1
    proj = Homomorphism2(e.total, e.base, e.p0, e.p1, zeros2(n0, n0, e.base.dim1))
    for v in check_homomorphism(proj).violations:
        yield "proj-" + v.condition, v.where, v.lhs, v.rhs
    yield from e.split_residuals()
    for s in range(e.hdim1):
        yield "kernel-diff", (s,), e.p0 @ e.total.d(e.incl1(unit(e.hdim1, s))), vzero(e.base.dim0)

    # abelian kernel: any product or l3 with two kernel arguments vanishes
    for s in range(e.hdim0):
        us = e.incl0(unit(e.hdim0, s))
        for t in range(e.hdim0):
            ut = e.incl0(unit(e.hdim0, t))
            yield "abelian-00", (s, t), e.total.m00(us, ut), vzero(n0)
            for k in range(n0):
                ek = unit(n0, k)
                yield "abelian-l3a", (s, t, k), e.total.l3v(us, ut, ek), vzero(n1)
                yield "abelian-l3b", (s, k, t), e.total.l3v(us, ek, ut), vzero(n1)
                yield "abelian-l3c", (k, s, t), e.total.l3v(ek, us, ut), vzero(n1)
        for t in range(e.hdim1):
            mt = e.incl1(unit(e.hdim1, t))
            yield "abelian-01", (s, t), e.total.m01(us, mt), vzero(n1)
            yield "abelian-10", (t, s), e.total.m10(mt, us), vzero(n1)


def check_extension(e: Extension2) -> CheckReport:
    """Structural invariants, once per extension: exactness, strict
    projection, abelian kernel, and the splitting property."""
    return e.check(require_algebra, extension_residuals)


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


# the kernel part of each condition on the splitting (sigma0, sigma1, 0)
# as a homomorphism from the base to the total: (block of the cocycle,
# orientation, degree of the values); the block is rhs - lhs
EXTRACTED = {
    "i": ("psi", swapped, 0), "ii": ("omega", swapped, 0), "iii1": ("mu", swapped, 1),
    "iii2": ("nu", swapped, 1), "iv": ("theta", swapped, 1),
}


def extract_cocycle(e: Extension2) -> Cochain2:
    """The failure of the stored splitting to be a homomorphism: the kernel
    part of the homomorphism residuals of (sigma0, sigma1, 0), evaluated
    over ℤ when the extension is integral."""
    require_extension(e)
    g, t = e.base, e.total
    sigma = on_integers(Homomorphism2(g, t, e.sigma0, e.sigma1, zeros2(g.dim0, g.dim0, t.dim1)))
    residuals = kernel_residuals(homomorphism_residuals(sigma), EXTRACTED, (e.restrict0, e.restrict1))
    return placed(residuals, cochain_layouts(g.dim0, g.dim1, e.hdim0, e.hdim1)[1])


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
    total = extension_total(g, r, c)
    if not check_algebra(total).passed:  # exactly when c is not a cocycle
        families_report(total_cocycle_families(total, g)).require("not a two-cocycle")
        require_algebra(total)
    return Extension2.standard(total, g)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceWitness:
    primitive: Cochain1  # (lambda0, lambda1, lambda2) with d1(primitive) = c1 - c2
    homomorphism: Homomorphism2
    representation: Representation2  # induced by both extensions; primitive's coefficients


def witness_homomorphism(e1: Extension2, e2: Extension2, lam: Cochain1) -> Homomorphism2:
    """The candidate equivalence built from a one-cochain: through the stored
    splittings, x + u maps to x + lambda0(x) + u degreewise, with degree-2
    part lambda2 of the projected arguments."""
    f0, f1 = e1.witness_maps(e2, lam.phi, lam.phi1)
    n0 = e1.total.dim0
    f2 = tensor2(n0, n0, lambda i, j: e2.incl1(bil(lam.chi, e1.p0 @ unit(n0, i), e1.p0 @ unit(n0, j))))
    return Homomorphism2(e1.total, e2.total, f0, f1, f2)


def check_equivalence(e1: Extension2, e2: Extension2):
    """Witness search: extract both cocycles, solve for a primitive of their
    difference, and verify the induced homomorphism.  Returns an
    EquivalenceWitness or an Inequivalence certificate."""

    def check_witness(lam, r):
        hom = witness_homomorphism(e1, e2, lam)
        check_homomorphism(hom).require("witness does not induce a homomorphism")
        return EquivalenceWitness(lam, hom, r), hom.f0, hom.f1

    return e1.equivalence(e2, lambda a, b: a.kernel_complex() == b.kernel_complex(), check_witness)
