"""Abelian extensions of two-term algebras.

An extension is stored concretely: a total algebra, the index sets that
carve out the abelian kernel as coordinate subspaces in each degree, the
projection onto the base, and an explicit splitting (a degreewise right
inverse of the projection; never chosen implicitly).  From this data the
induced representation and the extracted two-cocycle are computed; building
an extension from a cocycle produces the standard total structure on
(base + kernel) (``cohom2.extension_total``, the total d2 is read off) with
the canonical inclusion, projection, and splitting.  The induced
representation and the abelian-kernel checks are the total's maps on the
stored splitting and kernel (``INDUCED``, ``ABELIAN``).

Equivalence of two extensions over the same base and kernel is decided by a
single linear solve against the assembled d1 matrix; a successful witness is
converted into an honest homomorphism between the totals and re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra2 import INPUTS, Homomorphism2, TwoTermAlgebra, TwoTermComplex, check_algebra, check_homomorphism
from .algebra2 import dense, evaluated, require_algebra
from .cochain import Inequivalence  # noqa: F401  (check_equivalence's certificate)
from .cohom2 import Cochain1, Cochain2, assemble_matrices, cochain_complex, extension_total, splitting_cocycle
from .cohom2 import total_cocycle_families
from .exactlin import Matrix
from .extension import SplitExtension, families_report
from .integral import on_integers
from .rep2 import Representation2, require_representation
from .report import CheckReport
from .tensorops import sparse_matrix, sparse_tensor, unit, vzero, zeros2


class Extension2(SplitExtension):
    """An abelian extension of a two-term algebra (fields in ``SplitExtension``)."""

    def kernel_complex(self) -> TwoTermComplex:
        cols = [self.restrict0(self.total.complex.diff @ self.incl1(unit(self.hdim1, s))) for s in range(self.hdim1)]
        return TwoTermComplex(self.hdim0, self.hdim1, Matrix.from_cols(cols, self.hdim0))

    def require(self) -> None:
        require_extension(self)

    def representation(self) -> Representation2:
        return extract_representation(self)

    def cocycle(self) -> Cochain2:
        return extract_cocycle(self)

    def complex_of(self, r: Representation2):
        return cochain_complex(self.base, r), assemble_matrices(self.base, r)


# the total's maps on the splitting and kernel (``SplitExtension.fed``): a
# product or l3 with two kernel arguments vanishes, the kernel part of one
# with one kernel argument is the induced representation
ABELIAN = {
    "abelian-00": (0, "l2_00", ("incl0", "incl0")), "abelian-01": (1, "l2_01", ("incl0", "incl1")),
    "abelian-10": (1, "l2_10", ("incl1", "incl0")), "abelian-l3a": (1, "l3", ("incl0", "incl0", None)),
    "abelian-l3b": (1, "l3", ("incl0", None, "incl0")), "abelian-l3c": (1, "l3", (None, "incl0", "incl0")),
}
INDUCED = {
    "l0v0": (0, "l2_00", ("sigma0", "incl0")), "l0v1": (1, "l2_01", ("sigma0", "incl1")),
    "r0v0": (0, "l2_00", ("incl0", "sigma0")), "r0v1": (1, "l2_10", ("incl1", "sigma0")),
    "l1": (1, "l2_10", ("sigma1", "incl0")), "r1": (1, "l2_01", ("incl0", "sigma1")),
    "tl": (1, "l3", ("sigma0", "sigma0", "incl0")), "tm": (1, "l3", ("sigma0", "incl0", "sigma0")),
    "tr": (1, "l3", ("incl0", "sigma0", "sigma0")),
}


def extension_residuals(e: Extension2):
    """Strict projection, exactness and splitting, a differential that keeps
    the kernel, and abelian kernel."""
    n0 = e.total.dim0
    proj = Homomorphism2(e.total, e.base, e.p0, e.p1, zeros2(n0, n0, e.base.dim1))
    for v in check_homomorphism(proj).violations:
        yield "proj-" + v.condition, v.where, v.lhs, v.rhs
    yield from e.split_residuals()
    for s in range(e.hdim1):
        yield "kernel-diff", (s,), e.p0 @ (e.total.complex.diff @ e.incl1(unit(e.hdim1, s))), vzero(e.base.dim0)
    yield from e.abelian_residuals(ABELIAN, e.total.sparse_maps(), INPUTS)


def check_extension(e: Extension2) -> CheckReport:
    """Structural invariants, once per extension: exactness, strict
    projection, abelian kernel, and the splitting property."""
    return e.check(require_algebra, extension_residuals)


def require_extension(e: Extension2) -> None:
    check_extension(e).require("extension invariants fail")


def extract_representation(e: Extension2) -> Representation2:
    """The induced action of the base on the kernel, over ℤ when the
    extension is integral; independent of which splitting is stored."""
    require_extension(e)
    t = on_integers(e)
    return Representation2(e.base, e.kernel_complex(), **t.induced(INDUCED, t.total.sparse_maps(), INPUTS))


def extract_cocycle(e: Extension2) -> Cochain2:
    """The failure of the stored splitting (sigma0, sigma1, 0) to be a
    homomorphism (``cohom2.splitting_cocycle``), evaluated over ℤ when the
    extension is integral."""
    require_extension(e)
    g, t = e.base, e.total
    sigma = on_integers(Homomorphism2(g, t, e.sigma0, e.sigma1, zeros2(g.dim0, g.dim0, t.dim1)))
    return splitting_cocycle(sigma, (e.restrict0, e.restrict1), (e.hdim0, e.hdim1))


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


# the degree-2 part of a witness: lambda2 of the projected arguments
WITNESS = {"f2": ([(1, "chi", ("p0", "p0"))],)}


def witness_homomorphism(e1: Extension2, e2: Extension2, lam: Cochain1) -> Homomorphism2:
    """The candidate equivalence built from a one-cochain: through the stored
    splittings, x + u maps to x + lambda0(x) + u degreewise, with degree-2
    part lambda2 of the projected arguments."""
    f0, f1 = e1.witness_maps(e2, lam.phi, lam.phi1)
    n0 = e1.total.dim0
    maps = {"chi": sparse_tensor(lam.chi, 2, e2.hdim1), "p0": sparse_matrix(e1.p0)}
    f2 = dense(evaluated(WITNESS, maps, {"chi": (None, None), "p0": (0,)}, (n0,))["f2"], e2.incl1)
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
