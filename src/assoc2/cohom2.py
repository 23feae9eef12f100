"""Degree-one and degree-two cohomology of a two-term algebra with
coefficients in a representation, as explicit exact linear algebra.

One-cochains are triples (phi, phi1, chi) with phi : g0 -> V0,
phi1 : g1 -> V1, chi : g0 x g0 -> V1.  Two-cochains are tuples
(psi, omega, mu, nu, theta) with psi : g1 -> V0, omega : g0^2 -> V0,
mu : g0 x g1 -> V1, nu : g1 x g0 -> V1, theta : g0^3 -> V1.

The differential d1 and the eight two-cocycle residual families coc01-coc08
are the package's frozen convention (see CONVENTIONS.md at the repository
root); d2 . d1 = 0 is enforced, not assumed, every time the matrices are
assembled.  d1 is written out here.  d2 is not: the standard total of an
extension by c (``extension_total``, shared with ``ext2.build_extension``)
is a two-term algebra exactly when c is a cocycle, so coc01-coc08 are the
kernel part of the axioms (a)-(f) of that total on base tuples, read off
``algebra2.algebra_residuals`` and relabelled by the table ``FAMILIES``.

Flattening, the assembled matrices, H2 and coboundary solves come from the
engine in ``cochain``; ``cochain_complex`` hands it this theory's block
layout, ``cochain_layouts`` (bit-exact; ``fileio`` reads and writes the
cochain files through the same layouts):
  Cochain1 = [ phi row-major | phi1 row-major | chi by (x, y, out) ]
  Cochain2 = [ psi | omega | mu | nu | theta ], each by input indices then
  output index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra2 import TwoTermAlgebra, TwoTermComplex, Tuples, algebra_residuals, require_algebra
from .cochain import CoboundaryMatrices, Cochain, CochainComplex, CohomologyResult, Layout, assemble, cohomology
from .cochain import primitive
from .exactlin import Matrix
from .extension import as_is, families_report, kernel_residuals, stacked, swapped, tail_parts, total_bilinear
from .extension import total_matrix
from .integral import on_integers
from .rep2 import Representation2, require_representation
from .report import CheckReport
from .tensorops import bil, tri, unit, vadd, vsub, tensor2, tensor3


@dataclass
class Cochain1(Cochain):
    phi: Matrix   # g0 -> V0   (m0 x n0)
    phi1: Matrix  # g1 -> V1   (m1 x n1)
    chi: tuple    # g0 x g0 -> V1

    ROW_MAJOR = ("phi", "phi1")


@dataclass
class Cochain2(Cochain):
    psi: Matrix   # g1 -> V0   (m0 x n1)
    omega: tuple  # g0 x g0 -> V0
    mu: tuple     # g0 x g1 -> V1
    nu: tuple     # g1 x g0 -> V1
    theta: tuple  # g0 x g0 x g0 -> V1


def cochain_layouts(n0: int, n1: int, m0: int, m1: int) -> tuple[Layout, Layout]:
    """The block layouts of one- and two-cochains on a pair (g, r) of dims
    (n0, n1) and (m0, m1)."""
    return (
        Layout(Cochain1, {"phi": ((n0,), m0), "phi1": ((n1,), m1), "chi": ((n0, n0), m1)}),
        Layout(
            Cochain2,
            {
                "psi": ((n1,), m0),
                "omega": ((n0, n0), m0),
                "mu": ((n0, n1), m1),
                "nu": ((n1, n0), m1),
                "theta": ((n0, n0, n0), m1),
            },
        ),
    )


def cochain_complex(g: TwoTermAlgebra, r: Representation2) -> CochainComplex:
    """Degrees 1 and 2 of the complex of (g, r) for the shared engine; the
    evaluators run on the integer twins of g and r when they have them."""
    g, r = on_integers(g), on_integers(r)
    return CochainComplex(
        *cochain_layouts(g.dim0, g.dim1, r.dim0, r.dim1),
        lambda c: d1_apply(g, r, c),
        lambda c: d2_residual(g, r, c),
        "d2 . d1 != 0: representation is not compatible with the complex",
    )


def zero_cochain2(g: TwoTermAlgebra, r: Representation2) -> Cochain2:
    return cochain_complex(g, r).c2.zero()


def flatten_cochain2(c: Cochain2) -> tuple:
    return c.flatten()


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

def d1_apply(g: TwoTermAlgebra, r: Representation2, c: Cochain1) -> Cochain2:
    """Coboundary of a one-cochain.  Componentwise:

        psi(a)     = dv phi1(a) - phi(d a)
        omega(x,y) = x|>phi(y) + phi(x)<|y - phi(x.y) + dv chi(x,y)
        mu(x,a)    = x|>phi1(a) + phi(x)<|a - phi1(x.a) + chi(x, d a)
        nu(a,x)    = a|>phi(x) + phi1(a)<|x - phi1(a.x) + chi(d a, x)
        theta(x,y,z) = x|>chi(y,z) - chi(x,y)<|z + chi(x, y.z) - chi(x.y, z)
                       - phi1(l3(x,y,z)) + (x,y)|>phi(z) + x|>phi(y)<|z
                       + phi(x)<|(y,z)
    """
    n0, n1 = g.dim0, g.dim1
    e = [unit(n0, i) for i in range(n0)]
    fv = [unit(n1, p) for p in range(n1)]
    d = g.complex.diff
    dv = r.complex.diff
    phi_col = [c.phi.col(i) for i in range(n0)]
    phi1_col = [c.phi1.col(p) for p in range(n1)]

    psi = Matrix.from_cols(
        [vsub(dv @ phi1_col[p], c.phi @ d.col(p)) for p in range(n1)], r.dim0
    )
    omega = tensor2(
        n0,
        n0,
        lambda i, j: vadd(
            bil(r.l0v0, e[i], phi_col[j]),
            bil(r.r0v0, phi_col[i], e[j]),
            vsub(dv @ c.chi[i][j], c.phi @ g.l2_00[i][j]),
        ),
    )
    mu = tensor2(
        n0,
        n1,
        lambda i, p: vadd(
            bil(r.l0v1, e[i], phi1_col[p]),
            bil(r.r1, phi_col[i], fv[p]),
            vsub(bil(c.chi, e[i], d.col(p)), c.phi1 @ g.l2_01[i][p]),
        ),
    )
    nu = tensor2(
        n1,
        n0,
        lambda p, i: vadd(
            bil(r.l1, fv[p], phi_col[i]),
            bil(r.r0v1, phi1_col[p], e[i]),
            vsub(bil(c.chi, d.col(p), e[i]), c.phi1 @ g.l2_10[p][i]),
        ),
    )
    theta = tensor3(
        n0,
        n0,
        n0,
        lambda i, j, k: vadd(
            bil(r.l0v1, e[i], c.chi[j][k]),
            vsub(bil(c.chi, e[i], g.l2_00[j][k]), bil(r.r0v1, c.chi[i][j], e[k])),
            vsub(tri(r.tl, e[i], e[j], phi_col[k]), bil(c.chi, g.l2_00[i][j], e[k])),
            vsub(tri(r.tm, e[i], phi_col[j], e[k]), c.phi1 @ g.l3[i][j][k]),
            tri(r.tr, phi_col[i], e[j], e[k]),
        ),
    )
    return Cochain2(psi, omega, mu, nu, theta)


# the kernel part of each axiom of the standard total on a base tuple:
# (cocycle family, orientation, degree of the values), the family being
# lhs - rhs of the oriented sides; see ``extension``
FAMILIES = {
    "a": ("coc01", swapped, 0), "b": ("coc02", swapped, 0), "c": ("coc03", swapped, 1),
    "d": ("coc04", swapped, 0), "e1": ("coc05", swapped, 1), "e2": ("coc06", swapped, 1),
    "e3": ("coc07", swapped, 1), "f": ("coc08", as_is, 1),
}


def extension_total(g: TwoTermAlgebra, r: Representation2, c: Cochain2) -> TwoTermAlgebra:
    """The standard total on (g + V) twisted by c, unchecked: differential
    [[d, 0], [psi, dv]], products g's plus omega, mu, nu on base arguments
    and r's actions on mixed ones, l3 plus theta on base arguments and the
    trilinear actions tl, tm, tr with one kernel argument."""
    n0, n1, m0, m1 = g.dim0, g.dim1, r.dim0, r.dim1
    deg0, deg1 = (n0, m0), (n1, m1)
    # l3 with first argument fixed is bilinear: from a base vector it is
    # l3 + theta, tl and tm; from a kernel vector tr on base arguments only
    l3 = tuple(total_bilinear(g.l3[i], c.theta[i], r.tl[i], r.tm[i], (deg0, deg0, deg1)) for i in range(n0))
    zero = (((0,) * n1,) * n0,) * n0, (((0,) * m1,) * m0,) * n0, (((0,) * m1,) * n0,) * m0
    l3 += tuple(total_bilinear(zero[0], r.tr[s], zero[1], zero[2], (deg0, deg0, deg1)) for s in range(m0))
    return TwoTermAlgebra(
        TwoTermComplex(n0 + m0, n1 + m1, total_matrix(g.complex.diff, c.psi, r.complex.diff)),
        total_bilinear(g.l2_00, c.omega, r.l0v0, r.r0v0, (deg0, deg0, deg0)),
        total_bilinear(g.l2_01, c.mu, r.l0v1, r.r1, (deg0, deg1, deg1)),
        total_bilinear(g.l2_10, c.nu, r.l1, r.r0v1, (deg1, deg0, deg1)),
        l3,
    )


def semidirect_product(g: TwoTermAlgebra, r: Representation2) -> TwoTermAlgebra:
    """g + V, the standard total of the zero cochain, unchecked; its zero
    blocks are ``int``."""
    return extension_total(g, r, on_integers(cochain_layouts(g.dim0, g.dim1, r.dim0, r.dim1)[1].zero()))


def total_cocycle_families(total: TwoTermAlgebra, g: TwoTermAlgebra):
    """Yield (family, basis tuple, lhs, rhs) for coc01-coc08, whose
    residual is lhs - rhs: the kernel part of the axioms (a)-(f) of
    ``total``, a standard total over g, on g's basis tuples."""
    cuts = (g.dim0, g.dim1)
    return kernel_residuals(algebra_residuals(total, tuples=Tuples(cuts, 0)), FAMILIES, tail_parts(cuts))


def d2_residual(g: TwoTermAlgebra, r: Representation2, c: Cochain2) -> tuple:
    """Concatenated residuals of the eight cocycle families."""
    return stacked(total_cocycle_families(extension_total(g, r, c), g))


def cocycle_report(g: TwoTermAlgebra, r: Representation2, c: Cochain2) -> CheckReport:
    return families_report(total_cocycle_families(extension_total(g, r, c), g))


def is_cocycle2(g: TwoTermAlgebra, r: Representation2, c: Cochain2) -> bool:
    return all(x == 0 for x in d2_residual(g, r, c))


def is_cocycle1(g: TwoTermAlgebra, r: Representation2, c: Cochain1) -> bool:
    return d1_apply(g, r, c).is_zero()


# ---------------------------------------------------------------------------
# assembled matrices, H2 and coboundaries (the shared engine)
# ---------------------------------------------------------------------------

def assemble_matrices(g: TwoTermAlgebra, r: Representation2) -> CoboundaryMatrices:
    """Matrices of d1 and of the residual map d2 in the flattening order,
    with d2 . d1 = 0 verified (see ``cochain.assemble``)."""
    require_algebra(g)
    require_representation(r)
    return assemble(cochain_complex(g, r))


def second_cohomology(g: TwoTermAlgebra, r: Representation2) -> CohomologyResult:
    """dim Z2, dim B2, dim H2 = Z2/B2, plus representative cocycles."""
    return cohomology(cochain_complex(g, r), assemble_matrices(g, r))


def is_coboundary(g: TwoTermAlgebra, r: Representation2, c: Cochain2):
    """A preimage one-cochain when c is in the image of d1, else None.

    The preimage is re-verified by applying d1 to it.
    """
    return primitive(cochain_complex(g, r), assemble_matrices(g, r), c)
