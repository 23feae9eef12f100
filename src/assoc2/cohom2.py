"""Degree-one and degree-two cohomology of a two-term algebra with
coefficients in a representation, as explicit exact linear algebra.

One-cochains are triples (phi, phi1, chi) with phi : g0 -> V0,
phi1 : g1 -> V1, chi : g0 x g0 -> V1.  Two-cochains are tuples
(psi, omega, mu, nu, theta) with psi : g1 -> V0, omega : g0^2 -> V0,
mu : g0 x g1 -> V1, nu : g1 x g0 -> V1, theta : g0^3 -> V1.

The differential d1 and the eight two-cocycle residual families coc01-coc08
are the package's frozen convention (see CONVENTIONS.md at the repository
root); d2 . d1 = 0 is enforced, not assumed, every time the matrices are
assembled.  Neither is written out here.  The standard total of an
extension by c (``extension_total``, shared with ``ext2.build_extension``)
is a two-term algebra exactly when c is a cocycle, so coc01-coc08 are the
kernel part of the axioms (a)-(f) of that total on base tuples, read off
``algebra2.algebra_residuals`` and relabelled by the table ``FAMILIES``.
Two splittings of one extension differ by a one-cochain, and their
extracted cocycles by its coboundary, so d1 of (phi, phi1, chi) is the
cocycle extracted from the splitting of the semidirect product g + V
shifted by it: the kernel part of ``algebra2.homomorphism_residuals`` of
that splitting, relabelled by ``EXTRACTED``.  A homotopy derivation is a
one-cocycle of the adjoint with chi = -D2, and ``check_derivation`` reads
its conditions off the same residuals (``DERIVATION``).

Flattening, the assembled matrices, H2 and coboundary solves come from the
engine in ``cochain``; ``cochain_complex`` hands it this theory's block
layout, ``cochain_layouts`` (bit-exact; ``fileio`` reads and writes the
cochain files through the same layouts):
  Cochain1 = [ phi row-major | phi1 row-major | chi by (x, y, out) ]
  Cochain2 = [ psi | omega | mu | nu | theta ], each by input indices then
  output index.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .algebra2 import Homomorphism2, HomotopyDerivation, TwoTermAlgebra, TwoTermComplex, Tuples, algebra_residuals
from .algebra2 import homomorphism_residuals, require_algebra
from .cochain import CoboundaryMatrices, Cochain, CochainComplex, CohomologyResult, Layout, assemble, cohomology
from .cochain import primitive
from .exactlin import Matrix
from .extension import as_is, families_report, kernel_residuals, negated, placed, shifted, stacked, swapped
from .extension import tail_parts, total_bilinear, total_matrix
from .integral import integral_report, on_integers
from .rep2 import Representation2, adjoint_representation, require_representation
from .report import CheckReport, kept
from .tensorops import tmap


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


def complex_shape(base: tuple[int, int], coefficients: tuple[int, int]) -> tuple[int, int, int]:
    """(dim C1, dim C2, rows of d2) on a pair whose base and coefficients
    have the given dims by degree, counted without evaluating anything: d2
    has a row per base tuple of coc01-coc08 ((i, p), (p, i) and (i, j, k)
    in V0; (p, q), three of shape (i, j, p) and (i, j, k, t) in V1) and
    coordinate of their values."""
    (n0, n1), (m0, m1) = base, coefficients
    c1, c2 = cochain_layouts(n0, n1, m0, m1)
    rows = (2 * n0 * n1 + n0**3) * m0 + (n1 * n1 + 3 * n0 * n0 * n1 + n0**4) * m1
    return c1.dim, c2.dim, rows


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

# the kernel part of each condition on a splitting (f0, f1, f2) of g into
# a standard total over it, as a homomorphism: (block of the two-cochain,
# orientation, degree of the values); the block is rhs - lhs.  For the
# stored splitting of an extension (f2 = 0) it is the extracted cocycle,
# for the splitting shifted by a one-cochain into g + V its coboundary
EXTRACTED = {
    "i": ("psi", swapped, 0), "ii": ("omega", swapped, 0), "iii1": ("mu", swapped, 1),
    "iii2": ("nu", swapped, 1), "iv": ("theta", swapped, 1),
}


def shifted_splitting(g: TwoTermAlgebra, r: Representation2, f0: Matrix, f1: Matrix, f2: tuple) -> Homomorphism2:
    """The candidate homomorphism x -> x + f0(x), a -> a + f1(a) from g into
    the semidirect product g + V, with degree-2 part f2 : g0 x g0 -> V1 in
    the kernel; f0, f1 and f2 may hold linear forms."""
    pad = (0,) * g.dim1
    f2 = tuple(tuple(pad + v for v in row) for row in f2)
    return Homomorphism2(g, semidirect_product(g, r), shifted(f0), shifted(f1), f2)


def d1_apply(g: TwoTermAlgebra, r: Representation2, c: Cochain1) -> Cochain2:
    """Coboundary of a one-cochain (phi, phi1, chi): the failure of the
    splitting shifted by it, (phi, phi1, chi) into g + V, to be a
    homomorphism, read as an extracted cocycle through ``EXTRACTED``; the
    formulas are in CONVENTIONS.md."""
    residuals = homomorphism_residuals(shifted_splitting(g, r, c.phi, c.phi1, c.chi))
    cuts = (g.dim0, g.dim1)
    return placed(kernel_residuals(residuals, EXTRACTED, tail_parts(cuts)), cochain_layouts(*cuts, r.dim0, r.dim1)[1])


# the conditions of a homotopy derivation (D0, D1, D2) as the kernel part
# of the homomorphism residuals of the splitting (D0, D1, -D2) into g + g,
# the adjoint's semidirect product: (condition, orientation, degree)
DERIVATION = {
    "i": ("chain", as_is, 0), "ii": ("a", negated, 0), "iii1": ("b", negated, 1),
    "iii2": ("c", negated, 1), "iv": ("d", negated, 1),
}


def check_derivation(dv: HomotopyDerivation) -> CheckReport:
    """A homotopy derivation is a one-cocycle of the adjoint with
    chi = -D2, so its conditions are read off d1's evaluator (over ℤ when
    the derivation is integral)."""
    g = dv.algebra
    tails = tail_parts((g.dim0, g.dim1))
    h = shifted_splitting(g, adjoint_representation(g), dv.d0, dv.d1, tmap(operator.neg, dv.d2))
    return integral_report(lambda h: kernel_residuals(homomorphism_residuals(h), DERIVATION, tails), h)


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
    blocks are ``int``.  Built once per pair and kept on r with g, so that
    no other algebra takes g's id while it is kept."""
    zero = lambda: on_integers(cochain_layouts(g.dim0, g.dim1, r.dim0, r.dim1)[1].zero())
    return kept(r, ("g + V", id(g)), lambda: (g, extension_total(g, r, zero())))[1]


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
