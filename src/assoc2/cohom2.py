"""Degree-one and degree-two cohomology of a two-term algebra with
coefficients in a representation, as explicit exact linear algebra.

One-cochains are triples (phi, phi1, chi) with phi : g0 -> V0,
phi1 : g1 -> V1, chi : g0 x g0 -> V1.  Two-cochains are tuples
(psi, omega, mu, nu, theta) with psi : g1 -> V0, omega : g0^2 -> V0,
mu : g0 x g1 -> V1, nu : g1 x g0 -> V1, theta : g0^3 -> V1.

The differential d1 and the eight two-cocycle residual families coc01-coc08
implemented here are the package's frozen convention (see CONVENTIONS.md at
the repository root); d2 . d1 = 0 is enforced, not assumed, every time the
matrices are assembled.

Flattening, the assembled matrices, H2 and coboundary solves come from the
engine in ``cochain``; ``cochain_complex`` hands it this theory's block
layout (bit-exact, shared with the file formats):
  Cochain1 = [ phi row-major | phi1 row-major | chi by (x, y, out) ]
  Cochain2 = [ psi | omega | mu | nu | theta ], each by input indices then
  output index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra2 import TwoTermAlgebra, require_algebra
from .cochain import (
    CoboundaryMatrices,
    Cochain,
    CochainComplex,
    CohomologyResult,
    Layout,
    assemble,
    cohomology,
    primitive,
)
from .exactlin import Matrix
from .integral import on_integers
from .rep2 import Representation2, require_representation
from .report import CheckReport, report_from
from .tensorops import bil, tri, unit, vadd, vneg, vsub, vzero, tensor2, tensor3


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


def cochain_complex(g: TwoTermAlgebra, r: Representation2) -> CochainComplex:
    """Degrees 1 and 2 of the complex of (g, r) for the shared engine; the
    evaluators run on the integer twins of g and r when they have them."""
    n0, n1, m0, m1 = g.dim0, g.dim1, r.dim0, r.dim1
    g, r = on_integers(g), on_integers(r)
    return CochainComplex(
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


def d2_residual_blocks(g: TwoTermAlgebra, r: Representation2, c: Cochain2):
    """Yield (family, basis tuple, residual vector) for coc01-coc08.

    A two-cochain is a cocycle iff every residual vanishes.  Families:

      coc01 (x,a):   x|>psi(a) - psi(x.a) + omega(x, d a) - dv mu(x,a)
      coc02 (a,x):   psi(a)<|x - psi(a.x) + omega(d a, x) - dv nu(a,x)
      coc03 (a,b):   a|>psi(b) + nu(a, d b) - psi(a)<|b - mu(d a, b)
      coc04 (x,y,z): omega(x,y)<|z - x|>omega(y,z) + omega(x.y, z)
                     - omega(x, y.z) - dv theta(x,y,z) - psi(l3(x,y,z))
      coc05 (x,y,a): omega(x,y)<|a - x|>mu(y,a) + mu(x.y, a) - mu(x, y.a)
                     - theta(x,y,d a) - (x,y)|>psi(a)
      coc06 (x,a,y): mu(x,a)<|y - x|>nu(a,y) + nu(x.a, y) - mu(x, a.y)
                     - theta(x,d a,y) - x|>psi(a)<|y
      coc07 (a,x,y): nu(a,x)<|y - a|>omega(x,y) + nu(a.x, y) - nu(a, x.y)
                     - theta(d a,x,y) - psi(a)<|(x,y)
      coc08 (x,y,z,t): x|>theta(y,z,t) + theta(x,y,z)<|t - theta(x.y,z,t)
                     + theta(x,y.z,t) - theta(x,y,z.t) + mu(x, l3(y,z,t))
                     + nu(l3(x,y,z), t) - omega(x,y)<|(z,t)
                     + x|>omega(y,z)<|t - (x,y)|>omega(z,t)
    """
    n0, n1 = g.dim0, g.dim1
    e = [unit(n0, i) for i in range(n0)]
    fv = [unit(n1, p) for p in range(n1)]
    d = g.complex.diff
    dv = r.complex.diff
    dcol = [d.col(p) for p in range(n1)]
    psi_col = [c.psi.col(p) for p in range(n1)]
    mu_at = lambda x, a: bil(c.mu, x, a)
    nu_at = lambda a, x: bil(c.nu, a, x)
    om_at = lambda x, y: bil(c.omega, x, y)
    th_at = lambda x, y, z: tri(c.theta, x, y, z)

    for i in range(n0):
        for p in range(n1):
            res = vadd(
                bil(r.l0v0, e[i], psi_col[p]),
                vsub(om_at(e[i], dcol[p]), c.psi @ g.l2_01[i][p]),
                vneg(dv @ c.mu[i][p]),
            )
            yield "coc01", (i, p), res
            res = vadd(
                bil(r.r0v0, psi_col[p], e[i]),
                vsub(om_at(dcol[p], e[i]), c.psi @ g.l2_10[p][i]),
                vneg(dv @ c.nu[p][i]),
            )
            yield "coc02", (p, i), res
    for p in range(n1):
        for q in range(n1):
            res = vadd(
                bil(r.l1, fv[p], psi_col[q]),
                vsub(nu_at(fv[p], dcol[q]), bil(r.r1, psi_col[p], fv[q])),
                vneg(mu_at(dcol[p], fv[q])),
            )
            yield "coc03", (p, q), res
    for i in range(n0):
        for j in range(n0):
            xy = g.l2_00[i][j]
            for k in range(n0):
                res = vadd(
                    vsub(bil(r.r0v0, c.omega[i][j], e[k]), bil(r.l0v0, e[i], c.omega[j][k])),
                    vsub(om_at(xy, e[k]), om_at(e[i], g.l2_00[j][k])),
                    vneg(dv @ c.theta[i][j][k]),
                    vneg(c.psi @ g.l3[i][j][k]),
                )
                yield "coc04", (i, j, k), res
            for p in range(n1):
                res = vadd(
                    vsub(bil(r.r1, c.omega[i][j], fv[p]), bil(r.l0v1, e[i], c.mu[j][p])),
                    vsub(mu_at(xy, fv[p]), mu_at(e[i], g.l2_01[j][p])),
                    vneg(th_at(e[i], e[j], dcol[p])),
                    vneg(tri(r.tl, e[i], e[j], psi_col[p])),
                )
                yield "coc05", (i, j, p), res
                res = vadd(
                    vsub(bil(r.r0v1, c.mu[i][p], e[j]), bil(r.l0v1, e[i], c.nu[p][j])),
                    vsub(nu_at(g.l2_01[i][p], e[j]), mu_at(e[i], g.l2_10[p][j])),
                    vneg(th_at(e[i], dcol[p], e[j])),
                    vneg(tri(r.tm, e[i], psi_col[p], e[j])),
                )
                yield "coc06", (i, p, j), res
                res = vadd(
                    vsub(bil(r.r0v1, c.nu[p][i], e[j]), bil(r.l1, fv[p], c.omega[i][j])),
                    vsub(nu_at(g.l2_10[p][i], e[j]), nu_at(fv[p], xy)),
                    vneg(th_at(dcol[p], e[i], e[j])),
                    vneg(tri(r.tr, psi_col[p], e[i], e[j])),
                )
                yield "coc07", (p, i, j), res
    for i in range(n0):
        for j in range(n0):
            xy = g.l2_00[i][j]
            for k in range(n0):
                yz = g.l2_00[j][k]
                for t in range(n0):
                    res = vadd(
                        bil(r.l0v1, e[i], c.theta[j][k][t]),
                        bil(r.r0v1, c.theta[i][j][k], e[t]),
                        vsub(th_at(e[i], yz, e[t]), th_at(xy, e[k], e[t])),
                        vsub(mu_at(e[i], g.l3[j][k][t]), th_at(e[i], e[j], g.l2_00[k][t])),
                        vsub(nu_at(g.l3[i][j][k], e[t]), tri(r.tr, c.omega[i][j], e[k], e[t])),
                        vsub(tri(r.tm, e[i], c.omega[j][k], e[t]), tri(r.tl, e[i], e[j], c.omega[k][t])),
                    )
                    yield "coc08", (i, j, k, t), res


def d2_residual(g: TwoTermAlgebra, r: Representation2, c: Cochain2) -> tuple:
    """Concatenated residuals of the eight cocycle families."""
    out = []
    for _, _, res in d2_residual_blocks(g, r, c):
        out.extend(res)
    return tuple(out)


def cocycle_report(g: TwoTermAlgebra, r: Representation2, c: Cochain2) -> CheckReport:
    def residuals():
        for fam, where, res in d2_residual_blocks(g, r, c):
            yield fam, where, tuple(res), vzero(len(res))

    return report_from(residuals())


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
