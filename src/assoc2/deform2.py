"""One-parameter deformations of two-term algebras.

A perturbation (psi, omega, mu, nu, theta1[, theta2]) deforms the structure
maps to d + t.psi, products + t.(omega|mu|nu), l3 + t.theta1 + t^2.theta2.
Whether the deformed structure satisfies the axioms identically in t is a
statement about polynomial coefficients, so the verifier runs the ordinary
axiom evaluators over tensors with polynomial entries and inspects the
coefficients exactly.  One function (``specialize``) gives the deformed
structure over any scalar: the parameter ``T`` itself for the coefficient
check, or sample values of t for an independent cross-check (degree <= 2
per axiom when theta2 is absent, so three nonzero sample points already
decide).

Nijenhuis operators package the trivial deformations: a candidate
(N0, N1, N2) passing conditions (i)-(v) induces a second-order deformation
that the triple (id + t.N0, id + t.N1, t.N2) trivializes, and the check is
again a polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra2 import (
    Homomorphism2,
    TwoTermAlgebra,
    TwoTermComplex,
    algebra_residuals,
    homomorphism_residuals,
    require_algebra,
)
from .cohom2 import Cochain2, d1_apply, Cochain1
from .exactlin import Matrix
from .poly import GeneratesVerdict, T, generates_verdict, identity_report
from .rep2 import adjoint_representation
from .report import CheckReport, report_from
from .tensorops import apply2, tensor2, tensor3, tmap, tzip, unit, vadd, view2, vsub, zeros2


@dataclass
class PolyStructure:
    base: TwoTermAlgebra
    first_order: Cochain2            # components read as structure perturbations
    second_order_l3: tuple | None = None  # optional t^2 correction to l3

    def __post_init__(self):
        g = self.base
        if self.first_order.psi.shape != (g.dim0, g.dim1):
            raise ValueError("psi perturbation must have the differential's shape")


@dataclass
class NijenhuisCandidate:
    n0: Matrix  # g0 -> g0
    n1: Matrix  # g1 -> g1
    n2: tuple   # g0 x g0 -> g1, used only by the trivializing triple


def zero_candidate(g: TwoTermAlgebra) -> NijenhuisCandidate:
    return NijenhuisCandidate(
        Matrix.zero(g.dim0, g.dim0), Matrix.zero(g.dim1, g.dim1), zeros2(g.dim0, g.dim0, g.dim1)
    )


def identity_candidate(g: TwoTermAlgebra) -> NijenhuisCandidate:
    return NijenhuisCandidate(
        Matrix.identity(g.dim0), Matrix.identity(g.dim1), zeros2(g.dim0, g.dim0, g.dim1)
    )


# ---------------------------------------------------------------------------
# building deformed structures
# ---------------------------------------------------------------------------

def specialize(p: PolyStructure, param) -> TwoTermAlgebra:
    """The deformed algebra over a scalar: a value of the parameter, or the
    parameter ``T`` itself for the algebra over polynomials in it."""
    g, c = p.base, p.first_order
    lin = lambda base, pert: tzip(lambda b, q: b + param * q, base, pert)
    l3 = lin(g.l3, c.theta)
    if p.second_order_l3 is not None:
        square = param * param
        l3 = tzip(lambda b, q: b + square * q, l3, p.second_order_l3)
    return TwoTermAlgebra(
        TwoTermComplex(g.dim0, g.dim1, Matrix(lin(g.complex.diff.entries, c.psi.entries), g.dim1)),
        lin(g.l2_00, c.omega),
        lin(g.l2_01, c.mu),
        lin(g.l2_10, c.nu),
        l3,
    )


def structure_from_cochain(g: TwoTermAlgebra, c: Cochain2) -> TwoTermAlgebra:
    """Read a two-cochain as a structure in its own right (differential psi,
    products omega/mu/nu, homotopy theta)."""
    return TwoTermAlgebra(TwoTermComplex(g.dim0, g.dim1, c.psi), c.omega, c.mu, c.nu, c.theta)


# ---------------------------------------------------------------------------
# the generation criterion
# ---------------------------------------------------------------------------

def check_generates(p: PolyStructure) -> GeneratesVerdict:
    """Two-part criterion for a first-order perturbation.

    Expand every axiom of the deformed structure as a polynomial in the
    parameter.  The constant coefficients vanish because the base passes its
    checker; the linear coefficients vanish iff the perturbation is a
    two-cocycle in the adjoint representation; the quadratic coefficients
    vanish iff the perturbation is itself a valid structure.
    """
    if p.second_order_l3 is not None:
        raise ValueError("generation criterion applies to first-order deformations")
    require_algebra(p.base)
    return generates_verdict(algebra_residuals(specialize(p, T)))


# ---------------------------------------------------------------------------
# Nijenhuis operators
# ---------------------------------------------------------------------------

def _derived_maps(g: TwoTermAlgebra, n: NijenhuisCandidate):
    n0d, n1d = g.dim0, g.dim1
    e = [unit(n0d, i) for i in range(n0d)]
    fv = [unit(n1d, p) for p in range(n1d)]
    n0col = [n.n0.col(i) for i in range(n0d)]
    n1col = [n.n1.col(p) for p in range(n1d)]
    d = g.complex.diff

    d_n = Matrix.from_cols([vsub(d @ n1col[p], n.n0 @ d.col(p)) for p in range(n1d)], n0d)
    dot00 = tensor2(
        n0d, n0d,
        lambda i, j: vsub(vadd(g.m00(n0col[i], e[j]), g.m00(e[i], n0col[j])), n.n0 @ g.l2_00[i][j]),
    )
    dot01 = tensor2(
        n0d, n1d,
        lambda i, p: vsub(vadd(g.m01(n0col[i], fv[p]), g.m01(e[i], n1col[p])), n.n1 @ g.l2_01[i][p]),
    )
    dot10 = tensor2(
        n1d, n0d,
        lambda p, i: vsub(vadd(g.m10(n1col[p], e[i]), g.m10(fv[p], n0col[i])), n.n1 @ g.l2_10[p][i]),
    )
    l3_n = tensor3(
        n0d, n0d, n0d,
        lambda i, j, k: vsub(
            vadd(g.l3v(n0col[i], e[j], e[k]), g.l3v(e[i], n0col[j], e[k]), g.l3v(e[i], e[j], n0col[k])),
            n.n1 @ g.l3[i][j][k],
        ),
    )
    l3_n2 = tensor3(
        n0d, n0d, n0d,
        lambda i, j, k: vsub(
            vadd(
                g.l3v(n0col[i], n0col[j], e[k]),
                g.l3v(n0col[i], e[j], n0col[k]),
                g.l3v(e[i], n0col[j], n0col[k]),
            ),
            n.n1 @ l3_n[i][j][k],
        ),
    )
    return d_n, dot00, dot01, dot10, l3_n, l3_n2


def nijenhuis_residuals(g: TwoTermAlgebra, n: NijenhuisCandidate):
    n0d, n1d = g.dim0, g.dim1
    e = [unit(n0d, i) for i in range(n0d)]
    fv = [unit(n1d, p) for p in range(n1d)]
    n0col = [n.n0.col(i) for i in range(n0d)]
    n1col = [n.n1.col(p) for p in range(n1d)]
    d_n, dot00, dot01, dot10, l3_n, l3_n2 = _derived_maps(g, n)

    for p in range(n1d):
        yield "i", (p,), n.n0 @ d_n.col(p), (Fraction(0),) * n0d
    for i in range(n0d):
        for j in range(n0d):
            yield "ii", (i, j), n.n0 @ dot00[i][j], g.m00(n0col[i], n0col[j])
        for p in range(n1d):
            yield "iii", (i, p), n.n1 @ dot01[i][p], g.m01(n0col[i], n1col[p])
            yield "iv", (p, i), n.n1 @ dot10[p][i], g.m10(n1col[p], n0col[i])
    for i in range(n0d):
        for j in range(n0d):
            for k in range(n0d):
                yield "v", (i, j, k), n.n1 @ l3_n2[i][j][k], g.l3v(n0col[i], n0col[j], n0col[k])


def check_nijenhuis(g: TwoTermAlgebra, n: NijenhuisCandidate) -> CheckReport:
    require_algebra(g)
    return report_from(nijenhuis_residuals(g, n))


def nijenhuis_deformation(g: TwoTermAlgebra, n: NijenhuisCandidate) -> PolyStructure:
    """The second-order deformation induced by a Nijenhuis candidate.

    Its first-order part is exactly the coboundary of (N0, N1, N2) in the
    adjoint representation; the second-order l3 correction adds the doubly
    N0-inserted l3 terms, the N1-correction of theta1, and the N2 coupling.
    """
    require_algebra(g)
    adj = adjoint_representation(g)
    first = d1_apply(g, adj, Cochain1(n.n0, n.n1, n.n2))
    n0d = g.dim0
    e = [unit(n0d, i) for i in range(n0d)]
    n0col = [n.n0.col(i) for i in range(n0d)]
    theta1 = first.theta
    omega = first.omega
    n2 = view2(n.n2)
    theta2 = tensor3(
        n0d,
        n0d,
        n0d,
        lambda i, j, k: vadd(
            g.l3v(n0col[i], n0col[j], e[k]),
            g.l3v(n0col[i], e[j], n0col[k]),
            g.l3v(e[i], n0col[j], n0col[k]),
            vsub(apply2(n2, e[i], omega[j][k]), n.n1 @ theta1[i][j][k]),
            vsub(g.m01(n0col[i], n.n2[j][k]), apply2(n2, omega[i][j], e[k])),
            vsub((Fraction(0),) * g.dim1, g.m10(n.n2[i][j], n0col[k])),
        ),
    )
    return PolyStructure(g, first, theta2)


def trivializing_triple(g: TwoTermAlgebra, n: NijenhuisCandidate, param) -> tuple:
    """F0 = id + t N0, F1 = id + t N1, F2 = t N2 over the given scalar."""
    f0 = Matrix(tzip(lambda i, x: i + param * x, Matrix.identity(g.dim0).entries, n.n0.entries), g.dim0)
    f1 = Matrix(tzip(lambda i, x: i + param * x, Matrix.identity(g.dim1).entries, n.n1.entries), g.dim1)
    f2 = tmap(lambda x: param * x, n.n2)
    return f0, f1, f2


def check_trivializing(g: TwoTermAlgebra, p: PolyStructure, n: NijenhuisCandidate) -> CheckReport:
    """Verify that (id + t N0, id + t N1, t N2) is a homomorphism from the
    deformed structure to the base, as an exact polynomial identity.

    Violations carry the nonzero coefficients of the failed identities: the
    basis tuple is extended by (entry index, power of the parameter).
    """
    if p.base is not g and p.base != g:
        raise ValueError("deformation is not over the given base")
    f0, f1, f2 = trivializing_triple(g, n, T)
    return identity_report(homomorphism_residuals(Homomorphism2(specialize(p, T), g, f0, f1, f2)))
