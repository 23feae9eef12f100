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
again a polynomial identity.  The maps of g twisted by N that the
conditions are built from are the blocks of d1(N0, N1, 0), the first-order
part; the conditions (``NIJENHUIS``) and the second-order l3
(``SECOND_ORDER``) are term tables with N0, N1, N2 and those blocks as
maps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product

from .algebra2 import INPUTS, Homomorphism2, TwoTermAlgebra, TwoTermComplex, algebra_residuals, dense, evaluated
from .algebra2 import homomorphism_residuals, require_algebra
from .cohom2 import Cochain2, d1_apply, Cochain1
from .exactlin import ZERO, Matrix
from .poly import GeneratesVerdict, T, generates_verdict, identity_report
from .rep2 import adjoint_representation
from .report import CheckReport, report_from
from .tensorops import Sparse, sparse_matrix, sparse_tensor, tmap, tzip, zeros2


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

# conditions (i)-(v) on a candidate (N0, N1, N2) as data (see
# ``residual_sides``): N0 and N1 are the maps "n0" and "n1", "0" is the zero
# map g1 -> g0, and psi, omega, mu, nu, theta are the blocks of d1(N0, N1, 0)
# in the adjoint representation, the maps of g twisted by N: d N1 - N0 d,
# N0x.y + x.N0y - N0(x.y) and its sorts, and the l3 of one N0 argument
# minus N1 l3; l3_n2 is evaluated from theta first, and theta2, the
# second-order l3 of the deformation, from the blocks of d1(N0, N1, N2)
L3_NN = [(1, "l3", ("n0", "n0", None)), (1, "l3", ("n0", None, "n0")), (1, "l3", (None, "n0", "n0"))]
SECOND_ORDER = {
    "l3_n2": (L3_NN + [(-1, "n1", ("theta",))],),
    "theta2": (L3_NN + [(1, "n2", (None, "omega")), (-1, "n1", ("theta",)), (1, "l2_01", ("n0", "n2")),
                        (-1, "n2", ("omega", None)), (-1, "l2_10", ("n2", "n0"))],),
}
NIJENHUIS = {
    "i": ([(1, "n0", ("psi",))], [(1, "0", (None,))]),
    "ii": ([(1, "n0", ("omega",))], [(1, "l2_00", ("n0", "n0"))]),
    "iii": ([(1, "n1", ("mu",))], [(1, "l2_01", ("n0", "n1"))]),
    "iv": ([(1, "n1", ("nu",))], [(1, "l2_10", ("n1", "n0"))]),
    "v": ([(1, "n1", ("l3_n2",))], [(1, "l3", ("n0", "n0", "n0"))]),
}
NIJENHUIS_INPUTS = {**INPUTS, "0": (1,), "n0": (0,), "n1": (1,), "n2": (0, 0), "psi": (1,), "omega": (0, 0),
                    "mu": (0, 1), "nu": (1, 0), "theta": (0, 0, 0), "l3_n2": (0, 0, 0)}


def _nijenhuis_maps(g: TwoTermAlgebra, n0: Matrix, n1: Matrix, first, **maps) -> dict:
    """``maps``, g's, N0's, N1's, the zero map and the blocks of a
    two-cochain ``first`` of either theory, as maps."""
    maps.update(g.sparse_maps(), n0=sparse_matrix(n0), n1=sparse_matrix(n1), **{"0": Sparse((), ZERO, g.dim0)})
    for name, block in ((f.name, getattr(first, f.name)) for f in fields(first)):
        matrix = isinstance(block, Matrix)
        maps[name] = sparse_matrix(block) if matrix else sparse_tensor(block, len(NIJENHUIS_INPUTS[name]))
    return maps


def nijenhuis_conditions(g: TwoTermAlgebra, n0: Matrix, n1: Matrix, first, table: dict):
    """Yield (condition, basis tuple, lhs, rhs) for the conditions of
    ``table`` on every basis tuple, ``first`` being d1(N0, N1, 0)."""
    dims = g.dim0, g.dim1
    maps = _nijenhuis_maps(g, n0, n1, first)
    if "v" in table:  # it reads l3_n2, which reads theta
        l3_n2 = evaluated({"l3_n2": SECOND_ORDER["l3_n2"]}, maps, NIJENHUIS_INPUTS, dims)["l3_n2"]
        maps["l3_n2"] = sparse_tensor(dense(l3_n2), 3)
    for condition, ([(lhs, lzero), (rhs, rzero)], shape) in evaluated(table, maps, NIJENHUIS_INPUTS, dims).items():
        for where in product(*map(range, shape)):
            yield condition, where, tuple(lhs.get(where, lzero)), tuple(rhs.get(where, rzero))


def nijenhuis_residuals(g: TwoTermAlgebra, n: NijenhuisCandidate):
    """Conditions (i)-(v); N2 takes no part in them."""
    first = d1_apply(g, adjoint_representation(g), Cochain1(n.n0, n.n1, zeros2(g.dim0, g.dim0, g.dim1)))
    return nijenhuis_conditions(g, n.n0, n.n1, first, NIJENHUIS)


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
    maps = _nijenhuis_maps(g, n.n0, n.n1, first, n2=sparse_tensor(n.n2, 2))
    theta2 = dense(evaluated({"theta2": SECOND_ORDER["theta2"]}, maps, NIJENHUIS_INPUTS, (g.dim0, g.dim1))["theta2"])
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
