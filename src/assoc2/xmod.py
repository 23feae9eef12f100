"""Crossed modules over associative algebras: the strict case.

A crossed module is a triple (h, p, f): an associative algebra p, a
p-bimodule h, and an equivariant map f : h -> p with f(a).b = a.f(b)
(both sides read through the actions).  Strict two-term algebras (l3 = 0)
and crossed modules determine each other, and the whole graded apparatus
has a strict mirror here: representations (V, W, phi), semidirect
products, a two-term cochain complex with seven cocycle families,
deformations with Nijenhuis pairs, and abelian extensions classified by
the second cohomology.  This module holds the formulas and the structure
checks; the linear algebra of the complex (flattening, assembly, H2,
coboundary solves) is the shared engine in ``cochain``, fed by
``xmod_cochain_complex``.  As in ``cohom2``, d2 is not written out: the
families xcoc1-xcoc7 are the kernel part of the crossed-module axioms of
the standard total (``xmod_extension_total``, shared with
``xmod_build_extension``) on base tuples, relabelled by ``XFAMILIES``.
Nor are the representation axioms: they are the same axioms of the
semidirect product on tuples with one kernel argument (``XREPRESENTATION``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra2 import AssocAlgebra, Bimodule, TwoTermAlgebra, TwoTermComplex, Tuples, require_algebra
from .algebra2 import _assoc_residuals, _bimodule_residuals
from .cochain import CoboundaryMatrices, Cochain, CochainComplex, CohomologyResult, Layout, assemble, cohomology
from .cochain import primitive
from .exactlin import Matrix
from .extension import SplitExtension, as_is, by_kernel_position, families_report, kernel_residuals, placed
from .extension import stacked, swapped, tail_parts, total_bilinear, total_matrix
from .integral import integral_report, on_integers, twin_field
from .poly import GeneratesVerdict, T, generates_verdict, identity_report
from .report import CheckReport, checked, checked_field, report_from
from .tensorops import bil, unit, vadd, vsub, vzero, tensor2, tzip, zeros2, zeros3


@dataclass
class CrossedModule:
    p_alg: AssocAlgebra
    h_mod: Bimodule
    f_map: Matrix  # h -> p
    _checked: CheckReport | None = checked_field()
    _twin: object = twin_field()

    @property
    def pdim(self) -> int:
        return self.p_alg.dim

    @property
    def hdim(self) -> int:
        return self.h_mod.dim

    # the degrees of the corresponding strict two-term algebra h -> p
    dim0, dim1 = pdim, hdim


# the degrees of each axiom's arguments, in the order of its basis tuple
XSLOTS = {
    "assoc": (0, 0, 0), "left": (0, 0, 1), "middle": (0, 1, 0), "right": (1, 0, 0),
    "equiv-l": (0, 1), "equiv-r": (1, 0), "peiffer": (1, 1),
}


def crossed_module_residuals(x: CrossedModule, tuples: Tuples | None = None):
    """The defining identities on the basis tuples ``tuples`` selects (all
    of them by default), p in degree 0 and h in degree 1: the
    associativity of p and the bimodule axioms of h, which are
    preconditions of the definition but take part in deformed-structure
    checks on an equal footing, then equivariance and Peiffer."""
    dims = (x.pdim, x.hdim)
    tuples = tuples or Tuples(dims, 0)
    yield from _assoc_residuals(x.p_alg, tuples)
    yield from _bimodule_residuals(x.h_mod, tuples)
    e = [unit(x.pdim, i) for i in range(x.pdim)]
    fb = [unit(x.hdim, a) for a in range(x.hdim)]
    fcol = [x.f_map.col(a) for a in range(x.hdim)]
    for i, a in tuples.of(dims, 0, 1):
        yield "equiv-l", (i, a), x.f_map @ x.h_mod.left[i][a], x.p_alg.product(e[i], fcol[a])
        yield "equiv-r", (a, i), x.f_map @ x.h_mod.right[a][i], x.p_alg.product(fcol[a], e[i])
    for a, b in tuples.of(dims, 1, 1):
        yield "peiffer", (a, b), bil(x.h_mod.left, fcol[a], fb[b]), bil(x.h_mod.right, fb[a], fcol[b])


def check_crossed_module(x: CrossedModule) -> CheckReport:
    """Every defining identity on basis tuples, once per crossed module."""
    return checked(x, lambda x: integral_report(crossed_module_residuals, x))


def require_crossed_module(x: CrossedModule) -> None:
    check_crossed_module(x).require("crossed module axioms fail")


# ---------------------------------------------------------------------------
# correspondence with strict two-term algebras
# ---------------------------------------------------------------------------

def algebra_to_crossed_module(g: TwoTermAlgebra) -> CrossedModule:
    """Strict two-term algebra -> crossed module.  Rejects nonzero l3."""
    require_algebra(g)
    if any(x != 0 for plane in g.l3 for row in plane for cell in row for x in cell):
        raise ValueError("algebra is not strict: l3 != 0")
    p = AssocAlgebra(g.dim0, g.l2_00)
    h = Bimodule(p, g.dim1, g.l2_01, g.l2_10)
    return CrossedModule(p, h, g.complex.diff)


def crossed_module_to_algebra(x: CrossedModule) -> TwoTermAlgebra:
    return TwoTermAlgebra(
        TwoTermComplex(x.pdim, x.hdim, x.f_map),
        x.p_alg.mul,
        x.h_mod.left,
        x.h_mod.right,
        zeros3(x.pdim, x.pdim, x.pdim, x.hdim),
    )


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass
class XModRepresentation:
    xm: CrossedModule
    v_mod: Bimodule   # over xm.p_alg
    w_mod: Bimodule   # over xm.p_alg
    phi: Matrix       # V -> W
    tr_l: tuple       # h x W -> V, written a |> w
    tr_r: tuple       # W x h -> V, written w <| a
    _checked: CheckReport | None = checked_field()
    _twin: object = twin_field()

    @property
    def vdim(self) -> int:
        return self.v_mod.dim

    @property
    def wdim(self) -> int:
        return self.w_mod.dim


# (axiom of (h + V, p + W), position of its kernel argument) -> (label,
# orientation, degree of the values)
XREPRESENTATION = {
    ("equiv-l", 0): ("XR03", as_is, 0), ("equiv-l", 1): ("XR01", as_is, 0),
    ("equiv-r", 0): ("XR02", as_is, 0), ("equiv-r", 1): ("XR04", as_is, 0),
    ("peiffer", 0): ("XR06", as_is, 1), ("peiffer", 1): ("XR05", as_is, 1),
    ("left", 0): ("XR08", as_is, 1), ("left", 1): ("XR07", as_is, 1), ("left", 2): ("V-left", as_is, 1),
    ("middle", 0): ("XR10", swapped, 1), ("middle", 1): ("V-middle", as_is, 1),
    ("middle", 2): ("XR09", swapped, 1),
    ("right", 0): ("V-right", as_is, 1), ("right", 1): ("XR12", swapped, 1), ("right", 2): ("XR11", swapped, 1),
    ("assoc", 0): ("W-right", swapped, 0), ("assoc", 1): ("W-middle", swapped, 0),
    ("assoc", 2): ("W-left", as_is, 0),
}


def xmod_representation_residuals(r: XModRepresentation):
    """XR01-XR12 and the bimodule axioms of V and W: the kernel part of the
    crossed-module axioms of the semidirect product on the basis tuples
    with one kernel argument, relabelled through ``XREPRESENTATION`` with
    that argument numbered in V or W."""
    cuts = (r.xm.pdim, r.xm.hdim)
    residuals = crossed_module_residuals(semidirect_product(r.xm, r), tuples=Tuples(cuts, 1))
    return kernel_residuals(by_kernel_position(residuals, XSLOTS, cuts), XREPRESENTATION, tail_parts(cuts))


def check_xmod_representation(r: XModRepresentation) -> CheckReport:
    """XR01-XR12 and the bimodule axioms of V and W, once per representation."""

    def compute(r):
        require_crossed_module(r.xm)
        return integral_report(xmod_representation_residuals, r)

    return checked(r, compute)


def require_xmod_representation(r: XModRepresentation) -> None:
    check_xmod_representation(r).require("crossed-module representation axioms fail")


def xmod_adjoint(x: CrossedModule) -> XModRepresentation:
    """(V, W, phi) = (h, p, f) with a |> w = a.w and w <| a = w.a."""
    require_crossed_module(x)
    p = x.p_alg
    return XModRepresentation(
        xm=x,
        v_mod=x.h_mod,
        w_mod=p.regular_bimodule(),
        phi=x.f_map,
        tr_l=x.h_mod.right,
        tr_r=x.h_mod.left,
    )


def xmod_trivial_representation(x: CrossedModule, nv: int, nw: int) -> XModRepresentation:
    p = x.p_alg
    return XModRepresentation(
        xm=x,
        v_mod=Bimodule(p, nv, zeros2(p.dim, nv, nv), zeros2(nv, p.dim, nv)),
        w_mod=Bimodule(p, nw, zeros2(p.dim, nw, nw), zeros2(nw, p.dim, nw)),
        phi=Matrix.zero(nw, nv),
        tr_l=zeros2(x.hdim, nw, nv),
        tr_r=zeros2(nw, x.hdim, nv),
    )


# ---------------------------------------------------------------------------
# semidirect product
# ---------------------------------------------------------------------------

def semidirect_product(x: CrossedModule, r: XModRepresentation) -> CrossedModule:
    """(h + V, p + W, f + phi) with the action-twisted products: the
    standard total of the zero cochain, unchecked; its zero blocks are
    ``int``."""
    return xmod_extension_total(x, r, on_integers(xmod_cochain_layouts(x.pdim, x.hdim, r.vdim, r.wdim)[1].zero()))


# ---------------------------------------------------------------------------
# cochain complex
# ---------------------------------------------------------------------------

@dataclass
class XCochain1(Cochain):
    n0: Matrix  # p -> W
    n1: Matrix  # h -> V

    ROW_MAJOR = ("n0", "n1")


@dataclass
class XCochain2(Cochain):
    psi: Matrix   # h -> W
    omega: tuple  # p x p -> W
    mu: tuple     # p x h -> V
    nu: tuple     # h x p -> V


def xmod_cochain_layouts(np_: int, nh: int, nv: int, nw: int) -> tuple[Layout, Layout]:
    """The block layouts of one- and two-cochains on a pair (x, r) of dims
    (p, h) and (v, w), shared with the file formats: [ n0 row-major | n1
    row-major ] and [ psi | omega | mu | nu ]."""
    return (
        Layout(XCochain1, {"n0": ((np_,), nw), "n1": ((nh,), nv)}),
        Layout(
            XCochain2,
            {"psi": ((nh,), nw), "omega": ((np_, np_), nw), "mu": ((np_, nh), nv), "nu": ((nh, np_), nv)},
        ),
    )


def xmod_cochain_complex(x: CrossedModule, r: XModRepresentation) -> CochainComplex:
    """Degrees 1 and 2 of the complex of (x, r) for the shared engine; the
    evaluators run on the integer twins of x and r when they have them."""
    x, r = on_integers(x), on_integers(r)
    return CochainComplex(
        *xmod_cochain_layouts(x.pdim, x.hdim, r.vdim, r.wdim),
        lambda c: xmod_d1_apply(x, r, c),
        lambda c: xmod_d2_residual(x, r, c),
        "d2 . d1 != 0 for this crossed-module representation",
    )


def xmod_zero_cochain2(x: CrossedModule, r: XModRepresentation) -> XCochain2:
    return xmod_cochain_complex(x, r).c2.zero()


def xmod_flatten2(c: XCochain2) -> tuple:
    return c.flatten()


def xmod_d1_apply(x: CrossedModule, r: XModRepresentation, c: XCochain1) -> XCochain2:
    """psi = phi N1 - N0 f;  omega = N0(x).y + x.N0(y) - N0(x.y);
    mu = N0(x)<|a + x.N1(a) - N1(x.a);  nu = N1(a).x + a|>N0(x) - N1(a.x)."""
    np_, nh = x.pdim, x.hdim
    e = [unit(np_, i) for i in range(np_)]
    ha = [unit(nh, a) for a in range(nh)]
    n0col = [c.n0.col(i) for i in range(np_)]
    n1col = [c.n1.col(a) for a in range(nh)]

    psi = Matrix.from_cols(
        [vsub(r.phi @ n1col[a], c.n0 @ x.f_map.col(a)) for a in range(nh)], r.wdim
    )
    omega = tensor2(
        np_, np_,
        lambda i, j: vadd(
            bil(r.w_mod.right, n0col[i], e[j]),
            vsub(bil(r.w_mod.left, e[i], n0col[j]), c.n0 @ x.p_alg.mul[i][j]),
        ),
    )
    mu = tensor2(
        np_, nh,
        lambda i, a: vadd(
            bil(r.tr_r, n0col[i], ha[a]),
            vsub(bil(r.v_mod.left, e[i], n1col[a]), c.n1 @ x.h_mod.left[i][a]),
        ),
    )
    nu = tensor2(
        nh, np_,
        lambda a, i: vadd(
            bil(r.v_mod.right, n1col[a], e[i]),
            vsub(bil(r.tr_l, ha[a], n0col[i]), c.n1 @ x.h_mod.right[a][i]),
        ),
    )
    return XCochain2(psi, omega, mu, nu)


# the kernel part of each axiom of the standard total on a base tuple:
# (cocycle family, orientation, degree of the values), the family being
# lhs - rhs of the oriented sides; see ``extension``
XFAMILIES = {
    "equiv-l": ("xcoc1", as_is, 0), "equiv-r": ("xcoc2", as_is, 0), "peiffer": ("xcoc3", as_is, 1),
    "assoc": ("xcoc4", swapped, 0), "left": ("xcoc5", swapped, 1), "right": ("xcoc6", as_is, 1),
    "middle": ("xcoc7", as_is, 1),
}


def xmod_extension_total(x: CrossedModule, r: XModRepresentation, c: XCochain2) -> CrossedModule:
    """The standard total on (p + W, h + V) twisted by c, unchecked: f_map
    [[f, 0], [psi, phi]], products and actions x's plus omega, mu, nu on
    base arguments and r's actions and pairings on mixed ones."""
    deg0, deg1 = (x.pdim, r.wdim), (x.hdim, r.vdim)
    mul = total_bilinear(x.p_alg.mul, c.omega, r.w_mod.left, r.w_mod.right, (deg0, deg0, deg0))
    p_alg = AssocAlgebra(sum(deg0), mul)
    left = total_bilinear(x.h_mod.left, c.mu, r.v_mod.left, r.tr_r, (deg0, deg1, deg1))
    right = total_bilinear(x.h_mod.right, c.nu, r.tr_l, r.v_mod.right, (deg1, deg0, deg1))
    return CrossedModule(p_alg, Bimodule(p_alg, sum(deg1), left, right), total_matrix(x.f_map, c.psi, r.phi))


def total_xcocycle_families(total: CrossedModule, x: CrossedModule):
    """Yield (family, basis tuple, lhs, rhs) for xcoc1-xcoc7, whose
    residual is lhs - rhs: the kernel part of the crossed-module axioms of
    ``total``, a standard total over x, on x's basis tuples."""
    cuts = (x.pdim, x.hdim)
    return kernel_residuals(crossed_module_residuals(total, tuples=Tuples(cuts, 0)), XFAMILIES, tail_parts(cuts))


def xmod_d2_residual(x: CrossedModule, r: XModRepresentation, c: XCochain2) -> tuple:
    """Concatenated residuals of the seven cocycle families."""
    return stacked(total_xcocycle_families(xmod_extension_total(x, r, c), x))


def xmod_cocycle_report(x: CrossedModule, r: XModRepresentation, c: XCochain2) -> CheckReport:
    return families_report(total_xcocycle_families(xmod_extension_total(x, r, c), x))


def xmod_assemble_matrices(x: CrossedModule, r: XModRepresentation) -> CoboundaryMatrices:
    require_crossed_module(x)
    require_xmod_representation(r)
    return assemble(xmod_cochain_complex(x, r))


def xmod_second_cohomology(x: CrossedModule, r: XModRepresentation) -> CohomologyResult:
    return cohomology(xmod_cochain_complex(x, r), xmod_assemble_matrices(x, r))


def xmod_is_coboundary(x: CrossedModule, r: XModRepresentation, c: XCochain2):
    return primitive(xmod_cochain_complex(x, r), xmod_assemble_matrices(x, r), c)


# ---------------------------------------------------------------------------
# deformations and Nijenhuis pairs
# ---------------------------------------------------------------------------

def xmod_deform(x: CrossedModule, c: XCochain2, param) -> CrossedModule:
    """The deformed crossed module over a scalar (a number or the
    polynomial parameter): f + t.psi, products and actions + t.(omega|mu|nu)."""
    lin = lambda base, pert: tzip(lambda b, p: b + param * p, base, pert)
    p_alg = AssocAlgebra(x.pdim, lin(x.p_alg.mul, c.omega))
    h_mod = Bimodule(p_alg, x.hdim, lin(x.h_mod.left, c.mu), lin(x.h_mod.right, c.nu))
    f_map = Matrix(lin(x.f_map.entries, c.psi.entries), x.hdim)
    return CrossedModule(p_alg, h_mod, f_map)


def xmod_check_generates(x: CrossedModule, c: XCochain2) -> GeneratesVerdict:
    """Coefficient extraction on the deformed structure: linear coefficients
    vanish iff c is a cocycle in the adjoint representation, quadratic ones
    iff (h, p, psi) with omega, mu, nu is itself a crossed module."""
    require_crossed_module(x)
    return generates_verdict(crossed_module_residuals(xmod_deform(x, c, T)))


def xmod_nijenhuis_residuals(x: CrossedModule, n0: Matrix, n1: Matrix):
    np_, nh = x.pdim, x.hdim
    e = [unit(np_, i) for i in range(np_)]
    ha = [unit(nh, a) for a in range(nh)]
    n0col = [n0.col(i) for i in range(np_)]
    n1col = [n1.col(a) for a in range(nh)]
    dotp = lambda i, j: vsub(
        vadd(x.p_alg.product(n0col[i], e[j]), x.p_alg.product(e[i], n0col[j])),
        n0 @ x.p_alg.mul[i][j],
    )
    dotl = lambda i, a: vsub(
        vadd(bil(x.h_mod.left, n0col[i], ha[a]), bil(x.h_mod.left, e[i], n1col[a])),
        n1 @ x.h_mod.left[i][a],
    )
    dotr = lambda a, i: vsub(
        vadd(bil(x.h_mod.right, n1col[a], e[i]), bil(x.h_mod.right, ha[a], n0col[i])),
        n1 @ x.h_mod.right[a][i],
    )
    for a in range(nh):
        yield "i", (a,), x.f_map @ n1col[a], n0 @ x.f_map.col(a)
    for i in range(np_):
        for j in range(np_):
            yield "ii", (i, j), n0 @ dotp(i, j), x.p_alg.product(n0col[i], n0col[j])
        for a in range(nh):
            yield "iii", (i, a), n1 @ dotl(i, a), bil(x.h_mod.left, n0col[i], n1col[a])
            yield "iv", (a, i), n1 @ dotr(a, i), bil(x.h_mod.right, n1col[a], n0col[i])


def xmod_check_nijenhuis(x: CrossedModule, n0: Matrix, n1: Matrix) -> CheckReport:
    require_crossed_module(x)
    return report_from(xmod_nijenhuis_residuals(x, n0, n1))


def xmod_nijenhuis_deformation(x: CrossedModule, n0: Matrix, n1: Matrix) -> XCochain2:
    """The exact two-cochain d1(N0, N1) in the adjoint representation."""
    return xmod_d1_apply(x, xmod_adjoint(x), XCochain1(n0, n1))


def xmod_homomorphism_residuals(src: CrossedModule, dst: CrossedModule, f0: Matrix, f1: Matrix):
    np_, nh = src.pdim, src.hdim
    f0col = [f0.col(i) for i in range(np_)]
    f1col = [f1.col(a) for a in range(nh)]
    for a in range(nh):
        yield "hom-f", (a,), dst.f_map @ f1col[a], f0 @ src.f_map.col(a)
    for i in range(np_):
        for j in range(np_):
            yield "hom-alg", (i, j), f0 @ src.p_alg.mul[i][j], dst.p_alg.product(f0col[i], f0col[j])
        for a in range(nh):
            yield "hom-left", (i, a), f1 @ src.h_mod.left[i][a], bil(dst.h_mod.left, f0col[i], f1col[a])
            yield "hom-right", (a, i), f1 @ src.h_mod.right[a][i], bil(dst.h_mod.right, f1col[a], f0col[i])


def xmod_check_trivializing(x: CrossedModule, c: XCochain2, n0: Matrix, n1: Matrix) -> CheckReport:
    """(id + t N0, id + t N1) must be a strict homomorphism from the
    deformed structure to the base, identically in the parameter."""
    t0 = Matrix(tzip(lambda i, v: i + T * v, Matrix.identity(x.pdim).entries, n0.entries), x.pdim)
    t1 = Matrix(tzip(lambda i, v: i + T * v, Matrix.identity(x.hdim).entries, n1.entries), x.hdim)
    return identity_report(xmod_homomorphism_residuals(xmod_deform(x, c, T), x, t0, t1))


# ---------------------------------------------------------------------------
# abelian extensions
# ---------------------------------------------------------------------------

class XModExtension(SplitExtension):
    """An abelian extension of a crossed module (fields in ``SplitExtension``):
    W sits in degree 0, inside total.p, and V in degree 1, inside total.h."""

    EXACT = ("exactW", "exactV")

    def require(self) -> None:
        require_xmod_extension(self)

    def representation(self) -> "XModRepresentation":
        return xmod_extract_representation(self)

    def cocycle(self) -> XCochain2:
        return xmod_extract_cocycle(self)

    def complex_of(self, r: XModRepresentation):
        return xmod_cochain_complex(self.base, r), xmod_assemble_matrices(self.base, r)


def xmod_extension_residuals(e: XModExtension):
    """Strict projection, exactness and splitting, and abelian kernel."""
    for cond, where, lhs, rhs in xmod_homomorphism_residuals(e.total, e.base, e.p0, e.p1):
        yield "proj-" + cond, where, lhs, rhs
    yield from e.split_residuals()
    # abelian kernel: W.W = 0, W acts trivially on V
    nP, nH = e.total.pdim, e.total.hdim
    for s in range(e.hdim0):
        ws = e.incl0(unit(e.hdim0, s))
        for t in range(e.hdim0):
            yield "abelian-WW", (s, t), e.total.p_alg.product(ws, e.incl0(unit(e.hdim0, t))), vzero(nP)
        for t in range(e.hdim1):
            vt = e.incl1(unit(e.hdim1, t))
            yield "abelian-WV", (s, t), bil(e.total.h_mod.left, ws, vt), vzero(nH)
            yield "abelian-VW", (t, s), bil(e.total.h_mod.right, vt, ws), vzero(nH)


def check_xmod_extension(e: XModExtension) -> CheckReport:
    """Structural invariants, once per extension."""
    return e.check(require_crossed_module, xmod_extension_residuals)


def require_xmod_extension(e: XModExtension) -> None:
    check_xmod_extension(e).require("crossed-module extension invariants fail")


def xmod_extract_representation(e: XModExtension) -> XModRepresentation:
    require_xmod_extension(e)
    b = e.base
    nP, nH = b.pdim, b.hdim
    s0 = [e.sigma0.col(i) for i in range(nP)]
    s1 = [e.sigma1.col(a) for a in range(nH)]
    t = e.total
    wv = [e.incl0(unit(e.hdim0, s)) for s in range(e.hdim0)]
    vv = [e.incl1(unit(e.hdim1, s)) for s in range(e.hdim1)]

    v_mod = Bimodule(
        b.p_alg,
        e.hdim1,
        tensor2(nP, e.hdim1, lambda i, s: e.restrict1(bil(t.h_mod.left, s0[i], vv[s]))),
        tensor2(e.hdim1, nP, lambda s, i: e.restrict1(bil(t.h_mod.right, vv[s], s0[i]))),
    )
    w_mod = Bimodule(
        b.p_alg,
        e.hdim0,
        tensor2(nP, e.hdim0, lambda i, s: e.restrict0(t.p_alg.product(s0[i], wv[s]))),
        tensor2(e.hdim0, nP, lambda s, i: e.restrict0(t.p_alg.product(wv[s], s0[i]))),
    )
    phi = Matrix.from_cols([e.restrict0(t.f_map @ vv[s]) for s in range(e.hdim1)], e.hdim0)
    tr_l = tensor2(nH, e.hdim0, lambda a, s: e.restrict1(bil(t.h_mod.right, s1[a], wv[s])))
    tr_r = tensor2(e.hdim0, nH, lambda s, a: e.restrict1(bil(t.h_mod.left, wv[s], s1[a])))
    return XModRepresentation(b, v_mod, w_mod, phi, tr_l, tr_r)


# as ``ext2.EXTRACTED``, for the strict homomorphism (sigma0, sigma1)
XEXTRACTED = {
    "hom-f": ("psi", as_is, 0), "hom-alg": ("omega", swapped, 0),
    "hom-left": ("mu", swapped, 1), "hom-right": ("nu", swapped, 1),
}


def xmod_extract_cocycle(e: XModExtension) -> XCochain2:
    """The failure of the stored splitting to be a homomorphism, read off
    its homomorphism residuals as in ``ext2.extract_cocycle``."""
    require_xmod_extension(e)
    b = e.base
    sigma = on_integers((b, e.total, e.sigma0, e.sigma1))
    residuals = kernel_residuals(xmod_homomorphism_residuals(*sigma), XEXTRACTED, (e.restrict0, e.restrict1))
    return placed(residuals, xmod_cochain_layouts(b.pdim, b.hdim, e.hdim1, e.hdim0)[1])


def xmod_build_extension(
    x: CrossedModule, r: XModRepresentation, c: XCochain2
) -> XModExtension:
    """The standard extension on (p + W, h + V) twisted by a cocycle."""
    require_crossed_module(x)
    require_xmod_representation(r)
    total = xmod_extension_total(x, r, c)
    if not check_crossed_module(total).passed:  # exactly when c is not a cocycle
        families_report(total_xcocycle_families(total, x)).require("not a two-cocycle")
        require_crossed_module(total)
    return XModExtension.standard(total, x)


@dataclass
class XModWitness:
    primitive: XCochain1  # d1(primitive) = c1 - c2
    f0: Matrix
    f1: Matrix
    representation: XModRepresentation  # induced by both extensions; primitive's coefficients


def xmod_check_equivalence(e1: XModExtension, e2: XModExtension):
    """Witness search as in ``ext2.check_equivalence``; the witness is the
    pair of degreewise maps, verified as a strict homomorphism."""

    def check_witness(lam, r):
        f0, f1 = e1.witness_maps(e2, lam.n0, lam.n1)
        integral_report(xmod_homomorphism_residuals, e1.total, e2.total, f0, f1).require(
            "witness does not induce a homomorphism"
        )
        return XModWitness(lam, f0, f1, r), f0, f1

    return e1.equivalence(e2, None, check_witness)
