"""Crossed modules over associative algebras: the strict case.

A crossed module is a triple (h, p, f): an associative algebra p, a
p-bimodule h, and an equivariant map f : h -> p with f(a).b = a.f(b)
(both sides read through the actions).  Strict two-term algebras (l3 = 0)
and crossed modules determine each other, and the whole graded apparatus
has a strict mirror here: representations (V, W, phi), semidirect
products, a two-term cochain complex with seven cocycle families,
deformations with Nijenhuis pairs, and abelian extensions classified by
the second cohomology.

The complex is the strict slice of ``cohom2``'s: a representation is one
of the strict algebra h -> p on V -> W with the pairings as l1, r1 and no
trilinear actions (``strict_representation``), and on that pair with
chi = theta = 0 d1, the standard total, the semidirect product and the
extracted cocycle are the two-term ones, and xcoc1-xcoc7 are coc01-coc07
(``XCOCYCLES``; coc08 vanishes and is never evaluated).  The checks keep
the crossed module's own labels and sides: term tables (``XAXIOMS``,
``XHOMOMORPHISM``) contracted over the nonzero structure constants
(``algebra2.residual_sides``), and the representation axioms, Nijenhuis
conditions and an extension's induced representation and abelian kernel
read off them (``XREPRESENTATION``, ``XNIJENHUIS``, ``XINDUCED``,
``XABELIAN``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import cohom2
from .algebra2 import ASSOC, ASSOC_INPUTS, AssocAlgebra, Bimodule, Homomorphism2, TwoTermAlgebra, TwoTermComplex
from .algebra2 import Tuples, _assoc_residuals, _bimodule_residuals, require_algebra, residual, residual_sides
from .cochain import CoboundaryMatrices, Cochain, CochainComplex, CohomologyResult, Layout, assemble, cohomology
from .cochain import primitive
from .deform2 import NIJENHUIS, NijenhuisCandidate, PolyStructure, nijenhuis_conditions, specialize, trivializing_triple
from .exactlin import Matrix
from .extension import SplitExtension, as_is, by_kernel_position, families_report, stacked, swapped
from .integral import integral_report, on_integers, twin_field
from .poly import GeneratesVerdict, T, generates_verdict, identity_report
from .rep2 import Representation2
from .report import CheckReport, checked, kept, kept_field, report_from
from .tensorops import sparse_matrix, zeros2, zeros3


@dataclass
class CrossedModule:
    p_alg: AssocAlgebra
    h_mod: Bimodule
    f_map: Matrix  # h -> p
    _kept: dict | None = kept_field()
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


# the identities of a crossed module as data (see ``algebra2.residual_sides``):
# associativity and the bimodule axioms, then equivariance and Peiffer
XAXIOMS = {
    **ASSOC,
    "equiv-l": ([(1, "f", ("left",))], [(1, "mul", (None, "f"))]),
    "equiv-r": ([(1, "f", ("right",))], [(1, "mul", ("f", None))]),
    "peiffer": ([(1, "left", ("f", None))], [(1, "right", (None, "f"))]),
}
XINPUTS = {**ASSOC_INPUTS, "f": (1,)}


def xmod_sparse_maps(x: CrossedModule) -> dict:
    """x's map and products as ``Sparse`` maps, by name, each kept on the
    structure that owns its tensor."""
    return {**x.p_alg.sparse_maps(), **x.h_mod.sparse_maps(), "f": kept(x, "sparse", sparse_matrix, x.f_map)}


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
    maps = xmod_sparse_maps(x)
    sides = residual_sides(XAXIOMS, ("equiv-l", "equiv-r"), maps, XINPUTS, tuples, dims)
    for i, a in tuples.of(dims, 0, 1):
        yield residual(sides, "equiv-l", (i, a))
        yield residual(sides, "equiv-r", (a, i))
    sides = residual_sides(XAXIOMS, ("peiffer",), maps, XINPUTS, tuples, dims)
    for where in tuples.of(dims, 1, 1):
        yield residual(sides, "peiffer", where)


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
    return _crossed_module(g)


def _crossed_module(g: TwoTermAlgebra) -> CrossedModule:
    """g's complex and products as a crossed module, unchecked; l3 is dropped."""
    p = AssocAlgebra(g.dim0, g.l2_00)
    return CrossedModule(p, Bimodule(p, g.dim1, g.l2_01, g.l2_10), g.complex.diff)


def crossed_module_to_algebra(x: CrossedModule) -> TwoTermAlgebra:
    """The strict two-term algebra h -> p of x, unchecked, kept on x."""
    return kept(x, "strict", lambda: TwoTermAlgebra(
        TwoTermComplex(x.pdim, x.hdim, x.f_map), x.p_alg.mul, x.h_mod.left, x.h_mod.right,
        zeros3(x.pdim, x.pdim, x.pdim, x.hdim),
    ))


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
    _kept: dict | None = kept_field()
    _twin: object = twin_field()

    @property
    def vdim(self) -> int:
        return self.v_mod.dim

    @property
    def wdim(self) -> int:
        return self.w_mod.dim

    # the degrees of the kernel of an extension: W inside p, V inside h
    dim0, dim1 = wdim, vdim


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
    return by_kernel_position(residuals, XSLOTS, XREPRESENTATION, cuts)


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
# the strict pair and the semidirect product
# ---------------------------------------------------------------------------

def strict_representation(x: CrossedModule, r: XModRepresentation) -> Representation2:
    """r as a representation of the strict algebra of x (its ``algebra``) on
    V -> W, l1 = tr_l and r1 = tr_r, unchecked.  Built once per pair and kept
    on r with x, so that no other crossed module takes x's id while it is
    kept; the complex builds it on the integer twins."""
    np_, nv, nw, v, w = x.pdim, r.vdim, r.wdim, r.v_mod, r.w_mod
    return kept(r, ("strict", id(x)), lambda: (x, Representation2(
        crossed_module_to_algebra(x), TwoTermComplex(nw, nv, r.phi), w.left, v.left, w.right, v.right, r.tr_l, r.tr_r,
        zeros3(np_, np_, nw, nv), zeros3(np_, nw, np_, nv), zeros3(nw, np_, np_, nv),
    )))[1]


def semidirect_product(x: CrossedModule, r: XModRepresentation) -> CrossedModule:
    """(h + V, p + W, f + phi) with the action-twisted products: g + V of the
    strict pair as a crossed module, unchecked; its zero blocks are ``int``.
    Kept on r with x, as the strict pair is."""
    s = strict_representation(x, r)
    return kept(r, ("x + V", id(x)), lambda: (x, _crossed_module(cohom2.semidirect_product(s.algebra, s))))[1]


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
    c2 = {"psi": ((nh,), nw), "omega": ((np_, np_), nw), "mu": ((np_, nh), nv), "nu": ((nh, np_), nv)}
    return Layout(XCochain1, {"n0": ((np_,), nw), "n1": ((nh,), nv)}), Layout(XCochain2, c2)


def xmod_complex_shape(base: tuple[int, int], coefficients: tuple[int, int]) -> tuple[int, int, int]:
    """(dim C1, dim C2, rows of d2) on a pair whose crossed module has dims
    (p, h) and whose coefficients have dims (w, v), counted without
    evaluating anything: those of the strict pair's two-term complex less
    chi, theta and coc08 (p^2, p^3 and p^4 times v)."""
    (np_, _), (_, nv) = base, coefficients
    c1, c2, rows = cohom2.complex_shape(base, coefficients)
    return c1 - np_**2 * nv, c2 - np_**3 * nv, rows - np_**4 * nv


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
    """Coboundary of a one-cochain (N0, N1): ``cohom2.d1_apply`` of
    (N0, N1, 0) on the strict pair, whose theta block is zero."""
    s = strict_representation(x, r)
    d1 = cohom2.d1_apply(s.algebra, s, cohom2.Cochain1(c.n0, c.n1, zeros2(x.pdim, x.pdim, s.dim1)))
    return XCochain2(*d1.blocks()[:4])


def _strict_total(x: CrossedModule, r: XModRepresentation, c: XCochain2) -> TwoTermAlgebra:
    """The two-term standard total of the strict pair twisted by (c, theta = 0)."""
    s = strict_representation(x, r)
    return cohom2.extension_total(s.algebra, s, cohom2.Cochain2(*c.blocks(), zeros3(*(x.pdim,) * 3, s.dim1)))


def xmod_extension_total(x: CrossedModule, r: XModRepresentation, c: XCochain2) -> CrossedModule:
    """The standard total on (p + W, h + V) twisted by c, unchecked: the
    two-term one of the strict pair with theta = 0 (CONVENTIONS.md)."""
    return _crossed_module(_strict_total(x, r, c))


# coc01-coc07 of the strict pair are xcoc1-xcoc7 with sides swapped (coc06
# and coc07 in the other order); coc08 vanishes there
XCOCYCLES = {**{f"coc0{k}": f"xcoc{k}" for k in range(1, 6)}, "coc06": "xcoc7", "coc07": "xcoc6"}


def xmod_cocycle_families(x: CrossedModule, r: XModRepresentation, c: XCochain2):
    """Yield (family, basis tuple, lhs, rhs) for xcoc1-xcoc7, whose residual
    is lhs - rhs: ``cohom2.total_cocycle_families`` of the strict pair
    through ``XCOCYCLES``, stopped before coc08, which is never evaluated."""
    np_, nh = x.pdim, x.hdim
    families = cohom2.total_cocycle_families(_strict_total(x, r, c), x)
    for family, where, lhs, rhs in islice(families, 2 * np_ * nh + nh * nh + np_**3 + 3 * np_ * np_ * nh):
        yield XCOCYCLES[family], where, rhs, lhs


def xmod_d2_residual(x: CrossedModule, r: XModRepresentation, c: XCochain2) -> tuple:
    """Concatenated residuals of the seven cocycle families."""
    return stacked(xmod_cocycle_families(x, r, c))


def xmod_cocycle_report(x: CrossedModule, r: XModRepresentation, c: XCochain2) -> CheckReport:
    return families_report(xmod_cocycle_families(x, r, c))


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
    polynomial parameter): f + t.psi, products and actions + t.(omega|mu|nu),
    the strict algebra's deformation (``deform2.specialize``)."""
    g = crossed_module_to_algebra(x)
    return _crossed_module(specialize(PolyStructure(g, cohom2.Cochain2(*c.blocks(), g.l3)), param))


def xmod_check_generates(x: CrossedModule, c: XCochain2) -> GeneratesVerdict:
    """Coefficient extraction on the deformed structure: linear coefficients
    vanish iff c is a cocycle in the adjoint representation, quadratic ones
    iff (h, p, psi) with omega, mu, nu is itself a crossed module."""
    require_crossed_module(x)
    return generates_verdict(crossed_module_residuals(xmod_deform(x, c, T)))


# a Nijenhuis pair's conditions: (i) f N1 = N0 f, then (ii)-(iv) of
# ``deform2.NIJENHUIS`` on the strict algebra, whose d is f
XNIJENHUIS = {"i": ([(1, "d", ("n1",))], [(1, "n0", ("d",))]), **{c: NIJENHUIS[c] for c in ("ii", "iii", "iv")}}


def xmod_nijenhuis_residuals(x: CrossedModule, n0: Matrix, n1: Matrix):
    """Yield (condition, basis tuple, lhs, rhs) for (i)-(iv)."""
    first = xmod_d1_apply(x, xmod_adjoint(x), XCochain1(n0, n1))
    return nijenhuis_conditions(crossed_module_to_algebra(x), n0, n1, first, XNIJENHUIS)


def xmod_check_nijenhuis(x: CrossedModule, n0: Matrix, n1: Matrix) -> CheckReport:
    require_crossed_module(x)
    return report_from(xmod_nijenhuis_residuals(x, n0, n1))


def xmod_nijenhuis_deformation(x: CrossedModule, n0: Matrix, n1: Matrix) -> XCochain2:
    """The exact two-cochain d1(N0, N1) in the adjoint representation."""
    return xmod_d1_apply(x, xmod_adjoint(x), XCochain1(n0, n1))


# a strict homomorphism (f0, f1) from x to x' as data (see
# ``algebra2.residual_sides``), the maps of x' primed
XHOMOMORPHISM_INPUTS = {
    **XINPUTS,
    **{name + "'": (None,) * len(degrees) for name, degrees in XINPUTS.items()},
    "f0": (0,), "f1": (1,),
}
XHOMOMORPHISM = {
    "hom-f": ([(1, "f'", ("f1",))], [(1, "f0", ("f",))]),
    "hom-alg": ([(1, "f0", ("mul",))], [(1, "mul'", ("f0", "f0"))]),
    "hom-left": ([(1, "f1", ("left",))], [(1, "left'", ("f0", "f1"))]),
    "hom-right": ([(1, "f1", ("right",))], [(1, "right'", ("f1", "f0"))]),
}


def xmod_homomorphism_residuals(src: CrossedModule, dst: CrossedModule, f0: Matrix, f1: Matrix):
    """Yield (condition, basis tuple, lhs, rhs) for the strict homomorphism
    conditions on every basis tuple of the source."""
    dims = np_, nh = src.pdim, src.hdim
    maps = {**xmod_sparse_maps(src), **{name + "'": m for name, m in xmod_sparse_maps(dst).items()}}
    maps.update(f0=sparse_matrix(f0), f1=sparse_matrix(f1))
    sides = residual_sides(XHOMOMORPHISM, XHOMOMORPHISM, maps, XHOMOMORPHISM_INPUTS, Tuples(dims, 0), dims)
    for a in range(nh):
        yield residual(sides, "hom-f", (a,))
    for i in range(np_):
        for j in range(np_):
            yield residual(sides, "hom-alg", (i, j))
        for a in range(nh):
            yield residual(sides, "hom-left", (i, a))
            yield residual(sides, "hom-right", (a, i))


def xmod_check_trivializing(x: CrossedModule, c: XCochain2, n0: Matrix, n1: Matrix) -> CheckReport:
    """(id + t N0, id + t N1) must be a strict homomorphism from the
    deformed structure to the base, identically in the parameter."""
    t0, t1, _ = trivializing_triple(crossed_module_to_algebra(x), NijenhuisCandidate(n0, n1, ()), T)
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


# as ``ext2.ABELIAN`` and ``ext2.INDUCED``: W.W = 0 and W acts trivially on V
XABELIAN = {
    "abelian-WW": (0, "mul", ("incl0", "incl0")), "abelian-WV": (1, "left", ("incl0", "incl1")),
    "abelian-VW": (1, "right", ("incl1", "incl0")),
}
XINDUCED = {
    "v_left": (1, "left", ("sigma0", "incl1")), "v_right": (1, "right", ("incl1", "sigma0")),
    "w_left": (0, "mul", ("sigma0", "incl0")), "w_right": (0, "mul", ("incl0", "sigma0")),
    "phi": (0, "f", ("incl1",)), "tr_l": (1, "right", ("sigma1", "incl0")), "tr_r": (1, "left", ("incl0", "sigma1")),
}


def xmod_extension_residuals(e: XModExtension):
    """Strict projection, exactness and splitting, and abelian kernel."""
    for cond, where, lhs, rhs in xmod_homomorphism_residuals(e.total, e.base, e.p0, e.p1):
        yield "proj-" + cond, where, lhs, rhs
    yield from e.split_residuals()
    yield from e.abelian_residuals(XABELIAN, xmod_sparse_maps(e.total), XINPUTS)


def check_xmod_extension(e: XModExtension) -> CheckReport:
    """Structural invariants, once per extension."""
    return e.check(require_crossed_module, xmod_extension_residuals)


def require_xmod_extension(e: XModExtension) -> None:
    check_xmod_extension(e).require("crossed-module extension invariants fail")


def xmod_extract_representation(e: XModExtension) -> XModRepresentation:
    """The induced representation, over ℤ when the extension is integral."""
    require_xmod_extension(e)
    b, t = e.base, on_integers(e)
    a = t.induced(XINDUCED, xmod_sparse_maps(t.total), XINPUTS)
    v_mod = Bimodule(b.p_alg, e.hdim1, a["v_left"], a["v_right"])
    w_mod = Bimodule(b.p_alg, e.hdim0, a["w_left"], a["w_right"])
    return XModRepresentation(b, v_mod, w_mod, Matrix.from_cols(a["phi"], e.hdim0), a["tr_l"], a["tr_r"])


def xmod_extract_cocycle(e: XModExtension) -> XCochain2:
    """The failure of the stored splitting to be a homomorphism, as in
    ``ext2.extract_cocycle``: (sigma0, sigma1, 0) between the strict
    algebras of the base and the total; the theta block is zero."""
    require_xmod_extension(e)
    b, t, s0, s1 = on_integers((e.base, e.total, e.sigma0, e.sigma1))
    sigma = Homomorphism2(*map(crossed_module_to_algebra, (b, t)), s0, s1, zeros2(b.pdim, b.pdim, t.hdim))
    return XCochain2(*cohom2.splitting_cocycle(sigma, (e.restrict0, e.restrict1), (e.hdim0, e.hdim1)).blocks()[:4])


def xmod_build_extension(x: CrossedModule, r: XModRepresentation, c: XCochain2) -> XModExtension:
    """The standard extension on (p + W, h + V) twisted by a cocycle."""
    require_crossed_module(x)
    require_xmod_representation(r)
    total = xmod_extension_total(x, r, c)
    if not check_crossed_module(total).passed:  # exactly when c is not a cocycle
        xmod_cocycle_report(x, r, c).require("not a two-cocycle")
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
