"""Associative algebras, bimodules, the Hochschild differential, and
two-term homotopy associative algebras with their homomorphisms,
homotopy derivations, and the endomorphism algebra of a complex.

A two-term algebra lives on a complex g1 --d--> g0 and carries a product in
three sorts (g0*g0 -> g0, g0*g1 -> g1, g1*g0 -> g1) plus a trilinear
homotopy l3 : g0^3 -> g1 that measures the failure of associativity.  The
defining identities, labelled (a)-(f) throughout:

    (a)  d(x.a) = x.d(a)
    (b)  d(a.x) = d(a).x
    (c)  d(a).b = a.d(b)
    (d)  d l3(x,y,z) = (x.y).z - x.(y.z)
    (e1) l3(x,y,d a) = (x.y).a - x.(y.a)
    (e2) l3(x,d a,y) = (x.a).y - x.(a.y)
    (e3) l3(d a,x,y) = (a.x).y - a.(x.y)
    (f)  x.l3(y,z,t) + l3(x,y,z).t
           = l3(x.y,z,t) - l3(x,y.z,t) + l3(x,y,z.t)

for x,y,z,t of degree 0 and a,b of degree 1.  All evaluators work on any
commutative ring of scalars (rationals, or polynomials in a deformation
parameter).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import prod
from operator import add
from typing import NamedTuple

from .exactlin import ZERO, Matrix, kernel_basis, solve
from .integral import integral_report, twin_field
from .report import CheckReport, checked, kept, kept_field, report_from
from .tensorops import apply2, apply3, tensor2, tmap, tzip, unit, vadd, view2, view3, vsub, zeros2, zeros3


class Tuples(NamedTuple):
    """Which basis tuples a residual generator visits.  A structure on
    (base + kernel) coordinates, base first, has its kernel coordinates of
    degree k from ``cuts[k]`` on; the selection is the tuples with exactly
    ``kernel`` (0 or 1) kernel arguments.  Base tuples give d2 and the
    cocycle checks, one-kernel tuples the representation checks.  The
    generators' default, ``None``, visits every tuple: the base tuples for
    cuts equal to the dims."""

    cuts: tuple[int, ...]
    kernel: int

    def of(self, dims, *degrees):
        """The selected index tuples over slots of the given degrees, the
        dims of each degree being ``dims``; base tuples in lexicographic
        order."""
        base = [range(self.cuts[k]) for k in degrees]
        if not self.kernel:
            return product(*base)
        return chain.from_iterable(
            product(*base[:pos], range(self.cuts[k], dims[k]), *base[pos + 1 :]) for pos, k in enumerate(degrees)
        )

    def count(self, dims, *degrees) -> int:
        """How many tuples ``of`` selects, without listing them."""
        base = [self.cuts[k] for k in degrees]
        if not self.kernel:
            return prod(base)
        return sum(prod(base[:pos]) * (dims[k] - self.cuts[k]) * prod(base[pos + 1 :]) for pos, k in enumerate(degrees))

    def split(self, dims, *degrees):
        """(prefix over slots of ``degrees``, selection of the slots after
        it) for each prefix of a selected tuple."""
        for used in range(self.kernel + 1):
            rest = self._replace(kernel=self.kernel - used)
            for prefix in self._replace(kernel=used).of(dims, *degrees):
                yield prefix, rest


# ---------------------------------------------------------------------------
# ordinary associative algebras and bimodules
# ---------------------------------------------------------------------------

@dataclass
class AssocAlgebra:
    """Associative algebra by structure constants: mul[i][j] = e_i . e_j."""

    dim: int
    mul: tuple
    _kept: dict | None = kept_field()

    def product(self, u, v):
        return apply2(kept(self, "mul", view2, self.mul), u, v)

    def regular_bimodule(self) -> "Bimodule":
        return Bimodule(self, self.dim, self.mul, self.mul)


@dataclass
class Bimodule:
    """Two-sided module over an associative algebra, by structure constants."""

    algebra: AssocAlgebra
    dim: int
    left: tuple   # A x M -> M
    right: tuple  # M x A -> M
    _kept: dict | None = kept_field()

    def act_left(self, x, u):
        return apply2(kept(self, "left", view2, self.left), x, u)

    def act_right(self, u, x):
        return apply2(kept(self, "right", view2, self.right), u, x)


def check_associative(a: AssocAlgebra) -> CheckReport:
    """List every basis triple where (x.y).z differs from x.(y.z)."""
    return report_from(_assoc_residuals(a))


def _assoc_residuals(a: AssocAlgebra, tuples: Tuples | None = None):
    """Associativity on the basis triples ``tuples`` selects (all of them
    by default)."""
    n = a.dim
    for i, j, k in (tuples or Tuples((n,), 0)).of((n,), 0, 0, 0):
        yield "assoc", (i, j, k), a.product(a.mul[i][j], unit(n, k)), a.product(unit(n, i), a.mul[j][k])


def check_bimodule(m: Bimodule) -> CheckReport:
    return report_from(_bimodule_residuals(m))


def _bimodule_residuals(m: Bimodule, tuples: Tuples | None = None):
    """The bimodule identities on the tuples ``tuples`` selects (all of
    them by default), the algebra in degree 0 and m in degree 1."""
    a = m.algebra
    dims = n, md = a.dim, m.dim
    for i, j, p in (tuples or Tuples(dims, 0)).of(dims, 0, 0, 1):
        x, y, u = unit(n, i), unit(n, j), unit(md, p)
        yield "left", (i, j, p), m.act_left(a.mul[i][j], u), m.act_left(x, m.left[j][p])
        yield "middle", (i, p, j), m.act_left(x, m.right[p][j]), m.act_right(m.left[i][p], y)
        yield "right", (p, i, j), m.act_right(u, a.mul[i][j]), m.act_right(m.right[p][i], y)


# ---------------------------------------------------------------------------
# Hochschild cochains
# ---------------------------------------------------------------------------

@dataclass
class HochschildCochain:
    """Multilinear map A^n -> M as a depth-n nested tuple of M-vectors."""

    arity: int
    values: tuple

    def apply(self, *args):
        if len(args) != self.arity:
            raise ValueError("wrong number of arguments")

        def contract(vals, vec):
            acc = None
            for i, c in enumerate(vec):
                if c == 0:
                    continue
                term = tmap(lambda x: c * x, vals[i])
                acc = term if acc is None else tzip(add, acc, term)
            if acc is None:
                acc = tmap(lambda x: ZERO, vals[0]) if vals else ()
            return acc

        cur = self.values
        for v in args:
            cur = contract(cur, v)
        return cur


def hochschild_coboundary(m: Bimodule, f: HochschildCochain) -> HochschildCochain:
    """The classical differential

    (df)(x_1,...,x_{n+1}) = x_1.f(x_2,...,x_{n+1})
                            + (-1)^{n+1} f(x_1,...,x_n).x_{n+1}
                            + sum_i (-1)^i f(..., x_i.x_{i+1}, ...).

    Degree-0 cochains are rejected: only n >= 1 is defined here.
    """
    if f.arity < 1:
        raise ValueError("coboundary is defined for arity >= 1")
    n = f.arity
    a = m.algebra
    dim = a.dim
    sign_last = 1 if (n + 1) % 2 == 0 else -1

    def value(idx: tuple[int, ...]):
        units = [unit(dim, i) for i in idx]
        first = m.act_left(units[0], f.apply(*units[1:]))
        last = m.act_right(f.apply(*units[:-1]), units[-1])
        total = vadd(first, _scale_vec(sign_last, last))
        for i in range(1, n + 1):
            inner = f.apply(*units[: i - 1], a.mul[idx[i - 1]][idx[i]], *units[i + 1:])
            total = vadd(total, _scale_vec(1 if i % 2 == 0 else -1, inner))
        return total

    return HochschildCochain(n + 1, _build_nested(dim, n + 1, value))


def _scale_vec(s, v):
    return v if s == 1 else tuple(-x for x in v)


def _build_nested(dim: int, depth: int, fn, prefix: tuple[int, ...] = ()):
    if depth == 0:
        return tuple(fn(prefix))
    return tuple(_build_nested(dim, depth - 1, fn, prefix + (i,)) for i in range(dim))


def hochschild_is_zero(f: HochschildCochain) -> bool:
    def walk(t):
        if isinstance(t, tuple) and t and isinstance(t[0], tuple):
            return all(walk(x) for x in t)
        return all(x == 0 for x in t)

    return walk(f.values)


# ---------------------------------------------------------------------------
# two-term algebras
# ---------------------------------------------------------------------------

@dataclass
class TwoTermComplex:
    dim0: int
    dim1: int
    diff: Matrix  # dim0 x dim1, degree 1 -> degree 0

    def __post_init__(self):
        if self.diff.shape != (self.dim0, self.dim1):
            raise ValueError(f"differential has shape {self.diff.shape}, expected {(self.dim0, self.dim1)}")


@dataclass
class TwoTermAlgebra:
    complex: TwoTermComplex
    l2_00: tuple  # g0 x g0 -> g0
    l2_01: tuple  # g0 x g1 -> g1
    l2_10: tuple  # g1 x g0 -> g1
    l3: tuple     # g0 x g0 x g0 -> g1
    _kept: dict | None = kept_field()
    _twin: object = twin_field()

    @property
    def dim0(self) -> int:
        return self.complex.dim0

    @property
    def dim1(self) -> int:
        return self.complex.dim1

    def d(self, a):
        return self.complex.diff @ a

    def m00(self, x, y):
        return apply2(kept(self, "l2_00", view2, self.l2_00), x, y)

    def m01(self, x, a):
        return apply2(kept(self, "l2_01", view2, self.l2_01), x, a)

    def m10(self, a, x):
        return apply2(kept(self, "l2_10", view2, self.l2_10), a, x)

    def l3v(self, x, y, z):
        return apply3(kept(self, "l3", view3, self.l3), x, y, z)


def zero_algebra(dim0: int, dim1: int) -> TwoTermAlgebra:
    return TwoTermAlgebra(
        TwoTermComplex(dim0, dim1, Matrix.zero(dim0, dim1)),
        zeros2(dim0, dim0, dim0),
        zeros2(dim0, dim1, dim1),
        zeros2(dim1, dim0, dim1),
        zeros3(dim0, dim0, dim0, dim1),
    )


# the degrees of each axiom's arguments, in the order of its basis tuple
SLOTS = {
    "a": (0, 1), "b": (1, 0), "c": (1, 1), "d": (0, 0, 0),
    "e1": (0, 0, 1), "e2": (0, 1, 0), "e3": (1, 0, 0), "f": (0, 0, 0, 0),
}


def algebra_residuals(g: TwoTermAlgebra, tuples: Tuples | None = None):
    """Yield (condition, basis tuple, lhs, rhs) for (a)-(f) on the basis
    tuples ``tuples`` selects (all of them by default)."""
    dims = n0, n1 = g.dim0, g.dim1
    tuples = tuples or Tuples(dims, 0)
    d = g.complex.diff
    e = [unit(n0, i) for i in range(n0)]
    f = [unit(n1, p) for p in range(n1)]
    dcol = [d.col(p) for p in range(n1)]

    for i, p in tuples.of(dims, 0, 1):
        yield "a", (i, p), d @ g.l2_01[i][p], g.m00(e[i], dcol[p])
        yield "b", (p, i), d @ g.l2_10[p][i], g.m00(dcol[p], e[i])
    for p, q in tuples.of(dims, 1, 1):
        yield "c", (p, q), g.m01(dcol[p], f[q]), g.m10(f[p], dcol[q])
    for (i, j), rest in tuples.split(dims, 0, 0):
        xy = g.l2_00[i][j]
        for (k,) in rest.of(dims, 0):
            yield "d", (i, j, k), d @ g.l3[i][j][k], vsub(g.m00(xy, e[k]), g.m00(e[i], g.l2_00[j][k]))
        for (p,) in rest.of(dims, 1):
            yield "e1", (i, j, p), g.l3v(e[i], e[j], dcol[p]), vsub(g.m01(xy, f[p]), g.m01(e[i], g.l2_01[j][p]))
            yield (
                "e2", (i, p, j), g.l3v(e[i], dcol[p], e[j]),
                vsub(g.m10(g.l2_01[i][p], e[j]), g.m01(e[i], g.l2_10[p][j])),
            )
            yield "e3", (p, i, j), g.l3v(dcol[p], e[i], e[j]), vsub(g.m10(g.l2_10[p][i], e[j]), g.m10(f[p], xy))
    for i, j, k, t in tuples.of(dims, 0, 0, 0, 0):
        lhs = vadd(g.m01(e[i], g.l3[j][k][t]), g.m10(g.l3[i][j][k], e[t]))
        rhs = vadd(
            g.l3v(g.l2_00[i][j], e[k], e[t]),
            vsub(g.l3v(e[i], e[j], g.l2_00[k][t]), g.l3v(e[i], g.l2_00[j][k], e[t])),
        )
        yield "f", (i, j, k, t), lhs, rhs


def check_algebra(g: TwoTermAlgebra) -> CheckReport:
    """Check (a)-(f) on every basis tuple, once per algebra (over ℤ when
    the algebra is integral)."""
    return checked(g, lambda g: integral_report(algebra_residuals, g))


def require_algebra(g: TwoTermAlgebra) -> None:
    check_algebra(g).require("two-term algebra axioms fail")


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

@dataclass
class Homomorphism2:
    source: TwoTermAlgebra
    target: TwoTermAlgebra
    f0: Matrix  # g0 -> g0'
    f1: Matrix  # g1 -> g1'
    f2: tuple   # g0 x g0 -> g1'


def identity_homomorphism(g: TwoTermAlgebra) -> Homomorphism2:
    return Homomorphism2(
        g, g, Matrix.identity(g.dim0), Matrix.identity(g.dim1), zeros2(g.dim0, g.dim0, g.dim1)
    )


def homomorphism_residuals(h: Homomorphism2):
    g, gp = h.source, h.target
    n0, n1 = g.dim0, g.dim1
    e = [unit(n0, i) for i in range(n0)]
    f = [unit(n1, p) for p in range(n1)]
    d, dp = g.complex.diff, gp.complex.diff
    f0col = [h.f0.col(i) for i in range(n0)]
    f1col = [h.f1.col(p) for p in range(n1)]
    f2 = view2(h.f2)

    for p in range(n1):
        yield "i", (p,), h.f0 @ d.col(p), dp @ f1col[p]
    for i in range(n0):
        for j in range(n0):
            lhs = vsub(h.f0 @ g.l2_00[i][j], gp.m00(f0col[i], f0col[j]))
            yield "ii", (i, j), lhs, dp @ h.f2[i][j]
        for p in range(n1):
            lhs = vsub(h.f1 @ g.l2_01[i][p], gp.m01(f0col[i], f1col[p]))
            yield "iii1", (i, p), lhs, apply2(f2, e[i], d.col(p))
            lhs = vsub(h.f1 @ g.l2_10[p][i], gp.m10(f1col[p], f0col[i]))
            yield "iii2", (p, i), lhs, apply2(f2, d.col(p), e[i])
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                lhs = vsub(h.f1 @ g.l3[i][j][k], gp.l3v(f0col[i], f0col[j], f0col[k]))
                rhs = vadd(
                    vsub(apply2(f2, e[i], g.l2_00[j][k]), apply2(f2, g.l2_00[i][j], e[k])),
                    vsub(gp.m01(f0col[i], h.f2[j][k]), gp.m10(h.f2[i][j], f0col[k])),
                )
                yield "iv", (i, j, k), lhs, rhs


def check_homomorphism(h: Homomorphism2) -> CheckReport:
    return integral_report(homomorphism_residuals, h)


def compose_homomorphisms(g: Homomorphism2, f: Homomorphism2) -> Homomorphism2:
    """(g o f), with degree-2 part g2(f0 x, f0 y) + g1(f2(x, y))."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("homomorphisms are not composable")
    n0 = f.source.dim0
    g2 = view2(g.f2)
    f2 = tensor2(n0, n0, lambda i, j: vadd(apply2(g2, f.f0.col(i), f.f0.col(j)), g.f1 @ f.f2[i][j]))
    return Homomorphism2(f.source, g.target, g.f0 @ f.f0, g.f1 @ f.f1, f2)


# ---------------------------------------------------------------------------
# homotopy derivations
# ---------------------------------------------------------------------------

@dataclass
class HomotopyDerivation:
    """(D0, D1, D2) on g; ``cohom2.check_derivation`` checks it."""

    algebra: TwoTermAlgebra
    d0: Matrix  # g0 -> g0
    d1: Matrix  # g1 -> g1
    d2: tuple   # g0 x g0 -> g1


# ---------------------------------------------------------------------------
# endomorphism algebra of a two-term complex
# ---------------------------------------------------------------------------

def build_end_algebra(v: TwoTermComplex) -> TwoTermAlgebra:
    """The strict two-term algebra of endomorphisms of ``v``.

    Degree 0 is the space of pairs (X0, X1) with X0 d = d X1 (chain
    endomorphisms), degree 1 is Hom(V0, V1), the differential sends A to
    (d A, A d), and the product is composition in all sorts that admit one.
    """
    m0, m1 = v.dim0, v.dim1
    d = v.diff
    # flatten Hom(V0,V0) + Hom(V1,V1) row-major; constraint X0 d - d X1 = 0
    rows = []
    for r in range(m0):
        for c in range(m1):
            row = [0] * (m0 * m0 + m1 * m1)
            for k in range(m0):
                row[r * m0 + k] = row[r * m0 + k] + d.entries[k][c]  # (X0 d)[r][c]
            for k in range(m1):
                row[m0 * m0 + k * m1 + c] = row[m0 * m0 + k * m1 + c] - d.entries[r][k]
            rows.append(tuple(row))
    constraint = Matrix(tuple(rows), m0 * m0 + m1 * m1)
    basis0 = kernel_basis(constraint).basis
    n0 = len(basis0)
    n1 = m0 * m1  # Hom(V0, V1) with its standard basis, row-major

    def split(vec):
        x0 = Matrix(tuple(tuple(vec[r * m0 + c] for c in range(m0)) for r in range(m0)), m0)
        x1 = Matrix(
            tuple(tuple(vec[m0 * m0 + r * m1 + c] for c in range(m1)) for r in range(m1)), m1
        )
        return x0, x1

    def join(x0: Matrix, x1: Matrix):
        return tuple(x for row in x0.entries for x in row) + tuple(x for row in x1.entries for x in row)

    basis_mat = Matrix.from_cols(basis0, m0 * m0 + m1 * m1)

    def coords0(x0: Matrix, x1: Matrix):
        sol = solve(basis_mat, join(x0, x1))
        if sol is None:
            raise ValueError("value is not a chain endomorphism")
        return sol

    def hom01(idx: int) -> Matrix:
        # index -> elementary matrix in Hom(V0, V1)
        r, c = divmod(idx, m0)
        return Matrix(tuple(tuple(1 if (i, j) == (r, c) else 0 for j in range(m0)) for i in range(m1)), m0)

    def flat01(a: Matrix):
        return tuple(x for row in a.entries for x in row)

    pairs = [split(b) for b in basis0]
    diff_cols = []
    for idx in range(n1):
        a = hom01(idx)
        diff_cols.append(coords0(d @ a, a @ d))
    diff = Matrix.from_cols(diff_cols, n0) if n1 else Matrix.zero(n0, 0)

    l2_00 = tensor2(n0, n0, lambda i, j: coords0(pairs[i][0] @ pairs[j][0], pairs[i][1] @ pairs[j][1]))
    l2_01 = tensor2(n0, n1, lambda i, p: flat01(pairs[i][1] @ hom01(p)))
    l2_10 = tensor2(n1, n0, lambda p, i: flat01(hom01(p) @ pairs[i][0]))
    l3 = zeros3(n0, n0, n0, n1)
    return TwoTermAlgebra(TwoTermComplex(n0, n1, diff), l2_00, l2_01, l2_10, l3)
