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

The identities are written once, as data: ``AXIOMS`` for (a)-(f),
``HOMOMORPHISM`` for a homomorphism and ``ASSOC`` for associativity and
the bimodule axioms list, per side, the terms of each identity, each a map
whose arguments are basis vectors or the values of other maps.  The
residual generators do not evaluate products tuple by tuple:
``residual_sides`` contracts each term once over the nonzero cells of its
map (``tensorops.contract``), and the generators then yield (condition,
basis tuple, lhs, rhs) in the order of the basis tuples, with one shared
zero vector for the tuples no nonzero value reaches.  It is the one
product evaluator of the library: a map built from products is a table
entry with one side (``evaluated``, ``dense``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import prod
from operator import add
from typing import NamedTuple

from .exactlin import ZERO, Matrix, kernel_basis, solve
from .integral import integral_report, rational, twin_field
from .report import CheckReport, checked, kept, kept_field, report_from
from .tensorops import apply2, basis_feed, contract, sparse_matrix, sparse_tensor, tensor, tensor2, tmap, tzip, unit
from .tensorops import vadd, view2, zeros2, zeros3


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

    def sparse_maps(self) -> dict:
        """The product as a ``Sparse`` map, kept."""
        return {"mul": kept(self, "sparse", sparse_tensor, self.mul, 2)}

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

    def sparse_maps(self) -> dict:
        """The actions as ``Sparse`` maps, kept."""
        return kept(self, "sparse", lambda: {name: sparse_tensor(getattr(self, name), 2) for name in ("left", "right")})


def check_associative(a: AssocAlgebra) -> CheckReport:
    """List every basis triple where (x.y).z differs from x.(y.z)."""
    return report_from(_assoc_residuals(a))


def _assoc_residuals(a: AssocAlgebra, tuples: Tuples | None = None):
    """Associativity on the basis triples ``tuples`` selects (all of them
    by default)."""
    n = a.dim
    tuples = tuples or Tuples((n,), 0)
    sides = residual_sides(ASSOC, ("assoc",), a.sparse_maps(), ASSOC_INPUTS, tuples, (n,))
    for where in tuples.of((n,), 0, 0, 0):
        yield residual(sides, "assoc", where)


def check_bimodule(m: Bimodule) -> CheckReport:
    return report_from(_bimodule_residuals(m))


def _bimodule_residuals(m: Bimodule, tuples: Tuples | None = None):
    """The bimodule identities on the tuples ``tuples`` selects (all of
    them by default), the algebra in degree 0 and m in degree 1."""
    a = m.algebra
    dims = a.dim, m.dim
    tuples = tuples or Tuples(dims, 0)
    maps = {**a.sparse_maps(), **m.sparse_maps()}
    sides = residual_sides(ASSOC, ("left", "middle", "right"), maps, ASSOC_INPUTS, tuples, dims)
    for i, j, p in tuples.of(dims, 0, 0, 1):
        yield residual(sides, "left", (i, j, p))
        yield residual(sides, "middle", (i, p, j))
        yield residual(sides, "right", (p, i, j))


# ---------------------------------------------------------------------------
# identities as sparse contractions
# ---------------------------------------------------------------------------

# Each identity below is data: per side, its terms (sign, outer map, feeds),
# one feed per argument of the outer map, naming the map whose value fills
# that argument, or None for a basis vector.  A side is the sum of its
# terms, so "l3(x.y,z,t) - l3(x,y.z,t)" is [(1, "l3", ("l2_00", None,
# None)), (-1, "l3", (None, "l2_00", None))]; a matrix is a map of one
# argument ("d" @ value).  The basis tuple of a term lists the basis
# indices of its arguments in order, those of a fed argument being the
# inputs of the map that fills it.  A table of inputs gives the degree of
# each argument of each map (None where only fed arguments occur).

ASSOC_INPUTS = {"mul": (0, 0), "left": (0, 1), "right": (1, 0)}
ASSOC = {
    "assoc": ([(1, "mul", ("mul", None))], [(1, "mul", (None, "mul"))]),
    "left": ([(1, "left", ("mul", None))], [(1, "left", (None, "left"))]),
    "middle": ([(1, "left", (None, "right"))], [(1, "right", ("left", None))]),
    "right": ([(1, "right", (None, "mul"))], [(1, "right", ("right", None))]),
}


def residual_sides(table: dict, conditions, maps: dict, inputs: dict, tuples: Tuples, dims) -> dict:
    """Per condition of ``table``, its lhs and rhs, each as (dict basis
    tuple -> list of values, the zero vector of every other tuple): every
    term contracted once over the nonzero cells of its outer map
    (``tensorops.contract``), on the basis tuples ``tuples`` selects, the
    dims of each degree being ``dims``.  ``maps`` gives each map by name as
    a ``Sparse`` map, ``inputs`` the degrees of its arguments.  The zero of
    a side is that of its terms' maps, combined as the side combines them,
    and its length the longest of theirs (a tensor with an empty input has
    none to show)."""
    cuts, kernel = tuples
    feeds: dict = {}

    def feed(spec, degree):
        key = spec, degree
        if key not in feeds:
            if spec is None:
                feeds[key] = basis_feed(dims[degree], cuts[degree], kernel)
            else:
                feeds[key] = maps[spec].fed(tuple(cuts[k] for k in inputs[spec]), kernel)
        return feeds[key]

    out = {}
    for condition in conditions:
        sides = []
        for terms in table[condition]:
            zero = maps[terms[0][1]].zero
            for sign, name, _ in terms[1:]:
                zero = zero + maps[name].zero if sign > 0 else zero - maps[name].zero
            n_out = max(maps[name].n_out for _, name, _ in terms)
            acc: dict = {}
            for sign, name, fed in terms:
                contract(acc, sign, zero, n_out, maps[name], [feed(f, k) for f, k in zip(fed, inputs[name])], kernel)
            sides.append((acc, (zero,) * n_out))
        out[condition] = sides
    return out


def evaluated(table: dict, maps: dict, inputs: dict, dims) -> dict:
    """Per entry of ``table``, its sides (``residual_sides``) on every basis
    tuple, and the dims of those tuples: by argument of the outer map of
    its first term, a basis index or the inputs of the map fed there."""
    sides = residual_sides(table, table, maps, inputs, Tuples(dims, 0), dims)
    out = {}
    for name, terms in table.items():
        _, outer, fed = terms[0][0]
        degrees = [k for f, degree in zip(fed, inputs[outer]) for k in (inputs[f] if f else (degree,))]
        out[name] = sides[name], tuple(dims[k] for k in degrees)
    return out


def dense(value: tuple, out=tuple) -> tuple:
    """A value of ``evaluated`` with one side, a map built from others, as
    a nested-tuple tensor: ``out`` of each vector, ``int`` made ``Fraction``."""
    [(rows, zeros)], shape = value
    return tensor(shape, lambda where: rational(out(rows.get(where, zeros))))


def residual(sides: dict, condition: str, where: tuple) -> tuple:
    """(condition, where, lhs, rhs) read off ``residual_sides``, once: the
    rows are dropped as they are read."""
    (lhs, lzero), (rhs, rzero) = sides[condition]
    lv, rv = lhs.pop(where, None), rhs.pop(where, None)
    return condition, where, lzero if lv is None else tuple(lv), rzero if rv is None else tuple(rv)


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
    left, right = view2(m.left), view2(m.right)

    def value(idx: tuple[int, ...]):
        units = [unit(dim, i) for i in idx]
        first = apply2(left, units[0], f.apply(*units[1:]))
        last = apply2(right, f.apply(*units[:-1]), units[-1])
        total = vadd(first, _scale_vec(sign_last, last))
        for i in range(1, n + 1):
            inner = f.apply(*units[: i - 1], a.mul[idx[i - 1]][idx[i]], *units[i + 1:])
            total = vadd(total, _scale_vec(1 if i % 2 == 0 else -1, inner))
        return total

    return HochschildCochain(n + 1, tensor((dim,) * (n + 1), value))


def _scale_vec(s, v):
    return v if s == 1 else tuple(-x for x in v)


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

    def sparse_maps(self) -> dict:
        """The differential and products as ``Sparse`` maps, by name, kept."""

        def build():
            tensors = {name: sparse_tensor(getattr(self, name), len(INPUTS[name])) for name in INPUTS if name != "d"}
            return {"d": sparse_matrix(self.complex.diff), **tensors}

        return kept(self, "sparse", build)


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


# the arguments of g's maps by degree, and (a)-(f) as data (see ``residual_sides``)
INPUTS = {"d": (1,), "l2_00": (0, 0), "l2_01": (0, 1), "l2_10": (1, 0), "l3": (0, 0, 0)}
AXIOMS = {
    "a": ([(1, "d", ("l2_01",))], [(1, "l2_00", (None, "d"))]),
    "b": ([(1, "d", ("l2_10",))], [(1, "l2_00", ("d", None))]),
    "c": ([(1, "l2_01", ("d", None))], [(1, "l2_10", (None, "d"))]),
    "d": ([(1, "d", ("l3",))], [(1, "l2_00", ("l2_00", None)), (-1, "l2_00", (None, "l2_00"))]),
    "e1": ([(1, "l3", (None, None, "d"))], [(1, "l2_01", ("l2_00", None)), (-1, "l2_01", (None, "l2_01"))]),
    "e2": ([(1, "l3", (None, "d", None))], [(1, "l2_10", ("l2_01", None)), (-1, "l2_01", (None, "l2_10"))]),
    "e3": ([(1, "l3", ("d", None, None))], [(1, "l2_10", ("l2_10", None)), (-1, "l2_10", (None, "l2_00"))]),
    "f": (
        [(1, "l2_01", (None, "l3")), (1, "l2_10", ("l3", None))],
        [(1, "l3", ("l2_00", None, None)), (1, "l3", (None, None, "l2_00")), (-1, "l3", (None, "l2_00", None))],
    ),
}

def algebra_residuals(g: TwoTermAlgebra, tuples: Tuples | None = None):
    """Yield (condition, basis tuple, lhs, rhs) for (a)-(f) on the basis
    tuples ``tuples`` selects (all of them by default).  The values of one
    group of conditions are computed before its first residual is yielded
    (``residual_sides``), one group at a time."""
    dims = g.dim0, g.dim1
    tuples = tuples or Tuples(dims, 0)
    maps = g.sparse_maps()

    sides = residual_sides(AXIOMS, ("a", "b"), maps, INPUTS, tuples, dims)
    for i, p in tuples.of(dims, 0, 1):
        yield residual(sides, "a", (i, p))
        yield residual(sides, "b", (p, i))
    sides = residual_sides(AXIOMS, ("c",), maps, INPUTS, tuples, dims)
    for where in tuples.of(dims, 1, 1):
        yield residual(sides, "c", where)
    sides = residual_sides(AXIOMS, ("d", "e1", "e2", "e3"), maps, INPUTS, tuples, dims)
    for (i, j), rest in tuples.split(dims, 0, 0):
        for (k,) in rest.of(dims, 0):
            yield residual(sides, "d", (i, j, k))
        for (p,) in rest.of(dims, 1):
            yield residual(sides, "e1", (i, j, p))
            yield residual(sides, "e2", (i, p, j))
            yield residual(sides, "e3", (p, i, j))
    sides = residual_sides(AXIOMS, ("f",), maps, INPUTS, tuples, dims)
    for where in tuples.of(dims, 0, 0, 0, 0):
        yield residual(sides, "f", where)


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


# conditions i-iv of a homomorphism (f0, f1, f2) from g to g' as data (see
# ``residual_sides``): the maps of g by their names, those of g' primed
#   (i)   f0(d a) = d' f1(a)
#   (ii)  f0(x.y) - f0(x).f0(y) = d' f2(x,y)
#   (iii) f1(x.a) - f0(x).f1(a) = f2(x, d a),  f1(a.x) - f1(a).f0(x) = f2(d a, x)
#   (iv)  f1(l3(x,y,z)) - l3'(f0 x, f0 y, f0 z)
#           = f2(x, y.z) - f2(x.y, z) + f0(x).f2(y,z) - f2(x,y).f0(z)
# The maps of g' take only fed arguments.
HOMOMORPHISM_INPUTS = {
    **INPUTS,
    **{name + "'": (None,) * len(degrees) for name, degrees in INPUTS.items()},
    "f0": (0,), "f1": (1,), "f2": (0, 0),
}
HOMOMORPHISM = {
    "i": ([(1, "f0", ("d",))], [(1, "d'", ("f1",))]),
    "ii": ([(1, "f0", ("l2_00",)), (-1, "l2_00'", ("f0", "f0"))], [(1, "d'", ("f2",))]),
    "iii1": ([(1, "f1", ("l2_01",)), (-1, "l2_01'", ("f0", "f1"))], [(1, "f2", (None, "d"))]),
    "iii2": ([(1, "f1", ("l2_10",)), (-1, "l2_10'", ("f1", "f0"))], [(1, "f2", ("d", None))]),
    "iv": (
        [(1, "f1", ("l3",)), (-1, "l3'", ("f0", "f0", "f0"))],
        [
            (1, "f2", (None, "l2_00")), (-1, "f2", ("l2_00", None)),
            (1, "l2_01'", ("f0", "f2")), (-1, "l2_10'", ("f2", "f0")),
        ],
    ),
}


def homomorphism_residuals(h: Homomorphism2):
    """Yield (condition, basis tuple, lhs, rhs) for i-iv on every basis
    tuple of the source."""
    g, gp = h.source, h.target
    dims = n0, n1 = g.dim0, g.dim1
    maps = {**g.sparse_maps(), **{name + "'": m for name, m in gp.sparse_maps().items()}}
    maps.update(f0=sparse_matrix(h.f0), f1=sparse_matrix(h.f1), f2=sparse_tensor(h.f2, 2))

    every = Tuples(dims, 0)
    sides = residual_sides(HOMOMORPHISM, ("i",), maps, HOMOMORPHISM_INPUTS, every, dims)
    for p in range(n1):
        yield residual(sides, "i", (p,))
    sides = residual_sides(HOMOMORPHISM, ("ii", "iii1", "iii2"), maps, HOMOMORPHISM_INPUTS, every, dims)
    for i in range(n0):
        for j in range(n0):
            yield residual(sides, "ii", (i, j))
        for p in range(n1):
            yield residual(sides, "iii1", (i, p))
            yield residual(sides, "iii2", (p, i))
    sides = residual_sides(HOMOMORPHISM, ("iv",), maps, HOMOMORPHISM_INPUTS, every, dims)
    for where in product(range(n0), repeat=3):
        yield residual(sides, "iv", where)


def check_homomorphism(h: Homomorphism2) -> CheckReport:
    return integral_report(homomorphism_residuals, h)


# the degree-2 part of a composite g o f as data (see ``residual_sides``)
COMPOSED_INPUTS = {"g1": (None,), "g2": (None, None), "f0": (0,), "f2": (0, 0)}
COMPOSED = {"f2": ([(1, "g2", ("f0", "f0")), (1, "g1", ("f2",))],)}


def compose_homomorphisms(g: Homomorphism2, f: Homomorphism2) -> Homomorphism2:
    """(g o f), with degree-2 part g2(f0 x, f0 y) + g1(f2(x, y))."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("homomorphisms are not composable")
    n0 = f.source.dim0
    maps = {"g1": sparse_matrix(g.f1), "g2": sparse_tensor(g.f2, 2)}
    maps.update(f0=sparse_matrix(f.f0), f2=sparse_tensor(f.f2, 2))
    f2 = dense(evaluated(COMPOSED, maps, COMPOSED_INPUTS, (n0,))["f2"])
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
