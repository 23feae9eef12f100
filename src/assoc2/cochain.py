"""The cochain-complex engine shared by the two-term and the crossed-module
theories.

A theory describes degrees 1 and 2 of its cochain complex on one
(structure, coefficients) pair as a ``CochainComplex``: the block layout of
its one- and two-cochains and its two evaluators, d1 (one-cochain to
two-cochain) and the stacked cocycle residuals d2 (two-cochain to vector).
Everything linear is derived here, once for both theories: flattening and
cochain arithmetic, the assembled matrices with their d2 . d1 = 0 check,
H2 with representative cocycles, coboundary solves re-verified by applying
d1, and the rank certificate of a failed solve.

The matrices are read off one call of each evaluator on a generic cochain,
whose k-th flattened coordinate is the linear form x_k (``LinearForm``):
every output entry is then the form of one matrix row.  This is
forward-mode differentiation of a linear map seeded with the full basis.
The evaluators run unchanged on these forms because they only add,
subtract and scale their cochain's entries.  A form refuses anything else:
the product of two forms is kept as a ``FormProduct``, which raises as
soon as it reaches a sum or an output, so an evaluator that is not linear
fails loudly.  Where two forms meet only zero tensor entries (the kernel x
kernel blocks of a semidirect product, which d1 evaluates) the sparse
contractions of ``tensorops`` never form their product.  The generic forms have
``int`` coefficients, so on an integral pair (whose theory hands this
engine evaluators over the integer twins, see ``assoc2.integral``) the
forms and the d2 . d1 check stay over ℤ, and so do the rows: their terms
become the integer rows that elimination reads (``Matrix.from_integer_rows``),
and the joined elimination of ``cohomology`` runs on integer rows too.
The representatives leave ``cohomology`` as the certified sparse kernel
vectors, which the report writer reads; their ``Cochain`` objects are
built only when asked for.

Flattening contract (bit-exact, shared with the file formats; see
CONVENTIONS.md "Flattening"): blocks in field order.  A block with one
input is a Matrix (out x in), flattened row by row when its class names it
in ``ROW_MAJOR`` and by column otherwise; a block with several inputs is a
nested tuple, flattened by input indices then output index (by column is
the one-input case of that order).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from typing import Callable

from .exactlin import ZERO, Inconsistent, Matrix, augmented, kernel_basis, solve
from .tensorops import tflat, tmap, tzip


class LinearForm:
    """An exact linear form sum c_k x_k in the flattened coordinates x_k of
    a cochain, stored sparsely as {k: c_k} without zero coefficients.

    Forms add, subtract and scale by an int or Fraction, and a form equals
    0 exactly when it has no term.  Adding a nonzero constant raises
    TypeError instead of dropping a term.  The product of two forms is
    deferred (``FormProduct``): it raises once it reaches a sum or an
    output, and a product that reaches neither drops out.  Forms are never
    mutated, so results may share them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    def __add__(self, other):
        if type(other) is not LinearForm:
            if isinstance(other, (int, Fraction)) and other == 0:
                return self
            if type(other) is FormProduct:
                return NotImplemented  # its own refusal, whatever the order of the sum
            raise TypeError(f"linear form plus the constant {other!r}")
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for k, v in other.terms.items():
            if k in terms:
                s = terms[k] + v
                if s:
                    terms[k] = s
                else:
                    del terms[k]
            else:
                terms[k] = v
        return LinearForm(terms)

    __radd__ = __add__

    def __neg__(self):
        return LinearForm({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, c):
        if type(c) is LinearForm or type(c) is FormProduct:
            return _PRODUCT
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"linear form times {type(c).__name__}")
        if c == 0:
            return _NO_TERMS
        if c == 1:
            return self
        return LinearForm({k: c * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is LinearForm:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return other == 0 and not self.terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"LinearForm({self.terms!r})"


_NO_TERMS = LinearForm()


class FormProduct:
    """A product of two linear forms, times any scalar: not linear.  It
    raises TypeError when it is added, compared, tested or output, and is
    dropped when nothing is ever done with it."""

    __slots__ = ()

    def __mul__(self, c):
        return self

    __rmul__ = __mul__

    def _refuse(self, *args):
        raise TypeError("a product of two linear forms: the evaluator is not linear in the cochain")

    __add__ = __radd__ = __sub__ = __rsub__ = __neg__ = __eq__ = __ne__ = __bool__ = _refuse


_PRODUCT = FormProduct()


def _form(x) -> LinearForm:
    """An evaluator's output entry as a form: a form, or the constant 0."""
    if type(x) is LinearForm:
        return x
    if x != 0:
        raise TypeError(f"evaluator output has the constant term {x!r}")
    return _NO_TERMS


def _zip_block(op, a, b):
    if isinstance(a, Matrix):
        return Matrix(tzip(op, a.entries, b.entries), a.cols)
    return tzip(op, a, b)


def _map_block(f, a):
    if isinstance(a, Matrix):
        return Matrix(tmap(f, a.entries), a.cols)
    return tmap(f, a)


class Cochain:
    """Base of the cochain dataclasses: each field is one block, and the
    vector-space operations act blockwise."""

    ROW_MAJOR: tuple[str, ...] = ()

    def blocks(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __add__(self, other):
        return type(self)(*(_zip_block(operator.add, a, b) for a, b in zip(self.blocks(), other.blocks())))

    def __sub__(self, other):
        return type(self)(*(_zip_block(operator.sub, a, b) for a, b in zip(self.blocks(), other.blocks())))

    def scale(self, c):
        return type(self)(*(_map_block(lambda a: c * a, b) for b in self.blocks()))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.flatten())

    def flatten(self) -> tuple:
        out = []
        for f in fields(self):
            block = getattr(self, f.name)
            if isinstance(block, Matrix):
                for line in block.entries if f.name in self.ROW_MAJOR else zip(*block.entries):
                    out.extend(line)
            else:
                out.extend(tflat(block))
        return tuple(out)


def _nest(flat, inputs, out):
    if not inputs:
        return tuple(flat)
    step = prod(inputs[1:]) * out
    return tuple(_nest(flat[i * step : (i + 1) * step], inputs[1:], out) for i in range(inputs[0]))


class Layout:
    """The shapes of one cochain class on one pair: for each field name, the
    dimensions of its inputs and of its output."""

    def __init__(self, cls: type, shapes: dict[str, tuple[tuple[int, ...], int]]):
        self.cls = cls
        self.shapes = [(f.name, *shapes[f.name]) for f in fields(cls)]
        self.dim = sum(prod(inputs) * out for _, inputs, out in self.shapes)

    def unflatten(self, flat) -> Cochain:
        flat = tuple(flat)
        if len(flat) != self.dim:
            raise ValueError(f"flattened {self.cls.__name__} has wrong length")
        blocks, pos = [], 0
        for name, inputs, out in self.shapes:
            size = prod(inputs) * out
            chunk, pos = flat[pos : pos + size], pos + size
            if len(inputs) > 1:
                blocks.append(_nest(chunk, inputs, out))
            elif name in self.cls.ROW_MAJOR:
                blocks.append(Matrix(_nest(chunk, (out,), inputs[0]), inputs[0]))
            else:
                blocks.append(Matrix.from_cols(_nest(chunk, inputs, out), out))
        return self.cls(*blocks)

    def unflatten_terms(self, terms: dict) -> Cochain:
        """The cochain whose flattened coordinates are ``terms``
        (``{index: value}``) and zero elsewhere."""
        flat = [ZERO] * self.dim
        for k, x in terms.items():
            flat[k] = x
        return self.unflatten(flat)

    def cells(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Per flattened coordinate, the name of its block and its index in
        the block: (out, in) in a matrix, (inputs..., out) in a tensor."""
        out = []
        for name, inputs, size in self.shapes:
            if len(inputs) > 1:
                out += [(name, (*where, o)) for where in product(*map(range, inputs)) for o in range(size)]
            elif name in self.cls.ROW_MAJOR:
                out += [(name, (o, i)) for o in range(size) for i in range(inputs[0])]
            else:
                out += [(name, (o, i)) for i in range(inputs[0]) for o in range(size)]
        return tuple(out)

    def zero(self) -> Cochain:
        return self.unflatten((ZERO,) * self.dim)

    def generic(self) -> Cochain:
        """The cochain whose k-th flattened coordinate is the form x_k."""
        return self.unflatten(LinearForm({k: 1}) for k in range(self.dim))


@dataclass
class CochainComplex:
    """Degrees 1 and 2 of one theory's cochain complex on one pair."""

    c1: Layout
    c2: Layout
    d1: Callable    # one-cochain -> two-cochain
    d2: Callable    # two-cochain -> stacked residual families
    not_a_complex: str  # message of the NotAComplex error when d2 . d1 != 0


class NotAComplex(ValueError):
    """The evaluators on a pair do not form a complex: d2 . d1 != 0."""


@dataclass
class CoboundaryMatrices:
    """Both matrices carry their sparse row views, seeded by ``assemble``
    with the terms of the evaluators' output forms."""

    d1: Matrix  # flattened one-cochains -> flattened two-cochains
    d2: Matrix  # flattened two-cochains -> stacked residual families


def assemble(cx: CochainComplex) -> CoboundaryMatrices:
    """Matrices of d1 and d2 in the flattening order, read off one call of
    each evaluator on the generic cochain of its degree: output entry i is
    the form of row i.  The complex property d2 . d1 = 0 is verified here on
    every call, by substituting the rows of d1 into those of d2 (each row
    of the product summed in one dict); assembly raises ``NotAComplex`` on
    a pair where the evaluators do not form a complex.  The forms' terms
    become the matrices' rows as they are: the integer rows elimination
    reads when every coefficient is an ``int`` (an integral pair), else the
    ``Fraction`` sparse rows, so elimination starts from them without
    rescanning dense rows."""
    d1 = [_form(x) for x in cx.d1(cx.c1.generic()).flatten()]
    d2 = [_form(x) for x in cx.d2(cx.c2.generic())]
    for row in d2:
        composed = {}  # the row of d2 . d1, summed in one dict
        for j, v in row.terms.items():
            for k, x in d1[j].terms.items():
                composed[k] = composed.get(k, 0) + v * x
        if any(composed.values()):
            raise NotAComplex(cx.not_a_complex)
    return CoboundaryMatrices(_matrix(d1, cx.c1.dim), _matrix(d2, cx.c2.dim))


def _matrix(forms: list[LinearForm], cols: int) -> Matrix:
    rows = [f.terms for f in forms]
    if all(type(v) is int for row in rows for v in row.values()):
        return Matrix.from_integer_rows(rows, cols)
    return Matrix.from_sparse([{k: Fraction(v) if type(v) is int else v for k, v in row.items()} for row in rows], cols)


@dataclass
class CohomologyResult:
    """H2's dimensions and its representative cocycles, given as their
    flattened coordinates ``vectors`` (sparse dicts ``{index: value}``,
    kernel vectors of d2); ``representatives`` are their cochains, built
    on first read."""

    dim_z2: int
    dim_b2: int
    dim_h2: int
    vectors: tuple[dict, ...]
    layout: Layout = field(repr=False, compare=False)

    @cached_property
    def representatives(self) -> list[Cochain]:
        return [self.layout.unflatten_terms(v) for v in self.vectors]


def cohomology(cx: CochainComplex, mats: CoboundaryMatrices) -> CohomologyResult:
    """dim Z2, dim B2, dim H2 = Z2/B2, plus representative cocycles.

    One elimination of [d1 | kernel basis of d2] decides everything: its
    pivot columns among d1 give dim B2, and the kernel vectors at the other
    pivot columns are the representatives.  A kernel vector is a pivot
    column exactly when it is independent of the image of d1 and of the
    kernel vectors before it, so this is the greedy choice in kernel-basis
    order.  The elimination runs on integer rows (``exactlin.augmented``:
    each kernel vector scaled by a positive integer, which keeps the
    pivots).  Each representative has zero residual by construction, and
    is returned as its sparse kernel vector.
    """
    ker, n = kernel_basis(mats.d2).terms, mats.d1.cols
    pivots = augmented(mats.d1, ker)[0].rref()[1]
    chosen = tuple(ker[p - n] for p in pivots if p >= n)
    dim_b2 = len(pivots) - len(chosen)
    return CohomologyResult(len(ker), dim_b2, len(ker) - dim_b2, chosen, cx.c2)


def primitive(cx: CochainComplex, mats: CoboundaryMatrices, c: Cochain, certificate: bool = False):
    """A one-cochain whose coboundary is c, or None when c is not in the
    image of d1 (with ``certificate``, the solve's ``Inconsistent`` ranks).
    The solve is re-verified by applying the d1 evaluator."""
    target = c.flatten()
    x = solve(mats.d1, target, certificate)
    if x is None or isinstance(x, Inconsistent):
        return x
    pre = cx.c1.unflatten(x)
    if cx.d1(pre).flatten() != target:
        raise AssertionError("primitive failed exact re-application")
    return pre


@dataclass
class Inequivalence:
    reason: str
    rank_d1: int
    rank_augmented: int


def cohomologous(cx: CochainComplex, mats: CoboundaryMatrices, c1: Cochain, c2: Cochain):
    """A verified primitive of c1 - c2, or the rank certificate
    rank [d1 | c1 - c2] > rank d1 that no primitive exists, read off the
    elimination of the failed solve."""
    lam = primitive(cx, mats, c1 - c2, certificate=True)
    if isinstance(lam, Inconsistent):
        return Inequivalence("cocycle difference is not a coboundary", lam.rank, lam.rank_augmented)
    return lam
