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

Flattening contract (bit-exact, shared with the file formats; see
CONVENTIONS.md "Flattening"): blocks in field order.  A block with one
input is a Matrix (out x in), flattened row by row when its class names it
in ``ROW_MAJOR`` and by column otherwise; a block with several inputs is a
nested tuple, flattened by input indices then output index (by column is
the one-input case of that order).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from math import prod
from typing import Callable

from .exactlin import ZERO, Matrix, kernel_basis, rank, solve
from .tensorops import tflat, tmap, tzip, unit


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

    def zero(self) -> Cochain:
        return self.unflatten((ZERO,) * self.dim)

    def unit(self, k: int) -> Cochain:
        return self.unflatten(unit(self.dim, k))


@dataclass
class CochainComplex:
    """Degrees 1 and 2 of one theory's cochain complex on one pair."""

    c1: Layout
    c2: Layout
    d1: Callable    # one-cochain -> two-cochain
    d2: Callable    # two-cochain -> stacked residual families
    not_a_complex: str  # message of the ValueError when d2 . d1 != 0


@dataclass
class CoboundaryMatrices:
    d1: Matrix  # flattened one-cochains -> flattened two-cochains
    d2: Matrix  # flattened two-cochains -> stacked residual families


def assemble(cx: CochainComplex) -> CoboundaryMatrices:
    """Matrices of d1 and d2 in the flattening order, one evaluator call per
    unit cochain.  The complex property d2 . d1 = 0 is verified here on every
    call; assembly fails loudly on a pair where the evaluators do not form a
    complex."""
    d1 = Matrix.from_cols([cx.d1(cx.c1.unit(k)).flatten() for k in range(cx.c1.dim)], cx.c2.dim)
    d2_cols = [cx.d2(cx.c2.unit(k)) for k in range(cx.c2.dim)]
    d2 = Matrix.from_cols(d2_cols, len(d2_cols[0]) if d2_cols else 0)
    if not (d2 @ d1).is_zero():
        raise ValueError(cx.not_a_complex)
    return CoboundaryMatrices(d1, d2)


@dataclass
class CohomologyResult:
    dim_z2: int
    dim_b2: int
    dim_h2: int
    representatives: list[Cochain]


def cohomology(cx: CochainComplex, mats: CoboundaryMatrices) -> CohomologyResult:
    """dim Z2, dim B2, dim H2 = Z2/B2, plus representative cocycles.

    One elimination of [d1 | kernel basis of d2] decides everything: its
    pivot columns among d1 give dim B2, and the kernel vectors at the other
    pivot columns are the representatives.  A kernel vector is a pivot
    column exactly when it is independent of the image of d1 and of the
    kernel vectors before it, so this is the greedy choice in kernel-basis
    order.  Each representative has zero residual by construction.
    """
    ker = kernel_basis(mats.d2).basis
    d1 = mats.d1
    joined = Matrix(
        tuple(row + tuple(v[i] for v in ker) for i, row in enumerate(d1.entries)), d1.cols + len(ker)
    )
    pivots = joined.rref()[1]
    chosen = [ker[p - d1.cols] for p in pivots if p >= d1.cols]
    dim_b2 = len(pivots) - len(chosen)
    return CohomologyResult(len(ker), dim_b2, len(ker) - dim_b2, [cx.c2.unflatten(v) for v in chosen])


def primitive(cx: CochainComplex, mats: CoboundaryMatrices, c: Cochain):
    """A one-cochain whose coboundary is c, or None when c is not in the
    image of d1.  The solve is re-verified by applying the d1 evaluator."""
    target = c.flatten()
    x = solve(mats.d1, target)
    if x is None:
        return None
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
    rank [d1 | c1 - c2] > rank d1 that no primitive exists."""
    delta = c1 - c2
    lam = primitive(cx, mats, delta)
    if lam is not None:
        return lam
    d1 = mats.d1
    aug = Matrix(tuple(row + (b,) for row, b in zip(d1.entries, delta.flatten())), d1.cols + 1)
    return Inequivalence("cocycle difference is not a coboundary", rank(d1), rank(aug))
