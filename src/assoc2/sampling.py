"""Seeded randomization helpers: transported structures and random cochains.

Transport along an invertible change of basis is the repair mechanism for
"randomized then repaired" examples: whatever the random matrices are, the
transported structure satisfies the axioms exactly because the original one
does.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra2 import TwoTermAlgebra, TwoTermComplex
from .cohom2 import Cochain1, Cochain2
from .exactlin import Matrix, solve
from .rep2 import Representation2
from .tensorops import apply2, apply3, tensor2, tensor3, unit, view2, view3
from .xmod import CrossedModule, XCochain2, XModRepresentation


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    cols = []
    for j in range(m.rows):
        x = solve(m, unit(m.rows, j))
        if x is None:
            raise ValueError("matrix is singular")
        cols.append(x)
    return Matrix.from_cols(cols, m.rows)


def random_unimodular(rng: random.Random, n: int, span: int = 2) -> Matrix:
    """Product of a unit lower and a unit upper triangular integer matrix."""
    lower = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-span, span))
            upper[j][i] = Fraction(rng.randint(-span, span))
    return Matrix(tuple(tuple(r) for r in lower), n) @ Matrix(tuple(tuple(r) for r in upper), n)


def transport_algebra(g: TwoTermAlgebra, p0: Matrix, p1: Matrix) -> TwoTermAlgebra:
    """Isomorphic copy of g along the change of basis (p0, p1): each product
    applied to the columns of the inverse, over a view built once."""
    q0, q1 = inverse(p0), inverse(p1)
    n0, n1 = g.dim0, g.dim1
    x, a = [q0.col(i) for i in range(n0)], [q1.col(p) for p in range(n1)]
    m00, m01, m10, l3 = view2(g.l2_00), view2(g.l2_01), view2(g.l2_10), view3(g.l3)
    return TwoTermAlgebra(
        TwoTermComplex(n0, n1, p0 @ g.complex.diff @ q1),
        tensor2(n0, n0, lambda i, j: p0 @ apply2(m00, x[i], x[j])),
        tensor2(n0, n1, lambda i, p: p1 @ apply2(m01, x[i], a[p])),
        tensor2(n1, n0, lambda p, i: p1 @ apply2(m10, a[p], x[i])),
        tensor3(n0, n0, n0, lambda i, j, k: p1 @ apply3(l3, x[i], x[j], x[k])),
    )


def random_transport(rng: random.Random, g: TwoTermAlgebra) -> TwoTermAlgebra:
    return transport_algebra(g, random_unimodular(rng, g.dim0), random_unimodular(rng, g.dim1))


def _rand_frac(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span))


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 2) -> Matrix:
    return Matrix(
        tuple(tuple(_rand_frac(rng, span) for _ in range(cols)) for _ in range(rows)), cols
    )


def random_cochain1(rng: random.Random, g: TwoTermAlgebra, r: Representation2, span: int = 2) -> Cochain1:
    return Cochain1(
        random_matrix(rng, r.dim0, g.dim0, span),
        random_matrix(rng, r.dim1, g.dim1, span),
        tensor2(g.dim0, g.dim0, lambda i, j: tuple(_rand_frac(rng, span) for _ in range(r.dim1))),
    )


def random_cochain2(rng: random.Random, g: TwoTermAlgebra, r: Representation2, span: int = 2) -> Cochain2:
    return Cochain2(
        random_matrix(rng, r.dim0, g.dim1, span),
        tensor2(g.dim0, g.dim0, lambda i, j: tuple(_rand_frac(rng, span) for _ in range(r.dim0))),
        tensor2(g.dim0, g.dim1, lambda i, p: tuple(_rand_frac(rng, span) for _ in range(r.dim1))),
        tensor2(g.dim1, g.dim0, lambda p, i: tuple(_rand_frac(rng, span) for _ in range(r.dim1))),
        tensor3(
            g.dim0, g.dim0, g.dim0,
            lambda i, j, k: tuple(_rand_frac(rng, span) for _ in range(r.dim1)),
        ),
    )


def random_xcochain2(rng: random.Random, x: CrossedModule, r: XModRepresentation, span: int = 2) -> XCochain2:
    return XCochain2(
        random_matrix(rng, r.wdim, x.hdim, span),
        tensor2(x.pdim, x.pdim, lambda i, j: tuple(_rand_frac(rng, span) for _ in range(r.wdim))),
        tensor2(x.pdim, x.hdim, lambda i, a: tuple(_rand_frac(rng, span) for _ in range(r.vdim))),
        tensor2(x.hdim, x.pdim, lambda a, i: tuple(_rand_frac(rng, span) for _ in range(r.vdim))),
    )
