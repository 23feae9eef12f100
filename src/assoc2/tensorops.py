"""Small helpers for dense structure-constant tensors.

Tensors are nested tuples whose innermost layer is an output vector:
``t2[i][j]`` is the value of the bilinear map on the (i, j) basis pair,
``t3[i][j][k]`` likewise for trilinear maps.  Multilinearity is implicit;
the evaluators below extend to arbitrary vectors.

Scalar contract: the evaluators are ring-generic.  They only add, subtract
and multiply, and skip zero coordinates and zero tensor entries by
truthiness, so entries may be ``Fraction``, ``int``, ``Poly`` or the linear
forms of matrix assembly.  A sum starts from the zero of the tensor's own
scalars: ``int`` 0 for an integer tensor, ``Fraction`` 0 otherwise, so an
integral structure's twin (see :mod:`assoc2.integral`) is evaluated over ℤ
from end to end and every other structure gets the ``Fraction`` zeros it
always had.  Unit vectors are ``int``: 0 and 1 are the zero and one of
every scalar ring used here.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def unit(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


def vzero(n: int) -> tuple:
    return (ZERO,) * n


def vadd(*vs) -> tuple:
    out = list(vs[0])
    for v in vs[1:]:
        if len(v) != len(out):
            raise ValueError("vector length mismatch")
        for i, x in enumerate(v):
            out[i] = out[i] + x
    return tuple(out)


def vsub(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(v) -> tuple:
    return tuple(-a for a in v)


def _zero_of(x):
    """The zero that sums over the scalar ``x``'s ring start from."""
    return 0 if type(x) is int else ZERO


def bil(t2, u, v) -> tuple:
    """Apply a bilinear map given by ``t2`` to vectors ``u``, ``v``."""
    n_out = len(t2[0][0]) if t2 and t2[0] else 0
    acc = [_zero_of(t2[0][0][0]) if n_out else ZERO] * n_out
    for i, a in enumerate(u):
        if not a:
            continue
        row = t2[i]
        for j, b in enumerate(v):
            if not b:
                continue
            ab = a * b
            for k, x in enumerate(row[j]):
                if x:
                    acc[k] += ab * x
    return tuple(acc)


def tri(t3, u, v, w) -> tuple:
    """Apply a trilinear map given by ``t3`` to three vectors."""
    n_out = _out_dim(t3, depth=3)
    acc = [_zero_of(t3[0][0][0][0]) if n_out else ZERO] * n_out
    for i, a in enumerate(u):
        if not a:
            continue
        plane = t3[i]
        for j, b in enumerate(v):
            if not b:
                continue
            ab = a * b
            row = plane[j]
            for k, c in enumerate(w):
                if not c:
                    continue
                abc = ab * c
                for m, x in enumerate(row[k]):
                    if x:
                        acc[m] += abc * x
    return tuple(acc)


def _out_dim(t, depth: int = 2) -> int:
    node = t
    for _ in range(depth):
        if not node:
            return 0
        node = node[0]
    return len(node)


def tensor2(n1: int, n2: int, fn) -> tuple:
    """Build a bilinear tensor from ``fn(i, j) -> output vector``."""
    return tuple(tuple(tuple(fn(i, j)) for j in range(n2)) for i in range(n1))


def tensor3(n1: int, n2: int, n3: int, fn) -> tuple:
    return tuple(tuple(tuple(tuple(fn(i, j, k)) for k in range(n3)) for j in range(n2)) for i in range(n1))


def zeros2(n1: int, n2: int, n_out: int) -> tuple:
    return tensor2(n1, n2, lambda i, j: vzero(n_out))


def zeros3(n1: int, n2: int, n3: int, n_out: int) -> tuple:
    return tensor3(n1, n2, n3, lambda i, j, k: vzero(n_out))


def tzip(f, a, b):
    """Elementwise combine two same-shape nested tuples of scalars."""
    if isinstance(a, tuple):
        return tuple(tzip(f, x, y) for x, y in zip(a, b, strict=True))
    return f(a, b)


def tmap(f, a):
    if isinstance(a, tuple):
        return tuple(tmap(f, x) for x in a)
    return f(a)


def tflat(a):
    """Flatten a nested tuple of scalars depth-first."""
    if isinstance(a, tuple):
        out = []
        for x in a:
            out.extend(tflat(x))
        return out
    return [a]
