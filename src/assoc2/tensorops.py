"""Small helpers for dense structure-constant tensors.

Tensors are nested tuples whose innermost layer is an output vector:
``t2[i][j]`` is the value of the bilinear map on the (i, j) basis pair,
``t3[i][j][k]`` likewise for trilinear maps.  Multilinearity is implicit;
the evaluators below extend to arbitrary vectors.

The library evaluates every product through ``contract`` below, on
``Sparse`` maps that each structure builds once and keeps
(``report.kept``), so the zero blocks of a standard total are never
visited.  ``apply2``/``apply3`` apply a tensor to arbitrary vectors over
its sparse view (per leading index, the later indices and the (output,
value) pairs of the nonzero entries: ``view2``, ``view3``), and
``bil``/``tri`` build that view per call; they serve the arity-generic
Hochschild cochains, basis transport and the tests, not the residuals.

Scalar contract: the loops are ring-generic.  They only add, subtract and
multiply, skip zero coordinates by truthiness, and views drop zero entries
by truthiness, so entries may be ``Fraction``, ``int``, ``Poly`` or the
linear forms of matrix assembly; a product of two forms that meets only
zero entries is never formed.  A sum starts from the zero of the tensor's
own scalars (``_zero_of`` its first entry, kept in the view): ``int`` 0 for
an integer tensor, ``Fraction`` 0 otherwise, so an integral structure's
twin (see :mod:`assoc2.integral`) is evaluated over ℤ from end to end.
Unit vectors are ``int``: 0 and 1 are the zero and one of every scalar
ring used here.

Residual generators do not evaluate once per basis tuple.  Each
term of an identity is a map whose arguments are basis vectors except for
at most a few, which hold the value of another map: l3(x.y, z, t) is l3
with the product fed into its first argument.  ``contract`` evaluates such
a term on every basis tuple at once.  It walks the nonzero cells of the
outer map (``Sparse``: per input tuple, its nonzero (output, value)
pairs); at each argument, the feed gives the basis tuples and values that
reach the cell's index there, and their products, times the cell's
values, are added into one accumulator row per basis tuple.  The feed of a
map (``Sparse.fed``) is its nonzero values by output index; the feed of a
basis vector (``basis_feed``) is the index itself, with no factor.  A term
multiplies the same nonzero values in the same order as the loops above
would on that tuple, so it gives the same values with the same scalar
types, and a product of two linear forms is formed exactly where those
loops form it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .report import kept

ZERO = Fraction(0)


def unit(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


def vzero(n: int) -> tuple:
    return (ZERO,) * n


def vadd(*vs) -> tuple:
    out = tuple(vs[0])
    for v in vs[1:]:
        if len(v) != len(out):
            raise ValueError("vector length mismatch")
        out = tuple(map(add, out, v))
    return out


def vsub(u, v) -> tuple:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(map(sub, u, v))


def vneg(v) -> tuple:
    return tuple(-a for a in v)


def _zero_of(x):
    """The zero that sums over the scalar ``x``'s ring start from."""
    return 0 if type(x) is int else ZERO


def _nonzero(items, inner=None) -> tuple:
    """The pairs (index, value) of ``items`` whose value, the item or
    ``inner(item)``, is nonzero."""
    return tuple((i, y) for i, x in enumerate(items) if (y := inner(x) if inner else x))


def view2(t2) -> tuple:
    """The sparse view of a bilinear tensor: per first index i, the pairs
    (j, ((k, x), ...)) of its nonzero entries x = t2[i][j][k]; then the
    zero its sums start from and its output length."""
    n_out = _out_dim(t2)
    return tuple(_nonzero(row, _nonzero) for row in t2), _zero_of(t2[0][0][0]) if n_out else ZERO, n_out


def view3(t3) -> tuple:
    """The sparse view of a trilinear tensor: per first index i, the pairs
    (j, rows of the view of t3[i][j]) that hold a nonzero entry."""
    n_out = _out_dim(t3, depth=3)
    return tuple(_nonzero(view2(plane)[0]) for plane in t3), _zero_of(t3[0][0][0][0]) if n_out else ZERO, n_out


def apply2(view, u, v) -> tuple:
    """Apply the bilinear map of the sparse view ``view`` to ``u``, ``v``."""
    rows, zero, n_out = view
    acc = [zero] * n_out
    for i, a in enumerate(u):
        if a:
            for j, cell in rows[i]:
                b = v[j]
                if b:
                    ab = a * b
                    for k, x in cell:
                        acc[k] += ab * x
    return tuple(acc)


def apply3(view, u, v, w) -> tuple:
    """Apply the trilinear map of the sparse view ``view`` to three vectors."""
    planes, zero, n_out = view
    acc = [zero] * n_out
    for i, a in enumerate(u):
        if a:
            for j, row in planes[i]:
                b = v[j]
                if b:
                    ab = a * b
                    for k, cell in row:
                        c = w[k]
                        if c:
                            abc = ab * c
                            for m, x in cell:
                                acc[m] += abc * x
    return tuple(acc)


class Sparse:
    """A multilinear map by its nonzero cells: per tuple of input indices
    whose output vector is not zero, (inputs, ((output index, value),
    ...)), in index order; then the zero its sums start from and its output
    length.  Feeds built from it are kept on it."""

    __slots__ = ("cells", "zero", "n_out", "_kept")

    def __init__(self, cells: tuple, zero, n_out: int):
        self.cells, self.zero, self.n_out, self._kept = cells, zero, n_out, None

    def fed(self, cuts: tuple, kernel: int) -> dict:
        """The map as a feed: per output index, the triples (inputs, value,
        kernel count) of its nonzero values there, the kernel count being
        how many inputs lie at or past their entry of ``cuts``; only those
        of at most ``kernel``."""
        return kept(self, (cuts, kernel), _by_output, self.cells, cuts, kernel)


def _first(t, depth: int):
    for _ in range(depth):
        t = t[0]
    return t


def sparse_tensor(t, inputs: int) -> Sparse:
    """The ``Sparse`` map of a nested-tuple tensor with ``inputs`` inputs;
    its zero is that of ``view2``/``view3``."""
    n_out = _out_dim(t, inputs)
    nodes = [((), t)]
    for _ in range(inputs):
        nodes = [(ins + (i,), sub) for ins, node in nodes for i, sub in enumerate(node)]
    cells = tuple((ins, _nonzero(vector)) for ins, vector in nodes if any(vector))
    return Sparse(cells, _zero_of(_first(t, inputs + 1)) if n_out else ZERO, n_out)


def sparse_matrix(m) -> Sparse:
    """The ``Sparse`` map of a ``Matrix``, column j's cell being m e_j; its
    zero is that of ``m @ v``: ``int`` when m's first entry is."""
    cols: dict[int, list] = {}
    for r, row in enumerate(m.sparse_rows()):
        for c, x in row.items():
            cols.setdefault(c, []).append((r, x))
    integral = m.rows and m.cols and type(m.entries[0][0]) is int
    return Sparse(tuple(((c,), tuple(cols[c])) for c in sorted(cols)), 0 if integral else ZERO, m.rows)


def _by_output(cells, cuts, kernel) -> dict:
    out: dict[int, list] = {}
    for ins, cell in cells:
        count = sum(map(int.__le__, cuts, ins))
        if count <= kernel:
            for k, x in cell:
                out.setdefault(k, []).append((ins, x, count))
    return out


def basis_feed(n: int, cut: int, kernel: int) -> dict:
    """The feed of a basis vector argument: index a below ``n`` reaches
    itself, with no factor and a kernel count of 1 from ``cut`` on; only
    those of kernel count at most ``kernel``."""
    return {a: (((a,), None, int(a >= cut)),) for a in range(n if kernel else cut)}


def contract(acc: dict, sign: int, zero, n_out: int, outer: Sparse, feeds, kernel: int) -> None:
    """Add ``sign`` times the values of ``outer``, argument s fed by
    ``feeds[s]``, into ``acc``: basis tuple -> row of values, a new row
    being ``n_out`` times ``zero``.  A basis tuple is the concatenation of
    the tuples the arguments' feeds give, and is kept when their kernel
    counts add up to ``kernel``; its value at output k sums the product of
    their values (in argument order) times the outer value."""
    for ins, cell in outer.cells:
        parts = [feed.get(a) for feed, a in zip(feeds, ins)]
        if None in parts:
            continue
        # (basis tuple, product of values, kernel count) of each combination
        combos = [((), None, 0)]
        for part in parts:
            combos = [
                (where + w, factor if y is None else y if factor is None else factor * y, count + c)
                for where, factor, count in combos
                for w, y, c in part
            ]
        for where, factor, count in combos:
            if count != kernel:
                continue
            row = acc.get(where)
            if row is None:
                row = acc[where] = [zero] * n_out
            if sign < 0:
                factor = -factor
            for k, x in cell:
                row[k] += factor * x


def bil(t2, u, v) -> tuple:
    """Apply a bilinear map given by ``t2`` to vectors ``u``, ``v``."""
    return apply2(view2(t2), u, v)


def tri(t3, u, v, w) -> tuple:
    """Apply a trilinear map given by ``t3`` to three vectors."""
    return apply3(view3(t3), u, v, w)


def _out_dim(t, depth: int = 2) -> int:
    node = t
    for _ in range(depth):
        if not node:
            return 0
        node = node[0]
    return len(node)


def tensor(shape: tuple, fn, where: tuple = ()) -> tuple:
    """Build a tensor with inputs of dims ``shape`` from ``fn(basis tuple)
    -> output vector``."""
    if len(where) == len(shape):
        return tuple(fn(where))
    return tuple(tensor(shape, fn, where + (i,)) for i in range(shape[len(where)]))


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
