"""Exact linear algebra over the rationals.

Every cohomology dimension, kernel, and equivalence witness in this package
reduces to rank / kernel / solve on matrices with ``Fraction`` entries.
The cochain matrices are very sparse, so elimination works on each
matrix's sparse row view: rows are inserted, sparsest first, into a
reduced echelon basis keyed by leading column.  The reduced row echelon
form is unique, so the result does not depend on that row order.  There
is no floating point anywhere, and results that the contract cares about
(solutions, kernel vectors) are re-verified by exact multiplication, over
the nonzero entries, before they are returned.

Scalar contract: ``Matrix`` doubles as a container for entries from other
commutative rings (polynomials in a deformation parameter, see
:mod:`assoc2.poly`; the ``int`` entries of an integral structure's twin and
the linear forms of a standard total, both kept by ``Matrix.as_given``),
and ``Matrix @ vector`` is ring-generic like the tensor evaluators: it
skips zeros by truthiness, and an empty sum is the zero of the matrix's own
scalars.  Elimination is not generic: its inputs (``rref``, ``rank``,
``kernel_basis``, ``solve``) are ``Fraction`` matrices and vectors, and so
are all its outputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

Vector = tuple  # tuple of scalars (Fraction in the exact-linear-algebra API)

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") in ASCII digits, ``-?[0-9]+(/[0-9]+)?``, with the
    sign on the numerator and q > 0.  Text that ``int`` cannot read fails
    with ``int``'s own message; text that it reads but the grammar does not
    allow (underscores, other digits, a plus sign, spaces) fails after."""
    stripped = text.strip()
    num, slash, den = stripped.partition("/")
    d = int(den) if slash else 1
    if d <= 0:
        raise ValueError(f"denominator must be positive in {clipped(repr(stripped))}")
    n = int(num)
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not of the form p or p/q in ASCII digits: {clipped(repr(text))}")
    return Fraction(n, d)


def clipped(text: str, limit: int = 40) -> str:
    """``text`` for a message, cut to its first ``limit`` characters when
    it is longer, so a long input value does not fill the message."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coerce(x):
    return Fraction(x) if isinstance(x, int) else x


def _dense_row(terms: dict, cols: int) -> Vector:
    row = [ZERO] * cols
    for k, v in terms.items():
        row[k] = v
    return tuple(row)


class Matrix:
    """Row-major matrix. Immutable once constructed.

    ``entries`` is the dense record, a tuple of row tuples.  Elimination
    reads the sparse row view ``sparse_rows()``: one dict
    ``{column: nonzero entry}`` per row, handed in by ``from_sparse`` or
    built from ``entries`` on first use, then cached.  Neither is ever
    mutated, so matrices may share them.
    """

    __slots__ = ("rows", "cols", "entries", "_sparse")

    def __init__(self, entries, cols: int | None = None):
        rows = tuple(tuple(_coerce(x) for x in row) for row in entries)
        self.rows = len(rows)
        if rows:
            self.cols = len(rows[0])
            if any(len(r) != self.cols for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError("declared column count does not match rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.cols = cols
        self.entries = rows
        self._sparse = None

    @staticmethod
    def as_given(entries: tuple, cols: int) -> "Matrix":
        """The matrix of ``entries``, a tuple of row tuples, with its entries
        kept as they are (the constructor makes ``int`` ones ``Fraction``)."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m.entries, m._sparse = len(entries), cols, entries, None
        return m

    @staticmethod
    def from_sparse(rows, cols: int) -> "Matrix":
        """The matrix whose row i has the nonzero ``Fraction`` entries
        ``rows[i]`` (a dict ``{column: value}`` without zero values).  The
        dicts become the sparse row view and must not be mutated later."""
        m = Matrix.__new__(Matrix)
        m._sparse = tuple(rows)
        m.rows, m.cols = len(m._sparse), cols
        m.entries = tuple(_dense_row(terms, cols) for terms in m._sparse)
        return m

    def sparse_rows(self) -> tuple[dict, ...]:
        """Per row, the dict ``{column: entry}`` of its nonzero entries."""
        if self._sparse is None:
            self._sparse = tuple({j: x for j, x in enumerate(row) if x != 0} for row in self.entries)
        return self._sparse

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(tuple((ZERO,) * cols for _ in range(rows)), cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)), n)

    @staticmethod
    def from_cols(cols, rows: int) -> "Matrix":
        cols = list(cols)
        return Matrix(tuple(tuple(_coerce(c[i]) for c in cols) for i in range(rows)), len(cols))

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def transpose(self) -> "Matrix":
        return Matrix(tuple(self.col(j) for j in range(self.cols)), self.rows)

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
            cols = other.cols
            out = []
            for row in self.entries:
                new = [0] * cols
                for k, x in enumerate(row):
                    if x == 0:
                        continue
                    orow = other.entries[k]
                    for j in range(cols):
                        new[j] = new[j] + x * orow[j]
                out.append(tuple(ZERO + v if isinstance(v, int) else v for v in new))
            return Matrix(tuple(out), cols)
        # matrix @ vector; an int accumulator left over is an empty sum,
        # unless the matrix itself is over the integers
        v = tuple(other)
        if self.cols != len(v):
            raise ValueError(f"shape mismatch {self.shape} @ vector of length {len(v)}")
        integral = self.rows and self.cols and type(self.entries[0][0]) is int
        out = []
        for row in self.entries:
            acc = 0
            for x, y in zip(row, v):
                if x and y:
                    acc += x * y
            out.append(ZERO + acc if type(acc) is int and not integral else acc)
        return tuple(out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-a for a in r) for r in self.entries), self.cols)

    def scale(self, c) -> "Matrix":
        return Matrix(tuple(tuple(c * a for a in r) for r in self.entries), self.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.shape, self.entries))

    def __repr__(self):
        return f"Matrix({self.entries!r})"

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        reduced, pivots = _eliminate(self.sparse_rows())
        zero_rows = ({},) * (self.rows - len(reduced))
        return Matrix.from_sparse(tuple(reduced) + zero_rows, self.cols), pivots


def _eliminate(rows) -> tuple[list[dict], tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form, in pivot order, and
    their pivot columns.  Rows are reduced on copies; ``rows`` is not touched.

    The basis, keyed by pivot column, is kept in reduced form: each basis
    row leads with a 1 at its pivot and is zero at every other pivot.
    Each input row, sparsest first, is cleared at the pivots it meets,
    which adds entries at non-pivot columns only.  If anything is left, it
    joins the basis at its leading column, scaled to a leading 1, and that
    column is cleared from the rows already there (none of them leads
    further left, since it would then be nonzero left of its own pivot).
    """
    basis: dict[int, dict] = {}
    for row in sorted(rows, key=len):
        row = dict(row)
        for c in [k for k in row if k in basis]:
            _axpy(row, -row[c], basis[c])
        if not row:
            continue
        lead = min(row)
        inv = ONE / row[lead]
        new = {k: v * inv for k, v in row.items()}
        for other in basis.values():
            x = other.get(lead)
            if x:
                _axpy(other, -x, new)
        basis[lead] = new
    pivots = tuple(sorted(basis))
    return [basis[p] for p in pivots], pivots


def _axpy(row: dict, f, other: dict) -> None:
    """row += f * other, in place, dropping entries that cancel."""
    for k, v in other.items():
        x = row.get(k)
        if x is None:
            row[k] = f * v
        else:
            x += f * v
            if x:
                row[k] = x
            else:
                del row[k]


def _times(m: Matrix, vectors) -> list[dict]:
    """Per row i of m, ``{t: (m @ vectors[t])[i]}`` over the vectors that
    meet the row; products are taken over nonzero entries only."""
    by_col = [{} for _ in range(m.cols)]
    for t, v in enumerate(vectors):
        for j, x in enumerate(v):
            if x:
                by_col[j][t] = x
    out = []
    for row in m.sparse_rows():
        acc = {}
        for j, x in row.items():
            for t, y in by_col[j].items():
                acc[t] = acc.get(t, ZERO) + x * y
        out.append(acc)
    return out


@dataclass(frozen=True)
class Subspace:
    """A subspace given by an explicit (verified independent) basis."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")
        if self.basis:
            if rank(Matrix(self.basis, self.ambient_dim)) != len(self.basis):
                raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        return in_span(self, v)


def rank(m: Matrix) -> int:
    """Rank over the rationals, computed exactly."""
    return len(m.rref()[1])


def kernel_basis(m: Matrix) -> Subspace:
    """A basis of ``{v : m v = 0}``; each vector is re-checked exactly."""
    red, pivots = m.rref()
    pivot_set = set(pivots)
    free = {c: [ZERO] * m.cols for c in range(m.cols) if c not in pivot_set}
    for p, row in zip(pivots, red.sparse_rows()):
        for f, x in row.items():
            if f != p:
                free[f][p] = -x
    for f, v in free.items():
        v[f] = ONE
    basis = tuple(tuple(v) for v in free.values())
    if any(x for acc in _times(m, basis) for x in acc.values()):
        raise AssertionError("kernel vector failed exact re-multiplication")
    return Subspace(m.cols, basis)


@dataclass(frozen=True)
class Inconsistent:
    """The rank certificate of an inconsistent ``m x = b``:
    rank [m | b] = rank m + 1."""

    rank: int            # rank of m
    rank_augmented: int  # rank of [m | b]


def solve(m: Matrix, b: Vector, certificate: bool = False):
    """Some ``x`` with ``m x = b``, or ``None`` when the system is
    inconsistent (with ``certificate``, the ``Inconsistent`` ranks instead,
    read off the pivots of the same elimination).

    Free variables are set to zero, so the answer is deterministic.  The
    returned vector is verified by exact re-multiplication.
    """
    b = tuple(_coerce(x) for x in b)
    if len(b) != m.rows:
        raise ValueError(f"right-hand side has length {len(b)}, expected {m.rows}")
    n = m.cols
    aug = Matrix.from_sparse(tuple({**row, n: bv} if bv else row for row, bv in zip(m.sparse_rows(), b)), n + 1)
    red, pivots = aug.rref()
    if n in pivots:
        # the pivots left of column n are those of m's own rref
        return Inconsistent(len(pivots) - 1, len(pivots)) if certificate else None
    x = [ZERO] * n
    for p, row in zip(pivots, red.sparse_rows()):
        x[p] = row.get(n, ZERO)
    xv = tuple(x)
    if tuple(acc.get(0, ZERO) for acc in _times(m, (xv,))) != b:
        raise AssertionError("solution failed exact re-multiplication")
    return xv


def in_span(s: Subspace, v: Vector) -> bool:
    """Whether ``v`` lies in the span of ``s.basis`` (rank comparison)."""
    if len(v) != s.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    if all(x == 0 for x in v):
        return True
    if not s.basis:
        return False
    base = Matrix(s.basis, s.ambient_dim)
    ext = Matrix(s.basis + (tuple(_coerce(x) for x in v),), s.ambient_dim)
    return rank(ext) == rank(base)
