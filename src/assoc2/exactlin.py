"""Exact linear algebra over the rationals.

Every cohomology dimension, kernel, and equivalence witness in this package
reduces to rank / kernel / solve on matrices with ``Fraction`` entries.
All of them read one elimination, ``_eliminate``, the reduced row echelon
form of a matrix's rows scaled to integers (``Matrix.integer_rows``).
They are reduced, sparsest first, into an echelon basis keyed by leading
column, modulo word-size primes from the fixed tuple ``PRIMES``; a prime
after the first reduces only the rows that gave the pivots.  The rows are
lifted to Q by CRT and rational reconstruction, and the lift is accepted
only after an exact proof over the integers that it is the rref
(``_certified``); when no prime gives one, the same loop runs over
``Fraction``.  The reduced row echelon form is unique, so the result
depends neither on the path nor on the row order.  There is no floating
point anywhere, and results that the contract cares about are re-verified
exactly before they are returned: kernel vectors and solutions by
multiplying back over the integers, the independence of a kernel basis by
its unit pattern.

Scalar contract: ``Matrix`` doubles as a container for entries from other
commutative rings (polynomials in a deformation parameter, see
:mod:`assoc2.poly`; the ``int`` entries of an integral structure's twin and
the linear forms of a standard total, both kept by ``Matrix.as_given``),
and ``Matrix @ vector`` is ring-generic like the tensor evaluators: it
walks the sparse row view, so zero entries (the zero blocks of a standard
total) are never visited, skips zero coordinates by truthiness, and an
empty sum is the zero of the matrix's own scalars.  Elimination is not
generic.  It reads integer rows: a matrix made by ``from_integer_rows``
(the assembled d1 and d2 of an integral pair, ``cochain.assemble``) hands
them in as they are, and builds its ``Fraction`` view (``sparse_rows()``,
``entries``) only when something reads it; any other matrix is scaled to
integers row by row once.  The outputs of ``rref``, ``rank``,
``kernel_basis`` and ``solve`` are ``Fraction``, and so are the vectors
they take; residues stay inside.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm

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

    ``entries`` is the dense record, a tuple of row tuples.  The sparse
    row view ``sparse_rows()`` holds one dict ``{column: nonzero entry}``
    per row, handed in by ``from_sparse`` or built from ``entries`` on
    first use, then cached.  Elimination reads the rows scaled to integers,
    ``integer_rows()``, handed in by ``from_integer_rows`` or built from
    the sparse view on first use.  A matrix made by ``from_sparse`` or
    ``from_integer_rows`` builds ``entries`` on first use instead
    (``__getattr__`` runs only while the slot is unset, so a read of it
    costs nothing after), and one made by ``from_integer_rows`` builds its
    sparse view the same way.  None of them is ever mutated, so matrices
    may share them.
    """

    __slots__ = ("rows", "cols", "entries", "_sparse", "_ints", "_scales")

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
        self._sparse = self._ints = self._scales = None

    @staticmethod
    def as_given(entries: tuple, cols: int) -> "Matrix":
        """The matrix of ``entries``, a tuple of row tuples, with its entries
        kept as they are (the constructor makes ``int`` ones ``Fraction``)."""
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m.entries, m._sparse, m._ints, m._scales = len(entries), cols, entries, None, None, None
        return m

    @staticmethod
    def from_sparse(rows, cols: int) -> "Matrix":
        """The matrix whose row i has the nonzero ``Fraction`` entries
        ``rows[i]`` (a dict ``{column: value}`` without zero values).  The
        dicts become the sparse row view and must not be mutated later."""
        m = Matrix.__new__(Matrix)
        m._sparse, m._ints, m._scales = tuple(rows), None, None
        m.rows, m.cols = len(m._sparse), cols
        return m

    @staticmethod
    def from_integer_rows(rows, cols: int) -> "Matrix":
        """The matrix whose row i has the nonzero ``int`` entries ``rows[i]``
        (a dict ``{column: value}`` without zero values).  The dicts become
        the integer rows elimination reads, each with scale 1, and must not
        be mutated later; the ``Fraction`` view is built on first read."""
        m = Matrix.__new__(Matrix)
        m._sparse, m._ints = None, tuple(rows)
        m.rows, m.cols, m._scales = len(m._ints), cols, (1,) * len(m._ints)
        return m

    def __getattr__(self, name):
        """The dense record of a ``from_sparse`` or ``from_integer_rows``
        matrix, on its first read."""
        if name != "entries":
            raise AttributeError(name)
        self.entries = tuple(_dense_row(terms, self.cols) for terms in self.sparse_rows())
        return self.entries

    def sparse_rows(self) -> tuple[dict, ...]:
        """Per row, the dict ``{column: entry}`` of its nonzero entries."""
        if self._sparse is None:
            if self._ints is not None:  # made by from_integer_rows
                self._sparse = tuple({j: Fraction(x) for j, x in row.items()} for row in self._ints)
            else:
                self._sparse = tuple({j: x for j, x in enumerate(row) if x != 0} for row in self.entries)
        return self._sparse

    def integer_rows(self) -> tuple[dict, ...]:
        """Per row, the dict of its nonzero entries scaled to integers by
        the least positive factor (``row_scales``, ``_integral``), computed
        once: the rows elimination runs on and kernel vectors and solutions
        are re-multiplied by."""
        if self._ints is None:
            scaled = [_integral(row) for row in self.sparse_rows()]
            self._scales = tuple(s for s, _ in scaled)
            self._ints = tuple(row for _, row in scaled)
        return self._ints

    def row_scales(self) -> tuple[int, ...]:
        """Per row, the factor that ``integer_rows`` scaled it by."""
        self.integer_rows()
        return self._scales

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
        for terms in self.sparse_rows():
            acc = 0
            for j, x in terms.items():
                y = v[j]
                if y:
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
        reduced, pivots = _eliminate(self.integer_rows())
        zero_rows = ({},) * (self.rows - len(reduced))
        return Matrix.from_sparse(tuple(reduced) + zero_rows, self.cols), pivots


# the ten largest primes below 2**61, tried in this order
PRIMES = tuple(2**61 - k for k in (1, 31, 45, 229, 259, 283, 339, 391, 403, 465))


def _eliminate(rows) -> tuple[list[dict], tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form, in pivot order, and
    their pivot columns, of the integer ``rows`` (each a matrix row scaled
    to integers, which leaves the rref as it is).  ``rows`` is not touched.

    The rows are reduced, sparsest first, modulo the primes of ``PRIMES``
    in turn (``_rref_mod``).  Only
    primes whose pivot tuple equals the best one seen so far are combined:
    a prime that divides a minor the rref depends on gives fewer pivots,
    or at equal rank an elementwise larger tuple, and is skipped.  After
    each combined prime the rows are lifted to Q by CRT and rational
    reconstruction (``_lift``), and the lift is accepted only when
    ``_certified`` proves it is the rref over Q, on every input row.  If no
    prime gives a certified lift, the rref is computed over ``Fraction``
    (``_eliminate_over_q``).

    A prime after the first eliminates only the rows that gave the pivots
    of the last prime combined (its ``_Reduced.rows``).  Those rows are
    independent, so when that prime's rank is the rank over Q they span
    the row space and have the same rref.  When it is not, no lift from
    them passes the proof, so the prime after any refused lift eliminates
    every row again.
    """
    ints = sorted(rows, key=len)
    best, residues, modulus, subset = None, None, 1, ints
    for p in PRIMES:
        reduced = _rref_mod(subset, p)
        pivots = tuple(sorted(reduced))
        if best is None or _better(pivots, best):
            best, residues, modulus = pivots, reduced, p
        elif pivots == best:
            residues = _crt(residues, modulus, reduced, p)
            modulus *= p
        else:
            continue
        subset = reduced.rows
        lifted = _lift(residues, modulus)
        if lifted is not None:
            if _certified(ints, lifted):
                return [lifted[c] for c in best], best
            subset = ints
    return _eliminate_over_q(rows)


def _integral(row: dict) -> tuple[int, dict]:
    """(s, s * row) for the least s > 0 that makes every entry an integer."""
    s = lcm(*(x.denominator for x in row.values()))
    if s == 1:
        return 1, {k: x.numerator for k, x in row.items()}
    return s, {k: x.numerator * (s // x.denominator) for k, x in row.items()}


def _better(pivots: tuple, best: tuple) -> bool:
    """Whether a prime with these pivots is luckier than one with ``best``:
    more pivots, or as many and each no further right.  The pivots over Q
    are the best tuple any prime can give."""
    if len(pivots) != len(best):
        return len(pivots) > len(best)
    return pivots != best and all(a <= b for a, b in zip(pivots, best))


class _Reduced(dict):
    """The reduced rows of ``_rref_mod`` keyed by pivot column, and in
    ``rows`` the input rows that gave a pivot, in input order."""

    __slots__ = ("rows",)


def _rref_mod(rows: list[dict], p: int) -> _Reduced:
    """The reduced rows of the integer ``rows`` modulo p, keyed by pivot
    column, each without its leading 1: the insertion loop of
    ``_eliminate_over_q`` over the integers mod p."""
    basis = _Reduced()
    basis.rows = []
    for given in rows:
        row = {k: x for k, v in given.items() if (x := v % p)}
        for c in [k for k in row if k in basis]:
            _axpy_mod(row, p - row.pop(c), basis[c], p)
        if not row:
            continue
        basis.rows.append(given)
        lead = min(row)
        inv = pow(row.pop(lead), -1, p)
        new = {k: v * inv % p for k, v in row.items()}
        for other in basis.values():
            x = other.pop(lead, 0)
            if x:
                _axpy_mod(other, p - x, new, p)
        basis[lead] = new
    return basis


def _axpy_mod(row: dict, f: int, other: dict, p: int) -> None:
    """row += f * other mod p, in place, dropping entries that cancel; the
    leading 1 that ``other`` leaves out is cleared by the caller."""
    for k, v in other.items():
        x = row.get(k)
        if x is None:
            row[k] = f * v % p
        else:
            x = (x + f * v) % p
            if x:
                row[k] = x
            else:
                del row[k]


def _crt(residues: dict, m: int, reduced: dict, p: int) -> dict:
    """The rows mod m * p that are ``residues`` mod m and ``reduced`` mod p."""
    inv = pow(m, -1, p)
    out = {}
    for c, old in residues.items():
        new = reduced[c]
        out[c] = {k: (x := old.get(k, 0)) + m * ((new.get(k, 0) - x) * inv % p) for k in old.keys() | new.keys()}
    return out


def _lift(residues: dict, m: int) -> dict[int, dict] | None:
    """The rows with rational entries n/d, |n| and d at most sqrt(m/2),
    congruent to ``residues`` mod m, with the leading 1 put back; None when
    some entry has no such rational.  Each row keeps the least common
    denominator of its entries so far: an entry that it turns into a small
    integer mod m needs no extended Euclid."""
    half = m // 2
    bound = isqrt(half)
    lifted = {}
    for c, row in residues.items():
        den, out = 1, {c: ONE}
        for k, r in row.items():
            if not r:
                continue
            t = r * den % m
            if t > half:
                t -= m
            if -bound <= t <= bound and den <= bound:
                out[k] = Fraction(t, den)
                continue
            q = _reconstruct(r, m, bound)
            if q is None:
                return None
            out[k] = q
            den = lcm(den, q.denominator)
        lifted[c] = out
    return lifted


def _reconstruct(r: int, m: int, bound: int) -> Fraction | None:
    """The rational n/d with |n|, d <= bound and n = r d mod m, by the
    extended Euclidean algorithm stopped halfway (Wang 1981), or None."""
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if not s1 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _certified(ints: list[dict], lifted: dict[int, dict]) -> bool:
    """Whether the lifted rows R are the rref of the integer rows, proved
    over the integers.  Each R_c has a 1 at its pivot c and a 0 at every
    other pivot.  If every row a equals sum_c a[c] R_c, the row space of
    the input lies in that of R, so rank_Q <= len(R) = rank_p <= rank_Q;
    then both spaces are equal, and a basis of that shape is its rref.  The
    check runs on R scaled by the common denominator s, without the pivot
    columns, where it holds by that shape: s a = sum_c a[c] s R_c."""
    s = lcm(*(x.denominator for row in lifted.values() for x in row.values()))
    scaled = {}
    for c, row in lifted.items():
        if row.get(c) != 1 or any(k in lifted for k in row if k != c):
            return False
        scaled[c] = {k: x.numerator * (s // x.denominator) for k, x in row.items() if k != c}
    for a in ints:
        acc = {}
        for c, x in a.items():
            r = scaled.get(c)
            if r is None:
                acc[c] = acc.get(c, 0) - s * x
            else:
                for k, v in r.items():
                    acc[k] = acc.get(k, 0) + x * v
        if any(acc.values()):
            return False
    return True


def _eliminate_over_q(rows) -> tuple[list[dict], tuple[int, ...]]:
    """``_eliminate`` over ``Fraction``, the fallback of the modular path;
    the entries of its output are ``Fraction`` on integer rows too.

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


def _products(rows, vectors) -> list[dict]:
    """Per integer row, ``{t: row . vectors[t]}`` over the integer vectors
    that meet it (sparse dicts both); products over nonzero entries only."""
    by_col: dict[int, dict] = {}
    for t, v in enumerate(vectors):
        for j, x in v.items():
            by_col.setdefault(j, {})[t] = x
    out = []
    for row in rows:
        acc = {}
        for j, x in row.items():
            for t, y in by_col.get(j, {}).items():
                acc[t] = acc.get(t, 0) + x * y
        out.append(acc)
    return out


def _unit_pattern(basis) -> bool:
    """Whether each vector has a coordinate that is 1 in it and 0 in every
    other vector, an exact proof of independence: in a vanishing
    combination, that coordinate reads the vector's own coefficient.  The
    vectors are dense, or sparse ``{column: value}`` dicts of their
    nonzero entries."""
    terms = [v if type(v) is dict else {j: x for j, x in enumerate(v) if x} for v in basis]
    used: dict[int, int] = {}
    for v in terms:
        for j in v:
            used[j] = used.get(j, 0) + 1
    return all(any(x == 1 and used[j] == 1 for j, x in v.items()) for v in terms)


@dataclass(frozen=True)
class Subspace:
    """A subspace given by an explicit basis, verified independent: by the
    unit pattern of ``_unit_pattern`` when it has one (kernel bases do),
    else by its rank.  ``terms`` holds the same vectors as sparse dicts of
    their nonzero entries; a caller that already has them passes them, and
    the check runs on them."""

    ambient_dim: int
    basis: tuple[Vector, ...]
    terms: tuple[dict, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")
        if self.terms is None:
            object.__setattr__(self, "terms", tuple({j: x for j, x in enumerate(v) if x} for v in self.basis))
        if self.basis and not _unit_pattern(self.terms):
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
    """A basis of ``{v : m v = 0}``, one vector per free column f, with a 1
    at f and 0 at the other free columns.  The vectors are re-checked
    exactly: scaled to integers, times m's rows scaled to integers."""
    red, pivots = m.rref()
    pivot_set = set(pivots)
    free = {c: {c: ONE} for c in range(m.cols) if c not in pivot_set}
    for p, row in zip(pivots, red.sparse_rows()):
        for f, x in row.items():
            if f != p:
                free[f][p] = -x
    vectors = tuple(free.values())
    products = _products(m.integer_rows(), [_integral(v)[1] for v in vectors])
    if any(x for acc in products for x in acc.values()):
        raise AssertionError("kernel vector failed exact re-multiplication")
    return Subspace(m.cols, tuple(_dense_row(v, m.cols) for v in vectors), vectors)


@dataclass(frozen=True)
class Inconsistent:
    """The rank certificate of an inconsistent ``m x = b``:
    rank [m | b] = rank m + 1."""

    rank: int            # rank of m
    rank_augmented: int  # rank of [m | b]


def augmented(m: Matrix, columns) -> tuple[Matrix, tuple[int, ...]]:
    """[m | columns] over the integers, and the factor of each column.

    The columns are sparse dicts ``{row: value}``, each scaled to integers
    by the least positive factor (``_integral``).  Row i is m's integer
    row (m's row i times ``m.row_scales()[i]``) followed by the scaled
    columns' entries times that row's factor.  Scaling rows and columns by
    positive factors keeps the pivots and the rank; the rref's appended
    columns come out times their factors.
    """
    n, scales = m.cols, m.row_scales()
    rows = [dict(row) for row in m.integer_rows()]
    factors = []
    for t, v in enumerate(columns):
        l, col = _integral(v)
        factors.append(l)
        for i, x in col.items():
            rows[i][n + t] = scales[i] * x
    return Matrix.from_integer_rows(rows, n + len(factors)), tuple(factors)


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
    aug, (f,) = augmented(m, ({i: x for i, x in enumerate(b) if x},))
    red, pivots = aug.rref()
    if n in pivots:
        # the pivots left of column n are those of m's own rref
        return Inconsistent(len(pivots) - 1, len(pivots)) if certificate else None
    x = {p: row[n] / f for p, row in zip(pivots, red.sparse_rows()) if n in row}
    # m x = b, checked over the integers as (s_i m_i) . (l x) = s_i l b_i
    scales = m.row_scales()
    l, lx = _integral(x)
    products = _products(m.integer_rows(), (lx,))
    if [acc.get(0, 0) for acc in products] != [s * l * v for s, v in zip(scales, b)]:
        raise AssertionError("solution failed exact re-multiplication")
    return _dense_row(x, n)


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
