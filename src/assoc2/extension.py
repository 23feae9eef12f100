"""Split abelian extensions, the part both theories share.

An extension is stored concretely: a total structure, the index sets that
carve out the abelian kernel as coordinate subspaces in degrees 0 and 1,
the projection onto the base, and an explicit splitting (a degreewise right
inverse of the projection; never chosen implicitly).  A two-term algebra
has degrees 0 and 1; a crossed module (h -> p) has p in degree 0, with
kernel W, and h in degree 1, with kernel V.

This module holds what does not depend on the theory: the coordinate maps,
the blocks of the standard total, the reading of the cocycle families off
its axioms, the standard extension's projection and splitting, the
exactness, rank and splitting identities, the flow of the equivalence
decision, and the degreewise maps of an equivalence witness with the check
that they fix the kernel and commute with the projections.  ``ext2`` and
``xmod`` add the theory's own structure checks, extraction formulas and
totals, as the subclass methods ``require``, ``representation``,
``cocycle`` and ``complex_of``.

The standard total of a base, a representation and a two-cochain c lives
on (base + kernel) in each degree, base coordinates first.  Its structure
maps are copied into place block by block: on base arguments the base map
plus c, the action of the base on the kernel where one argument is a
kernel vector, and zero where two are.  It satisfies the theory's axioms
exactly when c is a cocycle, and on base tuples the kernel part of each
axiom's residual is, up to a fixed sign, one cocycle family evaluated on
c (the tables are ``cohom2.FAMILIES`` and ``xmod.XFAMILIES``).  So d2 and
the cocycle checks are read off the axiom evaluators, on a total whose
cochain entries may be the linear forms of matrix assembly.  On tuples
with one kernel argument the total of the zero cochain, the semidirect
product, gives the representation axioms (``rep2.REPRESENTATION``,
``xmod.XREPRESENTATION``), and the homomorphism residuals of a splitting
give the extracted cocycle.  Two splittings differ by a one-cochain and
their cocycles by its coboundary, so the splitting of the semidirect
product shifted by a one-cochain (``shifted``) gives d1 the same way.
``kernel_residuals`` does the relabelling for all of them, and ``placed``
sets the relabelled values in a cochain layout.  The total's maps on the
stored splitting and kernel (``SplitExtension.fed``) give the induced
representation and the abelian-kernel checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter

from .algebra2 import dense, evaluated
from .cochain import Cochain, Inequivalence, Layout, cohomologous
from .exactlin import Matrix, rank
from .integral import integral_report, twin_field
from .report import CheckReport, checked, kept, kept_field, report_from
from .tensorops import Sparse, sparse_matrix, tflat, unit, vadd, vneg, vsub, vzero


def _incl(v, sub, n):
    out = [Fraction(0)] * n
    for pos, idx in enumerate(sub):
        out[idx] = v[pos]
    return tuple(out)


def _coordinate_projection(n: int, total: int) -> Matrix:
    return Matrix(tuple(tuple(Fraction(1 if i == j else 0) for j in range(total)) for i in range(n)), total)


def total_matrix(base: Matrix, twist: Matrix, kernel: Matrix) -> Matrix:
    """The block matrix [[base, 0], [twist, kernel]] of a map from
    (B + K) to (C + L): base on B to C, twist on B to L, kernel on K to L.
    The entries are kept as they are: ``int`` on twins, forms in twist; the
    zero block is ``int``, which every evaluator skips at once."""
    pad = (0,) * kernel.cols
    rows = tuple(row + pad for row in base.entries) + tuple(t + k for t, k in zip(twist.entries, kernel.entries))
    return Matrix.as_given(rows, base.cols + kernel.cols)


def total_bilinear(base, twist, left, right, dims) -> tuple:
    """The bilinear tensor on (A + M) x (B + N) -> (C + P) with base + twist
    on (A, B) (to C and P), left on (A, N) and right on (M, B) (to P), and
    ``int`` zero on (M, N) and in C off (A, B); ``dims`` is ((A, M), (B, N),
    (C, P)) by dimension."""
    (na, ma), (nb, mb), (nc, mc) = dims
    pad, none = (0,) * nc, (0,) * (nc + mc)
    top = tuple(
        tuple(base[i][j] + twist[i][j] for j in range(nb)) + tuple(pad + left[i][s] for s in range(mb))
        for i in range(na)
    )
    return top + tuple(tuple(pad + right[s][j] for j in range(nb)) + (none,) * mb for s in range(ma))


def shifted(m: Matrix) -> Matrix:
    """The map x -> x + m(x) from the source of m into (source + target),
    source coordinates first: [[1], [m]], the identity block ``int`` and
    m's entries kept as they are."""
    n = m.cols
    return Matrix.as_given(tuple(unit(n, i) for i in range(n)) + m.entries, n)


def as_is(lhs, rhs):
    return lhs, rhs


def swapped(lhs, rhs):
    return rhs, lhs


def negated(lhs, rhs):
    return vneg(lhs), vneg(rhs)


def tail_parts(cuts) -> tuple:
    """The kernel part in degrees 0 and 1 of a vector of a standard total
    whose base dims are ``cuts``: its coordinates from the cut on."""
    return tuple(itemgetter(slice(cut, None)) for cut in cuts)


def kernel_residuals(residuals, table: dict, parts):
    """Yield (label, basis tuple, lhs, rhs) for each residual whose key
    ``table`` lists as (label, orientation, degree of the values): both
    sides cut to their kernel part ``parts[degree]``, then oriented by
    ``orientation(lhs, rhs)``.  The key is the residual's condition."""
    for condition, where, lhs, rhs in residuals:
        entry = table.get(condition)
        if entry is not None:
            label, orientation, degree = entry
            part = parts[degree]
            yield (label, where, *orientation(part(lhs), part(rhs)))


def by_kernel_position(residuals, slots: dict, cuts):
    """The residuals of a standard total on tuples with exactly one kernel
    argument, keyed by (condition, position of that argument), with the
    argument renumbered from 0 in the kernel; ``slots`` gives the degree of
    each argument of each condition, ``cuts`` the base dims."""
    for condition, where, lhs, rhs in residuals:
        for pos, deg in enumerate(slots[condition]):
            if where[pos] >= cuts[deg]:
                break
        yield (condition, pos), where[:pos] + (where[pos] - cuts[deg],) + where[pos + 1 :], lhs, rhs


def stacked(families) -> tuple:
    """The residual vectors lhs - rhs of ``kernel_residuals``, concatenated."""
    return tuple(x for _, _, lhs, rhs in families for x in vsub(lhs, rhs))


def families_report(families) -> CheckReport:
    return report_from((family, where, vsub(lhs, rhs), vzero(len(lhs))) for family, where, lhs, rhs in families)


def placed(residuals, layout: Layout) -> Cochain:
    """The two-cochain of ``layout`` whose block named by each residual's
    label holds lhs - rhs at the residual's basis tuple, with ``int``
    values made ``Fraction`` and linear forms kept: values are placed by
    basis tuple, whatever order they come in."""
    values = {(label, where): vsub(lhs, rhs) for label, where, lhs, rhs in residuals}
    return layout.unflatten(
        Fraction(x) if type(x) is int else x
        for name, inputs, _ in layout.shapes
        for where in product(*map(range, inputs))
        for x in values[name, where]
    )


# the degrees of the arguments of the maps fed into a total's maps, whose
# own are the total's degrees 0 and 1: the splitting takes the base's (2,
# 3) and the inclusion of the kernel the kernel's (4, 5)
FEED_INPUTS = {"sigma0": (2,), "sigma1": (3,), "incl0": (4,), "incl1": (5,)}


@dataclass
class SplitExtension:
    total: object
    base: object
    sub0: tuple[int, ...]   # indices of kernel coordinates inside total degree 0
    sub1: tuple[int, ...]   # indices of kernel coordinates inside total degree 1
    p0: Matrix              # total0 -> base0
    p1: Matrix              # total1 -> base1
    sigma0: Matrix          # base0 -> total0
    sigma1: Matrix          # base1 -> total1
    _kept: dict | None = kept_field()
    _twin: object = twin_field()

    # condition labels of the exactness identities in degrees 0 and 1
    EXACT = ("exact0", "exact1")

    @classmethod
    def standard(cls, total, base):
        """``total`` on (base + kernel) coordinates in each degree, base
        first, with the coordinate projection and inclusion of the base."""
        p0 = _coordinate_projection(base.dim0, total.dim0)
        p1 = _coordinate_projection(base.dim1, total.dim1)
        sub0, sub1 = tuple(range(base.dim0, total.dim0)), tuple(range(base.dim1, total.dim1))
        return cls(total, base, sub0, sub1, p0, p1, p0.transpose(), p1.transpose())

    @property
    def hdim0(self) -> int:
        return len(self.sub0)

    @property
    def hdim1(self) -> int:
        return len(self.sub1)

    def incl0(self, v):
        return _incl(v, self.sub0, self.total.dim0)

    def incl1(self, v):
        return _incl(v, self.sub1, self.total.dim1)

    def restrict0(self, v):
        return tuple(v[idx] for idx in self.sub0)

    def restrict1(self, v):
        return tuple(v[idx] for idx in self.sub1)

    def fed(self, table: dict, maps: dict, inputs: dict) -> dict:
        """``algebra2.evaluated`` of each entry (degree of the values, map,
        feeds) of ``table``: a map of the total (``maps``, of degrees
        ``inputs``) with the splitting or the inclusion of the kernel
        (``FEED_INPUTS``) or a basis vector (None) in each argument."""
        dims = self.total.dim0, self.total.dim1, self.base.dim0, self.base.dim1, self.hdim0, self.hdim1

        def feeds():
            subs = self.sub0, self.sub1
            incl = [Sparse(tuple(((s,), ((i, 1),)) for s, i in enumerate(sub)), 0, n) for sub, n in zip(subs, dims)]
            return dict(zip(FEED_INPUTS, (sparse_matrix(self.sigma0), sparse_matrix(self.sigma1), *incl)))

        terms = {name: ([(1, m, fed)],) for name, (_, m, fed) in table.items()}
        return evaluated(terms, {**maps, **kept(self, "feeds", feeds)}, {**inputs, **FEED_INPUTS}, dims)

    def induced(self, table: dict, maps: dict, inputs: dict) -> dict:
        """The kernel part, in its degree, of each entry of ``table`` (see
        ``fed``) as a tensor: the actions of the induced representation."""
        parts = self.restrict0, self.restrict1
        return {name: dense(value, parts[table[name][0]]) for name, value in self.fed(table, maps, inputs).items()}

    def abelian_residuals(self, table: dict, maps: dict, inputs: dict):
        """Yield (name, basis tuple, value, zero) for each entry of ``table``
        (see ``fed``), whose values vanish on an abelian kernel, on the basis
        tuples a nonzero value reaches: on no other can one fail to vanish."""
        dims = self.total.dim0, self.total.dim1
        for name, ([(rows, _)], _) in self.fed(table, maps, inputs).items():
            yield from ((name, where, tuple(row), vzero(dims[table[name][0]])) for where, row in rows.items())

    def _degrees(self):
        """Per degree: kernel index set, projection, splitting, total and base dimension."""
        return (
            (self.sub0, self.p0, self.sigma0, self.total.dim0, self.base.dim0),
            (self.sub1, self.p1, self.sigma1, self.total.dim1, self.base.dim1),
        )

    def check(self, require, residuals) -> CheckReport:
        """The report of ``residuals(self)`` and of the rank identities,
        once both structures pass ``require`` and the kernel index sets are
        free of duplicates; computed once per extension."""

        def compute(e):
            require(e.total)
            require(e.base)
            if len(set(e.sub0)) != len(e.sub0) or len(set(e.sub1)) != len(e.sub1):
                raise ValueError("kernel index sets contain duplicates")
            report = integral_report(residuals, e)
            report.violations += report_from(e.rank_residuals()).violations
            return report.sorted()

        return checked(self, compute)

    def split_residuals(self):
        """Exactness and splitting in both degrees: the kernel coordinates
        project to zero and p . sigma = id."""
        for k, (sub, p, sigma, n, b) in enumerate(self._degrees()):
            for pos in range(len(sub)):
                yield self.EXACT[k], (pos,), p @ _incl(unit(len(sub), pos), sub, n), vzero(b)
            yield f"split{k}", (), tuple(tflat((p @ sigma).entries)), tuple(tflat(Matrix.identity(b).entries))

    def rank_residuals(self):
        """The projection is onto, with exactly the kernel coordinates as
        its kernel: (rank p, dimension left by the kernel) = (base
        dimension, rank p).  Counts, not scalars, so never on a twin."""
        for k, (sub, p, _, n, b) in enumerate(self._degrees()):
            r = rank(p)
            yield self.EXACT[k] + "-rank", (), (r, n - len(sub)), (b, r)

    def equivalence(self, other: "SplitExtension", same_kernel, check_witness):
        """Decide whether ``self`` and ``other`` are equivalent.  Both must
        pass their checks, have the same base (and kernel complex, when the
        theory passes ``same_kernel(self, other)``) and induce the same
        representation; then one solve against d1 gives a primitive of the
        difference of their cocycles, or the ``Inequivalence`` certificate.
        ``check_witness(primitive, r)`` builds the theory's witness, which
        keeps the induced representation r the primitive is a cochain of,
        verifies that it is a homomorphism and returns it with its
        degreewise maps, which must fix the kernel and commute with the
        projections."""
        self.require()
        other.require()
        if self.base != other.base:
            raise ValueError("extensions have different bases")
        if same_kernel is not None and not same_kernel(self, other):
            raise ValueError("extensions have different kernel complexes")
        r = self.representation()
        if r != other.representation():
            raise ValueError("extensions induce different representations and are not comparable")
        c1, c2 = self.cocycle(), other.cocycle()
        lam = cohomologous(*self.complex_of(r), c1, c2)
        if isinstance(lam, Inequivalence):
            return lam
        witness, f0, f1 = check_witness(lam, r)
        self.require_commutes(other, f0, f1)
        return witness

    def witness_maps(self, other: "SplitExtension", lam0: Matrix, lam1: Matrix) -> tuple[Matrix, Matrix]:
        """The degreewise maps of the candidate equivalence from ``self`` to
        ``other`` built from a one-cochain's degree-0 and degree-1 maps:
        through the stored splittings, x + u maps to x + lam(x) + u."""

        def f(mine, theirs, lam):
            sub, p, sigma, n, _ = mine
            osub, _, osigma, on, _ = theirs
            cols = []
            for j in range(n):
                col = unit(n, j)
                x = p @ col
                rest = vsub(col, sigma @ x)
                u = tuple(rest[idx] for idx in sub)
                cols.append(vadd(osigma @ x, _incl(vadd(lam @ x, u), osub, on)))
            return Matrix.from_cols(cols, on)

        f0, f1 = (f(*degree) for degree in zip(self._degrees(), other._degrees(), (lam0, lam1)))
        return f0, f1

    def require_commutes(self, other: "SplitExtension", f0: Matrix, f1: Matrix) -> None:
        """Raise unless the witness maps send the kernel of ``self`` to the
        kernel of ``other`` identically and commute with the projections."""
        for (sub, p, _, n, _), (osub, op, _, on, _), f in zip(self._degrees(), other._degrees(), (f0, f1)):
            k = len(sub)
            if any(f @ _incl(unit(k, s), sub, n) != _incl(unit(k, s), osub, on) for s in range(k)) or op @ f != p:
                raise AssertionError("witness does not commute with inclusion/projection")
