import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assoc2 import exactlin
from assoc2.cochain import assemble, cohomology, primitive
from assoc2.cohom2 import cochain_complex, second_cohomology
from assoc2.exactlin import (
    Matrix,
    Subspace,
    format_rational,
    in_span,
    kernel_basis,
    parse_rational,
    rank,
    solve,
)
from assoc2.fixtures import direct_sum_algebra, fix_l3, fix_u
from assoc2.rep2 import adjoint_representation
from assoc2.sampling import random_cochain1, random_transport

F = Fraction

rationals = st.builds(
    Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=7)
)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Matrix(tuple(tuple(x) for x in rows), c))
        )
    )


@st.composite
def shaped_matrices(draw, max_dim=6):
    """Sparse or dense rational matrices with 0 to max_dim rows, plus up
    to two rows that repeat, scale or zero out another row."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    cell = draw(st.sampled_from([rationals, st.one_of(st.just(F(0)), rationals)]))
    entries = [draw(st.lists(cell, min_size=cols, max_size=cols)) for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, c = draw(st.integers(0, rows - 1)), draw(st.sampled_from([F(1), F(-2), F(1, 3), F(0)]))
        entries.append([c * x for x in entries[i]])
    draw(st.randoms()).shuffle(entries)
    return Matrix(tuple(tuple(r) for r in entries), cols)


def dense_rref(m):
    """Plain dense Gauss-Jordan elimination: the reference for Matrix.rref."""
    rows, pivots = [list(row) for row in m.entries], []
    for c in range(m.cols):
        r = len(pivots)
        p = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in rows), tuple(pivots)


def dense_kernel(m):
    red, pivots = dense_rref(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def dense_solve(m, b):
    red, pivots = dense_rref(Matrix(tuple(row + (x,) for row, x in zip(m.entries, b)), m.cols + 1))
    if m.cols in pivots:
        return None
    x = [F(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red[i][m.cols]
    return tuple(x)


@settings(max_examples=150, deadline=None)
@given(shaped_matrices(), st.data())
def test_sparse_elimination_matches_dense_reference(m, data):
    red, pivots = m.rref()
    assert (red.entries, pivots) == dense_rref(m)
    assert red.sparse_rows() == Matrix(red.entries, m.cols).sparse_rows()
    assert rank(m) == len(pivots)
    assert kernel_basis(m).basis == dense_kernel(m)
    b = tuple(data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows)))
    assert solve(m, b) == dense_solve(m, b)
    if m.rows:
        # a right-hand side in the image always has a solution
        x = tuple(data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols)))
        assert solve(m, m @ x) == dense_solve(m, m @ x) is not None


def test_from_sparse_matches_dense_constructor():
    rows = ({1: F(2)}, {}, {0: F(-1, 3), 2: F(5)})
    m = Matrix.from_sparse(rows, 3)
    assert m == Matrix(((0, 2, 0), (0, 0, 0), (F(-1, 3), 0, 5)))
    assert m.sparse_rows() == rows and m.shape == (3, 3)
    assert Matrix.from_sparse((), 4) == Matrix((), 4)


@settings(max_examples=60, deadline=None)
@given(shaped_matrices(), st.data())
def test_elimination_never_mutates_its_input(m, data):
    sparse = m.sparse_rows()
    before = (m.entries, [dict(row) for row in sparse])
    kernel_basis(m)
    rank(m)
    solve(m, tuple(data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))))
    assert m.sparse_rows() is sparse
    assert (m.entries, [dict(row) for row in sparse]) == before


def test_cohomology_never_mutates_the_assembled_forms():
    g = random_transport(random.Random(2), direct_sum_algebra(fix_u(), fix_l3()))
    r = adjoint_representation(g)
    cx = cochain_complex(g, r)
    mats = assemble(cx)
    # the sparse rows are the terms of the forms the evaluators returned
    before = [(m.entries, [dict(row) for row in m.sparse_rows()]) for m in (mats.d1, mats.d2)]
    first = cohomology(cx, mats)
    target = cx.d1(random_cochain1(random.Random(3), g, r))
    assert cx.d1(primitive(cx, mats, target)) == target
    again = cohomology(cx, mats)
    assert [(m.entries, [dict(row) for row in m.sparse_rows()]) for m in (mats.d1, mats.d2)] == before
    assert (first.dim_z2, first.dim_b2, first.representatives) == (again.dim_z2, again.dim_b2, again.representatives)
    a, b = second_cohomology(g, r), second_cohomology(g, r)
    assert (a.dim_z2, a.dim_b2, a.dim_h2, a.representatives) == (b.dim_z2, b.dim_b2, b.dim_h2, b.representatives)


def test_corrupted_elimination_fails_certification(monkeypatch):
    eliminate = exactlin._eliminate

    def corrupted(rows):
        reduced, pivots = eliminate(rows)
        first = dict(reduced[0])
        last = max(first)
        first[last] += 1  # one wrong entry, right of the pivot
        return [first] + reduced[1:], pivots

    monkeypatch.setattr(exactlin, "_eliminate", corrupted)
    m = Matrix(((1, 2, 3), (2, 4, 7)))  # rref rows (1, 2, 0), (0, 0, 1)
    with pytest.raises(AssertionError, match="kernel vector failed exact re-multiplication"):
        kernel_basis(m)
    with pytest.raises(AssertionError, match="solution failed exact re-multiplication"):
        solve(m, (F(1), F(1)))
    with pytest.raises(ValueError, match="linearly dependent"):
        Subspace(2, ((F(1), F(2)), (F(2), F(4))))


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(2)) == 2
    assert rank(Matrix.zero(2, 2)) == 0


def test_rank_dependent_rows():
    m = Matrix(((1, 2), (2, 4)))
    assert rank(m) == 1


def test_kernel_zero_map_and_identity():
    assert kernel_basis(Matrix.zero(3, 3)).dim == 3
    assert kernel_basis(Matrix.identity(2)).dim == 0


def test_kernel_dependent():
    ker = kernel_basis(Matrix(((1, 2), (2, 4))))
    assert ker.dim == 1
    (v,) = ker.basis
    assert v[0] + 2 * v[1] == 0 and v != (0, 0)


def test_solve_identity():
    assert solve(Matrix.identity(2), (F(3), F(5))) == (F(3), F(5))


def test_solve_inconsistent():
    assert solve(Matrix.zero(1, 1), (F(1),)) is None


def test_solve_underdetermined():
    m = Matrix(((1, 2), (2, 4)))
    x = solve(m, (F(1), F(2)))
    assert x is not None and x[0] + 2 * x[1] == 1


def test_in_span():
    s = Subspace(2, (((F(1), F(2))),))
    s = Subspace(2, ((F(1), F(2)),))
    assert in_span(s, (F(2), F(4)))
    assert in_span(s, (F(0), F(0)))
    assert not in_span(Subspace(2, ((F(1), F(0)),)), (F(0), F(1)))


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(2, ((F(1), F(2)), (F(2), F(4))))


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        solve(Matrix.identity(2), (F(1),))
    with pytest.raises(ValueError):
        in_span(Subspace(2, ()), (F(1),))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m).basis:
        assert all(x == 0 for x in m @ v)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_verified_or_certified(m, data):
    b = tuple(data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows)))
    x = solve(m, b)
    if x is not None:
        assert (m @ x) == tuple(F(v) for v in b)
    else:
        aug = Matrix(tuple(r + (F(v),) for r, v in zip(m.entries, b)), m.cols + 1)
        assert rank(aug) > rank(m)


@settings(max_examples=100, deadline=None)
@given(rationals, rationals)
def test_exact_arithmetic(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


@settings(max_examples=100, deadline=None)
@given(rationals)
def test_rational_serialization_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_format():
    assert format_rational(F(-3, 4)) == "-3/4"
    assert format_rational(F(5)) == "5"
    assert parse_rational("7/2") == F(7, 2)
    with pytest.raises(ValueError):
        parse_rational("1/-2")


def test_parse_rational_reads_ascii_digits_only():
    assert [parse_rational(t) for t in ("-0", "007", "-12/18")] == [0, 7, F(-2, 3)]
    # int() reads all of these; the grammar -?[0-9]+(/[0-9]+)? does not
    for text in ("1_0", "\u0661", "\u0663/2", "+3", " 3", "3\n", "1/+2", "1/ 2", "\uff13"):
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_rational(text)
    # what int() refuses keeps int()'s message
    with pytest.raises(ValueError, match="invalid literal for int"):
        parse_rational("1/2/3")
    with pytest.raises(ValueError, match="denominator must be positive"):
        parse_rational("1/0")
