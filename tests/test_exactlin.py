import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_cli_reports import _assert_matches_golden, corrupted_reports, readme_reports, representation_reports

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


# numerators above 2**40: the rref entries of a few such rows need more
# than one 61-bit prime to lift
large_rationals = st.builds(
    lambda n, d, sign: F(sign * n, d), st.integers(2**40, 2**48), st.integers(1, 7), st.sampled_from([1, -1])
)


@st.composite
def shaped_matrices(draw, max_dim=6, scalars=rationals):
    """Sparse or dense rational matrices with 0 to max_dim rows, plus up
    to two rows that repeat, scale or zero out another row."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    cell = draw(st.sampled_from([scalars, st.one_of(st.just(F(0)), scalars)]))
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


def _not_called(*args):
    raise AssertionError("not expected to run")


def _reduced_matrix(reduced, m):
    return Matrix.from_sparse(tuple(reduced) + ({},) * (m.rows - len(reduced)), m.cols)


@settings(max_examples=80, deadline=None)
@given(shaped_matrices(max_dim=4, scalars=large_rationals))
def test_modular_elimination_matches_the_fraction_loop(m):
    rows, primes = m.sparse_rows(), []
    rref_mod = exactlin._rref_mod
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "_rref_mod", lambda ints, p: primes.append(p) or rref_mod(ints, p))
        mp.setattr(exactlin, "_eliminate_over_q", _not_called)
        reduced, pivots = exactlin._eliminate(m.integer_rows())
    assert (reduced, pivots) == exactlin._eliminate_over_q(rows)
    assert (_reduced_matrix(reduced, m).entries, pivots) == dense_rref(m)
    # one prime p lifts n/d only when |n| and d are at most sqrt(p / 2)
    if any(max(abs(x.numerator), x.denominator) > 2**30 for row in reduced for x in row.values()):
        assert len(primes) >= 2


def test_rows_of_61_bit_size_are_lifted_by_crt_over_several_primes(monkeypatch):
    big = 2**61 + 15
    m = Matrix(((big, 1, 3), (5, big, 7)))
    primes = []
    rref_mod = exactlin._rref_mod
    monkeypatch.setattr(exactlin, "_rref_mod", lambda ints, p: primes.append(p) or rref_mod(ints, p))
    monkeypatch.setattr(exactlin, "_eliminate_over_q", _not_called)
    red, pivots = m.rref()
    monkeypatch.undo()
    assert (red.entries, pivots) == dense_rref(m)
    assert primes == list(exactlin.PRIMES[: len(primes)]) and len(primes) >= 3


def test_unlucky_primes_are_skipped(monkeypatch):
    p, q = exactlin.PRIMES[:2]
    monkeypatch.setattr(exactlin, "_eliminate_over_q", _not_called)
    # mod p the first has rank 1 and the second pivots (1, 2) instead of
    # (0, 1); the third is unlucky mod q only, after p, and its entry 1/q
    # needs more primes to lift
    for m, unlucky in (
        (Matrix(((p, 1), (0, 1))), p),
        (Matrix(((p, 0, 1), (0, 1, 0))), p),
        (Matrix(((q, 0, 1), (0, 1, 0))), q),
    ):
        ints = [exactlin._integral(row)[1] for row in m.sparse_rows()]
        red, pivots = m.rref()
        assert (red.entries, pivots) == dense_rref(m)
        assert exactlin._better(pivots, tuple(exactlin._rref_mod(ints, unlucky)))


def _recorded_rref_mod(mp):
    """Patch ``_rref_mod`` to record the rows each prime eliminates."""
    rref_mod, calls = exactlin._rref_mod, []
    mp.setattr(exactlin, "_rref_mod", lambda ints, p: calls.append(list(ints)) or rref_mod(ints, p))
    return calls


def test_later_primes_eliminate_only_the_pivot_rows_of_the_first(monkeypatch):
    big = 2**45 + 7  # 2 x 2 minors near 2**90: the rref needs several primes to lift
    m = Matrix(((big, 1, 3), (5, big, 7), (big + 5, big + 1, 10), (0, 0, 0)))
    calls = _recorded_rref_mod(monkeypatch)
    monkeypatch.setattr(exactlin, "_eliminate_over_q", _not_called)
    red, pivots = m.rref()
    monkeypatch.undo()
    assert (red.entries, pivots) == dense_rref(m)
    # the first prime reads every row, sparsest first; the third row is the
    # sum of the first two, so every later prime reads those two only
    assert len(calls) >= 2 and calls[0] == list(sorted(m.integer_rows(), key=len))
    assert all(later == [{0: big, 1: 1, 2: 3}, {0: 5, 1: big, 2: 7}] for later in calls[1:])


@pytest.mark.parametrize(
    "entries",
    [
        # rank 1 mod the first prime, 2 over Q
        ((exactlin.PRIMES[0], 1), (0, 1)),
        # the same with an entry that one prime cannot lift
        ((exactlin.PRIMES[0], 1, 2**45 + 7), (0, 1, 2**45 + 7)),
    ],
)
def test_an_unlucky_first_prime_still_gives_the_exact_rref(monkeypatch, entries):
    m = Matrix(entries)
    rows = sorted(m.integer_rows(), key=len)
    assert len(exactlin._rref_mod(rows, exactlin.PRIMES[0])) < len(dense_rref(m)[1])
    with pytest.MonkeyPatch.context() as mp:
        calls = _recorded_rref_mod(mp)
        mp.setattr(exactlin, "_eliminate_over_q", _not_called)
        red, pivots = Matrix(entries).rref()
    assert (red.entries, pivots) == dense_rref(m)
    # the pivot rows of the first prime do not span: the proof of a lift
    # from them fails, and the prime after it reads every row again
    assert calls[0] == rows and rows in calls[1:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "PRIMES", ())
        red, pivots = Matrix(entries).rref()
    assert (red.entries, pivots) == dense_rref(m)


@settings(max_examples=100, deadline=None)
@given(shaped_matrices(max_dim=5), st.data(), st.booleans())
def test_integer_rows_give_the_elimination_of_fraction_rows(m, data, modular):
    """The same rref, rank, kernel basis, solution and Inconsistent ranks
    from a matrix made of integer rows as from its Fraction matrix, and the
    integer matrix's Fraction view is left unbuilt by all of them."""
    rows = [exactlin._integral(row)[1] for row in m.sparse_rows()]
    m = Matrix(tuple(tuple(row.get(j, 0) for j in range(m.cols)) for row in rows), m.cols)
    if data.draw(st.booleans(), label="b in the image") and m.rows:
        b = m @ tuple(data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols)))
    else:
        b = tuple(data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows)))
    with pytest.MonkeyPatch.context() as mp:
        if not modular:
            mp.setattr(exactlin, "PRIMES", ())
        ints = Matrix.from_integer_rows(rows, m.cols)
        answers = [(f.rref(), rank(f), kernel_basis(f), solve(f, b, True), solve(f, b)) for f in (ints, m)]
    assert answers[0] == answers[1]
    assert ints._sparse is None and ints.integer_rows() == tuple(rows)
    assert ints.sparse_rows() == m.sparse_rows() and ints == m


def test_a_corrupted_modular_result_is_refused_before_the_fallback(monkeypatch):
    rref_mod, certified, over_q = exactlin._rref_mod, exactlin._certified, exactlin._eliminate_over_q
    verdicts, fallbacks = [], []

    def corrupted(ints, p):
        basis = rref_mod(ints, p)
        basis[0][1] = (basis[0][1] + 1) % p  # one wrong entry, right of the pivot
        return basis

    monkeypatch.setattr(exactlin, "_rref_mod", corrupted)
    monkeypatch.setattr(exactlin, "_certified", lambda *args: verdicts.append(certified(*args)) or verdicts[-1])
    monkeypatch.setattr(exactlin, "_eliminate_over_q", lambda rows: fallbacks.append(rows) or over_q(rows))
    m = Matrix(((1, 2, 3), (2, 4, 7)))  # rref rows (1, 2, 0), (0, 0, 1)
    red, pivots = m.rref()
    assert verdicts and not any(verdicts) and len(fallbacks) == 1
    assert (red.entries, pivots) == dense_rref(m)


def test_the_primes_are_distinct_primes_below_2_to_the_61():
    def is_prime(n):  # Miller-Rabin with these bases is exact below 3.3e24
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            x = pow(a, d, n)
            if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
                return False
        return True

    assert len(set(exactlin.PRIMES)) == len(exactlin.PRIMES) >= 2
    assert all(2**60 < p < 2**61 and is_prime(p) for p in exactlin.PRIMES)


@settings(max_examples=80, deadline=None)
@given(shaped_matrices(), st.data())
def test_unit_pattern_and_rank_refuse_the_same_corrupted_bases(m, data):
    basis = list(kernel_basis(m).basis)
    assume(len(basis) >= 2)
    assert exactlin._unit_pattern(basis)
    # vector i replaced by a nonzero combination of the others
    i = data.draw(st.integers(0, len(basis) - 1))
    others = basis[:i] + basis[i + 1 :]
    coefficients = data.draw(st.lists(rationals, min_size=len(others), max_size=len(others)))
    assume(any(coefficients))
    basis[i] = tuple(sum((c * v[j] for c, v in zip(coefficients, others)), F(0)) for j in range(m.cols))
    assert not exactlin._unit_pattern(basis)
    assert rank(Matrix(tuple(basis), m.cols)) < len(basis)
    with pytest.raises(ValueError, match="linearly dependent"):
        Subspace(m.cols, tuple(basis))


def test_kernel_bases_are_proved_independent_without_a_rank(monkeypatch):
    g = random_transport(random.Random(2), direct_sum_algebra(fix_u(), fix_l3()))
    d2 = assemble(cochain_complex(g, adjoint_representation(g))).d2
    monkeypatch.setattr(exactlin, "rank", _not_called)
    assert kernel_basis(d2).dim == d2.cols - len(d2.rref()[1]) > 0


@pytest.mark.parametrize(
    "name, build",
    [
        ("readme.json", readme_reports),
        ("corrupted.json", corrupted_reports),
        ("representations.json", representation_reports),
    ],
)
def test_golden_reports_on_the_fraction_fallback(name, build):
    over_q, fallbacks = exactlin._eliminate_over_q, []
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(exactlin, "PRIMES", ())
        mp.setattr(exactlin, "_eliminate_over_q", lambda rows: fallbacks.append(rows) or over_q(rows))
        _assert_matches_golden(build(Path(tmp)), name)
    assert fallbacks


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
