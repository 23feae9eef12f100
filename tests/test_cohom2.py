import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from brute_oracle import brute_d1_rows, brute_d2_rows, brute_h2

from assoc2.algebra2 import TwoTermComplex
from assoc2.cohom2 import (
    Cochain1,
    assemble_matrices,
    cochain_complex,
    cocycle_report,
    d1_apply,
    d2_residual,
    flatten_cochain2,
    is_coboundary,
    is_cocycle1,
    second_cohomology,
    zero_cochain2,
)
from assoc2.cochain import Cochain, CochainComplex, FormProduct, Layout, LinearForm, assemble
from assoc2.exactlin import Matrix, kernel_basis, rank
from assoc2.fixtures import algebra_fixtures, direct_sum_algebra, fix_2d, fix_d, fix_l3, fix_m, fix_u, fix_w, fix_z
from assoc2.integral import twin
from assoc2.rep2 import adjoint_representation, trivial_representation
from assoc2.sampling import (
    random_cochain1,
    random_cochain2,
    random_transport,
    random_unimodular,
    transport_algebra,
)
from assoc2.tensorops import bil, tflat, tri, unit, zeros2

F = Fraction


def _pairs():
    for name, g in algebra_fixtures().items():
        yield name + "/adjoint", g, adjoint_representation(g)
        yield name + "/trivial", g, trivial_representation(g, TwoTermComplex(1, 1, Matrix.zero(1, 1)))


def test_d1_of_zero_is_zero():
    for name, g, r in _pairs():
        assert d1_apply(g, r, cochain_complex(g, r).c1.zero()).is_zero(), name


def test_d1_on_fix_z_vanishes():
    g = fix_z()
    r = adjoint_representation(g)
    rng = random.Random(0)
    for _ in range(5):
        assert d1_apply(g, r, random_cochain1(rng, g, r)).is_zero()


def test_d1_identity_cochain_on_fix_u():
    g = fix_u()
    adj = adjoint_representation(g)
    c = Cochain1(Matrix.identity(1), Matrix.identity(1), zeros2(1, 1, 1))
    out = d1_apply(g, adj, c)
    assert out.psi.is_zero()
    assert out.omega[0][0] == (F(1),)
    assert out.mu[0][0] == (F(1),)
    assert out.nu[0][0] == (F(1),)
    assert all(x == 0 for x in tflat(out.theta))
    assert not is_cocycle1(g, adj, c)


def test_is_cocycle1_trivial_cases():
    g = fix_z()
    adj = adjoint_representation(g)
    assert is_cocycle1(g, adj, cochain_complex(g, adj).c1.zero())
    rng = random.Random(1)
    assert is_cocycle1(g, adj, random_cochain1(rng, g, adj))


def test_d2_residual_zero_cochain_and_coboundaries():
    rng = random.Random(5)
    for name, g, r in _pairs():
        assert all(x == 0 for x in d2_residual(g, r, zero_cochain2(g, r))), name
        cb = d1_apply(g, r, random_cochain1(rng, g, r))
        assert all(x == 0 for x in d2_residual(g, r, cb)), name
        assert cocycle_report(g, r, cb).passed, name


def test_complex_property_on_fixture_pairs():
    for name, g, r in _pairs():
        mats = assemble_matrices(g, r)  # raises if d2 . d1 != 0
        assert (mats.d2 @ mats.d1).is_zero(), name


def test_complex_property_randomized():
    rng = random.Random(20)
    fixtures = algebra_fixtures()
    seeds = [fixtures[k] for k in ("FIX-U", "FIX-D", "FIX-L3", "FIX-M", "FIX-W", "FIX-2D")]
    for k in range(20):
        g = random_transport(rng, seeds[k % len(seeds)])
        assemble_matrices(g, adjoint_representation(g))


def test_cochain_space_dimension_formula():
    for name, g, r in _pairs():
        n0, n1, m0, m1 = g.dim0, g.dim1, r.dim0, r.dim1
        expected = n1 * m0 + n0 * n0 * m0 + n0 * n1 * m1 + n1 * n0 * m1 + n0 ** 3 * m1
        assert cochain_complex(g, r).c2.dim == expected
        mats = assemble_matrices(g, r)
        assert mats.d1.shape[0] == expected
        assert mats.d2.shape[1] == expected


def test_matrix_assembly_agrees_with_direct_application():
    rng = random.Random(9)
    for name, g, r in list(_pairs())[:8]:
        mats = assemble_matrices(g, r)
        for _ in range(3):
            c = random_cochain1(rng, g, r)
            assert mats.d1 @ c.flatten() == flatten_cochain2(d1_apply(g, r, c))
            c2 = random_cochain2(rng, g, r)
            assert mats.d2 @ flatten_cochain2(c2) == d2_residual(g, r, c2)


def unit_cochain_assembly(cx):
    """Reference assembly: column k of each matrix is the evaluator applied
    to the k-th unit cochain."""
    d1 = Matrix.from_cols(
        [cx.d1(cx.c1.unflatten(unit(cx.c1.dim, k))).flatten() for k in range(cx.c1.dim)], cx.c2.dim
    )
    d2_cols = [cx.d2(cx.c2.unflatten(unit(cx.c2.dim, k))) for k in range(cx.c2.dim)]
    rows = len(cx.d2(cx.c2.zero()))
    return d1, Matrix.from_cols(d2_cols, rows)


def counted(cx):
    """cx with each evaluator wrapped to count its calls in ``calls``."""
    calls = {"d1": 0, "d2": 0}

    def wrap(name, fn):
        def call(c):
            calls[name] += 1
            return fn(c)

        return call

    return CochainComplex(cx.c1, cx.c2, wrap("d1", cx.d1), wrap("d2", cx.d2), cx.not_a_complex), calls


def test_assembly_matches_unit_cochain_reference():
    zero11 = TwoTermComplex(1, 1, Matrix.zero(1, 1))
    for seed, (a, b) in ((1, (fix_z, fix_l3)), (2, (fix_u, fix_l3)), (3, (fix_l3, fix_u)), (4, (fix_z, fix_d))):
        g = random_transport(random.Random(seed), direct_sum_algebra(a(), b()))
        for r in (adjoint_representation(g), trivial_representation(g, zero11)):
            cx, calls = counted(cochain_complex(g, r))
            mats = assemble(cx)
            assert calls == {"d1": 1, "d2": 1}
            d1, d2 = unit_cochain_assembly(cochain_complex(g, r))
            assert mats.d1 == d1 and mats.d2 == d2, (seed, a.__name__, b.__name__)
            assert all(type(v) is Fraction for m in (mats.d1, mats.d2) for row in m.entries for v in row)


@dataclass
class _Pair(Cochain):
    a: Matrix
    b: Matrix


def _toy(d2, d1=lambda c: c):
    layout = Layout(_Pair, {"a": ((1,), 1), "b": ((1,), 1)})
    return CochainComplex(layout, layout, d1, d2, "toy: d2 . d1 != 0")


def test_assembly_refuses_evaluators_that_are_not_linear():
    at = lambda m: m.entries[0][0]
    assert assemble(_toy(lambda c: (at(c.a) - at(c.b),), lambda c: _Pair(c.a, c.a))).d2 == Matrix(
        ((F(1), F(-1)),)
    )
    with pytest.raises(ValueError, match="toy: d2 . d1"):
        assemble(_toy(lambda c: (at(c.a),)))
    # a product of two cochain entries is refused once it reaches a sum or
    # an output, and dropped when it only meets zero tensor entries
    form_pair = lambda c: ((at(c.a), 0), (at(c.b), 0))
    for d2 in (
        lambda c: (at(c.a) * at(c.b),),
        lambda c: (2 * at(c.a) * at(c.b) * F(1, 2),),
        lambda c: (at(c.a) - at(c.a) * at(c.b),),
        lambda c: bil((((1,), (0,)), ((0,), (0,))), *form_pair(c)),
        lambda c: tri(((((0,), (3,)), ((0,), (0,))), (((0,), (0,)), ((0,), (0,)))), *form_pair(c), (1, 1)),
    ):
        with pytest.raises(TypeError, match="product of two linear forms"):
            assemble(_toy(d2))
    zero_blocks = lambda c: bil((((0,), (1,)), ((1,), (0,))), *form_pair(c))
    assert assemble(_toy(zero_blocks)).d2 == Matrix(((F(0), F(0)),))
    for d2 in (
        lambda c: (at(c.a) + 1,),  # affine, not linear
        lambda c: (1 + at(c.a),),
        lambda c: (F(2) - at(c.b),),
        lambda c: (F(0), F(1)),  # a constant output entry
    ):
        with pytest.raises(TypeError, match="constant"):
            assemble(_toy(d2))


def test_the_complex_certificate_cancels_each_row_exactly():
    # d1 = [[2, 1], [1, 1/2]]: the d2 row (1, -2) cancels it term by term
    # across both columns, the row (1, -1) leaves x0 + x1/2
    at = lambda m: m.entries[0][0]
    d1 = lambda c: _Pair(Matrix(((2 * at(c.a) + at(c.b),),), 1), Matrix(((at(c.a) + at(c.b) * F(1, 2),),), 1))
    mats = assemble(_toy(lambda c: (at(c.a) - 2 * at(c.b),), d1))
    assert mats.d2 == Matrix(((F(1), F(-2)),)) and mats.d1 == Matrix(((F(2), F(1)), (F(1), F(1, 2))))
    with pytest.raises(ValueError, match="toy: d2 . d1"):
        assemble(_toy(lambda c: (at(c.a) - 2 * at(c.b), at(c.a) - at(c.b)), d1))


def test_generic_d1_and_d2_skip_the_zero_blocks(monkeypatch):
    """A work gate in place of a timing test: on the adjoint of U + M + L3,
    the generic d1 multiplies a linear form at most 600 times and never by
    another form (the kernel x kernel blocks of g + V are never visited),
    and the generic d2 at most 1800 times."""
    g = direct_sum_algebra(direct_sum_algebra(fix_u(), fix_m()), fix_l3())
    cx = cochain_complex(g, adjoint_representation(g))
    seen = []
    original = LinearForm.__mul__

    def counted(self, c):
        seen.append(type(c) is LinearForm or type(c) is FormProduct)
        return original(self, c)

    monkeypatch.setattr(LinearForm, "__mul__", counted)
    monkeypatch.setattr(LinearForm, "__rmul__", counted)
    cx.d1(cx.c1.generic())
    assert not any(seen) and len(seen) <= 600
    seen.clear()
    cx.d2(cx.c2.generic())
    assert len(seen) <= 1800


def test_flatten_round_trips():
    rng = random.Random(13)
    g = algebra_fixtures()["FIX-2D"]
    r = adjoint_representation(g)
    cx = cochain_complex(g, r)
    c1 = random_cochain1(rng, g, r)
    back = cx.c1.unflatten(c1.flatten())
    assert back.phi == c1.phi and back.phi1 == c1.phi1 and back.chi == c1.chi
    c2 = random_cochain2(rng, g, r)
    back2 = cx.c2.unflatten(flatten_cochain2(c2))
    assert flatten_cochain2(back2) == flatten_cochain2(c2)
    assert cx.c1.dim == len(c1.flatten())


def test_second_cohomology_fix_z_trivial_pinned():
    g = fix_z()
    r = trivial_representation(g, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
    res = second_cohomology(g, r)
    assert (res.dim_z2, res.dim_b2, res.dim_h2) == (5, 0, 5)


def test_second_cohomology_matches_brute_oracle():
    for name, g, r in _pairs():
        res = second_cohomology(g, r)
        assert (res.dim_z2, res.dim_b2, res.dim_h2) == brute_h2(g, r), name
        assert res.dim_h2 >= 0 and res.dim_b2 <= res.dim_z2
        assert len(res.representatives) == res.dim_h2
        for rep in res.representatives:
            assert all(x == 0 for x in d2_residual(g, r, rep))


def non_integral_transport(rng, g):
    """g moved along a random change of basis that doubles degree 0: a
    product of degree-0 basis vectors gets the factor 1/2, so the copy of an
    algebra with an odd such product has no integer twin."""
    double = random_unimodular(rng, g.dim0).scale(F(2))
    return transport_algebra(g, double, random_unimodular(rng, g.dim1))


def assert_matches_oracle(cx, d1_rows, d2_rows, label):
    """The d1 assembled from cx's evaluator equals the oracle's rows entry
    for entry, and the d2 has the rref of the oracle's rows.  Each matrix is
    assembled with the other evaluator replaced by zero, so that pairs on
    which d2 . d1 != 0 are compared as well."""
    d1 = assemble(CochainComplex(cx.c1, cx.c2, cx.d1, lambda c: (), cx.not_a_complex)).d1
    assert d1 == Matrix(tuple(tuple(row) for row in d1_rows), cx.c1.dim), label
    d2 = assemble(CochainComplex(cx.c1, cx.c2, lambda c: cx.c2.zero(), cx.d2, cx.not_a_complex)).d2
    oracle = Matrix(tuple(tuple(row) for row in d2_rows), cx.c2.dim)
    assert d2.shape == oracle.shape and d2.rref() == oracle.rref(), label


def test_d2_has_the_row_space_of_the_oracle_families():
    """d1 and d2 are read off the homomorphism residuals of a shifted
    splitting and the axioms of the standard total; the oracle writes d1
    and coc01-coc08 out by index.  Integral and non-integral transported
    sums, adjoint and trivial coefficients, pairs refused for
    d2 . d1 != 0 (W+U adjoint, D+U trivial) among them."""
    complexes = (TwoTermComplex(1, 1, Matrix.zero(1, 1)), TwoTermComplex(1, 1, Matrix.identity(1)))
    sums = ((fix_u, fix_l3), (fix_w, fix_u), (fix_d, fix_u), (fix_m, fix_d), (fix_2d,))
    for seed, blocks in enumerate(sums, start=1):
        base = blocks[0]()
        for block in blocks[1:]:
            base = direct_sum_algebra(base, block())
        rng = random.Random(seed)
        integral, fractional = random_transport(rng, base), non_integral_transport(rng, base)
        assert twin(integral) is not None and twin(fractional) is None
        for g in (integral, fractional):
            for r in (adjoint_representation(g), *(trivial_representation(g, v) for v in complexes)):
                cx = cochain_complex(g, r)
                assert_matches_oracle(cx, brute_d1_rows(g, r), brute_d2_rows(g, r), (seed, r.complex))


def _greedy_representatives(mats):
    """Reference choice: walk the kernel basis of d2 in order and keep each
    vector that raises the rank of the image of d1 plus the vectors kept."""
    current = [mats.d1.col(k) for k in range(mats.d1.cols)]
    current_rank = rank(Matrix(tuple(current), mats.d1.rows))
    chosen = []
    for v in kernel_basis(mats.d2).basis:
        if rank(Matrix(tuple(current) + (v,), mats.d1.rows)) > current_rank:
            chosen.append(v)
            current.append(v)
            current_rank += 1
    return chosen


def test_representatives_match_greedy_rank_reference():
    from assoc2 import xmod
    from assoc2.cochain import cohomology

    for seed, (a, b) in ((1, (fix_z, fix_l3)), (2, (fix_l3, fix_u))):
        g = random_transport(random.Random(seed), direct_sum_algebra(a(), b()))
        r = adjoint_representation(g)
        mats = assemble_matrices(g, r)
        res = cohomology(cochain_complex(g, r), mats)
        assert [flatten_cochain2(c) for c in res.representatives] == _greedy_representatives(mats)
        assert res.dim_b2 == rank(mats.d1)
    for seed, (a, b) in ((1, (fix_z, fix_d)), (2, (fix_u, fix_d))):
        x = xmod.algebra_to_crossed_module(random_transport(random.Random(seed), direct_sum_algebra(a(), b())))
        r = xmod.xmod_adjoint(x)
        mats = xmod.xmod_assemble_matrices(x, r)
        res = cohomology(xmod.xmod_cochain_complex(x, r), mats)
        assert [xmod.xmod_flatten2(c) for c in res.representatives] == _greedy_representatives(mats)
        assert res.dim_b2 == rank(mats.d1)


def test_is_coboundary_round_trip_and_rejection():
    g = fix_u()
    adj = adjoint_representation(g)
    rng = random.Random(77)
    c = d1_apply(g, adj, random_cochain1(rng, g, adj))
    pre = is_coboundary(g, adj, c)
    assert pre is not None
    applied = d1_apply(g, adj, pre)
    assert flatten_cochain2(applied) == flatten_cochain2(c)
    # zero cochain reduces to a primitive as well
    assert is_coboundary(g, adj, zero_cochain2(g, adj)) is not None

    gz = fix_z()
    rz = trivial_representation(gz, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
    notcb = zero_cochain2(gz, rz)
    notcb = type(notcb)(Matrix(((F(1),),)), notcb.omega, notcb.mu, notcb.nu, notcb.theta)
    assert is_coboundary(gz, rz, notcb) is None


def test_fix_u_adjoint_d1_rank_one():
    g = fix_u()
    adj = adjoint_representation(g)
    mats = assemble_matrices(g, adj)
    from assoc2.exactlin import rank

    assert mats.d1.shape == (5, 3)
    assert rank(mats.d1) == 1


def test_cohomology_dimensions_are_isomorphism_invariants():
    # transporting the structure along any change of basis must not move
    # (dim Z2, dim B2, dim H2): the whole pipeline commutes with isomorphism
    rng = random.Random(55)
    for key in ("FIX-U", "FIX-L3", "FIX-M", "FIX-2D"):
        g = algebra_fixtures()[key]
        base = second_cohomology(g, adjoint_representation(g))
        for _ in range(3):
            gt = random_transport(rng, g)
            res = second_cohomology(gt, adjoint_representation(gt))
            assert (res.dim_z2, res.dim_b2, res.dim_h2) == (
                base.dim_z2,
                base.dim_b2,
                base.dim_h2,
            ), key


def test_one_cocycles_of_adjoint_are_homotopy_derivations():
    """The correspondence (phi, phi1, chi) <-> (D0, D1, -D2) pins the d1
    signs: every vector of a kernel basis of d1 in the adjoint coefficients
    is a homotopy derivation, and random one-cochains, which are almost
    never cocycles, pass exactly when they are cocycles."""
    from assoc2.algebra2 import HomotopyDerivation
    from assoc2.cohom2 import check_derivation
    from assoc2.tensorops import tmap

    def derivation(g, c):
        return HomotopyDerivation(g, c.phi, c.phi1, tmap(lambda v: -v, c.chi))

    rng = random.Random(41)
    for g in (fix_u(), fix_m(), fix_2d(), direct_sum_algebra(fix_m(), fix_2d()), direct_sum_algebra(fix_u(), fix_m())):
        adj = adjoint_representation(g)
        cx = cochain_complex(g, adj)
        cocycles = [cx.c1.unflatten(v) for v in kernel_basis(assemble_matrices(g, adj).d1).basis]
        assert cocycles
        for c in cocycles:
            report = check_derivation(derivation(g, c))
            assert report.passed, report.violations[:1]
        for _ in range(6):
            c = random_cochain1(rng, g, adj)
            assert is_cocycle1(g, adj, c) == check_derivation(derivation(g, c)).passed
    # a concrete matched pair on the unit-like fixture
    g = fix_u()
    adj = adjoint_representation(g)
    c = Cochain1(Matrix.zero(1, 1), Matrix(((F(3),),)), (((F(5),),),))
    assert is_cocycle1(g, adj, c)
    deriv = HomotopyDerivation(g, c.phi, c.phi1, (((F(-5),),),))
    assert check_derivation(deriv).passed


def test_assembly_refuses_non_complex_pairs():
    # the displayed equations stop forming a complex when a nonzero algebra
    # differential couples with nonzero products across dimensions: the
    # chi-routes through omega and theta reinforce instead of cancelling.
    # A zero coefficient differential is not enough: with trivial
    # coefficients coc05 of d1(phi, phi1, chi) leaves
    # 2(chi(x.y, d a) - chi(x, y.d a)), a defect through the algebra
    # differential, although each pair passes its representation checker
    import pytest

    from assoc2.fixtures import direct_sum_algebra, fix_d, fix_w
    from assoc2.rep2 import check_representation

    zero11 = TwoTermComplex(1, 1, Matrix.zero(1, 1))
    g = direct_sum_algebra(fix_w(), fix_u())
    adj = adjoint_representation(g)
    pairs = [(g, adj)] + [
        (s, trivial_representation(s, zero11))
        for s in (direct_sum_algebra(fix_u(), fix_w()), direct_sum_algebra(fix_d(), fix_u()))
    ]
    for s, r in pairs:
        assert check_representation(r).passed
        with pytest.raises(ValueError, match="d2 . d1"):
            assemble_matrices(s, r)
    # the coboundary of a cross-block chi carries the residual explicitly
    chi = [[[F(0), F(0)] for _ in range(2)] for _ in range(2)]
    chi[0][1][0] = F(1)
    c1 = Cochain1(
        Matrix.zero(2, 2), Matrix.zero(2, 2), tuple(tuple(tuple(c) for c in row) for row in chi)
    )
    img = d1_apply(g, adj, c1)
    assert any(x != 0 for x in d2_residual(g, adj, img))
