import random
from fractions import Fraction

import pytest

from brute_oracle import brute_xmod_d1_rows, brute_xmod_d2_rows, brute_xmod_h2
from test_cohom2 import assert_matches_oracle, counted, non_integral_transport, unit_cochain_assembly

from assoc2.algebra2 import AssocAlgebra, Bimodule, check_algebra
from assoc2.cochain import Inequivalence, assemble
from assoc2.exactlin import Matrix, kernel_basis
from assoc2.integral import twin
from assoc2.fixtures import (
    algebra_fixtures,
    direct_sum_algebra,
    fix_d,
    fix_u,
    fix_w,
    fix_x,
    fix_x_peiffer,
    fix_x_zero,
    fix_z,
    xmod_fixtures,
)
from assoc2.sampling import random_transport, random_xcochain2
from assoc2.tensorops import bil, tensor2, unit, vadd, zeros2
from assoc2.xmod import (
    CrossedModule,
    XCochain1,
    XCochain2,
    XModWitness,
    algebra_to_crossed_module,
    check_crossed_module,
    check_xmod_extension,
    check_xmod_representation,
    crossed_module_to_algebra,
    semidirect_product,
    xmod_adjoint,
    xmod_assemble_matrices,
    xmod_cochain_complex,
    xmod_build_extension,
    xmod_check_equivalence,
    xmod_check_generates,
    xmod_check_nijenhuis,
    xmod_check_trivializing,
    xmod_cocycle_report,
    xmod_d1_apply,
    xmod_d2_residual,
    xmod_deform,
    xmod_extract_cocycle,
    xmod_extract_representation,
    xmod_flatten2,
    xmod_is_coboundary,
    xmod_nijenhuis_deformation,
    xmod_second_cohomology,
    xmod_trivial_representation,
    xmod_zero_cochain2,
)

F = Fraction


def test_fixtures_pass_checker():
    for name, x in xmod_fixtures().items():
        assert check_crossed_module(x).passed, name


def test_peiffer_variant_values():
    x = fix_x_peiffer()
    assert check_crossed_module(x).passed


def test_doubled_right_action_fails_equivariance():
    x = fix_x()
    h_bad = Bimodule(x.p_alg, 1, x.h_mod.left, (((F(2),),),))
    bad = CrossedModule(x.p_alg, h_bad, Matrix(((F(1),),)))
    report = check_crossed_module(bad)
    assert "equiv-r" in report.by_condition()


def test_strict_round_trips():
    for g in (fix_u(), fix_d(), algebra_fixtures()["FIX-Z"], algebra_fixtures()["FIX-W"]):
        x = algebra_to_crossed_module(g)
        assert check_crossed_module(x).passed
        assert crossed_module_to_algebra(x) == g
    x = fix_x_peiffer()
    g = crossed_module_to_algebra(x)
    assert check_algebra(g).passed
    back = algebra_to_crossed_module(g)
    assert back.p_alg == x.p_alg and back.h_mod == x.h_mod and back.f_map == x.f_map


def test_to_strict_rejects_nonzero_l3():
    with pytest.raises(ValueError):
        algebra_to_crossed_module(algebra_fixtures()["FIX-L3"])


def test_adjoint_representation_passes():
    for name, x in xmod_fixtures().items():
        assert check_xmod_representation(xmod_adjoint(x)).passed, name


def test_zero_dimensional_representation_passes():
    x = fix_x()
    # with W = 0 and V != 0 the pairings have an empty axis; XR05 and XR06
    # used to compare a zero vector of V with an empty one and fail
    for nv, nw in ((0, 0), (1, 0), (0, 1), (2, 0)):
        assert check_xmod_representation(xmod_trivial_representation(x, nv, nw)).passed, (nv, nw)


def test_zeroed_pairing_fails_on_peiffer_variant():
    x = fix_x_peiffer()
    adj = xmod_adjoint(x)
    bad = type(adj)(adj.xm, adj.v_mod, adj.w_mod, adj.phi, adj.tr_l, zeros2(1, 1, 1))
    report = check_xmod_representation(bad)
    assert "XR03" in report.by_condition() or "XR06" in report.by_condition()


def _semidirect_reference(x, r):
    """(h + V, p + W, f + phi) written out block by block."""
    np_, nh, nv, nw = x.pdim, x.hdim, r.vdim, r.wdim
    NP, NH = np_ + nw, nh + nv
    split = lambda n, k, i: (unit(n + k, i)[:n], unit(n + k, i)[n:])

    def pmul(i, j):
        (xg, wg), (yg, wg2) = split(np_, nw, i), split(np_, nw, j)
        return bil(x.p_alg.mul, xg, yg) + vadd(bil(r.w_mod.left, xg, wg2), bil(r.w_mod.right, wg, yg))

    def hleft(i, a):
        (xg, wg), (ag, vg) = split(np_, nw, i), split(nh, nv, a)
        return bil(x.h_mod.left, xg, ag) + vadd(bil(r.v_mod.left, xg, vg), bil(r.tr_r, wg, ag))

    def hright(a, i):
        (ag, vg), (xg, wg) = split(nh, nv, a), split(np_, nw, i)
        return bil(x.h_mod.right, ag, xg) + vadd(bil(r.v_mod.right, vg, xg), bil(r.tr_l, ag, wg))

    p_alg = AssocAlgebra(NP, tensor2(NP, NP, pmul))
    h_mod = Bimodule(p_alg, NH, tensor2(NP, NH, hleft), tensor2(NH, NP, hright))
    fcols = [x.f_map.col(a) + (F(0),) * nw for a in range(nh)]
    fcols += [(F(0),) * np_ + r.phi.col(s) for s in range(nv)]
    return CrossedModule(p_alg, h_mod, Matrix.from_cols(fcols, NP))


def test_semidirect_products_pass():
    for name, x in xmod_fixtures().items():
        for r in (xmod_adjoint(x), xmod_trivial_representation(x, 1, 1), xmod_trivial_representation(x, 2, 1)):
            sd = semidirect_product(x, r)
            assert check_crossed_module(sd).passed, name
            assert sd.pdim == x.pdim + r.wdim and sd.hdim == x.hdim + r.vdim
            assert sd == _semidirect_reference(x, r), name


def test_assembly_matches_unit_cochain_reference():
    for seed, (a, b) in ((1, (fix_d, fix_w)), (2, (fix_z, fix_d)), (3, (fix_u, fix_d)), (4, (fix_u, fix_w))):
        x = algebra_to_crossed_module(random_transport(random.Random(seed), direct_sum_algebra(a(), b())))
        for r in (xmod_adjoint(x), xmod_trivial_representation(x, 1, 1), xmod_trivial_representation(x, 1, 2)):
            cx, calls = counted(xmod_cochain_complex(x, r))
            mats = assemble(cx)
            assert calls == {"d1": 1, "d2": 1}
            d1, d2 = unit_cochain_assembly(xmod_cochain_complex(x, r))
            assert mats.d1 == d1 and mats.d2 == d2, (seed, a.__name__, b.__name__)


def test_xmod_d1_identity_values_on_fix_x():
    x = fix_x()
    adj = xmod_adjoint(x)
    c = xmod_d1_apply(x, adj, XCochain1(Matrix.identity(1), Matrix.identity(1)))
    assert c.psi.is_zero()
    assert c.omega[0][0] == (F(1),)
    assert c.mu[0][0] == (F(1),)
    assert c.nu[0][0] == (F(1),)


def test_complex_property_and_coboundaries():
    rng = random.Random(3)
    for name, x in xmod_fixtures().items():
        adj = xmod_adjoint(x)
        mats = xmod_assemble_matrices(x, adj)
        assert (mats.d2 @ mats.d1).is_zero(), name
        for _ in range(20):
            n0 = Matrix(((F(rng.randint(-3, 3)),),))
            n1 = Matrix(((F(rng.randint(-3, 3)),),))
            cb = xmod_d1_apply(x, adj, XCochain1(n0, n1))
            assert all(v == 0 for v in xmod_d2_residual(x, adj, cb)), name


def test_second_cohomology_matches_oracle():
    cases = dict(xmod_fixtures())
    for a, b in ((fix_d, fix_w), (fix_z, fix_d), (fix_u, fix_d)):
        g = direct_sum_algebra(a(), b())
        name = f"{a.__name__}+{b.__name__}"
        cases[name] = algebra_to_crossed_module(g)
        cases[name + " transported"] = algebra_to_crossed_module(random_transport(random.Random(1), g))
    for name, x in cases.items():
        adj = xmod_adjoint(x)
        res = xmod_second_cohomology(x, adj)
        assert (res.dim_z2, res.dim_b2, res.dim_h2) == brute_xmod_h2(x, adj), name
        for rep in res.representatives:
            assert all(v == 0 for v in xmod_d2_residual(x, adj, rep))


def test_d2_has_the_row_space_of_the_oracle_families():
    """d1 read off a shifted splitting and xcoc1-xcoc7 off the
    crossed-module axioms of the standard total against the oracle's rows,
    on crossed modules from 1/1 to 3/3, integral and non-integral, with
    adjoint and trivial coefficients."""
    cases = dict(xmod_fixtures())
    sums = ((fix_u, fix_d), (fix_d, fix_w), (fix_z, fix_d, fix_u), (fix_w, fix_u, fix_d))
    for seed, blocks in enumerate(sums, start=1):
        g = blocks[0]()
        for block in blocks[1:]:
            g = direct_sum_algebra(g, block())
        rng = random.Random(seed)
        cases[f"{seed} plain"] = algebra_to_crossed_module(g)
        cases[f"{seed} transported"] = algebra_to_crossed_module(random_transport(rng, g))
        cases[f"{seed} non-integral"] = algebra_to_crossed_module(non_integral_transport(rng, g))
        assert twin(cases[f"{seed} non-integral"]) is None
    for name, x in cases.items():
        for r in (xmod_adjoint(x), xmod_trivial_representation(x, 1, 2), xmod_trivial_representation(x, 2, 1)):
            rows = brute_xmod_d1_rows(x, r), brute_xmod_d2_rows(x, r)
            assert_matches_oracle(xmod_cochain_complex(x, r), *rows, (name, r.vdim, r.wdim))


def test_zero_crossed_module_h2_is_whole_space():
    x = fix_x_zero()
    adj = xmod_adjoint(x)
    res = xmod_second_cohomology(x, adj)
    assert (res.dim_z2, res.dim_b2, res.dim_h2) == (4, 0, 4)


def test_generates_iff_sampled():
    rng = random.Random(21)
    for name, x in xmod_fixtures().items():
        adj = xmod_adjoint(x)
        for _ in range(10):
            c = random_xcochain2(rng, x, adj)
            verdict = xmod_check_generates(x, c).generates
            sampled = all(
                check_crossed_module(xmod_deform(x, c, F(lam))).passed for lam in (1, 2, 3)
            )
            assert verdict == sampled, name


def test_generates_cocycle_part_matches_residual():
    rng = random.Random(22)
    x = fix_x()
    adj = xmod_adjoint(x)
    for _ in range(10):
        c = random_xcochain2(rng, x, adj)
        v = xmod_check_generates(x, c)
        assert v.cocycle_ok == all(vv == 0 for vv in xmod_d2_residual(x, adj, c))


def test_bare_product_perturbation_does_not_generate():
    # omega(e,e) = e alone on FIX-X: the bimodule linear coefficient fails
    x = fix_x()
    adj = xmod_adjoint(x)
    c = XCochain2(
        Matrix.zero(1, 1), (((F(1),),),), zeros2(1, 1, 1), zeros2(1, 1, 1)
    )
    v = xmod_check_generates(x, c)
    assert not v.cocycle_ok
    sampled = all(check_crossed_module(xmod_deform(x, c, F(lam))).passed for lam in (1, 2, 3))
    assert not sampled


def test_nijenhuis_positive_and_negative():
    one = Matrix.identity(1)
    zero = Matrix.zero(1, 1)
    two = Matrix(((F(2),),))
    for name, x in xmod_fixtures().items():
        assert xmod_check_nijenhuis(x, one, one).passed, name
        assert xmod_check_nijenhuis(x, zero, zero).passed, name
    bad = xmod_check_nijenhuis(fix_x_peiffer(), one, two)
    assert "i" in bad.by_condition()


def test_nijenhuis_deformation_generates_and_trivializes():
    one = Matrix.identity(1)
    zero = Matrix.zero(1, 1)
    for name, x in xmod_fixtures().items():
        for n0, n1 in ((one, one), (zero, zero)):
            c = xmod_nijenhuis_deformation(x, n0, n1)
            assert xmod_check_generates(x, c).generates, name
            assert xmod_check_trivializing(x, c, n0, n1).passed, name
    # zero candidate induces the zero cochain
    c = xmod_nijenhuis_deformation(fix_x(), zero, zero)
    assert xmod_flatten2(c) == xmod_flatten2(xmod_zero_cochain2(fix_x(), xmod_adjoint(fix_x())))


def _xcocycle_space(x, r):
    mats = xmod_assemble_matrices(x, r)
    return [xmod_cochain_complex(x, r).c2.unflatten(v) for v in kernel_basis(mats.d2).basis]


def _random_xcocycle(rng, x, r):
    from assoc2.tensorops import tmap

    c = xmod_zero_cochain2(x, r)
    for b in _xcocycle_space(x, r):
        k = F(rng.randint(-3, 3))
        c = c + XCochain2(
            b.psi.scale(k),
            tmap(lambda v: k * v, b.omega),
            tmap(lambda v: k * v, b.mu),
            tmap(lambda v: k * v, b.nu),
        )
    return c


def test_xmod_extension_round_trip():
    rng = random.Random(30)
    for x in (fix_x(), fix_x_peiffer(), fix_x_zero()):
        adj = xmod_adjoint(x)
        for _ in range(5):
            c = _random_xcocycle(rng, x, adj)
            e = xmod_build_extension(x, adj, c)
            assert check_xmod_extension(e).passed
            assert xmod_flatten2(xmod_extract_cocycle(e)) == xmod_flatten2(c)
            assert xmod_extract_representation(e) == adj


def test_xmod_build_rejects_non_cocycle():
    x = fix_x()
    adj = xmod_adjoint(x)
    c = XCochain2(Matrix.zero(1, 1), (((F(1),),),), zeros2(1, 1, 1), zeros2(1, 1, 1))
    assert not xmod_cocycle_report(x, adj, c).passed
    with pytest.raises(ValueError):
        xmod_build_extension(x, adj, c)


def test_xmod_equivalence_and_inequivalence():
    rng = random.Random(31)
    x = fix_x()
    adj = xmod_adjoint(x)
    c = _random_xcocycle(rng, x, adj)
    lam = XCochain1(Matrix(((F(2),),)), Matrix(((F(-1),),)))
    e1 = xmod_build_extension(x, adj, c)
    e2 = xmod_build_extension(x, adj, c + xmod_d1_apply(x, adj, lam))
    w = xmod_check_equivalence(e1, e2)
    assert isinstance(w, XModWitness)

    x0 = fix_x_zero()
    adj0 = xmod_adjoint(x0)
    c0 = xmod_zero_cochain2(x0, adj0)
    c1 = XCochain2(Matrix(((F(1),),)), c0.omega, c0.mu, c0.nu)
    e0 = xmod_build_extension(x0, adj0, c0)
    e1 = xmod_build_extension(x0, adj0, c1)
    res = xmod_check_equivalence(e0, e1)
    assert isinstance(res, Inequivalence)
    assert res.rank_augmented > res.rank_d1


def test_xmod_is_coboundary_round_trip():
    x = fix_x()
    adj = xmod_adjoint(x)
    lam = XCochain1(Matrix(((F(3),),)), Matrix(((F(2),),)))
    cb = xmod_d1_apply(x, adj, lam)
    pre = xmod_is_coboundary(x, adj, cb)
    assert pre is not None
    assert xmod_flatten2(xmod_d1_apply(x, adj, pre)) == xmod_flatten2(cb)
    assert xmod_is_coboundary(fix_x_zero(), xmod_adjoint(fix_x_zero()),
                              XCochain2(Matrix(((F(1),),)),
                                        zeros2(1, 1, 1), zeros2(1, 1, 1), zeros2(1, 1, 1))) is None
