import random
from fractions import Fraction

import pytest

from assoc2.algebra2 import (
    AssocAlgebra,
    Bimodule,
    Homomorphism2,
    HochschildCochain,
    HomotopyDerivation,
    SLOTS,
    TwoTermComplex,
    Tuples,
    build_end_algebra,
    check_algebra,
    check_associative,
    check_bimodule,
    check_homomorphism,
    compose_homomorphisms,
    hochschild_coboundary,
    hochschild_is_zero,
    identity_homomorphism,
)
from assoc2.cohom2 import check_derivation
from assoc2.exactlin import Matrix
from assoc2.fixtures import (
    algebra_fixtures,
    assoc_point,
    bimodule_fixtures,
    fix_d,
    fix_u,
    fix_z,
)
from assoc2.tensorops import tensor2, zeros2

F = Fraction


# ---------------------------------------------------------------------------
# associative algebras and bimodules
# ---------------------------------------------------------------------------

def test_check_associative_scalar_cases():
    assert check_associative(assoc_point()).passed
    zero = AssocAlgebra(1, zeros2(1, 1, 1))
    assert check_associative(zero).passed


def test_check_associative_failure():
    # e1.e1 = e2, e1.e2 = e1: (e1 e1) e1 = 0 but e1 (e1 e1) = e1
    def mul(i, j):
        if (i, j) == (0, 0):
            return (F(0), F(1))
        if (i, j) == (0, 1):
            return (F(1), F(0))
        return (F(0), F(0))

    bad = AssocAlgebra(2, tensor2(2, 2, mul))
    report = check_associative(bad)
    assert not report.passed
    assert any(v.where == (0, 0, 0) for v in report.violations)


def test_check_bimodule_fixtures_pass():
    for name, m in bimodule_fixtures().items():
        assert check_bimodule(m).passed, name


def test_check_bimodule_zero_actions_pass():
    a = assoc_point()
    m = Bimodule(a, 2, zeros2(1, 2, 2), zeros2(2, 1, 2))
    assert check_bimodule(m).passed


def test_check_bimodule_scaled_right_action_fails():
    a = assoc_point()
    m = Bimodule(a, 1, (((F(1),),),), (((F(2),),),))
    report = check_bimodule(m)
    by = report.by_condition()
    assert "middle" not in by  # x.(m.y) = (x.m).y holds, both sides 2m
    assert "right" in by  # m.(x.y) = 2m but (m.x).y = 4m


# ---------------------------------------------------------------------------
# Hochschild differential
# ---------------------------------------------------------------------------

def test_hochschild_identity_cochain():
    m = assoc_point().regular_bimodule()
    f = HochschildCochain(1, (((F(1),)),))
    f = HochschildCochain(1, ((F(1),),))
    df = hochschild_coboundary(m, f)
    # (df)(e, e) = e.f(e) + f(e).e - f(e.e) = e
    assert df.apply((F(1),), (F(1),)) == (F(1),)
    ddf = hochschild_coboundary(m, df)
    assert hochschild_is_zero(ddf)


def test_hochschild_zero_and_arity_error():
    m = assoc_point().regular_bimodule()
    z = HochschildCochain(1, ((F(0),),))
    assert hochschild_is_zero(hochschild_coboundary(m, z))
    with pytest.raises(ValueError):
        hochschild_coboundary(m, HochschildCochain(0, (F(1),)))


def _random_cochain(rng, m, arity):
    dim = m.algebra.dim

    def build(depth):
        if depth == 0:
            return tuple(F(rng.randint(-3, 3)) for _ in range(m.dim))
        return tuple(build(depth - 1) for _ in range(dim))

    return HochschildCochain(arity, build(arity))


def test_hochschild_d_squared_zero_random():
    rng = random.Random(2)
    for m in bimodule_fixtures().values():
        for arity in (1, 2):
            for _ in range(5):
                f = _random_cochain(rng, m, arity)
                assert hochschild_is_zero(
                    hochschild_coboundary(m, hochschild_coboundary(m, f))
                )


# ---------------------------------------------------------------------------
# two-term algebra checker
# ---------------------------------------------------------------------------

def test_all_fixtures_pass():
    for name, g in algebra_fixtures().items():
        assert check_algebra(g).passed, name


def test_fix_u_l3_mutation_fails_f():
    g = fix_u()
    bad = type(g)(g.complex, g.l2_00, g.l2_01, g.l2_10, ((((F(1),),),),))
    report = check_algebra(bad)
    assert "f" in report.by_condition()


def test_fix_u_plus_one_mutations_all_fail():
    # bumping any single multiplication constant by +1 breaks an axiom
    g = fix_u()
    mutants = {
        "l2_00": type(g)(g.complex, (((F(2),),),), g.l2_01, g.l2_10, g.l3),
        "l2_01": type(g)(g.complex, g.l2_00, (((F(2),),),), g.l2_10, g.l3),
        "l2_10": type(g)(g.complex, g.l2_00, g.l2_01, (((F(2),),),), g.l3),
        "l3": type(g)(g.complex, g.l2_00, g.l2_01, g.l2_10, ((((F(1),),),),)),
    }
    for name, bad in mutants.items():
        assert not check_algebra(bad).passed, name


def test_fix_u_minus_one_exceptions_are_valid_algebras():
    # dropping e.f or f.e to zero yields a one-sided module: still an algebra
    g = fix_u()
    for name, bad in {
        "l2_01": type(g)(g.complex, g.l2_00, zeros2(1, 1, 1), g.l2_10, g.l3),
        "l2_10": type(g)(g.complex, g.l2_00, g.l2_01, zeros2(1, 1, 1), g.l3),
    }.items():
        assert check_algebra(bad).passed, name


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

def test_identity_homomorphism_passes():
    for name, g in algebra_fixtures().items():
        assert check_homomorphism(identity_homomorphism(g)).passed, name


def test_scaled_chain_map_fails_on_fix_d():
    g = fix_d()
    h = Homomorphism2(g, g, Matrix.identity(1), Matrix(((F(2),),)), zeros2(1, 1, 1))
    report = check_homomorphism(h)
    assert "i" in report.by_condition()


def test_transport_isomorphism_is_strict_homomorphism():
    rng = random.Random(11)
    for g in (fix_u(), algebra_fixtures()["FIX-M"]):
        from assoc2.sampling import random_unimodular

        p0 = random_unimodular(rng, g.dim0)
        p1 = random_unimodular(rng, g.dim1)
        from assoc2.sampling import transport_algebra

        gt = transport_algebra(g, p0, p1)
        h = Homomorphism2(g, gt, p0, p1, zeros2(g.dim0, g.dim0, g.dim1))
        assert check_homomorphism(h).passed


def test_composition_identity_and_associativity():
    rng = random.Random(3)
    g = fix_u()
    from assoc2.sampling import random_unimodular, transport_algebra

    p0, p1 = random_unimodular(rng, 1), random_unimodular(rng, 1)
    q0, q1 = random_unimodular(rng, 1), random_unimodular(rng, 1)
    g1 = transport_algebra(g, p0, p1)
    g2 = transport_algebra(g1, q0, q1)
    f = Homomorphism2(g, g1, p0, p1, zeros2(1, 1, 1))
    h = Homomorphism2(g1, g2, q0, q1, zeros2(1, 1, 1))
    hf = compose_homomorphisms(h, f)
    assert check_homomorphism(hf).passed
    ident = identity_homomorphism(g)
    same = compose_homomorphisms(f, ident)
    assert same.f0 == f.f0 and same.f1 == f.f1 and same.f2 == f.f2
    same = compose_homomorphisms(identity_homomorphism(g1), f)
    assert same.f0 == f.f0 and same.f1 == f.f1 and same.f2 == f.f2
    # associativity on a composable triple (nonzero degree-2 parts)
    k = Homomorphism2(g2, g2, Matrix.identity(1), Matrix.identity(1), (((F(1),),),))
    lhs = compose_homomorphisms(k, compose_homomorphisms(h, f))
    rhs = compose_homomorphisms(compose_homomorphisms(k, h), f)
    assert lhs.f0 == rhs.f0 and lhs.f1 == rhs.f1 and lhs.f2 == rhs.f2


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def test_zero_derivation_passes_everywhere():
    for name, g in algebra_fixtures().items():
        d = HomotopyDerivation(
            g, Matrix.zero(g.dim0, g.dim0), Matrix.zero(g.dim1, g.dim1), zeros2(g.dim0, g.dim0, g.dim1)
        )
        assert check_derivation(d).passed, name


def test_identity_not_derivation_on_fix_u():
    g = fix_u()
    d = HomotopyDerivation(g, Matrix.identity(1), Matrix.identity(1), zeros2(1, 1, 1))
    report = check_derivation(d)
    assert "a" in report.by_condition()


def test_identity_derivation_on_zero_algebra():
    g = fix_z()
    d = HomotopyDerivation(g, Matrix.identity(1), Matrix.identity(1), zeros2(1, 1, 1))
    assert check_derivation(d).passed


# ---------------------------------------------------------------------------
# endomorphism algebra
# ---------------------------------------------------------------------------

def test_end_algebra_zero_differential():
    v = TwoTermComplex(1, 1, Matrix.zero(1, 1))
    e = build_end_algebra(v)
    assert (e.dim0, e.dim1) == (2, 1)
    assert e.complex.diff.is_zero()
    assert check_algebra(e).passed


def test_end_algebra_identity_differential():
    v = TwoTermComplex(1, 1, Matrix.identity(1))
    e = build_end_algebra(v)
    assert (e.dim0, e.dim1) == (1, 1)
    assert not e.complex.diff.is_zero()
    assert check_algebra(e).passed


def test_end_algebra_bigger_complex():
    v = TwoTermComplex(2, 1, Matrix(((F(1),), (F(0),)), 1))
    e = build_end_algebra(v)
    assert check_algebra(e).passed
    assert all(x == 0 for plane in e.l3 for row in plane for cell in row for x in cell)


def test_tuples_count_what_they_list():
    # the work budget of the command line counts tuples without listing them
    for cuts, dims in (((2, 1), (2, 1)), ((2, 1), (4, 3)), ((0, 2), (3, 2)), ((1, 0), (1, 2))):
        for kernel in (0, 1):
            tuples = Tuples(cuts, kernel)
            for degrees in SLOTS.values():
                assert tuples.count(dims, *degrees) == len(list(tuples.of(dims, *degrees))), (cuts, dims, kernel)
