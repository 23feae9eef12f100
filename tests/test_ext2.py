import random
from fractions import Fraction

import pytest

from assoc2.algebra2 import TwoTermComplex, check_algebra, check_homomorphism, zero_algebra
from assoc2.cohom2 import (
    assemble_matrices,
    cochain_complex,
    d1_apply,
    d2_residual,
    flatten_cochain2,
    zero_cochain2,
)
from assoc2.exactlin import Matrix, kernel_basis
from assoc2.ext2 import (
    EquivalenceWitness,
    Extension2,
    Inequivalence,
    build_extension,
    check_equivalence,
    check_extension,
    extract_cocycle,
    extract_representation,
)
from assoc2.fixtures import fix_u, fix_z
from assoc2.rep2 import adjoint_representation, trivial_representation
from assoc2.sampling import random_cochain1

F = Fraction


def _cocycle_space(g, r):
    mats = assemble_matrices(g, r)
    return [cochain_complex(g, r).c2.unflatten(v) for v in kernel_basis(mats.d2).basis]


def _random_cocycle(rng, g, r):
    basis = _cocycle_space(g, r)
    c = zero_cochain2(g, r)
    for b in basis:
        c = c + b.scale(F(rng.randint(-3, 3)))
    return c


def _setups():
    gz = fix_z()
    yield gz, trivial_representation(gz, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
    gu = fix_u()
    yield gu, adjoint_representation(gu)
    yield gu, trivial_representation(gu, TwoTermComplex(1, 1, Matrix.zero(1, 1)))


def test_direct_sum_extension_and_round_trip():
    rng = random.Random(6)
    for g, r in _setups():
        z = zero_cochain2(g, r)
        e = build_extension(g, r.complex, r, z)
        assert check_extension(e).passed
        assert check_algebra(e.total).passed
        assert flatten_cochain2(extract_cocycle(e)) == flatten_cochain2(z)
        assert extract_representation(e) == r
        for _ in range(10):
            c = _random_cocycle(rng, g, r)
            e = build_extension(g, r.complex, r, c)
            assert check_extension(e).passed
            assert flatten_cochain2(extract_cocycle(e)) == flatten_cochain2(c)
            assert extract_representation(e) == r


def test_build_rejects_non_cocycles():
    g = fix_u()
    adj = adjoint_representation(g)
    c = zero_cochain2(g, adj)
    c = type(c)(c.psi, c.omega, c.mu, c.nu, ((((F(1),),),),))  # theta alone: not a cocycle
    assert any(x != 0 for x in d2_residual(g, adj, c))
    with pytest.raises(ValueError):
        build_extension(g, adj.complex, adj, c)


def _resplit(e, rng):
    """A different stored splitting: shift sigma by kernel-valued maps."""
    g = e.base
    lam0 = Matrix(
        tuple(tuple(F(rng.randint(-2, 2)) for _ in range(g.dim0)) for _ in range(e.hdim0)),
        g.dim0,
    )
    lam1 = Matrix(
        tuple(tuple(F(rng.randint(-2, 2)) for _ in range(g.dim1)) for _ in range(e.hdim1)),
        g.dim1,
    )
    sigma0 = Matrix.from_cols(
        [tuple(a + b for a, b in zip(e.sigma0.col(i), e.incl0(lam0.col(i)))) for i in range(g.dim0)],
        e.total.dim0,
    )
    sigma1 = Matrix.from_cols(
        [tuple(a + b for a, b in zip(e.sigma1.col(p), e.incl1(lam1.col(p)))) for p in range(g.dim1)],
        e.total.dim1,
    )
    return Extension2(e.total, e.base, e.sub0, e.sub1, e.p0, e.p1, sigma0, sigma1)


def test_splitting_independence_and_extracted_cocycles_are_cocycles():
    rng = random.Random(8)
    for g, r in _setups():
        c = _random_cocycle(rng, g, r)
        e = build_extension(g, r.complex, r, c)
        for _ in range(3):
            e2 = _resplit(e, rng)
            assert check_extension(e2).passed
            # representation does not depend on the splitting
            assert extract_representation(e2) == r
            # extracted cocycle may differ, but is always a cocycle ...
            c2 = extract_cocycle(e2)
            assert all(x == 0 for x in d2_residual(g, r, c2))
            # ... in the same class
            from assoc2.cohom2 import is_coboundary

            assert is_coboundary(g, r, c2 - c) is not None


def test_extraction_rejects_invalid_extensions():
    # break the splitting property: extraction must report, not ignore
    g = fix_u()
    adj = adjoint_representation(g)
    e = build_extension(g, adj.complex, adj, zero_cochain2(g, adj))
    broken = Extension2(
        e.total, e.base, e.sub0, e.sub1, e.p0, e.p1, e.sigma0.scale(F(2)), e.sigma1
    )
    report = check_extension(broken)
    assert "split0" in report.by_condition()
    with pytest.raises(ValueError):
        extract_cocycle(broken)


def test_equivalence_over_a_base_without_degree_0():
    """The witness's degree-2 part is zero on a base with no degree 0, and
    still a vector of the kernel's degree-1 length."""
    g = zero_algebra(0, 1)
    r = trivial_representation(g, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
    e = build_extension(g, r.complex, r, zero_cochain2(g, r))
    witness = check_equivalence(e, e)
    assert isinstance(witness, EquivalenceWitness)
    assert witness.homomorphism.f2 == (((F(0), F(0)),),)


def test_equivalence_same_extension_zero_witness():
    g = fix_u()
    adj = adjoint_representation(g)
    c = _random_cocycle(random.Random(10), g, adj)
    e = build_extension(g, adj.complex, adj, c)
    w = check_equivalence(e, e)
    assert isinstance(w, EquivalenceWitness)
    assert w.primitive.phi.is_zero() and w.primitive.phi1.is_zero()


def test_equivalence_on_cohomologous_pairs():
    rng = random.Random(12)
    for g, r in _setups():
        for _ in range(4):
            c = _random_cocycle(rng, g, r)
            phi = random_cochain1(rng, g, r)
            e1 = build_extension(g, r.complex, r, c)
            e2 = build_extension(g, r.complex, r, c + d1_apply(g, r, phi))
            w = check_equivalence(e1, e2)
            assert isinstance(w, EquivalenceWitness)
            assert check_homomorphism(w.homomorphism).passed


def test_equivalence_witness_found_after_resplit():
    rng = random.Random(14)
    g = fix_u()
    adj = adjoint_representation(g)
    c = _random_cocycle(rng, g, adj)
    e1 = build_extension(g, adj.complex, adj, c)
    e2 = _resplit(e1, rng)
    w = check_equivalence(e1, e2)
    assert isinstance(w, EquivalenceWitness)


def test_inequivalence_over_zero_base():
    g = fix_z()
    r = trivial_representation(g, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
    c0 = zero_cochain2(g, r)
    c1 = type(c0)(Matrix(((F(1),),)), c0.omega, c0.mu, c0.nu, c0.theta)
    e0 = build_extension(g, r.complex, r, c0)
    e1 = build_extension(g, r.complex, r, c1)
    res = check_equivalence(e0, e1)
    assert isinstance(res, Inequivalence)
    assert res.rank_augmented > res.rank_d1


def test_incomparable_extensions_rejected():
    g = fix_u()
    adj = adjoint_representation(g)
    triv = trivial_representation(g, adj.complex)
    e1 = build_extension(g, adj.complex, adj, zero_cochain2(g, adj))
    e2 = build_extension(g, triv.complex, triv, zero_cochain2(g, triv))
    with pytest.raises(ValueError):
        check_equivalence(e1, e2)
