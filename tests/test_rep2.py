import random

from fractions import Fraction

import pytest

from assoc2.algebra2 import TwoTermAlgebra, TwoTermComplex, check_algebra
from assoc2.cohom2 import semidirect_product, zero_cochain2
from assoc2.exactlin import Matrix
from assoc2.ext2 import build_extension
from assoc2.fixtures import algebra_fixtures, fix_u, fix_z
from assoc2.rep2 import (
    Representation2,
    adjoint_representation,
    check_representation,
    trivial_representation,
)
from assoc2.report import PreconditionError
from assoc2.sampling import random_transport
from assoc2.tensorops import tensor3, zeros2, zeros3

F = Fraction


def test_adjoint_soundness_on_all_fixtures():
    for name, g in algebra_fixtures().items():
        assert check_representation(adjoint_representation(g)).passed, name


def test_adjoint_action_sorts_equal_structure_tensors():
    for g in (fix_u(), algebra_fixtures()["FIX-2D"]):
        adj = adjoint_representation(g)
        assert adj.l0v0 == g.l2_00
        assert adj.l0v1 == g.l2_01
        assert adj.r0v0 == g.l2_00
        assert adj.r0v1 == g.l2_10
        assert adj.l1 == g.l2_10
        assert adj.r1 == g.l2_01
        assert adj.tl == g.l3 and adj.tm == g.l3 and adj.tr == g.l3
        assert adj.complex == g.complex


def test_trivial_representation_passes_any_coefficient_differential():
    for g in algebra_fixtures().values():
        for dv in (Matrix.zero(1, 1), Matrix.identity(1)):
            r = trivial_representation(g, TwoTermComplex(1, 1, dv))
            assert check_representation(r).passed


def test_trivial_representation_with_an_empty_degree_passes():
    # with V0 = 0 and V1 != 0 the trilinear actions have an empty axis; R02,
    # R06 and R10 used to compare a zero vector of V1 with an empty one
    for g in (fix_u(), algebra_fixtures()["FIX-2D"]):
        for m0, m1 in ((0, 1), (1, 0), (0, 2), (0, 0)):
            r = trivial_representation(g, TwoTermComplex(m0, m1, Matrix.zero(m0, m1)))
            assert check_representation(r).passed, (m0, m1)


def test_adjoint_of_random_transports():
    rng = random.Random(4)
    for _ in range(5):
        g = random_transport(rng, algebra_fixtures()["FIX-M"])
        assert check_algebra(g).passed
        assert check_representation(adjoint_representation(g)).passed


def test_corrupted_trilinear_action_fails():
    # bump (x,y)|>u on a fixture with nonzero homotopy: the mixed trilinear
    # compatibility breaks
    g = algebra_fixtures()["FIX-M"]
    adj = adjoint_representation(g)
    bad = Representation2(
        adj.algebra,
        adj.complex,
        adj.l0v0,
        adj.l0v1,
        adj.r0v0,
        adj.r0v1,
        adj.l1,
        adj.r1,
        tensor3(1, 1, 1, lambda i, j, s: (F(2),)),
        adj.tm,
        adj.tr,
    )
    report = check_representation(bad)
    assert "R14" in report.by_condition()


def test_zeroed_degree_zero_action_fails():
    g = fix_u()
    adj = adjoint_representation(g)
    bad = Representation2(
        adj.algebra,
        adj.complex,
        adj.l0v0,
        (((F(0),),),),  # x|>m = 0 while u<|a stays the product
        adj.r0v0,
        adj.r0v1,
        adj.l1,
        adj.r1,
        adj.tl,
        adj.tm,
        adj.tr,
    )
    report = check_representation(bad)
    assert not report.passed
    assert "R07" in report.by_condition()


def test_zero_algebra_rep_conditions_constrain_actions():
    # over the zero algebra a degree-0 action whose square is nonzero fails R02
    g = fix_z()
    adj = adjoint_representation(g)
    bad = Representation2(
        g,
        adj.complex,
        adj.l0v0,
        (((F(1),),),),  # x|>m = m, squares to itself, but (x.y)|>m = 0
        adj.r0v0,
        adj.r0v1,
        adj.l1,
        adj.r1,
        adj.tl,
        adj.tm,
        adj.tr,
    )
    report = check_representation(bad)
    assert "R02" in report.by_condition()


# R09-R12 are the axioms (d), (e3), (e1), (e2) of the semidirect product g + V
# with the kernel argument first, but with the sign of one side flipped
# (CONVENTIONS.md, "The R09-R12 sign caveat").  The two tests below state
# the properties a representation checker should have; both fail on it.

def _adjoint_rejected_algebra() -> TwoTermAlgebra:
    """Basis (e, n | a): d a = n, e.e = e, e.n = 2n, e.a = 2a,
    l3(e, e, n) = -2a, every other product 0."""
    return TwoTermAlgebra(
        TwoTermComplex(2, 1, Matrix(((F(0),), (F(1),)), 1)),
        (((F(1), F(0)), (F(0), F(2))), ((F(0), F(0)), (F(0), F(0)))),
        (((F(2),),), ((F(0),),)),
        (((F(0),), (F(0),)),),
        tensor3(2, 2, 2, lambda i, j, k: (F(-2) if (i, j, k) == (0, 0, 1) else F(0),)),
    )


def test_adjoint_rejected_algebra_has_a_semidirect_product():
    """g + g is a two-term algebra, so g's adjoint is a representation."""
    g = _adjoint_rejected_algebra()
    assert check_algebra(g).passed
    assert check_algebra(semidirect_product(g, adjoint_representation(g))).passed


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="R09 at (0, 0, 1): the R09-R12 sign caveat of CONVENTIONS.md"
)
def test_adjoint_of_a_valid_algebra_passes():
    assert check_representation(adjoint_representation(_adjoint_rejected_algebra())).passed


@pytest.mark.xfail(
    strict=True,
    raises=PreconditionError,
    reason="(d) at (1, 0, 0) of the total: the R09-R12 sign caveat of CONVENTIONS.md",
)
def test_a_passing_representation_has_a_semidirect_product():
    g = fix_u()
    r = Representation2(
        g, TwoTermComplex(1, 1, Matrix(((F(1),),), 1)),
        zeros2(1, 1, 1), zeros2(1, 1, 1), (((F(2),),),), (((F(2),),),), zeros2(1, 1, 1), zeros2(1, 1, 1),
        zeros3(1, 1, 1, 1), zeros3(1, 1, 1, 1), ((((F(-2),),),),),
    )
    assert check_representation(r).passed
    build_extension(g, r.complex, r, zero_cochain2(g, r))
