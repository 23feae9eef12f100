from fractions import Fraction

from assoc2.poly import Poly, T
from assoc2.tensorops import bil


def test_arithmetic():
    p = (T + 1) * (T - 1)
    assert p == T * T - 1
    assert p.coeff(0) == -1 and p.coeff(1) == 0 and p.coeff(2) == 1
    assert p(Fraction(3)) == 8


def test_mixed_scalars():
    p = Fraction(1, 2) + T * Fraction(2)
    assert p.coeff(0) == Fraction(1, 2)
    assert p.coeff(1) == 2
    assert 2 * T == T + T


def test_zero_normalization_and_equality():
    assert Poly((0, 0)) == 0
    assert Poly((Fraction(5),)) == Fraction(5)
    assert (T - T).is_zero()
    assert Poly((1, 2)).degree == 1


def test_subtraction_both_sides():
    assert (1 - T).coeff(1) == -1
    assert (T - 1).coeff(0) == -1


def test_truthiness_is_nonzero():
    assert not Poly() and not (T - T) and not Poly((0, 0)) and not (T * 0)
    assert T and (T * T - T) and Poly((Fraction(1, 2),))
    # so the tensor evaluators skip zero polynomials like zero numbers
    assert bil((((T,),),), (T - T,), (T,)) == (0,)
    assert bil((((T,),),), (T,), (1 + T,)) == (T * T * (1 + T),)
