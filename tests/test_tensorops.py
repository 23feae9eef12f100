"""The sparse loops of ``tensorops`` against the dense loop they replace.

``dense_bil`` and ``dense_tri`` are the reference: they walk every entry of
the tensor and skip zeros by truthiness, as the evaluators did before the
sparse views.  The sparse loops must give the same values with the same
scalar types, raise where the reference raises, and never form a product
of two linear forms for a pair of arguments that meets only zero entries.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assoc2.cochain import FormProduct, LinearForm
from assoc2.poly import Poly
from assoc2.tensorops import apply2, apply3, bil, tri, view2, view3


def _zero_of(x):
    return 0 if type(x) is int else Fraction(0)


def dense_bil(t2, u, v):
    n_out = len(t2[0][0]) if t2 and t2[0] else 0
    acc = [_zero_of(t2[0][0][0]) if n_out else Fraction(0)] * n_out
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if not b:
                continue
            ab = a * b
            for k, x in enumerate(t2[i][j]):
                if x:
                    acc[k] += ab * x
    return tuple(acc)


def dense_tri(t3, u, v, w):
    n_out = len(t3[0][0][0]) if t3 and t3[0] and t3[0][0] else 0
    acc = [_zero_of(t3[0][0][0][0]) if n_out else Fraction(0)] * n_out
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if not b:
                continue
            ab = a * b
            for k, c in enumerate(w):
                if not c:
                    continue
                abc = ab * c
                for m, x in enumerate(t3[i][j][k]):
                    if x:
                        acc[m] += abc * x
    return tuple(acc)


# scalars of each kind, zero included; forms do not mix with polynomials
# (neither multiplies the other), so a case draws its kinds from one family
SCALARS = {
    "int": st.integers(-2, 2),
    "fraction": st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
    "poly": st.builds(Poly, st.lists(st.integers(-2, 2), max_size=3)),
    "form": st.dictionaries(st.integers(0, 3), st.integers(-2, 2).filter(bool), max_size=2).map(LinearForm),
}
FAMILIES = (("int", "fraction", "poly"), ("int", "fraction", "form"))


@st.composite
def cases(draw, arity):
    family = draw(st.sampled_from(FAMILIES))
    dims = draw(st.lists(st.integers(0, 3), min_size=arity + 1, max_size=arity + 1))
    kind = draw(st.sampled_from(family))
    # each input block of the tensor is either all zero or drawn entry by entry
    entry = st.one_of(st.just(0), SCALARS[kind]) if draw(st.booleans()) else st.just(0)

    def tensor(shape):
        if len(shape) == 1:
            return tuple(draw(entry) for _ in range(shape[0]))
        return tuple(tensor(shape[1:]) for _ in range(shape[0]))

    block = st.one_of(st.just(0), SCALARS[draw(st.sampled_from(family))])
    vectors = [tuple(draw(block) for _ in range(n)) for n in dims[:arity]]
    return tensor(dims), vectors


def _outcome(loop, *args):
    try:
        out = loop(*args)
    except TypeError:
        return "TypeError"
    return out, [type(x) for x in out]


@settings(max_examples=300, deadline=None)
@given(cases(2))
def test_sparse_bilinear_loop_matches_the_dense_loop(case):
    t2, (u, v) = case
    want = _outcome(dense_bil, t2, u, v)
    assert _outcome(apply2, view2(t2), u, v) == want
    assert _outcome(bil, t2, u, v) == want


@settings(max_examples=300, deadline=None)
@given(cases(3))
def test_sparse_trilinear_loop_matches_the_dense_loop(case):
    t3, (u, v, w) = case
    want = _outcome(dense_tri, t3, u, v, w)
    assert _outcome(apply3, view3(t3), u, v, w) == want
    assert _outcome(tri, t3, u, v, w) == want


def _form_products(monkeypatch):
    """Record, for each multiplication of a linear form, whether the other
    factor is a form (or a product of two)."""
    seen = []
    original = LinearForm.__mul__

    def counted(self, c):
        seen.append(type(c) is LinearForm or type(c) is FormProduct)
        return original(self, c)

    monkeypatch.setattr(LinearForm, "__mul__", counted)
    monkeypatch.setattr(LinearForm, "__rmul__", counted)
    return seen


def test_a_form_pair_on_zero_blocks_forms_no_product(monkeypatch):
    # a semidirect product in miniature: coordinate 0 is the base, 1 the
    # kernel, and every entry with two kernel arguments is zero
    x, y = LinearForm({0: 1}), LinearForm({1: 2})
    t2 = (((1, 0), (0, 1)), ((0, 1), (0, 0)))
    kernels = lambda *idx: (int(sum(idx) == 0), int(sum(idx) == 1))
    t3 = tuple(tuple(tuple(kernels(i, j, k) for k in range(2)) for j in range(2)) for i in range(2))
    seen = _form_products(monkeypatch)
    assert apply2(view2(t2), (1, x), (1, y)) == (1, x + y)
    assert apply3(view3(t3), (1, x), (1, y), (1, x)) == (1, x + y + x)
    assert seen and not any(seen)
    # where the pair meets a nonzero entry, its product refuses the sum
    with pytest.raises(TypeError, match="product of two linear forms"):
        apply2(view2((((0,), (0,)), ((0,), (1,)))), (0, x), (0, y))
