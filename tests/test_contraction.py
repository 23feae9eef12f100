"""The residual generators, evaluated by sparse contraction, against the
per-tuple generators they replaced (``reference_residuals``).

Random structures, sparse and dense, over ``int``, ``Fraction`` and
``Poly``, on every selection of basis tuples, must give the same stream:
the same (condition, tuple) order, equal sides and equal scalar types.
Linear forms are compared where the package evaluates them: on the
standard totals of two-cochains of forms (d2 and the cocycle checks) and
on splittings shifted by one-cochains of forms (d1), random ones over
random structures and the generic ones over fixture sums, in both
theories.  A
product of two forms is formed only where the reference forms it, and it
still refuses the sum.
"""

import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_residuals as ref
from assoc2 import algebra2, xmod
from assoc2.algebra2 import AssocAlgebra, Bimodule, Homomorphism2, TwoTermAlgebra, TwoTermComplex, Tuples
from assoc2.cochain import LinearForm
from assoc2.cohom2 import cochain_layouts, extension_total, semidirect_product, shifted_splitting
from assoc2.exactlin import Matrix
from assoc2.fixtures import direct_sum_algebra, fix_d, fix_l3, fix_m, fix_u, fix_w, fix_z
from assoc2.integral import on_integers
from assoc2.extension import shifted
from assoc2.poly import Poly
from assoc2.rep2 import Representation2, adjoint_representation, representation_residuals, trivial_representation
from assoc2.sampling import random_transport

SCALARS = {
    "int": st.integers(-2, 2),
    "fraction": st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
    "poly": st.builds(Poly, st.lists(st.integers(-2, 2), max_size=3)),
}


def _stream(generator, *args, **kwargs):
    """The residuals with the scalar types of both sides, or the exception
    type the generator raised."""
    try:
        return [
            (condition, where, lhs, rhs, [type(x) for x in lhs], [type(x) for x in rhs])
            for condition, where, lhs, rhs in generator(*args, **kwargs)
        ]
    except TypeError:
        return "TypeError"


@st.composite
def _tensor(draw, shape, kinds=tuple(SCALARS)):
    """A tensor of one kind of scalar (int, Fraction or Poly, or those of
    ``kinds``), all zero, sparse or dense."""
    kind = draw(st.sampled_from(kinds))
    density = draw(st.sampled_from(("zero", "sparse", "dense")))
    entry = {"zero": st.just(0), "sparse": st.one_of(st.just(0), st.just(0), SCALARS[kind]), "dense": SCALARS[kind]}

    def build(shape):
        if len(shape) == 1:
            return tuple(draw(entry[density]) for _ in range(shape[0]))
        return tuple(build(shape[1:]) for _ in range(shape[0]))

    return build(shape)


@st.composite
def _matrix(draw, rows, cols, kinds=tuple(SCALARS)):
    return Matrix.as_given(draw(_tensor((rows, cols), kinds)) if rows else (), cols)


@st.composite
def _algebra(draw, dims=None, kinds=tuple(SCALARS)):
    n0, n1 = dims or (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    return TwoTermAlgebra(
        TwoTermComplex(n0, n1, draw(_matrix(n0, n1, kinds))),
        draw(_tensor((n0, n0, n0), kinds)),
        draw(_tensor((n0, n1, n1), kinds)),
        draw(_tensor((n1, n0, n1), kinds)),
        draw(_tensor((n0, n0, n0, n1), kinds)),
    )


@st.composite
def _crossed_module(draw, dims=None):
    np_, nh = dims or (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    p = AssocAlgebra(np_, draw(_tensor((np_, np_, np_))))
    h = Bimodule(p, nh, draw(_tensor((np_, nh, nh))), draw(_tensor((nh, np_, nh))))
    return xmod.CrossedModule(p, h, draw(_matrix(np_, nh)))


@st.composite
def _selection(draw, dims):
    """None (every tuple), or the tuples with 0 or 1 arguments past cuts."""
    if draw(st.booleans()):
        return None
    cuts = tuple(draw(st.integers(0, n)) for n in dims)
    return Tuples(cuts, draw(st.integers(0, 1)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_algebra_residuals_match_the_per_tuple_reference(data):
    g = data.draw(_algebra())
    tuples = data.draw(_selection((g.dim0, g.dim1)))
    assert _stream(algebra2.algebra_residuals, g, tuples) == _stream(ref.algebra_residuals, g, tuples)


# targets have both degrees: a tensor with an empty input shows no output
# length, and the reference then fails to subtract vectors of two lengths
_TARGET = st.tuples(st.integers(1, 3), st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_homomorphism_residuals_match_the_per_tuple_reference(data):
    g, gp = data.draw(_algebra()), data.draw(_algebra(data.draw(_TARGET)))
    f0, f1 = data.draw(_matrix(gp.dim0, g.dim0)), data.draw(_matrix(gp.dim1, g.dim1))
    h = Homomorphism2(g, gp, f0, f1, data.draw(_tensor((g.dim0, g.dim0, gp.dim1))))
    assert _stream(algebra2.homomorphism_residuals, h) == _stream(ref.homomorphism_residuals, h)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_crossed_module_residuals_match_the_per_tuple_reference(data):
    x = data.draw(_crossed_module())
    tuples = data.draw(_selection((x.pdim, x.hdim)))
    assert _stream(xmod.crossed_module_residuals, x, tuples) == _stream(ref.crossed_module_residuals, x, tuples)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_xmod_homomorphism_residuals_match_the_per_tuple_reference(data):
    src, dst = data.draw(_crossed_module()), data.draw(_crossed_module(data.draw(_TARGET)))
    f0, f1 = data.draw(_matrix(dst.pdim, src.pdim)), data.draw(_matrix(dst.hdim, src.hdim))
    want = _stream(ref.xmod_homomorphism_residuals, src, dst, f0, f1)
    assert _stream(xmod.xmod_homomorphism_residuals, src, dst, f0, f1) == want


# pairs on which the package evaluates linear forms: sums of fixtures, plain
# and transported, with adjoint and trivial coefficients
def _pairs():
    zero = TwoTermComplex(1, 2, Matrix.zero(1, 2))
    for seed, blocks in enumerate(((fix_u, fix_l3), (fix_m, fix_d), (fix_z, fix_l3), (fix_u, fix_m, fix_l3))):
        g = blocks[0]()
        for b in blocks[1:]:
            g = direct_sum_algebra(g, b())
        for h in (g, random_transport(random.Random(seed), g)):
            yield h, adjoint_representation(h)
            yield h, trivial_representation(h, zero)


def _assert_same(name, module, *args):
    """The generator ``name`` of ``module`` gives the reference's stream,
    one that raises nothing."""
    want = _stream(getattr(ref, name), *args)
    assert want != "TypeError" and _stream(getattr(module, name), *args) == want, name


@pytest.mark.parametrize("integral", (False, True))
def test_generic_cochains_match_the_reference_on_totals_and_splittings(integral):
    for g, r in _pairs():
        if integral:
            g, r = on_integers(g), on_integers(r)
        c1, c2 = cochain_layouts(g.dim0, g.dim1, r.dim0, r.dim1)
        cuts = (g.dim0, g.dim1)
        _assert_same("algebra_residuals", algebra2, extension_total(g, r, c2.generic()), Tuples(cuts, 0))
        _assert_same("algebra_residuals", algebra2, semidirect_product(g, r), Tuples(cuts, 1))
        c = c1.generic()
        _assert_same("homomorphism_residuals", algebra2, shifted_splitting(g, r, c.phi, c.phi1, c.chi))


def test_generic_cochains_match_the_reference_on_crossed_modules():
    blocks = ((fix_u, fix_d, fix_w), (fix_z, fix_d), (fix_d, fix_w))
    for seed, names in enumerate(blocks):
        g = names[0]()
        for b in names[1:]:
            g = direct_sum_algebra(g, b())
        x = xmod.algebra_to_crossed_module(random_transport(random.Random(seed), g) if seed else g)
        for r in (xmod.xmod_adjoint(x), xmod.xmod_trivial_representation(x, 2, 1)):
            c1, c2 = xmod.xmod_cochain_layouts(x.pdim, x.hdim, r.vdim, r.wdim)
            cuts = (x.pdim, x.hdim)
            total = xmod.xmod_extension_total(x, r, c2.generic())
            _assert_same("crossed_module_residuals", xmod, total, Tuples(cuts, 0))
            _assert_same("crossed_module_residuals", xmod, xmod.semidirect_product(x, r), Tuples(cuts, 1))
            c = c1.generic()
            args = x, xmod.semidirect_product(x, r), shifted(c.n0), shifted(c.n1)
            _assert_same("xmod_homomorphism_residuals", xmod, *args)


_FORMS = st.one_of(
    st.just(0), st.dictionaries(st.integers(0, 5), st.integers(-2, 2).filter(bool), min_size=1, max_size=2).map(LinearForm)
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_totals_and_splittings_of_form_cochains_match_the_reference(data):
    # g, over int and Fraction (forms do not multiply polynomials), need not
    # be an algebra; its adjoint data, unchecked, is the representation, and
    # the cochains' entries are sparse linear forms
    g = data.draw(_algebra((data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))), ("int", "fraction")))
    r = Representation2(g, g.complex, g.l2_00, g.l2_01, g.l2_00, g.l2_10, g.l2_10, g.l2_01, g.l3, g.l3, g.l3)
    c1, c2 = cochain_layouts(g.dim0, g.dim1, r.dim0, r.dim1)
    cuts = (g.dim0, g.dim1)
    c = c2.unflatten(data.draw(st.lists(_FORMS, min_size=c2.dim, max_size=c2.dim)))
    _assert_same("algebra_residuals", algebra2, extension_total(g, r, c), Tuples(cuts, 0))
    c = c1.unflatten(data.draw(st.lists(_FORMS, min_size=c1.dim, max_size=c1.dim)))
    _assert_same("homomorphism_residuals", algebra2, shifted_splitting(g, r, c.phi, c.phi1, c.chi))


def test_a_form_pair_on_a_nonzero_entry_still_refuses_the_sum():
    # g + V in miniature on 1/1 + 1/1 whose kernel x kernel product is not
    # zero: two kernel coordinates of the shifted splitting meet it
    x, y = LinearForm({0: 1}), LinearForm({1: 1})
    zero = (((0,),),)
    g = TwoTermAlgebra(TwoTermComplex(1, 1, Matrix.as_given(((0,),), 1)), (((1,),),), zero, zero, (zero,))
    mul = (((1, 0), (0, 0)), ((0, 0), (0, 1)))
    target = TwoTermAlgebra(
        TwoTermComplex(2, 2, Matrix.as_given(((0, 0), (0, 0)), 2)),
        mul, (((0, 0),) * 2,) * 2, (((0, 0),) * 2,) * 2, ((((0, 0),) * 2,) * 2,) * 2,
    )
    h = Homomorphism2(g, target, Matrix.as_given(((1,), (x,)), 1), Matrix.as_given(((1,), (y,)), 1), (((0, 0),),))
    for generator in (ref.homomorphism_residuals, algebra2.homomorphism_residuals):
        with pytest.raises(TypeError, match="product of two linear forms"):
            list(generator(h))


def test_the_representation_check_of_u_m_l3_makes_no_product_call_per_tuple():
    """A work gate: on g + V of the adjoint of U + M + L3, the one-kernel
    residuals of (a)-(f) (648 read, 702 visited) are read off one
    contraction per term.  No bilinear, trilinear or matrix-vector loop runs
    on a basis tuple, and the whole stream takes fewer Python calls than
    ten per visited tuple; the per-tuple generators took 14468."""
    g = direct_sum_algebra(direct_sum_algebra(fix_u(), fix_m()), fix_l3())
    r = on_integers(adjoint_representation(g))
    semidirect_product(r.algebra, r)
    calls = {}

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] = calls.get(frame.f_code.co_name, 0) + 1

    sys.setprofile(count)
    try:
        residuals = list(representation_residuals(r))
    finally:
        sys.setprofile(None)
    assert len(residuals) == 648
    assert not {"apply2", "apply3", "__matmul__"} & set(calls), calls
    assert sum(calls.values()) < 7020, sum(calls.values())


# the per-vector loops: outside ``tensorops`` only basis transport
# (``sampling``) and the arity-generic Hochschild differential apply them
PER_VECTOR = {"apply2", "apply3", "view2", "view3", "bil", "tri"}
ALLOWED = {"tensorops.py": None, "sampling.py": None, "algebra2.py": {"hochschild_coboundary"}}


def test_only_transport_and_the_hochschild_code_use_the_per_vector_loops():
    """A static gate: every other module of the package evaluates products
    through ``residual_sides`` alone, importing none of the loops."""
    src = Path(algebra2.__file__).parent
    for path in sorted(src.glob("*.py")):
        allowed = ALLOWED.get(path.name, set())
        if allowed is None:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name in PER_VECTOR or alias.name == "tensorops"
        }
        defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        users = {
            node.name
            for node in defs
            if any(
                isinstance(n, ast.Name) and n.id in PER_VECTOR or isinstance(n, ast.Attribute) and n.attr in PER_VECTOR
                for n in ast.walk(node)
            )
        }
        assert users <= allowed and (imported <= PER_VECTOR if allowed else not imported), (path.name, imported, users)


def test_extension_and_nijenhuis_commands_reach_no_per_vector_loop(tmp_path):
    """A work gate: ``ext extract``, ``ext equiv`` and ``nijenhuis apply``,
    in both theories, evaluate every product by contraction."""
    from test_cli_reports import _Runner, _fx, _invoke, _two_term_inputs, _xmod_inputs

    u, urep = _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json")
    x, xrep = _fx("fix_x.json"), _fx("fix_x_adjoint_rep.json")
    ext = _Runner(tmp_path).witness("ext", "ext", "build", u, urep, _two_term_inputs(tmp_path)["h2"])
    xext = _Runner(tmp_path).witness("xext", "xmod", "ext", "build", x, xrep, _xmod_inputs(tmp_path)["h2"])
    candidate = _fx("fix_u_nijenhuis_id.json")
    commands = [
        ["ext", "extract", ext], ["ext", "equiv", ext, ext], ["nijenhuis", "apply", u, candidate],
        ["xmod", "ext", "extract", xext], ["xmod", "ext", "equiv", xext, xext],
        ["xmod", "nijenhuis", "apply", x, candidate],
    ]
    for argv in commands:
        calls = set()
        sys.setprofile(lambda frame, event, arg: event == "call" and calls.add(frame.f_code.co_name))
        try:
            code = _invoke(argv)[0]
        finally:
            sys.setprofile(None)
        assert code == 0 and not {"apply2", "apply3"} & calls, argv
        assert "contract" in calls, argv
