"""Nijenhuis conditions, the second-order l3 of a Nijenhuis deformation,
extracted representations and abelian-kernel checks, read off term tables,
against the hand-written formulas they replaced (``reference_residuals``).

Inputs: random transported two-term pairs and crossed modules of dims 2/2
and up; random candidates (N0, N1, N2), most of which fail some condition;
extensions by random cocycles whose kernel coordinates are moved by a
random permutation of the total's basis (so the kernel index sets are not
the trailing coordinates, nor in increasing order) and whose splittings are
sheared by kernel-valued maps; and, for the abelian-kernel checks, random
structures with random index sets that need not be extensions at all.
Reports must agree in labels, tuples, lhs and rhs (values and scalar
types); representations and tensors must be equal and hold only
``Fraction``.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import reference_residuals as ref
from assoc2 import cohom2, ext2, xmod
from assoc2.algebra2 import TwoTermComplex
from assoc2.deform2 import NijenhuisCandidate, check_nijenhuis, nijenhuis_deformation
from assoc2.exactlin import Matrix
from assoc2.fixtures import direct_sum_algebra, fix_d, fix_l3, fix_m, fix_u, fix_w, fix_z
from assoc2.rep2 import adjoint_representation, trivial_representation
from assoc2.report import report_from
from assoc2.sampling import random_cochain1, random_transport, transport_algebra
from assoc2.tensorops import tensor2, tflat
from test_contraction import _algebra, _crossed_module, _matrix

SUMMANDS = {"Z": fix_z, "U": fix_u, "D": fix_d, "W": fix_w, "L3": fix_l3, "M": fix_m}
# two-term sums whose adjoint pair forms a complex; strict ones give crossed modules
TWO_TERM_SUMS = [("Z", "L3"), ("L3", "L3"), ("U", "M"), ("M", "L3"), ("Z", "Z", "U")]
STRICT_SUMS = [("Z", "D"), ("D", "W"), ("U", "W"), ("Z", "U", "D")]

SETTINGS = dict(deadline=None, phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow])


def _sum(names, seed):
    g = SUMMANDS[names[0]]()
    for name in names[1:]:
        g = direct_sum_algebra(g, SUMMANDS[name]())
    return random_transport(random.Random(seed), g)


def _report(residuals):
    """The violations with the scalar types of both sides."""
    return [
        (v.condition, v.where, v.lhs, v.rhs, [type(x) for x in v.lhs], [type(x) for x in v.rhs])
        for v in report_from(residuals).violations
    ]


def _violations(report):
    return ((v.condition, v.where, v.lhs, v.rhs) for v in report.violations)


def _random_matrix(rng, rows, cols):
    """Mostly zero, entries in -2..2 with denominators up to 2."""
    entry = lambda: Fraction(rng.choice((0, 0, 1, -1, 2)), rng.randint(1, 2))
    return Matrix(tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)), cols)


def _candidate(rng, n0, n1):
    """A random candidate, sometimes the identity or zero (which pass)."""
    kind = rng.choice(("random", "random", "random", "identity", "zero"))
    if kind == "random":
        n2 = tensor2(n0, n0, lambda i, j: tuple(Fraction(rng.choice((0, 0, 1, -3))) for _ in range(n1)))
        return NijenhuisCandidate(_random_matrix(rng, n0, n0), _random_matrix(rng, n1, n1), n2)
    scale = int(kind == "identity")
    n2 = tensor2(n0, n0, lambda i, j: (Fraction(0),) * n1)
    return NijenhuisCandidate(Matrix.identity(n0).scale(scale), Matrix.identity(n1).scale(scale), n2)


@settings(max_examples=25, **SETTINGS)
@given(seed=st.integers(0, 10**6), names=st.sampled_from(TWO_TERM_SUMS))
def test_nijenhuis_reports_and_theta2_match_the_reference(seed, names):
    rng = random.Random(seed)
    g = _sum(names, seed)
    for _ in range(3):
        n = _candidate(rng, g.dim0, g.dim1)
        assert _report(_violations(check_nijenhuis(g, n))) == _report(ref.nijenhuis_residuals(g, n))
        p = nijenhuis_deformation(g, n)
        assert p.second_order_l3 == ref.nijenhuis_theta2(g, n, p.first_order)
        assert {type(x) for x in tflat(p.second_order_l3)} <= {Fraction}


@settings(max_examples=25, **SETTINGS)
@given(seed=st.integers(0, 10**6), names=st.sampled_from(STRICT_SUMS))
def test_xmod_nijenhuis_reports_match_the_reference(seed, names):
    rng = random.Random(seed)
    x = xmod.algebra_to_crossed_module(_sum(names, seed))
    for _ in range(3):
        n = _candidate(rng, x.pdim, x.hdim)
        want = _report(ref.xmod_nijenhuis_residuals(x, n.n0, n.n1))
        assert _report(_violations(xmod.xmod_check_nijenhuis(x, n.n0, n.n1))) == want


def _permutation(rng, n) -> Matrix:
    order = list(range(n))
    rng.shuffle(order)
    return Matrix(tuple(tuple(Fraction(int(order[j] == i)) for j in range(n)) for i in range(n)), n)


def _moved(e, rng, total, cls):
    """``e`` with its total's basis permuted in each degree (``total`` maps
    a degreewise pair of permutation matrices to the moved total) and its
    splitting sheared by random kernel-valued maps."""
    perms = [_permutation(rng, n) for n in (e.total.dim0, e.total.dim1)]
    moved = [tuple(p.col(i).index(1) for i in sub) for p, sub in zip(perms, (e.sub0, e.sub1))]
    inverse = [p.transpose() for p in perms]
    sigma = []
    for p, s, sub, b in zip(perms, (e.sigma0, e.sigma1), (e.sub0, e.sub1), (e.base.dim0, e.base.dim1)):
        shear = _random_matrix(rng, len(sub), b)
        shift = lambda i, k: shear.col(i)[sub.index(k)] if k in sub else 0
        cols = [tuple(x + shift(i, k) for k, x in enumerate(s.col(i))) for i in range(b)]
        sigma.append(p @ Matrix.from_cols(cols, s.rows))
    return cls(total(*perms), e.base, *moved, e.p0 @ inverse[0], e.p1 @ inverse[1], *sigma)


def _two_term_extension(rng, g, r):
    res = cohom2.second_cohomology(g, r)
    c = cohom2.d1_apply(g, r, random_cochain1(rng, g, r))
    for rep in res.representatives:
        c = c + rep.scale(Fraction(rng.randint(-2, 2)))
    e = ext2.build_extension(g, r.complex, r, c)
    return _moved(e, rng, lambda p0, p1: transport_algebra(e.total, p0, p1), ext2.Extension2)


@settings(max_examples=20, **SETTINGS)
@given(seed=st.integers(0, 10**6), names=st.sampled_from(TWO_TERM_SUMS), adjoint=st.booleans())
def test_extracted_representations_match_the_reference(seed, names, adjoint):
    rng = random.Random(seed)
    g = _sum(names, seed)
    r = adjoint_representation(g) if adjoint else trivial_representation(g, TwoTermComplex(2, 1, Matrix.zero(2, 1)))
    e = _two_term_extension(rng, g, r)
    assert ext2.check_extension(e).passed
    got = ext2.extract_representation(e)
    assert got == ref.extract_representation(e)
    assert {type(x) for t in (got.l0v0, got.l1, got.tm) for x in tflat(t)} <= {Fraction}


def _xmod_extension(rng, x, r):
    res = xmod.xmod_second_cohomology(x, r)
    lam = xmod.XCochain1(_random_matrix(rng, r.wdim, x.pdim), _random_matrix(rng, r.vdim, x.hdim))
    c = xmod.xmod_d1_apply(x, r, lam)
    for rep in res.representatives:
        c = c + rep.scale(Fraction(rng.randint(-2, 2)))
    e = xmod.xmod_build_extension(x, r, c)
    strict = xmod.crossed_module_to_algebra(e.total)
    moved = lambda p0, p1: xmod.algebra_to_crossed_module(transport_algebra(strict, p0, p1))
    return _moved(e, rng, moved, xmod.XModExtension)


@settings(max_examples=20, **SETTINGS)
@given(seed=st.integers(0, 10**6), names=st.sampled_from(STRICT_SUMS), adjoint=st.booleans())
def test_extracted_xmod_representations_match_the_reference(seed, names, adjoint):
    rng = random.Random(seed)
    x = xmod.algebra_to_crossed_module(_sum(names, seed))
    r = xmod.xmod_adjoint(x) if adjoint else xmod.xmod_trivial_representation(x, 2, 1)
    e = _xmod_extension(rng, x, r)
    assert xmod.check_xmod_extension(e).passed
    got = xmod.xmod_extract_representation(e)
    assert got == ref.xmod_extract_representation(e)
    assert {type(x) for x in tflat(got.tr_l) + tflat(got.w_mod.left) + tflat(got.phi.entries)} <= {Fraction}


def _abelian(residuals):
    return _report(v for v in residuals if v[0].startswith("abelian"))


@st.composite
def _index_sets(draw, dims):
    """Random distinct kernel index sets, in random order, in each degree."""
    return tuple(tuple(draw(st.permutations(range(n)))[: draw(st.integers(0, n))]) for n in dims)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_abelian_kernel_checks_match_the_reference(data):
    # any structures: the checks read the total's maps on inclusions only
    t = data.draw(_algebra((data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))), ("int", "fraction")))
    b = data.draw(_algebra((data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))), ("fraction",)))
    sub0, sub1 = data.draw(_index_sets((t.dim0, t.dim1)))
    p0, p1 = data.draw(_matrix(b.dim0, t.dim0, ("fraction",))), data.draw(_matrix(b.dim1, t.dim1, ("fraction",)))
    s0, s1 = data.draw(_matrix(t.dim0, b.dim0, ("fraction",))), data.draw(_matrix(t.dim1, b.dim1, ("fraction",)))
    e = ext2.Extension2(t, b, sub0, sub1, p0, p1, s0, s1)
    assert _abelian(ext2.extension_residuals(e)) == _report(ref.abelian_residuals(e))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_xmod_abelian_kernel_checks_match_the_reference(data):
    t = data.draw(_crossed_module((data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)))))
    b = data.draw(_crossed_module((data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))))
    sub0, sub1 = data.draw(_index_sets((t.pdim, t.hdim)))
    p0, p1 = data.draw(_matrix(b.pdim, t.pdim, ("fraction",))), data.draw(_matrix(b.hdim, t.hdim, ("fraction",)))
    s0, s1 = data.draw(_matrix(t.pdim, b.pdim, ("fraction",))), data.draw(_matrix(t.hdim, b.hdim, ("fraction",)))
    e = xmod.XModExtension(t, b, sub0, sub1, p0, p1, s0, s1)
    assert _abelian(xmod.xmod_extension_residuals(e)) == _report(ref.xmod_abelian_residuals(e))
