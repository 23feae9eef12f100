"""Integer twins: an integral structure is evaluated over ℤ, with the same
reports, matrices and answers as over Fraction, and every value that leaves
the library is a Fraction either way.

The Fraction path is forced by replacing ``integral.twin`` with a function
that finds no twin; every structure is built afresh for each path, since
checks and twins are kept on the objects.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from test_cli_reports import _assert_matches_golden, corrupted_reports

from assoc2 import algebra2, cohom2, ext2, integral, rep2, xmod
from assoc2.algebra2 import TwoTermAlgebra, check_algebra, check_homomorphism, identity_homomorphism
from assoc2.cochain import Inequivalence
from assoc2.exactlin import Matrix
from assoc2.fixtures import direct_sum_algebra, fix_d, fix_l3, fix_m, fix_u, fix_w, fix_z
from assoc2.rep2 import adjoint_representation, check_representation
from assoc2.sampling import random_cochain1, random_matrix, random_transport, transport_algebra

FIXTURES = {"Z": fix_z, "U": fix_u, "D": fix_d, "W": fix_w, "L3": fix_l3, "M": fix_m}
STRICT = ("Z", "U", "D", "W")  # l3 = 0: their sums are crossed modules
# two-block sums whose adjoint pair forms a complex (the others are refused
# with d2 . d1 != 0: every sum with FIX-W, and FIX-D next to FIX-U or FIX-M)
ADJOINT_PAIRS = [
    (a, b) for a in ("Z", "U", "D", "L3", "M") for b in ("Z", "U", "D", "L3", "M")
    if "D" not in (a, b) or {a, b} <= {"D", "Z", "L3"}
]


def _sum(names):
    g = FIXTURES[names[0]]()
    for name in names[1:]:
        g = direct_sum_algebra(g, FIXTURES[name]())
    return g


def _bump(t):
    """A copy of the tensor t with its first scalar increased by 1."""
    if isinstance(t, tuple):
        return (_bump(t[0]),) + t[1:]
    return t + 1


def _matrices(mats):
    return [(m.entries, m.sparse_rows()) for m in (mats.d1, mats.d2)]


def _scalars(x):
    """Every scalar inside x: tuples, matrices (dense and sparse), dicts and
    the fields of dataclasses (cochains, witnesses, violations)."""
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _scalars(y)
    elif isinstance(x, dict):
        yield from _scalars(list(x.values()))
    elif isinstance(x, Matrix):
        yield from _scalars(x.entries)
        yield from _scalars(x.sparse_rows())
    elif is_dataclass(x):
        for f in fields(x):
            if f.init and f.name not in ("where", "source", "target", "condition"):
                yield from _scalars(getattr(x, f.name))
    else:
        yield x


def _all_fractions(x) -> bool:
    return all(type(v) is Fraction for v in _scalars(x))


def two_term_results(seed: int, names, p0=None, p1=None) -> dict:
    """Checks, matrices, H2, a coboundary solve and extension equivalences
    on the adjoint representation of a transported direct sum."""
    rng = random.Random(seed)
    g = _sum(names)
    g = transport_algebra(g, p0, p1) if p0 is not None else random_transport(rng, g)
    r = adjoint_representation(g)
    h2 = cohom2.second_cohomology(g, r)
    c = h2.representatives[0] if h2.representatives else cohom2.zero_cochain2(g, r)
    cob = cohom2.d1_apply(g, r, random_cochain1(rng, g, r))
    e1 = ext2.build_extension(g, r.complex, r, c)
    e2 = ext2.build_extension(g, r.complex, r, c + cob)
    e0 = ext2.build_extension(g, r.complex, r, cohom2.zero_cochain2(g, r))
    bad_g = TwoTermAlgebra(g.complex, _bump(g.l2_00), g.l2_01, g.l2_10, _bump(g.l3))
    bad_r = rep2.Representation2(g, r.complex, r.l0v0, r.l0v1, r.r0v0, r.r0v1, r.l1, r.r1, _bump(r.tl), r.tm, r.tr)
    witness = ext2.check_equivalence(e1, e2)
    return {
        "twin": integral.twin(g) is not None,
        "checks": [check_algebra(g), check_representation(r), check_algebra(bad_g), check_representation(bad_r)],
        "hom": check_homomorphism(identity_homomorphism(g)),
        "extension": ext2.check_extension(e1),
        "matrices": _matrices(cohom2.assemble_matrices(g, r)),
        "h2": (h2.dim_z2, h2.dim_b2, h2.representatives),
        "primitive": cohom2.is_coboundary(g, r, cob),
        "not a coboundary": cohom2.is_coboundary(g, r, c) if h2.representatives else None,
        "witness": (witness.primitive, witness.homomorphism.f0, witness.homomorphism.f1, witness.homomorphism.f2),
        "inequivalence": ext2.check_equivalence(e1, e0),
    }


def xmod_results(seed: int, names) -> dict:
    """The same for the crossed module of a transported strict direct sum."""
    rng = random.Random(seed)
    x = xmod.algebra_to_crossed_module(random_transport(rng, _sum(names)))
    r = xmod.xmod_adjoint(x)
    h2 = xmod.xmod_second_cohomology(x, r)
    c = h2.representatives[0] if h2.representatives else xmod.xmod_zero_cochain2(x, r)
    lam = xmod.XCochain1(random_matrix(rng, r.wdim, x.pdim), random_matrix(rng, r.vdim, x.hdim))
    cob = xmod.xmod_d1_apply(x, r, lam)
    e1 = xmod.xmod_build_extension(x, r, c)
    e2 = xmod.xmod_build_extension(x, r, c + cob)
    e0 = xmod.xmod_build_extension(x, r, xmod.xmod_zero_cochain2(x, r))
    bad_x = xmod.CrossedModule(algebra2.AssocAlgebra(x.pdim, _bump(x.p_alg.mul)), x.h_mod, x.f_map)
    witness = xmod.xmod_check_equivalence(e1, e2)
    return {
        "twin": integral.twin(x) is not None,
        "checks": [xmod.check_crossed_module(x), xmod.check_xmod_representation(r), xmod.check_crossed_module(bad_x)],
        "extension": xmod.check_xmod_extension(e1),
        "matrices": _matrices(xmod.xmod_assemble_matrices(x, r)),
        "h2": (h2.dim_z2, h2.dim_b2, h2.representatives),
        "primitive": xmod.xmod_is_coboundary(x, r, cob),
        "witness": (witness.primitive, witness.f0, witness.f1),
        "inequivalence": xmod.xmod_check_equivalence(e1, e0),
    }


def _on_both_paths(build, *args):
    twin_path = build(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integral, "twin", lambda x: None)
        fraction_path = build(*args)
    return twin_path, fraction_path


def _same(a: dict, b: dict) -> None:
    """Equal values, and Fraction scalars wherever b has them."""
    for key in a:
        if key == "twin":
            continue
        assert a[key] == b[key], key
        assert [type(v) for v in _scalars(a[key])] == [type(v) for v in _scalars(b[key])], key


# each example builds and solves everything twice, so a failure is reported
# as drawn instead of shrunk
settings_ = settings(
    max_examples=6, deadline=None, phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow]
)


@settings_
@given(seed=st.integers(0, 10**6), names=st.sampled_from(ADJOINT_PAIRS))
def test_two_term_twin_path_matches_fraction_path(seed, names):
    twin_path, fraction_path = _on_both_paths(two_term_results, seed, names)
    assert twin_path["twin"] and not fraction_path["twin"]
    _same(twin_path, fraction_path)


@settings_
@given(seed=st.integers(0, 10**6), names=st.lists(st.sampled_from(STRICT), min_size=2, max_size=2))
def test_xmod_twin_path_matches_fraction_path(seed, names):
    twin_path, fraction_path = _on_both_paths(xmod_results, seed, names)
    assert twin_path["twin"] and not fraction_path["twin"]
    _same(twin_path, fraction_path)


def test_non_integral_structure_has_no_twin_and_same_answers():
    half = (Matrix(((1, Fraction(1, 2)), (0, 1))), Matrix(((1, 0), (Fraction(1, 2), 1))))
    twin_path, fraction_path = _on_both_paths(two_term_results, 5, ("U", "M"), *half)
    assert not twin_path["twin"]
    _same(twin_path, fraction_path)


def test_corrupted_golden_reports_on_the_fraction_path():
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(integral, "twin", lambda x: None)
        _assert_matches_golden(corrupted_reports(Path(tmp)), "corrupted.json")


def test_every_value_leaving_the_library_is_a_fraction():
    for results in (two_term_results(3, ("U", "M")), xmod_results(3, ("U", "W"))):
        assert results["twin"]
        violations = [v for report in results["checks"] for v in report.violations]
        assert violations and _all_fractions(violations)
        assert _all_fractions(results["matrices"])
        assert _all_fractions(results["h2"][2])
        assert _all_fractions(results["primitive"])
        assert _all_fractions(results["witness"])
        assert isinstance(results["inequivalence"], Inequivalence)


def _two_term_pair(seed=4):
    g = random_transport(random.Random(seed), _sum(("U", "M")))
    return g, adjoint_representation(g)


def _xmod_pair(seed=4):
    x = xmod.algebra_to_crossed_module(random_transport(random.Random(seed), _sum(("U", "W"))))
    return x, xmod.xmod_adjoint(x)


def test_integral_inputs_take_the_int_path(monkeypatch):
    """No Fraction is multiplied while integral structures are checked and
    their matrices assembled, and the extension checks run their residual
    generators on int twins: a silent fallback to Fraction fails here."""
    (g, r), (x, xr) = _two_term_pair(), _xmod_pair()
    products = []
    for name in ("__mul__", "__rmul__"):

        def counted(a, b, _original=getattr(Fraction, name)):
            products.append((a, b))
            return _original(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    reports = [check_algebra(g), check_representation(r), check_homomorphism(identity_homomorphism(g))]
    reports += [xmod.check_crossed_module(x), xmod.check_xmod_representation(xr)]
    cohom2.assemble_matrices(g, r)
    xmod.xmod_assemble_matrices(x, xr)
    monkeypatch.undo()
    assert all(report.passed for report in reports)
    assert products == []

    (g, r), (x, xr) = _two_term_pair(), _xmod_pair()
    e = ext2.build_extension(g, r.complex, r, cohom2.zero_cochain2(g, r))
    xe = xmod.xmod_build_extension(x, xr, xmod.xmod_zero_cochain2(x, xr))
    evaluated = []
    for module, attr in ((ext2, "extension_residuals"), (xmod, "xmod_extension_residuals")):

        def recorded(ext, _original=getattr(module, attr)):
            evaluated.append(ext)
            return _original(ext)

        monkeypatch.setattr(module, attr, recorded)
    assert ext2.check_extension(e).passed and xmod.check_xmod_extension(xe).passed
    assert len(evaluated) == 2
    assert all(type(v) is int for ext in evaluated for v in _scalars((ext.total, ext.p0, ext.sigma1)))



def test_the_twin_of_a_kept_structure_lends_its_tensors(monkeypatch):
    """The adjoint representation holds g's own tensors: once g keeps its
    twin, the representation's twin takes theirs and converts no scalar."""
    g = random_transport(random.Random(6), _sum(("U", "L3")))
    tg = integral.twin(g)
    converted = []
    original = integral._convert
    monkeypatch.setattr(integral, "_convert", lambda x, memo: converted.append(type(x)) or original(x, memo))
    tr = integral.twin(adjoint_representation(g))
    assert tr.algebra is tg and tr.complex is tg.complex
    assert tr.l0v0 is tg.l2_00 and tr.r1 is tg.l2_01 and tr.l1 is tg.l2_10 and tr.tm is tg.l3
    assert Fraction not in converted
