"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time (run with -s to see them).  Tolerances are exact (rational
arithmetic); runtime budgets are asserted as stated.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from brute_oracle import brute_h2, brute_xmod_h2

from assoc2.algebra2 import (
    TwoTermAlgebra,
    TwoTermComplex,
    check_algebra,
    check_homomorphism,
    hochschild_coboundary,
    hochschild_is_zero,
)
from assoc2.cli import main as cli_main
from assoc2.cohom2 import (
    assemble_matrices,
    cochain_complex,
    d1_apply,
    d2_residual,
    flatten_cochain2,
    second_cohomology,
    zero_cochain2,
)
from assoc2.deform2 import (
    NijenhuisCandidate,
    PolyStructure,
    check_generates,
    check_nijenhuis,
    check_trivializing,
    identity_candidate,
    nijenhuis_deformation,
    specialize,
    zero_candidate,
)
from assoc2.exactlin import Matrix, kernel_basis
from assoc2.ext2 import (
    EquivalenceWitness,
    Inequivalence,
    build_extension,
    check_equivalence,
    extract_cocycle,
    extract_representation,
)
from assoc2.fixtures import (
    algebra_fixtures,
    bimodule_fixtures,
    direct_sum_algebra,
    fix_2d,
    fix_u,
    fix_x,
    fix_x_peiffer,
    fix_z,
    fixture_file,
    xmod_fixtures,
)
from assoc2.rep2 import adjoint_representation, check_representation, trivial_representation
from assoc2.sampling import random_cochain1, random_cochain2, random_transport, random_xcochain2
from assoc2.tensorops import zeros2
from assoc2.xmod import (
    XCochain1,
    XCochain2,
    XModWitness,
    check_crossed_module,
    crossed_module_to_algebra,
    algebra_to_crossed_module,
    semidirect_product,
    xmod_adjoint,
    xmod_assemble_matrices,
    xmod_check_generates,
    xmod_check_nijenhuis,
    xmod_check_trivializing,
    xmod_d1_apply,
    xmod_d2_residual,
    xmod_deform,
    xmod_nijenhuis_deformation,
    xmod_second_cohomology,
)

F = Fraction


def _report(n, budget, started, text):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s) - {text}")


def _random_hochschild(rng, m, arity):
    dim = m.algebra.dim

    def build(depth):
        if depth == 0:
            return tuple(F(rng.randint(-3, 3)) for _ in range(m.dim))
        return tuple(build(depth - 1) for _ in range(dim))

    from assoc2.algebra2 import HochschildCochain

    return HochschildCochain(arity, build(arity))


def test_criterion_01_hochschild_d_squared():
    started = time.monotonic()
    rng = random.Random(101)
    mods = [
        bimodule_fixtures()["point-regular"],
        bimodule_fixtures()["duals-regular"],
        bimodule_fixtures()["ut2-regular"],
    ]
    count = 0
    while count < 100:
        m = mods[count % 3]
        arity = 1 + (count % 2)
        f = _random_hochschild(rng, m, arity)
        assert hochschild_is_zero(hochschild_coboundary(m, hochschild_coboundary(m, f)))
        count += 1
    _report(1, 5, started, "d.d = 0 exactly for 100 random cochains over 3 bimodules")


def _mutants_plus_minus(g):
    """Every single-multiplication-constant mutation of a 1/1 algebra."""
    out = []
    for delta in (F(1), F(-1)):
        out.append(("l2_00", delta, TwoTermAlgebra(g.complex, (((g.l2_00[0][0][0] + delta,),),), g.l2_01, g.l2_10, g.l3)))
        out.append(("l2_01", delta, TwoTermAlgebra(g.complex, g.l2_00, (((g.l2_01[0][0][0] + delta,),),), g.l2_10, g.l3)))
        out.append(("l2_10", delta, TwoTermAlgebra(g.complex, g.l2_00, g.l2_01, (((g.l2_10[0][0][0] + delta,),),), g.l3)))
        out.append(("l3", delta, TwoTermAlgebra(g.complex, g.l2_00, g.l2_01, g.l2_10, ((((g.l3[0][0][0][0] + delta,),),),))))
    return out


def test_criterion_02_axiom_checker_and_mutations():
    started = time.monotonic()
    fixtures = algebra_fixtures()
    for key in ("FIX-Z", "FIX-U", "FIX-D", "FIX-L3", "FIX-2D"):
        assert check_algebra(fixtures[key]).passed, key
    g = fix_u()
    valid_exceptions = {("l2_01", F(-1)), ("l2_10", F(-1))}
    for name, delta, mutant in _mutants_plus_minus(g):
        report = check_algebra(mutant)
        if (name, delta) in valid_exceptions:
            # e.f -> 0 and f.e -> 0 are genuinely valid one-sided-module
            # structures: no axiom can flag them (see the decisions ledger)
            assert report.passed, (name, delta)
        else:
            assert not report.passed, (name, delta)
    _report(
        2,
        5,
        started,
        "fixtures pass; 6/8 single-constant +-1 mutations of FIX-U flagged; "
        "the 2 unflagged mutants proven to satisfy all axioms (a literal "
        "flag-everything claim is unattainable for them)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the -1 mutations e.f->0 and f.e->0 of FIX-U satisfy all axioms "
    "(one-sided modules are valid two-term algebras), so no axiom checker "
    "can report a violation for them",
)
def test_criterion_02_literal_every_pm1_mutation_flagged():
    g = fix_u()
    for name, delta, mutant in _mutants_plus_minus(g):
        assert not check_algebra(mutant).passed, (name, delta)


def test_criterion_03_adjoint_soundness():
    started = time.monotonic()
    for name, g in algebra_fixtures().items():
        assert check_algebra(g).passed, name
        assert check_representation(adjoint_representation(g)).passed, name
    _report(3, 5, started, "adjoint representation passes on every fixture algebra")


def test_criterion_04_complex_property():
    started = time.monotonic()
    for name, g in algebra_fixtures().items():
        mats = assemble_matrices(g, adjoint_representation(g))
        assert (mats.d2 @ mats.d1).is_zero(), name
        triv = trivial_representation(g, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
        mats = assemble_matrices(g, triv)
        assert (mats.d2 @ mats.d1).is_zero(), name
    for name, x in xmod_fixtures().items():
        mats = xmod_assemble_matrices(x, xmod_adjoint(x))
        assert (mats.d2 @ mats.d1).is_zero(), name
    _report(4, 10, started, "d2.d1 = 0 on every fixture with adjoint and trivial coefficients, and the crossed-module analogue")


def test_criterion_05_h2_pinned_values():
    started = time.monotonic()
    g = fix_z()
    triv = trivial_representation(g, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
    res = second_cohomology(g, triv)
    assert (res.dim_z2, res.dim_b2, res.dim_h2) == (5, 0, 5)

    gu = fix_u()
    adj = adjoint_representation(gu)
    res = second_cohomology(gu, adj)
    assert (res.dim_z2, res.dim_b2, res.dim_h2) == brute_h2(gu, adj)

    x = fix_x()
    xadj = xmod_adjoint(x)
    xres = xmod_second_cohomology(x, xadj)
    assert (xres.dim_z2, xres.dim_b2, xres.dim_h2) == brute_xmod_h2(x, xadj)
    _report(
        5,
        10,
        started,
        f"pinned (5,0,5) on the zero fixture; oracle agreement on FIX-U/adjoint "
        f"{(res.dim_z2, res.dim_b2, res.dim_h2)} and FIX-X/adjoint "
        f"{(xres.dim_z2, xres.dim_b2, xres.dim_h2)}",
    )


def test_criterion_06_deformation_iff():
    started = time.monotonic()
    rng = random.Random(106)
    agreements = 0
    trials = 0
    for name, g in algebra_fixtures().items():
        adj = adjoint_representation(g)
        for k in range(50):
            if k < 45:
                c = random_cochain2(rng, g, adj)
            elif k < 48:
                c = d1_apply(g, adj, random_cochain1(rng, g, adj))
            else:
                c = zero_cochain2(g, adj)
            p = PolyStructure(g, c)
            verdict = check_generates(p).generates
            sampled = all(check_algebra(specialize(p, F(lam))).passed for lam in (1, 2, 3))
            assert verdict == sampled, name
            trials += 1
            agreements += 1
    xtrials = 0
    for name, x in xmod_fixtures().items():
        adj = xmod_adjoint(x)
        for k in range(50):
            if k < 45:
                c = random_xcochain2(rng, x, adj)
            elif k < 48:
                n0 = Matrix(((F(rng.randint(-2, 2)),),))
                n1 = Matrix(((F(rng.randint(-2, 2)),),))
                c = xmod_d1_apply(x, adj, XCochain1(n0, n1))
            else:
                from assoc2.xmod import xmod_zero_cochain2

                c = xmod_zero_cochain2(x, adj)
            verdict = xmod_check_generates(x, c).generates
            sampled = all(
                check_crossed_module(xmod_deform(x, c, F(lam))).passed for lam in (1, 2, 3)
            )
            assert verdict == sampled, name
            xtrials += 1
    _report(
        6,
        30,
        started,
        f"criterion/specialization agreement {agreements}/{trials} (two-term) and {xtrials}/{xtrials} (crossed modules)",
    )


def test_criterion_07_nijenhuis():
    started = time.monotonic()
    for name, g in algebra_fixtures().items():
        for cand in (identity_candidate(g), zero_candidate(g)):
            assert check_nijenhuis(g, cand).passed, name
            p = nijenhuis_deformation(g, cand)
            assert check_trivializing(g, p, cand).passed, name
            adj = adjoint_representation(g)
            assert all(v == 0 for v in d2_residual(g, adj, p.first_order)), name
    gd = algebra_fixtures()["FIX-D"]
    bad = NijenhuisCandidate(Matrix.identity(1), Matrix(((F(2),),)), zeros2(1, 1, 1))
    report = check_nijenhuis(gd, bad)
    assert "i" in report.by_condition()
    one = Matrix.identity(1)
    zero = Matrix.zero(1, 1)
    for name, x in xmod_fixtures().items():
        for n0, n1 in ((one, one), (zero, zero)):
            assert xmod_check_nijenhuis(x, n0, n1).passed, name
            c = xmod_nijenhuis_deformation(x, n0, n1)
            assert xmod_check_trivializing(x, c, n0, n1).passed, name
            assert all(v == 0 for v in xmod_d2_residual(x, xmod_adjoint(x), c)), name
    bad = xmod_check_nijenhuis(fix_x_peiffer(), one, Matrix(((F(2),),)))
    assert "i" in bad.by_condition()
    _report(
        7,
        10,
        started,
        "identity/zero candidates pass everywhere, induced deformations trivialize "
        "as polynomial identities with cocycle first-order parts; negative cases fail (i)",
    )


def _cocycle_combinations(g, r, rng, count):
    mats = assemble_matrices(g, r)
    basis = [cochain_complex(g, r).c2.unflatten(v) for v in kernel_basis(mats.d2).basis]
    for _ in range(count):
        c = zero_cochain2(g, r)
        for b in basis:
            c = c + b.scale(F(rng.randint(-3, 3)))
        yield c


def test_criterion_08_extension_round_trip():
    started = time.monotonic()
    rng = random.Random(108)
    gz = fix_z()
    setups = [
        (gz, trivial_representation(gz, TwoTermComplex(1, 1, Matrix.zero(1, 1)))),
        (fix_u(), adjoint_representation(fix_u())),
    ]
    for g, r in setups:
        for c in _cocycle_combinations(g, r, rng, 10):
            e = build_extension(g, r.complex, r, c)
            assert flatten_cochain2(extract_cocycle(e)) == flatten_cochain2(c)
            assert extract_representation(e) == r
    # non-canonical splittings still extract cocycles
    from test_ext2 import _resplit

    g, r = setups[1]
    for c in _cocycle_combinations(g, r, rng, 5):
        e = build_extension(g, r.complex, r, c)
        e2 = _resplit(e, rng)
        c2 = extract_cocycle(e2)
        assert all(v == 0 for v in d2_residual(g, r, c2))
    _report(8, 20, started, "build/extract identity for 20 random cocycles; non-canonical splittings extract cocycles")


def test_criterion_09_classification():
    started = time.monotonic()
    rng = random.Random(109)
    gz = fix_z()
    triv = trivial_representation(gz, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
    gu = fix_u()
    adj = adjoint_representation(gu)
    witnesses = 0
    for g, r in ((gz, triv), (gu, adj)):
        for c in _cocycle_combinations(g, r, rng, 10):
            phi = random_cochain1(rng, g, r)
            e1 = build_extension(g, r.complex, r, c)
            e2 = build_extension(g, r.complex, r, c + d1_apply(g, r, phi))
            w = check_equivalence(e1, e2)
            assert isinstance(w, EquivalenceWitness)
            assert check_homomorphism(w.homomorphism).passed
            witnesses += 1
    assert witnesses == 20
    certified = 0
    dim = 5  # C2 over the zero fixture with trivial coefficients: all cocycles, B2 = 0
    for k in range(10):
        flat1 = [F(0)] * dim
        flat2 = [F(0)] * dim
        flat1[k % dim] = F(1 + k)
        flat2[(k + 1) % dim] = F(2 + k)
        c1 = cochain_complex(gz, triv).c2.unflatten(flat1)
        c2 = cochain_complex(gz, triv).c2.unflatten(flat2)
        e1 = build_extension(gz, triv.complex, triv, c1)
        e2 = build_extension(gz, triv.complex, triv, c2)
        res = check_equivalence(e1, e2)
        assert isinstance(res, Inequivalence)
        certified += 1
    assert certified == 10
    _report(9, 20, started, "20 cohomologous pairs witnessed and verified; 10 distinct-class pairs certified inequivalent")


def test_criterion_10_correspondence_and_semidirect():
    started = time.monotonic()
    for name, g in algebra_fixtures().items():
        if any(v != 0 for plane in g.l3 for row in plane for cell in row for v in cell):
            continue
        x = algebra_to_crossed_module(g)
        assert crossed_module_to_algebra(x) == g, name
    for x in (fix_x(), fix_x_peiffer()):
        g = crossed_module_to_algebra(x)
        back = algebra_to_crossed_module(g)
        assert (back.p_alg, back.h_mod, back.f_map) == (x.p_alg, x.h_mod, x.f_map)
        sd = semidirect_product(x, xmod_adjoint(x))
        assert check_crossed_module(sd).passed
    _report(10, 5, started, "strict correspondence round trips are identities; semidirect products pass the checker")


def test_criterion_11_cli_contract(capsys):
    started = time.monotonic()

    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    good = str(fixture_file("fix_u.json"))
    violating = str(fixture_file("fix_u_bad.json"))
    malformed = str(fixture_file("fix_u_malformed.json"))
    code, out, err = run("check", "algebra", good)
    assert code == 0
    code, out, err = run("check", "algebra", violating)
    assert code == 1 and "f" in out
    code, out, err = run("check", "algebra", malformed)
    assert code == 2 and out == ""

    args = ("--format", "json", "cohomology", good, str(fixture_file("fix_u_adjoint_rep.json")))
    c1, out1, _ = run(*args)
    c2, out2, _ = run(*args)
    assert c1 == c2 == 0 and out1 == out2
    json.loads(out1)
    _report(11, 5, started, "exit codes 0/1/2 on the golden set; machine reports byte-identical across runs")


def test_criterion_12_h2_of_a_3_3_sum_within_budget():
    started = time.monotonic()
    g = direct_sum_algebra(fix_u(), fix_2d())
    res = second_cohomology(g, adjoint_representation(g))
    # tests/brute_oracle.brute_h2 gives (36, 34, 2) on this pair (3.1 s on a
    # 2-vCPU Xeon); the triple is pinned so that the suite does not pay for it
    assert (res.dim_z2, res.dim_b2, res.dim_h2) == (36, 34, 2)
    _report(12, 5, started, "FIX-U + FIX-2D (3/3) with adjoint coefficients: H2 = (36, 34, 2)")


def test_criterion_12_h2_of_a_transported_3_3_sum_within_budget():
    started = time.monotonic()
    g = random_transport(random.Random(1), direct_sum_algebra(fix_u(), fix_2d()))
    res = second_cohomology(g, adjoint_representation(g))
    # H2 is invariant under a change of basis; after a dense one the kernel
    # of d2 (648 x 171) is the bulk of the work
    assert (res.dim_z2, res.dim_b2, res.dim_h2) == (36, 34, 2)
    _report(12, 5, started, "transported FIX-U + FIX-2D (3/3) with adjoint coefficients: H2 = (36, 34, 2)")
