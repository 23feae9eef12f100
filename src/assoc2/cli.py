"""Command-line front end.

Pure by design: read JSON files, write a report to stdout.  Exit codes:
0 = pass, 1 = checked and failed (violations, inequivalence, not a cocycle,
not a coboundary), 2 = input error (unreadable file, schema violation,
dimension mismatch) with nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import algebra2, cohom2, deform2, ext2, fileio, rep2, xmod
from .cochain import Inequivalence, NotAComplex
from .exactlin import format_rational
from .fileio import SchemaError
from .report import CheckReport, PreconditionError


class InputError(Exception):
    pass


def _read(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from None
    try:
        return fileio.parse_document(text)
    except SchemaError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load(loader, path, *args):
    try:
        return loader(_read(path), *args)
    except SchemaError as exc:
        raise InputError(f"{path}: {exc}") from None


def _fmt_value(v) -> list:
    out = []
    for x in v:
        out.append(format_rational(x) if isinstance(x, Fraction) else str(x))
    return out


def _report_doc(verdict: str, violations=None, numbers=None, witness=None, max_violations=None):
    doc = {"format_version": "1", "verdict": verdict, "violations": []}
    violations = list(violations or [])
    if max_violations is not None and len(violations) > max_violations:
        doc["truncated"] = True
        doc["total_violations"] = len(violations)
        violations = violations[:max_violations]
    for v in violations:
        doc["violations"].append(
            {
                "condition_id": v.condition,
                "basis_tuple": list(v.where),
                "lhs_value": _fmt_value(v.lhs),
                "rhs_value": _fmt_value(v.rhs),
            }
        )
    if numbers is not None:
        doc["numbers"] = numbers
    if witness is not None:
        doc["witness"] = witness
    return doc


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return
    print(f"verdict: {doc['verdict']}")
    if doc.get("numbers"):
        for k, v in sorted(doc["numbers"].items()):
            print(f"  {k} = {v}")
    if doc.get("truncated"):
        print(f"  (showing {len(doc['violations'])} of {doc['total_violations']} violations)")
    for v in doc["violations"]:
        print(
            f"  {v['condition_id']} at {tuple(v['basis_tuple'])}: "
            f"{v['lhs_value']} != {v['rhs_value']}"
        )
    if doc.get("witness") is not None:
        print("  witness: " + json.dumps(doc["witness"], sort_keys=True))


def _finish(report: CheckReport, args, verdict_fail="fail", numbers=None, witness=None) -> int:
    ok = report.passed
    doc = _report_doc(
        "pass" if ok else verdict_fail,
        report.violations,
        numbers=numbers,
        witness=witness,
        max_violations=args.max_violations,
    )
    _emit(doc, args.format)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# check subcommands
# ---------------------------------------------------------------------------

_CHECK_ARITY = {"algebra": 1, "rep": 2, "xmod": 1, "xmod-rep": 2, "hom": 3, "derivation": 2}


def cmd_check(args) -> int:
    what = args.what
    if len(args.files) != _CHECK_ARITY[what]:
        raise InputError(f"check {what} takes {_CHECK_ARITY[what]} file argument(s)")
    if what == "algebra":
        g = _load(fileio.load_algebra, args.files[0])
        return _finish(algebra2.check_algebra(g), args)
    if what == "rep":
        g = _load(fileio.load_algebra, args.files[0])
        r = _load(fileio.load_representation, args.files[1], g)
        return _finish(rep2.check_representation(r), args)
    if what == "xmod":
        x = _load(fileio.load_crossed_module, args.files[0])
        return _finish(xmod.check_crossed_module(x), args)
    if what == "xmod-rep":
        x = _load(fileio.load_crossed_module, args.files[0])
        r = _load(fileio.load_xmod_representation, args.files[1], x)
        return _finish(xmod.check_xmod_representation(r), args)
    if what == "hom":
        src = _load(fileio.load_algebra, args.files[0])
        dst = _load(fileio.load_algebra, args.files[1])
        h = _load(fileio.load_homomorphism, args.files[2], src, dst)
        return _finish(algebra2.check_homomorphism(h), args)
    if what == "derivation":
        g = _load(fileio.load_algebra, args.files[0])
        d = _load(fileio.load_derivation, args.files[1], g)
        return _finish(algebra2.check_derivation(d), args)
    raise InputError(f"unknown check target {what!r}")


def _checked_pair(args):
    g = _load(fileio.load_algebra, args.algebra)
    algebra2.check_algebra(g).require("algebra fails its checker")
    r = _load(fileio.load_representation, args.rep, g)
    rep2.check_representation(r).require("representation fails its checker")
    return g, r


def cmd_cohomology(args) -> int:
    """Either theory: ``args.pair`` loads and checks the pair, ``args.h2``
    computes its cohomology and ``args.dump2`` writes a two-cochain."""
    try:
        base, r = args.pair(args)
        res = args.h2(base, r)
    except ValueError as exc:
        _emit(_report_doc("fail", numbers={"error": str(exc)}), args.format)
        return 1
    reps = [args.dump2(c, base, r) for c in res.representatives]
    doc = _report_doc(
        "pass",
        numbers={"dim_z2": res.dim_z2, "dim_b2": res.dim_b2, "dim_h2": res.dim_h2},
        witness={"representatives": reps},
    )
    _emit(doc, args.format)
    return 0


def cmd_cocycle(args) -> int:
    g, r = _checked_pair(args)
    c, theta2 = _load(fileio.load_cochain2, args.cochain, g, r)
    if theta2 is not None:
        raise InputError("cocycle commands take a plain two-cochain (no theta2)")
    if args.action == "check":
        return _finish(cohom2.cocycle_report(g, r, c), args, verdict_fail="not_cocycle")
    pre = cohom2.is_coboundary(g, r, c)
    if pre is None:
        _emit(_report_doc("not_coboundary"), args.format)
        return 1
    _emit(_report_doc("pass", witness=fileio.dump_cochain1(pre, g, r)), args.format)
    return 0


def cmd_deform(args) -> int:
    g = _load(fileio.load_algebra, args.algebra)
    algebra2.check_algebra(g).require("algebra fails its checker")
    adj = rep2.adjoint_representation(g)
    c, theta2 = _load(fileio.load_cochain2, args.cochain, g, adj)
    if theta2 is not None:
        raise InputError("the generation criterion applies to first-order deformations")
    verdict = deform2.check_generates(deform2.PolyStructure(g, c))
    doc = _report_doc(
        "pass" if verdict.generates else "fail",
        verdict.cocycle_violations + verdict.standalone_violations,
        numbers={
            "cocycle_ok": verdict.cocycle_ok,
            "standalone_ok": verdict.standalone_ok,
        },
        max_violations=args.max_violations,
    )
    _emit(doc, args.format)
    return 0 if verdict.generates else 1


def cmd_nijenhuis(args) -> int:
    g = _load(fileio.load_algebra, args.algebra)
    algebra2.check_algebra(g).require("algebra fails its checker")
    n = _load(fileio.load_nijenhuis, args.candidate, (g.dim0, g.dim1))
    report = deform2.check_nijenhuis(g, n)
    if args.action == "check":
        return _finish(report, args)
    if not report.passed:
        return _finish(report, args)
    p = deform2.nijenhuis_deformation(g, n)
    trivial = deform2.check_trivializing(g, p, n)
    adj = rep2.adjoint_representation(g)
    doc = _report_doc(
        "pass" if trivial.passed else "fail",
        trivial.violations,
        numbers={"trivializing_ok": trivial.passed},
        witness=fileio.dump_cochain2(p.first_order, g, adj, theta2=p.second_order_l3),
        max_violations=args.max_violations,
    )
    _emit(doc, args.format)
    return 0 if trivial.passed else 1


def cmd_ext(args) -> int:
    if args.action == "build":
        g, r = _checked_pair(args)
        c, theta2 = _load(fileio.load_cochain2, args.cochain, g, r)
        if theta2 is not None:
            raise InputError("extension build takes a plain two-cocycle")
        try:
            e = ext2.build_extension(g, r.complex, r, c)
        except ValueError as exc:
            _emit(_report_doc("not_cocycle", numbers={"error": str(exc)}), args.format)
            return 1
        _emit(_report_doc("pass", witness=fileio.dump_extension(e)), args.format)
        return 0
    if args.action == "extract":
        e = _load(fileio.load_extension, args.files[0])
        report = ext2.check_extension(e)
        if not report.passed:
            return _finish(report, args)
        r = ext2.extract_representation(e)
        c = ext2.extract_cocycle(e)
        doc = _report_doc(
            "pass",
            witness={
                "representation": fileio.dump_representation(r),
                "cocycle": fileio.dump_cochain2(c, e.base, r),
            },
        )
        _emit(doc, args.format)
        return 0
    e1 = _load(fileio.load_extension, args.files[0])
    e2 = _load(fileio.load_extension, args.files[1])
    try:
        res = ext2.check_equivalence(e1, e2)
    except NotAComplex:
        raise  # a domain failure of the base pair, reported like `cohomology`
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return _report_equivalence(args, res, e1, ext2.extract_representation, fileio.dump_cochain1)


def _report_equivalence(args, res, e1, extract_rep, dump1) -> int:
    """The ext equiv report of either theory: the rank certificate, or the
    witness one-cochain in the representation induced by ``e1``."""
    if isinstance(res, Inequivalence):
        doc = _report_doc(
            "inequivalent",
            numbers={"rank_d1": res.rank_d1, "rank_augmented": res.rank_augmented},
        )
        _emit(doc, args.format)
        return 1
    _emit(_report_doc("pass", witness=dump1(res.primitive, e1.base, extract_rep(e1))), args.format)
    return 0


# ---------------------------------------------------------------------------
# crossed-module mirror
# ---------------------------------------------------------------------------

def _checked_xpair(args):
    x = _load(fileio.load_crossed_module, args.xmod)
    xmod.check_crossed_module(x).require("crossed module fails its checker")
    r = _load(fileio.load_xmod_representation, args.rep, x)
    xmod.check_xmod_representation(r).require("representation fails its checker")
    return x, r


def cmd_xmod_cocycle(args) -> int:
    x, r = _checked_xpair(args)
    c = _load(fileio.load_xmod_cochain, args.cochain, x, r)
    if not isinstance(c, xmod.XCochain2):
        raise InputError("expected a degree-2 cochain")
    if args.action == "check":
        return _finish(xmod.xmod_cocycle_report(x, r, c), args, verdict_fail="not_cocycle")
    pre = xmod.xmod_is_coboundary(x, r, c)
    if pre is None:
        _emit(_report_doc("not_coboundary"), args.format)
        return 1
    _emit(_report_doc("pass", witness=fileio.dump_xmod_cochain1(pre, x, r)), args.format)
    return 0


def cmd_xmod_deform(args) -> int:
    x = _load(fileio.load_crossed_module, args.xmod)
    xmod.check_crossed_module(x).require("crossed module fails its checker")
    adj = xmod.xmod_adjoint(x)
    c = _load(fileio.load_xmod_cochain, args.cochain, x, adj)
    if not isinstance(c, xmod.XCochain2):
        raise InputError("expected a degree-2 cochain")
    verdict = xmod.xmod_check_generates(x, c)
    doc = _report_doc(
        "pass" if verdict.generates else "fail",
        verdict.cocycle_violations + verdict.standalone_violations,
        numbers={"cocycle_ok": verdict.cocycle_ok, "standalone_ok": verdict.standalone_ok},
        max_violations=args.max_violations,
    )
    _emit(doc, args.format)
    return 0 if verdict.generates else 1


def cmd_xmod_nijenhuis(args) -> int:
    x = _load(fileio.load_crossed_module, args.xmod)
    xmod.check_crossed_module(x).require("crossed module fails its checker")
    n = _load(fileio.load_nijenhuis, args.candidate, (x.pdim, x.hdim))
    report = xmod.xmod_check_nijenhuis(x, n.n0, n.n1)
    if args.action == "check" or not report.passed:
        return _finish(report, args)
    c = xmod.xmod_nijenhuis_deformation(x, n.n0, n.n1)
    trivial = xmod.xmod_check_trivializing(x, c, n.n0, n.n1)
    adj = xmod.xmod_adjoint(x)
    doc = _report_doc(
        "pass" if trivial.passed else "fail",
        trivial.violations,
        numbers={"trivializing_ok": trivial.passed},
        witness=fileio.dump_xmod_cochain2(c, x, adj),
        max_violations=args.max_violations,
    )
    _emit(doc, args.format)
    return 0 if trivial.passed else 1


def cmd_xmod_ext(args) -> int:
    if args.action == "build":
        x, r = _checked_xpair(args)
        c = _load(fileio.load_xmod_cochain, args.cochain, x, r)
        if not isinstance(c, xmod.XCochain2):
            raise InputError("expected a degree-2 cochain")
        try:
            e = xmod.xmod_build_extension(x, r, c)
        except ValueError as exc:
            _emit(_report_doc("not_cocycle", numbers={"error": str(exc)}), args.format)
            return 1
        _emit(_report_doc("pass", witness=fileio.dump_xmod_extension(e)), args.format)
        return 0
    if args.action == "extract":
        e = _load(fileio.load_xmod_extension, args.files[0])
        report = xmod.check_xmod_extension(e)
        if not report.passed:
            return _finish(report, args)
        r = xmod.xmod_extract_representation(e)
        c = xmod.xmod_extract_cocycle(e)
        doc = _report_doc(
            "pass",
            witness={
                "representation": fileio.dump_xmod_representation(r),
                "cocycle": fileio.dump_xmod_cochain2(c, e.base, r),
            },
        )
        _emit(doc, args.format)
        return 0
    e1 = _load(fileio.load_xmod_extension, args.files[0])
    e2 = _load(fileio.load_xmod_extension, args.files[1])
    try:
        res = xmod.xmod_check_equivalence(e1, e2)
    except NotAComplex:
        raise  # a domain failure of the base pair, reported like `cohomology`
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return _report_equivalence(args, res, e1, xmod.xmod_extract_representation, fileio.dump_xmod_cochain1)


def cmd_endalg(args) -> int:
    v = _load(fileio.load_complex, args.complex)
    g = algebra2.build_end_algebra(v)
    _emit(_report_doc("pass", witness=fileio.dump_algebra(g)), args.format)
    return 0


# ---------------------------------------------------------------------------
# randomized self-test (the one consumer of --seed)
# ---------------------------------------------------------------------------

def cmd_selftest(args) -> int:
    from .fixtures import algebra_fixtures, xmod_fixtures
    from .sampling import random_cochain2, random_transport

    rng = random.Random(args.seed)
    lines = []
    ok = True

    def record(name, passed):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}")

    fixtures = algebra_fixtures()
    for name, g in fixtures.items():
        try:
            cohom2.assemble_matrices(g, rep2.adjoint_representation(g))
            record(f"complex property on {name} (adjoint)", True)
        except ValueError:
            record(f"complex property on {name} (adjoint)", False)
    for k in range(args.trials):
        base = rng.choice([fixtures["FIX-U"], fixtures["FIX-M"], fixtures["FIX-W"], fixtures["FIX-2D"]])
        g = random_transport(rng, base)
        passed = algebra2.check_algebra(g).passed
        if passed:
            try:
                cohom2.assemble_matrices(g, rep2.adjoint_representation(g))
            except ValueError:
                passed = False
        record(f"complex property on transported sample {k}", passed)
    for k in range(args.trials):
        g = rng.choice([fixtures["FIX-U"], fixtures["FIX-L3"], fixtures["FIX-M"]])
        adj = rep2.adjoint_representation(g)
        c = random_cochain2(rng, g, adj)
        p = deform2.PolyStructure(g, c)
        verdict = deform2.check_generates(p).generates
        sampled = all(
            algebra2.check_algebra(deform2.specialize(p, Fraction(lam))).passed for lam in (1, 2, 3)
        )
        record(f"deformation criterion agreement sample {k}", verdict == sampled)
    for name, x in xmod_fixtures().items():
        try:
            xmod.xmod_assemble_matrices(x, xmod.xmod_adjoint(x))
            record(f"complex property on {name} (adjoint)", True)
        except ValueError:
            record(f"complex property on {name} (adjoint)", False)
    for line in lines:
        print(line)
    print(("all checks passed" if ok else "SELF-TEST FAILED") + f" (seed={args.seed})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assoc2",
        description="exact-arithmetic workbench for two-term homotopy associative algebras and crossed modules",
    )
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized property commands")
    parser.add_argument("--max-violations", type=int, default=None, metavar="N")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run an axiom checker")
    p.add_argument("what", choices=("algebra", "rep", "xmod", "xmod-rep", "hom", "derivation"))
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cohomology", help="second cohomology of an algebra with coefficients")
    p.add_argument("algebra")
    p.add_argument("rep")
    p.set_defaults(func=cmd_cohomology, pair=_checked_pair, h2=cohom2.second_cohomology, dump2=fileio.dump_cochain2)

    p = sub.add_parser("cocycle", help="cocycle membership and coboundary reduction")
    p.add_argument("action", choices=("check", "reduce"))
    p.add_argument("algebra")
    p.add_argument("rep")
    p.add_argument("cochain")
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("deform", help="deformation generation criterion")
    p.add_argument("action", choices=("check",))
    p.add_argument("algebra")
    p.add_argument("cochain")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("nijenhuis", help="Nijenhuis operators and induced deformations")
    p.add_argument("action", choices=("check", "apply"))
    p.add_argument("algebra")
    p.add_argument("candidate")
    p.set_defaults(func=cmd_nijenhuis)

    p = sub.add_parser("ext", help="abelian extensions")
    p.add_argument("action", choices=("build", "extract", "equiv"))
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_dispatch_ext)

    px = sub.add_parser("xmod", help="crossed-module mirror of the graded commands")
    xsub = px.add_subparsers(dest="xcommand", required=True)

    p = xsub.add_parser("cohomology")
    p.add_argument("xmod")
    p.add_argument("rep")
    p.set_defaults(
        func=cmd_cohomology, pair=_checked_xpair, h2=xmod.xmod_second_cohomology, dump2=fileio.dump_xmod_cochain2
    )

    p = xsub.add_parser("cocycle")
    p.add_argument("action", choices=("check", "reduce"))
    p.add_argument("xmod")
    p.add_argument("rep")
    p.add_argument("cochain")
    p.set_defaults(func=cmd_xmod_cocycle)

    p = xsub.add_parser("deform")
    p.add_argument("action", choices=("check",))
    p.add_argument("xmod")
    p.add_argument("cochain")
    p.set_defaults(func=cmd_xmod_deform)

    p = xsub.add_parser("nijenhuis")
    p.add_argument("action", choices=("check", "apply"))
    p.add_argument("xmod")
    p.add_argument("candidate")
    p.set_defaults(func=cmd_xmod_nijenhuis)

    p = xsub.add_parser("ext")
    p.add_argument("action", choices=("build", "extract", "equiv"))
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_dispatch_xext)

    p = sub.add_parser("endalg", help="endomorphism algebra of a two-term complex")
    p.add_argument("action", choices=("build",))
    p.add_argument("complex")
    p.set_defaults(func=cmd_endalg)

    p = sub.add_parser("selftest", help="randomized property sweep (uses --seed)")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_selftest)

    return parser


def _dispatch_ext(args) -> int:
    if args.action == "build":
        if len(args.files) != 3:
            raise InputError("ext build takes: algebra rep cochain")
        args.algebra, args.rep, args.cochain = args.files
    elif args.action == "extract":
        if len(args.files) != 1:
            raise InputError("ext extract takes one extension file")
    else:
        if len(args.files) != 2:
            raise InputError("ext equiv takes two extension files")
    return cmd_ext(args)


def _dispatch_xext(args) -> int:
    if args.action == "build":
        if len(args.files) != 3:
            raise InputError("xmod ext build takes: xmod rep cochain")
        args.xmod, args.rep, args.cochain = args.files
    elif args.action == "extract":
        if len(args.files) != 1:
            raise InputError("xmod ext extract takes one extension file")
    else:
        if len(args.files) != 2:
            raise InputError("xmod ext equiv takes two extension files")
    return cmd_xmod_ext(args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        # preconditions failed on well-formed input: report and exit 1
        report = exc.report or CheckReport()
        doc = _report_doc(
            "fail",
            report.violations,
            numbers={"error": str(exc)},
            max_violations=args.max_violations,
        )
        _emit(doc, args.format)
        return 1
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # remaining domain failures on well-formed input (e.g. a pair on
        # which the displayed equations do not form a complex)
        _emit(_report_doc("fail", numbers={"error": str(exc)}), args.format)
        return 1


if __name__ == "__main__":
    sys.exit(main())
