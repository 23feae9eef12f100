"""Command-line front end.

Pure by design: read JSON files, write a report to stdout.  Exit codes:
0 = pass, 1 = checked and failed (violations, inequivalence, not a cocycle,
not a coboundary), 2 = input error (unreadable file, schema violation,
dimension mismatch, work over budget) with nothing on stdout.

Work budget: a command that works on the cochain complex of a pair
(cohomology, cocycle, deform, nijenhuis, ext) first computes the shape of
its d2 from the declared dims alone (``complex_shape`` of the theory), and
refuses the pair when d2 would have more than ``MAX_D2_CELLS`` dense cells,
before any checker or evaluator runs.  A command is refused the same way
when the checkers it runs (a plain ``check``, or those of the pair's base
and representation) would take more loop steps than that bound.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import sys
from fractions import Fraction

from . import algebra2, cohom2, deform2, ext2, fileio, rep2, xmod
from .cochain import Inequivalence, NotAComplex
from .exactlin import format_rational
from .fileio import SchemaError
from .report import CheckReport, PreconditionError
from .tensorops import tflat


# dense cells of d2 a command may take on: transported 5/5 pairs (6000 x
# 1025) and every 6/6 pair pass; a 10/10 pair (143000 x 13100) does not
MAX_D2_CELLS = 30_000_000


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
    where = " with ".join(args.files)
    if what == "algebra":
        g = _load(fileio.load_algebra, args.files[0])
        _checks_within_budget(algebra2.SLOTS, where, _dims(g))
        return _finish(algebra2.check_algebra(g), args)
    if what == "rep":
        g = _load(fileio.load_algebra, args.files[0])
        r = _load(fileio.load_representation, args.files[1], g)
        _checks_within_budget(algebra2.SLOTS, where, _dims(g), _dims(r))
        return _finish(rep2.check_representation(r), args)
    if what == "xmod":
        x = _load(fileio.load_crossed_module, args.files[0])
        _checks_within_budget(xmod.XSLOTS, where, _dims(x))
        return _finish(xmod.check_crossed_module(x), args)
    if what == "xmod-rep":
        x = _load(fileio.load_crossed_module, args.files[0])
        r = _load(fileio.load_xmod_representation, args.files[1], x)
        _checks_within_budget(xmod.XSLOTS, where, _dims(x), _dims(r))
        return _finish(xmod.check_xmod_representation(r), args)
    if what == "hom":
        src = _load(fileio.load_algebra, args.files[0])
        dst = _load(fileio.load_algebra, args.files[1])
        h = _load(fileio.load_homomorphism, args.files[2], src, dst)
        _homomorphism_within_budget(where, _dims(src), dst.dim0, _dims(dst))
        return _finish(algebra2.check_homomorphism(h), args)
    if what == "derivation":
        g = _load(fileio.load_algebra, args.files[0])
        d = _load(fileio.load_derivation, args.files[1], g)
        # after g, as the splitting into g + g shifted by D0: 1 + dim0 nonzeros a column
        _checks_within_budget(algebra2.SLOTS, where, _dims(g))
        _homomorphism_within_budget(where, _dims(g), 1 + g.dim0, _dims(g, g))
        return _finish(cohom2.check_derivation(d), args)
    raise InputError(f"unknown check target {what!r}")


def _refuse_over_budget(where, count, detail) -> None:
    """Refuse work of ``count`` over ``MAX_D2_CELLS``; ``detail`` says what was counted."""
    if count > MAX_D2_CELLS:
        raise InputError(f"{where}: {detail}, more than the {MAX_D2_CELLS} allowed")


def _within_budget(args, where, base, coefficients) -> None:
    """Refuse a pair whose d2 would pass ``MAX_D2_CELLS``; ``base`` and
    ``coefficients`` are the dims of each by degree."""
    c1, c2, rows = args.shape(base, coefficients)
    detail = f"dims {base} with coefficients {coefficients} give one-cochains of dimension {c1} and a d2 of {rows} x {c2}"
    _refuse_over_budget(where, rows * c2, f"{detail} = {rows * c2} dense cells")


def _checks_within_budget(slots, where, base, coefficients=(0, 0)) -> None:
    """Refuse a structure of dims ``base`` and axiom table ``slots``, with a
    representation of dims ``coefficients`` checked after it, when checking
    would take more than ``MAX_D2_CELLS`` loop steps: a residual applies
    the products of the structure it runs in (the semidirect product on
    the tuples with one argument in the representation, ``Tuples``) to at
    most one argument that is not a basis vector, in (dim0 + dim1)^2 steps."""
    total = (base[0] + coefficients[0], base[1] + coefficients[1])
    steps = sum(
        sum(algebra2.Tuples(base, kernel).count(dims, *degrees) for degrees in slots.values()) * sum(dims) ** 2
        for kernel, dims in ((0, base), (1, total))
    )
    _refuse_over_budget(where, steps, f"checking dims {base} with coefficients {coefficients} takes {steps} loop steps")


def _homomorphism_within_budget(where, source, nonzeros, target) -> None:
    """The same for a map whose degree-0 columns have ``nonzeros`` nonzero
    coordinates: on an (iv) tuple, l3 of the target meets k = 1 + nonzeros
    of them in k^2 (dim0 + dim1) steps and adds k^3 values of length dim1."""
    (n0, n1), k = source, 1 + nonzeros
    steps = (n1 + n0 * n0 + 2 * n0 * n1 + n0**3) * k * k * (1 + sum(target) + k * (1 + target[1]))
    _refuse_over_budget(where, steps, f"checking a map from dims {source} to dims {target} takes {steps} loop steps")


def _dims(*structures) -> tuple[int, int]:
    """The dims by degree of a structure, or of the sum of several."""
    return sum(s.dim0 for s in structures), sum(s.dim1 for s in structures)


def _checked_base(args, path):
    """The checked base, within budget for its adjoint coefficients."""
    base = _load(args.load_base, path)
    _within_budget(args, path, _dims(base), _dims(base))
    _checks_within_budget(args.slots, path, _dims(base))
    args.check_base(base).require(f"{args.base_kind} fails its checker")
    return base


def _checked_pair(args, base_path, rep_path):
    base = _load(args.load_base, base_path)
    r = _load(args.load_rep, rep_path, base)
    where = f"{base_path} with {rep_path}"
    _within_budget(args, where, _dims(base), _dims(r))
    _checks_within_budget(args.slots, where, _dims(base), _dims(r))
    args.check_base(base).require(f"{args.base_kind} fails its checker")
    args.check_rep(r).require("representation fails its checker")
    return base, r


def _loaded_extension(args, path):
    """The loaded extension, within budget for the complex of its base and
    kernel and for the check of its total's axioms."""
    e = _load(args.load_extension, path)
    _within_budget(args, path, _dims(e.base), (e.hdim0, e.hdim1))
    _checks_within_budget(args.slots, path, _dims(e.total))
    return e


def _plain_cochain2(path, g, r, message):
    c, theta2 = _load(fileio.load_cochain2, path, g, r)
    if theta2 is not None:
        raise InputError(message)
    return c


def _xmod_cochain2(path, x, r, message):
    c = _load(fileio.load_xmod_cochain, path, x, r)
    if not isinstance(c, xmod.XCochain2):
        raise InputError(message)
    return c


# Every handler below serves both theories: ``main`` adds each theory's
# loaders, checkers, library functions and dumpers to ``args``.

def cmd_cohomology(args) -> int:
    try:
        base, r = _checked_pair(args, args.base, args.rep)
        res = args.h2(base, r)
    except ValueError as exc:
        _emit(_report_doc("fail", numbers={"error": str(exc)}), args.format)
        return 1
    reps = [args.dump2_vector(v, base, r) for v in res.vectors]
    doc = _report_doc(
        "pass",
        numbers={"dim_z2": res.dim_z2, "dim_b2": res.dim_b2, "dim_h2": res.dim_h2},
        witness={"representatives": reps},
    )
    _emit(doc, args.format)
    return 0


def cmd_cocycle(args) -> int:
    base, r = _checked_pair(args, args.base, args.rep)
    c = args.cochain2(args.cochain, base, r, args.not_plain)
    if args.action == "check":
        return _finish(args.cocycle_report(base, r, c), args, verdict_fail="not_cocycle")
    pre = args.reduce(base, r, c)
    if pre is None:
        _emit(_report_doc("not_coboundary"), args.format)
        return 1
    _emit(_report_doc("pass", witness=args.dump1(pre, base, r)), args.format)
    return 0


def cmd_deform(args) -> int:
    base = _checked_base(args, args.base)
    c = args.cochain2(args.cochain, base, args.adjoint(base), args.not_plain)
    verdict = args.generates(base, c)
    doc = _report_doc(
        "pass" if verdict.generates else "fail",
        verdict.cocycle_violations + verdict.standalone_violations,
        numbers={"cocycle_ok": verdict.cocycle_ok, "standalone_ok": verdict.standalone_ok},
        max_violations=args.max_violations,
    )
    _emit(doc, args.format)
    return 0 if verdict.generates else 1


def cmd_nijenhuis(args) -> int:
    base = _checked_base(args, args.base)
    n = _load(fileio.load_nijenhuis, args.candidate, (base.dim0, base.dim1))
    if args.not_plain and any(tflat(n.n2)):
        raise InputError(f"{args.candidate}: {args.not_plain}")
    report = args.check_nijenhuis(base, n)
    if args.action == "check" or not report.passed:
        return _finish(report, args)
    deformation = args.nijenhuis_deformation(base, n)
    trivial = args.check_trivializing(base, deformation, n)
    doc = _report_doc(
        "pass" if trivial.passed else "fail",
        trivial.violations,
        numbers={"trivializing_ok": trivial.passed},
        witness=args.dump_deformation(deformation, base, args.adjoint(base)),
        max_violations=args.max_violations,
    )
    _emit(doc, args.format)
    return 0 if trivial.passed else 1


_EXT_FILES = {
    "build": (3, "takes: {base} rep cochain"),
    "extract": (1, "takes one extension file"),
    "equiv": (2, "takes two extension files"),
}


def cmd_ext(args) -> int:
    count, usage = _EXT_FILES[args.action]
    if len(args.files) != count:
        raise InputError(f"{args.prefix}ext {args.action} " + usage.format(base=args.theory))
    if args.action == "build":
        base, r = _checked_pair(args, *args.files[:2])
        c = args.cochain2(args.files[2], base, r, args.not_plain)
        try:
            e = args.build_extension(base, r, c)
        except ValueError as exc:
            _emit(_report_doc("not_cocycle", numbers={"error": str(exc)}), args.format)
            return 1
        _emit(_report_doc("pass", witness=args.dump_extension(e)), args.format)
        return 0
    if args.action == "extract":
        e = _loaded_extension(args, args.files[0])
        report = args.check_extension(e)
        if not report.passed:
            return _finish(report, args)
        r = args.extract_representation(e)
        c = args.extract_cocycle(e)
        witness = {"representation": args.dump_rep(r), "cocycle": args.dump2(c, e.base, r)}
        _emit(_report_doc("pass", witness=witness), args.format)
        return 0
    e1 = _loaded_extension(args, args.files[0])
    e2 = _loaded_extension(args, args.files[1])
    if e2.base == e1.base:
        e2 = dataclasses.replace(e2, base=e1.base)  # one base object, checked once
    for e in (e1, e2):
        report = args.check_extension(e)
        if not report.passed:
            return _finish(report, args)
    try:
        res = args.equivalence(e1, e2)
    except NotAComplex:
        raise  # a domain failure of the base pair, reported like `cohomology`
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if isinstance(res, Inequivalence):
        doc = _report_doc(
            "inequivalent",
            numbers={"rank_d1": res.rank_d1, "rank_augmented": res.rank_augmented},
        )
        _emit(doc, args.format)
        return 1
    # the witness one-cochain, in the representation both extensions induce
    witness = args.dump1(res.primitive, e1.base, res.representation)
    _emit(_report_doc("pass", witness=witness), args.format)
    return 0


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

def _theories() -> dict:
    """Each theory's side of the shared handlers: its loaders, checkers,
    library functions and dumpers, looked up on every call so that
    replaced module attributes are honoured."""
    algebra = dict(
        prefix="",
        base_kind="algebra",
        load_base=fileio.load_algebra,
        shape=cohom2.complex_shape,
        slots=algebra2.SLOTS,
        check_base=algebra2.check_algebra,
        load_rep=fileio.load_representation,
        check_rep=rep2.check_representation,
        adjoint=rep2.adjoint_representation,
        cochain2=_plain_cochain2,
        dump_rep=fileio.dump_representation,
        dump1=fileio.dump_cochain1,
        dump2=fileio.dump_cochain2,
        dump2_vector=fileio.dump_cochain2_vector,
        h2=cohom2.second_cohomology,
        cocycle_report=cohom2.cocycle_report,
        reduce=cohom2.is_coboundary,
        generates=lambda g, c: deform2.check_generates(deform2.PolyStructure(g, c)),
        check_nijenhuis=deform2.check_nijenhuis,
        nijenhuis_deformation=deform2.nijenhuis_deformation,
        check_trivializing=deform2.check_trivializing,
        dump_deformation=lambda p, g, adj: fileio.dump_cochain2(p.first_order, g, adj, theta2=p.second_order_l3),
        build_extension=lambda g, r, c: ext2.build_extension(g, r.complex, r, c),
        load_extension=fileio.load_extension,
        check_extension=ext2.check_extension,
        extract_representation=ext2.extract_representation,
        extract_cocycle=ext2.extract_cocycle,
        equivalence=ext2.check_equivalence,
        dump_extension=fileio.dump_extension,
    )
    crossed = dict(
        prefix="xmod ",
        base_kind="crossed module",
        load_base=fileio.load_crossed_module,
        shape=xmod.xmod_complex_shape,
        slots=xmod.XSLOTS,
        check_base=xmod.check_crossed_module,
        load_rep=fileio.load_xmod_representation,
        check_rep=xmod.check_xmod_representation,
        adjoint=xmod.xmod_adjoint,
        cochain2=_xmod_cochain2,
        dump_rep=fileio.dump_xmod_representation,
        dump1=fileio.dump_xmod_cochain1,
        dump2=fileio.dump_xmod_cochain2,
        dump2_vector=fileio.dump_xmod_cochain2_vector,
        h2=xmod.xmod_second_cohomology,
        cocycle_report=xmod.xmod_cocycle_report,
        reduce=xmod.xmod_is_coboundary,
        generates=xmod.xmod_check_generates,
        check_nijenhuis=lambda x, n: xmod.xmod_check_nijenhuis(x, n.n0, n.n1),
        nijenhuis_deformation=lambda x, n: xmod.xmod_nijenhuis_deformation(x, n.n0, n.n1),
        check_trivializing=lambda x, c, n: xmod.xmod_check_trivializing(x, c, n.n0, n.n1),
        dump_deformation=fileio.dump_xmod_cochain2,
        build_extension=xmod.xmod_build_extension,
        load_extension=fileio.load_xmod_extension,
        check_extension=xmod.check_xmod_extension,
        extract_representation=xmod.xmod_extract_representation,
        extract_cocycle=xmod.xmod_extract_cocycle,
        equivalence=xmod.xmod_check_equivalence,
        dump_extension=fileio.dump_xmod_extension,
    )
    return {"algebra": algebra, "xmod": crossed}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  A theory's commands carry its name as the
    default ``theory``; ``main`` adds the theory's handlers (``_theories``)."""
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

    def add_theory(subs, theory, helps, not_plain):
        """The commands of the theory named ``theory`` (also the metavar of
        their base argument); ``not_plain`` is each command's message for a
        cochain file that is not a plain two-cochain, or for a Nijenhuis
        candidate with a degree-2 part the theory has no room for."""

        def add_parser(name):
            return subs.add_parser(name, **({"help": helps[name]} if name in helps else {}))

        base = dict(metavar=theory)
        p = add_parser("cohomology")
        p.add_argument("base", **base)
        p.add_argument("rep")
        p.set_defaults(func=cmd_cohomology, theory=theory)

        p = add_parser("cocycle")
        p.add_argument("action", choices=("check", "reduce"))
        p.add_argument("base", **base)
        p.add_argument("rep")
        p.add_argument("cochain")
        p.set_defaults(func=cmd_cocycle, not_plain=not_plain["cocycle"], theory=theory)

        p = add_parser("deform")
        p.add_argument("action", choices=("check",))
        p.add_argument("base", **base)
        p.add_argument("cochain")
        p.set_defaults(func=cmd_deform, not_plain=not_plain["deform"], theory=theory)

        p = add_parser("nijenhuis")
        p.add_argument("action", choices=("check", "apply"))
        p.add_argument("base", **base)
        p.add_argument("candidate")
        p.set_defaults(func=cmd_nijenhuis, not_plain=not_plain.get("nijenhuis"), theory=theory)

        p = add_parser("ext")
        p.add_argument("action", choices=("build", "extract", "equiv"))
        p.add_argument("files", nargs="+")
        p.set_defaults(func=cmd_ext, not_plain=not_plain["ext"], theory=theory)

    add_theory(
        sub,
        "algebra",
        {
            "cohomology": "second cohomology of an algebra with coefficients",
            "cocycle": "cocycle membership and coboundary reduction",
            "deform": "deformation generation criterion",
            "nijenhuis": "Nijenhuis operators and induced deformations",
            "ext": "abelian extensions",
        },
        {
            "cocycle": "cocycle commands take a plain two-cochain (no theta2)",
            "deform": "the generation criterion applies to first-order deformations",
            "ext": "extension build takes a plain two-cocycle",
        },
    )
    px = sub.add_parser("xmod", help="crossed-module mirror of the graded commands")
    xsub = px.add_subparsers(dest="xcommand", required=True)
    not_plain = dict.fromkeys(("cocycle", "deform", "ext"), "expected a degree-2 cochain")
    not_plain["nijenhuis"] = "a crossed-module Nijenhuis pair has no degree-2 part, so n2 must be zero"
    add_theory(xsub, "xmod", {}, not_plain)

    p = sub.add_parser("endalg", help="endomorphism algebra of a two-term complex")
    p.add_argument("action", choices=("build",))
    p.add_argument("complex")
    p.set_defaults(func=cmd_endalg)

    p = sub.add_parser("selftest", help="randomized property sweep (uses --seed)")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call of the process
    and reused: parsing leaves a parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.max_violations is not None and args.max_violations < 0:
        parser.error(f"argument --max-violations: N must be at least 0, got {args.max_violations}")
    if hasattr(args, "theory"):
        vars(args).update(_theories()[args.theory])
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
