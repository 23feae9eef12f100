"""CLI reports pinned byte for byte, and how often each structure is checked.

The golden tests run the README's command examples on the shipped fixtures
(plus the cochain, homomorphism, derivation and extension files they need,
written here) and a set of corrupted inputs through ``assoc2.cli.main``, in
json and human form, and compare exit code, stdout and stderr (with the
file paths replaced by placeholders) with the stored reports in
``tests/golden/``.  Regenerate them on purpose, after a change
that is meant to alter a report, with

    PYTHONPATH=src python tests/test_cli_reports.py

``representations.json`` pins the full ``check rep`` and ``check xmod-rep``
reports on seeded corruptions of representations of direct sums, each
condition label at some kernel index above 0.

``documents.json`` pins the bytes ``fileio.dumps`` writes for every dumper,
on seeded structures whose dimensions all differ, and the exact
``SchemaError`` text each loader gives on a fixed list of malformed
variants of a valid document.

The counting test wraps the residual generators behind every checker and
asserts that each command evaluates each loaded structure's axioms once,
and counts how often ``ext equiv`` extracts an induced representation and
evaluates a splitting to extract a cocycle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from assoc2 import algebra2, cli, cohom2, ext2, fileio, rep2, xmod
from assoc2.algebra2 import (
    AssocAlgebra,
    Bimodule,
    Homomorphism2,
    TwoTermAlgebra,
    TwoTermComplex,
    identity_homomorphism,
)
from assoc2.cohom2 import Cochain1, Cochain2
from assoc2.deform2 import NijenhuisCandidate
from assoc2.exactlin import Matrix
from assoc2.fixtures import direct_sum_algebra, fix_2d, fix_d, fix_l3, fix_m, fix_u, fix_w, fix_x, fixture_file
from assoc2.rep2 import Representation2
from assoc2.sampling import random_cochain1, random_transport, random_xcochain2

GOLDEN = Path(__file__).parent / "golden"


def _fx(name):
    return str(fixture_file(name))


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _write(tmp: Path, name: str, doc: dict) -> str:
    path = tmp / f"{name}.json"
    path.write_text(fileio.dumps(doc), encoding="utf-8")
    return str(path)


def _edit(doc: dict, tensor: str, indices: list, delta: str = "1") -> dict:
    """A copy of ``doc`` with ``delta`` added to one tensor entry."""
    doc = json.loads(json.dumps(doc))
    entries = doc["tensors"].setdefault(tensor, [])
    for entry in entries:
        if entry["indices"] == indices:
            entry["value"] = str(fileio.parse_rational(entry["value"]) + fileio.parse_rational(delta))
            return doc
    entries.append({"indices": indices, "value": delta})
    return doc


class _Runner:
    """Runs named cases in both formats and records exit code, stdout and
    stderr, the files of ``tmp`` and the fixtures shown by placeholders."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.results: dict[str, list] = {}

    def __call__(self, name, *argv, formats=("json", "human")):
        for fmt in formats:
            code, out, err = _invoke(["--format", fmt, *argv])
            err = err.replace(str(self.tmp), "<tmp>").replace(str(Path(_fx("fix_u.json")).parent), "<fixtures>")
            self.results[f"{name} [{fmt}]"] = [code, out, err]

    def witness(self, name, *argv):
        """Run a command whose json witness is a document; store it as a file."""
        self(name, *argv)
        code, out, _ = _invoke(["--format", "json", *argv])
        return _write(self.tmp, name.replace(" ", "_"), json.loads(out)["witness"]) if code == 0 else None


def _two_term_inputs(tmp: Path):
    """FIX-U, its adjoint representation, and cochains: an H2 class, the
    same class moved by a coboundary, a coboundary and a non-cocycle."""
    g = fix_u()
    r = rep2.adjoint_representation(g)
    h2 = cohom2.second_cohomology(g, r).representatives[0]
    cob = cohom2.d1_apply(g, r, random_cochain1(random.Random(1), g, r))
    zero = cohom2.zero_cochain2(g, r)
    broken = type(zero)(zero.psi, zero.omega, zero.mu, zero.nu, ((((Fraction(1),),),),))  # theta alone
    cochains = {"h2": h2, "h2+cob": h2 + cob, "cob": cob, "zero": zero, "not-cocycle": broken}
    return {k: _write(tmp, f"c2_{k}", fileio.dump_cochain2(c, g, r)) for k, c in cochains.items()}


def _xmod_inputs(tmp: Path):
    """FIX-X, its adjoint representation, and cochains as above, with a
    seeded random cochain in place of the non-cocycle."""
    x = fix_x()
    r = xmod.xmod_adjoint(x)
    h2 = xmod.xmod_second_cohomology(x, r).representatives[0]
    cob = xmod.xmod_d1_apply(x, r, xmod.XCochain1(Matrix(((Fraction(2),),), 1), Matrix(((Fraction(-1, 3),),), 1)))
    zero = xmod.xmod_zero_cochain2(x, r)
    cochains = {"h2": h2, "h2+cob": h2 + cob, "cob": cob, "zero": zero, "random": random_xcochain2(random.Random(2), x, r)}
    return {k: _write(tmp, f"xc2_{k}", fileio.dump_xmod_cochain2(c, x, r)) for k, c in cochains.items()}


def readme_reports(tmp: Path) -> dict:
    run = _Runner(tmp)
    u, urep, x, xrep = _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json"), _fx("fix_x.json"), _fx("fix_x_adjoint_rep.json")
    for name in ("fix_u", "fix_u_bad", "fix_u_malformed", "fix_2d"):
        run(f"check algebra {name}", "check", "algebra", _fx(f"{name}.json"))
    run("check rep", "check", "rep", u, urep)
    for name in ("fix_x", "fix_x_peiffer", "fix_x_zero"):
        run(f"check xmod {name}", "check", "xmod", _fx(f"{name}.json"))
    run("check xmod-rep", "check", "xmod-rep", x, xrep)
    hom = _write(tmp, "hom", fileio.dump_homomorphism(identity_homomorphism(fix_u())))
    run("check hom", "check", "hom", u, u, hom)
    run("check hom scaled", "check", "hom", u, u, _write(tmp, "hom2", _edit(json.loads(Path(hom).read_text()), "f0", [0, 0])))
    for name, entries in (("zero", []), ("identity", [{"indices": [0, 0], "value": "1"}])):
        der = {"format_version": "1", "kind": "derivation2", "dims": {"dim0": 1, "dim1": 1},
               "tensors": {"d0": entries, "d1": entries}}
        run(f"check derivation {name}", "check", "derivation", u, _write(tmp, f"der_{name}", der))

    run("cohomology", "cohomology", u, urep)
    run("cohomology fix_z", "cohomology", _fx("fix_z.json"), _fx("trivial_rep_1_1.json"))
    c2 = _two_term_inputs(tmp)
    for k, path in c2.items():
        run(f"cocycle check {k}", "cocycle", "check", u, urep, path)
        run(f"cocycle reduce {k}", "cocycle", "reduce", u, urep, path)
        run(f"deform check {k}", "deform", "check", u, path)
    run("nijenhuis check", "nijenhuis", "check", u, _fx("fix_u_nijenhuis_id.json"))
    run("nijenhuis apply", "nijenhuis", "apply", u, _fx("fix_u_nijenhuis_id.json"))
    exts = {k: run.witness(f"ext build {k}", "ext", "build", u, urep, path) for k, path in c2.items()}
    for k in ("h2", "h2+cob", "zero"):
        run(f"ext extract {k}", "ext", "extract", exts[k])
    run("ext equiv h2 h2+cob", "ext", "equiv", exts["h2"], exts["h2+cob"])
    run("ext equiv h2 zero", "ext", "equiv", exts["h2"], exts["zero"])
    run("ext equiv zero h2+cob", "ext", "equiv", exts["zero"], exts["h2+cob"])

    run("xmod cohomology", "xmod", "cohomology", x, xrep)
    xc2 = _xmod_inputs(tmp)
    for k, path in xc2.items():
        run(f"xmod cocycle check {k}", "xmod", "cocycle", "check", x, xrep, path)
        run(f"xmod cocycle reduce {k}", "xmod", "cocycle", "reduce", x, xrep, path)
        run(f"xmod deform check {k}", "xmod", "deform", "check", x, path)
    run("xmod nijenhuis check", "xmod", "nijenhuis", "check", x, _fx("fix_u_nijenhuis_id.json"))
    run("xmod nijenhuis apply", "xmod", "nijenhuis", "apply", x, _fx("fix_u_nijenhuis_id.json"))
    xexts = {k: run.witness(f"xmod ext build {k}", "xmod", "ext", "build", x, xrep, p) for k, p in xc2.items()}
    for k in ("h2", "h2+cob", "zero"):
        run(f"xmod ext extract {k}", "xmod", "ext", "extract", xexts[k])
    run("xmod ext equiv h2 h2+cob", "xmod", "ext", "equiv", xexts["h2"], xexts["h2+cob"])
    run("xmod ext equiv h2 zero", "xmod", "ext", "equiv", xexts["h2"], xexts["zero"])

    run("endalg build", "endalg", "build", _fx("complex_1_1_id.json"))
    run("selftest", "selftest", "--seed", "7", "--trials", "5", formats=("human",))
    return run.results


def corrupted_reports(tmp: Path) -> dict:
    """Corrupt the base, then each extension in turn, then the
    representation: ``ext extract``, ``ext equiv``, ``cohomology`` and
    ``cocycle reduce`` of both theories."""
    run = _Runner(tmp)
    u, urep = _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json")
    c2 = _two_term_inputs(tmp)
    good = run.witness("ext build h2", "ext", "build", u, urep, c2["h2"])
    other = run.witness("ext build h2+cob", "ext", "build", u, urep, c2["h2+cob"])
    ext_doc = json.loads(Path(good).read_text())
    alg_doc, rep_doc = json.loads(Path(u).read_text()), json.loads(Path(urep).read_text())
    bad_alg = _write(tmp, "bad_alg", _edit(alg_doc, "l2_00", [0, 0, 0]))
    bad_rep = _write(tmp, "bad_rep", _edit(rep_doc, "l0v0", [0, 0, 0]))
    for name, a, r in (("base", bad_alg, urep), ("rep", u, bad_rep)):
        run(f"cohomology bad {name}", "cohomology", a, r)
        run(f"cocycle reduce bad {name}", "cocycle", "reduce", a, r, c2["h2+cob"])
    variants = {
        "base": _edit(ext_doc, "base_l2_00", [0, 0, 0]),
        "total": _edit(ext_doc, "total_l3", [0, 0, 0, 0]),
        "kernel": _edit(ext_doc, "total_l2_00", [1, 1, 0]),
        "projection": _edit(ext_doc, "p0", [0, 1]),
        "splitting": _edit(ext_doc, "sigma1", [0, 0]),
        "index set": {**ext_doc, "dims": {**ext_doc["dims"], "sub0": []}},
    }
    for name, doc in variants.items():
        bad = _write(tmp, f"bad_ext_{name}", doc)
        run(f"ext extract bad {name}", "ext", "extract", bad)
        run(f"ext equiv bad {name} first", "ext", "equiv", bad, other)
        run(f"ext equiv bad {name} second", "ext", "equiv", other, bad)

    x, xrep = _fx("fix_x.json"), _fx("fix_x_adjoint_rep.json")
    xc2 = _xmod_inputs(tmp)
    good = run.witness("xmod ext build h2", "xmod", "ext", "build", x, xrep, xc2["h2"])
    other = run.witness("xmod ext build h2+cob", "xmod", "ext", "build", x, xrep, xc2["h2+cob"])
    ext_doc = json.loads(Path(good).read_text())
    x_doc, xrep_doc = json.loads(Path(x).read_text()), json.loads(Path(xrep).read_text())
    bad_x = _write(tmp, "bad_xmod", _edit(x_doc, "mul", [0, 0, 0]))
    bad_xrep = _write(tmp, "bad_xrep", _edit(xrep_doc, "v_left", [0, 0, 0]))
    for name, a, r in (("base", bad_x, xrep), ("rep", x, bad_xrep)):
        run(f"xmod cohomology bad {name}", "xmod", "cohomology", a, r)
        run(f"xmod cocycle reduce bad {name}", "xmod", "cocycle", "reduce", a, r, xc2["h2+cob"])
    variants = {
        "base": _edit(ext_doc, "base_mul", [0, 0, 0]),
        "total": _edit(ext_doc, "total_f", [0, 0]),
        "kernel": _edit(ext_doc, "total_mul", [1, 1, 0]),
        "projection": _edit(ext_doc, "p0", [0, 1]),
        "splitting": _edit(ext_doc, "sigma1", [0, 0]),
        "index set": {**ext_doc, "dims": {**ext_doc["dims"], "subw": []}},
    }
    for name, doc in variants.items():
        bad = _write(tmp, f"bad_xext_{name}", doc)
        run(f"xmod ext extract bad {name}", "xmod", "ext", "extract", bad)
        run(f"xmod ext equiv bad {name} first", "xmod", "ext", "equiv", bad, other)
        run(f"xmod ext equiv bad {name} second", "xmod", "ext", "equiv", other, bad)
    return run.results


# ---------------------------------------------------------------------------
# representations: seeded corruptions of adjoint and trivial coefficients
# ---------------------------------------------------------------------------

def _corrupt(rng, doc: dict, edits: int) -> dict:
    """``doc`` with ``edits`` seeded tensor entries moved by 1, -1 or 1/2."""
    kind = fileio.KINDS[doc["kind"]]
    tensors = kind.tensors(*(doc["dims"][k] for k in kind.dims))
    for _ in range(edits):
        name, shape = rng.choice(tensors)[:2]
        doc = _edit(doc, name, [rng.randrange(n) for n in shape], rng.choice(("1", "-1", "1/2")))
    return doc


def _representation_cases():
    """(name, structure document, representation, seed, edits) in both
    theories: adjoint and trivial coefficients of sums, one of them
    transported, the trivial ones of a dimension other than the base's."""
    mu = direct_sum_algebra(fix_m(), fix_u())
    tw = random_transport(random.Random(3), direct_sum_algebra(fix_w(), fix_l3()))
    uw = xmod.algebra_to_crossed_module(direct_sum_algebra(fix_u(), fix_w()))
    ud = xmod.algebra_to_crossed_module(random_transport(random.Random(5), direct_sum_algebra(fix_u(), fix_d())))
    v21 = TwoTermComplex(2, 1, Matrix(((Fraction(1),), (Fraction(-1),)), 1))
    alg, xm = fileio.dump_algebra, fileio.dump_crossed_module
    return [
        ("adjoint M+U", alg(mu), rep2.adjoint_representation(mu), 18, 3),
        ("adjoint T(W+L3)", alg(tw), rep2.adjoint_representation(tw), 187, 4),
        ("trivial 2/1 of 2D", alg(fix_2d()), rep2.trivial_representation(fix_2d(), v21), 191, 4),
        ("adjoint U+W", xm(uw), xmod.xmod_adjoint(uw), 100, 4),
        ("adjoint T(U+D)", xm(ud), xmod.xmod_adjoint(ud), 75, 4),
        ("trivial 3/2 of U+W", xm(uw), xmod.xmod_trivial_representation(uw, 3, 2), 145, 4),
    ]


def representation_reports(tmp: Path) -> dict:
    run = _Runner(tmp)
    for name, base, r, seed, edits in _representation_cases():
        xm = base["kind"] == "crossed_module"
        doc = (fileio.dump_xmod_representation if xm else fileio.dump_representation)(r)
        slug = name.replace(" ", "_").replace("/", "-")
        bad = _corrupt(random.Random(seed), doc, edits)
        files = _write(tmp, f"base_{slug}", base), _write(tmp, f"rep_{slug}", bad)
        what = "xmod-rep" if xm else "rep"
        run(f"check {what} {name}", "check", what, *files)
    return run.results


# ---------------------------------------------------------------------------
# documents: dumped bytes and loader messages
# ---------------------------------------------------------------------------

_VALUES = (0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), 5)


def _rand(rng, *shape):
    """A seeded tensor of ``shape``, about a third of its cells zero; a
    Matrix when ``shape`` has two axes."""
    def build(dims):
        if not dims:
            return Fraction(rng.choice(_VALUES))
        return tuple(build(dims[1:]) for _ in range(dims[0]))

    arr = build(shape)
    return Matrix(arr, shape[1]) if len(shape) == 2 else arr


def _random_algebra(rng, n0, n1):
    return TwoTermAlgebra(
        TwoTermComplex(n0, n1, _rand(rng, n0, n1)),
        _rand(rng, n0, n0, n0), _rand(rng, n0, n1, n1), _rand(rng, n1, n0, n1), _rand(rng, n0, n0, n0, n1),
    )


def _random_crossed_module(rng, p, h):
    alg = AssocAlgebra(p, _rand(rng, p, p, p))
    return xmod.CrossedModule(alg, Bimodule(alg, h, _rand(rng, p, h, h), _rand(rng, h, p, h)), _rand(rng, p, h))


def _documents():
    """(name, dumped document, loader, loader arguments): seeded structures
    whose dimensions all differ, so a transposed axis changes the bytes."""
    rng = random.Random(9)
    a0, a1, m0, m1 = 2, 3, 1, 4
    g = _random_algebra(rng, a0, a1)
    r = Representation2(
        g, TwoTermComplex(m0, m1, _rand(rng, m0, m1)),
        _rand(rng, a0, m0, m0), _rand(rng, a0, m1, m1), _rand(rng, m0, a0, m0), _rand(rng, m1, a0, m1),
        _rand(rng, a1, m0, m1), _rand(rng, m0, a1, m1),
        _rand(rng, a0, a0, m0, m1), _rand(rng, a0, m0, a0, m1), _rand(rng, m0, a0, a0, m1),
    )
    c1 = Cochain1(_rand(rng, m0, a0), _rand(rng, m1, a1), _rand(rng, a0, a0, m1))
    c2 = Cochain2(
        _rand(rng, m0, a1), _rand(rng, a0, a0, m0), _rand(rng, a0, a1, m1), _rand(rng, a1, a0, m1),
        _rand(rng, a0, a0, a0, m1),
    )
    dst = _random_algebra(rng, 4, 1)
    hom = Homomorphism2(g, dst, _rand(rng, 4, a0), _rand(rng, 1, a1), _rand(rng, a0, a0, 1))
    nij = NijenhuisCandidate(_rand(rng, a0, a0), _rand(rng, a1, a1), _rand(rng, a0, a0, a1))
    p, h, v, w = 2, 3, 4, 1
    x = _random_crossed_module(rng, p, h)
    xr = xmod.XModRepresentation(
        x,
        Bimodule(x.p_alg, v, _rand(rng, p, v, v), _rand(rng, v, p, v)),
        Bimodule(x.p_alg, w, _rand(rng, p, w, w), _rand(rng, w, p, w)),
        _rand(rng, w, v), _rand(rng, h, w, v), _rand(rng, w, h, v),
    )
    xc1 = xmod.XCochain1(_rand(rng, w, p), _rand(rng, v, h))
    xc2 = xmod.XCochain2(_rand(rng, w, h), _rand(rng, p, p, w), _rand(rng, p, h, v), _rand(rng, h, p, v))
    ext = ext2.Extension2(
        _random_algebra(rng, 3, 4), _random_algebra(rng, 2, 1), (2,), (0, 3),
        _rand(rng, 2, 3), _rand(rng, 1, 4), _rand(rng, 3, 2), _rand(rng, 4, 1),
    )
    xext = xmod.XModExtension(
        _random_crossed_module(rng, 3, 2), _random_crossed_module(rng, 1, 2), (0, 2), (),
        _rand(rng, 1, 3), _rand(rng, 2, 2), _rand(rng, 3, 1), _rand(rng, 2, 2),
    )
    theta2 = _rand(rng, a0, a0, a0, m1)
    nij_doc = fileio.dump_nijenhuis(nij)
    der_tensors = {"d" + k[1:]: e for k, e in nij_doc["tensors"].items()}
    der_doc = {**nij_doc, "kind": "derivation2", "tensors": der_tensors}
    return [
        ("algebra", fileio.dump_algebra(g), fileio.load_algebra, ()),
        ("complex", fileio.dump_complex(r.complex), fileio.load_complex, ()),
        ("representation", fileio.dump_representation(r), fileio.load_representation, (g,)),
        ("cochain1", fileio.dump_cochain1(c1, g, r), fileio.load_cochain1, (g, r)),
        ("cochain2", fileio.dump_cochain2(c2, g, r), fileio.load_cochain2, (g, r)),
        ("cochain2 theta2", fileio.dump_cochain2(c2, g, r, theta2=theta2), fileio.load_cochain2, (g, r)),
        ("homomorphism", fileio.dump_homomorphism(hom), fileio.load_homomorphism, (g, dst)),
        ("derivation", der_doc, fileio.load_derivation, (_random_algebra(rng, a0, a1),)),
        ("nijenhuis", nij_doc, fileio.load_nijenhuis, ((a0, a1),)),
        ("crossed module", fileio.dump_crossed_module(x), fileio.load_crossed_module, ()),
        ("xmod representation", fileio.dump_xmod_representation(xr), fileio.load_xmod_representation, (x,)),
        ("xmod cochain1", fileio.dump_xmod_cochain1(xc1, x, xr), fileio.load_xmod_cochain, (x, xr)),
        ("xmod cochain2", fileio.dump_xmod_cochain2(xc2, x, xr), fileio.load_xmod_cochain, (x, xr)),
        ("extension", fileio.dump_extension(ext), fileio.load_extension, ()),
        ("xmod extension", fileio.dump_xmod_extension(xext), fileio.load_xmod_extension, ()),
    ]


def _variants(doc: dict):
    """(name, copy of ``doc`` with one fault) for a fixed list of faults.
    Every variant keeps the tensor names of ``doc``; a dimension one larger
    still loads where it matches no other structure, except ``degree``,
    which would rename the tensors of an ``xmod_cochain``."""
    def edit(change):
        bad = json.loads(json.dumps(doc))
        change(bad)
        return bad

    yield "wrong kind", edit(lambda d: d.update(kind="complex2" if d["kind"] == "algebra2" else "algebra2"))
    yield "no dims", edit(lambda d: d.pop("dims"))
    yield "dims not an object", edit(lambda d: d.update(dims=[]))
    yield "no tensors", edit(lambda d: d.pop("tensors"))
    yield "tensors not an object", edit(lambda d: d.update(tensors=[]))
    for key in sorted(doc["dims"]):
        if isinstance(doc["dims"][key], list):
            for name, value in (("not a list", 0), ("out of range", [99]), ("negative", [-1]),
                                ("float", [0.0]), ("duplicate", [0, 0])):
                yield f"dims[{key}] {name}", edit(lambda d: d["dims"].update({key: value}))
            continue
        yield f"dims[{key}] missing", edit(lambda d: d["dims"].pop(key))
        values = {"negative": -1, "bool": True, "float": 1.5, "string": "2", "10^4": 10**4, "10^9": 10**9}
        if key != "degree":
            values["one more"] = doc["dims"][key] + 1
        for name, value in values.items():
            yield f"dims[{key}] {name}", edit(lambda d: d["dims"].update({key: value}))
    yield "every tensor not a list", edit(lambda d: d["tensors"].update({t: {} for t in d["tensors"]}))
    for t in sorted(doc["tensors"]):
        yield f"{t} not a list", edit(lambda d: d["tensors"].update({t: 0}))
    first = sorted(doc["tensors"])[0]
    entry = doc["tensors"][first][0]
    faults = {
        "entry not an object": [0],
        "entry with an extra key": {**entry, "x": 1},
        "entry without value": {"indices": entry["indices"]},
        "indices not a list": {**entry, "indices": 0},
        "indices too short": {**entry, "indices": entry["indices"][:-1]},
        "indices too long": {**entry, "indices": entry["indices"] + [0]},
        "index a bool": {**entry, "indices": [True] + entry["indices"][1:]},
        "index negative": {**entry, "indices": [-1] + entry["indices"][1:]},
        "index out of range": {**entry, "indices": [99] + entry["indices"][1:]},
    }
    for value in ("x", "", "1/0", "1/-2", "1/2/3", "1.5", "0x10", "a/2", 0.5, None, True, []):
        faults[f"value {json.dumps(value)}"] = {**entry, "value": value}
    for name, bad_entry in faults.items():
        yield f"{first}: {name}", edit(lambda d: d["tensors"][first].__setitem__(0, bad_entry))
    yield f"{first}: duplicate indices", edit(lambda d: d["tensors"][first].append(dict(entry)))


def document_reports(tmp: Path) -> dict:
    del tmp  # documents are compared as strings, nothing is written
    results = {}
    for name, doc, loader, args in _documents():
        results[f"dump {name}"] = fileio.dumps(doc)
        loader(fileio.parse_document(fileio.dumps(doc)), *args)  # the valid document loads
        for variant, bad in _variants(doc):
            try:
                loader(bad, *args)
                outcome = "loaded"
            except fileio.SchemaError as exc:
                outcome = str(exc)
            results[f"load {name}: {variant}"] = outcome
    return results


def _assert_matches_golden(results: dict, name: str) -> None:
    golden = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    assert sorted(results) == sorted(golden)
    differ = [case for case in golden if results[case] != golden[case]]
    assert not differ, f"reports differ from {name}: {differ}"


def test_readme_examples_match_golden_reports(tmp_path):
    _assert_matches_golden(readme_reports(tmp_path), "readme.json")


def test_corrupted_inputs_match_golden_reports(tmp_path):
    _assert_matches_golden(corrupted_reports(tmp_path), "corrupted.json")


def test_representation_checks_match_golden_reports(tmp_path):
    results = representation_reports(tmp_path)
    _assert_matches_golden(results, "representations.json")
    # every condition label of both theories is pinned
    reports = [json.loads(out) for case, (_, out, _) in results.items() if case.endswith("[json]")]
    labels = {v["condition_id"] for report in reports for v in report["violations"]}
    expected = {f"R{k:02}" for k in range(1, 17)} | {f"XR{k:02}" for k in range(1, 13)}
    assert labels == expected | {f"{m}-{s}" for m in "VW" for s in ("left", "middle", "right")}


def test_documents_match_golden_bytes_and_messages(tmp_path):
    _assert_matches_golden(document_reports(tmp_path), "documents.json")


# ---------------------------------------------------------------------------
# each structure checked once per loaded object
# ---------------------------------------------------------------------------

GENERATORS = [
    (algebra2, "algebra_residuals", "algebra"),
    (algebra2, "homomorphism_residuals", "hom"),
    (ext2, "homomorphism_residuals", "hom"),
    (rep2, "representation_residuals", "rep"),
    (ext2, "extension_residuals", "ext"),
    (xmod, "crossed_module_residuals", "xmod"),
    (xmod, "xmod_representation_residuals", "xrep"),
    (xmod, "xmod_homomorphism_residuals", "xhom"),
    (xmod, "xmod_extension_residuals", "xext"),
]


EXTRACTIONS = [
    (ext2, "extract_representation", "ext-rep"),
    (xmod, "xmod_extract_representation", "xext-rep"),
]


def test_each_structure_is_checked_once_per_loaded_object(monkeypatch, tmp_path):
    counts: dict[str, int] = {}
    for module, attr, key in GENERATORS + EXTRACTIONS:
        original = getattr(module, attr)

        def counted(*args, _original=original, _key=key, **kwargs):
            # a generator run with ``tuples`` evaluates a standard total or a
            # semidirect product (d2, cocycle and representation checks) on
            # part of its tuples, not the axioms of a loaded structure
            if "tuples" not in kwargs:
                counts[_key] = counts.get(_key, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    u, urep, x, xrep = _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json"), _fx("fix_x.json"), _fx("fix_x_adjoint_rep.json")
    c2, xc2 = _two_term_inputs(tmp_path), _xmod_inputs(tmp_path)
    ext = _Runner(tmp_path).witness("ext", "ext", "build", u, urep, c2["h2"])
    xext = _Runner(tmp_path).witness("xext", "xmod", "ext", "build", x, xrep, xc2["h2"])
    # (argv, exit code, evaluations of each generator): one per loaded
    # object, and one homomorphism evaluation of each extension's splitting,
    # whose kernel part is the extracted cocycle
    table = [
        (["cohomology", u, urep], 0, {"algebra": 1, "rep": 1}),
        (["cocycle", "reduce", u, urep, c2["cob"]], 0, {"algebra": 1, "rep": 1}),
        (["ext", "extract", ext], 0, {"algebra": 2, "hom": 2, "ext": 1, "ext-rep": 1}),
        (["ext", "equiv", ext, ext], 0, {"algebra": 4, "hom": 5, "rep": 1, "ext": 2, "ext-rep": 2}),
        (["xmod", "cohomology", x, xrep], 0, {"xmod": 1, "xrep": 1}),
        (["xmod", "cocycle", "reduce", x, xrep, xc2["cob"]], 0, {"xmod": 1, "xrep": 1}),
        (["xmod", "ext", "extract", xext], 0, {"xmod": 2, "xhom": 2, "xext": 1, "xext-rep": 1}),
        (["xmod", "ext", "equiv", xext, xext], 0, {"xmod": 4, "xrep": 1, "xhom": 5, "xext": 2, "xext-rep": 2}),
    ]
    for argv, code, expected in table:
        counts.clear()
        assert _invoke(argv)[0] == code, argv
        assert counts == expected, (argv, counts)


def test_building_an_extension_evaluates_the_total_once(monkeypatch):
    """The total's axioms decide the cocycle test; the cocycle families are
    read off them only to report a failure."""
    calls = []

    def counted(original):
        return lambda total, *args, **kwargs: calls.append(total) or original(total, *args, **kwargs)

    g, x = fix_u(), fix_x()
    r, xr = rep2.adjoint_representation(g), xmod.xmod_adjoint(x)
    c = cohom2.second_cohomology(g, r).representatives[0]
    xc = xmod.xmod_second_cohomology(x, xr).representatives[0]
    builds = [
        (lambda: ext2.build_extension(g, r.complex, r, c),
         [(algebra2, "algebra_residuals"), (cohom2, "algebra_residuals")]),
        (lambda: xmod.xmod_build_extension(x, xr, xc), [(xmod, "crossed_module_residuals")]),
    ]
    for build, generators in builds:
        for module, attr in generators:
            monkeypatch.setattr(module, attr, counted(getattr(module, attr)))
        calls.clear()
        total = build().total  # the base and the representation were checked above
        assert calls == [total]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in (
            ("readme.json", readme_reports),
            ("corrupted.json", corrupted_reports),
            ("representations.json", representation_reports),
            ("documents.json", document_reports),
        ):
            path = Path(tmp) / name.removesuffix(".json")
            path.mkdir()
            text = json.dumps(build(path), indent=1, sort_keys=True) + "\n"
            GOLDEN.mkdir(exist_ok=True)
            (GOLDEN / name).write_text(text, encoding="utf-8")
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
