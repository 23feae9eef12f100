"""JSON file formats for every structure the command line touches.

One flat schema for all kinds::

    {
      "format_version": "1",
      "kind": "algebra2" | "representation2" | ...,
      "dims": { ...per-kind dimension record... },
      "tensors": { "<name>": [ {"indices": [i, j, ...], "value": "p/q"}, ... ] }
    }

Entries are sparse: omitted entries are zero, duplicate index tuples are
forbidden, out-of-range indices are schema errors.  Serialization is
deterministic (entries sorted by index tuple, zero entries dropped), so
identical values produce byte-identical files.

Loading builds dense tensors from the declared dimensions, so a document
may declare at most ``MAX_CELLS`` dense cells over all its tensors; one
that declares more is a schema error, raised before the tensor that would
pass the ceiling is allocated.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import prod

from .algebra2 import (
    AssocAlgebra,
    Bimodule,
    Homomorphism2,
    HomotopyDerivation,
    TwoTermAlgebra,
    TwoTermComplex,
)
from .cohom2 import Cochain1, Cochain2
from .deform2 import NijenhuisCandidate
from .exactlin import Matrix, format_rational, parse_rational
from .ext2 import Extension2
from .rep2 import Representation2
from .xmod import CrossedModule, XCochain1, XCochain2, XModExtension, XModRepresentation

FORMAT_VERSION = "1"

# dense tensor cells one document may declare, summed over its tensors
MAX_CELLS = 1_000_000

KINDS = (
    "algebra2",
    "complex2",
    "representation2",
    "cochain1",
    "cochain2",
    "homomorphism2",
    "derivation2",
    "nijenhuis",
    "crossed_module",
    "xmod_representation",
    "xmod_cochain",
    "extension2",
    "xmod_extension",
)


class SchemaError(ValueError):
    """Malformed input file: wrong shape, bad index, unparsable value."""


# ---------------------------------------------------------------------------
# generic array <-> sparse entry list
# ---------------------------------------------------------------------------

def _set_entry(arr, idx, value):
    if len(idx) == 1:
        arr[idx[0]] = value
        return
    _set_entry(arr[idx[0]], idx[1:], value)


def _to_mutable(shape):
    if len(shape) == 1:
        return [Fraction(0)] * shape[0]
    return [_to_mutable(shape[1:]) for _ in range(shape[0])]


def _freeze(arr):
    if isinstance(arr, list):
        return tuple(_freeze(x) for x in arr)
    return arr


def array_from_entries(name: str, shape: tuple[int, ...], entries) -> tuple:
    if not isinstance(entries, list):
        raise SchemaError(f"tensor {name!r}: entries must be a list")
    arr = _to_mutable(shape) if shape else None
    seen = set()
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"indices", "value"}:
            raise SchemaError(f"tensor {name!r} entry {pos}: expected object with indices and value")
        idx = entry["indices"]
        if (
            not isinstance(idx, list)
            or len(idx) != len(shape)
            or not all(isinstance(i, int) and not isinstance(i, bool) for i in idx)
        ):
            raise SchemaError(f"tensor {name!r} entry {pos}: indices must be {len(shape)} integers")
        for i, bound in zip(idx, shape):
            if not 0 <= i < bound:
                raise SchemaError(f"tensor {name!r} entry {pos}: index {idx} out of range for shape {shape}")
        key = tuple(idx)
        if key in seen:
            raise SchemaError(f"tensor {name!r} entry {pos}: duplicate indices {idx}")
        seen.add(key)
        try:
            value = parse_rational(str(entry["value"]))
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"tensor {name!r} entry {pos}: bad rational {entry['value']!r}: {exc}") from None
        _set_entry(arr, key, value)
    return _freeze(arr)


def entries_from_array(arr, shape: tuple[int, ...]) -> list:
    out = []

    def walk(node, prefix):
        if len(prefix) == len(shape):
            if node != 0:
                out.append({"indices": list(prefix), "value": format_rational(node)})
            return
        for i, child in enumerate(node):
            walk(child, prefix + (i,))

    walk(arr, ())
    out.sort(key=lambda e: e["indices"])
    return out


def _record(doc, key) -> dict:
    if key not in doc:
        raise SchemaError(f"missing required key {key!r}")
    if not isinstance(doc[key], dict):
        raise SchemaError(f"{key} must be an object")
    return doc[key]


class _Tensors:
    """The tensors record of one document, read into dense arrays while
    counting their cells against ``MAX_CELLS``."""

    def __init__(self, doc):
        self.entries = _record(doc, "tensors")
        self.cells = 0

    def __contains__(self, name) -> bool:
        return name in self.entries

    def tensor(self, name, shape) -> tuple:
        self.cells += prod(shape)
        if self.cells > MAX_CELLS:
            raise SchemaError(
                f"tensor {name!r} of shape {shape}: the declared dimensions need more than "
                f"{MAX_CELLS} dense cells"
            )
        return array_from_entries(name, shape, self.entries.get(name, []))

    def matrix(self, name, shape) -> Matrix:
        return Matrix(self.tensor(name, shape), shape[1])


def _dims(doc, *names) -> tuple[int, ...]:
    dims = _record(doc, "dims")
    out = []
    for n in names:
        v = dims.get(n)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise SchemaError(f"dims[{n!r}] must be a nonnegative integer")
        out.append(v)
    return tuple(out)


def _index_list(doc, name, bound) -> tuple[int, ...]:
    v = doc.get("dims", {}).get(name)
    if not isinstance(v, list) or not all(isinstance(i, int) and 0 <= i < bound for i in v):
        raise SchemaError(f"dims[{name!r}] must be a list of indices below {bound}")
    if len(set(v)) != len(v):
        raise SchemaError(f"dims[{name!r}] contains duplicates")
    return tuple(v)


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("not valid JSON: nested deeper than the parser's recursion limit") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    _record(doc, "tensors")
    return doc


def _document(kind: str, dims: dict, tensors: dict) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "dims": dims,
        "tensors": {k: v for k, v in sorted(tensors.items()) if v},
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _expect_kind(doc, kind):
    if doc.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, found {doc.get('kind')!r}")


# ---------------------------------------------------------------------------
# two-term algebras and friends
# ---------------------------------------------------------------------------

def load_algebra(doc) -> TwoTermAlgebra:
    _expect_kind(doc, "algebra2")
    n0, n1 = _dims(doc, "dim0", "dim1")
    t = _Tensors(doc)
    return TwoTermAlgebra(
        TwoTermComplex(n0, n1, t.matrix("d", (n0, n1))),
        t.tensor("l2_00", (n0, n0, n0)),
        t.tensor("l2_01", (n0, n1, n1)),
        t.tensor("l2_10", (n1, n0, n1)),
        t.tensor("l3", (n0, n0, n0, n1)),
    )


def dump_algebra(g: TwoTermAlgebra) -> dict:
    n0, n1 = g.dim0, g.dim1
    return _document(
        "algebra2",
        {"dim0": n0, "dim1": n1},
        {
            "d": entries_from_array(g.complex.diff.entries, (n0, n1)),
            "l2_00": entries_from_array(g.l2_00, (n0, n0, n0)),
            "l2_01": entries_from_array(g.l2_01, (n0, n1, n1)),
            "l2_10": entries_from_array(g.l2_10, (n1, n0, n1)),
            "l3": entries_from_array(g.l3, (n0, n0, n0, n1)),
        },
    )


def load_complex(doc) -> TwoTermComplex:
    _expect_kind(doc, "complex2")
    n0, n1 = _dims(doc, "dim0", "dim1")
    return TwoTermComplex(n0, n1, _Tensors(doc).matrix("d", (n0, n1)))


def dump_complex(v: TwoTermComplex) -> dict:
    return _document(
        "complex2",
        {"dim0": v.dim0, "dim1": v.dim1},
        {"d": entries_from_array(v.diff.entries, (v.dim0, v.dim1))},
    )


def load_representation(doc, g: TwoTermAlgebra) -> Representation2:
    _expect_kind(doc, "representation2")
    a0, a1, m0, m1 = _dims(doc, "alg0", "alg1", "v0", "v1")
    if (a0, a1) != (g.dim0, g.dim1):
        raise SchemaError(f"representation is over an algebra of dims {(a0, a1)}, got {(g.dim0, g.dim1)}")
    t = _Tensors(doc)
    return Representation2(
        algebra=g,
        complex=TwoTermComplex(m0, m1, t.matrix("dv", (m0, m1))),
        l0v0=t.tensor("l0v0", (a0, m0, m0)),
        l0v1=t.tensor("l0v1", (a0, m1, m1)),
        r0v0=t.tensor("r0v0", (m0, a0, m0)),
        r0v1=t.tensor("r0v1", (m1, a0, m1)),
        l1=t.tensor("l1", (a1, m0, m1)),
        r1=t.tensor("r1", (m0, a1, m1)),
        tl=t.tensor("tl", (a0, a0, m0, m1)),
        tm=t.tensor("tm", (a0, m0, a0, m1)),
        tr=t.tensor("tr", (m0, a0, a0, m1)),
    )


def dump_representation(r: Representation2) -> dict:
    g = r.algebra
    a0, a1, m0, m1 = g.dim0, g.dim1, r.dim0, r.dim1
    return _document(
        "representation2",
        {"alg0": a0, "alg1": a1, "v0": m0, "v1": m1},
        {
            "dv": entries_from_array(r.complex.diff.entries, (m0, m1)),
            "l0v0": entries_from_array(r.l0v0, (a0, m0, m0)),
            "l0v1": entries_from_array(r.l0v1, (a0, m1, m1)),
            "r0v0": entries_from_array(r.r0v0, (m0, a0, m0)),
            "r0v1": entries_from_array(r.r0v1, (m1, a0, m1)),
            "l1": entries_from_array(r.l1, (a1, m0, m1)),
            "r1": entries_from_array(r.r1, (m0, a1, m1)),
            "tl": entries_from_array(r.tl, (a0, a0, m0, m1)),
            "tm": entries_from_array(r.tm, (a0, m0, a0, m1)),
            "tr": entries_from_array(r.tr, (m0, a0, a0, m1)),
        },
    )


def _check_coeff_dims(doc, g, r):
    a0, a1, m0, m1 = _dims(doc, "alg0", "alg1", "v0", "v1")
    if (a0, a1) != (g.dim0, g.dim1) or (m0, m1) != (r.dim0, r.dim1):
        raise SchemaError("cochain dims do not match the algebra/representation pair")
    return a0, a1, m0, m1


def load_cochain1(doc, g: TwoTermAlgebra, r: Representation2) -> Cochain1:
    _expect_kind(doc, "cochain1")
    a0, a1, m0, m1 = _check_coeff_dims(doc, g, r)
    t = _Tensors(doc)
    return Cochain1(
        t.matrix("phi", (m0, a0)),
        t.matrix("phi1", (m1, a1)),
        t.tensor("chi", (a0, a0, m1)),
    )


def dump_cochain1(c: Cochain1, g: TwoTermAlgebra, r: Representation2) -> dict:
    a0, a1, m0, m1 = g.dim0, g.dim1, r.dim0, r.dim1
    return _document(
        "cochain1",
        {"alg0": a0, "alg1": a1, "v0": m0, "v1": m1},
        {
            "phi": entries_from_array(c.phi.entries, (m0, a0)),
            "phi1": entries_from_array(c.phi1.entries, (m1, a1)),
            "chi": entries_from_array(c.chi, (a0, a0, m1)),
        },
    )


def load_cochain2(doc, g: TwoTermAlgebra, r: Representation2):
    """Returns (Cochain2, optional theta2 tensor)."""
    _expect_kind(doc, "cochain2")
    a0, a1, m0, m1 = _check_coeff_dims(doc, g, r)
    t = _Tensors(doc)
    c = Cochain2(
        t.matrix("psi", (m0, a1)),
        t.tensor("omega", (a0, a0, m0)),
        t.tensor("mu", (a0, a1, m1)),
        t.tensor("nu", (a1, a0, m1)),
        t.tensor("theta", (a0, a0, a0, m1)),
    )
    theta2 = t.tensor("theta2", (a0, a0, a0, m1)) if "theta2" in t else None
    return c, theta2


def dump_cochain2(c: Cochain2, g: TwoTermAlgebra, r: Representation2, theta2=None) -> dict:
    a0, a1, m0, m1 = g.dim0, g.dim1, r.dim0, r.dim1
    tensors = {
        "psi": entries_from_array(c.psi.entries, (m0, a1)),
        "omega": entries_from_array(c.omega, (a0, a0, m0)),
        "mu": entries_from_array(c.mu, (a0, a1, m1)),
        "nu": entries_from_array(c.nu, (a1, a0, m1)),
        "theta": entries_from_array(c.theta, (a0, a0, a0, m1)),
    }
    if theta2 is not None:
        tensors["theta2"] = entries_from_array(theta2, (a0, a0, a0, m1))
    return _document("cochain2", {"alg0": a0, "alg1": a1, "v0": m0, "v1": m1}, tensors)


def load_homomorphism(doc, src: TwoTermAlgebra, dst: TwoTermAlgebra) -> Homomorphism2:
    _expect_kind(doc, "homomorphism2")
    s0, s1, d0, d1 = _dims(doc, "src0", "src1", "dst0", "dst1")
    if (s0, s1) != (src.dim0, src.dim1) or (d0, d1) != (dst.dim0, dst.dim1):
        raise SchemaError("homomorphism dims do not match source/target algebras")
    t = _Tensors(doc)
    return Homomorphism2(
        src,
        dst,
        t.matrix("f0", (d0, s0)),
        t.matrix("f1", (d1, s1)),
        t.tensor("f2", (s0, s0, d1)),
    )


def dump_homomorphism(h: Homomorphism2) -> dict:
    s0, s1 = h.source.dim0, h.source.dim1
    d0, d1 = h.target.dim0, h.target.dim1
    return _document(
        "homomorphism2",
        {"src0": s0, "src1": s1, "dst0": d0, "dst1": d1},
        {
            "f0": entries_from_array(h.f0.entries, (d0, s0)),
            "f1": entries_from_array(h.f1.entries, (d1, s1)),
            "f2": entries_from_array(h.f2, (s0, s0, d1)),
        },
    )


def load_derivation(doc, g: TwoTermAlgebra) -> HomotopyDerivation:
    _expect_kind(doc, "derivation2")
    n0, n1 = _dims(doc, "dim0", "dim1")
    if (n0, n1) != (g.dim0, g.dim1):
        raise SchemaError("derivation dims do not match the algebra")
    t = _Tensors(doc)
    return HomotopyDerivation(
        g, t.matrix("d0", (n0, n0)), t.matrix("d1", (n1, n1)), t.tensor("d2", (n0, n0, n1))
    )


def load_nijenhuis(doc, dims: tuple[int, int]) -> NijenhuisCandidate:
    _expect_kind(doc, "nijenhuis")
    n0, n1 = _dims(doc, "dim0", "dim1")
    if (n0, n1) != dims:
        raise SchemaError("candidate dims do not match the structure")
    t = _Tensors(doc)
    return NijenhuisCandidate(
        t.matrix("n0", (n0, n0)), t.matrix("n1", (n1, n1)), t.tensor("n2", (n0, n0, n1))
    )


def dump_nijenhuis(n: NijenhuisCandidate) -> dict:
    n0, n1 = n.n0.rows, n.n1.rows
    return _document(
        "nijenhuis",
        {"dim0": n0, "dim1": n1},
        {
            "n0": entries_from_array(n.n0.entries, (n0, n0)),
            "n1": entries_from_array(n.n1.entries, (n1, n1)),
            "n2": entries_from_array(n.n2, (n0, n0, n1)),
        },
    )


# ---------------------------------------------------------------------------
# crossed modules
# ---------------------------------------------------------------------------

def load_crossed_module(doc) -> CrossedModule:
    _expect_kind(doc, "crossed_module")
    p, h = _dims(doc, "p", "h")
    t = _Tensors(doc)
    alg = AssocAlgebra(p, t.tensor("mul", (p, p, p)))
    mod = Bimodule(alg, h, t.tensor("left", (p, h, h)), t.tensor("right", (h, p, h)))
    return CrossedModule(alg, mod, t.matrix("f", (p, h)))


def dump_crossed_module(x: CrossedModule) -> dict:
    p, h = x.pdim, x.hdim
    return _document(
        "crossed_module",
        {"p": p, "h": h},
        {
            "mul": entries_from_array(x.p_alg.mul, (p, p, p)),
            "left": entries_from_array(x.h_mod.left, (p, h, h)),
            "right": entries_from_array(x.h_mod.right, (h, p, h)),
            "f": entries_from_array(x.f_map.entries, (p, h)),
        },
    )


def load_xmod_representation(doc, x: CrossedModule) -> XModRepresentation:
    _expect_kind(doc, "xmod_representation")
    p, h, v, w = _dims(doc, "p", "h", "v", "w")
    if (p, h) != (x.pdim, x.hdim):
        raise SchemaError("representation dims do not match the crossed module")
    t = _Tensors(doc)
    return XModRepresentation(
        xm=x,
        v_mod=Bimodule(x.p_alg, v, t.tensor("v_left", (p, v, v)), t.tensor("v_right", (v, p, v))),
        w_mod=Bimodule(x.p_alg, w, t.tensor("w_left", (p, w, w)), t.tensor("w_right", (w, p, w))),
        phi=t.matrix("phi", (w, v)),
        tr_l=t.tensor("tr_l", (h, w, v)),
        tr_r=t.tensor("tr_r", (w, h, v)),
    )


def dump_xmod_representation(r: XModRepresentation) -> dict:
    p, h, v, w = r.xm.pdim, r.xm.hdim, r.vdim, r.wdim
    return _document(
        "xmod_representation",
        {"p": p, "h": h, "v": v, "w": w},
        {
            "v_left": entries_from_array(r.v_mod.left, (p, v, v)),
            "v_right": entries_from_array(r.v_mod.right, (v, p, v)),
            "w_left": entries_from_array(r.w_mod.left, (p, w, w)),
            "w_right": entries_from_array(r.w_mod.right, (w, p, w)),
            "phi": entries_from_array(r.phi.entries, (w, v)),
            "tr_l": entries_from_array(r.tr_l, (h, w, v)),
            "tr_r": entries_from_array(r.tr_r, (w, h, v)),
        },
    )


def load_xmod_cochain(doc, x: CrossedModule, r: XModRepresentation):
    _expect_kind(doc, "xmod_cochain")
    p, h, v, w, degree = _dims(doc, "p", "h", "v", "w", "degree")
    if (p, h, v, w) != (x.pdim, x.hdim, r.vdim, r.wdim):
        raise SchemaError("cochain dims do not match the crossed module/representation pair")
    t = _Tensors(doc)
    if degree == 1:
        return XCochain1(t.matrix("n0", (w, p)), t.matrix("n1", (v, h)))
    if degree == 2:
        return XCochain2(
            t.matrix("psi", (w, h)),
            t.tensor("omega", (p, p, w)),
            t.tensor("mu", (p, h, v)),
            t.tensor("nu", (h, p, v)),
        )
    raise SchemaError(f"unsupported cochain degree {degree}")


def dump_xmod_cochain2(c: XCochain2, x: CrossedModule, r: XModRepresentation) -> dict:
    p, h, v, w = x.pdim, x.hdim, r.vdim, r.wdim
    return _document(
        "xmod_cochain",
        {"p": p, "h": h, "v": v, "w": w, "degree": 2},
        {
            "psi": entries_from_array(c.psi.entries, (w, h)),
            "omega": entries_from_array(c.omega, (p, p, w)),
            "mu": entries_from_array(c.mu, (p, h, v)),
            "nu": entries_from_array(c.nu, (h, p, v)),
        },
    )


def dump_xmod_cochain1(c: XCochain1, x: CrossedModule, r: XModRepresentation) -> dict:
    p, h, v, w = x.pdim, x.hdim, r.vdim, r.wdim
    return _document(
        "xmod_cochain",
        {"p": p, "h": h, "v": v, "w": w, "degree": 1},
        {
            "n0": entries_from_array(c.n0.entries, (w, p)),
            "n1": entries_from_array(c.n1.entries, (v, h)),
        },
    )


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def load_extension(doc) -> Extension2:
    _expect_kind(doc, "extension2")
    t0, t1, b0, b1 = _dims(doc, "total0", "total1", "base0", "base1")
    sub0 = _index_list(doc, "sub0", t0)
    sub1 = _index_list(doc, "sub1", t1)
    t = _Tensors(doc)
    total = TwoTermAlgebra(
        TwoTermComplex(t0, t1, t.matrix("total_d", (t0, t1))),
        t.tensor("total_l2_00", (t0, t0, t0)),
        t.tensor("total_l2_01", (t0, t1, t1)),
        t.tensor("total_l2_10", (t1, t0, t1)),
        t.tensor("total_l3", (t0, t0, t0, t1)),
    )
    base = TwoTermAlgebra(
        TwoTermComplex(b0, b1, t.matrix("base_d", (b0, b1))),
        t.tensor("base_l2_00", (b0, b0, b0)),
        t.tensor("base_l2_01", (b0, b1, b1)),
        t.tensor("base_l2_10", (b1, b0, b1)),
        t.tensor("base_l3", (b0, b0, b0, b1)),
    )
    return Extension2(
        total,
        base,
        sub0,
        sub1,
        t.matrix("p0", (b0, t0)),
        t.matrix("p1", (b1, t1)),
        t.matrix("sigma0", (t0, b0)),
        t.matrix("sigma1", (t1, b1)),
    )


def dump_extension(e: Extension2) -> dict:
    t0, t1 = e.total.dim0, e.total.dim1
    b0, b1 = e.base.dim0, e.base.dim1
    return _document(
        "extension2",
        {
            "total0": t0,
            "total1": t1,
            "base0": b0,
            "base1": b1,
            "sub0": list(e.sub0),
            "sub1": list(e.sub1),
        },
        {
            "total_d": entries_from_array(e.total.complex.diff.entries, (t0, t1)),
            "total_l2_00": entries_from_array(e.total.l2_00, (t0, t0, t0)),
            "total_l2_01": entries_from_array(e.total.l2_01, (t0, t1, t1)),
            "total_l2_10": entries_from_array(e.total.l2_10, (t1, t0, t1)),
            "total_l3": entries_from_array(e.total.l3, (t0, t0, t0, t1)),
            "base_d": entries_from_array(e.base.complex.diff.entries, (b0, b1)),
            "base_l2_00": entries_from_array(e.base.l2_00, (b0, b0, b0)),
            "base_l2_01": entries_from_array(e.base.l2_01, (b0, b1, b1)),
            "base_l2_10": entries_from_array(e.base.l2_10, (b1, b0, b1)),
            "base_l3": entries_from_array(e.base.l3, (b0, b0, b0, b1)),
            "p0": entries_from_array(e.p0.entries, (b0, t0)),
            "p1": entries_from_array(e.p1.entries, (b1, t1)),
            "sigma0": entries_from_array(e.sigma0.entries, (t0, b0)),
            "sigma1": entries_from_array(e.sigma1.entries, (t1, b1)),
        },
    )


def load_xmod_extension(doc) -> XModExtension:
    _expect_kind(doc, "xmod_extension")
    tp, th, bp, bh = _dims(doc, "totalp", "totalh", "basep", "baseh")
    subw = _index_list(doc, "subw", tp)
    subv = _index_list(doc, "subv", th)
    t = _Tensors(doc)

    def xm(prefix, p, h):
        alg = AssocAlgebra(p, t.tensor(prefix + "mul", (p, p, p)))
        mod = Bimodule(
            alg, h, t.tensor(prefix + "left", (p, h, h)), t.tensor(prefix + "right", (h, p, h))
        )
        return CrossedModule(alg, mod, t.matrix(prefix + "f", (p, h)))

    return XModExtension(
        xm("total_", tp, th),
        xm("base_", bp, bh),
        subw,
        subv,
        t.matrix("p0", (bp, tp)),
        t.matrix("p1", (bh, th)),
        t.matrix("sigma0", (tp, bp)),
        t.matrix("sigma1", (th, bh)),
    )


def dump_xmod_extension(e: XModExtension) -> dict:
    tp, th = e.total.pdim, e.total.hdim
    bp, bh = e.base.pdim, e.base.hdim

    def xm(prefix, x, p, h):
        return {
            prefix + "mul": entries_from_array(x.p_alg.mul, (p, p, p)),
            prefix + "left": entries_from_array(x.h_mod.left, (p, h, h)),
            prefix + "right": entries_from_array(x.h_mod.right, (h, p, h)),
            prefix + "f": entries_from_array(x.f_map.entries, (p, h)),
        }

    tensors = xm("total_", e.total, tp, th) | xm("base_", e.base, bp, bh)
    tensors |= {
        "p0": entries_from_array(e.p0.entries, (bp, tp)),
        "p1": entries_from_array(e.p1.entries, (bh, th)),
        "sigma0": entries_from_array(e.sigma0.entries, (tp, bp)),
        "sigma1": entries_from_array(e.sigma1.entries, (th, bh)),
    }
    return _document(
        "xmod_extension",
        {
            "totalp": tp,
            "totalh": th,
            "basep": bp,
            "baseh": bh,
            "subw": list(e.sub0),
            "subv": list(e.sub1),
        },
        tensors,
    )
