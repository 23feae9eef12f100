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
identical values produce byte-identical files.  A value is a JSON integer
or a string ``p`` or ``p/q`` in ASCII digits, ``-?[0-9]+(/[0-9]+)?``, with
q > 0 (``exactlin.parse_rational``).

Each kind is one entry of the table ``KINDS``: the names of its integer
dims, the names of any index lists among its dims, and a function from its
integer dims to its tensors in read order, each a ``TensorSpec`` given as
(name, shape[, attribute path[, optional]]).  The path names the array's
attribute when it is not the attribute of that name; an optional tensor
may be left out of a document and is then read as None.  A tensor with two
axes is a ``Matrix`` (rows, cols), any other a nested tuple.  The cochain kinds take
their blocks from the theory's ``Layout`` (``cohom2.cochain_layouts``,
``xmod.xmod_cochain_layouts``): a block with one input is the matrix
(out, in), one with several the tensor (inputs..., out).  The extension
kinds take the algebra or crossed-module tensors twice, under the prefixes
``total_`` and ``base_``.  ``_read`` builds a document's arrays from its
entry, so a loader only checks its dims and assembles the arrays.  A
document that names a tensor its kind does not have is refused before any
tensor is read.

There is one writer per family of kinds.  A structure kind is written by
``_write``, which walks each dense array at its path.  A cochain kind is
written from the cochain's flattened vector, sparse ``{index: value}``,
through the layout's map from flat index to (tensor, indices)
(``Layout.cells``, ``_write_vector``): ``dump_cochain1``/``2`` and
``dump_xmod_cochain1``/``2`` flatten their cochain (and a two-cochain's
optional theta2, placed as theta) and write that, and
``dump_cochain2_vector``/``dump_xmod_cochain2_vector`` write a vector that
is already sparse, such as an H2 representative.

Loading builds dense tensors from the declared dimensions, so a document
may declare at most ``MAX_CELLS`` dense cells over all its tensors; one
that declares more is a schema error, raised before the tensor that would
pass the ceiling is allocated.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, reduce
from math import prod
from typing import Callable, NamedTuple

from .algebra2 import (
    AssocAlgebra,
    Bimodule,
    Homomorphism2,
    HomotopyDerivation,
    TwoTermAlgebra,
    TwoTermComplex,
)
from .cochain import Layout
from .cohom2 import Cochain1, Cochain2, cochain_layouts
from .deform2 import NijenhuisCandidate
from .exactlin import Matrix, clipped, format_rational, parse_rational
from .ext2 import Extension2
from .rep2 import Representation2
from .tensorops import tflat
from .xmod import CrossedModule, XCochain1, XCochain2, XModExtension, XModRepresentation, xmod_cochain_layouts

FORMAT_VERSION = "1"

# dense tensor cells one document may declare, summed over its tensors
MAX_CELLS = 1_000_000


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
            value, reason = clipped(repr(entry["value"])), clipped(str(exc), 150)
            raise SchemaError(f"tensor {name!r} entry {pos}: bad rational {value}: {reason}") from None
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


# ---------------------------------------------------------------------------
# the kinds: dims and tensors, each written once
# ---------------------------------------------------------------------------

def _algebra(n0, n1):
    return [("d", (n0, n1), "complex.diff"), ("l2_00", (n0, n0, n0)), ("l2_01", (n0, n1, n1)),
            ("l2_10", (n1, n0, n1)), ("l3", (n0, n0, n0, n1))]


def _crossed_module(p, h):
    return [("mul", (p, p, p), "p_alg.mul"), ("left", (p, h, h), "h_mod.left"),
            ("right", (h, p, h), "h_mod.right"), ("f", (p, h), "f_map")]


def _map_triple(letter):
    """x0 : g0 -> g0', x1 : g1 -> g1' and x2 : g0 x g0 -> g1' of a map, a
    derivation or a candidate; g' = g unless its dims are given."""

    def tensors(s0, s1, *target):
        d0, d1 = target or (s0, s1)
        return [(letter + "0", (d0, s0)), (letter + "1", (d1, s1)), (letter + "2", (s0, s0, d1))]

    return tensors


def _layout(kind, dims) -> Layout:
    """The layout of a cochain document of ``kind`` on its integer dims."""
    if kind == "xmod_cochain":
        *coefficients, degree = dims
        if degree not in (1, 2):
            raise SchemaError(f"unsupported cochain degree {degree}")
        return xmod_cochain_layouts(*coefficients)[degree - 1]
    return cochain_layouts(*dims)[kind == "cochain2"]


def _cochain(kind):
    """The tensors of a cochain kind: its layout's blocks, a one-input block
    as the matrix (out, in) and any other as the tensor (inputs..., out)."""

    def tensors(*dims):
        blocks = [(n, (out, *ins) if len(ins) == 1 else (*ins, out)) for n, ins, out in _layout(kind, dims).shapes]
        # theta2, a deformation's t^2 term of l3, is optional and shaped as theta
        return blocks + [("theta2", blocks[-1][1], "", True)] if kind == "cochain2" else blocks

    return tensors


def _extension(part):
    """``part``'s tensors for the total and for the base, prefixed, then the
    projections and splittings."""

    def tensors(t0, t1, b0, b1):
        return [
            (f"{prefix}_{t.name}", t.shape, f"{prefix}.{t.path or t.name}")
            for prefix, dims in (("total", (t0, t1)), ("base", (b0, b1)))
            for t in _specs(part, dims)
        ] + [("p0", (b0, t0)), ("p1", (b1, t1)), ("sigma0", (t0, b0)), ("sigma1", (t1, b1))]

    return tensors


class TensorSpec(NamedTuple):
    name: str
    shape: tuple[int, ...]
    path: str = ""  # the attribute holding the array, when it is not ``name``
    optional: bool = False


@lru_cache(maxsize=256)  # documents and dumps repeat a few shapes; cochain layouts are not free to build
def _specs(tensors, dims) -> tuple[TensorSpec, ...]:
    return tuple(TensorSpec(*t) for t in tensors(*dims))


class Kind(NamedTuple):
    dims: tuple[str, ...]
    tensors: Callable  # the integer dims -> [(name, shape[, path[, optional]])]
    index_lists: tuple[str, ...] = ()  # kernel indices below the first two dims


_COEFFICIENTS = ("alg0", "alg1", "v0", "v1")

KINDS = {
    "algebra2": Kind(("dim0", "dim1"), _algebra),
    "complex2": Kind(("dim0", "dim1"), lambda n0, n1: [("d", (n0, n1), "diff")]),
    "representation2": Kind(
        _COEFFICIENTS,
        lambda a0, a1, m0, m1: [
            ("dv", (m0, m1), "complex.diff"), ("l0v0", (a0, m0, m0)), ("l0v1", (a0, m1, m1)),
            ("r0v0", (m0, a0, m0)), ("r0v1", (m1, a0, m1)), ("l1", (a1, m0, m1)), ("r1", (m0, a1, m1)),
            ("tl", (a0, a0, m0, m1)), ("tm", (a0, m0, a0, m1)), ("tr", (m0, a0, a0, m1)),
        ],
    ),
    "cochain1": Kind(_COEFFICIENTS, _cochain("cochain1")),
    "cochain2": Kind(_COEFFICIENTS, _cochain("cochain2")),
    "homomorphism2": Kind(("src0", "src1", "dst0", "dst1"), _map_triple("f")),
    "derivation2": Kind(("dim0", "dim1"), _map_triple("d")),
    "nijenhuis": Kind(("dim0", "dim1"), _map_triple("n")),
    "crossed_module": Kind(("p", "h"), _crossed_module),
    "xmod_representation": Kind(
        ("p", "h", "v", "w"),
        lambda p, h, v, w: [
            ("v_left", (p, v, v), "v_mod.left"), ("v_right", (v, p, v), "v_mod.right"),
            ("w_left", (p, w, w), "w_mod.left"), ("w_right", (w, p, w), "w_mod.right"),
            ("phi", (w, v)), ("tr_l", (h, w, v)), ("tr_r", (w, h, v)),
        ],
    ),
    "xmod_cochain": Kind(("p", "h", "v", "w", "degree"), _cochain("xmod_cochain")),
    "extension2": Kind(("total0", "total1", "base0", "base1"), _extension(_algebra), ("sub0", "sub1")),
    "xmod_extension": Kind(("totalp", "totalh", "basep", "baseh"), _extension(_crossed_module), ("subw", "subv")),
}


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

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

    def read(self, name, shape):
        self.cells += prod(shape)
        if self.cells > MAX_CELLS:
            raise SchemaError(
                f"tensor {name!r} of shape {shape}: the declared dimensions need more than "
                f"{MAX_CELLS} dense cells"
            )
        arr = array_from_entries(name, shape, self.entries.get(name, []))
        return Matrix(arr, shape[1]) if len(shape) == 2 else arr


def _dims(doc, kind) -> tuple[int, ...]:
    """The integer dims of a document of ``kind``, in table order."""
    if doc.get("kind") != kind:
        raise SchemaError(f"expected kind {kind!r}, found {doc.get('kind')!r}")
    dims = _record(doc, "dims")
    out = []
    for n in KINDS[kind].dims:
        v = dims.get(n)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise SchemaError(f"dims[{n!r}] must be a nonnegative integer")
        out.append(v)
    return tuple(out)


def _index_list(doc, name, bound) -> tuple[int, ...]:
    v = doc["dims"].get(name)
    if not isinstance(v, list) or not all(type(i) is int and 0 <= i < bound for i in v):
        raise SchemaError(f"dims[{name!r}] must be a list of indices below {bound}")
    if len(set(v)) != len(v):
        raise SchemaError(f"dims[{name!r}] contains duplicates")
    return tuple(v)


def _read(doc, kind, *dims) -> list:
    """The arrays of ``kind``'s tensors on its integer ``dims``, in table
    order; an optional tensor the document leaves out is None."""
    t = _Tensors(doc)
    specs = _specs(KINDS[kind].tensors, dims)
    names = [s.name for s in specs]
    unknown = sorted(set(t.entries) - set(names))
    if unknown:
        raise SchemaError(f"unknown tensor {unknown[0]!r} for kind {kind!r}; its tensors are {', '.join(names)}")
    return [t.read(s.name, s.shape) if s.name in t.entries or not s.optional else None for s in specs]


def _document(kind, dims, tensors: dict) -> dict:
    entry = KINDS[kind]
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "dims": dict(zip(entry.dims + entry.index_lists, dims)),
        "tensors": tensors,
    }


def _write(kind, obj, dims) -> dict:
    """The document of the structure ``obj``, which holds every tensor at
    its path; ``dims`` are its dims and index lists in table order."""
    entry = KINDS[kind]
    tensors = {}
    for s in _specs(entry.tensors, dims[: len(entry.dims)]):
        arr = reduce(getattr, (s.path or s.name).split("."), obj)
        tensors[s.name] = entries_from_array(arr.entries if isinstance(arr, Matrix) else arr, s.shape)
    return _document(kind, dims, {k: v for k, v in sorted(tensors.items()) if v})


@lru_cache(maxsize=256)
def _cells(kind, dims) -> tuple[tuple, dict[int, int]]:
    """The (tensor, indices) of each flattened coordinate of a cochain
    document of ``kind`` on its integer dims (``Layout.cells``; a
    two-cochain's theta2 follows, placed as theta), and each coordinate's
    rank in the written order, by tensor name then indices."""
    cells = _layout(kind, dims).cells()
    if kind == "cochain2":
        cells += tuple(("theta2", where) for name, where in cells if name == "theta")
    order = sorted(range(len(cells)), key=cells.__getitem__)
    return cells, {k: rank for rank, k in enumerate(order)}


def _write_vector(kind, vector: dict, dims) -> dict:
    """The document of the cochain of ``kind`` whose flattened coordinates
    are ``vector`` (``{index: value}``, zero elsewhere); ``dims`` are its
    integer dims in table order."""
    cells, rank = _cells(kind, dims)
    tensors = {}
    for k in sorted(vector, key=rank.__getitem__):
        x = vector[k]
        if x != 0:
            name, where = cells[k]
            tensors.setdefault(name, []).append({"indices": list(where), "value": format_rational(x)})
    return _document(kind, dims, tensors)


def _write_flat(kind, flat, dims) -> dict:
    """The document of the cochain of ``kind`` flattened to ``flat``."""
    return _write_vector(kind, dict(enumerate(flat)), dims)


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed, or an integer literal past int's digit limit
        raise SchemaError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("not valid JSON: nested deeper than the parser's recursion limit") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    _record(doc, "tensors")
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# two-term algebras and friends
# ---------------------------------------------------------------------------

def _algebra_of(dims, arrays) -> TwoTermAlgebra:
    d, *products = arrays
    return TwoTermAlgebra(TwoTermComplex(*dims, d), *products)


def load_algebra(doc) -> TwoTermAlgebra:
    dims = _dims(doc, "algebra2")
    return _algebra_of(dims, _read(doc, "algebra2", *dims))


def dump_algebra(g: TwoTermAlgebra) -> dict:
    return _write("algebra2", g, (g.dim0, g.dim1))


def load_complex(doc) -> TwoTermComplex:
    dims = _dims(doc, "complex2")
    return TwoTermComplex(*dims, *_read(doc, "complex2", *dims))


def dump_complex(v: TwoTermComplex) -> dict:
    return _write("complex2", v, (v.dim0, v.dim1))


def load_representation(doc, g: TwoTermAlgebra) -> Representation2:
    a0, a1, m0, m1 = dims = _dims(doc, "representation2")
    if (a0, a1) != (g.dim0, g.dim1):
        raise SchemaError(f"representation is over an algebra of dims {(a0, a1)}, got {(g.dim0, g.dim1)}")
    dv, *actions = _read(doc, "representation2", *dims)
    return Representation2(g, TwoTermComplex(m0, m1, dv), *actions)


def dump_representation(r: Representation2) -> dict:
    return _write("representation2", r, (r.algebra.dim0, r.algebra.dim1, r.dim0, r.dim1))


def _coefficients(doc, kind, g, r) -> tuple[int, ...]:
    dims = _dims(doc, kind)
    if dims != (g.dim0, g.dim1, r.dim0, r.dim1):
        raise SchemaError("cochain dims do not match the algebra/representation pair")
    return dims


def load_cochain1(doc, g: TwoTermAlgebra, r: Representation2) -> Cochain1:
    return Cochain1(*_read(doc, "cochain1", *_coefficients(doc, "cochain1", g, r)))


def dump_cochain1(c: Cochain1, g: TwoTermAlgebra, r: Representation2) -> dict:
    return _write_flat("cochain1", c.flatten(), (g.dim0, g.dim1, r.dim0, r.dim1))


def load_cochain2(doc, g: TwoTermAlgebra, r: Representation2):
    """Returns (Cochain2, optional theta2 tensor)."""
    *blocks, theta2 = _read(doc, "cochain2", *_coefficients(doc, "cochain2", g, r))
    return Cochain2(*blocks), theta2


def dump_cochain2(c: Cochain2, g: TwoTermAlgebra, r: Representation2, theta2=None) -> dict:
    flat = c.flatten() + (() if theta2 is None else tuple(tflat(theta2)))
    return _write_flat("cochain2", flat, (g.dim0, g.dim1, r.dim0, r.dim1))


def dump_cochain2_vector(vector: dict, g: TwoTermAlgebra, r: Representation2) -> dict:
    """The two-cochain file of the flattened coordinates ``vector``
    (``{index: value}``, zero elsewhere)."""
    return _write_vector("cochain2", vector, (g.dim0, g.dim1, r.dim0, r.dim1))


def load_homomorphism(doc, src: TwoTermAlgebra, dst: TwoTermAlgebra) -> Homomorphism2:
    dims = _dims(doc, "homomorphism2")
    if dims != (src.dim0, src.dim1, dst.dim0, dst.dim1):
        raise SchemaError("homomorphism dims do not match source/target algebras")
    return Homomorphism2(src, dst, *_read(doc, "homomorphism2", *dims))


def dump_homomorphism(h: Homomorphism2) -> dict:
    return _write("homomorphism2", h, (h.source.dim0, h.source.dim1, h.target.dim0, h.target.dim1))


def load_derivation(doc, g: TwoTermAlgebra) -> HomotopyDerivation:
    dims = _dims(doc, "derivation2")
    if dims != (g.dim0, g.dim1):
        raise SchemaError("derivation dims do not match the algebra")
    return HomotopyDerivation(g, *_read(doc, "derivation2", *dims))


def load_nijenhuis(doc, dims: tuple[int, int]) -> NijenhuisCandidate:
    if _dims(doc, "nijenhuis") != dims:
        raise SchemaError("candidate dims do not match the structure")
    return NijenhuisCandidate(*_read(doc, "nijenhuis", *dims))


def dump_nijenhuis(n: NijenhuisCandidate) -> dict:
    return _write("nijenhuis", n, (n.n0.rows, n.n1.rows))


# ---------------------------------------------------------------------------
# crossed modules
# ---------------------------------------------------------------------------

def _crossed_module_of(dims, arrays) -> CrossedModule:
    p, h = dims
    mul, left, right, f = arrays
    alg = AssocAlgebra(p, mul)
    return CrossedModule(alg, Bimodule(alg, h, left, right), f)


def load_crossed_module(doc) -> CrossedModule:
    dims = _dims(doc, "crossed_module")
    return _crossed_module_of(dims, _read(doc, "crossed_module", *dims))


def dump_crossed_module(x: CrossedModule) -> dict:
    return _write("crossed_module", x, (x.pdim, x.hdim))


def load_xmod_representation(doc, x: CrossedModule) -> XModRepresentation:
    p, h, v, w = dims = _dims(doc, "xmod_representation")
    if (p, h) != (x.pdim, x.hdim):
        raise SchemaError("representation dims do not match the crossed module")
    v_left, v_right, w_left, w_right, *rest = _read(doc, "xmod_representation", *dims)
    return XModRepresentation(
        x, Bimodule(x.p_alg, v, v_left, v_right), Bimodule(x.p_alg, w, w_left, w_right), *rest
    )


def dump_xmod_representation(r: XModRepresentation) -> dict:
    return _write("xmod_representation", r, (r.xm.pdim, r.xm.hdim, r.vdim, r.wdim))


def load_xmod_cochain(doc, x: CrossedModule, r: XModRepresentation):
    dims = _dims(doc, "xmod_cochain")
    if dims[:4] != (x.pdim, x.hdim, r.vdim, r.wdim):
        raise SchemaError("cochain dims do not match the crossed module/representation pair")
    blocks = _read(doc, "xmod_cochain", *dims)
    return (XCochain1, XCochain2)[dims[4] - 1](*blocks)


def dump_xmod_cochain2(c: XCochain2, x: CrossedModule, r: XModRepresentation) -> dict:
    return _write_flat("xmod_cochain", c.flatten(), (x.pdim, x.hdim, r.vdim, r.wdim, 2))


def dump_xmod_cochain2_vector(vector: dict, x: CrossedModule, r: XModRepresentation) -> dict:
    """The degree-2 cochain file of the flattened coordinates ``vector``
    (``{index: value}``, zero elsewhere)."""
    return _write_vector("xmod_cochain", vector, (x.pdim, x.hdim, r.vdim, r.wdim, 2))


def dump_xmod_cochain1(c: XCochain1, x: CrossedModule, r: XModRepresentation) -> dict:
    return _write_flat("xmod_cochain", c.flatten(), (x.pdim, x.hdim, r.vdim, r.wdim, 1))


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def _extension_of(doc, kind, part_of, cls):
    t0, t1, b0, b1 = dims = _dims(doc, kind)
    subs = [_index_list(doc, name, bound) for name, bound in zip(KINDS[kind].index_lists, (t0, t1))]
    arrays = _read(doc, kind, *dims)
    k = (len(arrays) - 4) // 2  # the total's tensors, the base's, then p0, p1, sigma0, sigma1
    return cls(part_of((t0, t1), arrays[:k]), part_of((b0, b1), arrays[k:-4]), *subs, *arrays[-4:])


def _extension_doc(kind, e) -> dict:
    dims = (e.total.dim0, e.total.dim1, e.base.dim0, e.base.dim1, list(e.sub0), list(e.sub1))
    return _write(kind, e, dims)


def load_extension(doc) -> Extension2:
    return _extension_of(doc, "extension2", _algebra_of, Extension2)


def dump_extension(e: Extension2) -> dict:
    return _extension_doc("extension2", e)


def load_xmod_extension(doc) -> XModExtension:
    return _extension_of(doc, "xmod_extension", _crossed_module_of, XModExtension)


def dump_xmod_extension(e: XModExtension) -> dict:
    return _extension_doc("xmod_extension", e)
