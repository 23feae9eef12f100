"""Hostile documents, generated: every loader refuses a mutated valid
document cleanly.

Each case mutates a small valid document of one kind and hands it to the
command that reads that kind through ``assoc2.cli.main``: exit 2, nothing
on stdout, an ``error:`` line naming the file on stderr, no exception, and
under a second.  No command reads a ``cochain1`` file, so that loader is
called directly and must raise ``SchemaError``.

The mutations: dropped keys; dims given as a bool, a float, a string, a
negative number or 10^9; index lists with bools, duplicates or entries out
of range; malformed entries; values given as a float, a bool, null,
"1/0", "1/-2", digits outside ASCII or a 5000-digit JSON integer; a
kind given as a list, an object, a number, null or an unknown string;
unknown tensor names; JSON nested 5000 deep.  Examples are derandomized,
so every run tries the same ones.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assoc2 import cli, cohom2, ext2, fileio, rep2, xmod
from assoc2.algebra2 import identity_homomorphism
from assoc2.fixtures import fix_u, fix_x, fixture_file
from assoc2.sampling import random_cochain1

U, UREP = str(fixture_file("fix_u.json")), str(fixture_file("fix_u_adjoint_rep.json"))
X, XREP = str(fixture_file("fix_x.json")), str(fixture_file("fix_x_adjoint_rep.json"))


def _fixture(name):
    return json.loads(fixture_file(name).read_text(encoding="utf-8"))


@functools.cache
def _cases():
    """kind -> (valid document with some entries, argv reading it from a path,
    or None for a loader no command reaches)."""
    g, x = fix_u(), fix_x()
    r, xr = rep2.adjoint_representation(g), xmod.xmod_adjoint(x)
    c2 = cohom2.second_cohomology(g, r).representatives[0]
    xc2 = xmod.xmod_second_cohomology(x, xr).representatives[0]
    hom = identity_homomorphism(g)
    derivation = {"format_version": "1", "kind": "derivation2", "dims": {"dim0": 1, "dim1": 1},
                  "tensors": {"d0": [{"indices": [0, 0], "value": "1"}]}}
    ext, xext = ext2.build_extension(g, r.complex, r, c2), xmod.xmod_build_extension(x, xr, xc2)
    return {
        "algebra2": (_fixture("fix_u.json"), lambda p: ["check", "algebra", p]),
        "complex2": (_fixture("complex_1_1_id.json"), lambda p: ["endalg", "build", p]),
        "representation2": (_fixture("fix_u_adjoint_rep.json"), lambda p: ["check", "rep", U, p]),
        "cochain1": (fileio.dump_cochain1(random_cochain1(random.Random(3), g, r), g, r), None),
        "cochain2": (fileio.dump_cochain2(c2, g, r), lambda p: ["cocycle", "check", U, UREP, p]),
        "homomorphism2": (fileio.dump_homomorphism(hom), lambda p: ["check", "hom", U, U, p]),
        "derivation2": (derivation, lambda p: ["check", "derivation", U, p]),
        "nijenhuis": (_fixture("fix_u_nijenhuis_id.json"), lambda p: ["nijenhuis", "check", U, p]),
        "crossed_module": (_fixture("fix_x.json"), lambda p: ["check", "xmod", p]),
        "xmod_representation": (_fixture("fix_x_adjoint_rep.json"), lambda p: ["check", "xmod-rep", X, p]),
        "xmod_cochain": (
            fileio.dump_xmod_cochain2(xc2, x, xr), lambda p: ["xmod", "cocycle", "check", X, XREP, p]
        ),
        "extension2": (fileio.dump_extension(ext), lambda p: ["ext", "extract", p]),
        "xmod_extension": (fileio.dump_xmod_extension(xext), lambda p: ["xmod", "ext", "extract", p]),
    }


def _entry(data, doc):
    """A tensor of ``doc`` with entries, and the position of one of them."""
    name = data.draw(st.sampled_from(sorted(t for t, entries in doc["tensors"].items() if entries)))
    return name, data.draw(st.integers(0, len(doc["tensors"][name]) - 1))


NON_ASCII_DIGITS = st.text(st.characters(whitelist_categories=("Nd",)), min_size=1, max_size=4).filter(
    lambda s: not s.isascii()
)


def drop_key(data, doc):
    where = data.draw(st.sampled_from(["top", "dims", "entry"]))
    if where == "top":
        del doc[data.draw(st.sampled_from(["format_version", "kind", "dims", "tensors"]))]
    elif where == "dims":
        del doc["dims"][data.draw(st.sampled_from(sorted(doc["dims"])))]
    else:
        name, pos = _entry(data, doc)
        del doc["tensors"][name][pos][data.draw(st.sampled_from(["indices", "value"]))]


def bad_dims(data, doc):
    key = data.draw(st.sampled_from(sorted(k for k, v in doc["dims"].items() if isinstance(v, int))))
    doc["dims"][key] = data.draw(
        st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.integers(max_value=-1), st.just(10**9))
    )


# the index lists of the extension kinds, and the dims that bound them
INDEX_BOUNDS = {"sub0": "total0", "sub1": "total1", "subw": "totalp", "subv": "totalh"}


def bad_index_list(data, doc):
    if not any(isinstance(v, list) for v in doc["dims"].values()):
        # only extensions carry index lists: spoil an entry's indices instead
        name, pos = _entry(data, doc)
        indices = doc["tensors"][name][pos]["indices"]
        spoilt = data.draw(st.sampled_from([True, False, -1, 10**6]))
        indices[data.draw(st.integers(0, len(indices) - 1))] = spoilt
        return
    key = data.draw(st.sampled_from(sorted(k for k in INDEX_BOUNDS if k in doc["dims"])))
    bound = doc["dims"][INDEX_BOUNDS[key]]
    values = doc["dims"][key]
    fault = data.draw(st.sampled_from(["bool", "duplicate", "out of range"]))
    if fault == "bool":
        values.insert(data.draw(st.integers(0, len(values))), data.draw(st.booleans()))
    elif fault == "duplicate" and values:
        values.append(data.draw(st.sampled_from(values)))
    else:
        values.append(data.draw(st.one_of(st.integers(min_value=bound), st.integers(max_value=-1))))


def bad_entry(data, doc):
    name, pos = _entry(data, doc)
    entries = doc["tensors"][name]
    entry = entries[pos]
    fault = data.draw(st.sampled_from(["not an object", "extra key", "indices", "duplicate"]))
    if fault == "not an object":
        entries[pos] = data.draw(
            st.one_of(st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=3))
        )
    elif fault == "extra key":
        entry[data.draw(st.text(max_size=3).filter(lambda k: k not in entry))] = 0
    elif fault == "indices":
        entry["indices"] = data.draw(
            st.one_of(st.lists(st.integers(0, 1), max_size=5).filter(lambda i: len(i) != len(entry["indices"])),
                      st.text(max_size=3), st.none())
        )
    else:
        entries.append(dict(entry, value="1"))


def bad_value(data, doc):
    name, pos = _entry(data, doc)
    doc["tensors"][name][pos]["value"] = data.draw(
        st.one_of(
            st.floats(), st.booleans(), st.none(), NON_ASCII_DIGITS,
            st.sampled_from(["1/0", "1/-2", "0/0", "1_0", "+1", " 1", "1/2/3", "٣/2", "HUGE"]),
        )
    )
    # a JSON integer past int's 4300-digit limit for reading decimal text
    return json.dumps(doc).replace('"HUGE"', "9" * 5000)


def bad_kind(data, doc):
    doc["kind"] = data.draw(
        st.one_of(
            st.lists(st.text(max_size=3), max_size=2),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
            st.integers(), st.floats(), st.none(), st.booleans(), st.text(max_size=3),
        )
    )


def unknown_name(data, doc):
    stem = data.draw(st.sampled_from(sorted(doc["tensors"]) + [""]))
    doc["tensors"][stem + "~" + data.draw(st.text(max_size=3))] = []


def deep_nesting(data, doc):
    where = data.draw(st.sampled_from(["document", "dims", "entries", "value"]))
    if where == "document":
        return "[" * 5000 + "]" * 5000
    if where == "dims":
        doc["dims"][data.draw(st.sampled_from(sorted(doc["dims"])))] = "DEEP"
    else:
        name, pos = _entry(data, doc)
        if where == "entries":
            doc["tensors"][name] = "DEEP"
        else:
            doc["tensors"][name][pos]["value"] = "DEEP"
    return json.dumps(doc).replace('"DEEP"', "[" * 5000 + "]" * 5000)


MUTATIONS = [drop_key, bad_dims, bad_index_list, bad_entry, bad_value, bad_kind, unknown_name, deep_nesting]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_documents_exit_two_naming_the_file(workdir, mutate, data):
    kind = data.draw(st.sampled_from(sorted(_cases())))
    valid, argv = _cases()[kind]
    doc = json.loads(json.dumps(valid))
    text = mutate(data, doc) or json.dumps(doc)
    path = workdir / f"{kind}.json"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    if argv is None:
        with pytest.raises(fileio.SchemaError):
            g, r = fix_u(), rep2.adjoint_representation(fix_u())
            fileio.load_cochain1(fileio.parse_document(text), g, r)
    else:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv(str(path)))
        assert (code, out.getvalue()) == (2, ""), (kind, text[:300], err.getvalue())
        assert err.getvalue().startswith(f"error: {path}: "), err.getvalue()
    assert time.perf_counter() - start < 1.0
