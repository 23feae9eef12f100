import contextlib
import io
import json
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from assoc2 import algebra2, cli, cohom2, fileio, xmod
from assoc2.algebra2 import SLOTS, TwoTermComplex, Tuples, identity_homomorphism, zero_algebra
from assoc2.cli import MAX_D2_CELLS, main
from assoc2.cohom2 import assemble_matrices, zero_cochain2
from assoc2.deform2 import identity_candidate
from assoc2.exactlin import Matrix
from assoc2.ext2 import build_extension
from assoc2.fixtures import (
    algebra_fixtures,
    direct_sum_algebra,
    fix_2d,
    fix_d,
    fix_l3,
    fix_m,
    fix_u,
    fix_w,
    fix_x,
    fix_x_zero,
    fix_z,
    fixture_file,
    xmod_fixtures,
)
from assoc2.rep2 import adjoint_representation, trivial_representation
from assoc2.sampling import random_cochain1, random_cochain2, random_transport, random_xcochain2
from assoc2.xmod import xmod_adjoint, xmod_build_extension, xmod_zero_cochain2

F = Fraction


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def test_algebra_round_trip_all_fixtures():
    for name, g in algebra_fixtures().items():
        doc = json.loads(fileio.dumps(fileio.dump_algebra(g)))
        back = fileio.load_algebra(fileio.parse_document(json.dumps(doc)))
        assert back == g, name


def test_shipped_fixture_files_match_constructors():
    names = {
        "fix_z.json": "FIX-Z",
        "fix_u.json": "FIX-U",
        "fix_d.json": "FIX-D",
        "fix_l3.json": "FIX-L3",
        "fix_m.json": "FIX-M",
        "fix_w.json": "FIX-W",
        "fix_2d.json": "FIX-2D",
    }
    fixtures = algebra_fixtures()
    for fname, key in names.items():
        doc = fileio.parse_document(fixture_file(fname).read_text())
        assert fileio.load_algebra(doc) == fixtures[key], fname
    xnames = {"fix_x.json": "FIX-X", "fix_x_peiffer.json": "FIX-XP", "fix_x_zero.json": "FIX-X0"}
    xfixtures = xmod_fixtures()
    for fname, key in xnames.items():
        doc = fileio.parse_document(fixture_file(fname).read_text())
        x = fileio.load_crossed_module(doc)
        assert (x.p_alg, x.h_mod, x.f_map) == (
            xfixtures[key].p_alg,
            xfixtures[key].h_mod,
            xfixtures[key].f_map,
        ), fname


def test_representation_cochain_round_trips():
    rng = random.Random(1)
    g = algebra_fixtures()["FIX-2D"]
    r = adjoint_representation(g)
    r2 = fileio.load_representation(fileio.parse_document(fileio.dumps(fileio.dump_representation(r))), g)
    assert r2 == r
    c1 = random_cochain1(rng, g, r)
    back = fileio.load_cochain1(fileio.parse_document(fileio.dumps(fileio.dump_cochain1(c1, g, r))), g, r)
    assert back == c1
    c2 = random_cochain2(rng, g, r)
    back2, theta2 = fileio.load_cochain2(
        fileio.parse_document(fileio.dumps(fileio.dump_cochain2(c2, g, r))), g, r
    )
    assert back2 == c2 and theta2 is None
    back2, theta2 = fileio.load_cochain2(
        fileio.parse_document(fileio.dumps(fileio.dump_cochain2(c2, g, r, theta2=g.l3))), g, r
    )
    assert theta2 == g.l3


def test_extension_round_trip():
    g = fix_u()
    adj = adjoint_representation(g)
    e = build_extension(g, adj.complex, adj, zero_cochain2(g, adj))
    doc = fileio.dumps(fileio.dump_extension(e))
    back = fileio.load_extension(fileio.parse_document(doc))
    assert back == e


def test_xmod_documents_round_trip():
    x = fix_x()
    adj = xmod_adjoint(x)
    doc = fileio.dumps(fileio.dump_xmod_representation(adj))
    back = fileio.load_xmod_representation(fileio.parse_document(doc), x)
    assert back == adj
    rng = random.Random(2)
    c = random_xcochain2(rng, x, adj)
    back_c = fileio.load_xmod_cochain(
        fileio.parse_document(fileio.dumps(fileio.dump_xmod_cochain2(c, x, adj))), x, adj
    )
    assert back_c == c
    e = xmod_build_extension(x, adj, xmod_zero_cochain2(x, adj))
    back_e = fileio.load_xmod_extension(fileio.parse_document(fileio.dumps(fileio.dump_xmod_extension(e))))
    assert back_e == e


def test_homomorphism_nijenhuis_complex_round_trips():
    g = fix_u()
    h = identity_homomorphism(g)
    back = fileio.load_homomorphism(
        fileio.parse_document(fileio.dumps(fileio.dump_homomorphism(h))), g, g
    )
    assert back.f0 == h.f0 and back.f1 == h.f1 and back.f2 == h.f2
    n = identity_candidate(g)
    back_n = fileio.load_nijenhuis(
        fileio.parse_document(fileio.dumps(fileio.dump_nijenhuis(n))), (1, 1)
    )
    assert back_n == n
    v = TwoTermComplex(2, 1, Matrix(((F(1),), (F(-2),)), 1))
    back_v = fileio.load_complex(fileio.parse_document(fileio.dumps(fileio.dump_complex(v))))
    assert back_v == v


def test_schema_violations():
    g = fix_u()
    doc = fileio.dump_algebra(g)
    bad = json.loads(json.dumps(doc))
    bad["tensors"]["l2_00"] = [{"indices": [0, 0], "value": "1"}]
    with pytest.raises(fileio.SchemaError):
        fileio.load_algebra(fileio.parse_document(json.dumps(bad)))
    bad = json.loads(json.dumps(doc))
    bad["tensors"]["l2_00"] = [
        {"indices": [0, 0, 0], "value": "1"},
        {"indices": [0, 0, 0], "value": "2"},
    ]
    with pytest.raises(fileio.SchemaError):
        fileio.load_algebra(fileio.parse_document(json.dumps(bad)))
    bad = json.loads(json.dumps(doc))
    bad["tensors"]["l2_00"] = [{"indices": [0, 0, 0], "value": "1/0"}]
    with pytest.raises(fileio.SchemaError):
        fileio.load_algebra(fileio.parse_document(json.dumps(bad)))
    with pytest.raises(fileio.SchemaError):
        fileio.parse_document("not json")
    with pytest.raises(fileio.SchemaError):
        fileio.parse_document(json.dumps({"format_version": "1", "kind": "nope"}))


def _loader_cases():
    """(loader, valid document, further loader arguments) for every loader."""
    g, x = fix_u(), fix_x()
    r, xr = adjoint_representation(g), xmod_adjoint(x)
    complex11 = TwoTermComplex(1, 1, Matrix.zero(1, 1))
    derivation = {
        "format_version": "1",
        "kind": "derivation2",
        "dims": {"dim0": 1, "dim1": 1},
        "tensors": {},
    }
    return [
        (fileio.load_algebra, fileio.dump_algebra(g), ()),
        (fileio.load_complex, fileio.dump_complex(complex11), ()),
        (fileio.load_representation, fileio.dump_representation(r), (g,)),
        (fileio.load_cochain1, fileio.dump_cochain1(random_cochain1(random.Random(0), g, r), g, r), (g, r)),
        (fileio.load_cochain2, fileio.dump_cochain2(zero_cochain2(g, r), g, r), (g, r)),
        (fileio.load_homomorphism, fileio.dump_homomorphism(identity_homomorphism(g)), (g, g)),
        (fileio.load_derivation, derivation, (g,)),
        (fileio.load_nijenhuis, fileio.dump_nijenhuis(identity_candidate(g)), ((1, 1),)),
        (fileio.load_crossed_module, fileio.dump_crossed_module(x), ()),
        (fileio.load_xmod_representation, fileio.dump_xmod_representation(xr), (x,)),
        (fileio.load_xmod_cochain, fileio.dump_xmod_cochain2(xmod_zero_cochain2(x, xr), x, xr), (x, xr)),
        (
            fileio.load_extension,
            fileio.dump_extension(build_extension(g, r.complex, r, zero_cochain2(g, r))),
            (),
        ),
        (
            fileio.load_xmod_extension,
            fileio.dump_xmod_extension(xmod_build_extension(x, xr, xmod_zero_cochain2(x, xr))),
            (),
        ),
    ]


def test_missing_required_keys_are_schema_errors():
    for loader, doc, args in _loader_cases():
        loader(fileio.parse_document(fileio.dumps(doc)), *args)  # the full document loads
        for key in ("kind", "dims", "tensors"):
            bad = {k: v for k, v in doc.items() if k != key}
            with pytest.raises(fileio.SchemaError, match=key):
                loader(bad, *args)
        bad = {k: v for k, v in doc.items() if k != "tensors"}
        with pytest.raises(fileio.SchemaError, match="missing required key 'tensors'"):
            fileio.parse_document(json.dumps(bad))


def test_cell_ceiling_refuses_standalone_documents():
    # the other loaders check their dimensions against structures already loaded
    for loader, doc, args in _loader_cases():
        if args:
            continue
        huge = json.loads(json.dumps(doc))
        for key, v in huge["dims"].items():
            if isinstance(v, int):
                huge["dims"][key] = 10**9
        with pytest.raises(fileio.SchemaError, match=str(fileio.MAX_CELLS)):
            loader(huge)


def test_cli_missing_tensors_exits_two(capsys, tmp_path):
    path = tmp_path / "that.json"
    path.write_text(
        json.dumps({"format_version": "1", "kind": "algebra2", "dims": {"dim0": 1, "dim1": 1}})
    )
    code, out, err = _run(capsys, "check", "algebra", str(path))
    assert code == 2 and out == ""
    assert str(path) in err and "'tensors'" in err


def test_cli_huge_dimensions_exit_two_fast(capsys, tmp_path):
    import time

    path = tmp_path / "huge.json"
    doc = {
        "format_version": "1",
        "kind": "algebra2",
        "dims": {"dim0": 1, "dim1": 1000000000},
        "tensors": {"l2_00": [{"indices": [0, 0, 0], "value": "1"}]},
    }
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = _run(capsys, "check", "algebra", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert str(path) in err and str(fileio.MAX_CELLS) in err


def test_cli_refuses_a_complex_over_the_work_budget_fast(capsys, tmp_path):
    # 10/10 documents pass MAX_CELLS, but d2 of the pair would be 143000 x 13100
    g = zero_algebra(10, 10)
    algebra, rep = tmp_path / "g.json", tmp_path / "r.json"
    algebra.write_text(json.dumps(fileio.dump_algebra(g)))
    r = trivial_representation(g, TwoTermComplex(10, 10, Matrix.zero(10, 10)))
    rep.write_text(json.dumps(fileio.dump_representation(r)))
    for argv in (["cohomology", algebra, rep], ["deform", "check", algebra, rep]):
        start = time.perf_counter()
        code, out, err = _run(capsys, *map(str, argv))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith(f"error: {algebra}") and "143000 x 13100" in err and str(MAX_D2_CELLS) in err


def _one_kernel_tuples(slots, cuts, dims):
    """The basis tuples with one argument past ``cuts``, listed."""
    return sum(len(list(Tuples(cuts, 1).of(dims, *degrees))) for degrees in slots.values())


def test_check_commands_refuse_work_over_the_budget_fast(capsys, tmp_path):
    empty = '{"dims":{%s},"format_version":"1","kind":"%s","tensors":{}}'

    def write(name, kind, **dims):
        path = tmp_path / f"{name}.json"
        path.write_text(empty % (",".join(f'"{k}":{v}' for k, v in dims.items()), kind))
        return str(path)

    def write_pair(name, dims, coefficients, xm=False):
        g = zero_algebra(*dims)
        base, rep = tmp_path / f"{name}.json", tmp_path / f"{name}_rep.json"
        if xm:
            x = xmod.algebra_to_crossed_module(g)
            base.write_text(json.dumps(fileio.dump_crossed_module(x)))
            r = xmod.xmod_trivial_representation(x, coefficients[1], coefficients[0])
            rep.write_text(json.dumps(fileio.dump_xmod_representation(r)))
        else:
            base.write_text(json.dumps(fileio.dump_algebra(g)))
            r = trivial_representation(g, TwoTermComplex(*coefficients, Matrix.zero(*coefficients)))
            rep.write_text(json.dumps(fileio.dump_representation(r)))
        return str(base), str(rep)

    # 120 bytes that declare a 30/30 algebra: its 920700 basis tuples,
    # each (30 + 30)^2 loop steps
    algebra30 = write("empty30", "algebra2", dim0=30, dim1=30)
    # a representation is checked on the tuples of g + V with one argument
    # in V, after g: 1/1 with 20/20 passes, 1/1 with 150/150 does not
    small, small_rep = write_pair("small", (1, 1), (20, 20))
    xsmall, xsmall_rep = write_pair("xsmall", (1, 1), (20, 20), xm=True)
    large, large_rep = write_pair("large", (1, 1), (150, 150))
    xlarge, xlarge_rep = write_pair("xlarge", (1, 1), (150, 150), xm=True)
    large_steps = 8 * 2**2 + _one_kernel_tuples(SLOTS, (1, 1), (151, 151)) * 302**2
    xlarge_steps = 7 * 2**2 + _one_kernel_tuples(xmod.XSLOTS, (1, 1), (151, 151)) * 302**2
    # a dense map from 5/1 applies l3 of 50/1 to three dense columns 125
    # times; a derivation of 13/13 is the splitting into 26/26 shifted by
    # it, with 14 nonzeros a column
    src, dst = write("src", "algebra2", dim0=5, dim1=1), write("dst", "algebra2", dim0=50, dim1=1)
    hom = write("hom", "homomorphism2", src0=5, src1=1, dst0=50, dst1=1)
    big, derivation = write("big", "algebra2", dim0=13, dim1=13), write("dv", "derivation2", dim0=13, dim1=13)
    for argv, steps in (
        (["check", "algebra", algebra30], 920700 * 60**2),
        (["check", "rep", large, large_rep], large_steps),
        (["cohomology", large, large_rep], large_steps),
        (["check", "xmod-rep", xlarge, xlarge_rep], xlarge_steps),
        (["xmod", "cohomology", xlarge, xlarge_rep], xlarge_steps),
        (["check", "hom", src, dst, hom], (1 + 25 + 10 + 125) * 51**2 * (52 + 51 * 2)),
        (["check", "derivation", big, derivation], (13 + 169 + 338 + 2197) * 15**2 * (53 + 15 * 27)),
    ):
        start = time.perf_counter()
        code, out, err = _run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "", argv
        first = argv[2] if argv[0] == "check" else argv[1 + (argv[0] == "xmod")]
        assert err.startswith(f"error: {first}") and f" {steps} " in err and str(MAX_D2_CELLS) in err, argv
    for argv in (["rep", small, small_rep], ["xmod-rep", xsmall, xsmall_rep], ["algebra", big]):
        assert _run(capsys, "check", *argv)[0] == 0, argv


def test_loaded_extensions_are_refused_by_the_check_of_their_total_fast(capsys, tmp_path):
    # a 1/1 base with a 20/20 kernel passes the d2 count of the base, but
    # checking the axioms of its 21/21 total takes 4.1e8 loop steps
    g = zero_algebra(1, 1)
    v = TwoTermComplex(20, 20, Matrix.zero(20, 20))
    e = build_extension(g, v, trivial_representation(g, v), zero_cochain2(g, trivial_representation(g, v)))
    x = xmod.algebra_to_crossed_module(g)
    xr = xmod.xmod_trivial_representation(x, 20, 20)
    xe = xmod_build_extension(x, xr, xmod_zero_cochain2(x, xr))
    plain, crossed = tmp_path / "e.json", tmp_path / "xe.json"
    plain.write_text(json.dumps(fileio.dump_extension(e)))
    crossed.write_text(json.dumps(fileio.dump_xmod_extension(xe)))
    for prefix, path in (([], plain), (["xmod"], crossed)):
        for action, files in (("extract", [path]), ("equiv", [path, path])):
            start = time.perf_counter()
            code, out, err = _run(capsys, *prefix, "ext", action, *map(str, files))
            assert time.perf_counter() - start < 1.0, (prefix, action)
            assert code == 2 and out == "", (prefix, action)
            assert err.startswith(f"error: {path}: checking dims (21, 21)") and str(MAX_D2_CELLS) in err


def test_work_budget_counts_the_assembled_shapes_and_passes_transported_5_5():
    g = direct_sum_algebra(fix_u(), fix_2d())
    x = xmod.algebra_to_crossed_module(direct_sum_algebra(fix_u(), fix_w()))
    trivial = trivial_representation(g, TwoTermComplex(2, 3, Matrix.zero(2, 3)))
    pairs = [
        (cohom2.complex_shape, assemble_matrices, g, adjoint_representation(g)),
        (cohom2.complex_shape, assemble_matrices, g, trivial),
        (xmod.xmod_complex_shape, xmod.xmod_assemble_matrices, x, xmod_adjoint(x)),
        (xmod.xmod_complex_shape, xmod.xmod_assemble_matrices, x, xmod.xmod_trivial_representation(x, 2, 3)),
    ]
    for dims in ((0, 1), (1, 0), (0, 0)):
        y = xmod.algebra_to_crossed_module(zero_algebra(*dims))
        for v, w in ((1, 2), (2, 1), (0, 1)):
            pairs.append((xmod.xmod_complex_shape, xmod.xmod_assemble_matrices, y, xmod.xmod_trivial_representation(y, v, w)))
    for shape, assemble, base, r in pairs:
        mats = assemble(base, r)
        c1, c2, rows = shape((base.dim0, base.dim1), (r.dim0, r.dim1))
        assert (mats.d1.shape, mats.d2.shape) == ((c2, c1), (rows, c2))
    _, c2, rows = cohom2.complex_shape((5, 5), (5, 5))
    assert (rows, c2) == (6000, 1025) and rows * c2 <= MAX_D2_CELLS


def test_cli_integer_literal_past_the_digit_limit_exits_two(capsys, tmp_path):
    # json.loads raises a plain ValueError here, which used to reach the
    # command's failure report (exit 1) instead of the input-error path
    path = tmp_path / "long.json"
    path.write_text(
        '{"format_version": "1", "kind": "algebra2", "dims": {"dim0": 1, "dim1": 1}, '
        '"tensors": {"d": [{"indices": [0, 0], "value": ' + "1" * 5000 + "}]}}"
    )
    code, out, err = _run(capsys, "check", "algebra", str(path))
    assert code == 2 and out == ""
    assert str(path) in err and "not valid JSON" in err


def test_cli_deeply_nested_json_exits_two(capsys, tmp_path):
    # well-formed JSON nested past the decoder's recursion limit, 10 KB
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code, out, err = _run(capsys, "check", "algebra", str(path))
    assert code == 2 and out == ""
    assert str(path) in err and "nested deeper" in err


def test_cli_refuses_unknown_tensor_names(capsys, tmp_path):
    # a misspelt "l2_00" used to load as an all-zero l2_00 and pass the check
    doc = json.loads(fixture_file("fix_u.json").read_text())
    doc["tensors"]["l2_0O"] = doc["tensors"].pop("l2_00")
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "check", "algebra", str(path))
    assert code == 2 and out == ""
    assert str(path) in err and "unknown tensor 'l2_0O' for kind 'algebra2'" in err
    # refused before any tensor is read: neither the malformed d nor the cell ceiling speaks first
    doc["tensors"]["d"] = "not a list"
    doc["dims"]["dim1"] = 10**9
    with pytest.raises(fileio.SchemaError, match="unknown tensor 'l2_0O'"):
        fileio.load_algebra(doc)


def test_cli_kind_of_another_json_type_exits_two(capsys, tmp_path):
    # a list or an object cannot be looked up in the kind table
    doc = json.loads(fixture_file("fix_u.json").read_text())
    for kind in ([], {}, ["algebra2"], 2, None, True):
        doc["kind"] = kind
        path = tmp_path / "kind.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "check", "algebra", str(path))
        assert code == 2 and out == "", kind
        assert err.startswith(f"error: {path}: ") and f"unknown kind {kind!r}" in err, kind


def test_optional_and_degree_dependent_tensor_names():
    g, x = fix_u(), fix_x()
    r, xr = adjoint_representation(g), xmod_adjoint(x)
    theta = ((((F(3),),),),)
    c, theta2 = fileio.load_cochain2(fileio.dump_cochain2(zero_cochain2(g, r), g, r, theta2=theta), g, r)
    assert c == zero_cochain2(g, r) and theta2 == theta
    one = fileio.dump_xmod_cochain1(xmod.XCochain1(Matrix.identity(1), Matrix.identity(1)), x, xr)
    assert isinstance(fileio.load_xmod_cochain(one, x, xr), xmod.XCochain1)
    two = {**one, "dims": {**one["dims"], "degree": 2}}
    with pytest.raises(fileio.SchemaError, match="unknown tensor 'n0' for kind 'xmod_cochain'"):
        fileio.load_xmod_cochain(two, x, xr)
    with pytest.raises(fileio.SchemaError, match="unknown tensor 'theta2' for kind 'xmod_cochain'"):
        fileio.load_xmod_cochain({**two, "tensors": {"theta2": []}}, x, xr)


def test_cli_index_lists_refuse_booleans(capsys, tmp_path):
    # JSON true is not the index 1
    g, x = fix_u(), fix_x()
    r, xr = adjoint_representation(g), xmod_adjoint(x)
    docs = {
        "sub0": (fileio.dump_extension(build_extension(g, r.complex, r, zero_cochain2(g, r))), ("ext",)),
        "subw": (
            fileio.dump_xmod_extension(xmod_build_extension(x, xr, xmod_zero_cochain2(x, xr))),
            ("xmod", "ext"),
        ),
    }
    for key, (doc, command) in docs.items():
        assert doc["dims"][key] == [1]
        doc["dims"][key] = [True]
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, *command, "extract", str(path))
        assert code == 2 and out == "", key
        assert str(path) in err and f"dims[{key!r}] must be a list of indices below 2" in err


def test_values_follow_the_ascii_grammar(capsys, tmp_path):
    doc = json.loads(fixture_file("fix_u.json").read_text())
    for value in ("1_0", "\u0661", "+1", " 1", "1 ", "1/+2", "1/ 2", "\uff11"):
        doc["tensors"]["d"] = [{"indices": [0, 0], "value": value}]
        path = tmp_path / "value.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "check", "algebra", str(path))
        assert code == 2 and out == "", value
        assert str(path) in err and "bad rational" in err, value
    # JSON integers keep loading
    doc["tensors"]["d"] = [{"indices": [0, 0], "value": -2}]
    assert fileio.load_algebra(doc).complex.diff.entries == ((F(-2),),)


def test_long_bad_values_give_a_short_message_fast(capsys, tmp_path):
    # each value is 5000 characters long; the message quotes a prefix of it
    doc = json.loads(fixture_file("fix_u.json").read_text())
    for value in ("1" * 5000, "+" + "1" * 4999, "1_" * 2500, "x" * 5000, "1/" + "0" * 4998, [1] * 1667):
        doc["tensors"]["l3"] = [{"indices": [0, 0, 0, 0], "value": value}]
        path = tmp_path / "value.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = _run(capsys, "check", "algebra", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        line = err.strip()
        assert line.startswith("error:") and "\n" not in line and len(line) < 400, line[:100]
        assert str(path) in line and "tensor 'l3'" in line and "bad rational" in line


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _fx(name):
    return str(fixture_file(name))


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_is_built_once_and_patched_functions_are_honoured(capsys, monkeypatch):
    argv = ("--format", "json", "cohomology", _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json"))
    first = _run(capsys, *argv)
    assert first[0] == 0
    parser = cli._parser()
    calls = []
    original = cohom2.second_cohomology
    monkeypatch.setattr(cohom2, "second_cohomology", lambda g, r: calls.append(g) or original(g, r))
    assert _run(capsys, *argv) == first and len(calls) == 1
    assert cli._parser() is parser


def test_cli_check_exit_codes(capsys):
    code, out, err = _run(capsys, "check", "algebra", _fx("fix_u.json"))
    assert code == 0 and "pass" in out
    code, out, err = _run(capsys, "check", "algebra", _fx("fix_u_bad.json"))
    assert code == 1 and "fail" in out
    code, out, err = _run(capsys, "check", "algebra", _fx("fix_u_malformed.json"))
    assert code == 2 and out == "" and "error" in err
    code, out, err = _run(capsys, "check", "algebra", "/nonexistent.json")
    assert code == 2 and out == ""


def test_cli_determinism(capsys):
    args = ("--format", "json", "cohomology", _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json"))
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["numbers"] == {"dim_b2": 1, "dim_h2": 1, "dim_z2": 2}


def test_cli_cohomology_zero_fixture_pinned(capsys):
    code, out, _ = _run(
        capsys, "--format", "json", "cohomology", _fx("fix_z.json"), _fx("trivial_rep_1_1.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["numbers"] == {"dim_b2": 0, "dim_h2": 5, "dim_z2": 5}


def test_cli_check_rep_and_xmod(capsys):
    code, out, _ = _run(capsys, "check", "rep", _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json"))
    assert code == 0
    code, out, _ = _run(capsys, "check", "xmod", _fx("fix_x.json"))
    assert code == 0
    code, out, _ = _run(capsys, "check", "xmod-rep", _fx("fix_x.json"), _fx("fix_x_adjoint_rep.json"))
    assert code == 0


def test_cli_check_hom_and_derivation(capsys, tmp_path):
    g = fix_u()
    hom = fileio.dumps(fileio.dump_homomorphism(identity_homomorphism(g)))
    p = tmp_path / "hom.json"
    p.write_text(hom)
    code, out, _ = _run(capsys, "check", "hom", _fx("fix_u.json"), _fx("fix_u.json"), str(p))
    assert code == 0
    der = {
        "format_version": "1",
        "kind": "derivation2",
        "dims": {"dim0": 1, "dim1": 1},
        "tensors": {},
    }
    p2 = tmp_path / "der.json"
    p2.write_text(json.dumps(der))
    code, out, _ = _run(capsys, "check", "derivation", _fx("fix_u.json"), str(p2))
    assert code == 0
    der["tensors"] = {"d0": [{"indices": [0, 0], "value": "1"}], "d1": [{"indices": [0, 0], "value": "1"}]}
    p2.write_text(json.dumps(der))
    code, out, _ = _run(capsys, "check", "derivation", _fx("fix_u.json"), str(p2))
    assert code == 1


def test_cli_cocycle_check_and_reduce(capsys, tmp_path):
    g = fix_u()
    adj = adjoint_representation(g)
    rng = random.Random(4)
    from assoc2.cohom2 import d1_apply

    cb = d1_apply(g, adj, random_cochain1(rng, g, adj))
    p = tmp_path / "cb.json"
    p.write_text(fileio.dumps(fileio.dump_cochain2(cb, g, adj)))
    code, out, _ = _run(capsys, "cocycle", "check", _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json"), str(p))
    assert code == 0
    code, out, _ = _run(capsys, "cocycle", "reduce", _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json"), str(p))
    assert code == 0 and "witness" in out
    bad = zero_cochain2(g, adj)
    bad = type(bad)(bad.psi, bad.omega, bad.mu, bad.nu, ((((F(1),),),),))
    p.write_text(fileio.dumps(fileio.dump_cochain2(bad, g, adj)))
    code, out, _ = _run(capsys, "cocycle", "check", _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json"), str(p))
    assert code == 1 and "not_cocycle" in out
    # over the zero fixture with trivial coefficients the image is zero
    gz = algebra_fixtures()["FIX-Z"]
    triv = trivial_representation(gz, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
    c = zero_cochain2(gz, triv)
    c = type(c)(Matrix(((F(1),),)), c.omega, c.mu, c.nu, c.theta)
    p.write_text(fileio.dumps(fileio.dump_cochain2(c, gz, triv)))
    code, out, _ = _run(capsys, "cocycle", "reduce", _fx("fix_z.json"), _fx("trivial_rep_1_1.json"), str(p))
    assert code == 1 and "not_coboundary" in out


def test_cli_deform_and_nijenhuis(capsys, tmp_path):
    g = fix_u()
    adj = adjoint_representation(g)
    z = zero_cochain2(g, adj)
    p = tmp_path / "pert.json"
    p.write_text(fileio.dumps(fileio.dump_cochain2(z, g, adj)))
    code, out, _ = _run(capsys, "deform", "check", _fx("fix_u.json"), str(p))
    assert code == 0
    bad = type(z)(z.psi, (((F(1),),),), z.mu, z.nu, z.theta)
    p.write_text(fileio.dumps(fileio.dump_cochain2(bad, g, adj)))
    code, out, _ = _run(capsys, "deform", "check", _fx("fix_u.json"), str(p))
    assert code == 1
    code, out, _ = _run(capsys, "nijenhuis", "check", _fx("fix_u.json"), _fx("fix_u_nijenhuis_id.json"))
    assert code == 0
    code, out, _ = _run(capsys, "nijenhuis", "apply", _fx("fix_u.json"), _fx("fix_u_nijenhuis_id.json"))
    assert code == 0 and "witness" in out


def test_cli_ext_workflow(capsys, tmp_path):
    g = fix_u()
    adj = adjoint_representation(g)
    z = zero_cochain2(g, adj)
    cz = tmp_path / "zero.json"
    cz.write_text(fileio.dumps(fileio.dump_cochain2(z, g, adj)))
    code, out, _ = _run(
        capsys, "--format", "json", "ext", "build", _fx("fix_u.json"), _fx("fix_u_adjoint_rep.json"), str(cz)
    )
    assert code == 0
    ext_doc = json.loads(out)["witness"]
    e1 = tmp_path / "e1.json"
    e1.write_text(json.dumps(ext_doc))
    code, out, _ = _run(capsys, "ext", "extract", str(e1))
    assert code == 0
    code, out, _ = _run(capsys, "ext", "equiv", str(e1), str(e1))
    assert code == 0
    # an inequivalent pair over the zero algebra with trivial coefficients
    gz = algebra_fixtures()["FIX-Z"]
    triv = trivial_representation(gz, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
    c0 = zero_cochain2(gz, triv)
    c1 = type(c0)(Matrix(((F(1),),)), c0.omega, c0.mu, c0.nu, c0.theta)
    ea = build_extension(gz, triv.complex, triv, c0)
    eb = build_extension(gz, triv.complex, triv, c1)
    pa, pb = tmp_path / "ea.json", tmp_path / "eb.json"
    pa.write_text(fileio.dumps(fileio.dump_extension(ea)))
    pb.write_text(fileio.dumps(fileio.dump_extension(eb)))
    code, out, _ = _run(capsys, "ext", "equiv", str(pa), str(pb))
    assert code == 1 and "inequivalent" in out


def test_cli_ext_equiv_on_a_non_complex_pair_is_a_domain_failure(capsys, tmp_path):
    # trivial coefficients over the zero-differential 1/1 complex: FIX-W+FIX-U
    # passes its checkers, but d2 . d1 != 0 on it (CONVENTIONS.md caveat)
    g, gu = direct_sum_algebra(fix_w(), fix_u()), fix_u()
    triv = trivial_representation(g, TwoTermComplex(1, 1, Matrix.zero(1, 1)))
    triv_u = trivial_representation(gu, triv.complex)
    paths = {}
    for name, doc in {
        "g": fileio.dump_algebra(g),
        "r": fileio.dump_representation(triv),
        "e": fileio.dump_extension(build_extension(g, triv.complex, triv, zero_cochain2(g, triv))),
        "u": fileio.dump_extension(build_extension(gu, triv.complex, triv_u, zero_cochain2(gu, triv_u))),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(fileio.dumps(doc))
    e, u = str(paths["e"]), str(paths["u"])
    for fmt in ("human", "json"):
        code, out, err = _run(capsys, "--format", fmt, "ext", "equiv", e, e)
        assert (code, err) == (1, "")
        # the same report as `cohomology` gives on the base pair
        assert (code, out, err) == _run(capsys, "--format", fmt, "cohomology", str(paths["g"]), str(paths["r"]))
    code, out, _ = _run(capsys, "--format", "json", "ext", "equiv", e, e)
    doc = json.loads(out)
    assert doc["verdict"] == "fail" and doc["numbers"]["error"].startswith("d2 . d1 != 0")
    # extensions that cannot be compared stay input errors
    code, out, err = _run(capsys, "ext", "equiv", e, u)
    assert (code, out) == (2, "") and "different bases" in err


def test_cli_xmod_ext_equiv_on_a_non_complex_pair_is_a_domain_failure(capsys, tmp_path, monkeypatch):
    x, x0 = fix_x(), fix_x_zero()
    e, e0 = tmp_path / "e.json", tmp_path / "e0.json"
    for path, base in ((e, x), (e0, x0)):
        adj = xmod_adjoint(base)
        ext = xmod_build_extension(base, adj, xmod_zero_cochain2(base, adj))
        path.write_text(fileio.dumps(fileio.dump_xmod_extension(ext)))
    code, out, err = _run(capsys, "xmod", "ext", "equiv", str(e), str(e0))
    assert (code, out) == (2, "") and "different bases" in err
    # No shipped crossed module gives an extension whose pair fails d2 . d1 = 0,
    # so the residual is replaced by a linear one that d1's image does not satisfy.
    monkeypatch.setattr(xmod, "xmod_d2_residual", lambda x, r, c: c.flatten())
    for fmt in ("human", "json"):
        code, out, err = _run(capsys, "--format", fmt, "xmod", "ext", "equiv", str(e), str(e))
        assert (code, err) == (1, "") and "d2 . d1 != 0 for this crossed-module representation" in out


def test_cli_xmod_mirror(capsys, tmp_path):
    code, out, _ = _run(capsys, "xmod", "cohomology", _fx("fix_x.json"), _fx("fix_x_adjoint_rep.json"))
    assert code == 0 and "dim_h2 = 1" in out
    x = fix_x()
    adj = xmod_adjoint(x)
    z = xmod_zero_cochain2(x, adj)
    p = tmp_path / "xc.json"
    p.write_text(fileio.dumps(fileio.dump_xmod_cochain2(z, x, adj)))
    code, out, _ = _run(capsys, "xmod", "cocycle", "check", _fx("fix_x.json"), _fx("fix_x_adjoint_rep.json"), str(p))
    assert code == 0
    code, out, _ = _run(capsys, "xmod", "cocycle", "reduce", _fx("fix_x.json"), _fx("fix_x_adjoint_rep.json"), str(p))
    assert code == 0 and "witness" in out
    code, out, _ = _run(capsys, "xmod", "deform", "check", _fx("fix_x.json"), str(p))
    assert code == 0
    n = tmp_path / "n.json"
    n.write_text(
        json.dumps(
            {
                "format_version": "1",
                "kind": "nijenhuis",
                "dims": {"dim0": 1, "dim1": 1},
                "tensors": {
                    "n0": [{"indices": [0, 0], "value": "1"}],
                    "n1": [{"indices": [0, 0], "value": "1"}],
                },
            }
        )
    )
    code, out, _ = _run(capsys, "xmod", "nijenhuis", "apply", _fx("fix_x.json"), str(n))
    assert code == 0
    code, out, _ = _run(
        capsys, "--format", "json", "xmod", "ext", "build", _fx("fix_x.json"), _fx("fix_x_adjoint_rep.json"), str(p)
    )
    assert code == 0
    e1 = tmp_path / "xe1.json"
    e1.write_text(json.dumps(json.loads(out)["witness"]))
    code, out, _ = _run(capsys, "xmod", "ext", "extract", str(e1))
    assert code == 0
    code, out, _ = _run(capsys, "xmod", "ext", "equiv", str(e1), str(e1))
    assert code == 0
    # inequivalent pair over the zero crossed module
    from assoc2.fixtures import fix_x_zero
    from assoc2.xmod import xmod_build_extension as xbuild

    x0 = fix_x_zero()
    adj0 = xmod_adjoint(x0)
    c0 = xmod_zero_cochain2(x0, adj0)
    c1 = type(c0)(Matrix(((F(1),),)), c0.omega, c0.mu, c0.nu)
    ea = tmp_path / "xea.json"
    eb = tmp_path / "xeb.json"
    ea.write_text(fileio.dumps(fileio.dump_xmod_extension(xbuild(x0, adj0, c0))))
    eb.write_text(fileio.dumps(fileio.dump_xmod_extension(xbuild(x0, adj0, c1))))
    code, out, _ = _run(capsys, "xmod", "ext", "equiv", str(ea), str(eb))
    assert code == 1 and "inequivalent" in out


@pytest.mark.parametrize("h, v, w", [(1, 1, 1), (2, 1, 1), (1, 1, 2)])
def test_cli_xmod_extension_over_a_base_without_degree_0(capsys, tmp_path, h, v, w):
    """With p = 0 the base's actions have an empty input; their output
    length comes from the declared dims, so the extension of the zero
    cochain passes its own check, and extraction gives the zero cochain."""
    x = xmod.algebra_to_crossed_module(zero_algebra(0, h))
    r = xmod.xmod_trivial_representation(x, v, w)
    paths = [tmp_path / name for name in ("x.json", "r.json", "c.json")]
    docs = fileio.dump_crossed_module(x), fileio.dump_xmod_representation(r)
    docs += (fileio.dump_xmod_cochain2(xmod_zero_cochain2(x, r), x, r),)
    for path, doc in zip(paths, docs):
        path.write_text(fileio.dumps(doc))
    code, out, _ = _run(capsys, "--format", "json", "xmod", "ext", "build", *map(str, paths))
    assert code == 0
    e = tmp_path / "e.json"
    e.write_text(json.dumps(json.loads(out)["witness"]))
    code, out, _ = _run(capsys, "--format", "json", "xmod", "ext", "extract", str(e))
    assert code == 0 and json.loads(out)["witness"]["cocycle"]["tensors"] == {}
    code, out, _ = _run(capsys, "xmod", "ext", "equiv", str(e), str(e))
    assert code == 0


def test_cli_xmod_nijenhuis_refuses_a_degree_2_part(capsys, tmp_path):
    """A crossed-module Nijenhuis pair is (N0, N1): a candidate file with a
    nonzero n2 is an input error (exit 2, nothing on stdout), which
    neither action evaluates; an n2 of explicit zeros is no part at all."""
    doc = json.loads(fileio.dumps(fileio.dump_nijenhuis(identity_candidate(fix_u()))))
    for value, code in (("5", 2), ("0", 0)):
        doc["tensors"]["n2"] = [{"indices": [0, 0, 0], "value": value}]
        n = tmp_path / f"n2_{value}.json"
        n.write_text(json.dumps(doc))
        for action in ("check", "apply"):
            got, out, err = _run(capsys, "--format", "json", "xmod", "nijenhuis", action, _fx("fix_x.json"), str(n))
            assert got == code, (value, action, err)
            if code == 2:
                assert out == "" and "no degree-2 part, so n2 must be zero" in err
    # the two-term theory reads the same file's n2
    assert _run(capsys, "nijenhuis", "apply", _fx("fix_u.json"), str(tmp_path / "n2_5.json"))[0] != 2


def test_cli_endalg_and_selftest(capsys):
    code, out, _ = _run(capsys, "endalg", "build", _fx("complex_1_1_id.json"))
    assert code == 0
    code, out, _ = _run(capsys, "--seed", "3", "selftest", "--trials", "2")
    assert code == 0 and "all checks passed" in out


def test_cli_max_violations(capsys, tmp_path):
    # a thoroughly broken algebra: many violations, truncated report
    doc = {
        "format_version": "1",
        "kind": "algebra2",
        "dims": {"dim0": 2, "dim1": 1},
        "tensors": {
            "l2_00": [
                {"indices": [0, 0, 1], "value": "1"},
                {"indices": [0, 1, 0], "value": "1"},
                {"indices": [1, 1, 1], "value": "1"},
            ]
        },
    }
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "--format", "json", "--max-violations", "2", "check", "algebra", str(p))
    assert code == 1
    rep = json.loads(out)
    assert rep["truncated"] is True
    assert len(rep["violations"]) == 2
    assert rep["total_violations"] > 2


def test_cli_negative_max_violations_is_a_usage_error(capsys):
    # a negative N used to slice the list silently: "truncated" with no violations
    with pytest.raises(SystemExit) as exc:
        main(["--format", "json", "--max-violations", "-1", "check", "algebra", _fx("fix_u_bad.json")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-violations" in captured.err
    code, out, _ = _run(capsys, "--format", "json", "--max-violations", "0", "check", "algebra", _fx("fix_u_bad.json"))
    assert code == 1 and json.loads(out)["total_violations"] == 1


def test_cli_precondition_failure_is_exit_one(capsys, tmp_path):
    # cohomology over an algebra violating its axioms: exit 1, not 2
    code, out, err = _run(
        capsys, "cohomology", _fx("fix_u_bad.json"), _fx("fix_u_adjoint_rep.json")
    )
    assert code == 1 and "fail" in out


# ---------------------------------------------------------------------------
# H2 reports: representatives written from their sparse kernel vectors
# ---------------------------------------------------------------------------

SUMMANDS = {"Z": fix_z, "U": fix_u, "D": fix_d, "W": fix_w, "L3": fix_l3, "M": fix_m}
# adjoint pairs that form a complex; the strict ones (l3 = 0) give crossed modules
TWO_TERM_SUMS = [("Z", "L3"), ("L3", "L3"), ("U", "M"), ("M", "L3"), ("Z", "Z", "U")]
STRICT_SUMS = [("Z", "D"), ("D", "W"), ("U", "W"), ("Z", "U", "D")]


def _cohomology_pair(theory, seed, names):
    g = SUMMANDS[names[0]]()
    for name in names[1:]:
        g = direct_sum_algebra(g, SUMMANDS[name]())
    g = random_transport(random.Random(seed), g)
    if theory == "algebra":
        r = adjoint_representation(g)
        files = (fileio.dump_algebra(g), fileio.dump_representation(r))
        return g, r, files, cohom2.second_cohomology, fileio.dump_cochain2
    x = xmod.algebra_to_crossed_module(g)
    r = xmod.xmod_adjoint(x)
    files = (fileio.dump_crossed_module(x), fileio.dump_xmod_representation(r))
    return x, r, files, xmod.xmod_second_cohomology, fileio.dump_xmod_cochain2


@settings(
    max_examples=12, deadline=None, phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seed=st.integers(0, 10**6),
    case=st.one_of(
        st.tuples(st.just("algebra"), st.sampled_from(TWO_TERM_SUMS)),
        st.tuples(st.just("xmod"), st.sampled_from(STRICT_SUMS)),
    ),
)
def test_cohomology_reports_equal_the_reports_of_the_object_dumpers(seed, case):
    """On transported two-term pairs and crossed modules above 1/1, the
    report written from the sparse kernel vectors equals, in both formats,
    the one built from ``representatives`` through the object dumpers, and
    each written representative loads back to its cochain."""
    theory, names = case
    base, r, files, h2, dump2 = _cohomology_pair(theory, seed, names)
    res = h2(base, r)
    prefix = [] if theory == "algebra" else ["xmod"]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, doc in zip(("base", "rep"), files):
            paths.append(Path(tmp) / f"{name}.json")
            paths[-1].write_text(fileio.dumps(doc), encoding="utf-8")
        for fmt in ("json", "human"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["--format", fmt, *prefix, "cohomology", *map(str, paths)])
            expected = io.StringIO()
            with contextlib.redirect_stdout(expected):
                cli._emit(
                    cli._report_doc(
                        "pass",
                        numbers={"dim_z2": res.dim_z2, "dim_b2": res.dim_b2, "dim_h2": res.dim_h2},
                        witness={"representatives": [dump2(c, base, r) for c in res.representatives]},
                    ),
                    fmt,
                )
            assert (code, out.getvalue()) == (0, expected.getvalue())
            if fmt == "json":
                written = json.loads(out.getvalue())["witness"]["representatives"]
    assert len(written) == res.dim_h2 == len(res.representatives)
    for doc, c in zip(written, res.representatives):
        if theory == "algebra":
            assert fileio.load_cochain2(doc, base, r) == (c, None)
        else:
            assert fileio.load_xmod_cochain(doc, base, r) == c


def test_cochain_vectors_are_written_as_their_cochains():
    """``dump_*_vector`` of a flattened cochain's nonzero coordinates is the
    document the object dumper writes, a two-cochain's theta2 included."""
    rng = random.Random(7)
    g = random_transport(rng, direct_sum_algebra(fix_u(), fix_l3()))
    r = adjoint_representation(g)
    c = random_cochain2(rng, g, r)
    theta2 = random_cochain2(rng, g, r).theta
    sparse = lambda flat: {k: x for k, x in enumerate(flat) if x}
    assert fileio.dump_cochain2_vector(sparse(c.flatten()), g, r) == fileio.dump_cochain2(c, g, r)
    doc = fileio.dump_cochain2(c, g, r, theta2=theta2)
    assert "theta2" in doc["tensors"] and fileio.load_cochain2(doc, g, r) == (c, theta2)
    x = xmod.algebra_to_crossed_module(random_transport(rng, direct_sum_algebra(fix_u(), fix_d())))
    xr = xmod.xmod_adjoint(x)
    xc = random_xcochain2(rng, x, xr)
    assert fileio.dump_xmod_cochain2_vector(sparse(xc.flatten()), x, xr) == fileio.dump_xmod_cochain2(xc, x, xr)


def test_ext_equiv_checks_a_base_both_files_carry_once(capsys, monkeypatch, tmp_path):
    g = random_transport(random.Random(3), direct_sum_algebra(fix_u(), fix_m()))
    r = adjoint_representation(g)
    # extensions by 0 and by a coboundary: equivalent, each file with its own copy of g
    e1, e2 = tmp_path / "e1.json", tmp_path / "e2.json"
    coboundary = cohom2.d1_apply(g, r, random_cochain1(random.Random(5), g, r))
    for path, c in ((e1, zero_cochain2(g, r)), (e2, coboundary)):
        path.write_text(fileio.dumps(fileio.dump_extension(build_extension(g, r.complex, r, c))))
    checked = []
    original = algebra2.algebra_residuals

    def counted(a, **kwargs):
        if "tuples" not in kwargs:
            checked.append((a.dim0, a.dim1))
        return original(a, **kwargs)

    monkeypatch.setattr(algebra2, "algebra_residuals", counted)
    for fmt in ("json", "human"):
        checked.clear()
        code, out, err = _run(capsys, "--format", fmt, "ext", "equiv", str(e1), str(e2))
        assert (code, err) == (0, "") and "pass" in out
        # two totals of dims (4, 4), one base of dims (2, 2)
        assert sorted(checked) == [(2, 2), (4, 4), (4, 4)]
