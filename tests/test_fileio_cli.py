import json
import random
import time
from fractions import Fraction

import pytest

from assoc2 import fileio, xmod
from assoc2.algebra2 import TwoTermComplex, identity_homomorphism
from assoc2.cli import main
from assoc2.cohom2 import zero_cochain2
from assoc2.deform2 import identity_candidate
from assoc2.exactlin import Matrix
from assoc2.ext2 import build_extension
from assoc2.fixtures import (
    algebra_fixtures,
    direct_sum_algebra,
    fix_u,
    fix_w,
    fix_x,
    fix_x_zero,
    fixture_file,
    xmod_fixtures,
)
from assoc2.rep2 import adjoint_representation, trivial_representation
from assoc2.sampling import random_cochain1, random_cochain2, random_xcochain2
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
