"""Seeded inputs and op lists for the benchmark workloads (the set-up phase).

Every input is built from the shipped one-dimensional fixtures by direct
sums (``fixtures.direct_sum_algebra``) in a seeded block order, optionally
followed by one seeded change of basis (``mixing_basis_change`` +
``sampling.transport_algebra``).  The seed only permutes blocks, picks
changes of basis, cochains and scalars; the multiset of fixture blocks of
every op is fixed per workload, so the work per round is the same on every
seed.

Each op carries the argv it passes to ``assoc2.cli.main`` and a check of its
output.  Expected answers come from how the input was built (a coboundary
d1(lambda) must reduce; a cocycle shifted by a non-trivial H2 class must
not) and from the brute-force oracle dimensions stored in ``oracle.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from assoc2 import algebra2, cohom2, deform2, ext2, fileio, rep2, sampling, xmod
from assoc2 import fixtures as fx
from assoc2.algebra2 import TwoTermComplex
from assoc2.exactlin import Matrix
from assoc2.tensorops import bil, tensor2, tensor3, tmap, tri

FIXTURES = {"Z": fx.fix_z, "U": fx.fix_u, "D": fx.fix_d, "L3": fx.fix_l3, "M": fx.fix_m, "W": fx.fix_w}


class CheckFailed(Exception):
    """An op's output disagrees with the expected answer."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    kind: str                        # CLI command, e.g. "cohomology"
    label: str                       # input description, e.g. "adjoint L3+U+M"
    argv: list
    principal: bool
    check: Callable[[int, dict], None]  # (exit code, parsed report) -> raises CheckFailed


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def direct_sum(names):
    gs = [FIXTURES[n]() for n in names]
    g = gs[0]
    for h in gs[1:]:
        g = fx.direct_sum_algebra(g, h)
    return g


def base_key(coeff: str, names) -> str:
    """Oracle key: H2 dimensions depend only on the multiset of blocks."""
    return f"{coeff}:{'+'.join(sorted(names))}"


def zero_complex(k: int) -> TwoTermComplex:
    return TwoTermComplex(k, k, Matrix.zero(k, k))


def block_maps(n: int, k: int):
    """Inclusion (n x 1) and projection (1 x n) of the k-th one-dimensional block."""
    incl = Matrix(tuple((Fraction(int(i == k)),) for i in range(n)), 1)
    return incl, incl.transpose()


def push_cochain2(c, p0: Matrix, p1: Matrix, q0: Matrix, q1: Matrix):
    """c(q args) pushed forward by p, for adjoint coefficients.

    With (p, q) = (inclusion, projection) of a direct-sum block this extends a
    block cochain by zero; with q = p^-1 it transports along a change of
    basis.  Both maps send cocycles to cocycles and non-trivial classes to
    non-trivial classes.
    """
    n0, n1 = q0.cols, q1.cols
    x = [q0.col(i) for i in range(n0)]
    a = [q1.col(p) for p in range(n1)]
    return cohom2.Cochain2(
        p0 @ c.psi @ q1,
        tensor2(n0, n0, lambda i, j: p0 @ bil(c.omega, x[i], x[j])),
        tensor2(n0, n1, lambda i, p: p1 @ bil(c.mu, x[i], a[p])),
        tensor2(n1, n0, lambda p, i: p1 @ bil(c.nu, a[p], x[i])),
        tensor3(n0, n0, n0, lambda i, j, k: p1 @ tri(c.theta, x[i], x[j], x[k])),
    )


def push_xcochain2(c, p0: Matrix, p1: Matrix, q0: Matrix, q1: Matrix):
    """Crossed-module mirror of push_cochain2 (adjoint: W = p, V = h)."""
    n0, n1 = q0.cols, q1.cols
    x = [q0.col(i) for i in range(n0)]
    a = [q1.col(p) for p in range(n1)]
    return xmod.XCochain2(
        p0 @ c.psi @ q1,
        tensor2(n0, n0, lambda i, j: p0 @ bil(c.omega, x[i], x[j])),
        tensor2(n0, n1, lambda i, p: p1 @ bil(c.mu, x[i], a[p])),
        tensor2(n1, n0, lambda p, i: p1 @ bil(c.nu, a[p], x[i])),
    )


def xscale2(c, s):
    return xmod.XCochain2(c.psi.scale(s), *(tmap(lambda v: s * v, t) for t in (c.omega, c.mu, c.nu)))


def nonzero(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))


# ---------------------------------------------------------------------------
# writing inputs
# ---------------------------------------------------------------------------

class Inputs:
    """Writes input documents into one work directory and hands out paths."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0
        root.mkdir(parents=True, exist_ok=True)

    def dump(self, stem: str, doc: dict) -> str:
        path = self.root / f"{self.count:03d}-{stem}.json"
        self.count += 1
        path.write_text(fileio.dumps(doc), encoding="utf-8")
        return str(path)


JSON = ["--format", "json"]


# ---------------------------------------------------------------------------
# checks shared by the ops
# ---------------------------------------------------------------------------

def check_h2(dims, is_cocycle):
    """Dimensions equal the oracle's, and there are dim_h2 cocycle representatives."""

    def check(code, doc):
        require(code == 0 and doc.get("verdict") == "pass", f"exit {code}, verdict {doc.get('verdict')}")
        nums = doc["numbers"]
        got = [nums["dim_z2"], nums["dim_b2"], nums["dim_h2"]]
        require(got == list(dims), f"dims {got} != oracle {list(dims)}")
        reps = doc["witness"]["representatives"]
        require(len(reps) == dims[2], f"{len(reps)} representatives for dim_h2 = {dims[2]}")
        for rep in reps:
            require(is_cocycle(rep), "a representative is not a cocycle")

    return check


def check_reduces(target, primitive_image):
    """Exit 0 with a primitive p whose d1(p) equals the input cochain."""

    def check(code, doc):
        require(code == 0 and doc.get("verdict") == "pass", f"exit {code}, verdict {doc.get('verdict')}")
        require(primitive_image(doc["witness"]) == target, "d1(primitive) differs from the cochain")

    return check


def check_not_coboundary(code, doc):
    require(code == 1 and doc.get("verdict") == "not_coboundary", f"exit {code}, verdict {doc.get('verdict')}")


def check_equivalent(difference, witness_image):
    """Exit 0 with a witness lambda whose d1(lambda) is c1 - c2."""

    def check(code, doc):
        require(code == 0 and doc.get("verdict") == "pass", f"exit {code}, verdict {doc.get('verdict')}")
        require(witness_image(doc["witness"]) == difference, "d1(witness) differs from c1 - c2")

    return check


def check_inequivalent(dim_b2):
    """Exit 1 with rank certificate rank_d1 = dim B2, rank_augmented = dim B2 + 1."""

    def check(code, doc):
        require(code == 1 and doc.get("verdict") == "inequivalent", f"exit {code}, verdict {doc.get('verdict')}")
        nums = doc["numbers"]
        require(nums["rank_d1"] == dim_b2, f"rank_d1 {nums['rank_d1']} != oracle dim_b2 {dim_b2}")
        require(nums["rank_augmented"] == dim_b2 + 1, f"rank_augmented {nums['rank_augmented']} != {dim_b2 + 1}")

    return check


def check_cocycle_pass(code, doc):
    require(code == 0 and doc.get("verdict") == "pass", f"exit {code}, verdict {doc.get('verdict')}")
    require(not doc["violations"], "violations reported on a cocycle")


def check_deform(g, c):
    """The verdict agrees with specialization at t = 1, 2, 3: the axiom
    residuals of g + t.c have degree at most 2 in t, so three roots mean the
    perturbation generates a deformation."""

    def check(code, doc):
        p = deform2.PolyStructure(g, c)
        sampled = all(
            algebra2.check_algebra(deform2.specialize(p, Fraction(t))).passed for t in (1, 2, 3)
        )
        want = ("pass", 0) if sampled else ("fail", 1)
        require((doc.get("verdict"), code) == want, f"verdict {doc.get('verdict')} / exit {code}, sampled says {want}")

    return check


# ---------------------------------------------------------------------------
# op builders, one per kind of input
# ---------------------------------------------------------------------------

def mixing_basis_change(rng, n: int) -> Matrix:
    """S.M, a seeded change of basis that mixes every coordinate.

    M[i][j] = min(i, j) + 1 is the product of the unit lower and the unit
    upper triangular matrix with every off-diagonal entry 1, so it is
    unimodular with no zero entry; S is a seeded signed permutation.
    ``sampling.random_unimodular`` draws the off-diagonal entries from
    -2..2: a zero makes the change of basis triangular and roughly halves
    an op's cost, so its draws would move a round's time by more than the
    benchmark's bounds.  Here every draw costs the same up to pivot order.
    """
    perm = rng.sample(range(n), n)
    signs = [Fraction(rng.choice((-1, 1))) for _ in range(n)]
    return Matrix(
        tuple(tuple(signs[i] * (min(perm[i], j) + 1) for j in range(n)) for i in range(n)), n
    )


def seeded_sum(rng, names, transport=False):
    """Direct sum in a seeded block order, optionally moved by one seeded
    change of basis (p0, p1); returns (order, algebra, (p0, p1) or None)."""
    order = rng.sample(list(names), len(names))
    g = direct_sum(order)
    if not transport:
        return order, g, None
    p = (mixing_basis_change(rng, g.dim0), mixing_basis_change(rng, g.dim1))
    return order, sampling.transport_algebra(g, *p), p


def describe(prefix, order, transport):
    return f"{prefix} {'+'.join(order)}" + (" transported" if transport else "")


def two_term_h2(out: Inputs, oracle, rng, names, coeff="adjoint", transport=False, principal=False):
    """`cohomology` on a direct sum in seeded block order, adjoint or trivial
    coefficients over a zero-differential complex, optionally transported."""
    order, g, _ = seeded_sum(rng, names, transport)
    if coeff == "adjoint":
        r = rep2.adjoint_representation(g)
    else:
        r = rep2.trivial_representation(g, zero_complex(int(coeff.removeprefix("trivial"))))
    dims = oracle[base_key(coeff, names)]

    def is_cocycle(doc):
        return cohom2.is_cocycle2(g, r, fileio.load_cochain2(doc, g, r)[0])

    argv = JSON + ["cohomology", out.dump("alg", fileio.dump_algebra(g)), out.dump("rep", fileio.dump_representation(r))]
    return [Op("cohomology", describe(coeff, order, transport), argv, principal, check_h2(dims, is_cocycle))]


def strict_xmod(rng, names, transport=False):
    order, g, _ = seeded_sum(rng, names, transport)
    x = xmod.algebra_to_crossed_module(g)
    return order, x, xmod.xmod_adjoint(x)


def xmod_h2(out: Inputs, oracle, rng, names, transport=False, principal=False):
    """`xmod cohomology` on a strict direct sum, adjoint coefficients."""
    order, x, r = strict_xmod(rng, names, transport)
    dims = oracle[base_key("xmod", names)]

    def is_cocycle(doc):
        c = fileio.load_xmod_cochain(doc, x, r)
        return all(v == 0 for v in xmod.xmod_d2_residual(x, r, c))

    argv = JSON + ["xmod", "cohomology", out.dump("xmod", fileio.dump_crossed_module(x)), out.dump("xrep", fileio.dump_xmod_representation(r))]
    return [Op("xmod cohomology", describe("xmod", order, transport), argv, principal, check_h2(dims, is_cocycle))]


def block_class(rng, order, h2_reps):
    """A seeded block with positive dim H2 and one of its H2 representatives."""
    reps = {name: h2_reps(name) for name in set(order)}
    k = rng.choice([k for k, name in enumerate(order) if reps[name]])
    return k, rng.choice(reps[order[k]])


ALL_ANSWERS = ("reduce yes", "reduce no", "equiv yes", "equiv no", "checks")


def two_term_queries(out: Inputs, oracle, rng, names, answers=ALL_ANSWERS):
    """Transported adjoint direct sum: the `answers` subset of reduce and ext
    equiv with yes and no answers, and a cocycle check plus a deform check.

    z is a non-trivial H2 class (a one-dimensional block's representative
    extended by zero, then transported), so z + d1(lambda) never reduces.
    """
    order, g, (p0, p1) = seeded_sum(rng, names, transport=True)
    n = len(order)
    q0, q1 = sampling.inverse(p0), sampling.inverse(p1)
    r = rep2.adjoint_representation(g)
    label = describe("adjoint", order, True)

    def h2_reps(name):
        f = FIXTURES[name]()
        return cohom2.second_cohomology(f, rep2.adjoint_representation(f)).representatives

    k, zb = block_class(rng, order, h2_reps)
    incl, proj = block_maps(n, k)
    z = push_cochain2(zb, p0 @ incl, p1 @ incl, proj @ q0, proj @ q1)
    dims = oracle[base_key("adjoint", names)]

    def lam():
        return sampling.random_cochain1(rng, g, r)

    def d1(c1):
        return cohom2.d1_apply(g, r, c1)

    def flat(c2):
        return cohom2.flatten_cochain2(c2)

    def image_of(doc):
        return flat(d1(fileio.load_cochain1(doc, g, r)))

    alg = out.dump("alg", fileio.dump_algebra(g))
    rep = out.dump("rep", fileio.dump_representation(r))

    def cochain(c2):
        return out.dump("c2", fileio.dump_cochain2(c2, g, r))

    def extension(c2):
        return out.dump("ext", fileio.dump_extension(ext2.build_extension(g, r.complex, r, c2)))

    ops = []

    def op(kind, answer, argv, check, principal=False):
        ops.append(Op(kind, f"{label} {answer}".rstrip(), JSON + argv, principal, check))

    if "reduce yes" in answers:
        c = d1(lam())
        op("cocycle reduce", "yes", ["cocycle", "reduce", alg, rep, cochain(c)], check_reduces(flat(c), image_of),
           principal=True)
    if "reduce no" in answers:
        c = z.scale(nonzero(rng)) + d1(lam())
        op("cocycle reduce", "no", ["cocycle", "reduce", alg, rep, cochain(c)], check_not_coboundary, principal=True)
    c1 = z.scale(nonzero(rng)) + d1(lam())
    if "equiv yes" in answers:
        c2 = c1 + d1(lam())
        op("ext equiv", "yes", ["ext", "equiv", extension(c1), extension(c2)],
           check_equivalent(flat(c1 - c2), image_of), principal=True)
    if "equiv no" in answers:
        c2 = c1 + z.scale(nonzero(rng)) + d1(lam())
        op("ext equiv", "no", ["ext", "equiv", extension(c1), extension(c2)],
           check_inequivalent(dims[1]), principal=True)
    if "checks" in answers:
        c = z.scale(nonzero(rng)) + d1(lam())
        op("cocycle check", "", ["cocycle", "check", alg, rep, cochain(c)], check_cocycle_pass)
        c = z.scale(nonzero(rng)) + d1(lam())
        op("deform check", "", ["deform", "check", alg, cochain(c)], check_deform(g, c))
    return ops


def xmod_queries(out: Inputs, oracle, rng, names):
    """Plain strict direct sum: xmod cocycle reduce and xmod ext equiv, yes and no."""
    order, x, r = strict_xmod(rng, names)
    n = len(order)
    label = describe("xmod", order, False)

    def h2_reps(name):
        xf = xmod.algebra_to_crossed_module(FIXTURES[name]())
        return xmod.xmod_second_cohomology(xf, xmod.xmod_adjoint(xf)).representatives

    k, zb = block_class(rng, order, h2_reps)
    incl, proj = block_maps(n, k)
    z = push_xcochain2(zb, incl, incl, proj, proj)
    dims = oracle[base_key("xmod", names)]

    def lam():
        return xmod.XCochain1(
            sampling.random_matrix(rng, r.wdim, x.pdim), sampling.random_matrix(rng, r.vdim, x.hdim)
        )

    def d1(c1):
        return xmod.xmod_d1_apply(x, r, c1)

    def image_of(doc):
        return xmod.xmod_flatten2(d1(fileio.load_xmod_cochain(doc, x, r)))

    xm = out.dump("xmod", fileio.dump_crossed_module(x))
    rep = out.dump("xrep", fileio.dump_xmod_representation(r))

    def cochain(c2):
        return out.dump("xc2", fileio.dump_xmod_cochain2(c2, x, r))

    def extension(c2):
        return out.dump("xext", fileio.dump_xmod_extension(xmod.xmod_build_extension(x, r, c2)))

    ops = []

    def op(kind, answer, argv, check):
        ops.append(Op(kind, f"{label} {answer}", JSON + ["xmod"] + argv, False, check))

    c = d1(lam())
    op("xmod cocycle reduce", "yes", ["cocycle", "reduce", xm, rep, cochain(c)],
       check_reduces(xmod.xmod_flatten2(c), image_of))
    c = xscale2(z, nonzero(rng)) + d1(lam())
    op("xmod cocycle reduce", "no", ["cocycle", "reduce", xm, rep, cochain(c)], check_not_coboundary)
    c1 = xscale2(z, nonzero(rng)) + d1(lam())
    e1 = extension(c1)
    c2 = c1 + d1(lam())
    op("xmod ext equiv", "yes", ["ext", "equiv", e1, extension(c2)],
       check_equivalent(xmod.xmod_flatten2(c1 - c2), image_of))
    c2 = c1 + xscale2(z, nonzero(rng)) + d1(lam())
    op("xmod ext equiv", "no", ["ext", "equiv", e1, extension(c2)], check_inequivalent(dims[1]))
    return ops


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def build_h2_plain(out, oracle, rng):
    return (
        two_term_h2(out, oracle, rng, ("U", "M", "L3"), principal=True)
        + two_term_h2(out, oracle, rng, ("U", "M", "L3"), coeff="trivial1")
        + xmod_h2(out, oracle, rng, ("U", "D", "W"))
    )


# Sums with a large H2 (L3 and Z blocks): after the change of basis the
# kernel and the representative loop, one rank call per candidate, outweigh
# assembly.  Each op draws its own change of basis.
TRANSPORTED_ADJOINT = [("L3", "L3"), ("Z", "L3")] * 5
TRANSPORTED_XMOD = [("Z", "D"), ("D", "W")] * 2


def build_h2_transported(out, oracle, rng):
    ops = []
    for names in TRANSPORTED_ADJOINT:
        ops += two_term_h2(out, oracle, rng, names, transport=True, principal=names == ("Z", "L3"))
    for names in TRANSPORTED_XMOD:
        ops += xmod_h2(out, oracle, rng, names, transport=True)
    return ops


# Each transported base answers one reduce and one equiv query, with
# opposite answers; alternating which is "yes" gives half yes, half no.
QUERY_BASES = [("U", "L3"), ("M", "U"), ("L3", "M"), ("U", "U"), ("Z", "M"), ("L3", "L3")]


def build_queries(out, oracle, rng):
    ops = []
    for k, names in enumerate(QUERY_BASES):
        answers = ("reduce yes", "equiv no") if k % 2 == 0 else ("reduce no", "equiv yes")
        ops += two_term_queries(out, oracle, rng, names, answers + (("checks",) if k == 0 else ()))
    return ops + xmod_queries(out, oracle, rng, ("U", "D", "W"))


def build_smoke(out, oracle, rng):
    """Every op kind once on 1/1 fixtures (a 1/1 change of basis is a sign)."""
    return (
        two_term_h2(out, oracle, rng, ("U",), principal=True)
        + two_term_h2(out, oracle, rng, ("L3",), coeff="trivial1")
        + two_term_h2(out, oracle, rng, ("L3",), transport=True)
        + xmod_h2(out, oracle, rng, ("D",))
        + two_term_queries(out, oracle, rng, ("U",))
        + xmod_queries(out, oracle, rng, ("U",))
    )


WORKLOADS = {
    "h2-plain": build_h2_plain,
    "h2-transported": build_h2_transported,
    "queries": build_queries,
}

# The ops whose latencies make op_p50_s: one kind and size each, so the
# median does not fall between two groups of different cost.  On queries the
# reduce and equiv latencies overlap (both are one solve against d1 after a
# full assembly), so both count, which doubles the samples.
PRINCIPAL = {
    "h2-plain": "cohomology on the adjoint 3/3 sum",
    "h2-transported": "cohomology on transported adjoint Z+L3",
    "queries": "two-term cocycle reduce and ext equiv, half yes, half no",
}


def build(workload: str, seed: int, root: Path, oracle: dict) -> list:
    builder = build_smoke if workload == "smoke" else WORKLOADS[workload]
    return builder(Inputs(root), oracle, random.Random(seed))
