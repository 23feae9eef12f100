"""The per-tuple residual generators and per-vector formulas, kept as the
reference for the sparse contractions that replaced them in ``algebra2``,
``deform2``, ``ext2`` and ``xmod``.

Each generator visits every selected basis tuple and evaluates both sides
of each identity with bilinear and trilinear loops (``tensorops.apply2``,
``apply3``) over a sparse view of each structure tensor, built once per
call, on unit vectors, columns and tensor values, exactly as the package
did before the sparse contractions.  ``tests/test_contraction.py``
requires the package's generators to yield the same stream: the same
(condition, tuple) order, equal sides and equal scalar types.

The Nijenhuis conditions of both theories, the second-order l3 of a
Nijenhuis deformation, the induced representation of an extension and
its abelian-kernel checks are the hand-written formulas the package used
before it read them off term tables; ``tests/test_tables.py`` requires the
same reports, representations and tensors from the package.

The crossed-module complex as ``xmod`` built it before it read the strict
slice of ``cohom2``'s: its own standard total, block by block, with the
families xcoc1-xcoc7 read off the crossed-module axioms of that total
(``XFAMILIES``) and d1 and the extracted cocycle off strict homomorphism
residuals (``XEXTRACTED``); ``tests/test_contraction.py`` requires the
same reports, cochains and totals, and the same row space of d2.
"""

from __future__ import annotations

from fractions import Fraction

from assoc2.algebra2 import AssocAlgebra, Bimodule, Tuples
from assoc2.exactlin import Matrix
from assoc2.extension import as_is, families_report, kernel_residuals, placed, shifted, stacked, swapped, tail_parts
from assoc2.extension import total_bilinear, total_matrix
from assoc2.integral import on_integers
from assoc2.tensorops import apply2, apply3, tensor2, tensor3, unit, vadd, view2, view3, vsub, vzero
from assoc2.xmod import CrossedModule, XModRepresentation, xmod_cochain_layouts


def _declared(view, n_out: int) -> tuple:
    """A sparse view with the output length its structure declares: a
    tensor with an empty input has none to show."""
    return (*view[:2], n_out)


class _Products:
    """The per-vector products of a two-term algebra over views built once,
    named as the methods the reference formulas were written with."""

    def __init__(self, g):
        self.v00, self.v01 = _declared(view2(g.l2_00), g.dim0), _declared(view2(g.l2_01), g.dim1)
        self.v10, self.v3 = _declared(view2(g.l2_10), g.dim1), _declared(view3(g.l3), g.dim1)

    def m00(self, x, y):
        return apply2(self.v00, x, y)

    def m01(self, x, a):
        return apply2(self.v01, x, a)

    def m10(self, a, x):
        return apply2(self.v10, a, x)

    def l3v(self, x, y, z):
        return apply3(self.v3, x, y, z)


class _XProducts:
    """The same for a crossed module: the product of p and the actions on h."""

    def __init__(self, x):
        self.mul = _declared(view2(x.p_alg.mul), x.pdim)
        self.left, self.right = _declared(view2(x.h_mod.left), x.hdim), _declared(view2(x.h_mod.right), x.hdim)

    def product(self, u, v):
        return apply2(self.mul, u, v)

    def act_left(self, x, u):
        return apply2(self.left, x, u)

    def act_right(self, u, x):
        return apply2(self.right, u, x)


def assoc_residuals(a, tuples=None):
    n = a.dim
    mul = _declared(view2(a.mul), n)
    for i, j, k in (tuples or Tuples((n,), 0)).of((n,), 0, 0, 0):
        yield "assoc", (i, j, k), apply2(mul, a.mul[i][j], unit(n, k)), apply2(mul, unit(n, i), a.mul[j][k])


def bimodule_residuals(m, tuples=None):
    a = m.algebra
    dims = n, md = a.dim, m.dim
    left, right = _declared(view2(m.left), md), _declared(view2(m.right), md)
    for i, j, p in (tuples or Tuples(dims, 0)).of(dims, 0, 0, 1):
        x, y, u = unit(n, i), unit(n, j), unit(md, p)
        yield "left", (i, j, p), apply2(left, a.mul[i][j], u), apply2(left, x, m.left[j][p])
        yield "middle", (i, p, j), apply2(left, x, m.right[p][j]), apply2(right, m.left[i][p], y)
        yield "right", (p, i, j), apply2(right, u, a.mul[i][j]), apply2(right, m.right[p][i], y)


def algebra_residuals(g, tuples=None):
    dims = n0, n1 = g.dim0, g.dim1
    tuples = tuples or Tuples(dims, 0)
    d = g.complex.diff
    pr = _Products(g)
    e = [unit(n0, i) for i in range(n0)]
    f = [unit(n1, p) for p in range(n1)]
    dcol = [d.col(p) for p in range(n1)]

    for i, p in tuples.of(dims, 0, 1):
        yield "a", (i, p), d @ g.l2_01[i][p], pr.m00(e[i], dcol[p])
        yield "b", (p, i), d @ g.l2_10[p][i], pr.m00(dcol[p], e[i])
    for p, q in tuples.of(dims, 1, 1):
        yield "c", (p, q), pr.m01(dcol[p], f[q]), pr.m10(f[p], dcol[q])
    for (i, j), rest in tuples.split(dims, 0, 0):
        xy = g.l2_00[i][j]
        for (k,) in rest.of(dims, 0):
            yield "d", (i, j, k), d @ g.l3[i][j][k], vsub(pr.m00(xy, e[k]), pr.m00(e[i], g.l2_00[j][k]))
        for (p,) in rest.of(dims, 1):
            yield "e1", (i, j, p), pr.l3v(e[i], e[j], dcol[p]), vsub(pr.m01(xy, f[p]), pr.m01(e[i], g.l2_01[j][p]))
            yield (
                "e2", (i, p, j), pr.l3v(e[i], dcol[p], e[j]),
                vsub(pr.m10(g.l2_01[i][p], e[j]), pr.m01(e[i], g.l2_10[p][j])),
            )
            yield "e3", (p, i, j), pr.l3v(dcol[p], e[i], e[j]), vsub(pr.m10(g.l2_10[p][i], e[j]), pr.m10(f[p], xy))
    for i, j, k, t in tuples.of(dims, 0, 0, 0, 0):
        lhs = vadd(pr.m01(e[i], g.l3[j][k][t]), pr.m10(g.l3[i][j][k], e[t]))
        rhs = vadd(
            pr.l3v(g.l2_00[i][j], e[k], e[t]),
            vsub(pr.l3v(e[i], e[j], g.l2_00[k][t]), pr.l3v(e[i], g.l2_00[j][k], e[t])),
        )
        yield "f", (i, j, k, t), lhs, rhs


def homomorphism_residuals(h):
    g, gp = h.source, h.target
    n0, n1 = g.dim0, g.dim1
    e = [unit(n0, i) for i in range(n0)]
    d, dp = g.complex.diff, gp.complex.diff
    f0col = [h.f0.col(i) for i in range(n0)]
    f1col = [h.f1.col(p) for p in range(n1)]
    f2 = _declared(view2(h.f2), gp.dim1)
    pr = _Products(gp)

    for p in range(n1):
        yield "i", (p,), h.f0 @ d.col(p), dp @ f1col[p]
    for i in range(n0):
        for j in range(n0):
            lhs = vsub(h.f0 @ g.l2_00[i][j], pr.m00(f0col[i], f0col[j]))
            yield "ii", (i, j), lhs, dp @ h.f2[i][j]
        for p in range(n1):
            lhs = vsub(h.f1 @ g.l2_01[i][p], pr.m01(f0col[i], f1col[p]))
            yield "iii1", (i, p), lhs, apply2(f2, e[i], d.col(p))
            lhs = vsub(h.f1 @ g.l2_10[p][i], pr.m10(f1col[p], f0col[i]))
            yield "iii2", (p, i), lhs, apply2(f2, d.col(p), e[i])
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                lhs = vsub(h.f1 @ g.l3[i][j][k], pr.l3v(f0col[i], f0col[j], f0col[k]))
                rhs = vadd(
                    vsub(apply2(f2, e[i], g.l2_00[j][k]), apply2(f2, g.l2_00[i][j], e[k])),
                    vsub(pr.m01(f0col[i], h.f2[j][k]), pr.m10(h.f2[i][j], f0col[k])),
                )
                yield "iv", (i, j, k), lhs, rhs


def crossed_module_residuals(x, tuples=None):
    dims = (x.pdim, x.hdim)
    tuples = tuples or Tuples(dims, 0)
    yield from assoc_residuals(x.p_alg, tuples)
    yield from bimodule_residuals(x.h_mod, tuples)
    e = [unit(x.pdim, i) for i in range(x.pdim)]
    fb = [unit(x.hdim, a) for a in range(x.hdim)]
    fcol = [x.f_map.col(a) for a in range(x.hdim)]
    xp = _XProducts(x)
    for i, a in tuples.of(dims, 0, 1):
        yield "equiv-l", (i, a), x.f_map @ x.h_mod.left[i][a], xp.product(e[i], fcol[a])
        yield "equiv-r", (a, i), x.f_map @ x.h_mod.right[a][i], xp.product(fcol[a], e[i])
    for a, b in tuples.of(dims, 1, 1):
        yield "peiffer", (a, b), xp.act_left(fcol[a], fb[b]), xp.act_right(fb[a], fcol[b])


def xmod_homomorphism_residuals(src, dst, f0, f1):
    np_, nh = src.pdim, src.hdim
    f0col = [f0.col(i) for i in range(np_)]
    f1col = [f1.col(a) for a in range(nh)]
    dp = _XProducts(dst)
    for a in range(nh):
        yield "hom-f", (a,), dst.f_map @ f1col[a], f0 @ src.f_map.col(a)
    for i in range(np_):
        for j in range(np_):
            yield "hom-alg", (i, j), f0 @ src.p_alg.mul[i][j], dp.product(f0col[i], f0col[j])
        for a in range(nh):
            yield "hom-left", (i, a), f1 @ src.h_mod.left[i][a], dp.act_left(f0col[i], f1col[a])
            yield "hom-right", (a, i), f1 @ src.h_mod.right[a][i], dp.act_right(f1col[a], f0col[i])


# ---------------------------------------------------------------------------
# Nijenhuis conditions and the second-order l3 of a Nijenhuis deformation
# ---------------------------------------------------------------------------

def _derived_maps(g, n):
    pr = _Products(g)
    n0d, n1d = g.dim0, g.dim1
    e = [unit(n0d, i) for i in range(n0d)]
    fv = [unit(n1d, p) for p in range(n1d)]
    n0col = [n.n0.col(i) for i in range(n0d)]
    n1col = [n.n1.col(p) for p in range(n1d)]
    d = g.complex.diff

    d_n = Matrix.from_cols([vsub(d @ n1col[p], n.n0 @ d.col(p)) for p in range(n1d)], n0d)
    dot00 = tensor2(
        n0d, n0d,
        lambda i, j: vsub(vadd(pr.m00(n0col[i], e[j]), pr.m00(e[i], n0col[j])), n.n0 @ g.l2_00[i][j]),
    )
    dot01 = tensor2(
        n0d, n1d,
        lambda i, p: vsub(vadd(pr.m01(n0col[i], fv[p]), pr.m01(e[i], n1col[p])), n.n1 @ g.l2_01[i][p]),
    )
    dot10 = tensor2(
        n1d, n0d,
        lambda p, i: vsub(vadd(pr.m10(n1col[p], e[i]), pr.m10(fv[p], n0col[i])), n.n1 @ g.l2_10[p][i]),
    )
    l3_n = tensor3(
        n0d, n0d, n0d,
        lambda i, j, k: vsub(
            vadd(pr.l3v(n0col[i], e[j], e[k]), pr.l3v(e[i], n0col[j], e[k]), pr.l3v(e[i], e[j], n0col[k])),
            n.n1 @ g.l3[i][j][k],
        ),
    )
    l3_n2 = tensor3(
        n0d, n0d, n0d,
        lambda i, j, k: vsub(
            vadd(
                pr.l3v(n0col[i], n0col[j], e[k]),
                pr.l3v(n0col[i], e[j], n0col[k]),
                pr.l3v(e[i], n0col[j], n0col[k]),
            ),
            n.n1 @ l3_n[i][j][k],
        ),
    )
    return d_n, dot00, dot01, dot10, l3_n, l3_n2


def nijenhuis_residuals(g, n):
    pr = _Products(g)
    n0d, n1d = g.dim0, g.dim1
    n0col = [n.n0.col(i) for i in range(n0d)]
    n1col = [n.n1.col(p) for p in range(n1d)]
    d_n, dot00, dot01, dot10, l3_n, l3_n2 = _derived_maps(g, n)

    for p in range(n1d):
        yield "i", (p,), n.n0 @ d_n.col(p), (Fraction(0),) * n0d
    for i in range(n0d):
        for j in range(n0d):
            yield "ii", (i, j), n.n0 @ dot00[i][j], pr.m00(n0col[i], n0col[j])
        for p in range(n1d):
            yield "iii", (i, p), n.n1 @ dot01[i][p], pr.m01(n0col[i], n1col[p])
            yield "iv", (p, i), n.n1 @ dot10[p][i], pr.m10(n1col[p], n0col[i])
    for i in range(n0d):
        for j in range(n0d):
            for k in range(n0d):
                yield "v", (i, j, k), n.n1 @ l3_n2[i][j][k], pr.l3v(n0col[i], n0col[j], n0col[k])


def nijenhuis_theta2(g, n, first):
    """The second-order l3 of ``deform2.nijenhuis_deformation``, given its
    first-order part ``first``."""
    pr = _Products(g)
    n0d = g.dim0
    e = [unit(n0d, i) for i in range(n0d)]
    n0col = [n.n0.col(i) for i in range(n0d)]
    theta1 = first.theta
    omega = first.omega
    n2 = view2(n.n2)
    return tensor3(
        n0d,
        n0d,
        n0d,
        lambda i, j, k: vadd(
            pr.l3v(n0col[i], n0col[j], e[k]),
            pr.l3v(n0col[i], e[j], n0col[k]),
            pr.l3v(e[i], n0col[j], n0col[k]),
            vsub(apply2(n2, e[i], omega[j][k]), n.n1 @ theta1[i][j][k]),
            vsub(pr.m01(n0col[i], n.n2[j][k]), apply2(n2, omega[i][j], e[k])),
            vsub((Fraction(0),) * g.dim1, pr.m10(n.n2[i][j], n0col[k])),
        ),
    )


def xmod_nijenhuis_residuals(x, n0, n1):
    xp = _XProducts(x)
    np_, nh = x.pdim, x.hdim
    e = [unit(np_, i) for i in range(np_)]
    ha = [unit(nh, a) for a in range(nh)]
    n0col = [n0.col(i) for i in range(np_)]
    n1col = [n1.col(a) for a in range(nh)]
    dotp = lambda i, j: vsub(
        vadd(xp.product(n0col[i], e[j]), xp.product(e[i], n0col[j])),
        n0 @ x.p_alg.mul[i][j],
    )
    dotl = lambda i, a: vsub(
        vadd(xp.act_left(n0col[i], ha[a]), xp.act_left(e[i], n1col[a])),
        n1 @ x.h_mod.left[i][a],
    )
    dotr = lambda a, i: vsub(
        vadd(xp.act_right(n1col[a], e[i]), xp.act_right(ha[a], n0col[i])),
        n1 @ x.h_mod.right[a][i],
    )
    for a in range(nh):
        yield "i", (a,), x.f_map @ n1col[a], n0 @ x.f_map.col(a)
    for i in range(np_):
        for j in range(np_):
            yield "ii", (i, j), n0 @ dotp(i, j), xp.product(n0col[i], n0col[j])
        for a in range(nh):
            yield "iii", (i, a), n1 @ dotl(i, a), xp.act_left(n0col[i], n1col[a])
            yield "iv", (a, i), n1 @ dotr(a, i), xp.act_right(n1col[a], n0col[i])


# ---------------------------------------------------------------------------
# extensions: the induced representation and the abelian kernel
# ---------------------------------------------------------------------------

def abelian_residuals(e):
    """The abelian-kernel part of ``ext2.extension_residuals``."""
    pr = _Products(e.total)
    n0, n1 = e.total.dim0, e.total.dim1
    for s in range(e.hdim0):
        us = e.incl0(unit(e.hdim0, s))
        for t in range(e.hdim0):
            ut = e.incl0(unit(e.hdim0, t))
            yield "abelian-00", (s, t), pr.m00(us, ut), vzero(n0)
            for k in range(n0):
                ek = unit(n0, k)
                yield "abelian-l3a", (s, t, k), pr.l3v(us, ut, ek), vzero(n1)
                yield "abelian-l3b", (s, k, t), pr.l3v(us, ek, ut), vzero(n1)
                yield "abelian-l3c", (k, s, t), pr.l3v(ek, us, ut), vzero(n1)
        for t in range(e.hdim1):
            mt = e.incl1(unit(e.hdim1, t))
            yield "abelian-01", (s, t), pr.m01(us, mt), vzero(n1)
            yield "abelian-10", (t, s), pr.m10(mt, us), vzero(n1)


def extract_representation(e):
    """``ext2.extract_representation`` after its extension check."""
    from assoc2.rep2 import Representation2

    g = e.base
    n0, n1 = g.dim0, g.dim1
    h = e.kernel_complex()
    s0 = [e.sigma0.col(i) for i in range(n0)]
    s1 = [e.sigma1.col(p) for p in range(n1)]
    t = _Products(e.total)
    hu = [e.incl0(unit(e.hdim0, s)) for s in range(e.hdim0)]
    hw = [e.incl1(unit(e.hdim1, s)) for s in range(e.hdim1)]

    return Representation2(
        algebra=g,
        complex=h,
        l0v0=tensor2(n0, e.hdim0, lambda i, s: e.restrict0(t.m00(s0[i], hu[s]))),
        l0v1=tensor2(n0, e.hdim1, lambda i, s: e.restrict1(t.m01(s0[i], hw[s]))),
        r0v0=tensor2(e.hdim0, n0, lambda s, i: e.restrict0(t.m00(hu[s], s0[i]))),
        r0v1=tensor2(e.hdim1, n0, lambda s, i: e.restrict1(t.m10(hw[s], s0[i]))),
        l1=tensor2(n1, e.hdim0, lambda p, s: e.restrict1(t.m10(s1[p], hu[s]))),
        r1=tensor2(e.hdim0, n1, lambda s, p: e.restrict1(t.m01(hu[s], s1[p]))),
        tl=tensor3(n0, n0, e.hdim0, lambda i, j, s: e.restrict1(t.l3v(s0[i], s0[j], hu[s]))),
        tm=tensor3(n0, e.hdim0, n0, lambda i, s, j: e.restrict1(t.l3v(s0[i], hu[s], s0[j]))),
        tr=tensor3(e.hdim0, n0, n0, lambda s, i, j: e.restrict1(t.l3v(hu[s], s0[i], s0[j]))),
    )


def xmod_abelian_residuals(e):
    """The abelian-kernel part of ``xmod.xmod_extension_residuals``."""
    xp = _XProducts(e.total)
    nP, nH = e.total.pdim, e.total.hdim
    for s in range(e.hdim0):
        ws = e.incl0(unit(e.hdim0, s))
        for t in range(e.hdim0):
            yield "abelian-WW", (s, t), xp.product(ws, e.incl0(unit(e.hdim0, t))), vzero(nP)
        for t in range(e.hdim1):
            vt = e.incl1(unit(e.hdim1, t))
            yield "abelian-WV", (s, t), xp.act_left(ws, vt), vzero(nH)
            yield "abelian-VW", (t, s), xp.act_right(vt, ws), vzero(nH)


def xmod_extract_representation(e):
    """``xmod.xmod_extract_representation`` after its extension check."""
    b = e.base
    nP, nH = b.pdim, b.hdim
    s0 = [e.sigma0.col(i) for i in range(nP)]
    s1 = [e.sigma1.col(a) for a in range(nH)]
    t = e.total
    xp = _XProducts(t)
    wv = [e.incl0(unit(e.hdim0, s)) for s in range(e.hdim0)]
    vv = [e.incl1(unit(e.hdim1, s)) for s in range(e.hdim1)]

    v_mod = Bimodule(
        b.p_alg,
        e.hdim1,
        tensor2(nP, e.hdim1, lambda i, s: e.restrict1(xp.act_left(s0[i], vv[s]))),
        tensor2(e.hdim1, nP, lambda s, i: e.restrict1(xp.act_right(vv[s], s0[i]))),
    )
    w_mod = Bimodule(
        b.p_alg,
        e.hdim0,
        tensor2(nP, e.hdim0, lambda i, s: e.restrict0(xp.product(s0[i], wv[s]))),
        tensor2(e.hdim0, nP, lambda s, i: e.restrict0(xp.product(wv[s], s0[i]))),
    )
    phi = Matrix.from_cols([e.restrict0(t.f_map @ vv[s]) for s in range(e.hdim1)], e.hdim0)
    tr_l = tensor2(nH, e.hdim0, lambda a, s: e.restrict1(xp.act_right(s1[a], wv[s])))
    tr_r = tensor2(e.hdim0, nH, lambda s, a: e.restrict1(xp.act_left(wv[s], s1[a])))
    return XModRepresentation(b, v_mod, w_mod, phi, tr_l, tr_r)


# ---------------------------------------------------------------------------
# the crossed-module complex: its own standard total and tables
# ---------------------------------------------------------------------------

# the kernel part of each axiom of the standard total on a base tuple:
# (cocycle family, orientation, degree of the values)
XFAMILIES = {
    "equiv-l": ("xcoc1", as_is, 0), "equiv-r": ("xcoc2", as_is, 0), "peiffer": ("xcoc3", as_is, 1),
    "assoc": ("xcoc4", swapped, 0), "left": ("xcoc5", swapped, 1), "right": ("xcoc6", as_is, 1),
    "middle": ("xcoc7", as_is, 1),
}

# as ``cohom2.EXTRACTED``, for a strict splitting (f0, f1)
XEXTRACTED = {
    "hom-f": ("psi", as_is, 0), "hom-alg": ("omega", swapped, 0),
    "hom-left": ("mu", swapped, 1), "hom-right": ("nu", swapped, 1),
}


def xmod_extension_total(x, r, c):
    """The standard total on (p + W, h + V) twisted by c: f_map [[f, 0],
    [psi, phi]], products and actions x's plus omega, mu, nu on base
    arguments and r's actions and pairings on mixed ones."""
    deg0, deg1 = (x.pdim, r.wdim), (x.hdim, r.vdim)
    p_alg = AssocAlgebra(sum(deg0), total_bilinear(x.p_alg.mul, c.omega, r.w_mod.left, r.w_mod.right, (deg0,) * 3))
    left = total_bilinear(x.h_mod.left, c.mu, r.v_mod.left, r.tr_r, (deg0, deg1, deg1))
    right = total_bilinear(x.h_mod.right, c.nu, r.tr_l, r.v_mod.right, (deg1, deg0, deg1))
    return CrossedModule(p_alg, Bimodule(p_alg, sum(deg1), left, right), total_matrix(x.f_map, c.psi, r.phi))


def total_xcocycle_families(total, x):
    """(family, basis tuple, lhs, rhs) for xcoc1-xcoc7: the kernel part of
    the crossed-module axioms of ``total`` on x's basis tuples."""
    cuts = (x.pdim, x.hdim)
    return kernel_residuals(crossed_module_residuals(total, tuples=Tuples(cuts, 0)), XFAMILIES, tail_parts(cuts))


def xmod_cocycle_report(x, r, c):
    return families_report(total_xcocycle_families(xmod_extension_total(x, r, c), x))


def xmod_d2_residual(x, r, c):
    return stacked(total_xcocycle_families(xmod_extension_total(x, r, c), x))


def xmod_d1_apply(x, r, c):
    """The cocycle extracted from the splitting x -> x + N0(x),
    a -> a + N1(a) of the semidirect product (the total of zero)."""
    layout = xmod_cochain_layouts(x.pdim, x.hdim, r.vdim, r.wdim)[1]
    semidirect = xmod_extension_total(x, r, layout.zero())
    residuals = xmod_homomorphism_residuals(x, semidirect, shifted(c.n0), shifted(c.n1))
    return placed(kernel_residuals(residuals, XEXTRACTED, tail_parts((x.pdim, x.hdim))), layout)


def xmod_extract_cocycle(e):
    """``xmod.xmod_extract_cocycle`` after its extension check."""
    b = e.base
    sigma = on_integers((b, e.total, e.sigma0, e.sigma1))
    residuals = kernel_residuals(xmod_homomorphism_residuals(*sigma), XEXTRACTED, (e.restrict0, e.restrict1))
    return placed(residuals, xmod_cochain_layouts(b.pdim, b.hdim, e.hdim1, e.hdim0)[1])
