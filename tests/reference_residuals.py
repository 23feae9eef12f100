"""The per-tuple residual generators, kept as the reference for the sparse
contractions that replaced them in ``algebra2`` and ``xmod``.

Each generator visits every selected basis tuple and evaluates both sides
of each identity with the structure's own bilinear and trilinear loops on
unit vectors, columns and tensor values, exactly as the package did before
the sparse contractions.  ``tests/test_contraction.py`` requires the
package's generators to yield the same stream: the same (condition, tuple)
order, equal sides and equal scalar types.
"""

from __future__ import annotations

from assoc2.algebra2 import Tuples
from assoc2.tensorops import apply2, unit, vadd, view2, vsub


def assoc_residuals(a, tuples=None):
    n = a.dim
    for i, j, k in (tuples or Tuples((n,), 0)).of((n,), 0, 0, 0):
        yield "assoc", (i, j, k), a.product(a.mul[i][j], unit(n, k)), a.product(unit(n, i), a.mul[j][k])


def bimodule_residuals(m, tuples=None):
    a = m.algebra
    dims = n, md = a.dim, m.dim
    for i, j, p in (tuples or Tuples(dims, 0)).of(dims, 0, 0, 1):
        x, y, u = unit(n, i), unit(n, j), unit(md, p)
        yield "left", (i, j, p), m.act_left(a.mul[i][j], u), m.act_left(x, m.left[j][p])
        yield "middle", (i, p, j), m.act_left(x, m.right[p][j]), m.act_right(m.left[i][p], y)
        yield "right", (p, i, j), m.act_right(u, a.mul[i][j]), m.act_right(m.right[p][i], y)


def algebra_residuals(g, tuples=None):
    dims = n0, n1 = g.dim0, g.dim1
    tuples = tuples or Tuples(dims, 0)
    d = g.complex.diff
    e = [unit(n0, i) for i in range(n0)]
    f = [unit(n1, p) for p in range(n1)]
    dcol = [d.col(p) for p in range(n1)]

    for i, p in tuples.of(dims, 0, 1):
        yield "a", (i, p), d @ g.l2_01[i][p], g.m00(e[i], dcol[p])
        yield "b", (p, i), d @ g.l2_10[p][i], g.m00(dcol[p], e[i])
    for p, q in tuples.of(dims, 1, 1):
        yield "c", (p, q), g.m01(dcol[p], f[q]), g.m10(f[p], dcol[q])
    for (i, j), rest in tuples.split(dims, 0, 0):
        xy = g.l2_00[i][j]
        for (k,) in rest.of(dims, 0):
            yield "d", (i, j, k), d @ g.l3[i][j][k], vsub(g.m00(xy, e[k]), g.m00(e[i], g.l2_00[j][k]))
        for (p,) in rest.of(dims, 1):
            yield "e1", (i, j, p), g.l3v(e[i], e[j], dcol[p]), vsub(g.m01(xy, f[p]), g.m01(e[i], g.l2_01[j][p]))
            yield (
                "e2", (i, p, j), g.l3v(e[i], dcol[p], e[j]),
                vsub(g.m10(g.l2_01[i][p], e[j]), g.m01(e[i], g.l2_10[p][j])),
            )
            yield "e3", (p, i, j), g.l3v(dcol[p], e[i], e[j]), vsub(g.m10(g.l2_10[p][i], e[j]), g.m10(f[p], xy))
    for i, j, k, t in tuples.of(dims, 0, 0, 0, 0):
        lhs = vadd(g.m01(e[i], g.l3[j][k][t]), g.m10(g.l3[i][j][k], e[t]))
        rhs = vadd(
            g.l3v(g.l2_00[i][j], e[k], e[t]),
            vsub(g.l3v(e[i], e[j], g.l2_00[k][t]), g.l3v(e[i], g.l2_00[j][k], e[t])),
        )
        yield "f", (i, j, k, t), lhs, rhs


def homomorphism_residuals(h):
    g, gp = h.source, h.target
    n0, n1 = g.dim0, g.dim1
    e = [unit(n0, i) for i in range(n0)]
    d, dp = g.complex.diff, gp.complex.diff
    f0col = [h.f0.col(i) for i in range(n0)]
    f1col = [h.f1.col(p) for p in range(n1)]
    f2 = view2(h.f2)

    for p in range(n1):
        yield "i", (p,), h.f0 @ d.col(p), dp @ f1col[p]
    for i in range(n0):
        for j in range(n0):
            lhs = vsub(h.f0 @ g.l2_00[i][j], gp.m00(f0col[i], f0col[j]))
            yield "ii", (i, j), lhs, dp @ h.f2[i][j]
        for p in range(n1):
            lhs = vsub(h.f1 @ g.l2_01[i][p], gp.m01(f0col[i], f1col[p]))
            yield "iii1", (i, p), lhs, apply2(f2, e[i], d.col(p))
            lhs = vsub(h.f1 @ g.l2_10[p][i], gp.m10(f1col[p], f0col[i]))
            yield "iii2", (p, i), lhs, apply2(f2, d.col(p), e[i])
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                lhs = vsub(h.f1 @ g.l3[i][j][k], gp.l3v(f0col[i], f0col[j], f0col[k]))
                rhs = vadd(
                    vsub(apply2(f2, e[i], g.l2_00[j][k]), apply2(f2, g.l2_00[i][j], e[k])),
                    vsub(gp.m01(f0col[i], h.f2[j][k]), gp.m10(h.f2[i][j], f0col[k])),
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
    for i, a in tuples.of(dims, 0, 1):
        yield "equiv-l", (i, a), x.f_map @ x.h_mod.left[i][a], x.p_alg.product(e[i], fcol[a])
        yield "equiv-r", (a, i), x.f_map @ x.h_mod.right[a][i], x.p_alg.product(fcol[a], e[i])
    for a, b in tuples.of(dims, 1, 1):
        yield "peiffer", (a, b), x.h_mod.act_left(fcol[a], fb[b]), x.h_mod.act_right(fb[a], fcol[b])


def xmod_homomorphism_residuals(src, dst, f0, f1):
    np_, nh = src.pdim, src.hdim
    f0col = [f0.col(i) for i in range(np_)]
    f1col = [f1.col(a) for a in range(nh)]
    for a in range(nh):
        yield "hom-f", (a,), dst.f_map @ f1col[a], f0 @ src.f_map.col(a)
    for i in range(np_):
        for j in range(np_):
            yield "hom-alg", (i, j), f0 @ src.p_alg.mul[i][j], dst.p_alg.product(f0col[i], f0col[j])
        for a in range(nh):
            yield "hom-left", (i, a), f1 @ src.h_mod.left[i][a], dst.h_mod.act_left(f0col[i], f1col[a])
            yield "hom-right", (a, i), f1 @ src.h_mod.right[a][i], dst.h_mod.act_right(f1col[a], f0col[i])
