"""Independent brute-force cohomology oracle.

Builds the coboundary and cocycle-residual linear systems directly from the
equation lists by raw index arithmetic over the structure-constant tensors:
no Cochain objects, no shared evaluators, and its own Gaussian elimination.
Only the flattening order is shared, because that order is the contract.
"""

from __future__ import annotations

from fractions import Fraction


def brute_rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def _c2_layout(n0, n1, m0, m1):
    """dim C2 and the index maps of psi, omega, mu, nu, theta (the shared
    flattening contract)."""
    o_omega = n1 * m0
    o_mu = o_omega + n0 * n0 * m0
    o_nu = o_mu + n0 * n1 * m1
    o_theta = o_nu + n1 * n0 * m1
    return (
        o_theta + n0 ** 3 * m1,
        lambda p, s: p * m0 + s,
        lambda i, j, s: o_omega + (i * n0 + j) * m0 + s,
        lambda i, p, s: o_mu + (i * n1 + p) * m1 + s,
        lambda p, i, s: o_nu + (p * n0 + i) * m1 + s,
        lambda i, j, k, s: o_theta + ((i * n0 + j) * n0 + k) * m1 + s,
    )


def brute_h2(g, r) -> tuple[int, int, int]:
    """(dim Z2, dim B2, dim H2) for a two-term algebra and representation."""
    n0, n1 = g.dim0, g.dim1
    z2 = _c2_layout(n0, n1, r.dim0, r.dim1)[0] - brute_rank(brute_d2_rows(g, r))
    b2 = brute_rank(brute_d1_rows(g, r))
    return z2, b2, z2 - b2


def brute_d1_rows(g, r) -> list[list[Fraction]]:
    """The coboundary d1 as rows over the C1 unknowns, one per flattened
    two-cochain coordinate (psi, omega, mu, nu, theta)."""
    n0, n1 = g.dim0, g.dim1
    m0, m1 = r.dim0, r.dim1
    d = g.complex.diff.entries      # d[j][p]
    dv = r.complex.diff.entries     # dv[r][s]
    m00, m01, m10, l3 = g.l2_00, g.l2_01, g.l2_10, g.l3
    l0v0, l0v1, r0v0, r0v1 = r.l0v0, r.l0v1, r.r0v0, r.r0v1
    l1, r1, tl, tm, tr = r.l1, r.r1, r.tl, r.tm, r.tr

    # --- unknown layout of one-cochains (the shared flattening contract) -
    p_phi1 = m0 * n0
    p_chi = p_phi1 + m1 * n1
    dim_c1 = p_chi + n0 * n0 * m1
    i_phi = lambda s, i: s * n0 + i
    i_phi1 = lambda s, p: p_phi1 + s * n1 + p
    i_chi = lambda i, j, s: p_chi + (i * n0 + j) * m1 + s

    # --- d1 as rows of coefficients over C1 unknowns --------------------
    d1_rows = []

    def d1_row():
        row = [Fraction(0)] * dim_c1
        d1_rows.append(row)
        return row

    for p in range(n1):
        for s in range(m0):
            row = d1_row()
            for t in range(m1):
                row[i_phi1(t, p)] += dv[s][t]
            for j in range(n0):
                row[i_phi(s, j)] -= d[j][p]
    for i in range(n0):
        for j in range(n0):
            for s in range(m0):
                row = d1_row()
                for t in range(m0):
                    row[i_phi(t, j)] += l0v0[i][t][s]
                    row[i_phi(t, i)] += r0v0[t][j][s]
                for k in range(n0):
                    row[i_phi(s, k)] -= m00[i][j][k]
                for t in range(m1):
                    row[i_chi(i, j, t)] += dv[s][t]
    for i in range(n0):
        for p in range(n1):
            for s in range(m1):
                row = d1_row()
                for t in range(m1):
                    row[i_phi1(t, p)] += l0v1[i][t][s]
                for t in range(m0):
                    row[i_phi(t, i)] += r1[t][p][s]
                for q in range(n1):
                    row[i_phi1(s, q)] -= m01[i][p][q]
                for j in range(n0):
                    row[i_chi(i, j, s)] += d[j][p]
    for p in range(n1):
        for i in range(n0):
            for s in range(m1):
                row = d1_row()
                for t in range(m0):
                    row[i_phi(t, i)] += l1[p][t][s]
                for t in range(m1):
                    row[i_phi1(t, p)] += r0v1[t][i][s]
                for q in range(n1):
                    row[i_phi1(s, q)] -= m10[p][i][q]
                for j in range(n0):
                    row[i_chi(j, i, s)] += d[j][p]
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                for s in range(m1):
                    row = d1_row()
                    for t in range(m1):
                        row[i_chi(j, k, t)] += l0v1[i][t][s]
                        row[i_chi(i, j, t)] -= r0v1[t][k][s]
                    for l in range(n0):
                        row[i_chi(i, l, s)] += m00[j][k][l]
                        row[i_chi(l, k, s)] -= m00[i][j][l]
                    for q in range(n1):
                        row[i_phi1(s, q)] -= l3[i][j][k][q]
                    for t in range(m0):
                        row[i_phi(t, k)] += tl[i][j][t][s]
                        row[i_phi(t, j)] += tm[i][t][k][s]
                        row[i_phi(t, i)] += tr[t][j][k][s]
    return d1_rows


def brute_d2_rows(g, r) -> list[list[Fraction]]:
    """The cocycle families coc01-coc08 as rows over the C2 unknowns."""
    n0, n1 = g.dim0, g.dim1
    m0, m1 = r.dim0, r.dim1
    d = g.complex.diff.entries      # d[j][p]
    dv = r.complex.diff.entries     # dv[r][s]
    m00, m01, m10, l3 = g.l2_00, g.l2_01, g.l2_10, g.l3
    l0v0, l0v1, r0v0, r0v1 = r.l0v0, r.l0v1, r.r0v0, r.r0v1
    l1, r1, tl, tm, tr = r.l1, r.r1, r.tl, r.tm, r.tr
    dim_c2, i_psi, i_om, i_mu, i_nu, i_th = _c2_layout(n0, n1, m0, m1)
    d2_rows = []

    def d2_row():
        row = [Fraction(0)] * dim_c2
        d2_rows.append(row)
        return row

    for i in range(n0):
        for p in range(n1):
            for s in range(m0):  # coc01
                row = d2_row()
                for t in range(m0):
                    row[i_psi(p, t)] += l0v0[i][t][s]
                for q in range(n1):
                    row[i_psi(q, s)] -= m01[i][p][q]
                for j in range(n0):
                    row[i_om(i, j, s)] += d[j][p]
                for t in range(m1):
                    row[i_mu(i, p, t)] -= dv[s][t]
            for s in range(m0):  # coc02
                row = d2_row()
                for t in range(m0):
                    row[i_psi(p, t)] += r0v0[t][i][s]
                for q in range(n1):
                    row[i_psi(q, s)] -= m10[p][i][q]
                for j in range(n0):
                    row[i_om(j, i, s)] += d[j][p]
                for t in range(m1):
                    row[i_nu(p, i, t)] -= dv[s][t]
    for p in range(n1):
        for q in range(n1):
            for s in range(m1):  # coc03
                row = d2_row()
                for t in range(m0):
                    row[i_psi(q, t)] += l1[p][t][s]
                    row[i_psi(p, t)] -= r1[t][q][s]
                for j in range(n0):
                    row[i_nu(p, j, s)] += d[j][q]
                    row[i_mu(j, q, s)] -= d[j][p]
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                for s in range(m0):  # coc04
                    row = d2_row()
                    for t in range(m0):
                        row[i_om(i, j, t)] += r0v0[t][k][s]
                        row[i_om(j, k, t)] -= l0v0[i][t][s]
                    for l in range(n0):
                        row[i_om(l, k, s)] += m00[i][j][l]
                        row[i_om(i, l, s)] -= m00[j][k][l]
                    for t in range(m1):
                        row[i_th(i, j, k, t)] -= dv[s][t]
                    for q in range(n1):
                        row[i_psi(q, s)] -= l3[i][j][k][q]
    for i in range(n0):
        for j in range(n0):
            for p in range(n1):
                for s in range(m1):  # coc05
                    row = d2_row()
                    for t in range(m0):
                        row[i_om(i, j, t)] += r1[t][p][s]
                        row[i_psi(p, t)] -= tl[i][j][t][s]
                    for t in range(m1):
                        row[i_mu(j, p, t)] -= l0v1[i][t][s]
                    for l in range(n0):
                        row[i_mu(l, p, s)] += m00[i][j][l]
                        row[i_th(i, j, l, s)] -= d[l][p]
                    for q in range(n1):
                        row[i_mu(i, q, s)] -= m01[j][p][q]
                for s in range(m1):  # coc06 at (i, p, j)
                    row = d2_row()
                    for t in range(m1):
                        row[i_mu(i, p, t)] += r0v1[t][j][s]
                        row[i_nu(p, j, t)] -= l0v1[i][t][s]
                    for q in range(n1):
                        row[i_nu(q, j, s)] += m01[i][p][q]
                        row[i_mu(i, q, s)] -= m10[p][j][q]
                    for l in range(n0):
                        row[i_th(i, l, j, s)] -= d[l][p]
                    for t in range(m0):
                        row[i_psi(p, t)] -= tm[i][t][j][s]
                for s in range(m1):  # coc07 at (p, i, j)
                    row = d2_row()
                    for t in range(m1):
                        row[i_nu(p, i, t)] += r0v1[t][j][s]
                    for t in range(m0):
                        row[i_om(i, j, t)] -= l1[p][t][s]
                        row[i_psi(p, t)] -= tr[t][i][j][s]
                    for q in range(n1):
                        row[i_nu(q, j, s)] += m10[p][i][q]
                    for l in range(n0):
                        row[i_nu(p, l, s)] -= m00[i][j][l]
                        row[i_th(l, i, j, s)] -= d[l][p]
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                for t4 in range(n0):
                    for s in range(m1):  # coc08
                        row = d2_row()
                        for t in range(m1):
                            row[i_th(j, k, t4, t)] += l0v1[i][t][s]
                            row[i_th(i, j, k, t)] += r0v1[t][t4][s]
                        for l in range(n0):
                            row[i_th(l, k, t4, s)] -= m00[i][j][l]
                            row[i_th(i, l, t4, s)] += m00[j][k][l]
                            row[i_th(i, j, l, s)] -= m00[k][t4][l]
                        for q in range(n1):
                            row[i_mu(i, q, s)] += l3[j][k][t4][q]
                            row[i_nu(q, t4, s)] += l3[i][j][k][q]
                        for t in range(m0):
                            row[i_om(i, j, t)] -= tr[t][k][t4][s]
                            row[i_om(j, k, t)] += tm[i][t][t4][s]
                            row[i_om(k, t4, t)] -= tl[i][j][t][s]
    return d2_rows


def _xc2_layout(np_, nh, nv, nw):
    """dim of crossed-module C2 and the index maps of psi, omega, mu, nu."""
    o_om = nh * nw
    o_mu = o_om + np_ * np_ * nw
    o_nu = o_mu + np_ * nh * nv
    return (
        o_nu + nh * np_ * nv,
        lambda a, s: a * nw + s,
        lambda i, j, s: o_om + (i * np_ + j) * nw + s,
        lambda i, a, s: o_mu + (i * nh + a) * nv + s,
        lambda a, i, s: o_nu + (a * np_ + i) * nv + s,
    )


def brute_xmod_h2(x, r) -> tuple[int, int, int]:
    """Crossed-module analogue, same approach."""
    z2 = _xc2_layout(x.pdim, x.hdim, r.vdim, r.wdim)[0] - brute_rank(brute_xmod_d2_rows(x, r))
    b2 = brute_rank(brute_xmod_d1_rows(x, r))
    return z2, b2, z2 - b2


def brute_xmod_d1_rows(x, r) -> list[list[Fraction]]:
    """The crossed-module d1 as rows over the C1 unknowns, one per flattened
    two-cochain coordinate (psi, omega, mu, nu)."""
    np_, nh = x.pdim, x.hdim
    nv, nw = r.vdim, r.wdim
    mul = x.p_alg.mul
    hl, hr = x.h_mod.left, x.h_mod.right
    f = x.f_map.entries          # f[j][a]
    phi = r.phi.entries          # phi[s][t]
    vl, vr = r.v_mod.left, r.v_mod.right
    wl, wr = r.w_mod.left, r.w_mod.right
    trl, trr = r.tr_l, r.tr_r

    p_n1 = nw * np_
    dim_c1 = p_n1 + nv * nh
    i_n0 = lambda s, i: s * np_ + i
    i_n1 = lambda s, a: p_n1 + s * nh + a

    d1_rows = []
    for a in range(nh):
        for s in range(nw):
            row = [Fraction(0)] * dim_c1
            for t in range(nv):
                row[i_n1(t, a)] += phi[s][t]
            for j in range(np_):
                row[i_n0(s, j)] -= f[j][a]
            d1_rows.append(row)
    for i in range(np_):
        for j in range(np_):
            for s in range(nw):
                row = [Fraction(0)] * dim_c1
                for t in range(nw):
                    row[i_n0(t, i)] += wr[t][j][s]
                    row[i_n0(t, j)] += wl[i][t][s]
                for k in range(np_):
                    row[i_n0(s, k)] -= mul[i][j][k]
                d1_rows.append(row)
    for i in range(np_):
        for a in range(nh):
            for s in range(nv):
                row = [Fraction(0)] * dim_c1
                for t in range(nw):
                    row[i_n0(t, i)] += trr[t][a][s]
                for t in range(nv):
                    row[i_n1(t, a)] += vl[i][t][s]
                for b in range(nh):
                    row[i_n1(s, b)] -= hl[i][a][b]
                d1_rows.append(row)
    for a in range(nh):
        for i in range(np_):
            for s in range(nv):
                row = [Fraction(0)] * dim_c1
                for t in range(nv):
                    row[i_n1(t, a)] += vr[t][i][s]
                for t in range(nw):
                    row[i_n0(t, i)] += trl[a][t][s]
                for b in range(nh):
                    row[i_n1(s, b)] -= hr[a][i][b]
                d1_rows.append(row)
    return d1_rows


def brute_xmod_d2_rows(x, r) -> list[list[Fraction]]:
    """The cocycle families xcoc1-xcoc7 as rows over the C2 unknowns."""
    np_, nh = x.pdim, x.hdim
    nv, nw = r.vdim, r.wdim
    mul = x.p_alg.mul
    hl, hr = x.h_mod.left, x.h_mod.right
    f = x.f_map.entries          # f[j][a]
    phi = r.phi.entries          # phi[s][t]
    vl, vr = r.v_mod.left, r.v_mod.right
    wl, wr = r.w_mod.left, r.w_mod.right
    trl, trr = r.tr_l, r.tr_r
    dim_c2, i_psi, i_om, i_mu, i_nu = _xc2_layout(np_, nh, nv, nw)
    d2_rows = []
    for i in range(np_):
        for a in range(nh):
            for s in range(nw):  # xcoc1
                row = [Fraction(0)] * dim_c2
                for b in range(nh):
                    row[i_psi(b, s)] += hl[i][a][b]
                for t in range(nv):
                    row[i_mu(i, a, t)] += phi[s][t]
                for t in range(nw):
                    row[i_psi(a, t)] -= wl[i][t][s]
                for j in range(np_):
                    row[i_om(i, j, s)] -= f[j][a]
                d2_rows.append(row)
            for s in range(nw):  # xcoc2
                row = [Fraction(0)] * dim_c2
                for b in range(nh):
                    row[i_psi(b, s)] += hr[a][i][b]
                for t in range(nv):
                    row[i_nu(a, i, t)] += phi[s][t]
                for j in range(np_):
                    row[i_om(j, i, s)] -= f[j][a]
                for t in range(nw):
                    row[i_psi(a, t)] -= wr[t][i][s]
                d2_rows.append(row)
    for a in range(nh):
        for b in range(nh):
            for s in range(nv):  # xcoc3
                row = [Fraction(0)] * dim_c2
                for t in range(nw):
                    row[i_psi(a, t)] += trr[t][b][s]
                    row[i_psi(b, t)] -= trl[a][t][s]
                for j in range(np_):
                    row[i_mu(j, b, s)] += f[j][a]
                    row[i_nu(a, j, s)] -= f[j][b]
                d2_rows.append(row)
    for i in range(np_):
        for j in range(np_):
            for k in range(np_):
                for s in range(nw):  # xcoc4
                    row = [Fraction(0)] * dim_c2
                    for l in range(np_):
                        row[i_om(i, l, s)] += mul[j][k][l]
                        row[i_om(l, k, s)] -= mul[i][j][l]
                    for t in range(nw):
                        row[i_om(j, k, t)] += wl[i][t][s]
                        row[i_om(i, j, t)] -= wr[t][k][s]
                    d2_rows.append(row)
            for a in range(nh):
                for s in range(nv):  # xcoc5
                    row = [Fraction(0)] * dim_c2
                    for t in range(nv):
                        row[i_mu(j, a, t)] += vl[i][t][s]
                    for b in range(nh):
                        row[i_mu(i, b, s)] += hl[j][a][b]
                    for t in range(nw):
                        row[i_om(i, j, t)] -= trr[t][a][s]
                    for l in range(np_):
                        row[i_mu(l, a, s)] -= mul[i][j][l]
                    d2_rows.append(row)
                for s in range(nv):  # xcoc6 at (a, i, j)
                    row = [Fraction(0)] * dim_c2
                    for t in range(nw):
                        row[i_om(i, j, t)] += trl[a][t][s]
                    for l in range(np_):
                        row[i_nu(a, l, s)] += mul[i][j][l]
                    for t in range(nv):
                        row[i_nu(a, i, t)] -= vr[t][j][s]
                    for b in range(nh):
                        row[i_nu(b, j, s)] -= hr[a][i][b]
                    d2_rows.append(row)
                for s in range(nv):  # xcoc7 at (i, a, j)
                    row = [Fraction(0)] * dim_c2
                    for t in range(nv):
                        row[i_nu(a, j, t)] += vl[i][t][s]
                    for b in range(nh):
                        row[i_mu(i, b, s)] += hr[a][j][b]
                        row[i_nu(b, j, s)] -= hl[i][a][b]
                    for t in range(nv):
                        row[i_mu(i, a, t)] -= vr[t][j][s]
                    d2_rows.append(row)
    return d2_rows
