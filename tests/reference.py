"""Reference implementations that only the tests call.

Each one checks the package from another angle (the shuffle product on
Hochschild chains, the unit cochain, Hochschild homology dimensions over a
window, the map phi from Hochschild cycles to the resolution, the BV
operator through Hochschild homology, the Hom-complex differential tested
on its matrices, an explicit bigraded ring), but no command needs it, so
none is compiled by any hhkt process.
"""

from hhkt.algebra import InternalConsistencyError, Polynomial
from hhkt.bar import (COEFF_DUAL, COEFF_SELF, ChainComplexCells, ChainElement,
                      Cochain, connes_boundary, hochschild_b, word_suspension)
from hhkt.bv import pair_class
from hhkt.fields import LinearSystem, SparseMatrix, rank


# -- Hochschild chains and cochains ------------------------------------------


def _shuffles(A, wa, wb, susp_a):
    """(interleaved word, Koszul sign) pairs for all (len a, len b) shuffles.

    susp_a is the suspended degree of the remaining part of wa.
    """
    if not wa:
        yield wb, 1
        return
    if not wb:
        yield wa, 1
        return
    for rest, sgn in _shuffles(A, wa[1:], wb,
                               susp_a - (A.mono_degree(wa[0]) - 1)):
        yield (wa[0],) + rest, sgn
    cross = (A.mono_degree(wb[0]) - 1) * susp_a
    flip = -1 if cross % 2 else 1
    for rest, sgn in _shuffles(A, wa, wb[1:], susp_a):
        yield (wb[0],) + rest, sgn * flip


def shuffle_product(c1: ChainElement, c2: ChainElement) -> ChainElement:
    A = c1.A
    out = {}
    for (a0, wa), ca in c1.terms.items():
        susp_a = word_suspension(A, wa)
        for (b0, wb), cb in c2.terms.items():
            base = -1 if (A.mono_degree(b0) * susp_a) % 2 else 1
            for m, cm in A.mul_monomials(a0, b0):
                for word, sgn in _shuffles(A, wa, wb, susp_a):
                    key = (m, word)
                    out[key] = out.get(key, 0) + ca * cb * cm * base * sgn
    return ChainElement(A, out)


def unit_cochain(A):
    return Cochain(A, COEFF_SELF, 0, 0, {((), A.unit_monomial()): 1})


def compute_hochschild_homology_window(A, window) -> dict:
    """Homology dimensions of (A (x) T(s abar), b), {(length, internal t):
    dim}; dual to the dual-coefficient cochain cells under
    (p, q) -> (p, -q)."""
    cx = ChainComplexCells(A)
    t_lo = max(0, -window.q_max)
    t_hi = max(0, -window.q_min)
    return {(k, t): cx.homology_dim(k, t)
            for k in range(window.max_p + 1)
            for t in range(t_lo, t_hi + 1)}


# -- the comparison map on Hochschild cycles ---------------------------------


class NotACycleError(ValueError):
    pass


def phi(chain_terms, R, xi):
    """Image of a Hochschild cycle in A (x) Gamma[nu] (exterior case).

    chain_terms: {(a0: Monomial, word): coeff}.  Returns
    {(a_monomial, EMono): coeff}.  Checks the cycle condition first.
    """
    A = R.algebra
    chain = ChainElement(A, dict(chain_terms))
    if not hochschild_b(chain).is_zero():
        raise NotACycleError("phi is only defined on cycles")
    out = {}
    for (a0, word), coeff in chain_terms.items():
        xw = xi.value(tuple(word))
        for (l, r, e), c in xw.terms.items():
            lr = Polynomial(A, dict(A.mul_monomials(l, r)))
            prod = lr * Polynomial(A, {a0: 1})
            for mono, cc in prod.terms.items():
                key = (mono, e)
                out[key] = (out.get(key, 0) + coeff * c * cc) % A.field.p
    return {k: v for k, v in out.items() if v}


def hom_differential_vanishes_by_matrices(ring):
    """Whether the Hom-complex differential of a KTRing is zero out of
    every cell (p, q) with p <= max_p + 1 and q in the window, read from
    its assembled matrices."""
    W = ring.window
    return not any(ring.matrix(p, q).nnz() for p in range(W.max_p + 2)
                   for q in range(W.q_min, W.q_max + 1))


# -- the BV operator through Hochschild homology -----------------------------


def connes_matrix_on_homology(chains, k, t):
    """H(B): chain homology at (k, t) -> chain homology at (k+1, t), in
    the representative bases of a ChainComplexCells."""
    hom_src = chains.homology(k, t)
    hom_dst = chains.homology(k + 1, t)
    cols = []
    for rep in hom_src.representatives:
        c = ChainElement(chains.A, chains.combination(k, t, rep))
        coords = chains.express(k + 1, t, connes_boundary(c).terms)
        if coords is None:
            raise InternalConsistencyError(
                "Connes image of a cycle is not a cycle class in the window")
        cols.append(coords)
    return SparseMatrix.from_columns(hom_dst.dim, cols, chains.A.field)


def pairing_matrix(ctx, chains, p, q_dual):
    """P[k][i] = <dual class k at (p, q_dual), chain class i at
    (p, -q_dual)>; square and invertible."""
    A = ctx.A
    t = -q_dual
    hom_dual = ctx.bar_dual.homology(p, q_dual)
    hom_chain = chains.homology(p, t)
    if hom_dual.dim != hom_chain.dim:
        raise InternalConsistencyError(
            f"pairing cell mismatch at ({p},{q_dual})")
    entries = {}
    for k, grep in enumerate(hom_dual.representatives):
        g = Cochain(A, COEFF_DUAL, p, q_dual,
                    ctx.bar_dual.combination(p, q_dual, grep))
        for i, crep in enumerate(hom_chain.representatives):
            v = pair_class(g, chains.combination(p, t, crep), A)
            if v:
                entries[(k, i)] = v
    M = SparseMatrix(hom_dual.dim, hom_chain.dim, entries, A.field)
    if rank(M) != hom_dual.dim:
        raise InternalConsistencyError(
            f"degenerate class pairing at ({p},{q_dual})")
    return M


def delta_matrix_via_homology(ctx, chains, p, q):
    """BVContext.delta_matrix(p, q) as the composite through Hochschild
    homology: pair g = theta(T x) with the chain classes of (p, d-q),
    apply H(B) from (p-1, d-q), solve the pairing at (p-1, q-d) for the
    dual class g' with <g', c> = (-1)^{|g|} <g, B c>, and pull g' back
    through theta and the comparison map."""
    labels = ctx.ring.cells.get((p, q), [])
    out = {lbl: {} for lbl in labels}
    if p == 0 or not labels:
        return out
    field = ctx.A.field
    qd = q - ctx.d
    src_labels, T = ctx.translate_matrix(p, q)
    theta_M = ctx.theta_matrix(p, q)
    P_here = pairing_matrix(ctx, chains, p, qd)
    P_prev = pairing_matrix(ctx, chains, p - 1, qd)
    Bmat = connes_matrix_on_homology(chains, p - 1, -qd)
    tgt_labels, T_prev = ctx.translate_matrix(p - 1, q)
    theta_prev = ctx.theta_matrix(p - 1, q)
    comp = SparseMatrix.from_columns(
        P_prev.rows, [theta_prev.mul_vec(T_prev.column(j))
                      for j in range(len(tgt_labels))], field)
    comp_solver = LinearSystem(comp)
    pair_solver = LinearSystem(P_prev.transpose())
    sign_g = -1 if (p + qd) % 2 else 1
    for j, lbl in enumerate(src_labels):
        g = theta_M.mul_vec(T.column(j))
        rhs = Bmat.transpose().mul_vec(P_here.transpose().mul_vec(g))
        rhs = tuple((sign_g * v) % field.p for v in rhs)
        gprime = pair_solver.solve(rhs) if P_prev.rows else tuple()
        if gprime is None:
            raise InternalConsistencyError("pairing solve failed")
        coords = comp_solver.solve(tuple(gprime))
        if coords is None:
            raise InternalConsistencyError(
                "operator image missed the ring cell")
        out[lbl] = {tgt_labels[i]: v for i, v in enumerate(coords) if v}
    return out


# -- bigraded rings ----------------------------------------------------------


class ExplicitBigradedRing:
    """A ring given by an exhaustive cell table (used for counterexamples);
    no generator monomial model."""

    complete = True

    def __init__(self, cells):
        self.cells = cells

    def cell_dim(self, p, q):
        return len(self.cells.get((p, q), []))
