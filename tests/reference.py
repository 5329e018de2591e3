"""Reference implementations that only the tests call.

Each one checks the package from another angle (the shuffle product on
Hochschild chains, the unit cochain, the cochain differential evaluated
face by face, the Hochschild chain cells, the bimodule actions on the
dual of the algebra by one monomial, Hochschild homology dimensions over
a window, the map phi from Hochschild cycles to the resolution, the BV
operator through Hochschild homology, the Hom-complex differential
assembled term by term, the cup product evaluated term by term on the
diagonal, the E-monomial degrees, symbols, product and enumeration
written kind by kind, an explicit bigraded ring), but no command needs it,
so none is compiled by any hhkt process.
"""

import itertools

from hhkt.algebra import InternalConsistencyError, Polynomial
from hhkt.bar import (COEFF_DUAL, COEFF_SELF, BarComplex, ChainElement,
                      Cochain, DualValue, _act, _coboundary_faces,
                      _word_values, bar_faces, cochain_value, connes_boundary,
                      hochschild_b, word_suspension)
from hhkt.bigraded import DegreeWindow
from hhkt.bv import pair_class
from hhkt.fields import CellComplex, LinearSystem, SparseMatrix, rank
from hhkt.koszul_tate import (EMono, diagonal_mono, emonos_at_level,
                              kt_d_mono, lucas_binomial)

from .helpers import column


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


def cochain_differential(f: Cochain, target_words) -> Cochain:
    """del f, evaluated on the given words one face at a time, where
    BarComplex.matrix scatters each face onto the basis cochains."""
    A = f.A
    values = _word_values(f)
    terms = {}
    for word in target_words:
        acc = cochain_value(A, f.coeff)
        for left, sub, right, s in _coboundary_faces(
                A, f.total_degree, bar_faces(A, word)):
            v = values.get(sub)
            if v is not None:
                acc = acc + _act(A, left, v, right).scale(s)
        for n, c in acc.terms.items():
            terms[(word, n)] = c
    return Cochain(A, f.coeff, f.p + 1, f.q, terms)


class ChainComplexCells(CellComplex):
    """Hochschild chain cells (word length k, internal degree t), with basis
    entries (a0, word), the keys of a ChainElement; b lowers k.  The words
    are those a BarComplex of A enumerates, whatever its window."""

    step = -1

    def __init__(self, A):
        super().__init__(A.field)
        self.A = A
        self.words = BarComplex(A, COEFF_SELF, DegreeWindow(0, 0, 0)).words

    def _basis(self, k, t):
        out = []
        for S in range(k, t + 1) if k else range(0, t + 1):
            for w in self.words(k, S):
                for a0 in self.A.monomial_basis(t - S):
                    out.append((a0, w))
        return out

    def _boundary(self, b):
        return hochschild_b(ChainElement(self.A, {b: 1})).terms.items()


def dual_left_action(A, g, alpha: DualValue) -> DualValue:
    """g . alpha for a monomial g, with
    <g.alpha; h> = (-1)^{|g|} <alpha; h g>."""
    dg = A.mono_degree(g)
    sgn = -1 if dg % 2 else 1
    out = {}
    for m, c in alpha.terms.items():
        target = A.mono_degree(m) - dg
        if target < 0:
            continue
        for m2 in A.monomial_basis(target):
            for mm, cc in A.mul_monomials(m2, g):
                if mm == m:
                    out[m2] = out.get(m2, 0) + sgn * c * cc
    return DualValue(A, out)


def dual_right_action(A, alpha: DualValue, g) -> DualValue:
    """alpha . g for a monomial g, with <alpha.g; h> = <alpha; g h>."""
    dg = A.mono_degree(g)
    out = {}
    for m, c in alpha.terms.items():
        target = A.mono_degree(m) - dg
        if target < 0:
            continue
        for m2 in A.monomial_basis(target):
            for mm, cc in A.mul_monomials(g, m2):
                if mm == m:
                    out[m2] = out.get(m2, 0) + c * cc
    return DualValue(A, out)


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


def hom_matrices_by_terms(ring):
    """{(p, q): the Hom-complex differential of a KTRing out of the cell
    (p, q)} for p <= max_p + 1 and q in the window, assembled term by term
    from kt_d_mono on every E-monomial alpha of level p + 1, with nothing
    skipped: a term c (l (x) r) . e of d(alpha) adds
    -(-1)^(p + q) (-1)^((|l| + |r|)(p + q)) c (l r a) to the rows of alpha
    in each column (e, a)."""
    R, A, W = ring.R, ring.algebra, ring.window
    one = A.unit_monomial()
    out = {}
    for p in range(W.max_p + 2):
        d_alpha = [(alpha, kt_d_mono(R, (one, one, alpha)))
                   for alpha in emonos_at_level(R, p + 1)]
        for q in range(W.q_min, W.q_max + 1):
            h_odd = (p + q) % 2
            columns = {}
            for j, (e, a) in enumerate(ring.cell_basis(p, q)):
                columns.setdefault(e, []).append((j, Polynomial(A, {a: 1})))
            dst_index = ring.index(p + 1, q)
            entries = {}
            for alpha, terms in d_alpha:
                for (l, r, e), c in terms:
                    odd = (A.mono_degree(l) + A.mono_degree(r)) % 2
                    sign = (1 if h_odd else -1) * (-1 if odd and h_odd else 1)
                    lr = Polynomial(A, dict(A.mul_monomials(l, r)))
                    for j, a in columns.get(e, ()):
                        for mono, cc in (lr * a).terms.items():
                            key = (dst_index[(alpha, mono)], j)
                            entries[key] = entries.get(key, 0) + sign * c * cc
            out[(p, q)] = SparseMatrix(len(dst_index),
                                       len(ring.cell_basis(p, q)), entries,
                                       A.field)
    return out


# -- the cup product term by term on the diagonal ----------------------------

_CUP_TABLES = {}    # (resolution, level) -> the grouped terms of D(alpha)


def _cup_table(R, level):
    """The terms of D(1 (x) 1 . alpha) over every alpha of one level,
    grouped by their (a_e, b_e) slots.  An entry is (alpha, lamL lamM as
    (monomial, coeff) pairs, lamR, coeff, |lamL lamM| odd, |lamR| plus the
    left slot's total degree odd)."""
    table = _CUP_TABLES.get((R, level))
    if table is None:
        A = R.algebra
        one = A.unit_monomial()
        table = _CUP_TABLES[(R, level)] = {}
        for alpha in emonos_at_level(R, level):
            diag = diagonal_mono(R, (one, one, alpha))
            for (lamL, lamM, a_e, lamR, b_e), c in diag.terms.items():
                lam_deg = A.mono_degree(lamL) + A.mono_degree(lamM)
                right_deg = A.mono_degree(lamR) + lam_deg + R.e_total(a_e)
                table.setdefault((a_e, b_e), []).append(
                    (alpha, tuple(A.mul_monomials(lamL, lamM)), lamR, c,
                     lam_deg % 2, right_deg % 2))
    return table


def _cup_lefts(R, level, e1, a, f_odd, e2, g_odd):
    """For each entry of the cup table at (e1, e2) whose (lamL lamM) a is
    nonzero, (alpha, lamR, [(monomial of (lamL lamM) a, its coefficient
    times c)]), with c signed by (-1)^(|lamL lamM| f + (|lamR| + |left
    slot|) g)."""
    A = R.algebra
    one = A.unit_monomial()
    out = []
    for alpha, lam, lamR, c, lam_odd, right_odd in \
            _cup_table(R, level).get((e1, e2), ()):
        if (lam_odd * f_odd + right_odd * g_odd) % 2:
            c = -c
        lefts = [(fm, c * lc * fc) for lm, lc in lam
                 for fm, fc in (A.mul_monomials(lm, a) if lm != one
                                else ((a, 1),))]
        if lefts:
            out.append((alpha, lamR, lefts))
    return out


def _cup_on_basis(R, lefts, b):
    """(a . e1*) cup (b . e2*) from the _cup_lefts of a, e1 and e2, as
    {(alpha, monomial): coeff}: each term of D(alpha) is evaluated as
    (lamL lamM) a times lamR b."""
    A = R.algebra
    p = R.field.p
    one = A.unit_monomial()
    out = {}
    for alpha, lamR, lefts_alpha in lefts:
        rights = A.mul_monomials(lamR, b) if lamR != one else ((b, 1),)
        for fm, fc in lefts_alpha:
            for gm, gc in rights:
                for m, mc in A.mul_monomials(fm, gm):
                    key = (alpha, m)
                    out[key] = (out.get(key, 0) + fc * gc * mc) % p
    return {key: c for key, c in out.items() if c}


def cup_by_diagonal_terms(R, f, g):
    """(f cup g)(alpha) = (f (x) g)(D alpha) for cochains {(e, a): coeff},
    evaluated on each term of D(alpha) without structure constants: the
    bilinear extension of _cup_on_basis, as terms {(alpha, monomial):
    coeff}.  A cochain's level and degree parity are read from any of its
    keys."""
    if not f or not g:
        return {}
    A = R.algebra
    p = R.field.p
    (e1, a), (e2, b) = next(iter(f)), next(iter(g))
    level = R.e_level(e1) + R.e_level(e2)
    f_odd = (A.mono_degree(a) - R.e_total(e1)) % 2
    g_odd = (A.mono_degree(b) - R.e_total(e2)) % 2
    out = {}
    for (e1, a), ca in f.items():
        for (e2, b), cb in g.items():
            lefts = _cup_lefts(R, level, e1, a, f_odd, e2, g_odd)
            for key, c in _cup_on_basis(R, lefts, b).items():
                out[key] = (out.get(key, 0) + ca * cb * c) % p
    return {key: c for key, c in out.items() if c}


# -- the BV operator through Hochschild homology -----------------------------


def connes_matrix_on_homology(chains, k, t):
    """H(B): chain homology at (k, t) -> chain homology at (k+1, t), in
    the representative bases of a ChainComplexCells."""
    hom_dst = chains.homology(k + 1, t)
    cols = []
    for terms in chains.representatives(k, t):
        c = ChainElement(chains.A, terms)
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
    chain_reps = chains.representatives(p, t)
    for k, terms in enumerate(ctx.bar_dual.representatives(p, q_dual)):
        g = Cochain(A, COEFF_DUAL, p, q_dual, terms)
        for i, crep in enumerate(chain_reps):
            v = pair_class(g, crep, A)
            if v:
                entries[(k, i)] = v
    M = SparseMatrix(hom_dual.dim, hom_chain.dim, entries, A.field)
    if rank(M) != hom_dual.dim:
        raise InternalConsistencyError(
            f"degenerate class pairing at ({p},{q_dual})")
    return M


def dual_class_matrix_via_self_homology(ctx, p, q):
    """The dual-class coordinates at (p, q-d) of theta(T x) for the ring
    classes x of cell (p, q), as the two-step composite theta_M . T_M
    through the reduced self-side bar homology: T_M holds the coordinates
    of each comparison image T x, theta_M those of theta of each self-side
    representative."""
    A = ctx.A
    qd = q - ctx.d
    labels = ctx.ring.cells.get((p, q), [])
    hom = ctx.xi.bar.homology(p, q)
    hom_dual = ctx.bar_dual.homology(p, qd)
    if not len(labels) == hom.dim == hom_dual.dim:
        raise InternalConsistencyError(f"cell mismatch at ({p},{q})")
    T_cols = []
    for lbl in labels:
        f = ctx.xi.cochain(ctx.ring.class_reps[lbl], p, q)
        coords = ctx.xi.bar.express(p, q, f.terms)
        if coords is None:
            raise InternalConsistencyError(
                "comparison image is not a cocycle class")
        T_cols.append(coords)
    theta_cols = []
    for terms in ctx.xi.bar.representatives(p, q):
        f = Cochain(A, COEFF_SELF, p, q, terms)
        coords = ctx.bar_dual.express(p, qd, ctx.theta_cochain(f).terms)
        if coords is None:
            raise InternalConsistencyError("theta image not a class")
        theta_cols.append(coords)
    theta_M = SparseMatrix.from_columns(hom_dual.dim, theta_cols, A.field)
    M = SparseMatrix.from_columns(
        hom_dual.dim, [theta_M.mul_vec(col) for col in T_cols], A.field)
    if rank(M) != len(labels):
        raise InternalConsistencyError(
            f"theta . T is not injective on cell ({p},{q})")
    return M


def delta_matrix_via_homology(ctx, chains, p, q):
    """BVContext.delta_matrix(p, q) as the composite through Hochschild
    homology: pair g = theta(T x) with the chain classes of (p, d-q),
    apply H(B) from (p-1, d-q), solve the pairing at (p-1, q-d) for the
    dual class g' with <g', c> = (-1)^{|g|} <g, B c>, and pull g' back
    through theta and the comparison map, both read through the self-side
    bar homology."""
    labels = ctx.ring.cells.get((p, q), [])
    out = {lbl: {} for lbl in labels}
    if p == 0 or not labels:
        return out
    field = ctx.A.field
    qd = q - ctx.d
    comp_here = dual_class_matrix_via_self_homology(ctx, p, q)
    P_here = pairing_matrix(ctx, chains, p, qd)
    P_prev = pairing_matrix(ctx, chains, p - 1, qd)
    Bmat = connes_matrix_on_homology(chains, p - 1, -qd)
    tgt_labels = ctx.ring.cells.get((p - 1, q), [])
    comp_solver = LinearSystem(
        dual_class_matrix_via_self_homology(ctx, p - 1, q))
    pair_solver = LinearSystem(P_prev.transpose())
    sign_g = -1 if (p + qd) % 2 else 1
    for j, lbl in enumerate(labels):
        g = column(comp_here, j)
        rhs = Bmat.transpose().mul_vec(P_here.transpose().mul_vec(g))
        rhs = {r: (sign_g * v) % field.p for r, v in rhs.items()}
        gprime = pair_solver.solve(rhs) if P_prev.rows else {}
        if gprime is None:
            raise InternalConsistencyError("pairing solve failed")
        coords = comp_solver.solve(gprime)
        if coords is None:
            raise InternalConsistencyError(
                "operator image missed the ring cell")
        out[lbl] = {tgt_labels[i]: v for i, v in coords.items()}
    return out


# -- E-monomials kind by kind --------------------------------------------------


def by_kind(R, e):
    """(nu exponents, u bitmask, w exponents) of an E-monomial of the
    resolution R, read from the slices of its roster: l nu's, n u's, then
    the w's."""
    l, n = R.l, R.n
    return (e[:l], sum(k << j for j, k in enumerate(e[l:l + n])),
            e[l + n:])


def emono_by_kind(R, nu, u, w):
    """The E-monomial of R with the nu exponents, u bitmask and w
    exponents."""
    return EMono(nu + tuple((u >> j) & 1 for j in range(R.n)) + w)


def e_level_by_kind(R, e):
    """The level of an E-monomial: 1 per nu or u power, 2 per w power."""
    nu, u, w = by_kind(R, e)
    return sum(nu) + bin(u).count("1") + 2 * sum(w)


def e_internal_by_kind(R, e):
    """The internal degree of an E-monomial of the resolution R."""
    A = R.algebra
    nu, u, w = by_kind(R, e)
    return (sum(k * d for k, d in zip(nu, A.ext_degrees))
            + sum(d for j, d in enumerate(A.poly_degrees) if (u >> j) & 1)
            + sum(k * rho.degree() for k, rho in zip(w, A.relations)))


def e_symbols_by_kind(R, e):
    """Ordered (subkey, total degree, payload) triples of an E-monomial,
    keyed (0, i) for nu_i, (1, j) for u_j and (2, i) for w_i, the payload
    (kind, index, exponent)."""
    A = R.algebra
    nu, u, w = by_kind(R, e)
    syms = [((0, i), k * (d - 1), ("nu", i, k))
            for i, (k, d) in enumerate(zip(nu, A.ext_degrees)) if k]
    syms += [((1, j), d - 1, ("u", j, 1))
             for j, d in enumerate(A.poly_degrees) if (u >> j) & 1]
    syms += [((2, i), k * (rho.degree() - 2), ("w", i, k))
             for i, (k, rho) in enumerate(zip(w, A.relations)) if k]
    return syms


def merge_emono_by_kind(R, e1, e2):
    """The product of two E-monomials as (EMono, coeff), or (None, 0):
    u's by their bitmask, nu and w powers as divided powers."""
    p = R.field.p
    nu1, u1, w1 = by_kind(R, e1)
    nu2, u2, w2 = by_kind(R, e2)
    if u1 & u2:
        return None, 0
    coeff = 1
    for a, b in zip(nu1, nu2):
        if a and b:
            coeff = (coeff * lucas_binomial(a + b, a, p)) % p
    for a, b in zip(w1, w2):
        if a and b:
            coeff = (coeff * lucas_binomial(a + b, a, p)) % p
    if coeff == 0:
        return None, 0
    return emono_by_kind(R, tuple(a + b for a, b in zip(nu1, nu2)), u1 | u2,
                         tuple(a + b for a, b in zip(w1, w2))), coeff


def _compositions(total, parts):
    """Every tuple of parts nonnegative integers summing to total."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(head,) + tail for head in range(total + 1)
            for tail in _compositions(total - head, parts - 1)]


def emonos_at_level_by_kind(R, level):
    """The E-monomials of one level, sorted by (nu, u, w): w powers, then
    a set of u's, then nu powers filling the rest of the level."""
    out = []
    for w_total in range(level // 2 + 1):
        for w in _compositions(w_total, len(R.algebra.relations)):
            rest = level - 2 * w_total
            for u_count in range(min(rest, R.n) + 1):
                for bits in itertools.combinations(range(R.n), u_count):
                    u = sum(1 << b for b in bits)
                    for nu in _compositions(rest - u_count, R.l):
                        out.append(emono_by_kind(R, nu, u, w))
    return sorted(out, key=lambda e: by_kind(R, e))


# -- bigraded rings ----------------------------------------------------------


class ExplicitBigradedRing:
    """A ring given by an exhaustive cell table (used for counterexamples).
    Every cell can be read, as when the Hom-complex differential
    vanishes."""

    differential_vanishes = True

    def __init__(self, cells):
        self.cells = cells

    def cell_dim(self, p, q):
        return len(self.cells.get((p, q), []))
