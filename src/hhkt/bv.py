"""Poincare duality data and the BV operator on Hochschild cohomology.

The operator is computed as the composite: cup with the dual fundamental
class into dual coefficients, transport along the chain/cochain duality,
the dual of the cyclic rotation operator on Hochschild homology, and back.
Classes are carried on the resolution side (labels of the computed ring)
and translated to bar cochains through the comparison chain map, so the
final tables are expressed in the ring's monomial basis.

At the level of a graded algebra (zero differential) the dual of the
fundamental class is used directly as the duality class; this is the
modeling decision recorded in every result document.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import AlgebraPresentation, InternalConsistencyError
from .bar import (COEFF_DUAL, COEFF_SELF, BarComplex, ChainComplexCells,
                  Cochain, DualValue, cochain_cup, word_suspension)
from .bigraded import DegreeWindow, WindowError
from .fields import LinearSystem, SparseMatrix, rref
from .koszul_tate import KTResolution, KTRing, XiLift


class NotPoincareDualityError(ValueError):
    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class PoincareDualityData(namedtuple(
        "PoincareDualityData",
        "algebra formal_dimension fundamental_class fundamental_dual")):
    """fundamental_dual is the dual of the fundamental class."""

    __slots__ = ()

    def dual_cochain(self):
        return Cochain(self.algebra, COEFF_DUAL, 0, -self.formal_dimension,
                       {((), n): c
                        for n, c in self.fundamental_dual.terms.items()})


def build_pd(A: AlgebraPresentation) -> PoincareDualityData:
    """Verified Poincare duality data; the pairing <a,b> = coefficient of
    the top class in ab must be nondegenerate in every degree."""
    d = A.top_degree_bound()
    if d is None:
        raise NotPoincareDualityError(
            "algebra is not finite-dimensional: no fundamental class")
    top = A.monomial_basis(d)
    if len(top) != 1:
        raise NotPoincareDualityError(
            f"top degree {d} has dimension {len(top)} != 1", d)
    omega = top[0]
    field = A.field
    for k in range(0, d + 1):
        rows = A.monomial_basis(k)
        cols = A.monomial_basis(d - k)
        if len(rows) != len(cols):
            raise NotPoincareDualityError(
                f"pairing in degree {k} is {len(rows)}x{len(cols)}", k)
        entries = {}
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                for m, c in A.mul_monomials(a, b):
                    if m == omega:
                        entries[(i, j)] = c
        M = SparseMatrix(len(rows), len(cols), entries, field)
        if len(rref(M)[0]) != len(rows):
            raise NotPoincareDualityError(
                f"degenerate duality pairing in degree {k}", k)
    return PoincareDualityData(A, d, omega, DualValue(A, {omega: 1}))


# -- the chain/cochain duality -------------------------------------------------


def iota(functional, A: AlgebraPresentation, k: int, t: int) -> Cochain:
    """Functional on chains -> dual-coefficient cochain,
    iota(f)(word)(a) = (-1)^{|a||word|} f(a[word])."""
    terms = {}
    for (a0, word), c in functional.items():
        sgn = -1 if (A.mono_degree(a0) * word_suspension(A, word)) % 2 else 1
        terms[(word, a0)] = terms.get((word, a0), 0) + sgn * c
    return Cochain(A, COEFF_DUAL, k, -t, terms)


def iota_inverse(g: Cochain) -> dict:
    """Dual-coefficient cochain -> functional on chains (same sign rule)."""
    A = g.A
    out = {}
    for (word, a0), c in g.terms.items():
        sgn = -1 if (A.mono_degree(a0) * word_suspension(A, word)) % 2 else 1
        out[(a0, word)] = (sgn * c) % A.field.p
    return out


def pair_class(g: Cochain, chain_terms, A) -> int:
    """<iota^{-1}(g), c> evaluated term by term."""
    total = 0
    for (a0, word), c in chain_terms.items():
        v = g.terms.get((word, a0))
        if v:
            sgn = -1 if (A.mono_degree(a0)
                         * word_suspension(A, word)) % 2 else 1
            total += sgn * c * v
    return total % A.field.p


# -- the operator ----------------------------------------------------------------


class BVContext:
    """Caches every cell-level matrix needed for the operator on one
    presentation, within one window."""

    def __init__(self, A: AlgebraPresentation, window: DegreeWindow):
        self.A = A
        self.window = window
        self.pd = build_pd(A)
        self.d = self.pd.formal_dimension
        self.R = KTResolution(A)
        self.ring = KTRing(self.R, window)
        # no word is longer than the window's bar length; the depth is
        # only a bound, and never below XiLift's default
        self.xi = XiLift(self.R, max(4, window.max_p))
        self.bar_self = BarComplex(A, COEFF_SELF, window)
        self.bar_dual = BarComplex(A, COEFF_DUAL, window)
        self.chains = ChainComplexCells(A)
        self._translate = {}
        self._theta = {}
        self._pairing = {}
        self._delta = {}

    # -- translations ------------------------------------------------------

    def kt_to_bar_cochain(self, f, p, q) -> Cochain:
        """Pull a resolution-side cochain f, terms {(e, a): coeff} of the
        (p, q) cell, back along the comparison map: the bar cochain
        word -> f(xi(word)), where
        f((l (x) r) . e) = (-1)^((|l| + |r|)(p + q)) (l r) f(e)."""
        A = self.A
        values = {}
        for (e, a), c in f.items():
            values.setdefault(e, []).append((a, c))
        terms = {}
        for word in dict.fromkeys(w for (w, _) in
                                  self.bar_self.cell_basis(p, q)):
            for (l, r, e), c in self.xi.value(word).terms.items():
                if e not in values:
                    continue
                if (A.mono_degree(l) + A.mono_degree(r)) * (p + q) % 2:
                    c = -c
                for lr, lrc in A.mul_monomials(l, r):
                    for a, ca in values[e]:
                        for n, nc in A.mul_monomials(lr, a):
                            key = (word, n)
                            terms[key] = terms.get(key, 0) + c * lrc * ca * nc
        return Cochain(A, COEFF_SELF, p, q, terms)

    def translate_matrix(self, p, q):
        """Columns: bar homology coordinates of each ring basis class."""
        key = (p, q)
        if key in self._translate:
            return self._translate[key]
        labels = self.ring.cells.get((p, q), [])
        hom = self.bar_self.homology(p, q)
        if len(labels) != hom.dim:
            raise InternalConsistencyError(
                f"cell ({p},{q}): ring dim {len(labels)} != bar dim "
                f"{hom.dim}")
        cols = []
        for lbl in labels:
            f = self.kt_to_bar_cochain(self.ring.class_reps[lbl], p, q)
            coords = self.bar_self.express(p, q, f.terms)
            if coords is None:
                raise InternalConsistencyError(
                    "comparison image is not a cocycle class")
            cols.append(coords)
        M = SparseMatrix.from_columns(hom.dim, cols, self.A.field)
        if len(rref(M)[0]) != len(labels):
            raise InternalConsistencyError(
                f"cell ({p},{q}): comparison map is not injective")
        out = (labels, M)
        self._translate[key] = out
        return out

    # -- theta = cup with the dual fundamental class -------------------------

    def theta_cochain(self, f: Cochain) -> Cochain:
        words = list(dict.fromkeys(
            w for (w, _) in self.bar_dual.cell_basis(f.p, f.q - self.d)))
        return cochain_cup(f, self.pd.dual_cochain(), words)

    def theta_matrix(self, p, q):
        """Bar homology basis at (p,q) -> dual-class coordinates at
        (p, q-d); verified bijective."""
        key = (p, q)
        if key in self._theta:
            return self._theta[key]
        hom = self.bar_self.homology(p, q)
        hom_dual = self.bar_dual.homology(p, q - self.d)
        if hom.dim != hom_dual.dim:
            raise InternalConsistencyError(
                f"duality cell mismatch at ({p},{q})")
        cols = []
        for rep in hom.representatives:
            f = Cochain(self.A, COEFF_SELF, p, q,
                        self.bar_self.combination(p, q, rep))
            coords = self.bar_dual.express(p, q - self.d,
                                           self.theta_cochain(f).terms)
            if coords is None:
                raise InternalConsistencyError("theta image not a class")
            cols.append(coords)
        M = SparseMatrix.from_columns(hom_dual.dim, cols, self.A.field)
        if len(rref(M)[0]) != hom.dim:
            raise InternalConsistencyError(
                f"theta is not bijective on cell ({p},{q})")
        self._theta[key] = M
        return M

    # -- pairing with chain homology ------------------------------------------

    def pairing_matrix(self, p, q_dual):
        """P[k][i] = <dual class k at (p, q_dual), chain class i at
        (p, -q_dual)>; square and invertible."""
        key = (p, q_dual)
        if key in self._pairing:
            return self._pairing[key]
        t = -q_dual
        hom_dual = self.bar_dual.homology(p, q_dual)
        hom_chain = self.chains.homology(p, t)
        if hom_dual.dim != hom_chain.dim:
            raise InternalConsistencyError(
                f"pairing cell mismatch at ({p},{q_dual})")
        entries = {}
        for k, grep in enumerate(hom_dual.representatives):
            g = Cochain(self.A, COEFF_DUAL, p, q_dual,
                        self.bar_dual.combination(p, q_dual, grep))
            for i, crep in enumerate(hom_chain.representatives):
                v = pair_class(g, self.chains.combination(p, t, crep), self.A)
                if v:
                    entries[(k, i)] = v
        M = SparseMatrix(hom_dual.dim, hom_chain.dim, entries, self.A.field)
        if len(rref(M)[0]) != hom_dual.dim:
            raise InternalConsistencyError(
                f"degenerate class pairing at ({p},{q_dual})")
        self._pairing[key] = M
        return M

    # -- the operator on one cell ----------------------------------------------

    def delta_matrix(self, p, q):
        """Matrix of the operator from ring cell (p, q) to (p-1, q):
        {source label: {target label: coeff}}."""
        key = (p, q)
        if key in self._delta:
            return self._delta[key]
        labels = self.ring.cells.get((p, q), [])
        out = {lbl: {} for lbl in labels}
        if p == 0 or not labels:
            self._delta[key] = out
            return out
        field = self.A.field
        qd = q - self.d
        t = -qd
        src_labels, T = self.translate_matrix(p, q)
        theta_M = self.theta_matrix(p, q)
        P_here = self.pairing_matrix(p, qd)
        P_prev = self.pairing_matrix(p - 1, qd)
        Bmat = self.chains.connes_matrix_on_homology(p - 1, t)
        tgt_labels, T_prev = self.translate_matrix(p - 1, q)
        theta_prev = self.theta_matrix(p - 1, q)
        # composite (theta_prev . T_prev): KT coords -> dual-class coords
        comp_cols = []
        for j, lbl in enumerate(tgt_labels):
            e = [0] * len(tgt_labels)
            e[j] = 1
            comp_cols.append(theta_prev.mul_vec(T_prev.mul_vec(tuple(e))))
        comp = SparseMatrix.from_columns(P_prev.rows, comp_cols, field)
        comp_solver = LinearSystem(comp)
        pair_solver = LinearSystem(P_prev.transpose())
        sign_g = -1 if (p + qd) % 2 else 1
        for j, lbl in enumerate(src_labels):
            e = [0] * len(src_labels)
            e[j] = 1
            g = theta_M.mul_vec(T.mul_vec(tuple(e)))
            # rhs_i = (-1)^{|g|} <g, B c_i> over the (p-1, t) chain basis
            gP = P_here.transpose().mul_vec(g)
            rhs = Bmat.transpose().mul_vec(gP)
            rhs = tuple((sign_g * v) % field.p for v in rhs)
            # g' with <g', c_i> = rhs_i, then pull back through theta and
            # the comparison map in one solve
            gprime = pair_solver.solve(rhs) if P_prev.rows else tuple()
            if gprime is None:
                raise InternalConsistencyError("pairing solve failed")
            coords = comp_solver.solve(tuple(gprime))
            if coords is None:
                raise InternalConsistencyError(
                    "operator image missed the ring cell")
            out[lbl] = {tgt_labels[i]: v for i, v in enumerate(coords) if v}
        self._delta[key] = out
        return out

    def delta_of_label(self, lbl):
        p, q = self.ring.bidegree(lbl)
        if p == 0:
            return {}
        row = self.delta_matrix(p, q).get(lbl)
        if row is None:
            raise WindowError(f"class {self.ring.label_str(lbl)} lies "
                              f"outside the window")
        return row

    def delta_of_combination(self, combo: dict) -> dict:
        field = self.A.field
        out = {}
        for lbl, c in combo.items():
            for tgt, v in self.delta_of_label(lbl).items():
                out[tgt] = (out.get(tgt, 0) + c * v) % field.p
        return {k: v for k, v in out.items() if v}

    # -- the seven-term identity ------------------------------------------------

    def product(self, x: dict, y: dict) -> dict:
        field = self.A.field
        out = {}
        for la, ca in x.items():
            for lb, cb in y.items():
                for lc, cc in self.ring.product(la, lb).items():
                    out[lc] = (out.get(lc, 0) + ca * cb * cc) % field.p
        return {k: v for k, v in out.items() if v}

    def check_bv_identity(self, a: dict, b: dict, c: dict,
                          deg_a: int, deg_b: int):
        """Seven-term relation; returns (holds, residual)."""
        field = self.A.field

        def sgn(e):
            return -1 if e % 2 else 1

        def add(acc, term, k):
            for lbl, v in term.items():
                acc[lbl] = (acc.get(lbl, 0) + k * v) % field.p

        abc = self.product(self.product(a, b), c)
        lhs = self.delta_of_combination(abc)
        acc = {}
        add(acc, self.product(self.delta_of_combination(self.product(a, b)),
                              c), 1)
        add(acc, self.product(a, self.delta_of_combination(
            self.product(b, c))), sgn(deg_a))
        add(acc, self.product(b, self.delta_of_combination(
            self.product(a, c))), sgn((deg_a - 1) * deg_b))
        add(acc, self.product(self.product(
            self.delta_of_combination(a), b), c), -1)
        add(acc, self.product(self.product(
            a, self.delta_of_combination(b)), c), -sgn(deg_a))
        add(acc, self.product(self.product(a, b),
                              self.delta_of_combination(c)),
            -sgn(deg_a + deg_b))
        residual = dict(lhs)
        for lbl, v in acc.items():
            residual[lbl] = (residual.get(lbl, 0) - v) % field.p
        residual = {k: v for k, v in residual.items() if v}
        return (not residual), residual

