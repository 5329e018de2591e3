"""The normalized bar complex, Hochschild cochains and chains, and the
window-truncated brute-force HH computation used as an oracle.

Words are tuples of basis monomials of the augmentation ideal.  The
interior differential of the two-sided bar resolution follows the printed
convention

    d_2(a[a_1|..|a_k]b) = (-1)^{|a|} aa_1[..]b
                          + sum_i (-1)^{eps_i} a[..|a_{i-1}a_i|..]b
                          - (-1)^{eps_k} a[..|a_{k-1}]a_k b

with eps_i = |a| + sum_{j<i} |s a_j|.  No two-sided element is ever
materialized: the faces of d_2 on 1[a_1|..|a_k]1 are enumerated in one
place, `bar_faces`, and every use of d_2 is built on that enumeration: the
Hochschild boundary b (whose last face wraps round to a_k a_0 with its
Koszul sign), the cochain differential
del(f) = -(-1)^{|f|} f d_2 (the coefficient differential vanishes here),
the coboundary matrices, and the right-hand side of the comparison map in
koszul_tate.  A coboundary matrix is assembled row by row: the faces of
each target word are walked once and scattered onto the source basis
cochains that live on the face words.  The value left.n.right of a basis
cochain (sub, n) on a face left[sub]right is read from an action table
that the complex fills once per (left, n, right).  The Connes boundary is
the printed cyclic-rotation sum with terms containing a unit entry
dropped; each rotation carries the Koszul sign of moving the suspended
entries before it past the rest.

A cochain is a LinComb keyed (word, n), exactly like the entries of its
cell basis, so converting between a cochain and its cell vector copies
keys.  Its value on a word is a Polynomial (sum of the n) for
coefficients in the algebra itself, or a DualValue (sum of the duals of
the n) for dual coefficients; these values are built only where a
differential or a cup product needs them.  Both are A-bimodules through
`*` with a Polynomial, so the differential and the cup product are
written once for both coefficient sides.

BarComplex (cochain cells (p, q)) and ChainComplexCells (chain cells
(k, t)) are fields.CellComplex subclasses: cell vectors, solves and
homology classes are reached through the base, on the terms of a Cochain
or a ChainElement.

Cochain cells with coefficients in the algebra itself are finite either
because the algebra is finite-dimensional or, for free polynomial parts,
after capping the word degree at a bound that leaves the discarded
subcomplex exact (the cap exceeds the top internal degree of the torsion
of the trivial module through the window's word lengths).
"""

from __future__ import annotations

from .algebra import (CELL_LIMIT, AlgebraPresentation, CellBlowupError,
                      Monomial, Polynomial)
from .bigraded import DegreeWindow
from .fields import CellComplex, LinComb, SparseMatrix

COEFF_SELF = "self"
COEFF_DUAL = "dual"


def word_suspension(A, word):
    return sum(A.mono_degree(a) - 1 for a in word)


def bar_faces(A: AlgebraPresentation, word):
    """The faces of d_2(1[a_1|..|a_k]1), in order: (left, word', right,
    coeff) for the term coeff . left[word']right, where left and right are
    basis monomials and at least one of them is the unit."""
    if not word:
        return
    one = A.unit_monomial()
    yield word[0], word[1:], one, 1
    eps = 0
    for i in range(1, len(word)):
        eps += A.mono_degree(word[i - 1]) - 1
        sgn = -1 if eps % 2 else 1
        for m, c in A.mul_monomials(word[i - 1], word[i]):
            yield one, word[:i - 1] + (m,) + word[i + 1:], one, sgn * c
    yield one, word[:-1], word[-1], 1 if eps % 2 else -1


# -- Hochschild chains ---------------------------------------------------------


class ChainElement(LinComb):
    """Element of A (x) T(s abar): {(a0: Monomial, word): coeff}."""

    __slots__ = ("A",)

    def __init__(self, A, terms=None):
        self.A = A
        super().__init__(terms, A.field.p)

    def _like(self, terms):
        return ChainElement(self.A, terms)


def hochschild_b(c: ChainElement) -> ChainElement:
    """b(a_0[w]) = (-1)^{|a_0|} a_0 . d_2(1[w]1) with the right end wrapped
    round to the front: a face left[w']right contributes
    (-1)^{|right|(|a_0| + |s w'|)} (right a_0 left)[w']."""
    A = c.A
    out = {}
    for (a0, word), coeff in c.terms.items():
        d0 = A.mono_degree(a0)
        for left, sub, right, s in bar_faces(A, word):
            sgn = -s if d0 % 2 else s
            if A.mono_degree(right) % 2 \
                    and (d0 + word_suspension(A, sub)) % 2:
                sgn = -sgn
            for m, cm in A.mul_monomials(right, a0):
                for m2, c2 in A.mul_monomials(m, left):
                    key = (m2, sub)
                    out[key] = out.get(key, 0) + coeff * sgn * cm * c2
    return ChainElement(A, out)


def connes_boundary(c: ChainElement) -> ChainElement:
    """B(a_0[a_1|..|a_k]) as the printed cyclic-rotation sum; rotations
    whose bracket would contain the unit are dropped (normalization).

    The rotation starting at a_i has the Koszul sign (-1)^{F_i B_i} of
    moving the suspended entries before it past those from it on:
    F_i = sum_{j<i} |s a_j| and B_i = sum_{j>=i} |s a_j|, with
    |s a_0| = |a_0| - 1."""
    A = c.A
    out = {}
    unit = A.unit_monomial()
    for (a0, word), coeff in c.terms.items():
        if a0 == unit:
            continue
        entries = (a0,) + word
        front, back = 0, A.mono_degree(a0) - 1 + word_suspension(A, word)
        for i, a in enumerate(entries):
            sgn = -1 if (front * back) % 2 else 1
            key = (unit, entries[i:] + entries[:i])
            out[key] = out.get(key, 0) + coeff * sgn
            s = A.mono_degree(a) - 1
            front += s
            back -= s
    return ChainElement(A, out)


# -- Hochschild cochains -------------------------------------------------------


class DualValue(LinComb):
    """A sum of dual basis elements of A, {Monomial: coeff}; the dual of a
    degree-k monomial sits in degree -k.  An A-bimodule: for a Polynomial
    g, g * alpha and alpha * g are the actions

        <g.alpha; h> = (-1)^{|g|} <alpha; h g>,   <alpha.g; h> = <alpha; g h>

    on each monomial g.  Two DualValues have no product, and a DualValue
    has no sum with a Polynomial."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        super().__init__(terms, algebra.field.p)

    def _like(self, terms):
        return DualValue(self.algebra, terms)

    def _check(self, other):
        if not isinstance(other, DualValue):
            raise TypeError(f"cannot combine a DualValue with "
                            f"{type(other).__name__}")
        if other.algebra is not self.algebra:
            raise ValueError("mixed presentations")

    def __mul__(self, poly):
        return self._action(poly, left=False)

    def __rmul__(self, poly):
        return self._action(poly, left=True)

    def _action(self, poly, left):
        """poly . self (left) or self . poly: the dual of m picks up, at
        each basis monomial m2 of degree |m| - |g|, the coefficient of m in
        m2 g (left, signed (-1)^{|g|}) or in g m2 (right)."""
        if not isinstance(poly, Polynomial):
            return NotImplemented
        if poly.algebra is not self.algebra:
            raise ValueError("mixed presentations")
        A = self.algebra
        out = {}
        for g, cg in poly.terms.items():
            dg = A.mono_degree(g)
            if left and dg % 2:
                cg = -cg
            for m, c in self.terms.items():
                target = A.mono_degree(m) - dg
                if target < 0:
                    continue
                for m2 in A.monomial_basis(target):
                    for mm, cc in (A.mul_monomials(m2, g) if left
                                   else A.mul_monomials(g, m2)):
                        if mm == m:
                            out[m2] = out.get(m2, 0) + cg * c * cc
        return DualValue(A, out)


def cochain_value(A, coeff, terms=None):
    """A cochain value with these terms: a Polynomial for coefficients in
    A, a DualValue for dual coefficients."""
    if coeff == COEFF_SELF:
        return Polynomial(A, terms)
    return DualValue(A, terms)


class Cochain(LinComb):
    """A bar-length-homogeneous cochain of bidegree (p, q): terms keyed
    (word, n), exactly the entries of BarComplex.cell_basis.  The term
    c . (word, n) sends word to c.n for coefficients in A itself, and to c
    times the dual of n for dual coefficients (with the twisted bimodule
    structure <g.alpha.h ; x> = (-1)^{|g|} <alpha; h x g>).
    """

    __slots__ = ("A", "coeff", "p", "q")

    def __init__(self, A, coeff, p, q, terms=None):
        self.A = A
        self.coeff = coeff
        self.p = p
        self.q = q
        super().__init__(terms, A.field.p)

    def _like(self, terms):
        return Cochain(self.A, self.coeff, self.p, self.q, terms)

    @property
    def total_degree(self):
        return self.p + self.q


def _word_values(f: Cochain):
    """{word: f(word)} over the words f is nonzero on, each value a
    Polynomial or a DualValue."""
    grouped = {}
    for (w, n), c in f.terms.items():
        grouped.setdefault(w, {})[n] = c
    return {w: cochain_value(f.A, f.coeff, t) for w, t in grouped.items()}


def _act(A, left: Monomial, value, right: Monomial):
    """left . value . right for a cochain value, a Polynomial or a
    DualValue; unit sides cost nothing."""
    one = A.unit_monomial()
    if left != one:
        value = Polynomial(A, {left: 1}) * value
    if right != one:
        value = value * Polynomial(A, {right: 1})
    return value


def _coboundary_faces(A, deg, faces):
    """The faces of d_2(1[word]1), as bar_faces lists them, signed for
    del f = -(-1)^{|f|} f . d_2 on cochains f of total degree deg:
    (left, word', right, sign) with (del f)(word) = sum sign . left .
    f(word') . right, since f is a bimodule map,
    f(l [w] r) = (-1)^{|l||f|} l . f(w) . r."""
    outer = 1 if deg % 2 else -1
    for left, sub, right, s in faces:
        if deg % 2 and A.mono_degree(left) % 2:
            s = -s
        yield left, sub, right, outer * s


def cochain_differential(f: Cochain, target_words) -> Cochain:
    """del f, evaluated on the given words."""
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


def cochain_cup(f: Cochain, g: Cochain, target_words) -> Cochain:
    """Front-back splitting cup product: on a word w1 w2 it is
    (-1)^{|g||s w1|} f(w1) * g(w2), the product in A, or the bimodule
    action when one factor has dual coefficients; the result then has
    dual coefficients.  Two dual factors have no product."""
    A = f.A
    if f.coeff == COEFF_DUAL and g.coeff == COEFF_DUAL:
        raise ValueError("no product structure on dual (x) dual coefficients")
    out_coeff = COEFF_DUAL if COEFF_DUAL in (f.coeff, g.coeff) else COEFF_SELF
    f_values = _word_values(f)
    g_values = _word_values(g)
    terms = {}
    for word in target_words:
        if len(word) != f.p + g.p:
            continue
        w1, w2 = word[:f.p], word[f.p:]
        v1 = f_values.get(w1)
        v2 = g_values.get(w2)
        if v1 is None or v2 is None:
            continue
        sgn = -1 if (g.total_degree * word_suspension(A, w1)) % 2 else 1
        for n, c in (v1 * v2).terms.items():
            terms[(word, n)] = sgn * c
    return Cochain(A, out_coeff, f.p + g.p, f.q + g.q, terms)


# -- cochain cells and window homology ----------------------------------------


class _WordCells(CellComplex):
    """A bar-side cell complex: its cells are built from the words of the
    augmentation ideal, cached by (length, internal degree)."""

    def __init__(self, A: AlgebraPresentation):
        super().__init__(A.field)
        self.A = A
        self._words = {}

    def words(self, k, S):
        """Words of length k and internal degree S, in a fixed order."""
        key = (k, S)
        if key in self._words:
            return self._words[key]
        if k == 0:
            out = [()] if S == 0 else []
        else:
            out = []
            for d in range(1, S - (k - 1) + 1):
                for m in self.A.monomial_basis(d):
                    for rest in self.words(k - 1, S - d):
                        out.append((m,) + rest)
        self._words[key] = out
        return out


class BarComplex(_WordCells):
    """The (p, q) cochain cells of one coefficient side of the Hochschild
    cochain complex: basis entries (word, n), the keys of a Cochain."""

    def __init__(self, A: AlgebraPresentation, coeff: str,
                 window: DegreeWindow, cell_limit=CELL_LIMIT):
        super().__init__(A)
        self.coeff = coeff
        self.window = window
        self.cell_limit = cell_limit
        self.top = A.top_degree_bound()
        gen_degs = [g.degree for g in A.generators]
        rel_degs = [r.degree() for r in A.relations]
        self.tor_cap = (window.max_p + 1) * max(gen_degs + rel_degs, default=1)
        self._actions = {}  # (left, n, right) -> terms of left.n.right
        self._faces = {}    # word -> its bar_faces

    def degree_range(self, p, q):
        """Word internal degrees S contributing to the (p, q) cell."""
        lo = p
        if self.coeff == COEFF_SELF:
            lo = max(lo, -q)
            if self.top is not None:
                hi = self.top - q
            else:
                hi = self.tor_cap
        else:
            hi = -q
            if self.top is not None:
                lo = max(lo, -q - self.top)
        return range(lo, hi + 1) if hi >= lo else range(0)

    def _basis(self, p, q):
        out = []
        for S in self.degree_range(p, q):
            for w in self.words(p, S):
                if self.coeff == COEFF_SELF:
                    for n in self.A.monomial_basis(S + q):
                        out.append((w, n))
                else:
                    for n in self.A.monomial_basis(-(S + q)):
                        out.append((w, n))
        return out

    def cell_words(self, p, q):
        """The distinct words of the (p, q) cell, in basis order."""
        return list(dict.fromkeys(w for (w, _) in self.cell_basis(p, q)))

    def estimate_cell(self, p, q):
        total = 0
        for S in self.degree_range(p, q):
            nw = len(self.words(p, S))
            tgt = S + q if self.coeff == COEFF_SELF else -(S + q)
            total += nw * self.A.dim_in_degree(tgt)
        return total

    def _matrix(self, p, q) -> SparseMatrix:
        """The differential from the (p, q) cell to (p+1, q), row by row:
        each target word's faces are walked once and every face word's
        basis cochains are scattered into that word's rows.  A basis
        cochain (sub, n) sends the face left[sub]right to left.n.right,
        read from the complex's action table."""
        A = self.A
        src = self.cell_basis(p, q)
        by_word = {}
        for j, (w, n) in enumerate(src):
            by_word.setdefault(w, []).append((j, n))
        index = self.index(p + 1, q)
        actions = self._actions
        entries = {}
        for word in self.cell_words(p + 1, q):
            faces = self._faces.get(word)
            if faces is None:
                faces = self._faces[word] = tuple(bar_faces(A, word))
            for left, sub, right, s in _coboundary_faces(A, p + q, faces):
                for j, n in by_word.get(sub, ()):
                    img = actions.get((left, n, right))
                    if img is None:
                        img = actions[(left, n, right)] = tuple(_act(
                            A, left, cochain_value(A, self.coeff, {n: 1}),
                            right).terms.items())
                    for m, c in img:
                        i = index.get((word, m))
                        if i is not None:
                            entries[(i, j)] = entries.get((i, j), 0) + s * c
        return SparseMatrix(len(index), len(src), entries, A.field)

    def _check_size(self, p, q):
        est = self.estimate_cell(p, q) + self.estimate_cell(p + 1, q)
        if est > self.cell_limit:
            raise CellBlowupError(
                f"cell ({p},{q}) estimated at {est} columns exceeds the "
                f"limit {self.cell_limit}", est)


def compute_hh_window(A: AlgebraPresentation, coeff: str,
                      window: DegreeWindow, cell_limit=CELL_LIMIT) -> dict:
    """Brute-force HH cell dimensions over the bar complex, {(p, q): dim}
    for every cell of the window."""
    cx = BarComplex(A, coeff, window, cell_limit)
    return {(p, q): cx.homology_dim(p, q) for (p, q) in window.cells()}


def oracle_report(window: DegreeWindow, bar_dims, resolution_dims):
    """The `hhkt oracle` comparison: the bar-complex dimension of every
    cell of the window, bar_dims {(p, q): dim}, beside resolution_dims (a
    missing cell is 0), with the cells that disagree and the nonzero edge
    cells, whose outgoing maps are built with one filtration column of
    slack."""
    mismatches = []
    edge_cells = []
    table = []
    for (p, q) in window.cells():
        bar_dim = bar_dims[(p, q)]
        kt_dim = resolution_dims.get((p, q), 0)
        if window.is_edge(p, q) and (bar_dim or kt_dim):
            edge_cells.append([p, q])
        if bar_dim or kt_dim:
            table.append({"p": p, "q": q, "bar_dim": bar_dim,
                          "resolution_dim": kt_dim,
                          "agree": bar_dim == kt_dim})
        if bar_dim != kt_dim:
            mismatches.append([p, q, bar_dim, kt_dim])
    return {
        "cells": table,
        "mismatches": mismatches,
        "agree": not mismatches,
        "edge_cells": sorted(edge_cells),
        "note": ("edge cells flagged: outgoing maps are built with one "
                 "extra filtration column of slack" if edge_cells else ""),
    }


# -- chain cells ---------------------------------------------------------------


class ChainComplexCells(_WordCells):
    """Hochschild chain cells (word length k, internal degree t), with basis
    entries (a0, word), the keys of a ChainElement; b lowers k."""

    step = -1

    def _basis(self, k, t):
        out = []
        for S in range(k, t + 1) if k else range(0, t + 1):
            for w in self.words(k, S):
                for a0 in self.A.monomial_basis(t - S):
                    out.append((a0, w))
        return out

    def _boundary(self, b):
        return hochschild_b(ChainElement(self.A, {b: 1})).terms.items()
