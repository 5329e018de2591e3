"""Poincare duality data and the BV operator on Hochschild cohomology.

The operator is the dual of the cyclic rotation operator B, carried
through HH*(A;A) = HH*(A;A-dual) = HH_*(A)-dual, and every map of that
composite is read on cocycles: cup with the dual fundamental class takes
a class to a dual-coefficient cocycle g; the functional
(-1)^{|g|} g(B c) on Hochschild chains c is, through the chain/cochain
duality iota, again a dual-coefficient cocycle, whose class is pulled
back through the cup.  No homology of the Hochschild chains is reduced;
of the bar cochain cells only the dual side is reduced, and the self side
is only ranked.
Classes are carried on the resolution side (labels of the computed ring)
and translated to bar cochains through the comparison map T
(koszul_tate.XiLift, which owns the self-coefficient bar cells and needs
no Poincare duality), so the final tables are expressed in the ring's
monomial basis.  A combination of classes is a RingClass, whose product
is the cup product and whose delta() is the operator; the seven-term
identity is written once in that arithmetic, and seven_term_sweep runs it
over generator triples for both the bv command and the verify suite.

At the level of a graded algebra (zero differential) the dual of the
fundamental class is used directly as the duality class; this is the
modeling decision recorded in every result document.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple

from .algebra import (AlgebraPresentation, InternalConsistencyError,
                      NotPoincareDualityError, PresentationError)
from .bar import (COEFF_DUAL, BarComplex, ChainElement, Cochain, DualValue,
                  cochain_cup, connes_boundary, word_suspension)
from .bigraded import DegreeWindow, WindowError
from .fields import LinComb, LinearSystem, SparseMatrix, rank
from .koszul_tate import KTResolution, KTRing, XiLift
from .spectral import resolve_bv_extension, resolve_product_extension


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
    the top class in ab must be nondegenerate in every degree k where
    monomials may reach k or d - k (elsewhere both sides are empty)."""
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
    for k in sorted({k for r in A.degrees(d) for k in (r, d - r)}):
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
        if rank(M) != len(rows):
            raise NotPoincareDualityError(
                f"degenerate duality pairing in degree {k}", k)
    return PoincareDualityData(A, d, omega, DualValue(A, {omega: 1}))


# -- the chain/cochain duality -------------------------------------------------


def _iota_sign(A: AlgebraPresentation, a0, word) -> int:
    """(-1)^{|a0||word|}, the sign of the chain/cochain duality on the
    chain a0[word]."""
    return -1 if (A.mono_degree(a0) * word_suspension(A, word)) % 2 else 1


def iota(functional, A: AlgebraPresentation, k: int, t: int) -> Cochain:
    """Functional on chains -> dual-coefficient cochain,
    iota(f)(word)(a) = (-1)^{|a||word|} f(a[word])."""
    return Cochain(A, COEFF_DUAL, k, -t,
                   {(word, a0): _iota_sign(A, a0, word) * c
                    for (a0, word), c in functional.items()})


def pair_class(g: Cochain, chain_terms, A) -> int:
    """<iota^{-1}(g), c> evaluated term by term."""
    total = 0
    for (a0, word), c in chain_terms.items():
        v = g.terms.get((word, a0))
        if v:
            total += _iota_sign(A, a0, word) * c * v
    return total % A.field.p


# -- the operator ----------------------------------------------------------------


class BVContext:
    """Caches what the operator needs on one presentation, within one
    window: per ring cell, the dual cocycles theta(T x) of its classes, T
    the comparison map xi and theta the cup with the dual fundamental class,
    with their dual-class coordinates, and the operator's table.  Only the
    dual bar cochain cells are reduced; the self side is only ranked."""

    def __init__(self, A: AlgebraPresentation, window: DegreeWindow):
        self.A = A
        self.window = window
        self.pd = build_pd(A)
        self.d = self.pd.formal_dimension
        self.R = KTResolution(A)
        self.ring = KTRing(self.R, window)
        self.xi = XiLift(self.R, window)
        self.bar_dual = BarComplex(A, COEFF_DUAL, window)
        self._dual = {}
        self._delta = {}

    # -- theta = cup with the dual fundamental class -------------------------

    def theta_cochain(self, f: Cochain) -> Cochain:
        return cochain_cup(f, self.pd.dual_cochain(),
                           self.bar_dual.cell_words(f.p, f.q - self.d))

    def dual_classes(self, p, q):
        """(labels, cocycles, solver) for ring cell (p, q): each label's
        dual cocycle g = theta(T x) at (p, q-d), and a LinearSystem on the
        matrix M whose columns are their dual-class coordinates.  The
        self-side cell is only ranked: equal dimensions and an injective
        composite prove T and theta bijective."""
        key = (p, q)
        if key in self._dual:
            return self._dual[key]
        labels = self.ring.cells.get((p, q), [])
        dim_self = self.xi.bar.homology_dim(p, q)
        hom_dual = self.bar_dual.homology(p, q - self.d)
        if not len(labels) == dim_self == hom_dual.dim:
            raise InternalConsistencyError(
                f"cell ({p},{q}): ring dim {len(labels)}, bar dim "
                f"{dim_self}, dual bar dim {hom_dual.dim}")
        cocycles, cols = [], []
        for lbl in labels:
            g = self.theta_cochain(self.xi.cochain(
                self.ring.class_reps[lbl], p, q))
            coords = self.bar_dual.express(p, q - self.d, g.terms)
            if coords is None:
                raise InternalConsistencyError(
                    "theta of a comparison image is not a cocycle class")
            cocycles.append(g)
            cols.append(coords)
        solver = LinearSystem(
            SparseMatrix.from_columns(hom_dual.dim, cols, self.A.field))
        if len(solver.pivots) != len(labels):
            raise InternalConsistencyError(
                f"cell ({p},{q}): theta after the comparison map is not "
                f"injective")
        out = (labels, cocycles, solver)
        self._dual[key] = out
        return out

    # -- the operator on one cell ----------------------------------------------

    def delta_matrix(self, p, q):
        """Matrix of the operator from ring cell (p, q) to (p-1, q):
        {source label: {target label: coeff}}.

        A class x goes to the dual cocycle g = theta(T x) at (p, q-d);
        the functional (-1)^{|g|} g.B on the chains a0[w] behind the
        entries (w, a0) of the dual cell (p-1, q-d) is, through iota, a
        dual cocycle there, whose class is pulled back through theta and
        the comparison map in one solve."""
        key = (p, q)
        if key in self._delta:
            return self._delta[key]
        labels = self.ring.cells.get((p, q), [])
        out = {lbl: {} for lbl in labels}
        if p == 0 or not labels:
            self._delta[key] = out
            return out
        A = self.A
        qd = q - self.d
        _, cocycles, _ = self.dual_classes(p, q)
        tgt_labels, _, solver = self.dual_classes(p - 1, q)
        # the entries (w, a0) of the dual cell (p-1, q-d) are those of the
        # chain cell (p-1, d-q); B kills the chains with a0 = 1
        images = []
        for (w, a0) in self.bar_dual.cell_basis(p - 1, qd):
            image = connes_boundary(ChainElement(A, {(a0, w): 1})).terms
            if image:
                images.append(((a0, w), image))
        sign_g = -1 if (p + qd) % 2 else 1
        for lbl, g in zip(labels, cocycles):
            gB = {chain: sign_g * pair_class(g, image, A)
                  for chain, image in images}
            gprime = self.bar_dual.express(p - 1, qd,
                                           iota(gB, A, p - 1, -qd).terms)
            if gprime is None:
                raise InternalConsistencyError(
                    "Connes image of a cycle is not a cycle class in the "
                    "window")
            coords = solver.solve(gprime)
            if coords is None:
                raise InternalConsistencyError(
                    "operator image missed the ring cell")
            out[lbl] = {tgt_labels[i]: v for i, v in coords.items()}
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

    # -- the seven-term identity ------------------------------------------------

    def check_bv_identity(self, a: dict, b: dict, c: dict,
                          deg_a: int, deg_b: int):
        """Seven-term relation; returns (holds, residual).
        Delta(abc) = Delta(ab)c + (-1)^|a| a Delta(bc)
                     + (-1)^((|a|-1)|b|) b Delta(ac) - Delta(a)bc
                     - (-1)^|a| a Delta(b)c - (-1)^(|a|+|b|) ab Delta(c)."""
        a, b, c = (RingClass(self, x) for x in (a, b, c))

        def sgn(e):
            return -1 if e % 2 else 1

        ab = a * b
        residual = (ab * c).delta() - (
            ab.delta() * c
            + (a * (b * c).delta()).scale(sgn(deg_a))
            + (b * (a * c).delta()).scale(sgn((deg_a - 1) * deg_b))
            - a.delta() * b * c
            - (a * b.delta() * c).scale(sgn(deg_a))
            - (ab * c.delta()).scale(sgn(deg_a + deg_b)))
        return residual.is_zero(), residual.terms


class RingClass(LinComb):
    """A combination of class labels of a BVContext's ring: its product is
    the cup product and delta() the operator."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: BVContext, terms=None):
        self.ctx = ctx
        super().__init__(terms, ctx.A.field.p)

    def _like(self, terms):
        return RingClass(self.ctx, terms)

    def __mul__(self, other):
        return self._like(self.bilinear(
            other, lambda la, lb: self.ctx.ring.product(la, lb).items()))

    def delta(self):
        return self._like(self.linear(
            lambda lbl: self.ctx.delta_of_label(lbl).items()))


# -- the bv command's report ----------------------------------------------------


def generator_labels(ring):
    """The classes of the model generators that lie in the window, in the
    model's order."""
    labels = (ring.label_from_exponents({g: 1}) for g in ring.generators)
    return [lbl for lbl in labels if lbl in ring.class_reps]


def _bidegree_of_product(ring, labels):
    """The summed bidegree of the labels."""
    return tuple(map(sum, zip(*map(ring.bidegree, labels))))


def generator_monomial_labels(ring):
    """Basis classes that are products of one or two model generators (the
    unit is omitted: the operator kills it by the algebra axioms)."""
    labels = (ring.label_from_exponents(Counter(gens)) for k in (1, 2)
              for gens in itertools.combinations_with_replacement(
                  ring.generators, k))
    return [lbl for lbl in labels if lbl in ring.class_reps]


def seven_term_sweep(ctx: BVContext, labels):
    """The seven-term identity over every triple of labels whose product
    lies in the window at positive filtration (the operator vanishes at
    filtration 0): the bv_identity_sweep section of a bv document."""
    ring = ctx.ring
    sweep = {"checked": 0, "failures": []}
    skipped = []
    for triple in itertools.combinations_with_replacement(labels, 3):
        p, q = _bidegree_of_product(ring, triple)
        if not ring.window.contains(p, q) or p < 1:
            continue
        la, lb, lc = triple
        names = [ring.label_str(x) for x in triple]
        try:
            holds, residual = ctx.check_bv_identity(
                {la: 1}, {lb: 1}, {lc: 1},
                ring.total_degree(la), ring.total_degree(lb))
        except WindowError:
            # a nonzero a.b, b.c or a.c, or a term built from one, lies
            # outside the window although a.b.c lies inside it
            skipped.append(names)
            continue
        sweep["checked"] += 1
        if not holds:
            sweep["failures"].append({
                "triple": names,
                "residual": sorted([ring.label_str(t), c]
                                   for t, c in residual.items())})
    if skipped:
        sweep["skipped_outside_window"] = skipped
    return sweep


def bv_report(A: AlgebraPresentation, window: DegreeWindow):
    """What `hhkt bv` reports: (metadata entries, document sections, exit
    code).  The sections are the operator on the generator monomials with
    their extension resolutions, the product extensions of generator
    pairs, and the seven-term identity over generator triples."""
    ctx = BVContext(A, window)
    ring = ctx.ring
    if ring.generators is None:
        why = ("the relations are not pure powers"
               if ring.differential_vanishes else
               "the Hom-complex differential does not vanish in the window")
        raise PresentationError(
            f"bv needs a monomial generator model of HH, and there is "
            f"none: {why}")
    meta = {}
    if A.field.p != 2:
        meta["odd_characteristic_bv"] = \
            "computed, but outside the validated scope"
    meta["formal_dimension"] = ctx.d
    meta["fundamental_class"] = A.label_monomial(ctx.pd.fundamental_class)
    meta["xi_lifting_depth"] = ctx.xi.depth
    labels = generator_monomial_labels(ring)
    delta_gr = {lbl: ctx.delta_of_label(lbl) for lbl in labels}
    bv_table = []
    for lbl in labels:
        res = resolve_bv_extension(ring, delta_gr, lbl)
        bv_table.append({
            "class": ring.label_str(lbl),
            "bidegree": list(ring.bidegree(lbl)),
            "delta_gr": sorted([ring.label_str(t), c]
                               for t, c in delta_gr[lbl].items()),
            "status": res.status,
            "ambiguity_basis": [ring.label_str(t) for t in res.ambiguity],
        })
    gen_labels = generator_labels(ring)
    ext_table = []
    for l1, l2 in itertools.combinations_with_replacement(gen_labels, 2):
        if not ring.window.contains(*_bidegree_of_product(ring, (l1, l2))):
            continue
        res = resolve_product_extension(ring, l1, l2)
        ext_table.append({
            "a": ring.label_str(l1), "b": ring.label_str(l2),
            "status": res.status,
            "value": sorted([ring.label_str(t), c]
                            for t, c in (res.value or {}).items()),
            "ambiguity_basis": [ring.label_str(t) for t in res.ambiguity],
        })
    sweep = seven_term_sweep(ctx, gen_labels)
    sections = {
        "bv_table": bv_table,
        "extension_report": ext_table,
        "bv_identity_sweep": sweep,
    }
    return meta, sections, (0 if not sweep["failures"] else 3)
