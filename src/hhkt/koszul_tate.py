"""Koszul-Tate resolution of a graded complete intersection, with an
explicit diagonal, the dual ring it induces on cohomology, and the
comparison map T from the bar side (XiLift), which needs no Poincare
duality.

The resolution is F = Lambda (x) Lambda (x) Gamma[nu] (x) /\\(u) (x)
Gamma[w]:

* nu_i kills y_i (x) 1 - 1 (x) y_i          bidegree (-1, deg y_i)
* u_j kills x_j (x) 1 - 1 (x) x_j           bidegree (-1, deg x_j)
* gamma_r(w_i) kills the relation rho_i:    bidegree of w_i = (-2, deg rho_i)
  d(gamma_r(w_i)) = (sum_j zeta_ij u_j) gamma_{r-1}(w_i)

The differential is a derivation.  A monomial of F, (l, r, e), and one of
F (x)_Lambda F, (lamL, lamM, alpha, lamR, beta), are both tuples of algebra
slots and E-slots, and one product serves both (mul_slots): it merges the
E-slots, multiplies the algebra slots in Lambda and takes its Koszul sign
from merging the two ordered symbol sequences (slot_symbols, merge_sign),
so one code path serves F, its tensor square and every characteristic
(signs are trivially +1 mod 2).

Filtration convention: "level" counts resolution steps (>= 0); the
homological degree is -level, the bidegree of a level-p internal-degree-t
element is (-p, t) and its total degree t - p.

The generators of E are one table in roster order (nu, u, w),
KTResolution.e_generators, and an E-monomial (EMono) is the tuple of
their exponents in that order.  The product of E-monomials, their degrees
and ordered symbols (e_symbols, keyed by roster position), the
E-monomials of a level and their counts, the roster, the dual labels and
the spectral filtration bound are read from it; only the differential and
diagonal of one symbol depend on its kind.

Per-E-monomial data is computed once per resolution and reused: the
diagonal D(alpha) and the differential d(alpha) of each E-monomial alpha,
and its degrees and symbols; diagonal_mono itself stays uncached, so
checks that call it see a fresh computation.  The cup product is read from
structure constants (cup_constants): for each pair of E-monomials (e1, e2)
and parities of |a| and |b|, the terms of D(alpha) over every alpha of the
level of e1 e2 are summed, once, into one polynomial Q_alpha of Lambda per
alpha, so that (a . e1*) cup (b . e2*) = sum_alpha (Q_alpha a b) . alpha*
is one lookup and one product in Lambda per pair of basis cochains.
Beyond the window, cell dimensions of the monomial model are counted,
sum_t N(p, t) dim A_{t+q}, from the number N(p, t) of E-monomials per
level and internal degree (emono_counts).

Three fields.CellComplex subclasses hold the cells: KTResolution is F by
(level, internal degree), its tensor_square is F (x)_Lambda F, and KTRing
is the Hom complex A (x) E-dual by (p, q).  The diagonal correction and
the comparison map xi are solves in their cells.  A cochain of the Hom
complex is a dict of terms {(e, a): coeff} keyed like KTRing.cell_basis:
the map sending the E-monomial e to the sum of its coefficients a; the
cup product (cup_via_diagonal) takes and returns such terms, and
XiLift.cochain pulls them back to the bar cochains f . xi of its window.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

from . import lazy_module
from .algebra import (AlgebraPresentation, InternalConsistencyError, Monomial,
                      Polynomial, UnsupportedDiagonalError, zeta_coefficients)
from .bigraded import DegreeWindow, WindowError
from .fields import CellComplex, LinComb, SparseMatrix

bar = lazy_module("hhkt.bar")  # XiLift alone reads it


def lucas_binomial(n, k, p):
    """binom(n, k) mod p by Lucas' rule on base-p digits."""
    if k < 0 or k > n:
        return 0
    result = 1
    while n or k:
        ni, ki = n % p, k % p
        if ki > ni:
            return 0
        result = (result * math.comb(ni, ki)) % p
        n //= p
        k //= p
    return result


class EMono(tuple):
    """A monomial of the generator part E: the exponents of the generators
    of E in roster order (KTResolution.e_generators), a u at most 1."""

    __slots__ = ()

    def __repr__(self):
        return f"EMono({tuple.__repr__(self)})"


# one generator of E: its kind ("nu", "u" or "w"), index within the kind,
# roster symbol, level, internal degree, and whether its powers are divided
# (nu, w) rather than square-zero (u)
EGenerator = namedtuple("EGenerator",
                        "kind index symbol level degree divided")

KTMono = tuple  # (left: Monomial, right: Monomial, e: EMono)


def slot_symbols(R, m):
    """Ordered (key, total degree) pairs of a monomial of F or of
    F (x)_Lambda F: the algebra slot i keyed (i, ()), each symbol of the
    E-slot i keyed (i, roster position)."""
    syms = []
    for i, s in enumerate(m):
        if type(s) is EMono:
            syms.extend(((i, key), deg) for key, deg, _ in R.e_symbols(s))
        else:
            syms.append(((i, ()), R.algebra.mono_degree(s)))
    return syms


def merge_sign(syms1, syms2):
    """Koszul sign for stably sorting syms1 + syms2 by key.

    Only cross pairs (a from the first list, b from the second) with
    key(b) < key(a) swap; equal keys keep the first-list symbol on the
    left.
    """
    sign = 1
    for key_a, deg_a in syms1:
        if deg_a % 2 == 0:
            continue
        for key_b, deg_b in syms2:
            if deg_b % 2 and key_b < key_a:
                sign = -sign
    return sign


def _merge_emono(R, e1: EMono, e2: EMono):
    """The product of two E-monomials as (EMono, coeff), or (None, 0): a
    generator in both factors multiplies by binom(a + b, a) if its powers
    are divided, and kills the product if it squares to zero."""
    p = R.field.p
    coeff = 1
    for g, a, b in zip(R.e_generators, e1, e2):
        if a and b:
            coeff = coeff * lucas_binomial(a + b, a, p) % p if g.divided else 0
            if not coeff:
                return None, 0
    return EMono(map(operator.add, e1, e2)), coeff


def mul_slots(R, m1, m2):
    """The product of two monomials of F, or of F (x)_Lambda F, slot by
    slot, as a list of (monomial, coeff): E-slots merge (_merge_emono),
    algebra slots multiply in Lambda, and the sign is merge_sign of their
    symbols."""
    coeff = 1
    slots = []
    for s1, s2 in zip(m1, m2):
        if type(s1) is EMono:
            e, c = _merge_emono(R, s1, s2)
            if e is None:
                return []
            coeff *= c
            slots.append(((e, 1),))
        else:
            slots.append(R.algebra.mul_monomials(s1, s2))
    coeff *= merge_sign(slot_symbols(R, m1), slot_symbols(R, m2))
    return [(tuple(s for s, _ in factors),
             coeff * math.prod(c for _, c in factors))
            for factors in itertools.product(*slots)]


class KTResolution(CellComplex):
    """The resolution F as a chain complex of (level, internal degree)
    cells, with its generator roster, bidegrees and the pre-verified zeta
    matrix; its tensor square over Lambda is tensor_square."""

    step = -1

    def __init__(self, presentation: AlgebraPresentation):
        super().__init__(presentation.field)
        A = self.algebra = presentation
        self.l = A.n_ext
        self.n = A.n_poly
        self.zeta = [zeta_coefficients(rho) for rho in A.relations]
        gens = A.generators
        self.e_generators = (
            tuple(EGenerator("nu", i, f"nu_{gens[g].name}", 1, gens[g].degree,
                             True) for i, g in enumerate(A.ext_index))
            + tuple(EGenerator("u", j, f"u_{gens[g].name}", 1, gens[g].degree,
                               False) for j, g in enumerate(A.poly_index))
            + tuple(EGenerator("w", i, f"w_{i}", 2, rho.degree(), True)
                    for i, rho in enumerate(A.relations)))
        self._emono_cache = {}
        self._e_cache = {}
        self._diag_cache = {}
        self._cup_tables = {}
        self._cup_constants = {}
        self._alpha_d_cache = {}
        self._count_cache = {}
        self.tensor_square = TensorSquare(self)

    # -- cells --------------------------------------------------------------

    def _basis(self, level, internal):
        """Ordered basis monomials (left, right, e) of F at one bidegree."""
        A = self.algebra
        out = []
        for e in emonos_at_level(self, level):
            rem = internal - self.e_internal(e)
            if rem < 0:
                continue
            for dl in range(rem + 1):
                for left in A.monomial_basis(dl):
                    for right in A.monomial_basis(rem - dl):
                        out.append((left, right, e))
        return out

    def _boundary(self, m):
        return kt_d_mono(self, m)

    # -- degrees ------------------------------------------------------------

    def emono(self, exps=()):
        """The E-monomial with the exponents {roster position: exponent},
        every other exponent 0 (the unit by default)."""
        e = [0] * len(self.e_generators)
        for pos, k in dict(exps).items():
            e[pos] = k
        return EMono(e)

    def unit_emono(self):
        return self.emono()

    def _e_data(self, e: EMono):
        """(level, internal degree, symbols) of an E-monomial, cached per
        E-monomial."""
        data = self._e_cache.get(e)
        if data is None:
            gens = self.e_generators
            data = self._e_cache[e] = (
                sum(k * g.level for g, k in zip(gens, e)),
                sum(k * g.degree for g, k in zip(gens, e)),
                tuple((pos, k * (g.degree - g.level), k)
                      for pos, (g, k) in enumerate(zip(gens, e)) if k))
        return data

    def e_level(self, e: EMono) -> int:
        return self._e_data(e)[0]

    def e_internal(self, e: EMono) -> int:
        return self._e_data(e)[1]

    def e_total(self, e: EMono) -> int:
        return self.e_internal(e) - self.e_level(e)

    def e_symbols(self, e: EMono):
        """Ordered (roster position, total degree, exponent) triples of
        the generators in the E-monomial e."""
        return self._e_data(e)[2]

    def generator_roster(self):
        """(symbol, bidegree) list, for reports."""
        return [(g.symbol, (-g.level, g.degree)) for g in self.e_generators]


class _SlotCombination(LinComb):
    """Linear combination over F_p of monomials of F or of F (x)_Lambda F,
    multiplied slot by slot."""

    __slots__ = ("R",)

    def __init__(self, R: KTResolution, terms=None):
        self.R = R
        super().__init__(terms, R.field.p)

    def _like(self, terms):
        return type(self)(self.R, terms)

    def __mul__(self, other):
        R = self.R
        return self._like(self.bilinear(other,
                                        lambda m1, m2: mul_slots(R, m1, m2)))


class KTElement(_SlotCombination):
    """Linear combination of KT monomials over F_p."""

    __slots__ = ()

    @classmethod
    def from_mono(cls, R, left=None, right=None, e=None, coeff=1):
        A = R.algebra
        mono = (left if left is not None else A.unit_monomial(),
                right if right is not None else A.unit_monomial(),
                e if e is not None else R.unit_emono())
        return cls(R, {mono: coeff})

    def d(self):
        return self._like(self.linear(lambda m: kt_d_mono(self.R, m)))


def _d_symbol(R: KTResolution, pos, exp):
    """d of the power exp of the generator at roster position pos, as a
    KTElement."""
    A = R.algebra
    g = R.e_generators[pos]
    one = A.unit_monomial()
    if g.kind != "w":
        index = A.ext_index if g.kind == "nu" else A.poly_index
        y = A.generator_monomial(A.generators[index[g.index]].name)
        e = R.emono({pos: exp - 1})
        return KTElement(R, {(y, one, e): 1, (one, y, e): -1})
    # d(gamma_f(w_i)) = (sum_j zeta_ij u_j) gamma_{f-1}(w_i)
    terms = {}
    for j in range(R.n):
        zeta = R.zeta[g.index][j]
        if zeta.is_zero():
            continue
        e = R.emono({R.l + j: 1, pos: exp - 1})  # u_j gamma_{f-1}(w_i)
        for (ml, mr), c in zeta.terms.items():
            key = (ml, mr, e)
            terms[key] = terms.get(key, 0) + c
    return KTElement(R, terms)


def kt_d_mono(R: KTResolution, m: KTMono):
    """Derivation extension of the generator differentials."""
    A = R.algebra
    e = m[2]
    syms = R.e_symbols(e)
    if not syms:
        return []
    out = {}
    prefix_deg = A.mono_degree(m[0]) + A.mono_degree(m[1])
    for pos, deg, exp in syms:
        sign = -1 if prefix_deg % 2 else 1
        # the symbols before pos, and those after it
        prefix_e = EMono(e[:pos] + (0,) * (len(e) - pos))
        suffix_e = EMono((0,) * (pos + 1) + e[pos + 1:])
        prefix = KTElement(R, {(m[0], m[1], prefix_e): sign})
        suffix = KTElement.from_mono(R, e=suffix_e)
        term = (prefix * _d_symbol(R, pos, exp)) * suffix
        for mm, cc in term.terms.items():
            out[mm] = out.get(mm, 0) + cc
        prefix_deg += deg
    p = R.field.p
    return [(mm, cc % p) for mm, cc in out.items() if cc % p]


def _boundary_by_emono(R: KTResolution, alpha: EMono):
    """d(1 (x) 1 . alpha), computed once per alpha and multiplied out in
    Lambda, as {e: P}: P is the sum of the c l r over the terms
    c (l (x) r) . e of d(alpha).  The Hom-complex differential reads P
    with one sign per cell, because a term of d(alpha) whose |l| + |r| is
    odd cancels in P against a partner of the same sign: in characteristic
    2 every sign is trivial, and in odd characteristic relations involve
    only (even) polynomial generators, so the zeta and u terms have even
    |l| + |r|, and the only odd ones are the nu terms, (y (x) 1 - 1 (x) y)
    times the same rest, with equal l r and opposite coefficients.  An
    alpha without a w symbol gives {}: every symbol's d is such a
    difference, (y (x) 1 - 1 (x) y) or (x (x) 1 - 1 (x) x) times the
    rest."""
    sums = R._alpha_d_cache.get(alpha)
    if sums is None:
        A = R.algebra
        one = A.unit_monomial()
        terms = {}
        if any(alpha[R.l + R.n:]):  # a w exponent
            for (l, r, e), c in kt_d_mono(R, (one, one, alpha)):
                P = terms.setdefault(e, {})
                for m, mc in A.mul_monomials(l, r):
                    P[m] = P.get(m, 0) + c * mc
        sums = R._alpha_d_cache[alpha] = {
            e: Polynomial(A, P) for e, P in terms.items()}
    return sums


# -- cell enumeration and matrices --------------------------------------------


def emonos_at_level(R: KTResolution, level: int):
    """The E-monomials of one level, built over the roster: each generator
    in turn takes every exponent that the level left allows, at most 1
    unless it is divided.  They are sorted by (nu exponents, u bitmask,
    w exponents), the order of every cell basis: the bitmask of the u's
    compares as their exponents read from the last u to the first."""
    out = R._emono_cache.get(level)
    if out is None:
        partial = [(level, ())]  # (level left, exponents so far)
        for g in R.e_generators:
            partial = [(rest - k * g.level, exps + (k,))
                       for rest, exps in partial
                       for k in range(rest // g.level + 1)
                       if g.divided or k < 2]
        l, n = R.l, R.n
        out = R._emono_cache[level] = sorted(
            (EMono(exps) for rest, exps in partial if not rest),
            key=lambda e: e[:l] + e[l:l + n][::-1] + e[l + n:])
    return out


def emono_counts(R: KTResolution, level: int, k: int | None = None):
    """{internal degree: number of E-monomials} at one level, counted over
    the first k generators (all by default) without enumerating them: a
    monomial either omits generator k or is generator k times a monomial
    one step lower that may still use it (if it is divided)."""
    k = len(R.e_generators) if k is None else k
    counts = R._count_cache.get((k, level))
    if counts is None:
        if level < 0 or k == 0:
            counts = {0: 1} if level == 0 else {}
        else:
            g = R.e_generators[k - 1]
            counts = dict(emono_counts(R, level, k - 1))
            lower = emono_counts(R, level - g.level, k if g.divided else k - 1)
            for t, n in lower.items():
                counts[t + g.degree] = counts.get(t + g.degree, 0) + n
        R._count_cache[(k, level)] = counts
    return counts


ExactnessReport = namedtuple(
    "ExactnessReport", "ok max_level internal_bound failures")


def exactness_check(R: KTResolution, max_level: int, internal_bound: int):
    """Homology of (F, d) in the window must be Lambda at level 0."""
    A = R.algebra
    failures = []
    for t in range(internal_bound + 1):
        for level in range(max_level + 1):
            dim = R.homology_dim(level, t)
            expected = A.dim_in_degree(t) if level == 0 else 0
            if dim != expected:
                failures.append((level, t, dim, expected))
    return ExactnessReport(not failures, max_level, internal_bound, failures)


# -- the resolution tensored with itself over Lambda ---------------------------

TMono = tuple  # (lamL, lamM, alpha: EMono, lamR, beta: EMono)


class KTTensorElement(_SlotCombination):
    """Element of F (x)_Lambda F in the normal form with the right slot's
    left coordinate slid into the middle."""

    __slots__ = ()

    def boundary(self):
        return self._like(self.linear(lambda m: _tmono_boundary(self.R, m)))


def _tmono_boundary(R, m: TMono):
    """d (x) 1 + (-1)^{|left slot|} 1 (x) d, renormalized."""
    A = R.algebra
    lamL, lamM, alpha, lamR, beta = m
    out = {}
    # left slot: an honest KT monomial
    for (l, mid, a2), c in kt_d_mono(R, (lamL, lamM, alpha)):
        key = (l, mid, a2, lamR, beta)
        out[key] = out.get(key, 0) + c
    left_total = (A.mono_degree(lamL) + A.mono_degree(lamM)
                  + R.e_total(alpha))
    sgn = -1 if left_total % 2 else 1
    alpha_tot = R.e_total(alpha)
    for (qL, qR, b2), c in kt_d_mono(R, (A.unit_monomial(), lamR, beta)):
        # slide the produced left coordinate qL into the middle, crossing
        # the alpha part
        slide = -1 if (A.mono_degree(qL) * alpha_tot) % 2 else 1
        for mM, cM in A.mul_monomials(lamM, qL):
            key = (lamL, mM, alpha, qR, b2)
            out[key] = out.get(key, 0) + sgn * slide * c * cM
    p = R.field.p
    return [(k, v % p) for k, v in out.items() if v % p]


class TensorSquare(CellComplex):
    """F (x)_Lambda F as a chain complex of (level, internal degree) cells
    of TMonos."""

    step = -1

    def __init__(self, R: KTResolution):
        super().__init__(R.field)
        self.R = R

    def _basis(self, level, internal):
        R = self.R
        A = R.algebra
        out = []
        for la in range(level + 1):
            lb = level - la
            for alpha in emonos_at_level(R, la):
                ta = R.e_internal(alpha)
                for beta in emonos_at_level(R, lb):
                    tb = R.e_internal(beta)
                    rem = internal - ta - tb
                    if rem < 0:
                        continue
                    for dL in range(rem + 1):
                        for dM in range(rem - dL + 1):
                            dR = rem - dL - dM
                            for mL in A.monomial_basis(dL):
                                for mM in A.monomial_basis(dM):
                                    for mR in A.monomial_basis(dR):
                                        out.append(
                                            (mL, mM, alpha, mR, beta))
        return out

    def _boundary(self, m):
        return _tmono_boundary(self.R, m)


# -- the diagonal ---------------------------------------------------------------


def _divided_coproduct(R: KTResolution, pos, exp) -> KTTensorElement:
    """sum_s gamma_s (x) gamma_{exp-s} of the generator at roster position
    pos (gamma_0 (x) gamma_1 + gamma_1 (x) gamma_0 for a u)."""
    one = R.algebra.unit_monomial()
    return KTTensorElement(R, {
        (one, one, R.emono({pos: s}), one, R.emono({pos: exp - s})): 1
        for s in range(exp + 1)})


def _diag_symbol(R: KTResolution, pos, exp) -> KTTensorElement:
    """The diagonal of gamma_exp of the generator at roster position pos:
    its divided coproduct, plus for a w a correction, solved once per
    (pos, exp), so that the chain-map identity holds; the correction is
    forced by the zeta terms."""
    if R.e_generators[pos].kind != "w":
        return _divided_coproduct(R, pos, exp)
    result = R._diag_cache.get((pos, exp))
    if result is None:
        one = R.algebra.unit_monomial()
        result = _divided_coproduct(R, pos, exp)
        gamma = R.emono({pos: exp})
        d_gamma = KTElement(R, dict(kt_d_mono(R, (one, one, gamma))))
        rhs = diagonal_element(R, d_gamma) - result.boundary()
        if not rhs.is_zero():
            correction = R.tensor_square.solve(
                2 * exp, R.e_internal(gamma), rhs.terms)
            if correction is None:
                raise UnsupportedDiagonalError(
                    f"no diagonal correction for relation "
                    f"{R.e_generators[pos].index} divided power {exp} "
                    f"within the window")
            result = result + KTTensorElement(R, correction)
        R._diag_cache[(pos, exp)] = result
    return result


def diagonal_mono(R: KTResolution, m: KTMono) -> KTTensorElement:
    """The diagonal of the KT monomial (l (x) r) . e: l (x) 1 (x) r times
    the diagonals of the symbols of e, in order."""
    unit = R.unit_emono()
    acc = KTTensorElement(R, {(m[0], R.algebra.unit_monomial(), unit, m[1],
                               unit): 1})
    for pos, _, exp in R.e_symbols(m[2]):
        acc = acc * _diag_symbol(R, pos, exp)
    return acc


def _cup_table(R: KTResolution, level: int):
    """The terms of D(1 (x) 1 . alpha) over every alpha of one level, built
    once per level from one diagonal_mono call per alpha and grouped by
    their (a_e, b_e) slots, in level order.  An entry is (alpha,
    lamL lamM lamR as (monomial, coeff) pairs, coeff, |lamL lamM| odd,
    |lamR| plus the left slot's total degree odd, |lamR| odd)."""
    table = R._cup_tables.get(level)
    if table is None:
        A = R.algebra
        one = A.unit_monomial()
        table = {}
        for alpha in emonos_at_level(R, level):
            diag = diagonal_mono(R, (one, one, alpha))
            for (lamL, lamM, a_e, lamR, b_e), c in diag.terms.items():
                lam_deg = A.mono_degree(lamL) + A.mono_degree(lamM)
                right_deg = A.mono_degree(lamR)
                lam = [(m, lc * mc) for lm, lc in A.mul_monomials(lamL, lamM)
                       for m, mc in A.mul_monomials(lm, lamR)]
                table.setdefault((a_e, b_e), []).append(
                    (alpha, lam, c, lam_deg % 2,
                     (right_deg + lam_deg + R.e_total(a_e)) % 2,
                     right_deg % 2))
        R._cup_tables[level] = table
    return table


def cup_constants(R: KTResolution, e1: EMono, e2: EMono, a_odd, b_odd):
    """The structure constants of (a . e1*) cup (b . e2*) for algebra
    monomials a, b of degree parities a_odd, b_odd, cached on R: a list of
    (alpha, Q_alpha), Q_alpha nonzero in Lambda as (monomial, coeff)
    pairs, such that the product is sum_alpha (Q_alpha a b) . alpha*.

    A term c (lamL (x) lamM) alpha' (x) lamR beta' of D(alpha) with
    (alpha', beta') = (e1, e2) evaluates to c (lamL lamM a)(lamR b), signed
    (-1)^(|lamL lamM| f + (|lamR| + |left slot|) g) for the total-degree
    parities f, g of the two factors; graded commutativity moves a past
    lamR at the sign (-1)^(|a| |lamR|), so Q_alpha is the signed sum of
    c lamL lamM lamR.  An empty list means every such product is zero."""
    key = (e1, e2, a_odd, b_odd)
    consts = R._cup_constants.get(key)
    if consts is None:
        p = R.field.p
        level = R.e_level(e1) + R.e_level(e2)
        f_odd = (a_odd + R.e_total(e1)) % 2
        g_odd = (b_odd + R.e_total(e2)) % 2
        sums = {}
        for alpha, lam, c, lam_odd, right_odd, lamR_odd in \
                _cup_table(R, level).get((e1, e2), ()):
            if (lam_odd * f_odd + right_odd * g_odd + a_odd * lamR_odd) % 2:
                c = -c
            Q = sums.setdefault(alpha, {})
            for m, mc in lam:
                Q[m] = Q.get(m, 0) + c * mc
        consts = R._cup_constants[key] = []
        for alpha, Q in sums.items():
            Q = tuple((m, c % p) for m, c in Q.items() if c % p)
            if Q:
                consts.append((alpha, Q))
    return consts


def cup_terms(R: KTResolution, consts, ab, tag=()):
    """sum_alpha (Q_alpha ab) . alpha* for the cup_constants consts and an
    element ab of Lambda given as (monomial, coeff) pairs, as terms
    {tag + (alpha, monomial): coeff}."""
    mul = R.algebra.mul_monomials
    p = R.field.p
    out = {}
    for alpha, Q in consts:
        head = tag + (alpha,)
        for q, qc in Q:
            for m, c in ab:
                for mm, mc in mul(q, m):
                    key = head + (mm,)
                    out[key] = out.get(key, 0) + qc * c * mc
    return {key: c % p for key, c in out.items() if c % p}


def diagonal_element(R: KTResolution, x: KTElement) -> KTTensorElement:
    return KTTensorElement(
        R, x.linear(lambda m: diagonal_mono(R, m).terms.items()))


# -- the dual ring over a coefficient algebra --------------------------------


def cup_via_diagonal(R: KTResolution, f, g):
    """(f cup g)(alpha) = (f (x) g)(D alpha) for cochains given as terms
    {(e, a): coeff}: for each pair of their terms (e1, a) and (e2, b), the
    cup_terms of the cup_constants of (e1, e2) and the product a b, as
    terms {(alpha, monomial): coeff}."""
    A = R.algebra
    p = R.field.p
    out = {}
    for (e1, a), ca in f.items():
        a_odd = A.mono_degree(a) % 2
        for (e2, b), cb in g.items():
            consts = cup_constants(R, e1, e2, a_odd, A.mono_degree(b) % 2)
            if consts:
                for key, c in cup_terms(R, consts,
                                        A.mul_monomials(a, b)).items():
                    out[key] = out.get(key, 0) + ca * cb * c
    return {key: c % p for key, c in out.items() if c % p}


# -- HH via the resolution -----------------------------------------------------


class KTRing(CellComplex):
    """The bigraded ring HH(Lambda; Lambda) computed from the resolution.

    The Hom complex A (x) E-dual is a cochain complex of (p, q) cells with
    basis entries (e, a), the dual of the E-monomial e of level p times the
    monomial a of A.  When its differential vanishes identically in the
    window (no relations, or all relation derivatives vanish mod p) the
    cells are read off directly and a monomial generator model is attached;
    otherwise cells are its homology classes.  Whether it vanishes is read
    from the boundaries d(alpha) of the E-monomials, without a matrix
    (_differential_vanishes); only the homology path builds the
    differential matrices, to reduce its cells.  Both read the sum P of
    each d(alpha) from _boundary_by_emono, and an alpha without a w symbol
    contributes nothing to either.  class_reps maps each class
    label to a representative cochain, as terms {(e, a): coeff} of its
    cell basis: {(e, a): 1} for the label ("m", e, a).
    """

    def __init__(self, R: KTResolution, window: DegreeWindow):
        super().__init__(R.field)
        self.R = R
        self.algebra = R.algebra
        self.window = window
        self._build()

    # each cell: list of labels; label = ("m", e, a) in the monomial
    # model, or ("h", p, q, k) for homology classes
    def _basis(self, p, q):
        A = self.algebra
        out = []
        for e in emonos_at_level(self.R, p):
            d = self.R.e_internal(e) + q
            for a in A.monomial_basis(d):
                out.append((e, a))
        return out

    def _matrix(self, p, q):
        """Induced differential on A (x) E-dual from cell (p,q) to (p+1,q):
        the rows of alpha in the column (e, a) are -P a when p + q is even
        and P a when it is odd, P = _boundary_by_emono(alpha)[e]."""
        R, A = self.R, self.algebra
        src = self.cell_basis(p, q)
        dst_index = self.index(p + 1, q)
        sign = 1 if (p + q) % 2 else -1
        boundaries = [(alpha, _boundary_by_emono(R, alpha))
                      for alpha in emonos_at_level(R, p + 1)
                      if R.e_internal(alpha) + q >= 0]
        entries = {}
        for j, (e, a) in enumerate(src):
            a_poly = Polynomial(A, {a: 1})
            for alpha, d_alpha in boundaries:
                if e in d_alpha:
                    for mono, c in (d_alpha[e] * a_poly).terms.items():
                        entries[(dst_index[(alpha, mono)], j)] = sign * c
        return SparseMatrix(len(dst_index), len(src), entries, R.field)

    def _build(self):
        W = self.window
        self.cells = {}
        self.class_reps = {}
        self.differential_vanishes = self._differential_vanishes()
        if self.differential_vanishes:
            # the (E-monomial, parity of |a|) of each label ("m", e, a), and
            # the products by cup_constants key and algebra product a b
            self._block_keys = {}
            self._cup_values = {}
            for (p, q) in W.cells():
                pairs = self.cell_basis(p, q)
                self.cells[(p, q)] = [("m", e, a) for (e, a) in pairs]
                for e, a in pairs:
                    self.class_reps[("m", e, a)] = {(e, a): 1}
                    self._block_keys[("m", e, a)] = (
                        e, (self.R.e_internal(e) + q) % 2)
            self.generators = self._generator_model()
        else:
            self.generators = None
            for (p, q) in W.cells():
                labels = []
                for k, rep in enumerate(self.homology(p, q).representatives):
                    label = ("h", p, q, k)
                    labels.append(label)
                    self.class_reps[label] = self.combination(p, q, rep)
                self.cells[(p, q)] = labels

    def _differential_vanishes(self):
        """Whether the differential out of every cell (p, q), p <= max_p + 1
        and q in the window, is zero, decided without building its matrix:
        _matrix writes -+ P a for the P of _boundary_by_emono, so only a
        nonzero P is multiplied by the cell's monomials a."""
        R, A, W = self.R, self.algebra, self.window
        for p in range(W.max_p + 2):
            for alpha in emonos_at_level(R, p + 1):
                for e, P in _boundary_by_emono(R, alpha).items():
                    if P.is_zero():
                        continue
                    for q in range(W.q_min, W.q_max + 1):
                        for a in A.monomial_basis(R.e_internal(e) + q):
                            if not (P * Polynomial(A, {a: 1})).is_zero():
                                return False
        return True

    def _generator_model(self):
        """The names of the model generators when the ring is A (x) E-dual
        on the nose, else None; generator_payloads maps each name to its
        place: ("a_ext", i) or ("a_poly", j) for a generator of A, ("e",
        roster position) for the dual of a generator of E."""
        A = self.R.algebra
        if not A.pure_powers:
            return None  # no monomial model for general relation ideals
        self.generator_payloads = {
            **{A.generators[g].name: ("a_ext", i)
               for i, g in enumerate(A.ext_index)},
            **{A.generators[g].name: ("a_poly", j)
               for j, g in enumerate(A.poly_index)},
            **{f"{g.symbol}*": ("e", pos)
               for pos, g in enumerate(self.R.e_generators)}}
        return tuple(self.generator_payloads)

    def label_from_exponents(self, exps: dict):
        """Ring basis label for a monomial in the model generators, or None
        when it holds a square-zero generator (an exterior generator of A,
        or a u*) more than once."""
        R = self.R
        mask = 0
        poly = [0] * R.algebra.n_poly
        e = {}
        for name, k in exps.items():
            kind, idx = self.generator_payloads[name]
            if k > 1 and (kind == "a_ext" or kind == "e"
                          and not R.e_generators[idx].divided):
                return None
            if kind == "a_ext":
                mask |= k << idx
            elif kind == "a_poly":
                poly[idx] = k
            else:
                e[idx] = k
        return ("m", R.emono(e), Monomial(mask, tuple(poly)))

    # -- queries ---------------------------------------------------------

    def bidegree(self, label):
        if label[0] == "m":
            _, e, a = label
            return (self.R.e_level(e),
                    self.algebra.mono_degree(a) - self.R.e_internal(e))
        return label[1:3]

    def total_degree(self, label):
        p, q = self.bidegree(label)
        return p + q

    def cell_dim(self, p, q):
        """Dimension of a cell; beyond the window, when the model is
        A (x) E-dual, sum_t N(p, t) dim A_{t+q} over the E-monomial counts
        N of level p."""
        if (p, q) in self.cells:
            return len(self.cells[(p, q)])
        if self.differential_vanishes:
            A = self.algebra
            return sum(n * A.dim_in_degree(t + q)
                       for t, n in emono_counts(self.R, p).items())
        return None

    def label_str(self, label):
        """Class label: algebra monomial and dual symbols joined by dots,
        e.g. 'y1*y2.nu_y1*^2'."""
        A = self.algebra
        if label[0] == "h":
            _, p, q, k = label
            return f"h[{p},{q}]#{k}"
        _, e, a = label
        parts = []
        a_lbl = A.label_monomial(a)
        if a_lbl != "1":
            parts.append(a_lbl)
        gens = self.R.e_generators
        for pos, _, k in self.R.e_symbols(e):
            parts.append(f"{gens[pos].symbol}*" + (f"^{k}" if k > 1 else ""))
        return ".".join(parts) if parts else "1"

    def product(self, la, lb):
        """Structure constants of the cup product in the class basis, a
        dict of its own."""
        ((_, values),) = self.product_blocks(la, (lb,))
        return dict(values[0]) if values else {}

    def product_blocks(self, la, run):
        """The products of la with the labels of run, as a list of
        (labels, values) over consecutive pieces of run: values[i] is
        product(la, labels[i]), and values is None when every product of
        the piece is zero.  Every label is checked first.  In the monomial
        model a piece is a maximal stretch of labels with one E-monomial e2
        and one parity of |b| (read from _block_keys; a cell's labels are
        E-monomial-major, so it has one piece per E-monomial), one
        cup_constants lookup serves the piece, and an empty one makes it
        zero without a product.  A product depends on b only through a b,
        so it is computed once per (constants, a b) and the same dict is
        given for every pair that shares them: values are read-only.  On
        the homology path the whole run is one piece, each product a
        cup_via_diagonal expressed in the class basis."""
        reps = self.class_reps
        if la not in reps or not all(map(reps.__contains__, run)):
            bad = next(lbl for lbl in (la, *run) if lbl not in reps)
            raise WindowError(f"class {self.label_str(bad)} lies outside "
                              f"the window")
        R, A = self.R, self.algebra
        if not self.differential_vanishes:
            pa, qa = self.bidegree(la)
            f = reps[la]
            values = []
            for lb in run:
                pb, qb = self.bidegree(lb)
                cup = cup_via_diagonal(R, f, reps[lb])
                values.append(self._express(cup, pa + pb, qa + qb))
            return [(run, values)]
        # the monomial model extends beyond the window
        _, e1, a = la
        a_odd = A.mono_degree(a) % 2
        blocks = []
        for (e2, b_odd), block in itertools.groupby(
                run, self._block_keys.__getitem__):
            block = list(block)
            key = (e1, e2, a_odd, b_odd)
            consts = cup_constants(R, *key)
            values = None
            if consts:
                memo = self._cup_values.setdefault(key, {})
                values = []
                for lb in block:
                    ab = A.mul_monomials(a, lb[2])
                    value = memo.get(ab)
                    if value is None:
                        value = memo[ab] = cup_terms(R, consts, ab, ("m",))
                    values.append(value)
            blocks.append((block, values))
        return blocks

    def _express(self, terms, p, q):
        """Coordinates of a cocycle's class in the homology cell basis."""
        if not self.window.contains(p, q):
            raise WindowError(f"cell ({p},{q}) outside window")
        coords = self.express(p, q, terms)
        if coords is None:
            raise InternalConsistencyError("cup product not a cocycle class")
        return {("h", p, q, k): c for k, c in enumerate(coords) if c}


def hh_via_kt(presentation: AlgebraPresentation,
              window: DegreeWindow) -> KTRing:
    """HH(Lambda; Lambda) cells and products from the Koszul-Tate side."""
    return KTRing(KTResolution(presentation), window)


# -- comparison with the bar resolution ----------------------------------------


class XiLift:
    """The comparison map T on one window: a chain map xi from the bar
    resolution to F covering the identity, lifted word by word (each a
    deterministic solve in the acyclic F against the images of the word's
    faces) up to the window's bar length, and at least 4; and f -> f . xi
    onto the window's self-coefficient bar cochains (bar).  Any two lifts
    are chain homotopic, so no class read through them depends on which
    one is taken."""

    def __init__(self, R: KTResolution, window: DegreeWindow):
        self.R = R
        self.A = R.algebra
        self.depth = max(4, window.max_p)
        self.bar = bar.BarComplex(self.A, bar.COEFF_SELF, window)
        self.table = {}

    def value(self, word) -> KTElement:
        if len(word) > self.depth:
            raise ValueError(f"bar length {len(word)} beyond lifting depth "
                             f"{self.depth}")
        if word in self.table:
            return self.table[word]
        val = self._compute(word)
        self.table[word] = val
        return val

    def _compute(self, word):
        R, A = self.R, self.A
        if len(word) == 0:
            return KTElement.from_mono(R)
        rhs = self.rhs(word)
        if not rhs.d().is_zero():
            raise InternalConsistencyError("xi right-hand side is not a cycle")
        sol = R.solve(len(word), sum(A.mono_degree(a) for a in word),
                      rhs.terms)
        if sol is None:
            raise InternalConsistencyError(
                "xi lift infeasible although F is acyclic")
        return KTElement(R, sol)

    def rhs(self, word):
        """xi_{k-1} applied to the interior bar differential of 1[word]1:
        the sum over its faces left[word']right of
        coeff . (left (x) 1) . xi(word') . (1 (x) right)."""
        R = self.R
        one = self.A.unit_monomial()
        rhs = KTElement(R)
        for left, sub, right, c in bar.bar_faces(self.A, word):
            term = self.value(sub).scale(c)
            if left != one:
                term = KTElement.from_mono(R, left=left) * term
            if right != one:
                term = term * KTElement.from_mono(R, right=right)
            rhs = rhs + term
        return rhs

    def cochain(self, f, p, q):
        """Pull a resolution-side cochain f, terms {(e, a): coeff} of the
        (p, q) cell, back along the comparison map: the bar cochain
        word -> f(xi(word)), where
        f((l (x) r) . e) = (-1)^((|l| + |r|)(p + q)) (l r) f(e)."""
        A = self.A
        values = {}
        for (e, a), c in f.items():
            values.setdefault(e, []).append((a, c))
        terms = {}
        for word in self.bar.cell_words(p, q):
            for (l, r, e), c in self.value(word).terms.items():
                if e not in values:
                    continue
                if (A.mono_degree(l) + A.mono_degree(r)) * (p + q) % 2:
                    c = -c
                for lr, lrc in A.mul_monomials(l, r):
                    for a, ca in values[e]:
                        for n, nc in A.mul_monomials(lr, a):
                            key = (word, n)
                            terms[key] = terms.get(key, 0) + c * lrc * ca * nc
        return bar.Cochain(A, bar.COEFF_SELF, p, q, terms)
