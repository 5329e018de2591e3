"""Koszul-Tate resolution of a graded complete intersection, with an
explicit diagonal, the dual ring it induces on cohomology, and the
comparison chain map from the bar resolution.

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

Per-E-monomial data is computed once per resolution and reused: the
diagonal D(alpha) and the differential d(alpha) of each E-monomial alpha,
and its internal degree; diagonal_mono itself stays uncached, so checks
that call it see a fresh computation.  The terms of D(alpha) over a level
are grouped once by their (a_e, b_e) slots, so the cup product
(a . e1*) cup (b . e2*) of basis cochains walks only the entries of
(e1, e2), and their factors (lamL lamM) a serve every b (cup_lefts, then
cup_on_basis).  Beyond the window, cell dimensions of the
monomial model are counted, sum_t N(p, t) dim A_{t+q}, from the number
N(p, t) of E-monomials per level and internal degree (emono_counts).

Three fields.CellComplex subclasses hold the cells: KTResolution is F by
(level, internal degree), its tensor_square is F (x)_Lambda F, and KTRing
is the Hom complex A (x) E-dual by (p, q).  The diagonal correction and
the comparison map xi are solves in their cells.  A cochain of the Hom
complex is a dict of terms {(e, a): coeff} keyed like KTRing.cell_basis:
the map sending the E-monomial e to the sum of its coefficients a; the
cup product (cup_via_diagonal) takes and returns such terms.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from . import lazy_module
from .algebra import (AlgebraPresentation, InternalConsistencyError, Monomial,
                      Polynomial, UnsupportedDiagonalError, zeta_coefficients)
from .bigraded import DegreeWindow, RingGenerator, WindowError
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


# monomial of the generator part E: divided nu and w powers, u mask
EMono = namedtuple("EMono", "nu u w")

KTMono = tuple  # (left: Monomial, right: Monomial, e: EMono)


def slot_symbols(R, m):
    """Ordered (key, total degree) pairs of a monomial of F or of
    F (x)_Lambda F: the algebra slot i keyed (i, ()), each symbol of the
    E-slot i keyed (i, subkey)."""
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


def _merge_emono(e1: EMono, e2: EMono, p):
    """The product of two E-monomials as (EMono, coeff), or (None, 0)."""
    if e1.u & e2.u:
        return None, 0
    coeff = 1
    for a, b in zip(e1.nu, e2.nu):
        if a and b:
            coeff = (coeff * lucas_binomial(a + b, a, p)) % p
    for a, b in zip(e1.w, e2.w):
        if a and b:
            coeff = (coeff * lucas_binomial(a + b, a, p)) % p
    if coeff == 0:
        return None, 0
    return EMono(tuple(a + b for a, b in zip(e1.nu, e2.nu)), e1.u | e2.u,
                 tuple(a + b for a, b in zip(e1.w, e2.w))), coeff


def mul_slots(R, m1, m2):
    """The product of two monomials of F, or of F (x)_Lambda F, slot by
    slot, as a list of (monomial, coeff): E-slots merge (_merge_emono),
    algebra slots multiply in Lambda, and the sign is merge_sign of their
    symbols."""
    p = R.field.p
    coeff = 1
    slots = []
    for s1, s2 in zip(m1, m2):
        if type(s1) is EMono:
            e, c = _merge_emono(s1, s2, p)
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
        self.algebra = presentation
        self.l = presentation.n_ext
        self.n = presentation.n_poly
        self.m = len(presentation.relations)
        self.nu_degrees = presentation.ext_degrees
        self.u_degrees = presentation.poly_degrees
        self.w_degrees = tuple(r.degree() for r in presentation.relations)
        self.zeta = [zeta_coefficients(rho) for rho in presentation.relations]
        self._emono_cache = {}
        self._internal_cache = {}
        self._diag_cache = {}
        self._cup_tables = {}
        self._alpha_d_cache = {}
        self._count_cache = {}
        self.tensor_square = TensorSquare(self)
        # (level step, internal degree, unbounded power) per generator
        self.count_generators = (
            tuple((1, d, True) for d in self.nu_degrees)
            + tuple((1, d, False) for d in self.u_degrees)
            + tuple((2, d, True) for d in self.w_degrees))

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

    def unit_emono(self):
        return EMono((0,) * self.l, 0, (0,) * self.m)

    def e_level(self, e: EMono) -> int:
        return sum(e.nu) + bin(e.u).count("1") + 2 * sum(e.w)

    def e_internal(self, e: EMono) -> int:
        t = self._internal_cache.get(e)
        if t is None:
            t = sum(k * d for k, d in zip(e.nu, self.nu_degrees))
            t += sum(self.u_degrees[j] for j in range(self.n)
                     if (e.u >> j) & 1)
            t += sum(k * d for k, d in zip(e.w, self.w_degrees))
            self._internal_cache[e] = t
        return t

    def e_total(self, e: EMono) -> int:
        return self.e_internal(e) - self.e_level(e)

    def generator_roster(self):
        """(symbol, bidegree) list, for reports."""
        A = self.algebra
        out = []
        for i in range(self.l):
            name = A.generators[A.ext_index[i]].name
            out.append((f"nu_{name}", (-1, self.nu_degrees[i])))
        for j in range(self.n):
            name = A.generators[A.poly_index[j]].name
            out.append((f"u_{name}", (-1, self.u_degrees[j])))
        for i in range(self.m):
            out.append((f"w_{i}", (-2, self.w_degrees[i])))
        return out

    # -- E symbols ------------------------------------------------------------

    def e_symbols(self, e: EMono):
        """Ordered (subkey, total_degree, payload) triples of the E part."""
        syms = []
        for i, k in enumerate(e.nu):
            if k:
                syms.append(((0, i), k * (self.nu_degrees[i] - 1),
                             ("nu", i, k)))
        for j in range(self.n):
            if (e.u >> j) & 1:
                syms.append(((1, j), self.u_degrees[j] - 1, ("u", j, 1)))
        for i, k in enumerate(e.w):
            if k:
                syms.append(((2, i), k * (self.w_degrees[i] - 2),
                             ("w", i, k)))
        return syms


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


def _d_symbol(R: KTResolution, payload):
    """d of one E symbol, as a KTElement."""
    A = R.algebra
    kind, idx, exp = payload
    one = A.unit_monomial()
    if kind == "nu":
        name = A.generators[A.ext_index[idx]].name
        y = A.generator_monomial(name)
        e = _emono_of(R, [("nu", idx, exp - 1)])
        return KTElement(R, {(y, one, e): 1, (one, y, e): -1})
    if kind == "u":
        name = A.generators[A.poly_index[idx]].name
        x = A.generator_monomial(name)
        e = R.unit_emono()
        return KTElement(R, {(x, one, e): 1, (one, x, e): -1})
    # kind == "w": d(gamma_f(w_i)) = (sum_j zeta_ij u_j) gamma_{f-1}(w_i)
    terms = {}
    for j in range(R.n):
        zeta = R.zeta[idx][j]
        if zeta.is_zero():
            continue
        e = _emono_of(R, [("u", j, 1), ("w", idx, exp - 1)])
        for (ml, mr), c in zeta.terms.items():
            key = (ml, mr, e)
            terms[key] = terms.get(key, 0) + c
    return KTElement(R, terms)


def kt_d_mono(R: KTResolution, m: KTMono):
    """Derivation extension of the generator differentials."""
    A = R.algebra
    syms = R.e_symbols(m[2])
    if not syms:
        return []
    payloads = [payload for _, _, payload in syms]
    out = {}
    prefix_deg = A.mono_degree(m[0]) + A.mono_degree(m[1])
    for t, (_, deg, payload) in enumerate(syms):
        sign = -1 if prefix_deg % 2 else 1
        prefix_e = _emono_of(R, payloads[:t])
        suffix_e = _emono_of(R, payloads[t + 1:])
        prefix = KTElement(R, {(m[0], m[1], prefix_e): sign})
        suffix = KTElement.from_mono(R, e=suffix_e)
        term = (prefix * _d_symbol(R, payload)) * suffix
        for mm, cc in term.terms.items():
            out[mm] = out.get(mm, 0) + cc
        prefix_deg += deg
    p = R.field.p
    return [(mm, cc % p) for mm, cc in out.items() if cc % p]


def _boundary_by_emono(R: KTResolution, alpha: EMono):
    """d(1 (x) 1 . alpha), computed once per alpha and multiplied out in
    Lambda, as {e: (P, P')}: P is the sum of the c l r over the terms
    c (l (x) r) . e of d(alpha), and P' the same sum with each term signed
    by (-1)^(|l| + |r|).  An alpha without a w symbol gives {}: each
    symbol's d is (y (x) 1 - 1 (x) y) or (x (x) 1 - 1 (x) x) times the
    rest, whose two terms have the same sign, equal l r and opposite
    coefficients, so they cancel in P and in P'."""
    pairs = R._alpha_d_cache.get(alpha)
    if pairs is None:
        A = R.algebra
        one = A.unit_monomial()
        sums = {}
        if any(alpha.w):
            for (l, r, e), c in kt_d_mono(R, (one, one, alpha)):
                odd = (A.mono_degree(l) + A.mono_degree(r)) % 2
                P, P_odd = sums.setdefault(e, ({}, {}))
                for m, mc in A.mul_monomials(l, r):
                    P[m] = P.get(m, 0) + c * mc
                    P_odd[m] = P_odd.get(m, 0) + (-c if odd else c) * mc
        pairs = R._alpha_d_cache[alpha] = {
            e: (Polynomial(A, P), Polynomial(A, P_odd))
            for e, (P, P_odd) in sums.items()}
    return pairs


def _emono_of(R, payloads):
    """The E-monomial of the (kind, index, exponent) symbol payloads."""
    nu = [0] * R.l
    u = 0
    w = [0] * R.m
    for kind, idx, exp in payloads:
        if kind == "nu":
            nu[idx] = exp
        elif kind == "u":
            u |= 1 << idx
        else:
            w[idx] = exp
    return EMono(tuple(nu), u, tuple(w))


# -- cell enumeration and matrices --------------------------------------------


def emonos_at_level(R: KTResolution, level: int):
    if level in R._emono_cache:
        return R._emono_cache[level]
    out = []
    for w_total in range(level // 2 + 1):
        for w in _compositions(w_total, R.m):
            rem_after_w = level - 2 * w_total
            for u_count in range(min(rem_after_w, R.n) + 1):
                for u_bits in itertools.combinations(range(R.n), u_count):
                    u = 0
                    for b in u_bits:
                        u |= 1 << b
                    nu_total = rem_after_w - u_count
                    for nu in _compositions(nu_total, R.l):
                        out.append(EMono(nu, u, w))
    out.sort(key=lambda e: (e.nu, e.u, e.w))
    R._emono_cache[level] = out
    return out


def emono_counts(R: KTResolution, level: int, k: int | None = None):
    """{internal degree: number of E-monomials} at one level, counted over
    the first k generators (all by default) without enumerating them: a
    monomial either omits generator k or is generator k times a monomial
    one step lower that may still use it (unless it is a u)."""
    k = len(R.count_generators) if k is None else k
    counts = R._count_cache.get((k, level))
    if counts is None:
        if level < 0 or k == 0:
            counts = {0: 1} if level == 0 else {}
        else:
            step, deg, unbounded = R.count_generators[k - 1]
            counts = dict(emono_counts(R, level, k - 1))
            lower = emono_counts(R, level - step, k if unbounded else k - 1)
            for t, n in lower.items():
                counts[t + deg] = counts.get(t + deg, 0) + n
        R._count_cache[(k, level)] = counts
    return counts


def _compositions(total, parts):
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            out.append((head,) + tail)
    return out


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


def _divided_coproduct(R: KTResolution, kind, idx, exp) -> KTTensorElement:
    """sum_s gamma_s (x) gamma_{exp-s} of the nu or w generator idx."""
    one = R.algebra.unit_monomial()
    return KTTensorElement(R, {
        (one, one, _emono_of(R, [(kind, idx, s)]), one,
         _emono_of(R, [(kind, idx, exp - s)])): 1 for s in range(exp + 1)})


def _diag_symbol(R: KTResolution, payload) -> KTTensorElement:
    kind, idx, exp = payload
    one = R.algebra.unit_monomial()
    unit_e = R.unit_emono()
    if kind == "nu":
        return _divided_coproduct(R, kind, idx, exp)
    if kind == "u":
        e_u = _emono_of(R, [payload])
        return KTTensorElement(R, {
            (one, one, e_u, one, unit_e): 1,
            (one, one, unit_e, one, e_u): 1,
        })
    # kind == "w": divided coproduct plus a correction solved so that the
    # chain-map identity holds; the correction is forced by the zeta terms
    return _diag_w(R, idx, exp)


def _diag_w(R: KTResolution, idx: int, exp: int) -> KTTensorElement:
    key = (idx, exp)
    if key in R._diag_cache:
        return R._diag_cache[key]
    one = R.algebra.unit_monomial()
    naive = _divided_coproduct(R, "w", idx, exp)
    gamma = _emono_of(R, [("w", idx, exp)])
    d_gamma = KTElement(R, dict(kt_d_mono(R, (one, one, gamma))))
    rhs = diagonal_element(R, d_gamma) - naive.boundary()
    if rhs.is_zero():
        R._diag_cache[key] = naive
        return naive
    correction = R.tensor_square.solve(2 * exp, exp * R.w_degrees[idx],
                                       rhs.terms)
    if correction is None:
        raise UnsupportedDiagonalError(
            f"no diagonal correction for relation {idx} divided power {exp} "
            f"within the window")
    result = naive + KTTensorElement(R, correction)
    R._diag_cache[key] = result
    return result


def diagonal_mono(R: KTResolution, m: KTMono) -> KTTensorElement:
    """The diagonal of the KT monomial (l (x) r) . e: l (x) 1 (x) r times
    the diagonals of the symbols of e, in order."""
    unit = R.unit_emono()
    acc = KTTensorElement(R, {(m[0], R.algebra.unit_monomial(), unit, m[1],
                               unit): 1})
    for _, _, payload in R.e_symbols(m[2]):
        acc = acc * _diag_symbol(R, payload)
    return acc


def _cup_table(R: KTResolution, level: int):
    """The terms of D(1 (x) 1 . alpha) over every alpha of one level, built
    once per level from one diagonal_mono call per alpha and grouped by
    their (a_e, b_e) slots, in level order.  An entry is (alpha, lamL lamM
    as (monomial, coeff) pairs, lamR, coeff, |lamL lamM| odd, |lamR| plus
    the left slot's total degree odd)."""
    table = R._cup_tables.get(level)
    if table is None:
        A = R.algebra
        one = A.unit_monomial()
        table = {}
        for alpha in emonos_at_level(R, level):
            diag = diagonal_mono(R, (one, one, alpha))
            for (lamL, lamM, a_e, lamR, b_e), c in diag.terms.items():
                lam_deg = A.mono_degree(lamL) + A.mono_degree(lamM)
                right_deg = A.mono_degree(lamR) + lam_deg + R.e_total(a_e)
                table.setdefault((a_e, b_e), []).append(
                    (alpha, tuple(A.mul_monomials(lamL, lamM)), lamR, c,
                     lam_deg % 2, right_deg % 2))
        R._cup_tables[level] = table
    return table


def diagonal_element(R: KTResolution, x: KTElement) -> KTTensorElement:
    return KTTensorElement(
        R, x.linear(lambda m: diagonal_mono(R, m).terms.items()))


# -- the dual ring over a coefficient algebra --------------------------------


def cup_lefts(R: KTResolution, level, e1: EMono, a: Monomial, f_odd,
              e2: EMono, g_odd):
    """The part of (a . e1*) cup (b . e2*) that does not depend on b, for
    cochains of total degree parities f_odd and g_odd, where level is the
    level of e1 e2: for each entry of the cup table at (e1, e2) whose
    (lamL lamM) a is nonzero, (alpha, lamR, [(monomial of (lamL lamM) a,
    its coefficient times c)]), with c signed by
    (-1)^(|lamL lamM| f + (|lamR| + |left slot|) g)."""
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


def cup_on_basis(R: KTResolution, lefts, b: Monomial):
    """(a . e1*) cup (b . e2*) from the cup_lefts of a, e1 and e2, as
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


def cup_via_diagonal(R: KTResolution, f, g):
    """(f cup g)(alpha) = (f (x) g)(D alpha) for cochains given as terms
    {(e, a): coeff}: the bilinear extension of cup_on_basis, as terms
    {(alpha, monomial): coeff}.  A cochain's level and degree parity are
    read from any of its keys."""
    if not f or not g:
        return {}
    A = R.algebra
    p = R.field.p
    (e1, a), (e2, b) = next(iter(f)), next(iter(g))
    level = R.e_level(e1) + R.e_level(e2)
    f_odd = (A.mono_degree(a) - R.e_total(e1)) % 2
    g_odd = (A.mono_degree(b) - R.e_total(e2)) % 2
    out = {}
    for ((e1, a), ca), ((e2, b), cb) in itertools.product(f.items(),
                                                          g.items()):
        lefts = cup_lefts(R, level, e1, a, f_odd, e2, g_odd)
        for key, c in cup_on_basis(R, lefts, b).items():
            out[key] = (out.get(key, 0) + ca * cb * c) % p
    return {key: c for key, c in out.items() if c}


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
    differential matrices, to reduce its cells.  Both read the signed sums
    P and P' of each d(alpha) from _boundary_by_emono, and an alpha without
    a w symbol contributes nothing to either.  class_reps maps each class
    label to a representative cochain, as terms {(e, a): coeff} of its
    cell basis: {(e, a): 1} for the label ("m", e, a).
    """

    def __init__(self, R: KTResolution, window: DegreeWindow):
        super().__init__(R.field)
        self.R = R
        self.algebra = R.algebra
        self.window = window
        self.complete = False
        self._bidegrees = {}
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
        and P' a when it is odd, (P, P') = _boundary_by_emono(alpha)[e]."""
        R, A = self.R, self.algebra
        src = self.cell_basis(p, q)
        dst_index = self.index(p + 1, q)
        h_odd = (p + q) % 2
        sign = 1 if h_odd else -1
        boundaries = [(alpha, _boundary_by_emono(R, alpha))
                      for alpha in emonos_at_level(R, p + 1)
                      if R.e_internal(alpha) + q >= 0]
        entries = {}
        for j, (e, a) in enumerate(src):
            a_poly = Polynomial(A, {a: 1})
            for alpha, d_alpha in boundaries:
                if e in d_alpha:
                    for mono, c in (d_alpha[e][h_odd] * a_poly).terms.items():
                        entries[(dst_index[(alpha, mono)], j)] = sign * c
        return SparseMatrix(len(dst_index), len(src), entries, R.field)

    def _build(self):
        W = self.window
        self.cells = {}
        self.class_reps = {}
        self.differential_vanishes = self._differential_vanishes()
        if self.differential_vanishes:
            for (p, q) in W.cells():
                pairs = self.cell_basis(p, q)
                self.cells[(p, q)] = [("m", e, a) for (e, a) in pairs]
                for e, a in pairs:
                    self.class_reps[("m", e, a)] = {(e, a): 1}
            self.generators = self._generator_model()
            self.complete = self.generators is not None
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
        _matrix writes -+ P a for the (P, P') of _boundary_by_emono, P or
        P' by the parity of p + q, so only a nonzero one is multiplied by
        the cell's monomials a."""
        R, A, W = self.R, self.algebra, self.window
        for p in range(W.max_p + 2):
            for alpha in emonos_at_level(R, p + 1):
                for e, pair in _boundary_by_emono(R, alpha).items():
                    for q in range(W.q_min, W.q_max + 1):
                        P = pair[(p + q) % 2]
                        if P.is_zero():
                            continue
                        for a in A.monomial_basis(R.e_internal(e) + q):
                            if not (P * Polynomial(A, {a: 1})).is_zero():
                                return False
        return True

    def _generator_model(self):
        """RingGenerator list when the ring is A (x) E-dual on the nose."""
        A = self.R.algebra
        caps = A._pure_power_caps if A.relations else {}
        if caps is None:
            return None  # no monomial model for general relation ideals
        gens = []
        self.generator_payloads = {}
        for i, gi in enumerate(A.ext_index):
            g = A.generators[gi]
            gens.append(RingGenerator(g.name, 0, g.degree, 2))
            self.generator_payloads[g.name] = ("a_ext", i)
        for j, gj in enumerate(A.poly_index):
            g = A.generators[gj]
            gens.append(RingGenerator(g.name, 0, g.degree, caps.get(j)))
            self.generator_payloads[g.name] = ("a_poly", j)
        for i in range(self.R.l):
            name = A.generators[A.ext_index[i]].name
            gens.append(RingGenerator(f"nu_{name}*", 1,
                                      -self.R.nu_degrees[i], None))
            self.generator_payloads[f"nu_{name}*"] = ("nu", i)
        for j in range(self.R.n):
            name = A.generators[A.poly_index[j]].name
            gens.append(RingGenerator(f"u_{name}*", 1,
                                      -self.R.u_degrees[j], 2))
            self.generator_payloads[f"u_{name}*"] = ("u", j)
        for i in range(self.R.m):
            gens.append(RingGenerator(f"w_{i}*", 2,
                                      -self.R.w_degrees[i], None))
            self.generator_payloads[f"w_{i}*"] = ("w", i)
        return gens

    def label_from_exponents(self, exps: dict):
        """Ring basis label for a monomial in the model generators."""
        A = self.R.algebra
        mask = 0
        poly = [0] * A.n_poly
        payloads = []
        for name, e in exps.items():
            if not e:
                continue
            kind, idx = self.generator_payloads[name]
            if kind == "a_ext":
                mask |= 1 << idx
            elif kind == "a_poly":
                poly[idx] = e
            else:
                payloads.append((kind, idx, e))
        return ("m", _emono_of(self.R, payloads), Monomial(mask, tuple(poly)))

    # -- queries ---------------------------------------------------------

    def bidegree(self, label):
        bideg = self._bidegrees.get(label)
        if bideg is None:
            if label[0] == "m":
                _, e, a = label
                bideg = (self.R.e_level(e),
                         self.algebra.mono_degree(a) - self.R.e_internal(e))
            else:
                bideg = label[1:3]
            self._bidegrees[label] = bideg
        return bideg

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
        for i, k in enumerate(e.nu):
            if k:
                name = A.generators[A.ext_index[i]].name
                parts.append(f"nu_{name}*" + (f"^{k}" if k > 1 else ""))
        for j in range(self.R.n):
            if (e.u >> j) & 1:
                name = A.generators[A.poly_index[j]].name
                parts.append(f"u_{name}*")
        for i, k in enumerate(e.w):
            if k:
                parts.append(f"w_{i}*" + (f"^{k}" if k > 1 else ""))
        return ".".join(parts) if parts else "1"

    def product(self, la, lb):
        """Structure constants of the cup product in the class basis."""
        return self.products(la, (lb,))[0]

    def products(self, la, run):
        """[product(la, lb) for lb in run], with every label checked first.
        The level and both parities are read again only where the
        bidegree along the run changes, so a run from one cell reads them
        once.  In the monomial model the factors that do not depend on
        lb's algebra monomial (cup_lefts) are built once per E-monomial of
        the cell, and a pair without them is zero."""
        reps = self.class_reps
        for lbl in (la, *run):
            if lbl not in reps:
                raise WindowError(f"class {self.label_str(lbl)} lies outside "
                                  f"the window")
        pa, qa = self.bidegree(la)
        if not self.differential_vanishes:
            f = reps[la]
            out = []
            for lb in run:
                pb, qb = self.bidegree(lb)
                cup = cup_via_diagonal(self.R, f, reps[lb])
                out.append(self._express(cup, pa + pb, qa + qb))
            return out
        # the monomial model extends beyond the window
        R = self.R
        _, e1, a = la
        f_odd = (pa + qa) % 2
        cell = None
        out = []
        for lb in run:
            pq = self.bidegree(lb)
            if pq != cell:
                cell = pq
                level = pa + pq[0]
                g_odd = (pq[0] + pq[1]) % 2
                lefts_by_e2 = {}
            _, e2, b = lb
            lefts = lefts_by_e2.get(e2)
            if lefts is None:
                lefts = lefts_by_e2[e2] = cup_lefts(R, level, e1, a, f_odd,
                                                    e2, g_odd)
            if not lefts:
                out.append({})
                continue
            cup = cup_on_basis(R, lefts, b)
            out.append({("m", e, m): c for (e, m), c in cup.items()})
        return out

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
    """A chain map from the bar resolution to F covering the identity.

    Values are produced word by word, each a deterministic linear solve
    in the acyclic resolution against the images of the word's faces.
    Any two such lifts are chain homotopic, so no class read through
    them depends on which one is taken.
    """

    def __init__(self, R: KTResolution, depth: int = 4):
        self.R = R
        self.A = R.algebra
        self.depth = depth
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
        rhs = self._rhs(word)
        if not rhs.d().is_zero():
            raise InternalConsistencyError("xi right-hand side is not a cycle")
        sol = R.solve(len(word), sum(A.mono_degree(a) for a in word),
                      rhs.terms)
        if sol is None:
            raise InternalConsistencyError(
                "xi lift infeasible although F is acyclic")
        return KTElement(R, sol)

    def _rhs(self, word):
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
