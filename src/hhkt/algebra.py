"""Graded complete intersection algebra presentations over F_p.

A presentation is  /\\(y_1..y_l) (x) K[x_1..x_n]/(rho_1..rho_m)  with the
rho_i a regular sequence of decomposable homogeneous polynomials in the
polynomial generators.  Monomials are named tuples of an exterior bit mask
and an exponent vector, so they hash and compare as plain tuples; normal
forms modulo the relations are computed degree by degree with exact linear
algebra.  Each presentation memoizes the product of every ordered monomial
pair and the degree of every monomial it is asked for; relation strings
are parsed in a free presentation on the same generators, so those tables
hold quotient products only.

Sign convention: graded commutativity with the Koszul rule throughout,
a*b = (-1)^{|a||b|} b*a.  In characteristic 2 "exterior" means square-zero
by fiat; in odd characteristic exterior generators must have odd degree and
polynomial generators even degree.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .fields import LinComb, PrimeField, SparseMatrix, rref


class PresentationError(ValueError):
    pass


class InternalConsistencyError(RuntimeError):
    """A verified-by-construction identity failed; indicates a bug."""


# Raised by the resolution, the oracle and the BV side and mapped to exit
# codes by cli.main; they live here so that mapping loads none of those
# modules.


class UnsupportedDiagonalError(RuntimeError):
    """No diagonal correction for a relation generator exists in-window."""


# the most columns the bar complex may build for one cell (`--cell-limit`)
CELL_LIMIT = 200000


class CellBlowupError(RuntimeError):
    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


class NotPoincareDualityError(ValueError):
    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


EXTERIOR = "exterior"
POLYNOMIAL = "polynomial"


GradedGenerator = namedtuple("GradedGenerator", "name degree kind")


class Monomial(namedtuple("Monomial", "mask exps")):
    """mask: bit set over exterior generators; exps: polynomial exponents."""

    __slots__ = ()

    def sort_key(self, n_ext):
        bits = tuple((self.mask >> i) & 1 for i in range(n_ext))
        return (bits, self.exps)


class Polynomial(LinComb):
    """A linear combination of monomials of one presentation."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        super().__init__(terms, algebra.field.p)

    def _like(self, terms):
        return Polynomial(self.algebra, terms)

    def degree(self):
        """Degree of a homogeneous element (None for 0)."""
        degs = {self.algebra.mono_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("inhomogeneous polynomial has no degree")
        return degs.pop()

    def is_homogeneous(self):
        return len({self.algebra.mono_degree(m) for m in self.terms}) <= 1

    def __mul__(self, other):
        # so that poly * alpha, alpha a DualValue, reaches alpha.__rmul__
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return self._like(self.bilinear(other, self.algebra.mul_monomials))

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.algebra is other.algebra
                and self.terms == other.terms)

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot combine a Polynomial with "
                            f"{type(other).__name__}")
        if other.algebra is not self.algebra:
            raise ValueError("mixed presentations")

    def __repr__(self):
        return f"Polynomial({self.algebra.label_poly(self)})"


class AlgebraPresentation:
    """Validated presentation with cached bases and normal-form tables."""

    def __init__(self, field: PrimeField, generators, relation_exprs=()):
        self.field = field
        self.generators = tuple(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise PresentationError("duplicate generator names")
        for g in self.generators:
            if g.degree < 1:
                raise PresentationError(f"generator {g.name} has degree < 1")
            if g.kind not in (EXTERIOR, POLYNOMIAL):
                raise PresentationError(f"unknown kind {g.kind!r}")
            if field.p > 2:
                if g.kind == POLYNOMIAL and g.degree % 2:
                    raise PresentationError(
                        f"odd characteristic: polynomial generator {g.name} "
                        f"must have even degree")
                if g.kind == EXTERIOR and g.degree % 2 == 0:
                    raise PresentationError(
                        f"odd characteristic: exterior generator {g.name} "
                        f"must have odd degree")
        self.ext_index = [i for i, g in enumerate(self.generators)
                          if g.kind == EXTERIOR]
        self.poly_index = [i for i, g in enumerate(self.generators)
                           if g.kind == POLYNOMIAL]
        self.n_ext = len(self.ext_index)
        self.n_poly = len(self.poly_index)
        self.ext_degrees = tuple(self.generators[i].degree for i in self.ext_index)
        self.poly_degrees = tuple(self.generators[i].degree for i in self.poly_index)
        self._unit = Monomial(0, (0,) * self.n_poly)
        self._degrees = {}
        self._products = {}
        self._nf_tables = {}
        self._basis_cache = {}
        self._reached_degrees = (-1, [])  # (bound, the degrees reached)
        self._tuples = {}  # (k, degree, unit) -> monomial_tuples
        self.relations = ()
        if relation_exprs:
            free = AlgebraPresentation(field, self.generators)
            self.relations = tuple(
                Polynomial(self, free._validate_relation(r).terms)
                for r in relation_exprs)
        # whether every relation is c*x_j^k, no x_j in two of them: every
        # relation has a term and every term a variable, so the counts are
        # equal exactly then
        powered = [j for rho in self.relations for m in rho.terms
                   for j, e in enumerate(m.exps) if e]
        self.pure_powers = \
            len(set(powered)) == len(powered) == len(self.relations)

    # -- construction helpers -------------------------------------------

    def _validate_relation(self, expr):
        rho = parse_poly_expr(self, expr) if isinstance(expr, str) else expr
        if rho.is_zero():
            raise PresentationError("zero relation")
        if not rho.is_homogeneous():
            raise PresentationError("relations must be homogeneous")
        for m in rho.terms:
            if m.mask:
                raise PresentationError(
                    "relations must involve polynomial generators only")
            if sum(m.exps) < 2:
                kind = "linear" if sum(m.exps) else "constant"
                raise PresentationError(
                    f"relation has a {kind} term (must be decomposable)")
        return rho

    # -- degrees and units -----------------------------------------------

    def unit_monomial(self):
        return self._unit

    def one(self):
        return Polynomial(self, {self.unit_monomial(): 1})

    def zero(self):
        return Polynomial(self, {})

    def mono_degree(self, m: Monomial) -> int:
        d = self._degrees.get(m)
        if d is None:
            d = sum(self.ext_degrees[i] for i in range(self.n_ext)
                    if (m.mask >> i) & 1)
            d += sum(e * self.poly_degrees[j] for j, e in enumerate(m.exps))
            self._degrees[m] = d
        return d

    def generator_monomial(self, name):
        for i, gi in enumerate(self.ext_index):
            if self.generators[gi].name == name:
                return Monomial(1 << i, (0,) * self.n_poly)
        for j, gj in enumerate(self.poly_index):
            if self.generators[gj].name == name:
                exps = [0] * self.n_poly
                exps[j] = 1
                return Monomial(0, tuple(exps))
        raise PresentationError(f"unknown generator name {name!r}")

    def generator_poly(self, name):
        return Polynomial(self, {self.generator_monomial(name): 1})

    # -- multiplication ---------------------------------------------------

    def mul_monomials(self, m1: Monomial, m2: Monomial):
        """Product of two monomials as a tuple of (Monomial, coeff),
        computed once per ordered pair.

        Koszul sign from interleaving exterior symbols; exterior squares
        vanish; the polynomial part is reduced to normal form modulo the
        relations (which may split one monomial into several).
        """
        out = self._products.get((m1, m2))
        if out is None:
            out = self._products[(m1, m2)] = self._multiply(m1, m2)
        return out

    def _multiply(self, m1, m2):
        if m1.mask & m2.mask:
            return ()
        sign = 1
        if self.field.p != 2:
            for i in range(self.n_ext):
                if not (m2.mask >> i) & 1 or self.ext_degrees[i] % 2 == 0:
                    continue
                # odd symbol of m2 crosses the odd m1-symbols above slot i
                crossings = sum(
                    1 for k in range(i + 1, self.n_ext)
                    if (m1.mask >> k) & 1 and self.ext_degrees[k] % 2)
                if crossings % 2:
                    sign = -sign
        exps = tuple(a + b for a, b in zip(m1.exps, m2.exps))
        mask = m1.mask | m2.mask
        return tuple((Monomial(mask, mono.exps), sign * c)
                     for mono, c in self._poly_normal_form(exps))

    def _poly_normal_form(self, exps):
        """Normal form of a free polynomial-part monomial."""
        if self.relations:
            deg = sum(e * d for e, d in zip(exps, self.poly_degrees))
            combo = self._nf_table(deg)[1].get(exps)
            if combo is not None:
                return [(Monomial(0, e), c) for e, c in combo.items()]
        return [(Monomial(0, exps), 1)]

    def _free_poly_exponents(self, degree):
        """All exponent tuples of the given degree in the free K[x], in
        increasing order.  The last exponent is whatever degree is left, so
        one call costs the number of tuples of the other exponents."""
        if not self.n_poly:
            return [()] if degree == 0 else []
        out = []
        last = self.n_poly - 1

        def rec(j, rem, acc):
            d = self.poly_degrees[j]
            if j == last:
                if rem >= 0 and rem % d == 0:
                    out.append(tuple(acc) + (rem // d,))
                return
            for e in range(rem // d + 1):
                acc.append(e)
                rec(j + 1, rem - e * d, acc)
                acc.pop()

        rec(0, degree, [])
        return out

    def _nf_table(self, degree):
        """(basis exponent tuples, reduction map) for one poly degree."""
        if degree in self._nf_tables:
            return self._nf_tables[degree]
        free = self._free_poly_exponents(degree)
        index = {e: i for i, e in enumerate(free)}
        rows = []
        for rho in self.relations:
            r = rho.degree()
            if r > degree:
                continue
            for m_exps in self._free_poly_exponents(degree - r):
                row = {}
                for m, c in rho.terms.items():
                    prod = tuple(a + b for a, b in zip(m_exps, m.exps))
                    row[index[prod]] = (row.get(index[prod], 0) + c) % self.field.p
                rows.append(row)
        entries = {}
        for i, row in enumerate(rows):
            for j, v in row.items():
                if v:
                    entries[(i, j)] = v
        M = SparseMatrix(len(rows), len(free), entries, self.field)
        pivots, rref_rows = rref(M)
        pivot_set = set(pivots)
        basis = [free[j] for j in range(len(free)) if j not in pivot_set]
        reduction = {}
        for i, c in enumerate(pivots):
            combo = {}
            for j, v in rref_rows[i].items():
                if j != c:
                    combo[free[j]] = (-v) % self.field.p
            reduction[free[c]] = combo
        self._nf_tables[degree] = (basis, reduction)
        return basis, reduction

    def poly_nf_basis(self, degree):
        """Normal-form exponent tuples of one degree of K[x]/(rho)."""
        return self._nf_table(degree)[0] if degree >= 0 else []

    # -- bases -------------------------------------------------------------

    def monomial_basis(self, degree):
        """Ordered basis monomials of one degree of the quotient algebra."""
        if degree < 0:
            return []
        if degree in self._basis_cache:
            return self._basis_cache[degree]
        out = []
        for mask in range(1 << self.n_ext):
            d_ext = sum(self.ext_degrees[i] for i in range(self.n_ext)
                        if (mask >> i) & 1)
            if d_ext > degree:
                continue
            for exps in self.poly_nf_basis(degree - d_ext):
                out.append(Monomial(mask, exps))
        out.sort(key=lambda m: m.sort_key(self.n_ext))
        self._basis_cache[degree] = out
        return out

    def degrees(self, bound):
        """The degrees up to bound that monomials may reach, in increasing
        order: the sums of generator degrees, each exterior one at most
        once, cached up to the largest bound asked.  From the exterior sums,
        each walks up by a polynomial degree until it meets one already
        reached, whose own walk has covered the rest."""
        if bound > self._reached_degrees[0]:
            sums = {0}
            for g in self.ext_degrees:
                sums |= {s + g for s in sums}
            reached = {d for d in sums if d <= bound}
            for g in set(self.poly_degrees):
                for d in sorted(reached):
                    while d + g <= bound and d + g not in reached:
                        d += g
                        reached.add(d)
            self._reached_degrees = (bound, sorted(reached))
        return [d for d in self._reached_degrees[1] if d <= bound]

    def monomial_tuples(self, k, degree, unit=True):
        """The k-tuples of basis monomials whose degrees sum to degree, with
        no unit entry unless unit is set (so without it, the bar words): by
        the first entry's degree, over the reached degrees only, then that
        entry in basis order, then the rest."""
        key = (k, degree, unit)
        if key not in self._tuples:
            out = [()] if (k, degree) == (0, 0) else []
            for d in self.degrees(degree) if k else ():
                # the unit is the one monomial of degree 0
                rests = (d or unit) and \
                    self.monomial_tuples(k - 1, degree - d, unit)
                if rests:
                    out += [(m,) + r for m in self.monomial_basis(d)
                            for r in rests]
            self._tuples[key] = out
        return self._tuples[key]

    def top_degree_bound(self):
        """Top nonzero degree for finite-dimensional algebras, else None."""
        if self.n_poly == 0:
            return sum(self.ext_degrees)
        # the quotient by a regular sequence of length m in n variables is
        # finite-dimensional iff m = n; its socle degree is
        # sum(deg rho_i) - sum(deg x_j)
        if len(self.relations) != self.n_poly:
            return None
        top_poly = sum(r.degree() for r in self.relations) - sum(self.poly_degrees)
        return top_poly + sum(self.ext_degrees)

    def dim_in_degree(self, degree):
        return len(self.monomial_basis(degree))

    # -- labels -------------------------------------------------------------

    def label_monomial(self, m: Monomial) -> str:
        parts = []
        for i in range(self.n_ext):
            if (m.mask >> i) & 1:
                parts.append(self.generators[self.ext_index[i]].name)
        for j, e in enumerate(m.exps):
            if e:
                name = self.generators[self.poly_index[j]].name
                parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def label_poly(self, poly: Polynomial) -> str:
        if poly.is_zero():
            return "0"
        items = sorted(poly.terms.items(),
                       key=lambda kv: kv[0].sort_key(self.n_ext))
        parts = []
        for m, c in items:
            lbl = self.label_monomial(m)
            parts.append(lbl if c == 1 else f"{c}{lbl}" if lbl == "1"
                         else f"{c}*{lbl}")
        return " + ".join(parts)


# -- parsing -----------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN = re.compile(r"\s*(?:(\d+)|(" + _NAME.pattern + r")|(\^)|(\*)|(\+)|(-))")


def parse_poly_expr(algebra: AlgebraPresentation, text: str) -> Polynomial:
    """Parse 'x1^2*x2 + 3*x3^4' style expressions over the generators."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise PresentationError(f"bad token at {text[pos:]!r}")
            break
        pos = m.end()
        tokens.append(m)
    is_op = [bool(t.group(4) or t.group(5) or t.group(6)) for t in tokens]
    for i, op in enumerate(is_op):
        if op and (i + 1 == len(tokens) or is_op[i + 1]
                   or (i == 0 and tokens[i].group(4))):
            raise PresentationError(f"operator without an operand in "
                                    f"{text!r}")
    result = algebra.zero()
    sign = 1
    term_coeff = None
    term_poly = None

    def flush():
        nonlocal result, term_coeff, term_poly
        if term_poly is None and term_coeff is None:
            return
        t = term_poly if term_poly is not None else algebra.one()
        c = term_coeff if term_coeff is not None else 1
        result = result + t.scale(sign * c)

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.group(5) or tok.group(6):  # + or -
            flush()
            term_coeff = None
            term_poly = None
            sign = 1 if tok.group(5) else -1
            i += 1
            continue
        if tok.group(4):  # '*' separator
            i += 1
            continue
        if tok.group(3):  # an exponent is consumed with its generator
            raise PresentationError(f"'^' must follow a generator name in "
                                    f"{text!r}")
        if tok.group(1):
            c = int(tok.group(1))
            term_coeff = c if term_coeff is None else term_coeff * c
            i += 1
            continue
        name = tok.group(2)
        exp = 1
        if i + 2 < len(tokens) and tokens[i + 1].group(3) and tokens[i + 2].group(1):
            exp = int(tokens[i + 2].group(1))
            i += 2
        elif i + 1 < len(tokens) and tokens[i + 1].group(3):
            raise PresentationError("dangling '^'")
        factor = algebra.generator_poly(name)
        powed = algebra.one()
        for _ in range(exp):
            powed = powed * factor
        term_poly = powed if term_poly is None else term_poly * powed
        i += 1
    flush()
    return result


def json_int(value, what):
    """A JSON integer (true/false are not integers here)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise PresentationError(f"{what} must be an integer, got {value!r}")
    return value


def parse_presentation(doc) -> AlgebraPresentation:
    """Build a validated presentation from a decoded JSON document."""
    if not isinstance(doc, dict):
        raise PresentationError("a presentation must be a JSON object")
    field = PrimeField(json_int(doc.get("characteristic"), "characteristic"))
    gen_docs = doc.get("generators", [])
    if not isinstance(gen_docs, list):
        raise PresentationError("'generators' must be a list of objects")
    gens = []
    for g in gen_docs:
        if not isinstance(g, dict) or not isinstance(g.get("name"), str):
            raise PresentationError(
                f"generator {g!r} must be an object with a string 'name'")
        if not _NAME.fullmatch(g["name"]):
            raise PresentationError(
                f"generator name {g['name']!r} must be a letter or '_' "
                f"followed by letters, digits or '_'")
        kind = g.get("kind")
        if kind not in (EXTERIOR, POLYNOMIAL):
            raise PresentationError(f"generator kind must be 'exterior' or "
                                    f"'polynomial', got {kind!r}")
        degree = json_int(g.get("degree"), f"degree of generator {g['name']}")
        gens.append(GradedGenerator(g["name"], degree, kind))
    relations = doc.get("relations", [])
    if not isinstance(relations, list) \
            or not all(isinstance(r, str) for r in relations):
        raise PresentationError("'relations' must be a list of strings")
    return AlgebraPresentation(field, gens, tuple(relations))


# -- zeta coefficients -------------------------------------------------------


def zeta_coefficients(rho: Polynomial):
    """Telescoping coefficients zeta_j, one {(left, right): coeff} dict of
    Monomial pairs per polynomial generator, with
    rho(x)1 - 1(x)rho = sum_j zeta_j (x_j(x)1 - 1(x)x_j)
    and mult(zeta_j) = d rho/d x_j.

    Telescoping each monomial variable by variable in the declared order,
    with the symmetric geometric quotient in each step, satisfies both
    conditions simultaneously; both are re-verified on every call.  The
    construction and its verification run on exponent vectors of the free
    polynomial ring (inside the quotient the relation itself vanishes),
    where no Koszul sign arises: polynomial generators have even degree
    in odd characteristic, and every sign is 1 mod 2.  The result is then
    pushed down along the quotient map.
    """
    A = rho.algebra
    n = A.n_poly
    # each key determines its monomial and step, so no two terms collide
    zetas = [{} for _ in range(n)]
    for m, c in rho.terms.items():
        if m.mask:
            raise PresentationError("relations involve polynomial "
                                    "generators only")
        for j, e in enumerate(m.exps):
            for s in range(e):
                left = m.exps[:j] + (s,) + (0,) * (n - j - 1)
                right = (0,) * j + (e - 1 - s,) + m.exps[j + 1:]
                zetas[j][(left, right)] = c
    _verify_zeta(rho, zetas)
    p = A.field.p
    out = []
    for z in zetas:
        terms = {}
        for (left, right), c in z.items():
            for lm, lc in A._poly_normal_form(left):
                for rm, rc in A._poly_normal_form(right):
                    key = (lm, rm)
                    terms[key] = terms.get(key, 0) + c * lc * rc
        out.append({k: c % p for k, c in terms.items() if c % p})
    return out


def _verify_zeta(rho, zetas):
    """Both zeta conditions on free exponent-vector terms
    {(left exps, right exps): coeff}."""
    A = rho.algebra
    p = A.field.p
    n = A.n_poly
    zero = (0,) * n

    def vanishes(terms):
        return not any(c % p for c in terms.values())

    def add(terms, key, c):
        terms[key] = terms.get(key, 0) + c

    telescope = {}
    for m, c in rho.terms.items():
        add(telescope, (m.exps, zero), c)
        add(telescope, (zero, m.exps), -c)
    for j, z in enumerate(zetas):
        for (left, right), c in z.items():
            add(telescope, (left[:j] + (left[j] + 1,) + left[j + 1:], right),
                -c)
            add(telescope, (left, right[:j] + (right[j] + 1,) + right[j + 1:]),
                c)
    if not vanishes(telescope):
        raise InternalConsistencyError("zeta telescoping identity failed")
    for j, z in enumerate(zetas):
        # mult(zeta_j) - d rho/d x_j
        diff = {}
        for (left, right), c in z.items():
            add(diff, tuple(a + b for a, b in zip(left, right)), c)
        for m, c in rho.terms.items():
            e = m.exps[j]
            if e:
                add(diff, m.exps[:j] + (e - 1,) + m.exps[j + 1:], -c * e)
        if not vanishes(diff):
            raise InternalConsistencyError("zeta derivative condition failed")


# -- regular sequence validation ---------------------------------------------


RegularSequenceReport = namedtuple(
    "RegularSequenceReport", "ok bound first_failing_degree detail")


def validate_regular_sequence(A: AlgebraPresentation, degree_bound: int):
    """Hilbert-series criterion, degree by degree up to the bound.

    A homogeneous sequence is regular iff the Koszul identity
    HS(K[x]/(rho)) = HS(K[x]) * prod(1 - t^{deg rho_i}) holds
    coefficientwise; the check runs through the bound and reports the first
    failing degree if any.  Only the degrees that free monomials reach are
    visited (`AlgebraPresentation.degrees`, which also holds the exterior
    sums): relation degrees are reached, so at any other degree d no
    d - deg(rho_I) is reached either, and both sides are 0.
    """
    if not A.relations:
        return RegularSequenceReport(True, degree_bound, None,
                                     "no relations (vacuously regular)")
    rel_degs = [r.degree() for r in A.relations]
    if degree_bound < max(rel_degs):
        raise ValueError("degree bound below maximal relation degree")
    # coefficients of prod (1 - t^{r_i})
    factor = {0: 1}
    for r in rel_degs:
        nxt = dict(factor)
        for d, c in factor.items():
            nxt[d + r] = nxt.get(d + r, 0) - c
        factor = nxt
    for d in A.degrees(degree_bound):
        expected = sum(c * len(A._free_poly_exponents(d - off))
                       for off, c in factor.items() if off <= d)
        actual = len(A.poly_nf_basis(d))
        if actual != expected:
            return RegularSequenceReport(
                False, degree_bound, d,
                f"Hilbert mismatch at degree {d}: quotient has dimension "
                f"{actual}, a regular sequence would give {expected}")
    return RegularSequenceReport(True, degree_bound, None, "pass")
