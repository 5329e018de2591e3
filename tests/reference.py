"""Reference implementations that only the tests call.

Each one checks the package from another angle (the shuffle product on
Hochschild chains, the unit cochain, Hochschild homology dimensions over a
window, the map phi from Hochschild cycles to the resolution, an explicit
bigraded ring), but no command needs it, so none is compiled by every
process that imports hhkt.
"""

from hhkt.algebra import Polynomial
from hhkt.bar import (COEFF_SELF, ChainComplexCells, ChainElement, Cochain,
                      hochschild_b, word_suspension)


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


# -- bigraded rings ----------------------------------------------------------


class ExplicitBigradedRing:
    """A ring given by an exhaustive cell table (used for counterexamples);
    no generator monomial model."""

    complete = True

    def __init__(self, cells):
        self.cells = cells

    def cell_dim(self, p, q):
        return len(self.cells.get((p, q), []))
