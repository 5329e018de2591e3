"""Filtration bookkeeping for the bigraded ring: collapse-by-bidegree
certificates, ambiguity bases for lifting associated-graded values, and the
extension-problem solvers for products and the BV operator.

The solver never evaluates page differentials; it only certifies that
targets vanish for bidegree reasons, and lists the higher-filtration
classes a lifted value could pick up: the monomial model's cells of that
total degree, up to the filtration that the algebra's top degree allows,
given the least total degree per level among the divided generators of
the resolution's generator table (KTResolution.e_generators).  Page
differentials go from (p, q) to (p + r, q + 1 - r).
"""

from __future__ import annotations

from collections import namedtuple

from .bigraded import UnboundedSearchError


Differential = namedtuple("Differential", "r source target target_dim")
# status is "collapse", "obstructed" or "unknown"
CollapseCertificate = namedtuple(
    "CollapseCertificate", "status potential_differentials r_bound detail")


def collapse_certificate(R) -> CollapseCertificate:
    """Check, for every populated cell and every page number up to a sound
    cutoff, that the differential target cell is empty.  Needs the cell
    dimensions beyond the window, which KTRing.cell_dim gives whenever the
    Hom-complex differential vanishes (pure-power relations or not)."""
    populated = sorted(pq for pq, labels in R.cells.items() if labels)
    if not populated:
        return CollapseCertificate("collapse", [], 2, "no populated cells")
    if not R.differential_vanishes:
        return CollapseCertificate(
            "unknown", [], None,
            "no monomial model: cells beyond the window are not enumerable")
    max_p = max(p for p, _ in R.cells)
    min_q = min(q for _, q in R.cells)
    max_q = max(q for _, q in R.cells)
    r_bound = max(max_p - min(p for p, _ in populated),
                  max_q - min_q + 1, 2)
    hits = []
    for r in range(2, r_bound + 1):
        for (p, q) in populated:
            tgt = (p + r, q + 1 - r)
            dim = R.cell_dim(*tgt)
            if dim:
                hits.append(Differential(r, (p, q), tgt, dim))
    if hits:
        return CollapseCertificate(
            "obstructed", hits, r_bound,
            f"{len(hits)} potentially nonzero differential(s); the solver "
            f"does not evaluate them")
    return CollapseCertificate(
        "collapse", [], r_bound,
        f"all differential targets vanish for bidegree reasons through "
        f"page {r_bound}")


def _filtration_bound(R, total_degree):
    """The highest filtration p of a monomial-model class of total degree
    t.  The label ("m", e, a) of the cell (p, t - p) has
    |a| = t + |e|_total <= top, |e|_total the internal minus the level
    degree of e.  Per filtration level, a divided generator g of E adds
    (|g| - level g)/level g to |e|_total; with s the least of these, and
    the at most n square-zero ones adding >= 0, p <= n + (top - t)/s.
    Without divided generators, p <= n."""
    KT = R.R
    # twice the total degree per filtration level of each divided generator
    steps = [(2 * (g.degree - g.level) // g.level, g)
             for g in KT.e_generators if g.divided]
    if not steps:
        return KT.n
    top = R.algebra.top_degree_bound()
    if top is None:
        raise UnboundedSearchError(
            "the algebra is not finite-dimensional: the ambiguity bases of "
            "its extension problems are unbounded")
    step, g = min(steps, key=lambda item: item[0])
    if step <= 0:
        raise UnboundedSearchError(
            f"{g.symbol}* has total degree 0: the ambiguity bases of the "
            f"extension problems are unbounded")
    return KT.n + 2 * (top - total_degree) // step


def ambiguity_basis(R, total_degree: int, min_filtration: int):
    """The monomial-model classes of the total degree in filtration at or
    above the threshold, beyond the window too: the labels of the cells
    (p, total_degree - p) up to _filtration_bound, in (bidegree, label)
    order."""
    found = []
    for p in range(min_filtration, _filtration_bound(R, total_degree) + 1):
        found.extend(sorted(
            (("m", e, a) for e, a in R.cell_basis(p, total_degree - p)),
            key=R.label_str))
    return found


# status is "determined" or "ambiguous"
ExtensionResolution = namedtuple("ExtensionResolution",
                                 "status value ambiguity")


def resolve_product_extension(R, a, b) -> ExtensionResolution:
    """Lift a product from the associated graded ring to the actual ring:
    determined iff no basis monomial of the right total degree lives in a
    strictly higher filtration."""
    pa, _ = R.bidegree(a)
    pb, _ = R.bidegree(b)
    total = R.total_degree(a) + R.total_degree(b)
    value = R.product(a, b)
    amb = ambiguity_basis(R, total, pa + pb + 1)
    if amb:
        return ExtensionResolution("ambiguous", value, amb)
    return ExtensionResolution("determined", value, [])


def resolve_bv_extension(R, delta_gr: dict, a) -> ExtensionResolution:
    """Lift an associated-graded BV value: the operator has bidegree
    (-1, 0), so corrections live in filtration >= filtration(a)."""
    pa, _ = R.bidegree(a)
    value = delta_gr.get(a, {})
    amb = ambiguity_basis(R, R.total_degree(a) - 1, pa)
    if amb:
        return ExtensionResolution("ambiguous", value, amb)
    return ExtensionResolution("determined", value, [])
