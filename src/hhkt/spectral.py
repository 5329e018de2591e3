"""Filtration bookkeeping for the bigraded ring: collapse-by-bidegree
certificates, ambiguity bases for lifting associated-graded values, and the
extension-problem solvers for products and the BV operator.

The solver never evaluates page differentials; it only certifies that
targets vanish for bidegree reasons, and enumerates the higher-filtration
monomials a lifted value could pick up.  Page differentials go from (p, q)
to (p + r, q + 1 - r).
"""

from __future__ import annotations

from collections import namedtuple


class UnboundedSearchError(ValueError):
    pass


Differential = namedtuple("Differential", "r source target target_dim")
# status is "collapse", "obstructed" or "unknown"
CollapseCertificate = namedtuple(
    "CollapseCertificate", "status potential_differentials r_bound detail")


def collapse_certificate(R, r_limit: int = 64) -> CollapseCertificate:
    """Check, for every populated cell and every page number up to a sound
    cutoff, that the differential target cell is empty."""
    populated = sorted(pq for pq, labels in R.cells.items() if labels)
    if not populated:
        return CollapseCertificate("collapse", [], 2, "no populated cells")
    if not R.complete:
        return CollapseCertificate(
            "unknown", [], None,
            "no monomial model: cells beyond the window are not enumerable")
    max_p = max(p for p, _ in R.cells)
    min_q = min(q for _, q in R.cells)
    max_q = max(q for _, q in R.cells)
    r_bound = min(max(max_p - min(p for p, _ in populated),
                      max_q - min_q + 1, 2), r_limit)
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


def _monomial_exponents(R, total_degree, min_filtration):
    """All generator-exponent dicts with the given total degree and
    filtration >= min_filtration, proven complete by degree bounds."""
    gens = R.generators
    for g in gens:
        if g.total_degree == 0:
            raise UnboundedSearchError(
                f"generator {g.label} has total degree 0: unbounded search")
    pos = [g for g in gens if g.total_degree > 0]
    neg = [g for g in gens if g.total_degree < 0]
    pos_max = 0
    for g in pos:
        if g.order is None:
            pos_max = None
            break
        pos_max += (g.order - 1) * g.total_degree
    neg_max = 0
    for g in neg:
        if g.order is None:
            neg_max = None
            break
        neg_max += (g.order - 1) * (-g.total_degree)
    if pos_max is None and neg_max is None:
        raise UnboundedSearchError(
            "both positive and negative generator ranges are unbounded")

    caps = {}
    for g in gens:
        if g.order is not None:
            caps[g.label] = g.order - 1
        elif g.total_degree > 0:
            caps[g.label] = max(0, (total_degree + neg_max)
                                // g.total_degree)
        else:
            caps[g.label] = max(0, (pos_max - total_degree)
                                // (-g.total_degree))

    out = []

    def rec(i, acc, tot, filt):
        if i == len(gens):
            if tot == total_degree and filt >= min_filtration:
                out.append(dict(acc))
            return
        g = gens[i]
        for e in range(caps[g.label] + 1):
            if e:
                acc[g.label] = e
            rec(i + 1, acc, tot + e * g.total_degree, filt + e * g.p)
            if e:
                del acc[g.label]

    rec(0, {}, 0, 0)
    return out


def ambiguity_basis(R, total_degree: int, min_filtration: int):
    """Basis monomials with the stated total degree and filtration at or
    above the threshold; complete within the computed exponent cutoffs."""
    found = []
    seen = set()
    for exps in _monomial_exponents(R, total_degree, min_filtration):
        label = R.label_from_exponents(exps)
        if label in seen:
            continue
        seen.add(label)
        found.append(label)
    return sorted(found, key=lambda lbl: (R.bidegree(lbl),
                                          R.label_str(lbl)))


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
