import json
import pathlib

import pytest

import hhkt.koszul_tate as kt
import hhkt.spectral as spectral
from hhkt.algebra import (AlgebraPresentation, GradedGenerator,
                          NotPoincareDualityError, parse_presentation)
from hhkt.bigraded import DegreeWindow
from hhkt.bv import BVContext, bv_report
from hhkt.cli import main
from hhkt.fields import PrimeField
from hhkt.koszul_tate import hh_via_kt
from hhkt.spectral import (UnboundedSearchError, ambiguity_basis,
                           collapse_certificate, resolve_bv_extension,
                           resolve_product_extension)

from .helpers import (exterior, polynomial, two_spheres_deg3,
                      two_spheres_deg5)
from .reference import ExplicitBigradedRing


def ring_deg5():
    return hh_via_kt(two_spheres_deg5(), DegreeWindow(4, -22, 12))


def ring_deg3():
    return hh_via_kt(two_spheres_deg3(), DegreeWindow(4, -14, 8))


def test_collapse_certificate_exterior():
    cert = collapse_certificate(ring_deg5())
    assert cert.status == "collapse", cert.detail
    cert3 = collapse_certificate(ring_deg3())
    assert cert3.status == "collapse", cert3.detail


def test_collapse_certificate_polynomial():
    ring = hh_via_kt(polynomial(2, [2, 2]), DegreeWindow(2, -10, 10))
    cert = collapse_certificate(ring)
    assert cert.status == "collapse"


ROOT = pathlib.Path(__file__).resolve().parents[1]
# every presentation with a monomial model A (x) E-dual, one of them with an
# "obstructed" certificate whose targets lie beyond the window
MONOMIAL_MODEL_INPUTS = sorted(
    (ROOT / "scripts" / "presentations").glob("*.json")) + [
    ROOT / "perfbench" / "inputs" / "mixed_ext3_trunc3_char3.json"]


def _ring_from_file(path):
    doc = json.loads(path.read_text())
    win = doc["window"]
    return hh_via_kt(parse_presentation(doc), DegreeWindow(
        win["max_filtration"], win["q_min"], win["q_max"]))


@pytest.mark.parametrize("path", MONOMIAL_MODEL_INPUTS, ids=lambda p: p.stem)
def test_counted_cell_dims_match_enumeration(path, monkeypatch):
    """The counted dimension of every cell the certificate visits equals
    the length of its enumerated basis."""
    ring = _ring_from_file(path)
    assert ring.differential_vanishes
    counted = ring.cell_dim
    visited = []

    def spy(p, q):
        visited.append((p, q))
        return counted(p, q)
    monkeypatch.setattr(ring, "cell_dim", spy)
    collapse_certificate(ring)
    assert any(not ring.window.contains(p, q) for p, q in visited)
    for p, q in visited:
        assert counted(p, q) == len(ring.cell_basis(p, q)), (p, q)


def test_certificate_needs_a_vanishing_differential_not_pure_powers():
    """F2[x1,x2]/(x1^2 + x2^2) has no monomial generator model, but its
    Hom-complex differential vanishes, so cell_dim counts the cells beyond
    the window and the certificate is decided from them; the homology
    path stays undecided."""
    ring = hh_via_kt(polynomial(2, [2, 2], ["x1^2 + x2^2"]),
                     DegreeWindow(2, -8, 8))
    assert ring.differential_vanishes and ring.generators is None
    cert = collapse_certificate(ring)
    assert cert.status == "obstructed", cert.detail
    assert len(cert.potential_differentials) == 144
    for d in cert.potential_differentials:
        assert not ring.window.contains(*d.target)
        assert d.target_dim == ring.cell_dim(*d.target) \
            == len(ring.cell_basis(*d.target)), d
    homology = _ring_from_file(
        ROOT / "perfbench" / "inputs" / "poly2_rel_deg2_char2.json")
    assert not homology.differential_vanishes
    assert collapse_certificate(homology).status == "unknown"


@pytest.mark.parametrize("path", MONOMIAL_MODEL_INPUTS, ids=lambda p: p.stem)
def test_compute_enumerates_no_level_beyond_the_window(path, monkeypatch,
                                                       capsys):
    """`compute` lists E-monomials only up to level max_p + 2: the target
    of the last differential whose vanishing decides the monomial model."""
    real = kt.emonos_at_level
    levels = []

    def counting(R, level):
        levels.append(level)
        return real(R, level)
    monkeypatch.setattr(kt, "emonos_at_level", counting)
    assert main(["compute", "--input", str(path)]) == 0
    capsys.readouterr()
    max_p = json.loads(path.read_text())["window"]["max_filtration"]
    assert levels and max(levels) <= max_p + 2


@pytest.mark.parametrize("path", MONOMIAL_MODEL_INPUTS, ids=lambda p: p.stem)
def test_ambiguity_basis_is_every_class_above_the_threshold(path,
                                                            monkeypatch):
    """ambiguity_basis(t, f) is the labels of the cells (p, t - p), p >= f:
    the cells up to three times past _filtration_bound hold no other
    label, enumerated or counted.  Checked on every (t, f) that the
    input's bv extension report queries, and on every total degree and
    threshold of its window."""
    ring = _ring_from_file(path)
    W = ring.window
    queries = {(t, f) for t in range(W.q_min, W.max_p + W.q_max + 1)
               for f in range(W.max_p + 2)}
    real = spectral.ambiguity_basis
    reported = set()

    def spy(R, t, f):
        reported.add((t, f))
        return real(R, t, f)
    monkeypatch.setattr(spectral, "ambiguity_basis", spy)
    if ring.algebra.top_degree_bound() is None:
        with pytest.raises(NotPoincareDualityError):
            bv_report(ring.algebra, W)
    else:
        bv_report(ring.algebra, W)
        assert reported
    for t, f in sorted(queries | reported):
        bound = spectral._filtration_bound(ring, t)
        expected = []
        for p in range(f, 3 * (max(bound, f) + 1) + 1):
            labels = [("m", e, a) for e, a in ring.cell_basis(p, t - p)]
            assert len(labels) == ring.cell_dim(p, t - p)
            assert p <= bound or not labels, (t, p, bound)
            expected.extend(sorted(labels, key=ring.label_str))
        assert real(ring, t, f) == expected, (t, f)


def test_collapse_single_cell():
    R = ExplicitBigradedRing({(0, 0): ["a"]})
    cert = collapse_certificate(R)
    assert cert.status == "collapse"


def test_collapse_counterexample():
    R = ExplicitBigradedRing({(0, 0): ["a"], (2, -1): ["b"]})
    cert = collapse_certificate(R)
    assert cert.status == "obstructed"
    assert [(d.r, d.source, d.target) for d in cert.potential_differentials] \
        == [(2, (0, 0), (2, -1))]


def test_collapse_certificate_checks_every_page_up_to_its_bound():
    R = ExplicitBigradedRing({(0, 0): ["a"], (70, -69): ["b"]})
    cert = collapse_certificate(R)
    assert cert.status == "obstructed"
    assert cert.r_bound == 70
    assert [(d.r, d.source, d.target) for d in cert.potential_differentials] \
        == [(70, (0, 0), (70, -69))]


def test_ambiguity_basis_deg5():
    R = ring_deg5()
    assert ambiguity_basis(R, 10, 1) == []
    # total degree 0 above filtration 1: nothing for n = 5
    assert ambiguity_basis(R, 0, 1) == []
    # the unit itself shows up at filtration 0
    assert len(ambiguity_basis(R, 0, 0)) == 1


def test_ambiguity_basis_deg3():
    R = ring_deg3()
    basis = ambiguity_basis(R, 0, 1)
    labels = sorted(R.label_str(lbl) for lbl in basis)
    assert len(basis) == 4
    for lbl in basis:
        p, q = R.bidegree(lbl)
        assert p == 3 and q == -3
    assert all("y1" in s and "y2" in s for s in labels)


def test_ambiguity_monotone():
    R = ring_deg3()
    sizes = [len(ambiguity_basis(R, 0, f)) for f in range(0, 6)]
    assert sizes == sorted(sizes, reverse=True)


def test_ambiguity_unbounded_error():
    """The circle's nu_y1*, |y1| = 1, and the w_0* of F_2[x1]/(x1^2),
    |x1| = 1, have total degree 0; /\\(y1) (x) F_2[x1] has no top degree."""
    for A in (exterior(2, [1]), polynomial(2, [1], ["x1^2"]),
              AlgebraPresentation(PrimeField(2), [
                  GradedGenerator("y1", 3, "exterior"),
                  GradedGenerator("x1", 2, "polynomial")])):
        ring = hh_via_kt(A, DegreeWindow(3, -6, 6))
        assert ring.generators is not None
        with pytest.raises(UnboundedSearchError):
            ambiguity_basis(ring, 0, 1)


def test_ambiguity_basis_without_nu_or_w_needs_no_top_degree():
    """Only the square-zero u_x1* raises the filtration of F_2[x1], so
    p <= 1 bounds the search although the algebra has no top degree."""
    ring = hh_via_kt(polynomial(2, [2]), DegreeWindow(3, -6, 6))
    assert [ring.label_str(lbl) for lbl in ambiguity_basis(ring, 3, 0)] \
        == ["x1^2.u_x1*"]
    assert ambiguity_basis(ring, 3, 2) == []


def test_resolve_product_extension_deg5():
    R = ring_deg5()
    y1 = R.label_from_exponents({"y1": 1})
    res = resolve_product_extension(R, y1, y1)
    assert res.status == "determined"
    assert res.value == {}  # y_i^2 = 0 on the nose
    nu1 = R.label_from_exponents({"nu_y1*": 1})
    nu2 = R.label_from_exponents({"nu_y2*": 1})
    res2 = resolve_product_extension(R, nu1, nu2)
    assert res2.status == "determined"
    assert res2.value == {R.label_from_exponents(
        {"nu_y1*": 1, "nu_y2*": 1}): 1}
    one = R.label_from_exponents({})
    res3 = resolve_product_extension(R, one, y1)
    assert res3.status == "determined" and res3.value == {y1: 1}


def test_resolve_bv_extension_deg5():
    A = two_spheres_deg5()
    window = DegreeWindow(3, -22, 12)
    ctx = BVContext(A, window)
    R = ctx.ring
    one = R.label_from_exponents({})
    delta_gr = {}
    for (p, q), labels in R.cells.items():
        if 1 <= p <= 3:
            for lbl in labels:
                delta_gr[lbl] = ctx.delta_of_label(lbl)
    for i in (1, 2):
        for j in (1, 2):
            lbl = R.label_from_exponents({f"y{j}": 1, f"nu_y{i}*": 1})
            res = resolve_bv_extension(R, delta_gr, lbl)
            assert res.status == "determined"
            assert res.value == ({one: 1} if i == j else {})
        lbl = R.label_from_exponents({f"nu_y{i}*": 1})
        res = resolve_bv_extension(R, delta_gr, lbl)
        assert res.status == "determined" and res.value == {}
    lbl = R.label_from_exponents({"nu_y1*": 1, "nu_y2*": 1})
    res = resolve_bv_extension(R, delta_gr, lbl)
    assert res.status == "determined" and res.value == {}


def test_resolve_bv_extension_deg3_ambiguous():
    A = two_spheres_deg3()
    window = DegreeWindow(3, -14, 8)
    ctx = BVContext(A, window)
    R = ctx.ring
    lbl = R.label_from_exponents({"y1": 1, "nu_y2*": 1})
    delta_gr = {lbl: ctx.delta_of_label(lbl)}
    res = resolve_bv_extension(R, delta_gr, lbl)
    assert res.status == "ambiguous"
    assert len(res.ambiguity) == 4
    for amb in res.ambiguity:
        p, q = R.bidegree(amb)
        assert (p, q) == (3, -3)
