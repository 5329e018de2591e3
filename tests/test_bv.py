import itertools
import json
import random

import pytest

from hhkt import cli
from hhkt.algebra import InternalConsistencyError
from hhkt.bar import (COEFF_DUAL, COEFF_SELF, BarComplex, ChainElement,
                      Cochain, DualValue, hochschild_b)
from hhkt.bigraded import DegreeWindow
from hhkt.bv import (BVContext, NotPoincareDualityError, RingClass,
                     build_pd, generator_monomial_labels, iota, pair_class,
                     seven_term_sweep)
from hhkt.koszul_tate import EMono, KTElement

from .helpers import column, exterior, exterior_times_truncated_f3, \
    polynomial, truncated_poly_char2, two_spheres_deg3, two_spheres_deg5
from .reference import (ChainComplexCells, cochain_differential,
                        delta_matrix_via_homology,
                        dual_class_matrix_via_self_homology, dual_left_action)


def test_build_pd_examples():
    pd = build_pd(two_spheres_deg5())
    assert pd.formal_dimension == 10
    assert pd.algebra.label_monomial(pd.fundamental_class) == "y1*y2"
    assert pd.fundamental_dual == DualValue(pd.algebra,
                                            {pd.fundamental_class: 1})

    pd2 = build_pd(truncated_poly_char2())
    assert pd2.formal_dimension == 4
    assert pd2.algebra.label_monomial(pd2.fundamental_class) == "x1"

    with pytest.raises(NotPoincareDualityError):
        build_pd(polynomial(2, [2]))


def test_iota_round_trip_and_intertwining():
    A = two_spheres_deg5()
    cx = ChainComplexCells(A)
    for (k, t) in [(1, 10), (1, 15), (2, 15), (2, 20)]:
        basis = cx.cell_basis(k, t)
        for i, key in enumerate(basis):
            f = {key: 1}
            g = iota(f, A, k, t)
            assert len(g.terms) == 1 and pair_class(g, f, A) == 1
            # intertwining: iota(b-dual f) equals the cochain differential
            # of iota(f), checked by evaluating both on the next cell
            sign_f = -1 if (k - t) % 2 else 1
            bdual = {}
            for key2 in cx.cell_basis(k + 1, t):
                img = hochschild_b(ChainElement(A, {key2: 1}))
                v = (sign_f * img.terms.get(key, 0)) % A.field.p
                if v:
                    bdual[key2] = v
            lhs = iota(bdual, A, k + 1, t)
            words = list(dict.fromkeys(w for (_, w)
                                       in cx.cell_basis(k + 1, t)))
            rhs = cochain_differential(g, words)
            assert lhs == rhs, (k, t, key)


def test_pairing_descends():
    """Cocycle classes pair to zero with boundaries and coboundaries pair
    to zero with cycles."""
    A = two_spheres_deg5()
    window = DegreeWindow(3, -20, 2)
    ctx = BVContext(A, window)
    chains = ChainComplexCells(A)
    for (p, qd) in [(1, -10), (1, -15), (2, -20)]:
        t = -qd
        bmat = chains.matrix(p + 1, t)
        for terms in ctx.bar_dual.representatives(p, qd):
            g = Cochain(A, COEFF_DUAL, p, qd, terms)
            for j in range(bmat.cols):
                boundary = chains.combination(p, t, column(bmat, j))
                if not boundary:
                    continue
                assert pair_class(g, boundary, A) == 0


def unit_label(ring):
    (lbl,) = ring.cells[(0, 0)]
    return lbl


def label_by_parts(ring, e=None, mask=0, exps=None):
    """The label of the monomial-model class with the E exponents e (in
    roster order), the exterior mask and the polynomial exponents."""
    A = ring.algebra
    from hhkt.algebra import Monomial
    e = EMono(e or (0,) * len(ring.R.e_generators))
    a = Monomial(mask, tuple(exps or (0,) * A.n_poly))
    return ("m", e, a)


def test_delta_table_two_spheres_deg5():
    A = two_spheres_deg5()
    window = DegreeWindow(3, -22, 12)
    ctx = BVContext(A, window)
    ring = ctx.ring
    one = unit_label(ring)
    # Delta(y_j nu_i*) = delta_ij . 1
    for j, i in itertools.product((0, 1), repeat=2):
        lbl = label_by_parts(ring, e=[1 if k == i else 0 for k in (0, 1)],
                             mask=1 << j)
        val = ctx.delta_of_label(lbl)
        if i == j:
            assert val == {one: 1}, (i, j, val)
        else:
            assert val == {}, (i, j, val)
    # Delta(nu_i*) = 0 and Delta(nu_i* nu_j*) = 0
    for i in (0, 1):
        lbl = label_by_parts(ring, e=[1 if k == i else 0 for k in (0, 1)])
        assert ctx.delta_of_label(lbl) == {}
    for nu in [(2, 0), (1, 1), (0, 2)]:
        assert ctx.delta_of_label(label_by_parts(ring, e=nu)) == {}
    # Delta vanishes on filtration 0 (the algebra itself)
    for mask in (1, 2, 3):
        assert ctx.delta_of_label(label_by_parts(ring, mask=mask)) == {}


def test_delta_single_sphere_any_char2():
    A = exterior(2, [3])
    window = DegreeWindow(3, -12, 6)
    ctx = BVContext(A, window)
    ring = ctx.ring
    one = unit_label(ring)
    y_nu = label_by_parts(ring, e=(1,), mask=1)
    assert ctx.delta_of_label(y_nu) == {one: 1}
    assert ctx.delta_of_label(label_by_parts(ring, e=(1,))) == {}
    assert ctx.delta_of_label(label_by_parts(ring, mask=1)) == {}


def test_delta_squared_zero_window():
    A = two_spheres_deg5()
    window = DegreeWindow(3, -22, 12)
    ctx = BVContext(A, window)
    for (p, q), labels in ctx.ring.cells.items():
        if p < 2:
            continue
        for lbl in labels:
            once = RingClass(ctx, {lbl: 1}).delta()
            twice = once.delta()
            assert twice.is_zero(), (lbl, once.terms, twice.terms)


def test_ring_classes_multiply_by_the_ring_and_delta_is_linear():
    A = two_spheres_deg5()
    ctx = BVContext(A, DegreeWindow(3, -22, 12))
    ring = ctx.ring
    labels = [lbl for cell in ring.cells.values() for lbl in cell]
    nonzero = 0
    for la, lb in itertools.product(labels, repeat=2):
        product = RingClass(ctx, {la: 1}) * RingClass(ctx, {lb: 1})
        assert product.terms == ring.product(la, lb), (la, lb)
        nonzero += not product.is_zero()
    assert nonzero
    # combinations of classes from different cells, in and out of the
    # kernel of the operator
    rng = random.Random(0)
    for _ in range(100):
        x, y = (RingClass(ctx, dict.fromkeys(rng.sample(labels, 4), 1))
                for _ in range(2))
        assert (x + y).delta() == x.delta() + y.delta()
        assert x.scale(3).delta() == x.delta().scale(3)
        expected = RingClass(ctx)
        for lbl, c in x.terms.items():
            expected += RingClass(ctx, ctx.delta_of_label(lbl)).scale(c)
        assert x.delta() == expected


def test_theta_unit_is_fundamental_dual():
    A = two_spheres_deg5()
    window = DegreeWindow(2, -22, 12)
    ctx = BVContext(A, window)
    one = unit_label(ctx.ring)
    g = ctx.theta_cochain(
        ctx.xi.cochain(ctx.ring.class_reps[one], 0, 0))
    assert g.coeff == COEFF_DUAL and (g.p, g.q) == (0, -ctx.d)
    assert g.terms == {((), ctx.pd.fundamental_class): 1}


def test_theta_equals_postcomposition_with_duality():
    """Cup with the dual fundamental class agrees with postcomposing
    representatives by the duality map a -> a . omega-dual (char 2)."""
    A = two_spheres_deg5()
    window = DegreeWindow(2, -22, 12)
    ctx = BVContext(A, window)
    for (p, q) in [(0, 5), (1, 0), (1, -5), (2, -10)]:
        for terms in ctx.xi.bar.representatives(p, q):
            f = Cochain(A, COEFF_SELF, p, q, terms)
            lhs = ctx.bar_dual.express(p, q - ctx.d,
                                       ctx.theta_cochain(f).terms)
            values = {}
            for (w, m), c in f.terms.items():
                values[w] = values.get(w, DualValue(A)) + dual_left_action(
                    A, m, DualValue(A, {ctx.pd.fundamental_class: 1})
                ).scale(c)
            g2 = Cochain(A, COEFF_DUAL, p, q - ctx.d,
                         {(w, n): c for w, v in values.items()
                          for n, c in v.terms.items()})
            rhs = ctx.bar_dual.express(p, q - ctx.d, g2.terms)
            assert lhs == rhs, (p, q)


def test_bv_identity_generator_triples():
    A = two_spheres_deg5()
    window = DegreeWindow(3, -22, 12)
    ctx = BVContext(A, window)
    ring = ctx.ring
    gens = [
        (label_by_parts(ring, mask=1), 5),
        (label_by_parts(ring, mask=2), 5),
        (label_by_parts(ring, e=(1, 0)), -4),
        (label_by_parts(ring, e=(0, 1)), -4),
    ]
    checked = 0
    for (la, da), (lb, db), (lc, dc) in itertools.product(gens, repeat=3):
        p = sum(ring.bidegree(x)[0] for x in (la, lb, lc))
        q = sum(ring.bidegree(x)[1] for x in (la, lb, lc))
        if not window.contains(p, q):
            continue
        holds, residual = ctx.check_bv_identity(
            {la: 1}, {lb: 1}, {lc: 1}, da, db)
        assert holds, (la, lb, lc, residual)
        checked += 1
    assert checked >= 20



@pytest.mark.parametrize("A, window", [
    (exterior(3, [3, 3]), DegreeWindow(3, -16, 8)),
    (exterior(5, [3, 3]), DegreeWindow(3, -16, 8)),
    (exterior_times_truncated_f3(), DegreeWindow(3, -14, 14)),
], ids=["ext2_f3", "ext2_f5", "mixed_f3"])
def test_bv_identity_generator_monomial_triples_odd_characteristic(A,
                                                                   window):
    """The operator is nonzero on generator monomials such as y1 nu_y1*,
    so every term of the identity, with its sign, is exercised: on
    generator triples the terms Delta(a)bc, a Delta(b)c and ab Delta(c)
    vanish, and in characteristic 2 every sign is trivial."""
    ctx = BVContext(A, window)
    sweep = seven_term_sweep(ctx, generator_monomial_labels(ctx.ring))
    assert sweep["failures"] == []
    assert "skipped_outside_window" not in sweep
    assert sweep["checked"] >= 200

def test_delta_on_deeper_monomials():
    """Values forced by the seven-term identity from the generator table
    (expected values derived by hand from the identity, char 2):
      Delta(y1 y2 nu_i*) = y-complement(i)
      Delta(y1 nu_1* nu_2*) = nu_2*
      Delta(y1 nu_1*^2) = 2 nu_1* = 0
      Delta(y1 y2 nu_1* nu_2*) = y1 nu_1* + y2 nu_2*
    """
    A = two_spheres_deg5()
    window = DegreeWindow(3, -22, 12)
    ctx = BVContext(A, window)
    ring = ctx.ring

    def delta(exps):
        return ctx.delta_of_label(ring.label_from_exponents(exps))

    def lbl(exps):
        return ring.label_from_exponents(exps)

    assert delta({"y1": 1, "y2": 1, "nu_y1*": 1}) == {lbl({"y2": 1}): 1}
    assert delta({"y1": 1, "y2": 1, "nu_y2*": 1}) == {lbl({"y1": 1}): 1}
    assert delta({"y1": 1, "nu_y1*": 1, "nu_y2*": 1}) == \
        {lbl({"nu_y2*": 1}): 1}
    assert delta({"y1": 1, "nu_y1*": 2}) == {}
    assert delta({"y1": 1, "y2": 1, "nu_y1*": 1, "nu_y2*": 1}) == {
        lbl({"y1": 1, "nu_y1*": 1}): 1, lbl({"y2": 1, "nu_y2*": 1}): 1}


def test_bv_mixed_presentation_with_relation():
    """Exterior (x) truncated polynomial: the operator removes one
    generator-dual pair at a time; square zero and the seven-term identity
    hold throughout the window."""
    from hhkt.algebra import AlgebraPresentation, GradedGenerator
    from hhkt.fields import PrimeField
    A = AlgebraPresentation(
        PrimeField(2),
        [GradedGenerator("y1", 5, "exterior"),
         GradedGenerator("x1", 4, "polynomial")], ["x1^2"])
    ctx = BVContext(A, DegreeWindow(3, -20, 10))
    ring = ctx.ring
    assert ctx.d == 9

    def lbl(exps):
        return ring.label_from_exponents(exps)

    assert ctx.delta_of_label(lbl({"y1": 1, "nu_y1*": 1})) == {lbl({}): 1}
    assert ctx.delta_of_label(lbl({"x1": 1, "u_x1*": 1})) == {lbl({}): 1}
    assert ctx.delta_of_label(
        lbl({"y1": 1, "x1": 1, "nu_y1*": 1, "u_x1*": 1})) == {
            lbl({"x1": 1, "u_x1*": 1}): 1, lbl({"y1": 1, "nu_y1*": 1}): 1}
    assert ctx.delta_of_label(
        lbl({"x1": 1, "u_x1*": 1, "w_0*": 1})) == {lbl({"w_0*": 1}): 1}
    for (p, q), labels in ring.cells.items():
        if p < 2:
            continue
        for label in labels:
            assert RingClass(ctx, {label: 1}).delta().delta().is_zero(), \
                label
    gens = [ring.label_from_exponents({g: 1})
            for g in ring.generators]
    checked = 0
    for la, lb, lc in itertools.combinations_with_replacement(gens, 3):
        p = sum(ring.bidegree(x)[0] for x in (la, lb, lc))
        q = sum(ring.bidegree(x)[1] for x in (la, lb, lc))
        if not ring.window.contains(p, q):
            continue
        holds, residual = ctx.check_bv_identity(
            {la: 1}, {lb: 1}, {lc: 1},
            ring.total_degree(la), ring.total_degree(lb))
        assert holds, residual
        checked += 1
    assert checked >= 20


def test_delta_deg3_gr_level_table():
    """At the associated-graded level the table is degree-independent:
    Delta(y_j nu_i*) = delta_ij . 1 also for degree 3."""
    A = two_spheres_deg3()
    window = DegreeWindow(3, -14, 8)
    ctx = BVContext(A, window)
    ring = ctx.ring
    one = unit_label(ring)
    for j, i in itertools.product((0, 1), repeat=2):
        lbl = label_by_parts(ring, e=[1 if k == i else 0 for k in (0, 1)],
                             mask=1 << j)
        val = ctx.delta_of_label(lbl)
        assert val == ({one: 1} if i == j else {}), (i, j, val)


def test_no_lifted_word_is_longer_than_the_window():
    A = two_spheres_deg5()
    window = DegreeWindow(3, -22, 12)
    ctx = BVContext(A, window)
    for labels in ctx.ring.cells.values():
        for lbl in labels:
            ctx.delta_of_label(lbl)
    assert ctx.xi.table
    assert max(len(word) for word in ctx.xi.table) <= window.max_p


@pytest.mark.parametrize("A, window", [
    (exterior(2, [3, 3]), DegreeWindow(3, -16, 8)),
    (exterior(3, [3, 3]), DegreeWindow(3, -16, 8)),
    (exterior(5, [3, 3]), DegreeWindow(3, -16, 8)),
    # two relations, no monomial generator model: the homology path
    (polynomial(2, [2, 2], ["x1^2+x1*x2", "x2^2"]), DegreeWindow(3, -12, 8)),
], ids=["ext2_f2", "ext2_f3", "ext2_f5", "two_relations_f2"])
def test_delta_matches_the_homology_composite(A, window):
    """The operator read on dual cocycles agrees on every window cell with
    the composite through Hochschild homology, its pairings and H(B)."""
    ctx = BVContext(A, window)
    chains = ChainComplexCells(A)
    nonzero = 0
    for (p, q) in sorted(ctx.ring.cells):
        table = ctx.delta_matrix(p, q)
        assert table == delta_matrix_via_homology(ctx, chains, p, q), (p, q)
        nonzero += sum(1 for row in table.values() if row)
        M = ctx.dual_classes(p, q)[2]
        ref = dual_class_matrix_via_self_homology(ctx, p, q)
        assert (M.rows, M.cols, M.entries) == \
            (ref.rows, ref.cols, ref.entries), (p, q)
    assert nonzero


def test_dual_classes_refuse_a_cell_dimension_mismatch(monkeypatch):
    ctx = BVContext(exterior(2, [3, 3]), DegreeWindow(3, -16, 8))
    true_dim = ctx.xi.bar.homology_dim
    monkeypatch.setattr(ctx.xi.bar, "homology_dim",
                        lambda d, w: true_dim(d, w) + 1)
    (p, q) = next(cell for cell, labels in sorted(ctx.ring.cells.items())
                  if labels)
    with pytest.raises(InternalConsistencyError, match="bar dim"):
        ctx.dual_classes(p, q)


def test_dual_classes_refuse_a_composite_that_is_not_injective(monkeypatch):
    A = exterior(2, [3, 3])
    ctx = BVContext(A, DegreeWindow(3, -16, 8))
    monkeypatch.setattr(ctx, "theta_cochain", lambda f: Cochain(
        A, COEFF_DUAL, f.p, f.q - ctx.d))
    (p, q) = next(cell for cell, labels in sorted(ctx.ring.cells.items())
                  if labels)
    with pytest.raises(InternalConsistencyError, match="not injective"):
        ctx.dual_classes(p, q)


def test_bv_exits_3_on_a_cell_dimension_mismatch(tmp_path, capsys,
                                                 monkeypatch):
    path = tmp_path / "ext2_deg3.json"
    path.write_text(json.dumps({
        "characteristic": 2,
        "generators": [{"name": "y1", "degree": 3, "kind": "exterior"},
                       {"name": "y2", "degree": 3, "kind": "exterior"}],
        "relations": []}))
    true_dim = BarComplex.homology_dim
    monkeypatch.setattr(BarComplex, "homology_dim", lambda self, d, w: (
        true_dim(self, d, w) + (self.coeff == COEFF_SELF)))
    code = cli.main(["bv", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("internal consistency failure: ")
    assert captured.err.count("\n") == 1


def test_the_operator_never_reduces_the_self_side_bar_homology():
    ctx = BVContext(exterior(2, [5, 5]), DegreeWindow(3, -22, 12))
    labels = [lbl for cell in ctx.ring.cells.values() for lbl in cell]
    assert any([ctx.delta_of_label(lbl) for lbl in labels])
    assert ctx.xi.bar._hom == {}
    assert ctx.bar_dual._hom


@pytest.mark.parametrize("A, window", [
    (exterior(2, [5, 5]), DegreeWindow(3, -22, 12)),
    (exterior_times_truncated_f3(), DegreeWindow(3, -14, 14)),
], ids=["ext2_f2", "mixed_f3"])
def test_delta_does_not_depend_on_the_xi_lift(A, window):
    """Every length-1 lift is moved by a boundary d(h) before any longer
    word is lifted; the longer lifts follow, and the operator does not
    change on any window cell."""
    fresh = BVContext(A, window)
    ctx = BVContext(A, window)
    xi, R = ctx.xi, ctx.R
    assert all(len(word) <= 1 for word in xi.table)
    rng = random.Random(0)
    moved = 0
    for deg in range(1, A.top_degree_bound() + 1):
        for m in A.monomial_basis(deg):
            dh = KTElement(R, {b: rng.randrange(A.field.p)
                               for b in R.cell_basis(2, deg)}).d()
            xi.table[(m,)] = xi.value((m,)) + dh
            moved += not dh.is_zero()
    assert moved
    for (p, q) in sorted(fresh.ring.cells):
        assert ctx.delta_matrix(p, q) == fresh.delta_matrix(p, q), (p, q)
    assert any(len(word) > 1 for word in xi.table)
