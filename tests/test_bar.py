import functools
import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from hhkt.algebra import (AlgebraPresentation, GradedGenerator, Polynomial,
                          parse_presentation)
from hhkt.bigraded import DegreeWindow
from hhkt.fields import PrimeField
from hhkt.bar import (BarComplex, ChainElement, Cochain, DualValue,
                      cochain_cup, compute_hh_window, connes_boundary,
                      hochschild_b, CellBlowupError, COEFF_DUAL, COEFF_SELF)
from hhkt.koszul_tate import (KTElement, KTResolution, KTRing,
                              KTTensorElement, hh_via_kt)

from .helpers import column, exterior, polynomial, truncated_poly_char2, \
    two_spheres_deg5
from .reference import (ChainComplexCells, cochain_differential,
                        compute_hochschild_homology_window,
                        dual_left_action, dual_right_action, shuffle_product,
                        unit_cochain)


def all_words(A, max_len, degree_cap):
    abar = []
    for d in range(1, degree_cap + 1):
        abar.extend(A.monomial_basis(d))
    words = []
    for k in range(1, max_len + 1):
        words.extend(itertools.product(abar, repeat=k))
    return [w for w in words if sum(A.mono_degree(m) for m in w) <= degree_cap]


def _mixed(p, ydeg, xdeg, rels=()):
    return AlgebraPresentation(
        PrimeField(p), [GradedGenerator("y1", ydeg, "exterior"),
                        GradedGenerator("x1", xdeg, "polynomial")], rels)


@pytest.mark.parametrize("A", [
    two_spheres_deg5(), exterior(3, [3]), truncated_poly_char2(),
    # odd characteristic with an even-degree entry or two generators
    exterior(3, [3, 3]), _mixed(3, 3, 2, ["x1^3"]), polynomial(3, [2])])
def test_b_squared_and_bB_Bb(A):
    for w in all_words(A, 3, 12):
        for a0 in [A.unit_monomial()] + A.monomial_basis(5) \
                + A.monomial_basis(3) + A.monomial_basis(4):
            c = ChainElement(A, {(a0, w): 1})
            assert hochschild_b(hochschild_b(c)).is_zero()
            bB = hochschild_b(connes_boundary(c))
            Bb = connes_boundary(hochschild_b(c))
            assert (bB + Bb).is_zero(), (a0, w)
            B2 = connes_boundary(connes_boundary(c))
            assert B2.is_zero(), (a0, w)


def test_connes_examples():
    A = two_spheres_deg5()
    y = A.generator_monomial("y1")
    one = A.unit_monomial()
    c = ChainElement(A, {(y, ()): 1})
    assert connes_boundary(c) == ChainElement(A, {(one, (y,)): 1})
    assert connes_boundary(ChainElement(A, {(one, (y,)): 1})).is_zero()


def test_shuffle_examples():
    A = two_spheres_deg5()
    y1 = A.generator_monomial("y1")
    y2 = A.generator_monomial("y2")
    one = A.unit_monomial()
    # a0 * [y] = a0[y]
    left = ChainElement(A, {(y1, ()): 1})
    right = ChainElement(A, {(one, (y2,)): 1})
    assert shuffle_product(left, right) == ChainElement(A, {(y1, (y2,)): 1})
    # [y1] * [y2] = [y1|y2] + [y2|y1] in char 2
    s = shuffle_product(ChainElement(A, {(one, (y1,)): 1}),
                        ChainElement(A, {(one, (y2,)): 1}))
    assert s == ChainElement(A, {(one, (y1, y2)): 1, (one, (y2, y1)): 1})


def test_shuffle_graded_commutative_and_associative():
    A = exterior(3, [3])
    y = A.generator_monomial("y1")
    one = A.unit_monomial()
    xs = [ChainElement(A, {(one, (y,)): 1}),
          ChainElement(A, {(y, (y,)): 1}),
          ChainElement(A, {(one, (y, y)): 1})]
    degs = [2, 5, 4]

    def total(i):
        return degs[i]
    for i, j in itertools.product(range(3), repeat=2):
        sgn = -1 if (total(i) * total(j)) % 2 else 1
        lhs = shuffle_product(xs[i], xs[j])
        rhs = shuffle_product(xs[j], xs[i]).scale(sgn)
        assert lhs == rhs, (i, j)
    for i, j, k in itertools.product(range(3), repeat=3):
        lhs = shuffle_product(shuffle_product(xs[i], xs[j]), xs[k])
        rhs = shuffle_product(xs[i], shuffle_product(xs[j], xs[k]))
        assert lhs == rhs


def test_connes_is_derivation_mod_boundaries():
    """H(B)(x*y) = H(B)x * y +- x * H(B)y modulo boundaries, on cycles."""
    A = two_spheres_deg5()
    cx = ChainComplexCells(A)
    one = A.unit_monomial()
    y1 = A.generator_monomial("y1")
    y2 = A.generator_monomial("y2")
    cycles = [ChainElement(A, {(y1, ()): 1}),
              ChainElement(A, {(one, (y1,)): 1}),
              ChainElement(A, {(one, (y2,)): 1}),
              ChainElement(A, {(y1, (y2,)): 1})]
    totals = [5, 4, 4, 9]
    for (i, x), (j, y) in itertools.product(enumerate(cycles), repeat=2):
        lhs = connes_boundary(shuffle_product(x, y))
        sgn = -1 if totals[i] % 2 else 1
        rhs = (shuffle_product(connes_boundary(x), y)
               + shuffle_product(x, connes_boundary(y)).scale(sgn))
        diff = lhs - rhs
        if diff.is_zero():
            continue
        # must be a boundary: express as b of one higher length
        (a0, w0) = next(iter(diff.terms))
        k = len(w0)
        t = A.mono_degree(a0) + sum(A.mono_degree(m) for m in w0)
        assert cx.solve(k + 1, t, diff.terms) is not None, (i, j)


def test_cochain_differential_squares_to_zero():
    for A in (two_spheres_deg5(), exterior(3, [3]), truncated_poly_char2()):
        window = DegreeWindow(3, -12, 8)
        cx = BarComplex(A, COEFF_SELF, window)
        for p, q in [(0, 3), (0, 4), (1, -5), (1, -3), (1, 0), (2, -6)]:
            basis = cx.cell_basis(p, q)
            words2 = list(dict.fromkeys(
                w for (w, _) in cx.cell_basis(p + 2, q)))
            for b in basis:
                f = Cochain(A, COEFF_SELF, p, q, {b: 1})
                words1 = list(dict.fromkeys(
                    w for (w, _) in cx.cell_basis(p + 1, q)))
                df = cochain_differential(f, words1)
                ddf = cochain_differential(df, words2)
                assert ddf.is_zero()


def test_unit_cochain_is_a_cocycle():
    for A in (two_spheres_deg5(), exterior(3, [3])):
        words1 = [(m,) for d in range(1, 11) for m in A.monomial_basis(d)]
        assert cochain_differential(unit_cochain(A), words1).is_zero()


def test_cup_unit_and_associativity():
    A = two_spheres_deg5()
    window = DegreeWindow(4, -20, 10)
    cx = BarComplex(A, COEFF_SELF, window)
    one_cochain = unit_cochain(A)
    y1 = A.generator_monomial("y1")
    f = Cochain(A, COEFF_SELF, 1, -5, {((y1,), A.unit_monomial()): 1})
    words1 = list(dict.fromkeys(w for (w, _) in cx.cell_basis(1, -5)))
    assert cochain_cup(one_cochain, f, words1) == f
    assert cochain_cup(f, one_cochain, words1) == f

    g = Cochain(A, COEFF_SELF, 1, 0, {((y1,), y1): 1})
    words3 = list(dict.fromkeys(w for (w, _) in cx.cell_basis(3, -10)))
    lhs = cochain_cup(cochain_cup(f, f, list(dict.fromkeys(
        w for (w, _) in cx.cell_basis(2, -10)))), g, words3)
    rhs = cochain_cup(f, cochain_cup(f, g, list(dict.fromkeys(
        w for (w, _) in cx.cell_basis(2, -5)))), words3)
    assert (lhs.p, lhs.q) == (rhs.p, rhs.q) == (3, -10)
    assert lhs == rhs


def nonzero_dims(dims, window=None):
    """The nonzero cells of a {cell: dim} table; with a window, also check
    that the table has exactly the window's cells."""
    if window is not None:
        assert set(dims) == set(window.cells())
    return {pq: d for pq, d in dims.items() if d}


def expected_exterior_dims(degs, window):
    dims = {}
    l = len(degs)
    for mask in range(1 << l):
        base_q = sum(d for i, d in enumerate(degs) if (mask >> i) & 1)
        for exps in itertools.product(range(window.max_p + 1), repeat=l):
            p = sum(exps)
            if p > window.max_p:
                continue
            q = base_q - sum(e * d for e, d in zip(exps, degs))
            if window.q_min <= q <= window.q_max:
                dims[(p, q)] = dims.get((p, q), 0) + 1
    return dims


def test_hh_window_exterior_char2():
    A = exterior(2, [5, 5])
    window = DegreeWindow(3, -16, 10)
    hh = compute_hh_window(A, COEFF_SELF, window)
    assert nonzero_dims(hh, window) == expected_exterior_dims([5, 5], window)


def test_hh_window_center_is_algebra():
    A = two_spheres_deg5()
    window = DegreeWindow(1, -6, 10)
    hh = compute_hh_window(A, COEFF_SELF, window)
    for q in range(-6, 11):
        assert hh[(0, q)] == A.dim_in_degree(q)


def test_hh_window_polynomial_infinite_dimensional():
    A = polynomial(2, [2])
    window = DegreeWindow(3, -12, 12)
    hh = compute_hh_window(A, COEFF_SELF, window)
    expected = {}
    for eps in (0, 1):
        for a in range(0, 13):
            p, q = eps, 2 * a - 2 * eps
            if window.contains(p, q):
                expected[(p, q)] = expected.get((p, q), 0) + 1
    assert nonzero_dims(hh, window) == expected


def test_nu_dual_square_nonzero_on_bar_side():
    """Any nonzero degree (1,-n) class cups with itself to a nonzero class
    (the divided-power duals form a polynomial algebra)."""
    A = exterior(2, [5, 5])
    window = DegreeWindow(3, -22, 2)
    cx = BarComplex(A, COEFF_SELF, window)
    hom = cx.homology(1, -5)
    assert hom.dim == 2
    words2 = list(dict.fromkeys(w for (w, _) in cx.cell_basis(2, -10)))
    for terms in cx.representatives(1, -5):
        f = Cochain(A, COEFF_SELF, 1, -5, terms)
        sq = cochain_cup(f, f, words2)
        coords = cx.express(2, -10, sq.terms)
        assert coords is not None and any(coords.values())


def test_cup_commutative_modulo_coboundary():
    import random
    A = two_spheres_deg5()
    window = DegreeWindow(4, -22, 2)
    cx = BarComplex(A, COEFF_SELF, window)
    rng = random.Random(11)
    cells = [(1, -5), (1, 0), (2, -10)]
    reps = {}
    for (p, q) in cells:
        reps[(p, q)] = [Cochain(A, COEFF_SELF, p, q, terms)
                        for terms in cx.representatives(p, q)]
    pairs = 0
    for (p1, q1), (p2, q2) in itertools.product(cells, repeat=2):
        if p1 + p2 > window.max_p:
            continue
        for f in reps[(p1, q1)]:
            for g in reps[(p2, q2)]:
                words = list(dict.fromkeys(
                    w for (w, _) in cx.cell_basis(p1 + p2, q1 + q2)))
                fg = cochain_cup(f, g, words)
                gf = cochain_cup(g, f, words)
                sgn = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
                diff = fg - gf.scale(sgn)
                if diff.is_zero():
                    continue
                assert cx.solve(p1 + p2 - 1, q1 + q2,
                                diff.terms) is not None
                pairs += 1
    assert pairs >= 0


@pytest.mark.parametrize("A,maxp,qmin,qmax", [
    (two_spheres_deg5(), 3, -16, 10),
    (exterior(3, [3]), 4, -13, 4),
    (truncated_poly_char2(), 4, -18, 6),
    (polynomial(3, [2], ["x1^2"]), 4, -10, 3),
    (polynomial(2, [2]), 3, -8, 8),
    # mixed exterior (x) polynomial, with and without relations
    (_mixed(2, 3, 2), 2, -8, 8),
    (_mixed(3, 3, 2), 2, -8, 8),
    (_mixed(3, 3, 2, ["x1^2"]), 3, -9, 5),
    (_mixed(2, 5, 4, ["x1^2"]), 3, -14, 9),
    # several relations; non-pure-power decomposable relations
    (polynomial(2, [2, 2], ["x1^2", "x2^2"]), 3, -8, 4),
    (polynomial(2, [2, 2], ["x1^2 + x1*x2"]), 2, -6, 6),
    (polynomial(3, [2, 2], ["x1^2 - x2^2"]), 2, -6, 6),
])
def test_oracle_matches_koszul_tate(A, maxp, qmin, qmax):
    """The central cross-check: bar-complex dims equal resolution dims."""
    window = DegreeWindow(maxp, qmin, qmax)
    bar_side = compute_hh_window(A, COEFF_SELF, window)
    kt_side = hh_via_kt(A, window)
    kt_dims = {pq: len(lbls) for pq, lbls in kt_side.cells.items() if lbls}
    assert nonzero_dims(bar_side, window) == kt_dims


def test_homology_window_exterior():
    A = exterior(2, [5, 5])
    window = DegreeWindow(3, -16, 0)
    hom = compute_hochschild_homology_window(A, window)
    # A (x) Gamma[nu]: cells (k, t): monomial a . gamma_e1 gamma_e2 with
    # e1 + e2 = k and t = |a| + 5k
    expected = {}
    for mask_deg in (0, 5, 5, 10):
        pass
    for mask in range(4):
        base = sum(d for i, d in enumerate([5, 5]) if (mask >> i) & 1)
        for e1 in range(4):
            for e2 in range(4):
                k = e1 + e2
                t = base + 5 * k
                if k <= 3 and t <= 16:
                    expected[(k, t)] = expected.get((k, t), 0) + 1
    assert set(hom) == {(k, t) for k in range(4) for t in range(17)}
    assert nonzero_dims(hom) == expected


def test_homology_duality_with_dual_cochains():
    A = exterior(2, [5, 5])
    window = DegreeWindow(2, -14, 0)
    hom = compute_hochschild_homology_window(A, window)
    coh = compute_hh_window(A, COEFF_DUAL, window)
    compared = 0
    for (k, t), dim in hom.items():
        if window.contains(k, -t):
            assert coh[(k, -t)] == dim, (k, t)
            compared += 1
    assert compared == len(coh)


@pytest.mark.parametrize("A", [
    two_spheres_deg5(), _mixed(3, 3, 2, ["x1^3"]), polynomial(3, [2])])
def test_dual_cells_are_keyed_by_the_chain_cells(A):
    """The entries (word, a0) of the dual cochain cell (k, -t) are the
    chains a0[word] of the chain cell (k, t): the keys that the BV
    operator and verify's iota check feed to the duality."""
    dual = BarComplex(A, COEFF_DUAL, DegreeWindow(3, -16, 0))
    chains = ChainComplexCells(A)
    for k in range(4):
        for t in range(17):
            assert sorted((a0, w) for w, a0 in dual.cell_basis(k, -t)) \
                == sorted(chains.cell_basis(k, t)), (k, t)


def test_dual_cochain_differential_squares_zero():
    A = exterior(3, [3])
    window = DegreeWindow(3, -10, 2)
    cx = BarComplex(A, COEFF_DUAL, window)
    for (p, q) in [(0, -3), (0, 0), (1, -3), (1, -6), (2, -6)]:
        basis = cx.cell_basis(p, q)
        words1 = list(dict.fromkeys(w for (w, _) in cx.cell_basis(p + 1, q)))
        words2 = list(dict.fromkeys(w for (w, _) in cx.cell_basis(p + 2, q)))
        for b in basis:
            f = Cochain(A, COEFF_DUAL, p, q, {b: 1})
            assert cochain_differential(
                cochain_differential(f, words1), words2).is_zero()


def test_blowup_guard():
    A = polynomial(2, [2])
    window = DegreeWindow(3, -12, 12)
    cx = BarComplex(A, COEFF_SELF, window, cell_limit=3)
    with pytest.raises(CellBlowupError):
        cx.homology(1, 2)


def test_blowup_guard_on_dimensions():
    A = polynomial(2, [2])
    window = DegreeWindow(3, -12, 12)
    cx = BarComplex(A, COEFF_SELF, window, cell_limit=3)
    with pytest.raises(CellBlowupError):
        cx.homology_dim(1, 2)


CORPUS_DIR = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
              / "presentations")
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


@pytest.mark.parametrize("coeff", [COEFF_SELF, COEFF_DUAL])
@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_matrix_columns_are_cochain_differentials(path, coeff):
    """The row-by-row coboundary matrix agrees, column by column, with the
    cochain differential of each basis cochain."""
    doc = json.loads(path.read_text())
    A = parse_presentation(doc)
    window = DegreeWindow(3, doc["window"]["q_min"], doc["window"]["q_max"])
    cx = BarComplex(A, coeff, window)
    checked = 0
    for (p, q) in window.cells():
        if cx.estimate_cell(p, q) * cx.estimate_cell(p + 1, q) > 40000:
            continue
        M = cx.matrix(p, q)
        words = list(dict.fromkeys(w for (w, _) in cx.cell_basis(p + 1, q)))
        for j, b in enumerate(cx.cell_basis(p, q)):
            df = cochain_differential(Cochain(A, coeff, p, q, {b: 1}), words)
            assert column(M, j) == cx.vector(p + 1, q, df.terms), (p, q, j)
        checked += M.cols
    assert checked


BENCH_INPUTS = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
                / "inputs")


@pytest.mark.parametrize("path", CORPUS + [
    BENCH_INPUTS / "poly2_rel_deg2_char2.json",
    BENCH_INPUTS / "mixed_ext3_trunc3_char3.json"],
    ids=lambda path: path.stem)
def test_homology_dim_matches_homology(path):
    """The rank-only dimension equals the dimension of the full homology
    basis on every window cell of the bar cochains (both coefficient
    sides), the Hochschild chains and the resolution F."""
    doc = json.loads(path.read_text())
    A = parse_presentation(doc)
    win = doc["window"]
    window = DegreeWindow(win["max_filtration"], win["q_min"], win["q_max"])
    chain_t = range(max(0, -window.q_max), max(0, -window.q_min) + 1)
    graded = [(d, t) for d in range(window.max_p + 1) for t in chain_t]
    complexes = [(BarComplex(A, COEFF_SELF, window), list(window.cells())),
                 (BarComplex(A, COEFF_DUAL, window), list(window.cells())),
                 (ChainComplexCells(A), graded),
                 (KTResolution(A), graded)]
    for cx, cells in complexes:
        dims = [cx.homology_dim(d, w) for d, w in cells]
        assert dims == [cx.homology(d, w).dim for d, w in cells], \
            type(cx).__name__
        assert any(dims)


@pytest.mark.parametrize("name", ["ext2_deg3_char2", "poly1_deg2_char3"])
def test_express_reads_back_representatives(name):
    """On every window cell of the bar cochains (both coefficient sides)
    and of the Hochschild chains, the i-th representative, alone and plus
    a boundary, expresses as the i-th unit vector."""
    doc = json.loads((CORPUS_DIR / f"{name}.json").read_text())
    A = parse_presentation(doc)
    win = doc["window"]
    window = DegreeWindow(win["max_filtration"], win["q_min"], win["q_max"])
    chain_t = range(max(0, -window.q_max), max(0, -window.q_min) + 1)
    graded = [(d, t) for d in range(window.max_p + 1) for t in chain_t]
    p = A.field.p
    seen = 0
    for cx, cells in [(BarComplex(A, COEFF_SELF, window), window.cells()),
                      (BarComplex(A, COEFF_DUAL, window), window.cells()),
                      (ChainComplexCells(A), graded)]:
        for d, w in cells:
            hom = cx.homology(d, w)
            d_in = cx.matrix(d - cx.step, w)
            bd = column(d_in, 0)
            for i, rep in enumerate(hom.representatives):
                assert hom.express(rep) == {i: 1}, (type(cx).__name__, d, w)
                shifted = {j: (rep.get(j, 0) + bd.get(j, 0)) % p
                           for j in rep.keys() | bd.keys()}
                assert hom.express(
                    {j: x for j, x in shifted.items() if x}) == {i: 1}
                seen += 1
    assert seen


@functools.lru_cache(maxsize=None)
def _cell_complexes(which):
    """(complex, candidate cells, element type or None) for the bar
    cochains on both coefficient sides, the Hochschild chains, the
    resolution F, its tensor square and the Hom complex of one algebra."""
    A = [two_spheres_deg5(), exterior(3, [3]), truncated_poly_char2()][which]
    window = DegreeWindow(3, -12, 8)
    R = KTResolution(A)
    bigraded = list(window.cells())
    graded = [(d, w) for d in range(4) for w in range(13)]

    def cochain(coeff):
        return lambda p, q, terms: Cochain(A, coeff, p, q, terms)
    return [
        (BarComplex(A, COEFF_SELF, window), bigraded, cochain(COEFF_SELF)),
        (BarComplex(A, COEFF_DUAL, window), bigraded, cochain(COEFF_DUAL)),
        (ChainComplexCells(A), graded,
         lambda k, t, terms: ChainElement(A, terms)),
        (R, graded, lambda level, t, terms: KTElement(R, terms)),
        (R.tensor_square, graded,
         lambda level, t, terms: KTTensorElement(R, terms)),
        (KTRing(R, window), bigraded, None),
    ]


@given(st.sampled_from([0, 1, 2]), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_cochain_vector_round_trip(which, rng):
    """On every cell complex, a cell vector survives the trip through its
    terms (and the element they key), and the differential squares to
    zero on the chosen cell."""
    A = [two_spheres_deg5(), exterior(3, [3]), truncated_poly_char2()][which]
    for cx, cells, element in _cell_complexes(which):
        nonempty = [dw for dw in cells if 0 < len(cx.cell_basis(*dw)) < 500]
        d, w = nonempty[rng.randrange(len(nonempty))]
        basis = cx.cell_basis(d, w)
        dense = [rng.randrange(A.field.p) for _ in basis]
        vec = {j: c for j, c in enumerate(dense) if c}
        terms = cx.combination(d, w, vec)
        assert terms == {b: c for b, c in zip(basis, dense) if c}
        assert list(terms) == [b for b in basis if b in terms]
        assert cx.vector(d, w, terms) == vec
        if element is not None:
            assert cx.vector(d, w, element(d, w, terms).terms) == vec
        M, M_next = cx.matrix(d, w), cx.matrix(d + cx.step, w)
        assert M.cols == len(basis)
        assert M.rows == M_next.cols == len(cx.cell_basis(d + cx.step, w))
        for j in range(M.cols):
            assert not M_next.mul_vec(column(M, j)), (type(cx), d, w)


def test_dual_values_have_no_product():
    A = two_spheres_deg5()
    y = A.generator_monomial("y1")
    dual = DualValue(A, {y: 1})
    poly = Polynomial(A, {y: 1})
    # a LinComb over F_2: the sum and the scalar multiples still work
    assert (dual + dual).is_zero() and dual.scale(3) == dual
    # * with a Polynomial is the action on either side:
    # y1 . y1-dual = y1-dual . y1 = 1-dual
    one_dual = DualValue(A, {A.unit_monomial(): 1})
    assert poly * dual == one_dual and dual * poly == one_dual
    with pytest.raises(TypeError):
        dual * dual
    with pytest.raises(TypeError):
        poly + dual
    with pytest.raises(TypeError):
        dual - poly
    with pytest.raises(ValueError):
        dual + DualValue(two_spheres_deg5(), {y: 1})
    with pytest.raises(ValueError):
        poly * DualValue(two_spheres_deg5(), {y: 1})


@st.composite
def _finite_presentations(draw):
    """F_2 or F_3 with up to two exterior and two truncated polynomial
    generators (over F_3 exterior degrees odd, polynomial degrees even)."""
    p = draw(st.sampled_from([2, 3]))
    n_ext = draw(st.integers(0, 2))
    n_poly = draw(st.integers(0 if n_ext else 1, 2))
    ext_degrees = [1, 3] if p == 3 else [1, 2, 3]
    poly_degrees = [2, 4] if p == 3 else [1, 2]
    gens = [GradedGenerator(f"y{i+1}", draw(st.sampled_from(ext_degrees)),
                            "exterior") for i in range(n_ext)]
    gens += [GradedGenerator(f"x{j+1}", draw(st.sampled_from(poly_degrees)),
                             "polynomial") for j in range(n_poly)]
    rels = [f"x{j+1}^{draw(st.integers(2, 4))}" for j in range(n_poly)]
    return AlgebraPresentation(PrimeField(p), gens, rels)


@given(_finite_presentations(), st.data())
@settings(max_examples=60, deadline=None)
def test_dual_value_is_a_bimodule(A, data):
    """poly * alpha and alpha * poly are the one-monomial actions of the
    reference extended over poly's terms, and they make the dual of A an
    A-bimodule: (pq)a = p(qa), a(pq) = (ap)q and (pa)q = p(aq)."""
    basis = [m for d in range(A.top_degree_bound() + 1)
             for m in A.monomial_basis(d)]
    # dense coefficients, so that every pair of basis monomials meets
    coeffs = st.lists(st.integers(0, A.field.p - 1), min_size=len(basis),
                      max_size=len(basis))

    def element(kind):
        return kind(A, dict(zip(basis, data.draw(coeffs))))
    p, q, alpha = element(Polynomial), element(Polynomial), element(DualValue)
    left = right = DualValue(A)
    for g, c in p.terms.items():
        left = left + dual_left_action(A, g, alpha).scale(c)
        right = right + dual_right_action(A, alpha, g).scale(c)
    assert p * alpha == left and alpha * p == right
    assert (p * q) * alpha == p * (q * alpha)
    assert alpha * (p * q) == (alpha * p) * q
    assert (p * alpha) * q == p * (alpha * q)
