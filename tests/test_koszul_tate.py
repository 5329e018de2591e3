import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from hhkt.algebra import AlgebraPresentation, GradedGenerator, Polynomial
from hhkt.bigraded import DegreeWindow, WindowError
from hhkt.fields import PrimeField, SparseMatrix, rank
from hhkt.koszul_tate import (EMono, KTElement, KTResolution, KTRing,
                              KTTensorElement, XiLift, cup_constants,
                              cup_via_diagonal, diagonal_element,
                              diagonal_mono, emono_counts, emonos_at_level,
                              exactness_check, hh_via_kt, kt_d_mono,
                              lucas_binomial, _merge_emono)

from .helpers import (exterior, exterior_times_truncated_f3, polynomial,
                      truncated_poly_char2, two_spheres_deg5)
from .reference import (NotACycleError, cup_by_diagonal_terms,
                        e_internal_by_kind, e_level_by_kind,
                        e_symbols_by_kind, emonos_at_level_by_kind,
                        hom_matrices_by_terms, merge_emono_by_kind, phi)


def kt_unit(R):
    return (R.algebra.unit_monomial(), R.algebra.unit_monomial(),
            R.unit_emono())


def elem(R, exps):
    """The KT monomial 1 (x) 1 . e, e the E-monomial with the exponents
    exps in roster order."""
    return KTElement.from_mono(R, e=EMono(exps))


def test_emono_value_semantics():
    a, b = EMono((1, 0, 1, 2)), EMono((1, 0, 1, 2))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != EMono((1, 0, 0, 2))
    assert repr(EMono((1, 0))) == "EMono((1, 0))"
    with pytest.raises(TypeError):
        a[2] = 0
    with pytest.raises(AttributeError):
        a.u = 0


def test_lucas():
    import math
    for p in (2, 3, 5):
        for n in range(12):
            for k in range(n + 1):
                assert lucas_binomial(n, k, p) == math.comb(n, k) % p


def test_generator_rosters():
    R = KTResolution(two_spheres_deg5())
    assert R.generator_roster() == [("nu_y1", (-1, 5)), ("nu_y2", (-1, 5))]

    Rp = KTResolution(polynomial(3, [2]))
    assert Rp.generator_roster() == [("u_x1", (-1, 2))]

    Rt = KTResolution(truncated_poly_char2())
    assert Rt.generator_roster() == [("u_x1", (-1, 4)), ("w_0", (-2, 8))]


@st.composite
def _roster_presentations(draw):
    """F_2 or F_3 with 0-2 exterior generators of odd degree, 0-2 free
    polynomial generators and 0-2 polynomial generators truncated at a
    pure power, each polynomial generator of degree 2 or 4."""
    p = draw(st.sampled_from([2, 3]))
    counts = [draw(st.integers(0, 2)) for _ in range(3)]
    gens = [GradedGenerator(f"y{i+1}", draw(st.sampled_from([1, 3, 5])),
                            "exterior") for i in range(counts[0])]
    gens += [GradedGenerator(f"x{j+1}", draw(st.sampled_from([2, 4])),
                             "polynomial")
             for j in range(counts[1] + counts[2])]
    relations = [f"x{counts[1] + j + 1}^{draw(st.integers(2, 4))}"
                 for j in range(counts[2])]
    return AlgebraPresentation(PrimeField(p), gens, relations)


@given(_roster_presentations(), st.integers(0, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_generator_table_matches_the_kind_by_kind_bookkeeping(presentation,
                                                              level, data):
    """Enumeration, order, level, internal degree, symbols, counts and
    products read from the generator table agree with the same bookkeeping
    written kind by kind; a symbol's key sorts as the kind-by-kind key
    does.  Products are drawn from the levels up to level, each also
    squared, so that a generator (divided or not) is in both factors."""
    R = KTResolution(presentation)
    emonos = emonos_at_level(R, level)
    assert emonos == emonos_at_level_by_kind(R, level)
    keys = {}
    for e in emonos:
        assert R.e_level(e) == e_level_by_kind(R, e) == level
        assert R.e_internal(e) == e_internal_by_kind(R, e)
        syms, ref = R.e_symbols(e), e_symbols_by_kind(R, e)
        assert len(syms) == len(ref)
        for (key, deg, k), (ref_key, ref_deg, ref_payload) in zip(syms, ref):
            g = R.e_generators[key]
            assert (g.kind, g.index, k) == ref_payload and deg == ref_deg
            assert keys.setdefault(ref_key, key) == key
    assert [keys[k] for k in sorted(keys)] == sorted(set(keys.values()))
    counts = {}
    for e in emonos:
        t = e_internal_by_kind(R, e)
        counts[t] = counts.get(t, 0) + 1
    assert emono_counts(R, level) == counts
    pool = st.sampled_from([e for k in range(level + 1)
                            for e in emonos_at_level(R, k)])
    for _ in range(10):
        e1, e2 = data.draw(pool), data.draw(pool)
        for a, b in ((e1, e2), (e1, e1)):
            assert _merge_emono(R, a, b) == merge_emono_by_kind(R, a, b)


def test_divided_powers_multiply_by_binomials():
    """gamma_a gamma_b = binom(a + b, a) gamma_{a + b} in F: gamma_1(nu)^2
    is 2 gamma_2(nu) over F_3 and 0 over F_2, gamma_1(w)^2 is 2 gamma_2(w)
    and gamma_1(w) gamma_2(w) is 0 (binom(3, 1) = 3) over F_3."""
    R3 = KTResolution(exterior(3, [3]))
    assert elem(R3, (1,)) * elem(R3, (1,)) == elem(R3, (2,)).scale(2)
    R2 = KTResolution(exterior(2, [5]))
    assert (elem(R2, (1,)) * elem(R2, (1,))).is_zero()
    Rw = KTResolution(polynomial(3, [2], ["x1^3"]))  # roster u_x1, w_0
    assert elem(Rw, (0, 1)) * elem(Rw, (0, 1)) == elem(Rw, (0, 2)).scale(2)
    assert (elem(Rw, (0, 1)) * elem(Rw, (0, 2))).is_zero()
    assert (elem(Rw, (1, 0)) * elem(Rw, (1, 0))).is_zero()


def test_labels_refuse_a_square_zero_generator_squared():
    """A model monomial holding a u* or an exterior generator of A twice
    has no basis label, while u*^2 is still a product in the ring."""
    ring = hh_via_kt(truncated_poly_char2(), DegreeWindow(4, -24, 6))
    u = ring.label_from_exponents({"u_x1*": 1})
    assert ring.label_from_exponents({"u_x1*": 2}) is None
    assert ring.product(u, u) == {ring.label_from_exponents({"w_0*": 1}): 1}
    ext = hh_via_kt(two_spheres_deg5(), DegreeWindow(2, -12, 10))
    assert ext.label_from_exponents({"y1": 2}) is None
    assert ext.label_from_exponents({"y1": 1, "nu_y1*": 2}) in ext.class_reps


def test_kt_differential_nu():
    A = exterior(3, [5])
    R = KTResolution(A)
    y = A.generator_monomial("y1")
    one = A.unit_monomial()
    d_nu = KTElement(R, dict(kt_d_mono(R, (one, one, EMono((1,))))))
    assert d_nu == KTElement(R, {(y, one, R.unit_emono()): 1,
                                 (one, y, R.unit_emono()): -1})
    # d(gamma_2) = (y(x)1 - 1(x)y) gamma_1
    d_g2 = KTElement(R, dict(kt_d_mono(R, (one, one, EMono((2,))))))
    e1 = EMono((1,))
    assert d_g2 == KTElement(R, {(y, one, e1): 1, (one, y, e1): -1})


def test_kt_differential_w_truncated():
    A = truncated_poly_char2()
    R = KTResolution(A)
    one = A.unit_monomial()
    x = A.generator_monomial("x1")
    d_w = KTElement(R, dict(kt_d_mono(R, (one, one, EMono((0, 1))))))
    # zeta = x(x)1 + 1(x)x, so d(gamma_1(w)) = (x(x)1 + 1(x)x) u
    e_u = EMono((1, 0))
    assert d_w == KTElement(R, {(x, one, e_u): 1, (one, x, e_u): 1})


@pytest.mark.parametrize("presentation", [
    exterior(2, [5, 5]),
    exterior(3, [3]),
    polynomial(2, [2, 2]),
    polynomial(3, [2], ["x1^2"]),
    truncated_poly_char2(),
])
def test_d_squared_zero_window(presentation):
    R = KTResolution(presentation)
    for level in range(1, 5):
        for t in range(0, 17):
            for m in R.cell_basis(level, t):
                d = KTElement(R, {m: 1}).d()
                assert d.d().is_zero()


def test_exactness():
    R = KTResolution(exterior(2, [5, 5]))
    report = exactness_check(R, max_level=3, internal_bound=14)
    assert report.ok, report.failures

    Rt = KTResolution(truncated_poly_char2())
    report = exactness_check(Rt, max_level=3, internal_bound=14)
    assert report.ok, report.failures

    Rp = KTResolution(polynomial(3, [2], ["x1^3"]))
    report = exactness_check(Rp, max_level=3, internal_bound=12)
    assert report.ok, report.failures


def test_diagonal_generators():
    R = KTResolution(polynomial(2, [2, 2]))
    one = R.algebra.unit_monomial()
    D_u = diagonal_mono(R, (one, one, EMono((1, 0))))
    e_u = EMono((1, 0))
    e_1 = R.unit_emono()
    assert D_u == KTTensorElement(R, {
        (one, one, e_u, one, e_1): 1, (one, one, e_1, one, e_u): 1})

    Re = KTResolution(exterior(2, [5, 5]))
    onee = Re.algebra.unit_monomial()
    D_g2 = diagonal_mono(Re, (onee, onee, EMono((2, 0))))
    g = lambda k: EMono((k, 0))
    assert D_g2 == KTTensorElement(Re, {
        (onee, onee, g(2), onee, g(0)): 1,
        (onee, onee, g(1), onee, g(1)): 1,
        (onee, onee, g(0), onee, g(2)): 1})


@pytest.mark.parametrize("presentation", [
    exterior(2, [5, 5]),
    exterior(3, [3]),
    polynomial(3, [2, 4]),
    truncated_poly_char2(),
])
def test_diagonal_chain_map(presentation):
    """boundary(D m) = D(d m) on generators and window monomials."""
    R = KTResolution(presentation)
    count = 0
    for level in range(1, 4):
        for t in range(0, 17):
            for m in R.cell_basis(level, t):
                x = KTElement(R, {m: 1})
                lhs = diagonal_mono(R, m).boundary()
                rhs = diagonal_element(R, x.d())
                assert lhs == rhs, (m,)
                count += 1
    assert count >= 10


def test_diagonal_coassociative_nu_u():
    """(D (x) 1) D = (1 (x) D) D on nu- and u-monomials, checked through
    the induced triple products instead of materializing F^(x)3."""
    # strict associativity of the induced cup is the consumable consequence;
    # check it on dual ring elements
    R = KTResolution(exterior(2, [5, 5]))
    A = R.algebra
    one = A.unit_monomial()
    nu1 = {(EMono((1, 0)), one): 1}
    nu2 = {(EMono((0, 1)), one): 1}
    y1 = {(R.unit_emono(), A.generator_monomial("y1")): 1}
    for f, g, h in itertools.product([nu1, nu2, y1], repeat=3):
        fg_h = cup_via_diagonal(R, cup_via_diagonal(R, f, g), h)
        f_gh = cup_via_diagonal(R, f, cup_via_diagonal(R, g, h))
        assert fg_h == f_gh


def test_dual_basis_product_rules():
    # gamma_k*(nu) products form a polynomial algebra: nu* . nu* = gamma_2*
    R = KTResolution(exterior(2, [5, 5]))
    A = R.algebra
    one = A.unit_monomial()
    nu1 = {(EMono((1, 0)), one): 1}
    sq = cup_via_diagonal(R, nu1, nu1)
    assert sq == {(EMono((2, 0)), one): 1}

    cube = cup_via_diagonal(R, sq, nu1)
    assert {e for e, _ in cube} == {EMono((3, 0))}

    # u* . u* = 0 in the relation-free polynomial case
    Rp = KTResolution(polynomial(3, [2, 2]))
    u1 = {(EMono((1, 0)), Rp.algebra.unit_monomial()): 1}
    assert cup_via_diagonal(Rp, u1, u1) == {}

    # unit coefficients pass through: (y1 (x) 1) . (1 (x) nu1*) = y1 (x) nu1*
    y1 = A.generator_monomial("y1")
    prod = cup_via_diagonal(R, {(R.unit_emono(), y1): 1}, nu1)
    assert prod == {(EMono((1, 0)), y1): 1}


def expected_exterior_ring_dims(degs, window):
    """Independent closed-form enumeration of /\\(y) (x) K[nu*] cells."""
    dims = {}
    l = len(degs)
    max_e = window.max_p
    for mask in range(1 << l):
        base_q = sum(d for i, d in enumerate(degs) if (mask >> i) & 1)
        for exps in itertools.product(range(max_e + 1), repeat=l):
            p = sum(exps)
            if p > window.max_p:
                continue
            q = base_q - sum(e * d for e, d in zip(exps, degs))
            if window.q_min <= q <= window.q_max:
                dims[(p, q)] = dims.get((p, q), 0) + 1
    return dims


def expected_poly_ring_dims(degs, window):
    """K[x] (x) /\\(u*) cells with bideg u_j* = (1, -deg x_j)."""
    dims = {}
    n = len(degs)
    q_hi = window.q_max + sum(degs)
    for mask in range(1 << n):
        p = bin(mask).count("1")
        if p > window.max_p:
            continue
        drop = sum(d for j, d in enumerate(degs) if (mask >> j) & 1)
        # enumerate monomials x^a with bounded degree
        def rec(j, deg_acc):
            if j == n:
                q = deg_acc - drop
                if window.q_min <= q <= window.q_max:
                    dims[(p, q)] = dims.get((p, q), 0) + 1
                return
            e = 0
            while deg_acc + e * degs[j] <= q_hi:
                rec(j + 1, deg_acc + e * degs[j])
                e += 1
        rec(0, 0)
    return dims


def ring_dims(ring):
    return {pq: len(labels) for pq, labels in ring.cells.items() if labels}


def test_hh_via_kt_exterior_char2():
    window = DegreeWindow(4, -24, 12)
    ring = hh_via_kt(two_spheres_deg5(), window)
    assert ring.differential_vanishes
    assert ring_dims(ring) == expected_exterior_ring_dims([5, 5], window)


def test_hh_via_kt_exterior_odd():
    window = DegreeWindow(4, -16, 6)
    ring = hh_via_kt(exterior(3, [3]), window)
    assert ring_dims(ring) == expected_exterior_ring_dims([3], window)


def test_hh_via_kt_polynomial():
    window = DegreeWindow(4, -24, 24)
    for p, degs in [(2, [2]), (3, [2]), (5, [4]), (2, [2, 2]), (3, [4, 4])]:
        ring = hh_via_kt(polynomial(p, degs), window)
        assert ring_dims(ring) == expected_poly_ring_dims(degs, window), \
            (p, degs)


def test_hh_via_kt_truncated_char2():
    # F_2[x]/(x^2), deg 4: zero differential, cells A (x) /\\(u*) (x) K[w*]
    window = DegreeWindow(5, -40, 8)
    ring = hh_via_kt(truncated_poly_char2(), window)
    assert ring.differential_vanishes
    expected = {}
    for a in (0, 4):            # 1, x
        for eps in (0, 1):      # u*
            for f in range(6):  # w*^f
                p = eps + 2 * f
                q = a - 4 * eps - 8 * f
                if window.contains(p, q):
                    expected[(p, q)] = expected.get((p, q), 0) + 1
    assert ring_dims(ring) == expected


TWO_RELATION_INPUTS = [
    (2, ["x1^2 + x1*x2", "x2^2"]),
    (3, ["x1^2 + x1*x2 + x2^2", "x1*x2"]),
]


@st.composite
def _pure_power_presentations(draw):
    """Up to two degree-2 polynomial generators over F_2, F_3 or F_5, each
    truncated at a power that p divides or not, with up to two exterior
    generators of degree 3 or 5."""
    p = draw(st.sampled_from([2, 3, 5]))
    powers = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6]), max_size=2))
    gens = [GradedGenerator(f"x{j+1}", 2, "polynomial")
            for j in range(len(powers))]
    ext_degrees = draw(st.lists(st.sampled_from([3, 5]), max_size=2))
    gens += [GradedGenerator(f"y{i+1}", d, "exterior")
             for i, d in enumerate(ext_degrees)]
    return AlgebraPresentation(PrimeField(p), gens,
                               [f"x{j+1}^{n}" for j, n in enumerate(powers)])


@given(st.one_of(
           _pure_power_presentations(),
           st.sampled_from(TWO_RELATION_INPUTS).map(
               lambda case: polynomial(case[0], [2, 2], case[1]))),
       st.integers(0, 3), st.integers(-14, 3), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
# 2x != 0 in F_3[x]/(x^2), but 2x a = 0 on every monomial a of this window
@example(polynomial(3, [2], ["x1^2"]), 2, -1, 7)
def test_differential_decision_matches_the_matrices(presentation, max_p,
                                                    q_min, width):
    """The decision and every matrix of the Hom differential agree with the
    term-by-term assembly, which skips no alpha."""
    ring = hh_via_kt(presentation, DegreeWindow(max_p, q_min, q_min + width))
    reference = hom_matrices_by_terms(ring)
    assert ring.differential_vanishes == \
        (not any(M.nnz() for M in reference.values()))
    for (p, q), M in reference.items():
        N = ring.matrix(p, q)
        assert (N.rows, N.cols, N.entries) == (M.rows, M.cols, M.entries), \
            (p, q)


@st.composite
def _slot_presentations(draw):
    """F_2, F_3 or F_5 with an exterior generator of degree 1, maybe a
    second one of degree 1 or 3, one or two polynomial generators of
    degree 2 and one relation."""
    p = draw(st.sampled_from([2, 3, 5]))
    ext_degrees = [1] + draw(st.lists(st.sampled_from([1, 3]), max_size=1))
    n_poly = draw(st.integers(1, 2))
    relations = ["x1^2", "x1^3", "x1^4"]
    if n_poly == 2:
        relations += ["x1^2 + x1*x2", "x1*x2", "x2^3"]
    gens = [GradedGenerator(f"y{i+1}", d, "exterior")
            for i, d in enumerate(ext_degrees)]
    gens += [GradedGenerator(f"x{j+1}", 2, "polynomial")
             for j in range(n_poly)]
    return AlgebraPresentation(PrimeField(p), gens,
                               [draw(st.sampled_from(relations))])


def _draw_slots(draw, R, kinds):
    """A monomial drawn by draw, with an algebra slot for each "a" in kinds
    and an E-slot for each "e"."""
    A = R.algebra
    monomials = [m for d in range(4) for m in A.monomial_basis(d)]
    # mostly small exponents, so that most products of three are nonzero
    exponent = st.sampled_from([0, 0, 1, 2])
    slots = []
    for kind in kinds:
        if kind == "a":
            slots.append(draw(st.one_of(st.just(A.unit_monomial()),
                                        st.sampled_from(monomials))))
        else:
            slots.append(EMono(
                draw(exponent) if g.divided else int(draw(exponent) == 1)
                for g in R.e_generators))
    return tuple(slots)


@given(_slot_presentations(), st.data())
@settings(max_examples=150, deadline=None)
def test_slot_product_is_associative_and_graded_commutative(presentation,
                                                            data):
    """The one slot-wise product, on monomials of F and of F (x)_Lambda F,
    is associative, and m n = (-1)^(|m||n|) n m in total degree."""
    R = KTResolution(presentation)
    A = R.algebra

    def total_degree(m):
        return sum(R.e_total(s) if type(s) is EMono else A.mono_degree(s)
                   for s in m)
    for kinds, element in (("aae", KTElement), ("aaeae", KTTensorElement)):
        monos = [_draw_slots(data.draw, R, kinds) for _ in range(3)]
        x, y, z = (element(R, {m: 1}) for m in monos)
        assert (x * y) * z == x * (y * z), monos
        odd = total_degree(monos[0]) * total_degree(monos[1]) % 2
        assert x * y == (y * x).scale(-1 if odd else 1), monos


def test_hh_via_kt_truncated_odd_homology_path():
    # F_3[x]/(x^2), deg 2: derivative 2x is nonzero, so the Hom complex has
    # a genuine differential; classical dims are 1 per cohomological level
    window = DegreeWindow(4, -12, 2)
    ring = hh_via_kt(polynomial(3, [2], ["x1^2"]), window)
    assert not ring.differential_vanishes
    dims = ring_dims(ring)
    # level 0: the center = A itself (degrees 0 and 2)
    assert dims[(0, 0)] == 1 and dims[(0, 2)] == 1
    # levels >= 1: one class per level, in the internal degree forced by
    # the periodic resolution (odd level: deg -2(level+1)/1..); check total
    # dimension one per level
    for p in range(1, 5):
        level_dims = {q: d for (pp, q), d in dims.items() if pp == p}
        assert sum(level_dims.values()) == 1, (p, level_dims)


def test_truncated_odd_ring_products():
    """F_3[x]/(x^2): products in the homology-path ring match the classical
    answer: the degree-2 class annihilates every positive level, the odd
    generator squares to zero, the even generator is free."""
    window = DegreeWindow(4, -12, 2)
    ring = hh_via_kt(polynomial(3, [2], ["x1^2"]), window)
    by_cell = {pq: labels[0] for pq, labels in ring.cells.items() if labels}
    one, x = by_cell[(0, 0)], by_cell[(0, 2)]
    u, w = by_cell[(1, 0)], by_cell[(2, -4)]
    uw, w2 = by_cell[(3, -4)], by_cell[(4, -8)]
    assert ring.product(one, u) == {u: 1}
    for lbl in (u, w, uw, w2):
        assert ring.product(x, lbl) == {}
    assert ring.product(u, u) == {}
    assert ring.product(u, w) == {uw: 1}
    assert ring.product(w, w) == {w2: 1}
    assert ring.product(u, uw) == {}


def test_truncated_cup_u_square_is_w():
    # with the relation x^2 the corrected diagonal gives u* . u* = w*
    R = KTResolution(truncated_poly_char2())
    one = R.algebra.unit_monomial()
    u = {(EMono((1, 0)), one): 1}
    assert cup_via_diagonal(R, u, u) == {(EMono((0, 1)), one): 1}


def test_xi_pins_and_chain_map():
    A = two_spheres_deg5()
    R = KTResolution(A)
    xi = XiLift(R, DegreeWindow(4, -20, 10))
    y1 = A.generator_monomial("y1")
    y2 = A.generator_monomial("y2")
    assert xi.value((y1,)) == elem(R, (1, 0))
    assert xi.value((y1, y1)) == elem(R, (2, 0))
    both = xi.value((y1, y2)) + xi.value((y2, y1))
    assert both == elem(R, (1, 1))
    # chain map on every word of length <= 3
    abar = A.monomial_basis(5) + A.monomial_basis(10)
    words = []
    for k in (1, 2, 3):
        words += list(itertools.product(abar, repeat=k))
    for w in words:
        lhs = xi.value(w).d()
        rhs = xi.rhs(w)
        assert lhs == rhs, w


def test_xi_chain_map_odd_char():
    A = exterior(3, [3])
    R = KTResolution(A)
    xi = XiLift(R, DegreeWindow(4, -20, 10))
    y = A.generator_monomial("y1")
    assert xi.value((y,)) == elem(R, (1,))
    for k in (2, 3, 4):
        w = (y,) * k
        assert xi.value(w).d() == xi.rhs(w)



def test_xi_lifts_to_the_window_bar_length_and_at_least_4():
    R = KTResolution(exterior(3, [3]))
    y = R.algebra.generator_monomial("y1")
    assert XiLift(R, DegreeWindow(2, -20, 10)).depth == 4
    xi = XiLift(R, DegreeWindow(5, -20, 10))
    assert xi.depth == 5
    assert xi.value((y,) * 5).d() == xi.rhs((y,) * 5)
    with pytest.raises(ValueError, match="beyond lifting depth 5"):
        xi.value((y,) * 6)


@pytest.mark.parametrize("A, window", [
    (polynomial(2, [2]), DegreeWindow(3, -8, 6)),
    (polynomial(3, [2]), DegreeWindow(3, -8, 6)),
    (polynomial(2, [2, 2], ["x1^2 + x1*x2"]), DegreeWindow(2, -6, 4)),
    (exterior_times_truncated_f3(), DegreeWindow(3, -10, 4)),
], ids=["poly1_f2", "poly1_f3", "homology_path_f2", "mixed_f3"])
def test_the_comparison_map_needs_no_poincare_duality(A, window):
    """T carries the classes of every ring cell to a basis of the bar-side
    cohomology of the cell, on infinite-dimensional algebras (the
    monomial model and the homology path) as on a finite one."""
    R = KTResolution(A)
    ring = KTRing(R, window)
    xi = XiLift(R, window)
    assert sum(map(len, ring.cells.values()))
    for (p, q), labels in ring.cells.items():
        cols = [xi.bar.express(p, q,
                               xi.cochain(ring.class_reps[lbl], p, q).terms)
                for lbl in labels]
        assert None not in cols, (p, q)
        dim = xi.bar.homology_dim(p, q)
        assert len(labels) == dim, (p, q)
        assert rank(SparseMatrix.from_columns(dim, cols, A.field)) == dim


def test_phi_values():
    A = two_spheres_deg5()
    R = KTResolution(A)
    xi = XiLift(R, DegreeWindow(4, -20, 10))
    y1 = A.generator_monomial("y1")
    y2 = A.generator_monomial("y2")
    unit = A.unit_monomial()
    # phi(y1 [y2]) = y1 (x) nu_2
    out = phi({(y1, (y2,)): 1}, R, xi)
    assert out == {(y1, EMono((0, 1))): 1}
    # phi([y1|y1]) = gamma_2(nu_1)
    out = phi({(unit, (y1, y1)): 1}, R, xi)
    assert out == {(unit, EMono((2, 0))): 1}
    # phi of a boundary is zero: b(1[y1|y2]) = y1[y2] + 1[y1 y2] + y2[y1]
    y12 = A.monomial_basis(10)[0]
    out = phi({(y1, (y2,)): 1, (unit, (y12,)): 1, (y2, (y1,)): 1}, R, xi)
    assert out == {}


def test_phi_rejects_non_cycles():
    A = two_spheres_deg5()
    R = KTResolution(A)
    xi = XiLift(R, DegreeWindow(4, -20, 10))
    y1 = A.generator_monomial("y1")
    y2 = A.generator_monomial("y2")
    unit = A.unit_monomial()
    with pytest.raises(NotACycleError):
        phi({(unit, (y1, y2)): 1}, R, xi)


def _evaluate(A, f, degree, left, right, e):
    """f((left (x) right) . e) = (-1)^((|left| + |right|) |f|) left right
    f(e), as a Polynomial, for a cochain f of the given degree held as
    terms {(e, a): coeff}."""
    value = Polynomial(A, {a: c for (e_f, a), c in f.items() if e_f == e})
    lr = Polynomial(A, dict(A.mul_monomials(left, right)))
    odd = (A.mono_degree(left) + A.mono_degree(right)) * degree % 2
    return (lr * value).scale(-1 if odd else 1)


def _direct_cup(fresh, diagonals, f, f_degree, g, g_degree, alphas):
    """(f (x) g)(D alpha) evaluated on every term of diagonal_mono, called
    uncached on a resolution of its own (once per alpha: diagonals keeps
    the results), as terms {(alpha, monomial): coeff}."""
    A = fresh.algebra
    one = A.unit_monomial()
    values = {}
    for alpha in alphas:
        if alpha not in diagonals:
            diagonals[alpha] = diagonal_mono(fresh, (one, one, alpha))
        total = A.zero()
        for (lamL, lamM, a_e, lamR, b_e), c in diagonals[alpha].terms.items():
            left_total = (A.mono_degree(lamL) + A.mono_degree(lamM)
                          + fresh.e_total(a_e))
            sign = -1 if (g_degree * left_total) % 2 else 1
            total = total + (_evaluate(A, f, f_degree, lamL, lamM, a_e)
                             * _evaluate(A, g, g_degree, one, lamR, b_e)
                             ).scale(sign * c)
        for m, c in total.terms.items():
            values[(alpha, m)] = c
    return values


def _mixed_f3():
    """/\\(y1) (x) F_3[x1]/(x1^3), |y1| = 3, |x1| = 2."""
    from hhkt.algebra import AlgebraPresentation, GradedGenerator
    from hhkt.fields import PrimeField, SparseMatrix, rank
    return AlgebraPresentation(
        PrimeField(3), [GradedGenerator("y1", 3, "exterior"),
                        GradedGenerator("x1", 2, "polynomial")], ["x1^3"])


# name: (presentation, window, whether some diagonal term has a lambda != 1)
CUP_CASES = {
    "exterior_monomial_model": (lambda: exterior(2, [3, 3]),
                                DegreeWindow(3, -12, 6), False),
    "relation_homology_path": (
        lambda: polynomial(2, [2, 2], ["x1^2 + x1*x2"]),
        DegreeWindow(2, -6, 6), False),
    "odd_characteristic": (_mixed_f3, DegreeWindow(2, -10, 10), True),
    # trunc_x2_deg4_char2: w generators, but the x^2 diagonal correction
    # is u (x) u, so every lambda is 1
    "truncated_w_generators": (truncated_poly_char2,
                               DegreeWindow(5, -24, 6), False),
    "quartic_w_generators": (lambda: polynomial(2, [2], ["x1^4"]),
                             DegreeWindow(4, -12, 6), True),
}


@pytest.mark.parametrize("case", sorted(CUP_CASES))
def test_cached_cup_matches_direct_evaluation(case):
    """On every ordered pair of basis classes, the table-driven product
    equals (f (x) g)(D alpha) computed from an uncached diagonal."""
    build, window, lambdas = CUP_CASES[case]
    A = build()
    ring = hh_via_kt(A, window)
    fresh = KTResolution(A)
    diagonals = {}
    labels = [lbl for _, lbls in sorted(ring.cells.items()) for lbl in lbls]
    nonzero = 0
    for la, lb in itertools.product(labels, repeat=2):
        (pa, qa), (pb, qb) = ring.bidegree(la), ring.bidegree(lb)
        p, q = pa + pb, qa + qb
        f, g = ring.class_reps[la], ring.class_reps[lb]
        ref = _direct_cup(fresh, diagonals, f, pa + qa, g, pb + qb,
                          emonos_at_level(fresh, p))
        assert cup_via_diagonal(ring.R, f, g) == ref, (la, lb)
        if ring.differential_vanishes:
            expected = {("m", alpha, m): c for (alpha, m), c in ref.items()}
        elif window.contains(p, q):
            expected = ring._express(ref, p, q)
        else:
            continue
        assert ring.product(la, lb) == expected, (la, lb)
        nonzero += bool(expected)
    assert nonzero >= 10
    one = A.unit_monomial()
    assert lambdas == any(
        (lamL, lamM, lamR) != (one, one, one)
        for diag in diagonals.values()
        for lamL, lamM, _, lamR, _ in diag.terms)


def _ext_trunc_f5():
    """/\\(y1) (x) F_5[x1]/(x1^5), |y1| = 3, |x1| = 2: the relation's
    derivative vanishes mod 5, so the model has a w generator."""
    return AlgebraPresentation(
        PrimeField(5), [GradedGenerator("y1", 3, "exterior"),
                        GradedGenerator("x1", 2, "polynomial")], ["x1^5"])


# name: (presentation, window); the last two take the homology path
STRUCTURE_CASES = {
    "exterior_f2": (lambda: exterior(2, [3, 3]), DegreeWindow(3, -12, 6)),
    "truncated_f2": (truncated_poly_char2, DegreeWindow(4, -20, 6)),
    "exterior_truncated_f3": (exterior_times_truncated_f3,
                              DegreeWindow(2, -10, 10)),
    "exterior_f5": (lambda: exterior(5, [3, 5]), DegreeWindow(2, -10, 8)),
    "exterior_truncated_f5": (_ext_trunc_f5, DegreeWindow(2, -12, 8)),
    "one_relation_homology_f2": (
        lambda: polynomial(2, [2, 2], ["x1^2 + x1*x2"]),
        DegreeWindow(2, -6, 6)),
    "two_relations_homology_f3": (
        lambda: polynomial(3, [2, 2], ["x1^2", "x2^2"]),
        DegreeWindow(2, -8, 4)),
}
_STRUCTURE_RINGS = {}


def _structure_ring(case):
    ring = _STRUCTURE_RINGS.get(case)
    if ring is None:
        build, window = STRUCTURE_CASES[case]
        ring = _STRUCTURE_RINGS[case] = hh_via_kt(build(), window)
    return ring


@given(st.sampled_from(sorted(STRUCTURE_CASES)), st.data())
@settings(max_examples=200, deadline=None)
def test_structure_constants_match_the_diagonal_terms(case, data):
    """The cup product read from cup_constants equals the term-by-term
    evaluation on the diagonal: on a class against every class of a cell
    (their product's bidegree inside the window or not), and on
    combinations of the classes of two cells; so does the product in the
    class basis."""
    ring = _structure_ring(case)
    assert ring.differential_vanishes == ("homology" not in case)
    R, p = ring.R, ring.algebra.field.p
    cells = [lbls for _, lbls in sorted(ring.cells.items()) if lbls]

    def combination():
        lbls = data.draw(st.sampled_from(cells))
        terms = {}
        for lbl in data.draw(st.lists(st.sampled_from(lbls), min_size=1,
                                      max_size=3, unique=True)):
            c = data.draw(st.integers(1, p - 1))
            for key, v in ring.class_reps[lbl].items():
                terms[key] = (terms.get(key, 0) + c * v) % p
        return {key: v for key, v in terms.items() if v}

    f, g = combination(), combination()
    assert cup_via_diagonal(R, f, g) == cup_by_diagonal_terms(R, f, g)
    la = data.draw(st.sampled_from(data.draw(st.sampled_from(cells))))
    pa, qa = ring.bidegree(la)
    for lb in data.draw(st.sampled_from(cells)):
        f, g = ring.class_reps[la], ring.class_reps[lb]
        ref = cup_by_diagonal_terms(R, f, g)
        assert cup_via_diagonal(R, f, g) == ref, (la, lb)
        pb, qb = ring.bidegree(lb)
        if ring.differential_vanishes:
            expected = {("m", alpha, m): c for (alpha, m), c in ref.items()}
        elif ring.window.contains(pa + pb, qa + qb):
            expected = ring._express(ref, pa + pb, qa + qb)
        else:
            continue
        assert ring.product(la, lb) == expected, (la, lb)


@pytest.mark.parametrize("lam_odd, right_odd, lamR_odd",
                         itertools.product((0, 1), repeat=3))
def test_cup_constants_signs_on_a_hand_made_entry(lam_odd, right_odd,
                                                  lamR_odd):
    """The signs (-1)^(|lamL lamM| f), (-1)^((|lamR| + |left slot|) g) and
    (-1)^(|a| |lamR|) of cup_constants, for every parity of a, b and the
    factor e1, on a hand-made _cup_table entry.  No accepted input shows
    an odd lambda in odd characteristic (there every lambda comes from a w
    correction over even polynomial generators), so the diagonal cannot
    pin the first and the last sign."""
    R = KTResolution(exterior_times_truncated_f3())
    one = R.unit_emono()
    u = EMono((0, 1, 0))  # |u_x1*| total degree 1
    alpha = EMono((1, 0, 0))
    lam = R.algebra.monomial_basis(3)[0]
    for e1 in (one, u):
        R._cup_tables[R.e_level(e1)] = {(e1, one): [
            (alpha, [(lam, 1)], 1, lam_odd, right_odd, lamR_odd)]}
        for a_odd, b_odd in itertools.product((0, 1), repeat=2):
            f = (a_odd + R.e_total(e1)) % 2
            sign = (-1) ** (lam_odd * f + right_odd * b_odd
                            + a_odd * lamR_odd)
            assert cup_constants(R, e1, one, a_odd, b_odd) == \
                [(alpha, ((lam, sign % 3),))], (e1, a_odd, b_odd)


def _count_calls(monkeypatch, names):
    """{name: list of the monomials each koszul_tate function is called on}."""
    import hhkt.koszul_tate as kt
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(kt, name)

        def counting(R, m, real=real, seen=calls[name]):
            seen.append(m)
            return real(R, m)
        monkeypatch.setattr(kt, name, counting)
    return calls


def test_product_table_computes_each_alpha_once(monkeypatch):
    """Building the /\\(y1,y2,y3) ring and its product table evaluates the
    diagonal and the differential at most once per E-monomial alpha.  With
    no w symbol the differential is never needed, since d(alpha) cancels
    in the Hom complex."""
    from hhkt.cli import product_table_from_ring
    calls = _count_calls(monkeypatch, ("diagonal_mono", "kt_d_mono"))
    ring = hh_via_kt(exterior(2, [5, 5, 5]), DegreeWindow(3, -15, 15))
    rows = product_table_from_ring(ring)
    assert len(rows) > 100
    assert calls["diagonal_mono"]
    for name, seen in calls.items():
        assert len(seen) == len(set(seen)), name


def test_a_relation_needs_the_differential(monkeypatch):
    """With a relation, the ring and its product table evaluate the
    diagonal and the differential."""
    from hhkt.cli import product_table_from_ring
    calls = _count_calls(monkeypatch, ("diagonal_mono", "kt_d_mono"))
    ring = hh_via_kt(truncated_poly_char2(), DegreeWindow(3, -16, 8))
    assert product_table_from_ring(ring)
    for name, seen in calls.items():
        assert seen, name


# name: (presentation, window); the first two take the monomial model, the
# last the homology path
BATCH_CASES = {
    "exterior_deg3_char2": (lambda: exterior(2, [3, 3]),
                            DegreeWindow(2, -6, 6)),
    "odd_characteristic": (_mixed_f3, DegreeWindow(2, -10, 10)),
    "relation_homology_path": (
        lambda: polynomial(2, [2, 2], ["x1^2 + x1*x2"]),
        DegreeWindow(2, -6, 6)),
}


def _in_window_runs(ring):
    """(la, run) for every label la and every cell whose summed bidegree
    with la's lies in the window: the whole cell, each of its suffixes as
    the product table takes them, and the cells of la's partners joined
    into one run."""
    cells = [(pq, lbls) for pq, lbls in sorted(ring.cells.items()) if lbls]
    for _pq, lbls_a in cells:
        for la in lbls_a:
            pa, qa = ring.bidegree(la)
            joined = []
            for (pb, qb), lbls_b in cells:
                if ring.window.contains(pa + pb, qa + qb):
                    joined += lbls_b
                    for k in range(len(lbls_b)):
                        yield la, lbls_b[k:]
            yield la, joined


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_products_equal_products_pair_by_pair(case):
    build, window = BATCH_CASES[case]
    ring = hh_via_kt(build(), window)
    assert ring.differential_vanishes == (case != "relation_homology_path")
    runs = nonzero = 0
    for la, run in _in_window_runs(ring):
        batch = []
        for block, values in ring.product_blocks(la, run):
            batch += [{}] * len(block) if values is None else values
        assert batch == [ring.product(la, lb) for lb in run], (la, run)
        runs += 1
        nonzero += sum(map(bool, batch))
    assert runs > 10 and nonzero > 10


def _outside_label(ring):
    """A class label whose bidegree lies beyond the window's filtration."""
    p = ring.window.max_p + 1
    if not ring.differential_vanishes:
        return ("h", p, 0, 0)
    R = ring.R
    assert R.l, "the monomial-model cases here have an exterior generator"
    e = R.emono({0: p})
    return ("m", e, ring.algebra.unit_monomial())


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
@pytest.mark.parametrize("where", ["first", "middle", "last", "class"])
def test_batched_products_check_every_label(case, where):
    """A label outside the window anywhere in the run, or as the class
    itself, raises the WindowError product raises for that label."""
    build, window = BATCH_CASES[case]
    ring = hh_via_kt(build(), window)
    bad = _outside_label(ring)
    assert bad not in ring.class_reps
    la, run = max(_in_window_runs(ring), key=lambda lr: len(lr[1]))
    assert len(run) >= 2
    run = list(run)
    if where == "class":
        with pytest.raises(WindowError) as single:
            ring.product(bad, run[0])
        la = bad
    else:
        with pytest.raises(WindowError) as single:
            ring.product(la, bad)
        run.insert({"first": 0, "middle": len(run) // 2,
                    "last": len(run)}[where], bad)
    with pytest.raises(WindowError) as batch:
        ring.product_blocks(la, run)
    assert str(batch.value) == str(single.value)
    assert "lies outside the window" in str(batch.value)
