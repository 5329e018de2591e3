import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hhkt.algebra import (AlgebraPresentation, GradedGenerator, Monomial,
                          Polynomial, PresentationError, parse_poly_expr,
                          parse_presentation, validate_regular_sequence,
                          zeta_coefficients)
from hhkt.cli import regularity_gate
from hhkt.fields import PrimeField


def ext(p, degs):
    return AlgebraPresentation(
        PrimeField(p),
        [GradedGenerator(f"y{i+1}", d, "exterior") for i, d in enumerate(degs)])


def poly(p, degs, rels=()):
    return AlgebraPresentation(
        PrimeField(p),
        [GradedGenerator(f"x{i+1}", d, "polynomial")
         for i, d in enumerate(degs)], rels)


def test_parse_presentation_shapes():
    A = parse_presentation({
        "characteristic": 2,
        "generators": [{"name": "y1", "degree": 5, "kind": "exterior"},
                       {"name": "y2", "degree": 5, "kind": "exterior"}],
        "relations": [],
    })
    assert A.n_ext == 2 and A.n_poly == 0

    B = parse_presentation({
        "characteristic": 3,
        "generators": [{"name": "x", "degree": 2, "kind": "polynomial"}],
    })
    assert B.n_poly == 1

    C = parse_presentation({
        "characteristic": 2,
        "generators": [{"name": "x", "degree": 4, "kind": "polynomial"}],
        "relations": ["x^2"],
    })
    assert len(C.relations) == 1
    assert C.top_degree_bound() == 4


def test_parse_errors():
    with pytest.raises(Exception):
        parse_presentation({"characteristic": 4, "generators": []})
    with pytest.raises(PresentationError):
        # parity violation for odd p
        parse_presentation({
            "characteristic": 3,
            "generators": [{"name": "x", "degree": 3, "kind": "polynomial"}]})
    with pytest.raises(PresentationError):
        # linear term in a relation
        parse_presentation({
            "characteristic": 2,
            "generators": [{"name": "x", "degree": 2, "kind": "polynomial"}],
            "relations": ["x"]})
    with pytest.raises(PresentationError):
        parse_presentation({
            "characteristic": 2,
            "generators": [{"name": "x", "degree": 2, "kind": "polynomial"}],
            "relations": ["z^2"]})
    with pytest.raises(PresentationError):
        # relations must avoid exterior generators
        parse_presentation({
            "characteristic": 2,
            "generators": [{"name": "y", "degree": 3, "kind": "exterior"},
                           {"name": "x", "degree": 2, "kind": "polynomial"}],
            "relations": ["y*x"]})


def test_monomial_basis_examples():
    A = ext(2, [5, 5])
    assert [A.label_monomial(m) for m in A.monomial_basis(10)] == ["y1*y2"]
    B = poly(2, [2])
    assert [B.label_monomial(m) for m in B.monomial_basis(6)] == ["x1^3"]
    C = poly(2, [4], ["x1^2"])
    assert C.monomial_basis(8) == []


def test_multiply_examples():
    A = ext(3, [5, 5])
    y1, y2 = A.generator_poly("y1"), A.generator_poly("y2")
    y12 = y1 * y2
    assert A.label_poly(y12) == "y1*y2"
    assert (y2 * y1 + y12).is_zero()  # y2 y1 = -y1 y2
    assert (y1 * y1).is_zero()
    B = poly(3, [2], ["x1^3"])
    x2 = B.generator_poly("x1") * B.generator_poly("x1")
    assert (x2 * x2).is_zero()


def test_multiply_char2_exterior_commutes():
    A = ext(2, [4, 6])  # even-degree square-zero generators, char 2 only
    y1, y2 = A.generator_poly("y1"), A.generator_poly("y2")
    assert y1 * y2 == y2 * y1
    assert (y1 * y1).is_zero()


@given(st.sampled_from([2, 3, 5]), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_multiply_associative_unital(p, rng):
    degs = [2 * rng.randrange(1, 3) for _ in range(2)]
    A = AlgebraPresentation(
        PrimeField(p),
        [GradedGenerator("y1", 2 * rng.randrange(1, 3) + 1, "exterior"),
         GradedGenerator("x1", degs[0], "polynomial"),
         GradedGenerator("x2", degs[1], "polynomial")])

    def random_homog(deg):
        basis = A.monomial_basis(deg)
        return Polynomial(A, {m: rng.randrange(0, p) for m in basis})

    for _ in range(4):
        a = random_homog(rng.randrange(1, 7))
        b = random_homog(rng.randrange(1, 7))
        c = random_homog(rng.randrange(1, 7))
        assert (a * b) * c == a * (b * c)
        assert A.one() * a == a
        da, db = a.degree() if not a.is_zero() else 0, \
            b.degree() if not b.is_zero() else 0
        sign = -1 if (da or 0) % 2 and (db or 0) % 2 else 1
        assert a * b == (b * a).scale(sign)


def test_hilbert_series_agreement():
    A = AlgebraPresentation(
        PrimeField(2),
        [GradedGenerator("y1", 3, "exterior"),
         GradedGenerator("x1", 2, "polynomial")],
        ["x1^3"])
    # closed form: (1 + t^3)(1 + t^2 + t^4)
    expected = {0: 1, 2: 1, 3: 1, 4: 1, 5: 1, 7: 1}
    for d in range(9):
        assert A.dim_in_degree(d) == expected.get(d, 0)


def _tensor_mul(A, t1, t2):
    """Product in Lambda (x) Lambda of {(left, right): coeff} dicts, with
    the Koszul sign (-1)^{|r1||l2|}."""
    out = {}
    for (l1, r1), c1 in t1.items():
        for (l2, r2), c2 in t2.items():
            sign = -1 if A.mono_degree(r1) * A.mono_degree(l2) % 2 else 1
            for ml, cl in A.mul_monomials(l1, l2):
                for mr, cr in A.mul_monomials(r1, r2):
                    out[(ml, mr)] = out.get((ml, mr), 0) + sign * c1 * c2 \
                        * cl * cr
    return {k: c % A.field.p for k, c in out.items() if c % A.field.p}


def _telescope_sides(rho, zetas):
    """rho(x)1 - 1(x)rho, and sum zeta_j (x_j(x)1 - 1(x)x_j) expanded
    directly."""
    A = rho.algebra
    one = A.unit_monomial()
    p = A.field.p
    lhs = {}
    for m, c in rho.terms.items():
        lhs[(m, one)] = lhs.get((m, one), 0) + c
        lhs[(one, m)] = lhs.get((one, m), 0) - c
    acc = {}
    for j, z in enumerate(zetas):
        xj = A.generator_monomial(A.generators[A.poly_index[j]].name)
        for k, c in _tensor_mul(A, z, {(xj, one): 1, (one, xj): -1}).items():
            acc[k] = acc.get(k, 0) + c
    return ({k: c % p for k, c in lhs.items() if c % p},
            {k: c % p for k, c in acc.items() if c % p})


def _multiplied_out(A, zeta):
    out = A.zero()
    for (left, right), c in zeta.items():
        out = out + Polynomial(A, dict(A.mul_monomials(left, right))).scale(c)
    return out


def _derivative(rho, j):
    """Formal d rho / d x_j, for the j-th polynomial generator."""
    out = {}
    for m, c in rho.terms.items():
        if m.exps[j]:
            exps = m.exps[:j] + (m.exps[j] - 1,) + m.exps[j + 1:]
            out[Monomial(0, exps)] = c * m.exps[j]
    return Polynomial(rho.algebra, out)


def test_zeta_examples():
    # rho = x1 x2
    A = poly(2, [2, 2])
    x1, x2 = A.generator_poly("x1"), A.generator_poly("x2")
    rho = x1 * x2
    z = zeta_coefficients(rho)
    assert z[0] == {(A.unit_monomial(), A.generator_monomial("x2")): 1}
    assert z[1] == {(A.generator_monomial("x1"), A.unit_monomial()): 1}
    lhs, rhs = _telescope_sides(rho, z)
    assert lhs == rhs

    # rho = x^2 over F_2
    B = poly(2, [2])
    xb = B.generator_poly("x1")
    zb = zeta_coefficients(xb * xb)
    xm = B.generator_monomial("x1")
    assert zb[0] == {(xm, B.unit_monomial()): 1, (B.unit_monomial(), xm): 1}
    assert _multiplied_out(B, zb[0]).is_zero()

    # rho = x^3 over F_3
    C = poly(3, [2])
    xc = C.generator_poly("x1")
    zc = zeta_coefficients(xc * xc * xc)
    xm = C.generator_monomial("x1")
    x2m = Monomial(0, (2,))
    assert zc[0] == {(x2m, C.unit_monomial()): 1, (xm, xm): 1,
                     (C.unit_monomial(), x2m): 1}
    assert _multiplied_out(C, zc[0]).is_zero()


def test_zeta_is_pushed_down_to_the_quotient():
    """F_3[x1,x2]/(x1^2, x1^3 + x2^3), |x| = 2: the (x1^2, 1) and
    (1, x1^2) terms of zeta_1 of the second relation vanish there."""
    A = poly(3, [2, 2], ["x1^2", "x1^3 + x2^3"])
    one = A.unit_monomial()
    x1 = A.generator_monomial("x1")
    x2 = A.generator_monomial("x2")
    x2sq = Monomial(0, (0, 2))
    assert zeta_coefficients(A.relations[1]) == [
        {(x1, x1): 1},
        {(one, x2sq): 1, (x2, x2): 1, (x2sq, one): 1}]
    assert zeta_coefficients(A.relations[0]) == [{(x1, one): 1,
                                                  (one, x1): 1}, {}]


@given(st.sampled_from([2, 3, 5]), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_zeta_conditions_random(p, rng):
    degs = [2, 2, 4][:rng.randrange(1, 4)]
    A = poly(p, degs)
    deg = 2 * rng.randrange(2, 5)
    basis = [m for m in A.monomial_basis(deg) if sum(m.exps) >= 2]
    if not basis:
        return
    rho = Polynomial(A, {m: rng.randrange(0, p) for m in basis})
    if rho.is_zero():
        return
    zetas = zeta_coefficients(rho)  # raises on any verification failure
    lhs, rhs = _telescope_sides(rho, zetas)
    assert lhs == rhs
    for j, z in enumerate(zetas):
        assert _multiplied_out(A, z) == _derivative(rho, j)


def test_regular_sequence_validation():
    A = poly(2, [2, 2], ["x1^2", "x2^2"])
    assert validate_regular_sequence(A, 20).ok
    B = poly(2, [2, 2], ["x1*x2", "x1^2*x2"])
    report = validate_regular_sequence(B, 20)
    assert not report.ok
    assert report.first_failing_degree is not None
    C = poly(2, [2, 2])
    assert validate_regular_sequence(C, 10).ok


@pytest.mark.parametrize("degs", [(), (2,), (3,), (2, 4), (4, 1),
                                  (3, 2, 1), (2, 6, 4)])
def test_free_poly_exponents_match_brute_force(degs):
    A = poly(2, list(degs))
    for degree in range(-3, 25):
        brute = sorted(
            e for e in itertools.product(*(range(max(degree, 0) // d + 1)
                                           for d in degs))
            if sum(x * d for x, d in zip(e, degs)) == degree)
        assert A._free_poly_exponents(degree) == brute, degree


def test_regularity_gate_visits_only_the_degrees_free_monomials_reach():
    """F_2[x1]/(x1^2), |x1| = 1000: the gate's bound is 4004, and only the
    degrees 0, 1000, ..., 4000 have free monomials."""
    A = poly(2, [1000], ["x1^2"])
    assert regularity_gate(A) == {
        "regular_sequence_checked_through_degree": 4004}
    assert sorted(A._nf_tables) == [0, 1000, 2000, 3000, 4000]


def test_regularity_gate_on_a_high_power_runs_its_full_bound():
    """F_2[x1]/(x1^3000), |x1| = 2: the gate checks every degree through
    2 * 6000 + 4, which used to take about 20 s."""
    A = poly(2, [2], ["x1^3000"])
    assert regularity_gate(A) == {
        "regular_sequence_checked_through_degree": 12004}


# a pure-power presentation over F_p: per variable its degree and its cap
# (None: uncapped), and the unit coefficient of each relation c*x_j^cap
PURE_POWERS = st.tuples(
    st.sampled_from([2, 3, 5]),
    st.lists(st.tuples(st.sampled_from([2, 4]),
                       st.none() | st.integers(2, 4)),
             min_size=1, max_size=3),
    st.integers(1, 4))


def _below_caps(degs, caps, degree):
    """The exponent vectors of one degree with every capped exponent below
    its cap, sorted."""
    ranges = [range(degree // d + 1) for d in degs]
    return sorted(e for e in itertools.product(*ranges)
                  if sum(k * d for k, d in zip(e, degs)) == degree
                  and all(cap is None or k < cap for k, cap in zip(e, caps)))


@given(PURE_POWERS)
@settings(max_examples=30, deadline=None)
def test_pure_power_quotient_truncates_at_the_caps(presentation):
    p, variables, c = presentation
    degs = [d for d, _ in variables]
    caps = [cap for _, cap in variables]
    A = poly(p, degs, [f"{c % p or 1}*x{j + 1}^{cap}"
                       for j, cap in enumerate(caps) if cap is not None])
    assert A.pure_powers
    top = 12
    for degree in range(-1, top + 1):
        assert A.poly_nf_basis(degree) == _below_caps(degs, caps, degree)
    basis = [Monomial(0, e) for degree in range(top + 1)
             for e in _below_caps(degs, caps, degree)]
    for m1, m2 in itertools.product(basis, repeat=2):
        exps = tuple(a + b for a, b in zip(m1.exps, m2.exps))
        below = all(cap is None or k < cap for k, cap in zip(exps, caps))
        assert A.mul_monomials(m1, m2) == \
            (((Monomial(0, exps), 1),) if below else ())


@pytest.mark.parametrize("relations", [
    ["x1^2 + x1*x2"], ["x1*x2"], ["x1^2", "x1^3"]])
def test_pure_powers_flag_is_off_for_other_relations(relations):
    assert poly(3, [2, 2], relations).pure_powers is False


def test_parse_poly_expr_forms():
    A = poly(5, [2, 2])
    q = parse_poly_expr(A, "2*x1^2 + 3*x1*x2 - x2^2")
    assert q.degree() == 4
    assert len(q.terms) == 3
    assert parse_poly_expr(A, "x1 - x1").is_zero()


def _memo_cases():
    """∧(y1,y2), |y|=3, over F_3 (Koszul signs); F_2[x1,x2]/(x1^2+x1x2)
    (a relation that is not a pure power); ∧(y1) (x) F_3[x1]/(x1^3)."""
    return {
        "ext2_deg3_p3": lambda: ext(3, [3, 3]),
        "poly2_rel_p2": lambda: poly(2, [2, 2], ["x1^2 + x1*x2"]),
        "ext1_trunc3_p3": lambda: AlgebraPresentation(
            PrimeField(3),
            [GradedGenerator("y1", 3, "exterior"),
             GradedGenerator("x1", 2, "polynomial")], ["x1^3"]),
    }


@pytest.mark.parametrize("name", sorted(_memo_cases()))
def test_memoized_products_and_degrees_match_a_fresh_presentation(name):
    make = _memo_cases()[name]
    warm, fresh = make(), make()
    basis = [m for d in range(9) for m in warm.monomial_basis(d)]
    for m1 in basis:
        for m2 in basis:
            warm.mul_monomials(m1, m2)
        warm.mono_degree(m1)
    for m1 in basis:
        assert warm.mono_degree(m1) == fresh.mono_degree(m1)
        for m2 in basis:
            assert warm.mul_monomials(m1, m2) == fresh.mul_monomials(m1, m2)


def test_products_reduce_after_relations_parsed_from_strings():
    # parsing a relation multiplies its factors in the free algebra first
    A = poly(2, [2], ["x1^2"])
    x1 = A.generator_monomial("x1")
    assert A.mul_monomials(x1, x1) == ()
    B = poly(2, [2, 2], ["x1^2 + x1*x2"])
    x1, x2 = B.generator_monomial("x1"), B.generator_monomial("x2")
    # x1*x2 reduces to x1^2 in characteristic 2
    assert B.mul_monomials(x1, x2) == B.mul_monomials(x1, x1) \
        == ((Monomial(0, (2, 0)), 1),)


def test_monomial_value_semantics():
    a, b = Monomial(1, (0, 2)), Monomial(1, (0, 2))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Monomial(2, (0, 2))
    assert repr(Monomial(1, (0,))) == "Monomial(mask=1, exps=(0,))"
    with pytest.raises(AttributeError):
        a.mask = 0
    A = ext(2, [3])
    assert A.unit_monomial() is A.unit_monomial()


def test_sort_key_orders_basis_by_exterior_bits_then_exponents():
    A = AlgebraPresentation(
        PrimeField(2),
        [GradedGenerator("y1", 3, "exterior"),
         GradedGenerator("y2", 3, "exterior"),
         GradedGenerator("x1", 2, "polynomial"),
         GradedGenerator("x2", 2, "polynomial")])
    assert [A.label_monomial(m) for m in A.monomial_basis(7)] == [
        "y2*x2^2", "y2*x1*x2", "y2*x1^2", "y1*x2^2", "y1*x1*x2", "y1*x1^2"]
