"""The invariant suite behind the `verify` command.

Every check is deterministic given the seed; sampled checks draw from a
seeded generator, exhaustive checks sweep window bases.  Checks report
pass/fail with a short counterexample witness on failure and never raise,
so one bad invariant cannot hide the others.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib

from .algebra import (AlgebraPresentation, GradedGenerator, Polynomial,
                      TensorPoly, partial_derivative,
                      validate_regular_sequence, zeta_coefficients)
from .bar import (COEFF_DUAL, COEFF_SELF, BarComplex, ChainElement, Cochain,
                  cochain_cup, connes_boundary, hochschild_b, oracle_report)
from .bigraded import DegreeWindow
from .bv import (BVContext, RingClass, generator_labels,
                 generator_monomial_labels, iota, pair_class, seven_term_sweep)
from .fields import (ComplexViolationError, PrimeField, SparseMatrix,
                     check_composite, cohomology_cell, rank, rref)
from .koszul_tate import (KTElement, KTResolution, XiLift,
                          cup_via_diagonal, diagonal_element, diagonal_mono,
                          exactness_check, hh_via_kt, lucas_binomial, EMono)


def _make(p, gens, rels=()):
    return AlgebraPresentation(
        PrimeField(p), [GradedGenerator(n, d, k) for (n, d, k) in gens], rels)


class _Corpus(dict):
    """The corpus algebras by name; cases adds _mixed_f3(), for the bar-side
    checks.  bar(name, coeff) builds the bar complex of a case in its
    oracle window once per corpus, so the d^2 check, the oracle comparison
    and the iota round trip of one run share its cells and matrices."""

    def __init__(self, algebras):
        super().__init__(algebras)
        self.cases = {**algebras, "ext1_trunc3_p3": _mixed_f3()}
        self._bars = {}

    def bar(self, name, coeff):
        key = (name, coeff)
        if key not in self._bars:
            self._bars[key] = BarComplex(self.cases[name], coeff,
                                         ORACLE_WINDOWS[name])
        return self._bars[key]


def _corpus():
    return _Corpus({
        "ext2_deg5": _make(2, [("y1", 5, "exterior"), ("y2", 5, "exterior")]),
        "ext2_deg3": _make(2, [("y1", 3, "exterior"), ("y2", 3, "exterior")]),
        "ext1_deg3_p3": _make(3, [("y1", 3, "exterior")]),
        "poly1_deg2": _make(2, [("x1", 2, "polynomial")]),
        "trunc_x2_p2": _make(2, [("x1", 4, "polynomial")], ["x1^2"]),
        "trunc_x2_p3": _make(3, [("x1", 2, "polynomial")], ["x1^2"]),
    })


# the window of each algebra of _Corpus.cases in which the oracle is compared
# with the resolution; the bar cells of the same windows are checked for
# d^2 = 0
ORACLE_WINDOWS = {
    "ext2_deg5": DegreeWindow(3, -16, 10),
    "ext2_deg3": DegreeWindow(3, -10, 6),
    "ext1_deg3_p3": DegreeWindow(4, -13, 4),
    "poly1_deg2": DegreeWindow(3, -8, 8),
    "trunc_x2_p2": DegreeWindow(4, -18, 6),
    "trunc_x2_p3": DegreeWindow(4, -10, 3),
    "ext1_trunc3_p3": DegreeWindow(3, -10, 4),
}


def _mixed_f3():
    """ext(y1) (x) F_3[x1]/(x1^3), |y1| = 3, |x1| = 2.  No corpus algebra
    mixes odd exterior and even polynomial generators in odd
    characteristic, the case where a wrong Koszul sign shows."""
    return _make(3, [("y1", 3, "exterior"), ("x1", 2, "polynomial")],
                 ["x1^3"])


def _words(A, max_len, cap):
    """Bar words of length 1..max_len and internal degree <= cap."""
    cells = BarComplex(A, COEFF_SELF, DegreeWindow(max_len, -cap, 0))
    return [w for k in range(1, max_len + 1) for S in range(k, cap + 1)
            for w in cells.words(k, S)]


def check_bar_d_squared(corpus, rng):
    for name in corpus.cases:
        for coeff in (COEFF_SELF, COEFF_DUAL):
            cx = corpus.bar(name, coeff)
            for (p, q) in cx.window.cells():
                try:
                    check_composite(cx.matrix(p - 1, q), cx.matrix(p, q))
                except ComplexViolationError:
                    return "fail", f"{name} ({coeff} coefficients): " \
                        f"d^2 != 0 through the cell ({p},{q})"
    return "pass", None


def check_chain_operators(corpus, rng):
    for name, A in corpus.cases.items():
        coeffs = [A.unit_monomial()]
        for d in range(1, 6):
            coeffs.extend(A.monomial_basis(d))
        for w in _words(A, 3, 10):
            for a0 in coeffs:
                c = ChainElement(A, {(a0, w): 1})
                if not hochschild_b(hochschild_b(c)).is_zero():
                    return "fail", f"{name}: b^2 != 0 on {a0},{w}"
                lhs = hochschild_b(connes_boundary(c)) \
                    + connes_boundary(hochschild_b(c))
                if not lhs.is_zero():
                    return "fail", f"{name}: bB + Bb != 0 on {a0},{w}"
    return "pass", None


def check_kt_d_squared(corpus, rng):
    for name, A in corpus.items():
        R = KTResolution(A)
        for level in range(1, 5):
            for t in range(0, 15):
                for m in R.cell_basis(level, t):
                    if not KTElement(R, {m: 1}).d().d().is_zero():
                        return "fail", f"{name}: d^2 != 0 on {m}"
    return "pass", None


def check_kt_exactness(corpus, rng):
    for name, A in corpus.items():
        R = KTResolution(A)
        report = exactness_check(R, max_level=3, internal_bound=12)
        if not report.ok:
            return "fail", f"{name}: {report.failures[:3]}"
    return "pass", None


def check_diagonal_chain_map(corpus, rng):
    for name, A in corpus.items():
        R = KTResolution(A)
        pool = []
        for level in range(1, 4):
            for t in range(0, 15):
                pool.extend(R.cell_basis(level, t))
        sample = pool if len(pool) <= 200 else rng.sample(pool, 200)
        for m in sample:
            lhs = diagonal_mono(R, m).boundary()
            rhs = diagonal_element(R, KTElement(R, {m: 1}).d())
            if lhs != rhs:
                return "fail", f"{name}: diagonal chain map fails on {m}"
    return "pass", None


def check_dual_basis_rules(corpus, rng):
    A = corpus["ext2_deg5"]
    R = KTResolution(A)
    nu1 = {(EMono((1, 0)), A.unit_monomial()): 1}
    sq = cup_via_diagonal(R, nu1, nu1)
    if {e for e, _ in sq} != {EMono((2, 0))}:
        return "fail", "nu* . nu* is not the dual divided square"
    P = corpus["poly1_deg2"]
    Rp = KTResolution(P)
    u = {(EMono((1,)), P.unit_monomial()): 1}
    if cup_via_diagonal(Rp, u, u):
        return "fail", "u* . u* != 0 without relations"
    return "pass", None


def check_cup_strictly_associative(corpus, rng):
    A = corpus["ext2_deg5"]
    window = DegreeWindow(3, -22, 2)
    cx = BarComplex(A, COEFF_SELF, window)
    reps = []
    for (p, q) in [(1, -5), (1, 0)]:
        reps.extend(Cochain(A, COEFF_SELF, p, q, terms)
                    for terms in cx.representatives(p, q))
    for f, g, h in itertools.product(reps, repeat=3):
        p = f.p + g.p + h.p
        q = f.q + g.q + h.q
        if p > 3:
            continue
        words = cx.cell_words(p, q)
        mid_fg = cx.cell_words(f.p + g.p, f.q + g.q)
        mid_gh = cx.cell_words(g.p + h.p, g.q + h.q)
        lhs = cochain_cup(cochain_cup(f, g, mid_fg), h, words)
        rhs = cochain_cup(f, cochain_cup(g, h, mid_gh), words)
        if lhs != rhs:
            return "fail", "cup is not strictly associative"
    return "pass", None


def check_cup_commutative_mod_coboundary(corpus, rng):
    A = corpus["ext2_deg5"]
    window = DegreeWindow(4, -22, 2)
    cx = BarComplex(A, COEFF_SELF, window)
    cells = [(1, -5), (1, 0), (2, -10)]
    reps = {}
    for (p, q) in cells:
        reps[(p, q)] = [Cochain(A, COEFF_SELF, p, q, terms)
                        for terms in cx.representatives(p, q)]
    pool = [(pq1, pq2) for pq1 in cells for pq2 in cells
            if pq1[0] + pq2[0] <= window.max_p]
    count = 0
    while count < 100:
        (p1, q1), (p2, q2) = pool[rng.randrange(len(pool))]
        f = reps[(p1, q1)][rng.randrange(len(reps[(p1, q1)]))]
        g = reps[(p2, q2)][rng.randrange(len(reps[(p2, q2)]))]
        words = cx.cell_words(p1 + p2, q1 + q2)
        fg = cochain_cup(f, g, words)
        gf = cochain_cup(g, f, words)
        sgn = -1 if ((p1 + q1) * (p2 + q2)) % 2 else 1
        diff = fg - gf.scale(sgn)
        count += 1
        if diff.is_zero():
            continue
        if cx.solve(p1 + p2 - 1, q1 + q2, diff.terms) is None:
            return "fail", f"not commutative mod coboundary at " \
                f"({p1},{q1})x({p2},{q2})"
    return "pass", None


def check_zeta_conditions(corpus, rng, inject_fault=False):
    field_choices = [2, 3, 5]
    produced = 0
    attempts = 0
    while produced < 20 and attempts < 400:
        attempts += 1
        p = field_choices[rng.randrange(3)]
        n = 1 + rng.randrange(3)
        degs = [2 * (1 + rng.randrange(2)) for _ in range(n)]
        A = AlgebraPresentation(
            PrimeField(p),
            [GradedGenerator(f"x{i+1}", d, "polynomial")
             for i, d in enumerate(degs)])
        deg = 2 * (2 + rng.randrange(3))
        basis = [m for m in A.monomial_basis(deg) if sum(m.exps) >= 2]
        if not basis:
            continue
        rho = Polynomial(A, {m: rng.randrange(p) for m in basis})
        if rho.is_zero():
            continue
        try:
            zetas = zeta_coefficients(rho)
        except Exception:
            return "fail", f"zeta construction failed on {A.label_poly(rho)}"
        if inject_fault and produced == 7:
            # corrupt one coefficient and verify the conditions now fail
            which = next((j for j, z in enumerate(zetas) if z.terms), None)
            if which is not None:
                z = zetas[which]
                key = next(iter(z.terms))
                bad = TensorPoly(A, {**z.terms, key: z.terms[key] + 1})
                name = A.generators[A.poly_index[which]].name
                cond = (bad.apply_multiplication()
                        - partial_derivative(rho, name))
                if cond.is_zero():
                    # the corruption must break at least the telescoping
                    xj = A.generator_poly(name)
                    step = (TensorPoly.from_sides(xj, A.one())
                            - TensorPoly.from_sides(A.one(), xj))
                    delta = (bad - z) * step
                    if delta.is_zero():
                        return "fail", "fault injection had no effect"
                return "fail", (f"injected zeta fault detected on "
                                f"{A.label_poly(rho)} (expected)")
        produced += 1
    if produced < 20:
        return "fail", f"only {produced} random relations generated"
    return "pass", None


def check_xi_chain_map(corpus, rng):
    for name in ("ext2_deg5", "ext1_deg3_p3"):
        A = corpus[name]
        R = KTResolution(A)
        xi = XiLift(R, ORACLE_WINDOWS[name])
        cap = 4 * max(g.degree for g in A.generators)
        for w in _words(A, xi.depth, cap):
            if not (xi.value(w).d() - xi.rhs(w)).is_zero():
                return "fail", f"{name}: chain map fails on {w}"
    return "pass", None


def check_oracle_vs_resolution(corpus, rng):
    for name, A in corpus.cases.items():
        window = ORACLE_WINDOWS[name]
        ring = hh_via_kt(A, window)
        cx = corpus.bar(name, COEFF_SELF)
        mismatches = oracle_report(
            window, {pq: cx.homology_dim(*pq) for pq in window.cells()},
            {pq: len(lbls) for pq, lbls in ring.cells.items()}
        )["mismatches"]
        if mismatches:
            return "fail", f"{name}: [p, q, bar, resolution] {mismatches}"
    return "pass", None


def check_bv_operator(corpus, rng):
    # the seven-term identity over generator triples in characteristic 2,
    # where no sign shows, and over the generator monomials in odd
    # characteristic: Delta is zero on every model generator, so on
    # generator triples Delta(a)bc, aDelta(b)c and abDelta(c) vanish.
    # Two odd exterior generators over F_3 and F_5 carry the signs of the
    # comparison map and of iota into the checks of BVContext itself.
    two_odd = [("y1", 3, "exterior"), ("y2", 3, "exterior")]
    for name, A, window, sweep_labels in [
            ("ext2_deg5", corpus["ext2_deg5"], DegreeWindow(3, -22, 12),
             generator_labels),
            ("ext2_deg3", corpus["ext2_deg3"], DegreeWindow(3, -14, 8),
             generator_labels),
            ("ext1_deg3_p3", corpus["ext1_deg3_p3"], DegreeWindow(4, -13, 4),
             generator_monomial_labels),
            ("ext2_deg3_p3", _make(3, two_odd), DegreeWindow(2, -10, 6),
             generator_monomial_labels),
            ("ext2_deg3_p5", _make(5, two_odd), DegreeWindow(2, -10, 6),
             generator_monomial_labels)]:
        ctx = BVContext(A, window)
        ring = ctx.ring
        for (p, _), labels in ring.cells.items():
            if p < 2:
                continue
            for lbl in labels:
                if not RingClass(ctx, {lbl: 1}).delta().delta().is_zero():
                    return "fail", f"{name}: Delta^2 != 0 on " \
                        f"{ring.label_str(lbl)}"
        sweep = seven_term_sweep(ctx, sweep_labels(ring))
        if sweep["failures"]:
            return "fail", f"{name}: seven-term fails on " \
                f"{sweep['failures'][0]['triple']}"
        if "skipped_outside_window" in sweep:
            return "fail", f"{name}: seven-term not checked on " \
                f"{sweep['skipped_outside_window'][0]}"
    return "pass", None


def check_iota(corpus, rng):
    # the keys that BVContext.delta_matrix feeds to iota: the entries
    # (word, a0) of the dual cell (k, -t) are the chains a0[word] of (k, t)
    A = corpus["ext2_deg5"]
    cx = corpus.bar("ext2_deg5", COEFF_DUAL)
    for (k, t) in [(1, 10), (2, 15)]:
        for word, a0 in cx.cell_basis(k, -t):
            key = (a0, word)
            g = iota({key: 1}, A, k, t)
            if len(g.terms) != 1 or pair_class(g, {key: 1}, A) != 1:
                return "fail", f"iota round trip fails at {(k, t)}"
    return "pass", None


def check_linear_algebra(corpus, rng):
    # the forward-only rank the commands run, against the full rref and the
    # transpose, and the kernel cohomology_cell builds when nothing maps in
    for _ in range(40):
        p = [2, 3, 5][rng.randrange(3)]
        field = PrimeField(p)
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        entries = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.4:
                    entries[(r, c)] = rng.randrange(1, p)
        M = SparseMatrix(rows, cols, entries, field)
        r = rank(M)
        if r != len(rref(M)[0]) or r != rank(M.transpose()):
            return "fail", "rank != rref rank or rank of transpose " \
                f"({rows}x{cols}, p={p})"
        kernel = cohomology_cell(SparseMatrix(cols, 0, {}, field),
                                 M).representatives
        if len(kernel) != cols - r:
            return "fail", f"kernel of dimension {len(kernel)} != " \
                f"cols - rank ({rows}x{cols}, p={p})"
        for v in kernel:
            if M.mul_vec(v):
                return "fail", "kernel vector not annihilated"
    return "pass", None


def check_lucas(corpus, rng):
    for p in (2, 3, 5, 7):
        for n in range(16):
            for k in range(n + 1):
                if lucas_binomial(n, k, p) != math.comb(n, k) % p:
                    return "fail", f"binomial mismatch at ({n},{k}) mod {p}"
    return "pass", None


def check_hilbert_vs_basis(corpus, rng):
    for name, A in corpus.items():
        if not A.relations:
            continue
        report = validate_regular_sequence(
            A, max(r.degree() for r in A.relations) * 2 + 2)
        if not report.ok:
            return "fail", f"{name}: {report.detail}"
    return "pass", None


CHECKS = [
    ("bar_differential_squares_to_zero", check_bar_d_squared),
    ("chain_boundary_and_cyclic_operator", check_chain_operators),
    ("resolution_differential_squares_to_zero", check_kt_d_squared),
    ("resolution_is_exact_in_window", check_kt_exactness),
    ("diagonal_is_a_chain_map", check_diagonal_chain_map),
    ("dual_basis_product_rules", check_dual_basis_rules),
    ("cup_strictly_associative", check_cup_strictly_associative),
    ("cup_commutative_modulo_coboundary",
     check_cup_commutative_mod_coboundary),
    ("zeta_conditions_on_random_relations", check_zeta_conditions),
    ("comparison_map_is_a_chain_map", check_xi_chain_map),
    ("oracle_agrees_with_resolution", check_oracle_vs_resolution),
    ("bv_square_zero_and_seven_term", check_bv_operator),
    ("chain_dual_isomorphism_round_trip", check_iota),
    ("exact_linear_algebra_properties", check_linear_algebra),
    ("binomials_reduce_by_lucas", check_lucas),
    ("hilbert_series_matches_bases", check_hilbert_vs_basis),
]


def run_suite(seed=0, inject_zeta_fault=False):
    corpus = _corpus()
    report = []
    for name, fn in CHECKS:
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        try:
            if fn is check_zeta_conditions:
                status, witness = fn(corpus, rng,
                                     inject_fault=inject_zeta_fault)
            else:
                status, witness = fn(corpus, rng)
        except Exception as err:  # a crashed check is a failed check
            status, witness = "fail", f"exception: {err}"
        entry = {"name": name, "status": status}
        if witness:
            entry["witness"] = witness
        report.append(entry)
    return report
