import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hhkt.fields import (CellComplex, ComplexViolationError, FieldError,
                         LinearSystem, PrimeField, SparseMatrix, _rref,
                         cohomology_cell, kernel_vector, rank, rref)

from .helpers import column

F2 = PrimeField(2)
F5 = PrimeField(5)


def test_prime_check():
    PrimeField(2)
    PrimeField(13)
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(1)


def _rank_kernel_image(M):
    """The forward-only rank of M, the canonical kernel basis that
    cohomology_cell builds when nothing maps in, and the columns of M at
    the pivots of rref(M)."""
    kernel = cohomology_cell(SparseMatrix(M.cols, 0, {}, M.field),
                             M).representatives
    return rank(M), kernel, [column(M, c) for c in rref(M)[0]]


def test_rank_identity():
    M = SparseMatrix(3, 3, {(i, i): 1 for i in range(3)}, F2)
    r, kernel, image = _rank_kernel_image(M)
    assert r == 3
    assert kernel == []
    assert image == [{0: 1}, {1: 1}, {2: 1}]


def test_rank_zero_matrix():
    M = SparseMatrix(2, 4, {}, F2)
    r, kernel, image = _rank_kernel_image(M)
    assert r == 0
    assert kernel == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]
    assert image == []


def test_rank_ones_f2():
    # [[1,1],[1,1]] over F_2: rank 1, kernel spanned by (1,1)
    M = SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}, F2)
    r, kernel, image = _rank_kernel_image(M)
    assert r == 1
    assert kernel == [{0: 1, 1: 1}]
    assert image == [{0: 1, 1: 1}]


def _dense_rref(M):
    """Reference RREF by plain Gauss-Jordan elimination on a dense int64
    copy; returns (pivot_cols, rref rows as dicts)."""
    p = M.field.p
    A = np.zeros((M.rows, M.cols), dtype=np.int64)
    for (r, c), v in M.entries.items():
        A[r, c] = v
    nrows, ncols = A.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(A[row:, col])[0]
        if nz.size == 0:
            continue
        r = row + int(nz[0])
        if r != row:
            A[[row, r]] = A[[r, row]]
        inv = pow(int(A[row, col]), p - 2, p)
        A[row] = (A[row] * inv) % p
        for rr in range(nrows):
            if rr != row and A[rr, col]:
                A[rr] = (A[rr] - A[rr, col] * A[row]) % p
        pivots.append(col)
        row += 1
    rows = [{int(c): int(A[i, c]) for c in np.nonzero(A[i])[0]}
            for i in range(len(pivots))]
    return pivots, rows


def _random_sparse(rng, rows, cols, p):
    field = PrimeField(p)
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.4:
                v = rng.randrange(1, p)
                entries[(r, c)] = v
    return SparseMatrix(rows, cols, entries, field)


@given(st.integers(0, 6), st.integers(0, 6), st.sampled_from([2, 3, 5, 7]),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rank_transpose_and_kernel(rows, cols, p, rng):
    M = _random_sparse(rng, rows, cols, p)
    r, kernel, image = _rank_kernel_image(M)
    r_t, _, _ = _rank_kernel_image(M.transpose())
    assert r == r_t
    assert r + len(kernel) == cols
    for v in kernel:
        assert not M.mul_vec(v)
    assert len(image) == r


@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([2, 5]),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_sparse_matches_dense_rank(rows, cols, p, rng):
    M = _random_sparse(rng, rows, cols, p)
    pivots, _ = _dense_rref(M)
    assert rank(M) == len(pivots)


@given(st.integers(0, 6), st.integers(0, 6), st.sampled_from([2, 3, 5]),
       st.floats(0.0, 1.0), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
@example(0, 0, 2, 0.5, random.Random(0))
@example(0, 4, 3, 0.5, random.Random(0))
@example(3, 0, 5, 0.5, random.Random(0))
@example(3, 4, 2, 0.0, random.Random(0))
@example(4, 3, 5, 0.0, random.Random(0))
def test_cell_rank_is_full_rref_rank(rows, cols, p, density, rng):
    """CellComplex.rank eliminates forward only; its pivot count is that
    of the full RREF, on empty and all-zero matrices too."""
    field = PrimeField(p)
    M = SparseMatrix(rows, cols,
                     {(r, c): rng.randrange(1, p) for r in range(rows)
                      for c in range(cols) if rng.random() < density},
                     field)
    cx = CellComplex(field)
    cx._mats[(0, 0)] = M
    assert cx.rank(0, 0) == len(rref(M)[0])


def test_solve_system():
    M = SparseMatrix(2, 3, {(0, 0): 1, (0, 2): 1, (1, 1): 1}, F5)
    solver = LinearSystem(M)
    x = solver.solve({0: 3, 1: 4})
    assert x is not None
    assert M.mul_vec(x) == {0: 3, 1: 4}
    # inconsistent system
    M2 = SparseMatrix(2, 1, {(0, 0): 1, (1, 0): 1}, F5)
    assert LinearSystem(M2).solve({0: 1, 1: 2}) is None


def test_cohomology_cell_zero_maps():
    z = SparseMatrix(4, 0, {}, F2)
    z_out = SparseMatrix(0, 4, {}, F2)
    hom = cohomology_cell(z, z_out)
    assert hom.dim == 4


def test_cohomology_cell_injective_out():
    d_in = SparseMatrix(2, 0, {}, F2)
    d_out = SparseMatrix(2, 2, {(0, 0): 1, (1, 1): 1}, F2)
    hom = cohomology_cell(d_in, d_out)
    assert hom.dim == 0


def test_cohomology_cell_violation_witness():
    d_in = SparseMatrix(1, 1, {(0, 0): 1}, F2)
    d_out = SparseMatrix(1, 1, {(0, 0): 1}, F2)
    with pytest.raises(ComplexViolationError) as err:
        cohomology_cell(d_in, d_out)
    assert err.value.witness == {0: 1}
    # column 0 of d_in is a cycle, column 1 is not: the first failing
    # column is reported with its image under d_out
    d_out = SparseMatrix(2, 3, {(0, 0): 1, (1, 1): 2}, F5)
    d_in = SparseMatrix(3, 2, {(2, 0): 3, (0, 1): 1, (1, 1): 1}, F5)
    with pytest.raises(ComplexViolationError) as err:
        cohomology_cell(d_in, d_out)
    assert err.value.source_index == 1
    assert err.value.witness == {0: 1, 1: 2}


@pytest.mark.parametrize("d_in, d_out", [
    (SparseMatrix(1, 1, {(0, 0): 1}, F2), SparseMatrix(1, 1, {(0, 0): 1}, F2)),
    (SparseMatrix(3, 2, {(2, 0): 3, (0, 1): 1, (1, 1): 1}, F5),
     SparseMatrix(2, 3, {(0, 0): 1, (1, 1): 2}, F5)),
])
def test_homology_dim_violation_witness(d_in, d_out):
    """The rank-only dimension refuses d^2 != 0 with the same first
    failing column and witness as the full homology cell."""
    with pytest.raises(ComplexViolationError) as full:
        cohomology_cell(d_in, d_out)
    cx = CellComplex(d_out.field)
    cx._mats.update({(0, 0): d_in, (1, 0): d_out})
    with pytest.raises(ComplexViolationError) as dim_only:
        cx.homology_dim(1, 0)
    assert dim_only.value.source_index == full.value.source_index
    assert dim_only.value.witness == full.value.witness


def test_cohomology_cell_dims_shuffle_invariant():
    # dims do not depend on basis ordering of the middle cell
    rng = np.random.default_rng(7)
    d_in = SparseMatrix(3, 2, {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1},
                        F2)
    d_out = SparseMatrix(2, 3, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1},
                         F2)
    base = None
    for _ in range(4):
        perm = rng.permutation(3)
        di = SparseMatrix(3, 2, {(int(perm[r]), c): v for (r, c), v in
                                 d_in.entries.items()}, F2)
        do = SparseMatrix(2, 3, {(r, int(perm[c])): v for (r, c), v in
                                 d_out.entries.items()}, F2)
        try:
            hom = cohomology_cell(di, do)
        except ComplexViolationError:
            continue
        if base is None:
            base = hom.dim
        assert hom.dim == base


@given(st.sampled_from([2, 3, 5]), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_sparse_and_dense_rref_agree(p, rng):
    rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
    M = _random_sparse(rng, rows, cols, p)
    piv_d, rows_d = _dense_rref(M)
    piv_s, rows_s = rref(M)
    assert piv_d == piv_s
    assert rows_d == rows_s  # RREF is unique


@given(st.sampled_from([2, 3, 5]), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_restricted_pivots_match_full_rref(p, rng):
    rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
    M = _random_sparse(rng, rows, cols, p)
    # every column pivot-eligible: the full RREF of the reference
    assert _rref(M, M.cols) == _dense_rref(M)
    # LinearSystem pivots only in the M-block of [M | I]; that block of its
    # pivot rows is the RREF of M
    solver = LinearSystem(M)
    block = [{c: v for c, v in row.items() if c < M.cols}
             for row in solver.rows]
    assert (solver.pivots, block) == _dense_rref(M)


def _dense_rank(columns, nrows, field):
    return len(_dense_rref(
        SparseMatrix.from_columns(nrows, columns, field))[0])


def _kernel_basis(pivots, rows, ncols, field):
    """The canonical kernel basis of an RREF, one vector per free column."""
    return [kernel_vector(pivots, rows, j, field)
            for j in range(ncols) if j not in pivots]


def _add(u, v, p, c=1):
    """u + c v for {index: coeff} vectors."""
    out = dict(u)
    for i, x in v.items():
        out[i] = (out.get(i, 0) + c * x) % p
    return {i: x for i, x in sorted(out.items()) if x}


def _combo(rng, vectors, p):
    """A random combination of {index: coeff} vectors."""
    out = {}
    for v in vectors:
        out = _add(out, v, p, rng.randrange(p))
    return out


@given(st.sampled_from([2, 3, 5]), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_cohomology_cell_on_random_complexes(p, rng):
    """dim = dim ker - rank d_in, and the representatives are exactly the
    kernel vectors that raise the rank of [image | earlier kernel vectors],
    both against the dense reference elimination."""
    field = PrimeField(p)
    n = rng.randrange(0, 7)
    d_out = _random_sparse(rng, rng.randrange(0, 5), n, p)
    piv, rows = _dense_rref(d_out)
    ker = _kernel_basis(piv, rows, n, field)
    # d_in: random combinations of kernel vectors, so d_out . d_in = 0
    in_cols = [_combo(rng, ker, p) for _ in range(rng.randrange(0, 5))]
    d_in = SparseMatrix.from_columns(n, in_cols, field)
    hom = cohomology_cell(d_in, d_out)
    rank_in = _dense_rank(in_cols, n, field)
    assert len(ker) == n - len(piv)
    for v in ker:
        assert not d_out.mul_vec(v)
    assert hom.dim == len(ker) - rank_in
    expected = []
    for i, v in enumerate(ker):
        before = in_cols + ker[:i]
        if _dense_rank(before + [v], n, field) > _dense_rank(before, n, field):
            expected.append(v)
    assert hom.representatives == expected


def _dense_express(reps, image, vec, n, field):
    """Reference class coordinates: the reps-part of the unique solution of
    [reps | image] x = vec by dense elimination, or None off their span."""
    cols = list(reps) + list(image)
    piv, rows = _dense_rref(
        SparseMatrix.from_columns(n, cols + [vec], field))
    if len(cols) in piv:
        return None
    return {i: rows[i][len(cols)] for i in range(len(reps))
            if len(cols) in rows[i]}


@given(st.sampled_from([2, 3, 5, 7]), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_express_against_dense_solve(p, rng):
    """express agrees with a dense solve over [reps | image] on random
    cycles, on a cycle plus a boundary, and gives None on non-cycles."""
    field = PrimeField(p)
    n = rng.randrange(1, 8)
    d_out = _random_sparse(rng, rng.randrange(0, 5), n, p)
    piv, rows = _dense_rref(d_out)
    ker = _kernel_basis(piv, rows, n, field)
    in_cols = [_combo(rng, ker, p) for _ in range(rng.randrange(0, 5))]
    d_in = SparseMatrix.from_columns(n, in_cols, field)
    hom = cohomology_cell(d_in, d_out)
    image = []
    for v in in_cols:
        if _dense_rank(image + [v], n, field) > len(image):
            image.append(v)
    for i, rep in enumerate(hom.representatives):
        assert hom.express(rep) == {i: 1}
    z = _combo(rng, ker, p)
    coords = hom.express(z)
    assert coords == _dense_express(hom.representatives, image, z, n, field)
    assert coords is not None
    zb = _add(z, _combo(rng, in_cols, p), p)
    assert hom.express(zb) == coords
    for c in piv:
        # a pivot column of d_out is nonzero, so z + e_c is not a cycle
        off = _add(z, {c: 1}, p)
        assert _dense_express(hom.representatives, image, off, n,
                              field) is None
        assert hom.express(off) is None
    v = {j: x for j in range(n) if (x := rng.randrange(p))}
    assert hom.express(v) == _dense_express(hom.representatives, image, v, n,
                                            field)
