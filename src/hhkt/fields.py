"""Exact linear algebra over prime fields F_p.

Everything in this module is exact modular arithmetic: no floats anywhere.
Matrices are stored sparsely as ``{(row, col): value}`` with values in
``[1, p)`` and reduced by one sparse elimination kernel, ``_rref``; rank,
kernel, solving and homology all go through it.  All reduced forms are
RREF, which is unique, so pivot-selection heuristics only affect speed,
never results; a rank alone skips the back-elimination, since the pivot
columns are the same without it.  A homology cell ker(d_out)/im(d_in)
is reduced in the coordinates of the free columns of rref(d_out), which
determine a cycle: one elimination of [d_in at the free rows | I] picks
the representatives (canonical kernel vectors, one per free column) and
then solves for the class coordinates of any cycle.
Every vector this module takes or returns is sparse: a cell vector is an
``{index: coeff}`` dict (matrix products, solutions, kernel vectors,
representatives, class coordinates and d^2 witnesses alike).  Vectors in
the algebraic modules are ``LinComb`` subclasses: ``{key: coeff}`` maps
normalized mod p, each extending its maps and products over terms with
``LinComb.linear`` and ``LinComb.bilinear``.

Every complex in the package (the resolution F, its tensor square, the Hom
complex, the bar cochains and the Hochschild chains) is a ``CellComplex``,
which caches per (degree, weight) cell its basis and index, differential
matrix, its rank, a solver, and homology with its class-expresser; it
converts between a cell's terms and its index vectors (``vector``,
``combination``), so callers read representatives (``representatives``)
and class coordinates (``express``) in terms of basis elements and
indices.  A dimension alone is n - rank(d_out) - rank(d_in) from the
cached ranks; homology is reduced only where a class is expressed or read.
"""

from __future__ import annotations

from collections import namedtuple


class FieldError(ValueError):
    pass


class ComplexViolationError(RuntimeError):
    """Raised when d_out . d_in != 0.

    Carries the index of the offending source basis vector and its nonzero
    composite image as a witness.
    """

    def __init__(self, message, source_index, witness):
        super().__init__(message)
        self.source_index = source_index
        self.witness = witness


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField(namedtuple("PrimeField", "p")):
    """The field F_p; elements are canonical int representatives in [0, p).
    p must lie below 2^31, so that the primality check by trial division
    stays fast."""

    __slots__ = ()

    def __new__(cls, p):
        if p >= 1 << 31:
            raise FieldError(f"characteristic {p} is too large "
                             f"(at most 2^31 - 1)")
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        return super().__new__(cls, p)


class LinComb:
    """A sparse linear combination over F_p: ``terms`` maps keys to
    coefficients in ``[1, p)``; zero coefficients are dropped.

    A subclass holds the context its keys live in (an algebra or a
    resolution), rebuilds itself from terms in ``_like`` and builds its
    product and boundary from ``bilinear`` and ``linear``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms, p):
        clean = {}
        for k, c in (terms or {}).items():
            c %= p
            if c:
                clean[k] = c
        self.terms = clean

    def _like(self, terms):
        """A combination of the same type and context with these terms."""
        raise NotImplementedError

    def _check(self, other):
        """Hook for refusing to combine with an incompatible operand."""

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._like(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return self._like(out)

    def scale(self, k):
        return self._like({m: c * k for m, c in self.terms.items()})

    def linear(self, image):
        """The terms of the linear extension of image, which sends a key
        to (key, coeff) pairs."""
        out = {}
        for k, c in self.terms.items():
            for k2, c2 in image(k):
                out[k2] = out.get(k2, 0) + c * c2
        return out

    def bilinear(self, other, mul):
        """The terms of the bilinear extension of mul, which sends a pair
        of keys to (key, coeff) pairs."""
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                for k, c in mul(k1, k2):
                    out[k] = out.get(k, 0) + c1 * c2 * c
        return out

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms


class SparseMatrix:
    """An immutable rows x cols matrix over F_p, no stored zeros."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows, cols, entries, field):
        self.rows = rows
        self.cols = cols
        self.field = field
        clean = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            v %= field.p
            if v:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_columns(cls, rows, columns, field):
        """The matrix whose columns are the given {row: coeff} vectors."""
        return cls(rows, len(columns),
                   {(r, c): v for c, col in enumerate(columns)
                    for r, v in col.items()}, field)

    def transpose(self):
        return SparseMatrix(
            self.cols, self.rows,
            {(c, r): v for (r, c), v in self.entries.items()}, self.field)

    def mul_vec(self, vec):
        """M vec, for vec a {col: coeff} vector; summed in a dense scratch
        list, which is faster than a dict when M has many entries."""
        p = self.field.p
        x = [0] * self.cols
        for c, v in vec.items():
            x[c] = v
        out = [0] * self.rows
        for (r, c), v in self.entries.items():
            if x[c]:
                out[r] += v * x[c]
        return {r: v % p for r, v in enumerate(out) if v and v % p}

    def nnz(self):
        return len(self.entries)


def _rref(M: SparseMatrix, npivot_cols, back=True):
    """RREF of M with pivots only in columns < npivot_cols.

    Returns (pivot_cols, rref rows as dicts).  Rows are chosen
    Markowitz-style (fewest entries first); a column -> rows index, kept up
    to date during the elimination, lists each pivot column's candidates.
    With back false the earlier pivot rows are not reduced: the pivot
    columns are the same, the rows only an echelon form.
    """
    p = M.field.p
    work = [dict() for _ in range(M.rows)]
    holders = {}   # pivot column -> the unpivoted rows with an entry there
    for (r, c), v in M.entries.items():
        work[r][c] = v
        if c < npivot_cols:
            holders.setdefault(c, set()).add(r)
    done = []      # list of (pivot_col, row dict), in pivot order
    for col in range(npivot_cols):
        candidates = holders.pop(col, None)
        if not candidates:
            continue
        # cheapest row first: exact result is pivot-independent (RREF is
        # unique), this only limits fill-in
        r0 = min(candidates, key=lambda r: (len(work[r]), r))
        candidates.discard(r0)
        row = work[r0]
        for c in row:
            if col < c < npivot_cols:
                holders[c].discard(r0)
        inv = pow(row[col], p - 2, p)
        row = {c: (v * inv) % p for c, v in row.items()}
        # every unpivoted row is zero left of col, so only later columns
        # of the index change
        for r in candidates:
            tgt = work[r]
            f = tgt[col]
            for c, v in row.items():
                old = tgt.get(c)
                nv = ((old or 0) - f * v) % p
                if nv:
                    if old is None and c < npivot_cols:
                        holders.setdefault(c, set()).add(r)
                    tgt[c] = nv
                elif old is not None:
                    del tgt[c]
                    if col < c < npivot_cols:
                        holders[c].discard(r)
        # back-eliminate into earlier pivot rows for full RREF
        if back:
            for _, prow in done:
                f = prow.get(col)
                if f:
                    for c, v in row.items():
                        nv = (prow.get(c, 0) - f * v) % p
                        if nv:
                            prow[c] = nv
                        elif c in prow:
                            del prow[c]
        done.append((col, row))
    return [c for c, _ in done], [row for _, row in done]


def rref(M: SparseMatrix):
    return _rref(M, M.cols)


def rank(M: SparseMatrix):
    """The rank of M, by forward elimination alone."""
    return len(_rref(M, M.cols, back=False)[0])


def kernel_vector(pivots, rows, j, field):
    """The canonical kernel vector of an RREF at its free column j: 1 at
    j, minus column j of each pivot row at that row's pivot."""
    vec = {j: 1}
    for c, row in zip(pivots, rows):
        v = row.get(j)
        if v:
            vec[c] = (-v) % field.p
    return vec


class LinearSystem:
    """Repeated exact solves Mx = b against a fixed matrix.

    Eliminates on [M | I] once; solve() is then a single substitution pass.
    """

    def __init__(self, M: SparseMatrix):
        self.M = M
        self.field = M.field
        entries = dict(M.entries)
        for r in range(M.rows):
            entries[(r, M.cols + r)] = 1
        aug = SparseMatrix(M.rows, M.cols + M.rows, entries, M.field)
        # pivots only in the M-columns; the I-block records the row ops
        self.pivots, self.rows = _rref(aug, M.cols)

    def solve(self, b):
        """A particular solution x of Mx = b (free vars 0), or None; b and
        x are {index: coeff} vectors."""
        p = self.field.p
        ncols = self.M.cols
        # b placed at the I-block columns of the recorded rows; the M-block
        # reads zero
        placed = [0] * (ncols + self.M.rows)
        for r, v in b.items():
            placed[ncols + r] = v
        x = {}
        for c, row in zip(self.pivots, self.rows):
            # value of (L b) at this pivot row, L = recorded row ops
            s = 0
            for cc, v in row.items():
                if placed[cc]:
                    s += v * placed[cc]
            s %= p
            if s:
                x[c] = s
        # verify (also detects inconsistency from zero rows)
        b = {r: v % p for r, v in b.items() if v % p}
        return x if self.M.mul_vec(x) == b else None


class SubquotientBasis:
    """ker(d_out)/im(d_in) with explicit representative vectors.

    Classes are solved in the coordinates of the free columns of
    rref(d_out), which determine a cycle: ``solver`` eliminates [B | I_f],
    B the rows of d_in at those columns (``free_row`` numbers them), and
    ``rep_cols`` are its pivot columns in the I-block, one per
    representative.
    """

    def __init__(self, representatives, d_out, free_row, solver, rep_cols):
        self.representatives = representatives
        self.d_out = d_out
        self.free_row = free_row
        self.solver = solver
        self.rep_cols = rep_cols

    @property
    def dim(self):
        return len(self.representatives)

    def express(self, vec):
        """Coordinates of a cycle's class in the representative basis, or
        None when vec is not a cycle of this cell."""
        if self.d_out.mul_vec(vec):
            return None
        x = self.solver.solve({self.free_row[j]: c for j, c in vec.items()
                               if j in self.free_row})
        return {i: x[c] for i, c in enumerate(self.rep_cols) if c in x}


def check_composite(d_in: SparseMatrix, d_out: SparseMatrix):
    """Raise ComplexViolationError at the first column of d_in with a
    nonzero image under d_out, as a {row: coeff} witness."""
    if d_in.rows != d_out.cols:
        raise ValueError("d_in rows must match d_out cols")
    p = d_out.field.p
    out_cols = {}
    for (r, c), v in d_out.entries.items():
        out_cols.setdefault(c, []).append((r, v))
    in_cols = [[] for _ in range(d_in.cols)]
    for (r, c), v in d_in.entries.items():
        in_cols[c].append((r, v))
    for j, col in enumerate(in_cols):
        comp = {}
        for k, x in col:
            for r, v in out_cols.get(k, ()):
                comp[r] = (comp.get(r, 0) + v * x) % p
        if any(comp.values()):
            raise ComplexViolationError(
                "composite differential is nonzero: d^2 != 0", j,
                {r: v for r, v in sorted(comp.items()) if v})


def cohomology_cell(d_in: SparseMatrix, d_out: SparseMatrix) -> SubquotientBasis:
    """Homology of the two-map cell  .-> C --d_out--> .  at C.

    d_in maps into the cell (its rows index the cell basis), d_out maps out
    of it (its columns index the cell basis).  The composite d_out . d_in
    must vanish; a violation raises ComplexViolationError with a witness.

    The kernel is the canonical basis of rref(d_out): each vector is 1 at
    its own free column and 0 at the others, so restricting to the f free
    columns is injective on ker(d_out), which holds every column of d_in.
    [d_in | kernel vectors] and [B | I_f], B the free rows of d_in, thus
    have the same column dependencies, and the I-block pivots of one
    elimination of [B | I_f] pick the representatives: the kernel vectors
    outside the span of the image and of the kernel vectors before them.
    Only those kernel vectors are built.
    """
    field = d_out.field
    check_composite(d_in, d_out)
    pivots, rows = rref(d_out)
    pivot_set = set(pivots)
    free = [j for j in range(d_out.cols) if j not in pivot_set]
    free_row = {j: k for k, j in enumerate(free)}
    m = d_in.cols
    entries = {(free_row[r], c): v for (r, c), v in d_in.entries.items()
               if r in free_row}
    for k in range(len(free)):
        entries[(k, m + k)] = 1
    solver = LinearSystem(SparseMatrix(len(free), m + len(free), entries,
                                       field))
    rep_cols = [c for c in solver.pivots if c >= m]
    reps = [kernel_vector(pivots, rows, free[c - m], field)
            for c in rep_cols]
    return SubquotientBasis(reps, d_out, free_row, solver, rep_cols)


class CellComplex:
    """A complex split into finite cells (d, w): a degree d and a weight w
    that the differential keeps.  The differential maps the cell (d, w) to
    (d + step, w); step is +1 for cochains and -1 for chains.  Cells of
    degree < 0 are empty, so homology at degree 0 needs no special case.

    A subclass lists each cell's ordered basis in _basis(d, w) and gives
    either the (key, coeff) image of one basis element, _boundary(b), or
    the whole matrix, _matrix(d, w).  Terms are {basis element: coeff}.
    """

    step = 1

    def __init__(self, field: PrimeField):
        self.field = field
        self._cells = {}
        self._index = {}
        self._mats = {}
        self._solvers = {}
        self._ranks = {}
        self._hom = {}

    def cell_basis(self, d, w):
        if (d, w) not in self._cells:
            self._cells[(d, w)] = self._basis(d, w) if d >= 0 else []
        return self._cells[(d, w)]

    def index(self, d, w):
        """{basis element: its position} for one cell."""
        if (d, w) not in self._index:
            self._index[(d, w)] = {
                b: i for i, b in enumerate(self.cell_basis(d, w))}
        return self._index[(d, w)]

    def vector(self, d, w, terms):
        """The {index: coeff} vector of terms in the cell (d, w)."""
        index = self.index(d, w)
        return {index[b]: c for b, c in terms.items()}

    def combination(self, d, w, vec):
        """The terms of an {index: coeff} vector, in basis order."""
        basis = self.cell_basis(d, w)
        return {basis[i]: vec[i] for i in sorted(vec)}

    def matrix(self, d, w) -> SparseMatrix:
        """The differential from the cell (d, w) to (d + step, w)."""
        if (d, w) not in self._mats:
            self._mats[(d, w)] = self._matrix(d, w)
        return self._mats[(d, w)]

    def _matrix(self, d, w):
        src = self.cell_basis(d, w)
        index = self.index(d + self.step, w)
        entries = {}
        for j, b in enumerate(src):
            for k, c in self._boundary(b):
                entries[(index[k], j)] = c
        return SparseMatrix(len(index), len(src), entries, self.field)

    def solve(self, d, w, terms):
        """The terms of some x in the cell (d, w) with differential terms,
        or None."""
        if (d, w) not in self._solvers:
            self._solvers[(d, w)] = LinearSystem(self.matrix(d, w))
        sol = self._solvers[(d, w)].solve(self.vector(d + self.step, w, terms))
        return None if sol is None else self.combination(d, w, sol)

    def rank(self, d, w):
        """The rank of the differential out of the cell (d, w)."""
        if (d, w) not in self._ranks:
            self._ranks[(d, w)] = rank(self.matrix(d, w))
        return self._ranks[(d, w)]

    def _check_size(self, d, w):
        """Refuse a cell too large to reduce (a hook; the base accepts)."""

    def homology_dim(self, d, w):
        """dim H at (d, w) from the ranks of the two differentials, after
        the same checks as homology; no representatives are built."""
        self._check_size(d, w)
        check_composite(self.matrix(d - self.step, w), self.matrix(d, w))
        return (len(self.cell_basis(d, w)) - self.rank(d, w)
                - self.rank(d - self.step, w))

    def homology(self, d, w) -> SubquotientBasis:
        if (d, w) not in self._hom:
            self._check_size(d, w)
            self._hom[(d, w)] = cohomology_cell(
                self.matrix(d - self.step, w), self.matrix(d, w))
        return self._hom[(d, w)]

    def representatives(self, d, w):
        """The terms of the class representatives of the cell (d, w)."""
        return [self.combination(d, w, rep)
                for rep in self.homology(d, w).representatives]

    def express(self, d, w, terms):
        """Coordinates of a cycle's class in its cell's homology basis, or
        None when the terms are not a cycle."""
        return self.homology(d, w).express(self.vector(d, w, terms))
