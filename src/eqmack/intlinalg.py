"""Exact integer linear algebra: Smith normal form, kernels, solving.

Python ints throughout (arbitrary precision).  A matrix is stored as sparse
columns, one {row: value} dict per column with zeros omitted; the big,
mostly-unimodular systems of the simplicial layers are assembled, reduced
and presented as columns.  The dense form, a tuple of row tuples, is built
by dense() for snf() and the small dense helpers; columns() converts back.
Column reduction and prune_units() pivot on units first, which keeps both
fast and free of coefficient swell, so snf() sees only a small remainder.
"""

import heapq
from collections import defaultdict
from functools import lru_cache

__all__ = [
    "identity", "columns", "dense", "snf", "invariant_factors", "ColumnReduction",
    "reduction", "kernel_basis", "solve", "solve_matrix",
]


def shape(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return rows, cols


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matmul(a, b, bcols=None):
    """a times b, visiting only the nonzero entries of both."""
    m, n = shape(a)
    n2, p = shape(b)
    if bcols is not None:
        p = bcols
    if m and n2 and n != n2:
        raise ValueError("shape mismatch %s x %s" % ((m, n), (n2, p)))
    brows = [[(j, y) for j, y in enumerate(rb) if y] for rb in b]
    out = []
    for ra in a:
        row = [0] * p
        for k, x in enumerate(ra):
            if x:
                for j, y in brows[k]:
                    row[j] += x * y
        out.append(tuple(row))
    return tuple(out)


def matadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def apply(a, v):
    """Matrix times column vector (as tuple), over the nonzeros of v."""
    nz = [(k, x) for k, x in enumerate(v) if x]
    return tuple(sum(ra[k] * x for k, x in nz) for ra in a)


def columns(a, ncols):
    """The sparse columns of a dense matrix with ncols columns, in one row scan."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def dense(cols, nrows):
    """The row tuples of a matrix given by its sparse columns."""
    rows = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = x
    return tuple(map(tuple, rows))


def combine(cols, coeffs):
    """The sparse column sum of x * cols[k] over the pairs (k, x) of coeffs."""
    acc = {}
    for k, x in coeffs:
        for i, y in cols[k].items():
            acc[i] = acc.get(i, 0) + x * y
    return {i: v for i, v in acc.items() if v}


def snf(a):
    """Smith normal form: returns (d, u, v) with d = u a v, u, v unimodular,
    and the diagonal of d satisfying d1 | d2 | ... (nonnegative)."""
    m, n = shape(a)
    # one table w for all three: row i < m is d[i] + u[i] and row m + r is
    # v[r], so row operations on d carry u along and column operations v
    w = [list(r) + [int(i == k) for k in range(m)] for i, r in enumerate(a)]
    w += [[int(r == j) for j in range(n)] for r in range(n)]

    def swap_rows(i, k):
        w[i], w[k] = w[k], w[i]

    def swap_cols(j, k):
        for r in w:
            r[j], r[k] = r[k], r[j]

    def row_op(i, k, q):  # row_i -= q * row_k
        if q:
            wi, wk = w[i], w[k]
            for c in range(n + m):
                wi[c] -= q * wk[c]

    def col_op(j, k, q):  # col_j -= q * col_k
        if q:
            for r in w:
                r[j] -= q * r[k]

    t = 0
    while t < m and t < n:
        # the first entry of least absolute value in row-major order; a unit ends the scan
        piv = None
        for e in ((abs(w[i][j]), i, j) for i in range(t, m) for j in range(t, n) if w[i][j]):
            if piv is None or e < piv:
                piv = e
                if e[0] == 1:
                    break
        if piv is None:
            break
        _, i, j = piv
        if i != t:
            swap_rows(i, t)
        if j != t:
            swap_cols(j, t)
        while True:
            again = False
            for i in range(m):
                if i != t and w[i][t]:
                    row_op(i, t, w[i][t] // w[t][t])
                    if w[i][t]:
                        swap_rows(i, t)
                        again = True
            if again:
                continue
            for j in range(n):
                if j != t and w[t][j]:
                    col_op(j, t, w[t][j] // w[t][t])
                    if w[t][j]:
                        swap_cols(j, t)
                        again = True
            if not again:
                break
        t += 1

    rank = t
    for t in range(rank - 1):
        for k in range(t + 1, rank):
            if w[k][k] % w[t][t] != 0:
                col_op(t, k, -1)  # col_t += col_k
                while w[k][t]:
                    row_op(t, k, w[t][t] // w[k][t])
                    swap_rows(t, k)
                col_op(k, t, w[t][k] // w[t][t])
    for t in range(min(m, n)):
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
    d, u = (tuple(tuple(r[c]) for r in w[:m]) for c in (slice(n), slice(n, None)))
    return d, u, tuple(map(tuple, w[m:]))


def diagonal(a):
    m, n = shape(a)
    return [a[i][i] for i in range(min(m, n))]


def invariant_factors(a):
    """Nonzero SNF diagonal entries, in divisibility order."""
    d, _, _ = snf(a)
    return [x for x in diagonal(d) if x != 0]


def _rows_of(cols):
    """{row: set of the columns nonzero in it} for the (name, column) pairs cols."""
    rows_of = defaultdict(set)
    for j, col in cols:
        for i in col:
            rows_of[i].add(j)
    return rows_of


def _nonzero(col):
    """A copy of the column col without its zero entries."""
    return dict(col) if all(col.values()) else {i: x for i, x in col.items() if x}


def subtract(a, b, q):
    """a -= q * b on sparse columns, in place."""
    for i, x in b.items():
        y = a.get(i, 0) - q * x
        if y:
            a[i] = y
        elif i in a:
            del a[i]


def _subtract_tracked(cols, j, k, q, rows_of):
    """cols[j] -= q * cols[k] in place, keeping rows_of (see _rows_of) current."""
    cj = cols[j]
    for i, x in cols[k].items():
        y = cj.get(i, 0) - q * x
        if y:
            cj[i] = y
            rows_of[i].add(j)
        elif i in cj:
            del cj[i]
            rows_of[i].discard(j)


def cancel_unit(cols, rows_of, j, r):
    """Cancel the unit pair (j, r), u = cols[j][r] = +-1: clear row r from
    every other column c by cols[c] -= u cols[c][r] cols[j], then take
    column j out of cols, a dict of sparse columns, and row r out of
    rows_of, which is kept current (see _rows_of)."""
    pivot = cols[j]
    u = pivot[r]
    for i in pivot:
        rows_of[i].discard(j)
    for c in list(rows_of[r]):
        _subtract_tracked(cols, c, j, u * cols[c][r], rows_of)
    del cols[j], rows_of[r]


def prune_units(cols):
    """Remove the unit pivots of the presentation Z^n / <cols> by cancel_unit:
    each solves one generator by the others and is cleared from the other
    relations, taking short relations and sparse rows first to limit
    fill-in.  Returns (k, rest): the number of pivots removed and the dense
    matrix of the remaining nonzero relations on the rows they touch; the
    group is Z^(n - k - len(rest)) + coker(rest)."""
    cols = dict(enumerate(c for c in map(_nonzero, cols) if c))
    rows_of = _rows_of(cols.items())
    k, found = 0, True
    while found:
        found = False
        for j in sorted(cols, key=lambda j: len(cols[j])):
            units = [i for i, x in cols.get(j, {}).items() if x in (1, -1)]
            if units:
                cancel_unit(cols, rows_of, j, min(units, key=lambda i: len(rows_of[i])))
                k, found = k + 1, True
    rows, rest = sorted(i for i, js in rows_of.items() if js), [col for col in cols.values() if col]
    return k, tuple(tuple(col.get(i, 0) for col in rest) for i in rows)


class ColumnReduction:
    """Column-operation echelon form A V = H.

    Rows are processed in order; each row is either reduced to a single
    pivot entry among the still-unassigned columns or is zero there by the
    time it is reached.  Assigned pivot columns are never touched again,
    so H is a lower staircase: exact kernels and forward-substitution
    solving both fall out.
    """

    def __init__(self, cols, nrows):
        """cols: the sparse columns of A, which has nrows rows; not modified.
        A zero entry is dropped, so it is never taken as a pivot."""
        self.nrows = nrows
        self.ncols = len(cols)
        self._run([_nonzero(c) for c in cols])

    def _run(self, cols):
        ncols = self.ncols
        vcols = [{j: 1} for j in range(ncols)]
        rows_of = _rows_of(enumerate(cols))
        assigned = set()
        pivots = []  # (row, col, value) in processing order

        for row in sorted(rows_of):
            live = [j for j in rows_of.get(row, ()) if j not in assigned]
            if not live:
                continue
            # pick starting pivot: prefer unit entries, then sparse columns
            j = min(
                live, key=lambda k: (abs(cols[k][row]) != 1, len(cols[k]), k)
            )
            while True:
                others = [
                    k
                    for k in rows_of.get(row, ())
                    if k != j and k not in assigned
                ]
                if not others:
                    break
                for k in others:
                    q = cols[k][row] // cols[j][row]
                    if q:  # col_k -= q * col_j
                        _subtract_tracked(cols, k, j, q, rows_of)
                        subtract(vcols[k], vcols[j], q)
                    if row in cols[k] and abs(cols[k][row]) < abs(
                        cols[j][row]
                    ):
                        j = k
                        break
            assigned.add(j)
            pivots.append((row, j, cols[j][row]))

        self.h = cols
        self.v = vcols
        self.pivots = pivots
        self._pivot_of = {row: (j, val) for row, j, val in pivots}
        self._assigned = assigned

    def kernel_basis(self):
        """Sparse columns spanning {x : A x = 0}."""
        return [
            self.v[j]
            for j in range(self.ncols)
            if j not in self._assigned and not self.h[j]
        ]

    def solve(self, b):
        """Some x with A x = b, or None.  b has length nrows."""
        x = self.solve_column({i: v for i, v in enumerate(b) if v})
        if x is None:
            return None
        return tuple(x.get(i, 0) for i in range(self.ncols))

    def solve_column(self, b):
        """Some x with A x = b, or None; b and x as sparse columns.  A pivot
        column is zero above its pivot row, so only its own pivot clears the
        residual's smallest row, and the solve fails where none does."""
        resid = dict(b)
        rows = list(resid)
        heapq.heapify(rows)
        y = []
        while rows:
            row = heapq.heappop(rows)
            r = resid.get(row, 0)
            if r == 0:
                continue
            pivot = self._pivot_of.get(row)
            if pivot is None or r % pivot[1] != 0:
                return None
            j, val = pivot
            q = r // val
            y.append((j, q))
            col = self.h[j]
            for i in col:
                if i not in resid:
                    heapq.heappush(rows, i)
            subtract(resid, col, q)
        return combine(self.v, y)


@lru_cache(maxsize=None)
def _reduction(a, nrows, ncols):
    return ColumnReduction(columns(a, ncols), nrows)


def reduction(a, nrows=None, ncols=None):
    if nrows is None:
        nrows, ncols = shape(a)
    return _reduction(a, nrows, ncols)


def kernel_basis(a, nrows=None, ncols=None):
    red = reduction(a, nrows, ncols)
    return dense(red.kernel_basis(), red.ncols)


def solve(a, b):
    return reduction(a).solve(tuple(b))


def solve_matrix(a, b, nrows=None, ncols=None):
    """X with A X = B, or None; B given as a dense matrix."""
    red = reduction(a, nrows, ncols)
    xs = [red.solve_column(col) for col in columns(b[: red.nrows], shape(b)[1])]
    return None if None in xs else dense(xs, red.ncols)
