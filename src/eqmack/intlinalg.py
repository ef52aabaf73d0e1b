"""Exact integer linear algebra: Smith normal form, kernels, solving.

Python ints throughout (arbitrary precision).  A matrix has two forms.  The
API form is a tuple of row tuples.  The reduction input is a list of sparse
columns, one {row: value} dict per column with zeros omitted: the big,
mostly-unimodular constraint systems of the simplicial layers are assembled
as columns and never made dense.  columns() and dense() convert.  The
column-reduction engine prefers unit pivots, which keeps those systems fast
and free of coefficient swell.
"""

from __future__ import annotations

from functools import lru_cache


def shape(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return rows, cols


def zeros(m, n):
    return tuple(tuple(0 for _ in range(n)) for _ in range(m))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a, ncols=None):
    m, n = shape(a)
    if ncols is not None:
        n = ncols
    return tuple(tuple(a[i][j] for i in range(m)) for j in range(n))


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


def hstack(a, b):
    if not a:
        return b
    if not b:
        return a
    if len(a) != len(b):
        raise ValueError("hstack of %d and %d rows" % (len(a), len(b)))
    return tuple(ra + rb for ra, rb in zip(a, b))


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


def is_zero(a):
    return all(all(x == 0 for x in r) for r in a)


def snf(a):
    """Smith normal form: returns (d, u, v) with d = u a v, u, v unimodular,
    and the diagonal of d satisfying d1 | d2 | ... (nonnegative)."""
    m, n = shape(a)
    d = [list(r) for r in a]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for r in range(m):
            d[r][j], d[r][k] = d[r][k], d[r][j]
        for r in range(n):
            v[r][j], v[r][k] = v[r][k], v[r][j]

    def row_op(i, k, q):  # row_i -= q * row_k
        if q:
            dk, di = d[k], d[i]
            for c in range(n):
                di[c] -= q * dk[c]
            uk, ui = u[k], u[i]
            for c in range(m):
                ui[c] -= q * uk[c]

    def col_op(j, k, q):  # col_j -= q * col_k
        if q:
            for r in range(m):
                d[r][j] -= q * d[r][k]
            for r in range(n):
                v[r][j] -= q * v[r][k]

    t = 0
    while t < m and t < n:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x:
                    ax = abs(x)
                    if best is None or ax < best:
                        best = ax
                        piv = (i, j)
                        if ax == 1:
                            break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        if i != t:
            swap_rows(i, t)
        if j != t:
            swap_cols(j, t)
        while True:
            again = False
            for i in range(m):
                if i != t and d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t]:
                        swap_rows(i, t)
                        again = True
            if again:
                continue
            for j in range(n):
                if j != t and d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j]:
                        swap_cols(j, t)
                        again = True
            if not again:
                break
        t += 1

    rank = t
    for t in range(rank - 1):
        for k in range(t + 1, rank):
            if d[k][k] % d[t][t] != 0:
                col_op(t, k, -1)  # col_t += col_k
                while d[k][t]:
                    q = d[t][t] // d[k][t]
                    row_op(t, k, q)
                    swap_rows(t, k)
                col_op(k, t, d[t][k] // d[t][t])
    for t in range(min(m, n)):
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return (
        tuple(tuple(r) for r in d),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
    )


def diagonal(a):
    m, n = shape(a)
    return [a[i][i] for i in range(min(m, n))]


def invariant_factors(a):
    """Nonzero SNF diagonal entries, in divisibility order."""
    d, _, _ = snf(a)
    return [x for x in diagonal(d) if x != 0]


class ColumnReduction:
    """Column-operation echelon form A V = H.

    Rows are processed in order; each row is either reduced to a single
    pivot entry among the still-unassigned columns or is zero there by the
    time it is reached.  Assigned pivot columns are never touched again,
    so H is a lower staircase: exact kernels and forward-substitution
    solving both fall out.
    """

    def __init__(self, cols, nrows):
        """cols: the sparse columns of A, which has nrows rows; not modified."""
        self.nrows = nrows
        self.ncols = len(cols)
        self._run([dict(c) for c in cols])

    def _run(self, cols):
        ncols = self.ncols
        vcols = [{j: 1} for j in range(ncols)]
        rows_of = {}
        for j, col in enumerate(cols):
            for i in col:
                rows_of.setdefault(i, set()).add(j)
        assigned = set()
        pivots = []  # (row, col, value) in processing order

        def addmul(j, k, q):
            # col_j -= q * col_k
            if q == 0:
                return
            cj, ck = cols[j], cols[k]
            for i, x in list(ck.items()):
                y = cj.get(i, 0) - q * x
                if y:
                    cj[i] = y
                    rows_of.setdefault(i, set()).add(j)
                else:
                    if i in cj:
                        del cj[i]
                        rows_of[i].discard(j)
            vj, vk = vcols[j], vcols[k]
            for i, x in vk.items():
                y = vj.get(i, 0) - q * x
                if y:
                    vj[i] = y
                elif i in vj:
                    del vj[i]

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
                    addmul(k, j, q)
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
        """Some x with A x = b, or None; b and x as sparse columns."""
        resid = dict(b)
        y = []
        for row, j, val in self.pivots:
            r = resid.get(row, 0)
            if r == 0:
                continue
            if r % val != 0:
                return None
            q = r // val
            y.append((j, q))
            for i, x in self.h[j].items():
                nv = resid.get(i, 0) - q * x
                if nv:
                    resid[i] = nv
                elif i in resid:
                    del resid[i]
        if resid:
            return None
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
