"""Exact integer linear algebra: Smith normal form, kernels, solving.

Matrices are tuples of row tuples of Python ints (arbitrary precision).
The column-reduction engine keeps sparse columns and prefers unit pivots,
which keeps the big, mostly-unimodular systems produced by simplicial
constraints fast and free of coefficient swell.
"""

from __future__ import annotations

from functools import lru_cache


Matrix = tuple  # tuple[tuple[int, ...], ...]


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
    m, n = shape(a)
    n2, p = shape(b)
    if bcols is not None:
        p = bcols
    if m and n2 and n != n2:
        raise ValueError("shape mismatch %s x %s" % ((m, n), (n2, p)))
    if not m:
        return ()
    if not n:
        return zeros(m, p)
    bt = transpose(b, p)
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt) for ra in a
    )


def matadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def matneg(a):
    return tuple(tuple(-x for x in ra) for ra in a)


def hstack(a, b):
    if not a:
        return b
    if not b:
        return a
    assert len(a) == len(b)
    return tuple(ra + rb for ra, rb in zip(a, b))


def apply(a, v):
    """Matrix times column vector (as tuple)."""
    return tuple(sum(ra[k] * v[k] for k in range(len(v))) for ra in a)


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

    def __init__(self, a, nrows=None, ncols=None):
        if nrows is None:
            nrows, ncols = shape(a)
        self.nrows = nrows
        self.ncols = ncols
        cols = []
        for j in range(ncols):
            col = {}
            for i in range(nrows):
                x = a[i][j]
                if x:
                    col[i] = x
            cols.append(col)
        self._run(cols)

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
        """Columns spanning {x : A x = 0}, as an ncols x k matrix."""
        ker = [
            self.v[j]
            for j in range(self.ncols)
            if j not in self._assigned and not self.h[j]
        ]
        return tuple(
            tuple(col.get(i, 0) for col in ker) for i in range(self.ncols)
        )

    def solve(self, b):
        """Some x with A x = b, or None.  b has length nrows."""
        resid = {}
        for i, x in enumerate(b):
            if x:
                resid[i] = x
        y = {}
        for row, j, val in self.pivots:
            r = resid.get(row, 0)
            if r == 0:
                continue
            if r % val != 0:
                return None
            q = r // val
            y[j] = q
            for i, x in self.h[j].items():
                nv = resid.get(i, 0) - q * x
                if nv:
                    resid[i] = nv
                elif i in resid:
                    del resid[i]
        if resid:
            return None
        x = [0] * self.ncols
        for j, q in y.items():
            for i, val in self.v[j].items():
                x[i] += q * val
        return tuple(x)

    def solve_matrix(self, b, bcols=None):
        """X with A X = B, or None; B given as a dense matrix."""
        if bcols is None:
            _, bcols = shape(b)
        sols = []
        for j in range(bcols):
            col = tuple(b[i][j] for i in range(self.nrows))
            x = self.solve(col)
            if x is None:
                return None
            sols.append(x)
        return tuple(tuple(s[i] for s in sols) for i in range(self.ncols))


@lru_cache(maxsize=None)
def _reduction(a, nrows, ncols):
    return ColumnReduction(a, nrows, ncols)


def reduction(a, nrows=None, ncols=None):
    if nrows is None:
        nrows, ncols = shape(a)
    return _reduction(a, nrows, ncols)


def kernel_basis(a, nrows=None, ncols=None):
    return reduction(a, nrows, ncols).kernel_basis()


def solve(a, b):
    return reduction(a).solve(tuple(b))


def solve_matrix(a, b, nrows=None, ncols=None):
    return reduction(a, nrows, ncols).solve_matrix(b)
