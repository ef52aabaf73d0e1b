import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmack import intlinalg as la


def test_snf_identity():
    a = la.identity(3)
    d, u, v = la.snf(a)
    assert d == la.identity(3)
    assert la.matmul(la.matmul(u, a), v) == d


def test_snf_example():
    a = ((2, 4), (6, 8))
    d, u, v = la.snf(a)
    assert la.diagonal(d) == [2, 4]
    assert la.matmul(la.matmul(u, a), v) == d


def test_snf_zero():
    a = la.zeros(2, 3)
    d, u, v = la.snf(a)
    assert la.is_zero(d)


def test_snf_divisibility_and_recomposition():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(0, 5)
        n = rng.randrange(0, 5)
        a = tuple(
            tuple(rng.randrange(-6, 7) for _ in range(n)) for _ in range(m)
        )
        d, u, v = la.snf(a)
        assert la.matmul(la.matmul(u, a), v) == d
        diag = [x for x in la.diagonal(d) if x]
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        # off-diagonal zero
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        # unimodularity via integer inverses
        if m:
            assert la.solve_matrix(u, la.identity(m)) is not None
        if n:
            assert la.solve_matrix(v, la.identity(n)) is not None


def test_kernel_and_solve():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randrange(0, 6)
        n = rng.randrange(0, 6)
        a = tuple(
            tuple(rng.randrange(-4, 5) for _ in range(n)) for _ in range(m)
        )
        k = la.kernel_basis(a)
        ncols = len(k[0]) if k else 0
        for j in range(ncols):
            col = tuple(k[i][j] for i in range(n))
            assert all(x == 0 for x in la.apply(a, col)) or m == 0
        # solve a known-consistent system
        x0 = tuple(rng.randrange(-3, 4) for _ in range(n))
        b = la.apply(a, x0) if m else ()
        x = la.reduction(a, m, n).solve(b)
        assert x is not None
        if m:
            assert la.apply(a, x) == b


def test_solve_detects_inconsistency():
    a = ((2, 0), (0, 2))
    assert la.solve(a, (1, 0)) is None
    assert la.solve(a, (2, -4)) == (1, -2)


def test_kernel_rank_via_random_rect():
    a = ((1, 2, 3), (2, 4, 6))
    k = la.kernel_basis(a)
    assert len(k) == 3 and len(k[0]) == 2
    for j in range(2):
        col = tuple(k[i][j] for i in range(3))
        assert la.apply(a, col) == (0, 0)


@st.composite
def matrices(draw, rows, cols):
    """Sparse or dense integer matrices, some rows and columns zeroed."""
    if draw(st.booleans()):
        entry = st.sampled_from((0, 0, 0, 0, 1, -1, 7))
    else:
        entry = st.integers(-9, 9)
    mat = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)) if rows else ():
        mat[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else ():
        for row in mat:
            row[j] = 0
    return tuple(tuple(r) for r in mat)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_products_match_naive_triple_loop(m, n, p, data):
    a = data.draw(matrices(m, n))
    b = data.draw(matrices(n, p))
    v = data.draw(matrices(1, n))[0]
    naive = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(p))
        for i in range(m)
    )
    assert la.matmul(a, b, p) == naive
    if n:  # with rows, b shows its own width
        assert la.matmul(a, b) == naive
    assert la.apply(a, v) == tuple(
        sum(a[i][k] * v[k] for k in range(n)) for i in range(m)
    )
    if m:
        n2 = data.draw(st.integers(1, 6).filter(lambda k: k != n))
        with pytest.raises(ValueError):
            la.matmul(a, la.zeros(n2, p), p)
        with pytest.raises(ValueError):
            la.matmul(a, data.draw(matrices(n2, p)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_invariant_factors_match_sympy(m, n, data):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    a = data.draw(matrices(m, n))
    expected = [int(d) for d in invariant_factors(sympy.Matrix(a), domain=sympy.ZZ) if d]
    assert la.invariant_factors(a) == expected


def dense_scan_reduction(a, nrows, ncols):
    """Reference: the dense entry the reduction once had, which scanned the
    matrix column by column (a[i][j]) into its working columns."""
    red = la.ColumnReduction.__new__(la.ColumnReduction)
    red.nrows, red.ncols = nrows, ncols
    red._run([{i: a[i][j] for i in range(nrows) if a[i][j]} for j in range(ncols)])
    return red


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_reduction_from_columns_matches_the_dense_scan(m, n, data):
    a = data.draw(matrices(m, n))
    ref = dense_scan_reduction(a, m, n)
    cols = la.columns(a, n)
    assert la.dense(cols, m) == a
    # block assembly leaves column keys in no particular order
    shuffled = [dict(reversed(list(col.items()))) for col in cols]
    for red in (la.ColumnReduction(shuffled, m), la.reduction(a, m, n)):
        assert (red.nrows, red.ncols) == (m, n)
        assert (red.pivots, red.h, red.v) == (ref.pivots, ref.h, ref.v)
    assert shuffled == cols  # the reduction works on copies
    # a consistent right-hand side, given and solved as sparse columns
    b = la.apply(a, data.draw(matrices(1, n))[0]) if n else (0,) * m
    x = la.ColumnReduction(cols, m).solve_column({i: v for i, v in enumerate(b) if v})
    assert la.apply(a, tuple(x.get(j, 0) for j in range(n))) == b
