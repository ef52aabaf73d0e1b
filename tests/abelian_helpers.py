"""Test-only readings of an AbGroup presentation, and the general route of
the questions abelian answers without a reduction over free groups."""

from eqmack import intlinalg as la
from eqmack.abelian import AbGroup


def iso_eq(a, b):
    """Whether two presented groups are isomorphic: equal invariant factors."""
    return a.invariants() == b.invariants()


def nrels(g):
    """The number of relation columns of a presentation."""
    return len(g.relcols)


# -- the general route, with no shortcut over free groups ------------------------


def _heads(cols, r):
    return [{i: v for i, v in col.items() if i < r} for col in cols]


def lattice_contains(g, col):
    """Whether col lies in g's relation lattice, by solving over the relations."""
    return not col or la.ColumnReduction(g.relcols, g.ngens).solve_column(col) is not None


def general_kernel(h):
    """h's kernel group: the relations among the solutions of h x = 0, by a
    second reduction even when there are none."""
    n = h.src.ngens
    sols = _heads(la.ColumnReduction([*h.cols, *h.tgt.relcols], h.tgt.ngens).kernel_basis(), n)
    red = la.ColumnReduction([*sols, *h.src.relcols], n)
    return AbGroup.from_columns(len(sols), _heads(red.kernel_basis(), len(sols)))


def general_is_injective(h):
    return general_kernel(h).is_trivial()


def general_is_surjective(h):
    return AbGroup.from_columns(h.tgt.ngens, h.tgt.relcols + h.cols).is_trivial()


def general_same_as(h, k):
    """Whether every column of h - k lies in the target's relation lattice."""
    return all(lattice_contains(h.tgt, col) for col in (h - k).cols)
