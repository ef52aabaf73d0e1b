"""Test-only readings of an AbGroup presentation."""


def iso_eq(a, b):
    """Whether two presented groups are isomorphic: equal invariant factors."""
    return a.invariants() == b.invariants()


def nrels(g):
    """The number of relation columns of a presentation."""
    return len(g.relcols)
