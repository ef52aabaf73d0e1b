"""Test-only references for simplicial G-sets given by their full levels.

The package stores a simplicial G-set by its nondegenerate simplices and
lays out its full levels on first read.  Kept here are the point rules that
built those full levels directly, for generated spaces, smashes and joins,
as an oracle for the layout, and the check of every simplicial identity on
every full level, as an oracle for the check on nondegenerate simplices.
"""

from functools import partial

from eqmack.gsets import GMap
from eqmack.simplicial import (
    SimplicialGSet,
    _assemble,
    compose_monotone,
    delta,
    epi_mono,
    eta,
    surjections,
)


def full_level_check(X):
    """The equivariance of every face and degeneracy of the full levels,
    then SimplicialGSet.check on them given in full, which checks every
    simplicial identity on every level."""
    for row in X.faces + X.degens:
        for f in row:
            GMap(f.src, f.tgt, f.values)
    return SimplicialGSet(X.group, X.levels, X.faces, X.degens, X.basepoints).check()


def generated_levels(G, nd_levels, nd_faces, bound):
    """(levels, faces, degens) of build_from_generators: level n holds the
    sorted triples (m, x, sigma), and nd_faces index the level below."""
    points = [
        sorted((m, x, s) for m in range(min(n, len(nd_levels) - 1) + 1)
               for x in range(nd_levels[m].size) for s in surjections(n, m))
        for n in range(bound + 1)
    ]

    def act_total(alpha, triple):
        m, x, sigma = triple
        iota, pi = epi_mono(compose_monotone(sigma, alpha))
        if len(iota) == m + 1:
            return m, x, pi
        missing = max(v for v in range(m + 1) if v not in iota)
        iota2 = tuple(v if v < missing else v - 1 for v in iota)
        m2, x2, s2 = act_total(iota2, points[m - 1][nd_faces[m][missing][x]])
        return m2, x2, compose_monotone(s2, pi)

    full, _ = _assemble(
        G,
        points,
        lambda g, n: lambda t: (t[0], nd_levels[t[0]].action[g][t[1]], t[2]),
        lambda n, i: partial(act_total, delta(i, n)),
        lambda n, i: lambda t, e=eta(i, n): (t[0], t[1], compose_monotone(t[2], e)),
    )
    return full[:3]


def smash_levels(X, Y):
    """(levels, faces, degens, points) of X smash Y from the factors' full
    levels: the crushed basepoint None, then the pairs of non-base points."""
    bound = min(X.bound, Y.bound)
    pts = [
        [None] + [(x, y) for x in range(X.levels[n].size) if x != X.base(n)
                  for y in range(Y.levels[n].size) if y != Y.base(n)]
        for n in range(bound + 1)
    ]

    def pair_rule(m, fx, fy):
        bx, by = X.base(m), Y.base(m)
        return lambda p: None if fx[p[0]] == bx or fy[p[1]] == by else (fx[p[0]], fy[p[1]])

    full, _ = _assemble(
        X.group,
        pts,
        lambda g, n: pair_rule(n, X.levels[n].action[g], Y.levels[n].action[g]),
        lambda n, i: pair_rule(n - 1, X.faces[n][i].values, Y.faces[n][i].values),
        lambda n, i: pair_rule(n + 1, X.degens[n][i].values, Y.degens[n][i].values),
        [None] * (bound + 1),
    )
    return full[:3] + (pts,)


def join_levels(K, L):
    """(levels, faces, degens, points) of the join from the factors' full
    levels: the sorted points ("b", p, x, y), ("l", x) and ("r", y)."""
    pts = [
        sorted([("l", x) for x in range(K.levels[n].size)] + [("r", y) for y in range(L.levels[n].size)]
               + [("b", p, x, y) for p in range(n) for x in range(K.levels[p].size)
                  for y in range(L.levels[n - 1 - p].size)])
        for n in range(min(K.bound, L.bound) + 1)
    ]

    def rule(kind, n, i, p):
        side = {"face": "faces", "degen": "degens"}[kind]
        if p[0] in ("l", "r"):
            return p[0], getattr(K if p[0] == "l" else L, side)[n][i].values[p[1]]
        _, pp, x, y = p
        q = n - 1 - pp
        if kind == "degen":
            if i <= pp:
                return "b", pp + 1, K.degens[pp][i].values[x], y
            return "b", pp, x, L.degens[q][i - pp - 1].values[y]
        if i <= pp:
            return ("r", y) if pp == 0 else ("b", pp - 1, K.faces[pp][i].values[x], y)
        return ("l", x) if q == 0 else ("b", pp, x, L.faces[q][i - pp - 1].values[y])

    def act(g, n, p):
        if p[0] == "l":
            return "l", K.levels[n].action[g][p[1]]
        if p[0] == "r":
            return "r", L.levels[n].action[g][p[1]]
        return "b", p[1], K.levels[p[1]].action[g][p[2]], L.levels[n - 1 - p[1]].action[g][p[3]]

    full, _ = _assemble(
        K.group,
        pts,
        lambda g, n: partial(act, g, n),
        lambda n, i: partial(rule, "face", n, i),
        lambda n, i: partial(rule, "degen", n, i),
    )
    return full[:3] + (pts,)
