"""Test-only references for simplicial G-sets given by their full levels.

The package stores a simplicial G-set by its nondegenerate simplices and
lays out its full levels on first read.  Kept here are the point rules that
built those full levels directly, for generated spaces, smashes, joins,
wedges and quotients, as an oracle for the layout, the check of every
simplicial identity on every full level, as an oracle for the check on
nondegenerate simplices, and maps given by a rule on full-level points.
"""

from functools import partial

from eqmack.gsets import GMap, GSet
from eqmack.simplicial import (
    SimplicialError,
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


def relabelled(X, perms):
    """X given by its full levels with the level-n point p renamed
    perms[n][p], checked.  Renaming at one level and not the next makes
    the degeneracies, and so the copies s^* ND_k in a full level, run out
    of the order of the nondegenerate simplices."""

    def rename(values, n_src, n_tgt):
        out = [None] * len(values)
        for p, q in enumerate(values):
            out[perms[n_src][p]] = perms[n_tgt][q]
        return tuple(out)

    levels = tuple(
        GSet(X.group, lv.size, tuple(rename(row, n, n) for row in lv.action))
        for n, lv in enumerate(X.levels)
    )
    faces = tuple(
        tuple(GMap(levels[n], levels[n - 1], rename(f.values, n, n - 1)) for f in row)
        for n, row in enumerate(X.faces)
    )
    degens = tuple(
        tuple(GMap(levels[n], levels[n + 1], rename(f.values, n, n + 1)) for f in row)
        for n, row in enumerate(X.degens)
    )
    base = X.basepoints and tuple(perms[n][p] for n, p in enumerate(X.basepoints))
    return SimplicialGSet(X.group, levels, faces, degens, base).check()


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


class FullLevelMap:
    """A simplicial map given by its full levels: comps holds a GMap per
    level."""

    def __init__(self, src, tgt, comps):
        self.src, self.tgt, self.comps = src, tgt, comps


def levelwise(X, Y, rule):
    """The map X -> Y sending the level-n point p to the point rule(n, p) of
    Y_n, checked on every full level: equivariance, faces, degeneracies and
    basepoint."""
    b = min(X.bound, Y.bound)
    f = tuple(GMap(X.levels[n], Y.levels[n], tuple(rule(n, p) for p in range(X.levels[n].size)))
              for n in range(b + 1))
    for n in range(1, b + 1):
        for i in range(n + 1):
            if Y.face(n, i).compose(f[n]) != f[n - 1].compose(X.face(n, i)):
                raise SimplicialError("map does not commute with d_%d" % i)
    for n in range(b):
        for i in range(n + 1):
            if Y.degen(n, i).compose(f[n]) != f[n + 1].compose(X.degen(n, i)):
                raise SimplicialError("map does not commute with s_%d" % i)
    if X.based and Y.based and any(f[n].values[X.base(n)] != Y.base(n) for n in range(b + 1)):
        raise SimplicialError("map is not based")
    return FullLevelMap(X, Y, f)


def full_level_wedge(X, Y):
    """(X v Y, incl_x, incl_y) laid out from the factors' full levels: the
    crushed basepoint None, then ("l", x) and ("r", y) for the non-base
    points."""
    bound = min(X.bound, Y.bound)
    pts = [
        [None] + [("l", x) for x in range(X.levels[n].size) if x != X.base(n)]
        + [("r", y) for y in range(Y.levels[n].size) if y != Y.base(n)]
        for n in range(bound + 1)
    ]

    def side_rule(m, fx, fy):
        bx, by = X.base(m), Y.base(m)

        def rule(p):
            f, b = (fx, bx) if p[0] == "l" else (fy, by)
            v = f[p[1]]
            return None if v == b else (p[0], v)

        return rule

    full, index = _assemble(
        X.group,
        pts,
        lambda g, n: side_rule(n, X.levels[n].action[g], Y.levels[n].action[g]),
        lambda n, i: side_rule(n - 1, X.faces[n][i].values, Y.faces[n][i].values),
        lambda n, i: side_rule(n + 1, X.degens[n][i].values, Y.degens[n][i].values),
        [None] * (bound + 1),
    )
    out = SimplicialGSet(X.group, *full)
    incl_x = levelwise(X, out, lambda n, x: index[n][None if x == X.base(n) else ("l", x)])
    incl_y = levelwise(Y, out, lambda n, y: index[n][None if y == Y.base(n) else ("r", y)])
    return out, incl_x, incl_y


def full_level_collapse(X, subcomplex_points):
    """(X / A, projection) for a G-stable subcomplex given as per-level
    point sets, laid out from X's full levels: the crushed class None, then
    the points off A in order.  The subcomplex must contain the basepoints
    and be closed under faces, degeneracies and the action."""
    G, bound = X.group, X.bound
    subs = [frozenset(s) for s in subcomplex_points]
    for n in range(bound + 1):
        if any(X.levels[n].action[g][p] not in subs[n] for p in subs[n] for g in G.elements()):
            raise SimplicialError("subcomplex is not G-stable")
        if n and any(X.faces[n][i].values[p] not in subs[n - 1] for i in range(n + 1) for p in subs[n]):
            raise SimplicialError("subcomplex not closed under faces")
        if n < bound and any(
            X.degens[n][i].values[p] not in subs[n + 1] for i in range(n + 1) for p in subs[n]
        ):
            raise SimplicialError("subcomplex not closed under degeneracies")
        if X.based and X.base(n) not in subs[n]:
            raise SimplicialError("subcomplex must contain the basepoint")
    pts = [[None] + [p for p in range(X.levels[n].size) if p not in subs[n]] for n in range(bound + 1)]

    def crush_rule(m, f):
        return lambda p: None if f[p] in subs[m] else f[p]

    full, index = _assemble(
        G,
        pts,
        lambda g, n: crush_rule(n, X.levels[n].action[g]),
        lambda n, i: crush_rule(n - 1, X.faces[n][i].values),
        lambda n, i: crush_rule(n + 1, X.degens[n][i].values),
        [None] * (bound + 1),
    )
    out = SimplicialGSet(G, *full).check()
    return out, levelwise(X, out, lambda n, p: index[n][None if p in subs[n] else p])
