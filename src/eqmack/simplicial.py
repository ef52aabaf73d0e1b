"""Truncated simplicial G-sets: spheres, smashes, joins, fixed points.

A simplicial G-set is stored as one GSet per level together with face and
degeneracy GMaps, truncated at a dimension bound.  The generating builder
takes nondegenerate simplices with face tables and fills in degeneracies
via the unique (generator, surjection) normal form; derived constructions
(smash, join, collapse) work on full levels directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .groups import FiniteGroup, cached_hash
from .gsets import GMap, GSet, fixed_points


class SimplicialError(ValueError):
    pass


DEFAULT_BOUND = 4


# -- monotone map combinatorics ------------------------------------------------


def delta(i, n):
    """The injection [n-1] -> [n] skipping i."""
    return tuple(v if v < i else v + 1 for v in range(n))


def eta(i, n):
    """The surjection [n+1] -> [n] repeating i."""
    return tuple(v if v <= i else v - 1 for v in range(n + 2))


def compose_monotone(f, g):
    """f o g for value-tuple maps."""
    return tuple(f[v] for v in g)


def is_identity(f):
    return f == tuple(range(len(f)))


def epi_mono(tau):
    """Factor tau = iota o pi with pi surjective and iota injective."""
    image = sorted(set(tau))
    pos = {v: i for i, v in enumerate(image)}
    pi = tuple(pos[v] for v in tau)
    return tuple(image), pi


@lru_cache(maxsize=None)
def surjections(n, m):
    """All monotone surjections [n] -> [m], lexicographically ordered."""
    if m > n:
        return ()
    out = []
    for jumps in itertools.combinations(range(1, n + 1), m):
        vals = []
        cur = 0
        for i in range(n + 1):
            if i in jumps:
                cur += 1
            vals.append(cur)
        out.append(tuple(vals))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def monotones(n, m):
    """All monotone maps [n] -> [m]."""
    return tuple(
        t
        for t in itertools.combinations_with_replacement(range(m + 1), n + 1)
    )


# -- the core container --------------------------------------------------------


@cached_hash
@dataclass(frozen=True)
class SimplicialGSet:
    group: FiniteGroup
    levels: tuple  # GSet per degree 0..bound
    faces: tuple  # faces[n][i]: GMap levels[n] -> levels[n-1]; faces[0] = ()
    degens: tuple  # degens[n][i]: GMap levels[n] -> levels[n+1]; last entry ()
    basepoints: tuple = None  # per-level basepoint index, or None if unbased

    @property
    def bound(self):
        return len(self.levels) - 1

    @property
    def based(self):
        return self.basepoints is not None

    def level(self, n):
        return self.levels[n]

    def face(self, n, i):
        return self.faces[n][i]

    def degen(self, n, i):
        return self.degens[n][i]

    def base(self, n):
        return self.basepoints[n]

    def check(self):
        b = self.bound
        for n in range(b + 1):
            if len(self.faces[n]) != (n + 1 if n else 0):
                raise SimplicialError("level %d needs %d faces" % (n, n + 1))
            if n < b and len(self.degens[n]) != n + 1:
                raise SimplicialError("level %d needs %d degeneracies" % (n, n + 1))
        for n in range(2, b + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = self.face(n - 1, i).compose(self.face(n, j))
                    rhs = self.face(n - 1, j - 1).compose(self.face(n, i))
                    if lhs.values != rhs.values:
                        raise SimplicialError("d_i d_j fails at level %d" % n)
        for n in range(b - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = self.degen(n + 1, j + 1).compose(self.degen(n, i))
                    rhs = self.degen(n + 1, i).compose(self.degen(n, j))
                    if lhs.values != rhs.values:
                        raise SimplicialError("s_i s_j fails at level %d" % n)
        for n in range(b):
            for j in range(n + 1):
                for i in range(n + 2):
                    comp = self.face(n + 1, i).compose(self.degen(n, j))
                    if i == j or i == j + 1:
                        if comp.values != tuple(range(self.levels[n].size)):
                            raise SimplicialError("d_i s_j != id at level %d" % n)
                    elif i < j:
                        rhs = self.degen(n - 1, j - 1).compose(self.face(n, i))
                        if comp.values != rhs.values:
                            raise SimplicialError("d_i s_j fails at level %d" % n)
                    else:
                        rhs = self.degen(n - 1, j).compose(self.face(n, i - 1))
                        if comp.values != rhs.values:
                            raise SimplicialError("d_i s_j fails at level %d" % n)
        if self.based:
            G = self.group
            for n in range(b + 1):
                p = self.base(n)
                for g in G.elements():
                    if self.levels[n].action[g][p] != p:
                        raise SimplicialError("basepoint must be G-fixed")
            for n in range(b):
                for i in range(n + 1):
                    if self.degen(n, i).values[self.base(n)] != self.base(n + 1):
                        raise SimplicialError("basepoint must be closed under degeneracies")
        return self

    def degenerate_flags(self, n):
        """True where a level-n point is degenerate."""
        return _degenerate_flags(self, n)

    def nondegenerate(self, n):
        flags = self.degenerate_flags(n)
        return tuple(p for p in range(self.levels[n].size) if not flags[p])

    def operator(self, alpha, n_src, n_tgt):
        """The simplicial operator alpha*: level n_tgt -> level n_src for a
        monotone alpha: [n_src] -> [n_tgt], as a point table."""
        iota, pi = epi_mono(alpha)
        k = len(iota) - 1
        vals = list(range(self.levels[n_tgt].size))
        cur = n_tgt
        miss = [v for v in range(n_tgt + 1) if v not in iota]
        for j in sorted(miss, reverse=True):
            vals = [self.faces[cur][j].values[v] for v in vals]
            cur -= 1
        assert cur == k
        # now apply the degeneracies encoded by pi: [n_src] ->> [k]
        word = degeneracy_word(pi)
        for i in word:
            vals = [self.degens[cur][i].values[v] for v in vals]
            cur += 1
        assert cur == n_src
        return tuple(vals)

    def as_based(self, base_vertex):
        """Re-declare an unbased object as based at a fixed vertex."""
        pts = [base_vertex]
        for n in range(self.bound):
            pts.append(self.degens[n][0].values[pts[-1]])
        out = SimplicialGSet(
            self.group, self.levels, self.faces, self.degens, tuple(pts)
        )
        return out.check()


def degeneracy_word(pi):
    """pi = s-word: indices i_1 <= ... applied left to right give pi*.

    For a surjection pi: [n] ->> [k], returns the list of degeneracy indices
    (each applied to one level up) whose composite realizes pi, ordered so
    that applying degens[cur][i] successively from level k reaches level n.
    """
    word = []
    cur = tuple(pi)
    while not is_identity(cur):
        # find a repeat position and strip the outermost (largest) one
        i = max(j for j in range(len(cur) - 1) if cur[j] == cur[j + 1])
        word.append(i)
        cur = cur[:i] + cur[i + 1 :]
    word.reverse()  # eta indices from bottom level to top
    return word


@lru_cache(maxsize=None)
def _degenerate_flags(X, n):
    size = X.levels[n].size
    flags = [False] * size
    if n == 0:
        return tuple(flags)
    for i in range(n):
        s = X.degens[n - 1][i]
        d = X.faces[n][i]
        for p in range(size):
            if s.values[d.values[p]] == p:
                flags[p] = True
    return tuple(flags)


# -- generation from nondegenerate data ----------------------------------------


def build_from_generators(G, nd_levels, nd_faces, bound=DEFAULT_BOUND, base_vertex=None):
    """Assemble a simplicial G-set from nondegenerate simplices.

    nd_levels: list of GSets (level m holds the nondegenerate m-simplices).
    nd_faces: nd_faces[m][i][x] = index into the generated full level m-1,
    for m >= 1.  Degeneracies are formal: full level n consists of the
    triples (m, x, sigma) with sigma: [n] ->> [m] monotone surjective.
    """
    ndmax = len(nd_levels) - 1
    points = []  # per level: sorted list of triples
    index = []  # per level: triple -> index
    for n in range(bound + 1):
        pts = []
        for m in range(min(n, ndmax) + 1):
            for x in range(nd_levels[m].size):
                for s in surjections(n, m):
                    pts.append((m, x, s))
        pts.sort()
        points.append(pts)
        index.append({p: i for i, p in enumerate(pts)})

    def decode(level, idx):
        return points[level][idx]

    def act_total(triple, alpha):
        """alpha* applied to a full-level point."""
        m, x, sigma = triple
        tau = compose_monotone(sigma, alpha)
        iota, pi = epi_mono(tau)
        m2, x2, sigma2 = act_generator(m, x, iota)
        return (m2, x2, compose_monotone(sigma2, pi))

    def act_generator(m, x, iota):
        """iota*: injective iota: [k] -> [m] applied to a generator."""
        if is_identity(iota) and len(iota) == m + 1:
            return (m, x, tuple(range(m + 1)))
        missing = max(v for v in range(m + 1) if v not in iota)
        iota2 = tuple(v if v < missing else v - 1 for v in iota)
        fidx = nd_faces[m][missing][x]
        return act_total(decode(m - 1, fidx), iota2)

    levels = []
    for n in range(bound + 1):
        pts = points[n]
        idx = index[n]
        action = tuple(
            tuple(idx[(m, nd_levels[m].action[g][x], s)] for (m, x, s) in pts)
            for g in G.elements()
        )
        levels.append(GSet(G, len(pts), action))

    faces = [()]
    for n in range(1, bound + 1):
        row = []
        for i in range(n + 1):
            al = delta(i, n)
            vals = tuple(index[n - 1][act_total(t, al)] for t in points[n])
            row.append(GMap(levels[n], levels[n - 1], vals))
        faces.append(tuple(row))

    degens = []
    for n in range(bound):
        row = []
        for i in range(n + 1):
            e = eta(i, n)
            vals = tuple(
                index[n + 1][(m, x, compose_monotone(s, e))]
                for (m, x, s) in points[n]
            )
            row.append(GMap(levels[n], levels[n + 1], vals))
        degens.append(tuple(row))
    degens.append(())

    basepoints = None
    if base_vertex is not None:
        basepoints = tuple(
            index[n][(0, base_vertex, surjections(n, 0)[0])]
            for n in range(bound + 1)
        )
    out = SimplicialGSet(
        G, tuple(levels), tuple(faces), tuple(degens), basepoints
    )
    return out.check()


# -- maps of simplicial G-sets --------------------------------------------------


@dataclass(frozen=True)
class SimplicialGMap:
    src: SimplicialGSet
    tgt: SimplicialGSet
    comps: tuple  # GMap per level

    def comp(self, n):
        return self.comps[n]

    def check(self):
        b = min(self.src.bound, self.tgt.bound)
        for n in range(1, b + 1):
            for i in range(n + 1):
                lhs = self.tgt.face(n, i).compose(self.comps[n])
                rhs = self.comps[n - 1].compose(self.src.face(n, i))
                if lhs.values != rhs.values:
                    raise SimplicialError("map does not commute with d_%d" % i)
        for n in range(b):
            for i in range(n + 1):
                lhs = self.tgt.degen(n, i).compose(self.comps[n])
                rhs = self.comps[n + 1].compose(self.src.degen(n, i))
                if lhs.values != rhs.values:
                    raise SimplicialError("map does not commute with s_%d" % i)
        if self.src.based and self.tgt.based:
            for n in range(b + 1):
                if self.comps[n].values[self.src.base(n)] != self.tgt.base(n):
                    raise SimplicialError("map is not based")
        return self

    @staticmethod
    def identity(x):
        return SimplicialGMap(
            x, x, tuple(GMap.identity(l) for l in x.levels)
        )


# -- basic spaces ---------------------------------------------------------------


def point_space(G, bound=DEFAULT_BOUND):
    from .gsets import point_gset

    pt = point_gset(G)
    return build_from_generators(G, [pt], [None], bound=bound, base_vertex=0)


def s0_space(G, bound=DEFAULT_BOUND):
    from .gsets import trivial_gset

    v = trivial_gset(G, 2)
    return build_from_generators(G, [v], [None], bound=bound, base_vertex=0)


def circle_space(G, bound=DEFAULT_BOUND):
    """Minimal based circle with trivial action: one vertex, one edge."""
    from .gsets import trivial_gset

    v = trivial_gset(G, 1)
    e = trivial_gset(G, 1)
    faces1 = [(0,), (0,)]  # both ends at the vertex
    return build_from_generators(
        G, [v, e], [None, faces1], bound=bound, base_vertex=0
    )


def sign_circle(G, kernel, bound=DEFAULT_BOUND):
    """Two fixed vertices, two edges swapped through G -> G/kernel = C2.

    Edges run from the second vertex to the basepoint: both faces d_0 land
    on the basepoint's side, giving the boundary -transfer in chains.
    """
    ker = frozenset(kernel)
    if len(ker) * 2 != G.order:
        raise SimplicialError("sign sphere needs an index-2 kernel")
    v = GSet(G, 2, tuple((0, 1) for _ in G.elements()))
    e_action = tuple(
        ((0, 1) if g in ker else (1, 0)) for g in G.elements()
    )
    e = GSet(G, 2, e_action)
    faces1 = [(0, 0), (1, 1)]  # d_0 = base vertex, d_1 = the other vertex
    return build_from_generators(G, [v, e], [None, faces1], bound=bound, base_vertex=0)


def rotation_sphere(G, n, k, bound=DEFAULT_BOUND):
    """Unreduced suspension of the n-gon rotated by k, based at a cone point."""
    if G.order != n:
        raise SimplicialError("rotation sphere needs the cyclic group C%d" % n)
    gen = next(
        (g for g in G.elements() if G.element_order(g) == n), None
    )
    if gen is None:
        raise SimplicialError("group is not cyclic of order %d" % n)
    # order elements as powers of the generator
    powers = [G.identity]
    for _ in range(n - 1):
        powers.append(G.mul[powers[-1]][gen])
    expo = {g: i for i, g in enumerate(powers)}
    vert = GSet(
        G,
        n,
        tuple(
            tuple((expo[g] * k + v) % n for v in range(n)) for g in G.elements()
        ),
    )
    edge = vert  # same free rotation action on edges
    # edge i runs from vertex i to vertex i+1
    ngon = build_from_generators(
        G,
        [vert, edge],
        [None, [tuple((i + 1) % n for i in range(n)), tuple(range(n))]],
        bound=bound,
    )
    from .gsets import trivial_gset

    poles = build_from_generators(
        G, [trivial_gset(G, 2)], [None], bound=bound
    )
    j = join(ngon, poles)
    basevertex = j._join_points[0].index(("r", 0))  # first cone point
    return j.as_based(basevertex)


def join(K, L):
    """The join of two unbased simplicial G-sets."""
    G = K.group
    bound = min(K.bound, L.bound)
    pts = []
    for n in range(bound + 1):
        level = []
        for x in range(K.levels[n].size):
            level.append(("l", x))
        for y in range(L.levels[n].size):
            level.append(("r", y))
        for p in range(n):
            q = n - 1 - p
            for x in range(K.levels[p].size):
                for y in range(L.levels[q].size):
                    level.append(("b", p, x, y))
        level.sort()
        pts.append(level)
    index = [{p: i for i, p in enumerate(lv)} for lv in pts]

    def face_point(n, i, p):
        if p[0] == "l":
            return ("l", K.faces[n][i].values[p[1]]) if n else None
        if p[0] == "r":
            return ("r", L.faces[n][i].values[p[1]]) if n else None
        _, pp, x, y = p
        q = n - 1 - pp
        if i <= pp:
            if pp == 0:
                return ("r", y)
            return ("b", pp - 1, K.faces[pp][i].values[x], y)
        j = i - pp - 1
        if q == 0:
            return ("l", x)
        return ("b", pp, x, L.faces[q][j].values[y])

    def degen_point(n, i, p):
        if p[0] == "l":
            return ("l", K.degens[n][i].values[p[1]])
        if p[0] == "r":
            return ("r", L.degens[n][i].values[p[1]])
        _, pp, x, y = p
        q = n - 1 - pp
        if i <= pp:
            return ("b", pp + 1, K.degens[pp][i].values[x], y)
        j = i - pp - 1
        return ("b", pp, x, L.degens[q][j].values[y])

    def act_point(g, n, p):
        if p[0] == "l":
            return ("l", K.levels[n].action[g][p[1]])
        if p[0] == "r":
            return ("r", L.levels[n].action[g][p[1]])
        _, pp, x, y = p
        q = n - 1 - pp
        return ("b", pp, K.levels[pp].action[g][x], L.levels[q].action[g][y])

    levels = []
    for n in range(bound + 1):
        action = tuple(
            tuple(index[n][act_point(g, n, p)] for p in pts[n])
            for g in G.elements()
        )
        levels.append(GSet(G, len(pts[n]), action))
    faces = [()]
    for n in range(1, bound + 1):
        faces.append(
            tuple(
                GMap(
                    levels[n],
                    levels[n - 1],
                    tuple(index[n - 1][face_point(n, i, p)] for p in pts[n]),
                )
                for i in range(n + 1)
            )
        )
    degens = []
    for n in range(bound):
        degens.append(
            tuple(
                GMap(
                    levels[n],
                    levels[n + 1],
                    tuple(index[n + 1][degen_point(n, i, p)] for p in pts[n]),
                )
                for i in range(n + 1)
            )
        )
    degens.append(())
    out = SimplicialGSet(G, tuple(levels), tuple(faces), tuple(degens))
    object.__setattr__(out, "_join_points", pts)
    return out.check()


# -- smash / wedge / collapse ---------------------------------------------------


def smash(X, Y):
    """Levelwise smash product of based simplicial G-sets."""
    if not (X.based and Y.based):
        raise SimplicialError("smash needs based inputs")
    G = X.group
    bound = min(X.bound, Y.bound)
    pts = []
    for n in range(bound + 1):
        level = [None]  # 0 is the basepoint
        for x in range(X.levels[n].size):
            if x == X.base(n):
                continue
            for y in range(Y.levels[n].size):
                if y == Y.base(n):
                    continue
                level.append((x, y))
        pts.append(level)
    index = [
        {p: i for i, p in enumerate(lv) if p is not None} for lv in pts
    ]

    def push(n, x, y):
        if x == X.base(n) or y == Y.base(n):
            return 0
        return index[n][(x, y)]

    levels = []
    for n in range(bound + 1):
        action = []
        for g in G.elements():
            row = [0]
            for p in pts[n][1:]:
                x, y = p
                row.append(
                    push(n, X.levels[n].action[g][x], Y.levels[n].action[g][y])
                )
            action.append(tuple(row))
        levels.append(GSet(G, len(pts[n]), tuple(action)))
    faces = [()]
    for n in range(1, bound + 1):
        row = []
        for i in range(n + 1):
            vals = [0]
            for p in pts[n][1:]:
                x, y = p
                vals.append(
                    push(n - 1, X.faces[n][i].values[x], Y.faces[n][i].values[y])
                )
            row.append(GMap(levels[n], levels[n - 1], tuple(vals)))
        faces.append(tuple(row))
    degens = []
    for n in range(bound):
        row = []
        for i in range(n + 1):
            vals = [0]
            for p in pts[n][1:]:
                x, y = p
                vals.append(
                    push(n + 1, X.degens[n][i].values[x], Y.degens[n][i].values[y])
                )
            row.append(GMap(levels[n], levels[n + 1], tuple(vals)))
        degens.append(tuple(row))
    degens.append(())
    out = SimplicialGSet(
        G,
        tuple(levels),
        tuple(faces),
        tuple(degens),
        tuple(0 for _ in range(bound + 1)),
    )
    object.__setattr__(out, "_smash_points", pts)
    return out.check()


def smash_projections(X, Y):
    """Point decoding for a smash: per level, index -> (x, y) or None."""
    s = smash(X, Y)
    return s, s._smash_points


def wedge(X, Y):
    """One-point union of based simplicial G-sets."""
    G = X.group
    bound = min(X.bound, Y.bound)
    pts = []
    for n in range(bound + 1):
        level = [None]
        for x in range(X.levels[n].size):
            if x != X.base(n):
                level.append(("l", x))
        for y in range(Y.levels[n].size):
            if y != Y.base(n):
                level.append(("r", y))
        pts.append(level)
    index = [
        {p: i for i, p in enumerate(lv) if p is not None} for lv in pts
    ]

    def pushx(n, x):
        return 0 if x == X.base(n) else index[n][("l", x)]

    def pushy(n, y):
        return 0 if y == Y.base(n) else index[n][("r", y)]

    def mapped(n, p, fx, fy):
        if p is None:
            return 0
        side, v = p
        if side == "l":
            return pushx(n, fx(v))
        return pushy(n, fy(v))

    levels = []
    for n in range(bound + 1):
        action = tuple(
            tuple(
                mapped(
                    n,
                    p,
                    lambda v, g=g: X.levels[n].action[g][v],
                    lambda v, g=g: Y.levels[n].action[g][v],
                )
                for p in pts[n]
            )
            for g in G.elements()
        )
        levels.append(GSet(G, len(pts[n]), action))
    faces = [()]
    for n in range(1, bound + 1):
        faces.append(
            tuple(
                GMap(
                    levels[n],
                    levels[n - 1],
                    tuple(
                        mapped(
                            n - 1,
                            p,
                            lambda v, i=i: X.faces[n][i].values[v],
                            lambda v, i=i: Y.faces[n][i].values[v],
                        )
                        for p in pts[n]
                    ),
                )
                for i in range(n + 1)
            )
        )
    degens = []
    for n in range(bound):
        degens.append(
            tuple(
                GMap(
                    levels[n],
                    levels[n + 1],
                    tuple(
                        mapped(
                            n + 1,
                            p,
                            lambda v, i=i: X.degens[n][i].values[v],
                            lambda v, i=i: Y.degens[n][i].values[v],
                        )
                        for p in pts[n]
                    ),
                )
                for i in range(n + 1)
            )
        )
    degens.append(())
    out = SimplicialGSet(
        G,
        tuple(levels),
        tuple(faces),
        tuple(degens),
        tuple(0 for _ in range(bound + 1)),
    )
    incl_x = SimplicialGMap(
        X, out, tuple(
            GMap(X.levels[n], out.levels[n], tuple(pushx(n, x) for x in range(X.levels[n].size)))
            for n in range(bound + 1)
        )
    ).check()
    incl_y = SimplicialGMap(
        Y, out, tuple(
            GMap(Y.levels[n], out.levels[n], tuple(pushy(n, y) for y in range(Y.levels[n].size)))
            for n in range(bound + 1)
        )
    ).check()
    return out, incl_x, incl_y


def collapse(X, subcomplex_points):
    """X / A for a G-stable subcomplex given as per-level point sets.

    The subcomplex must contain the basepoints and be closed under faces,
    degeneracies, and the action; the quotient is based at the crushed class.
    """
    G = X.group
    bound = X.bound
    subs = [frozenset(s) for s in subcomplex_points]
    for n in range(bound + 1):
        for p in subs[n]:
            for g in G.elements():
                if X.levels[n].action[g][p] not in subs[n]:
                    raise SimplicialError("subcomplex is not G-stable")
        if n:
            for i in range(n + 1):
                for p in subs[n]:
                    if X.faces[n][i].values[p] not in subs[n - 1]:
                        raise SimplicialError("subcomplex not closed under faces")
        if n < bound:
            for i in range(n + 1):
                for p in subs[n]:
                    if X.degens[n][i].values[p] not in subs[n + 1]:
                        raise SimplicialError("subcomplex not closed under degeneracies")
        if X.based and X.base(n) not in subs[n]:
            raise SimplicialError("subcomplex must contain the basepoint")
    pts = []
    for n in range(bound + 1):
        level = [None] + [
            p for p in range(X.levels[n].size) if p not in subs[n]
        ]
        pts.append(level)
    index = [
        {p: i for i, p in enumerate(lv) if p is not None} for lv in pts
    ]

    def push(n, p):
        return 0 if p in subs[n] else index[n][p]

    levels = []
    for n in range(bound + 1):
        action = tuple(
            tuple(
                0 if p is None else push(n, X.levels[n].action[g][p])
                for p in pts[n]
            )
            for g in G.elements()
        )
        levels.append(GSet(G, len(pts[n]), action))
    faces = [()]
    for n in range(1, bound + 1):
        faces.append(
            tuple(
                GMap(
                    levels[n],
                    levels[n - 1],
                    tuple(
                        0 if p is None else push(n - 1, X.faces[n][i].values[p])
                        for p in pts[n]
                    ),
                )
                for i in range(n + 1)
            )
        )
    degens = []
    for n in range(bound):
        degens.append(
            tuple(
                GMap(
                    levels[n],
                    levels[n + 1],
                    tuple(
                        0 if p is None else push(n + 1, X.degens[n][i].values[p])
                        for p in pts[n]
                    ),
                )
                for i in range(n + 1)
            )
        )
    degens.append(())
    out = SimplicialGSet(
        G,
        tuple(levels),
        tuple(faces),
        tuple(degens),
        tuple(0 for _ in range(bound + 1)),
    ).check()
    proj = SimplicialGMap(
        X,
        out,
        tuple(
            GMap(
                X.levels[n],
                out.levels[n],
                tuple(push(n, p) for p in range(X.levels[n].size)),
            )
            for n in range(bound + 1)
        ),
    ).check()
    return out, proj


# -- fixed points ---------------------------------------------------------------


@lru_cache(maxsize=None)
def fixed_system(X, helems):
    """(Y over the Weyl group, per-level point lists into X)."""
    fps = [fixed_points(X.levels[n], helems) for n in range(X.bound + 1)]
    W = fps[0].weyl
    levels = tuple(fp.wset for fp in fps)

    def restrict(f, n_src, n_tgt):
        return GMap(
            levels[n_src],
            levels[n_tgt],
            tuple(fps[n_tgt].points.index(f.values[p]) for p in fps[n_src].points),
        )

    faces = [()]
    for n in range(1, X.bound + 1):
        faces.append(
            tuple(restrict(X.faces[n][i], n, n - 1) for i in range(n + 1))
        )
    degens = []
    for n in range(X.bound):
        degens.append(
            tuple(restrict(X.degens[n][i], n, n + 1) for i in range(n + 1))
        )
    degens.append(())
    basepoints = None
    if X.based:
        basepoints = tuple(
            fps[n].points.index(X.base(n)) for n in range(X.bound + 1)
        )
    Y = SimplicialGSet(W, levels, tuple(faces), tuple(degens), basepoints)
    return Y, tuple(fp.points for fp in fps)


def phi_transition(X, om):
    """Point tables (S^H -> S^J per level) induced by an orbit map G/J -> G/H."""
    yh, ph = fixed_system(X, om.tgt.elements)
    yj, pj = fixed_system(X, om.src.elements)
    c = om.c
    out = []
    for n in range(X.bound + 1):
        out.append(
            tuple(pj[n].index(X.levels[n].action[c][p]) for p in ph[n])
        )
    return tuple(out)


# -- representation spheres -----------------------------------------------------


@dataclass(frozen=True)
class RepDescriptor:
    kind: str  # trivial | sign | rotation
    n: int = 0
    k: int = 1
    kernel: tuple = ()

    def __str__(self):
        if self.kind == "trivial":
            return "trivial:%d" % self.n
        if self.kind == "sign":
            return "sign"
        return "rot:%d:%d" % (self.n, self.k)


def trivial_rep(n):
    return RepDescriptor("trivial", n=n)


def sign_rep(kernel=()):
    return RepDescriptor("sign", kernel=tuple(sorted(kernel)))


def rotation_rep(n, k):
    return RepDescriptor("rotation", n=n, k=k)


def representation_sphere(G, desc, bound=DEFAULT_BOUND):
    if desc.kind == "trivial":
        if desc.n == 0:
            return s0_space(G, bound)
        out = circle_space(G, bound)
        for _ in range(desc.n - 1):
            out = smash(circle_space(G, bound), out)
        return out
    if desc.kind == "sign":
        kernel = desc.kernel or ((G.identity,) if G.order == 2 else None)
        if kernel is None:
            raise SimplicialError("sign sphere needs an index-2 kernel for |G| > 2")
        return sign_circle(G, kernel, bound)
    if desc.kind == "rotation":
        return rotation_sphere(G, desc.n, desc.k, bound)
    raise SimplicialError("unknown descriptor kind %r" % desc.kind)


def sphere_for_descriptors(G, descs, bound=DEFAULT_BOUND):
    """Smash of representation spheres; the empty list gives S^0."""
    if not descs:
        return s0_space(G, bound)
    out = representation_sphere(G, descs[0], bound)
    for d in descs[1:]:
        out = smash(out, representation_sphere(G, d, bound))
    return out


def suspend(X, desc, bound=None):
    b = bound if bound is not None else X.bound
    return smash(representation_sphere(X.group, desc, b), X)


def discrete_space(G, S, bound=DEFAULT_BOUND, base_vertex=None):
    """The discrete simplicial G-set on a finite G-set."""
    return build_from_generators(G, [S], [None], bound=bound, base_vertex=base_vertex)


def vertex_degeneracy(X, vertex, n):
    """The level-n point obtained by degenerating a vertex."""
    y = vertex
    for m in range(n):
        y = X.degens[m][0].values[y]
    return y


def discrete_inclusion(src, tgt, vertex_values):
    """A simplicial map out of a discrete space, given on vertices."""
    comps = []
    for n in range(min(src.bound, tgt.bound) + 1):
        vals = []
        for p in range(src.levels[n].size):
            # every point of a discrete space is a vertex degeneracy
            v = p
            for m in range(n, 0, -1):
                v = src.faces[m][0].values[v]
            vals.append(vertex_degeneracy(tgt, vertex_values[v], n))
        comps.append(GMap(src.levels[n], tgt.levels[n], tuple(vals)))
    return SimplicialGMap(src, tgt, tuple(comps)).check()


def smash_assoc(A, B, C):
    """The associator smash(A, smash(B, C)) -> smash(smash(A, B), C)."""
    inner_r = smash(B, C)
    left = smash(A, inner_r)
    inner_l = smash(A, B)
    right = smash(inner_l, C)
    comps = []
    for n in range(min(left.bound, right.bound) + 1):
        r_idx = {
            p: i for i, p in enumerate(right._smash_points[n]) if p is not None
        }
        l_inner_idx = {
            p: i for i, p in enumerate(inner_l._smash_points[n]) if p is not None
        }
        vals = [0]
        for p in left._smash_points[n][1:]:
            a, bc = p
            b, c = inner_r._smash_points[n][bc]
            vals.append(r_idx[(l_inner_idx[(a, b)], c)])
        comps.append(GMap(left.levels[n], right.levels[n], tuple(vals)))
    return SimplicialGMap(left, right, tuple(comps)).check()


# -- chains of the underlying simplicial set ------------------------------------


def underlying_reduced_chains(X):
    """Integral chains on nondegenerate non-basepoint simplices."""
    from .abelian import AbGroup, AbHom, ChainComplex

    groups = {}
    gens = {}
    for n in range(X.bound + 1):
        nd = [
            p
            for p in X.nondegenerate(n)
            if not (X.based and p == X.base(n))
        ]
        gens[n] = nd
        groups[n] = AbGroup.free(len(nd))
    diffs = {}
    for n in range(1, X.bound + 1):
        rows = []
        pos = {p: i for i, p in enumerate(gens[n - 1])}
        mat = [[0] * len(gens[n]) for _ in range(len(gens[n - 1]))]
        flags = X.degenerate_flags(n - 1)
        for j, p in enumerate(gens[n]):
            for i in range(n + 1):
                q = X.faces[n][i].values[p]
                if flags[q] or (X.based and q == X.base(n - 1)):
                    continue
                mat[pos[q]][j] += (-1) ** i
        diffs[n] = AbHom(
            groups[n], groups[n - 1], tuple(tuple(r) for r in mat)
        )
    return ChainComplex(groups=groups, diffs=diffs)


# -- auxiliary: standard simplex and cylinder ------------------------------------


def standard_simplex_plus(G, n, bound=DEFAULT_BOUND):
    """Delta[n] with a disjoint G-fixed basepoint, trivial action."""
    pts = []
    for m in range(bound + 1):
        level = [None] + list(monotones(m, n))
        pts.append(level)
    index = [
        {p: i for i, p in enumerate(lv) if p is not None} for lv in pts
    ]
    levels = tuple(
        GSet(
            G,
            len(pts[m]),
            tuple(tuple(range(len(pts[m]))) for _ in G.elements()),
        )
        for m in range(bound + 1)
    )
    faces = [()]
    for m in range(1, bound + 1):
        faces.append(
            tuple(
                GMap(
                    levels[m],
                    levels[m - 1],
                    tuple(
                        0
                        if p is None
                        else index[m - 1][compose_monotone(p, delta(i, m))]
                        for p in pts[m]
                    ),
                )
                for i in range(m + 1)
            )
        )
    degens = []
    for m in range(bound):
        degens.append(
            tuple(
                GMap(
                    levels[m],
                    levels[m + 1],
                    tuple(
                        0
                        if p is None
                        else index[m + 1][compose_monotone(p, eta(i, m))]
                        for p in pts[m]
                    ),
                )
                for i in range(m + 1)
            )
        )
    degens.append(())
    return SimplicialGSet(
        G,
        levels,
        tuple(faces),
        tuple(degens),
        tuple(0 for _ in range(bound + 1)),
    ).check()


def cylinder_inclusions(X):
    """(X smash Delta[1]_+, ins_0, ins_1): the two ends of the cylinder."""
    cyl_factor = standard_simplex_plus(X.group, 1, X.bound)
    cyl, pts = smash_projections(X, cyl_factor)
    idx = [
        {p: i for i, p in enumerate(lv) if p is not None} for lv in pts
    ]

    def ins(vertex):
        comps = []
        for n in range(X.bound + 1):
            vtx = idx_of_vertex(cyl_factor, vertex, n)
            vals = tuple(
                0 if x == X.base(n) else idx[n][(x, vtx)]
                for x in range(X.levels[n].size)
            )
            comps.append(GMap(X.levels[n], cyl.levels[n], vals))
        return SimplicialGMap(X, cyl, tuple(comps)).check()

    return cyl, ins(0), ins(1)


def idx_of_vertex(simplex_plus, vertex, n):
    """The level-n degeneracy of a vertex inside Delta[k]_+.

    Point 0 is the basepoint and point i > 0 is monotones(n, k)[i - 1].
    """
    k = simplex_plus.levels[0].size - 2
    return monotones(n, k).index((vertex,) * (n + 1)) + 1
