"""Truncated simplicial G-sets: spheres, smashes, joins, fixed points.

A simplicial G-set is stored as one GSet per level together with face and
degeneracy GMaps, truncated at a dimension bound.  One routine, _assemble,
lays out every constructed object: a constructor lists the points of each
level and gives a point rule for the action, each face and each
degeneracy, and _assemble tabulates them.  The generating builder's points
are the (generator, surjection) normal forms of the nondegenerate
simplices; smash, wedge, collapse and Delta[n]_+ add a crushed basepoint.
Maps given by a rule on points are tabulated and checked by _levelwise.
"""

import itertools
from functools import lru_cache, partial

from .groups import Frozen
from .gsets import GMap, GSet, fixed_points, point_gset, trivial_gset

__all__ = [
    "SimplicialError", "DEFAULT_BOUND", "SimplicialGSet", "build_from_generators",
    "SimplicialGMap", "point_space", "s0_space", "circle_space", "sign_circle",
    "rotation_sphere", "join", "smash", "wedge", "collapse", "fixed_system", "phi_transition",
    "RepDescriptor", "trivial_rep", "sign_rep", "rotation_rep", "representation_sphere",
    "sphere_for_descriptors", "suspend", "discrete_space", "discrete_inclusion",
]


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


class SimplicialGSet(Frozen):
    """levels holds a GSet per degree 0..bound; faces[n][i] is the GMap
    levels[n] -> levels[n-1], with faces[0] = (), and degens[n][i] the GMap
    levels[n] -> levels[n+1], with an empty last entry; basepoints holds the
    basepoint index per level, or is None if the space is unbased.  The
    builders of smashes and joins attach their point tables afterwards.
    Two slots are not compared: _flags keeps the degeneracy flags read so
    far, and _layouts the normalized level sets and their face maps that
    the chains over the space have built (homotopy.MackeyChainComplex), so
    that every tensor over the space shares them."""

    __slots__ = (
        "group",
        "levels",
        "faces",
        "degens",
        "basepoints",
        "_smash_points",
        "_smash_index",
        "_join_points",
        "_flags",
        "_layouts",
    )

    def __init__(self, group, levels, faces, degens, basepoints=None):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "degens", degens)
        object.__setattr__(self, "basepoints", basepoints)
        object.__setattr__(self, "_key", (group, levels, faces, degens, basepoints))
        object.__setattr__(self, "_flags", {})
        object.__setattr__(self, "_layouts", {})

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
        for n in range(b + 1):
            for i, op in enumerate(self.faces[n]):
                if op.src != self.levels[n] or op.tgt != self.levels[n - 1]:
                    raise SimplicialError("d_%d of level %d is mis-levelled" % (i, n))
            for i, op in enumerate(self.degens[n] if n < b else ()):
                if op.src != self.levels[n] or op.tgt != self.levels[n + 1]:
                    raise SimplicialError("s_%d of level %d is mis-levelled" % (i, n))
        d, s = self.face, self.degen
        for n in range(2, b + 1):
            for j in range(n + 1):
                for i in range(j):
                    if _table(d(n - 1, i), d(n, j)) != _table(d(n - 1, j - 1), d(n, i)):
                        raise SimplicialError("d_i d_j fails at level %d" % n)
        for n in range(b - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    if _table(s(n + 1, j + 1), s(n, i)) != _table(s(n + 1, i), s(n, j)):
                        raise SimplicialError("s_i s_j fails at level %d" % n)
        for n in range(b):
            for j in range(n + 1):
                for i in range(n + 2):
                    comp = _table(d(n + 1, i), s(n, j))
                    if i == j or i == j + 1:
                        if comp != tuple(range(self.levels[n].size)):
                            raise SimplicialError("d_i s_j != id at level %d" % n)
                    elif i < j:
                        if comp != _table(s(n - 1, j - 1), d(n, i)):
                            raise SimplicialError("d_i s_j fails at level %d" % n)
                    elif comp != _table(s(n - 1, j), d(n, i - 1)):
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
        """True where a level-n point is degenerate.  Kept on the space, so
        a read after the first compares no spaces."""
        flags = self._flags.get(n)
        if flags is None:
            flags = self._flags[n] = _degenerate_flags(self, n)
        return flags

    def nondegenerate(self, n):
        flags = self.degenerate_flags(n)
        return tuple(p for p in range(self.levels[n].size) if not flags[p])

    def operator(self, alpha, n_src, n_tgt):
        """The simplicial operator alpha*: level n_tgt -> level n_src for a
        monotone alpha: [n_src] -> [n_tgt], as a point table."""
        if (
            len(alpha) != n_src + 1
            or any(not 0 <= v <= n_tgt for v in alpha)
            or any(u > v for u, v in zip(alpha, alpha[1:]))
        ):
            raise SimplicialError(
                "%r is not a monotone map [%d] -> [%d]" % (alpha, n_src, n_tgt)
            )
        iota, pi = epi_mono(alpha)
        vals = list(range(self.levels[n_tgt].size))
        cur = n_tgt
        miss = [v for v in range(n_tgt + 1) if v not in iota]
        for j in sorted(miss, reverse=True):
            vals = [self.faces[cur][j].values[v] for v in vals]
            cur -= 1
        # now apply the degeneracies encoded by pi: [n_src] ->> [cur]
        for i in degeneracy_word(pi):
            vals = [self.degens[cur][i].values[v] for v in vals]
            cur += 1
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


def _table(f, g):
    """The point table of the composite f o g of level maps."""
    values = f.values
    return tuple(values[v] for v in g.values)


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


# -- assembly from point rules -------------------------------------------------


def _assemble(G, pts, act, face, degen, basepoints=None, trusted=False):
    """The simplicial G-set whose level n has the points pts[n], with the
    per-level point -> index dicts.

    act(g, n), face(n, i) and degen(n, i) each return the point rule of
    that operator: a function from a point of its source level to a point
    of its target level.  The point None, where a level has it, is a
    crushed basepoint; every operator fixes it and its rule never sees it.
    basepoints lists a point per level, or is None for an unbased object.
    trusted skips the equivariance check of each face and degeneracy, for
    rules that are equivariant by construction.
    """
    index = [{p: i for i, p in enumerate(lv)} for lv in pts]

    def table(n_src, n_tgt, rule):
        idx = index[n_tgt]
        return tuple(idx[None] if p is None else idx[rule(p)] for p in pts[n_src])

    bound = len(pts) - 1
    gmap = GMap._trusted if trusted else GMap
    levels = tuple(
        GSet(G, len(pts[n]), tuple(table(n, n, act(g, n)) for g in G.elements()))
        for n in range(bound + 1)
    )
    faces = ((),) + tuple(
        tuple(gmap(levels[n], levels[n - 1], table(n, n - 1, face(n, i))) for i in range(n + 1))
        for n in range(1, bound + 1)
    )
    degens = tuple(
        tuple(gmap(levels[n], levels[n + 1], table(n, n + 1, degen(n, i))) for i in range(n + 1))
        for n in range(bound)
    ) + ((),)
    if basepoints is not None:
        basepoints = tuple(idx[p] for idx, p in zip(index, basepoints))
    return SimplicialGSet(G, levels, faces, degens, basepoints), index


def _levelwise(X, Y, rule):
    """The checked simplicial map X -> Y sending the level-n point p to the
    point rule(n, p) of Y_n."""
    comps = tuple(
        GMap(X.levels[n], Y.levels[n], tuple(rule(n, p) for p in range(X.levels[n].size)))
        for n in range(min(X.bound, Y.bound) + 1)
    )
    return SimplicialGMap(X, Y, comps).check()


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
    for n in range(bound + 1):
        pts = []
        for m in range(min(n, ndmax) + 1):
            for x in range(nd_levels[m].size):
                for s in surjections(n, m):
                    pts.append((m, x, s))
        pts.sort()
        points.append(pts)

    def act_total(alpha, triple):
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
        return act_total(iota2, points[m - 1][fidx])

    def act(g, n):
        return lambda t: (t[0], nd_levels[t[0]].action[g][t[1]], t[2])

    def face(n, i):
        return partial(act_total, delta(i, n))

    def degen(n, i):
        e = eta(i, n)
        return lambda t: (t[0], t[1], compose_monotone(t[2], e))

    basepoints = None
    if base_vertex is not None:
        basepoints = [(0, base_vertex, surjections(n, 0)[0]) for n in range(bound + 1)]
    out, _ = _assemble(G, points, act, face, degen, basepoints)
    return out.check()


# -- maps of simplicial G-sets --------------------------------------------------


class SimplicialGMap(Frozen):
    """comps holds a GMap per level; _cofiber, which is not compared, keeps
    the cofiber once it is built."""

    __slots__ = ("src", "tgt", "comps", "_cofiber")

    def __init__(self, src, tgt, comps):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "_key", (src, tgt, comps))
        object.__setattr__(self, "_cofiber", None)

    def comp(self, n):
        return self.comps[n]

    def cofiber(self):
        """(tgt / image, projection) for a checked levelwise injection,
        built once per map."""
        if self._cofiber is None:
            X = self.check().tgt
            if self.src.bound != X.bound:
                raise SimplicialError(
                    "a cofibration needs one bound, not %d and %d" % (self.src.bound, X.bound)
                )
            if not all(f.is_injective() for f in self.comps):
                raise SimplicialError("cofibration needs a levelwise injection")
            subs = [set(self.comps[n].values) for n in range(X.bound + 1)]
            object.__setattr__(self, "_cofiber", collapse(X, subs))
        return self._cofiber

    def check(self):
        X, Y, f = self.src, self.tgt, self.comps
        b = min(X.bound, Y.bound)
        for n in range(b + 1):
            if f[n].src != X.levels[n] or f[n].tgt != Y.levels[n]:
                raise SimplicialError("component %d of the map is mis-levelled" % n)
        for n in range(1, b + 1):
            for i in range(n + 1):
                if _table(Y.face(n, i), f[n]) != _table(f[n - 1], X.face(n, i)):
                    raise SimplicialError("map does not commute with d_%d" % i)
        for n in range(b):
            for i in range(n + 1):
                if _table(Y.degen(n, i), f[n]) != _table(f[n + 1], X.degen(n, i)):
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
    pt = point_gset(G)
    return build_from_generators(G, [pt], [None], bound=bound, base_vertex=0)


def s0_space(G, bound=DEFAULT_BOUND):
    v = trivial_gset(G, 2)
    return build_from_generators(G, [v], [None], bound=bound, base_vertex=0)


def circle_space(G, bound=DEFAULT_BOUND):
    """Minimal based circle with trivial action: one vertex, one edge."""
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
    poles = build_from_generators(
        G, [trivial_gset(G, 2)], [None], bound=bound
    )
    j = join(ngon, poles)
    basevertex = j._join_points[0].index(("r", 0))  # first cone point
    return j.as_based(basevertex)


def join(K, L):
    """The join of two unbased simplicial G-sets."""
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

    def face_point(n, i, p):
        if p[0] == "l":
            return ("l", K.faces[n][i].values[p[1]])
        if p[0] == "r":
            return ("r", L.faces[n][i].values[p[1]])
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

    out, _ = _assemble(
        K.group,
        pts,
        lambda g, n: partial(act_point, g, n),
        lambda n, i: partial(face_point, n, i),
        lambda n, i: partial(degen_point, n, i),
    )
    object.__setattr__(out, "_join_points", pts)
    return out.check()


# -- smash / wedge / collapse ---------------------------------------------------


def smash(X, Y):
    """Levelwise smash product of based simplicial G-sets.

    The product of two simplicial G-sets is one, and so is its quotient by
    the wedge: built from checked factors, the smash is not re-checked, and
    its faces and degeneracies skip the equivariance check of GMap.
    """
    if not (X.based and Y.based):
        raise SimplicialError("smash needs based inputs")
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

    def pair_rule(m, fx, fy):
        """(x, y) -> (fx[x], fy[y]) into level m, crushing the basepoints."""
        bx, by = X.base(m), Y.base(m)

        def rule(p):
            x, y = fx[p[0]], fy[p[1]]
            return None if x == bx or y == by else (x, y)

        return rule

    out, index = _assemble(
        X.group,
        pts,
        lambda g, n: pair_rule(n, X.levels[n].action[g], Y.levels[n].action[g]),
        lambda n, i: pair_rule(n - 1, X.faces[n][i].values, Y.faces[n][i].values),
        lambda n, i: pair_rule(n + 1, X.degens[n][i].values, Y.degens[n][i].values),
        [None] * (bound + 1),
        trusted=True,
    )
    object.__setattr__(out, "_smash_points", pts)
    object.__setattr__(out, "_smash_index", index)
    return out


def wedge(X, Y):
    """One-point union of based simplicial G-sets."""
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

    def side_rule(m, fx, fy):
        """(l, x) -> (l, fx[x]) and (r, y) -> (r, fy[y]) into level m,
        crushing the basepoints."""
        bx, by = X.base(m), Y.base(m)

        def rule(p):
            side, v = p
            if side == "l":
                v = fx[v]
                return None if v == bx else ("l", v)
            v = fy[v]
            return None if v == by else ("r", v)

        return rule

    out, index = _assemble(
        X.group,
        pts,
        lambda g, n: side_rule(n, X.levels[n].action[g], Y.levels[n].action[g]),
        lambda n, i: side_rule(n - 1, X.faces[n][i].values, Y.faces[n][i].values),
        lambda n, i: side_rule(n + 1, X.degens[n][i].values, Y.degens[n][i].values),
        [None] * (bound + 1),
    )
    incl_x = _levelwise(X, out, lambda n, x: index[n][None if x == X.base(n) else ("l", x)])
    incl_y = _levelwise(Y, out, lambda n, y: index[n][None if y == Y.base(n) else ("r", y)])
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
    pts = [
        [None] + [p for p in range(X.levels[n].size) if p not in subs[n]]
        for n in range(bound + 1)
    ]

    def crush_rule(m, f):
        """p -> f[p] into level m, crushing the subcomplex."""
        sub = subs[m]

        def rule(p):
            q = f[p]
            return None if q in sub else q

        return rule

    out, index = _assemble(
        G,
        pts,
        lambda g, n: crush_rule(n, X.levels[n].action[g]),
        lambda n, i: crush_rule(n - 1, X.faces[n][i].values),
        lambda n, i: crush_rule(n + 1, X.degens[n][i].values),
        [None] * (bound + 1),
    )
    out.check()
    proj = _levelwise(X, out, lambda n, p: index[n][None if p in subs[n] else p])
    return out, proj


# -- fixed points ---------------------------------------------------------------


@lru_cache(maxsize=None)
def fixed_system(X, helems):
    """(Y over the Weyl group, per-level point lists into X)."""
    fps = [fixed_points(X.levels[n], helems) for n in range(X.bound + 1)]
    W = fps[0].weyl
    levels = tuple(fp.wset for fp in fps)

    def restrict(f, n_src, n_tgt):
        index = fps[n_tgt].index
        return GMap(
            levels[n_src],
            levels[n_tgt],
            tuple(index[f.values[p]] for p in fps[n_src].points),
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
            fps[n].index[X.base(n)] for n in range(X.bound + 1)
        )
    Y = SimplicialGSet(W, levels, tuple(faces), tuple(degens), basepoints)
    return Y, tuple(fp.points for fp in fps)


def phi_transition(X, om):
    """Point tables (S^H -> S^J per level) induced by an orbit map G/J -> G/H."""
    c = om.c
    out = []
    for n in range(X.bound + 1):
        src = fixed_points(X.levels[n], om.tgt.elements)
        tgt = fixed_points(X.levels[n], om.src.elements)
        out.append(tuple(tgt.index[X.levels[n].action[c][p]] for p in src.points))
    return tuple(out)


# -- representation spheres -----------------------------------------------------


class RepDescriptor(Frozen):
    __slots__ = ("kind", "n", "k", "kernel")  # kind: trivial | sign | rotation

    def __init__(self, kind, n=0, k=1, kernel=()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "_key", (kind, n, k, kernel))

    def __str__(self):
        if self.kind == "trivial":
            return "trivial:%d" % self.n
        if self.kind == "sign":
            return "sign"
        return "rot:%d:%d" % (self.n, self.k)

    @property
    def dim(self):
        """The real dimension: n for trivial:n, 1 for sign, 2 for a rotation."""
        return {"trivial": self.n, "sign": 1}.get(self.kind, 2)


def trivial_rep(n):
    return RepDescriptor("trivial", n=n)


def sign_rep(kernel=()):
    return RepDescriptor("sign", kernel=tuple(sorted(kernel)))


def rotation_rep(n, k):
    return RepDescriptor("rotation", n=n, k=k)


def representation_sphere(G, desc, bound=DEFAULT_BOUND):
    if desc.kind == "trivial":
        if desc.n < 0:
            raise SimplicialError("trivial sphere of negative dimension %d" % desc.n)
        if desc.n == 0:
            return s0_space(G, bound)
        out = circle = circle_space(G, bound)
        for _ in range(desc.n - 1):
            out = smash(circle, out)
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
    """Smash of representation spheres; the empty list gives S^0.  Each
    distinct descriptor's sphere is built once and smashed in for every
    repeat."""
    if not descs:
        return s0_space(G, bound)
    spheres = {d: representation_sphere(G, d, bound) for d in dict.fromkeys(descs)}
    out = spheres[descs[0]]
    for d in descs[1:]:
        out = smash(out, spheres[d])
    return out


def suspend(X, desc):
    """S^W smash X, with S^W built at X.bound, the only truncation."""
    return smash(representation_sphere(X.group, desc, X.bound), X)


def discrete_space(G, S, bound=DEFAULT_BOUND, base_vertex=None):
    """The discrete simplicial G-set on a finite G-set."""
    return build_from_generators(G, [S], [None], bound=bound, base_vertex=base_vertex)


def discrete_inclusion(src, tgt, vertex_values):
    """A simplicial map out of a discrete space, given on vertices: one
    vertex of tgt per vertex of src."""
    vertices = range(tgt.levels[0].size)
    if len(vertex_values) != src.levels[0].size or not all(v in vertices for v in vertex_values):
        raise SimplicialError("need one vertex of the target per vertex of the source")
    # every point of a discrete space is a degeneracy of its last vertex
    levels = range(min(src.bound, tgt.bound) + 1)
    vertex = [src.operator((n,), 0, n) for n in levels]
    degen = [tgt.operator((0,) * (n + 1), n, 0) for n in levels]
    return _levelwise(src, tgt, lambda n, p: degen[n][vertex_values[vertex[n][p]]])


# -- auxiliary: standard simplex ------------------------------------------------


def standard_simplex_plus(G, n, bound=DEFAULT_BOUND):
    """Delta[n] with a disjoint G-fixed basepoint, trivial action."""
    pts = [[None] + list(monotones(m, n)) for m in range(bound + 1)]

    def op_rule(alpha):
        return lambda p: compose_monotone(p, alpha)

    out, _ = _assemble(
        G,
        pts,
        lambda g, m: lambda p: p,
        lambda m, i: op_rule(delta(i, m)),
        lambda m, i: op_rule(eta(i, m)),
        [None] * (bound + 1),
    )
    return out.check()
