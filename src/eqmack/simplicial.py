"""Truncated simplicial G-sets: spheres, smashes, joins, fixed points.

A simplicial G-set is stored per dimension by its nondegenerate simplices,
their G-action, their faces as (degeneracy, nondegenerate simplex) and the
basepoint.  By the Eilenberg-Zilber lemma every simplex is s_I y for one
nondegenerate y (Goerss-Jardine, Simplicial Homotopy Theory, 1999), so the
full levels follow, built on first read.  A smash keeps its factors and
pairs their nondegenerate simplices by shuffles on first read, a wedge
joins them at one basepoint, and a quotient X/Y keeps those of X off Y; a
map is given by the images of the nondegenerate simplices.  One layout
serves every space built from its nondegenerate simplices: each s^* y sits
at its _position, and _assemble gives the full levels from the simplicial
identities, as it gives Delta[n]_+'s from point rules.
"""

import itertools
from bisect import bisect_left
from functools import lru_cache
from math import comb

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
    return tuple([f[v] for v in g])


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
    """A simplicial G-set truncated at bound, stored by its nondegenerate
    simplices: nd[n] is their GSet in full-level order, nd_faces[n][i][y]
    is d_i y as (sigma, z) for sigma^* z with sigma a degeneracy's
    surjection, nd_base the basepoint.  Outside this module a simplex is
    named by its index y in nd[n]; its full-level index is found here only.

    The full levels are fields too: levels holds a GSet per degree
    0..bound; faces[n][i] is the GMap levels[n] -> levels[n-1], with
    faces[0] = (), and degens[n][i] the GMap levels[n] -> levels[n+1], with
    an empty last entry; basepoints holds the basepoint index per level, or
    is None.  A space built from its nondegenerate simplices by _recipe
    lays out levels, faces and degens (and a smash's or join's point
    tables, its points named by the factors' points) by one route,
    _materialize, only when they are read: by == and hash, by the public psi
    (tensor.PsiMap.component), by TensorMackey's level API, by tests and by
    the benchmark's tracer; nothing else in the package reads them.  One
    given by its full levels reads off its nondegenerate form on first
    read.  A smash keeps its recipe ("smash", X, Y) and lays out its
    nondegenerate form (_smash_nd) on the first read of nd, nd_faces,
    nd_base, _parts or a full level: by rho, psi, the loop comparison, Hom
    complexes out of or into it, both exact sequences, the normalized
    chains and _morse; Bredon homology reads its factors' cell tables
    (homotopy._cells) instead, and bound, based and group read nothing.
    Not compared: _flags, the degeneracy flags read so far, and _layouts,
    the normalized boundary tables (homotopy._boundary) and the level sets
    of the chains over it (homotopy.MackeyChainComplex), its Morse matching
    (homotopy._morse) and cell table (homotopy._cells), what nondegenerate
    and nd_copies have read so far, and a quotient's crushed full-level
    indices (_below).
    """

    __slots__ = (
        "group", "levels", "faces", "degens", "basepoints", "_smash_points", "_smash_index",
        "_join_points", "_nd", "_recipe", "_parts", "_flags", "_layouts",
    )
    _FULL = ("levels", "faces", "degens", "_key", "_smash_points", "_smash_index", "_join_points")

    def __init__(self, group, levels, faces, degens, basepoints=None):
        key = (group, levels, faces, degens, basepoints)
        _fill(self, (*zip(self.__slots__, key), ("_key", key)), None, None, None)

    def __getattr__(self, name):
        # reached only for an unset slot: a recipe's full levels and key, and
        # a smash's parts before its nondegenerate form is laid out
        if self._recipe is None or name not in self._FULL + ("_parts",):
            raise AttributeError(name)
        if name == "_parts":
            self._nd_form()
        else:
            try:
                object.__getattribute__(self, "_key")
            except AttributeError:
                _materialize(self)
        return object.__getattribute__(self, name)

    @property
    def bound(self):
        if self._nd:
            return len(self._nd[0]) - 1
        # a smash not yet laid out is based, with a basepoint per level
        return len(self.basepoints if self._recipe else self.levels) - 1

    @property
    def based(self):
        return self.basepoints is not None

    def _nd_form(self):
        """(nd, nd_faces, nd_base, full level sizes)."""
        if self._nd is None:
            object.__setattr__(self, "_nd", _smash_nd(self) if self._recipe else _read_nd(self))
        return self._nd

    nd = property(lambda self: self._nd_form()[0])
    nd_faces = property(lambda self: self._nd_form()[1])
    nd_base = property(lambda self: self._nd_form()[2])

    def face(self, n, i):
        return self.faces[n][i]

    def degen(self, n, i):
        return self.degens[n][i]

    def base(self, n):
        return self.basepoints[n]

    def check(self):
        """The simplicial identities: on the nondegenerate simplices of a
        space built from them (_check_nd), on every full level of one given
        by its full levels."""
        if self._recipe is not None:
            return _check_nd(self)
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
        identities = itertools.chain(  # (name, level, lhs, rhs), rhs None for the identity
            (("d_i d_j fails", n, (d(n - 1, i), d(n, j)), (d(n - 1, j - 1), d(n, i)))
             for n in range(2, b + 1) for j in range(n + 1) for i in range(j)),
            (("s_i s_j fails", n, (s(n + 1, j + 1), s(n, i)), (s(n + 1, i), s(n, j)))
             for n in range(b - 1) for j in range(n + 1) for i in range(j + 1)),
            (("d_i s_j != id" if i in (j, j + 1) else "d_i s_j fails", n, (d(n + 1, i), s(n, j)),
              None if i in (j, j + 1)
              else (s(n - 1, j - 1), d(n, i)) if i < j else (s(n - 1, j), d(n, i - 1)))
             for n in range(b) for j in range(n + 1) for i in range(n + 2)),
        )
        for name, n, lhs, rhs in identities:
            if _table(*lhs) != (tuple(range(self.levels[n].size)) if rhs is None else _table(*rhs)):
                raise SimplicialError("%s at level %d" % (name, n))
        p = self.basepoints
        if p and any(p[n] != row[p[n]] for n, lv in enumerate(self.levels) for row in lv.action):
            raise SimplicialError("basepoint must be G-fixed")
        if p and any(s(n, i).values[p[n]] != p[n + 1] for n in range(b) for i in range(n + 1)):
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
        """The full-level indices of the nondegenerate n-simplices: the points
        unflagged in a space given by its full levels, else their _position."""
        if ("nd", n) not in self._layouts:
            ident, memo = tuple(range(n + 1)), {}
            if self._recipe is None:
                ix = (p for p, f in enumerate(self.degenerate_flags(n)) if not f)
            else:
                ix = (_position(self, ident, y, memo) for y in range(self.nd[n].size))
            self._layouts["nd", n] = tuple(ix)
        return self._layouts["nd", n]

    def nd_copies(self, n, reduced):
        """The copies s^* ND_k in level n of the nondegenerate k-simplices,
        one per surjection s: [n] ->> [k], less the basepoint if reduced: per
        s, its G-set in full-level order and the full-level index of each point."""
        key, memo = ("copies", reduced, n), {}
        if key not in self._layouts:
            copies = self._layouts[key] = {}
            for s in (s for k in range(n + 1) for s in surjections(n, k)):
                nd, base = self.nd[s[-1]], self.nd_base if reduced and s[-1] == 0 else None
                pos = {y: _position(self, s, y, memo) for y in range(nd.size) if y != base}
                ys = sorted(pos, key=pos.__getitem__)
                rank = {y: r for r, y in enumerate(ys)}
                action = tuple(tuple(rank[row[y]] for y in ys) for row in nd.action)
                copies[s] = GSet._trusted(self.group, len(ys), action), [pos[y] for y in ys]
        return self._layouts[key]

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
        nd, faces, _, _ = self._nd_form()
        if not 0 <= base_vertex < nd[0].size:
            raise SimplicialError("no vertex %r to base at" % (base_vertex,))
        return _nd_space(self.group, ("based", self), nd, faces, base_vertex).check()


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


# -- the nondegenerate form ------------------------------------------------------


def _fill(X, fields, nd, recipe, parts=None):
    fields = (*fields, ("_nd", nd), ("_recipe", recipe)) + ((("_parts", parts),) if parts else ())
    for name, value in fields:
        object.__setattr__(X, name, value)
    object.__setattr__(X, "_flags", {})
    object.__setattr__(X, "_layouts", {})


def _nd_space(G, recipe, nd, faces, base, parts=None):
    """The space of the nondegenerate simplices nd with faces and base, its
    full levels built on first read by the recipe (kind, factors...); parts
    names each simplex's factor simplices."""
    X, memo = object.__new__(SimplicialGSet), {}
    _fill(X, [("group", G)], (nd, faces, base, _sizes(nd)), recipe, parts)
    ident = _identities(len(nd) - 1)
    points = base is not None and tuple(_position(X, (0,) * len(s), base, memo) for s in ident)
    object.__setattr__(X, "basepoints", points or None)
    return X


def _sizes(nd):
    """The full level sizes over the nondegenerate simplices nd: level n
    holds s^* z for each nondegenerate k-simplex z and s: [n] ->> [k]."""
    return tuple(sum(nd[k].size * comb(n, k) for k in range(n + 1)) for n in range(len(nd)))


def _position(X, sigma, z, memo):
    """The index in its full level of the simplex sigma^* z of X, for a
    surjection sigma: [n] ->> [m] and a nondegenerate m-simplex z, in the
    order of X's constructor; memo keeps the indices found so far.  A smash
    lays out its basepoint, then the pairs of non-base points; a join the
    points ("b", p, x, y) by (p, x, y), then ("l", x), then ("r", y); a
    wedge its basepoint, then the non-base points of each side; a quotient
    its crushed class, then the points off the subcomplex in order."""
    key, n, m = (id(X), sigma, z), len(sigma) - 1, sigma[-1]
    kind = X._recipe and X._recipe[0]
    if key in memo:
        return memo[key]
    if kind == "based":
        p = _position(X._recipe[1], sigma, z, memo)
    elif kind == "gen":  # the triples (k, x, s) in order
        p = sum(X.nd[k].size * comb(n, k) for k in range(m)) + z * comb(n, m)
        p += surjections(n, m).index(sigma)
    elif not kind:  # given by its full levels
        p = X.nondegenerate(m)[z]
        for i in degeneracy_word(sigma):
            p, m = X.degens[m][i].values[p], m + 1
    elif kind in ("wedge", "quotient"):  # point 0 is the base or the crushed class
        part, A = X._parts[m][z], X._recipe[1]
        if part is None:
            p = 0
        elif kind == "quotient":
            p = _position(A, sigma, part, memo)
            p += 1 - bisect_left(_below(X, memo)[n], p)
        else:
            S = X._recipe[1 + (part[0] == "r")]
            p = _position(S, sigma, part[1], memo)
            p += (p < S.basepoints[n]) + (part[0] == "r" and A._nd_form()[3][n] - 1)
    else:
        point, (A, B) = _point(X, X._parts[m][z], sigma, memo), X._recipe[1:]
        sa, sb = A._nd_form()[3], B._nd_form()[3]
        if kind == "smash" and point is None:  # the basepoint
            p = 0
        elif kind == "smash":
            (pa, pb), (ba, bb) = point, (A.basepoints[n], B.basepoints[n])
            p = 1 + (pa - (pa > ba)) * (sb[n] - 1) + pb - (pb > bb)
        else:
            k = point[1] if point[0] == "b" else n
            p = sum(sa[j] * sb[n - 1 - j] for j in range(k))
            if point[0] == "b":
                p += point[2] * sb[n - 1 - k] + point[3]
            else:
                p += (sa[n] if point[0] == "r" else 0) + point[1]
    memo[key] = p
    return p


def _below(Q, memo):
    """The sorted full-level indices, per level, of the subcomplex that the
    quotient Q crushes, laid out on the first read and kept on Q."""
    if "below" not in Q._layouts:
        X, subs = Q._recipe[1:]
        Q._layouts["below"] = tuple(
            sorted(
                _position(X, s, y, memo)
                for k in range(n + 1)
                for s in surjections(n, k)
                for y in subs[k]
            )
            for n in range(X.bound + 1)
        )
    return Q._layouts["below"]


def _point(X, part, sigma, memo):
    """The point sigma^* z of the smash or join X, z made of the factor
    simplices part, as its full level names it by its factors' points."""
    A, B = X._recipe[1:]
    if X._recipe[0] == "smash":
        return part and (
            _position(A, compose_monotone(part[0], sigma), part[1], memo),
            _position(B, compose_monotone(part[2], sigma), part[3], memo),
        )
    if part[0] != "b":
        return part[0], _position(A if part[0] == "l" else B, sigma, part[1], memo)
    k = sum(v <= part[1] for v in sigma)  # sigma^* joins s1^* x to s2^* y
    s1, s2 = sigma[:k], tuple(v - part[1] - 1 for v in sigma[k:])
    return "b", k - 1, _position(A, s1, part[2], memo), _position(B, s2, part[3], memo)


def _face_nf(faces, i, sigma, z):
    """d_i of the simplex sigma^* z, as (sigma', z') over the nondegenerate
    faces: sigma delta_i = delta_v pi where the value v = sigma(i) is lost,
    and then d_i sigma^* z = pi^* d_v z."""
    v = sigma[i]
    rest = sigma[:i] + sigma[i + 1 :]
    if v in rest:
        return rest, z
    tau, w = faces[sigma[-1]][v][z]
    return tuple(tau[u - (u > v)] for u in rest), w


def _check_nd(X):
    """The faces of the nondegenerate simplices commute with the action and
    satisfy d_i d_j = d_{j-1} d_i, and the basepoint is G-fixed; with the
    degeneracies formal, the other identities hold by construction."""
    nd, faces = X.nd, X.nd_faces
    for n in range(1, X.bound + 1):
        for (i, row), (g, act) in itertools.product(enumerate(faces[n]), enumerate(nd[n].action)):
            if any(row[act[y]] != (s, nd[s[-1]].action[g][z]) for y, (s, z) in enumerate(row)):
                raise SimplicialError("d_%d of level %d is not equivariant" % (i, n))
        for d, j in itertools.product(zip(*faces[n]) if n > 1 else (), range(n + 1)):
            if any(_face_nf(faces, i, *d[j]) != _face_nf(faces, j - 1, *d[i]) for i in range(j)):
                raise SimplicialError("d_i d_j fails at level %d" % n)
    if X.based and any(row[X.nd_base] != X.nd_base for row in nd[0].action):
        raise SimplicialError("basepoint must be G-fixed")
    return X


def _read_nd(X):
    """The nondegenerate form of a space given by its full levels: the points
    no degeneracy flag marks, each face walked down d_i while s_i d_i fixes it."""
    index = [X.nondegenerate(n) for n in range(X.bound + 1)]
    pos = [{p: y for y, p in enumerate(ix)} for ix in index]

    def normal(m, p):
        sigma = tuple(range(m + 1))
        while p not in pos[m]:
            i = next(i for i in range(m) if X.degens[m - 1][i].values[X.faces[m][i].values[p]] == p)
            p, m, sigma = X.faces[m][i].values[p], m - 1, compose_monotone(eta(i, m - 1), sigma)
        return sigma, pos[m][p]

    nd = tuple(
        GSet._trusted(X.group, len(ix), tuple(tuple(pos[n][r[p]] for p in ix) for r in lv.action))
        for n, (ix, lv) in enumerate(zip(index, X.levels))
    )
    faces = tuple(
        tuple(tuple(normal(n - 1, f.values[p]) for p in ix) for f in X.faces[n])
        for n, ix in enumerate(index)
    )
    return nd, faces, X.basepoints[0] if X.based else None, tuple(lv.size for lv in X.levels)


def _materialize(X):
    """Lay out the full levels of X in its constructor's order, after its
    nondegenerate form: each simplex s^* z at its _position, acted on by the
    simplicial identities; a smash or a join also names each point by its
    factors' points (_point), the crushed basepoint of a smash by None."""
    nd, nd_faces, _, sizes = X._nd_form()
    memo, pts, kind = {}, [[None] * size for size in sizes], X._recipe[0]
    for m, n in itertools.combinations_with_replacement(range(len(sizes)), 2):
        for s, z in itertools.product(surjections(n, m), range(nd[m].size)):
            pts[n][_position(X, s, z, memo)] = s, z
    full, _ = _assemble(
        X.group, pts, lambda g, n: lambda p: (p[0], nd[p[0][-1]].action[g][p[1]]),
        lambda n, i: lambda p: _face_nf(nd_faces, i, *p),
        lambda n, j: lambda p, e=eta(j, n): (compose_monotone(p[0], e), p[1]), trusted=True,
    )
    tables = {}
    if kind in ("smash", "join"):
        points = [[_point(X, X._parts[s[-1]][z], s, memo) for s, z in lv] for lv in pts]
        tables["_%s_points" % kind] = points
        if kind == "smash":
            tables["_smash_index"] = [{p: i for i, p in enumerate(lv)} for lv in points]
    for name, value in (*zip(("levels", "faces", "degens"), full), *tables.items()):
        object.__setattr__(X, name, value)
    object.__setattr__(X, "_key", (X.group, *full[:3], X.basepoints))


# -- assembly from point rules -------------------------------------------------


def _assemble(G, pts, act, face, degen, basepoints=None, trusted=False):
    """The full levels (levels, faces, degens, basepoints) with points
    pts[n] in level n, and the per-level point -> index dicts.

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
    return (levels, faces, degens, basepoints), index


# -- generation from nondegenerate data ----------------------------------------


def build_from_generators(G, nd_levels, nd_faces, bound=DEFAULT_BOUND, base_vertex=None):
    """A simplicial G-set from its nondegenerate simplices, checked on them.

    nd_levels: list of GSets (level m holds the nondegenerate m-simplices).
    nd_faces: nd_faces[m][i][x] = index into the generated full level m-1,
    for m >= 1, whose points are the triples (k, z, sigma) in order, one per
    nondegenerate k-simplex z and surjection sigma: [m-1] ->> [k].
    """
    _check_bound(bound)
    out = _generated(G, nd_levels, nd_faces, bound)
    return out.check() if base_vertex is None else out.as_based(base_vertex)


def _check_bound(bound):
    if bound < 0:
        raise SimplicialError("bound %d is negative" % bound)


def _generated(G, nd_levels, nd_faces, bound):
    """The unbased space of build_from_generators, not yet checked."""
    top = min(len(nd_levels), bound + 1)
    nd = tuple(nd_levels[:top]) + (GSet._trusted(G, 0, ((),) * G.order),) * (bound + 1 - top)

    def point(m, f):
        """(sigma, z) of the point f of the generated full level m."""
        for k, c in ((k, comb(m, k)) for k in range(m + 1)):
            if 0 <= f < nd[k].size * c:
                return surjections(m, k)[f % c], f // c
            f -= nd[k].size * c
        raise SimplicialError("a face of level %d is out of range" % (m + 1))

    faces = [()]
    for n in range(1, bound + 1):
        given = nd_faces[n] if nd[n].size else ((),) * (n + 1)
        if len(given) != n + 1 or any(len(f) != nd[n].size for f in given):
            raise SimplicialError("level %d needs %d faces of each simplex" % (n, n + 1))
        faces.append(tuple(tuple(point(n - 1, f) for f in face) for face in given))
    return _nd_space(G, ("gen",), nd, tuple(faces), None)


# -- maps of simplicial G-sets --------------------------------------------------


class SimplicialGMap(Frozen):
    """A simplicial G-map src -> tgt by the images of the nondegenerate
    simplices up to the lower bound: images[n][y] = (sigma, z) is the image
    sigma^* z of the nondegenerate n-simplex y, and == and hash compare
    them.  comps, a GMap per full level, is laid out on first read.  Not
    compared: _comps, and _cofiber, the cofiber once built."""

    __slots__ = ("src", "tgt", "images", "_comps", "_cofiber")

    def __init__(self, src, tgt, images):
        images = tuple(map(tuple, images))
        fields = ("src", src), ("tgt", tgt), ("images", images), ("_key", (src, tgt, images))
        for name, value in (*fields, ("_comps", None), ("_cofiber", None)):
            object.__setattr__(self, name, value)

    @property
    def comps(self):
        if self._comps is None:
            X, Y, memo, comps = self.src, self.tgt, {}, []
            for n, size in enumerate(X._nd_form()[3][: len(self.images)]):
                values = [None] * size
                for k, s in ((k, s) for k in range(n + 1) for s in surjections(n, k)):
                    for y, (t, z) in enumerate(self.images[k]):
                        image = _position(Y, compose_monotone(t, s), z, memo)
                        values[_position(X, s, y, memo)] = image
                comps.append(GMap._trusted(X.levels[n], Y.levels[n], tuple(values)))
            object.__setattr__(self, "_comps", tuple(comps))
        return self._comps

    def cofiber(self):
        """(tgt / image, projection) for a checked levelwise injection, built
        once per map.  By the Eilenberg-Zilber lemma the map is injective
        exactly when it sends the nondegenerate simplices one to one onto
        nondegenerate simplices, which then make up the image."""
        if self._cofiber is None:
            X = self.check().tgt
            if self.src.bound != X.bound:
                raise SimplicialError(
                    "a cofibration needs one bound, not %d and %d" % (self.src.bound, X.bound)
                )
            subs = [{z for s, z in row if s[-1] == n} for n, row in enumerate(self.images)]
            if any(len(sub) < len(row) for sub, row in zip(subs, self.images)):
                raise SimplicialError("cofibration needs a levelwise injection")
            object.__setattr__(self, "_cofiber", collapse(X, subs))
        return self._cofiber

    def check(self):
        """The images, their equivariance, the faces and the basepoint, on
        the nondegenerate simplices; with the degeneracies formal, the map
        commutes with them by construction."""
        X, Y, images = self.src, self.tgt, self.images
        if len(images) != min(X.bound, Y.bound) + 1:
            raise SimplicialError("the map needs images at levels 0..%d" % min(X.bound, Y.bound))
        for n, row in enumerate(images):
            if len(row) != X.nd[n].size or any(
                s not in surjections(n, s[-1]) or not 0 <= z < Y.nd[s[-1]].size for s, z in row
            ):
                raise SimplicialError("component %d of the map is mis-levelled" % n)
            for g, act in enumerate(X.nd[n].action):
                moved = [(s, Y.nd[s[-1]].action[g][z]) for s, z in row]
                if any(row[act[y]] != image for y, image in enumerate(moved)):
                    raise SimplicialError("map is not equivariant at level %d" % n)
            for i, faces in enumerate(X.nd_faces[n]):
                for (s, z), (t, w) in zip(row, faces):
                    u, v = images[t[-1]][w]
                    if _face_nf(Y.nd_faces, i, s, z) != (compose_monotone(u, t), v):
                        raise SimplicialError("map does not commute with d_%d" % i)
        if X.based and Y.based and images[0][X.nd_base] != ((0,), Y.nd_base):
            raise SimplicialError("map is not based")
        return self

    @staticmethod
    def identity(x):
        images = [[(s, y) for y in range(lv.size)] for s, lv in zip(_identities(x.bound), x.nd)]
        return SimplicialGMap(x, x, images)


def _identities(bound):
    """The identity maps of [0], ..., [bound] as value tuples."""
    return [tuple(range(n + 1)) for n in range(bound + 1)]


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
    return join(ngon, poles).as_based(n)  # the first cone point, after the n-gon


def join(K, L):
    """The join of two unbased simplicial G-sets, whose nondegenerate
    n-simplices are ("b", p, x, y), joining the p-simplex x of K to the
    (n-1-p)-simplex y of L, then ("l", x) and ("r", y), in full-level order."""
    _check_groups(K, L)
    G, bound, kn, ln = K.group, min(K.bound, L.bound), K.nd, L.nd
    parts = [
        tuple(
            ("b", p, x, y)
            for p in range(n) for x in range(kn[p].size) for y in range(ln[n - 1 - p].size)
        )
        + tuple(("l", x) for x in range(kn[n].size)) + tuple(("r", y) for y in range(ln[n].size))
        for n in range(bound + 1)
    ]
    ix = [{t: k for k, t in enumerate(level)} for level in parts]

    def act(g, n, t):
        if t[0] == "b":
            return ix[n]["b", t[1], kn[t[1]].action[g][t[2]], ln[n - 1 - t[1]].action[g][t[3]]]
        return ix[n][t[0], (kn if t[0] == "l" else ln)[n].action[g][t[1]]]

    def face(n, i, t):
        if t[0] != "b":
            s, z = (K if t[0] == "l" else L).nd_faces[n][i][t[1]]
            return s, ix[s[-1]][t[0], z]
        _, p, x, y = t
        q = n - 1 - p
        if (p if i <= p else q) == 0:  # the face drops the one vertex of a side
            return tuple(range(n)), ix[n - 1][("r", y) if i <= p else ("l", x)]
        if i <= p:
            s, z = K.nd_faces[p][i][x]
            return s + tuple(range(s[-1] + 1, s[-1] + q + 2)), ix[s[-1] + q + 1]["b", s[-1], z, y]
        s, w = L.nd_faces[q][i - p - 1][y]
        return tuple(range(p + 1)) + tuple(p + 1 + v for v in s), ix[p + s[-1] + 1]["b", p, x, w]

    nd = tuple(
        GSet._trusted(G, len(lv), tuple(tuple(act(g, n, t) for t in lv) for g in G.elements()))
        for n, lv in enumerate(parts)
    )
    faces = tuple(
        tuple(tuple(face(n, i, t) for t in lv) for i in range(n + 1 if n else 0))
        for n, lv in enumerate(parts)
    )
    return _nd_space(G, ("join", K, L), nd, faces, None, tuple(parts)).check()


# -- smash / wedge / collapse ---------------------------------------------------


def smash(X, Y):
    """Smash product of based simplicial G-sets.

    Its nondegenerate simplices are the crushed basepoint, vertex 0, and
    the pairs (a^* x, b^* y) of non-base nondegenerate simplices whose
    degeneracies repeat no position in common, the Eilenberg-Zilber
    shuffles, in the order of the full level.  They are laid out on first
    read (_smash_nd); until then the smash holds its recipe ("smash", X, Y)
    and its basepoint, vertex 0 at every level.  Built from checked factors
    the smash is a simplicial G-set, so it is not checked.
    """
    if not (X.based and Y.based):
        raise SimplicialError("smash needs based inputs")
    _check_groups(X, Y)
    S, base = object.__new__(SimplicialGSet), (0,) * (min(X.bound, Y.bound) + 1)
    _fill(S, [("group", X.group), ("basepoints", base)], None, ("smash", X, Y))
    return S


def _smash_nd(S):
    """The nondegenerate form of the smash S of X and Y, laid out from the
    factors' and kept with its parts, each simplex's (a, x, b, y)."""
    (X, Y), G, bound = S._recipe[1:], S.group, S.bound
    (xnd, xf, xb), (ynd, yf, yb) = X._nd_form()[:3], Y._nd_form()[:3]
    kept = [
        [[z for z in range(nd[m].size) if m or z != b] for m in range(bound + 1)]
        for nd, b in ((xnd, xb), (ynd, yb))
    ]
    nd, faces, lookup, joints = [], [()], [], {}
    for n in range(bound + 1):
        found, memo, wide = [], {}, Y._nd_form()[3][n] - 1

        def rank_of(S, s, z):
            """The index of s^* z among the non-base points of level n of S."""
            p = _position(S, s, z, memo)
            return p - (p > S.basepoints[n])

        for p, q in itertools.product(range(n + 1), repeat=2):
            if p + q >= n and kept[0][p] and kept[1][q]:
                for a, b in _shuffle_pairs(n, p, q):
                    for x in kept[0][p]:
                        rank = 1 + rank_of(X, a, x) * wide
                        found.extend((rank + rank_of(Y, b, y), (a, x, b, y)) for y in kept[1][q])
        found.sort()
        level = ((None,) if n == 0 else ()) + tuple(t for _, t in found)
        ix = {t: k for k, t in enumerate(level)}
        acts = zip(zip(*(lv.action for lv in xnd)), zip(*(lv.action for lv in ynd)))
        act = tuple(
            tuple(
                0 if t is None else ix[t[0], xa[t[0][-1]][t[1]], t[2], ya[t[2][-1]][t[3]]]
                for t in level
            )
            for xa, ya in acts
        )
        nd.append(GSet._trusted(G, len(level), act))
        lookup.append(ix)
        if n:
            fx, fy, rows = {}, {}, []
            for (a, x, b, y), i in itertools.product(level, range(n + 1)):
                if (i, a, x) not in fx:
                    fx[i, a, x] = _face_nf(xf, i, a, x)
                if (i, b, y) not in fy:
                    fy[i, b, y] = _face_nf(yf, i, b, y)
                (s, u), (t, v) = fx[i, a, x], fy[i, b, y]
                if (u == xb and s[-1] == 0) or (v == yb and t[-1] == 0):
                    rows.append(((0,) * n, 0))  # the basepoint
                    continue
                if (s, t) not in joints:
                    joints[s, t] = _joint(s, t)
                eps, s, t = joints[s, t]
                rows.append((eps, lookup[eps[-1]][s, u, t, v]))
            faces.append(tuple(tuple(rows[i :: n + 1]) for i in range(n + 1)))
    object.__setattr__(S, "_parts", tuple(tuple(ix) for ix in lookup))  # each level's keys
    return tuple(nd), tuple(faces), 0, _sizes(nd)


def _check_groups(X, Y):
    if X.group != Y.group:
        raise SimplicialError("the factors are over different groups")


def _shuffle_pairs(n, p, q):
    """The surjections a: [n] ->> [p] and b: [n] ->> [q] that repeat no
    position in common: s_I and s_J with I and J disjoint, which for
    p + q = n are the (p, q)-shuffles of the Eilenberg-Zilber map that
    homotopy._phi_induced lifts cycles by."""
    repeats = [(b, [k for k in range(1, n + 1) if b[k] == b[k - 1]]) for b in surjections(n, q)]
    return [
        (a, b) for a in surjections(n, p) for b, r in repeats if all(a[k] != a[k - 1] for k in r)
    ]


def _joint(s, t):
    """(eps, a, b) with s = a eps and t = b eps, where the surjection eps
    merges each position that both s and t repeat into the one before."""
    pairs = sorted(set(zip(s, t)))
    if len(pairs) == len(s):
        return tuple(range(len(s))), s, t
    pos = {pair: k for k, pair in enumerate(pairs)}
    a, b = zip(*pairs)
    return tuple(pos[pair] for pair in zip(s, t)), a, b


def wedge(X, Y):
    """One-point union of based simplicial G-sets, with its two inclusions.

    Its nondegenerate simplices are those of X and Y with the two
    basepoints made one, the vertex 0: in the order of the full level, the
    basepoint, then ("l", x) for the non-base x of X, then ("r", y).  Built
    from checked spaces, it and the inclusions are not checked."""
    if not (X.based and Y.based):
        raise SimplicialError("wedge needs based inputs")
    _check_groups(X, Y)
    G, bound, sides = X.group, min(X.bound, Y.bound), {"l": X, "r": Y}
    parts = [
        (None,) * (n == 0)
        + tuple(
            (c, x) for c, S in sides.items() for x in range(S.nd[n].size) if n or x != S.nd_base
        )
        for n in range(bound + 1)
    ]
    ix = [{t: k for k, t in enumerate(level)} for level in parts]

    def name(c, s, x):
        """(s, the wedge's index of x) for the simplex s^* x of side c."""
        return s, 0 if s[-1] == 0 and x == sides[c].nd_base else ix[s[-1]][c, x]

    def moved(n, g, t):
        """The wedge's index of g t for the level-n simplex t of parts."""
        return 0 if t is None else ix[n][t[0], sides[t[0]].nd[n].action[g][t[1]]]

    def level(n):
        act = tuple(tuple(moved(n, g, t) for t in parts[n]) for g in G.elements())
        return GSet._trusted(G, len(parts[n]), act)

    faces = ((),) + tuple(
        tuple(
            tuple(name(c, *sides[c].nd_faces[n][i][x]) for c, x in parts[n]) for i in range(n + 1)
        )
        for n in range(1, bound + 1)
    )
    nd = tuple(map(level, range(bound + 1)))
    out = _nd_space(G, ("wedge", X, Y), nd, faces, 0, tuple(parts))
    ident = _identities(bound)

    def inclusion(c, S):
        images = [[name(c, s, x) for x in range(S.nd[n].size)] for n, s in enumerate(ident)]
        return SimplicialGMap(S, out, images)

    return out, inclusion("l", X), inclusion("r", Y)


def collapse(X, subcomplex):
    """X / Y, with its projection, for the G-stable subcomplex Y given by
    its nondegenerate simplices: subcomplex[n] lists indices into X.nd[n],
    closed under faces and holding the basepoint.

    The nondegenerate simplices of X / Y are the crushed class, its
    basepoint, then those of X off Y, in full-level order; a face in Y goes
    to the crushed class.  Built from a checked space, the quotient and the
    projection are not checked."""
    G, nd, faces = X.group, X.nd, X.nd_faces
    subs = [frozenset(s) for s in subcomplex]
    if len(subs) != X.bound + 1:
        raise SimplicialError("need the subcomplex's simplices at each level 0..%d" % X.bound)
    for n, sub in enumerate(subs):
        if not sub <= frozenset(range(nd[n].size)):
            raise SimplicialError("subcomplex names a simplex out of range at level %d" % n)
        if any(nd[n].action[g][y] not in sub for g in G.elements() for y in sub):
            raise SimplicialError("subcomplex is not G-stable")
        if any(z not in subs[t[-1]] for row in faces[n] for t, z in map(row.__getitem__, sub)):
            raise SimplicialError("subcomplex not closed under faces")
    if X.based and X.nd_base not in subs[0]:
        raise SimplicialError("subcomplex must contain the basepoint")
    parts = [
        (None,) * (n == 0) + tuple(y for y in range(nd[n].size) if y not in sub)
        for n, sub in enumerate(subs)
    ]
    ix = [{y: k for k, y in enumerate(level)} for level in parts]

    def name(s, y):
        """The quotient's (s, index) of the simplex s^* y of X."""
        return ((0,) * len(s), 0) if y in subs[s[-1]] else (s, ix[s[-1]][y])

    def level(n):
        act = [[0 if y is None else ix[n][row[y]] for y in parts[n]] for row in nd[n].action]
        return GSet._trusted(G, len(parts[n]), tuple(map(tuple, act)))

    qfaces = ((),) + tuple(
        tuple(tuple(name(*row[y]) for y in parts[n]) for row in faces[n])
        for n in range(1, X.bound + 1)
    )
    qnd = tuple(map(level, range(X.bound + 1)))
    out = _nd_space(G, ("quotient", X, subs), qnd, qfaces, 0, tuple(parts))
    images = [[name(s, y) for y in range(nd[n].size)] for n, s in enumerate(_identities(X.bound))]
    return out, SimplicialGMap(X, out, images)


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
    if any(src.nd[n].size for n in range(1, src.bound + 1)):
        raise SimplicialError("the source is not discrete")
    vertices = range(tgt.nd[0].size)
    if len(vertex_values) != src.nd[0].size or not all(v in vertices for v in vertex_values):
        raise SimplicialError("need one vertex of the target per vertex of the source")
    # a discrete space's nondegenerate simplices are its vertices
    images = [tuple(((0,), v) for v in vertex_values)] + [()] * min(src.bound, tgt.bound)
    return SimplicialGMap(src, tgt, images).check()


# -- auxiliary: standard simplex ------------------------------------------------


def standard_simplex_plus(G, n, bound=DEFAULT_BOUND):
    """Delta[n] with a disjoint G-fixed basepoint, trivial action."""
    _check_bound(bound)
    pts = [[None] + list(monotones(m, n)) for m in range(bound + 1)]

    def op_rule(alpha):
        return lambda p: compose_monotone(p, alpha)

    full, _ = _assemble(
        G,
        pts,
        lambda g, m: lambda p: p,
        lambda m, i: op_rule(delta(i, m)),
        lambda m, i: op_rule(eta(i, m)),
        [None] * (bound + 1),
    )
    return SimplicialGSet(G, *full).check()
