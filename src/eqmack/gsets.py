"""Finite G-sets and equivariant maps as dense index tables.

Points are 0..size-1; the action is a table action[g][x].  All categorical
constructions (orbits, fixed points, pullbacks, balanced products) are
plain array manipulations with lexicographic tie-breaking, so every
derived object is reproducible bit for bit.

Checks run at the public boundary: GSet(...) checks its action and
GMap(...) its equivariance.  Tables derived by constructions that keep both,
such as composites, smash faces and tensor level sets and their maps, are
built with GSet._trusted and GMap._trusted, which skip the checks.
"""

from functools import lru_cache

from .groups import (
    Frozen,
    classify_subgroup,
    weyl_group,
)

__all__ = [
    "GSetError", "GSet", "GMap", "Orbit", "FixedPoints", "Induction", "empty_gset",
    "point_gset", "trivial_gset", "regular_gset", "coset_space", "std_orbit",
    "orbit_decompose", "disjoint_union", "pullback", "fixed_points", "induce_from_weyl",
]


class GSetError(ValueError):
    pass


class GSet(Frozen):
    __slots__ = ("group", "size", "action")  # action[g][x], order x size

    def __init__(self, group, size, action):
        action = tuple(tuple(r) for r in action)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_key", (group, size, action))
        if len(action) != group.order:
            raise GSetError("need one action row per group element")
        for row in action:
            if len(row) != size or (size and sorted(row) != list(range(size))):
                raise GSetError("action rows must permute the points")
        if size and action[group.identity] != tuple(range(size)):
            raise GSetError("identity must act trivially")
        for g in group.elements():
            for h in group.elements():
                gh = group.mul[g][h]
                for x in range(size):
                    if action[g][action[h][x]] != action[gh][x]:
                        raise GSetError("action is not a homomorphism")

    def points(self):
        return range(self.size)

    def stabilizer(self, x):
        return tuple(g for g in self.group.elements() if self.action[g][x] == x)

    def orbit_of(self, x):
        return tuple(sorted({self.action[g][x] for g in self.group.elements()}))

    def fixed_by(self, elems):
        return tuple(
            x
            for x in range(self.size)
            if all(self.action[h][x] == x for h in elems)
        )

    def to_json(self):
        return {"size": self.size, "action": [list(r) for r in self.action]}

    def __repr__(self):
        return "GSet(%s, size=%d)" % (self.group.name, self.size)


class GMap(Frozen):
    __slots__ = ("src", "tgt", "values")

    def __init__(self, src, tgt, values):
        values = tuple(values)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_key", (src, tgt, values))
        if len(values) != src.size:
            raise GSetError("map needs one value per point")
        if any(not (0 <= v < tgt.size) for v in values):
            raise GSetError("map value out of range")
        G = src.group
        if G is not tgt.group and G != tgt.group:
            raise GSetError("source and target must share the group")
        for g in G.elements():
            for x in range(src.size):
                if values[src.action[g][x]] != tgt.action[g][values[x]]:
                    raise GSetError("map is not equivariant")

    def __call__(self, x):
        return self.values[x]

    def compose(self, other):
        """self o other.  A composite of equivariant maps is equivariant, so
        it skips the equivariance check of the constructor."""
        if other.tgt != self.src:
            raise GSetError("composed maps do not meet")
        return GMap._trusted(other.src, self.tgt, tuple(self.values[v] for v in other.values))

    @staticmethod
    def identity(s):
        return GMap(s, s, tuple(range(s.size)))

    def is_injective(self):
        return len(set(self.values)) == self.src.size

    def image(self):
        return tuple(sorted(set(self.values)))

    def __repr__(self):
        return "GMap(%d -> %d)" % (self.src.size, self.tgt.size)


def empty_gset(G):
    return GSet(G, 0, tuple(() for _ in G.elements()))


def point_gset(G):
    return GSet(G, 1, tuple((0,) for _ in G.elements()))


def trivial_gset(G, n):
    return GSet(G, n, tuple(tuple(range(n)) for _ in G.elements()))


def regular_gset(G):
    return GSet(G, G.order, tuple(tuple(G.mul[g][x] for x in G.elements()) for g in G.elements()))


@lru_cache(maxsize=None)
def coset_space(G, elems):
    """(GSet of left cosets of <elems>, coset reps, index of the identity coset).

    Cosets are sorted by their minimal member; each rep is that minimum.
    """
    hs = frozenset(elems)
    seen = set()
    cosets = []
    for g in G.elements():
        if g in seen:
            continue
        coset = tuple(sorted(G.mul[g][h] for h in hs))
        seen.update(coset)
        cosets.append(coset)
    cosets.sort(key=lambda c: c[0])
    index = {}
    for i, c in enumerate(cosets):
        for g in c:
            index[g] = i
    action = tuple(
        tuple(index[G.mul[g][c[0]]] for c in cosets) for g in G.elements()
    )
    gset = GSet(G, len(cosets), action)
    reps = tuple(c[0] for c in cosets)
    return gset, reps, index[G.identity]


def std_orbit(G, rec):
    """The standard orbit G/H for a subgroup class representative."""
    return coset_space(G, rec.elements)[0]


class Orbit(Frozen):
    """One orbit of a G-set.  basepoint is its smallest point whose
    stabilizer is the class representative of the SubgroupRecord record;
    from_std sends a coset index of the standard orbit to a point of the
    ambient set, and to_std lists the pairs (point, coset index)."""

    __slots__ = ("points", "basepoint", "record", "from_std", "to_std")

    def __init__(self, points, basepoint, record, from_std, to_std):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "basepoint", basepoint)
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "from_std", from_std)
        object.__setattr__(self, "to_std", to_std)
        object.__setattr__(self, "_key", (points, basepoint, record, from_std, to_std))


@lru_cache(maxsize=None)
def orbit_decompose(S):
    """Orbits of S with basepoints whose stabilizers are class representatives."""
    G = S.group
    seen = set()
    orbits = []
    for x in range(S.size):
        if x in seen:
            continue
        pts = S.orbit_of(x)
        seen.update(pts)
        rec, _ = classify_subgroup(G, S.stabilizer(x))
        # every stabilizer in one orbit has |H| elements, so H fixing p
        # means the stabilizer of p is H
        base = next(p for p in pts if all(S.action[h][p] == p for h in rec.elements))
        space, reps, _ = coset_space(G, rec.elements)
        from_std = tuple(S.action[r][base] for r in reps)
        to_std = tuple(sorted((p, i) for i, p in enumerate(from_std)))
        orbits.append(Orbit(points=pts, basepoint=base, record=rec, from_std=from_std, to_std=to_std))
    return tuple(orbits)


def disjoint_union(parts):
    """(U, inclusions as GMaps)."""
    parts = list(parts)
    if not parts:
        raise GSetError("need at least one part (0-ary unions need a group)")
    G = parts[0].group
    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.size
    action = []
    for g in G.elements():
        row = []
        for p, off in zip(parts, offsets):
            row.extend(off + v for v in p.action[g])
        action.append(tuple(row))
    u = GSet(G, total, tuple(action))
    incls = [
        GMap(p, u, tuple(off + x for x in range(p.size)))
        for p, off in zip(parts, offsets)
    ]
    return u, incls


def pullback(h, k):
    """Fiber product of h: B -> D and k: C -> D.

    Returns (A, f: A -> B, g: A -> C) with points the lexicographically
    ordered pairs (b, c) satisfying h(b) = k(c).
    """
    if h.tgt != k.tgt:
        raise GSetError("pullback needs a shared target")
    B, C = h.src, k.src
    pairs = [
        (b, c)
        for b in range(B.size)
        for c in range(C.size)
        if h.values[b] == k.values[c]
    ]
    index = {p: i for i, p in enumerate(pairs)}
    G = B.group
    action = tuple(
        tuple(index[(B.action[g][b], C.action[g][c])] for (b, c) in pairs)
        for g in G.elements()
    )
    a = GSet(G, len(pairs), action)
    f = GMap(a, B, tuple(b for b, _ in pairs))
    g = GMap(a, C, tuple(c for _, c in pairs))
    return a, f, g


class FixedPoints(Frozen):
    """S^H with its Weyl group action.  points sends a wset point index to
    a point of S and index, which is not compared, goes back."""

    __slots__ = ("wset", "points", "weyl", "weyl_reps", "index")

    def __init__(self, wset, points, weyl, weyl_reps, index):
        object.__setattr__(self, "wset", wset)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weyl", weyl)
        object.__setattr__(self, "weyl_reps", weyl_reps)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_key", (wset, points, weyl, weyl_reps))


@lru_cache(maxsize=None)
def fixed_points(S, elems):
    """Fixed points of the subgroup generated by elems, as a Weyl-group set."""
    G = S.group
    pts = S.fixed_by(elems)
    W, reps = weyl_group(G, elems)
    index = {p: i for i, p in enumerate(pts)}
    action = tuple(
        tuple(index[S.action[reps[w]][p]] for p in pts) for w in W.elements()
    )
    return FixedPoints(
        wset=GSet(W, len(pts), action), points=pts, weyl=W, weyl_reps=reps, index=index
    )


class Induction(Frozen):
    """Balanced product G/H x_W Y for a Weyl-group set Y, the source.

    classes sends a class index to its canonical (coset index, y) and
    class_index, which is not compared, goes back; unit is Y -> (LY)^H as
    a W-map.
    """

    __slots__ = ("group", "helems", "source", "gset", "classes", "class_index", "unit")

    def __init__(self, group, helems, source, gset, classes, class_index, unit=None):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "helems", helems)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "gset", gset)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "class_index", class_index)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "_key", (group, helems, source, gset, classes, unit))


@lru_cache(maxsize=None)
def induce_from_weyl(G, helems, Y):
    """L(Y) = G/H x_W Y with unit map eta: Y -> (LY)^H."""
    space, reps, e_idx = coset_space(G, helems)
    W, wreps = weyl_group(G, helems)
    if Y.group != W:
        raise GSetError("Y must carry the Weyl group action of H")

    # (g n H, y) ~ (g H, (nH) . y) for n in N(H): the class of (i, y) is its
    # orbit under the action of W on pairs, named by the orbit's minimum
    moved = [[_coset_index(G, helems, G.mul[r][n]) for n in wreps] for r in reps]
    least = {
        (i, y): min((j, Y.action[W.inv(w)][y]) for w, j in enumerate(moved[i]))
        for i in range(space.size)
        for y in range(Y.size)
    }
    classes = sorted(set(least.values()))
    rank = {c: k for k, c in enumerate(classes)}
    cindex = {p: rank[c] for p, c in least.items()}
    action = []
    for g in G.elements():
        row = []
        for (i, y) in classes:
            gi = _coset_index(G, helems, G.mul[g][reps[i]])
            row.append(cindex[(gi, y)])
        action.append(tuple(row))
    lset = GSet(G, len(classes), tuple(action))

    fp = fixed_points(lset, helems)
    unit_vals = tuple(fp.index[cindex[(e_idx, y)]] for y in range(Y.size))
    unit = GMap(Y, fp.wset, unit_vals)
    return Induction(
        group=G,
        helems=helems,
        source=Y,
        gset=lset,
        classes=tuple(classes),
        class_index=cindex,
        unit=unit,
    )


@lru_cache(maxsize=None)
def _coset_index(G, helems, g):
    hs = frozenset(helems)
    space, reps, _ = coset_space(G, helems)
    coset = tuple(sorted(G.mul[g][h] for h in hs))
    return reps.index(coset[0])
