"""Finite G-sets and equivariant maps as dense index tables.

Points are 0..size-1; the action is a table action[g][x].  All categorical
constructions (orbits, fixed points, pullbacks, balanced products) are
plain array manipulations with lexicographic tie-breaking, so every
derived object is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .groups import (
    FiniteGroup,
    cached_hash,
    classify_subgroup,
    weyl_group,
)


class GSetError(ValueError):
    pass


@cached_hash
@dataclass(frozen=True)
class GSet:
    group: FiniteGroup
    size: int
    action: tuple  # order x size, action[g][x]

    def __post_init__(self):
        object.__setattr__(self, "action", tuple(tuple(r) for r in self.action))
        if len(self.action) != self.group.order:
            raise GSetError("need one action row per group element")
        for row in self.action:
            if len(row) != self.size or (self.size and sorted(row) != list(range(self.size))):
                raise GSetError("action rows must permute the points")
        e = self.group.identity
        if self.size and self.action[e] != tuple(range(self.size)):
            raise GSetError("identity must act trivially")
        G = self.group
        for g in G.elements():
            for h in G.elements():
                gh = G.mul[g][h]
                for x in range(self.size):
                    if self.action[g][self.action[h][x]] != self.action[gh][x]:
                        raise GSetError("action is not a homomorphism")

    def act(self, g, x):
        return self.action[g][x]

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


@cached_hash
@dataclass(frozen=True)
class GMap:
    src: GSet
    tgt: GSet
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.src.size:
            raise GSetError("map needs one value per point")
        if any(not (0 <= v < self.tgt.size) for v in self.values):
            raise GSetError("map value out of range")
        G = self.src.group
        if G is not self.tgt.group and G != self.tgt.group:
            raise GSetError("source and target must share the group")
        for g in G.elements():
            for x in range(self.src.size):
                if self.values[self.src.action[g][x]] != self.tgt.action[g][self.values[x]]:
                    raise GSetError("map is not equivariant")

    def __call__(self, x):
        return self.values[x]

    @staticmethod
    def _trusted(src, tgt, values):
        """The map of a table that is equivariant by construction, built
        without the constructor's checks."""
        out = object.__new__(GMap)
        object.__setattr__(out, "src", src)
        object.__setattr__(out, "tgt", tgt)
        object.__setattr__(out, "values", tuple(values))
        return out

    def compose(self, other):
        """self o other.  A composite of equivariant maps is equivariant, so
        it skips the equivariance check of the constructor."""
        if other.tgt != self.src:
            raise GSetError("composed maps do not meet")
        return GMap._trusted(other.src, self.tgt, (self.values[v] for v in other.values))

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


@dataclass(frozen=True)
class Orbit:
    points: tuple
    basepoint: int  # smallest point whose stabilizer is the class representative
    record: object  # SubgroupRecord
    from_std: tuple  # coset index in std orbit -> point of the ambient set
    to_std: tuple  # pairs (point, coset index)

    @property
    def std(self):
        return std_orbit(self.record.group, self.record)


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
        base = min(p for p in pts if S.stabilizer(p) == rec.elements)
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


def product(S, T):
    """(P, proj1, proj2) with points ordered lexicographically as (s, t)."""
    G = S.group
    n = S.size * T.size

    def idx(s, t):
        return s * T.size + t

    action = tuple(
        tuple(
            idx(S.action[g][s], T.action[g][t])
            for s in range(S.size)
            for t in range(T.size)
        )
        for g in G.elements()
    )
    p = GSet(G, n, action)
    p1 = GMap(p, S, tuple(s for s in range(S.size) for _ in range(T.size)))
    p2 = GMap(p, T, tuple(t for _ in range(S.size) for t in range(T.size)))
    return p, p1, p2


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


def pullback_mediator(f, g, u, v):
    """The unique map into the pullback (f, g) agreeing with the cone (u, v)."""
    index = {(f.values[i], g.values[i]): i for i in range(f.src.size)}
    vals = tuple(index[(u.values[x], v.values[x])] for x in range(u.src.size))
    return GMap(u.src, f.src, vals)


@dataclass(frozen=True)
class FixedPoints:
    """S^H with its Weyl group action."""

    wset: GSet
    points: tuple  # wset point index -> point of S
    weyl: FiniteGroup
    weyl_reps: tuple
    index: dict = field(hash=False, compare=False)  # point of S -> wset point index

    def index_of(self, p):
        return self.index[p]


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


def restrict_map_to_fixed(f, elems):
    """A G-map restricted to H-fixed points, as a Weyl-group map."""
    fs = fixed_points(f.src, elems)
    ft = fixed_points(f.tgt, elems)
    vals = tuple(ft.index[f.values[p]] for p in fs.points)
    return GMap(fs.wset, ft.wset, vals)


def enumerate_gmaps(S, T):
    """All equivariant maps S -> T, in a deterministic order."""
    orbits = orbit_decompose(S)
    choicesets = []
    for o in orbits:
        targets = T.fixed_by(o.record.elements)
        choicesets.append(targets)
    out = []

    def rec(i, valmap):
        if i == len(orbits):
            out.append(GMap(S, T, tuple(valmap)))
            return
        o = orbits[i]
        space, reps, _ = coset_space(S.group, o.record.elements)
        for t in choicesets[i]:
            vals = list(valmap)
            for ci, r in enumerate(reps):
                vals[o.from_std[ci]] = T.action[r][t]
            rec(i + 1, vals)

    rec(0, [0] * S.size)
    if S.size == 0:
        return (GMap(S, T, ()),)
    return tuple(out)


@dataclass(frozen=True)
class Induction:
    """Balanced product G/H x_W Y for a Weyl-group set Y."""

    group: FiniteGroup
    helems: tuple
    source: GSet  # the W-set Y
    gset: GSet
    classes: tuple  # class index -> canonical (coset index, y)
    class_index: dict = field(hash=False, compare=False)
    unit: GMap = None  # Y -> (LY)^H as a W-map

    def class_of(self, coset_idx, y):
        return self.class_index[(coset_idx, y)]

    def induced_map(self, f):
        """L(f) for a W-map f: Y -> Y'."""
        other = induce_from_weyl(self.group, self.helems, f.tgt)
        vals = []
        for i, y in self.classes:
            vals.append(other.class_of(i, f.values[y]))
        return GMap(self.gset, other.gset, tuple(vals))


@lru_cache(maxsize=None)
def induce_from_weyl(G, helems, Y):
    """L(Y) = G/H x_W Y with unit map eta: Y -> (LY)^H."""
    space, reps, e_idx = coset_space(G, helems)
    W, wreps = weyl_group(G, helems)
    if Y.group != W:
        raise GSetError("Y must carry the Weyl group action of H")

    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    # identify (g n H, y) with (g H, (nH) . y) for n in N(H)
    pairs = [(i, y) for i in range(space.size) for y in range(Y.size)]
    for p in pairs:
        parent[p] = p
    for i in range(space.size):
        r = reps[i]
        for w in W.elements():
            n = wreps[w]
            j = _coset_index(G, helems, G.mul[r][n])
            for y in range(Y.size):
                union((j, y), (i, Y.action[w][y]))

    classes = sorted({find(p) for p in pairs})
    cindex = {}
    for p in pairs:
        cindex[p] = classes.index(find(p))
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


def counit(G, helems, X):
    """epsilon: L(X^H) -> X, [(gH, x)] -> g . x."""
    fp = fixed_points(X, helems)
    ind = induce_from_weyl(G, helems, fp.wset)
    space, reps, _ = coset_space(G, helems)
    vals = []
    for i, y in ind.classes:
        vals.append(X.action[reps[i]][fp.points[y]])
    return ind, GMap(ind.gset, X, tuple(vals))
