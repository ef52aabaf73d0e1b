"""G-set constructions that the tests compare against: the mediating map
into a pullback, every equivariant map between two G-sets, and the
induction adjunction's L(f) and counit.

None of them is called by the package; each states a universal property
that the package's pullbacks, inductions and tensors are checked by.
"""

from eqmack.gsets import GMap, coset_space, fixed_points, induce_from_weyl, orbit_decompose


def pullback_mediator(f, g, u, v):
    """The unique map into the pullback (f, g) agreeing with the cone (u, v)."""
    index = {(f.values[i], g.values[i]): i for i in range(f.src.size)}
    vals = tuple(index[(u.values[x], v.values[x])] for x in range(u.src.size))
    return GMap(u.src, f.src, vals)


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


def induced_map(ind, f):
    """L(f) for a W-map f: Y -> Y', ind being the Induction of Y."""
    other = induce_from_weyl(ind.group, ind.helems, f.tgt)
    vals = []
    for i, y in ind.classes:
        vals.append(other.class_of(i, f.values[y]))
    return GMap(ind.gset, other.gset, tuple(vals))


def counit(G, helems, X):
    """epsilon: L(X^H) -> X, [(gH, x)] -> g . x."""
    fp = fixed_points(X, helems)
    ind = induce_from_weyl(G, helems, fp.wset)
    space, reps, _ = coset_space(G, helems)
    vals = []
    for i, y in ind.classes:
        vals.append(X.action[reps[i]][fp.points[y]])
    return ind, GMap(ind.gset, X, tuple(vals))
