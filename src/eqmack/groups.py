"""Finite groups via multiplication tables; subgroup classes and Weyl groups.

Elements are indices 0..order-1.  Everything is brute force: the groups of
interest fit in a few dozen elements, so O(|G|^3) validation and exhaustive
subgroup enumeration are the simplest trustworthy tools.
"""

import json
from functools import lru_cache

__all__ = [
    "GroupError", "FiniteGroup", "SubgroupRecord", "load_group", "all_subgroups",
    "normalizer", "is_subgroup", "weyl_group", "subgroup_classes", "classify_subgroup",
    "conjugation_witness",
]


class GroupError(ValueError):
    pass


class Frozen:
    """An immutable value: == and hash read the tuple of compared fields.

    A subclass lists its fields in __slots__ and sets them in __init__
    through object.__setattr__, together with _key, the tuple of the fields
    that are compared.  A field left out of _key, such as a lookup dict, is
    stored but neither compared nor hashed.  Keeping _key makes == a single
    tuple comparison, but two equal objects built apart still compare field
    by field, down to their groups; so what is derived from an object, such
    as a space's degeneracy flags, is kept in a slot of its own left out of
    _key.  Instances are dict and lru_cache keys whose fields are deep
    tuples, so the hash is worked out once and kept in the _hash slot.
    Assigning to a field raises AttributeError.  The repr lists the fields,
    those in __slots__ without a leading underscore, unless the subclass
    writes its own.
    """

    __slots__ = ("_key", "_hash")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key)
            object.__setattr__(self, "_hash", h)
            return h

    @classmethod
    def _trusted(cls, *fields):
        """An instance of a class whose _key is its __slots__ in order, from
        fields that are valid by construction: no constructor check runs."""
        out = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(out, name, value)
        object.__setattr__(out, "_key", fields)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__name__))

    def __getstate__(self):
        # copy and pickle take the set slots but not the hash: a str field
        # hashes differently in another process
        names = type(self).__slots__ + ("_key",)
        return {n: getattr(self, n) for n in names if hasattr(self, n)}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = (n for n in type(self).__slots__ if not n.startswith("_"))
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (n, getattr(self, n)) for n in fields),
        )


class FiniteGroup(Frozen):
    # mul[g][h] = g*h; _weyl, not compared, keeps weyl_group's results
    __slots__ = ("mul", "name", "_identity", "_inv", "_weyl")

    def __init__(self, mul, name="G"):
        mul = tuple(tuple(r) for r in mul)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_key", (mul,))  # the name is not compared
        object.__setattr__(self, "_weyl", {})
        n = len(mul)
        for row in mul:
            if len(row) != n or sorted(row) != list(range(n)):
                raise GroupError("multiplication table rows must be permutations")
        for col in zip(*mul) if n else ():
            if sorted(col) != list(range(n)):
                raise GroupError("multiplication table columns must be permutations")
        ident = None
        for e in range(n):
            if all(mul[e][g] == g and mul[g][e] == g for g in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupError("no identity element")
        object.__setattr__(self, "_identity", ident)
        inv = [None] * n
        for g in range(n):
            for h in range(n):
                if mul[g][h] == ident:
                    inv[g] = h
        if any(i is None for i in inv):
            raise GroupError("missing inverses")
        object.__setattr__(self, "_inv", tuple(inv))
        for a in range(n):
            for b in range(n):
                ab = mul[a][b]
                for c in range(n):
                    if mul[ab][c] != mul[a][mul[b][c]]:
                        raise GroupError("associativity fails at (%d,%d,%d)" % (a, b, c))

    @property
    def order(self):
        return len(self.mul)

    @property
    def identity(self):
        return self._identity

    def op(self, g, h):
        return self.mul[g][h]

    def inv(self, g):
        return self._inv[g]

    def conj(self, g, h):
        """g h g^-1."""
        return self.mul[self.mul[g][h]][self._inv[g]]

    def conjugate_set(self, g, elems):
        return frozenset(self.conj(g, h) for h in elems)

    def elements(self):
        return range(self.order)

    def element_order(self, g):
        k, x = 1, g
        while x != self._identity:
            x = self.mul[x][g]
            k += 1
        return k

    @staticmethod
    def trivial():
        return FiniteGroup(((0,),), name="1")

    @staticmethod
    def cyclic(n):
        mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return FiniteGroup(mul, name="C%d" % n)

    @staticmethod
    def symmetric(n):
        """S_n on its sorted permutations, generated by adjacent transpositions."""
        swaps = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n)) for i in range(n - 1)]
        return FiniteGroup.from_permutations(swaps, n, name="S%d" % n)

    @staticmethod
    def from_permutations(gens, degree, name="G"):
        """Close a list of permutations (value lists) under composition."""
        gens = [tuple(g) for g in gens]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise GroupError("generator is not a permutation of range(%d)" % degree)
        ident = tuple(range(degree))
        elems = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = tuple(p[g[i]] for i in range(degree))
                    if q not in elems:
                        elems.add(q)
                        nxt.append(q)
            frontier = nxt
        perms = sorted(elems)
        index = {p: i for i, p in enumerate(perms)}
        mul = tuple(
            tuple(index[tuple(p[q[i]] for i in range(degree))] for q in perms)
            for p in perms
        )
        return FiniteGroup(mul, name=name)

    def to_json(self):
        return {"name": self.name, "order": self.order, "mul": [list(r) for r in self.mul]}

    def __repr__(self):
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)


def load_group(data, name=None):
    """Group from a JSON-style dict: either a table or permutation generators."""
    if isinstance(data, str):
        data = json.loads(data)
    if "mul" in data:
        n = data.get("order", len(data["mul"]))
        if n != len(data["mul"]):
            raise GroupError("declared order does not match table size")
        return FiniteGroup(tuple(tuple(r) for r in data["mul"]), name=name or data.get("name", "G"))
    if "perm_generators" in data:
        gens = data["perm_generators"]
        if not gens:
            return FiniteGroup.trivial()
        degree = len(gens[0])
        return FiniteGroup.from_permutations(gens, degree, name=name or data.get("name", "G"))
    raise GroupError("group description needs 'mul' or 'perm_generators'")


class SubgroupRecord(Frozen):
    """One conjugacy class of subgroups, named by its minimal representative.

    elements are the sorted member indices of the representative, weyl is
    N(H)/H with its own table and weyl_reps has a coset representative in G
    per Weyl element.
    """

    __slots__ = ("group", "elements", "normalizer", "weyl", "weyl_reps", "class_id")

    def __init__(self, group, elements, normalizer, weyl, weyl_reps, class_id):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "normalizer", normalizer)
        object.__setattr__(self, "weyl", weyl)
        object.__setattr__(self, "weyl_reps", weyl_reps)
        object.__setattr__(self, "class_id", class_id)
        key = (group, elements, normalizer, weyl, weyl_reps, class_id)
        object.__setattr__(self, "_key", key)

    @property
    def order(self):
        return len(self.elements)

    @property
    def index(self):
        return self.group.order // len(self.elements)

    def __repr__(self):
        return "SubgroupRecord(order=%d, class=%d)" % (self.order, self.class_id)


def _closure(G, seed):
    elems = set(seed)
    elems.add(G.identity)
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elems):
                for c in (G.mul[a][b], G.mul[b][a]):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(elems)


@lru_cache(maxsize=None)
def all_subgroups(G):
    """Every subgroup of G, as sorted tuples, deterministically ordered."""
    cyclic = {_closure(G, (g,)) for g in G.elements()}
    subs = set(cyclic)
    subs.add(frozenset([G.identity]))
    frontier = set(subs)
    while frontier:
        nxt = set()
        for h in frontier:
            for c in cyclic:
                if c <= h:
                    continue
                j = _closure(G, tuple(h | c))
                if j not in subs:
                    subs.add(j)
                    nxt.add(j)
        frontier = nxt
    return tuple(sorted((tuple(sorted(s)) for s in subs), key=lambda t: (len(t), t)))


def normalizer(G, elems):
    hs = frozenset(elems)
    return tuple(sorted(g for g in G.elements() if G.conjugate_set(g, hs) == hs))


def is_subgroup(G, elems):
    s = frozenset(elems)
    if G.identity not in s:
        return False
    return all(G.mul[a][b] in s for a in s for b in s)


def weyl_group(G, elems):
    """(W, reps): the quotient N(H)/H as a FiniteGroup plus coset reps in G,
    kept on G once found.  A class representative's is the one on its
    SubgroupRecord, which equal groups share, so fixed points and records
    carry the same W."""
    hs = frozenset(elems)
    if hs not in G._weyl:
        rec = next((r for r in subgroup_classes(G) if frozenset(r.elements) == hs), None)
        G._weyl[hs] = (rec.weyl, rec.weyl_reps) if rec else _weyl_group(G, hs)
    return G._weyl[hs]


def _weyl_group(G, hs):
    norm = normalizer(G, hs)
    cosets = []
    seen = set()
    for n in norm:
        if n in seen:
            continue
        coset = tuple(sorted(G.mul[n][h] for h in hs))
        seen.update(coset)
        cosets.append(coset)
    cosets.sort(key=lambda c: c[0])
    reps = tuple(c[0] for c in cosets)
    index = {}
    for i, c in enumerate(cosets):
        for g in c:
            index[g] = i
    mul = tuple(
        tuple(index[G.mul[a][b]] for b in reps) for a in reps
    )
    W = FiniteGroup(mul, name="W(%s)" % ",".join(str(x) for x in sorted(hs)))
    return W, reps


@lru_cache(maxsize=None)
def subgroup_classes(G):
    """One SubgroupRecord per conjugacy class of subgroups.

    Representatives minimize the sorted element tuple within their class;
    classes are ordered by (order, representative), so records are stable
    across runs and processes.
    """
    subs = all_subgroups(G)
    seen = set()
    classes = []
    for s in subs:
        fs = frozenset(s)
        if fs in seen:
            continue
        orbit = {tuple(sorted(G.conjugate_set(g, fs))) for g in G.elements()}
        seen.update(frozenset(o) for o in orbit)
        rep = min(orbit)
        classes.append(rep)
    classes.sort(key=lambda t: (len(t), t))
    records = []
    for cid, rep in enumerate(classes):
        W, reps = _weyl_group(G, frozenset(rep))
        records.append(
            SubgroupRecord(
                group=G,
                elements=rep,
                normalizer=normalizer(G, rep),
                weyl=W,
                weyl_reps=reps,
                class_id=cid,
            )
        )
    return tuple(records)


def classify_subgroup(G, elems):
    """(record, a) with a K a^-1 == record.elements for K = elems."""
    key = tuple(sorted(elems))
    return _classify_cached(G, key)


@lru_cache(maxsize=None)
def _classify_cached(G, key):
    fs = frozenset(key)
    for rec in subgroup_classes(G):
        target = frozenset(rec.elements)
        if len(target) != len(fs):
            continue
        if fs == target:
            return rec, G.identity
        for a in G.elements():
            if G.conjugate_set(a, fs) == target:
                return rec, a
    raise GroupError("not a subgroup")


def conjugation_witness(G, K, H):
    """Smallest g with g K g^-1 a subset of H, or None."""
    ks = frozenset(K)
    hs = frozenset(H)
    if len(hs) % len(ks) != 0:
        return None
    for g in G.elements():
        if G.conjugate_set(g, ks) <= hs:
            return g
    return None
