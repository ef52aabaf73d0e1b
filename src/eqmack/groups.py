"""Finite groups via multiplication tables; subgroup classes and Weyl groups.

Elements are indices 0..order-1.  Everything is brute force: the groups of
interest fit in a few dozen elements, so O(|G|^3) validation and exhaustive
subgroup enumeration are the simplest trustworthy tools.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from functools import lru_cache


class GroupError(ValueError):
    pass


def cached_hash(cls):
    """Hash a frozen dataclass once per instance instead of on every lookup.

    The generated __hash__ walks every nested field each time an instance is
    a dict or lru_cache key.  This one hashes the same fields, those equality
    compares, to the same value, and stores the result on the instance.
    """
    names = tuple(f.name for f in fields(cls) if f.compare)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(tuple(getattr(self, n) for n in names))
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@cached_hash
@dataclass(frozen=True)
class FiniteGroup:
    mul: tuple  # mul[g][h] = g*h
    name: str = field(default="G", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mul", tuple(tuple(r) for r in self.mul))
        n = len(self.mul)
        for row in self.mul:
            if len(row) != n or sorted(row) != list(range(n)):
                raise GroupError("multiplication table rows must be permutations")
        for col in zip(*self.mul) if n else ():
            if sorted(col) != list(range(n)):
                raise GroupError("multiplication table columns must be permutations")
        ident = None
        for e in range(n):
            if all(self.mul[e][g] == g and self.mul[g][e] == g for g in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupError("no identity element")
        object.__setattr__(self, "_identity", ident)
        inv = [None] * n
        for g in range(n):
            for h in range(n):
                if self.mul[g][h] == ident:
                    inv[g] = h
        if any(i is None for i in inv):
            raise GroupError("missing inverses")
        object.__setattr__(self, "_inv", tuple(inv))
        for a in range(n):
            for b in range(n):
                ab = self.mul[a][b]
                for c in range(n):
                    if self.mul[ab][c] != self.mul[a][self.mul[b][c]]:
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
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        mul = tuple(
            tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms)
            for p in perms
        )
        return FiniteGroup(mul, name="S%d" % n)

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


@dataclass(frozen=True)
class SubgroupRecord:
    """One conjugacy class of subgroups, named by its minimal representative."""

    group: FiniteGroup
    elements: tuple  # sorted member indices of the representative
    normalizer: tuple
    weyl: FiniteGroup  # N(H)/H with its own table
    weyl_reps: tuple  # a coset representative in G per Weyl element
    class_id: int

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
    """(W, reps): the quotient N(H)/H as a FiniteGroup plus coset reps in G."""
    hs = frozenset(elems)
    norm = normalizer(G, elems)
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
        W, reps = weyl_group(G, rep)
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
