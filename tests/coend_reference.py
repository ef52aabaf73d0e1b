"""Coend representatives of the tensor X (x) M, for the tests.

The package stores each level of X (x) M post-collapse, as M(X_n x S).  A
class of the coend is represented by a G-set carrier, a G-map into X_n x S
and a coefficient in M(carrier); these representatives, their collapse
into M(X_n x S) and the pullback recipe for the contravariant maps are the
paper's construction, which the tests check the collapsed maps against.
"""

from eqmack.groups import Frozen
from eqmack.gsets import GMap, GSet, pullback
from eqmack.tensor import TensorError


class CoendRep(Frozen):
    """(carrier, map into X_n x S, coefficient in M(carrier))."""

    __slots__ = ("carrier", "gmap", "coeff")

    def __init__(self, carrier, gmap, coeff):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "gmap", gmap)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "_key", (carrier, gmap, coeff))

    def is_injective(self):
        return self.gmap.is_injective()


def normalize_coend_rep(T, n, S, rep):
    """Collapse a representative to its class in M(X_n x S)."""
    ls = T.level_set(n, S)
    if rep.gmap.tgt != ls.gset:
        raise TensorError("representative does not land in the right level")
    return T.M.covariant(rep.gmap)(rep.coeff)


def injective_normal_form(T, n, S, rep):
    """Factor a representative through its image, per the injectivity trick."""
    img = sorted(set(rep.gmap.values))
    ls = T.level_set(n, S)
    pos = {p: i for i, p in enumerate(img)}
    G = T.group
    action = tuple(
        tuple(pos[ls.gset.action[g][p]] for p in img) for g in G.elements()
    )
    iset = GSet(G, len(img), action)
    surj = GMap(rep.carrier, iset, tuple(pos[v] for v in rep.gmap.values))
    incl = GMap(iset, ls.gset, tuple(img))
    coeff = T.M.covariant(surj)(rep.coeff)
    return CoendRep(carrier=iset, gmap=incl, coeff=coeff)


def identity_rep(T, n, S, element):
    ls = T.level_set(n, S)
    return CoendRep(
        carrier=ls.gset, gmap=GMap.identity(ls.gset), coeff=tuple(element)
    )


def transfer_via_pullback(T, n, f, rep):
    """The contravariant map along f: S -> T computed by the pullback recipe.

    rep represents a class in (X (x) M)(T)_n; the result is the class in
    (X (x) M)(S)_n obtained by pulling the representative back along
    id x f and applying the coefficient restriction of the fiber map.
    """
    if T.reduced:
        raise TensorError("the pullback recipe is exercised on the unreduced tensor")
    idxf = T.level_set(n, f.src).gmap(T.level_set(n, f.tgt), lambda x, s: (x, f.values[s]))
    b, beta, fmap = pullback(idxf, rep.gmap)
    coeff = T.M.contravariant(fmap)(rep.coeff)
    return T.M.covariant(beta)(coeff)
