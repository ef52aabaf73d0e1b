"""The immutable value classes: comparison, hashing, assignment, construction,
copying and repr."""

import copy
import pickle

import pytest

from eqmack.abelian import AbGroup, ChainComplex
from eqmack.groups import FiniteGroup, subgroup_classes, weyl_group
from eqmack.gsets import (
    GMap,
    GSet,
    coset_space,
    fixed_points,
    induce_from_weyl,
    orbit_decompose,
    trivial_gset,
)
from eqmack.mackey import OrbitMap, WeylModule
from eqmack.simplicial import SimplicialGMap, rotation_rep, sign_circle, sign_rep, smash
from eqmack.tensor import product_level

from coend_reference import CoendRep

C2 = FiniteGroup.cyclic(2)
C3 = FiniteGroup.cyclic(3)
REGULAR = coset_space(C2, (C2.identity,))[0]  # C2 acting on itself


def induction():
    W, _ = weyl_group(C2, (C2.identity,))
    return induce_from_weyl(C2, (C2.identity,), trivial_gset(W, 2))


VALUES = {
    "FiniteGroup": lambda: C3,
    "SubgroupRecord": lambda: subgroup_classes(C3)[1],
    "GSet": lambda: REGULAR,
    "GMap": lambda: GMap.identity(REGULAR),
    "Orbit": lambda: orbit_decompose(REGULAR)[0],
    "FixedPoints": lambda: fixed_points(REGULAR, (C2.identity,)),
    "Induction": induction,
    "OrbitMap": lambda: OrbitMap.identity(subgroup_classes(C2)[0]),
    "WeylModule": lambda: WeylModule.regular(C2),
    "SimplicialGSet": lambda: sign_circle(C2, (0,), 2),
    "SimplicialGMap": lambda: SimplicialGMap.identity(sign_circle(C2, (0,), 2)),
    "RepDescriptor": lambda: rotation_rep(3, 1),
    "LevelSet": lambda: product_level(sign_circle(C2, (0,), 2).levels[1], REGULAR),
    "CoendRep": lambda: CoendRep(REGULAR, GMap.identity(REGULAR), (1, 0)),
}


def fields(x):
    """x's fields by name, as its constructor takes them."""
    return {n: getattr(x, n) for n in type(x).__slots__ if not n.startswith("_")}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_give_equal_values_and_hashes(name):
    x = VALUES[name]()
    assert type(x).__name__ == name
    y = type(x)(**fields(x))  # keyword construction of every field
    assert y is not x
    assert y == x and not y != x
    assert hash(y) == hash(x)
    assert x != object() and x != fields(x)


def test_a_different_field_compares_unequal():
    assert GSet(C2, 2, ((0, 1), (1, 0))) == REGULAR
    assert GSet(C2, 2, ((0, 1), (0, 1))) != REGULAR
    assert GMap(REGULAR, REGULAR, (1, 0)) != GMap.identity(REGULAR)
    assert sign_rep() != sign_rep(kernel=(0,))


def test_the_group_name_is_not_compared():
    named = FiniteGroup(C3.mul, name="Z/3")
    assert named == C3 and hash(named) == hash(C3)
    assert named.name == "Z/3"


@pytest.mark.parametrize(
    "name, index",
    [("FixedPoints", "index"), ("LevelSet", "index"), ("Induction", "class_index")],
)
def test_index_dicts_are_not_compared(name, index):
    x = VALUES[name]()
    assert getattr(x, index)
    y = type(x)(**{**fields(x), index: {}})
    assert y == x and hash(y) == hash(x)


@pytest.mark.parametrize("name", ["GSet", "GMap", "FiniteGroup", "SimplicialGSet"])
def test_fields_cannot_be_assigned(name):
    x = VALUES[name]()
    field = next(iter(fields(x)))
    before = getattr(x, field)
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, field) is before


def test_chain_complex_keyword_construction():
    # the value classes are built by keyword above; the mutable records keep
    # their keywords too, and each complex its own homology cache
    Z = AbGroup.free(1)
    cc = ChainComplex(groups={0: Z}, diffs={})
    assert cc.homology(0) == Z
    assert ChainComplex(groups={}, diffs={})._hcache == {}


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_fields_and_attached_tables(duplicate):
    X = sign_circle(C2, (0,), 2)
    sm = smash(X, X)
    for x in [VALUES[name]() for name in sorted(VALUES)] + [sm]:
        y = duplicate(x)
        assert y == x and hash(y) == hash(x)
    y = duplicate(sm)
    assert y._smash_points == sm._smash_points
    assert y._smash_index == sm._smash_index
    with pytest.raises(AttributeError):
        y.group = None


def test_reprs():
    assert repr(sign_rep()) == "RepDescriptor(kind='sign', n=0, k=1, kernel=())"
    assert repr(C3) == "FiniteGroup(C3, order=3)"
    assert repr(REGULAR) == "GSet(C2, size=2)"
