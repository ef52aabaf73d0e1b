"""Bredon homology on the equivariant Morse complex against the normalized
chains.

bredon_groups and bredon_homology read the Morse complex of a G-invariant
matching on the space (homotopy._morse); MackeyChainComplex on the reduced
tensor keeps every nondegenerate simplex and is the oracle here.  A minimal
G-CW structure of S^{k sigma} has one fixed 0-cell and one free cell in each
degree 1..k, and one of the C_p-sphere S^lambda has one fixed 0-cell and one
free cell in degrees 1 and 2; the matching finds exactly those.
"""

import pytest

from eqmack.abelian import AbGroup
from eqmack.groups import FiniteGroup, subgroup_classes
from eqmack.gsets import trivial_gset
from eqmack.homotopy import (
    HomotopyError,
    MackeyChainComplex,
    _morse,
    bredon_groups,
    bredon_homology,
)
from eqmack.mackey import burnside_mackey, constant_mackey, orbit_maps_between, verify_axioms
from eqmack.simplicial import (
    discrete_space,
    rotation_rep,
    sign_rep,
    sphere_for_descriptors,
    trivial_rep,
)
from eqmack.tensor import TensorError, reduced_tensor

C2, C3, C4, C5 = (FiniteGroup.cyclic(p) for p in (2, 3, 4, 5))
S3 = FiniteGroup.symmetric(3)
SIGN_A3 = sign_rep(next(r for r in subgroup_classes(S3) if r.order == 3).elements)
SIGN_C4 = sign_rep(next(r for r in subgroup_classes(C4) if r.order == 2).elements)
COEFFS = ("A", "Z", "Z/2")


def coefficients(G, name):
    if name == "A":
        return burnside_mackey(G)
    return constant_mackey(G, AbGroup.free(1) if name == "Z" else AbGroup.cyclic(2))


def grid():
    """label -> (group, descriptors, bound)."""
    spaces = {
        "C2 %dsigma bound %d" % (k, b): (C2, [sign_rep()] * k, b)
        for k in range(5)
        for b in range(k, k + 3)
    }
    rot3, rot4 = rotation_rep(3, 1), rotation_rep(4, 1)
    for label, G, descs in [
        ("C3 rot", C3, [rot3]),
        ("C3 2rot", C3, [rot3, rot3]),
        ("C3 rot+1", C3, [rot3, trivial_rep(1)]),
        ("C5 rot:5:1", C5, [rotation_rep(5, 1)]),
        ("C5 rot:5:2", C5, [rotation_rep(5, 2)]),
        ("C4 rot", C4, [rot4]),
        ("C4 sign", C4, [SIGN_C4]),
        ("C4 rot+sign", C4, [rot4, SIGN_C4]),
        ("S3 sigma+1", S3, [SIGN_A3, trivial_rep(1)]),
        ("S3 2sigma", S3, [SIGN_A3, SIGN_A3]),
        ("S3 1", S3, [trivial_rep(1)]),
    ]:
        spaces[label] = G, descs, sum(d.dim for d in descs) + 1
    return spaces


GRID = grid()


@pytest.mark.parametrize("coeffs", COEFFS)
@pytest.mark.parametrize("label", list(GRID))
def test_bredon_groups_equal_the_normalized_chains(label, coeffs):
    G, descs, bound = GRID[label]
    X, M = sphere_for_descriptors(G, descs, bound), coefficients(G, coeffs)
    oracle = MackeyChainComplex(reduced_tensor(X, M))
    table = bredon_groups(X, M, range(bound))
    for n in range(bound):
        for rec in subgroup_classes(G):
            ours, theirs = table[n][rec.class_id], oracle.homology(rec, n)
            assert ours.invariants() == theirs.invariants(), (n, rec.class_id)


@pytest.mark.parametrize("k", range(1, 6))
def test_sign_spheres_keep_the_minimal_cells(k):
    X = sphere_for_descriptors(C2, [sign_rep()] * k, k + 1)
    crit = _morse(X)
    assert [len(c) for c in crit] == [1] + [2] * k + [0]


@pytest.mark.parametrize(
    "G, desc", [(C3, rotation_rep(3, 1)), (C5, rotation_rep(5, 1)), (C5, rotation_rep(5, 2))]
)
def test_rotation_spheres_keep_the_minimal_cells(G, desc):
    X = sphere_for_descriptors(G, [desc], 3)
    assert [len(c) for c in _morse(X)] == [1, G.order, G.order, 0]


def test_the_matching_is_kept_on_the_space():
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, 3)
    first = _morse(X)
    bredon_groups(X, constant_mackey(C2, AbGroup.free(1)), range(3))
    bredon_groups(X, burnside_mackey(C2), range(3))
    assert _morse(X) is first


def test_critical_boundaries_map_into_larger_stabilizers():
    # a term c y of the reduced boundary of x is the G-map x |-> y
    for G, descs, bound in GRID.values():
        X = sphere_for_descriptors(G, descs, bound)
        bd = _morse(X)
        for n in range(1, X.bound + 1):
            act, down = X.nd[n].action, X.nd[n - 1].action
            for x in bd[n]:
                assert set(bd[n][x]) <= set(bd[n - 1])
                for y in bd[n][x]:
                    assert all(down[g][y] == y for g in range(G.order) if act[g][x] == x)


def invariants(h):
    return h.kernel()[0].invariants(), h.cokernel()[0].invariants()


@pytest.mark.parametrize(
    "G, descs, bound",
    [(C2, [sign_rep()] * 2, 3), (C3, [rotation_rep(3, 1)], 3), (S3, [SIGN_A3, trivial_rep(1)], 3)],
    ids=["C2 2sigma", "C3 rot", "S3 sigma+1"],
)
@pytest.mark.parametrize("coeffs", COEFFS)
def test_bredon_homology_restrictions_and_transfers_match_the_oracle(G, descs, bound, coeffs):
    X, M = sphere_for_descriptors(G, descs, bound), coefficients(G, coeffs)
    oracle = MackeyChainComplex(reduced_tensor(X, M))
    recs = subgroup_classes(G)
    for n in range(bound):
        H = bredon_homology(X, M, n)
        assert verify_axioms(H).passed
        for j in recs:
            assert H.orbit_value(j).invariants() == oracle.homology(j, n).invariants()
            for h in recs:
                for om in orbit_maps_between(j, h):
                    ours = {"tr": H.orbit_covariant(om), "res": H.orbit_contravariant(om)}
                    for kind, hom in ours.items():
                        theirs = oracle.transition_chain_map(om, kind).induced(n)
                        assert invariants(hom) == invariants(theirs), (n, kind, om)


def test_bredon_errors_are_kept():
    M = constant_mackey(C2, AbGroup.free(1))
    X = sphere_for_descriptors(C2, [sign_rep()], 2)
    with pytest.raises(HomotopyError, match="degree 2 past bound 2"):
        bredon_groups(X, M, [2])
    with pytest.raises(HomotopyError, match="degree 2 past bound 2"):
        bredon_homology(X, M, 2)
    unbased = discrete_space(C2, trivial_gset(C2, 2), 2)
    with pytest.raises(TensorError, match="based space"):
        bredon_groups(unbased, M, [0])
    with pytest.raises(TensorError, match="share the group"):
        bredon_groups(X, constant_mackey(C3, AbGroup.free(1)), [0])
