"""Bredon homology of smash products read off the factors' cell tables.

bredon_groups and bredon_homology read the cells of a smash off its recipe:
the tensor of its factors' cell tables, matched again (homotopy._cells), so
the smash's nondegenerate simplices are never laid out.  The normalized
chains of the laid-out smash (MackeyChainComplex on the reduced tensor) are
the oracle over the spaces of test_morse; the cellular chains of the
representation spheres give hand values past where the oracle is quick.
"""

import pytest

from eqmack.abelian import AbGroup
from eqmack.groups import FiniteGroup, subgroup_classes
from eqmack.homotopy import MackeyChainComplex, _cells, bredon_groups, bredon_homology
from eqmack.mackey import constant_mackey, orbit_maps_between
from eqmack.simplicial import rotation_rep, sign_rep, sphere_for_descriptors
from eqmack.tensor import reduced_tensor

from test_morse import COEFFS, GRID, coefficients, invariants

C2, C3, C5 = (FiniteGroup.cyclic(p) for p in (2, 3, 5))
Z = AbGroup.free(1)


@pytest.fixture
def no_smash_layout(monkeypatch):
    def refuse(X):
        raise AssertionError("a smash's nondegenerate simplices were laid out")

    with monkeypatch.context() as m:
        m.setattr("eqmack.simplicial._smash_nd", refuse)
        yield m


@pytest.mark.parametrize("coeffs", COEFFS)
@pytest.mark.parametrize("label", list(GRID))
def test_bredon_groups_equal_the_laid_out_smash(no_smash_layout, label, coeffs):
    G, descs, bound = GRID[label]
    X, M = sphere_for_descriptors(G, descs, bound), coefficients(G, coeffs)
    table = bredon_groups(X, M, range(bound))
    no_smash_layout.undo()  # the oracle lays the smash out
    oracle = MackeyChainComplex(reduced_tensor(X, M))
    for n in range(bound):
        for rec in subgroup_classes(G):
            assert table[n][rec.class_id].invariants() == oracle.homology(rec, n).invariants()


@pytest.mark.parametrize("label", ["C2 2sigma bound 3", "C3 rot", "S3 sigma+1"])
@pytest.mark.parametrize("coeffs", COEFFS)
def test_restrictions_and_transfers_equal_the_laid_out_smash(no_smash_layout, label, coeffs):
    G, descs, bound = GRID[label]
    X, M = sphere_for_descriptors(G, descs, bound), coefficients(G, coeffs)
    homology = [bredon_homology(X, M, n) for n in range(bound)]
    maps = [
        {(kind, om): H.orbit_covariant(om) if kind == "tr" else H.orbit_contravariant(om)
         for j in subgroup_classes(G) for h in subgroup_classes(G)
         for om in orbit_maps_between(j, h) for kind in ("tr", "res")}
        for H in homology
    ]
    no_smash_layout.undo()
    oracle = MackeyChainComplex(reduced_tensor(X, M))
    for n, homs in enumerate(maps):
        for (kind, om), hom in homs.items():
            assert invariants(hom) == invariants(oracle.transition_chain_map(om, kind).induced(n))


@pytest.mark.parametrize("label", list(GRID))
def test_cell_tables_are_complexes_of_g_maps(label):
    # d d = 0, d commutes with the action, and each term y of d x lies in a
    # G-set whose stabilizer contains G_x, as MackeyChainComplex needs
    G, descs, bound = GRID[label]
    cells = _cells(sphere_for_descriptors(G, descs, bound))
    assert len(cells) == bound + 1
    for n in range(1, bound + 1):
        (gset, table), (below, lower) = cells[n], cells[n - 1]
        assert set(table) <= set(range(gset.size))
        for x, col in table.items():
            assert set(col) <= set(lower)
            twice = {}
            for y, c in col.items():
                for z, e in lower[y].items():
                    twice[z] = twice.get(z, 0) + c * e
            assert not any(twice.values())
            for g, (act, down) in enumerate(zip(gset.action, below.action)):
                assert table[act[x]] == {down[y]: c for y, c in col.items()}
                if act[x] == x:
                    assert all(down[y] == y for y in col)


def sphere_values(G, descs):
    """(cell counts, {n: (H~_n at G/e, H~_n at G/G)}) of S^V with Z for
    C2 and V = k sigma, or C_p and V = k lambda, from a minimal G-CW
    structure: one fixed 0-cell and one free cell in each degree 1..dim V.
    At G/G, Z/p in even degrees below dim V and Z in degree dim V when it
    is even; at G/e, Z in degree dim V."""
    dim, p = sum(d.dim for d in descs), G.order
    counts = [1] + [p] * dim + [0]
    fixed = {n: "Z/%d" % p if n % 2 == 0 else "0" for n in range(dim)}
    fixed[dim] = "Z" if dim % 2 == 0 else "0"
    return counts, {n: ("Z" if n == dim else "0", fixed[n]) for n in range(dim + 1)}


@pytest.mark.parametrize(
    "G, descs",
    [(C2, [sign_rep()] * k) for k in range(1, 9)]
    + [(C3, [rotation_rep(3, 1)] * 3), (C5, [rotation_rep(5, 1)] * 2)],
    ids=["C2 %dsigma" % k for k in range(1, 9)] + ["C3 3lambda", "C5 2lambda"],
)
def test_representation_spheres_have_the_hand_values(no_smash_layout, G, descs):
    dim = sum(d.dim for d in descs)
    X = sphere_for_descriptors(G, descs, dim + 1)
    counts, values = sphere_values(G, descs)
    assert [len(table) for _, table in _cells(X)] == counts
    e, full = (rec.class_id for rec in subgroup_classes(G))
    table = bredon_groups(X, constant_mackey(G, Z), range(dim + 1))
    assert {n: (row[e].describe(), row[full].describe()) for n, row in table.items()} == values
