import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from eqmack.groups import FiniteGroup, subgroup_classes
from eqmack.gsets import (
    GMap,
    GSet,
    GSetError,
    coset_space,
    counit,
    disjoint_union,
    empty_gset,
    enumerate_gmaps,
    fixed_points,
    induce_from_weyl,
    orbit_decompose,
    point_gset,
    product,
    pullback,
    pullback_mediator,
    regular_gset,
    std_orbit,
    trivial_gset,
)


C2 = FiniteGroup.cyclic(2)
C3 = FiniteGroup.cyclic(3)
S3 = FiniteGroup.symmetric(3)


def recs(G):
    return subgroup_classes(G)


def test_gset_validation():
    with pytest.raises(GSetError):
        GSet(C2, 3, ((0, 1, 2), (1, 2, 0)))  # order-3 permutation for an involution
    with pytest.raises(GSetError):
        GSet(C2, 2, ((0, 1), (0, 0)))  # not a permutation
    GSet(C2, 2, ((0, 1), (1, 0)))


def test_orbit_decompose_empty_and_regular():
    assert orbit_decompose(empty_gset(C2)) == ()
    reg = regular_gset(C2)
    orbs = orbit_decompose(reg)
    assert len(orbs) == 1
    assert orbs[0].record.elements == (0,)


def test_orbit_decompose_mixed():
    # {a, a-bar, w}: swap the first two, fix w
    s = GSet(C2, 3, ((0, 1, 2), (1, 0, 2)))
    orbs = orbit_decompose(s)
    assert [o.points for o in orbs] == [(0, 1), (2,)]
    assert orbs[0].record.order == 1
    assert orbs[1].record.order == 2


def test_orbit_iso_to_standard():
    for G in (C2, S3):
        for rec in recs(G):
            orb = std_orbit(G, rec)
            o = orbit_decompose(orb)[0]
            assert o.record is rec
            # from_std is a bijection implementing g . basepoint
            assert sorted(o.from_std) == list(range(orb.size))


def test_fixed_points_examples():
    reg = regular_gset(C2)
    full = recs(C2)[1]
    assert fixed_points(reg, full.elements).points == ()
    mixed, _ = disjoint_union([regular_gset(C2), point_gset(C2)])
    fp = fixed_points(mixed, full.elements)
    assert len(fp.points) == 1
    # S3/C2 has one C2-fixed point with trivial Weyl action
    c2 = next(r for r in recs(S3) if r.order == 2)
    orb = std_orbit(S3, c2)
    fp = fixed_points(orb, c2.elements)
    assert len(fp.points) == 1
    assert fp.weyl.order == 1


def test_pullback_of_projection():
    proj = GMap(regular_gset(C2), point_gset(C2), (0, 0))
    a, f, g = pullback(proj, proj)
    assert a.size == 4
    assert len(orbit_decompose(a)) == 2
    assert all(o.record.order == 1 for o in orbit_decompose(a))


def test_pullback_universal_property():
    # cones into a pullback factor uniquely, exhaustively on small sets
    s = GSet(C2, 3, ((0, 1, 2), (1, 0, 2)))
    t = point_gset(C2)
    h = GMap(s, t, (0, 0, 0))
    a, f, g = pullback(h, h)
    for u in enumerate_gmaps(s, s):
        med = pullback_mediator(f, g, u, u)
        assert f.compose(med).values == u.values
        assert g.compose(med).values == u.values


def test_product_is_pullback_over_point():
    s = regular_gset(C2)
    t = GSet(C2, 3, ((0, 1, 2), (1, 0, 2)))
    p, p1, p2 = product(s, t)
    pt = point_gset(C2)
    a, f, g = pullback(GMap(s, pt, (0, 0)), GMap(t, pt, (0, 0, 0)))
    assert a.size == p.size == 6


def test_enumerate_gmaps_counts():
    reg = regular_gset(C2)
    assert len(enumerate_gmaps(reg, reg)) == 2
    pt_orbit = std_orbit(C2, recs(C2)[1])
    assert len(enumerate_gmaps(pt_orbit, reg)) == 0
    for s in (reg, pt_orbit, empty_gset(C2)):
        assert len(enumerate_gmaps(s, point_gset(C2))) == 1


def test_enumerate_gmaps_exhaustive_small():
    # brute force: all set maps, filter equivariant ones
    s = GSet(C2, 3, ((0, 1, 2), (1, 0, 2)))
    t = GSet(C2, 4, ((0, 1, 2, 3), (1, 0, 3, 2)))
    brute = 0
    for vals in itertools.product(range(t.size), repeat=s.size):
        ok = all(
            vals[s.action[g][x]] == t.action[g][vals[x]]
            for g in C2.elements()
            for x in range(s.size)
        )
        brute += ok
    assert len(enumerate_gmaps(s, t)) == brute


def test_induction_examples():
    # H = G, Y = pt gives a point
    full = recs(C2)[1]
    Y = point_gset(full.weyl)
    ind = induce_from_weyl(C2, full.elements, Y)
    assert ind.gset.size == 1
    # G = C2, H = e, Y = free W-orbit gives C2/e
    e = recs(C2)[0]
    Yfree = regular_gset(e.weyl)
    ind = induce_from_weyl(C2, e.elements, Yfree)
    assert ind.gset.size == 2
    assert orbit_decompose(ind.gset)[0].record.order == 1


def test_unit_and_counit_triangles():
    for G in (C2, S3):
        for rec in recs(G):
            # X ranges over standard orbits: check R(eps) o (eta at X^H) = id
            for xrec in recs(G):
                X = std_orbit(G, xrec)
                fp = fixed_points(X, rec.elements)
                ind, eps = counit(G, rec.elements, X)
                eta = ind.unit
                reps_fixed = fixed_points(ind.gset, rec.elements)
                # R(eps): (L X^H)^H -> X^H
                vals = tuple(
                    fp.points.index(eps.values[p]) for p in reps_fixed.points
                )
                r_eps = GMap(reps_fixed.wset, fp.wset, vals)
                comp = r_eps.compose(eta)
                assert comp.values == tuple(range(fp.wset.size))


def test_counit_after_induced_unit_is_identity():
    # eps_{LY} o L(eta_Y) = id on LY
    for G in (C2, S3):
        for rec in recs(G):
            Y = regular_gset(rec.weyl)
            ind = induce_from_weyl(G, rec.elements, Y)
            lifted = ind.induced_map(ind.unit)
            ind2, eps = counit(G, rec.elements, ind.gset)
            assert ind2.gset.size == lifted.tgt.size
            comp = eps.compose(lifted)
            assert comp.values == tuple(range(ind.gset.size))


def small_gsets(G, max_size):
    """All G-sets up to iso with at most max_size points: orbit multisets."""
    orbits = [std_orbit(G, r) for r in recs(G)]
    sizes = [o.size for o in orbits]
    out = []

    def rec(i, left, chosen):
        if i == len(orbits):
            if chosen:
                out.append(disjoint_union(chosen)[0])
            return
        rec(i + 1, left, chosen)
        k = 1
        while k * sizes[i] <= left:
            rec(i + 1, left - k * sizes[i], chosen + [orbits[i]] * k)
            k += 1

    rec(0, max_size, [])
    return out


@pytest.mark.parametrize("G", [C2, S3])
def test_adjunction_counts(G):
    # |Map_G(LY, X)| = |Map_W(Y, X^H)| for small X, Y
    bound = 8 if G is C2 else 6
    for rec in recs(G):
        W = rec.weyl
        xs = small_gsets(G, 4 if G is S3 else bound)
        from eqmack.gsets import fixed_points as fpts

        ys = small_gsets(W, 3)
        for X in xs:
            fp = fpts(X, rec.elements)
            for Y in ys:
                ind = induce_from_weyl(G, rec.elements, Y)
                lhs = len(enumerate_gmaps(ind.gset, X))
                rhs = len(enumerate_gmaps(Y, fp.wset))
                assert lhs == rhs


def test_fixed_points_preserve_pullbacks():
    # right adjoints preserve limits: check |(A)^H| matches the fiber product
    s = GSet(C2, 3, ((0, 1, 2), (1, 0, 2)))
    pt = point_gset(C2)
    h = GMap(s, pt, (0, 0, 0))
    a, f, g = pullback(h, h)
    for rec in recs(C2):
        fa = fixed_points(a, rec.elements)
        fs = fixed_points(s, rec.elements)
        pairs = [
            (b, c)
            for b in fs.points
            for c in fs.points
        ]
        assert len(fa.points) == len(pairs)


def test_constructor_checks_equivariance_and_compose_keeps_it():
    reg, pt = regular_gset(C2), point_gset(C2)
    with pytest.raises(GSetError, match="equivariant"):
        GMap(pt, reg, (0,))  # the fixed point cannot land on a free orbit
    # composites skip the check but equal, and hash like, checked maps
    swap = GMap(reg, reg, (1, 0))
    composite = GMap(reg, pt, (0, 0)).compose(swap)
    assert composite == GMap(reg, pt, (0, 0))
    assert hash(composite) == hash(GMap(reg, pt, (0, 0)))
    assert swap.compose(swap) == GMap.identity(reg)


def test_equivariance_check_holds_under_optimized_python():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from eqmack.groups import FiniteGroup\n"
        "from eqmack.gsets import GMap, GSetError, point_gset, regular_gset\n"
        "C2 = FiniteGroup.cyclic(2)\n"
        "try:\n"
        "    GMap(point_gset(C2), regular_gset(C2), (0,))\n"
        "except GSetError:\n"
        "    print('rejected')\n" % src
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert run.stdout.split() == ["rejected"], run.stderr
