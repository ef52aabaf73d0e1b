import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmack.abelian import AbGroup
from eqmack.groups import FiniteGroup, subgroup_classes
from eqmack.gsets import GMap, GSet
from eqmack.homotopy import bredon_groups, ro_graded_table
from eqmack.mackey import WeylModule, constant_mackey
from eqmack.simplicial import (
    DEFAULT_BOUND,
    RepDescriptor,
    SimplicialError,
    SimplicialGMap,
    build_from_generators,
    circle_space,
    collapse,
    compose_monotone,
    delta,
    discrete_inclusion,
    epi_mono,
    eta,
    fixed_system,
    join,
    monotones,
    point_space,
    representation_sphere,
    rotation_rep,
    rotation_sphere,
    s0_space,
    sign_circle,
    sign_rep,
    smash,
    sphere_for_descriptors,
    standard_simplex_plus,
    surjections,
    suspend,
    trivial_rep,
    wedge,
)
from eqmack.tensor import ModuleTensor

from delta_reference import cylinder_inclusions, smash_assoc
from module_chains import chain_complex
from simplicial_reference import (
    full_level_check,
    full_level_collapse,
    full_level_wedge,
    generated_levels,
    join_levels,
    smash_levels,
)

C2 = FiniteGroup.cyclic(2)
C3 = FiniteGroup.cyclic(3)


def reduced_homology(X, n):
    """Integral homology of the underlying simplicial set, reduced when X
    is based."""
    trivial = WeylModule.trivial(X.group, AbGroup.free(1))
    return chain_complex(ModuleTensor(X, trivial, reduced=X.based)).homology(n).invariants()


def test_monotone_helpers():
    assert delta(1, 2) == (0, 2)
    assert eta(0, 1) == (0, 0, 1)
    tau = (0, 0, 2)
    iota, pi = epi_mono(tau)
    assert iota == (0, 2) and pi == (0, 0, 1)
    assert compose_monotone(iota, pi) == tau
    assert len(surjections(3, 1)) == 3
    assert len(monotones(1, 2)) == 6


def test_point_and_s0():
    pt = point_space(C2)
    assert all(l.size == 1 for l in pt.levels)
    s0 = s0_space(C2)
    assert reduced_homology(s0, 0) == (1, ())
    assert reduced_homology(s0, 1) == (0, ())


def test_circle_homology():
    c = circle_space(C2)
    assert reduced_homology(c, 0) == (0, ())
    assert reduced_homology(c, 1) == (1, ())
    assert reduced_homology(c, 2) == (0, ())


def test_sign_circle_structure():
    s = sign_circle(C2, (0,))
    assert s.levels[0].size == 2
    assert len(s.nondegenerate(1)) == 2
    assert reduced_homology(s, 1) == (1, ())
    # fixed points: two vertices for the full group, the circle for e
    full = subgroup_classes(C2)[1]
    fixed, _ = fixed_system(s, full.elements)
    assert fixed.levels[0].size == 2
    assert all(len(fixed.nondegenerate(n)) == 0 for n in range(1, fixed.bound + 1))
    e = subgroup_classes(C2)[0]
    under, _ = fixed_system(s, e.elements)
    assert reduced_homology(under, 1) == (1, ())


def test_smash_unit():
    s0 = s0_space(C2)
    sig = sign_circle(C2, (0,))
    sm = smash(sig, s0)
    for n in range(sm.bound + 1):
        assert sm.levels[n].size == sig.levels[n].size
    assert reduced_homology(sm, 1) == (1, ())


def test_smash_spheres():
    c = circle_space(C2)
    s2 = smash(c, c)
    assert reduced_homology(s2, 1) == (0, ())
    assert reduced_homology(s2, 2) == (1, ())
    sig = sign_circle(C2, (0,))
    s1sig = smash(c, sig)
    assert reduced_homology(s1sig, 2) == (1, ())
    assert reduced_homology(s1sig, 1) == (0, ())


def test_rotation_sphere():
    r = rotation_sphere(C3, 3, 1)
    assert reduced_homology(r, 2) == (1, ())
    assert reduced_homology(r, 1) == (0, ())
    full = subgroup_classes(C3)[1]
    fixed, _ = fixed_system(r, full.elements)
    # the two cone points survive
    assert len(fixed.nondegenerate(0)) == 2
    assert all(len(fixed.nondegenerate(n)) == 0 for n in range(1, fixed.bound + 1))


def test_representation_sphere_dispatch():
    assert representation_sphere(C2, trivial_rep(0)).levels[0].size == 2
    s = representation_sphere(C2, sign_rep())
    assert s.levels[0].size == 2
    r = representation_sphere(C3, rotation_rep(3, 1))
    assert reduced_homology(r, 2) == (1, ())
    with pytest.raises(SimplicialError):
        representation_sphere(C3, sign_rep())
    smashsp = sphere_for_descriptors(C2, [sign_rep(), trivial_rep(1)])
    assert reduced_homology(smashsp, 2) == (1, ())


def test_negative_trivial_sphere_is_rejected():
    # trivial_rep(-1) once built S^1, with the same level sizes 1, 2, 3, 4
    with pytest.raises(SimplicialError, match="negative dimension -1"):
        representation_sphere(C2, trivial_rep(-1), 3)


def test_suspension():
    s0 = s0_space(C2)
    s1 = suspend(s0, trivial_rep(1))
    assert reduced_homology(s1, 1) == (1, ())
    sig = sign_circle(C2, (0,))
    s = suspend(sig, trivial_rep(1))
    assert reduced_homology(s, 2) == (1, ())
    unchanged = suspend(sig, trivial_rep(0))
    for n in range(unchanged.bound + 1):
        assert unchanged.levels[n].size == sig.levels[n].size


def test_fixed_points_commute_with_smash():
    sig = sign_circle(C2, (0,))
    c = circle_space(C2)
    sm = smash(sig, c)
    for rec in subgroup_classes(C2):
        left, _ = fixed_system(sm, rec.elements)
        fx, _ = fixed_system(sig, rec.elements)
        fy, _ = fixed_system(c, rec.elements)
        right = smash(fx, fy)
        for n in range(left.bound + 1):
            assert left.levels[n].size == right.levels[n].size


def test_degeneracy_status_is_invariant():
    sig = sign_circle(C2, (0,))
    for n in range(sig.bound + 1):
        flags = sig.degenerate_flags(n)
        for g in C2.elements():
            for p in range(sig.levels[n].size):
                assert flags[p] == flags[sig.levels[n].action[g][p]]


def test_degeneracy_flags_are_kept_on_the_space(monkeypatch):
    from eqmack.groups import Frozen

    first = sphere_for_descriptors(C2, [sign_rep()], 6)
    second = sphere_for_descriptors(C2, [sign_rep()], 6)
    assert first == second and first is not second
    levels = range(first.bound + 1)
    want = [first.degenerate_flags(n) for n in levels]
    # the first read of an equal copy may compare it with the first space
    assert [second.degenerate_flags(n) for n in levels] == want
    compared = []
    eq = Frozen.__eq__

    def counted(self, other):
        compared.append(type(self).__name__)
        return eq(self, other)

    monkeypatch.setattr(Frozen, "__eq__", counted)
    assert [second.degenerate_flags(n) for n in levels] == want
    assert compared == []


def test_operator_matches_faces():
    sig = sign_circle(C2, (0,))
    for n in range(1, sig.bound + 1):
        for i in range(n + 1):
            assert sig.operator(delta(i, n), n - 1, n) == sig.faces[n][i].values
    for n in range(sig.bound):
        for i in range(n + 1):
            assert sig.operator(eta(i, n), n + 1, n) == sig.degens[n][i].values


def test_operator_composition():
    sig = smash(sign_circle(C2, (0,)), circle_space(C2))
    for a in monotones(1, 2):
        for b in monotones(2, 3):
            ba = compose_monotone(b, a)
            lhs = sig.operator(ba, 1, 3)
            step = sig.operator(b, 2, 3)
            fin = sig.operator(a, 1, 2)
            rhs = tuple(fin[v] for v in step)
            assert lhs == rhs


def vertex_subcomplex(X):
    """The vertices as a subcomplex, by its nondegenerate simplices."""
    return [set(range(X.nd[0].size))] + [set()] * X.bound


def test_collapse_to_wedge_of_circles():
    sig = sign_circle(C2, (0,))
    q, proj = collapse(sig, vertex_subcomplex(sig))
    assert q.levels[0].size == 1
    assert reduced_homology(q, 0) == (0, ())
    assert reduced_homology(q, 1) == (2, ())


def full_points(X, subcomplex):
    """The points of the full levels of X in the subcomplex given by its
    nondegenerate simplices: theirs and all their degeneracies."""
    points = [{X.nondegenerate(n)[y] for y in sub} for n, sub in enumerate(subcomplex)]
    for n in range(X.bound):
        points[n + 1] |= {s.values[p] for s in X.degens[n] for p in points[n]}
    return points


def quotient_cases():
    """(X, a G-stable subcomplex by its nondegenerate simplices): the
    vertices, the image of S^0, the fixed points of a normal subgroup, the
    basepoint alone and the whole space."""
    S3 = FiniteGroup.symmetric(3)
    a3 = next(r for r in subgroup_classes(S3) if r.order == 3)
    sig, two = sign_circle(C2, (0,), 3), sphere_for_descriptors(C2, [sign_rep()] * 2, 3)
    rot = sphere_for_descriptors(C3, [rotation_rep(3, 1)], 3)
    s3 = sphere_for_descriptors(S3, [sign_rep(a3.elements), trivial_rep(1)], 3)
    yield "sign-vertices", sig, vertex_subcomplex(sig)
    incl = discrete_inclusion(s0_space(C2, 3), two, (0, 1))
    yield "2sigma-S0", two, [{z for _, z in row} for row in incl.images]
    yield "2sigma-fixed", two, [set(two.nd[n].fixed_by((0, 1))) for n in range(4)]
    yield "rot-base", rot, [{rot.nd_base}] + [set()] * 3
    yield "rot-all", rot, [set(range(rot.nd[n].size)) for n in range(4)]
    yield "S3-A3-fixed", s3, [set(s3.nd[n].fixed_by(a3.elements)) for n in range(4)]


@pytest.mark.parametrize("label, X, sub", list(quotient_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_the_quotient_lays_out_the_full_level_quotient(label, X, sub):
    # X / Y on nondegenerate simplices lays out the levels, point tables and
    # projection of the quotient of X's full levels by Y's full levels
    want, want_proj = full_level_collapse(X, full_points(X, sub))
    got, proj = collapse(X, sub)
    assert (got.levels, got.faces, got.degens, got.basepoints) == (
        want.levels, want.faces, want.degens, want.basepoints
    )
    assert proj.check() is proj and proj.comps == want_proj.comps
    assert got.check() is got and got == want


def test_the_quotient_places_the_crushed_simplices_on_first_read():
    # collapse does not look up where the subcomplex sits in X's full
    # levels; the quotient does when its own full levels are first laid out
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, 3)
    sub = [range(X.nd[j].size) if j < 2 else () for j in range(4)]
    Q, _ = collapse(X, sub)
    assert "below" not in Q._layouts
    assert Q.levels == full_level_collapse(X, full_points(X, sub))[0].levels
    assert [len(b) for b in Q._layouts["below"]] == [len(p) for p in full_points(X, sub)]


def test_the_wedge_lays_out_the_full_level_wedge():
    S3 = FiniteGroup.symmetric(3)
    a3 = next(r for r in subgroup_classes(S3) if r.order == 3)
    pairs = [
        (circle_space(C2, 3), sign_circle(C2, (0,), 3)),
        (sphere_for_descriptors(C2, [sign_rep()] * 2, 3), s0_space(C2, 3)),
        (sphere_for_descriptors(C3, [rotation_rep(3, 1)], 3), circle_space(C3, 2)),
        (sphere_for_descriptors(S3, [sign_rep(a3.elements), trivial_rep(1)], 3), s0_space(S3, 3)),
    ]
    for X, Y in pairs:
        got, want = wedge(X, Y), full_level_wedge(X, Y)
        assert (got[0].levels, got[0].faces, got[0].degens) == (want[0].levels, want[0].faces, want[0].degens)
        assert got[0].basepoints == want[0].basepoints and got[0].check() is got[0]
        for f, g in zip(got[1:], want[1:]):
            assert f.check() is f and f.comps == g.comps


def test_collapse_rejects_what_is_not_a_subcomplex():
    two = sphere_for_descriptors(C2, [sign_rep()] * 2, 3)
    edge = next(y for y in range(two.nd[1].size) if two.nd[1].action[1][y] != y)
    for sub, message in [
        ([{0}, {edge}, set(), set()], "not G-stable"),
        ([{0}, {edge, two.nd[1].action[1][edge]}, set(), set()], "not closed under faces"),
        ([{1}, set(), set(), set()], "must contain the basepoint"),
        ([{0}, set()], "each level 0..3"),
    ]:
        with pytest.raises(SimplicialError, match=message):
            collapse(two, sub)


def test_collapse_rejects_indices_off_the_level():
    # S^sigma has two vertices: index 5 once raised a bare IndexError, and
    # index -1 wrapped around to vertex 1, reported as not G-stable
    sig = sign_circle(C2, (0,), 2)
    for sub in ([[0, 1, 5], [], []], [[0, -1], [], []]):
        with pytest.raises(SimplicialError, match="out of range at level 0"):
            collapse(sig, sub)
    edge = sig.nd[1].size
    with pytest.raises(SimplicialError, match="out of range at level 1"):
        collapse(sig, [[0, 1], [edge], []])


def test_wedge_homology():
    c = circle_space(C2)
    s0 = s0_space(C2)
    w, ix, iy = wedge(c, s0)
    assert reduced_homology(w, 0) == (1, ())
    assert reduced_homology(w, 1) == (1, ())


def test_cylinder_inclusions_valid():
    sig = sign_circle(C2, (0,))
    cyl, i0, i1 = cylinder_inclusions(sig)
    assert i0.comps[0].values != i1.comps[0].values


def test_standard_simplex_plus():
    d1 = standard_simplex_plus(C2, 1)
    assert d1.levels[0].size == 3  # base + two vertices
    assert d1.levels[1].size == 4  # base + (00), (01), (11)


def test_join_is_a_sphere():
    # S^0 * S^0 = S^1
    from eqmack.gsets import trivial_gset

    pts = build_from_generators(C2, [trivial_gset(C2, 2)], [None])
    j = join(pts, pts)
    jb = j.as_based(0)
    assert reduced_homology(jb, 0) == (0, ())
    assert reduced_homology(jb, 1) == (1, ())


def test_equal_instances_hash_equal():
    # the hash is stored per instance; equal objects built apart must agree,
    # also for groups whose names, which equality ignores, differ
    from eqmack.gsets import GMap, regular_gset

    a, b = FiniteGroup(C3.mul, name="a"), FiniteGroup(C3.mul, name="b")
    pairs = [
        (a, b),
        (regular_gset(a), regular_gset(b)),
        (GMap.identity(regular_gset(a)), GMap.identity(regular_gset(b))),
        (rotation_sphere(a, 3, 1, 2), rotation_sphere(b, 3, 1, 2)),
    ]
    for x, y in pairs:
        assert x is not y
        assert x == y and hash(x) == hash(y)
        assert {x: 1}[y] == 1


def test_check_rejects_a_broken_identity_and_a_mis_levelled_face():
    from eqmack.gsets import GMap
    from eqmack.simplicial import SimplicialGSet

    X = standard_simplex_plus(C2, 1)
    assert X.check() is X

    def with_faces(n, faces_n):
        faces = X.faces[:n] + (tuple(faces_n),) + X.faces[n + 1 :]
        return SimplicialGSet(X.group, X.levels, faces, X.degens, X.basepoints)

    # swapped d_0 and d_1 on edges: d_0 d_1 = d_0 d_0 fails on (011)
    with pytest.raises(SimplicialError, match="d_i d_j fails"):
        with_faces(1, reversed(X.faces[1])).check()
    # a level-2 face landing in level 2: caught before any table is read
    bad = list(X.faces[2])
    bad[1] = GMap.identity(X.levels[2])
    with pytest.raises(SimplicialError, match="mis-levelled"):
        with_faces(2, bad).check()


def test_smash_trusts_its_checked_factors(monkeypatch):
    # smash builds no checked GMap and skips SimplicialGSet.check, yet its
    # results pass both checks
    from eqmack.gsets import GMap

    pairs = [
        (sign_circle(C2, (0,), 3), circle_space(C2, 3)),
        (sphere_for_descriptors(C3, [rotation_rep(3, 1)], 3), s0_space(C3, 3)),
        (standard_simplex_plus(C2, 1, 2), sign_circle(C2, (0,), 2)),
    ]
    checked = GMap.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(args)
        checked(self, *args, **kwargs)

    monkeypatch.setattr(GMap, "__init__", counted)
    monkeypatch.setattr(
        "eqmack.simplicial.SimplicialGSet.check", lambda self: pytest.fail("re-checked")
    )
    products = [smash(X, Y) for X, Y in pairs]
    assert built == []
    monkeypatch.undo()
    for sm in products:
        assert sm.check() is sm
        for row in sm.faces + sm.degens:
            for f in row:
                assert GMap(f.src, f.tgt, f.values) == f


def test_map_check_rejects_a_broken_square_and_a_mis_levelled_component():
    X = standard_simplex_plus(C2, 1)
    ident = SimplicialGMap.identity(X)
    assert ident.check() is ident
    assert ident.comps == tuple(GMap.identity(lv) for lv in X.levels)
    # swap the two vertices but not the edges: d_0 no longer commutes
    images = [list(row) for row in ident.images]
    u, v = (y for y in range(X.nd[0].size) if y != X.nd_base)
    images[0][u], images[0][v] = images[0][v], images[0][u]
    with pytest.raises(SimplicialError, match="commute with d_"):
        SimplicialGMap(X, X, images).check()
    images[0] = ident.images[1]
    with pytest.raises(SimplicialError, match="mis-levelled"):
        SimplicialGMap(X, X, images).check()


def test_operator_rejects_a_map_that_is_not_monotone_into_its_levels():
    X = sign_circle(C2, (0,), 2)
    # (0, 0): [1] -> [1] is s_0 d_1
    assert X.operator((0, 0), 1, 1) == X.degen(0, 0).compose(X.face(1, 1)).values
    bad = [((0, 1), 0, 1), ((1, 0), 1, 1), ((0, 2), 1, 1), ((-1, 0), 1, 1)]
    for alpha, n_src, n_tgt in bad:
        with pytest.raises(SimplicialError, match="not a monotone map"):
            X.operator(alpha, n_src, n_tgt)


def _space_data(X):
    smash_pts = getattr(X, "_smash_points", None)
    join_pts = getattr(X, "_join_points", None)
    return (
        X.group.mul,
        tuple((lv.size, lv.action) for lv in X.levels),
        tuple(tuple(f.values for f in row) for row in X.faces),
        tuple(tuple(s.values for s in row) for row in X.degens),
        X.basepoints,
        smash_pts and tuple(map(tuple, smash_pts)),
        join_pts and tuple(map(tuple, join_pts)),
    )


def _map_data(f):
    return (_space_data(f.src), _space_data(f.tgt), tuple(c.values for c in f.comps))


def constructor_outputs():
    """The tables of spheres, standard simplices, wedges, collapses, joins,
    inclusions, cylinders, associators and fixed-point systems."""
    from eqmack.gsets import trivial_gset
    from eqmack.mackey import orbit_maps_between
    from eqmack.simplicial import discrete_inclusion, phi_transition

    S3 = FiniteGroup.symmetric(3)
    a3 = next(r for r in subgroup_classes(S3) if r.order == 3)
    rows = [
        (C2, [sign_rep(), sign_rep()]),
        (C3, [rotation_rep(3, 1)]),
        (S3, [sign_rep(a3.elements), trivial_rep(1)]),
        (S3, [trivial_rep(2)]),
    ]
    out = []
    for G, descs in rows:
        for bound in (2, 3, 4):
            X = sphere_for_descriptors(G, descs, bound)
            out.append(_space_data(X))
            for rec in subgroup_classes(G):
                Y, pts = fixed_system(X, rec.elements)
                out.append((_space_data(Y), pts))
            for jrec in subgroup_classes(G):
                for hrec in subgroup_classes(G):
                    for om in orbit_maps_between(jrec, hrec):
                        out.append(phi_transition(X, om))
    for n in range(3):
        out.append(_space_data(standard_simplex_plus(C2, n, 3)))
    sig = sign_circle(C2, (0,), 3)
    c = circle_space(C2, 3)
    w, ix, iy = wedge(c, sig)
    out.extend([_space_data(w), _map_data(ix), _map_data(iy)])
    q, proj = collapse(sig, vertex_subcomplex(sig))
    out.extend([_space_data(q), _map_data(proj)])
    out.append(_map_data(discrete_inclusion(s0_space(C2, 3), sig, (0, 1))))
    cyl, i0, i1 = cylinder_inclusions(sig)
    out.extend([_space_data(cyl), _map_data(i0), _map_data(i1)])
    out.append(_map_data(smash_assoc(sig, c, sig)))
    poles = build_from_generators(C2, [trivial_gset(C2, 2)], [None], bound=3)
    out.append(_space_data(join(sig, poles)))
    out.append(_space_data(join(poles, poles)))
    return out


# sha256 of the repr of constructor_outputs(), recorded before the
# constructors shared one assembly routine
CONSTRUCTORS_SHA256 = "6e5570e6ac235c746020f5d107729f210fc7380b0d15e6c25056c7888944b747"


def test_constructors_are_bit_identical():
    digest = hashlib.sha256(repr(constructor_outputs()).encode()).hexdigest()
    assert digest == CONSTRUCTORS_SHA256


def test_each_sphere_is_built_once_per_call(monkeypatch):
    built = []

    def counting(name, build):
        def wrapped(*args):
            built.append(name)
            return build(*args)

        return wrapped

    # S^{sigma + 2 + sigma}, with every factor built on its own
    sig, plane = sign_circle(C2, (0,), 3), smash(circle_space(C2, 3), circle_space(C2, 3))
    want = smash(smash(sig, plane), sign_circle(C2, (0,), 3))
    descs = [sign_rep(), trivial_rep(2), sign_rep()]
    sphere = counting("sphere", representation_sphere)
    monkeypatch.setattr("eqmack.simplicial.representation_sphere", sphere)
    monkeypatch.setattr("eqmack.simplicial.circle_space", counting("circle", circle_space))
    assert sphere_for_descriptors(C2, descs, 3) == want
    assert built == ["sphere", "sphere", "circle"]


def test_a_graded_table_builds_each_sphere_once_per_call(monkeypatch):
    # twists of 0 to 3 sign factors, and one with a trivial factor: each
    # twist is its prefix smashed with its last sphere, so the sign circle
    # and the circle are built once for the whole table
    X, M = s0_space(C2, 4), constant_mackey(C2, AbGroup.free(1))
    twists = [[sign_rep()] * 3, [], [sign_rep()] * 2, [sign_rep()], [sign_rep(), trivial_rep(1)]]
    rows = [(p, d) for d in twists for p in range(4)]

    def row(p, d):
        groups = bredon_groups(smash(sphere_for_descriptors(C2, d, 4), X), M, [p])[p]
        return p, tuple(d), {cid: g.describe() for cid, g in groups.items()}

    want, built = tuple(row(p, d) for p, d in rows), []

    def counted(G, desc, bound):
        built.append(desc)
        return representation_sphere(G, desc, bound)

    monkeypatch.setattr("eqmack.homotopy.representation_sphere", counted)
    assert ro_graded_table(X, M, rows).rows == want
    assert built == [sign_rep(), trivial_rep(1)]


def test_discrete_inclusion_needs_one_target_vertex_per_source_vertex():
    s0, sig = s0_space(C2, 3), sphere_for_descriptors(C2, [sign_rep()], 3)
    assert discrete_inclusion(s0, sig, (0, 1)).comps[0].values == (0, 1)
    # -1 would wrap to the last vertex and give the map (0, 1) back
    for values in ((0, -1), (0, 5), (0,), (0, 1, 1)):
        with pytest.raises(SimplicialError, match="one vertex of the target per vertex"):
            discrete_inclusion(s0, sig, values)


def test_discrete_inclusion_rejects_a_source_that_is_not_discrete(monkeypatch):
    # S^sigma has edges: (0, 0) was taken for a constant map, and (0, 1)
    # failed as "map does not commute with d_1"; the check reads the
    # nondegenerate simplices, so nothing is laid out before it
    def refuse(X):
        raise AssertionError("a full level was built")

    sig = sphere_for_descriptors(C2, [sign_rep()], 3)
    monkeypatch.setattr("eqmack.simplicial._materialize", refuse)
    for values in ((0, 0), (0, 1)):
        with pytest.raises(SimplicialError, match="the source is not discrete"):
            discrete_inclusion(sig, sig, values)


@pytest.mark.parametrize("build", [smash, join, wedge], ids=["smash", "join", "wedge"])
@pytest.mark.parametrize("orders", [(4, 2), (2, 4), (2, 3)])
def test_products_reject_factors_over_different_groups(build, orders):
    # smash gave a space over its first factor's group from zip-truncated
    # actions, whose Bredon groups came out wrong or raised IndexError; join
    # took mixed groups, and wedge raised GSetError or IndexError by order
    X, Y = (s0_space(FiniteGroup.cyclic(k), 2) for k in orders)
    with pytest.raises(SimplicialError, match="the factors are over different groups"):
        build(X, Y)


@pytest.mark.parametrize(
    "build",
    [
        lambda: s0_space(C2, -1),
        lambda: sphere_for_descriptors(C2, [sign_rep()], -1),
        lambda: build_from_generators(C2, [GSet(C2, 1, ((0,), (0,)))], [None], bound=-1),
        lambda: standard_simplex_plus(C2, 1, -1),
    ],
    ids=["s0", "sphere", "generators", "simplex"],
)
def test_a_negative_bound_is_rejected(build):
    # the based constructors raised IndexError in as_based, and
    # build_from_generators and standard_simplex_plus built no level at all
    with pytest.raises(SimplicialError, match="bound -1 is negative"):
        build()


# -- the nondegenerate form ---------------------------------------------------------


def nondegenerate_spaces():
    """Spaces from every constructor, some with factors given by their full
    levels (Delta[1]_+, a fixed-point system, a wedge)."""
    S3, C4 = FiniteGroup.symmetric(3), FiniteGroup.cyclic(4)
    a3 = next(r for r in subgroup_classes(S3) if r.order == 3)
    sig = sign_circle(C2, (0,), 3)
    return [
        sphere_for_descriptors(C2, [sign_rep()] * 3, 4),
        sphere_for_descriptors(C3, [rotation_rep(3, 1)] * 2, 4),
        sphere_for_descriptors(S3, [sign_rep(a3.elements), trivial_rep(1)], 4),
        sphere_for_descriptors(C4, [rotation_rep(4, 1), sign_rep((0, 2))], 4),
        suspend(sphere_for_descriptors(C3, [rotation_rep(3, 1)], 3), trivial_rep(2)),
        smash(standard_simplex_plus(C2, 1, 3), sig),
        # the fixed points of the trivial subgroup: a C2-space given by its full levels
        smash(fixed_system(sphere_for_descriptors(C2, [sign_rep()] * 2, 3), (0,))[0], sig),
        smash(wedge(circle_space(C2, 3), sig)[0], sig),
        join(sig, s0_space(C2, 3)),
    ]


@pytest.mark.parametrize("index", range(9))
def test_the_nondegenerate_form_is_read_off_the_full_levels(index):
    # the same levels given in full read off the same nondegenerate form: the
    # simplices in full-level order at their indices, their actions, their
    # faces as (degeneracy, simplex), the basepoint and the level sizes
    from eqmack.simplicial import SimplicialGSet

    X = nondegenerate_spaces()[index]
    full = SimplicialGSet(X.group, X.levels, X.faces, X.degens, X.basepoints)
    assert X._nd_form() == full._nd_form()
    assert all(X.nondegenerate(n) == full.nondegenerate(n) for n in range(X.bound + 1))
    assert X == full and hash(X) == hash(full)
    assert X.check() is X and full.check() is full


@pytest.mark.parametrize("index", range(9))
def test_full_levels_are_laid_out_as_the_point_rules_lay_them(index):
    # the full levels laid out on first read equal those that the point rules
    # of the smash and the join build from the factors' full levels, point
    # tables included
    X = nondegenerate_spaces()[index]
    recipe = X._recipe
    while recipe[0] == "based":
        recipe = recipe[1]._recipe
    if recipe[0] == "smash":
        want = smash_levels(*recipe[1:])
        assert X._smash_points == want[3]
    elif recipe[0] == "join":
        want = join_levels(*recipe[1:])
        assert X._join_points == want[3]
    assert (X.levels, X.faces, X.degens) == want[:3]


def test_generated_full_levels_are_laid_out_as_the_point_rules_lay_them():
    from eqmack.gsets import trivial_gset

    v, e, one = trivial_gset(C2, 3), GSet(C2, 2, ((0, 1), (1, 0))), trivial_gset(C2, 1)
    swap = GSet(C2, 3, ((0, 1, 2), (1, 0, 2)))
    # two edges swapped from vertex 2 to the swapped vertices 0 and 1; an
    # edge from vertex 0 to vertex 1 (full index 3 of level 1) and a triangle
    # with faces s_0 of vertex 1 (full index 1), the edge and the edge
    for levels, faces in [
        ([v], [None]),
        ([swap, e], [None, [(0, 1), (2, 2)]]),
        ([v, one, one], [None, [(1,), (0,)], [(1,), (3,), (3,)]]),
    ]:
        X = build_from_generators(C2, levels, faces, bound=4)
        assert (X.levels, X.faces, X.degens) == generated_levels(C2, levels, faces, 4)


def shuffle_count(X, Y, n):
    """Nondegenerate non-base n-simplices of X smash Y: a p-simplex of X and
    a q-simplex of Y, each non-base, with disjoint degeneracies I and J,
    |I| = n - p and |J| = n - q, chosen in C(n, n - p) C(p, n - q) ways."""
    nx, ny = ([S.nd[k].size - (k == 0) for k in range(n + 1)] for S in (X, Y))
    return sum(
        nx[p] * ny[q] * math.comb(n, n - p) * math.comb(p, n - q)
        for p in range(n + 1)
        for q in range(n - p, n + 1)
    )


@pytest.mark.parametrize("k, bound, total", [(4, 5, 1697), (5, 6, 24483)])
def test_sphere_counts_follow_the_shuffle_formula(k, bound, total):
    sig = sign_circle(C2, (0,), bound)
    X = sig
    for _ in range(k - 1):
        Y = smash(X, sig)
        assert [Y.nd[n].size - (n == 0) for n in range(bound + 1)] == [
            shuffle_count(X, sig, n) for n in range(bound + 1)
        ]
        X = Y
    assert X._nd_form() == sphere_for_descriptors(C2, [sign_rep()] * k, bound)._nd_form()
    assert sum(X.nd[n].size for n in range(bound + 1)) - 1 == total


C2_SETS = [((0,), (0,)), ((0, 1), (0, 1)), ((0, 1), (1, 0)), ((0, 1, 2), (1, 0, 2))]


@st.composite
def presentations(draw):
    """Small C2 presentations for build_from_generators: vertices, maybe
    edges and maybe triangles, each with an action, and faces anywhere in
    the generated full level below."""
    sets = (C2_SETS, C2_SETS[:3], C2_SETS[:2])[: draw(st.integers(1, 3))]
    levels = [GSet(C2, len(rows[0]), rows) for rows in (draw(st.sampled_from(s)) for s in sets)]
    faces = [None]
    for m in range(1, len(levels)):
        size = sum(levels[k].size * math.comb(m - 1, k) for k in range(m))
        face = st.integers(0, size - 1)
        faces.append([[draw(face) for _ in range(levels[m].size)] for _ in range(m + 1)])
    return levels, faces


@settings(max_examples=400, deadline=None)
@given(presentations())
def test_the_nondegenerate_check_accepts_what_the_full_levels_accept(presentation):
    from eqmack.gsets import GSetError
    from eqmack.simplicial import _generated

    levels, faces = presentation
    try:
        full_level_check(_generated(C2, levels, faces, 3))
        oracle = True
    except (GSetError, SimplicialError):
        oracle = False
    try:
        build_from_generators(C2, levels, faces, bound=3)
        checked = True
    except SimplicialError:
        checked = False
    assert checked == oracle


def test_the_nondegenerate_check_rejects_a_bad_presentation():
    from eqmack.gsets import trivial_gset

    v, e, t = trivial_gset(C2, 2), trivial_gset(C2, 1), trivial_gset(C2, 1)
    swap = GSet(C2, 2, ((0, 1), (1, 0)))
    # the edge from vertex 1 to vertex 0 (full level 0 is the vertices)
    assert build_from_generators(C2, [v, e], [None, [(0,), (1,)]]).nd_faces[1][0] == (((0,), 0),)
    with pytest.raises(SimplicialError, match="d_0 of level 1 is not equivariant"):
        build_from_generators(C2, [swap, e], [None, [(0,), (1,)]])
    # a triangle whose faces are the edge (full index 2 of level 1) and the
    # two degenerate edges at the vertices (0 and 1): d_0 d_1 = d_0 d_0 fails
    with pytest.raises(SimplicialError, match="d_i d_j fails at level 2"):
        build_from_generators(C2, [v, e, t], [None, [(0,), (1,)], [(2,), (0,), (1,)]])
    with pytest.raises(SimplicialError, match="out of range"):
        build_from_generators(C2, [v, e], [None, [(0,), (2,)]])
    with pytest.raises(SimplicialError, match="needs 2 faces"):
        build_from_generators(C2, [v, e], [None, [(0,)]])
    with pytest.raises(SimplicialError, match="no vertex 2"):
        build_from_generators(C2, [v], [None], base_vertex=2)
    with pytest.raises(SimplicialError, match="basepoint must be G-fixed"):
        build_from_generators(C2, [swap], [None], base_vertex=0)


# -- a smash lays out its nondegenerate simplices on first read ------------------

# sha256 of the repr of smash_nd_data over the smashes of nondegenerate_spaces(),
# recorded when smash laid out its nondegenerate simplices as it was built
SMASH_ND_SHA256 = "71df2d77a63ec1c369cb3074cdb06dfb826aa64c1e9c34c61c952a6a56de063c"


def smash_nd_data(X):
    """The nondegenerate form of X: each level's size and action, the faces,
    the basepoint and each simplex's parts."""
    return [(lv.size, lv.action) for lv in X.nd], X.nd_faces, X.nd_base, X._parts


def smashes():
    return [X for X in nondegenerate_spaces() if X._recipe[0] == "smash"]


def test_a_smash_is_not_laid_out_to_read_its_bound_basepoint_or_group(monkeypatch):
    from eqmack.mackey import constant_mackey
    from eqmack.tensor import reduced_tensor

    def refuse(X):
        raise AssertionError("a smash's nondegenerate simplices were laid out")

    spaces = smashes()
    monkeypatch.setattr("eqmack.simplicial._smash_nd", refuse)
    assert [X.bound for X in spaces] == [4, 4, 4, 4, 3, 3, 3, 3]
    for X in spaces:
        A, B = X._recipe[1:]
        assert X.bound == min(A.bound, B.bound) and X.based and X.group is A.group
        T = reduced_tensor(X, constant_mackey(X.group, AbGroup.free(1)))
        assert T.X is X and T.bound == X.bound
    assert all(X._nd is None for X in spaces)


def test_a_smash_lays_out_what_the_eager_build_laid_out():
    digest = hashlib.sha256(repr([smash_nd_data(X) for X in smashes()]).encode()).hexdigest()
    assert digest == SMASH_ND_SHA256
    # a first read of the parts lays out the same form as one of nd
    for X, Y in zip(smashes(), smashes()):
        assert Y._parts is not None and Y._nd is not None
        assert smash_nd_data(X) == smash_nd_data(Y)


def test_the_full_levels_of_a_smash_are_laid_out_after_its_nondegenerate_form(monkeypatch):
    from eqmack import simplicial

    # the spy on _materialize records the layout once it is done, so "nd"
    # before "levels" says the nondegenerate form came first
    order, nd, levels = [], simplicial._smash_nd, simplicial._materialize
    monkeypatch.setattr(simplicial, "_smash_nd", lambda X: order.append("nd") or nd(X))
    monkeypatch.setattr(simplicial, "_materialize", lambda X: levels(X) or order.append("levels"))
    sig = sign_circle(C2, (0,), 3)
    X, Y = smash(sig, sig), smash(sig, sig)
    # == compares the full levels, as the benchmark's tracer reads them
    assert X == Y and hash(X) == hash(Y)
    assert order == ["nd", "levels", "nd", "levels"]
    assert X.levels[2].size == len(X._smash_points[2])
    assert order == ["nd", "levels", "nd", "levels"]
