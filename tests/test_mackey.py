import pytest

from eqmack import abelian as ab
from eqmack.abelian import AbGroup, AbHom
from eqmack.groups import FiniteGroup, conjugation_witness, subgroup_classes
from eqmack.gsets import (
    GMap,
    coset_space,
    disjoint_union,
    empty_gset,
    point_gset,
    regular_gset,
    std_orbit,
)
from eqmack.mackey import (
    BurnsideMackey,
    FixedPointMackey,
    MackeyError,
    MackeyMorphism,
    OrbitMap,
    TableMackey,
    WeylModule,
    WrappedMackey,
    based_value,
    burnside_mackey,
    cokernel_mackey,
    constant_mackey,
    direct_sum_mackey,
    fixed_point_morphism,
    image_mackey,
    kernel_mackey,
    orbit_maps_between,
    verify_axioms,
)

from abelian_helpers import iso_eq


C2 = FiniteGroup.cyclic(2)
C3 = FiniteGroup.cyclic(3)
C4 = FiniteGroup.cyclic(4)
S3 = FiniteGroup.symmetric(3)


def rec_of(G, order):
    return next(r for r in subgroup_classes(G) if r.order == order)


def proj_to_point(G):
    """pi: G/e -> G/G as a GMap between standard orbits."""
    e = subgroup_classes(G)[0]
    full = subgroup_classes(G)[-1]
    return GMap(std_orbit(G, e), std_orbit(G, full), (0,) * G.order)


def test_burnside_values_c2():
    A = burnside_mackey(C2)
    full = rec_of(C2, 2)
    e = rec_of(C2, 1)
    assert A.orbit_value(full).invariants() == (2, ())
    assert A.orbit_value(e).invariants() == (1, ())
    assert A.evaluate(empty_gset(C2)).value.is_trivial()


def test_burnside_res_tr_composite():
    A = burnside_mackey(C2)
    pi = proj_to_point(C2)
    tr = A.covariant(pi)
    res = A.contravariant(pi)
    comp = res.compose(tr)
    # double coset formula: res o tr = x2 on A(C2/e) = Z
    assert comp.mat == ((2,),)


def test_constant_z_res_tr():
    M = constant_mackey(C2, AbGroup.free(1))
    pi = proj_to_point(C2)
    assert M.covariant(pi).mat == ((2,),)  # transfer = fiber sum
    assert M.contravariant(pi).mat == ((1,),)  # restriction = precompose


def test_identity_maps():
    M = constant_mackey(C2, AbGroup.free(1))
    for rec in subgroup_classes(C2):
        om = OrbitMap.identity(rec)
        assert M.orbit_covariant(om).same_as(AbHom.identity(M.orbit_value(rec)))


def test_fixed_point_values_c2():
    e = rec_of(C2, 1)
    full = rec_of(C2, 2)
    # trivial coefficients
    M = constant_mackey(C2, AbGroup.free(1))
    assert M.orbit_value(e).invariants() == (1, ())
    assert M.orbit_value(full).invariants() == (1, ())
    # H = C2, A = Z: value Z at C2/C2 and 0 at C2/e
    M2 = FixedPointMackey(C2, full, WeylModule.trivial(full.weyl, AbGroup.free(1)))
    assert M2.orbit_value(full).invariants() == (1, ())
    assert M2.orbit_value(e).is_trivial()
    # H = e, A = Z[C2]
    M3 = FixedPointMackey(C2, e, WeylModule.regular(e.weyl))
    assert M3.orbit_value(full).invariants() == (1, ())
    assert M3.orbit_value(e).invariants() == (2, ())


def test_evaluate_at_orbit_counit():
    # L(R_H A) at H recovers A with its Weyl action
    for G in (C2, S3):
        for hrec in subgroup_classes(G):
            for module in (
                WeylModule.trivial(hrec.weyl, AbGroup.free(1)),
                WeylModule.regular(hrec.weyl),
            ):
                M = FixedPointMackey(G, hrec, module)
                wm = M.weyl_module_at(hrec)
                assert iso_eq(wm.value, module.value)
                # evaluation at the identity coset intertwines the actions; a
                # function is given by its values at the orbit representatives,
                # and psi(e) = u psi(rep) for the identity coset e = u rep
                orb = std_orbit(G, hrec)
                fp, (_, stabs, where), _ = M._orbit_layout(orb)
                _, _, e_idx = coset_space(G, hrec.elements)
                i, u = where[fp.index[e_idx]]
                block = module.hom(u).compose(module.fixed(stabs[i])[1])
                parts = [module.fixed(k)[0] for k in stabs]
                cols = ab.assemble_block_hom(parts, [module.value], [(0, i, block)])[0].cols
                ev = AbHom.from_columns(wm.value, module.value, cols)
                assert ev.is_iso()
                for w in hrec.weyl.elements():
                    lhs = ev.compose(wm.hom(w))
                    rhs = module.hom(w).compose(ev)
                    assert lhs.same_as(rhs)


def test_burnside_weyl_at_trivial_subgroup():
    A = burnside_mackey(C2)
    e = rec_of(C2, 1)
    wm = A.weyl_module_at(e)
    assert wm.value.invariants() == (1, ())
    for w in e.weyl.elements():
        assert wm.hom(w).same_as(AbHom.identity(wm.value))


@pytest.mark.parametrize("G", [C2, C3, S3])
def test_axioms_burnside(G):
    assert verify_axioms(burnside_mackey(G)).passed


def test_orbit_index_of_point_covers_every_point_once():
    u, _ = disjoint_union([regular_gset(S3), point_gset(S3), std_orbit(S3, rec_of(S3, 2))])
    ev = burnside_mackey(S3).evaluate(u)
    for p in range(u.size):
        (i,) = [i for i, o in enumerate(ev.orbits) if p in o.points]
        assert ev.orbit_index_of_point(p) == i
    with pytest.raises(MackeyError):
        ev.orbit_index_of_point(u.size)
    based = based_value(burnside_mackey(S3), u, 6)
    assert [based.orbit_index_of_point(p) for p in (0, 7, 8, 9)] == [0, 1, 1, 1]
    with pytest.raises(MackeyError):
        based.orbit_index_of_point(6)


def test_axioms_constant():
    assert verify_axioms(constant_mackey(C2, AbGroup.free(1))).passed
    assert verify_axioms(constant_mackey(C2, AbGroup.cyclic(2))).passed


def test_axioms_fixed_point_grid():
    for G in (C2, C4):
        for hrec in subgroup_classes(G):
            for module in (
                WeylModule.trivial(hrec.weyl, AbGroup.free(1)),
                WeylModule.trivial(hrec.weyl, AbGroup.cyclic(2)),
                WeylModule.regular(hrec.weyl),
            ):
                M = FixedPointMackey(G, hrec, module)
                rep = verify_axioms(M)
                assert rep.passed, rep.summary()


def tabulate(M):
    """Extract the canonical table of any Mackey functor."""
    G = M.group
    recs = subgroup_classes(G)
    values = {r.class_id: M.orbit_value(r) for r in recs}
    weyl_mats = {
        r.class_id: tuple(
            M.weyl_action_hom(r, w).mat for w in r.weyl.elements()
        )
        for r in recs
    }
    res = {}
    tr = {}
    for j in recs:
        for h in recs:
            if j.class_id == h.class_id:
                continue
            w = conjugation_witness(G, j.elements, h.elements)
            if w is None:
                continue
            om = OrbitMap(j, h, G.inv(w))
            tr[(j.class_id, h.class_id)] = M.orbit_covariant(om).mat
            res[(j.class_id, h.class_id)] = M.orbit_contravariant(om).mat
    return TableMackey(G, values, weyl_mats, res, tr)


def test_corrupted_burnside_fails_with_witness():
    A = tabulate(burnside_mackey(C2))
    e = rec_of(C2, 1)
    full = rec_of(C2, 2)
    key = (e.class_id, full.class_id)
    bad_tr = {k: v for k, v in A.tr.items()}
    bad_tr[key] = tuple(tuple(3 * x for x in row) for row in bad_tr[key])
    B = TableMackey(C2, A.values, A.weyl_mats, A.res, bad_tr)
    rep = verify_axioms(B)
    assert not rep.passed
    names = [c[0] for c in rep.failures()]
    assert "pullback squares" in names
    witness = next(c[2] for c in rep.checks if c[0] == "pullback squares")
    assert "pullback square" in witness


def corrupted(A, weyl=None, tr=None):
    """The table A with the Weyl matrices weyl[(class, element)] and the
    transfers tr[(j, h)] put in."""
    mats = {cid: list(ms) for cid, ms in A.weyl_mats.items()}
    for (cid, w), mat in (weyl or {}).items():
        mats[cid][w] = mat
    return TableMackey(A.group, A.values, mats, A.res, {**A.tr, **(tr or {})})


@pytest.mark.parametrize(
    "axiom, source, weyl, tr, witness",
    [
        # the identity of Z at G/e doubled: the walk meets the covariant
        # identity of class 0 first
        ("identity", "C2 Burnside", {(0, 0): ((2,),)}, None, "covariant identity at class 0"),
        # a generator of W = C3 acting by 2 on Z at G/e, so R_g R_g != R_{g^2};
        # the loops 0->0->0 come before the paths through G/G
        ("functoriality", "C3 Z", {(0, 1): ((2,),)}, None, "covariant composite 0->0->0"),
        # the identity at G/G doubled: (0, 0) holds, (0, 1) is the first
        # union with a G/G summand
        ("additivity", "C2 Burnside", {(1, 0): ((2, 0), (0, 2))}, None,
         "additivity on classes (0, 1)"),
        # the transfer G/e -> G/G tripled: every square over G/e holds, and
        # the first over G/G fails
        ("pullback squares", "C2 Burnside", None, {(0, 1): ((3,), (0,))},
         "pullback square B=G/0, C=G/0, D=G/1 (h c=(0, 0), k c=(0, 0))"),
    ],
)
def test_each_axiom_reports_its_first_failure(axiom, source, weyl, tr, witness):
    M = {"C2 Burnside": burnside_mackey(C2), "C3 Z": constant_mackey(C3, AbGroup.free(1))}[source]
    A = tabulate(M)
    assert verify_axioms(A).passed
    report = verify_axioms(corrupted(A, weyl, tr))
    assert not report.passed
    assert {name: (ok, w) for name, ok, w in report.checks}[axiom] == (False, witness)
    assert "  FAIL %s: %s" % (axiom, witness) in report.summary().splitlines()


def test_tabulate_agrees_with_source():
    A = burnside_mackey(S3)
    T = tabulate(A)
    for j in subgroup_classes(S3):
        for h in subgroup_classes(S3):
            for om in orbit_maps_between(j, h):
                assert T.orbit_covariant(om).same_as(A.orbit_covariant(om))
                assert T.orbit_contravariant(om).same_as(A.orbit_contravariant(om))
    assert verify_axioms(T).passed


def test_kernel_of_identity_and_split_sum():
    M = constant_mackey(C2, AbGroup.free(1))
    ident = MackeyMorphism.identity(M)
    K, _ = kernel_mackey(ident)
    for rec in subgroup_classes(C2):
        assert K.orbit_value(rec).is_trivial()
    # split short exact sequence 0 -> M -> M + N -> N -> 0
    N = burnside_mackey(C2)
    total, incls, projs = direct_sum_mackey([M, N])
    ker, _ = kernel_mackey(projs[1])
    for rec in subgroup_classes(C2):
        assert iso_eq(ker.orbit_value(rec), M.orbit_value(rec))
    img, _, _ = image_mackey(incls[0])
    for rec in subgroup_classes(C2):
        assert iso_eq(img.orbit_value(rec), M.orbit_value(rec))


def test_cokernel_of_multiplication_by_two():
    M = constant_mackey(C2, AbGroup.free(1))
    double = MackeyMorphism(
        M,
        M,
        {
            r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),))
            for r in subgroup_classes(C2)
        },
    ).check()
    Q, proj = cokernel_mackey(double)
    for rec in subgroup_classes(C2):
        assert Q.orbit_value(rec).invariants() == (0, (2,))
    # transfer becomes multiplication by 2 = 0 mod 2
    e, full = subgroup_classes(C2)
    om = OrbitMap(e, full, C2.identity)
    assert Q.orbit_covariant(om).is_zero_hom()
    assert verify_axioms(Q).passed


def test_derived_functors_pass_axioms():
    M = constant_mackey(C2, AbGroup.free(1))
    N = burnside_mackey(C2)
    total, incls, projs = direct_sum_mackey([M, N])
    assert verify_axioms(total).passed
    K, _ = kernel_mackey(projs[0])
    assert verify_axioms(K).passed


def test_morphism_validation_catches_breakage():
    M = constant_mackey(C2, AbGroup.free(1))
    e, full = subgroup_classes(C2)
    comps = {
        e.class_id: AbHom(M.orbit_value(e), M.orbit_value(e), ((2,),)),
        full.class_id: AbHom(M.orbit_value(full), M.orbit_value(full), ((1,),)),
    }
    from eqmack.mackey import MackeyError

    with pytest.raises(MackeyError):
        MackeyMorphism(M, M, comps).check()


def test_weyl_action_is_left_action():
    for G in (C4, S3):
        A = burnside_mackey(G)
        for rec in subgroup_classes(G):
            wm = A.weyl_module_at(rec)
            wm.check()


def test_morphism_needs_one_hom_per_orbit_class():
    M = constant_mackey(C2, AbGroup.free(1))
    e, full = subgroup_classes(C2)
    one = AbHom.identity(M.orbit_value(e))
    for comps in ({}, {e.class_id: one}, {e.class_id: one, full.class_id: one, 7: one}):
        with pytest.raises(MackeyError, match="MackeyMorphism"):
            MackeyMorphism(M, M, comps)
    wide = AbHom.zero(AbGroup.free(2), M.orbit_value(full))
    with pytest.raises(MackeyError, match="at class %d" % full.class_id):
        MackeyMorphism(M, M, {e.class_id: one, full.class_id: wide})
    # Z/2 + Z/3 with its relations in the other order is an equal group of
    # the same generator count, so it may present a component's source
    A = AbGroup(2, ((2, 0), (0, 3)))
    B = AbGroup(2, ((0, 2), (3, 0)))
    W = WrappedMackey(C2, {e.class_id: A, full.class_id: A}, None, None)
    MackeyMorphism(W, W, {r.class_id: AbHom(B, A, ((1, 0), (0, 1))) for r in (e, full)})


def test_every_morphism_construction_has_a_hom_per_orbit_class():
    Z = AbGroup.free(1)
    M, P = constant_mackey(C2, Z), constant_mackey(C2, AbGroup.cyclic(2))
    mod2 = fixed_point_morphism(M, P, AbHom(Z, AbGroup.cyclic(2), ((1,),))).check()
    ident = MackeyMorphism.identity(M).check()
    assert ident.compose(MackeyMorphism.identity(M)).check().comps == ident.comps
    assert mod2.compose(ident).check().comps == mod2.comps
    _, incl = kernel_mackey(mod2)
    _, proj = cokernel_mackey(mod2)
    _, img_incl, img_proj = image_mackey(mod2)
    _, incls, projs = direct_sum_mackey([M, P])
    for f in (incl, proj, img_incl, img_proj, *incls, *projs):
        f.check()
