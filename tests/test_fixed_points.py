"""Fixed-point functors and rho in orbit coordinates, against the
constraint-kernel presentations kept in fixed_point_reference.py."""

import pytest

from eqmack import abelian as ab
from eqmack.abelian import AbGroup, AbHom
from eqmack.groups import FiniteGroup, all_subgroups, subgroup_classes, weyl_group
from eqmack.gsets import GSet, fixed_points, regular_gset, std_orbit
from eqmack.homotopy import EquivariantMappingComplex, MackeyChainComplex, omega_spectrum_check
from eqmack.mackey import (
    FixedPointMackey,
    MackeyError,
    WeylModule,
    constant_mackey,
    fixed_point_morphism,
    fp_postcompose,
    orbit_maps_between,
)
from eqmack.simplicial import rotation_rep, s0_space, sign_rep, sphere_for_descriptors
from eqmack.tensor import ModuleTensor, RhoIso

from abelian_helpers import nrels
from fixed_point_reference import (
    ConstraintFixedPointMackey,
    ConstraintRhoIso,
    fp_postcompose_by_lift,
    rhs_functor,
)
from simplicial_reference import relabelled

Z = AbGroup.free(1)
Z2 = AbGroup.cyclic(2)
C2 = FiniteGroup.cyclic(2)
C4 = FiniteGroup.cyclic(4)
S3 = FiniteGroup.symmetric(3)


def cases():
    """(G, a representation sphere's descriptor) for C2, C3, C4 and S3."""
    a3 = next(r for r in subgroup_classes(S3) if r.order == 3)
    return [
        (C2, sign_rep()),
        (FiniteGroup.cyclic(3), rotation_rep(3, 1)),
        (C4, rotation_rep(4, 1)),
        (S3, sign_rep(a3.elements)),
    ]


def sign_module(W):
    """Z with W acting through a character onto {1, -1}, the first subgroup
    of index 2 as its kernel; None when W has no such subgroup."""
    for k in all_subgroups(W):
        if 2 * len(k) == W.order:
            one = AbHom.identity(Z)
            return WeylModule(W, Z, [one if w in k else -one for w in W.elements()]).check()


def modules(W):
    out = {
        "Z": WeylModule.trivial(W, Z),
        "Z/2": WeylModule.trivial(W, Z2),
        "Z[W]": WeylModule.regular(W),
    }
    if sign_module(W) is not None:
        out["Z^sign"] = sign_module(W)
    if W.order > 1:
        # Z[W] with its action only: its fixed parts are kernels and its
        # maps lifts, and W acts through non-commuting matrices for S3
        out["Z[W] plain"] = WeylModule(W, out["Z[W]"].value, out["Z[W]"].action)
    return out


def functor_pairs():
    """(label, new functor, reference functor) for every group, subgroup H
    and module."""
    for G, _ in cases():
        for hrec in subgroup_classes(G):
            for name, A in modules(hrec.weyl).items():
                label = "%s H=%d %s" % (G.name, hrec.class_id, name)
                yield label, FixedPointMackey(G, hrec, A), ConstraintFixedPointMackey(G, hrec, A)


def reading(new, S, incl_old):
    """The hom from a reference value at S to the new one that reads a
    function, given on S^H by incl_old, at the orbit representatives."""
    _, (reps, stabs, _), value = new._orbit_layout(S)
    A = new.module
    a = A.value.ngens
    cols = [
        {j * a + k: col[p * a + k] for j, p in enumerate(reps) for k in range(a) if p * a + k in col}
        for col in incl_old.cols
    ]
    at_reps = [A.value] * len(reps)
    read = AbHom.from_columns(incl_old.src, ab.direct_sum_data(at_reps)[0], cols)
    blocks = [(j, j, A.fixed(k)[1]) for j, k in enumerate(stabs)]
    fixed = ab.assemble_block_hom([A.fixed(k)[0] for k in stabs], at_reps, blocks)[0]
    lifted = fixed.preimage_matrix(read)
    assert lifted is not None
    return AbHom.from_columns(incl_old.src, value, lifted.cols)


def functions(new, S):
    """The inclusion of the new value at S into the functions on S^H, one
    copy of A per point: the W-fixed part of the permutation module A[S^H]."""
    fp, _, value = new._orbit_layout(S)
    incl = WeylModule.permutation(new.module, fp.wset).fixed(tuple(fp.weyl.elements()))[1]
    return AbHom.from_columns(value, incl.tgt, incl.cols)


def orbit_readings(new, old):
    """class_id -> the reading iso of the reference value at G/K."""
    G = new.group
    return {
        rec.class_id: reading(new, std_orbit(G, rec), old._container(std_orbit(G, rec))[3])
        for rec in subgroup_classes(G)
    }


def label_id(x):
    return x if isinstance(x, str) else ""


@pytest.mark.parametrize("label, new, old", list(functor_pairs()), ids=label_id)
def test_values_are_the_reference_read_at_representatives(label, new, old):
    for rec in subgroup_classes(new.group):
        S = std_orbit(new.group, rec)
        _, _, _, incl_old = old._container(S)
        phi = reading(new, S, incl_old)
        assert phi.is_iso()
        # both presentations describe the same functions on S^H
        assert functions(new, S).compose(phi).same_as(incl_old)


def assert_maps_commute_with_the_reading(new, old):
    """Every restriction and transfer between orbits of the two functors
    commutes with the reading isos."""
    phi = orbit_readings(new, old)
    recs = subgroup_classes(new.group)
    for j in recs:
        for h in recs:
            for om in orbit_maps_between(j, h):
                res_new, res_old = new.orbit_contravariant(om), old.orbit_contravariant(om)
                assert res_new.compose(phi[h.class_id]).same_as(phi[j.class_id].compose(res_old))
                tr_new, tr_old = new.orbit_covariant(om), old.orbit_covariant(om)
                assert tr_new.compose(phi[j.class_id]).same_as(phi[h.class_id].compose(tr_old))


@pytest.mark.parametrize("label, new, old", list(functor_pairs()), ids=label_id)
def test_restriction_and_transfer_commute_with_the_reading(label, new, old):
    assert_maps_commute_with_the_reading(new, old)


def rho_cases():
    spaces = [(G, sphere_for_descriptors(G, [desc], 2), G.name) for G, desc in cases()]
    # S^sigma given by full levels whose level 1 runs backwards, so that the
    # copies of the vertices in it run against their order in level 0
    X = sphere_for_descriptors(C2, [sign_rep()], 2)
    perms = [range(lv.size)[:: -1 if n == 1 else 1] for n, lv in enumerate(X.levels)]
    spaces.append((C2, relabelled(X, perms), "C2 relabelled"))
    for G, X, space in spaces:
        for hrec in subgroup_classes(G):
            for name in modules(hrec.weyl):
                for reduced in (False, True):
                    kind = "reduced" if reduced else "unreduced"
                    label = "%s H=%d %s %s" % (space, hrec.class_id, name, kind)
                    yield pytest.param(X, hrec, name, reduced, id=label)


@pytest.mark.parametrize("X, hrec, name, reduced", list(rho_cases()))
def test_rho_and_sigma_commute_with_the_reading(X, hrec, name, reduced):
    A = modules(hrec.weyl)[name]
    new, old = RhoIso(X, hrec, A, reduced=reduced), ConstraintRhoIso(X, hrec, A, reduced=reduced)
    G = hrec.group
    phi_ra = orbit_readings(new.RA, old.RA)
    for rec in subgroup_classes(G):
        S = std_orbit(G, rec)
        for n in range(X.bound + 1):
            lev_new, lev_old = new.T.value(n, S), old.T.value(n, S)
            blocks = [(i, i, phi_ra[o.record.class_id]) for i, o in enumerate(lev_old.orbits)]
            cols = ab.assemble_block_hom(lev_old.summands, lev_new.summands, blocks)[0].cols
            phi_left = AbHom.from_columns(lev_old.value, lev_new.value, cols)
            rhs_old = old.rhs_functor(n)._container(S)[3]
            phi_right = reading(rhs_functor(new, n), S, rhs_old)
            rho, sigma = new.rho(rec, n), new.sigma(rec, n)
            assert phi_left.is_iso() and phi_right.is_iso()
            assert phi_right.compose(old.rho(rec, n)).same_as(rho.compose(phi_left))
            assert phi_left.compose(old.sigma(rec, n)).same_as(sigma.compose(phi_right))
            assert rho.compose(sigma).same_as(AbHom.identity(rho.tgt))
    # the right-hand functors' restrictions and transfers, whose module A[Y_n]
    # is a permutation module over A
    for n in range(X.bound + 1):
        assert_maps_commute_with_the_reading(rhs_functor(new, n), old.rhs_functor(n))


def test_rho_solves_on_one_copy_of_the_module_at_most(monkeypatch):
    # the benchmark's rho case: C2, S^{2 sigma} at bound 3, Z[C2] at e and
    # Z at G; any kernel or lift inside rho and sigma is on one copy of A
    G = C2
    X = sphere_for_descriptors(G, [sign_rep()] * 2, 3)
    e, full = subgroup_classes(G)
    isos = [RhoIso(X, e, WeylModule.regular(e.weyl)), RhoIso(X, full, WeylModule.trivial(full.weyl, Z))]
    sizes = []
    kernel, lift = AbHom.kernel, AbHom.preimage_matrix

    def counted_kernel(h):
        sizes.append(h.tgt.ngens)
        return kernel(h)

    def counted_lift(h, b):
        sizes.append(h.tgt.ngens)
        return lift(h, b)

    monkeypatch.setattr(AbHom, "kernel", counted_kernel)
    monkeypatch.setattr(AbHom, "preimage_matrix", counted_lift)
    for iso in isos:
        for rec in subgroup_classes(G):
            for n in range(3):
                iso.rho(rec, n), iso.sigma(rec, n)
    assert all(s <= 2 for s in sizes)


def test_a_trivial_module_forms_no_kernel(monkeypatch):
    def refuse(h):
        raise AssertionError("a kernel was formed")

    monkeypatch.setattr(AbHom, "kernel", refuse)
    for G, _ in cases():
        for value in (Z, Z2):
            M = constant_mackey(G, value)
            for j in subgroup_classes(G):
                for h in subgroup_classes(G):
                    for om in orbit_maps_between(j, h):
                        M.orbit_covariant(om), M.orbit_contravariant(om)
            for hrec in subgroup_classes(G):
                R = FixedPointMackey(G, hrec, WeylModule.trivial(hrec.weyl, value))
                for rec in subgroup_classes(G):
                    R.orbit_value(rec)


def test_c4_mod_2_values_are_one_copy_per_orbit():
    # R(C4/e) for the trivial module Z/2 is one copy of Z/2; the constraint
    # kernel kept all four generators and four relations
    M = constant_mackey(C4, Z2)
    e = subgroup_classes(C4)[0]
    assert (M.orbit_value(e).ngens, nrels(M.orbit_value(e))) == (1, 1)
    old = ConstraintFixedPointMackey(C4, e, WeylModule.trivial(e.weyl, Z2))
    assert (old.orbit_value(e).ngens, nrels(old.orbit_value(e))) == (4, 4)
    K = sphere_for_descriptors(C4, [rotation_rep(4, 1)], 3)
    mc = EquivariantMappingComplex(K, ModuleTensor(K, WeylModule.trivial(C4, Z2)))
    assert mc.group(-1).ngens == 39
    assert [mc.homotopy_group(n).describe() for n in range(3)] == ["Z/2", "0", "0"]


def test_permutation_fixed_parts_split_over_orbits():
    # Z[C4]^K is free on the K-orbits of C4, one generator each
    for k in subgroup_classes(C4):
        A = WeylModule.regular(C4)
        F, incl = A.fixed(k.elements)
        assert (F.ngens, nrels(F)) == (4 // k.order, 0)
        assert incl.is_injective()
        for w in C4.elements():
            if w in k.elements:
                assert A.hom(w).compose(incl).same_as(incl)


def test_a_map_that_is_not_equivariant_raises():
    # theta(a, b) = a is not C2-equivariant from Z[C2] to Z
    e = subgroup_classes(C2)[0]
    src = FixedPointMackey(C2, e, WeylModule.regular(e.weyl))
    tgt = FixedPointMackey(C2, e, WeylModule.trivial(e.weyl, Z))
    theta = AbHom(AbGroup.free(2), Z, ((1, 0),))
    with pytest.raises(MackeyError, match="postcomposition does not preserve equivariance"):
        fixed_point_morphism(src, tgt, theta)
    # the sum map is equivariant and goes through
    assert fixed_point_morphism(src, tgt, AbHom(AbGroup.free(2), Z, ((1, 1),))).check()


def test_omega_check_builds_each_tensors_chains_once(monkeypatch):
    built = []
    init = MackeyChainComplex.__init__

    def counted(self, T):
        built.append(T)
        init(self, T)

    monkeypatch.setattr(MackeyChainComplex, "__init__", counted)
    report = omega_spectrum_check(s0_space(C2, 2), constant_mackey(C2, Z), sign_rep(), n_max=1)
    assert report.passed
    # the suspension's tensor and the target of every orbit class's mapping
    # complex: two tensors, one complex each
    assert len(built) == 2 and built[0] is not built[1]


def test_weyl_groups_are_built_once_per_subgroup():
    for G, _ in cases():
        for rec in subgroup_classes(G):
            assert weyl_group(G, rec.elements) is weyl_group(G, tuple(reversed(rec.elements)))
            assert fixed_points(std_orbit(G, rec), rec.elements).weyl is rec.weyl


def test_a_module_is_checked_once(monkeypatch):
    # a RhoIso checks its module in its FixedPointMackey, and every
    # rhs_functor(iso, n) checks it in a ModuleTensor and the level module's
    # base once more
    checked = []
    is_well_defined = AbHom.is_well_defined

    def counted(h):
        checked.append(h)
        return is_well_defined(h)

    monkeypatch.setattr(AbHom, "is_well_defined", counted)
    e = subgroup_classes(C2)[0]
    W, one = e.weyl, AbHom.identity(Z)
    sign = WeylModule(W, Z, [one if w == W.identity else -one for w in W.elements()])
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, 3)
    for iso in (RhoIso(X, e, sign), RhoIso(X, e, sign)):
        for n in range(X.bound + 1):
            rhs_functor(iso, n)
    # the action loop visits each element of W once, in the first check only
    assert len(checked) == W.order


def coset_set(W, K):
    """(W/K as a W-set, the index of the coset K), built here rather than by
    the cached gsets.coset_space, whose cache would hand W's name to a later
    caller's equal group."""
    cosets = sorted({tuple(sorted(W.mul[w][k] for k in K)) for w in W.elements()})
    index = {w: i for i, c in enumerate(cosets) for w in c}
    rows = tuple(tuple(index[W.mul[g][c[0]]] for c in cosets) for g in W.elements())
    return GSet(W, len(cosets), rows), index[W.identity]


def postcompose_cases():
    """(label, G, A, B, theta) for H = e, so W = G: equivariant maps into
    Z[W] and into the permutation modules Z[W/K] and Z/2[W/K], whose points
    have the stabilizers K, from the trivial module (the norm), from Z[W]
    (the projection onto cosets, or a right translation into Z[W]) and from
    Z/2."""
    for G in (C2, C4, S3):
        W = subgroup_classes(G)[0].weyl
        regular = WeylModule.regular(W)
        right = W.elements()[-1]
        translate = [{W.mul[x][right]: 1} for x in W.elements()]
        yield "%s Z[W]->Z[W]" % G.name, G, regular, regular, AbHom.from_columns(
            regular.value, regular.value, translate
        )
        for K in subgroup_classes(W):
            cosets, unit = coset_set(W, K.elements)
            for value in (Z, Z2):
                B = WeylModule.permutation(WeylModule.trivial(W, value), cosets)
                norm = AbHom.from_columns(value, B.value, [{y: 1 for y in range(cosets.size)}])
                yield "%s %s->%s[W/K%d]" % (G.name, value.describe(), value.describe(), K.order), \
                    G, WeylModule.trivial(W, value), B, norm
            B = WeylModule.permutation(WeylModule.trivial(W, Z), cosets)
            to_cosets = [{cosets.action[x][unit]: 1} for x in regular_gset(W).points()]
            yield "%s Z[W]->Z[W/K%d]" % (G.name, K.order), G, regular, B, AbHom.from_columns(
                regular.value, B.value, to_cosets
            )


@pytest.mark.parametrize("label, G, A, B, theta", list(postcompose_cases()), ids=label_id)
def test_postcomposition_reads_the_target_at_orbit_representatives(monkeypatch, label, G, A, B, theta):
    # the same hom as the lift through the whole fixed-part inclusion, with
    # every lift on one copy of the base module
    e = subgroup_classes(G)[0]
    f_src, f_tgt = FixedPointMackey(G, e, A), FixedPointMackey(G, e, B)
    for rec in subgroup_classes(G):
        S = std_orbit(G, rec)
        old = fp_postcompose_by_lift(f_src, f_tgt, theta, S)
        sizes, lift = [], AbHom.preimage_matrix

        def counted(h, b):
            sizes.append(h.tgt.ngens)
            return lift(h, b)

        monkeypatch.setattr(AbHom, "preimage_matrix", counted)
        new = fp_postcompose(f_src, f_tgt, theta, S)
        monkeypatch.undo()
        assert (new.src, new.tgt) == (old.src, old.tgt) and new.same_as(old)
        assert new.mat == old.mat
        assert all(size <= 1 for size in sizes)
