import hashlib
import itertools
import math
import random

import pytest

from eqmack import abelian as ab
from eqmack.abelian import AbGroup, AbHom
from eqmack.groups import FiniteGroup, subgroup_classes
from eqmack.gsets import (
    GMap,
    GSet,
    disjoint_union,
    point_gset,
    regular_gset,
    std_orbit,
)
from eqmack.homotopy import exact_chain_maps
from eqmack.mackey import (
    FixedPointMackey,
    MackeyError,
    MackeyMorphism,
    OrbitMap,
    WeylModule,
    based_contravariant,
    based_covariant,
    based_value,
    burnside_mackey,
    constant_mackey,
    orbit_maps_between,
)
from eqmack.simplicial import (
    SimplicialError,
    circle_space,
    discrete_inclusion,
    discrete_space,
    fixed_system,
    point_space,
    rotation_rep,
    s0_space,
    sign_circle,
    smash,
    sphere_for_descriptors,
    trivial_rep,
    sign_rep,
)
from eqmack.tensor import (
    ModuleTensor,
    PsiMap,
    RhoIso,
    TensorError,
    TensorMackey,
    reduced_tensor,
    rho_iso,
    ses_from_coefficients,
    ses_from_cofibration,
    structure_map_psi,
    tensor,
)

from abelian_helpers import iso_eq
from coend_reference import (
    CoendRep,
    identity_rep,
    injective_normal_form,
    normalize_coend_rep,
    transfer_via_pullback,
)
from delta_reference import smash_assoc
from fixed_point_reference import rho_on_nondegenerate, rhs_functor
from gset_reference import enumerate_gmaps
from module_chains import chain_complex, face_hom

C2 = FiniteGroup.cyclic(2)
S3 = FiniteGroup.symmetric(3)
Z, Z2 = AbGroup.free(1), AbGroup.cyclic(2)


def space_hom(T, other, table, n, S):
    """The hom induced by a level map of spaces (x, s) -> (table[x], s).

    `other` is the tensor of the target space with the same coefficients;
    for a reduced target, points landing on the basepoint are crushed.  A
    reduced tensor has no such hom into an unreduced one.
    """
    src, tgt = T.level_set(n, S), other.level_set(n, S)
    return T._induced("cov", src, tgt, lambda x, s: (table[x], s))


def sphere_fixed_simplices(psi, rec, n):
    """Raw sphere simplices of psi fixed by the subgroup, basepoint excluded."""
    return tuple(
        a
        for a in psi.SW.levels[n].fixed_by(rec.elements)
        if a != psi.SW.base(n)
    )


def gset_suite(G):
    orbits = [std_orbit(G, r) for r in subgroup_classes(G)]
    extra = disjoint_union([orbits[0], orbits[-1]])[0]
    return orbits + [extra]


def test_point_tensor_recovers_m():
    for G in (C2, S3):
        pt = point_space(G, bound=3)
        for M in (burnside_mackey(G), constant_mackey(G, AbGroup.free(1))):
            T = tensor(pt, M)
            for S in gset_suite(G):
                base = M.evaluate(S).value
                for n in range(pt.bound + 1):
                    assert iso_eq(T.group_at(n, S), base)
                # faces are isomorphisms (all simplices degenerate)
                for i in range(2):
                    assert T.face(1, i, S).is_iso()


def test_s0_tensor_doubles():
    M = burnside_mackey(C2)
    X = s0_space(C2, bound=2)
    T = tensor(X, M)
    R = reduced_tensor(X, M)
    for S in gset_suite(C2):
        mv = M.evaluate(S).value
        free, tors = mv.invariants()
        assert T.group_at(0, S).invariants() == (2 * free, tors + tors)
        assert iso_eq(R.group_at(0, S), mv)


def test_discrete_free_orbit_tensor():
    M = burnside_mackey(C2)
    X = discrete_space(C2, regular_gset(C2), bound=2)
    T = tensor(X, M)
    pt = std_orbit(C2, subgroup_classes(C2)[1])
    # M(C2/e x pt) = M(C2/e) = Z
    assert T.group_at(0, pt).invariants() == (1, ())


def test_normalize_coend_reps():
    M = burnside_mackey(C2)
    X = point_space(C2, bound=2)
    T = tensor(X, M)
    pt = std_orbit(C2, subgroup_classes(C2)[1])
    ev = T.value(0, pt)
    # identity representative
    x = (1, 2)
    rep = identity_rep(T, 0, pt, x)
    assert normalize_coend_rep(T, 0, pt, rep) == x
    # projection representative: image of the free generator
    ls = T.level_set(0, pt)
    free = regular_gset(C2)
    proj = GMap(free, ls.gset, (0, 0))
    rep2 = CoendRep(carrier=free, gmap=proj, coeff=(1,))
    out = normalize_coend_rep(T, 0, pt, rep2)
    # the class of the free orbit span in the Burnside group of a point
    basis = M.basis(ls.gset)
    idx = basis.index(((C2.identity,), 0))
    assert out[idx] == 1 and sum(abs(v) for v in out) == 1
    # non-injective representative equals its injective factorization
    rep3 = injective_normal_form(T, 0, pt, rep2)
    assert rep3.is_injective()
    assert normalize_coend_rep(T, 0, pt, rep3) == out


def proj_pi(G):
    e = subgroup_classes(G)[0]
    full = subgroup_classes(G)[-1]
    return GMap(std_orbit(G, e), std_orbit(G, full), (0,) * G.order)


def test_transfer_via_pullback_identity_and_projection():
    M = burnside_mackey(C2)
    X = point_space(C2, bound=2)
    T = tensor(X, M)
    pt = std_orbit(C2, subgroup_classes(C2)[1])
    ident = GMap.identity(pt)
    for x in ((1, 0), (0, 1), (2, -1)):
        rep = identity_rep(T, 0, pt, x)
        assert transfer_via_pullback(T, 0, ident, rep) == x
    pi = proj_pi(C2)
    # restriction along pi on the Burnside group of the point
    basis = M.basis(T.level_set(0, pt).gset)
    e_idx = basis.index(((C2.identity,), 0))
    full_idx = 1 - e_idx
    unit_full = tuple(1 if i == full_idx else 0 for i in range(2))
    unit_e = tuple(1 if i == e_idx else 0 for i in range(2))
    rep = identity_rep(T, 0, pt, unit_full)
    assert transfer_via_pullback(T, 0, pi, rep) == (1,)
    rep = identity_rep(T, 0, pt, unit_e)
    assert transfer_via_pullback(T, 0, pi, rep) == (2,)


def test_transfer_independent_of_representative():
    rng = random.Random(3)
    M = burnside_mackey(C2)
    X = sign_circle(C2, (0,), bound=2)
    T = tensor(X, M)
    e, full = subgroup_classes(C2)
    S, Tset = std_orbit(C2, e), std_orbit(C2, full)
    f = proj_pi(C2)
    n = 1
    ls = T.level_set(n, Tset)
    carriers = [regular_gset(C2), disjoint_union([regular_gset(C2), point_gset(C2)])[0]]
    for carrier in carriers:
        for gamma in enumerate_gmaps(carrier, ls.gset):
            cval = M.evaluate(carrier).value
            for _ in range(2):
                coeff = tuple(rng.randrange(-2, 3) for _ in range(cval.ngens))
                rep = CoendRep(carrier=carrier, gmap=gamma, coeff=coeff)
                via_recipe = transfer_via_pullback(T, n, f, rep)
                collapsed = normalize_coend_rep(T, n, Tset, rep)
                direct = T.contravariant_S(n, f)(collapsed)
                assert T.group_at(n, S).elements_equal(via_recipe, direct)


def test_collapse_coherence_on_suite():
    # the pullback recipe agrees with the restriction of the collapsed class
    M = constant_mackey(C2, AbGroup.free(1))
    X = sign_circle(C2, (0,), bound=2)
    T = tensor(X, M)
    for S in gset_suite(C2)[:3]:
        for Tset in gset_suite(C2)[:3]:
            for f in enumerate_gmaps(S, Tset):
                n = 1
                val = T.group_at(n, Tset)
                for c in range(val.ngens):
                    unit = tuple(1 if i == c else 0 for i in range(val.ngens))
                    rep = identity_rep(T, n, Tset, unit)
                    lhs = transfer_via_pullback(T, n, f, rep)
                    rhs = T.contravariant_S(n, f)(unit)
                    assert T.group_at(n, S).elements_equal(lhs, rhs)


def test_reduced_tensor_point_is_zero():
    M = burnside_mackey(C2)
    R = reduced_tensor(point_space(C2, bound=2), M)
    for S in gset_suite(C2):
        for n in range(3):
            assert R.group_at(n, S).is_trivial()


def test_splitting_unreduced_vs_reduced():
    M = burnside_mackey(C2)
    X = sign_circle(C2, (0,), bound=3)
    T = tensor(X, M)
    R = reduced_tensor(X, M)
    for S in gset_suite(C2):
        for n in range(3):
            free_t, tors_t = T.group_at(n, S).invariants()
            mf, mt = M.evaluate(S).value.invariants()
            rf, rt = R.group_at(n, S).invariants()
            assert free_t == mf + rf
            assert sorted(tors_t) == sorted(mt + rt)


def reduced_as_cokernel(X, M, n, S):
    """The literal cokernel presentation of the reduced value, with the
    comparison iso onto the block presentation (a consistency oracle)."""
    T = TensorMackey(X, M, reduced=False)
    ls = T.level_set(n, S)
    # basepoint inclusion pt x S -> X_n x S
    base = X.base(n)
    ptset = GSet(M.group, S.size, S.action)
    vals = tuple(ls.index[(base, s)] for s in range(S.size))
    incl = GMap(ptset, ls.gset, vals)
    i_star = M.covariant(incl)
    coker, proj = i_star.cokernel()
    red = TensorMackey(X, M, reduced=True)
    ev = red.value(n, S)
    ls_red = red.level_set(n, S)
    big = T.value(n, S)
    G = M.group
    # send each reduced block to the cokernel class of the matching
    # unreduced block, transporting between the two basepoint choices
    entries = []
    for i, o in enumerate(ev.orbits):
        x, s = ls_red.pairs[o.basepoint]
        p_idx = ls.index[(x, s)]
        j = big.orbit_index_of_point(p_idx)
        oj = big.orbits[j]
        c = next(c for c in G.elements() if ls.gset.action[c][oj.basepoint] == p_idx)
        entries.append((j, i, M.orbit_covariant(OrbitMap(o.record, oj.record, c))))
    blocks, _, _ = ab.assemble_block_hom(ev.summands, big.summands, entries)
    return coker, proj, proj.compose(blocks)


def test_reduced_matches_cokernel_presentation():
    M = burnside_mackey(C2)
    X = sign_circle(C2, (0,), bound=2)
    for S in gset_suite(C2)[:3]:
        for n in range(2):
            coker, proj, mapping = reduced_as_cokernel(X, M, n, S)
            assert mapping.is_iso()


def test_face_degeneracy_structure_commutes_with_restrictions():
    # faces commute with every contravariant map (pullback axiom instance)
    M = burnside_mackey(C2)
    X = sign_circle(C2, (0,), bound=2)
    T = tensor(X, M)
    recs = subgroup_classes(C2)
    for j in recs:
        for h in recs:
            for om in orbit_maps_between(j, h):
                f = om.gmap()
                for i in range(2):
                    lhs = T.face(1, i, f.src).compose(T.contravariant_S(1, f))
                    rhs = T.contravariant_S(0, f).compose(T.face(1, i, f.tgt))
                    assert lhs.same_as(rhs)


def test_module_tensor_spheres():
    W = C2
    A = WeylModule.trivial(W, AbGroup.free(1))
    K = s0_space(W, bound=2)
    mt = ModuleTensor(K, A)
    c = chain_complex(mt).check()
    assert c.homology(0).invariants() == (1, ())
    assert c.homology(1).is_trivial()
    circle = circle_space(W, bound=3)
    mt2 = ModuleTensor(circle, A)
    c2 = chain_complex(mt2).check()
    assert c2.homology(0).is_trivial()
    assert c2.homology(1).invariants() == (1, ())


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_module_tensor_chains_equal_the_restricted_full_faces(reduced):
    # reference: sum (-1)^i face_hom(n, i) over every support block, with
    # the rows and columns of the nondegenerate blocks selected
    K = sphere_for_descriptors(C2, [sign_rep()] * 2, 4)
    for A in (WeylModule.regular(C2), WeylModule.trivial(C2, AbGroup.cyclic(2))):
        mt = ModuleTensor(K, A, reduced=reduced)
        a = A.value.ngens
        c = chain_complex(mt)

        def kept(n):
            flags = K.degenerate_flags(n)
            blocks = [i for i, x in enumerate(mt.support(n)) if not flags[x]]
            return [i * a + k for i in blocks for k in range(a)]

        for n in range(1, K.bound + 1):
            full = face_hom(mt, n, 0)
            for i in range(1, n + 1):
                h = face_hom(mt, n, i)
                full = full + (h if i % 2 == 0 else h.scale(-1))
            rows, cols = kept(n - 1), kept(n)
            assert c.diffs[n].mat == tuple(tuple(full.mat[r][j] for j in cols) for r in rows)
            assert (c.diffs[n].src.ngens, c.diffs[n].tgt.ngens) == (len(cols), len(rows))


def test_module_tensor_fixed_points_vs_equivariant_maps():
    # the G-fixed part of the linearization is the equivariant-function group
    G = C2
    A = WeylModule.regular(G)  # Z[C2] as a G-module
    K = sign_circle(G, (0,), bound=2)
    mtK = ModuleTensor(K, A, reduced=True)
    e = subgroup_classes(G)[0]
    for S in gset_suite(G)[:3]:
        for n in range(2):
            sm, pts = _smash_with_plus(K, S, n)
            mt = _module_of_set(sm, A)
            fixed = _fixed_subgroup(mt)
            rhs = FixedPointMackey(G, e, mtK.module(n))
            rv = rhs.value_of(S)
            assert iso_eq(fixed, rv)


def _smash_with_plus(K, S, n):
    # the set (K_n x S) with a basepoint column collapsed
    from eqmack.tensor import smash_level

    ls = smash_level(K.levels[n], K.base(n), S)
    return ls.gset, ls.pairs


def _module_of_set(gset, A):
    """The permutation module on the non-base points of a based G-set."""
    from eqmack import abelian as ab

    n = gset.size - 1
    value, incls, projs = ab.direct_sum([A.value] * n)
    homs = []
    for g in gset.group.elements():
        h = AbHom.zero(value, value)
        for i in range(n):
            tgtp = gset.action[g][i + 1]
            if tgtp != 0:
                h = h + incls[tgtp - 1].compose(A.hom(g)).compose(projs[i])
        homs.append(h)
    return WeylModule(gset.group, value, tuple(homs))


def _fixed_subgroup(module):
    W = module.group
    from eqmack import abelian as ab

    rows = [module.hom(g) - AbHom.identity(module.value) for g in W.elements()]
    tgt, incls, _ = ab.direct_sum([module.value] * len(rows))
    h = AbHom.zero(module.value, tgt)
    for r, rh in enumerate(rows):
        h = h + incls[r].compose(rh)
    k, _ = h.kernel()
    return k


@pytest.mark.parametrize(
    "xname", ["s0", "sign"]
)
def test_rho_is_an_isomorphism(xname):
    G = C2
    e, full = subgroup_classes(G)
    X = s0_space(G, bound=3) if xname == "s0" else sign_circle(G, (0,), bound=3)
    for hrec, module in (
        (e, WeylModule.regular(e.weyl)),
        (full, WeylModule.trivial(full.weyl, AbGroup.free(1))),
    ):
        iso = rho_iso(X, hrec, module)
        for rec in subgroup_classes(G):
            for n in range(3):
                rho = iso.rho(rec, n)
                sig = iso.sigma(rec, n)
                assert rho.compose(sig).same_as(AbHom.identity(rho.tgt))
                assert sig.compose(rho).same_as(AbHom.identity(rho.src))


def test_rho_forms_no_dense_matrix(monkeypatch):
    from eqmack import intlinalg as la

    def dense(cols, nrows):
        raise AssertionError("a dense matrix was formed")

    monkeypatch.setattr(la, "dense", dense)
    e, full = subgroup_classes(C2)
    X = sphere_for_descriptors(C2, [sign_rep(), sign_rep()], 3)
    iso = rho_iso(X, e, WeylModule.regular(e.weyl))
    for rec in subgroup_classes(C2):
        for n in range(3):
            rho, sig = iso.rho(rec, n), iso.sigma(rec, n)
            assert rho.is_iso()
            assert sig.compose(rho).same_as(AbHom.identity(rho.src))


def test_rho_and_sigma_share_each_layout(monkeypatch):
    built = []
    build = RhoIso._build_layout

    def counted(self, rec, n):
        built.append((rec.class_id, n))
        return build(self, rec, n)

    monkeypatch.setattr(RhoIso, "_build_layout", counted)
    e, full = subgroup_classes(C2)
    X = sphere_for_descriptors(C2, [sign_rep(), sign_rep()], 3)
    iso = rho_iso(X, e, WeylModule.regular(e.weyl))
    for rec in subgroup_classes(C2):
        for n in range(3):
            rho, sig = iso.rho(rec, n), iso.sigma(rec, n)
            assert sig.compose(rho).same_as(AbHom.identity(rho.src))
    keys = [(rec.class_id, n) for rec in subgroup_classes(C2) for n in range(3)]
    assert built == keys


def _perm(*cols):
    return tuple(tuple(int(j == c) for j in range(len(cols))) for c in cols)


# (subgroup of the coefficients, orbit class, level) -> (rho, sigma), each as
# (source, target, matrix).  With Z[C2] at e, rho at G/e in level 1 carries
# the last orbit's value at its left representative to the right one, which
# is its translate by the generator, so it swaps the last two generators,
# and sigma swaps them back.  Recorded when rho and sigma became block maps
# between orbit representatives; the constraint-kernel code of
# fixed_point_reference.py gave the permutations (0, 1, 2, 3, 7, 6, 4, 5)
# and (0, 1, 2, 3, 6, 7, 5, 4) here, in its own presentation.
RHO_SIGMA_C2_SIGN_SPHERE = {
    ("e", 0, 0): (("Z^4", "Z^4", _perm(0, 1, 2, 3)),) * 2,
    ("e", 0, 1): (("Z^8", "Z^8", _perm(0, 1, 2, 3, 4, 5, 7, 6)),) * 2,
    ("e", 1, 0): (("Z^2", "Z^2", _perm(0, 1)),) * 2,
    ("e", 1, 1): (("Z^4", "Z^4", _perm(0, 1, 2, 3)),) * 2,
    ("G", 0, 0): (("0", "0", ()),) * 2,
    ("G", 0, 1): (("0", "0", ()),) * 2,
    ("G", 1, 0): (("Z^2", "Z^2", _perm(0, 1)),) * 2,
    ("G", 1, 1): (("Z^2", "Z^2", _perm(0, 1)),) * 2,
}


def test_rho_sigma_matrices_are_pinned():
    e, full = subgroup_classes(C2)
    X = sphere_for_descriptors(C2, [sign_rep()], 2)
    isos = {
        "e": rho_iso(X, e, WeylModule.regular(e.weyl)),
        "G": rho_iso(X, full, WeylModule.trivial(full.weyl, AbGroup.free(1))),
    }
    got = {}
    for label, iso in isos.items():
        for rec in subgroup_classes(C2):
            for n in range(2):
                got[(label, rec.class_id, n)] = tuple(
                    (h.src.describe(), h.tgt.describe(), h.mat)
                    for h in (iso.rho(rec, n), iso.sigma(rec, n))
                )
    assert got == RHO_SIGMA_C2_SIGN_SPHERE


def _group_data(g):
    return g.ngens, g.rels


def _hom_data(h):
    return _group_data(h.src), _group_data(h.tgt), h.mat


def rho_sigma_outputs():
    """rho and sigma at every orbit class and level, for every subgroup H
    and the modules Z, Z[W] and Z/2, reduced and unreduced."""
    C3 = FiniteGroup.cyclic(3)
    a3 = next(r for r in subgroup_classes(S3) if r.order == 3)
    rows = [(C2, sign_rep()), (C3, rotation_rep(3, 1)), (S3, sign_rep(a3.elements))]
    out = []
    for G, desc in rows:
        X = sphere_for_descriptors(G, [desc], 2)
        for hrec in subgroup_classes(G):
            W = hrec.weyl
            modules = (
                WeylModule.trivial(W, AbGroup.free(1)),
                WeylModule.regular(W),
                WeylModule.trivial(W, AbGroup.cyclic(2)),
            )
            for module in modules:
                for reduced in (False, True):
                    iso = rho_iso(X, hrec, module, reduced=reduced)
                    for rec in subgroup_classes(G):
                        for n in range(X.bound + 1):
                            out.append(_hom_data(iso.rho(rec, n)))
                            out.append(_hom_data(iso.sigma(rec, n)))
    return out


# sha256 of the repr of rho_sigma_outputs(), recorded when rho and sigma
# became block maps between fixed parts in orbit coordinates; test_fixed_points
# checks them against the constraint-kernel code they replaced
RHO_SIGMA_SHA256 = "feed42a64d85eb57df8830c2fc69bf8b030158fe6b7f34a661bdf720fb9ce32b"


def test_rho_sigma_on_three_groups_are_bit_identical():
    digest = hashlib.sha256(repr(rho_sigma_outputs()).encode()).hexdigest()
    assert digest == RHO_SIGMA_SHA256


def rho_splitting_spaces():
    a3 = next(r for r in subgroup_classes(S3) if r.order == 3)
    for k in (1, 2, 3):
        yield pytest.param(C2, [sign_rep()] * k, id="C2-%dsigma" % k)
    yield pytest.param(FiniteGroup.cyclic(3), [rotation_rep(3, 1)], id="C3-rot")
    yield pytest.param(S3, [sign_rep(a3.elements), trivial_rep(1)], id="S3-sigma+1")


@pytest.mark.parametrize("G, descs", list(rho_splitting_spaces()))
def test_rho_is_the_sum_of_rho_on_the_nondegenerate_simplices(G, descs):
    # X_n is the sum of the copies s^* ND_k over the surjections s: [n] ->> [k],
    # so rho_n is an iso exactly when rho on every ND_k with k <= n is one, and
    # its ends are the sums of theirs; rho on ND_k starts at the normalized level
    from eqmack.homotopy import normalized_chains

    X = sphere_for_descriptors(G, descs, 3)
    for hrec in subgroup_classes(G):
        W = hrec.weyl
        for module in (WeylModule.trivial(W, Z), WeylModule.regular(W), WeylModule.trivial(W, Z2)):
            for reduced in (False, True):
                iso = rho_iso(X, hrec, module, reduced=reduced)
                for rec in subgroup_classes(G):
                    parts = []
                    for k in range(X.bound + 1):
                        part, sigma = rho_on_nondegenerate(iso, rec, k)
                        assert sigma.compose(part).same_as(AbHom.identity(part.src))
                        assert part.src == normalized_chains(iso.T).level(rec, k)[1].value
                        parts.append(part)
                    for n in range(X.bound + 1):
                        rho = iso.rho(rec, n)
                        assert rho.is_iso() == all(part.is_iso() for part in parts[: n + 1])
                        for end in ("src", "tgt"):
                            copies = [getattr(p, end) for k, p in enumerate(parts[: n + 1])
                                      for _ in range(math.comb(n, k))]
                            summed = ab.direct_sum_data(copies)[0]
                            assert summed.invariants() == getattr(rho, end).invariants()


def test_rho_point_space_is_identity_sized():
    G = C2
    e = subgroup_classes(G)[0]
    iso = rho_iso(point_space(G, bound=2), e, WeylModule.trivial(e.weyl, AbGroup.free(1)))
    for rec in subgroup_classes(G):
        r = iso.rho(rec, 0)
        assert r.is_iso()
        assert iso_eq(r.src, r.tgt)


def test_rho_naturality_both_variances():
    G = C2
    e = subgroup_classes(G)[0]
    module = WeylModule.regular(e.weyl)
    X = sign_circle(G, (0,), bound=2)
    iso = rho_iso(X, e, module)
    n = 1
    rhsf = rhs_functor(iso, n)
    for j in subgroup_classes(G):
        for h in subgroup_classes(G):
            for om in orbit_maps_between(j, h):
                f = om.gmap()
                # contravariant naturality
                lhs = iso.rho(j, n).compose(iso.T.contravariant_S(n, f))
                rhs = rhsf.orbit_contravariant(om).compose(iso.rho(h, n))
                assert lhs.same_as(rhs)
                # covariant naturality
                lhs = iso.rho(h, n).compose(iso.T.covariant_S(n, f))
                rhs = rhsf.orbit_covariant(om).compose(iso.rho(j, n))
                assert lhs.same_as(rhs)


def test_rho_naturality_in_x():
    from eqmack.mackey import fp_postcompose

    G = C2
    e = subgroup_classes(G)[0]
    module = WeylModule.trivial(e.weyl, AbGroup.free(1))
    X = sign_circle(G, (0,), bound=2)
    iso = rho_iso(X, e, module)
    for rec in subgroup_classes(G):
        S = std_orbit(G, rec)
        for i in range(2):
            theta = face_hom(ModuleTensor(fixed_system(X, e.elements)[0], module, reduced=False), 1, i)
            lhs = iso.rho(rec, 0).compose(iso.T.face(1, i, S))
            rhs = fp_postcompose(
                rhs_functor(iso, 1), rhs_functor(iso, 0), theta, S
            ).compose(iso.rho(rec, 1))
            assert lhs.same_as(rhs)


def test_psi_zero_descriptor_is_iso():
    M = constant_mackey(C2, AbGroup.free(1))
    X = sign_circle(C2, (0,), bound=3)
    psi = structure_map_psi(trivial_rep(0), X, M)
    for rec in subgroup_classes(C2):
        for n in range(2):
            alphas = sphere_fixed_simplices(psi, rec, n)
            assert len(alphas) == 1
            comp = psi.component(rec, n, alphas[0])
            assert comp.is_iso()
            base_comp = psi.component(rec, n, psi.SW.base(n))
            assert base_comp.is_zero_hom()


def test_psi_transitivity_square():
    G = C2
    M = constant_mackey(G, AbGroup.free(1))
    X = s0_space(G, bound=3)
    psi_w = PsiMap([sign_rep()], X, M)
    x1 = psi_w.SX  # S^sigma smash X
    psi_u = PsiMap([trivial_rep(1)], x1, M)
    combined_sphere = smash(psi_u.SW, psi_w.SW)
    assoc = smash_assoc(psi_u.SW, psi_w.SW, X)
    psi_uw = PsiMap([trivial_rep(1), sign_rep()], X, M)
    assert psi_uw.SW == combined_sphere
    for rec in subgroup_classes(G):
        S = std_orbit(G, rec)
        for n in range(2):
            for a_u in sphere_fixed_simplices(psi_u, rec, n):
                for a_w in sphere_fixed_simplices(psi_w, rec, n):
                    idx = {
                        p: i
                        for i, p in enumerate(combined_sphere._smash_points[n])
                        if p is not None
                    }
                    alpha = idx[(a_u, a_w)]
                    direct = psi_uw.component(rec, n, alpha)
                    step = psi_u.component(rec, n, a_u).compose(
                        psi_w.component(rec, n, a_w)
                    )
                    fix = space_hom(
                        psi_u.T_tgt, psi_uw.T_tgt, assoc.comps[n].values, n, S
                    )
                    assert fix.compose(step).same_as(direct)


def exact_levels(ses, levels):
    """Whether 0 -> N_n A -> N_n B -> N_n C -> 0 is exact at each of the levels
    n and every orbit class, on the normalized maps of ses.  By Dold-Kan
    levelwise exactness of the chains C is levelwise exactness of N, and a
    Mackey functor's value at a G-set is the sum of its values at the orbits."""
    for rec in subgroup_classes(ses.tensors[0].group):
        f, g = exact_chain_maps(ses, rec)
        for n in levels:
            fn, gn = f.comps[n], g.comps[n]
            if not (fn.is_injective() and gn.is_surjective() and ab.is_exact_at(fn, gn)):
                return False
    return True


def test_ses_from_cofibration_exactness():
    G = C2
    M = burnside_mackey(G)
    sig = sign_circle(G, (0,), bound=3)
    s0 = s0_space(G, bound=3)
    incl = discrete_inclusion(s0, sig, (0, 1))
    ses = ses_from_cofibration(incl, M)
    assert exact_levels(ses, range(3))


def test_ses_cofibration_trivial_cases():
    G = C2
    M = constant_mackey(G, AbGroup.free(1))
    sig = sign_circle(G, (0,), bound=2)
    pt = point_space(G, bound=2)
    incl = discrete_inclusion(pt, sig, (0,))
    ses = ses_from_cofibration(incl, M)
    # quotient recovers the reduced tensor of the whole space
    R = reduced_tensor(sig, M)
    assert exact_levels(ses, range(2))
    for S in gset_suite(G)[:2]:
        for n in range(2):
            assert iso_eq(ses.quot.group_at(n, S), R.group_at(n, S))
    # Y = X collapses to a point: the quotient functor vanishes
    full_incl = discrete_inclusion(s0_space(G, bound=2), s0_space(G, bound=2), (0, 1))
    ses2 = ses_from_cofibration(full_incl, M)
    for n in range(2):
        assert ses2.quot.group_at(n, std_orbit(G, subgroup_classes(G)[1])).is_trivial()


def test_sequences_of_one_inclusion_share_the_cofiber(monkeypatch):
    from eqmack import simplicial

    collapsed = []
    collapse = simplicial.collapse

    def counted(X, subs):
        collapsed.append(X)
        return collapse(X, subs)

    monkeypatch.setattr(simplicial, "collapse", counted)
    sig = sign_circle(C2, (0,), bound=3)
    incl = discrete_inclusion(s0_space(C2, bound=3), sig, (0, 1))
    first = ses_from_cofibration(incl, burnside_mackey(C2))
    second = ses_from_cofibration(incl, constant_mackey(C2, AbGroup.free(1)))
    assert first.quotient is second.quotient and first.proj is second.proj
    assert collapsed == [sig]
    # the memo is not compared: the map still equals a fresh copy of itself
    assert incl == discrete_inclusion(s0_space(C2, bound=3), sig, (0, 1))
    assert exact_levels(first, [1]) and exact_levels(second, [1])
    # a map that is not levelwise injective has no cofiber
    fold = discrete_inclusion(s0_space(C2, bound=3), sig, (0, 0))
    with pytest.raises(SimplicialError, match="levelwise injection"):
        ses_from_cofibration(fold, burnside_mackey(C2))


@pytest.mark.parametrize("bounds", [(4, 6), (6, 4)], ids=["into-longer", "into-shorter"])
def test_a_cofibration_needs_spaces_of_one_bound(bounds):
    # a map of spaces of two bounds has levels up to the lower one only, so
    # the three tensors of its sequence would end at different levels
    s0, sig = s0_space(C2, bounds[0]), sphere_for_descriptors(C2, [sign_rep()], bounds[1])
    incl = discrete_inclusion(s0, sig, (0, 1))
    with pytest.raises(SimplicialError, match="one bound, not %d and %d" % bounds):
        ses_from_cofibration(incl, constant_mackey(C2, AbGroup.free(1)))


def constant_mod2(G):
    return constant_mackey(G, AbGroup.cyclic(2))


def test_ses_from_coefficients():
    from eqmack.mackey import fixed_point_morphism

    G = C2
    M = constant_mackey(G, AbGroup.free(1))
    P = constant_mod2(G)
    recs = subgroup_classes(G)
    phi = MackeyMorphism(
        M, M, {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),)) for r in recs}
    ).check()
    theta = AbHom(AbGroup.free(1), AbGroup.cyclic(2), ((1,),))
    psi = fixed_point_morphism(M, P, theta).check()
    X = sign_circle(G, (0,), bound=3)
    ses = ses_from_coefficients(phi, psi, X)
    assert exact_levels(ses, range(3))


def test_coefficient_pairs_are_checked_class_by_class():
    from eqmack.mackey import fixed_point_morphism

    M, P = constant_mackey(C2, AbGroup.free(1)), constant_mod2(C2)
    recs = subgroup_classes(C2)
    X = sphere_for_descriptors(C2, [sign_rep()], 3)

    def times(k):
        return MackeyMorphism(
            M, M, {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((k,),)) for r in recs}
        )

    mod2 = fixed_point_morphism(M, P, AbHom(AbGroup.free(1), AbGroup.cyclic(2), ((1,),)))
    ident = MackeyMorphism(P, P, {r.class_id: AbHom.identity(P.orbit_value(r)) for r in recs})
    # Z -2-> Z then the identity of Z/2: the pair does not meet at one functor
    with pytest.raises(TensorError, match="target of phi is not the source of psi"):
        ses_from_coefficients(times(2), ident, X)
    with pytest.raises(TensorError, match="at class 0: composite is not zero"):
        ses_from_coefficients(times(1), mod2, X)
    with pytest.raises(TensorError, match="not exact at class 0"):
        ses_from_coefficients(times(4), mod2, X)


def test_ses_from_coefficients_split():
    from eqmack.mackey import direct_sum_mackey

    G = C2
    M = constant_mackey(G, AbGroup.free(1))
    N = burnside_mackey(G)
    total, incls, projs = direct_sum_mackey([M, N])
    X = s0_space(G, bound=2)
    ses = ses_from_coefficients(incls[0], projs[1], X)
    assert exact_levels(ses, range(2))


@pytest.mark.parametrize("reduced", [False, True])
def test_level_set_gmap_matches_the_index_formulas(reduced):
    X = sphere_for_descriptors(C2, [sign_rep(), trivial_rep(1)], 2)
    T = TensorMackey(X, constant_mackey(C2, AbGroup.free(1)), reduced=reduced)
    suite = gset_suite(C2)

    def expected(src, tgt, xtable, f, xbase):
        """The table of (x, s) -> (xtable[x], f(s)) as written out by hand
        before LevelSet.gmap."""
        if not reduced:
            return tuple(xtable[x] * f.tgt.size + f.values[s] for (x, s) in src.pairs)
        tgt_index = {p: i for i, p in enumerate(tgt.pairs) if p is not None}
        return (0,) + tuple(
            0 if xtable[x] == xbase else tgt_index[(xtable[x], f.values[s])]
            for (x, s) in src.pairs[1:]
        )

    for n in range(1, X.bound + 1):
        for i in range(n + 1):
            table = X.faces[n][i].values
            for S in suite:
                src, tgt = T.level_set(n, S), T.level_set(n - 1, S)
                f = src.gmap(tgt, lambda x, s: (table[x], s))
                assert f.values == expected(src, tgt, table, GMap.identity(S), X.base(n - 1))
    for n in range(X.bound + 1):
        ident = tuple(range(X.levels[n].size))
        for S, U in itertools.product(suite, repeat=2):
            for f in enumerate_gmaps(S, U):
                src, tgt = T.level_set(n, S), T.level_set(n, U)
                g = src.gmap(tgt, lambda x, s: (x, f.values[s]))
                assert g.values == expected(src, tgt, ident, f, X.base(n))
    # a point whose image is missing from the target, and not crushed, raises
    src = T.level_set(1, suite[0])
    with pytest.raises(KeyError):
        src.gmap(src, lambda x, s: (x, s + suite[0].size))


@pytest.mark.parametrize("rec", subgroup_classes(C2), ids=lambda r: "order%d" % r.order)
def test_space_hom_from_reduced_into_unreduced_is_rejected(rec):
    X = sphere_for_descriptors(C2, [sign_rep()], 2)
    Z = constant_mackey(C2, AbGroup.free(1))
    S = std_orbit(C2, rec)
    ident = tuple(range(X.levels[0].size))
    with pytest.raises(TensorError):
        space_hom(reduced_tensor(X, Z), tensor(X, Z), ident, 0, S)
    # the other three directions are homs between the level-0 groups
    pairs = [(tensor, tensor), (tensor, reduced_tensor), (reduced_tensor, reduced_tensor)]
    for src, tgt in ((a(X, Z), b(X, Z)) for a, b in pairs):
        h = space_hom(src, tgt, ident, 0, S)
        assert (h.src, h.tgt) == (src.group_at(0, S), tgt.group_at(0, S))


@pytest.mark.parametrize("reduced", [False, True], ids=["unreduced", "reduced"])
def test_reduced_and_unreduced_share_the_functor_caches(reduced):
    X = sphere_for_descriptors(C2, [sign_rep()], 2)
    M = burnside_mackey(C2)
    T = TensorMackey(X, M, reduced=reduced)
    for S in gset_suite(C2):
        assert M.evaluate(S) is M.evaluate(S, None)
        for n in range(X.bound + 1):
            ls = T.level_set(n, S)
            assert ls.base == (0 if reduced else None)
            assert T.value(n, S) is M.evaluate(ls.gset, ls.base)
            if reduced:
                assert based_value(M, ls.gset, 0) is T.value(n, S)
    # the level map of a face, based at the sinks 0 of reduced levels
    S = gset_suite(C2)[0]
    table = X.faces[1][0].values
    src, tgt = T.level_set(1, S), T.level_set(0, S)
    f = src.gmap(tgt, lambda x, s: (table[x], s))
    assert T.face(1, 0, S) is M.covariant(f, src.base, tgt.base)
    if reduced:
        assert based_covariant(M, f, 0, 0) is M.covariant(f, 0, 0)
        assert based_contravariant(M, f, 0, 0) is M.contravariant(f, 0, 0)
        assert M.covariant(f, 0, 0) is not M.covariant(f)
        for based in (based_covariant, based_contravariant):
            with pytest.raises(MackeyError, match="not based"):
                based(M, f, 0, 1)
