"""Hand-checked values of the homotopy layer.

Pairs of values are at G/e and G/G.  For C2 with constant Z the reduced
homology of S^sigma is that of the cofibre C2_+ -> S^0, and S^{2 sigma} has
its top class fixed; for S3 with Burnside coefficients H~_1(S^1) is the
Burnside functor itself, of ranks 1, 2, 2 and 4 at the four orbit classes.

Homotopy classes [S^V, HM]^G on C2 are M(G/G) for V = 0 and the kernel of
the restriction M(G/G) -> M(G/e) for V = sigma.  Equivariant maps into a
W-module A from S^0 or S^sigma have pi_0 = A^W and pi_1 = 0.
"""

import hashlib

import pytest

from eqmack.abelian import AbGroup, AbHom, direct_sum_data
from eqmack.groups import FiniteGroup, subgroup_classes
from eqmack.gsets import std_orbit
from eqmack.homotopy import (
    EquivariantMappingComplex,
    HomotopyError,
    MackeyChainComplex,
    MappingComplex,
    based_orbit_space,
    bredon_groups,
    bredon_homology,
    coefficient_chain_maps,
    coefficient_les,
    cofibration_chain_maps,
    cofibration_les,
    homotopy_classes,
    omega_spectrum_check,
    ro_graded_table,
)
from eqmack.mackey import (
    MackeyMorphism,
    WeylModule,
    burnside_mackey,
    constant_mackey,
    fixed_point_morphism,
    orbit_maps_between,
    verify_axioms,
)
from eqmack.simplicial import (
    discrete_inclusion,
    rotation_rep,
    s0_space,
    sign_rep,
    smash,
    sphere_for_descriptors,
    trivial_rep,
)
from eqmack.tensor import (
    ModuleTensor,
    PsiMap,
    TensorMackey,
    reduced_tensor,
    ses_from_coefficients,
    ses_from_cofibration,
)

Z = AbGroup.free(1)
Z2 = AbGroup.cyclic(2)
C2 = FiniteGroup.cyclic(2)
S3 = FiniteGroup.symmetric(3)


def described(table):
    return {n: [row[c].describe() for c in sorted(row)] for n, row in table.items()}


def test_c2_sign_sphere_with_constant_z():
    X = sphere_for_descriptors(C2, [sign_rep()], 3)
    table = bredon_groups(X, constant_mackey(C2, Z), [0, 1])
    assert described(table) == {0: ["0", "Z/2"], 1: ["Z", "0"]}


def test_c2_double_sign_sphere_top_class_is_fixed():
    X = sphere_for_descriptors(C2, [sign_rep(), sign_rep()], 4)
    table = bredon_groups(X, constant_mackey(C2, Z), [0, 2])
    assert described(table) == {0: ["0", "Z/2"], 2: ["Z", "Z"]}


def test_s3_circle_with_burnside_recovers_burnside_ranks():
    X = sphere_for_descriptors(S3, [trivial_rep(1)], 3)
    row = bredon_groups(X, burnside_mackey(S3), [1])[1]
    assert [row[c].invariants() for c in sorted(row)] == [
        (1, ()),
        (2, ()),
        (2, ()),
        (4, ()),
    ]


def test_c2_triple_sign_sphere_builds_no_full_level(monkeypatch):
    # G/e: Z in degree 3; G/G: Z/2 in degrees 0 and 2 (the transfer is x2
    # into the fixed 0-cell; sigma^3 reverses orientation, so the top class
    # is not fixed).  Levels 4-6 have no nondegenerate simplex.
    X = sphere_for_descriptors(C2, [sign_rep()] * 3, 6)
    M = constant_mackey(C2, Z)

    def refuse(*args):
        raise AssertionError("a full tensor level was built")

    monkeypatch.setattr(TensorMackey, "op", refuse)
    monkeypatch.setattr(TensorMackey, "value", refuse)
    table = bredon_groups(X, M, range(5))
    assert described(table) == {
        0: ["0", "Z/2"],
        1: ["0", "0"],
        2: ["0", "Z/2"],
        3: ["Z", "0"],
        4: ["0", "0"],
    }
    chains = MackeyChainComplex(reduced_tensor(X, M))
    for rec in subgroup_classes(C2):
        groups = chains.complex(rec).groups
        assert [groups[n].ngens for n in (4, 5, 6)] == [0, 0, 0]


def test_bredon_homology_is_a_mackey_functor():
    X = sphere_for_descriptors(C2, [sign_rep()], 3)
    H0 = bredon_homology(X, constant_mackey(C2, Z), 0)
    assert [H0.orbit_value(r).describe() for r in subgroup_classes(C2)] == ["0", "Z/2"]
    assert verify_axioms(H0).passed


def test_ro_graded_table_row():
    table = ro_graded_table(s0_space(C2, 3), constant_mackey(C2, Z), [(1, [sign_rep()])])
    assert table.to_json() == [
        {"degree": 1, "twist": ["sign"], "groups": {"0": "Z", "1": "0"}}
    ]


@pytest.mark.parametrize("coeffs", ["burnside", "Z"])
def test_cofibration_les_is_exact(coeffs):
    bound = 4
    M = burnside_mackey(C2) if coeffs == "burnside" else constant_mackey(C2, Z)
    sig = sphere_for_descriptors(C2, [sign_rep()], bound)
    ses = ses_from_cofibration(discrete_inclusion(s0_space(C2, bound), sig, (0, 1)), M)
    for rec in subgroup_classes(C2):
        nodes, flags, _ = cofibration_les(ses, rec, bound - 2)
        assert len(flags) == len(nodes) - 2
        assert all(flags)


def test_coefficient_les_of_times_two_is_exact():
    bound = 4
    M = constant_mackey(C2, Z)
    P = constant_mackey(C2, Z2)
    recs = subgroup_classes(C2)
    twice = {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),)) for r in recs}
    phi = MackeyMorphism(M, M, twice).check()
    psi = fixed_point_morphism(M, P, AbHom(Z, Z2, ((1,),))).check()
    X = sphere_for_descriptors(C2, [sign_rep()], bound)
    ses = ses_from_coefficients(phi, psi, X)
    at_e, at_g = (coefficient_les(ses, rec, bound - 2) for rec in recs)
    for nodes, flags, _ in (at_e, at_g):
        assert len(flags) == len(nodes) - 2
        assert all(flags)
    # at G/e, S^sigma is the circle: H_1 runs Z -2-> Z -> Z/2
    assert [g.describe() for _, g in at_e[0][3:6]] == ["Z", "Z", "Z/2"]


def test_omega_check_in_degree_zero():
    report = omega_spectrum_check(s0_space(C2, 2), constant_mackey(C2, Z), sign_rep(), 0)
    assert report.passed
    assert [e[2:4] for e in report.entries] == [("Z", "Z"), ("Z", "Z")]


def test_c3_rotation_omega_check_passes_at_its_valid_bound():
    # pi_0 is Z at G/e and the Burnside ring A(C3) = Z^2 at G/G; with dense
    # constraint matrices this case ran out of 3 GB
    C3 = FiniteGroup.cyclic(3)
    report = omega_spectrum_check(s0_space(C3, 3), burnside_mackey(C3), rotation_rep(3, 1), 0)
    assert report.passed
    assert [e[2:4] for e in report.entries] == [("Z", "Z"), ("Z^2", "Z^2")]


def test_omega_check_rejects_a_source_too_short_before_building(monkeypatch):
    # pi_2 reads Delta[3], which a bound-2 source lacks; nothing is built
    def unreachable(*args):
        raise AssertionError("PsiMap built before the bound check")

    monkeypatch.setattr("eqmack.homotopy.PsiMap", unreachable)
    with pytest.raises(HomotopyError, match="source bound 2"):
        omega_spectrum_check(s0_space(C2, 2), constant_mackey(C2, Z), sign_rep(), 2)


def test_omega_check_rejects_a_degree_bound_without_the_next_differential():
    # pi_1 needs d_2; with degree_bound 1 it would read as the cycles Z^3, Z^2
    with pytest.raises(HomotopyError):
        omega_spectrum_check(
            s0_space(C2, 2), constant_mackey(C2, Z), sign_rep(), 1, degree_bound=1
        )


@pytest.mark.parametrize(
    "coeffs, expected",
    [("burnside", ["Z^2", "Z"]), ("Z", ["Z", "0"])],
)
def test_homotopy_classes_from_spheres(coeffs, expected):
    M = burnside_mackey(C2) if coeffs == "burnside" else constant_mackey(C2, Z)
    X = s0_space(C2, 3)
    got = [homotopy_classes(V, X, M, degree_bound=2).describe() for V in ([], [sign_rep()])]
    assert got == expected


def module(name):
    if name == "Z":
        return WeylModule.trivial(C2, Z)
    if name == "Z/2":
        return WeylModule.trivial(C2, Z2)
    return WeylModule.regular(C2)


@pytest.mark.parametrize("sphere", ["S^0", "S^sigma"])
@pytest.mark.parametrize(
    "coeffs, expected",
    [("Z", ["Z", "0"]), ("Z[C2]", ["Z", "0"]), ("Z/2", ["Z/2", "0"])],
)
def test_equivariant_mapping_complex_from_spheres(sphere, coeffs, expected):
    K = s0_space(C2, 3) if sphere == "S^0" else sphere_for_descriptors(C2, [sign_rep()], 3)
    mc = EquivariantMappingComplex(K, ModuleTensor(K, module(coeffs)), 2)
    assert [mc.homotopy_group(n).describe() for n in (0, 1)] == expected
    with pytest.raises(HomotopyError):
        mc.group(3)


def test_mapping_complex_degree_bound_is_checked():
    K = sphere_for_descriptors(C2, [sign_rep()], 3)
    mc = MappingComplex(K, reduced_tensor(s0_space(C2, 3), constant_mackey(C2, Z)), 2)
    with pytest.raises(HomotopyError):
        mc.group(3)
    with pytest.raises(HomotopyError):
        mc.homotopy_group(2)
    with pytest.raises(HomotopyError):
        mc.differential(0)  # d_0 would target a degree -1
    with pytest.raises(HomotopyError):
        mc.differential(5)
    with pytest.raises(HomotopyError):
        mc.element_from_blocks(3, {})
    assert sorted(mc._degree) == [0]  # only d_0's valid source was built


@pytest.mark.parametrize("coeffs", ["burnside", "Z"])
def test_truncated_pi_n_matches_the_full_complex(coeffs):
    # the mapping complexes of the omega check of S^0 against sign, bound 2
    M = burnside_mackey(C2) if coeffs == "burnside" else constant_mackey(C2, Z)
    psi = PsiMap(sign_rep(), s0_space(C2, 2), M)
    for krec in subgroup_classes(C2):
        kspace = smash(psi.SW, based_orbit_space(C2, krec, psi.SW.bound))
        truncated = MappingComplex(kspace, psi.T_tgt, 3)
        full = MappingComplex(kspace, psi.T_tgt, 3)
        for n in (0, 1):
            got, want = truncated.homotopy_group(n), full.chain_complex().homology(n)
            assert (got.ngens, got.rels) == (want.ngens, want.rels)


def omega_complexes(M):
    """The mapping complexes of the omega check of S^0 against sign, bound 2,
    one per orbit class."""
    psi = PsiMap(sign_rep(), s0_space(C2, 2), M)
    for krec in subgroup_classes(C2):
        kspace = smash(psi.SW, based_orbit_space(C2, krec, psi.SW.bound))
        yield MappingComplex(kspace, psi.T_tgt, 3)


# sha256 of the repr of the degree groups, their inclusions into the unknowns
# and the differentials below, recorded when every mapping-complex matrix was
# still assembled and reduced dense
OMEGA_COMPLEXES_SHA256 = "391c80ad1f7fdfcd082d541e794b01b022683598bc8e544d1bd8817709784630"


def test_omega_mapping_complexes_are_bit_identical():
    parts = []
    for M in (burnside_mackey(C2), constant_mackey(C2, Z), constant_mackey(C2, Z2)):
        for mc in omega_complexes(M):
            for n in range(3):
                data = mc.degree_data(n)
                parts.append((n, data["group"].ngens, data["group"].rels, data["incl"].mat))
                if n:
                    parts.append(mc.differential(n).mat)
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == OMEGA_COMPLEXES_SHA256


@pytest.mark.parametrize("coeffs", ["burnside", "Z"])
def test_omega_pi_n_forms_no_dense_matrix(coeffs, monkeypatch):
    def coefficients():
        return burnside_mackey(C2) if coeffs == "burnside" else constant_mackey(C2, Z)

    def groups():
        return [
            (g.ngens, g.rels)
            for mc in omega_complexes(coefficients())
            for g in (mc.homotopy_group(0), mc.homotopy_group(1))
        ]

    want = groups()
    dense = AbHom.mat

    def guarded(h):
        if h._mat is None:
            raise AssertionError("a hom made from sparse columns was made dense")
        return dense.fget(h)

    monkeypatch.setattr(AbHom, "mat", property(guarded))
    assert groups() == want


def _maps_into_trivial_sphere(d, kb, xb, degree_bound=4):
    """Maps S^0 -> S^d (x~) Z on C2, with source bound kb and target bound xb."""
    T = reduced_tensor(sphere_for_descriptors(C2, [trivial_rep(d)], xb), constant_mackey(C2, Z))
    return MappingComplex(s0_space(C2, kb), T, degree_bound)


def test_pi_n_builds_nothing_above_degree_n_plus_one():
    mc = _maps_into_trivial_sphere(1, 3, 3, degree_bound=3)
    mc.homotopy_group(0)
    assert sorted(mc._degree) == [0, 1]


@pytest.mark.parametrize("d, kb, xb", [(1, 2, 2), (1, 3, 3), (1, 2, 4), (2, 3, 4), (2, 3, 3)])
def test_mapping_complex_reads_pi_d_of_a_trivial_sphere(d, kb, xb):
    assert _maps_into_trivial_sphere(d, kb, xb).homotopy_group(d).describe() == "Z"


@pytest.mark.parametrize("d, kb, xb", [(1, 1, 1), (2, 2, 4)])
def test_homotopy_group_past_the_source_bound_is_rejected(d, kb, xb):
    # pi_d is read through Delta[d+1], whose top simplex a bound-d source lacks
    with pytest.raises(HomotopyError, match="source bound %d" % kb):
        _maps_into_trivial_sphere(d, kb, xb).homotopy_group(d)


@pytest.mark.parametrize("xb", [2, 3])
def test_source_bound_past_the_target_bound_is_rejected(xb):
    # the degrees of such a complex would read target levels past its bound
    with pytest.raises(HomotopyError, match="target's bound %d" % xb):
        _maps_into_trivial_sphere(1, 4, xb)


def test_element_from_blocks_accepts_natural_and_rejects_other_families():
    K = s0_space(C2, 3)
    emc = EquivariantMappingComplex(K, ModuleTensor(K, module("Z")), 2)
    # chart 0, level 0, the non-base vertex: the generator of pi_0 = Z
    unit = emc.element_from_blocks(0, {(0, 0, 1): (1,)})
    assert emc.chain_complex().homology_class(0, unit) == (1,)
    # K = S^sigma has the fixed points S^0: a value at G/G whose restriction
    # to G/e is not matched there is simplicial but not natural
    K = sphere_for_descriptors(C2, [sign_rep()], 3)
    mc = MappingComplex(K, reduced_tensor(s0_space(C2, 3), constant_mackey(C2, Z)), 2)
    assert (1, 0, 1) in mc.degree_data(0)["blocks"]
    with pytest.raises(HomotopyError):
        mc.element_from_blocks(0, {(1, 0, 1): (1,)})


# -- normalized chains against the full levels ------------------------------------


def nondegenerate_part(T, n, S):
    """Reference: the group carried by the orbits of nondegenerate simplices
    in the full level-n value, and the positions of its generators there."""
    ev, ls = T.value(n, S), T.level_set(n, S)
    flags = T.X.degenerate_flags(n)
    kept = [i for i, o in enumerate(ev.orbits) if not flags[ls.pairs[o.basepoint][0]]]
    group, _ = direct_sum_data(ev.summands[i] for i in kept)
    positions = [ev.offsets[i] + k for i in kept for k in range(ev.summands[i].ngens)]
    return group, positions


def restricted(h, src, tgt):
    """Reference: the rows and columns of a full-level hom at the
    nondegenerate generators of its source and target."""
    (src_group, cols), (tgt_group, rows) = src, tgt
    return AbHom(src_group, tgt_group, tuple(tuple(h.mat[r][c] for c in cols) for r in rows))


def full_differential(T, n, S):
    """Reference: sum (-1)^i d_i over the full levels."""
    d = AbHom.zero(T.group_at(n, S), T.group_at(n - 1, S))
    for i in range(n + 1):
        h = T.face(n, i, S)
        d = d + (h if i % 2 == 0 else h.scale(-1))
    return d


def chain_spaces():
    a3 = next(r for r in subgroup_classes(S3) if r.order == 3)
    C3 = FiniteGroup.cyclic(3)
    two_sigma = sphere_for_descriptors(C2, [sign_rep()] * 2, 4)
    return {
        "C2 S^2sigma, Z": (two_sigma, constant_mackey(C2, Z)),
        "C2 S^2sigma, Z/2": (two_sigma, constant_mackey(C2, Z2)),
        "C3 S^rot31, A": (
            sphere_for_descriptors(C3, [rotation_rep(3, 1)], 3),
            burnside_mackey(C3),
        ),
        "S3 S^sigma+1, A": (
            sphere_for_descriptors(S3, [sign_rep(a3.elements), trivial_rep(1)], 3),
            burnside_mackey(S3),
        ),
    }


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
@pytest.mark.parametrize("case", list(chain_spaces()))
def test_normalized_chains_equal_the_restricted_full_levels(case, reduced):
    X, M = chain_spaces()[case]
    G = M.group
    T = TensorMackey(X, M, reduced=reduced)
    chains = MackeyChainComplex(T)
    recs = subgroup_classes(G)
    for rec in recs:
        S = std_orbit(G, rec)
        part = [nondegenerate_part(T, n, S) for n in range(X.bound + 1)]
        c = chains.complex(rec)
        assert [c.groups[n] for n in range(X.bound + 1)] == [g for g, _ in part]
        for n in range(1, X.bound + 1):
            ref = restricted(full_differential(T, n, S), part[n], part[n - 1])
            assert c.diffs[n] == ref
    for j in recs:
        for h in recs:
            for om in orbit_maps_between(j, h):
                f = om.gmap()
                tr = chains.transition_chain_map(om, "tr")
                res = chains.transition_chain_map(om, "res")
                for n in range(X.bound + 1):
                    src, tgt = nondegenerate_part(T, n, f.src), nondegenerate_part(T, n, f.tgt)
                    assert tr.comps[n] == restricted(T.covariant_S(n, f), src, tgt)
                    assert res.comps[n] == restricted(T.contravariant_S(n, f), tgt, src)


def test_cofibration_chain_maps_equal_the_restricted_full_levels():
    bound = 4
    sig = sphere_for_descriptors(C2, [sign_rep()], bound)
    incl = discrete_inclusion(s0_space(C2, bound), sig, (0, 1))
    for M in (burnside_mackey(C2), constant_mackey(C2, Z)):
        ses = ses_from_cofibration(incl, M)
        for rec in subgroup_classes(C2):
            S = std_orbit(C2, rec)
            imap, qmap = cofibration_chain_maps(ses, rec)
            for n in range(bound + 1):
                sub, tot, quo = (
                    nondegenerate_part(T, n, S) for T in (ses.sub, ses.total, ses.quot)
                )
                assert imap.comps[n] == restricted(ses.i_star(n, S), sub, tot)
                assert qmap.comps[n] == restricted(ses.q_star(n, S), tot, quo)


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "unreduced"])
def test_coefficient_chain_maps_equal_the_restricted_full_levels(reduced):
    bound = 4
    M = constant_mackey(C2, Z)
    P = constant_mackey(C2, Z2)
    recs = subgroup_classes(C2)
    twice = {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),)) for r in recs}
    phi = MackeyMorphism(M, M, twice).check()
    psi = fixed_point_morphism(M, P, AbHom(Z, Z2, ((1,),))).check()
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, bound)
    ses = ses_from_coefficients(phi, psi, X, reduced=reduced)
    for rec in recs:
        S = std_orbit(C2, rec)
        fmap, gmap = coefficient_chain_maps(ses, rec)
        for n in range(bound + 1):
            vm, vn, vp = (nondegenerate_part(T, n, S) for T in (ses.T_m, ses.T_n, ses.T_p))
            assert fmap.comps[n] == restricted(ses.phi_at(n, S), vm, vn)
            assert gmap.comps[n] == restricted(ses.psi_at(n, S), vn, vp)
