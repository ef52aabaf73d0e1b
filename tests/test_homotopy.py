"""Hand-checked values of the homotopy layer.

Pairs of values are at G/e and G/G.  For C2 with constant Z the reduced
homology of S^sigma is that of the cofibre C2_+ -> S^0, and S^{2 sigma} has
its top class fixed; for S3 with Burnside coefficients H~_1(S^1) is the
Burnside functor itself, of ranks 1, 2, 2 and 4 at the four orbit classes.

Homotopy classes [S^V, HM]^G on C2 are M(G/G) for V = 0 and the kernel of
the restriction M(G/G) -> M(G/e) for V = sigma.  Equivariant maps into a
W-module A from S^0 or S^sigma have pi_0 = A^W and pi_1 = 0.
"""

import pytest

from eqmack.abelian import AbGroup, AbHom
from eqmack.groups import FiniteGroup, subgroup_classes
from eqmack.homotopy import (
    EquivariantMappingComplex,
    HomotopyError,
    MappingComplex,
    based_orbit_space,
    bredon_groups,
    bredon_homology,
    coefficient_les,
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
    verify_axioms,
)
from eqmack.simplicial import (
    discrete_inclusion,
    s0_space,
    sign_rep,
    smash,
    sphere_for_descriptors,
    trivial_rep,
)
from eqmack.tensor import (
    ModuleTensor,
    PsiMap,
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
