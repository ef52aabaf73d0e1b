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
import json
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from eqmack.abelian import AbGroup, AbHom, direct_sum_data
from eqmack.groups import FiniteGroup, classify_subgroup, subgroup_classes
from eqmack.gsets import GMap, GSet, std_orbit
from eqmack.homotopy import (
    EquivariantMappingComplex,
    HomotopyError,
    MackeyChainComplex,
    MappingComplex,
    _boundary,
    _morse,
    _phi_induced,
    based_orbit_space,
    bredon_groups,
    bredon_homology,
    coefficient_les,
    cofibration_les,
    exact_chain_maps,
    homotopy_classes,
    normalized_chains,
    omega_spectrum_check,
    ro_graded_table,
)
from eqmack.mackey import (
    MackeyMorphism,
    WeylModule,
    _orbit_map_to,
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
    CofibrationSES,
    PsiMap,
    TensorMackey,
    _build_level,
    product_level,
    reduced_tensor,
    rho_iso,
    ses_from_coefficients,
    ses_from_cofibration,
    smash_level,
)

from delta_reference import (
    DeltaEquivariantMappingComplex,
    DeltaMappingComplex,
    delta_omega_entries,
    delta_phi_induced,
)
from module_chains import chain_action, chain_complex

Z = AbGroup.free(1)
Z2 = AbGroup.cyclic(2)
C2 = FiniteGroup.cyclic(2)
S3 = FiniteGroup.symmetric(3)
C4 = FiniteGroup.cyclic(4)
SIGN_A3 = sign_rep(next(r for r in subgroup_classes(S3) if r.order == 3).elements)
SIGN_C4 = sign_rep(next(r for r in subgroup_classes(C4) if r.order == 2).elements)


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
    # the label is padded to 18 columns, then one cell per orbit class
    assert table.to_text() == "(1; sign)          G/0: Z  G/1: 0"


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


def test_ro_graded_table_builds_each_twist_once(monkeypatch):
    X, M = s0_space(C2, 3), constant_mackey(C2, Z)
    rows = [(1, [sign_rep()]), (0, []), (2, [sign_rep()] * 2), (0, [sign_rep()]), (1, [])]
    want = [
        (p, tuple(d), bredon_groups(smash(sphere_for_descriptors(C2, d, 3), X), M, [p])[p])
        for p, d in rows
    ]
    built = []

    def counted(A, B):
        if B is X:  # S^W smash X, the space of one twist
            built.append(A)
        return smash(A, B)

    monkeypatch.setattr("eqmack.homotopy.smash", counted)
    table = ro_graded_table(X, M, rows)
    twists = ([sign_rep()], [], [sign_rep()] * 2)
    assert built == [sphere_for_descriptors(C2, list(d), 3) for d in twists]
    assert table.rows == tuple(
        (p, d, {cid: g.describe() for cid, g in groups.items()}) for p, d, groups in want
    )
    with pytest.raises(HomotopyError, match="degree 3 past bound 3"):
        ro_graded_table(X, M, [(0, []), (3, [sign_rep()])])


def test_omega_check_in_degree_zero():
    report = omega_spectrum_check(s0_space(C2, 2), constant_mackey(C2, Z), sign_rep(), 0)
    assert report.passed
    assert [e[2:4] for e in report.entries] == [("Z", "Z"), ("Z", "Z")]


def test_omega_check_summary_text():
    # Burnside coefficients: pi_0 is A(e) = Z at G/e and A(C2) = Z^2 at G/G,
    # pi_1 is 0 at both, and every comparison map is an isomorphism
    report = omega_spectrum_check(s0_space(C2, 2), burnside_mackey(C2), sign_rep(), 1)
    assert report.summary() == "\n".join(
        [
            "omega-check: PASS",
            "  ok   class 0, pi_0: Z vs Z",
            "  ok   class 0, pi_1: 0 vs 0",
            "  ok   class 1, pi_0: Z^2 vs Z^2",
            "  ok   class 1, pi_1: 0 vs 0",
        ]
    )


def test_c3_rotation_omega_check_passes_at_its_valid_bound():
    # pi_0 is Z at G/e and the Burnside ring A(C3) = Z^2 at G/G; with dense
    # constraint matrices this case ran out of 3 GB
    C3 = FiniteGroup.cyclic(3)
    report = omega_spectrum_check(s0_space(C3, 3), burnside_mackey(C3), rotation_rep(3, 1), 0)
    assert report.passed
    assert [e[2:4] for e in report.entries] == [("Z", "Z"), ("Z^2", "Z^2")]


@pytest.mark.parametrize(
    "G, desc, bound, n_max, burnside_ranks",
    [
        (S3, SIGN_A3, 2, 1, ["Z", "Z^2", "Z^2", "Z^4"]),
        (FiniteGroup.cyclic(4), rotation_rep(4, 1), 3, 0, ["Z", "Z^2", "Z^3"]),
    ],
    ids=["S3-sign", "C4-rot41"],
)
def test_burnside_omega_checks_on_weyl_automorphisms(G, desc, bound, n_max, burnside_ranks):
    # S3 has a non-abelian orbit category and C4 has Weyl automorphisms at
    # G/e and G/C2; pi_0 at G/H is the Burnside ring A(H) and pi_1 is 0
    report = omega_spectrum_check(s0_space(G, bound), burnside_mackey(G), desc, n_max)
    assert report.passed
    assert [e[3] for e in report.entries if e[1] == 0] == burnside_ranks
    assert all(e[2:4] == ("0", "0") for e in report.entries if e[1] == 1)


def test_omega_check_rejects_a_source_too_short_before_building(monkeypatch):
    # the left side's pi_2 needs d_3, which chains cut off at 2 lack; S^3
    # cut at bound 2 would read pi_0 as "Z vs Z^25"; n_max = -1 would pass
    # with no entries.  Nothing is built.
    def unreachable(*args):
        raise AssertionError("PsiMap built before the bound check")

    monkeypatch.setattr("eqmack.homotopy.PsiMap", unreachable)
    X, M = s0_space(C2, 2), constant_mackey(C2, Z)
    for desc, n_max, match in [
        (sign_rep(), 2, "degree 2 past bound 2"),
        (trivial_rep(3), 1, "dimension 3 is cut short at bound 2"),
        (sign_rep(), -1, "degree -1 is negative"),
    ]:
        with pytest.raises(HomotopyError, match=match):
            omega_spectrum_check(X, M, desc, n_max)


@pytest.mark.parametrize(
    "coeffs, expected",
    [("burnside", ["Z^2", "Z"]), ("Z", ["Z", "0"])],
)
def test_homotopy_classes_from_spheres(coeffs, expected):
    M = burnside_mackey(C2) if coeffs == "burnside" else constant_mackey(C2, Z)
    X = s0_space(C2, 3)
    got = [homotopy_classes(V, X, M).describe() for V in ([], [sign_rep()])]
    assert got == expected


def test_homotopy_classes_build_the_sphere_at_the_target_bound():
    # [S^{2 sigma}, S^2 (x~) Z]^C2 = H~^2_G(S^{2 sigma}; Z) = Z by hand: the
    # top class of S^{2 sigma} is fixed.  A sphere cut below its dimension
    # would read 0.
    X = sphere_for_descriptors(C2, [trivial_rep(2)], 4)
    assert homotopy_classes([sign_rep()] * 2, X, constant_mackey(C2, Z)).describe() == "Z"


def sign_sphere_classes_by_hand(k, n):
    """[S^{k sigma}, S^n (x~) Z]^C2 for constant Z: the reduced cohomology
    H~^n of the orbit space S^{k sigma}/C2, which is S^0 for k = 0 and the
    suspension of RP^{k-1} for k >= 1; RP^1 has H~^1 = Z, RP^2 has
    H~^2 = Z/2 and RP^3 has H~^2 = Z/2, and every other group with k <= 3,
    or with k = 4 and n <= 3, is 0."""
    return {(0, 0): "Z", (2, 2): "Z", (3, 3): "Z/2", (4, 3): "Z/2"}.get((k, n), "0")


@pytest.mark.parametrize(
    "k, n, bound",
    [
        (k, n, max(k, n, 1) + extra)
        for k in range(4)
        for n in range(k + 2)
        for extra in (0, 1)
    ]
    + [(4, n, 4) for n in range(4)],
)
def test_homotopy_classes_of_sign_spheres_match_the_hand_values(k, n, bound):
    X = sphere_for_descriptors(C2, [trivial_rep(n)], bound)
    got = homotopy_classes([sign_rep()] * k, X, constant_mackey(C2, Z))
    assert got.describe() == sign_sphere_classes_by_hand(k, n)


@pytest.mark.parametrize("k, n, bound", [(2, 1, 1), (3, 1, 1), (3, 2, 2)])
def test_homotopy_classes_reject_a_sphere_cut_below_its_dimension(k, n, bound):
    # S^{k sigma} built at bound < k reads Z^3, Z^12 and Z^24 here, not 0
    X = sphere_for_descriptors(C2, [trivial_rep(n)], bound)
    with pytest.raises(HomotopyError, match="dimension %d" % k):
        homotopy_classes([sign_rep()] * k, X, constant_mackey(C2, Z))


def test_representation_dimensions():
    dims = [d.dim for d in (sign_rep(), trivial_rep(0), trivial_rep(3), rotation_rep(3, 1))]
    assert dims == [1, 0, 3, 2]


def test_homotopy_classes_of_a_large_zero_presentation_use_a_small_snf(monkeypatch):
    # [S^{3 sigma}, S^4 (x~) Z]^C2 is 0 by hand; H_0 of the mapping complex
    # is presented on the 1,033 cycles of D_0 with 2,055 boundaries as
    # relations, nearly all unit pivots
    from eqmack import intlinalg as la

    snf = la.snf

    def small_snf(a):
        if len(a) > 64 or (a and len(a[0]) > 64):
            raise AssertionError("snf of a %d x %d matrix" % (len(a), len(a[0])))
        return snf(a)

    monkeypatch.setattr(la, "snf", small_snf)
    X = sphere_for_descriptors(C2, [trivial_rep(4)], 5)
    got = homotopy_classes([sign_rep()] * 3, X, constant_mackey(C2, Z))
    assert got.describe() == "0"


def test_cofibration_les_forms_no_dense_matrix(monkeypatch):
    from eqmack import intlinalg as la

    def dense(cols, nrows):
        raise AssertionError("a dense matrix was formed")

    monkeypatch.setattr(la, "dense", dense)
    bound = 4
    sig = sphere_for_descriptors(C2, [sign_rep()], bound)
    incl = discrete_inclusion(s0_space(C2, bound), sig, (0, 1))
    ses = ses_from_cofibration(incl, constant_mackey(C2, Z2))
    for rec in subgroup_classes(C2):
        nodes, flags, _ = cofibration_les(ses, rec, bound - 2)
        assert len(flags) == len(nodes) - 2 and all(flags)


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
    mc = EquivariantMappingComplex(K, ModuleTensor(K, module(coeffs)))
    assert [mc.homotopy_group(n).describe() for n in (0, 1)] == expected
    # N_3 of the target is 0, so degree 3 has only zero blocks
    assert mc.group(3).describe() == "0"


@pytest.mark.parametrize("order", [3, 4])
def test_maps_into_a_coinduced_module_read_the_underlying_sphere(order):
    # Z[W] is coinduced, so Map_W(S^V, Z[W][S^V]) is Map(S^2, Z[S^2]) and
    # pi_n is H~_{2+n}(S^2): Z for n = 0 and 0 for n = 1
    W = FiniteGroup.cyclic(order)
    K = sphere_for_descriptors(W, [rotation_rep(order, 1)], 3)
    mc = EquivariantMappingComplex(K, ModuleTensor(K, WeylModule.regular(W)))
    assert [mc.homotopy_group(n).describe() for n in (0, 1)] == ["Z", "0"]


def test_mapping_complexes_reject_a_source_over_another_group():
    T = reduced_tensor(s0_space(C2, 2), constant_mackey(C2, Z))
    for order in (3, 4):
        with pytest.raises(HomotopyError, match="different groups"):
            MappingComplex(s0_space(FiniteGroup.cyclic(order), 2), T)
    K = s0_space(C2, 2)
    with pytest.raises(HomotopyError, match="different groups"):
        EquivariantMappingComplex(s0_space(FiniteGroup.cyclic(4), 2), ModuleTensor(K, module("Z")))


def test_equivariant_mapping_complexes_reject_an_unreduced_target():
    K = s0_space(C2, 2)
    with pytest.raises(HomotopyError, match="reduced"):
        EquivariantMappingComplex(K, ModuleTensor(K, module("Z"), reduced=False))


def test_mapping_complex_degrees_past_the_target_are_zero():
    K = sphere_for_descriptors(C2, [sign_rep()], 3)
    mc = MappingComplex(K, reduced_tensor(s0_space(C2, 3), constant_mackey(C2, Z)))
    with pytest.raises(HomotopyError):
        mc.differential(-1)  # d_-1 would target a degree -2
    assert sorted(mc._degree) == [-1]  # only d_-1's valid source was built
    # S^0 (x~) Z has chains in degree 0 only: degree 3 is 0, and pi_2 of maps
    # into the Eilenberg-Mac Lane space K(Z, 0) is 0
    assert mc.group(3).describe() == "0"
    assert mc.homotopy_group(2).describe() == "0"


def test_homotopy_group_of_a_negative_degree_is_rejected():
    # maps S^0 -> S^0 (x~) Z: pi_0 is [S^0, HZ]^G = Z(G/G) = Z, and the Hom
    # complex starts at the chain maps in degree 0, so pi_-1 has no answer
    mc = MappingComplex(s0_space(C2, 3), reduced_tensor(s0_space(C2, 3), constant_mackey(C2, Z)))
    assert mc.homotopy_group(0).describe() == "Z"
    with pytest.raises(HomotopyError, match="negative"):
        mc.homotopy_group(-1)


@pytest.mark.parametrize("coeffs", ["burnside", "Z"])
def test_truncated_pi_n_matches_the_full_complex(coeffs):
    # the mapping complexes of the omega check of S^0 against sign, bound 2
    M = burnside_mackey(C2) if coeffs == "burnside" else constant_mackey(C2, Z)
    psi = PsiMap([sign_rep()], s0_space(C2, 2), M)
    for krec in subgroup_classes(C2):
        kspace = smash(psi.SW, based_orbit_space(C2, krec, psi.SW.bound))
        truncated = MappingComplex(kspace, psi.T_tgt)
        full = MappingComplex(kspace, psi.T_tgt)
        for n in (0, 1):
            got, want = truncated.homotopy_group(n), full.chain_complex(3).homology(n)
            assert (got.ngens, got.rels) == (want.ngens, want.rels)


def omega_complexes(M, engine=MappingComplex, desc=sign_rep()):
    """The mapping complexes of the omega check of S^0 against desc (sign
    by default), bound 2, one per orbit class."""
    G = M.group
    psi = PsiMap([desc], s0_space(G, 2), M)
    for krec in subgroup_classes(G):
        kspace = smash(psi.SW, based_orbit_space(G, krec, psi.SW.bound))
        yield engine(kspace, psi.T_tgt)


def generators_by_orbit(K, value):
    """The generators of degree n of a Hom complex out of K by Yoneda, read
    off K's action alone: per G-orbit [y] of non-base nondegenerate
    k-simplices of K, the generators of value(k, stabilizer of y)."""
    counts = Counter()
    for k in range(K.bound + 1):
        level, seen = K.levels[k], {K.base(k)}
        for y in K.nondegenerate(k):
            if y not in seen:
                seen.update(level.orbit_of(y))
                counts[k, level.stabilizer(y)] += 1
    return lambda n: sum(c * value(k + n, stab) for (k, stab), c in counts.items())


def orbit_class_generators(T):
    """value(m, H) for a Hom complex into T: the generators of N_m T at G/H."""
    chains = MackeyChainComplex(T)

    def value(m, stab):
        groups = chains.complex(classify_subgroup(T.group, stab)[0]).groups
        return groups[m].ngens if m in groups else 0

    return value


def fixed_rank(mt):
    """value(m, W_y) for a W-equivariant Hom complex into mt: the rank of the
    W_y-fixed points of the free group N_m(mt), that of the norm map."""
    groups = chain_complex(mt).groups

    def value(m, stab):
        if m not in groups:
            return 0
        norm = AbHom.zero(groups[m], groups[m])
        for w in stab:
            norm = norm + chain_action(mt, m, w)
        return groups[m].ngens - norm.cokernel()[0].invariants()[0]

    return value


def sigma_into_two_sigma_mod_2():
    """The Hom complex of C2 maps S^sigma -> S^{2 sigma} (x~) Z/2, bound 3."""
    K = sphere_for_descriptors(C2, [sign_rep()], 3)
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, 3)
    return MappingComplex(K, reduced_tensor(X, constant_mackey(C2, Z2)))


def orbit_count_cases():
    for M in (burnside_mackey(C2), constant_mackey(C2, Z), constant_mackey(C2, Z2)):
        for mc in omega_complexes(M):
            yield mc, orbit_class_generators(mc.T)
    for mc in omega_complexes(burnside_mackey(S3), desc=SIGN_A3):
        yield mc, orbit_class_generators(mc.T)
    mc = sigma_into_two_sigma_mod_2()
    yield mc, orbit_class_generators(mc.T)
    K = sphere_for_descriptors(C2, [sign_rep()], 3)
    for coeffs in ("Z", "Z[C2]"):
        mt = ModuleTensor(K, module(coeffs))
        yield EquivariantMappingComplex(K, mt), fixed_rank(mt)


def test_degree_generators_are_counted_by_orbits():
    # one block per orbit representative, valued in N_{k+n} T at G/G_y, or
    # in the W_y-fixed points for a W-equivariant complex
    for mc, value in orbit_count_cases():
        count = generators_by_orbit(mc.K, value)
        assert [mc.group(n).ngens for n in range(-1, 3)] == [count(n) for n in range(-1, 3)]
        # the orbit category has no stabilized block: every block is free,
        # and each degree is the sum of its representatives' values
        for n in range(-1, 3):
            data = mc.degree_data(n)
            reps = [data["values"][i] for i in data["reps"]]
            assert data["group"] == direct_sum_data(reps)[0]


def test_maps_into_a_torsion_target_have_one_block_per_orbit():
    # each degree is a sum of the representatives' values, and each value
    # one copy of Z/2 per orbit, with no kernel presentation around them
    mc = sigma_into_two_sigma_mod_2()
    assert [mc.group(n).ngens for n in range(3)] == [9, 12, 4]


def test_mapping_complexes_form_no_whole_degree_kernel(monkeypatch):
    def refuse(h):
        raise AssertionError("a kernel was formed")

    # no kernel from construction on: a Hom complex has one free block per
    # orbit representative, and FixedPointMackey presents the fixed points
    # of a trivial or a permutation module as sums over orbits, so neither
    # the constant targets nor the W-equivariant ones form a kernel
    monkeypatch.setattr(AbHom, "kernel", refuse)
    complexes = [
        mc for M in (burnside_mackey(C2), constant_mackey(C2, Z)) for mc in omega_complexes(M)
    ]
    complexes.append(sigma_into_two_sigma_mod_2())
    K = sphere_for_descriptors(C2, [sign_rep()], 3)
    for coeffs in ("Z", "Z/2", "Z[C2]"):
        complexes.append(EquivariantMappingComplex(K, ModuleTensor(K, module(coeffs))))
    for mc in complexes:
        mc.chain_complex(2)


# sha256 of the repr of the degree groups, their inclusions into the unknowns
# and the differentials below, from the K smash Delta[n]_+ engine, now the
# reference in delta_reference.py; recorded again when the constant targets'
# values became one copy of the coefficients per orbit (orbit coordinates of
# FixedPointMackey), which gives the Z/2 complexes fewer generators
OMEGA_COMPLEXES_SHA256 = "0edb1159fad3bd2957f3f5fe66f0380b3a90af2a057ca8a40d35a61784a24350"


def test_omega_mapping_complexes_are_bit_identical():
    parts = []
    for M in (burnside_mackey(C2), constant_mackey(C2, Z), constant_mackey(C2, Z2)):
        for mc in omega_complexes(M, partial(DeltaMappingComplex, degree_bound=3)):
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

    def guarded(h):
        raise AssertionError("a hom was made dense")

    monkeypatch.setattr(AbHom, "mat", property(guarded))
    assert groups() == want


def _maps_into_trivial_sphere(d, kb, xb):
    """Maps S^0 -> S^d (x~) Z on C2, with source bound kb and target bound xb."""
    T = reduced_tensor(sphere_for_descriptors(C2, [trivial_rep(d)], xb), constant_mackey(C2, Z))
    return MappingComplex(s0_space(C2, kb), T)


def test_pi_n_builds_nothing_above_degree_n_plus_one():
    mc = _maps_into_trivial_sphere(1, 3, 3)
    mc.homotopy_group(0)
    assert sorted(mc._degree) == [-1, 0, 1]


@pytest.mark.parametrize(
    "d, kb, xb",
    [(1, 2, 2), (1, 3, 3), (1, 2, 4), (2, 3, 4), (2, 3, 3)]
    # S^0 and S^d have no nondegenerate simplex past their bounds, so the
    # Hom complex is exact also with a source bound below d + 1 or past the
    # target's bound
    + [(1, 1, 1), (2, 2, 4), (2, 2, 2), (1, 4, 2), (0, 3, 1)],
)
def test_mapping_complex_reads_pi_d_of_a_trivial_sphere(d, kb, xb):
    assert _maps_into_trivial_sphere(d, kb, xb).homotopy_group(d).describe() == "Z"


def test_ro_graded_table_checks_every_row_before_computing_any(monkeypatch):
    called = []
    monkeypatch.setattr("eqmack.homotopy.bredon_groups", lambda *args: called.append(args))
    monkeypatch.setattr("eqmack.homotopy.smash", lambda *args: called.append(args))
    X, M = s0_space(C2, 3), constant_mackey(C2, Z)
    with pytest.raises(HomotopyError, match="degree 3 past bound 3"):
        ro_graded_table(X, M, [(0, []), (3, [sign_rep()])])
    assert called == []


def _answers_through_derived_tables():
    """Answers of every path that builds G-sets or G-maps with _trusted: a
    Bredon table, the two Omega-checks, rho and sigma on S^{2 sigma}, and
    both long exact sequences."""
    recs = subgroup_classes(C2)
    M, P, A = constant_mackey(C2, Z), constant_mackey(C2, Z2), burnside_mackey(C2)
    rows = [(p, [sign_rep()] * k) for p in range(3) for k in range(3)]
    out = [ro_graded_table(s0_space(C2, 3), M, rows).rows]
    for N in (A, M):
        report = omega_spectrum_check(s0_space(C2, 2), N, sign_rep(), 1)
        out.append((report.passed, report.entries))
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, 3)
    e, full = recs
    modules = ((e, WeylModule.regular(e.weyl)), (full, WeylModule.trivial(full.weyl, Z)))
    for hrec, module in modules:
        iso = rho_iso(X, hrec, module)
        out.extend((iso.rho(rec, n), iso.sigma(rec, n)) for rec in recs for n in range(3))
    sig = sphere_for_descriptors(C2, [sign_rep()], 4)
    incl = discrete_inclusion(s0_space(C2, 4), sig, (0, 1))
    twice = {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),)) for r in recs}
    phi = MackeyMorphism(M, M, twice).check()
    psi = fixed_point_morphism(M, P, AbHom(Z, Z2, ((1,),))).check()
    coef = ses_from_coefficients(phi, psi, sig)
    for rec in recs:
        for N in (A, M, P):
            out.append(cofibration_les(ses_from_cofibration(incl, N), rec, 2)[:2])
        out.append(coefficient_les(coef, rec, 2)[:2])
    return out


def test_derived_tables_pass_the_checking_constructors(monkeypatch):
    want = _answers_through_derived_tables()
    built = set()

    def checking(cls):
        def build(*args):
            built.add(cls)
            return cls(*args)

        return staticmethod(build)

    monkeypatch.setattr(GSet, "_trusted", checking(GSet))
    monkeypatch.setattr(GMap, "_trusted", checking(GMap))
    # the level sets of earlier tensors are kept across calls
    product_level.cache_clear()
    smash_level.cache_clear()
    assert _answers_through_derived_tables() == want  # and no GSetError
    assert built == {GSet, GMap}


def test_exact_sequences_read_homology_below_the_bound_only():
    # S^{2 sigma} at bound 1 has nondegenerate 2-simplices that its chains
    # lack: read through degree 1, both sequences would give H_1 of the
    # total as Z^7 at G/e and Z^3 at G/G, every flag True; it is 0 at bound 4
    recs = subgroup_classes(C2)
    M = constant_mackey(C2, Z)
    twice = {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),)) for r in recs}
    phi = MackeyMorphism(M, M, twice)
    psi = fixed_point_morphism(M, constant_mackey(C2, Z2), AbHom(Z, Z2, ((1,),)))
    for bound in (1, 4):
        X = sphere_for_descriptors(C2, [sign_rep()] * 2, bound)
        cofib = ses_from_cofibration(discrete_inclusion(s0_space(C2, bound), X, (0, 1)), M)
        coef = ses_from_coefficients(phi, psi, X)
        for rec in recs:
            for les in (partial(cofibration_les, cofib), partial(coefficient_les, coef)):
                if bound == 1:
                    with pytest.raises(HomotopyError, match="degree 1 past bound 1"):
                        les(rec, 1)
                else:
                    nodes, flags, _ = les(rec, 1)
                    assert nodes[1][1].describe() == "0" and all(flags)


def test_exact_sequences_check_their_degree_before_building(monkeypatch):
    bound = 4
    recs = subgroup_classes(C2)
    M = constant_mackey(C2, Z)
    sig = sphere_for_descriptors(C2, [sign_rep()], bound)
    cofib = ses_from_cofibration(discrete_inclusion(s0_space(C2, bound), sig, (0, 1)), M)
    twice = {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),)) for r in recs}
    psi = fixed_point_morphism(M, constant_mackey(C2, Z2), AbHom(Z, Z2, ((1,),)))
    coef = ses_from_coefficients(MackeyMorphism(M, M, twice), psi, sig)

    def unreachable(*args):
        raise AssertionError("chains built before the degree check")

    monkeypatch.setattr("eqmack.homotopy._exact_chains", unreachable)
    for rec in recs:
        for les in (partial(cofibration_les, cofib), partial(coefficient_les, coef)):
            with pytest.raises(HomotopyError, match="degree 4 past bound 4"):
                les(rec, bound)


def two_sigma_sequences(bound):
    """The cofibration sequence of S^0 -> S^{2 sigma} with Burnside
    coefficients and the coefficient sequence of Z -2-> Z -> Z/2 over
    S^{2 sigma}, on C2 at bound, as functions of (rec, through_degree)."""
    recs = subgroup_classes(C2)
    M = constant_mackey(C2, Z)
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, bound)
    incl = discrete_inclusion(s0_space(C2, bound), X, (0, 1))
    twice = {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),)) for r in recs}
    psi = fixed_point_morphism(M, constant_mackey(C2, Z2), AbHom(Z, Z2, ((1,),)))
    return (
        partial(cofibration_les, ses_from_cofibration(incl, burnside_mackey(C2))),
        partial(coefficient_les, ses_from_coefficients(MackeyMorphism(M, M, twice), psi, X)),
    )


def test_exact_sequences_through_lower_degrees_are_tails():
    bound = 4
    for les in two_sigma_sequences(bound):
        for rec in subgroup_classes(C2):
            nodes, flags, homs = les(rec, bound - 1)
            for d in range(bound - 1):
                low = les(rec, d)
                assert low[0] == nodes[len(nodes) - len(low[0]) :]
                assert low[1] == flags[len(flags) - len(low[1]) :]
                assert [h.mat for h in low[2]] == [h.mat for h in homs[len(homs) - len(low[2]) :]]


def test_exact_sequences_build_no_level_above_the_degree_after(monkeypatch):
    built, level = [], MackeyChainComplex.level

    def spy(self, rec, n):
        built.append(n)
        return level(self, rec, n)

    monkeypatch.setattr(MackeyChainComplex, "level", spy)
    bound = 5
    for les in two_sigma_sequences(bound):
        for d in range(bound):
            for rec in subgroup_classes(C2):
                built.clear()
                les(rec, d)
                assert max(built) == d + 1


def test_element_from_blocks_accepts_natural_and_rejects_other_families():
    K = s0_space(C2, 3)
    emc = EquivariantMappingComplex(K, ModuleTensor(K, module("Z")))
    # the fixed non-base vertex of S^0 has its representative in the chart
    # of C2, class 1, and its restriction in the chart of e, class 0
    data = emc.degree_data(0)
    assert [data["blocks"][i] for i in data["reps"]] == [(1, 0, 1)]
    assert (0, 0, 1) in data["blocks"] and data["group"].ngens == 1
    # the natural family of the generator of pi_0 = Z, read off incl
    unit = (1,)
    amb, starts = data["incl"](unit), data["starts"]
    family = {b: amb[starts[i] : starts[i + 1]] for i, b in enumerate(data["blocks"])}
    assert emc.element_from_blocks(0, family) == unit
    assert emc.chain_complex(1).homology_class(0, unit) in ((1,), (-1,))
    # its restriction alone, without the value at C2/C2, is not natural
    with pytest.raises(HomotopyError):
        emc.element_from_blocks(0, {(0, 0, 1): family[(0, 0, 1)]})
    # K = S^sigma has the fixed points S^0: a value at G/G whose restriction
    # to G/e is not matched there is simplicial but not natural
    K = sphere_for_descriptors(C2, [sign_rep()], 3)
    mc = MappingComplex(K, reduced_tensor(s0_space(C2, 3), constant_mackey(C2, Z)))
    assert (1, 0, 1) in mc.degree_data(0)["blocks"]
    with pytest.raises(HomotopyError):
        mc.element_from_blocks(0, {(1, 0, 1): (1,)})


def test_element_from_blocks_rejects_malformed_families():
    # S^sigma into S^0 (x~) Z at bound 3: the fixed vertex has a block of one
    # generator in each chart, the two edges of the chart of e have none
    K = sphere_for_descriptors(C2, [sign_rep()], 3)
    mc = MappingComplex(K, reduced_tensor(s0_space(C2, 3), constant_mackey(C2, Z)))
    data = mc.degree_data(0)
    assert [v.ngens for v in data["values"]] == [1, 1, 0, 0]
    assert data["blocks"][:2] == ((1, 0, 1), (0, 0, 1))
    # a vector too long for its block no longer spills into the next one
    with pytest.raises(HomotopyError, match=r"block \(1, 0, 1\) needs a vector of length 1, not 2"):
        mc.element_from_blocks(0, {(1, 0, 1): (1, 1)})
    with pytest.raises(HomotopyError, match=r"degree 0 has no block \(2, 0, 1\)"):
        mc.element_from_blocks(0, {(2, 0, 1): (1,)})
    last = data["blocks"][-1]
    with pytest.raises(HomotopyError, match="needs a vector of length 0, not 1"):
        mc.element_from_blocks(0, {last: (1,)})


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


def test_normalized_level_gmap_sends_dropped_simplices_to_the_sink():
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, 4)
    chains = MackeyChainComplex(reduced_tensor(X, constant_mackey(C2, Z)))
    rec = subgroup_classes(C2)[0]
    levels = [chains.level(rec, n)[0] for n in range(3)]
    for n, ls in enumerate(levels):
        assert (ls.base, ls.pairs[0]) == (0, None)
        assert ls.kept == {y for y in range(X.nd[n].size) if n or y != X.nd_base}
    # the boundary table, read off nd_faces: an edge's face on the basepoint
    # and a triangle's face stored with a degeneracy are absent, any other
    # face enters with its sign
    dropped = {"base": 0, "degenerate": 0}
    for n in (1, 2):
        table = _boundary(X, n, True)
        assert list(table) == sorted(levels[n].kept)
        for y, col in table.items():
            kept = Counter()
            for i, faces in enumerate(X.nd_faces[n]):
                sigma, z = faces[y]
                if sigma[-1] < n - 1 or (n == 1 and z == X.nd_base):
                    dropped["base" if n == 1 else "degenerate"] += 1
                else:
                    kept[z] += (-1) ** i
            assert col == {z: c for z, c in kept.items() if c}
            assert n > 1 or X.nd_base not in col
    assert all(dropped.values())
    # a point whose image simplex is not kept goes to the sink; an image on
    # a kept simplex must be a point of the target
    assert set(levels[1].gmap(levels[0], lambda x, s: (X.nd_base, s)).values) == {0}
    y = min(levels[0].kept)
    with pytest.raises(KeyError):
        levels[1].gmap(levels[0], lambda x, s: (y, s + 2))


def test_boundary_tables_of_the_sign_circle_have_the_hand_values(monkeypatch):
    # C2 S^sigma: each edge has d_0 = base and d_1 = v, and its two edges
    # form one free orbit that hits v, so the matching keeps them both
    X = sphere_for_descriptors(C2, [sign_rep()], 2)
    base, (v,) = X.nd_base, [y for y in range(X.nd[0].size) if y != X.nd_base]
    assert X.nd[1].size == 2
    assert _boundary(X, 1, False) == {0: {base: 1, v: -1}, 1: {base: 1, v: -1}}
    assert _boundary(X, 1, True) == {0: {v: -1}, 1: {v: -1}}
    assert _boundary(X, 0, True) == {v: {}}
    # the Morse matching, the normalized chains and the Hom complex out of X
    # read one table
    read = []

    def spy(X, n, reduced, skip=None):
        read.append((n, reduced, _boundary(X, n, reduced, skip)))
        return read[-1][2]

    monkeypatch.setattr("eqmack.homotopy._boundary", spy)
    T = reduced_tensor(X, constant_mackey(C2, Z))
    for rec in subgroup_classes(C2):
        MackeyChainComplex(T).complex(rec)
    MappingComplex(X, T).differential(2)
    chains_and_hom = len(read)
    assert _morse(X)[1] == {0: {v: -1}, 1: {v: -1}}
    assert {n for n, _, _ in read[chains_and_hom:]} == {0, 1, 2}
    assert all(reduced for _, reduced, _ in read)
    for n in range(3):
        first, *rest = (table for m, _, table in read if m == n)
        assert rest and all(table is first for table in rest)


def test_the_matching_keeps_no_boundary_table():
    # _morse holds one degree's table at a time, so a space only it has
    # read keeps none, while the normalized chains keep theirs
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, 3)
    _morse(X)
    assert [key for key in X._layouts if key[0] == "boundary"] == []
    normalized_chains(reduced_tensor(X, constant_mackey(C2, Z))).complex(subgroup_classes(C2)[0])
    kept = sorted(key for key in X._layouts if key[0] == "boundary")
    assert kept == [("boundary", True, n) for n in range(4)]


def c2_exact_sequence(kind, bound):
    """The C2 sequence kind at bound: the cofibration S^0 -> S^sigma with
    Burnside or Z coefficients, or Z -2-> Z -> Z/2 over S^{2 sigma}, reduced
    or unreduced."""
    family, option = kind.split("-")
    if family == "cofibration":
        sig = sphere_for_descriptors(C2, [sign_rep()], bound)
        M = burnside_mackey(C2) if option == "Burnside" else constant_mackey(C2, Z)
        return ses_from_cofibration(discrete_inclusion(s0_space(C2, bound), sig, (0, 1)), M)
    M, P = constant_mackey(C2, Z), constant_mackey(C2, Z2)
    recs = subgroup_classes(C2)
    twice = {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),)) for r in recs}
    phi = MackeyMorphism(M, M, twice).check()
    psi = fixed_point_morphism(M, P, AbHom(Z, Z2, ((1,),))).check()
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, bound)
    return ses_from_coefficients(phi, psi, X, reduced=option == "reduced")


def full_level_maps(ses, n, S):
    """Reference: the two maps of ses between the full level-n values at S,
    M_* of the full-level components of a cofibration's inclusion and
    projection, or the coefficient maps between the full values."""
    sets = [T.level_set(n, S) for T in ses.tensors]
    for k, (T, U) in enumerate(zip(ses.tensors, ses.tensors[1:])):
        if isinstance(ses, CofibrationSES):
            table, (a, b) = (ses.incl, ses.proj)[k].comps[n].values, sets[k : k + 2]
            yield T.M.covariant(a.gmap(b, lambda x, s: (table[x], s)), a.base, b.base)
        else:
            yield (ses.phi, ses.psi)[k].between(T.value(n, S), U.value(n, S))


@pytest.mark.parametrize(
    "kind",
    ["cofibration-Burnside", "cofibration-Z", "coefficients-reduced", "coefficients-unreduced"],
)
def test_exact_chain_maps_equal_the_restricted_full_levels(kind):
    bound = 4
    ses = c2_exact_sequence(kind, bound)
    for rec in subgroup_classes(C2):
        S = std_orbit(C2, rec)
        maps = exact_chain_maps(ses, rec)
        for n in range(bound + 1):
            parts = [nondegenerate_part(T, n, S) for T in ses.tensors]
            for k, full in enumerate(full_level_maps(ses, n, S)):
                assert maps[k].comps[n] == restricted(full, parts[k], parts[k + 1])


# -- spheres past the digests' bound, on their nondegenerate simplices -------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_bredon_groups_of_sign_spheres_have_the_hand_values(k):
    # cellular chains of S^{k sigma}: at G/G, Z/2 in even degrees below k and
    # Z in degree k when k is even; at G/e, Z in degree k only
    X = sphere_for_descriptors(C2, [sign_rep()] * k, k + 1)
    table = bredon_groups(X, constant_mackey(C2, Z), range(k + 1))
    e, full = (rec.class_id for rec in subgroup_classes(C2))
    for n, row in table.items():
        top = "Z" if n == k else "0"
        fixed = "Z/2" if n % 2 == 0 and n < k else ("Z" if n == k and k % 2 == 0 else "0")
        assert (row[e].describe(), row[full].describe()) == (top, fixed)


def test_homology_builds_no_full_level(monkeypatch):
    # the normalized chains read the nondegenerate simplices and their faces,
    # so Bredon groups, the RO(G) rows and the coefficient sequence never lay
    # out a full level of a sphere or of a smash with one
    def refuse(X):
        raise AssertionError("a full level was built")

    monkeypatch.setattr("eqmack.simplicial._materialize", refuse)
    M = constant_mackey(C2, Z)
    X = sphere_for_descriptors(C2, [sign_rep()] * 3, 4)
    assert bredon_groups(X, M, range(4))[3][0].describe() == "Z"
    rows = [(p, [sign_rep()] * k) for p in range(3) for k in range(3)]
    assert len(ro_graded_table(s0_space(C2, 3), M, rows).rows) == 9
    ses = c2_exact_sequence("coefficients-reduced", 4)
    for rec in subgroup_classes(C2):
        assert all(coefficient_les(ses, rec, 2)[1])
    # the Hom complex reads its charts off the source's nondegenerate simplices
    target = sphere_for_descriptors(C2, [sign_rep()] * 2, 3)
    assert homotopy_classes([sign_rep()] * 2, target, M).describe() == "Z"
    with pytest.raises(AssertionError, match="a full level was built"):
        X.levels


def test_omega_check_lays_out_no_full_level(monkeypatch):
    # the loop comparison lifts on the nondegenerate simplices of S^W, X and
    # S^W smash X, and the mapping complexes out of S^W smash (G/K)_+ read
    # their nondegenerate form alone
    def refuse(X):
        raise AssertionError("a full level was built")

    monkeypatch.setattr("eqmack.simplicial._materialize", refuse)
    X = sphere_for_descriptors(C2, [sign_rep()], 3)
    assert omega_spectrum_check(X, constant_mackey(C2, Z), sign_rep(), 1).passed
    Y = sphere_for_descriptors(C2, [sign_rep()] * 2, 4)
    assert omega_spectrum_check(Y, coefficients("Z/2"), trivial_rep(1), 2).passed
    with pytest.raises(AssertionError, match="a full level was built"):
        X.levels


# -- empty levels and layouts kept on the space ----------------------------------


def test_empty_levels_build_no_gmap(monkeypatch):
    # S^sigma has nondegenerate simplices in degrees 0 and 1 only: reduced,
    # one vertex and two edges; S^0 unreduced has two vertices; the cofibre
    # S^sigma / S^0 reduced has only the two edges.
    sig = sphere_for_descriptors(C2, [sign_rep()], 6)
    blocks = []

    def counting(M, o, tev, t):
        blocks.append(o)
        return _orbit_map_to(M, o, tev, t)

    monkeypatch.setattr("eqmack.homotopy._orbit_map_to", counting)
    for rec in subgroup_classes(C2):
        chains = MackeyChainComplex(reduced_tensor(sig, burnside_mackey(C2)))
        blocks.clear()
        c = chains.complex(rec)
        # d_1 alone, one block per edge orbit and the one term of its table
        assert blocks == list(chains.level(rec, 1)[1].orbits)
        assert [c.groups[n].ngens for n in range(2, 7)] == [0] * 5

    M = constant_mackey(C2, Z)
    ses = ses_from_cofibration(discrete_inclusion(s0_space(C2, 6), sig, (0, 1)), M)
    calls = []

    def covariant(f, src_base=None, tgt_base=None):
        calls.append((f.src, f.tgt))
        return type(M).covariant(M, f, src_base, tgt_base)

    monkeypatch.setattr(M, "covariant", covariant)
    for rec in subgroup_classes(C2):
        calls.clear()
        cofibration_les(ses, rec, 4)
        # i_* in degree 0, where S^0 has its vertices, and q_* in degree 1,
        # where the cofibre has its edges
        assert len(calls) == 2
        assert all(M.evaluate(s, 0).orbits and M.evaluate(t, 0).orbits for s, t in calls)


def test_tensors_over_one_space_share_their_layouts(monkeypatch):
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, 4)
    built = []

    def counting(xlevel, kept, S, sink):
        built.append(S)
        return _build_level(xlevel, kept, S, sink)

    monkeypatch.setattr("eqmack.homotopy._build_level", counting)
    recs = subgroup_classes(C2)
    coeffs = (burnside_mackey(C2), constant_mackey(C2, Z), constant_mackey(C2, Z2))
    for reduced in (True, False):
        chains = [MackeyChainComplex(TensorMackey(X, M, reduced=reduced)) for M in coeffs]
        for rec in recs:
            for n in range(X.bound + 1):
                first, *rest = (ch.level(rec, n)[0] for ch in chains)
                assert all(ls is first for ls in rest)
            for ch in chains:
                ch.complex(rec)
            for n in range(X.bound + 1):
                first, *rest = (ch._cells(n)[1] for ch in chains)
                assert first is _boundary(X, n, reduced)
                assert all(table is first for table in rest)
    # once per (reduced, class, n) with a kept simplex; the levels without
    # one, degrees 3 and 4 of S^{2 sigma}, share one per class
    assert [X.nd[n].size for n in range(X.bound + 1)][3:] == [0, 0]
    assert len(built) == 2 * len(recs) * 3 + len(recs)
    assert sum(key[0] == "boundary" for key in X._layouts) == 2 * (X.bound + 1)


# -- bit-identical normalized chains, exact sequences and loop comparisons ----------


def _group_data(g):
    return g.ngens, g.rels


def _hom_data(h):
    return _group_data(h.src), _group_data(h.tgt), h.mat


def normalized_chain_outputs():
    """The complexes and transition chain maps of chain_spaces(), reduced
    and unreduced."""
    out = []
    for X, M in chain_spaces().values():
        recs = subgroup_classes(M.group)
        for reduced in (True, False):
            chains = MackeyChainComplex(TensorMackey(X, M, reduced=reduced))
            for rec in recs:
                c = chains.complex(rec)
                out.append([_group_data(c.groups[n]) for n in range(X.bound + 1)])
                out.append([_hom_data(c.diffs[n]) for n in range(1, X.bound + 1)])
            for j in recs:
                for h in recs:
                    for om in orbit_maps_between(j, h):
                        for variance in ("tr", "res"):
                            f = chains.transition_chain_map(om, variance)
                            out.append([_hom_data(f.comps[n]) for n in range(X.bound + 1)])
    return out


def les_outputs():
    """The groups and homs of the cofibration LES of S^0 -> S^sigma and of
    the coefficient LES of Z -2-> Z -> Z/2 on S^sigma, on C2 at bound 4."""
    bound = 4
    recs = subgroup_classes(C2)
    sig = sphere_for_descriptors(C2, [sign_rep()], bound)
    incl = discrete_inclusion(s0_space(C2, bound), sig, (0, 1))
    M = constant_mackey(C2, Z)
    twice = {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),)) for r in recs}
    phi = MackeyMorphism(M, M, twice)
    psi = fixed_point_morphism(M, constant_mackey(C2, Z2), AbHom(Z, Z2, ((1,),)))
    out = []
    for rec in recs:
        sequences = [
            cofibration_les(ses_from_cofibration(incl, coeffs), rec, bound - 2)
            for coeffs in (burnside_mackey(C2), M)
        ]
        for reduced in (False, True):
            ses = ses_from_coefficients(phi, psi, sig, reduced=reduced)
            sequences.append(coefficient_les(ses, rec, bound - 2))
        for nodes, flags, homs in sequences:
            out.append(([_group_data(g) for _, g in nodes], flags, [_hom_data(h) for h in homs]))
    return out


def phi_outputs():
    """The matrices of the loop comparison of the reference engine in the
    omega checks of S^0 against sign on C2, bound 2, n_max 1, for Burnside
    and Z coefficients."""
    out = []
    for M in (burnside_mackey(C2), constant_mackey(C2, Z)):
        psi = PsiMap([sign_rep()], s0_space(C2, 2), M)
        chains = MackeyChainComplex(psi.T_src)
        for krec in subgroup_classes(C2):
            orb_space = based_orbit_space(C2, krec, psi.SW.bound)
            kspace = smash(psi.SW, orb_space)
            mc = DeltaMappingComplex(kspace, psi.T_tgt, 3)
            for n in (0, 1):
                ok, mat = delta_phi_induced(psi, krec, kspace, orb_space, mc, chains, n)
                out.append((ok, _hom_data(mat)))
    return out


def package_phi_outputs():
    """(ok, matrix) of the package's loop comparison, as the omega check
    computes it, for n <= n_max: C2 with Burnside, Z and Z/2 coefficients,
    S^0, S^sigma and S^1 sources and trivial and sign twists at bound 3,
    then C3 rot:3:1, the S3 sign of A3, C4 rot:4:1 and the C4 sign with
    kernel C2."""
    cases = [
        (C2, X, coeffs, desc, 2, 3)
        for coeffs in ("burnside", "Z", "Z/2")
        for X in ([], [sign_rep()], [trivial_rep(1)])
        for desc in (trivial_rep(1), sign_rep())
    ] + [
        (FiniteGroup.cyclic(3), [], "burnside", rotation_rep(3, 1), 1, 3),
        (S3, [], "burnside", SIGN_A3, 1, 2),
        (C4, [], "burnside", rotation_rep(4, 1), 0, 3),
        (C4, [], "Z", SIGN_C4, 1, 2),
    ]
    out = []
    for G, X, coeffs, desc, n_max, bound in cases:
        psi = PsiMap([desc], sphere_for_descriptors(G, X, bound), coefficients(coeffs, G))
        chains = normalized_chains(psi.T_src)
        for krec in subgroup_classes(G):
            kspace = smash(psi.SW, based_orbit_space(G, krec, bound))
            mc = MappingComplex(kspace, psi.T_tgt)
            for n in range(n_max + 1):
                ok, mat = _phi_induced(psi, krec, kspace, mc, chains, n)
                out.append((ok, mat and _hom_data(mat)))
    return out


def hom_complex_outputs():
    """The degree groups, their inclusions into the blocks and the
    differentials in degrees 0..2 of the package's Hom complexes: the omega
    complexes for Burnside, Z and Z/2, S^sigma into S^{2 sigma} (x~) Z/2, and
    the three W-equivariant complexes out of S^sigma.  Block names are left
    out."""
    complexes = [
        mc
        for M in (burnside_mackey(C2), constant_mackey(C2, Z), constant_mackey(C2, Z2))
        for mc in omega_complexes(M)
    ]
    complexes.append(sigma_into_two_sigma_mod_2())
    K = sphere_for_descriptors(C2, [sign_rep()], 3)
    for coeffs in ("Z", "Z/2", "Z[C2]"):
        complexes.append(EquivariantMappingComplex(K, ModuleTensor(K, module(coeffs))))
    out = []
    for mc in complexes:
        for n in range(3):
            data = mc.degree_data(n)
            out.append((_group_data(data["group"]), data["incl"].mat, mc.differential(n).mat))
    return out


# sha256 of the repr of each output list, recorded when the normalized levels
# had their own layout class and the loop comparison copied each
# nondegenerate block to its offset in the full level by hand; the chains and
# LES digests were recorded again when FixedPointMackey took orbit
# coordinates, which present the constant Z/2 values on fewer generators
NORMALIZED_CHAINS_SHA256 = "39af5b86aef5b23cef935c2ce8276cd8331cfadb0f892b23f130eefa0805905a"
LES_SHA256 = "cdf169fd8d9a2e1627655717d937d0e8c0f5fa229032a7377a98bdcfd629b8d3"
PHI_SHA256 = "f01ae533ad45cad7eb591d2246df0919beb4bafdd08e97e062dc1f3dd7629b96"
# recorded while the charts were the fixed-point systems of the source and
# the orbit maps acted by phi_transition tables
HOM_COMPLEXES_SHA256 = "4b97e20bf627c87b569f90bf0c297b98b209bf93e5d6ec33685293b561bc96c1"
# recorded while the lift decoded each source simplex into its full level and
# paired the factors' point tables through the smash's full-level index
PACKAGE_PHI_SHA256 = "e3a7ff2ac7500184b9f3587b71d39030923d4784cc5fe343e2a70a900b12496b"


@pytest.mark.parametrize(
    "outputs, digest",
    [
        (normalized_chain_outputs, NORMALIZED_CHAINS_SHA256),
        (les_outputs, LES_SHA256),
        (phi_outputs, PHI_SHA256),
        (hom_complex_outputs, HOM_COMPLEXES_SHA256),
        (package_phi_outputs, PACKAGE_PHI_SHA256),
    ],
    ids=["normalized-chains", "les", "phi", "hom-complexes", "package-phi"],
)
def test_homotopy_outputs_are_bit_identical(outputs, digest):
    assert hashlib.sha256(repr(outputs()).encode()).hexdigest() == digest


# -- the Hom complex against the K smash Delta[n]_+ reference ------------------------


def test_omega_rows_past_the_delta_truncation_pass():
    # C2, Z, sign, n_max 1 at bound 2: K smash Delta[2]_+ needs level 3, so
    # the reference engine failed these rows there.  The Hom complex reads
    # N_{k+n} T only, and S^sigma smash X has no simplex past level 2.  The
    # values are the reference's at bound 3.
    M = constant_mackey(C2, Z)
    s1 = omega_spectrum_check(sphere_for_descriptors(C2, [trivial_rep(1)], 2), M, sign_rep(), 1)
    assert s1.passed is True
    assert [e[2:4] for e in s1.entries if e[1] == 1] == [("Z", "Z"), ("Z", "Z")]
    ssig = omega_spectrum_check(sphere_for_descriptors(C2, [sign_rep()], 2), M, sign_rep(), 1)
    assert ssig.passed is True
    assert [e[1:4] for e in ssig.entries if e[0] == 1] == [(0, "Z/2", "Z/2"), (1, "0", "0")]


GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


@pytest.mark.parametrize("case", ["c2_omega_A", "c2_omega_Z"])
def test_benchmark_omega_cases_build_no_delta_n_plus(case, monkeypatch):
    def refuse(*args):
        raise AssertionError("a standard simplex was built")

    monkeypatch.setattr("eqmack.simplicial.standard_simplex_plus", refuse)
    M = burnside_mackey(C2) if case == "c2_omega_A" else constant_mackey(C2, Z)
    report = omega_spectrum_check(s0_space(C2, 2), M, sign_rep(), 1)
    golden = json.loads(GOLDEN.read_text())["answers"]["omega"][case]
    assert {"passed": report.passed, "entries": [list(e) for e in report.entries]} == golden


def coefficients(name, G=C2):
    if name == "burnside":
        return burnside_mackey(G)
    return constant_mackey(G, Z if name == "Z" else Z2)


@pytest.mark.parametrize("coeffs", ["burnside", "Z", "Z/2"])
@pytest.mark.parametrize("sphere", ["S^0", "S^sigma"])
def test_mapping_complex_matches_the_reference(sphere, coeffs):
    # the complexes of homotopy_classes: maps S^V -> S^0 (x~) M, bound 3
    K = sphere_for_descriptors(C2, [] if sphere == "S^0" else [sign_rep()], 3)
    T = reduced_tensor(s0_space(C2, 3), coefficients(coeffs))
    got, want = MappingComplex(K, T), DeltaMappingComplex(K, T, 2)
    for n in (0, 1):
        assert got.homotopy_group(n).invariants() == want.homotopy_group(n).invariants()


@pytest.mark.parametrize("d, kb, xb", [(1, 2, 2), (1, 3, 3), (1, 2, 4), (2, 3, 4), (2, 3, 3)])
def test_maps_into_trivial_spheres_match_the_reference(d, kb, xb):
    got = _maps_into_trivial_sphere(d, kb, xb)
    want = DeltaMappingComplex(got.K, got.T, 4)
    for n in range(d + 1):
        assert got.homotopy_group(n).invariants() == want.homotopy_group(n).invariants()


@pytest.mark.parametrize("coeffs", ["Z", "Z/2", "Z[C2]"])
@pytest.mark.parametrize("sphere", ["S^0", "S^sigma"])
def test_equivariant_mapping_complex_matches_the_reference(sphere, coeffs):
    K = s0_space(C2, 3) if sphere == "S^0" else sphere_for_descriptors(C2, [sign_rep()], 3)
    mt = ModuleTensor(K, module(coeffs))
    got, want = EquivariantMappingComplex(K, mt), DeltaEquivariantMappingComplex(K, mt, 2)
    for n in (0, 1):
        assert got.homotopy_group(n).invariants() == want.homotopy_group(n).invariants()


@pytest.mark.parametrize(
    "G, X, coeffs, desc, n_max, bound",
    [
        (C2, [], "Z", sign_rep(), 0, 2),
        (C2, [], "burnside", sign_rep(), 1, 3),
        (C2, [], "Z", sign_rep(), 1, 3),
        (C2, [trivial_rep(1)], "Z", sign_rep(), 1, 3),
        (C2, [sign_rep()], "Z", sign_rep(), 1, 3),
        (FiniteGroup.cyclic(3), [], "burnside", rotation_rep(3, 1), 0, 3),
    ],
    ids=["S^0-Z-0", "S^0-A-1", "S^0-Z-1", "S^1-Z-1", "S^sigma-Z-1", "C3-rot-A-0"],
)
def test_omega_check_matches_the_reference(G, X, coeffs, desc, n_max, bound):
    # at the valid bound dim S^W + n_max + 1, where the reference is exact
    space = sphere_for_descriptors(G, X, bound)
    M = coefficients(coeffs, G)
    got = omega_spectrum_check(space, M, desc, n_max)
    assert got.entries == delta_omega_entries(space, M, desc, n_max)
    assert got.passed
