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
from pathlib import Path

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

from delta_reference import (
    DeltaEquivariantMappingComplex,
    DeltaMappingComplex,
    delta_omega_entries,
    delta_phi_induced,
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


def test_ro_graded_table_builds_each_twist_once(monkeypatch):
    X, M = s0_space(C2, 3), constant_mackey(C2, Z)
    rows = [(1, [sign_rep()]), (0, []), (2, [sign_rep()] * 2), (0, [sign_rep()]), (1, [])]
    want = [
        (p, tuple(d), bredon_groups(smash(sphere_for_descriptors(C2, d, 3), X), M, [p])[p])
        for p, d in rows
    ]
    built = []

    def counted(G, descs, bound):
        built.append(tuple(descs))
        return sphere_for_descriptors(G, descs, bound)

    monkeypatch.setattr("eqmack.homotopy.sphere_for_descriptors", counted)
    table = ro_graded_table(X, M, rows)
    assert built == [(sign_rep(),), (), (sign_rep(), sign_rep())]
    assert table.rows == tuple(
        (p, d, {cid: g.describe() for cid, g in groups.items()}) for p, d, groups in want
    )
    with pytest.raises(HomotopyError, match="degree 3 past bound 3"):
        ro_graded_table(X, M, [(0, []), (3, [sign_rep()])])


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


def omega_complexes(M, engine=MappingComplex):
    """The mapping complexes of the omega check of S^0 against sign, bound 2,
    one per orbit class."""
    psi = PsiMap(sign_rep(), s0_space(C2, 2), M)
    for krec in subgroup_classes(C2):
        kspace = smash(psi.SW, based_orbit_space(C2, krec, psi.SW.bound))
        yield engine(kspace, psi.T_tgt, 3)


# sha256 of the repr of the degree groups, their inclusions into the unknowns
# and the differentials below, recorded when every mapping-complex matrix was
# still assembled and reduced dense; the K smash Delta[n]_+ engine, now the
# reference in delta_reference.py, still gives them
OMEGA_COMPLEXES_SHA256 = "391c80ad1f7fdfcd082d541e794b01b022683598bc8e544d1bd8817709784630"


def test_omega_mapping_complexes_are_bit_identical():
    parts = []
    for M in (burnside_mackey(C2), constant_mackey(C2, Z), constant_mackey(C2, Z2)):
        for mc in omega_complexes(M, DeltaMappingComplex):
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


def test_normalized_level_gmap_sends_dropped_simplices_to_the_sink():
    X = sphere_for_descriptors(C2, [sign_rep()] * 2, 4)
    chains = MackeyChainComplex(reduced_tensor(X, constant_mackey(C2, Z)))
    rec = subgroup_classes(C2)[0]
    levels = [chains.level(rec, n)[0] for n in range(3)]
    for n, ls in enumerate(levels):
        flags = X.degenerate_flags(n)
        assert (ls.base, ls.pairs[0]) == (0, None)
        assert ls.kept == {x for x in range(X.levels[n].size) if not (flags[x] or x == X.base(n))}
    # the faces d_i: level 1 -> level 0, where some edge ends at the basepoint
    crushed = 0
    for i in range(2):
        table = X.faces[1][i].values
        f = levels[1].gmap(levels[0], lambda x, s: (table[x], s))
        for p, (x, s) in enumerate(levels[1].pairs[1:], 1):
            if table[x] == X.base(0):
                crushed += 1
                assert f.values[p] == 0
            else:
                assert f.values[p] == levels[0].index[(table[x], s)]
    assert crushed
    # the degeneracy s_0: level 1 -> level 2 lands on degenerate simplices only
    table = X.degens[1][0].values
    f = levels[1].gmap(levels[2], lambda x, s: (table[x], s))
    assert set(f.values) == {0}
    # an image on a kept simplex must be a point of the target
    y = min(levels[0].kept)
    with pytest.raises(KeyError):
        levels[1].gmap(levels[0], lambda x, s: (y, s + 2))


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
        psi = PsiMap(sign_rep(), s0_space(C2, 2), M)
        chains = MackeyChainComplex(psi.T_src)
        for krec in subgroup_classes(C2):
            orb_space = based_orbit_space(C2, krec, psi.SW.bound)
            kspace = smash(psi.SW, orb_space)
            mc = DeltaMappingComplex(kspace, psi.T_tgt, 3)
            for n in (0, 1):
                ok, mat = delta_phi_induced(psi, krec, kspace, orb_space, mc, chains, n)
                out.append((ok, _hom_data(mat)))
    return out


# sha256 of the repr of each output list, recorded when the normalized levels
# had their own layout class and the loop comparison copied each
# nondegenerate block to its offset in the full level by hand
NORMALIZED_CHAINS_SHA256 = "dd9cb56dd1a35318d2fc728b3fc4a2f4aa7a3a763783f30519a2458320dc32dc"
LES_SHA256 = "5ba8a5c45fb5332da73b1cd4e5125975d576c5326c0720f7bd71a7512abdf9d6"
PHI_SHA256 = "f01ae533ad45cad7eb591d2246df0919beb4bafdd08e97e062dc1f3dd7629b96"


@pytest.mark.parametrize(
    "outputs, digest",
    [
        (normalized_chain_outputs, NORMALIZED_CHAINS_SHA256),
        (les_outputs, LES_SHA256),
        (phi_outputs, PHI_SHA256),
    ],
    ids=["normalized-chains", "les", "phi"],
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
    got, want = MappingComplex(K, T, 2), DeltaMappingComplex(K, T, 2)
    for n in (0, 1):
        assert got.homotopy_group(n).invariants() == want.homotopy_group(n).invariants()


@pytest.mark.parametrize("d, kb, xb", [(1, 2, 2), (1, 3, 3), (1, 2, 4), (2, 3, 4), (2, 3, 3)])
def test_maps_into_trivial_spheres_match_the_reference(d, kb, xb):
    got = _maps_into_trivial_sphere(d, kb, xb)
    want = DeltaMappingComplex(got.K, got.T, got.degree_bound)
    for n in range(d + 1):
        assert got.homotopy_group(n).invariants() == want.homotopy_group(n).invariants()


@pytest.mark.parametrize("coeffs", ["Z", "Z/2", "Z[C2]"])
@pytest.mark.parametrize("sphere", ["S^0", "S^sigma"])
def test_equivariant_mapping_complex_matches_the_reference(sphere, coeffs):
    K = s0_space(C2, 3) if sphere == "S^0" else sphere_for_descriptors(C2, [sign_rep()], 3)
    mt = ModuleTensor(K, module(coeffs))
    got, want = EquivariantMappingComplex(K, mt, 2), DeltaEquivariantMappingComplex(K, mt, 2)
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

