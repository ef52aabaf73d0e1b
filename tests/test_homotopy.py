"""Hand-checked values of the homotopy layer.

Pairs of values are at G/e and G/G.  For C2 with constant Z the reduced
homology of S^sigma is that of the cofibre C2_+ -> S^0, and S^{2 sigma} has
its top class fixed; for S3 with Burnside coefficients H~_1(S^1) is the
Burnside functor itself, of ranks 1, 2, 2 and 4 at the four orbit classes.
"""

import pytest

from eqmack.abelian import AbGroup, AbHom
from eqmack.groups import FiniteGroup, subgroup_classes
from eqmack.homotopy import (
    bredon_groups,
    bredon_homology,
    coefficient_les,
    cofibration_les,
    omega_spectrum_check,
    ro_graded_table,
)
from eqmack.mackey import (
    MackeyMorphism,
    burnside_mackey,
    constant_mackey,
    fixed_point_morphism,
    verify_axioms,
)
from eqmack.simplicial import (
    discrete_inclusion,
    s0_space,
    sign_rep,
    sphere_for_descriptors,
    trivial_rep,
)
from eqmack.tensor import ses_from_coefficients, ses_from_cofibration

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
