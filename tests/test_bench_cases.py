"""The benchmark's cases lay out no full level of any simplicial G-set, and
its Bredon cases no smash's nondegenerate simplices.

Every case of every workload runs at full size, untraced, with
simplicial._materialize, which lays out full levels, made to fail; each
answer must still hold on its own and match the golden file.  The Bredon
cases over smashes, and Bredon homology of C2 S^{3 sigma}, run with
simplicial._smash_nd, which lays out a smash's nondegenerate simplices,
made to fail too.  The case and golden modules are read and executed here
without being imported through the import system, so nothing is written
under bench/.
"""

import random
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    module = types.ModuleType("bench_" + name)
    module.__file__ = str(BENCH / (name + ".py"))
    exec(compile((BENCH / (name + ".py")).read_text(), module.__file__, "exec"), module.__dict__)
    return module


CASES = bench_module("cases")
GOLDEN = bench_module("golden")


@pytest.mark.parametrize(
    "workload, case", [(w, c) for w, cases in CASES.WORKLOADS.items() for c in cases]
)
def test_no_benchmark_case_lays_out_a_full_level(monkeypatch, workload, case):
    def refuse(X):
        raise AssertionError("a full level of a %r space was laid out" % (X._recipe[0],))

    monkeypatch.setattr("eqmack.simplicial._materialize", refuse)
    answer, ok = CASES.WORKLOADS[workload][case](False, random.Random(0))()
    assert ok
    assert GOLDEN.check(GOLDEN.load(), workload, case, False, answer) is None


def refuse_smash_layouts(monkeypatch):
    def refuse(X):
        raise AssertionError("a smash's nondegenerate simplices were laid out")

    monkeypatch.setattr("eqmack.simplicial._materialize", refuse)
    monkeypatch.setattr("eqmack.simplicial._smash_nd", refuse)


@pytest.mark.parametrize("case", ["c2_s2sigma_Z", "c2_rog_Z", "s3_sigma1_A"])
def test_no_bredon_case_lays_out_a_smash(monkeypatch, case):
    refuse_smash_layouts(monkeypatch)
    answer, ok = CASES.WORKLOADS["bredon"][case](False, random.Random(0))()
    assert ok
    assert GOLDEN.check(GOLDEN.load(), "bredon", case, False, answer) is None


def sign_sphere_values(k, n):
    """H~_n(S^{k sigma}; Z) of C2 at G/e and at G/G, from its cells: Z at G/e
    in degree k; at G/G, Z/2 in even degrees below k and Z in degree k when k
    is even."""
    fixed = "Z/2" if n % 2 == 0 and n < k else "Z" if n == k and k % 2 == 0 else "0"
    return "Z" if n == k else "0", fixed


def test_bredon_homology_of_a_sign_sphere_lays_out_no_smash(monkeypatch):
    from eqmack.abelian import AbGroup
    from eqmack.groups import FiniteGroup, subgroup_classes
    from eqmack.homotopy import bredon_groups, bredon_homology, ro_graded_table
    from eqmack.mackey import constant_mackey, verify_axioms
    from eqmack.simplicial import sign_rep, sphere_for_descriptors

    refuse_smash_layouts(monkeypatch)
    C2 = FiniteGroup.cyclic(2)
    e, full = subgroup_classes(C2)
    M, X = constant_mackey(C2, AbGroup.free(1)), sphere_for_descriptors(C2, [sign_rep()] * 3, 4)
    for n, row in bredon_groups(X, M, range(4)).items():
        assert (row[e.class_id].describe(), row[full.class_id].describe()) == sign_sphere_values(3, n)
        H = bredon_homology(X, M, n)
        assert verify_axioms(H).passed
        assert tuple(H.orbit_value(r).describe() for r in (e, full)) == sign_sphere_values(3, n)
    # S^{k sigma} smash S^{3 sigma} is S^{(k + 3) sigma}
    rows = [(p, [sign_rep()] * k) for p in range(4) for k in range(3)]
    for p, descs, cells in ro_graded_table(X, M, rows).rows:
        got = cells[e.class_id], cells[full.class_id]
        assert got == sign_sphere_values(len(descs) + 3, p), (p, len(descs))
