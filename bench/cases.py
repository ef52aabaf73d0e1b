"""The benchmark's workloads: each case builds its inputs, then calls eqmack.

A case is a factory ``make(smoke, rng)``.  Calling it builds the case's
inputs (groups, coefficient functors, spaces), which the benchmark counts as
set-up time.  It returns a callable that runs eqmack's public entry points
and returns ``(answer, intrinsic_ok)``: ``answer`` is plain JSON data (exact
invariant factors as strings) compared with the golden file, and
``intrinsic_ok`` is the conjunction of the flags the answer must satisfy on
its own (Omega-check passed, rho an isomorphism inverted by sigma, every long
exact sequence exact).

``smoke`` selects reduced bounds for the benchmark's own tests.  ``rng`` is
the run's seeded ``random.Random``; only the RO(G) table draws from it.
"""

from eqmack.abelian import AbGroup, AbHom
from eqmack.groups import FiniteGroup, subgroup_classes
from eqmack.homotopy import (
    bredon_groups,
    coefficient_les,
    cofibration_les,
    omega_spectrum_check,
    ro_graded_table,
)
from eqmack.mackey import (
    MackeyMorphism,
    WeylModule,
    burnside_mackey,
    constant_mackey,
    fixed_point_morphism,
)
from eqmack.simplicial import (
    discrete_inclusion,
    rotation_rep,
    s0_space,
    sign_rep,
    sphere_for_descriptors,
    trivial_rep,
)
from eqmack.tensor import rho_iso, ses_from_coefficients, ses_from_cofibration

Z = AbGroup.free(1)


def _group_table(table):
    """bredon_groups output -> {degree: {class_id: invariants}}."""
    return {
        str(n): {str(cid): g.describe() for cid, g in row.items()}
        for n, row in table.items()
    }


# -- bredon: Mackey-evaluation heavy ------------------------------------------


def c2_s2sigma_Z(smoke, rng):
    """C2, H~_n(S^{2 sigma}; Z) for n below the bound."""
    bound = 3 if smoke else 4
    G = FiniteGroup.cyclic(2)
    X = sphere_for_descriptors(G, [sign_rep(), sign_rep()], bound)
    M = constant_mackey(G, Z)
    return lambda: (_group_table(bredon_groups(X, M, range(bound))), True)


def c3_rot31_A(smoke, rng):
    """C3, H~_n(S^{rot:3:1}; Burnside) for n = 0, 1, 2."""
    bound = 3
    G = FiniteGroup.cyclic(3)
    X = sphere_for_descriptors(G, [rotation_rep(3, 1)], bound)
    M = burnside_mackey(G)
    return lambda: (_group_table(bredon_groups(X, M, range(3))), True)


def s3_sigma1_A(smoke, rng):
    """S3, H~_n(S^{sigma+1}; Burnside), sigma the sign with kernel A3."""
    bound = 3
    G = FiniteGroup.symmetric(3)
    a3 = next(r for r in subgroup_classes(G) if r.order == 3)
    X = sphere_for_descriptors(G, [sign_rep(a3.elements), trivial_rep(1)], bound)
    M = burnside_mackey(G)
    return lambda: (_group_table(bredon_groups(X, M, range(3))), True)


def s3_s1_A(smoke, rng):
    """S3, H~_n(S^1; Burnside) for n = 0, 1: H~_1 is A(G/H) itself."""
    G = FiniteGroup.symmetric(3)
    X = sphere_for_descriptors(G, [trivial_rep(1)], 3)
    M = burnside_mackey(G)
    return lambda: (_group_table(bredon_groups(X, M, range(2))), True)


def c2_rog_Z(smoke, rng):
    """C2, H~_p(S^{k sigma}; Z) over the grid p, k in 0..2, in seeded order.

    The spheres are built inside ro_graded_table, so simplicial construction
    is part of the timed call here.
    """
    G = FiniteGroup.cyclic(2)
    M = constant_mackey(G, Z)
    X = s0_space(G, 3)
    grid = [(p, k) for p in range(3) for k in range(3)]
    rng.shuffle(grid)
    rows = [(p, [sign_rep()] * k) for p, k in grid]

    def run():
        table = ro_graded_table(X, M, rows)
        return {
            "%d,%d" % (p, len(descs)): {str(c): v for c, v in cells.items()}
            for p, descs, cells in table.rows
        }, True

    return run


# -- omega: constraint assembly and integer reduction, the memory workload ----


def _omega_check(M):
    X = s0_space(M.group, 2)

    def run():
        report = omega_spectrum_check(X, M, sign_rep(), n_max=1)
        entries = [[cid, n, lhs, rhs, ok] for cid, n, lhs, rhs, ok in report.entries]
        return {"passed": report.passed, "entries": entries}, report.passed

    return run


def c2_omega_A(smoke, rng):
    """C2, Omega-spectrum check of S^0 against sign with Burnside, n_max=1."""
    return _omega_check(burnside_mackey(FiniteGroup.cyclic(2)))


def c2_omega_Z(smoke, rng):
    """C2, Omega-spectrum check of S^0 against sign with Z, n_max=1."""
    return _omega_check(constant_mackey(FiniteGroup.cyclic(2), Z))


# -- rho_les: many small solves and matrix-vector embeddings ------------------


def c2_rho_s2sigma(smoke, rng):
    """C2, rho on S^{2 sigma} for R(Z[C2]) at e and R(Z) at G, levels < bound."""
    bound = 2 if smoke else 3
    G = FiniteGroup.cyclic(2)
    X = sphere_for_descriptors(G, [sign_rep(), sign_rep()], bound)
    e, full = subgroup_classes(G)
    inputs = (
        ("e", e, WeylModule.regular(e.weyl)),
        ("G", full, WeylModule.trivial(full.weyl, Z)),
    )

    def run():
        out = {}
        ok = True
        for label, hrec, module in inputs:
            iso = rho_iso(X, hrec, module)
            for rec in subgroup_classes(G):
                for n in range(bound):
                    rho = iso.rho(rec, n)
                    sigma = iso.sigma(rec, n)
                    is_iso = rho.is_iso()
                    inverse = sigma.compose(rho).same_as(AbHom.identity(rho.src))
                    ok = ok and is_iso and inverse
                    out["%s/%d/%d" % (label, rec.class_id, n)] = [
                        rho.src.describe(),
                        rho.tgt.describe(),
                        is_iso,
                        inverse,
                    ]
        return out, ok

    return run


def _les_answer(les_per_key):
    out = {}
    ok = True
    for key, (nodes, flags, _) in les_per_key:
        ok = ok and all(flags)
        out[key] = {"nodes": [g.describe() for _, g in nodes], "exact": list(flags)}
    return out, ok


def c2_cofib_les(smoke, rng):
    """C2, the LES of S^0 -> S^sigma -> S^sigma/S^0 with A, Z and Z/2."""
    bound = 4 if smoke else 6
    G = FiniteGroup.cyclic(2)
    sig = sphere_for_descriptors(G, [sign_rep()], bound)
    incl = discrete_inclusion(s0_space(G, bound), sig, (0, 1))
    coeffs = (
        ("A", burnside_mackey(G)),
        ("Z", constant_mackey(G, Z)),
        ("Z/2", constant_mackey(G, AbGroup.cyclic(2))),
    )
    recs = subgroup_classes(G)

    def run():
        pairs = []
        for label, M in coeffs:
            ses = ses_from_cofibration(incl, M)
            for rec in recs:
                key = "%s/%d" % (label, rec.class_id)
                pairs.append((key, cofibration_les(ses, rec, bound - 2)))
        return _les_answer(pairs)

    return run


def c2_coef_les(smoke, rng):
    """C2, the LES of Z -2-> Z -> Z/2 over S^sigma."""
    bound = 4 if smoke else 6
    G = FiniteGroup.cyclic(2)
    M = constant_mackey(G, Z)
    P = constant_mackey(G, AbGroup.cyclic(2))
    recs = subgroup_classes(G)
    phi = MackeyMorphism(
        M, M, {r.class_id: AbHom(M.orbit_value(r), M.orbit_value(r), ((2,),)) for r in recs}
    ).check()
    psi = fixed_point_morphism(M, P, AbHom(Z, AbGroup.cyclic(2), ((1,),))).check()
    X = sphere_for_descriptors(G, [sign_rep()], bound)

    def run():
        ses = ses_from_coefficients(phi, psi, X)
        return _les_answer(
            ("%d" % rec.class_id, coefficient_les(ses, rec, bound - 2)) for rec in recs
        )

    return run


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "bredon": {
        "c2_s2sigma_Z": c2_s2sigma_Z,
        "c3_rot31_A": c3_rot31_A,
        "s3_sigma1_A": s3_sigma1_A,
        "s3_s1_A": s3_s1_A,
        "c2_rog_Z": c2_rog_Z,
    },
    "omega": {
        "c2_omega_A": c2_omega_A,
        "c2_omega_Z": c2_omega_Z,
    },
    "rho_les": {
        "c2_rho_s2sigma": c2_rho_s2sigma,
        "c2_cofib_les": c2_cofib_les,
        "c2_coef_les": c2_coef_les,
    },
}
