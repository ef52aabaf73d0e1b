import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqmack import intlinalg as la
from eqmack.abelian import (
    AbGroup,
    AbHom,
    ChainComplex,
    ChainMap,
    ContractError,
    assemble_block_hom,
    connecting_hom,
    direct_sum,
    direct_sum_data,
    fmt_invariants,
    homology_at,
    is_exact_at,
)

from abelian_helpers import (
    general_is_injective,
    general_is_surjective,
    general_kernel,
    general_same_as,
    iso_eq,
    lattice_contains,
    nrels,
)


Z = AbGroup.free(1)
Z2 = AbGroup.cyclic(2)
Z4 = AbGroup.cyclic(4)


def test_invariants_presentation_independent():
    # Z x Z/2 presented two ways
    g1 = AbGroup(2, ((2,), (0,)))
    g2 = AbGroup(3, ((1, 0), (1, 2), (0, 0)))
    assert g1.invariants() == g2.invariants() == (1, (2,))
    assert g1.describe() == "Z + Z/2"


def test_zero_and_free():
    assert AbGroup.zero().is_trivial()
    assert AbGroup.free(2).invariants() == (2, ())
    assert fmt_invariants((0, ())) == "0"
    assert AbGroup.cyclic(1).is_trivial()


def test_equal_presentations_compare_equal():
    plain, free = AbGroup(2), AbGroup.free(2)
    assert plain == free and hash(plain) == hash(free)
    assert plain.rels == free.rels == ((), ())
    assert (AbHom.identity(plain) + AbHom.identity(free)).mat == ((2, 0), (0, 2))
    # equality compares presentations, not isomorphism types
    assert AbGroup(1, ((2,),)) != AbGroup(1, ((-2,),))
    assert AbGroup(1, ((0,),)) != AbGroup.free(1)


def test_element_equality():
    g = AbGroup(2, ((2, 0), (0, 3)))
    assert g.is_zero_element((2, 3))
    assert not g.is_zero_element((1, 0))
    assert g.elements_equal((1, 1), (3, 4))
    assert g.element_key((1, 1)) == g.element_key((3, 4))
    assert len({g.element_key(e) for e in g.elements()}) == 6


def test_hom_well_defined():
    f = AbHom(Z2, Z4, ((2,),))
    assert f.is_well_defined()
    bad = AbHom(Z2, Z4, ((1,),))
    assert not bad.is_well_defined()


def test_kernel_cokernel_image():
    # multiplication by 2 on Z
    f = AbHom(Z, Z, ((2,),))
    k, _ = f.kernel()
    assert k.is_trivial()
    c, _ = f.cokernel()
    assert c.invariants() == (0, (2,))
    img, incl, proj = f.image()
    assert img.invariants() == (1, ())
    assert incl.is_injective()
    assert proj.is_surjective()


def test_kernel_of_projection():
    # Z^2 -> Z, (a, b) -> a + b
    f = AbHom(AbGroup.free(2), Z, ((1, 1),))
    k, incl = f.kernel()
    assert k.invariants() == (1, ())
    assert f.compose(incl).is_zero_hom()


def test_kernels_read_past_explicit_zero_entries():
    # a stored zero is no entry: the zero map Z -> Z has kernel Z, and
    # (a, b) |-> b on Z^2 has kernel Z on (1, 0)
    k, incl = AbHom.from_columns(Z, Z, [{0: 0}]).kernel()
    assert k.invariants() == (1, ())
    assert incl.cols == ({0: 1},)
    k, incl = AbHom.from_columns(AbGroup.free(2), Z, [{0: 0}, {0: 1}]).kernel()
    assert k.invariants() == (1, ())
    assert incl.cols == ({0: 1},)
    # nor is a stored zero a unit pivot or a relation
    assert la.prune_units([{0: 0}]) == (0, ())
    assert la.prune_units([{0: 0, 1: 1}, {0: 2}]) == (1, ((2,),))
    assert AbGroup.from_columns(2, [{0: 0}, {1: 0, 0: 3}]).invariants() == (1, (3,))


def test_homology_of_times_two():
    #  0 -> Z --x2--> Z -> 0, homology at degree 0 is Z/2
    c = ChainComplex(
        groups={0: Z, 1: Z},
        diffs={1: AbHom(Z, Z, ((2,),))},
    ).check()
    assert c.homology(0).invariants() == (0, (2,))
    assert c.homology(1).is_trivial()


def test_homology_zero_complex():
    c = ChainComplex(groups={}, diffs={})
    assert c.homology(0).is_trivial()
    assert c.homology(5).is_trivial()


def test_homology_zero_differential():
    c = ChainComplex(
        groups={0: Z, 1: Z},
        diffs={1: AbHom.zero(Z, Z)},
    ).check()
    assert c.homology(0).invariants() == (1, ())
    assert c.homology(1).invariants() == (1, ())


def test_homology_class_roundtrip():
    c = ChainComplex(groups={0: Z, 1: Z}, diffs={1: AbHom(Z, Z, ((2,),))})
    h = c.homology(0)
    w = c.homology_class(0, (1,))
    z = c.cycle_of_class(0, w)
    assert c.homology_class(0, z) == w
    assert not h.is_zero_element(w)
    assert h.is_zero_element(c.homology_class(0, (2,)))


def test_direct_sum_structure():
    total, incls, projs = direct_sum([Z, Z2])
    assert total.invariants() == (1, (2,))
    assert projs[0].compose(incls[0]).same_as(AbHom.identity(Z))
    assert projs[1].compose(incls[0]).is_zero_hom()


def test_exactness_helpers():
    f = AbHom(Z, Z, ((2,),))
    proj = AbHom(Z, Z2, ((1,),))
    assert is_exact_at(f, proj)
    assert not is_exact_at(f.compose(f), proj)
    assert homology_at(f.compose(f), proj).invariants() == (0, (2,))


def test_connecting_hom_bockstein():
    # 0 -> Z -x2-> Z -> Z/2 -> 0 applied to the circle complex Z -0-> Z
    circle_z = ChainComplex(groups={0: Z, 1: Z}, diffs={1: AbHom.zero(Z, Z)})
    circle_z2 = ChainComplex(
        groups={0: Z2, 1: Z2}, diffs={1: AbHom.zero(Z2, Z2)}
    )
    f = ChainMap(circle_z, circle_z, {0: AbHom(Z, Z, ((2,),)), 1: AbHom(Z, Z, ((2,),))}).check()
    g = ChainMap(circle_z, circle_z2, {0: AbHom(Z, Z2, ((1,),)), 1: AbHom(Z, Z2, ((1,),))}).check()
    d = connecting_hom(f, g, 1)
    # boundary of the mod-2 circle class is zero here (trivial differential)
    assert d.is_zero_hom()


def test_connecting_hom_nontrivial():
    # A: 0 -> Z -> 0 (degree 0), B: Z -id-> Z, C = B/A: degree 1 copy of Z
    a = ChainComplex(groups={0: Z, 1: AbGroup.zero()}, diffs={})
    b = ChainComplex(groups={0: Z, 1: Z}, diffs={1: AbHom(Z, Z, ((1,),))})
    cq = ChainComplex(groups={0: AbGroup.zero(), 1: Z}, diffs={})
    f = ChainMap(a, b, {0: AbHom.identity(Z)}).check()
    g = ChainMap(b, cq, {1: AbHom.identity(Z)}).check()
    d = connecting_hom(f, g, 1)
    # H_1(C) = Z maps isomorphically onto H_0(A) = Z
    assert d.is_iso()


def test_induced_map_on_homology():
    c = ChainComplex(groups={0: Z, 1: Z}, diffs={1: AbHom(Z, Z, ((2,),))})
    f = ChainMap(c, c, {0: AbHom(Z, Z, ((3,),)), 1: AbHom(Z, Z, ((3,),))}).check()
    ind = f.induced(0)
    # x3 on Z/2 is the identity
    assert ind.same_as(AbHom.identity(c.homology(0)))


# -- block assembly -------------------------------------------------------------


def dense_block_sum(src_groups, tgt_groups, entries):
    """Reference: the running sum of incl o block o proj over dense matrices."""
    src_total, _, projs = direct_sum(src_groups)
    tgt_total, incls, _ = direct_sum(tgt_groups)
    h = AbHom.zero(src_total, tgt_total)
    for ti, si, blk in entries:
        h = h + incls[ti].compose(blk).compose(projs[si])
    return h


small_ints = st.integers(-3, 3)


@st.composite
def groups(draw, torsion=False):
    """A small presented group; relation columns give torsion summands."""
    n = draw(st.integers(1 if torsion else 0, 3))
    k = draw(st.integers(1 if torsion else 0, 2))
    if n == 0:
        return AbGroup.zero()
    return AbGroup(n, tuple(map(tuple, draw(matrices(n, k)))))


def matrices(m, n):
    return st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=m, max_size=m)


@st.composite
def block_systems(draw):
    src = draw(st.lists(groups(), min_size=1, max_size=4))
    tgt = draw(st.lists(groups(), min_size=1, max_size=4))
    positions = st.tuples(st.integers(0, len(tgt) - 1), st.integers(0, len(src) - 1))
    entries = []
    for ti, si in draw(st.lists(positions, max_size=8)):
        mat = draw(matrices(tgt[ti].ngens, src[si].ngens))
        entries.append((ti, si, AbHom(src[si], tgt[ti], mat)))
    return src, tgt, entries


@settings(max_examples=60, deadline=None)
@given(block_systems())
def test_assemble_block_hom_matches_dense_sum(system):
    src, tgt, entries = system
    h, src_total, tgt_total = assemble_block_hom(src, tgt, entries)
    assert h == dense_block_sum(src, tgt, entries)
    assert (src_total, tgt_total) == (h.src, h.tgt)
    assert direct_sum_data(src)[0] == direct_sum(src)[0]
    offsets = [sum(g.ngens for g in src[:i]) for i in range(len(src))]
    assert direct_sum_data(src)[1] == offsets


# -- sparse columns and the dense matrix ----------------------------------------


@st.composite
def presentations(draw):
    """(ngens, sparse relation columns) with torsion, zero rows and columns,
    no generators, and, when scaled, no unit entry at all."""
    n = draw(st.integers(0, 7))
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    entries = st.integers(-4, 4).map(lambda x: scale * x)
    rows = st.integers(0, max(n - 1, 0))
    cols = draw(st.lists(st.dictionaries(rows, entries, max_size=n), max_size=8))
    return n, [{i: x for i, x in col.items() if x} for col in cols]


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_unit_pivot_invariants_match_dense_snf(presentation):
    n, cols = presentation
    g, reference = AbGroup.from_columns(n, cols), AbGroup(n, la.dense(cols, n))
    assert g == reference and hash(g) == hash(reference) and g.rels == reference.rels
    facs = la.invariant_factors(g.rels)
    assert g.invariants() == (n - len(facs), tuple(d for d in facs if d != 1))


def by_columns(h):
    """The same hom made from sparse columns, keys in descending row order."""
    m, n = h.tgt.ngens, h.src.ngens
    cols = [{i: h.mat[i][j] for i in reversed(range(m)) if h.mat[i][j]} for j in range(n)]
    return AbHom.from_columns(h.src, h.tgt, cols)


def hstack(a, b):
    """The dense matrices a and b side by side."""
    if not a:
        return b
    if not b:
        return a
    if len(a) != len(b):
        raise ValueError("hstack of %d and %d rows" % (len(a), len(b)))
    return tuple(ra + rb for ra, rb in zip(a, b))


def dense_reduction(f):
    """Reference: the solver for f(x) = y mod tgt relations on [mat | rels]."""
    return la.reduction(hstack(f.mat, f.tgt.rels), f.tgt.ngens, f.src.ngens + nrels(f.tgt))


def dense_kernel_and_image(f):
    """Reference: kernel and image groups and the kernel's inclusion matrix,
    computed on dense matrices."""
    n = f.src.ngens
    sols = la.kernel_basis(hstack(f.mat, f.tgt.rels), f.tgt.ngens, n + nrels(f.tgt))
    r = len(sols[0]) if sols else 0
    basis, nl = sols[:n], nrels(f.src)
    aug = hstack(basis, f.src.rels) if nl else basis
    rels = la.kernel_basis(aug, n, r + nl)[:r] if n else la.identity(r)
    return AbGroup(r, rels), basis, AbGroup(n, basis)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sparse_and_dense_homs_agree(data):
    src, other = data.draw(groups()), data.draw(groups())
    tgt = data.draw(st.one_of(groups(), groups(torsion=True)))

    def hom(a, b):
        return AbHom(a, b, data.draw(matrices(b.ngens, a.ngens)))

    f, f2, g, b = hom(src, tgt), hom(src, tgt), hom(other, src), hom(other, tgt)
    x = tuple(data.draw(matrices(1, src.ngens))[0])
    kernel, basis, image = dense_kernel_and_image(f)
    bcols = [tuple(b.mat[i][j] for i in range(tgt.ngens)) for j in range(other.ngens)]
    lifts = [dense_reduction(f).solve(col) for col in bcols]
    lift = None if None in lifts else tuple(tuple(v[i] for v in lifts) for i in range(src.ngens))
    for h, h2, k, c in ((f, f2, g, b), tuple(map(by_columns, (f, f2, g, b)))):
        assert h == f and h.mat == f.mat
        assert h.compose(k).mat == la.matmul(f.mat, g.mat, other.ngens)
        assert (h + h2).mat == la.matadd(f.mat, f2.mat)
        assert h(x) == la.apply(f.mat, x)
        k_group, k_incl = h.kernel()
        assert (k_group, k_incl.mat) == (kernel, basis)
        assert h.compose(k_incl).is_zero_hom()
        img, incl, proj = h.image()
        assert (img, incl.mat, proj.mat) == (image, f.mat, la.identity(src.ngens))
        got = h.preimage_matrix(c)
        assert (got if got is None else got.mat) == lift
        if got is not None:
            assert (h.compose(got) - c).is_zero_hom()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_and_cokernel_are_exact(data):
    src = data.draw(groups())
    tgt = data.draw(st.one_of(groups(), groups(torsion=True)))
    f = AbHom(src, tgt, data.draw(matrices(tgt.ngens, src.ngens)))
    assume(f.is_well_defined())
    _, incl = f.kernel()
    _, proj = f.cokernel()
    assert incl.is_injective() and proj.is_surjective()
    assert is_exact_at(incl, f) and is_exact_at(f, proj)
    # the first isomorphism theorem: im f = src / ker f
    assert iso_eq(f.image()[0], incl.cokernel()[0])


def test_assemble_block_hom_rejects_out_of_range_positions():
    block = AbHom.identity(Z)
    for position in [(1, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(ContractError):
            assemble_block_hom([Z, Z2], [Z], [(*position, block)])


def test_assemble_block_hom_rejects_misfitting_blocks():
    Z_2 = AbGroup.free(2)
    wide = AbHom(Z_2, Z, ((1, 1),))
    with pytest.raises(ContractError):
        assemble_block_hom([Z, Z_2], [Z], [(0, 0, wide)])
    tall = AbHom(Z, Z_2, ((1,), (1,)))
    with pytest.raises(ContractError):
        assemble_block_hom([Z], [Z, Z_2], [(0, 0, tall)])


# -- complexes with zero degrees ------------------------------------------------


@st.composite
def sparse_complexes(draw, torsion):
    """A presented complex in degrees 0..top with zero groups interleaved.

    No three consecutive degrees have generators, so d d = 0 by
    construction.  A generator has modulus 0 (free) or, with torsion, 2, 3
    or 4; each entry of d is scaled so that d maps relations to relations.
    """
    top = draw(st.integers(1, 5))
    sizes = []
    for n in range(top + 1):
        size = draw(st.integers(0, 3))
        sizes.append(0 if n >= 2 and sizes[-1] and sizes[-2] else size)
    modulus = st.sampled_from([0, 2, 3, 4]) if torsion else st.just(0)
    moduli = [[draw(modulus) for _ in range(k)] for k in sizes]
    groups = {
        n: AbGroup.from_columns(len(ms), [{i: m} for i, m in enumerate(ms) if m])
        for n, ms in enumerate(moduli)
    }
    diffs = {}
    for n in range(1, top + 1):
        mat = [list(row) for row in draw(matrices(sizes[n - 1], sizes[n]))]
        for j, mt in enumerate(moduli[n - 1]):
            for i, m in enumerate(moduli[n]):
                if m:
                    mat[j][i] = mat[j][i] * mt // gcd(mt, m) if mt else 0
        diffs[n] = AbHom(groups[n], groups[n - 1], mat)
    return ChainComplex(groups, diffs).check()


def snf_homology(complex_, n):
    """(free rank, torsion) of H_n by Smith forms in sympy.

    H_n = Z_n / B_n.  Z_n = {x : d_n x lies in the relations of C_{n-1}} is
    spanned by the columns of p, the head of the kernel of [d_n | rels], and
    B_n by the relations of C_n and the image of d_{n+1}.  With U p V = S
    of rank k, p X = B_n and ker p is spanned by the last columns of V, so
    H_n is the cokernel of [X | ker p].
    """
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

    def smith(m):
        s, u, v = smith_normal_decomp(sympy.Matrix(m), domain=sympy.ZZ)
        return [s[i, i] for i in range(min(s.shape)) if s[i, i]], u, v

    g, low = complex_.group(n), complex_.group(n - 1)
    if not g.ngens:
        return 0, ()
    if low.ngens:
        a = [d + r for d, r in zip(complex_.diff(n).mat, low.rels)]
        diag, _, v = smith(a)
        p = v[: g.ngens, len(diag) :]
    else:
        p = sympy.eye(g.ngens)
    if not p.cols:
        return 0, ()
    diag, u, v = smith(p)
    k = len(diag)
    cols = [list(v.col(j)) for j in range(k, v.cols)]
    b = [r + d for r, d in zip(g.rels, complex_.diff(n + 1).mat)]
    if b[0]:
        ub = u * sympy.Matrix(b)
        y = sympy.Matrix(k, ub.cols, lambda i, j: ub[i, j] / diag[i])
        assert all(e.is_integer for e in y) and not any(ub[k:, :])  # B_n lies in Z_n
        x = v[:, :k] * y
        cols += [list(x.col(j)) for j in range(x.cols)]
    if not cols:
        return p.cols, ()
    facs = [int(d) for d in invariant_factors(sympy.Matrix(cols).T, domain=sympy.ZZ) if d]
    return p.cols - len(facs), tuple(d for d in facs if d != 1)


@settings(max_examples=120, deadline=None)
@given(st.booleans().flatmap(sparse_complexes), st.data())
def test_homology_with_zero_degrees_matches_the_smith_oracle(complex_, data):
    c = complex_
    top = max(c.degrees())
    ident = ChainMap(c, c, {n: AbHom.identity(c.group(n)) for n in c.degrees()})
    for n in range(-1, top + 2):
        h = c.homology(n)
        assert h.invariants() == snf_homology(c, n)
        assert homology_at(c.diff(n + 1), c.diff(n)).invariants() == h.invariants()
        assert ident.induced(n).same_as(AbHom.identity(h))
        # homology_class inverts cycle_of_class on every class
        w = tuple(data.draw(matrices(1, h.ngens))[0])
        for v in [w] + [tuple(int(i == j) for j in range(h.ngens)) for i in range(h.ngens)]:
            assert h.elements_equal(c.homology_class(n, c.cycle_of_class(n, v)), v)


def test_zero_middle_groups_keep_the_composability_checks():
    zero = AbGroup.zero()
    assert homology_at(AbHom.zero(Z, zero), AbHom.zero(zero, Z2)) is zero
    for f, g in [
        (AbHom.zero(Z, zero), AbHom.identity(Z)),
        (AbHom.identity(Z), AbHom.zero(zero, Z)),
    ]:
        with pytest.raises(ContractError, match="cannot compose"):
            homology_at(f, g)
    with pytest.raises(ContractError, match="composite is not zero"):
        homology_at(AbHom.identity(Z), AbHom.identity(Z))


def test_exactness_needs_the_middle_groups_to_agree():
    # f: Z -> Z/2 and g: Z -> Z have matching shapes and g o f = 0, but the
    # middle groups Z/2 and Z differ
    f, g = AbHom.zero(Z, Z2), AbHom.zero(Z, Z)
    for check in (is_exact_at, homology_at):
        with pytest.raises(ContractError, match="cannot compose"):
            check(f, g)


@st.composite
def composable_pairs(draw):
    """Homs f: A -> B and g: B -> C, each group free or with Z/2, Z/3 or Z/4
    summands.  The columns of f are combinations of the kernel generators of
    g and the relations of B, so g o f = 0, unless one entry of f is then
    moved by one."""

    def group():
        moduli = [draw(st.sampled_from([0, 0, 2, 3, 4])) for _ in range(draw(st.integers(0, 3)))]
        return AbGroup.from_columns(len(moduli), [{i: m} for i, m in enumerate(moduli) if m])

    a, b, c = group(), group(), group()
    g = AbHom(b, c, draw(matrices(c.ngens, b.ngens)))
    span = [*g.kernel()[1].cols, *b.relcols]
    coeffs = st.lists(st.integers(-2, 2), min_size=len(span), max_size=len(span))
    cols = [la.combine(span, enumerate(draw(coeffs))) for _ in range(a.ngens)]
    if a.ngens and b.ngens and draw(st.booleans()):
        j, i = draw(st.integers(0, a.ngens - 1)), draw(st.integers(0, b.ngens - 1))
        cols[j] = la.combine([cols[j], {i: 1}], [(0, 1), (1, 1)])
    return AbHom.from_columns(a, b, cols), g


@settings(max_examples=200, deadline=None)
@given(composable_pairs())
def test_exactness_from_the_maps_matches_the_homology(pair):
    f, g = pair
    if g.compose(f).is_zero_hom():
        assert is_exact_at(f, g) == homology_at(f, g).is_trivial()
    else:
        for check in (is_exact_at, homology_at):
            with pytest.raises(ContractError, match="composite is not zero"):
                check(f, g)


def test_connecting_hom_still_lifts_into_a_zero_homology():
    # A is zero, so every H(A) is zero; C = Z in degree 1 with H_1(C) = Z
    zero = AbGroup.zero()
    a = ChainComplex(groups={0: zero, 1: zero}, diffs={})
    c = ChainComplex(groups={0: zero, 1: Z}, diffs={})
    # B = 0: the class of C does not lift to B
    b = ChainComplex(groups={0: zero, 1: zero}, diffs={})
    f, g = ChainMap(a, b, {}), ChainMap(b, c, {})
    with pytest.raises(ContractError, match="not surjective"):
        connecting_hom(f, g, 1)
    # B = Z -id-> Z: the class lifts, but its boundary misses A
    b = ChainComplex(groups={0: Z, 1: Z}, diffs={1: AbHom.identity(Z)})
    f, g = ChainMap(a, b, {}), ChainMap(b, c, {1: AbHom.identity(Z)})
    with pytest.raises(ContractError, match="does not lift"):
        connecting_hom(f, g, 1)


# -- input contracts ------------------------------------------------------------


def test_input_contracts_raise_contract_error():
    with pytest.raises(ContractError):
        AbGroup(2, ((1,),))
    with pytest.raises(ContractError):
        Z2.is_zero_element((0, 0))
    with pytest.raises(ContractError):
        AbHom.identity(Z).compose(AbHom.identity(AbGroup.free(2)))
    with pytest.raises(ContractError):
        AbHom.identity(Z) + AbHom.zero(Z, Z2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: AbGroup(2, ((1, 2), (3,))),  # once zero-padded to Z/6
        lambda: AbGroup(2, ((1,), (3, 4))),  # once a bare IndexError
        lambda: AbHom(AbGroup.free(2), AbGroup.free(2), ((1, 0), (0,))),  # once accepted
    ],
    ids=["short-second-relation-row", "long-second-relation-row", "short-hom-row"],
)
def test_ragged_dense_matrices_raise_contract_error(build):
    with pytest.raises(ContractError, match="rows have lengths \\[1, 2\\]"):
        build()


def test_input_contracts_hold_under_optimized_python():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from eqmack import intlinalg as la\n"
        "from eqmack.abelian import AbGroup, AbHom, ChainComplex, ContractError\n"
        "from eqmack.groups import FiniteGroup, subgroup_classes\n"
        "from eqmack.gsets import GMap, GSetError, point_gset, regular_gset\n"
        "from eqmack.homotopy import HomotopyError, coefficient_les, cofibration_les\n"
        "from eqmack.homotopy import omega_spectrum_check\n"
        "from eqmack.mackey import MackeyError, MackeyMorphism, OrbitMap, constant_mackey\n"
        "from eqmack.mackey import fixed_point_morphism\n"
        "from eqmack.simplicial import SimplicialError, discrete_inclusion, s0_space, sign_rep\n"
        "from eqmack.simplicial import sphere_for_descriptors, trivial_rep\n"
        "from eqmack.tensor import ses_from_coefficients, ses_from_cofibration\n"
        "C2 = FiniteGroup.cyclic(2)\n"
        "e, g = subgroup_classes(C2)\n"
        "pt, reg = GMap.identity(point_gset(C2)), GMap.identity(regular_gset(C2))\n"
        "Z = constant_mackey(C2, AbGroup.free(1))\n"
        "def les(bound):\n"
        "    X = sphere_for_descriptors(C2, [sign_rep()] * 2, bound)\n"
        "    incl = discrete_inclusion(s0_space(C2, bound), X, (0, 1))\n"
        "    return cofibration_les(ses_from_cofibration(incl, Z), g, 1)\n"
        "sig = sphere_for_descriptors(C2, [sign_rep()], 4)\n"
        "cofib = ses_from_cofibration(discrete_inclusion(s0_space(C2, 4), sig, (0, 1)), Z)\n"
        "one, Z2 = AbGroup.free(1), AbGroup.cyclic(2)\n"
        "twice = MackeyMorphism(Z, Z, {r.class_id: AbHom(one, one, ((2,),)) for r in (e, g)})\n"
        "mod2 = fixed_point_morphism(Z, constant_mackey(C2, Z2), AbHom(one, Z2, ((1,),)))\n"
        "coef = ses_from_coefficients(twice, mod2, sig)\n"
        "two = AbGroup.free(2)\n"
        "flat = ChainComplex(groups={0: two}, diffs={})\n"
        "cases = [\n"
        "    (ContractError, lambda: AbGroup(2, ((1,),))),\n"
        "    (ContractError, lambda: one.elements_equal((0,), (0, 5))),\n"
        "    (ContractError, lambda: two.element_key((1,))),\n"
        "    (ContractError, lambda: AbHom.identity(two)((1,))),\n"
        "    (ContractError, lambda: AbHom.identity(two)((1, 0, 7))),\n"
        "    (ContractError, lambda: AbHom.identity(two).preimage((1, 0, 7))),\n"
        "    (ContractError, lambda: flat.homology_class(0, (1,))),\n"
        "    (ContractError, lambda: flat.cycle_of_class(0, (1, 0, 7))),\n"
        "    (ValueError, lambda: la.matmul(((1,),), ((1,), (2,)))),\n"
        "    (GSetError, lambda: pt.compose(reg)),\n"
        "    (MackeyError, lambda: OrbitMap.identity(e).compose(OrbitMap.identity(g))),\n"
        "    (HomotopyError, lambda: les(1)),\n"
        "    (HomotopyError, lambda: cofibration_les(cofib, g, -1)),\n"
        "    (HomotopyError, lambda: coefficient_les(coef, g, -1)),\n"
        "    (HomotopyError, lambda: omega_spectrum_check(s0_space(C2, 2), Z, trivial_rep(3), 1)),\n"
        "    (HomotopyError, lambda: omega_spectrum_check(s0_space(C2, 2), Z, sign_rep(), 2)),\n"
        "    (HomotopyError, lambda: omega_spectrum_check(s0_space(C2, 2), Z, sign_rep(), -1)),\n"
        "    (SimplicialError, lambda: sphere_for_descriptors(C2, [sign_rep()]).operator((0, 1), 0, 1)),\n"
        "    (SimplicialError, lambda: sphere_for_descriptors(C2, [trivial_rep(-1)], 3)),\n"
        "]\n"
        "for error, call in cases:\n"
        "    try:\n"
        "        call()\n"
        "    except error:\n"
        "        print('rejected')\n" % src
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert run.stdout.split() == ["rejected"] * 19, run.stderr


# -- answers read off the columns over free groups -------------------------------


@st.composite
def shortcut_groups(draw):
    """A free group, a group with relations, or one with an empty relation column."""
    n = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["free", "free", "relations", "empty"]))
    if kind == "free" or n == 0:
        return AbGroup.free(n)
    if kind == "empty":
        return AbGroup.from_columns(n, [{}])
    return AbGroup(n, tuple(map(tuple, draw(matrices(n, draw(st.integers(1, 2)))))))


@st.composite
def stored_zeros(draw, h):
    """h with an explicit 0 stored in some columns, at a row they leave empty."""
    cols, m = [], h.tgt.ngens
    for col in h.cols:
        col = dict(col)
        if m and draw(st.booleans()):
            col.setdefault(draw(st.integers(0, m - 1)), 0)
        cols.append(col)
    return AbHom.from_columns(h.src, h.tgt, cols)


@st.composite
def shortcut_homs(draw, src=None, tgt=None):
    """A hom whose columns are a signed partial permutation, or small integers."""
    src = draw(shortcut_groups()) if src is None else src
    tgt = draw(shortcut_groups()) if tgt is None else tgt
    m, n = tgt.ngens, src.ngens
    if draw(st.booleans()):
        rows, cols = draw(st.permutations(range(max(m, n)))), []
        for j in range(n):
            # a zero column one time in four, so that some homs are isos
            unit = rows[j] < m and draw(st.integers(0, 3)) > 0
            cols.append({rows[j]: draw(st.sampled_from([1, -1]))} if unit else {})
        return AbHom.from_columns(src, tgt, cols)
    return AbHom(src, tgt, draw(matrices(m, n)))


# The general route reads columns with zeros omitted, as AbHom stores them;
# an explicit 0 is compared where an answer is read off the columns alone.


@settings(max_examples=300, deadline=None)
@given(shortcut_homs(), st.data())
def test_structural_answers_agree_with_the_general_route(h, data):
    injective, surjective = general_is_injective(h), general_is_surjective(h)
    stored = data.draw(stored_zeros(h))
    for f in (h, stored) if h._unit_rows() is not None else (h,):
        assert f._unit_rows() == h._unit_rows()
        assert f.is_injective() == injective
        assert f.is_surjective() == surjective
        assert f.is_iso() == (injective and surjective)
    k, incl = h.kernel()
    assert k == general_kernel(h) and k.invariants() == general_kernel(h).invariants()
    assert incl.src == k and incl.tgt == h.src and h.compose(incl).is_zero_hom()


@settings(max_examples=200, deadline=None)
@given(shortcut_homs(), st.data())
def test_contains_and_same_as_agree_with_the_general_route(h, data):
    k = data.draw(st.one_of(st.just(h), shortcut_homs(h.src, h.tgt)))
    h0, k0 = data.draw(stored_zeros(h)), data.draw(stored_zeros(k))
    assert h0.same_as(k0) == h.same_as(k) == general_same_as(h, k)
    assert h0.same_as(h) and k0.same_as(k)
    for col, col0 in zip((*h.cols, *k.cols), (*h0.cols, *k0.cols)):
        assert h.tgt.contains(col) == lattice_contains(h.tgt, col)
        if not h.tgt.relcols:
            assert h.tgt.contains(col0) == lattice_contains(h.tgt, col)


def test_structural_answers_by_hand():
    Z_2, Z_3 = AbGroup.free(2), AbGroup.free(3)
    turn = AbHom(Z_2, Z_2, ((0, 1), (-1, 0)))
    assert turn._unit_rows() == 2 and turn.is_iso()
    shear = AbHom(Z_2, Z_2, ((1, 1), (0, 1)))
    assert shear._unit_rows() is None and shear.is_iso()
    assert AbHom.identity(Z2).is_iso()
    fold = AbHom(Z_2, Z, ((1, 1),))
    assert not fold.is_injective() and fold.is_surjective()
    zero_column = AbHom(Z_2, Z_2, ((1, 0), (0, 0)))
    assert not zero_column.is_injective() and not zero_column.is_surjective()
    partial = AbHom(Z_2, Z_3, ((0, -1), (1, 0), (0, 0)))
    assert partial.is_injective() and not partial.is_surjective() and not partial.is_iso()
    # an explicit 0 is no entry: the column is zero
    stored = AbHom.from_columns(Z_2, Z_2, [{0: 1, 1: 0}, {0: 0}])
    assert not stored.is_injective() and Z_2.contains({1: 0}) and not Z_2.contains({1: 2})
    assert stored.same_as(AbHom(Z_2, Z_2, ((1, 0), (0, 0))))
    # a kernel without solutions is the zero group, its inclusion without columns
    k, incl = turn.kernel()
    assert k == AbGroup.zero() and incl.cols == () and incl.tgt == Z_2
    assert incl.preimage((0, 0)) == ()


def test_same_as_still_refuses_mismatched_homs():
    with pytest.raises(ContractError):
        AbHom.zero(Z2, Z).same_as(AbHom.zero(Z, Z))
    with pytest.raises(ContractError):
        AbHom.zero(Z, Z).same_as(AbHom.zero(Z, AbGroup.free(2)))
