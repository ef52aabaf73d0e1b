import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    hom_group,
    homology_at,
    is_exact_at,
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


def test_hom_groups():
    h, _, _ = hom_group(Z2, Z)
    assert h.is_trivial()
    h, basis, ev = hom_group(Z2, Z4)
    assert h.invariants() == (0, (2,))
    # the generator sends 1 to 2 mod 4
    gen = next(b for b in basis if not b.is_zero_hom())
    assert Z4.elements_equal(gen((1,)), (2,))
    h, _, _ = hom_group(AbGroup.free(2), Z)
    assert h.invariants() == (2, ())


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


def by_columns(h):
    """The same hom made from sparse columns, keys in descending row order."""
    m, n = h.tgt.ngens, h.src.ngens
    cols = [{i: h.mat[i][j] for i in reversed(range(m)) if h.mat[i][j]} for j in range(n)]
    return AbHom.from_columns(h.src, h.tgt, cols)


def dense_reduction(f):
    """Reference: the solver for f(x) = y mod tgt relations on [mat | rels]."""
    return la.reduction(la.hstack(f.mat, f.tgt.rels), f.tgt.ngens, f.src.ngens + f.tgt.nrels)


def dense_kernel_and_image(f):
    """Reference: kernel and image groups and the kernel's inclusion matrix,
    computed on dense matrices."""
    n = f.src.ngens
    sols = la.kernel_basis(la.hstack(f.mat, f.tgt.rels), f.tgt.ngens, n + f.tgt.nrels)
    r = len(sols[0]) if sols else 0
    basis, nl = sols[:n], f.src.nrels
    aug = la.hstack(basis, f.src.rels) if nl else basis
    rels = la.kernel_basis(aug, n, r + nl)[:r] if n else la.identity(r)
    return AbGroup(r, rels), basis, AbGroup(n, basis if sols else la.zeros(n, 0))


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
    lift = None if None in lifts else la.transpose(tuple(v[: src.ngens] for v in lifts), src.ngens)
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


def test_input_contracts_hold_under_optimized_python():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from eqmack import intlinalg as la\n"
        "from eqmack.abelian import AbGroup, ContractError\n"
        "from eqmack.groups import FiniteGroup, subgroup_classes\n"
        "from eqmack.gsets import GMap, GSetError, point_gset, regular_gset\n"
        "from eqmack.homotopy import HomotopyError, MappingComplex, omega_spectrum_check\n"
        "from eqmack.mackey import MackeyError, OrbitMap, constant_mackey\n"
        "from eqmack.simplicial import s0_space, sign_rep, sphere_for_descriptors, trivial_rep\n"
        "from eqmack.tensor import reduced_tensor\n"
        "C2 = FiniteGroup.cyclic(2)\n"
        "e, g = subgroup_classes(C2)\n"
        "pt, reg = GMap.identity(point_gset(C2)), GMap.identity(regular_gset(C2))\n"
        "Z = constant_mackey(C2, AbGroup.free(1))\n"
        "def maps(kb, xb):\n"
        "    T = reduced_tensor(sphere_for_descriptors(C2, [trivial_rep(1)], xb), Z)\n"
        "    return MappingComplex(s0_space(C2, kb), T, 4)\n"
        "cases = [\n"
        "    (ContractError, lambda: AbGroup(2, ((1,),))),\n"
        "    (ValueError, lambda: la.hstack(((1,),), ((1,), (2,)))),\n"
        "    (GSetError, lambda: pt.compose(reg)),\n"
        "    (MackeyError, lambda: OrbitMap.identity(e).compose(OrbitMap.identity(g))),\n"
        "    (HomotopyError, lambda: maps(1, 1).homotopy_group(1)),\n"
        "    (HomotopyError, lambda: maps(4, 2)),\n"
        "    (HomotopyError, lambda: omega_spectrum_check(s0_space(C2, 2), Z, sign_rep(), 2)),\n"
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
    assert run.stdout.split() == ["rejected"] * 7, run.stderr
