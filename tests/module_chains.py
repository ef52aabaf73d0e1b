"""Normalized chains of a ModuleTensor, built block by block.

The oracle that W-equivariant Hom complexes (their fixed ranks) and the
homology of simplicial sets are checked against: an alternating sum of
faces on one copy of A per nondegenerate support simplex.  The face maps
on every support block, routed_hom, are the references' level maps.
"""

from eqmack import abelian as ab
from eqmack.abelian import AbHom


def normalized_support(mt, n):
    """The nondegenerate support simplices of level n of mt."""
    flags = mt.K.degenerate_flags(n)
    return tuple(x for x in mt.support(n) if not flags[x])


def chain_complex(mt):
    """Alternating-sum complex on the normalized (nondegenerate) blocks;
    a face that lands on a degenerate simplex or the basepoint vanishes."""
    A = mt.A.value
    keeps = [normalized_support(mt, n) for n in range(mt.K.bound + 1)]
    groups = {n: ab.direct_sum_data([A] * len(keep))[0] for n, keep in enumerate(keeps)}
    signs = (AbHom.identity(A), -AbHom.identity(A))
    diffs = {}
    for n in range(1, mt.K.bound + 1):
        pos = {x: i for i, x in enumerate(keeps[n - 1])}
        entries = [
            (pos[face.values[x]], j, signs[i % 2])
            for i, face in enumerate(mt.K.faces[n])
            for j, x in enumerate(keeps[n])
            if face.values[x] in pos
        ]
        src, tgt = [A] * len(keeps[n]), [A] * len(keeps[n - 1])
        diffs[n] = ab.assemble_block_hom(src, tgt, entries)[0]
    return ab.ChainComplex(groups=groups, diffs=diffs)


def chain_action(mt, n, w):
    """The action of w on level n of chain_complex(mt): the block of x goes
    to the block of w x through the action of w on A."""
    keep = normalized_support(mt, n)
    pos = {x: i for i, x in enumerate(keep)}
    act, aw = mt.K.levels[n].action[w], mt.A.hom(w)
    blocks = [(pos[act[x]], i, aw) for i, x in enumerate(keep) if act[x] in pos]
    summands = [mt.A.value] * len(keep)
    return ab.assemble_block_hom(summands, summands, blocks)[0]


def routed_hom(A, sup_src, sup_tgt, table):
    """The hom between sums of copies of A, one per support simplex, that
    sends the block of x to the block of table[x]; a block sent off the
    target support vanishes."""
    pos = {x: i for i, x in enumerate(sup_tgt)}
    ident = AbHom.identity(A)
    blocks = [
        (pos[table[x]], i, ident) for i, x in enumerate(sup_src) if table[x] in pos
    ]
    return ab.assemble_block_hom([A] * len(sup_src), [A] * len(sup_tgt), blocks)[0]


def face_hom(mt, n, i):
    """The i-th face of mt from level n to level n - 1, on every support block."""
    table = mt.K.faces[n][i].values
    return routed_hom(mt.A.value, mt.support(n), mt.support(n - 1), table)
