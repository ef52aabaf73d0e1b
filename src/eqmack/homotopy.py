"""Homotopy-level computations: normalized chains, Bredon homology,
equivariant mapping complexes, loop-space comparisons, graded tables.

Normalized chains N_n are built on the nondegenerate n-simplices as the
space stores them (SimplicialGSet.nd, nd_faces), without a full level: the
degenerate chains D are a subcomplex and N = C/D, so a face stored with a
degeneracy, or on the basepoint, is dropped.  The chain engine,
MackeyChainComplex, reads a cell table: per degree n, (cells, table), the
G-set of cells and the boundary table {x: {y: c}} keyed by the cells kept,
the base left out of a reduced one and standing for the sink of every
level.  Three things make one: _boundary, each degree's normalized table
on nd[n], which the exact sequences and the source of a mapping complex
read too; _morse, the critical table of a Morse matching on the space; and
_tensor, the matched tensor of two tables.  Bredon homology reads _cells:
a smash's from its factors' by _tensor, so no smash is laid out, and any
other space's from _morse, so M is evaluated on few orbits.

Homotopy groups of mapping objects are read from Hom complexes of
normalized chains.  The target T is a simplicial abelian group, so based
maps K -> T are the homs Z~K -> T, and by Dold-Kan pi_n of the mapping
space is H_n of Hom(N Z~K, N T), whose degree n holds the natural families
N_k Z~K -> N_{k+n} T, one free block per orbit representative, from degree
-1 up, so that the chain maps are the cycles of D_0.  There is one engine,
MappingComplex, over the orbit category.  Its chart at G/H is K^H as a
subset of K, its H-fixed nondegenerate simplices, and an orbit map G/J ->
G/H of element c acts on it by c, so no fixed-point space is built and the
source lays out no full level.  A W-equivariant map Z~K -> A[Y]
is a family natural over the orbit category of W into Y (x~) R_A, where
R_A is the fixed-point functor W/J |-> A^J, so that (Y (x~) R_A)(W/J) is
A~[Y]^J (Elmendorf, Systems of fixed point sets, 1983); the
EquivariantMappingComplex is that orbit-category complex.  The loop
comparison lifts a cycle by the Eilenberg-Zilber shuffle map, on shuffle
pairs among the nondegenerate simplices of S^W smash X.

Truncation.  Every space is cut off at its bound, and by Dold-Kan two rules
decide what such a cut reads exactly, each stated once below.  The chain
rule (_check_degree): chains cut off at bound b lack d_{b+1}, so H_n is read
only for n < b.  The source rule (_check_dimension): a sphere S^V built at
X.bound has no nondegenerate simplex past it only when dim V <= X.bound.  A
MappingComplex is exact when K and T.X have no nondegenerate simplex past
their bounds.  Below the bound, a level with no kept simplex is the zero
group: every map into or out of it is zero and is built without a G-map,
and its homology is read without a reduction.
"""

from functools import lru_cache, partial
from itertools import accumulate

from . import abelian as ab
from . import intlinalg as la
from .abelian import AbHom, ChainComplex, ChainMap
from .groups import subgroup_classes
from .gsets import GSet, coset_space, disjoint_union, std_orbit
from .mackey import (
    FixedPointMackey,
    OrbitMap,
    WrappedMackey,
    _orbit_map_to,
    _orbit_maps,
    covariant_between,
)
from .simplicial import (
    _shuffle_pairs,
    discrete_space,
    representation_sphere,
    s0_space,
    smash,
    sphere_for_descriptors,
)
from .tensor import PsiMap, TensorMackey, _build_level, reduced_tensor

__all__ = [
    "HomotopyError", "MackeyChainComplex", "normalized_chains", "bredon_homology",
    "bredon_groups", "MappingComplex", "EquivariantMappingComplex", "homotopy_classes",
    "OmegaReport", "omega_spectrum_check", "GradedTable", "ro_graded_table",
    "exact_chain_maps", "homology_les", "cofibration_les", "coefficient_les",
]


class HomotopyError(ValueError):
    pass


def _check_degree(n, bound):
    """The chain rule: chains cut off at bound lack d_{bound + 1}, so H_n
    is read only for n < bound."""
    if n >= bound:
        raise HomotopyError("degree %d past bound %d" % (n, bound))


def _check_nonnegative(n):
    """No homology below degree 0 is read here."""
    if n < 0:
        raise HomotopyError("degree %d is negative" % n)


def _check_dimension(descs, bound):
    """The source rule: S^V built at bound has no nondegenerate simplex past
    it only when dim V <= bound; a sphere cut shorter gives wrong answers."""
    dim = sum(d.dim for d in descs)
    if dim > bound:
        raise HomotopyError("S^V of dimension %d is cut short at bound %d" % (dim, bound))


# -- normalized chains ----------------------------------------------------------


class MackeyChainComplex:
    """Normalized chains of the tensor T, per orbit class.

    N_n(G/H) has one block per orbit of the cells keying the boundary table
    of degree n of the cell table _cells(n), here the normalized one
    (_boundary), times G/H, and a term c y of the boundary of x is the
    G-map x |-> y on the cell coordinate, so d_n has a block
    c M_*(G/J -> G/K) per source orbit and term; restrictions and transfers
    act on the S coordinate alone.  A level with no kept cell has no orbit
    and is the zero group, and every map into or out of it is the zero
    hom, built without a G-map.  The tables and level sets do not depend on
    the coefficients, so they are kept on the space
    (SimplicialGSet._layouts) for every tensor over it.  On the cell table
    of _cells(T.X) (_cell_chains), the class is Bredon homology's complex.
    """

    def __init__(self, T):
        X, reduced = T.X, T.reduced
        self.T = T
        self._kind = reduced  # names the level sets kept on the space
        self._cells = lambda n: (X.nd[n], _boundary(X, n, reduced))
        self._levels = {}
        self._complexes = {}
        self._chainmaps = {}

    def level(self, rec, n):
        """(LevelSet, Evaluated) of level n at G/H on the cells of the
        table, named by their index in its G-set; the value omits the orbit
        of the sink, so a point sent there is dropped.  The level set is
        kept on the space, where every level of G/H with no kept cell shares
        one."""
        key = (rec.class_id, n)
        if key not in self._levels:
            X, (cells, table) = self.T.X, self._cells(n)
            # a level with no kept cell is the sink alone, one per class
            layout = (self._kind, rec.class_id, n) if table else ("sink", rec.class_id)
            if layout not in X._layouts:
                S = std_orbit(self.T.group, rec)
                X._layouts[layout] = _build_level(cells, list(table), S, sink=True)
            ls = X._layouts[layout]
            self._levels[key] = ls, self.T.M.evaluate(ls.gset, 0)
        return self._levels[key]

    def homology(self, rec, n):
        """H_n at G/H under the chain rule."""
        _check_degree(n, self.T.bound)
        return self.complex(rec).homology(n)

    def complex(self, rec):
        """N(G/H) with d_n read off the boundary table."""
        if rec.class_id not in self._complexes:
            groups = {n: self.level(rec, n)[1].value for n in range(self.T.bound + 1)}
            diffs = {}
            for n in range(1, self.T.bound + 1):
                sev, tev = self.level(rec, n)[1], self.level(rec, n - 1)[1]
                diffs[n] = _zero_between(sev, tev) or self._differential(rec, n, sev, tev)
            self._complexes[rec.class_id] = ChainComplex(groups=groups, diffs=diffs)
        return self._complexes[rec.class_id]

    def _differential(self, rec, n, sev, tev):
        """d_n at G/H between the level values sev and tev."""
        M, bd, entries = self.T.M, self._cells(n)[1], []
        src, tgt = self.level(rec, n)[0], self.level(rec, n - 1)[0]
        for si, o in enumerate(sev.orbits):
            x, s = src.pairs[o.basepoint]
            for y, c in bd[x].items():
                ti, om = _orbit_map_to(M, o, tev, tgt.index[y, s])
                h = M.orbit_covariant(om)
                entries.append((ti, si, h if c == 1 else h.scale(c)))
        return ab.assemble_block_hom(sev.summands, tev.summands, entries)[0]

    def transition_chain_map(self, om, variance):
        """res (contravariant, G/H -> G/J) or tr (covariant, G/J -> G/H) as
        a chain map of complexes, for the orbit map om: G/J -> G/H."""
        key = (om, variance)
        if key not in self._chainmaps:
            M, stable = self.T.M, om.gmap().values

            def along(a, b):
                return a.gmap(b, lambda x, s: (x, stable[s]))

            if variance == "res":
                ends, hom = (om.tgt, om.src), lambda n, a, b: M.contravariant(along(b, a), 0, 0)
            else:
                ends, hom = (om.src, om.tgt), lambda n, a, b: M.covariant(along(a, b), 0, 0)
            self._chainmaps[key] = _chain_map(self, ends[0], self, ends[1], hom)
        return self._chainmaps[key]


def _boundary(X, n, reduced, skip=None):
    """The normalized boundary table of X in degree n, {x: {y: c}}: per
    nondegenerate n-simplex x in index order, d x = sum (-1)^i d_i x over
    the faces stored with the identity surjection, zero coefficients
    omitted, less the basepoint vertex when reduced.  Kept on X for every
    tensor and Hom complex over it.  Given a set skip, a table X does not
    hold is built without the columns of skip and is not kept, so that
    _morse holds one degree at a time and builds no column it cancelled."""
    key = ("boundary", reduced, n)
    if key in X._layouts:
        return X._layouts[key]
    base, table = X.nd_base if reduced else None, {}
    faces = [((-1) ** i, row) for i, row in enumerate(X.nd_faces[n])]
    for x in range(X.nd[n].size):
        if (n == 0 and x == base) or (skip and x in skip):
            continue
        col = {}
        for sign, row in faces:
            s, z = row[x]
            if s[-1] == n - 1 and (n > 1 or z != base):
                col[z] = col.get(z, 0) + sign
        table[x] = {z: c for z, c in col.items() if c}
    if skip is None:
        X._layouts[key] = table
    return table


def _morse(X):
    """A G-invariant Morse matching on the reduced normalized chains of the
    based X, kept on X for every coefficient system: per degree n, each
    critical n-simplex in order with its reduced boundary {y: c} (Forman,
    Adv. Math. 134, 1998; Freij, Discrete Math. 309, 2009), by _reduce on
    the tables of _boundary.  A table X does not keep is not kept, and one
    it keeps is copied, as _match changes what it is given."""
    if "morse" not in X._layouts:

        def columns(n, gone):
            kept, table = ("boundary", True, n) in X._layouts, _boundary(X, n, True, gone)
            return {x: dict(col) for x, col in table.items() if x not in gone} if kept else table

        X._layouts["morse"] = _reduce(X.nd, columns)
    return X._layouts["morse"]


def _reduce(gsets, columns):
    """The critical boundary tables of a Morse matching on the cells of the
    G-sets gsets, whose degree-n columns, less those of the set gone, are
    columns(n, gone).  From the top degree down, degree n starts without the
    columns of the cells cancelled as rows above, and _match cancels unit
    pairs in it; a cell cancelled as a column leaves the boundaries of
    degree n + 1.  One degree's columns are held at a time."""
    bd, gone = [{}] * (len(gsets) + 1), set()
    for n in range(len(gsets) - 1, -1, -1):
        bd[n] = cols = columns(n, gone)
        size = len(cols)
        gone = _match(gsets[n], gsets[n - 1], cols) if n and cols else set()
        if len(cols) < size:
            bd[n + 1] = {x: {y: c for y, c in d.items() if y in cols} for x, d in bd[n + 1].items()}
    return tuple(bd[:-1])


def _match(cells, faces, cols):
    """Cancel, in the columns cols on the G-set cells and in order, the orbit
    of (a, b) by intlinalg.cancel_unit when <d a, b> = +-1 and no other cell
    of G a has b in its boundary; returns the rows cancelled, cells of the
    G-set faces.  Then G_a = G_b, as g in G_b off G_a would put b in
    d(g a), so the block cancelled is +-M_* of a G-isomorphism for every
    Mackey functor M, and each term y of a boundary d x has G_x inside G_y."""
    cob, act, lower, gone = la._rows_of(cols.items()), cells.action, faces.action, set()
    for a in list(cols):
        orbit = {row[a] for row in act}
        units = (b for b, c in sorted(cols.get(a, {}).items()) if c in (1, -1))
        b = next((b for b in units if not (cob[b] & orbit) - {a}), None)
        if b is not None:
            for g in {row[a]: g for g, row in enumerate(act)}.values():
                la.cancel_unit(cols, cob, act[g][a], lower[g][b])
                gone.add(lower[g][b])
    return gone


def _tensor(A, B, bound):
    """The tensor of the reduced cell tables A and B cut at bound, matched
    by _reduce.  Its n-cells are the triples (p, x, y) of a p-cell x of A
    and an (n - p)-cell y of B, in that order, under the diagonal action,
    and d(x (x) y) = dx (x) y + (-1)^p x (x) dy.  By Eilenberg-Zilber the
    reduced chains of a smash retract onto the tensor of its factors'
    (Eilenberg-Zilber, Amer. J. Math. 75, 1953), by maps natural in the
    space, so G-maps that M_* keeps for every Mackey functor M, and a tensor
    of such retractions is one, as Kenzo composes them (Rubio-Sergeraert,
    Bull. Sci. Math. 126, 2002).  As in each factor, the stabilizer of each
    term of d(x (x) y) contains G_x cap G_y, that of x (x) y."""
    triples = [[(p, x, y) for p in range(n + 1) for x in A[p][1] for y in B[n - p][1]]
               for n in range(bound + 1)]
    index = [{t: i for i, t in enumerate(level)} for level in triples]
    G, gsets = A[0][0].group, []
    for n, (level, ix) in enumerate(zip(triples, index)):
        rows = [
            tuple([ix[p, A[p][0].action[g][x], B[n - p][0].action[g][y]] for p, x, y in level])
            for g in range(G.order)
        ]
        gsets.append(GSet._trusted(G, len(level), tuple(rows)))

    def columns(n, gone):
        cols, down = {}, index[n - 1] if n else {}
        for i, (p, x, y) in enumerate(triples[n]):
            if i not in gone:
                col = cols[i] = {down[p - 1, z, y]: c for z, c in A[p][1][x].items()}
                for z, c in B[n - p][1][y].items():
                    col[down[p, x, z]] = (-1) ** p * c
        return cols

    return tuple(zip(gsets, _reduce(gsets, columns)))


def _cells(X):
    """The reduced cell table Bredon homology reads for the based X, kept on
    X: a smash's, by its recipe ("smash", A, B), is _tensor of _cells(A) and
    _cells(B) cut at X.bound, so its nondegenerate simplices are never laid
    out; any other space's is its Morse complex (_morse) on X.nd."""
    if "cells" not in X._layouts:
        kind, *factors = X._recipe or (None,)
        if kind == "smash":
            X._layouts["cells"] = _tensor(*map(_cells, factors), X.bound)
        else:
            X._layouts["cells"] = tuple(zip(X.nd, _morse(X)))
    return X._layouts["cells"]


def _cell_chains(T):
    """Bredon homology's complex of the reduced tensor T: MackeyChainComplex
    on the cell table _cells(T.X), whose level sets are kept on the space."""
    chains = MackeyChainComplex(T)
    chains._kind, chains._cells = "cells", _cells(T.X).__getitem__
    return chains


def normalized_chains(T):
    """The MackeyChainComplex of the tensor T, built once and kept on T, as
    the level layouts are kept on the space: every mapping complex into T
    shares its complexes and restriction chain maps."""
    if T._chains is None:
        T._chains = MackeyChainComplex(T)
    return T._chains


def _zero_between(sev, tev):
    """The zero hom from the level value sev to tev when either level has
    no orbit, built without a G-map; None when both have one."""
    if not (sev.orbits and tev.orbits):
        return AbHom.zero(sev.value, tev.value)


def _chain_map(src, src_rec, tgt, tgt_rec, hom):
    """The chain map from the normalized chains src at src_rec to tgt at
    tgt_rec whose level-n component is hom(n, a, b), for the level sets a of
    src and b of tgt; a level with no orbit gets the zero hom instead."""
    comps = {}
    for n in range(src.T.bound + 1):
        (a, sev), (b, tev) = src.level(src_rec, n), tgt.level(tgt_rec, n)
        comps[n] = _zero_between(sev, tev) or hom(n, a, b)
    return ChainMap(src.complex(src_rec), tgt.complex(tgt_rec), comps)


# -- Bredon homology -------------------------------------------------------------


def bredon_homology(X, M, n):
    """H_n of the reduced tensor X (x~) M, as a Mackey functor on orbit
    classes; X must be based.  Read off the cell table of X (_cells): a
    smash's comes from its factors', any other space's is its Morse
    complex, and its restrictions and transfers are those of the normalized
    chains."""
    chains = _cell_chains(reduced_tensor(X, M))
    values = {rec.class_id: chains.homology(rec, n) for rec in subgroup_classes(M.group)}

    def induced(variance, om):
        return chains.transition_chain_map(om, variance).induced(n)

    cov, con = partial(induced, "tr"), partial(induced, "res")
    return WrappedMackey(M.group, values, cov, con, label="H_%d" % n)


def bredon_groups(X, M, degrees):
    """Invariant-factor table of the reduced tensor X (x~) M, for a based X:
    degree -> class_id -> (free, torsion).  Read off the cell table of X
    (_cells), which evaluates M on few orbits: a smash's cells come from its
    factors' cell tables, not from its own simplices, and any other space's
    are the critical simplices of its Morse matching."""
    chains, recs = _cell_chains(reduced_tensor(X, M)), subgroup_classes(M.group)
    return {n: {rec.class_id: chains.homology(rec, n) for rec in recs} for n in degrees}


# -- mapping complexes ------------------------------------------------------------


class MappingComplex:
    """The Hom complex of normalized chains Hom(N Z~K, N T), natural over
    the orbit category; its H_n is pi_n of Map_*(K, T) by Dold-Kan
    (Goerss-Jardine, Simplicial Homotopy Theory, III.2).

    Degree n holds the natural families f = (f_key : N_k Z~K_key ->
    N_{k+n} T_key)_k, one per chart, in orbit coordinates: one free block
    per orbit representative, whose relations carry its value to the rest
    of its orbit (incl), so no naturality condition is solved.  D f = d_T f
    - (-1)^n f d_K, where a face of K on a degenerate simplex or the
    basepoint is dropped.  Degree -1 is built as any other: the chain maps
    are the cycles of D_0, and H_0 is pi_0.

    Here K is a based simplicial G-set standing for its fixed-point system
    and T a reduced tensor over the same group.  The chart of the orbit
    class H is K^H read off K itself: the H-fixed non-base nondegenerate
    simplices of K, by their index in K.nd, with their faces in K and the
    normalized chains of T at G/H.  Every non-identity orbit map G/J -> G/H,
    of element c, relates the charts of H and J by the normalized
    restriction and the action of c on K, which carries K^H into K^J.  By
    Yoneda a G-orbit [y] of simplices is one free block N T(G/G_y) (Bredon,
    LNM 34), at its representative in the chart of G_y.

    K.bound ends the source's simplices and T.X.bound the target's chains,
    and a block past T.X.bound is empty.  The complex is exact when K and
    T.X have no nondegenerate simplex past their bounds; every degree
    n >= -1 is defined, and it is the zero group once n exceeds T.X.bound.
    """

    def __init__(self, K, T):
        if not K.based:
            raise HomotopyError("the source must be based")
        if not T.reduced:
            raise HomotopyError("mapping complexes target reduced tensors")
        if K.group != T.group:
            raise HomotopyError("the source and the target are over different groups")
        self.K, self.T = K, T
        self.chains = normalized_chains(T)
        self._degree, self._diffs, self._complexes = {}, {}, {}
        G = T.group
        self.recs = subgroup_classes(G)
        # charts[H]: K^H as its non-base nondegenerate simplices per level,
        # and the chains at G/H.  relations[H]: per orbit map G/J -> G/H of
        # element c but the identity, (J, res, c), where res[k + n] f_H(y) =
        # f_J(c y) on every block y of the chart of H; J is never above H
        self.charts, self.relations = {}, {}
        for rec in self.recs:
            fixed = [K.nd[k].fixed_by(rec.elements) for k in range(K.bound + 1)]
            fixed[0] = tuple(y for y in fixed[0] if y != K.nd_base)
            self.charts[rec.class_id] = fixed, self.chains.complex(rec)
            self.relations[rec.class_id] = []
        for om in _orbit_maps(G):
            if om.src != om.tgt or om.c != G.identity:
                res = self.chains.transition_chain_map(om, "res")
                self.relations[om.tgt.class_id].append((om.src.class_id, res.comps, om.c))

    def degree_data(self, n):
        if n not in self._degree:
            if n < -1:
                raise HomotopyError("the Hom complex starts in degree -1, not %d" % n)
            self._degree[n] = self._build_degree(n)
        return self._degree[n]

    def group(self, n):
        return self.degree_data(n)["group"]

    def _layout(self, n):
        """(blocks, values) of degree n: a block (key, k, y) per chart, from
        the highest key down, and fixed non-base nondegenerate k-simplex y
        whose level k + n is one of the chart's chains, valued there."""
        blocks, values = [], []
        for key in sorted(self.charts, reverse=True):
            fixed, chains = self.charts[key]
            for k in range(max(0, -n), self.K.bound + 1):
                if k + n not in chains.groups:
                    break
                blocks.extend((key, k, y) for y in fixed[k])
                values.extend([chains.groups[k + n]] * len(fixed[k]))
        return blocks, values

    def _d_entries(self, offsets, tgt_blocks, n):
        """The blocks of D_n from the degree-n blocks at offsets into
        tgt_blocks: d_T on the same simplex, and -(-1)^n c on each term c z
        of its boundary in K's reduced table (_boundary)."""
        entries = []
        for t, (key, k, y) in enumerate(tgt_blocks):
            chains = self.charts[key][1]
            if (key, k, y) in offsets:
                entries.append((t, offsets[(key, k, y)], chains.diffs[k + n]))
            if k:
                one = AbHom.identity(chains.groups[k + n - 1])
                for z, c in _boundary(self.K, k, True)[y].items():
                    s = offsets.get((key, k - 1, z))
                    if s is not None:
                        entries.append((t, s, one.scale(-(-1) ** n * c)))
        return entries

    def _build_degree(self, n):
        """Degree n in one walk over the blocks: a block no relation has
        reached is the next representative, and the relations from its chart
        give incl on the blocks of its orbit.  The orbit category relates no
        block to itself, so a block reached twice raises."""
        blocks, values = self._layout(n)
        offsets = {b: i for i, b in enumerate(blocks)}
        source, reps, entries, nd = {}, [], [], self.K.nd
        for i, (key, k, y) in enumerate(blocks):
            if i in source:
                continue
            p = source[i] = len(reps)
            reps.append(i)
            entries.append((i, p, AbHom.identity(values[i])))
            for tgt, hom, c in self.relations[key]:
                j = offsets[(tgt, k, nd[k].action[c][y])]
                if j in source:
                    raise HomotopyError("a relation joins two representatives")
                source[j] = p
                entries.append((j, p, hom[k + n]))
        incl, group, total = ab.assemble_block_hom([values[i] for i in reps], values, entries)
        starts = tuple(accumulate((v.ngens for v in values), initial=0))
        return dict(
            group=group, incl=incl, total=total, offsets=offsets, starts=starts,
            values=tuple(values), blocks=tuple(blocks), reps=tuple(reps),
        )

    def differential(self, n):
        """D_n: degree n -> degree n-1, read on the representatives of
        degree n-1."""
        if n not in self._diffs:
            dsrc, dtgt = self.degree_data(n), self.degree_data(n - 1)
            reps = dtgt["reps"]
            entries = self._d_entries(dsrc["offsets"], [dtgt["blocks"][i] for i in reps], n)
            tgt = [dtgt["values"][i] for i in reps]
            amb = ab.assemble_block_hom(dsrc["values"], tgt, entries)[0].compose(dsrc["incl"])
            self._diffs[n] = AbHom.from_columns(dsrc["group"], dtgt["group"], amb.cols)
        return self._diffs[n]

    def chain_complex(self, top):
        """The complex of degrees -1..top; nothing above top is built.  It
        lacks d_{top+1}, so its homology is valid below top only: H_n needs
        top >= n + 1."""
        if top not in self._complexes:
            groups = {n: self.group(n) for n in range(-1, top + 1)}
            diffs = {n: self.differential(n) for n in range(top + 1)}
            self._complexes[top] = ChainComplex(groups=groups, diffs=diffs)
        return self._complexes[top]

    def homotopy_group(self, n):
        """pi_n = H_n, read from the Hom complex in degrees -1..n + 1 only;
        degree -1 is there for D_0 alone, so no pi_n with n < 0 is read."""
        _check_nonnegative(n)
        return self.chain_complex(n + 1).homology(n)

    def element_from_blocks(self, n, assign):
        """Encode a family given per block (chart key, k, simplex) by its
        values at the representatives; raise unless every block is one of
        degree n with one entry per generator, and unless incl gives the
        family back, that is unless it is natural."""
        data = self.degree_data(n)
        starts, amb = data["starts"], [0] * data["total"].ngens
        for key, vec in assign.items():
            i = data["offsets"].get(key)
            if i is None:
                raise HomotopyError("degree %d has no block %r" % (n, key))
            start, end = starts[i], starts[i + 1]
            if len(vec) != end - start:
                raise HomotopyError(
                    "block %r needs a vector of length %d, not %d" % (key, end - start, len(vec))
                )
            amb[start:end] = vec
        x = tuple(amb[s] for i in data["reps"] for s in range(starts[i], starts[i + 1]))
        if not data["total"].elements_equal(data["incl"](x), amb):
            raise HomotopyError("the family is not natural")
        return x


class EquivariantMappingComplex(MappingComplex):
    """The Hom complex of W-equivariant families N Z~K -> N(mt).

    A W-map Z~K -> A[Y] is a family natural over the orbit category of W
    into Y (x~) R_A, with R_A the fixed-point functor of the module A at the
    trivial subgroup, R_A(W/J) = A^J.  So this is the MappingComplex of K
    into the reduced tensor of mt.K with R_A, and every block is free: a
    W-orbit [y] has one block, at its representative in the chart of W_y,
    valued in the W_y-fixed chains of mt.
    """

    def __init__(self, K, mt):
        W = mt.K.group
        R = FixedPointMackey(W, subgroup_classes(W)[0], mt.A)
        super().__init__(K, TensorMackey(mt.K, R, reduced=mt.reduced))
        self.mt = mt


# bench/tracer.CACHES pins these caches; nothing in the package calls them
@lru_cache(maxsize=None)
def _smash_index_map(sm, m):
    return {
        q: i for i, q in enumerate(sm._smash_points[m]) if q is not None
    }


@lru_cache(maxsize=None)
def _discrete_vertex_table(space, m):
    """level-m point -> its last vertex, which is its only one for a
    discrete space."""
    return space.operator((m,), 0, m)


# -- homotopy classes and the loop comparison -------------------------------------


def homotopy_classes(descs, X, M):
    """[S^V, X (x~) M]^G as pi_0 of the mapping complex.

    S^V is built at X.bound under the source rule.  pi_0 reads the Hom
    complex in degrees -1..1 only.
    """
    _check_dimension(descs, X.bound)
    K = sphere_for_descriptors(M.group, list(descs), X.bound)
    return MappingComplex(K, reduced_tensor(X, M)).homotopy_group(0)


def based_orbit_space(G, rec, bound):
    """The discrete based G-space (G/H)_+."""
    orb = std_orbit(G, rec)
    plus, incls = disjoint_union([orb, GSet(G, 1, tuple((0,) for _ in G.elements()))])
    base = orb.size  # the extra point
    return discrete_space(G, plus, bound=bound, base_vertex=base)


class OmegaReport:
    def __init__(self, desc, entries):
        self.desc = desc
        self.entries = entries  # (class_id, n, lhs invariants, rhs invariants, iso ok)

    @property
    def passed(self):
        return all(e[4] for e in self.entries)

    def summary(self):
        lines = ["omega-check: %s" % ("PASS" if self.passed else "FAIL")]
        for cid, n, lhs, rhs, ok in self.entries:
            lines.append(
                "  %s class %d, pi_%d: %s vs %s"
                % ("ok  " if ok else "FAIL", cid, n, lhs, rhs)
            )
        return "\n".join(lines)


def omega_spectrum_check(X, M, desc, n_max):
    """Compare pi_n of the tensor with pi_n of the looped suspension.

    For each orbit class K and n <= n_max the comparison map induced by the
    loop adjoint of the structure map is computed explicitly on cycles and
    must be an isomorphism onto the mapping-complex homology.  S^W is built
    at X.bound under the source rule, and the left side is read under the
    chain rule; both are checked before anything is built.  pi_n reads the
    mapping complex in degrees -1..n + 1, so nothing above n_max + 1 is built.
    """
    _check_nonnegative(n_max)
    _check_degree(n_max, X.bound)
    _check_dimension([desc], X.bound)
    G = M.group
    psi = PsiMap([desc], X, M)
    chains = normalized_chains(psi.T_src)
    entries = []
    for krec in subgroup_classes(G):
        orb_space = based_orbit_space(G, krec, psi.SW.bound)
        kspace = smash(psi.SW, orb_space)
        mc = MappingComplex(kspace, psi.T_tgt)
        for n in range(n_max + 1):
            lhs, rhs = chains.homology(krec, n), mc.homotopy_group(n)
            ok, mat = _phi_induced(psi, krec, kspace, mc, chains, n)
            row = (lhs.describe(), rhs.describe(), ok and mat.is_iso())
            entries.append((krec.class_id, n, *row))
    return OmegaReport(desc=desc, entries=tuple(entries))


def _phi_induced(psi, krec, kspace, mc, chains, n):
    """The matrix of the loop-adjoint comparison on degree-n homology.

    A cycle z of N_n T_src(G/K) lifts to the family whose value on a
    nondegenerate k-simplex y = (a^* x, u) of (S^W smash (G/K)_+)^H is the
    Eilenberg-Zilber shuffle map of z tensor y:

        f(y) = sum over (k, n)-shuffles (mu, nu) of
               sign(nu, mu) psi(s_nu a^* x smash s_mu z_u),

    projected onto the normalized level k + n of T_tgt.  z_u is z restricted
    to G/H along the orbit map named by u; y steps up at the positions mu
    and z at nu, so s_nu and s_mu repeat the positions nu and mu; and
    sign(nu, mu) = (-1)^(kn) sign(mu, nu) is the sign of the permutation
    listing nu before mu.  With that sign f is a cycle of D f = d f -
    (-1)^n f d.  The shuffles are the pairs (up_y, up_z) of surjections
    that simplicial._shuffle_pairs(k + n, k, n) lists, the ones the smash
    pairs its simplices by, listed once per k; the sign is read off the
    positions where up_y and up_z step up.

    The terms are pairs of nondegenerate simplices: at (x', t) in N_n, the
    pair ((a up_y)^* (g_t x), up_z^* x') of S^W smash X, with g_t the
    representative of t in G/H, is degenerate, and goes to the sink,
    exactly when a up_y and up_z repeat a common position.
    """
    G, SX = psi.M.group, psi.SX
    data = mc.degree_data(n)
    reps = coset_space(G, krec.elements)[1]
    # names[m]: the smash parts of level m -> index in SX.nd[m]; shuffles[k]:
    # the (k, n)-shuffles with their signs
    names, homs, shuffles = {}, {}, {}

    def block_hom(cid, k, y):
        """N_n T_src(G/K) -> N_{k+n} T_tgt(G/H): the lift's block at y."""
        rec = mc.recs[cid]
        a, x, _, u = kspace._parts[k][y]
        res = chains.transition_chain_map(OrbitMap(rec, krec, reps[u]), "res").comps[n]
        (src, sev), (tgt, tev) = chains.level(rec, n), mc.chains.level(rec, k + n)
        if k + n not in names:
            names[k + n] = {part: y for y, part in enumerate(SX._parts[k + n])}
        name, act = names[k + n], psi.SW.nd[a[-1]].action
        gx = [act[g][x] for g in coset_space(G, rec.elements)[1]]
        if k not in shuffles:  # n - z[j] steps of z come after a step j of y
            shuffles[k] = [
                ((-1) ** sum(n - z[j] for j in range(k + n) if y[j] < y[j + 1]), y, z)
                for y, z in _shuffle_pairs(k + n, k, n)
            ]
        h = AbHom.zero(sev.value, tev.value)
        for sign, up_y, up_z in shuffles[k]:
            s = tuple(a[v] for v in up_y)
            f = src.gmap(tgt, lambda y, t: (name.get((s, gx[t], up_z, y)), t))
            h = h + covariant_between(psi.M, f, sev, tev, 0).scale(sign)
        return h.compose(res)

    def lift(z):
        # a block valued in a group without generators has nothing to assign
        assign = {}
        for block, value in zip(data["blocks"], data["values"]):
            if value.ngens:
                if block not in homs:
                    homs[block] = block_hom(*block)
                assign[block] = homs[block](z)
        return mc.element_from_blocks(n, assign)

    try:
        mat = ab.homology_map(chains.complex(krec), n, mc.chain_complex(n + 1), n, lift)
    except HomotopyError:
        return False, None
    return True, mat


# -- graded tables -----------------------------------------------------------------


class GradedTable:
    def __init__(self, group_name, rows):
        self.group_name = group_name
        self.rows = rows  # ((p, descs, {class_id: invariants-string}), ...)

    def to_text(self):
        lines = []
        for p, descs, cells in self.rows:
            label = "(%d; %s)" % (p, "+".join(str(d) for d in descs) or "0")
            cellstr = "  ".join(
                "G/%d: %s" % (cid, val) for cid, val in sorted(cells.items())
            )
            lines.append("%-18s %s" % (label, cellstr))
        return "\n".join(lines)

    def to_json(self):
        return [
            {
                "degree": p,
                "twist": [str(d) for d in descs],
                "groups": {str(k): v for k, v in sorted(cells.items())},
            }
            for p, descs, cells in self.rows
        ]


def ro_graded_table(X, M, rows):
    """Entries H~_p(S^W smash X; M) per orbit class, for requested rows.

    S^W is built at X.bound, so S^W smash X has X.bound too, and every row
    is checked against the chain rule before any is computed.  S^W smash X
    is built once per twist W, for all of that twist's degrees, and its
    cells come from the factors' cell tables (bredon_groups), so neither it
    nor S^W, itself a smash of spheres, is laid out.  The spheres are kept
    for the call: S^{d0...dk} is smash(S^{d0...dk-1}, S^dk), the left fold
    of sphere_for_descriptors, so each representation sphere is built once
    and twists sharing a prefix share its sphere and its cell table."""
    G = M.group
    for p, _ in rows:
        _check_degree(p, X.bound)
    spheres, spaces, degrees = {}, {}, {}

    def sphere(key):
        if key not in spheres:
            if len(key) > 1:
                spheres[key] = smash(sphere(key[:-1]), sphere(key[-1:]))
            elif key:
                spheres[key] = representation_sphere(G, key[0], X.bound)
            else:
                spheres[key] = s0_space(G, X.bound)
        return spheres[key]

    for p, descs in rows:
        key = tuple(descs)
        if key not in spaces:
            spaces[key] = smash(sphere(key), X)
        degrees.setdefault(key, []).append(p)
    groups = {key: bredon_groups(spaces[key], M, degrees[key]) for key in spaces}
    out = []
    for p, descs in rows:
        cells = {cid: g.describe() for cid, g in groups[tuple(descs)][p].items()}
        out.append((p, tuple(descs), cells))
    return GradedTable(group_name=G.name, rows=tuple(out))


# -- long exact sequences -----------------------------------------------------------


def exact_chain_maps(ses, rec):
    """The two maps of the short exact sequence ses as chain maps of
    normalized chains at G/H."""
    return _exact_chains(ses, rec)[1:]


def _exact_chains(ses, rec):
    """The normalized chains of ses's three tensors at G/H, and its two
    maps between them."""
    chains = [normalized_chains(T) for T in ses.tensors]
    f, g = (_chain_map(chains[k], rec, chains[k + 1], rec, partial(ses.map, k)) for k in (0, 1))
    return chains, f, g


def homology_les(ses, rec, through_degree):
    """The long exact homology sequence of a short exact sequence of
    tensors, a CofibrationSES or a CoefficientSES, with exactness data.

    Returns (nodes, exact_flags, homs): nodes lists the LES nodes (name,
    group) from degree through_degree down to 0, exact_flags the exactness
    at each interior node and homs the maps between consecutive nodes.
    """
    _check_nonnegative(through_degree)
    _check_degree(through_degree, ses.tensors[0].bound)
    chains, fmap, gmap = _exact_chains(ses, rec)
    nodes, homs = [], []
    for n in range(through_degree, -1, -1):
        groups = [ch.homology(rec, n) for ch in chains]
        nodes.extend(("H_%d %s" % (n, name), h) for name, h in zip(ses.names, groups))
        homs.extend((fmap.induced(n), gmap.induced(n)))
        if n > 0:
            homs.append(ab.connecting_hom(fmap, gmap, n))
    exact_flags = [ab.is_exact_at(homs[k - 1], homs[k]) for k in range(1, len(nodes) - 1)]
    return nodes, exact_flags, homs


cofibration_les = coefficient_les = homology_les
