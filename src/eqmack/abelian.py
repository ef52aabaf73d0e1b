"""Finitely generated abelian groups presented by sparse relation columns.

A group is Z^n modulo the span of its relations, stored as sparse columns
({generator: coefficient} dicts, zeros omitted); elements are length-n
coordinate vectors, and homomorphisms carry the source relation lattice into
the target lattice.  Sums, kernels, cokernels, images and homology are
built as columns and solved by column reduction.  Invariants
remove the unit pivots of the relations first and run Smith normal form
only on what remains.  The dense relation matrix `rels` and the dense SNF of
element_key() and elements() are built only when read.

Maps on homology stay in columns as well: homology_map lifts each column of
a cycle basis to a column and solves its class on the reduction the target
degree keeps, and is_exact_at reads exactness off the graph reductions the
two maps keep.  homology_class, cycle_of_class, preimage and AbHom.__call__
take and give coordinate vectors, for callers that hold them.

Over free groups (no relation columns) some questions need no reduction: a
column is 0 when no entry is nonzero, homs into them agree entry by entry,
and a signed partial permutation, such as rho between free fixed parts, is
injective without a zero column and surjective when it hits every generator.
"""

from functools import lru_cache
from itertools import accumulate, product
from math import prod

from . import intlinalg as la

__all__ = [
    "ContractError", "AbGroup", "AbHom", "fmt_invariants", "direct_sum_data", "direct_sum",
    "assemble_block_hom", "ChainComplex", "ChainMap", "homology_map", "homology_at",
    "is_exact_at", "connecting_hom", "place_blocks",
]


class ContractError(ValueError):
    """Raised when data violates a structural precondition (e.g. not a map)."""


def _check_length(x, ngens):
    """Raise unless the coordinate vector x has one entry per generator."""
    if len(x) != ngens:
        raise ContractError("element has %d coordinates for %d generators" % (len(x), ngens))


def _rows(mat):
    """The dense matrix mat as row tuples and its shape; raise unless its rows have one length."""
    rows = tuple(map(tuple, mat))
    if len({len(r) for r in rows}) > 1:
        raise ContractError("matrix rows have lengths %s" % sorted({len(r) for r in rows}))
    return (rows, *la.shape(rows))


class AbGroup:
    """Z^ngens modulo the span of relcols.  Equal groups have the same
    ngens and the same relation columns, in order."""

    __slots__ = ("ngens", "relcols", "_key", "_rels", "_red")

    def __init__(self, ngens, rels=()):
        """rels: the dense ngens x k relation matrix, columns are relations."""
        rels, m, k = _rows(rels)
        if m and m != ngens:
            raise ContractError("relation matrix has %d rows for %d generators" % (m, ngens))
        self._set(ngens, la.columns(rels, k))

    @classmethod
    def from_columns(cls, ngens, cols):
        """The group Z^ngens / <cols>, cols as sparse columns."""
        g = cls.__new__(cls)
        g._set(ngens, cols)
        return g

    def _set(self, ngens, cols):
        # without generators a presentation has no room for relation columns
        self.ngens, self.relcols = ngens, tuple(cols) if ngens else ()
        self._key = self._rels = self._red = None

    @property
    def rels(self):
        """The dense relation matrix, one column per relation."""
        if self._rels is None:
            self._rels = la.dense(self.relcols, self.ngens)
        return self._rels

    @property
    def key(self):
        """The relation columns as a hashable key."""
        if self._key is None:
            self._key = tuple(frozenset(c.items()) for c in self.relcols)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, AbGroup):
            return NotImplemented
        return self is other or (self.ngens, self.relcols) == (other.ngens, other.relcols)

    def __hash__(self):
        return hash((self.ngens, self.key))

    @staticmethod
    def free(n):
        return AbGroup.from_columns(n, ())

    @staticmethod
    def cyclic(d):
        return AbGroup.from_columns(1, ({0: d} if d else {},))

    @staticmethod
    def zero():
        return AbGroup.from_columns(0, ())

    def invariants(self):
        """(free_rank, torsion factors in divisibility order, >1 each)."""
        return _invariants_cached(self.ngens, self.key)

    def is_trivial(self):
        free, tors = self.invariants()
        return free == 0 and not tors

    def order(self):
        """Group order, or None if infinite."""
        free, tors = self.invariants()
        return None if free else prod(tors)

    def contains(self, col):
        """Whether col lies in the relation lattice; in a free group, whether it is 0."""
        if not (col and self.relcols):
            return not any(col.values())
        if self._red is None:
            self._red = la.ColumnReduction(self.relcols, self.ngens)
        return self._red.solve_column(col) is not None

    def is_zero_element(self, x):
        _check_length(x, self.ngens)
        return self.contains({i: v for i, v in enumerate(x) if v})

    def elements_equal(self, x, y):
        _check_length(x, self.ngens)
        _check_length(y, self.ngens)
        return self.is_zero_element(tuple(a - b for a, b in zip(x, y)))

    def element_key(self, x):
        """Canonical residue key: equal iff elements are equal."""
        _check_length(x, self.ngens)
        d, u, _ = _snf_rels_cached(self.ngens, self.key)
        diag = la.diagonal(d) + [0] * self.ngens
        return tuple(z % di if di else z for z, di in zip(la.apply(u, x), diag))

    def elements(self):
        """Enumerate all elements (finite groups only), as coordinate vectors."""
        if self.invariants()[0]:
            raise ContractError("cannot enumerate an infinite group")
        d, u, _ = _snf_rels_cached(self.ngens, self.key)
        uinv = _unimodular_inverse(u)
        # a finite group has rank ngens, so its first ngens diagonal entries are nonzero
        residues = product(*(range(di) for di in la.diagonal(d)[: self.ngens]))
        return [la.apply(uinv, z) for z in residues]

    def describe(self):
        return fmt_invariants(self.invariants())

    def __repr__(self):
        return "AbGroup(%s)" % self.describe()


@lru_cache(maxsize=None)
def _invariants_cached(ngens, key):
    units, rest = la.prune_units(map(dict, key))
    facs = la.invariant_factors(rest)
    return (ngens - units - len(facs), tuple(d for d in facs if d != 1))


@lru_cache(maxsize=None)
def _snf_rels_cached(ngens, key):
    return la.snf(la.dense([dict(c) for c in key], ngens))


@lru_cache(maxsize=None)
def _unimodular_inverse(u):
    n = len(u)
    inv = la.solve_matrix(u, la.identity(n), n, n)
    if inv is None:
        raise ContractError("matrix is not unimodular")
    return inv


def fmt_invariants(inv):
    free, tors = inv
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append("Z^%d" % free)
    parts.extend("Z/%d" % d for d in tors)
    return " + ".join(parts) if parts else "0"


class AbHom:
    """A hom src -> tgt, stored as sparse columns: cols[j] is the image of
    generator j as {row: value}, zeros omitted.

    A hom made from the dense matrix converts it to columns at once.  mat,
    the dense tgt.ngens x src.ngens row tuples, is built on first read and
    then kept, as AbGroup.rels is.  Neither form is ever mutated.
    """

    __slots__ = ("src", "tgt", "cols", "_mat", "_red")

    def __init__(self, src, tgt, mat):
        mat, m, n = _rows(mat)
        # a matrix without rows also stands for any hom with a zero side
        if (m, n) != (tgt.ngens, src.ngens) and (m or tgt.ngens and src.ngens):
            raise ContractError(
                "matrix shape %s does not match %d x %d" % ((m, n), tgt.ngens, src.ngens)
            )
        self.src, self.tgt, self._mat, self._red = src, tgt, None, None
        self.cols = tuple(la.columns(mat, src.ngens))

    @classmethod
    def from_columns(cls, src, tgt, cols):
        if len(cols) != src.ngens:
            raise ContractError("%d columns for %d generators" % (len(cols), src.ngens))
        h = cls.__new__(cls)
        h.src, h.tgt, h.cols, h._mat, h._red = src, tgt, tuple(cols), None, None
        return h

    @property
    def mat(self):
        if self._mat is None:
            self._mat = la.dense(self.cols, self.tgt.ngens)
        return self._mat

    def __eq__(self, other):
        if not isinstance(other, AbHom):
            return NotImplemented
        return (self.src, self.tgt, self.cols) == (other.src, other.tgt, other.cols)

    def __hash__(self):
        return hash((self.src, self.tgt, tuple(frozenset(c.items()) for c in self.cols)))

    @staticmethod
    def identity(g):
        return AbHom.from_columns(g, g, _units(g.ngens))

    @staticmethod
    def zero(src, tgt):
        return AbHom.from_columns(src, tgt, [{} for _ in range(src.ngens)])

    def is_well_defined(self):
        cols = self.cols
        return all(self.tgt.contains(la.combine(cols, r.items())) for r in self.src.relcols)

    def check(self):
        if not self.is_well_defined():
            raise ContractError("matrix does not respect relations")
        return self

    def __call__(self, x):
        _check_length(x, self.src.ngens)
        y = la.combine(self.cols, ((j, v) for j, v in enumerate(x) if v))
        return tuple(y.get(i, 0) for i in range(self.tgt.ngens))

    def compose(self, other):
        """self o other."""
        if other.tgt.ngens != self.src.ngens:
            raise ContractError("cannot compose %r after %r" % (self, other))
        cols = [la.combine(self.cols, col.items()) for col in other.cols]
        return AbHom.from_columns(other.src, self.tgt, cols)

    def __add__(self, other):
        if self.src != other.src or self.tgt != other.tgt:
            raise ContractError("cannot add %r and %r" % (self, other))
        pairs = ((0, 1), (1, 1))
        cols = [la.combine(ab, pairs) for ab in zip(self.cols, other.cols)]
        return AbHom.from_columns(self.src, self.tgt, cols)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        cols = [{i: c * x for i, x in col.items()} if c else {} for col in self.cols]
        return AbHom.from_columns(self.src, self.tgt, cols)

    def is_zero_hom(self):
        return all(map(self.tgt.contains, self.cols))

    def same_as(self, other):
        """Whether self - other is zero; into a free group, entry by entry."""
        if self.tgt.relcols or self.src != other.src or self.tgt != other.tgt:
            return (self - other).is_zero_hom()
        return all(map(_same_column, self.cols, other.cols))

    def _graph_reduction(self):
        # solver for mat * x = y mod tgt relations: [mat | rels], kept on self
        if self._red is None:
            self._red = la.ColumnReduction(self.cols + self.tgt.relcols, self.tgt.ngens)
        return self._red

    def _solutions(self):
        """Sparse columns spanning {x : self(x) = 0 in tgt}: the x-parts of
        the kernel of [mat | rels]."""
        return _heads(self._graph_reduction().kernel_basis(), self.src.ngens)

    def preimage(self, y):
        """Some x with self(x) == y in tgt, or None."""
        _check_length(y, self.tgt.ngens)
        sol = self._graph_reduction().solve(tuple(y))
        if sol is None:
            return None
        return sol[: self.src.ngens]

    def preimage_matrix(self, b):
        """The hom X: b.src -> self.src with self o X == b on coordinates,
        or None when some column of b has no preimage."""
        if b.tgt.ngens != self.tgt.ngens:
            raise ContractError("cannot lift %r through %r" % (b, self))
        red = self._graph_reduction()
        cols = [red.solve_column(col) for col in b.cols]
        if None in cols:
            return None
        return AbHom.from_columns(b.src, self.src, _heads(cols, self.src.ngens))

    def kernel(self):
        """(K, incl) with 0 -> K -> src exact; no solutions give K = 0 at once."""
        basis = self._solutions()
        if not basis:
            return AbGroup.zero(), AbHom.from_columns(AbGroup.zero(), self.src, ())
        red = la.ColumnReduction([*basis, *self.src.relcols], self.src.ngens)
        k = AbGroup.from_columns(len(basis), _relations(red, len(basis)))
        incl = AbHom.from_columns(k, self.src, basis)
        incl._red = red  # its graph reduction: [basis | rels]
        return k, incl

    def cokernel(self):
        """(C, proj) with tgt -> C -> 0 exact."""
        c = AbGroup.from_columns(self.tgt.ngens, self.tgt.relcols + self.cols)
        return c, AbHom.from_columns(self.tgt, c, _units(self.tgt.ngens))

    def image(self):
        """(I, incl into tgt, proj from src)."""
        n = self.src.ngens
        img = AbGroup.from_columns(n, self._solutions())
        return (
            img,
            AbHom.from_columns(img, self.tgt, self.cols),
            AbHom.from_columns(self.src, img, _units(n)),
        )

    def _unit_rows(self):
        """The number of nonzero columns when src and tgt are free and those
        columns are signed unit vectors on distinct rows, else None."""
        if self.src.relcols or self.tgt.relcols:
            return None
        hit = set()
        for col in self.cols:
            before = len(hit)
            for i, v in col.items():
                if v:
                    if v not in (1, -1) or len(hit) > before or i in hit:
                        return None
                    hit.add(i)
        return len(hit)

    def is_injective(self):
        """By _unit_rows, no zero column; any other hom asks its kernel."""
        rows = self._unit_rows()
        return self.kernel()[0].is_trivial() if rows is None else rows == self.src.ngens

    def is_surjective(self):
        """By _unit_rows, every generator hit; any other hom asks its cokernel."""
        rows = self._unit_rows()
        return self.cokernel()[0].is_trivial() if rows is None else rows == self.tgt.ngens

    def is_iso(self):
        rows = self._unit_rows()
        if rows is None:
            return self.is_injective() and self.is_surjective()
        return rows == self.src.ngens == self.tgt.ngens

    def __repr__(self):
        return "AbHom(%s -> %s)" % (self.src.describe(), self.tgt.describe())


def _same_column(a, b):
    """Whether the sparse columns a and b agree, a missing entry being 0."""
    return a == b or all(a.get(i, 0) == b.get(i, 0) for i in a.keys() | b.keys())


def _head(col, r):
    """The first r rows of a sparse column."""
    return {i: v for i, v in col.items() if i < r}


def _heads(cols, r):
    """The first r rows of sparse columns."""
    return [_head(col, r) for col in cols]


def _units(n):
    """The sparse columns of the n x n identity."""
    return [{i: 1} for i in range(n)]


def _relations(red, r):
    """For a reduction of [basis | lattice] with r basis columns, the
    relations {z : basis z lies in the lattice} as sparse columns."""
    return _heads(red.kernel_basis(), r)


def direct_sum_data(groups):
    """(total, offsets): the sum group and the first generator of each summand."""
    offsets, relcols = [], []
    n = 0
    for g in groups:
        offsets.append(n)
        relcols += ({n + i: x for i, x in col.items()} for col in g.relcols)
        n += g.ngens
    return AbGroup.from_columns(n, relcols), offsets


def direct_sum(groups):
    """(sum, inclusions, projections)."""
    groups = list(groups)
    total, offsets = direct_sum_data(groups)
    incls, projs = [], []
    for g, o in zip(groups, offsets):
        incls.append(AbHom.from_columns(g, total, [{o + i: 1} for i in range(g.ngens)]))
        cols = [{k - o: 1} if 0 <= k - o < g.ngens else {} for k in range(total.ngens)]
        projs.append(AbHom.from_columns(total, g, cols))
    return total, incls, projs


def place_blocks(src_sizes, tgt_sizes, entries):
    """The sparse columns of a hom between sums of summands with src_sizes and
    tgt_sizes generators: entries are (tgt_index, src_index, AbHom) blocks at
    the offsets the sizes give, written in one pass; repeated positions add."""
    src_off = list(accumulate(src_sizes, initial=0))
    tgt_off = list(accumulate(tgt_sizes, initial=0))
    cols, ns, nt = [{} for _ in range(src_off[-1])], len(src_sizes), len(tgt_sizes)
    for ti, si, hom in entries:
        if not (0 <= ti < nt and 0 <= si < ns):
            raise ContractError(
                "block position (%d, %d) outside %d x %d summands" % (ti, si, nt, ns)
            )
        if hom.tgt.ngens != tgt_sizes[ti] or hom.src.ngens != src_sizes[si]:
            raise ContractError("block %r does not fit position (%d, %d)" % (hom, ti, si))
        ro = tgt_off[ti]
        for c, col in enumerate(hom.cols, src_off[si]):
            if cols[c]:
                la.subtract(cols[c], {ro + r: v for r, v in col.items()}, -1)
            else:
                cols[c] = {ro + r: v for r, v in col.items() if v}
    return cols


def assemble_block_hom(src_groups, tgt_groups, entries):
    """(hom, src_total, tgt_total) for a hom between direct sums, by place_blocks."""
    src_groups, tgt_groups = list(src_groups), list(tgt_groups)
    src_total, tgt_total = direct_sum_data(src_groups)[0], direct_sum_data(tgt_groups)[0]
    cols = place_blocks([g.ngens for g in src_groups], [g.ngens for g in tgt_groups], entries)
    return AbHom.from_columns(src_total, tgt_total, cols), src_total, tgt_total


class ChainComplex:
    """Bounded complex ... -> C_n -> C_{n-1} -> ...; diffs[n]: C_n -> C_{n-1}."""

    def __init__(self, groups, diffs):
        self.groups = groups
        self.diffs = diffs
        self._hcache = {}

    def group(self, n):
        return self.groups[n] if n in self.groups else AbGroup.zero()

    def diff(self, n):
        if n in self.diffs:
            return self.diffs[n]
        return AbHom.zero(self.group(n), self.group(n - 1))

    def degrees(self):
        return sorted(self.groups)

    def check(self):
        for n in self.degrees():
            d = self.diff(n)
            if d.src != self.group(n):
                raise ContractError("differential source mismatch at %d" % n)
            if not d.is_well_defined():
                raise ContractError("differential not well defined at %d" % n)
            dd = self.diff(n - 1).compose(self.diff(n))
            if not dd.is_zero_hom():
                raise ContractError("d o d != 0 at degree %d" % n)
        return self

    def homology(self, n):
        return self._homology(n)[0]

    def _homology(self, n):
        """(H_n, cycle basis as sparse columns, solver for [cycles | rels]);
        a degree without generators is its own homology, with no reduction."""
        if n not in self._hcache:
            g, d = self.group(n), self.diff(n)
            if not g.ngens:
                self._hcache[n] = [g, [], None]
            else:
                zb = d._solutions() if d.tgt.ngens else _units(g.ngens)
                lat = [*zb, *g.relcols, *self.diff(n + 1).cols]
                rels = _relations(la.ColumnReduction(lat, g.ngens), len(zb))
                self._hcache[n] = [AbGroup.from_columns(len(zb), rels), zb, None]
        return self._hcache[n]

    def _class_column(self, n, z):
        """The class of the cycle z, a sparse column, as a sparse column of
        H_n: solve_column on the kept reduction of [cycles | rels], read at
        its heads below H_n.ngens."""
        entry = self._homology(n)
        h, zb, red = entry
        if red is None:
            g = self.group(n)
            red = entry[2] = la.ColumnReduction([*zb, *g.relcols], g.ngens)
        sol = red.solve_column(z)
        if sol is None:
            raise ContractError("vector is not a cycle in degree %d" % n)
        return _head(sol, h.ngens)

    def homology_class(self, n, z):
        """Coordinates of the cycle z in homology(n)."""
        _check_length(z, self.group(n).ngens)
        w = self._class_column(n, {i: v for i, v in enumerate(z) if v})
        return tuple(w.get(i, 0) for i in range(self.homology(n).ngens))

    def cycle_of_class(self, n, w):
        h, zb, _ = self._homology(n)
        _check_length(w, h.ngens)
        y = la.combine(zb, ((c, x) for c, x in enumerate(w) if x))
        return tuple(y.get(i, 0) for i in range(self.group(n).ngens))


class ChainMap:
    def __init__(self, src, tgt, comps):
        self.src = src
        self.tgt = tgt
        self.comps = comps  # n -> AbHom  C_n(src) -> C_n(tgt)

    def comp(self, n):
        if n in self.comps:
            return self.comps[n]
        return AbHom.zero(self.src.group(n), self.tgt.group(n))

    def check(self):
        for n in set(self.src.degrees()) | set(self.comps):
            lhs = self.tgt.diff(n).compose(self.comp(n))
            rhs = self.comp(n - 1).compose(self.src.diff(n))
            if not (lhs - rhs).is_zero_hom():
                raise ContractError("chain map square fails at degree %d" % n)
        return self

    def induced(self, n):
        comp = self.comp(n)
        return homology_map(self.src, n, self.tgt, n, lambda z: la.combine(comp.cols, z.items()))


def homology_map(src, n, tgt, m, lift):
    """The hom H_n(src) -> H_m(tgt) sending the class of each generator's
    cycle to the class of its lift.  The cycle is the sparse column zb[c]
    of src's cycle basis, and lift maps it to a sparse column of C_m(tgt),
    which must be a cycle; its class is solve_column on tgt's kept
    reduction of [cycles | rels], read at the heads below H_m.ngens.  A
    zero source gives the hom with no columns; a zero target still lifts
    every class, since the lift is what checks a chain map or a connecting
    map."""
    hs, zb, _ = src._homology(n)
    ht = tgt.homology(m)
    return AbHom.from_columns(hs, ht, [tgt._class_column(m, lift(z)) for z in zb])


def _middle_generators(f, g):
    """The number of generators of the middle group of f: A -> B and
    g: B -> C; raise unless f's target is g's source and, when B has
    generators, g o f = 0."""
    if f.tgt != g.src:
        raise ContractError("cannot compose %r after %r" % (g, f))
    if g.src.ngens and not g.compose(f).is_zero_hom():
        raise ContractError("composite is not zero")
    return g.src.ngens


def homology_at(f, g):
    """ker(g)/im(f) for homs f: A -> B and g: B -> C with g o f = 0; a
    middle group without generators is its own homology."""
    if not _middle_generators(f, g):
        return g.src
    return ChainComplex({0: g.tgt, 1: g.src, 2: f.src}, {1: g, 2: f}).homology(1)


def is_exact_at(f, g):
    """Whether ker g = im f for homs f: A -> B and g: B -> C with g o f = 0,
    as homology_at(f, g).is_trivial() says, but read off the two maps' own
    graph reductions: every kernel generator of g (g._solutions()) must
    solve against f's [mat | rels].  In a long exact sequence each map is f
    at one node and g at the next, so its one reduction serves both, and no
    complex or Smith form is built."""
    if not _middle_generators(f, g):
        return True
    red = f._graph_reduction()
    return all(red.solve_column(x) is not None for x in g._solutions())


def connecting_hom(f, g, n):
    """Connecting homomorphism H_n(C) -> H_{n-1}(A) of a short exact sequence
    of complexes 0 -> A -f-> B -g-> C -> 0.  A cycle z of C_n lifts to b in
    B_n by solve_column on g_n's graph reduction, and d b to a in A_{n-1} on
    f_{n-1}'s, each read at its heads, as preimage_matrix reads them; every
    column stays sparse."""
    gn, fn, d = g.comp(n), f.comp(n - 1), f.tgt.diff(n)

    def lift(z):
        b = gn._graph_reduction().solve_column(z)
        if b is None:
            raise ContractError("quotient chain map is not surjective")
        a = fn._graph_reduction().solve_column(la.combine(d.cols, _head(b, gn.src.ngens).items()))
        if a is None:
            raise ContractError("boundary does not lift to the subcomplex")
        return _head(a, fn.src.ngens)

    return homology_map(g.tgt, n, f.src, n - 1, lift)
