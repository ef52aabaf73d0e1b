"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^n modulo the column span of its relation matrix.  Elements are
length-n coordinate vectors; homomorphisms are integer matrices on
generators that carry the source relation lattice into the target lattice.
Everything reduces to Smith normal form, integer kernels, and exact solving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import intlinalg as la


class ContractError(ValueError):
    """Raised when data violates a structural precondition (e.g. not a map)."""


@dataclass(frozen=True)
class AbGroup:
    ngens: int
    rels: tuple = ()  # ngens x k matrix, columns are relations

    def __post_init__(self):
        if self.rels and len(self.rels) != self.ngens:
            raise ContractError(
                "relation matrix has %d rows for %d generators"
                % (len(self.rels), self.ngens)
            )
        object.__setattr__(self, "rels", tuple(tuple(r) for r in self.rels))

    @property
    def nrels(self):
        return len(self.rels[0]) if self.rels else 0

    @cached_property
    def relcols(self):
        """The relations as sparse columns."""
        return tuple(la.columns(self.rels, self.nrels))

    @staticmethod
    def free(n):
        return AbGroup(n, la.zeros(n, 0))

    @staticmethod
    def cyclic(d):
        return AbGroup(1, ((d,),))

    @staticmethod
    def zero():
        return AbGroup(0, ())

    def invariants(self):
        """(free_rank, torsion factors in divisibility order, >1 each)."""
        return _invariants_cached(self.ngens, self.rels)

    def is_trivial(self):
        free, tors = self.invariants()
        return free == 0 and not tors

    def order(self):
        """Group order, or None if infinite."""
        free, tors = self.invariants()
        if free:
            return None
        n = 1
        for d in tors:
            n *= d
        return n

    def iso_eq(self, other):
        return self.invariants() == other.invariants()

    def is_zero_element(self, x):
        if len(x) != self.ngens:
            raise ContractError(
                "element has %d coordinates for %d generators" % (len(x), self.ngens)
            )
        if all(v == 0 for v in x):
            return True
        if not self.rels or self.nrels == 0:
            return False
        return la.reduction(self.rels, self.ngens, self.nrels).solve(x) is not None

    def elements_equal(self, x, y):
        return self.is_zero_element(tuple(a - b for a, b in zip(x, y)))

    def element_key(self, x):
        """Canonical residue key: equal iff elements are equal."""
        d, u, _ = _snf_rels_cached(self.ngens, self.rels)
        z = la.apply(u, x) if self.ngens else ()
        key = []
        diag = la.diagonal(d)
        for i in range(self.ngens):
            di = diag[i] if i < len(diag) else 0
            key.append(z[i] % di if di else z[i])
        return tuple(key)

    def elements(self, limit=None):
        """Enumerate all elements (finite groups only), as coordinate vectors."""
        free, tors = self.invariants()
        if free:
            raise ContractError("cannot enumerate an infinite group")
        d, u, _ = _snf_rels_cached(self.ngens, self.rels)
        uinv = _unimodular_inverse(u)
        diag = la.diagonal(d)
        diag = diag + [0] * (self.ngens - len(diag))
        out = []

        def rec(i, z):
            if limit is not None and len(out) >= limit:
                return
            if i == self.ngens:
                out.append(la.apply(uinv, tuple(z)) if self.ngens else ())
                return
            di = diag[i]
            assert di != 0
            for v in range(di):
                rec(i + 1, z + [v])

        rec(0, [])
        return out

    def describe(self):
        return fmt_invariants(self.invariants())

    def __repr__(self):
        return "AbGroup(%s)" % self.describe()


@lru_cache(maxsize=None)
def _invariants_cached(ngens, rels):
    if ngens == 0:
        return (0, ())
    if not rels or not rels[0]:
        return (ngens, ())
    facs = la.invariant_factors(rels)
    free = ngens - len(facs)
    tors = tuple(d for d in facs if d != 1)
    return (free, tors)


@lru_cache(maxsize=None)
def _snf_rels_cached(ngens, rels):
    if not rels:
        rels = la.zeros(ngens, 0)
    return la.snf(rels)


@lru_cache(maxsize=None)
def _unimodular_inverse(u):
    n = len(u)
    inv = la.solve_matrix(u, la.identity(n), n, n)
    assert inv is not None
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

    mat, the dense tgt.ngens x src.ngens row tuples, is the API form.  A hom
    made from columns builds it only when something reads it; one made from
    mat builds its columns on first use.  Neither form is ever mutated.
    """

    __slots__ = ("src", "tgt", "_mat", "_cols", "_red")

    def __init__(self, src, tgt, mat):
        mat = tuple(tuple(r) for r in mat)
        m, n = la.shape(mat)
        # a matrix without rows also stands for any hom with a zero side
        if (m, n) != (tgt.ngens, src.ngens) and (m or tgt.ngens and src.ngens):
            raise ContractError(
                "matrix shape %s does not match %d x %d" % ((m, n), tgt.ngens, src.ngens)
            )
        self.src, self.tgt, self._mat, self._cols, self._red = src, tgt, mat, None, None

    @classmethod
    def from_columns(cls, src, tgt, cols):
        if len(cols) != src.ngens:
            raise ContractError("%d columns for %d generators" % (len(cols), src.ngens))
        h = cls.__new__(cls)
        h.src, h.tgt, h._mat, h._cols, h._red = src, tgt, None, tuple(cols), None
        return h

    @property
    def cols(self):
        if self._cols is None:
            self._cols = tuple(la.columns(self._mat, self.src.ngens))
        return self._cols

    @property
    def mat(self):
        if self._mat is None:
            self._mat = la.dense(self._cols, self.tgt.ngens)
        return self._mat

    def __eq__(self, other):
        if not isinstance(other, AbHom):
            return NotImplemented
        return (self.src, self.tgt, self.cols) == (other.src, other.tgt, other.cols)

    def __hash__(self):
        return hash((self.src, self.tgt, tuple(frozenset(c.items()) for c in self.cols)))

    @staticmethod
    def identity(g):
        return AbHom.from_columns(g, g, [{i: 1} for i in range(g.ngens)])

    @staticmethod
    def zero(src, tgt):
        return AbHom.from_columns(src, tgt, [{} for _ in range(src.ngens)])

    def is_well_defined(self):
        return all(
            self.tgt.is_zero_element(self(col)) for col in zip(*self.src.rels)
        )

    def check(self):
        if not self.is_well_defined():
            raise ContractError("matrix does not respect relations")
        return self

    def __call__(self, x):
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
        n = self.tgt.ngens
        return all(
            not col or self.tgt.is_zero_element(tuple(col.get(i, 0) for i in range(n)))
            for col in self.cols
        )

    def same_as(self, other):
        return (self - other).is_zero_hom()

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
        """(K, incl) with 0 -> K -> src exact."""
        basis = self._solutions()
        red = la.ColumnReduction([*basis, *self.src.relcols], self.src.ngens)
        k = AbGroup(len(basis), _relations(red, len(basis)))
        incl = AbHom.from_columns(k, self.src, basis)
        incl._red = red  # its graph reduction: [basis | rels]
        return k, incl

    def cokernel(self):
        """(C, proj) with tgt -> C -> 0 exact."""
        rels = la.hstack(self.tgt.rels, self.mat)
        c = AbGroup(self.tgt.ngens, rels)
        return c, AbHom(self.tgt, c, la.identity(self.tgt.ngens))

    def image(self):
        """(I, incl into tgt, proj from src)."""
        n = self.src.ngens
        img = AbGroup(n, la.dense(self._solutions(), n))
        return (
            img,
            AbHom.from_columns(img, self.tgt, self.cols),
            AbHom.from_columns(self.src, img, [{i: 1} for i in range(n)]),
        )

    def is_injective(self):
        k, _ = self.kernel()
        return k.is_trivial()

    def is_surjective(self):
        c, _ = self.cokernel()
        return c.is_trivial()

    def is_iso(self):
        return self.is_injective() and self.is_surjective()

    def __repr__(self):
        return "AbHom(%s -> %s)" % (self.src.describe(), self.tgt.describe())


def _heads(cols, r):
    """The first r rows of sparse columns."""
    return [{i: v for i, v in col.items() if i < r} for col in cols]


def _relations(red, r):
    """For a reduction of [basis | lattice] with r basis columns, the
    relations {z : basis z lies in the lattice} as a dense r-row matrix."""
    return la.dense(_heads(red.kernel_basis(), r), r)


def direct_sum_data(groups):
    """(total, offsets): the sum group and the first generator of each summand."""
    offsets, relcols = [], []
    n = 0
    for g in groups:
        offsets.append(n)
        relcols += ({n + i: x for i, x in col.items()} for col in g.relcols)
        n += g.ngens
    return AbGroup(n, la.dense(relcols, n)), offsets


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


def assemble_block_hom(src_groups, tgt_groups, entries):
    """A hom between direct sums written blockwise in one pass.

    entries: iterable of (tgt_index, src_index, AbHom) blocks; repeated
    positions accumulate.  Returns (hom, src_total, tgt_total).
    """
    src_groups, tgt_groups = list(src_groups), list(tgt_groups)
    src_total, src_off = direct_sum_data(src_groups)
    tgt_total, tgt_off = direct_sum_data(tgt_groups)
    cols = [{} for _ in range(src_total.ngens)]
    for ti, si, hom in entries:
        if not (0 <= ti < len(tgt_groups) and 0 <= si < len(src_groups)):
            raise ContractError(
                "block position (%d, %d) outside %d x %d summands"
                % (ti, si, len(tgt_groups), len(src_groups))
            )
        shape = (tgt_groups[ti].ngens, src_groups[si].ngens)
        if (hom.tgt.ngens, hom.src.ngens) != shape:
            raise ContractError("block %r does not fit position (%d, %d)" % (hom, ti, si))
        ro, co = tgt_off[ti], src_off[si]
        for c, col in enumerate(hom.cols):
            target = cols[co + c]
            for r, v in col.items():
                w = target.get(ro + r, 0) + v
                if w:
                    target[ro + r] = w
                else:
                    del target[ro + r]
    h = AbHom.from_columns(src_total, tgt_total, cols)
    return h, src_total, tgt_total


def hom_group(a, b):
    """Hom(a, b) as (group, basis maps, evaluate) where evaluate(z, x) applies
    the class with coordinates z to the element x of a."""
    na, nb = a.ngens, b.ngens
    nunk = na * nb  # X[i][j], flattened row-major: index i*na + j

    # one constraint row X rel = (b-relation slack) per a-relation rj and
    # target generator t, at row rj * nb + t; slack columns follow X's
    ka, kb = a.nrels, b.nrels
    cols = [
        {rj * nb + t: a.rels[j][rj] for rj in range(ka) if a.rels[j][rj]}
        for t in range(nb)
        for j in range(na)
    ] + [
        {rj * nb + t: -b.rels[t][s] for t in range(nb) if b.rels[t][s]}
        for rj in range(ka)
        for s in range(kb)
    ]
    lat = _heads(la.ColumnReduction(cols, ka * nb).kernel_basis(), nunk)
    r = len(lat)

    # trivial maps: every generator image lies in the relation lattice of b
    triv = [
        {t * na + j: b.rels[t][s] for t in range(nb) if b.rels[t][s]}
        for j in range(na)
        for s in range(kb)
    ]
    h = AbGroup(r, _relations(la.ColumnReduction(lat + triv, nunk), r))

    basis = []
    for c in range(r):
        mat = tuple(
            tuple(lat[c].get(t * na + j, 0) for j in range(na)) for t in range(nb)
        )
        basis.append(AbHom(a, b, mat))

    def evaluate(z, x):
        out = [0] * nb
        for c, zc in enumerate(z):
            if zc:
                v = basis[c](x)
                out = [o + zc * w for o, w in zip(out, v)]
        return tuple(out)

    return h, basis, evaluate


@dataclass
class ChainComplex:
    """Bounded complex ... -> C_n -> C_{n-1} -> ...; diffs[n]: C_n -> C_{n-1}."""

    groups: dict
    diffs: dict
    _hcache: dict = field(default_factory=dict, repr=False)

    def group(self, n):
        return self.groups.get(n, AbGroup.zero())

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
        if n not in self._hcache:
            g, d = self.group(n), self.diff(n)
            zb = d._solutions() if d.tgt.ngens else [{i: 1} for i in range(g.ngens)]
            lat = [*zb, *g.relcols, *self.diff(n + 1).cols]
            rels = _relations(la.ColumnReduction(lat, g.ngens), len(zb))
            self._hcache[n] = (AbGroup(len(zb), rels), la.dense(zb, g.ngens))
        return self._hcache[n][0]

    def homology_class(self, n, z):
        """Coordinates of the cycle z in homology(n)."""
        h = self.homology(n)
        zb = self._hcache[n][1]
        g = self.group(n)
        aug = la.hstack(zb, g.rels)
        sol = la.reduction(aug, g.ngens, h.ngens + g.nrels).solve(tuple(z))
        if sol is None:
            raise ContractError("vector is not a cycle in degree %d" % n)
        return sol[: h.ngens]

    def cycle_of_class(self, n, w):
        self.homology(n)
        zb = self._hcache[n][1]
        return la.apply(zb, w) if zb else ()


@dataclass
class ChainMap:
    src: ChainComplex
    tgt: ChainComplex
    comps: dict  # n -> AbHom  C_n(src) -> C_n(tgt)

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
        hs = self.src.homology(n)
        ht = self.tgt.homology(n)
        cols = []
        for c in range(hs.ngens):
            z = self.src.cycle_of_class(n, tuple(1 if i == c else 0 for i in range(hs.ngens)))
            w = self.comp(n)(z)
            cols.append(self.tgt.homology_class(n, w))
        mat = la.transpose(tuple(cols), ht.ngens)
        return AbHom(hs, ht, mat)


def homology_at(f, g):
    """ker(g)/im(f) for composable homs with g o f = 0."""
    if not g.compose(f).is_zero_hom():
        raise ContractError("composite is not zero")
    c = ChainComplex(
        groups={0: g.tgt, 1: g.src, 2: f.src},
        diffs={1: g, 2: f},
    )
    return c.homology(1)


def is_exact_at(f, g):
    return homology_at(f, g).is_trivial()


def connecting_hom(f, g, n):
    """Connecting homomorphism H_n(C) -> H_{n-1}(A) of a short exact sequence
    of complexes 0 -> A -f-> B -g-> C -> 0."""
    ha = f.src.homology(n - 1)
    hc = g.tgt.homology(n)
    cols = []
    for c in range(hc.ngens):
        z = g.tgt.cycle_of_class(n, tuple(1 if i == c else 0 for i in range(hc.ngens)))
        b = g.comp(n).preimage(z)
        if b is None:
            raise ContractError("quotient chain map is not surjective")
        db = f.tgt.diff(n)(b)
        a = f.comp(n - 1).preimage(db)
        if a is None:
            raise ContractError("boundary does not lift to the subcomplex")
        cols.append(f.src.homology_class(n - 1, a))
    mat = la.transpose(tuple(cols), ha.ngens)
    return AbHom(hc, ha, mat)
