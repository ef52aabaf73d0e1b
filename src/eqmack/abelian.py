"""Finitely generated abelian groups presented by integer relation matrices.

A group is Z^n modulo the column span of its relation matrix.  Elements are
length-n coordinate vectors; homomorphisms are integer matrices on
generators that carry the source relation lattice into the target lattice.
Everything reduces to Smith normal form, integer kernels, and exact solving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

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
        return _invariants(self)

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
        d, u, _ = _snf_rels(self)
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
        d, u, _ = _snf_rels(self)
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


def _invariants(g):
    return _invariants_cached(g.ngens, g.rels)


@lru_cache(maxsize=None)
def _snf_rels_cached(ngens, rels):
    if not rels:
        rels = la.zeros(ngens, 0)
    return la.snf(rels)


def _snf_rels(g):
    return _snf_rels_cached(g.ngens, g.rels)


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


@dataclass(frozen=True)
class AbHom:
    src: AbGroup
    tgt: AbGroup
    mat: tuple  # tgt.ngens x src.ngens

    def __post_init__(self):
        object.__setattr__(self, "mat", tuple(tuple(r) for r in self.mat))
        m, n = la.shape(self.mat)
        if self.tgt.ngens and self.src.ngens:
            if (m, n) != (self.tgt.ngens, self.src.ngens):
                raise ContractError(
                    "matrix shape %s does not match %d x %d"
                    % ((m, n), self.tgt.ngens, self.src.ngens)
                )

    @staticmethod
    def identity(g):
        return AbHom(g, g, la.identity(g.ngens))

    @staticmethod
    def zero(src, tgt):
        return AbHom(src, tgt, la.zeros(tgt.ngens, src.ngens))

    def is_well_defined(self):
        for j in range(self.src.nrels):
            col = tuple(self.src.rels[i][j] for i in range(self.src.ngens))
            if not self.tgt.is_zero_element(la.apply(self.mat, col)):
                return False
        return True

    def check(self):
        if not self.is_well_defined():
            raise ContractError("matrix does not respect relations")
        return self

    def __call__(self, x):
        return la.apply(self.mat, x) if self.tgt.ngens else ()

    def compose(self, other):
        """self o other."""
        if other.tgt.ngens != self.src.ngens:
            raise ContractError("cannot compose %r after %r" % (self, other))
        return AbHom(other.src, self.tgt, la.matmul(self.mat, other.mat, other.src.ngens))

    def __add__(self, other):
        if self.src != other.src or self.tgt != other.tgt:
            raise ContractError("cannot add %r and %r" % (self, other))
        if not self.mat:
            return self
        return AbHom(self.src, self.tgt, la.matadd(self.mat, other.mat))

    def __neg__(self):
        return AbHom(self.src, self.tgt, la.matneg(self.mat))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return AbHom(self.src, self.tgt, tuple(tuple(c * x for x in r) for r in self.mat))

    def is_zero_hom(self):
        for j in range(self.src.ngens):
            col = tuple(self.mat[i][j] for i in range(self.tgt.ngens))
            if not self.tgt.is_zero_element(col):
                return False
        return True

    def same_as(self, other):
        return (self - other).is_zero_hom()

    def _graph_reduction(self):
        # solver for mat * x = y mod tgt relations: [mat | rels]
        aug = la.hstack(self.mat, self.tgt.rels)
        ncols = self.src.ngens + self.tgt.nrels
        return la.reduction(aug, self.tgt.ngens, ncols)

    def preimage(self, y):
        """Some x with self(x) == y in tgt, or None."""
        sol = self._graph_reduction().solve(tuple(y))
        if sol is None:
            return None
        return sol[: self.src.ngens]

    def preimage_matrix(self, b):
        """X with self o X == b columnwise (coordinates), or None."""
        _, k = la.shape(b)
        red = self._graph_reduction()
        cols = []
        for j in range(k):
            x = red.solve(tuple(b[i][j] for i in range(self.tgt.ngens)))
            if x is None:
                return None
            cols.append(x[: self.src.ngens])
        return la.transpose(tuple(cols), self.src.ngens)

    def kernel(self):
        """(K, incl) with 0 -> K -> src exact."""
        n = self.src.ngens
        aug = la.hstack(self.mat, self.tgt.rels)
        sols = la.reduction(aug, self.tgt.ngens, n + self.tgt.nrels).kernel_basis()
        r = len(sols[0]) if sols else 0
        basis = tuple(sols[i] for i in range(n))  # x-part of the solutions
        rels = _lattice_constraints(basis, n, r, self.src.rels)
        k = AbGroup(r, rels)
        incl = AbHom(k, self.src, basis)
        return k, incl

    def cokernel(self):
        """(C, proj) with tgt -> C -> 0 exact."""
        rels = la.hstack(self.tgt.rels, self.mat)
        c = AbGroup(self.tgt.ngens, rels)
        return c, AbHom(self.tgt, c, la.identity(self.tgt.ngens))

    def image(self):
        """(I, incl into tgt, proj from src)."""
        n = self.src.ngens
        aug = la.hstack(self.mat, self.tgt.rels)
        sols = la.reduction(aug, self.tgt.ngens, n + self.tgt.nrels).kernel_basis()
        pre = tuple(sols[i] for i in range(n)) if sols else la.zeros(n, 0)
        img = AbGroup(n, pre)
        return img, AbHom(img, self.tgt, self.mat), AbHom(self.src, img, la.identity(n))

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


def _lattice_constraints(basis, nrows, ncols, lattice):
    """Relations {z : basis*z lies in the given lattice} as matrix columns."""
    nl = len(lattice[0]) if lattice else 0
    aug = la.hstack(basis, lattice) if nl else basis
    if not aug and nrows == 0:
        # zero ambient group: everything is a relation
        return la.identity(ncols)
    sols = la.reduction(aug, nrows, ncols + nl).kernel_basis()
    if not sols:
        return la.zeros(ncols, 0)
    return tuple(sols[i] for i in range(ncols))


def direct_sum_data(groups):
    """(total, offsets): the sum group and the first generator of each summand."""
    groups = list(groups)
    offsets = []
    n = 0
    total_rels = 0
    for g in groups:
        offsets.append(n)
        n += g.ngens
        total_rels += g.nrels
    rels = [[0] * total_rels for _ in range(n)]
    c = 0
    for g, o in zip(groups, offsets):
        for j in range(g.nrels):
            for i in range(g.ngens):
                rels[o + i][c] = g.rels[i][j]
            c += 1
    return AbGroup(n, tuple(tuple(r) for r in rels)), offsets


def direct_sum(groups):
    """(sum, inclusions, projections)."""
    groups = list(groups)
    total, offsets = direct_sum_data(groups)
    n = total.ngens
    incls, projs = [], []
    for g, o in zip(groups, offsets):
        inc = [[0] * g.ngens for _ in range(n)]
        prj = [[0] * n for _ in range(g.ngens)]
        for i in range(g.ngens):
            inc[o + i][i] = 1
            prj[i][o + i] = 1
        incls.append(AbHom(g, total, tuple(tuple(r) for r in inc)))
        projs.append(AbHom(total, g, tuple(tuple(r) for r in prj)))
    return total, incls, projs


def assemble_block_hom(src_groups, tgt_groups, entries):
    """A hom between direct sums written blockwise in one pass.

    entries: iterable of (tgt_index, src_index, AbHom) blocks; repeated
    positions accumulate.  Returns (hom, src_total, tgt_total).
    """
    src_groups, tgt_groups = list(src_groups), list(tgt_groups)
    src_total, src_off = direct_sum_data(src_groups)
    tgt_total, tgt_off = direct_sum_data(tgt_groups)
    mat = [[0] * src_total.ngens for _ in range(tgt_total.ngens)]
    for ti, si, hom in entries:
        if not (0 <= ti < len(tgt_groups) and 0 <= si < len(src_groups)):
            raise ContractError(
                "block position (%d, %d) outside %d x %d summands"
                % (ti, si, len(tgt_groups), len(src_groups))
            )
        shape = (tgt_groups[ti].ngens, src_groups[si].ngens)
        if (hom.tgt.ngens, hom.src.ngens) != shape:
            raise ContractError("block %r does not fit position (%d, %d)" % (hom, ti, si))
        ro = tgt_off[ti]
        co = src_off[si]
        for r, row in enumerate(hom.mat):
            target = mat[ro + r]
            for c, v in enumerate(row):
                if v:
                    target[co + c] += v
    h = AbHom(src_total, tgt_total, tuple(tuple(r) for r in mat))
    return h, src_total, tgt_total


def _generator_positions(groups, kept):
    offsets = list(accumulate((g.ngens for g in groups), initial=0))
    positions = [offsets[i] + k for i in kept for k in range(groups[i].ngens)]
    return offsets[-1], positions


def restrict_blocks(h, src_groups, src_kept, tgt_groups, tgt_kept):
    """The blocks of h: sum(src_groups) -> sum(tgt_groups) between the kept
    summands, as a hom between the direct sums of the kept summands."""
    src_groups, tgt_groups = list(src_groups), list(tgt_groups)
    n_src, cols = _generator_positions(src_groups, src_kept)
    n_tgt, rows = _generator_positions(tgt_groups, tgt_kept)
    if (h.src.ngens, h.tgt.ngens) != (n_src, n_tgt):
        raise ContractError("%r is not a hom between the given sums" % (h,))
    src_sub, _ = direct_sum_data(src_groups[i] for i in src_kept)
    tgt_sub, _ = direct_sum_data(tgt_groups[j] for j in tgt_kept)
    mat = tuple(tuple(h.mat[r][c] for c in cols) for r in rows)
    return AbHom(src_sub, tgt_sub, mat)


def hom_group(a, b):
    """Hom(a, b) as (group, basis maps, evaluate) where evaluate(z, x) applies
    the class with coordinates z to the element x of a."""
    na, nb = a.ngens, b.ngens
    nunk = na * nb  # X[i][j], flattened row-major: index i*na + j

    rows = []
    kb = b.nrels
    for rj in range(a.nrels):
        rel = tuple(a.rels[i][rj] for i in range(na))
        for t in range(nb):
            row = [0] * (nunk + kb * a.nrels)
            for j in range(na):
                row[t * na + j] = rel[j]
            # minus b-relations slack for this constraint block
            for s in range(kb):
                row[nunk + rj * kb + s] = -b.rels[t][s]
            rows.append(tuple(row))
    ncols = nunk + kb * a.nrels
    if rows:
        sols = la.reduction(tuple(rows), len(rows), ncols).kernel_basis()
        lat = tuple(sols[i] for i in range(nunk)) if sols else la.zeros(nunk, 0)
    else:
        lat = la.identity(nunk)
    r = len(lat[0]) if nunk and lat else (0 if nunk else 0)

    # trivial maps: every generator image lies in the relation lattice of b
    triv = [[0] * (na * kb) for _ in range(nunk)]
    for j in range(na):
        for s in range(kb):
            for t in range(nb):
                triv[t * na + j][j * kb + s] = b.rels[t][s]
    triv = tuple(tuple(x) for x in triv)
    rels = _lattice_constraints(lat, nunk, r, triv)
    h = AbGroup(r, rels)

    basis = []
    for c in range(r):
        mat = tuple(
            tuple(lat[t * na + j][c] for j in range(na)) for t in range(nb)
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

    def cycle_basis(self, n):
        g = self.group(n)
        d = self.diff(n)
        if d.tgt.ngens == 0:
            return la.identity(g.ngens)
        aug = la.hstack(d.mat, d.tgt.rels)
        sols = la.reduction(aug, d.tgt.ngens, g.ngens + d.tgt.nrels).kernel_basis()
        if not sols:
            return la.zeros(g.ngens, 0)
        return tuple(sols[i] for i in range(g.ngens))

    def homology(self, n):
        if n not in self._hcache:
            g = self.group(n)
            zb = self.cycle_basis(n)
            r = len(zb[0]) if zb else 0
            dn1 = self.diff(n + 1)
            bnd = dn1.mat if dn1.src.ngens else la.zeros(g.ngens, 0)
            lat = la.hstack(g.rels, bnd)
            rels = _lattice_constraints(zb, g.ngens, r, lat)
            h = AbGroup(r, rels)
            self._hcache[n] = (h, zb)
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
