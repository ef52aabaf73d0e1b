"""Mackey functors: evaluation on finite G-sets, both variances, axioms.

A functor is specified by its behaviour on the standard orbits of subgroup
class representatives; evaluation on an arbitrary G-set is the direct sum
over its orbit decomposition, and a map of G-sets acts blockwise through
orbit maps.  A basepoint is an argument: the reduced value of a based G-set
is the same sum with the basepoint's orbit left out, and a block sent to
the target's basepoint vanishes, so reduced and unreduced values and maps
share one evaluation and one cache per operation.  Three backings are
provided: fixed-point functors of Weyl modules, the Burnside functor, and
explicit tables of values, Weyl actions, restrictions and transfers on the
class representatives; kernels, cokernels, images and homology give
derived functors through a generic wrapper.
"""

from functools import lru_cache

from . import abelian as ab
from .abelian import AbGroup, AbHom
from .groups import (
    Frozen,
    all_subgroups,
    conjugation_witness,
    normalizer,
    subgroup_classes,
)
from .gsets import (
    GMap,
    _coset_index,
    coset_space,
    disjoint_union,
    fixed_points,
    orbit_decompose,
    pullback,
    regular_gset,
    std_orbit,
)

__all__ = [
    "MackeyError", "OrbitMap", "orbit_maps_between", "WeylModule", "Evaluated",
    "MackeyFunctor", "FixedPointMackey", "fixed_point_morphism", "constant_mackey",
    "BurnsideMackey", "burnside_mackey", "TableMackey", "MackeyMorphism", "WrappedMackey",
    "kernel_mackey", "cokernel_mackey", "image_mackey", "direct_sum_mackey", "AxiomReport",
    "verify_axioms",
]


class MackeyError(ValueError):
    pass


class OrbitMap(Frozen):
    """The G-map G/J -> G/H, gJ |-> g c H, for the SubgroupRecords src and
    tgt of the class representatives J and H."""

    __slots__ = ("src", "tgt", "c")

    def __init__(self, src, tgt, c):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_key", (src, tgt, c))
        G = src.group
        cinv = G.inv(c)
        for j in src.elements:
            if G.conj(cinv, j) not in tgt.elements:
                raise MackeyError("c^-1 J c is not contained in H")

    @property
    def group(self):
        return self.src.group

    def gmap(self):
        G, helems = self.group, self.tgt.elements
        s_space, s_reps, _ = coset_space(G, self.src.elements)
        vals = tuple(_coset_index(G, helems, G.mul[r][self.c]) for r in s_reps)
        return GMap(s_space, coset_space(G, helems)[0], vals)

    def compose(self, other):
        """self o other (other first)."""
        if other.tgt is not self.src and other.tgt != self.src:
            raise MackeyError("composed orbit maps do not meet")
        G = self.group
        return OrbitMap(other.src, self.tgt, G.mul[other.c][self.c])

    @staticmethod
    def identity(rec):
        return OrbitMap(rec, rec, rec.group.identity)


@lru_cache(maxsize=None)
def orbit_maps_between(jrec, hrec):
    """All G-maps G/J -> G/H as OrbitMaps, deterministically ordered."""
    G = jrec.group
    t_space, t_reps, _ = coset_space(G, hrec.elements)
    out = []
    for t in t_space.fixed_by(jrec.elements):
        out.append(OrbitMap(jrec, hrec, t_reps[t]))
    return tuple(out)


def _orbits_under(action, elems, size):
    """The orbits of the points 0..size-1 under the ascending group elements
    elems, acting by the tables action[w]: (reps, stabs, where) with the
    smallest point of each orbit, its stabilizer as a sorted tuple, and per
    point p the pair (orbit, smallest w in elems with w rep = p)."""
    reps, stabs, where = [], [], [None] * size
    for p in (p for p in range(size) if where[p] is None):
        reps.append(p)
        stabs.append(tuple(w for w in elems if action[w][p] == p))
        for w in reversed(elems):
            where[action[w][p]] = (len(reps) - 1, w)
    return reps, stabs, where


class WeylModule(Frozen):
    """A module over a (Weyl) group: an abelian group with a left action,
    one AbHom value -> value per group element.

    The fixed parts A^K of subgroups K and the maps between them are kept
    in _fixed, which is not compared.  A permutation module also keeps in
    _perm its base module and W-set, so its fixed parts split over orbits.
    """

    __slots__ = ("group", "value", "action", "_perm", "_fixed")

    def __init__(self, group, value, action):
        action = tuple(action)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "_key", (group, value, action))
        object.__setattr__(self, "_perm", None)
        object.__setattr__(self, "_fixed", {})
        if len(action) != group.order:
            raise MackeyError("need one action hom per group element")
        if any((h.src, h.tgt) != (value, value) for h in action):
            raise MackeyError("an action hom is not an endomorphism of the value")

    def hom(self, g):
        return self.action[g]

    def check(self):
        """Check the action; a permutation module's moves its base's along
        the action of a W-set, so only the base is checked.  A module is
        immutable, so a passing check is kept in _fixed and not repeated."""
        if "checked" in self._fixed:
            return self
        if self._perm is not None:
            self._perm[0].check()
            return self
        W = self.group
        ident = self.hom(W.identity)
        if not ident.same_as(AbHom.identity(self.value)):
            raise MackeyError("identity must act trivially")
        for g in W.elements():
            if not self.hom(g).is_well_defined():
                raise MackeyError("action matrix does not respect relations")
            for h in W.elements():
                if not self.hom(g).compose(self.hom(h)).same_as(self.hom(W.mul[g][h])):
                    raise MackeyError("action is not a homomorphism")
        self._fixed["checked"] = True
        return self

    @staticmethod
    def trivial(W, value):
        return WeylModule(W, value, (AbHom.identity(value),) * W.order)

    @staticmethod
    def regular(W):
        """The integral group ring Z[W] under left translation."""
        return WeylModule.permutation(WeylModule.trivial(W, AbGroup.free(1)), regular_gset(W))

    @staticmethod
    def permutation(base, wset):
        """One copy of the module base per point of the W-set wset, w
        sending the copy of x to that of w x through its action on base."""
        A, size, table = base.value, wset.size, wset.action
        value, homs, sizes = ab.direct_sum_data([A] * size)[0], [], [A.ngens] * size
        for w in base.group.elements():
            blocks = ((table[w][x], x, base.hom(w)) for x in range(size))
            homs.append(AbHom.from_columns(value, value, ab.place_blocks(sizes, sizes, blocks)))
        module = WeylModule(base.group, value, homs)
        object.__setattr__(module, "_perm", (base, wset))
        return module

    def orbits(self, K):
        """_orbits_under for the W-set of a permutation module under the
        subgroup K, a sorted tuple of elements."""
        if ("orbits", K) not in self._fixed:
            wset = self._perm[1]
            self._fixed["orbits", K] = _orbits_under(wset.action, K, wset.size)
        return self._fixed["orbits", K]

    def fixed(self, K):
        """(A^K, its inclusion into A) for the subgroup K.  A^K is A when K
        acts trivially; for a permutation module it is the sum over the
        K-orbits [y] of base^{K_y}, each value translated over its orbit;
        any other K costs one kernel on a single copy of A."""
        if ("fixed", K) not in self._fixed:
            A, ident, e = self.value, AbHom.identity(self.value), self.group.identity
            nontrivial = [k for k in K if k != e]
            if self._perm is not None and nontrivial:
                base, lay, unit = self._perm[0], self.orbits(K), self.orbits((e,))
                F = ab.direct_sum_data([base.fixed(k)[0] for k in lay[1]])[0]
                incl = _fixed_block_hom(base, lay, unit, [[(y, e)] for y in unit[0]], F, A)
            else:
                moving = [(r, 0, self.hom(k) - ident) for r, k in enumerate(nontrivial)]
                F, incl = A, ident
                if not all(h.is_zero_hom() for _, _, h in moving):
                    F, incl = ab.assemble_block_hom([A], [A] * len(moving), moving)[0].kernel()
            self._fixed["fixed", K] = F, incl
        return self._fixed["fixed", K]

    def fixed_map(self, src, tgt, ws):
        """The hom A^src -> A^tgt, a |-> sum over w in ws of w a, for
        subgroups src and tgt with tgt fixing each such sum and ws a sorted
        tuple of elements.  A permutation module reads the sum at the
        representatives of the tgt-orbits, through its base; any other
        module lifts it through A^tgt, a single copy of A."""
        key = (src, tgt, ws)
        if key not in self._fixed:
            (fs, incl_s), (ft, incl_t), W = self.fixed(src), self.fixed(tgt), self.group
            if self._perm is not None:
                (base, wset), lay = self._perm, self.orbits(tgt)
                terms = [[(wset.action[W.inv(w)][y], w) for w in ws] for y in lay[0]]
                out = _fixed_block_hom(base, self.orbits(src), lay, terms, fs, ft)
            else:
                out = sum((self.hom(w) for w in ws[1:]), self.hom(ws[0])).compose(incl_s)
                out = self.into_fixed(tgt, out)
                if out is None:
                    raise MackeyError("a sum of translates is not fixed")
            self._fixed[key] = out
        return self._fixed[key]

    def into_fixed(self, K, h):
        """The hom h into A, whose image K fixes, as a hom into A^K.  A
        permutation module reads h at the representative y of each K-orbit
        off y's copy of its base, lifted into the base's fixed part at K_y,
        as fixed_map reads a sum; any other lifts it through A^K, a single
        copy of A, and gives None when K moves the image."""
        F, incl = self.fixed(K)
        if F is self.value or self._perm is None:
            return h if F is self.value else incl.preimage_matrix(h)
        (reps, stabs, _), base, blocks = self.orbits(K), self._perm[0], []
        for j, (y, stab) in enumerate(zip(reps, stabs)):
            lo, hi = y * base.value.ngens, (y + 1) * base.value.ngens
            cols = [{r - lo: v for r, v in col.items() if lo <= r < hi} for col in h.cols]
            block = AbHom.from_columns(h.src, base.value, cols)
            blocks.append((j, 0, base.into_fixed(stab, block)))
        return ab.assemble_block_hom([h.src], [base.fixed(k)[0] for k in stabs], blocks)[0]


def _fixed_block_hom(A, src, tgt, terms, src_value, tgt_value):
    """The hom src_value -> tgt_value between the sums of A's fixed parts over
    the orbits of the layouts src and tgt (_orbits_under): the sum of w f(z)
    over (z, w) in terms[j] at the j-th tgt representative.  As f(z) = u f(rep),
    a block map, placed block by block at the parts' ngens (ab.place_blocks)."""

    def entries():
        for j, pairs in enumerate(terms):
            acc = {}
            for z, w in pairs:
                i, u = src[2][z]
                acc.setdefault(i, []).append(A.group.mul[w][u])
            for i, us in acc.items():
                yield j, i, A.fixed_map(src[1][i], tgt[1][j], tuple(sorted(us)))

    ngens = {k: A.fixed(k)[0].ngens for lay in (src, tgt) for k in set(lay[1])}
    sizes = [list(map(ngens.__getitem__, lay[1])) for lay in (src, tgt)]
    return AbHom.from_columns(src_value, tgt_value, ab.place_blocks(*sizes, entries()))


class Evaluated:
    """M(S) presented as the direct sum over the orbits of S.

    The summand of orbit i holds the generators offsets[i] up to
    offsets[i] + summands[i].ngens of value: a block is read by slicing a
    vector there and placed by adding it there.
    """

    def __init__(self, gset, orbits, summands, value, offsets):
        self.gset = gset
        self.orbits = orbits
        self.summands = summands
        self.value = value
        self.offsets = offsets
        self._orbit_of = {p: i for i, o in enumerate(orbits) for p in o.points}

    def orbit_index_of_point(self, p):
        if p not in self._orbit_of:
            raise MackeyError("point %r is in no orbit of this presentation" % (p,))
        return self._orbit_of[p]


class MackeyFunctor:
    """Base class; subclasses provide values and maps on standard orbits."""

    def __init__(self, group):
        self.group = group
        self._eval_cache = {}
        self._cov_cache = {}
        self._con_cache = {}
        self._orbit_memo = {}

    # -- backing interface -------------------------------------------------
    # a subclass gives value_of, covariant_raw and contravariant_raw on any
    # G-set, or overrides the three orbit methods below
    def orbit_value(self, rec):
        return self.value_of(std_orbit(self.group, rec))

    def _orbit_covariant(self, om):
        return self.covariant_raw(om.gmap())

    def _orbit_contravariant(self, om):
        return self.contravariant_raw(om.gmap())

    def orbit_covariant(self, om):
        key = ("cov", om)
        if key not in self._orbit_memo:
            self._orbit_memo[key] = self._orbit_covariant(om)
        return self._orbit_memo[key]

    def orbit_contravariant(self, om):
        key = ("con", om)
        if key not in self._orbit_memo:
            self._orbit_memo[key] = self._orbit_contravariant(om)
        return self._orbit_memo[key]

    def name(self):
        return type(self).__name__

    # -- generic layer: a basepoint of None means an unbased G-set ---------
    def evaluate(self, S, base=None):
        """M(S), or the reduced value at the basepoint base: the sum over
        the orbits of S that miss base."""
        key = (S, base)
        if key not in self._eval_cache:
            orbits = tuple(o for o in orbit_decompose(S) if base not in o.points)
            summands = tuple(self.orbit_value(o.record) for o in orbits)
            value, offsets = ab.direct_sum_data(summands)
            self._eval_cache[key] = Evaluated(S, orbits, summands, value, tuple(offsets))
        return self._eval_cache[key]

    def covariant(self, f, src_base=None, tgt_base=None):
        """M_*(f) between the values at the basepoints."""
        key = (f, src_base, tgt_base)
        if key not in self._cov_cache:
            sev, tev = self.evaluate(f.src, src_base), self.evaluate(f.tgt, tgt_base)
            self._cov_cache[key] = covariant_between(self, f, sev, tev, tgt_base)
        return self._cov_cache[key]

    def contravariant(self, f, src_base=None, tgt_base=None):
        """M^*(f) between the values at the basepoints."""
        key = (f, src_base, tgt_base)
        if key not in self._con_cache:
            sev, tev = self.evaluate(f.src, src_base), self.evaluate(f.tgt, tgt_base)
            self._con_cache[key] = contravariant_between(self, f, sev, tev, tgt_base)
        return self._con_cache[key]

    def weyl_action_hom(self, rec, w):
        """The left action of the Weyl element w on M(G/H)."""
        G = self.group
        n = rec.weyl_reps[w]
        om = OrbitMap(rec, rec, G.inv(n))
        return self.orbit_covariant(om)

    def weyl_module_at(self, rec):
        """M(G/H) as a module over the Weyl group of H."""
        homs = tuple(self.weyl_action_hom(rec, w) for w in rec.weyl.elements())
        return WeylModule(rec.weyl, self.orbit_value(rec), homs)


# -- based (reduced) evaluation ---------------------------------------------
# the generic methods at given basepoints; based_* also check a map is based


def based_value(M, S, base):
    """M-tilde of a based G-set: the sum over the non-basepoint orbits."""
    return M.evaluate(S, base)


def _orbit_blocks(M, f, sev, tev, tgt_base):
    """(src index, tgt index, OrbitMap) covering f orbit by orbit; source
    orbits sent to tgt_base have no block."""
    out = []
    for i, o in enumerate(sev.orbits):
        t = f.values[o.basepoint]
        if t != tgt_base:
            out.append((i, *_orbit_map_to(M, o, tev, t)))
    return out


def _orbit_map_to(M, o, tev, t):
    """(tgt index, OrbitMap) of the G-map from the orbit o that sends its
    basepoint to the point t of the presentation tev; the map must exist."""
    j = tev.orbit_index_of_point(t)
    to, act = tev.orbits[j], tev.gset.action
    c = next(c for c in M.group.elements() if act[c][to.basepoint] == t)
    return j, OrbitMap(o.record, to.record, c)


def covariant_between(M, f, sev, tev, tgt_base=None):
    """M_*(f) from the presentation sev of f.src to tev of f.tgt."""
    blocks = _orbit_blocks(M, f, sev, tev, tgt_base)
    entries = [(j, i, M.orbit_covariant(om)) for i, j, om in blocks]
    return ab.assemble_block_hom(sev.summands, tev.summands, entries)[0]


def contravariant_between(M, f, sev, tev, tgt_base=None):
    """M^*(f) from the presentation tev of f.tgt to sev of f.src."""
    blocks = _orbit_blocks(M, f, sev, tev, tgt_base)
    entries = [(i, j, M.orbit_contravariant(om)) for i, j, om in blocks]
    return ab.assemble_block_hom(tev.summands, sev.summands, entries)[0]


def based_covariant(M, f, src_base, tgt_base):
    if f.values[src_base] != tgt_base:
        raise MackeyError("map is not based")
    return M.covariant(f, src_base, tgt_base)


def based_contravariant(M, f, src_base, tgt_base):
    if f.values[src_base] != tgt_base:
        raise MackeyError("map is not based")
    return M.contravariant(f, src_base, tgt_base)


# -- fixed point functors -----------------------------------------------------


class FixedPointMackey(MackeyFunctor):
    """S |-> Hom_W(S^H, A) for a subgroup H and a Weyl module A, in orbit
    coordinates.

    By Yoneda (Bredon, LNM 34) an equivariant function psi on S^H is its
    values at the representatives p of the W-orbits of S^H, each in the
    fixed part A^{W_p}, and psi(w p) = w psi(p); so the value at S is the
    sum of those fixed parts (Thevenaz-Webb, Trans. AMS 347).  Restriction
    along q: S -> T reads psi(q p) = w psi(t) for q p = w t with t a
    representative, an inclusion of fixed points; transfer sums the values
    w psi(p) over the fiber of each representative t, a relative norm.
    Both are block maps of fixed parts (WeylModule.fixed_map), so no kernel
    and no lift is formed over S.
    """

    def __init__(self, group, hrec, module):
        super().__init__(group)
        self.hrec = hrec
        self.module = module.check()
        if module.group != hrec.weyl:
            raise MackeyError("module must be over the Weyl group of H")
        self._layouts = {}

    def name(self):
        return "fixed-point(H=%s, A=%s)" % (
            ",".join(map(str, self.hrec.elements)),
            self.module.value.describe(),
        )

    def _orbit_layout(self, S):
        """(fixed points, (reps, stabs, where), value) for a G-set S: the
        W-orbits of S^H as _orbits_under gives them, and the sum of the
        fixed parts A^{W_p} of their representatives p."""
        if S not in self._layouts:
            fp = fixed_points(S, self.hrec.elements)
            orbits = _orbits_under(fp.wset.action, fp.weyl.elements(), fp.wset.size)
            value = ab.direct_sum_data([self.module.fixed(k)[0] for k in orbits[1]])[0]
            self._layouts[S] = fp, orbits, value
        return self._layouts[S]

    def value_of(self, S):
        return self._orbit_layout(S)[2]

    def covariant_raw(self, q):
        """Transfer along any G-map: fiber sums over H-fixed points."""
        (fs, src, sv), (ft, tgt, tv) = self._orbit_layout(q.src), self._orbit_layout(q.tgt)
        fibers = {}
        for p, s in enumerate(fs.points):
            fibers.setdefault(ft.index[q.values[s]], []).append((p, fs.weyl.identity))
        terms = [fibers.get(t, []) for t in tgt[0]]
        return _fixed_block_hom(self.module, src, tgt, terms, sv, tv)

    def contravariant_raw(self, q):
        """Restriction along any G-map: precomposition on H-fixed points."""
        (fs, src, sv), (ft, tgt, tv) = self._orbit_layout(q.src), self._orbit_layout(q.tgt)
        terms = [[(ft.index[q.values[fs.points[p]]], fs.weyl.identity)] for p in src[0]]
        return _fixed_block_hom(self.module, tgt, src, terms, tv, sv)


def fp_postcompose(f_src, f_tgt, theta, S):
    """R(theta): Hom_W(S^H, A) -> Hom_W(S^H, B) for a W-equivariant theta:
    theta from A^{W_p} to B^{W_p} at each representative p."""
    A, B = f_src.module, f_tgt.module
    for w in A.group.elements():
        if not theta.compose(A.hom(w)).same_as(B.hom(w).compose(theta)):
            raise MackeyError("postcomposition does not preserve equivariance")
    (_, (_, stabs, _), sv), tv = f_src._orbit_layout(S), f_tgt.value_of(S)
    sizes = [[M.fixed(k)[0].ngens for k in stabs] for M in (A, B)]
    entries = ((i, i, B.into_fixed(k, theta.compose(A.fixed(k)[1]))) for i, k in enumerate(stabs))
    return AbHom.from_columns(sv, tv, ab.place_blocks(*sizes, entries))


def fixed_point_morphism(f_src, f_tgt, theta):
    """The Mackey morphism induced by an equivariant map of coefficients."""
    if f_src.hrec is not f_tgt.hrec and f_src.hrec != f_tgt.hrec:
        raise MackeyError("coefficient change needs a common subgroup")
    comps = {}
    for rec in subgroup_classes(f_src.group):
        S = std_orbit(f_src.group, rec)
        comps[rec.class_id] = fp_postcompose(f_src, f_tgt, theta, S)
    return MackeyMorphism(f_src, f_tgt, comps)


def constant_mackey(G, value):
    """The fixed-point functor of the trivial module at the trivial subgroup."""
    e = subgroup_classes(G)[0]
    if e.order != 1:
        raise MackeyError("the first subgroup class must be the trivial subgroup")
    return FixedPointMackey(G, e, WeylModule.trivial(e.weyl, value))


# -- Burnside functor ---------------------------------------------------------


class BurnsideMackey(MackeyFunctor):
    """S |-> the Grothendieck group of finite G-sets over S."""

    def __init__(self, group):
        super().__init__(group)
        self._basis_cache = {}

    def name(self):
        return "burnside"

    def _canonical(self, S, k, s):
        G = self.group
        best = None
        ks = frozenset(k)
        for g in G.elements():
            kk = tuple(sorted(G.conjugate_set(g, ks)))
            ss = S.action[g][s]
            key = (len(kk), kk, ss)
            if best is None or key < best:
                best = key
        return (best[1], best[2])

    def basis(self, S):
        """Iso classes of maps from orbits into S: pairs (subgroup, point)."""
        if S not in self._basis_cache:
            G = self.group
            classes = set()
            for k in all_subgroups(G):
                for s in S.fixed_by(k):
                    classes.add(self._canonical(S, k, s))
            self._basis_cache[S] = tuple(sorted(classes))
        return self._basis_cache[S]

    def value_of(self, S):
        return AbGroup.free(len(self.basis(S)))

    def class_index(self, S, k, s):
        return self.basis(S).index(self._canonical(S, k, s))

    def covariant_raw(self, q):
        cols = [{self.class_index(q.tgt, k, q.values[s]): 1} for k, s in self.basis(q.src)]
        return AbHom.from_columns(self.value_of(q.src), self.value_of(q.tgt), cols)

    def contravariant_raw(self, q):
        """Pull a span over the target back along q and re-decompose."""
        G = self.group
        cols = []
        for (k, t) in self.basis(q.tgt):
            a, f, g = pullback(q, span_map(G, k, q.tgt, t))
            col = {}
            for o in orbit_decompose(a):
                i = self.class_index(q.src, a.stabilizer(o.basepoint), f.values[o.basepoint])
                col[i] = col.get(i, 0) + 1
            cols.append(col)
        return AbHom.from_columns(self.value_of(q.tgt), self.value_of(q.src), cols)


@lru_cache(maxsize=None)
def std_orbit_for_subgroup(G, elems):
    return coset_space(G, elems)[0]


def span_map(G, elems, T, t):
    """The G-map G/K -> T determined by eK |-> t (t must be K-fixed)."""
    space, reps, _ = coset_space(G, elems)
    vals = tuple(T.action[r][t] for r in reps)
    return GMap(space, T, vals)


def burnside_mackey(G):
    return BurnsideMackey(G)


# -- table backed -------------------------------------------------------------


class TableMackey(MackeyFunctor):
    """Values and transfer/restriction data stored on class representatives.

    res/tr are keyed by class-id pairs (j, h) with class j subconjugate to
    class h, and describe the canonical map G/J -> G/H determined by the
    smallest conjugating witness.  Arbitrary orbit maps factor as a Weyl
    translation followed by that canonical map; groups whose fusion makes
    this factorization incomplete are rejected.
    """

    def __init__(self, group, values, weyl_mats, res, tr):
        super().__init__(group)
        self.values = dict(values)  # class_id -> AbGroup
        self.weyl_mats = {k: tuple(v) for k, v in weyl_mats.items()}
        self.res = dict(res)  # (j, h) -> matrix  M(G/H) -> M(G/J)
        self.tr = dict(tr)  # (j, h) -> matrix  M(G/J) -> M(G/H)
        self._check_fusion()

    def name(self):
        return "table"

    def _check_fusion(self):
        for jrec in subgroup_classes(self.group):
            for hrec in subgroup_classes(self.group):
                for om in orbit_maps_between(jrec, hrec):
                    self._factor(om)

    def orbit_value(self, rec):
        return self.values[rec.class_id]

    def _weyl_hom(self, rec, w):
        v = self.values[rec.class_id]
        return AbHom(v, v, self.weyl_mats[rec.class_id][w])

    def _weyl_index(self, rec, n):
        """Weyl element of the normalizer member n."""
        G = self.group
        hs = frozenset(rec.elements)
        coset = tuple(sorted(G.mul[n][h] for h in hs))
        return rec.weyl_reps.index(min(coset))

    def _factor(self, om):
        """(n, pair) with om = canonical(pair) o R_n, or pure Weyl when J=H."""
        G = self.group
        jrec, hrec = om.src, om.tgt
        if jrec.class_id == hrec.class_id:
            if om.c not in normalizer(G, jrec.elements):
                raise MackeyError("endomap element must normalize J")
            return om.c, None
        w = conjugation_witness(G, jrec.elements, hrec.elements)
        winv = G.inv(w)
        hs = frozenset(hrec.elements)
        target = {G.mul[winv][h] for h in hs}
        for n in normalizer(G, jrec.elements):
            if G.mul[G.inv(n)][om.c] in target:
                return n, (jrec.class_id, hrec.class_id)
        raise MackeyError(
            "table data cannot express this orbit map (fusion too wild)"
        )

    def _orbit_covariant(self, om):
        G = self.group
        n, pair = self._factor(om)
        jrec = om.src
        # M_*(R_n) is the left action of the inverse Weyl class of n
        wi = self._weyl_index(jrec, G.inv(n))
        rot = self._weyl_hom(jrec, wi)
        if pair is None:
            return rot
        v_j = self.values[pair[0]]
        v_h = self.values[pair[1]]
        return AbHom(v_j, v_h, self.tr[pair]).compose(rot)

    def _orbit_contravariant(self, om):
        G = self.group
        n, pair = self._factor(om)
        jrec = om.src
        wi = self._weyl_index(jrec, n)
        rot = self._weyl_hom(jrec, wi)
        if pair is None:
            return rot
        v_j = self.values[pair[0]]
        v_h = self.values[pair[1]]
        return rot.compose(AbHom(v_h, v_j, self.res[pair]))


# -- morphisms and derived functors -------------------------------------------


class MackeyMorphism:
    def __init__(self, src, tgt, comps):
        """comps: class_id -> AbHom src(G/H) -> tgt(G/H), one per orbit class;
        only the generator counts are checked, as a component may present
        an equal group with its relations in another order."""
        recs = subgroup_classes(src.group)
        for r in recs:
            h, shape = comps.get(r.class_id), (src.orbit_value(r).ngens, tgt.orbit_value(r).ngens)
            if h is None or (h.src.ngens, h.tgt.ngens) != shape:
                raise MackeyError("MackeyMorphism needs a hom src -> tgt at class %d" % r.class_id)
        if len(comps) != len(recs):
            raise MackeyError("MackeyMorphism has components off the orbit classes")
        self.src = src
        self.tgt = tgt
        self.comps = comps

    def comp(self, rec):
        return self.comps[rec.class_id]

    def check(self):
        G = self.src.group
        recs = subgroup_classes(G)
        for j in recs:
            for h in recs:
                for om in orbit_maps_between(j, h):
                    lhs = self.comp(h).compose(self.src.orbit_covariant(om))
                    rhs = self.tgt.orbit_covariant(om).compose(self.comp(j))
                    if not lhs.same_as(rhs):
                        raise MackeyError("morphism fails covariant naturality")
                    lhs = self.comp(j).compose(self.src.orbit_contravariant(om))
                    rhs = self.tgt.orbit_contravariant(om).compose(self.comp(h))
                    if not lhs.same_as(rhs):
                        raise MackeyError("morphism fails contravariant naturality")
        return self

    def between(self, sev, tev):
        """The component between two presentations over the same orbits."""
        entries = [(i, i, self.comp(o.record)) for i, o in enumerate(sev.orbits)]
        return ab.assemble_block_hom(sev.summands, tev.summands, entries)[0]

    def compose(self, other):
        comps = {
            cid: self.comps[cid].compose(other.comps[cid]) for cid in self.comps
        }
        return MackeyMorphism(other.src, self.tgt, comps)

    @staticmethod
    def identity(M):
        comps = {
            r.class_id: AbHom.identity(M.orbit_value(r))
            for r in subgroup_classes(M.group)
        }
        return MackeyMorphism(M, M, comps)


class WrappedMackey(MackeyFunctor):
    """A Mackey functor given by per-class values and map callbacks."""

    def __init__(self, group, values, cov_fn, con_fn, label="derived"):
        super().__init__(group)
        self._values = values
        self._cov_fn = cov_fn
        self._con_fn = con_fn
        self._label = label

    def name(self):
        return self._label

    def orbit_value(self, rec):
        return self._values[rec.class_id]

    def _orbit_covariant(self, om):
        return self._cov_fn(om)

    def _orbit_contravariant(self, om):
        return self._con_fn(om)


def _sub_functor(M, values, incls, label):
    """The sub-functor of M whose value at the class c is values[c],
    included into M's value by incls[c]; its structure maps are M's,
    restricted."""

    def restricted(h, src, tgt, kind):
        out = incls[tgt.class_id].preimage_matrix(h.compose(incls[src.class_id]))
        if out is None:
            raise MackeyError("%s part does not preserve the %s" % (kind, label))
        return out

    def cov(om):
        return restricted(M.orbit_covariant(om), om.src, om.tgt, "covariant")

    def con(om):
        return restricted(M.orbit_contravariant(om), om.tgt, om.src, "contravariant")

    return WrappedMackey(M.group, values, cov, con, label=label)


def kernel_mackey(phi):
    """Levelwise kernel of a Mackey morphism, with induced structure maps."""
    recs = subgroup_classes(phi.src.group)
    kers = {}
    incls = {}
    for r in recs:
        k, incl = phi.comp(r).kernel()
        kers[r.class_id] = k
        incls[r.class_id] = incl
    func = _sub_functor(phi.src, kers, incls, "kernel")
    incl_morphism = MackeyMorphism(func, phi.src, incls)
    return func, incl_morphism


def cokernel_mackey(phi):
    """Levelwise cokernel: same generator matrices, larger relation lattices."""
    recs = subgroup_classes(phi.src.group)
    cokers = {}
    projs = {}
    for r in recs:
        c, proj = phi.comp(r).cokernel()
        cokers[r.class_id] = c
        projs[r.class_id] = proj

    def cov(om):
        inner = phi.tgt.orbit_covariant(om).cols
        return AbHom.from_columns(cokers[om.src.class_id], cokers[om.tgt.class_id], inner)

    def con(om):
        inner = phi.tgt.orbit_contravariant(om).cols
        return AbHom.from_columns(cokers[om.tgt.class_id], cokers[om.src.class_id], inner)

    func = WrappedMackey(phi.src.group, cokers, cov, con, label="cokernel")
    proj_morphism = MackeyMorphism(phi.tgt, func, projs)
    return func, proj_morphism


def image_mackey(phi):
    """Levelwise image with its inclusion into the target functor."""
    recs = subgroup_classes(phi.src.group)
    imgs = {}
    incls = {}
    projs = {}
    for r in recs:
        img, incl, proj = phi.comp(r).image()
        imgs[r.class_id] = img
        incls[r.class_id] = incl
        projs[r.class_id] = proj
    func = _sub_functor(phi.tgt, imgs, incls, "image")
    incl_morphism = MackeyMorphism(func, phi.tgt, incls)
    proj_morphism = MackeyMorphism(phi.src, func, projs)
    return func, incl_morphism, proj_morphism


def direct_sum_mackey(ms):
    """Direct sum of Mackey functors over one group."""
    group = ms[0].group
    recs = subgroup_classes(group)
    sums = {r.class_id: ab.direct_sum([m.orbit_value(r) for m in ms]) for r in recs}
    values = {cid: data[0] for cid, data in sums.items()}

    def cov(om):
        src = [m.orbit_value(om.src) for m in ms]
        tgt = [m.orbit_value(om.tgt) for m in ms]
        blocks = [(k, k, m.orbit_covariant(om)) for k, m in enumerate(ms)]
        return ab.assemble_block_hom(src, tgt, blocks)[0]

    def con(om):
        src = [m.orbit_value(om.tgt) for m in ms]
        tgt = [m.orbit_value(om.src) for m in ms]
        blocks = [(k, k, m.orbit_contravariant(om)) for k, m in enumerate(ms)]
        return ab.assemble_block_hom(src, tgt, blocks)[0]

    func = WrappedMackey(group, values, cov, con, label="sum")
    incl_ms = [
        MackeyMorphism(m, func, {r.class_id: sums[r.class_id][1][k] for r in recs})
        for k, m in enumerate(ms)
    ]
    proj_ms = [
        MackeyMorphism(func, m, {r.class_id: sums[r.class_id][2][k] for r in recs})
        for k, m in enumerate(ms)
    ]
    return func, incl_ms, proj_ms


# -- axiom verification --------------------------------------------------------


class AxiomReport:
    def __init__(self, passed, checks):
        self.passed = passed
        self.checks = checks  # (name, ok, witness-string)

    def failures(self):
        return [c for c in self.checks if not c[1]]

    def summary(self):
        lines = ["axioms: %s" % ("PASS" if self.passed else "FAIL")]
        for name, ok, witness in self.checks:
            if not ok:
                lines.append("  FAIL %s: %s" % (name, witness))
        return "\n".join(lines)


def verify_axioms(M):
    """Check identity, functoriality, additivity and the pullback axiom."""
    G = M.group
    recs = subgroup_classes(G)
    checks = []

    ok = True
    witness = ""
    for r in recs:
        ident = OrbitMap.identity(r)
        if not M.orbit_covariant(ident).same_as(AbHom.identity(M.orbit_value(r))):
            ok, witness = False, "covariant identity at class %d" % r.class_id
            break
        if not M.orbit_contravariant(ident).same_as(
            AbHom.identity(M.orbit_value(r))
        ):
            ok, witness = False, "contravariant identity at class %d" % r.class_id
            break
    checks.append(("identity", ok, witness))

    ok = True
    witness = ""
    for j in recs:
        for h in recs:
            for om1 in orbit_maps_between(j, h):
                for l in recs:
                    for om2 in orbit_maps_between(h, l):
                        comp = om2.compose(om1)
                        lhs = M.orbit_covariant(om2).compose(M.orbit_covariant(om1))
                        if not lhs.same_as(M.orbit_covariant(comp)):
                            ok = False
                            witness = "covariant composite %d->%d->%d" % (
                                j.class_id,
                                h.class_id,
                                l.class_id,
                            )
                        lhs = M.orbit_contravariant(om1).compose(
                            M.orbit_contravariant(om2)
                        )
                        if not lhs.same_as(M.orbit_contravariant(comp)):
                            ok = False
                            witness = "contravariant composite %d->%d->%d" % (
                                j.class_id,
                                h.class_id,
                                l.class_id,
                            )
    checks.append(("functoriality", ok, witness))

    ok = True
    witness = ""
    for j in recs:
        for h in recs:
            s = std_orbit(G, j)
            t = std_orbit(G, h)
            u, incls = disjoint_union([s, t])
            i_s = M.covariant(incls[0])
            i_t = M.covariant(incls[1])
            r_s = M.contravariant(incls[0])
            r_t = M.contravariant(incls[1])
            ident = AbHom.identity(M.evaluate(u).value)
            if not (
                r_s.compose(i_s).same_as(AbHom.identity(M.evaluate(s).value))
                and r_t.compose(i_s).is_zero_hom()
                and (i_s.compose(r_s) + i_t.compose(r_t)).same_as(ident)
            ):
                ok = False
                witness = "additivity on classes (%d, %d)" % (j.class_id, h.class_id)
    checks.append(("additivity", ok, witness))

    ok = True
    witness = ""
    for drec in recs:
        for brec in recs:
            for crec in recs:
                for hm in (om.gmap() for om in orbit_maps_between(brec, drec)):
                    for km in (om.gmap() for om in orbit_maps_between(crec, drec)):
                        a, f, g = pullback(hm, km)
                        lhs = M.covariant(f).compose(M.contravariant(g))
                        rhs = M.contravariant(hm).compose(M.covariant(km))
                        if not lhs.same_as(rhs):
                            ok = False
                            witness = (
                                "pullback square B=G/%d, C=G/%d, D=G/%d (h c=%s, k c=%s)"
                                % (
                                    brec.class_id,
                                    crec.class_id,
                                    drec.class_id,
                                    hm.values,
                                    km.values,
                                )
                            )
                        if not ok:
                            break
                    if not ok:
                        break
    checks.append(("pullback squares", ok, witness))

    passed = all(c[1] for c in checks)
    return AxiomReport(passed=passed, checks=tuple(checks))
