"""Mackey functors: evaluation on finite G-sets, both variances, axioms.

A functor is specified by its behaviour on the standard orbits of subgroup
class representatives; evaluation on an arbitrary G-set is the direct sum
over its orbit decomposition, and a map of G-sets acts blockwise through
orbit maps.  Three backings are provided: fixed-point functors of Weyl
modules, the Burnside functor, and explicit tables; kernels, cokernels,
images and homology give derived functors through a generic wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import abelian as ab
from . import intlinalg as la
from .abelian import AbGroup, AbHom
from .groups import (
    FiniteGroup,
    conjugation_witness,
    normalizer,
    subgroup_classes,
)
from .gsets import (
    GMap,
    GSet,
    coset_space,
    fixed_points,
    orbit_decompose,
    pullback,
    restrict_map_to_fixed,
    std_orbit,
)


class MackeyError(ValueError):
    pass


@dataclass(frozen=True)
class OrbitMap:
    """The G-map G/J -> G/H, gJ |-> g c H (J, H class representatives)."""

    src: object  # SubgroupRecord
    tgt: object
    c: int

    def __post_init__(self):
        G = self.src.group
        cinv = G.inv(self.c)
        for j in self.src.elements:
            if G.conj(cinv, j) not in self.tgt.elements:
                raise MackeyError("c^-1 J c is not contained in H")

    @property
    def group(self):
        return self.src.group

    def gmap(self):
        G = self.group
        s_space, s_reps, _ = coset_space(G, self.src.elements)
        t_space, t_reps, _ = coset_space(G, self.tgt.elements)
        hs = frozenset(self.tgt.elements)
        vals = []
        for r in s_reps:
            g = G.mul[r][self.c]
            coset = tuple(sorted(G.mul[g][h] for h in hs))
            vals.append(t_reps.index(coset[0]))
        return GMap(s_space, t_space, tuple(vals))

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


@dataclass(frozen=True)
class WeylModule:
    """A module over a (Weyl) group: an abelian group with a left action."""

    group: FiniteGroup
    value: AbGroup
    action: tuple  # one generator matrix per group element

    def __post_init__(self):
        object.__setattr__(
            self, "action", tuple(tuple(tuple(r) for r in m) for m in self.action)
        )
        if len(self.action) != self.group.order:
            raise MackeyError("need one action matrix per group element")

    def hom(self, g):
        return AbHom(self.value, self.value, self.action[g])

    def check(self):
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
        return self

    @staticmethod
    def trivial(W, value):
        n = value.ngens
        return WeylModule(W, value, tuple(la.identity(n) for _ in W.elements()))

    @staticmethod
    def regular(W):
        """The integral group ring Z[W] under left translation."""
        n = W.order
        value = AbGroup.free(n)
        mats = []
        for g in W.elements():
            m = [[0] * n for _ in range(n)]
            for h in W.elements():
                m[W.mul[g][h]][h] = 1
            mats.append(tuple(tuple(r) for r in m))
        return WeylModule(W, value, tuple(mats))


@dataclass
class Evaluated:
    """M(S) presented as the direct sum over the orbits of S.

    The summand of orbit i holds the generators offsets[i] up to
    offsets[i] + summands[i].ngens of value: a block is read by slicing a
    vector there and placed by adding it there.
    """

    gset: GSet
    orbits: tuple
    summands: tuple
    value: AbGroup
    offsets: tuple
    _orbit_of: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._orbit_of = {p: i for i, o in enumerate(self.orbits) for p in o.points}

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
    def orbit_value(self, rec):
        raise NotImplementedError

    def _orbit_covariant(self, om):
        raise NotImplementedError

    def _orbit_contravariant(self, om):
        raise NotImplementedError

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

    # -- generic layer -----------------------------------------------------
    def evaluate(self, S):
        if S not in self._eval_cache:
            orbits = orbit_decompose(S)
            summands = tuple(self.orbit_value(o.record) for o in orbits)
            value, offsets = ab.direct_sum_data(summands)
            self._eval_cache[S] = Evaluated(S, orbits, summands, value, tuple(offsets))
        return self._eval_cache[S]

    def covariant(self, f):
        """M_*(f)."""
        if f not in self._cov_cache:
            self._cov_cache[f] = covariant_between(
                self, f, self.evaluate(f.src), self.evaluate(f.tgt)
            )
        return self._cov_cache[f]

    def contravariant(self, f):
        """M^*(f)."""
        if f not in self._con_cache:
            self._con_cache[f] = contravariant_between(
                self, f, self.evaluate(f.src), self.evaluate(f.tgt)
            )
        return self._con_cache[f]

    def weyl_action_hom(self, rec, w):
        """The left action of the Weyl element w on M(G/H)."""
        G = self.group
        n = rec.weyl_reps[w]
        om = OrbitMap(rec, rec, G.inv(n))
        return self.orbit_covariant(om)

    def weyl_module_at(self, rec):
        """M(G/H) as a module over the Weyl group of H."""
        mats = tuple(
            self.weyl_action_hom(rec, w).mat for w in rec.weyl.elements()
        )
        return WeylModule(rec.weyl, self.orbit_value(rec), mats)


def evaluate_at_orbit(M, rec):
    return M.weyl_module_at(rec)


# -- based (reduced) evaluation ---------------------------------------------


def based_value(M, S, base):
    """M-tilde of a based G-set: the sum over the non-basepoint orbits."""
    ev = M.evaluate(S)
    keep = [i for i, o in enumerate(ev.orbits) if base not in o.points]
    summands = tuple(ev.summands[i] for i in keep)
    value, offsets = ab.direct_sum_data(summands)
    kept_orbits = tuple(ev.orbits[i] for i in keep)
    return Evaluated(S, kept_orbits, summands, value, tuple(offsets))


def _orbit_blocks(M, f, sev, tev, tgt_base):
    """(src index, tgt index, OrbitMap) covering f orbit by orbit; source
    orbits sent to tgt_base have no block."""
    G = M.group
    out = []
    for i, o in enumerate(sev.orbits):
        t = f.values[o.basepoint]
        if t == tgt_base:
            continue
        j = tev.orbit_index_of_point(t)
        to = tev.orbits[j]
        c = next(c for c in G.elements() if f.tgt.action[c][to.basepoint] == t)
        out.append((i, j, OrbitMap(o.record, to.record, c)))
    return out


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
    sev = based_value(M, f.src, src_base)
    tev = based_value(M, f.tgt, tgt_base)
    return covariant_between(M, f, sev, tev, tgt_base)


def based_contravariant(M, f, src_base, tgt_base):
    if f.values[src_base] != tgt_base:
        raise MackeyError("map is not based")
    sev = based_value(M, f.src, src_base)
    tev = based_value(M, f.tgt, tgt_base)
    return contravariant_between(M, f, sev, tev, tgt_base)


# -- fixed point functors -----------------------------------------------------


class FixedPointMackey(MackeyFunctor):
    """S |-> Hom_W(S^H, A) for a subgroup H and a Weyl module A."""

    def __init__(self, group, hrec, module):
        super().__init__(group)
        self.hrec = hrec
        self.module = module.check()
        if module.group != hrec.weyl:
            raise MackeyError("module must be over the Weyl group of H")
        self._containers = {}

    def name(self):
        return "fixed-point(H=%s, A=%s)" % (
            ",".join(map(str, self.hrec.elements)),
            self.module.value.describe(),
        )

    def _container(self, S):
        """(fixed points, generator offset of each point's copy of A,
        equivariant-function group, its inclusion) for a G-set S."""
        if S not in self._containers:
            fp = fixed_points(S, self.hrec.elements)
            A = self.module
            k = len(fp.points)
            _, offsets = ab.direct_sum_data([A.value] * k)
            # one row of constraints psi(w.p) - w.psi(p) = 0 per (w, p)
            ident = AbHom.identity(A.value)
            entries = []
            nrows = 0
            W = fp.weyl
            for w in W.elements():
                if w == W.identity:
                    continue
                minus_w = -A.hom(w)
                for p in range(k):
                    entries.append((nrows, fp.wset.action[w][p], ident))
                    entries.append((nrows, p, minus_w))
                    nrows += 1
            cons, _, _ = ab.assemble_block_hom(
                [A.value] * k, [A.value] * nrows, entries
            )
            ker, incl = cons.kernel()
            self._containers[S] = (fp, tuple(offsets), ker, incl)
        return self._containers[S]

    def value_of(self, S):
        return self._container(S)[2]

    def orbit_value(self, rec):
        return self.value_of(std_orbit(self.group, rec))

    def _orbit_covariant(self, om):
        return self.covariant_raw(om.gmap())

    def _orbit_contravariant(self, om):
        return self.contravariant_raw(om.gmap())

    def _fixed_point_blocks(self, q):
        """(summands over S^H, summands over T^H, identity blocks (q(s), s))
        for q: S -> T; the ambient sums hold one copy of A per fixed point."""
        A = self.module.value
        ident = AbHom.identity(A)
        qh = restrict_map_to_fixed(q, self.hrec.elements)
        blocks = [(t, s, ident) for s, t in enumerate(qh.values)]
        return [A] * qh.src.size, [A] * qh.tgt.size, blocks

    def covariant_raw(self, q):
        """Transfer along any G-map: fiber sums over H-fixed points."""
        inks = self._container(q.src)[3]
        inkt = self._container(q.tgt)[3]
        src, tgt, blocks = self._fixed_point_blocks(q)
        h, _, _ = ab.assemble_block_hom(src, tgt, blocks)
        out = inkt.preimage_matrix(h.compose(inks))
        if out is None:
            raise MackeyError("transfer does not preserve equivariance")
        return out

    def contravariant_raw(self, q):
        """Restriction along any G-map: precomposition on H-fixed points."""
        inks = self._container(q.src)[3]
        inkt = self._container(q.tgt)[3]
        src, tgt, blocks = self._fixed_point_blocks(q)
        h, _, _ = ab.assemble_block_hom(tgt, src, [(s, t, b) for t, s, b in blocks])
        out = inks.preimage_matrix(h.compose(inkt))
        if out is None:
            raise MackeyError("restriction does not preserve equivariance")
        return out

    def function_of_element(self, S, x):
        """Decode an element into per-fixed-point values of A."""
        _, offsets, _, incl = self._container(S)
        amb = incl(x)
        a = self.module.value.ngens
        return [amb[o : o + a] for o in offsets]


def fp_postcompose(f_src, f_tgt, theta, S):
    """R(theta): Hom_W(S^H, A) -> Hom_W(S^H, B) for an equivariant theta."""
    fp, _, _, incl_s = f_src._container(S)
    incl_t = f_tgt._container(S)[3]
    k = len(fp.points)
    blocks = [(p, p, theta) for p in range(k)]
    h, _, _ = ab.assemble_block_hom(
        [f_src.module.value] * k, [f_tgt.module.value] * k, blocks
    )
    out = incl_t.preimage_matrix(h.compose(incl_s))
    if out is None:
        raise MackeyError("postcomposition does not preserve equivariance")
    return out


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
    assert e.order == 1
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
            from .groups import all_subgroups

            G = self.group
            classes = set()
            for k in all_subgroups(G):
                for s in S.fixed_by(k):
                    classes.add(self._canonical(S, k, s))
            self._basis_cache[S] = tuple(sorted(classes))
        return self._basis_cache[S]

    def value_of(self, S):
        return AbGroup.free(len(self.basis(S)))

    def orbit_value(self, rec):
        return self.value_of(std_orbit(self.group, rec))

    def class_index(self, S, k, s):
        return self.basis(S).index(self._canonical(S, k, s))

    def covariant_raw(self, q):
        bs = self.basis(q.src)
        bt = self.basis(q.tgt)
        cols = []
        for (k, s) in bs:
            col = [0] * len(bt)
            col[self.class_index(q.tgt, k, q.values[s])] += 1
            cols.append(tuple(col))
        return AbHom(
            self.value_of(q.src), self.value_of(q.tgt), la.transpose(tuple(cols), len(bt))
        )

    def contravariant_raw(self, q):
        """Pull a span over the target back along q and re-decompose."""
        G = self.group
        bs = self.basis(q.src)
        bt = self.basis(q.tgt)
        cols = []
        for (k, t) in bt:
            orbit = std_orbit_for_subgroup(G, k)
            span = span_map(G, k, q.tgt, t)
            a, f, g = pullback(q, span)
            col = [0] * len(bs)
            for o in orbit_decompose(a):
                s = f.values[o.basepoint]
                stab = a.stabilizer(o.basepoint)
                col[self.class_index(q.src, stab, s)] += 1
            cols.append(tuple(col))
        return AbHom(
            self.value_of(q.tgt), self.value_of(q.src), la.transpose(tuple(cols), len(bs))
        )

    def _orbit_covariant(self, om):
        return self.covariant_raw(om.gmap())

    def _orbit_contravariant(self, om):
        return self.contravariant_raw(om.gmap())


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

    def __init__(self, group, values, weyl_mats, res, tr, check=True):
        super().__init__(group)
        self.values = dict(values)  # class_id -> AbGroup
        self.weyl_mats = {k: tuple(v) for k, v in weyl_mats.items()}
        self.res = dict(res)  # (j, h) -> matrix  M(G/H) -> M(G/J)
        self.tr = dict(tr)  # (j, h) -> matrix  M(G/J) -> M(G/H)
        if check:
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


def tabulate(M):
    """Extract the canonical table of any Mackey functor."""
    G = M.group
    recs = subgroup_classes(G)
    values = {r.class_id: M.orbit_value(r) for r in recs}
    weyl_mats = {
        r.class_id: tuple(
            M.weyl_action_hom(r, w).mat for w in r.weyl.elements()
        )
        for r in recs
    }
    res = {}
    tr = {}
    for j in recs:
        for h in recs:
            if j.class_id == h.class_id:
                continue
            w = conjugation_witness(G, j.elements, h.elements)
            if w is None:
                continue
            om = OrbitMap(j, h, G.inv(w))
            tr[(j.class_id, h.class_id)] = M.orbit_covariant(om).mat
            res[(j.class_id, h.class_id)] = M.orbit_contravariant(om).mat
    return TableMackey(G, values, weyl_mats, res, tr)


# -- morphisms and derived functors -------------------------------------------


@dataclass
class MackeyMorphism:
    src: MackeyFunctor
    tgt: MackeyFunctor
    comps: dict  # class_id -> AbHom

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

    def at(self, S):
        """The component on an arbitrary G-set, blockwise over orbits."""
        return self.between(self.src.evaluate(S), self.tgt.evaluate(S))

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


def kernel_mackey(phi):
    """Levelwise kernel of a Mackey morphism, with induced structure maps."""
    recs = subgroup_classes(phi.src.group)
    kers = {}
    incls = {}
    for r in recs:
        k, incl = phi.comp(r).kernel()
        kers[r.class_id] = k
        incls[r.class_id] = incl

    def cov(om):
        big = phi.src.orbit_covariant(om).compose(incls[om.src.class_id])
        out = incls[om.tgt.class_id].preimage_matrix(big)
        if out is None:
            raise MackeyError("covariant part does not preserve the kernel")
        return out

    def con(om):
        big = phi.src.orbit_contravariant(om).compose(incls[om.tgt.class_id])
        out = incls[om.src.class_id].preimage_matrix(big)
        if out is None:
            raise MackeyError("contravariant part does not preserve the kernel")
        return out

    func = WrappedMackey(phi.src.group, kers, cov, con, label="kernel")
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

    def cov(om):
        big = phi.tgt.orbit_covariant(om).compose(incls[om.src.class_id])
        out = incls[om.tgt.class_id].preimage_matrix(big)
        if out is None:
            raise MackeyError("covariant part does not preserve the image")
        return out

    def con(om):
        big = phi.tgt.orbit_contravariant(om).compose(incls[om.tgt.class_id])
        out = incls[om.src.class_id].preimage_matrix(big)
        if out is None:
            raise MackeyError("contravariant part does not preserve the image")
        return out

    func = WrappedMackey(phi.src.group, imgs, cov, con, label="image")
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


@dataclass
class AxiomReport:
    passed: bool
    checks: tuple  # (name, ok, witness-string)

    def failures(self):
        return [c for c in self.checks if not c[1]]

    def summary(self):
        lines = ["axioms: %s" % ("PASS" if self.passed else "FAIL")]
        for name, ok, witness in self.checks:
            if not ok:
                lines.append("  FAIL %s: %s" % (name, witness))
        return "\n".join(lines)


def verify_axioms(M, size_bound=None):
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

    from .gsets import disjoint_union

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
        d = std_orbit(G, drec)
        for brec in recs:
            b = std_orbit(G, brec)
            if size_bound and b.size > size_bound:
                continue
            for crec in recs:
                c = std_orbit(G, crec)
                if size_bound and c.size > size_bound:
                    continue
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
