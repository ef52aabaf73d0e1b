"""The tensor of a simplicial G-set with a Mackey functor.

Values are stored post-collapse: the level-n value on a finite G-set S is
M(X_n x S) (reduced: the quotient by the basepoint part, presented as the
sum over non-basepoint orbits).  Coend representatives exist as explicit
objects only at the API boundary, where the pullback recipe for the
contravariant maps can be exercised against the collapsed form.

Every level has one layout, LevelSet: the points (x, s) of X_n x S on the
kept simplices x, with a sink when some simplex is left out.  Full,
reduced and normalized levels differ only in the simplices they keep, and
every map between levels, including the comparison rho, reads that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import abelian as ab
from .abelian import AbHom
from .groups import subgroup_classes
from .gsets import GMap, GSet, coset_space, fixed_points, pullback, std_orbit
from .mackey import (
    FixedPointMackey,
    OrbitMap,
    WeylModule,
    based_contravariant,
    based_covariant,
    based_value,
    covariant_between,
)
from .simplicial import collapse, delta, fixed_system, representation_sphere, smash


class TensorError(ValueError):
    pass


@dataclass(frozen=True)
class LevelSet:
    """The layout of a tensor level: the points (x, s) of X_n x S whose
    simplex x is kept, plus a sink at point 0 when some simplex is left out.

    A full level keeps every simplex, or every simplex but the basepoint for
    a reduced tensor; a normalized level keeps the nondegenerate ones.  The
    points keep their order in X_n x S.
    """

    gset: GSet
    base: object  # the sink 0, or None
    pairs: tuple  # point index -> (x, s); the sink has pair None
    kept: frozenset  # the kept simplices of X_n
    index: dict = field(hash=False, compare=False)  # (x, s) -> point index

    def index_of(self, x, s):
        return self.index[(x, s)]

    def gmap(self, tgt, rule):
        """The G-map into the level set tgt sending (x, s) to rule(x, s).

        The sink, and every point whose image simplex tgt does not keep,
        goes to tgt.base; any other image must be a point of tgt.
        """
        if self.base is not None and tgt.base is None:
            raise TensorError("a reduced level set has no map into an unreduced one")
        index, kept, base = tgt.index, tgt.kept, tgt.base
        vals = []
        for p in self.pairs:
            if p is None:
                vals.append(base)
                continue
            x, s = rule(*p)
            vals.append(index[(x, s)] if x in kept else base)
        return GMap(self.gset, tgt.gset, tuple(vals))


def _build_level(xlevel, kept, S, sink):
    """The LevelSet of xlevel x S on the simplices in kept, a G-invariant
    set, with a sink at point 0 if sink."""
    kept = frozenset(kept)
    pairs = ((None,) if sink else ()) + tuple(
        (x, s) for x in range(xlevel.size) if x in kept for s in range(S.size)
    )
    index = {p: i for i, p in enumerate(pairs) if p is not None}
    xact, sact = xlevel.action, S.action
    action = [
        tuple(0 if p is None else index[(xact[g][p[0]], sact[g][p[1]])] for p in pairs)
        for g in xlevel.group.elements()
    ]
    gset = GSet(xlevel.group, len(pairs), action)
    return LevelSet(gset, 0 if sink else None, pairs, kept, index)


@lru_cache(maxsize=None)
def product_level(xlevel, S):
    return _build_level(xlevel, range(xlevel.size), S, sink=False)


@lru_cache(maxsize=None)
def smash_level(xlevel, xbase, S):
    """(X_n smash S_+): collapse of the basepoint column of X_n x S."""
    return _build_level(xlevel, set(range(xlevel.size)) - {xbase}, S, sink=True)


class TensorMackey:
    """X (x) M and its reduced variant, level by level and G-set by G-set."""

    def __init__(self, X, M, reduced=False):
        if reduced and not X.based:
            raise TensorError("reduced tensor needs a based space")
        if X.group != M.group:
            raise TensorError("space and coefficients must share the group")
        self.X = X
        self.M = M
        self.reduced = reduced
        self._values = {}
        self._homs = {}

    @property
    def group(self):
        return self.M.group

    @property
    def bound(self):
        return self.X.bound

    def level_set(self, n, S):
        if self.reduced:
            return smash_level(self.X.levels[n], self.X.base(n), S)
        return product_level(self.X.levels[n], S)

    def value(self, n, S):
        """The Evaluated presentation of the level-n value at S."""
        key = (n, S)
        if key not in self._values:
            ls = self.level_set(n, S)
            if self.reduced:
                self._values[key] = based_value(self.M, ls.gset, ls.base)
            else:
                self._values[key] = self.M.evaluate(ls.gset)
        return self._values[key]

    def group_at(self, n, S):
        return self.value(n, S).value

    def _induced(self, kind, f):
        """M_* ("cov") or M^* ("con") of a G-map between level sets."""
        if self.reduced:
            based = based_covariant if kind == "cov" else based_contravariant
            return based(self.M, f, 0, 0)
        return (self.M.covariant if kind == "cov" else self.M.contravariant)(f)

    def op(self, alpha, m, n, S):
        """The simplicial operator alpha* for monotone alpha: [m] -> [n]."""
        key = ("op", alpha, m, n, S)
        if key not in self._homs:
            table = self.X.operator(alpha, m, n)
            f = self.level_set(n, S).gmap(self.level_set(m, S), lambda x, s: (table[x], s))
            self._homs[key] = self._induced("cov", f)
        return self._homs[key]

    def face(self, n, i, S):
        return self.op(delta(i, n), n - 1, n, S)

    def covariant_S(self, n, f):
        """Transfer along f: S -> T at level n."""
        return self._along_S("cov", n, f)

    def contravariant_S(self, n, f):
        """Restriction along f: S -> T at level n (from T-value to S-value)."""
        return self._along_S("con", n, f)

    def _along_S(self, kind, n, f):
        key = (kind, n, f)
        if key not in self._homs:
            g = self.level_set(n, f.src).gmap(
                self.level_set(n, f.tgt), lambda x, s: (x, f.values[s])
            )
            self._homs[key] = self._induced(kind, g)
        return self._homs[key]

    def orbit_transition(self, n, om):
        """Restriction along the orbit map om at level n, between std orbits."""
        return self.contravariant_S(n, om.gmap())

    def space_hom(self, other, table, n, S):
        """The hom induced by a level map of spaces (x, s) -> (table[x], s).

        `other` is the tensor of the target space with the same coefficients;
        for a reduced target, points landing on the basepoint are crushed.  A
        reduced tensor has no such hom into an unreduced one.
        """
        g = self.level_set(n, S).gmap(other.level_set(n, S), lambda x, s: (table[x], s))
        if other.reduced and not self.reduced:
            return covariant_between(self.M, g, self.value(n, S), other.value(n, S), 0)
        return self._induced("cov", g)

    def describe(self, n, S):
        return self.group_at(n, S).describe()


def tensor(X, M):
    return TensorMackey(X, M, reduced=False)


def reduced_tensor(X, M):
    return TensorMackey(X, M, reduced=True)


def reduced_as_cokernel(X, M, n, S):
    """The literal cokernel presentation of the reduced value, with the
    comparison iso onto the block presentation (a consistency oracle)."""
    T = TensorMackey(X, M, reduced=False)
    ls = T.level_set(n, S)
    # basepoint inclusion pt x S -> X_n x S
    base = X.base(n)
    ptset = GSet(M.group, S.size, S.action)
    vals = tuple(ls.index[(base, s)] for s in range(S.size))
    incl = GMap(ptset, ls.gset, vals)
    i_star = M.covariant(incl)
    coker, proj = i_star.cokernel()
    red = TensorMackey(X, M, reduced=True)
    ev = red.value(n, S)
    ls_red = red.level_set(n, S)
    big = T.value(n, S)
    G = M.group
    # send each reduced block to the cokernel class of the matching
    # unreduced block, transporting between the two basepoint choices
    entries = []
    for i, o in enumerate(ev.orbits):
        x, s = ls_red.pairs[o.basepoint]
        p_idx = ls.index[(x, s)]
        j = big.orbit_index_of_point(p_idx)
        oj = big.orbits[j]
        c = next(c for c in G.elements() if ls.gset.action[c][oj.basepoint] == p_idx)
        entries.append((j, i, M.orbit_covariant(OrbitMap(o.record, oj.record, c))))
    blocks, _, _ = ab.assemble_block_hom(ev.summands, big.summands, entries)
    return coker, proj, proj.compose(blocks)


# -- coend representatives ----------------------------------------------------


@dataclass(frozen=True)
class CoendRep:
    """(carrier, map into X_n x S, coefficient in M(carrier))."""

    carrier: GSet
    gmap: GMap
    coeff: tuple

    def is_injective(self):
        return self.gmap.is_injective()


def normalize_coend_rep(T, n, S, rep):
    """Collapse a representative to its class in M(X_n x S)."""
    ls = T.level_set(n, S)
    if rep.gmap.tgt != ls.gset:
        raise TensorError("representative does not land in the right level")
    return T.M.covariant(rep.gmap)(rep.coeff)


def injective_normal_form(T, n, S, rep):
    """Factor a representative through its image, per the injectivity trick."""
    img = sorted(set(rep.gmap.values))
    ls = T.level_set(n, S)
    pos = {p: i for i, p in enumerate(img)}
    G = T.group
    action = tuple(
        tuple(pos[ls.gset.action[g][p]] for p in img) for g in G.elements()
    )
    iset = GSet(G, len(img), action)
    surj = GMap(rep.carrier, iset, tuple(pos[v] for v in rep.gmap.values))
    incl = GMap(iset, ls.gset, tuple(img))
    coeff = T.M.covariant(surj)(rep.coeff)
    return CoendRep(carrier=iset, gmap=incl, coeff=coeff)


def identity_rep(T, n, S, element):
    ls = T.level_set(n, S)
    return CoendRep(
        carrier=ls.gset, gmap=GMap.identity(ls.gset), coeff=tuple(element)
    )


def transfer_via_pullback(T, n, f, rep):
    """The contravariant map along f: S -> T computed by the pullback recipe.

    rep represents a class in (X (x) M)(T)_n; the result is the class in
    (X (x) M)(S)_n obtained by pulling the representative back along
    id x f and applying the coefficient restriction of the fiber map.
    """
    if T.reduced:
        raise TensorError("the pullback recipe is exercised on the unreduced tensor")
    idxf = T.level_set(n, f.src).gmap(T.level_set(n, f.tgt), lambda x, s: (x, f.values[s]))
    b, beta, fmap = pullback(idxf, rep.gmap)
    coeff = T.M.contravariant(fmap)(rep.coeff)
    return T.M.covariant(beta)(coeff)


# -- module tensors -----------------------------------------------------------


class ModuleTensor:
    """Levelwise linearization of a based simplicial Weyl-set with module A."""

    def __init__(self, K, A, reduced=True):
        if K.group != A.group:
            raise TensorError("module group mismatch")
        self.K = K
        self.A = A.check()
        self.reduced = reduced
        self._levels = {}

    def support(self, n):
        """The simplices carrying a block of A at level n."""
        if self.reduced:
            return tuple(
                x for x in range(self.K.levels[n].size) if x != self.K.base(n)
            )
        return tuple(range(self.K.levels[n].size))

    def module(self, n):
        """The level-n W-module: one copy of A per support simplex."""
        if n not in self._levels:
            sup = self.support(n)
            pos = {x: i for i, x in enumerate(sup)}
            summands = [self.A.value] * len(sup)
            W = self.K.group
            mats = []
            for w in W.elements():
                act = self.K.levels[n].action[w]
                aw = self.A.hom(w)
                blocks = [
                    (pos[act[x]], i, aw) for i, x in enumerate(sup) if act[x] in pos
                ]
                mats.append(ab.assemble_block_hom(summands, summands, blocks)[0].mat)
            value = ab.direct_sum_data(summands)[0]
            self._levels[n] = WeylModule(W, value, tuple(mats))
        return self._levels[n]

    def face_hom(self, n, i):
        table = self.K.faces[n][i].values
        return _routed_hom(self.A.value, self.support(n), self.support(n - 1), table)

    def normalized_support(self, n):
        """The nondegenerate support simplices of level n."""
        flags = self.K.degenerate_flags(n)
        return tuple(x for x in self.support(n) if not flags[x])

    def chain_complex(self):
        """Alternating-sum complex on the normalized (nondegenerate) blocks;
        a face that lands on a degenerate simplex or the basepoint vanishes."""
        A = self.A.value
        keeps = [self.normalized_support(n) for n in range(self.K.bound + 1)]
        groups = {
            n: ab.direct_sum_data([A] * len(keep))[0] for n, keep in enumerate(keeps)
        }
        diffs = {}
        for n in range(1, self.K.bound + 1):
            faces = self.K.faces[n]
            d = _routed_hom(A, keeps[n], keeps[n - 1], faces[0].values)
            for i in range(1, n + 1):
                h = _routed_hom(A, keeps[n], keeps[n - 1], faces[i].values)
                d = d + (h if i % 2 == 0 else -h)
            diffs[n] = d
        return ab.ChainComplex(groups=groups, diffs=diffs)

    def chain_action(self, n, w):
        """The action of w on level n of chain_complex(): the block of x goes
        to the block of w x through the action of w on A."""
        keep = self.normalized_support(n)
        pos = {x: i for i, x in enumerate(keep)}
        act, aw = self.K.levels[n].action[w], self.A.hom(w)
        blocks = [(pos[act[x]], i, aw) for i, x in enumerate(keep)]
        summands = [self.A.value] * len(keep)
        return ab.assemble_block_hom(summands, summands, blocks)[0]


def _routed_hom(A, sup_src, sup_tgt, table):
    """The hom between sums of copies of A, one per support simplex, that
    sends the block of x to the block of table[x]; a block sent off the
    target support vanishes."""
    pos = {x: i for i, x in enumerate(sup_tgt)}
    ident = AbHom.identity(A)
    blocks = [
        (pos[table[x]], i, ident) for i, x in enumerate(sup_src) if table[x] in pos
    ]
    return ab.assemble_block_hom([A] * len(sup_src), [A] * len(sup_tgt), blocks)[0]


def smash_module_map(Y, K, A, n, y):
    """The pairing x |-> (y, x) into Y smash K, linearized at level n.

    Returns the hom from the level module of K to the level module of the
    smash induced by pairing with the simplex y of Y_n (zero when y or x
    is a basepoint).
    """
    sm = smash(Y, K)
    mt_k = ModuleTensor(K, A)
    mt_s = ModuleTensor(sm, A)
    index = sm._smash_index[n]
    table = [
        index[None if y == Y.base(n) or x == K.base(n) else (y, x)]
        for x in range(K.levels[n].size)
    ]
    return _routed_hom(A.value, mt_k.support(n), mt_s.support(n), table)


# -- the comparison with fixed-point coefficient systems ------------------------


class RhoIso:
    """The natural identification of X (x) R_A with the fixed-point functor
    of the linearized fixed-point space, level by level and orbit by orbit.

    Both sides are A-valued functions on (X_n x S)^H, one copy of A per
    H-fixed point (x, s).  The left side orders those copies by orbit of
    X_n x S, then by H-fixed coset; the right side by s in S^H, then by x.
    rho lifts, through the right-hand container's inclusion, the block
    permutation between the two orders after the direct sum of the orbit
    containers' inclusions; sigma lifts the inverse permutation back
    through that direct sum.
    """

    def __init__(self, X, hrec, module, reduced=False):
        G = hrec.group
        self.X = X
        self.hrec = hrec
        self.module = module
        self.reduced = reduced
        self.RA = FixedPointMackey(G, hrec, module)
        self.T = TensorMackey(X, self.RA, reduced=reduced)
        self.Y, self.ypoints = fixed_system(X, hrec.elements)
        self.MT = ModuleTensor(self.Y, module, reduced=reduced)
        self._rhs = {}
        self._rho = {}
        self._sigma = {}

    def rhs_functor(self, n):
        """The fixed-point Mackey functor with coefficients A[X^H_n]."""
        if n not in self._rhs:
            self._rhs[n] = FixedPointMackey(
                self.hrec.group, self.hrec, self.MT.module(n)
            )
        return self._rhs[n]

    def _layout(self, rec, n):
        """(sum, order, incl): the direct sum of the orbit containers'
        inclusions, the right-hand position of each left-hand copy of A,
        and the right-hand container's inclusion, at G/H and level n."""
        G = self.hrec.group
        S = std_orbit(G, rec)
        lev = self.T.value(n, S)
        pairs = self.T.level_set(n, S).pairs
        fp, _, _, incl = self.rhs_functor(n)._container(S)
        sup = self.MT.support(n)
        xpos = {self.ypoints[n][y]: i for i, y in enumerate(sup)}
        inners, order = [], []
        for o in lev.orbits:
            orb = std_orbit(G, o.record)
            inners.append(self.RA._container(orb)[3])
            for coset in fixed_points(orb, self.hrec.elements).points:
                x, s = pairs[o.from_std[coset]]
                order.append(fp.index[s] * len(sup) + xpos[x])
        blocks = [(i, i, h) for i, h in enumerate(inners)]
        total = ab.assemble_block_hom(lev.summands, [h.tgt for h in inners], blocks)[0]
        return total, order, incl

    def rho(self, rec, n):
        key = (rec.class_id, n)
        if key not in self._rho:
            total, order, incl = self._layout(rec, n)
            k = range(len(order))
            perm = _routed_hom(self.module.value, k, k, order)
            out = incl.preimage_matrix(perm.compose(total))
            if out is None:
                raise TensorError("rho image is not equivariant")
            self._rho[key] = out
        return self._rho[key]

    def sigma(self, rec, n):
        key = (rec.class_id, n)
        if key not in self._sigma:
            total, order, incl = self._layout(rec, n)
            k = range(len(order))
            # the inverse permutation: right-hand position -> left-hand copy
            back = _routed_hom(self.module.value, k, k, sorted(k, key=order.__getitem__))
            out = total.preimage_matrix(back.compose(incl))
            if out is None:
                raise TensorError("sigma image is not equivariant")
            self._sigma[key] = out
        return self._sigma[key]


def rho_iso(X, hrec, module, reduced=False):
    return RhoIso(X, hrec, module, reduced=reduced)


# -- the structure map of the suspension spectrum -------------------------------


class PsiMap:
    """The map smashing a fixed sphere simplex onto a reduced tensor class."""

    def __init__(self, desc, X, M, bound=None, sphere=None):
        G = M.group
        b = bound if bound is not None else X.bound
        self.desc = desc
        self.X = X
        self.M = M
        self.SW = sphere if sphere is not None else representation_sphere(G, desc, b)
        self.SX = smash(self.SW, X)
        self.T_src = TensorMackey(X, M, reduced=True)
        self.T_tgt = TensorMackey(self.SX, M, reduced=True)

    @classmethod
    def from_sphere(cls, sphere, X, M):
        return cls(None, X, M, sphere=sphere)

    def sphere_fixed_simplices(self, rec, n):
        """Raw sphere simplices fixed by the subgroup, basepoint excluded."""
        return tuple(
            a
            for a in self.SW.levels[n].fixed_by(rec.elements)
            if a != self.SW.base(n)
        )

    def level_map(self, rec, n, alpha):
        """The based G-map (x, t) |-> ((alpha-hat(t), x), t) at level n."""
        S = std_orbit(self.M.group, rec)
        src, tgt = self.T_src.level_set(n, S), self.T_tgt.level_set(n, S)
        return self.pair_map(rec, n, alpha, src, tgt, range(self.X.levels[n].size))

    def pair_map(self, rec, n, alpha, src, tgt, op):
        """The G-map of level sets (x, t) |-> ((alpha-hat(t), op[x]), t) into
        level n of the smash, for a fixed sphere simplex alpha of level n and
        a point table op into level n of X; a pair on a basepoint, or on a
        simplex tgt leaves out, goes to tgt's sink."""
        _, reps, _ = coset_space(self.M.group, rec.elements)
        act = self.SW.levels[n].action
        wbase, xbase = self.SW.base(n), self.X.base(n)
        index = self.SX._smash_index[n]

        def rule(x, t):
            w, v = act[reps[t]][alpha], op[x]
            return index[None if w == wbase or v == xbase else (w, v)], t

        return src.gmap(tgt, rule)

    def component(self, rec, n, alpha):
        """The homomorphism induced by a fixed sphere simplex alpha."""
        if alpha == self.SW.base(n):
            S = std_orbit(self.M.group, rec)
            return AbHom.zero(
                self.T_src.group_at(n, S), self.T_tgt.group_at(n, S)
            )
        return based_covariant(self.M, self.level_map(rec, n, alpha), 0, 0)


def structure_map_psi(desc, X, M, bound=None):
    return PsiMap(desc, X, M, bound=bound)


# -- exact sequence constructors -------------------------------------------------


class CofibrationSES:
    """0 -> Y (x) M -> X (x) M -> (X/Y) (x~) M -> 0 for a based subcomplex."""

    def __init__(self, incl, M):
        self.incl = incl.check()
        self.M = M
        Y, X = incl.src, incl.tgt
        for n in range(min(Y.bound, X.bound) + 1):
            if not incl.comps[n].is_injective():
                raise TensorError("cofibration needs a levelwise injection")
        subs = [set(incl.comps[n].values) for n in range(X.bound + 1)]
        self.quotient, self.proj = collapse(X, subs)
        self.sub = TensorMackey(Y, M, reduced=False)
        self.total = TensorMackey(X, M, reduced=False)
        self.quot = TensorMackey(self.quotient, M, reduced=True)

    def i_star(self, n, S):
        return self.sub.space_hom(self.total, self.incl.comps[n].values, n, S)

    def q_star(self, n, S):
        return self.total.space_hom(self.quot, self.proj.comps[n].values, n, S)

    def check_exact(self, n, S):
        i = self.i_star(n, S)
        q = self.q_star(n, S)
        return (
            i.is_injective()
            and q.is_surjective()
            and ab.is_exact_at(i, q)
        )


def ses_from_cofibration(incl, M):
    return CofibrationSES(incl, M)


class CoefficientSES:
    """0 -> X (x) M -> X (x) N -> X (x) P -> 0 from an exact coefficient pair."""

    def __init__(self, phi, psi, X, reduced=False):
        self.phi = phi
        self.psi = psi
        self.X = X
        self.reduced = reduced
        G = phi.src.group
        for rec in subgroup_classes(G):
            f = phi.comp(rec)
            g = psi.comp(rec)
            if not (f.is_injective() and g.is_surjective() and ab.is_exact_at(f, g)):
                raise TensorError("coefficients are not exact at class %d" % rec.class_id)
        self.T_m = TensorMackey(X, phi.src, reduced=reduced)
        self.T_n = TensorMackey(X, phi.tgt, reduced=reduced)
        self.T_p = TensorMackey(X, psi.tgt, reduced=reduced)

    def phi_at(self, n, S):
        return self.phi.between(self.T_m.value(n, S), self.T_n.value(n, S))

    def psi_at(self, n, S):
        return self.psi.between(self.T_n.value(n, S), self.T_p.value(n, S))

    def check_exact(self, n, S):
        f = self.phi_at(n, S)
        g = self.psi_at(n, S)
        return f.is_injective() and g.is_surjective() and ab.is_exact_at(f, g)


def ses_from_coefficients(phi, psi, X, reduced=False):
    return CoefficientSES(phi, psi, X, reduced=reduced)
