"""The tensor of a simplicial G-set with a Mackey functor.

Values are stored post-collapse: the level-n value on a finite G-set S is
M(X_n x S) (reduced: the quotient by the basepoint part, presented as the
sum over non-basepoint orbits).  Coend representatives exist as explicit
objects only at the API boundary, where the pullback recipe for the
contravariant maps can be exercised against the collapsed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import abelian as ab
from .abelian import AbHom
from .groups import subgroup_classes
from .gsets import GMap, GSet, coset_space, fixed_points, product, pullback, std_orbit
from .mackey import (
    FixedPointMackey,
    OrbitMap,
    WeylModule,
    based_contravariant,
    based_covariant,
    based_value,
    covariant_between,
)
from .simplicial import smash


class TensorError(ValueError):
    pass


@dataclass(frozen=True)
class LevelSet:
    """The level-n based or unbased G-set underlying a tensor value."""

    gset: GSet
    base: object  # point index or None
    pairs: tuple  # point index -> (x, s); the base has pair None

    def index_of(self, x, s):
        return self.pairs.index((x, s))


@lru_cache(maxsize=None)
def product_level(xlevel, S):
    p, _, _ = product(xlevel, S)
    pairs = tuple((x, s) for x in range(xlevel.size) for s in range(S.size))
    return LevelSet(gset=p, base=None, pairs=pairs)


@lru_cache(maxsize=None)
def smash_level(xlevel, xbase, S):
    """(X_n smash S_+): collapse of the basepoint column of X_n x S."""
    pts = [None] + [
        (x, s) for x in range(xlevel.size) if x != xbase for s in range(S.size)
    ]
    index = {p: i for i, p in enumerate(pts) if p is not None}
    G = xlevel.group

    def push(x, s):
        if x == xbase:
            return 0
        return index[(x, s)]

    action = []
    for g in G.elements():
        row = [0]
        for p in pts[1:]:
            x, s = p
            row.append(push(xlevel.action[g][x], S.action[g][s]))
        action.append(tuple(row))
    return LevelSet(
        gset=GSet(G, len(pts), tuple(action)), base=0, pairs=tuple(pts)
    )


def covariant_into_based(M, f, tgt_base):
    """M_* of a G-map from an unbased set into a based one, reduced target."""
    tev = based_value(M, f.tgt, tgt_base)
    return covariant_between(M, f, M.evaluate(f.src), tev, tgt_base)


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
        self._levels = {}
        self._values = {}
        self._homs = {}

    @property
    def group(self):
        return self.M.group

    @property
    def bound(self):
        return self.X.bound

    def level_set(self, n, S):
        key = (n, S)
        if key not in self._levels:
            if self.reduced:
                self._levels[key] = smash_level(self.X.levels[n], self.X.base(n), S)
            else:
                self._levels[key] = product_level(self.X.levels[n], S)
        return self._levels[key]

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

    def _xmap_levelwise(self, table, n_src, n_tgt, S):
        """The G-map (x, s) -> (table[x], s) between level sets."""
        src = self.level_set(n_src, S)
        tgt = self.level_set(n_tgt, S)
        if self.reduced:
            vals = [0]
            tgt_index = {p: i for i, p in enumerate(tgt.pairs) if p is not None}
            xbase = self.X.base(n_tgt)
            for p in src.pairs[1:]:
                x, s = p
                x2 = table[x]
                vals.append(0 if x2 == xbase else tgt_index[(x2, s)])
            return GMap(src.gset, tgt.gset, tuple(vals))
        vals = tuple(
            table[x] * S.size + s for (x, s) in src.pairs
        )
        return GMap(src.gset, tgt.gset, vals)

    def _value_hom(self, f, n_src, n_tgt, S):
        if self.reduced:
            return based_covariant(self.M, f, 0, 0)
        return self.M.covariant(f)

    def op(self, alpha, m, n, S):
        """The simplicial operator alpha* for monotone alpha: [m] -> [n]."""
        key = ("op", alpha, m, n, S)
        if key not in self._homs:
            table = self.X.operator(alpha, m, n)
            f = self._xmap_levelwise(table, n, m, S)
            self._homs[key] = self._value_hom(f, n, m, S)
        return self._homs[key]

    def face(self, n, i, S):
        from .simplicial import delta

        return self.op(delta(i, n), n - 1, n, S)

    def degen(self, n, i, S):
        from .simplicial import eta

        return self.op(eta(i, n), n + 1, n, S)

    def covariant_S(self, n, f):
        """Transfer along f: S -> T at level n."""
        key = ("cov", n, f)
        if key not in self._homs:
            src = self.level_set(n, f.src)
            tgt = self.level_set(n, f.tgt)
            if self.reduced:
                tgt_index = {
                    p: i for i, p in enumerate(tgt.pairs) if p is not None
                }
                vals = [0] + [
                    tgt_index[(x, f.values[s])] for (x, s) in src.pairs[1:]
                ]
                g = GMap(src.gset, tgt.gset, tuple(vals))
                self._homs[key] = based_covariant(self.M, g, 0, 0)
            else:
                vals = tuple(
                    x * f.tgt.size + f.values[s] for (x, s) in src.pairs
                )
                g = GMap(src.gset, tgt.gset, vals)
                self._homs[key] = self.M.covariant(g)
        return self._homs[key]

    def contravariant_S(self, n, f):
        """Restriction along f: S -> T at level n (from T-value to S-value)."""
        key = ("con", n, f)
        if key not in self._homs:
            src = self.level_set(n, f.src)
            tgt = self.level_set(n, f.tgt)
            if self.reduced:
                tgt_index = {
                    p: i for i, p in enumerate(tgt.pairs) if p is not None
                }
                vals = [0] + [
                    tgt_index[(x, f.values[s])] for (x, s) in src.pairs[1:]
                ]
                g = GMap(src.gset, tgt.gset, tuple(vals))
                self._homs[key] = based_contravariant(self.M, g, 0, 0)
            else:
                vals = tuple(
                    x * f.tgt.size + f.values[s] for (x, s) in src.pairs
                )
                g = GMap(src.gset, tgt.gset, vals)
                self._homs[key] = self.M.contravariant(g)
        return self._homs[key]

    def orbit_transition(self, n, om):
        """Restriction along the orbit map om at level n, between std orbits."""
        return self.contravariant_S(n, om.gmap())

    def space_hom(self, other, table, n, S):
        """The hom induced by a level map of spaces (x, s) -> (table[x], s).

        `other` is the tensor of the target space with the same coefficients;
        for reduced tensors, points landing on the basepoint are crushed.
        """
        src = self.level_set(n, S)
        tgt = other.level_set(n, S)
        if self.reduced or other.reduced:
            tgt_index = {p: i for i, p in enumerate(tgt.pairs) if p is not None}
            vals = []
            for p in src.pairs:
                if p is None:
                    vals.append(0)
                    continue
                x, s = p
                x2 = table[x]
                if other.reduced and x2 == other.X.base(n):
                    vals.append(0)
                else:
                    vals.append(tgt_index[(x2, s)])
            g = GMap(src.gset, tgt.gset, tuple(vals))
            if self.reduced:
                return based_covariant(self.M, g, 0, 0)
            return covariant_into_based(self.M, g, 0)
        vals = tuple(table[x] * S.size + s for (x, s) in src.pairs)
        return self.M.covariant(GMap(src.gset, tgt.gset, vals))

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
    vals = tuple(base * S.size + s for s in range(S.size))
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
        p_idx = x * S.size + s
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
    tgt_ls = T.level_set(n, f.tgt)
    src_ls = T.level_set(n, f.src)
    vals = tuple(x * f.tgt.size + f.values[s] for (x, s) in src_ls.pairs)
    idxf = GMap(src_ls.gset, tgt_ls.gset, vals)
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

    def level_module(self, n):
        """(module, support, generator offset of each support block)."""
        if n not in self._levels:
            sup = self.support(n)
            pos = {x: i for i, x in enumerate(sup)}
            summands = [self.A.value] * len(sup)
            value, offsets = ab.direct_sum_data(summands)
            W = self.K.group
            mats = []
            for w in W.elements():
                act = self.K.levels[n].action[w]
                aw = self.A.hom(w)
                blocks = [
                    (pos[act[x]], i, aw) for i, x in enumerate(sup) if act[x] in pos
                ]
                mats.append(ab.assemble_block_hom(summands, summands, blocks)[0].mat)
            self._levels[n] = (WeylModule(W, value, tuple(mats)), sup, tuple(offsets))
        return self._levels[n]

    def module(self, n):
        return self.level_module(n)[0]

    def face_hom(self, n, i):
        table = self.K.faces[n][i].values
        return _routed_hom(self.A.value, self.support(n), self.support(n - 1), table)

    def degen_hom(self, n, i):
        table = self.K.degens[n][i].values
        return _routed_hom(self.A.value, self.support(n), self.support(n + 1), table)

    def chain_complex(self):
        """Alternating-sum complex on the normalized (nondegenerate) blocks;
        a face that lands on a degenerate simplex or the basepoint vanishes."""
        A = self.A.value
        keeps = [
            tuple(x for x in self.support(n) if not self.K.degenerate_flags(n)[x])
            for n in range(self.K.bound + 1)
        ]
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
    pts = sm._smash_points
    index = {p: i for i, p in enumerate(pts[n]) if p is not None}
    table = []
    for x in range(K.levels[n].size):
        if y == Y.base(n) or x == K.base(n):
            table.append(sm.base(n))
        else:
            table.append(index[(y, x)])
    return _routed_hom(A.value, mt_k.support(n), mt_s.support(n), table)


# -- the comparison with fixed-point coefficient systems ------------------------


class RhoIso:
    """The natural identification of X (x) R_A with the fixed-point functor
    of the linearized fixed-point space, level by level and orbit by orbit."""

    def __init__(self, X, hrec, module, reduced=False):
        G = hrec.group
        self.X = X
        self.hrec = hrec
        self.module = module
        self.reduced = reduced
        self.RA = FixedPointMackey(G, hrec, module)
        self.T = TensorMackey(X, self.RA, reduced=reduced)
        y, pts = _fixed_system_of(X, hrec)
        self.Y = y
        self.ypoints = pts
        self.MT = ModuleTensor(y, _weyl_restrict(module, y.group), reduced=reduced)
        self._rhs = {}
        self._rho = {}
        self._sigma = {}
        self._offsets = {}  # (n, S) -> (fixed point -> offset, X point -> offset)

    def rhs_functor(self, n):
        """The fixed-point Mackey functor with coefficients A[X^H_n]."""
        if n not in self._rhs:
            self._rhs[n] = FixedPointMackey(
                self.hrec.group, self.hrec, self.MT.module(n)
            )
        return self._rhs[n]

    def _point_offset(self, n, S, p):
        """The first generator of the block of the point p = (x, s) of
        (X_n x S)^H in the ambient sum of the right-hand side at S."""
        if (n, S) not in self._offsets:
            fp, offsets = self.rhs_functor(n)._container(S)[:2]
            _, sup, moffsets = self.MT.level_module(n)
            ypoints = self.ypoints[n]
            self._offsets[(n, S)] = (
                dict(zip(fp.points, offsets)),
                {ypoints[y]: o for y, o in zip(sup, moffsets)},
            )
        x, s = self.T.level_set(n, S).pairs[p]
        by_s, by_x = self._offsets[(n, S)]
        return by_s[s] + by_x[x]

    def _lhs_function(self, rec, n, vec):
        """Decode an LHS element into A-vectors on (X_n x S)^H."""
        G = self.hrec.group
        lev = self.T.value(n, std_orbit(G, rec))
        out = {}
        for i, o in enumerate(lev.orbits):
            start = lev.offsets[i]
            block = vec[start : start + lev.summands[i].ngens]
            orb = std_orbit(G, o.record)
            fdata = self.RA.function_of_element(orb, block)
            for slot, coset in enumerate(fixed_points(orb, self.hrec.elements).points):
                out[o.from_std[coset]] = fdata[slot]
        return out

    def rho(self, rec, n):
        key = (rec.class_id, n)
        if key not in self._rho:
            S = std_orbit(self.hrec.group, rec)
            lev = self.T.value(n, S)
            incl = self.rhs_functor(n)._container(S)[3]
            a = self.module.value.ngens
            cols = []
            for c in range(lev.value.ngens):
                unit = tuple(1 if i == c else 0 for i in range(lev.value.ngens))
                amb = [0] * incl.tgt.ngens
                for p, avec in self._lhs_function(rec, n, unit).items():
                    o = self._point_offset(n, S, p)
                    amb[o : o + a] = [u + v for u, v in zip(amb[o : o + a], avec)]
                cols.append({i: x for i, x in enumerate(amb) if x})
            out = incl.preimage_matrix(AbHom.from_columns(lev.value, incl.tgt, cols))
            if out is None:
                raise TensorError("rho image is not equivariant")
            self._rho[key] = out
        return self._rho[key]

    def sigma(self, rec, n):
        key = (rec.class_id, n)
        if key not in self._sigma:
            G = self.hrec.group
            S = std_orbit(G, rec)
            lev = self.T.value(n, S)
            ker, incl = self.rhs_functor(n)._container(S)[2:]
            a = self.module.value.ngens
            # the rows of incl at a point's offset are its A-vectors, one
            # column per generator of the right-hand side
            rows = []
            for o in lev.orbits:
                orb = std_orbit(G, o.record)
                amb = []
                for coset in fixed_points(orb, self.hrec.elements).points:
                    start = self._point_offset(n, S, o.from_std[coset])
                    amb.extend(incl.mat[start : start + a])
                inner = self.RA._container(orb)[3]
                blk = inner.preimage_matrix(AbHom(ker, inner.tgt, tuple(amb)))
                if blk is None:
                    raise TensorError("sigma image is not equivariant")
                rows.extend(blk.mat)
            self._sigma[key] = AbHom(ker, lev.value, tuple(rows))
        return self._sigma[key]


def _fixed_system_of(X, hrec):
    from .simplicial import fixed_system

    return fixed_system(X, hrec.elements)


def _weyl_restrict(module, wgroup):
    if module.group != wgroup:
        raise TensorError("module is not over the expected Weyl group")
    return module


def rho_iso(X, hrec, module, reduced=False):
    return RhoIso(X, hrec, module, reduced=reduced)


# -- the structure map of the suspension spectrum -------------------------------


class PsiMap:
    """The map smashing a fixed sphere simplex onto a reduced tensor class."""

    def __init__(self, desc, X, M, bound=None, sphere=None):
        from .simplicial import representation_sphere

        G = M.group
        b = bound if bound is not None else X.bound
        self.desc = desc
        self.X = X
        self.M = M
        self.SW = sphere if sphere is not None else representation_sphere(G, desc, b)
        self.SX = smash(self.SW, X)
        self.T_src = TensorMackey(X, M, reduced=True)
        self.T_tgt = TensorMackey(self.SX, M, reduced=True)
        self._smash_index = [
            {p: i for i, p in enumerate(lv) if p is not None}
            for lv in self.SX._smash_points
        ]

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
        G = self.M.group
        S = std_orbit(G, rec)
        _, reps, _ = coset_space(G, rec.elements)
        src = self.T_src.level_set(n, S)
        tgt = self.T_tgt.level_set(n, S)
        tgt_index = {p: i for i, p in enumerate(tgt.pairs) if p is not None}
        vals = [0]
        for p in src.pairs[1:]:
            x, t = p
            w = self.SW.levels[n].action[reps[t]][alpha]
            if w == self.SW.base(n):
                vals.append(0)
                continue
            sm = self._smash_index[n][(w, x)]
            vals.append(tgt_index[(sm, t)] if sm != self.SX.base(n) else 0)
        return GMap(src.gset, tgt.gset, tuple(vals))

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
        from .simplicial import collapse

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
        f = self.incl.comps[n]
        src = self.sub.level_set(n, S)
        tgt = self.total.level_set(n, S)
        vals = tuple(f.values[x] * S.size + s for (x, s) in src.pairs)
        return self.M.covariant(GMap(src.gset, tgt.gset, vals))

    def q_star(self, n, S):
        p = self.proj.comps[n]
        src = self.total.level_set(n, S)
        tgt = self.quot.level_set(n, S)
        tgt_index = {q: i for i, q in enumerate(tgt.pairs) if q is not None}
        vals = []
        for (x, s) in src.pairs:
            q = p.values[x]
            vals.append(0 if q == self.quotient.base(n) else tgt_index[(q, s)])
        return covariant_into_based(
            self.M, GMap(src.gset, tgt.gset, tuple(vals)), 0
        )

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
