"""The tensor of a simplicial G-set with a Mackey functor.

Values are stored post-collapse: the level-n value on a finite G-set S is
M(X_n x S) (reduced: the quotient by the basepoint part, presented as the
sum over non-basepoint orbits).  No coend representative is formed; the
tests check the collapsed maps against the coend's pullback recipe.

Every level has one layout, LevelSet: the points (x, s) of X_n x S on the
kept simplices x, with a sink when some simplex is left out.  Full,
reduced and normalized levels differ only in the simplices they keep; a
normalized level is built on the nondegenerate simplices' G-set alone,
and names each simplex by its index y in X.nd[n].  A level's sink is its
basepoint: values and maps are the coefficients' evaluations at the level
sets' basepoints, reduced or not alike.

The package's computations read normalized levels only: the chains of
homotopy.MackeyChainComplex, laid out on the G-set of a cell table's
cells, which is X.nd[n] for the normalized table and, for Bredon homology
of a smash, the pairs of its factors' cells (homotopy._cells); both exact
sequences' maps; and rho and sigma, which read the copies of the
nondegenerate simplices in full-level order off the space
(SimplicialGSet.nd_copies).  Full levels are laid out only by
TensorMackey's level API (level_set, value, op and the maps along S), by
the public psi (PsiMap.component), by ModuleTensor and by tests.
"""

from functools import lru_cache
from itertools import accumulate

from . import abelian as ab
from .abelian import AbHom
from .groups import Frozen, subgroup_classes
from .gsets import GMap, GSet, coset_space, fixed_points, orbit_decompose, std_orbit
from .mackey import FixedPointMackey, WeylModule, _fixed_block_hom, _orbits_under
from .simplicial import delta, smash, sphere_for_descriptors

__all__ = [
    "TensorError", "LevelSet", "TensorMackey", "tensor", "reduced_tensor", "ModuleTensor",
    "RhoIso", "rho_iso", "PsiMap", "structure_map_psi", "ShortExactSequence",
    "CofibrationSES", "ses_from_cofibration", "CoefficientSES", "ses_from_coefficients",
]


class TensorError(ValueError):
    pass


class LevelSet(Frozen):
    """The layout of a tensor level: the points (x, s) of X_n x S whose
    simplex x is kept, plus a sink at point 0 when some simplex is left out.

    A full level keeps every simplex, or every simplex but the basepoint for
    a reduced tensor; a normalized level keeps the nondegenerate ones.  The
    points keep their order in X_n x S.  base is the sink 0, or None; pairs
    sends a point index to its (x, s), the sink to None, and index, which
    is not compared, goes back; kept holds the kept simplices of X_n.
    """

    __slots__ = ("gset", "base", "pairs", "kept", "index")

    def __init__(self, gset, base, pairs, kept, index):
        object.__setattr__(self, "gset", gset)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_key", (gset, base, pairs, kept))

    def gmap(self, tgt, rule):
        """The G-map into the level set tgt sending (x, s) to rule(x, s).

        The sink, and every point whose image simplex tgt does not keep,
        goes to tgt.base; any other image must be a point of tgt.  The rule
        must be equivariant, which is not checked.
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
        return GMap._trusted(self.gset, tgt.gset, tuple(vals))


def _build_level(xlevel, xs, S, sink):
    """The LevelSet of xlevel x S on the simplices xs, an increasing list of
    points of xlevel making a G-invariant set, with a sink at point 0 if
    sink.  The restricted product action is an action, so the G-set skips
    GSet's checks; a kept set that is not invariant fails."""
    rank, m, start = {x: r for r, x in enumerate(xs)}, S.size, int(sink)
    action = tuple(
        (0,) * start + tuple(start + rank[xa[x]] * m + sa[s] for x in xs for s in range(m))
        for xa, sa in zip(xlevel.action, S.action)
    )
    pairs = (None,) * start + tuple((x, s) for x in xs for s in range(m))
    index = {p: i for i, p in enumerate(pairs) if p is not None}
    gset = GSet._trusted(xlevel.group, len(pairs), action)
    return LevelSet(gset, 0 if sink else None, pairs, frozenset(xs), index)


@lru_cache(maxsize=None)
def product_level(xlevel, S):
    return _build_level(xlevel, range(xlevel.size), S, sink=False)


@lru_cache(maxsize=None)
def smash_level(xlevel, xbase, S):
    """(X_n smash S_+): collapse of the basepoint column of X_n x S."""
    return _build_level(xlevel, [x for x in range(xlevel.size) if x != xbase], S, sink=True)


class TensorMackey:
    """X (x) M and its reduced variant, level by level and G-set by G-set.

    A reduced level set is based at its sink and an unreduced one is not;
    every value and map is M's, evaluated at those basepoints and cached by
    M, so the two variants share one evaluation path.
    """

    def __init__(self, X, M, reduced=False):
        if reduced and not X.based:
            raise TensorError("reduced tensor needs a based space")
        if X.group != M.group:
            raise TensorError("space and coefficients must share the group")
        self.X = X
        self.M = M
        self.reduced = reduced
        self._homs, self._chains = {}, None  # _chains: homotopy.normalized_chains

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
        ls = self.level_set(n, S)
        return self.M.evaluate(ls.gset, ls.base)

    def group_at(self, n, S):
        return self.value(n, S).value

    def _induced(self, kind, src, tgt, rule):
        """M_* ("cov") or M^* ("con") of the G-map src -> tgt of level sets
        given by rule, between their basepoints."""
        induced = self.M.covariant if kind == "cov" else self.M.contravariant
        return induced(src.gmap(tgt, rule), src.base, tgt.base)

    def op(self, alpha, m, n, S):
        """The simplicial operator alpha* for monotone alpha: [m] -> [n]."""
        key = ("op", alpha, m, n, S)
        if key not in self._homs:
            table = self.X.operator(alpha, m, n)
            src, tgt = self.level_set(n, S), self.level_set(m, S)
            self._homs[key] = self._induced("cov", src, tgt, lambda x, s: (table[x], s))
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
            src, tgt = self.level_set(n, f.src), self.level_set(n, f.tgt)
            self._homs[key] = self._induced(kind, src, tgt, lambda x, s: (x, f.values[s]))
        return self._homs[key]


def tensor(X, M):
    return TensorMackey(X, M, reduced=False)


def reduced_tensor(X, M):
    return TensorMackey(X, M, reduced=True)


# -- module tensors -----------------------------------------------------------


class ModuleTensor:
    """Levelwise linearization of a based simplicial Weyl-set with module A,
    on its full levels."""

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
        """The level-n W-module: one copy of A per support simplex, a
        permutation module, so its fixed parts split over orbits."""
        if n not in self._levels:
            self._levels[n] = self._permutation(self.support(n), n)
        return self._levels[n]

    def _permutation(self, keep, n):
        """The permutation module of A on keep, a W-stable set of level-n
        simplices."""
        W, pos, act = self.K.group, {x: i for i, x in enumerate(keep)}, self.K.levels[n].action
        rows = tuple(tuple(pos[act[w][x]] for x in keep) for w in W.elements())
        return WeylModule.permutation(self.A, GSet._trusted(W, len(keep), rows))


# -- the comparison with fixed-point coefficient systems ------------------------


class RhoIso:
    """The natural identification of X (x) R_A with the fixed-point functor
    of A[X^H], the linearized fixed-point space, level by level and orbit
    by orbit.

    Both sides are A-valued W-equivariant functions on (X_n x S)^H = X^H_n
    x S^H, in orbit coordinates: a value in A^{W_c} at the representative c
    of each W-orbit.  The left side takes its representatives orbit by
    orbit of X_n x S, the right side by W-orbit [s] of S^H and then by
    W_s-orbit of X^H_n.  A left representative is w times a right one, so
    rho is the block map a |-> w^-1 a and sigma the block map b |-> w b
    between fixed parts of A (WeylModule.fixed_map); neither solves over
    the sums.  When those fixed parts are free and W moves them by signed
    permutations, as for Z[W] and Z, rho is a signed permutation between
    free groups, and AbHom.is_iso reads it off the columns with no kernel
    or cokernel.

    No full level is laid out.  By the Eilenberg-Zilber lemma X_n is the
    sum of the G-sets s^* ND_k over the surjections s: [n] ->> [k].  The
    G-set C of each copy lists its simplices in the order of their
    full-level indices (SimplicialGSet.nd_copies).  The orbits of X_n x S are
    those of each C x S (orbit_decompose) merged by least point, and X^H_n
    is the copies' H-fixed points merged alike, so the orbits, their
    representatives and the values come in the order of the full level.
    """

    def __init__(self, X, hrec, module, reduced=False):
        self.X, self.hrec, self.module, self.reduced = X, hrec, module, reduced
        self.RA = FixedPointMackey(hrec.group, hrec, module)
        self.T = TensorMackey(X, self.RA, reduced=reduced)
        self._layouts, self._homs = {}, {}

    def _build_layout(self, rec, n):
        """(left value, right value, left orbits, right orbits, rho's terms,
        sigma's terms) at G/H and level n, the orbits with their stabilizers
        as _orbits_under gives them; built once for rho and sigma."""
        G, W, H = self.hrec.group, self.hrec.weyl, self.hrec.elements
        S, copies = std_orbit(G, rec), self.X.nd_copies(n, self.reduced)
        m = S.size  # the points of C x S are (y, t) at y m + t
        # the orbits of X_n x S by least point: each copy's C x S by orbit_decompose
        left = sorted(
            (pos[o.points[0] // m], o.points[0] % m, o.record, s, divmod(o.basepoint, m))
            for s, (C, pos) in copies.items()
            for o in orbit_decompose(product_level(C, S).gset)
        )
        # X^H_n as a W-set: the copies' H-fixed points, in full-level order
        fixed = {s: fixed_points(C, H) for s, (C, _) in copies.items()}
        points = sorted(
            (copies[s][1][p], s, i) for s, fc in fixed.items() for i, p in enumerate(fc.points)
        )
        index = {(s, i): j for j, (_, s, i) in enumerate(points)}
        wact = [[index[s, fixed[s].wset.action[w][i]] for _, s, i in points] for w in W.elements()]
        # the right-hand orbits: by orbit [s] of S^H, then by W_s-orbit of X^H_n
        fp, (_, s_stabs, s_where), _ = self.RA._orbit_layout(S)
        orbits = [_orbits_under(wact, K, len(points)) for K in s_stabs]
        starts = list(accumulate((len(o[0]) for o in orbits), initial=0))
        rstabs = [k for o in orbits for k in o[1]]
        rvalues = [ab.direct_sum_data([self.module.fixed(k)[0] for k in o[1]])[0] for o in orbits]
        lstabs, to_left, to_right, orbit_reps = [], [], [None] * len(rstabs), {}
        for _, _, orec, s, (y0, t0) in left:
            if orec not in orbit_reps:
                fo, (reps, stabs, _), _ = self.RA._orbit_layout(std_orbit(G, orec))
                orbit_reps[orec] = fo, reps, stabs, coset_space(G, orec.elements)[1]
            fo, reps, stabs, cosets = orbit_reps[orec]
            for c, k in zip(reps, stabs):
                # the left representative g (y0, t0) is w = u v times a right one
                g = cosets[fo.points[c]]
                i, u = s_where[fp.index[S.action[g][t0]]]
                y = index[s, fixed[s].index[copies[s][0].action[g][y0]]]
                j, v = orbits[i][2][wact[W.inv(u)][y]]
                w, r = W.mul[u][v], starts[i] + j
                to_right[r] = [(len(lstabs), W.inv(w))]
                to_left.append([(r, w)])
                lstabs.append(k)
        lvalue = ab.direct_sum_data([self.RA.orbit_value(entry[2]) for entry in left])[0]
        # as layouts for _fixed_block_hom, each representative its own orbit
        ends = [(None, st, [(i, W.identity) for i in range(len(st))]) for st in (lstabs, rstabs)]
        return lvalue, ab.direct_sum_data(rvalues)[0], *ends, to_right, to_left

    def _hom(self, kind, rec, n):
        """rho or sigma at G/H and level n."""
        key = (rec.class_id, n)
        if key not in self._layouts:
            self._layouts[key] = self._build_layout(rec, n)
        if (kind, *key) not in self._homs:
            lv, rv, left, right, to_right, to_left = self._layouts[key]
            if kind == "rho":
                ends = left, right, to_right, lv, rv
            else:
                ends = right, left, to_left, rv, lv
            self._homs[kind, *key] = _fixed_block_hom(self.module, *ends)
        return self._homs[kind, *key]

    def rho(self, rec, n):
        """a |-> w^-1 a from each left representative to its right one."""
        return self._hom("rho", rec, n)

    def sigma(self, rec, n):
        """b |-> w b from each right representative to its left one."""
        return self._hom("sigma", rec, n)


def rho_iso(X, hrec, module, reduced=False):
    return RhoIso(X, hrec, module, reduced=reduced)


# -- the structure map of the suspension spectrum -------------------------------


class PsiMap:
    """The map smashing a fixed sphere simplex onto a reduced tensor class;
    S^W is the sphere of the descriptors descs, built at X.bound.  component
    reads full levels; the loop comparison (homotopy._phi_induced) reads
    shuffle pairs among the smash's nondegenerate simplices instead."""

    def __init__(self, descs, X, M):
        self.descs = descs
        self.X = X
        self.M = M
        self.SW = sphere_for_descriptors(M.group, list(descs), X.bound)
        self.SX = smash(self.SW, X)
        self.T_src = TensorMackey(X, M, reduced=True)
        self.T_tgt = TensorMackey(self.SX, M, reduced=True)

    def level_map(self, rec, n, alpha):
        """The based G-map (x, t) |-> ((alpha-hat(t), x), t) of the full
        level-n sets; for the basepoint alpha every pair goes to the sink."""
        S = std_orbit(self.M.group, rec)
        src, tgt = self.T_src.level_set(n, S), self.T_tgt.level_set(n, S)
        reps, act = coset_space(self.M.group, rec.elements)[1], self.SW.levels[n].action
        index, base = self.SX._smash_index[n], alpha == self.SW.base(n)
        return src.gmap(tgt, lambda x, t: (index[None if base else (act[reps[t]][alpha], x)], t))

    def component(self, rec, n, alpha):
        """The homomorphism induced by a fixed sphere simplex alpha."""
        if alpha == self.SW.base(n):
            S = std_orbit(self.M.group, rec)
            return AbHom.zero(
                self.T_src.group_at(n, S), self.T_tgt.group_at(n, S)
            )
        return self.M.covariant(self.level_map(rec, n, alpha), 0, 0)


def structure_map_psi(desc, X, M):
    return PsiMap([desc], X, M)


# -- exact sequence constructors -------------------------------------------------


class ShortExactSequence:
    """0 -> A -> B -> C -> 0, level by level, for the tensors (A, B, C).

    A subclass states its two maps once, in map(k, n, src, tgt): the first
    (k = 0) or the second (k = 1) map at level n, from the normalized level
    set src of tensors[k] to the normalized level set tgt of tensors[k + 1],
    as homotopy.exact_chain_maps reads them.  names label the three tensors
    in the long exact sequence.
    """


class CofibrationSES(ShortExactSequence):
    """0 -> Y (x) M -> X (x) M -> (X/Y) (x~) M -> 0 for a based subcomplex.

    The quotient X/Y and its projection are incl.cofiber(), which the map
    builds and checks once on nondegenerate simplices: every sequence of
    one inclusion, whatever its coefficients, shares one quotient, so their
    tensors meet the functor caches by identity.  The maps are M_* of incl
    and proj, read at a nondegenerate simplex y off its image (s, z): z when
    s is the identity, the sink when the image is degenerate.
    """

    names = ("sub", "total", "quot")

    def __init__(self, incl, M):
        self.incl = incl
        self.quotient, self.proj = incl.cofiber()
        self.sub = TensorMackey(incl.src, M, reduced=False)
        self.total = TensorMackey(incl.tgt, M, reduced=False)
        self.quot = TensorMackey(self.quotient, M, reduced=True)
        self.tensors = (self.sub, self.total, self.quot)

    def map(self, k, n, src, tgt):
        image = [z if s[-1] == n else None for s, z in (self.incl, self.proj)[k].images[n]]
        return self.tensors[k]._induced("cov", src, tgt, lambda y, t: (image[y], t))


def ses_from_cofibration(incl, M):
    return CofibrationSES(incl, M)


class CoefficientSES(ShortExactSequence):
    """0 -> X (x) M -> X (x) N -> X (x) P -> 0 from an exact coefficient pair;
    the maps are phi and psi between the values of the level sets.  The
    pair must meet at one functor N, and at every orbit class phi must be
    injective, psi surjective and psi phi zero with ker psi = im phi."""

    names = ("M", "N", "P")

    def __init__(self, phi, psi, X, reduced=False):
        if phi.tgt is not psi.src:
            raise TensorError("the target of phi is not the source of psi")
        self.phi = phi
        self.psi = psi
        for rec in subgroup_classes(phi.src.group):
            f, g = phi.comp(rec), psi.comp(rec)
            try:
                exact = f.is_injective() and g.is_surjective() and ab.is_exact_at(f, g)
            except ab.ContractError as err:
                raise TensorError("coefficients at class %d: %s" % (rec.class_id, err)) from err
            if not exact:
                raise TensorError("coefficients are not exact at class %d" % rec.class_id)
        self.T_m = TensorMackey(X, phi.src, reduced=reduced)
        self.T_n = TensorMackey(X, phi.tgt, reduced=reduced)
        self.T_p = TensorMackey(X, psi.tgt, reduced=reduced)
        self.tensors = (self.T_m, self.T_n, self.T_p)

    def map(self, k, n, src, tgt):
        # the coefficients cache their values: a level read before is not evaluated again
        sev = self.tensors[k].M.evaluate(src.gset, src.base)
        tev = self.tensors[k + 1].M.evaluate(tgt.gset, tgt.base)
        return (self.phi, self.psi)[k].between(sev, tev)


def ses_from_coefficients(phi, psi, X, reduced=False):
    return CoefficientSES(phi, psi, X, reduced=reduced)
