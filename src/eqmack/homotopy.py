"""Homotopy-level computations: normalized chains, Bredon homology,
equivariant mapping complexes, loop-space comparisons, graded tables.

Normalized chains N_n are built on the nondegenerate n-simplices only: the
degenerate part D of the chains C is a subcomplex and N = C/D, so a face
that lands on a degenerate simplex or on the basepoint is dropped.  Homotopy
groups of strict mapping objects are the homology of the natural-family
solution lattices, computed degreewise.

There is one mapping-complex engine, MappingComplex.  A family natural over
the orbit category and a W-equivariant map differ only in the charts and
relations the engine is given: one chart per orbit class related by the
orbit maps, or one chart related to itself by the elements of W
(EquivariantMappingComplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate

from . import abelian as ab
from . import intlinalg as la
from .abelian import AbHom, ChainComplex, ChainMap
from .groups import subgroup_classes
from .gsets import GMap, GSet, coset_space, disjoint_union, std_orbit
from .mackey import (
    OrbitMap,
    WrappedMackey,
    _orbit_blocks,
    based_value,
    contravariant_between,
    covariant_between,
    orbit_maps_between,
)
from .simplicial import (
    SimplicialGSet,
    discrete_space,
    fixed_system,
    monotones,
    phi_transition,
    smash,
    sphere_for_descriptors,
    standard_simplex_plus,
)
from .tensor import PsiMap, TensorMackey, reduced_tensor


class HomotopyError(ValueError):
    pass


# -- normalized chains ----------------------------------------------------------


@dataclass
class NondegenerateLevel:
    """The level-n points (x, s) of a tensor at S whose simplex x is
    nondegenerate (and, for a reduced tensor, not the basepoint), as a G-set
    with one extra point 0, the sink.

    The points keep their order in the full level, so value has the orbits,
    basepoints and records of the full level's nondegenerate orbits.  value
    omits the sink's orbit: a map sends to the sink every point that lands
    on the basepoint or on a degenerate simplex, and so drops it.
    """

    gset: GSet
    pairs: tuple  # point -> (x, s); the sink has None
    index: dict  # (x, s) -> point
    value: object  # Evaluated

    def gmap(self, tgt, xtable=None, stable=None):
        """The G-map (x, s) -> (xtable[x], stable[s]) into the level tgt."""
        vals = [0]
        for x, s in self.pairs[1:]:
            key = (x if xtable is None else xtable[x], s if stable is None else stable[s])
            vals.append(tgt.index.get(key, 0))
        return GMap(self.gset, tgt.gset, tuple(vals))


class MackeyChainComplex:
    """Normalized chains of the tensor T, per orbit class.

    N_n(G/H) is built on the nondegenerate n-simplices only, one block per
    orbit, and never on the full level: the degenerate part D of the chains
    C is a subcomplex, so N = C/D, and a face, transfer or restriction that
    lands on a degenerate simplex or on the basepoint contributes nothing.
    """

    def __init__(self, T):
        self.T = T
        self._levels = {}
        self._complexes = {}
        self._chainmaps = {}

    def level(self, rec, n):
        """The NondegenerateLevel of level n at G/H."""
        key = (rec.class_id, n)
        if key not in self._levels:
            G, X, S = self.T.group, self.T.X, std_orbit(self.T.group, rec)
            flags = X.degenerate_flags(n)
            base = X.base(n) if self.T.reduced else None
            pairs = [None] + [
                (x, s)
                for x in range(X.levels[n].size)
                if not flags[x] and x != base
                for s in range(S.size)
            ]
            index = {p: i for i, p in enumerate(pairs) if p is not None}
            act = X.levels[n].action
            action = [
                (0,) + tuple(index[(act[g][x], S.action[g][s])] for x, s in pairs[1:])
                for g in G.elements()
            ]
            gset = GSet(G, len(pairs), action)
            value = based_value(self.T.M, gset, 0)
            self._levels[key] = NondegenerateLevel(gset, tuple(pairs), index, value)
        return self._levels[key]

    def complex(self, rec):
        """N(G/H) with d_n = sum (-1)^i d_i, one block per nondegenerate
        source orbit and face index whose face is kept."""
        if rec.class_id not in self._complexes:
            M = self.T.M
            faces = self.T.X.faces
            groups = {n: self.level(rec, n).value.value for n in range(self.T.bound + 1)}
            diffs = {}
            for n in range(1, self.T.bound + 1):
                src, tgt = self.level(rec, n), self.level(rec, n - 1)
                entries = []
                for i in range(n + 1):
                    f = src.gmap(tgt, xtable=faces[n][i].values)
                    for si, ti, om in _orbit_blocks(M, f, src.value, tgt.value, 0):
                        h = M.orbit_covariant(om)
                        entries.append((ti, si, h if i % 2 == 0 else -h))
                diffs[n] = ab.assemble_block_hom(
                    src.value.summands, tgt.value.summands, entries
                )[0]
            self._complexes[rec.class_id] = ChainComplex(groups=groups, diffs=diffs)
        return self._complexes[rec.class_id]

    def transition_chain_map(self, om, variance):
        """res (contravariant) or tr (covariant) as a chain map of complexes."""
        key = (om, variance)
        if key not in self._chainmaps:
            M = self.T.M
            stable = om.gmap().values
            comps = {}
            between = contravariant_between if variance == "res" else covariant_between
            for n in range(self.T.bound + 1):
                src, tgt = self.level(om.src, n), self.level(om.tgt, n)
                f = src.gmap(tgt, stable=stable)
                comps[n] = between(M, f, src.value, tgt.value, 0)
            self._chainmaps[key] = ChainMap(
                self.complex(om.tgt if variance == "res" else om.src),
                self.complex(om.src if variance == "res" else om.tgt),
                comps,
            )
        return self._chainmaps[key]


# -- Bredon homology -------------------------------------------------------------


def bredon_homology(X, M, n, based=True):
    """H_n of the (reduced) tensor, as a Mackey functor on orbit classes.

    Read off the normalized chains, built on nondegenerate simplices only.
    """
    if n >= X.bound:
        raise HomotopyError("degree %d is past the dimension bound %d" % (n, X.bound))
    T = TensorMackey(X, M, reduced=based)
    chains = MackeyChainComplex(T)
    G = M.group
    values = {}
    for rec in subgroup_classes(G):
        values[rec.class_id] = chains.complex(rec).homology(n)

    def cov(om):
        return chains.transition_chain_map(om, "tr").induced(n)

    def con(om):
        return chains.transition_chain_map(om, "res").induced(n)

    return WrappedMackey(G, values, cov, con, label="H_%d" % n)


def bredon_groups(X, M, degrees, based=True):
    """Invariant-factor table: degree -> class_id -> (free, torsion)."""
    T = TensorMackey(X, M, reduced=based)
    chains = MackeyChainComplex(T)
    out = {}
    for n in degrees:
        if n >= X.bound:
            raise HomotopyError("degree %d past bound %d" % (n, X.bound))
        out[n] = {
            rec.class_id: chains.complex(rec).homology(n)
            for rec in subgroup_classes(M.group)
        }
    return out


# -- mapping complexes ------------------------------------------------------------


def normal_form(Y, m, p):
    """(level, core point, eta word bottom-up) for a point of a space."""
    word = []
    level = m
    while level > 0:
        flags = Y.degenerate_flags(level)
        if not flags[p]:
            break
        for i in range(level):
            if Y.degens[level - 1][i].values[Y.faces[level][i].values[p]] == p:
                word.append(i)
                p = Y.faces[level][i].values[p]
                level -= 1
                break
        else:
            raise HomotopyError("degenerate point without a section")
    word.reverse()
    return level, p, word


@dataclass
class Chart:
    """A based space with the target's levels over it.

    value(m) is the target group at level m; face(m, i) and degen(m, i) are
    its simplicial operators.
    """

    space: SimplicialGSet
    value: object
    face: object
    degen: object


@dataclass
class Relation:
    """hom(m) f_src(x) = f_tgt(level[m][x]) for every point x of the source
    chart's space, where hom(m): value_src(m) -> value_tgt(m)."""

    src: object  # chart key
    tgt: object  # chart key
    hom: object
    level: tuple  # per-level point tables, source space -> target space


class MappingComplex:
    """Families of based simplicial maps K smash Delta[n]_+ -> values that
    commute with a set of relations.

    A family has one map per chart.  K is a based simplicial G-set standing
    for its fixed-point system and the target is a reduced tensor T: the
    chart of the orbit class H is K^H with T at G/H, and every non-identity
    orbit map G/J -> G/H relates the charts of H and J.  The degree-n group
    is the solution lattice of the simplicial and relation constraints.
    """

    def __init__(self, K, T, degree_bound):
        self._start(K, degree_bound)
        if not T.reduced:
            raise HomotopyError("mapping complexes target reduced tensors")
        if K.bound > T.X.bound:
            raise HomotopyError(
                "source bound %d exceeds the target's bound %d" % (K.bound, T.X.bound)
            )
        self.T = T
        G = T.group
        self.recs = subgroup_classes(G)
        for rec in self.recs:
            S = std_orbit(G, rec)
            self.charts[rec.class_id] = Chart(
                fixed_system(K, rec.elements)[0],
                partial(T.group_at, S=S),
                partial(T.face, S=S),
                partial(T.degen, S=S),
            )
        for j in self.recs:
            for h in self.recs:
                for om in orbit_maps_between(j, h):
                    if j is h and om.c == G.identity:
                        continue
                    self.relations.append(
                        Relation(
                            h.class_id,
                            j.class_id,
                            partial(T.orbit_transition, om=om),
                            phi_transition(K, om),
                        )
                    )

    def _start(self, K, degree_bound):
        if not K.based:
            raise HomotopyError("the source must be based")
        self.K = K
        self.degree_bound = degree_bound
        self.charts = {}
        self.relations = []
        self._degree = {}
        self._diffs = {}
        self._complexes = {}  # top degree -> ChainComplex of degrees 0..top

    def degree_data(self, n):
        if n not in self._degree:
            if n < 0 or n > self.degree_bound:
                raise HomotopyError("degree %d outside the configured bound" % n)
            self._degree[n] = self._build_degree(n)
        return self._degree[n]

    def group(self, n):
        return self.degree_data(n)["group"]

    def _build_degree(self, n):
        spaces = {}
        blocks = []  # (chart key, m, point of K smash Delta[n]_+)
        offsets = {}
        values = []
        for key, chart in self.charts.items():
            y = chart.space
            sm = smash(y, standard_simplex_plus(y.group, n, y.bound))
            spaces[key] = sm
            for m in range(sm.bound + 1):
                flags = sm.degenerate_flags(m)
                for p in range(sm.levels[m].size):
                    if p == sm.base(m) or flags[p]:
                        continue
                    offsets[(key, m, p)] = len(blocks)
                    blocks.append((key, m, p))
                    values.append(chart.value(m))
        data = {"spaces": spaces, "offsets": offsets, "ops": {}}
        targets = []
        entries = []

        def add_row(idx, hom, key, m, q):
            """The row hom(f at block idx) - f(point q of chart key) = 0."""
            r = len(targets)
            targets.append(self.charts[key].value(m))
            entries.append((r, idx, hom))
            got = self._express(data, key, m, q)
            if got is not None:
                _, minus, j = got
                entries.append((r, j, minus))

        for idx, (key, m, p) in enumerate(blocks):
            if m == 0:
                continue
            faces = spaces[key].faces[m]
            for i in range(m + 1):
                add_row(idx, self.charts[key].face(m, i), key, m - 1, faces[i].values[p])
        for rel in self.relations:
            src, tgt = spaces[rel.src], spaces[rel.tgt]
            for m in range(src.bound + 1):
                hom = rel.hom(m)
                for p in range(src.levels[m].size):
                    idx = offsets.get((rel.src, m, p))
                    if idx is None:
                        continue
                    kappa, tau_idx = src._smash_points[m][p]
                    q = _smash_pair_index(tgt, m, rel.level[m][kappa], tau_idx)
                    add_row(idx, hom, rel.tgt, m, q)

        cons, total, _ = ab.assemble_block_hom(values, targets, entries)
        ker, incl = cons.kernel()
        data.update(
            group=ker,
            incl=incl,
            total=total,
            starts=tuple(accumulate((v.ngens for v in values), initial=0)),
            values=tuple(values),
            blocks=tuple(blocks),
        )
        return data

    def _express(self, data, key, m, p):
        """The value of a family at point p of chart key's level m, as None
        (the basepoint) or (degeneracy hom, its negative, index of the
        nondegenerate block).  The homs are built once per degree and word."""
        sm = data["spaces"][key]
        if p == sm.base(m):
            return None
        lvl, core, word = normal_form(sm, m, p)
        memo = (key, lvl, tuple(word))
        if memo not in data["ops"]:
            chart = self.charts[key]
            ops = AbHom.identity(chart.value(lvl))
            for cur, i in enumerate(word, lvl):
                ops = chart.degen(cur, i).compose(ops)
            data["ops"][memo] = (ops, -ops)
        return data["ops"][memo] + (data["offsets"][(key, lvl, core)],)

    def differential(self, n):
        """d_n: degree n -> degree n-1 via the alternating vertex maps."""
        if n in self._diffs:
            return self._diffs[n]
        dsrc = self.degree_data(n)
        dtgt = self.degree_data(n - 1)
        entries = []
        for bidx, (key, m, p) in enumerate(dtgt["blocks"]):
            kappa, tau_idx = dtgt["spaces"][key]._smash_points[m][p]
            tau = monotones(m, n - 1)[tau_idx - 1]
            for i in range(n + 1):
                dtau = tuple(v if v < i else v + 1 for v in tau)
                tidx = monotones(m, n).index(dtau) + 1
                q = _smash_pair_index(dsrc["spaces"][key], m, kappa, tidx)
                got = self._express(dsrc, key, m, q)
                if got is not None:
                    entries.append((bidx, got[2], got[i % 2]))
        amb, _, _ = ab.assemble_block_hom(dsrc["values"], dtgt["values"], entries)
        out = dtgt["incl"].preimage_matrix(amb.compose(dsrc["incl"]))
        if out is None:
            raise HomotopyError("differential does not preserve the relations")
        self._diffs[n] = out
        return out

    def chain_complex(self, top=None):
        """The complex of degrees 0..top, by default 0..degree_bound.

        degree_bound is only an upper limit: nothing above top is built.
        The complex lacks d_{top+1}, so its homology is valid below top only.
        """
        top = self.degree_bound if top is None else top
        if top not in self._complexes:
            groups = {n: self.group(n) for n in range(top + 1)}
            diffs = {n: self.differential(n) for n in range(1, top + 1)}
            self._complexes[top] = ChainComplex(groups=groups, diffs=diffs)
        return self._complexes[top]

    def homotopy_group(self, n):
        """pi_n, read from degrees 0..n + 1 only; degree_bound is an upper limit."""
        if n + 1 > self.degree_bound:
            raise HomotopyError(
                "degree bound %d too small for pi_%d" % (self.degree_bound, n)
            )
        if n + 1 > self.K.bound:
            # Delta[n+1] has no nondegenerate top simplex below the bound
            raise HomotopyError(
                "source bound %d too small for pi_%d" % (self.K.bound, n)
            )
        return self.chain_complex(n + 1).homology(n)

    def element_from_blocks(self, n, assign):
        """Encode a family given per (chart key, m, point) into coordinates."""
        data = self.degree_data(n)
        amb = [0] * data["total"].ngens
        for key, vec in assign.items():
            start = data["starts"][data["offsets"][key]]
            for k, v in enumerate(vec):
                amb[start + k] += v
        sol = data["incl"].preimage(tuple(amb))
        if sol is None:
            raise HomotopyError("the family is not simplicial or breaks a relation")
        return sol


class EquivariantMappingComplex(MappingComplex):
    """W-equivariant based simplicial maps K smash Delta[n]_+ -> module levels.

    The mapping complex over one object: a single chart, key 0, with K and
    the levels of mt, related to itself by every group element w != 1.
    """

    def __init__(self, K, mt, degree_bound):
        self._start(K, degree_bound)
        self.mt = mt
        W = K.group
        self.charts[0] = Chart(K, lambda m: mt.module(m).value, mt.face_hom, mt.degen_hom)
        for w in W.elements():
            if w != W.identity:
                self.relations.append(
                    Relation(
                        0,
                        0,
                        lambda m, w=w: mt.module(m).hom(w),
                        tuple(lv.action[w] for lv in K.levels),
                    )
                )


@lru_cache(maxsize=None)
def _smash_index_map(sm, m):
    return {
        q: i for i, q in enumerate(sm._smash_points[m]) if q is not None
    }


def _smash_pair_index(sm, m, kappa, tau_idx):
    return _smash_index_map(sm, m).get((kappa, tau_idx), sm.base(m))

# -- homotopy classes and the loop comparison -------------------------------------


def homotopy_classes(descs, X, M, degree_bound=2, bound=None):
    """[Phi S^V, X (x~) M] as the 0-th homology of the mapping complex."""
    G = M.group
    b = bound if bound is not None else X.bound
    K = sphere_for_descriptors(G, list(descs), b)
    T = reduced_tensor(X, M)
    mc = MappingComplex(K, T, degree_bound)
    return mc.homotopy_group(0)


def based_orbit_space(G, rec, bound):
    """The discrete based G-space (G/H)_+."""
    orb = std_orbit(G, rec)
    plus, incls = disjoint_union([orb, GSet(G, 1, tuple((0,) for _ in G.elements()))])
    base = orb.size  # the extra point
    return discrete_space(G, plus, bound=bound, base_vertex=base)


@dataclass
class OmegaReport:
    desc: object
    entries: tuple  # (class_id, n, lhs invariants, rhs invariants, iso ok)

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


def omega_spectrum_check(X, M, desc, n_max, degree_bound=None):
    """Compare pi_n of the tensor with pi_n of the looped suspension.

    For each orbit class K and n <= n_max the comparison map induced by the
    loop adjoint of the structure map is computed explicitly on cycles and
    must be an isomorphism onto the mapping-complex homology.  degree_bound
    (default n_max + 2) is only an upper limit: pi_n reads the mapping
    complex in degrees 0..n + 1, so nothing above n_max + 1 is built.
    """
    bound = degree_bound if degree_bound is not None else n_max + 2
    if bound <= n_max:
        raise HomotopyError(
            "degree bound %d too small for pi_%d" % (bound, n_max)
        )
    if n_max + 1 > X.bound:
        # pi_n_max reads Delta[n_max + 1], whose top simplex X would lack
        raise HomotopyError(
            "source bound %d too small for pi_%d" % (X.bound, n_max)
        )
    G = M.group
    psi = PsiMap(desc, X, M)
    chains = MackeyChainComplex(psi.T_src)
    entries = []
    for krec in subgroup_classes(G):
        orb_space = based_orbit_space(G, krec, psi.SW.bound)
        kspace = smash(psi.SW, orb_space)
        mc = MappingComplex(kspace, psi.T_tgt, bound)
        lhs_complex = chains.complex(krec)
        for n in range(n_max + 1):
            lhs_h = lhs_complex.homology(n)
            rhs_h = mc.homotopy_group(n)
            ok, mat = _phi_induced(
                psi, krec, kspace, orb_space, mc, chains, n
            )
            iso_ok = ok and mat.is_iso()
            entries.append(
                (
                    krec.class_id,
                    n,
                    lhs_h.describe(),
                    rhs_h.describe(),
                    iso_ok,
                )
            )
    return OmegaReport(desc=desc, entries=tuple(entries))


def _phi_induced(psi, krec, kspace, orb_space, mc, chains, n):
    """The matrix of the loop-adjoint comparison on degree-n homology."""
    G = psi.M.group
    T = psi.T_src
    lhs_complex = chains.complex(krec)
    lhs_h = lhs_complex.homology(n)
    rhs_h = mc.homotopy_group(n)
    S_k = std_orbit(G, krec)
    lvl = chains.level(krec, n)
    full = T.value(n, S_k)
    full_ls = T.level_set(n, S_k)
    # the generator offset in the full level of each nondegenerate block
    starts = [
        full.offsets[full.orbit_index_of_point(full_ls.index_of(*lvl.pairs[o.basepoint]))]
        for o in lvl.value.orbits
    ]
    data = mc.degree_data(n)
    cols = []
    for c in range(lhs_h.ngens):
        w = tuple(1 if i == c else 0 for i in range(lhs_h.ngens))
        z = lhs_complex.cycle_of_class(n, w)
        z_full = [0] * full.value.ngens
        for start, o, g in zip(starts, lvl.value.offsets, lvl.value.summands):
            z_full[start : start + g.ngens] = z[o : o + g.ngens]
        assign = {}
        for (cid, m, p) in data["blocks"]:
            rec = mc.recs[cid]
            kappa, tau_idx = data["spaces"][cid]._smash_points[m][p]
            tau = monotones(m, n)[tau_idx - 1]
            # kappa decodes into (sphere simplex, orbit point) of the smash
            alpha, u = _decode_kspace_point(kspace, orb_space, rec, m, kappa)
            S_j = std_orbit(G, rec)
            # transport z along the orbit map determined by u, then tau
            um = OrbitMap(rec, krec, _coset_rep_element(G, krec, u))
            zj = T.contravariant_S(n, um.gmap())(z_full)
            zjm = T.op(tau, m, n, S_j)(zj)
            val = psi.component(rec, m, alpha)(zjm)
            assign[(cid, m, p)] = val
        try:
            sol = mc.element_from_blocks(n, assign)
        except HomotopyError:
            return False, None
        cols.append(mc.chain_complex(n + 1).homology_class(n, sol))
    mat = la.transpose(tuple(cols), rhs_h.ngens)
    return True, AbHom(lhs_h, rhs_h, mat)


def _decode_kspace_point(kspace, orb_space, rec, m, kappa):
    """Split a fixed point of (S^W smash (G/K)_+) into its two factors."""
    y, pts = fixed_system(kspace, rec.elements)
    raw = pts[m][kappa]
    w_pt, orbplus_pt = kspace._smash_points[m][raw]
    u = _discrete_vertex_table(orb_space, m)[orbplus_pt]
    return w_pt, u


@lru_cache(maxsize=None)
def _discrete_vertex_table(space, m):
    """level-m point -> its vertex, for a discrete space."""
    out = []
    for p in range(space.levels[m].size):
        v = p
        for lvl in range(m, 0, -1):
            v = space.faces[lvl][0].values[v]
        out.append(v)
    return tuple(out)


def _coset_rep_element(G, krec, u):
    _, reps, _ = coset_space(G, krec.elements)
    return reps[u]


# -- graded tables -----------------------------------------------------------------


@dataclass
class GradedTable:
    group_name: str
    rows: tuple  # ((p, descs, {class_id: invariants-string}), ...)

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


def ro_graded_table(X, M, rows, bound=None):
    """Entries H~_p(S^W smash X; M) per orbit class, for requested rows."""
    G = M.group
    b = bound if bound is not None else X.bound
    out = []
    for p, descs in rows:
        sphere = sphere_for_descriptors(G, list(descs), b)
        space = smash(sphere, X)
        if p >= space.bound:
            raise HomotopyError("degree %d past bound %d" % (p, space.bound))
        hn = bredon_groups(space, M, [p], based=True)[p]
        cells = {cid: g.describe() for cid, g in hn.items()}
        out.append((p, tuple(descs), cells))
    return GradedTable(group_name=G.name, rows=tuple(out))


# -- long exact sequences -----------------------------------------------------------


def cofibration_chain_maps(ses, rec):
    """(i_*, q_*) as chain maps of normalized chains at G/H."""
    chains = [MackeyChainComplex(T) for T in (ses.sub, ses.total, ses.quot)]
    icomps = {}
    qcomps = {}
    for n in range(ses.sub.bound + 1):
        sub, tot, quo = (ch.level(rec, n) for ch in chains)
        f = sub.gmap(tot, xtable=ses.incl.comps[n].values)
        icomps[n] = covariant_between(ses.M, f, sub.value, tot.value, 0)
        f = tot.gmap(quo, xtable=ses.proj.comps[n].values)
        qcomps[n] = covariant_between(ses.M, f, tot.value, quo.value, 0)
    csub, ctot, cquo = (ch.complex(rec) for ch in chains)
    return ChainMap(csub, ctot, icomps), ChainMap(ctot, cquo, qcomps)


def coefficient_chain_maps(ses, rec):
    """(phi_*, psi_*) as chain maps of normalized chains at G/H."""
    chains = [MackeyChainComplex(T) for T in (ses.T_m, ses.T_n, ses.T_p)]
    fcomps = {}
    gcomps = {}
    for n in range(ses.X.bound + 1):
        vm, vn, vp = (ch.level(rec, n).value for ch in chains)
        fcomps[n] = ses.phi.between(vm, vn)
        gcomps[n] = ses.psi.between(vn, vp)
    cm, cn, cp = (ch.complex(rec) for ch in chains)
    return ChainMap(cm, cn, fcomps), ChainMap(cn, cp, gcomps)


def _homology_les(fmap, gmap, through_degree, names):
    """(nodes, exact_flags, homs) of the homology sequence of f then g,
    from degree through_degree down to 0."""
    nodes = []
    homs = []
    for n in range(through_degree, -1, -1):
        nodes.append(("H_%d %s" % (n, names[0]), fmap.src.homology(n)))
        homs.append(fmap.induced(n))
        nodes.append(("H_%d %s" % (n, names[1]), fmap.tgt.homology(n)))
        homs.append(gmap.induced(n))
        nodes.append(("H_%d %s" % (n, names[2]), gmap.tgt.homology(n)))
        if n > 0:
            homs.append(ab.connecting_hom(fmap, gmap, n))
    exact_flags = [ab.is_exact_at(homs[k - 1], homs[k]) for k in range(1, len(nodes) - 1)]
    return nodes, exact_flags, homs


def cofibration_les(ses, rec, through_degree):
    """The long exact homology sequence of a cofibration, with exactness data.

    Returns (groups, exact_flags, homs) where groups lists the LES nodes from
    degree through_degree down to 0, exact_flags the exactness at each
    interior node and homs the maps between consecutive nodes.
    """
    imap, qmap = cofibration_chain_maps(ses, rec)
    return _homology_les(imap, qmap, through_degree, ("sub", "total", "quot"))


def coefficient_les(ses, rec, through_degree):
    """The long exact homology sequence from an exact coefficient sequence."""
    fmap, gmap = coefficient_chain_maps(ses, rec)
    return _homology_les(fmap, gmap, through_degree, ("M", "N", "P"))
