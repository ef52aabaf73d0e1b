"""Homotopy-level computations: normalized chains, Bredon homology,
equivariant mapping complexes, loop-space comparisons, graded tables.

Chains are normalized by splitting off the blocks carried by degenerate
simplices; homotopy groups of strict mapping objects are the homology of
the natural-family solution lattices, computed degreewise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import abelian as ab
from . import intlinalg as la
from .abelian import AbGroup, AbHom, ChainComplex, ChainMap
from .groups import subgroup_classes
from .gsets import GMap, GSet, coset_space, disjoint_union, std_orbit
from .mackey import MackeyError, OrbitMap, WrappedMackey, orbit_maps_between
from .simplicial import (
    SimplicialGSet,
    delta,
    discrete_space,
    fixed_system,
    monotones,
    phi_transition,
    smash,
    sphere_for_descriptors,
    standard_simplex_plus,
)
from .tensor import PsiMap, TensorMackey, reduced_tensor, tensor


class HomotopyError(ValueError):
    pass


# -- normalized chains ----------------------------------------------------------


@dataclass
class SlicedValue:
    """A sub-sum of an Evaluated value over a selected set of orbits."""

    full: object  # Evaluated
    kept: tuple  # indices of kept orbits
    value: AbGroup

    def restrict_hom(self, h, target):
        """Slice h: full_src -> full_tgt to the kept blocks of both sides."""
        return ab.restrict_blocks(
            h, self.full.summands, self.kept, target.full.summands, target.kept
        )

    def include_into_full(self):
        summands = self.full.summands
        every = range(len(summands))
        return ab.restrict_blocks(
            AbHom.identity(self.full.value), summands, self.kept, summands, every
        )


def nondegenerate_slice(T, n, S):
    """The part of the tensor value carried by nondegenerate simplices."""
    ev = T.value(n, S)
    ls = T.level_set(n, S)
    flags = T.X.degenerate_flags(n)
    kept = []
    for i, o in enumerate(ev.orbits):
        pair = ls.pairs[o.basepoint]
        x = pair[0]
        if not flags[x]:
            kept.append(i)
    value, _ = ab.direct_sum_data(ev.summands[i] for i in kept)
    return SlicedValue(full=ev, kept=tuple(kept), value=value)


class MackeyChainComplex:
    """Normalized chains of a simplicial Mackey functor, per orbit class."""

    def __init__(self, T):
        self.T = T
        self._slices = {}
        self._complexes = {}
        self._chainmaps = {}

    def slice(self, rec, n):
        key = (rec.class_id, n)
        if key not in self._slices:
            S = std_orbit(self.T.group, rec)
            self._slices[key] = nondegenerate_slice(self.T, n, S)
        return self._slices[key]

    def complex(self, rec):
        if rec.class_id not in self._complexes:
            S = std_orbit(self.T.group, rec)
            groups = {}
            diffs = {}
            for n in range(self.T.bound + 1):
                groups[n] = self.slice(rec, n).value
            for n in range(1, self.T.bound + 1):
                full = AbHom.zero(
                    self.T.group_at(n, S), self.T.group_at(n - 1, S)
                )
                for i in range(n + 1):
                    h = self.T.face(n, i, S)
                    full = full + (h if i % 2 == 0 else h.scale(-1))
                diffs[n] = self.slice(rec, n).restrict_hom(
                    full, self.slice(rec, n - 1)
                )
            self._complexes[rec.class_id] = ChainComplex(groups=groups, diffs=diffs)
        return self._complexes[rec.class_id]

    def transition_chain_map(self, om, variance):
        """res (contravariant) or tr (covariant) as a chain map of complexes."""
        key = (om, variance)
        if key not in self._chainmaps:
            f = om.gmap()
            comps = {}
            for n in range(self.T.bound + 1):
                if variance == "res":
                    full = self.T.contravariant_S(n, f)
                    src_rec, tgt_rec = om.tgt, om.src
                else:
                    full = self.T.covariant_S(n, f)
                    src_rec, tgt_rec = om.src, om.tgt
                comps[n] = self.slice(src_rec, n).restrict_hom(
                    full, self.slice(tgt_rec, n)
                )
            self._chainmaps[key] = ChainMap(
                self.complex(om.tgt if variance == "res" else om.src),
                self.complex(om.src if variance == "res" else om.tgt),
                comps,
            )
        return self._chainmaps[key]


# -- Bredon homology -------------------------------------------------------------


def bredon_homology(X, M, n, based=True):
    """H_n of the (reduced) tensor, as a Mackey functor on orbit classes."""
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


def _simplex_tau(plus_space, m, idx):
    """Decode a Delta[k]_+ point index into its monotone map (or None)."""
    dim = plus_space.levels[0].size - 2
    table = [None] + list(monotones(m, dim))
    return table[idx]


def _tau_index(plus_space, m, tau):
    dim = plus_space.levels[0].size - 2
    return ([None] + list(monotones(m, dim))).index(tau)


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


class MappingComplex:
    """Natural families of based simplicial maps K smash Delta[n]_+ -> values.

    K is a based simplicial G-set standing for its fixed-point system; the
    target is a reduced tensor.  The degree-n group is the solution lattice
    of the simplicial-map and orbit-naturality constraints.
    """

    def __init__(self, K, T, degree_bound):
        if not K.based:
            raise HomotopyError("the source must be based")
        if not T.reduced:
            raise HomotopyError("mapping complexes target reduced tensors")
        self.K = K
        self.T = T
        self.degree_bound = degree_bound
        self.G = T.group
        self.recs = subgroup_classes(self.G)
        self._fixed = {}
        for rec in self.recs:
            y, pts = fixed_system(K, rec.elements)
            self._fixed[rec.class_id] = y
        self._omaps = [
            om
            for j in self.recs
            for h in self.recs
            for om in orbit_maps_between(j, h)
            if not (j is h and om.c == self.G.identity)
        ]
        self._transitions = {om: phi_transition(K, om) for om in self._omaps}
        self._degree = {}
        self._diffs = {}
        self._complex = None

    def _kd(self, rec, n):
        """K^rec smash Delta[n]_+ together with its pair decoding."""
        y = self._fixed[rec.class_id]
        simplex = standard_simplex_plus(y.group, n, y.bound)
        sm = smash(y, simplex)
        return sm, simplex

    def degree_data(self, n):
        if n not in self._degree:
            self._degree[n] = self._build_degree(n)
        return self._degree[n]

    def group(self, n):
        if n < 0 or n > self.degree_bound:
            raise HomotopyError("degree %d outside the configured bound" % n)
        return self.degree_data(n)["group"]

    def _build_degree(self, n):
        blocks = []  # (rec, m, sigma point index)
        offsets = {}
        values = []
        kds = {}
        for rec in self.recs:
            sm, simplex = self._kd(rec, n)
            kds[rec.class_id] = (sm, simplex)
            S = std_orbit(self.G, rec)
            for m in range(sm.bound + 1):
                flags = sm.degenerate_flags(m)
                for p in range(sm.levels[m].size):
                    if p == sm.base(m) or flags[p]:
                        continue
                    offsets[(rec.class_id, m, p)] = len(blocks)
                    blocks.append((rec, m, p))
                    values.append(self.T.group_at(m, S))
        total, incls, projs = ab.direct_sum(values)

        def express(rec, m, p):
            """Normal form of the value of f at an arbitrary point: either
            None (basepoint) or (degeneracy hom, core unknown index)."""
            sm, _ = kds[rec.class_id]
            if p == sm.base(m):
                return None
            lvl, core, word = normal_form(sm, m, p)
            S = std_orbit(self.G, rec)
            cur = lvl
            ops = AbHom.identity(self.T.group_at(lvl, S))
            for i in word:
                ops = self.T.degen(cur, i, S).compose(ops)
                cur += 1
            idx = offsets[(rec.class_id, lvl, core)]
            return ops, idx

        targets = []
        entries = []

        def add_row(target_group, terms):
            r = len(targets)
            targets.append(target_group)
            for idx, hom in terms:
                entries.append((r, idx, hom))

        for rec in self.recs:
            sm, simplex = kds[rec.class_id]
            S = std_orbit(self.G, rec)
            for m in range(1, sm.bound + 1):
                flags = sm.degenerate_flags(m)
                for p in range(sm.levels[m].size):
                    if p == sm.base(m) or flags[p]:
                        continue
                    src_idx = offsets[(rec.class_id, m, p)]
                    for i in range(m + 1):
                        q = sm.faces[m][i].values[p]
                        terms = [(src_idx, self.T.face(m, i, S))]
                        got = express(rec, m - 1, q)
                        if got is not None:
                            ops, idx = got
                            terms.append((idx, ops.scale(-1)))
                        add_row(self.T.group_at(m - 1, S), terms)
        for om in self._omaps:
            jrec, hrec = om.src, om.tgt
            sm_h, _ = kds[hrec.class_id]
            sm_j, _ = kds[jrec.class_id]
            S_j = std_orbit(self.G, jrec)
            trans = self._transitions[om]
            for m in range(sm_h.bound + 1):
                flags = sm_h.degenerate_flags(m)
                resmap = self.T.orbit_transition(m, om)
                for p in range(sm_h.levels[m].size):
                    if p == sm_h.base(m) or flags[p]:
                        continue
                    src_idx = offsets[(hrec.class_id, m, p)]
                    q = _transported_point(sm_h, sm_j, trans, m, p)
                    terms = [(src_idx, resmap)]
                    got = express(jrec, m, q)
                    if got is not None:
                        ops, idx = got
                        terms.append((idx, ops.scale(-1)))
                    add_row(self.T.group_at(m, S_j), terms)

        cons, src_total, _ = ab.assemble_block_hom(values, targets, entries)
        assert src_total == total
        ker, incl = cons.kernel()
        return {
            "group": ker,
            "incl": incl,
            "total": total,
            "incls": incls,
            "projs": projs,
            "values": tuple(values),
            "blocks": tuple(blocks),
            "offsets": offsets,
            "kds": kds,
        }

    def differential(self, n):
        """d_n: degree n -> degree n-1 via the alternating vertex maps."""
        if n in self._diffs:
            return self._diffs[n]
        dsrc = self.degree_data(n)
        dtgt = self.degree_data(n - 1)
        entries = []
        for bidx, (rec, m, p) in enumerate(dtgt["blocks"]):
            sm_t, simplex_t = dtgt["kds"][rec.class_id]
            sm_s, simplex_s = dsrc["kds"][rec.class_id]
            kappa, tau_idx = sm_t._smash_points[m][p]
            tau = _simplex_tau(simplex_t, m, tau_idx)
            S = std_orbit(self.G, rec)
            for i in range(n + 1):
                dtau = tuple(v if v < i else v + 1 for v in tau)
                tidx = _tau_index(simplex_s, m, dtau)
                src_p = _smash_pair_index(sm_s, m, kappa, tidx)
                if src_p == sm_s.base(m):
                    continue
                lvl, core, word = normal_form(sm_s, m, src_p)
                ops = AbHom.identity(self.T.group_at(lvl, S))
                cur = lvl
                for w in word:
                    ops = self.T.degen(cur, w, S).compose(ops)
                    cur += 1
                idx = dsrc["offsets"][(rec.class_id, lvl, core)]
                entries.append((bidx, idx, ops if i % 2 == 0 else ops.scale(-1)))
        amb, _, _ = ab.assemble_block_hom(
            dsrc["values"], [self.T.group_at(m, std_orbit(self.G, rec)) for (rec, m, _) in dtgt["blocks"]], entries
        )
        big = amb.compose(dsrc["incl"])
        out = dtgt["incl"].preimage_matrix(big.mat)
        if out is None:
            raise HomotopyError("differential does not preserve naturality")
        self._diffs[n] = AbHom(dsrc["group"], dtgt["group"], out)
        return self._diffs[n]

    def chain_complex(self):
        if self._complex is None:
            groups = {n: self.group(n) for n in range(self.degree_bound + 1)}
            diffs = {
                n: self.differential(n) for n in range(1, self.degree_bound + 1)
            }
            self._complex = ChainComplex(groups=groups, diffs=diffs)
        return self._complex

    def homotopy_group(self, n):
        if n + 1 > self.degree_bound:
            raise HomotopyError(
                "degree bound %d too small for pi_%d" % (self.degree_bound, n)
            )
        return self.chain_complex().homology(n)

    def element_from_blocks(self, n, assign):
        """Encode a family given per (class_id, m, point) into coordinates."""
        data = self.degree_data(n)
        amb = [0] * data["total"].ngens
        for key, vec in assign.items():
            idx = data["offsets"][key]
            w = data["incls"][idx](vec)
            amb = [a + b for a, b in zip(amb, w)]
        sol = data["incl"].preimage(tuple(amb))
        if sol is None:
            raise HomotopyError("the family is not natural or not simplicial")
        return sol


def _transported_point(sm_h, sm_j, trans, m, p):
    kappa, tau_idx = sm_h._smash_points[m][p]
    k2 = trans[m][kappa]
    return _smash_pair_index(sm_j, m, k2, tau_idx)


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
    must be an isomorphism onto the mapping-complex homology.
    """
    G = M.group
    psi = PsiMap(desc, X, M)
    T = psi.T_src
    chains = MackeyChainComplex(T)
    bound = degree_bound if degree_bound is not None else n_max + 2
    entries = []
    for krec in subgroup_classes(G):
        S_k = std_orbit(G, krec)
        orb_space = based_orbit_space(G, krec, psi.SW.bound)
        kspace = smash(psi.SW, orb_space)
        mc = MappingComplex(kspace, psi.T_tgt, bound)
        rhs_complex = mc.chain_complex()
        lhs_complex = chains.complex(krec)
        for n in range(n_max + 1):
            lhs_h = lhs_complex.homology(n)
            rhs_h = rhs_complex.homology(n)
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
    S_k = std_orbit(G, krec)
    lhs_complex = chains.complex(krec)
    lhs_h = lhs_complex.homology(n)
    rhs_complex = mc.chain_complex()
    rhs_h = rhs_complex.homology(n)
    sl = chains.slice(krec, n)
    _, k_reps, _ = coset_space(G, krec.elements)
    cols = []
    for c in range(lhs_h.ngens):
        w = tuple(1 if i == c else 0 for i in range(lhs_h.ngens))
        z = lhs_complex.cycle_of_class(n, w)
        z_full = sl.include_into_full()(z)
        assign = {}
        data = mc.degree_data(n)
        for (rec, m, p) in data["blocks"]:
            sm, simplex = data["kds"][rec.class_id]
            kappa, tau_idx = sm._smash_points[m][p]
            tau = _simplex_tau(simplex, m, tau_idx)
            # kappa decodes into (sphere simplex, orbit point) of the smash
            alpha, u = _decode_kspace_point(kspace, orb_space, rec, m, kappa)
            S_j = std_orbit(G, rec)
            # transport z along the orbit map determined by u, then tau
            um = OrbitMap(rec, krec, _coset_rep_element(G, krec, u))
            zj = T.contravariant_S(n, um.gmap())(z_full)
            zjm = T.op(tau, m, n, S_j)(zj)
            val = psi.component(rec, m, alpha)(zjm)
            assign[(rec.class_id, m, p)] = val
        try:
            sol = mc.element_from_blocks(n, assign)
        except HomotopyError:
            return False, None
        cols.append(rhs_complex.homology_class(n, sol))
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


def cofibration_les(ses, rec, through_degree):
    """The long exact homology sequence of a cofibration, with exactness data.

    Returns (groups, exact_flags) where groups lists the LES nodes from
    degree through_degree down to 0 and exact_flags the exactness at each
    interior node.
    """
    sub_ch = MackeyChainComplex(ses.sub)
    tot_ch = MackeyChainComplex(ses.total)
    quo_ch = MackeyChainComplex(ses.quot)
    S = std_orbit(ses.M.group, rec)
    csub = sub_ch.complex(rec)
    ctot = tot_ch.complex(rec)
    cquo = quo_ch.complex(rec)
    icomps = {}
    qcomps = {}
    for n in range(ses.sub.bound + 1):
        icomps[n] = sub_ch.slice(rec, n).restrict_hom(
            ses.i_star(n, S), tot_ch.slice(rec, n)
        )
        qcomps[n] = tot_ch.slice(rec, n).restrict_hom(
            ses.q_star(n, S), quo_ch.slice(rec, n)
        )
    imap = ChainMap(csub, ctot, icomps)
    qmap = ChainMap(ctot, cquo, qcomps)
    nodes = []
    homs = []
    for n in range(through_degree, -1, -1):
        nodes.append(("H_%d sub" % n, csub.homology(n)))
        homs.append(imap.induced(n))
        nodes.append(("H_%d total" % n, ctot.homology(n)))
        homs.append(qmap.induced(n))
        nodes.append(("H_%d quot" % n, cquo.homology(n)))
        if n > 0:
            homs.append(ab.connecting_hom(imap, qmap, n))
    exact_flags = []
    for k in range(1, len(nodes) - 1):
        f = homs[k - 1]
        g = homs[k]
        exact_flags.append(ab.is_exact_at(f, g))
    return nodes, exact_flags, homs


def coefficient_les(ses, rec, through_degree):
    """The long exact homology sequence from an exact coefficient sequence."""
    ch_m = MackeyChainComplex(ses.T_m)
    ch_n = MackeyChainComplex(ses.T_n)
    ch_p = MackeyChainComplex(ses.T_p)
    S = std_orbit(ses.T_m.group, rec)
    cm = ch_m.complex(rec)
    cn = ch_n.complex(rec)
    cp = ch_p.complex(rec)
    fcomps = {}
    gcomps = {}
    for n in range(ses.X.bound + 1):
        fcomps[n] = ch_m.slice(rec, n).restrict_hom(
            ses.phi_at(n, S), ch_n.slice(rec, n)
        )
        gcomps[n] = ch_n.slice(rec, n).restrict_hom(
            ses.psi_at(n, S), ch_p.slice(rec, n)
        )
    fmap = ChainMap(cm, cn, fcomps)
    gmap = ChainMap(cn, cp, gcomps)
    nodes = []
    homs = []
    for n in range(through_degree, -1, -1):
        nodes.append(("H_%d M" % n, cm.homology(n)))
        homs.append(fmap.induced(n))
        nodes.append(("H_%d N" % n, cn.homology(n)))
        homs.append(gmap.induced(n))
        nodes.append(("H_%d P" % n, cp.homology(n)))
        if n > 0:
            homs.append(ab.connecting_hom(fmap, gmap, n))
    exact_flags = []
    for k in range(1, len(nodes) - 1):
        exact_flags.append(ab.is_exact_at(homs[k - 1], homs[k]))
    return nodes, exact_flags, homs


# -- Weyl-equivariant mapping complexes --------------------------------------------


class EquivariantMappingComplex:
    """W-equivariant based simplicial maps K smash Delta[n]_+ -> module levels.

    The one-group analogue of the orbit-natural mapping complex: unknowns
    are values on nondegenerate simplices, constrained by the simplicial
    relations and by equivariance for every group element.
    """

    def __init__(self, K, mt, degree_bound):
        if not K.based:
            raise HomotopyError("the source must be based")
        self.K = K
        self.mt = mt
        self.W = K.group
        self.degree_bound = degree_bound
        self._degree = {}
        self._diffs = {}
        self._complex = None

    def _kd(self, n):
        simplex = standard_simplex_plus(self.W, n, self.K.bound)
        return smash(self.K, simplex), simplex

    def degree_data(self, n):
        if n not in self._degree:
            self._degree[n] = self._build(n)
        return self._degree[n]

    def group(self, n):
        return self.degree_data(n)["group"]

    def _build(self, n):
        sm, simplex = self._kd(n)
        blocks = []
        offsets = {}
        values = []
        for m in range(sm.bound + 1):
            flags = sm.degenerate_flags(m)
            for p in range(sm.levels[m].size):
                if p == sm.base(m) or flags[p]:
                    continue
                offsets[(m, p)] = len(blocks)
                blocks.append((m, p))
                values.append(self.mt.module(m).value)
        total, incls, projs = ab.direct_sum(values)

        def express(m, p):
            if p == sm.base(m):
                return None
            lvl, core, word = normal_form(sm, m, p)
            ops = AbHom.identity(self.mt.module(lvl).value)
            cur = lvl
            for i in word:
                ops = self.mt.degen_hom(cur, i).compose(ops)
                cur += 1
            return ops, offsets[(lvl, core)]

        targets = []
        entries = []

        def add_row(tg, terms):
            r = len(targets)
            targets.append(tg)
            for idx, hom in terms:
                entries.append((r, idx, hom))

        for m in range(1, sm.bound + 1):
            flags = sm.degenerate_flags(m)
            for p in range(sm.levels[m].size):
                if p == sm.base(m) or flags[p]:
                    continue
                src_idx = offsets[(m, p)]
                for i in range(m + 1):
                    q = sm.faces[m][i].values[p]
                    terms = [(src_idx, self.mt.face_hom(m, i))]
                    got = express(m - 1, q)
                    if got is not None:
                        ops, idx = got
                        terms.append((idx, ops.scale(-1)))
                    add_row(self.mt.module(m - 1).value, terms)
        for w in self.W.elements():
            if w == self.W.identity:
                continue
            for m in range(sm.bound + 1):
                flags = sm.degenerate_flags(m)
                rho = self.mt.module(m).hom(w)
                for p in range(sm.levels[m].size):
                    if p == sm.base(m) or flags[p]:
                        continue
                    src_idx = offsets[(m, p)]
                    wp = sm.levels[m].action[w][p]
                    terms = [(src_idx, rho)]
                    got = express(m, wp)
                    if got is not None:
                        ops, idx = got
                        terms.append((idx, ops.scale(-1)))
                    add_row(self.mt.module(m).value, terms)

        cons, src_total, _ = ab.assemble_block_hom(values, targets, entries)
        ker, incl = cons.kernel()
        return {
            "group": ker,
            "incl": incl,
            "total": total,
            "incls": incls,
            "projs": projs,
            "values": tuple(values),
            "blocks": tuple(blocks),
            "offsets": offsets,
            "kd": (sm, simplex),
        }

    def differential(self, n):
        if n in self._diffs:
            return self._diffs[n]
        dsrc = self.degree_data(n)
        dtgt = self.degree_data(n - 1)
        sm_t, simplex_t = dtgt["kd"]
        sm_s, simplex_s = dsrc["kd"]
        entries = []
        for bidx, (m, p) in enumerate(dtgt["blocks"]):
            kappa, tau_idx = sm_t._smash_points[m][p]
            tau = _simplex_tau(simplex_t, m, tau_idx)
            for i in range(n + 1):
                dtau = tuple(v if v < i else v + 1 for v in tau)
                tidx = _tau_index(simplex_s, m, dtau)
                src_p = _smash_pair_index(sm_s, m, kappa, tidx)
                if src_p == sm_s.base(m):
                    continue
                lvl, core, word = normal_form(sm_s, m, src_p)
                ops = AbHom.identity(self.mt.module(lvl).value)
                cur = lvl
                for w in word:
                    ops = self.mt.degen_hom(cur, w).compose(ops)
                    cur += 1
                idx = dsrc["offsets"][(lvl, core)]
                entries.append((bidx, idx, ops if i % 2 == 0 else ops.scale(-1)))
        amb, _, _ = ab.assemble_block_hom(
            dsrc["values"],
            [self.mt.module(m).value for (m, _) in dtgt["blocks"]],
            entries,
        )
        big = amb.compose(dsrc["incl"])
        out = dtgt["incl"].preimage_matrix(big.mat)
        if out is None:
            raise HomotopyError("differential does not preserve equivariance")
        self._diffs[n] = AbHom(dsrc["group"], dtgt["group"], out)
        return self._diffs[n]

    def chain_complex(self):
        if self._complex is None:
            groups = {n: self.group(n) for n in range(self.degree_bound + 1)}
            diffs = {
                n: self.differential(n) for n in range(1, self.degree_bound + 1)
            }
            self._complex = ChainComplex(groups=groups, diffs=diffs)
        return self._complex

    def element_from_blocks(self, n, assign):
        data = self.degree_data(n)
        amb = [0] * data["total"].ngens
        for key, vec in assign.items():
            idx = data["offsets"][key]
            w = data["incls"][idx](vec)
            amb = [a + b for a, b in zip(amb, w)]
        sol = data["incl"].preimage(tuple(amb))
        if sol is None:
            raise HomotopyError("the family is not equivariant or not simplicial")
        return sol
