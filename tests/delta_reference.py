"""A test-only reference: mapping complexes as based maps K smash Delta[n]_+.

Degree n of this engine is the group of natural families of based
simplicial maps K^H smash Delta[n]_+ -> T(G/H).  Each nondegenerate
non-base simplex of the smash carries one unknown block of the full rank of
its target level, the simplicial identities are constraint rows, and the
differential is the alternating sum of the vertex maps of Delta[n].  The
loop comparison transports a cycle along a monotone map tau: [m] -> [n]
for each simplex (kappa, tau) of the smash.

The package reads the same homotopy groups from the Hom complexes of
normalized chains (eqmack.homotopy.MappingComplex).  This copy of the older
engine stays as an independent oracle: pinned digests of its complexes and
of its comparison matrices show it is faithful, and the tests compare the
package's pi_n and Omega verdicts against it.  The cylinder X smash
Delta[1]_+ with its two end inclusions, and the associator of smash
products, are kept here too, for the pinned constructor digest.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate

from eqmack import abelian as ab
from eqmack.abelian import AbHom, ChainComplex
from eqmack.groups import subgroup_classes
from eqmack.gsets import coset_space, std_orbit
from eqmack.homotopy import (
    HomotopyError,
    MackeyChainComplex,
    _discrete_vertex_table,
    based_orbit_space,
)
from eqmack.mackey import OrbitMap, covariant_between, orbit_maps_between
from eqmack.simplicial import (
    eta,
    fixed_system,
    monotones,
    phi_transition,
    smash,
    standard_simplex_plus,
)
from eqmack.tensor import PsiMap

from module_chains import face_hom, routed_hom
from simplicial_reference import levelwise


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
    """A based space with the target's full levels over it: value(m) is the
    target group at level m, face(m, i) and degen(m, i) its operators."""

    space: object
    value: object
    face: object
    degen: object


@dataclass
class Relation:
    """hom(m) f_src(x) = f_tgt(level[m][x]) for every point x of the source
    chart's space."""

    src: object
    tgt: object
    hom: object
    level: tuple


def idx_of_vertex(simplex_plus, vertex, n):
    """The level-n degeneracy of a vertex inside Delta[k]_+.

    Point 0 is the basepoint and point i > 0 is monotones(n, k)[i - 1].
    """
    k = simplex_plus.levels[0].size - 2
    return monotones(n, k).index((vertex,) * (n + 1)) + 1


def cylinder_inclusions(X):
    """(X smash Delta[1]_+, ins_0, ins_1): the two ends of the cylinder."""
    cyl_factor = standard_simplex_plus(X.group, 1, X.bound)
    cyl = smash(X, cyl_factor)

    def ins(vertex):
        vtx = [idx_of_vertex(cyl_factor, vertex, n) for n in range(X.bound + 1)]
        return levelwise(
            X, cyl, lambda n, x: cyl._smash_index[n][None if x == X.base(n) else (x, vtx[n])]
        )

    return cyl, ins(0), ins(1)


def smash_assoc(A, B, C):
    """The associator smash(A, smash(B, C)) -> smash(smash(A, B), C)."""
    inner_r = smash(B, C)
    left = smash(A, inner_r)
    inner_l = smash(A, B)
    right = smash(inner_l, C)

    def value(n, p):
        pair = left._smash_points[n][p]
        if pair is None:
            return right.base(n)
        a, bc = pair
        b, c = inner_r._smash_points[n][bc]
        return right._smash_index[n][(inner_l._smash_index[n][(a, b)], c)]

    return levelwise(left, right, value)


@lru_cache(maxsize=None)
def _smash_index_map(sm, m):
    return {q: i for i, q in enumerate(sm._smash_points[m]) if q is not None}


def _smash_pair_index(sm, m, kappa, tau_idx):
    return _smash_index_map(sm, m).get((kappa, tau_idx), sm.base(m))


def orbit_transition(T, n, om):
    """Restriction along the orbit map om at level n, between std orbits."""
    return T.contravariant_S(n, om.gmap())


class DeltaMappingComplex:
    """Natural families of based maps K^H smash Delta[n]_+ -> T(G/H)."""

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
                lambda m, i, S=S: T.op(eta(i, m), m + 1, m, S),
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
                            partial(orbit_transition, T, om=om),
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
        self._complexes = {}

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
        """None (the basepoint) or (degeneracy hom, its negative, index of
        the nondegenerate block) for point p of chart key's level m."""
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
        top = self.degree_bound if top is None else top
        if top not in self._complexes:
            groups = {n: self.group(n) for n in range(top + 1)}
            diffs = {n: self.differential(n) for n in range(1, top + 1)}
            self._complexes[top] = ChainComplex(groups=groups, diffs=diffs)
        return self._complexes[top]

    def homotopy_group(self, n):
        if n + 1 > self.degree_bound:
            raise HomotopyError(
                "degree bound %d too small for pi_%d" % (self.degree_bound, n)
            )
        if n + 1 > self.K.bound:
            raise HomotopyError("source bound %d too small for pi_%d" % (self.K.bound, n))
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


class DeltaEquivariantMappingComplex(DeltaMappingComplex):
    """W-equivariant based maps K smash Delta[n]_+ -> the levels of mt."""

    def __init__(self, K, mt, degree_bound):
        self._start(K, degree_bound)
        W = K.group
        self.charts[0] = Chart(
            K, lambda m: mt.module(m).value, partial(face_hom, mt), partial(_degen_hom, mt)
        )
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


def _degen_hom(mt, m, i):
    table = mt.K.degens[m][i].values
    return routed_hom(mt.A.value, mt.support(m), mt.support(m + 1), table)


def _decode_kspace_point(kspace, orb_space, rec, m, kappa):
    """Split a fixed point of (S^W smash (G/K)_+) into its two factors."""
    y, pts = fixed_system(kspace, rec.elements)
    raw = pts[m][kappa]
    w_pt, orbplus_pt = kspace._smash_points[m][raw]
    u = _discrete_vertex_table(orb_space, m)[orbplus_pt]
    return w_pt, u


def delta_phi_induced(psi, krec, kspace, orb_space, mc, chains, n):
    """(ok, matrix) of the loop comparison on degree-n homology, lifting a
    cycle z to the family (kappa, tau) |-> psi_alpha(tau^* z restricted)."""
    G = psi.M.group
    T = psi.T_src
    mc.homotopy_group(n)
    S_k = std_orbit(G, krec)
    lvl, lev = chains.level(krec, n)
    full = lvl.gmap(T.level_set(n, S_k), lambda y, s: (psi.X.nondegenerate(n)[y], s))
    incl = covariant_between(psi.M, full, lev, T.value(n, S_k), 0)
    data = mc.degree_data(n)

    def lift(z):
        z_full = incl(tuple(z.get(i, 0) for i in range(incl.src.ngens)))
        assign = {}
        for cid, m, p in data["blocks"]:
            rec = mc.recs[cid]
            kappa, tau_idx = data["spaces"][cid]._smash_points[m][p]
            tau = monotones(m, n)[tau_idx - 1]
            alpha, u = _decode_kspace_point(kspace, orb_space, rec, m, kappa)
            S_j = std_orbit(G, rec)
            um = OrbitMap(rec, krec, coset_space(G, krec.elements)[1][u])
            zj = T.contravariant_S(n, um.gmap())(z_full)
            zjm = T.op(tau, m, n, S_j)(zj)
            assign[(cid, m, p)] = psi.component(rec, m, alpha)(zjm)
        return {i: x for i, x in enumerate(mc.element_from_blocks(n, assign)) if x}

    try:
        mat = ab.homology_map(chains.complex(krec), n, mc.chain_complex(n + 1), n, lift)
    except HomotopyError:
        return False, None
    return True, mat


def delta_omega_entries(X, M, desc, n_max):
    """The entries of the Omega-check of X against desc, read through this
    engine: (class_id, n, lhs, rhs, iso ok) per orbit class and n."""
    G = M.group
    psi = PsiMap([desc], X, M)
    chains = MackeyChainComplex(psi.T_src)
    entries = []
    for krec in subgroup_classes(G):
        orb_space = based_orbit_space(G, krec, psi.SW.bound)
        kspace = smash(psi.SW, orb_space)
        mc = DeltaMappingComplex(kspace, psi.T_tgt, n_max + 2)
        for n in range(n_max + 1):
            ok, mat = delta_phi_induced(psi, krec, kspace, orb_space, mc, chains, n)
            lhs, rhs = chains.complex(krec).homology(n), mc.homotopy_group(n)
            entries.append((krec.class_id, n, lhs.describe(), rhs.describe(), ok and mat.is_iso()))
    return tuple(entries)
