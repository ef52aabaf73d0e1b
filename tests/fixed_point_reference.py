"""A test-only reference: fixed-point functors presented as constraint kernels.

Before orbit coordinates, FixedPointMackey presented Hom_W(S^H, A) as the
kernel of |W| - 1 constraint rows psi(w p) - w psi(p) = 0 per fixed point p,
inside one copy of A per point of S^H, and restriction and transfer were
the fixed-point block maps of that ambient sum, lifted through the kernel's
inclusion.  RhoIso lifted the block permutation between the two orders of
(X_n x S)^H through the right-hand kernel.  This copy of that code is an
independent oracle: the tests show that the orbit-coordinate values are
isomorphic to these, through the map that reads a function at the orbit
representatives, and that every restriction, transfer, rho and sigma
commutes with that isomorphism.
"""

from eqmack import abelian as ab
from eqmack.abelian import AbHom
from eqmack.gsets import GMap, fixed_points, std_orbit
from eqmack.mackey import MackeyError, MackeyFunctor
from eqmack.simplicial import fixed_system
from eqmack.tensor import ModuleTensor, TensorMackey

from module_chains import routed_hom


def restrict_map_to_fixed(f, elems):
    """A G-map restricted to H-fixed points, as a Weyl-group map."""
    fs = fixed_points(f.src, elems)
    ft = fixed_points(f.tgt, elems)
    vals = tuple(ft.index[f.values[p]] for p in fs.points)
    return GMap(fs.wset, ft.wset, vals)


def _restricted(h, incl_s, incl_t, error):
    """The hom between subgroups that h induces, for h sending the image of
    the inclusion incl_s into the image of incl_t; raises error if it does not."""
    out = incl_t.preimage_matrix(h.compose(incl_s))
    if out is None:
        raise MackeyError(error)
    return out


class ConstraintFixedPointMackey(MackeyFunctor):
    """S |-> Hom_W(S^H, A), each value the kernel of the constraint rows."""

    def __init__(self, group, hrec, module):
        super().__init__(group)
        self.hrec = hrec
        self.module = module.check()
        self._containers = {}

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
            cons, _, _ = ab.assemble_block_hom([A.value] * k, [A.value] * nrows, entries)
            ker, incl = cons.kernel()
            self._containers[S] = (fp, tuple(offsets), ker, incl)
        return self._containers[S]

    def value_of(self, S):
        return self._container(S)[2]

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
        return _restricted(h, inks, inkt, "transfer does not preserve equivariance")

    def contravariant_raw(self, q):
        """Restriction along any G-map: precomposition on H-fixed points."""
        inks = self._container(q.src)[3]
        inkt = self._container(q.tgt)[3]
        src, tgt, blocks = self._fixed_point_blocks(q)
        h, _, _ = ab.assemble_block_hom(tgt, src, [(s, t, b) for t, s, b in blocks])
        return _restricted(h, inkt, inks, "restriction does not preserve equivariance")


class ConstraintRhoIso:
    """rho and sigma between the constraint-kernel presentations: rho lifts,
    through the right-hand container's inclusion, the block permutation
    between the two orders of (X_n x S)^H after the direct sum of the orbit
    containers' inclusions; sigma lifts the inverse permutation back
    through that direct sum."""

    def __init__(self, X, hrec, module, reduced=False):
        G = hrec.group
        self.hrec = hrec
        self.module = module
        self.RA = ConstraintFixedPointMackey(G, hrec, module)
        self.T = TensorMackey(X, self.RA, reduced=reduced)
        self.Y, self.ypoints = fixed_system(X, hrec.elements)
        self.MT = ModuleTensor(self.Y, module, reduced=reduced)
        self._rhs = {}

    def rhs_functor(self, n):
        if n not in self._rhs:
            self._rhs[n] = ConstraintFixedPointMackey(self.hrec.group, self.hrec, self.MT.module(n))
        return self._rhs[n]

    def _layout(self, rec, n):
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
        total, order, incl = self._layout(rec, n)
        k = range(len(order))
        perm = routed_hom(self.module.value, k, k, order)
        return incl.preimage_matrix(perm.compose(total))

    def sigma(self, rec, n):
        total, order, incl = self._layout(rec, n)
        k = range(len(order))
        back = routed_hom(self.module.value, k, k, sorted(k, key=order.__getitem__))
        return total.preimage_matrix(back.compose(incl))
