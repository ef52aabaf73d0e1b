"""Per-layer tracing of eqmack from outside the package.

``Tracer.install()`` replaces the public functions listed in ``LAYERS`` with
wrappers that time each call.  A function imported into another module of the
package with ``from x import y`` is replaced there too, so no call bypasses
its span; a module outside the package must import its eqmack names after
``install()`` for the same reason.

Each call opens a span.  Its self time is its duration minus the time its
child spans cover; a layer's self time is the sum over its functions.  A
layer's inclusive time counts only its outermost spans, so nested calls of
one layer are not counted twice.  The first ``SPAN_CAP`` calls of each
function are also kept as span records (name, start, end, parent); past
that, a function only adds to its call count and summed timers, which keeps
functions called tens of thousands of times cheap to trace.

Hooks read work counts at the same boundaries (matrix shapes, cache hits,
constraint-system sizes).  The time a hook takes is charged to no layer.
"""

import functools
import importlib
import json
from time import perf_counter

MODULES = (
    "intlinalg",
    "abelian",
    "groups",
    "gsets",
    "mackey",
    "simplicial",
    "tensor",
    "homotopy",
)

# layer -> functions wrapped for it, as "module.name" or "module.Class.method"
LAYERS = {
    "simplicial": (
        "simplicial.sphere_for_descriptors",
        "simplicial.representation_sphere",
        "simplicial.smash",
        "simplicial.standard_simplex_plus",
        "simplicial.fixed_system",
        "simplicial.phi_transition",
        "simplicial.collapse",
    ),
    "gsets": (
        "gsets.orbit_decompose",
        "gsets.coset_space",
        "gsets.fixed_points",
        "groups.subgroup_classes",
    ),
    "mackey": (
        "mackey.MackeyFunctor.evaluate",
        "mackey.MackeyFunctor.covariant",
        "mackey.MackeyFunctor.contravariant",
        "mackey.based_value",
        "mackey.based_covariant",
        "mackey.based_contravariant",
        "mackey.FixedPointMackey.value_of",
    ),
    "tensor": (
        "tensor.TensorMackey.value",
        "tensor.TensorMackey.op",
        "tensor.TensorMackey.covariant_S",
        "tensor.TensorMackey.contravariant_S",
        "tensor.RhoIso.rho",
        "tensor.RhoIso.sigma",
        "tensor.PsiMap.component",
        "tensor.ModuleTensor.module",
    ),
    "homotopy": (
        "homotopy.MackeyChainComplex.complex",
        "homotopy.MackeyChainComplex.transition_chain_map",
        "homotopy.MappingComplex.degree_data",
        "homotopy.MappingComplex.differential",
        "homotopy.MappingComplex.chain_complex",
        "homotopy._phi_induced",
    ),
    "abelian": (
        "abelian.direct_sum",
        "abelian.assemble_block_hom",
        "abelian.AbHom.compose",
        "abelian.AbHom.__add__",
        "abelian.AbHom.__call__",
        "abelian.AbHom.preimage",
        "abelian.AbHom.preimage_matrix",
        "abelian.AbHom.kernel",
        "abelian.ChainComplex.homology",
        "abelian.ChainComplex.homology_class",
        "abelian.ChainMap.induced",
        "abelian.connecting_hom",
        "abelian.is_exact_at",
    ),
    "intlinalg": (
        "intlinalg.matmul",
        "intlinalg.apply",
        "intlinalg.matadd",
        "intlinalg.snf",
        "intlinalg.reduction",
        "intlinalg.ColumnReduction.kernel_basis",
        "intlinalg.ColumnReduction.solve",
    ),
}

# Work counts: summed over calls, or the largest value seen.
SUM_COUNTS = (
    "simplicial.simplices",
    "mackey.dense_entries",
    "mackey.cache_calls",
    "mackey.cache_hits",
    "tensor.op_calls",
    "tensor.op_hits",
    "intlinalg.matmul_madds",
    "intlinalg.apply_madds",
    "intlinalg.matmul_nonzeros",
    "intlinalg.matmul_entries",
)
MAX_COUNTS = (
    "homotopy.unknowns_max",
    "homotopy.constraint_rows_max",
    "homotopy.solution_rank_max",
    "abelian.assembled_max_entries",
    "abelian.assembled_max_nnz",
    "intlinalg.reduction_max_entries",
)

# Every lru_cache in src/eqmack, as module.function.  Fixed here so that the
# metric names do not depend on importing the package; the benchmark's tests
# check it against what lru_caches() finds.
CACHES = (
    "intlinalg._reduction",
    "abelian._invariants_cached",
    "abelian._snf_rels_cached",
    "abelian._unimodular_inverse",
    "groups.all_subgroups",
    "groups.subgroup_classes",
    "groups._classify_cached",
    "gsets.coset_space",
    "gsets.orbit_decompose",
    "gsets.fixed_points",
    "gsets.induce_from_weyl",
    "gsets._coset_index",
    "mackey.orbit_maps_between",
    "mackey.std_orbit_for_subgroup",
    "simplicial.surjections",
    "simplicial.monotones",
    "simplicial._degenerate_flags",
    "simplicial.fixed_system",
    "tensor.product_level",
    "tensor.smash_level",
    "homotopy._smash_index_map",
    "homotopy._discrete_vertex_table",
)

SPAN_CAP = 200


def _nonzeros(rows):
    return sum(len(r) - r.count(0) for r in rows)


def _resolve(spec):
    """The module or class that holds a wrapped function, and its name."""
    parts = spec.split(".")
    owner = importlib.import_module("eqmack." + parts[0])
    for name in parts[1:-1]:
        owner = getattr(owner, name)
    return owner, parts[-1]


def lru_caches():
    """{"module.name": function} for every lru_cache in the package."""
    out = {}
    for modname in MODULES:
        module = importlib.import_module("eqmack." + modname)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                out["%s.%s" % (modname, name)] = obj
    return out


class Tracer:
    def __init__(self):
        self.keys = []  # span name per function index
        self.layer_of = []  # layer per function index
        self.calls = []
        self.self_s = []
        self.incl_s = {layer: 0.0 for layer in LAYERS}
        self.depth = {layer: 0 for layer in LAYERS}
        self.sums = dict.fromkeys(SUM_COUNTS, 0)
        self.maxes = dict.fromkeys(MAX_COUNTS, 0)
        self.stack = []  # frames: [start, child time, effective span id]
        self.spans = []  # (id, parent id, name index or case name, start, end)
        self._next_id = 0
        self._seen_spaces = {}
        self._rows_in_degree = 0

    # -- installation -------------------------------------------------------

    def install(self):
        cached = (self._cache_size, self._cache_hit)
        hooks = {
            "mackey.MackeyFunctor.covariant": (self._cov_size, self._mackey_hit),
            "mackey.MackeyFunctor.contravariant": (self._con_size, self._mackey_hit),
            "mackey.based_covariant": (None, self._mackey_hom),
            "mackey.based_contravariant": (None, self._mackey_hom),
            "tensor.TensorMackey.op": cached,
            "tensor.TensorMackey.covariant_S": cached,
            "tensor.TensorMackey.contravariant_S": cached,
            "homotopy.MappingComplex.degree_data": (self._degree_open, self._degree_data),
            "abelian.assemble_block_hom": (None, self._assembled),
            "intlinalg.matmul": (None, self._matmul),
            "intlinalg.apply": (None, self._apply),
            "intlinalg.reduction": (None, self._reduction),
        }
        for spec in LAYERS["simplicial"]:
            if spec != "simplicial.phi_transition":
                hooks[spec] = (None, self._space)
        modules = [importlib.import_module("eqmack." + m) for m in MODULES]
        for layer, specs in LAYERS.items():
            for spec in specs:
                owner, name = _resolve(spec)
                original = vars(owner)[name]
                wrapper = self._wrap(original, spec, layer, *hooks.get(spec, (None, None)))
                setattr(owner, name, wrapper)
                if isinstance(owner, type):
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, fn, key, layer, before, after):
        index = len(self.keys)
        self.keys.append(key)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack = self.stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        incl_s = self.incl_s
        depth = self.depth
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_hook = perf_counter()
            state = before(args) if before else None
            ncalls = calls[index]
            parent_id = stack[-1][2] if stack else -1
            if ncalls < SPAN_CAP:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent_id
            depth[layer] += 1
            t0 = perf_counter()
            frame = [t0, 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                self_s[index] += dur - frame[1]
                calls[index] = ncalls + 1
                if not depth[layer]:
                    incl_s[layer] += dur
                if ncalls < SPAN_CAP:
                    spans.append((span_id, parent_id, index, t0, t1))
                if stack:
                    stack[-1][1] += t1 - t_hook
            if after:
                after(args, kwargs, result, state)
                if stack:
                    stack[-1][1] += perf_counter() - t1
            return result

        return wrapper

    # -- case boundaries ----------------------------------------------------

    def open_case(self, name):
        span_id = self._next_id
        self._next_id += 1
        self.stack.append([perf_counter(), 0.0, span_id])
        return name, span_id

    def close_case(self, token):
        name, span_id = token
        frame = self.stack.pop()
        t1 = perf_counter()
        self.spans.append((span_id, -1, name, frame[0], t1))
        return t1 - frame[0] - frame[1]  # time in no wrapped function

    def snapshot(self):
        """Cumulative per-layer totals and summed work counts."""
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for i, layer in enumerate(self.layer_of):
            layers[layer]["calls"] += self.calls[i]
            layers[layer]["self_s"] += self.self_s[i]
        for layer in LAYERS:
            layers[layer]["incl_s"] = self.incl_s[layer]
        return {"layers": layers, "sums": dict(self.sums)}

    def take_maxes(self):
        """The largest-value counts since the last call, then reset them."""
        out = dict(self.maxes)
        self.maxes = dict.fromkeys(MAX_COUNTS, 0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                if isinstance(name, int):
                    name = self.keys[name]
                fh.write(json.dumps([span_id, parent, name, t0, t1]) + "\n")

    # -- hooks: before(args) runs ahead of the call and its value is passed
    # to after(args, kwargs, result, state) once the call has returned --------

    def _bump_max(self, key, value):
        if value > self.maxes[key]:
            self.maxes[key] = value

    def _space(self, args, kwargs, result, state):
        space = result[0] if isinstance(result, tuple) else result
        if id(space) not in self._seen_spaces:
            self._seen_spaces[id(space)] = space
            self.sums["simplicial.simplices"] += sum(lv.size for lv in space.levels)

    def _mackey_hom(self, args, kwargs, result, state):
        self.sums["mackey.dense_entries"] += result.src.ngens * result.tgt.ngens

    @staticmethod
    def _cov_size(args):
        return args[0]._cov_cache, len(args[0]._cov_cache)

    @staticmethod
    def _con_size(args):
        return args[0]._con_cache, len(args[0]._con_cache)

    def _mackey_hit(self, args, kwargs, result, state):
        cache, size = state
        self.sums["mackey.cache_calls"] += 1
        self.sums["mackey.cache_hits"] += len(cache) == size
        self._mackey_hom(args, kwargs, result, state)

    @staticmethod
    def _cache_size(args):
        return len(args[0]._homs)

    def _cache_hit(self, args, kwargs, result, size):
        self.sums["tensor.op_calls"] += 1
        self.sums["tensor.op_hits"] += len(args[0]._homs) == size

    def _degree_open(self, args):
        saved = self._rows_in_degree
        self._rows_in_degree = 0
        return args[1] in args[0]._degree, saved

    def _degree_data(self, args, kwargs, result, state):
        cached, saved = state
        rows = self._rows_in_degree
        self._rows_in_degree = max(saved, rows)
        if not cached:
            self._bump_max("homotopy.unknowns_max", result["total"].ngens)
            self._bump_max("homotopy.constraint_rows_max", rows)
            self._bump_max("homotopy.solution_rank_max", result["group"].ngens)

    def _assembled(self, args, kwargs, result, state):
        h = result[0]
        self._rows_in_degree = max(self._rows_in_degree, h.tgt.ngens)
        self._bump_max("abelian.assembled_max_entries", h.src.ngens * h.tgt.ngens)
        self._bump_max("abelian.assembled_max_nnz", _nonzeros(h.mat))

    def _matmul(self, args, kwargs, result, state):
        a, b = args[0], args[1]
        bcols = args[2] if len(args) > 2 else kwargs.get("bcols")
        m = len(a)
        n = len(a[0]) if m else 0
        p = bcols if bcols is not None else (len(b[0]) if b else 0)
        self.sums["intlinalg.matmul_madds"] += m * n * p
        self.sums["intlinalg.matmul_entries"] += m * n + len(b) * p
        self.sums["intlinalg.matmul_nonzeros"] += _nonzeros(a) + _nonzeros(b)

    def _apply(self, args, kwargs, result, state):
        self.sums["intlinalg.apply_madds"] += len(args[0]) * len(args[1])

    def _reduction(self, args, kwargs, result, state):
        self._bump_max("intlinalg.reduction_max_entries", result.nrows * result.ncols)
