"""The benchmark's tracer names functions and caches of the package by
string; these checks fail when a rename or a new or dropped lru_cache would
otherwise break ``bench/run.py --trace 1`` silently.

The tracer module is read and executed here without being imported through
the import system, so nothing is written under bench/.
"""

import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_wrapped_function_resolves(tracer):
    specs = [spec for specs in tracer.LAYERS.values() for spec in specs]
    missing = []
    for spec in specs:
        owner, name = tracer._resolve(spec)
        if not callable(vars(owner).get(name)):
            missing.append(spec)
    assert missing == []


def test_pinned_cache_list_matches_the_package(tracer):
    assert sorted(tracer.lru_caches()) == sorted(tracer.CACHES)


def test_size_hooks_read_sparse_homs_and_reductions(tracer):
    # --trace 1 reports these maxima from homs assembled as sparse columns
    # and from reductions fed those columns
    from eqmack import intlinalg as la
    from eqmack.abelian import AbGroup, AbHom, assemble_block_hom

    Z = AbGroup.free(1)
    block = AbHom(Z, Z, ((2,),))
    entries = [(0, 0, block), (1, 2, -block), (0, 0, block), (1, 1, block), (1, 1, -block)]
    result = assemble_block_hom([Z, Z, Z], [Z, Z], entries)
    red = la.ColumnReduction(result[0].cols, 2)
    hooks = tracer.Tracer()
    hooks._assembled((), {}, result, None)
    hooks._reduction((), {}, red, None)
    maxes = hooks.take_maxes()
    assert maxes["abelian.assembled_max_entries"] == 6
    assert maxes["abelian.assembled_max_nnz"] == 2  # of ((4, 0, 0), (0, 0, -2))
    assert maxes["intlinalg.reduction_max_entries"] == 6
    assert result[0].mat == ((4, 0, 0), (0, 0, -2))
