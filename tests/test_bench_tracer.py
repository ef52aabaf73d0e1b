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
