"""The benchmark's cases lay out no full level of any simplicial G-set.

Every case of every workload runs at full size, untraced, with
simplicial._materialize, which lays out full levels, made to fail; each
answer must still hold on its own and match the golden file.  The case and
golden modules are read and executed here without being imported through
the import system, so nothing is written under bench/.
"""

import random
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    module = types.ModuleType("bench_" + name)
    module.__file__ = str(BENCH / (name + ".py"))
    exec(compile((BENCH / (name + ".py")).read_text(), module.__file__, "exec"), module.__dict__)
    return module


CASES = bench_module("cases")
GOLDEN = bench_module("golden")


@pytest.mark.parametrize(
    "workload, case", [(w, c) for w, cases in CASES.WORKLOADS.items() for c in cases]
)
def test_no_benchmark_case_lays_out_a_full_level(monkeypatch, workload, case):
    def refuse(X):
        raise AssertionError("a full level of a %r space was laid out" % (X._recipe[0],))

    monkeypatch.setattr("eqmack.simplicial._materialize", refuse)
    answer, ok = CASES.WORKLOADS[workload][case](False, random.Random(0))()
    assert ok
    assert GOLDEN.check(GOLDEN.load(), workload, case, False, answer) is None
