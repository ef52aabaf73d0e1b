"""Tests of the benchmark itself, at reduced bounds.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the repository's default pytest run, which
collects only test_*.py; they take about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import golden  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("bredon", "omega", "rho_les")


def _last_json(stdout):
    return json.loads(stdout.splitlines()[-1])


def _worker(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return _last_json(proc.stdout)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_declared_workloads_and_caches_match_the_code():
    from cases import WORKLOADS as cases
    import tracer

    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(cases)
    assert sorted(tracer.lru_caches()) == sorted(tracer.CACHES)


def test_calls_made_by_the_cases_are_traced(tmp_path):
    # cases.py binds sphere_for_descriptors by ``from x import y``; the four
    # bredon cases that build a sphere in set-up must each open a span.
    spans = tmp_path / "spans.jsonl"
    _worker("--workload", "bredon", "--seed", "1", "--smoke", "--trace", "--spans", str(spans))
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    (setup,) = [r[0] for r in records if r[2] == "setup"]
    built = [r for r in records if r[1] == setup and r[2] == "simplicial.sphere_for_descriptors"]
    assert len(built) == 4


def _perturbed(tmp_path, edit):
    gold = golden.load()
    edit(gold)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(gold))
    return str(path)


def test_perturbed_golden_answer_is_a_failure(tmp_path):
    def edit(gold):
        gold["answers"]["rho_les"]["c2_coef_les@smoke"]["0"]["nodes"][-1] = "Z/4"

    out = _worker("--workload", "rho_les", "--seed", "1", "--smoke",
                  "--golden", _perturbed(tmp_path, edit))
    assert out["failed"] == 1
    (bad,) = [c for c in out["cases"] if not c["ok"]]
    assert bad["name"] == "c2_coef_les" and "golden" in bad["error"]


def test_hand_checked_value_is_checked_on_its_own(tmp_path):
    def edit(gold):
        for hand in gold["hand_checked"]:
            if hand["case"] == "s3_s1_A":
                hand["value"]["3"] = "Z^3"

    out = _worker("--workload", "bredon", "--seed", "1", "--smoke",
                  "--golden", _perturbed(tmp_path, edit))
    assert [c["name"] for c in out["cases"] if not c["ok"]] == ["s3_s1_A"]


def test_memory_cap_failure_is_counted():
    code = (
        "import sys; sys.path.insert(0, %r); import worker; "
        "worker.MEMORY_CAP_BYTES = 64 << 20; "
        "sys.exit(worker.main(['--workload', 'omega', '--seed', '1', '--smoke']))" % HERE
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert out["failed"] == out["attempted"] == 2
    assert all(c["error"].startswith("MemoryError") for c in out["cases"])


def test_work_counts_repeat_exactly():
    runs = [_worker("--workload", "rho_les", "--seed", "3", "--smoke", "--trace") for _ in range(2)]
    first, second = (r["trace"] for r in runs)
    for key in ("sums", "maxes", "caches"):
        assert first[key] == second[key]
    assert {k: v["calls"] for k, v in first["layers"].items()} == {
        k: v["calls"] for k, v in second["layers"].items()
    }


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "rho_les", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
