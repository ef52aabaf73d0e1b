"""Write a baseline record: every metric plus the per-layer split of every case.

    python3 bench/baseline.py

For each workload this makes one traced run of seed 1, as long as
``run_seconds`` in BENCHMARK.json, with untraced and traced passes
alternating as ``run.py --trace 1`` does, and writes bench/BENCH_seed.json.
It records the end-to-end metrics of the untraced passes, the per-layer
metrics of the traced ones, and, per case, the layer split: calls, self and
inclusive time per layer, the work counts and the lru_cache hits and misses.
Times are medians over passes, and only the end-to-end ones are scaled to
the reference host; counts come from the first traced pass, and
``counts_repeat`` says whether every traced pass (each a fresh process,
same seed) gave exactly the same counts.  ``self_share`` and ``incl_share`` give each layer's self
and inclusive time as a share of all time spent inside wrapped functions.
"""

import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import LAYERS  # noqa: E402

SEED = 1


def _counts(trace):
    return (
        trace["sums"],
        trace["maxes"],
        trace["caches"],
        {layer: v["calls"] for layer, v in trace["layers"].items()},
    )


def _median(values):
    return statistics.median(values) if values else None


def case_splits(untraced, traced):
    """Per case (set-up first): wall times, layer split, counts, caches."""
    first = traced[0]
    names = ["setup"] + [c["name"] for c in first["cases"]]

    def split(p, name):
        if name == "setup":
            return p["trace"]["setup"]
        return next(c["split"] for c in p["cases"] if c["name"] == name)

    def wall(p, name):
        return next(c["wall_s"] for c in p["cases"] if c["name"] == name)

    out = {}
    for name in names:
        splits = [split(p, name) for p in traced]
        base = splits[0]
        entry = {}
        if name != "setup":
            entry["wall_s"] = _median([wall(p, name) for p in untraced])
            entry["traced_wall_s"] = _median([wall(p, name) for p in traced])
        entry["layers"] = {
            layer: {
                "calls": base["layers"][layer]["calls"],
                "self_s": _median([s["layers"][layer]["self_s"] for s in splits]),
                "incl_s": _median([s["layers"][layer]["incl_s"] for s in splits]),
            }
            for layer in LAYERS
        }
        entry["outside_s"] = _median([s["outside_s"] for s in splits])
        entry["counts"] = {k: v for k, v in {**base["sums"], **base["maxes"]}.items() if v}
        entry["caches"] = {k: v for k, v in base["caches"].items() if any(v)}
        out[name] = entry
    return out


def workload_record(workload, seed, seconds):
    passes = run.run_passes(workload, seed, seconds, True)
    untraced, traced = passes[False], passes[True]
    per_layer = run.per_layer(untraced, traced)
    self_s = {layer: per_layer[layer + ".self_s"] for layer in LAYERS}
    inside = sum(self_s.values())
    return {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "failed": sum(p["failed"] for p in untraced + traced),
        "counts_repeat": all(_counts(p["trace"]) == _counts(traced[0]["trace"]) for p in traced),
        "dominant_layer_by_self_s": max(self_s, key=self_s.get),
        "self_share": {layer: self_s[layer] / inside for layer in LAYERS},
        "incl_share": {layer: per_layer[layer + ".incl_s"] / inside for layer in LAYERS},
        "end_to_end": run.end_to_end(untraced),
        "per_layer": per_layer,
        "cases": case_splits(untraced, traced),
    }


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
        "seed": SEED,
        "seconds": seconds,
        "workloads": {w: workload_record(w, SEED, seconds) for w in ("bredon", "omega", "rho_les")},
    }
    with open(os.path.join(HERE, "BENCH_seed.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
