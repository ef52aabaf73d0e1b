"""The eqmack benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload {bredon,omega,rho_les} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  Each pass of the workload runs in a fresh,
single-threaded interpreter (bench/worker.py), so every global cache starts
cold, as it does for a one-shot user.  Passes run back to back (a closed
loop with one client) until the next one would end after ``--seconds``;
there is always at least one.  The seed fixes the case order and the RO(G)
rows, identically in every pass of the run.

With ``--trace 0`` every pass is untraced and the metrics are the
end-to-end ones: medians over passes of set-up time, wall and CPU time of
the cases, peak RSS, and the share of cases answered correctly.  The three
times are in seconds of a reference host: around each case the pass times a
fixed pure-Python loop that uses no eqmack code (``worker.calibrate``) and
scales the case's times by the loop's reference time over its time now, so
that the host's throughput, which can drift by half within minutes, cancels.

With ``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer ones from the traced passes, plus the tracing overhead (the
median over alternating pairs of traced minus untraced scaled wall time;
the per-layer times are not scaled).  The span records of the last traced pass are written to
bench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without eqmack's
sources next to the benchmark, or if a pass crashes or overruns the time
limit, the runner exits with status 1 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import CACHES, LAYERS, MAX_COUNTS, SUM_COUNTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

# Hard limit for a whole run, below the 180 s a run may take.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# Each ratio is reported with its denominator, so that a ratio of 0 over no
# calls does not read like a ratio of 0 over many.
RATIOS = {
    "mackey.cache_hit_ratio": ("mackey.cache_hits", "mackey.cache_calls"),
    "tensor.op_hit_ratio": ("tensor.op_hits", "tensor.op_calls"),
    "intlinalg.operand_density": ("intlinalg.matmul_nonzeros", "intlinalg.matmul_entries"),
}


def per_layer_units():
    """Name -> unit of every metric a traced run prints."""
    units = {}
    for layer in LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
        units[layer + ".incl_s"] = "s"
    for name in SUM_COUNTS + MAX_COUNTS:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    for cache in CACHES:
        units["cache.%s.hit_ratio" % cache] = "ratio"
        units["cache.%s.calls" % cache] = "count"
        units["cache.%s.size" % cache] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _ratio(num, den):
    """num / den, or 0.0 when den is 0 (den is printed beside the ratio)."""
    return num / den if den else 0.0


def run_pass(workload, seed, smoke, trace, deadline, spans=None):
    """One worker pass; its parsed JSON output and its duration."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    start = time.monotonic()
    cmd += ["--launched", repr(start)]
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - start),
        text=True,
        cwd=ROOT,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("worker exited with status %d" % proc.returncode)
    return json.loads(proc.stdout.splitlines()[-1]), time.monotonic() - start


def run_passes(workload, seed, seconds, trace, smoke=False):
    """Untraced (and, with ``trace``, alternating traced) passes for the run."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spans = None
    if trace:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload, seed))
    kinds = (False, True) if trace else (False,)
    passes = {kind: [] for kind in kinds}
    durations = {kind: [] for kind in kinds}
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        if durations[kind] and turn >= len(kinds):
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(durations[kind]) > seconds:
                break
        out, took = run_pass(workload, seed, smoke, kind, deadline, spans if kind else None)
        passes[kind].append(out)
        durations[kind].append(took)
        turn += 1
    return passes


def end_to_end(untraced):
    attempted = sum(p["attempted"] for p in untraced)
    failed = sum(p["failed"] for p in untraced)
    metrics = {
        name: statistics.median(p["scaled"][name] for p in untraced)
        for name in ("setup_s", "wall_s", "cpu_s")
    }
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in untraced)
    metrics["ok_share"] = (attempted - failed) / attempted
    return metrics


def per_layer(untraced, traced):
    """Per-layer metrics: times are medians over traced passes; counts, which
    repeat exactly from pass to pass, come from the first traced pass."""
    first = traced[0]["trace"]
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".calls"] = first["layers"][layer]["calls"]
        for key in ("self_s", "incl_s"):
            metrics["%s.%s" % (layer, key)] = statistics.median(
                p["trace"]["layers"][layer][key] for p in traced
            )
    sums = first["sums"]
    metrics.update(sums)
    metrics.update(first["maxes"])
    for name, (num, den) in RATIOS.items():
        metrics[name] = _ratio(sums[num], sums[den])
    for cache in CACHES:
        info = first["caches"].get(cache, {"hits": 0, "misses": 0, "size": 0})
        calls = info["hits"] + info["misses"]
        metrics["cache.%s.hit_ratio" % cache] = _ratio(info["hits"], calls)
        metrics["cache.%s.calls" % cache] = calls
        metrics["cache.%s.size" % cache] = info["size"]
    # Passes alternate, so each traced pass is paired with the untraced pass
    # just before it; the paired difference cancels slow drift of the host.
    metrics["trace.overhead_s"] = statistics.median(
        t["scaled"]["wall_s"] - u["scaled"]["wall_s"] for u, t in zip(untraced, traced)
    )
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("bredon", "omega", "rho_les"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced bounds, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "eqmack", "__init__.py")):
        print("bench: no eqmack sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 1
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    every = [p for kind in passes.values() for p in kind]
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    for p in every:
        for case in p["cases"]:
            if not case["ok"]:
                print("bench: %s failed: %s" % (case["name"], case["error"]), file=sys.stderr)
    if args.trace:
        values, units = per_layer(passes[False], passes[True]), per_layer_units()
    else:
        values, units = end_to_end(passes[False]), END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
