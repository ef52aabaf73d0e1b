"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N [--smoke] [--trace]
        [--launched T] [--golden PATH] [--spans PATH]

The pass builds every case's inputs (set-up), then runs the cases back to
back in seeded order, single-threaded, and checks each answer against the
golden file.  A case that raises, runs out of the address-space cap, or
gives a wrong answer counts as failed; the pass itself still succeeds.
Besides the raw times, the output holds them scaled to a reference host
(``scaled``; see ``host_speed``).

``--launched`` is the CLOCK_MONOTONIC time at which the parent started this
process, so that set-up time includes interpreter start-up.  ``--trace``
installs the per-layer tracer before set-up and adds each case's per-layer
split to the output; ``--spans`` names the file the span records go to.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Address-space cap of a workload process: a case that needs more fails with
# a counted MemoryError instead of exhausting a small machine.
MEMORY_CAP_BYTES = 2 << 30

# Host speed is the reference time of the calibration loop over the median
# of a few samples of it.  The reference is about what the loop took on a
# 2-vCPU VM with Python 3.11.7 while its host was quiet.
CALIBRATION_REF_S = 0.017
CALIBRATION_REPS = 3


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--launched", type=float)
    ap.add_argument("--golden")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    launched = args.launched if args.launched is not None else time.monotonic()

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    sys.path.insert(0, SRC)
    import golden

    # The tracer goes in before cases.py is imported, so that the names it
    # binds with ``from eqmack.x import y`` are the wrapped functions.
    splits = Splits() if args.trace else None
    if splits:
        splits.begin("setup")
    from cases import WORKLOADS

    gold = golden.load(args.golden or golden.GOLDEN)
    factories = WORKLOADS[args.workload]

    rng = random.Random(args.seed)
    names = list(factories)
    rng.shuffle(names)
    cases = []
    runs = []
    for name in names:
        try:
            runs.append((name, factories[name](args.smoke, rng)))
        except Exception as exc:  # a case that cannot be set up has failed
            cases.append(_failure(name, exc))
    setup_done = time.monotonic()
    setup_split = splits.end() if splits else None

    # Host speed is sampled before the first case and after each case; a
    # case's times are scaled by the mean of the samples around it.
    speed = host_speed()
    scaled = {"setup_s": (setup_done - launched) * speed, "wall_s": 0.0, "cpu_s": 0.0}
    wall = cpu = 0.0
    for name, run in runs:
        if splits:
            splits.begin(name)
        t_case = time.perf_counter()
        c_case = time.process_time()
        try:
            answer, intrinsic_ok = run()
        except Exception as exc:  # MemoryError at the address-space cap too
            case = _failure(name, exc)
        else:
            error = None if intrinsic_ok else "an intrinsic check failed"
            error = error or golden.check(gold, args.workload, name, args.smoke, answer)
            case = {"name": name, "ok": error is None, "error": error, "answer": answer}
        case["wall_s"] = time.perf_counter() - t_case
        case["cpu_s"] = time.process_time() - c_case
        if splits:
            case["split"] = splits.end()
        cases.append(case)
        after = host_speed()
        wall += case["wall_s"]
        cpu += case["cpu_s"]
        scaled["wall_s"] += case["wall_s"] * (speed + after) / 2
        scaled["cpu_s"] += case["cpu_s"] * (speed + after) / 2
        speed = after

    out = {
        "setup_s": setup_done - launched,
        "wall_s": wall,
        "cpu_s": cpu,
        "scaled": scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(factories),
        "failed": sum(1 for c in cases if not c["ok"]),
        "cases": cases,
    }
    if splits:
        out["trace"] = splits.totals(setup_split, cases)
        if args.spans:
            splits.tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


def calibrate():
    """Seconds for a fixed pure-Python integer workload that uses no eqmack code."""
    rng = random.Random(0)
    a = [[rng.randrange(-3, 4) for _ in range(40)] for _ in range(40)]
    b = [[rng.randrange(-3, 4) for _ in range(40)] for _ in range(40)]
    seen = {}
    t0 = time.perf_counter()
    for _ in range(4):
        cols = list(zip(*b))
        c = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
        for i, row in enumerate(c):
            seen[tuple(row[:5])] = i
        b = [[v % 7 - 3 for v in row] for row in c]
    return time.perf_counter() - t0


def host_speed():
    """The host's speed now, relative to the reference host.

    No change to eqmack can move ``calibrate``; it moves with the throughput
    of the CPU the process runs on, which on a shared machine drifts by tens
    of percent within minutes.  Times multiplied by this read as seconds on
    a host where ``calibrate`` takes ``CALIBRATION_REF_S``.
    """
    return CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(CALIBRATION_REPS))


def _failure(name, exc):
    detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return {"name": name, "ok": False, "error": detail, "answer": None}


class Splits:
    """Installs the tracer and cuts its counters into one split per case.

    A split covers one ``begin``/``end`` window: set-up, then each case.
    It holds the change in every layer total, work count and lru_cache
    counter, the largest-value counts, and the time spent in no wrapped
    function.
    """

    def __init__(self):
        import tracer

        self.caches = tracer.lru_caches()
        self.tracer = tracer.Tracer()
        self.tracer.install()
        self.prev = self.tracer.snapshot()
        self.prev_caches = self._cache_info()
        self.token = None

    def begin(self, name):
        self.token = self.tracer.open_case(name)

    def _cache_info(self):
        return {name: fn.cache_info() for name, fn in self.caches.items()}

    def end(self):
        outside = self.tracer.close_case(self.token)
        now = self.tracer.snapshot()
        caches = self._cache_info()
        split = {
            "layers": {
                layer: {k: v - self.prev["layers"][layer][k] for k, v in totals.items()}
                for layer, totals in now["layers"].items()
            },
            "sums": {k: v - self.prev["sums"][k] for k, v in now["sums"].items()},
            "maxes": self.tracer.take_maxes(),
            "caches": {
                name: [
                    info.hits - self.prev_caches[name].hits,
                    info.misses - self.prev_caches[name].misses,
                ]
                for name, info in caches.items()
            },
            "outside_s": outside,
        }
        self.prev, self.prev_caches = now, caches
        return split

    def totals(self, setup_split, cases):
        """Whole-pass totals: set-up and every case."""
        snap = self.tracer.snapshot()
        maxes = dict(setup_split["maxes"])
        for case in cases:
            for k, v in case.get("split", {}).get("maxes", {}).items():
                maxes[k] = max(maxes[k], v)
        return {
            "layers": snap["layers"],
            "sums": snap["sums"],
            "maxes": maxes,
            "caches": {
                name: {"hits": i.hits, "misses": i.misses, "size": i.currsize}
                for name, i in self._cache_info().items()
            },
            "setup": setup_split,
            "spans": len(self.tracer.spans),
        }


if __name__ == "__main__":
    sys.exit(main())
