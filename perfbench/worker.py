"""One round of one workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload decide --seed 1 [--trace]

Builds the inputs from (workload, seed), so every round of a run gets
the same queries, runs them one after another, then checks every output
against its known answer; a query that raises an exception it may not
raise is a mismatch too.  Prints one JSON line: the monotonic time of
the first timed query, the round's wall time, each query's time and
whether it raised, the failure messages, the mismatches and the peak
resident memory.  With --trace it also reports the per-layer metrics and
writes the spans to .bench_out/<workload>.spans.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def calibration_loop() -> float:
    """Milliseconds taken by a fixed loop that allocates no container, so
    its time follows the machine's speed and nothing the program does."""
    start = time.perf_counter()
    x = 0
    for i in range(10000):
        x = (x * 31 + i) % 65521
    return (time.perf_counter() - start) * 1000


def calibrate(samples: list[float], budget_ms: float) -> None:
    """Run the loop once, and again until about budget_ms are spent."""
    spent = 0.0
    while True:
        samples.append(calibration_loop())
        spent += samples[-1]
        if spent >= budget_ms:
            return


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads  # after install, so its imported names are wrapped

    rng = random.Random(f"{args.workload}:{args.seed}")
    queries = workloads.WORKLOADS[args.workload](
        rng, tracer.wrap_pole if tracer else lambda pole: pole)

    query_ms: list[float] = []
    raised: list[int] = []
    failures: list[str] = []
    unexpected: list[str] = []
    returned = []
    calibration_ms: list[float] = []
    calibrate(calibration_ms, 0)
    first = time.monotonic()
    start = time.perf_counter()
    for i, query in enumerate(queries):
        if tracer:
            tracer.query_id = i
        t = time.perf_counter()
        try:
            out = query.run()
        except Exception as exc:
            raised.append(i)
            failure = f"{query.kind}: {type(exc).__name__}: {exc}"
            failures.append(failure)
            if not isinstance(exc, query.may_raise):
                unexpected.append(f"raised {failure}")
        else:
            returned.append((query, out))
        query_ms.append((time.perf_counter() - t) * 1000)
        # about 1% of the time goes to sampling the machine's speed
        calibrate(calibration_ms, query_ms[-1] / 100)
    wall_s = time.perf_counter() - start
    result = {
        "first_query": first,
        "wall_s": wall_s,
        "query_ms": query_ms,
        "calibration_ms": calibration_ms,
        "raised": raised,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer:
        tracer.query_id = -1
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(ROOT / ".bench_out" / f"{args.workload}.spans")
    result["mismatches"] = unexpected + [f"{query.kind}: {message}"
                                         for query, out in returned
                                         if (message := query.check(out))]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
