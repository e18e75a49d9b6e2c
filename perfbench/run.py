"""Benchmark of fusioncalc: seeded workloads, each verdict checked.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Runs rounds of one workload until --seconds are spent.  Each round is a
fresh interpreter (worker.py), so nothing cached in one round helps the
next, as with separate invocations of the batch CLI.  Every round of a
run gets the same queries, built from (workload, seed), and sends them
one after another from a single thread (a closed loop, one client).
Rounds run one after another, never in parallel.

The speed of a shared machine drifts by a fifth or more within seconds,
and a slow period can last longer than a run.  So every round also times
a fixed calibration loop between queries (about 1% of the round), and its
times are scaled to the speed at which that loop takes
CALIBRATION_REF_MS: a time t measured while the loop's median time was c
is reported as t * CALIBRATION_REF_MS / c.  With --trace 0 the last line
of output is a JSON object with the end-to-end metrics:

  wall_s        median over rounds of the time from the first query to
                the last verdict, calibration pauses left out
  setup_s       median over rounds of the time from starting the
                interpreter to the first timed query (import and inputs)
  query_p50_ms, query_p90_ms
                percentiles of the times of the queries that returned,
                over all rounds
  peak_rss_mb   median over rounds of the peak resident memory

With --trace 1 untraced and traced rounds alternate, and the metrics are
the per-layer ones of the traced rounds (medians over them), plus the
tracing overhead, each with the unit BENCHMARK.json gives it.  Any output
that differs from its known answer, and any exception other than a
query's expected failure, makes the run fail: `correct` is false and the
exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sandbox", "reduce", "decide", "models")
ROUND_LIMIT_S = 120  # a round takes about 10 s; one this slow is stuck
# The calibration loop's time at the speed times are reported at: about
# its median time on an idle 2-core Xeon box with CPython 3.11.
CALIBRATION_REF_MS = 1.0


def metric_units() -> dict[str, str]:
    """The unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run_round(workload: str, seed: int, traced: bool) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--seed", str(seed)]
    if traced:
        command.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=ROUND_LIMIT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"a round of {workload} took over {ROUND_LIMIT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"a round of {workload} exited {proc.returncode}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record["first_query"] - started
    record["duration_s"] = time.monotonic() - started
    return record


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed_factor(record: dict) -> float:
    """Scale from the round's times to the reference speed."""
    return CALIBRATION_REF_MS / statistics.median(record["calibration_ms"])


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    returned = [ms * speed_factor(r) for r in rounds
                for i, ms in enumerate(r["query_ms"]) if i not in r["raised"]]
    if not returned:  # every query raised, so the run is wrong anyway
        returned = [ms * speed_factor(r) for r in rounds
                    for ms in r["query_ms"]]
    return {
        "wall_s": statistics.median(
            sum(r["query_ms"]) * speed_factor(r) for r in rounds) / 1000,
        "setup_s": statistics.median(
            r["setup_s"] * speed_factor(r) for r in rounds),
        "query_p50_ms": percentile(returned, 50),
        "query_p90_ms": percentile(returned, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_frac"] = end_to_end(traced)["wall_s"] / end_to_end(
        untraced)["wall_s"] - 1
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "fusioncalc" / "__init__.py").is_file():
        print(f"error: no fusioncalc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    units = metric_units()
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        trace_round = bool(args.trace) and len(traced) < len(untraced)
        record = run_round(args.workload, args.seed, trace_round)
        (traced if trace_round else untraced).append(record)
        rounds = untraced + traced
        typical = statistics.median(r["duration_s"] for r in rounds)
        if (not args.trace or traced) and \
                time.monotonic() - start + typical > args.seconds:
            break

    rounds = untraced + traced
    attempted = sum(len(r["query_ms"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    mismatches = [m for r in rounds for m in r["mismatches"]]
    metrics = per_layer(traced, untraced) if args.trace \
        else end_to_end(untraced)

    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced rounds of {len(rounds[0]['query_ms'])} "
          f"queries; {attempted} attempted, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.4f})")
    for failure in sorted(set(failures)):
        print(f"#   failed: {failure} (x{failures.count(failure)})")
    for mismatch in mismatches:
        print(f"#   MISMATCH: {mismatch}")
    for kind, group in (("untraced", untraced), ("traced", traced)):
        if group:
            print(f"# {kind} round wall_s, unscaled: "
                  + " ".join(f"{r['wall_s']:.3f}" for r in group))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
