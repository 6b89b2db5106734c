"""Closed-loop benchmark of the mixtrace CLI.

Run from the repository root:

    python3 perfbench/run.py --workload deep-trace --seed 1 --seconds 10
    python3 perfbench/run.py --workload deep-trace --seed 1 --trace 1
    python3 perfbench/run.py --seed 1            # every workload in turn

One client in one process and thread sends each request through
``mixtrace.cli.main`` once the previous one has returned, and checks every
reply against a known answer.  With ``--trace 0`` the end-to-end metrics
are printed; with ``--trace 1`` a fixed set of rounds runs once untraced
and once traced, each in a fresh process, and the per-layer metrics are
printed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

# Fresh processes whose set-up times give the setup_s median: this many
# before the measuring process, which is one more, and as many after it.
# Spreading them over the run samples more than one phase of the host's
# speed, which drifts by tens of percent over tens of seconds.
SETUP_SAMPLES_EACH_SIDE = 2
# Rounds in the fixed request set that the traced run and the output
# digest cover, sized to a few seconds of untraced work per workload.
TRACE_ROUNDS = {"axioms": 16, "zigzag": 10, "deep-trace": 1, "localize": 3}
# Every process this run starts must have ended by then.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"verdicts_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def run_client(workload, seed, deadline, *extra):
    cmd = [sys.executable, os.path.join(HERE, "client.py"),
           "--workload", workload, "--seed", str(seed),
           "--workdir", os.path.join(".bench_work", workload), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a client")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"client timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"client exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_full_speed(main, fastest):
    """Each request latency scaled to the host's full speed.

    A request's host factor is the mean of the probes from the last one
    before it to the first one after it; its latency is multiplied by the
    run's fastest probe divided by that factor.
    """
    lat, probes = main["latencies"], main["probes"]
    at = [i for i, _ in probes]
    return [value * fastest / statistics.mean(
                p for _, p in probes[bisect_right(at, j) - 1:
                                     bisect_left(at, j + 1) + 1])
            for j, value in enumerate(lat)]


def timings(latencies):
    lat = sorted(latencies)
    return {"verdicts_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1000,
            "latency_p90_ms": nearest_rank(lat, 0.9) * 1000}


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tally(results):
    """Attempted requests, and failures split into unexpected ones and
    the known defects named in workloads.KNOWN_DEFECTS."""
    attempted = sum(r.get("attempted", 0) for r in results)
    failures = [f for r in results for f in r.get("failures", [])]
    known = [f for f in failures if f["known_defect"]]
    return attempted, [f for f in failures if not f["known_defect"]], known


def measure(workload, seed, seconds, deadline):
    """End-to-end run: set-up samples, then the timed closed loop."""
    def setup_only():
        return run_client(workload, seed, deadline, "--setup-only")

    setups = [setup_only() for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    main = run_client(workload, seed, deadline, "--seconds", str(seconds),
                      "--digest-rounds", str(TRACE_ROUNDS[workload]))
    setups += [setup_only() for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    samples = setups + [main]
    fastest = min([p for _, p in main["probes"]]
                  + [p for s in samples for p in s["setup_probes"]])
    metrics = timings(at_full_speed(main, fastest))
    metrics["setup_s"] = statistics.median(
        s["setup_s"] * fastest / statistics.mean(s["setup_probes"])
        for s in samples)
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    attempted, failed, known = tally(samples)
    print(f"== {workload}  seed {seed}  closed loop, 1 client: "
          f"{len(main['latencies'])} requests in "
          f"{len(main['round_starts'])} rounds, {main['busy_s']:.2f} s busy")
    for name, value in metrics.items():
        print(f"{name:<18} {value:.6g} {END_TO_END_UNITS[name]}")
    above = len(main["latencies"]) - math.ceil(0.9 * len(main["latencies"]))
    print(f"{'':<18} p90 has {above} requests above it"
          + ("" if above >= 10 else " (too few: not valid)"))
    raw = timings(main["latencies"])
    raw["setup_s"] = statistics.median(s["setup_s"] for s in samples)
    print(f"{'':<18} as measured, before scaling to full host speed: "
          + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    print(f"{'failed_frac':<18} "
          f"{(len(failed) + len(known)) / attempted:.6g} fraction "
          f"({len(failed)} unexpected + {len(known)} known-defect "
          f"of {attempted} attempted)")
    print(f"{'output_digest':<18} sha256:{main['digest']} "
          f"over the first {main['digest_requests']} requests")
    return metrics, attempted, failed, known


def trace(workload, seed, deadline):
    """Traced run: the fixed request set untraced, then traced, each in a
    fresh process; per-layer metrics from the traced one."""
    rounds = ["--rounds", str(TRACE_ROUNDS[workload]),
              "--digest-rounds", str(TRACE_ROUNDS[workload])]
    plain = run_client(workload, seed, deadline, *rounds)
    traced = run_client(workload, seed, deadline, *rounds, "--trace", "1")
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_frac"] = \
        (traced["busy_s"] - plain["busy_s"]) / plain["busy_s"]
    attempted, failed, known = tally([plain, traced])
    if traced["digest"] != plain["digest"]:
        failed.append({"id": "traced-run", "known_defect": "",
                       "reason": "tracing changed the program's output"})
    print(f"== {workload}  seed {seed}  traced run: {len(traced['latencies'])}"
          f" requests in {len(traced['round_starts'])} rounds")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:<40} {shown} {PER_LAYER_UNITS[name]}")
    return metrics, attempted, failed, known


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Closed-loop benchmark of the mixtrace CLI.")
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "mixtrace", "cli.py")):
        print("run.py: no src/mixtrace here; run it from the root of a "
              "mixtrace checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    names = workloads.WORKLOADS if args.workload == "all" else \
        (args.workload,)
    metrics, attempted, failed, known = {}, 0, [], []
    for name in names:
        if args.trace:
            got = trace(name, args.seed, deadline)
            units = PER_LAYER_UNITS
        else:
            got = measure(name, args.seed, args.seconds, deadline)
            units = END_TO_END_UNITS
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in got[0].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
        attempted += got[1]
        failed += got[2]
        known += got[3]
    repeats = Counter((f["id"].split(".", 1)[1], f["known_defect"])
                      for f in known)
    for (request, why), count in sorted(repeats.items()):
        print(f"known defect: {request} failed {count} times: {why}")
    for f in failed:
        print(f"FAILED: {f['id']}: {f['reason']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        raise SystemExit(1)
