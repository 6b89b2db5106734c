"""One closed-loop client: a single process and thread that sends one
request at a time through ``mixtrace.cli.main`` and checks each reply.

run.py starts this script in a fresh process for every measurement.  It
prints one JSON object on its standard output: the set-up time and its
host probes, and unless ``--setup-only`` the request latencies, host
probes, failures, output digest, peak RSS and, with ``--trace 1``, the
per-layer totals.

    python3 perfbench/client.py --workload axioms --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# A request that runs longer than this is stopped and counts as failed.
REQUEST_LIMIT_S = 10.0
# A time-bound loop still sends at least this many requests, so that the
# 90th-percentile latency has ten samples above it.
MIN_REQUESTS = 100

# The host's speed drifts: for seconds at a time the same request runs up
# to 70 % longer.  Every PROBE_EVERY_S of busy time, between requests, the
# client times a fixed arithmetic loop that allocates no containers, so its
# time tracks the host and not the program's heap; run.py uses the probes
# to scale each latency, and the set-up time, to the host's full speed.
PROBE_EVERY_S = 0.5


def probe():
    """Seconds taken by the faster of two runs of a fixed loop."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return min(times)


class RequestTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    under test can swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout


def send(cli, argv):
    """One request: returns (exit code or None, stdout, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except RequestTimeout:
        error = f"over the {REQUEST_LIMIT_S:g} s time limit"
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the reply is a traceback: record it as failed
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, out.getvalue(), error, elapsed


def _all_passed(data):
    return data.get("ok") is True and \
        all(c.get("passed") is True for c in data.get("checks", []))


def check(expect, rc, stdout):
    """Compare one reply with its known answer.  Returns the reason it
    differs ("" when it matches) and, for a reply carrying a witness, the
    (payload, exit code, outcome) that replaying it must give."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return f"exit {rc}, stdout is not JSON", None
    if not isinstance(data, dict):
        return f"exit {rc}, stdout is not a JSON object", None
    kind = expect["kind"]
    replay = None
    if kind == "axioms":
        ok = rc == 0 and data.get("totalFailures") == 0 and \
            data.get("cases") == expect["cases"]
    elif kind == "zigzag-none":
        ok = rc == 0 and data.get("status") == "none_found" and \
            data.get("samples") == expect["budget"] and \
            data.get("stats", {}).get("violated") == 0
    elif kind == "zigzag-violated":
        ok = rc == 0 and data.get("status") == "violated" and \
            "witness" in data
        if ok:
            replay = (data["witness"], 1, "violated")
    elif kind == "trace":
        ok = rc == 0 and data.get("status") == expect["status"]
        if ok and expect["status"] == "defined":
            ok = data.get("value", {}).get("entries") == expect["value"]
        if ok and "alpha" in expect:
            ok = data.get("alpha") == expect["alpha"] and "witness" in data
            if ok:
                replay = (data["witness"]["diagram"], 0, "commutes")
    elif kind == "congruent":
        ok = rc == 0 and data.get("congruent") is True
    elif kind in ("compactify", "validate"):
        ok = rc == 0 and _all_passed(data)
    elif kind == "not-compactifiable":
        ok = rc == 1 and data.get("status") == "ModelNotCompactifiable"
    else:
        raise ValueError(f"unknown expectation {kind!r}")
    if ok:
        return "", replay
    return f"exit {rc}, reply differs from the known answer", None


def write_files(reqs):
    for req in reqs:
        for path, payload in req["files"].items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)


def remove_files(reqs):
    for req in reqs:
        for path in req["files"]:
            os.remove(path)


class Client:
    def __init__(self, cli):
        self.cli = cli
        self.failures = []
        self.replays = []
        self.attempted = 0

    def request(self, req, digest=None):
        rc, stdout, error, elapsed = send(self.cli, req["argv"])
        self.attempted += 1
        if error:
            reason, replay = error, None
        else:
            reason, replay = check(req["expect"], rc, stdout)
        if reason:
            self.failures.append({
                "id": req["id"], "reason": reason,
                "known_defect": req["expect"].get("known_defect", "")})
        if replay is not None and digest is not None:
            self.replays.append((req["id"], len(self.replays)) + replay)
        if digest is not None:
            digest.update(f"{req['id']}\0{rc}\0".encode())
            digest.update(stdout.encode())
        return elapsed

    def replay_witnesses(self, workdir):
        """Feed the witnesses of the digest rounds back through
        zigzag-check.  The set is the same in every run of a seed; replaying
        every deep-trace witness would double the run's wall time."""
        for req_id, n, payload, want_rc, outcome in self.replays:
            path = os.path.join(workdir, f"witness-{n}.json")
            replay = {"id": f"{req_id}.replay", "files": {path: payload},
                      "argv": ["zigzag-check", "--instance", path],
                      "expect": {}}
            write_files([replay])
            rc, stdout, error, _ = send(self.cli, replay["argv"])
            remove_files([replay])
            self.attempted += 1
            try:
                got = json.loads(stdout)
            except ValueError:
                got = None
            if isinstance(got, dict):
                got = got.get("outcome")
            if error or rc != want_rc or got != outcome:
                self.failures.append({
                    "id": replay["id"], "known_defect": "",
                    "reason": error or f"exit {rc}, outcome {got!r}, "
                                       f"expected {outcome!r}"})
        self.replays.clear()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="busy time to measure, in whole rounds")
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds instead")
    parser.add_argument("--digest-rounds", type=int, default=1,
                        help="rounds covered by the output digest")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", default=".bench_work/client")
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)

    warm = workloads.make_round(args.workload, args.seed, -1, args.workdir)
    write_files(warm)
    setup_probes = [probe()]
    t0 = time.perf_counter()
    from mixtrace import cli
    client = Client(cli)
    for req in warm:
        client.request(req)
    setup_s = time.perf_counter() - t0
    setup_probes.append(probe())
    remove_files(warm)
    result = {"setup_s": setup_s, "setup_probes": setup_probes}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    digest = hashlib.sha256()
    digest_requests = 0
    latencies = []
    round_starts = []
    probes = []  # (index of the next request, probe seconds)
    busy = 0.0
    r = 0
    while True:
        in_digest = r < args.digest_rounds
        reqs = workloads.make_round(args.workload, args.seed, r, args.workdir)
        write_files(reqs)
        round_starts.append(len(latencies))
        for req in reqs:
            if not probes or busy - probed_at >= PROBE_EVERY_S:
                probes.append((len(latencies), probe()))
                probed_at = busy
            if tracer is not None:
                tracer.request = client.attempted
            elapsed = client.request(req, digest if in_digest else None)
            latencies.append(elapsed)
            busy += elapsed
            digest_requests += in_digest
        remove_files(reqs)
        r += 1
        if args.rounds:
            if r >= args.rounds:
                break
        elif r >= args.digest_rounds and busy >= args.seconds and \
                len(latencies) >= MIN_REQUESTS:
            break
    probes.append((len(latencies), probe()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics()
        tracer.write(os.path.join(args.workdir, "spans.bin"))
    client.replay_witnesses(args.workdir)
    result.update({
        "busy_s": busy, "round_starts": round_starts, "probes": probes,
        "latencies": latencies, "attempted": client.attempted,
        "failures": client.failures, "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(), "digest_requests": digest_requests,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
