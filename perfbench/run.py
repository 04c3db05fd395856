"""Run one workload of the ttsupport benchmark and print its metrics.

    python3 perfbench/run.py --workload dense-homology --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
perfbench/README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
HASH_SEED = "0"
SETUP_PROBES = 4  # fresh processes that repeat the set-up, besides this one
REFERENCE_EVERY_S = 0.1  # most op time between two runs of the reference work


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args()


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_op(op, deadline_s: float) -> tuple[float, list[str]]:
    """Latency of one op and what is wrong with its result ([] if right)."""
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    start = perf_counter()
    try:
        result = op.call()
        latency = perf_counter() - start
    except Deadline:
        return perf_counter() - start, [f"missed the {deadline_s} s deadline"]
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        return latency, op.check(result)
    except Exception as exc:  # output the check cannot even read is wrong output
        return latency, [f"unreadable result, {type(exc).__name__}: {exc}"]


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0

    def add(self, latency: float, problems: list[str], label) -> None:
        self.latencies.append(latency)
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {label} failed: {'; '.join(problems)}", file=sys.stderr)


def setup_probe_seconds(args) -> list[float]:
    """Set-up time of fresh processes, each importing and warming up anew."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def timed_phase(workload, seconds: float) -> tuple[list[float], Tally]:
    """Whole cycles of ops until seconds have passed (a cut cycle would
    change the mix of sizes from run to run): their latencies, scaled to a
    steady machine speed (speed.py), and their tally."""
    tally = Tally()
    timeline = speed.Timeline(REFERENCE_EVERY_S)
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds or i % workload.cycle or i == 0:
        tally.add(*run_op(workload.op(i), workload.deadline_s), i)
        timeline.add(tally.latencies[-1])
        i += 1
    return timeline.scaled(), tally


def traced_phase(workload, seconds: float, tracer) -> tuple[Tally, Tally]:
    """Rounds over the first trace_ops ops, each round running them untraced
    and traced, until seconds have passed and at least two rounds ran."""
    plain, traced = Tally(), Tally()

    def plain_round():
        for i in range(workload.trace_ops):
            plain.add(*run_op(workload.op(i), workload.deadline_s), i)

    def traced_round():
        tracer.install()
        try:
            for i in range(workload.trace_ops):
                op = workload.op(i)
                before = workload.cli.out_bytes
                tracer.begin_op(len(traced.latencies))
                traced.add(*run_op(op, workload.deadline_s), i)
                tracer.end_op()
                tracer.sums["cli.main.out_bytes"] += workload.cli.out_bytes - before
        finally:
            tracer.uninstall()

    start = perf_counter()
    rounds = 0
    while perf_counter() - start < seconds or rounds < 2:
        # Alternate which side goes first, so warming up favours neither.
        first, second = (plain_round, traced_round) if rounds % 2 == 0 else (traced_round, plain_round)
        first()
        second()
        rounds += 1
    return plain, traced


def main() -> int:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order of str-keyed sets and dicts is part of the
        # program's cost, so every run uses the same hash seed.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    os.environ.pop("TT_SUPPORT_WORKERS", None)

    reference_before = speed.reference_now()
    start = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "ttsupport", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/ttsupport is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Imported here, after the clock starts: importing is part of set-up.
    import ttsupport
    import ttsupport.cli
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    workdir = os.path.join(SCRATCH, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ttsupport, args.seed, workdir)
        _, problems = run_op(workload.op("warmup"), workload.deadline_s)
        if problems:
            print(f"warm-up op failed: {'; '.join(problems)}", file=sys.stderr)
            return 1
        setup = perf_counter() - start
        # Scaled to a steady machine speed, as op latencies are.
        setup *= speed.REFERENCE_S / ((reference_before + speed.reference_now()) / 2)
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        if args.trace:
            tracer = tracing.Tracer(span_ops=workload.trace_ops)
            verify_names = [m.group(1) for m in (re.fullmatch(r"verify\.(.+)\.s", x["name"])
                                                 for x in spec["per_layer"]) if m]
            gc.collect()
            plain, traced = traced_phase(workload, args.seconds, tracer)
            metrics = tracing.layer_metrics(tracer, len(traced.latencies), verify_names)
            metrics["trace_overhead"] = sum(plain.latencies) / sum(traced.latencies)
            attempted = len(plain.latencies) + len(traced.latencies)
            failed = plain.failed + traced.failed
            metrics["fail_ratio"] = failed / attempted
            spans = os.path.join(SCRATCH, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            tracer.write_spans(spans)
            print(f"{args.workload} seed {args.seed}: {len(traced.latencies)} traced ops, "
                  f"{tracer.span_count} spans written to {os.path.relpath(spans, ROOT)}")
            wanted = spec["per_layer"]
        else:
            setups = [setup, *setup_probe_seconds(args)]
            gc.collect()
            lat, tally = timed_phase(workload, args.seconds)
            attempted, failed = len(tally.latencies), tally.failed
            metrics = {
                "ops_per_s": len(lat) / sum(lat),
                "op_p50_ms": statistics.median(lat) * 1000,
                "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000
                if len(lat) > 1 else lat[0] * 1000,
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": statistics.median(setups),
            }
            print(f"{args.workload} seed {args.seed}: {attempted} ops (the latency sample count), "
                  f"fail_ratio {failed}/{attempted}, setup samples "
                  f"{', '.join(f'{s:.3f}' for s in setups)} s, PYTHONHASHSEED={os.environ['PYTHONHASHSEED']}")
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ names)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
