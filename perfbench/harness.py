"""Benchmark driver: one process, one caller in a closed loop (each op waits
for the previous one, as a library or CLI caller does), no threads.

Untraced runs (`--trace 0`) report the end-to-end metrics; a traced run
(`--trace 1`) runs each op of the first deck plain and under the outside-in
tracer, and reports the per-layer metrics. The last stdout line is the
result object; earlier lines record the environment and a per-kind summary.
Metric definitions and the baseline are in BASELINE.md.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import env
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = env.ROOT / ".perfbench"
WORKDIR = OUT_DIR / "work"
SETUP_SAMPLES = 5


@dataclass
class Record:
    kind: str
    latency: float
    ok: bool
    quality: object
    digest: object


def run_ops(workload, ops, failures):
    """Run ops one after another. Only the call into qldp is timed; the
    output check is not."""
    records = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = workload.execute(op)
        except Exception as exc:  # the op failed; keep measuring the rest
            latency = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        else:
            latency = time.perf_counter() - t0
            error = None
        if error is None:
            try:
                ok, quality, digest = workload.check(op, result)
            except Exception as exc:  # a malformed result fails its check
                ok, quality, digest = False, None, None
                error = f"check raised {type(exc).__name__}: {exc}"
        else:
            ok, quality, digest = False, None, error
        if not ok:
            failures.append(f"{op.kind} {op.params}: {error or 'check failed'}")
        records.append(Record(op.kind, latency, ok, quality, digest))
    return records


def measure(workload, seed, seconds, failures):
    """The first deck whole (it sets `quality`), then the ops of the next
    decks one by one until `seconds` have passed, so a run ends within one
    op of its time; only its last deck may be cut short. Returns the records
    of each deck."""
    start = time.perf_counter()
    decks = [run_ops(workload, workload.deck(seed, 0), failures)]
    while time.perf_counter() - start < seconds:
        records = []
        for op in workload.deck(seed, len(decks)):
            if time.perf_counter() - start >= seconds:
                break
            records += run_ops(workload, [op], failures)
        decks.append(records)
    return decks


def measure_setup(name):
    """Median set-up time over fresh processes: import numpy and qldp, then
    one warm-up call per op kind (input generation excluded)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(WORKDIR)],
            capture_output=True, text=True, timeout=170, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def quality(workload, records):
    values = [r.quality for r in records if r.quality is not None]
    return workload.quality(values)


def mix_rate(decks):
    """Ops per second at the mix of a whole deck: each kind's mean latency
    over the run, weighted by its count in the first (whole) deck. Where the
    run's time ran out in its last deck moves the mix of the ops it ran,
    but not this rate."""
    latencies = {}
    for r in (r for deck in decks for r in deck):
        latencies.setdefault(r.kind, []).append(r.latency)
    mix = Counter(r.kind for r in decks[0])
    return sum(mix.values()) / sum(
        n * statistics.fmean(latencies[kind]) for kind, n in mix.items())


def end_to_end(workload, decks, setup_s):
    """Every timing pools all ops of the run: the host's speed drifts over
    tens of seconds, so a statistic over the whole run varies least from run
    to run."""
    lat = np.array([r.latency for deck in decks for r in deck])
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (mix_rate(decks), "1/s"),
        "op_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "op_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms"),
        "quality": (quality(workload, decks[0]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced_run(workload, deck, failures):
    """Each op of `deck` twice, plain and traced, in alternating order so
    that drift cancels from the overhead; the traced op must give the result
    its plain twin gave. Returns (plain records, traced records, tracer)."""
    tr = tracing.Tracer()
    plain, traced = [], []
    try:
        for i, op in enumerate(deck):
            for sink in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                if sink is traced:
                    tr.install()
                    tr.op_id = i
                sink += run_ops(workload, [op], failures)
                tr.uninstall()
            if repr(plain[-1].digest) != repr(traced[-1].digest):
                traced[-1].ok = False
                failures.append(f"{op.kind} {op.params}: traced result differs")
    finally:
        tr.uninstall()
    return plain, traced, tr


def overhead_frac(plain, traced):
    """Traced over untraced time of the same ops, minus one."""
    return sum(r.latency for r in traced) / sum(r.latency for r in plain) - 1.0


def kind_summary(records):
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r)
    return {kind: {"ops": len(rs),
                   "failed": sum(not r.ok for r in rs),
                   "p50_ms": statistics.median(r.latency for r in rs) * 1e3}
            for kind, rs in sorted(by_kind.items())}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    environment = env.describe()
    print(json.dumps({"env": environment}), flush=True)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    failures = []
    try:
        setup_s = None if args.trace else measure_setup(args.workload)
        workload = workloads.WORKLOADS[args.workload]()
        workload.prepare(WORKDIR, args.seed)
        workload.warm_up(WORKDIR)
        if args.trace:
            plain, traced, tr = traced_run(
                workload, workload.deck(args.seed, 0), failures)
            records = plain + traced
            metrics = tr.metrics(overhead_frac(plain, traced))
            tr.dump(OUT_DIR / f"trace-{workload.name}.jsonl",
                    {"workload": workload.name, "seed": args.seed,
                     "env": environment})
        else:
            decks = measure(workload, args.seed, args.seconds, failures)
            records = [r for deck in decks for r in deck]
            metrics = end_to_end(workload, decks, setup_s)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    failed = sum(not r.ok for r in records)
    print(json.dumps({"kinds": kind_summary(records)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
