"""Benchmark entry point; run it from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, requests, qudit_audit (see BENCHMARK.json for why each
was chosen). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Self-tests:
`python3 -m pytest perfbench`.
"""

import sys

import env

env.pin_threads()  # before anything imports numpy

if not (env.ROOT / "src" / "qldp").is_dir():
    sys.exit(f"perfbench: {env.ROOT} has no src/qldp to measure")

import harness  # noqa: E402

sys.exit(harness.main(sys.argv[1:]))
