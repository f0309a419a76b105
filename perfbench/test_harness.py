"""Self-tests for the benchmark harness: `python3 -m pytest perfbench`.

Short runs only: each test takes a handful of ops from a workload's first
deck, so the whole file runs in well under a minute.
"""

import json
import math
import re

import pytest

import env
import harness
import tracer
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT = ("optimizer.evaluations", "optimizer.restore_certify_calls",
         "sphere.fw_iterations", "sphere.seed_rows", "bloch.accept_ratio",
         "ldp.audit_pairs")


def short_deck(workload, seed, tmp_path):
    """A few ops of every kind the first deck holds, cheapest first."""
    workload.prepare(tmp_path, seed)
    deck = workload.deck(seed, 0)
    per_kind = {"sweep": 2, "requests": 2, "qudit_audit": 1}[workload.name]
    picked, seen = [], {}
    for op in deck:
        if seen.get(op.kind, 0) < per_kind:
            seen[op.kind] = seen.get(op.kind, 0) + 1
            picked.append(op)
    if workload.name == "sweep":  # radial searches take ~1 s each
        picked = [op for op in picked if op.kind != "radial"] + \
            [op for op in picked if op.kind == "radial"][:1]
    return picked


def traced_short_run(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]()
    deck = short_deck(workload, seed, tmp_path)
    failures = []
    plain, traced, tr = harness.traced_run(workload, deck, failures)
    return workload, plain, traced, tr, failures


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_result(name, tmp_path):
    _, plain, traced, tr, failures = traced_short_run(name, 3, tmp_path)
    assert failures == []
    assert [repr(r.digest) for r in plain] == [repr(r.digest) for r in traced]
    assert all(r.ok for r in plain + traced)
    # the package is restored after the run
    from qldp import ldp, sphere
    assert ldp.maximize_convex_on_sphere is sphere.maximize_convex_on_sphere
    assert not hasattr(ldp.certify, "__wrapped__")
    assert sum(tr.calls) > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs_and_counters(name, tmp_path):
    def inputs(seed):
        w = workloads.WORKLOADS[name]()
        w.prepare(tmp_path, seed)
        return [w.deck(seed, k) for k in range(2)]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)
    assert inputs(5)[0] != inputs(5)[1]

    runs = [traced_short_run(name, 5, tmp_path) for _ in range(2)]
    counters = []
    for workload, plain, _, tr, _ in runs:
        metrics = tr.metrics(0.0)
        exact = {k: metrics[k] for k in EXACT}
        exact.update({k: v for k, v in metrics.items() if k.endswith(".calls")})
        exact["quality"] = harness.quality(workload, plain)
        counters.append(exact)
    assert counters[0] == counters[1]


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    assert sorted(spec_w["name"] for spec_w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)

    workload, plain, traced, tr, _ = traced_short_run("qudit_audit", 1,
                                                      tmp_path)
    e2e = harness.end_to_end(workload, [plain, traced], setup_s=1.0)
    layer = tr.metrics(harness.overhead_frac(plain, traced))
    assert list(e2e) == declared_e2e
    assert list(layer) == declared_layer == tracer.layer_metric_names()
    for name in declared_e2e + declared_layer:
        assert NAME.fullmatch(name), name
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (value, unit) in {**e2e, **layer}.items():
        assert units[name] == unit, name
        assert math.isfinite(value), name


def test_strict_json_rejects_non_finite_tokens():
    assert workloads.strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '{"a": Infinity}', '[-Infinity]'):
        with pytest.raises(ValueError):
            workloads.strict_json(text)


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer()
    tr.install()
    try:
        from qldp import channels, ldp
        ldp.certify(channels.depolarizing(2, 0.5), 0.4)
    finally:
        tr.uninstall()
    m = tr.metrics(0.0)
    certify_busy = m["ldp.certify.busy_s"][0]
    sup_busy = m["ldp.ldp_sup.busy_s"][0]
    assert m["ldp.certify.calls"][0] == 1 and m["ldp.ldp_sup.calls"][0] == 1
    assert m["ldp.certify.self_s"][0] == pytest.approx(certify_busy - sup_busy)
