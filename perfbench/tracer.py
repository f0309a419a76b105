"""Outside-in tracer: wraps public functions of the `qldp` modules from the
benchmark's own files, so the package itself carries no tracing code.

Each wrapped call records a span (name, start, end, parent span, op id) in
compact in-memory arrays. Per-function call counts, busy time (span length)
and self time (span length minus the time covered by its child spans) are
accumulated while the spans close; the spans themselves are written as JSON
lines only when the tracer is dumped at the end of a run.
"""

import importlib
import json
import time
from array import array

# The layers are the qldp modules; these are the functions wrapped in each.
TRACED = (
    "cli.main",
    "optimizer.maximize_qfi",
    "ldp.certify", "ldp.ldp_sup", "ldp.tight_epsilon", "ldp.audit_by_sampling",
    "sphere.maximize_convex_on_sphere",
    "channels.image_radius", "channels.apply", "channels.depolarizing",
    "bloch.random_bloch_vector", "bloch.to_density", "bloch.from_density",
    "divergence.hockey_stick", "divergence.trace_norm",
    "divergence.hockey_stick_qubit",
    "qfi.qfi_family", "qfi.qfi_qudit",
    "bounds.bounds_thm1", "bounds.bounds_cor1", "bounds.bounds_thm2",
    "estimation.simulate", "estimation.sld_measurement",
    "estimation.validate_upper_bound",
)

COUNTERS = (
    "optimizer.evaluations",
    "optimizer.evals_per_s",
    "optimizer.restore_certify_calls",
    "sphere.fw_iterations",
    "sphere.seed_rows",
    "bloch.accept_ratio",
    "ldp.audit_pairs",
    "ldp.audit_pairs_per_s",
)

_SOLVER = TRACED.index("sphere.maximize_convex_on_sphere")
_SEARCH = TRACED.index("optimizer.maximize_qfi")
_AUDIT = TRACED.index("ldp.audit_by_sampling")
_CERTIFY = TRACED.index("ldp.certify")
_SAMPLER = TRACED.index("bloch.random_bloch_vector")
_TO_DENSITY = TRACED.index("bloch.to_density")


def layer_metric_names():
    """Every per-layer metric a traced run reports, in output order."""
    names = []
    for fn in TRACED:
        names += [f"{fn}.calls", f"{fn}.busy_s", f"{fn}.self_s"]
    return names + list(COUNTERS) + ["trace.overhead_frac"]


class Tracer:
    """Spans and counters for one traced run; `install` patches the
    package, `uninstall` restores it, and the pair may repeat."""

    def __init__(self):
        n = len(TRACED)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_time = [0.0] * n
        self.fw_iterations = 0
        self.seed_rows = 0
        self.evaluations = 0
        self.audit_pairs = 0
        self.op_id = -1
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []  # [span index, time covered by child spans]
        self._patches = []

    # -- patching ---------------------------------------------------------

    def install(self):
        """Replace every qldp module attribute bound to a traced function,
        including names other modules imported with `from .x import y`."""
        if not self._patches:
            package = importlib.import_module("qldp")
            modules = [package] + [importlib.import_module(f"qldp.{m}") for m
                                   in sorted({q.split(".")[0] for q in TRACED})]
            for k, qual in enumerate(TRACED):
                mod_name, fn_name = qual.split(".")
                orig = getattr(importlib.import_module(f"qldp.{mod_name}"),
                               fn_name)
                wrapper = self._wrap(k, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig, wrapper))
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    def _wrap(self, k, fn):
        def traced(*args, **kwargs):
            if k == _SOLVER:
                args = self._count_solver(*args)
            idx = len(self._start)
            stack = self._stack
            self._name.append(k)
            self._parent.append(stack[-1][0] if stack else -1)
            self._op.append(self.op_id)
            self._end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            self._start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                self._end[idx] = t1
                self.calls[k] += 1
                self.busy[k] += dur
                self.self_time[k] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if k == _SEARCH:
                self.evaluations += result.evaluations
            elif k == _AUDIT:
                self.audit_pairs += result.n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _count_solver(self, value, gradient, *rest):
        """Wrap the objective callables handed to the sphere solver: one
        gradient call per Frank-Wolfe iteration, and the first value call
        sees the seed rows."""
        first = [True]

        def counted_value(U):
            if first[0]:
                first[0] = False
                self.seed_rows += len(U)
            return value(U)

        def counted_gradient(U):
            self.fw_iterations += 1
            return gradient(U)

        return (counted_value, counted_gradient) + rest

    # -- results ----------------------------------------------------------

    def metrics(self, overhead_frac):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for k, fn in enumerate(TRACED):
            out[f"{fn}.calls"] = (self.calls[k], "count")
            out[f"{fn}.busy_s"] = (self.busy[k], "s")
            out[f"{fn}.self_s"] = (self.self_time[k], "s")
        names, parents = self._name, self._parent
        restore = draws = 0
        samplers = set()
        for i, k in enumerate(names):
            p = parents[i]
            if p < 0:
                continue
            if k == _CERTIFY and names[p] == _SEARCH:
                restore += 1
            elif k == _TO_DENSITY and names[p] == _SAMPLER:
                draws += 1
                samplers.add(p)
        search_self = self.self_time[_SEARCH]
        audit_busy = self.busy[_AUDIT]
        out["optimizer.evaluations"] = (self.evaluations, "count")
        out["optimizer.evals_per_s"] = (
            self.evaluations / search_self if search_self > 0 else 0.0, "1/s")
        out["optimizer.restore_certify_calls"] = (restore, "count")
        out["sphere.fw_iterations"] = (self.fw_iterations, "count")
        out["sphere.seed_rows"] = (self.seed_rows, "count")
        out["bloch.accept_ratio"] = (len(samplers) / draws if draws else 0.0,
                                     "ratio")
        out["ldp.audit_pairs"] = (self.audit_pairs, "count")
        out["ldp.audit_pairs_per_s"] = (
            self.audit_pairs / audit_busy if audit_busy > 0 else 0.0, "1/s")
        out["trace.overhead_frac"] = (overhead_frac, "ratio")
        return out

    def dump(self, path, header):
        """Write a header line, then one JSON line per span; times are
        seconds from the first span's start."""
        t_ref = self._start[0] if len(self._start) else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self._start)):
                fh.write(json.dumps({
                    "name": TRACED[self._name[i]],
                    "start": self._start[i] - t_ref,
                    "end": self._end[i] - t_ref,
                    "parent": self._parent[i],
                    "op": self._op[i],
                }) + "\n")
