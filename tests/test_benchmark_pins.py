"""The names the benchmark's tracer wraps stay alive in the package.

`perfbench/tracer.py` patches every `module.function` in its TRACED tuple,
and its self-tests pin the solver import in `ldp`. A refactor that drops
one of these names breaks traced benchmark runs, which only
`python3 -m pytest perfbench` would notice; this test reads the tuple from
the tracer's source, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names():
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACER}")


def test_every_traced_name_resolves():
    names = _traced_names()
    assert names
    for qual in names:
        module, function = qual.split(".")
        assert callable(
            getattr(importlib.import_module(f"qldp.{module}"), function)), qual


def test_ldp_keeps_the_solver_import_the_tracer_pins():
    from qldp import ldp, sphere
    assert ldp.maximize_convex_on_sphere is sphere.maximize_convex_on_sphere
