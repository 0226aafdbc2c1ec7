"""The names the frozen benchmark (``perfbench/``) needs from the program.

perfbench changes only with the benchmark itself, so a deletion under
``src/`` that removes a name it imports, wraps, passes or reads must fail
here, in tier-1, and not only when the benchmark runs.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from repro.faults import GatewayPolicy
from repro.serverless import SobelApp
from repro.sim import Environment
from repro.system import build_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


BENCH_MODULES = ("layertrace", "probe", "workloads", "measure")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's modules, imported as its scripts import them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in BENCH_MODULES}
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def test_every_traced_entry_point_resolves(perfbench):
    for layer, module_name, attribute in perfbench["layertrace"].ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            owner_name, name = attribute.split(".")
            original = inspect.getattr_static(getattr(module, owner_name),
                                              name)
        else:
            original = getattr(module, attribute)
        # The tracer wraps plain functions only.
        assert inspect.isfunction(original), (layer, module_name, attribute)


def test_attributes_the_tracer_and_the_summary_read():
    env = Environment()
    assert env._now == env.now
    system = build_system(env)
    system.deploy([system.function_spec("sobel-0", SobelApp, "sobel")])
    (connection,) = system.router.connections
    assert connection.retries == 0
    function = system.gateway.function("sobel-0")
    assert (function.retries, function.deploy_retries) == (0, 0)


def _gateway_policy_calls():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "GatewayPolicy"]


def test_gateway_policy_takes_the_benchmarks_arguments():
    calls = _gateway_policy_calls()
    assert calls
    for call in calls:
        kwargs = {
            keyword.arg: eval(compile(ast.Expression(keyword.value),
                                      "workloads.py", "eval"))
            for keyword in call.keywords
        }
        policy = GatewayPolicy(**kwargs)
        for name, value in kwargs.items():
            assert getattr(policy, name) == value
