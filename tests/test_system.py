"""build_system: one way to build a system under test."""

import ast
from pathlib import Path

import pytest

from repro.faults import HealthPolicy, RetryPolicy
from repro.live import LiveMigrator
from repro.sim import Environment
from repro.system import SystemConfig, build_system

EXPERIMENTS = Path(__file__).resolve().parents[1] / "src" / "repro" / \
    "experiments"

CONFIGS = {
    "default": SystemConfig(),
    "live": SystemConfig(migration="live"),
    "replicated": SystemConfig(durability="replicated",
                               health=HealthPolicy()),
    "fleet": SystemConfig(
        boards=4, retry=RetryPolicy(),
        health=HealthPolicy(heartbeat_interval=0.5, lease_timeout=2.0,
                            coalesce=True),
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_wiring(name):
    config = CONFIGS[name]
    system = build_system(Environment(), config)
    registry, controller = system.registry, system.controller

    assert registry.migrator == controller.migrate
    assert controller.router is system.router
    assert len(system.router.managers()) == len(system.testbed.managers)
    assert (system.live_migrator is not None) == (config.migration == "live")
    assert registry.live_migrator is system.live_migrator
    if system.live_migrator is not None:
        assert isinstance(system.live_migrator, LiveMigrator)
    assert (system.standby is not None) == (config.durability == "replicated")
    assert (registry.store is not None) == (config.durability != "volatile")
    assert (registry.health is not None) == (config.health is not None)
    if name == "fleet":
        # Fleet mode: the heartbeats and the scraper share one wheel.
        assert registry.health.wheel is not None
        assert registry.health.wheel is system.testbed.scraper._wheel
        assert len(system.testbed.managers) == 4
    elif registry.health is not None:
        assert registry.health.wheel is None


def test_native_system_has_no_control_plane():
    system = build_system(Environment(), SystemConfig(runtime="native"))
    assert system.registry is None and system.router is None
    assert system.controller.router is None
    assert system.hung_events == 0


def test_unknown_runtime_rejected():
    with pytest.raises(ValueError, match="runtime"):
        build_system(Environment(), SystemConfig(runtime="gpu"))


def test_experiments_build_systems_only_through_build_system():
    """No experiment hand-wires the Registry, the router or the
    controller: each one builds its system with :func:`build_system`."""
    wired = {"AcceleratorsRegistry", "PlatformRouter", "FunctionController"}
    offenders = []
    for path in sorted(EXPERIMENTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in wired:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
