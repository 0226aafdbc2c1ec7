"""Ablation: cost of reconfiguration and instance migration.

Measures time-to-first-request for a new MM function in two cluster states:
(a) a blank board is available (program it, ~2.5 s), and (b) every board is
occupied by Sobel tenants, so the Registry must migrate one tenant
(create-before-delete) *and* reprogram — the full Section III-C flow.
"""

import pytest

from repro.cluster import DeviceQuery
from repro.serverless import FunctionSpec, MMApp, SobelApp
from repro.sim import Environment
from repro.system import build_system


def _time_to_first_mm(occupy_all_boards: bool):
    env = Environment()
    system = build_system(env)
    registry, gateway = system.registry, system.gateway
    controller = system.controller

    def flow():
        sobel_count = 3 if occupy_all_boards else 0
        for index in range(1, sobel_count + 1):
            yield from gateway.deploy(FunctionSpec(
                name=f"sobel-{index}",
                app_factory=lambda: SobelApp(width=64, height=64),
                device_query=DeviceQuery(accelerator="sobel"),
            ))
            yield from controller.wait_ready(f"sobel-{index}")
        start = env.now
        yield from gateway.deploy(FunctionSpec(
            name="mm-1",
            app_factory=lambda: MMApp(n=64),
            device_query=DeviceQuery(accelerator="mm"),
        ))
        yield from controller.wait_ready("mm-1")
        yield from gateway.invoke("mm-1")
        return env.now - start, registry.migrations

    return env.run(until=env.process(flow()))


def _run():
    blank_time, blank_migrations = _time_to_first_mm(False)
    busy_time, busy_migrations = _time_to_first_mm(True)
    return blank_time, blank_migrations, busy_time, busy_migrations


def test_ablation_reconfiguration_cost(benchmark):
    blank_time, blank_migrations, busy_time, busy_migrations = (
        benchmark.pedantic(_run, rounds=1, iterations=1)
    )

    reconfig = 2.5  # DE5a-Net full reconfiguration, seconds

    # Blank board: pod start + programming dominates; no migration.
    assert blank_migrations == 0
    assert reconfig < blank_time < reconfig + 2.0

    # Occupied boards: exactly one tenant is migrated, and the end-to-end
    # time additionally covers the replacement pod's startup.
    assert busy_migrations == 1
    assert busy_time > blank_time

    benchmark.extra_info["blank_board_s"] = round(blank_time, 2)
    benchmark.extra_info["with_migration_s"] = round(busy_time, 2)
