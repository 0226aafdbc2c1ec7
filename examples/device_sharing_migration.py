#!/usr/bin/env python
"""Device allocation, reconfiguration and live migration walkthrough.

Shows the Accelerators Registry's control plane in action:

1. three Sobel functions fill the three boards (Algorithm 1 spreads them
   by connected-function count and programs each blank board once);
2. an MM function arrives — no board runs the ``mm`` bitstream, so the
   Registry picks a victim board, *migrates* its Sobel tenant to another
   board (create-before-delete, as Kubernetes does), and approves the
   reconfiguration;
3. all four functions then serve traffic concurrently.

Run:  python examples/device_sharing_migration.py
"""

from repro.cluster import DeviceQuery
from repro.serverless import FunctionSpec, MMApp, SobelApp
from repro.sim import Environment
from repro.system import build_system


def main():
    env = Environment()
    system = build_system(env)
    testbed, registry = system.testbed, system.registry
    gateway, controller = system.gateway, system.controller

    log = []
    testbed.cluster.watch(lambda event: log.append(
        f"t={env.now:7.3f}s  {event.type.value:<8} pod {event.pod.name} "
        f"(node {event.pod.node.name if event.pod.node else '?'})"
    ))

    def show_devices(moment):
        print(f"\n--- devices at {moment} ---")
        for record in registry.devices.all():
            instances = sorted(inst.name for inst in
                               registry.functions.instances_on_device(
                                   record.name))
            print(f"  {record.name} (node {record.node}): "
                  f"bitstream={record.configured_bitstream!r}, "
                  f"instances={instances}")

    def flow():
        for index in range(1, 4):
            yield from gateway.deploy(FunctionSpec(
                name=f"sobel-{index}",
                app_factory=lambda: SobelApp(width=640, height=480),
                device_query=DeviceQuery(accelerator="sobel"),
            ))
            yield from controller.wait_ready(f"sobel-{index}")
        show_devices("after 3 Sobel deployments")

        print("\nDeploying mm-1: every board is busy with sobel, so the "
              "Registry\nmust free one (migrate its tenant) and "
              "reconfigure it...")
        yield from gateway.deploy(FunctionSpec(
            name="mm-1",
            app_factory=lambda: MMApp(n=256),
            device_query=DeviceQuery(accelerator="mm"),
        ))
        yield from controller.wait_ready("mm-1")
        yield env.timeout(15.0)  # let migration + reprogramming settle
        show_devices("after mm-1 deployment and migration")

        print("\nInvoking every function once:")
        for name in ("sobel-1", "sobel-2", "sobel-3", "mm-1"):
            latency, _ = yield from gateway.invoke(name)
            print(f"  {name}: {latency * 1e3:7.2f} ms")

    env.run(until=env.process(flow()))

    print(f"\nRegistry decisions: {registry.allocations} allocations, "
          f"{registry.migrations} migration(s)")
    print("\nPod lifecycle (watch events):")
    for line in log:
        print(f"  {line}")


if __name__ == "__main__":
    main()
