#!/usr/bin/env python
"""Elastic FPGA capacity: F1-style node autoscaling (paper future work).

"Future work will address the integration with AWS F1 for nodes
autoscaling."  This example runs that scenario: the three-board testbed is
driven hard enough that fleet utilization crosses the scale-out threshold,
the autoscaler provisions an F1 node (boot delay and all), the Accelerators
Registry starts allocating onto it, and two late-arriving functions land on
the fresh capacity.

Run:  python examples/elastic_f1_autoscaling.py
"""

from repro.cluster import AutoscalerPolicy, DeviceQuery, NodeAutoscaler
from repro.loadgen import run_load
from repro.serverless import FunctionSpec, SobelApp
from repro.sim import AllOf, Environment
from repro.system import build_system


def main():
    env = Environment()
    system = build_system(env)
    testbed, registry = system.testbed, system.registry
    gateway, controller = system.gateway, system.controller
    autoscaler = NodeAutoscaler(
        env, testbed, registry, system.router,
        policy=AutoscalerPolicy(
            scale_out_threshold=0.45, interval=2.0, cooldown=15.0,
            boot_delay=20.0, max_nodes=5,
        ),
    )

    def deploy(name):
        yield from gateway.deploy(FunctionSpec(
            name=name,
            app_factory=lambda: SobelApp(),
            device_query=DeviceQuery(accelerator="sobel"),
        ))
        yield from controller.wait_ready(name)

    def show_fleet(moment):
        print(f"\n--- fleet at {moment} (t={env.now:.1f}s) ---")
        for record in registry.devices.all():
            instances = sorted(inst.name for inst in
                               registry.functions.instances_on_device(
                                   record.name))
            print(f"  {record.name} (node {record.node}): "
                  f"instances={instances}")

    def scenario():
        for index in range(1, 4):
            yield from deploy(f"sobel-{index}")
        show_fleet("initial deployment (3 functions, 3 boards)")

        print("\nDriving all three functions at 45 rq/s each...")
        loads = [
            env.process(run_load(env, gateway, f"sobel-{index}",
                                 rate=45.0, duration=60.0))
            for index in range(1, 4)
        ]
        # While the fleet is saturated, two more tenants arrive.
        yield env.timeout(40.0)
        print(f"t={env.now:.1f}s: autoscaler performed "
              f"{autoscaler.scale_outs} scale-out(s); "
              f"added nodes: {autoscaler.added_nodes}")
        for index in range(4, 6):
            yield from deploy(f"sobel-{index}")
        show_fleet("after late arrivals")

        late_loads = [
            env.process(run_load(env, gateway, f"sobel-{index}",
                                 rate=30.0, duration=15.0))
            for index in range(4, 6)
        ]
        results = yield AllOf(env, loads + late_loads)
        stats = [results[p] for p in loads + late_loads]
        print("\nper-function results:")
        for s in stats:
            print(f"  {s.function}: {s.achieved_rate:6.2f} rq/s processed "
                  f"(target {s.target_rate:.0f}), "
                  f"mean latency {s.mean_latency * 1e3:6.2f} ms")

    env.run(until=env.process(scenario()))
    new_nodes = [n for n in testbed.cluster.nodes if n.startswith("F1-")]
    print(f"\nautoscaled nodes online: {new_nodes}")
    assert autoscaler.scale_outs >= 1, "expected at least one scale-out"
    late_devices = {
        registry.functions.instance(pod).device
        for name in ("sobel-4", "sobel-5")
        for pod in [p.name for p in
                    testbed.cluster.pods_of_function(name)]
    }
    print(f"late arrivals were allocated to: {sorted(late_devices)}")


if __name__ == "__main__":
    main()
