#!/usr/bin/env python
"""Where does a BlastFunction request's time go?

Attaches the tracer to the full stack, drives a Sobel and an MM function
under load, then prints each function's latency decomposed into central
queue wait, FPGA device time and everything-else overhead (gateway, host
code, control round trips, data-plane copies) — and writes a Chrome/
Perfetto trace of the boards and Device Managers.

Run:  python examples/trace_latency_breakdown.py
Open: chrome://tracing  (load /tmp/blastfunction_trace.json)
"""

from repro.analysis import render_breakdown, request_breakdown
from repro.cluster import DeviceQuery
from repro.loadgen import run_load
from repro.serverless import FunctionSpec, MMApp, SobelApp
from repro.sim import AllOf, Environment
from repro.system import build_system
from repro.trace import Tracer, attach_gateway, attach_testbed, write_chrome_trace

TRACE_PATH = "/tmp/blastfunction_trace.json"


def main():
    env = Environment()
    system = build_system(env)
    testbed, gateway = system.testbed, system.gateway
    controller = system.controller

    tracer = Tracer(env)
    attach_testbed(tracer, testbed)
    attach_gateway(tracer, gateway)

    def flow():
        yield from gateway.deploy(FunctionSpec(
            name="sobel-1", app_factory=lambda: SobelApp(),
            device_query=DeviceQuery(accelerator="sobel"),
        ))
        yield from gateway.deploy(FunctionSpec(
            name="mm-1", app_factory=lambda: MMApp(),
            device_query=DeviceQuery(accelerator="mm"),
        ))
        yield from controller.wait_ready("sobel-1")
        yield from controller.wait_ready("mm-1")
        loads = [
            env.process(run_load(env, gateway, "sobel-1", rate=30.0,
                                 duration=10.0)),
            env.process(run_load(env, gateway, "mm-1", rate=40.0,
                                 duration=10.0)),
        ]
        yield AllOf(env, loads)

    env.run(until=env.process(flow()))

    print(render_breakdown(request_breakdown(tracer)))
    print()
    for node in ("A", "B", "C"):
        board = f"fpga-{node}"
        if board in tracer.actors():
            busy = tracer.busy_fraction(board, 0.0, env.now)
            print(f"{board}: {busy * 100:5.1f}% busy over the whole run")

    write_chrome_trace(tracer, TRACE_PATH)
    print(f"\nChrome trace written to {TRACE_PATH} "
          f"({len(tracer.spans)} spans)")


if __name__ == "__main__":
    main()
