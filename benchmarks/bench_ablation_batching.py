"""Ablation: multi-operation task batching in the Device Manager.

The paper motivates tasks with *consistency*: a client's command-queue
sequence "should execute atomically on the FPGA".  This ablation makes that
property measurable.  Two Sobel tenants share one board; with batching each
request's write→kernel→read triple runs contiguously on the device, while
the op-at-a-time baseline lets the other tenant's operations interleave
inside a request.

A secondary (and honest) finding: under work-conserving FIFO scheduling the
*mean* latency barely moves — what batching buys is atomicity and
device-order isolation, not raw speed.
"""

import pytest

import repro.system
from repro.experiments import run_scenario
from repro.system import SystemConfig


def _interleavings(runs):
    """Count client switches that occur inside another client's request.

    ``runs`` is the device-order list of (client, op_type) executions; a
    request is the write..read span of one client.  With batching, spans
    are contiguous: exactly 2 boundary switches per request.
    """
    switches = 0
    open_spans = {}
    previous = None
    for client, op_type in runs:
        if previous is not None and client != previous and open_spans:
            # A switch while some client's span is open.
            if any(other != client for other in open_spans):
                switches += 1
        if op_type == "write":
            open_spans[client] = True
        elif op_type == "read":
            open_spans.pop(client, None)
        previous = client
    return switches


def _run():
    outcomes = {}
    for batching in (True, False):
        device_order = []

        # Capture per-device op order through the manager hook.
        real_build = repro.system.build_testbed

        def instrumented_build(env, **kwargs):
            testbed = real_build(env, **kwargs)
            for manager in testbed.managers.values():
                manager.op_listeners.append(
                    lambda op, name=manager.name: device_order.append(
                        (name, op.client, op.type.value)
                    )
                )
            return testbed

        repro.system.build_testbed = instrumented_build
        try:
            result = run_scenario(
                "sobel", "high", config=SystemConfig(batching=batching))
        finally:
            repro.system.build_testbed = real_build

        per_device = {}
        for device, client, op_type in device_order:
            per_device.setdefault(device, []).append((client, op_type))
        interleavings = sum(
            _interleavings(runs) for runs in per_device.values()
        )
        outcomes[batching] = (result, interleavings)
    return outcomes


def test_ablation_task_batching(benchmark):
    outcomes = benchmark.pedantic(_run, rounds=1, iterations=1)
    batched_result, batched_interleavings = outcomes[True]
    unbatched_result, unbatched_interleavings = outcomes[False]

    # Batching guarantees atomic per-request execution on the device.
    assert batched_interleavings == 0
    # Op-at-a-time lets co-tenants break into requests routinely.
    assert unbatched_interleavings > 10

    # Work-conserving FIFO: mean latency is within a small factor either
    # way (the paper's batching argument is consistency, not speed).
    assert batched_result.mean_latency == pytest.approx(
        unbatched_result.mean_latency, rel=0.25
    )

    benchmark.extra_info["unbatched_interleavings"] = unbatched_interleavings
    benchmark.extra_info["batched_latency_ms"] = round(
        batched_result.mean_latency * 1e3, 2
    )
    benchmark.extra_info["unbatched_latency_ms"] = round(
        unbatched_result.mean_latency * 1e3, 2
    )
