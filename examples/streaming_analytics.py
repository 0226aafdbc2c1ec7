#!/usr/bin/env python
"""Bring-your-own-accelerator: a streaming analytics pipeline.

Demonstrates extending BlastFunction beyond the paper's three benchmarks:
two additional Spector accelerators (a FIR low-pass filter and a
histogram) are packaged into the bitstream library, deployed as serverless
functions, and shared across the testbed's boards. The functions run
*functionally* — results are validated against NumPy golden models — and
then serve a short mixed load.

This is the full recipe for adding an accelerator:
  1. subclass `AcceleratorKernel` (see `repro.kernels.fir`),
  2. package it in a `Bitstream` (see `extended_library`),
  3. write the host `FunctionApp` below,
  4. deploy with a `DeviceQuery` naming the new bitstream.

Run:  python examples/streaming_analytics.py
"""

import numpy as np

from repro.cluster import DeviceQuery
from repro.kernels import fir_reference, histogram_reference
from repro.loadgen import run_load
from repro.ocl import Context
from repro.serverless import FunctionApp, FunctionSpec
from repro.sim import AllOf, Environment
from repro.system import SystemConfig, build_system

N_SAMPLES = 1 << 16
TAPS = 32
BINS = 64
SEED = 2024


class FIRApp(FunctionApp):
    """Low-pass filter a fixed telemetry window per request."""

    host_overhead = 1.0e-3

    def setup(self, env, platform, node):
        rng = np.random.default_rng(SEED)
        self.signal = rng.standard_normal(N_SAMPLES).astype(np.float32)
        self.coeffs = (np.hamming(TAPS) / np.hamming(TAPS).sum()).astype(
            np.float32
        )
        self.context = Context(platform.get_devices())
        self.queue = self.context.create_queue()
        program = self.context.create_program("fir")
        yield from program.build()
        self.kernel = program.create_kernel("fir")
        self.sig_buf = self.context.create_buffer(self.signal.nbytes)
        self.coef_buf = self.context.create_buffer(self.coeffs.nbytes)
        self.out_buf = self.context.create_buffer(self.signal.nbytes)
        self.kernel.set_args(self.sig_buf, self.coef_buf, self.out_buf,
                             N_SAMPLES, TAPS)
        yield from self.queue.write_buffer(self.coef_buf, self.coeffs)

    def handle(self, request):
        self.queue.enqueue_write_buffer(self.sig_buf, self.signal)
        self.queue.enqueue_kernel(self.kernel)
        data = yield from self.queue.read_buffer(self.out_buf)
        out = np.frombuffer(data, dtype=np.float32)
        return {"rms": float(np.sqrt(np.mean(out ** 2))), "data": out}


class HistogramApp(FunctionApp):
    """Histogram a fixed event batch per request."""

    host_overhead = 1.0e-3

    def setup(self, env, platform, node):
        rng = np.random.default_rng(SEED + 1)
        self.values = rng.integers(
            0, 2**32, size=N_SAMPLES, dtype=np.uint32
        )
        self.context = Context(platform.get_devices())
        self.queue = self.context.create_queue()
        program = self.context.create_program("histogram")
        yield from program.build()
        self.kernel = program.create_kernel("hist")
        self.val_buf = self.context.create_buffer(self.values.nbytes)
        self.count_buf = self.context.create_buffer(BINS * 4)
        self.kernel.set_args(self.val_buf, self.count_buf, N_SAMPLES, BINS)

    def handle(self, request):
        self.queue.enqueue_write_buffer(self.val_buf, self.values)
        self.queue.enqueue_kernel(self.kernel)
        data = yield from self.queue.read_buffer(self.count_buf)
        counts = np.frombuffer(data, dtype=np.uint32)
        return {"counts": counts, "total": int(counts.sum())}


def main():
    env = Environment()
    # Every system carries the extended library, FIR and histogram
    # included.
    system = build_system(env, SystemConfig(functional=True))
    gateway, controller = system.gateway, system.controller
    registry = system.registry

    def scenario():
        yield from gateway.deploy(FunctionSpec(
            name="lowpass", app_factory=FIRApp,
            device_query=DeviceQuery(accelerator="fir"),
        ))
        yield from gateway.deploy(FunctionSpec(
            name="eventhist", app_factory=HistogramApp,
            device_query=DeviceQuery(accelerator="histogram"),
        ))
        yield from controller.wait_ready("lowpass")
        yield from controller.wait_ready("eventhist")

        fir_latency, fir_result = yield from gateway.invoke("lowpass")
        hist_latency, hist_result = yield from gateway.invoke("eventhist")

        # Validate against the golden models.
        rng = np.random.default_rng(SEED)
        signal = rng.standard_normal(N_SAMPLES).astype(np.float32)
        coeffs = (np.hamming(TAPS) / np.hamming(TAPS).sum()).astype(
            np.float32
        )
        np.testing.assert_allclose(
            fir_result["data"], fir_reference(signal, coeffs), rtol=1e-4
        )
        rng2 = np.random.default_rng(SEED + 1)
        values = rng2.integers(0, 2**32, size=N_SAMPLES, dtype=np.uint32)
        np.testing.assert_array_equal(
            fir_result["data"].shape, (N_SAMPLES,)
        )
        np.testing.assert_array_equal(
            hist_result["counts"], histogram_reference(values, BINS)
        )
        assert hist_result["total"] == N_SAMPLES

        print(f"lowpass:   latency {fir_latency * 1e3:6.2f} ms, "
              f"rms {fir_result['rms']:.4f}  (matches golden model)")
        print(f"eventhist: latency {hist_latency * 1e3:6.2f} ms, "
              f"{hist_result['total']} events binned  (matches golden)")

        print("\nshort mixed load (5 s)...")
        loads = [
            env.process(run_load(env, gateway, "lowpass", rate=50.0,
                                 duration=5.0)),
            env.process(run_load(env, gateway, "eventhist", rate=80.0,
                                 duration=5.0)),
        ]
        results = yield AllOf(env, loads)
        for load in loads:
            stats = results[load]
            print(f"  {stats.function}: {stats.achieved_rate:.1f} rq/s "
                  f"(target {stats.target_rate:.0f}), "
                  f"mean {stats.mean_latency * 1e3:.2f} ms")

        placements = {}
        for record in registry.devices.all():
            instances = registry.functions.instances_on_device(record.name)
            if instances:
                placements[record.name] = sorted(inst.name
                                                 for inst in instances)
        print(f"\nplacements: {placements}")

    env.run(until=env.process(scenario()))


if __name__ == "__main__":
    main()
