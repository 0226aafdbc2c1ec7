#!/usr/bin/env python
"""Functional AlexNet inference through the full BlastFunction stack.

Runs the PipeCNN accelerator *functionally* (real conv/pool/LRN/FC math in
the board model) behind a Device Manager, invoked through the serverless
gateway — then validates the classification against a pure-NumPy forward
pass of the same network and weights.

This is the paper's heaviest use case: the host enqueues ~30 kernels per
inference across 8 layer boundaries, which is why its relative overhead
under BlastFunction is the largest of the three benchmarks (Table IV).

Run:  python examples/alexnet_inference.py      (~30 s of NumPy compute)
"""

import numpy as np

from repro.cluster import DeviceQuery
from repro.kernels import (
    alexnet_layers,
    conv2d_reference,
    lrn_reference,
    maxpool_reference,
)
from repro.serverless import AlexNetApp, FunctionSpec
from repro.sim import Environment
from repro.system import SystemConfig, build_system

SEED = 7


def numpy_forward(image, weights, biases):
    """Golden forward pass with the same layer configs and weights."""
    x = image
    for layer, w, b in zip(alexnet_layers(), weights, biases):
        conv = layer.conv
        w = w.reshape(conv.out_channels, conv.in_channels // conv.groups,
                      conv.kernel, conv.kernel)
        x = conv2d_reference(x, w, b, stride=conv.stride, pad=conv.pad,
                             groups=conv.groups, relu=conv.relu)
        if layer.pool is not None:
            x = maxpool_reference(x, layer.pool.kernel, layer.pool.stride)
        if layer.lrn is not None:
            lrn = layer.lrn
            x = lrn_reference(x, lrn.local_size, lrn.alpha, lrn.beta, lrn.k)
    return x.reshape(-1)


def main():
    env = Environment()
    # Boards compute for real.
    system = build_system(env, SystemConfig(functional=True))
    gateway, controller = system.gateway, system.controller

    app_holder = {}

    def make_app():
        app = AlexNetApp(functional=True, seed=SEED)
        app_holder["app"] = app
        return app

    def flow():
        yield from gateway.deploy(FunctionSpec(
            name="alexnet",
            app_factory=make_app,
            device_query=DeviceQuery(accelerator="pipecnn_alexnet"),
        ))
        yield from controller.wait_ready("alexnet")
        latency, result = yield from gateway.invoke("alexnet")
        return latency, result

    latency, result = env.run(until=env.process(flow()))
    print(f"inference latency (simulated): {latency * 1e3:.2f} ms")
    print(f"predicted class (accelerator): {result['top1']}")

    # Validate against a pure-NumPy forward pass with identical weights.
    app = app_holder["app"]
    rng = np.random.default_rng(SEED)
    weights, biases = [], []
    for layer in alexnet_layers():
        conv = layer.conv
        weights.append(
            (rng.standard_normal(conv.weight_count) * 0.01).astype(np.float32)
        )
        biases.append(np.zeros(conv.out_channels, dtype=np.float32))
    image = np.asarray(
        np.random.default_rng(SEED).standard_normal((3, 227, 227)),
        dtype=np.float32,
    )
    logits = numpy_forward(image, weights, biases)
    print(f"predicted class (golden):      {int(logits.argmax())}")
    assert int(logits.argmax()) == result["top1"], "classification mismatch"
    print("accelerator output matches the golden model")


if __name__ == "__main__":
    main()
