#!/usr/bin/env python
"""Remote-acceleration overhead across matrix sizes (mini Fig. 4(c)).

Sweeps the Spector MM kernel from 16×16 to 2048×2048 on the three
deployment flavours — Native, BlastFunction over gRPC, BlastFunction over
shared memory — and prints where each transport's overhead matters: for
small compute-light calls the ~2 ms control signalling dominates; for large
matrices the extra data copies do; for compute-heavy sizes the overhead
vanishes into the kernel time (0.3% at 2048²).  A last run multiplies two
64×64 matrices on real bytes through BlastFunction and checks the product
against numpy's.

Run:  python examples/matrix_multiply_sweep.py
"""

import numpy as np

from repro.core.device_manager import DeviceManager
from repro.core.remote_lib import remote_platform
from repro.experiments import run_mm_sweep
from repro.fpga import FPGABoard, standard_library
from repro.ocl import Context
from repro.rpc import Network
from repro.sim import Environment


def remote_product(a, b):
    """``a @ b`` computed by the MM kernel behind a Device Manager."""
    n = a.shape[0]
    env = Environment()
    network = Network(env)
    library = standard_library()
    node = network.host("B")
    manager = DeviceManager(env, "dm-B", FPGABoard(env, functional=True),
                            library, network, node)

    def host():
        platform = yield from remote_platform(env, "mm-fn", node, manager,
                                              network, library)
        context = Context(platform.get_devices())
        queue = context.create_queue()
        program = context.create_program("mm")
        yield from program.build()
        kernel = program.create_kernel("mm")
        a_buf, b_buf, c_buf = (context.create_buffer(a.nbytes)
                               for _ in range(3))
        kernel.set_args(a_buf, b_buf, c_buf, n, n, n)
        yield from queue.write_buffer(a_buf, a)
        yield from queue.write_buffer(b_buf, b)
        yield from queue.run_kernel(kernel)
        data = yield from queue.read_buffer(c_buf)
        return np.frombuffer(data, dtype=np.float32).reshape(n, n)

    return env.run(until=env.process(host()))


def main():
    sizes = [16, 64, 256, 512, 1024, 2048]
    points = run_mm_sweep(sizes=sizes)
    by_size = {}
    for point in points:
        by_size.setdefault(point.label, {})[point.system] = point.rtt

    print(f"{'size':<10} {'native':>10} {'grpc':>10} {'shm':>10} "
          f"{'grpc ovh':>9} {'shm ovh':>9}")
    for label, systems in by_size.items():
        native = systems["native"]
        grpc = systems["blastfunction"]
        shm = systems["blastfunction_shm"]
        print(
            f"{label:<10} {native * 1e3:>8.2f}ms {grpc * 1e3:>8.2f}ms "
            f"{shm * 1e3:>8.2f}ms "
            f"{100 * (grpc - native) / native:>8.1f}% "
            f"{100 * (shm - native) / native:>8.1f}%"
        )

    print()
    print("Shared memory turns the gRPC data-plane penalty (3 copies +")
    print("protobuf) into a single memcpy; compute-bound sizes hide even")
    print("that, matching the paper's 0.27% relative overhead for MM.")

    rng = np.random.default_rng(7)
    a, b = (rng.standard_normal((64, 64)).astype(np.float32)
            for _ in range(2))
    np.testing.assert_allclose(remote_product(a, b), a @ b,
                               rtol=1e-4, atol=1e-4)
    print("\n64x64 product on real bytes through BlastFunction: "
          "matches numpy")


if __name__ == "__main__":
    main()
