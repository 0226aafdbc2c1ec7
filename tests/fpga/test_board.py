"""Unit tests for the FPGA board model (programming, DMA, execution)."""

import numpy as np
import pytest

from repro.fpga import (
    BoardError,
    FPGABoard,
    PCIE_GEN2_X8,
    PCIE_GEN3_X8,
    standard_library,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def library():
    return standard_library()


def make_board(env, **kwargs) -> FPGABoard:
    return FPGABoard(env, name="fpga-test", **kwargs)


def run(env, generator):
    """Run a generator process to completion and return its value."""
    return env.run(until=env.process(generator))


class TestProgramming:
    def test_program_takes_reconfiguration_time(self, env, library):
        board = make_board(env)
        run(env, board.program(library.get("sobel")))
        assert env.now == pytest.approx(board.spec.reconfiguration_time)
        assert board.programmed
        assert board.bitstream.name == "sobel"
        assert board.reconfigurations == 1

    def test_program_wipes_device_memory(self, env, library):
        board = make_board(env)
        run(env, board.program(library.get("sobel")))
        board.allocate(1024)
        assert board.memory._used == 1024
        run(env, board.program(library.get("mm")))
        assert board.memory._used == 0

    def test_program_blocks_kernel_execution(self, env, library):
        board = make_board(env, functional=False)
        run(env, board.program(library.get("mm")))
        a = board.allocate(64)
        b = board.allocate(64)
        c = board.allocate(64)
        finish_times = []

        def execute(env):
            yield from board.execute("mm", [a, b, c, 4, 4, 4])
            finish_times.append(env.now)

        def reprogram(env):
            yield from board.program(library.get("mm"))

        start = env.now
        env.process(reprogram(env))
        env.process(execute(env))
        env.run()
        # Execution had to wait for the 2.5 s reprogram.
        assert finish_times[0] >= start + board.spec.reconfiguration_time

    def test_unprogrammed_board_rejects_execution(self, env):
        board = make_board(env)
        with pytest.raises(BoardError):
            run(env, board.execute("sobel", []))

    def test_unknown_kernel_rejected(self, env, library):
        board = make_board(env)
        run(env, board.program(library.get("sobel")))
        with pytest.raises(KeyError):
            board.kernel_slot("mm")


class TestDMA:
    def test_write_read_roundtrip_preserves_data(self, env, library):
        board = make_board(env)
        buffer = board.allocate(16)
        payload = b"0123456789abcdef"

        def flow(env):
            yield from board.dma_write(buffer, 16, payload)
            data = yield from board.dma_read(buffer, 16)
            return data

        assert run(env, flow(env)) == payload

    def test_transfer_time_matches_link_model(self, env):
        board = make_board(env, pcie=PCIE_GEN3_X8, functional=False)
        buffer = board.allocate(68_000_000)

        def flow(env):
            yield from board.dma_write(buffer, 68_000_000)

        run(env, flow(env))
        expected = PCIE_GEN3_X8.latency + 68_000_000 / PCIE_GEN3_X8.bandwidth
        assert env.now == pytest.approx(expected)

    def test_gen2_slower_than_gen3(self, env):
        env2 = Environment()
        board3 = make_board(env, pcie=PCIE_GEN3_X8, functional=False)
        board2 = FPGABoard(env2, pcie=PCIE_GEN2_X8, functional=False)
        nbytes = 10_000_000
        b3 = board3.allocate(nbytes)
        b2 = board2.allocate(nbytes)

        def flow(board, buffer):
            yield from board.dma_write(buffer, nbytes)

        run(env, flow(board3, b3))
        env2.run(until=env2.process(flow(board2, b2)))
        assert env2.now > env.now

    def test_out_of_range_write_rejected(self, env):
        board = make_board(env)
        buffer = board.allocate(10)
        with pytest.raises(ValueError):
            run(env, board.dma_write(buffer, 11))

    def test_concurrent_transfers_serialize_on_link(self, env):
        board = make_board(env, functional=False)
        b1 = board.allocate(68_000_000)
        b2 = board.allocate(68_000_000)

        def flow(buffer):
            yield from board.dma_write(buffer, 68_000_000)

        env.process(flow(b1))
        env.process(flow(b2))
        env.run()
        single = PCIE_GEN3_X8.transfer_time(68_000_000)
        assert env.now == pytest.approx(2 * single)


class TestExecution:
    def test_sobel_functional_result(self, env, library):
        board = make_board(env, functional=True)
        run(env, board.program(library.get("sobel")))
        width = height = 8
        image = np.random.default_rng(0).integers(
            0, 255, size=(height, width), dtype=np.uint32
        )
        in_buf = board.allocate(image.nbytes)
        out_buf = board.allocate(image.nbytes)

        def flow(env):
            yield from board.dma_write(in_buf, image.nbytes, image.tobytes())
            yield from board.execute(
                "sobel", [in_buf, out_buf, width, height]
            )
            data = yield from board.dma_read(out_buf, image.nbytes)
            return np.frombuffer(data, dtype=np.uint32).reshape(height, width)

        result = run(env, flow(env))
        from repro.kernels import sobel_reference

        np.testing.assert_array_equal(result, sobel_reference(image))

    def test_mm_functional_result(self, env, library):
        board = make_board(env, functional=True)
        run(env, board.program(library.get("mm")))
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8), dtype=np.float32)
        b = rng.standard_normal((8, 8), dtype=np.float32)
        a_buf = board.allocate(a.nbytes)
        b_buf = board.allocate(b.nbytes)
        c_buf = board.allocate(a.nbytes)

        def flow(env):
            yield from board.dma_write(a_buf, a.nbytes, a.tobytes())
            yield from board.dma_write(b_buf, b.nbytes, b.tobytes())
            yield from board.execute("mm", [a_buf, b_buf, c_buf, 8, 8, 8])
            data = yield from board.dma_read(c_buf, a.nbytes)
            return np.frombuffer(data, dtype=np.float32).reshape(8, 8)

        result = run(env, flow(env))
        np.testing.assert_allclose(result, a @ b, rtol=1e-5)

    def test_execution_is_exclusive(self, env, library):
        board = make_board(env, functional=False)
        run(env, board.program(library.get("mm")))
        bufs = [board.allocate(64) for _ in range(3)]
        n = 512
        completions = []

        def flow(env):
            yield from board.execute("mm", [*bufs, n, n, n])
            completions.append(env.now)

        start = env.now
        env.process(flow(env))
        env.process(flow(env))
        env.run()
        kernel = library.get("mm").kernel("mm")
        single = kernel.duration({"m": n, "n": n, "k": n})
        assert completions[0] == pytest.approx(start + single)
        assert completions[1] == pytest.approx(start + 2 * single)

    def test_bad_arguments_rejected(self, env, library):
        from repro.kernels import KernelArgumentError

        board = make_board(env)
        run(env, board.program(library.get("mm")))
        with pytest.raises(KernelArgumentError):
            run(env, board.execute("mm", [1, 2, 3]))

    def test_busy_accounting(self, env, library):
        board = make_board(env, functional=False)
        events = []
        board.add_busy_listener(lambda dt, kind: events.append((kind, dt)))
        run(env, board.program(library.get("sobel")))
        in_buf = board.allocate(400)
        out_buf = board.allocate(400)

        def flow(env):
            yield from board.dma_write(in_buf, 400)
            yield from board.execute("sobel", [in_buf, out_buf, 10, 10])
            yield from board.dma_read(out_buf, 400)

        run(env, flow(env))
        kinds = [kind for kind, _ in events]
        assert kinds == ["reconfigure", "dma", "kernel", "dma"]
        assert board.busy_seconds == pytest.approx(
            sum(dt for _, dt in events)
        )
        assert board.kernel_runs == 1
