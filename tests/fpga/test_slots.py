"""Tests for partial-reconfiguration slots (space-sharing extension)."""

import pytest

from repro.fpga import BoardError, DE5A_NET, FPGABoard, standard_library
from repro.fpga.hwspec import BoardSpec
from repro.sim import Environment
from dataclasses import replace


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def library():
    return standard_library()


def multi_slot_spec(slots=2) -> BoardSpec:
    return replace(DE5A_NET, pr_slots=slots)


def run(env, generator):
    return env.run(until=env.process(generator))


class TestSpec:
    def test_default_board_has_one_slot(self):
        assert DE5A_NET.pr_slots == 1

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            replace(DE5A_NET, pr_slots=0)


class TestPartialReconfiguration:
    def test_program_slot_installs_bitstream(self, env, library):
        board = FPGABoard(env, spec=multi_slot_spec(), functional=False)
        run(env, board.program_slot(0, library.get("sobel")))
        run(env, board.program_slot(1, library.get("mm")))
        assert board.slots[0].name == "sobel"
        assert board.slots[1].name == "mm"
        assert board.partial_reconfigurations == 2
        assert env.now == pytest.approx(
            2 * board.spec.partial_reconfiguration_time
        )

    def test_partial_preserves_memory(self, env, library):
        board = FPGABoard(env, spec=multi_slot_spec(), functional=False)
        run(env, board.program_slot(0, library.get("sobel")))
        board.allocate(1024)
        run(env, board.program_slot(1, library.get("mm")))
        assert board.memory._used == 1024

    def test_full_program_wipes_all_slots_and_memory(self, env, library):
        board = FPGABoard(env, spec=multi_slot_spec(), functional=False)
        run(env, board.program_slot(1, library.get("mm")))
        board.allocate(64)
        run(env, board.program(library.get("sobel")))
        assert board.slots[0].name == "sobel"
        assert board.slots[1] is None
        assert board.memory._used == 0

    def test_slot_out_of_range(self, env, library):
        board = FPGABoard(env, spec=multi_slot_spec(), functional=False)
        with pytest.raises(BoardError):
            run(env, board.program_slot(5, library.get("sobel")))

    def test_kernel_slot_resolution(self, env, library):
        board = FPGABoard(env, spec=multi_slot_spec(), functional=False)
        run(env, board.program_slot(0, library.get("sobel")))
        run(env, board.program_slot(1, library.get("mm")))
        assert board.kernel_slot("sobel")[0] == 0
        assert board.kernel_slot("mm")[0] == 1
        with pytest.raises(KeyError):
            board.kernel_slot("conv")


class TestConcurrentExecution:
    def test_kernels_in_different_slots_overlap(self, env, library):
        board = FPGABoard(env, spec=multi_slot_spec(), functional=False)
        run(env, board.program_slot(0, library.get("sobel")))
        run(env, board.program_slot(1, library.get("mm")))
        in_buf = board.allocate(1 << 20)
        out_buf = board.allocate(1 << 20)
        mm_bufs = [board.allocate(1 << 20) for _ in range(3)]
        n = 1024

        def sobel_flow():
            yield from board.execute("sobel", [in_buf, out_buf, 512, 512])

        def mm_flow():
            yield from board.execute("mm", [*mm_bufs, n, n, n])

        start = env.now
        env.process(sobel_flow())
        env.process(mm_flow())
        env.run()
        sobel_time = library.get("sobel").kernel("sobel").duration(
            {"width": 512, "height": 512}
        )
        mm_time = library.get("mm").kernel("mm").duration(
            {"m": n, "n": n, "k": n}
        )
        # Concurrent, not serialized.
        assert env.now - start == pytest.approx(max(sobel_time, mm_time),
                                                rel=0.01)

    def test_same_slot_kernels_serialize(self, env, library):
        board = FPGABoard(env, spec=multi_slot_spec(), functional=False)
        run(env, board.program_slot(0, library.get("mm")))
        bufs = [board.allocate(64) for _ in range(3)]
        n = 512

        def flow():
            yield from board.execute("mm", [*bufs, n, n, n])

        start = env.now
        env.process(flow())
        env.process(flow())
        env.run()
        single = library.get("mm").kernel("mm").duration(
            {"m": n, "n": n, "k": n}
        )
        assert env.now - start == pytest.approx(2 * single, rel=0.01)

    def test_full_program_blocks_all_slots(self, env, library):
        board = FPGABoard(env, spec=multi_slot_spec(), functional=False)
        run(env, board.program_slot(1, library.get("mm")))
        bufs = [board.allocate(64) for _ in range(3)]
        finish = []

        def execute():
            yield from board.execute("mm", [*bufs, 64, 64, 64])
            finish.append(env.now)

        def reprogram():
            yield from board.program(library.get("sobel"))

        env.process(reprogram())

        def late_execute():
            # Enqueue the mm run after the reprogram started; it must fail
            # (the slot is wiped) or wait behind the full program.
            yield env.timeout(0.01)
            try:
                yield from board.execute("mm", [*bufs, 64, 64, 64])
                finish.append(env.now)
            except (KeyError, BoardError):
                finish.append(None)

        env.process(late_execute())
        env.run()
        # After the full reprogram, "mm" is gone: the late run either
        # failed or never ran before the wipe.
        assert finish == [None]
