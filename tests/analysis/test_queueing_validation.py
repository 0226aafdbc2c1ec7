"""Queueing-theory validation of the simulator.

A single board with deterministic kernel service times fed by Poisson
arrivals is an M/D/1 queue.  If the DES kernel, the board model and the
Device Manager bookkeeping are unbiased, simulated mean waits must match
Pollaczek–Khinchine within sampling error.  This is the strongest
systemic-correctness check in the suite.
"""

import math

import numpy as np
import pytest

from repro.analysis import md1_response, md1_wait, mm1_wait, utilization
from repro.fpga import FPGABoard, standard_library
from repro.sim import Environment


class TestFormulas:
    def test_utilization(self):
        assert utilization(10.0, 0.05) == pytest.approx(0.5)

    def test_md1_wait_half_of_mm1(self):
        # With equal rates, M/D/1 queue wait is half the M/M/1 wait.
        lam, mu = 8.0, 10.0
        assert md1_wait(lam, 1 / mu) == pytest.approx(
            mm1_wait(lam, mu) / 2.0
        )

    def test_overload_is_infinite(self):
        assert math.isinf(md1_wait(11.0, 0.1))
        assert math.isinf(mm1_wait(11.0, 10.0))

    def test_zero_load_zero_wait(self):
        assert md1_wait(0.0, 0.1) == 0.0

    def test_response_is_wait_plus_service(self):
        lam, service = 5.0, 0.05
        assert md1_response(lam, service) == pytest.approx(
            md1_wait(lam, service) + service
        )

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            utilization(-1.0, 0.1)


class TestSimulatedMD1:
    """Poisson arrivals to one board ≡ M/D/1; compare with theory."""

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_board_queue_matches_pollaczek_khinchine(self, rho):
        env = Environment()
        library = standard_library()
        board = FPGABoard(env, functional=False)
        env.run(until=env.process(board.program(library.get("mm"))))

        bufs = [board.allocate(64) for _ in range(3)]
        n = 640
        service = library.get("mm").kernel("mm").duration(
            {"m": n, "n": n, "k": n}
        )
        arrival_rate = rho / service
        rng = np.random.default_rng(42)
        waits = []
        horizon = 4000 * service / rho  # ~4000 arrivals

        def source():
            while env.now < horizon:
                yield env.timeout(rng.exponential(1.0 / arrival_rate))
                env.process(job())

        def job():
            arrived = env.now
            start_event = {}

            def run():
                # Queue wait = time to acquire the board's compute slot.
                with board._slot_locks[0].request() as grant:
                    yield grant
                    start_event["start"] = env.now
                    yield env.timeout(service)

            proc = env.process(run())
            yield proc
            waits.append(start_event["start"] - arrived)

        env.process(source())
        env.run()

        measured = sum(waits) / len(waits)
        predicted = md1_wait(arrival_rate, service)
        assert len(waits) > 2000
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_executes_through_board_model(self):
        """Same validation through board.execute (covers its locking)."""
        env = Environment()
        library = standard_library()
        board = FPGABoard(env, functional=False)
        env.run(until=env.process(board.program(library.get("mm"))))
        bufs = [board.allocate(64) for _ in range(3)]
        n = 640
        service = library.get("mm").kernel("mm").duration(
            {"m": n, "n": n, "k": n}
        )
        rho = 0.7
        arrival_rate = rho / service
        rng = np.random.default_rng(7)
        responses = []
        horizon = 3000 * service / rho

        def source():
            while env.now < horizon:
                yield env.timeout(rng.exponential(1.0 / arrival_rate))
                env.process(job())

        def job():
            arrived = env.now
            yield from board.execute("mm", [*bufs, n, n, n])
            responses.append(env.now - arrived)

        env.process(source())
        env.run()
        measured = sum(responses) / len(responses)
        predicted = md1_response(arrival_rate, service)
        # board.execute adds the kernel's fixed launch overhead to service.
        assert measured == pytest.approx(predicted, rel=0.15)
