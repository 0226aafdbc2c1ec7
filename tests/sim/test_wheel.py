"""TimerWheel: one periodic DES event multiplexing many subscribers."""

import pytest

from repro.sim import Environment, TimerWheel


class TestTicking:
    def test_single_subscriber_fires_every_tick(self):
        env = Environment()
        wheel = TimerWheel(env, tick=0.5)
        times = []
        wheel.every(1, lambda: times.append(env.now))
        env.run(until=2.6)
        assert times == [0.5, 1.0, 1.5, 2.0, 2.5]

    def test_periods_are_multiples_of_the_tick(self):
        env = Environment()
        wheel = TimerWheel(env, tick=0.5)
        fast, slow = [], []
        wheel.every(1, lambda: fast.append(env.now))
        wheel.every(4, lambda: slow.append(env.now))
        env.run(until=4.1)
        assert len(fast) == 8
        assert slow == [2.0, 4.0]

    def test_callbacks_run_in_subscription_order(self):
        env = Environment()
        wheel = TimerWheel(env, tick=1.0)
        order = []
        wheel.every(1, lambda: order.append("first"))
        wheel.every(1, lambda: order.append("second"))
        env.run(until=1.1)
        assert order == ["first", "second"]

    def test_one_event_per_tick_regardless_of_subscribers(self):
        """The wheel's whole point: event volume is O(1) per interval."""
        env = Environment()
        wheel = TimerWheel(env, tick=1.0)
        for _ in range(100):
            wheel.every(1, lambda: None)
        env.run(until=10.1)
        solo_env = Environment()
        solo_wheel = TimerWheel(solo_env, tick=1.0)
        solo_wheel.every(1, lambda: None)
        solo_env.run(until=10.1)
        assert env._eid == solo_env._eid
        assert wheel.ticks == 10


class TestLifecycle:
    def test_cancel_stops_a_subscriber_only(self):
        env = Environment()
        wheel = TimerWheel(env, tick=1.0)
        kept, dropped = [], []
        sub = wheel.every(1, lambda: dropped.append(env.now))
        wheel.every(1, lambda: kept.append(env.now))
        env.run(until=2.1)
        wheel.cancel(sub)
        env.run(until=4.1)
        assert dropped == [1.0, 2.0]
        assert kept == [1.0, 2.0, 3.0, 4.0]

    def test_cancel_from_inside_a_callback_defers_one_round(self):
        env = Environment()
        wheel = TimerWheel(env, tick=1.0)
        fired = []

        def once():
            fired.append(env.now)
            wheel.cancel(sub)

        sub = wheel.every(1, once)
        env.run(until=3.1)
        assert fired == [1.0]


class TestValidation:
    def test_rejects_nonpositive_tick(self):
        with pytest.raises(ValueError):
            TimerWheel(Environment(), tick=0.0)

    def test_rejects_zero_period(self):
        wheel = TimerWheel(Environment(), tick=1.0)
        with pytest.raises(ValueError):
            wheel.every(0, lambda: None)

    def test_ticks_for_converts_multiples(self):
        wheel = TimerWheel(Environment(), tick=0.5)
        assert wheel.ticks_for(0.5) == 1
        assert wheel.ticks_for(2.0) == 4

    def test_ticks_for_rejects_non_multiples(self):
        wheel = TimerWheel(Environment(), tick=0.5)
        with pytest.raises(ValueError):
            wheel.ticks_for(0.75)
