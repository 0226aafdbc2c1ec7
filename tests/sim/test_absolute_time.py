"""Absolute-time scheduling: ``schedule_at`` / ``timeout_at``.

One absolute-time event replaces a chain of Timeouts on the RPC path, so
it must fire at exactly the float the chain would have ended on, and it
must pass through :meth:`Environment.schedule` like every other event.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Event, SimError
from repro.sim.events import NORMAL

DELAYS = st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False)


class CountingEnvironment(Environment):
    """Sees every event through an overridden ``schedule``."""

    __slots__ = ("seen",)

    def __init__(self):
        super().__init__()
        self.seen = []

    def schedule(self, event, delay=0.0, priority=NORMAL):
        self.seen.append((event, self._now + delay))
        super().schedule(event, delay, priority)


@settings(max_examples=200, deadline=None)
@given(start=DELAYS, a=DELAYS, b=DELAYS)
def test_timeout_at_matches_two_timeout_chain(start, a, b):
    env = Environment()
    fired = {}

    def chain(env):
        yield env.timeout(a)
        yield env.timeout(b)
        fired["chain"] = env.now

    def absolute(env):
        yield env.timeout_at((env.now + a) + b)
        fired["absolute"] = env.now

    def driver(env):
        yield env.timeout(start)
        env.process(chain(env))
        env.process(absolute(env))

    env.process(driver(env))
    env.run()
    assert fired["absolute"] == fired["chain"]


def test_timeout_at_carries_value():
    env = Environment()

    def proc(env):
        value = yield env.timeout_at(2.5, value="payload")
        return env.now, value

    assert env.run(until=env.process(proc(env))) == (2.5, "payload")


def test_schedule_at_rejects_the_past():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError, match="before now"):
        env.schedule_at(Event(env), 4.0)
    assert env.now == 5.0


def test_schedule_at_restores_the_clock():
    env = Environment(initial_time=1.0)
    env.timeout_at(7.0)
    assert env.now == 1.0
    assert env.peek() == 7.0


def test_overridden_schedule_sees_absolute_time_events():
    env = CountingEnvironment()
    timeout = env.timeout(1.0)
    absolute = env.timeout_at(3.0)
    explicit = Event(env)
    env.schedule_at(explicit, 2.0)
    assert [(event, when) for event, when in env.seen] == [
        (timeout, 1.0), (absolute, 3.0), (explicit, 2.0)]
    env.run()
    assert env.now == 3.0


def _arrival_order(absolute):
    """Order in which three events due at t=0.75 run: one queued before
    the message is sent, the message itself (handling 0.5 s, then link
    0.25 s), and one queued for the same instant during the handling."""
    env = Environment()
    order = []
    env.timeout(0.75).callbacks.append(lambda _: order.append("before"))
    if absolute:
        arrival = env.timeout_at((env.now + 0.5) + 0.25)
        arrival.callbacks.append(lambda _: order.append("message"))
    else:
        def link(_):
            env.timeout(0.25).callbacks.append(
                lambda _: order.append("message"))
        env.timeout(0.5).callbacks.append(link)

    def during(_):
        env.timeout(0.5).callbacks.append(lambda _: order.append("during"))
    env.timeout(0.25).callbacks.append(during)
    env.run()
    assert env.now == 0.75
    return order


def test_ties_at_the_arrival_instant_follow_the_send():
    """One absolute-time event keeps the chain's time, not its tie order.

    The chain queues its last Timeout when the handling ends; the single
    event is queued when the message is sent.  An event queued for the
    same instant during the handling window ran before the message and
    now runs after it.  Events queued before the send keep their place.
    """
    assert _arrival_order(absolute=False) == ["before", "during", "message"]
    assert _arrival_order(absolute=True) == ["before", "message", "during"]


def test_retime_keeps_the_place_among_same_instant_events():
    # Moved to an instant where another event is due, the event runs in
    # the order its tie-break id gives, as if queued for it at first.
    env = CountingEnvironment()
    order = []
    moved = env.timeout_at(5.0)
    moved.callbacks.append(lambda _: order.append("moved"))
    env.timeout_at(1.0).callbacks.append(lambda _: order.append("later"))
    scheduled = len(env.seen)
    env.retime(moved, 1.0)
    assert len(env.seen) == scheduled  # nothing new is scheduled
    env.run()
    assert order == ["moved", "later"]
    assert env.now == 1.0


def test_retime_refuses_the_past_and_unqueued_events():
    env = Environment()
    event = env.timeout(2.0)
    env.run(until=1.0)
    with pytest.raises(ValueError):
        env.retime(event, 0.5)
    with pytest.raises(SimError):
        env.retime(Event(env), 1.5)
