"""Determinism and semantics of the fault-injection plane."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    PASS,
    FaultScript,
    NetworkFaultPlane,
)
from repro.rpc import Message
from repro.sim import Environment


def message(id, attempt=0):
    return Message(method="m", id=id, attempt=attempt)


def fate(verdict):
    return (verdict.drop, verdict.delay)


class TestNetworkFaultPlane:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            NetworkFaultPlane(drop_rate=-0.1)
        with pytest.raises(ValueError):
            NetworkFaultPlane(drop_rate=0.6, delay_rate=0.6)

    def test_zero_rates_always_pass(self):
        plane = NetworkFaultPlane(seed=1)
        for id in range(1, 51):
            assert plane.message_action("a", "b", message(id)) is PASS
        assert plane.counters["delivered"] == 50
        assert plane.counters["dropped"] == 0

    def test_seeded_verdicts_replay(self):
        def verdicts(plane):
            return [fate(plane.message_action("a", "b", message(id)))
                    for id in range(1, 501)]

        kwargs = dict(seed=9, drop_rate=0.1, delay_rate=0.1)
        assert verdicts(NetworkFaultPlane(**kwargs)) == verdicts(
            NetworkFaultPlane(**kwargs)
        )
        assert verdicts(NetworkFaultPlane(**kwargs)) != verdicts(
            NetworkFaultPlane(**dict(kwargs, seed=10)))

    def test_verdict_is_keyed_by_link_attempt_and_direction(self):
        plane = NetworkFaultPlane(seed=2, drop_rate=0.5)

        def drops(src, dst, attempt=0, reply=False):
            return [plane.message_action(src, dst, message(id, attempt),
                                         reply=reply).drop
                    for id in range(1, 201)]

        base = drops("a", "b")
        assert 60 < sum(base) < 140
        # A resend, the reverse link, another link and a reply each draw
        # afresh (a same-node reply would otherwise share its request's
        # key).
        assert drops("a", "b", attempt=1) != base
        assert drops("b", "a") != base
        assert drops("a", "c") != base
        assert drops("a", "a", reply=True) != drops("a", "a")

    def test_all_bands_reachable(self):
        plane = NetworkFaultPlane(seed=3, drop_rate=0.2, delay_rate=0.2,
                                  delay=0.5)
        for id in range(1, 501):
            plane.message_action("a", "b", message(id))
        counters = plane.counters
        assert counters["dropped"] > 0
        assert counters["delayed"] > 0
        assert (counters["delivered"] + counters["dropped"]) == 500

    def test_partition_drops_both_directions(self):
        plane = NetworkFaultPlane(seed=1)
        plane.partition("a", "b")
        assert plane.message_action("a", "b", message(1)).drop
        assert plane.message_action("b", "a", message(2)).drop
        assert plane.counters["partitioned"] == 2
        plane.heal("a", "b")
        assert plane.message_action("a", "b", message(3)) is PASS

    def test_partition_consumes_no_draws(self):
        # Healing a partition replays the rest of the run unchanged: a
        # verdict depends on its message alone, not on what dropped before.
        kwargs = dict(seed=11, drop_rate=0.3, delay_rate=0.3)
        partitioned = NetworkFaultPlane(**kwargs)
        partitioned.partition("a", "b")
        for id in range(1, 26):
            partitioned.message_action("a", "b", message(id))
        partitioned.heal("a", "b")
        fresh = NetworkFaultPlane(**kwargs)
        after = [fate(partitioned.message_action("a", "b", message(id)))
                 for id in range(26, 126)]
        baseline = [fate(fresh.message_action("a", "b", message(id)))
                    for id in range(26, 126)]
        assert after == baseline

    def test_isolation_cuts_host_off(self):
        plane = NetworkFaultPlane(seed=1)
        plane.isolate("b")
        assert plane.message_action("a", "b", message(1)).drop
        assert plane.message_action("b", "c", message(2)).drop
        assert plane.message_action("a", "c", message(3)) is PASS
        plane.rejoin("b")
        assert plane.message_action("a", "b", message(4)) is PASS

    def test_loopback_never_partitions(self):
        plane = NetworkFaultPlane(seed=1)
        plane.isolate("a")
        assert plane.message_action("a", "a", message(1)) is PASS


_LINKS = [("a", "b"), ("b", "a"), ("a", "a"), ("b", "c")]
#: One judged message: (link index, id, attempt, reply).
_JUDGED = st.tuples(st.integers(0, len(_LINKS) - 1), st.integers(1, 50),
                    st.integers(0, 3), st.booleans())
#: A partition or heal of the a-c link, which no judged message uses.
_TOPOLOGY = st.tuples(st.sampled_from(["partition", "heal"]), st.just(0),
                      st.just(0), st.just(False))


@settings(max_examples=60, deadline=None)
@given(judged=st.lists(_JUDGED, min_size=1, max_size=40, unique=True),
       noise=st.lists(st.one_of(_JUDGED, _TOPOLOGY), max_size=40),
       data=st.data())
def test_verdicts_do_not_depend_on_call_order(judged, noise, data):
    """A message's verdict is the same whatever order messages are judged
    in, interleaved with any other link's draws and with partitions and
    heals elsewhere: a draw on one link leaves every other verdict as it
    was."""
    kwargs = dict(seed=5, drop_rate=0.2, delay_rate=0.4, delay=0.25)

    def judge(plane, key):
        link, id, attempt, reply = key
        src, dst = _LINKS[link]
        return fate(plane.message_action(src, dst, message(id, attempt),
                                         reply=reply))

    alone = NetworkFaultPlane(**kwargs)
    expected = {key: judge(alone, key) for key in judged}

    order = data.draw(st.permutations(judged))
    calls = [("judged", key) for key in order] + [
        ("noise", key) for key in noise]
    calls = data.draw(st.permutations(calls))
    mixed = NetworkFaultPlane(**kwargs)
    seen = {}
    for kind, key in calls:
        if kind == "judged":
            seen[key] = judge(mixed, key)
        elif key[0] == "partition":
            mixed.partition("a", "c")
        elif key[0] == "heal":
            mixed.heal("a", "c")
        else:
            judge(mixed, key)
    assert seen == expected


class _Crashable:
    def __init__(self, name):
        self.name = name
        self.log = []

    def crash(self):
        self.log.append("crash")

    def restart(self):
        self.log.append("restart")


class TestFaultScript:
    def test_actions_run_in_time_order(self):
        env = Environment()
        script = FaultScript(env)
        order = []
        script.at(2.0, "second", lambda: order.append(("second", env.now)))
        script.at(1.0, "first", lambda: order.append(("first", env.now)))
        script.arm()
        env.run()
        assert order == [("first", 1.0), ("second", 2.0)]
        assert [(when, what) for when, what in script.executed] == [
            (1.0, "first"), (2.0, "second")
        ]

    def test_crash_manager_schedules_restart(self):
        env = Environment()
        manager = _Crashable("dm-X")
        script = FaultScript(env)
        script.crash_manager(manager, at=1.0, restart_after=0.5)
        script.arm()
        env.run()
        assert manager.log == ["crash", "restart"]
        assert script.executed[0][1] == "crash dm-X"
        assert script.executed[1] == (1.5, "restart dm-X")

    def test_partition_action_drives_plane(self):
        env = Environment()
        plane = NetworkFaultPlane(seed=1)
        script = FaultScript(env)
        script.partition(plane, "a", "b", at=1.0, heal_after=1.0)
        script.arm()
        env.run(until=1.5)
        assert plane.is_partitioned("a", "b")
        env.run()
        assert not plane.is_partitioned("a", "b")

    def test_cannot_extend_or_rearm_after_arming(self):
        env = Environment()
        script = FaultScript(env)
        script.at(1.0, "noop", lambda: None)
        script.arm()
        with pytest.raises(RuntimeError):
            script.at(2.0, "late", lambda: None)
        with pytest.raises(RuntimeError):
            script.arm()
