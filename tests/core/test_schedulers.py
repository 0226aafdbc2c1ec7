"""Unit tests for the Device Manager task schedulers."""

import pytest

from repro.core.device_manager import (
    DeviceManager,
    FIFOScheduler,
    Operation,
    OpType,
    SJFScheduler,
    Task,
    WFQScheduler,
    make_scheduler,
)
from repro.core.device_manager import schedulers
from repro.core.remote_lib import remote_platform
from repro.fpga import FPGABoard, standard_library
from repro.rpc import Network
from repro.serverless import SobelApp
from repro.sim import Environment


class PriorityScheduler(schedulers._HeapBacklogMixin,
                        schedulers.TaskScheduler):
    """Strict priority classes per client (lower value is served first):
    a policy built on the scheduler interface, registered as "priority"
    for these tests."""

    name = "priority"
    uses_estimates = False

    def __init__(self, env, default_priority=10):
        super().__init__(env)
        self._queue = schedulers._Backlog(env)
        self._priorities = {}
        self.default_priority = default_priority

    def set_client_priority(self, client, priority):
        self._priorities[client] = priority

    def set_client_weight(self, client, weight):
        # Higher weight, better (lower) priority value.
        self.set_client_priority(client, int(100 / max(weight, 1e-6)))

    def push(self, task, estimate):
        priority = self._priorities.get(task.client, self.default_priority)
        self._queue.hand_over(schedulers.PriorityItem(priority, task))


@pytest.fixture(autouse=True)
def priority_policy(monkeypatch):
    monkeypatch.setitem(schedulers._SCHEDULERS, "priority",
                        PriorityScheduler)


def make_task(client: str, tag=None) -> Task:
    task = Task(client, 0, 0)
    task.append(Operation(type=OpType.MARKER, client=client, queue_id=0,
                          tag=tag))
    return task


def drain(env, scheduler, n):
    """Pop n tasks and return their clients in service order."""
    order = []

    def consumer():
        for _ in range(n):
            task = yield scheduler.pop()
            order.append(task.client)

    env.run(until=env.process(consumer()))
    return order


class TestFactory:
    def test_make_by_name(self):
        env = Environment()
        for name, cls in (("fifo", FIFOScheduler),
                          ("priority", PriorityScheduler),
                          ("sjf", SJFScheduler),
                          ("wfq", WFQScheduler)):
            assert isinstance(make_scheduler(name, env), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("lottery", Environment())


class TestFIFO:
    def test_arrival_order(self):
        env = Environment()
        scheduler = FIFOScheduler(env)
        for client in ("a", "b", "c"):
            scheduler.push(make_task(client), estimate=1.0)
        assert len(scheduler) == 3
        assert drain(env, scheduler, 3) == ["a", "b", "c"]

    def test_pop_blocks_until_push(self):
        env = Environment()
        scheduler = FIFOScheduler(env)
        got = []

        def consumer():
            task = yield scheduler.pop()
            got.append((env.now, task.client))

        def producer():
            yield env.timeout(2.0)
            scheduler.push(make_task("late"), 1.0)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [(2.0, "late")]


class TestPriority:
    def test_lower_priority_value_first(self):
        env = Environment()
        scheduler = PriorityScheduler(env)
        scheduler.set_client_priority("gold", 0)
        scheduler.set_client_priority("bronze", 9)
        scheduler.push(make_task("bronze"), 1.0)
        scheduler.push(make_task("gold"), 1.0)
        scheduler.push(make_task("default"), 1.0)  # default priority 10
        assert drain(env, scheduler, 3) == ["gold", "bronze", "default"]

    def test_weight_maps_to_priority(self):
        env = Environment()
        scheduler = PriorityScheduler(env)
        scheduler.set_client_weight("heavy", 10.0)
        scheduler.set_client_weight("light", 1.0)
        scheduler.push(make_task("light"), 1.0)
        scheduler.push(make_task("heavy"), 1.0)
        assert drain(env, scheduler, 2) == ["heavy", "light"]


class TestSJF:
    def test_shortest_estimate_first(self):
        env = Environment()
        scheduler = SJFScheduler(env)
        scheduler.push(make_task("long"), estimate=5.0)
        scheduler.push(make_task("short"), estimate=0.1)
        scheduler.push(make_task("mid"), estimate=1.0)
        assert drain(env, scheduler, 3) == ["short", "mid", "long"]

    def test_ties_fifo(self):
        env = Environment()
        scheduler = SJFScheduler(env)
        scheduler.push(make_task("first"), 1.0)
        scheduler.push(make_task("second"), 1.0)
        assert drain(env, scheduler, 2) == ["first", "second"]


class TestWFQ:
    def test_weighted_shares(self):
        """A 3:1 weight split yields ~3:1 service order over a backlog."""
        env = Environment()
        scheduler = WFQScheduler(env)
        scheduler.set_client_weight("big", 3.0)
        scheduler.set_client_weight("small", 1.0)
        for _ in range(12):
            scheduler.push(make_task("big"), estimate=1.0)
            scheduler.push(make_task("small"), estimate=1.0)
        order = drain(env, scheduler, 16)
        big_served = order.count("big")
        small_served = order.count("small")
        assert big_served >= 2.0 * small_served

    def test_no_starvation(self):
        env = Environment()
        scheduler = WFQScheduler(env)
        scheduler.set_client_weight("big", 100.0)
        scheduler.set_client_weight("small", 1.0)
        for _ in range(50):
            scheduler.push(make_task("big"), estimate=1.0)
        scheduler.push(make_task("small"), estimate=1.0)
        order = drain(env, scheduler, 51)
        assert "small" in order

    def test_invalid_weight(self):
        scheduler = WFQScheduler(Environment())
        with pytest.raises(ValueError):
            scheduler.set_client_weight("x", 0.0)

    def test_equal_weights_alternate_fairly(self):
        env = Environment()
        scheduler = WFQScheduler(env)
        for _ in range(6):
            scheduler.push(make_task("a"), estimate=1.0)
        for _ in range(6):
            scheduler.push(make_task("b"), estimate=1.0)
        order = drain(env, scheduler, 12)
        # Client b must not wait for all of a's backlog.
        assert "b" in order[:4]


class TestTakeClient:
    """take_client underpins live migration: it must pull exactly the
    victim's backlog, in service order, without corrupting what stays."""

    def test_fifo_preserves_arrival_order(self):
        env = Environment()
        scheduler = FIFOScheduler(env)
        for client, tag in (("a", 1), ("b", 2), ("a", 3), ("c", 4),
                            ("a", 5)):
            scheduler.push(make_task(client, tag), estimate=1.0)
        taken = scheduler.take_client("a")
        assert [t.operations[0].tag for t in taken] == [1, 3, 5]
        assert len(scheduler) == 2
        assert drain(env, scheduler, 2) == ["b", "c"]

    def test_priority_returns_service_order_and_keeps_invariant(self):
        env = Environment()
        scheduler = PriorityScheduler(env)
        scheduler.set_client_priority("victim", 5)
        scheduler.set_client_priority("hi", 0)
        scheduler.set_client_priority("lo", 9)
        for client, tag in (("victim", 1), ("lo", 2), ("victim", 3),
                            ("hi", 4), ("victim", 5)):
            scheduler.push(make_task(client, tag), estimate=1.0)
        taken = scheduler.take_client("victim")
        # Same client, same priority: ties broken by arrival sequence.
        assert [t.operations[0].tag for t in taken] == [1, 3, 5]
        assert all(t.client == "victim" for t in taken)
        # The survivors still come out by priority.
        assert drain(env, scheduler, 2) == ["hi", "lo"]

    def test_wfq_take_then_serve(self):
        env = Environment()
        scheduler = WFQScheduler(env)
        scheduler.set_client_weight("victim", 1.0)
        scheduler.set_client_weight("other", 1.0)
        for index in range(4):
            scheduler.push(make_task("victim", 10 + index), estimate=1.0)
            scheduler.push(make_task("other", 20 + index), estimate=1.0)
        taken = scheduler.take_client("victim")
        assert [t.operations[0].tag for t in taken] == [10, 11, 12, 13]
        assert drain(env, scheduler, 4) == ["other"] * 4

    def test_absent_client_is_empty(self):
        for factory in (FIFOScheduler, PriorityScheduler, SJFScheduler,
                        WFQScheduler):
            scheduler = factory(Environment())
            scheduler.push(make_task("present"), estimate=1.0)
            assert scheduler.take_client("absent") == []
            assert len(scheduler) == 1


class TestPopNowait:
    @pytest.mark.parametrize("policy", ["fifo", "priority", "sjf", "wfq"])
    def test_takes_in_service_order_without_an_event(self, policy):
        env = Environment()
        scheduler = make_scheduler(policy, env)
        assert scheduler.pop_nowait() is None
        for client, estimate in (("long", 5.0), ("short", 0.1)):
            scheduler.push(make_task(client), estimate)
        eid = env._eid
        first = scheduler.pop_nowait().client
        assert env._eid == eid  # nothing scheduled
        assert [first, *drain(env, scheduler, 1)] == (
            ["short", "long"] if policy == "sjf" else ["long", "short"])

    def test_wfq_advances_its_virtual_clock(self):
        scheduler = WFQScheduler(Environment())
        scheduler.push(make_task("a"), estimate=4.0)
        scheduler.push(make_task("a"), estimate=4.0)
        scheduler.pop_nowait()
        scheduler.pop_nowait()
        assert scheduler._virtual_now == 4.0


def served_estimates(policy, monkeypatch):
    """Estimates a Device Manager computes, and those its scheduler
    receives, over one remote Sobel request."""
    computed, received = [], []
    estimate = DeviceManager._estimate_task

    def recording(manager, task):
        computed.append(estimate(manager, task))
        return computed[-1]

    monkeypatch.setattr(DeviceManager, "_estimate_task", recording)
    env = Environment()
    network = Network(env)
    node = network.host("B")
    manager = DeviceManager(env, "dm-B", FPGABoard(env, functional=False),
                            standard_library(), network, node,
                            scheduler=policy)
    push = manager.scheduler.push

    def recording_push(task, estimate):
        received.append(estimate)
        push(task, estimate)

    manager.scheduler.push = recording_push
    app = SobelApp()

    def flow():
        platform = yield from remote_platform(
            env, "fn-1", node, manager, network, standard_library())
        yield from app.setup(env, platform, None)
        yield from app.handle(None)

    env.run(until=env.process(flow()))
    return computed, received


class TestEstimates:
    def test_a_fifo_manager_never_estimates(self, monkeypatch):
        computed, received = served_estimates("fifo", monkeypatch)
        assert computed == []
        assert received and set(received) == {0.0}

    def test_a_priority_manager_never_estimates(self, monkeypatch):
        # Priority classes come from the client, not the task's duration.
        computed, received = served_estimates("priority", monkeypatch)
        assert computed == []
        assert received and set(received) == {0.0}

    @pytest.mark.parametrize("policy", ["sjf", "wfq"])
    def test_other_policies_receive_the_estimate(self, policy, monkeypatch):
        computed, received = served_estimates(policy, monkeypatch)
        assert received == computed
        # The kernel's task is estimated from its latency model, not the
        # 1 ms fallback for unresolvable arguments.
        assert any(value > 1e-3 for value in computed)
