"""Unit and property-based tests for the Resource and Store primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Environment,
    PriorityItem,
    PriorityStore,
    Resource,
    Store,
)


class TestResource:
    def test_capacity_enforced(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        log = []

        def user(env, name, hold):
            with resource.request() as req:
                yield req
                log.append(("acquired", name, env.now))
                yield env.timeout(hold)
            log.append(("released", name, env.now))

        env.process(user(env, "a", 2.0))
        env.process(user(env, "b", 2.0))
        env.process(user(env, "c", 2.0))
        env.run()
        acquired = {name: t for op, name, t in log if op == "acquired"}
        assert acquired == {"a": 0.0, "b": 0.0, "c": 2.0}

    def test_fifo_grant_order(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def user(env, name):
            with resource.request() as req:
                yield req
                order.append(name)
                yield env.timeout(1.0)

        for name in "abcde":
            env.process(user(env, name))
        env.run()
        assert order == list("abcde")

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_count_tracks_users(self):
        env = Environment()
        resource = Resource(env, capacity=3)

        def user(env):
            with resource.request() as req:
                yield req
                yield env.timeout(1.0)

        env.process(user(env))
        env.process(user(env))
        env.run(until=0.5)
        assert len(resource.users) == 2
        env.run()
        assert resource.users == []

    def test_cancel_queued_request(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = []

        def holder(env):
            with resource.request() as req:
                yield req
                yield env.timeout(10.0)

        def impatient(env):
            req = resource.request()
            yield env.timeout(1.0)
            resource.release(req)

        def patient(env):
            yield env.timeout(0.5)
            with resource.request() as req:
                yield req
                granted.append(env.now)

        env.process(holder(env))
        env.process(impatient(env))
        env.process(patient(env))
        env.run()
        # The cancelled request must not block `patient` past the holder.
        assert granted == [10.0]


class TestStore:
    def test_put_get_fifo(self):
        env = Environment()
        store = Store(env)
        received = []

        def producer(env):
            for i in range(3):
                store.put_nowait(i)
                yield env.timeout(1.0)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                received.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert received == [0, 1, 2]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(4.0)
            store.put_nowait("x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [(4.0, "x")]


class TestPriorityStore:
    def test_items_come_out_in_priority_order(self):
        env = Environment()
        store = PriorityStore(env)
        got = []

        store.put_nowait(PriorityItem(2, "low"))
        store.put_nowait(PriorityItem(0, "high"))
        store.put_nowait(PriorityItem(1, "mid"))

        def consumer(env):
            yield env.timeout(1.0)
            for _ in range(3):
                item = yield store.get()
                got.append(item.item)

        env.process(consumer(env))
        env.run()
        assert got == ["high", "mid", "low"]


class TestStoreProperties:
    @given(items=st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_store_preserves_fifo_order(self, items):
        env = Environment()
        store = Store(env)
        received = []

        def consumer(env):
            for _ in items:
                received.append((yield store.get()))

        env.process(consumer(env))
        for item in items:
            store.put_nowait(item)
        env.run()
        assert received == items

    @given(
        priorities=st.lists(st.integers(min_value=0, max_value=5),
                            min_size=1, max_size=30)
    )
    @settings(max_examples=50, deadline=None)
    def test_priority_store_is_stable_sort(self, priorities):
        env = Environment()
        store = PriorityStore(env)
        tagged = list(enumerate(priorities))
        received = []

        for index, priority in tagged:
            store.put_nowait(PriorityItem(priority, index))

        def consumer(env):
            yield env.timeout(1.0)
            for _ in tagged:
                item = yield store.get()
                received.append(item)

        env.process(consumer(env))
        env.run()
        expected = sorted(tagged, key=lambda pair: (pair[1], pair[0]))
        assert [(item.item, item.priority) for item in received] == [
            (index, priority) for index, priority in expected
        ]

    @given(
        holds=st.lists(
            st.floats(min_value=0.1, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        ),
        capacity=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_resource_never_exceeds_capacity(self, holds, capacity):
        env = Environment()
        resource = Resource(env, capacity=capacity)
        max_seen = 0

        def user(env, hold):
            nonlocal max_seen
            with resource.request() as req:
                yield req
                max_seen = max(max_seen, len(resource.users))
                yield env.timeout(hold)

        for hold in holds:
            env.process(user(env, hold))
        env.run()
        assert max_seen <= capacity
        assert resource.users == []
