"""Event-free fast paths of the kernel's resources.

An uncontended :class:`Resource` request is granted on the spot and comes
back already processed, and :meth:`Store.put_nowait` hands an item to a
waiting get without the generic ``_dispatch`` loop.  Both must decide
exactly what the general paths decide; the properties below compare each
fast path with a subclass forced onto the general path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Environment,
    Interrupt,
    PriorityResource,
    PriorityStore,
    Resource,
    Store,
)
from repro.sim.events import NORMAL


class QueuedResource(Resource):
    """A Resource whose every request queues and is granted by an event."""

    _request = Resource._enqueue


class DispatchStore(Store):
    """A Store whose put_nowait always runs the generic dispatch loop."""

    def _hand_over(self, item):
        self._insert(item)
        self._dispatch()


class DispatchPriorityStore(PriorityStore):
    def _hand_over(self, item):
        self._insert(item)
        self._dispatch()


class RecordingEnvironment(Environment):
    """Records every scheduled event in order."""

    __slots__ = ("scheduled",)

    def __init__(self):
        super().__init__()
        self.scheduled = []

    def schedule(self, event, delay=0.0, priority=NORMAL):
        self.scheduled.append(event)
        super().schedule(event, delay, priority)


# ---------------------------------------------------------------------------
# Immediate grants
# ---------------------------------------------------------------------------

def test_immediate_grant_is_processed_at_creation():
    env = RecordingEnvironment()
    resource = Resource(env, capacity=2)
    first = resource.request()
    second = resource.request()
    assert first.processed and first.ok and second.processed
    assert resource.users == [first, second]
    assert env.scheduled == []


def test_process_continues_through_an_immediate_grant_without_an_event():
    env = RecordingEnvironment()
    resource = Resource(env, capacity=1)
    steps = []

    def user():
        with resource.request() as grant:
            before = len(env.scheduled)
            yield grant
            steps.append(len(env.scheduled) - before)

    env.run(until=env.process(user()))
    assert steps == [0]
    assert resource.count == 0


def test_request_made_while_others_wait_still_queues_fifo():
    env = Environment()
    resource = Resource(env, capacity=1)
    holder = resource.request()
    waiting = [resource.request(), resource.request()]
    late = resource.request()
    assert not any(request.triggered for request in (*waiting, late))
    assert resource.queue == [*waiting, late]
    order = []
    for request in (*waiting, late):
        request.callbacks.append(order.append)
    for request in (holder, *waiting):
        resource.release(request)
        env.run()
    assert order == [*waiting, late]


def test_releasing_an_immediate_grant_wakes_the_next_waiter():
    env = Environment()
    resource = Resource(env, capacity=1)
    granted = []

    def waiter():
        with resource.request() as grant:
            yield grant
            granted.append(env.now)

    holder = resource.request()
    assert holder.processed
    env.process(waiter())
    env.run(until=env.timeout(1.0))
    assert granted == []
    resource.release(holder)
    env.run()
    assert granted == [1.0]


def test_interrupting_a_holder_releases_its_slot():
    env = Environment()
    resource = Resource(env, capacity=1)
    granted = []

    def holder():
        try:
            with resource.request() as grant:
                yield grant
                yield env.timeout(10.0)
        except Interrupt:
            pass

    def waiter():
        with resource.request() as grant:
            yield grant
            granted.append(env.now)

    proc = env.process(holder())
    env.process(waiter())
    env.run(until=env.timeout(2.0))
    proc.interrupt("stop")
    env.run()
    assert granted == [2.0]
    assert resource.count == 0


def test_priority_grants_keep_their_event():
    env = RecordingEnvironment()
    resource = PriorityResource(env, capacity=1)
    request = resource.request(priority=0)
    assert request.triggered and not request.processed
    assert env.scheduled == [request]


#: Driver operations: request by a new user, release (or cancel) the
#: oldest outstanding request, release the newest, or let time pass.
RESOURCE_OPS = st.lists(
    st.one_of(
        st.just(("request",)),
        st.just(("release_oldest",)),
        st.just(("release_newest",)),
        st.tuples(st.just("wait"),
                  st.floats(min_value=0.0, max_value=2.0,
                            allow_nan=False, allow_infinity=False)),
    ),
    max_size=40,
)


def _grant_log(resource_class, capacity, ops):
    """Which request each operation granted, when, and when each grant's
    waiter resumed."""
    env = Environment()
    resource = resource_class(env, capacity=capacity)
    outstanding = []
    names = {}
    seen = set()
    log = []
    resumed = []

    def note_grants(step):
        for request in outstanding:
            if request.triggered and request not in seen:
                seen.add(request)
                log.append((step, names[request], env.now))

    def driver():
        for step, op in enumerate(ops):
            if op[0] == "request":
                request = resource.request()
                name = names[request] = len(names)
                outstanding.append(request)
                if request.processed:
                    resumed.append((name, env.now))
                else:
                    request.callbacks.append(
                        lambda _, name=name: resumed.append((name, env.now)))
            elif op[0] == "wait":
                yield env.timeout(op[1])
            elif outstanding:
                index = 0 if op[0] == "release_oldest" else -1
                resource.release(outstanding.pop(index))
            note_grants(step)

    env.run(until=env.process(driver()))
    env.run()
    return log, sorted(resumed), [names[r] for r in resource.users]


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=3), ops=RESOURCE_OPS)
def test_immediate_grants_match_the_queued_path(capacity, ops):
    """Same grants, by the same operation, at the same times, in the same
    order, and the same holders at the end."""
    assert (_grant_log(Resource, capacity, ops)
            == _grant_log(QueuedResource, capacity, ops))


# ---------------------------------------------------------------------------
# put_nowait without the dispatch loop
# ---------------------------------------------------------------------------

def test_put_nowait_hands_the_item_to_the_oldest_waiting_get():
    env = Environment()
    store = Store(env)
    first, second = store.get(), store.get()
    store.put_nowait("a")
    assert first.triggered and first.value == "a"
    assert not second.triggered and store.items == []
    store.put_nowait("b")
    store.put_nowait("c")
    assert second.value == "b" and store.items == ["c"]


#: Driver operations: get, put the next value, cancel the oldest pending
#: get, or let time pass.
STORE_OPS = st.lists(
    st.sampled_from(["get", "put", "cancel", "wait"]), max_size=40)


def _store_log(store_class, ops):
    """Each get's value, and every scheduled event, by get number."""
    env = RecordingEnvironment()
    store = store_class(env)
    gets = []
    pending = []
    values = []

    def driver():
        for index, op in enumerate(ops):
            if op == "get":
                get = store.get()
                gets.append(get)
                pending.append(get)
                get.callbacks.append(
                    lambda event, n=len(gets): values.append(
                        (n, event.value, env.now)))
            elif op == "put":
                store.put_nowait(index)
            elif op == "cancel":
                waiting = [get for get in pending if not get.triggered]
                if waiting:
                    waiting[0].cancel()
                    pending.remove(waiting[0])
            else:
                yield env.timeout(1.0)

    env.run(until=env.process(driver()))
    env.run()
    number = {id(get): n for n, get in enumerate(gets, 1)}
    scheduled = [number.get(id(event), "other") for event in env.scheduled]
    return values, scheduled, list(store.items)


@settings(max_examples=300, deadline=None)
@given(ops=STORE_OPS)
def test_put_nowait_fast_path_matches_dispatch(ops):
    assert _store_log(Store, ops) == _store_log(DispatchStore, ops)


@settings(max_examples=200, deadline=None)
@given(ops=STORE_OPS)
def test_priority_put_nowait_fast_path_matches_dispatch(ops):
    assert (_store_log(PriorityStore, ops)
            == _store_log(DispatchPriorityStore, ops))
