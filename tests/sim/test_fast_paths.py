"""Event-free fast paths of the kernel.

An uncontended :class:`Resource` request is granted on the spot and comes
back already processed, :meth:`Store.put_nowait` hands an item to a
waiting get without the generic ``_dispatch`` loop, a settled event or a
finished process that nobody waits for yet is processed at once, and a
settled event hands off to its lone waiting process.  Each must decide
exactly what the general path decides; the properties below compare each
fast path with the general one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    PriorityStore,
    Resource,
    Store,
)
from repro.sim.events import NORMAL


def examples(count):
    """``count`` examples, or more under a longer Hypothesis profile
    (``HYPOTHESIS_PROFILE=ci``)."""
    return max(count, settings.default.max_examples)


class QueuedResource(Resource):
    """A Resource whose every request queues and is granted by an event."""

    def _request(self, request):
        self.queue.append(request)
        self._trigger_waiters()


class DispatchStore(Store):
    """A Store whose put_nowait always runs the generic dispatch loop."""

    def _hand_over(self, item, wake):
        self._insert(item)
        self._dispatch()


class DispatchPriorityStore(PriorityStore):
    def _hand_over(self, item, wake):
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
    assert first.callbacks is None and first.ok
    assert second.callbacks is None
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
    assert resource.users == []


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
    assert holder.callbacks is None
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
    assert resource.users == []


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
                if request.callbacks is None:
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


@settings(max_examples=examples(300), deadline=None)
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


@settings(max_examples=examples(300), deadline=None)
@given(ops=STORE_OPS)
def test_put_nowait_fast_path_matches_dispatch(ops):
    assert _store_log(Store, ops) == _store_log(DispatchStore, ops)


@settings(max_examples=examples(200), deadline=None)
@given(ops=STORE_OPS)
def test_priority_put_nowait_fast_path_matches_dispatch(ops):
    assert (_store_log(PriorityStore, ops)
            == _store_log(DispatchPriorityStore, ops))


# ---------------------------------------------------------------------------
# Settled events and unjoined process ends
# ---------------------------------------------------------------------------

class SucceedEvent(Event):
    """An Event whose settle is the generic, always-scheduled succeed."""

    __slots__ = ()

    settle = Event.succeed


#: Driver operations on four events (or four workers): attach a waiter,
#: trigger (or start a worker, which ends 0, 0.5 or 1 s later), or let
#: time pass; ("queue",) schedules an unrelated event at the current
#: instant, so ties with the queued events show.
TARGET = st.integers(min_value=0, max_value=3)
SETTLE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("wait"), TARGET),
        st.tuples(st.just("trigger"), TARGET),
        st.just(("queue",)),
        st.tuples(st.just("time"), st.sampled_from([0.0, 0.5, 1.0])),
    ),
    max_size=40,
)


def _unwatched_removed(scheduled, unwatched):
    return [name for name in scheduled if name not in unwatched]


def _settle_log(event_class, ops):
    """A log of every resume (with its time and value) and of the
    driver's trigger calls; every scheduled event; the triggers that had
    at most one waiter; and the lone process waiter of each trigger that
    had one."""
    env = RecordingEnvironment()
    events = [event_class(env) for _ in range(4)]
    names = {id(event): f"e{index}" for index, event in enumerate(events)}
    log = []
    at_most_one_waiter = set()
    lone_waiter = {}

    def waiter(number, event):
        # Checks ``triggered`` first, as every settle call site's waiter.
        value = event.value if event.triggered else (yield event)
        log.append((f"w{number}", env.now, value))

    def driver():
        for number, op in enumerate(ops):
            if op[0] == "wait":
                proc = env.process(waiter(number, events[op[1]]))
                names[id(proc)] = f"w{number}"
            elif op[0] == "trigger" and not events[op[1]].triggered:
                event = events[op[1]]
                if len(event.callbacks) <= 1:
                    at_most_one_waiter.add(names[id(event)])
                if len(event.callbacks) == 1:
                    lone_waiter[number] = names[id(event.callbacks[0]
                                                   .__self__)]
                log.append(("trigger", number))
                event.settle(number)
                log.append(("returned", number))
            elif op[0] == "queue":
                tick = env.timeout(0.0)
                names[id(tick)] = f"q{number}"
                tick.callbacks.append(
                    lambda _, n=number: log.append((f"q{n}", env.now)))
            elif op[0] == "time":
                yield env.timeout(op[1])

    env.run(until=env.process(driver()))
    env.run()
    scheduled = [names.get(id(event), type(event).__name__)
                 for event in env.scheduled]
    return log, scheduled, at_most_one_waiter, lone_waiter


def _resumes(log):
    return sorted((entry for entry in log
                   if entry[0] not in ("trigger", "returned")), key=repr)


@settings(max_examples=examples(300), deadline=None)
@given(ops=SETTLE_OPS)
def test_settle_hands_off_to_a_lone_process_waiter(ops):
    """Against the always-scheduled succeed path: the same resumes, at
    the same times, with the same values; a lone process waiter resumes
    inside the trigger call, so ahead of the ticks queued earlier at that
    instant; and the same scheduled events, less every trigger that had
    at most one process waiter."""
    log, scheduled, handed, lone = _settle_log(Event, ops)
    base_log, base_scheduled, base_handed, _ = _settle_log(SucceedEvent, ops)
    assert _resumes(log) == _resumes(base_log)
    for number, name in lone.items():
        at = log.index(("trigger", number))
        assert log[at + 1][0] == name
        assert log[at + 2] == ("returned", number)
    assert handed == base_handed
    assert scheduled == [name for name in base_scheduled
                         if name not in handed]


def _relay(event_class, length):
    """``length`` processes, each waiting on its event and settling the
    next one's: the order they ran in, the last value and the time."""
    env = Environment()
    events = [event_class(env) for _ in range(length + 1)]
    order = []

    def relay(index):
        value = yield events[index]
        order.append(index)
        events[index + 1].settle(value + 1)

    for index in range(length):
        env.process(relay(index))
    env.run()
    events[0].settle(0)
    env.run()
    return order, events[-1].value, env.now


def test_a_long_relay_chain_stays_within_the_hand_off_depth():
    # Unbounded, each hand-off would nest the next one's stack frames
    # and overflow the recursion limit.
    order, value, now = _relay(Event, 1000)
    assert (order, value, now) == _relay(SucceedEvent, 1000)
    assert order == list(range(1000)) and value == 1000


def test_an_interrupt_from_a_handed_off_process_detaches_the_next_wait():
    """B, resumed inside A's settle, interrupts A while A is on the stack
    beneath it: A's next wait must not resume it after the interrupt."""
    env = Environment()
    go = Event(env)
    woke = []

    def interrupter():
        yield go
        interrupted.interrupt("stop")

    def victim():
        yield env.timeout(1.0)
        go.settle()
        assert env.active_process is interrupted
        try:
            yield env.timeout(5.0)
        except Interrupt:
            yield env.timeout(10.0)
            woke.append(env.now)

    interrupted = env.process(victim())
    env.process(interrupter())
    env.run()
    assert woke == [11.0]


def _placeholder(_event):
    """A callback that forces an end onto the scheduled path."""


def _ends_log(joined_always, ops):
    """When each joiner resumed, with what, and every scheduled event.

    With ``joined_always`` each worker carries a placeholder callback, so
    its end always takes the generic scheduled path.
    """
    env = RecordingEnvironment()
    workers = {}
    names = {}
    resumed = []
    joined = set()

    def worker(number, delay):
        if delay:
            yield env.timeout(delay)
        return number

    def joiner(number, proc):
        # Checks ``triggered`` first: never yields a process that ended.
        if proc.triggered:
            value = proc.value
        else:
            joined.add(names[id(proc)])
            value = yield proc
        resumed.append((number, env.now, value))

    def driver():
        for number, op in enumerate(ops):
            if op[0] == "trigger" and op[1] not in workers:
                delay = 0.5 * (number % 3)
                proc = workers[op[1]] = env.process(worker(number, delay))
                names[id(proc)] = f"p{op[1]}"
                if joined_always:
                    proc.callbacks.append(_placeholder)
            elif op[0] == "wait" and op[1] in workers:
                proc = env.process(joiner(number, workers[op[1]]))
                names[id(proc)] = f"j{number}"
            elif op[0] == "queue":
                tick = env.timeout(0.0)
                names[id(tick)] = f"q{number}"
                tick.callbacks.append(
                    lambda _, n=number: resumed.append((f"q{n}", env.now)))
            elif op[0] == "time":
                yield env.timeout(op[1])

    env.run(until=env.process(driver()))
    env.run()
    scheduled = [names.get(id(event), type(event).__name__)
                 for event in env.scheduled]
    unjoined = {names[id(proc)] for proc in workers.values()} - joined
    return resumed, _unwatched_removed(scheduled, unjoined)


@settings(max_examples=examples(300), deadline=None)
@given(ops=SETTLE_OPS)
def test_unjoined_ends_match_the_scheduled_path(ops):
    """A process end nobody joins is processed at once; joiners that
    check ``triggered`` first see the same resumes and the same events,
    less those unjoined ends."""
    assert _ends_log(False, ops) == _ends_log(True, ops)


def _late_waiter_order(make_target):
    """Order of an event queued first and a waiter that yields a target
    triggered at the same instant, before the target is processed."""
    env = Environment()
    order = []
    env.timeout(0.0).callbacks.append(lambda _: order.append("queued"))
    target = make_target(env)

    def late():
        order.append(("late", (yield target)))

    env.process(late())
    env.run()
    return order


def _worker():
    return "v"
    yield  # pragma: no cover - marks a generator


def _joined_worker(env):
    proc = env.process(_worker())
    proc.callbacks.append(_placeholder)
    return proc


def test_a_late_waiter_resumes_at_once():
    """Tie-order rule: a waiter that yields a settled event or a finished
    process at the instant it triggered resumes at once.  On the generic
    path it resumes after the events already queued for that instant."""
    assert _late_waiter_order(lambda env: Event(env).settle("v")) == [
        ("late", "v"), "queued"]
    assert _late_waiter_order(lambda env: Event(env).succeed("v")) == [
        "queued", ("late", "v")]
    # The worker starts (urgently) and ends before the waiter starts.
    assert _late_waiter_order(lambda env: env.process(_worker())) == [
        ("late", "v"), "queued"]
    assert _late_waiter_order(_joined_worker) == ["queued", ("late", "v")]
