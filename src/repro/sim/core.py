"""Scheduler and process machinery of the discrete-event simulation kernel.

The :class:`Environment` owns the virtual clock and the event queue.
:class:`Process` wraps a generator and resumes it whenever the event it
yielded triggers.  Time is a ``float`` in **seconds**; all latency constants
elsewhere in the package (PCIe transfers, gRPC round trips, kernel execution
times) are expressed in seconds as well.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Generator, Optional

from .events import (
    NORMAL,
    URGENT,
    Event,
    Initialize,
    Interrupt,
    SimError,
    Timeout,
)

ProcessGenerator = Generator[Event, Any, Any]

#: Hand-offs (:meth:`Event.settle`) nested on the host stack at most; a
#: deeper one is scheduled, so a relay chain of processes cannot recurse.
HANDOFF_DEPTH = 2


class EmptySchedule(SimError):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """A discrete-event simulation environment with a virtual clock.

    Example
    -------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(1.5)
    ...     return "done"
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> env.now
    1.5

    :attr:`now` is a plain attribute so that reading it costs no call,
    but only the kernel in this module writes it: anything else assigning
    it would move the clock under events already scheduled.
    ``tests/sim/test_core.py`` checks that no other code does.
    """

    __slots__ = ("now", "_queue", "_eid", "_active_proc", "_handoffs",
                 "_ids")

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time in seconds: a plain slot, read on every
        #: hop of every request, so reading it costs no call.
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Monotonic event id breaking ties at equal (time, priority); a
        #: plain int (not itertools.count) — ``schedule`` is the hottest
        #: call in the kernel and the sequence must stay 0, 1, 2, ... for
        #: bit-identical event ordering.
        self._eid = 0
        self._active_proc: Optional[Process] = None
        self._handoffs = 0
        #: The id sequence of each kind (see :meth:`new_id`).
        self._ids: defaultdict[str, count] = defaultdict(partial(count, 1))

    @property
    def _now(self) -> float:
        """Read-only alias of :attr:`now`, for code that reads the clock
        under its former private name."""
        return self.now

    @property
    def active_process(self) -> Optional["Process"]:
        """The process currently being resumed, if any."""
        return self._active_proc

    def new_id(self, kind: str) -> int:
        """The next id of ``kind`` (1, 2, 3, ...) in this simulation: a
        run's ids never depend on what the process simulated before it."""
        return next(self._ids[kind])

    # -- event factories --------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Create an event that triggers at the absolute time ``when``.

        One event where a chain of timeouts would cost one per link: a
        caller keeps the chain's float association by computing ``when``
        as ``(now + a) + b``, the time two Timeouts would fire at.
        """
        event = Event(self)
        event._ok = True
        event._value = value
        self.schedule_at(event, when)
        return event

    def process(self, generator: ProcessGenerator) -> "Process":
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events) -> Event:
        from .events import AllOf

        return AllOf(self, events)

    def any_of(self, events) -> Event:
        from .events import AnyOf

        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Enqueue ``event`` to be processed after ``delay`` seconds."""
        eid = self._eid
        self._eid = eid + 1
        heappush(self._queue, (self.now + delay, priority, eid, event))

    def schedule_at(self, event: Event, when: float,
                    priority: int = NORMAL) -> None:
        """Enqueue ``event`` to be processed at the absolute time ``when``.

        Goes through :meth:`schedule`, so a subclass overriding it sees
        every event: the clock reads ``when`` for the call, making the
        scheduled time exactly ``when`` (``now + (when - now)`` may not
        round back to it), and is restored afterwards.
        """
        now = self.now
        if when < now:
            raise ValueError(f"time {when} is before now ({now})")
        self.now = when
        try:
            self.schedule(event, 0.0, priority)
        finally:
            self.now = now

    def retime(self, event: Event, when: float) -> None:
        """Move a queued event to the absolute time ``when``.

        The event keeps its priority and its tie-break id, so it takes
        the place among same-instant events it would have had if it had
        been scheduled for ``when`` in the first place.  Nothing new is
        scheduled.  Linear in the queue length: for rare corrections, not
        for the hot path.
        """
        if when < self.now:
            raise ValueError(f"time {when} is before now ({self.now})")
        queue = self._queue
        for index, (_when, priority, eid, queued) in enumerate(queue):
            if queued is event:
                queue[index] = (when, priority, eid, event)
                heapify(queue)
                return
        raise SimError(f"{event!r} is not queued")

    def _hand_off(self, event: Event, callback) -> bool:
        """Resume the lone waiter of ``event`` now, if it is a process."""
        if (getattr(callback, "__func__", None) is not Process._resume
                or callback.__self__._target is not event
                or self._handoffs >= HANDOFF_DEPTH):
            return False
        event.callbacks = None
        self._handoffs += 1
        callback(event)  # a process's resume raises nothing
        self._handoffs -= 1
        return True

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next scheduled event, advancing the clock."""
        try:
            when, _prio, _eid, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        self.now = when
        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)

        if event._ok is False and not event.defused:
            # Nobody handled this failure: surface it to the caller of run().
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a time
        (run up to that time), or an :class:`Event` (run until it triggers,
        returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return stop_event.value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self.now:
                raise ValueError(
                    f"until ({stop_time}) must not be before now ({self.now})"
                )

        stopped = False
        result: Any = None

        if stop_event is not None:

            def _stop(event: Event) -> None:
                nonlocal stopped, result
                stopped = True
                result = event._value
                if not event._ok:
                    event.defused = True

            stop_event.callbacks.append(_stop)

        # The event loop below is :meth:`peek` + :meth:`step` inlined —
        # these dominate multi-hour load tests (hundreds of thousands of
        # iterations), so the queue and heappop are bound locally and no
        # method dispatch happens per event.
        queue = self._queue
        pop = heappop
        while True:
            if stopped:
                if stop_event is not None and not stop_event.ok:
                    raise result
                return result
            if not queue:
                if stop_event is not None:
                    raise SimError("simulation ended before the awaited event")
                return None
            if stop_time is not None and queue[0][0] > stop_time:
                self.now = stop_time
                return None
            when, _prio, _eid, event = pop(queue)
            self.now = when
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event.defused:
                # Nobody handled this failure: surface it to run()'s caller.
                raise event._value


class Process(Event):
    """A running simulation process.

    A process *is* an event: it triggers when the wrapped generator returns
    (with the return value) or raises (as a failure).  Other processes can
    therefore ``yield`` a process to join it.  A return nobody joins yet
    is processed at once, with no event; a failure is always scheduled, so
    an unhandled one reaches :meth:`Environment.run`.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: Environment, generator: ProcessGenerator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._ok is None

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        The interrupt is delivered asynchronously (as an urgent event) so the
        interrupting process keeps running first.
        """
        if not self.is_alive:
            raise SimError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise SimError("a process cannot interrupt itself")

        import inspect

        if inspect.getgeneratorstate(self._generator) == inspect.GEN_CREATED:
            # The generator never ran: a throw() would raise at its first
            # line, *before* any try block, so no handler inside the
            # process can catch it.  Close the generator instead — the
            # pending Initialize resume then sees StopIteration and the
            # process completes normally.
            self._generator.close()
            return

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks = [self._interrupted]
        self.env.schedule(interrupt_event, 0.0, URGENT)
        self._detach()

    def _detach(self) -> None:
        # Leave the awaited event, so its trigger cannot resume us twice.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            # Withdraw cancellable waits (store gets, resource requests) so
            # a dead waiter never swallows an item or holds a queue slot.
            cancel = getattr(self._target, "cancel", None)
            if callable(cancel) and not self._target.triggered:
                cancel()
        self._target = None

    def _interrupted(self, event: Event) -> None:
        if not self.is_alive:
            return  # an earlier interrupt, delivered first, ended it
        # Interrupted beneath its interrupter, it may have a target since.
        self._detach()
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Resume the generator with the value (or failure) of ``event``."""
        env = self.env
        previous = env._active_proc
        env._active_proc = self
        self._target = None
        # Bound once per resume, not once per yield: this callback runs
        # for every step of every process.
        send = self._generator.send
        try:
            while True:
                try:
                    if event._ok:
                        next_event = send(event._value)
                    else:
                        event.defused = True
                        next_event = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    if self.callbacks:
                        env.schedule(self, 0.0, NORMAL)
                    else:
                        # Nobody joins it yet: processed at once, no event.
                        self.callbacks = None
                    break
                except BaseException as exc:
                    self._ok = False
                    self._value = exc
                    env.schedule(self, 0.0, NORMAL)
                    break

                if not isinstance(next_event, Event):
                    exc = RuntimeError(
                        f"process yielded a non-event: {next_event!r}"
                    )
                    self._ok = False
                    self._value = exc
                    env.schedule(self, 0.0, NORMAL)
                    break

                if next_event.callbacks is not None:
                    # Not yet processed: wait for it.
                    next_event.callbacks.append(self._resume)
                    self._target = next_event
                    break
                # Already processed: loop and resume immediately with it.
                event = next_event
        finally:
            env._active_proc = previous
