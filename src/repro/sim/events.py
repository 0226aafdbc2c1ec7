"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic process-interaction style (as popularised by
SimPy): simulation *processes* are Python generators that ``yield`` events,
and the :class:`~repro.sim.core.Environment` resumes them when those events
trigger.  This module defines the event types; the scheduler lives in
:mod:`repro.sim.core`.

Every component of the BlastFunction reproduction — the FPGA boards, the
gRPC/shared-memory transports, the Device Manager worker, the load
generators — is a process exchanging these events, which is what makes the
whole distributed system deterministic and fast to simulate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .core import Environment, Process


#: Scheduling priorities (lower sorts first at equal timestamps).
URGENT = 0
NORMAL = 1


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The Accelerators Registry uses interrupts to model Kubernetes killing a
    function instance during migration.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *untriggered*, becomes *triggered* once :meth:`succeed`
    or :meth:`fail` schedules it, and *processed* after its callbacks ran
    (:meth:`settle` may process it at once).
    Processes wait for an event by yielding it.
    """

    #: Events are the unit currency of the simulation — hundreds of
    #: thousands are allocated per load test, so they carry no __dict__.
    #: Subclasses outside this package may omit __slots__ and regain one.
    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        #: Set when a failure was anticipated by someone (prevents the
        #: "unhandled failure" crash when nobody waits on the event).
        self.defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to occur."""
        return self._ok is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception).  Valid once triggered."""
        if self._ok is None:
            raise SimError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._ok is not None:
            raise SimError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, 0.0, NORMAL)
        return self

    def settle(self, value: Any = None) -> "Event":
        """Succeed, processed at once when nobody or one process waits.

        A lone waiting process resumes inside this call (a *hand-off*, at
        most :data:`~repro.sim.core.HANDOFF_DEPTH` deep), so its caller
        does its own bookkeeping first; a later waiter resumes at once.
        Both run ahead of the events queued for this instant.  Otherwise
        this is :meth:`succeed`.  Every waiter attaches before the trigger
        or checks :attr:`triggered` first.
        """
        if self._ok is not None:
            return self.succeed(value)
        self._ok = True
        self._value = value
        callbacks = self.callbacks
        if not callbacks:
            self.callbacks = None
        elif len(callbacks) > 1 or not self.env._hand_off(self, callbacks[0]):
            self.env.schedule(self, 0.0, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception`` as its value."""
        if self._ok is not None:
            raise SimError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, 0.0, NORMAL)
        return self

class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay, NORMAL)


class Initialize(Event):
    """Immediate event used internally to start a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks = [process._resume]
        env.schedule(self, 0.0, URGENT)


class ConditionValue:
    """Ordered mapping of the events that triggered inside a condition."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(key)
        return key._value

class Condition(Event):
    """Composite event evaluating a predicate over child events.

    Use :class:`AllOf` / :class:`AnyOf` (or ``&`` / ``|``) rather than
    instantiating this directly.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

        # An empty condition is trivially satisfied.
        if not self._events and self._ok is None:
            self.succeed(ConditionValue())

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None:
                # Processed (actually occurred) — not merely scheduled, which
                # matters for Timeouts whose occurrence lies in the future.
                value.events.append(event)

    def _collect_value(self) -> ConditionValue:
        value = ConditionValue()
        self._populate_value(value)
        return value

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            if not event._ok:
                event.defused = True
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            trigger = self.settle if self.callbacks else self.succeed
            trigger(self._collect_value())

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """Predicate: every child event triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """Predicate: at least one child event triggered."""
        return count > 0 or not events


class AllOf(Condition):
    """Event that triggers once all of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Event that triggers once any of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_events, events)
