"""Shared resources for simulation processes.

Three families:

* :class:`Resource` / :class:`PriorityResource` — limited-capacity resources
  with FIFO (or priority) wait queues.  The FPGA board's execution lock and
  the PCIe link are resources.
* :class:`Store` / :class:`FilterStore` / :class:`PriorityStore` — unbounded
  or bounded FIFO object queues.  The Device Manager's central task queue and
  every message channel are stores.
* :class:`Container` — a continuous quantity (used for accounting tests).
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Callable, Optional

from .core import Environment
from .events import Event, SimError


class Request(Event):
    """Request event for acquiring a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        self.resource.release(self)


class PriorityRequest(Request):
    """A :class:`Request` with a priority (lower value is served first)."""

    __slots__ = ("priority", "time")

    def __init__(self, resource: "PriorityResource", priority: int = 0):
        self.priority = priority
        self.time = resource.env.now
        super().__init__(resource)


class Resource:
    """A resource with ``capacity`` slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Request a slot; the returned event triggers when granted.

        A request that needs no wait (a free slot, nobody queued) is
        granted on the spot and comes back already processed, so a
        process yielding it continues without an event.
        """
        return Request(self)

    def release(self, request: Request) -> None:
        """Release a held slot (or cancel a queued request)."""
        if request in self.users:
            self.users.remove(request)
        elif request in self.queue:
            self.queue.remove(request)
        if self.queue:
            self._trigger_waiters()

    def _request(self, request: Request) -> None:
        if not self.queue and len(self.users) < self._capacity:
            self.users.append(request)
            request._ok = True
            request.callbacks = None
            return
        self._enqueue(request)

    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)
        self._trigger_waiters()

    def _grant_order(self) -> list[Request]:
        return self.queue

    def _trigger_waiters(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            request = self._grant_order()[0]
            self.queue.remove(request)
            self.users.append(request)
            request.succeed()


class PriorityResource(Resource):
    """A :class:`Resource` whose wait queue is served by priority.

    Every request queues, even an uncontended one: its grant is an event.
    """

    _request = Resource._enqueue

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _grant_order(self) -> list[Request]:
        return sorted(
            self.queue,
            key=lambda r: (getattr(r, "priority", 0), getattr(r, "time", 0.0)),
        )


class StorePut(Event):
    """Event for putting an item into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._dispatch()


class StoreGet(Event):
    """Event for taking an item out of a :class:`Store`."""

    #: ``filter`` is set only by :meth:`FilterStore.get`; plain-store gets
    #: leave the slot unset and ``getattr(..., default)`` handles both.
    __slots__ = ("_store", "filter")

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self._store = store
        store._get_queue.append(self)
        store._dispatch()

    def cancel(self) -> None:
        """Withdraw an unfulfilled get from the store's wait queue.

        Called automatically when the waiting process is interrupted, so a
        dead consumer never swallows an item.
        """
        if not self.triggered:
            try:
                self._store._get_queue.remove(self)
            except ValueError:
                pass


class Store:
    """FIFO object store with optionally bounded capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._put_queue: list[StorePut] = []
        self._get_queue: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Put ``item``; the event triggers once there is room."""
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Put ``item`` now, scheduling no event.

        For fire-and-forget producers: a :class:`StorePut` nobody waits on
        is an event with no callbacks, so skipping it reorders nothing.
        Raises :class:`SimError` if the store has no room right now.
        """
        if self._put_queue or len(self.items) >= self.capacity:
            raise SimError(f"{type(self).__name__} is full")
        self._hand_over(item, Event.succeed)

    def hand_over(self, item: Any) -> None:
        """:meth:`put_nowait`, except that a waiting get is settled: a lone
        process waiting on it takes the item inside this call, ahead of
        the events already queued for this instant."""
        if self._put_queue or len(self.items) >= self.capacity:
            raise SimError(f"{type(self).__name__} is full")
        self._hand_over(item, Event.settle)

    def _hand_over(self, item: Any, wake) -> None:
        # A get waits only while the store is empty, so the item goes to
        # the oldest waiting get, exactly as _dispatch would send it.
        getters = self._get_queue
        if getters:
            wake(getters.pop(0), item)
        else:
            self._insert(item)

    def get(self) -> StoreGet:
        """Take the oldest item; the event triggers once one is available."""
        return StoreGet(self)

    def take_nowait(self) -> Any:
        """Take the next item now, scheduling no event; the store must
        hold one (so no get waits)."""
        return self.items.pop(0)

    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._insert(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.take_nowait())
            return True
        return False

    def _dispatch(self) -> None:
        # Alternate puts and gets until neither side can make progress.
        progressed = True
        while progressed:
            progressed = False
            while self._put_queue and self._do_put(self._put_queue[0]):
                self._put_queue.pop(0)
                progressed = True
            while self._get_queue and self._do_get(self._get_queue[0]):
                self._get_queue.pop(0)
                progressed = True


class FilterStore(Store):
    """A :class:`Store` whose gets may specify a predicate."""

    def get(self, filter: Callable[[Any], bool] = lambda item: True) -> StoreGet:  # type: ignore[override]
        event = StoreGet(self)
        event.filter = filter  # type: ignore[attr-defined]
        self._dispatch()
        return event

    def _do_get(self, event: StoreGet) -> bool:
        predicate = getattr(event, "filter", lambda item: True)
        for index, item in enumerate(self.items):
            if predicate(item):
                self.items.pop(index)
                event.succeed(item)
                return True
        return False

    def _hand_over(self, item: Any, wake) -> None:
        # Gets wait here even while items are stored (their predicate
        # matched none), so the item may not go to the oldest get.
        self._insert(item)
        self._dispatch()

    def _dispatch(self) -> None:
        # Unlike the FIFO store, one blocked get must not block later gets
        # whose predicate may match.
        while self._put_queue and self._do_put(self._put_queue[0]):
            self._put_queue.pop(0)
        for event in list(self._get_queue):
            if event.triggered or self._do_get(event):
                self._get_queue.remove(event)


class PriorityItem:
    """Wrapper ordering store items by ``priority`` then insertion order."""

    _counter = count()

    def __init__(self, priority: Any, item: Any):
        self.priority = priority
        self.item = item
        self._order = next(PriorityItem._counter)

    def __lt__(self, other: "PriorityItem") -> bool:
        return (self.priority, self._order) < (other.priority, other._order)

    def __repr__(self) -> str:
        return f"PriorityItem(priority={self.priority!r}, item={self.item!r})"


class PriorityStore(Store):
    """A :class:`Store` that yields items in priority order."""

    def _insert(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def take_nowait(self) -> Any:
        return heapq.heappop(self.items)


class Container:
    """A continuous quantity with blocking put/get."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._put_queue: list[tuple[Event, float]] = []
        self._get_queue: list[tuple[Event, float]] = []

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError("amount must be > 0")
        event = Event(self.env)
        self._put_queue.append((event, amount))
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError("amount must be > 0")
        event = Event(self.env)
        self._get_queue.append((event, amount))
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue:
                event, amount = self._put_queue[0]
                if self._level + amount <= self.capacity:
                    self._level += amount
                    event.succeed()
                    self._put_queue.pop(0)
                    progressed = True
            if self._get_queue:
                event, amount = self._get_queue[0]
                if self._level >= amount:
                    self._level -= amount
                    event.succeed(amount)
                    self._get_queue.pop(0)
                    progressed = True
