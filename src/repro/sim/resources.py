"""Shared resources for simulation processes.

Two families:

* :class:`Resource` — a limited-capacity resource with a FIFO wait queue.
  The FPGA board's execution lock and the PCIe link are resources.
* :class:`Store` / :class:`PriorityStore` — unbounded FIFO (or
  priority-ordered) object queues.  The Device Manager's central task queue
  and every message channel are stores.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any

from .core import Environment
from .events import Event


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

class Resource:
    """A resource with ``capacity`` slots and a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.env = env
        self._capacity = capacity
        self.users: list[Request] = []
        self.queue: list[Request] = []

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
        self.queue.append(request)
        self._trigger_waiters()

    def _trigger_waiters(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            request = self.queue.pop(0)
            self.users.append(request)
            request.succeed()


class StoreGet(Event):
    """Event for taking an item out of a :class:`Store`."""

    __slots__ = ("_store",)

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
    """Unbounded FIFO object store."""

    def __init__(self, env: Environment):
        self.env = env
        self.items: list[Any] = []
        self._get_queue: list[StoreGet] = []

    def put_nowait(self, item: Any) -> None:
        """Put ``item`` now: the oldest waiting get succeeds with it, or
        the store keeps it."""
        self._hand_over(item, Event.succeed)

    def hand_over(self, item: Any) -> None:
        """:meth:`put_nowait`, except that a waiting get is settled: a lone
        process waiting on it takes the item inside this call, ahead of
        the events already queued for this instant."""
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

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.take_nowait())
            return True
        return False

    def _dispatch(self) -> None:
        # Serve the waiting gets, oldest first, while items remain.
        while self._get_queue and self._do_get(self._get_queue[0]):
            self._get_queue.pop(0)


class PriorityItem:
    """Wrapper ordering store items by ``priority`` then insertion order."""

    _counter = count()

    def __init__(self, priority: Any, item: Any):
        self.priority = priority
        self.item = item
        self._order = next(PriorityItem._counter)

    def __lt__(self, other: "PriorityItem") -> bool:
        return (self.priority, self._order) < (other.priority, other._order)


class PriorityStore(Store):
    """A :class:`Store` that yields items in priority order."""

    def _insert(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def take_nowait(self) -> Any:
        return heapq.heappop(self.items)
