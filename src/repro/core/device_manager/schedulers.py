"""Task schedulers for the Device Manager's central queue.

The paper's Device Manager executes tasks "in a First-In-First-Out order";
that remains the default.  Because the central queue is the single point
where time sharing happens, it is also the natural place to experiment with
SLA-aware policies — the paper itself notes that "the metrics priority can
be chosen depending on the system and applications SLA".  This module
provides the FIFO baseline and three alternatives used by the scheduling
ablation:

* :class:`PriorityScheduler` — strict client priority classes;
* :class:`SJFScheduler` — shortest (estimated) task first, non-preemptive;
* :class:`WFQScheduler` — weighted fair queueing over clients via
  start-time virtual clocks.

Estimated task durations come from the same kernel latency models the
board uses, so SJF/WFQ are realizable policies, not oracles.
"""

from __future__ import annotations

import abc
import heapq
from typing import Callable, Dict, List, Optional

from ...sim import Environment, PriorityItem, PriorityStore, Store
from .tasks import Task


class TaskScheduler(abc.ABC):
    """Order in which queued tasks reach the FPGA."""

    name = "abstract"
    #: False when :meth:`push` ignores its ``estimate``: the Device
    #: Manager then computes none.
    uses_estimates = True

    def __init__(self, env: Environment):
        self.env = env

    @abc.abstractmethod
    def push(self, task: Task, estimate: float) -> None:
        """Enqueue a task with its estimated device time (seconds)."""

    def pop(self):
        """Simulation event yielding the next task to execute."""
        return self._queue.get()

    def pop_nowait(self) -> Optional[Task]:
        """The next task, taken without an event; ``None`` if none waits."""
        if not self._queue.items:
            return None
        return self._queue.take_nowait()

    @abc.abstractmethod
    def __len__(self) -> int:
        """Tasks currently waiting."""

    def set_client_weight(self, client: str, weight: float) -> None:
        """SLA hint (ignored by weight-agnostic policies)."""

    def clear(self) -> None:
        """Drop every queued task (Device Manager crash).

        All concrete schedulers keep their backlog in ``self._queue``.
        """
        self._queue.items.clear()

    def take_client(self, client: str) -> List[Task]:
        """Remove and return every queued task owned by ``client``.

        Tasks come back in the order this policy would have served them;
        the live-migration drain uses this to checkpoint a client's
        backlog without disturbing other tenants' queue positions.
        """
        items = self._queue.items
        taken = [entry for entry in items
                 if self._entry_task(entry).client == client]
        if taken:
            items[:] = [entry for entry in items
                        if self._entry_task(entry).client != client]
            self._restore_invariant()
        return [self._entry_task(entry)
                for entry in self._order_entries(taken)]

    def _entry_task(self, entry) -> Task:
        """The task held by one backlog entry (FIFO stores tasks bare)."""
        return entry

    def _order_entries(self, entries: list) -> list:
        """Service order of a set of entries (FIFO: arrival order)."""
        return entries

    def _restore_invariant(self) -> None:
        """Repair queue internals after entries were removed in place."""


class FIFOScheduler(TaskScheduler):
    """The paper's policy: strict arrival order."""

    name = "fifo"
    uses_estimates = False

    def __init__(self, env: Environment):
        super().__init__(env)
        self._queue = Store(env)

    def push(self, task: Task, estimate: float) -> None:
        self._queue.hand_over(task)

    def __len__(self) -> int:
        return len(self._queue.items)


class _Backlog(PriorityStore):
    """A heap of :class:`PriorityItem` entries whose gets receive tasks.

    ``taken`` unwraps an entry as it is taken, by :meth:`take_nowait` or by
    the waiting get it is handed to, so a task pushed to a waiting worker
    is handed off exactly as FIFO's is.
    """

    def __init__(self, env: Environment,
                 taken: Callable[[PriorityItem], Task] = lambda e: e.item):
        super().__init__(env)
        self._taken = taken

    def take_nowait(self) -> Task:
        return self._taken(super().take_nowait())

    def _hand_over(self, entry: PriorityItem, wake) -> None:
        if self._get_queue:
            wake(self._get_queue.pop(0), self._taken(entry))
        else:
            self._insert(entry)


class _HeapBacklogMixin:
    """Shared backlog plumbing for the heap-ordered policies.

    The backlog is a :class:`_Backlog`; removing arbitrary entries
    invalidates the heap, so the mixin re-heapifies and returns the taken
    entries in priority (service) order.
    """

    def _entry_task(self, entry) -> Task:
        return entry.item

    def _order_entries(self, entries: list) -> list:
        return sorted(entries)

    def _restore_invariant(self) -> None:
        heapq.heapify(self._queue.items)


class PriorityScheduler(_HeapBacklogMixin, TaskScheduler):
    """Strict priority classes per client (lower value = served first)."""

    name = "priority"
    uses_estimates = False

    def __init__(self, env: Environment, default_priority: int = 10):
        super().__init__(env)
        self._queue = _Backlog(env)
        self._priorities: Dict[str, int] = {}
        self.default_priority = default_priority

    def set_client_priority(self, client: str, priority: int) -> None:
        self._priorities[client] = priority

    def set_client_weight(self, client: str, weight: float) -> None:
        # Higher weight → better (lower) priority value.
        self.set_client_priority(client, int(100 / max(weight, 1e-6)))

    def push(self, task: Task, estimate: float) -> None:
        priority = self._priorities.get(task.client, self.default_priority)
        self._queue.hand_over(PriorityItem(priority, task))

    def __len__(self) -> int:
        return len(self._queue.items)


class SJFScheduler(_HeapBacklogMixin, TaskScheduler):
    """Non-preemptive shortest-estimated-job-first."""

    name = "sjf"

    def __init__(self, env: Environment):
        super().__init__(env)
        self._queue = _Backlog(env)

    def push(self, task: Task, estimate: float) -> None:
        self._queue.hand_over(PriorityItem(estimate, task))

    def __len__(self) -> int:
        return len(self._queue.items)


class WFQScheduler(_HeapBacklogMixin, TaskScheduler):
    """Weighted fair queueing (start-time fair queuing approximation).

    Each client accrues virtual time proportional to consumed device time
    divided by its weight; the task with the smallest virtual start tag
    runs next, giving long-term device shares proportional to weights
    without starving anyone.
    """

    name = "wfq"

    def __init__(self, env: Environment):
        super().__init__(env)
        self._queue = _Backlog(env, self._taken)
        self._weights: Dict[str, float] = {}
        self._virtual_finish: Dict[str, float] = {}
        self._virtual_now = 0.0

    def set_client_weight(self, client: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._weights[client] = weight

    def push(self, task: Task, estimate: float) -> None:
        weight = self._weights.get(task.client, 1.0)
        start_tag = max(self._virtual_now,
                        self._virtual_finish.get(task.client, 0.0))
        finish_tag = start_tag + estimate / weight
        self._virtual_finish[task.client] = finish_tag
        self._queue.hand_over(PriorityItem(start_tag, task))

    def _taken(self, entry) -> Task:
        self._virtual_now = max(self._virtual_now, entry.priority)
        return entry.item

    def __len__(self) -> int:
        return len(self._queue.items)


_SCHEDULERS = {
    "fifo": FIFOScheduler,
    "priority": PriorityScheduler,
    "sjf": SJFScheduler,
    "wfq": WFQScheduler,
}


def make_scheduler(name: str, env: Environment) -> TaskScheduler:
    """Build a scheduler by policy name."""
    try:
        factory = _SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r} (have {sorted(_SCHEDULERS)})"
        ) from None
    return factory(env)
