"""Scriptable fault scenarios driven from the DES clock.

A :class:`FaultScript` is a time-ordered list of fault actions — crash this
Device Manager at t=6, partition these hosts from t=4 to t=9, lock up that
board at t=12 — executed by a single driver process, so a scenario is fully
determined by its schedule (plus the fault plane's seed for probabilistic
message faults).

The convenience methods cover every injection point of the subsystem; raw
callables can be scheduled with :meth:`at` for anything else.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..sim import Environment
from .plane import NetworkFaultPlane


class FaultScript:
    """A deterministic, clock-driven schedule of fault injections."""

    def __init__(self, env: Environment):
        self.env = env
        self._actions: List[Tuple[float, int, str, Callable[[], Any]]] = []
        #: Log of (time, description) for every action executed.
        self.executed: List[Tuple[float, str]] = []
        self._armed = False

    # -- schedule construction ---------------------------------------------
    def at(self, time: float, description: str,
           action: Callable[[], Any]) -> "FaultScript":
        """Schedule ``action()`` at absolute simulation ``time``."""
        if self._armed:
            raise RuntimeError("cannot extend an armed fault script")
        self._actions.append((time, len(self._actions), description, action))
        return self

    def crash_manager(self, manager, at: float,
                      restart_after: Optional[float] = None) -> "FaultScript":
        """Crash a Device Manager; optionally restart it after a delay."""
        self.at(at, f"crash {manager.name}", manager.crash)
        if restart_after is not None:
            self.at(at + restart_after, f"restart {manager.name}",
                    manager.restart)
        return self

    def crash_registry(self, injector, at: float,
                       restart_after: Optional[float] = None
                       ) -> "FaultScript":
        """Kill the Accelerators Registry via a
        :class:`~repro.faults.registry_crash.RegistryCrash` injector;
        optionally schedule its snapshot+WAL restart after a delay."""
        self.at(at, "crash registry", injector.kill)
        if restart_after is not None:
            self.at(at + restart_after, "restart registry",
                    injector.restore)
        return self

    def kill_worker(self, manager, at: float, index: int = 0) -> "FaultScript":
        """Kill one worker process of a Device Manager."""
        return self.at(at, f"kill worker {index} of {manager.name}",
                       lambda: manager.kill_worker(index))

    def lock_board(self, board, at: float,
                   recover_after: Optional[float] = None) -> "FaultScript":
        """Lock up a board; optionally recover it after a delay."""
        self.at(at, f"lock up {board.name}", board.lock_up)
        if recover_after is not None:
            self.at(at + recover_after, f"recover {board.name}",
                    board.recover)
        return self

    def partition(self, plane: NetworkFaultPlane, a: str, b: str, at: float,
                  heal_after: Optional[float] = None) -> "FaultScript":
        """Partition two hosts; optionally heal the link after a delay."""
        self.at(at, f"partition {a}<->{b}", lambda: plane.partition(a, b))
        if heal_after is not None:
            self.at(at + heal_after, f"heal {a}<->{b}",
                    lambda: plane.heal(a, b))
        return self

    # -- execution ----------------------------------------------------------
    def arm(self):
        """Start the driver process; returns it (joinable)."""
        if self._armed:
            raise RuntimeError("fault script already armed")
        self._armed = True
        return self.env.process(self._drive())

    def _drive(self):
        for when, _order, description, action in sorted(self._actions):
            if when > self.env.now:
                yield self.env.timeout(when - self.env.now)
            action()
            self.executed.append((self.env.now, description))
