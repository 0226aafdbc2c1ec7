"""Shared periodic timer wheel: one DES timer multiplexing many callbacks.

At fleet scale the naive pattern — one :class:`~repro.sim.events.Timeout`
per board per heartbeat/lease/scrape interval — floods the event queue
with thousands of identical periodic events.  A :class:`TimerWheel` keeps
**one** repeating timeout and fans out to any number of subscribers on
each tick, so the DES event volume of all periodic control-plane work is
O(1) per interval instead of O(boards).

Subscribers register a plain callback with a period expressed in ticks
(multiples of the wheel's base tick), so heartbeats, lease checks and
metric scrapes with different intervals can share one wheel as long as
their intervals are multiples of the base tick.

Invariants:

* callbacks run synchronously inside the wheel's process, in subscription
  order — they must not ``yield`` (spawn a process for anything that has
  to wait on simulated time);
* a callback sees ``env.now`` equal to the tick time; ticks never skew or
  drift (the wheel re-arms exactly ``tick`` seconds ahead each round);
* subscribing or cancelling from inside a callback takes effect on the
  next tick.
"""

from __future__ import annotations

from typing import Callable, List

from .core import Environment
from .events import Interrupt


class WheelSubscription:
    """Handle returned by :meth:`TimerWheel.every`; cancel via the wheel."""

    __slots__ = ("period_ticks", "callback", "active")

    def __init__(self, period_ticks: int, callback: Callable[[], None]):
        self.period_ticks = period_ticks
        self.callback = callback
        self.active = True


class TimerWheel:
    """One shared periodic timer for many control-plane subscribers."""

    def __init__(self, env: Environment, tick: float):
        if tick <= 0:
            raise ValueError("wheel tick must be > 0")
        self.env = env
        self.tick = tick
        #: Number of ticks fired so far.
        self.ticks = 0
        self._subs: List[WheelSubscription] = []
        self._proc = env.process(self._run())

    def every(self, period_ticks: int,
              callback: Callable[[], None]) -> WheelSubscription:
        """Invoke ``callback`` every ``period_ticks`` ticks."""
        if period_ticks < 1:
            raise ValueError("period must be at least one tick")
        sub = WheelSubscription(int(period_ticks), callback)
        self._subs.append(sub)
        return sub

    def ticks_for(self, interval: float) -> int:
        """Ticks closest to ``interval``; the interval must be a multiple
        of the base tick (within float tolerance)."""
        ticks = max(1, round(interval / self.tick))
        if abs(ticks * self.tick - interval) > 1e-9 * max(1.0, interval):
            raise ValueError(
                f"interval {interval} is not a multiple of tick {self.tick}"
            )
        return ticks

    def cancel(self, sub: WheelSubscription) -> None:
        sub.active = False
        try:
            self._subs.remove(sub)
        except ValueError:
            pass

    # -- process ---------------------------------------------------------
    def _run(self):
        try:
            while True:
                yield self.env.timeout(self.tick)
                self.ticks += 1
                ticks = self.ticks
                # Snapshot so same-tick (un)subscriptions defer one round.
                for sub in list(self._subs):
                    if sub.active and ticks % sub.period_ticks == 0:
                        sub.callback()
        except Interrupt:
            return
