"""The network fault plane: message-level fault decisions.

Installed as ``network.faults`` on the RPC :class:`~repro.rpc.network.Network`
(``None`` by default).  When installed, every transmission of a control
message or a unary reply consults :meth:`NetworkFaultPlane.message_action`,
which returns a verdict: drop, delay, or pass.  The transports turn those
verdicts into a reliable, ordered connection (see
:mod:`repro.rpc.transport`): a dropped transmission is sent again, so a
verdict costs time, and loss reaches the application only when the
connection breaks.

A verdict is a pure function of the seed and the message's link, id and
attempt (counter-based draws, as in Salmon et al., "Parallel Random Numbers:
As Easy as 1, 2, 3", SC'11), so it depends on neither the order messages
are sent, delivered or served in nor the draws of other links.  Ids follow
creation order, though: two messages created at one instant by different
processes trade fates if that order changes.  While two hosts are
partitioned every message between them drops, whatever its draw.
"""

from __future__ import annotations

import zlib
from typing import Dict, FrozenSet, NamedTuple, Set

_MASK = (1 << 64) - 1
#: SplitMix64's increment (the golden ratio in 64-bit fixed point).
_GAMMA = 0x9E3779B97F4A7C15


def _mix(value: int) -> int:
    """SplitMix64's finaliser: a bijective avalanche of a 64-bit word."""
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
    return value ^ (value >> 31)


def _keyed_draw(*keys: int) -> float:
    """A uniform float in ``[0, 1)`` that is a pure function of ``keys``."""
    state = 0
    for key in keys:
        state = _mix((state + key + _GAMMA) & _MASK)
    return (state >> 11) * (1.0 / (1 << 53))


class MessageVerdict(NamedTuple):
    """Outcome of one fault decision for one transmission."""

    drop: bool = False
    delay: float = 0.0


#: Shared no-fault verdict (hot path: avoid one allocation per message).
PASS = MessageVerdict()
_DROP = MessageVerdict(drop=True)


class NetworkFaultPlane:
    """Seeded drop/delay/partition decisions for control messages.

    One uniform draw per transmission classifies it against the cumulative
    rate bands ``[drop | delay | pass]``; rates are fractions in ``[0, 1]``
    and their sum must not exceed 1.
    """

    def __init__(
        self,
        seed: int = 1,
        drop_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay: float = 1e-3,
    ):
        if min(drop_rate, delay_rate) < 0:
            raise ValueError("fault rates must be non-negative")
        if drop_rate + delay_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        self.seed = int(seed)
        self.drop_rate = drop_rate
        self.delay_rate = delay_rate
        self.delay = delay
        #: Unordered host pairs currently partitioned from each other.
        self._partitions: Set[FrozenSet[str]] = set()
        #: Hosts currently isolated from everyone.
        self._isolated: Set[str] = set()
        self.counters: Dict[str, int] = {
            "delivered": 0,
            "dropped": 0,
            "delayed": 0,
            "partitioned": 0,
        }

    # -- partitions ---------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Sever the link between hosts ``a`` and ``b`` (both directions)."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Restore the link between hosts ``a`` and ``b``."""
        self._partitions.discard(frozenset((a, b)))

    def isolate(self, host: str) -> None:
        """Cut a host off from every other host."""
        self._isolated.add(host)

    def rejoin(self, host: str) -> None:
        """Reconnect an isolated host."""
        self._isolated.discard(host)

    def is_partitioned(self, src: str, dst: str) -> bool:
        if src == dst:
            return False  # loopback never partitions
        if src in self._isolated or dst in self._isolated:
            return True
        return frozenset((src, dst)) in self._partitions

    # -- per-message decision ----------------------------------------------
    def message_action(self, src: str, dst: str, message,
                       reply: bool = False) -> MessageVerdict:
        """Decide the fate of ``message`` on the ``src`` → ``dst`` link.

        ``message.attempt`` is keyed because a resend reuses its message's
        id; ``reply`` judges the answer to a unary call instead, whose key
        would otherwise equal the request's on a same-node link.
        """
        counters = self.counters
        verdict = PASS
        if self.is_partitioned(src, dst):
            counters["partitioned"] += 1
            verdict = _DROP
        elif self.drop_rate or self.delay_rate:
            # A stable link key: PYTHONHASHSEED randomises ``hash()``.
            link = zlib.crc32(f"{src}\0{dst}".encode())
            draw = _keyed_draw(self.seed, link, message.id, message.attempt,
                               reply)
            if draw < self.drop_rate:
                verdict = _DROP
            elif draw < self.drop_rate + self.delay_rate:
                counters["delayed"] += 1
                verdict = MessageVerdict(delay=self.delay)
        counters["dropped" if verdict.drop else "delivered"] += 1
        return verdict
