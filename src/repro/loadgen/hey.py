"""Closed-loop, rate-limited load generation and latency statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..serverless.gateway import Gateway, InvocationError
from ..sim import AllOf, Environment


def _stable_hash(text: str) -> int:
    """Deterministic string hash (Python's builtin is salted per process)."""
    value = 2166136261
    for char in text.encode():
        value = ((value ^ char) * 16777619) & 0xFFFFFFFF
    return value


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); NaN for empty input."""
    if not values:
        return math.nan
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class LoadStats:
    """Result of one load run against one function endpoint."""

    function: str
    target_rate: float
    duration: float
    connections: int = 1
    sent: int = 0
    completed: int = 0
    errors: int = 0
    latencies: List[float] = field(default_factory=list)
    #: Time each in-window failed request spent before erroring (timeout,
    #: shed, instance death).  Kept separate so the success-latency columns
    #: stay comparable across runs; migration experiments fold these in to
    #: show the tail clients actually observe during a reconfiguration.
    error_latencies: List[float] = field(default_factory=list)

    @property
    def achieved_rate(self) -> float:
        """Processed requests per second (the paper's "Processed")."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return math.nan
        return sum(self.latencies) / len(self.latencies)

def run_load(
    env: Environment,
    gateway: Gateway,
    function: str,
    rate: float,
    duration: float,
    connections: int = 1,
    payload: Optional[Dict] = None,
    warmup: float = 0.0,
):
    """Process: drive a function at ``rate`` rq/s for ``duration`` seconds.

    ``hey``-style: ``connections`` closed-loop workers, each rate-capped at
    ``rate / connections``.  Requests issued during ``warmup`` are excluded
    from the statistics.  Returns :class:`LoadStats`.
    """
    if rate <= 0 or duration <= 0 or connections <= 0:
        raise ValueError("rate, duration and connections must be positive")

    stats = LoadStats(function=function, target_rate=rate, duration=duration,
                      connections=connections)
    measure_start = env.now + warmup
    end = measure_start + duration
    per_worker_rate = rate / connections
    interval = 1.0 / per_worker_rate

    def worker(offset: float):
        # Seeded LCG for ±5% send-spacing jitter: breaks the harmonic
        # phase-locking a perfectly deterministic closed loop exhibits when
        # target rates share common divisors (real HTTP stacks jitter far
        # more than this).
        lcg_state = (_stable_hash(function) + 12345) or 1
        yield env.timeout(offset)
        next_slot = env.now
        while env.now < end:
            if env.now < next_slot:
                yield env.timeout(next_slot - env.now)
            if env.now >= end:
                break
            sent_at = env.now
            in_window = sent_at >= measure_start
            if in_window:
                stats.sent += 1
            lcg_state = (lcg_state * 1103515245 + 12345) % (1 << 31)
            jitter = 1.0 + 0.05 * (2.0 * lcg_state / (1 << 31) - 1.0)
            next_slot = sent_at + interval * jitter
            try:
                latency, _result = yield from gateway.invoke(
                    function, payload
                )
            except InvocationError:
                if in_window:
                    stats.errors += 1
                    stats.error_latencies.append(env.now - sent_at)
                continue
            if in_window and env.now <= end:
                stats.completed += 1
                stats.latencies.append(latency)

    # Spread workers across the send interval, plus a deterministic
    # per-target phase: target rates in the paper's configurations share
    # harmonics (5/10/15/20 rq/s), and without jitter every endpoint would
    # fire in lockstep at the common epochs — an artifact real HTTP load
    # generators do not exhibit.
    phase = (_stable_hash(function) % 997) / 997.0 * interval
    workers = [
        env.process(worker(phase + index * interval / max(connections, 1)))
        for index in range(connections)
    ]
    yield AllOf(env, workers)
    return stats
