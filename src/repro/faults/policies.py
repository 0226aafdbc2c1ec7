"""Recovery policies: every knob of the failure-handling machinery.

These dataclasses are the single place where timeouts, retry budgets and
lease parameters live.  All recovery is **opt-in**: components take a policy
of ``None`` by default and then behave exactly as a build without the fault
plane (same event sequence, bit-identical goldens).  Passing a policy arms
the corresponding machinery:

* :class:`RetryPolicy` — the per-op deadline guard of the Remote OpenCL
  Library (:class:`~repro.core.remote_lib.connection.Connection`);
* :class:`HealthPolicy` — heartbeat/lease protocol between Device Managers
  and the Accelerators Registry
  (:class:`~repro.core.registry.health.HealthMonitor`);
* :class:`GatewayPolicy` — per-request retry budget, circuit breaker and
  graceful degradation at the serverless gateway
  (:class:`~repro.serverless.gateway.Gateway`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery for the Remote OpenCL Library's command queues.

    Unary calls need no retries: their connection delivers each request
    and reply once and in order, and a break fails them at once.
    """

    #: Deadline for a streamed command-queue operation to reach a terminal
    #: notification (OP_COMPLETE / OP_FAILED).  Expiry resolves the event
    #: state machine to a structured error — ops never deadlock.  ``None``
    #: disables the guard.
    op_deadline: Optional[float] = 5.0


@dataclass(frozen=True)
class HealthPolicy:
    """Heartbeat/lease parameters of the Registry's health monitor."""

    #: Device Managers renew their lease this often, seconds.
    heartbeat_interval: float = 0.5
    #: A lease older than this marks the device dead (its instances are
    #: migrated); a fresh heartbeat afterwards revives it.
    lease_timeout: float = 2.0
    #: Coalesce all heartbeat senders and the lease checker onto one shared
    #: periodic timer wheel instead of per-board DES timers and per-beat
    #: network messages.  Cuts the idle event volume from O(boards) to O(1)
    #: per interval — the fleet-scale mode.  Trade-off: coalesced
    #: heartbeats renew leases directly (healthy manager ⇒ renewed lease),
    #: so per-message network faults (loss, partition) no longer delay
    #: them; keep the default for fault-injection experiments.
    coalesce: bool = False


@dataclass(frozen=True)
class GatewayPolicy:
    """Resilience policy of the serverless gateway."""

    #: Retries after the first attempt of an invocation.
    retry_budget: int = 2
    #: First retry backoff, seconds; doubles per retry.
    retry_backoff: float = 0.05
    backoff_factor: float = 2.0
    #: Consecutive failures (per function) that trip the circuit breaker.
    breaker_threshold: int = 8
    #: Seconds the breaker stays open before admitting traffic again.
    breaker_cooldown: float = 2.0
    #: Graceful degradation: with no live instance, shed immediately
    #: (``True``) or queue the request until capacity returns (``False``,
    #: the default — the endpoint queue survives migrations).
    shed_when_unavailable: bool = False
    #: End-to-end deadline for one invocation attempt to produce a
    #: response, seconds (``None`` waits; recovery below the gateway is
    #: expected to resolve every request eventually).
    request_timeout: Optional[float] = None
