"""OpenFaaS-model gateway: function deployment and request routing.

"The Gateway is the serverless system's endpoint, which forwards the
requests to the functions and handles autoscaling."  Each deployed function
gets an endpoint backed by a request queue; instances (pods) pull from the
queue, so migrations never lose the endpoint.

Requests carry parameters only — as in FaaS benchmarking practice the
payload proper (image, matrices) is part of the warm function state, which
is what keeps end-to-end latencies in the paper's 20 ms range rather than
paying a multi-megabyte HTTP body per call on 1 Gb/s links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Dict, List, Optional

from ..cluster.apiserver import Cluster
from ..cluster.objects import DeviceQuery, PodSpec
from ..faults import GatewayPolicy
from ..sim import AnyOf, Environment, Event, Store

#: Gateway forwarding overhead per request (routing, HTTP hop), seconds.
GATEWAY_OVERHEAD = 0.6e-3


@dataclass
class Request:
    """One in-flight function invocation."""

    payload: Dict[str, Any]
    created: float
    response: Event
    id: int = field(default_factory=lambda: next(_request_ids))


_request_ids = count(1)


class InvocationError(RuntimeError):
    """The function failed to produce a response."""


@dataclass
class FunctionSpec:
    """A serverless function deployment."""

    name: str
    #: Factory building a fresh app instance per function instance.
    app_factory: Callable[[], Any]
    device_query: DeviceQuery = field(default_factory=DeviceQuery)
    replicas: int = 1
    #: "blastfunction" (Remote OpenCL Library) or "native" (vendor runtime).
    runtime: str = "blastfunction"
    #: Forced node placement (native deployments pin one function per node).
    node_name: str = ""


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one function endpoint.

    Opens after ``threshold`` consecutive failures; while open, requests
    are rejected immediately (no queueing, no backend pressure).  After
    ``cooldown`` seconds the breaker half-opens: the next request is
    admitted and its outcome closes or re-opens the circuit.
    """

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = threshold
        self.cooldown = cooldown
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0

    def is_open(self, now: float) -> bool:
        if self.opened_at is None:
            return False
        if now - self.opened_at >= self.cooldown:
            self.opened_at = None  # half-open: admit traffic again
            self.consecutive_failures = 0
            return False
        return True

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if (self.consecutive_failures >= self.threshold
                and self.opened_at is None):
            self.opened_at = now
            self.trips += 1

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.opened_at = None


class DeployedFunction:
    """Gateway-side state of one function: endpoint + instance bookkeeping."""

    def __init__(self, env: Environment, spec: FunctionSpec):
        self.env = env
        self.spec = spec
        self.request_queue: Store = Store(env)
        self.instance_counter = count(1)
        self.pod_names: List[str] = []
        #: Mirror of pod_names for O(1) membership on the watch/dispatch
        #: paths (every cluster watch event checks ownership).
        self._pod_name_set: set = set()
        self.invocations = 0
        self.failures = 0
        self.retries = 0
        self.shed = 0
        #: Pod-creation attempts retried because the control plane returned
        #: a retryable error (e.g. registry blackout).
        self.deploy_retries = 0
        #: Installed by the gateway when a resilience policy is armed.
        self.breaker: Optional[CircuitBreaker] = None

    def next_instance_name(self) -> str:
        return f"{self.spec.name}-i{next(self.instance_counter)}"

    # -- pod bookkeeping (keep list + set in lockstep) ---------------------
    def add_pod(self, name: str) -> None:
        if name not in self._pod_name_set:
            self.pod_names.append(name)
            self._pod_name_set.add(name)

    def remove_pod(self, name: str) -> None:
        if name in self._pod_name_set:
            self._pod_name_set.discard(name)
            self.pod_names.remove(name)
        elif name in self.pod_names:
            # Name was appended to the list directly (legacy callers).
            self.pod_names.remove(name)

    def has_pod(self, name: str) -> bool:
        return name in self._pod_name_set


class Gateway:
    """The serverless system's single entry point."""

    def __init__(self, env: Environment, cluster: Cluster,
                 policy: Optional[GatewayPolicy] = None):
        self.env = env
        self.cluster = cluster
        #: Resilience policy (retry budget, circuit breaker, shedding).
        #: ``None`` keeps the seed fast path bit-identical.
        self.policy = policy
        self.functions: Dict[str, DeployedFunction] = {}
        #: The controller hooks this to start instances on pod creation.
        self.on_deploy: Optional[Callable[[DeployedFunction], None]] = None

    # -- deployment ------------------------------------------------------------
    def deploy(self, spec: FunctionSpec):
        """Process: deploy a function and wait until replicas are running."""
        if spec.name in self.functions:
            raise ValueError(f"function {spec.name!r} already deployed")
        function = DeployedFunction(self.env, spec)
        self.functions[spec.name] = function
        if self.on_deploy is not None:
            self.on_deploy(function)
        for _ in range(spec.replicas):
            pod_name = function.next_instance_name()
            pod_spec = PodSpec(
                name=pod_name,
                function=spec.name,
                device_query=spec.device_query,
                node_name=spec.node_name,
                labels={"runtime": spec.runtime},
            )
            pod = yield from self._create_pod_retryable(function, pod_spec)
            function.add_pod(pod.name)
        return function

    def _create_pod_retryable(self, function: DeployedFunction, pod_spec):
        """Process: create a pod, absorbing retryable control-plane errors.

        A Registry blackout surfaces as a structured retryable error
        (``CL_REGISTRY_UNAVAILABLE``) from the admission hook; with a
        policy armed, the deploy backs off and retries within the same
        budget the data path uses, instead of crashing ``env.run``.  A
        failed attempt never registers the pod, so its name is reusable.
        """
        policy = self.policy
        if policy is None:
            return (yield from self.cluster.create_pod(pod_spec))
        last_error: Optional[Exception] = None
        for attempt in range(policy.retry_budget + 1):
            if attempt:
                function.deploy_retries += 1
                yield self.env.timeout(
                    policy.retry_backoff
                    * policy.backoff_factor ** (attempt - 1)
                )
            try:
                return (yield from self.cluster.create_pod(pod_spec))
            except Exception as exc:  # noqa: BLE001 - filtered just below
                if not getattr(exc, "retryable", False):
                    raise
                last_error = exc
        raise last_error

    def function(self, name: str) -> DeployedFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"unknown function {name!r}") from None

    # -- invocation -----------------------------------------------------------
    def invoke(self, function_name: str,
               payload: Optional[Dict[str, Any]] = None):
        """Process: invoke a function; returns (latency_seconds, result)."""
        function = self.function(function_name)
        if self.policy is not None:
            return (yield from self._invoke_resilient(function, payload))
        yield self.env.timeout(GATEWAY_OVERHEAD)
        request = Request(dict(payload or {}), self.env.now,
                          Event(self.env))
        function.request_queue.put_nowait(request)
        function.invocations += 1
        try:
            result = yield request.response
        except InvocationError:
            function.failures += 1
            raise
        return self.env.now - request.created, result

    def _invoke_resilient(self, function: DeployedFunction,
                          payload: Optional[Dict[str, Any]]):
        """Process: invoke under the gateway resilience policy.

        Per-request retry budget with exponential backoff, a per-function
        circuit breaker, and graceful degradation: with no live instance
        the request is either shed immediately (``shed_when_unavailable``)
        or queued — the endpoint queue outlives instances, so requests
        ride out migrations and respawns.
        """
        policy = self.policy
        if function.breaker is None:
            function.breaker = CircuitBreaker(policy.breaker_threshold,
                                              policy.breaker_cooldown)
        breaker = function.breaker
        yield self.env.timeout(GATEWAY_OVERHEAD)
        if breaker.is_open(self.env.now):
            function.shed += 1
            raise InvocationError(
                f"{function.spec.name}: circuit breaker open")
        if policy.shed_when_unavailable and not function.pod_names:
            function.shed += 1
            raise InvocationError(
                f"{function.spec.name}: no live instance")
        created = self.env.now
        last_error: Optional[InvocationError] = None
        for attempt in range(policy.retry_budget + 1):
            if attempt:
                function.retries += 1
                yield self.env.timeout(
                    policy.retry_backoff
                    * policy.backoff_factor ** (attempt - 1)
                )
            request = Request(dict(payload or {}), self.env.now,
                              Event(self.env))
            function.request_queue.put_nowait(request)
            function.invocations += 1
            try:
                result = yield from self._await_response(request)
            except InvocationError as exc:
                function.failures += 1
                breaker.record_failure(self.env.now)
                last_error = exc
                continue
            breaker.record_success()
            return self.env.now - created, result
        raise last_error

    def _await_response(self, request: Request):
        """Process: wait for one attempt's response, with optional timeout."""
        timeout = self.policy.request_timeout
        if timeout is None:
            return (yield request.response)
        deadline = self.env.timeout(timeout)
        yield AnyOf(self.env, [request.response, deadline])
        if not request.response.triggered:
            # Abandon the attempt; if an instance later picks the request
            # up, its response resolves unobserved (defused).
            request.response.defused = True
            raise InvocationError(
                f"request {request.id} timed out after {timeout}s")
        if not request.response.ok:
            request.response.defused = True
            raise request.response.value
        return request.response.value
