"""Request deadlines under a resilient gateway: one timer per gateway.

Each attempt waits on its response alone.  The gateway keeps a FIFO of
``(created + request_timeout, request)`` and arms one timer, for the
oldest unanswered attempt; the timer fails that attempt's response at
exactly its deadline.  These tests check it against the per-attempt
Timeout-plus-``AnyOf`` wait it replaces (``PerAttemptGateway``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import GatewayPolicy
from repro.serverless import Gateway, InvocationError
from repro.serverless.gateway import (
    GATEWAY_OVERHEAD,
    DeployedFunction,
    FunctionSpec,
)
from repro.sim import AnyOf, Environment
from repro.sim.events import NORMAL


class CountingEnvironment(Environment):
    """Counts every event passing through ``schedule``."""

    __slots__ = ("scheduled",)

    def __init__(self):
        super().__init__()
        self.scheduled = 0

    def schedule(self, event, delay=0.0, priority=NORMAL):
        self.scheduled += 1
        super().schedule(event, delay, priority)


class PerAttemptGateway(Gateway):
    """One deadline Timeout and one ``AnyOf`` per attempt."""

    def _await_response(self, request):
        timeout = self.policy.request_timeout
        deadline = self.env.timeout(timeout)
        yield AnyOf(self.env, [request.response, deadline])
        if not request.response.triggered:
            request.response.defused = True
            raise InvocationError(
                f"request {request.id} timed out after {timeout}s")
        if not request.response.ok:
            request.response.defused = True
            raise request.response.value
        return request.response.value


def serve(env, gateway, service_times):
    """One instance answering queued requests in order, each after its
    service time; a negative time fails the request.  Like a function
    instance, it leaves a response that is already triggered alone."""
    function = DeployedFunction(env, FunctionSpec(name="f",
                                                  app_factory=lambda: None))
    function.add_pod("f-i1")
    gateway.functions["f"] = function

    def instance():
        for service in service_times:
            request = yield function.request_queue.get()
            yield env.timeout(abs(service))
            if request.response.triggered:
                continue
            if service < 0:
                request.response.fail(InvocationError(f"failed {request.id}"))
                request.response.defused = True
            else:
                request.response.settle(request.id)

    env.process(instance())


def run(gateway_class, policy, arrivals, service_times):
    """Each invocation's (end time, result or error) and the events."""
    env = CountingEnvironment()
    gateway = gateway_class(env, cluster=None, policy=policy)
    serve(env, gateway, service_times)
    outcomes = []

    def client(arrival):
        yield env.timeout(arrival)
        try:
            _latency, result = yield from gateway.invoke("f")
        except InvocationError as exc:
            result = str(exc)
        outcomes.append((env.now, result))

    for arrival in arrivals:
        env.process(client(arrival))
    env.run()
    return outcomes, env.scheduled


def test_an_expiry_fails_the_attempt_at_its_deadline():
    policy = GatewayPolicy(retry_budget=0, request_timeout=0.2)
    outcomes, _events = run(Gateway, policy, [1.0], [0.5])
    created = 1.0 + GATEWAY_OVERHEAD
    assert outcomes == [(created + 0.2, "request 1 timed out after 0.2s")]


def test_a_late_answer_is_left_alone():
    policy = GatewayPolicy(retry_budget=1, request_timeout=0.2)
    outcomes, _events = run(Gateway, policy, [0.0], [0.3, 0.01])
    (_end, result), = outcomes
    assert result == 2  # the retry's answer; the first came too late
    assert outcomes == run(PerAttemptGateway, policy, [0.0],
                           [0.3, 0.01])[0]


def test_answered_attempts_cost_no_deadline_events():
    policy = GatewayPolicy(retry_budget=0, request_timeout=2.0)
    arrivals = [0.0, 0.1, 0.2, 0.3]
    answered, events = run(Gateway, policy, arrivals, [0.01] * 4)
    reference, reference_events = run(PerAttemptGateway, policy, arrivals,
                                      [0.01] * 4)
    assert answered == reference
    # Per attempt the reference pays a deadline Timeout and a scheduled
    # response; here one timer covers all four.
    assert events == reference_events - 2 * len(arrivals) + 1


@settings(deadline=None)
@given(
    arrivals=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    service_times=st.lists(
        st.floats(0.0, 0.5).flatmap(
            lambda t: st.sampled_from([t, -t]) if t else st.just(t)),
        min_size=1, max_size=12),
    retries=st.integers(0, 2),
)
def test_one_timer_matches_a_deadline_per_attempt(arrivals, service_times,
                                                   retries):
    policy = GatewayPolicy(retry_budget=retries, request_timeout=0.2,
                           retry_backoff=0.05, breaker_threshold=100)
    outcomes, _events = run(Gateway, policy, arrivals, service_times)
    reference, _reference_events = run(PerAttemptGateway, policy, arrivals,
                                       service_times)
    assert outcomes == reference
