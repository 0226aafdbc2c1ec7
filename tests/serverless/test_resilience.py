"""Gateway resilience policy: retries, circuit breaker, shedding, self-heal."""

import pytest

from repro.cluster import DeviceQuery
from repro.faults import GatewayPolicy
from repro.serverless import (
    CircuitBreaker,
    Gateway,
    InvocationError,
    SobelApp,
)
from repro.serverless.gateway import DeployedFunction, FunctionSpec
from repro.sim import Environment, run_guarded
from repro.system import SystemConfig, build_system


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=2.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert not breaker.is_open(0.2)
        breaker.record_failure(0.2)
        assert breaker.is_open(0.3)
        assert breaker.trips == 1

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=2.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.1)
        assert not breaker.is_open(0.2)

    def test_half_opens_after_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2.0)
        breaker.record_failure(0.0)
        assert breaker.is_open(1.9)
        assert not breaker.is_open(2.1)  # half-open: traffic admitted
        breaker.record_failure(2.2)      # probe failed: trips again
        assert breaker.is_open(2.3)
        assert breaker.trips == 2


def _gateway(env, policy):
    """A gateway with one function wired straight into its endpoint queue.

    ``invoke`` never touches the cluster: requests flow through
    ``function.request_queue``, which is all the resilience path needs.
    """
    gateway = Gateway(env, cluster=None, policy=policy)
    spec = FunctionSpec(name="f", app_factory=lambda: None)
    function = DeployedFunction(env, spec)
    function.add_pod("f-i1")  # pretend one instance is live
    gateway.functions["f"] = function
    return gateway, function


def _serve(env, function, outcomes, service_time=0.01):
    """Fake instance: answer queued requests with scripted outcomes."""

    def worker():
        for outcome in outcomes:
            request = yield function.request_queue.get()
            yield env.timeout(service_time)
            if isinstance(outcome, Exception):
                request.response.fail(outcome)
                request.response.defused = True
            else:
                request.response.succeed(outcome)

    env.process(worker())


class TestResilientInvoke:
    def test_retry_then_succeed(self):
        env = Environment()
        gateway, function = _gateway(env, GatewayPolicy(retry_budget=2))
        _serve(env, function,
               [InvocationError("cold"), InvocationError("cold"), "warm"])
        latency, result = env.run(until=env.process(gateway.invoke("f")))
        assert result == "warm"
        assert function.retries == 2
        assert function.failures == 2
        assert function.invocations == 3
        # The two backoffs (0.05 then 0.10) are part of the latency.
        assert latency > 0.15

    def test_budget_exhaustion_raises_last_error(self):
        env = Environment()
        gateway, function = _gateway(env, GatewayPolicy(retry_budget=1))
        _serve(env, function,
               [InvocationError("first"), InvocationError("second")])

        def run():
            try:
                yield from gateway.invoke("f")
            except InvocationError as exc:
                return str(exc)
            return None

        assert env.run(until=env.process(run())) == "second"
        assert function.retries == 1

    def test_attempt_timeout_retries_on_a_silent_backend(self):
        env = Environment()
        policy = GatewayPolicy(retry_budget=1, request_timeout=0.2)
        gateway, function = _gateway(env, policy)

        # First request is swallowed unanswered; answer only the retry.
        def ignore_one():
            yield function.request_queue.get()

        env.process(ignore_one())
        _serve(env, function, ["late-but-fine"])
        latency, result = env.run(until=env.process(gateway.invoke("f")))
        assert result == "late-but-fine"
        assert function.retries == 1
        assert latency >= 0.2  # paid the first attempt's full deadline

    def test_breaker_sheds_while_open_then_recovers(self):
        env = Environment()
        policy = GatewayPolicy(retry_budget=0, breaker_threshold=2,
                               breaker_cooldown=1.0)
        gateway, function = _gateway(env, policy)
        _serve(env, function,
               [InvocationError("down"), InvocationError("down"), "back"])

        def run():
            outcomes = []
            for _ in range(2):  # trip the breaker
                try:
                    yield from gateway.invoke("f")
                except InvocationError as exc:
                    outcomes.append(str(exc))
            try:  # rejected instantly: breaker open
                yield from gateway.invoke("f")
            except InvocationError as exc:
                outcomes.append(str(exc))
            yield env.timeout(1.5)  # past the cooldown: half-open probe
            _, result = yield from gateway.invoke("f")
            outcomes.append(result)
            return outcomes

        outcomes = env.run(until=env.process(run()))
        assert outcomes[:2] == ["down", "down"]
        assert "circuit breaker open" in outcomes[2]
        assert outcomes[3] == "back"
        assert function.shed == 1
        assert function.breaker.trips == 1

    def test_shed_when_unavailable(self):
        env = Environment()
        policy = GatewayPolicy(shed_when_unavailable=True)
        gateway, function = _gateway(env, policy)
        function.pod_names.clear()  # every instance is gone

        def run():
            with pytest.raises(InvocationError, match="no live instance"):
                yield from gateway.invoke("f")

        env.run(until=env.process(run()))
        assert function.shed == 1
        assert function.invocations == 0  # nothing was queued

    def test_queue_rides_out_an_outage_by_default(self):
        # shed_when_unavailable=False: the endpoint queue outlives the
        # instances, so a request queued during the outage completes once
        # capacity returns.
        env = Environment()
        gateway, function = _gateway(env, GatewayPolicy())
        function.pod_names.clear()

        def revive():
            yield env.timeout(0.5)
            function.add_pod("f-i2")
            _serve(env, function, ["recovered"])

        env.process(revive())
        latency, result = env.run(until=env.process(gateway.invoke("f")))
        assert result == "recovered"
        assert latency >= 0.5

    def test_policy_none_keeps_the_seed_fast_path(self):
        env = Environment()
        gateway, function = _gateway(env, None)
        assert gateway.policy is None
        _serve(env, function, ["plain"])
        latency, result = env.run(until=env.process(gateway.invoke("f")))
        assert result == "plain"
        assert function.breaker is None  # resilience machinery never armed
        assert function.retries == 0


# ---------------------------------------------------------------------------
# Full stack: controller self-heal and in-flight failure on instance death
# ---------------------------------------------------------------------------

def _full_stack(env, policy=None, self_heal=True):
    system = build_system(env, SystemConfig(gateway=policy,
                                            self_heal=self_heal))
    return system.testbed, system.registry, system.gateway, system.controller


def _deploy_sobel(env, gateway, controller, name="sobel-1"):
    def flow():
        spec = FunctionSpec(
            name=name,
            app_factory=lambda: SobelApp(width=64, height=64),
            device_query=DeviceQuery(accelerator="sobel"),
        )
        yield from gateway.deploy(spec)
        yield from controller.wait_ready(name)

    run_guarded(env, until=env.process(flow()), what=f"deploy {name}")


class TestSelfHeal:
    def test_deleted_pod_is_respawned(self):
        env = Environment()
        testbed, registry, gateway, controller = _full_stack(env)
        _deploy_sobel(env, gateway, controller)
        function = gateway.function("sobel-1")
        victim = next(iter(function.pod_names))

        testbed.cluster.delete_pod(victim)
        run_guarded(env, until=env.process(
            controller.wait_ready("sobel-1")), what="self-heal")

        assert controller.heals == 1
        assert victim not in function.pod_names
        replacement = next(iter(function.pod_names))
        assert replacement != victim
        pod = testbed.cluster.pods[replacement]
        assert pod.spec.labels.get("healed") == "true"
        latency, result = run_guarded(
            env, until=env.process(gateway.invoke("sobel-1")),
            what="invoke after heal")
        assert result["bytes"] == 64 * 64 * 4

    def test_self_heal_off_leaves_function_down(self):
        env = Environment()
        testbed, registry, gateway, controller = _full_stack(
            env, self_heal=False)
        _deploy_sobel(env, gateway, controller)
        function = gateway.function("sobel-1")
        testbed.cluster.delete_pod(next(iter(function.pod_names)))
        env.run(until=env.now + 2.0)
        assert controller.heals == 0
        assert not function.pod_names


class TestInstanceDeathMidRequest:
    def test_inflight_request_fails_instead_of_hanging(self):
        env = Environment()
        testbed, registry, gateway, controller = _full_stack(
            env, self_heal=False)
        _deploy_sobel(env, gateway, controller)
        function = gateway.function("sobel-1")
        victim = next(iter(function.pod_names))

        def killer():
            # Strike while the instance is mid-handle.
            yield env.timeout(0.002)
            testbed.cluster.delete_pod(victim)

        def caller():
            try:
                yield from gateway.invoke("sobel-1")
            except InvocationError as exc:
                return str(exc)
            return None

        env.process(killer())
        outcome = run_guarded(env, until=env.process(caller()),
                              what="invoke during pod kill")
        assert outcome is not None
        assert "terminated mid-request" in outcome

    def test_retry_plus_heal_masks_the_death(self):
        env = Environment()
        policy = GatewayPolicy(retry_budget=2, retry_backoff=0.2)
        testbed, registry, gateway, controller = _full_stack(
            env, policy=policy, self_heal=True)
        _deploy_sobel(env, gateway, controller)
        function = gateway.function("sobel-1")
        victim = next(iter(function.pod_names))

        def killer():
            yield env.timeout(0.002)
            testbed.cluster.delete_pod(victim)

        env.process(killer())
        latency, result = run_guarded(
            env, until=env.process(gateway.invoke("sobel-1")),
            what="invoke riding out pod kill")
        assert result["bytes"] == 64 * 64 * 4
        assert function.retries >= 1
        assert controller.heals == 1
