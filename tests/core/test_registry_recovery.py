"""Registry crash tolerance: replay, fencing, reconciliation, standby.

Exercises the durable-state layer end to end on a live testbed: fail-stop
the Accelerators Registry, restart from snapshot+WAL (or from the warm
standby's lagging copy), and verify the recovered control plane converges
to the Device-Manager-reported ground truth with stale-epoch commands
fenced.  The Hypothesis suite crashes at *arbitrary* WAL positions and
asserts recovery is idempotent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_testbed
from repro.cluster.objects import DeviceQuery, PodSpec
from repro.core.device_manager.manager import (
    DeviceManagerError,
    StaleEpochError,
)
from repro.core.registry import (
    AcceleratorsRegistry,
    AllocationError,
    RegistryStore,
    RegistryUnavailableError,
    StandbyPolicy,
    WarmStandby,
)
from repro.experiments.registry_chaos import check_invariants
from repro.faults import FaultScript, HealthPolicy, RegistryCrash
from repro.ocl.errors import (
    CL_REGISTRY_UNAVAILABLE,
    CL_STALE_REGISTRY_EPOCH,
)
from repro.serverless import FunctionSpec, Gateway, SobelApp
from repro.faults.policies import GatewayPolicy
from repro.sim import Environment


@pytest.fixture(autouse=True)
def _no_registry_env(monkeypatch):
    monkeypatch.delenv("REPRO_REGISTRY", raising=False)


def build(env, durability="durable", snapshot_interval=None,
          with_scraper=True):
    testbed = build_testbed(env, functional=False,
                            with_scraper=with_scraper)
    registry = AcceleratorsRegistry(
        env, testbed.cluster, list(testbed.managers.values()),
        scraper=testbed.scraper if with_scraper else None,
        durability=durability, snapshot_interval=snapshot_interval,
    )
    return testbed, registry


def create_pods(env, cluster, count, prefix="sobel", function="fn-sobel"):
    def driver():
        for index in range(count):
            yield from cluster.create_pod(PodSpec(
                name=f"{prefix}-{index}", function=function,
                device_query=DeviceQuery(accelerator="sobel"),
            ))
    env.run(until=env.process(driver()))


def state_digest(registry):
    """Durability-invariant view of both services (epoch excluded)."""
    state = registry.snapshot_state()
    return {
        "devices": state["devices"],
        "functions": state["functions"],
    }


class TestDurabilityModes:
    def test_volatile_default_has_no_store(self):
        env = Environment()
        _, registry = build(env, durability="volatile")
        assert registry.store is None
        assert registry.durability == "volatile"
        registry.crash()
        assert not registry.alive
        with pytest.raises(RuntimeError, match="no durable store"):
            registry.restart()

    def test_env_var_overrides_constructor(self, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY", "durable")
        env = Environment()
        _, registry = build(env, durability="volatile")
        assert registry.durability == "durable"
        assert registry.store is not None

    def test_unknown_mode_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="durability"):
            build(env, durability="raid0")

    def test_snapshot_loop_folds_the_wal(self):
        env = Environment()
        testbed, registry = build(env, snapshot_interval=1.0)
        create_pods(env, testbed.cluster, 2)
        env.run(until=5.0)
        assert registry.store.snapshots_taken >= 4
        assert registry.store.snapshot_state is not None


class TestCrashRestart:
    def test_replay_restores_both_services(self):
        env = Environment()
        testbed, registry = build(env, snapshot_interval=None)
        create_pods(env, testbed.cluster, 4)
        before = state_digest(registry)
        injector = RegistryCrash(registry)
        injector.kill()
        assert not registry.alive
        assert len(registry.devices) == 0  # process memory gone
        assert registry.functions.all() == []
        env.run(until=env.now + 0.5)
        env.run(until=injector.restore())
        assert registry.alive
        assert registry.epoch == 2
        assert state_digest(registry) == before
        assert registry.blackout_seconds > 0
        assert check_invariants(registry, testbed.cluster) == (0, 0)

    def test_blackout_admissions_fail_structured(self):
        env = Environment()
        testbed, registry = build(env)
        registry.crash()

        def late():
            try:
                yield from testbed.cluster.create_pod(PodSpec(
                    name="late", function="fn",
                    device_query=DeviceQuery(accelerator="sobel"),
                ))
            except RegistryUnavailableError as exc:
                return exc
            return None

        exc = env.run(until=env.process(late()))
        assert exc is not None
        assert exc.cl_code == CL_REGISTRY_UNAVAILABLE
        assert exc.retryable
        assert registry.denied_admissions == 1
        assert "late" not in testbed.cluster.pods  # name reusable on retry

    def test_lost_wal_tail_healed_by_reconciliation(self):
        env = Environment()
        testbed, registry = build(env, snapshot_interval=None)
        create_pods(env, testbed.cluster, 4)
        before = state_digest(registry)
        registry.store.truncate(registry.store.seq - 4)  # lose the admits
        injector = RegistryCrash(registry)
        injector.kill()
        env.run(until=injector.restore())
        # The pods (ground truth) re-adopted despite the lost records.
        assert registry.reconciliation["adopted_instances"] == 4
        assert state_digest(registry) == before
        assert check_invariants(registry, testbed.cluster) == (0, 0)

    def test_pods_deleted_during_blackout_are_dropped(self):
        env = Environment()
        testbed, registry = build(env, snapshot_interval=None)
        create_pods(env, testbed.cluster, 3)
        injector = RegistryCrash(registry)
        injector.kill()
        testbed.cluster.delete_pod("sobel-1")
        assert registry.missed_watch_events == 1
        env.run(until=injector.restore())
        assert registry.functions.instance("sobel-1") is None
        assert registry.reconciliation["dropped_instances"] == 1
        assert check_invariants(registry, testbed.cluster) == (0, 0)

    def test_health_monitor_rearmed_after_restart(self):
        env = Environment()
        testbed, registry = build(env)
        registry.enable_health(network=testbed.network,
                               policy=HealthPolicy(heartbeat_interval=0.25,
                                                   lease_timeout=1.0))
        injector = RegistryCrash(registry)
        injector.kill()
        assert registry.health is None
        env.run(until=injector.restore())
        assert registry.health is not None
        # The re-armed monitor still detects a dead board.
        victim = testbed.managers[sorted(testbed.managers)[0]]
        victim.crash()
        env.run(until=env.now + 3.0)
        assert not registry.devices.get(victim.name).alive
        registry.health.stop()


class TestEpochFencing:
    def test_stale_epoch_rejected(self):
        env = Environment()
        testbed, registry = build(env)
        manager = testbed.managers[sorted(testbed.managers)[0]]
        report = manager.registry_command(registry.epoch, "report_state")
        assert report["alive"]
        assert manager.registry_epoch == registry.epoch
        with pytest.raises(StaleEpochError) as excinfo:
            manager.registry_command(registry.epoch - 1, "sync_instances",
                                     [])
        assert excinfo.value.cl_code == CL_STALE_REGISTRY_EPOCH
        assert manager.fenced_commands == 1

    def test_zombie_probe_after_restart(self):
        env = Environment()
        testbed, registry = build(env)
        manager = testbed.managers[sorted(testbed.managers)[0]]
        injector = RegistryCrash(registry)
        injector.kill()
        env.run(until=injector.restore())
        assert registry.epoch == 2
        assert injector.zombie_probe(manager)
        assert injector.zombie_fenced == 1
        assert injector.zombie_accepted == 0

    def test_epoch_survives_crashes_monotonically(self):
        env = Environment()
        testbed, registry = build(env)
        for expected in (2, 3, 4):
            injector = RegistryCrash(registry)
            injector.kill()
            env.run(until=injector.restore())
            assert registry.epoch == expected

    def test_dead_manager_rejects_commands(self):
        env = Environment()
        testbed, registry = build(env)
        manager = testbed.managers[sorted(testbed.managers)[0]]
        manager.crash()
        with pytest.raises(DeviceManagerError):
            manager.registry_command(registry.epoch, "report_state")

    def test_fault_script_convenience(self):
        env = Environment()
        testbed, registry = build(env)
        injector = RegistryCrash(registry)
        script = FaultScript(env)
        script.crash_registry(injector, at=1.0, restart_after=0.5)
        script.arm()
        env.run(until=3.0)
        assert registry.crashes == 1
        assert registry.recoveries == 1
        assert [what for _, what in script.executed] == [
            "crash registry", "restart registry",
        ]


class TestUnwatchManager:
    def test_deregister_clears_health_state(self):
        env = Environment()
        testbed, registry = build(env)
        health = registry.enable_health(
            network=testbed.network,
            policy=HealthPolicy(heartbeat_interval=0.25, lease_timeout=1.0),
        )
        name = sorted(testbed.managers)[0]
        # Detach its instances first (deregister refuses busy devices).
        assert not registry.devices.get(name).instances
        beater = health._beaters[name]
        assert registry.deregister_manager(name)
        assert name not in health.last_seen
        assert name not in health._beaters
        assert all(m.name != name for m in health._managers)
        env.run(until=env.now + 1.0)
        assert not beater.is_alive
        # The stale lease never "expires" into a spurious failure.
        env.run(until=env.now + 3.0)
        assert all(n != name for _, n in health.failures_detected)
        health.stop()

    def test_unwatch_unknown_manager_is_noop(self):
        env = Environment()
        testbed, registry = build(env)
        health = registry.enable_health(
            network=testbed.network,
            policy=HealthPolicy(heartbeat_interval=0.25, lease_timeout=1.0),
        )
        health.unwatch_manager("no-such-dm")
        health.stop()


class TestGatewayBlackoutRetry:
    def test_deploy_rides_out_the_blackout(self):
        env = Environment()
        testbed, registry = build(env)
        gateway = Gateway(env, testbed.cluster, policy=GatewayPolicy(
            retry_budget=8, retry_backoff=0.2, backoff_factor=1.5,
        ))
        injector = RegistryCrash(registry)
        injector.kill()

        def restart_later():
            yield env.timeout(0.5)
            yield injector.restore()

        env.process(restart_later())
        function = env.run(until=env.process(gateway.deploy(FunctionSpec(
            name="fn-a", app_factory=SobelApp,
            device_query=DeviceQuery(vendor="Intel", accelerator="sobel"),
            runtime="blastfunction",
        ))))
        assert function.deploy_retries >= 1
        assert len(function.pod_names) == 1
        assert registry.denied_admissions >= 1

    def test_no_policy_means_no_retry(self):
        env = Environment()
        testbed, registry = build(env)
        gateway = Gateway(env, testbed.cluster)  # seed fast path
        registry.crash()

        def deploy():
            try:
                yield from gateway.deploy(FunctionSpec(
                    name="fn-a", app_factory=SobelApp,
                    device_query=DeviceQuery(vendor="Intel",
                                             accelerator="sobel"),
                    runtime="blastfunction",
                ))
            except RegistryUnavailableError as exc:
                return exc
            return None

        assert env.run(until=env.process(deploy())) is not None


class TestWarmStandby:
    def test_takeover_on_lease_expiry(self):
        env = Environment()
        testbed, registry = build(env, durability="replicated",
                                  snapshot_interval=2.0)
        standby = WarmStandby(env, registry, testbed.network,
                              dict(testbed.managers),
                              StandbyPolicy(sync_interval=0.2,
                                            lease_timeout=0.6))
        create_pods(env, testbed.cluster, 3)
        env.run(until=env.now + 1.0)
        before = state_digest(registry)
        assert standby.records_tailed >= 1
        injector = RegistryCrash(registry)
        injector.kill()
        env.run(until=env.now + 3.0)
        assert standby.takeovers == 1
        assert standby.is_leader
        assert registry.alive
        assert registry.store is standby.log
        assert registry.epoch == 2
        assert state_digest(registry) == before
        assert check_invariants(registry, testbed.cluster) == (0, 0)
        assert injector.zombie_probe(
            testbed.managers[sorted(testbed.managers)[0]]
        )

    def test_lagging_standby_heals_through_reconciliation(self):
        env = Environment()
        testbed, registry = build(env, durability="replicated",
                                  snapshot_interval=None)
        standby = WarmStandby(env, registry, testbed.network,
                              dict(testbed.managers),
                              StandbyPolicy(sync_interval=10.0,
                                            lease_timeout=0.3))
        env.run(until=env.now + 0.05)
        create_pods(env, testbed.cluster, 3)  # never tailed (10 s interval)
        injector = RegistryCrash(registry)
        injector.kill()
        env.run(until=env.now + 15.0)
        assert standby.takeovers == 1
        assert standby.lag_records_at_takeover > 0
        # The un-replicated admissions were re-adopted from the pods.
        assert registry.reconciliation["adopted_instances"] == 3
        assert check_invariants(registry, testbed.cluster) == (0, 0)

    def test_standby_survives_while_leader_healthy(self):
        env = Environment()
        testbed, registry = build(env, durability="replicated",
                                  snapshot_interval=None)
        standby = WarmStandby(env, registry, testbed.network,
                              dict(testbed.managers),
                              StandbyPolicy(sync_interval=0.2,
                                            lease_timeout=0.6))
        env.run(until=5.0)
        assert standby.takeovers == 0
        assert not standby.is_leader
        standby.stop()


# ---------------------------------------------------------------------------
# Hypothesis: crash at arbitrary WAL positions, recovery is idempotent
# ---------------------------------------------------------------------------

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.integers(0, 7)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
        st.tuples(st.just("fail_device"), st.integers(0, 2)),
        st.tuples(st.just("recover_device"), st.integers(0, 2)),
    ),
    min_size=1, max_size=10,
)


def reapply_wal(registry, managers):
    """Replay the store's WAL, in order, over the Registry's live state."""
    _snapshot, records = registry.store.replay()
    registry._replaying = True
    try:
        for record in records:
            registry._apply_record(record, dict(managers))
    finally:
        registry._replaying = False


def check_recovery_idempotent(actions, cut, snapshot):
    """Crash at a WAL cut; replayed state converges to pod/DM ground truth,
    and replaying the WAL a second time changes nothing."""
    env = Environment()
    testbed = build_testbed(env, functional=False, with_scraper=False)
    registry = AcceleratorsRegistry(
        env, testbed.cluster, list(testbed.managers.values()),
        durability="durable", snapshot_interval=None,
    )
    manager_names = sorted(testbed.managers)

    def driver():
        for action, arg in actions:
            yield env.timeout(0.01)
            if action == "create":
                name = f"pod-{arg}"
                if name in testbed.cluster.pods:
                    continue
                try:
                    yield from testbed.cluster.create_pod(PodSpec(
                        name=name, function="fn-sobel",
                        device_query=DeviceQuery(accelerator="sobel"),
                    ))
                except AllocationError:
                    # Admission denied (every device is dead): the pod
                    # was never created, as a rejected kubectl create.
                    assert name not in testbed.cluster.pods
            elif action == "delete":
                name = f"pod-{arg}"
                if name in testbed.cluster.pods:
                    testbed.cluster.delete_pod(name)
            elif action == "fail_device":
                registry.on_device_failure(manager_names[arg])
            elif action == "recover_device":
                registry.on_device_recovery(manager_names[arg])

    env.run(until=env.process(driver()))
    env.run(until=env.now + 1.0)  # let evacuations settle

    # Maybe snapshot mid-history, then lose an arbitrary WAL tail.
    if snapshot:
        registry.store.take_snapshot(registry.snapshot_state())
    low = registry.store.snapshot_seq
    registry.store.truncate(low + cut)

    registry.crash()
    env.run(until=registry.restart())
    env.run(until=env.now + 1.0)  # let post-reconcile evacuations settle

    # 1. Converged to ground truth: no double allocations, none lost.
    assert check_invariants(registry, testbed.cluster) == (0, 0)

    # 2. Double replay is a no-op: re-applying the full WAL in order
    #    leaves both services bit-identical.
    before = state_digest(registry)
    reapply_wal(registry, testbed.managers)
    assert state_digest(registry) == before

    # 3. A second crash/restart converges to the same state.
    registry.crash()
    env.run(until=registry.restart())
    env.run(until=env.now + 1.0)
    assert check_invariants(registry, testbed.cluster) == (0, 0)


@settings(max_examples=15, deadline=None)
@given(actions=ACTIONS, cut=st.integers(0, 40), data=st.data())
def test_recovery_idempotent_at_any_wal_position(actions, cut, data):
    """Crash at an arbitrary WAL cut; replayed state converges to pod/DM
    ground truth, and replaying the WAL a second time changes nothing."""
    check_recovery_idempotent(
        actions, cut, data.draw(st.booleans(), label="snapshot"))


def test_replaying_readmission_twice_keeps_instance_seq():
    """Regression: the WAL holds admit, remove and admit of one pod name.
    Replaying it over the recovered state must restore the logged
    instance sequence numbers, not mint fresh ones."""
    check_recovery_idempotent(
        [("create", 0), ("delete", 0), ("create", 0)], cut=7,
        snapshot=False)


def test_replaying_device_toggles_keeps_pending_bitstream():
    """Regression: replaying device_dead/device_alive over a state that
    is already past them must not clear the pending bitstream the
    post-recovery re-adoption set."""
    check_recovery_idempotent(
        [("fail_device", 0), ("recover_device", 0), ("create", 0)], cut=5,
        snapshot=False)


def test_creation_denied_when_every_device_is_dead():
    """Regression: an admission Algorithm 1 refuses leaves no pod and no
    WAL admit to recover."""
    check_recovery_idempotent(
        [("fail_device", 0), ("fail_device", 1), ("fail_device", 2),
         ("create", 0)], cut=0, snapshot=False)


def test_reapplying_device_death_over_a_dead_device_clears_the_promise():
    """Regression: pod-0's admission promised dm-A a Sobel bitstream,
    then dm-A died and pod-0 was shed.  Re-applying that log over the
    state that wrote it re-admits pod-0 and re-makes the promise; the
    following device_dead must clear it although dm-A is dead already."""
    env = Environment()
    testbed, registry = build(env, with_scraper=False)
    create_pods(env, testbed.cluster, 1, prefix="pod")
    device = registry.functions.instance("pod-0").device
    registry.on_device_failure(device)
    env.run(until=env.now + 1.0)
    assert "pod-0" not in testbed.cluster.pods
    assert [record.op for record in registry.store.wal][-3:] == [
        "admit", "device_dead", "remove_instance"]
    before = state_digest(registry)
    reapply_wal(registry, testbed.managers)
    assert state_digest(registry) == before
