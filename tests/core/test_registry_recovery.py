"""Registry crash tolerance: replay, fencing, reconciliation, standby.

Exercises the durable-state layer end to end on a live testbed: fail-stop
the Accelerators Registry, restart from snapshot+WAL (or from the warm
standby's lagging copy), and verify the recovered control plane converges
to the Device-Manager-reported ground truth with stale-epoch commands
fenced.  The Hypothesis suite crashes at *arbitrary* WAL positions and
asserts recovery is idempotent.
"""

from dataclasses import replace

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
from repro.experiments.migration import MigrationSpec, run_migration_mode
from repro.experiments.registry_chaos import check_invariants
from repro.faults import FaultScript, HealthPolicy, RegistryCrash
from repro.fpga.hwspec import GiB, HOST_I7_6700, PCIE_GEN3_X8, NodeSpec
from repro.live import LiveMigrator
from repro.ocl.errors import (
    CL_REGISTRY_UNAVAILABLE,
    CL_STALE_REGISTRY_EPOCH,
)
from repro.serverless import FunctionSpec, Gateway, SobelApp
from repro.faults.policies import GatewayPolicy
from repro.sim import Environment


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
        assert registry.devices.all() == []  # process memory gone
        assert registry.functions.all() == []
        env.run(until=env.now + 0.5)
        env.run(until=injector.restore())
        assert registry.alive
        assert registry.epoch == 2
        assert state_digest(registry) == before
        assert registry.blackout_seconds > 0
        assert check_invariants(registry, testbed.cluster) == (0, 0)

    def test_a_restart_during_the_replay_joins_it(self):
        """A second restart inside the blackout (a standby's takeover
        racing the scripted restart) returns the running recovery: one
        epoch bump, one replay of the log, one epoch record."""
        env = Environment()
        testbed, registry = build(env, snapshot_interval=None)
        create_pods(env, testbed.cluster, 3)
        log = len(registry.store.wal)
        injector = RegistryCrash(registry)
        injector.kill()
        recovery = injector.restore()
        env.run(until=env.now + registry.REPLAY_SECONDS_PER_OP / 2)
        assert not registry.alive  # still replaying
        assert registry.restart() is recovery
        env.run(until=recovery)
        assert registry.alive
        assert registry.epoch == 2
        assert registry.recoveries == 1
        assert registry.replayed_ops == log
        assert [r.op for r in registry.store.wal].count("epoch") == 2
        assert registry.restart() is None  # serving again

    def test_replay_restores_every_instance_seq(self):
        # Admits on both sides of a snapshot, a remove and a re-admission
        # in the WAL: each replayed admit gets back the number it minted
        # before the crash.  Over a fresh state a freshly minted number
        # would coincide with it; re-applying the log over the recovered
        # state, as replay idempotence allows, is where they part.
        env = Environment()
        testbed, registry = build(env, snapshot_interval=None)
        create_pods(env, testbed.cluster, 3, prefix="early")
        registry.store.take_snapshot(registry.snapshot_state())
        create_pods(env, testbed.cluster, 3, prefix="late")
        testbed.cluster.delete_pod("late-0")
        create_pods(env, testbed.cluster, 1, prefix="late")

        def seqs():
            return {instance.name: instance.seq
                    for function in registry.functions.all()
                    for instance in function.instances.values()}

        before = seqs()
        assert before == {"early-0": 1, "early-1": 2, "early-2": 3,
                          "late-0": 7, "late-1": 5, "late-2": 6}
        injector = RegistryCrash(registry)
        injector.kill()
        env.run(until=injector.restore())
        assert registry.recoveries == 1
        assert seqs() == before
        reapply_wal(registry)
        assert seqs() == before

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
        assert not registry.functions.instances_on_device(name)
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


NEW_NODE = NodeSpec(name="D", host=HOST_I7_6700, pcie=PCIE_GEN3_X8,
                    memory_bytes=32 * GiB)


class TestMutationFences:
    """Registry state changes only while the incarnation that makes them
    is alive; everything missed in between heals through reconciliation."""

    @pytest.mark.parametrize("delay", [0.0, 0.01, 0.03])
    def test_crash_during_live_migration(self, monkeypatch, delay):
        """A live move that finishes while the Registry is down patches
        the pod alone; reconciliation re-points the services from it."""
        monkeypatch.setenv("REPRO_QUICK", "1")
        registries = []
        migrate = LiveMigrator.migrate

        def crash_on_first_move(migrator, source_name, moves):
            if not registries:
                registry = migrator.registry
                registries.append(registry)

                def crash_and_restart():
                    yield registry.env.timeout(delay)
                    injector = RegistryCrash(registry)
                    injector.kill()
                    yield registry.env.timeout(0.5)
                    yield injector.restore()

                registry.env.process(crash_and_restart())
            return migrate(migrator, source_name, moves)

        monkeypatch.setattr(LiveMigrator, "migrate", crash_on_first_move)
        result = run_migration_mode("live",
                                    MigrationSpec(durability="durable"))
        registry = registries[0]
        assert registry.crashes == registry.recoveries == 1
        assert result.live_migrations == 4
        assert result.live_fallbacks == 0
        assert result.hung_events == 0
        assert check_invariants(registry, registry.cluster) == (0, 0)
        assert registry.reconciliation["moved_instances"] == 1

    def test_crash_right_after_replay_ends(self):
        """A reconciliation pass stops once its incarnation is gone: it
        logs nothing into, and fills nothing of, a crashed Registry."""
        env = Environment()
        testbed, registry = build(env, snapshot_interval=None)
        create_pods(env, testbed.cluster, 4)
        registry.crash()
        recovery = registry.restart()
        while not registry.alive:
            env.step()
        registry.crash()
        seq = registry.store.seq
        env.run(until=recovery)
        env.run(until=env.now + 1.0)
        assert registry.store.seq == seq
        assert registry.devices.all() == []
        assert registry.functions.all() == []
        assert not any(registry.reconciliation.values())

    def test_adopted_manager_is_health_watched(self):
        """A manager whose register_manager record was lost is adopted
        through register_manager, so its later crash is detected."""
        env = Environment()
        testbed, registry = build(env, snapshot_interval=None)
        registry.enable_health(network=testbed.network,
                               policy=HealthPolicy(heartbeat_interval=0.25,
                                                   lease_timeout=1.0))
        manager = testbed.add_node(NEW_NODE)
        registry.register_manager(manager)
        assert registry.store.wal[-1].op == "register_manager"
        registry.store.truncate(registry.store.seq - 1)
        injector = RegistryCrash(registry)
        injector.kill()
        env.run(until=injector.restore())
        assert registry.reconciliation["adopted_devices"] == 1
        assert manager.name in registry.health.last_seen
        failures = registry.device_failures
        manager.crash()
        env.run(until=env.now + 5.0)
        assert registry.device_failures == failures + 1
        assert not registry.devices.get(manager.name).alive
        registry.health.stop()

    def test_register_manager_while_down(self):
        """Registering while down only updates the address book; the
        restart adopts the manager, scrapes it and watches it."""
        env = Environment()
        testbed, registry = build(env, snapshot_interval=None)
        registry.enable_health(network=testbed.network,
                               policy=HealthPolicy(heartbeat_interval=0.25,
                                                   lease_timeout=1.0))
        manager = testbed.add_node(NEW_NODE)
        testbed.scraper.remove_target(manager.name)  # the Registry adds it
        registry.crash()
        seq = registry.store.seq
        registry.register_manager(manager)
        assert registry.store.seq == seq
        assert registry.devices.all() == []
        env.run(until=registry.restart())
        assert registry.reconciliation["adopted_devices"] == 1
        assert registry.devices.get(manager.name).alive
        assert manager.name in testbed.scraper._targets
        assert manager.name in registry.health.last_seen
        registry.health.stop()


# ---------------------------------------------------------------------------
# Hypothesis: crash at arbitrary WAL positions, recovery is idempotent
# ---------------------------------------------------------------------------

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.integers(0, 7)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
        st.tuples(st.just("create_mm"), st.integers(0, 3)),
        st.tuples(st.just("delete_mm"), st.integers(0, 3)),
        st.tuples(st.just("program"), st.integers(0, 2)),
        st.tuples(st.just("fail_device"), st.integers(0, 2)),
        st.tuples(st.just("recover_device"), st.integers(0, 2)),
        st.tuples(st.just("add_node"), st.integers(0, 1)),
        st.tuples(st.just("retire_node"), st.integers(0, 4)),
    ),
    min_size=1, max_size=10,
)
#: Pod name prefix and function of each accelerator's pods.
PODS = {"sobel": ("pod", "fn-sobel"), "mm": ("mm", "fn-mm")}


def examples(count):
    """``count`` examples, or more under a longer Hypothesis profile
    (``HYPOTHESIS_PROFILE=ci``)."""
    return max(count, settings.default.max_examples)


def reapply_wal(registry):
    """Replay the store's WAL, in order, over the Registry's live state
    through the reducer; replay must append nothing to the WAL.

    Managers resolve through the Registry's own address book, as at a
    restart: a retired manager is no longer in it.
    """
    _snapshot, records = registry.store.replay()
    appends = registry.store.appends
    resolver = dict(registry._known_managers)
    for record in records:
        registry._apply(record.op, record.args, resolver,
                        wal_seq=record.seq)
    assert registry.store.appends == appends


def kept_promises(registry):
    """Devices whose pending bitstream their board already runs."""
    return [record.name for record in registry.devices.all()
            if record.pending_bitstream is not None
            and record.pending_bitstream == record.configured_bitstream]


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
            accelerator = "mm" if action.endswith("_mm") else "sobel"
            prefix, function = PODS[accelerator]
            name = f"{prefix}-{arg}"
            if action.startswith("create"):
                if name in testbed.cluster.pods:
                    continue
                try:
                    yield from testbed.cluster.create_pod(PodSpec(
                        name=name, function=function,
                        device_query=DeviceQuery(accelerator=accelerator),
                    ))
                except AllocationError:
                    # Admission denied (every device is dead): the pod
                    # was never created, as a rejected kubectl create.
                    assert name not in testbed.cluster.pods
            elif action.startswith("delete"):
                if name in testbed.cluster.pods:
                    testbed.cluster.delete_pod(name)
            elif action == "program":
                # The board runs the bitstream the Registry promised it,
                # which makes the promise a fulfilled one.
                record = registry.devices.find(manager_names[arg])
                if record is not None and record.pending_bitstream:
                    manager = testbed.managers[record.name]
                    yield from manager.board.program(
                        manager.library.get(record.pending_bitstream))
            elif action == "fail_device":
                registry.on_device_failure(manager_names[arg])
            elif action == "recover_device":
                registry.on_device_recovery(manager_names[arg])
            elif action == "add_node":
                spec = replace(NEW_NODE, name=f"X{arg}")
                if f"dm-{spec.name}" not in testbed.managers:
                    registry.register_manager(testbed.add_node(spec))
            elif action == "retire_node":
                names = sorted(testbed.managers)
                registry.deregister_manager(names[arg % len(names)])

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

    # 1. Converged to ground truth: no double allocations, none lost, and
    #    no promise a board already keeps (the restart built every view).
    assert check_invariants(registry, testbed.cluster) == (0, 0)
    assert kept_promises(registry) == []

    # 2. Double replay is a no-op: re-applying the full WAL in order
    #    leaves both services bit-identical.
    before = state_digest(registry)
    reapply_wal(registry)
    assert state_digest(registry) == before

    # 3. A second crash/restart converges to the same state.
    registry.crash()
    env.run(until=registry.restart())
    env.run(until=env.now + 1.0)
    assert check_invariants(registry, testbed.cluster) == (0, 0)
    assert kept_promises(registry) == []


@settings(max_examples=examples(200), deadline=None)
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


def test_instance_on_a_retired_manager_is_dropped_after_a_lost_tail():
    """Regression: the WAL holds admit pod-0 → dm-A, remove_instance and
    deregister_manager dm-A, and the cut keeps the admit only.  Replay
    cannot re-register dm-A (the address book forgot it), so the admit
    restores an instance no device record holds; reconciliation must
    still drop it, since its pod is gone."""
    check_recovery_idempotent(
        [("create", 0), ("delete", 0), ("retire_node", 0)], cut=6,
        snapshot=False)


def test_replaying_device_toggles_keeps_pending_bitstream():
    """Regression: replaying device_dead/device_alive over a state that
    is already past them must not clear the pending bitstream the
    post-recovery re-adoption set."""
    check_recovery_idempotent(
        [("fail_device", 0), ("recover_device", 0), ("create", 0)], cut=5,
        snapshot=False)


def test_replaying_a_promise_the_board_keeps_makes_none():
    """Regression: dm-A was promised MM, then Sobel (pod-0 displaced the
    MM pod), and its board runs Sobel.  Re-applying that log over the
    recovered state, which holds no promise for dm-A, passes through the
    MM promise and must not end on a Sobel promise the board keeps."""
    check_recovery_idempotent(
        [("create_mm", 0), ("create_mm", 1), ("create_mm", 2),
         ("create", 0), ("program", 0)], cut=6, snapshot=False)


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
    reapply_wal(registry)
    assert state_digest(registry) == before
