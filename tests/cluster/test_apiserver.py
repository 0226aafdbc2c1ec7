"""Tests for the Kubernetes-model cluster API server."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterNode,
    PodPhase,
    PodSpec,
    SchedulingError,
    WatchEventType,
    build_testbed,
)
from repro.fpga import paper_testbed
from repro.rpc import Network
from repro.sim import Environment, Interrupt


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster(env):
    network = Network(env)
    cluster = Cluster(env)
    for spec in paper_testbed():
        cluster.add_node(ClusterNode(spec, network.host(spec.name, spec.host)))
    return cluster


def run(env, generator):
    return env.run(until=env.process(generator))


class TestTopology:
    def test_nodes_registered(self, cluster):
        assert sorted(cluster.nodes) == ["A", "B", "C"]
        assert cluster.node("A").spec.is_master

    def test_duplicate_node_rejected(self, env, cluster):
        with pytest.raises(ValueError):
            cluster.add_node(cluster.node("A"))

    def test_unknown_node_lookup(self, cluster):
        with pytest.raises(KeyError):
            cluster.node("Z")


class TestPodLifecycle:
    def test_create_pod_runs_after_start_delay(self, env, cluster):
        pod = run(env, cluster.create_pod(PodSpec("p1", "fn")))
        assert pod.phase is PodPhase.RUNNING
        assert env.now == pytest.approx(Cluster.POD_START_DELAY)
        assert pod.node is not None

    def test_scheduler_spreads_by_pod_count(self, env, cluster):
        def flow(env):
            pods = []
            for index in range(6):
                pod = yield from cluster.create_pod(
                    PodSpec(f"p{index}", "fn")
                )
                pods.append(pod)
            return pods

        pods = run(env, flow(env))
        per_node = {}
        for pod in pods:
            per_node[pod.node.name] = per_node.get(pod.node.name, 0) + 1
        assert per_node == {"A": 2, "B": 2, "C": 2}

    def test_forced_node_placement(self, env, cluster):
        pod = run(env, cluster.create_pod(
            PodSpec("p1", "fn", node_name="C")
        ))
        assert pod.node.name == "C"

    def test_unknown_forced_node_fails(self, env, cluster):
        with pytest.raises(SchedulingError):
            run(env, cluster.create_pod(PodSpec("p1", "fn", node_name="Z")))

    def test_duplicate_pod_name_rejected(self, env, cluster):
        run(env, cluster.create_pod(PodSpec("p1", "fn")))
        with pytest.raises(ValueError):
            run(env, cluster.create_pod(PodSpec("p1", "fn")))

    def test_delete_pod_interrupts_workload(self, env, cluster):
        interrupted = []

        def workload(env):
            try:
                yield env.timeout(1000)
            except Interrupt as interrupt:
                interrupted.append(interrupt.cause)

        def flow(env):
            pod = yield from cluster.create_pod(PodSpec("p1", "fn"))
            pod.process = env.process(workload(env))
            yield env.timeout(1.0)
            cluster.delete_pod("p1")
            yield env.timeout(0.1)
            return pod

        pod = run(env, flow(env))
        assert pod.phase is PodPhase.TERMINATED
        assert interrupted == ["pod deleted"]
        assert "p1" not in cluster.pods
        assert "p1" not in pod.node.pods

    def test_delete_unknown_pod_is_noop(self, cluster):
        assert cluster.delete_pod("ghost") is None

    def test_patch_updates_env(self, env, cluster):
        run(env, cluster.create_pod(PodSpec("p1", "fn")))
        pod = cluster.patch_pod("p1", BF_MANAGER="dm-B")
        assert pod.spec.env["BF_MANAGER"] == "dm-B"

    def test_pods_of_function(self, env, cluster):
        def flow(env):
            yield from cluster.create_pod(PodSpec("a-1", "a"))
            yield from cluster.create_pod(PodSpec("a-2", "a"))
            yield from cluster.create_pod(PodSpec("b-1", "b"))

        run(env, flow(env))
        assert len(cluster.pods_of_function("a")) == 2


class TestAdmissionAndWatch:
    def test_admission_hook_mutates_spec(self, env, cluster):
        def hook(spec):
            spec.env["INJECTED"] = "yes"
            spec.node_name = "B"

        cluster.add_admission_hook(hook)
        pod = run(env, cluster.create_pod(PodSpec("p1", "fn")))
        assert pod.spec.env["INJECTED"] == "yes"
        assert pod.node.name == "B"

    def test_admission_hook_rejects(self, env, cluster):
        def hook(spec):
            raise PermissionError("quota exceeded")

        cluster.add_admission_hook(hook)
        with pytest.raises(PermissionError):
            run(env, cluster.create_pod(PodSpec("p1", "fn")))
        assert "p1" not in cluster.pods

    def test_watch_sees_lifecycle_events(self, env, cluster):
        events = []
        cluster.watch(lambda event: events.append(
            (event.type, event.pod.name, event.pod.phase)
        ))

        def flow(env):
            yield from cluster.create_pod(PodSpec("p1", "fn"))
            cluster.delete_pod("p1")

        run(env, flow(env))
        types = [t for t, _, _ in events]
        assert types == [
            WatchEventType.ADDED,
            WatchEventType.MODIFIED,   # → RUNNING
            WatchEventType.DELETED,
        ]


class TestTestbedBuilder:
    def test_builds_paper_testbed(self, env):
        testbed = build_testbed(env)
        assert sorted(testbed.cluster.nodes) == ["A", "B", "C"]
        assert len(testbed.managers) == 3
        assert testbed.cluster.node("B").board is testbed.managers["dm-B"].board
        # Node A's board sits behind PCIe gen2.
        assert testbed.cluster.node("A").board.link.spec.generation == 2
        assert testbed.cluster.node("B").board.link.spec.generation == 3
        assert testbed.scraper is not None

    def test_scraper_collects_manager_metrics(self, env):
        testbed = build_testbed(env, scrape_interval=0.5)
        env.run(until=2.0)
        series = testbed.scraper.database.select_matching(
            "dm_busy_seconds_total", instance="dm-A"
        )
        assert len(series) == 1
