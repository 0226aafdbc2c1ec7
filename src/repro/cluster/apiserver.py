"""Cluster API server: pod lifecycle, admission hooks, watches.

The Accelerators Registry "integrates with Kubernetes to intercept function
creation and deletion in the cluster.  When the cluster notifies the
creation of a new function, the allocation algorithm patches the notified
operation (e.g. adds environment variables, volumes for shared memory and
forces the host allocation)" — modelled here as a synchronous mutating
admission hook plus watch notifications.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim import Environment
from .objects import (
    ClusterNode,
    Pod,
    PodPhase,
    PodSpec,
    WatchEvent,
    WatchEventType,
)

#: Mutating admission hook: may modify the spec or raise to reject the pod.
AdmissionHook = Callable[[PodSpec], None]

#: Watch callback.
Watcher = Callable[[WatchEvent], None]


class SchedulingError(RuntimeError):
    """No node satisfies a pod's placement constraints."""


class Cluster:
    """The control plane."""

    #: Time from successful scheduling to the container entering RUNNING
    #: (image already pulled; warm start of the function runtime).
    POD_START_DELAY = 0.25

    def __init__(self, env: Environment):
        self.env = env
        self.nodes: Dict[str, ClusterNode] = {}
        self.pods: Dict[str, Pod] = {}
        #: Per-function pod index (insertion-ordered, like a full scan).
        self._pods_by_function: Dict[str, Dict[str, Pod]] = {}
        self._admission_hooks: List[AdmissionHook] = []
        self._watchers: List[Watcher] = []
        self._round_robin = 0

    # -- topology -----------------------------------------------------------
    def add_node(self, node: ClusterNode) -> ClusterNode:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        return node

    def node(self, name: str) -> ClusterNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    # -- hooks & watches -------------------------------------------------------
    def add_admission_hook(self, hook: AdmissionHook) -> None:
        self._admission_hooks.append(hook)

    def watch(self, watcher: Watcher) -> None:
        self._watchers.append(watcher)

    def _notify(self, event_type: WatchEventType, pod: Pod) -> None:
        for watcher in list(self._watchers):
            watcher(WatchEvent(event_type, pod))

    # -- pod lifecycle --------------------------------------------------------
    def create_pod(self, spec: PodSpec):
        """Process: admit, schedule and start a pod; returns it RUNNING."""
        if spec.name in self.pods:
            raise ValueError(f"pod {spec.name!r} already exists")
        for hook in self._admission_hooks:
            hook(spec)  # may mutate spec or raise
        pod = Pod(spec)
        pod.created_at = self.env.now
        self.pods[spec.name] = pod
        self._pods_by_function.setdefault(spec.function, {})[spec.name] = pod
        self._schedule(pod)
        self._notify(WatchEventType.ADDED, pod)
        yield self.env.timeout(self.POD_START_DELAY)
        if pod.phase is PodPhase.SCHEDULED:  # not deleted meanwhile
            pod.phase = PodPhase.RUNNING
            pod.started_at = self.env.now
            self._notify(WatchEventType.MODIFIED, pod)
        return pod

    def delete_pod(self, name: str) -> Optional[Pod]:
        """Terminate a pod (interrupting its workload process)."""
        pod = self.pods.pop(name, None)
        if pod is None:
            return None
        of_function = self._pods_by_function.get(pod.spec.function)
        if of_function is not None:
            of_function.pop(name, None)
        if pod.node is not None:
            pod.node.pods.pop(pod.name, None)
        pod.phase = PodPhase.TERMINATED
        if pod.process is not None and pod.process.is_alive:
            pod.process.interrupt("pod deleted")
        self._notify(WatchEventType.DELETED, pod)
        return pod

    def patch_pod(self, name: str, **env_updates: str) -> Pod:
        """Update a pod's environment (the Registry's patch operation)."""
        pod = self.pods[name]
        pod.spec.env.update(env_updates)
        self._notify(WatchEventType.MODIFIED, pod)
        return pod

    def pods_of_function(self, function: str) -> List[Pod]:
        return list(self._pods_by_function.get(function, {}).values())

    # -- scheduling -----------------------------------------------------------
    def _schedule(self, pod: Pod) -> None:
        if not self.nodes:
            raise SchedulingError("cluster has no nodes")
        if pod.spec.node_name:
            try:
                node = self.node(pod.spec.node_name)
            except KeyError as exc:
                raise SchedulingError(str(exc)) from exc
            if not node.ready:
                raise SchedulingError(f"node {node.name!r} is not ready")
        else:
            # Spread by pod count (kube-scheduler's least-allocated flavour),
            # breaking ties round-robin for determinism.
            ready = [n for n in self.nodes.values() if n.ready]
            if not ready:
                raise SchedulingError("no ready node in the cluster")
            ordered = sorted(ready, key=lambda n: (len(n.pods), n.name))
            node = ordered[0]
        pod.node = node
        node.pods[pod.name] = pod
        pod.phase = PodPhase.SCHEDULED
