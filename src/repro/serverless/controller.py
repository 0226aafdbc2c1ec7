"""Function controller: starts instances in pods and performs migrations.

Plays the role of OpenFaaS' operator + Kubernetes deployment controller:
watches the cluster for pods of deployed functions, attaches a
:class:`~repro.serverless.instance.FunctionInstance` to each once it is
RUNNING, and implements the paper's migration semantics — "Kubernetes
creates new instances before deleting the previous ones: in this way the
Registry can patch and schedule them on a different node."
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster.apiserver import Cluster
from ..cluster.objects import PodPhase, PodSpec, WatchEvent, WatchEventType
from ..core.remote_lib.router import PlatformRouter
from ..sim import Environment
from .gateway import Gateway
from .instance import FunctionInstance


class FunctionController:
    """Reconciles pods of deployed functions with running instances."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        gateway: Gateway,
        router: Optional[PlatformRouter] = None,
    ):
        self.env = env
        self.cluster = cluster
        self.gateway = gateway
        self.router = router
        self.instances: Dict[str, FunctionInstance] = {}
        cluster.watch(self._on_watch)
        gateway.on_deploy = lambda function: None  # deploy is pod-driven

    # -- watch-driven reconciliation ------------------------------------------
    def _on_watch(self, event: WatchEvent) -> None:
        pod = event.pod
        function = self.gateway.functions.get(pod.spec.function)
        if function is None:
            return
        if event.type is WatchEventType.MODIFIED and pod.phase is PodPhase.RUNNING:
            if pod.name not in self.instances:
                assert pod.node is not None
                self.instances[pod.name] = FunctionInstance(
                    self.env, function, pod, pod.node, self.router
                )
        elif event.type is WatchEventType.DELETED:
            self.instances.pop(pod.name, None)
            function.remove_pod(pod.name)

    def live_instances(self, function_name: str) -> List[FunctionInstance]:
        """Instances of a function currently attached to running pods."""
        function = self.gateway.function(function_name)
        return [
            self.instances[name]
            for name in function.pod_names
            if name in self.instances
        ]

    # -- readiness -------------------------------------------------------------
    def wait_ready(self, function_name: str):
        """Process: wait until every pod of a function serves requests."""
        function = self.gateway.function(function_name)
        while True:
            pending = [
                name for name in function.pod_names
                if name not in self.instances
            ]
            if not pending:
                break
            yield self.env.timeout(0.05)
        for name in list(function.pod_names):
            instance = self.instances.get(name)
            if instance is not None and not instance.ready.triggered:
                yield instance.ready

    # -- migration ---------------------------------------------------------------
    def migrate(self, instance_name: str, function_name: str):
        """Process: create-before-delete move of one instance."""
        function = self.gateway.function(function_name)
        replacement = function.next_instance_name()
        spec = PodSpec(
            name=replacement,
            function=function_name,
            device_query=function.spec.device_query,
            labels={"runtime": function.spec.runtime, "migrated-from":
                    instance_name},
        )
        pod = yield from self.cluster.create_pod(spec)
        function.add_pod(pod.name)
        new_instance = self.instances.get(pod.name)
        if new_instance is not None:
            yield new_instance.ready
        self.cluster.delete_pod(instance_name)
        return pod
