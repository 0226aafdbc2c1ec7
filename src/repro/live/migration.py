"""The live-migration plane: drain → checkpoint → transfer → restore.

Orchestrates zero-downtime moves of function instances between Device
Managers when Algorithm 1's redistribution displaces them (the Registry's
``migration="live"`` mode).  Per batch of moves off one source board:

1. mark the victims as migrating and **drain** the source manager —
   workers quiesce at the next operation boundary, racing submits are
   rejected with ``CL_DEVICE_MIGRATING`` (the client connection replays
   them after the rebind);
2. per victim: **pause** the client's outbound stream, wait a settle
   window for in-flight WRITE payloads to land, **capture** the session
   into a :class:`~repro.live.checkpoint.SessionCheckpoint`;
3. pay the **state transfer** over the cluster network (buffer contents,
   staged payloads, metadata);
4. **rebind** the client connection to the target manager and **restore**
   the session there — outstanding OpenCL event machines resolve on the
   new manager because completions are routed by tag;
5. complete the Registry bookkeeping and **resume** the stream and the
   source manager.

Any victim that cannot move live (no connection, incompatible or full
target, target busy with other tenants' bitstream) falls back to the
paper's create-before-delete restart migration.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.device_manager.manager import DeviceManager
from ..rpc import Network
from ..sim import Environment
from .checkpoint import CheckpointError, capture_session, restore_session

#: Resolves an instance name to its live client connection (or None).
ConnectionResolver = Callable[[str], Optional[object]]


def controller_connection_resolver(controller) -> ConnectionResolver:
    """Resolver over a serverless FunctionController's running instances."""

    def resolve(instance_name: str):
        instance = controller.instances.get(instance_name)
        if instance is None or instance.platform is None:
            return None
        return getattr(instance.platform.driver, "connection", None)

    return resolve


class LiveMigrator:
    """Checkpoint/restore mover wired into the Accelerators Registry."""

    #: Seconds to wait after pausing a client's stream before capturing:
    #: write payloads already on the wire (up to ~25 MB at 10 GbE) land in
    #: the manager's pending-write table instead of being lost.
    SETTLE = 0.02

    def __init__(
        self,
        env: Environment,
        registry,
        managers: Dict[str, DeviceManager],
        connection_of: ConnectionResolver,
        network: Optional[Network] = None,
    ):
        self.env = env
        self.registry = registry
        self.managers = dict(managers)
        self.connection_of = connection_of
        self.network = network
        #: Sessions moved live / moves that fell back to restart.
        self.migrated = 0
        self.fallbacks = 0
        #: (instance, source, target) tuples of completed live moves.
        self.log: List[Tuple[str, str, str]] = []

    # -- entry point (spawned by Registry._migrate) --------------------------
    def migrate(self, source_name: str, moves: List[Tuple[str, str]]):
        """Process: move every ``(instance, target)`` off ``source_name``."""
        source = self.managers.get(source_name)
        victims: List[Tuple[str, str, object]] = []
        restart: List[str] = []
        for instance_name, target_name in moves:
            target = self.managers.get(target_name)
            connection = self.connection_of(instance_name)
            if (source is None or target is None or connection is None
                    or not source.alive or not target.alive
                    or instance_name not in source.sessions):
                restart.append(instance_name)
                continue
            victims.append((instance_name, target_name, connection))

        if victims and source is not None:
            for instance_name, _target, _conn in victims:
                source.migrating_clients.add(instance_name)
            yield from source.drain()
            for instance_name, target_name, connection in victims:
                moved = yield from self._migrate_one(
                    source, instance_name, target_name, connection
                )
                if not moved:
                    restart.append(instance_name)
            source.resume()

        for instance_name in restart:
            self.fallbacks += 1
            yield from self._restart(instance_name)

    # -- one victim ----------------------------------------------------------
    def _migrate_one(self, source: DeviceManager, instance_name: str,
                     target_name: str, connection):
        target = self.managers[target_name]
        yield from connection.pause_stream()
        yield self.env.timeout(self.SETTLE)

        ready = yield from self._prepare_target(source, target,
                                                instance_name)
        if not ready:
            connection.resume_stream()
            return False

        try:
            checkpoint = capture_session(source, instance_name)
        except CheckpointError:
            connection.resume_stream()
            return False

        if self.network is not None and not self.network.is_local(
                source.node, target.node):
            yield from self.network.transfer(
                source.node, target.node, checkpoint.transfer_nbytes
            )

        transport = connection.rebind(target.endpoint, target.node)
        try:
            restore_session(target, checkpoint, transport,
                            connection.completion_queue)
        except CheckpointError:
            # Target refused (e.g. out of memory): the session is gone on
            # both sides — the restart fallback recreates the instance.
            connection.resume_stream()
            return False

        self.registry.complete_live_migration(
            instance_name, source.name, target.name
        )
        self.migrated += 1
        self.log.append((instance_name, source.name, target.name))
        connection.resume_stream()
        return True

    def _prepare_target(self, source: DeviceManager, target: DeviceManager,
                        instance_name: str):
        """Process: make sure the target board runs the victim's bitstream:
        the one its kernels on ``source`` were created from, which the
        source knows even while the Registry is down.

        Algorithm 1 already picked a compatible target; when the image is
        not loaded yet the board is reprogrammed — but only while no other
        tenant holds live buffers there (a full reprogram wipes DDR).
        Returns False when the move must fall back to a restart.
        """
        session = source.sessions.get(instance_name)
        if session is None:
            return False  # lost with the source: nothing to move
        if not session.kernels:
            return True
        needed, _kernel_name = next(iter(session.kernels.values()))
        live = [slot.name for slot in target.board.slots if slot is not None]
        if needed in live:
            return True
        try:
            bitstream = target.library.get(needed)
        except KeyError:
            return False
        if len(target.board.memory):
            return False  # another tenant holds live DDR; reprogram wipes it
        if target.board.slot_count > 1:
            free = [i for i, slot in enumerate(target.board.slots)
                    if slot is None]
            slot = free[0] if free else target.board.slot_count - 1
            yield from target.board.program_slot(slot, bitstream)
        else:
            yield from target.board.program(bitstream)
        return True

    # -- restart fallback -----------------------------------------------------
    def _restart(self, instance_name: str):
        """Process: the paper's create-before-delete move for one victim."""
        evacuation = self.registry.evacuate(instance_name)
        if evacuation is not None:
            yield evacuation
