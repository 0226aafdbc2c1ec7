"""Failure detection and recovery across the BlastFunction stack.

Covers the injected fault modes (board lock-up, reconfiguration failure,
kernel hang, Device Manager crash/restart, worker death) and the recovery
machinery that resolves them: structured error codes on every reply, the
idempotent reply cache, data-arrival timeouts, and the heartbeat/lease
protocol between Device Managers and the Accelerators Registry.
"""

import pytest

from repro.cluster import build_testbed
from repro.core.device_manager import DeviceManager, protocol
from repro.core.device_manager.manager import DeviceManagerError, _error_code
from repro.core.registry import AcceleratorsRegistry
from repro.faults import FaultScript, HealthPolicy
from repro.fpga import FPGABoard, KernelFault, standard_library
from repro.fpga.board import BoardUnavailableError, ReconfigurationError
from repro.ocl.errors import (
    CL_DEVICE_NOT_AVAILABLE,
    CL_INVALID_KERNEL_NAME,
    CL_INVALID_MEM_OBJECT,
    CL_INVALID_VALUE,
    CL_MEM_OBJECT_ALLOCATION_FAILURE,
    CL_OUT_OF_RESOURCES,
)
from repro.rpc import (
    Message,
    Network,
    RpcEndpoint,
    RpcError,
    RpcTimeout,
    ShmTransport,
    unary_call,
)
from repro.sim import Environment


def run(env, generator):
    return env.run(until=env.process(generator))


# ---------------------------------------------------------------------------
# Board fault modes
# ---------------------------------------------------------------------------

class TestBoardFaults:
    def test_lock_up_refuses_everything(self):
        env = Environment()
        library = standard_library()
        board = FPGABoard(env, name="fpga-T", functional=True)
        run(env, board.program(library.get("sobel")))
        board.lock_up()
        assert not board.alive
        assert board.lockups == 1
        with pytest.raises(BoardUnavailableError, match="locked up"):
            board.allocate(64)
        with pytest.raises(BoardUnavailableError):
            run(env, board.program(library.get("mm")))

    def test_recover_wipes_state_and_serves_again(self):
        env = Environment()
        library = standard_library()
        board = FPGABoard(env, name="fpga-T", functional=True)
        run(env, board.program(library.get("sobel")))
        board.allocate(1024)
        board.lock_up()
        board.recover()
        assert board.alive
        assert board.memory.used == 0  # lock-up recovery wipes memory
        board.allocate(64)  # serves again

    def test_reconfiguration_failure_leaves_board_unprogrammed(self):
        env = Environment()
        library = standard_library()
        board = FPGABoard(env, name="fpga-T", functional=True)
        board.reconfiguration_injector = lambda bitstream: True
        with pytest.raises(ReconfigurationError):
            run(env, board.program(library.get("sobel")))
        assert not board.programmed
        board.reconfiguration_injector = None
        run(env, board.program(library.get("sobel")))
        assert board.programmed

    def test_kernel_hang_detected_after_watchdog_window(self):
        env = Environment()
        library = standard_library()
        board = FPGABoard(env, name="fpga-T", functional=False)
        run(env, board.program(library.get("sobel")))
        board.fault_injector = lambda kernel, n: "hang"
        src = board.allocate(64)
        dst = board.allocate(64)
        before = env.now
        with pytest.raises(KernelFault, match="hung on board"):
            run(env, board.execute("sobel", [src, dst, 4, 4]))
        assert env.now - before >= board.hang_detect_seconds


# ---------------------------------------------------------------------------
# Structured error codes
# ---------------------------------------------------------------------------

class TestErrorCodes:
    def test_error_code_mapping(self):
        from repro.fpga import OutOfMemoryError

        assert _error_code(OutOfMemoryError("full")) == \
            CL_MEM_OBJECT_ALLOCATION_FAILURE
        assert _error_code(KernelFault("died")) == CL_OUT_OF_RESOURCES
        assert _error_code(BoardUnavailableError("locked")) == \
            CL_DEVICE_NOT_AVAILABLE
        assert _error_code(ValueError("bad")) == CL_INVALID_VALUE
        assert _error_code(
            DeviceManagerError("x", cl_code=CL_INVALID_KERNEL_NAME)
        ) == CL_INVALID_KERNEL_NAME


# ---------------------------------------------------------------------------
# Device Manager crash / restart / worker death / idempotent retries
# ---------------------------------------------------------------------------

@pytest.fixture
def rig():
    env = Environment()
    network = Network(env)
    node = network.host("B")
    board = FPGABoard(env, functional=True)
    manager = DeviceManager(env, "dm-B", board, standard_library(),
                            network, node)
    transport = ShmTransport(env, network, node, node)
    completions = RpcEndpoint(env, "client/completions")
    return env, manager, transport, completions


def connect(env, manager, transport, completions, client="raw-client"):
    def flow():
        return (yield from unary_call(
            transport, manager.endpoint, protocol.CONNECT,
            {"transport": transport, "completion_queue": completions},
            sender=client,
        ))

    return env.run(until=env.process(flow()))


def call(env, manager, transport, method, payload, client="raw-client",
         timeout=None, request_id=None):
    def flow():
        return (yield from unary_call(
            transport, manager.endpoint, method, payload, sender=client,
            timeout=timeout, request_id=request_id,
        ))

    return env.run(until=env.process(flow()))


def stream(env, manager, transport, method, payload, tag=None,
           client="raw-client"):
    """Deliver a streamed (no-reply) message with transport delay."""

    def flow():
        yield from transport.control_to_server()
        manager.endpoint.deliver(Message(
            id=env.new_id("message"),
            method=method, payload=payload, sender=client, tag=tag
        ))

    env.run(until=env.process(flow()))


class TestManagerCrash:
    def test_crash_stops_serving_and_restart_resumes(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        manager.crash()
        assert not manager.healthy
        assert manager.crashes == 1
        assert manager.sessions == {}
        with pytest.raises(RpcTimeout):
            call(env, manager, transport, protocol.GET_PLATFORM_INFO, {},
                 timeout=0.5)
        manager.restart()
        assert manager.healthy
        connect(env, manager, transport, completions)
        info = call(env, manager, transport, protocol.GET_PLATFORM_INFO, {})
        assert info  # served again after the restart

    def test_crash_is_idempotent(self, rig):
        env, manager, transport, completions = rig
        manager.crash()
        manager.crash()
        assert manager.crashes == 1

    def test_kill_worker_reduces_capacity_until_restart(self, rig):
        env, manager, transport, completions = rig
        env.run(until=0.001)  # let the worker processes start
        alive_before = sum(
            1 for w in manager._worker_procs if w.is_alive
        )
        assert alive_before >= 1
        manager.kill_worker(0)
        env.run(until=env.now + 0.01)
        assert sum(
            1 for w in manager._worker_procs if w.is_alive
        ) == alive_before - 1

    def test_structured_code_on_unknown_buffer(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        with pytest.raises(RpcError, match="unknown buffer") as excinfo:
            call(env, manager, transport, protocol.RELEASE_BUFFER,
                 {"buffer_id": 999})
        assert excinfo.value.code == CL_INVALID_MEM_OBJECT

    def test_call_without_session_is_rejected(self, rig):
        # No session means no reply path: the manager counts the message
        # as rejected and the caller's deadline resolves the wait.
        env, manager, transport, completions = rig
        with pytest.raises(RpcTimeout):
            call(env, manager, transport, protocol.CREATE_BUFFER,
                 {"size": 64}, timeout=0.5)
        assert manager.rejected_messages == 1

    def test_duplicate_request_id_replays_cached_reply(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        from repro.rpc import new_request_id

        rid = new_request_id(env)
        first = call(env, manager, transport, protocol.CREATE_BUFFER,
                     {"size": 128}, request_id=rid)
        second = call(env, manager, transport, protocol.CREATE_BUFFER,
                      {"size": 128}, request_id=rid)
        assert first == second  # replayed, not re-executed
        session = manager.sessions["raw-client"]
        assert len(session.buffers) == 1
        assert manager.board.memory.used == 128

    def test_data_timeout_fails_op_instead_of_wedging_worker(self, rig):
        env, manager, transport, completions = rig
        manager.data_timeout = 0.2
        connect(env, manager, transport, completions)
        buffer_id = call(env, manager, transport, protocol.CREATE_BUFFER,
                         {"size": 64})["buffer_id"]
        # Enqueue a write whose payload never arrives.
        stream(env, manager, transport, protocol.ENQUEUE_WRITE,
               {"queue": 0, "buffer_id": buffer_id, "nbytes": 64}, tag=1)
        stream(env, manager, transport, protocol.FLUSH, {"queue": 0})
        env.run(until=env.now + 2.0)
        notifications = [m for m in completions.inbox.items
                         if m.method == protocol.OP_FAILED]
        assert len(notifications) == 1
        assert "never arrived" in notifications[0].payload["error"]
        # The worker survived: the manager still serves.
        info = call(env, manager, transport, protocol.GET_PLATFORM_INFO, {})
        assert info


# ---------------------------------------------------------------------------
# Heartbeat/lease failure detection at the Registry
# ---------------------------------------------------------------------------

class TestHealthMonitor:
    def test_crash_detected_and_recovery_observed(self):
        env = Environment()
        testbed = build_testbed(env, functional=False)
        registry = AcceleratorsRegistry(
            env, testbed.cluster, list(testbed.managers.values())
        )
        health = registry.enable_health(
            network=testbed.network,
            policy=HealthPolicy(heartbeat_interval=0.1, lease_timeout=0.4),
        )
        victim = testbed.managers["dm-B"]
        script = FaultScript(env)
        script.crash_manager(victim, at=1.0, restart_after=1.0)
        script.arm()

        env.run(until=1.9)
        assert health.failures_detected
        assert health.failures_detected[0][1] == "dm-B"
        assert not registry.devices.get("dm-B").alive
        assert all(v.name != "dm-B" for v in registry.device_views())
        assert registry.device_failures == 1

        env.run(until=3.0)
        assert health.recoveries_detected
        assert registry.devices.get("dm-B").alive
        assert any(v.name == "dm-B" for v in registry.device_views())
        health.stop()

    def test_healthy_managers_keep_their_leases(self):
        env = Environment()
        testbed = build_testbed(env, functional=False)
        registry = AcceleratorsRegistry(
            env, testbed.cluster, list(testbed.managers.values())
        )
        health = registry.enable_health(
            network=testbed.network,
            policy=HealthPolicy(heartbeat_interval=0.1, lease_timeout=0.4),
        )
        env.run(until=3.0)
        assert health.failures_detected == []
        assert all(r.alive for r in registry.devices.all())
        health.stop()
