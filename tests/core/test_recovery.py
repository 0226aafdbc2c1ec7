"""Failure detection and recovery across the BlastFunction stack.

Covers the injected fault modes (board lock-up, reconfiguration failure,
kernel hang, Device Manager crash/restart, worker death) and the recovery
machinery that resolves them: structured error codes on every reply,
connections that break when their manager crashes, and the heartbeat/lease
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
        assert board.memory._used == 0  # lock-up recovery wipes memory
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
         timeout=None):
    def flow():
        return (yield from unary_call(
            transport, manager.endpoint, method, payload, sender=client,
            timeout=timeout,
        ))

    return env.run(until=env.process(flow()))


class TestManagerCrash:
    def test_crash_stops_serving_and_restart_resumes(self, rig):
        env, manager, transport, completions = rig
        connect(env, manager, transport, completions)
        manager.crash()
        assert not manager.healthy
        assert manager.crashes == 1
        assert manager.sessions == {}
        # The crash broke the client's connection: calls on it fail at once.
        with pytest.raises(RpcError, match="connection broken") as excinfo:
            call(env, manager, transport, protocol.GET_PLATFORM_INFO, {})
        assert excinfo.value.code == CL_DEVICE_NOT_AVAILABLE
        manager.restart()
        assert manager.healthy
        transport = ShmTransport(env, manager.network, manager.node,
                                 manager.node)
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
