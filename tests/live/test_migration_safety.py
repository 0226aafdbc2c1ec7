"""The two safety paths of a live move that no experiment triggers.

* A unary call from a client whose session is being moved is refused by
  the draining source with ``CL_DEVICE_MIGRATING``; the connection waits
  for the move to settle and replays the call against the target.
* A move whose target refuses the restore falls back to the paper's
  create-before-delete restart through ``registry.evacuate``.
"""

from repro.core.device_manager import protocol
from repro.live import controller_connection_resolver
from repro.serverless import SobelApp
from repro.sim import Environment
from repro.system import Load, SystemConfig, build_system


def _live_pair():
    """A two-board live-migration system serving one Sobel function."""
    env = Environment()
    system = build_system(env, SystemConfig(boards=2, migration="live"))
    system.deploy([system.function_spec("sobel-0", SobelApp, "sobel")])
    (instance,) = system.controller.live_instances("sobel-0")
    name = instance.pod.name
    source = system.registry.functions.instance(name).device
    (target,) = set(system.testbed.managers) - {source}
    return env, system, name, source, target


def test_refused_call_replays_against_the_rebound_manager():
    env, system, name, source, target = _live_pair()
    managers = system.testbed.managers
    connection = controller_connection_resolver(system.controller)(name)
    # Let the instance's start-up calls (eager buffer creation) finish, so
    # the call below is the only one in flight.
    env.run(until=env.now + 0.5)
    paused = env.event()
    pause = connection.pause_stream

    def pause_then_signal():
        yield from pause()
        paused.succeed()

    connection.pause_stream = pause_then_signal

    def move():
        yield from system.live_migrator.migrate(source, [(name, target)])

    def call():
        # Issued while the source is drained and this client's stream is
        # paused for its checkpoint.
        yield paused
        assert managers[source].migrating
        return (yield from connection.call(protocol.GET_DEVICE_INFO, {}))

    mover = env.process(move())
    caller = env.process(call())
    env.run(until=mover)
    env.run(until=caller)

    assert caller.value["node"] == managers[target].node.name
    assert connection.retries == 1
    assert connection.rebinds == 1
    assert managers[source].migrating_clients == set()
    assert system.live_migrator.migrated == 1
    assert system.live_migrator.fallbacks == 0
    assert system.hung_events == 0


def test_refused_restore_falls_back_to_a_restart():
    env, system, name, source, target = _live_pair()
    registry, managers = system.registry, system.testbed.managers
    target_board = managers[target].board
    evacuated = []
    evacuate = registry.evacuate

    def counted_evacuate(instance_name):
        evacuated.append(instance_name)
        return evacuate(instance_name)

    registry.evacuate = counted_evacuate

    def prepare():
        # The target runs the victim's bitstream, but its DDR is full, so
        # the restore is refused; the hog is gone before the restart's
        # replacement allocates.
        yield from target_board.program(system.testbed.library.get("sobel"))
        hog = target_board.allocate(target_board.memory.free)
        yield env.timeout(0.5)
        yield from system.live_migrator.migrate(source, [(name, target)])
        target_board.free(hog)

    (stats,) = system.drive([Load("sobel-0", 20.0, duration=6.0)],
                            extra=[prepare()], settle=0.5)

    assert system.live_migrator.fallbacks == 1
    assert system.live_migrator.migrated == 0
    assert evacuated == [name]
    assert name not in system.gateway.function("sobel-0").pod_names
    assert stats.completed > 0
    latency, result = env.run(until=env.process(
        system.gateway.invoke("sobel-0")))
    assert result is not None
    assert system.hung_events == 0
