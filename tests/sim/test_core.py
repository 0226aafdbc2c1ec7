"""Unit tests for the DES scheduler and process machinery."""

import ast
from pathlib import Path

import pytest

from repro.sim import Environment, Interrupt, SimError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_only_the_kernel_writes_the_clock():
    # ``Environment.now`` is a writable slot: an assignment anywhere but
    # the kernel would silently move the clock under scheduled events.
    root = Path(__file__).resolve().parents[2]
    kernel = root / "src" / "repro" / "sim" / "core.py"
    writers = []
    for top in ("src", "perfbench", "benchmarks", "examples", "tests"):
        for path in sorted((root / top).rglob("*.py")):
            if path == kernel:
                continue
            writers.extend(
                f"{path.relative_to(root)}:{node.lineno}"
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.Attribute) and node.attr == "now"
                and not isinstance(node.ctx, ast.Load))
    assert writers == []


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)

    env.process(proc(env))
    env.run()
    assert env.now == 3.0


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10.0)

    env.process(proc(env))
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_process_return_value_via_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 99

    p = env.process(proc(env))
    assert env.run(until=p) == 99


def test_process_join():
    env = Environment()
    order = []

    def child(env):
        yield env.timeout(2.0)
        order.append("child")
        return "result"

    def parent(env):
        value = yield env.process(child(env))
        order.append("parent")
        assert value == "result"

    env.process(parent(env))
    env.run()
    assert order == ["child", "parent"]


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, name):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, 3.0, "c"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abcd":
        env.process(proc(env, name))
    env.run()
    assert order == list("abcd")


def test_unhandled_process_exception_propagates():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(proc(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_failure_handled_by_joiner_does_not_propagate():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["boom"]


def test_yield_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42  # type: ignore[misc]

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_event_succeed_wakes_waiter():
    env = Environment()
    done = env.event()
    seen = []

    def waiter(env):
        value = yield done
        seen.append(value)

    def firer(env):
        yield env.timeout(5.0)
        done.succeed("fired")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert seen == ["fired"]
    assert env.now == 5.0


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed()
    with pytest.raises(SimError):
        event.succeed()


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimError):
        _ = event.value


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    order = []

    def proc(env):
        done = env.event()
        done.succeed("x")
        yield env.timeout(1.0)  # let `done` be processed first
        value = yield done
        order.append((env.now, value))

    env.process(proc(env))
    env.run()
    assert order == [(1.0, "x")]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(env, victim_proc):
        yield env.timeout(3.0)
        victim_proc.interrupt(cause="migration")

    v = env.process(victim(env))
    env.process(interrupter(env, v))
    env.run()
    assert log == [(3.0, "migration")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def victim(env):
        yield env.timeout(1.0)

    v = env.process(victim(env))
    env.run()
    with pytest.raises(SimError):
        v.interrupt()


def test_a_second_interrupt_of_the_same_instant_finds_the_process_ended():
    # A Device Manager crash and a worker kill in one instant both
    # interrupt the worker; the first ends it and the second is dropped.
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            log.append(interrupt.cause)

    def interrupter(env, victim_proc):
        yield env.timeout(1.0)
        victim_proc.interrupt("crash")
        victim_proc.interrupt("kill")

    v = env.process(victim(env))
    env.process(interrupter(env, v))
    env.run()
    assert log == ["crash"]
    assert v.processed and v.ok


def test_interrupted_process_not_resumed_by_stale_target():
    env = Environment()
    resumed = []

    def victim(env):
        try:
            yield env.timeout(10.0)
            resumed.append("timeout")
        except Interrupt:
            yield env.timeout(100.0)
            resumed.append("after-interrupt")

    def interrupter(env, victim_proc):
        yield env.timeout(1.0)
        victim_proc.interrupt()

    v = env.process(victim(env))
    env.process(interrupter(env, v))
    env.run()
    # The original 10s timeout must not resume the victim a second time.
    assert resumed == ["after-interrupt"]
    assert env.now == 101.0


def test_run_until_untriggered_event_with_empty_schedule_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimError):
        env.run(until=event)


def test_active_process_tracking():
    env = Environment()
    observed = []

    def proc(env):
        observed.append(env.active_process)
        yield env.timeout(1.0)

    p = env.process(proc(env))
    env.run()
    assert observed == [p]
    assert env.active_process is None


def test_peek_empty_queue_is_infinite():
    env = Environment()
    env.run()
    assert env.peek() == float("inf")
