"""Unit tests for composite events (AllOf/AnyOf)."""

import pytest

from repro.sim import AllOf, AnyOf, Environment


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        result = yield AllOf(env, [t1, t2])
        times.append(env.now)
        assert result[t1] == "a"
        assert result[t2] == "b"

    env.process(proc(env))
    env.run()
    assert times == [3.0]


def test_any_of_fires_on_first_event():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(3.0, value="slow")
        result = yield AnyOf(env, [t1, t2])
        times.append(env.now)
        assert result[t1] == "fast"
        with pytest.raises(KeyError):
            result[t2]

    env.process(proc(env))
    env.run()
    assert times == [1.0]


def test_empty_all_of_triggers_immediately():
    env = Environment()

    def proc(env):
        yield AllOf(env, [])
        assert env.now == 0.0

    env.process(proc(env))
    env.run()


def test_all_of_with_already_processed_events():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0)
        yield t1  # t1 is now processed
        t2 = env.timeout(1.0)
        yield AllOf(env, [t1, t2])
        assert env.now == 2.0

    env.process(proc(env))
    env.run()


def test_all_of_failure_propagates():
    env = Environment()
    caught = []

    def failing(env):
        yield env.timeout(1.0)
        raise RuntimeError("child failed")

    def proc(env):
        child = env.process(failing(env))
        slow = env.timeout(10.0)
        try:
            yield AllOf(env, [child, slow])
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(proc(env))
    env.run()
    assert caught == ["child failed"]


def test_condition_value_mapping_api():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value=1)
        t2 = env.timeout(2.0, value=2)
        result = yield AllOf(env, [t1, t2])
        assert (result[t1], result[t2]) == (1, 2)
        with pytest.raises(KeyError):
            _ = result[env.event()]

    env.process(proc(env))
    env.run()


def test_cross_environment_condition_rejected():
    env1 = Environment()
    env2 = Environment()
    t1 = env1.timeout(1.0)
    t2 = env2.timeout(1.0)
    with pytest.raises(ValueError):
        AllOf(env1, [t1, t2])
