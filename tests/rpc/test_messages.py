"""Tests for control-plane messaging (endpoints, unary calls, replies)."""

import pytest

from repro.rpc import (
    GrpcTransport,
    Message,
    Network,
    RpcEndpoint,
    RpcError,
    reply,
    reply_error,
    send_to_client,
    unary_call,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def setup(env):
    network = Network(env)
    host = network.host("A")
    transport = GrpcTransport(env, network, host, host)
    endpoint = RpcEndpoint(env, "device-manager")
    return transport, endpoint


def run(env, generator):
    return env.run(until=env.process(generator))


def test_one_way_message_delivery(env, setup):
    transport, endpoint = setup
    message = Message(method="CreateBuffer", payload={"size": 64},
                      id=env.new_id("message"))

    def client(env):
        yield from transport.deliver_to_server(endpoint, message)

    def server(env):
        received = yield endpoint.inbox.get()
        return received

    env.process(client(env))
    received = run(env, server(env))
    assert received.method == "CreateBuffer"
    assert received.payload == {"size": 64}
    assert endpoint.delivered == 1
    assert env.now > 0  # transport latency applied


def test_unary_call_round_trip(env, setup):
    transport, endpoint = setup

    def server(env):
        message = yield endpoint.inbox.get()
        assert message.reply_to is not None
        yield from reply(transport, message, {"buffer_id": 7})

    def client(env):
        result = yield from unary_call(
            transport, endpoint, "CreateBuffer", {"size": 64},
        )
        return result

    env.process(server(env))
    result = run(env, client(env))
    assert result == {"buffer_id": 7}


def test_unary_call_error_raises_on_client(env, setup):
    transport, endpoint = setup

    def server(env):
        message = yield endpoint.inbox.get()
        yield from reply_error(transport, message, ValueError("no memory"))

    def client(env):
        try:
            yield from unary_call(transport, endpoint, "CreateBuffer")
        except RpcError as exc:
            return str(exc)
        return None

    env.process(server(env))
    assert "no memory" in run(env, client(env))


def test_reply_to_one_way_message_rejected(env, setup):
    transport, endpoint = setup
    message = Message(id=env.new_id("message"), method="Notify")
    with pytest.raises(ValueError):
        run(env, reply(transport, message, None))


def test_tag_travels_with_message(env, setup):
    transport, endpoint = setup
    sentinel = object()
    message = Message(method="EnqueueRead", tag=sentinel,
                      id=env.new_id("message"))

    def client(env):
        yield from transport.deliver_to_server(endpoint, message)

    def server(env):
        received = yield endpoint.inbox.get()
        return received.tag

    env.process(client(env))
    assert run(env, server(env)) is sentinel


def test_server_push_notification(env, setup):
    """Server → client push, as the Device Manager notifies completions."""
    transport, _ = setup
    client_endpoint = RpcEndpoint(env, "client-completion-queue")

    def server(env):
        yield send_to_client(
            transport, client_endpoint,
            Message(method="OpComplete", tag=42, id=env.new_id("message")),
        )

    def client(env):
        message = yield client_endpoint.inbox.get()
        return message.tag

    env.process(server(env))
    assert run(env, client(env)) == 42


def test_messages_have_unique_ids(env):
    # Unique within a simulation, and the same in every run of it.
    assert [env.new_id("message") for _ in range(3)] == [1, 2, 3]
    assert Environment().new_id("message") == 1
