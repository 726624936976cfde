"""Tests for the socket layer: connect, messaging, ordering, close."""

import pytest

from repro.netsim.fabric import ETHERNET, Fabric
from repro.netsim.sockets import ConnectionClosed, Network, Socket
from repro.simkernel import Environment
from tests.conftest import bytes_per_instance


def make_net():
    env = Environment()
    return env, Network(env, Fabric(env, ETHERNET))


class TestConnect:
    def test_handshake_and_roundtrip(self):
        env, net = make_net()
        log = []

        def server():
            lis = net.listen(1, "svc")
            sock = yield lis.accept()
            msg = yield sock.recv()
            log.append(msg.payload)
            yield sock.send("reply", 64)

        def client():
            sock = yield from net.connect(0, 1, "svc")
            yield sock.send("hello", 64)
            reply = yield sock.recv()
            log.append(reply.payload)

        env.process(server())
        p = env.process(client())
        env.run(p)
        assert log == ["hello", "reply"]

    def test_connect_refused_without_listener(self):
        env, net = make_net()

        def client():
            try:
                yield from net.connect(0, 1, "nothing")
            except ConnectionClosed:
                return "refused"

        p = env.process(client())
        env.run()
        assert p.value == "refused"

    def test_handshake_costs_time(self):
        env, net = make_net()
        net.listen(1, "svc")

        def client():
            yield from net.connect(0, 1, "svc")
            return env.now

        p = env.process(client())
        env.run(p)
        assert p.value > 0

    def test_duplicate_bind_rejected(self):
        env, net = make_net()
        net.listen(1, "svc")
        with pytest.raises(ValueError):
            net.listen(1, "svc")

    def test_listener_close_unbinds(self):
        env, net = make_net()
        lis = net.listen(1, "svc")
        lis.close()
        net.listen(1, "svc")  # rebind allowed


class TestMessaging:
    def test_fifo_ordering_mixed_sizes(self):
        """A large message sent first cannot be overtaken by a small one."""
        env, net = make_net()
        received = []

        def server():
            lis = net.listen(1, "svc")
            sock = yield lis.accept()
            for _ in range(2):
                msg = yield sock.recv()
                received.append(msg.payload)

        def client():
            sock = yield from net.connect(0, 1, "svc")
            sock.send("big", 8 << 20)
            sock.send("small", 1)
            yield env.timeout(0)

        env.process(server())
        env.process(client())
        env.run()
        assert received == ["big", "small"]

    def test_in_flight_messages_arrive_in_send_order_then_close(self):
        env, net = make_net()
        received = []

        def server():
            lis = net.listen(1, "svc")
            sock = yield lis.accept()
            while True:
                try:
                    msg = yield sock.recv()
                except ConnectionClosed:
                    received.append("closed")
                    return
                received.append(msg.payload)

        def client():
            sock = yield from net.connect(0, 1, "svc")
            for i in range(5):
                sock.send(i, 64 << i)
            sock.close()
            yield env.timeout(0)

        env.process(server())
        env.process(client())
        env.run()
        assert received == [0, 1, 2, 3, 4, "closed"]

    def test_connected_pair_costs_at_most_3_kb(self):
        # Slots and list-backed queues: 966 B on CPython 3.11, against
        # 6,700 B with deques and instance dicts; the bound leaves room
        # for 3.10's larger instance dicts.
        env, net = make_net()

        def connected_pair(conn_id):
            # As Network.connect builds them.
            client = Socket(net, 0, 1, "svc", conn_id, "client")
            server = Socket(net, 1, 0, "svc", conn_id, "server")
            client._peer = server
            server._peer = client
            return client

        assert bytes_per_instance(connected_pair) <= 3_000

    def test_bigger_messages_take_longer(self):
        env, net = make_net()
        times = {}

        def server():
            lis = net.listen(1, "svc")
            sock = yield lis.accept()
            t0 = env.now
            yield sock.recv()
            times["arrival"] = env.now - t0

        def client(nbytes):
            sock = yield from net.connect(0, 1, "svc")
            yield sock.send("x", nbytes)

        for nbytes in (1, 1 << 20):
            env, net = make_net()
            env.process(server())
            env.process(client(nbytes))
            env.run()
            times[nbytes] = times["arrival"]
        assert times[1 << 20] > times[1]

    def test_bidirectional_independent(self):
        env, net = make_net()
        out = []

        def server():
            lis = net.listen(1, "svc")
            sock = yield lis.accept()
            yield sock.send("s1", 10)
            msg = yield sock.recv()
            out.append(msg.payload)

        def client():
            sock = yield from net.connect(0, 1, "svc")
            yield sock.send("c1", 10)
            msg = yield sock.recv()
            out.append(msg.payload)

        env.process(server())
        env.process(client())
        env.run()
        assert sorted(out) == ["c1", "s1"]


class TestClose:
    def test_recv_on_closed_peer_fails_after_drain(self):
        env, net = make_net()
        result = {}

        def server():
            lis = net.listen(1, "svc")
            sock = yield lis.accept()
            msg = yield sock.recv()
            result["msg"] = msg.payload
            try:
                yield sock.recv()
            except ConnectionClosed:
                result["closed"] = True

        def client():
            sock = yield from net.connect(0, 1, "svc")
            yield sock.send("last", 10)
            sock.close()

        env.process(server())
        env.process(client())
        env.run()
        assert result == {"msg": "last", "closed": True}

    def test_send_on_closed_socket_fails(self):
        env, net = make_net()

        def client():
            sock = yield from net.connect(0, 1, "svc")
            sock.close()
            try:
                yield sock.send("x", 1)
            except ConnectionClosed:
                return "send failed"

        net.listen(1, "svc")
        p = env.process(client())
        env.run(p)
        assert p.value == "send failed"

    def test_double_close_is_noop(self):
        env, net = make_net()
        net.listen(1, "svc")

        def client():
            sock = yield from net.connect(0, 1, "svc")
            sock.close()
            sock.close()
            return sock.closed

        p = env.process(client())
        env.run(p)
        assert p.value is True

    def test_both_ends_drop_their_peer(self):
        # The closer at once, the peer when the close notice arrives: an
        # ended connection holds neither end from the other.
        env, net = make_net()
        lis = net.listen(1, "svc")
        ends = {}

        def client():
            ends["client"] = sock = yield from net.connect(0, 1, "svc")
            ends["server"] = yield lis.accept()
            sock.close()
            assert sock._peer is None and ends["server"]._peer is sock

        env.process(client())
        env.run()
        assert ends["server"].closed and ends["server"]._peer is None


class TestImpairment:
    def test_dropped_send_never_arrives_and_remover_restores(self):
        env, net = make_net()
        received = []
        dropping = {"on": True}

        def hook(op, src, dst, service, nbytes):
            if op == "send" and dropping["on"]:
                return ("drop",)
            return None

        remove = net.add_impairment(hook)

        def server():
            lis = net.listen(1, "svc")
            sock = yield lis.accept()
            while True:
                msg = yield sock.recv()
                received.append(msg.payload)

        def client():
            sock = yield from net.connect(0, 1, "svc")
            yield sock.send("lost", 10)
            dropping["on"] = False
            remove()
            yield sock.send("kept", 10)
            yield env.timeout(1.0)

        env.process(server())
        p = env.process(client())
        env.run(p)
        assert received == ["kept"]

    def test_delay_adds_latency(self):
        def arrival_time(extra):
            env, net = make_net()
            if extra:
                net.add_impairment(
                    lambda op, *a: ("delay", extra) if op == "send" else None
                )
            times = {}

            def server():
                lis = net.listen(1, "svc")
                sock = yield lis.accept()
                yield sock.recv()
                times["t"] = env.now

            def client():
                sock = yield from net.connect(0, 1, "svc")
                yield sock.send("x", 10)

            env.process(server())
            env.process(client())
            env.run()
            return times["t"]

        base = arrival_time(0.0)
        slow = arrival_time(0.5)
        assert slow == pytest.approx(base + 0.5)

    def test_delayed_first_message_cannot_be_overtaken(self):
        env, net = make_net()
        count = {"sends": 0}
        received = []

        def hook(op, src, dst, service, nbytes):
            if op == "send":
                count["sends"] += 1
                if count["sends"] == 1:
                    return ("delay", 0.5)
            return None

        net.add_impairment(hook)

        def server():
            lis = net.listen(1, "svc")
            sock = yield lis.accept()
            for _ in range(2):
                msg = yield sock.recv()
                received.append(msg.payload)

        def client():
            sock = yield from net.connect(0, 1, "svc")
            sock.send("first", 10)
            sock.send("second", 10)
            yield env.timeout(1.0)

        env.process(server())
        env.process(client())
        env.run()
        assert received == ["first", "second"]

    def test_dropped_connect_refused_after_handshake_wait(self):
        env, net = make_net()
        net.listen(1, "svc")
        net.add_impairment(
            lambda op, *a: ("drop",) if op == "connect" else None
        )

        def client():
            t0 = env.now
            try:
                yield from net.connect(0, 1, "svc")
            except ConnectionClosed:
                return env.now - t0

        p = env.process(client())
        env.run(p)
        assert p.value is not None
        assert p.value > 0  # the connector waited the handshake out

    def test_dropped_close_leaves_zombie_peer(self):
        env, net = make_net()
        net.add_impairment(
            lambda op, *a: ("drop",) if op == "close" else None
        )
        state = {}

        def server():
            lis = net.listen(1, "svc")
            sock = yield lis.accept()
            state["sock"] = sock
            try:
                yield sock.recv()
                state["got"] = True
            except ConnectionClosed:
                state["closed"] = True

        def client():
            sock = yield from net.connect(0, 1, "svc")
            sock.close()

        env.process(server())
        env.process(client())
        env.run()
        # The close notification was lost: the peer never learns.
        assert "closed" not in state and "got" not in state
        assert not state["sock"].closed
