"""Connection-oriented messaging over a simulated fabric.

Everything in the JETS control plane talks through this API: worker agents
connect back to the dispatcher, Hydra proxies connect back to ``mpiexec``,
and PMI traffic rides the proxy connections — exactly the socket topology
of the real system (Section 5).

Semantics:

* :meth:`Network.connect` performs a TCP-like handshake (1.5 RTT).
* :meth:`Socket.send` is asynchronous; delivery is delayed by the fabric's
  transfer time, and per-direction FIFO ordering is enforced.
* A closed peer causes pending and future ``recv`` events to fail with
  :class:`ConnectionClosed` — the disconnection-tolerance tests rely on it
  (design principle 4: "assume disconnection is likely").
* :meth:`Network.add_impairment` installs fault-injection hooks that may
  drop or delay individual operations (sends, handshakes, close
  notifications); the chaos engine (:mod:`repro.core.chaos`) uses this to
  model lossy links and partitions.  Taps observe a send *before* the
  impairment verdict, so the protocol validator replays what the sender
  committed to the wire even when the fabric then loses it.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, NamedTuple, Optional

from ..simkernel import Environment, Event, Store, Timeout
from .fabric import Fabric

__all__ = [
    "Network",
    "Listener",
    "Socket",
    "ConnectionClosed",
    "Message",
    "WireEvent",
]


class WireEvent(NamedTuple):
    """One observed :meth:`Socket.send`, reported to network taps.

    Taps (``Network.add_tap``) see every send in global send order; the
    protocol conformance validator replays these against the registry's
    session machines after each explored schedule.  A named tuple: one
    is built per send while a tap is attached.
    """

    time: float
    service: str
    conn_id: int
    sender: str
    payload: Any
    nbytes: int


class ConnectionClosed(Exception):
    """Raised from recv/send on a closed connection."""


class Message:
    """A unit on the wire: opaque payload plus its modelled size."""

    __slots__ = ("payload", "nbytes")

    def __init__(self, payload: Any, nbytes: int):
        self.payload = payload
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:
        return f"Message({self.payload!r}, nbytes={self.nbytes})"


_CLOSE = object()


class Socket:
    """One end of an established connection."""

    __slots__ = (
        "_network", "local", "remote", "service", "conn_id", "role",
        "_inbox", "_peer", "_closed", "_last_arrival", "_fabric",
        "_sw_overhead", "_pending",
    )

    def __init__(
        self,
        network: "Network",
        local: int,
        remote: int,
        service: str = "",
        conn_id: int = -1,
        role: str = "",
    ):
        self._network = network
        self.local = local
        self.remote = remote
        #: Service name this connection was established under.
        self.service = service
        #: Network-wide connection id (both ends share it).
        self.conn_id = conn_id
        #: Which end this is: "client" (connector) or "server" (acceptor).
        self.role = role
        self._inbox: Store = Store(network.env)
        self._peer: Optional["Socket"] = None
        self._closed = False
        self._last_arrival = 0.0
        # Hot-path caches: the fabric spec is immutable for the lifetime
        # of the network, and send() runs once per control-plane message.
        self._fabric = network.fabric
        self._sw_overhead = network.fabric.spec.sw_overhead
        # In-flight items in send order; delivery callbacks pop the head,
        # so per-direction FIFO holds even when same-time deliveries are
        # permuted by a non-default kernel SchedulingOrder.  A list, as
        # the kernel's queues (simkernel/resources.py): it stays short.
        self._pending: list = []

    @property
    def closed(self) -> bool:
        """True once either side has closed the connection."""
        return self._closed

    def send(self, payload: Any, nbytes: int = 64) -> Event:
        """Queue a message to the peer; returns the local completion event.

        The returned event fires when the message has been handed to the
        stack (send-side cost); delivery at the peer happens transfer-time
        later, FIFO-ordered per direction.
        """
        peer = self._peer
        if self._closed or peer is None:
            ev = Event(self._network.env)
            ev.fail(ConnectionClosed(f"send on closed socket {self!r}"))
            ev._defused = False
            return ev
        network = self._network
        env = network.env
        if network._taps:
            network._notify_taps(self, payload, nbytes)
        dropped, extra = (
            network._impair(
                "send", self.local, self.remote, self.service, nbytes
            )
            if network._impairments
            else (False, 0.0)
        )
        if dropped:
            # The sender still pays its software overhead; the fabric
            # silently loses the message (no peer-side event at all).
            return Timeout(env, self._sw_overhead)
        t = self._fabric.transfer_time(self.local, self.remote, nbytes)
        if extra:
            # Injected latency delays *this* message; the FIFO clamp below
            # then pushes every later message behind it, so per-direction
            # ordering survives impairment.
            t += extra
        now = env._now
        arrival = now + t
        if arrival < peer._last_arrival:
            arrival = peer._last_arrival
        peer._last_arrival = arrival
        peer._pending.append(Message(payload, nbytes))
        # The delivery timeout is freshly constructed, so its callback
        # list is live: append the bound method directly instead of
        # paying _add_callback plus a closure per message.
        Timeout(env, arrival - now).callbacks.append(peer._deliver_next)
        # Sender-side completion: software overhead only.
        return Timeout(env, self._sw_overhead)

    def _deliver_next(self, _event: Optional[Event] = None) -> None:
        # One callback per queued item: popping the head preserves send
        # order under any tie permutation of the delivery timeouts.
        item = self._pending.pop(0)
        if self._closed:
            return
        if item is _CLOSE:
            self._closed = True
            self._peer = None
            self._inbox.put(_CLOSE)
        else:
            self._inbox.put(item)

    def recv(self) -> Event:
        """Event yielding the next :class:`Message` from the peer."""
        if self._closed:
            ev = Event(self._network.env)
            ev.fail(ConnectionClosed(f"recv on closed socket {self!r}"))
            ev._defused = False
            return ev
        get = self._inbox.get()
        result = Event(self._network.env)

        def on_item(ev: Event) -> None:
            if ev.value is _CLOSE:
                result.fail(ConnectionClosed("peer closed connection"))
            else:
                result.succeed(ev.value)

        get._add_callback(on_item)
        return result

    def close(self) -> None:
        """Close both directions; peer recv()s fail after in-flight drains.

        Both ends drop ``_peer`` once closed (this end here, the peer when
        the close notice arrives), so a connection is no reference cycle
        after it ends.
        """
        if self._closed:
            return
        self._closed = True
        peer = self._peer
        self._peer = None
        if peer is not None and not peer._closed:
            dropped, extra = self._network._impair(
                "close", self.local, self.remote, self.service, 0
            )
            if dropped:
                # The peer never learns about the close (a zombie
                # connection); higher layers must reap it by timeout.
                return
            # Notify peer in-band — through the same pending queue as data
            # messages — so already-sent messages drain first even when a
            # schedule permutation makes the close arrive at a tied time.
            env = self._network.env
            t = self._network.fabric.transfer_time(self.local, self.remote, 0)
            if extra:
                t += extra
            arrival = max(env.now + t, peer._last_arrival)
            peer._last_arrival = arrival
            peer._pending.append(_CLOSE)
            deliver = env.timeout(arrival - env.now)
            deliver.callbacks.append(peer._deliver_next)

    def __repr__(self) -> str:
        return f"<Socket {self.local}->{self.remote}>"


class Listener:
    """A bound service accepting incoming connections."""

    def __init__(self, network: "Network", addr: tuple[int, str]):
        self._network = network
        self.addr = addr
        self._backlog: Store = Store(network.env)

    def accept(self) -> Event:
        """Event yielding the next accepted :class:`Socket`."""
        return self._backlog.get()

    def close(self) -> None:
        """Stop accepting; future connects to this address fail."""
        self._network._unbind(self.addr)


class Network:
    """Endpoint registry: binds listeners and establishes connections."""

    def __init__(self, env: Environment, fabric: Fabric):
        self.env = env
        self.fabric = fabric
        #: Bound address -> its listener's backlog (not the listener,
        #: which refers back to this network).
        self._listeners: dict[tuple[int, str], Store] = {}
        self._conn_seq = 0
        self._taps: list[Callable[[WireEvent], None]] = []
        self._impairments: list[Callable] = []

    def add_tap(self, tap: Callable[[WireEvent], None]) -> None:
        """Observe every send as a :class:`WireEvent` (protocol checking)."""
        self._taps.append(tap)

    def add_impairment(self, fn: Callable) -> Callable[[], None]:
        """Install a fault-injection hook; returns its remover.

        ``fn(op, src, dst, service, nbytes)`` is consulted for every
        network operation, where ``op`` is ``"send"``, ``"connect"`` or
        ``"close"``.  It returns ``None`` to pass the operation through,
        ``("drop",)`` to lose it, or ``("delay", seconds)`` to add
        latency.  Multiple hooks compose: any drop wins, delays add up.
        """
        self._impairments.append(fn)

        def remove() -> None:
            if fn in self._impairments:
                self._impairments.remove(fn)

        return remove

    def _impair(
        self, op: str, src: int, dst: int, service: str, nbytes: int
    ) -> tuple[bool, float]:
        """Aggregate impairment verdict: ``(dropped, extra_delay)``."""
        if not self._impairments:
            return False, 0.0
        extra = 0.0
        for fn in list(self._impairments):
            verdict = fn(op, src, dst, service, nbytes)
            if not verdict:
                continue
            if verdict[0] == "drop":
                return True, 0.0
            if verdict[0] == "delay":
                extra += float(verdict[1])
        return False, extra

    def _notify_taps(self, sock: "Socket", payload: Any, nbytes: int) -> None:
        if not self._taps:
            return
        event = WireEvent(
            self.env.now, sock.service, sock.conn_id, sock.role, payload,
            int(nbytes),
        )
        for tap in self._taps:
            tap(event)

    def listen(self, endpoint: int, service: str) -> Listener:
        """Bind a listener at ``(endpoint, service)``."""
        addr = (endpoint, service)
        if addr in self._listeners:
            raise ValueError(f"address already bound: {addr}")
        listener = Listener(self, addr)
        self._listeners[addr] = listener._backlog
        return listener

    def _unbind(self, addr: tuple[int, str]) -> None:
        self._listeners.pop(addr, None)

    def connect(self, src: int, endpoint: int, service: str) -> Generator:
        """Handshake with a listener; yields, returns the client Socket.

        Usage (inside a sim process)::

            sock = yield from network.connect(me, server, "jets")
        """
        addr = (endpoint, service)
        # SYN / SYN-ACK / ACK: 1.5 round trips of zero-byte messages.
        rtt = self.fabric.rtt(src, endpoint, 64)
        dropped, extra = self._impair("connect", src, endpoint, service, 64)
        handshake = 1.5 * rtt
        if extra:
            handshake += extra
        yield self.env.timeout(handshake)
        if dropped:
            # A partitioned or lossy link manifests as a refused/timed-out
            # handshake after the connector has waited it out.
            raise ConnectionClosed(f"connection refused: {addr} (impaired)")
        backlog = self._listeners.get(addr)
        if backlog is None:
            raise ConnectionClosed(f"connection refused: {addr}")
        self._conn_seq += 1
        conn_id = self._conn_seq
        client = Socket(self, src, endpoint, service, conn_id, "client")
        server = Socket(self, endpoint, src, service, conn_id, "server")
        client._peer = server
        server._peer = client
        backlog.put(server)
        return client
