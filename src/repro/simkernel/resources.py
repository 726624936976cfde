"""Shared-resource primitives for the simulation kernel.

Two primitives cover every synchronization pattern in the JETS stack:

* :class:`Resource` — counted capacity with FIFO request queue (CPU cores,
  the dispatcher's service thread, filesystem servers).
* :class:`Store` / :class:`FilterStore` — producer/consumer queues
  (socket buffers, listener backlogs, MPI message matching).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .core import PENDING, Environment, Event

__all__ = [
    "Resource",
    "Request",
    "Store",
    "FilterStore",
]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager::

        with resource.request() as req:
            yield req
            ...  # holding the resource
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ (one stack frame per core claim adds up
        # at campaign scale).
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an unfulfilled request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """Counted resource with FIFO granting.

    ``request()`` returns an event that fires when one capacity unit is
    granted; ``release(req)`` returns it.  Releasing an ungranted request
    cancels it.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._queue: list[Request] = []
        self._users: set[Request] = set()

    @property
    def count(self) -> int:
        """Number of granted (in-use) capacity units."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim one capacity unit; the returned event fires when granted."""
        req = Request(self)
        self._queue.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted unit (or cancel a pending request)."""
        if request in self._users:
            self._users.discard(request)
            self._grant()
        else:
            self._cancel(request)

    def _cancel(self, request: Request) -> None:
        try:
            self._queue.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            req = self._queue.pop(0)
            self._users.add(req)
            req.succeed()


class StoreGet(Event):
    """Pending get on a store.

    The ``filter`` slot exists for :class:`FilterStore`, which attaches
    the predicate to the get event (plain stores leave it unset).
    """

    __slots__ = ("filter",)


class Store:
    """Unbounded-by-default FIFO item queue with blocking gets.

    ``put(item)`` succeeds immediately when below capacity; ``get()``
    returns an event that fires with the next item.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        # Plain lists, as in SimPy: waiting consumers and in-flight items
        # keep these queues short (127 at most in any benchmark
        # workload), where pop(0) is cheap, and an empty list takes 56
        # bytes against a deque's 760 on CPython 3.11 (DESIGN.md §11).
        self._items: list[Any] = []
        self._getters: list[StoreGet] = []
        self._putters: list[tuple[Event, Any]] = []

    @property
    def items(self) -> list:
        """Snapshot of currently stored items (FIFO order)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once inserted.

        Fast path (:class:`FilterStore` overrides ``put``): with no
        queued putters and free capacity, ``_dispatch`` reduces to an
        insert-and-succeed, plus at most one hand-off when consumers are
        blocked — getters only ever wait while the store is empty, so a
        single put can serve exactly the head getter.
        """
        ev = Event(self.env)
        items = self._items
        if not self._putters and len(items) < self.capacity:
            items.append(item)
            ev.succeed()
            if self._getters:
                self._getters.pop(0).succeed(items.pop(0))
        else:
            self._putters.append((ev, item))
            self._dispatch()
        return ev

    def get(self) -> StoreGet:
        """Remove and return the next item (event fires with the item)."""
        ev = StoreGet(self.env)
        # Mirror of the put fast path: with no queued putters,
        # _dispatch can only hand the head item to the head getter —
        # which is this get iff no getter is already waiting.
        if not self._putters:
            if not self._getters and self._items:
                ev.succeed(self._items.pop(0))
            else:
                self._getters.append(ev)
        else:
            self._getters.append(ev)
            self._dispatch()
        return ev

    def cancel_get(self, get_event: StoreGet) -> None:
        """Withdraw a pending get (no-op if already fulfilled)."""
        try:
            self._getters.remove(get_event)
        except ValueError:
            pass

    def _dispatch(self) -> None:
        # succeed() only *schedules* callbacks (they run at the heap pop),
        # so no new putters/getters can appear mid-dispatch: one
        # putter-drain plus one getter-drain reaches the fixpoint unless
        # getters freed capacity a blocked putter was waiting for.
        while True:
            while self._putters and len(self._items) < self.capacity:
                ev, item = self._putters.pop(0)
                self._items.append(item)
                ev.succeed()
            if not (self._getters and self._items):
                return
            while self._getters and self._items:
                self._getters.pop(0).succeed(self._items.pop(0))
            if not self._putters:
                return


class FilterStore(Store):
    """Store whose gets may carry a predicate selecting acceptable items."""

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once inserted.

        No fast path here: filtered getters may wait while (unmatching)
        items sit in the store, so Store.put's blind hand-off would
        bypass the predicates — every put goes through ``_dispatch``.
        """
        ev = Event(self.env)
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Get the first item satisfying ``filter`` (or any item if None)."""
        ev = StoreGet(self.env)
        ev.filter = filter
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        # One ordered pass: getters are offered items FIFO, each taking
        # the first match.  Removing items never lets a previously
        # unmatched getter match, so rescans are only needed when freed
        # capacity admits blocked putters (new items for the leftovers).
        while True:
            while self._putters and len(self._items) < self.capacity:
                ev, item = self._putters.pop(0)
                self._items.append(item)
                ev.succeed()
            matched = False
            if self._getters and self._items:
                waiting: list[StoreGet] = []
                for getter in self._getters:
                    pred = getattr(getter, "filter", None)
                    for idx, item in enumerate(self._items):
                        if pred is None or pred(item):
                            del self._items[idx]
                            getter.succeed(item)
                            matched = True
                            break
                    else:
                        waiting.append(getter)
                self._getters = waiting
            if not (matched and self._putters):
                return
