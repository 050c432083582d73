"""Shared resources for the DES kernel: Resource, Store."""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.des.core import Environment, Event
from repro.util.errors import SimulationError


class Resource:
    """Counting semaphore with FIFO queuing.

    ``request()`` returns an event that triggers once a slot is free;
    ``release()`` frees a slot.  Typical use::

        req = resource.request()
        yield req
        try:
            ...critical section...
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[Event] = deque()

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self._waiting)

    def request(self) -> Event:
        """Event that fires when a slot is granted to the caller."""
        ev = self.env.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiting.append(ev)
        return ev

    def release(self) -> None:
        """Free one slot; grants it to the longest-waiting request."""
        if self._in_use <= 0:
            raise SimulationError("release() without a held slot")
        if self._waiting:
            self._waiting.popleft().succeed(self)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO queue of items with blocking ``get``.

    ``put(item)`` never blocks; ``get()`` returns an event whose value is
    the next item, triggering as soon as one is available.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next available item."""
        ev = self.env.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)

