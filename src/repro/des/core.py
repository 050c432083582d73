"""Event loop, events, timeouts, processes and condition events.

Semantics follow the classic process-interaction style:

- An :class:`Event` is a one-shot occurrence.  It is *triggered* when
  given a value (or an exception) and *processed* once the environment
  has run its callbacks.
- A :class:`Process` wraps a generator.  Each ``yield event`` suspends
  the process until the event is processed; the event's value becomes
  the result of the ``yield`` expression (exceptions are thrown into
  the generator).  A process is itself an event that triggers when the
  generator returns, with the return value as event value.
- A :class:`Timeout` triggers after a fixed delay.
- :class:`AllOf` / :class:`AnyOf` compose events.

Determinism: simultaneous events are processed in scheduling order
(FIFO via a monotonically increasing sequence number).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

from repro.util.errors import SimulationError

_PENDING = object()


class Event:
    """One-shot event owned by an :class:`Environment`."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._is_error = False

    # -- state ----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value``; returns self for chaining."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self.env._queue_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be thrown in waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._value = exception
        self._is_error = True
        self.env._queue_event(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed (immediately if past)."""
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """Event that triggers ``delay`` time units after creation."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._value = value
        env._schedule(self, delay)


class Process(Event):
    """A running generator; also an event that fires on generator return."""

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(f"process needs a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        # Bootstrap: resume the generator at time now.
        init = Event(env)
        init._value = None
        env._queue_event(init)
        init.add_callback(self._resume)

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the trigger's value (or exception)."""
        while True:
            try:
                if trigger._is_error:
                    target = self._generator.throw(trigger._value)
                else:
                    target = self._generator.send(trigger._value)
            except StopIteration as stop:
                if not self.triggered:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                if not self.triggered:
                    self.fail(exc)
                    return
                raise
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process yielded {target!r}; processes must yield events"
                )
            if target.processed:
                # Already done — loop immediately with its value.
                trigger = target
                continue
            target.add_callback(self._resume)
            return


class _Condition(Event):
    """Base for AllOf / AnyOf."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._pending = 0
        for ev in self.events:
            if not isinstance(ev, Event):
                raise SimulationError(f"condition needs events, got {ev!r}")
        if not self.events:
            self.succeed([])
            return
        self._pending = len(self.events)
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, ev: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when *all* component events have been processed.

    Value is the list of component values.  Fails fast when any
    component fails.
    """

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._is_error:
            self.fail(ev._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Triggers when the *first* component event is processed.

    Value is ``(index, value)`` of the winning event.
    """

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._is_error:
            self.fail(ev._value)
            return
        self.succeed((self.events.index(ev), ev._value))


class Environment:
    """Simulation clock plus the pending-event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a process from a generator; returns its completion event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when all ``events`` are done."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when the first of ``events`` is done."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        self._seq += 1

    def _queue_event(self, event: Event) -> None:
        self._schedule(event, 0.0)

    # -- run loop ----------------------------------------------------------

    def step(self) -> None:
        """Process exactly one event; raises SimulationError when idle."""
        if not self._heap:
            raise SimulationError("no more events")
        time, _, event = heapq.heappop(self._heap)
        if time < self._now:  # pragma: no cover - heap guarantees order
            raise SimulationError("time went backwards")
        self._now = time
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for fn in callbacks:
                fn(event)
        elif event._is_error:
            # A failed event nobody waits on: surface the error instead of
            # silently losing it.
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a time is reached, or an event fires.

        - ``until=None`` — drain the queue, return None.
        - ``until=<number>`` — advance to that time (clock lands exactly
          on it even if no event is scheduled there).
        - ``until=<Event>`` — run until that event is processed; returns
          its value (raising if it failed).
        """
        if isinstance(until, Event):
            target = until
            while not target.processed:
                if not self._heap:
                    raise SimulationError(
                        "queue drained before the awaited event triggered"
                    )
                self.step()
            if target._is_error:
                raise target._value
            return target._value
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"cannot run until {horizon} (< now {self._now})"
                )
            while self._heap and self._heap[0][0] <= horizon:
                self.step()
            self._now = horizon
            return None
        while self._heap:
            self.step()
        return None
