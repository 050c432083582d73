"""Admission control for the ``kpbs serve`` daemon.

Three cooperating pieces, all synchronous and event-loop-agnostic so
they are unit-testable without a running daemon:

- :class:`TenantQuotas` — per-tenant token buckets (one
  :class:`~repro.runtime.tokenbucket.TokenBucket` per tenant, created
  lazily) that admit or shed a request *before* it costs any compute,
  returning a backoff hint derived from the bucket's refill rate;
- :class:`FairQueue` — a bounded queue with one FIFO lane per tenant
  and round-robin dispatch across lanes, so one chatty tenant cannot
  starve the others and total queued work is capped;
- :class:`DegradationLadder` — hysteresis over queue pressure that
  downgrades engine (``vector``/``fast`` → ``approx``) and then
  algorithm (``oggp``/``ggp``/``wrgp`` → ``greedy``) under *sustained*
  overload, and steps back down once pressure stays low (the libnbc
  size-switch idea applied to load instead of message size).
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.runtime.tokenbucket import TokenBucket
from repro.util.errors import ConfigError

__all__ = [
    "TenantQuotas",
    "QueueItem",
    "FairQueue",
    "LadderConfig",
    "DegradationLadder",
]


class TenantQuotas:
    """Lazy per-tenant token buckets; ``rate=None`` disables quotas."""

    def __init__(self, rate: float | None, burst: float | None = None) -> None:
        if rate is not None and rate <= 0:
            raise ConfigError(f"tenant rate must be positive, got {rate}")
        if burst is not None and burst <= 0:
            raise ConfigError(f"tenant burst must be positive, got {burst}")
        self.rate = rate
        self.burst = burst if burst is not None else (rate or 0.0) * 2 or None
        self._buckets: dict[str, TokenBucket] = {}

    def admit(self, tenant: str, cost: float = 1.0) -> float:
        """0.0 when admitted; else seconds until ``cost`` tokens refill."""
        if self.rate is None:
            return 0.0
        bucket = self._buckets.get(tenant)
        if bucket is None:
            burst = self.burst if self.burst is not None else self.rate * 2
            bucket = self._buckets[tenant] = TokenBucket(
                self.rate, max(burst, cost)
            )
        if bucket.try_acquire(cost):
            return 0.0
        deficit = max(cost - bucket.available, 0.0)
        # The deterministic part of the RetryPolicy hint: exactly when
        # the bucket will hold ``cost`` tokens again (plus a floor so a
        # zero-deficit race still backs off).
        return max(deficit / bucket.rate, 0.005)

    @property
    def tenants(self) -> list[str]:
        return sorted(self._buckets)


@dataclass
class QueueItem:
    """One admitted request parked until the dispatcher picks it up."""

    tenant: str
    op: str
    doc: dict
    blob: bytes
    future: "object"  # asyncio.Future in the daemon; anything in tests
    enqueued_at: float
    deadline_at: float | None = None  # absolute time.monotonic()


class FairQueue:
    """Bounded multi-tenant queue with round-robin dispatch.

    ``push`` refuses (returns False) once ``max_depth`` items are
    queued across all tenants — the caller sheds with ``RETRY_AFTER``.
    ``pop`` serves tenants in round-robin order: take the head of the
    first tenant's lane, then rotate that tenant to the back.
    """

    def __init__(self, max_depth: int) -> None:
        if max_depth <= 0:
            raise ConfigError(f"max_depth must be positive, got {max_depth}")
        self.max_depth = int(max_depth)
        self._lanes: "OrderedDict[str, deque[QueueItem]]" = OrderedDict()
        self._depth = 0

    @property
    def depth(self) -> int:
        return self._depth

    def __len__(self) -> int:
        return self._depth

    @property
    def full(self) -> bool:
        return self._depth >= self.max_depth

    def push(self, item: QueueItem) -> bool:
        if self._depth >= self.max_depth:
            return False
        lane = self._lanes.get(item.tenant)
        if lane is None:
            lane = self._lanes[item.tenant] = deque()
        lane.append(item)
        self._depth += 1
        return True

    def pop(self) -> QueueItem | None:
        """Next item in round-robin tenant order, or ``None`` if empty."""
        while self._lanes:
            tenant, lane = next(iter(self._lanes.items()))
            if not lane:
                del self._lanes[tenant]
                continue
            item = lane.popleft()
            self._depth -= 1
            del self._lanes[tenant]
            if lane:
                self._lanes[tenant] = lane  # rotate to the back
            return item
        return None

    def drain_op(self, op: str, limit: int) -> list[QueueItem]:
        """Up to ``limit`` more items whose lane *head* matches ``op``.

        Stays round-robin-fair: cycles the tenant lanes, taking at most
        one matching head per lane per pass, until no lane head matches
        or ``limit`` is reached.  Used by the dispatcher to micro-batch
        schedule requests into one ``schedule_batch`` call without
        reordering any tenant's own requests.
        """
        taken: list[QueueItem] = []
        progressed = True
        while progressed and len(taken) < limit:
            progressed = False
            for tenant in list(self._lanes):
                if len(taken) >= limit:
                    break
                lane = self._lanes[tenant]
                if lane and lane[0].op == op:
                    taken.append(lane.popleft())
                    self._depth -= 1
                    progressed = True
                if not lane:
                    del self._lanes[tenant]
        return taken

    def drain_all(self) -> Iterator[QueueItem]:
        """Empty the queue (shutdown path: fail every parked item)."""
        while True:
            item = self.pop()
            if item is None:
                return
            yield item


@dataclass(frozen=True)
class LadderConfig:
    """Pressure thresholds and hysteresis of the degradation ladder."""

    engage_pressure: float = 0.75  # queue depth / max_depth to escalate at
    engage_after: float = 1.0     # seconds of sustained high pressure
    release_pressure: float = 0.25
    release_after: float = 3.0    # seconds of sustained low pressure
    max_level: int = 2

    def __post_init__(self) -> None:
        if not (0.0 < self.release_pressure <= self.engage_pressure <= 1.0):
            raise ConfigError(
                "need 0 < release_pressure <= engage_pressure <= 1, got "
                f"{self.release_pressure} / {self.engage_pressure}"
            )
        if self.max_level < 0:
            raise ConfigError(f"max_level must be >= 0, got {self.max_level}")


#: Engines downgraded to ``approx`` at ladder level >= 1 (``approx``
#: itself and unknown engines pass through untouched).
_DEGRADABLE_ENGINES = ("fast", "vector", "reference")
#: Algorithms downgraded to ``greedy`` at ladder level >= 2.
_DEGRADABLE_ALGORITHMS = ("oggp", "ggp", "wrgp")


class DegradationLadder:
    """Hysteresis state machine over queue pressure.

    Level 0 is full quality; level 1 forces ``engine='approx'``; level
    2 additionally forces ``algorithm='greedy'``.  Escalation requires
    pressure >= ``engage_pressure`` *continuously* for
    ``engage_after`` seconds (one level per sustained window);
    de-escalation mirrors it with ``release_*``.  ``now`` is injectable
    so tests drive time explicitly.
    """

    def __init__(
        self,
        config: LadderConfig | None = None,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or LadderConfig()
        self._now = now
        self._level = 0
        self._high_since: float | None = None
        self._low_since: float | None = None

    @property
    def level(self) -> int:
        return self._level

    def observe(self, depth: int, capacity: int) -> int:
        """Feed one queue-pressure sample; returns the (new) level."""
        cfg = self.config
        pressure = depth / capacity if capacity > 0 else 0.0
        now = self._now()
        if pressure >= cfg.engage_pressure:
            self._low_since = None
            if self._high_since is None:
                self._high_since = now
            elif now - self._high_since >= cfg.engage_after:
                if self._level < cfg.max_level:
                    self._level += 1
                self._high_since = now  # next step needs its own window
        elif pressure <= cfg.release_pressure:
            self._high_since = None
            if self._low_since is None:
                self._low_since = now
            elif now - self._low_since >= cfg.release_after:
                if self._level > 0:
                    self._level -= 1
                self._low_since = now
        else:
            self._high_since = None
            self._low_since = None
        return self._level

    def apply(self, algorithm: str, engine: str) -> tuple[str, str, bool]:
        """``(algorithm, engine, degraded?)`` after the current level."""
        degraded = False
        if self._level >= 1 and engine in _DEGRADABLE_ENGINES:
            engine = "approx"
            degraded = True
        if self._level >= 2 and algorithm in _DEGRADABLE_ALGORITHMS:
            algorithm = "greedy"
            degraded = True
        return algorithm, engine, degraded
