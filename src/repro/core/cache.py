"""Memoised schedules keyed by the *canonical* redistribution pattern.

Scheduling is pure: the same graph, ``k`` and ``β`` always yield the
same schedule (for a given algorithm and engine).  Workloads that
re-issue identical redistribution patterns — repeated phases of an
iterative application, parameter sweeps over the same traffic matrix,
or the netsim/runtime harnesses replaying a scenario — can therefore
reuse the schedule instead of re-peeling the graph.

The cache key is independent of edge *ids*: two graphs with the same
multiset of ``(left, right, weight, kind)`` edges hit the same entry
even if their edges were inserted in a different order and carry
different ids.  On a hit the stored schedule's transfers are remapped
onto the requesting graph's edge ids via the shared canonical ordering
(both id lists sorted by ``(left, right, weight, kind, id)``; ties are
parallel edges with identical weight, for which any pairing is valid).

Entries are stored as plain step data, never as live :class:`Schedule`
objects, so a hit always materialises a fresh, independent schedule —
mutating a returned schedule (e.g. stretching a step's ``duration``)
cannot poison the cache, and two hits never alias each other.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Literal

from repro import obs
from repro.core.schedule import Schedule, Step, Transfer
from repro.graph.bipartite import BipartiteGraph
from repro.util.errors import ConfigError

CacheableAlgorithm = Literal["ggp", "oggp", "wrgp", "greedy"]

# (duration, canonical positions, lefts, rights, amounts) per step: one
# column per Transfer field, so a hit rebuilds each step with one map().
_StepData = tuple[
    float, tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[float, ...]
]


def _canonical(graph: BipartiteGraph) -> tuple[tuple, list[int]]:
    """Id-free signature of ``graph`` plus its edge ids in canonical order.

    The signature is the sorted tuple of ``(left, right, weight, kind)``
    rows; the id list is sorted by the same key (with id as the final
    tie-break), so graphs with equal signatures agree position-by-
    position on which edge each canonical slot denotes.
    """
    # ``_value_`` is ``kind.value`` without the enum property's per-access
    # cost, which was half of this function's time on a 540-edge graph.
    entries = sorted(
        (left, right, weight, kind._value_, eid)
        for eid, left, right, weight, kind in graph.iter_edge_data()
    )
    signature = tuple((left, right, weight, kind) for left, right, weight, kind, _ in entries)
    ids = [entry[4] for entry in entries]
    return signature, ids


def canonical_signature(graph: BipartiteGraph) -> tuple:
    """Id-free signature of ``graph`` — the dedup key of the batch engine.

    Two graphs with equal signatures are the same redistribution pattern
    up to edge ids; :func:`~repro.parallel.batch.schedule_batch` groups
    a batch by this key so each pattern is scheduled once.
    """
    return _canonical(graph)[0]


def cache_tag(algorithm: str, engine: str) -> str:
    """The algorithm slot of a cache key: one tag per code path.

    ``'vector'`` runs the same code as ``'fast'`` and ``'greedy'``
    ignores the engine, so those requests share entries; every other
    engine keeps its own (``'approx'`` may legitimately produce a
    different schedule, and ``'reference'`` is the oracle the exact
    engines are checked against).
    """
    if algorithm == "greedy":
        return algorithm
    if engine == "vector":
        engine = "fast"
    return f"{algorithm}/{engine}"


class ScheduleCache:
    """LRU cache mapping canonical (graph, k, β, algorithm) to schedules.

    ``maxsize`` bounds the number of entries; the least recently used
    entry is evicted when the cache is full.  Hit/miss/eviction counts
    are posted to the metrics registry under ``schedule_cache.*`` and
    also available via :meth:`stats`.

    The cache is **thread-safe**: a single lock guards the LRU dict and
    the statistics, so the runtime executor's callback threads (and any
    embedder sharing one cache across threads) can hammer get/put
    concurrently without corrupting the OrderedDict mid-``move_to_end``.
    """

    __slots__ = ("maxsize", "_entries", "_hits", "_misses", "_evictions", "_lock")

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ConfigError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        # key -> (schedule k, schedule beta, step data)
        self._entries: OrderedDict[
            Hashable, tuple[int, float, tuple[_StepData, ...]]
        ]
        self._entries = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Lifetime hit/miss/eviction counts and current size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._entries),
            }

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------

    def get(
        self,
        graph: BipartiteGraph,
        k: int,
        beta: float,
        algorithm: str,
    ) -> Schedule | None:
        """Fresh schedule for ``graph`` if an equivalent one is cached."""
        return self._get(_canonical(graph), k, beta, algorithm)

    def _get(
        self, canonical: tuple[tuple, list[int]], k: int, beta: float,
        algorithm: str,
    ) -> Schedule | None:
        """:meth:`get` for a graph whose :func:`_canonical` form is known."""
        signature, ids = canonical
        key = (algorithm, int(k), float(beta), signature)
        metrics = obs.metrics()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        if entry is None:
            metrics.counter("schedule_cache.misses").inc()
            return None
        metrics.counter("schedule_cache.hits").inc()
        sched_k, sched_beta, steps_data = entry
        edge_id_at = ids.__getitem__
        steps = [
            Step(
                map(Transfer, map(edge_id_at, positions), lefts, rights, amounts),
                duration=duration,
            )
            for duration, positions, lefts, rights, amounts in steps_data
        ]
        # The schedule's own k/beta are stored, not the lookup arguments:
        # wrgp derives k from the graph rather than taking it as input.
        return Schedule(steps, k=sched_k, beta=sched_beta)

    def put(
        self,
        graph: BipartiteGraph,
        k: int,
        beta: float,
        algorithm: str,
        schedule: Schedule,
    ) -> None:
        """Store ``schedule`` for ``graph``; detached from the argument."""
        self._put(_canonical(graph), k, beta, algorithm, schedule)

    def _put(
        self, canonical: tuple[tuple, list[int]], k: int, beta: float,
        algorithm: str, schedule: Schedule,
    ) -> None:
        """:meth:`put` for a graph whose :func:`_canonical` form is known."""
        signature, ids = canonical
        key = (algorithm, int(k), float(beta), signature)
        position = {eid: pos for pos, eid in enumerate(ids)}.__getitem__
        steps_data = []
        for step in schedule.steps:
            edge_ids, lefts, rights, amounts = (
                tuple(zip(*step.transfers)) or ((), (), (), ())
            )
            steps_data.append((
                step.duration, tuple(map(position, edge_ids)),
                lefts, rights, amounts,
            ))
        evicted = 0
        with self._lock:
            self._entries[key] = (schedule.k, schedule.beta, tuple(steps_data))
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            obs.metrics().counter("schedule_cache.evictions").inc(evicted)


#: Process-wide default cache used by the netsim and runtime layers.
DEFAULT_SCHEDULE_CACHE = ScheduleCache(maxsize=128)


def cached_schedule(
    graph: BipartiteGraph,
    k: int,
    beta: float,
    algorithm: CacheableAlgorithm = "oggp",
    engine: str = "fast",
    cache: ScheduleCache | None = DEFAULT_SCHEDULE_CACHE,
) -> Schedule:
    """Schedule ``graph``, consulting ``cache`` first.

    ``algorithm`` picks :func:`~repro.core.ggp.ggp`,
    :func:`~repro.core.oggp.oggp`, :func:`~repro.core.wrgp.wrgp` or
    :func:`~repro.core.baselines.greedy_schedule` (which ignores
    ``engine``); ``engine`` is forwarded to the peeling loop and
    participates in the cache key through :func:`cache_tag`.  Pass
    ``cache=None`` to bypass caching entirely.
    """
    # Imported here: ggp/oggp/wrgp live above this module in the package
    # graph, and importing them lazily keeps cache importable from both.
    from repro.core.baselines import greedy_schedule
    from repro.core.ggp import ggp
    from repro.core.oggp import oggp
    from repro.core.wrgp import wrgp

    if algorithm not in ("ggp", "oggp", "wrgp", "greedy"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    tag = cache_tag(algorithm, engine)
    if cache is not None:
        # Scheduling copies the graph, so one canonical form serves both
        # the lookup and the store.
        form = _canonical(graph)
        hit = cache._get(form, k, beta, tag)
        if hit is not None:
            return hit
    if algorithm == "ggp":
        schedule = ggp(graph, k=k, beta=beta, engine=engine)
    elif algorithm == "oggp":
        schedule = oggp(graph, k=k, beta=beta, engine=engine)
    elif algorithm == "greedy":
        schedule = greedy_schedule(graph, k=k, beta=beta)
    else:
        schedule = wrgp(graph, beta=beta, engine=engine)
    if cache is not None:
        cache._put(form, k, beta, tag, schedule)
    return schedule
