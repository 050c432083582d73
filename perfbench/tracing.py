"""Span recorder and layer wrappers for the benchmark's traced runs.

A traced run patches the public entry point of each layer where its
caller looks the name up (``repro.core.ggp.regularize``, a class
attribute such as ``ScheduleCache.get``) with a wrapper that opens a
span around the call.  Spans nest per execution context
(:mod:`contextvars`), so threads and asyncio tasks keep separate
stacks.  A span's self time is its duration minus the time its direct
children cover.  Self times and work counts are aggregated as spans
close; the most recent spans stay in a bounded in-memory ring that
:meth:`Recorder.write_chrome` writes out when the run ends.

:func:`install` returns an undo callable restoring every patched name.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict, deque
from pathlib import Path

#: Spans of one layer share a name; these are the names :func:`install`
#: uses, in the order the per-layer table reports them.
LAYERS = (
    "normalize", "regularize", "peel", "matching", "extract", "bounds",
    "cache", "wire.decode", "wire.encode", "protocol.encode",
    "protocol.decode", "batch", "admission", "transfer", "graph",
    "repair", "verify", "journal", "netsim", "runtime",
)

#: The scheduler pipeline: ggp/oggp and everything they call.
SCHEDULER_LAYERS = ("normalize", "regularize", "peel", "matching", "extract")


class _Span:
    __slots__ = ("name", "parent", "t0", "child", "token", "sid")


class Recorder:
    """Aggregates spans as they close; keeps the last ``keep`` of them."""

    def __init__(self, keep: int = 50_000) -> None:
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.ring: deque = deque(maxlen=keep)

    def open(self, name: str) -> _Span:
        span = _Span()
        span.name = name
        span.parent = self._current.get()
        span.child = 0.0
        span.sid = next(self._ids)
        span.token = self._current.set(span)
        span.t0 = time.perf_counter()
        return span

    def close(self, span: _Span) -> None:
        t1 = time.perf_counter()
        duration = t1 - span.t0
        self._current.reset(span.token)
        parent = span.parent
        if parent is not None:
            parent.child += duration
        with self._lock:
            self.self_s[span.name] += duration - span.child
            self.ring.append(
                (span.name, span.t0, t1, span.sid,
                 parent.sid if parent is not None else 0,
                 threading.get_ident())
            )

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def merge(self, doc: dict) -> None:
        """Fold in :meth:`summary` output of another process."""
        with self._lock:
            for key in ("self_s", "counts"):
                target = getattr(self, key)
                for name, value in doc.get(key, {}).items():
                    target[name] += value

    def summary(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
            }

    def write_chrome(self, path: Path) -> None:
        """The retained spans as Chrome trace-event JSON (``ph: X``)."""
        with self._lock:
            spans = list(self.ring)
        origin = min((s[1] for s in spans), default=0.0)
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"id": sid, "parent": parent},
            }
            for name, t0, t1, sid, parent, tid in spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


# -- work counts taken at layer boundaries --------------------------------

def _after_regularize(rec, args, kwargs, result):
    rec.count("regularize.edges", args[0].num_edges)
    rec.count("regularize.j_edges", result.graph.num_edges)


def _after_ggp(rec, args, kwargs, result):
    rec.count("extract.steps", result.num_steps)


def _after_matching(rec, args, kwargs, result):
    rec.count("matching.calls")


def _after_cache_get(rec, args, kwargs, result):
    rec.count("cache.hits" if result is not None else "cache.misses")


def _after_frame(rec, args, kwargs, result):
    rec.count("protocol.frames")
    rec.count("protocol.frame_bytes", len(result))


def _after_batch(rec, args, kwargs, result):
    rec.count("batch.calls")
    rec.count("batch.items", len(result))


def _after_push(rec, args, kwargs, result):
    queue = args[0]
    with rec._lock:
        if queue.depth > rec.counts["admission.queue_depth.max"]:
            rec.counts["admission.queue_depth.max"] = queue.depth


def _after_repair(rec, args, kwargs, result):
    rec.count("repair.calls")
    rec.count(f"repair.{result.mode}")


def _after_journal_frame(rec, args, kwargs, result):
    rec.count("journal.records")
    rec.count("journal.bytes", len(result))


def _after_netsim(rec, args, kwargs, result):
    rec.count("netsim.steps", result.num_steps)


def _after_runtime(rec, args, kwargs, result):
    rec.count("runtime.bytes", result.bytes_moved)


#: ``(where, attribute, span name or None for count-only, hook)``.
#: ``where`` is a module, or ``module:Class`` for a method.  The name is
#: patched where its caller looks it up, so a module that imported a
#: function by name is patched in that module's namespace.
TARGETS = (
    ("repro.core.ggp", "normalize_weights", "normalize", None),
    ("repro.core.ggp", "regularize", "regularize", _after_regularize),
    ("repro.core.ggp", "peel_weight_regular", "peel", "iter"),
    ("repro.core.wrgp", "peel_weight_regular", "peel", "iter"),
    ("repro.core.wrgp", "hopcroft_karp", "matching", _after_matching),
    ("repro.core.wrgp", "hopcroft_karp_vec", "matching", _after_matching),
    ("repro.core.wrgp", "bottleneck_matching", "matching", _after_matching),
    ("repro.core.wrgp", "hungarian_perfect_matching", "matching",
     _after_matching),
    ("repro.matching.peeler:BottleneckPeeler", "next_matching", "matching",
     _after_matching),
    ("repro.matching.peeler:HungarianPeeler", "next_matching", "matching",
     _after_matching),
    ("repro.matching.vector:VectorBottleneckPeeler", "next_matching",
     "matching", _after_matching),
    ("repro.matching.vector:ApproxBottleneckPeeler", "next_matching",
     "matching", _after_matching),
    ("repro.core.ggp", "ggp", "extract", _after_ggp),
    ("repro.core.oggp", "ggp", "extract", _after_ggp),
    ("repro.core.bounds", "lower_bound", "bounds", None),
    ("repro.core.repair", "lower_bound", "bounds", None),
    ("repro.core.cache:ScheduleCache", "get", "cache", _after_cache_get),
    ("repro.core.cache:ScheduleCache", "put", "cache", None),
    ("repro.parallel.batch", "canonical_signature", "cache", None),
    ("repro.parallel", "decode_graph", "wire.decode", None),
    ("repro.parallel", "encode_graph", "wire.encode", None),
    ("repro.serve.daemon", "encode_frame", "protocol.encode", _after_frame),
    ("repro.serve.protocol", "encode_frame", "protocol.encode", _after_frame),
    ("repro.serve.protocol", "_verify_and_decode", "protocol.decode", None),
    ("repro.parallel", "schedule_batch", "batch", _after_batch),
    ("repro.serve.admission:TenantQuotas", "admit", "admission", None),
    ("repro.serve.admission:FairQueue", "push", "admission", _after_push),
    ("repro.serve.admission:FairQueue", "pop", "admission", None),
    ("repro.serve.admission:FairQueue", "drain_op", "admission", None),
    ("repro.serve.admission:DegradationLadder", "observe", "admission", None),
    ("repro.serve.admission:DegradationLadder", "apply", "admission", None),
    ("repro.serve.runs:RunRegistry", "execute", "transfer", None),
    ("repro.graph.generators", "from_traffic_matrix", "graph", None),
    ("repro.resilience.recovery", "residual_graph_from_amounts", "graph",
     None),
    ("repro.netsim.watch", "residual_graph_from_amounts", "graph", None),
    ("repro.runtime.churn", "residual_graph_from_amounts", "graph", None),
    ("repro.netsim.watch", "repair_plan", "repair", _after_repair),
    ("repro.runtime.churn", "repair_plan", "repair", _after_repair),
    ("repro.resilience.recovery", "verify_recovery_schedule", "verify", None),
    ("repro.netsim.watch", "verify_recovery_schedule", "verify", None),
    ("repro.runtime.churn", "verify_recovery_schedule", "verify", None),
    ("repro.resilience.journal:CheckpointStore", "begin", "journal", None),
    ("repro.resilience.journal:CheckpointStore", "record_round", "journal",
     None),
    ("repro.resilience.journal:CheckpointStore", "record_churn", "journal",
     None),
    ("repro.resilience.journal:CheckpointStore", "record_plan", "journal",
     None),
    ("repro.resilience.journal:CheckpointStore", "mark_complete", "journal",
     None),
    ("repro.resilience.journal:CheckpointStore", "snapshot", "journal", None),
    ("repro.resilience.journal", "_frame", None, _after_journal_frame),
    ("repro.netsim.watch", "simulate_schedule", "netsim", _after_netsim),
    ("repro.runtime.churn", "run_scheduled", "runtime", _after_runtime),
    ("repro.runtime.executor", "run_scheduled", "runtime", _after_runtime),
    # The executors' own loops: reported, but not a layer of the table,
    # so their self time counts as unexplained in ``coverage_frac``.
    ("repro.netsim.watch", "run_redistribution_churn", "executor", None),
    ("repro.runtime.churn", "run_resilient_churn", "executor", None),
)


def _wrap(rec: Recorder, fn, name, hook):
    if hook == "iter":
        @functools.wraps(fn)
        def iter_wrapper(*args, **kwargs):
            return _traced_iter(rec, name, fn(*args, **kwargs))

        return iter_wrapper
    if name is None:
        @functools.wraps(fn)
        def count_wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(rec, args, kwargs, result)
            return result

        return count_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


def _traced_iter(rec: Recorder, name: str, iterator):
    """Each ``next()`` of a peel loop is one span (matchings nest in it)."""
    while True:
        span = rec.open(name)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            rec.close(span)
        rec.count("peel.count")
        yield item


#: Per-layer self-time metrics and the span name each one sums.
SELF_TIME_METRICS = {
    "normalize.self_s": "normalize",
    "regularize.self_s": "regularize",
    "peel.self_s": "peel",
    "matching.self_s": "matching",
    "extract.self_s": "extract",
    "bounds.self_s": "bounds",
    "cache.lookup_s": "cache",
    "wire.decode_s": "wire.decode",
    "wire.encode_s": "wire.encode",
    "protocol.encode_s": "protocol.encode",
    "protocol.decode_s": "protocol.decode",
    "batch.self_s": "batch",
    "graph.build_s": "graph",
    "repair.self_s": "repair",
    "verify.self_s": "verify",
    "journal.self_s": "journal",
    "netsim.self_s": "netsim",
    "runtime.self_s": "runtime",
    "executor.self_s": "executor",
}

#: Work counts reported per traced unit of work.
COUNT_METRICS = {
    "peel.count": "peel.count",
    "matching.calls": "matching.calls",
    "repair.calls": "repair.calls",
    "journal.records": "journal.records",
    "journal.bytes": "journal.bytes",
    "netsim.steps": "netsim.steps",
    "runtime.bytes": "runtime.bytes",
}


def layer_table(summary: dict, units: int) -> dict[str, float]:
    """Per-layer metrics from a :meth:`Recorder.summary`.

    Times and counts are per traced unit of work (one pass over the
    workload's instance set, or one traced load phase).  A ratio whose
    base is zero reads 0.0: that layer did no work in this workload.
    """
    self_s = summary["self_s"]
    counts = summary["counts"]

    def c(name: str) -> float:
        return counts.get(name, 0.0)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        metric: self_s.get(span, 0.0) / units
        for metric, span in SELF_TIME_METRICS.items()
    }
    out["schedule.self_s"] = sum(
        self_s.get(span, 0.0) for span in SCHEDULER_LAYERS
    ) / units
    out.update({
        metric: c(name) / units for metric, name in COUNT_METRICS.items()
    })
    out["regularize.edge_growth"] = frac(
        c("regularize.j_edges"), c("regularize.edges")
    )
    out["peel.useful_frac"] = frac(c("extract.steps"), c("peel.count"))
    out["cache.hit_frac"] = frac(
        c("cache.hits"), c("cache.hits") + c("cache.misses")
    )
    out["repair.splice_frac"] = frac(
        c("repair.splice"), c("repair.splice") + c("repair.fallback")
    )
    out["protocol.frame_bytes.mean"] = frac(
        c("protocol.frame_bytes"), c("protocol.frames")
    )
    out["batch.items.mean"] = frac(c("batch.items"), c("batch.calls"))
    out["admission.queue_depth.max"] = c("admission.queue_depth.max")
    return out


def named_self_s(summary: dict) -> float:
    """Total self time of every named layer (the coverage numerator).

    Time in the benchmark's own frames, in ``oggp``'s frame around
    ``ggp`` and in the executors' loops is outside every layer.
    """
    return sum(summary["self_s"].get(name, 0.0) for name in LAYERS)


def install(rec: Recorder, only: tuple[str, ...] | None = None):
    """Patch the layer entry points; returns the undo callable.

    ``only`` restricts the patching to the targets of those span names.
    """
    undo = []
    for where, attr, name, hook in TARGETS:
        if only is not None and name not in only:
            continue
        module_name, _, class_name = where.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, _wrap(rec, original, name, hook))
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
