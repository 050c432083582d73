"""Durable checkpointing: crash-safe journal + snapshots for long runs.

The round loop (:func:`repro.resilience.recovery._drive`) survives
in-process faults, but only as long as the process does — a SIGKILL or
power loss throws away every delivered byte.  This module makes the
per-edge delivered amounts *durable*:

- an **append-only journal** (``journal.kpbj``) of CRC-32-framed
  records, one delta record per completed round, written with a
  configurable fsync policy.  The framing reuses the KPBW v2
  conventions from :mod:`repro.parallel.wire`: a magic + version
  header whose CRC-32 is computed with the crc field zeroed, so any
  torn or flipped byte is detected.  A torn tail (the crash landed
  mid-append) is *tolerated*: reading truncates at the first bad
  record and resumes from the valid prefix;
- periodic **atomic snapshots** (``snapshot.kpbj``): temp file +
  fsync + rename, so a snapshot is either the complete old state or
  the complete new state, never a mix.  Snapshots compact the journal;
  every delta record carries a monotonically increasing sequence
  number and the snapshot stores the last sequence it folded in, so a
  crash *between* the snapshot rename and the journal truncation
  double-applies nothing.

Live-churn runs add two JSON-payload record types: **churn** records
(:data:`_R_CHURN`) persist each applied
:class:`~repro.core.repair.TrafficDelta` — injected cells with their
explicit ids, removals, resizes — mutating the state's *current* edge
map, and **plan** records (:data:`_R_PLAN`) persist the evolving
spliced schedule plus the execution position inside it, so ``kpbs
resume`` restores a churned run bit-identically (same plan, same
position, same churn trajectory).  Delta records advance the stored
plan's position by the run's segment length, mirroring the executor.

A :class:`CheckpointStore` also takes an **exclusive lock** (``lock``
file, ``flock``) on its run directory for its whole open lifetime: a
second process attempting to journal or resume the same run fails
fast with :class:`~repro.util.errors.ConfigError` instead of
interleaving records.  Read-only :func:`load_checkpoint` does not
lock.

Amounts are cumulative per original edge id and may be ``int`` (the
runtime executor's byte counts) or ``float`` (the network simulator's
Mbit); the kind is fixed by the run's metadata and round-trips
exactly (ints as i64, floats as f64).

Corruption outside the tolerated torn tail — a corrupt snapshot, a
delta for an unknown edge, delivery beyond an edge's total — raises
:class:`~repro.util.errors.GraphError`; resume never silently invents
or loses amounts.

Everything reports through :mod:`repro.obs` under ``checkpoint.*``:
``records_written``, ``fsyncs``, ``snapshots``, ``snapshot_bytes``,
and the ``checkpoint.load`` / ``checkpoint.append`` timers.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

from repro import obs
from repro.util.errors import ConfigError, GraphError

__all__ = [
    "FSYNC_POLICIES",
    "RunMeta",
    "CheckpointState",
    "CheckpointStore",
    "load_checkpoint",
]

_MAGIC = b"KPBJ"
_VERSION = 1
#: magic | version u8 | record type u8 | pad u16 | crc32 u32 | length u32
_RECORD_HEADER = struct.Struct("<4sBBxxII")
_CRC_OFFSET = 8
_CRC_SIZE = 4

_R_META = 1
_R_DELTA = 2
_R_COMPLETE = 3
_R_CHURN = 4
_R_PLAN = 5
_KNOWN_RTYPES = (_R_META, _R_DELTA, _R_COMPLETE, _R_CHURN, _R_PLAN)

#: seq u64 | round u32 | count u32, then count * (edge id i64, amount)
_DELTA_HEADER = struct.Struct("<QII")
_PAIR_INT = struct.Struct("<qq")
_PAIR_FLOAT = struct.Struct("<qd")

#: ``fsync`` policies: ``"always"`` syncs after every record append,
#: ``"round"`` syncs once per committed round (the default), ``"never"``
#: leaves durability to the OS page cache (fastest, weakest).
FSYNC_POLICIES = ("always", "round", "never")

JOURNAL_NAME = "journal.kpbj"
SNAPSHOT_NAME = "snapshot.kpbj"
LOCK_NAME = "lock"


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------


def _frame(rtype: int, payload: bytes) -> bytes:
    """One CRC-32-framed record (crc computed with the field zeroed)."""
    record = bytearray(
        _RECORD_HEADER.pack(_MAGIC, _VERSION, rtype, 0, len(payload))
    )
    record += payload
    crc = zlib.crc32(record)
    record[_CRC_OFFSET : _CRC_OFFSET + _CRC_SIZE] = struct.pack("<I", crc)
    return bytes(record)


def _read_records(data: bytes, *, strict: bool) -> tuple[list[tuple[int, bytes]], int]:
    """Parse ``(rtype, payload)`` records; return them plus the valid length.

    With ``strict=False`` (the journal), parsing stops at the first
    record that is short, torn or fails its CRC — the *torn-tail*
    tolerance — and the offset of that record is returned so the writer
    can truncate the garbage.  With ``strict=True`` (snapshots, which
    are written atomically and must be all-or-nothing), the same
    defects raise :class:`GraphError`.
    """
    records: list[tuple[int, bytes]] = []
    offset = 0
    size = len(data)
    while offset < size:
        if size - offset < _RECORD_HEADER.size:
            if strict:
                raise GraphError("checkpoint record truncated mid-header")
            break
        magic, version, rtype, crc, length = _RECORD_HEADER.unpack_from(
            data, offset
        )
        end = offset + _RECORD_HEADER.size + length
        if (
            magic != _MAGIC
            or version != _VERSION
            or rtype not in _KNOWN_RTYPES
            or end > size
        ):
            if strict:
                raise GraphError("corrupt checkpoint record header")
            break
        record = bytearray(data[offset:end])
        record[_CRC_OFFSET : _CRC_OFFSET + _CRC_SIZE] = b"\x00" * _CRC_SIZE
        if zlib.crc32(record) != crc:
            if strict:
                raise GraphError("checkpoint record checksum mismatch")
            break
        records.append((rtype, data[offset + _RECORD_HEADER.size : end]))
        offset = end
    return records, offset


# ----------------------------------------------------------------------
# Run metadata and state
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunMeta:
    """Immutable description of a checkpointed run.

    ``edges`` maps each original edge id to ``(left, right, total)``
    where ``total`` is the full amount to deliver; ``amount_kind`` is
    ``"int"`` (byte counts) or ``"float"`` (e.g. Mbit).  ``extra`` is a
    JSON-serialisable dict for whatever the creating layer needs to
    rebuild the run (a payload seed, a network spec, matrix shape...).
    """

    edges: Mapping[int, tuple[int, int, int | float]]
    k: int
    beta: float
    method: str
    amount_kind: str = "int"
    extra: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.amount_kind not in ("int", "float"):
            raise ConfigError(
                f"amount_kind must be 'int' or 'float', got {self.amount_kind!r}"
            )
        if not self.edges:
            raise ConfigError("a checkpointed run needs at least one edge")
        for eid, (left, right, total) in self.edges.items():
            if total <= 0:
                raise ConfigError(
                    f"edge {eid}: total must be positive, got {total!r}"
                )
            del left, right

    def to_payload(self) -> bytes:
        doc = {
            "k": self.k,
            "beta": self.beta,
            "method": self.method,
            "amount_kind": self.amount_kind,
            "edges": {
                str(eid): list(lrt) for eid, lrt in sorted(self.edges.items())
            },
            "extra": dict(self.extra),
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "RunMeta":
        try:
            doc = json.loads(payload.decode("utf-8"))
            kind = doc["amount_kind"]
            cast = int if kind == "int" else float
            edges = {
                int(eid): (int(l), int(r), cast(total))
                for eid, (l, r, total) in doc["edges"].items()
            }
            return cls(
                edges=edges,
                k=int(doc["k"]),
                beta=float(doc["beta"]),
                method=str(doc["method"]),
                amount_kind=kind,
                extra=dict(doc.get("extra", {})),
            )
        except GraphError:
            raise
        except ConfigError as exc:
            raise GraphError(f"invalid checkpoint metadata: {exc}") from exc
        except Exception as exc:
            raise GraphError(f"corrupt checkpoint metadata: {exc}") from exc


@dataclass
class CheckpointState:
    """Everything recovered from a checkpoint directory.

    ``delivered`` maps each edge id to its cumulative delivered amount
    (0 entries for edges never touched); ``next_round`` is the index
    the next executed round should use; ``seq`` the last applied delta
    sequence number.  ``complete`` is True once the run recorded that
    every edge reached its total.

    ``edges`` is the *current* edge map — identical to ``meta.edges``
    until churn records mutate it (injections, removals, resizes).
    ``last_churn_round`` is the latest round a churn record was applied
    for (so a resumed loop never re-draws it); ``plan`` /
    ``plan_pos`` / ``plan_round`` / ``plan_segment`` carry the evolving
    spliced schedule (as a :meth:`~repro.core.schedule.Schedule.to_dict`
    doc) and the step position execution reached inside it.
    """

    meta: RunMeta
    delivered: dict[int, int | float]
    seq: int = 0
    next_round: int = 0
    complete: bool = False
    edges: dict[int, tuple[int, int, int | float]] = None  # type: ignore[assignment]
    last_churn_round: int = -1
    plan: dict | None = None
    plan_pos: int = 0
    plan_round: int = -1
    plan_segment: int = 0

    def __post_init__(self) -> None:
        if self.edges is None:
            self.edges = {
                eid: tuple(lrt) for eid, lrt in self.meta.edges.items()
            }

    def pending(self) -> dict[int, tuple[int, int, int | float]]:
        """Undelivered traffic, in :func:`residual_graph_from_amounts` form.

        Float-kind runs clamp accumulated rounding dust to zero (the
        same ``1e-12``-relative threshold the netsim recovery loop
        uses), so a resumed run terminates instead of rescheduling
        vanishing residues forever.
        """
        dust = self.meta.amount_kind == "float"
        out: dict[int, tuple[int, int, int | float]] = {}
        for eid, (left, right, total) in self.edges.items():
            remaining = total - self.delivered.get(eid, 0)
            if dust and remaining <= 1e-12 * max(float(total), 1.0):
                continue
            if remaining > 0:
                out[eid] = (left, right, remaining)
        return out


def _delta_payload(
    state: CheckpointState,
    seq: int,
    round_index: int,
    amounts: Mapping[int, int | float],
) -> bytes:
    """A delta record's payload: the positive ``amounts`` in edge order."""
    float_amounts = state.meta.amount_kind == "float"
    pair = _PAIR_FLOAT if float_amounts else _PAIR_INT
    pairs = sorted((eid, amount) for eid, amount in amounts.items() if amount > 0)
    payload = bytearray(_DELTA_HEADER.pack(seq, round_index, len(pairs)))
    for eid, amount in pairs:
        payload += pair.pack(eid, float(amount) if float_amounts else int(amount))
    return bytes(payload)


def _apply_delta(
    state: CheckpointState,
    payload: bytes,
    *,
    float_amounts: bool,
    from_snapshot: bool = False,
) -> None:
    """Fold one delta record into ``state`` (validating every pair)."""
    if len(payload) < _DELTA_HEADER.size:
        raise GraphError("checkpoint delta record too short")
    seq, round_index, count = _DELTA_HEADER.unpack_from(payload)
    pair = _PAIR_FLOAT if float_amounts else _PAIR_INT
    if len(payload) != _DELTA_HEADER.size + count * pair.size:
        raise GraphError("checkpoint delta record length mismatch")
    if not from_snapshot and seq <= state.seq and state.seq:
        # Already folded into the snapshot this journal predates.
        return
    offset = _DELTA_HEADER.size
    for _ in range(count):
        eid, amount = pair.unpack_from(payload, offset)
        offset += pair.size
        entry = state.edges.get(eid)
        if entry is None:
            raise GraphError(f"checkpoint delta names unknown edge {eid}")
        if amount <= 0:
            raise GraphError(
                f"checkpoint delta for edge {eid} is non-positive: {amount!r}"
            )
        total = entry[2]
        new = state.delivered.get(eid, 0) + amount
        slack = 1e-9 * max(1.0, float(total)) if float_amounts else 0
        if new > total + slack:
            raise GraphError(
                f"checkpoint delivers {new!r} of {total!r} on edge {eid}"
            )
        state.delivered[eid] = min(new, total) if float_amounts else new
    state.seq = max(state.seq, seq)
    state.next_round = max(state.next_round, round_index + 1)
    if not from_snapshot and state.plan is not None and state.plan_segment > 0:
        # One delta == one executed segment of the evolving plan.
        total_steps = len(state.plan.get("steps", ()))
        state.plan_pos = min(total_steps, state.plan_pos + state.plan_segment)


def _apply_churn(
    state: CheckpointState, payload: bytes, *, from_snapshot: bool = False
) -> None:
    """Fold one churn record (a JSON TrafficDelta) into ``state``."""
    from repro.core.repair import TrafficDelta, apply_traffic_delta

    try:
        doc = json.loads(payload.decode("utf-8"))
        seq = int(doc["seq"])
        round_index = int(doc["round"])
        delta = TrafficDelta.from_doc(doc, amount_kind=state.meta.amount_kind)
    except GraphError:
        raise
    except Exception as exc:
        raise GraphError(f"corrupt checkpoint churn record: {exc}") from exc
    if not from_snapshot and seq <= state.seq and state.seq:
        return
    try:
        state.edges = apply_traffic_delta(state.edges, state.delivered, delta)
    except ConfigError as exc:
        raise GraphError(f"invalid checkpoint churn record: {exc}") from exc
    for eid, _, _, _ in delta.inject:
        state.delivered.setdefault(eid, 0)
    for eid in list(state.delivered):
        if eid not in state.edges:
            del state.delivered[eid]
    state.seq = max(state.seq, seq)
    state.last_churn_round = max(state.last_churn_round, round_index)


def _apply_plan(
    state: CheckpointState, payload: bytes, *, from_snapshot: bool = False
) -> None:
    """Fold one plan record (the evolving schedule + position)."""
    try:
        doc = json.loads(payload.decode("utf-8"))
        seq = int(doc["seq"])
        round_index = int(doc["round"])
        pos = int(doc["pos"])
        segment = int(doc["segment"])
        plan = doc["schedule"]
    except Exception as exc:
        raise GraphError(f"corrupt checkpoint plan record: {exc}") from exc
    if not from_snapshot and seq <= state.seq and state.seq:
        return
    if plan is not None:
        state.plan = plan
    state.plan_pos = pos
    state.plan_round = round_index
    state.plan_segment = segment
    state.seq = max(state.seq, seq)


def _fold(
    state: CheckpointState | None,
    records: list[tuple[int, bytes]],
    *,
    what: str,
    from_snapshot: bool = False,
) -> CheckpointState:
    """Fold ``records`` into ``state``, or into a fresh state from their metadata.

    A journal compacted into a snapshot restates the metadata once; the
    snapshot's copy is authoritative, so that record is skipped.
    """
    meta_seen = False
    for rtype, payload in records:
        if rtype == _R_META:
            if meta_seen:
                raise GraphError(f"duplicate metadata record in {what}")
            meta_seen = True
            if state is None:
                meta = RunMeta.from_payload(payload)
                state = CheckpointState(
                    meta=meta, delivered={eid: 0 for eid in meta.edges}
                )
        elif state is None:
            raise GraphError(f"{what} has records before any metadata")
        elif rtype == _R_DELTA:
            _apply_delta(
                state,
                payload,
                float_amounts=state.meta.amount_kind == "float",
                from_snapshot=from_snapshot,
            )
        elif rtype == _R_CHURN:
            _apply_churn(state, payload, from_snapshot=from_snapshot)
        elif rtype == _R_PLAN:
            _apply_plan(state, payload, from_snapshot=from_snapshot)
        elif rtype == _R_COMPLETE:
            state.complete = True
    if state is None:
        raise GraphError(f"{what} contains no checkpoint metadata")
    return state


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------


def _fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())
    obs.metrics().counter("checkpoint.fsyncs").inc()


def _fsync_dir(path: Path) -> None:
    # Directory fsync makes the rename itself durable; some platforms
    # (or exotic filesystems) refuse O_RDONLY directory fds — degrading
    # to "rename durable at the OS's leisure" is acceptable there.
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
        obs.metrics().counter("checkpoint.fsyncs").inc()
    finally:
        os.close(fd)


class CheckpointStore:
    """Write-ahead journal + snapshot pair in one directory.

    Create a fresh store with :meth:`begin`, or reopen an interrupted
    run's directory with :meth:`resume`::

        store = CheckpointStore(directory, fsync="round", snapshot_every=8)
        store.begin(meta)
        store.record_round({edge_id: delta, ...}, round_index=0)
        ...
        store.mark_complete()
        store.close()

    ``fsync`` is one of :data:`FSYNC_POLICIES`; ``snapshot_every``
    compacts the journal into an atomic snapshot after that many
    recorded rounds (0 disables periodic snapshots; :meth:`snapshot`
    can always be called explicitly).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        fsync: str = "round",
        snapshot_every: int = 8,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ConfigError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if snapshot_every < 0:
            raise ConfigError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.directory = Path(directory)
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self._journal = None
        self._lock = None
        self._state: CheckpointState | None = None
        self._rounds_since_snapshot = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_NAME

    @property
    def lock_path(self) -> Path:
        return self.directory / LOCK_NAME

    def _acquire_lock(self) -> None:
        """Take the directory's exclusive advisory lock (or fail fast).

        Two stores journalling or resuming the same run concurrently
        would interleave records and corrupt the sequence numbering, so
        the second opener gets :class:`ConfigError` immediately.  The
        lock lives for the store's open lifetime and is released by
        :meth:`close` (and by the OS if the process dies).
        """
        if self._lock is not None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        handle = open(self.lock_path, "a+b")
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            self._lock = handle
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            handle.close()
            raise ConfigError(
                f"checkpoint directory {self.directory} is locked by "
                "another process; two stores must not journal or resume "
                "the same run concurrently"
            ) from exc
        self._lock = handle

    def lock(self) -> "CheckpointStore":
        """Take the directory's lock ahead of :meth:`begin`, which keeps it."""
        self._acquire_lock()
        return self

    def _release_lock(self) -> None:
        if self._lock is not None:
            try:
                self._lock.close()
            finally:
                self._lock = None

    @property
    def state(self) -> CheckpointState:
        if self._state is None:
            raise ConfigError("checkpoint store not started (begin/resume)")
        return self._state

    def exists(self) -> bool:
        """True when the directory already holds checkpoint *data*.

        A zero-byte journal does not count: a crash between creating
        the file and appending the metadata record left nothing
        durable, and the run must be restartable from scratch.
        """
        for path in (self.journal_path, self.snapshot_path):
            try:
                if path.stat().st_size > 0:
                    return True
            except FileNotFoundError:
                continue
        return False

    def begin(self, meta: RunMeta) -> "CheckpointStore":
        """Start a fresh checkpointed run (directory must hold none)."""
        if self._journal is not None:
            raise ConfigError("checkpoint store already started")
        self._acquire_lock()
        try:
            if self.exists():
                raise ConfigError(
                    f"checkpoint directory {self.directory} already holds a "
                    "run; resume it or choose a fresh directory"
                )
            self._state = CheckpointState(
                meta=meta, delivered={eid: 0 for eid in meta.edges}
            )
            self._journal = open(self.journal_path, "ab")
            self._append(_R_META, meta.to_payload())
            if self.fsync in ("always", "round"):
                _fsync_file(self._journal)
        except BaseException:
            self._release_lock()
            raise
        return self

    @classmethod
    def resume(
        cls,
        directory: str | os.PathLike,
        fsync: str = "round",
        snapshot_every: int = 8,
    ) -> "CheckpointStore":
        """Reopen an interrupted run's directory for appending.

        The journal's torn tail (if any) is truncated away before the
        first new append, so fresh records never land after garbage.
        """
        store = cls(directory, fsync=fsync, snapshot_every=snapshot_every)
        store._acquire_lock()
        try:
            state, valid_len = _load_state(store.directory)
            store._state = state
            store._journal = open(store.journal_path, "ab")
            if valid_len is not None and store._journal.tell() > valid_len:
                store._journal.truncate(valid_len)
                store._journal.seek(valid_len)
            if not store.journal_path.stat().st_size:
                # Journal was empty (fresh after a snapshot-compact or the
                # crash tore the very first record): re-anchor it with the
                # metadata so the journal alone is always interpretable.
                store._append(_R_META, store._current_meta().to_payload())
                if store.fsync in ("always", "round"):
                    _fsync_file(store._journal)
        except BaseException:
            store._journal = None
            store._release_lock()
            raise
        return store

    def close(self) -> None:
        if self._journal is not None:
            if self.fsync != "never":
                _fsync_file(self._journal)
            self._journal.close()
            self._journal = None
        self._release_lock()

    def _current_meta(self) -> RunMeta:
        """The run metadata with the *current* (post-churn) edge map."""
        state = self.state
        if state.edges == dict(state.meta.edges):
            return state.meta
        return replace(state.meta, edges=dict(state.edges))

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- writing -------------------------------------------------------

    def _append(self, rtype: int, payload: bytes) -> None:
        if self._journal is None:
            raise ConfigError("checkpoint store is closed")
        with obs.phase("checkpoint.append"):
            self._journal.write(_frame(rtype, payload))
            if self.fsync == "always":
                _fsync_file(self._journal)
        obs.metrics().counter("checkpoint.records_written").inc()

    def record_round(
        self, deltas: Mapping[int, int | float], round_index: int
    ) -> None:
        """Durably record one completed round's per-edge delivered deltas.

        ``deltas`` maps original edge ids to the amount delivered *this
        round*; zero entries are dropped.  The record is fsynced per the
        store's policy, and a snapshot is taken automatically every
        ``snapshot_every`` rounds.
        """
        state = self.state
        payload = _delta_payload(state, state.seq + 1, round_index, deltas)
        self._append(_R_DELTA, payload)
        if self.fsync == "round":
            _fsync_file(self._journal)
        # Mirror the write into the in-memory state (validated the same
        # way a reader would fold it, so writer and resumer agree).
        _apply_delta(
            state, payload, float_amounts=state.meta.amount_kind == "float"
        )
        self._rounds_since_snapshot += 1
        if self.snapshot_every and self._rounds_since_snapshot >= self.snapshot_every:
            self.snapshot()

    def record_churn(self, delta, round_index: int) -> None:
        """Durably record one applied :class:`TrafficDelta`.

        The delta is validated against the current state *before*
        anything is written (:class:`ConfigError` on an invalid or
        edge-clearing delta), then journalled and folded into the
        in-memory edge map exactly the way a resuming reader would fold
        it.  Empty deltas are dropped.
        """
        from repro.core.repair import apply_traffic_delta

        state = self.state
        if not delta:
            return
        if not apply_traffic_delta(state.edges, state.delivered, delta):
            raise ConfigError(
                "churn delta would leave the checkpointed run with no edges"
            )
        doc = {"seq": state.seq + 1, "round": int(round_index), **delta.to_doc()}
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        self._append(_R_CHURN, payload)
        if self.fsync == "round":
            _fsync_file(self._journal)
        _apply_churn(state, payload)

    def record_plan(
        self,
        schedule_doc: dict | None,
        *,
        pos: int,
        round_index: int,
        segment: int,
    ) -> None:
        """Durably record the evolving plan and/or the position in it.

        ``schedule_doc`` is a :meth:`~repro.core.schedule.Schedule.to_dict`
        document (pass ``None`` to update only the position of the plan
        recorded earlier); ``pos`` is the step index execution will
        continue from and ``segment`` the number of steps executed per
        round — each subsequent delta record advances the stored
        position by that much, mirroring the executor.
        """
        state = self.state
        if schedule_doc is None and state.plan is None:
            raise ConfigError("no plan recorded yet to update the position of")
        seq = state.seq + 1
        doc = {
            "seq": seq,
            "round": int(round_index),
            "pos": int(pos),
            "segment": int(segment),
            "schedule": schedule_doc,
        }
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        self._append(_R_PLAN, payload)
        if self.fsync == "round":
            _fsync_file(self._journal)
        _apply_plan(state, payload)

    def mark_complete(self) -> None:
        """Record that every edge reached its total (durable)."""
        self._append(_R_COMPLETE, b"")
        if self.fsync in ("always", "round"):
            _fsync_file(self._journal)
        self.state.complete = True

    def snapshot(self) -> None:
        """Atomically compact journal + prior snapshot into one snapshot.

        Written to a temp file, fsynced, then renamed over the old
        snapshot (atomic on POSIX); the journal is truncated afterwards.
        A crash at any point leaves a readable state: delta sequence
        numbers stop a not-yet-truncated journal from double-applying.
        """
        state = self.state
        meta_now = self._current_meta()
        payload = _delta_payload(
            state, state.seq, max(0, state.next_round - 1), state.delivered
        )
        blob = _frame(_R_META, meta_now.to_payload()) + _frame(_R_DELTA, payload)
        if state.last_churn_round >= 0:
            # Empty marker delta: carries the last churned round across
            # the compaction (the edge map itself is folded into META).
            marker = {
                "seq": state.seq,
                "round": state.last_churn_round,
                "inject": [],
                "remove": [],
                "resize": [],
            }
            blob += _frame(
                _R_CHURN, json.dumps(marker, sort_keys=True).encode("utf-8")
            )
        if state.plan is not None:
            plan_doc = {
                "seq": state.seq,
                "round": state.plan_round,
                "pos": state.plan_pos,
                "segment": state.plan_segment,
                "schedule": state.plan,
            }
            blob += _frame(
                _R_PLAN, json.dumps(plan_doc, sort_keys=True).encode("utf-8")
            )
        if state.complete:
            blob += _frame(_R_COMPLETE, b"")
        tmp = self.snapshot_path.with_suffix(".tmp")
        with obs.phase("checkpoint.snapshot", bytes=len(blob)):
            with open(tmp, "wb") as handle:
                handle.write(blob)
                _fsync_file(handle)
            os.replace(tmp, self.snapshot_path)
            _fsync_dir(self.directory)
            # Safe to drop the journal now: everything it said is in the
            # snapshot.  (A crash before this truncate is harmless — the
            # stale deltas carry seq <= the snapshot's and are skipped.)
            if self._journal is not None:
                self._journal.truncate(0)
                self._journal.seek(0)
                self._append(_R_META, meta_now.to_payload())
                if self.fsync != "never":
                    _fsync_file(self._journal)
        metrics = obs.metrics()
        metrics.counter("checkpoint.snapshots").inc()
        metrics.counter("checkpoint.snapshot_bytes").inc(len(blob))
        obs.emit(
            "checkpoint.snapshot",
            directory=str(self.directory),
            bytes=len(blob),
            seq=state.seq,
            complete=state.complete,
        )
        self._rounds_since_snapshot = 0


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


def _load_state(directory: Path) -> tuple[CheckpointState, int | None]:
    """State from snapshot + journal; also the journal's valid length."""
    snapshot_path = directory / SNAPSHOT_NAME
    journal_path = directory / JOURNAL_NAME
    if not snapshot_path.exists() and not journal_path.exists():
        raise GraphError(f"no checkpoint found in {directory}")
    state: CheckpointState | None = None
    if snapshot_path.exists():
        records, _ = _read_records(snapshot_path.read_bytes(), strict=True)
        state = _fold(None, records, what="snapshot", from_snapshot=True)
    valid_len: int | None = None
    if journal_path.exists():
        records, valid_len = _read_records(journal_path.read_bytes(), strict=False)
        state = _fold(state, records, what="journal")
    assert state is not None
    return state, valid_len


def load_checkpoint(directory: str | os.PathLike) -> CheckpointState:
    """Read-only recovery of a checkpoint directory's state.

    Applies the snapshot (strictly validated) and then every journal
    delta newer than it, tolerating a torn journal tail.  Raises
    :class:`GraphError` when the directory holds no checkpoint or the
    surviving records are inconsistent.
    """
    with obs.phase("checkpoint.load"):
        state, _ = _load_state(Path(directory))
    return state
