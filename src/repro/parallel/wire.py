"""Compact binary wire format for :class:`~repro.graph.bipartite.BipartiteGraph`.

Dispatching a graph to a worker process through :mod:`pickle` costs one
object per edge (plus memo bookkeeping).  The batch engine instead ships
the graph the way the graph itself stores it: flat arrays.  The encoding
is a fixed :mod:`struct` header followed by :mod:`array` payloads —
O(edges) bytes, no per-edge Python objects on either side — and it is
**faithful**: node ids (including isolated nodes), node/edge kinds, edge
ids (including gaps left by removed edges), ``_next_edge_id`` and the
exact numeric type of every weight all round-trip, so a decoded graph
schedules bit-identically to the original.

Layout (little-endian)::

    magic "KPBW" | version u8 | flags u8 | pad u16 | crc32 u32
    num_left u64 | num_right u64 | num_edges u64 | next_edge_id u64
    left node ids   : i64 * num_left
    left node kinds : u8  * num_left
    right node ids  : i64 * num_right
    right node kinds: u8  * num_right
    edge ids        : i64 * num_edges      (ascending)
    edge lefts      : i64 * num_edges
    edge rights     : i64 * num_edges
    edge kinds      : u8  * num_edges
    weights         : i64 * num_edges  when flags & INT_WEIGHTS
                      f64 * num_edges  otherwise
    int mask        : u8  * num_edges  when flags & MIXED_WEIGHTS
                      (1 where the weight is a Python int)

Weights are ``int`` in the common case (the paper's workloads and the β
normalisation produce integers) and travel as exact ``i64``.  Graphs
with float weights travel as ``f64``; a *mixed* graph additionally
carries a one-byte-per-edge mask so integer entries are restored as
``int`` (doubles represent them exactly up to 2**53 — larger mixed ints
are rejected rather than silently rounded).

Version 2 hardens the decoder against corrupted or adversarial input:
the header carries a CRC-32 of the whole message (computed with the crc
field zeroed), the total length implied by the counts and flags is
validated *before* any payload is touched, and every kind byte, node
id, edge id and weight is range-checked — malformed input of any sort
raises :class:`~repro.util.errors.GraphError`, never ``struct.error`` or
``IndexError``, and never yields a silently-wrong graph.  In particular:

- node ids are unique per side (a repeated id would merge two nodes);
- edge ids are ``>= 0`` and strictly ascending, and ``next_edge_id``
  clears the highest one;
- ``next_edge_id`` is at most :data:`MAX_NEXT_EDGE_ID` (2**22).  A
  graph stores its edges in arrays indexed by edge id, so without this
  limit a 95-byte message naming one huge id could make the decoder
  allocate gigabytes.  The limit caps that at four arrays of 2**22
  slots; the largest graph this project builds (max_side 1000) has
  10**6 edges;
- a weight the mask marks int is integral and at most 2**53 in
  magnitude, as the encoder sends it.

:func:`encode_graph` refuses graphs the decoder would reject (a
negative edge id, ``next_edge_id`` above the limit, or a mixed int
beyond 2**53).
"""

from __future__ import annotations

import math
import operator
import struct
import zlib
from array import array

from repro.graph.bipartite import BipartiteGraph, EdgeKind, NodeKind
from repro.util.errors import GraphError

__all__ = ["encode_graph", "decode_graph", "MAX_NEXT_EDGE_ID"]

_MAGIC = b"KPBW"
_VERSION = 2
_HEADER = struct.Struct("<4sBBxxI4Q")
#: Offset/size of the crc32 field inside the header.
_CRC_OFFSET = 8
_CRC_SIZE = 4

#: flags
_INT_WEIGHTS = 1  # every weight is an int that fits in i64
_MIXED_WEIGHTS = 2  # weights travel as f64 with an int-restoration mask

#: Wire value <-> enum; index in the tuple is the wire byte.
_EDGE_KINDS = (EdgeKind.ORIGINAL, EdgeKind.DEFICIENCY, EdgeKind.FILLER)
_NODE_KINDS = (NodeKind.ORIGINAL, NodeKind.FILLER, NodeKind.PADDING)
_EDGE_KIND_BYTE = {kind: i for i, kind in enumerate(_EDGE_KINDS)}
_NODE_KIND_BYTE = {kind: i for i, kind in enumerate(_NODE_KINDS)}

#: Upper bound on a message's ``next_edge_id`` (see the module docstring).
MAX_NEXT_EDGE_ID = 2**22

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1
_F64_EXACT = 2**53


def _check_i64(values, what: str) -> None:
    for v in values:
        if not (_I64_MIN <= v <= _I64_MAX):
            raise GraphError(f"{what} {v!r} does not fit the i64 wire format")


def encode_graph(graph: BipartiteGraph) -> bytes:
    """Serialise ``graph`` to the compact wire format."""
    left = sorted(graph._left_adj)
    right = sorted(graph._right_adj)
    ids = sorted(graph._live)
    _check_i64(left, "left node id")
    _check_i64(right, "right node id")
    if ids and ids[0] < 0:
        raise GraphError(
            f"edge id {ids[0]} is negative; the wire format carries ids >= 0"
        )
    if graph._next_edge_id > MAX_NEXT_EDGE_ID:
        raise GraphError(
            f"next edge id {graph._next_edge_id} exceeds the wire-format "
            f"limit {MAX_NEXT_EDGE_ID}"
        )
    eleft = graph._eleft
    eright = graph._eright
    eweight = graph._eweight
    ekind = graph._ekind
    weights = [eweight[i] for i in ids]

    flags = 0
    mask = b""
    int_flags = [isinstance(w, int) and not isinstance(w, bool) for w in weights]
    if all(int_flags) and all(_I64_MIN <= w <= _I64_MAX for w in weights):
        flags |= _INT_WEIGHTS
        weight_bytes = array("q", weights).tobytes()
    else:
        if any(int_flags):
            flags |= _MIXED_WEIGHTS
            mask = bytes(bytearray(int_flags))
            for w, is_int in zip(weights, int_flags):
                if is_int and abs(w) > _F64_EXACT:
                    raise GraphError(
                        f"mixed-type graph has int weight {w!r} beyond exact "
                        f"f64 range; cannot encode faithfully"
                    )
        weight_bytes = array("d", [float(w) for w in weights]).tobytes()

    parts = [
        _HEADER.pack(
            _MAGIC, _VERSION, flags, 0,  # crc patched below
            len(left), len(right), len(ids), graph._next_edge_id,
        ),
        array("q", left).tobytes(),
        bytes(bytearray(_NODE_KIND_BYTE[graph._left_kind[n]] for n in left)),
        array("q", right).tobytes(),
        bytes(bytearray(_NODE_KIND_BYTE[graph._right_kind[n]] for n in right)),
        array("q", ids).tobytes(),
        array("q", [eleft[i] for i in ids]).tobytes(),
        array("q", [eright[i] for i in ids]).tobytes(),
        bytes(bytearray(_EDGE_KIND_BYTE[ekind[i]] for i in ids)),
        weight_bytes,
        mask,
    ]
    message = bytearray(b"".join(parts))
    crc = zlib.crc32(message)
    message[_CRC_OFFSET : _CRC_OFFSET + _CRC_SIZE] = struct.pack("<I", crc)
    return bytes(message)


def _take_i64(data: memoryview, offset: int, count: int) -> tuple[list, int]:
    arr = array("q")
    end = offset + 8 * count
    arr.frombytes(data[offset:end])
    return arr.tolist(), end


def _expected_size(n_left: int, n_right: int, n_edges: int, flags: int) -> int:
    """Total message size implied by the header counts and flags."""
    size = _HEADER.size
    size += 9 * n_left  # ids (i64) + kinds (u8)
    size += 9 * n_right
    size += 25 * n_edges  # ids + lefts + rights (i64) + kinds (u8)
    size += 8 * n_edges  # weights (i64 or f64)
    if flags & _MIXED_WEIGHTS:
        size += n_edges  # int-restoration mask
    return size


def decode_graph(data: bytes) -> BipartiteGraph:
    """Inverse of :func:`encode_graph`.

    Every structural property is validated before use: magic, version,
    flags, the total length implied by the counts, a CRC-32 of the whole
    message, kind bytes, node-id uniqueness, edge-id ordering and limit
    and weight ranges.  The graph is then built in one pass by
    :meth:`BipartiteGraph._from_columns`, which checks edge-id sign,
    ``next_edge_id`` and endpoints.  Any corruption — truncation, bit
    flips, length mismatches — raises :class:`GraphError`.
    """
    if len(data) < _HEADER.size or data[:4] != _MAGIC:
        raise GraphError("not a KPBW wire-format graph")
    magic, version, flags, crc, n_left, n_right, n_edges, next_edge_id = (
        _HEADER.unpack_from(data)
    )
    del magic
    if version != _VERSION:
        raise GraphError(f"unsupported wire-format version {version}")
    if flags & ~(_INT_WEIGHTS | _MIXED_WEIGHTS):
        raise GraphError(f"unknown wire-format flags 0x{flags:02x}")
    if (flags & _INT_WEIGHTS) and (flags & _MIXED_WEIGHTS):
        raise GraphError("wire-format flags INT and MIXED are exclusive")
    expected = _expected_size(n_left, n_right, n_edges, flags)
    if len(data) > expected:
        raise GraphError(
            f"wire-format graph has {len(data) - expected} trailing bytes"
        )
    if len(data) < expected:
        raise GraphError(
            f"wire-format message truncated: header implies {expected} "
            f"bytes, got {len(data)}"
        )
    view = memoryview(data)
    actual = zlib.crc32(view[:_CRC_OFFSET])
    actual = zlib.crc32(bytes(_CRC_SIZE), actual)
    actual = zlib.crc32(view[_CRC_OFFSET + _CRC_SIZE :], actual)
    if actual != crc:
        raise GraphError("wire-format checksum mismatch (corrupted message)")

    off = _HEADER.size
    left, off = _take_i64(view, off, n_left)
    left_kinds = data[off : off + n_left]
    off += n_left
    right, off = _take_i64(view, off, n_right)
    right_kinds = data[off : off + n_right]
    off += n_right
    ids, off = _take_i64(view, off, n_edges)
    lefts, off = _take_i64(view, off, n_edges)
    rights, off = _take_i64(view, off, n_edges)
    edge_kinds = data[off : off + n_edges]
    off += n_edges
    weights: list[int | float]
    mask = b""
    if flags & _INT_WEIGHTS:
        weights, off = _take_i64(view, off, n_edges)
    else:
        warr = array("d")
        end = off + 8 * n_edges
        warr.frombytes(view[off:end])
        weights = warr.tolist()
        if flags & _MIXED_WEIGHTS:
            mask = data[end : end + n_edges]

    for kinds, what, valid in (
        (left_kinds, "left node", len(_NODE_KINDS)),
        (right_kinds, "right node", len(_NODE_KINDS)),
        (edge_kinds, "edge", len(_EDGE_KINDS)),
    ):
        if kinds and max(kinds) >= valid:
            bad = next(b for b in kinds if b >= valid)
            raise GraphError(f"invalid {what} kind byte {bad}")
    if not all(map(operator.lt, ids, ids[1:])):
        raise GraphError("wire-format edge ids are not strictly ascending")
    if next_edge_id > MAX_NEXT_EDGE_ID:
        raise GraphError(
            f"next_edge_id {next_edge_id} exceeds the wire-format limit "
            f"{MAX_NEXT_EDGE_ID}"
        )
    left_map = {node: _NODE_KINDS[b] for node, b in zip(left, left_kinds)}
    right_map = {node: _NODE_KINDS[b] for node, b in zip(right, right_kinds)}
    for side, nodes, node_map in (
        ("left", left, left_map), ("right", right, right_map)
    ):
        if len(node_map) != len(nodes):
            raise GraphError(f"wire-format graph repeats a {side} node id")
    if not all(map(math.isfinite, weights)):
        _raise_bad_weight(ids, weights)
    if mask:
        # The mask restores ints.  A value marked int must be one that
        # encode_graph would have sent: integral and within exact f64
        # range, so every sum of them still converts to float.
        for i, (weight, is_int) in enumerate(zip(weights, mask)):
            if is_int:
                if not weight.is_integer():
                    raise GraphError(
                        f"edge {ids[i]} has fractional wire weight "
                        f"{weight!r} marked int"
                    )
                if abs(weight) > _F64_EXACT:
                    raise GraphError(
                        f"edge {ids[i]} has wire weight {weight!r} marked "
                        f"int beyond exact f64 range"
                    )
                weights[i] = int(weight)
    if weights and not min(weights) > 0:
        _raise_bad_weight(ids, weights)
    return BipartiteGraph._from_columns(
        left_map, right_map, ids, lefts, rights, weights,
        [_EDGE_KINDS[b] for b in edge_kinds], next_edge_id,
    )


def _raise_bad_weight(ids: list[int], weights: list) -> None:
    """Raise for the first edge, in id order, whose weight is not positive
    and finite."""
    for edge_id, weight in zip(ids, weights):
        if not math.isfinite(weight):
            raise GraphError(f"edge {edge_id} has non-finite wire weight")
        if weight <= 0:
            raise GraphError(f"edge {edge_id} has non-positive wire weight")
    raise AssertionError("no bad weight")  # pragma: no cover - callers checked
