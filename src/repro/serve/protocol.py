"""KPBR — the request/response framing of the ``kpbs serve`` daemon.

Layered on the KPBW v2 conventions (:mod:`repro.parallel.wire`): a
fixed little-endian header carrying magic, version, frame type and a
CRC-32 computed over the whole frame with the checksum field zeroed,
lengths validated *before* any payload is trusted.  A frame carries a
JSON document (the request/response fields) plus an optional binary
blob (KPBW-encoded graphs ride here, so a graph never round-trips
through JSON)::

    offset  size  field
    0       4     magic  b"KPBR"
    4       1     version (currently 1)
    5       1     frame type (1=request, 2=response, 3=error)
    6       2     padding (zero)
    8       4     CRC-32 of the frame with this field zeroed
    12      4     JSON document length in bytes
    16      4     blob length in bytes
    20      ...   JSON document (UTF-8), then the blob

Every decode failure raises :class:`ProtocolError` — the daemon answers
it with a structured error frame and closes the connection (after a
framing error the stream offset can no longer be trusted), it never
crashes or hangs.  The async reader enforces a per-read timeout so a
slow-loris client that trickles half a header holds a connection, not
the daemon.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from typing import BinaryIO

from repro.util.errors import ReproError

__all__ = [
    "KPBR_MAGIC",
    "KPBR_VERSION",
    "FRAME_REQUEST",
    "FRAME_RESPONSE",
    "FRAME_ERROR",
    "DEFAULT_MAX_PAYLOAD",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "send_frame",
    "recv_frame",
    "ok_response",
    "error_response",
    "retry_response",
]

KPBR_MAGIC = b"KPBR"
KPBR_VERSION = 1

FRAME_REQUEST = 1
FRAME_RESPONSE = 2
FRAME_ERROR = 3
_FRAME_TYPES = (FRAME_REQUEST, FRAME_RESPONSE, FRAME_ERROR)

#: magic | version u8 | frame type u8 | pad u16 | crc32 u32 |
#: json length u32 | blob length u32
_HEADER = struct.Struct("<4sBBxxIII")
_CRC_OFFSET = 8
_ZERO_CRC = bytes(4)

#: Compact separators; keys keep the order the document was built in.
_JSON = json.JSONEncoder(separators=(",", ":"))

#: Upper bound on json + blob bytes per frame.  Large enough for a
#: KPBW-encoded graph with tens of thousands of edges, small enough
#: that a hostile length field cannot make the daemon allocate gigabytes.
DEFAULT_MAX_PAYLOAD = 64 * 1024 * 1024


class ProtocolError(ReproError):
    """A malformed, truncated, oversized, or corrupt KPBR frame."""


def encode_frame(frame_type: int, doc: dict, blob: bytes = b"") -> bytes:
    """Serialize one KPBR frame (header + JSON document + blob).

    The document's keys go out in its own order: every document the
    daemon and the client send is built in a fixed key order.
    """
    if frame_type not in _FRAME_TYPES:
        raise ProtocolError(f"unknown KPBR frame type {frame_type}")
    json_bytes = _JSON.encode(doc).encode()
    header = bytearray(
        _HEADER.pack(
            KPBR_MAGIC, KPBR_VERSION, frame_type, 0, len(json_bytes), len(blob)
        )
    )
    crc = zlib.crc32(blob, zlib.crc32(json_bytes, zlib.crc32(header)))
    struct.pack_into("<I", header, _CRC_OFFSET, crc)
    return b"".join((header, json_bytes, blob))


def _parse_header(
    header: bytes, max_payload: int
) -> tuple[int, int, int, int]:
    """Validate a header; returns ``(frame_type, crc, json_len, blob_len)``."""
    magic, version, frame_type, crc, json_len, blob_len = _HEADER.unpack(header)
    if magic != KPBR_MAGIC:
        raise ProtocolError(f"bad KPBR magic {magic!r}")
    if version != KPBR_VERSION:
        raise ProtocolError(
            f"unsupported KPBR version {version} (this build speaks "
            f"{KPBR_VERSION})"
        )
    if frame_type not in _FRAME_TYPES:
        raise ProtocolError(f"unknown KPBR frame type {frame_type}")
    if json_len + blob_len > max_payload:
        raise ProtocolError(
            f"KPBR frame payload {json_len + blob_len} bytes exceeds the "
            f"{max_payload}-byte limit"
        )
    return frame_type, crc, json_len, blob_len


def _verify_and_decode(
    header: bytes, payload: bytes, frame_type: int, crc: int, json_len: int
) -> tuple[int, dict, bytes]:
    # The CRC runs over the header (checksum field zeroed) and then the
    # payload in place, and the JSON is decoded from a view of it: the
    # payload is never copied whole.
    actual = zlib.crc32(header[:_CRC_OFFSET])
    actual = zlib.crc32(_ZERO_CRC, actual)
    actual = zlib.crc32(header[_CRC_OFFSET + len(_ZERO_CRC) :], actual)
    actual = zlib.crc32(payload, actual)
    if actual != crc:
        raise ProtocolError(
            f"KPBR frame CRC mismatch (stored {crc:#010x}, computed "
            f"{actual:#010x})"
        )
    try:
        doc = json.loads(str(memoryview(payload)[:json_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"KPBR frame carries invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"KPBR document must be a JSON object, got {type(doc).__name__}"
        )
    return frame_type, doc, bytes(payload[json_len:])


def decode_frame(
    data: bytes, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> tuple[int, dict, bytes]:
    """Decode one complete frame; inverse of :func:`encode_frame`."""
    if len(data) < _HEADER.size:
        raise ProtocolError(
            f"KPBR frame truncated: {len(data)} bytes < {_HEADER.size}-byte "
            "header"
        )
    header = data[: _HEADER.size]
    frame_type, crc, json_len, blob_len = _parse_header(header, max_payload)
    payload = memoryview(data)[_HEADER.size :]
    if len(payload) != json_len + blob_len:
        raise ProtocolError(
            f"KPBR frame payload truncated: have {len(payload)} bytes, "
            f"header promises {json_len + blob_len}"
        )
    return _verify_and_decode(header, payload, frame_type, crc, json_len)


async def _read_exactly(
    reader: asyncio.StreamReader, n: int, timeout: float | None
) -> bytes:
    try:
        if timeout is None:
            return await reader.readexactly(n)
        return await asyncio.wait_for(reader.readexactly(n), timeout)
    except asyncio.TimeoutError:
        raise ProtocolError(
            f"timed out after {timeout}s waiting for {n} frame bytes"
        ) from None


async def read_frame(
    reader: asyncio.StreamReader,
    max_payload: int = DEFAULT_MAX_PAYLOAD,
    timeout: float | None = None,
) -> tuple[int, dict, bytes] | None:
    """Read one frame from an asyncio stream.

    Returns ``None`` on a clean EOF at a frame boundary (client hung
    up between requests); raises :class:`ProtocolError` on EOF inside a
    frame, corruption, or a per-read ``timeout`` expiring (the
    slow-loris guard — a stalled read must not pin a handler forever).
    """
    try:
        header = await _read_exactly(reader, _HEADER.size, timeout)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)} of "
            f"{_HEADER.size} bytes)"
        ) from exc
    frame_type, crc, json_len, blob_len = _parse_header(header, max_payload)
    try:
        payload = await _read_exactly(reader, json_len + blob_len, timeout)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-payload ({len(exc.partial)} of "
            f"{json_len + blob_len} bytes)"
        ) from exc
    return _verify_and_decode(header, payload, frame_type, crc, json_len)


def send_frame(
    stream: BinaryIO, frame_type: int, doc: dict, blob: bytes = b""
) -> None:
    """Write one frame to a blocking binary stream and flush it."""
    stream.write(encode_frame(frame_type, doc, blob))
    stream.flush()


def recv_frame(
    stream: BinaryIO, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> tuple[int, dict, bytes] | None:
    """Blocking counterpart of :func:`read_frame` (for the sync client)."""
    header = stream.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ProtocolError(
            f"connection closed mid-header ({len(header)} of "
            f"{_HEADER.size} bytes)"
        )
    frame_type, crc, json_len, blob_len = _parse_header(header, max_payload)
    payload = b""
    want = json_len + blob_len
    while len(payload) < want:
        chunk = stream.read(want - len(payload))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-payload ({len(payload)} of "
                f"{want} bytes)"
            )
        payload += chunk
    return _verify_and_decode(header, payload, frame_type, crc, json_len)


# -- response document conventions --------------------------------------

def ok_response(**fields: object) -> dict:
    """A success document: ``{"status": "ok", ...}``."""
    return {"status": "ok", **fields}


def error_response(code: str, detail: str, **fields: object) -> dict:
    """A structured error document (sent in a ``FRAME_ERROR`` frame)."""
    return {"status": "error", "code": code, "detail": detail, **fields}


def retry_response(retry_after: float, reason: str, **fields: object) -> dict:
    """A load-shed document: come back in ``retry_after`` seconds."""
    return {
        "status": "retry",
        "code": "RETRY_AFTER",
        "retry_after": round(float(retry_after), 6),
        "reason": reason,
        **fields,
    }
