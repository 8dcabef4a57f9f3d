"""Binary wire framing for the serve tier (``binary1``).

JSON-lines stays the compatibility skin and the default: every frame on
a fresh connection is a JSON object terminated by ``\\n``.  A client
that wants the binary wire either

* sends ``{"op": "hello", "wire": "binary1"}`` as JSON and waits for
  the ack ``{"id": ..., "ok": true, "wire": "binary1"}`` (also JSON) —
  everything after the ack, in BOTH directions, is binary; a server
  that answers anything else (an old server's ``bad_request`` for the
  unknown op, or ``"wire": "json"``) leaves the connection on
  JSON-lines, which is the sanctioned downgrade; or
* opens with the magic byte ``0xAB`` — no JSON object can start with
  it, so a binary-capable server sniffs the first byte of a connection
  and switches immediately (a ``--wire json`` server closes instead).

Frame layout (all integers big-endian)::

    +------+------+----------+=================+
    | 0xAB | type | len: u32 | payload (len B) |
    +------+------+----------+=================+

Three frame types:

* ``0x01 DOC`` — one request/response document in the tag codec below.
  Semantically identical to one JSON line; every op travels this way
  unless a fast path applies.
* ``0x02 QREQ`` — query fast path, request direction: ``id: u64``,
  ``flags: u8`` (bit0 = ``via: "direct"``; bit1 is reserved: it
  carried the removed ``redirect`` query flag, and decoders ignore
  it), ``kind: u8`` (index into the unit-kind table), then the params dict
  in the tag codec.
* ``0x03 QRESP`` — query fast path, response direction: ``id: u64``,
  ``latency_s: f64``, ``served: u8`` (index into the served table),
  then the value in the tag codec.  The value blob is memoised by
  object identity on the sending side and by blob bytes on the
  receiving side — campaign values are content-addressed and immutable,
  so a hot key's value crosses the wire without re-encoding.

Tag codec (a msgpack-shaped subset closed over the JSON value domain;
``decode(encode(v)) == v`` exactly, including float bit patterns)::

    0xc0 null          0xc2 false          0xc3 true
    0xcb float: f64    0xd3 int: i64       0xd4 bigint: u32 len + signed bytes
    0xdb str: u32 len + utf8               0xdd list: u32 count + items
    0xdf dict: u32 count + sorted (str key, value) pairs

Dict keys are coerced exactly as ``json.dumps`` coerces them
(``True`` -> ``"true"``, ``3`` -> ``"3"``, ...) and sorted, so the
encoding is canonical: equal values yield equal bytes, which is what
makes the receive-side blob memo sound.

Error surface: a frame whose *header* is unusable (bad magic, length
over :data:`MAX_FRAME_LEN`) raises :class:`WireError` — the stream can
never resynchronise, the connection must close.  A frame whose header
parsed but whose *payload* is undecodable raises :class:`BadFrame` —
exactly ``len`` bytes were consumed, the stream is still framed, and
the server answers ``bad_request`` and keeps reading.

Version/compat rules: ``binary1`` is the only binary version.  A hello
offering anything else is acked with ``"wire": "json"`` (negotiate down
to the best both sides speak); unknown frame *types* under ``binary1``
are a :class:`BadFrame` (skippable), unknown codec *tags* likewise.
New frame types or tags mean a ``binary2`` hello, never a silent
reinterpretation of ``binary1`` bytes.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import struct
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Coroutine

WIRE_BINARY1 = "binary1"
WIRE_JSON = "json"

MAGIC = 0xAB
FRAME_DOC = 0x01
FRAME_QREQ = 0x02
FRAME_QRESP = 0x03

#: Hard per-frame payload bound; anything larger is a framing error
#: (campaign values are a few hundred bytes — 64 MiB is generous).
MAX_FRAME_LEN = 64 * 1024 * 1024

#: Bytes pulled from the socket per read in binary mode; several frames
#: usually arrive per chunk, so the per-frame await cost amortises.
READ_CHUNK = 65536

#: Write-buffer high-water mark of a served connection.  Answers are
#: written without waiting (:meth:`WireConnection.write_response`), so
#: a read loop calls :meth:`WireConnection.drain_if_full` after each
#: request and stops reading while a client that does not read holds
#: more than this many unsent bytes.  It is also the transport's pause
#: threshold (:meth:`WireConnection.limit_writes`), so ``drain()``
#: does wait once the mark is passed.
WRITE_HIGH_WATER = 64 * 1024

#: Unanswered requests at which a read loop stops reading: the mark
#: above bounds nothing for a burst read before any answer exists.  It
#: sits above the default ``queue_limit`` (256), so a one-connection
#: burst of misses still reaches admission control (``overloaded``).
MAX_UNANSWERED = 512

_HEADER = struct.Struct(">BBI")   # magic, frame type, payload length
_QREQ = struct.Struct(">QBB")     # id, flags, kind code
_QRESP = struct.Struct(">QdB")    # id, latency_s, served code

_QREQ_FLAG_DIRECT = 0x01

#: The queryable work-unit kinds (the campaign decomposition's own).
#: Their order is the QREQ kind-code table, so it is part of the
#: ``binary1`` wire contract: append-only.
UNIT_KINDS = ("sweep_base", "sweep_point", "fig6_point", "headline")

#: Kind/served tables for the fast-path frames.  Indexes are part of
#: the ``binary1`` wire contract: append-only.  Served code 3
#: (``"peer"``) is reserved: it named the removed cache peer-fill tier,
#: and no server sends it any more.
KIND_CODES = {kind: i for i, kind in enumerate(UNIT_KINDS)}
SERVED_ORDER = ("cache", "coalesced", "computed", "peer")
SERVED_CODES = {served: i for i, served in enumerate(SERVED_ORDER)}

#: The fields a query doc may carry and still take the QREQ fast path —
#: anything extra must travel as a DOC frame so no field is dropped.
_QREQ_FIELDS = frozenset(("op", "id", "kind", "params", "via"))

#: The job-tier ops (:mod:`repro.serve.jobs`); a router forwards them
#: to its job home.
JOB_OPS = ("submit", "status", "result", "cancel")

_U64_MAX = (1 << 64) - 1

_TAG_NIL = 0xC0
_TAG_FALSE = 0xC2
_TAG_TRUE = 0xC3
_TAG_FLOAT = 0xCB
_TAG_INT64 = 0xD3
_TAG_BIGINT = 0xD4
_TAG_STR = 0xDB
_TAG_LIST = 0xDD
_TAG_DICT = 0xDF

_U32 = struct.Struct(">I")
_TL = struct.Struct(">BI")   # tag + u32 length/count
_TF = struct.Struct(">Bd")   # tag + f64
_TI = struct.Struct(">Bq")   # tag + i64
_F64 = struct.Struct(">d")
_I64 = struct.Struct(">q")


class WireError(Exception):
    """Unrecoverable framing damage: the connection must close."""


class BadFrame(Exception):
    """One undecodable frame; the stream itself is still framed."""


def _coerce_key(key: Any) -> str:
    """Coerce a non-str dict key exactly as ``json.dumps`` would."""
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, (int, float)):
        return json.dumps(key)
    raise ValueError(f"key {key!r} is not JSON-serialisable")


def _enc(obj: Any, out: bytearray) -> None:
    if isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += _TL.pack(_TAG_STR, len(raw))
        out += raw
    elif obj is None:
        out.append(_TAG_NIL)
    elif obj is True:
        out.append(_TAG_TRUE)
    elif obj is False:
        out.append(_TAG_FALSE)
    elif isinstance(obj, float):
        out += _TF.pack(_TAG_FLOAT, obj)
    elif isinstance(obj, int):
        try:
            out += _TI.pack(_TAG_INT64, obj)
        except struct.error:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            out += _TL.pack(_TAG_BIGINT, len(raw))
            out += raw
    elif isinstance(obj, dict):
        items = sorted(
            (k if isinstance(k, str) else _coerce_key(k), v)
            for k, v in obj.items()
        )
        out += _TL.pack(_TAG_DICT, len(items))
        for key, value in items:
            raw = key.encode("utf-8")
            out += _TL.pack(_TAG_STR, len(raw))
            out += raw
            _enc(value, out)
    elif isinstance(obj, (list, tuple)):
        out += _TL.pack(_TAG_LIST, len(obj))
        for item in obj:
            _enc(item, out)
    else:
        raise ValueError(f"value {obj!r} is not JSON-serialisable")


def encode_value(obj: Any) -> bytes:
    """One value in the tag codec; raises ``ValueError`` off-domain."""
    out = bytearray()
    _enc(obj, out)
    return bytes(out)


def _dec(buf: bytes, off: int) -> tuple[Any, int]:
    tag = buf[off]
    off += 1
    if tag == _TAG_STR:
        (n,) = _U32.unpack_from(buf, off)
        off += 4
        end = off + n
        if end > len(buf):
            raise ValueError("truncated string")
        return buf[off:end].decode("utf-8"), end
    if tag == _TAG_FLOAT:
        (value,) = _F64.unpack_from(buf, off)
        return value, off + 8
    if tag == _TAG_INT64:
        (value,) = _I64.unpack_from(buf, off)
        return value, off + 8
    if tag == _TAG_DICT:
        (count,) = _U32.unpack_from(buf, off)
        off += 4
        if count * 2 > len(buf) - off:
            raise ValueError("dict count exceeds payload")
        doc = {}
        for _ in range(count):
            key, off = _dec(buf, off)
            if not isinstance(key, str):
                raise ValueError("non-string dict key on the wire")
            doc[key], off = _dec(buf, off)
        return doc, off
    if tag == _TAG_LIST:
        (count,) = _U32.unpack_from(buf, off)
        off += 4
        if count > len(buf) - off:
            raise ValueError("list count exceeds payload")
        items = []
        for _ in range(count):
            item, off = _dec(buf, off)
            items.append(item)
        return items, off
    if tag == _TAG_NIL:
        return None, off
    if tag == _TAG_TRUE:
        return True, off
    if tag == _TAG_FALSE:
        return False, off
    if tag == _TAG_BIGINT:
        (n,) = _U32.unpack_from(buf, off)
        off += 4
        end = off + n
        if end > len(buf):
            raise ValueError("truncated bigint")
        return int.from_bytes(buf[off:end], "big", signed=True), end
    raise ValueError(f"unknown tag 0x{tag:02x}")


def decode_value(buf: bytes) -> Any:
    """Inverse of :func:`encode_value`; raises ``ValueError`` on any
    malformed or trailing bytes."""
    try:
        value, off = _dec(buf, 0)
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed payload: {exc}") from exc
    if off != len(buf):
        raise ValueError(f"{len(buf) - off} trailing byte(s) after value")
    return value


class EncodeMemo:
    """Encoded-blob cache keyed by object *identity*.

    The serve tier's values are content-addressed and treated as
    immutable, and hot values are stable objects (the front end's hot
    memo), so ``id(value)`` is a sound key as
    long as the entry pins the object alive — a strong reference in the
    entry guarantees the id cannot be recycled, and the stored object
    is identity-checked on every hit anyway.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[int, tuple[Any, bytes]] = OrderedDict()

    def encode(self, value: Any) -> bytes:
        key = id(value)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is value:
            self._entries.move_to_end(key)
            return entry[1]
        blob = encode_value(value)
        self._entries[key] = (value, blob)
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return blob


class DecodeMemo:
    """Decoded-value cache keyed by blob bytes.

    The codec is canonical (sorted keys, single representation per
    value), so equal bytes decode to equal values; callers must treat
    returned objects as immutable — the same object is handed to every
    request carrying the same blob.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[bytes, Any] = OrderedDict()

    def decode(self, blob: bytes) -> Any:
        hit = self._entries.get(blob, _MISS)
        if hit is not _MISS:
            self._entries.move_to_end(blob)
            return hit
        value = decode_value(blob)
        self._entries[blob] = value
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return value


_MISS = object()


def encode_doc_frame(doc: dict[str, Any]) -> bytes:
    payload = encode_value(doc)
    if len(payload) > MAX_FRAME_LEN:
        raise ValueError(f"frame payload {len(payload)} B over the cap")
    return _HEADER.pack(MAGIC, FRAME_DOC, len(payload)) + payload


def _is_frame_id(rid: Any) -> bool:
    return type(rid) is int and 0 <= rid <= _U64_MAX


def decode_frame(
    ftype: int, payload: bytes, decode_memo: DecodeMemo
) -> dict[str, Any]:
    """One frame's payload back into its request/response document.

    Raises :class:`BadFrame` on any payload-level damage — the caller
    consumed exactly the framed length, so the stream stays usable.
    """
    try:
        if ftype == FRAME_DOC:
            doc = decode_value(payload)
            if not isinstance(doc, dict):
                raise ValueError("frame is not a document")
            return doc
        if ftype == FRAME_QREQ:
            rid, flags, kcode = _QREQ.unpack_from(payload)
            if kcode >= len(UNIT_KINDS):
                raise ValueError(f"unknown kind code {kcode}")
            params = decode_memo.decode(payload[_QREQ.size:])
            if not isinstance(params, dict):
                raise ValueError("QREQ params is not an object")
            req: dict[str, Any] = {
                "op": "query", "id": rid,
                "kind": UNIT_KINDS[kcode], "params": params,
            }
            if flags & _QREQ_FLAG_DIRECT:
                req["via"] = "direct"
            return req
        if ftype == FRAME_QRESP:
            rid, latency_s, scode = _QRESP.unpack_from(payload)
            if scode >= len(SERVED_ORDER):
                raise ValueError(f"unknown served code {scode}")
            value = decode_memo.decode(payload[_QRESP.size:])
            return {
                "id": rid, "ok": True, "value": value,
                "served": SERVED_ORDER[scode], "latency_s": latency_s,
            }
        raise ValueError(f"unknown frame type 0x{ftype:02x}")
    except (ValueError, struct.error) as exc:
        raise BadFrame(str(exc)) from None


class WireConnection:
    """One connection's mode-aware codec state, wrapped around an
    asyncio stream pair.

    Starts in JSON-lines mode; :meth:`negotiate` (client side) or a
    sniffed magic byte / hello ack (server side, driven by the caller)
    flips it to binary.  ``allow_binary=False`` makes :meth:`recv`
    never sniff — for servers that speak JSON only, and for client
    links whose mode is set explicitly after negotiation.

    Every write chooses its framing and puts its bytes in the transport
    buffer in one synchronous step, and the hello ack flips the mode in
    the same step as its own bytes: so a frame's framing always matches
    its place in the byte stream, with no lock and no await in between.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        allow_binary: bool = True,
        encode_memo: EncodeMemo | None = None,
        decode_memo: DecodeMemo | None = None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.allow_binary = allow_binary
        self.binary = False
        self.encode_memo = encode_memo if encode_memo is not None else EncodeMemo()
        self.decode_memo = decode_memo if decode_memo is not None else DecodeMemo()
        self._buf = bytearray()
        self._pos = 0  # consumed prefix of _buf (compacted lazily)
        self._sniffed = False
        self._first: bytes | None = None

    @property
    def wire(self) -> str:
        return WIRE_BINARY1 if self.binary else WIRE_JSON

    # -- receiving ---------------------------------------------------------
    async def recv(self) -> dict[str, Any] | None:
        """The next request/response document, or ``None`` on EOF.

        Raises :class:`BadFrame` for one undecodable frame (stream
        still framed — answer ``bad_request`` and keep reading) and
        :class:`WireError` when the stream can no longer be trusted.
        """
        if self.binary:
            return await self._recv_binary()
        if self.allow_binary and not self._sniffed:
            # Sniff exactly the connection's first byte: a blind-binary
            # client's opening magic, or the start of a JSON line.
            self._sniffed = True
            try:
                first = await self.reader.readexactly(1)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return None
            if first[0] == MAGIC:
                self.binary = True
                self._buf += first
                return await self._recv_binary()
            self._first = first
        while True:
            if self._first is not None:
                prefix, self._first = self._first, None
                line = prefix + (
                    await self.reader.readline() if prefix != b"\n" else b""
                )
            else:
                line = await self.reader.readline()
            if not line:
                return None
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                raise BadFrame("not a JSON object") from None
            if not isinstance(doc, dict):
                raise BadFrame("not a JSON object")
            return doc

    async def _recv_binary(self) -> dict[str, Any] | None:
        # The consumed prefix is tracked by offset and compacted only
        # when the buffer runs dry: deleting per frame would memmove
        # the whole remainder for every ~30-byte frame, going quadratic
        # exactly when a burst piles frames up.
        buf = self._buf
        while True:
            pos = self._pos
            if len(buf) - pos >= _HEADER.size:
                magic, ftype, length = _HEADER.unpack_from(buf, pos)
                if magic != MAGIC:
                    raise WireError(f"bad frame magic 0x{magic:02x}")
                if length > MAX_FRAME_LEN:
                    raise WireError(f"frame length {length} over the cap")
                end = pos + _HEADER.size + length
                if len(buf) >= end:
                    payload = bytes(buf[pos + _HEADER.size:end])
                    if end == len(buf):
                        del buf[:]  # cheap reset, no tail to move
                        self._pos = 0
                    else:
                        self._pos = end
                    return self._decode_frame(ftype, payload)
            if self._pos:
                del buf[:self._pos]
                self._pos = 0
            chunk = await self.reader.read(READ_CHUNK)
            if not chunk:
                return None  # EOF (mid-frame or between frames alike)
            buf += chunk

    def has_input(self) -> bool:
        """Whether :meth:`recv` may return without waiting on the loop:
        input is already buffered (stream readers have no public peek)."""
        return len(self._buf) > self._pos or bool(self.reader._buffer)

    def _decode_frame(self, ftype: int, payload: bytes) -> dict[str, Any]:
        return decode_frame(ftype, payload, self.decode_memo)

    # -- sending -----------------------------------------------------------
    def _request_bytes(self, doc: dict[str, Any]) -> bytes:
        """Encode one outbound request, fast-pathing eligible queries."""
        if (
            self.binary
            and doc.get("op") == "query"
            and _is_frame_id(doc.get("id"))
            and doc.get("kind") in KIND_CODES
            and isinstance(doc.get("params"), dict)
            and doc.get("via") in (None, "direct")
            and _QREQ_FIELDS.issuperset(doc)
        ):
            flags = _QREQ_FLAG_DIRECT if doc.get("via") == "direct" else 0
            blob = self.encode_memo.encode(doc["params"])
            return (
                _HEADER.pack(MAGIC, FRAME_QREQ, _QREQ.size + len(blob))
                + _QREQ.pack(doc["id"], flags, KIND_CODES[doc["kind"]])
                + blob
            )
        return self._doc_bytes(doc)

    def _doc_bytes(self, doc: dict[str, Any]) -> bytes:
        """One document in the connection's current framing."""
        if self.binary:
            return encode_doc_frame(doc)
        return (json.dumps(doc, sort_keys=True) + "\n").encode()

    def write_request(self, doc: dict[str, Any]) -> None:
        """Synchronous buffered write (no drain) — for senders that
        manage their own flow control, like the multiplexed links."""
        self.writer.write(self._request_bytes(doc))

    def write_query_response(
        self, rid: Any, value: Any, served: str, latency_s: float
    ) -> None:
        """A query's success response, buffered without waiting; the
        QRESP fast path when eligible."""
        scode = SERVED_CODES.get(served)
        if self.binary and scode is not None and _is_frame_id(rid):
            blob = self.encode_memo.encode(value)
            self.writer.write(
                _HEADER.pack(MAGIC, FRAME_QRESP, _QRESP.size + len(blob))
                + _QRESP.pack(rid, latency_s, scode)
                + blob
            )
            return
        self.writer.write(self._doc_bytes({
            "id": rid, "ok": True, "value": value,
            "served": served, "latency_s": latency_s,
        }))

    def write_response(self, doc: dict[str, Any]) -> None:
        """A response document of any shape, buffered without waiting:
        the answer path of a read loop, which applies flow control
        itself (:meth:`drain_if_full`).  Query successes take the fast
        path (the router's proxy re-framing uses this).  A connection
        already closing drops the answer: its client has gone."""
        if self.writer.is_closing():
            return
        if (
            self.binary
            and doc.get("ok") is True
            and len(doc) == 5
            and "value" in doc
            and "served" in doc
            and isinstance(doc.get("latency_s"), float)
        ):
            self.write_query_response(
                doc.get("id"), doc["value"], doc["served"], doc["latency_s"]
            )
            return
        self.writer.write(self._doc_bytes(doc))

    async def drain(self) -> None:
        await self.writer.drain()

    def limit_writes(self) -> None:
        """Pause the transport at :data:`WRITE_HIGH_WATER`, so that
        :meth:`drain_if_full` waits exactly when the mark is passed."""
        self.writer.transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)

    async def drain_if_full(self) -> None:
        """Wait for the client only while more than
        :data:`WRITE_HIGH_WATER` bytes are unsent."""
        if self.writer.transport.get_write_buffer_size() > WRITE_HIGH_WATER:
            await self.writer.drain()

    async def send(self, doc: dict[str, Any]) -> None:
        """One document, whole-frame atomic, flow-controlled."""
        self.writer.write(self._doc_bytes(doc))
        await self.writer.drain()

    async def send_hello_ack(self, doc: dict[str, Any], enable: bool) -> None:
        """The hello ack goes out in the framing the hello came in, and
        when it enables binary it is the LAST JSON frame of the
        connection: the mode flips in the same step that buffers the
        ack, so any response written after it, even while the ack
        still drains, is binary."""
        self.writer.write(self._doc_bytes(doc))
        if enable:
            self.binary = True
        await self.writer.drain()

    # -- client-side negotiation -------------------------------------------
    async def negotiate(self) -> bool:
        """Offer ``binary1`` (one JSON hello, one JSON ack) and flip to
        binary if the peer agreed.  Returns whether binary is on; a
        refusal of any shape (``bad_request`` from a pre-hello server,
        ``"wire": "json"``) is the clean downgrade, not an error.  Must
        run before the connection carries any other traffic."""
        self.writer.write(HELLO_LINE)
        await self.writer.drain()
        self.binary = hello_accepted(await self.reader.readline())
        return self.binary


#: A client's hello: one JSON line offering ``binary1``.
HELLO_LINE = (
    json.dumps({"op": "hello", "id": 0, "wire": WIRE_BINARY1}) + "\n"
).encode()


def hello_accepted(line: bytes) -> bool:
    """Whether the hello ack ``line`` switches the connection to
    ``binary1``.  Raises ``ConnectionError`` on EOF or an ack that is
    not JSON."""
    if not line:
        raise ConnectionError("connection closed during wire negotiation")
    try:
        ack = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConnectionError(f"malformed hello ack: {line!r}") from exc
    return (
        isinstance(ack, dict)
        and bool(ack.get("ok"))
        and ack.get("wire") == WIRE_BINARY1
    )


# -- the served side: one connection loop for every endpoint ----------------

class Unanswered:
    """One served connection's accepted requests still awaiting their
    answer.  The read loop stops reading at :data:`MAX_UNANSWERED` and
    closes the connection only once none is left.  A request is
    counted by :meth:`add` and :meth:`done` (the router's forwards,
    answered from a backend link's read loop) or by :meth:`spawn` (the
    server's funnel queries, one task each)."""

    __slots__ = ("count", "tasks", "_below", "_waiter")

    def __init__(self) -> None:
        self.count = 0
        self.tasks: set[asyncio.Task] = set()
        self._below = 0
        self._waiter: asyncio.Future | None = None

    def add(self) -> None:
        self.count += 1

    def done(self) -> None:
        self.count -= 1
        waiter = self._waiter
        if waiter is not None and self.count < self._below:
            if not waiter.done():
                waiter.set_result(None)

    def spawn(self, coro: Coroutine[Any, Any, None]) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self.tasks.add(task)
        self.count += 1
        task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        self.tasks.discard(task)
        if not task.cancelled():
            task.exception()  # an answer task reports its own failures
        self.done()

    async def wait_below(self, limit: int) -> None:
        """Return once fewer than ``limit`` requests await an answer."""
        if self.count >= limit:
            self._below = limit
            self._waiter = asyncio.get_running_loop().create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None


#: An op handler: ``(id, request) -> response doc``.
OpHandler = Callable[[Any, dict[str, Any]], Awaitable[dict[str, Any]]]


class WireEndpoint:
    """The serving skin that :class:`~repro.serve.server.ServeServer`
    and :class:`~repro.serve.router.ServeRouter` share: one listening
    socket and one read loop per connection.

    The loop owns what is the same on both: a bad frame is answered
    ``bad_request`` and reading goes on, broken framing drops the
    connection; ``hello``, ``ping``, ``shutdown`` and unknown ops; the
    :data:`MAX_UNANSWERED` stop and write-buffer flow control; and
    answering every accepted request before the connection closes.  A
    subclass supplies the rest:

    * :meth:`_query` — a ``query`` is the loop's first test and, once
      its ``kind`` and ``params`` are typed right, is handed over
      without dispatch or task;
    * ``self._ops`` — every other op it serves, by name (it starts
      with ``locate``);
    * ``self.backends``, ``self.epoch`` and :meth:`_home_of`, the
      topology ``locate`` answers from: a bare server is a one-backend
      topology;
    * :meth:`_drain` — the shutdown drain.
    """

    def __init__(
        self,
        host: str,
        port: int,
        binary_wire: bool,
        client_decode: DecodeMemo | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.binary_wire = binary_wire
        self.backends: list[tuple[str, str, int]] = []
        self.epoch = ""
        self.located = 0  #: locate ops answered
        # Response-value blobs are memoised per endpoint, not per
        # connection: the hot set is shared, so every connection
        # reuses the same encodings.
        self._client_encode = EncodeMemo()
        self._client_decode = client_decode
        self._ops: dict[str, OpHandler] = {"locate": self._answer_locate}
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op arrives, then stop accepting,
        :meth:`_drain`, and close every straggler connection."""
        assert self._server is not None, "start() first"
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        await self._drain()
        for task in list(self._conn_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    async def _drain(self) -> None:
        raise NotImplementedError

    def _query(
        self,
        conn: WireConnection,
        rid: Any,
        req: dict[str, Any],
        unanswered: Unanswered,
    ) -> Awaitable[None] | None:
        """Answer ``req``, or start answering it and count it in
        ``unanswered``; an awaitable return is awaited before the loop
        reads on."""
        raise NotImplementedError

    def _home_of(self, kind: str, params: dict[str, Any]) -> str:
        """The backend name owning the key ``(kind, params)``."""
        raise NotImplementedError

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        conn = WireConnection(
            reader, writer,
            allow_binary=self.binary_wire,
            encode_memo=self._client_encode,
            decode_memo=self._client_decode,
        )
        conn.limit_writes()
        unanswered = Unanswered()
        try:
            while True:
                try:
                    req = await conn.recv()
                except BadFrame as exc:
                    # One bad frame, a still-framed stream: answer and
                    # keep reading — a wedged read loop would be worse
                    # than the malformed request.
                    await self._send(
                        conn,
                        {"id": None, "ok": False, "error": "bad_request",
                         "detail": str(exc)},
                    )
                    continue
                except WireError:
                    break  # framing broken beyond resync: drop the link
                if req is None:
                    break
                op = req.get("op")
                rid = req.get("id")
                if op == "query":
                    if not isinstance(req.get("kind"), str) or not isinstance(
                        req.get("params"), dict
                    ):
                        conn.write_response(
                            {"id": rid, "ok": False, "error": "bad_request",
                             "detail": "query needs a string 'kind' and "
                             "object 'params'"},
                        )
                    else:
                        waiting = self._query(conn, rid, req, unanswered)
                        if waiting is not None:
                            await waiting
                    # Answers are buffered without waiting: stop reading
                    # while this client holds too many unanswered
                    # requests or too many unsent answers.
                    if unanswered.count >= MAX_UNANSWERED:
                        await unanswered.wait_below(MAX_UNANSWERED)
                    await conn.drain_if_full()
                    continue
                handler = self._ops.get(op)
                if handler is not None:
                    await self._send(conn, await handler(rid, req))
                elif op == "ping":
                    await self._send(conn, {"id": rid, "ok": True})
                elif op == "hello" and self.binary_wire:
                    # An offer we cannot speak is acked "json": negotiate
                    # down, never error.  A binary connection stays
                    # binary, so its ack names binary1 whatever the offer.
                    enable = conn.binary or req.get("wire") == WIRE_BINARY1
                    ack = {"id": rid, "ok": True,
                           "wire": WIRE_BINARY1 if enable else WIRE_JSON}
                    try:
                        await conn.send_hello_ack(
                            ack, enable and not conn.binary
                        )
                    except (ConnectionResetError, BrokenPipeError):
                        break
                elif op == "shutdown":
                    await self._send(conn, {"id": rid, "ok": True})
                    self.request_shutdown()
                else:
                    # With binary_wire off, "hello" lands here too: that
                    # bad_request IS the downgrade signal binary-
                    # preferring clients key off.
                    await self._send(
                        conn,
                        {"id": rid, "ok": False, "error": "bad_request",
                         "detail": f"unknown op {op!r}"},
                    )
            # Answer what was read before EOF, then close.
            await unanswered.wait_below(1)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels straggler connections after the drain.
            # Every accepted request is resolved by then, but its answer
            # may not be written yet — flush those before closing, so
            # "drained" means none dropped at the transport either.
            # (Finishing normally also keeps asyncio's streams helper
            # from logging the cancellation as a connection error.)
            await unanswered.wait_below(1)
        finally:
            for sub in unanswered.tasks:
                sub.cancel()
            self._conn_tasks.discard(task)
            writer.close()
            # CancelledError here is the close-waiter future dying when
            # a peer link drops mid-teardown, not task cancellation —
            # and this handler finishes normally on cancellation anyway
            # (see the except clause above).
            with contextlib.suppress(
                ConnectionResetError, BrokenPipeError, OSError,
                asyncio.CancelledError,
            ):
                await writer.wait_closed()

    async def _answer_locate(
        self, rid: Any, req: dict[str, Any]
    ) -> dict[str, Any]:
        """``locate``: the full topology and its epoch, plus — when the
        request names a key — that key's home backend.  Answered from
        the topology alone, with no backend round trip."""
        kind = req.get("kind")
        params = req.get("params")
        doc: dict[str, Any] = {
            "id": rid, "ok": True, "epoch": self.epoch,
            "backends": {
                name: [host, port] for name, host, port in self.backends
            },
        }
        if kind is not None or params is not None:
            if not isinstance(kind, str) or not isinstance(params, dict):
                return {"id": rid, "ok": False, "error": "bad_request",
                        "detail": "locate needs a string 'kind' and "
                        "object 'params' (or neither)"}
            home = self._home_of(kind, params)
            host, port = next(
                (h, p) for name, h, p in self.backends if name == home
            )
            doc.update(backend=home, host=host, port=port)
        self.located += 1
        return doc

    @staticmethod
    async def _send(conn: WireConnection, doc: dict[str, Any]) -> None:
        try:
            await conn.send(doc)
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client went away


# -- synchronous one-shot client helpers ------------------------------------

class SyncWireClient:
    """Blocking-socket counterpart of :class:`WireConnection` for the
    one-shot client (:func:`repro.serve.client.request_once`): one
    buffered reader shared by the JSON and binary paths, so the hello
    ack and the binary frames that follow never fight over buffering.
    """

    def __init__(self, sock: Any) -> None:
        self.sock = sock
        self.binary = False
        self._buf = bytearray()

    def _fill(self) -> bool:
        chunk = self.sock.recv(READ_CHUNK)
        if not chunk:
            return False
        self._buf += chunk
        return True

    def readline(self) -> bytes:
        while b"\n" not in self._buf:
            if not self._fill():
                break
        idx = self._buf.find(b"\n")
        if idx < 0:
            line, self._buf = bytes(self._buf), bytearray()
            return line
        line = bytes(self._buf[: idx + 1])
        del self._buf[: idx + 1]
        return line

    def negotiate(self) -> bool:
        self.sock.sendall(HELLO_LINE)
        self.binary = hello_accepted(self.readline())
        return self.binary

    def request(self, doc: dict[str, Any]) -> dict[str, Any]:
        if self.binary:
            self.sock.sendall(encode_doc_frame(doc))
            return self._read_frame()
        self.sock.sendall((json.dumps(doc) + "\n").encode())
        line = self.readline()
        if not line:
            raise ConnectionError("server closed the connection mid-request")
        resp = json.loads(line)
        if not isinstance(resp, dict):
            raise ValueError(f"malformed response: {line!r}")
        return resp

    def _read_frame(self) -> dict[str, Any]:
        while True:
            if len(self._buf) >= _HEADER.size:
                magic, ftype, length = _HEADER.unpack_from(self._buf)
                if magic != MAGIC:
                    raise ConnectionError(f"bad frame magic 0x{magic:02x}")
                if length > MAX_FRAME_LEN:
                    raise ConnectionError(f"frame length {length} over the cap")
                end = _HEADER.size + length
                if len(self._buf) >= end:
                    payload = bytes(self._buf[_HEADER.size:end])
                    del self._buf[:end]
                    return decode_frame(ftype, payload, DecodeMemo(max_entries=8))
            if not self._fill():
                raise ConnectionError("server closed the connection mid-frame")
