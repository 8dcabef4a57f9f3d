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
over :data:`MAX_FRAME_LEN`), or a JSON line longer than that cap,
raises :class:`WireError` — the stream can never resynchronise, the
connection must close.  A frame whose header parsed but whose
*payload* is undecodable, or a JSON line that is not an object, raises
:class:`BadFrame` — exactly that frame was consumed, the stream is
still framed, and the server answers ``bad_request`` and keeps reading.

Transport: every reader of this wire parses through one sans-IO
:class:`FrameParser`.  Servers and routers serve each connection from
an ``asyncio.BufferedProtocol`` (:class:`ServedConnection`, driven by
:class:`WireEndpoint`) that reads into one reused buffer per connection
and dispatches every complete request in the ``buffer_updated``
callback that read it: a request answered on the read path costs one
event-loop turn.  Clients read through
:meth:`WireConnection.recv` over a stream pair, or
:class:`SyncWireClient` over a blocking socket.

Version/compat rules: ``binary1`` is the only binary version.  A hello
offering anything else is acked with ``"wire": "json"`` (negotiate down
to the best both sides speak); unknown frame *types* under ``binary1``
are a :class:`BadFrame` (skippable), unknown codec *tags* likewise.
New frame types or tags mean a ``binary2`` hello, never a silent
reinterpretation of ``binary1`` bytes.
"""

from __future__ import annotations

import asyncio
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

#: Bytes a stream or socket client asks for per read; several frames
#: usually arrive per chunk, so the per-frame await cost amortises.
READ_CHUNK = 65536

#: Write-buffer high-water mark of a served connection and a backend
#: link.  Answers are written without waiting
#: (:meth:`WireConnection.write_response`); past this many unsent bytes
#: the transport calls ``pause_writing``, and a served connection stops
#: reading until its client has read enough of them.
WRITE_HIGH_WATER = 64 * 1024

#: Unanswered requests at which a connection stops reading: the mark
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

#: The job-tier ops (:mod:`repro.serve.jobs`).  An endpoint with no
#: handler for them (a ``--no-jobs`` server, the router) answers each
#: with a ``bad_request``.
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
    except (IndexError, struct.error, UnicodeError, RecursionError) as exc:
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


class FrameParser:
    """The one frame reader of the serve tier, sans-IO: every served
    connection, backend link and client parses its input here.

    :meth:`feed` takes bytes as they arrive, in chunks of any size;
    :meth:`next` returns one complete document at a time, or ``None``
    until more bytes are fed.  One document at a time is what lets a
    caller flip :attr:`binary` between two documents (a hello and its
    ack): the bytes after the flip parse in the new framing.

    ``sniff`` makes the stream's first byte choose the framing: the
    magic byte ``0xAB`` switches to binary1 at once.  A JSON line and a
    binary1 payload are both bounded by :data:`MAX_FRAME_LEN`: a header
    naming a longer payload, or an unterminated line already longer,
    raises :class:`WireError` before more of it is buffered.
    :class:`BadFrame` means one undecodable document was consumed and
    the stream is still framed.
    """

    __slots__ = ("binary", "decode_memo", "_buf", "_pos", "_scan", "_sniff")

    def __init__(
        self, sniff: bool = False, decode_memo: DecodeMemo | None = None
    ) -> None:
        self.binary = False
        self.decode_memo = (
            decode_memo if decode_memo is not None else DecodeMemo()
        )
        self._buf = bytearray()
        self._pos = 0   # consumed prefix of _buf (compacted on feed)
        self._scan = 0  # where the search for the next newline resumes
        self._sniff = sniff

    @property
    def pending(self) -> int:
        """Bytes fed but not parsed yet."""
        return len(self._buf) - self._pos

    def feed(self, data: bytes) -> None:
        # The consumed prefix is tracked by offset and dropped here, once
        # per chunk: deleting per frame would memmove the remainder for
        # every ~30-byte frame, going quadratic when a burst piles up.
        if self._pos:
            del self._buf[:self._pos]
            self._scan -= self._pos
            self._pos = 0
        self._buf += data

    def _consume(self, end: int) -> None:
        if end == len(self._buf):
            self._buf.clear()  # cheap reset, no tail to move
            end = 0
        self._pos = self._scan = end

    def next(self) -> dict[str, Any] | None:
        """The next complete document, or ``None`` until more is fed."""
        buf = self._buf
        pos = self._pos
        if self._sniff:
            if len(buf) == pos:
                return None
            self._sniff = False
            self.binary = buf[pos] == MAGIC
        if self.binary:
            if len(buf) - pos < _HEADER.size:
                return None
            magic, ftype, length = _HEADER.unpack_from(buf, pos)
            if magic != MAGIC:
                raise WireError(f"bad frame magic 0x{magic:02x}")
            if length > MAX_FRAME_LEN:
                raise WireError(f"frame length {length} over the cap")
            end = pos + _HEADER.size + length
            if len(buf) < end:
                return None
            payload = bytes(buf[pos + _HEADER.size:end])
            self._consume(end)
            return decode_frame(ftype, payload, self.decode_memo)
        while True:
            end = buf.find(b"\n", self._scan, pos + MAX_FRAME_LEN + 1)
            if end < 0:
                if len(buf) - pos > MAX_FRAME_LEN:
                    raise WireError(f"JSON line over {MAX_FRAME_LEN} B")
                self._scan = len(buf)
                return None
            line = buf[pos:end]
            self._consume(end + 1)
            doc = _json_doc(line)
            if doc is not None:
                return doc
            pos = self._pos  # a blank line: read on

    def eof(self) -> dict[str, Any] | None:
        """At end of stream, after :meth:`next` returned ``None``: the
        document of an unterminated last JSON line, if there is one.  A
        binary stream's partial frame is dropped."""
        if self.binary or not self.pending:
            return None
        line = self._buf[self._pos:]
        self._consume(len(self._buf))
        return _json_doc(line)


def _json_doc(line: bytearray) -> dict[str, Any] | None:
    """One JSON-lines document; ``None`` for a blank line."""
    try:
        doc = json.loads(line.decode())
    except (ValueError, RecursionError):
        if not line.strip():
            return None
        raise BadFrame("not a JSON object") from None
    if not isinstance(doc, dict):
        raise BadFrame("not a JSON object")
    return doc


class WireConnection:
    """One connection's mode-aware codec state: a :class:`FrameParser`
    for what comes in, the encoders for what goes out.

    Around an asyncio stream pair it is a client: :meth:`recv` reads
    through the parser and :meth:`negotiate` flips to binary1.  The
    served side (:class:`ServedConnection`) and the router's backend
    links are :class:`ReadBuffer` protocols whose ``writer`` is the
    transport itself.  ``allow_binary=True`` makes the parser sniff the
    first byte for the magic.

    Every write chooses its framing and puts its bytes in the transport
    buffer in one synchronous step, and the hello ack flips the mode
    right after its own bytes: so a frame's framing always matches its
    place in the byte stream, with no lock and no await in between.
    """

    def __init__(
        self,
        reader: Any,
        writer: Any,
        allow_binary: bool = True,
        encode_memo: EncodeMemo | None = None,
        decode_memo: DecodeMemo | None = None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.encode_memo = (
            encode_memo if encode_memo is not None else EncodeMemo()
        )
        self.parser = FrameParser(allow_binary, decode_memo)

    @property
    def binary(self) -> bool:
        return self.parser.binary

    @binary.setter
    def binary(self, on: bool) -> None:
        self.parser.binary = on

    @property
    def wire(self) -> str:
        return WIRE_BINARY1 if self.parser.binary else WIRE_JSON

    # -- receiving (stream clients) ----------------------------------------
    async def recv(self) -> dict[str, Any] | None:
        """The next request/response document, or ``None`` on EOF.

        Raises :class:`BadFrame` for one undecodable frame (stream
        still framed — keep reading) and :class:`WireError` when the
        stream can no longer be trusted.
        """
        parser = self.parser
        while True:
            doc = parser.next()
            if doc is not None:
                return doc
            chunk = await self.reader.read(READ_CHUNK)
            if not chunk:
                return parser.eof()
            parser.feed(chunk)

    def has_input(self) -> bool:
        """Whether bytes already read wait to be parsed."""
        return self.parser.pending > 0

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
        """A response document of any shape, buffered without waiting;
        the transport's write-buffer mark is the flow control.  Query
        successes take the fast path (the router's proxy re-framing
        uses this).  A connection already closing drops the answer: its
        client has gone."""
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

    # -- client-side negotiation -------------------------------------------
    async def negotiate(self) -> bool:
        """Offer ``binary1`` (one JSON hello, one JSON ack) and flip to
        binary if the peer agreed.  Returns whether binary is on; a
        refusal of any shape (``bad_request`` from a pre-hello server,
        ``"wire": "json"``) is the clean downgrade, not an error.  Must
        run before the connection carries any other traffic."""
        self.writer.write(HELLO_LINE)
        await self.writer.drain()
        try:
            ack = await self.recv()
        except BadFrame as exc:
            raise ConnectionError(f"malformed hello ack: {exc}") from None
        self.binary = hello_accepted(ack)
        return self.binary


#: A client's hello: one JSON line offering ``binary1``.
HELLO_LINE = (
    json.dumps({"op": "hello", "id": 0, "wire": WIRE_BINARY1}) + "\n"
).encode()


def hello_accepted(ack: dict[str, Any] | None) -> bool:
    """Whether the hello ack ``ack`` switches the connection to
    ``binary1``.  Raises ``ConnectionError`` on EOF (``None``)."""
    if ack is None:
        raise ConnectionError("connection closed during wire negotiation")
    return bool(ack.get("ok")) and ack.get("wire") == WIRE_BINARY1


class ReadBuffer(asyncio.BufferedProtocol):
    """The read side of a served connection and a backend link: the
    transport reads each packet into one :data:`READ_CHUNK`-byte buffer
    of the connection's own (``recv_into``), allocated on the first
    read and reused for every later one, and the subclass's
    ``buffer_updated`` feeds what arrived to its :class:`FrameParser`.

    A plain ``asyncio.Protocol`` gets a fresh 256 KiB ``bytes`` per
    read instead, which glibc may serve by ``mmap``: a page-faulting
    allocation per packet, or not, depending on what the process
    allocated and freed before."""

    _read_buf: memoryview | None = None

    def get_buffer(self, sizehint: int) -> memoryview:
        buf = self._read_buf
        if buf is None:
            buf = self._read_buf = memoryview(bytearray(READ_CHUNK))
        return buf


# -- the served side: one Protocol for every endpoint -----------------------

class ServedConnection(WireConnection, ReadBuffer):
    """One served connection.  :meth:`buffer_updated` parses every
    complete request in the bytes just read and hands each to the
    endpoint in the same callback, so a request answered on the read
    path costs one event-loop turn, with no task and no future.

    Reading stops (``pause_reading``) while something must wait, and
    resumes when it is over:

    * a non-query op, or an awaitable a query returned: :meth:`hold`,
      one task each, so non-query ops answer in request order;
    * :data:`MAX_UNANSWERED` accepted requests without an answer
      (:meth:`add`/:meth:`done`, or :meth:`spawn` for one task each);
    * more than :data:`WRITE_HIGH_WATER` unsent bytes
      (``pause_writing``/``resume_writing``);
    * a one-turn fairness yield (:meth:`yield_turn`).

    After EOF, or broken framing, nothing more is read, and the
    connection closes once every accepted request is answered.
    """

    def __init__(self, endpoint: WireEndpoint) -> None:
        super().__init__(
            None, None,
            allow_binary=endpoint.binary_wire,
            encode_memo=endpoint._client_encode,
            decode_memo=endpoint._client_decode,
        )
        self.endpoint = endpoint
        self.count = 0  #: accepted requests not answered yet
        self.tasks: set[asyncio.Task] = set()
        self._stops = 0        # reasons reading is stopped
        self._full = False     # one of them: MAX_UNANSWERED reached
        self._eof = False      # no request will be read any more
        self._pumping = False
        self._held: asyncio.Future | None = None
        self.closed = asyncio.get_running_loop().create_future()

    # -- asyncio.BufferedProtocol --------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.writer = transport
        transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        self.endpoint._conns.add(self)

    def buffer_updated(self, nbytes: int) -> None:
        self.parser.feed(self._read_buf[:nbytes])
        self._pump()

    def eof_received(self) -> bool:
        self._eof = True
        try:
            req = self.parser.eof()  # an unterminated last JSON line
        except BadFrame as exc:
            self._bad_frame(exc)
        else:
            if req is not None:
                self.endpoint._dispatch(self, req)
        self._maybe_close()
        return True  # keep writing until every answer is out

    def connection_lost(self, exc: Exception | None) -> None:
        self._eof = True
        self.endpoint._conns.discard(self)
        if self._held is not None:
            self._held.cancel()
        for task in self.tasks:
            task.cancel()
        if not self.closed.done():
            self.closed.set_result(None)

    def pause_writing(self) -> None:
        self._stop()

    def resume_writing(self) -> None:
        self._go()

    # -- reading -------------------------------------------------------------
    def _pump(self) -> None:
        # Not re-entered: a request that stops and restarts reading
        # within its own dispatch leaves the outer loop to read on.
        if self._pumping:
            return
        self._pumping = True
        parser = self.parser
        dispatch = self.endpoint._dispatch
        while not self._stops:
            try:
                req = parser.next()
            except BadFrame as exc:
                # One bad frame, a still-framed stream: answer and read
                # on — a wedged connection would be worse than the
                # malformed request.
                self._bad_frame(exc)
                continue
            except WireError:
                self._finish()  # framing broken beyond resync
                break
            if req is None:
                break
            dispatch(self, req)
        self._pumping = False

    def _bad_frame(self, exc: BadFrame) -> None:
        self.write_response({"id": None, "ok": False, "error": "bad_request",
                             "detail": str(exc)})

    def _stop(self) -> None:
        self._stops += 1
        if self._stops == 1:
            self.writer.pause_reading()

    def _go(self) -> None:
        self._stops -= 1
        if not self._stops and not self._eof:
            self.writer.resume_reading()
            self._pump()  # what was read before the stop

    def hold(self, waiting: Awaitable[Any]) -> None:
        """Read nothing more until ``waiting`` is done."""
        self._stop()
        self._held = fut = asyncio.ensure_future(waiting)
        fut.add_done_callback(self._release)

    def _release(self, fut: asyncio.Future) -> None:
        self._held = None
        if not fut.cancelled() and fut.exception() is not None:
            asyncio.get_running_loop().call_exception_handler({
                "message": "served connection: answering a request failed",
                "exception": fut.exception(), "protocol": self,
            })
            self._finish()
        self._go()
        self._maybe_close()

    def yield_turn(self) -> None:
        """Let other connections run one loop turn before this one
        reads on."""
        self._stop()
        asyncio.get_running_loop().call_soon(self._go)

    # -- unanswered requests -------------------------------------------------
    def add(self) -> None:
        self.count += 1
        if self.count >= MAX_UNANSWERED and not self._full:
            self._full = True
            self._stop()

    def done(self) -> None:
        self.count -= 1
        if self._full and self.count < MAX_UNANSWERED:
            self._full = False
            self._go()
        self._maybe_close()

    def spawn(self, coro: Coroutine[Any, Any, None]) -> None:
        """Answer one request from its own task, counted until done."""
        task = asyncio.get_running_loop().create_task(coro)
        self.tasks.add(task)
        self.add()
        task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        self.tasks.discard(task)
        if not task.cancelled():
            task.exception()  # an answer task reports its own failures
        self.done()

    # -- closing -------------------------------------------------------------
    def _finish(self) -> None:
        """Read nothing more; close once every answer is out."""
        if not self._eof:
            self._eof = True
            self._stop()
        self._maybe_close()

    def _maybe_close(self) -> None:
        if self._eof and not self.count and self._held is None:
            self.writer.close()  # flushes what is buffered first

    async def close_when_answered(self) -> None:
        """Shutdown: drop a pending op, stop reading, and close once
        every accepted query is answered and written — so "drained"
        means no answer was dropped at the transport either."""
        if self._held is not None:
            self._held.cancel()
        self._finish()
        await self.closed


#: An op handler: ``(id, request) -> response doc``.
OpHandler = Callable[[Any, dict[str, Any]], Awaitable[dict[str, Any]]]


class WireEndpoint:
    """The serving skin that :class:`~repro.serve.server.ServeServer`
    and :class:`~repro.serve.router.ServeRouter` share: one listening
    socket, one :class:`ServedConnection` per connection.

    :meth:`_dispatch` owns what is the same on both: ``hello``,
    ``ping``, ``shutdown``, unknown ops and job ops without a handler,
    answered at once; every other non-query op answered from a task
    while reading waits.  A
    subclass supplies the rest:

    * :meth:`_query` — a ``query`` is the first test and, once its
      ``kind`` and ``params`` are typed right, is handed over without
      dispatch or task;
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
        self._conns: set[ServedConnection] = set()

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: ServedConnection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` op arrives, then stop accepting,
        :meth:`_drain`, and close every connection once answered."""
        assert self._server is not None, "start() first"
        await self._shutdown.wait()
        self._server.close()
        await self._drain()
        for conn in list(self._conns):
            await conn.close_when_answered()
        await self._server.wait_closed()

    async def _drain(self) -> None:
        raise NotImplementedError

    def _query(
        self, conn: ServedConnection, rid: Any, req: dict[str, Any]
    ) -> Awaitable[None] | None:
        """Answer ``req``, or start answering it and count it on
        ``conn``; an awaitable return holds reading until it is done."""
        raise NotImplementedError

    def _home_of(self, kind: str, params: dict[str, Any]) -> str:
        """The backend name owning the key ``(kind, params)``."""
        raise NotImplementedError

    def _dispatch(self, conn: ServedConnection, req: dict[str, Any]) -> None:
        op = req.get("op")
        rid = req.get("id")
        if op == "query":
            if isinstance(req.get("kind"), str) and isinstance(
                req.get("params"), dict
            ):
                waiting = self._query(conn, rid, req)
                if waiting is not None:
                    conn.hold(waiting)
            else:
                conn.write_response(
                    {"id": rid, "ok": False, "error": "bad_request",
                     "detail": "query needs a string 'kind' and "
                     "object 'params'"},
                )
            return
        handler = self._ops.get(op)
        if handler is not None:
            conn.hold(self._answer_op(conn, handler, rid, req))
        elif op == "ping":
            conn.write_response({"id": rid, "ok": True})
        elif op == "hello" and self.binary_wire:
            # An offer we cannot speak is acked "json": negotiate down,
            # never error.  A binary connection stays binary, so its ack
            # names binary1 whatever the offer.  The flip follows the
            # ack's bytes, before the next request is parsed.
            enable = conn.binary or req.get("wire") == WIRE_BINARY1
            wire = WIRE_BINARY1 if enable else WIRE_JSON
            conn.write_response({"id": rid, "ok": True, "wire": wire})
            conn.binary = enable
        elif op == "shutdown":
            conn.write_response({"id": rid, "ok": True})
            self.request_shutdown()
        elif op in JOB_OPS:
            conn.write_response(
                {"id": rid, "ok": False, "error": "bad_request",
                 "detail": "job tier disabled (serve --no-jobs)"},
            )
        else:
            # With binary_wire off, "hello" lands here too: that
            # bad_request IS the downgrade signal binary-preferring
            # clients key off.
            conn.write_response(
                {"id": rid, "ok": False, "error": "bad_request",
                 "detail": f"unknown op {op!r}"},
            )

    @staticmethod
    async def _answer_op(
        conn: ServedConnection, handler: OpHandler, rid: Any,
        req: dict[str, Any],
    ) -> None:
        conn.write_response(await handler(rid, req))

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


# -- synchronous one-shot client helpers ------------------------------------

class SyncWireClient:
    """Blocking-socket counterpart of :class:`WireConnection` for the
    one-shot client (:func:`repro.serve.client.request_once`), on the
    same :class:`FrameParser`: the hello ack and the binary frames that
    follow it come out of one buffer.  A malformed or truncated answer
    raises ``ConnectionError``.
    """

    def __init__(self, sock: Any) -> None:
        self.sock = sock
        self.parser = FrameParser()

    def _recv(self) -> dict[str, Any] | None:
        parser = self.parser
        try:
            while True:
                doc = parser.next()
                if doc is not None:
                    return doc
                chunk = self.sock.recv(READ_CHUNK)
                if not chunk:
                    return parser.eof()
                parser.feed(chunk)
        except (BadFrame, WireError) as exc:
            raise ConnectionError(f"malformed response: {exc}") from None

    def negotiate(self) -> bool:
        self.sock.sendall(HELLO_LINE)
        self.parser.binary = hello_accepted(self._recv())
        return self.parser.binary

    def request(self, doc: dict[str, Any]) -> dict[str, Any]:
        if self.parser.binary:
            self.sock.sendall(encode_doc_frame(doc))
        else:
            self.sock.sendall((json.dumps(doc) + "\n").encode())
        resp = self._recv()
        if resp is None:
            raise ConnectionError("server closed the connection mid-request")
        return resp
